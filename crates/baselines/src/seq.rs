//! Sequencer-based baselines: S-Seq and A-Seq (§2, §7.1).
//!
//! **S-Seq** mimics SwiftCloud/ChainReaction: every update synchronously
//! obtains the next per-datacenter sequence number *before* replying to
//! the client, so the sequencer sits in the critical path — trivial
//! dependency checking at remote datacenters (apply the `s`-th update of
//! `k` once the `s-1`-th is in and its cross-DC dependencies are covered)
//! at the price of intra-datacenter concurrency.
//!
//! **A-Seq** is the paper's deliberately *bogus* variant: it performs the
//! same total work but contacts the sequencer in parallel with applying
//! the update, replying to the client immediately. It fails to capture
//! causality; it exists to isolate how much of S-Seq's penalty is the
//! synchronous round trip (§2, Fig. 1).

use crate::msg::{BMsg, MaxSession};
use eunomia_core::ids::DcId;
use eunomia_core::sequencer::Sequencer;
use eunomia_core::time::{Timestamp, VectorTime};
use eunomia_geo::cluster::Cluster;
use eunomia_geo::config::ClusterConfig;
use eunomia_geo::metrics::GeoMetrics;
use eunomia_geo::registry::SharedRegistry;
use eunomia_kv::store::{StoredVersion, VersionedStore};
use eunomia_kv::{ring, Key, Update, Value};
use eunomia_sim::{Context, Process, ProcessId, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

const TIMER_RHO: u64 = 20;

/// Synchronous (S-Seq) or asynchronous/bogus (A-Seq) sequencer use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqMode {
    /// Sequencer round trip inside the update critical path.
    Synchronous,
    /// Sequencer contacted in parallel; client reply does not wait.
    Asynchronous,
}

struct PendingSeq {
    client: ProcessId,
    key: Key,
    value: Value,
    deps: VectorTime,
}

/// Partition actor for the sequencer systems.
pub struct SeqPartitionProc {
    mode: SeqMode,
    dc: usize,
    pidx: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    store: VersionedStore,
    /// Updates awaiting their sequence number, in request order (the
    /// sequencer link is FIFO, so replies match front to back).
    pending: VecDeque<PendingSeq>,
    /// Provisional per-partition version counter for A-Seq local writes.
    provisional: u64,
}

impl SeqPartitionProc {
    fn new(
        mode: SeqMode,
        dc: usize,
        pidx: usize,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        SeqPartitionProc {
            mode,
            dc,
            pidx,
            cfg,
            reg,
            metrics,
            store: VersionedStore::new(),
            pending: VecDeque::new(),
            provisional: 0,
        }
    }

    fn vec_cost(&self) -> u64 {
        self.cfg.costs.vector_entry_ns * self.cfg.n_dcs as u64
    }

    fn ship(&self, ctx: &mut Context<'_, BMsg>, update: Update) {
        let reg = self.reg.borrow();
        for k in 0..self.cfg.n_dcs {
            if k != self.dc {
                ctx.send(
                    reg.seq_receiver(k),
                    BMsg::SeqShip {
                        update: update.clone(),
                    },
                );
            }
        }
    }
}

impl Process<BMsg> for SeqPartitionProc {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ProcessId, msg: BMsg) {
        let costs = self.cfg.costs;
        match msg {
            BMsg::Read { key } => {
                ctx.consume(costs.read_ns + self.vec_cost());
                self.metrics.record_read(self.dc, key.0, ctx.now());
                let (value, vts) = match self.store.get(key) {
                    Some(v) => (v.value.clone(), v.vts.clone()),
                    None => (Value::new(), VectorTime::new(self.cfg.n_dcs)),
                };
                ctx.send(from, BMsg::ReadReply { value, vts });
            }
            BMsg::Update { key, value, deps } => {
                ctx.consume(costs.update_ns + self.vec_cost());
                let sequencer = self.reg.borrow().sequencer(self.dc);
                // Straggler injection (§7.2.3): a partition that
                // communicates abnormally slowly with its ordering service
                // defers each sequencer request by the straggling interval.
                // Healthy partitions' updates still get their own
                // consecutive numbers, so only this partition's clients
                // pay — the sequencer contrast to Eunomia's stable-time
                // coupling.
                let extra = match &self.cfg.straggler {
                    Some(st)
                        if st.dc == self.dc
                            && st.partition == self.pidx
                            && ctx.now() >= st.from
                            && ctx.now() < st.to =>
                    {
                        st.interval
                    }
                    _ => 0,
                };
                if self.mode == SeqMode::Asynchronous {
                    // Bogus variant: apply + reply immediately with a
                    // provisional version; the sequencer runs in parallel.
                    self.provisional += 1;
                    let mut vts = deps.clone();
                    vts.set(DcId(self.dc as u16), Timestamp(self.provisional));
                    self.store.put_local(
                        key,
                        StoredVersion {
                            value: value.clone(),
                            vts: vts.clone(),
                            origin: DcId(self.dc as u16),
                        },
                    );
                    ctx.send(from, BMsg::UpdateReply { vts });
                }
                self.pending.push_back(PendingSeq {
                    client: from,
                    key,
                    value,
                    deps,
                });
                if extra > 0 {
                    ctx.send_delayed(sequencer, BMsg::SeqRequest, extra);
                } else {
                    ctx.send(sequencer, BMsg::SeqRequest);
                }
            }
            BMsg::SeqReply { seq } => {
                ctx.consume(costs.scalar_meta_ns);
                let p = self
                    .pending
                    .pop_front()
                    .expect("sequencer replies match requests");
                let mut vts = p.deps.clone();
                vts.set(DcId(self.dc as u16), Timestamp(seq));
                let update = Update {
                    key: p.key,
                    value: p.value.clone(),
                    vts: vts.clone(),
                    origin: DcId(self.dc as u16),
                };
                if self.mode == SeqMode::Synchronous {
                    // The client has been waiting for this round trip.
                    self.store.put_local(
                        p.key,
                        StoredVersion {
                            value: p.value,
                            vts: vts.clone(),
                            origin: DcId(self.dc as u16),
                        },
                    );
                    ctx.send(p.client, BMsg::UpdateReply { vts });
                }
                // Both modes log the local commit under its *sequenced*
                // identity — the (origin, seq) that remote applies carry
                // (A-Seq's provisional store write has no stable id).
                self.metrics
                    .record_apply(eunomia_geo::metrics::ApplyRecord {
                        origin: self.dc as u16,
                        dest: self.dc as u16,
                        key: update.key.0,
                        ts: seq,
                        vts: update.vts.as_ticks(),
                        at: ctx.now(),
                    });
                self.ship(ctx, update);
            }
            BMsg::SeqApply { update, arrival } => {
                ctx.consume(costs.apply_ns);
                let origin = update.origin;
                let seq = update.vts.get(origin).0;
                let extra = ctx.now().saturating_sub(arrival);
                self.metrics
                    .record_visibility(origin.0, self.dc as u16, ctx.now(), extra);
                self.metrics
                    .record_apply(eunomia_geo::metrics::ApplyRecord {
                        origin: origin.0,
                        dest: self.dc as u16,
                        key: update.key.0,
                        ts: seq,
                        vts: update.vts.as_ticks(),
                        at: ctx.now(),
                    });
                self.store.put_remote(
                    update.key,
                    StoredVersion {
                        value: update.value,
                        vts: update.vts,
                        origin,
                    },
                );
                let receiver = self.reg.borrow().seq_receiver(self.dc);
                ctx.send(receiver, BMsg::SeqApplyOk { origin, seq });
            }
            other => {
                debug_assert!(
                    false,
                    "seq partition received unexpected message: {other:?}"
                );
            }
        }
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash as _;
        h.write_usize(self.dc);
        h.write_usize(self.pidx);
        self.store.state_digest(h);
        h.write_usize(self.pending.len());
        for p in &self.pending {
            h.write_u32(p.client.0);
            (p.key, &p.value, &p.deps).hash(&mut h);
        }
        h.write_u64(self.provisional);
        true
    }
}

/// The per-datacenter sequencer service.
pub struct SequencerProc {
    state: Sequencer,
    cfg: Rc<ClusterConfig>,
    requests: u64,
}

impl SequencerProc {
    fn new(cfg: Rc<ClusterConfig>) -> Self {
        SequencerProc {
            state: Sequencer::new(),
            cfg,
            requests: 0,
        }
    }
}

impl Process<BMsg> for SequencerProc {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ProcessId, msg: BMsg) {
        match msg {
            BMsg::SeqRequest => {
                ctx.consume(self.cfg.costs.seq_req_ns);
                self.requests += 1;
                ctx.send(
                    from,
                    BMsg::SeqReply {
                        seq: self.state.next_seq(),
                    },
                );
            }
            other => {
                debug_assert!(false, "sequencer received unexpected message: {other:?}");
            }
        }
    }

    fn mc_state(&self, h: &mut dyn std::hash::Hasher) -> bool {
        h.write_u64(self.state.last());
        h.write_u64(self.requests);
        true
    }
}

/// Receiver for sequenced remote updates: applies the `s`-th update of
/// each origin once the `s-1`-th is in and its cross-DC dependencies are
/// covered — the trivially cheap dependency check sequencer systems enjoy.
pub struct SeqReceiverProc {
    dc: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    queues: Vec<BTreeMap<u64, (Update, SimTime)>>,
    next_expected: Vec<u64>,
    site_seq: Vec<u64>,
    in_flight: Option<(usize, u64)>,
}

impl SeqReceiverProc {
    fn new(dc: usize, cfg: Rc<ClusterConfig>, reg: SharedRegistry) -> Self {
        let n = cfg.n_dcs;
        SeqReceiverProc {
            dc,
            cfg,
            reg,
            queues: vec![BTreeMap::new(); n],
            next_expected: vec![1; n],
            site_seq: vec![0; n],
            in_flight: None,
        }
    }

    fn flush(&mut self, ctx: &mut Context<'_, BMsg>) {
        if self.in_flight.is_some() {
            return;
        }
        for k in 0..self.cfg.n_dcs {
            if k == self.dc {
                continue;
            }
            let Some((&seq, (update, arrival))) = self.queues[k].first_key_value() else {
                continue;
            };
            if seq != self.next_expected[k] {
                continue; // Gap: an earlier sequenced update is in flight.
            }
            let deps_ok = (0..self.cfg.n_dcs)
                .filter(|d| *d != self.dc && *d != k)
                .all(|d| update.vts.get(DcId(d as u16)).0 <= self.site_seq[d]);
            if !deps_ok {
                continue;
            }
            ctx.consume(self.cfg.costs.receiver_op_ns);
            self.in_flight = Some((k, seq));
            let pidx = ring::responsible(update.key, self.cfg.partitions_per_dc);
            let target = self.reg.borrow().partition(self.dc, pidx.index());
            ctx.send(
                target,
                BMsg::SeqApply {
                    update: update.clone(),
                    arrival: *arrival,
                },
            );
            return;
        }
    }
}

impl Process<BMsg> for SeqReceiverProc {
    fn on_start(&mut self, ctx: &mut Context<'_, BMsg>) {
        ctx.set_timer(self.cfg.rho, TIMER_RHO);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, _from: ProcessId, msg: BMsg) {
        match msg {
            BMsg::SeqShip { update } => {
                ctx.consume(self.cfg.costs.receiver_op_ns);
                let origin = update.origin.index();
                let seq = update.vts.get(update.origin).0;
                self.queues[origin].insert(seq, (update, ctx.now()));
                self.flush(ctx);
            }
            BMsg::SeqApplyOk { origin, seq } => {
                ctx.consume(self.cfg.costs.receiver_op_ns);
                let o = origin.index();
                debug_assert_eq!(self.in_flight, Some((o, seq)));
                self.queues[o].remove(&seq);
                self.site_seq[o] = seq;
                self.next_expected[o] = seq + 1;
                self.in_flight = None;
                self.flush(ctx);
            }
            other => {
                debug_assert!(false, "seq receiver received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BMsg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_RHO);
        self.flush(ctx);
        ctx.set_timer(self.cfg.rho, TIMER_RHO);
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash as _;
        h.write_usize(self.dc);
        // Queued sequenced updates: identity only — the recorded arrival
        // instants are visibility bookkeeping, excluded by the engine's
        // time abstraction (see `Simulation::mc_fingerprint`).
        for q in &self.queues {
            h.write_usize(q.len());
            for (seq, (update, _arrival)) in q {
                (seq, update).hash(&mut h);
            }
        }
        self.next_expected.hash(&mut h);
        self.site_seq.hash(&mut h);
        self.in_flight.hash(&mut h);
        true
    }
}

/// Builds an S-Seq or A-Seq deployment: per datacenter, the partitions,
/// the sequencer, the receiver and the clients, each on its own node with
/// a perfect clock (no sequencer-system process reads physical time).
pub(crate) fn build(mode: SeqMode, cfg: ClusterConfig) -> Cluster<BMsg> {
    let mut cluster = Cluster::new(cfg);
    let cfg = cluster.cfg.clone();
    let (reg, metrics) = (cluster.registry.clone(), cluster.metrics.clone());
    let mut partitions = Vec::new();
    let mut sequencers = Vec::new();
    let mut seq_receivers = Vec::new();
    for dc in 0..cfg.n_dcs {
        let mut dc_parts = Vec::new();
        for p in 0..cfg.partitions_per_dc {
            let proc =
                SeqPartitionProc::new(mode, dc, p, cfg.clone(), reg.clone(), metrics.clone());
            dc_parts.push(cluster.sim.add_process(dc, Box::new(proc)));
        }
        partitions.push(dc_parts);
        let sequencer = SequencerProc::new(cfg.clone());
        sequencers.push(cluster.sim.add_process(dc, Box::new(sequencer)));
        let receiver = SeqReceiverProc::new(dc, cfg.clone(), reg.clone());
        seq_receivers.push(cluster.sim.add_process(dc, Box::new(receiver)));
        for c in 0..cfg.clients_per_dc {
            cluster.add_client(dc, c, MaxSession::new(dc, cfg.n_dcs));
        }
    }
    cluster.set_partitions(partitions);
    {
        let mut r = reg.borrow_mut();
        r.sequencers = sequencers;
        r.seq_receivers = seq_receivers;
    }
    cluster
}

#[cfg(test)]
mod receiver_unit_tests {
    use super::*;
    use eunomia_geo::registry;

    fn receiver() -> SeqReceiverProc {
        SeqReceiverProc::new(0, Rc::new(ClusterConfig::default()), registry::shared())
    }

    fn shipped(origin: u16, seq: u64, deps: &[u64]) -> (Update, SimTime) {
        let mut vts = VectorTime::from_ticks(deps);
        vts.set(DcId(origin), Timestamp(seq));
        (
            Update {
                key: Key(seq),
                value: Value::new(),
                vts,
                origin: DcId(origin),
            },
            0,
        )
    }

    #[test]
    fn gaps_block_until_contiguous() {
        let mut r = receiver();
        // Sequence 2 arrives before 1: nothing is dispatchable.
        let (u2, a2) = shipped(1, 2, &[0, 0, 0]);
        r.queues[1].insert(2, (u2, a2));
        assert_ne!(r.next_expected[1], 2);
        // Seq 1 closes the gap.
        let (u1, a1) = shipped(1, 1, &[0, 0, 0]);
        r.queues[1].insert(1, (u1, a1));
        assert_eq!(*r.queues[1].first_key_value().unwrap().0, 1);
        assert_eq!(r.next_expected[1], 1);
    }

    #[test]
    fn cross_dc_deps_gate_on_site_seq() {
        let r = {
            let mut r = receiver();
            r.site_seq[2] = 4;
            r
        };
        // Update from dc1 depending on dc2's 5th update: not yet covered.
        let (u, _) = shipped(1, 1, &[0, 0, 5]);
        let deps_ok = (0..3)
            .filter(|d| *d != 0 && *d != 1)
            .all(|d| u.vts.get(DcId(d as u16)).0 <= r.site_seq[d]);
        assert!(!deps_ok);
        // Once dc2's 5th applied, it clears.
        let mut r = r;
        r.site_seq[2] = 5;
        let deps_ok = (0..3)
            .filter(|d| *d != 0 && *d != 1)
            .all(|d| u.vts.get(DcId(d as u16)).0 <= r.site_seq[d]);
        assert!(deps_ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_geo::{RunReport, SystemId};

    fn run(id: SystemId) -> RunReport {
        crate::build(id, ClusterConfig::small_test()).run(id)
    }

    #[test]
    fn sseq_small_run_replicates() {
        let report = run(SystemId::SSeq);
        assert!(report.total_ops > 100);
        assert!(!report
            .metrics
            .visibility_extras(0, 1, 0, u64::MAX)
            .is_empty());
    }

    #[test]
    fn aseq_outruns_sseq() {
        // The bogus async variant avoids the sequencer round trip in the
        // critical path, so its throughput must be at least S-Seq's.
        let s = run(SystemId::SSeq);
        let a = run(SystemId::ASeq);
        assert!(
            a.throughput >= s.throughput,
            "A-Seq {} < S-Seq {}",
            a.throughput,
            s.throughput
        );
    }

    #[test]
    fn sequencer_visibility_extra_is_small() {
        // Sequencer-based systems apply remote updates as soon as the
        // sequence is contiguous: extra delay ~ queueing only.
        let report = run(SystemId::SSeq);
        let p90 = report.visibility_percentile_ms(0, 1, 90.0).unwrap();
        assert!(
            p90 < 50.0,
            "p90 extra {p90} ms too large for a sequencer system"
        );
    }
}
