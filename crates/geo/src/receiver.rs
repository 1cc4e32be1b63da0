//! Receiver simulation actor (Algorithm 5).
//!
//! One per datacenter. Maintains a queue of pending remote updates per
//! origin datacenter plus `SiteTime`, the vector of origin timestamps
//! already applied locally. The faithful mode keeps **one APPLY in
//! flight** — `FLUSH` sends an apply, awaits the `ok`, and restarts — as
//! published; the `pipelined_receiver` extension allows one in-flight
//! apply per origin queue (ablated in `eunomia-bench`).
//!
//! Robustness past the paper: stable batches are chained by
//! (`prev_stable`, `stable`]; a batch arriving ahead of its predecessor
//! (possible only across a leader fail-over, where the sender changes) is
//! stashed until the chain closes, and already-covered operations are
//! dropped as duplicates.

use crate::config::ClusterConfig;
use crate::msg::{Msg, StableOp};
use crate::registry::SharedRegistry;
use eunomia_core::ids::DcId;
use eunomia_core::time::{Timestamp, VectorTime};
use eunomia_kv::UpdateId;
use eunomia_sim::{Context, Process, ProcessId};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

const TIMER_RHO: u64 = 4;

/// The receiver actor for one datacenter.
pub struct ReceiverProc {
    dc: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    /// Pending updates per origin DC, in stable order (`Queue_m`).
    queues: Vec<VecDeque<StableOp>>,
    /// Latest origin timestamp applied per origin DC (`SiteTime_m`).
    site_time: VectorTime,
    /// Stable time covered (enqueued) per origin DC.
    covered: Vec<Timestamp>,
    /// Out-of-order stable batches per origin, keyed by their
    /// `prev_stable` chain link.
    stashed: Vec<BTreeMap<Timestamp, (Timestamp, Vec<StableOp>)>>,
    /// In-flight APPLY per origin (faithful mode uses at most one entry
    /// across all origins).
    in_flight: Vec<Option<UpdateId>>,
}

impl ReceiverProc {
    /// Creates the receiver of datacenter `dc`.
    pub fn new(dc: usize, cfg: Rc<ClusterConfig>, reg: SharedRegistry) -> Self {
        let n = cfg.n_dcs;
        ReceiverProc {
            dc,
            cfg,
            reg,
            queues: vec![VecDeque::new(); n],
            site_time: VectorTime::new(n),
            covered: vec![Timestamp::ZERO; n],
            stashed: vec![BTreeMap::new(); n],
            in_flight: vec![None; n],
        }
    }

    fn any_in_flight(&self) -> bool {
        self.in_flight.iter().any(Option::is_some)
    }

    fn ingest(&mut self, origin: usize, prev: Timestamp, stable: Timestamp, ops: Vec<StableOp>) {
        if stable <= self.covered[origin] {
            return; // Entirely duplicate (re-shipped after fail-over).
        }
        if prev > self.covered[origin] {
            // Chain gap: the predecessor batch is still in flight.
            self.stashed[origin].insert(prev, (stable, ops));
            return;
        }
        for op in ops {
            if op.id.ts > self.covered[origin] {
                self.queues[origin].push_back(op);
            }
        }
        self.covered[origin] = stable;
        // Close any chain links that were waiting on this one.
        while let Some((&prev, _)) = self.stashed[origin].first_key_value() {
            if prev > self.covered[origin] {
                break;
            }
            let (stable, ops) = self.stashed[origin].remove(&prev).expect("key just seen");
            if stable <= self.covered[origin] {
                continue;
            }
            for op in ops {
                if op.id.ts > self.covered[origin] {
                    self.queues[origin].push_back(op);
                }
            }
            self.covered[origin] = stable;
        }
    }

    /// The dependency check of Alg. 5 l. 12: every entry of the update's
    /// vector except the local DC and the origin must be covered by
    /// `SiteTime`.
    fn deps_satisfied(&self, origin: usize, op: &StableOp) -> bool {
        self.site_time
            .dominates_except(&op.vts, &[DcId(self.dc as u16), DcId(origin as u16)])
    }

    /// Whether this datacenter stores the key (always true under full
    /// replication).
    fn stored_here(&self, key: eunomia_kv::Key) -> bool {
        match self.cfg.replication_factor {
            None => true,
            Some(rf) => eunomia_kv::ring::replicates(key, self.dc, self.cfg.n_dcs, rf),
        }
    }

    /// `FLUSH` (Alg. 5): dispatch applies for queue heads whose
    /// dependencies are satisfied, honouring the in-flight discipline.
    /// Under partial replication, updates to keys this datacenter does not
    /// store complete as *metadata-only* applies: `SiteTime` advances (the
    /// Practi-style imprecise knowledge) without any data round trip.
    fn flush(&mut self, ctx: &mut Context<'_, Msg>) {
        loop {
            if !self.cfg.pipelined_receiver && self.any_in_flight() {
                return;
            }
            let mut dispatched = false;
            for origin in 0..self.cfg.n_dcs {
                if origin == self.dc || self.in_flight[origin].is_some() {
                    continue;
                }
                let Some(head) = self.queues[origin].front() else {
                    continue;
                };
                if !self.deps_satisfied(origin, head) {
                    continue;
                }
                if !self.stored_here(head.id.key) {
                    ctx.consume(self.cfg.costs.receiver_op_ns);
                    let op = self.queues[origin].pop_front().expect("head just seen");
                    self.site_time
                        .set(DcId(origin as u16), op.vts.get(DcId(origin as u16)));
                    dispatched = true;
                    continue;
                }
                ctx.consume(self.cfg.costs.receiver_op_ns);
                self.in_flight[origin] = Some(head.id);
                let target = self.reg.borrow().partition(self.dc, head.partition.index());
                ctx.send(
                    target,
                    Msg::Apply {
                        origin: DcId(origin as u16),
                        id: head.id,
                    },
                );
                dispatched = true;
                if !self.cfg.pipelined_receiver {
                    return;
                }
            }
            if !dispatched {
                return;
            }
        }
    }
}

impl Process<Msg> for ReceiverProc {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.cfg.rho, TIMER_RHO);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ProcessId, msg: Msg) {
        match msg {
            Msg::StableOps {
                origin,
                prev_stable,
                stable,
                ops,
            } => {
                ctx.consume(
                    self.cfg.costs.batch_overhead_ns
                        + self.cfg.costs.receiver_op_ns * ops.len() as u64,
                );
                self.ingest(origin.index(), prev_stable, stable, ops);
                self.flush(ctx);
            }
            Msg::ApplyOk { origin, id } => {
                ctx.consume(self.cfg.costs.receiver_op_ns);
                let o = origin.index();
                debug_assert_eq!(self.in_flight[o], Some(id), "ack for unexpected apply");
                let op = self.queues[o].pop_front().expect("acked op must be queued");
                debug_assert_eq!(op.id, id);
                // SiteTime_m[k] <- u_j.vts[k] (Alg. 5 l. 16).
                self.site_time.set(origin, op.vts.get(origin));
                self.in_flight[o] = None;
                self.flush(ctx);
            }
            other => {
                debug_assert!(false, "receiver received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_RHO);
        self.flush(ctx);
        ctx.set_timer(self.cfg.rho, TIMER_RHO);
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash as _;
        h.write_usize(self.dc);
        self.queues.hash(&mut h);
        self.site_time.hash(&mut h);
        self.covered.hash(&mut h);
        self.stashed.hash(&mut h);
        self.in_flight.hash(&mut h);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::registry;
    use eunomia_core::ids::PartitionId;

    fn receiver() -> ReceiverProc {
        let cfg = Rc::new(ClusterConfig::small_test());
        ReceiverProc::new(0, cfg, registry::shared())
    }

    fn op(ts: u64) -> StableOp {
        StableOp {
            partition: PartitionId(0),
            id: UpdateId {
                ts: Timestamp(ts),
                key: eunomia_kv::Key(ts),
            },
            vts: VectorTime::from_ticks(&[0, ts]),
        }
    }

    #[test]
    fn contiguous_batches_enqueue_in_order() {
        let mut r = receiver();
        r.ingest(1, Timestamp::ZERO, Timestamp(10), vec![op(5), op(10)]);
        r.ingest(1, Timestamp(10), Timestamp(20), vec![op(15), op(20)]);
        assert_eq!(r.queues[1].len(), 4);
        assert_eq!(r.covered[1], Timestamp(20));
        assert!(r.stashed[1].is_empty());
    }

    #[test]
    fn out_of_order_batch_is_stashed_until_chain_closes() {
        let mut r = receiver();
        // The (10, 20] batch races ahead of (0, 10] across a fail-over.
        r.ingest(1, Timestamp(10), Timestamp(20), vec![op(15), op(20)]);
        assert_eq!(r.queues[1].len(), 0, "gap: nothing enqueued yet");
        assert_eq!(r.stashed[1].len(), 1);
        r.ingest(1, Timestamp::ZERO, Timestamp(10), vec![op(5), op(10)]);
        // Chain closed: both batches land, in order.
        assert_eq!(r.queues[1].len(), 4);
        let ts: Vec<u64> = r.queues[1].iter().map(|o| o.id.ts.0).collect();
        assert_eq!(ts, vec![5, 10, 15, 20]);
        assert_eq!(r.covered[1], Timestamp(20));
        assert!(r.stashed[1].is_empty());
    }

    #[test]
    fn duplicate_batches_after_failover_are_dropped() {
        let mut r = receiver();
        r.ingest(1, Timestamp::ZERO, Timestamp(10), vec![op(5), op(10)]);
        // A new leader re-ships the same range.
        r.ingest(1, Timestamp::ZERO, Timestamp(10), vec![op(5), op(10)]);
        assert_eq!(r.queues[1].len(), 2, "duplicates must not enqueue");
        // Overlapping range: only the new suffix lands.
        r.ingest(1, Timestamp(5), Timestamp(15), vec![op(10), op(12)]);
        let ts: Vec<u64> = r.queues[1].iter().map(|o| o.id.ts.0).collect();
        assert_eq!(ts, vec![5, 10, 12]);
        assert_eq!(r.covered[1], Timestamp(15));
    }

    #[test]
    fn empty_stable_batches_advance_coverage() {
        let mut r = receiver();
        // Heartbeat-only stabilization rounds produce op-less batches.
        r.ingest(1, Timestamp::ZERO, Timestamp(100), vec![]);
        assert_eq!(r.covered[1], Timestamp(100));
        r.ingest(1, Timestamp(100), Timestamp(200), vec![op(150)]);
        assert_eq!(r.queues[1].len(), 1);
    }

    #[test]
    fn deps_check_skips_local_and_origin_entries() {
        let mut r = receiver();
        // Receiver of dc0 in a 2-DC world: only entries other than dc0
        // (local) and the origin are checked — with 2 DCs, always true.
        let o = StableOp {
            partition: PartitionId(0),
            id: UpdateId {
                ts: Timestamp(5),
                key: eunomia_kv::Key(5),
            },
            vts: VectorTime::from_ticks(&[999, 5]),
        };
        assert!(r.deps_satisfied(1, &o));
        // Three-DC receiver: a dependency on dc2 gates.
        let cfg = Rc::new(ClusterConfig::default());
        let mut r3 = ReceiverProc::new(0, cfg, registry::shared());
        let o3 = StableOp {
            partition: PartitionId(0),
            id: UpdateId {
                ts: Timestamp(5),
                key: eunomia_kv::Key(5),
            },
            vts: VectorTime::from_ticks(&[0, 5, 40]),
        };
        assert!(!r3.deps_satisfied(1, &o3), "dc2 entry not covered yet");
        r3.site_time.set(eunomia_core::ids::DcId(2), Timestamp(40));
        assert!(r3.deps_satisfied(1, &o3));
        let _ = &mut r;
    }

    #[test]
    fn multiple_stashed_links_close_in_one_pass() {
        let mut r = receiver();
        r.ingest(1, Timestamp(20), Timestamp(30), vec![op(25)]);
        r.ingest(1, Timestamp(10), Timestamp(20), vec![op(15)]);
        assert_eq!(r.queues[1].len(), 0);
        assert_eq!(r.stashed[1].len(), 2);
        r.ingest(1, Timestamp::ZERO, Timestamp(10), vec![op(5)]);
        let ts: Vec<u64> = r.queues[1].iter().map(|o| o.id.ts.0).collect();
        assert_eq!(ts, vec![5, 15, 25]);
        assert_eq!(r.covered[1], Timestamp(30));
        assert!(r.stashed[1].is_empty());
    }
}
