//! Eunomia replica simulation actor (Algorithms 3–4).
//!
//! With `replicas = 1` this is the plain service of §3.1; with more it is
//! the fault-tolerant service of §3.3: every replica ingests every batch,
//! an Ω elector picks the leader, the leader stabilizes and ships, and
//! followers discard what the leader announced. Stable batches are chained
//! (`prev_stable`/`stable`) so receivers stay correct across fail-over.
//!
//! The state machine is [`ReplicaState`], the lane-based replica the
//! threaded service also runs, here carrying each update's [`OpMeta`] as
//! its payload; its drain emits in global `(timestamp, partition)` order,
//! which the receivers' Alg. 5 queues rely on.

use crate::config::ClusterConfig;
use crate::metrics::GeoMetrics;
use crate::msg::{BundleEntry, Msg, OpMeta, StableOp};
use crate::registry::SharedRegistry;
use eunomia_core::election::OmegaState;
use eunomia_core::ids::{DcId, ReplicaId};
use eunomia_core::replica::ReplicaState;
use eunomia_core::shard::BatchFrame;
use eunomia_core::time::Timestamp;
use eunomia_sim::{Context, Process, ProcessId};
use std::rc::Rc;

const TIMER_STABLE: u64 = 2;
const TIMER_OMEGA: u64 = 3;

/// The Eunomia replica actor.
pub struct ReplicaProc {
    state: ReplicaState<OpMeta>,
    omega: OmegaState,
    dc: usize,
    rid: ReplicaId,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    last_shipped_stable: Timestamp,
}

impl ReplicaProc {
    /// Creates replica `rid` of datacenter `dc`'s Eunomia service.
    pub fn new(
        dc: usize,
        rid: ReplicaId,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        let replicas = cfg.replicas.max(1);
        ReplicaProc {
            state: ReplicaState::new(rid, cfg.partitions_per_dc),
            omega: OmegaState::new(rid, replicas, cfg.omega_timeout),
            dc,
            rid,
            cfg,
            reg,
            metrics,
            last_shipped_stable: Timestamp::ZERO,
        }
    }

    fn peers(&self) -> Vec<(ReplicaId, ProcessId)> {
        self.reg
            .borrow()
            .eunomia_replicas(self.dc)
            .iter()
            .enumerate()
            .filter(|(f, _)| *f != self.rid.index())
            .map(|(f, pid)| (ReplicaId(f as u32), *pid))
            .collect()
    }

    /// Ingests one partition's batch (+ optional heartbeat), returning the
    /// cumulative ack timestamp.
    fn ingest_entry(&mut self, ctx: &mut Context<'_, Msg>, entry: BundleEntry) -> Timestamp {
        if entry.heartbeat.is_some() {
            ctx.consume(self.cfg.costs.hb_ns);
        }
        let frame = BatchFrame {
            partition: entry.partition,
            ids: entry.ops.iter().map(|m| m.id.ts).collect(),
            payloads: entry.ops,
            heartbeat: entry.heartbeat,
        };
        self.state
            .ingest_owned(frame)
            .expect("cluster wiring guarantees valid partition ids")
    }

    fn process_stable(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = Timestamp(ctx.now());
        let leader = self.omega.leader(now);
        self.state.set_leader(leader);
        if leader != self.rid {
            return;
        }
        let prev_stable = self.state.last_stable();
        let mut out = Vec::new();
        let Some(stable) = self.state.leader_process_stable(&mut out) else {
            return;
        };
        ctx.consume(
            self.cfg.costs.stable_per_op_ns * out.len() as u64 + self.cfg.costs.batch_overhead_ns,
        );
        for (_, peer) in self.peers() {
            ctx.send(peer, Msg::StableAnnounce { stable });
        }
        let ops: Vec<StableOp> = out
            .into_iter()
            .map(|(key, meta)| StableOp {
                partition: key.partition,
                id: meta.id,
                vts: meta.vts,
            })
            .collect();
        let reg = self.reg.borrow();
        for dest in 0..self.cfg.n_dcs {
            if dest != self.dc {
                ctx.send(
                    reg.receiver(dest),
                    Msg::StableOps {
                        origin: DcId(self.dc as u16),
                        prev_stable,
                        stable,
                        ops: ops.clone(),
                    },
                );
            }
        }
        self.last_shipped_stable = stable;
    }
}

impl Process<Msg> for ReplicaProc {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.cfg.theta, TIMER_STABLE);
        if self.cfg.replicas > 1 {
            ctx.set_timer(self.cfg.omega_interval, TIMER_OMEGA);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        match msg {
            Msg::MetaBatch {
                partition,
                ops,
                heartbeat,
            } => {
                self.metrics.record_service_msg();
                ctx.consume(
                    self.cfg.costs.batch_overhead_ns + self.cfg.costs.meta_op_ns * ops.len() as u64,
                );
                let entry = BundleEntry {
                    replica: self.rid,
                    partition,
                    ops,
                    heartbeat,
                };
                let ack = self.ingest_entry(ctx, entry);
                ctx.send(
                    from,
                    Msg::MetaAck {
                        replica: self.rid,
                        upto: ack,
                    },
                );
            }
            Msg::MetaBundle { entries } => {
                // §5 tree: one message, many partitions' batches. Acks go
                // straight back to each originating partition.
                self.metrics.record_service_msg();
                ctx.consume(self.cfg.costs.batch_overhead_ns);
                for entry in entries {
                    debug_assert_eq!(entry.replica, self.rid, "root routes per replica");
                    ctx.consume(self.cfg.costs.meta_op_ns * entry.ops.len() as u64);
                    let partition = entry.partition;
                    let ack = self.ingest_entry(ctx, entry);
                    let target = self.reg.borrow().partition(self.dc, partition.index());
                    ctx.send(
                        target,
                        Msg::MetaAck {
                            replica: self.rid,
                            upto: ack,
                        },
                    );
                }
            }
            Msg::StableAnnounce { stable } => {
                ctx.consume(self.cfg.costs.hb_ns);
                self.state.apply_stable(stable);
            }
            Msg::ReplicaAlive { replica } => {
                self.omega.record_heartbeat(replica, Timestamp(ctx.now()));
            }
            other => {
                debug_assert!(false, "replica received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match tag {
            TIMER_STABLE => {
                self.process_stable(ctx);
                ctx.set_timer(self.cfg.theta, TIMER_STABLE);
            }
            TIMER_OMEGA => {
                for (_, peer) in self.peers() {
                    ctx.send(peer, Msg::ReplicaAlive { replica: self.rid });
                }
                ctx.set_timer(self.cfg.omega_interval, TIMER_OMEGA);
            }
            _ => debug_assert!(false, "unknown timer {tag}"),
        }
    }

    fn mc_state(&self, h: &mut dyn std::hash::Hasher) -> bool {
        self.state.state_digest(h);
        self.omega.state_digest(h);
        h.write_usize(self.dc);
        h.write_u32(self.rid.0);
        h.write_u64(self.last_shipped_stable.0);
        true
    }
}
