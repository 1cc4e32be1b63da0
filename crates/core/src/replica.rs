//! Fault-tolerant Eunomia (§3.3, Algorithm 4).
//!
//! The service becomes a set of replicas. Partitions send every operation
//! to *all* replicas; correctness only needs the **prefix property**: a
//! replica holding an update from partition `p` also holds every earlier
//! update from `p`. That is achieved without exactly-once or
//! inter-partition ordering by a cheap at-least-once scheme — each
//! partition keeps, per replica, the highest acknowledged timestamp
//! (`Ack_n[f]`) and re-sends everything above it
//! ([`LaneSender`](crate::shard::LaneSender)). Replicas filter duplicates
//! by timestamp ([`ReplicaState::new_batch`]).
//!
//! A leader (elected by any asynchronous leader elector, see
//! [`crate::election`]) runs `PROCESS_STABLE` and broadcasts the stable
//! time so followers can discard the operations the leader already
//! processed. The leader is an optimization: replicas never need to
//! coordinate, because the stable time is a deterministic function of
//! inputs whose order does not matter.
//!
//! Both the replica and the sender are implemented once, in
//! [`crate::shard`]; both drivers run them. Under `cfg(test)` this module
//! also keeps Alg. 4 transcribed literally — one ordered map keyed by
//! `(timestamp, partition)` and a resend window — as the reference the
//! equivalence proptests compare against.

use crate::ids::PartitionId;

/// Errors surfaced by the Eunomia replica ([`ReplicaState`]).
///
/// A correct deployment never produces these: they exist so that drivers
/// and tests can detect wiring mistakes instead of silently corrupting
/// the stabilization order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EunomiaError {
    /// An operation or heartbeat arrived from a partition id outside the
    /// configured range.
    UnknownPartition(PartitionId),
}

impl std::fmt::Display for EunomiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EunomiaError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
        }
    }
}

impl std::error::Error for EunomiaError {}

/// One replica of the fault-tolerant Eunomia service (Algorithm 4): the
/// lane-based [`ShardedReplicaState`](crate::shard::ShardedReplicaState)
/// under its paper name.
pub type ReplicaState<T> = crate::shard::ShardedReplicaState<T>;

/// Alg. 4 transcribed literally, kept as the oracle the equivalence
/// proptests hold the lane-based replica and sender to.
#[cfg(test)]
pub(crate) mod reference {
    use crate::ids::{PartitionId, ReplicaId};
    use crate::shard::OpKey;
    use crate::time::Timestamp;
    use std::collections::{BTreeMap, VecDeque};

    /// One replica: a global ordered map of unstable operations.
    pub(crate) struct ReplicaState<T> {
        id: ReplicaId,
        partition_time: Vec<Timestamp>,
        ops: BTreeMap<OpKey, T>,
        leader: ReplicaId,
        last_stable: Timestamp,
        total_accepted: u64,
        total_duplicates: u64,
    }

    impl<T> ReplicaState<T> {
        pub(crate) fn new(id: ReplicaId, n_partitions: usize) -> Self {
            ReplicaState {
                id,
                partition_time: vec![Timestamp::ZERO; n_partitions],
                ops: BTreeMap::new(),
                leader: ReplicaId(0),
                last_stable: Timestamp::ZERO,
                total_accepted: 0,
                total_duplicates: 0,
            }
        }

        /// `NEW_BATCH` (Alg. 4 l. 1–5): per-op duplicate check and
        /// ordered insert; returns the ack.
        pub(crate) fn new_batch(
            &mut self,
            partition: PartitionId,
            batch: impl IntoIterator<Item = (Timestamp, T)>,
        ) -> Timestamp {
            let idx = partition.index();
            for (ts, payload) in batch {
                if ts > self.partition_time[idx] {
                    self.partition_time[idx] = ts;
                    self.ops.insert(OpKey::new(ts, partition), payload);
                    self.total_accepted += 1;
                } else {
                    self.total_duplicates += 1;
                }
            }
            self.partition_time[idx]
        }

        pub(crate) fn heartbeat(&mut self, partition: PartitionId, ts: Timestamp) -> Timestamp {
            let entry = &mut self.partition_time[partition.index()];
            *entry = (*entry).max(ts);
            *entry
        }

        pub(crate) fn set_leader(&mut self, leader: ReplicaId) {
            self.leader = leader;
        }

        pub(crate) fn stable_time(&self) -> Timestamp {
            self.partition_time.iter().copied().min().unwrap()
        }

        /// `PROCESS_STABLE` (Alg. 4 l. 6–12).
        pub(crate) fn leader_process_stable(
            &mut self,
            out: &mut Vec<(OpKey, T)>,
        ) -> Option<Timestamp> {
            let stable = self.stable_time();
            if self.leader != self.id || stable <= self.last_stable {
                return None;
            }
            out.extend(std::iter::from_fn(|| self.pop_stable(stable)));
            self.last_stable = stable;
            Some(stable)
        }

        /// `STABLE` (Alg. 4 l. 13–15).
        pub(crate) fn apply_stable(&mut self, stable: Timestamp) -> usize {
            if stable <= self.last_stable {
                return 0;
            }
            self.last_stable = stable;
            std::iter::from_fn(|| self.pop_stable(stable)).count()
        }

        /// `FIND_STABLE` plus removal: pops the smallest operation if it
        /// is at or below `(stable, PartitionId(u32::MAX))`, so repeated
        /// calls drain the stable prefix in `(timestamp, partition)` order.
        fn pop_stable(&mut self, stable: Timestamp) -> Option<(OpKey, T)> {
            let first = self.ops.first_entry()?;
            (first.key().ts <= stable).then(|| first.remove_entry())
        }

        pub(crate) fn pending(&self) -> usize {
            self.ops.len()
        }

        pub(crate) fn total_duplicates(&self) -> u64 {
            self.total_duplicates
        }
    }

    /// The partition side: a window of operations not yet acknowledged
    /// by every live replica; each batch is everything above the
    /// replica's ack.
    pub(crate) struct ReplicatedSender<T: Clone> {
        window: VecDeque<(Timestamp, T)>,
        acks: Vec<Timestamp>,
    }

    impl<T: Clone> ReplicatedSender<T> {
        pub(crate) fn new(n_replicas: usize) -> Self {
            ReplicatedSender {
                window: VecDeque::new(),
                acks: vec![Timestamp::ZERO; n_replicas],
            }
        }

        pub(crate) fn push(&mut self, ts: Timestamp, payload: T) {
            self.window.push_back((ts, payload));
        }

        pub(crate) fn batch_for(&self, replica: ReplicaId) -> Vec<(Timestamp, T)> {
            let ack = self.acks[replica.index()];
            self.window
                .iter()
                .filter(|(ts, _)| *ts > ack)
                .cloned()
                .collect()
        }

        /// Records an ack and prunes what every replica acknowledged.
        pub(crate) fn on_ack(&mut self, replica: ReplicaId, ts: Timestamp) {
            let slot = &mut self.acks[replica.index()];
            *slot = (*slot).max(ts);
            let min_ack = self.acks.iter().copied().min().unwrap();
            while self.window.front().is_some_and(|(ts, _)| *ts <= min_ack) {
                self.window.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;
    use crate::shard::{LaneSender, OpKey};
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }

    #[test]
    fn stable_bound_is_inclusive() {
        let mut r: ReplicaState<&str> = ReplicaState::new(ReplicaId(0), 2);
        r.new_batch(p(0), [(Timestamp(10), "at"), (Timestamp(11), "above")])
            .unwrap();
        r.heartbeat(p(1), Timestamp(10)).unwrap();
        let mut out = Vec::new();
        assert_eq!(r.leader_process_stable(&mut out), Some(Timestamp(10)));
        assert_eq!(out, vec![(OpKey::new(Timestamp(10), p(0)), "at")]);
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn equal_timestamps_from_different_partitions_drain_in_partition_order() {
        let mut r: ReplicaState<&str> = ReplicaState::new(ReplicaId(0), 3);
        // Arrival order is partition 2, 0, 1; the drain must not follow it.
        r.new_batch(p(2), [(Timestamp(7), "c7"), (Timestamp(10), "c10")])
            .unwrap();
        r.new_batch(p(0), [(Timestamp(5), "a5"), (Timestamp(10), "a10")])
            .unwrap();
        r.new_batch(p(1), [(Timestamp(10), "b10")]).unwrap();
        let mut out = Vec::new();
        assert_eq!(r.leader_process_stable(&mut out), Some(Timestamp(10)));
        let order: Vec<_> = out.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec!["a5", "c7", "a10", "b10", "c10"]);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn failover_emits_no_duplicates_and_loses_nothing() {
        let ops: Vec<(Timestamp, u64)> = (1..=10u64).map(|t| (Timestamp(t), t)).collect();
        let mut r0: ReplicaState<u64> = ReplicaState::new(ReplicaId(0), 1);
        let mut r1: ReplicaState<u64> = ReplicaState::new(ReplicaId(1), 1);
        for r in [&mut r0, &mut r1] {
            r.set_leader(ReplicaId(0));
            r.new_batch(p(0), ops[..6].to_vec()).unwrap();
        }
        let mut emitted = Vec::new();
        let stable = r0.leader_process_stable(&mut emitted).unwrap();
        r1.apply_stable(stable);
        // r0 crashes; r1 takes over with the remaining ops.
        r1.new_batch(p(0), ops[6..].to_vec()).unwrap();
        r1.promote();
        let mut out = Vec::new();
        r1.leader_process_stable(&mut out).unwrap();
        emitted.extend(out);
        let values: Vec<u64> = emitted.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=10).collect::<Vec<_>>());
    }

    proptest! {
        /// Prefix property under lossy, duplicating delivery: however
        /// frames are dropped or replayed, each replica's accepted stream
        /// per partition is a gap-free prefix-extension (it holds every op
        /// below its watermark), and after a final full resend all
        /// replicas converge to the identical op set.
        #[test]
        fn prefix_property_under_loss_and_duplication(
            n_ops in 1usize..40,
            plan in proptest::collection::vec((0usize..3, proptest::bool::ANY), 0..120),
        ) {
            let mut sender: LaneSender<u64> = LaneSender::new(3, u32::MAX);
            let mut replicas: Vec<ReplicaState<u64>> =
                (0..3).map(|i| ReplicaState::new(ReplicaId(i as u32), 1)).collect();
            let mut deliver = |sender: &mut LaneSender<u64>, target: usize, drop: bool| {
                let rid = ReplicaId(target as u32);
                let frame = sender.build_frame(p(0), rid, Timestamp::ZERO, None, usize::MAX, Vec::new());
                if !drop && !frame.ids.is_empty() {
                    let ack = replicas[target].ingest_owned(frame).unwrap();
                    sender.on_ack(rid, ack);
                }
                replicas.iter().map(|r| (r.pending() as u64, r.watermark(p(0)).unwrap().0)).collect::<Vec<_>>()
            };
            let mut produced = 0u64;
            for (target, drop) in plan {
                if produced < n_ops as u64 {
                    produced += 1;
                    sender.push(Timestamp(produced), produced);
                }
                // Invariant: every replica's watermark equals the count of
                // ops it holds (timestamps are 1..=k, gap-free prefix).
                for (pending, watermark) in deliver(&mut sender, target, drop) {
                    prop_assert_eq!(pending, watermark, "prefix property violated");
                }
            }
            while produced < n_ops as u64 {
                produced += 1;
                sender.push(Timestamp(produced), produced);
            }
            // Final full resend to everyone.
            for target in 0..3 {
                deliver(&mut sender, target, false);
            }
            for r in &replicas {
                prop_assert_eq!(r.pending(), n_ops);
            }
            prop_assert_eq!(sender.window_len(), 0);
        }
    }
}
