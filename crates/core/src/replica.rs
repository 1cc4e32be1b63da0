//! Fault-tolerant Eunomia (§3.3, Algorithm 4).
//!
//! The service becomes a set of replicas. Partitions send every operation
//! to *all* replicas; correctness only needs the **prefix property**: a
//! replica holding an update from partition `p` also holds every earlier
//! update from `p`. That is achieved without exactly-once or
//! inter-partition ordering by a cheap at-least-once scheme — each
//! partition keeps, per replica, the highest acknowledged timestamp
//! (`Ack_n[f]`) and re-sends everything above it ([`ReplicatedSender`]).
//! Replicas filter duplicates by timestamp ([`ReplicaState::new_batch`]).
//!
//! A leader (elected by any asynchronous leader elector, see
//! [`crate::election`]) runs `PROCESS_STABLE` and broadcasts the stable
//! time so followers can discard the operations the leader already
//! processed. The leader is an optimization: replicas never need to
//! coordinate, because the stable time is a deterministic function of
//! inputs whose order does not matter.

use crate::buffer::{OpKey, StabilizationBuffer};
use crate::ids::{PartitionId, ReplicaId};
use crate::time::Timestamp;
use eunomia_collections::{OrderedMap, RbTree};
use std::collections::VecDeque;

/// Errors surfaced by the Eunomia state machines ([`ReplicaState`] and
/// [`crate::shard::ShardedReplicaState`]).
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

/// One replica of the fault-tolerant Eunomia service (Algorithm 4).
#[derive(Clone, Debug)]
pub struct ReplicaState<T, M = RbTree<OpKey, T>>
where
    M: OrderedMap<OpKey, T>,
{
    id: ReplicaId,
    partition_time: Vec<Timestamp>,
    ops: StabilizationBuffer<T, M>,
    leader: ReplicaId,
    last_stable: Timestamp,
    total_accepted: u64,
    total_duplicates: u64,
}

impl<T, M: OrderedMap<OpKey, T>> ReplicaState<T, M> {
    /// Creates replica `id` tracking `n_partitions` partitions; replica 0
    /// starts as leader by convention.
    ///
    /// # Panics
    ///
    /// Panics if `n_partitions` is zero.
    pub fn new(id: ReplicaId, n_partitions: usize) -> Self {
        assert!(n_partitions > 0, "Eunomia needs at least one partition");
        ReplicaState {
            id,
            partition_time: vec![Timestamp::ZERO; n_partitions],
            ops: StabilizationBuffer::new(),
            leader: ReplicaId(0),
            last_stable: Timestamp::ZERO,
            total_accepted: 0,
            total_duplicates: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// `NEW_BATCH` (Alg. 4 l. 1–5): ingests an at-least-once batch from
    /// `partition`, filtering already-seen updates, and returns the ack —
    /// the highest timestamp now recorded for that partition.
    ///
    /// The batch must be internally ordered by ascending timestamp (the
    /// sender iterates its window in order); this is debug-asserted.
    pub fn new_batch(
        &mut self,
        partition: PartitionId,
        batch: impl IntoIterator<Item = (Timestamp, T)>,
    ) -> Result<Timestamp, EunomiaError> {
        let idx = partition.index();
        if idx >= self.partition_time.len() {
            return Err(EunomiaError::UnknownPartition(partition));
        }
        let mut prev = Timestamp::ZERO;
        for (ts, payload) in batch {
            debug_assert!(ts > prev, "batches must be timestamp-ordered");
            prev = ts;
            if ts > self.partition_time[idx] {
                self.partition_time[idx] = ts;
                self.ops.insert(OpKey::new(ts, partition), payload);
                self.total_accepted += 1;
            } else {
                self.total_duplicates += 1;
            }
        }
        Ok(self.partition_time[idx])
    }

    /// Heartbeat from a partition (same contract as the non-replicated
    /// service); returns the ack timestamp.
    pub fn heartbeat(
        &mut self,
        partition: PartitionId,
        ts: Timestamp,
    ) -> Result<Timestamp, EunomiaError> {
        let entry = self
            .partition_time
            .get_mut(partition.index())
            .ok_or(EunomiaError::UnknownPartition(partition))?;
        if ts > *entry {
            *entry = ts;
        }
        Ok(*entry)
    }

    /// `NEW_LEADER` (Alg. 4 l. 16–17).
    pub fn set_leader(&mut self, leader: ReplicaId) {
        self.leader = leader;
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.leader == self.id
    }

    /// Current stable time (min of `PartitionTime`).
    pub fn stable_time(&self) -> Timestamp {
        self.partition_time
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Leader-side `PROCESS_STABLE` (Alg. 4 l. 6–12): drains stable
    /// operations into `out` and returns the stable time to broadcast to
    /// the other replicas, or `None` if this replica is not the leader or
    /// the stable time has not advanced.
    pub fn leader_process_stable(&mut self, out: &mut Vec<(OpKey, T)>) -> Option<Timestamp> {
        if !self.is_leader() {
            return None;
        }
        let stable = self.stable_time();
        if stable <= self.last_stable {
            return None;
        }
        self.ops.drain_stable(stable, out);
        self.last_stable = stable;
        Some(stable)
    }

    /// Follower-side `STABLE` (Alg. 4 l. 13–15): discards operations the
    /// leader already processed. Returns how many were discarded.
    pub fn apply_stable(&mut self, stable: Timestamp) -> usize {
        if stable <= self.last_stable {
            return 0;
        }
        self.last_stable = stable;
        self.ops.discard_stable(stable)
    }

    /// Promotes this replica to leader, e.g. after the elector's choice
    /// changed. Stabilization resumes from `last_stable`, so no operation
    /// is emitted twice and none is lost (the buffer still holds everything
    /// above the last broadcast stable time).
    pub fn promote(&mut self) {
        self.leader = self.id;
    }

    /// Number of buffered operations.
    pub fn pending(&self) -> usize {
        self.ops.len()
    }

    /// Stable time most recently processed or learned.
    pub fn last_stable(&self) -> Timestamp {
        self.last_stable
    }

    /// Operations accepted (non-duplicate).
    pub fn total_accepted(&self) -> u64 {
        self.total_accepted
    }

    /// Duplicate deliveries filtered out.
    pub fn total_duplicates(&self) -> u64 {
        self.total_duplicates
    }

    /// Latest timestamp recorded for `partition`.
    pub fn partition_time(&self, partition: PartitionId) -> Option<Timestamp> {
        self.partition_time.get(partition.index()).copied()
    }
}

impl<T: std::hash::Hash, M: OrderedMap<OpKey, T>> ReplicaState<T, M> {
    /// Folds this replica's protocol state into `h` for model-checking
    /// state hashing: partition times, the buffered op set (visited in
    /// key order — already canonical), leadership and the stable
    /// watermark, plus the accepted/duplicate counters (the duplicate
    /// filter's behaviour depends on them only through `partition_time`,
    /// but they distinguish histories under injected redelivery).
    pub fn state_digest(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash as _;
        h.write_u32(self.id.0);
        for ts in &self.partition_time {
            h.write_u64(ts.0);
        }
        self.ops.for_each(|k, v| (k, v).hash(&mut h));
        h.write_u32(self.leader.0);
        h.write_u64(self.last_stable.0);
        h.write_u64(self.total_accepted);
        h.write_u64(self.total_duplicates);
    }
}

/// Partition-side sender that maintains the prefix property (§3.3).
///
/// Keeps a window of operations not yet acknowledged by every *live*
/// replica. `batch_for(f)` returns everything above `Ack_n[f]`, so a
/// replica that lost messages receives them again; duplicates are filtered
/// at the replica by timestamp.
#[derive(Clone, Debug)]
pub struct ReplicatedSender<T: Clone> {
    window: VecDeque<(Timestamp, T)>,
    acks: Vec<Timestamp>,
    alive: Vec<bool>,
}

impl<T: Clone> ReplicatedSender<T> {
    /// Creates a sender for `n_replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "need at least one replica");
        ReplicatedSender {
            window: VecDeque::new(),
            acks: vec![Timestamp::ZERO; n_replicas],
            alive: vec![true; n_replicas],
        }
    }

    /// Appends a freshly timestamped operation to the window.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `ts` does not exceed the window's newest
    /// timestamp: the caller's clock must be monotone (Property 2).
    pub fn push(&mut self, ts: Timestamp, payload: T) {
        debug_assert!(
            self.window.back().is_none_or(|(last, _)| ts > *last),
            "pushed timestamps must strictly increase"
        );
        self.window.push_back((ts, payload));
    }

    /// Builds the batch for replica `f`: every windowed operation above
    /// `Ack_n[f]`, in timestamp order.
    pub fn batch_for(&self, replica: ReplicaId) -> Vec<(Timestamp, T)> {
        let ack = self.acks[replica.index()];
        self.batch_above(ack)
    }

    /// Every windowed operation above `floor`, in timestamp order.
    ///
    /// Lets a sender that tracks what it already transmitted send each
    /// operation once and fall back to `batch_for` (resend from the ack)
    /// only on a retransmission timeout — the prefix property holds
    /// either way, because replicas deduplicate by timestamp.
    pub fn batch_above(&self, floor: Timestamp) -> Vec<(Timestamp, T)> {
        self.window
            .iter()
            .filter(|(ts, _)| *ts > floor)
            .cloned()
            .collect()
    }

    /// Records an ack from replica `f` and prunes the window of entries
    /// acknowledged by all live replicas. Returns the number pruned.
    pub fn on_ack(&mut self, replica: ReplicaId, ts: Timestamp) -> usize {
        let slot = &mut self.acks[replica.index()];
        if ts > *slot {
            *slot = ts;
        }
        self.prune()
    }

    /// Marks a replica as crashed: its stalled ack no longer pins the
    /// window. Returns the number of entries pruned as a result.
    pub fn mark_dead(&mut self, replica: ReplicaId) -> usize {
        self.alive[replica.index()] = false;
        self.prune()
    }

    /// Marks a replica as live again (it must re-ack from scratch; the
    /// window can no longer guarantee arbitrarily old history, which
    /// matches the paper's model where a recovered replica rejoins by
    /// state transfer, not by replay).
    pub fn mark_alive(&mut self, replica: ReplicaId) {
        self.alive[replica.index()] = true;
        self.acks[replica.index()] = self.low_watermark();
    }

    fn low_watermark(&self) -> Timestamp {
        self.window.front().map_or_else(
            || self.acks.iter().copied().max().unwrap_or(Timestamp::ZERO),
            |(ts, _)| Timestamp(ts.0.saturating_sub(1)),
        )
    }

    fn prune(&mut self) -> usize {
        let min_ack = self
            .acks
            .iter()
            .zip(self.alive.iter())
            .filter(|(_, alive)| **alive)
            .map(|(a, _)| *a)
            .min()
            .unwrap_or(Timestamp::MAX);
        let mut pruned = 0;
        while self.window.front().is_some_and(|(ts, _)| *ts <= min_ack) {
            self.window.pop_front();
            pruned += 1;
        }
        pruned
    }

    /// Operations waiting for acknowledgement.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Highest ack recorded for `replica`.
    pub fn ack_of(&self, replica: ReplicaId) -> Timestamp {
        self.acks[replica.index()]
    }
}

impl<T: Clone + std::hash::Hash> ReplicatedSender<T> {
    /// Folds the sender's window, acks and liveness view into `h` for
    /// model-checking state hashing (the window iterates in timestamp
    /// order — already canonical).
    pub fn state_digest(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash as _;
        h.write_usize(self.window.len());
        for entry in &self.window {
            entry.hash(&mut h);
        }
        for ack in &self.acks {
            h.write_u64(ack.0);
        }
        for alive in &self.alive {
            h.write_u8(*alive as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Replica = ReplicaState<u64>;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }

    #[test]
    fn duplicate_batches_are_filtered() {
        let mut r = Replica::new(ReplicaId(0), 1);
        let ack = r
            .new_batch(p(0), vec![(Timestamp(1), 1), (Timestamp(2), 2)])
            .unwrap();
        assert_eq!(ack, Timestamp(2));
        // Redelivery of the same prefix plus one new op.
        let ack = r
            .new_batch(
                p(0),
                vec![(Timestamp(1), 1), (Timestamp(2), 2), (Timestamp(3), 3)],
            )
            .unwrap();
        assert_eq!(ack, Timestamp(3));
        assert_eq!(r.total_accepted(), 3);
        assert_eq!(r.total_duplicates(), 2);
        assert_eq!(r.pending(), 3);
    }

    #[test]
    fn only_leader_processes_stable() {
        let mut leader = Replica::new(ReplicaId(0), 1);
        let mut follower = Replica::new(ReplicaId(1), 1);
        for r in [&mut leader, &mut follower] {
            r.set_leader(ReplicaId(0));
            r.new_batch(p(0), vec![(Timestamp(5), 5)]).unwrap();
        }
        let mut out = Vec::new();
        assert!(follower.leader_process_stable(&mut out).is_none());
        let stable = leader.leader_process_stable(&mut out).unwrap();
        assert_eq!(stable, Timestamp(5));
        assert_eq!(out.len(), 1);
        // Follower learns the stable time and discards.
        assert_eq!(follower.apply_stable(stable), 1);
        assert_eq!(follower.pending(), 0);
    }

    #[test]
    fn failover_emits_no_duplicates_and_loses_nothing() {
        let ops: Vec<(Timestamp, u64)> = (1..=10u64).map(|t| (Timestamp(t), t)).collect();
        let mut r0 = Replica::new(ReplicaId(0), 1);
        let mut r1 = Replica::new(ReplicaId(1), 1);
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

    #[test]
    fn stable_does_not_regress_on_follower() {
        let mut r = Replica::new(ReplicaId(1), 1);
        r.new_batch(p(0), vec![(Timestamp(5), 5)]).unwrap();
        assert_eq!(r.apply_stable(Timestamp(5)), 1);
        assert_eq!(r.apply_stable(Timestamp(4)), 0, "stale stable ignored");
        assert_eq!(r.apply_stable(Timestamp(5)), 0, "repeat stable ignored");
    }

    #[test]
    fn sender_resends_until_acked() {
        let mut s: ReplicatedSender<u64> = ReplicatedSender::new(2);
        s.push(Timestamp(1), 1);
        s.push(Timestamp(2), 2);
        assert_eq!(s.batch_for(ReplicaId(0)).len(), 2);
        s.on_ack(ReplicaId(0), Timestamp(2));
        // Replica 1 has not acked: the window stays.
        assert_eq!(s.window_len(), 2);
        assert_eq!(s.batch_for(ReplicaId(0)).len(), 0);
        assert_eq!(s.batch_for(ReplicaId(1)).len(), 2);
        s.on_ack(ReplicaId(1), Timestamp(2));
        assert_eq!(s.window_len(), 0);
    }

    #[test]
    fn dead_replica_stops_pinning_window() {
        let mut s: ReplicatedSender<u64> = ReplicatedSender::new(3);
        for t in 1..=5u64 {
            s.push(Timestamp(t), t);
        }
        s.on_ack(ReplicaId(0), Timestamp(5));
        s.on_ack(ReplicaId(1), Timestamp(5));
        assert_eq!(s.window_len(), 5, "replica 2 silent: window pinned");
        let pruned = s.mark_dead(ReplicaId(2));
        assert_eq!(pruned, 5);
        assert_eq!(s.window_len(), 0);
    }

    proptest! {
        /// Prefix property under lossy, duplicating delivery: however
        /// batches are dropped or replayed, each replica's accepted stream
        /// per partition is a gap-free prefix-extension (it holds every op
        /// below its PartitionTime), and after a final full resend all
        /// replicas converge to the identical op set.
        #[test]
        fn prefix_property_under_loss_and_duplication(
            n_ops in 1usize..40,
            plan in proptest::collection::vec((0usize..3, proptest::bool::ANY), 0..120),
        ) {
            let mut sender: ReplicatedSender<u64> = ReplicatedSender::new(3);
            let mut replicas: Vec<ReplicaState<u64>> =
                (0..3).map(|i| ReplicaState::new(ReplicaId(i as u32), 1)).collect();
            let mut produced = 0usize;
            for (target, drop) in plan {
                if produced < n_ops {
                    produced += 1;
                    sender.push(Timestamp(produced as u64), produced as u64);
                }
                let batch = sender.batch_for(ReplicaId(target as u32));
                if !drop && !batch.is_empty() {
                    let ack = replicas[target].new_batch(p(0), batch).unwrap();
                    sender.on_ack(ReplicaId(target as u32), ack);
                }
                // Invariant: every replica's PartitionTime equals the count
                // of ops it holds (timestamps are 1..=k, gap-free prefix).
                for r in &replicas {
                    let pt = r.partition_time(p(0)).unwrap().0;
                    prop_assert_eq!(r.pending() as u64, pt, "prefix property violated");
                }
            }
            while produced < n_ops {
                produced += 1;
                sender.push(Timestamp(produced as u64), produced as u64);
            }
            // Final full resend to everyone.
            for i in 0..3u32 {
                let batch = sender.batch_for(ReplicaId(i));
                if !batch.is_empty() {
                    let ack = replicas[i as usize].new_batch(p(0), batch).unwrap();
                    sender.on_ack(ReplicaId(i), ack);
                }
            }
            for r in &replicas {
                prop_assert_eq!(r.pending(), n_ops);
            }
            prop_assert_eq!(sender.window_len(), 0);
        }
    }
}
