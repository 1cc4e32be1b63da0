//! The fault-tolerant Eunomia replica (Alg. 4) and its partition-side
//! sender — the one implementation both drivers run.
//!
//! [`ShardedReplicaState`] and [`LaneSender`] are generic over a payload
//! `T` carried beside every id. The threaded runtime uses `()` (the §5
//! id-only metadata: a `Vec<()>` never allocates, so the payload compiles
//! away); the simulator uses its per-update metadata record. The model
//! checker therefore certifies the same state machine the service
//! benchmark measures. [`crate::replica::ReplicaState`] names the same
//! type.
//!
//! Audit note: this hot path is deliberately `unsafe`-free — the ring
//! buffers and the tournament tree are plain indexed `Vec`s — and the
//! seal below keeps it that way (the lock-free unsafe lives in
//! `vendor/crossbeam`, where every block carries a `SAFETY:` comment and
//! the `interleave` checker enumerates the ring's schedules).
//!
//! Ids from one partition already arrive in timestamp order, so the
//! replica never orders them against other partitions' ids before the
//! stable cutoff is known. It keeps one **lane** per feeder partition:
//!
//! * Each lane keeps the feeder's ids in arrival (= timestamp) order,
//!   plus a **watermark** — the highest id accepted from that feeder (its
//!   `PartitionTime`). At-least-once redelivery is filtered by slicing a
//!   frame's already-seen prefix off with one binary search instead of a
//!   per-id map probe: the ack protocol (see [`LaneSender`]) guarantees a
//!   frame is a contiguous suffix of the feeder's ordered stream.
//! * The stable cutoff (`min` over lane watermarks) is maintained by a
//!   [`TournamentTree`], so a watermark advance costs `O(log lanes)` and
//!   reading the cutoff costs `O(1)`.
//! * Ids travel in [`BatchFrame`]s — one flat allocation per batch, not
//!   one per id, and the frame is reusable end to end.
//!
//! Stabilization drains each lane's stable prefix in place. Two drain
//! orders exist. [`ShardedReplicaState::leader_process_stable`] emits in
//! the global `(timestamp, partition)` [`OpKey`] order of Alg. 3 by
//! sorting the lanes' already-sorted runs; remote receivers depend on it.
//! [`ShardedReplicaState::leader_process_stable_up_to`] emits lane by lane
//! and sorts nothing: the service acknowledges stabilized ids back to
//! their own feeder, and the stable *time* is what remote datacenters
//! consume.
//!
//! # The credit/watermark flow-control protocol
//!
//! Acks are not bare watermarks: every ack a replica returns is a
//! [`CreditGrant`] — the watermark *plus* a **credit**, the number of ids
//! beyond that watermark the replica is currently willing to accept from
//! this lane, plus a **pressure** byte (the replica's ingest-queue fill)
//! the feeder uses to size frames. Credits are what turn overload into
//! throttling instead of a retransmission storm: a drop-on-full receiver
//! converts a slow replica into duplicate traffic (every dropped frame is
//! re-sent wholesale after a timeout), while a credit window simply stops
//! the feeder at the source.
//!
//! Per `(lane, replica)` pair, the sender is a three-state machine driven
//! entirely by grants and the passage of time:
//!
//! ```text
//!              grant{credit > in_flight}
//!      ┌─────────────────────────────────────────┐
//!      ▼                                         │
//!   ┌──────┐ in_flight == credit  ┌───────────┐  │
//!   │ OPEN │ ───────────────────▶ │ EXHAUSTED │ ─┘
//!   └──────┘                      └───────────┘
//!      │                                │ no ack progress for
//!      │ no ack progress for            │ `retransmit_after`
//!      │ `retransmit_after`             ▼
//!      │                         ┌────────────┐
//!      └───────────────────────▶ │ RETRANSMIT │ ─▶ back to OPEN/EXHAUSTED
//!                                └────────────┘    on the next grant
//! ```
//!
//! * **OPEN** — `in_flight < credit`: [`LaneSender::build_frame`] may ship
//!   new ids, never more than the remaining credit.
//! * **EXHAUSTED** — `in_flight == credit` (in particular **a credit of 0
//!   means the feeder must not ship any ids at all**): the feeder parks
//!   the lane and waits for a fresh grant. Replicas re-advertise throttled
//!   lanes on their stabilization tick, so an exhausted lane reopens
//!   without the feeder having to poll. Heartbeats are exempt — an *empty*
//!   frame still carries the lane's liveness and costs the receiver one
//!   ring slot, not buffer space.
//! * **RETRANSMIT** — the safety net for lost frames or lost grants: after
//!   `retransmit_after` without ack progress the feeder re-ships from the
//!   ack floor, still inside the credit window. Under credit flow control
//!   this state is rare (nothing is dropped by design), so duplicate
//!   deliveries stay ~0 where the drop-on-full ring produced hundreds of
//!   millions.
//!
//! Invariants, checked by the proptests below:
//!
//! 1. **Credit bound** — a frame never carries ids beyond
//!    `ack + credit` (counting ids, not timestamps): the receiver's
//!    buffer exposure per lane is at most the credit it advertised.
//! 2. **Contiguous suffix** — every frame is a contiguous suffix of the
//!    feeder's ordered stream starting just above `max(ack, floor)`, so
//!    watermark dedup (one `partition_point`) remains sound under
//!    duplication and reordering of whole frames.
//! 3. **No loss** — ids are pruned from the window only when every live
//!    replica's watermark passes them; a grant can shrink credit but
//!    never un-acknowledge.
//!
//! The replica side derives grants in [`ShardedReplicaState::advertise`]:
//! `credit = (budget - lane_backlog) * (1 - queue_fill)`, where
//! `lane_backlog` is the lane's accepted-but-unstable backlog and
//! `queue_fill` is the ingest ring's occupancy. Backlog throttles lanes
//! that outrun stabilization; queue fill throttles everyone when the
//! replica itself falls behind.
//!
//! The simulator's replicas never send grants: its senders start with
//! unlimited credit (see [`LaneSender::new`]), so every `(lane, replica)`
//! pair stays `OPEN` and each frame is the whole window above the
//! replica's ack — Alg. 4's resend-from-the-ack rule.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::ids::{PartitionId, ReplicaId};
use crate::replica::EunomiaError;
use crate::time::Timestamp;
use eunomia_collections::TournamentTree;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// The `(timestamp, partition)` stabilization order of Alg. 3: timestamp
/// first, partition as tie-breaker.
///
/// Property 2 guarantees a single partition never reuses a timestamp, so
/// `(ts, partition)` uniquely identifies an operation. Operations from
/// *different* partitions may share a timestamp — they are concurrent and
/// the paper allows processing them in any order; ordering by partition id
/// makes that order deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpKey {
    /// Update timestamp (the local entry of its vector time).
    pub ts: Timestamp,
    /// Originating partition.
    pub partition: PartitionId,
}

impl OpKey {
    /// Convenience constructor.
    pub fn new(ts: Timestamp, partition: PartitionId) -> Self {
        OpKey { ts, partition }
    }
}

/// Credit a lane starts with before its first grant arrives: optimistic
/// enough that first contact is not throttled (one default feeder window),
/// finite so a replica that never answers cannot be flooded forever.
pub const INITIAL_CREDIT: u32 = 4096;

/// One watermark-plus-credit acknowledgement from a replica to a feeder
/// lane — the unit of flow control (see the module docs for the protocol).
///
/// Grants supersede each other: a ring that drops one under load loses
/// nothing, because the next grant carries a fresher watermark and a
/// fresher credit. `ack` only ever advances; `credit` is *latest-wins*
/// (a replica under growing pressure legitimately shrinks it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditGrant {
    /// The granting replica.
    pub replica: ReplicaId,
    /// Watermark: highest id the replica has accepted from this lane.
    pub ack: Timestamp,
    /// Ids beyond `ack` the replica will accept from this lane. Zero
    /// means "send nothing until a later grant reopens the window".
    pub credit: u32,
    /// Ingest-queue fill, `0` (idle) to `255` (full): the feeder's frame
    /// sizing signal — small frames for latency while the queue is short,
    /// full frames for throughput as it approaches the high-water mark.
    pub pressure: u8,
}

/// One flat batch of operation ids from a feeder lane, each with its
/// payload: the §5 id-only metadata when `T = ()`, one allocation per
/// batch.
///
/// Invariants (upheld by [`LaneSender::build_frame`], debug-asserted at
/// ingest): `ids` is strictly ascending, `payloads[i]` belongs to
/// `ids[i]`, and together with the receiving lane's watermark the ids form
/// a contiguous suffix of the feeder's stream — every unacknowledged id
/// above some floor is present.
#[derive(Clone, Debug, Default)]
pub struct BatchFrame<T = ()> {
    /// The sending feeder lane.
    pub partition: PartitionId,
    /// Operation ids, strictly ascending.
    pub ids: Vec<Timestamp>,
    /// One payload per id, parallel to `ids` (a `Vec<()>` never
    /// allocates).
    pub payloads: Vec<T>,
    /// Optional idle heartbeat (Alg. 2 l. 10–12), `>=` every id in `ids`.
    pub heartbeat: Option<Timestamp>,
}

/// One ingested frame, adopted whole into a lane's backlog; `start` marks
/// the prefix of `ids` already drained (or deduplicated on entry), and
/// `payloads` holds exactly the live ids' payloads.
struct Chunk<T> {
    ids: Vec<Timestamp>,
    payloads: Vec<T>,
    start: usize,
}

struct Lane<T> {
    /// Highest id accepted from this feeder (its `PartitionTime`).
    watermark: Timestamp,
    /// Accepted, not-yet-stable ids in timestamp order, as a queue of
    /// frame chunks. Adopting each frame's allocation whole keeps ingest
    /// O(log frame) — no per-id copy into a flat buffer whose tail goes
    /// cache-cold as the lane count grows — and lets followers discard
    /// stable prefixes chunk-at-a-time with a binary search each.
    pending: VecDeque<Chunk<T>>,
    /// Live (undrained) ids across `pending`.
    backlog: usize,
}

/// One replica of the fault-tolerant Eunomia service (Alg. 4), buffering
/// a payload `T` with every accepted id.
///
/// Acks are per-lane watermarks, the stable time is the minimum
/// watermark, the leader drains and broadcasts, followers discard what
/// the leader announced, and a promoted follower resumes from
/// `last_stable`, so nothing is emitted twice and nothing is lost.
pub struct ShardedReplicaState<T = ()> {
    id: ReplicaId,
    leader: ReplicaId,
    lanes: Vec<Lane<T>>,
    /// Min over lane watermarks = the stable cutoff.
    cutoffs: TournamentTree<Timestamp>,
    last_stable: Timestamp,
    pending: usize,
    total_accepted: u64,
    total_duplicates: u64,
}

impl<T> ShardedReplicaState<T> {
    /// Creates replica `id` with one lane per feeder partition; replica 0
    /// starts as leader by convention.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` is zero.
    pub fn new(id: ReplicaId, n_lanes: usize) -> Self {
        assert!(n_lanes > 0, "Eunomia needs at least one feeder lane");
        ShardedReplicaState {
            id,
            leader: ReplicaId(0),
            lanes: (0..n_lanes)
                .map(|_| Lane {
                    watermark: Timestamp::ZERO,
                    pending: VecDeque::new(),
                    backlog: 0,
                })
                .collect(),
            cutoffs: TournamentTree::new(n_lanes, Timestamp::ZERO, Timestamp::MAX),
            last_stable: Timestamp::ZERO,
            pending: 0,
            total_accepted: 0,
            total_duplicates: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Ingests a frame (`NEW_BATCH` + `HEARTBEAT`, Alg. 4 l. 1–5): slices
    /// off the already-seen prefix, adopts the rest of the frame's
    /// allocation as one chunk of the lane's backlog, advances the
    /// watermark, and returns the ack — the lane's new watermark. Ingest
    /// cost is a binary search plus a pointer move no matter how many
    /// lanes are cache-cold.
    pub fn ingest_owned(&mut self, frame: BatchFrame<T>) -> Result<Timestamp, EunomiaError> {
        let BatchFrame {
            partition,
            ids,
            mut payloads,
            heartbeat,
        } = frame;
        let idx = partition.index();
        let lane = self
            .lanes
            .get_mut(idx)
            .ok_or(EunomiaError::UnknownPartition(partition))?;
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "frame ids must be strictly ascending"
        );
        debug_assert_eq!(ids.len(), payloads.len(), "one payload per id");
        // At-least-once dedup in one binary search: everything at or below
        // the watermark was delivered before.
        let fresh_from = ids.partition_point(|&ts| ts <= lane.watermark);
        let fresh_n = ids.len() - fresh_from;
        self.total_duplicates += fresh_from as u64;
        self.total_accepted += fresh_n as u64;
        if fresh_n > 0 {
            lane.watermark = *ids.last().expect("fresh_n > 0");
            self.pending += fresh_n;
            lane.backlog += fresh_n;
            payloads.drain(..fresh_from);
            lane.pending.push_back(Chunk {
                ids,
                payloads,
                start: fresh_from,
            });
        }
        if let Some(hb) = heartbeat {
            debug_assert!(
                fresh_n == 0 || hb >= lane.watermark,
                "heartbeat must dominate the frame's ids"
            );
            if hb > lane.watermark {
                lane.watermark = hb;
            }
        }
        self.cutoffs.update(idx, lane.watermark);
        Ok(lane.watermark)
    }

    /// `NEW_BATCH` from a timestamp-ordered batch of `(id, payload)`
    /// pairs: [`ingest_owned`](Self::ingest_owned) without a heartbeat.
    pub fn new_batch(
        &mut self,
        partition: PartitionId,
        batch: impl IntoIterator<Item = (Timestamp, T)>,
    ) -> Result<Timestamp, EunomiaError> {
        let (ids, payloads) = batch.into_iter().unzip();
        self.ingest_owned(BatchFrame {
            partition,
            ids,
            payloads,
            heartbeat: None,
        })
    }

    /// Heartbeat from an idle partition (Alg. 2 l. 10–12); returns the
    /// ack.
    pub fn heartbeat(
        &mut self,
        partition: PartitionId,
        ts: Timestamp,
    ) -> Result<Timestamp, EunomiaError> {
        self.ingest_owned(BatchFrame {
            partition,
            ids: Vec::new(),
            payloads: Vec::new(),
            heartbeat: Some(ts),
        })
    }

    /// `NEW_LEADER` (Alg. 4 l. 16–17).
    pub fn set_leader(&mut self, leader: ReplicaId) {
        self.leader = leader;
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.leader == self.id
    }

    /// Promotes this replica to leader. Stabilization resumes from
    /// `last_stable`; nothing is emitted twice and nothing is lost.
    pub fn promote(&mut self) {
        self.leader = self.id;
    }

    /// Current stable time: the minimum lane watermark, `O(1)`.
    pub fn stable_time(&self) -> Timestamp {
        *self.cutoffs.min()
    }

    /// The time a leader may drain to, `min(cutoff, stable_time())`, or
    /// `None` if this replica is not the leader or that time has not
    /// advanced past `last_stable`.
    fn leader_cutoff(&self, cutoff: Timestamp) -> Option<Timestamp> {
        let stable = self.stable_time().min(cutoff);
        (self.is_leader() && stable > self.last_stable).then_some(stable)
    }

    /// Leader-side `PROCESS_STABLE` (Alg. 4 l. 6–12): drains every
    /// operation at or below the stable time into `out` in global
    /// `(timestamp, partition)` order and returns the stable time to
    /// broadcast — or `None` if this replica is not the leader or the
    /// stable time has not advanced.
    pub fn leader_process_stable(&mut self, out: &mut Vec<(OpKey, T)>) -> Option<Timestamp> {
        let stable = self.leader_cutoff(Timestamp::MAX)?;
        let from = out.len();
        self.drain_runs(stable, |p, ids, payloads| {
            out.extend(
                ids.iter()
                    .zip(payloads)
                    .map(|(&ts, payload)| (OpKey::new(ts, p), payload)),
            );
        });
        // Each lane's run is already sorted; the stable sort merges the
        // runs instead of re-sorting them.
        out[from..].sort_by_key(|(key, _)| *key);
        self.last_stable = stable;
        Some(stable)
    }

    /// Leader-side `PROCESS_STABLE` bounded by an external `cutoff`:
    /// drains ids at or below `min(cutoff, stable_time())`, invoking
    /// `emit(lane, id)` per id (ids of a lane in timestamp order, lanes in
    /// index order, payloads dropped), and returns the new stable time.
    ///
    /// This is the sharded-stabilizer entry point. When a replica's lane
    /// table is split across several stabilizer threads, each shard's
    /// tournament tree knows only *its* lanes' minimum; the true stable
    /// time is the minimum over every shard. The combiner folds the
    /// published per-shard minima into that global cutoff and each shard
    /// drains its own lanes up to it — never past its local minimum, and
    /// never past what the other shards have confirmed.
    pub fn leader_process_stable_up_to(
        &mut self,
        cutoff: Timestamp,
        mut emit: impl FnMut(PartitionId, Timestamp),
    ) -> Option<Timestamp> {
        let stable = self.leader_cutoff(cutoff)?;
        self.drain_runs(stable, |p, ids, _| {
            for &ts in ids {
                emit(p, ts);
            }
        });
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
        self.drain_runs(stable, |_, _, _| {})
    }

    /// Removes every live id at or below `stable`, handing each lane's
    /// stable run (its ids, then a draining iterator over their payloads)
    /// to `emit`. Returns how many ids were removed.
    fn drain_runs(
        &mut self,
        stable: Timestamp,
        mut emit: impl FnMut(PartitionId, &[Timestamp], std::vec::Drain<'_, T>),
    ) -> usize {
        let mut drained = 0;
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            // Chunk-batched drain: binary-search each chunk's stable
            // prefix, hand it over, and release whole chunks as they
            // empty.
            while let Some(chunk) = lane.pending.front_mut() {
                let live = &chunk.ids[chunk.start..];
                let n = live.partition_point(|&ts| ts <= stable);
                if n == 0 {
                    break;
                }
                emit(
                    PartitionId(idx as u32),
                    &live[..n],
                    chunk.payloads.drain(..n),
                );
                chunk.start += n;
                lane.backlog -= n;
                drained += n;
                if chunk.start == chunk.ids.len() {
                    lane.pending.pop_front();
                } else {
                    break;
                }
            }
        }
        self.pending -= drained;
        drained
    }

    /// Number of buffered (accepted, unstable) ids.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Stable time most recently processed or learned.
    pub fn last_stable(&self) -> Timestamp {
        self.last_stable
    }

    /// Ids accepted (non-duplicate).
    pub fn total_accepted(&self) -> u64 {
        self.total_accepted
    }

    /// Duplicate deliveries filtered out.
    pub fn total_duplicates(&self) -> u64 {
        self.total_duplicates
    }

    /// Watermark recorded for `partition`.
    pub fn watermark(&self, partition: PartitionId) -> Option<Timestamp> {
        self.lanes.get(partition.index()).map(|l| l.watermark)
    }

    /// Accepted-but-unstable ids buffered for `partition` — the lane's
    /// share of this replica's memory exposure, and the backlog term of
    /// the credit policy.
    pub fn lane_backlog(&self, partition: PartitionId) -> Option<usize> {
        self.lanes.get(partition.index()).map(|l| l.backlog)
    }

    /// Number of feeder lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Derives the [`CreditGrant`] to advertise to `partition`'s feeder:
    /// `credit = (budget - lane_backlog) * (1 - queue_fill)`.
    ///
    /// `budget` bounds the lane's accepted-but-unstable backlog (so a lane
    /// outrunning stabilization throttles itself), and `queue_fill` — the
    /// ingest ring's occupancy in `0.0..=1.0` — scales every lane down
    /// together when the replica cannot keep up with frame arrival. The
    /// grant carries the lane's current watermark as its ack and the fill
    /// as the `pressure` byte. Returns `None` for an unknown lane.
    pub fn advertise(
        &self,
        partition: PartitionId,
        queue_fill: f64,
        budget: u32,
    ) -> Option<CreditGrant> {
        let lane = self.lanes.get(partition.index())?;
        let fill = if queue_fill.is_finite() {
            queue_fill.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let backlog = lane.backlog.min(u32::MAX as usize) as u32;
        let free = budget.saturating_sub(backlog);
        Some(CreditGrant {
            replica: self.id,
            ack: lane.watermark,
            credit: (f64::from(free) * (1.0 - fill)) as u32,
            pressure: (fill * 255.0) as u8,
        })
    }
}

impl<T: Hash> ShardedReplicaState<T> {
    /// Folds this replica's protocol state into `h` for model-checking
    /// state hashing: lane watermarks, the live buffered `(OpKey,
    /// payload)` set (lane by lane, each in timestamp order — canonical),
    /// leadership, the stable watermark and the accepted/duplicate
    /// counters. Chunk boundaries and drain offsets are buffer layout,
    /// not protocol state, and stay out.
    pub fn state_digest(&self, mut h: &mut dyn Hasher) {
        h.write_u32(self.id.0);
        for lane in &self.lanes {
            h.write_u64(lane.watermark.0);
        }
        for (idx, lane) in self.lanes.iter().enumerate() {
            let p = PartitionId(idx as u32);
            for chunk in &lane.pending {
                for (&ts, payload) in chunk.ids[chunk.start..].iter().zip(&chunk.payloads) {
                    (OpKey::new(ts, p), payload).hash(&mut h);
                }
            }
        }
        h.write_u32(self.leader.0);
        h.write_u64(self.last_stable.0);
        h.write_u64(self.total_accepted);
        h.write_u64(self.total_duplicates);
    }
}

/// Partition-side sender that maintains the prefix property (§3.3): a
/// window of ids (each with its payload) not yet acknowledged by every
/// *live* replica, with per-replica watermark acks and credit windows.
///
/// The window is a ring of strictly ascending ids. Because acks are
/// watermarks and the window is ordered, building the frame for a replica
/// is one binary search plus a bulk copy, and pruning is popping a
/// prefix. A replica that lost frames receives their ids again; it drops
/// duplicates by watermark. Per replica the sender additionally tracks
/// the highest id *shipped* ([`note_sent`]) and the latest
/// [`CreditGrant`], and [`build_frame`] never emits ids past `ack +
/// credit` — the sender half of the flow-control state machine in the
/// module docs.
///
/// [`note_sent`]: LaneSender::note_sent
/// [`build_frame`]: LaneSender::build_frame
#[derive(Clone, Debug)]
pub struct LaneSender<T = ()> {
    /// Unacknowledged ids with their payloads, strictly ascending.
    window: VecDeque<(Timestamp, T)>,
    replicas: Vec<ReplicaView>,
    /// Credit every replica holds before its first grant and again after
    /// [`mark_alive`](LaneSender::mark_alive).
    initial_credit: u32,
}

/// A sender's view of one replica.
#[derive(Clone, Copy, Debug)]
struct ReplicaView {
    /// Highest watermark the replica acknowledged (`Ack_n[f]`).
    ack: Timestamp,
    /// Highest id shipped to it (floor for "new ids only").
    sent: Timestamp,
    /// Latest advertised credit (ids allowed beyond `ack`).
    credit: u32,
    /// Whether its ack pins the window.
    alive: bool,
}

impl<T: Clone> LaneSender<T> {
    /// Creates a sender replicating to `n_replicas` replicas; every
    /// replica starts `OPEN` with `initial_credit`. The threaded service
    /// passes [`INITIAL_CREDIT`]; the simulator, whose replicas never send
    /// grants, passes `u32::MAX` so every frame is the whole window above
    /// the replica's ack.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(n_replicas: usize, initial_credit: u32) -> Self {
        assert!(n_replicas > 0, "need at least one replica");
        LaneSender {
            window: VecDeque::new(),
            replicas: vec![
                ReplicaView {
                    ack: Timestamp::ZERO,
                    sent: Timestamp::ZERO,
                    credit: initial_credit,
                    alive: true,
                };
                n_replicas
            ],
            initial_credit,
        }
    }

    /// Number of window ids at or below `ts` (= the window index of the
    /// first id above it): one binary search over the deque's two slices.
    fn count_le(&self, ts: Timestamp) -> usize {
        let (a, b) = self.window.as_slices();
        match a.last() {
            Some(&(last, _)) if ts < last => a.partition_point(|&(x, _)| x <= ts),
            _ => a.len() + b.partition_point(|&(x, _)| x <= ts),
        }
    }

    /// Appends window entries `start..end` to `ids` and `payloads`: bulk
    /// copies out of the deque's two slices.
    fn copy_range(
        &self,
        start: usize,
        end: usize,
        ids: &mut Vec<Timestamp>,
        payloads: &mut Vec<T>,
    ) {
        let (a, b) = self.window.as_slices();
        let split = a.len();
        let runs = [
            &a[start.min(split)..end.min(split)],
            &b[start.saturating_sub(split)..end.saturating_sub(split)],
        ];
        for run in runs {
            ids.extend(run.iter().map(|&(ts, _)| ts));
            payloads.extend(run.iter().map(|(_, payload)| payload.clone()));
        }
    }

    /// Appends a freshly issued id and its payload to the window.
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `ts` exceeds the window's newest id — the
    /// caller's clock must be monotone (Property 2).
    pub fn push(&mut self, ts: Timestamp, payload: T) {
        debug_assert!(
            self.window.back().is_none_or(|&(last, _)| ts > last),
            "pushed ids must strictly increase"
        );
        self.window.push_back((ts, payload));
    }

    /// Builds the frame for `replica` reusing `ids`'s allocation: windowed
    /// ids above `max(ack, floor)` with their payloads, truncated to the
    /// replica's remaining credit window (never past `ack + credit` ids)
    /// and to `max_ids`, plus the heartbeat.
    pub fn build_frame(
        &self,
        partition: PartitionId,
        replica: ReplicaId,
        floor: Timestamp,
        heartbeat: Option<Timestamp>,
        max_ids: usize,
        mut ids: Vec<Timestamp>,
    ) -> BatchFrame<T> {
        ids.clear();
        let view = self.replicas[replica.index()];
        let ack_idx = self.count_le(view.ack);
        let start = if floor > view.ack {
            self.count_le(floor)
        } else {
            ack_idx
        };
        let end = ack_idx
            .saturating_add(view.credit as usize)
            .min(self.window.len())
            .min(start.saturating_add(max_ids))
            .max(start);
        let mut payloads = Vec::with_capacity(end - start);
        self.copy_range(start, end, &mut ids, &mut payloads);
        BatchFrame {
            partition,
            ids,
            payloads,
            heartbeat,
        }
    }

    /// Records a watermark ack from `replica` — leaving its credit
    /// unchanged — and prunes ids acknowledged by every live replica.
    /// Returns the number pruned.
    pub fn on_ack(&mut self, replica: ReplicaId, ts: Timestamp) -> usize {
        let view = &mut self.replicas[replica.index()];
        view.ack = view.ack.max(ts);
        self.prune()
    }

    /// Applies a [`CreditGrant`]: folds the watermark in (acks only ever
    /// advance), replaces the credit (latest wins — pressure may shrink
    /// it), and prunes. Returns the number of ids pruned.
    pub fn on_grant(&mut self, grant: CreditGrant) -> usize {
        self.replicas[grant.replica.index()].credit = grant.credit;
        self.on_ack(grant.replica, grant.ack)
    }

    /// Records that every id up to `ts` has been shipped to `replica`.
    pub fn note_sent(&mut self, replica: ReplicaId, ts: Timestamp) {
        let view = &mut self.replicas[replica.index()];
        view.sent = view.sent.max(ts);
    }

    /// Highest id shipped to `replica` — the frame floor for "new ids
    /// only" sends.
    pub fn sent_of(&self, replica: ReplicaId) -> Timestamp {
        self.replicas[replica.index()].sent
    }

    /// Latest credit advertised by `replica`.
    pub fn credit_of(&self, replica: ReplicaId) -> u32 {
        self.replicas[replica.index()].credit
    }

    /// Ids shipped to `replica` but not yet acknowledged by it.
    pub fn in_flight(&self, replica: ReplicaId) -> usize {
        let view = self.replicas[replica.index()];
        self.count_le(view.sent)
            .saturating_sub(self.count_le(view.ack))
    }

    /// Unshipped ids that fit in `replica`'s remaining credit window —
    /// how many *new* ids the next frame may carry.
    pub fn sendable(&self, replica: ReplicaId) -> usize {
        let view = self.replicas[replica.index()];
        self.count_le(view.ack)
            .saturating_add(view.credit as usize)
            .min(self.window.len())
            .saturating_sub(self.count_le(view.sent))
    }

    /// Whether the lane is credit-starved for `replica`: unshipped ids
    /// exist but the credit window (`EXHAUSTED` in the module docs'
    /// state machine) admits none of them.
    pub fn starved(&self, replica: ReplicaId) -> bool {
        let sent = self.replicas[replica.index()].sent;
        self.count_le(sent) < self.window.len() && self.sendable(replica) == 0
    }

    /// Marks a replica as crashed: its stalled ack no longer pins the
    /// window. Returns the number of ids pruned as a result.
    pub fn mark_dead(&mut self, replica: ReplicaId) -> usize {
        self.replicas[replica.index()].alive = false;
        self.prune()
    }

    /// Marks a replica live again. It re-acks from the window's low
    /// watermark — the window can no longer guarantee arbitrarily old
    /// history, which matches the paper's model where a recovered replica
    /// rejoins by state transfer, not by replay — with this sender's
    /// initial credit and nothing considered shipped.
    pub fn mark_alive(&mut self, replica: ReplicaId) {
        let ack = self.low_watermark();
        self.replicas[replica.index()] = ReplicaView {
            ack,
            sent: ack,
            credit: self.initial_credit,
            alive: true,
        };
    }

    fn low_watermark(&self) -> Timestamp {
        self.window.front().map_or_else(
            || {
                let acks = self.replicas.iter().map(|v| v.ack);
                acks.max().unwrap_or(Timestamp::ZERO)
            },
            |&(ts, _)| Timestamp(ts.0.saturating_sub(1)),
        )
    }

    fn prune(&mut self) -> usize {
        let min_ack = self
            .replicas
            .iter()
            .filter(|v| v.alive)
            .map(|v| v.ack)
            .min()
            .unwrap_or(Timestamp::MAX);
        let mut pruned = 0;
        while self.window.front().is_some_and(|&(ts, _)| ts <= min_ack) {
            self.window.pop_front();
            pruned += 1;
        }
        pruned
    }

    /// Ids waiting for acknowledgement.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Highest watermark ack recorded for `replica`.
    pub fn ack_of(&self, replica: ReplicaId) -> Timestamp {
        self.replicas[replica.index()].ack
    }
}

impl<T: Clone + Hash> LaneSender<T> {
    /// Folds the window (ids with their payloads, in timestamp order),
    /// acks, credits and liveness view into `h` for model-checking state
    /// hashing. The `sent` floors stay out: the simulator resends from
    /// the ack and never reads them.
    pub fn state_digest(&self, mut h: &mut dyn Hasher) {
        h.write_usize(self.window.len());
        for entry in &self.window {
            entry.hash(&mut h);
        }
        for view in &self.replicas {
            h.write_u64(view.ack.0);
            h.write_u32(view.credit);
            h.write_u8(view.alive as u8);
        }
    }
}

/// A [`CreditGrant`] tagged with the lane it is for.
///
/// The per-lane grant rings of the unmultiplexed service imply the lane
/// by construction; a [`GrantBatch`] carries grants for *many* lanes in
/// one ring entry, so each entry names its lane explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneGrant {
    /// The feeder lane this grant addresses.
    pub lane: PartitionId,
    /// The watermark-plus-credit acknowledgement itself.
    pub grant: CreditGrant,
}

/// One coalesced bundle of per-lane grants: a single ring entry (and a
/// single doorbell unpark) amortized over every lane a feeder thread
/// owns.
///
/// The unmultiplexed service acks every ingested frame with its own ring
/// entry and its own `unpark` — at 1024 lanes that is a doorbell storm
/// which starves the very drain that refills the credits. A replica
/// instead folds the sweep's grants into one `GrantBatch` per feeder
/// thread via [`GrantCoalescer`] and rings the doorbell at most once per
/// batch.
#[derive(Clone, Debug, Default)]
pub struct GrantBatch {
    /// At most one (folded) grant per lane, in ascending lane order.
    pub grants: Vec<LaneGrant>,
}

impl GrantBatch {
    /// Whether any lane in the batch received a credit worth a context
    /// switch — the doorbell predicate: a batch of zero-credit grants
    /// must not wake a parked feeder just to tell it "still full".
    pub fn workable(&self, min_credit: u32) -> bool {
        self.grants.iter().any(|g| g.grant.credit >= min_credit)
    }
}

/// Replica-side accumulator that folds per-frame [`CreditGrant`]s into
/// one [`GrantBatch`] per drain sweep for one feeder thread's lane range.
///
/// Folding two grants for the same lane keeps the **maximum ack** (acks
/// are watermarks and only ever advance) and the **latest credit and
/// pressure** (a replica under growing pressure legitimately shrinks the
/// window; the newest view wins). [`restore`](Self::restore) puts a batch
/// back after a failed send without clobbering anything fresher that was
/// noted in the meantime.
#[derive(Clone, Debug)]
pub struct GrantCoalescer {
    /// First lane of the feeder thread's range.
    base: PartitionId,
    /// Pending folded grant per lane (relative to `base`).
    slots: Vec<Option<CreditGrant>>,
    /// Number of occupied slots.
    occupied: usize,
}

impl GrantCoalescer {
    /// A coalescer covering lanes `base .. base + n_lanes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` is zero.
    pub fn new(base: PartitionId, n_lanes: usize) -> Self {
        assert!(n_lanes > 0, "a feeder thread owns at least one lane");
        GrantCoalescer {
            base,
            slots: vec![None; n_lanes],
            occupied: 0,
        }
    }

    /// First lane of the covered range.
    pub fn base(&self) -> PartitionId {
        self.base
    }

    /// Number of lanes with a pending grant.
    pub fn pending(&self) -> usize {
        self.occupied
    }

    /// Folds a grant for `lane` into the pending batch: max ack, latest
    /// credit and pressure.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `lane` is outside the covered range.
    pub fn note(&mut self, lane: PartitionId, grant: CreditGrant) {
        let rel = lane.index().wrapping_sub(self.base.index());
        debug_assert!(rel < self.slots.len(), "lane outside coalescer range");
        let slot = &mut self.slots[rel];
        match slot {
            Some(prev) => {
                *slot = Some(CreditGrant {
                    replica: grant.replica,
                    ack: prev.ack.max(grant.ack),
                    credit: grant.credit,
                    pressure: grant.pressure,
                });
            }
            None => {
                *slot = Some(grant);
                self.occupied += 1;
            }
        }
    }

    /// Drains the pending grants into one [`GrantBatch`] (ascending lane
    /// order), reusing `batch`'s allocation. Returns `None` — handing the
    /// allocation back untouched — if nothing is pending.
    pub fn drain(&mut self, mut batch: GrantBatch) -> Option<GrantBatch> {
        if self.occupied == 0 {
            return None;
        }
        batch.grants.clear();
        for (rel, slot) in self.slots.iter_mut().enumerate() {
            if let Some(grant) = slot.take() {
                batch.grants.push(LaneGrant {
                    lane: PartitionId(self.base.0 + rel as u32),
                    grant,
                });
            }
        }
        self.occupied = 0;
        Some(batch)
    }

    /// Puts a batch back after a failed send. A lane that was re-noted
    /// since the drain keeps its fresher credit; only the monotone ack is
    /// folded in. Lanes without fresher grants get the batch's entry
    /// back verbatim, so the next sweep re-sends them.
    pub fn restore(&mut self, batch: &GrantBatch) {
        for lg in &batch.grants {
            let rel = lg.lane.index().wrapping_sub(self.base.index());
            debug_assert!(rel < self.slots.len(), "lane outside coalescer range");
            match &mut self.slots[rel] {
                Some(prev) => prev.ack = prev.ack.max(lg.grant.ack),
                slot @ None => {
                    *slot = Some(lg.grant);
                    self.occupied += 1;
                }
            }
        }
    }
}

/// One feeder thread's multiplexer over many logical partition lanes —
/// the paper's proxy deployment, where one node fronts many partitions.
///
/// Each logical lane keeps its own id-only [`LaneSender`] (its window is its
/// partition's unacknowledged stream; its per-replica watermarks and
/// credits are *protocol* state and cannot be shared without changing
/// [`ShardedReplicaState`]'s dedup semantics — frames still carry the
/// lane tag and are still contiguous suffixes per lane). What the mux
/// shares is everything *thread-scoped*: one id budget across the lanes
/// (`window_len` is the pooled occupancy a feeder loop caps), one grant
/// ring, one park/unpark doorbell, one clock read per pass. Turning 1024
/// single-lane OS threads into 64 threads × 16 lanes removes the
/// scheduler fan-in cost while leaving the wire protocol byte-identical:
/// a `MuxSender` driving K lanes emits exactly the frames K independent
/// [`LaneSender`]s would (pinned by the proptests below).
#[derive(Clone, Debug)]
pub struct MuxSender {
    base: PartitionId,
    lanes: Vec<LaneSender>,
    /// Pooled window occupancy: sum of the lanes' window lengths.
    window_total: usize,
}

impl MuxSender {
    /// A mux over lanes `base .. base + n_lanes`, each replicating to
    /// `n_replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` or `n_replicas` is zero.
    pub fn new(base: PartitionId, n_lanes: usize, n_replicas: usize) -> Self {
        assert!(n_lanes > 0, "a mux drives at least one lane");
        MuxSender {
            base,
            lanes: (0..n_lanes)
                .map(|_| LaneSender::new(n_replicas, INITIAL_CREDIT))
                .collect(),
            window_total: 0,
        }
    }

    /// Number of logical lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// First lane of the range.
    pub fn base(&self) -> PartitionId {
        self.base
    }

    /// Global [`PartitionId`] of local lane `lane`.
    pub fn partition(&self, lane: usize) -> PartitionId {
        PartitionId(self.base.0 + lane as u32)
    }

    /// The lane's underlying sender (read-only; mutation goes through the
    /// mux so the pooled window count stays consistent).
    pub fn lane(&self, lane: usize) -> &LaneSender {
        &self.lanes[lane]
    }

    /// Pooled window occupancy across all lanes — the quantity a feeder
    /// thread budgets (one shared window for the thread, not one cap per
    /// lane).
    pub fn window_len(&self) -> usize {
        self.window_total
    }

    /// Window occupancy of one lane.
    pub fn lane_window_len(&self, lane: usize) -> usize {
        self.lanes[lane].window_len()
    }

    /// Appends a freshly issued id to `lane`'s window.
    ///
    /// # Panics
    ///
    /// Panics (debug) unless `ts` exceeds the lane's newest id.
    pub fn push(&mut self, lane: usize, ts: Timestamp) {
        self.lanes[lane].push(ts, ());
        self.window_total += 1;
    }

    /// Builds `lane`'s frame for `replica` (see [`LaneSender::build_frame`]);
    /// the frame is tagged with the lane's global [`PartitionId`].
    pub fn build_frame(
        &self,
        lane: usize,
        replica: ReplicaId,
        floor: Timestamp,
        heartbeat: Option<Timestamp>,
        max_ids: usize,
        ids: Vec<Timestamp>,
    ) -> BatchFrame {
        self.lanes[lane].build_frame(
            self.partition(lane),
            replica,
            floor,
            heartbeat,
            max_ids,
            ids,
        )
    }

    /// Applies a [`CreditGrant`] to `lane` (see [`LaneSender::on_grant`]).
    /// Returns the number of ids pruned from the lane's window.
    pub fn on_grant(&mut self, lane: usize, grant: CreditGrant) -> usize {
        let pruned = self.lanes[lane].on_grant(grant);
        self.window_total -= pruned;
        pruned
    }

    /// Records a bare watermark ack for `lane` (see [`LaneSender::on_ack`]).
    pub fn on_ack(&mut self, lane: usize, replica: ReplicaId, ts: Timestamp) -> usize {
        let pruned = self.lanes[lane].on_ack(replica, ts);
        self.window_total -= pruned;
        pruned
    }

    /// Marks `replica` crashed on every lane. Returns total ids pruned.
    pub fn mark_dead(&mut self, replica: ReplicaId) -> usize {
        let mut pruned = 0;
        for lane in &mut self.lanes {
            pruned += lane.mark_dead(replica);
        }
        self.window_total -= pruned;
        pruned
    }

    /// Marks `replica` live again on every lane (see
    /// [`LaneSender::mark_alive`]).
    pub fn mark_alive(&mut self, replica: ReplicaId) {
        for lane in &mut self.lanes {
            lane.mark_alive(replica);
        }
    }

    /// Records that every id up to `ts` shipped to `replica` on `lane`.
    pub fn note_sent(&mut self, lane: usize, replica: ReplicaId, ts: Timestamp) {
        self.lanes[lane].note_sent(replica, ts);
    }

    /// Highest id shipped to `replica` on `lane`.
    pub fn sent_of(&self, lane: usize, replica: ReplicaId) -> Timestamp {
        self.lanes[lane].sent_of(replica)
    }

    /// Latest credit `replica` advertised to `lane`.
    pub fn credit_of(&self, lane: usize, replica: ReplicaId) -> u32 {
        self.lanes[lane].credit_of(replica)
    }

    /// Unshipped ids of `lane` admitted by `replica`'s credit window.
    pub fn sendable(&self, lane: usize, replica: ReplicaId) -> usize {
        self.lanes[lane].sendable(replica)
    }

    /// Whether `lane` is credit-starved for `replica`.
    pub fn starved(&self, lane: usize, replica: ReplicaId) -> bool {
        self.lanes[lane].starved(replica)
    }

    /// Ids of `lane` shipped to `replica` but not yet acknowledged.
    pub fn in_flight(&self, lane: usize, replica: ReplicaId) -> usize {
        self.lanes[lane].in_flight(replica)
    }

    /// Highest watermark ack `replica` returned for `lane`.
    pub fn ack_of(&self, lane: usize, replica: ReplicaId) -> Timestamp {
        self.lanes[lane].ack_of(replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> PartitionId {
        PartitionId(i)
    }

    fn frame(partition: u32, ids: &[u64]) -> BatchFrame {
        BatchFrame {
            partition: p(partition),
            ids: ids.iter().map(|&t| Timestamp(t)).collect(),
            payloads: vec![(); ids.len()],
            heartbeat: None,
        }
    }

    #[test]
    fn duplicate_suffix_frames_are_sliced_off() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 1);
        let ack = r.ingest_owned(frame(0, &[1, 2])).unwrap();
        assert_eq!(ack, Timestamp(2));
        // Redelivery of the same prefix plus one new id.
        let ack = r.ingest_owned(frame(0, &[1, 2, 3])).unwrap();
        assert_eq!(ack, Timestamp(3));
        assert_eq!(r.total_accepted(), 3);
        assert_eq!(r.total_duplicates(), 2);
        assert_eq!(r.pending(), 3);
    }

    #[test]
    fn heartbeat_advances_watermark_without_ids() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 2);
        r.ingest_owned(frame(0, &[5])).unwrap();
        assert_eq!(r.stable_time(), Timestamp::ZERO, "lane 1 never spoke");
        let hb = BatchFrame {
            partition: p(1),
            ids: Vec::new(),
            payloads: Vec::new(),
            heartbeat: Some(Timestamp(9)),
        };
        assert_eq!(r.ingest_owned(hb).unwrap(), Timestamp(9));
        assert_eq!(r.stable_time(), Timestamp(5));
    }

    #[test]
    fn unknown_lane_is_rejected() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 2);
        assert!(matches!(
            r.ingest_owned(frame(5, &[1])),
            Err(EunomiaError::UnknownPartition(PartitionId(5)))
        ));
    }

    #[test]
    fn only_leader_processes_stable_and_follower_discards() {
        let mut leader = ShardedReplicaState::new(ReplicaId(0), 1);
        let mut follower = ShardedReplicaState::new(ReplicaId(1), 1);
        for r in [&mut leader, &mut follower] {
            r.set_leader(ReplicaId(0));
            r.ingest_owned(frame(0, &[5])).unwrap();
        }
        let mut out = Vec::new();
        assert!(follower
            .leader_process_stable_up_to(Timestamp::MAX, |_, ts| out.push(ts))
            .is_none());
        let stable = leader
            .leader_process_stable_up_to(Timestamp::MAX, |_, ts| out.push(ts))
            .unwrap();
        assert_eq!(stable, Timestamp(5));
        assert_eq!(out, vec![Timestamp(5)]);
        assert_eq!(follower.apply_stable(stable), 1);
        assert_eq!(follower.pending(), 0);
        assert_eq!(follower.apply_stable(Timestamp(4)), 0, "stale ignored");
        assert_eq!(follower.apply_stable(stable), 0, "repeat ignored");
    }

    #[test]
    fn stable_cutoff_is_min_across_many_lanes() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 16);
        for lane in 0..16u32 {
            r.ingest_owned(frame(lane, &[100 + lane as u64])).unwrap();
        }
        assert_eq!(r.stable_time(), Timestamp(100));
        let mut n = 0;
        let stable = r
            .leader_process_stable_up_to(Timestamp::MAX, |_, _| n += 1)
            .unwrap();
        assert_eq!(stable, Timestamp(100));
        assert_eq!(n, 1, "only lane 0's id is at or below the cutoff");
        assert_eq!(r.pending(), 15);
    }

    #[test]
    fn sender_builds_suffix_frames_and_prunes_on_acks() {
        let mut s = LaneSender::new(2, INITIAL_CREDIT);
        for t in 1..=5u64 {
            s.push(Timestamp(t), ());
        }
        let f = s.build_frame(
            p(0),
            ReplicaId(0),
            Timestamp::ZERO,
            None,
            usize::MAX,
            Vec::new(),
        );
        assert_eq!(f.ids.len(), 5);
        s.on_ack(ReplicaId(0), Timestamp(5));
        assert_eq!(s.window_len(), 5, "replica 1 silent: window pinned");
        // Floor above the ack: only unsent ids.
        let f = s.build_frame(p(0), ReplicaId(1), Timestamp(3), None, usize::MAX, f.ids);
        assert_eq!(f.ids, vec![Timestamp(4), Timestamp(5)]);
        s.on_ack(ReplicaId(1), Timestamp(5));
        assert_eq!(s.window_len(), 0);
    }

    #[test]
    fn dead_replica_stops_pinning_window() {
        let mut s = LaneSender::new(3, INITIAL_CREDIT);
        for t in 1..=5u64 {
            s.push(Timestamp(t), ());
        }
        s.on_ack(ReplicaId(0), Timestamp(5));
        s.on_ack(ReplicaId(1), Timestamp(5));
        assert_eq!(s.window_len(), 5);
        assert_eq!(s.mark_dead(ReplicaId(2)), 5);
        assert_eq!(s.window_len(), 0);
        s.mark_alive(ReplicaId(2));
        assert_eq!(s.ack_of(ReplicaId(2)), Timestamp(5));
    }

    #[test]
    fn credit_caps_frames_and_reopens_on_grant() {
        let mut s = LaneSender::new(1, INITIAL_CREDIT);
        let rid = ReplicaId(0);
        for t in 1..=10u64 {
            s.push(Timestamp(t), ());
        }
        // Shrink the window to 3: only ids 1..=3 may ship.
        s.on_grant(CreditGrant {
            replica: rid,
            ack: Timestamp::ZERO,
            credit: 3,
            pressure: 0,
        });
        assert_eq!(s.sendable(rid), 3);
        let f = s.build_frame(p(0), rid, s.sent_of(rid), None, usize::MAX, Vec::new());
        assert_eq!(f.ids, vec![Timestamp(1), Timestamp(2), Timestamp(3)]);
        s.note_sent(rid, Timestamp(3));
        // EXHAUSTED: in_flight == credit, nothing more may ship.
        assert_eq!(s.in_flight(rid), 3);
        assert_eq!(s.sendable(rid), 0);
        assert!(s.starved(rid));
        let f = s.build_frame(p(0), rid, s.sent_of(rid), None, usize::MAX, f.ids);
        assert!(f.ids.is_empty(), "exhausted lane must ship nothing");
        // A retransmit pass (floor = ZERO) stays inside the credit window.
        let f = s.build_frame(p(0), rid, Timestamp::ZERO, None, usize::MAX, f.ids);
        assert_eq!(f.ids.len(), 3, "retransmit re-ships in-flight ids only");
        // The grant acks 3 and reopens 4 more: OPEN again.
        s.on_grant(CreditGrant {
            replica: rid,
            ack: Timestamp(3),
            credit: 4,
            pressure: 0,
        });
        assert_eq!(s.window_len(), 7, "acked prefix pruned");
        assert_eq!(s.in_flight(rid), 0);
        assert_eq!(s.sendable(rid), 4);
        assert!(!s.starved(rid));
        // A zero-credit grant closes the lane entirely.
        s.on_grant(CreditGrant {
            replica: rid,
            ack: Timestamp(3),
            credit: 0,
            pressure: 255,
        });
        assert_eq!(s.sendable(rid), 0);
        assert!(s.starved(rid));
        let f = s.build_frame(p(0), rid, s.sent_of(rid), None, usize::MAX, f.ids);
        assert!(f.ids.is_empty(), "credit 0 means send nothing");
    }

    #[test]
    fn max_ids_truncates_frames_below_credit() {
        let mut s = LaneSender::new(1, INITIAL_CREDIT);
        for t in 1..=8u64 {
            s.push(Timestamp(t), ());
        }
        let f = s.build_frame(p(0), ReplicaId(0), Timestamp::ZERO, None, 2, Vec::new());
        assert_eq!(f.ids, vec![Timestamp(1), Timestamp(2)]);
    }

    #[test]
    fn advertise_scales_credit_by_backlog_and_queue_fill() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 2);
        let ids: Vec<u64> = (1..=100).collect();
        r.ingest_owned(frame(0, &ids)).unwrap();
        // Idle queue: credit = budget - backlog.
        let g = r.advertise(p(0), 0.0, 1000).unwrap();
        assert_eq!(g.replica, ReplicaId(0));
        assert_eq!(g.ack, Timestamp(100));
        assert_eq!(g.credit, 900);
        assert_eq!(g.pressure, 0);
        assert_eq!(r.lane_backlog(p(0)), Some(100));
        // Half-full queue halves the credit; pressure reflects the fill.
        let g = r.advertise(p(0), 0.5, 1000).unwrap();
        assert_eq!(g.credit, 450);
        assert_eq!(g.pressure, 127);
        // Backlog beyond the budget or a full queue closes the window.
        assert_eq!(r.advertise(p(0), 1.0, 1000).unwrap().credit, 0);
        assert_eq!(r.advertise(p(0), 0.0, 50).unwrap().credit, 0);
        // An idle lane gets the full budget, and out-of-range fill clamps.
        assert_eq!(r.advertise(p(1), -3.0, 1000).unwrap().credit, 1000);
        assert_eq!(r.advertise(p(1), f64::NAN, 1000).unwrap().credit, 0);
        assert!(r.advertise(p(9), 0.0, 1000).is_none());
        // Draining the stable prefix frees backlog, reopening credit.
        let hb = BatchFrame {
            partition: p(1),
            ids: Vec::new(),
            payloads: Vec::new(),
            heartbeat: Some(Timestamp(200)),
        };
        r.ingest_owned(hb).unwrap();
        r.leader_process_stable_up_to(Timestamp::MAX, |_, _| {});
        assert_eq!(r.advertise(p(0), 0.0, 1000).unwrap().credit, 1000);
    }

    #[test]
    fn cutoff_bounded_drain_never_passes_the_combined_minimum() {
        let mut r = ShardedReplicaState::new(ReplicaId(0), 2);
        r.ingest_owned(frame(0, &[3, 7])).unwrap();
        r.ingest_owned(frame(1, &[9])).unwrap();
        // Local minimum is 7 (lane 0's watermark), but another shard's
        // published minimum caps the combined cutoff at 5.
        let mut out = Vec::new();
        let stable = r
            .leader_process_stable_up_to(Timestamp(5), |_, ts| out.push(ts))
            .unwrap();
        assert_eq!(stable, Timestamp(5));
        assert_eq!(out, vec![Timestamp(3)]);
        assert_eq!(r.pending(), 2);
        // A cutoff at or below what was already drained is a no-op.
        assert!(r
            .leader_process_stable_up_to(Timestamp(5), |_, _| panic!("no ids"))
            .is_none());
        // The unbounded form still drains to the local minimum.
        out.clear();
        let stable = r
            .leader_process_stable_up_to(Timestamp::MAX, |_, ts| out.push(ts))
            .unwrap();
        assert_eq!(stable, Timestamp(7));
        assert_eq!(out, vec![Timestamp(7)]);
    }

    fn grant(replica: u32, ack: u64, credit: u32, pressure: u8) -> CreditGrant {
        CreditGrant {
            replica: ReplicaId(replica),
            ack: Timestamp(ack),
            credit,
            pressure,
        }
    }

    #[test]
    fn coalescer_folds_one_batch_per_sweep_with_monotone_acks() {
        let mut c = GrantCoalescer::new(p(8), 4);
        // Three grants for lane 9 within one sweep: the ack is monotone
        // (a late-arriving older ack cannot regress it), the credit and
        // pressure are latest-wins.
        c.note(p(9), grant(0, 10, 100, 0));
        c.note(p(9), grant(0, 25, 80, 3));
        c.note(p(9), grant(0, 20, 60, 9));
        c.note(p(8), grant(0, 5, 0, 255));
        assert_eq!(c.pending(), 2);
        // One drain yields ONE batch carrying every dirty lane, ascending.
        let batch = c.drain(GrantBatch::default()).unwrap();
        assert_eq!(batch.grants.len(), 2);
        assert_eq!(batch.grants[0].lane, p(8));
        assert_eq!(batch.grants[0].grant, grant(0, 5, 0, 255));
        assert_eq!(batch.grants[1].lane, p(9));
        assert_eq!(batch.grants[1].grant, grant(0, 25, 60, 9));
        // The doorbell predicate: rings iff some lane's credit clears the
        // threshold — a batch of zero-credit grants must stay silent.
        assert!(batch.workable(60));
        assert!(!batch.workable(61));
        let mut silent = GrantCoalescer::new(p(0), 1);
        silent.note(p(0), grant(0, 5, 0, 255));
        assert!(!silent.drain(GrantBatch::default()).unwrap().workable(1));
        // Drained clean: the next sweep has nothing, i.e. one ring entry
        // (and at most one unpark) per sweep, not per lane or per frame.
        assert_eq!(c.pending(), 0);
        assert!(c.drain(GrantBatch::default()).is_none());
    }

    #[test]
    fn coalescer_restore_keeps_fresher_grants() {
        let mut c = GrantCoalescer::new(p(0), 2);
        c.note(p(0), grant(0, 10, 50, 0));
        c.note(p(1), grant(0, 7, 20, 0));
        let batch = c.drain(GrantBatch::default()).unwrap();
        // Lane 0 got a fresher grant between drain and the failed send.
        c.note(p(0), grant(0, 12, 90, 1));
        c.restore(&batch);
        let again = c.drain(GrantBatch::default()).unwrap();
        assert_eq!(again.grants.len(), 2);
        // Fresher credit survives the restore; the ack stays monotone.
        assert_eq!(again.grants[0].grant, grant(0, 12, 90, 1));
        // Lane 1 had nothing fresher: the batch entry comes back verbatim.
        assert_eq!(again.grants[1].grant, grant(0, 7, 20, 0));
    }

    #[test]
    fn mux_tracks_pooled_window_and_marks_replicas_per_lane() {
        let mut m = MuxSender::new(p(4), 2, 2);
        assert_eq!(m.partition(1), p(5));
        m.push(0, Timestamp(1));
        m.push(0, Timestamp(2));
        m.push(1, Timestamp(3));
        assert_eq!(m.window_len(), 3);
        assert_eq!(m.lane_window_len(0), 2);
        let f = m.build_frame(
            0,
            ReplicaId(0),
            Timestamp::ZERO,
            None,
            usize::MAX,
            Vec::new(),
        );
        assert_eq!(f.partition, p(4), "frames carry the global lane tag");
        assert_eq!(f.ids.len(), 2);
        // Replica 0 acks lane 0; replica 1 still pins it.
        assert_eq!(m.on_ack(0, ReplicaId(0), Timestamp(2)), 0);
        assert_eq!(m.mark_dead(ReplicaId(1)), 2);
        assert_eq!(m.window_len(), 1);
        m.mark_alive(ReplicaId(1));
        assert_eq!(m.credit_of(0, ReplicaId(1)), INITIAL_CREDIT);
        assert_eq!(
            m.on_grant(1, grant(0, 3, 10, 0)) + m.on_grant(1, grant(1, 3, 10, 0)),
            1
        );
        assert_eq!(m.window_len(), 0);
    }

    #[test]
    fn build_frame_spans_the_deque_wrap_point() {
        let mut s: LaneSender<u64> = LaneSender::new(1, INITIAL_CREDIT);
        // Force a wrapped deque: push, prune, push more.
        for t in 1..=8u64 {
            s.push(Timestamp(t), t * 10);
        }
        s.on_ack(ReplicaId(0), Timestamp(6));
        for t in 9..=12u64 {
            s.push(Timestamp(t), t * 10);
        }
        let rid = ReplicaId(0);
        let f = s.build_frame(p(0), rid, Timestamp(7), None, usize::MAX, Vec::new());
        assert_eq!(
            f.ids,
            (8..=12).map(Timestamp).collect::<Vec<_>>(),
            "suffix must be correct regardless of ring layout"
        );
        assert_eq!(f.payloads, (8..=12).map(|t| t * 10).collect::<Vec<_>>());
        let f = s.build_frame(p(0), rid, Timestamp::ZERO, None, usize::MAX, f.ids);
        assert_eq!(f.ids.len(), s.window_len());
        assert_eq!(f.payloads.len(), s.window_len());
    }

    proptest! {
        /// The lane-based replica and sender agree with Alg. 4 as written
        /// (the ordered-map `reference`) under lossy, duplicating delivery from
        /// several partitions with payloads and heartbeats, lost stable
        /// announcements and leader failover: identical frames (ids and
        /// payloads) under unlimited credit, identical acks, duplicate
        /// counts and stable times, and identical `leader_process_stable`
        /// output — keys, payloads and global order.
        #[test]
        fn agrees_with_reference_replica_under_loss(
            n_lanes in 3usize..6,
            // (lane pick, replica pick, action): 0-1 = issue an op,
            // 2-3 = deliver a frame, 4 = frame lost, 5 = ack lost,
            // 6 = stabilize and announce, 7 = failover.
            plan in proptest::collection::vec((0usize..6, 0usize..3, 0u8..8), 0..200),
        ) {
            use crate::replica::reference;
            const REPLICAS: usize = 3;
            let mut senders: Vec<LaneSender<u64>> =
                (0..n_lanes).map(|_| LaneSender::new(REPLICAS, u32::MAX)).collect();
            let mut ref_senders: Vec<reference::ReplicatedSender<u64>> =
                (0..n_lanes).map(|_| reference::ReplicatedSender::new(REPLICAS)).collect();
            let mut replicas: Vec<ShardedReplicaState<u64>> = (0..REPLICAS)
                .map(|i| ShardedReplicaState::new(ReplicaId(i as u32), n_lanes))
                .collect();
            let mut refs: Vec<reference::ReplicaState<u64>> = (0..REPLICAS)
                .map(|i| reference::ReplicaState::new(ReplicaId(i as u32), n_lanes))
                .collect();
            // Per-lane clocks advance at different rates, so lanes share
            // timestamps and the drain order needs its partition tie-break.
            let mut clocks = vec![0u64; n_lanes];
            let mut leader = 0usize;
            // Finally deliver every lane to every replica twice (the second
            // round carries heartbeats) and stabilize.
            let flush: Vec<(usize, usize, u8)> = (0..2 * n_lanes * REPLICAS)
                .map(|i| ((i / REPLICAS) % n_lanes, i % REPLICAS, 2))
                .chain([(0, 0, 6)])
                .collect();
            for (lane_pick, target, action) in plan.into_iter().chain(flush) {
                let lane = lane_pick % n_lanes;
                let rid = ReplicaId(target as u32);
                match action {
                    0 | 1 => {
                        clocks[lane] += 1 + target as u64;
                        let payload = clocks[lane] * 100 + lane as u64;
                        senders[lane].push(Timestamp(clocks[lane]), payload);
                        ref_senders[lane].push(Timestamp(clocks[lane]), payload);
                    }
                    2..=5 => {
                        // An idle lane heartbeats (Alg. 2 l. 10–12).
                        let heartbeat = (senders[lane].window_len() == 0).then(|| {
                            clocks[lane] += 1;
                            Timestamp(clocks[lane])
                        });
                        let f = senders[lane].build_frame(
                            p(lane as u32), rid, Timestamp::ZERO, heartbeat, usize::MAX, Vec::new());
                        let batch = ref_senders[lane].batch_for(rid);
                        let framed: Vec<(Timestamp, u64)> =
                            f.ids.iter().copied().zip(f.payloads.iter().copied()).collect();
                        prop_assert_eq!(&framed, &batch, "frame differs from batch_for");
                        if action != 4 {
                            let ack = replicas[target].ingest_owned(f).unwrap();
                            let mut ref_ack = refs[target].new_batch(p(lane as u32), batch);
                            if let Some(hb) = heartbeat {
                                ref_ack = refs[target].heartbeat(p(lane as u32), hb);
                            }
                            prop_assert_eq!(ack, ref_ack);
                            if action != 5 {
                                senders[lane].on_ack(rid, ack);
                                ref_senders[lane].on_ack(rid, ref_ack);
                            }
                        }
                    }
                    6 => {
                        let (mut out, mut ref_out) = (Vec::new(), Vec::new());
                        let stable = replicas[leader].leader_process_stable(&mut out);
                        prop_assert_eq!(stable, refs[leader].leader_process_stable(&mut ref_out));
                        prop_assert_eq!(&out, &ref_out, "drained keys, payloads or order differ");
                        if let Some(stable) = stable {
                            // The announcement to `target` is lost.
                            for f in (0..REPLICAS).filter(|&f| f != leader && f != target) {
                                prop_assert_eq!(
                                    replicas[f].apply_stable(stable),
                                    refs[f].apply_stable(stable)
                                );
                            }
                        }
                    }
                    _ => {
                        // Failover: the next replica is promoted and every
                        // replica learns the new leader.
                        leader = (leader + 1) % REPLICAS;
                        let new_leader = ReplicaId(leader as u32);
                        for (f, (r, rr)) in replicas.iter_mut().zip(&mut refs).enumerate() {
                            if f == leader {
                                r.promote();
                            } else {
                                r.set_leader(new_leader);
                            }
                            rr.set_leader(new_leader);
                        }
                    }
                }
                for (r, rr) in replicas.iter().zip(&refs) {
                    prop_assert_eq!(r.stable_time(), rr.stable_time());
                    prop_assert_eq!(r.pending(), rr.pending());
                    prop_assert_eq!(r.total_duplicates(), rr.total_duplicates());
                }
            }
        }

        /// The flow-control state machine under ring-full discards, lost
        /// grants, and duplicating retransmissions: frames never exceed
        /// the advertised credit, the sharded replica agrees with the
        /// reference `ReplicaState` throughout, and once credit reopens
        /// every produced id is accepted exactly once.
        #[test]
        fn credits_throttle_without_losing_ids(
            n_ops in 1usize..50,
            budget in 1u32..24,
            plan in proptest::collection::vec((0usize..2, 0u8..5), 0..200),
        ) {
            use crate::replica::reference::ReplicaState;
            let mut sender = LaneSender::new(2, INITIAL_CREDIT);
            let mut sharded: Vec<ShardedReplicaState> =
                (0..2).map(|i| ShardedReplicaState::new(ReplicaId(i), 1)).collect();
            let mut reference: Vec<ReplicaState<u64>> =
                (0..2).map(|i| ReplicaState::new(ReplicaId(i), 1)).collect();
            for r in &mut sharded {
                r.promote();
            }
            for (i, r) in reference.iter_mut().enumerate() {
                r.set_leader(ReplicaId(i as u32));
            }
            let mut produced = 0u64;
            for (target, action) in plan {
                if produced < n_ops as u64 {
                    produced += 1;
                    sender.push(Timestamp(produced), ());
                }
                let rid = ReplicaId(target as u32);
                if action == 4 {
                    // Stabilize: drain the backlog, freeing credit budget.
                    sharded[target].leader_process_stable_up_to(Timestamp::MAX, |_, _| {});
                    let mut sink = Vec::new();
                    reference[target].leader_process_stable(&mut sink);
                    let g = sharded[target].advertise(p(0), 0.0, budget).unwrap();
                    sender.on_grant(g);
                    continue;
                }
                let retransmit = action == 3;
                let floor = if retransmit { Timestamp::ZERO } else { sender.sent_of(rid) };
                let in_flight = sender.in_flight(rid);
                let frame = sender.build_frame(p(0), rid, floor, None, usize::MAX, Vec::new());
                // Credit-bound invariant: ids beyond the ack never exceed
                // the advertised window.
                if retransmit {
                    prop_assert!(frame.ids.len() <= sender.credit_of(rid) as usize);
                } else {
                    prop_assert!(in_flight + frame.ids.len() <= sender.credit_of(rid) as usize);
                }
                prop_assert!(frame.ids.windows(2).all(|w| w[0] < w[1]));
                if action == 1 {
                    continue; // Ring full: frame discarded before sending.
                }
                if frame.ids.is_empty() {
                    continue;
                }
                let ref_ack =
                    reference[target].new_batch(p(0), frame.ids.iter().map(|&ts| (ts, ts.0)));
                let ack = sharded[target].ingest_owned(frame.clone()).unwrap();
                prop_assert_eq!(ack, ref_ack);
                prop_assert_eq!(
                    sharded[target].total_duplicates(),
                    reference[target].total_duplicates()
                );
                prop_assert_eq!(
                    sharded[target].stable_time(),
                    reference[target].stable_time()
                );
                sender.note_sent(rid, *frame.ids.last().unwrap());
                if action != 2 {
                    // Action 2 loses the grant; the sender's view goes stale.
                    let g = sharded[target].advertise(p(0), 0.0, budget).unwrap();
                    sender.on_grant(g);
                }
            }
            // Recovery: open the window and retransmit until both replicas
            // hold every produced id exactly once.
            for target in 0..2usize {
                let rid = ReplicaId(target as u32);
                loop {
                    let g = sharded[target].advertise(p(0), 0.0, u32::MAX).unwrap();
                    sender.on_grant(g);
                    let frame =
                        sender.build_frame(p(0), rid, Timestamp::ZERO, None, usize::MAX, Vec::new());
                    if frame.ids.is_empty() {
                        break;
                    }
                    let ref_ack =
                        reference[target].new_batch(p(0), frame.ids.iter().map(|&ts| (ts, ts.0)));
                    let ack = sharded[target].ingest_owned(frame.clone()).unwrap();
                    prop_assert_eq!(ack, ref_ack);
                    sender.note_sent(rid, *frame.ids.last().unwrap());
                }
                prop_assert_eq!(sharded[target].total_accepted(), produced);
                prop_assert_eq!(sharded[target].stable_time(), Timestamp(produced));
                prop_assert_eq!(
                    sharded[target].stable_time(),
                    reference[target].stable_time()
                );
            }
        }

        /// A `MuxSender` driving K lanes is id-for-id equivalent to K
        /// independent `LaneSender`s against the reference `ReplicaState`,
        /// under frame loss, duplicated (re-sent) frames, and lost grants:
        /// identical frames on the wire, identical acks, identical credit
        /// windows, identical stable times.
        #[test]
        fn mux_is_equivalent_to_independent_lane_senders(
            n_lanes in 1usize..5,
            budget in 1u32..32,
            plan in proptest::collection::vec(
                // (lane pick, replica pick, action): 0 = send+grant,
                // 1 = frame lost, 2 = grant lost, 3 = duplicate resend,
                // 4 = stabilize + re-advertise.
                (0usize..5, 0usize..2, 0u8..5),
                0..160,
            ),
        ) {
            use crate::replica::reference::ReplicaState;
            let n_replicas = 2usize;
            let base = p(3); // Non-zero base: global/local mapping exercised.
            let mut mux = MuxSender::new(base, n_lanes, n_replicas);
            let mut solo: Vec<LaneSender> =
                (0..n_lanes).map(|_| LaneSender::new(n_replicas, INITIAL_CREDIT)).collect();
            // One replica pair per flavour, each with `n_lanes` lanes
            // (lane l is local index l, global PartitionId base + l).
            let mut via_mux: Vec<ShardedReplicaState> =
                (0..n_replicas).map(|i| ShardedReplicaState::new(ReplicaId(i as u32), n_lanes)).collect();
            let mut via_solo: Vec<ReplicaState<u64>> =
                (0..n_replicas).map(|i| ReplicaState::new(ReplicaId(i as u32), n_lanes)).collect();
            for r in &mut via_mux {
                r.promote();
            }
            for (i, r) in via_solo.iter_mut().enumerate() {
                r.set_leader(ReplicaId(i as u32));
            }
            let mut next_ts = 0u64;
            for (lane_pick, target, action) in plan {
                let lane = lane_pick % n_lanes;
                let rid = ReplicaId(target as u32);
                // Issue one id on the picked lane in both flavours.
                next_ts += 1;
                mux.push(lane, Timestamp(next_ts));
                solo[lane].push(Timestamp(next_ts), ());
                prop_assert_eq!(
                    mux.window_len(),
                    solo.iter().map(|s| s.window_len()).sum::<usize>(),
                    "pooled window must equal the sum of independent windows"
                );
                if action == 4 {
                    via_mux[target].leader_process_stable_up_to(Timestamp::MAX, |_, _| {});
                    let mut sink = Vec::new();
                    via_solo[target].leader_process_stable(&mut sink);
                    for (l, solo_lane) in solo.iter_mut().enumerate() {
                        let g = via_mux[target].advertise(p(l as u32), 0.0, budget).unwrap();
                        mux.on_grant(l, g);
                        solo_lane.on_grant(g);
                    }
                    continue;
                }
                let floor = if action == 3 {
                    Timestamp::ZERO // Wholesale duplicate resend.
                } else {
                    mux.sent_of(lane, rid)
                };
                prop_assert_eq!(mux.sent_of(lane, rid), solo[lane].sent_of(rid));
                prop_assert_eq!(mux.sendable(lane, rid), solo[lane].sendable(rid));
                prop_assert_eq!(mux.starved(lane, rid), solo[lane].starved(rid));
                let mf = mux.build_frame(lane, rid, floor, None, usize::MAX, Vec::new());
                let sf = solo[lane].build_frame(
                    PartitionId(base.0 + lane as u32), rid, floor, None, usize::MAX, Vec::new());
                prop_assert_eq!(&mf.ids, &sf.ids, "wire frames must be identical");
                prop_assert_eq!(mf.partition, sf.partition);
                if action == 1 || mf.ids.is_empty() {
                    continue; // Frame lost in flight (or nothing to ship).
                }
                let last = *mf.ids.last().unwrap();
                mux.note_sent(lane, rid, last);
                solo[lane].note_sent(rid, last);
                // Deliver: the mux replica ingests the global-tagged frame
                // rebased to its local lane index, the solo replica the
                // reference flavour.
                let mut local = mf.clone();
                local.partition = p(lane as u32);
                let ack = via_mux[target].ingest_owned(local).unwrap();
                let ref_ack =
                    via_solo[target].new_batch(p(lane as u32), sf.ids.iter().map(|&ts| (ts, ts.0)));
                prop_assert_eq!(ack, ref_ack);
                prop_assert_eq!(via_mux[target].stable_time(), via_solo[target].stable_time());
                prop_assert_eq!(
                    via_mux[target].pending(),
                    via_solo[target].pending()
                );
                if action != 2 {
                    // Grant delivered to both flavours; action 2 loses it.
                    let g = via_mux[target].advertise(p(lane as u32), 0.0, budget).unwrap();
                    mux.on_grant(lane, g);
                    solo[lane].on_grant(g);
                    prop_assert_eq!(mux.credit_of(lane, rid), solo[lane].credit_of(rid));
                    prop_assert_eq!(mux.ack_of(lane, rid), solo[lane].ack_of(rid));
                    prop_assert_eq!(mux.in_flight(lane, rid), solo[lane].in_flight(rid));
                }
            }
        }
    }
}
