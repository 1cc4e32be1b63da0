//! Threaded Eunomia service with optional replication and crash injection.
//!
//! Topology per run:
//!
//! * `feeders` logical partition lanes, driven by
//!   `feeders / lanes_per_feeder` producer threads. Each thread owns a
//!   [`MuxSender`] — the paper's proxy deployment, one node fronting many
//!   partitions: per lane it stamps operation ids with a [`ScalarHlc`]
//!   (the §5 id-only metadata — payloads travel the data path and never
//!   touch Eunomia) and keeps the lane's unacknowledged ids in an ordered
//!   window ring, while the thread shares one pooled id budget, one grant
//!   ring, and one park/unpark doorbell across all its lanes. Every
//!   `batch_interval` it ships each replica one flat [`BatchFrame`] per
//!   lane with pending ids; frames carry the lane tag, so the replica's
//!   dedup semantics are identical to one-thread-per-lane.
//! * `replicas` service replicas, each split into `stabilizers` shard
//!   threads: every shard owns a contiguous slice of the lane table as a
//!   [`ShardedReplicaState`], drains its own frame ring in batches,
//!   dedups by per-lane watermark (one binary search per frame, not one
//!   probe per id) and coalesces the sweep's acks into one [`GrantBatch`]
//!   per feeder thread. Every `theta` each shard runs the tournament-tree
//!   cutoff over *its* lanes, publishes the per-shard minimum, folds the
//!   other shards' published minima into the global stable cutoff, and —
//!   on the current leader — drains its lanes' stable prefix up to that
//!   cutoff. The leader is the lowest-indexed replica with a fresh
//!   liveness beat, so killing it fails over after roughly
//!   `omega_timeout`; a killed replica can be revived mid-run
//!   ([`EunomiaBenchConfig::revives`]) and rejoins by resend from the
//!   feeders' window floors (state transfer, not replay).
//!
//! # Flow control: credits, not drops
//!
//! Every ack a replica returns is a
//! [`CreditGrant`](eunomia_core::shard::CreditGrant): its watermark plus
//! how many more ids it will accept from that lane
//! (`credit = (budget - lane_backlog) * (1 - queue_fill)`, see
//! [`ShardedReplicaState::advertise`]) and a pressure byte (ingest-ring
//! fill). Feeders honour the grant — a lane whose credit is exhausted
//! ships nothing and backs off instead of blind-resending — and size
//! frames by pressure: at low pressure whatever is pending ships
//! immediately (latency), near the high-water mark small dribbles are
//! held back until a full frame accumulates (throughput). The
//! retransmission timeout survives only as a safety net for lost grants.
//!
//! # Grant batching: one doorbell per feeder thread, not per lane
//!
//! Acks are not sent per frame: a shard folds every grant of one drain
//! sweep into a single [`GrantBatch`] ring entry per feeder thread (max
//! ack, latest credit per lane) and rings that thread's doorbell at most
//! once per batch — and only when the batch carries a credit worth a
//! context switch (per-frame grants) or a lane's window crossed the
//! reopening edge (theta re-advertisements). At 1024 lanes the
//! per-lane doorbell storm used to starve the very drain that refills
//! the credits; one enqueue + one unpark amortized over all lanes a
//! thread owns is what breaks that knee.
//!
//! Throughput is counted at stabilization (operations leaving the service
//! towards remote datacenters), the same quantity the paper plots.
//! [`run_eunomia_service_with_stats`] additionally returns the
//! [`ServiceStats`] the hot path accumulates: ids/s at stabilization,
//! batch-size and stabilization-latency distributions, per-shard theta
//! sweep timings, grant-batch occupancy, and the flow-control signals
//! (credit stalls, retransmitted ids, the advertised-window timeline).

use crate::ThroughputTimeline;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use eunomia_core::ids::{PartitionId, ReplicaId};
use eunomia_core::shard::{BatchFrame, GrantBatch, GrantCoalescer, MuxSender, ShardedReplicaState};
use eunomia_core::time::{ScalarHlc, Timestamp};
use eunomia_stats::ServiceStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Configuration for one service-throughput run.
#[derive(Clone, Debug)]
pub struct EunomiaBenchConfig {
    /// Number of logical feeder lanes (partitions). Each lane is one
    /// bounded operation stream; `lanes_per_feeder` controls how many of
    /// them share one OS thread.
    pub feeders: usize,
    /// Logical lanes multiplexed onto one feeder thread (the paper's
    /// proxy model: one node fronts many partitions). `1` reproduces the
    /// thread-per-lane deployment; the spawned thread count is
    /// `feeders.div_ceil(lanes_per_feeder)`.
    pub lanes_per_feeder: usize,
    /// Number of Eunomia replicas (1 = the non-fault-tolerant service).
    pub replicas: usize,
    /// Stabilizer shard threads per replica: the lane table is split
    /// into this many contiguous slices, each swept by its own thread
    /// (per-shard tournament-tree minima folded into the global cutoff
    /// by a cheap combiner). `1` reproduces the single-threaded sweep.
    pub stabilizers: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Feeder batching interval (the paper uses 1 ms).
    pub batch_interval: Duration,
    /// Stabilization period θ.
    pub theta: Duration,
    /// Maximum unacknowledged ids per lane (backpressure bound). A mux
    /// thread pools this: its budget is `window_cap x lanes`, any single
    /// lane may borrow up to `2 x window_cap` of it.
    pub window_cap: usize,
    /// Per-lane credit budget at each replica: the most
    /// accepted-but-unstable ids a replica buffers for one lane before
    /// its advertised credit reaches zero. By Little's law the budget
    /// caps per-lane throughput at `credit_budget / stabilization
    /// latency`, so it must cover the lane's bandwidth-delay product —
    /// size it as a memory-exposure bound (the default is 16x the
    /// default window), not a rate limiter.
    pub credit_budget: usize,
    /// Ack-progress timeout after which a feeder re-ships a lane's
    /// unacknowledged ids (still inside the credit window) — the
    /// at-least-once safety net for lost grants.
    pub retransmit_after: Duration,
    /// Offered load per lane in ids/s; `None` means closed-loop (each
    /// lane generates as fast as its window drains — a capacity probe).
    /// The paper's deployment model is the rate-limited one: each lane
    /// is a datacenter partition with its own bounded operation stream,
    /// and scaling the partition count scales the offered load until the
    /// service saturates.
    pub feeder_rate: Option<u64>,
    /// Crash schedule: `(when, replica_index)`. Every index must be below
    /// `replicas` (checked before any thread starts).
    pub crashes: Vec<(Duration, usize)>,
    /// Revival schedule: `(when, replica_index)`, indices as for
    /// `crashes`. A revived replica restarts with fresh state and rejoins
    /// by resend from each lane's window floor (the `mark_alive`
    /// state-transfer contract); pair with `crashes` for kill/restart
    /// fault cells.
    pub revives: Vec<(Duration, usize)>,
    /// Liveness timeout for leader fail-over.
    pub omega_timeout: Duration,
}

impl Default for EunomiaBenchConfig {
    fn default() -> Self {
        EunomiaBenchConfig {
            feeders: 16,
            lanes_per_feeder: 1,
            replicas: 1,
            stabilizers: 1,
            duration: Duration::from_secs(3),
            batch_interval: Duration::from_millis(1),
            theta: Duration::from_millis(1),
            window_cap: 4096,
            credit_budget: 65536,
            retransmit_after: Duration::from_secs(5),
            feeder_rate: None,
            crashes: Vec::new(),
            revives: Vec::new(),
            omega_timeout: Duration::from_millis(100),
        }
    }
}

enum ToReplica {
    Frame(BatchFrame),
    Stop,
}

/// Frames drained per replica wake. Small enough that a saturated
/// replica still checks the θ clock every few milliseconds (a 256-frame
/// sweep is ~15 ms of ingest — late θ ticks inflate the unstable
/// backlog and stabilization latency), large enough to amortize the
/// ring's batch drain.
const DRAIN_MAX: usize = 64;

/// Hard cap on ids per frame, bounding the per-frame allocation.
const MAX_FRAME_IDS: usize = 4096;

/// How long a pressure-gated lane may hold small frames back before
/// shipping anyway (x `batch_interval`) — bounds the latency cost of
/// coalescing for throughput.
const COALESCE_DEADLINE_INTERVALS: u32 = 8;

/// Geometry of one run: lane-to-thread and lane-to-shard maps shared by
/// feeders, shard threads, and the supervisor.
#[derive(Clone, Debug)]
struct Geometry {
    n_lanes: usize,
    lanes_per_feeder: usize,
    n_groups: usize,
    n_shards: usize,
}

impl Geometry {
    fn new(cfg: &EunomiaBenchConfig) -> Self {
        let lanes_per_feeder = cfg.lanes_per_feeder.max(1);
        Geometry {
            n_lanes: cfg.feeders,
            lanes_per_feeder,
            n_groups: cfg.feeders.div_ceil(lanes_per_feeder),
            n_shards: cfg.stabilizers.clamp(1, cfg.feeders),
        }
    }

    /// Feeder-thread group owning `lane`.
    fn group_of(&self, lane: usize) -> usize {
        lane / self.lanes_per_feeder
    }

    /// Stabilizer shard owning `lane` (contiguous slices).
    fn shard_of(&self, lane: usize) -> usize {
        lane * self.n_shards / self.n_lanes
    }

    /// Lane range `[lo, hi)` of feeder-thread group `g`.
    fn group_lanes(&self, g: usize) -> (usize, usize) {
        let lo = g * self.lanes_per_feeder;
        (lo, ((g + 1) * self.lanes_per_feeder).min(self.n_lanes))
    }

    /// Lane range `[lo, hi)` of stabilizer shard `s`.
    fn shard_lanes(&self, s: usize) -> (usize, usize) {
        let lo = (s * self.n_lanes).div_ceil(self.n_shards);
        let hi = ((s + 1) * self.n_lanes).div_ceil(self.n_shards);
        (lo, hi)
    }

    /// Capacity of one shard's frame ring. Scales with the shard's lane
    /// count: shallower rings concentrate producer contention on the
    /// ring's head, which costs more than the queued frames' cache
    /// footprint saves.
    fn shard_ring_capacity(&self, s: usize) -> usize {
        let (lo, hi) = self.shard_lanes(s);
        ((hi - lo) * 4).max(16)
    }
}

struct Shared {
    stop: AtomicBool,
    alive: Vec<AtomicBool>,
    beats: Vec<AtomicU64>,
    /// `[replica][shard]`: the shard thread's published tournament-tree
    /// minimum over its own lanes. The combiner (any shard of the same
    /// replica) folds these into the replica's global stable cutoff.
    shard_watermark: Vec<Vec<AtomicU64>>,
    /// `[shard]`: highest stable time any leader has published for the
    /// shard's lane slice — what followers discard by, and the
    /// count-once guard across overlapping leaders during fail-over.
    stable_published: Vec<AtomicU64>,
    stabilized: AtomicU64,
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Leader as seen by replica `me`: the lowest-indexed live replica
    /// with a fresh beat. A replica executing this check is trivially
    /// alive to itself — the beat freshness test applies only to *other*
    /// replicas, else a tick delayed past `omega_timeout` by ingest load
    /// makes a lone replica disown its own leadership and stabilization
    /// halts. `None` while everyone looks dead.
    fn leader(&self, me: usize, omega_timeout: Duration) -> Option<usize> {
        let now = self.now_ns();
        let timeout = omega_timeout.as_nanos() as u64;
        (0..self.alive.len()).find(|&r| {
            self.alive[r].load(Ordering::Relaxed)
                && (r == me || now.saturating_sub(self.beats[r].load(Ordering::Relaxed)) <= timeout)
        })
    }
}

/// Lowers the calling thread's scheduling priority (nice +5). The
/// paper's feeders are separate machines; in-process they compete with
/// the replica threads for CPU, and a fair scheduler gives N feeders N
/// shares against the one replica that needs most of a core — at 256
/// feeders the service starves in its own benchmark. Raising nice is
/// unprivileged; raw syscalls keep the crate dependency-free.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn deprioritize_current_thread() {
    // SAFETY: gettid takes no arguments and setpriority(PRIO_PROCESS,
    // tid, 5) only affects this thread; both are harmless on failure.
    unsafe {
        let tid: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 186i64 => tid, // SYS_gettid
            out("rcx") _,
            out("r11") _,
        );
        let mut ret: i64 = 141; // SYS_setpriority
        std::arch::asm!(
            "syscall",
            inlateout("rax") ret,
            in("rdi") 0i64, // PRIO_PROCESS
            in("rsi") tid,
            in("rdx") 5i64, // nice +5
            out("rcx") _,
            out("r11") _,
        );
        let _ = ret;
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn deprioritize_current_thread() {}

/// One feeder thread driving `geo.group_lanes(group)` logical lanes
/// through a [`MuxSender`]: one pooled window budget, one grant ring,
/// one doorbell, one physical-clock read per pass.
#[allow(clippy::too_many_arguments)]
fn feeder_loop(
    group: usize,
    geo: &Geometry,
    cfg: &EunomiaBenchConfig,
    shared: &Shared,
    frame_txs: &[Vec<Sender<ToReplica>>],
    grants: &Receiver<GrantBatch>,
    start: &Barrier,
) -> ServiceStats {
    deprioritize_current_thread();
    let (lane_lo, lane_hi) = geo.group_lanes(group);
    let n_lanes = lane_hi - lane_lo;
    let n_replicas = cfg.replicas;
    let mut stats = ServiceStats::default();
    let mut mux = MuxSender::new(PartitionId(lane_lo as u32), n_lanes, n_replicas);
    let mut hlc: Vec<ScalarHlc> = vec![ScalarHlc::new(); n_lanes];
    let mut dead = vec![false; n_replicas];
    let mut grant_buf: Vec<GrantBatch> = Vec::with_capacity(8);
    // Per-replica pressure (last grant's ingest-ring fill, 0..=255); the
    // coalescing clock and ack-progress clock are per (lane, replica) —
    // flat `lane * n_replicas + r` indexed.
    let mut pressure = vec![0u8; n_replicas];
    let slot = |lane: usize, r: usize| lane * n_replicas + r;
    // Pacing jitter (xorshift, seeded by group id): feeders sharing one
    // RTT phase-lock into convoys — everyone ships together, the replica
    // chews the burst, everyone sleeps together and the ring runs dry.
    // Randomizing each sleep +/-a third keeps arrivals spread out.
    let mut jitter_state = (0x9E37_79B9_7F4A_7C15u64 ^ group as u64) | 1;
    let mut jitter = move |d: Duration| {
        jitter_state ^= jitter_state << 13;
        jitter_state ^= jitter_state >> 7;
        jitter_state ^= jitter_state << 17;
        d * (667 + (jitter_state % 667) as u32) / 1000
    };
    let coalesce_deadline = cfg.batch_interval * COALESCE_DEADLINE_INTERVALS;
    // Rate-limited lanes wake on accumulation, not the closed-loop
    // cadence: a wake is only worth its context switch if a quarter-frame
    // of ids accrued on some lane (lanes accrue in parallel, so the floor
    // is per lane, not per thread).
    let accrual_floor = cfg.feeder_rate.map(|r| {
        Duration::from_nanos((MAX_FRAME_IDS as u64 / 4).saturating_mul(1_000_000_000) / r.max(1))
    });
    // The pooled window budget: any lane may borrow up to 2x its own cap
    // from siblings the replica has throttled, but the thread as a whole
    // never holds more than `window_cap x lanes` unacknowledged ids.
    let pool_cap = cfg.window_cap * n_lanes;
    let lane_soft_cap = cfg.window_cap * 2;
    // Spare frame buffers (any lane): a frame that could not be sent
    // (ring full) hands its allocation back, so a saturated replica
    // costs a binary search + copy per interval, not an alloc too.
    let mut spares: Vec<Vec<Timestamp>> = Vec::new();
    let mut backoff = cfg.batch_interval;
    let mut rotate = 0usize;

    // Wait for every replica shard to come up before generating: without
    // the barrier the feeder fleet floods the rings while replicas are
    // still spawning, and the first seconds of the credit timeline show
    // zero-credit grants that are a startup artifact, not flow control.
    start.wait();
    let rate_start = Instant::now();
    let mut generated: Vec<u64> = vec![0; n_lanes];
    let mut last_ship = vec![Instant::now(); n_lanes * n_replicas];
    let mut last_progress = vec![Instant::now(); n_lanes * n_replicas];
    // Per-replica EWMA of the ship-to-grant round trip — the retransmit
    // threshold's unit and the park-timeout fallback. Wakes themselves
    // are event-driven: the replica unparks this thread when it issues
    // one of its lanes a grant batch, so the estimate measures the true
    // round trip rather than the feeder's own sleep.
    let mut rtt_est = vec![cfg.batch_interval; n_replicas];
    while !shared.stop.load(Ordering::Relaxed) {
        // Drain grant batches in one sweep; each batch carries at most
        // one folded grant per lane this thread owns.
        grant_buf.clear();
        grants.try_recv_batch(&mut grant_buf, usize::MAX);
        for batch in grant_buf.drain(..) {
            for lg in &batch.grants {
                let lane = lg.lane.index() - lane_lo;
                let r = lg.grant.replica.index();
                // Any grant is progress: the replica is alive and
                // talking, so the retransmission timeout (a lost-grant
                // safety net, not a liveness probe) must not fire merely
                // because the watermark paused while the replica drains
                // a deep ring.
                last_progress[slot(lane, r)] = Instant::now();
                pressure[r] = lg.grant.pressure;
                if lg.grant.ack > mux.ack_of(lane, lg.grant.replica) {
                    // Elapsed-since-last-ship under-estimates the true
                    // round trip when several frames are in flight; an
                    // EWMA biased low only shortens the park-timeout
                    // fallback, which is the safe direction.
                    let sample = last_ship[slot(lane, r)].elapsed();
                    rtt_est[r] = (rtt_est[r] * 7 + sample) / 8;
                }
                mux.on_grant(lane, lg.grant);
            }
        }
        // Crash/revival transitions, once per replica for all lanes.
        for (r, dead_flag) in dead.iter_mut().enumerate() {
            let alive = shared.alive[r].load(Ordering::Relaxed);
            if !*dead_flag && !alive {
                *dead_flag = true;
                mux.mark_dead(ReplicaId(r as u32));
            } else if *dead_flag && alive {
                // Revived: rejoin by resend from the window floor (state
                // transfer, not replay — `mark_alive`'s contract).
                *dead_flag = false;
                mux.mark_alive(ReplicaId(r as u32));
                pressure[r] = 0;
                for lane in 0..n_lanes {
                    last_progress[slot(lane, r)] = Instant::now();
                }
            }
        }
        // Generate eagerly up to the pooled window budget (ids only,
        // §5). The physical clock is read once per pass; each lane's
        // HLC logical bump keeps its ids strictly monotone within the
        // burst. The rotating start index keeps pool borrowing fair.
        let mut pool_room = pool_cap.saturating_sub(mux.window_len());
        let entitled_ns = cfg
            .feeder_rate
            .map(|rate| (rate_start.elapsed().as_nanos() as u64).saturating_mul(rate));
        let physical = Timestamp(shared.now_ns());
        for i in 0..n_lanes {
            let lane = (i + rotate) % n_lanes;
            let mut room = lane_soft_cap
                .saturating_sub(mux.lane_window_len(lane))
                .min(pool_room);
            if let Some(total_ns) = entitled_ns {
                let entitled = total_ns / 1_000_000_000;
                room = room.min(entitled.saturating_sub(generated[lane]) as usize);
            }
            generated[lane] += room as u64;
            pool_room -= room;
            for _ in 0..room {
                let ts = hlc[lane].tick_local(physical);
                mux.push(lane, ts);
            }
        }
        rotate = rotate.wrapping_add(1);
        // Ship per-(lane, replica) frames, honouring each credit window.
        let mut sent_something = false;
        for lane in 0..n_lanes {
            let heartbeat = if mux.lane_window_len(lane) == 0
                && hlc[lane].heartbeat_due(physical, cfg.batch_interval.as_nanos() as u64)
            {
                Some(hlc[lane].heartbeat(Timestamp(shared.now_ns())))
            } else {
                None
            };
            for (r, txs) in frame_txs.iter().enumerate() {
                if dead[r] {
                    continue;
                }
                let rid = ReplicaId(r as u32);
                // The retransmission timeout scales with the observed
                // round trip: a fixed constant misfires the moment
                // scheduling delay exceeds it, and every misfire is a
                // duplicate storm in miniature.
                let timed_out = mux.in_flight(lane, rid) > 0
                    && last_progress[slot(lane, r)].elapsed()
                        > cfg.retransmit_after.max(rtt_est[r] * 8);
                let sendable = mux.sendable(lane, rid);
                if sendable == 0 && !timed_out && heartbeat.is_none() {
                    // EXHAUSTED: the credit window admits nothing. Park
                    // the lane; the replica re-advertises on its theta
                    // tick.
                    if mux.starved(lane, rid) {
                        stats.credit_stalls += 1;
                    }
                    continue;
                }
                // Pressure-adaptive frame sizing: at pressure 0 ship
                // whatever is pending (small frames, low latency); as the
                // replica's ring fills, hold dribbles back until a full
                // frame (or the deadline) so overload ships few, large
                // frames. Rate-limited lanes floor this at a quarter
                // frame — a grant doorbell must not flush every dribble
                // the accrual clock has admitted.
                let rate_floor = if cfg.feeder_rate.is_some() {
                    MAX_FRAME_IDS / 4
                } else {
                    0
                };
                let min_ship = (pressure[r] as usize * MAX_FRAME_IDS / 255)
                    .max(rate_floor)
                    .min(mux.credit_of(lane, rid) as usize)
                    .min(cfg.window_cap);
                // A rate-limited lane takes `min_ship / rate` to accrue a
                // frame worth shipping; holding it to the closed-loop
                // deadline would flush pressure-sized frames as dribbles
                // and melt the overload regime into a wake storm.
                let deadline = match cfg.feeder_rate {
                    Some(rate) if rate > 0 => coalesce_deadline.max(Duration::from_nanos(
                        (min_ship as u64).saturating_mul(1_000_000_000) / rate,
                    )),
                    _ => coalesce_deadline,
                };
                if sendable < min_ship
                    && !timed_out
                    && heartbeat.is_none()
                    && last_ship[slot(lane, r)].elapsed() < deadline
                {
                    continue;
                }
                let floor = if timed_out {
                    last_progress[slot(lane, r)] = Instant::now();
                    Timestamp::ZERO // Re-ship everything unacked (credit-bounded).
                } else {
                    mux.sent_of(lane, rid) // New ids only.
                };
                let sent_before = mux.sent_of(lane, rid);
                let spare = spares.pop().unwrap_or_default();
                let frame = mux.build_frame(lane, rid, floor, heartbeat, MAX_FRAME_IDS, spare);
                if frame.ids.is_empty() && heartbeat.is_none() {
                    spares.push(frame.ids);
                    continue;
                }
                let newest = frame.ids.last().copied();
                let resent = frame.ids.partition_point(|&ts| ts <= sent_before) as u64;
                let shard = geo.shard_of(lane_lo + lane);
                // A full channel defers the frame; nothing is counted as
                // sent (`note_sent` advances only on success: skipping
                // ids would break the contiguous-suffix contract the
                // watermark dedup relies on), so the next pass re-builds
                // the same suffix.
                match txs[shard].try_send(ToReplica::Frame(frame)) {
                    Ok(()) => {
                        sent_something = true;
                        last_ship[slot(lane, r)] = Instant::now();
                        stats.retransmitted_ids += resent;
                        if let Some(ts) = newest {
                            mux.note_sent(lane, rid, ts);
                        }
                    }
                    Err(TrySendError::Full(ToReplica::Frame(f)))
                    | Err(TrySendError::Disconnected(ToReplica::Frame(f))) => {
                        stats.ring_full_stalls += 1;
                        spares.push(f.ids);
                    }
                    Err(_) => {}
                }
            }
        }
        // Event-driven pacing. After shipping, the next actionable moment
        // is the grant batch for those frames — and the replica *unparks*
        // this thread when it enqueues one, so the park timeout is only a
        // fallback (lost grant, dead replica). A pass that neither
        // shipped nor heard grants — window fully in flight,
        // credit-starved, ring full — backs off exponentially instead of
        // stealing CPU from the service on small hosts (the paper's
        // feeders are separate machines).
        backoff = if sent_something {
            let next_grant = dead
                .iter()
                .zip(&rtt_est)
                .filter(|(d, _)| !**d)
                .map(|(_, rtt)| *rtt * 2)
                .min()
                .unwrap_or(cfg.batch_interval);
            next_grant.clamp(cfg.batch_interval, cfg.batch_interval * 64)
        } else {
            // Shipped nothing: every wake until some window reopens is a
            // context switch taken from the replica that would have
            // refilled the credits, so back off exponentially. Hearing a
            // grant is no reason to reset — an actionable grant would
            // have made the ship loop send (the branch above); a
            // zero-credit grant is just the replica saying "still full".
            // Starved lanes are woken by the grant doorbell, not the
            // clock — they may park for whole seconds without adding
            // latency.
            (backoff * 2).min(cfg.batch_interval * 1024)
        };
        let mut park = backoff;
        if let Some(floor) = accrual_floor {
            // A rate-limited thread whose pooled window is not full is
            // waiting on its own accrual, not on the service.
            if mux.window_len() < pool_cap {
                park = park.max(floor);
            }
        }
        std::thread::park_timeout(jitter(park));
    }
    stats
}

/// One stabilizer shard thread: replica `me`, lane slice
/// `geo.shard_lanes(shard)`, its own frame ring and
/// [`ShardedReplicaState`]. Grants are coalesced per feeder-thread group
/// and flushed as one [`GrantBatch`] (plus at most one doorbell unpark)
/// per sweep.
#[allow(clippy::too_many_arguments)]
fn replica_shard_loop(
    me: usize,
    shard: usize,
    geo: &Geometry,
    cfg: &EunomiaBenchConfig,
    shared: &Shared,
    rx: &Receiver<ToReplica>,
    grant_txs: &[Sender<GrantBatch>],
    feeders: &[std::thread::Thread],
    start: Option<&Barrier>,
) -> ServiceStats {
    let (lane_lo, lane_hi) = geo.shard_lanes(shard);
    let n_local = lane_hi - lane_lo;
    let mut state = ShardedReplicaState::new(ReplicaId(me as u32), n_local);
    let mut stats = ServiceStats::default();
    let mut frames: Vec<ToReplica> = Vec::with_capacity(DRAIN_MAX);
    let mut latency_scratch: Vec<u64> = Vec::new();
    let ring_cap = geo.shard_ring_capacity(shard) as f64;
    let budget = cfg.credit_budget.min(u32::MAX as usize) as u32;
    // Last credit advertised per local lane. Starting at zero makes the
    // first theta tick advertise every lane — on a fresh start that is
    // the opening grant, and on revival it is what tells parked feeders
    // the replica is back without them having to poll.
    let mut advertised: Vec<u32> = vec![0; n_local];
    // One grant coalescer per feeder-thread group whose lanes intersect
    // this shard, plus its doorbell-worthiness flag and a spare batch
    // allocation.
    let group_lo = geo.group_of(lane_lo);
    let group_hi = geo.group_of(lane_hi - 1);
    let n_groups_local = group_hi - group_lo + 1;
    let mut coalescers: Vec<GrantCoalescer> = (group_lo..=group_hi)
        .map(|g| {
            let (glo, ghi) = geo.group_lanes(g);
            GrantCoalescer::new(PartitionId(glo as u32), ghi - glo)
        })
        .collect();
    let mut ring_worthy = vec![false; n_groups_local];
    let mut batch_spares: Vec<GrantBatch> = Vec::new();
    let reopen = (MAX_FRAME_IDS / 4) as u32;
    if let Some(b) = start {
        b.wait();
    }
    let mut next_theta = Instant::now() + cfg.theta;
    'run: loop {
        if shared.stop.load(Ordering::Relaxed) || !shared.alive[me].load(Ordering::Relaxed) {
            break 'run;
        }
        // Batch ingestion: drain whatever is queued in one sweep; park
        // until the next θ tick only when the ring is empty.
        frames.clear();
        stats.queue_depth_high_water = stats.queue_depth_high_water.max(rx.len() as u64);
        if rx.try_recv_batch(&mut frames, DRAIN_MAX) == 0 {
            let timeout = next_theta.saturating_duration_since(Instant::now());
            match rx.recv_timeout(timeout) {
                Ok(msg) => frames.push(msg),
                Err(RecvTimeoutError::Disconnected) => break 'run,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        let ring_still_deep = frames.len() == DRAIN_MAX;
        // Beat per sweep, not just per theta tick: a replica buried in
        // ingest is alive, and its peers must not steal leadership from
        // it merely because its theta clock ran late.
        shared.beats[me].store(shared.now_ns(), Ordering::Relaxed);
        let fill = rx.len() as f64 / ring_cap;
        for msg in frames.drain(..) {
            let mut frame = match msg {
                ToReplica::Frame(f) => f,
                ToReplica::Stop => break 'run,
            };
            let global_lane = frame.partition.index();
            let local_lane = global_lane - lane_lo;
            frame.partition = PartitionId(local_lane as u32);
            let n_ids = frame.ids.len() as u64;
            state
                .ingest_owned(frame)
                .expect("bench wiring guarantees valid partitions");
            stats.frames += 1;
            stats.batch_sizes.record(n_ids);
            // Watermark + credit in one grant: the ack the feeder prunes
            // by, the window it may fill, the pressure it sizes frames
            // by. Not sent per frame — folded into this sweep's batch for
            // the owning feeder thread (max ack, latest credit), flushed
            // below as one ring entry + at most one doorbell unpark.
            if let Some(mut grant) = state.advertise(PartitionId(local_lane as u32), fill, budget) {
                grant.pressure = (fill * 255.0) as u8;
                advertised[local_lane] = grant.credit;
                let g = geo.group_of(global_lane) - group_lo;
                coalescers[g].note(PartitionId(global_lane as u32), grant);
                // A per-frame grant is doorbell-worthy when the credit is
                // worth a context switch: unparking a thousand overloaded
                // lanes to hand each a zero is a wake storm that starves
                // the very drain that would refill the credits.
                if grant.credit >= reopen {
                    ring_worthy[g] = true;
                }
            }
        }
        let theta_ticked = Instant::now() >= next_theta;
        if theta_ticked {
            let sweep_start = Instant::now();
            next_theta = sweep_start + cfg.theta;
            shared.beats[me].store(shared.now_ns(), Ordering::Relaxed);
            let leader = shared.leader(me, cfg.omega_timeout);
            state.set_leader(ReplicaId(leader.unwrap_or(me) as u32));
            // Publish this shard's tournament-tree minimum and fold every
            // shard's published minimum into the replica's global stable
            // cutoff — the combiner is this handful of atomic loads.
            shared.shard_watermark[me][shard].store(state.stable_time().0, Ordering::Release);
            let mut cutoff = u64::MAX;
            for w in &shared.shard_watermark[me] {
                cutoff = cutoff.min(w.load(Ordering::Acquire));
            }
            if leader == Some(me) {
                // Tentatively drain this shard's lanes up to the combined
                // cutoff, buffering 1-in-64 sampled latencies (a drain
                // can cover tens of millions of ids; a per-id sample
                // vector is tens of megabytes re-written every sweep and
                // evicts the very backlog chunks the drain is scanning).
                // Count and flush the samples only if this drain advanced
                // the shard's globally published stable time, so
                // overlapping leaders during fail-over can neither
                // double-count nor double-sample the histogram.
                let now = shared.now_ns();
                latency_scratch.clear();
                let scratch = &mut latency_scratch;
                let mut emitted = 0u64;
                let stable = state.leader_process_stable_up_to(Timestamp(cutoff), |_, ts| {
                    if emitted.is_multiple_of(64) {
                        scratch.push(now.saturating_sub(ts.0));
                    }
                    emitted += 1;
                });
                if let Some(stable) = stable {
                    let prev = shared.stable_published[shard].fetch_max(stable.0, Ordering::SeqCst);
                    if prev < stable.0 {
                        stats.stabilized_ids += emitted;
                        shared.stabilized.fetch_add(emitted, Ordering::Relaxed);
                        for &ns in &latency_scratch {
                            stats.stabilization_latency.record(ns);
                        }
                    }
                }
            } else {
                let stable = Timestamp(shared.stable_published[shard].load(Ordering::Relaxed));
                state.apply_stable(stable);
            }
            // Re-advertise throttled lanes: stabilization just freed
            // backlog (and the drain above freed ring slots), so parked
            // feeders learn their window reopened without polling. Lanes
            // advertised at half the budget or more are still OPEN and
            // will be refreshed by their own next frame's grant.
            let fill = rx.len() as f64 / ring_cap;
            for (local_lane, adv) in advertised.iter_mut().enumerate() {
                if *adv >= budget / 2 {
                    continue;
                }
                if let Some(grant) = state.advertise(PartitionId(local_lane as u32), fill, budget) {
                    // Ring the doorbell only on the reopening *edge*: a
                    // lane already holding workable credit is pacing on
                    // its own accrual, and re-waking every throttled lane
                    // every tick is the wake storm all over again.
                    let reopened = *adv < reopen && grant.credit >= reopen;
                    *adv = grant.credit;
                    let global_lane = lane_lo + local_lane;
                    let g = geo.group_of(global_lane) - group_lo;
                    coalescers[g].note(PartitionId(global_lane as u32), grant);
                    if reopened {
                        ring_worthy[g] = true;
                    }
                }
            }
            stats
                .theta_sweep_ns
                .record(sweep_start.elapsed().as_nanos() as u64);
        }
        // Flush the coalesced grants: one ring entry per feeder thread
        // with pending grants, one doorbell unpark at most — however
        // many lanes and frames were covered. While the ring stays deep
        // the flush is deferred (bounded by the theta tick): under
        // backlog each batch then folds a whole interval's worth of a
        // thread's lanes instead of one ring entry per 64-frame sweep.
        if !ring_still_deep || theta_ticked {
            for (g, coalescer) in coalescers.iter_mut().enumerate() {
                let Some(batch) = coalescer.drain(batch_spares.pop().unwrap_or_default()) else {
                    continue;
                };
                let sec = (shared.now_ns() / 1_000_000_000) as usize;
                for lg in &batch.grants {
                    stats.advertised_credits.record(lg.grant.credit as u64);
                    stats.record_credit(sec, lg.grant.credit as u64);
                }
                let worthy = ring_worthy[g] && batch.workable(reopen);
                let lanes_in_batch = batch.grants.len() as u64;
                match grant_txs[group_lo + g].try_send(batch) {
                    Ok(()) => {
                        stats.grant_batches += 1;
                        stats.grant_batch_lanes.record(lanes_in_batch);
                        if worthy {
                            feeders[group_lo + g].unpark();
                            stats.doorbell_unparks += 1;
                        }
                        ring_worthy[g] = false;
                    }
                    Err(TrySendError::Full(b)) | Err(TrySendError::Disconnected(b)) => {
                        // Grant ring full: put the grants back (without
                        // clobbering anything fresher) so the next sweep
                        // retries; keep the doorbell flag so the retry still
                        // rings it.
                        coalescer.restore(&b);
                        batch_spares.push(b);
                    }
                }
            }
        }
    }
    stats.accepted_ids = state.total_accepted();
    stats.duplicate_ids = state.total_duplicates();
    stats
}

/// Runs the threaded Eunomia service benchmark.
///
/// Returns the per-second stabilization timeline. With `cfg.crashes`
/// non-empty, replicas die at the scheduled offsets (the Fig. 4 setup);
/// `cfg.revives` restarts them.
pub fn run_eunomia_service(cfg: &EunomiaBenchConfig) -> ThroughputTimeline {
    run_eunomia_service_with_stats(cfg).0
}

/// Runs the threaded Eunomia service benchmark and also returns the
/// merged [`ServiceStats`] of all feeder and stabilizer threads (batch
/// sizes, queue depths, stabilization latency, theta sweep timings,
/// grant-batch occupancy, ids/s).
pub fn run_eunomia_service_with_stats(
    cfg: &EunomiaBenchConfig,
) -> (ThroughputTimeline, ServiceStats) {
    assert!(
        cfg.feeders > 0 && cfg.replicas > 0,
        "need feeders and replicas"
    );
    assert!(
        cfg.lanes_per_feeder > 0 && cfg.stabilizers > 0,
        "need at least one lane per feeder thread and one stabilizer"
    );
    assert!(
        cfg.crashes
            .iter()
            .chain(&cfg.revives)
            .all(|&(_, r)| r < cfg.replicas),
        "crash/revive schedule names a replica index >= replicas ({})",
        cfg.replicas
    );
    let geo = Arc::new(Geometry::new(cfg));
    let n_shards = geo.n_shards;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        alive: (0..cfg.replicas).map(|_| AtomicBool::new(true)).collect(),
        beats: (0..cfg.replicas).map(|_| AtomicU64::new(0)).collect(),
        shard_watermark: (0..cfg.replicas)
            .map(|_| (0..n_shards).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        stable_published: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
        stabilized: AtomicU64::new(0),
        epoch: Instant::now(),
    });

    // Frame rings: one per (replica, shard).
    let mut frame_txs: Vec<Vec<Sender<ToReplica>>> = Vec::new();
    let mut frame_rxs: Vec<Vec<Receiver<ToReplica>>> = Vec::new();
    for _ in 0..cfg.replicas {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for s in 0..n_shards {
            let (tx, rx) = bounded::<ToReplica>(geo.shard_ring_capacity(s));
            txs.push(tx);
            rxs.push(rx);
        }
        frame_txs.push(txs);
        frame_rxs.push(rxs);
    }
    // Grant rings: one per feeder thread, carrying coalesced batches from
    // every (replica, shard). Batches supersede per lane (and a failed
    // send is restored into the next sweep's batch), so the ring only
    // needs to cover the shards' natural burstiness.
    let mut grant_txs = Vec::new();
    let mut grant_rxs = Vec::new();
    for _ in 0..geo.n_groups {
        let (tx, rx) = bounded::<GrantBatch>((cfg.replicas * n_shards * 8).max(32));
        grant_txs.push(tx);
        grant_rxs.push(rx);
    }

    // The start barrier covers every feeder, every stabilizer shard, and
    // the supervisor: measurement (and generation) begins only once the
    // whole topology is up. Without it the feeder fleet spawns first,
    // floods the rings, and the first seconds of every run measure the
    // spawn storm instead of the service.
    let start = Arc::new(Barrier::new(geo.n_groups + cfg.replicas * n_shards + 1));

    // Feeders first: stabilizers need their `Thread` handles to ring the
    // grant doorbell (`unpark`) when a credit window reopens.
    let mut feeder_handles = Vec::new();
    for (g, rx) in grant_rxs.into_iter().enumerate() {
        let cfg = cfg.clone();
        let geo = geo.clone();
        let shared = shared.clone();
        let txs = frame_txs.clone();
        let start = start.clone();
        feeder_handles.push(std::thread::spawn(move || {
            feeder_loop(g, &geo, &cfg, &shared, &txs, &rx, &start)
        }));
    }
    let feeder_threads: Arc<Vec<std::thread::Thread>> =
        Arc::new(feeder_handles.iter().map(|h| h.thread().clone()).collect());
    let spawn_shard = |me: usize, s: usize, with_barrier: bool| {
        let cfg = cfg.clone();
        let geo = geo.clone();
        let shared = shared.clone();
        let rx = frame_rxs[me][s].clone();
        let grant_txs = grant_txs.clone();
        let feeder_threads = feeder_threads.clone();
        let start = with_barrier.then(|| start.clone());
        std::thread::spawn(move || {
            replica_shard_loop(
                me,
                s,
                &geo,
                &cfg,
                &shared,
                &rx,
                &grant_txs,
                &feeder_threads,
                start.as_deref(),
            )
        })
    };
    let mut shard_handles: Vec<Vec<Option<std::thread::JoinHandle<ServiceStats>>>> = (0..cfg
        .replicas)
        .map(|me| {
            (0..n_shards)
                .map(|s| Some(spawn_shard(me, s, true)))
                .collect()
        })
        .collect();
    start.wait();

    // Sampling + crash/revival-injection loop.
    let start_t = Instant::now();
    let mut per_second = Vec::new();
    let mut last_count = 0u64;
    let mut stats = ServiceStats::default();
    // Crash and revival events interleaved in time order.
    let mut events: Vec<(Duration, usize, bool)> = cfg
        .crashes
        .iter()
        .map(|&(t, r)| (t, r, false))
        .chain(cfg.revives.iter().map(|&(t, r)| (t, r, true)))
        .collect();
    events.sort_by_key(|&(t, _, _)| t);
    let mut event_idx = 0;
    let mut next_sample = start_t + Duration::from_secs(1);
    let mut stale: Vec<ToReplica> = Vec::new();
    while start_t.elapsed() < cfg.duration {
        let next_event = events.get(event_idx).map(|(t, _, _)| start_t + *t);
        let wake = match next_event {
            Some(c) if c < next_sample => c,
            _ => next_sample,
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(Duration::from_millis(50)));
        }
        if let Some(&(t, r, revive)) = events.get(event_idx) {
            if start_t.elapsed() >= t {
                event_idx += 1;
                if !revive {
                    shared.alive[r].store(false, Ordering::SeqCst);
                } else if !shared.alive[r].load(Ordering::SeqCst) {
                    // Revive: reap the dead shard threads (folding their
                    // stats in), discard frames that went stale in the
                    // rings while the replica was down (a fresh replica
                    // re-learns the stream from the feeders' resend — a
                    // stale frame would land as duplicates), then restart
                    // the shards with fresh state.
                    for slot in &mut shard_handles[r] {
                        if let Some(h) = slot.take() {
                            if let Ok(s) = h.join() {
                                stats.merge(&s);
                            }
                        }
                    }
                    for (s, rx) in frame_rxs[r].iter().enumerate() {
                        stale.clear();
                        rx.try_recv_batch(&mut stale, usize::MAX);
                        stale.clear();
                        shared.shard_watermark[r][s].store(0, Ordering::Release);
                    }
                    shared.alive[r].store(true, Ordering::SeqCst);
                    for (s, slot) in shard_handles[r].iter_mut().enumerate() {
                        *slot = Some(spawn_shard(r, s, false));
                    }
                }
            }
        }
        if Instant::now() >= next_sample {
            let count = shared.stabilized.load(Ordering::Relaxed);
            per_second.push(count - last_count);
            last_count = count;
            next_sample += Duration::from_secs(1);
        }
    }
    shared.stop.store(true, Ordering::SeqCst);
    for txs in &frame_txs {
        for tx in txs {
            let _ = tx.try_send(ToReplica::Stop);
        }
    }
    for t in feeder_threads.iter() {
        t.unpark();
    }
    let elapsed = start_t.elapsed();
    for h in feeder_handles {
        if let Ok(s) = h.join() {
            stats.merge(&s);
        }
    }
    for replica in shard_handles {
        for h in replica.into_iter().flatten() {
            if let Ok(s) = h.join() {
                stats.merge(&s);
            }
        }
    }
    stats.elapsed = elapsed;
    // The shared counter is authoritative (a replica killed mid-update
    // may not have flushed its local copy).
    let total = shared.stabilized.load(Ordering::Relaxed);
    stats.stabilized_ids = total;
    (
        ThroughputTimeline {
            per_second,
            total,
            elapsed,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(feeders: usize, replicas: usize) -> EunomiaBenchConfig {
        EunomiaBenchConfig {
            feeders,
            replicas,
            duration: Duration::from_millis(800),
            window_cap: 512,
            ..EunomiaBenchConfig::default()
        }
    }

    #[test]
    fn single_replica_stabilizes_operations() {
        let (t, stats) = run_eunomia_service_with_stats(&quick(4, 1));
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        assert_eq!(stats.stabilized_ids, t.total);
        assert!(stats.frames > 0);
        assert!(stats.batch_sizes.count() > 0);
        assert!(
            stats.stabilization_latency.count() >= t.total / 64,
            "stabilized ids are latency-sampled at 1-in-64: {} samples for {} ids",
            stats.stabilization_latency.count(),
            t.total
        );
        let p50 = stats.stabilization_latency_ms(50.0).unwrap();
        assert!(p50 > 0.0, "stabilization takes nonzero time: {p50}");
        assert!(stats.theta_sweep_ns.count() > 0, "theta sweeps are timed");
    }

    #[test]
    fn replicated_service_still_makes_progress() {
        let (t, stats) = run_eunomia_service_with_stats(&quick(4, 3));
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        // All three replicas ingest every frame at least once.
        assert!(stats.accepted_ids >= 3 * t.total, "replicas ingest 3x");
    }

    /// A multiplexed topology (lanes sharing feeder threads) and sharded
    /// stabilizers must preserve the service semantics: progress on every
    /// lane, zero duplicates, and grants batched with at most one unpark
    /// per enqueued batch.
    #[test]
    fn muxed_lanes_and_sharded_stabilizers_preserve_semantics() {
        let cfg = EunomiaBenchConfig {
            feeders: 16,
            lanes_per_feeder: 4,
            replicas: 2,
            stabilizers: 2,
            duration: Duration::from_millis(900),
            window_cap: 512,
            retransmit_after: Duration::from_secs(3600),
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        assert_eq!(stats.duplicate_ids, 0, "mux must not re-send ids");
        assert_eq!(stats.retransmitted_ids, 0);
        assert!(stats.grant_batches > 0, "grants must travel as batches");
        assert!(
            stats.doorbell_unparks <= stats.grant_batches,
            "at most one unpark per enqueued grant batch: {} unparks, {} batches",
            stats.doorbell_unparks,
            stats.grant_batches
        );
        assert!(
            stats.mean_grant_batch_lanes() >= 1.0,
            "batches carry at least one lane"
        );
    }

    /// The regression the credit protocol exists for: at 256 feeders the
    /// drop-on-full ack ring re-sent hundreds of millions of ids
    /// (238M at 256x3 in the pre-credit committed sweep). With flow
    /// control and the retransmission timeout effectively disabled,
    /// overload must throttle at the source: zero duplicates, while the
    /// service still makes progress.
    #[test]
    fn overloaded_256_feeders_produce_zero_duplicates() {
        let cfg = EunomiaBenchConfig {
            feeders: 256,
            lanes_per_feeder: 16,
            replicas: 1,
            duration: Duration::from_millis(900),
            window_cap: 512,
            // No safety-net retransmissions: every duplicate would be a
            // flow-control bug, so pin the count to exactly zero.
            retransmit_after: Duration::from_secs(3600),
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(t.total > 0, "overloaded service must still make progress");
        assert_eq!(
            stats.duplicate_ids, 0,
            "credit flow control must not re-send ids under overload"
        );
        assert_eq!(stats.retransmitted_ids, 0);
        assert!(
            stats.advertised_credits.count() > 0,
            "replicas must advertise credit windows"
        );
    }

    #[test]
    #[should_panic(expected = "crash/revive schedule names a replica index")]
    fn out_of_range_fault_schedule_is_rejected_up_front() {
        // A revive far past the run's end: only the up-front check can
        // fire, before any feeder or shard thread starts.
        let cfg = EunomiaBenchConfig {
            revives: vec![(Duration::from_secs(3600), 1)],
            ..quick(1, 1)
        };
        run_eunomia_service(&cfg);
    }

    #[test]
    fn crash_of_only_replica_halts_progress() {
        let mut cfg = quick(2, 1);
        cfg.duration = Duration::from_millis(2300);
        cfg.crashes = vec![(Duration::from_millis(300), 0)];
        let t = run_eunomia_service(&cfg);
        // Something was stabilized before the crash, and the second whole
        // second (entirely post-crash) shows nothing.
        assert!(t.total > 0);
        assert!(
            t.per_second.len() >= 2,
            "timeline too short: {:?}",
            t.per_second
        );
        assert_eq!(
            t.per_second[1], 0,
            "progress should stop after the crash: {:?}",
            t.per_second
        );
    }

    #[test]
    fn crash_of_leader_fails_over_with_three_replicas() {
        let mut cfg = quick(2, 3);
        cfg.duration = Duration::from_millis(2500);
        cfg.omega_timeout = Duration::from_millis(60);
        cfg.crashes = vec![(Duration::from_millis(600), 0)];
        let t = run_eunomia_service(&cfg);
        // Ops continue to stabilize after the leader dies.
        let tail: u64 = t.per_second.iter().skip(1).sum();
        assert!(tail > 0, "no progress after fail-over: {:?}", t.per_second);
    }

    /// Kill a replica mid-run, then revive it: the service must keep
    /// stabilizing through the outage (the surviving replicas hold
    /// quorumless Eunomia up fine — stabilization only needs the leader)
    /// and the revived replica must rejoin without duplicate emissions.
    #[test]
    fn killed_replica_revives_and_rejoins() {
        let cfg = EunomiaBenchConfig {
            feeders: 4,
            replicas: 3,
            duration: Duration::from_millis(3300),
            window_cap: 512,
            omega_timeout: Duration::from_millis(60),
            crashes: vec![(Duration::from_millis(500), 0)],
            revives: vec![(Duration::from_millis(1300), 0)],
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        let tail: u64 = t.per_second.iter().skip(2).sum();
        assert!(tail > 0, "no progress after revival: {:?}", t.per_second);
        // The revived replica accepted a resend of the in-flight window,
        // not a replay of history: nothing was emitted twice, so the
        // stabilized total counts every id at most once.
        assert!(
            stats.stabilized_ids <= stats.accepted_ids,
            "stabilized {} > accepted {}",
            stats.stabilized_ids,
            stats.accepted_ids
        );
    }
}
