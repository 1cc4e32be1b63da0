//! Single-thread replays that time one layer's public functions at a
//! time: the `core::shard` service path (with `vendor/crossbeam`'s ring
//! between feeder and replica), and the `workload`, `kv` and
//! `core::replica` calls of a geo workload's seeded operation stream.

use crate::trace::Tracer;
use crossbeam::channel::bounded;
use eunomia_core::ids::{DcId, PartitionId, ReplicaId};
use eunomia_core::replica::ReplicaState;
use eunomia_core::shard::{BatchFrame, GrantBatch, GrantCoalescer, MuxSender, ShardedReplicaState};
use eunomia_core::time::{ScalarHlc, Timestamp, VectorTime};
use eunomia_geo::msg::OpMeta;
use eunomia_kv::partition::ApplyOutcome;
use eunomia_kv::partition::PartitionState;
use eunomia_kv::{ring, Key};
use eunomia_workload::{Op, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Frames a replica drains per ring sweep, as in `runtime::service`.
const DRAIN_MAX: usize = 64;
/// Per-lane credit budget, `EunomiaBenchConfig`'s default.
const CREDIT_BUDGET: u32 = 65536;
/// Simulated physical time between replay rounds (one batch interval).
const ROUND_NS: u64 = 1_000_000;

pub struct ShardReplay {
    pub ids: u64,
    pub frames: u64,
    pub grants: u64,
    pub rounds: u64,
    pub elapsed: Duration,
}

/// Drives `MuxSender` -> ring -> `ShardedReplicaState` -> `GrantCoalescer`
/// -> `MuxSender::on_grant` on one thread over `lanes` lanes with frames
/// of `mean_frame` ids on average (each lane's frame drawn uniformly from
/// `[mean/2, 3*mean/2]` by the seeded RNG), for at least `budget`. Then
/// heartbeats every lane past its last id and checks that every
/// generated id was stabilized exactly once, in timestamp order.
pub fn shard(
    lanes: usize,
    mean_frame: usize,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<ShardReplay, String> {
    // The largest frame, 3/2 of the mean, must fit a lane's initial credit
    // window (`INITIAL_CREDIT`, 4096 ids), or the replay would stall.
    let mean_frame = mean_frame.clamp(2, 2048);
    let rid = ReplicaId(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mux = MuxSender::new(PartitionId(0), lanes, 1);
    let mut hlc = vec![ScalarHlc::new(); lanes];
    let (tx, rx) = bounded::<BatchFrame>((lanes * 4).max(16));
    let mut state = ShardedReplicaState::new(rid, lanes);
    let mut coalescer = GrantCoalescer::new(PartitionId(0), lanes);
    let mut generated = vec![0u64; lanes];
    let mut emitted = vec![0u64; lanes];
    let mut last_emitted = vec![Timestamp::ZERO; lanes];
    let mut order_violations = 0u64;
    let mut frames: Vec<BatchFrame> = Vec::with_capacity(lanes);
    let mut received: Vec<BatchFrame> = Vec::with_capacity(DRAIN_MAX);
    let mut ingested_lanes: Vec<usize> = Vec::with_capacity(lanes);
    let mut grants = Vec::with_capacity(lanes);
    let mut batch = GrantBatch::default();
    let mut counts = vec![0usize; lanes];
    let mut physical = 0u64;

    // One batch interval: push, frame, ship, ingest, advertise, theta
    // drain, grant return. Returns (ids, frames, grants) it covered.
    let mut round = |final_round: bool, tracer: &mut Tracer| -> Result<(u64, u64, u64), String> {
        physical += ROUND_NS;
        let round_span = tracer.open("shard.round", None);
        let mut pushed = 0u64;
        if !final_round {
            for c in counts.iter_mut() {
                *c = rng.random_range(mean_frame / 2..=mean_frame * 3 / 2);
                pushed += *c as u64;
            }
            tracer.time("shard.push", Some(round_span), pushed, || {
                for (lane, &c) in counts.iter().enumerate() {
                    for _ in 0..c {
                        let ts = hlc[lane].tick_local(Timestamp(physical));
                        mux.push(lane, ts);
                    }
                }
            });
            for (g, &c) in generated.iter_mut().zip(counts.iter()) {
                *g += c as u64;
            }
        }
        let mut built = 0u64;
        tracer.time("shard.build_frame", Some(round_span), pushed, || {
            for (lane, clock) in hlc.iter_mut().enumerate() {
                let heartbeat = final_round.then(|| clock.heartbeat(Timestamp(physical)));
                let frame = mux.build_frame(
                    lane,
                    rid,
                    mux.sent_of(lane, rid),
                    heartbeat,
                    usize::MAX,
                    Vec::new(),
                );
                built += frame.ids.len() as u64;
                frames.push(frame);
            }
        });
        if built != pushed {
            return Err(format!(
                "shard replay: built {built} ids of {pushed} pushed"
            ));
        }
        let sent = frames.len() as u64;
        for f in &frames {
            if let Some(&newest) = f.ids.last() {
                mux.note_sent(f.partition.index(), rid, newest);
            }
        }
        let full = tracer.time("ring.try_send", Some(round_span), sent, || {
            frames
                .drain(..)
                .filter_map(|f| tx.try_send(f).err())
                .count()
        });
        if full > 0 {
            return Err(format!("shard replay: {full} frames found the ring full"));
        }
        // The replica's sweep alternates ring drains and ingests; each is
        // timed piecewise and recorded as one span.
        let (mut recv_ns, mut ingest_ns, mut ingested) = (0u64, 0u64, 0u64);
        ingested_lanes.clear();
        loop {
            received.clear();
            let t = Instant::now();
            let n = rx.try_recv_batch(&mut received, DRAIN_MAX);
            recv_ns += t.elapsed().as_nanos() as u64;
            if n == 0 {
                break;
            }
            let t = Instant::now();
            for f in received.drain(..) {
                ingested += f.ids.len() as u64;
                ingested_lanes.push(f.partition.index());
                state
                    .ingest_owned(f)
                    .map_err(|e| format!("ingest rejected a frame: {e:?}"))?;
            }
            ingest_ns += t.elapsed().as_nanos() as u64;
        }
        tracer.record("ring.recv_batch", Some(round_span), recv_ns, sent);
        tracer.record("shard.ingest", Some(round_span), ingest_ns, ingested);
        grants.clear();
        tracer.time("shard.advertise", Some(round_span), sent, || {
            for &lane in &ingested_lanes {
                if let Some(g) = state.advertise(PartitionId(lane as u32), 0.0, CREDIT_BUDGET) {
                    grants.push((lane, g));
                }
            }
        });
        let theta_span = tracer.open("shard.theta", Some(round_span));
        let cutoff = state.stable_time();
        let drain_span = tracer.open("shard.drain", Some(theta_span));
        let mut drained = 0u64;
        state.leader_process_stable_up_to(cutoff, |p, ts| {
            let lane = p.index();
            if ts <= last_emitted[lane] || ts > cutoff {
                order_violations += 1;
            }
            last_emitted[lane] = ts;
            emitted[lane] += 1;
            drained += 1;
        });
        tracer.close(drain_span, drained);
        tracer.close(theta_span, 1);
        let noted = grants.len() as u64;
        let drained_batch = tracer.time("shard.coalesce", Some(round_span), noted, || {
            for &(lane, g) in &grants {
                coalescer.note(PartitionId(lane as u32), g);
            }
            coalescer.drain(std::mem::take(&mut batch))
        });
        if let Some(b) = drained_batch {
            tracer.time(
                "shard.on_grant",
                Some(round_span),
                b.grants.len() as u64,
                || {
                    for lg in &b.grants {
                        mux.on_grant(lg.lane.index(), lg.grant);
                    }
                },
            );
            batch = b;
        }
        tracer.close(round_span, pushed);
        Ok((pushed, sent, noted))
    };

    let (mut n_ids, mut n_frames, mut n_grants, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while rounds < 3 || start.elapsed() < budget {
        let (ids, frames, grants) = round(false, tracer)?;
        n_ids += ids;
        n_frames += frames;
        n_grants += grants;
        rounds += 1;
    }
    let elapsed = start.elapsed();
    round(true, tracer)?;

    let total_generated: u64 = generated.iter().sum();
    let total_emitted: u64 = emitted.iter().sum();
    if order_violations > 0 {
        return Err(format!(
            "shard replay: {order_violations} ids stabilized out of timestamp order"
        ));
    }
    if let Some(lane) = (0..lanes).find(|&l| emitted[l] != generated[l]) {
        return Err(format!(
            "shard replay: lane {lane} stabilized {} ids of {} generated",
            emitted[lane], generated[lane]
        ));
    }
    if state.pending() != 0 || total_emitted != total_generated {
        return Err(format!(
            "shard replay: {total_emitted} of {total_generated} ids stabilized, {} left pending",
            state.pending()
        ));
    }
    Ok(ShardReplay {
        ids: n_ids,
        frames: n_frames,
        grants: n_grants,
        rounds,
        elapsed,
    })
}

/// Replays `ops` operations of `workload` (seeded) through the layers a
/// geo run calls per operation: `OpGenerator::next_op`, one datacenter's
/// `PartitionState`s (keys routed by `kv::ring`), a sibling datacenter's
/// `on_remote_data`/`on_apply_request` rendezvous, and one
/// `core::replica::ReplicaState` ingesting the updates in per-partition
/// batches and draining them as they stabilize. Checks that every update
/// drains exactly once, in stable order.
pub fn ops(
    workload: &WorkloadConfig,
    n_dcs: usize,
    partitions: usize,
    n_ops: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut generator = workload.generator();
    let mut rng = StdRng::seed_from_u64(seed);
    let stream: Vec<Op> = tracer.time("workload.next_op", None, n_ops as u64, || {
        (0..n_ops).map(|_| generator.next_op(&mut rng)).collect()
    });

    let mut local: Vec<PartitionState> = (0..partitions)
        .map(|p| PartitionState::new(PartitionId(p as u32), DcId(0), n_dcs))
        .collect();
    let deps = VectorTime::new(n_dcs);
    let mut updates = Vec::new();
    let n_updates = stream.iter().filter(|op| op.is_update()).count() as u64;
    tracer.time("kv.update", None, n_updates, || {
        for (i, op) in stream.iter().enumerate() {
            if let Op::Update(k, v) = op {
                let p = ring::responsible(Key(*k), partitions).index();
                let physical = Timestamp(1 + i as u64 * 1_000);
                updates.push((p, local[p].update(Key(*k), v.clone(), &deps, physical)));
            }
        }
    });
    let n_reads = n_ops as u64 - n_updates;
    let mut read_bytes = 0usize;
    tracer.time("kv.read", None, n_reads, || {
        for op in &stream {
            if let Op::Read(k) = op {
                let p = ring::responsible(Key(*k), partitions).index();
                read_bytes += local[p].read(Key(*k)).0.len();
            }
        }
    });
    std::hint::black_box(read_bytes);

    let mut remote: Vec<PartitionState> = (0..partitions)
        .map(|p| PartitionState::new(PartitionId(p as u32), DcId(1), n_dcs))
        .collect();
    let shipped: Vec<_> = updates
        .iter()
        .map(|(p, u)| (*p, u.update.clone(), u.id))
        .collect();
    let mut applied = 0u64;
    tracer.time("kv.apply_remote", None, n_updates, || {
        // Alternate which half of the rendezvous arrives first.
        for (i, (p, update, id)) in shipped.into_iter().enumerate() {
            let part = &mut remote[p];
            let done = if i % 2 == 0 {
                part.on_remote_data(update);
                part.on_apply_request(DcId(0), id) == ApplyOutcome::Applied
            } else {
                let waiting = part.on_apply_request(DcId(0), id);
                waiting == ApplyOutcome::WaitingForData && part.on_remote_data(update) == Some(id)
            };
            applied += u64::from(done);
        }
    });
    if applied != n_updates {
        return Err(format!(
            "kv replay: {applied} of {n_updates} remote updates applied"
        ));
    }

    // Eunomia ingest: one batch per partition every `BATCH_OPS` updates,
    // then a heartbeat from every partition so the whole prefix is stable.
    const BATCH_OPS: usize = 256;
    let mut replica: ReplicaState<OpMeta> = ReplicaState::new(ReplicaId(0), partitions);
    let mut pending: Vec<Vec<(Timestamp, OpMeta)>> = vec![Vec::new(); partitions];
    let mut out = Vec::new();
    let (mut drained, mut last_key) = (0u64, None);
    let mut batches = Vec::new();
    for chunk in updates.chunks(BATCH_OPS) {
        for (p, u) in chunk {
            pending[*p].push((
                u.id.ts,
                OpMeta {
                    id: u.id,
                    vts: u.update.vts.clone(),
                },
            ));
        }
        let hb = chunk.last().map_or(Timestamp::ZERO, |(_, u)| u.id.ts);
        batches.push((
            pending.iter_mut().map(std::mem::take).collect::<Vec<_>>(),
            hb,
        ));
    }
    for (batch, hb) in batches {
        let n: u64 = batch.iter().map(|b| b.len() as u64).sum();
        tracer.time("replica.new_batch", None, n, || {
            for (p, ops) in batch.into_iter().enumerate() {
                if !ops.is_empty() {
                    replica
                        .new_batch(PartitionId(p as u32), ops)
                        .map_err(|e| format!("new_batch rejected: {e:?}"))?;
                }
            }
            for p in 0..partitions {
                replica
                    .heartbeat(PartitionId(p as u32), hb)
                    .map_err(|e| format!("heartbeat rejected: {e:?}"))?;
            }
            Ok::<(), String>(())
        })?;
        out.clear();
        let span = tracer.open("replica.stable_drain", None);
        replica.leader_process_stable(&mut out);
        tracer.close(span, out.len() as u64);
        for (key, meta) in &out {
            if last_key.is_some_and(|k| k >= *key) || meta.id.ts != key.ts {
                return Err("replica replay: updates drained out of stable order".into());
            }
            last_key = Some(*key);
        }
        drained += out.len() as u64;
    }
    if drained != n_updates || replica.pending() != 0 {
        return Err(format!(
            "replica replay: {drained} of {n_updates} updates drained, {} pending",
            replica.pending()
        ));
    }
    Ok(())
}
