//! The threaded-service workloads (`svc-fanin`, `svc-paced`): runs
//! `runtime::service` in-process and reads its `ServiceStats`.

use crate::json::Json;
use crate::sys::Usage;
use crate::trace::Tracer;
use crate::{median, replay, Outcome};
use eunomia_runtime::service::{run_eunomia_service_with_stats, EunomiaBenchConfig};
use eunomia_stats::ServiceStats;
use std::time::{Duration, Instant};

/// One service geometry: logical lanes, all on one feeder thread, and an
/// optional per-lane offered rate (`None` = closed loop).
#[derive(Clone, Copy, Debug)]
pub struct SvcSpec {
    pub lanes: usize,
    pub rate_per_lane: Option<u64>,
}

impl SvcSpec {
    pub fn config(&self, duration: Duration) -> EunomiaBenchConfig {
        EunomiaBenchConfig {
            feeders: self.lanes,
            lanes_per_feeder: self.lanes,
            replicas: 1,
            stabilizers: 1,
            duration,
            feeder_rate: self.rate_per_lane,
            ..EunomiaBenchConfig::default()
        }
    }
}

/// One threaded run and what the process spent on it.
pub struct SvcRun {
    pub stats: ServiceStats,
    pub per_second: Vec<u64>,
    /// Wall time of the whole call: spawn, start barrier, measured
    /// window, stop and join.
    pub wall: Duration,
    pub cpu: Duration,
    pub switches: u64,
}

impl SvcRun {
    /// Wall time of the call beyond its configured duration.
    pub fn setup(&self, configured: Duration) -> Duration {
        self.wall.saturating_sub(configured)
    }
}

pub fn run_once(spec: &SvcSpec, duration: Duration) -> SvcRun {
    let cfg = spec.config(duration);
    let u0 = Usage::now();
    let t0 = Instant::now();
    let (timeline, stats) = run_eunomia_service_with_stats(&cfg);
    let wall = t0.elapsed();
    let u1 = Usage::now();
    SvcRun {
        stats,
        per_second: timeline.per_second,
        wall,
        cpu: u1.cpu() - u0.cpu(),
        switches: u1.switches() - u0.switches(),
    }
}

/// `svc-fanin`: closed-loop capacity probe, 1024 lanes on one feeder
/// thread.
pub const FANIN: SvcSpec = SvcSpec {
    lanes: 1024,
    rate_per_lane: None,
};

/// `svc-paced`: open loop, 64 lanes x 300k ids/s on one feeder thread.
pub const PACED: SvcSpec = SvcSpec {
    lanes: 64,
    rate_per_lane: Some(300_000),
};

/// An unmeasured run first: the first run of a process pays page
/// faults and cold caches that later runs do not.
const WARMUP: Duration = Duration::from_secs(1);

/// Length of each measured run. Short runs give many samples of the
/// host's state per benchmark run; each still holds 64k-1.5M latency
/// samples.
const WINDOW: Duration = Duration::from_secs(1);

/// The latency limit: an id not stabilized within this long of when it
/// was due (open loop) or accepted (closed loop) counts as failed. At a
/// run's stop, the ids of the last `LATENCY_LIMIT` — or of the run's p99
/// stabilization latency, if longer — are in flight, not failed.
const LATENCY_LIMIT: Duration = Duration::from_millis(100);

/// Doorbell unparks per second above which a run is in the wake-storm
/// pacing regime. Runs of one configuration split between about 350/s
/// and 4500/s; the threshold sits between the two.
const STORM_UNPARKS_PER_S: f64 = 1500.0;

/// Correctness checks and failure accounting for one threaded run:
/// adds the ids it attempted to `out` and charges the ones that were
/// delivered wrongly or missed the latency limit.
fn account(spec: &SvcSpec, run: &SvcRun, out: &mut Outcome) {
    let s = &run.stats;
    let secs = s.elapsed.as_secs_f64();
    if s.duplicate_ids > 0 {
        out.fail(
            s.duplicate_ids,
            format!("{} duplicate ids reached a replica", s.duplicate_ids),
        );
    }
    if s.stabilized_ids > s.accepted_ids {
        out.fail(
            s.stabilized_ids - s.accepted_ids,
            format!(
                "{} ids stabilized but only {} accepted",
                s.stabilized_ids, s.accepted_ids
            ),
        );
    }
    // Open loop: the schedule, not the generator, says what was due.
    let (attempted, per_s) = match spec.rate_per_lane {
        Some(rate) => {
            let offered_per_s = (rate * spec.lanes as u64) as f64;
            ((offered_per_s * secs) as u64, offered_per_s)
        }
        None => (s.accepted_ids, s.stabilized_ids as f64 / secs.max(1e-9)),
    };
    out.attempted += attempted;
    let p99_s = s.stabilization_latency_ms(99.0).unwrap_or(0.0) / 1e3;
    let in_flight = per_s * LATENCY_LIMIT.as_secs_f64().max(p99_s);
    let missed = attempted as f64 - in_flight - s.stabilized_ids as f64;
    if missed > 0.0 {
        out.miss(
            missed as u64,
            format!(
                "{} of {attempted} attempted ids not stabilized by the stop \
                 ({in_flight:.0} allowed in flight)",
                missed as u64
            ),
        );
    }
}

fn regime(run: &SvcRun) -> &'static str {
    let per_s = run.stats.doorbell_unparks as f64 / run.stats.elapsed.as_secs_f64().max(1e-9);
    if per_s > STORM_UNPARKS_PER_S {
        "storm"
    } else {
        "quiet"
    }
}

fn run_detail(spec: &SvcSpec, run: &SvcRun, configured: Duration) -> Json {
    let s = &run.stats;
    let lat = s.stabilization_latencies_ms(&[50.0, 99.0]);
    let mut d = Json::obj();
    d.set("elapsed_s", s.elapsed.as_secs_f64());
    d.set("setup_s", run.setup(configured).as_secs_f64());
    d.set("ids_per_s", s.ids_per_sec());
    d.set("stab_p50_ms", lat[0].unwrap_or(f64::NAN));
    d.set("stab_p99_ms", lat[1].unwrap_or(f64::NAN));
    d.set("stab_samples", s.stabilization_latency.count());
    d.set(
        "cpu_ns_per_id",
        run.cpu.as_nanos() as f64 / s.stabilized_ids.max(1) as f64,
    );
    d.set("regime", regime(run));
    d.set("doorbell_unparks", s.doorbell_unparks);
    d.set("grant_batches", s.grant_batches);
    d.set("frames", s.frames);
    d.set("accepted_ids", s.accepted_ids);
    d.set("stabilized_ids", s.stabilized_ids);
    d.set("duplicate_ids", s.duplicate_ids);
    if let Some(rate) = spec.rate_per_lane {
        d.set(
            "offered_by_schedule",
            ((rate * spec.lanes as u64) as f64 * s.elapsed.as_secs_f64()) as u64,
        );
        d.set("offered_per_s", rate * spec.lanes as u64);
        d.set(
            "accepted_per_s",
            s.accepted_ids as f64 / s.elapsed.as_secs_f64(),
        );
    }
    d.set("stabilized_per_second", run.per_second.clone());
    d
}

/// `--trace 0`: a discarded warm-up run, then back-to-back threaded runs
/// of `WINDOW` filling the rest of `seconds`. Each metric is the median
/// over the runs, except open-loop latency: on a shared virtual machine
/// (2 vCPUs, x86-64) neighbouring tenants slow the host for tens of
/// seconds at a time, which moves throughput, CPU per id and closed-loop
/// latency (queueing at capacity) by 10-20%, but lifts open-loop latency
/// percentiles by up to 2x in most runs of a disturbed stretch while the
/// best runs stay at the undisturbed figure. Open-loop latency is
/// therefore the mean of the best decile of the runs (the 3 lowest of
/// 29): the latency the service delivers when the host lets it.
pub fn end_to_end(spec: &SvcSpec, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    run_once(spec, WARMUP);
    let n = (seconds.saturating_sub(WARMUP).as_millis() / WINDOW.as_millis()).max(1);
    let runs: Vec<SvcRun> = (0..n).map(|_| run_once(spec, WINDOW)).collect();
    for run in &runs {
        account(spec, run, &mut out);
    }
    let values = |f: &dyn Fn(&SvcRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    let each = |f: &dyn Fn(&SvcRun) -> f64| median(&values(f));
    let latency = |p: f64| {
        let mut v = values(&|r| r.stats.stabilization_latency_ms(p).unwrap_or(f64::NAN));
        if spec.rate_per_lane.is_none() {
            return median(&v);
        }
        v.sort_by(f64::total_cmp);
        let best = &v[..v.len().div_ceil(10)];
        best.iter().sum::<f64>() / best.len() as f64
    };
    out.metric("ops_per_s", each(&|r| r.stats.ids_per_sec()));
    out.metric("stab_p50_ms", latency(50.0));
    out.metric("stab_p99_ms", latency(99.0));
    out.metric(
        "cpu_ns_per_op",
        each(&|r| r.cpu.as_nanos() as f64 / r.stats.stabilized_ids.max(1) as f64),
    );
    out.metric("setup_s", each(&|r| r.setup(WINDOW).as_secs_f64()));
    out.metric("peak_rss_mb", Usage::now().max_rss_kb as f64 / 1024.0);
    let details: Vec<Json> = runs.iter().map(|r| run_detail(spec, r, WINDOW)).collect();
    out.detail.set("runs", details);
    out
}

/// `--trace 1`: one threaded run for the `ServiceStats` counters, then
/// the single-thread `core::shard` replay at this lane count and the
/// mean frame size the threaded run measured.
pub fn traced(spec: &SvcSpec, seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let threaded = (seconds / 2).max(Duration::from_secs(1));
    let run = run_once(spec, threaded);
    account(spec, &run, &mut out);
    let s = &run.stats;
    let secs = s.elapsed.as_secs_f64();
    out.metric("service.ids_per_frame", s.mean_batch_size());
    out.metric("service.queue_depth_hw", s.queue_depth_high_water as f64);
    out.metric("service.ring_full_stalls", s.ring_full_stalls as f64);
    out.metric(
        "service.theta_sweep_p50_us",
        s.theta_sweep_us(50.0).unwrap_or(0.0),
    );
    out.metric(
        "service.theta_sweep_p99_us",
        s.theta_sweep_us(99.0).unwrap_or(0.0),
    );
    out.metric("service.doorbell_unparks", s.doorbell_unparks as f64);
    out.metric("service.grant_batches", s.grant_batches as f64);
    out.metric("service.lanes_per_grant_batch", s.mean_grant_batch_lanes());
    out.metric("service.frames", s.frames as f64);
    out.metric("service.ctx_switches_per_s", run.switches as f64 / secs);
    out.metric("service.credit_stalls", s.credit_stalls as f64);
    out.metric("service.retransmitted_ids", s.retransmitted_ids as f64);
    out.metric("service.duplicate_ids", s.duplicate_ids as f64);
    out.detail.set("threaded", run_detail(spec, &run, threaded));

    let mut tracer = Tracer::new();
    let frame = s.mean_batch_size().round() as usize;
    let budget = (seconds / 3).max(Duration::from_secs(1));
    match replay::shard(spec.lanes, frame, seed, budget, &mut tracer) {
        Ok(r) => {
            out.attempted += r.ids;
            out.metric("shard.push_ns_per_id", tracer.ns_per_unit("shard.push"));
            out.metric(
                "shard.build_frame_ns_per_id",
                tracer.ns_per_unit("shard.build_frame"),
            );
            out.metric("shard.ingest_ns_per_id", tracer.ns_per_unit("shard.ingest"));
            out.metric(
                "shard.advertise_ns_per_frame",
                tracer.ns_per_unit("shard.advertise"),
            );
            out.metric("shard.drain_ns_per_id", tracer.ns_per_unit("shard.drain"));
            out.metric("shard.theta_us", tracer.ns_per_unit("shard.theta") / 1e3);
            out.metric(
                "shard.coalesce_ns_per_grant",
                tracer.ns_per_unit("shard.coalesce"),
            );
            out.metric(
                "shard.on_grant_ns_per_grant",
                tracer.ns_per_unit("shard.on_grant"),
            );
            out.metric(
                "ring.try_send_ns_per_frame",
                tracer.ns_per_unit("ring.try_send"),
            );
            out.metric(
                "ring.recv_batch_ns_per_frame",
                tracer.ns_per_unit("ring.recv_batch"),
            );
            out.metric(
                "shard.replay_ids_per_s",
                r.ids as f64 / r.elapsed.as_secs_f64(),
            );
            let mut d = Json::obj();
            d.set("lanes", spec.lanes);
            d.set("mean_frame_ids", frame);
            d.set("ids", r.ids);
            d.set("frames", r.frames);
            d.set("grants", r.grants);
            d.set("rounds", r.rounds);
            d.set("elapsed_s", r.elapsed.as_secs_f64());
            out.detail.set("replay", d);
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(1, e);
        }
    }
    // The threaded run carries no spans, so tracing costs it nothing.
    out.metric("trace.overhead_frac", 0.0);
    out.tracer = Some(tracer);
    out
}
