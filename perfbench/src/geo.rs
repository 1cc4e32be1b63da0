//! The simulated-deployment workload (`geo-3dc`): EunomiaKV on the
//! discrete-event simulator at the scenario's native length, timed from
//! outside `sim::Simulation::run_until`.

use crate::json::Json;
use crate::sys::{self, Usage};
use crate::trace::Tracer;
use crate::{median, replay, Outcome};
use eunomia_geo::cluster::{build, Cluster};
use eunomia_geo::harness::make_report;
use eunomia_geo::{EngineStats, RunReport, Scenario, SystemId};
use eunomia_sim::units;
use std::time::{Duration, Instant};

/// What one simulated run produced that the benchmark reports. The
/// cluster and its metrics sink are dropped when the run ends, so a
/// benchmark run's peak RSS is that of one simulation.
pub struct GeoRun {
    /// Wall time of `cluster::build`.
    pub setup: Duration,
    /// Wall time inside `run_until`.
    pub run: Duration,
    /// Process CPU time inside `run_until`.
    pub cpu: Duration,
    pub engine: EngineStats,
    /// `RunReport`'s simulated throughput, completed ops and op latency.
    pub throughput: f64,
    pub total_ops: u64,
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    /// Remote visibility extra delay (ns), pooled over every ordered DC
    /// pair in the measurement window.
    pub vis_n: usize,
    pub vis_p50_ns: u64,
    pub vis_p99_ns: u64,
    /// Visibility samples over the whole run, every DC pair.
    pub vis_samples_all: usize,
    /// Wall time of `make_report` plus the pooled visibility query.
    pub report_time: Duration,
}

impl GeoRun {
    /// The simulated results and engine event counts, which the same
    /// seed must reproduce exactly.
    pub fn fingerprint(&self) -> String {
        let e = &self.engine;
        format!(
            "ops={} tput={:?} p50={:?} p99={:?} vis_n={} vis_p50={} vis_p99={} events={} msgs={} timers={} direct={}",
            self.total_ops,
            self.throughput,
            self.op_p50_ms,
            self.op_p99_ms,
            self.vis_n,
            self.vis_p50_ns,
            self.vis_p99_ns,
            e.events,
            e.messages_routed,
            e.timers_set,
            e.direct_deliveries,
        )
    }
}

/// Per-simulated-second observations of a sliced run.
#[derive(Default)]
pub struct Slices {
    pub host_ns: Vec<u64>,
    pub events: Vec<u64>,
    pub rss_mb: Vec<f64>,
}

pub fn scenario(seed: u64) -> Scenario {
    Scenario::paper_three_dc().seed(seed)
}

fn pooled_visibility(cluster: &Cluster, report: &RunReport) -> Vec<u64> {
    let n = cluster.cfg.n_dcs as u16;
    let (from, to) = report.window;
    let mut all = Vec::new();
    for origin in 0..n {
        for dest in (0..n).filter(|&d| d != origin) {
            all.extend(report.metrics.visibility_extras(origin, dest, from, to));
        }
    }
    all.sort_unstable();
    all
}

/// Builds and runs one EunomiaKV deployment. With a tracer, `run_until`
/// advances one simulated second at a time and each slice is a span.
pub fn run_once(scenario: &Scenario, tracer: Option<(&mut Tracer, &mut Slices)>) -> GeoRun {
    let t0 = Instant::now();
    let mut cluster = build(SystemId::EunomiaKv, scenario.cfg().clone());
    let setup = t0.elapsed();
    let duration = cluster.cfg.duration;
    let u0 = Usage::now();
    let t1 = Instant::now();
    match tracer {
        None => cluster.sim.run_until(duration),
        Some((tracer, slices)) => {
            let run_span = tracer.open("sim.run_until", None);
            let mut deadline = 0;
            while deadline < duration {
                deadline = (deadline + units::secs(1)).min(duration);
                let before = cluster.sim.events_processed();
                let span = tracer.open("sim.run_until.slice", Some(run_span));
                cluster.sim.run_until(deadline);
                let events = cluster.sim.events_processed() - before;
                tracer.close(span, events);
                slices.host_ns.push(tracer.duration_ns(span));
                slices.events.push(events);
                slices.rss_mb.push(sys::rss_mb());
            }
            tracer.close(run_span, cluster.sim.events_processed());
        }
    }
    let run = t1.elapsed();
    let cpu = Usage::now().cpu() - u0.cpu();
    let engine = cluster.sim.stats();
    let t2 = Instant::now();
    let report = make_report(
        SystemId::EunomiaKv.label(),
        &cluster.metrics,
        &cluster.cfg,
        engine,
    );
    let visibility = pooled_visibility(&cluster, &report);
    let report_time = t2.elapsed();
    assert!(
        !visibility.is_empty(),
        "a EunomiaKV run makes remote updates visible"
    );
    GeoRun {
        setup,
        run,
        cpu,
        engine,
        throughput: report.throughput,
        total_ops: report.total_ops,
        op_p50_ms: report.p50_latency_ms,
        op_p99_ms: report.p99_latency_ms,
        vis_n: visibility.len(),
        vis_p50_ns: eunomia_stats::rank_of_sorted(&visibility, 50.0),
        vis_p99_ns: eunomia_stats::rank_of_sorted(&visibility, 99.0),
        vis_samples_all: report
            .metrics
            .with(|m| m.visibility.values().map(Vec::len).sum()),
        report_time,
    }
}

/// Cluster builds timed for `setup_s` before each simulation (built and
/// dropped, not run; about 20 us each), so the median samples the host
/// across the whole run rather than one millisecond of it. The first
/// build of a process pays page faults later ones do not.
const SETUP_BUILDS: usize = 5;

/// Operations replayed through `workload`, `kv` and `core::replica` in
/// a traced run.
const REPLAY_OPS: usize = 1_000_000;

/// Seeds simulated per end-to-end run, one per 3 seconds of `--seconds`
/// (a run takes about 2 host seconds), derived from the arguments alone
/// so the simulated results never depend on host speed.
fn seeds(seed: u64, seconds: u64) -> Vec<u64> {
    (0..(seconds / 3).max(1))
        .map(|i| seed ^ (i << 32))
        .collect()
}

/// Runs `f`, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

fn run_detail(seed: u64, run: &GeoRun) -> Json {
    let mut d = Json::obj();
    d.set("seed", seed);
    d.set("setup_s", run.setup.as_secs_f64());
    d.set("run_s", run.run.as_secs_f64());
    d.set("cpu_s", run.cpu.as_secs_f64());
    d.set("sim_ops_per_s", run.throughput);
    d.set("sim_op_p50_ms", run.op_p50_ms);
    d.set("sim_op_p99_ms", run.op_p99_ms);
    d.set("vis_p50_ms", units::to_ms(run.vis_p50_ns));
    d.set("vis_p99_ms", units::to_ms(run.vis_p99_ns));
    d.set("vis_samples", run.vis_n);
    d.set("total_ops", run.total_ops);
    d.set("events", run.engine.events);
    d.set("fingerprint", run.fingerprint());
    d
}

/// `--trace 0`: one run per derived seed, then the first seed again,
/// which must reproduce its simulated results and event counts exactly.
/// Each metric is the median over the seeds.
pub fn end_to_end(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let seeds = seeds(seed, seconds);
    let mut setups: Vec<f64> = Vec::new();
    let mut time_builds = |s: u64| {
        for _ in 0..SETUP_BUILDS {
            let cfg = scenario(s).cfg().clone();
            let t = Instant::now();
            let cluster = build(SystemId::EunomiaKv, cfg);
            setups.push(t.elapsed().as_secs_f64());
            drop(cluster);
        }
    };
    let mut runs: Vec<(u64, GeoRun)> = Vec::new();
    for &s in &seeds {
        time_builds(s);
        out.attempted += 1;
        match guarded(|| run_once(&scenario(s), None)) {
            Ok(run) => runs.push((s, run)),
            Err(e) => out.fail(1, format!("seed {s}: run panicked: {e}")),
        }
    }
    time_builds(seeds[0]);
    out.attempted += 1;
    match guarded(|| run_once(&scenario(seeds[0]), None)) {
        Ok(repeat) => {
            let first = runs.first().filter(|(s, _)| *s == seeds[0]);
            if let Some((_, first)) = first.filter(|(_, r)| r.fingerprint() != repeat.fingerprint())
            {
                out.fail(
                    1,
                    format!(
                        "seed {} is not deterministic: {} then {}",
                        seeds[0],
                        first.fingerprint(),
                        repeat.fingerprint()
                    ),
                );
            }
            out.detail.set("repeat", run_detail(seeds[0], &repeat));
        }
        Err(e) => out.fail(1, format!("seed {} again: run panicked: {e}", seeds[0])),
    }
    if !runs.is_empty() {
        let each = |f: &dyn Fn(&GeoRun) -> f64| {
            median(&runs.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        out.metric("ops_per_s", each(&|r| r.throughput));
        out.metric("stab_p50_ms", each(&|r| units::to_ms(r.vis_p50_ns)));
        out.metric("stab_p99_ms", each(&|r| units::to_ms(r.vis_p99_ns)));
        out.metric(
            "cpu_ns_per_op",
            each(&|r| r.cpu.as_nanos() as f64 / r.total_ops.max(1) as f64),
        );
        out.detail
            .set("run_s_median", each(&|r| r.run.as_secs_f64()));
    }
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", Usage::now().max_rss_kb as f64 / 1024.0);
    out.detail.set("setup_builds_s", setups);
    out.detail.set(
        "runs",
        runs.iter()
            .map(|(s, r)| run_detail(*s, r))
            .collect::<Vec<_>>(),
    );
    out
}

/// `--trace 1`: an untraced run and a run sliced per simulated second
/// (same seed; both must agree exactly), then the `workload`, `kv` and
/// `core::replica` replays of the scenario's operation stream.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let sc = scenario(seed);
    out.attempted += 2;
    let plain = match guarded(|| run_once(&sc, None)) {
        Ok(r) => r,
        Err(e) => {
            out.fail(2, format!("untraced run panicked: {e}"));
            return out;
        }
    };
    let mut slices = Slices::default();
    let sliced = match guarded(|| run_once(&sc, Some((&mut tracer, &mut slices)))) {
        Ok(r) => r,
        Err(e) => {
            out.fail(1, format!("traced run panicked: {e}"));
            return out;
        }
    };
    if plain.fingerprint() != sliced.fingerprint() {
        out.fail(
            1,
            format!(
                "slicing run_until changed the run: {} vs {}",
                plain.fingerprint(),
                sliced.fingerprint()
            ),
        );
    }
    let e = &sliced.engine;
    let host_ms: Vec<f64> = slices.host_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.metric("sim.events", e.events as f64);
    out.metric("sim.messages_routed", e.messages_routed as f64);
    out.metric("sim.timers_set", e.timers_set as f64);
    out.metric(
        "sim.direct_share",
        e.direct_deliveries as f64 / e.events.max(1) as f64,
    );
    out.metric(
        "sim.ns_per_event",
        sliced.run.as_nanos() as f64 / e.events.max(1) as f64,
    );
    out.metric("sim.heap_peak", e.heap_peak as f64);
    out.metric("sim.bucket_peak", e.bucket_peak as f64);
    out.metric("sim.overflow_migrations", e.overflow_migrations as f64);
    out.metric("sim.arena_high_water", e.arena_high_water as f64);
    out.metric("sim.host_ms_per_sim_s.p50", median(&host_ms));
    out.metric(
        "sim.host_ms_per_sim_s.max",
        host_ms.iter().copied().fold(0.0, f64::max),
    );
    out.metric("geo.report_ms", sliced.report_time.as_secs_f64() * 1e3);
    out.metric("geo.vis_samples", sliced.vis_samples_all as f64);
    let rss = &slices.rss_mb;
    if rss.len() > 1 {
        out.metric(
            "geo.rss_mb_per_sim_s",
            (rss[rss.len() - 1] - rss[0]) / (rss.len() - 1) as f64,
        );
    }
    out.metric(
        "trace.overhead_frac",
        (sliced.run.as_secs_f64() - plain.run.as_secs_f64()) / plain.run.as_secs_f64(),
    );
    let mut d = Json::obj();
    d.set("untraced", run_detail(seed, &plain));
    d.set("traced", run_detail(seed, &sliced));
    d.set("host_ms_per_sim_s", host_ms);
    d.set("events_per_sim_s", slices.events.clone());
    d.set("rss_mb_per_sim_s", slices.rss_mb.clone());
    out.detail.set("runs", d);

    let cfg = sc.cfg();
    out.attempted += 1;
    match replay::ops(
        &cfg.workload,
        cfg.n_dcs,
        cfg.partitions_per_dc,
        REPLAY_OPS,
        seed,
        &mut tracer,
    ) {
        Ok(()) => {
            out.metric("kv.read_ns", tracer.ns_per_unit("kv.read"));
            out.metric("kv.update_ns", tracer.ns_per_unit("kv.update"));
            out.metric("kv.apply_remote_ns", tracer.ns_per_unit("kv.apply_remote"));
            out.metric(
                "replica.new_batch_ns_per_op",
                tracer.ns_per_unit("replica.new_batch"),
            );
            out.metric(
                "replica.stable_drain_ns_per_op",
                tracer.ns_per_unit("replica.stable_drain"),
            );
            out.metric(
                "workload.next_op_ns",
                tracer.ns_per_unit("workload.next_op"),
            );
        }
        Err(e) => out.fail(1, e),
    }
    out.tracer = Some(tracer);
    out
}
