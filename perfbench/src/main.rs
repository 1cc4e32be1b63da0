//! The repository benchmark's measuring program.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]`
//!
//! Runs one workload and prints one JSON record on the last line of
//! standard output: whether the correctness checks held, how many units
//! were attempted and failed, the metrics by name and unit, and per-run
//! detail. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the traced variant and reports the per-layer metrics, writing its
//! spans to `--out` when given. `perfbench/run.py` builds this program,
//! adds provenance and prints the summary line; see `perfbench/README.md`
//! for what each workload and metric means.

mod geo;
mod json;
mod replay;
mod svc;
mod sys;
mod trace;

use json::Json;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <svc-fanin|svc-paced|geo-3dc> --seed <n> --seconds <s> --trace <0|1> [--out <file>]";

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("stab_p50_ms", "ms"),
    ("stab_p99_ms", "ms"),
    ("cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// workload that does not exercise a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 45] = [
    ("service.ids_per_frame", "count"),
    ("service.queue_depth_hw", "count"),
    ("service.ring_full_stalls", "count"),
    ("service.theta_sweep_p50_us", "us"),
    ("service.theta_sweep_p99_us", "us"),
    ("service.doorbell_unparks", "count"),
    ("service.grant_batches", "count"),
    ("service.lanes_per_grant_batch", "count"),
    ("service.frames", "count"),
    ("service.ctx_switches_per_s", "1/s"),
    ("service.credit_stalls", "count"),
    ("service.retransmitted_ids", "count"),
    ("service.duplicate_ids", "count"),
    ("shard.push_ns_per_id", "ns"),
    ("shard.build_frame_ns_per_id", "ns"),
    ("shard.ingest_ns_per_id", "ns"),
    ("shard.advertise_ns_per_frame", "ns"),
    ("shard.drain_ns_per_id", "ns"),
    ("shard.theta_us", "us"),
    ("shard.coalesce_ns_per_grant", "ns"),
    ("shard.on_grant_ns_per_grant", "ns"),
    ("shard.replay_ids_per_s", "1/s"),
    ("ring.try_send_ns_per_frame", "ns"),
    ("ring.recv_batch_ns_per_frame", "ns"),
    ("sim.events", "count"),
    ("sim.messages_routed", "count"),
    ("sim.timers_set", "count"),
    ("sim.direct_share", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("sim.heap_peak", "count"),
    ("sim.bucket_peak", "count"),
    ("sim.overflow_migrations", "count"),
    ("sim.arena_high_water", "count"),
    ("sim.host_ms_per_sim_s.p50", "ms"),
    ("sim.host_ms_per_sim_s.max", "ms"),
    ("geo.report_ms", "ms"),
    ("geo.vis_samples", "count"),
    ("geo.rss_mb_per_sim_s", "MB"),
    ("kv.read_ns", "ns"),
    ("kv.update_ns", "ns"),
    ("kv.apply_remote_ns", "ns"),
    ("replica.new_batch_ns_per_op", "ns"),
    ("replica.stable_drain_ns_per_op", "ns"),
    ("workload.next_op_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "svc-fanin" | "svc-paced" | "geo-3dc") {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub misses: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
    pub tracer: Option<Tracer>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            misses: Vec::new(),
            metrics: Vec::new(),
            detail: Json::obj(),
            tracer: None,
        }
    }
}

impl Outcome {
    /// A correctness check failed: charges `units` failed units and marks
    /// the run incorrect.
    pub fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        self.failures.push(why);
    }

    /// `units` ids missed the latency limit: they count as failed, but
    /// the outputs are still correct.
    pub fn miss(&mut self, units: u64, why: String) {
        self.failed += units;
        self.misses.push(why);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metrics object for `names`, in that order. A name the run did not
/// measure reads 0 (a layer the workload does not exercise); a measured
/// name outside `names` is a bug in this program.
fn metrics_json(outcome: &Outcome, names: &[(&str, &str)]) -> Json {
    for (name, _) in &outcome.metrics {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this mode"
        );
    }
    let mut obj = Json::obj();
    for &(name, unit) in names {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        let mut m = Json::obj();
        m.set("value", value);
        m.set("unit", unit);
        obj.set(name, m);
    }
    obj
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("svc-fanin", false) => svc::end_to_end(&svc::FANIN, seconds),
        ("svc-paced", false) => svc::end_to_end(&svc::PACED, seconds),
        ("svc-fanin", true) => svc::traced(&svc::FANIN, args.seed, seconds),
        ("svc-paced", true) => svc::traced(&svc::PACED, args.seed, seconds),
        ("geo-3dc", false) => geo::end_to_end(args.seed, args.seconds),
        ("geo-3dc", true) => geo::traced(args.seed),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut record = Json::obj();
    record.set("workload", args.workload.as_str());
    record.set("seed", args.seed);
    record.set("seconds", args.seconds);
    record.set("trace", args.trace);
    record.set("correct", outcome.failures.is_empty());
    record.set("attempted", outcome.attempted.max(1));
    record.set("failed", outcome.failed);
    record.set("failures", outcome.failures.clone());
    record.set("misses", outcome.misses.clone());
    record.set("metrics", metrics_json(&outcome, names));
    if let (Some(path), Some(tracer)) = (&args.out, &outcome.tracer) {
        let mut spans = Json::obj();
        spans.set("workload", args.workload.as_str());
        spans.set("seed", args.seed);
        spans.set("spans", tracer.to_json());
        if let Err(e) = std::fs::write(path, format!("{spans}\n")) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    record.set("detail", outcome.detail);
    println!("{record}");
}
