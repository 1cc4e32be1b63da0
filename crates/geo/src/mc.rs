//! Model checking over full geo deployments.
//!
//! Bridges the engine-level [`ModelChecker`] to the six systems of the
//! paper's evaluation: an [`McScenario`] is a tiny, MC-tuned
//! [`ClusterConfig`] (2 datacenters, one client per DC, a handful of
//! operations, zero latencies and service costs, perfect clocks) plus a
//! choice of correctness predicates, and [`mc_run`] exhaustively explores
//! every delivery schedule of that deployment, checking the predicates at
//! every explored state and after quiescence:
//!
//! * **causal delivery** — at every datacenter, remote updates from each
//!   origin apply in non-decreasing origin-timestamp order, and an
//!   update's dependencies (its vector entries for third datacenters) are
//!   applied before it is (the check of `tests/causality.rs`, evaluated
//!   over *all* schedules instead of one);
//! * **session guarantees** — per client and key, reads observe
//!   non-decreasing LWW ranks (monotonic reads) and never a rank below
//!   the client's own last write (read-your-writes), over the session log
//!   introduced for the threaded service work;
//! * **convergence** — at quiescence, every update committed at its
//!   origin has been applied at every datacenter.
//!
//! Why the configs look the way they do: zero network latency and zero
//! service cost make *the model checker's schedule the only source of
//! ordering*, so the explored tree covers exactly the message races;
//! perfect clocks keep physical-timestamp mechanisms deterministic per
//! schedule; and per-client operation budgets make the runs finite.
//! Timer-driven machinery (batching, stabilization, receiver flushes) is
//! explored up to the configured [`McOptions::max_timer_steps`] and then
//! allowed to finish during the quiescence closure.
//!
//! A violation comes back as a replayable [`McTrace`]; [`mc_replay`]
//! re-executes it step by step on a fresh cluster and reproduces the
//! verdict deterministically.
//!
//! The four baseline systems register their own MC runners through
//! [`register_mc_runner`] (done by `eunomia_baselines::install()`),
//! mirroring the [`crate::run`] registry.

use crate::cluster::{self, Cluster};
use crate::config::{ClusterConfig, CostModel};
use crate::metrics::{ApplyRecord, GeoMetrics, SessionRecord};
use crate::system::SystemId;
use eunomia_sim::{units, McOptions, McStats, McTrace, McVerdict, ModelChecker};
use eunomia_workload::WorkloadConfig;
use std::collections::{HashMap, HashSet};
use std::sync::{LazyLock, Mutex};

/// A zeroed cost model: every handler is free, so simulated time moves
/// only when the schedule fires a timer. This is what makes the explored
/// interleavings exactly the message races.
fn zero_costs() -> CostModel {
    CostModel {
        read_ns: 0,
        update_ns: 0,
        vector_entry_ns: 0,
        meta_op_ns: 0,
        stable_per_op_ns: 0,
        batch_overhead_ns: 0,
        apply_ns: 0,
        stage_ns: 0,
        receiver_op_ns: 0,
        hb_ns: 0,
        scalar_meta_ns: 0,
        stab_vector_entry_ns: 0,
        stab_report_ns: 0,
        stab_broadcast_ns: 0,
        seq_req_ns: 0,
    }
}

/// The shared 2-DC model-checking deployment: `partitions` partitions and
/// one client per datacenter, `ops` operations per client, zero latency
/// and jitter, zero service costs, perfect clocks, full logging.
fn mc_config(partitions: usize, ops: u64, seed: u64) -> ClusterConfig {
    ClusterConfig {
        n_dcs: 2,
        partitions_per_dc: partitions,
        clients_per_dc: 1,
        rtt_matrix: Some(vec![vec![0, 0], vec![0, 0]]),
        intra_oneway: 0,
        jitter: 0,
        duration: units::secs(1),
        warmup: 0,
        cooldown: 0,
        replicas: 1,
        clock_skew: 0,
        drift_ppm: 0.0,
        costs: zero_costs(),
        workload: WorkloadConfig {
            keys: 2,
            read_pct: 50,
            value_size: 1,
            power_law: false,
            ..WorkloadConfig::default()
        },
        seed,
        ops_per_client: Some(ops),
        apply_log: true,
        track_sessions: true,
        ..ClusterConfig::default()
    }
}

/// A named model-checking scenario: the deployment to explore and the
/// predicates to certify.
#[derive(Clone, Debug)]
pub struct McScenario {
    /// Scenario name (figures, reports, CI gates).
    pub name: String,
    /// The deployment. Use the constructors — exhaustive exploration is
    /// only tractable for tiny, zero-latency configs.
    pub cfg: ClusterConfig,
    /// Check causal delivery at every explored state.
    pub check_causal: bool,
    /// Check per-client session guarantees at every explored state.
    pub check_sessions: bool,
    /// Check convergence at quiescence.
    pub check_convergence: bool,
    /// Exploration limits and fault budgets.
    pub options: McOptions,
    /// `None` (the default) explores exhaustively. `Some((runs, seed))`
    /// switches to that many seeded random walks instead — a sampling
    /// bug-finder for deployments too large to exhaust, with no
    /// completeness claim (the report's `complete` stays `false`).
    pub random: Option<(u64, u64)>,
}

impl McScenario {
    /// The certification scenario for `id`: a 2-DC, single-partition,
    /// one-client-per-DC deployment sized so exhaustive exploration
    /// terminates quickly, with every predicate on.
    ///
    /// Per-system tuning: the global-stabilization baselines need several
    /// timer rounds per update (clock pumping) so they run one op per
    /// client with a deeper timer budget; the rest run two ops per client.
    /// Session guarantees are checked for the native systems only: the
    /// baselines' read replies name no origin datacenter, so they keep no
    /// session log (see `ClusterConfig::track_sessions`).
    pub fn certify(id: SystemId) -> Self {
        let (ops, timer_budget) = match id {
            SystemId::GentleRain | SystemId::Cure => (1, 8),
            SystemId::SSeq | SystemId::ASeq => (2, 4),
            SystemId::Eventual | SystemId::EunomiaKv => (2, 6),
        };
        let mut cfg = mc_config(1, ops, 42);
        cfg.track_sessions = id.is_native();
        debug_assert!(cfg.validate().is_ok());
        McScenario {
            name: format!("certify-{}", id.label().to_ascii_lowercase()),
            cfg,
            check_causal: true,
            check_sessions: id.is_native(),
            check_convergence: true,
            options: McOptions {
                max_timer_steps: timer_budget,
                ..McOptions::default()
            },
            random: None,
        }
    }

    /// A deployment on which the causal-delivery predicate is *not* a
    /// theorem for the eventually consistent baseline: two partitions per
    /// datacenter and an update-only workload, so one origin's updates
    /// travel on two independent FIFO links and the checker can find a
    /// schedule applying them out of origin-timestamp order. The same
    /// scenario certifies for EunomiaKV (stabilization forces the order).
    pub fn violation_demo() -> Self {
        let mut cfg = mc_config(2, 3, 7);
        cfg.workload.read_pct = 0;
        debug_assert!(cfg.validate().is_ok());
        McScenario {
            name: "violation-demo".to_string(),
            cfg,
            check_causal: true,
            check_sessions: false,
            check_convergence: false,
            options: McOptions::default(),
            random: None,
        }
    }

    /// Renames the scenario.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Switches to `runs` seeded random walks instead of exhaustive DFS.
    pub fn randomized(mut self, runs: u64, seed: u64) -> Self {
        self.random = Some((runs, seed));
        self
    }
}

/// Result of one model-checking run.
#[derive(Clone, Debug)]
pub struct McReport {
    /// System label.
    pub system: String,
    /// Scenario name.
    pub scenario: String,
    /// Certified, or a counterexample.
    pub verdict: McVerdict,
    /// Exploration counters (all zero in replay mode).
    pub stats: McStats,
    /// Whether the search covered the full schedule space (no path was
    /// truncated by `max_depth`/`max_states`; timer budgets still bound
    /// timer interleavings). Always `false` in replay mode.
    pub complete: bool,
}

/// The correctness predicates, exposed for direct use in tests.
pub mod predicates {
    use super::*;

    /// Causal delivery over the apply log: per destination, remote
    /// updates from each origin land in non-decreasing origin-timestamp
    /// order, and every third-datacenter dependency of an update is
    /// applied before it. Prefix-closed, so it is sound to check on
    /// partial logs mid-schedule.
    pub fn causal_order(log: &[ApplyRecord], n_dcs: usize) -> Result<(), String> {
        let mut applied: HashMap<u16, Vec<u64>> = HashMap::new();
        for rec in log {
            let site = applied.entry(rec.dest).or_insert_with(|| vec![0; n_dcs]);
            if rec.origin == rec.dest {
                site[rec.origin as usize] = site[rec.origin as usize].max(rec.ts);
                continue;
            }
            if rec.ts < site[rec.origin as usize] {
                return Err(format!(
                    "causal order violated: dc{} applied origin-dc{} update ts {} after \
                     already covering ts {}",
                    rec.dest, rec.origin, rec.ts, site[rec.origin as usize]
                ));
            }
            for (d, &applied_d) in site.iter().enumerate().take(n_dcs) {
                if d == rec.dest as usize || d == rec.origin as usize {
                    continue;
                }
                if rec.vts[d] > applied_d {
                    return Err(format!(
                        "causal dependency violated at dc{}: update from dc{} depends on \
                         dc{} up to ts {}, but only ts {} was applied",
                        rec.dest, rec.origin, d, rec.vts[d], applied_d
                    ));
                }
            }
            site[rec.origin as usize] = rec.ts;
        }
        Ok(())
    }

    /// Session guarantees over the session log: per client and key, read
    /// ranks never decrease (monotonic reads) and never fall below the
    /// client's own last write (read-your-writes). Prefix-closed.
    pub fn session_guarantees(log: &[SessionRecord]) -> Result<(), String> {
        let mut last_read: HashMap<(u32, u64), (u64, u16)> = HashMap::new();
        let mut own_write: HashMap<(u32, u64), (u64, u16)> = HashMap::new();
        for rec in log {
            let rank = rec.rank();
            if rec.is_update {
                own_write.insert((rec.client, rec.key), rank);
                continue;
            }
            if let Some(&prev) = last_read.get(&(rec.client, rec.key)) {
                if rank < prev {
                    return Err(format!(
                        "monotonic reads violated: client {} key {} saw rank {rank:?} \
                         after {prev:?}",
                        rec.client, rec.key
                    ));
                }
            }
            if let Some(&w) = own_write.get(&(rec.client, rec.key)) {
                if rank < w {
                    return Err(format!(
                        "read-your-writes violated: client {} key {} read rank {rank:?} \
                         below its own write {w:?}",
                        rec.client, rec.key
                    ));
                }
            }
            last_read.insert((rec.client, rec.key), rank);
        }
        Ok(())
    }

    /// Convergence over the apply log: every update committed at its
    /// origin appears as an apply at every other datacenter. Only
    /// meaningful at quiescence (mid-schedule, propagation is legitimately
    /// incomplete) and under full replication — which every MC config
    /// uses.
    pub fn convergence(log: &[ApplyRecord], n_dcs: usize) -> Result<(), String> {
        let mut landed: HashSet<(u16, u16, u64, u64)> = HashSet::new();
        let mut originated: Vec<(u16, u64, u64)> = Vec::new();
        for rec in log {
            landed.insert((rec.dest, rec.origin, rec.key, rec.ts));
            if rec.origin == rec.dest {
                originated.push((rec.origin, rec.key, rec.ts));
            }
        }
        for &(origin, key, ts) in &originated {
            for dest in 0..n_dcs as u16 {
                if dest == origin {
                    continue;
                }
                if !landed.contains(&(dest, origin, key, ts)) {
                    return Err(format!(
                        "convergence failure: update (origin dc{origin}, key {key}, \
                         ts {ts}) never applied at dc{dest}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs the model checker over clusters of `id` that `build` assembles
/// from `sc.cfg` (each cluster's metrics sink is the predicate probe),
/// under `sc`'s predicates and options. With `trace` the counterexample
/// is replayed instead of searching. This is the shared driver both the
/// native dispatch and the baseline runners go through.
pub fn drive<M>(
    id: SystemId,
    sc: &McScenario,
    build: fn(SystemId, ClusterConfig) -> Cluster<M>,
    trace: Option<&McTrace>,
) -> McReport
where
    M: std::hash::Hash + Clone,
{
    let cfg = sc.cfg.clone();
    let factory = move || {
        let cluster = build(id, cfg.clone());
        (cluster.sim, cluster.metrics)
    };
    let n_dcs = sc.cfg.n_dcs;
    let (causal, sessions, conv) = (sc.check_causal, sc.check_sessions, sc.check_convergence);
    let predicate = move |m: &GeoMetrics, phase: eunomia_sim::McPhase| -> Result<(), String> {
        if causal {
            predicates::causal_order(&m.apply_log(), n_dcs)?;
        }
        if sessions {
            predicates::session_guarantees(&m.session_log())?;
        }
        if conv && phase == eunomia_sim::McPhase::Quiescence {
            predicates::convergence(&m.apply_log(), n_dcs)?;
        }
        Ok(())
    };
    let checker = ModelChecker::new(factory, predicate, sc.options);
    match trace {
        Some(t) => {
            let verdict = match checker.replay(t) {
                Ok(()) => McVerdict::Certified,
                Err((step, message)) => McVerdict::Violated {
                    step,
                    message,
                    trace: t.clone(),
                },
            };
            McReport {
                system: id.label().to_string(),
                scenario: sc.name.clone(),
                verdict,
                stats: McStats::default(),
                complete: false,
            }
        }
        None => {
            let out = match sc.random {
                Some((runs, seed)) => checker.run_random(runs, seed),
                None => checker.run_exhaustive(),
            };
            // Random walks sample; only an untruncated exhaustive search
            // covers the schedule space.
            let complete = sc.random.is_none() && out.stats.truncated == 0;
            McReport {
                system: id.label().to_string(),
                scenario: sc.name.clone(),
                verdict: out.verdict,
                stats: out.stats,
                complete,
            }
        }
    }
}

/// A function that model-checks one baseline system. Registered by
/// `eunomia_baselines::install()`, mirroring [`crate::SystemRunner`].
pub type McSystemRunner = fn(SystemId, &McScenario, Option<&McTrace>) -> McReport;

static MC_RUNNERS: LazyLock<Mutex<HashMap<SystemId, McSystemRunner>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Registers the model-checking runner for a non-native system.
/// Re-registration replaces the runner (`install()` is idempotent).
///
/// # Panics
/// Panics if `id` is a native system.
pub fn register_mc_runner(id: SystemId, runner: McSystemRunner) {
    assert!(
        !id.is_native(),
        "{id} is model-checked by eunomia-geo itself and cannot be overridden"
    );
    MC_RUNNERS.lock().unwrap().insert(id, runner);
}

fn mc_runner_for(id: SystemId) -> Option<McSystemRunner> {
    MC_RUNNERS.lock().unwrap().get(&id).copied()
}

fn mc_dispatch(id: SystemId, sc: &McScenario, trace: Option<&McTrace>) -> McReport {
    if id.is_native() {
        return drive(id, sc, cluster::build, trace);
    }
    let runner = mc_runner_for(id).unwrap_or_else(|| {
        panic!(
            "no MC runner registered for {id}: call eunomia_baselines::install() \
             (the eunomia facade's run() does this automatically)"
        )
    });
    runner(id, sc, trace)
}

/// Exhaustively model-checks `id` under `sc`: explores every delivery
/// schedule (within the options' budgets), evaluating the scenario's
/// predicates at every explored state and at quiescence. Returns the
/// verdict — [`McVerdict::Violated`] carries a replayable counterexample
/// — alongside the exploration counters.
///
/// # Panics
/// Panics if `id` is a baseline system and no MC runner has been
/// registered; call `eunomia_baselines::install()` first.
pub fn mc_run(id: SystemId, sc: &McScenario) -> McReport {
    mc_dispatch(id, sc, None)
}

/// Replays a counterexample `trace` for `id` under `sc` on a fresh
/// cluster, re-checking predicates after every step. For a genuine
/// counterexample this reproduces the violation deterministically.
///
/// # Panics
/// See [`mc_run`].
pub fn mc_replay(id: SystemId, sc: &McScenario, trace: &McTrace) -> McReport {
    mc_dispatch(id, sc, Some(trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_certification_is_exhaustive_and_clean() {
        for id in [SystemId::EunomiaKv, SystemId::Eventual] {
            let sc = McScenario::certify(id);
            let report = mc_run(id, &sc);
            assert!(report.verdict.is_certified(), "{id}: {:?}", report.verdict);
            assert!(
                report.complete,
                "{id}: search truncated: {:?}",
                report.stats
            );
            assert!(report.stats.explored > 1, "{id}: {:?}", report.stats);
        }
    }

    #[test]
    fn eventual_violates_causal_order_and_the_trace_replays() {
        let sc = McScenario::violation_demo();
        let report = mc_run(SystemId::Eventual, &sc);
        let McVerdict::Violated {
            step,
            message,
            trace,
        } = report.verdict
        else {
            panic!("two FIFO links must let Eventual break per-origin order");
        };
        assert!(message.contains("causal"), "{message}");
        // The counterexample replays to the same verdict on a fresh build.
        let replay = mc_replay(SystemId::Eventual, &sc, &trace);
        let McVerdict::Violated {
            step: rstep,
            message: rmessage,
            ..
        } = replay.verdict
        else {
            panic!("replay must reproduce the violation");
        };
        assert_eq!((rstep, rmessage), (step, message));
        // EunomiaKV certifies on the very same deployment.
        let kv = mc_run(SystemId::EunomiaKv, &sc);
        assert!(kv.verdict.is_certified(), "{:?}", kv.verdict);
    }
}
