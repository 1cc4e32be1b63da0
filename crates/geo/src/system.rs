//! The unified system registry: one [`SystemId`] for all six systems the
//! paper evaluates (§7.2) and one [`run`] entry point.
//!
//! `eunomia-geo` natively assembles the two systems built in this crate
//! (Eventual and EunomiaKV). The four baselines live in
//! `eunomia-baselines`, which this crate must not depend on — instead,
//! baseline runners are *registered* into a process-wide table via
//! [`register_runner`]. `eunomia_baselines::install()` performs the
//! registration; the `eunomia` facade and the `eunomia-bench` harness
//! call it automatically, so ordinary users never see the hook.

use crate::cluster::build;
use crate::config::ClusterConfig;
use crate::harness::RunReport;
use crate::scenario::Scenario;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{LazyLock, Mutex};

/// Identifies one of the six systems of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Eventually consistent multi-cluster store: remote updates apply on
    /// arrival, no causality metadata. The paper's normalization baseline.
    Eventual,
    /// EunomiaKV: the paper's system (§3–§5).
    EunomiaKv,
    /// GentleRain: global stabilization with a single scalar timestamp
    /// (Du et al., SoCC '14).
    GentleRain,
    /// Cure: global stabilization with a vector clock (Akkoorath et al.,
    /// ICDCS '16).
    Cure,
    /// S-Seq: a synchronous per-datacenter sequencer in the client
    /// critical path (as in SwiftCloud/ChainReaction).
    SSeq,
    /// A-Seq: the paper's deliberately bogus asynchronous sequencer —
    /// same work off the critical path, no causality (§2).
    ASeq,
}

impl SystemId {
    /// Every system, in the paper's presentation order.
    pub fn all() -> [SystemId; 6] {
        [
            SystemId::Eventual,
            SystemId::EunomiaKv,
            SystemId::GentleRain,
            SystemId::Cure,
            SystemId::SSeq,
            SystemId::ASeq,
        ]
    }

    /// Human-readable label, as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemId::Eventual => "Eventual",
            SystemId::EunomiaKv => "EunomiaKV",
            SystemId::GentleRain => "GentleRain",
            SystemId::Cure => "Cure",
            SystemId::SSeq => "S-Seq",
            SystemId::ASeq => "A-Seq",
        }
    }

    /// Whether `eunomia-geo` itself can assemble this system (the rest
    /// come from registered runners).
    pub fn is_native(self) -> bool {
        matches!(self, SystemId::Eventual | SystemId::EunomiaKv)
    }

    /// Whether the system tracks causality (Eventual and A-Seq do not —
    /// their visibility numbers measure raw arrival, not causal safety).
    pub fn is_causal(self) -> bool {
        !matches!(self, SystemId::Eventual | SystemId::ASeq)
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a [`SystemId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSystemIdError {
    input: String,
}

impl fmt::Display for ParseSystemIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown system {:?}; expected one of: {}",
            self.input,
            SystemId::all().map(|s| s.label()).join(", ")
        )
    }
}

impl std::error::Error for ParseSystemIdError {}

impl FromStr for SystemId {
    type Err = ParseSystemIdError;

    /// Case-insensitive; dashes/underscores are ignored, and common
    /// aliases are accepted (`eunomia`, `gr`, `sseq`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        Ok(match norm.as_str() {
            "eventual" | "ev" => SystemId::Eventual,
            "eunomiakv" | "eunomia" | "eu" => SystemId::EunomiaKv,
            "gentlerain" | "gr" => SystemId::GentleRain,
            "cure" => SystemId::Cure,
            "sseq" => SystemId::SSeq,
            "aseq" => SystemId::ASeq,
            _ => {
                return Err(ParseSystemIdError {
                    input: s.to_string(),
                })
            }
        })
    }
}

/// A function that builds, runs and reports one system under a validated
/// configuration. Registered by `eunomia-baselines` for the four
/// non-native systems.
pub type SystemRunner = fn(SystemId, &ClusterConfig) -> RunReport;

static RUNNERS: LazyLock<Mutex<HashMap<SystemId, SystemRunner>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Registers the runner for a non-native system. Registering a system
/// twice replaces the runner (harmless: `eunomia_baselines::install()`
/// is idempotent). Native systems cannot be overridden.
///
/// # Panics
/// Panics if `id` is a native system.
pub fn register_runner(id: SystemId, runner: SystemRunner) {
    assert!(
        !id.is_native(),
        "{id} is assembled by eunomia-geo itself and cannot be overridden"
    );
    RUNNERS.lock().unwrap().insert(id, runner);
}

fn runner_for(id: SystemId) -> Option<SystemRunner> {
    RUNNERS.lock().unwrap().get(&id).copied()
}

/// Builds, runs and reports `id` under `scenario` — the single entry
/// point every harness, example and test goes through.
///
/// # Panics
/// Panics if `id` is a baseline system and no runner has been registered.
/// Call `eunomia_baselines::install()` first, or use the `eunomia`
/// facade's `run`, which installs them automatically.
pub fn run(id: SystemId, scenario: &Scenario) -> RunReport {
    let cfg = scenario.cfg().clone();
    if id.is_native() {
        return build(id, cfg).run(id);
    }
    let runner = runner_for(id).unwrap_or_else(|| {
        panic!(
            "no runner registered for {id}: call eunomia_baselines::install() \
             (the eunomia facade's run() and eunomia_bench::BenchArgs::parse() \
             do this automatically)"
        )
    });
    runner(id, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn display_from_str_round_trips_over_all() {
        for id in SystemId::all() {
            assert_eq!(id.to_string().parse::<SystemId>().unwrap(), id);
        }
    }

    #[test]
    fn parsing_accepts_aliases_and_rejects_garbage() {
        assert_eq!("eunomia".parse::<SystemId>().unwrap(), SystemId::EunomiaKv);
        assert_eq!("s-seq".parse::<SystemId>().unwrap(), SystemId::SSeq);
        assert_eq!("S_SEQ".parse::<SystemId>().unwrap(), SystemId::SSeq);
        assert_eq!(
            "GENTLERAIN".parse::<SystemId>().unwrap(),
            SystemId::GentleRain
        );
        let err = "riak".parse::<SystemId>().unwrap_err();
        assert!(err.to_string().contains("riak"));
    }

    #[test]
    fn native_systems_run_without_any_registration() {
        let sc = Scenario::small_test();
        for id in [SystemId::Eventual, SystemId::EunomiaKv] {
            let report = run(id, &sc);
            assert!(report.total_ops > 100, "{id}: {}", report.total_ops);
            assert_eq!(report.system, id.label());
        }
    }

    #[test]
    #[should_panic(expected = "eunomia_baselines::install()")]
    fn unregistered_baseline_panics_with_guidance() {
        // The registry is process-wide; use a runner no test registers.
        // eunomia-geo's own test binary never links eunomia-baselines,
        // so nothing can have registered Cure here.
        run(SystemId::Cure, &Scenario::small_test());
    }

    #[test]
    #[should_panic(expected = "cannot be overridden")]
    fn native_systems_cannot_be_overridden() {
        fn bogus(_: SystemId, _: &ClusterConfig) -> RunReport {
            unreachable!()
        }
        register_runner(SystemId::EunomiaKv, bogus);
    }
}
