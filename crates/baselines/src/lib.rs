#![warn(missing_docs)]

//! Baseline systems the paper compares Eunomia against, built on the same
//! substrate (`eunomia-kv` storage, `eunomia-sim` network, the cost model
//! and metrics of `eunomia-geo`) — mirroring the paper's methodology,
//! where GentleRain and Cure "are implemented using the codebase of
//! EunomiaKV" (§7.2).
//!
//! * [`gs`] — **GentleRain** (scalar global stable time, Du et al.,
//!   SoCC '14) and **Cure** (vector global stable vector, Akkoorath et
//!   al., ICDCS '16): sequencer-free designs that make remote updates
//!   visible through a background *global* (cross-datacenter)
//!   stabilization procedure.
//! * [`seq`] — **S-Seq** (a synchronous sequencer per datacenter in the
//!   client critical path, as in SwiftCloud/ChainReaction) and **A-Seq**
//!   (the paper's bogus asynchronous variant that does the same work off
//!   the critical path but fails to capture causality; §2).
//!
//! All four run under the shared [`eunomia_geo::ClusterConfig`], are
//! assembled on the shared [`eunomia_geo::cluster::Cluster`] scaffold,
//! drive the same [`eunomia_geo::client::ClientProc`] as the native
//! systems (with the entrywise max of every vector time seen as the
//! session), and report through
//! [`eunomia_geo::harness::RunReport`], so every figure harness compares
//! like with like. Only the partition-side protocols and the helper
//! processes (aggregators, sequencers, receivers) are their own. The
//! native-only options `replication_factor` and `track_sessions` are
//! rejected by [`build`].
//!
//! There is no separate entry point for baselines: [`install`] registers
//! them into `eunomia-geo`'s system registry, after which
//! `eunomia_geo::run(SystemId, &Scenario)` drives all six systems
//! uniformly. The `eunomia` facade and `eunomia_bench::BenchArgs::parse`
//! call [`install`] automatically.

pub mod gs;
pub mod msg;
pub mod seq;

use eunomia_geo::cluster::Cluster;
use eunomia_geo::harness::RunReport;
use eunomia_geo::mc::{drive, McReport, McScenario};
use eunomia_geo::{register_mc_runner, register_runner, ClusterConfig, SystemId};
use eunomia_sim::McTrace;
use msg::BMsg;
use std::sync::Once;

/// Builds one of the four baselines per `cfg`.
///
/// # Panics
/// Panics if `id` is a native system, or if `cfg` sets a field only the
/// native systems honour: `replication_factor` (the baselines always
/// replicate fully) or `track_sessions` (their read replies name no
/// origin datacenter, so the session log cannot rank them).
pub fn build(id: SystemId, cfg: ClusterConfig) -> Cluster<BMsg> {
    for (field, set) in [
        ("replication_factor", cfg.replication_factor.is_some()),
        ("track_sessions", cfg.track_sessions),
    ] {
        assert!(
            !set,
            "{id} does not support ClusterConfig::{field}: only the native systems \
             (EunomiaKV, Eventual) honour it"
        );
    }
    match id {
        SystemId::GentleRain => gs::build(gs::StabilizationMode::Scalar, cfg),
        SystemId::Cure => gs::build(gs::StabilizationMode::Vector, cfg),
        SystemId::SSeq => seq::build(seq::SeqMode::Synchronous, cfg),
        SystemId::ASeq => seq::build(seq::SeqMode::Asynchronous, cfg),
        native => panic!("{native} is assembled by eunomia-geo"),
    }
}

fn run_baseline(id: SystemId, cfg: &ClusterConfig) -> RunReport {
    build(id, cfg.clone()).run(id)
}

fn mc_baseline(id: SystemId, sc: &McScenario, trace: Option<&McTrace>) -> McReport {
    drive(id, sc, build, trace)
}

/// Registers GentleRain, Cure, S-Seq and A-Seq in `eunomia-geo`'s system
/// registry so `eunomia_geo::run` can dispatch to them. Idempotent and
/// cheap; call it once at startup (the `eunomia` facade's `run` and
/// `eunomia_bench::BenchArgs::parse` already do).
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for id in [
            SystemId::GentleRain,
            SystemId::Cure,
            SystemId::SSeq,
            SystemId::ASeq,
        ] {
            register_runner(id, run_baseline);
            register_mc_runner(id, mc_baseline);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_geo::Scenario;

    #[test]
    fn install_makes_every_system_runnable_through_geo() {
        install();
        install(); // idempotent
        let sc = Scenario::small_test();
        for id in SystemId::all() {
            let report = eunomia_geo::run(id, &sc);
            assert!(report.total_ops > 100, "{id}: {} ops", report.total_ops);
            assert_eq!(report.system, id.label());
        }
    }

    #[test]
    #[should_panic(expected = "does not support ClusterConfig::replication_factor")]
    fn baselines_reject_partial_replication() {
        install();
        let scenario = Scenario::partial_replication(2).expect("rf 2 of 3 DCs is valid");
        eunomia_geo::run(SystemId::Cure, &scenario);
    }

    #[test]
    #[should_panic(expected = "does not support ClusterConfig::track_sessions")]
    fn baselines_reject_session_tracking() {
        let mut cfg = ClusterConfig::small_test();
        cfg.track_sessions = true;
        build(SystemId::SSeq, cfg);
    }
}
