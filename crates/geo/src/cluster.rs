//! Cluster assembly: the scaffold every system's builder shares (the
//! simulator, metrics sink, registry, clock draws, clients, fault wiring
//! and the run→report epilogue) and the native builder that spawns
//! EunomiaKV's and Eventual's partitions, Eunomia replicas and receivers.

use crate::client::{ClientProc, ClientProtocol, NativeSession};
use crate::config::ClusterConfig;
use crate::eunomia_proc::ReplicaProc;
use crate::harness::{make_report, RunReport};
use crate::metrics::GeoMetrics;
use crate::msg::Msg;
use crate::partition::PartitionProc;
use crate::receiver::ReceiverProc;
use crate::registry::{self, SharedRegistry};
use crate::system::SystemId;
use eunomia_core::ids::ReplicaId;
use eunomia_sim::{ClockModel, Process, ProcessId, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// A built (not yet run) cluster of any system, over its message type `M`.
pub struct Cluster<M = Msg> {
    /// The simulation, ready to run.
    pub sim: Simulation<M>,
    /// Shared metrics sink.
    pub metrics: GeoMetrics,
    /// Process registry (filled).
    pub registry: SharedRegistry,
    /// Client process ids (for targeted inspection).
    pub clients: Vec<ProcessId>,
    /// Eunomia replica ids per datacenter (crash-injection targets; empty
    /// for systems that run no Eunomia replicas).
    pub replicas: Vec<Vec<ProcessId>>,
    /// The configuration the cluster was built from.
    pub cfg: Rc<ClusterConfig>,
    /// Draws the clocks of [`Cluster::add_clocked`] nodes.
    clock_rng: StdRng,
}

/// Draws a clock model within the configured skew/drift bounds.
fn draw_clock(cfg: &ClusterConfig, rng: &mut StdRng) -> ClockModel {
    if cfg.clock_skew == 0 && cfg.drift_ppm == 0.0 {
        return ClockModel::perfect();
    }
    let skew = cfg.clock_skew as i64;
    let offset = if skew > 0 {
        rng.random_range(-skew..=skew)
    } else {
        0
    };
    let drift = if cfg.drift_ppm > 0.0 {
        rng.random_range(-cfg.drift_ppm..=cfg.drift_ppm)
    } else {
        0.0
    };
    ClockModel::new(offset, drift)
}

impl<M: 'static> Cluster<M> {
    /// An empty deployment of `cfg`: the simulator over its topology, the
    /// metrics sink it asks for, and an empty registry.
    pub fn new(cfg: ClusterConfig) -> Self {
        let cfg = Rc::new(cfg);
        Cluster {
            sim: Simulation::new(cfg.topology(), cfg.seed),
            metrics: GeoMetrics::from_config(&cfg),
            registry: registry::shared(),
            clients: Vec::new(),
            replicas: Vec::new(),
            clock_rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED_C10C),
            cfg,
        }
    }

    /// Places `proc` on a new node of datacenter `dc` whose clock is drawn
    /// within the configured skew/drift bounds (processes that read
    /// physical clocks: partitions, Eunomia replicas).
    pub fn add_clocked(&mut self, dc: usize, proc: impl Process<M> + 'static) -> ProcessId {
        let clock = draw_clock(&self.cfg, &mut self.clock_rng);
        let node = self.sim.add_node_with_clock(dc, clock);
        self.sim.add_process_on(node, Box::new(proc))
    }

    /// Adds client `c` of datacenter `dc`, running `session`.
    pub fn add_client<P>(&mut self, dc: usize, c: usize, session: P)
    where
        P: ClientProtocol<Msg = M> + 'static,
    {
        let id = (dc * self.cfg.clients_per_dc + c) as u32;
        let proc = ClientProc::new(
            session,
            dc,
            id,
            self.cfg.clone(),
            self.registry.clone(),
            self.metrics.clone(),
        );
        let pid = self.sim.add_process(dc, Box::new(proc));
        self.clients.push(pid);
    }

    /// Registers the partition processes `partitions[dc][p]` and applies
    /// the timed fault schedule (link faults, partition-server pauses) to
    /// them.
    pub fn set_partitions(&mut self, partitions: Vec<Vec<ProcessId>>) {
        crate::faults::apply_faults(&self.cfg, &mut self.sim, &partitions);
        self.registry.borrow_mut().partitions = partitions;
    }

    /// Runs the simulation for the configured duration and reports it
    /// under `id`'s label.
    pub fn run(mut self, id: SystemId) -> RunReport {
        self.sim.run_until(self.cfg.duration);
        make_report(id.label(), &self.metrics, &self.cfg, self.sim.stats())
    }
}

/// Builds a full deployment of one of the *native* systems (Eventual or
/// EunomiaKV) per `cfg`. Baseline systems are assembled by
/// `eunomia-baselines`; use [`crate::run`] for the unified entry point.
///
/// Node placement: every partition, Eunomia replica, receiver and client
/// gets its own simulated node in its datacenter's region; partitions and
/// replicas get clocks drawn within the configured skew/drift bounds
/// (clients and receivers never read physical clocks).
pub fn build(id: SystemId, cfg: ClusterConfig) -> Cluster {
    assert!(
        id.is_native(),
        "cluster::build assembles only the native systems (Eventual, EunomiaKV); \
         {id} is built by eunomia-baselines"
    );
    let mut cluster = Cluster::new(cfg);
    let cfg = cluster.cfg.clone();
    let (reg, metrics) = (cluster.registry.clone(), cluster.metrics.clone());
    let causal = id == SystemId::EunomiaKv;

    let mut partitions = Vec::new();
    let mut receivers = Vec::new();
    for dc in 0..cfg.n_dcs {
        let mut dc_parts = Vec::new();
        for p in 0..cfg.partitions_per_dc {
            let proc = PartitionProc::new(dc, p, id, cfg.clone(), reg.clone(), metrics.clone());
            dc_parts.push(cluster.add_clocked(dc, proc));
        }
        partitions.push(dc_parts);

        let mut dc_replicas = Vec::new();
        if causal {
            for r in 0..cfg.replicas.max(1) {
                let replica = ReplicaId(r as u32);
                let proc = ReplicaProc::new(dc, replica, cfg.clone(), reg.clone(), metrics.clone());
                dc_replicas.push(cluster.add_clocked(dc, proc));
            }
        }
        cluster.replicas.push(dc_replicas);

        // Eventual runs no receiver; the registry slot stays empty so a
        // stray receiver-bound send fails loudly.
        receivers.push(causal.then(|| {
            let proc = ReceiverProc::new(dc, cfg.clone(), reg.clone());
            cluster.sim.add_process(dc, Box::new(proc))
        }));

        for c in 0..cfg.clients_per_dc {
            cluster.add_client(dc, c, NativeSession::new(dc, cfg.n_dcs, causal));
        }
    }

    cluster.set_partitions(partitions);
    {
        let mut r = reg.borrow_mut();
        r.eunomia = cluster.replicas.clone();
        r.receivers = receivers;
    }

    // Scheduled fault injection: crash the named Eunomia replicas.
    for crash in &cfg.crashes {
        if let Some(&pid) = cluster
            .replicas
            .get(crash.dc)
            .and_then(|dc| dc.get(crash.replica))
        {
            cluster.sim.crash_at(pid, crash.at);
        }
    }
    cluster
}
