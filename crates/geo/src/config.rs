//! Deployment, cost-model and workload configuration, with the validated
//! [`ClusterConfigBuilder`] construction path.

use crate::faults::{self, FaultEvent};
use crate::system::SystemId;
use eunomia_sim::{units, SimTime};
use eunomia_workload::{ArrivalSpec, WorkloadConfig};
use std::fmt;

/// CPU service costs (nanoseconds) charged by the busy-server model.
///
/// Defaults are calibrated so a partition behaves like a share of the
/// paper's Riak machines (§7.1 reports ≈3 kops/s per machine): an op costs
/// a few hundred microseconds, and consistency metadata adds costs on top.
/// Absolute values are not meant to match the authors' hardware — the
/// *relative* costs are what produce the paper's shapes.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Partition: base read handling.
    pub read_ns: u64,
    /// Partition: base update handling (storage write + timestamping).
    pub update_ns: u64,
    /// Per vector entry handled on client-facing ops (0 for scalar or
    /// eventual systems).
    pub vector_entry_ns: u64,
    /// Eunomia: per-op ingest (buffer insert).
    pub meta_op_ns: u64,
    /// Eunomia: per-op stabilization drain.
    pub stable_per_op_ns: u64,
    /// Fixed per-message cost (batch framing, syscalls).
    pub batch_overhead_ns: u64,
    /// Partition: applying one remote update.
    pub apply_ns: u64,
    /// Partition: staging one remote data payload.
    pub stage_ns: u64,
    /// Receiver: per stable op enqueue/dependency check.
    pub receiver_op_ns: u64,
    /// Heartbeat/liveness message processing.
    pub hb_ns: u64,
    /// Baselines — per-op scalar metadata handling (GentleRain's single
    /// timestamp; Cure pays `stab_vector_entry_ns` per entry instead).
    pub scalar_meta_ns: u64,
    /// Baselines — per-vector-entry metadata cost of the global-
    /// stabilization systems (Cure). Deliberately much larger than
    /// `vector_entry_ns`: EunomiaKV only *attaches* vectors (dependency
    /// checking is the receiver's trivial comparison), while Cure's
    /// partitions maintain, merge and stabilize vectors on every
    /// operation — the "metadata enrichment" overhead of §7.2.1.
    pub stab_vector_entry_ns: u64,
    /// Baselines — partition cost to compute and send one LST/LSV report
    /// into the global stabilization procedure (scalar part; vector
    /// systems add `vector_entry_ns` per entry).
    pub stab_report_ns: u64,
    /// Baselines — partition cost to process one GST/GSV broadcast.
    pub stab_broadcast_ns: u64,
    /// Baselines — sequencer service time per sequence-number request.
    pub seq_req_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_ns: 700_000,
            update_ns: 900_000,
            vector_entry_ns: 5_000,
            meta_op_ns: 1_500,
            stable_per_op_ns: 1_000,
            batch_overhead_ns: 10_000,
            apply_ns: 30_000,
            stage_ns: 8_000,
            receiver_op_ns: 2_000,
            hb_ns: 2_000,
            scalar_meta_ns: 100_000,
            stab_vector_entry_ns: 55_000,
            stab_report_ns: 40_000,
            stab_broadcast_ns: 30_000,
            seq_req_ns: 150_000,
        }
    }
}

/// A partition that communicates abnormally slowly with its local Eunomia
/// during a time window (§7.2.3).
#[derive(Clone, Copy, Debug)]
pub struct StragglerConfig {
    /// Datacenter of the straggler.
    pub dc: usize,
    /// Partition index within the datacenter.
    pub partition: usize,
    /// Straggling window start (sim time).
    pub from: SimTime,
    /// Straggling window end (sim time).
    pub to: SimTime,
    /// Batch/heartbeat interval used *inside* the window.
    pub interval: SimTime,
}

/// Open-loop client mode: operations arrive on an [`ArrivalSpec`]'s
/// schedule instead of one-at-a-time after each reply, so latency can be
/// measured from the *intended* arrival time (coordinated-omission-free)
/// and overload shows up as queueing delay rather than generator stall.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Per-client arrival process (each client runs an independent copy,
    /// so the datacenter's offered load is `clients_per_dc ×` the spec's
    /// mean rate).
    pub arrivals: ArrivalSpec,
    /// Bound on the per-client backlog of arrived-but-unissued
    /// operations; arrivals past the bound are dropped and counted in
    /// `LoadStats::dropped` instead of stalling the generator.
    pub queue_limit: usize,
}

/// A scheduled crash of one Eunomia replica (fault-injection runs).
#[derive(Clone, Copy, Debug)]
pub struct ReplicaCrash {
    /// Datacenter of the replica.
    pub dc: usize,
    /// Replica index within the datacenter (`0` is the initial leader).
    pub replica: usize,
    /// Crash time (sim time).
    pub at: SimTime,
}

/// Full cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of datacenters (`M`).
    pub n_dcs: usize,
    /// Logical partitions per datacenter (`N`).
    pub partitions_per_dc: usize,
    /// Closed-loop clients per datacenter.
    pub clients_per_dc: usize,
    /// Symmetric RTT matrix between datacenters (ns); `None` selects the
    /// paper's 3-DC topology (80/80/160 ms).
    pub rtt_matrix: Option<Vec<Vec<SimTime>>>,
    /// One-way latency between nodes of the same datacenter.
    pub intra_oneway: SimTime,
    /// Uniform jitter bound added to every one-way latency.
    pub jitter: SimTime,
    /// Simulation duration.
    pub duration: SimTime,
    /// Ignored prefix when computing steady-state rates (the paper trims
    /// the first minute).
    pub warmup: SimTime,
    /// Ignored suffix (the paper trims the last minute).
    pub cooldown: SimTime,
    /// Partition → Eunomia batching interval (§5; paper uses 1 ms).
    pub batch_interval: SimTime,
    /// Partition heartbeat threshold ∆ (Alg. 2 l. 10–12).
    pub heartbeat_delta: SimTime,
    /// Eunomia `PROCESS_STABLE` period θ.
    pub theta: SimTime,
    /// Receiver `CHECK_PENDING` period ρ.
    pub rho: SimTime,
    /// Baselines — interval at which sibling partitions across datacenters
    /// exchange heartbeats for global stabilization (the paper uses 10 ms).
    pub stab_heartbeat_interval: SimTime,
    /// Baselines — interval at which each datacenter recomputes its
    /// GST/GSV ("clock computation interval"; the paper uses 5 ms and
    /// sweeps 1–100 ms in Fig. 1).
    pub stab_aggregation_interval: SimTime,
    /// Eunomia replica count (1 = the non-replicated service of §3.1).
    pub replicas: usize,
    /// Ω heartbeat interval between replicas.
    pub omega_interval: SimTime,
    /// Ω suspicion timeout.
    pub omega_timeout: SimTime,
    /// Per-node clock offsets are drawn uniformly from `[-skew, +skew]`.
    pub clock_skew: SimTime,
    /// Per-node drift drawn uniformly from `[-drift_ppm, +drift_ppm]`.
    pub drift_ppm: f64,
    /// Optional straggler injection (§7.2.3).
    pub straggler: Option<StragglerConfig>,
    /// Service cost model.
    pub costs: CostModel,
    /// Workload.
    pub workload: WorkloadConfig,
    /// RNG seed (identical seeds give identical runs).
    pub seed: u64,
    /// Optional per-client operation budget: clients stop issuing after
    /// completing this many operations (used by quiescence tests; `None`
    /// keeps the closed loop running for the whole duration).
    pub ops_per_client: Option<u64>,
    /// Extension (off = faithful Alg. 5): allow the receiver to keep one
    /// APPLY in flight per origin datacenter instead of one globally.
    pub pipelined_receiver: bool,
    /// Extension (§8 future work, Practi-style): replicate each key at
    /// only this many datacenters. Metadata still flows to every
    /// datacenter (receivers advance `SiteTime` with metadata-only
    /// applies for keys they do not store); data ships only to the
    /// key's replica set. `None` = full replication (the paper's setting).
    /// Native systems only (EunomiaKV, Eventual): building a baseline
    /// with this set panics.
    pub replication_factor: Option<usize>,
    /// §5 "Communication Patterns": route partition metadata through a
    /// fan-in tree of the given arity instead of all-to-one. `None`
    /// (default) sends every partition's batches straight to the Eunomia
    /// replicas; `Some(k)` makes partition 0 the root relay.
    pub metadata_tree_arity: Option<usize>,
    /// Record every update landing (local and remote applies) in the
    /// metrics sink's apply log. Needed by convergence/causality
    /// analyses; off by default (the log grows with every apply).
    pub apply_log: bool,
    /// Scheduled Eunomia replica crashes (fault-injection runs; ignored
    /// by systems that run no Eunomia replicas).
    pub crashes: Vec<ReplicaCrash>,
    /// Timed WAN/process fault schedule (partitions, gray links,
    /// asymmetric one-way overrides, partition-server pauses) honoured by
    /// every system. See [`FaultEvent`] for the model.
    pub faults: Vec<FaultEvent>,
    /// Track staleness exposure: count reads that return while the read
    /// key has a remote update already committed at its origin but not
    /// yet applied locally. Off by default (it keeps per-key high-water
    /// tables); fault scenarios turn it on. Meaningful only under full
    /// replication — with a partial `replication_factor`, keys a
    /// datacenter never stores would count as stale forever.
    pub track_staleness: bool,
    /// Record every completed client operation (with the observed or
    /// assigned version's LWW rank) in the metrics sink's session log,
    /// keyed by client. Feeds the per-client session-guarantee checks
    /// (read-your-writes, monotonic reads) of `tests/faults.rs`. Off by
    /// default (the log grows with every operation). Native systems only
    /// (EunomiaKV, Eventual): the baselines' read replies name no origin
    /// datacenter, so building a baseline with this set panics.
    pub track_sessions: bool,
    /// Open-loop client mode: `Some` makes every client issue operations
    /// on the configured arrival schedule (all six systems honour it);
    /// `None` (default) keeps the paper's closed loop.
    pub open_loop: Option<OpenLoopConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_dcs: 3,
            partitions_per_dc: 8,
            clients_per_dc: 4,
            rtt_matrix: None,
            intra_oneway: units::us(50),
            jitter: units::us(20),
            duration: units::secs(60),
            warmup: units::secs(10),
            cooldown: units::secs(10),
            batch_interval: units::ms(1),
            heartbeat_delta: units::ms(1),
            theta: units::ms(1),
            rho: units::ms(1),
            stab_heartbeat_interval: units::ms(10),
            stab_aggregation_interval: units::ms(5),
            replicas: 1,
            omega_interval: units::ms(10),
            omega_timeout: units::ms(50),
            clock_skew: units::us(500),
            drift_ppm: 50.0,
            straggler: None,
            costs: CostModel::default(),
            workload: WorkloadConfig::paper(90, false),
            seed: 42,
            ops_per_client: None,
            pipelined_receiver: false,
            replication_factor: None,
            metadata_tree_arity: None,
            apply_log: false,
            crashes: Vec::new(),
            faults: Vec::new(),
            track_staleness: false,
            track_sessions: false,
            open_loop: None,
        }
    }
}

impl ClusterConfig {
    /// The measurement window `[warmup, duration - cooldown)`.
    pub fn measure_window(&self) -> (SimTime, SimTime) {
        (self.warmup, self.duration.saturating_sub(self.cooldown))
    }

    /// Costs adjusted for the system being run: the eventual store pays no
    /// vector handling (it keeps no causality metadata).
    pub fn costs_for(&self, id: SystemId) -> CostModel {
        let mut c = self.costs;
        if id == SystemId::Eventual {
            c.vector_entry_ns = 0;
        }
        c
    }

    /// Builds the simulator topology, or explains why the config cannot
    /// describe one.
    pub fn try_topology(&self) -> Result<eunomia_sim::Topology, ConfigError> {
        match &self.rtt_matrix {
            Some(m) => {
                validate_rtt_matrix(m, self.n_dcs)?;
                Ok(eunomia_sim::Topology::new(
                    m.clone(),
                    self.intra_oneway,
                    self.jitter,
                )?)
            }
            None => {
                if self.n_dcs != 3 {
                    return Err(ConfigError::TopologyMismatch { n_dcs: self.n_dcs });
                }
                Ok(eunomia_sim::Topology::paper_three_dcs(
                    self.intra_oneway,
                    self.jitter,
                ))
            }
        }
    }

    /// Builds the simulator topology for this config.
    ///
    /// # Panics
    /// Panics on an invalid config — construct configs through
    /// [`ClusterConfigBuilder`] (or [`validate`](Self::validate) first)
    /// and this cannot fire.
    pub fn topology(&self) -> eunomia_sim::Topology {
        self.try_topology().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks every cross-field invariant the simulator and the report
    /// trimming rely on. [`ClusterConfigBuilder::build`] and every
    /// [`Scenario`](crate::Scenario) constructor call this, so a config
    /// that reaches [`run`](crate::run) is always valid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_dcs == 0 {
            return Err(ConfigError::Zero("n_dcs"));
        }
        if self.partitions_per_dc == 0 {
            return Err(ConfigError::Zero("partitions_per_dc"));
        }
        if self.clients_per_dc == 0 {
            return Err(ConfigError::Zero("clients_per_dc"));
        }
        if self.replicas == 0 {
            return Err(ConfigError::Zero("replicas"));
        }
        if self.duration == 0 {
            return Err(ConfigError::Zero("duration"));
        }
        if self.warmup + self.cooldown >= self.duration {
            return Err(ConfigError::WindowEmpty {
                warmup: self.warmup,
                cooldown: self.cooldown,
                duration: self.duration,
            });
        }
        if let Some(m) = &self.rtt_matrix {
            validate_rtt_matrix(m, self.n_dcs)?;
        } else if self.n_dcs != 3 {
            return Err(ConfigError::TopologyMismatch { n_dcs: self.n_dcs });
        }
        if self.workload.read_pct > 100 {
            return Err(ConfigError::ReadPct(self.workload.read_pct));
        }
        if self.workload.keys == 0 {
            return Err(ConfigError::Zero("workload.keys"));
        }
        if let Some(rf) = self.replication_factor {
            if rf == 0 || rf > self.n_dcs {
                return Err(ConfigError::ReplicationFactor {
                    rf,
                    n_dcs: self.n_dcs,
                });
            }
        }
        if let Some(arity) = self.metadata_tree_arity {
            if arity < 2 {
                return Err(ConfigError::TreeArity(arity));
            }
        }
        if let Some(s) = &self.straggler {
            if s.dc >= self.n_dcs || s.partition >= self.partitions_per_dc {
                return Err(ConfigError::StragglerOutOfRange {
                    dc: s.dc,
                    partition: s.partition,
                });
            }
            if s.from >= s.to {
                return Err(ConfigError::StragglerWindow {
                    from: s.from,
                    to: s.to,
                });
            }
            if s.from >= self.duration {
                return Err(ConfigError::FaultAfterEnd {
                    what: "straggler window",
                    at: s.from,
                    duration: self.duration,
                });
            }
        }
        for c in &self.crashes {
            if c.dc >= self.n_dcs || c.replica >= self.replicas {
                return Err(ConfigError::CrashOutOfRange {
                    dc: c.dc,
                    replica: c.replica,
                });
            }
            if c.at >= self.duration {
                return Err(ConfigError::FaultAfterEnd {
                    what: "replica crash",
                    at: c.at,
                    duration: self.duration,
                });
            }
        }
        if let Some(ol) = &self.open_loop {
            if let Err(e) = ol.arrivals.validate() {
                return Err(ConfigError::OpenLoopArrivals(e));
            }
            if ol.queue_limit == 0 {
                return Err(ConfigError::Zero("open_loop.queue_limit"));
            }
        }
        faults::validate(&self.faults, self)?;
        Ok(())
    }

    /// A small, fast configuration for tests (2 DCs, few clients, short
    /// run, low latencies).
    pub fn small_test() -> Self {
        ClusterConfig {
            n_dcs: 2,
            partitions_per_dc: 2,
            clients_per_dc: 2,
            rtt_matrix: Some(vec![vec![0, units::ms(20)], vec![units::ms(20), 0]]),
            duration: units::secs(5),
            warmup: units::secs(1),
            cooldown: units::secs(1),
            workload: WorkloadConfig {
                keys: 100,
                read_pct: 50,
                value_size: 16,
                ..WorkloadConfig::default()
            },
            ..ClusterConfig::default()
        }
    }
}

fn validate_rtt_matrix(m: &[Vec<SimTime>], n_dcs: usize) -> Result<(), ConfigError> {
    if m.len() != n_dcs || m.iter().any(|row| row.len() != n_dcs) {
        return Err(ConfigError::RttMatrixShape {
            rows: m.len(),
            cols: m.iter().map(|r| r.len()).max().unwrap_or(0),
            n_dcs,
        });
    }
    for (i, row) in m.iter().enumerate() {
        if row[i] != 0 {
            return Err(ConfigError::RttMatrixDiagonal { dc: i });
        }
        for (j, &v) in row.iter().enumerate() {
            if m[j][i] != v {
                return Err(ConfigError::RttMatrixAsymmetric { a: i, b: j });
            }
        }
    }
    Ok(())
}

/// Why a [`ClusterConfig`] is not runnable.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A field that must be positive is zero.
    Zero(&'static str),
    /// `warmup + cooldown` leaves no measurement window.
    WindowEmpty {
        /// Configured warm-up trim.
        warmup: SimTime,
        /// Configured cool-down trim.
        cooldown: SimTime,
        /// Configured total duration.
        duration: SimTime,
    },
    /// No RTT matrix given and `n_dcs` is not the paper's 3.
    TopologyMismatch {
        /// Configured datacenter count.
        n_dcs: usize,
    },
    /// RTT matrix is not `n_dcs` x `n_dcs`.
    RttMatrixShape {
        /// Matrix row count.
        rows: usize,
        /// Widest row length.
        cols: usize,
        /// Configured datacenter count.
        n_dcs: usize,
    },
    /// RTT matrix has a non-zero self-distance.
    RttMatrixDiagonal {
        /// Offending datacenter.
        dc: usize,
    },
    /// RTT matrix is not symmetric.
    RttMatrixAsymmetric {
        /// First datacenter of the asymmetric pair.
        a: usize,
        /// Second datacenter of the asymmetric pair.
        b: usize,
    },
    /// Read percentage above 100.
    ReadPct(u8),
    /// Replication factor outside `1..=n_dcs`.
    ReplicationFactor {
        /// Configured replication factor.
        rf: usize,
        /// Configured datacenter count.
        n_dcs: usize,
    },
    /// Metadata tree arity below 2.
    TreeArity(usize),
    /// Straggler names a datacenter/partition that does not exist.
    StragglerOutOfRange {
        /// Configured straggler datacenter.
        dc: usize,
        /// Configured straggler partition.
        partition: usize,
    },
    /// Straggler window is empty or inverted.
    StragglerWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// Crash schedule names a replica that does not exist.
    CrashOutOfRange {
        /// Configured crash datacenter.
        dc: usize,
        /// Configured crash replica index.
        replica: usize,
    },
    /// A fault event names a datacenter or partition outside the
    /// deployment.
    FaultOutOfRange {
        /// Which schedule entry is out of range.
        what: &'static str,
        /// The offending (largest) datacenter index.
        dc: usize,
        /// The other index of the pair (or the partition index).
        index: usize,
    },
    /// A fault event's `[from, to)` window is empty or inverted.
    FaultWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// A gray link's loss probability is outside `[0, 1]`.
    FaultLoss {
        /// Configured loss probability.
        loss: f64,
    },
    /// A link fault names the same datacenter on both ends.
    FaultSelfLink {
        /// The datacenter named twice.
        dc: usize,
    },
    /// A straggler window or crash is scheduled at/after the run ends,
    /// so a fault-named scenario would silently measure a fault-free
    /// run (e.g. `Scenario::straggler(..).seconds(10)` shrinking the
    /// run below the window).
    FaultAfterEnd {
        /// Which schedule is out of range.
        what: &'static str,
        /// Scheduled start time.
        at: SimTime,
        /// Configured run duration.
        duration: SimTime,
    },
    /// The open-loop arrival spec failed its own validation.
    OpenLoopArrivals(String),
    /// The simulator rejected the RTT matrix (surfaced through
    /// `ConfigError` so every construction path reports one error type).
    Topology(eunomia_sim::TopologyError),
}

impl From<eunomia_sim::TopologyError> for ConfigError {
    fn from(e: eunomia_sim::TopologyError) -> Self {
        ConfigError::Topology(e)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "{field} must be > 0"),
            ConfigError::WindowEmpty {
                warmup,
                cooldown,
                duration,
            } => write!(
                f,
                "warmup ({warmup}) + cooldown ({cooldown}) must be < duration ({duration}): \
                 no measurement window remains"
            ),
            ConfigError::TopologyMismatch { n_dcs } => write!(
                f,
                "no rtt_matrix given and n_dcs = {n_dcs}: the default topology is the \
                 paper's 3-DC deployment; provide an {n_dcs}x{n_dcs} matrix"
            ),
            ConfigError::RttMatrixShape { rows, cols, n_dcs } => write!(
                f,
                "rtt_matrix must be square {n_dcs}x{n_dcs}, got {rows}x{cols}"
            ),
            ConfigError::RttMatrixDiagonal { dc } => {
                write!(f, "rtt_matrix[{dc}][{dc}] must be 0 (self-distance)")
            }
            ConfigError::RttMatrixAsymmetric { a, b } => {
                write!(f, "rtt_matrix must be symmetric: [{a}][{b}] != [{b}][{a}]")
            }
            ConfigError::ReadPct(pct) => write!(f, "workload.read_pct = {pct} exceeds 100"),
            ConfigError::ReplicationFactor { rf, n_dcs } => write!(
                f,
                "replication_factor = {rf} must be in 1..={n_dcs} (n_dcs)"
            ),
            ConfigError::TreeArity(a) => {
                write!(f, "metadata_tree_arity = {a} must be >= 2")
            }
            ConfigError::StragglerOutOfRange { dc, partition } => write!(
                f,
                "straggler names dc {dc} partition {partition}, outside the deployment"
            ),
            ConfigError::StragglerWindow { from, to } => {
                write!(f, "straggler window [{from}, {to}) is empty")
            }
            ConfigError::CrashOutOfRange { dc, replica } => write!(
                f,
                "crash schedule names dc {dc} replica {replica}, outside the deployment"
            ),
            ConfigError::FaultOutOfRange { what, dc, index } => write!(
                f,
                "{what} names dc {dc} / index {index}, outside the deployment"
            ),
            ConfigError::FaultWindow { from, to } => {
                write!(f, "fault window [{from}, {to}) is empty")
            }
            ConfigError::FaultLoss { loss } => {
                write!(f, "gray-link loss probability {loss} must be in [0, 1]")
            }
            ConfigError::FaultSelfLink { dc } => {
                write!(f, "link fault names dc {dc} on both ends")
            }
            ConfigError::FaultAfterEnd { what, at, duration } => write!(
                f,
                "{what} starts at {at} but the run ends at {duration}: \
                 the fault would never fire"
            ),
            ConfigError::OpenLoopArrivals(e) => {
                write!(f, "open_loop.arrivals is invalid: {e}")
            }
            ConfigError::Topology(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated construction of [`ClusterConfig`]: set fields, then
/// [`build`](Self::build) checks every cross-field invariant and returns
/// `Result` instead of letting a bad config panic mid-run.
///
/// ```
/// use eunomia_geo::ClusterConfigBuilder;
/// let cfg = ClusterConfigBuilder::new()
///     .partitions_per_dc(4)
///     .clients_per_dc(2)
///     .seed(7)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.partitions_per_dc, 4);
/// assert!(ClusterConfigBuilder::new().replicas(0).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),+ $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(mut self, v: $ty) -> Self {
            self.cfg.$name = v;
            self
        }
    )+};
}

impl ClusterConfigBuilder {
    /// Starts from [`ClusterConfig::default`] (the paper's deployment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration.
    pub fn from_config(cfg: ClusterConfig) -> Self {
        ClusterConfigBuilder { cfg }
    }

    builder_setters! {
        /// Number of datacenters.
        n_dcs: usize,
        /// Logical partitions per datacenter.
        partitions_per_dc: usize,
        /// Closed-loop clients per datacenter.
        clients_per_dc: usize,
        /// Symmetric RTT matrix (ns); `None` selects the paper's 3-DC topology.
        rtt_matrix: Option<Vec<Vec<SimTime>>>,
        /// Simulation duration.
        duration: SimTime,
        /// Warm-up trim.
        warmup: SimTime,
        /// Cool-down trim.
        cooldown: SimTime,
        /// Partition -> Eunomia batching interval.
        batch_interval: SimTime,
        /// Partition heartbeat threshold.
        heartbeat_delta: SimTime,
        /// Eunomia `PROCESS_STABLE` period.
        theta: SimTime,
        /// Eunomia replica count.
        replicas: usize,
        /// Clock skew bound.
        clock_skew: SimTime,
        /// Clock drift bound (ppm).
        drift_ppm: f64,
        /// Straggler injection.
        straggler: Option<StragglerConfig>,
        /// Workload.
        workload: WorkloadConfig,
        /// Deterministic seed.
        seed: u64,
        /// Per-client operation budget.
        ops_per_client: Option<u64>,
        /// Pipelined-receiver extension.
        pipelined_receiver: bool,
        /// Partial replication factor.
        replication_factor: Option<usize>,
        /// Metadata fan-in tree arity.
        metadata_tree_arity: Option<usize>,
        /// Record the apply log.
        apply_log: bool,
        /// Replica crash schedule.
        crashes: Vec<ReplicaCrash>,
        /// Timed WAN/process fault schedule.
        faults: Vec<FaultEvent>,
        /// Track staleness exposure of reads.
        track_staleness: bool,
        /// Record the per-client session log.
        track_sessions: bool,
        /// Open-loop client mode.
        open_loop: Option<OpenLoopConfig>,
    }

    /// Escape hatch for the long tail of fields without a setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_deployment() {
        let c = ClusterConfig::default();
        assert_eq!(c.n_dcs, 3);
        assert_eq!(c.partitions_per_dc, 8);
        assert_eq!(c.batch_interval, units::ms(1));
        let topo = c.topology();
        assert_eq!(topo.rtt(0, 1), units::ms(80));
        assert_eq!(topo.rtt(1, 2), units::ms(160));
    }

    #[test]
    fn eventual_pays_no_vector_costs() {
        let c = ClusterConfig::default();
        assert_eq!(c.costs_for(SystemId::Eventual).vector_entry_ns, 0);
        assert!(c.costs_for(SystemId::EunomiaKv).vector_entry_ns > 0);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        // warmup + cooldown >= duration.
        let err = ClusterConfigBuilder::new()
            .duration(units::secs(10))
            .warmup(units::secs(8))
            .cooldown(units::secs(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::WindowEmpty { .. }), "{err}");

        // Non-square RTT matrix.
        let err = ClusterConfigBuilder::new()
            .n_dcs(2)
            .rtt_matrix(Some(vec![vec![0, 1, 2], vec![1, 0, 3]]))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::RttMatrixShape { .. }), "{err}");

        // Asymmetric RTT matrix.
        let err = ClusterConfigBuilder::new()
            .n_dcs(2)
            .rtt_matrix(Some(vec![vec![0, 5], vec![6, 0]]))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::RttMatrixAsymmetric { .. }),
            "{err}"
        );

        // Zero replicas.
        let err = ClusterConfigBuilder::new().replicas(0).build().unwrap_err();
        assert_eq!(err, ConfigError::Zero("replicas"));

        // n_dcs != 3 without a matrix.
        let err = ClusterConfigBuilder::new().n_dcs(5).build().unwrap_err();
        assert!(matches!(err, ConfigError::TopologyMismatch { .. }), "{err}");

        // Crash schedule outside the deployment.
        let err = ClusterConfigBuilder::new()
            .replicas(2)
            .crashes(vec![ReplicaCrash {
                dc: 0,
                replica: 5,
                at: units::secs(1),
            }])
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::CrashOutOfRange { .. }), "{err}");

        // Faults scheduled after the run ends would silently never fire.
        let err = ClusterConfigBuilder::new()
            .crashes(vec![ReplicaCrash {
                dc: 0,
                replica: 0,
                at: units::secs(100),
            }])
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::FaultAfterEnd { .. }), "{err}");
        let err = ClusterConfigBuilder::new()
            .straggler(Some(StragglerConfig {
                dc: 0,
                partition: 0,
                from: units::secs(70),
                to: units::secs(80),
                interval: units::ms(10),
            }))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::FaultAfterEnd { .. }), "{err}");
    }

    #[test]
    fn open_loop_config_is_validated() {
        let err = ClusterConfigBuilder::new()
            .open_loop(Some(OpenLoopConfig {
                arrivals: ArrivalSpec::Poisson { rate_hz: 0.0 },
                queue_limit: 64,
            }))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::OpenLoopArrivals(_)), "{err}");

        let err = ClusterConfigBuilder::new()
            .open_loop(Some(OpenLoopConfig {
                arrivals: ArrivalSpec::Poisson { rate_hz: 100.0 },
                queue_limit: 0,
            }))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::Zero("open_loop.queue_limit"));

        assert!(ClusterConfigBuilder::new()
            .open_loop(Some(OpenLoopConfig {
                arrivals: ArrivalSpec::Poisson { rate_hz: 100.0 },
                queue_limit: 64,
            }))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_accepts_the_presets() {
        assert!(ClusterConfigBuilder::new().build().is_ok());
        assert!(
            ClusterConfigBuilder::from_config(ClusterConfig::small_test())
                .build()
                .is_ok()
        );
    }

    #[test]
    fn measure_window_trims_both_ends() {
        let c = ClusterConfig::default();
        let (from, to) = c.measure_window();
        assert_eq!(from, units::secs(10));
        assert_eq!(to, units::secs(50));
    }
}
