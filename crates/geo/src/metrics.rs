//! Shared run metrics: throughput, operation latency, remote visibility.

use crate::config::ClusterConfig;
use eunomia_sim::SimTime;
use eunomia_stats::{Histogram, LoadStats, TimeSeries};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One remote-visibility observation.
#[derive(Clone, Copy, Debug)]
pub struct VisibilitySample {
    /// Simulated time at which the update became visible at the
    /// destination.
    pub at: SimTime,
    /// Extra delay in nanoseconds: time from the update's data arriving at
    /// the destination partition until it became visible. This is the
    /// paper's metric — network latency between datacenters is factored
    /// out (§7.2.2).
    pub extra_ns: u64,
}

/// One entry of the (optional) apply log: an update landing at a
/// datacenter, used by integration tests to verify causal order and
/// convergence end to end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApplyRecord {
    /// Originating datacenter.
    pub origin: u16,
    /// Datacenter where the update landed (== `origin` for local updates).
    pub dest: u16,
    /// Updated key.
    pub key: u64,
    /// The update's timestamp at its origin (its LWW rank component).
    pub ts: u64,
    /// Full vector time of the update.
    pub vts: Vec<u64>,
    /// Sim time of the landing.
    pub at: SimTime,
}

/// One entry of the (optional) per-client session log: an operation
/// completing at a client, with enough version information to check
/// session guarantees (read-your-writes, monotonic reads) end to end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecord {
    /// The client's home datacenter.
    pub dc: u16,
    /// Globally unique client index.
    pub client: u32,
    /// Key the operation touched.
    pub key: u64,
    /// `true` for updates, `false` for reads.
    pub is_update: bool,
    /// Origin datacenter of the observed version (reads) or of the
    /// update itself (== `dc`). Together with `vts[origin]` this is the
    /// version's LWW rank.
    pub origin: u16,
    /// Version vector observed (reads) or assigned (updates).
    pub vts: Vec<u64>,
    /// Sim time of the completion.
    pub at: SimTime,
}

impl SessionRecord {
    /// The LWW arbitration rank of the observed/assigned version:
    /// `(origin timestamp, origin)` — the order the store resolves
    /// conflicting versions by, and therefore the order session
    /// guarantees are defined over.
    pub fn rank(&self) -> (u64, u16) {
        (
            self.vts.get(self.origin as usize).copied().unwrap_or(0),
            self.origin,
        )
    }
}

/// Mutable interior of [`GeoMetrics`].
#[derive(Debug)]
pub struct MetricsInner {
    /// Completed client operations per datacenter, 1-second buckets.
    pub ops_per_dc: Vec<TimeSeries>,
    /// Client-observed operation latency (ns).
    pub op_latency: Histogram,
    /// Client-observed latency of update operations only (ns).
    pub update_latency: Histogram,
    /// Update latency over time (1-second buckets; mean per bucket) —
    /// used by the straggler experiment to show sequencer systems pushing
    /// the straggling interval into client latency (§7.2.3).
    pub update_latency_series: TimeSeries,
    /// Visibility samples per `(origin_dc, dest_dc)`.
    pub visibility: HashMap<(u16, u16), Vec<VisibilitySample>>,
    /// Total completed operations.
    pub completed_ops: u64,
    /// Total completed updates.
    pub completed_updates: u64,
    /// Total remote updates applied.
    pub remote_applies: u64,
    /// Messages received by Eunomia replicas (MetaBatch/MetaBundle) — the
    /// quantity the §5 propagation tree reduces.
    pub service_messages: u64,
    /// Apply log (only filled when enabled; see
    /// [`GeoMetrics::enable_apply_log`]).
    pub apply_log: Vec<ApplyRecord>,
    /// Whether the apply log records entries.
    pub apply_log_enabled: bool,
    /// Per-client session log (only filled when enabled; see
    /// [`GeoMetrics::enable_session_log`]).
    pub session_log: Vec<SessionRecord>,
    /// Whether the session log records entries.
    pub session_log_enabled: bool,
    /// Whether staleness exposure is tracked (see
    /// [`GeoMetrics::enable_staleness_tracking`]).
    pub staleness_enabled: bool,
    /// Stale reads observed per datacenter: reads of a key that has a
    /// remote update committed at its origin but not yet applied at the
    /// reading datacenter. This is *staleness exposure* — any read inside
    /// the normal visibility window counts — so its interesting signal is
    /// how faults inflate it, not its absolute value.
    pub stale_reads: Vec<u64>,
    /// Stale reads over time per datacenter (1-second buckets): the
    /// series that shows staleness spiking during a fault window and
    /// recovering after the heal.
    pub stale_read_series: Vec<TimeSeries>,
    /// Open-loop load measurements (only populated when the run uses
    /// `ClusterConfig::open_loop`; closed-loop clients never touch it).
    pub load: LoadStats,
    /// Per key: highest update timestamp committed at each origin
    /// datacenter (staleness tracking only).
    issued_high: HashMap<u64, Vec<u64>>,
    /// Per `(dest, key)`: highest update timestamp applied at `dest` per
    /// origin datacenter (staleness tracking only).
    applied_high: HashMap<(u16, u64), Vec<u64>>,
}

/// Metrics sink shared (single-threaded `Rc`) by all simulation processes.
#[derive(Clone, Debug)]
pub struct GeoMetrics {
    inner: Rc<RefCell<MetricsInner>>,
}

impl GeoMetrics {
    /// Creates a sink for `n_dcs` datacenters.
    pub fn new(n_dcs: usize) -> Self {
        GeoMetrics {
            inner: Rc::new(RefCell::new(MetricsInner {
                ops_per_dc: (0..n_dcs)
                    .map(|_| TimeSeries::new(eunomia_sim::units::secs(1)))
                    .collect(),
                op_latency: Histogram::new(),
                update_latency: Histogram::new(),
                update_latency_series: TimeSeries::new(eunomia_sim::units::secs(1)),
                visibility: HashMap::new(),
                completed_ops: 0,
                completed_updates: 0,
                remote_applies: 0,
                service_messages: 0,
                apply_log: Vec::new(),
                apply_log_enabled: false,
                session_log: Vec::new(),
                session_log_enabled: false,
                staleness_enabled: false,
                stale_reads: vec![0; n_dcs],
                stale_read_series: (0..n_dcs)
                    .map(|_| TimeSeries::new(eunomia_sim::units::secs(1)))
                    .collect(),
                load: LoadStats::new(eunomia_sim::units::secs(1)),
                issued_high: HashMap::new(),
                applied_high: HashMap::new(),
            })),
        }
    }

    /// Records a completed client operation.
    pub fn record_op(&self, dc: usize, at: SimTime, latency_ns: u64, is_update: bool) {
        let mut m = self.inner.borrow_mut();
        m.ops_per_dc[dc].add(at, 1);
        m.op_latency.record(latency_ns);
        m.completed_ops += 1;
        if is_update {
            m.update_latency.record(latency_ns);
            m.update_latency_series.observe(at, latency_ns);
            m.completed_updates += 1;
        }
    }

    /// Records one open-loop intended arrival.
    pub fn record_load_arrival(&self, at: SimTime) {
        self.inner.borrow_mut().load.record_arrival(at);
    }

    /// Records an open-loop arrival dropped at a full client queue.
    pub fn record_load_drop(&self) {
        self.inner.borrow_mut().load.record_drop();
    }

    /// Notes an open-loop client's queue depth after an enqueue.
    pub fn record_load_queue_depth(&self, depth: u64) {
        self.inner.borrow_mut().load.note_queue_depth(depth);
    }

    /// Records an open-loop completion: latency from the intended
    /// arrival, service time from the actual issue, and the queue wait
    /// between the two.
    pub fn record_load_completion(&self, at: SimTime, latency: u64, service: u64, wait: u64) {
        self.inner
            .borrow_mut()
            .load
            .record_completion(at, latency, service, wait);
    }

    /// Clones the accumulated open-loop load stats.
    pub fn load_stats(&self) -> LoadStats {
        self.inner.borrow().load.clone()
    }

    /// Records a remote update becoming visible.
    pub fn record_visibility(&self, origin: u16, dest: u16, at: SimTime, extra_ns: u64) {
        let mut m = self.inner.borrow_mut();
        m.remote_applies += 1;
        m.visibility
            .entry((origin, dest))
            .or_default()
            .push(VisibilitySample { at, extra_ns });
    }

    /// Counts one metadata message arriving at an Eunomia replica.
    pub fn record_service_msg(&self) {
        self.inner.borrow_mut().service_messages += 1;
    }

    /// Creates the sink a run of `cfg` asks for: its datacenters, plus
    /// the apply log, staleness tracking and session log it enables.
    pub(crate) fn from_config(cfg: &ClusterConfig) -> Self {
        let metrics = GeoMetrics::new(cfg.n_dcs);
        if cfg.apply_log {
            metrics.enable_apply_log();
        }
        if cfg.track_staleness {
            metrics.enable_staleness_tracking();
        }
        if cfg.track_sessions {
            metrics.enable_session_log();
        }
        metrics
    }

    /// Messages received by Eunomia replicas so far.
    pub fn service_messages(&self) -> u64 {
        self.inner.borrow().service_messages
    }

    /// Turns on the apply log (off by default: it grows with every update
    /// landing anywhere, which benchmark runs do not want to pay for).
    pub fn enable_apply_log(&self) {
        self.inner.borrow_mut().apply_log_enabled = true;
    }

    /// Turns on the per-client session log (off by default: it grows with
    /// every completed operation). Used by the session-guarantee checks
    /// of `tests/faults.rs`; wired from `ClusterConfig::track_sessions`.
    pub fn enable_session_log(&self) {
        self.inner.borrow_mut().session_log_enabled = true;
    }

    /// Appends to the session log if enabled.
    pub fn record_session(&self, record: SessionRecord) {
        let mut m = self.inner.borrow_mut();
        if m.session_log_enabled {
            m.session_log.push(record);
        }
    }

    /// Clones the session log (empty unless enabled).
    pub fn session_log(&self) -> Vec<SessionRecord> {
        self.inner.borrow().session_log.clone()
    }

    /// Turns on staleness-exposure tracking (off by default: it maintains
    /// per-key high-water tables on every apply and checks them on every
    /// read).
    pub fn enable_staleness_tracking(&self) {
        self.inner.borrow_mut().staleness_enabled = true;
    }

    /// Appends to the apply log if enabled, and advances the staleness
    /// high-water tables if staleness tracking is on. Every system calls
    /// this for local commits (`origin == dest`) and remote applies alike,
    /// so both features see the complete landing stream.
    pub fn record_apply(&self, record: ApplyRecord) {
        let mut m = self.inner.borrow_mut();
        if m.staleness_enabled {
            let n_dcs = m.ops_per_dc.len();
            let origin = record.origin as usize;
            if record.origin == record.dest {
                let issued = m
                    .issued_high
                    .entry(record.key)
                    .or_insert_with(|| vec![0; n_dcs]);
                issued[origin] = issued[origin].max(record.ts);
            }
            let applied = m
                .applied_high
                .entry((record.dest, record.key))
                .or_insert_with(|| vec![0; n_dcs]);
            applied[origin] = applied[origin].max(record.ts);
        }
        if m.apply_log_enabled {
            m.apply_log.push(record);
        }
    }

    /// Records a read of `key` served at datacenter `dc`, counting it as
    /// stale if some *other* datacenter has committed an update to `key`
    /// that `dc` has not applied yet. No-op unless staleness tracking is
    /// enabled.
    pub fn record_read(&self, dc: usize, key: u64, at: SimTime) {
        let mut m = self.inner.borrow_mut();
        if !m.staleness_enabled {
            return;
        }
        let stale = match m.issued_high.get(&key) {
            None => false,
            Some(issued) => {
                let applied = m.applied_high.get(&(dc as u16, key));
                issued
                    .iter()
                    .enumerate()
                    .any(|(origin, &ts)| origin != dc && ts > applied.map_or(0, |a| a[origin]))
            }
        };
        if stale {
            m.stale_reads[dc] += 1;
            m.stale_read_series[dc].add(at, 1);
        }
    }

    /// Total stale reads across datacenters (0 unless staleness tracking
    /// was enabled).
    pub fn stale_reads(&self) -> u64 {
        self.inner.borrow().stale_reads.iter().sum()
    }

    /// Clones the apply log (empty unless enabled).
    pub fn apply_log(&self) -> Vec<ApplyRecord> {
        self.inner.borrow().apply_log.clone()
    }

    /// Immutable access to the accumulated metrics.
    pub fn with<R>(&self, f: impl FnOnce(&MetricsInner) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Total completed client operations.
    pub fn completed_ops(&self) -> u64 {
        self.inner.borrow().completed_ops
    }

    /// Throughput in ops/sec over `[from, to)` (sim time), across all DCs.
    pub fn throughput_ops_sec(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let m = self.inner.borrow();
        let total: u64 = m
            .ops_per_dc
            .iter()
            .map(|ts| ts.total_between(from, to))
            .sum();
        total as f64 / eunomia_sim::units::to_secs(to - from)
    }

    /// Visibility extra delays (ns) for updates from `origin` observed at
    /// `dest`, restricted to samples visible within `[from, to)`.
    pub fn visibility_extras(
        &self,
        origin: u16,
        dest: u16,
        from: SimTime,
        to: SimTime,
    ) -> Vec<u64> {
        let m = self.inner.borrow();
        m.visibility
            .get(&(origin, dest))
            .map(|v| {
                v.iter()
                    .filter(|s| s.at >= from && s.at < to)
                    .map(|s| s.extra_ns)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_sim::units;

    #[test]
    fn throughput_over_window() {
        let m = GeoMetrics::new(2);
        for s in 0..10u64 {
            for _ in 0..100 {
                m.record_op(0, units::secs(s), 1_000_000, false);
            }
        }
        // 100 ops/s in each of the 8 whole seconds of [1s, 9s).
        let t = m.throughput_ops_sec(units::secs(1), units::secs(9));
        assert!((t - 100.0).abs() < 1e-9, "{t}");
        assert_eq!(m.completed_ops(), 1000);
    }

    #[test]
    fn visibility_window_filter() {
        let m = GeoMetrics::new(3);
        m.record_visibility(0, 1, units::secs(1), 5);
        m.record_visibility(0, 1, units::secs(5), 7);
        m.record_visibility(2, 1, units::secs(5), 9);
        let v = m.visibility_extras(0, 1, units::secs(2), units::secs(10));
        assert_eq!(v, vec![7]);
        assert!(m.visibility_extras(1, 0, 0, units::secs(10)).is_empty());
    }

    #[test]
    fn staleness_counts_unapplied_remote_updates_only() {
        let m = GeoMetrics::new(2);
        m.enable_staleness_tracking();
        let rec = |origin: u16, dest: u16, key: u64, ts: u64, at| ApplyRecord {
            origin,
            dest,
            key,
            ts,
            vts: vec![0, 0],
            at,
        };
        // dc1 commits key 7 at ts 5; dc0 has not applied it yet.
        m.record_apply(rec(1, 1, 7, 5, units::secs(1)));
        m.record_read(0, 7, units::secs(2)); // stale
        m.record_read(1, 7, units::secs(2)); // own update: not stale
        m.record_read(0, 8, units::secs(2)); // untouched key: not stale
        assert_eq!(m.stale_reads(), 1);
        // After dc0 applies it, reads are fresh again.
        m.record_apply(rec(1, 0, 7, 5, units::secs(3)));
        m.record_read(0, 7, units::secs(4));
        assert_eq!(m.stale_reads(), 1);
        // Tracking off: nothing is ever counted.
        let off = GeoMetrics::new(2);
        off.record_apply(rec(1, 1, 7, 5, 0));
        off.record_read(0, 7, 0);
        assert_eq!(off.stale_reads(), 0);
    }

    #[test]
    fn update_latency_tracked_separately() {
        let m = GeoMetrics::new(1);
        m.record_op(0, 0, 10, false);
        m.record_op(0, 0, 20, true);
        m.with(|inner| {
            assert_eq!(inner.op_latency.count(), 2);
            assert_eq!(inner.update_latency.count(), 1);
            assert_eq!(inner.completed_updates, 1);
        });
    }
}
