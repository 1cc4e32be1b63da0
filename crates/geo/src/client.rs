//! The client process shared by all six systems (closed- or open-loop).
//!
//! Each client issues operations against its home datacenter. In the
//! default closed loop it issues one operation, waits for the reply,
//! folds the returned timestamp into its session and immediately issues
//! the next operation — the paper's Basho Bench clients with zero think
//! time. With [`ClusterConfig::open_loop`] set, an [`OpenLoopDriver`]
//! instead schedules intended arrivals from the configured process and
//! latency is measured from the intended time (coordinated-omission-free;
//! see [`crate::open_loop`]).
//!
//! What differs between systems is only the wire format and what a
//! session remembers, captured by [`ClientProtocol`]: `NativeSession`
//! speaks geo's [`Msg`] for EunomiaKV (Algorithm 1 in its §4 vector form)
//! and Eventual (no causal tracking); `eunomia-baselines` implements it
//! for GentleRain, Cure, S-Seq and A-Seq. Issuing, completion, the
//! open-loop branch, the operation budget and the model-checking digest
//! live once in [`ClientProc`].

use crate::config::ClusterConfig;
use crate::metrics::{GeoMetrics, SessionRecord};
use crate::msg::Msg;
use crate::open_loop::{Admission, OpenLoopDriver, TIMER_ARRIVAL};
use crate::registry::SharedRegistry;
use eunomia_core::ids::DcId;
use eunomia_core::time::VectorTime;
use eunomia_kv::client::ClientState;
use eunomia_kv::{ring, Key, Value};
use eunomia_sim::{Context, Process, ProcessId, SimTime};
use eunomia_workload::{Op, OpGenerator};
use std::hash::Hasher;
use std::rc::Rc;

/// A client reply, decoded: the version's vector time, whether it answers
/// an update, and the version's origin datacenter where the reply names
/// one (`None`: the client's home datacenter).
pub type Reply = (VectorTime, bool, Option<DcId>);

/// One system family's client session and wire format.
pub trait ClientProtocol {
    /// The deployment's message type.
    type Msg;
    /// The request reading `key`.
    fn read(&self, key: Key) -> Self::Msg;
    /// The request writing `value` to `key`, carrying the session's
    /// dependencies.
    fn update(&self, key: Key, value: Value) -> Self::Msg;
    /// Decodes a reply, or `None` for a message that is not one.
    fn decode(msg: Self::Msg) -> Option<Reply>;
    /// Folds a reply's vector time into the session.
    fn observe(&mut self, vts: VectorTime, is_update: bool);
    /// Folds the session into the model checker's state digest, given the
    /// client's id and the key of its operation in flight.
    fn digest(&self, h: &mut dyn Hasher, client: u32, pending_key: u64);
}

/// Session of the native systems over geo's [`Msg`]: EunomiaKV keeps the
/// §4 vector session of Algorithm 1; Eventual tracks nothing, so its
/// updates carry the zero vector.
pub(crate) struct NativeSession {
    state: ClientState,
    causal: bool,
}

impl NativeSession {
    /// A fresh session homed at `dc`; `causal` selects EunomiaKV's
    /// tracking over Eventual's none.
    pub(crate) fn new(dc: usize, n_dcs: usize, causal: bool) -> Self {
        NativeSession {
            state: ClientState::new(DcId(dc as u16), n_dcs),
            causal,
        }
    }
}

impl ClientProtocol for NativeSession {
    type Msg = Msg;

    fn read(&self, key: Key) -> Msg {
        Msg::Read { key }
    }

    fn update(&self, key: Key, value: Value) -> Msg {
        // §4: the update carries the client's whole causal past (the zero
        // vector under Eventual, which never folds a reply in).
        let deps = self.state.vclock().clone();
        Msg::Update { key, value, deps }
    }

    fn decode(msg: Msg) -> Option<Reply> {
        match msg {
            Msg::ReadReply { vts, origin, .. } => Some((vts, false, Some(origin))),
            Msg::UpdateReply { vts } => Some((vts, true, None)),
            _ => None,
        }
    }

    fn observe(&mut self, vts: VectorTime, is_update: bool) {
        if !self.causal {
            return;
        }
        if is_update {
            self.state.on_update_reply(vts);
        } else {
            self.state.on_read_reply(&vts);
        }
    }

    fn digest(&self, h: &mut dyn Hasher, client: u32, pending_key: u64) {
        self.state.state_digest(h);
        h.write_u32(client);
        h.write_u64(pending_key);
    }
}

/// The client actor of every system: one generic body for issuing,
/// completion, open-loop admission, the operation budget and the
/// model-checking digest, with the wire format and session kept by `P`
/// (see [`ClientProtocol`]).
pub struct ClientProc<P> {
    session: P,
    gen: OpGenerator,
    dc: usize,
    /// Globally unique client index (keys the session log).
    id: u32,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    issued_at: SimTime,
    pending_is_update: bool,
    pending_key: u64,
    completed: u64,
    /// Present iff the run is open-loop.
    open: Option<OpenLoopDriver>,
}

impl<P: ClientProtocol> ClientProc<P> {
    /// Creates client `id` homed at datacenter `dc` with `session`.
    pub(crate) fn new(
        session: P,
        dc: usize,
        id: u32,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        let open = cfg
            .open_loop
            .as_ref()
            .map(|ol| OpenLoopDriver::new(&ol.arrivals, ol.queue_limit));
        ClientProc {
            session,
            gen: cfg.workload.generator(),
            dc,
            id,
            cfg,
            reg,
            metrics,
            issued_at: 0,
            pending_is_update: false,
            pending_key: 0,
            completed: 0,
            open,
        }
    }

    fn next_op(&mut self, ctx: &mut Context<'_, P::Msg>) -> Op {
        // Under partial replication, clients access only keys their home
        // datacenter stores (remote reads are out of scope, as in Practi's
        // partial-replication reads-go-home model).
        let mut op = self.gen.next_op(ctx.rng());
        if let Some(rf) = self.cfg.replication_factor {
            while !ring::replicates(Key(op.key()), self.dc, self.cfg.n_dcs, rf) {
                op = self.gen.next_op(ctx.rng());
            }
        }
        op
    }

    fn issue(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let op = self.next_op(ctx);
        self.send_op(ctx, op);
    }

    fn send_op(&mut self, ctx: &mut Context<'_, P::Msg>, op: Op) {
        let key = Key(op.key());
        let partition = ring::responsible(key, self.cfg.partitions_per_dc);
        let target = self.reg.borrow().partition(self.dc, partition.index());
        self.issued_at = ctx.now();
        self.pending_key = key.0;
        self.pending_is_update = op.is_update();
        let msg = match op {
            Op::Read(_) => self.session.read(key),
            Op::Update(_, value) => self.session.update(key, value),
        };
        ctx.send(target, msg);
    }

    fn complete(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let now = ctx.now();
        if let Some(driver) = self.open.as_mut() {
            // Open loop: latency runs from the *intended* arrival, so a
            // stalled reply inflates this op and every queued one behind
            // it — no coordinated omission.
            let (intended, next) = driver.on_completion(now, self.issued_at, &self.metrics);
            self.metrics.record_op(
                self.dc,
                now,
                now.saturating_sub(intended),
                self.pending_is_update,
            );
            self.completed += 1;
            if let Some(op) = next {
                if self.under_budget() {
                    self.send_op(ctx, op);
                }
            }
            return;
        }
        let latency = now.saturating_sub(self.issued_at);
        self.metrics
            .record_op(self.dc, now, latency, self.pending_is_update);
        self.completed += 1;
        if self.under_budget() {
            self.issue(ctx);
        }
    }

    fn under_budget(&self) -> bool {
        self.cfg
            .ops_per_client
            .is_none_or(|budget| self.completed < budget)
    }
}

impl<P: ClientProtocol> Process<P::Msg> for ClientProc<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        match self.open.as_mut() {
            Some(driver) => driver.start(ctx),
            None => self.issue(ctx),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_ARRIVAL, "client has no other timers");
        if !self.under_budget() {
            // Budget exhausted: let the arrival loop die by not
            // rescheduling.
            return;
        }
        let op = self.next_op(ctx);
        let driver = self.open.as_mut().expect("arrival timer without driver");
        if let Admission::Issue(op) = driver.on_arrival(ctx, op, &self.metrics) {
            self.send_op(ctx, op);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, _from: ProcessId, msg: P::Msg) {
        let Some((vts, is_update, origin)) = P::decode(msg) else {
            debug_assert!(false, "client received a message that is not a reply");
            return;
        };
        if self.cfg.track_sessions {
            self.metrics.record_session(SessionRecord {
                dc: self.dc as u16,
                client: self.id,
                key: self.pending_key,
                is_update,
                origin: origin.map_or(self.dc as u16, |o| o.0),
                vts: vts.as_ticks(),
                at: ctx.now(),
            });
        }
        self.session.observe(vts, is_update);
        self.complete(ctx);
    }

    fn mc_state(&self, mut h: &mut dyn Hasher) -> bool {
        use std::hash::Hash as _;
        self.session.digest(h, self.id, self.pending_key);
        // The generator's counters decide the keys/kinds of future ops;
        // `issued_at` is excluded (pure latency bookkeeping).
        self.gen.state_digest(h);
        self.pending_is_update.hash(&mut h);
        h.write_u64(self.completed);
        if let Some(driver) = &self.open {
            driver.state_digest(h);
        }
        true
    }
}
