//! Timestamps, hybrid clocks and vector times.
//!
//! The paper combines logical and physical time (§3.2): update timestamps
//! are scalars derived from a loosely synchronized physical clock, with a
//! logical bump that keeps them strictly monotone per partition and strictly
//! above each client's causal past. [`ScalarHlc`] implements exactly the
//! rule of Algorithm 2 line 5. [`VectorTime`] is the one-entry-per-
//! datacenter vector of §4.

use std::fmt;
use std::ops::{Add, Sub};

/// A scalar timestamp in clock ticks (nanoseconds throughout this
/// workspace).
///
/// `Timestamp(0)` is the bottom element (before every event). Timestamps
/// produced by a single partition are strictly increasing (Property 2 of
/// the paper); timestamps across partitions order causally related updates
/// (Property 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The bottom timestamp, ordered before every update.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The top timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Raw tick value.
    pub fn as_ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a tick delta.
    pub fn saturating_add(self, delta: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(delta))
    }

    /// Saturating difference in ticks.
    pub fn saturating_sub(self, other: Timestamp) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// Maximum of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.max(other.0))
    }

    /// Minimum of two timestamps.
    pub fn min(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.min(other.0))
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: u64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;

    fn sub(self, rhs: Timestamp) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The scalar hybrid clock of Algorithm 2.
///
/// Each partition owns one. Ticking with the current physical clock reading
/// and the client's dependency clock yields the update timestamp
/// `MaxTs <- max(phys, dep + 1, MaxTs + 1)`, which is:
///
/// * strictly greater than the dependency (Property 1),
/// * strictly greater than any timestamp this clock issued before
///   (Property 2),
/// * and no further ahead of real time than the causal past forces it to
///   be — the logical bump replaces the "wait out the clock skew" delays of
///   purely physical schemes (§3.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarHlc {
    max_ts: Timestamp,
}

impl ScalarHlc {
    /// A fresh clock that has issued no timestamps.
    pub fn new() -> Self {
        ScalarHlc {
            max_ts: Timestamp::ZERO,
        }
    }

    /// Issues the timestamp for an update, given the physical clock reading
    /// `physical` and the client's causal dependency `dep`.
    pub fn tick(&mut self, physical: Timestamp, dep: Timestamp) -> Timestamp {
        let ts = Timestamp(physical.0.max(dep.0 + 1).max(self.max_ts.0 + 1));
        self.max_ts = ts;
        ts
    }

    /// Issues a timestamp for a local event with no external dependency.
    pub fn tick_local(&mut self, physical: Timestamp) -> Timestamp {
        self.tick(physical, Timestamp::ZERO)
    }

    /// The latest timestamp issued (`MaxTs` in the paper).
    pub fn last(&self) -> Timestamp {
        self.max_ts
    }

    /// Whether the heartbeat condition of Algorithm 2 line 11 holds: the
    /// physical clock has advanced at least `delta` past the last issued
    /// timestamp, so a heartbeat stamped `physical` cannot be overtaken.
    pub fn heartbeat_due(&self, physical: Timestamp, delta: u64) -> bool {
        physical.0 >= self.max_ts.0.saturating_add(delta)
    }

    /// Issues a heartbeat timestamp (the physical reading) and records it so
    /// that subsequent updates are stamped strictly above it, keeping the
    /// per-partition stream monotone even if the physical clock stalls
    /// within one microsecond.
    pub fn heartbeat(&mut self, physical: Timestamp) -> Timestamp {
        debug_assert!(
            physical > self.max_ts,
            "heartbeat_due must be checked first"
        );
        self.max_ts = physical;
        physical
    }
}

/// Datacenter counts up to this stay inline in a [`VectorTime`] (no heap
/// allocation); larger deployments spill to a pooled buffer. Vector
/// times ride on every client-path message, so a clone must never be a
/// malloc/free pair: the paper's 3-DC deployment and the 8-DC `massive`
/// scenario both fit inline (8 entries keep the message enums within a
/// few cache lines), and wider deployments (the 16+-DC `huge` presets)
/// draw their entry buffers from a per-thread free-list pool instead of
/// the allocator.
const INLINE_DCS: usize = 8;

/// Per-length cap on pooled spill buffers; beyond it, dropped buffers
/// free normally (the pool is a backstop, not an unbounded cache).
const POOL_CAP: usize = 4096;

thread_local! {
    /// Free lists of spilled entry buffers, indexed by length. One
    /// simulation run uses a single datacenter count, so in the steady
    /// state every clone/drop is a pop/push on one list — the "payload
    /// arena" that replaces per-message allocator churn at 16+ DCs.
    static VT_POOL: std::cell::RefCell<Vec<Vec<Box<[Timestamp]>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A fixed-length entry buffer that returns itself to [`VT_POOL`] on
/// drop and clones by drawing from it.
struct PooledEntries(std::mem::ManuallyDrop<Box<[Timestamp]>>);

impl PooledEntries {
    /// A buffer of `len` zero timestamps, reusing a pooled one if
    /// available.
    fn zeroed(len: usize) -> Self {
        let recycled = VT_POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                pool.get_mut(len).and_then(|list| list.pop())
            })
            .ok()
            .flatten();
        match recycled {
            Some(mut buf) => {
                buf.fill(Timestamp::ZERO);
                PooledEntries(std::mem::ManuallyDrop::new(buf))
            }
            None => PooledEntries(std::mem::ManuallyDrop::new(
                vec![Timestamp::ZERO; len].into_boxed_slice(),
            )),
        }
    }

    fn copy_of(src: &[Timestamp]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.0.copy_from_slice(src);
        buf
    }
}

impl Drop for PooledEntries {
    fn drop(&mut self) {
        // SAFETY: `self.0` is never used again; either the pool owns the
        // box now or it drops right here.
        let buf = unsafe { std::mem::ManuallyDrop::take(&mut self.0) };
        let len = buf.len();
        // `try_with` so drops during thread teardown (TLS already gone)
        // fall back to a plain free.
        let _ = VT_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() <= len {
                pool.resize_with(len + 1, Vec::new);
            }
            if pool[len].len() < POOL_CAP {
                pool[len].push(buf);
            }
        });
    }
}

impl Clone for PooledEntries {
    fn clone(&self) -> Self {
        PooledEntries::copy_of(&self.0)
    }
}

impl fmt::Debug for PooledEntries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[derive(Clone, Debug)]
enum VtRepr {
    Inline {
        len: u8,
        entries: [Timestamp; INLINE_DCS],
    },
    Heap(PooledEntries),
}

/// A vector time with one [`Timestamp`] entry per datacenter (§4).
///
/// Entry `m` carries the causal dependency on datacenter `m`'s update
/// stream. Vector times avoid the false cross-datacenter dependencies a
/// single scalar would introduce, which is what lets EunomiaKV reach the
/// optimal remote-visibility lower bound (latency from the *originating*
/// datacenter rather than the farthest one).
///
/// Stored inline (copy, no allocation) for up to `INLINE_DCS` (4)
/// datacenters; equality and hashing are over the logical entries, so
/// representation never leaks.
#[derive(Clone, Debug)]
pub struct VectorTime(VtRepr);

impl Default for VectorTime {
    fn default() -> Self {
        VectorTime(VtRepr::Inline {
            len: 0,
            entries: [Timestamp::ZERO; INLINE_DCS],
        })
    }
}

impl PartialEq for VectorTime {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for VectorTime {}

impl std::hash::Hash for VectorTime {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl VectorTime {
    /// The zero vector over `m` datacenters.
    pub fn new(m: usize) -> Self {
        if m <= INLINE_DCS {
            VectorTime(VtRepr::Inline {
                len: m as u8,
                entries: [Timestamp::ZERO; INLINE_DCS],
            })
        } else {
            VectorTime(VtRepr::Heap(PooledEntries::zeroed(m)))
        }
    }

    /// Builds from raw tick entries.
    pub fn from_ticks(entries: &[u64]) -> Self {
        let mut vt = VectorTime::new(entries.len());
        for (slot, &e) in vt.as_mut_slice().iter_mut().zip(entries.iter()) {
            *slot = Timestamp(e);
        }
        vt
    }

    #[inline]
    fn as_slice(&self) -> &[Timestamp] {
        match &self.0 {
            VtRepr::Inline { len, entries } => &entries[..*len as usize],
            VtRepr::Heap(v) => &v.0,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Timestamp] {
        match &mut self.0 {
            VtRepr::Inline { len, entries } => &mut entries[..*len as usize],
            VtRepr::Heap(v) => &mut v.0,
        }
    }

    /// Number of entries (datacenters).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Entry for datacenter `dc`.
    pub fn get(&self, dc: crate::ids::DcId) -> Timestamp {
        self.as_slice()[dc.index()]
    }

    /// Sets the entry for datacenter `dc`.
    pub fn set(&mut self, dc: crate::ids::DcId, ts: Timestamp) {
        self.as_mut_slice()[dc.index()] = ts;
    }

    /// Pointwise maximum with `other` (client read rule of §4).
    pub fn merge_max(&mut self, other: &VectorTime) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = (*a).max(*b);
        }
    }

    /// Whether every entry of `self` is `>=` the matching entry of `other`
    /// (i.e. `other`'s dependencies are covered by `self`).
    pub fn dominates(&self, other: &VectorTime) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a >= b)
    }

    /// Whether `self` covers `other` on every entry except the ones in
    /// `skip` — the receiver's dependency check of Algorithm 5 line 12,
    /// which exempts the local datacenter and the update's origin.
    pub fn dominates_except(&self, other: &VectorTime, skip: &[crate::ids::DcId]) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .enumerate()
            .all(|(i, (a, b))| skip.iter().any(|dc| dc.index() == i) || a >= b)
    }

    /// Minimum entry (used by scalar global-stabilization baselines).
    pub fn min_entry(&self) -> Timestamp {
        self.as_slice()
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Iterates over entries.
    pub fn iter(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.as_slice().iter().copied()
    }

    /// Raw tick entries.
    pub fn as_ticks(&self) -> Vec<u64> {
        self.as_slice().iter().map(|t| t.0).collect()
    }
}

impl fmt::Display for VectorTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", t.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DcId;
    use proptest::prelude::*;

    #[test]
    fn scalar_hlc_follows_alg2_rule() {
        let mut clock = ScalarHlc::new();
        // Physical ahead of everything: timestamp = physical.
        assert_eq!(clock.tick(Timestamp(100), Timestamp(50)), Timestamp(100));
        // Dependency ahead of physical: timestamp = dep + 1 (no waiting).
        assert_eq!(clock.tick(Timestamp(101), Timestamp(500)), Timestamp(501));
        // Physical behind MaxTs: timestamp = MaxTs + 1 (monotonicity).
        assert_eq!(clock.tick(Timestamp(102), Timestamp(0)), Timestamp(502));
    }

    #[test]
    fn scalar_hlc_is_strictly_monotone() {
        let mut clock = ScalarHlc::new();
        let mut prev = Timestamp::ZERO;
        for i in 0..1000u64 {
            // Physical clock that stalls (integer division) and jumps.
            let ts = clock.tick(Timestamp(i / 10), Timestamp(i % 7));
            assert!(ts > prev, "timestamps must strictly increase");
            prev = ts;
        }
    }

    #[test]
    fn heartbeat_due_and_monotone() {
        let mut clock = ScalarHlc::new();
        clock.tick(Timestamp(100), Timestamp::ZERO);
        assert!(!clock.heartbeat_due(Timestamp(104), 5));
        assert!(clock.heartbeat_due(Timestamp(105), 5));
        let hb = clock.heartbeat(Timestamp(105));
        assert_eq!(hb, Timestamp(105));
        // An update right after the heartbeat must exceed it even if the
        // physical clock has not advanced.
        let ts = clock.tick(Timestamp(105), Timestamp::ZERO);
        assert!(ts > hb);
    }

    #[test]
    fn vector_time_merge_and_dominates() {
        let mut a = VectorTime::from_ticks(&[5, 0, 9]);
        let b = VectorTime::from_ticks(&[3, 7, 9]);
        assert!(!a.dominates(&b));
        a.merge_max(&b);
        assert_eq!(a, VectorTime::from_ticks(&[5, 7, 9]));
        assert!(a.dominates(&b));
        assert_eq!(a.min_entry(), Timestamp(5));
    }

    #[test]
    fn dominates_except_skips_entries() {
        let site = VectorTime::from_ticks(&[0, 100, 0]);
        let dep = VectorTime::from_ticks(&[999, 50, 888]);
        // Skipping dc0 (local) and dc2 (origin) leaves only dc1 to check.
        assert!(site.dominates_except(&dep, &[DcId(0), DcId(2)]));
        assert!(!site.dominates_except(&dep, &[DcId(0)]));
    }

    #[test]
    fn wide_vectors_spill_and_pool_roundtrip() {
        // 16 DCs exceeds the inline capacity: entries live in a pooled
        // buffer and must survive clone/merge/drop cycles unchanged.
        let mut a = VectorTime::new(16);
        a.set(DcId(15), Timestamp(7));
        a.set(DcId(0), Timestamp(3));
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.get(DcId(15)), Timestamp(7));
        drop(a);
        // A fresh wide vector reuses the dropped buffer and must come
        // back zeroed, not carrying the old entries.
        let c = VectorTime::new(16);
        assert_eq!(c.len(), 16);
        assert!(c.iter().all(|t| t == Timestamp::ZERO));
        let mut m = VectorTime::new(16);
        m.merge_max(&b);
        assert_eq!(m, b);
        assert!(m.dominates(&c));
    }

    #[test]
    fn vector_time_set_get_roundtrip() {
        let mut v = VectorTime::new(3);
        v.set(DcId(1), Timestamp(42));
        assert_eq!(v.get(DcId(1)), Timestamp(42));
        assert_eq!(v.get(DcId(0)), Timestamp::ZERO);
        assert_eq!(v.to_string(), "[0,42,0]");
    }

    proptest! {
        /// Property 1 analogue: a tick is strictly above its dependency.
        #[test]
        fn tick_exceeds_dependency(phys in 0u64..1_000_000, dep in 0u64..1_000_000) {
            let mut c = ScalarHlc::new();
            let ts = c.tick(Timestamp(phys), Timestamp(dep));
            prop_assert!(ts.0 > dep);
            prop_assert!(ts.0 >= phys);
        }

        /// The logical bump never pushes further ahead than needed: with no
        /// dependencies and an advancing physical clock, ts == physical.
        #[test]
        fn tick_tracks_physical(start in 1u64..1_000_000) {
            let mut c = ScalarHlc::new();
            for i in 0..100u64 {
                let phys = Timestamp(start + i * 10);
                let ts = c.tick_local(phys);
                prop_assert_eq!(ts, phys);
            }
        }

        /// merge_max is commutative, associative and idempotent (join).
        #[test]
        fn merge_max_is_a_join(
            a in proptest::collection::vec(0u64..1000, 4),
            b in proptest::collection::vec(0u64..1000, 4),
        ) {
            let va = VectorTime::from_ticks(&a);
            let vb = VectorTime::from_ticks(&b);
            let mut ab = va.clone();
            ab.merge_max(&vb);
            let mut ba = vb.clone();
            ba.merge_max(&va);
            prop_assert_eq!(&ab, &ba);
            prop_assert!(ab.dominates(&va) && ab.dominates(&vb));
            let mut idem = ab.clone();
            idem.merge_max(&ab.clone());
            prop_assert_eq!(idem, ab);
        }
    }
}
