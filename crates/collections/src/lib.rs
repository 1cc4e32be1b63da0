#![warn(missing_docs)]

//! Data structures shared by the Eunomia replica, the simulator and the
//! model checker.
//!
//! * [`TournamentTree`] — the min winner tree the replica uses to merge
//!   per-lane stable cutoffs in `O(log lanes)` per watermark advance.
//!   The paper's prototype (§6) kept every unstable operation in one
//!   red-black tree; here each partition's ids arrive already sorted, so
//!   a tournament tree over the lanes' heads replaces a global ordered
//!   map.
//! * [`fasthash`] — the deterministic multiply-rotate hasher behind the
//!   simulator's hot maps (versioned stores, pending-apply tables).
//! * [`fingerprint`] — the pinned FNV-1a hasher, the order-independent
//!   fold and the fingerprint set behind the model checker's state
//!   pruning.

pub mod fasthash;
pub mod fingerprint;
mod tournament;

pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use fingerprint::{combine_unordered, hash_one, FingerprintSet, Fnv64};
pub use tournament::TournamentTree;
