#![deny(missing_docs)]

//! Eunomia core: unobtrusive deferred update stabilization.
//!
//! This crate implements the paper's primary contribution as *sans-IO*
//! state machines — pure data structures whose inputs are messages and
//! clock readings and whose outputs are returned values. Two drivers exist
//! in the workspace: the deterministic discrete-event simulator
//! (`eunomia-sim` + `eunomia-geo`) and the real-thread runtime
//! (`eunomia-runtime`). Both run exactly the code in this crate.
//!
//! Module map (paper section in parentheses):
//!
//! * [`time`] — scalar hybrid clocks (Alg. 2 line 5) and vector times
//!   with one entry per datacenter (§4).
//! * [`replica`] — the Eunomia service as the paper states it (Alg. 3
//!   and its fault-tolerant form, Alg. 4): the prefix property, the
//!   leader-driven stable broadcast (§3.1, §3.3), and
//!   [`replica::ReplicaState`], the paper's name for the one replica
//!   type.
//! * [`shard`] — that replica and the partition-side sender, implemented
//!   once for both drivers and generic over a per-id payload (`()` on the
//!   threaded runtime's path, update metadata in the simulator):
//!   per-feeder lanes with watermark dedup, a tournament tree over stable
//!   cutoffs, credit-based flow control, and id batches in
//!   [`shard::BatchFrame`]s (one allocation per batch). Stable ids leave
//!   in [`OpKey`] order, the `(timestamp, partition)` order of Alg. 3.
//! * [`election`] — an Ω-style eventual leader elector (§3.3 allows any
//!   asynchronous leader election; we provide a timeout-based one).
//! * [`sequencer`] — the traditional sequencer and its chain-replicated
//!   fault-tolerant variant, used as baselines (§7.1).
//! * [`tree`] — the fan-in propagation tree among partition servers (§5).
//!
//! # Examples
//!
//! Deferred stabilization of updates from two partitions, on the leader
//! replica (replica 0 leads by convention):
//!
//! ```
//! use eunomia_core::ids::{PartitionId, ReplicaId};
//! use eunomia_core::replica::ReplicaState;
//! use eunomia_core::time::Timestamp;
//!
//! let mut service: ReplicaState<&str> = ReplicaState::new(ReplicaId(0), 2);
//! service.new_batch(PartitionId(0), [(Timestamp(10), "a")]).unwrap();
//! service.new_batch(PartitionId(1), [(Timestamp(12), "b")]).unwrap();
//! // Only "a" is stable: partition 0 might still send ts 11.
//! let mut stable = Vec::new();
//! assert_eq!(service.leader_process_stable(&mut stable), Some(Timestamp(10)));
//! assert_eq!(stable.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec!["a"]);
//!
//! // A heartbeat from partition 0 pushes the stable time forward.
//! service.heartbeat(PartitionId(0), Timestamp(20)).unwrap();
//! service.leader_process_stable(&mut stable);
//! assert_eq!(stable.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec!["a", "b"]);
//! ```

pub mod election;
pub mod ids;
pub mod replica;
pub mod sequencer;
pub mod shard;
pub mod time;
pub mod tree;

pub use ids::{DcId, PartitionId, ReplicaId};
pub use replica::{EunomiaError, ReplicaState};
pub use shard::{BatchFrame, LaneSender, OpKey, ShardedReplicaState};
pub use time::{ScalarHlc, Timestamp, VectorTime};
