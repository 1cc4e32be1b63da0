//! Criterion bench — component-level ablations of the paper's design
//! choices:
//!
//! * **Data/metadata separation (§5):** stabilizing lightweight ids versus
//!   ids carrying full 100-byte payloads through the replica both drivers
//!   run ([`ReplicaState`]). The paper decouples the two so Eunomia
//!   "handles a significantly heavier load independently of update
//!   values".
//! * **Vector width (§4):** per-op cost of vector-clock maintenance as the
//!   number of datacenters grows — the metadata-enrichment overhead that
//!   separates Cure from GentleRain.
//! * **Simulator event loop:** events/second of the discrete-event engine,
//!   to size simulation experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eunomia_core::ids::{PartitionId, ReplicaId};
use eunomia_core::replica::ReplicaState;
use eunomia_core::time::{Timestamp, VectorTime};
use eunomia_sim::{units, Context, Process, ProcessId, Simulation, Topology};
use std::hint::black_box;
use std::time::Duration;

const OPS: u64 = 4_096;
const LANES: u64 = 8;

/// Feeds `OPS` ids to a fresh leader replica in rounds of 64 — one
/// `NEW_BATCH` of 8 ids per lane, ids interleaved across lanes — and runs
/// `PROCESS_STABLE` after each round. Returns the number of stabilized
/// ids.
fn replica_cycle<T: Clone>(payload: T) -> usize {
    let mut replica: ReplicaState<T> = ReplicaState::new(ReplicaId(0), LANES as usize);
    let mut out = Vec::new();
    for round in 0..(OPS / 64) {
        for lane in 0..LANES {
            let batch = (0..64 / LANES).map(|k| {
                (
                    Timestamp(round * 64 + k * LANES + lane + 1),
                    payload.clone(),
                )
            });
            replica
                .new_batch(PartitionId(lane as u32), batch)
                .expect("lane in range");
        }
        replica.leader_process_stable(&mut out);
    }
    out.len()
}

fn data_metadata_separation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/buffer_payload");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function(BenchmarkId::from_parameter("id_only"), |b| {
        // §5: Eunomia handles (timestamp, key) ids only.
        b.iter(|| black_box(replica_cycle(0u64)))
    });
    g.bench_function(BenchmarkId::from_parameter("full_100B_payload"), |b| {
        // Strawman: the service carries the 100-byte value too.
        let value = bytes::Bytes::from(vec![0xABu8; 100]);
        b.iter(|| black_box(replica_cycle((0u64, value.clone()))))
    });
    g.bench_function(BenchmarkId::from_parameter("full_1KiB_payload"), |b| {
        let value = bytes::Bytes::from(vec![0xABu8; 1024]);
        b.iter(|| black_box(replica_cycle((0u64, value.clone()))))
    });
    g.finish();
}

fn vector_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/vector_width");
    for m in [3usize, 8, 16, 64] {
        g.bench_function(BenchmarkId::from_parameter(m), |b| {
            let mut session = VectorTime::new(m);
            let mut version = VectorTime::new(m);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                version.set(eunomia_core::ids::DcId((t % m as u64) as u16), Timestamp(t));
                session.merge_max(&version);
                black_box(session.dominates(&version))
            })
        });
    }
    g.finish();
}

struct PingPong {
    peer: Option<ProcessId>,
}

impl Process<u32> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if let Some(p) = self.peer {
            ctx.send(p, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, n: u32) {
        ctx.send(from, n + 1);
    }
}

fn sim_event_loop(c: &mut Criterion) {
    c.bench_function("ablation/sim_events_per_round", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Topology::single_region(2, units::us(1), 0), 1);
            let a = sim.add_process(0, Box::new(PingPong { peer: None }));
            let _b = sim.add_process(0, Box::new(PingPong { peer: Some(a) }));
            sim.run_until(units::ms(5));
            black_box(sim.events_processed())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(20);
    targets = data_metadata_separation, vector_width, sim_event_loop
}
criterion_main!(benches);
