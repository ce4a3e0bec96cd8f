//! The round engine's zero-allocation guarantee, enforced with a
//! counting global allocator: once the scratch buffers have warmed up,
//! a steady-state round under the `Perfect` fault model performs **no**
//! heap allocations for the rumor-spreading protocol.
//!
//! This file holds exactly one test: the allocation counter is
//! process-global, and a concurrently running test would pollute it.
//!
//! The rumor payload is deliberately zero-sized: with a sized payload,
//! an inbox occasionally breaks its historical occupancy record
//! (balls-in-bins maxima grow like `log t`) and must grow its
//! capacity, which is engine-inherent amortized growth, not a per-
//! round leak. The ZST rumor pins the strict zero-allocation property
//! of the engine itself; the sized-payload throughput win is measured
//! by the `round_engine` bench instead.

use gossip_sim::{
    Network, NetworkConfig, NodeControl, PhaseRng, Protocol, Response, RngSchedule, Served,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (frees are irrelevant: a
/// free implies a matching earlier count).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Push rumor spreading: every informed node pushes one token per
/// round; in saturation every node pushes every round, so each round
/// moves `n` messages through queries/compute/delivery/absorb — the
/// round engine's full data path with zero protocol-side allocation.
struct PushRumor;

#[derive(Clone)]
struct RumorState {
    informed: bool,
}

impl Protocol for PushRumor {
    type State = RumorState;
    type Msg = ();
    type Query = ();

    fn pulls(&self, _: u32, _: &RumorState, _: &mut PhaseRng, _: &mut Vec<()>) {}

    fn serve(&self, _: u32, _: &RumorState, _: &(), _: &mut PhaseRng) -> Option<Served<()>> {
        None
    }

    fn compute(
        &self,
        _: u32,
        state: &mut RumorState,
        _: &mut Vec<Option<Response<()>>>,
        _: &mut PhaseRng,
        pushes: &mut Vec<()>,
    ) -> NodeControl {
        if state.informed {
            pushes.push(());
        }
        NodeControl::Continue
    }

    fn absorb(
        &self,
        _: u32,
        state: &mut RumorState,
        delivered: &mut Vec<()>,
        _: &mut PhaseRng,
    ) -> NodeControl {
        if !delivered.is_empty() {
            state.informed = true;
        }
        NodeControl::Continue
    }
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    use gossip_sim::topology::{Complete, Hypercube, IntoTopology, Topology};
    use std::sync::Arc;
    // Both schedules must hold the guarantee: their destination sweeps
    // refill the pre-sized `push_dests` / `pull_targets` scratch rows
    // in place, and the per-round `BatchedSampler` (V2) and per-node
    // streams (V1) live on the stack. And both on a non-complete
    // topology: the CSR adjacency
    // arena is built once at construction and only *read* per round
    // (neighbor-bounded draws resolve through it in place).
    let topologies: [Arc<dyn Topology>; 2] = [Complete.into_topology(), Hypercube.into_topology()];
    for topology in topologies {
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let n = 2048;
            let states: Vec<_> = (0..n).map(|i| RumorState { informed: i == 0 }).collect();
            let mut net = Network::new(
                PushRumor,
                states,
                // Sequential so a real (threaded) rayon would not attribute
                // its own pool allocations to the round engine.
                NetworkConfig::with_seed(7)
                    .sequential()
                    .rng_schedule(schedule)
                    .topology(Arc::clone(&topology)),
            );
            // Warm-up: saturate the rumor and let every scratch buffer
            // reach its steady-state capacity.
            for _ in 0..40 {
                net.round();
            }
            assert!(
                net.states().iter().all(|s| s.informed),
                "rumor must saturate during warm-up ({schedule:?}, {})",
                topology.name()
            );
            // The per-round metrics log is the one thing that must still grow.
            net.reserve_rounds(64);

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..50 {
                net.round();
            }
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "steady-state rounds must perform zero heap allocations \
                 ({schedule:?}, {})",
                topology.name()
            );
        }
    }

    // The same guarantee on the *parallel* path, under a real
    // two-worker pool. Region dispatch is allocation-free by design:
    // no boxed jobs — the caller publishes a `&dyn Fn(usize)` on its
    // stack and workers claim chunk indices off a shared atomic — and
    // Linux mutex/condvar park without heap traffic. Pool construction
    // and warm-up happen outside the measured window; the window then
    // spans 50 fully-fanned-out rounds (4 parallel regions each: pull,
    // serve, compute, absorb; the offline scan is skipped under
    // `Perfect`).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool");
    pool.install(|| {
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let n = 2048;
            let states: Vec<_> = (0..n).map(|i| RumorState { informed: i == 0 }).collect();
            let mut net = Network::new(
                PushRumor,
                states,
                NetworkConfig::with_seed(7)
                    .parallel_threshold(1)
                    .rng_schedule(schedule),
            );
            for _ in 0..40 {
                net.round();
            }
            assert!(
                net.states().iter().all(|s| s.informed),
                "rumor must saturate during warm-up ({schedule:?}, parallel)"
            );
            net.reserve_rounds(64);

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..50 {
                net.round();
            }
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "steady-state parallel rounds must perform zero heap \
                 allocations ({schedule:?}, threads=2)"
            );
        }
    });
}
