//! Seq-vs-par byte-identity under *real* threads.
//!
//! The engine's contract: a run is a pure function of (protocol,
//! states, seed, schedule, fault model, topology) — the parallel path
//! may not change a single byte. Until the vendored rayon grew real
//! workers this property was vacuously true; this suite now drives it
//! against genuine interleavings across the full grid of
//! {schedule} × {topology} × {fault model} × {thread count}, with
//! repetitions per cell so scheduler-dependent divergence (a racy
//! write, a chunk boundary leak, an RNG stream shared across nodes)
//! has many chances to show up as a state or metrics mismatch.
//!
//! The protocol here is deliberately adversarial for parallelism:
//! every phase draws from its RNG (so any cross-node stream sharing
//! diverges), per-node work is variable (so chunk claiming actually
//! interleaves), serves can fail, nodes halt at data-dependent
//! rounds, and state folds message *order* into a rolling hash (so
//! even a reordering that conserves multisets is caught — delivery
//! order is part of the deterministic contract).

use gossip_sim::event::{Engine, LinkPlan};
use gossip_sim::fault::{Bernoulli, Churn, Compose, Delay};
use gossip_sim::net::{Network, NetworkConfig};
use gossip_sim::protocol::{NodeControl, Protocol, Response, Served};
use gossip_sim::rng::{PhaseRng, RngSchedule};
use gossip_sim::topology::{Complete, Hypercube, IntoTopology, RandomRegular, Ring, Torus2D};
use gossip_sim::NodeId;
use rand::Rng;
use std::sync::Arc;

/// All-phase mixing protocol (see module docs).
struct TokenMix;

#[derive(Clone, Debug, PartialEq)]
struct MixState {
    /// Rolling order-sensitive hash of everything this node saw.
    value: u64,
    pulls_made: u64,
    served: u64,
    absorbed: u64,
}

fn mix(acc: u64, x: u64) -> u64 {
    // splitmix-style avalanche: order-sensitive, collision-averse.
    let mut z = acc.wrapping_add(x).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Protocol for TokenMix {
    type State = MixState;
    type Msg = u64;
    type Query = u64;

    fn pulls(&self, _: NodeId, state: &MixState, rng: &mut PhaseRng, out: &mut Vec<u64>) {
        // Variable fan-out: 1..=3 queries, payloads from the phase RNG.
        for _ in 0..(1 + rng.gen_range(0..3)) {
            out.push(mix(state.value, rng.gen::<u64>()));
        }
    }

    fn serve(
        &self,
        id: NodeId,
        state: &MixState,
        query: &u64,
        rng: &mut PhaseRng,
    ) -> Option<Served<u64>> {
        // ~1/4 of serves fail, so the failed-pull path is exercised.
        if rng.gen_range(0..4) == 0 {
            return None;
        }
        Some(Served {
            msg: mix(state.value ^ query, u64::from(id) ^ rng.gen::<u64>()),
            slot: rng.gen_range(0..8),
        })
    }

    fn compute(
        &self,
        _: NodeId,
        state: &mut MixState,
        responses: &mut Vec<Option<Response<u64>>>,
        rng: &mut PhaseRng,
        pushes: &mut Vec<u64>,
    ) -> NodeControl {
        state.pulls_made += responses.len() as u64;
        for r in responses.iter() {
            match r {
                Some(resp) => {
                    state.value = mix(state.value, resp.msg ^ u64::from(resp.from) ^ resp.slot);
                    state.served += 1;
                }
                None => state.value = mix(state.value, 0xdead),
            }
        }
        for _ in 0..rng.gen_range(0..2) {
            pushes.push(mix(state.value, rng.gen::<u64>()));
        }
        // Data-dependent halting keeps the halted set itself a
        // determinism probe.
        if state.value % 127 == 0 {
            NodeControl::Halt
        } else {
            NodeControl::Continue
        }
    }

    fn absorb(
        &self,
        _: NodeId,
        state: &mut MixState,
        delivered: &mut Vec<u64>,
        rng: &mut PhaseRng,
    ) -> NodeControl {
        state.absorbed += delivered.len() as u64;
        // Order-sensitive fold: a reordering of deliveries diverges.
        for m in delivered.drain(..) {
            state.value = mix(state.value, m);
        }
        state.value = mix(state.value, rng.gen::<u64>() & 0xff);
        NodeControl::Continue
    }

    fn msg_words(&self, msg: &u64) -> usize {
        1 + (msg % 3) as usize
    }

    fn load(&self, s: &MixState) -> usize {
        s.value.count_ones() as usize
    }
}

fn initial_states(n: usize) -> Vec<MixState> {
    (0..n as u64)
        .map(|i| MixState {
            value: mix(0, i),
            pulls_made: 0,
            served: 0,
            absorbed: 0,
        })
        .collect()
}

/// The fault-model corners: fault-free, a wan-like lossy+laggy link
/// layer, and a flaky fleet with churn (mirroring the workload
/// presets, constructed directly so this crate stays dependency-free).
fn fault_models() -> Vec<(&'static str, Arc<dyn gossip_sim::fault::FaultModel>)> {
    vec![
        ("perfect", Arc::new(gossip_sim::fault::Perfect)),
        (
            "wan",
            Arc::new(Compose::new(vec![Arc::new(Bernoulli::new(0.05))]).and(Delay::between(1, 3))),
        ),
        (
            "flaky",
            Arc::new(
                Compose::new(vec![Arc::new(Churn::crash_recovery(0.10, 0.30))])
                    .and(Bernoulli::new(0.02)),
            ),
        ),
    ]
}

fn topologies() -> Vec<(&'static str, Arc<dyn gossip_sim::topology::Topology>)> {
    vec![
        ("complete", Complete.into_topology()),
        ("hypercube", Hypercube.into_topology()),
        ("rr8", RandomRegular(8).into_topology()),
        ("ring16", Ring(16).into_topology()),
        ("torus", Torus2D.into_topology()),
    ]
}

/// Everything observable about a run, for exact comparison.
type Trace = (
    Vec<MixState>,
    Vec<gossip_sim::metrics::RoundMetrics>,
    Vec<bool>,
);

fn run_cell(
    n: usize,
    rounds: usize,
    schedule: RngSchedule,
    fault: &Arc<dyn gossip_sim::fault::FaultModel>,
    topology: &Arc<dyn gossip_sim::topology::Topology>,
    parallel: bool,
) -> Trace {
    let cfg = NetworkConfig::with_seed(0x5eed)
        .fault(Arc::clone(fault))
        .topology(Arc::clone(topology))
        .rng_schedule(schedule);
    let cfg = if parallel {
        cfg.parallel_threshold(1)
    } else {
        cfg.sequential()
    };
    let mut net = Network::new(TokenMix, initial_states(n), cfg);
    for _ in 0..rounds {
        net.round();
    }
    let halted = (0..n).map(|i| net.is_halted(i)).collect();
    (net.states().to_vec(), net.metrics().rounds.clone(), halted)
}

/// Same observable trace, produced by the event-driven engine under a
/// given link plan (the event engine steps nodes sequentially by
/// construction, so there is no parallel knob here).
fn run_event_cell(
    n: usize,
    rounds: usize,
    schedule: RngSchedule,
    fault: &Arc<dyn gossip_sim::fault::FaultModel>,
    topology: &Arc<dyn gossip_sim::topology::Topology>,
    plan: LinkPlan,
) -> Trace {
    let cfg = NetworkConfig::with_seed(0x5eed)
        .fault(Arc::clone(fault))
        .topology(Arc::clone(topology))
        .rng_schedule(schedule)
        .engine(Engine::EventDriven(plan));
    let mut net = Network::new(TokenMix, initial_states(n), cfg);
    for _ in 0..rounds {
        net.round();
    }
    let halted = (0..n).map(|i| net.is_halted(i)).collect();
    (net.states().to_vec(), net.metrics().rounds.clone(), halted)
}

/// The full grid: {V1Compat, V2Batched} × {complete, hypercube,
/// rr8, ring16, torus} × {perfect, wan, flaky} × threads {2, 4, 8},
/// several repetitions per cell, every repetition compared
/// state-for-state and metric-for-metric against the sequential run.
#[test]
fn par_runs_are_byte_identical_to_sequential_across_the_grid() {
    let n = 1024;
    let rounds = 12;
    let reps_per_cell = 3;
    let faults = fault_models();
    let topos = topologies();
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        for (topo_name, topo) in &topos {
            for (fault_name, fault) in &faults {
                let baseline = run_cell(n, rounds, schedule, fault, topo, false);
                for threads in [2usize, 4, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("pool");
                    for rep in 0..reps_per_cell {
                        let par = pool.install(|| run_cell(n, rounds, schedule, fault, topo, true));
                        assert_eq!(
                            par, baseline,
                            "divergence: {schedule:?}/{topo_name}/{fault_name}/threads={threads}/rep={rep}"
                        );
                    }
                }
            }
        }
    }
}

/// Repetition hammer on the hardest cell (most threads, delay + loss,
/// neighbor-bounded draws): a race that needs a rare interleaving gets
/// many more chances here.
#[test]
fn hardest_cell_survives_many_repetitions() {
    let n = 512;
    let rounds = 10;
    let fault: Arc<dyn gossip_sim::fault::FaultModel> =
        Arc::new(Compose::new(vec![Arc::new(Bernoulli::new(0.08))]).and(Delay::between(1, 4)));
    let topo = RandomRegular(8).into_topology();
    let baseline = run_cell(n, rounds, RngSchedule::V2Batched, &fault, &topo, false);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool");
    for rep in 0..25 {
        let par = pool.install(|| run_cell(n, rounds, RngSchedule::V2Batched, &fault, &topo, true));
        assert_eq!(par, baseline, "rep {rep} diverged");
    }
}

/// The unit-latency degeneracy at the raw-network level, across the
/// same adversarial grid the parallel suite runs: for every
/// {schedule} × {topology} × {fault model} cell, the event engine
/// under `LinkPlan::unit()` must produce the identical Trace —
/// per-node states (order-sensitive rolling hashes), per-round
/// metrics, and the halted set — as the round-synchronous engine.
#[test]
fn event_unit_matches_round_sync_across_the_grid() {
    let n = 512;
    let rounds = 10;
    let faults = fault_models();
    let topos = topologies();
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        for (topo_name, topo) in &topos {
            for (fault_name, fault) in &faults {
                let round_sync = run_cell(n, rounds, schedule, fault, topo, false);
                let event = run_event_cell(n, rounds, schedule, fault, topo, LinkPlan::unit());
                assert_eq!(
                    event, round_sync,
                    "engines diverged: {schedule:?}/{topo_name}/{fault_name}"
                );
            }
        }
    }
}

/// Event-driven scheduling is thread-count-invariant: the queue's
/// (time, seq) total order — not rayon's chunk claiming — decides
/// every interleaving, so running the identical heterogeneous-latency
/// cell inside 1-, 2-, and 4-thread pools must be byte-identical. The
/// plan here has real multi-tick latencies and loss, so the event
/// paths that *don't* exist under unit links are exercised too.
#[test]
fn event_scheduling_is_thread_count_invariant() {
    let n = 512;
    let rounds = 16;
    let plan = LinkPlan::Uniform {
        min: 1,
        max: 3,
        loss_ppm: 20_000,
    };
    let fault = fault_models().remove(1).1; // wan: loss + delay faults on top
    let topo = RandomRegular(8).into_topology();
    let run = || {
        run_event_cell(
            n,
            rounds,
            RngSchedule::V2Batched,
            &fault,
            &topo,
            plan.clone(),
        )
    };
    let baseline = run();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let trace = pool.install(run);
        assert_eq!(trace, baseline, "threads={threads}");
    }
}

/// The halted-set evolution (which nodes halt in which round) is also
/// identical under threads — halting feeds back into later rounds'
/// work, so a divergence would compound; checking it directly
/// localizes failures.
#[test]
fn halting_progression_is_thread_invariant() {
    let n = 768;
    let fault: Arc<dyn gossip_sim::fault::FaultModel> = Arc::new(Churn::crash_recovery(0.05, 0.5));
    let topo = Complete.into_topology();
    let per_round = |parallel: bool, pool: Option<&rayon::ThreadPool>| -> Vec<u64> {
        let body = || {
            let cfg = NetworkConfig::with_seed(99)
                .fault(Arc::clone(&fault))
                .topology(Arc::clone(&topo));
            let cfg = if parallel {
                cfg.parallel_threshold(1)
            } else {
                cfg.sequential()
            };
            let mut net = Network::new(TokenMix, initial_states(n), cfg);
            (0..15)
                .map(|_| {
                    net.round();
                    net.halted_count()
                })
                .collect()
        };
        match pool {
            Some(p) => p.install(body),
            None => body(),
        }
    };
    let seq = per_round(false, None);
    for threads in [2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        assert_eq!(per_round(true, Some(&pool)), seq, "threads={threads}");
    }
}
