//! Reproducibility: a simulation is a pure function of (problem,
//! elements, n, algorithm, stop, seed) — across repeated runs and
//! across sequential vs Rayon-parallel node stepping.

use gossip_sim::{Network, NetworkConfig, RngSchedule};
use lpt_gossip::driver::scatter;
use lpt_gossip::low_load::{LowLoadClarkson, LowLoadConfig};
use lpt_gossip::{Driver, RunReport};
use lpt_problems::Med;
use lpt_workloads::med::{duo_disk, triple_disk};

/// A seq/par comparison passes vacuously when the "parallel" run fell
/// back to sequential stepping; on a host with two or more cores it
/// must really have taken the parallel path.
fn assert_parallel_engaged<O>(report: &RunReport<O>) {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            report.exec.parallel,
            "parallel run stayed sequential: {:?}",
            report.exec
        );
    }
}

#[test]
fn repeated_runs_are_identical() {
    let points = triple_disk(128, 70);
    let driver = Driver::new(Med).nodes(128).seed(70);
    let a = driver.run(&points).expect("run");
    let b = driver.run(&points).expect("run");
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.outputs.len(), b.outputs.len());
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(
            x.as_ref().map(|b| b.value.r2),
            y.as_ref().map(|b| b.value.r2)
        );
    }
    assert_eq!(a.metrics.total_ops(), b.metrics.total_ops());
}

#[test]
fn parallel_and_sequential_stepping_agree() {
    let n = 512;
    let points = triple_disk(n, 71);
    // Both schedules: the batch sweeps of V2Batched run outside the
    // parallel sections, so stepping mode must stay invisible there
    // exactly as it is for the per-node streams of V1Compat.
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        let run = |parallel: bool| {
            let proto = LowLoadClarkson::new(Med, n, &LowLoadConfig::default());
            let states: Vec<_> = scatter(&points, n, 71)
                .expect("n > 0")
                .into_iter()
                .map(|h0| proto.initial_state(h0))
                .collect();
            let cfg = if parallel {
                NetworkConfig::with_seed(71).parallel_threshold(1)
            } else {
                NetworkConfig::with_seed(71).sequential()
            };
            let mut net = Network::new(proto, states, cfg.rng_schedule(schedule));
            for _ in 0..12 {
                net.round();
            }
            let loads: Vec<usize> = net.states().iter().map(|s| s.held()).collect();
            (loads, net.metrics().rounds.clone())
        };
        let (loads_par, metrics_par) = run(true);
        let (loads_seq, metrics_seq) = run(false);
        assert_eq!(
            loads_par, loads_seq,
            "per-node element counts must match bit-for-bit ({schedule:?})"
        );
        assert_eq!(
            metrics_par, metrics_seq,
            "round metrics must match ({schedule:?})"
        );
    }
}

/// The schedule tag round-trips through the report: the default is
/// V2Batched, an explicit choice is recorded verbatim, and the tag
/// rides along byte-identically across reruns.
#[test]
fn run_report_carries_its_schedule_tag() {
    let points = duo_disk(128, 44);
    let default = Driver::new(Med)
        .nodes(128)
        .seed(44)
        .run(&points)
        .expect("run");
    assert_eq!(default.schedule, RngSchedule::V2Batched);
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        let report = Driver::new(Med)
            .nodes(128)
            .seed(44)
            .rng_schedule(schedule)
            .run(&points)
            .expect("run");
        assert_eq!(report.schedule, schedule);
        let rerun = Driver::new(Med)
            .nodes(128)
            .seed(44)
            .rng_schedule(schedule)
            .run(&points)
            .expect("run");
        assert_eq!(report.canonical(), rerun.canonical());
    }
}

#[test]
fn driver_parallel_flag_changes_nothing() {
    let points = triple_disk(256, 74);
    let base = Driver::new(Med).nodes(256).seed(74);
    let a = base.clone().parallel(true).run(&points).expect("run");
    let b = base.parallel(false).run(&points).expect("run");
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.metrics.total_ops(), b.metrics.total_ops());
    assert_eq!(
        a.consensus_output().map(|x| x.value.r2),
        b.consensus_output().map(|x| x.value.r2)
    );
}

#[test]
fn fault_models_are_deterministic_across_parallelism_and_reruns() {
    // Same seed + same fault model ⇒ byte-identical RunReport payload,
    // whether nodes are stepped sequentially or with Rayon, and across
    // reruns.
    use gossip_sim::fault::{Bernoulli, Churn, Compose, Delay};
    let points = triple_disk(512, 90);
    let fault = || {
        Compose::default()
            .and(Bernoulli::new(0.15))
            .and(Churn::crash_recovery(0.25, 0.2))
            .and(Delay::uniform(2))
    };
    let run = |parallel: bool| {
        Driver::new(Med)
            .nodes(512)
            .seed(90)
            .parallel(parallel)
            .parallel_threshold(1)
            .fault_model(fault())
            .run(&points)
            .expect("run")
    };
    let par = run(true);
    let seq = run(false);
    let rerun = run(true);
    assert_parallel_engaged(&par);
    assert_eq!(
        par.canonical(),
        seq.canonical(),
        "sequential and parallel stepping must yield byte-identical reports"
    );
    assert_eq!(
        par.canonical(),
        rerun.canonical(),
        "reruns must be byte-identical"
    );
    // The fault machinery was actually exercised, and its counters are
    // part of the compared bytes.
    assert!(par.faults.messages_dropped > 0);
    assert!(par.faults.messages_delayed > 0);
    assert!(par.faults.offline_node_rounds > 0);
    assert_eq!(par.faults.messages_dropped, par.metrics.total_dropped());
    assert_eq!(par.faults.messages_delayed, par.metrics.total_delayed());
    assert_eq!(
        par.faults.offline_node_rounds,
        par.metrics.offline_node_rounds()
    );
}

/// The delay queue's slot recycling (pop, drain, retire to a pool,
/// swap back in) must not change what gets delivered when: these
/// trajectories were captured on the allocate-per-round engine, and the
/// total-ops pin transitively pins per-inbox delivery *order* (each
/// node's filtering step draws one RNG decision per held element, so a
/// single reordered or duplicated delivery shifts every subsequent
/// draw and the operation count with it).
#[test]
fn delay_queue_rebuild_matches_pinned_trajectories() {
    use gossip_sim::fault::{Bernoulli, Compose, Delay};
    let report = Driver::new(Med)
        .nodes(256)
        .seed(55)
        .rng_schedule(RngSchedule::V1Compat)
        .fault_model(Delay::between(1, 3))
        .run(&duo_disk(256, 55))
        .expect("run");
    assert_eq!(
        (
            report.rounds,
            report.metrics.total_ops(),
            report.metrics.total_delayed(),
            report.metrics.total_dropped(),
        ),
        (25, 847_734, 75_536, 0),
        "pure-delay V1 trajectory moved"
    );

    // Loss + delay composed: exercises the pending queue while pushes
    // are also being dropped.
    let report = Driver::new(Med)
        .nodes(200)
        .seed(56)
        .rng_schedule(RngSchedule::V1Compat)
        .fault_model(
            Compose::default()
                .and(Bernoulli::new(0.1))
                .and(Delay::uniform(2)),
        )
        .run(&duo_disk(200, 56))
        .expect("run");
    assert_eq!(
        (
            report.rounds,
            report.metrics.total_ops(),
            report.metrics.total_delayed(),
            report.metrics.total_dropped(),
        ),
        (24, 637_233, 32_782, 50_698),
        "mixed loss+delay V1 trajectory moved"
    );
}

/// The same two fault configurations re-pinned under the default
/// batched schedule (captured on this engine at the schedule's
/// introduction): the delay queue and fault accounting stay exactly
/// reproducible under V2Batched too.
#[test]
fn delay_queue_v2_trajectories_are_pinned() {
    use gossip_sim::fault::{Bernoulli, Compose, Delay};
    let report = Driver::new(Med)
        .nodes(256)
        .seed(55)
        .fault_model(Delay::between(1, 3))
        .run(&duo_disk(256, 55))
        .expect("run");
    assert_eq!(report.schedule, RngSchedule::V2Batched);
    assert_eq!(
        (
            report.rounds,
            report.metrics.total_ops(),
            report.metrics.total_delayed(),
            report.metrics.total_dropped(),
        ),
        (25, 848_933, 75_628, 0),
        "pure-delay V2 trajectory moved"
    );

    let report = Driver::new(Med)
        .nodes(200)
        .seed(56)
        .fault_model(
            Compose::default()
                .and(Bernoulli::new(0.1))
                .and(Delay::uniform(2)),
        )
        .run(&duo_disk(200, 56))
        .expect("run");
    assert_eq!(
        (
            report.rounds,
            report.metrics.total_ops(),
            report.metrics.total_delayed(),
            report.metrics.total_dropped(),
        ),
        (24, 634_478, 32_724, 50_546),
        "mixed loss+delay V2 trajectory moved"
    );
}

/// A delayed run is bit-identical across sequential and parallel
/// stepping *and* across reruns of the same network object — the
/// scratch buffers and the delay-queue pool carry no state between
/// runs that could leak into results.
#[test]
fn delay_metrics_agree_across_parallelism() {
    use gossip_sim::fault::Delay;
    let points = triple_disk(512, 91);
    let run = |parallel: bool| {
        Driver::new(Med)
            .nodes(512)
            .seed(91)
            .parallel(parallel)
            .parallel_threshold(1)
            .fault_model(Delay::between(1, 4))
            .run(&points)
            .expect("run")
    };
    let par = run(true);
    let seq = run(false);
    assert_parallel_engaged(&par);
    assert_eq!(
        par.canonical(),
        seq.canonical(),
        "delayed runs must be byte-identical across stepping modes"
    );
    assert!(par.faults.messages_delayed > 0, "delay was exercised");
    // Per-round delivery accounting must match, round by round.
    let delayed: Vec<u64> = par.metrics.rounds.iter().map(|r| r.delayed).collect();
    let delayed_seq: Vec<u64> = seq.metrics.rounds.iter().map(|r| r.delayed).collect();
    assert_eq!(delayed, delayed_seq);
}

/// One pinned (rounds, ops) trajectory per protocol family on a
/// non-complete topology, captured at the topology seam's introduction
/// under the default `V2Batched` schedule: the neighbor-bounded draw
/// path (batched Lemire over neighbor-list indices, resolved through
/// the CSR arena) is now as frozen as the complete-graph path. Any
/// drift here means either the overlay construction or the
/// degree-aware sampling moved — both schedule-bump events, never
/// silent edits.
#[test]
fn non_complete_topology_trajectories_are_pinned() {
    use lpt_gossip::topology::{Hypercube, RandomRegular, Ring};
    use lpt_gossip::Algorithm;
    use std::sync::Arc;

    let report = Driver::new(Med)
        .nodes(128)
        .seed(1)
        .topology(Hypercube)
        .run(&duo_disk(128, 1))
        .expect("run");
    assert_eq!(report.schedule, RngSchedule::V2Batched);
    assert_eq!(report.topology, "hypercube");
    assert_eq!(
        (report.rounds, report.metrics.total_ops()),
        (23, 383_044),
        "low-load hypercube V2 trajectory moved"
    );

    let report = Driver::new(Med)
        .nodes(256)
        .seed(2)
        .algorithm(Algorithm::high_load())
        .topology(RandomRegular(8))
        .run(&lpt_workloads::med::triple_disk(256, 2))
        .expect("run");
    assert_eq!(report.topology, "random-regular");
    assert_eq!(
        (report.rounds, report.metrics.total_ops()),
        (31, 103_017),
        "high-load random-regular(8) V2 trajectory moved"
    );

    let (sys, _) = lpt_workloads::sets::planted_hitting_set(128, 32, 3, 6, 31);
    let report = Driver::new(Arc::new(sys))
        .nodes(128)
        .seed(31)
        .algorithm(Algorithm::hitting_set(3))
        .topology(Ring(16))
        .run_ground()
        .expect("run");
    assert_eq!(report.topology, "ring");
    assert_eq!(
        (report.rounds, report.metrics.total_ops()),
        (19, 49_007),
        "hitting-set ring(16) V2 trajectory moved"
    );
}

/// Overlay runs are byte-identical across sequential and parallel
/// stepping and across reruns: the CSR arena is immutable after
/// construction and all neighbor-bounded draws are pure functions of
/// their (seed, round, node, phase, index) coordinates.
#[test]
fn topology_runs_agree_across_parallelism() {
    use lpt_gossip::topology::Torus2D;
    let points = triple_disk(512, 92);
    let run = |parallel: bool| {
        Driver::new(Med)
            .nodes(512)
            .seed(92)
            .parallel(parallel)
            .parallel_threshold(1)
            .topology(Torus2D)
            .stop(lpt_gossip::StopCondition::RoundBudget(40))
            .run(&points)
            .expect("run")
    };
    let par = run(true);
    let seq = run(false);
    let rerun = run(true);
    assert_parallel_engaged(&par);
    assert_eq!(
        par.canonical(),
        seq.canonical(),
        "sequential and parallel overlay runs must be byte-identical"
    );
    assert_eq!(par.canonical(), rerun.canonical());
    assert_eq!(par.topology, "torus2d");
}

/// FNV-1a (64-bit) of a string: a compact fingerprint for pin tables.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One stop-matrix cell: rounds, stop cause and a digest of the
/// report's canonical payload — or the error.
fn stop_cell<O: std::fmt::Debug>(result: Result<RunReport<O>, lpt_gossip::DriverError>) -> String {
    match result {
        Ok(r) => format!(
            "{} {} {:016x}",
            r.rounds,
            r.stop_cause.name(),
            fnv1a(&r.canonical())
        ),
        Err(e) => format!("error {e:?}"),
    }
}

/// The matrix's five stop settings: (label, stop condition,
/// `max_rounds`), with `first` the first-solution target.
fn stop_settings<T: Clone>(first: T) -> Vec<(&'static str, lpt_gossip::StopCondition<T>, u64)> {
    use lpt_gossip::{Progress, StopCondition};
    use std::sync::Arc;
    vec![
        ("full", StopCondition::FullTermination, 20_000),
        ("first", StopCondition::FirstSolution(first), 20_000),
        ("budget5", StopCondition::RoundBudget(5), 20_000),
        (
            "custom",
            StopCondition::Custom(Arc::new(|p: &Progress| {
                p.round >= 2 && p.with_candidate * 2 >= p.n
            })),
            20_000,
        ),
        ("max3", StopCondition::FullTermination, 3),
    ]
}

/// Every (engine, algorithm, stop) cell pinned: what each algorithm's
/// stop predicates read (Low-Load's audited candidate, High-Load's
/// local basis, hitting set's best verified set), how each stop maps an
/// outcome to a cause, and the analytic hypercube's check order.
/// Captured before the driver's runners were merged into one path.
const STOP_MATRIX: [&str; 60] = [
    "round-sync low-load full: 16 all-halted b778d488905f409c",
    "round-sync low-load first: 1 target-reached 2bd7761b903f8792",
    "round-sync low-load budget5: 5 round-budget 8c49413a9722dd9a",
    "round-sync low-load custom: 2 custom-stop 5268cc0d8b9246c3",
    "round-sync low-load max3: 3 max-rounds 1cfd5dc0a1eea11e",
    "round-sync high-load full: 14 all-halted 9fb0843bccba93fb",
    "round-sync high-load first: 3 target-reached f9ce78b46a2d02bf",
    "round-sync high-load budget5: 5 round-budget ff78f42379b083cc",
    "round-sync high-load custom: 2 custom-stop 59c262397820923c",
    "round-sync high-load max3: 3 max-rounds 6fc724c31b9f5708",
    "round-sync accelerated(0.5) full: 19 all-halted a02a02ca5afd4511",
    "round-sync accelerated(0.5) first: 4 target-reached 8eeae1c2c2ebc92a",
    "round-sync accelerated(0.5) budget5: 5 round-budget f495e28e739505b9",
    "round-sync accelerated(0.5) custom: 2 custom-stop aecb0396c55cc167",
    "round-sync accelerated(0.5) max3: 3 max-rounds 6ae038062ec8e6f2",
    "round-sync hypercube full: 50 all-halted 60e24efd275e65d2",
    "round-sync hypercube first: error UnsupportedStop { algorithm: \"hypercube\" }",
    "round-sync hypercube budget5: error UnsupportedStop { algorithm: \"hypercube\" }",
    "round-sync hypercube custom: error UnsupportedStop { algorithm: \"hypercube\" }",
    "round-sync hypercube max3: 50 all-halted 60e24efd275e65d2",
    "round-sync hitting-set(3) full: 12 all-halted 8167e8e1e2ab0559",
    "round-sync hitting-set(3) first: 1 target-reached 162586cee8ffecdd",
    "round-sync hitting-set(3) budget5: 5 round-budget 0ffe28d5a393f8b9",
    "round-sync hitting-set(3) custom: 2 custom-stop 11a6af2457506947",
    "round-sync hitting-set(3) max3: 3 max-rounds 85f0053b466d0a6e",
    "round-sync hitting-set(1)+doubling full: 14 all-halted c47e6a670f6662d6",
    "round-sync hitting-set(1)+doubling first: 1 target-reached accf67d599e4a38f",
    "round-sync hitting-set(1)+doubling budget5: error DoublingNeedsTermination",
    "round-sync hitting-set(1)+doubling custom: 2 custom-stop c953a6c9cfbe5135",
    "round-sync hitting-set(1)+doubling max3: 14 all-halted c47e6a670f6662d6",
    "event-uniform-1-4 low-load full: 112 all-halted 38fd729838c04ed2",
    "event-uniform-1-4 low-load first: 7 target-reached e64ac99334e1d837",
    "event-uniform-1-4 low-load budget5: 5 round-budget 0031d478a55a4b33",
    "event-uniform-1-4 low-load custom: 7 custom-stop 070351fee22cee69",
    "event-uniform-1-4 low-load max3: 3 max-rounds e43bd8e8a4978960",
    "event-uniform-1-4 high-load full: 20 all-halted e41095cb76e916b2",
    "event-uniform-1-4 high-load first: 6 target-reached c69fcfcf09e79f68",
    "event-uniform-1-4 high-load budget5: 5 round-budget afba82440abf2ed1",
    "event-uniform-1-4 high-load custom: 2 custom-stop 289047356d2e46e0",
    "event-uniform-1-4 high-load max3: 3 max-rounds 5dbd3486ae9b73f6",
    "event-uniform-1-4 accelerated(0.5) full: 22 all-halted 86ef633acf309752",
    "event-uniform-1-4 accelerated(0.5) first: 7 target-reached d20eaa936eed0f8e",
    "event-uniform-1-4 accelerated(0.5) budget5: 5 round-budget 58c29cb4ed29cba9",
    "event-uniform-1-4 accelerated(0.5) custom: 2 custom-stop 86d2e07fb0367052",
    "event-uniform-1-4 accelerated(0.5) max3: 3 max-rounds 816e3f66c1f0eec9",
    "event-uniform-1-4 hypercube full: error UnsupportedEngine { algorithm: \"hypercube\" }",
    "event-uniform-1-4 hypercube first: error UnsupportedStop { algorithm: \"hypercube\" }",
    "event-uniform-1-4 hypercube budget5: error UnsupportedStop { algorithm: \"hypercube\" }",
    "event-uniform-1-4 hypercube custom: error UnsupportedStop { algorithm: \"hypercube\" }",
    "event-uniform-1-4 hypercube max3: error UnsupportedEngine { algorithm: \"hypercube\" }",
    "event-uniform-1-4 hitting-set(3) full: 24 all-halted 0723f451c0891392",
    "event-uniform-1-4 hitting-set(3) first: 6 target-reached e96e5d3218bf4848",
    "event-uniform-1-4 hitting-set(3) budget5: 5 round-budget 8334ac4524207934",
    "event-uniform-1-4 hitting-set(3) custom: 7 custom-stop 386ce3babe600128",
    "event-uniform-1-4 hitting-set(3) max3: 3 max-rounds c876bc34c572ad61",
    "event-uniform-1-4 hitting-set(1)+doubling full: 29 all-halted 9e762b11ecc6a438",
    "event-uniform-1-4 hitting-set(1)+doubling first: 7 target-reached 6373fa3b61731aa1",
    "event-uniform-1-4 hitting-set(1)+doubling budget5: error DoublingNeedsTermination",
    "event-uniform-1-4 hitting-set(1)+doubling custom: 14 custom-stop b3af16ae38b02021",
    "event-uniform-1-4 hitting-set(1)+doubling max3: 29 all-halted 9e762b11ecc6a438",
];

#[test]
fn stop_matrix_is_pinned() {
    use lpt::LpType;
    use lpt_gossip::{Algorithm, Engine};
    use std::sync::Arc;

    let n = 32;
    let points = duo_disk(96, 5);
    let optimum = Med.basis_of(&points).value;
    let (sys, _) = lpt_workloads::sets::planted_hitting_set(96, 24, 3, 6, 66);
    let sys = Arc::new(sys);
    let lp_algorithms = [
        ("low-load", Algorithm::low_load()),
        ("high-load", Algorithm::high_load()),
        ("accelerated(0.5)", Algorithm::accelerated(0.5)),
        ("hypercube", Algorithm::Hypercube),
    ];
    let hs_algorithms = [
        ("hitting-set(3)", Algorithm::hitting_set(3), None),
        (
            "hitting-set(1)+doubling",
            Algorithm::hitting_set(1),
            Some(12.0),
        ),
    ];
    let mut got = Vec::new();
    for engine in ["round-sync", "event-uniform-1-4"] {
        let plan = Engine::parse(engine).expect("engine name");
        for (alg, algorithm) in &lp_algorithms {
            for (stop, condition, max_rounds) in stop_settings(optimum) {
                let result = Driver::new(Med)
                    .nodes(n)
                    .seed(5)
                    .engine(plan.clone())
                    .algorithm(algorithm.clone())
                    .stop(condition)
                    .max_rounds(max_rounds)
                    .run(&points);
                got.push(format!("{engine} {alg} {stop}: {}", stop_cell(result)));
            }
        }
        for (alg, algorithm, doubling) in &hs_algorithms {
            for (stop, condition, max_rounds) in stop_settings(usize::MAX) {
                let mut driver = Driver::new(sys.clone())
                    .nodes(n)
                    .seed(66)
                    .engine(plan.clone())
                    .algorithm(algorithm.clone())
                    .stop(condition)
                    .max_rounds(max_rounds);
                if let Some(factor) = doubling {
                    driver = driver.with_doubling_search(*factor);
                }
                let result = driver.run_ground();
                got.push(format!("{engine} {alg} {stop}: {}", stop_cell(result)));
            }
        }
    }
    let moved: Vec<String> = got
        .iter()
        .zip(STOP_MATRIX)
        .filter(|(g, p)| g != p)
        .map(|(g, p)| format!("  pinned {p}\n  got    {g}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == STOP_MATRIX.len(),
        "{} of {} stop-matrix cells moved ({} pinned):\n{}",
        moved.len(),
        got.len(),
        STOP_MATRIX.len(),
        moved.join("\n")
    );
}

/// A fault model that never takes a node down but raises its flag
/// while the engine scans round 0 for offline nodes: a deterministic
/// mid-run cancellation trigger.
#[derive(Debug)]
struct CancelDuringRoundZero(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl lpt_gossip::FaultModel for CancelDuringRoundZero {
    fn name(&self) -> &'static str {
        "cancel-during-round-zero"
    }

    fn offline(&self, _seed: u64, round: u64, _node: gossip_sim::NodeId) -> bool {
        if round == 0 {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        false
    }
}

/// A flag raised during a round cancels the run at that round's
/// boundary under every stop condition — also under first-solution,
/// whose target is reached in that same round: the flag wins, so a
/// cancelled run never emits a report.
#[test]
fn cancellation_mid_run_wins_under_every_stop_condition() {
    use lpt::LpType;
    use lpt_gossip::{DriverError, StopCause};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let n = 256;
    let points = duo_disk(n, 8);
    let optimum = Med.basis_of(&points).value;
    let driver = |stop, flag: &Arc<AtomicBool>| {
        Driver::new(Med)
            .nodes(n)
            .seed(8)
            .stop(stop)
            .fault_model(CancelDuringRoundZero(flag.clone()))
    };
    // Without a cancel flag installed, the first-solution run reaches
    // its target in round 0 itself.
    let unwatched = Arc::new(AtomicBool::new(false));
    let uncancelled = driver(
        lpt_gossip::StopCondition::FirstSolution(optimum),
        &unwatched,
    )
    .run(&points)
    .expect("run");
    assert_eq!(
        (uncancelled.rounds, uncancelled.stop_cause),
        (1, StopCause::TargetReached)
    );
    for (label, stop, _) in stop_settings(optimum).into_iter().take(4) {
        let flag = Arc::new(AtomicBool::new(false));
        let result = driver(stop, &flag).cancel_flag(flag).run(&points);
        assert_eq!(result.err(), Some(DriverError::Cancelled), "{label}");
    }
}

#[test]
fn different_seeds_differ() {
    let points = triple_disk(128, 72);
    let a = Driver::new(Med)
        .nodes(128)
        .seed(72)
        .run(&points)
        .expect("run");
    let b = Driver::new(Med)
        .nodes(128)
        .seed(73)
        .run(&points)
        .expect("run");
    // Same answer (it's the optimum)...
    assert_eq!(
        a.consensus_output().map(|x| x.value.r2),
        b.consensus_output().map(|x| x.value.r2)
    );
    // ...but almost surely along a different trajectory.
    assert_ne!(
        a.metrics.total_ops(),
        b.metrics.total_ops(),
        "two seeds produced identical trajectories — astronomically unlikely"
    );
}
