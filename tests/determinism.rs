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
