//! The unit-latency degeneracy contract of the event-driven engine.
//!
//! `Engine::EventDriven(LinkPlan::unit())` is specified to be an
//! *alternative execution strategy*, not an alternative semantics: with
//! every link at latency 1, unlimited rate, and zero loss, the event
//! scheduler must replay exactly the trajectory the round-synchronous
//! engine produces — same RNG draws from the same (seed, round, node,
//! phase) coordinates, same fault decisions, same delivery order, same
//! metrics, byte for byte. This file re-pins the entire pinned-
//! trajectory battery of `tests/faults.rs` and `tests/determinism.rs`
//! under the event engine, then shows the degeneracy is *sharp*: a
//! heterogeneous-latency plan immediately diverges.

use gossip_sim::{Engine, LinkPlan};
use lpt_gossip::{Algorithm, Bernoulli, Compose, Delay, Driver, DriverError, RngSchedule};
use lpt_problems::{IdPointD, Meb, Med};
use lpt_workloads::med::{duo_disk, triple_disk};

fn event_unit() -> Engine {
    Engine::EventDriven(LinkPlan::unit())
}

/// The V1Compat pre-fault trajectories (22 / 25 / 24 rounds, exact op
/// counts) under the event engine with unit links. These numbers were
/// captured on the original round engine before the fault subsystem
/// existed; three engine generations later they must still fall out of
/// the event queue's per-time FIFO buckets.
#[test]
fn event_unit_reproduces_v1_pins() {
    let report = Driver::new(Med)
        .nodes(128)
        .seed(1)
        .rng_schedule(RngSchedule::V1Compat)
        .engine(event_unit())
        .run(&duo_disk(128, 1))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (22, 365_900));

    let report = Driver::new(Med)
        .nodes(256)
        .seed(2)
        .algorithm(Algorithm::high_load())
        .rng_schedule(RngSchedule::V1Compat)
        .engine(event_unit())
        .run(&triple_disk(256, 2))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (25, 81_163));

    let balls: Vec<IdPointD> = triple_disk(200, 9)
        .iter()
        .map(|p| IdPointD::new(p.id, vec![p.p.x, p.p.y, 0.5]))
        .collect();
    let report = Driver::new(Meb::new(3))
        .nodes(200)
        .seed(9)
        .rng_schedule(RngSchedule::V1Compat)
        .engine(event_unit())
        .run(&balls)
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (24, 1_031_095));
}

/// The V2Batched pins (22 / 26 / 24 rounds) under the event engine:
/// the batched Lemire sweeps must be consumed in exactly the node
/// order the round engine uses, which the event queue guarantees via
/// its (time, seq) total order.
#[test]
fn event_unit_reproduces_v2_pins() {
    let report = Driver::new(Med)
        .nodes(128)
        .seed(1)
        .engine(event_unit())
        .run(&duo_disk(128, 1))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (22, 365_868));

    let report = Driver::new(Med)
        .nodes(256)
        .seed(2)
        .algorithm(Algorithm::high_load())
        .engine(event_unit())
        .run(&triple_disk(256, 2))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (26, 86_343));

    let balls: Vec<IdPointD> = triple_disk(200, 9)
        .iter()
        .map(|p| IdPointD::new(p.id, vec![p.p.x, p.p.y, 0.5]))
        .collect();
    let report = Driver::new(Meb::new(3))
        .nodes(200)
        .seed(9)
        .engine(event_unit())
        .run(&balls)
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (24, 1_029_849));
}

/// The delay-queue trajectories under both schedules: `Delay` faults
/// are the adversarial cells most likely to expose an ordering bug,
/// because the event engine routes delayed pushes through its queue
/// where the round engine uses an explicit pending ring. The (rounds,
/// ops, delayed, dropped) quadruples must match the round-engine pins
/// exactly.
#[test]
fn event_unit_reproduces_delay_queue_pins() {
    let v1 = |fault_mixed: bool| {
        let d = Driver::new(Med)
            .rng_schedule(RngSchedule::V1Compat)
            .engine(event_unit());
        if fault_mixed {
            d.nodes(200)
                .seed(56)
                .fault_model(
                    Compose::default()
                        .and(Bernoulli::new(0.1))
                        .and(Delay::uniform(2)),
                )
                .run(&duo_disk(200, 56))
        } else {
            d.nodes(256)
                .seed(55)
                .fault_model(Delay::between(1, 3))
                .run(&duo_disk(256, 55))
        }
        .expect("run")
    };
    fn quad<O>(r: &lpt_gossip::RunReport<O>) -> (u64, u64, u64, u64) {
        (
            r.rounds,
            r.metrics.total_ops(),
            r.metrics.total_delayed(),
            r.metrics.total_dropped(),
        )
    }
    assert_eq!(quad(&v1(false)), (25, 847_734, 75_536, 0));
    assert_eq!(quad(&v1(true)), (24, 637_233, 32_782, 50_698));

    let v2 = |fault_mixed: bool| {
        let d = Driver::new(Med).engine(event_unit());
        if fault_mixed {
            d.nodes(200)
                .seed(56)
                .fault_model(
                    Compose::default()
                        .and(Bernoulli::new(0.1))
                        .and(Delay::uniform(2)),
                )
                .run(&duo_disk(200, 56))
        } else {
            d.nodes(256)
                .seed(55)
                .fault_model(Delay::between(1, 3))
                .run(&duo_disk(256, 55))
        }
        .expect("run")
    };
    assert_eq!(quad(&v2(false)), (25, 848_933, 75_628, 0));
    assert_eq!(quad(&v2(true)), (24, 634_478, 32_724, 50_546));
}

/// The non-complete-topology pins under the event engine: neighbor-
/// bounded draws resolved through the CSR arena must consume the same
/// batched stream positions event-by-event as they do phase-by-phase.
#[test]
fn event_unit_reproduces_topology_pins() {
    use lpt_gossip::topology::{Hypercube, RandomRegular, Ring};
    use std::sync::Arc;

    let report = Driver::new(Med)
        .nodes(128)
        .seed(1)
        .topology(Hypercube)
        .engine(event_unit())
        .run(&duo_disk(128, 1))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (23, 383_044));

    let report = Driver::new(Med)
        .nodes(256)
        .seed(2)
        .algorithm(Algorithm::high_load())
        .topology(RandomRegular(8))
        .engine(event_unit())
        .run(&triple_disk(256, 2))
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (31, 103_017));

    let (sys, _) = lpt_workloads::sets::planted_hitting_set(128, 32, 3, 6, 31);
    let report = Driver::new(Arc::new(sys))
        .nodes(128)
        .seed(31)
        .algorithm(Algorithm::hitting_set(3))
        .topology(Ring(16))
        .engine(event_unit())
        .run_ground()
        .expect("run");
    assert_eq!((report.rounds, report.metrics.total_ops()), (19, 49_007));
}

/// Beyond aggregate pins: the *entire* `RunReport` payload — every
/// per-round metrics row, fault counters, outputs, consensus — must
/// render to identical canonical bytes under both engines. This is the
/// strongest form of the degeneracy statement the repo can make end to
/// end.
#[test]
fn event_unit_reports_are_byte_identical_to_round_sync() {
    let points = triple_disk(256, 7);
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        let run = |engine: Engine| {
            Driver::new(Med)
                .nodes(256)
                .seed(7)
                .rng_schedule(schedule)
                .fault_model(
                    Compose::default()
                        .and(Bernoulli::new(0.10))
                        .and(Delay::between(1, 3)),
                )
                .engine(engine)
                .run(&points)
                .expect("run")
        };
        let round_sync = run(Engine::RoundSync);
        let event = run(event_unit());
        assert_eq!(
            round_sync.canonical(),
            event.canonical(),
            "{}: engines diverged on a faulted run",
            schedule.name()
        );
    }
}

/// The degeneracy is sharp: heterogeneous link latencies immediately
/// cost extra virtual time. The same instance under a uniform 1–4 tick
/// plan must take strictly more ticks than under round-sync, still
/// terminate, and still find the exact optimum — latency slows the
/// network down but cannot change what it computes.
#[test]
fn heterogeneous_latency_diverges_but_converges() {
    let points = duo_disk(128, 1);
    let base = || Driver::new(Med).nodes(128).seed(1).max_rounds(2_000);
    let round_sync = base().run(&points).expect("run");
    let het = base()
        .engine(Engine::EventDriven(LinkPlan::uniform(1, 4)))
        .run(&points)
        .expect("run");
    assert!(het.all_halted, "heterogeneous run must still terminate");
    assert!(
        het.rounds > round_sync.rounds,
        "multi-tick round trips must cost virtual time: {} vs {}",
        het.rounds,
        round_sync.rounds
    );
    for r in [&round_sync, &het] {
        let radius = r.consensus_output().expect("consensus").value.r2.sqrt();
        assert!((radius - 10.0).abs() < 1e-6);
    }
    // Virtual time is surfaced per row and is monotone non-decreasing.
    let vtimes: Vec<u64> = het.metrics.rounds.iter().map(|r| r.vtime).collect();
    assert!(vtimes.windows(2).all(|w| w[0] <= w[1]));
}

/// Same sharpness for loss: a lossy plan injects drops that the fault
/// model never sees (links, not faults), and the run still converges.
#[test]
fn lossy_links_are_accounted_and_survivable() {
    let points = duo_disk(256, 3);
    let report = Driver::new(Med)
        .nodes(256)
        .seed(3)
        .max_rounds(2_000)
        .engine(Engine::EventDriven(LinkPlan::Const {
            latency: 1,
            loss_ppm: 100_000, // 10 % loss
        }))
        .run(&points)
        .expect("run");
    assert!(report.all_halted);
    assert!(
        report.metrics.total_dropped() > 0,
        "link loss must surface in the dropped column"
    );
    let basis = report.consensus_output().expect("consensus");
    assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
}

/// Exact trajectories under non-unit link plans, where the unit-latency
/// battery above is blind: multi-tick latency, link loss on all three
/// legs, cross-tick crash checks and delayed pushes riding the queue.
/// Captured on the engine before its fate decisions moved into one
/// shared module, under both schedules; any drift in event order, loss
/// draws or fault hook coordinates moves a number here.
#[test]
fn non_unit_event_trajectories_are_pinned() {
    use lpt_gossip::topology::RandomRegular;
    use lpt_gossip::{Degradation, Partition};
    use lpt_workloads::sets::planted_hitting_set;
    use std::sync::Arc;

    fn quad<O>(r: &lpt_gossip::RunReport<O>) -> (u64, u64, u64, u64) {
        (
            r.rounds,
            r.metrics.total_ops(),
            r.metrics.total_delayed(),
            r.metrics.total_dropped(),
        )
    }
    let engine = |name: &str| Engine::parse(name).expect("engine name");
    let mut med = Vec::new();
    let mut hs = Vec::new();
    for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
        let report = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .rng_schedule(schedule)
            .engine(engine("event-uniform-1-4"))
            .run(&duo_disk(128, 1))
            .expect("run");
        med.push(quad(&report));

        let report = Driver::new(Med)
            .nodes(256)
            .seed(3)
            .rng_schedule(schedule)
            .engine(engine("event-const-1-loss-100000"))
            .run(&duo_disk(256, 3))
            .expect("run");
        med.push(quad(&report));

        let (sys, _) = planted_hitting_set(128, 32, 3, 6, 31);
        let report = Driver::new(Arc::new(sys))
            .nodes(128)
            .seed(31)
            .algorithm(Algorithm::hitting_set(3))
            .max_rounds(2_000)
            .topology(RandomRegular(8))
            .rng_schedule(schedule)
            .engine(engine("event-uniform-1-4-loss-50000"))
            .fault_model(
                Compose::default()
                    .and(Partition::healing(0.3, 12))
                    .and(lpt_gossip::Byzantine::new(0.1, 0.5))
                    .and(Delay::uniform(2)),
            )
            .run_ground()
            .expect("run");
        hs.push((quad(&report), report.metrics.degradation));
    }
    assert_eq!(
        med,
        [
            (154, 365_787, 21_954, 0),
            (25, 846_488, 0, 135_577),
            (154, 365_253, 21_824, 0),
            (26, 884_730, 0, 142_847),
        ]
    );
    let deg = |byzantine_exposures, link_cuts| Degradation {
        partitioned_rounds: 12,
        byzantine_exposures,
        link_cuts,
        ..Degradation::default()
    };
    assert_eq!(
        hs,
        [
            ((66, 140_177, 2_859, 32_596), deg(2_166, 19_229)),
            ((50, 141_541, 2_874, 33_373), deg(2_146, 19_734)),
        ]
    );
}

/// The event queue carries a bounded number of events per node-round,
/// not two per pull: one start, one compute and one absorb, at most one
/// serve per distinct link latency (a node's pulls that arrive in the
/// same tick share one serve event), and one delivery per push. On the
/// hitting-set protocol, whose nodes pull hundreds of samples a round,
/// two events per pull would exceed the bound.
#[test]
fn event_queue_pops_are_bounded_per_node_round() {
    use gossip_sim::obs::Counter;
    use lpt_workloads::sets::planted_hitting_set;
    use std::sync::Arc;

    // Latencies 1..=4: at most four distinct arrival ticks per round.
    let (n, latencies) = (128u64, 4u64);
    let (sys, _) = planted_hitting_set(128, 32, 3, 6, 31);
    let report = Driver::new(Arc::new(sys))
        .nodes(n as usize)
        .seed(31)
        .algorithm(Algorithm::hitting_set(3))
        .max_rounds(2_000)
        .engine(Engine::EventDriven(LinkPlan::uniform(1, 4)))
        .record_phases(true)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    let pops = report.obs.expect("recorded").counter(Counter::EventPops);
    let metrics = &report.metrics;
    let bound = n * report.rounds * (3 + latencies) + metrics.total_pushes();
    assert!(pops <= bound, "{pops} event pops > bound {bound}");
    assert!(
        2 * metrics.total_pulls() > bound,
        "two events per pull must break the bound, or it tests nothing"
    );
}

/// The analytic hypercube baseline has no network to schedule events
/// for: requesting a non-default engine there is a typed error, not a
/// silently ignored knob.
#[test]
fn analytic_hypercube_rejects_non_default_engines() {
    let err = Driver::new(Med)
        .nodes(128)
        .seed(1)
        .algorithm(Algorithm::Hypercube)
        .engine(event_unit())
        .run(&duo_disk(128, 1))
        .expect_err("must reject");
    assert!(matches!(
        err,
        DriverError::UnsupportedEngine {
            algorithm: "hypercube"
        }
    ));
}

/// Engine selection round-trips through the spec grammar and the
/// report is reproducible: two identical event-driven runs are
/// byte-identical (the queue order is deterministic, not an accident of
/// hash seeds or allocation addresses).
#[test]
fn event_runs_are_reproducible() {
    let points = duo_disk(128, 5);
    let run = || {
        Driver::new(Med)
            .nodes(128)
            .seed(5)
            .engine(Engine::EventDriven(LinkPlan::uniform(1, 3)))
            .run(&points)
            .expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.canonical(), b.canonical());
}
