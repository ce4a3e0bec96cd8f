//! End-to-end: the distributed hitting-set algorithm (Theorem 5) and
//! set cover through the dual reduction, driven by the unified
//! `Driver` API.

use lpt_gossip::{Algorithm, Driver};
use lpt_problems::{greedy_hitting_set, min_hitting_set_exact};
use lpt_workloads::sets::{interval_hitting_set, planted_hitting_set, planted_set_cover};
use std::sync::Arc;

#[test]
fn planted_instance_all_outputs_valid_and_bounded() {
    let (sys, _) = planted_hitting_set(128, 32, 3, 6, 60);
    let sys = Arc::new(sys);
    let report = Driver::new(sys.clone())
        .nodes(128)
        .seed(60)
        .algorithm(Algorithm::hitting_set(3))
        .max_rounds(5_000)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    let bound = report.size_bound.expect("bound");
    for out in &report.outputs {
        let hs = out.as_ref().expect("output");
        assert!(sys.is_hitting_set(hs));
        assert!(hs.len() <= bound);
    }
}

#[test]
fn size_close_to_greedy_and_exact_on_small_instance() {
    let (sys, planted) = planted_hitting_set(64, 20, 2, 5, 61);
    let sys = Arc::new(sys);
    let exact = min_hitting_set_exact(&sys, planted.len()).expect("small optimum");
    let greedy = greedy_hitting_set(&sys);
    let report = Driver::new(sys.clone())
        .nodes(64)
        .seed(61)
        .algorithm(Algorithm::hitting_set(2))
        .max_rounds(5_000)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    let best = report.best_output().unwrap();
    // Theorem 5 promises O(d log(ds)), not optimality; sanity-check the
    // relation chain exact ≤ greedy, exact ≤ distributed ≤ bound.
    assert!(exact.len() <= greedy.len());
    assert!(exact.len() <= best.len());
    assert!(best.len() <= report.size_bound.expect("bound"));
}

#[test]
fn interval_system_geometric_instance() {
    let sys = Arc::new(interval_hitting_set(256, 48, 8, 32, 62));
    let report = Driver::new(sys.clone())
        .nodes(256)
        .seed(62)
        .algorithm(Algorithm::hitting_set(4))
        .max_rounds(5_000)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    let best = report.best_output().unwrap();
    assert!(sys.is_hitting_set(best));
}

#[test]
fn set_cover_dual_end_to_end() {
    let sc = planted_set_cover(200, 30, 4, 63);
    let dual = Arc::new(sc.dual_hitting_set());
    let report = Driver::new(dual)
        .nodes(200)
        .seed(63)
        .algorithm(Algorithm::hitting_set(4))
        .max_rounds(5_000)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    for out in &report.outputs {
        let cover = out.as_ref().expect("output");
        assert!(
            sc.is_cover(cover),
            "every node's output must be a valid cover"
        );
    }
}

#[test]
fn doubling_search_without_knowing_d() {
    let (sys, planted) = planted_hitting_set(96, 24, 3, 5, 65);
    let sys = Arc::new(sys);
    let report = Driver::new(sys.clone())
        .nodes(96)
        .seed(65)
        .algorithm(Algorithm::hitting_set(1))
        .with_doubling_search(12.0)
        .run_ground()
        .expect("run");
    assert!(report.all_halted);
    assert!(sys.is_hitting_set(report.best_output().expect("solution")));
    let doubling = report.doubling.expect("trace");
    assert!(doubling.d_used <= 2 * planted.len().max(1));
    assert!(doubling.total_rounds >= report.rounds);
}

#[test]
fn deterministic_under_seed() {
    let (sys, _) = planted_hitting_set(96, 24, 2, 5, 64);
    let sys = Arc::new(sys);
    let driver = Driver::new(sys)
        .nodes(96)
        .seed(64)
        .algorithm(Algorithm::hitting_set(2))
        .max_rounds(5_000);
    let a = driver.run_ground().expect("run");
    let b = driver.run_ground().expect("run");
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.outputs, b.outputs);
}

/// FNV-1a over a hitting set's elements: a short, stable name for one
/// output in a pin.
fn fingerprint(hs: &[u32]) -> u64 {
    hs.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins what the hitting-set protocol outputs, not only what it costs.
/// A node that adopts a valid but worse `Found`, or adopts one in a
/// different round, changes the outputs or the first-candidate round
/// without moving `(rounds, total_ops)`. So this pin also carries the
/// message words, the first-candidate round and every distinct output
/// (its size and fingerprint) with the number of nodes that returned
/// it, under both engines.
#[test]
fn planted_outputs_are_pinned_under_both_engines() {
    use gossip_sim::Engine;
    use std::collections::BTreeMap;

    let (sys, _) = planted_hitting_set(128, 32, 3, 6, 31);
    let sys = Arc::new(sys);
    let mut pins = Vec::new();
    for name in ["round-sync", "event-uniform-1-4"] {
        let report = Driver::new(sys.clone())
            .nodes(128)
            .seed(31)
            .algorithm(Algorithm::hitting_set(3))
            .max_rounds(2_000)
            .engine(Engine::parse(name).expect("engine name"))
            .run_ground()
            .expect("run");
        assert!(report.all_halted, "{name}");
        let mut outputs: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        for out in &report.outputs {
            let hs = out.clone().expect("output");
            assert!(sys.is_hitting_set(&hs), "{name}");
            *outputs.entry(hs).or_default() += 1;
        }
        let outputs: Vec<(usize, u64, usize)> = outputs
            .iter()
            .map(|(hs, &nodes)| (hs.len(), fingerprint(hs), nodes))
            .collect();
        let costs = (
            report.rounds,
            report.metrics.total_ops(),
            report.metrics.total_msg_words(),
            report.first_candidate_round,
        );
        pins.push((costs, outputs));
    }
    assert_eq!(
        pins,
        [
            (
                (19, 28_855, 166_210, Some(0)),
                vec![(75, 0x18d3_3a3e_eb98_ca30, 128)],
            ),
            (
                (34, 34_769, 173_179, Some(0)),
                vec![
                    (79, 0xa026_5419_9693_5781, 1),
                    (75, 0x1e52_1cfd_98ce_233c, 110),
                    (79, 0xb02d_dbc5_2976_d40b, 8),
                    (79, 0x715c_903b_3dfa_64db, 6),
                    (79, 0x4891_9cb3_3f30_cbf0, 1),
                    (79, 0x0a26_ed8a_a1b2_5d04, 1),
                    (80, 0x6225_d8ae_4da0_7f95, 1),
                ],
            ),
        ]
    );
}
