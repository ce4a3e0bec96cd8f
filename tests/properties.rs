//! Property-based tests (proptest) for the core invariants:
//! LP-type axioms on random instances of every problem class, agreement
//! between solvers, and sampler correctness.

use lpt::{axioms, exhaustive_basis, LpType, Multiset};
use lpt_problems::{FixedDimLp, IdHalfspace, IdPoint2, Med, PolytopeDistance, Side, SidedPoint};
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn id_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<IdPoint2>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), n).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| IdPoint2::new(i as u32, x, y))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn med_axioms_hold(points in id_points(1..24), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        prop_assert!(axioms::check_all(&Med, &points, 60, &mut rng).is_ok());
    }

    #[test]
    fn med_basis_contains_all_points(points in id_points(1..64)) {
        let b = Med.basis_of(&points);
        let disk = b.value.disk();
        for p in &points {
            prop_assert!(disk.contains(&p.p), "point {:?} outside disk {:?}", p, disk);
        }
        prop_assert!(b.len() <= 3);
    }

    #[test]
    fn med_matches_exhaustive_oracle(points in id_points(1..9)) {
        let direct = Med.basis_of(&points);
        let oracle = exhaustive_basis(&Med, &points).unwrap();
        let rel = (direct.value.r2 - oracle.value.r2).abs() / oracle.value.r2.max(1.0);
        prop_assert!(rel <= 1e-6, "direct {} oracle {}", direct.value.r2, oracle.value.r2);
    }

    #[test]
    fn med_clarkson_matches_direct(points in id_points(60..200), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let res = lpt::clarkson(&Med, &points, &mut rng).unwrap();
        let direct = Med.basis_of(&points);
        let rel = (res.basis.value.r2 - direct.value.r2).abs() / direct.value.r2.max(1.0);
        prop_assert!(rel <= 1e-6);
    }

    #[test]
    fn lp_axioms_hold(
        cons in prop::collection::vec((0.0f64..std::f64::consts::TAU, 1.0f64..8.0), 1..16),
        seed in 0u64..1000,
    ) {
        let elems: Vec<IdHalfspace> = cons
            .into_iter()
            .enumerate()
            .map(|(i, (t, r))| IdHalfspace::new(i as u32, vec![t.cos(), t.sin()], r))
            .collect();
        let p = FixedDimLp::with_default_bound(vec![-1.0, -0.5]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        prop_assert!(axioms::check_all(&p, &elems, 40, &mut rng).is_ok());
    }

    #[test]
    fn polytope_distance_axioms_hold(
        a_pts in prop::collection::vec((-10.0f64..-2.0, -5.0f64..5.0), 1..8),
        b_pts in prop::collection::vec((2.0f64..10.0, -5.0f64..5.0), 1..8),
        seed in 0u64..1000,
    ) {
        let mut elems: Vec<SidedPoint> = Vec::new();
        for (i, (x, y)) in a_pts.iter().enumerate() {
            elems.push(SidedPoint::new(i as u32, Side::A, *x, *y));
        }
        for (i, (x, y)) in b_pts.iter().enumerate() {
            elems.push(SidedPoint::new((a_pts.len() + i) as u32, Side::B, *x, *y));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        prop_assert!(axioms::check_all(&PolytopeDistance, &elems, 40, &mut rng).is_ok());
    }

    #[test]
    fn multiset_sampling_is_exact_subset(
        weights in prop::collection::vec(0u128..8, 1..40),
        r_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let total: u128 = weights.iter().sum();
        prop_assume!(total > 0);
        let items: Vec<usize> = (0..weights.len()).collect();
        let mut ms = Multiset::with_weights(items, &weights);
        let r = ((total as f64) * r_frac) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sample = ms.sample_without_replacement(r, &mut rng).unwrap();
        prop_assert_eq!(sample.len(), r);
        // No element drawn more often than its multiplicity.
        let mut counts = vec![0u128; weights.len()];
        for idx in &sample {
            counts[*idx] += 1;
        }
        for (c, w) in counts.iter().zip(&weights) {
            prop_assert!(c <= w, "drew {} copies of weight-{} element", c, w);
        }
        // Weights restored afterwards.
        prop_assert_eq!(ms.total(), total);
    }

    #[test]
    fn fenwick_search_matches_linear_scan(
        weights in prop::collection::vec(0u128..20, 1..60),
        t_frac in 0.0f64..1.0,
    ) {
        let ft = lpt::Fenwick::from_weights(&weights);
        let total = ft.total();
        prop_assume!(total > 0);
        let target = ((total as f64) * t_frac) as u128;
        let target = target.min(total - 1);
        let idx = ft.search(target);
        // Linear reference.
        let mut acc = 0u128;
        let mut expect = 0usize;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if target < acc {
                expect = i;
                break;
            }
        }
        prop_assert_eq!(idx, expect);
    }
}

// ---------------------------------------------------------------------------
// Topology draws
// ---------------------------------------------------------------------------

/// Witness protocol for topology conformance: every node pulls once
/// and pushes its own id every round; responses carry the server's id
/// (`Response::from`) and inboxes collect sender ids, so after a few
/// rounds each node's state is a transcript of exactly which peers the
/// engine drew for it.
mod topo_witness {
    use gossip_sim::{NodeControl, PhaseRng, Protocol, Response, Served};

    pub struct Echo;

    #[derive(Clone, Default)]
    pub struct Transcript {
        /// Ids of the nodes that served this node's pulls.
        pub served_by: Vec<u32>,
        /// Ids of the nodes whose pushes this node received.
        pub pushed_by: Vec<u32>,
    }

    impl Protocol for Echo {
        type State = Transcript;
        type Msg = u32;
        type Query = ();

        fn pulls(&self, _: u32, _: &Transcript, _: &mut PhaseRng, out: &mut Vec<()>) {
            out.push(());
        }

        fn serve(&self, me: u32, _: &Transcript, _: &(), _: &mut PhaseRng) -> Option<Served<u32>> {
            Some(Served { msg: me, slot: 0 })
        }

        fn compute(
            &self,
            me: u32,
            state: &mut Transcript,
            responses: &mut Vec<Option<Response<u32>>>,
            _: &mut PhaseRng,
            pushes: &mut Vec<u32>,
        ) -> NodeControl {
            state
                .served_by
                .extend(responses.drain(..).flatten().map(|r| r.from));
            pushes.push(me);
            NodeControl::Continue
        }

        fn absorb(
            &self,
            _: u32,
            state: &mut Transcript,
            delivered: &mut Vec<u32>,
            _: &mut PhaseRng,
        ) -> NodeControl {
            state.pushed_by.append(delivered);
            NodeControl::Continue
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Every destination the engine draws — pull targets (witnessed by
    // who served) and push destinations (witnessed by whose inbox the
    // id landed in) — lies in the drawing node's neighbor set, for
    // all built-in topologies × both RNG schedules × sequential and
    // parallel stepping.
    #[test]
    fn drawn_destinations_stay_in_the_neighbor_set(n in 9usize..150, seed in 0u64..1_000_000) {
        use gossip_sim::topology::{Complete, Hypercube, IntoTopology, RandomRegular, Ring, Torus2D};
        use gossip_sim::{Network, NetworkConfig, RngSchedule};
        use std::sync::Arc;
        use topo_witness::{Echo, Transcript};

        let topologies: Vec<Arc<dyn gossip_sim::Topology>> = vec![
            Complete.into_topology(),
            Hypercube.into_topology(),
            RandomRegular(4).into_topology(),
            Ring(3).into_topology(),
            Torus2D.into_topology(),
        ];
        for topology in topologies {
            let arena = topology.build(n, seed);
            for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
                for parallel in [false, true] {
                    let cfg = if parallel {
                        NetworkConfig::with_seed(seed).parallel_threshold(1)
                    } else {
                        NetworkConfig::with_seed(seed).sequential()
                    };
                    let cfg = cfg.rng_schedule(schedule).topology(Arc::clone(&topology));
                    let states = vec![Transcript::default(); n];
                    let mut net = Network::new(Echo, states, cfg);
                    for _ in 0..3 {
                        net.round();
                    }
                    let tag = (topology.name(), schedule, parallel);
                    for (i, t) in net.states().iter().enumerate() {
                        prop_assert_eq!(t.served_by.len(), 3, "{:?}: node {} pull count", tag, i);
                        match &arena {
                            // Complete: any node (self included) is legal.
                            None => {
                                for &s in t.served_by.iter().chain(&t.pushed_by) {
                                    prop_assert!((s as usize) < n, "{:?}: id {} out of range", tag, s);
                                }
                            }
                            Some(a) => {
                                for &server in &t.served_by {
                                    prop_assert!(
                                        a.contains(i, server),
                                        "{:?}: pull {} → {} off-topology", tag, i, server
                                    );
                                }
                                for &sender in &t.pushed_by {
                                    prop_assert!(
                                        a.contains(sender as usize, i as u32),
                                        "{:?}: push {} → {} off-topology", tag, sender, i
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---- Event-queue ordering laws --------------------------------------
//
// The event engine's replay guarantee rests on one queue contract:
// pops come out sorted by time, and equal-time events come out in
// insertion order (the sequence number is a total tie-break, never a
// reordering). These properties drive arbitrary insert interleavings —
// including duplicate timestamps and interleaved pop/push — through
// `gossip_sim::EventQueue` and check the contract directly, and
// against the binary heap the engine's pinned trajectories were first
// captured on.

/// Reference model: a binary heap ordered by `(time, seq)`, reversed for
/// std's max-heap. `seq` is unique, so the payload never decides.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: u64, payload: usize) {
        self.heap.push(Reverse((time, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_pops_sorted_by_time_then_insertion(times in prop::collection::vec(0u64..50, 0..200)) {
        let mut q = gossip_sim::EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped = Vec::with_capacity(times.len());
        while let Some((t, i)) = q.pop() {
            prop_assert_eq!(t, times[i], "payload {} popped with foreign timestamp", i);
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Time-sorted, and within equal times insertion-ordered: the
        // (time, insertion index) pairs are strictly ascending.
        for w in popped.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "pop order violated: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn event_queue_interleaved_pops_preserve_the_order_laws(
        ops in prop::collection::vec((0u64..20, 0u8..2), 1..150),
    ) {
        // Mixed workload: each step pushes, and pops when the coin says
        // so — exercising queue states a pure fill-then-drain never
        // reaches. Every pop must still respect (time, seq) order
        // relative to everything popped before *and after* it.
        let mut q = gossip_sim::EventQueue::new();
        let mut born = std::collections::HashMap::new();
        let mut popped = Vec::new();
        for (next_id, &(t, pop)) in ops.iter().enumerate() {
            born.insert(next_id, (t, next_id));
            q.push(t, next_id);
            if pop == 1 {
                let (pt, id) = q.pop().expect("just pushed");
                popped.push((pt, id));
            }
        }
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        prop_assert_eq!(popped.len(), ops.len(), "no event lost or duplicated");
        // A popped event may never be overtaken by a *previously
        // inserted* event with a smaller (time, seq): whenever two pops
        // appear out of (time, insertion) order, the later-popped one
        // must have been inserted after the earlier pop happened.
        let mut seen = std::collections::HashSet::new();
        for (idx, &(t, id)) in popped.iter().enumerate() {
            prop_assert!(seen.insert(id), "payload {} popped twice", id);
            prop_assert_eq!(t, born[&id].0);
            if let Some(&(pt, pid)) = popped.get(idx + 1) {
                // The next pop is either (time, seq)-greater, or was
                // pushed after this pop occurred (id larger than any
                // popped so far — a fresh event that legitimately
                // claimed an earlier slot is impossible, times only
                // grow stale, so this catches queue corruption).
                prop_assert!(
                    (pt, pid) > (t, id) || pid > id,
                    "pop {:?} followed by stale smaller {:?}",
                    (t, id),
                    (pt, pid)
                );
            }
        }
    }

    #[test]
    fn event_queue_matches_the_binary_heap_model(
        ops in prop::collection::vec((0u64..12, 0u8..3), 1..200),
    ) {
        // Coin 0 pops (possibly from an empty queue), anything else
        // pushes at the drawn time. The narrow time range makes pushes
        // earlier than the last pop, and long equal-time runs, common.
        let mut q = gossip_sim::EventQueue::new();
        let mut model = HeapModel::default();
        for (id, &(t, coin)) in ops.iter().enumerate() {
            if coin == 0 {
                prop_assert_eq!(q.pop(), model.pop(), "pop at step {}", id);
            } else {
                q.push(t, id);
                model.push(t, id);
            }
            prop_assert_eq!(q.len(), model.heap.len(), "len at step {}", id);
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek at step {}", id);
        }
        while let Some(expected) = model.pop() {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert!(q.is_empty() && q.pop().is_none());
    }
}

// ---- Observability histogram laws -----------------------------------
//
// The flight recorder's log-bucketed histogram backs every latency and
// phase statistic the server reports. Its contract: percentiles never
// understate (a bucket's ceiling bounds everything in it, and p100 is
// the *exact* max), and merging is lossless in count, sum, and
// extremes — so per-worker histograms can be folded into one snapshot
// without distortion.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_percentiles_bound_every_recorded_value(
        values in prop::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let mut h = gossip_sim::Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), max, "p100 is exact, not a bucket ceiling");
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert!(
                h.percentile(p) <= max,
                "p{} = {} exceeds the recorded max {}",
                p,
                h.percentile(p),
                max
            );
        }
        // Percentiles are monotone in p.
        prop_assert!(h.percentile(50.0) <= h.percentile(99.0));
        prop_assert!(h.percentile(99.0) <= h.percentile(100.0));
    }

    #[test]
    fn histogram_merge_preserves_count_sum_and_extremes(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = gossip_sim::Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = gossip_sim::Histogram::new();
        for &v in &b {
            hb.record(v);
        }
        // Reference: one histogram fed the concatenation.
        let mut all = gossip_sim::Histogram::new();
        for &v in a.iter().chain(&b) {
            all.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ha.count(), all.count());
        prop_assert_eq!(ha.sum(), all.sum());
        prop_assert_eq!(ha.max(), all.max());
        prop_assert_eq!(ha.min(), all.min());
        prop_assert_eq!(
            ha.buckets(),
            all.buckets(),
            "merge must equal recording the concatenation"
        );
    }
}
