//! The Distributed Hitting Set Algorithm (paper, Section 4: Algorithm 6).
//!
//! Every node knows the set system `S` (it may be implicit, e.g. a
//! family of polygons); the ground elements `X` are scattered over the
//! network. Per round, every node samples a random multiset `R_i` of
//! size `r = ⌈6·d·ln(12·d·s)⌉` from the element multiset `X(V)`; if some
//! set is not hit by `R_i`, the node picks one uncovered set uniformly
//! at random and pushes its elements (capped at `c·d·log n` per round),
//! boosting the multiplicity of exactly the elements that can fix the
//! deficiency; non-original copies are filtered with keep probability
//! `1/(1 + 1/(2d))` as in the Low-Load algorithm. Once `R_i` hits every
//! set — which Lemma 18 shows happens within `O(d log n)` rounds w.h.p.
//! — `R_i` itself is a hitting set of size `r = O(d log(ds))`
//! (Theorem 5).
//!
//! Termination is simpler than for the Clarkson protocols: whether a
//! candidate is a hitting set is *locally checkable* (every node knows
//! `S`), so no distributed audit is needed; found solutions spread
//! epidemically and every node outputs after forwarding for a maturity
//! window. Set cover runs through the dual reduction
//! (`lpt_problems::SetCover::dual_hitting_set`).
//!
//! The paper assumes `|X| = n`; for `|X| < n` we bootstrap exactly like
//! the Low-Load extension (Section 2.3): nodes that start empty pull
//! until they receive one original element and re-scatter it as a new
//! `X₀` copy, after which `|X₀(V)| ≥ n` and sampling succeeds.

use crate::sampling::{extract_sample_from, SampleOutcome};
use gossip_sim::{NodeControl, PhaseRng, Protocol, Response, Served};
use lpt_problems::SetSystem;
use rand::Rng;
use std::sync::Arc;

/// Tuning knobs for the distributed hitting-set protocol.
#[derive(Clone, Debug)]
pub struct HittingSetConfig {
    /// The parameter `d`: (an upper bound on) the minimum hitting set
    /// size. The paper assumes it known (or found by doubling search).
    pub d: usize,
    /// Sample size override; `None` = the paper's `⌈6·d·ln(12·d·s)⌉`.
    pub sample_size: Option<usize>,
    /// Pull-count factor `c` in `s = c(r + log n)`.
    pub pull_factor: f64,
    /// Small-instance sampling relaxation threshold.
    pub relaxed_threshold: f64,
    /// Per-round push cap factor `c` in `c·d·log n`.
    pub push_cap_factor: f64,
    /// Keep probability of the filtering step; `None` = `1/(1+1/(2d))`.
    pub keep_prob: Option<f64>,
    /// Rounds a node forwards a found solution before outputting.
    pub maturity_factor: f64,
}

impl HittingSetConfig {
    /// Default configuration for minimum-hitting-set parameter `d`.
    pub fn new(d: usize) -> Self {
        HittingSetConfig {
            d: d.max(1),
            sample_size: None,
            pull_factor: 2.0,
            relaxed_threshold: 0.5,
            push_cap_factor: 4.0,
            keep_prob: None,
            maturity_factor: 2.0,
        }
    }
}

/// Messages: element copies and found-solution announcements.
#[derive(Clone, Debug)]
pub enum HsMsg {
    /// A duplicated element.
    Elem(u32),
    /// A re-scattered original element (pull-phase bootstrap; joins the
    /// receiver's `X₀`).
    Elem0(u32),
    /// A verified hitting set being disseminated. Arc-shared: every
    /// found node re-broadcasts its solution each round until maturity,
    /// so all copies in flight intern one allocation.
    Found(Arc<Vec<u32>>),
}

/// Pull queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HsQuery {
    /// "Send me a uniformly random element copy of your `X(v)`."
    Sample,
    /// "Send me a uniformly random element of your `X₀(v)`" (pull phase).
    PullX0,
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct HittingSetState {
    /// Original elements (never deleted).
    pub x0: Vec<u32>,
    /// Whether the node is still bootstrapping (pull phase).
    pub pull_phase: bool,
    /// Filterable element copies.
    pub extra: Vec<u32>,
    /// Best verified hitting set known to this node (shared with the
    /// message copies disseminating it).
    pub best: Option<Arc<Vec<u32>>>,
    /// Round at which `best` was first set.
    pub found_round: Option<u64>,
    /// The node's final output.
    pub output: Option<Vec<u32>>,
    /// Local round counter.
    pub round: u64,
    /// Rounds in which sampling failed.
    pub sampling_failures: u64,
}

impl HittingSetState {
    /// Creates the state for a node initially holding `x0`.
    pub fn new(x0: Vec<u32>) -> Self {
        let pull_phase = x0.is_empty();
        HittingSetState {
            x0,
            pull_phase,
            extra: Vec::new(),
            best: None,
            found_round: None,
            output: None,
            round: 0,
            sampling_failures: 0,
        }
    }

    fn held(&self) -> usize {
        self.x0.len() + self.extra.len()
    }

    fn element_at(&self, idx: usize) -> u32 {
        if idx < self.x0.len() {
            self.x0[idx]
        } else {
            self.extra[idx - self.x0.len()]
        }
    }
}

/// The distributed hitting-set protocol (Algorithm 6).
#[derive(Clone, Debug)]
pub struct HittingSetGossip {
    sys: Arc<SetSystem>,
    r: usize,
    s: usize,
    push_cap: usize,
    keep_prob: f64,
    relaxed_threshold: f64,
    maturity: u64,
}

impl HittingSetGossip {
    /// Builds the protocol for a network of `n` nodes sharing `sys`.
    pub fn new(sys: Arc<SetSystem>, n: usize, cfg: &HittingSetConfig) -> Self {
        let d = cfg.d.max(1) as f64;
        let s_sets = sys.num_sets().max(1) as f64;
        let r = cfg
            .sample_size
            .unwrap_or_else(|| (6.0 * d * (12.0 * d * s_sets).ln()).ceil() as usize)
            .max(1);
        let log2n = (n.max(2) as f64).log2();
        let s = ((cfg.pull_factor * (r as f64 + log2n)).ceil() as usize).max(r);
        let push_cap = (cfg.push_cap_factor * d * log2n).ceil().max(1.0) as usize;
        let keep_prob = cfg.keep_prob.unwrap_or(1.0 / (1.0 + 1.0 / (2.0 * d)));
        let maturity = (cfg.maturity_factor * log2n).ceil().max(1.0) as u64;
        HittingSetGossip {
            sys,
            r,
            s,
            push_cap,
            keep_prob,
            relaxed_threshold: cfg.relaxed_threshold,
            maturity,
        }
    }

    /// The sample size `r` (also the size bound of the found hitting set).
    pub fn sample_size(&self) -> usize {
        self.r
    }

    /// The per-round pull count.
    pub fn pull_count(&self) -> usize {
        self.s
    }

    /// The shared set system.
    pub fn system(&self) -> &SetSystem {
        &self.sys
    }

    /// Builds the initial per-node state.
    pub fn initial_state(&self, x0: Vec<u32>) -> HittingSetState {
        HittingSetState::new(x0)
    }

    fn better(a: &[u32], b: &[u32]) -> bool {
        (a.len(), a) < (b.len(), b)
    }
}

impl Protocol for HittingSetGossip {
    type State = HittingSetState;
    type Msg = HsMsg;
    type Query = HsQuery;

    fn pulls(
        &self,
        _id: u32,
        state: &HittingSetState,
        _rng: &mut PhaseRng,
        out: &mut Vec<HsQuery>,
    ) {
        if state.pull_phase {
            out.push(HsQuery::PullX0);
        } else if state.best.is_none() {
            out.extend(std::iter::repeat_n(HsQuery::Sample, self.s));
        }
    }

    fn serve(
        &self,
        _id: u32,
        state: &HittingSetState,
        query: &HsQuery,
        rng: &mut PhaseRng,
    ) -> Option<Served<HsMsg>> {
        match query {
            HsQuery::Sample => {
                let held = state.held();
                if held == 0 {
                    return None;
                }
                let idx = rng.gen_range(0..held);
                Some(Served {
                    msg: HsMsg::Elem(state.element_at(idx)),
                    slot: idx as u64,
                })
            }
            HsQuery::PullX0 => {
                if state.x0.is_empty() {
                    return None;
                }
                let idx = rng.gen_range(0..state.x0.len());
                Some(Served {
                    msg: HsMsg::Elem(state.x0[idx]),
                    slot: idx as u64,
                })
            }
        }
    }

    fn compute(
        &self,
        _id: u32,
        state: &mut HittingSetState,
        responses: &mut Vec<Option<Response<HsMsg>>>,
        rng: &mut PhaseRng,
        pushes: &mut Vec<HsMsg>,
    ) -> NodeControl {
        let now = state.round;
        state.round += 1;

        if state.pull_phase {
            // Bootstrap (Section 2.3 analogue): re-scatter one original
            // element, then start participating.
            if let Some(resp) = responses.drain(..).flatten().next() {
                if let HsMsg::Elem(x) = resp.msg {
                    pushes.push(HsMsg::Elem0(x));
                    state.pull_phase = false;
                }
            }
            state.extra.retain(|_| rng.gen_bool(self.keep_prob));
            return NodeControl::Continue;
        }

        // --- Dissemination / output of found solutions. ------------------
        if let Some(best) = &state.best {
            pushes.push(HsMsg::Found(Arc::clone(best)));
            if now.saturating_sub(state.found_round.expect("set with best")) >= self.maturity {
                state.output = Some((**best).clone());
                return NodeControl::Halt;
            }
            // Found nodes stop sampling; they only forward.
            state.extra.retain(|_| rng.gen_bool(self.keep_prob));
            return NodeControl::Continue;
        }

        // --- Sampling (Algorithm 6 lines 3–9). ---------------------------
        // Responses are read in place; `Found` payloads cannot answer a
        // `Sample` pull, and the projection treats them as failed pulls.
        let sampled = extract_sample_from(
            responses,
            self.r,
            self.relaxed_threshold,
            rng,
            |m: &HsMsg| match m {
                HsMsg::Elem(x) | HsMsg::Elem0(x) => Some(x),
                HsMsg::Found(_) => None,
            },
        );
        match sampled {
            SampleOutcome::Sample(sample) => {
                let uncovered = self.sys.uncovered_sets(&sample);
                if uncovered.is_empty() {
                    // R_i is a hitting set: dedup, verify, disseminate.
                    let mut hs = sample;
                    hs.sort_unstable();
                    hs.dedup();
                    debug_assert!(self.sys.is_hitting_set(&hs));
                    let hs = Arc::new(hs);
                    state.best = Some(Arc::clone(&hs));
                    state.found_round = Some(now);
                    pushes.push(HsMsg::Found(hs));
                } else {
                    // Boost a random uncovered set's elements.
                    let si = uncovered[rng.gen_range(0..uncovered.len())];
                    let local_mask = {
                        let mut all: Vec<u32> = state.x0.clone();
                        all.extend_from_slice(&state.extra);
                        self.sys.sample_mask(&all)
                    };
                    let w: Vec<u32> = self
                        .sys
                        .set(si)
                        .iter()
                        .copied()
                        .filter(|&x| local_mask[(x as usize) / 64] & (1 << (x % 64)) == 0)
                        .collect();
                    if w.len() <= self.push_cap {
                        for x in w {
                            pushes.push(HsMsg::Elem(x));
                        }
                    }
                }
            }
            SampleOutcome::Failed => {
                state.sampling_failures += 1;
            }
        }

        // --- Filtering (never touches X₀). --------------------------------
        state.extra.retain(|_| rng.gen_bool(self.keep_prob));
        NodeControl::Continue
    }

    fn absorb(
        &self,
        _id: u32,
        state: &mut HittingSetState,
        delivered: &mut Vec<HsMsg>,
        _rng: &mut PhaseRng,
    ) -> NodeControl {
        for msg in delivered.drain(..) {
            match msg {
                HsMsg::Elem(x) => state.extra.push(x),
                HsMsg::Elem0(x) => state.x0.push(x),
                HsMsg::Found(hs) => {
                    // Only a strictly better set is adopted, and only a
                    // set about to be adopted is verified: local
                    // knowledge of S makes verification one scan, paid
                    // once per adoption rather than once per copy of a
                    // set the node already holds or beats.
                    let improves = state.best.as_ref().is_none_or(|cur| Self::better(&hs, cur));
                    if improves && self.sys.is_hitting_set(&hs) {
                        if state.found_round.is_none() {
                            state.found_round = Some(state.round);
                        }
                        state.best = Some(hs);
                    }
                }
            }
        }
        NodeControl::Continue
    }

    fn msg_words(&self, msg: &HsMsg) -> usize {
        match msg {
            HsMsg::Elem(_) | HsMsg::Elem0(_) => 1,
            HsMsg::Found(hs) => hs.len().max(1),
        }
    }

    fn load(&self, state: &HittingSetState) -> usize {
        state.held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::{Network, NetworkConfig};
    use lpt_workloads::sets::planted_hitting_set;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn scatter(elements: &[u32], n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![Vec::new(); n];
        for &e in elements {
            out[rng.gen_range(0..n)].push(e);
        }
        out
    }

    fn run(
        sys: Arc<SetSystem>,
        n: usize,
        cfg: &HittingSetConfig,
        seed: u64,
    ) -> (Vec<Option<Vec<u32>>>, u64, usize) {
        let proto = HittingSetGossip::new(sys, n, cfg);
        let r = proto.sample_size();
        let elements: Vec<u32> = (0..proto.system().n_elements() as u32).collect();
        let states: Vec<_> = scatter(&elements, n, seed)
            .into_iter()
            .map(|x0| proto.initial_state(x0))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(seed));
        let outcome = net.run(3000);
        assert!(outcome.all_halted(), "did not terminate: {outcome:?}");
        (
            net.states().iter().map(|s| s.output.clone()).collect(),
            outcome.rounds(),
            r,
        )
    }

    #[test]
    fn finds_valid_hitting_set() {
        let (sys, _planted) = planted_hitting_set(256, 40, 3, 6, 31);
        let sys = Arc::new(sys);
        let (outputs, rounds, r) = run(sys.clone(), 256, &HittingSetConfig::new(3), 31);
        for out in &outputs {
            let hs = out.as_ref().expect("output");
            assert!(sys.is_hitting_set(hs));
            assert!(hs.len() <= r, "|HS| = {} > r = {r}", hs.len());
        }
        assert!(rounds < 400, "rounds {rounds}");
    }

    #[test]
    fn size_bound_is_theorem_5() {
        // r = O(d·log(d·s)): check the concrete formula.
        let (sys, _) = planted_hitting_set(128, 64, 2, 5, 32);
        let proto = HittingSetGossip::new(Arc::new(sys), 128, &HittingSetConfig::new(2));
        let d = 2.0f64;
        let s = 64.0f64;
        assert_eq!(
            proto.sample_size(),
            (6.0 * d * (12.0 * d * s).ln()).ceil() as usize
        );
    }

    #[test]
    fn works_when_elements_sparse() {
        // Fewer elements than nodes.
        let (sys, _) = planted_hitting_set(32, 10, 2, 4, 33);
        let sys = Arc::new(sys);
        let (outputs, _, _) = run(sys.clone(), 128, &HittingSetConfig::new(2), 33);
        for out in &outputs {
            assert!(sys.is_hitting_set(out.as_ref().unwrap()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (sys, _) = planted_hitting_set(64, 16, 2, 4, 34);
        let sys = Arc::new(sys);
        let (a, ra, _) = run(sys.clone(), 64, &HittingSetConfig::new(2), 34);
        let (b, rb, _) = run(sys, 64, &HittingSetConfig::new(2), 34);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    /// Sets {0, 1}, {1, 2} and {3} over elements 0..4: {1, 3} is the
    /// smallest hitting set, {0, 2, 3} a larger one, {1, 2} misses {3}.
    fn gate_fixture() -> (HittingSetGossip, HittingSetState) {
        let sys = SetSystem::new(4, vec![vec![0, 1], vec![1, 2], vec![3]]);
        let proto = HittingSetGossip::new(Arc::new(sys), 8, &HittingSetConfig::new(2));
        let mut state = proto.initial_state(vec![0]);
        state.round = 7;
        (proto, state)
    }

    fn deliver(proto: &HittingSetGossip, state: &mut HittingSetState, hs: &[u32]) {
        let mut inbox = vec![HsMsg::Found(Arc::new(hs.to_vec()))];
        let mut rng = PhaseRng::new(0, state.round, 0, 0);
        assert_eq!(
            proto.absorb(0, state, &mut inbox, &mut rng),
            NodeControl::Continue
        );
    }

    fn best(state: &HittingSetState) -> Option<Vec<u32>> {
        state.best.as_ref().map(|hs| hs.to_vec())
    }

    #[test]
    fn invalid_found_is_rejected_without_a_best() {
        let (proto, mut state) = gate_fixture();
        deliver(&proto, &mut state, &[1, 2]);
        assert_eq!((best(&state), state.found_round), (None, None));
    }

    #[test]
    fn invalid_found_that_beats_the_best_is_rejected() {
        let (proto, mut state) = gate_fixture();
        deliver(&proto, &mut state, &[0, 2, 3]);
        assert_eq!(best(&state), Some(vec![0, 2, 3]));
        // Shorter than the best, so it would be adopted if it were valid.
        deliver(&proto, &mut state, &[1, 2]);
        assert_eq!(
            (best(&state), state.found_round),
            (Some(vec![0, 2, 3]), Some(7))
        );
    }

    #[test]
    fn valid_found_that_does_not_beat_the_best_changes_nothing() {
        let (proto, mut state) = gate_fixture();
        deliver(&proto, &mut state, &[1, 3]);
        let held = state.best.clone().expect("adopted");
        state.round = 9;
        deliver(&proto, &mut state, &[0, 2, 3]);
        deliver(&proto, &mut state, &[1, 3]);
        assert!(Arc::ptr_eq(state.best.as_ref().expect("kept"), &held));
        assert_eq!(state.found_round, Some(7));
    }

    #[test]
    fn valid_better_found_is_adopted_keeping_the_first_round() {
        let (proto, mut state) = gate_fixture();
        deliver(&proto, &mut state, &[0, 2, 3]);
        state.round = 9;
        deliver(&proto, &mut state, &[1, 3]);
        assert_eq!(
            (best(&state), state.found_round),
            (Some(vec![1, 3]), Some(7))
        );
    }

    #[test]
    fn solves_set_cover_via_dual() {
        use lpt_problems::SetCover;
        use lpt_workloads::sets::planted_set_cover;
        let sc: SetCover = planted_set_cover(96, 24, 3, 35);
        let dual = Arc::new(sc.dual_hitting_set());
        let (outputs, _, _) = run(dual, 96, &HittingSetConfig::new(3), 35);
        for out in &outputs {
            let cover = out.as_ref().unwrap();
            assert!(sc.is_cover(cover), "dual hitting set must be a set cover");
        }
    }
}
