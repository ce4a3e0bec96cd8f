//! Counter-derived deterministic randomness.
//!
//! Each (seed, round, node, phase) tuple is hashed (SplitMix64-style
//! finalizers over the tuple words) into a 256-bit ChaCha8 key. Streams
//! for distinct tuples are independent for all practical purposes, and —
//! crucially for the parallel simulator — a node's stream never depends
//! on which thread steps it or in what order.
//!
//! ## Schedules
//!
//! *Which* streams the simulator's own uniform destination draws
//! (`PULL_TARGET`, `PUSH_DEST`) come from is versioned by
//! [`RngSchedule`]: the per-node streams above
//! ([`RngSchedule::V1Compat`]) or one block-batched stream per
//! (seed, round, phase) consumed through a [`BatchedSampler`]
//! ([`RngSchedule::V2Batched`], the default), whose bound is the node
//! count under the complete topology and the drawing node's degree on
//! an overlay. Protocol hooks and fault models are unaffected — their
//! streams are identical under every schedule.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rand_chacha::RngCore as _;

/// Phase tags used by the simulator; protocols may use values ≥ 100 for
/// their own derived streams.
pub mod phase {
    /// Phase 1: emitting pull requests.
    pub const PULL: u64 = 0;
    /// Choosing the uniformly random target of each pull request.
    pub const PULL_TARGET: u64 = 1;
    /// Phase 2: serving a pull request.
    pub const SERVE: u64 = 2;
    /// Phase 3: local computation and push emission.
    pub const COMPUTE: u64 = 3;
    /// Choosing the uniformly random destination of each push.
    pub const PUSH_DEST: u64 = 4;
    /// Phase 4: absorbing delivered messages.
    pub const ABSORB: u64 = 5;
}

/// SplitMix64 finalizer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the ChaCha8 stream for `(seed, round, node, phase)`.
pub fn derive_rng(seed: u64, round: u64, node: u64, phase: u64) -> ChaCha8Rng {
    let mut key = [0u8; 32];
    let words = [
        mix(seed ^ mix(round)),
        mix(node.wrapping_add(0xD1B54A32D192ED03) ^ mix(phase)),
        mix(seed.wrapping_mul(0xA24BAED4963EE407).wrapping_add(round)),
        mix(node.wrapping_mul(0x9FB21C651E98DF25) ^ seed.rotate_left(17) ^ phase.rotate_left(41)),
    ];
    for (i, w) in words.iter().enumerate() {
        key[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// Node coordinate reserved for the *batched* per-(seed, round, phase)
/// streams of [`RngSchedule::V2Batched`]. Real node identifiers are
/// `u32`, so no per-node stream can ever collide with a batch stream.
pub const BATCH_STREAM_NODE: u64 = u64::MAX;

/// Version tag for the simulator's destination-draw randomness — the
/// determinism seam every bitstream-changing optimisation must bump.
///
/// A simulation is a pure function of (seed, protocol, fault model,
/// **schedule**): the schedule fixes which ChaCha8 streams the engine's
/// own uniform draws (`PULL_TARGET` pull targets, `PUSH_DEST` push
/// destinations) are read from and how bounded-uniform conversion is
/// performed. Two schedules produce *different but individually
/// deterministic* trajectories; protocol-level outcomes (solution
/// validity, termination) are invariant across schedules, and pinned
/// trajectories in the workspace tests are tagged with the schedule
/// that produced them.
///
/// Changing either the stream layout or the bounded-uniform conversion
/// changes every downstream draw of a run, silently invalidating all
/// pinned trajectories — which is why such a change is only legal as a
/// *new* schedule variant, re-pinned under its own tag, while the old
/// variant keeps reproducing the old bitstream forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RngSchedule {
    /// The original per-node layout: one ChaCha8 key schedule per
    /// (seed, round, node, phase) for every destination draw, with
    /// modulo-rejection bounded conversion (`gen_range`). Bit-identical
    /// to the pre-schedule engine; all historical pinned trajectories
    /// reproduce under this variant.
    V1Compat,
    /// The batched layout (default): one block-batched ChaCha8
    /// keystream per (seed, round, phase) — derived with the
    /// [`BATCH_STREAM_NODE`] coordinate — converted to bounded-uniform
    /// destinations by a [`BatchedSampler`] Lemire widening-multiply
    /// rejection pass that fills the per-round `pull_targets` /
    /// `push_dests` scratch buffers in one sweep. Removes the
    /// per-node key-schedule floor (~60% of a saturated rumor round
    /// under V1) without touching protocol or fault streams.
    #[default]
    V2Batched,
}

impl RngSchedule {
    /// Stable display name, recorded in run reports and perf baselines.
    pub fn name(&self) -> &'static str {
        match self {
            RngSchedule::V1Compat => "v1compat",
            RngSchedule::V2Batched => "v2batched",
        }
    }

    /// Parses a [`RngSchedule::name`] string (CLI / baseline files).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v1compat" | "v1" => Some(RngSchedule::V1Compat),
            "v2batched" | "v2" => Some(RngSchedule::V2Batched),
            _ => None,
        }
    }
}

/// Batched bounded-uniform sampler over one `(seed, round, phase)`
/// batch stream — the [`RngSchedule::V2Batched`] draw path, with a
/// bound chosen per draw (the node count under the complete topology,
/// the drawing node's degree on an overlay).
///
/// One ChaCha8 key schedule is paid at construction; every draw then
/// consumes 64-bit words from the block-buffered keystream and converts
/// them with Lemire's widening-multiply method: for a word `x`, the
/// candidate is the high 64 bits of `x · bound`, accepted unless the
/// low 64 bits fall below `2^64 mod bound` (at most one word in
/// `bound / 2^64` is rejected, so almost every draw costs exactly one
/// multiply and one comparison). Acceptance-by-threshold makes the
/// sampler exactly uniform: each of the `bound` outcomes owns the same
/// number of accepted words. The threshold is cached for the last
/// bound, so a sweep at one bound pays its modulo once.
#[derive(Debug)]
pub struct BatchedSampler {
    rng: ChaCha8Rng,
    /// The bound `threshold` belongs to (0 before the first draw).
    bound: u64,
    /// `2^64 mod bound`: words whose widened low half falls below this
    /// are rejected (zero for power-of-two bounds — no rejection).
    threshold: u64,
}

impl BatchedSampler {
    /// The sampler for the `(seed, round, phase)` batch stream.
    pub fn new(seed: u64, round: u64, phase: u64) -> Self {
        BatchedSampler {
            rng: derive_rng(seed, round, BATCH_STREAM_NODE, phase),
            bound: 0,
            threshold: 0,
        }
    }

    /// The next uniform index in `0..bound`.
    ///
    /// # Panics
    /// Panics when `bound == 0` (an empty outcome set cannot be
    /// sampled; topology arenas guarantee non-empty neighbor rows).
    #[inline]
    pub fn next_in(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "BatchedSampler needs a non-empty range");
        let bound = bound as u64;
        if bound != self.bound {
            self.bound = bound;
            self.threshold = bound.wrapping_neg() % bound;
        }
        let wide = u128::from(bound);
        loop {
            let m = u128::from(self.rng.next_u64()) * wide;
            if (m as u64) >= self.threshold {
                return (m >> 64) as usize;
            }
        }
    }
}

/// The lazily derived `(seed, round, node, phase)` stream handed to
/// protocol hooks.
///
/// Key derivation and ChaCha8 state setup only happen on the *first*
/// draw, so a hook that takes no randomness (most hooks of most
/// protocols — e.g. a push-only protocol never draws in `pulls`,
/// `compute`, or `absorb`) costs four stored words instead of a full
/// key schedule per node per phase per round. Because every stream is
/// still a pure function of its coordinates, skipping the derivation
/// of never-used streams cannot change any drawn value: simulations
/// are bit-identical to eager derivation (the pinned trajectories in
/// the workspace tests enforce this).
#[derive(Debug)]
pub struct PhaseRng {
    seed: u64,
    round: u64,
    node: u64,
    phase: u64,
    inner: Option<ChaCha8Rng>,
}

impl PhaseRng {
    /// A handle for the `(seed, round, node, phase)` stream; nothing is
    /// derived until the first draw.
    #[inline]
    pub fn new(seed: u64, round: u64, node: u64, phase: u64) -> Self {
        PhaseRng {
            seed,
            round,
            node,
            phase,
            inner: None,
        }
    }

    /// Whether the underlying stream has been derived (i.e. whether
    /// anything was drawn from this handle).
    pub fn materialized(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn force(&mut self) -> &mut ChaCha8Rng {
        if self.inner.is_none() {
            self.inner = Some(derive_rng(self.seed, self.round, self.node, self.phase));
        }
        self.inner.as_mut().expect("just materialized")
    }
}

impl rand::RngCore for PhaseRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.force().next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.force().next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.force().fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_tuple_same_stream() {
        let mut a = derive_rng(1, 2, 3, 4);
        let mut b = derive_rng(1, 2, 3, 4);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_tuples_differ() {
        let base: u64 = derive_rng(1, 2, 3, 4).gen();
        assert_ne!(base, derive_rng(2, 2, 3, 4).gen::<u64>());
        assert_ne!(base, derive_rng(1, 3, 3, 4).gen::<u64>());
        assert_ne!(base, derive_rng(1, 2, 4, 4).gen::<u64>());
        assert_ne!(base, derive_rng(1, 2, 3, 5).gen::<u64>());
    }

    #[test]
    fn phase_rng_matches_eager_derivation_and_is_lazy() {
        use rand::RngCore;
        let mut lazy = PhaseRng::new(9, 8, 7, 6);
        assert!(!lazy.materialized(), "no derivation before the first draw");
        let mut eager = derive_rng(9, 8, 7, 6);
        for _ in 0..32 {
            assert_eq!(RngCore::next_u64(&mut lazy), RngCore::next_u64(&mut eager));
        }
        assert!(lazy.materialized());
        let mut bytes_lazy = [0u8; 24];
        let mut bytes_eager = [0u8; 24];
        RngCore::fill_bytes(&mut lazy, &mut bytes_lazy);
        RngCore::fill_bytes(&mut eager, &mut bytes_eager);
        assert_eq!(bytes_lazy, bytes_eager);
        assert_eq!(RngCore::next_u32(&mut lazy), RngCore::next_u32(&mut eager));
    }

    #[test]
    fn schedule_names_round_trip() {
        for s in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            assert_eq!(RngSchedule::parse(s.name()), Some(s));
        }
        assert_eq!(RngSchedule::parse("v1"), Some(RngSchedule::V1Compat));
        assert_eq!(RngSchedule::parse("v2"), Some(RngSchedule::V2Batched));
        assert_eq!(RngSchedule::parse("v3quantum"), None);
        assert_eq!(RngSchedule::default(), RngSchedule::V2Batched);
    }

    #[test]
    fn batched_sampler_is_deterministic_and_in_range() {
        let draw = |count: usize| -> Vec<usize> {
            let mut s = BatchedSampler::new(11, 3, phase::PUSH_DEST);
            (0..count).map(|_| s.next_in(1000)).collect()
        };
        let a = draw(512);
        let b = draw(512);
        assert_eq!(a, b, "same coordinates, same sequence");
        assert!(a.iter().all(|&v| v < 1000));
        // A different phase gives an independent stream.
        let mut other = BatchedSampler::new(11, 3, phase::PULL_TARGET);
        let c: Vec<usize> = (0..512).map(|_| other.next_in(1000)).collect();
        assert_ne!(a, c);
    }

    /// Lemire rejection computed from scratch for every draw, over the
    /// raw batch keystream: the reference the cached-threshold sampler
    /// must match word for word.
    fn reference_lemire(seed: u64, round: u64, phase: u64) -> impl FnMut(usize) -> usize {
        let mut raw = derive_rng(seed, round, BATCH_STREAM_NODE, phase);
        move |bound| {
            let bound = bound as u64;
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = u128::from(rand::RngCore::next_u64(&mut raw)) * u128::from(bound);
                if (m as u64) >= threshold {
                    return (m >> 64) as usize;
                }
            }
        }
    }

    #[test]
    fn batched_sampler_matches_reference_lemire_on_raw_stream() {
        // The sampler must be exactly Lemire rejection over the derived
        // keystream — no hidden buffering or word skipping.
        let mut reference = reference_lemire(5, 7, phase::PUSH_DEST);
        let mut sampler = BatchedSampler::new(5, 7, phase::PUSH_DEST);
        for _ in 0..4096 {
            assert_eq!(sampler.next_in(97), reference(97));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn batched_sampler_rejects_zero_bound() {
        let _ = BatchedSampler::new(0, 0, 0).next_in(0);
    }

    /// At a constant bound the cached threshold is computed once and
    /// reused: the draws must still be the reference's, word for word.
    #[test]
    fn batched_sampler_matches_reference_lemire_at_constant_bound() {
        for bound in [1usize, 2, 97, 1000, 1 << 16] {
            let mut reference = reference_lemire(11, 3, phase::PUSH_DEST);
            let mut sampler = BatchedSampler::new(11, 3, phase::PUSH_DEST);
            for _ in 0..2048 {
                assert_eq!(sampler.next_in(bound), reference(bound), "bound {bound}");
            }
        }
    }

    /// The threshold cache across bound changes: runs at one bound,
    /// draws that change the bound every time, and returns to earlier
    /// bounds. A threshold only decides draws for bounds near 2^64,
    /// where `2^64 mod bound` rejects a large share of words, so two
    /// such bounds are in the mix: a stale threshold would accept or
    /// reject the wrong words within a few draws.
    #[test]
    fn cached_threshold_follows_bound_changes() {
        let half = (1usize << 63) + 1; // rejects about half of all words
        let quarter = 3usize << 62; // rejects a quarter
        let mut reference = reference_lemire(13, 2, phase::PULL_TARGET);
        let mut sampler = BatchedSampler::new(13, 2, phase::PULL_TARGET);
        let bounds = std::iter::repeat_n(half, 200)
            .chain((0..600).map(|k| [half, quarter, k % 37 + 1][k % 3]))
            .chain(std::iter::repeat_n(quarter, 200))
            .chain([97, 1000, 97])
            .chain(std::iter::repeat_n(half, 200));
        for (i, bound) in bounds.enumerate() {
            assert_eq!(
                sampler.next_in(bound),
                reference(bound),
                "draw {i}, bound {bound}"
            );
        }
    }

    #[test]
    fn batched_sampler_respects_per_draw_bounds() {
        let mut s = BatchedSampler::new(5, 1, phase::PULL_TARGET);
        for k in 1..200usize {
            let v = s.next_in(k);
            assert!(v < k, "draw {v} out of 0..{k}");
        }
        // Determinism across reconstruction.
        let draw = |count: usize| -> Vec<usize> {
            let mut s = BatchedSampler::new(5, 2, phase::PULL_TARGET);
            (0..count).map(|i| s.next_in(i % 7 + 1)).collect()
        };
        assert_eq!(draw(512), draw(512));
    }

    /// Chi-squared-style bucket check over the V2 destination draws at
    /// a fixed seed: a Lemire-rejection bug (wrong threshold sign,
    /// skipped rejection, off-by-one bound) skews bucket occupancy far
    /// beyond any plausible statistical fluctuation, so this test keeps
    /// such bugs from silently biasing gossip targets.
    #[test]
    fn batched_sampler_passes_chi_squared_bucket_check() {
        // 97 buckets (prime, so the rejection path is exercised: 2^64
        // mod 97 != 0) with 1000 expected hits each.
        let buckets = 97usize;
        let draws = buckets * 1000;
        let mut counts = vec![0u64; buckets];
        let mut sampler = BatchedSampler::new(2024, 0, phase::PUSH_DEST);
        for _ in 0..draws {
            counts[sampler.next_in(buckets)] += 1;
        }
        let expected = (draws / buckets) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 96 degrees of freedom: mean 96, std ≈ 13.9. 165 is ≈ 5 sigma
        // — a false failure is astronomically unlikely at a fixed seed,
        // while e.g. dropping the rejection step biases low buckets by
        // whole multiples of sigma.
        assert!(chi2 < 165.0, "chi2 = {chi2:.1} over {buckets} buckets");
        // And the same check at a power-of-two bound (no rejection).
        let buckets = 64usize;
        let mut counts = vec![0u64; buckets];
        let mut sampler = BatchedSampler::new(2024, 1, phase::PULL_TARGET);
        for _ in 0..buckets * 1000 {
            counts[sampler.next_in(buckets)] += 1;
        }
        let expected = 1000.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 63 degrees of freedom: mean 63, std ≈ 11.2.
        assert!(chi2 < 120.0, "chi2 = {chi2:.1} over {buckets} buckets");
    }

    #[test]
    fn streams_look_uniform() {
        // Coarse sanity: mean of u01 draws across many derived streams.
        let mut acc = 0.0;
        let trials = 2000;
        for node in 0..trials {
            let mut r = derive_rng(7, 0, node, phase::PULL);
            acc += r.gen::<f64>();
        }
        let mean = acc / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
