//! Reusable per-round buffers: the round engine's memory model.
//!
//! [`Network::round`](crate::Network::round) used to rebuild every
//! per-node buffer (queries, responses, inboxes, push lists, the
//! offline scan) from scratch each round — `O(n)` heap allocations per
//! round even when nothing happened. `RoundScratch` owns all of them
//! for the lifetime of the network: each round `clear()`s and refills
//! in place, so steady-state simulation performs **zero heap
//! allocations** under the [`Perfect`](crate::fault::Perfect) fault
//! model (verified by the `alloc_steady_state` integration test and
//! the `round_engine` micro-benchmark).
//!
//! Buffer reuse cannot perturb results: every RNG stream is derived
//! from `(seed, round, node, phase)` alone (see [`crate::rng`]), and
//! the engine clears each buffer before any phase reads or writes it,
//! so the values flowing through the round are bit-identical to the
//! rebuild-everything engine. The pinned pre-fault trajectories in the
//! workspace's `tests/faults.rs` enforce this.

use crate::obs::{Counter, Phase, Recorder};
use crate::protocol::{Protocol, Response};
use crate::step::{DrawKeys, Tally};
use crate::topology::Adjacency;

/// A fixed-capacity bitset over `0..len`, reused across rounds for the
/// per-node offline scan (one bit per node instead of one `bool` byte,
/// so clearing 2^17 nodes touches 2 KiB, not 128 KiB).
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A cleared bitset with capacity for `len` bits.
    pub fn with_len(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset addresses zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears every bit (no deallocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The backing words, 64 bits each (bit `i` lives in word `i / 64`).
    /// Exposed so the offline scan can be filled one whole word per
    /// parallel task without data races.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// All per-round working memory of a [`crate::Network`], allocated once
/// at construction and reused (cleared, never freed) every round.
///
/// Row `i` of every field belongs to node `i`, which is what lets the
/// parallel stepping path hand each node its own `&mut` row
/// (`par_iter_mut` over pre-sized rows) while remaining byte-identical
/// to sequential stepping.
#[derive(Debug)]
pub(crate) struct RoundScratch<P: Protocol> {
    /// Phase 0: which nodes the fault model took offline this round.
    pub offline: BitSet,
    /// Phase 1 output: node `i`'s pull requests.
    pub queries: Vec<Vec<P::Query>>,
    /// Phase 2 output: node `i`'s pull responses, index-aligned with
    /// `queries[i]` (`None` = failed pull).
    pub responses: Vec<Vec<Option<Response<P::Msg>>>>,
    /// Node `i`'s share of the round's metrics, counted by the pull,
    /// serve and compute phases and folded once after compute, so no
    /// pass re-walks the rows to count work.
    pub tallies: Vec<Tally>,
    /// Node `i`'s pull targets, index-aligned with `queries[i]`, filled
    /// in one sweep between phases 1 and 2 (see [`refill_dest_rows`]).
    /// Always resolved node ids: non-complete topologies draw
    /// neighbor-list indices and map them through the adjacency arena
    /// during the sweep.
    pub pull_targets: Vec<Vec<u32>>,
    /// Phase 3 output: node `i`'s emitted pushes (drained into inboxes
    /// or the delay queue during delivery).
    pub pushes: Vec<Vec<P::Msg>>,
    /// Phase 3 output: whether node `i` halted in `compute`.
    pub compute_halts: Vec<bool>,
    /// Node `i`'s push destinations, index-aligned with `pushes[i]`,
    /// filled in one sweep between phases 3 and 4.
    pub push_dests: Vec<Vec<u32>>,
    /// Phase 4 input: messages delivered to node `i` this round.
    pub inboxes: Vec<Vec<P::Msg>>,
}

/// One destination refill sweep: fills `rows` (pull targets or push
/// destinations, one row per node) in row order, `rows[i]` getting
/// `counts[i]` draws from node `i`'s destination stream under `keys`
/// (see [`DrawKeys::dests`]): per-node streams under V1, one batch
/// stream consumed in node order under V2. Rows always hold final
/// node ids.
///
/// The sweep is recorded as a [`Phase::Refill`] span (with
/// [`Counter::RefillRows`] counting the draws); recording only reads
/// values the sweep computed anyway, so an attached recorder cannot
/// perturb the keystream or the rows.
pub(crate) fn refill_dest_rows(
    rows: &mut [Vec<u32>],
    counts: impl Iterator<Item = usize>,
    keys: DrawKeys,
    adj: Option<&Adjacency>,
    rec: &mut dyn Recorder,
) {
    rec.span_start(Phase::Refill);
    let n = rows.len();
    let mut batch = None;
    let mut drawn: u64 = 0;
    for (i, (row, count)) in rows.iter_mut().zip(counts).enumerate() {
        row.clear();
        if count == 0 {
            continue;
        }
        let nbrs = adj.map(|a| a.row(i));
        let mut dests = keys.dests(i, || batch.get_or_insert_with(|| keys.batch()));
        row.extend((0..count).map(|_| dests.next(n, nbrs) as u32));
        drawn += count as u64;
    }
    rec.add(Counter::RefillRows, drawn);
    rec.span_end(Phase::Refill);
}

impl<P: Protocol> RoundScratch<P> {
    /// Scratch for an `n`-node network, with every buffer empty.
    pub fn new(n: usize) -> Self {
        RoundScratch {
            offline: BitSet::with_len(n),
            queries: (0..n).map(|_| Vec::new()).collect(),
            responses: (0..n).map(|_| Vec::new()).collect(),
            tallies: vec![Tally::default(); n],
            pull_targets: (0..n).map(|_| Vec::new()).collect(),
            pushes: (0..n).map(|_| Vec::new()).collect(),
            compute_halts: vec![false; n],
            push_dests: (0..n).map(|_| Vec::new()).collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get_clear() {
        let mut b = BitSet::with_len(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        for i in [0, 1, 63, 64, 65, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 7);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(64));
    }

    #[test]
    fn bitset_words_cover_all_bits() {
        let mut b = BitSet::with_len(65);
        assert_eq!(b.words_mut().len(), 2);
        b.words_mut()[1] = 1;
        assert!(b.get(64));
        assert!(BitSet::with_len(0).is_empty());
    }
}
