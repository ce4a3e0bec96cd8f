//! What happens to one node and one message in one round, decided in
//! one place for both engines.
//!
//! The paper's round is the same steps for every node: pull, serve,
//! compute, push, absorb. The round engine ([`crate::net`]) runs them
//! as phase loops over all nodes; the event engine ([`crate::event`])
//! runs them as events popped in `(time, seq)` order. Everything inside
//! a step is written here once: which protocol hook runs on which RNG
//! stream, where destinations are drawn from, which fault hooks decide
//! a message's fate and in what order, and what the round's metrics
//! count. Under unit latency the event engine therefore replays the
//! round engine by construction. The engines keep only what is theirs:
//! phase sequencing and the delay ring in the round engine; the queue,
//! link latency and loss, and per-local-round batches in the event
//! engine.
//!
//! Fault hooks take the round the engine is executing (the event
//! engine's tick), protocol streams the node's own round; the two
//! coincide in the round engine and under unit latency. Under
//! [`Perfect`](crate::fault::Perfect) no fault hook is called.

use crate::fault::FaultModel;
use crate::metrics::{Metrics, RoundMetrics};
use crate::net::NetworkConfig;
use crate::protocol::{NodeControl, Protocol, Response};
use crate::rng::{derive_rng, phase, BatchedSampler, PhaseRng, RngSchedule};
use crate::scratch::BitSet;
use crate::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// What one round (one tick, in the event engine) did, counted as it
/// happens. Phases that step nodes in parallel fill one tally per node
/// and fold them with [`Tally::merge`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    pub pulls: u64,
    pub pushes: u64,
    /// Largest per-node work (pulls + pushes issued).
    pub max_work: u64,
    /// Pulls served with a message, including responses lost later.
    pub served: u64,
    /// Words of every served response and every emitted push, sent
    /// whether or not they arrive.
    pub words: u64,
    /// Lost messages other than link cuts.
    pub dropped: u64,
    /// Pulls and pushes severed by the fault model's link cuts.
    pub cut: u64,
    /// Corrupted responses discarded by their pullers (also dropped).
    pub byzantine: u64,
    /// Pushes delivered in a later round than they were sent.
    pub delayed: u64,
    pub offline: u64,
}

impl Tally {
    /// Adds `other`'s counts to this tally (work is a maximum).
    pub(crate) fn merge(&mut self, other: &Tally) {
        self.pulls += other.pulls;
        self.pushes += other.pushes;
        self.max_work = self.max_work.max(other.max_work);
        self.served += other.served;
        self.words += other.words;
        self.dropped += other.dropped;
        self.cut += other.cut;
        self.byzantine += other.byzantine;
        self.delayed += other.delayed;
        self.offline += other.offline;
    }
}

/// Node `node`'s step in its round `round`: `live` unless it halted or
/// the fault model took it offline, in which case its hooks do not run.
#[derive(Clone, Copy)]
pub(crate) struct Turn {
    pub round: u64,
    pub node: usize,
    pub live: bool,
}

impl Turn {
    fn rng(self, seed: u64, phase: u64) -> PhaseRng {
        PhaseRng::new(seed, self.round, self.node as u64, phase)
    }
}

/// One message's fault-hook coordinates: the round whose hooks decide
/// it, the node that sent it (or pulled), the remote endpoint, and its
/// index among that node's pulls or pushes of the round.
#[derive(Clone, Copy)]
pub(crate) struct Route {
    pub round: u64,
    pub from: NodeId,
    pub to: NodeId,
    pub k: u64,
}

/// The coordinates of one phase's destination draws (`PULL_TARGET` or
/// `PUSH_DEST`) in one round, under one schedule.
#[derive(Clone, Copy)]
pub(crate) struct DrawKeys {
    pub schedule: RngSchedule,
    pub seed: u64,
    pub round: u64,
    pub phase: u64,
}

impl DrawKeys {
    /// The round's shared batch stream (V2).
    pub(crate) fn batch(self) -> BatchedSampler {
        BatchedSampler::new(self.seed, self.round, self.phase)
    }

    /// Node `node`'s destinations: under V1 its own
    /// `(seed, round, node, phase)` stream, under V2 the round's shared
    /// batch stream, which only then is taken from `batch`.
    pub(crate) fn dests<'b>(
        self,
        node: usize,
        batch: impl FnOnce() -> &'b mut BatchedSampler,
    ) -> Dests<'b> {
        match self.schedule {
            RngSchedule::V1Compat => {
                Dests::Own(derive_rng(self.seed, self.round, node as u64, self.phase))
            }
            RngSchedule::V2Batched => Dests::Shared(batch()),
        }
    }
}

/// Where one node's destinations of one phase come from.
pub(crate) enum Dests<'b> {
    /// V1: modulo-rejection draws (`gen_range`) on the node's own stream.
    Own(ChaCha8Rng),
    /// V2: Lemire draws on the round's shared batch stream.
    Shared(&'b mut BatchedSampler),
}

impl Dests<'_> {
    /// The next destination node id: uniform over `0..n` on the
    /// complete topology, over the drawing node's neighbor row `nbrs`
    /// otherwise.
    #[inline]
    pub(crate) fn next(&mut self, n: usize, nbrs: Option<&[u32]>) -> usize {
        let bound = nbrs.map_or(n, <[u32]>::len);
        let k = match self {
            Dests::Own(rng) => rng.gen_range(0..bound),
            Dests::Shared(batch) => batch.next_in(bound),
        };
        nbrs.map_or(k, |row| row[k] as usize)
    }
}

/// The protocol and the run's seed, fault model and schedule:
/// everything a step reads besides node state.
pub(crate) struct Fate<'a, P> {
    pub protocol: &'a P,
    fault: &'a dyn FaultModel,
    pub seed: u64,
    schedule: RngSchedule,
    perfect: bool,
}

impl<'a, P: Protocol> Fate<'a, P> {
    pub(crate) fn new(protocol: &'a P, cfg: &'a NetworkConfig) -> Self {
        Fate {
            protocol,
            fault: &*cfg.fault,
            seed: cfg.seed,
            schedule: cfg.schedule,
            perfect: cfg.fault.is_perfect(),
        }
    }

    /// The keys of `phase`'s destination draws in `round`.
    pub(crate) fn draws(&self, round: u64, phase: u64) -> DrawKeys {
        DrawKeys {
            schedule: self.schedule,
            seed: self.seed,
            round,
            phase,
        }
    }

    /// The availability scan: one answer per node per round, shared by
    /// every step of the round, filled one 64-node word per task so a
    /// parallel scan races on nothing (`min_len` is the round's
    /// `with_min_len` bound; `usize::MAX` scans on this thread).
    /// Returns the offline count.
    pub(crate) fn scan_offline(&self, round: u64, offline: &mut BitSet, min_len: usize) -> u64 {
        offline.clear();
        if !self.perfect {
            let n = offline.len();
            offline
                .words_mut()
                .par_iter_mut()
                .enumerate()
                .with_min_len(min_len)
                .for_each(|(w, word)| {
                    let base = w * 64;
                    let mut bits = 0u64;
                    for b in 0..64.min(n - base) {
                        if self.fault.offline(self.seed, round, (base + b) as NodeId) {
                            bits |= 1 << b;
                        }
                    }
                    *word = bits;
                });
        }
        offline.count_ones()
    }

    /// The pull step: a live node emits its queries into `out`.
    /// Returns how many.
    pub(crate) fn pulls(
        &self,
        turn: Turn,
        state: &P::State,
        out: &mut Vec<P::Query>,
        tally: &mut Tally,
    ) -> usize {
        out.clear();
        if turn.live {
            let mut rng = turn.rng(self.seed, phase::PULL);
            self.protocol
                .pulls(turn.node as NodeId, state, &mut rng, out);
        }
        tally.pulls += out.len() as u64;
        out.len()
    }

    /// The pull fate of query `q`, aimed along `route`. A pull to an
    /// offline target fails, and a severed link kills the request
    /// before it is served; neither costs serving work. A served
    /// response costs its words even if it is then corrupted (the
    /// puller detects and discards it) or lost in transit. Returns the
    /// response that reaches the puller, if any.
    pub(crate) fn serve(
        &self,
        route: Route,
        q: &P::Query,
        states: &[P::State],
        offline: &BitSet,
        rng: &mut PhaseRng,
        tally: &mut Tally,
    ) -> Option<Response<P::Msg>> {
        let Route { round, from, to, k } = route;
        if offline.get(to as usize) {
            return None;
        }
        if !self.perfect && self.fault.cuts_pull(self.seed, round, from, to, k) {
            tally.cut += 1;
            return None;
        }
        let served = self.protocol.serve(to, &states[to as usize], q, rng)?;
        tally.served += 1;
        tally.words += self.protocol.msg_words(&served.msg) as u64;
        if !self.perfect {
            if self.fault.corrupts_response(self.seed, round, to, from, k) {
                tally.byzantine += 1;
                tally.dropped += 1;
                return None;
            }
            if self.fault.drops_response(self.seed, round, from, k) {
                tally.dropped += 1;
                return None;
            }
        }
        Some(Response {
            msg: served.msg,
            from: to,
            slot: served.slot,
        })
    }

    /// The compute step: a live node consumes its `responses` and emits
    /// pushes into `out`; its work is its `pulls` plus those pushes.
    /// Returns whether it halts.
    pub(crate) fn compute(
        &self,
        turn: Turn,
        state: &mut P::State,
        responses: &mut Vec<Option<Response<P::Msg>>>,
        out: &mut Vec<P::Msg>,
        pulls: usize,
        tally: &mut Tally,
    ) -> bool {
        out.clear();
        let halt = turn.live && {
            let mut rng = turn.rng(self.seed, phase::COMPUTE);
            self.protocol
                .compute(turn.node as NodeId, state, responses, &mut rng, out)
                == NodeControl::Halt
        };
        responses.clear();
        let pushes = out.len() as u64;
        tally.pushes += pushes;
        tally.max_work = tally.max_work.max(pulls as u64 + pushes);
        for msg in out.iter() {
            tally.words += self.protocol.msg_words(msg) as u64;
        }
        halt
    }

    /// The push fate along `route`, decided against the resolved
    /// destination: a severed link or a lost push is gone (`None`);
    /// otherwise the extra delivery delay, in rounds.
    pub(crate) fn push(&self, route: Route, tally: &mut Tally) -> Option<u64> {
        if self.perfect {
            return Some(0);
        }
        let Route { round, from, to, k } = route;
        if self.fault.cuts_push(self.seed, round, from, to, k) {
            tally.cut += 1;
            return None;
        }
        if self.fault.drops_push(self.seed, round, from, k) {
            tally.dropped += 1;
            return None;
        }
        Some(self.fault.push_delay(self.seed, round, from, k))
    }

    /// The delivery check for a push from `sender` reaching `dest` in
    /// `round`: an offline destination loses it, and a message sent in
    /// an earlier round (`crossed`) is lost if its sender has since
    /// fail-stopped. A fail-stop crash silences the node's outstanding
    /// traffic; transiently offline senders' messages still arrive.
    /// Returns whether the message reaches the inbox.
    pub(crate) fn arrives(
        &self,
        round: u64,
        sender: NodeId,
        dest: usize,
        crossed: bool,
        offline: &BitSet,
        tally: &mut Tally,
    ) -> bool {
        let lost = offline.get(dest)
            || (crossed && !self.perfect && self.fault.crashed(self.seed, round, sender));
        tally.dropped += u64::from(lost);
        !lost
    }

    /// The absorb step: a live node absorbs its inbox, which is then
    /// cleared either way. Returns whether the node halts this round,
    /// in `absorb` or (`computed_halt`) already in `compute`.
    pub(crate) fn absorb(
        &self,
        turn: Turn,
        state: &mut P::State,
        inbox: &mut Vec<P::Msg>,
        computed_halt: bool,
    ) -> bool {
        let halt = turn.live && {
            let mut rng = turn.rng(self.seed, phase::ABSORB);
            let absorbed = self
                .protocol
                .absorb(turn.node as NodeId, state, inbox, &mut rng);
            absorbed == NodeControl::Halt || computed_halt
        };
        inbox.clear();
        halt
    }

    /// Closes the round executed at virtual time `time`: the load and
    /// halted reductions, the degradation accounting, and the round's
    /// metrics row, appended to `metrics` and numbered by its position
    /// there.
    pub(crate) fn close(
        &self,
        states: &[P::State],
        halted: &[bool],
        time: u64,
        tally: &Tally,
        metrics: &mut Metrics,
    ) -> RoundMetrics {
        let mut total_load = 0u64;
        let mut max_load = 0u64;
        for s in states {
            let load = self.protocol.load(s) as u64;
            total_load += load;
            max_load = max_load.max(load);
        }
        // Structured-failure tallies; they stay zero under `Perfect`
        // and the i.i.d. models, whose hooks answer the defaults.
        if !self.perfect {
            let deg = &mut metrics.degradation;
            deg.link_cuts += tally.cut;
            deg.byzantine_exposures += tally.byzantine;
            // Tracks the *final* round's state: healed runs clear it.
            deg.unhealed_partition = self.fault.partition_active(self.seed, time);
            deg.partitioned_rounds += u64::from(deg.unhealed_partition);
        }
        let rm = RoundMetrics {
            round: metrics.rounds.len() as u64,
            vtime: time,
            pulls: tally.pulls,
            pushes: tally.pushes,
            max_node_work: tally.max_work,
            served: tally.served,
            msg_words: tally.words,
            total_load,
            max_load,
            halted: halted.iter().filter(|&&h| h).count() as u64,
            offline: tally.offline,
            dropped: tally.dropped + tally.cut,
            delayed: tally.delayed,
        };
        metrics.rounds.push(rm);
        rm
    }
}
