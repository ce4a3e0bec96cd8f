//! Discrete-event asynchronous core with typed links.
//!
//! The round-synchronous engine in [`crate::net`] advances every node in
//! lockstep: one round = one iteration of the paper's repeat loop, with
//! a fixed one-round message latency. Real gossip deployments are not
//! synchronous — links have heterogeneous latency, finite rate, and
//! loss. This module makes that a first-class execution model while
//! keeping the determinism contract intact:
//!
//! * **Event queue.** A calendar queue ([`EventQueue`]): one FIFO
//!   bucket per event time in an ordered map, so events pop in the
//!   *total* order `(time, seq)`, where `seq` is a monotonically
//!   increasing insertion counter. Two runs of the same spec therefore
//!   pop events in exactly the same order — identical specs replay
//!   byte-identically, with no dependence on hash ordering or thread
//!   scheduling.
//! * **Typed links.** A [`LinkPlan`] assigns every ordered node pair a
//!   [`Link`] descriptor carrying per-edge latency, rate, and loss.
//!   Link properties are drawn from a dedicated seed space
//!   ([`LINK_SEED_MIX`], mirroring the fault subsystem's
//!   `FAULT_SEED_MIX`), so installing a link plan cannot perturb the
//!   protocol or fault RNG streams.
//! * **Node components addressed by id.** Every event targets a node
//!   (or an ordered edge between two nodes); per-node per-round RNG
//!   streams are the same `(seed, round, node, phase)`-derived streams
//!   the round engine uses, keyed by the node's *local* round.
//!
//! ## The unit-latency degeneracy
//!
//! The round-synchronous engine is the degenerate schedule of this one:
//! under [`LinkPlan::unit`] (every link has latency 1, no loss,
//! unlimited rate) the event engine reproduces the round engine
//! byte-for-byte — same states, same metrics, same pinned
//! trajectories. The virtual clock is partitioned into *ticks*; within
//! a tick, events execute in phase-class order (start-round, serve,
//! compute, push delivery, absorb), and within a class in insertion
//! order, which under unit latency is exactly the node order the round
//! engine's phase loops use. A node's pull requests that reach their
//! targets in the same tick are served by one event, which writes each
//! response straight into the puller's slot: only the puller's own
//! compute reads it, and that compute is scheduled no earlier than the
//! tick the response arrives. What each event does to its node or
//! message (protocol hook, destination draw, fault hooks, metrics
//! tally) is the round engine's own code, shared through the crate's
//! private step module; this module adds only the queue, link latency
//! and loss, and the per-local-round batch streams. Every RNG stream
//! and fault-model hook is keyed by coordinates that coincide with the
//! round engine's under unit latency (local round == tick == round
//! index). The equivalence is enforced by tests across the full
//! {schedule} × {topology} × {fault} grid and by the pinned-trajectory
//! battery in CI, which still gates event ordering.
//!
//! Select the engine via [`crate::NetworkConfig::engine`] (or
//! `Driver::engine` in `lpt-gossip`):
//!
//! ```
//! use gossip_sim::event::{Engine, LinkPlan};
//! use gossip_sim::NetworkConfig;
//!
//! // Degenerate schedule: byte-identical to the round engine.
//! let cfg = NetworkConfig::with_seed(7).engine(Engine::EventDriven(LinkPlan::unit()));
//! // Heterogeneous WAN-ish latencies: genuinely asynchronous rounds.
//! let cfg = NetworkConfig::with_seed(7).engine(Engine::EventDriven(LinkPlan::uniform(1, 4)));
//! # let _ = cfg;
//! ```

use crate::metrics::{Metrics, RoundMetrics};
use crate::obs::{Counter, Gauge, Phase, Recorder};
use crate::protocol::Protocol;
use crate::rng::{derive_rng, phase, BatchedSampler, PhaseRng};
use crate::scratch::RoundScratch;
use crate::step::{Dests, DrawKeys, Fate, Route, Tally, Turn};
use crate::topology::Adjacency;
use crate::NodeId;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/// Which execution engine a [`crate::Network`] steps its rounds with.
///
/// The default [`Engine::RoundSync`] is the paper's synchronous model —
/// the historical engine, unchanged. [`Engine::EventDriven`] runs the
/// discrete-event scheduler of this module under a [`LinkPlan`]; with
/// [`LinkPlan::unit`] it is byte-identical to `RoundSync` (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The round-synchronous engine (default; the paper's model).
    #[default]
    RoundSync,
    /// The discrete-event engine under the given link plan.
    EventDriven(LinkPlan),
}

impl Engine {
    /// Canonical name, a spec-grammar *name token* (lowercase ASCII,
    /// digits, hyphens): `round-sync`, `event-unit`,
    /// `event-const-<L>[-loss-<PPM>]`,
    /// `event-uniform-<MIN>-<MAX>[-loss-<PPM>]`.
    pub fn name(&self) -> String {
        match self {
            Engine::RoundSync => "round-sync".to_string(),
            Engine::EventDriven(plan) => plan.name(),
        }
    }

    /// Parses a canonical engine name (the inverse of [`Engine::name`]).
    /// Returns `None` for unknown names or out-of-range parameters.
    pub fn parse(s: &str) -> Option<Engine> {
        if s == "round-sync" {
            return Some(Engine::RoundSync);
        }
        LinkPlan::parse(s).map(Engine::EventDriven)
    }

    /// Whether this is the default round-synchronous engine.
    pub fn is_default(&self) -> bool {
        matches!(self, Engine::RoundSync)
    }
}

// ---------------------------------------------------------------------------
// Links
// ---------------------------------------------------------------------------

/// Seed-mixing constant for the link stream space (ASCII `"links"`),
/// mirroring the fault subsystem's `FAULT_SEED_MIX` (`"faults"`): link
/// latency and loss draws run on `seed ^ LINK_SEED_MIX`, so they can
/// never collide with (or perturb) protocol or fault streams derived
/// from the raw seed.
pub const LINK_SEED_MIX: u64 = 0x0000_006C_696E_6B73;

/// Loss probabilities are integer parts-per-million, so link plans stay
/// `Eq + Hash` (they participate in the server's exact spec cache key).
pub const LOSS_PPM_SCALE: u32 = 1_000_000;

/// One directed link's properties, as resolved by a [`LinkPlan`] for an
/// ordered `(from, to)` node pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Link {
    /// Delivery latency in rounds (ticks); the round engine's fixed
    /// latency corresponds to `1` (send in round `i`, absorb in round
    /// `i`'s absorb phase — the paper's "arrives at the beginning of
    /// round `i + 1`" accounting).
    pub latency: u32,
    /// Per-message loss probability in parts per million
    /// ([`LOSS_PPM_SCALE`] = certain loss).
    pub loss_ppm: u32,
    /// Link rate in message words per tick; `u32::MAX` means unlimited.
    /// A finite rate adds a serialization delay to pushed messages (see
    /// [`Link::serialization_ticks`]). `0` is not a valid rate: a link
    /// that can never move a word would stall its messages forever, so
    /// zero is rejected in debug builds and treated as unlimited in
    /// release builds (no current [`LinkPlan`] produces it; the guard
    /// exists for hand-built links and future finite-rate plans).
    pub rate: u32,
}

impl Link {
    /// The unit link: latency 1, no loss, unlimited rate — the round
    /// engine's implicit link.
    pub fn unit() -> Link {
        Link {
            latency: 1,
            loss_ppm: 0,
            rate: u32::MAX,
        }
    }

    /// Extra ticks a `words`-word message spends serializing onto this
    /// link beyond its latency: 0 on an unlimited-rate link, otherwise
    /// `(words - 1) / rate` (the first word rides the latency itself).
    ///
    /// `rate == 0` is a construction error (see [`Link::rate`]): it
    /// panics in debug builds and falls back to unlimited in release
    /// builds rather than dividing by zero or stalling the queue.
    pub fn serialization_ticks(&self, words: u64) -> u64 {
        debug_assert!(self.rate > 0, "a zero-rate link can never deliver");
        if self.rate == u32::MAX || self.rate == 0 {
            0
        } else {
            words.saturating_sub(1) / u64::from(self.rate)
        }
    }
}

/// How per-edge [`Link`] properties are assigned.
///
/// Plans are pure functions of `(seed, from, to)` — the same ordered
/// pair always resolves to the same link within a run, and the draw
/// space is disjoint from protocol and fault streams (see
/// [`LINK_SEED_MIX`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LinkPlan {
    /// Every link is [`Link::unit`]: the degenerate schedule under
    /// which the event engine is byte-identical to the round engine.
    Unit,
    /// Every link has the same fixed latency and loss.
    Const {
        /// Latency in ticks (≥ 1).
        latency: u32,
        /// Loss in parts per million.
        loss_ppm: u32,
    },
    /// Per-edge latency drawn uniformly from `min..=max` (each ordered
    /// edge's latency is fixed for the whole run), with i.i.d.
    /// per-message loss.
    Uniform {
        /// Smallest latency (≥ 1).
        min: u32,
        /// Largest latency (≥ `min`).
        max: u32,
        /// Loss in parts per million.
        loss_ppm: u32,
    },
}

impl LinkPlan {
    /// The unit-latency plan (see [`LinkPlan::Unit`]).
    pub fn unit() -> LinkPlan {
        LinkPlan::Unit
    }

    /// A lossless constant-latency plan.
    pub fn constant(latency: u32) -> LinkPlan {
        LinkPlan::Const {
            latency: latency.max(1),
            loss_ppm: 0,
        }
    }

    /// A lossless plan with per-edge latency uniform in `min..=max`.
    pub fn uniform(min: u32, max: u32) -> LinkPlan {
        let min = min.max(1);
        LinkPlan::Uniform {
            min,
            max: max.max(min),
            loss_ppm: 0,
        }
    }

    /// Whether this is the unit plan (including `Const`/`Uniform`
    /// parameterizations that degenerate to it).
    pub fn is_unit(&self) -> bool {
        match *self {
            LinkPlan::Unit => true,
            LinkPlan::Const { latency, loss_ppm } => latency == 1 && loss_ppm == 0,
            LinkPlan::Uniform { min, max, loss_ppm } => min == 1 && max == 1 && loss_ppm == 0,
        }
    }

    fn loss_ppm(&self) -> u32 {
        match *self {
            LinkPlan::Unit => 0,
            LinkPlan::Const { loss_ppm, .. } | LinkPlan::Uniform { loss_ppm, .. } => loss_ppm,
        }
    }

    /// Resolves the ordered edge `(from, to)`: a pure function of
    /// `(seed, from, to)` over the [`LINK_SEED_MIX`] stream space.
    pub fn link(&self, seed: u64, from: NodeId, to: NodeId) -> Link {
        match *self {
            LinkPlan::Unit => Link::unit(),
            LinkPlan::Const { latency, loss_ppm } => Link {
                latency: latency.max(1),
                loss_ppm,
                rate: u32::MAX,
            },
            LinkPlan::Uniform { min, max, loss_ppm } => {
                let mut rng = derive_rng(seed ^ LINK_SEED_MIX, u64::from(from), u64::from(to), 0);
                Link {
                    latency: rng.gen_range(min.max(1)..=max.max(min.max(1))),
                    loss_ppm,
                    rate: u32::MAX,
                }
            }
        }
    }

    /// Whether a message on leg `leg` (0 = pull request, 1 = pull
    /// response, 2 = push) of message index `k`, sent by `node` at
    /// `tick`, is lost to link noise. Deterministic in its coordinates;
    /// always `false` on lossless plans (no RNG is consumed, so
    /// lossless plans cannot perturb anything).
    pub fn lossy(&self, seed: u64, tick: u64, node: NodeId, leg: u64, k: u64) -> bool {
        let ppm = self.loss_ppm();
        if ppm == 0 {
            return false;
        }
        // Phase coordinate ≡ leg + 1 (mod 4) is never 0, so loss draws
        // cannot collide with the latency draws at phase 0.
        let mut rng = derive_rng(
            seed ^ LINK_SEED_MIX,
            tick,
            u64::from(node),
            (k << 2) | (leg + 1),
        );
        rng.gen_range(0..LOSS_PPM_SCALE) < ppm
    }

    /// Canonical name (see [`Engine::name`]).
    pub fn name(&self) -> String {
        fn loss_suffix(ppm: u32) -> String {
            if ppm == 0 {
                String::new()
            } else {
                format!("-loss-{ppm}")
            }
        }
        match *self {
            LinkPlan::Unit => "event-unit".to_string(),
            LinkPlan::Const { latency, loss_ppm } => {
                format!("event-const-{latency}{}", loss_suffix(loss_ppm))
            }
            LinkPlan::Uniform { min, max, loss_ppm } => {
                format!("event-uniform-{min}-{max}{}", loss_suffix(loss_ppm))
            }
        }
    }

    /// Parses a canonical plan name (the inverse of [`LinkPlan::name`]).
    pub fn parse(s: &str) -> Option<LinkPlan> {
        fn split_loss(s: &str) -> Option<(&str, u32)> {
            match s.split_once("-loss-") {
                None => Some((s, 0)),
                Some((head, ppm)) => {
                    let ppm: u32 = ppm.parse().ok()?;
                    (ppm <= LOSS_PPM_SCALE).then_some((head, ppm))
                }
            }
        }
        if s == "event-unit" {
            return Some(LinkPlan::Unit);
        }
        if let Some(rest) = s.strip_prefix("event-const-") {
            let (latency, loss_ppm) = split_loss(rest)?;
            let latency: u32 = latency.parse().ok()?;
            return (latency >= 1).then_some(LinkPlan::Const { latency, loss_ppm });
        }
        if let Some(rest) = s.strip_prefix("event-uniform-") {
            let (range, loss_ppm) = split_loss(rest)?;
            let (min, max) = range.split_once('-')?;
            let min: u32 = min.parse().ok()?;
            let max: u32 = max.parse().ok()?;
            return (1 <= min && min <= max).then_some(LinkPlan::Uniform { min, max, loss_ppm });
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The event queue
// ---------------------------------------------------------------------------

/// Events per bucket segment. A segment is allocated once at this
/// capacity and never grows; a drained segment goes back to the
/// queue's free list for any bucket to reuse, so the queue owns about
/// as many segments as its peak of pending events needs, rather than
/// a high-water allocation per bucket.
const SEGMENT: usize = 1024;

/// One time value's pending events in push order: a chain of segments,
/// each non-empty and holding at most [`SEGMENT`] events.
type Bucket<T> = VecDeque<VecDeque<T>>;

/// Deterministic time-ordered event queue (a calendar queue).
///
/// Pops strictly in `(time, seq)` order: earliest time first, and among
/// equal-time events, insertion order. The sequence number is assigned
/// at push time, so replaying the same pushes yields the same pops —
/// the property the event engine's byte-identity rests on (and that the
/// property tests in `tests/properties.rs` pin down against a binary
/// heap keyed by `(time, seq)`).
///
/// Event times are small integers shared by many events, so the queue
/// keeps one FIFO bucket per distinct time in an ordered map: a push
/// appends to its time's bucket, a pop takes the front of the earliest
/// bucket. Since a bucket holds its events in push order, which is
/// `seq` order, that *is* `(time, seq)` order — without comparing
/// sequence numbers at all.
pub struct EventQueue<T> {
    /// Non-empty buckets keyed by event time.
    buckets: BTreeMap<u64, Bucket<T>>,
    /// Drained segments (empty, capacity kept), reused by any bucket.
    free: Vec<VecDeque<T>>,
    len: usize,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            free: Vec::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`; returns the sequence number it
    /// was assigned (monotonically increasing across the queue's life).
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let bucket = self.buckets.entry(time).or_default();
        match bucket.back_mut() {
            Some(tail) if tail.len() < SEGMENT => tail.push_back(payload),
            _ => {
                let mut segment = self
                    .free
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(SEGMENT));
                segment.push_back(payload);
                bucket.push_back(segment);
            }
        }
        self.len += 1;
        seq
    }

    /// Pops the earliest event (ties broken by insertion order).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let mut entry = self.buckets.first_entry()?;
        let time = *entry.key();
        let bucket = entry.get_mut();
        let front = bucket.front_mut().expect("buckets are non-empty");
        let payload = front.pop_front().expect("segments are non-empty");
        if front.is_empty() {
            let drained = bucket.pop_front().expect("the front segment");
            self.free.push(drained);
            if bucket.is_empty() {
                entry.remove();
            }
        }
        self.len -= 1;
        Some((time, payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.buckets.first_key_value().map(|(&time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over pending payloads in pop order (inspection only —
    /// e.g. counting in-flight messages).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buckets.values().flatten().flatten()
    }
}

// ---------------------------------------------------------------------------
// The event core
// ---------------------------------------------------------------------------

/// Within a tick, events execute in phase-class order; the class is
/// encoded into the low bits of the event time, so the queue's
/// `(time, seq)` order alone realizes "classes in order, insertion
/// order within a class".
const CLASS_BITS: u64 = 3;
const CLASS_START: u64 = 0; // per-node round start: emit pulls
const CLASS_SERVE: u64 = 1; // a node's pull requests reach their targets
const CLASS_COMPUTE: u64 = 2; // all responses in: compute + emit pushes
const CLASS_PUSH: u64 = 3; // a pushed message reaches its destination
const CLASS_ABSORB: u64 = 4; // deliveries in: absorb + maybe halt

fn enc(tick: u64, class: u64) -> u64 {
    (tick << CLASS_BITS) | class
}

fn tick_of(time: u64) -> u64 {
    time >> CLASS_BITS
}

/// One pull request of a node's current round: query `k`, aimed at
/// `target`, which it reaches `delay` ticks after the round starts.
#[derive(Clone, Copy)]
struct Leg {
    delay: u32,
    k: u32,
    target: u32,
}

/// One scheduled event. Message payloads are moved through the queue —
/// a pushed message lives in exactly one place at any time, preserving
/// the round engine's move-only memory model across the queue.
enum Event<P: Protocol> {
    /// Node `node` begins its next local round: emits pulls, schedules
    /// one serve per arrival tick and its own compute.
    StartRound { node: u32 },
    /// `puller`'s pull legs `first..end` (one arrival tick's worth, in
    /// query order) reach their targets, which serve them against their
    /// current state; each response goes straight to `puller`'s slot.
    Serve { puller: u32, first: u32, end: u32 },
    /// All of `node`'s responses (or their losses) are in: compute.
    Compute { node: u32 },
    /// A pushed message arrives at `dest`.
    DeliverPush {
        dest: u32,
        sender: u32,
        send_tick: u64,
        msg: P::Msg,
    },
    /// Node `node` absorbs this round's deliveries and may halt.
    Absorb { node: u32 },
}

/// Node `node`'s destinations under `keys`, with V2's batch stream for
/// that local round and phase taken from (or first added to) `batches`.
fn batch_dests(
    batches: &mut BTreeMap<(u64, u64), BatchedSampler>,
    keys: DrawKeys,
    node: usize,
) -> Dests<'_> {
    keys.dests(node, || {
        batches
            .entry((keys.round, keys.phase))
            .or_insert_with(|| keys.batch())
    })
}

/// Everything the event core borrows from its [`crate::Network`] for
/// one tick. (The core cannot hold these itself: the network owns them
/// and the round engine shares the same scratch.)
pub(crate) struct TickCtx<'a, P: Protocol> {
    pub(crate) fate: Fate<'a, P>,
    pub(crate) states: &'a mut [P::State],
    pub(crate) halted: &'a mut [bool],
    pub(crate) scratch: &'a mut RoundScratch<P>,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) adjacency: Option<&'a Adjacency>,
    /// The network's observability seam (see [`crate::obs`]): tick
    /// spans, queue gauges, and stall counters report here — strictly
    /// observational, nothing is read back.
    pub(crate) recorder: &'a mut dyn Recorder,
}

/// The discrete-event scheduler state for one network.
pub(crate) struct EventCore<P: Protocol> {
    plan: LinkPlan,
    queue: EventQueue<Event<P>>,
    /// Each node's local round counter — the coordinate its protocol
    /// and engine RNG streams are keyed by. Under unit latency every
    /// live node's local round equals the tick.
    local_round: Vec<u64>,
    /// Each puller's SERVE-phase stream for its current round, shared
    /// across its queries in arrival order.
    serve_rng: Vec<Option<PhaseRng>>,
    /// Each puller's pull legs of its current round that survived the
    /// outbound loss draw, sorted by arrival delay and then by query
    /// index: the order its serve events consume them in.
    legs: Vec<Vec<Leg>>,
    /// V2 batch streams keyed by (local round, phase tag), each shared
    /// by every node at that round and consumed in event order (under
    /// unit latency, the round engine's node order).
    batches: BTreeMap<(u64, u64), BatchedSampler>,
    /// Nodes whose next `StartRound` is due at the next tick, flagged
    /// during dispatch and scheduled by a single end-of-tick scan in
    /// node-id order. Scheduling them inline would hand a node that
    /// went offline (flagged at its first-class `StartRound`) an earlier
    /// sequence number than its live peers (flagged at last-class
    /// `Absorb`), letting it jump ahead of lower-numbered nodes at the
    /// next tick and reorder deliveries relative to the round engine.
    restart: Vec<bool>,
    /// Messages scheduled for delivery at a later tick.
    in_flight: usize,
    /// The next tick to synthesize when the queue is drained (all nodes
    /// halted): keeps `round()` total, like the round engine's no-op
    /// rounds.
    next_tick: u64,
}

impl<P: Protocol> EventCore<P> {
    pub(crate) fn new(n: usize, plan: LinkPlan) -> Self {
        let mut queue = EventQueue::new();
        // Initial StartRound events in node order: the induction that
        // keeps same-tick same-class events in node order begins here.
        for i in 0..n {
            queue.push(enc(0, CLASS_START), Event::StartRound { node: i as u32 });
        }
        EventCore {
            plan,
            queue,
            local_round: vec![0; n],
            serve_rng: (0..n).map(|_| None).collect(),
            legs: (0..n).map(|_| Vec::new()).collect(),
            batches: BTreeMap::new(),
            restart: vec![false; n],
            in_flight: 0,
            next_tick: 0,
        }
    }

    /// Messages scheduled for a later tick (the event-engine analogue
    /// of the round engine's delay queue).
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Node `i`'s step in its current local round.
    fn turn(&self, i: usize, live: bool) -> Turn {
        Turn {
            round: self.local_round[i],
            node: i,
            live,
        }
    }

    /// Advances virtual time to the next tick that has events (or
    /// synthesizes an empty tick when none do) and executes it,
    /// appending one metrics row — the event-engine implementation of
    /// [`crate::Network::round`].
    pub(crate) fn tick(&mut self, ctx: &mut TickCtx<'_, P>) -> RoundMetrics {
        let n = ctx.states.len();
        let tick = match self.queue.peek_time() {
            Some(t) => tick_of(t),
            None => self.next_tick,
        };
        self.next_tick = tick + 1;

        // Availability scan, once per tick (wall-clock coordinate), on
        // this thread: the event engine has no parallel phases.
        let mut tally = Tally {
            offline: ctx
                .fate
                .scan_offline(tick, &mut ctx.scratch.offline, usize::MAX),
            ..Tally::default()
        };

        // Queue depth is sampled at tick start (its per-run high water is
        // the queue's memory footprint); the pop count below is both a
        // running total and a per-tick high-water gauge.
        ctx.recorder
            .high_water(Gauge::HeapDepth, self.queue.len() as u64);
        ctx.recorder.span_start(Phase::Tick);
        let mut pops: u64 = 0;
        while self.queue.peek_time().is_some_and(|t| tick_of(t) == tick) {
            let (_, ev) = self.queue.pop().expect("peeked event");
            pops += 1;
            self.dispatch(tick, ev, ctx, &mut tally);
        }
        ctx.recorder.add(Counter::EventPops, pops);
        ctx.recorder.high_water(Gauge::PopsPerTick, pops);

        // Schedule next-round starts in node-id order (see `restart`):
        // the induction that keeps same-tick same-class dispatch in
        // node order — and with it, delivery order — round after round.
        for i in 0..n {
            if std::mem::take(&mut self.restart[i]) {
                self.queue.push(
                    enc(tick + 1, CLASS_START),
                    Event::StartRound { node: i as u32 },
                );
            }
        }

        let rm = ctx
            .fate
            .close(ctx.states, ctx.halted, tick, &tally, ctx.metrics);

        // Batch streams for rounds every live node has moved past can
        // never be drawn from again.
        let min_live_round = (0..n)
            .filter(|&i| !ctx.halted[i])
            .map(|i| self.local_round[i])
            .min();
        match min_live_round {
            Some(r) => self.batches.retain(|&(k, _), _| k >= r),
            None => self.batches.clear(),
        }
        ctx.recorder.span_end(Phase::Tick);
        rm
    }

    fn dispatch(&mut self, tick: u64, ev: Event<P>, ctx: &mut TickCtx<'_, P>, tally: &mut Tally) {
        let n = ctx.states.len();
        let seed = ctx.fate.seed;
        let fate = &ctx.fate;
        match ev {
            Event::StartRound { node } => {
                let i = node as usize;
                let r = self.local_round[i];
                let scratch = &mut *ctx.scratch;
                if scratch.offline.get(i) {
                    // An offline beat still consumes a round number (so
                    // under unit latency local rounds track ticks
                    // exactly, like the round engine's global round),
                    // emits nothing, and computes nothing — deliveries
                    // addressed to it this tick are dropped at the
                    // delivery events.
                    scratch.inboxes[i].clear();
                    self.local_round[i] = r + 1;
                    self.restart[i] = true;
                    return;
                }
                let turn = self.turn(i, true);
                let count = fate.pulls(turn, &ctx.states[i], &mut scratch.queries[i], tally);
                let rs = &mut scratch.responses[i];
                rs.clear();
                rs.resize_with(count, || None);
                self.serve_rng[i] = Some(PhaseRng::new(seed, r, u64::from(node), phase::SERVE));

                // This round's pull targets: the same draws, in the same
                // order, as the round engine's refill sweep.
                let nbrs = ctx.adjacency.map(|a| a.row(i));
                let legs = &mut self.legs[i];
                legs.clear();
                let mut max_rtt: u64 = 0;
                if count > 0 {
                    let mut dests =
                        batch_dests(&mut self.batches, fate.draws(r, phase::PULL_TARGET), i);
                    for k in 0..count {
                        let target = dests.next(n, nbrs) as NodeId;
                        let delay = self.plan.link(seed, node, target).latency - 1;
                        let back = self.plan.link(seed, target, node).latency - 1;
                        max_rtt = max_rtt.max(u64::from(delay) + u64::from(back));
                        // A request lost on the outbound leg never
                        // reaches its target: the slot stays a failed
                        // pull and no serve work is charged.
                        if self.plan.lossy(seed, tick, node, 0, k as u64) {
                            tally.dropped += 1;
                            continue;
                        }
                        legs.push(Leg {
                            delay,
                            k: k as u32,
                            target,
                        });
                    }
                }
                // One serve event per arrival tick, serving that tick's
                // legs in query order: serves only read state, so the
                // puller's serve stream is drawn in arrival order, then
                // query order, as if every pull had an event of its own.
                legs.sort_unstable_by_key(|leg| (leg.delay, leg.k));
                let mut first = 0;
                for group in legs.chunk_by(|a, b| a.delay == b.delay) {
                    let end = first + group.len() as u32;
                    self.queue.push(
                        enc(tick + u64::from(group[0].delay), CLASS_SERVE),
                        Event::Serve {
                            puller: node,
                            first,
                            end,
                        },
                    );
                    first = end;
                }
                // Compute fires once every response had time to arrive
                // (immediately when nothing was pulled): the node's
                // synchronization barrier with itself, not with others.
                self.queue
                    .push(enc(tick + max_rtt, CLASS_COMPUTE), Event::Compute { node });
            }

            Event::Serve { puller, first, end } => {
                let i = puller as usize;
                let scratch = &mut *ctx.scratch;
                let rng = self.serve_rng[i]
                    .as_mut()
                    .expect("serve stream set at round start");
                for leg in &self.legs[i][first as usize..end as usize] {
                    let k = u64::from(leg.k);
                    let route = Route {
                        round: tick,
                        from: puller,
                        to: leg.target,
                        k,
                    };
                    let q = &scratch.queries[i][leg.k as usize];
                    // A response that is not served, or is lost on the
                    // return leg, leaves its slot None: a failed pull.
                    let Some(resp) = fate.serve(route, q, ctx.states, &scratch.offline, rng, tally)
                    else {
                        continue;
                    };
                    if self.plan.lossy(seed, tick, puller, 1, k) {
                        tally.dropped += 1;
                        continue;
                    }
                    // Written before it arrives, but only the puller's
                    // compute reads it, at or after its arrival tick.
                    scratch.responses[i][leg.k as usize] = Some(resp);
                }
            }

            Event::Compute { node } => {
                let i = node as usize;
                let r = self.local_round[i];
                let scratch = &mut *ctx.scratch;
                // A node that went offline mid-round (heterogeneous
                // latency only; under unit latency compute shares the
                // start-round tick) skips the step, like the round
                // engine's offline compute.
                let turn = self.turn(i, !scratch.offline.get(i));
                let out = &mut scratch.pushes[i];
                let pulls = scratch.queries[i].len();
                scratch.compute_halts[i] = fate.compute(
                    turn,
                    &mut ctx.states[i],
                    &mut scratch.responses[i],
                    out,
                    pulls,
                    tally,
                );

                let nbrs = ctx.adjacency.map(|a| a.row(i));
                if !out.is_empty() {
                    let mut dests =
                        batch_dests(&mut self.batches, fate.draws(r, phase::PUSH_DEST), i);
                    for (k, msg) in out.drain(..).enumerate() {
                        let dest = dests.next(n, nbrs);
                        let route = Route {
                            round: tick,
                            from: node,
                            to: dest as NodeId,
                            k: k as u64,
                        };
                        let Some(delay) = fate.push(route, tally) else {
                            continue;
                        };
                        if self.plan.lossy(seed, tick, node, 2, k as u64) {
                            tally.dropped += 1;
                            continue;
                        }
                        let link = self.plan.link(seed, node, dest as NodeId);
                        let words = fate.protocol.msg_words(&msg) as u64;
                        let stall = link.serialization_ticks(words);
                        if stall > 0 {
                            ctx.recorder.add(Counter::SerializationStalls, 1);
                        }
                        let deliver = tick + u64::from(link.latency - 1) + stall + delay;
                        if deliver > tick {
                            tally.delayed += 1;
                            self.in_flight += 1;
                        }
                        // Same-tick deliveries also ride the queue: the
                        // push-class pop order is then "older (delayed)
                        // messages first, current ones in (sender,
                        // message) order" — exactly the round engine's
                        // inbox fill order.
                        self.queue.push(
                            enc(deliver, CLASS_PUSH),
                            Event::DeliverPush {
                                dest: dest as u32,
                                sender: node,
                                send_tick: tick,
                                msg,
                            },
                        );
                    }
                }
                self.queue
                    .push(enc(tick, CLASS_ABSORB), Event::Absorb { node });
            }

            Event::DeliverPush {
                dest,
                sender,
                send_tick,
                msg,
            } => {
                let d = dest as usize;
                let crossed = tick > send_tick;
                if crossed {
                    self.in_flight -= 1;
                }
                // The round engine delivers to a halted node's inbox and
                // its absorb clears it unread; with no absorb event
                // left, discard at delivery — same observable effect,
                // not a drop.
                if fate.arrives(tick, sender, d, crossed, &ctx.scratch.offline, tally)
                    && !ctx.halted[d]
                {
                    ctx.scratch.inboxes[d].push(msg);
                }
            }

            Event::Absorb { node } => {
                let i = node as usize;
                let r = self.local_round[i];
                let scratch = &mut *ctx.scratch;
                let turn = self.turn(i, !scratch.offline.get(i));
                let computed = scratch.compute_halts[i];
                let halt = fate.absorb(turn, &mut ctx.states[i], &mut scratch.inboxes[i], computed);
                self.serve_rng[i] = None;
                if halt {
                    ctx.halted[i] = true;
                } else {
                    self.local_round[i] = r + 1;
                    self.restart[i] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, "e");
        q.push(1, "a");
        q.push(3, "c1");
        q.push(3, "c2");
        q.push(0, "z");
        q.push(3, "c3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0, "z"),
                (1, "a"),
                (3, "c1"),
                (3, "c2"),
                (3, "c3"),
                (5, "e")
            ]
        );
        assert!(q.is_empty());
    }

    /// A bucket longer than three segments, interleaved with other
    /// times: covers the segment hand-offs inside one bucket and the
    /// reuse of drained segments by another, which the proptest battery
    /// (at most 200 operations) never reaches.
    #[test]
    fn long_buckets_chain_segments_and_reuse_drained_ones() {
        // Every segment the queue owns, live or spare.
        let owned = |q: &EventQueue<usize>| {
            q.free.len() + q.buckets.values().map(VecDeque::len).sum::<usize>()
        };
        let mut q = EventQueue::new();
        let mut id = 0;
        let mut fresh = || {
            id += 1;
            id
        };
        for i in 0..3 * SEGMENT + SEGMENT / 2 {
            q.push(5, fresh());
            if i % 100 == 0 {
                q.push(2, fresh());
                q.push(9, fresh());
            }
        }
        assert_eq!(q.buckets[&5].len(), 4, "3.5 segments' worth at time 5");
        let at_2 = q.buckets[&2].iter().map(VecDeque::len).sum::<usize>();
        let total = q.len();
        let allocated = owned(&q);

        // Drain time 2 and the first two segments of time 5.
        let mut popped: Vec<(u64, usize)> = (0..at_2 + 2 * SEGMENT)
            .map(|_| q.pop().expect("pending"))
            .collect();
        assert_eq!(q.free.len(), 3, "drained segments return at once");
        assert_eq!((q.peek_time(), q.len()), (Some(5), total - popped.len()));

        // A new bucket takes its segments from the free list.
        for _ in 0..2 * SEGMENT {
            q.push(7, fresh());
        }
        assert_eq!(owned(&q), allocated, "no segment allocated");
        assert_eq!(q.free.len(), 1);

        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped.len(), total + 2 * SEGMENT);
        // Ids grow with push order, and every time-7 push came after
        // the last pop at an earlier time: the whole pop sequence is
        // strictly ascending in (time, id).
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert!(q.is_empty() && q.buckets.is_empty());
        assert_eq!(q.free.len(), allocated, "every segment is spare");
    }

    #[test]
    fn queue_seq_is_monotone_and_total() {
        let mut q = EventQueue::new();
        let s0 = q.push(9, ());
        let s1 = q.push(9, ());
        let s2 = q.push(0, ());
        assert!(s0 < s1 && s1 < s2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(0));
    }

    #[test]
    fn engine_names_round_trip() {
        let engines = [
            Engine::RoundSync,
            Engine::EventDriven(LinkPlan::Unit),
            Engine::EventDriven(LinkPlan::constant(3)),
            Engine::EventDriven(LinkPlan::Const {
                latency: 2,
                loss_ppm: 50_000,
            }),
            Engine::EventDriven(LinkPlan::uniform(1, 4)),
            Engine::EventDriven(LinkPlan::Uniform {
                min: 2,
                max: 7,
                loss_ppm: 1_000,
            }),
        ];
        for e in engines {
            let name = e.name();
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{name} is not a name token"
            );
            assert_eq!(Engine::parse(&name), Some(e), "{name}");
        }
        assert_eq!(Engine::default(), Engine::RoundSync);
        assert_eq!(Engine::parse("event-const-0"), None, "latency 0 invalid");
        assert_eq!(Engine::parse("event-uniform-3-2"), None, "min > max");
        assert_eq!(Engine::parse("event-warp"), None);
        assert_eq!(
            Engine::parse("event-const-2-loss-2000000"),
            None,
            "loss beyond certainty"
        );
    }

    #[test]
    fn links_are_deterministic_and_latencies_bounded() {
        let plan = LinkPlan::uniform(2, 5);
        for from in 0..8u32 {
            for to in 0..8u32 {
                let a = plan.link(99, from, to);
                let b = plan.link(99, from, to);
                assert_eq!(a, b, "links are pure functions of (seed, from, to)");
                assert!((2..=5).contains(&a.latency));
            }
        }
        // Different seeds draw different edge latencies somewhere.
        let diverges =
            (0..64u32).any(|e| plan.link(1, e, e + 1).latency != plan.link(2, e, e + 1).latency);
        assert!(diverges, "the seed must matter");
        assert_eq!(plan.link(7, 0, 1).rate, u32::MAX);
    }

    #[test]
    fn unit_plans_are_recognized_and_lossless() {
        assert!(LinkPlan::unit().is_unit());
        assert!(LinkPlan::constant(1).is_unit());
        assert!(LinkPlan::uniform(1, 1).is_unit());
        assert!(!LinkPlan::constant(2).is_unit());
        assert!(!LinkPlan::Const {
            latency: 1,
            loss_ppm: 1
        }
        .is_unit());
        assert!(!LinkPlan::unit().lossy(3, 0, 0, 0, 0));
        assert_eq!(LinkPlan::unit().link(11, 4, 9), Link::unit());
    }

    #[test]
    fn lossy_plans_lose_at_roughly_the_configured_rate() {
        let plan = LinkPlan::Const {
            latency: 1,
            loss_ppm: 250_000, // 25%
        };
        let mut lost = 0u32;
        let trials = 4_000u32;
        for k in 0..trials {
            if plan.lossy(5, 0, 0, 2, u64::from(k)) {
                lost += 1;
            }
        }
        let rate = f64::from(lost) / f64::from(trials);
        assert!((0.2..0.3).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn serialization_ticks_follow_the_rate() {
        let unlimited = Link::unit();
        assert_eq!(unlimited.serialization_ticks(1_000_000), 0);
        let slow = Link {
            latency: 2,
            loss_ppm: 0,
            rate: 4,
        };
        assert_eq!(slow.serialization_ticks(1), 0);
        assert_eq!(slow.serialization_ticks(4), 0);
        assert_eq!(slow.serialization_ticks(5), 1);
        assert_eq!(slow.serialization_ticks(13), 3);
    }
}
