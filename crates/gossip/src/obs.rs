//! Zero-dependency observability: log-bucketed histograms, monotonic
//! span timers, and the `Recorder` seam the engines report into.
//!
//! The design constraint is the determinism contract: **recording can
//! never feed back into protocol state**. Every hook takes values the
//! engine already computed (wall times, queue depths, row counts) and
//! returns nothing, so the byte streams of a run are identical whether
//! a recorder is attached or not. The default [`NoopRecorder`] is
//! provably free in the two senses CI pins down:
//!
//! * **Zero allocation.** The no-op hooks have empty bodies, and a
//!   `Box<NoopRecorder>` is a zero-sized box — the steady-state
//!   allocation-count test runs unchanged through the recorder seam.
//! * **Zero bytes.** Recorded wall times are *execution metadata*, like
//!   [`effective parallelism`](crate::Network::effective_parallelism):
//!   they are excluded from the server's spec cache key and from every
//!   cached reply, so pinned trajectories and golden files are
//!   untouched.
//!
//! The concrete [`FlightRecorder`] keeps one fixed-size [`Histogram`]
//! per phase plus flat counter/gauge arrays — plain arrays, no
//! allocation after construction — and summarizes into an
//! [`ObsSummary`] for the driver's report and the server's `trace`
//! frame.

use std::time::Instant;

/// Number of buckets in a [`Histogram`]: bucket `i` counts values whose
/// bit length is `i` (bucket 0 holds exactly the value 0, bucket `i`
/// holds `2^(i-1) ..= 2^i - 1`), so 65 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log-bucketed histogram over `u64` values.
///
/// Buckets are powers of two (one bucket per bit length), stored in a
/// plain array: recording is branch-light, never allocates, and
/// [`merge`](Histogram::merge) is element-wise addition, so per-thread
/// histograms can be combined without locks. Exact `min`/`max`/`sum`
/// ride along; percentiles resolve to the upper bound of the bucket
/// holding the requested rank, clamped to the exact observed maximum
/// (so `p100` is exact and no percentile exceeds it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in: its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i` (0 for bucket 0, else
    /// `2^(i-1)`).
    pub fn bucket_floor(i: usize) -> u64 {
        debug_assert!(i < HISTOGRAM_BUCKETS);
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (0 for bucket 0, else
    /// `2^i - 1`, saturating at `u64::MAX` for the last bucket).
    pub fn bucket_ceil(i: usize) -> u64 {
        debug_assert!(i < HISTOGRAM_BUCKETS);
        if i == 0 {
            0
        } else {
            u64::MAX >> (64 - i)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one: counts add bucket-wise,
    /// `min`/`max`/`sum`/`count` combine exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (`p` in `0.0 ..= 100.0`, clamped): the
    /// upper bound of the bucket holding the value of rank
    /// `ceil(p/100 · count)`, clamped to the exact observed maximum.
    /// Returns 0 on an empty histogram. `percentile(100.0)` is the
    /// exact maximum, so every recorded value is `<= p100`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// The raw bucket counts (index = bit length of the value).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }
}

// ---------------------------------------------------------------------------
// The recorder seam
// ---------------------------------------------------------------------------

/// An instrumented engine phase (a named span).
///
/// The first five are the round engine's phases (the event engine keys
/// the same work under [`Phase::Tick`]); [`Phase::Refill`] is the
/// scratch-row batch-refill sweep shared by both schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: emit pull requests.
    Pull,
    /// Phase 2: serve pulls against the start-of-round snapshot.
    Serve,
    /// Phase 3: compute + emit pushes.
    Compute,
    /// Phase 4a: deliver pushes (inboxes + delay queue).
    Deliver,
    /// Phase 4b: absorb deliveries, decide halts.
    Absorb,
    /// The V2 batched scratch-row refill sweeps (pull targets and push
    /// destinations).
    Refill,
    /// One whole event-engine tick (dispatch loop).
    Tick,
}

impl Phase {
    /// Number of phases (the span arrays' fixed size).
    pub const COUNT: usize = 7;

    /// Every phase, in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Pull,
        Phase::Serve,
        Phase::Compute,
        Phase::Deliver,
        Phase::Absorb,
        Phase::Refill,
        Phase::Tick,
    ];

    /// The phase's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Flat snake_case name (used in wire frames and trend artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pull => "pull",
            Phase::Serve => "serve",
            Phase::Compute => "compute",
            Phase::Deliver => "deliver",
            Phase::Absorb => "absorb",
            Phase::Refill => "refill",
            Phase::Tick => "tick",
        }
    }
}

/// A monotonic counter the engines bump (sums).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Events popped off the event engine's event queue.
    EventPops,
    /// Pushed messages that paid a finite-rate serialization stall
    /// ([`Link::serialization_ticks`](crate::event::Link::serialization_ticks) > 0).
    SerializationStalls,
    /// Scratch rows refilled by the V2 batch sweeps.
    RefillRows,
}

impl Counter {
    /// Number of counters (the counter array's fixed size).
    pub const COUNT: usize = 3;

    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EventPops,
        Counter::SerializationStalls,
        Counter::RefillRows,
    ];

    /// The counter's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Flat snake_case name (used in wire frames).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventPops => "event_pops",
            Counter::SerializationStalls => "serialization_stalls",
            Counter::RefillRows => "refill_rows",
        }
    }
}

/// A high-water gauge (the recorder keeps the maximum ever reported).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Event-queue depth (pending events) at tick start; `heap_depth`
    /// on the wire, a name kept stable for frame readers.
    HeapDepth,
    /// Events dispatched within a single tick.
    PopsPerTick,
}

impl Gauge {
    /// Number of gauges (the gauge array's fixed size).
    pub const COUNT: usize = 2;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [Gauge::HeapDepth, Gauge::PopsPerTick];

    /// The gauge's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Flat snake_case name (used in wire frames).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::HeapDepth => "heap_depth",
            Gauge::PopsPerTick => "pops_per_tick",
        }
    }
}

/// The seam the engines report into.
///
/// Every method has an empty default body, so a disabled recorder costs
/// one virtual call per phase boundary and nothing else — no clock
/// reads, no arithmetic, no allocation. Implementations must never
/// influence engine behavior (the hooks receive copies and return
/// nothing, so the type system enforces most of this).
pub trait Recorder: Send {
    /// Whether this recorder actually records (used by callers to skip
    /// preparing values that are expensive to compute).
    fn enabled(&self) -> bool {
        false
    }

    /// A phase span begins now.
    fn span_start(&mut self, _phase: Phase) {}

    /// The phase span started by the matching
    /// [`span_start`](Recorder::span_start) ends now.
    fn span_end(&mut self, _phase: Phase) {}

    /// Adds `by` to a monotonic counter.
    fn add(&mut self, _counter: Counter, _by: u64) {}

    /// Reports a gauge observation; the recorder keeps the high-water
    /// maximum.
    fn high_water(&mut self, _gauge: Gauge, _value: u64) {}

    /// Snapshot of everything recorded so far (`None` for recorders
    /// that record nothing).
    fn summary(&self) -> Option<ObsSummary> {
        None
    }
}

/// The default recorder: records nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Everything a [`FlightRecorder`] observed, as plain arrays indexed by
/// [`Phase`], [`Counter`], and [`Gauge`].
///
/// This is *execution metadata* in the sense of the determinism
/// contract: it describes how bytes were produced and never
/// participates in producing them — it is excluded from the server's
/// cache key and from all cached reply bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Total wall nanoseconds per phase.
    pub phase_nanos: [u64; Phase::COUNT],
    /// Completed spans per phase.
    pub phase_calls: [u64; Phase::COUNT],
    /// Longest single span per phase, in nanoseconds.
    pub phase_max_nanos: [u64; Phase::COUNT],
    /// Monotonic counter totals.
    pub counters: [u64; Counter::COUNT],
    /// Gauge high-water marks.
    pub gauges: [u64; Gauge::COUNT],
}

impl ObsSummary {
    /// Total wall microseconds for `phase`.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()] / 1_000
    }

    /// A counter's total.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// A gauge's high-water mark.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// Folds another summary into this one (spans and counters add,
    /// gauges keep the maximum).
    pub fn merge(&mut self, other: &ObsSummary) {
        for i in 0..Phase::COUNT {
            self.phase_nanos[i] += other.phase_nanos[i];
            self.phase_calls[i] += other.phase_calls[i];
            self.phase_max_nanos[i] = self.phase_max_nanos[i].max(other.phase_max_nanos[i]);
        }
        for i in 0..Counter::COUNT {
            self.counters[i] += other.counters[i];
        }
        for i in 0..Gauge::COUNT {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
    }
}

/// The concrete recorder: monotonic span timers feeding one log-bucketed
/// span [`Histogram`] per phase, plus flat counter and gauge arrays.
///
/// All storage is fixed-size and allocated at construction; recording
/// never allocates. Timing uses [`std::time::Instant`] (monotonic), and
/// by construction nothing recorded here can flow back into engine
/// state.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    started: [Option<Instant>; Phase::COUNT],
    spans_ns: [Histogram; Phase::COUNT],
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder with empty histograms.
    pub fn new() -> Self {
        FlightRecorder {
            started: [None; Phase::COUNT],
            spans_ns: [const { Histogram::new() }; Phase::COUNT],
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
        }
    }

    /// The span-duration histogram (nanoseconds) for `phase`.
    pub fn spans(&self, phase: Phase) -> &Histogram {
        &self.spans_ns[phase.index()]
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&mut self, phase: Phase) {
        self.started[phase.index()] = Some(Instant::now());
    }

    fn span_end(&mut self, phase: Phase) {
        if let Some(t0) = self.started[phase.index()].take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.spans_ns[phase.index()].record(ns);
        }
    }

    fn add(&mut self, counter: Counter, by: u64) {
        self.counters[counter.index()] += by;
    }

    fn high_water(&mut self, gauge: Gauge, value: u64) {
        let g = &mut self.gauges[gauge.index()];
        *g = (*g).max(value);
    }

    fn summary(&self) -> Option<ObsSummary> {
        let mut s = ObsSummary::default();
        for p in Phase::ALL {
            let h = &self.spans_ns[p.index()];
            s.phase_nanos[p.index()] = h.sum();
            s.phase_calls[p.index()] = h.count();
            s.phase_max_nanos[p.index()] = h.max();
        }
        s.counters = self.counters;
        s.gauges = self.gauges;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Floors and ceilings tile u64 exactly.
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_ceil(0), 0);
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(Histogram::bucket_floor(i), 1u64 << (i - 1), "floor {i}");
            if i < 64 {
                assert_eq!(Histogram::bucket_ceil(i), (1u64 << i) - 1, "ceil {i}");
            }
            // Every value in the bucket maps back to it.
            assert_eq!(Histogram::bucket_of(Histogram::bucket_floor(i)), i);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_ceil(i)), i);
        }
        assert_eq!(Histogram::bucket_ceil(64), u64::MAX);
    }

    #[test]
    fn record_tracks_exact_min_max_sum_count() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.min(), h.max(), h.sum(), h.count()), (0, 0, 0, 0));
        for v in [7, 0, 1_000_000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.sum(), 1_000_010);
        assert_eq!(h.buckets().iter().sum::<u64>(), 4);
    }

    #[test]
    fn percentiles_bound_their_rank_and_p100_is_exact() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50's rank-500 value is 500; its bucket (256..=511) caps at 511.
        let p50 = h.percentile(50.0);
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        // p0 resolves to the first value's bucket ceiling.
        assert_eq!(h.percentile(0.0), 1);
        // p100 is the exact maximum, never the bucket ceiling.
        assert_eq!(h.percentile(100.0), 1000);
        // Percentiles are monotone in p.
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(Histogram::new().percentile(50.0), 0);
    }

    #[test]
    fn merge_is_exact_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1, 5, 9, 120] {
            a.record(v);
            all.record(v);
        }
        for v in [0, 2, 2_048, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must equal recording the union");
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn flight_recorder_spans_counters_gauges() {
        let mut r = FlightRecorder::new();
        assert!(r.enabled());
        r.span_start(Phase::Serve);
        r.span_end(Phase::Serve);
        // Unmatched end is ignored, not miscounted.
        r.span_end(Phase::Serve);
        r.add(Counter::RefillRows, 3);
        r.add(Counter::RefillRows, 4);
        r.high_water(Gauge::HeapDepth, 10);
        r.high_water(Gauge::HeapDepth, 4);
        let s = r.summary().expect("flight recorder summarizes");
        assert_eq!(s.phase_calls[Phase::Serve.index()], 1);
        assert_eq!(s.counter(Counter::RefillRows), 7);
        assert_eq!(s.gauge(Gauge::HeapDepth), 10);
        assert_eq!(s.phase_calls[Phase::Pull.index()], 0);
        assert_eq!(r.spans(Phase::Serve).count(), 1);
    }

    #[test]
    fn noop_recorder_reports_nothing() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.span_start(Phase::Tick);
        r.span_end(Phase::Tick);
        r.add(Counter::EventPops, 5);
        r.high_water(Gauge::PopsPerTick, 5);
        assert!(r.summary().is_none());
    }

    #[test]
    fn summary_merge_adds_spans_and_maxes_gauges() {
        let mut a = ObsSummary::default();
        a.phase_nanos[0] = 100;
        a.phase_calls[0] = 2;
        a.phase_max_nanos[0] = 80;
        a.counters[0] = 5;
        a.gauges[0] = 7;
        let mut b = ObsSummary::default();
        b.phase_nanos[0] = 50;
        b.phase_calls[0] = 1;
        b.phase_max_nanos[0] = 90;
        b.counters[0] = 3;
        b.gauges[0] = 4;
        a.merge(&b);
        assert_eq!(a.phase_nanos[0], 150);
        assert_eq!(a.phase_calls[0], 3);
        assert_eq!(a.phase_max_nanos[0], 90);
        assert_eq!(a.counters[0], 8);
        assert_eq!(a.gauges[0], 7);
    }
}
