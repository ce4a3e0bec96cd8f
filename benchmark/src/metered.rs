//! Benchmark-side meters wrapped around the repository's public seams.
//!
//! [`Metered`] wraps any [`LpType`] problem and counts and times the
//! kernel calls the gossip protocols make (`basis_of`, `violates`,
//! `values_close`). [`TimedTopology`] wraps a [`Topology`] and times its
//! neighbor-arena build. Both forward every trait method — provided
//! ones included — to the wrapped value, so a metered run executes the
//! same program; the traced run proves it by comparing its trajectory
//! with an untraced run of the same inputs.
//!
//! Counters are per thread (one registered slot per thread that ever
//! touches a meter), so the parallel engine's workers never contend on
//! a shared cache line; [`Meter::totals`] sums the slots. Calls are
//! counted exactly. `basis_of` is timed on every call; `violates` and
//! `values_close` take a few nanoseconds each — less than a clock read —
//! so only every `SAMPLE`-th call is timed and its time scaled up.

use gossip_sim::topology::{Adjacency, Topology};
use lpt::{Basis, LpType};
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One thread's counters.
#[derive(Default)]
struct Slot {
    basis_of_calls: AtomicU64,
    basis_of_nanos: AtomicU64,
    violates_calls: AtomicU64,
    violates_hits: AtomicU64,
    violates_nanos: AtomicU64,
    values_close_calls: AtomicU64,
    values_close_nanos: AtomicU64,
}

/// Kernel totals summed over every thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTotals {
    pub basis_of_calls: u64,
    pub basis_of_nanos: u64,
    pub violates_calls: u64,
    pub violates_hits: u64,
    pub violates_nanos: u64,
    pub values_close_calls: u64,
    pub values_close_nanos: u64,
}

impl std::ops::AddAssign for KernelTotals {
    fn add_assign(&mut self, o: KernelTotals) {
        self.basis_of_calls += o.basis_of_calls;
        self.basis_of_nanos += o.basis_of_nanos;
        self.violates_calls += o.violates_calls;
        self.violates_hits += o.violates_hits;
        self.violates_nanos += o.violates_nanos;
        self.values_close_calls += o.values_close_calls;
        self.values_close_nanos += o.values_close_nanos;
    }
}

/// The shared registry of per-thread slots behind one meter.
pub struct Meter {
    id: u64,
    slots: Mutex<Vec<Arc<Slot>>>,
}

static NEXT_METER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's slot, tagged with the id of the meter it belongs to.
    static LOCAL: std::cell::RefCell<Option<(u64, Arc<Slot>)>> =
        const { std::cell::RefCell::new(None) };
}

impl Meter {
    pub fn new() -> Arc<Meter> {
        clock_overhead_nanos();
        Arc::new(Meter {
            id: NEXT_METER_ID.fetch_add(1, Ordering::Relaxed),
            slots: Mutex::new(Vec::new()),
        })
    }

    fn with_slot<T>(&self, f: impl FnOnce(&Slot) -> T) -> T {
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            if local.as_ref().map(|(id, _)| *id) != Some(self.id) {
                let slot = Arc::new(Slot::default());
                self.slots.lock().expect("meter slots").push(slot.clone());
                *local = Some((self.id, slot));
            }
            f(&local.as_ref().expect("slot registered").1)
        })
    }

    pub fn totals(&self) -> KernelTotals {
        let mut t = KernelTotals::default();
        for s in self.slots.lock().expect("meter slots").iter() {
            let v = |c: &AtomicU64| c.load(Ordering::Relaxed);
            t += KernelTotals {
                basis_of_calls: v(&s.basis_of_calls),
                basis_of_nanos: v(&s.basis_of_nanos),
                violates_calls: v(&s.violates_calls),
                violates_hits: v(&s.violates_hits),
                violates_nanos: v(&s.violates_nanos),
                values_close_calls: v(&s.values_close_calls),
                values_close_nanos: v(&s.values_close_nanos),
            };
        }
        t
    }
}

/// One in `SAMPLE` cheap kernel calls is timed.
const SAMPLE: u64 = 64;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Adds `by` to a counter only this thread writes (a plain load and
/// store; no locked read-modify-write on the hot path).
fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let v = counter.load(Ordering::Relaxed) + by;
    counter.store(v, Ordering::Relaxed);
    v
}

/// The cost of one clock-read pair, which a timed call of a few
/// nanoseconds would otherwise be charged for (median of 1001 pairs).
fn clock_overhead_nanos() -> u64 {
    static OVERHEAD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..1001).map(|_| nanos_since(Instant::now())).collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// Runs `f`, timing it when `calls` (the count including this call)
/// falls on the sampling grid; returns the result and the scaled time.
fn sampled<T>(calls: u64, f: impl FnOnce() -> T) -> (T, u64) {
    if calls % SAMPLE == 0 {
        let t = Instant::now();
        let v = f();
        let nanos = nanos_since(t).saturating_sub(clock_overhead_nanos());
        (v, nanos * SAMPLE)
    } else {
        (f(), 0)
    }
}

/// An [`LpType`] problem whose kernel calls are counted and timed.
#[derive(Clone)]
pub struct Metered<P> {
    inner: P,
    meter: Arc<Meter>,
}

impl<P> Metered<P> {
    pub fn new(inner: P, meter: Arc<Meter>) -> Self {
        Metered { inner, meter }
    }
}

impl<P: LpType> LpType for Metered<P> {
    type Element = P::Element;
    type Value = P::Value;

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn basis_of(&self, elems: &[P::Element]) -> Basis<P::Element, P::Value> {
        let t = Instant::now();
        let basis = self.inner.basis_of(elems);
        let nanos = nanos_since(t);
        self.meter.with_slot(|s| {
            bump(&s.basis_of_calls, 1);
            bump(&s.basis_of_nanos, nanos);
        });
        basis
    }

    fn violates(&self, basis: &Basis<P::Element, P::Value>, h: &P::Element) -> bool {
        self.meter.with_slot(|s| {
            let calls = bump(&s.violates_calls, 1);
            let (hit, nanos) = sampled(calls, || self.inner.violates(basis, h));
            bump(&s.violates_hits, hit as u64);
            bump(&s.violates_nanos, nanos);
            hit
        })
    }

    fn cmp_value(&self, a: &P::Value, b: &P::Value) -> CmpOrdering {
        self.inner.cmp_value(a, b)
    }

    fn cmp_element(&self, a: &P::Element, b: &P::Element) -> CmpOrdering {
        self.inner.cmp_element(a, b)
    }

    fn values_close(&self, a: &P::Value, b: &P::Value) -> bool {
        self.meter.with_slot(|s| {
            let calls = bump(&s.values_close_calls, 1);
            let (close, nanos) = sampled(calls, || self.inner.values_close(a, b));
            bump(&s.values_close_nanos, nanos);
            close
        })
    }

    fn canonicalize(&self, basis: &mut Basis<P::Element, P::Value>) {
        self.inner.canonicalize(basis)
    }
}

/// A [`Topology`] whose `build` calls are timed.
#[derive(Debug)]
pub struct TimedTopology {
    inner: Arc<dyn Topology>,
    build_nanos: AtomicU64,
}

impl TimedTopology {
    pub fn new(inner: Arc<dyn Topology>) -> Arc<TimedTopology> {
        Arc::new(TimedTopology {
            inner,
            build_nanos: AtomicU64::new(0),
        })
    }

    pub fn build_nanos(&self) -> u64 {
        self.build_nanos.load(Ordering::Relaxed)
    }
}

impl Topology for TimedTopology {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn build(&self, n: usize, seed: u64) -> Option<Adjacency> {
        let t = Instant::now();
        let adjacency = self.inner.build(n, seed);
        self.build_nanos
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        adjacency
    }
}
