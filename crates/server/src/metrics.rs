//! Server-side observability aggregation: latency, queue, and engine
//! counters behind one mutex, snapshotted into a [`MetricsSnapshot`]
//! for the `metrics` wire command.
//!
//! Everything here is strictly observational. None of these numbers
//! feed back into request handling, cache keys, or reply bytes — a
//! server with a busy metrics plane answers every request with the
//! same bytes as one whose counters were never read. That is why the
//! aggregation can afford a plain `Mutex`: it is touched once per
//! request (plus once per worker job), far off the reply hot path of
//! streaming cached bytes.

use gossip_sim::export::MetricsSnapshot;
use gossip_sim::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a `solve` request was answered, for latency accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A cache miss that executed a driver run.
    Cold,
    /// Replayed from the cache with no waiting.
    Hit,
    /// Coalesced onto another session's in-flight run (single-flight
    /// wait; counted as a cache hit by the cache's own counters).
    Wait,
    /// Answered with an error frame the run machinery produced (worker
    /// panic, solve timeout, dead worker, shutdown rejection).
    Error,
}

impl Outcome {
    /// Stable wire name, used in `trace` frames.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Cold => "cold",
            Outcome::Hit => "hit",
            Outcome::Wait => "wait",
            Outcome::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            Outcome::Cold => 0,
            Outcome::Hit => 1,
            Outcome::Wait => 2,
            Outcome::Error => 3,
        }
    }
}

#[derive(Default)]
struct Inner {
    /// Per-outcome request latency, microseconds (indexed by
    /// [`Outcome::index`]).
    latency_us: [Histogram; 4],
    /// Time solve jobs sat in the worker queue, microseconds.
    queue_wait_us: Histogram,
    /// Time solve jobs spent executing on a worker, microseconds.
    worker_busy_us: Histogram,
    /// Driver executions per engine name, insertion-ordered (the
    /// snapshot renderer sorts).
    engine_runs: Vec<(String, u64)>,
}

/// The server's metrics plane: one instance per server, shared by all
/// sessions and workers.
pub struct ServerObs {
    inner: Mutex<Inner>,
    /// Requests answered with an error frame (parse failures included).
    errors: AtomicU64,
    /// Solve jobs submitted to the pool but not yet picked up.
    queue_depth: AtomicU64,
    queue_depth_high_water: AtomicU64,
}

impl ServerObs {
    /// A fresh metrics plane with every counter at zero.
    pub fn new() -> Self {
        ServerObs {
            inner: Mutex::new(Inner::default()),
            errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_high_water: AtomicU64::new(0),
        }
    }

    /// Records one answered `solve` request.
    pub fn record_latency(&self, outcome: Outcome, micros: u64) {
        self.inner.lock().unwrap().latency_us[outcome.index()].record(micros);
    }

    /// Records one request answered with an error frame (also feeds
    /// [`Outcome::Error`] latency when the request got that far — parse
    /// failures only move this counter).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker job's queue wait and on-worker execution time.
    pub fn record_job(&self, queue_wait_micros: u64, busy_micros: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.queue_wait_us.record(queue_wait_micros);
        inner.worker_busy_us.record(busy_micros);
    }

    /// Records one driver execution under `engine`.
    pub fn record_engine_run(&self, engine: &str) {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .engine_runs
            .iter_mut()
            .find(|(name, _)| name == engine)
        {
            Some((_, count)) => *count += 1,
            None => inner.engine_runs.push((engine.to_string(), 1)),
        }
    }

    /// A solve job entered the worker queue.
    pub fn job_submitted(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker picked the job up (it is no longer queued).
    pub fn job_started(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Jobs currently submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Requests answered with an error frame so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Copies the histogram state into a partially-filled snapshot.
    /// The caller owns the plain counters (requests, cache state,
    /// workers); this fills everything the metrics plane aggregates.
    pub fn fill_snapshot(&self, snap: &mut MetricsSnapshot) {
        snap.errors = self.errors();
        snap.queue_depth = self.queue_depth();
        snap.queue_depth_high_water = self.queue_depth_high_water.load(Ordering::Relaxed);
        let inner = self.inner.lock().unwrap();
        snap.latency_cold_us = inner.latency_us[Outcome::Cold.index()].clone();
        snap.latency_hit_us = inner.latency_us[Outcome::Hit.index()].clone();
        snap.latency_pending_us = inner.latency_us[Outcome::Wait.index()].clone();
        snap.latency_error_us = inner.latency_us[Outcome::Error.index()].clone();
        snap.queue_wait_us = inner.queue_wait_us.clone();
        snap.worker_busy_us = inner.worker_busy_us.clone();
        snap.engine_runs = inner.engine_runs.clone();
    }
}

impl Default for ServerObs {
    fn default() -> Self {
        ServerObs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_land_in_their_own_histograms() {
        let obs = ServerObs::new();
        obs.record_latency(Outcome::Cold, 900);
        obs.record_latency(Outcome::Hit, 40);
        obs.record_latency(Outcome::Hit, 60);
        obs.record_latency(Outcome::Wait, 500);
        obs.record_error();
        obs.record_latency(Outcome::Error, 10);
        let mut snap = MetricsSnapshot::default();
        obs.fill_snapshot(&mut snap);
        assert_eq!(snap.latency_cold_us.count(), 1);
        assert_eq!(snap.latency_hit_us.count(), 2);
        assert_eq!(snap.latency_pending_us.count(), 1);
        assert_eq!(snap.latency_error_us.count(), 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency_cold_us.max(), 900);
    }

    #[test]
    fn queue_depth_tracks_submit_start_and_high_water() {
        let obs = ServerObs::new();
        obs.job_submitted();
        obs.job_submitted();
        assert_eq!(obs.queue_depth(), 2);
        obs.job_started();
        assert_eq!(obs.queue_depth(), 1);
        obs.job_started();
        let mut snap = MetricsSnapshot::default();
        obs.fill_snapshot(&mut snap);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.queue_depth_high_water, 2);
    }

    #[test]
    fn engine_runs_accumulate_per_name() {
        let obs = ServerObs::new();
        obs.record_engine_run("round-sync");
        obs.record_engine_run("event-unit");
        obs.record_engine_run("round-sync");
        let mut snap = MetricsSnapshot::default();
        obs.fill_snapshot(&mut snap);
        assert_eq!(
            snap.engine_runs,
            vec![("round-sync".to_string(), 2), ("event-unit".to_string(), 1)]
        );
    }
}
