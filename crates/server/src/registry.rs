//! Resolving a [`RunSpecKey`] to a concrete [`Driver`] run and
//! rendering the run as reply bytes.
//!
//! This is the only module that knows problem families: MED workloads
//! (the four `lpt_workloads::med` dataset families) run through
//! [`lpt_problems::Med`], the `planted-hs` workload through the
//! hitting-set driver on a planted `SetSystem`. Fault scenarios and
//! topologies resolve by preset name against
//! [`lpt_workloads::scenarios`].
//!
//! [`execute`] is **total**: resolution failures and driver errors
//! render as a single typed error frame, successful runs as
//! `header · round* · summary`. Either way the bytes are a pure
//! function of the key (runs are deterministic, rendering is
//! field-ordered), so the whole reply — errors included — is exactly
//! cacheable.

use crate::error::ServerError;
use gossip_sim::export::{Frame, RunHeader, RunSummary, WireError};
use gossip_sim::ObsSummary;
use lpt_gossip::driver::{Algorithm, Driver, DriverError, DriverProblem, RunReport, StopCondition};
use lpt_gossip::spec::{AlgorithmSpec, RunSpecKey, StopSpec};
use lpt_problems::Med;
use lpt_workloads::med::MedDataset;
use lpt_workloads::sets::planted_hitting_set;
use lpt_workloads::{Scenario, TopologyPreset};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The workload presets a server resolves on the wire: the four MED
/// dataset families plus a planted hitting-set instance
/// (`planted_hitting_set(elements, max(elements/2, 4), 3, 6, seed)`).
pub const WORKLOADS: [&str; 5] = ["duo-disk", "triple-disk", "triangle", "hull", "planted-hs"];

/// Diagnostic workload that panics on execution — deliberately absent
/// from [`WORKLOADS`]. Chaos drills request it to prove the worker
/// pool contains panics (typed `worker-panicked` frame, full worker
/// width afterwards, pending key released). Never cached: the panic
/// escapes before any bytes are produced.
pub const CHAOS_PANIC_WORKLOAD: &str = "chaos-panic";

/// Planted hitting-set size used by the `planted-hs` workload.
pub const PLANTED_D: usize = 3;
/// Per-set size used by the `planted-hs` workload.
pub const PLANTED_SET_SIZE: usize = 6;

/// What one spec execution produced.
pub struct ExecOutcome {
    /// The complete reply byte stream (frames, newline-terminated).
    pub bytes: Vec<u8>,
    /// Whether a driver actually ran (false when resolution failed
    /// before reaching the driver). This feeds the server's run
    /// counter, which the smoke test uses to prove cache hits do not
    /// re-execute.
    pub ran_driver: bool,
    /// The run's recorder summary, when the execution was asked to
    /// record phases ([`execute_with_options`]) and the driver produced
    /// a report. Deliberately *outside* `bytes`: wall times are not a
    /// function of the spec, so they never enter the cacheable reply —
    /// the server renders them only into per-request `trace` frames.
    pub obs: Option<ObsSummary>,
}

fn error_reply(err: WireError) -> ExecOutcome {
    ExecOutcome {
        bytes: frame_bytes(&[Frame::Error(err)]),
        ran_driver: false,
        obs: None,
    }
}

fn frame_bytes(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(f.to_line().as_bytes());
        out.push(b'\n');
    }
    out
}

fn header_for(key: &RunSpecKey) -> RunHeader {
    RunHeader {
        spec: key.canonical(),
        algorithm: key.algorithm.canonical(),
        n: key.n,
        seed: key.seed,
        fault: key.fault.clone(),
        topology: key.topology.clone(),
        schedule: key.schedule.name().to_string(),
        // Empty for the default engine, so historical header frames
        // stay byte-identical.
        engine: if key.engine.is_default() {
            String::new()
        } else {
            key.engine.name()
        },
    }
}

/// Renders a finished report as the reply stream. `consensus` is the
/// problem-specific rendering of the report's agreed output.
fn render_report<O>(key: &RunSpecKey, report: &RunReport<O>, consensus: Option<String>) -> Vec<u8> {
    let summary = RunSummary {
        rounds: report.rounds,
        all_halted: report.all_halted,
        stop_cause: report.stop_cause.name().to_string(),
        first_candidate_round: report.first_candidate_round,
        consensus,
        ..RunSummary::from_metrics(&report.metrics)
    };
    let mut frames = Vec::with_capacity(report.metrics.rounds.len() + 2);
    frames.push(Frame::Header(header_for(key)));
    frames.extend(report.metrics.rounds.iter().map(|r| Frame::Round(*r)));
    frames.push(Frame::Summary(summary));
    frame_bytes(&frames)
}

fn wire_algorithm(spec: AlgorithmSpec) -> Algorithm {
    match spec {
        AlgorithmSpec::LowLoad => Algorithm::low_load(),
        AlgorithmSpec::HighLoad => Algorithm::high_load(),
        AlgorithmSpec::Accelerated(eps) => Algorithm::accelerated(eps.value()),
        AlgorithmSpec::Hypercube => Algorithm::Hypercube,
        AlgorithmSpec::HittingSet { d } => Algorithm::hitting_set(d as usize),
    }
}

fn wire_stop<T>(spec: StopSpec) -> StopCondition<T> {
    match spec {
        StopSpec::FullTermination => StopCondition::FullTermination,
        StopSpec::RoundBudget(r) => StopCondition::RoundBudget(r),
    }
}

/// Runs the spec and renders the full reply byte stream. Total: every
/// failure mode becomes a typed error frame.
pub fn execute(key: &RunSpecKey) -> ExecOutcome {
    execute_with_options(key, None, false)
}

/// [`execute`] with a cooperative cancellation flag threaded into the
/// driver ([`Driver::cancel_flag`]): raising the flag makes the run
/// stop at the next round boundary with a typed `cancelled` error
/// frame (`DriverError::Cancelled`, code 111). The server's
/// per-request solve deadline raises it on timeout. A never-raised
/// flag is byte-invisible — the reply is identical to [`execute`]'s.
pub fn execute_with_cancel(key: &RunSpecKey, cancel: Option<Arc<AtomicBool>>) -> ExecOutcome {
    execute_with_options(key, cancel, false)
}

/// [`execute_with_cancel`] with an opt-in phase recorder
/// ([`Driver::record_phases`]): when `record_phases` is set the
/// outcome's [`obs`](ExecOutcome::obs) carries the run's
/// [`ObsSummary`]. Recording is observational by the engine's
/// contract, so `bytes` are byte-identical whatever the flag says —
/// the unit test below pins that.
pub fn execute_with_options(
    key: &RunSpecKey,
    cancel: Option<Arc<AtomicBool>>,
    record_phases: bool,
) -> ExecOutcome {
    if key.workload == CHAOS_PANIC_WORKLOAD {
        // Not an error reply: the whole point is an uncontrolled
        // panic for the pool's catch_unwind boundary to contain.
        panic!("chaos-panic workload executed: injected failure for crash-safety drills");
    }
    let scenario = match Scenario::parse(&key.fault) {
        Some(s) => s,
        None => {
            return error_reply(WireError::from_error(&ServerError::UnknownScenario(
                key.fault.clone(),
            )))
        }
    };
    let topology = match TopologyPreset::parse(&key.topology) {
        Some(t) => t,
        None => {
            return error_reply(WireError::from_error(&ServerError::UnknownTopology(
                key.topology.clone(),
            )))
        }
    };
    if key.workload == "planted-hs" {
        return execute_planted_hs(key, scenario, topology, cancel, record_phases);
    }
    match MedDataset::parse(&key.workload) {
        Some(ds) => execute_med(key, ds, scenario, topology, cancel, record_phases),
        None => error_reply(WireError::from_error(&ServerError::UnknownWorkload(
            key.workload.clone(),
        ))),
    }
}

fn execute_med(
    key: &RunSpecKey,
    dataset: MedDataset,
    scenario: Scenario,
    topology: TopologyPreset,
    cancel: Option<Arc<AtomicBool>>,
    record_phases: bool,
) -> ExecOutcome {
    if key.elements == 0 {
        return error_reply(WireError::from_error(&ServerError::BadField {
            field: "elements",
            detail: "MED workloads need at least one point".to_string(),
        }));
    }
    let points = dataset.generate(key.elements as usize, key.seed);
    let driver = configure(
        Driver::new(Med),
        key,
        scenario,
        topology,
        cancel,
        record_phases,
    );
    // `{:?}` prints the shortest round-tripping decimal, so the
    // rendering is as deterministic as the bits.
    outcome(key, driver.run(&points), |report| {
        report
            .consensus_output()
            .map(|b| format!("med:r2={:?}", b.value.r2))
    })
}

fn execute_planted_hs(
    key: &RunSpecKey,
    scenario: Scenario,
    topology: TopologyPreset,
    cancel: Option<Arc<AtomicBool>>,
    record_phases: bool,
) -> ExecOutcome {
    // The generator needs d ≤ elements and draws set fillers without
    // replacement, so tiny ground sets are rejected up front.
    if (key.elements as usize) < PLANTED_SET_SIZE {
        return error_reply(WireError::from_error(&ServerError::BadField {
            field: "elements",
            detail: format!("planted-hs needs at least {PLANTED_SET_SIZE} elements"),
        }));
    }
    let n_elements = key.elements as usize;
    let n_sets = (n_elements / 2).max(4);
    let (sys, _planted) =
        planted_hitting_set(n_elements, n_sets, PLANTED_D, PLANTED_SET_SIZE, key.seed);
    let driver = configure(
        Driver::new(Arc::new(sys)),
        key,
        scenario,
        topology,
        cancel,
        record_phases,
    );
    // Hitting-set nodes may halt on different (all valid) sets; render
    // the deterministic best output: smallest, then lexicographically
    // first.
    outcome(key, driver.run_ground(), |report| {
        report.best_output().map(|hs| {
            let ids: Vec<String> = hs.iter().map(u32::to_string).collect();
            format!("hs:{}:[{}]", hs.len(), ids.join(","))
        })
    })
}

/// Applies the key's run settings to a fresh driver: the one builder
/// chain both problem families go through, so a setting cannot reach
/// one family and miss the other.
fn configure<M, P: DriverProblem<M>>(
    driver: Driver<P, M>,
    key: &RunSpecKey,
    scenario: Scenario,
    topology: TopologyPreset,
    cancel: Option<Arc<AtomicBool>>,
    record_phases: bool,
) -> Driver<P, M> {
    let mut driver = driver
        .nodes(key.n as usize)
        .seed(key.seed)
        .algorithm(wire_algorithm(key.algorithm))
        .stop(wire_stop(key.stop))
        .max_rounds(key.max_rounds)
        .fault_model(scenario.fault_model())
        .topology(topology.topology())
        .rng_schedule(key.schedule)
        .engine(key.engine.clone())
        .record_phases(record_phases);
    if let Some(flag) = cancel {
        driver = driver.cancel_flag(flag);
    }
    if let Some(f) = key.doubling {
        driver = driver.with_doubling_search(f.value());
    }
    driver
}

/// Maps a driver result to the reply: the rendered report, with
/// `consensus` rendering its agreed output, or the driver's typed error
/// frame.
fn outcome<O>(
    key: &RunSpecKey,
    result: Result<RunReport<O>, DriverError>,
    consensus: impl FnOnce(&RunReport<O>) -> Option<String>,
) -> ExecOutcome {
    match result {
        Ok(report) => ExecOutcome {
            bytes: render_report(key, &report, consensus(&report)),
            ran_driver: true,
            obs: report.obs,
        },
        Err(e) => ExecOutcome {
            bytes: frame_bytes(&[Frame::Error(WireError::from_error(&e))]),
            ran_driver: true,
            obs: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::export::parse_frames;

    fn frames_of(out: &ExecOutcome) -> Vec<Frame> {
        parse_frames(std::str::from_utf8(&out.bytes).unwrap()).unwrap()
    }

    #[test]
    fn med_run_renders_header_rounds_summary() {
        let key = RunSpecKey::new("duo-disk", 128, 32, 1);
        let out = execute(&key);
        assert!(out.ran_driver);
        let frames = frames_of(&out);
        let Frame::Header(h) = &frames[0] else {
            panic!("no header")
        };
        assert_eq!(h.spec, key.canonical());
        assert_eq!(h.topology, "complete");
        let Frame::Summary(s) = frames.last().unwrap() else {
            panic!("no summary")
        };
        assert!(s.all_halted);
        assert_eq!(s.stop_cause, "all-halted");
        assert_eq!(frames.len() as u64, s.rounds + 2, "one frame per round");
        assert!(s.consensus.as_deref().unwrap().starts_with("med:r2="));
        assert!(s.total_pulls + s.total_pushes > 0);
    }

    #[test]
    fn identical_keys_render_identical_bytes() {
        let mut key = RunSpecKey::new("triple-disk", 96, 24, 9);
        key.fault = "wan".to_string();
        key.topology = "rr8".to_string();
        let a = execute(&key);
        let b = execute(&key);
        assert!(!a.bytes.is_empty());
        assert_eq!(a.bytes, b.bytes, "runs must be byte-deterministic");
    }

    #[test]
    fn planted_hs_solves_and_renders_best_set() {
        let mut key = RunSpecKey::new("planted-hs", 64, 16, 3);
        key.algorithm = AlgorithmSpec::HittingSet {
            d: PLANTED_D as u64,
        };
        let out = execute(&key);
        assert!(out.ran_driver);
        let frames = frames_of(&out);
        let Frame::Summary(s) = frames.last().unwrap() else {
            panic!("no summary")
        };
        assert!(s.consensus.as_deref().unwrap().starts_with("hs:"));
    }

    /// The engine on the key must reach the driver, not just the cache
    /// key and header: a multi-tick link plan produces a genuinely
    /// different trajectory than round-sync, so a spec requesting it
    /// must render a different round count (a run that merely relabels
    /// the round-sync trajectory would pass every byte-determinism
    /// test while being wrong).
    #[test]
    fn requested_engine_drives_the_run() {
        use lpt_gossip::Engine;
        let sync_key = RunSpecKey::new("duo-disk", 128, 32, 1);
        let mut event_key = sync_key.clone();
        event_key.engine = Engine::parse("event-const-3").unwrap();
        let sync = execute(&sync_key);
        let event = execute(&event_key);
        let (sf, ef) = (frames_of(&sync), frames_of(&event));
        let Frame::Header(h) = &ef[0] else {
            panic!("no header")
        };
        assert_eq!(h.engine, "event-const-3", "header carries the engine");
        let (Frame::Summary(ss), Frame::Summary(es)) = (sf.last().unwrap(), ef.last().unwrap())
        else {
            panic!("no summaries")
        };
        assert!(
            es.rounds > ss.rounds,
            "latency-3 links must stretch the run over more rounds than \
             round-sync ({} vs {}); equal counts mean the engine never \
             reached the driver",
            es.rounds,
            ss.rounds
        );
        assert!(es.all_halted, "the event run must still converge");
    }

    #[test]
    fn resolution_failures_are_typed_error_frames() {
        let cases = [
            ("nope", "perfect", "complete", 204),
            ("duo-disk", "cosmic-rays", "complete", 205),
            ("duo-disk", "perfect", "moebius", 206),
        ];
        for (workload, fault, topology, code) in cases {
            let mut key = RunSpecKey::new(workload, 64, 16, 1);
            key.fault = fault.to_string();
            key.topology = topology.to_string();
            let out = execute(&key);
            assert!(!out.ran_driver);
            let frames = frames_of(&out);
            assert_eq!(frames.len(), 1);
            let Frame::Error(e) = &frames[0] else {
                panic!("expected error frame")
            };
            assert_eq!(e.code, code, "{workload}/{fault}/{topology}");
        }
    }

    #[test]
    fn recorded_execution_is_byte_identical_and_carries_obs() {
        let key = RunSpecKey::new("duo-disk", 96, 24, 4);
        let plain = execute(&key);
        let recorded = execute_with_options(&key, None, true);
        assert_eq!(
            plain.bytes, recorded.bytes,
            "phase recording must not perturb the reply bytes"
        );
        assert!(plain.obs.is_none(), "recording is opt-in");
        let obs = recorded.obs.expect("recorded run carries a summary");
        assert!(obs.phase_calls.iter().any(|&c| c > 0));
    }

    #[test]
    fn unraised_cancel_flag_is_byte_invisible() {
        let mut key = RunSpecKey::new("duo-disk", 96, 24, 5);
        key.fault = "byzantine".to_string();
        let plain = execute(&key);
        let flagged = execute_with_cancel(&key, Some(Arc::new(AtomicBool::new(false))));
        assert_eq!(plain.bytes, flagged.bytes);
    }

    #[test]
    fn raised_cancel_flag_renders_the_typed_cancelled_frame() {
        let key = RunSpecKey::new("duo-disk", 128, 32, 1);
        let out = execute_with_cancel(&key, Some(Arc::new(AtomicBool::new(true))));
        assert!(out.ran_driver);
        let frames = frames_of(&out);
        assert_eq!(frames.len(), 1);
        let Frame::Error(e) = &frames[0] else {
            panic!("expected error frame")
        };
        assert_eq!(e.code, 111);
        assert_eq!(e.kind, "cancelled");
    }

    #[test]
    fn driver_errors_pass_through_with_1xx_codes() {
        // Hitting-set algorithm on an LP-type workload.
        let mut key = RunSpecKey::new("duo-disk", 64, 16, 1);
        key.algorithm = AlgorithmSpec::HittingSet { d: 2 };
        let out = execute(&key);
        assert!(out.ran_driver);
        let frames = frames_of(&out);
        let Frame::Error(e) = &frames[0] else {
            panic!("expected error frame")
        };
        assert_eq!(e.code, 102);
        assert_eq!(e.kind, "unsupported-algorithm");
    }
}
