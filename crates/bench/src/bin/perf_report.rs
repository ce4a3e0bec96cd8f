//! `perf_report` — the round-engine performance harness.
//!
//! Runs a fixed scenario grid (Low-Load and High-Load Clarkson at
//! `n ∈ {2^10, 2^14, 2^17, 2^20}`, each under the Perfect network and
//! the `wan` scenario preset) plus rumor-spreading `Network::round`
//! steady-state cells at `n = 2^14` and `n = 2^20` and a Rayon
//! thread-scaling sweep (1/2/4/8 threads) over the `n = 2^14` rumor
//! cell, and writes the measurements to `BENCH_round_engine.json` — the
//! baseline every future round-engine optimisation is judged against.
//!
//! Usage: `perf_report [--smoke] [--schedule v1compat|v2batched]
//! [--engine NAME] [--topology] [--threads N] [--parallel-sweep]
//! [--phases] [--out PATH] [--trend-out PATH] [--check BASELINE.json]`
//!
//! `--phases` attaches a [`FlightRecorder`] to every cell's network and
//! emits the per-phase wall breakdown (`phases_us` map, one
//! `cell/phase` entry per non-zero phase) into the `--trend-out`
//! artifact. Recording is observational only — op counts are
//! byte-identical with or without it, which `--phases --check` proves
//! on every CI run.
//!
//! `--engine NAME` selects the execution engine for every cell (any
//! canonical [`Engine`] name: `round-sync` (default), `event-unit`,
//! `event-const-L`, `event-uniform-MIN-MAX`, with an optional
//! `-loss-PPM` suffix). Under `event-unit` op counts equal the
//! round-sync baseline by the unit-latency degeneracy contract, so
//! `--engine event-unit --check` gates the event scheduler against the
//! committed round-engine baseline with zero extra pinning.
//!
//! `--trend-out PATH` additionally writes a compact trend artifact
//! (cell key → wall ms) meant to be uploaded per CI run, so wall-clock
//! history can be charted across commits without parsing full reports.
//!
//! `--threads N` installs an `N`-worker rayon pool around the whole
//! grid and forces the engine's parallel stepping path (threshold 1);
//! op counts are thread-invariant by the engine's determinism
//! contract, so `--threads 2 --check` doubles as a concurrency
//! determinism gate. `--parallel-sweep` runs only the thread-scaling
//! sweeps (1/2/4/8 workers over the `n = 2^14` and `n = 2^17` rumor
//! steady-state cells) — the data behind the `real_parallel_v1`
//! section of the committed baseline.
//!
//! `--smoke` runs only the smallest grid point (CI uses this so the
//! harness cannot bit-rot) — including one `random-regular(8)` cell,
//! so the neighbor-bounded draw path is regression-gated exactly like
//! the complete-graph path; `--schedule` selects the versioned
//! [`RngSchedule`] the networks draw under (default: the engine
//! default, `v2batched`); `--topology` appends a topology grid
//! (low/high-load × every `lpt_workloads::scenarios::TOPOLOGIES`
//! preset at `n = 2^10`, run to termination) measuring the
//! convergence-round inflation sparse overlays cost versus `Complete`;
//! `--out` overrides the output path.
//!
//! `--check` is the CI determinism/perf gate: every measured cell is
//! compared against the given baseline file's section for `--schedule`
//! (`smoke_baseline_v1` for `v1compat`, `smoke_baseline_v2` for
//! `v2batched`) — the *op count must match exactly* (op counts are a
//! pure function of (schedule, seed), so any drift means the bitstream
//! moved without a schedule bump) and the wall time must not regress
//! beyond a generous +50% over the recorded reference (override the
//! fraction with the `PERF_SMOKE_WALL_TOL` env var; cells under a 50 ms
//! noise floor are exempt, and running *faster* never fails — the wall
//! check is a regression tripwire, the op check is the determinism
//! gate). Any violation exits non-zero.

use gossip_sim::obs::Phase;
use gossip_sim::{
    Engine, FlightRecorder, Network, NetworkConfig, NodeControl, ObsSummary, PhaseRng, Protocol,
    Response, RngSchedule, Served,
};
use lpt_gossip::driver::scatter;
use lpt_gossip::high_load::{HighLoadClarkson, HighLoadConfig};
use lpt_gossip::low_load::{LowLoadClarkson, LowLoadConfig};
use lpt_problems::Med;
use lpt_workloads::med::triple_disk;
use lpt_workloads::scenarios::{Scenario, TopologyPreset, TOPOLOGIES};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured grid cell.
struct Cell {
    algo: &'static str,
    n: usize,
    scenario: &'static str,
    /// Communication overlay the cell gossiped over (a
    /// [`TopologyPreset`] name; `"complete"` outside topology cells).
    topology: &'static str,
    /// Effective engine parallelism for the cell: the ambient rayon
    /// pool's worker count when the parallel stepping path was taken,
    /// 1 when the cell ran sequentially.
    threads: usize,
    rounds: u64,
    ops: u64,
    wall_ms: f64,
    rounds_per_sec: f64,
    peak_rss_kb: Option<u64>,
    /// Per-phase wall breakdown, present only under `--phases`.
    obs: Option<ObsSummary>,
}

/// Peak resident set size in kB (`VmHWM`), Linux only. Monotone over
/// the process lifetime, so later cells inherit earlier peaks.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const SEED: u64 = 2024;

/// Set by `--threads`: force the parallel stepping path (threshold 1)
/// for every grid cell so the installed pool is actually exercised.
static FORCE_PARALLEL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Set by `--phases`: attach a [`FlightRecorder`] to every cell and
/// emit the phase breakdown into the trend artifact.
static PHASES: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Set by `--engine`: the execution engine every grid cell runs under.
static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();

/// Installs a flight recorder when `--phases` asked for one. Purely
/// observational: the recorder only reads values the engine computed
/// anyway, so ops and trajectories are unchanged.
fn instrument<P: Protocol>(net: &mut Network<P>) {
    if PHASES.load(std::sync::atomic::Ordering::Relaxed) {
        net.set_recorder(Box::new(FlightRecorder::new()));
    }
}

fn engine() -> Engine {
    ENGINE.get().cloned().unwrap_or_default()
}

fn tuned(cfg: NetworkConfig) -> NetworkConfig {
    let cfg = cfg.engine(engine());
    if FORCE_PARALLEL.load(std::sync::atomic::Ordering::Relaxed) {
        cfg.parallel_threshold(1)
    } else {
        cfg
    }
}

/// Round budget per cell: small networks run to termination; the big
/// cells measure steady-state throughput over a fixed window instead
/// (termination at n ≥ 2^17 takes tens of minutes and adds nothing to
/// a rounds/sec baseline).
fn round_cap(n: usize) -> u64 {
    if n >= 1 << 20 {
        3
    } else if n >= 1 << 17 {
        6
    } else if n >= 1 << 14 {
        30
    } else {
        500
    }
}

fn run_low_load(n: usize, scenario: Scenario, schedule: RngSchedule, topo: TopologyPreset) -> Cell {
    let points = triple_disk(n, SEED);
    let proto = LowLoadClarkson::new(Med, n, &LowLoadConfig::default());
    let states: Vec<_> = scatter(&points, n, SEED)
        .expect("n > 0")
        .into_iter()
        .map(|h0| proto.initial_state(h0))
        .collect();
    let cfg = tuned(
        NetworkConfig::with_seed(SEED)
            .fault(scenario.fault_model())
            .rng_schedule(schedule)
            .topology(topo.topology()),
    );
    let mut net = Network::new(proto, states, cfg);
    instrument(&mut net);
    let t = Instant::now();
    let outcome = net.run(round_cap(n));
    let wall = t.elapsed();
    cell("low_load", n, scenario, topo, outcome.rounds(), &net, wall)
}

fn run_high_load(
    n: usize,
    scenario: Scenario,
    schedule: RngSchedule,
    topo: TopologyPreset,
) -> Cell {
    // 4·n elements: the high-load regime the algorithm targets.
    let points = triple_disk(4 * n, SEED);
    let proto = HighLoadClarkson::new(Med, n, &HighLoadConfig::default());
    let states: Vec<_> = scatter(&points, n, SEED)
        .expect("n > 0")
        .into_iter()
        .map(|h| proto.initial_state(h))
        .collect();
    let cfg = tuned(
        NetworkConfig::with_seed(SEED)
            .fault(scenario.fault_model())
            .rng_schedule(schedule)
            .topology(topo.topology()),
    );
    let mut net = Network::new(proto, states, cfg);
    instrument(&mut net);
    let t = Instant::now();
    let outcome = net.run(round_cap(n));
    let wall = t.elapsed();
    cell("high_load", n, scenario, topo, outcome.rounds(), &net, wall)
}

fn cell<P: Protocol>(
    algo: &'static str,
    n: usize,
    scenario: Scenario,
    topo: TopologyPreset,
    rounds: u64,
    net: &Network<P>,
    wall: std::time::Duration,
) -> Cell {
    let wall_ms = wall.as_secs_f64() * 1e3;
    Cell {
        algo,
        n,
        scenario: scenario.name(),
        topology: topo.name(),
        threads: net.effective_parallelism(),
        rounds,
        ops: net.metrics().total_ops(),
        wall_ms,
        rounds_per_sec: rounds as f64 / wall.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb(),
        obs: net.recorder().summary(),
    }
}

// ---------------------------------------------------------------------------
// Rumor-spreading steady-state cell (the zero-allocation acceptance case)
// ---------------------------------------------------------------------------

/// Push-based rumor spreading, as in the simulator's own tests: the one
/// protocol whose per-round protocol work is trivial, so the cell
/// measures the round engine itself.
struct PushRumor;

#[derive(Clone)]
struct RumorState {
    informed: bool,
    token: u64,
}

impl Protocol for PushRumor {
    type State = RumorState;
    // A real rumor payload (non-zero-sized): delivery moves actual
    // bytes through the inboxes, which is the allocation-sensitive
    // case — a ZST rumor never allocates even without buffer reuse.
    type Msg = u64;
    type Query = ();

    fn pulls(&self, _: u32, _: &RumorState, _: &mut PhaseRng, _: &mut Vec<()>) {}

    fn serve(&self, _: u32, _: &RumorState, _: &(), _: &mut PhaseRng) -> Option<Served<u64>> {
        None
    }

    fn compute(
        &self,
        _: u32,
        state: &mut RumorState,
        _: &mut Vec<Option<Response<u64>>>,
        _: &mut PhaseRng,
        pushes: &mut Vec<u64>,
    ) -> NodeControl {
        if state.informed {
            pushes.push(state.token);
        }
        NodeControl::Continue
    }

    fn absorb(
        &self,
        _: u32,
        state: &mut RumorState,
        delivered: &mut Vec<u64>,
        _: &mut PhaseRng,
    ) -> NodeControl {
        if let Some(&t) = delivered.last() {
            state.informed = true;
            state.token = state.token.max(t);
        }
        NodeControl::Continue
    }
}

/// Steady-state rumor rounds/sec at the given `n`: warm the network to
/// full saturation (every node pushes every round), then time a fixed
/// window of rounds.
fn run_rumor_step(n: usize, warmup: u64, window: u64, schedule: RngSchedule) -> Cell {
    let states: Vec<_> = (0..n)
        .map(|i| RumorState {
            informed: i == 0,
            token: i as u64 + 1,
        })
        .collect();
    let cfg = tuned(NetworkConfig::with_seed(SEED).rng_schedule(schedule));
    let mut net = Network::new(PushRumor, states, cfg);
    instrument(&mut net);
    for _ in 0..warmup {
        net.round();
    }
    let t = Instant::now();
    for _ in 0..window {
        net.round();
    }
    let wall = t.elapsed();
    let ops: u64 = net
        .metrics()
        .rounds
        .iter()
        .rev()
        .take(window as usize)
        .map(|r| r.pulls + r.pushes)
        .sum();
    Cell {
        algo: "rumor_step",
        n,
        scenario: "perfect",
        topology: "complete",
        threads: net.effective_parallelism(),
        rounds: window,
        ops,
        wall_ms: wall.as_secs_f64() * 1e3,
        rounds_per_sec: window as f64 / wall.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb(),
        obs: net.recorder().summary(),
    }
}

/// Rayon thread-scaling sweep over a rumor steady-state cell: 1/2/4/8
/// worker threads (each its own installed pool — real OS threads),
/// parallel threshold forced to 1 so the engine always takes the
/// parallel stepping path. Results are bit-identical at every thread
/// count by the engine's determinism contract; only wall time may
/// move. How much it moves is hardware-bound: on a single-core host
/// the sweep measures dispatch overhead (expect ≤ 1.0×), on a
/// multi-core host it measures true scaling.
fn run_thread_sweep(schedule: RngSchedule, n: usize, warmup: u64, window: u64) -> Vec<Cell> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(|| {
                let states: Vec<_> = (0..n)
                    .map(|i| RumorState {
                        informed: i == 0,
                        token: i as u64 + 1,
                    })
                    .collect();
                let cfg = NetworkConfig::with_seed(SEED)
                    .parallel_threshold(1)
                    .rng_schedule(schedule)
                    .engine(engine());
                let mut net = Network::new(PushRumor, states, cfg);
                instrument(&mut net);
                for _ in 0..warmup {
                    net.round();
                }
                let t = Instant::now();
                for _ in 0..window {
                    net.round();
                }
                let wall = t.elapsed();
                let ops: u64 = net
                    .metrics()
                    .rounds
                    .iter()
                    .rev()
                    .take(window as usize)
                    .map(|r| r.pulls + r.pushes)
                    .sum();
                Cell {
                    algo: "rumor_step_threads",
                    n,
                    scenario: "perfect",
                    topology: "complete",
                    threads: net.effective_parallelism(),
                    rounds: window,
                    ops,
                    wall_ms: wall.as_secs_f64() * 1e3,
                    rounds_per_sec: window as f64 / wall.as_secs_f64().max(1e-9),
                    peak_rss_kb: peak_rss_kb(),
                    obs: net.recorder().summary(),
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Baseline gate (--check)
// ---------------------------------------------------------------------------

use lpt_bench::{json_num_field, json_str_field};

struct BaselineCell {
    algo: String,
    n: u64,
    scenario: String,
    /// Overlay the cell gossiped over; pre-topology baseline lines
    /// omit the field and default to `"complete"`.
    topology: String,
    ops: u64,
    wall_ms: f64,
}

/// The baseline section `--check` reads for `schedule`: each schedule
/// has its own op counts, so each is gated against its own cells.
fn smoke_section(schedule: RngSchedule) -> &'static str {
    match schedule {
        RngSchedule::V1Compat => "smoke_baseline_v1",
        RngSchedule::V2Batched => "smoke_baseline_v2",
    }
}

/// Extracts the `section` cells from the committed baseline file:
/// every line holding an `"algo"` field inside that section is one
/// cell (the committed file keeps one cell per line for exactly this
/// reason).
fn load_smoke_baseline(path: &str, section: &str) -> Result<Vec<BaselineCell>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let section_start = text
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("baseline {path} has no {section} section"))?;
    // The section ends at the first `]` after its `cells` array opens.
    let body = &text[section_start..];
    let end = body
        .find(']')
        .ok_or_else(|| format!("baseline {path}: unterminated {section}"))?;
    let mut cells = Vec::new();
    for line in body[..end].lines() {
        if !line.contains("\"algo\"") {
            continue;
        }
        let parse = || -> Option<BaselineCell> {
            Some(BaselineCell {
                algo: json_str_field(line, "algo")?,
                n: json_num_field(line, "n")? as u64,
                scenario: json_str_field(line, "scenario")?,
                topology: json_str_field(line, "topology")
                    .unwrap_or_else(|| "complete".to_string()),
                ops: json_num_field(line, "ops")? as u64,
                wall_ms: json_num_field(line, "wall_ms")?,
            })
        };
        cells.push(parse().ok_or_else(|| format!("unparseable baseline cell: {line}"))?);
    }
    if cells.is_empty() {
        return Err(format!("baseline {path}: {section} has no cells"));
    }
    Ok(cells)
}

/// The CI gate: op counts must match the baseline exactly; wall time
/// within ±`tol` (a fraction of the baseline value). Returns the list
/// of violations (empty = gate passes).
fn check_against_baseline(
    cells: &[Cell],
    baseline: &[BaselineCell],
    schedule: RngSchedule,
    tol: f64,
) -> Vec<String> {
    let section = smoke_section(schedule);
    let mut violations = Vec::new();
    for c in cells {
        let Some(b) = baseline.iter().find(|b| {
            b.algo == c.algo
                && b.n == c.n as u64
                && b.scenario == c.scenario
                && b.topology == c.topology
        }) else {
            violations.push(format!(
                "cell ({}, n={}, {}, {}) missing from the committed smoke baseline — \
                 re-pin {section} in BENCH_round_engine.json",
                c.algo, c.n, c.scenario, c.topology
            ));
            continue;
        };
        if b.ops != c.ops {
            violations.push(format!(
                "op-count drift in ({}, n={}, {}, {}): measured {} vs baseline {} — \
                 the {} bitstream moved without a schedule bump",
                c.algo,
                c.n,
                c.scenario,
                c.topology,
                c.ops,
                b.ops,
                schedule.name()
            ));
        }
        // Wall-clock is a regression tripwire, not a determinism check:
        // only *slower than tolerance* fails (a faster runner is never a
        // bug), and cells under the 50 ms noise floor are exempt (their
        // absolute time is within cross-machine scheduling jitter; their
        // op count is still checked exactly above).
        let ratio = c.wall_ms / b.wall_ms.max(1e-9);
        if b.wall_ms >= WALL_NOISE_FLOOR_MS && ratio > 1.0 + tol {
            violations.push(format!(
                "wall-clock regression beyond +{:.0}% in ({}, n={}, {}): measured {:.1} ms vs \
                 baseline {:.1} ms (ratio {:.2}); re-pin {section} wall_ms if the \
                 reference hardware changed",
                tol * 100.0,
                c.algo,
                c.n,
                c.scenario,
                c.wall_ms,
                b.wall_ms,
                ratio
            ));
        }
    }
    violations
}

/// Baseline cells faster than this are exempt from the wall-clock check
/// (pure scheduling jitter at that scale); op counts are always checked.
const WALL_NOISE_FLOOR_MS: f64 = 50.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_round_engine.json".to_string());
    let schedule = match flag_value("--schedule") {
        None => RngSchedule::default(),
        Some(s) => RngSchedule::parse(&s).unwrap_or_else(|| {
            eprintln!("[perf_report] unknown --schedule {s} (use v1compat or v2batched)");
            std::process::exit(2);
        }),
    };
    if let Some(e) = flag_value("--engine") {
        let engine = Engine::parse(&e).unwrap_or_else(|| {
            eprintln!(
                "[perf_report] unknown --engine {e} (use round-sync, event-unit, \
                 event-const-L, or event-uniform-MIN-MAX, optionally -loss-PPM)"
            );
            std::process::exit(2);
        });
        ENGINE.set(engine).expect("--engine parsed once");
    }
    let trend_path = flag_value("--trend-out");
    let check_path = flag_value("--check");
    if args.iter().any(|a| a == "--phases") {
        PHASES.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    let topology_grid = args.iter().any(|a| a == "--topology");
    let parallel_sweep = args.iter().any(|a| a == "--parallel-sweep");
    let threads_override: Option<usize> = flag_value("--threads").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("[perf_report] --threads takes a positive integer, got {v}");
            std::process::exit(2);
        })
    });

    let sizes: &[usize] = if smoke {
        &[1 << 10]
    } else {
        &[1 << 10, 1 << 14, 1 << 17, 1 << 20]
    };
    let scenarios: &[Scenario] = if smoke {
        &[Scenario::Perfect]
    } else {
        &[Scenario::Perfect, Scenario::Wan]
    };

    let collect = || {
        let mut cells: Vec<Cell> = Vec::new();
        if parallel_sweep {
            // Just the thread-scaling sweeps (the `real_parallel_v1`
            // data): 1/2/4/8 real workers over the rumor steady-state
            // cells at n = 2^14 and n = 2^17.
            for (n, warmup, window) in [(1usize << 14, 30, 200), (1 << 17, 5, 25)] {
                eprintln!(
                    "[perf_report] thread sweep (1/2/4/8) n={n} {}",
                    schedule.name()
                );
                cells.extend(run_thread_sweep(schedule, n, warmup, window));
            }
            return cells;
        }
        run_grid(&mut cells, smoke, topology_grid, schedule, sizes, scenarios);
        cells
    };
    let cells: Vec<Cell> = match threads_override {
        Some(t) => {
            FORCE_PARALLEL.store(true, std::sync::atomic::Ordering::Relaxed);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("thread pool");
            eprintln!(
                "[perf_report] running under a {}-worker pool, parallel threshold forced to 1",
                pool.current_num_threads()
            );
            pool.install(collect)
        }
        None => collect(),
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"round_engine\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"schedule\": \"{}\",", schedule.name());
    let _ = writeln!(json, "  \"engine\": \"{}\",", engine().name());
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let rss = c
            .peak_rss_kb
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            json,
            "    {{\"algo\": \"{}\", \"n\": {}, \"scenario\": \"{}\", \"topology\": \"{}\", \"threads\": {}, \"rounds\": {}, \"ops\": {}, \"wall_ms\": {:.1}, \"rounds_per_sec\": {:.2}, \"peak_rss_kb\": {}}}",
            c.algo, c.n, c.scenario, c.topology, c.threads, c.rounds, c.ops, c.wall_ms, c.rounds_per_sec, rss
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Load the baseline *before* writing the report: `--out` defaults
    // to the baseline's own path, and the gate must compare against
    // the committed content, never a file this run just overwrote.
    let baseline = check_path.as_deref().map(|baseline_path| {
        load_smoke_baseline(baseline_path, smoke_section(schedule)).unwrap_or_else(|e| {
            eprintln!("[perf_report] {e}");
            std::process::exit(2);
        })
    });

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("[perf_report] wrote {out_path}");

    // The per-run trend artifact: one flat `cell key → wall ms` map,
    // cheap enough to upload on every CI run and diff across commits.
    if let Some(trend_path) = trend_path {
        let mut trend = String::new();
        trend.push_str("{\n  \"bench\": \"perf-trend\",\n");
        let _ = writeln!(trend, "  \"schedule\": \"{}\",", schedule.name());
        let _ = writeln!(trend, "  \"engine\": \"{}\",", engine().name());
        trend.push_str("  \"wall_ms\": {\n");
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(
                trend,
                "    \"{}/n={}/{}/{}/t{}\": {:.1}",
                c.algo, c.n, c.scenario, c.topology, c.threads, c.wall_ms
            );
            trend.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
        }
        trend.push_str("  }");
        // Under --phases each cell carries its recorder summary: emit
        // the per-phase wall breakdown as a flat `cell/phase` map so
        // phase-level history charts from the same artifact.
        let phase_entries: Vec<String> = cells
            .iter()
            .filter_map(|c| c.obs.as_ref().map(|obs| (c, obs)))
            .flat_map(|(c, obs)| {
                Phase::ALL.iter().filter_map(move |&phase| {
                    let us = obs.phase_us(phase);
                    (us > 0).then(|| {
                        format!(
                            "    \"{}/n={}/{}/{}/t{}/{}\": {}",
                            c.algo,
                            c.n,
                            c.scenario,
                            c.topology,
                            c.threads,
                            phase.name(),
                            us
                        )
                    })
                })
            })
            .collect();
        if !phase_entries.is_empty() {
            trend.push_str(",\n  \"phases_us\": {\n");
            trend.push_str(&phase_entries.join(",\n"));
            trend.push_str("\n  }");
        }
        trend.push_str("\n}\n");
        std::fs::write(&trend_path, &trend).expect("write trend artifact");
        eprintln!("[perf_report] wrote {trend_path}");
    }

    if let Some(baseline) = baseline {
        let tol = std::env::var("PERF_SMOKE_WALL_TOL")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.5);
        let violations = check_against_baseline(&cells, &baseline, schedule, tol);
        if violations.is_empty() {
            eprintln!(
                "[perf_report] gate PASSED: {} cells match the committed {} baseline \
                 (ops exact, wall within +{:.0}% above the noise floor)",
                cells.len(),
                smoke_section(schedule),
                tol * 100.0
            );
        } else {
            for v in &violations {
                eprintln!("[perf_report] gate FAILED: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// The standard measurement grid (everything except the thread
/// sweeps): low/high-load cells over `sizes` × `scenarios`, the rumor
/// steady-state cells, and the optional topology grid.
fn run_grid(
    cells: &mut Vec<Cell>,
    smoke: bool,
    topology_grid: bool,
    schedule: RngSchedule,
    sizes: &[usize],
    scenarios: &[Scenario],
) {
    for &scenario in scenarios {
        for &n in sizes {
            let tag = scenario.name();
            eprintln!(
                "[perf_report] low_load  n={n} scenario={tag} {}",
                schedule.name()
            );
            cells.push(run_low_load(
                n,
                scenario,
                schedule,
                TopologyPreset::Complete,
            ));
            eprintln!(
                "[perf_report] high_load n={n} scenario={tag} {}",
                schedule.name()
            );
            cells.push(run_high_load(
                n,
                scenario,
                schedule,
                TopologyPreset::Complete,
            ));
        }
    }
    if smoke {
        // The Complete-vs-RandomRegular op-count pair: the
        // neighbor-bounded draw path is determinism-gated exactly like
        // the complete-graph path (its complete twin ran above).
        // High-Load is the cell that terminates crisply on the sparse
        // overlay (Low-Load's audit-based termination outlives the
        // round cap there).
        eprintln!(
            "[perf_report] high_load n={} scenario=perfect topology=rr8 {}",
            1 << 10,
            schedule.name()
        );
        cells.push(run_high_load(
            1 << 10,
            Scenario::Perfect,
            schedule,
            TopologyPreset::RandomRegular8,
        ));
        eprintln!("[perf_report] rumor_step n={} {}", 1 << 10, schedule.name());
        cells.push(run_rumor_step(1 << 10, 10, 50, schedule));
    } else {
        eprintln!("[perf_report] rumor_step n={} {}", 1 << 14, schedule.name());
        cells.push(run_rumor_step(1 << 14, 30, 200, schedule));
        eprintln!("[perf_report] rumor_step n={} {}", 1 << 20, schedule.name());
        cells.push(run_rumor_step(1 << 20, 30, 50, schedule));
        for (n, warmup, window) in [(1usize << 14, 30, 200), (1 << 17, 5, 25)] {
            eprintln!("[perf_report] thread sweep (1/2/4/8) n={n}");
            cells.extend(run_thread_sweep(schedule, n, warmup, window));
        }
    }
    if topology_grid {
        // Convergence-round inflation on sparse overlays: every
        // topology preset at n = 2^10, run to termination under the
        // perfect network (the round counts, not the wall clock, are
        // the measurement — compare each overlay's `rounds` against
        // the complete cell's).
        let n = 1 << 10;
        for topo in TOPOLOGIES {
            eprintln!(
                "[perf_report] low_load  n={n} topology={} {}",
                topo.name(),
                schedule.name()
            );
            cells.push(run_low_load(n, Scenario::Perfect, schedule, topo));
            eprintln!(
                "[perf_report] high_load n={n} topology={} {}",
                topo.name(),
                schedule.name()
            );
            cells.push(run_high_load(n, Scenario::Perfect, schedule, topo));
        }
    }
}
