//! The library workloads: back-to-back `Driver::run` / `run_ground`
//! calls on generated inputs, each answer checked by the oracle.
//!
//! A run generates `instances` inputs from the workload seed and solves
//! them in order, over and over, until the measuring window closes. The
//! first solve of an instance is its cold solve and is checked against
//! the oracle; every later solve of the same instance is a repeat and
//! must reproduce the first trajectory exactly (the library has no
//! cache, so a repeat costs a full run).

use crate::metered::{Meter, Metered, TimedTopology};
use crate::oracle::{self, MedBasis};
use crate::util::{self, mean, median, mix, ms, quantile, timed, Metrics, Tally};
use gossip_sim::obs::{Counter, Gauge, Phase};
use gossip_sim::topology::Topology;
use gossip_sim::{ObsSummary, RoundMetrics};
use lpt_gossip::driver::{scatter, Algorithm, Driver, DriverProblem, RunReport, StopCondition};
use lpt_gossip::Engine;
use lpt_problems::{IdPoint2, Med, MedValue, SetSystem};
use lpt_workloads::med::MedDataset;
use lpt_workloads::sets::planted_hitting_set;
use lpt_workloads::{Scenario, TopologyPreset};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many times a run repeats its set-up (the median is reported).
const SETUP_REPS: usize = 9;

/// The input family a library workload draws from.
#[derive(Clone, Copy)]
pub enum Family {
    /// A MED dataset with `elements_per_node · n` points.
    Med {
        dataset: MedDataset,
        elements_per_node: usize,
    },
    /// `planted_hitting_set(elements, sets, d, set_size, seed)`.
    PlantedHs {
        elements: usize,
        sets: usize,
        d: usize,
        set_size: usize,
    },
}

/// One library workload: an input family and a driver configuration.
pub struct LibWorkload {
    pub n: usize,
    pub family: Family,
    pub algorithm: Algorithm,
    pub scenario: Scenario,
    pub topology: TopologyPreset,
    pub engine: &'static str,
    /// Distinct inputs a run draws from its seed.
    pub instances: usize,
}

enum Input {
    Med {
        points: Vec<IdPoint2>,
        optimum: OnceLock<MedValue>,
    },
    Hs {
        sys: Arc<SetSystem>,
    },
}

struct Instance {
    seed: u64,
    input: Input,
}

/// Everything about a run that must be identical between repeats and
/// between traced and untraced runs.
#[derive(Clone, PartialEq)]
struct Trajectory {
    rounds: u64,
    all_halted: bool,
    per_round: Vec<RoundMetrics>,
    outputs: Outputs,
}

#[derive(Clone, PartialEq)]
enum Outputs {
    Med {
        outputs: Vec<Option<MedBasis>>,
        consensus: Option<MedBasis>,
    },
    Hs {
        outputs: Vec<Option<Vec<u32>>>,
        size_bound: Option<usize>,
    },
}

struct Solved {
    traj: Trajectory,
    obs: Option<ObsSummary>,
}

impl Trajectory {
    fn ops(&self) -> u64 {
        self.per_round.iter().map(|r| r.pulls + r.pushes).sum()
    }
}

fn med_trajectory(report: RunReport<MedBasis>) -> Solved {
    let consensus = report.consensus_output().cloned();
    Solved {
        traj: Trajectory {
            rounds: report.rounds,
            all_halted: report.all_halted,
            per_round: report.metrics.rounds,
            outputs: Outputs::Med {
                outputs: report.outputs,
                consensus,
            },
        },
        obs: report.obs,
    }
}

/// The layer meters attached to a traced solve.
struct Probe {
    meter: Arc<Meter>,
    topology: Arc<TimedTopology>,
}

impl LibWorkload {
    fn engine(&self) -> Engine {
        Engine::parse(self.engine).expect("workload engines are canonical names")
    }

    fn generate(&self, seed: u64) -> Instance {
        let input = match self.family {
            Family::Med {
                dataset,
                elements_per_node,
            } => Input::Med {
                points: dataset.generate(elements_per_node * self.n, seed),
                optimum: OnceLock::new(),
            },
            Family::PlantedHs {
                elements,
                sets,
                d,
                set_size,
            } => Input::Hs {
                sys: Arc::new(planted_hitting_set(elements, sets, d, set_size, seed).0),
            },
        };
        Instance { seed, input }
    }

    fn configure<M, P: DriverProblem<M>>(
        &self,
        driver: Driver<P, M>,
        seed: u64,
        topology: Arc<dyn Topology>,
        record: bool,
        parallel: bool,
    ) -> Driver<P, M> {
        driver
            .nodes(self.n)
            .seed(seed)
            .algorithm(self.algorithm.clone())
            .fault_model(self.scenario.fault_model())
            .topology(topology)
            .engine(self.engine())
            .record_phases(record)
            .parallel(parallel)
    }

    /// One `Driver::run` (MED) or `Driver::run_ground` (hitting set).
    /// With a probe the run records phases, meters the kernels, and
    /// times the topology build. `parallel` selects the engine's
    /// parallel stepping (taken at n ≥ 4096 with a multi-thread pool).
    fn solve(&self, inst: &Instance, probe: Option<&Probe>, parallel: bool) -> Solved {
        let topology: Arc<dyn Topology> = match probe {
            Some(p) => p.topology.clone(),
            None => self.topology.topology(),
        };
        let record = probe.is_some();
        match &inst.input {
            Input::Med { points, .. } => {
                let report = match probe {
                    None => self
                        .configure(Driver::new(Med), inst.seed, topology, record, parallel)
                        .run(points),
                    Some(p) => self
                        .configure(
                            Driver::new(Metered::new(Med, p.meter.clone())),
                            inst.seed,
                            topology,
                            record,
                            parallel,
                        )
                        .run(points),
                };
                med_trajectory(report.expect("MED workloads are valid driver specs"))
            }
            Input::Hs { sys } => {
                let report = self
                    .configure(
                        Driver::new(sys.clone()),
                        inst.seed,
                        topology,
                        record,
                        parallel,
                    )
                    .run_ground()
                    .expect("hitting-set workloads are valid driver specs");
                Solved {
                    traj: Trajectory {
                        rounds: report.rounds,
                        all_halted: report.all_halted,
                        per_round: report.metrics.rounds,
                        outputs: Outputs::Hs {
                            outputs: report.outputs,
                            size_bound: report.size_bound,
                        },
                    },
                    obs: report.obs,
                }
            }
        }
    }

    /// The warm-up solve of set-up: two rounds of the first instance
    /// (spawns the thread pool and faults in the engine's buffers).
    fn warm_up(&self, inst: &Instance) {
        let topology = self.topology.topology();
        match &inst.input {
            Input::Med { points, .. } => {
                let driver = self.configure(Driver::new(Med), inst.seed, topology, false, true);
                driver
                    .stop(StopCondition::RoundBudget(2))
                    .run(points)
                    .expect("warm-up run");
            }
            Input::Hs { sys } => {
                let driver =
                    self.configure(Driver::new(sys.clone()), inst.seed, topology, false, true);
                driver
                    .stop(StopCondition::RoundBudget(2))
                    .run_ground()
                    .expect("warm-up run");
            }
        }
    }

    /// Set-up: generate the run's inputs and warm up.
    fn setup(&self, seed: u64) -> Vec<Instance> {
        let instances: Vec<Instance> = (0..self.instances)
            .map(|i| self.generate(mix(seed, i as u64 + 1)))
            .collect();
        self.warm_up(&instances[0]);
        instances
    }

    /// The oracle verdict on a solve (on a perturbed copy of the answer
    /// when `negative` is set — the negative control).
    fn check(&self, inst: &Instance, traj: &Trajectory, negative: bool) -> Result<(), String> {
        match (&inst.input, &traj.outputs) {
            (Input::Med { points, optimum }, Outputs::Med { consensus, .. }) => {
                let optimum = optimum.get_or_init(|| oracle::med_optimum(points));
                let answer = if negative {
                    consensus.as_ref().map(oracle::perturb_med)
                } else {
                    consensus.clone()
                };
                oracle::check_med(points, optimum, answer.as_ref())
            }
            (
                Input::Hs { sys },
                Outputs::Hs {
                    outputs,
                    size_bound,
                },
            ) => {
                let bound = size_bound.ok_or("hitting-set report without a size bound")?;
                let answer = if negative {
                    oracle::perturb_hs(outputs)
                } else {
                    outputs.clone()
                };
                oracle::check_hs(sys, traj.all_halted, &answer, bound)
            }
            _ => Err("report does not match its input family".to_string()),
        }
    }

    /// Self-test of the oracle: a perturbed copy of a correct answer
    /// must be rejected.
    fn oracle_rejects_perturbed(&self, inst: &Instance, traj: &Trajectory) -> Result<(), String> {
        match self.check(inst, traj, true) {
            Err(_) => Ok(()),
            Ok(()) => Err("the oracle accepted a perturbed answer".to_string()),
        }
    }

    /// The untraced run: end-to-end metrics.
    pub fn run(&self, seed: u64, window: Duration, negative: bool) -> (Tally, Metrics) {
        let mut setups = Vec::new();
        let mut instances = Vec::new();
        for _ in 0..SETUP_REPS {
            let (inst, d) = timed(|| self.setup(seed));
            setups.push(d.as_secs_f64());
            instances = inst;
        }

        let mut tally = Tally::default();
        let mut firsts: Vec<Option<Trajectory>> = vec![None; instances.len()];
        let mut solve_ms = Vec::new();
        let started = Instant::now();
        'measure: loop {
            for (i, inst) in instances.iter().enumerate() {
                let (solved, d) = timed(|| self.solve(inst, None, true));
                solve_ms.push(ms(d));
                match &firsts[i] {
                    None => {
                        tally.record("oracle", self.check(inst, &solved.traj, negative));
                        if i == 0 {
                            tally.record(
                                "negative control",
                                self.oracle_rejects_perturbed(inst, &solved.traj),
                            );
                        }
                        firsts[i] = Some(solved.traj);
                    }
                    Some(first) => {
                        let same = *first == solved.traj;
                        tally.record(
                            "repeat",
                            if same {
                                Ok(())
                            } else {
                                Err("repeat diverged".into())
                            },
                        );
                    }
                }
                if started.elapsed() >= window && firsts.iter().all(Option::is_some) {
                    break 'measure;
                }
            }
        }

        let trajs: Vec<&Trajectory> = firsts.iter().flatten().collect();
        let rounds: Vec<f64> = trajs.iter().map(|t| t.rounds as f64).collect();
        let ops: u64 = trajs.iter().map(|t| t.ops()).sum();
        let node_rounds: u64 = trajs.iter().map(|t| self.n as u64 * t.rounds).sum();
        let total_s: f64 = solve_ms.iter().sum::<f64>() / 1e3;
        eprintln!(
            "[benchmark] {} solves over {} inputs, ms: {:.0?}",
            solve_ms.len(),
            instances.len(),
            solve_ms
        );

        let mut m = Metrics::default();
        m.put("solve_p50_ms", median(&solve_ms), "ms");
        m.put("rounds_mean", mean(&rounds), "rounds");
        m.put(
            "msgs_per_node_round",
            ops as f64 / node_rounds.max(1) as f64,
            "msgs",
        );
        m.put("ok_frac", tally.ok_frac(), "fraction");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
        m.put("req_per_s", solve_ms.len() as f64 / total_s, "1/s");
        // The library has no cache: every call, a repeat included,
        // computes from scratch, so the hit and cold latencies are the
        // latency of a call (they differ only on serve-mix).
        m.put("hit_p50_us", median(&solve_ms) * 1e3, "us");
        m.put("cold_p50_ms", median(&solve_ms), "ms");
        m.put("cold_p90_ms", quantile(&solve_ms, 0.9), "ms");
        (tally, m)
    }

    /// The traced run: per-layer metrics. Each input is solved untraced
    /// and then traced; the two trajectories must be identical. The
    /// first input is also solved on the sequential path, which must
    /// give the same trajectory and yields the parallel speed-up.
    pub fn trace(&self, seed: u64, window: Duration, negative: bool) -> (Tally, Metrics) {
        let mut generate_ms = Vec::new();
        let instances: Vec<Instance> = (0..self.instances)
            .map(|i| {
                let (inst, d) = timed(|| self.generate(mix(seed, i as u64 + 1)));
                generate_ms.push(ms(d));
                inst
            })
            .collect();
        self.warm_up(&instances[0]);

        let mut tally = Tally::default();
        let mut acc = TraceAcc::default();
        let started = Instant::now();
        for (i, inst) in instances.iter().cycle().enumerate() {
            let cpu0 = util::cpu_seconds();
            let (plain, plain_d) = timed(|| self.solve(inst, None, true));
            acc.cpu_s += util::cpu_seconds() - cpu0;
            acc.plain_ms += ms(plain_d);
            if i == 0 {
                let (seq, seq_d) = timed(|| self.solve(inst, None, false));
                acc.speedup = ms(seq_d) / ms(plain_d);
                tally.record(
                    "sequential run",
                    if seq.traj == plain.traj {
                        Ok(())
                    } else {
                        Err("the sequential trajectory differs from the parallel one".into())
                    },
                );
            }

            acc.scatter_ms += ms(match &inst.input {
                Input::Med { points, .. } => timed(|| scatter(points, self.n, inst.seed)).1,
                Input::Hs { sys } => {
                    let ground: Vec<u32> = (0..sys.n_elements() as u32).collect();
                    timed(|| scatter(&ground, self.n, inst.seed)).1
                }
            });

            let probe = Probe {
                meter: Meter::new(),
                topology: TimedTopology::new(self.topology.topology()),
            };
            let (traced, traced_d) = timed(|| self.solve(inst, Some(&probe), true));
            let same = plain.traj == traced.traj;
            tally.record(
                "traced run",
                if same {
                    Ok(())
                } else {
                    Err("the traced trajectory differs from the untraced one".into())
                },
            );
            tally.record("oracle", self.check(inst, &traced.traj, negative));
            acc.add(
                ms(traced_d),
                &traced,
                probe.meter.totals(),
                probe.topology.build_nanos(),
            );
            if started.elapsed() >= window {
                break;
            }
        }
        let mut m = acc.metrics();
        m.put("workloads.generate_ms", median(&generate_ms), "ms");
        (tally, m)
    }
}

/// Per-layer sums over a traced run's solves.
#[derive(Default)]
struct TraceAcc {
    solves: u64,
    plain_ms: f64,
    cpu_s: f64,
    speedup: f64,
    run_ms: f64,
    scatter_ms: f64,
    topology_ns: u64,
    obs: ObsSummary,
    kernel: crate::metered::KernelTotals,
    pulls: u64,
    pushes: u64,
    dropped: u64,
    delayed: u64,
}

impl TraceAcc {
    fn add(
        &mut self,
        run_ms: f64,
        traced: &Solved,
        kernel: crate::metered::KernelTotals,
        topology_ns: u64,
    ) {
        self.solves += 1;
        self.run_ms += run_ms;
        self.topology_ns += topology_ns;
        if let Some(obs) = &traced.obs {
            self.obs.merge(obs);
        }
        self.kernel += kernel;
        for r in &traced.traj.per_round {
            self.pulls += r.pulls;
            self.pushes += r.pushes;
            self.dropped += r.dropped;
            self.delayed += r.delayed;
        }
    }

    /// Per-solve means of every layer metric.
    fn metrics(&self) -> Metrics {
        let per = |v: f64| v / self.solves.max(1) as f64;
        let phase_ms = |p: Phase| per(self.obs.phase_nanos[p.index()] as f64 / 1e6);
        let engine_ms: f64 = Phase::ALL.iter().map(|&p| phase_ms(p)).sum();
        let run_ms = per(self.run_ms);
        let plain_ms = per(self.plain_ms);
        let k = &self.kernel;
        let mut m = Metrics::default();
        m.put("driver.run_ms", run_ms, "ms");
        m.put("driver.scatter_ms", per(self.scatter_ms), "ms");
        m.put("driver.unattributed_ms", run_ms - engine_ms, "ms");
        m.put(
            "ledger.unattributed_frac",
            (run_ms - engine_ms) / run_ms,
            "fraction",
        );
        m.put(
            "topology.build_ms",
            per(self.topology_ns as f64 / 1e6),
            "ms",
        );
        for (name, p) in [
            ("net.pull_ms", Phase::Pull),
            ("net.serve_ms", Phase::Serve),
            ("net.compute_ms", Phase::Compute),
            ("net.deliver_ms", Phase::Deliver),
            ("net.absorb_ms", Phase::Absorb),
            ("net.refill_ms", Phase::Refill),
            ("event.tick_ms", Phase::Tick),
        ] {
            m.put(name, phase_ms(p), "ms");
        }
        m.put("net.pulls", per(self.pulls as f64), "count");
        m.put("net.pushes", per(self.pushes as f64), "count");
        m.put("net.dropped", per(self.dropped as f64), "count");
        m.put("net.delayed", per(self.delayed as f64), "count");
        m.put(
            "event.pops",
            per(self.obs.counter(Counter::EventPops) as f64),
            "count",
        );
        m.put(
            "event.pops_per_tick_max",
            self.obs.gauge(Gauge::PopsPerTick) as f64,
            "count",
        );
        m.put(
            "event.heap_depth_max",
            self.obs.gauge(Gauge::HeapDepth) as f64,
            "count",
        );
        m.put(
            "event.serialization_stalls",
            per(self.obs.counter(Counter::SerializationStalls) as f64),
            "count",
        );
        m.put(
            "kernel.basis_of_calls",
            per(k.basis_of_calls as f64),
            "count",
        );
        m.put(
            "kernel.violates_calls",
            per(k.violates_calls as f64),
            "count",
        );
        m.put(
            "kernel.violates_hit_ratio",
            k.violates_hits as f64 / k.violates_calls.max(1) as f64,
            "fraction",
        );
        m.put(
            "kernel.basis_of_ms",
            per(k.basis_of_nanos as f64 / 1e6),
            "ms",
        );
        m.put(
            "kernel.violates_ms",
            per(k.violates_nanos as f64 / 1e6),
            "ms",
        );
        m.put(
            "kernel.values_close_calls",
            per(k.values_close_calls as f64),
            "count",
        );
        m.put(
            "kernel.values_close_ms",
            per(k.values_close_nanos as f64 / 1e6),
            "ms",
        );
        m.put(
            "trace.overhead_frac",
            (run_ms - plain_ms) / plain_ms,
            "fraction",
        );
        m.put("proc.cpu_s", per(self.cpu_s), "s");
        m.put(
            "proc.cpu_per_wall",
            self.cpu_s / (self.plain_ms / 1e3),
            "ratio",
        );
        m.put("driver.parallel_speedup", self.speedup, "ratio");
        m
    }
}
