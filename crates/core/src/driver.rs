//! The unified driver: one builder-style entry point for every
//! algorithm of the paper.
//!
//! The paper defines four algorithm families — the Low-Load Clarkson
//! Algorithm (Section 2), the High-Load Clarkson Algorithm and its
//! accelerated variant (Section 3), the distributed hitting-set
//! algorithm (Section 4), and the hypercube-emulated Clarkson baseline
//! (Section 1.1). [`Driver`] runs any of them behind a single API:
//!
//! ```
//! use lpt_gossip::driver::{Algorithm, Driver, StopCondition};
//! use lpt_problems::Med;
//! use lpt_workloads::med::duo_disk;
//!
//! let points = duo_disk(256, 42);
//! let report = Driver::new(Med)
//!     .nodes(256)
//!     .seed(42)
//!     .stop(StopCondition::FullTermination)
//!     .run(&points)
//!     .expect("driver run");
//! let basis = report.consensus_output().expect("all nodes agree");
//! assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
//! ```
//!
//! Selecting an algorithm is one builder call
//! ([`Driver::algorithm`]). Every simulated algorithm then takes one
//! run path: a private `simulate` does the instance scattering, network
//! construction, stop handling, and report assembly, and each protocol
//! only names, in a private `Simulated` impl, what its node state
//! holds (its candidate, the round it first held one, its output). The
//! algorithm × problem compatibility matrix is enforced at run time
//! with a documented [`DriverError`]: LP-type problems accept
//! [`Algorithm::LowLoad`], [`Algorithm::HighLoad`],
//! [`Algorithm::Accelerated`], and [`Algorithm::Hypercube`]; set-system
//! problems (`Arc<SetSystem>`) accept [`Algorithm::HittingSet`].
//!
//! The two problem families are unified by the [`DriverProblem`] trait,
//! which is the seam where future backends (sharded networks, async
//! transports, new problem classes) plug in. A *mode* marker type
//! ([`LpMode`] / [`SetMode`]) keeps the blanket implementation for all
//! [`LpType`] problems coherent with the set-system implementation;
//! callers never name the mode — type inference resolves it from the
//! problem type.

use crate::high_load::{HighLoadClarkson, HighLoadConfig, HighLoadState};
use crate::hitting_set::{HittingSetConfig, HittingSetGossip, HittingSetState};
use crate::hypercube::hypercube_clarkson;
use crate::low_load::{LowLoadClarkson, LowLoadConfig, LowLoadState};
use gossip_sim::event::Engine;
use gossip_sim::fault::{FaultModel, IntoFaultModel};
use gossip_sim::obs::{FlightRecorder, ObsSummary};
use gossip_sim::topology::IntoTopology;
use gossip_sim::{Metrics, Network, NetworkConfig, Protocol, RngSchedule, RunOutcome};
use lpt::{BasisOf, LpType};
use lpt_problems::SetSystem;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Seed mixing
// ---------------------------------------------------------------------------

/// Mixed into the master seed before scattering an instance, so that the
/// scatter stream is independent of the simulator's per-round streams
/// derived from the same seed (ASCII `"scatter"`).
pub const SCATTER_SEED_MIX: u64 = 0x0073_6361_7474_6572;

/// Bit position at which the doubling search mixes the current `d` into
/// the master seed, giving every attempt an independent scatter and
/// simulation while keeping the whole search a function of one seed.
pub const DOUBLING_SEED_SHIFT: u32 = 48;

/// The seed used for the doubling-search attempt at dimension bound `d`.
pub fn doubling_attempt_seed(seed: u64, d: usize) -> u64 {
    seed ^ (d as u64) << DOUBLING_SEED_SHIFT
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a [`Driver`] run could not be performed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverError {
    /// The network has zero nodes (see [`Driver::nodes`] / [`scatter`]).
    NoNodes,
    /// The selected algorithm cannot solve this problem family.
    UnsupportedAlgorithm {
        /// The algorithm that was selected.
        algorithm: &'static str,
        /// The problem family it was asked to solve.
        problem: &'static str,
    },
    /// The selected algorithm does not support this stop condition
    /// (the hypercube baseline always runs to completion).
    UnsupportedStop {
        /// The algorithm that was selected.
        algorithm: &'static str,
    },
    /// A non-perfect fault model was combined with an algorithm that is
    /// computed analytically rather than simulated (the hypercube
    /// baseline), so there is no network to inject faults into.
    UnsupportedFaults {
        /// The algorithm that was selected.
        algorithm: &'static str,
    },
    /// The selected algorithm assumes a specific overlay and cannot run
    /// on the configured topology (the analytic hypercube baseline
    /// charges its rounds against a hypercube, so it accepts only the
    /// default `Complete` or an explicit `Hypercube` topology).
    UnsupportedTopology {
        /// The algorithm that was selected.
        algorithm: &'static str,
        /// The topology it was asked to run on.
        topology: &'static str,
    },
    /// [`Driver::with_doubling_search`] is only meaningful for the
    /// hitting-set algorithm, whose config carries the searched `d`.
    UnsupportedDoubling {
        /// The algorithm that was selected.
        algorithm: &'static str,
    },
    /// The doubling search failed at a `d` beyond twice the ground-set
    /// size — no hitting set can need more elements, so larger `d`
    /// cannot help (the per-attempt round budget is too small for this
    /// instance).
    DoublingDiverged {
        /// The last `d` whose attempt failed.
        d: usize,
    },
    /// The doubling search was combined with
    /// [`StopCondition::RoundBudget`]: an attempt's success is judged
    /// by termination or a reached target, which a round budget never
    /// signals, so every attempt would count as a failure.
    DoublingNeedsTermination,
    /// [`Driver::run_ground`] was called on a problem family whose
    /// elements live outside the problem description (LP-type problems
    /// take their constraint set as an explicit argument to
    /// [`Driver::run`]).
    NoGroundElements {
        /// The problem family.
        problem: &'static str,
    },
    /// A sequential solver inside the run failed.
    Solver(String),
    /// A non-default execution engine was combined with an algorithm
    /// that is computed analytically rather than simulated (the
    /// hypercube baseline), so there is no network to schedule events
    /// for.
    UnsupportedEngine {
        /// The algorithm that was selected.
        algorithm: &'static str,
    },
    /// The run was cancelled cooperatively via [`Driver::cancel_flag`]
    /// (checked between rounds, so cancellation is prompt but never
    /// tears a round in half). The partial state is discarded — a
    /// cancelled run produces no report, which is what keeps every
    /// *emitted* report a pure function of its spec.
    Cancelled,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoNodes => write!(f, "the network must have at least one node"),
            DriverError::UnsupportedAlgorithm { algorithm, problem } => {
                write!(f, "algorithm {algorithm} cannot solve {problem} problems")
            }
            DriverError::UnsupportedStop { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm} only supports StopCondition::FullTermination"
                )
            }
            DriverError::UnsupportedFaults { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm} is computed analytically and cannot \
                     simulate a non-perfect fault model"
                )
            }
            DriverError::UnsupportedTopology {
                algorithm,
                topology,
            } => {
                write!(
                    f,
                    "algorithm {algorithm} assumes a hypercube overlay and cannot \
                     run on the {topology} topology"
                )
            }
            DriverError::UnsupportedDoubling { algorithm } => {
                write!(f, "doubling search is only supported for the hitting-set algorithm (got {algorithm})")
            }
            DriverError::DoublingDiverged { d } => {
                write!(
                    f,
                    "doubling search failed at d = {d}, beyond twice the ground-set size; \
                     increase the round budget factor"
                )
            }
            DriverError::DoublingNeedsTermination => {
                write!(
                    f,
                    "doubling search cannot run under StopCondition::RoundBudget — \
                     a budgeted attempt never signals whether d was large enough"
                )
            }
            DriverError::NoGroundElements { problem } => {
                write!(
                    f,
                    "{problem} problems have no intrinsic ground elements; use Driver::run"
                )
            }
            DriverError::Solver(msg) => write!(f, "sequential solver failed: {msg}"),
            DriverError::Cancelled => write!(f, "run cancelled before completion"),
            DriverError::UnsupportedEngine { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm} is computed analytically and cannot \
                     run under a non-default execution engine"
                )
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Stable wire identity (`specs/structured-errors` style): codes `101`
/// – `112`, kinds matching the variant names in kebab case. Codes are
/// part of the wire contract of `lpt-server` and are never renumbered;
/// new variants take fresh codes.
impl gossip_sim::export::ErrorCode for DriverError {
    fn code(&self) -> u16 {
        match self {
            DriverError::NoNodes => 101,
            DriverError::UnsupportedAlgorithm { .. } => 102,
            DriverError::UnsupportedStop { .. } => 103,
            DriverError::UnsupportedFaults { .. } => 104,
            DriverError::UnsupportedTopology { .. } => 105,
            DriverError::UnsupportedDoubling { .. } => 106,
            DriverError::DoublingDiverged { .. } => 107,
            DriverError::DoublingNeedsTermination => 108,
            DriverError::NoGroundElements { .. } => 109,
            DriverError::Solver(_) => 110,
            DriverError::Cancelled => 111,
            DriverError::UnsupportedEngine { .. } => 112,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            DriverError::NoNodes => "no-nodes",
            DriverError::UnsupportedAlgorithm { .. } => "unsupported-algorithm",
            DriverError::UnsupportedStop { .. } => "unsupported-stop",
            DriverError::UnsupportedFaults { .. } => "unsupported-faults",
            DriverError::UnsupportedTopology { .. } => "unsupported-topology",
            DriverError::UnsupportedDoubling { .. } => "unsupported-doubling",
            DriverError::DoublingDiverged { .. } => "doubling-diverged",
            DriverError::DoublingNeedsTermination => "doubling-needs-termination",
            DriverError::NoGroundElements { .. } => "no-ground-elements",
            DriverError::Solver(_) => "solver",
            DriverError::Cancelled => "cancelled",
            DriverError::UnsupportedEngine { .. } => "unsupported-engine",
        }
    }
}

// ---------------------------------------------------------------------------
// Scattering
// ---------------------------------------------------------------------------

/// Scatters elements over `n` nodes uniformly and independently at
/// random (the paper's initial distribution assumption, Section 1.4).
///
/// # Errors
/// Returns [`DriverError::NoNodes`] when `n == 0`: there is no node to
/// place elements on, and silently returning an empty partition would
/// hide the configuration mistake from the caller.
pub fn scatter<E: Clone>(elements: &[E], n: usize, seed: u64) -> Result<Vec<Vec<E>>, DriverError> {
    if n == 0 {
        return Err(DriverError::NoNodes);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SCATTER_SEED_MIX);
    let mut out = vec![Vec::new(); n];
    for e in elements {
        out[rng.gen_range(0..n)].push(e.clone());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Algorithm selection
// ---------------------------------------------------------------------------

/// Which of the paper's algorithms a [`Driver`] runs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Algorithm {
    /// The Low-Load Clarkson Algorithm (Algorithms 2–4, Theorem 3).
    LowLoad(LowLoadConfig),
    /// The High-Load Clarkson Algorithm (Algorithm 5, Theorem 4).
    HighLoad(HighLoadConfig),
    /// The accelerated High-Load variant (Section 3.1): `C = ⌈log^ε n⌉`
    /// basis pushes per round, resolved against the network size at run
    /// time.
    Accelerated {
        /// The exponent `ε` in `C = ⌈log2(n)^ε⌉`.
        epsilon: f64,
    },
    /// The hypercube-emulated Clarkson baseline (Section 1.1). Runs to
    /// completion analytically; only [`StopCondition::FullTermination`]
    /// is supported, and the report's metrics are empty (its round count
    /// is charged, not simulated).
    Hypercube,
    /// The distributed hitting-set algorithm (Algorithm 6, Theorem 5).
    HittingSet(HittingSetConfig),
}

impl Algorithm {
    /// Low-Load with the paper's default knobs.
    pub fn low_load() -> Self {
        Algorithm::LowLoad(LowLoadConfig::default())
    }

    /// High-Load with the paper's default knobs (`C = 1`).
    pub fn high_load() -> Self {
        Algorithm::HighLoad(HighLoadConfig::default())
    }

    /// The accelerated High-Load variant with exponent `epsilon`.
    pub fn accelerated(epsilon: f64) -> Self {
        Algorithm::Accelerated { epsilon }
    }

    /// Hitting set with (an upper bound on) the optimum size `d`.
    pub fn hitting_set(d: usize) -> Self {
        Algorithm::HittingSet(HittingSetConfig::new(d))
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::LowLoad(_) => "low-load",
            Algorithm::HighLoad(_) => "high-load",
            Algorithm::Accelerated { .. } => "accelerated",
            Algorithm::Hypercube => "hypercube",
            Algorithm::HittingSet(_) => "hitting-set",
        }
    }
}

// ---------------------------------------------------------------------------
// Stop conditions
// ---------------------------------------------------------------------------

/// A live view of the network handed to [`StopCondition::Custom`]
/// predicates after every simulated round.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Rounds simulated so far.
    pub round: u64,
    /// Network size.
    pub n: usize,
    /// Nodes that have output and halted.
    pub halted: u64,
    /// Nodes currently holding a candidate solution (a sampled basis
    /// with no local violators, a local basis, or a verified hitting
    /// set, depending on the algorithm).
    pub with_candidate: usize,
}

/// When a [`Driver`] run stops.
#[derive(Clone)]
pub enum StopCondition<T> {
    /// Run until every node has output and halted (the algorithms'
    /// actual termination, including the network-wide audit).
    FullTermination,
    /// Stop as soon as any node *holds* a candidate matching the target
    /// — the paper's Section 5 measurement ("rounds until at least one
    /// node found the solution", excluding the input-independent
    /// termination phase). For LP-type problems the target is a
    /// [`LpType::Value`] compared under the problem's tolerance; for
    /// hitting set it is a maximum acceptable set size.
    FirstSolution(T),
    /// Stop after exactly this many rounds (unless the network halts
    /// first). Unlike [`Driver::max_rounds`] — the safety valve that
    /// marks a run as incomplete — exhausting a round budget is an
    /// expected outcome ([`StopCause::RoundBudget`]).
    RoundBudget(u64),
    /// Stop when the predicate returns `true` (checked after every
    /// round).
    Custom(Arc<dyn Fn(&Progress) -> bool + Send + Sync>),
}

impl<T: fmt::Debug> fmt::Debug for StopCondition<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCondition::FullTermination => write!(f, "FullTermination"),
            StopCondition::FirstSolution(t) => f.debug_tuple("FirstSolution").field(t).finish(),
            StopCondition::RoundBudget(r) => f.debug_tuple("RoundBudget").field(r).finish(),
            StopCondition::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Why a run ended (recorded in [`RunReport::stop_cause`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// Every node output and halted.
    AllHalted,
    /// A [`StopCondition::FirstSolution`] target was reached.
    TargetReached,
    /// A [`StopCondition::RoundBudget`] was used up.
    RoundBudget,
    /// A [`StopCondition::Custom`] predicate fired.
    CustomStop,
    /// The [`Driver::max_rounds`] safety valve tripped before the stop
    /// condition was satisfied.
    MaxRounds,
}

impl StopCause {
    /// Stable kebab-case name, used verbatim in exported summaries and
    /// on the server wire (never renamed).
    pub fn name(self) -> &'static str {
        match self {
            StopCause::AllHalted => "all-halted",
            StopCause::TargetReached => "target-reached",
            StopCause::RoundBudget => "round-budget",
            StopCause::CustomStop => "custom-stop",
            StopCause::MaxRounds => "max-rounds",
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Trace of a [`Driver::with_doubling_search`] run.
#[derive(Clone, Debug)]
pub struct DoublingReport {
    /// The `d` value that succeeded.
    pub d_used: usize,
    /// The `d` values that were tried, in order.
    pub attempts: Vec<usize>,
    /// Total simulated rounds across all attempts (failed ones
    /// included); the successful attempt's own rounds are
    /// [`RunReport::rounds`].
    pub total_rounds: u64,
}

/// What the fault model cost a run (all zeros under the default
/// [`Perfect`](gossip_sim::fault::Perfect) network); the per-round
/// breakdown is in [`RunReport::metrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSummary {
    /// Name of the fault model the run was simulated under.
    pub model: &'static str,
    /// Messages lost to the fault model (dropped responses, dropped
    /// pushes, and deliveries to offline nodes).
    pub messages_dropped: u64,
    /// Pushes the fault model delivered late.
    pub messages_delayed: u64,
    /// Node-rounds lost to downtime (one per node per round offline).
    pub offline_node_rounds: u64,
}

impl Default for FaultSummary {
    fn default() -> Self {
        FaultSummary {
            model: "perfect",
            messages_dropped: 0,
            messages_delayed: 0,
            offline_node_rounds: 0,
        }
    }
}

impl FaultSummary {
    fn from_metrics(model: &dyn FaultModel, metrics: &Metrics) -> Self {
        FaultSummary {
            model: model.name(),
            messages_dropped: metrics.total_dropped(),
            messages_delayed: metrics.total_delayed(),
            offline_node_rounds: metrics.offline_node_rounds(),
        }
    }
}

/// How a run was *executed*: the explicit record of the engine's
/// seq/par decision.
///
/// Execution metadata only — by the engine's byte-identity contract
/// the same spec produces the same outputs, metrics, and wire bytes
/// whatever this says, so it is deliberately excluded from the
/// server's reply rendering and cache key. It exists to make the
/// decision auditable: `parallel(true)` with a one-worker pool (or
/// `n` under the threshold) used to be silently indistinguishable
/// from real parallel execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecInfo {
    /// Threads the round engine's parallel path actually used
    /// (the ambient rayon pool's size, or 1 on the sequential path).
    pub threads: usize,
    /// Whether the parallel path was taken at all: requested by the
    /// spec, `n` at or above the threshold, *and* a multi-thread pool.
    pub parallel: bool,
}

impl ExecInfo {
    /// Execution with `threads` effective threads (`parallel` iff more
    /// than one).
    pub fn from_threads(threads: usize) -> Self {
        ExecInfo {
            threads,
            parallel: threads > 1,
        }
    }

    /// Sequential execution (also the analytic hypercube baseline,
    /// which steps no network at all).
    pub fn sequential() -> Self {
        ExecInfo::from_threads(1)
    }
}

/// Report of a [`Driver`] run, polymorphic over the per-node output
/// type: [`BasisOf<P>`] for LP-type problems, `Vec<u32>` for hitting
/// set.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Per-node outputs (`None` if a node never halted — possible only
    /// when the run stopped before full termination).
    pub outputs: Vec<Option<O>>,
    /// Rounds simulated.
    pub rounds: u64,
    /// Whether every node output and halted.
    pub all_halted: bool,
    /// Why the run ended.
    pub stop_cause: StopCause,
    /// Earliest round at which any node first held a candidate solution
    /// (Low-Load: an audited-candidate basis; hitting set: a verified
    /// hitting set, also exposed as [`RunReport::first_found_round`];
    /// High-Load and hypercube: `None`).
    pub first_candidate_round: Option<u64>,
    /// The hitting-set protocol's sample size `r` (the Theorem 5 size
    /// bound); `None` for the other algorithms.
    pub size_bound: Option<usize>,
    /// Doubling-search trace, when [`Driver::with_doubling_search`] was
    /// used.
    pub doubling: Option<DoublingReport>,
    /// What the fault model cost the run (zeros under
    /// [`Perfect`](gossip_sim::fault::Perfect); for a doubling search,
    /// the successful attempt's costs).
    pub faults: FaultSummary,
    /// Communication metrics, one entry per simulated round (empty for
    /// the analytic hypercube baseline).
    pub metrics: Metrics,
    /// The versioned randomness schedule that produced this run.
    /// Trajectory-level numbers (rounds, op counts, metrics) are only
    /// comparable between reports carrying the same schedule tag;
    /// outcome-level facts (solution validity, termination) are
    /// schedule-invariant.
    pub schedule: RngSchedule,
    /// Name of the communication topology the run gossiped over
    /// (`"complete"` unless [`Driver::topology`] installed an overlay);
    /// recorded like `schedule` and `faults` so reports are only
    /// compared within one topology.
    pub topology: &'static str,
    /// How the run executed (effective thread count and whether the
    /// parallel path was taken). Unlike every field above, this is
    /// *not* part of the deterministic payload: reports for the same
    /// spec differ only here across pool sizes, and the server never
    /// renders it on the wire (cache exactness).
    pub exec: ExecInfo,
    /// Observability summary of the run — per-phase wall-clock spans and
    /// engine counters from an attached [`FlightRecorder`] — when the
    /// run was built with [`Driver::record_phases`] (`None` otherwise,
    /// and always `None` for the analytic hypercube baseline, which
    /// steps no network). Like [`RunReport::exec`], this is *not* part
    /// of the deterministic payload: wall times vary across machines,
    /// so the server never renders them into cached reply bytes — they
    /// travel only in explicitly requested `trace` frames.
    pub obs: Option<ObsSummary>,
    consensus: Option<O>,
}

impl<O> RunReport<O> {
    /// The common output of all nodes, if the run terminated and every
    /// node output a value equal (up to the problem's tolerance) to the
    /// first node's.
    pub fn consensus_output(&self) -> Option<&O> {
        self.consensus.as_ref()
    }

    /// Whether a [`StopCondition::FirstSolution`] target was reached.
    pub fn reached(&self) -> bool {
        matches!(self.stop_cause, StopCause::TargetReached)
    }

    /// Alias of [`RunReport::first_candidate_round`] under the
    /// hitting-set algorithm's vocabulary.
    pub fn first_found_round(&self) -> Option<u64> {
        self.first_candidate_round
    }
}

impl<O: fmt::Debug> RunReport<O> {
    /// The report's deterministic payload as one canonical string: the
    /// `Debug` form of every field except [`RunReport::exec`] and
    /// [`RunReport::obs`], which describe how the run executed rather
    /// than what it computed. Equal specs yield equal canonical forms
    /// across reruns, thread counts and engines that replay each other
    /// (`event-unit` and round-sync) — the form byte-identity
    /// assertions compare.
    pub fn canonical(&self) -> String {
        // Destructured in full, so a new field must be sorted into the
        // payload or out of it here.
        let RunReport {
            outputs,
            rounds,
            all_halted,
            stop_cause,
            first_candidate_round,
            size_bound,
            doubling,
            faults,
            metrics,
            schedule,
            topology,
            exec: _,
            obs: _,
            consensus,
        } = self;
        format!(
            "RunReport {{ outputs: {outputs:?}, rounds: {rounds:?}, all_halted: {all_halted:?}, \
             stop_cause: {stop_cause:?}, first_candidate_round: {first_candidate_round:?}, \
             size_bound: {size_bound:?}, doubling: {doubling:?}, faults: {faults:?}, \
             metrics: {metrics:?}, schedule: {schedule:?}, topology: {topology:?}, \
             consensus: {consensus:?} }}"
        )
    }
}

impl RunReport<Vec<u32>> {
    /// The smallest output hitting set (all outputs are valid; they may
    /// differ across nodes). Ties break lexicographically so the choice
    /// is deterministic.
    pub fn best_output(&self) -> Option<&Vec<u32>> {
        self.outputs.iter().flatten().min_by(|a, b| {
            a.len()
                .cmp(&b.len())
                .then_with(|| a.as_slice().cmp(b.as_slice()))
        })
    }
}

// ---------------------------------------------------------------------------
// The DriverProblem seam
// ---------------------------------------------------------------------------

/// Mode marker: the problem is an [`LpType`] instance solved by the
/// Clarkson-style algorithms.
#[derive(Clone, Copy, Debug)]
pub struct LpMode;

/// Mode marker: the problem is a set system solved by the hitting-set
/// algorithm.
#[derive(Clone, Copy, Debug)]
pub struct SetMode;

/// A problem family the unified [`Driver`] can run.
///
/// `M` is a mode marker ([`LpMode`] or [`SetMode`]) that exists only to
/// keep the blanket implementation for all [`LpType`] problems coherent
/// with the set-system implementation; exactly one implementation
/// applies to any problem type, so inference always resolves `M`.
///
/// This trait is the extension seam of the crate: a sharded or async
/// backend implements `execute` differently; a new problem family adds
/// a mode.
pub trait DriverProblem<M>: Sized {
    /// The element type scattered over the network.
    type Element: Clone + Send + Sync;
    /// The per-node output type carried by [`RunReport`].
    type Output: Clone;
    /// The [`StopCondition::FirstSolution`] target type.
    type Target: Clone;

    /// Display name of the problem family (used in errors).
    fn problem_kind(&self) -> &'static str;

    /// The algorithm a [`Driver`] runs when none was selected with
    /// [`Driver::algorithm`].
    fn default_algorithm(&self) -> Algorithm;

    /// The doubling-search budget factor a [`Driver`] uses when none of
    /// [`Driver::algorithm`] / [`Driver::with_doubling_search`] was
    /// called. Set systems default to the doubling search (the optimum
    /// size is rarely known up front; a fixed `d = 1` would silently
    /// burn the whole round budget on most instances); `None` elsewhere.
    fn default_doubling(&self) -> Option<f64> {
        None
    }

    /// The problem's intrinsic ground-element set, if it has one
    /// (hitting set: `0..n_elements`). Used by [`Driver::run_ground`].
    fn ground_elements(&self) -> Option<Vec<Self::Element>> {
        None
    }

    /// Runs `driver`'s configuration (whose problem is `self`) on the
    /// given elements. [`Driver::run`] has already rejected `n == 0`.
    fn execute(
        &self,
        driver: &Driver<Self, M>,
        elements: &[Self::Element],
    ) -> Result<RunReport<Self::Output>, DriverError>;
}

// ---------------------------------------------------------------------------
// The Driver builder
// ---------------------------------------------------------------------------

/// Builder-style driver for one distributed run. See the
/// [module docs](self) for an example, and [`DriverProblem`] for the
/// problem families it accepts.
#[derive(Clone)]
pub struct Driver<P: DriverProblem<M>, M = LpMode> {
    problem: P,
    n: usize,
    /// `None` until [`Driver::algorithm`] is called; resolved against
    /// the problem family's default at run time.
    algorithm: Option<Algorithm>,
    stop: StopCondition<P::Target>,
    max_rounds: u64,
    doubling: Option<f64>,
    /// Seed, parallel stepping, fault model, schedule, topology and
    /// engine: every simulated network is built from a clone of it.
    net: NetworkConfig,
    record_phases: bool,
    cancel: Option<Arc<AtomicBool>>,
    _mode: PhantomData<fn() -> M>,
}

impl<M, P: DriverProblem<M>> fmt::Debug for Driver<P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Driver")
            .field("problem", &self.problem.problem_kind())
            .field("n", &self.n)
            .field("algorithm", &self.algorithm)
            .field("max_rounds", &self.max_rounds)
            .field("doubling", &self.doubling)
            .field("net", &self.net)
            .field("record_phases", &self.record_phases)
            .finish_non_exhaustive()
    }
}

impl<M, P: DriverProblem<M>> Driver<P, M> {
    /// Creates a driver for `problem` with the defaults: 1 node, seed 0,
    /// the problem family's default algorithm (LP-type: Low-Load;
    /// set system: hitting set under the doubling search), full
    /// termination, a 20 000-round safety valve, parallel stepping
    /// enabled, the perfect (fault-free) network, the default
    /// [`RngSchedule`], and the complete topology.
    pub fn new(problem: P) -> Self {
        Driver {
            problem,
            n: 1,
            algorithm: None,
            stop: StopCondition::FullTermination,
            max_rounds: 20_000,
            doubling: None,
            net: NetworkConfig::with_seed(0),
            record_phases: false,
            cancel: None,
            _mode: PhantomData,
        }
    }

    /// Sets the network size.
    #[must_use = "builder methods return the updated driver"]
    pub fn nodes(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the master seed; the run is a deterministic function of
    /// (problem, elements, nodes, algorithm, stop, seed).
    #[must_use = "builder methods return the updated driver"]
    pub fn seed(mut self, seed: u64) -> Self {
        self.net.seed = seed;
        self
    }

    /// Selects the algorithm.
    #[must_use = "builder methods return the updated driver"]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the stop condition.
    #[must_use = "builder methods return the updated driver"]
    pub fn stop(mut self, stop: StopCondition<P::Target>) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the safety valve on simulated rounds (default 20 000).
    #[must_use = "builder methods return the updated driver"]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables or disables Rayon-parallel node stepping (default on;
    /// results are identical either way).
    #[must_use = "builder methods return the updated driver"]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.net.parallel = parallel;
        self
    }

    /// Sets the minimum network size at which nodes are stepped with
    /// Rayon (default: the simulator's 4096). Results are identical at
    /// any threshold; tune it when profiling shows the fork/join
    /// overhead dominating small networks.
    #[must_use = "builder methods return the updated driver"]
    pub fn parallel_threshold(mut self, threshold: usize) -> Self {
        self.net.parallel_threshold = threshold;
        self
    }

    /// Simulates the run under a fault model (message loss, churn,
    /// delivery delay — see [`gossip_sim::fault`] for the built-ins;
    /// default: the perfect network). The run stays a deterministic
    /// function of (problem, elements, nodes, algorithm, stop, seed,
    /// fault model), and [`RunReport::faults`] reports what the model
    /// cost. Not supported by the analytic [`Algorithm::Hypercube`]
    /// baseline ([`DriverError::UnsupportedFaults`]).
    #[must_use = "builder methods return the updated driver"]
    pub fn fault_model(mut self, fault: impl IntoFaultModel) -> Self {
        self.net.fault = fault.into_fault_model();
        self
    }

    /// Gossips over a communication topology instead of the paper's
    /// complete graph (see [`gossip_sim::topology`] for the built-ins:
    /// hypercube, seeded random-regular, ring, 2-D torus). Every pull
    /// target and push destination is then drawn uniformly from the
    /// drawing node's neighbor set; the run stays a deterministic
    /// function of (problem, elements, nodes, algorithm, stop, seed,
    /// fault model, schedule, topology), and [`RunReport::topology`]
    /// records the overlay. The analytic [`Algorithm::Hypercube`]
    /// baseline accepts only the default complete topology or an
    /// explicit [`gossip_sim::topology::Hypercube`]
    /// ([`DriverError::UnsupportedTopology`] otherwise).
    #[must_use = "builder methods return the updated driver"]
    pub fn topology(mut self, topology: impl IntoTopology) -> Self {
        self.net.topology = topology.into_topology();
        self
    }

    /// Selects the versioned randomness schedule the simulated network
    /// draws under (default: [`RngSchedule::V2Batched`]).
    ///
    /// [`RngSchedule::V1Compat`] reproduces pre-schedule trajectories
    /// bit-for-bit (the pinned-trajectory tests run under it); the
    /// default batched schedule is faster and equally deterministic but
    /// follows a different bitstream. [`RunReport::schedule`] records
    /// which schedule produced a report.
    #[must_use = "builder methods return the updated driver"]
    pub fn rng_schedule(mut self, schedule: RngSchedule) -> Self {
        self.net.schedule = schedule;
        self
    }

    /// Enables the doubling search on the unknown minimum-hitting-set
    /// size (the paper's Section 1.4 remark): the run starts at `d = 1`
    /// and doubles whenever it does not terminate within
    /// `round_budget_factor · d · log2 n` rounds. Since the bounds
    /// depend at least linearly on `d`, the doubling adds only a
    /// constant factor. Only meaningful with [`Algorithm::HittingSet`]
    /// (other algorithms report [`DriverError::UnsupportedDoubling`]),
    /// and incompatible with [`StopCondition::RoundBudget`]
    /// ([`DriverError::DoublingNeedsTermination`]). The per-attempt
    /// budget is derived from this factor alone — [`Driver::max_rounds`]
    /// does not cap attempts, since freezing the budget would make
    /// doubling `d` useless.
    #[must_use = "builder methods return the updated driver"]
    pub fn with_doubling_search(mut self, round_budget_factor: f64) -> Self {
        self.doubling = Some(round_budget_factor);
        self
    }

    /// Selects the execution engine the simulated network is stepped
    /// with (default: [`Engine::RoundSync`], the paper's synchronous
    /// model). `Engine::EventDriven(LinkPlan::unit())` runs the
    /// discrete-event scheduler in its degenerate unit-latency schedule
    /// and is byte-identical to the default; other link plans give
    /// every edge its own latency/loss and make rounds genuinely
    /// asynchronous (see [`gossip_sim::event`]). Not supported by the
    /// analytic [`Algorithm::Hypercube`] baseline
    /// ([`DriverError::UnsupportedEngine`]).
    #[must_use = "builder methods return the updated driver"]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.net.engine = engine;
        self
    }

    /// Attaches a [`FlightRecorder`] to the simulated network and
    /// surfaces its summary (per-phase wall-clock histograms, engine
    /// counters, event-queue high-water marks) in [`RunReport::obs`]. Off by
    /// default — the no-op recorder path is provably free (the
    /// steady-state allocation test runs through it) and the pinned
    /// trajectories are byte-identical either way, because the recorder
    /// only *reads* values the engine computed anyway and its wall
    /// times never feed back into protocol state. The analytic
    /// [`Algorithm::Hypercube`] baseline steps no network and reports
    /// `obs: None` regardless of this flag.
    #[must_use = "builder methods return the updated driver"]
    pub fn record_phases(mut self, record: bool) -> Self {
        self.record_phases = record;
        self
    }

    /// Installs a cooperative cancellation flag: the run loop checks it
    /// between simulated rounds and, once it reads `true`, abandons the
    /// run with [`DriverError::Cancelled`] instead of producing a
    /// report. The flag is typically set from another thread (a request
    /// deadline, a shutdown path); a run whose flag is never set is
    /// byte-identical to one configured without a flag, so installing
    /// one costs nothing deterministically. The analytic
    /// [`Algorithm::Hypercube`] baseline checks the flag only once,
    /// before solving.
    #[must_use = "builder methods return the updated driver"]
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The problem this driver runs.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Runs the configured algorithm on `elements`.
    pub fn run(&self, elements: &[P::Element]) -> Result<RunReport<P::Output>, DriverError> {
        if self.n == 0 {
            return Err(DriverError::NoNodes);
        }
        self.problem.execute(self, elements)
    }

    /// Runs on the problem's intrinsic ground-element set (hitting set:
    /// the elements `0..n_elements`). Errors with
    /// [`DriverError::NoGroundElements`] for problem families whose
    /// elements live outside the problem description.
    pub fn run_ground(&self) -> Result<RunReport<P::Output>, DriverError> {
        let ground = self
            .problem
            .ground_elements()
            .ok_or(DriverError::NoGroundElements {
                problem: self.problem.problem_kind(),
            })?;
        self.run(&ground)
    }

    /// The selected algorithm, or the problem family's default.
    fn resolved_algorithm(&self) -> Algorithm {
        self.algorithm
            .clone()
            .unwrap_or_else(|| self.problem.default_algorithm())
    }

    /// The doubling-search factor. Out of the box (no explicit
    /// algorithm or doubling choice), problem families may opt into the
    /// doubling search.
    fn resolved_doubling(&self) -> Option<f64> {
        match self.algorithm {
            Some(_) => self.doubling,
            None => self.doubling.or_else(|| self.problem.default_doubling()),
        }
    }

    /// Whether a cancel flag is installed and raised.
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// The one simulated run path
// ---------------------------------------------------------------------------

/// What [`simulate`] reads from a gossip protocol beyond [`Protocol`]:
/// how a node starts from its scattered elements, and which parts of
/// its state the stop conditions and the report look at. The protocols
/// differ only here.
trait Simulated: Protocol {
    /// The element type scattered over the network.
    type Element;
    /// A node's candidate and output type.
    type Output;

    /// The state of a node that starts out holding `elements`.
    fn initial(&self, elements: Vec<Self::Element>) -> Self::State;

    /// The candidate solution a node currently holds: what
    /// [`StopCondition::FirstSolution`] tests and
    /// [`Progress::with_candidate`] counts.
    fn candidate(state: &Self::State) -> Option<&Self::Output>;

    /// The round at which a node first held a candidate, for
    /// [`RunReport::first_candidate_round`] (`None` if the protocol
    /// does not record it).
    fn candidate_round(_state: &Self::State) -> Option<u64> {
        None
    }

    /// A node's final output, once decided.
    fn output(state: &Self::State) -> Option<&Self::Output>;
}

impl<P: LpType + Sync> Simulated for LowLoadClarkson<P> {
    type Element = P::Element;
    type Output = BasisOf<P>;

    fn initial(&self, elements: Vec<P::Element>) -> LowLoadState<P> {
        self.initial_state(elements)
    }

    fn candidate(state: &LowLoadState<P>) -> Option<&BasisOf<P>> {
        state.candidate.as_deref()
    }

    fn candidate_round(state: &LowLoadState<P>) -> Option<u64> {
        state.candidate_round
    }

    fn output(state: &LowLoadState<P>) -> Option<&BasisOf<P>> {
        state.output.as_ref()
    }
}

impl<P: LpType + Sync> Simulated for HighLoadClarkson<P> {
    type Element = P::Element;
    type Output = BasisOf<P>;

    fn initial(&self, elements: Vec<P::Element>) -> HighLoadState<P> {
        self.initial_state(elements)
    }

    fn candidate(state: &HighLoadState<P>) -> Option<&BasisOf<P>> {
        state.local_basis.as_deref()
    }

    fn output(state: &HighLoadState<P>) -> Option<&BasisOf<P>> {
        state.output.as_ref()
    }
}

impl Simulated for HittingSetGossip {
    type Element = u32;
    type Output = Vec<u32>;

    fn initial(&self, elements: Vec<u32>) -> HittingSetState {
        self.initial_state(elements)
    }

    fn candidate(state: &HittingSetState) -> Option<&Vec<u32>> {
        state.best.as_deref()
    }

    fn candidate_round(state: &HittingSetState) -> Option<u64> {
        state.found_round
    }

    fn output(state: &HittingSetState) -> Option<&Vec<u32>> {
        state.output.as_ref()
    }
}

/// Runs `proto` as `driver` configures: scatters `elements`, builds the
/// network, steps it under the stop condition and assembles the report.
/// `reached` tells whether a candidate meets a
/// [`StopCondition::FirstSolution`] target, and `same` whether a node's
/// output agrees with the first node's (for the consensus).
fn simulate<P, M, Pr>(
    driver: &Driver<P, M>,
    proto: Pr,
    elements: &[P::Element],
    reached: impl Fn(&P::Output, &P::Target) -> bool,
    same: impl Fn(&P::Output, &P::Output) -> bool,
) -> Result<RunReport<P::Output>, DriverError>
where
    P: DriverProblem<M>,
    Pr: Simulated<Element = P::Element, Output = P::Output>,
{
    let states = scatter(elements, driver.n, driver.net.seed)?
        .into_iter()
        .map(|part| proto.initial(part))
        .collect();
    let mut net = Network::new(proto, states, driver.net.clone());
    if driver.record_phases {
        net.set_recorder(Box::new(FlightRecorder::new()));
    }
    let (outcome, cause) = drive(&mut net, driver, reached)?;
    let outputs: Vec<_> = net
        .states()
        .iter()
        .map(|s| Pr::output(s).cloned())
        .collect();
    Ok(RunReport {
        consensus: consensus(&outputs, same),
        outputs,
        rounds: outcome.rounds(),
        all_halted: outcome.all_halted(),
        stop_cause: cause,
        first_candidate_round: net.states().iter().filter_map(Pr::candidate_round).min(),
        size_bound: None,
        doubling: None,
        faults: FaultSummary::from_metrics(driver.net.fault.as_ref(), net.metrics()),
        metrics: stamped_metrics(net.metrics(), &outcome, cause),
        schedule: driver.net.schedule,
        topology: driver.net.topology.name(),
        exec: ExecInfo::from_threads(net.effective_parallelism()),
        obs: net.recorder().summary(),
    })
}

/// Steps `net` under the driver's stop condition, returning the outcome
/// and its cause, or [`DriverError::Cancelled`] if the cancel flag was
/// raised mid-run.
///
/// Cancellation is cooperative: the flag is checked between rounds
/// (folded into the engine's stop predicate), so a raised flag ends the
/// run at the next round boundary. An installed-but-never-raised flag
/// cannot perturb the trajectory — the engine's RNG streams are derived
/// from (seed, round, node, phase) alone and the predicate only reads
/// network state — so the `None` and unraised-`Some` paths are
/// byte-identical.
fn drive<P, M, Pr>(
    net: &mut Network<Pr>,
    driver: &Driver<P, M>,
    reached: impl Fn(&P::Output, &P::Target) -> bool,
) -> Result<(RunOutcome, StopCause), DriverError>
where
    P: DriverProblem<M>,
    Pr: Simulated<Output = P::Output>,
{
    if driver.cancelled() {
        return Err(DriverError::Cancelled);
    }
    let (stop, max_rounds) = (&driver.stop, driver.max_rounds);
    // Pre-reserve the per-round metrics log (the only engine container
    // that grows while running) so driver runs stay allocation-free in
    // steady state; capped so absurd round budgets cannot pre-allocate
    // unbounded memory.
    net.reserve_rounds(max_rounds.min(4096) as usize);
    let limit = match stop {
        StopCondition::RoundBudget(budget) => (*budget).min(max_rounds),
        _ => max_rounds,
    };
    let outcome = net.run_until(limit, |net| {
        driver.cancelled()
            || match stop {
                StopCondition::FullTermination | StopCondition::RoundBudget(_) => false,
                StopCondition::FirstSolution(target) => net
                    .states()
                    .iter()
                    .any(|s| Pr::candidate(s).is_some_and(|c| reached(c, target))),
                StopCondition::Custom(pred) => pred(&Progress {
                    round: net.round_index(),
                    n: net.n(),
                    halted: net.halted_count(),
                    with_candidate: net
                        .states()
                        .iter()
                        .filter(|s| Pr::candidate(s).is_some())
                        .count(),
                }),
            }
    });
    // The flag is read before a target or custom stop is credited, so a
    // flag raised in the round a target is reached still cancels; under
    // the other stops only the flag can fire the predicate.
    let cause = match (outcome, stop) {
        (RunOutcome::AllHalted { .. }, _) => StopCause::AllHalted,
        (RunOutcome::Predicate { .. }, StopCondition::FirstSolution(_)) if !driver.cancelled() => {
            StopCause::TargetReached
        }
        (RunOutcome::Predicate { .. }, StopCondition::Custom(_)) if !driver.cancelled() => {
            StopCause::CustomStop
        }
        (RunOutcome::Predicate { .. }, _) => return Err(DriverError::Cancelled),
        (RunOutcome::MaxRounds { rounds }, StopCondition::RoundBudget(budget))
            if rounds >= *budget =>
        {
            StopCause::RoundBudget
        }
        // Including the max_rounds safety valve cutting a run before
        // the user's round budget was reached.
        (RunOutcome::MaxRounds { .. }, _) => StopCause::MaxRounds,
    };
    Ok((outcome, cause))
}

/// The run's metrics with
/// [`rounds_over_budget`](gossip_sim::metrics::Degradation::rounds_over_budget)
/// stamped:
/// a run that burned its whole round budget without halting or reaching
/// its target degrades by every round it consumed; any other stop cause
/// stamps zero.
fn stamped_metrics(metrics: &Metrics, outcome: &RunOutcome, cause: StopCause) -> Metrics {
    let mut metrics = metrics.clone();
    metrics.degradation.rounds_over_budget = if cause == StopCause::MaxRounds {
        outcome.rounds()
    } else {
        0
    };
    metrics
}

/// The first node's output, if every node output one that agrees with
/// it: `same(out, first)` is the problem's value tolerance for LP-type
/// problems and exact equality for hitting sets.
fn consensus<O: Clone>(outputs: &[Option<O>], same: impl Fn(&O, &O) -> bool) -> Option<O> {
    let first = outputs.first()?.as_ref()?;
    outputs
        .iter()
        .all(|out| out.as_ref().is_some_and(|out| same(out, first)))
        .then(|| first.clone())
}

// ---------------------------------------------------------------------------
// LP-type problems
// ---------------------------------------------------------------------------

impl<P: LpType + Clone + Sync> DriverProblem<LpMode> for P {
    type Element = P::Element;
    type Output = BasisOf<P>;
    type Target = P::Value;

    fn problem_kind(&self) -> &'static str {
        "LP-type"
    }

    fn default_algorithm(&self) -> Algorithm {
        Algorithm::low_load()
    }

    fn execute(
        &self,
        driver: &Driver<P, LpMode>,
        elements: &[P::Element],
    ) -> Result<RunReport<BasisOf<P>>, DriverError> {
        let algorithm = driver.resolved_algorithm();
        if driver.resolved_doubling().is_some() {
            return Err(DriverError::UnsupportedDoubling {
                algorithm: algorithm.name(),
            });
        }
        let n = driver.n;
        let reached = |b: &BasisOf<P>, target: &P::Value| self.values_close(&b.value, target);
        let same =
            |out: &BasisOf<P>, first: &BasisOf<P>| self.values_close(&out.value, &first.value);
        match &algorithm {
            Algorithm::LowLoad(cfg) => {
                let proto = LowLoadClarkson::new(self.clone(), n, cfg);
                simulate(driver, proto, elements, reached, same)
            }
            Algorithm::HighLoad(cfg) => {
                let proto = HighLoadClarkson::new(self.clone(), n, cfg);
                simulate(driver, proto, elements, reached, same)
            }
            Algorithm::Accelerated { epsilon } => {
                let cfg = HighLoadConfig::accelerated(n, *epsilon);
                let proto = HighLoadClarkson::new(self.clone(), n, &cfg);
                simulate(driver, proto, elements, reached, same)
            }
            Algorithm::Hypercube => run_hypercube_driver(driver, elements),
            Algorithm::HittingSet(_) => Err(DriverError::UnsupportedAlgorithm {
                algorithm: algorithm.name(),
                problem: self.problem_kind(),
            }),
        }
    }
}

fn run_hypercube_driver<P: LpType + Clone + Sync>(
    driver: &Driver<P, LpMode>,
    elements: &[P::Element],
) -> Result<RunReport<BasisOf<P>>, DriverError> {
    let net = &driver.net;
    if !matches!(driver.stop, StopCondition::FullTermination) {
        return Err(DriverError::UnsupportedStop {
            algorithm: "hypercube",
        });
    }
    if !net.fault.is_perfect() {
        return Err(DriverError::UnsupportedFaults {
            algorithm: "hypercube",
        });
    }
    // Likewise for the execution engine: there is no network whose
    // events could be scheduled, so only the default engine fits.
    if !net.engine.is_default() {
        return Err(DriverError::UnsupportedEngine {
            algorithm: "hypercube",
        });
    }
    // Analytic baseline — no rounds to check between, so the cancel
    // flag is honoured once, up front.
    if driver.cancelled() {
        return Err(DriverError::Cancelled);
    }
    // The baseline charges its per-iteration rounds against a hypercube
    // overlay; only the default complete topology (compatibility — the
    // run is analytic either way) or an explicit hypercube matches the
    // model being charged.
    if !net.topology.is_complete() && net.topology.name() != "hypercube" {
        return Err(DriverError::UnsupportedTopology {
            algorithm: "hypercube",
            topology: net.topology.name(),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(net.seed);
    let rep = hypercube_clarkson(&driver.problem, elements, driver.n, &mut rng)
        .map_err(|e| DriverError::Solver(e.to_string()))?;
    let outputs: Vec<Option<BasisOf<P>>> = vec![Some(rep.basis.clone()); driver.n];
    Ok(RunReport {
        consensus: Some(rep.basis),
        outputs,
        rounds: rep.rounds,
        all_halted: true,
        stop_cause: StopCause::AllHalted,
        first_candidate_round: None,
        size_bound: None,
        doubling: None,
        faults: FaultSummary::default(),
        metrics: Metrics::default(),
        // The hypercube baseline is computed analytically (no gossip
        // network, no destination draws), but the report still records
        // the driver's schedule for uniformity.
        schedule: net.schedule,
        topology: net.topology.name(),
        exec: ExecInfo::sequential(),
        obs: None,
    })
}

// ---------------------------------------------------------------------------
// Set-system problems (hitting set)
// ---------------------------------------------------------------------------

impl DriverProblem<SetMode> for Arc<SetSystem> {
    type Element = u32;
    type Output = Vec<u32>;
    /// Maximum acceptable hitting-set size for
    /// [`StopCondition::FirstSolution`]; use `usize::MAX` for "any
    /// verified hitting set".
    type Target = usize;

    fn problem_kind(&self) -> &'static str {
        "set-system"
    }

    fn default_algorithm(&self) -> Algorithm {
        Algorithm::hitting_set(1)
    }

    fn default_doubling(&self) -> Option<f64> {
        Some(12.0)
    }

    fn ground_elements(&self) -> Option<Vec<u32>> {
        Some((0..self.n_elements() as u32).collect())
    }

    fn execute(
        &self,
        driver: &Driver<Self, SetMode>,
        elements: &[u32],
    ) -> Result<RunReport<Vec<u32>>, DriverError> {
        let cfg = match driver.resolved_algorithm() {
            Algorithm::HittingSet(cfg) => cfg,
            other => {
                return Err(DriverError::UnsupportedAlgorithm {
                    algorithm: other.name(),
                    problem: self.problem_kind(),
                })
            }
        };
        match driver.resolved_doubling() {
            None => run_hitting_set_driver(driver, &cfg, elements),
            Some(factor) => run_doubling_search(driver, &cfg, elements, factor),
        }
    }
}

/// One simulated hitting-set run; the report also carries the
/// protocol's sample size as its size bound.
fn run_hitting_set_driver(
    driver: &Driver<Arc<SetSystem>, SetMode>,
    cfg: &HittingSetConfig,
    elements: &[u32],
) -> Result<RunReport<Vec<u32>>, DriverError> {
    let proto = HittingSetGossip::new(driver.problem.clone(), driver.n, cfg);
    let size_bound = Some(proto.sample_size());
    let fits = |hs: &Vec<u32>, max_len: &usize| hs.len() <= *max_len;
    let mut report = simulate(driver, proto, elements, fits, |out, first| out == first)?;
    report.size_bound = size_bound;
    Ok(report)
}

/// The doubling search on the unknown minimum-hitting-set size: each
/// attempt runs with `d` doubled and an independent seed
/// ([`doubling_attempt_seed`]) under a `factor · d · log2 n` round
/// budget, until an attempt satisfies the stop condition.
fn run_doubling_search(
    driver: &Driver<Arc<SetSystem>, SetMode>,
    base_cfg: &HittingSetConfig,
    elements: &[u32],
    factor: f64,
) -> Result<RunReport<Vec<u32>>, DriverError> {
    // An attempt's success is judged by termination (or a reached
    // target); a round budget stops every attempt without signalling
    // either, so the search could never distinguish "d too small" from
    // "budget hit" and would always diverge.
    if matches!(driver.stop, StopCondition::RoundBudget(_)) {
        return Err(DriverError::DoublingNeedsTermination);
    }
    let log2n = (driver.n.max(2) as f64).log2();
    let mut attempt = driver.clone();
    let mut d = 1usize;
    let mut attempts = Vec::new();
    let mut total_rounds = 0u64;
    loop {
        attempts.push(d);
        let mut cfg = base_cfg.clone();
        cfg.d = d;
        // The per-attempt budget grows with d by design — capping it at
        // max_rounds would freeze the budget and make larger d useless,
        // so the doubling search deliberately ignores the safety valve
        // (divergence is bounded by the ground-set-size check below).
        attempt.max_rounds = (factor * d as f64 * log2n).ceil().max(8.0) as u64;
        attempt.net.seed = doubling_attempt_seed(driver.net.seed, d);
        let report = run_hitting_set_driver(&attempt, &cfg, elements)?;
        total_rounds += report.rounds;
        let succeeded = report.all_halted
            || matches!(
                report.stop_cause,
                StopCause::TargetReached | StopCause::CustomStop
            );
        if succeeded {
            return Ok(RunReport {
                doubling: Some(DoublingReport {
                    d_used: d,
                    attempts,
                    total_rounds,
                }),
                ..report
            });
        }
        if d > 2 * driver.problem.n_elements().max(1) {
            return Err(DriverError::DoublingDiverged { d });
        }
        d *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpt::exhaustive::test_problems::Interval;
    use lpt_problems::{Med, MedValue};
    use lpt_workloads::med::{duo_disk, triple_disk};
    use lpt_workloads::sets::planted_hitting_set;

    #[test]
    fn scatter_preserves_elements() {
        let elements: Vec<i64> = (0..100).collect();
        let parts = scatter(&elements, 7, 5).expect("n > 0");
        assert_eq!(parts.len(), 7);
        let mut all: Vec<i64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, elements);
    }

    #[test]
    fn scatter_rejects_zero_nodes() {
        assert_eq!(scatter(&[1, 2, 3], 0, 1).unwrap_err(), DriverError::NoNodes);
    }

    #[test]
    fn low_load_med_duo_disk() {
        let points = duo_disk(128, 1);
        let report = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .run(&points)
            .expect("run");
        assert!(report.all_halted);
        assert_eq!(report.stop_cause, StopCause::AllHalted);
        let basis = report.consensus_output().expect("consensus");
        assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
        assert_eq!(basis.len(), 2);
    }

    #[test]
    fn high_load_med_triple_disk() {
        let points = triple_disk(256, 2);
        let report = Driver::new(Med)
            .nodes(256)
            .seed(2)
            .algorithm(Algorithm::high_load())
            .run(&points)
            .expect("run");
        assert!(report.all_halted);
        let basis = report.consensus_output().expect("consensus");
        assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
        assert_eq!(basis.len(), 3);
    }

    #[test]
    fn first_solution_is_before_full_termination() {
        let points = duo_disk(256, 3);
        let target = lpt::LpType::basis_of(&Med, &points).value;
        let driver = Driver::new(Med).nodes(256).seed(3);
        let first = driver
            .clone()
            .stop(StopCondition::FirstSolution(target))
            .run(&points)
            .expect("run");
        assert!(first.reached());
        let full = driver.run(&points).expect("run");
        assert!(full.all_halted);
        assert!(first.rounds <= full.rounds);
    }

    #[test]
    fn accelerated_resolves_push_count_at_run_time() {
        let points = triple_disk(128, 9);
        let report = Driver::new(Med)
            .nodes(128)
            .seed(9)
            .algorithm(Algorithm::accelerated(0.5))
            .run(&points)
            .expect("run");
        assert!(report.all_halted);
        let basis = report.consensus_output().expect("consensus");
        assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn hypercube_baseline_reports_charged_rounds() {
        let points = triple_disk(200, 5);
        let report = Driver::new(Med)
            .nodes(200)
            .seed(5)
            .algorithm(Algorithm::Hypercube)
            .run(&points)
            .expect("run");
        assert!(report.all_halted);
        assert!(report.rounds > 0);
        assert!(
            report.metrics.rounds.is_empty(),
            "hypercube rounds are analytic"
        );
        let basis = report.consensus_output().expect("consensus");
        assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn hypercube_rejects_partial_stops() {
        let points = duo_disk(64, 6);
        let err = Driver::new(Med)
            .nodes(64)
            .algorithm(Algorithm::Hypercube)
            .stop(StopCondition::RoundBudget(5))
            .run(&points)
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedStop {
                algorithm: "hypercube"
            }
        );
    }

    #[test]
    fn round_budget_stops_exactly() {
        let points = triple_disk(256, 7);
        let report = Driver::new(Med)
            .nodes(256)
            .seed(7)
            .stop(StopCondition::RoundBudget(3))
            .run(&points)
            .expect("run");
        assert_eq!(report.rounds, 3);
        assert_eq!(report.stop_cause, StopCause::RoundBudget);
        assert!(!report.all_halted);
    }

    #[test]
    fn custom_stop_sees_progress() {
        let points = triple_disk(256, 8);
        let report = Driver::new(Med)
            .nodes(256)
            .seed(8)
            .stop(StopCondition::Custom(Arc::new(|p: &Progress| {
                p.round >= 2 && p.with_candidate * 2 >= p.n
            })))
            .run(&points)
            .expect("run");
        assert_eq!(report.stop_cause, StopCause::CustomStop);
        assert!(report.rounds >= 2);
        let full = Driver::new(Med)
            .nodes(256)
            .seed(8)
            .run(&points)
            .expect("run");
        assert!(report.rounds <= full.rounds);
    }

    #[test]
    fn lp_problems_reject_hitting_set_algorithm() {
        let err = Driver::new(Med)
            .nodes(16)
            .algorithm(Algorithm::hitting_set(2))
            .run(&duo_disk(16, 1))
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedAlgorithm {
                algorithm: "hitting-set",
                problem: "LP-type"
            }
        );
    }

    #[test]
    fn zero_node_driver_errors() {
        let err = Driver::new(Med).nodes(0).run(&duo_disk(8, 1)).unwrap_err();
        assert_eq!(err, DriverError::NoNodes);
    }

    #[test]
    fn hitting_set_end_to_end_with_ground_elements() {
        let (sys, _) = planted_hitting_set(128, 32, 3, 6, 31);
        let sys = Arc::new(sys);
        let report = Driver::new(sys.clone())
            .nodes(128)
            .seed(31)
            .algorithm(Algorithm::hitting_set(3))
            .run_ground()
            .expect("run");
        assert!(report.all_halted);
        let bound = report.size_bound.expect("hitting set reports its bound");
        for out in &report.outputs {
            let hs = out.as_ref().expect("output");
            assert!(sys.is_hitting_set(hs));
            assert!(hs.len() <= bound);
        }
        let best = report.best_output().expect("solution");
        assert!(best.len() <= bound);
        assert!(report.first_found_round().is_some());
    }

    #[test]
    fn set_systems_reject_clarkson_algorithms() {
        let (sys, _) = planted_hitting_set(32, 8, 2, 4, 3);
        let err = Driver::new(Arc::new(sys))
            .nodes(32)
            .algorithm(Algorithm::low_load())
            .run_ground()
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedAlgorithm {
                algorithm: "low-load",
                problem: "set-system"
            }
        );
    }

    #[test]
    fn doubling_search_finds_d_without_being_told() {
        let (sys, planted) = planted_hitting_set(128, 32, 4, 6, 80);
        let sys = Arc::new(sys);
        let report = Driver::new(sys.clone())
            .nodes(128)
            .seed(80)
            .algorithm(Algorithm::hitting_set(1))
            .with_doubling_search(12.0)
            .run_ground()
            .expect("run");
        assert!(report.all_halted);
        let best = report.best_output().expect("solution");
        assert!(sys.is_hitting_set(best));
        let doubling = report.doubling.expect("doubling trace");
        assert!(
            doubling.d_used <= 2 * planted.len(),
            "d_used = {} overshot",
            doubling.d_used
        );
        assert!(!doubling.attempts.is_empty());
        for w in doubling.attempts.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert!(doubling.total_rounds >= report.rounds);
    }

    #[test]
    fn doubling_search_on_trivial_instance_stops_at_one() {
        let sets: Vec<Vec<u32>> = (0..10).map(|i| vec![0u32, i + 1]).collect();
        let sys = Arc::new(SetSystem::new(12, sets));
        let report = Driver::new(sys.clone())
            .nodes(64)
            .seed(81)
            .algorithm(Algorithm::hitting_set(1))
            .with_doubling_search(20.0)
            .run_ground()
            .expect("run");
        assert!(report.all_halted);
        assert_eq!(report.doubling.as_ref().expect("trace").d_used, 1);
        assert!(sys.is_hitting_set(report.best_output().unwrap()));
    }

    #[test]
    fn round_budget_beyond_max_rounds_reports_the_safety_valve() {
        let points = triple_disk(256, 7);
        let report = Driver::new(Med)
            .nodes(256)
            .seed(7)
            .max_rounds(3)
            .stop(StopCondition::RoundBudget(1_000))
            .run(&points)
            .expect("run");
        assert_eq!(report.rounds, 3);
        assert_eq!(report.stop_cause, StopCause::MaxRounds);
    }

    #[test]
    fn set_system_default_is_the_doubling_search() {
        let (sys, _) = planted_hitting_set(96, 24, 3, 5, 66);
        let sys = Arc::new(sys);
        // No .algorithm() / .with_doubling_search(): the set-system
        // default must still terminate on an instance whose optimum
        // exceeds d = 1.
        let report = Driver::new(sys.clone())
            .nodes(96)
            .seed(66)
            .run_ground()
            .expect("run");
        assert!(report.all_halted);
        assert!(
            report.doubling.is_some(),
            "default runs the doubling search"
        );
        assert!(sys.is_hitting_set(report.best_output().expect("solution")));
        // An explicit algorithm choice opts out of the implicit doubling.
        let explicit = Driver::new(sys)
            .nodes(96)
            .seed(66)
            .algorithm(Algorithm::hitting_set(3))
            .run_ground()
            .expect("run");
        assert!(explicit.doubling.is_none());
    }

    #[test]
    fn doubling_rejects_round_budget_stop() {
        let (sys, _) = planted_hitting_set(32, 8, 2, 4, 5);
        let err = Driver::new(Arc::new(sys))
            .nodes(32)
            .algorithm(Algorithm::hitting_set(1))
            .with_doubling_search(12.0)
            .stop(StopCondition::RoundBudget(5))
            .run_ground()
            .unwrap_err();
        assert_eq!(err, DriverError::DoublingNeedsTermination);
    }

    #[test]
    fn doubling_rejected_for_lp_problems() {
        let err = Driver::new(Med)
            .nodes(16)
            .with_doubling_search(8.0)
            .run(&duo_disk(16, 2))
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedDoubling {
                algorithm: "low-load"
            }
        );
    }

    #[test]
    fn consensus_tolerates_float_roundoff_within_values_close() {
        // Outputs that differ by less than Med's 1e-7 relative tolerance
        // still count as consensus...
        let base = MedValue {
            r2: 100.0,
            cx: 1.0,
            cy: -2.0,
        };
        let wobble = MedValue {
            r2: 100.0 + 3e-6,
            cx: 1.0 + 1e-8,
            cy: -2.0,
        };
        assert!(
            Med.values_close(&base, &wobble),
            "premise: within tolerance"
        );
        let mk = |v: MedValue| Some(lpt::Basis::new(Vec::new(), v));
        let outputs = vec![mk(base), mk(wobble), mk(base)];
        let tolerant_consensus = |outputs: &[Option<BasisOf<Med>>]| {
            consensus(outputs, |out, first| {
                Med.values_close(&out.value, &first.value)
            })
        };
        let consensus = tolerant_consensus(&outputs).expect("tolerant consensus");
        assert!(Med.values_close(&consensus.value, &base));
        // ...while a genuine disagreement yields None.
        let far = MedValue {
            r2: 101.0,
            cx: 1.0,
            cy: -2.0,
        };
        assert!(!Med.values_close(&base, &far), "premise: outside tolerance");
        let disagreeing = vec![mk(base), mk(far)];
        assert!(tolerant_consensus(&disagreeing).is_none());
        // ...and a missing output (node never halted) also yields None.
        let partial = vec![mk(base), None];
        assert!(tolerant_consensus(&partial).is_none());
    }

    #[test]
    fn interval_consensus_through_driver() {
        let elements: Vec<i64> = (0..200).map(|i| (i * 53) % 301).collect();
        let lo = *elements.iter().min().unwrap();
        let hi = *elements.iter().max().unwrap();
        for algorithm in [Algorithm::low_load(), Algorithm::high_load()] {
            let report = Driver::new(Interval)
                .nodes(64)
                .seed(99)
                .algorithm(algorithm.clone())
                .run(&elements)
                .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
            assert!(report.all_halted, "{}", algorithm.name());
            assert_eq!(report.consensus_output().expect("consensus").value, hi - lo);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let points = triple_disk(128, 70);
        let driver = Driver::new(Med).nodes(128).seed(70);
        let a = driver.run(&points).expect("run");
        let b = driver.run(&points).expect("run");
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.metrics.total_ops(), b.metrics.total_ops());
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(
                x.as_ref().map(|v| v.value.r2),
                y.as_ref().map(|v| v.value.r2)
            );
        }
    }

    #[test]
    fn record_phases_is_observational_only() {
        let points = triple_disk(128, 70);
        let plain = Driver::new(Med)
            .nodes(128)
            .seed(70)
            .run(&points)
            .expect("run");
        assert!(plain.obs.is_none(), "recording is opt-in");
        let traced = Driver::new(Med)
            .nodes(128)
            .seed(70)
            .record_phases(true)
            .run(&points)
            .expect("run");
        // Same trajectory: the recorder only reads values the engine
        // computed anyway.
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.metrics.total_ops(), traced.metrics.total_ops());
        let obs = traced.obs.expect("recorder summary");
        assert!(
            obs.phase_calls.iter().any(|&c| c > 0),
            "phases were spanned"
        );
        assert_eq!(
            obs.phase_calls.iter().filter(|&&c| c > 0).count(),
            6,
            "round-sync engine spans pull/serve/compute/deliver/absorb/refill"
        );
    }

    #[test]
    fn explicit_perfect_fault_model_matches_the_default() {
        // The pre-fault-subsystem trajectories themselves are pinned in
        // tests/faults.rs (the canonical copy); here we only check that
        // installing Perfect explicitly changes nothing vs the default.
        let points = duo_disk(128, 1);
        let implicit = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .run(&points)
            .expect("run");
        let explicit = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .fault_model(gossip_sim::fault::Perfect)
            .run(&points)
            .expect("run");
        assert_eq!(implicit.rounds, explicit.rounds);
        assert_eq!(implicit.metrics.total_ops(), explicit.metrics.total_ops());
        assert_eq!(implicit.faults, FaultSummary::default());
        assert_eq!(explicit.faults.model, "perfect");
    }

    #[test]
    fn driver_runs_under_each_builtin_fault_model() {
        use gossip_sim::fault::{Bernoulli, Churn, Compose, Delay};
        let points = duo_disk(256, 5);
        let base = || Driver::new(Med).nodes(256).seed(5);
        let perfect = base().run(&points).expect("run");
        assert!(perfect.all_halted);

        let lossy = base()
            .fault_model(Bernoulli::new(0.2))
            .run(&points)
            .expect("run");
        assert!(lossy.all_halted, "termination survives 20% loss");
        assert!(lossy.consensus_output().is_some());
        assert!(lossy.faults.messages_dropped > 0);
        assert_eq!(lossy.faults.model, "bernoulli-loss");

        let churny = base()
            .fault_model(Churn::crash_recovery(0.3, 0.2))
            .run(&points)
            .expect("run");
        assert!(churny.all_halted, "termination survives recovery churn");
        assert!(churny.consensus_output().is_some());
        assert!(churny.faults.offline_node_rounds > 0);
        assert!(
            churny.rounds >= perfect.rounds,
            "churn must not speed up termination"
        );

        let delayed = base()
            .fault_model(Delay::uniform(2))
            .run(&points)
            .expect("run");
        assert!(delayed.all_halted, "termination survives delivery delay");
        assert!(delayed.consensus_output().is_some());
        assert!(delayed.faults.messages_delayed > 0);

        let mixed = base()
            .fault_model(
                Compose::default()
                    .and(Bernoulli::new(0.1))
                    .and(Churn::crash_recovery(0.2, 0.15))
                    .and(Delay::uniform(1)),
            )
            .run(&points)
            .expect("run");
        assert!(mixed.all_halted, "termination survives combined faults");
        assert!(mixed.consensus_output().is_some());
        assert!(mixed.faults.messages_dropped > 0);
        assert!(mixed.faults.messages_delayed > 0);
        assert!(mixed.faults.offline_node_rounds > 0);
        // All faulty runs still agree on the true optimum.
        for report in [&lossy, &churny, &delayed, &mixed] {
            let basis = report.consensus_output().expect("consensus");
            assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pre_raised_cancel_flag_aborts_before_any_round() {
        let points = duo_disk(128, 6);
        let flag = Arc::new(AtomicBool::new(true));
        let err = Driver::new(Med)
            .nodes(128)
            .seed(6)
            .cancel_flag(flag)
            .run(&points)
            .expect_err("pre-raised flag must cancel");
        assert_eq!(err, DriverError::Cancelled);
        // The analytic hypercube baseline honours the flag too.
        let err = Driver::new(Med)
            .nodes(128)
            .seed(6)
            .algorithm(Algorithm::Hypercube)
            .cancel_flag(Arc::new(AtomicBool::new(true)))
            .run(&points)
            .expect_err("pre-raised flag must cancel the baseline");
        assert_eq!(err, DriverError::Cancelled);
    }

    #[test]
    fn unraised_cancel_flag_is_byte_identical() {
        let points = duo_disk(256, 7);
        let plain = Driver::new(Med)
            .nodes(256)
            .seed(7)
            .run(&points)
            .expect("run");
        let flagged = Driver::new(Med)
            .nodes(256)
            .seed(7)
            .cancel_flag(Arc::new(AtomicBool::new(false)))
            .run(&points)
            .expect("run");
        assert_eq!(plain.rounds, flagged.rounds);
        assert_eq!(plain.stop_cause, flagged.stop_cause);
        assert_eq!(plain.metrics.rounds, flagged.metrics.rounds);
        assert_eq!(plain.metrics.degradation, flagged.metrics.degradation);
        assert_eq!(
            plain.consensus_output().expect("consensus").value,
            flagged.consensus_output().expect("consensus").value
        );
    }

    #[test]
    fn cancel_flag_raised_mid_run_cancels_at_a_round_boundary() {
        let points = duo_disk(256, 8);
        let flag = Arc::new(AtomicBool::new(false));
        // A Custom stop predicate doubles as a deterministic mid-run
        // trigger: it raises the flag at round 2 (and never stops the
        // run itself), so the next boundary check must cancel.
        let trigger = flag.clone();
        let err = Driver::new(Med)
            .nodes(256)
            .seed(8)
            .stop(StopCondition::Custom(Arc::new(move |p: &Progress| {
                if p.round >= 2 {
                    trigger.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                false
            })))
            .cancel_flag(flag)
            .run(&points)
            .expect_err("raised flag must cancel mid-run");
        assert_eq!(err, DriverError::Cancelled);
    }

    #[test]
    fn budget_exhausted_runs_stamp_rounds_over_budget() {
        let points = duo_disk(256, 9);
        let starved = Driver::new(Med)
            .nodes(256)
            .seed(9)
            .max_rounds(3)
            .run(&points)
            .expect("run");
        assert_eq!(starved.stop_cause, StopCause::MaxRounds);
        assert_eq!(starved.metrics.degradation.rounds_over_budget, 3);
        assert!(starved.metrics.degradation.any());

        let finished = Driver::new(Med)
            .nodes(256)
            .seed(9)
            .run(&points)
            .expect("run");
        assert_eq!(finished.stop_cause, StopCause::AllHalted);
        assert_eq!(finished.metrics.degradation.rounds_over_budget, 0);
        assert!(!finished.metrics.degradation.any());

        // An explicit round budget is a *chosen* stop, not degradation.
        let budgeted = Driver::new(Med)
            .nodes(256)
            .seed(9)
            .stop(StopCondition::RoundBudget(3))
            .run(&points)
            .expect("run");
        assert_eq!(budgeted.stop_cause, StopCause::RoundBudget);
        assert_eq!(budgeted.metrics.degradation.rounds_over_budget, 0);
    }

    #[test]
    fn loss_degrades_rounds_gracefully() {
        use gossip_sim::fault::Bernoulli;
        let points = duo_disk(256, 5);
        let target = lpt::LpType::basis_of(&Med, &points).value;
        let rounds: Vec<u64> = [0.0, 0.4]
            .iter()
            .map(|&loss| {
                let report = Driver::new(Med)
                    .nodes(256)
                    .seed(5)
                    .fault_model(Bernoulli::new(loss))
                    .stop(StopCondition::FirstSolution(target))
                    .run(&points)
                    .expect("run");
                assert!(report.reached(), "loss {loss} still converges");
                report.rounds
            })
            .collect();
        assert!(
            rounds[1] > rounds[0],
            "heavy loss costs extra rounds: {rounds:?}"
        );
    }

    // The lossy hitting-set doubling run is covered end-to-end in
    // tests/faults.rs (hitting_set_doubling_survives_loss); no unit copy.

    #[test]
    fn hypercube_rejects_fault_models() {
        use gossip_sim::fault::Bernoulli;
        let points = duo_disk(64, 6);
        let err = Driver::new(Med)
            .nodes(64)
            .algorithm(Algorithm::Hypercube)
            .fault_model(Bernoulli::new(0.1))
            .run(&points)
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedFaults {
                algorithm: "hypercube"
            }
        );
        // The perfect model — spelled explicitly or as a zero-rate
        // built-in — is still accepted.
        for ok in [
            Driver::new(Med)
                .nodes(64)
                .seed(6)
                .algorithm(Algorithm::Hypercube)
                .fault_model(gossip_sim::fault::Perfect)
                .run(&points),
            Driver::new(Med)
                .nodes(64)
                .seed(6)
                .algorithm(Algorithm::Hypercube)
                .fault_model(Bernoulli::new(0.0))
                .run(&points),
        ] {
            assert!(ok.is_ok());
        }
    }

    #[test]
    fn parallel_threshold_builder_changes_nothing() {
        let points = triple_disk(256, 8);
        let base = Driver::new(Med).nodes(256).seed(8);
        let a = base
            .clone()
            .parallel_threshold(1)
            .run(&points)
            .expect("run");
        let b = base
            .clone()
            .parallel_threshold(10_000)
            .run(&points)
            .expect("run");
        let c = base.run(&points).expect("run");
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(b.rounds, c.rounds);
        assert_eq!(a.metrics.total_ops(), b.metrics.total_ops());
        assert_eq!(b.metrics.total_ops(), c.metrics.total_ops());
    }

    /// The seq/par decision is explicit in the report: `parallel(true)`
    /// under a one-worker pool is recorded as sequential execution
    /// (previously the knob was silently ignored), a multi-worker pool
    /// as parallel with its thread count — and the deterministic
    /// payload is identical either way.
    #[test]
    fn exec_info_records_the_effective_seq_par_decision() {
        let points = triple_disk(300, 9);
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                Driver::new(Med)
                    .nodes(300)
                    .seed(9)
                    .parallel_threshold(1)
                    .run(&points)
                    .expect("run")
            })
        };
        let seq = run_with(1);
        assert_eq!(seq.exec, ExecInfo::from_threads(1));
        assert!(!seq.exec.parallel, "one-worker pool must read sequential");

        let par = run_with(4);
        assert_eq!(
            par.exec,
            ExecInfo {
                threads: 4,
                parallel: true
            }
        );

        // n below the threshold: parallel not taken even with workers.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        let below = pool.install(|| {
            Driver::new(Med)
                .nodes(300)
                .seed(9)
                .parallel_threshold(10_000)
                .run(&points)
                .expect("run")
        });
        assert_eq!(below.exec, ExecInfo::sequential());

        // The decision is metadata only: payloads agree bit-for-bit.
        for other in [&par, &below] {
            assert_eq!(seq.rounds, other.rounds);
            assert_eq!(seq.metrics.rounds, other.metrics.rounds);
            assert_eq!(seq.all_halted, other.all_halted);
            assert_eq!(
                seq.consensus_output().map(|b| b.value.r2.to_bits()),
                other.consensus_output().map(|b| b.value.r2.to_bits())
            );
        }
    }

    #[test]
    fn topology_is_recorded_and_algorithms_solve_on_overlays() {
        use gossip_sim::topology::{Hypercube, RandomRegular};
        let points = duo_disk(128, 3);
        let base = || Driver::new(Med).nodes(128).seed(3);
        let complete = base().run(&points).expect("run");
        assert_eq!(complete.topology, "complete");

        // High-Load on a well-connected random-regular overlay still
        // reaches exact-optimum consensus.
        let rr = base()
            .topology(RandomRegular(8))
            .algorithm(Algorithm::high_load())
            .run(&points)
            .expect("run");
        assert_eq!(rr.topology, "random-regular");
        assert!(rr.all_halted);
        let basis = rr.consensus_output().expect("consensus");
        assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);

        // Low-Load on the hypercube overlay: the paper's guarantees
        // assume uniform gossip, and on a sparse overlay the
        // termination audit samples only neighbors — every node halts
        // and the optimum is found, but individual nodes may keep a
        // locally-unviolated sub-optimal basis (which is exactly the
        // degradation the topology seam exists to measure).
        let hc = base().topology(Hypercube).run(&points).expect("run");
        assert_eq!(hc.topology, "hypercube");
        assert!(hc.all_halted);
        let best = hc
            .outputs
            .iter()
            .map(|o| o.as_ref().expect("all nodes output").value.r2)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((best.sqrt() - 10.0).abs() < 1e-6, "optimum not found");
    }

    #[test]
    fn explicit_complete_topology_matches_the_default() {
        let points = duo_disk(128, 1);
        let implicit = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .run(&points)
            .expect("run");
        let explicit = Driver::new(Med)
            .nodes(128)
            .seed(1)
            .topology(gossip_sim::topology::Complete)
            .run(&points)
            .expect("run");
        assert_eq!(implicit.rounds, explicit.rounds);
        assert_eq!(implicit.metrics.total_ops(), explicit.metrics.total_ops());
        assert_eq!(explicit.topology, "complete");
    }

    #[test]
    fn hypercube_algorithm_rejects_non_hypercube_topologies() {
        use gossip_sim::topology::{Hypercube, Ring};
        let points = duo_disk(64, 6);
        let err = Driver::new(Med)
            .nodes(64)
            .algorithm(Algorithm::Hypercube)
            .topology(Ring(2))
            .run(&points)
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::UnsupportedTopology {
                algorithm: "hypercube",
                topology: "ring"
            }
        );
        // The default complete topology and an explicit hypercube — the
        // overlay the baseline actually charges against — are accepted.
        for ok in [
            Driver::new(Med)
                .nodes(64)
                .seed(6)
                .algorithm(Algorithm::Hypercube)
                .run(&points),
            Driver::new(Med)
                .nodes(64)
                .seed(6)
                .algorithm(Algorithm::Hypercube)
                .topology(Hypercube)
                .run(&points),
        ] {
            assert!(ok.is_ok());
        }
    }

    #[test]
    fn best_output_prefers_smaller_then_lexicographic() {
        let report: RunReport<Vec<u32>> = RunReport {
            outputs: vec![
                Some(vec![4, 5, 6]),
                None,
                Some(vec![2, 9]),
                Some(vec![2, 3]),
                Some(vec![2, 3, 1]),
            ],
            rounds: 0,
            all_halted: false,
            stop_cause: StopCause::MaxRounds,
            first_candidate_round: None,
            size_bound: None,
            doubling: None,
            faults: FaultSummary::default(),
            metrics: Metrics::default(),
            schedule: RngSchedule::default(),
            topology: "complete",
            exec: ExecInfo::sequential(),
            obs: None,
            consensus: None,
        };
        assert_eq!(report.best_output(), Some(&vec![2, 3]));
    }
}
