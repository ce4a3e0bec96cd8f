//! # `lpt-gossip` — gossip-model distributed algorithms for LP-type
//! problems of bounded dimension
//!
//! Reproduction of the algorithms of Hinnenthal, Scheideler & Struijs,
//! *"Fast Distributed Algorithms for LP-Type Problems of Bounded
//! Dimension"* (SPAA 2019, arXiv:1904.10706), on top of the
//! [`gossip_sim`] network simulator:
//!
//! * [`low_load`] — the **Low-Load Clarkson Algorithm** (Algorithm 2)
//!   with the pull-phase extension for `|H| < n` (Algorithm 4):
//!   `O(d log n)` rounds, `O(d² + log n)` work per round (Theorem 3);
//! * [`high_load`] — the **High-Load Clarkson Algorithm** (Algorithm 5)
//!   and its accelerated variant (Section 3.1): `O(d log n)` rounds with
//!   `O(d log n)` work, or `O(d log n / log log n)` rounds with
//!   `O(d log^{1+ε} n)` work (Theorem 4);
//! * [`hitting_set`] — the **Distributed Hitting Set Algorithm**
//!   (Algorithm 6): an `O(d log(ds))`-size hitting set in `O(d log n)`
//!   rounds (Theorem 5); set cover runs through the dual reduction in
//!   `lpt_problems::set_cover`;
//! * [`termination`] — the gossip termination-detection protocol
//!   (Algorithm 3, Section 2.2) shared by the Clarkson protocols;
//! * [`sampling`] — the uniform-multiset sampling subroutine
//!   (Section 2.1);
//! * [`hypercube`] — the hypercube-emulated distributed Clarkson
//!   baseline the paper compares against (`O(d log² n)` rounds,
//!   Section 1.1);
//! * [`driver`] — the **unified entry point**: a builder-style
//!   [`Driver`] that scatters an instance over a simulated network,
//!   runs any of the five algorithms under a configurable
//!   [`StopCondition`] and [`FaultModel`]
//!   (message loss, churn, delivery delay), and returns one polymorphic
//!   [`RunReport`].
//!
//! ## Migrating off the removed `runner` shims
//!
//! The legacy `runner` free functions (`run_low_load`, `run_high_load`,
//! `run_hitting_set`, `run_hitting_set_unknown_d`, …) were
//! `#[deprecated]` shims over [`Driver`] in 0.2.0 and are removed in
//! 0.3.0. Each one maps to a short builder chain:
//!
//! | removed call | replacement |
//! |---|---|
//! | `run_low_load(problem, elems, n, cfg, seed)` | `Driver::new(problem).nodes(n).seed(seed).algorithm(Algorithm::LowLoad(cfg.protocol)).max_rounds(cfg.max_rounds).run(&elems)` |
//! | `run_high_load(...)` | same, with [`Algorithm::HighLoad`] |
//! | `rounds_to_first_solution_*(...)` | add `.stop(StopCondition::FirstSolution(target))` |
//! | `run_hitting_set(sys, n, cfg, max_rounds, seed)` | `Driver::new(sys).nodes(n).seed(seed).algorithm(Algorithm::HittingSet(cfg.clone())).run_ground()` |
//! | `run_hitting_set_unknown_d(...)` | add [`Driver::with_doubling_search`] |
//!
//! The legacy report fields all survive on [`RunReport`] under the same
//! names (plus new ones: [`RunReport::faults`], [`RunReport::schedule`],
//! stop causes, consensus).
//!
//! ## Quick start
//!
//! Every algorithm runs through the same four builder calls — pick the
//! problem, the network size, the algorithm, and when to stop:
//!
//! ```
//! use lpt_gossip::{Algorithm, Driver, StopCondition};
//! use lpt_problems::Med;
//! use lpt_workloads::med::duo_disk;
//!
//! let points = duo_disk(256, 42);
//!
//! // Low-Load Clarkson (the default algorithm), to full termination.
//! let report = Driver::new(Med).nodes(256).seed(42).run(&points).unwrap();
//! let basis = report.consensus_output().expect("all nodes agree");
//! assert!((basis.value.r2.sqrt() - 10.0).abs() < 1e-6);
//!
//! // High-Load Clarkson, measuring the paper's rounds-to-first-solution.
//! use lpt::LpType;
//! let target = Med.basis_of(&points).value;
//! let first = Driver::new(Med)
//!     .nodes(256)
//!     .seed(42)
//!     .algorithm(Algorithm::high_load())
//!     .stop(StopCondition::FirstSolution(target))
//!     .run(&points)
//!     .unwrap();
//! assert!(first.reached() && first.rounds <= report.rounds);
//! ```
//!
//! Hitting set drives the same API with a set system as the problem;
//! see [`driver`] for the full tour (acceleration, the hypercube
//! baseline, doubling search, custom stop predicates).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod driver;
pub mod high_load;
pub mod hitting_set;
pub mod hypercube;
pub mod low_load;
pub mod sampling;
pub mod spec;
pub mod termination;

pub use driver::{
    Algorithm, DoublingReport, Driver, DriverError, DriverProblem, ExecInfo, FaultSummary, LpMode,
    Progress, RunReport, SetMode, StopCause, StopCondition,
};
pub use gossip_sim::event::{Engine, Link, LinkPlan};
pub use gossip_sim::fault::{
    Asymmetric, Bernoulli, Byzantine, Churn, Compose, Delay, FaultModel, IntoFaultModel, Partition,
    Perfect, Regional,
};
pub use gossip_sim::metrics::Degradation;
pub use gossip_sim::topology;
pub use gossip_sim::topology::{IntoTopology, Topology};
pub use gossip_sim::RngSchedule;
pub use high_load::{HighLoadClarkson, HighLoadConfig, HighLoadState};
pub use hitting_set::{HittingSetConfig, HittingSetGossip, HittingSetState};
pub use hypercube::{hypercube_clarkson, HypercubeReport};
pub use low_load::{LowLoadClarkson, LowLoadConfig, LowLoadState};
pub use spec::{AlgorithmSpec, F64Key, RunSpecKey, SpecError, StopSpec};
pub use termination::{TermEntry, TermState};
