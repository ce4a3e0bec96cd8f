//! # `gossip-sim` — synchronous uniform-gossip network simulator
//!
//! The network model of the paper (Section 1.2): a fixed set of `n`
//! anonymous nodes operating in synchronous rounds. In each round a node
//! may execute any number of *push* operations (send a message to a node
//! chosen uniformly at random) and *pull* operations (ask a node chosen
//! uniformly at random to send it a message); messages sent or requested
//! in round `i` arrive at the beginning of round `i + 1`. The number of
//! push and pull operations a node executes in a round is its
//! *communication work*.
//!
//! ## Round structure
//!
//! Following the paper's accounting convention ("for simplicity we just
//! assume that an iteration of the repeat loop takes one round", Section
//! 2), one simulated round corresponds to one iteration of a distributed
//! algorithm's main loop and is split into four phases:
//!
//! 1. **pull** — every node issues pull requests ([`Protocol::pulls`]);
//! 2. **serve** — each request is served by a uniformly random node
//!    against its start-of-round state ([`Protocol::serve`]);
//! 3. **compute** — every node processes its pull responses, updates its
//!    state, and issues pushes ([`Protocol::compute`]);
//! 4. **absorb** — pushed messages are delivered to uniformly random
//!    nodes, which absorb them ([`Protocol::absorb`]).
//!
//! On a real network each such round costs a small constant number of
//! communication rounds; the paper's round counts (and ours) count
//! iterations. Work is counted exactly: one unit per push and per pull.
//!
//! ## Fault injection
//!
//! The paper's network is *perfect*: no loss, no downtime, fixed
//! one-round latency. The [`fault`] module makes each of those
//! assumptions a pluggable [`FaultModel`] — Bernoulli message loss,
//! crash / crash-recovery churn, bounded random delivery delay, or any
//! composition — installed via [`NetworkConfig::fault`]. Fault
//! decisions draw from their own seed-derived streams, so a simulation
//! remains a deterministic function of (seed, protocol, fault model)
//! and stays bit-identical across sequential and parallel stepping.
//! Injected faults are accounted per round in [`RoundMetrics`]
//! (`offline`, `dropped`, `delayed`).
//!
//! ## Topologies
//!
//! The paper's draws are uniform over **all** nodes — the complete
//! graph. The [`topology`] module makes the neighbor relation a
//! pluggable [`Topology`] (structured [`topology::Hypercube`]
//! overlays, seeded [`topology::RandomRegular`] graphs,
//! [`topology::Ring`]s, [`topology::Torus2D`] grids), installed via
//! [`NetworkConfig::topology`]: every pull target and push destination
//! is then drawn uniformly from the drawing node's neighbor set. The
//! adjacency is built once per run into a flat CSR arena, so
//! steady-state rounds stay zero-alloc; the default
//! [`topology::Complete`] takes the pre-topology draw path and is
//! bit-identical to the historical engine under both schedules.
//!
//! ## Determinism and parallelism
//!
//! Every (round, node, phase) triple gets its own counter-derived
//! [`rand_chacha::ChaCha8Rng`] stream (see [`rng::derive_rng`]), so a
//! simulation's outcome depends only on the master seed — not on thread
//! scheduling. Rounds are stepped with Rayon data-parallelism over nodes
//! when the network is large enough to benefit; results are bit-identical
//! in sequential and parallel mode (tested).
//!
//! The engine's own uniform destination draws are versioned by
//! [`RngSchedule`] (installed via [`NetworkConfig::rng_schedule`]):
//! `V1Compat` reproduces the original per-node streams bit-for-bit,
//! while the default `V2Batched` draws them from one block-batched
//! stream per (seed, round, phase) through a Lemire rejection sampler
//! ([`rng::BatchedSampler`]) — different bitstreams, same protocol
//! outcomes, each individually deterministic.
//!
//! ## Memory model
//!
//! All per-round buffers live in a `scratch::RoundScratch` owned by
//! the [`Network`] and are cleared and refilled in place, and message
//! payloads are moved (never cloned) to their single destination: in
//! steady state a fault-free round performs zero heap allocations. See
//! the [`scratch`] module docs for why buffer reuse cannot perturb the
//! seed-derived RNG streams.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod protocol;
pub mod rng;
pub mod scratch;
mod step;
pub mod topology;

pub use event::{Engine, EventQueue, Link, LinkPlan};
pub use export::{ErrorCode, Frame, RunHeader, RunSummary, WireError};
pub use fault::{
    Asymmetric, Bernoulli, Byzantine, Churn, Compose, Delay, FaultModel, IntoFaultModel, Partition,
    Perfect, Regional,
};
pub use metrics::{Degradation, Metrics, RoundMetrics};
pub use net::{Network, NetworkConfig, RunOutcome};
pub use obs::{FlightRecorder, Histogram, NoopRecorder, ObsSummary, Recorder};
pub use protocol::{NodeControl, Protocol, Response, Served};
pub use rng::{BatchedSampler, PhaseRng, RngSchedule};
pub use topology::{Adjacency, IntoTopology, Topology};

/// Identifier of a node within one simulated network (dense `0..n`).
///
/// Node identifiers exist only at the simulator level (to index state);
/// the protocols themselves never read them except to seed per-node
/// randomness, preserving the paper's anonymous-nodes assumption.
pub type NodeId = u32;
