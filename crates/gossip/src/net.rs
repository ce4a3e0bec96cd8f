//! The network simulator itself.

use crate::event::{Engine, EventCore, TickCtx};
use crate::fault::{FaultModel, IntoFaultModel, Perfect};
use crate::metrics::{Metrics, RoundMetrics};
use crate::obs::{NoopRecorder, Phase, Recorder};
use crate::protocol::Protocol;
use crate::rng::{phase, PhaseRng, RngSchedule};
use crate::scratch::{refill_dest_rows, RoundScratch};
use crate::step::{Fate, Route, Tally, Turn};
use crate::topology::{Adjacency, Complete, IntoTopology, Topology};
use crate::NodeId;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Master seed; the entire simulation is a deterministic function of
    /// the seed, the protocol, the initial states, the fault model, and
    /// the topology.
    pub seed: u64,
    /// Step nodes with Rayon when `n >= parallel_threshold`.
    pub parallel: bool,
    /// Minimum network size at which parallel stepping pays off.
    pub parallel_threshold: usize,
    /// The fault model injected into every round (default: [`Perfect`],
    /// the paper's fault-free network).
    pub fault: Arc<dyn FaultModel>,
    /// Which versioned randomness schedule the engine's own destination
    /// draws follow (default: [`RngSchedule::V2Batched`]); see
    /// [`crate::rng::RngSchedule`] for the determinism contract.
    pub schedule: RngSchedule,
    /// The communication topology destinations are drawn from (default:
    /// [`Complete`], the paper's model — uniform over all `n` nodes);
    /// see [`crate::topology`] for the built-in overlays.
    pub topology: Arc<dyn Topology>,
    /// Which execution engine steps the rounds (default:
    /// [`Engine::RoundSync`], the paper's synchronous model; see
    /// [`crate::event`] for the discrete-event engine and its
    /// unit-latency byte-identity contract).
    pub engine: Engine,
}

impl NetworkConfig {
    /// Config with the given seed, default parallel settings, the
    /// [`Perfect`] (fault-free) network, the default [`RngSchedule`],
    /// and the [`Complete`] topology.
    pub fn with_seed(seed: u64) -> Self {
        NetworkConfig {
            seed,
            parallel: true,
            parallel_threshold: 4096,
            fault: Arc::new(Perfect),
            schedule: RngSchedule::default(),
            topology: Arc::new(Complete),
            engine: Engine::default(),
        }
    }

    /// Forces sequential stepping (mainly for determinism tests).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Sets the minimum network size at which nodes are stepped with
    /// Rayon (when parallel stepping is enabled at all).
    pub fn parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// Installs a fault model (see [`crate::fault`] for the built-ins).
    pub fn fault(mut self, fault: impl IntoFaultModel) -> Self {
        self.fault = fault.into_fault_model();
        self
    }

    /// Selects the versioned randomness schedule (default:
    /// [`RngSchedule::V2Batched`]; use [`RngSchedule::V1Compat`] to
    /// reproduce pre-schedule trajectories bit-for-bit).
    pub fn rng_schedule(mut self, schedule: RngSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Installs a communication topology (see [`crate::topology`] for
    /// the built-ins; default: [`Complete`], which is bit-identical to
    /// the pre-topology engine under both schedules).
    pub fn topology(mut self, topology: impl IntoTopology) -> Self {
        self.topology = topology.into_topology();
        self
    }

    /// Selects the execution engine (default: [`Engine::RoundSync`]).
    /// `Engine::EventDriven(LinkPlan::unit())` is byte-identical to the
    /// default; other link plans make rounds genuinely asynchronous
    /// (see [`crate::event`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// How a [`Network::run_until`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node halted.
    AllHalted {
        /// Total rounds simulated when the run stopped.
        rounds: u64,
    },
    /// The caller's stop predicate returned `true`.
    Predicate {
        /// Total rounds simulated when the run stopped.
        rounds: u64,
    },
    /// The round budget was exhausted first.
    MaxRounds {
        /// Total rounds simulated when the run stopped.
        rounds: u64,
    },
}

impl RunOutcome {
    /// Rounds simulated when the run stopped.
    pub fn rounds(&self) -> u64 {
        match *self {
            RunOutcome::AllHalted { rounds }
            | RunOutcome::Predicate { rounds }
            | RunOutcome::MaxRounds { rounds } => rounds,
        }
    }

    /// Whether the run ended because every node halted.
    pub fn all_halted(&self) -> bool {
        matches!(self, RunOutcome::AllHalted { .. })
    }
}

/// A simulated gossip network running protocol `P`.
///
/// The round engine allocates all per-round working memory once, at
/// construction (`RoundScratch`, see [`crate::scratch`]): in steady
/// state a round under the [`Perfect`] fault model performs **zero**
/// heap allocations, and message payloads are *moved* — never cloned —
/// from the emitting node to their one destination.
pub struct Network<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    halted: Vec<bool>,
    round: u64,
    cfg: NetworkConfig,
    metrics: Metrics,
    /// Messages in flight beyond the normal one-round latency: slot `k`
    /// holds `(destination, sender, message)` triples due for delivery
    /// `k + 1` rounds from now (filled only by fault models with a
    /// positive [`FaultModel::max_delay`]). The sender rides along so
    /// delivery can drop messages that outlived a fail-stop sender
    /// ([`FaultModel::crashed`]).
    pending: VecDeque<Vec<(usize, NodeId, P::Msg)>>,
    /// Retired delay-queue slots, kept (empty, capacity intact) and
    /// swapped back in when a new slot is needed, so the delay queue
    /// stops allocating once it has seen its deepest delay.
    pending_pool: Vec<Vec<(usize, NodeId, P::Msg)>>,
    scratch: RoundScratch<P>,
    /// The topology's flat CSR neighbor arena, built once at
    /// construction and only read afterwards (`None` for the
    /// [`Complete`] graph, whose draws target node ids directly);
    /// per-run state adjacent to the scratch so steady-state rounds
    /// stay zero-alloc.
    adjacency: Option<Adjacency>,
    /// The discrete-event scheduler state, present iff the config
    /// selected [`Engine::EventDriven`]; `round()` then advances one
    /// virtual-time tick instead of one synchronous round (see
    /// [`crate::event`]).
    event: Option<EventCore<P>>,
    /// The observability seam (see [`crate::obs`]): phase spans, event
    /// counters, and gauges report here. Defaults to the free
    /// [`NoopRecorder`]; recording is strictly observational — nothing
    /// a recorder sees can flow back into protocol state, so attaching
    /// one cannot change a single byte of the run.
    recorder: Box<dyn Recorder>,
}

impl<P: Protocol> Network<P> {
    /// Creates a network with one state per node.
    ///
    /// # Panics
    /// Panics on an empty state vector.
    pub fn new(protocol: P, states: Vec<P::State>, cfg: NetworkConfig) -> Self {
        assert!(!states.is_empty(), "network needs at least one node");
        let n = states.len();
        let adjacency = cfg.topology.build(n, cfg.seed);
        debug_assert_eq!(
            adjacency.is_none(),
            cfg.topology.is_complete(),
            "a topology must build an arena iff it is not complete"
        );
        let event = match &cfg.engine {
            Engine::RoundSync => None,
            Engine::EventDriven(plan) => Some(EventCore::new(n, plan.clone())),
        };
        Network {
            protocol,
            states,
            halted: vec![false; n],
            round: 0,
            cfg,
            metrics: Metrics::default(),
            pending: VecDeque::new(),
            pending_pool: Vec::new(),
            scratch: RoundScratch::new(n),
            adjacency,
            event,
            recorder: Box::new(NoopRecorder),
        }
    }

    /// Attaches a [`Recorder`] (replacing the free default). Recording
    /// is observational only: the engines hand the recorder values they
    /// already computed and read nothing back, so the run's bytes are
    /// identical with any recorder attached.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The attached recorder (the [`NoopRecorder`] unless
    /// [`set_recorder`](Network::set_recorder) installed one).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// The topology's neighbor arena (`None` under [`Complete`]).
    pub fn adjacency(&self) -> Option<&Adjacency> {
        self.adjacency.as_ref()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All node states (halted nodes keep their final state).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Rounds simulated so far.
    pub fn round_index(&self) -> u64 {
        self.round
    }

    /// Per-round metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Pre-reserves metrics storage for `additional` more rounds.
    ///
    /// The per-round metrics log is the only container the engine must
    /// grow while running; reserving up front makes long steady-state
    /// stretches allocation-free (the driver reserves its round budget,
    /// and the allocation-count test relies on this).
    pub fn reserve_rounds(&mut self, additional: usize) {
        self.metrics.rounds.reserve(additional);
    }

    /// Number of halted nodes.
    pub fn halted_count(&self) -> u64 {
        self.halted.iter().filter(|&&h| h).count() as u64
    }

    /// Whether node `i` has halted.
    pub fn is_halted(&self, i: usize) -> bool {
        self.halted[i]
    }

    /// Messages currently in flight beyond the normal one-round latency
    /// (non-zero only under a fault model with delays or an event-driven
    /// link plan with latencies above one tick).
    pub fn in_flight(&self) -> usize {
        self.pending.iter().map(Vec::len).sum::<usize>()
            + self.event.as_ref().map_or(0, EventCore::in_flight)
    }

    fn use_parallel(&self) -> bool {
        // The event engine is inherently sequential: its determinism
        // contract is the queue's total (time, seq) order, which admits
        // no data-parallel phase sweeps.
        self.event.is_none()
            && self.cfg.parallel
            && self.states.len() >= self.cfg.parallel_threshold
    }

    /// The number of threads this network's rounds actually use: 1 when
    /// the sequential path is selected (parallelism disabled, `n` below
    /// the threshold, or a single-threaded ambient pool — the pool
    /// installed via [`rayon::ThreadPool::install`] around the `round`
    /// calls, or rayon's global pool otherwise), the ambient pool's
    /// size otherwise.
    ///
    /// This is *execution metadata*: by the byte-identity contract the
    /// value never influences any output, it only reports how the same
    /// bytes were produced. The driver records it in its run report.
    pub fn effective_parallelism(&self) -> usize {
        if self.use_parallel() {
            rayon::current_num_threads().max(1)
        } else {
            1
        }
    }

    /// Simulates one round; returns that round's metrics.
    ///
    /// Every phase below refills a buffer owned by the network's
    /// `RoundScratch`; nothing is allocated in steady state. What each
    /// node and message does inside a phase is decided by the shared
    /// step module, the same code the event engine dispatches. Each
    /// node's RNG streams are derived from `(seed, round, node, phase)`
    /// alone and every parallel phase writes only to disjoint per-node
    /// (or per-word) `&mut` rows, so sequential and rayon-parallel
    /// stepping — real threads claiming contiguous node chunks — are
    /// byte-identical under any chunk schedule.
    ///
    /// The seq/par decision is explicit: the parallel path is taken
    /// only when the config asks for it, `n` clears the threshold, and
    /// the ambient pool actually has more than one thread (a one-worker
    /// pool would pay region-dispatch overhead to run sequentially
    /// anyway — this is the `effective_parallelism() == 1` case the
    /// driver surfaces instead of silently ignoring the knob). Each
    /// phase is one loop either way: a sequential round runs it under
    /// `with_min_len(usize::MAX)`, which keeps it on the calling thread
    /// without dispatching a pool region.
    pub fn round(&mut self) -> RoundMetrics {
        if self.event.is_some() {
            return self.event_round();
        }
        let min_len = if self.effective_parallelism() > 1 {
            1
        } else {
            usize::MAX
        };
        let round = self.round;
        let seed = self.cfg.seed;
        let fate = Fate::new(&self.protocol, &self.cfg);
        let adj = self.adjacency.as_ref();
        let rec: &mut dyn Recorder = &mut *self.recorder;
        let RoundScratch {
            offline,
            queries,
            responses,
            tallies,
            pull_targets,
            pushes,
            compute_halts,
            push_dests,
            inboxes,
        } = &mut self.scratch;

        let mut tally = Tally {
            offline: fate.scan_offline(round, offline, min_len),
            ..Tally::default()
        };
        let offline = &*offline;
        let halted = &self.halted;
        let turn = |i: usize| Turn {
            round,
            node: i,
            live: !halted[i] && !offline.get(i),
        };

        // ---- Phase 1: pull requests -----------------------------------
        rec.span_start(Phase::Pull);
        let states = &self.states;
        queries
            .par_iter_mut()
            .zip(tallies.par_iter_mut())
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(i, (out, t))| {
                *t = Tally::default();
                fate.pulls(turn(i), &states[i], out, t);
            });
        rec.span_end(Phase::Pull);
        let queries = &*queries;

        // ---- Destination sweep: pull targets ---------------------------
        // Sequential and in node order, so the V2 batch stream is
        // consumed identically however the phases around it are
        // stepped (see `scratch::refill_dest_rows`).
        let counts = queries.iter().map(Vec::len);
        refill_dest_rows(
            pull_targets,
            counts,
            fate.draws(round, phase::PULL_TARGET),
            adj,
            rec,
        );
        let pull_targets = &*pull_targets;

        // ---- Phase 2: serve pulls against the start-of-round snapshot --
        rec.span_start(Phase::Serve);
        responses
            .par_iter_mut()
            .zip(tallies.par_iter_mut())
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(i, (rs, t))| {
                rs.clear();
                let mut rng = PhaseRng::new(seed, round, i as u64, phase::SERVE);
                for (k, (q, &to)) in queries[i].iter().zip(&pull_targets[i]).enumerate() {
                    let route = Route {
                        round,
                        from: i as NodeId,
                        to,
                        k: k as u64,
                    };
                    rs.push(fate.serve(route, q, states, offline, &mut rng, t));
                }
            });
        rec.span_end(Phase::Serve);

        // ---- Phase 3: compute + emit pushes ----------------------------
        rec.span_start(Phase::Compute);
        self.states
            .par_iter_mut()
            .zip(responses.par_iter_mut())
            .zip(pushes.par_iter_mut())
            .zip(compute_halts.par_iter_mut())
            .zip(tallies.par_iter_mut())
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(i, ((((state, rs), out), halt), t))| {
                *halt = fate.compute(turn(i), state, rs, out, queries[i].len(), t);
            });
        for t in tallies.iter() {
            tally.merge(t);
        }
        rec.span_end(Phase::Compute);

        // ---- Destination sweep: push destinations ----------------------
        let counts = pushes.iter().map(Vec::len);
        refill_dest_rows(
            push_dests,
            counts,
            fate.draws(round, phase::PUSH_DEST),
            adj,
            rec,
        );

        // ---- Phase 4: deliver pushes, absorb ---------------------------
        rec.span_start(Phase::Deliver);
        // Payloads are moved (drained), never cloned: each push has
        // exactly one destination — the inbox, the delay queue, or the
        // floor. Delayed messages due this round arrive first (they
        // are older); the emptied slot retires to the pool with its
        // capacity intact.
        if let Some(mut due) = self.pending.pop_front() {
            for (dest, sender, msg) in due.drain(..) {
                if fate.arrives(round, sender, dest, true, offline, &mut tally) {
                    inboxes[dest].push(msg);
                }
            }
            self.pending_pool.push(due);
        }
        for (i, (out, dests)) in pushes.iter_mut().zip(push_dests.iter()).enumerate() {
            for (k, (msg, &to)) in out.drain(..).zip(dests).enumerate() {
                let route = Route {
                    round,
                    from: i as NodeId,
                    to,
                    k: k as u64,
                };
                match fate.push(route, &mut tally) {
                    None => {}
                    Some(0) => {
                        let dest = to as usize;
                        if fate.arrives(round, route.from, dest, false, offline, &mut tally) {
                            inboxes[dest].push(msg);
                        }
                    }
                    Some(delay) => {
                        tally.delayed += 1;
                        let slot = (delay - 1) as usize;
                        while self.pending.len() <= slot {
                            self.pending
                                .push_back(self.pending_pool.pop().unwrap_or_default());
                        }
                        self.pending[slot].push((to as usize, route.from, msg));
                    }
                }
            }
        }
        rec.span_end(Phase::Deliver);

        rec.span_start(Phase::Absorb);
        self.states
            .par_iter_mut()
            .zip(inboxes.par_iter_mut())
            .zip(compute_halts.par_iter())
            .zip(self.halted.par_iter_mut())
            .enumerate()
            .with_min_len(min_len)
            .for_each(|(i, (((state, inbox), &computed), halted))| {
                let turn = Turn {
                    round,
                    node: i,
                    live: !*halted && !offline.get(i),
                };
                *halted |= fate.absorb(turn, state, inbox, computed);
            });
        rec.span_end(Phase::Absorb);

        self.round += 1;
        fate.close(&self.states, &self.halted, round, &tally, &mut self.metrics)
    }

    /// One `round()` under the event engine: advance virtual time to
    /// the next tick holding events and execute it. The core cannot
    /// borrow the network's buffers permanently (the round engine
    /// shares them), so each tick borrows them through a `TickCtx`.
    fn event_round(&mut self) -> RoundMetrics {
        let mut core = self.event.take().expect("event engine selected");
        let rm = core.tick(&mut TickCtx {
            fate: Fate::new(&self.protocol, &self.cfg),
            states: &mut self.states,
            halted: &mut self.halted,
            scratch: &mut self.scratch,
            metrics: &mut self.metrics,
            adjacency: self.adjacency.as_ref(),
            recorder: &mut *self.recorder,
        });
        self.event = Some(core);
        self.round += 1;
        rm
    }

    /// Runs until every node halts or `max_rounds` is exhausted.
    pub fn run(&mut self, max_rounds: u64) -> RunOutcome {
        self.run_until(max_rounds, |_| false)
    }

    /// Runs until every node halts, the predicate fires (checked after
    /// each round), or `max_rounds` is exhausted.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> RunOutcome {
        for _ in 0..max_rounds {
            self.round();
            if self.halted.iter().all(|&h| h) {
                return RunOutcome::AllHalted { rounds: self.round };
            }
            if stop(self) {
                return RunOutcome::Predicate { rounds: self.round };
            }
        }
        RunOutcome::MaxRounds { rounds: self.round }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{NodeControl, Response, Served};

    /// Push-based rumor spreading: informed nodes push one token per
    /// round; nodes halt one round after becoming informed... they halt
    /// immediately once informed and having pushed once.
    struct PushRumor;

    #[derive(Clone, Debug, PartialEq)]
    struct RumorState {
        informed: bool,
        pushes_sent: u64,
        received: u64,
    }

    impl Protocol for PushRumor {
        type State = RumorState;
        type Msg = ();
        type Query = ();

        fn pulls(&self, _: NodeId, _: &RumorState, _: &mut PhaseRng, _: &mut Vec<()>) {}

        fn serve(&self, _: NodeId, _: &RumorState, _: &(), _: &mut PhaseRng) -> Option<Served<()>> {
            None
        }

        fn compute(
            &self,
            _: NodeId,
            state: &mut RumorState,
            _: &mut Vec<Option<Response<()>>>,
            _: &mut PhaseRng,
            pushes: &mut Vec<()>,
        ) -> NodeControl {
            if state.informed {
                pushes.push(());
                state.pushes_sent += 1;
            }
            NodeControl::Continue
        }

        fn absorb(
            &self,
            _: NodeId,
            state: &mut RumorState,
            delivered: &mut Vec<()>,
            _: &mut PhaseRng,
        ) -> NodeControl {
            state.received += delivered.len() as u64;
            if !delivered.is_empty() {
                state.informed = true;
            }
            NodeControl::Continue
        }

        fn load(&self, s: &RumorState) -> usize {
            usize::from(s.informed)
        }
    }

    fn rumor_states(n: usize) -> Vec<RumorState> {
        (0..n)
            .map(|i| RumorState {
                informed: i == 0,
                pushes_sent: 0,
                received: 0,
            })
            .collect()
    }

    #[test]
    fn rumor_spreads_in_logarithmic_rounds() {
        let n = 4096;
        let mut net = Network::new(PushRumor, rumor_states(n), NetworkConfig::with_seed(1));
        let outcome = net.run_until(200, |net| net.states().iter().all(|s| s.informed));
        let rounds = outcome.rounds();
        // Push-only rumor spreading takes Θ(log n) rounds; allow slack.
        assert!(rounds >= 10, "rounds = {rounds}");
        assert!(rounds <= 60, "rounds = {rounds}");
    }

    #[test]
    fn push_conservation() {
        let n = 512;
        let mut net = Network::new(PushRumor, rumor_states(n), NetworkConfig::with_seed(2));
        for _ in 0..30 {
            net.round();
        }
        let sent: u64 = net.states().iter().map(|s| s.pushes_sent).sum();
        let recv: u64 = net.states().iter().map(|s| s.received).sum();
        assert_eq!(sent, recv, "every push is delivered exactly once");
        let metric_pushes: u64 = net.metrics().rounds.iter().map(|r| r.pushes).sum();
        assert_eq!(metric_pushes, sent);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let n = 6000; // above the default parallel threshold
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let run = |parallel: bool| {
                let cfg = if parallel {
                    NetworkConfig::with_seed(3).parallel_threshold(1)
                } else {
                    NetworkConfig::with_seed(3).sequential()
                };
                let mut net = Network::new(PushRumor, rumor_states(n), cfg.rng_schedule(schedule));
                for _ in 0..25 {
                    net.round();
                }
                (net.states().to_vec(), net.metrics().rounds.clone())
            };
            let (s_par, m_par) = run(true);
            let (s_seq, m_seq) = run(false);
            assert_eq!(s_par, s_seq, "states must be identical ({schedule:?})");
            assert_eq!(m_par, m_seq, "metrics must be identical ({schedule:?})");
        }
    }

    #[test]
    fn schedules_differ_in_bitstream_but_agree_on_outcomes() {
        let n = 2048;
        let run = |schedule: RngSchedule| {
            let cfg = NetworkConfig::with_seed(11).rng_schedule(schedule);
            let mut net = Network::new(PushRumor, rumor_states(n), cfg);
            let outcome = net.run_until(300, |net| net.states().iter().all(|s| s.informed));
            let received: Vec<u64> = net.states().iter().map(|s| s.received).collect();
            (outcome.rounds(), received)
        };
        let (r1, recv1) = run(RngSchedule::V1Compat);
        let (r2, recv2) = run(RngSchedule::V2Batched);
        // Outcome invariant: the rumor saturates in Θ(log n) rounds
        // under both schedules...
        for r in [r1, r2] {
            assert!((10..=60).contains(&r), "rounds = {r}");
        }
        // ...along genuinely different trajectories (identical per-node
        // delivery counts across schedules would mean the batch sweep
        // is secretly replaying the per-node streams).
        assert_ne!(recv1, recv2, "schedules must not share a bitstream");
    }

    #[test]
    fn v2_fault_decision_streams_match_v1() {
        // Same seed, same fault model: the fault decisions (offline
        // node-rounds come straight from the model's schedule-invariant
        // streams) must agree per round across schedules.
        let run = |schedule: RngSchedule| {
            let cfg = NetworkConfig::with_seed(31)
                .fault(Churn::crash_recovery(0.3, 0.25))
                .rng_schedule(schedule);
            let mut net = Network::new(PushRumor, rumor_states(512), cfg);
            for _ in 0..20 {
                net.round();
            }
            net.metrics()
                .rounds
                .iter()
                .map(|r| r.offline)
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            run(RngSchedule::V1Compat),
            run(RngSchedule::V2Batched),
            "per-round offline counts are schedule-invariant"
        );
    }

    /// Pull-based rumor: uninformed nodes pull; informed nodes serve.
    struct PullRumor;

    impl Protocol for PullRumor {
        type State = RumorState;
        type Msg = ();
        type Query = ();

        fn pulls(&self, _: NodeId, s: &RumorState, _: &mut PhaseRng, out: &mut Vec<()>) {
            if !s.informed {
                out.push(());
            }
        }

        fn serve(&self, _: NodeId, s: &RumorState, _: &(), _: &mut PhaseRng) -> Option<Served<()>> {
            s.informed.then_some(Served { msg: (), slot: 0 })
        }

        fn compute(
            &self,
            _: NodeId,
            state: &mut RumorState,
            responses: &mut Vec<Option<Response<()>>>,
            _: &mut PhaseRng,
            _: &mut Vec<()>,
        ) -> NodeControl {
            if responses.iter().any(|r| r.is_some()) {
                state.informed = true;
            }
            NodeControl::Continue
        }

        fn absorb(
            &self,
            _: NodeId,
            s: &mut RumorState,
            _: &mut Vec<()>,
            _: &mut PhaseRng,
        ) -> NodeControl {
            if s.informed {
                NodeControl::Halt
            } else {
                NodeControl::Continue
            }
        }
    }

    #[test]
    fn pull_rumor_reaches_everyone_and_halts() {
        let n = 2048;
        let mut net = Network::new(PullRumor, rumor_states(n), NetworkConfig::with_seed(4));
        let outcome = net.run(300);
        assert!(outcome.all_halted(), "outcome {outcome:?}");
        assert!(net.states().iter().all(|s| s.informed));
        // Work per node per round is at most 1 pull.
        assert!(net.metrics().max_node_work() <= 1);
    }

    #[test]
    fn halted_nodes_stop_working_but_still_serve() {
        let n = 256;
        let mut net = Network::new(PullRumor, rumor_states(n), NetworkConfig::with_seed(5));
        net.run(300);
        // After everyone halts, further rounds generate no work.
        let rm = net.round();
        assert_eq!(rm.pulls, 0);
        assert_eq!(rm.pushes, 0);
        assert_eq!(rm.halted, n as u64);
    }

    #[test]
    fn metrics_track_round_indices() {
        let mut net = Network::new(PushRumor, rumor_states(64), NetworkConfig::with_seed(6));
        for _ in 0..5 {
            net.round();
        }
        let idx: Vec<u64> = net.metrics().rounds.iter().map(|r| r.round).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        assert_eq!(net.round_index(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_panics() {
        let _ = Network::new(PushRumor, vec![], NetworkConfig::with_seed(0));
    }

    // ---- fault models -------------------------------------------------

    use crate::fault::{Bernoulli, Churn, Compose, Delay, Perfect};

    #[test]
    fn zero_rate_fault_models_change_nothing() {
        // Plumbing check: fault models that inject nothing must leave
        // the simulation bit-identical to the Perfect fast path.
        let run = |cfg: NetworkConfig| {
            let mut net = Network::new(PushRumor, rumor_states(512), cfg);
            for _ in 0..20 {
                net.round();
            }
            (net.states().to_vec(), net.metrics().rounds.clone())
        };
        let baseline = run(NetworkConfig::with_seed(21));
        for cfg in [
            NetworkConfig::with_seed(21).fault(Perfect),
            NetworkConfig::with_seed(21).fault(Bernoulli::new(0.0)),
            NetworkConfig::with_seed(21).fault(Churn::crash_recovery(0.0, 0.9)),
            NetworkConfig::with_seed(21).fault(Churn::crash_recovery(0.9, 0.0)),
            NetworkConfig::with_seed(21).fault(Delay::uniform(0)),
            NetworkConfig::with_seed(21).fault(Compose::default()),
        ] {
            assert_eq!(run(cfg), baseline);
        }
    }

    #[test]
    fn loss_slows_the_rumor_but_it_still_spreads() {
        let n = 2048;
        let run = |cfg: NetworkConfig| {
            let mut net = Network::new(PushRumor, rumor_states(n), cfg);
            let outcome = net.run_until(500, |net| net.states().iter().all(|s| s.informed));
            (outcome.rounds(), net.metrics().total_dropped())
        };
        let (perfect_rounds, perfect_dropped) = run(NetworkConfig::with_seed(22));
        let (lossy_rounds, lossy_dropped) =
            run(NetworkConfig::with_seed(22).fault(Bernoulli::new(0.4)));
        assert_eq!(perfect_dropped, 0);
        assert!(lossy_dropped > 0, "faults must be counted");
        assert!(lossy_rounds < 500, "rumor still spreads under 40% loss");
        assert!(
            lossy_rounds > perfect_rounds,
            "loss must not speed things up: {lossy_rounds} vs {perfect_rounds}"
        );
    }

    #[test]
    fn total_loss_stops_all_delivery() {
        let mut net = Network::new(
            PushRumor,
            rumor_states(256),
            NetworkConfig::with_seed(23).fault(Bernoulli::new(1.0)),
        );
        for _ in 0..30 {
            net.round();
        }
        let informed = net.states().iter().filter(|s| s.informed).count();
        assert_eq!(informed, 1, "nothing is ever delivered");
        let sent: u64 = net.states().iter().map(|s| s.pushes_sent).sum();
        assert_eq!(net.metrics().total_dropped(), sent);
    }

    #[test]
    fn delayed_pushes_are_conserved() {
        let mut net = Network::new(
            PushRumor,
            rumor_states(512),
            NetworkConfig::with_seed(24).fault(Delay::between(1, 4)),
        );
        for _ in 0..40 {
            net.round();
        }
        let sent: u64 = net.states().iter().map(|s| s.pushes_sent).sum();
        let recv: u64 = net.states().iter().map(|s| s.received).sum();
        assert_eq!(
            sent,
            recv + net.in_flight() as u64,
            "every push is delivered or still in flight, never duplicated"
        );
        assert!(net.in_flight() > 0, "some messages are mid-flight");
        assert!(net.metrics().total_delayed() > 0);
        assert_eq!(net.metrics().total_dropped(), 0);
        assert!(
            net.states().iter().all(|s| s.informed),
            "delay only defers the rumor"
        );
    }

    #[test]
    fn crash_recovery_churn_still_reaches_everyone() {
        let n = 1024;
        let mut net = Network::new(
            PullRumor,
            rumor_states(n),
            NetworkConfig::with_seed(25).fault(Churn::crash_recovery(0.5, 0.3)),
        );
        let outcome = net.run(600);
        assert!(outcome.all_halted(), "outcome {outcome:?}");
        assert!(net.states().iter().all(|s| s.informed));
        assert!(net.metrics().offline_node_rounds() > 0);
    }

    #[test]
    fn offline_source_emits_nothing() {
        // Every node is down in every round: no pulls, no pushes, no
        // progress — but also no panic and exact fault accounting.
        let mut net = Network::new(
            PushRumor,
            rumor_states(64),
            NetworkConfig::with_seed(26).fault(Churn::crash_recovery(1.0, 1.0)),
        );
        for _ in 0..10 {
            let rm = net.round();
            assert_eq!(rm.pulls, 0);
            assert_eq!(rm.pushes, 0);
            assert_eq!(rm.offline, 64);
        }
        assert_eq!(net.states().iter().filter(|s| s.informed).count(), 1);
    }

    #[test]
    fn faults_are_deterministic_across_parallelism() {
        let n = 4096;
        let fault = || {
            Compose::default()
                .and(Bernoulli::new(0.15))
                .and(Churn::crash_recovery(0.2, 0.25))
                .and(Delay::uniform(3))
        };
        let run = |parallel: bool| {
            let cfg = if parallel {
                NetworkConfig::with_seed(27).parallel_threshold(1)
            } else {
                NetworkConfig::with_seed(27).sequential()
            };
            let mut net = Network::new(PushRumor, rumor_states(n), cfg.fault(fault()));
            for _ in 0..25 {
                net.round();
            }
            (net.states().to_vec(), net.metrics().rounds.clone())
        };
        let (s_par, m_par) = run(true);
        let (s_seq, m_seq) = run(false);
        assert_eq!(s_par, s_seq, "states must be identical");
        assert_eq!(m_par, m_seq, "metrics (incl. fault counters) must match");
        assert!(m_par.iter().any(|r| r.dropped > 0));
        assert!(m_par.iter().any(|r| r.delayed > 0));
        assert!(m_par.iter().any(|r| r.offline > 0));
    }

    // ---- adversarial models ---------------------------------------------

    use crate::fault::{Asymmetric, Byzantine, Partition, Regional};

    /// Every node pushes its own id each round; receivers record the
    /// sender ids, making message provenance observable from outside —
    /// the probe for the crashed-sender delivery semantics.
    struct SenderTagged;

    #[derive(Clone, Debug, PartialEq)]
    struct TagState {
        received: Vec<NodeId>,
    }

    impl Protocol for SenderTagged {
        type State = TagState;
        type Msg = NodeId;
        type Query = ();

        fn pulls(&self, _: NodeId, _: &TagState, _: &mut PhaseRng, _: &mut Vec<()>) {}

        fn serve(
            &self,
            _: NodeId,
            _: &TagState,
            _: &(),
            _: &mut PhaseRng,
        ) -> Option<Served<NodeId>> {
            None
        }

        fn compute(
            &self,
            me: NodeId,
            _: &mut TagState,
            _: &mut Vec<Option<Response<NodeId>>>,
            _: &mut PhaseRng,
            pushes: &mut Vec<NodeId>,
        ) -> NodeControl {
            pushes.push(me);
            NodeControl::Continue
        }

        fn absorb(
            &self,
            _: NodeId,
            state: &mut TagState,
            delivered: &mut Vec<NodeId>,
            _: &mut PhaseRng,
        ) -> NodeControl {
            state.received.extend(delivered.iter().copied());
            NodeControl::Continue
        }
    }

    /// One node fail-stops at a fixed round while every push rides the
    /// delay queue: the minimal reproduction of the fail-stop × delay
    /// interaction.
    #[derive(Debug)]
    struct CrashAtWithDelay {
        node: NodeId,
        crash_round: u64,
        delay: u64,
    }

    impl FaultModel for CrashAtWithDelay {
        fn name(&self) -> &'static str {
            "crash-at-with-delay"
        }
        fn offline(&self, _: u64, round: u64, node: NodeId) -> bool {
            node == self.node && round >= self.crash_round
        }
        fn crashed(&self, seed: u64, round: u64, node: NodeId) -> bool {
            self.offline(seed, round, node)
        }
        fn push_delay(&self, _: u64, _: u64, _: NodeId, _: u64) -> u64 {
            self.delay
        }
        fn max_delay(&self) -> u64 {
            self.delay
        }
    }

    /// Regression pin for the fail-stop × delay semantics: a message
    /// delayed past its sender's crash round is dropped in transit (with
    /// `dropped` accounting), not delivered posthumously. Before the
    /// sender rode along in the delay queue, such messages were
    /// delivered — a crashed node kept speaking for `max_delay` rounds.
    #[test]
    fn messages_delayed_past_their_senders_crash_are_dropped() {
        let n = 8;
        let crash_round = 2;
        let mut net = Network::new(
            SenderTagged,
            vec![TagState { received: vec![] }; n],
            NetworkConfig::with_seed(28).fault(CrashAtWithDelay {
                node: 0,
                crash_round,
                delay: 3,
            }),
        );
        for _ in 0..12 {
            net.round();
        }
        // Node 0 emitted in rounds 0 and 1 (delay 3 ⇒ deliveries due in
        // rounds 3 and 4, both past its crash at round 2): none of its
        // messages may arrive anywhere.
        for (i, s) in net.states().iter().enumerate() {
            assert!(
                !s.received.contains(&0),
                "node {i} received a message from the crashed sender"
            );
            if i != 0 {
                assert!(!s.received.is_empty(), "live traffic still flows");
            }
        }
        // Conservation: every emitted push was delivered, is still in
        // flight, or was dropped with accounting.
        let sent: u64 = net.metrics().total_pushes();
        let recv: u64 = net.states().iter().map(|s| s.received.len() as u64).sum();
        assert_eq!(
            sent,
            recv + net.in_flight() as u64 + net.metrics().total_dropped()
        );
        // Both of node 0's in-flight messages were dropped (plus any
        // addressed to it while down).
        assert!(net.metrics().total_dropped() >= 2);
    }

    #[test]
    fn transiently_offline_senders_messages_still_arrive() {
        // The counterpart pin: crash-*recovery* downtime is not a
        // crash, so `crashed` stays false and in-flight messages from a
        // node that happens to be down at delivery time are delivered.
        let fault = Compose::default()
            .and(Churn::crash_recovery(1.0, 0.4))
            .and(Delay::fixed(2));
        let n = 64;
        let mut net = Network::new(
            SenderTagged,
            vec![TagState { received: vec![] }; n],
            NetworkConfig::with_seed(29).fault(fault),
        );
        for _ in 0..30 {
            net.round();
        }
        let recv: u64 = net.states().iter().map(|s| s.received.len() as u64).sum();
        assert!(recv > 0, "messages must survive transient sender downtime");
        // Drops happen only for offline *destinations*, so conservation
        // still balances.
        let sent: u64 = net.metrics().total_pushes();
        assert_eq!(
            sent,
            recv + net.in_flight() as u64 + net.metrics().total_dropped()
        );
    }

    #[test]
    fn partition_blocks_cross_side_rumor_until_heal() {
        let n = 512;
        let seed = 30;
        let heal = 12;
        let part = Partition::healing(0.5, heal);
        let run = |model: Partition, rounds: u64| {
            let mut net = Network::new(
                PushRumor,
                rumor_states(n),
                NetworkConfig::with_seed(seed).fault(model),
            );
            for _ in 0..rounds {
                net.round();
            }
            net
        };
        // While the cut is active the rumor stays on node 0's side.
        let side0 = part.minority_side(seed, 0);
        let net = run(part, heal - 1);
        for (i, s) in net.states().iter().enumerate() {
            if s.informed && part.minority_side(seed, i as NodeId) != side0 {
                panic!("rumor crossed an active partition at node {i}");
            }
        }
        let deg = net.metrics().degradation;
        assert_eq!(deg.partitioned_rounds, heal - 1);
        assert!(deg.unhealed_partition, "cut still active at the last round");
        assert!(deg.link_cuts > 0, "cross-side pushes must be severed");
        assert_eq!(net.metrics().total_dropped(), deg.link_cuts);
        // After healing the rumor reaches everyone and the final-round
        // partition flag clears.
        let net = run(part, 80);
        assert!(net.states().iter().all(|s| s.informed));
        let deg = net.metrics().degradation;
        assert_eq!(deg.partitioned_rounds, heal);
        assert!(!deg.unhealed_partition);
        // A permanent cut never lets the rumor cross.
        let net = run(Partition::permanent(0.5), 80);
        let crossed = net
            .states()
            .iter()
            .enumerate()
            .any(|(i, s)| s.informed && part.minority_side(seed, i as NodeId) != side0);
        assert!(!crossed, "permanent partitions must never heal");
        assert!(net.metrics().degradation.unhealed_partition);
    }

    #[test]
    fn byzantine_exposures_are_counted_and_survivable() {
        let n = 1024;
        let mut net = Network::new(
            PullRumor,
            rumor_states(n),
            // Corruption below 1.0: even a Byzantine rumor *source*
            // eventually serves one honest answer, so convergence is a
            // question of time, not seed luck.
            NetworkConfig::with_seed(31).fault(Byzantine::new(0.3, 0.7)),
        );
        let outcome = net.run(600);
        // Honest servers still spread the rumor to everyone.
        assert!(outcome.all_halted(), "outcome {outcome:?}");
        assert!(net.states().iter().all(|s| s.informed));
        let deg = net.metrics().degradation;
        assert!(deg.byzantine_exposures > 0, "corruptions must be recorded");
        // Every exposure is also accounted as a dropped message, and
        // the per-round serve words still charge the Byzantine server
        // for the corrupted answer it produced.
        assert_eq!(net.metrics().total_dropped(), deg.byzantine_exposures);
        assert!(net.metrics().total_served() > deg.byzantine_exposures);
    }

    #[test]
    fn regional_outages_take_whole_blocks_offline() {
        let n = 512;
        let mut net = Network::new(
            PullRumor,
            rumor_states(n),
            NetworkConfig::with_seed(32).fault(Regional::new(64, 0.2)),
        );
        let outcome = net.run(600);
        assert!(outcome.all_halted(), "outcome {outcome:?}");
        assert!(net.metrics().offline_node_rounds() > 0);
        // Outages arrive in whole blocks: every round's offline count is
        // a multiple of the block size.
        for rm in &net.metrics().rounds {
            assert_eq!(rm.offline % 64, 0, "round {}: {}", rm.round, rm.offline);
        }
    }

    #[test]
    fn adversarial_models_are_deterministic_across_parallelism() {
        let n = 4096;
        let fault = || {
            Compose::default()
                .and(Partition::healing(0.4, 8))
                .and(Regional::new(128, 0.1))
                .and(Asymmetric::new(0.3, 0.5, 0.3))
                .and(Byzantine::new(0.15, 0.6))
        };
        let run = |parallel: bool| {
            let cfg = if parallel {
                NetworkConfig::with_seed(34).parallel_threshold(1)
            } else {
                NetworkConfig::with_seed(34).sequential()
            };
            let mut net = Network::new(PullRumor, rumor_states(n), cfg.fault(fault()));
            for _ in 0..25 {
                net.round();
            }
            (
                net.states().to_vec(),
                net.metrics().rounds.clone(),
                net.metrics().degradation,
            )
        };
        let (s_par, m_par, d_par) = run(true);
        let (s_seq, m_seq, d_seq) = run(false);
        assert_eq!(s_par, s_seq, "states must be identical");
        assert_eq!(m_par, m_seq, "metrics must be identical");
        assert_eq!(d_par, d_seq, "degradation tallies must be identical");
        assert!(d_par.link_cuts > 0);
        assert!(d_par.byzantine_exposures > 0);
        assert_eq!(d_par.partitioned_rounds, 8);
    }

    // ---- topologies -----------------------------------------------------

    use crate::topology::{Complete as CompleteTopo, Hypercube, RandomRegular, Ring, Torus2D};
    use crate::topology::{IntoTopology, Topology};

    #[test]
    fn explicit_complete_topology_is_bit_identical_to_the_default() {
        // The Complete fast path must be the pre-topology draw path:
        // installing it explicitly changes nothing, under either
        // schedule.
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let run = |cfg: NetworkConfig| {
                let mut net = Network::new(PushRumor, rumor_states(512), cfg);
                for _ in 0..20 {
                    net.round();
                }
                (net.states().to_vec(), net.metrics().rounds.clone())
            };
            let implicit = run(NetworkConfig::with_seed(33).rng_schedule(schedule));
            let explicit = run(NetworkConfig::with_seed(33)
                .rng_schedule(schedule)
                .topology(CompleteTopo));
            assert_eq!(implicit, explicit, "{schedule:?}");
        }
    }

    #[test]
    fn rumor_spreads_on_every_builtin_topology() {
        let n = 1024;
        let topologies: [Arc<dyn Topology>; 4] = [
            Hypercube.into_topology(),
            RandomRegular(8).into_topology(),
            Ring(8).into_topology(),
            Torus2D.into_topology(),
        ];
        for topo in topologies {
            for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
                let name = topo.name();
                let cfg = NetworkConfig::with_seed(9)
                    .rng_schedule(schedule)
                    .topology(Arc::clone(&topo));
                let mut net = Network::new(PushRumor, rumor_states(n), cfg);
                // Sparse overlays (ring diameter n/2k, torus √n) need
                // more rounds than the complete graph's Θ(log n).
                let outcome = net.run_until(2_000, |net| net.states().iter().all(|s| s.informed));
                assert!(
                    matches!(outcome, RunOutcome::Predicate { .. }),
                    "{name} ({schedule:?}): rumor did not saturate"
                );
            }
        }
    }

    #[test]
    fn topology_runs_are_deterministic_across_parallelism() {
        let n = 6000; // above the default parallel threshold
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let run = |parallel: bool| {
                let cfg = if parallel {
                    NetworkConfig::with_seed(37).parallel_threshold(1)
                } else {
                    NetworkConfig::with_seed(37).sequential()
                };
                let cfg = cfg.rng_schedule(schedule).topology(RandomRegular(6));
                let mut net = Network::new(PushRumor, rumor_states(n), cfg);
                for _ in 0..25 {
                    net.round();
                }
                (net.states().to_vec(), net.metrics().rounds.clone())
            };
            assert_eq!(run(true), run(false), "{schedule:?}");
        }
    }

    #[test]
    fn sparse_topologies_slow_the_rumor_down() {
        // Convergence-round inflation is the whole point of the seam: a
        // k=1 ring (diameter n/2) must take far longer than the
        // complete graph at the same seed.
        let n = 512;
        let rounds = |cfg: NetworkConfig| {
            let mut net = Network::new(PushRumor, rumor_states(n), cfg);
            net.run_until(5_000, |net| net.states().iter().all(|s| s.informed))
                .rounds()
        };
        let complete = rounds(NetworkConfig::with_seed(12));
        let ring = rounds(NetworkConfig::with_seed(12).topology(Ring(1)));
        assert!(
            ring > 4 * complete,
            "ring {ring} vs complete {complete}: no inflation?"
        );
    }

    #[test]
    fn topology_draws_stay_within_the_neighbor_set() {
        // Every delivered push must travel along an edge of the arena.
        // PushRumor's token is the sender's id + 1, so the inbox traffic
        // itself witnesses the draw. (The exhaustive property test over
        // all topologies × schedules × stepping modes lives in the
        // workspace-level tests/properties.rs.)
        struct SenderRumor;
        impl Protocol for SenderRumor {
            type State = (bool, Vec<u32>);
            type Msg = u32;
            type Query = ();
            fn pulls(&self, _: NodeId, _: &Self::State, _: &mut PhaseRng, _: &mut Vec<()>) {}
            fn serve(
                &self,
                _: NodeId,
                _: &Self::State,
                _: &(),
                _: &mut PhaseRng,
            ) -> Option<Served<u32>> {
                None
            }
            fn compute(
                &self,
                me: NodeId,
                state: &mut Self::State,
                _: &mut Vec<Option<Response<u32>>>,
                _: &mut PhaseRng,
                pushes: &mut Vec<u32>,
            ) -> NodeControl {
                if state.0 {
                    pushes.push(me);
                }
                NodeControl::Continue
            }
            fn absorb(
                &self,
                _: NodeId,
                state: &mut Self::State,
                delivered: &mut Vec<u32>,
                _: &mut PhaseRng,
            ) -> NodeControl {
                state.0 |= !delivered.is_empty();
                state.1.append(delivered);
                NodeControl::Continue
            }
        }
        let n = 300;
        let topo = Torus2D;
        let arena = topo.build(n, 41).expect("arena");
        for schedule in [RngSchedule::V1Compat, RngSchedule::V2Batched] {
            let states: Vec<_> = (0..n).map(|i| (i == 0, Vec::new())).collect();
            let cfg = NetworkConfig::with_seed(41)
                .rng_schedule(schedule)
                .topology(topo);
            let mut net = Network::new(SenderRumor, states, cfg);
            for _ in 0..60 {
                net.round();
            }
            let mut deliveries = 0usize;
            for (dest, state) in net.states().iter().enumerate() {
                for &sender in &state.1 {
                    deliveries += 1;
                    assert!(
                        arena.contains(sender as usize, dest as u32),
                        "{schedule:?}: push {sender} → {dest} off-topology"
                    );
                }
            }
            assert!(deliveries > n, "{schedule:?}: too little traffic to trust");
        }
    }

    /// Conservation through the pooled, swap-recycled delay queue: no
    /// message is duplicated or lost by slot recycling. (The exact
    /// before/after trajectory pins live in the workspace-level
    /// tests/determinism.rs, via the seed-engine-captured op counts.)
    #[test]
    fn delay_queue_pooling_conserves_messages() {
        let mut net = Network::new(
            PushRumor,
            rumor_states(512),
            NetworkConfig::with_seed(24).fault(Delay::between(1, 4)),
        );
        for _ in 0..40 {
            net.round();
        }
        let sent: u64 = net.states().iter().map(|s| s.pushes_sent).sum();
        let recv: u64 = net.states().iter().map(|s| s.received).sum();
        assert_eq!(sent, recv + net.in_flight() as u64);
        assert_eq!(net.metrics().total_delayed(), sent);
    }
}
