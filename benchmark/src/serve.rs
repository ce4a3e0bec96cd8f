//! The `serve-mix` workload: an in-process `lpt-server` on loopback
//! under a closed loop of one client session.
//!
//! The session sends its next batch of `solve`s only after the previous
//! batch's last reply byte arrived. Its seeded stream repeats a few hot
//! small specs (primed during set-up, so every repeat is a cache hit)
//! and sends a distinct cold spec every `COLD_EVERY`-th request:
//! low-load MED specs and planted hitting-set specs, two to one. Every
//! hit must replay the primed bytes; every cold reply is checked by the
//! oracle after the window closes.
//!
//! One session, not several: with two, nearly every hit ran while the
//! other session's cold run held a core, so hit latency measured how
//! the scheduler placed three busy threads on two cores and moved by
//! half between runs of the same code.

use crate::oracle;
use crate::util::{self, mean, median, mix, quantile, timed, Metrics, Tally};
use gossip_sim::export::{Frame, Json, RunSummary};
use lpt_gossip::spec::AlgorithmSpec;
use lpt_problems::MedValue;
use lpt_server::registry::{self, PLANTED_D, PLANTED_SET_SIZE};
use lpt_server::{
    parse_request, solve_request_line, Client, Lookup, ReportCache, RunSpecKey, Server,
    ServerConfig, ServerHandle,
};
use lpt_workloads::med::MedDataset;
use lpt_workloads::sets::planted_hitting_set;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const HOT_SPECS: u64 = 8;
const COLD_EVERY: u64 = 50;
const SETUP_REPS: usize = 5;

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        engine_threads: 1,
        ..ServerConfig::default()
    }
}

fn hot_key(seed: u64, i: u64) -> RunSpecKey {
    RunSpecKey::new("duo-disk", 256, 64, mix(seed, 0x686f_7400 + i))
}

/// The `k`-th cold spec: two low-load MED specs, then one
/// planted hitting-set spec. The two kinds cost about 140 ms and 30 ms,
/// so an even mix would put the cold median in the gap between them,
/// where it jumps from run to run.
fn cold_key(seed: u64, k: u64) -> RunSpecKey {
    let spec_seed = mix(seed, (1 << 40) | k);
    if k % 3 != 2 {
        RunSpecKey::new("duo-disk", 1024, 256, spec_seed)
    } else {
        let mut key = RunSpecKey::new("planted-hs", 512, 256, spec_seed);
        key.algorithm = AlgorithmSpec::HittingSet {
            d: PLANTED_D as u64,
        };
        key
    }
}

/// The `r`-th request of the stream.
fn request(seed: u64, r: u64) -> (RunSpecKey, bool) {
    if (r + 1) % COLD_EVERY == 0 {
        (cold_key(seed, r / COLD_EVERY), true)
    } else {
        let pick = mix(seed, (1 << 48) | r) % HOT_SPECS;
        (hot_key(seed, pick), false)
    }
}

/// One answered request as the client saw it.
struct Answer {
    key: RunSpecKey,
    cold: bool,
    latency_us: f64,
    /// The reply bytes of a cold request. A hit's bytes are compared
    /// with the primed reply as they arrive and dropped, so the run's
    /// memory stays the server's rather than the benchmark's.
    raw: Vec<u8>,
    /// On a hit: whether its bytes equal the primed reply.
    replayed: bool,
    summary: Option<RunSummary>,
    error: bool,
    /// The `trace` frame, on traced requests.
    trace: Option<Json>,
}

/// A running server with its primed hot replies.
struct Setup {
    server: ServerHandle,
    client: Client,
    primed: HashMap<String, Vec<u8>>,
}

fn setup(seed: u64) -> Setup {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind a loopback port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let primed = (0..HOT_SPECS)
        .map(|i| {
            let key = hot_key(seed, i);
            let reply = client.solve(&key).expect("prime a hot spec");
            assert!(reply.error.is_none(), "hot spec failed: {:?}", reply.error);
            (key.canonical(), reply.raw)
        })
        .collect();
    Setup {
        server,
        client,
        primed,
    }
}

/// Closes the session, drains the server and hands back the primed
/// replies.
fn stop(setup: Setup) -> HashMap<String, Vec<u8>> {
    drop(setup.client);
    setup.server.shutdown();
    setup.server.wait();
    setup.primed
}

/// One reply as read off the wire: its bytes, its summary, whether it
/// was an error frame, and the `trace` frame on traced requests.
type Reply = (Vec<u8>, Option<RunSummary>, bool, Option<Json>);

/// Sends `keys` in one pipelined write and reads their replies in
/// order, parsing every frame as `Client::solve` does. With `trace`
/// each request carries `"trace":true` and each reply is followed by
/// its `trace` frame.
fn exchange(client: &mut Client, keys: &[RunSpecKey], trace: bool) -> Vec<Reply> {
    let lines: Vec<String> = keys
        .iter()
        .map(|key| {
            let line = solve_request_line(key);
            if trace {
                format!("{},\"trace\":true}}", &line[..line.len() - 1])
            } else {
                line
            }
        })
        .collect();
    // `raw_line` writes the whole batch and returns the first reply line.
    let mut next = Some(client.raw_line(&lines.join("\n")).expect("solve batch"));
    let mut read = move |client: &mut Client| {
        next.take()
            .unwrap_or_else(|| client.raw_wait_line().expect("reply frame"))
    };
    keys.iter()
        .map(|_| {
            let mut raw = Vec::new();
            loop {
                let line = read(client);
                raw.extend_from_slice(line.as_bytes());
                let (summary, error) = match Frame::parse(line.trim_end()).expect("reply frame") {
                    Frame::Summary(s) => (Some(s), false),
                    Frame::Error(_) => (None, true),
                    _ => continue,
                };
                let frame = trace.then(|| {
                    let line = read(client);
                    Json::parse(line.trim_end()).expect("trace frame json")
                });
                return (raw, summary, error, frame);
            }
        })
        .collect()
}

/// Runs the session's closed loop until the window closes. The hot
/// requests between two cold ones go out as one pipelined batch, each
/// cold request alone; every request is charged its batch's wall time
/// divided by the batch size. A lone hit's round trip on loopback is
/// mostly two thread wake-ups, which measures the host's scheduler
/// rather than the server; a batch measures the work of serving hits.
fn drive(
    seed: u64,
    client: &mut Client,
    primed: &HashMap<String, Vec<u8>>,
    window: Duration,
    trace: bool,
) -> (Vec<Answer>, Duration) {
    let started = Instant::now();
    let mut answers = Vec::new();
    let mut r = 0;
    while started.elapsed() < window {
        let (first, cold) = request(seed, r);
        let batch: Vec<RunSpecKey> = if cold {
            vec![first]
        } else {
            (r..)
                .map(|i| request(seed, i))
                .take_while(|(_, cold)| !cold)
                .map(|(key, _)| key)
                .collect()
        };
        r += batch.len() as u64;
        let t = Instant::now();
        let replies = exchange(client, &batch, trace);
        let latency_us = t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
        answers.extend(batch.into_iter().zip(replies).map(
            |(key, (raw, summary, error, trace))| Answer {
                replayed: !cold && primed.get(&key.canonical()) == Some(&raw),
                raw: if cold { raw } else { Vec::new() },
                key,
                cold,
                latency_us,
                summary,
                error,
                trace,
            },
        ));
    }
    (answers, started.elapsed())
}

/// The oracle verdict on one cold reply's rendered consensus.
fn check_cold(
    key: &RunSpecKey,
    consensus: Option<&str>,
    optima: &mut HashMap<u64, MedValue>,
) -> Result<(), String> {
    if key.workload == "planted-hs" {
        let elements = key.elements as usize;
        let sets = (elements / 2).max(4);
        let (sys, _) = planted_hitting_set(elements, sets, PLANTED_D, PLANTED_SET_SIZE, key.seed);
        oracle::check_hs_wire(&sys, consensus)
    } else {
        let optimum = optima.entry(key.seed).or_insert_with(|| {
            let dataset = MedDataset::parse(&key.workload).expect("a MED workload");
            oracle::med_optimum(&dataset.generate(key.elements as usize, key.seed))
        });
        oracle::check_med_r2(consensus, optimum)
    }
}

/// Checks every answer: no error frames, hits replay the primed bytes,
/// cold replies pass the oracle. Also self-tests the oracle on a
/// perturbed copy of the first cold answer.
fn check_all(answers: &[Answer], negative: bool) -> Tally {
    let mut tally = Tally::default();
    let mut optima = HashMap::new();
    let mut self_tested = false;
    for a in answers {
        if a.error {
            tally.record(
                "reply",
                Err(format!("error frame for {}", a.key.canonical())),
            );
            continue;
        }
        if !a.cold {
            tally.record(
                "hit",
                if a.replayed {
                    Ok(())
                } else {
                    Err("hit bytes differ".into())
                },
            );
            continue;
        }
        let consensus = a.summary.as_ref().and_then(|s| s.consensus.clone());
        let shown = if negative {
            consensus.as_deref().map(oracle::perturb_wire)
        } else {
            consensus.clone()
        };
        tally.record("cold", check_cold(&a.key, shown.as_deref(), &mut optima));
        if !self_tested {
            self_tested = true;
            let wrong = consensus.as_deref().map(oracle::perturb_wire);
            let rejected = check_cold(&a.key, wrong.as_deref(), &mut optima).is_err();
            tally.record(
                "negative control",
                if rejected {
                    Ok(())
                } else {
                    Err("the oracle accepted a perturbed answer".into())
                },
            );
        }
    }
    tally
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, window: Duration, negative: bool) -> (Tally, Metrics) {
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            stop(previous);
        }
        let (s, d) = timed(|| setup(seed));
        setups.push(d.as_secs_f64());
        live = Some(s);
    }
    let mut live = live.expect("set up at least once");
    let (answers, wall) = drive(seed, &mut live.client, &live.primed, window, false);
    stop(live);

    let tally = check_all(&answers, negative);
    let all: Vec<f64> = answers.iter().map(|a| a.latency_us).collect();
    let hits: Vec<f64> = answers
        .iter()
        .filter(|a| !a.cold)
        .map(|a| a.latency_us)
        .collect();
    let cold: Vec<f64> = answers
        .iter()
        .filter(|a| a.cold)
        .map(|a| a.latency_us / 1e3)
        .collect();
    let summaries: Vec<&RunSummary> = answers
        .iter()
        .filter(|a| a.cold)
        .filter_map(|a| a.summary.as_ref())
        .collect();
    let rounds: Vec<f64> = summaries.iter().map(|s| s.rounds as f64).collect();
    let msgs: u64 = summaries
        .iter()
        .map(|s| s.total_pulls + s.total_pushes)
        .sum();
    let node_rounds: u64 = answers
        .iter()
        .filter(|a| a.cold)
        .filter_map(|a| a.summary.as_ref().map(|s| a.key.n * s.rounds))
        .sum();
    let by_kind = |kind: &str| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.cold && a.key.workload == kind)
            .map(|a| a.latency_us / 1e3)
            .collect()
    };
    eprintln!(
        "[benchmark] {} requests ({} hits, {} cold) in {:.2} s; cold p50 duo-disk {:.1} ms, planted-hs {:.1} ms",
        answers.len(),
        hits.len(),
        cold.len(),
        wall.as_secs_f64(),
        median(&by_kind("duo-disk")),
        median(&by_kind("planted-hs")),
    );

    let mut m = Metrics::default();
    m.put("solve_p50_ms", median(&all) / 1e3, "ms");
    m.put("rounds_mean", mean(&rounds), "rounds");
    m.put(
        "msgs_per_node_round",
        msgs as f64 / node_rounds.max(1) as f64,
        "msgs",
    );
    m.put("ok_frac", tally.ok_frac(), "fraction");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    m.put(
        "req_per_s",
        answers.len() as f64 / wall.as_secs_f64(),
        "1/s",
    );
    m.put("hit_p50_us", median(&hits), "us");
    m.put("cold_p50_ms", median(&cold), "ms");
    m.put("cold_p90_ms", quantile(&cold, 0.9), "ms");
    (tally, m)
}

fn field(frame: &Json, name: &str) -> f64 {
    frame.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Times `parse_request` on request lines and `ReportCache` hits on the
/// primed replies, in process.
fn decode_and_cache_us(seed: u64, primed: &HashMap<String, Vec<u8>>) -> (f64, f64) {
    let lines: Vec<String> = (0..200)
        .map(|r| solve_request_line(&request(seed, r).0))
        .collect();
    let parse_us: Vec<f64> = lines
        .iter()
        .map(|l| {
            timed(|| parse_request(l).expect("valid request"))
                .1
                .as_secs_f64()
                * 1e6
        })
        .collect();
    let cache = ReportCache::new(config().cache_capacity);
    let keys: Vec<RunSpecKey> = (0..HOT_SPECS).map(|i| hot_key(seed, i)).collect();
    for key in &keys {
        match cache.lookup(key) {
            Lookup::Miss(guard) => {
                guard.fulfill(primed[&key.canonical()].clone());
            }
            _ => unreachable!("a fresh cache misses"),
        }
    }
    let lookup_us: Vec<f64> = (0..200)
        .map(|r| {
            let key = &keys[r % keys.len()];
            let (hit, d) = timed(|| cache.lookup(key));
            assert!(matches!(hit, Lookup::Hit { .. }), "primed keys hit");
            d.as_secs_f64() * 1e6
        })
        .collect();
    (median(&parse_us), median(&lookup_us))
}

/// The traced run: the same request stream untraced on one fresh server
/// and traced on another. Reply bytes must match key by key; per-layer
/// numbers come from the traced half's `trace` frames, the `metrics`
/// frame, and in-process calls into the decode, cache and registry
/// layers.
pub fn trace(seed: u64, window: Duration, negative: bool) -> (Tally, Metrics) {
    let half = window / 2;
    let mut plain = setup(seed);
    let cpu0 = util::cpu_seconds();
    let (plain_answers, plain_wall) = drive(seed, &mut plain.client, &plain.primed, half, false);
    let cpu_s = util::cpu_seconds() - cpu0;
    stop(plain);

    let mut traced = setup(seed);
    let (answers, wall) = drive(seed, &mut traced.client, &traced.primed, half, true);
    let metrics_frame = traced
        .client
        .metrics_line()
        .map(|l| Json::parse(&l).expect("metrics frame json"))
        .expect("metrics frame");
    let primed = stop(traced);

    let mut tally = check_all(&answers, negative);
    let plain_bytes: HashMap<String, &Vec<u8>> = plain_answers
        .iter()
        .filter(|a| a.cold)
        .map(|a| (a.key.canonical(), &a.raw))
        .collect();
    for a in answers.iter().filter(|a| a.cold) {
        if let Some(bytes) = plain_bytes.get(&a.key.canonical()) {
            let same = *bytes == &a.raw;
            tally.record(
                "traced reply",
                if same {
                    Ok(())
                } else {
                    Err("traced reply bytes differ".into())
                },
            );
        }
    }

    let frames: Vec<(&Answer, &Json)> = answers
        .iter()
        .filter_map(|a| Some((a, a.trace.as_ref()?)))
        .collect();
    let handle_us: Vec<f64> = frames.iter().map(|(_, f)| field(f, "wall_us")).collect();
    let transport_us: Vec<f64> = frames
        .iter()
        .map(|(a, f)| a.latency_us - field(f, "wall_us"))
        .collect();
    let cold: Vec<&Json> = frames
        .iter()
        .filter(|(a, _)| a.cold)
        .map(|(_, f)| *f)
        .collect();
    let queue_us: Vec<f64> = cold.iter().map(|f| field(f, "queue_us")).collect();
    let hits: Vec<f64> = answers
        .iter()
        .filter(|a| !a.cold)
        .map(|a| a.latency_us)
        .collect();
    let per_cold = |name: &str| {
        cold.iter().map(|f| field(f, name)).sum::<f64>() / cold.len().max(1) as f64 / 1e3
    };

    let cold_keys: Vec<&RunSpecKey> = answers
        .iter()
        .filter(|a| a.cold)
        .map(|a| &a.key)
        .take(4)
        .collect();
    let execute_ms: Vec<f64> = cold_keys
        .iter()
        .map(|k| timed(|| registry::execute(k)).1.as_secs_f64() * 1e3)
        .collect();
    let (parse_us, lookup_us) = decode_and_cache_us(seed, &primed);
    let per_request = |wall: Duration, n: usize| wall.as_secs_f64() / n.max(1) as f64;

    let mut m = Metrics::default();
    for (name, phase) in [
        ("net.pull_ms", "phase_pull_us"),
        ("net.serve_ms", "phase_serve_us"),
        ("net.compute_ms", "phase_compute_us"),
        ("net.deliver_ms", "phase_deliver_us"),
        ("net.absorb_ms", "phase_absorb_us"),
        ("net.refill_ms", "phase_refill_us"),
        ("event.tick_ms", "phase_tick_us"),
    ] {
        m.put(name, per_cold(phase), "ms");
    }
    let summaries: Vec<&RunSummary> = answers
        .iter()
        .filter(|a| a.cold)
        .filter_map(|a| a.summary.as_ref())
        .collect();
    let per_summary = |f: fn(&RunSummary) -> u64| {
        summaries.iter().map(|s| f(s) as f64).sum::<f64>() / summaries.len().max(1) as f64
    };
    m.put("net.pulls", per_summary(|s| s.total_pulls), "count");
    m.put("net.pushes", per_summary(|s| s.total_pushes), "count");
    m.put("net.dropped", per_summary(|s| s.dropped), "count");
    m.put("net.delayed", per_summary(|s| s.delayed), "count");
    m.put("request.parse_us", parse_us, "us");
    m.put("cache.lookup_us", lookup_us, "us");
    m.put("registry.execute_ms", median(&execute_ms), "ms");
    m.put("server.queue_wait_p50_us", median(&queue_us), "us");
    m.put("server.handle_p50_us", median(&handle_us), "us");
    m.put("wire.transport_p50_us", median(&transport_us), "us");
    m.put(
        "ledger.unattributed_frac",
        median(&transport_us)
            / median(&frames.iter().map(|(a, _)| a.latency_us).collect::<Vec<_>>()),
        "fraction",
    );
    m.put("client.hit_p99_us", quantile(&hits, 0.99), "us");
    let (hits_total, misses_total) = (
        field(&metrics_frame, "hits_total"),
        field(&metrics_frame, "misses_total"),
    );
    m.put(
        "cache.hit_ratio",
        hits_total / (hits_total + misses_total).max(1.0),
        "fraction",
    );
    m.put("cache.bytes", field(&metrics_frame, "cache_bytes"), "bytes");
    m.put(
        "cache.evictions",
        field(&metrics_frame, "cache_evictions_total"),
        "count",
    );
    m.put(
        "trace.overhead_frac",
        per_request(wall, answers.len()) / per_request(plain_wall, plain_answers.len()) - 1.0,
        "fraction",
    );
    m.put("proc.cpu_s", cpu_s, "s");
    m.put(
        "proc.cpu_per_wall",
        cpu_s / plain_wall.as_secs_f64(),
        "ratio",
    );
    (tally, m)
}
