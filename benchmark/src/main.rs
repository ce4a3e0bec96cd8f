//! `lpt-benchmark` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload lowload-med --seed 1 --seconds 20 --trace 0 [--negative-control]
//! ```
//!
//! `--trace 0` times the public entry points (`Driver::run` /
//! `run_ground`, or `Client::solve` against an in-process server) with
//! recording off and prints the end-to-end metrics. `--trace 1` makes
//! the traced run instead and prints the per-layer metrics. Every
//! answer is checked by an oracle; `--negative-control` feeds the
//! oracle perturbed answers, which must all count as failed.
//!
//! Output: a `host` line, then one JSON result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `benchmark/README.md` for the workloads and the metric map.

mod library;
mod metered;
mod oracle;
mod serve;
mod util;

use library::{Family, LibWorkload};
use lpt_gossip::driver::Algorithm;
use lpt_workloads::med::MedDataset;
use lpt_workloads::{Scenario, TopologyPreset};
use std::fmt::Write as _;
use std::time::Duration;
use util::{Metrics, Tally};

/// The end-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: [(&str, &str); 10] = [
    ("solve_p50_ms", "ms"),
    ("rounds_mean", "rounds"),
    ("msgs_per_node_round", "msgs"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
    ("hit_p50_us", "us"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
];

/// The per-layer metrics every `--trace 1` run prints, with units. A
/// layer a workload does not pass through reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("driver.run_ms", "ms"),
    ("driver.parallel_speedup", "ratio"),
    ("driver.scatter_ms", "ms"),
    ("driver.unattributed_ms", "ms"),
    ("ledger.unattributed_frac", "fraction"),
    ("topology.build_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("net.pull_ms", "ms"),
    ("net.serve_ms", "ms"),
    ("net.compute_ms", "ms"),
    ("net.deliver_ms", "ms"),
    ("net.absorb_ms", "ms"),
    ("net.refill_ms", "ms"),
    ("net.pulls", "count"),
    ("net.pushes", "count"),
    ("net.dropped", "count"),
    ("net.delayed", "count"),
    ("event.tick_ms", "ms"),
    ("event.pops", "count"),
    ("event.pops_per_tick_max", "count"),
    ("event.heap_depth_max", "count"),
    ("event.serialization_stalls", "count"),
    ("kernel.basis_of_calls", "count"),
    ("kernel.violates_calls", "count"),
    ("kernel.violates_hit_ratio", "fraction"),
    ("kernel.basis_of_ms", "ms"),
    ("kernel.violates_ms", "ms"),
    ("kernel.values_close_calls", "count"),
    ("kernel.values_close_ms", "ms"),
    ("request.parse_us", "us"),
    ("cache.lookup_us", "us"),
    ("registry.execute_ms", "ms"),
    ("server.queue_wait_p50_us", "us"),
    ("server.handle_p50_us", "us"),
    ("wire.transport_p50_us", "us"),
    ("client.hit_p99_us", "us"),
    ("cache.hit_ratio", "fraction"),
    ("cache.bytes", "bytes"),
    ("cache.evictions", "count"),
    ("trace.overhead_frac", "fraction"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_per_wall", "ratio"),
    ("host.nproc", "count"),
    ("host.pool_threads", "count"),
];

const WORKLOADS: [&str; 4] = ["lowload-med", "highload-wan", "event-hs", "serve-mix"];

fn library_workload(name: &str) -> Option<LibWorkload> {
    match name {
        "lowload-med" => Some(LibWorkload {
            n: 4096,
            family: Family::Med {
                dataset: MedDataset::TripleDisk,
                elements_per_node: 1,
            },
            algorithm: Algorithm::low_load(),
            scenario: Scenario::Perfect,
            topology: TopologyPreset::Complete,
            engine: "round-sync",
            instances: 4,
        }),
        "highload-wan" => Some(LibWorkload {
            n: 4096,
            family: Family::Med {
                dataset: MedDataset::DuoDisk,
                elements_per_node: 16,
            },
            algorithm: Algorithm::high_load(),
            scenario: Scenario::Wan,
            topology: TopologyPreset::RandomRegular8,
            engine: "round-sync",
            instances: 5,
        }),
        "event-hs" => Some(LibWorkload {
            n: 1024,
            family: Family::PlantedHs {
                elements: 2048,
                sets: 1024,
                d: 3,
                set_size: 6,
            },
            algorithm: Algorithm::hitting_set(3),
            scenario: Scenario::Perfect,
            topology: TopologyPreset::Complete,
            engine: "event-uniform-1-4",
            instances: 8,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    negative: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        negative: args.iter().any(|a| a == "--negative-control"),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the numbers came from: core count, pool width, toolchain and
/// commit. Results from hosts with different core counts are not
/// comparable (`benchmark/spread.py` refuses to compare them).
fn host_line() -> String {
    format!(
        "{{\"host\":{{\"nproc\":{},\"pool_threads\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}}}",
        nproc(),
        rayon::current_num_threads(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_COMMIT"),
    )
}

/// Renders the result line: exactly the listed metrics, in list order
/// (a metric the workload did not produce reads 0).
fn result_line(tally: &Tally, metrics: &Metrics, names: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let found = metrics.0.iter().find(|m| m.name == *name);
        if let Some(m) = found {
            assert_eq!(m.unit, *unit, "unit of {name}");
        }
        let value = found.map_or(0.0, |m| m.value);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("[benchmark] {e}");
        eprintln!(
            "usage: lpt-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--negative-control]"
        );
        std::process::exit(2);
    });
    let window = Duration::from_secs(args.seconds);
    let (tally, mut metrics) = match (library_workload(&args.workload), args.trace) {
        (Some(w), false) => w.run(args.seed, window, args.negative),
        (Some(w), true) => w.trace(args.seed, window, args.negative),
        (None, false) => serve::run(args.seed, window, args.negative),
        (None, true) => serve::trace(args.seed, window, args.negative),
    };
    let names: &[(&str, &str)] = if args.trace {
        metrics.put("host.nproc", nproc() as f64, "count");
        metrics.put(
            "host.pool_threads",
            rayon::current_num_threads() as f64,
            "count",
        );
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", host_line());
    println!("{}", result_line(&tally, &metrics, names));
}
