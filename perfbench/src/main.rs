//! The repository's benchmark: one command runs a named workload with a
//! seed, checks the engine's outputs, and prints every metric by name with
//! its unit. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics of a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vision-b1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for every metric's definition, the layer to
//! end-to-end map and why each workload exists.

mod decode;
mod engine;
mod host;
mod inference;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The seed the benchmark was written against; any other seed is a
/// held-out seed.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics reported on the last line with `--trace 0`: the ones
/// every workload has and that hold steady from run to run (see README.md
/// for what each means per workload, and for the ones left off).
const END_TO_END: [&str; 3] = ["setup_s", "latency_gmean_ms", "peak_rss_mb"];

/// Per-layer metrics reported on the last line with `--trace 1`, with
/// their units. A workload that does not exercise a layer reports 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("io.import_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("core.rewrite_applied", "count"),
    ("core.plan_ms", "ms"),
    ("core.plan_blocks", "count"),
    ("profiledb.hits", "count"),
    ("profiledb.misses", "count"),
    ("core.codegen_ms", "ms"),
    ("core.instance_ms", "ms"),
    ("core.instance_builds", "count"),
    ("runtime.plan_cache_lookup_us", "us"),
    ("runtime.plan_cache_hit_ratio", "ratio"),
    ("runtime.seed_replay_ms", "ms"),
    ("runtime.weights_build_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.kernel_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.schedule_ms", "ms"),
    ("simdev.accounting_ms", "ms"),
    ("ops.conv.ms", "ms"),
    ("ops.conv.share", "ratio"),
    ("ops.conv.gflops", "GFLOP/s"),
    ("ops.conv.gbps", "GB/s"),
    ("ops.matmul.ms", "ms"),
    ("ops.matmul.share", "ratio"),
    ("ops.matmul.gflops", "GFLOP/s"),
    ("ops.matmul.gbps", "GB/s"),
    ("ops.pool.ms", "ms"),
    ("ops.pool.share", "ratio"),
    ("ops.pool.gflops", "GFLOP/s"),
    ("ops.pool.gbps", "GB/s"),
    ("ops.tape.ms", "ms"),
    ("ops.tape.share", "ratio"),
    ("ops.tape.gflops", "GFLOP/s"),
    ("ops.tape.gbps", "GB/s"),
    ("ops.fallback.ms", "ms"),
    ("ops.fallback.share", "ratio"),
    ("ops.fallback.gflops", "GFLOP/s"),
    ("ops.fallback.gbps", "GB/s"),
    ("ops.top_block_share", "ratio"),
    ("runtime.decode.prefill_ms", "ms"),
    ("runtime.decode.step_run_ms", "ms"),
    ("runtime.decode.step_slope_us_per_pos", "us"),
    ("serve.submit_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.mean_coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("host.copy_gbps", "GB/s"),
    ("host.madd_gflops", "GFLOP/s"),
    ("trace.overhead_pct", "%"),
];

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Requests (inferences, generated tokens, served requests) attempted.
    pub attempted: u64,
    /// Failed, refused or wrong-output requests, plus failed oracle checks.
    pub failed: u64,
    /// End-to-end metrics, under the names README.md defines. Each
    /// workload reads `peak_rss_mb` when its timed loop ends, before any
    /// output check that runs after the loop.
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Facts about the run worth recording (tail percentile, counts).
    pub notes: Vec<(String, String)>,
}

/// The run's command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where the run writes its trace and scratch files, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = engine::executor().options().num_threads;
    let tracer = Tracer::new(args.trace);
    let (start, steal_at_start) = (Instant::now(), host::steal_s());

    let mut outcome = match args.workload.as_str() {
        "vision-b1" => inference::run(&inference::VISION, &args, &tracer),
        "transformer-cold" => inference::run(&inference::TRANSFORMERS, &args, &tracer),
        "decode-long" => decode::run(&args, &tracer),
        "serve-open" => serve::run(&args, &tracer),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` \
                 (vision-b1, transformer-cold, decode-long, serve-open)"
            );
            return ExitCode::from(2);
        }
    };
    let attempted = outcome.attempted.max(1);
    outcome.e2e.push(
        "error_rate",
        outcome.failed as f64 / attempted as f64,
        "ratio",
    );
    // Calibrate only now: the copy loop's buffers would otherwise set the
    // peak resident set, and freeing them moves the allocator's mmap
    // threshold for the rest of the run.
    // Share of the run's CPU time the hypervisor took: runs that differ
    // most from their neighbours usually had it high.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_pct =
        100.0 * (host::steal_s() - steal_at_start) / (start.elapsed().as_secs_f64() * cpus as f64);
    let copy_gbps = host::copy_gbps();
    let madd_gflops = host::madd_gflops();

    let seed_kind = if args.seed == DEFAULT_SEED {
        "default"
    } else {
        "held-out"
    };
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seed_kind\": \"{seed_kind}\", \
         \"trace\": {}, \"threads\": {threads}, \"host_copy_gbps\": {}, \
         \"host_madd_gflops\": {}, \"host_steal_pct\": {}, {}}}, \"end_to_end\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        num(copy_gbps),
        num(madd_gflops),
        num(steal_pct),
        notes.join(", "),
        outcome.e2e.json(),
    );

    let mut last = Metrics::default();
    if args.trace {
        outcome.layers.push("host.copy_gbps", copy_gbps, "GB/s");
        outcome
            .layers
            .push("host.madd_gflops", madd_gflops, "GFLOP/s");
        println!("{}", tracer.self_time_table());
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).map_or(0.0, |(v, _)| v);
            last.push(name, value, unit);
        }
    } else {
        for name in END_TO_END {
            let (value, unit) = outcome
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            last.push(name, value, unit);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.failed,
        last.json()
    );
    ExitCode::SUCCESS
}
