//! Helpers every workload shares: the executor, seeded inputs, output
//! checks, and the traced decompositions that time one layer's public
//! calls at a time (compile phases, per-block kernels, per-run schedule).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use dnnf_core::codegen::generate_all;
use dnnf_core::exec::Step;
use dnnf_core::rewrite::RewriteEngine;
use dnnf_core::{
    block_profile_key, compile_plan, AnalyticLatencyModel, CompiledModel, Compiler,
    CompilerOptions, Ecg, FusionPlanner,
};
use dnnf_graph::{Graph, ValueId};
use dnnf_ops::OpKind;
use dnnf_profiledb::ProfileDatabase;
use dnnf_runtime::{ExecOptions, Executor, MemoryPlan, PlanCache, WeightStore};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Metrics;

/// The executor every workload runs: cache simulation off, as serve and
/// decode build it, and one thread (see README.md, "Load", for why the
/// benchmark does not use the host's thread count).
pub fn executor() -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu())
        .without_cache_simulation()
        .with_options(ExecOptions::serial())
}

/// Set-ups repeated in each gap of a timed loop that sets up through the
/// run (`decode-long` after every cycle of sessions, `serve-open` after
/// every chunk of arrivals). Their median is `setup_s`: set-ups spread over
/// the whole run sample the host's fast and slow spells as the timed loop
/// does, where back-to-back set-ups all land in the run's first second.
pub const SETUPS_PER_GAP: usize = 2;

/// Runs `f` and pushes its wall time in seconds onto `times`.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// Runs `f` until it has run `min_reps` times and `budget_s` seconds have
/// passed (at most 41 times), dropping each result before the next run.
/// Returns the median wall time in seconds and the last result. Short
/// set-ups repeat more often, so one stalled repetition cannot move the
/// median.
pub fn median_of_reps<T>(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps.max(1)
        || (start.elapsed().as_secs_f64() < budget_s && times.len() < 41)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("ran at least once"))
}

/// The warm set-up: saves `cache`'s plan seeds to disk, then repeatedly
/// (as [`median_of_reps`]) loads them into a fresh `PlanCache` and runs
/// `compile` against it. Returns the median seconds, the last result, and
/// the share of warm compiles that replayed a seed (the disk tier).
pub fn warm_setup<T>(
    cache: &PlanCache,
    (min_reps, budget_s): (usize, f64),
    tracer: &Tracer,
    options: CompilerOptions,
    mut compile: impl FnMut(&PlanCache, &mut Compiler) -> T,
) -> (f64, T, f64) {
    let seeds = crate::out_dir().join(format!("seeds-{}.txt", std::process::id()));
    cache.save(&seeds).expect("save plan seeds");
    let (mut hits, mut calls) = (0, 0);
    let (secs, out) = median_of_reps(min_reps, budget_s, || {
        let warm = PlanCache::new();
        tracer.span("runtime.load_seeds", || {
            warm.load_seeds(&seeds).expect("load plan seeds")
        });
        let out = compile(&warm, &mut Compiler::new(options));
        let stats = warm.stats();
        hits += stats.disk_hits;
        calls += stats.disk_hits + stats.misses + stats.memory_hits;
        out
    });
    let _ = std::fs::remove_file(&seeds);
    (secs, out, hits as f64 / calls.max(1) as f64)
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Rows of the table a graph input indexes through `Gather`, if any: token
/// inputs must stay valid indices.
fn gather_rows(graph: &Graph, input: ValueId) -> Option<usize> {
    graph.value(input).consumers.iter().find_map(|&n| {
        let node = graph.node(n);
        (node.op == OpKind::Gather && node.inputs.get(1) == Some(&input))
            .then(|| graph.value(node.inputs[0]).shape.dim(0))
    })
}

/// Seeded inputs for every graph input: valid token ids for inputs that
/// index an embedding table, `0..n` for position inputs, and uniform
/// values in `[-1, 1)` otherwise. `rows` overrides the leading dimension.
pub fn inputs_for(graph: &Graph, rows: Option<usize>, rng: &mut Rng) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            let mut dims = v.shape.dims().to_vec();
            if let Some(r) = rows {
                dims[0] = r;
            }
            let shape = Shape::new(dims);
            let n = shape.numel();
            let data: Vec<f32> = match gather_rows(graph, id) {
                Some(_) if v.name.contains("position") => (0..n).map(|p| p as f32).collect(),
                Some(vocab) => (0..n).map(|_| rng.below(vocab as u64) as f32).collect(),
                None => (0..n).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect(),
            };
            let tensor = Tensor::from_vec(shape, data).expect("length matches shape");
            (v.name.clone(), tensor)
        })
        .collect()
}

/// Whether two output lists are bit-identical.
pub fn bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Whether the engine's outputs agree with the reference interpreter's
/// within `tol` on every element (non-finite classes must match).
pub fn matches_reference(
    executor: &Executor,
    model: &CompiledModel,
    inputs: &HashMap<String, Tensor>,
    engine_out: &[Tensor],
    tol: f32,
) -> bool {
    match executor.run_plan_reference(model.graph(), &model.plan, inputs) {
        Ok(reference) => {
            reference.outputs.len() == engine_out.len()
                && reference
                    .outputs
                    .iter()
                    .zip(engine_out)
                    .all(|(r, e)| r.first_disagreement(e, tol).is_none())
        }
        Err(_) => false,
    }
}

/// Counts from one traced compile decomposition.
#[derive(Default)]
struct CompileCounts {
    rewrites: usize,
    blocks: usize,
    db_hits: u64,
    db_misses: u64,
}

/// Re-runs the compile pipeline's phases through their public entry
/// points, one span each, the way `Compiler::compile` sequences them:
/// `core.rewrite` (`RewriteEngine::run`, when rewriting is on),
/// `core.plan` (`Ecg::new` + `FusionPlanner::plan` against a fresh
/// profile database) and `core.codegen` (`generate_all` + `compile_plan`).
fn traced_compile_phases(
    tracer: &Tracer,
    graph: &Graph,
    options: &CompilerOptions,
) -> CompileCounts {
    let (rewritten, rewrites) = if options.enable_graph_rewriting {
        tracer.span("core.rewrite", || {
            let (g, applied) = RewriteEngine::with_default_rules().run(graph);
            (g, applied.len())
        })
    } else {
        (graph.clone(), 0)
    };
    let latency = AnalyticLatencyModel::default();
    let mut db = ProfileDatabase::new();
    let (ecg, plan) = tracer.span("core.plan", || {
        let ecg = Ecg::new(rewritten);
        let plan = FusionPlanner::new(&ecg, &latency, options.plan).plan(&mut db);
        (ecg, plan)
    });
    tracer.span("core.codegen", || {
        black_box(generate_all(&ecg, &plan));
        black_box(compile_plan(ecg.graph(), &plan));
    });
    CompileCounts {
        rewrites,
        blocks: plan.blocks().len(),
        db_hits: db.hits(),
        db_misses: db.misses(),
    }
}

/// Op kinds the per-kernel table reports, by the kind of a block's anchor.
const OP_KINDS: [&str; 5] = ["conv", "matmul", "pool", "tape", "fallback"];

/// The anchor kind of block `block` of `model`: the first Conv, MatMul or
/// Gemm, or pooling step; `tape` when the block is only fused element-wise
/// runs; `fallback` for any other operator step (softmax, gather, concat,
/// reductions, reference kernels).
fn block_kind(model: &CompiledModel, block: usize) -> &'static str {
    let graph = model.graph();
    let mut any_op = false;
    for step in model.engine.kernel(block).steps() {
        if let Step::Op { node, .. } = step {
            any_op = true;
            match graph.node(*node).op {
                OpKind::Conv | OpKind::ConvTranspose => return "conv",
                OpKind::MatMul | OpKind::Gemm => return "matmul",
                OpKind::MaxPool | OpKind::AveragePool | OpKind::GlobalAveragePool => return "pool",
                _ => {}
            }
        }
    }
    if any_op {
        "fallback"
    } else {
        "tape"
    }
}

/// Work of one block: FLOPs by the cost model, and bytes *computed from
/// tensor sizes* (every boundary input, weights included, read once and
/// every escaping output written once) — not measured traffic.
fn block_work(model: &CompiledModel, block: usize) -> (f64, f64) {
    let graph = model.graph();
    let nodes = &model.plan.blocks()[block].nodes;
    let mut flops = 0u64;
    let mut produced = std::collections::BTreeSet::new();
    for &n in nodes {
        let node = graph.node(n);
        let ins: Vec<Shape> = node
            .inputs
            .iter()
            .map(|&v| graph.value(v).shape.clone())
            .collect();
        let outs: Vec<Shape> = node
            .outputs
            .iter()
            .map(|&v| graph.value(v).shape.clone())
            .collect();
        flops += dnnf_ops::flops(node.op, &node.attrs, &ins, &outs);
        produced.extend(node.outputs.iter().copied());
    }
    let mut inputs = std::collections::BTreeSet::new();
    for &n in nodes {
        for &v in &graph.node(n).inputs {
            if !produced.contains(&v) {
                inputs.insert(v);
            }
        }
    }
    let read: usize = inputs.iter().map(|&v| graph.value(v).size_bytes()).sum();
    let written: usize = model
        .engine
        .kernel(block)
        .escaping()
        .iter()
        .map(|&v| graph.value(v).size_bytes())
        .sum();
    (flops as f64, (read + written) as f64)
}

/// Per-op-kind kernel time and work, summed over profiled inferences.
#[derive(Default)]
struct KernelTable {
    /// kind -> (ms, flops, bytes)
    kinds: BTreeMap<&'static str, (f64, f64, f64)>,
    /// Σ over inferences of the most expensive block's time.
    top_block_ms: f64,
    /// Σ kernel time.
    kernel_ms: f64,
    inferences: usize,
}

impl KernelTable {
    /// Alternates `runs` plain `Executor::run_compiled` calls (one
    /// `runtime.run` span each) with `runs` `Executor::profile_compiled`
    /// calls (one `runtime.profile` span each), and adds one inference's
    /// worth of per-block median times to the table. Block times are
    /// looked up per block by `block_profile_key`; keys dedupe repeated
    /// layers, so every block with the same key reads the same entry.
    /// Returns the medians (ms) of the plain run's wall time and of the
    /// per-run sum of block times.
    fn profile(
        &mut self,
        tracer: &Tracer,
        executor: &Executor,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
        runs: usize,
    ) -> (f64, f64) {
        let graph = model.graph();
        let blocks = model.plan.blocks();
        let keys: Vec<_> = blocks
            .iter()
            .map(|b| block_profile_key(graph, &b.nodes))
            .collect();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); blocks.len()];
        let mut walls = Vec::with_capacity(runs);
        let mut sums = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t = Instant::now();
            tracer.span("runtime.run", || {
                black_box(executor.run_compiled(model, inputs).expect("run"));
            });
            walls.push(t.elapsed().as_secs_f64() * 1e3);
            let mut db = ProfileDatabase::new();
            tracer.span("runtime.profile", || {
                black_box(
                    executor
                        .profile_compiled(model, inputs, &mut db)
                        .expect("profiled run"),
                );
            });
            let mut sum = 0.0;
            for (i, key) in keys.iter().enumerate() {
                let ms = db.peek(key).unwrap_or(0.0) / 1e3;
                samples[i].push(ms);
                sum += ms;
            }
            sums.push(sum);
        }
        let times: Vec<f64> = samples.iter().map(|s| median(s)).collect();
        for (i, &ms) in times.iter().enumerate() {
            let (flops, bytes) = block_work(model, i);
            let e = self.kinds.entry(block_kind(model, i)).or_default();
            e.0 += ms;
            e.1 += flops;
            e.2 += bytes;
        }
        self.top_block_ms += times.iter().copied().fold(0.0, f64::max);
        self.kernel_ms += times.iter().sum::<f64>();
        self.inferences += 1;
        (median(&walls), median(&sums))
    }

    /// `ops.<kind>.{ms,share,gflops,gbps}` per kind (ms per inference,
    /// averaged over the profiled inferences) and `ops.top_block_share`.
    fn metrics(&self, out: &mut Metrics) {
        let n = self.inferences.max(1) as f64;
        for kind in OP_KINDS {
            let (ms, flops, bytes) = self.kinds.get(kind).copied().unwrap_or_default();
            let rate = |work: f64| {
                if ms > 0.0 {
                    work / (ms * 1e-3) / 1e9
                } else {
                    0.0
                }
            };
            let share = if self.kernel_ms > 0.0 {
                ms / self.kernel_ms
            } else {
                0.0
            };
            out.push(format!("ops.{kind}.ms"), ms / n, "ms");
            out.push(format!("ops.{kind}.share"), share, "ratio");
            out.push(format!("ops.{kind}.gflops"), rate(flops), "GFLOP/s");
            out.push(format!("ops.{kind}.gbps"), rate(bytes), "GB/s");
        }
        let top = if self.kernel_ms > 0.0 {
            self.top_block_ms / self.kernel_ms
        } else {
            0.0
        };
        out.push("ops.top_block_share", top, "ratio");
    }
}

/// Per-run fixed work the engine repeats on every run, timed through its
/// public pieces: `runtime.schedule` (`execution_order` +
/// `MemoryPlan::build`) and `simdev.estimate` (`Executor::estimate_plan`,
/// which re-does the schedule and then the device accounting). Returns the
/// medians (ms) of the schedule and of the accounting part alone
/// (estimate minus schedule).
fn per_run_fixed_work(
    tracer: &Tracer,
    executor: &Executor,
    model: &CompiledModel,
    reps: usize,
) -> (f64, f64) {
    let graph = model.graph();
    let elem = executor.device().elem_bytes;
    let mut sched = Vec::with_capacity(reps);
    let mut est = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        tracer.span("runtime.schedule", || {
            let order = model.plan.execution_order(graph);
            black_box(MemoryPlan::build(graph, &model.plan, &order, elem));
        });
        sched.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tracer.span("simdev.estimate", || {
            black_box(executor.estimate_plan(graph, &model.plan));
        });
        est.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let s = median(&sched);
    (s, (median(&est) - s).max(0.0))
}

/// Compile-layer metrics: every graph's phases re-run one span each (see
/// `traced_compile_phases`), and `lookup` — a `PlanCache` call for the same
/// graph that must hit the resident model — timed as
/// `runtime.plan_cache_lookup`.
pub fn compile_layers(
    out: &mut Metrics,
    tracer: &Tracer,
    graphs: &[Graph],
    options: &CompilerOptions,
    mut lookup: impl FnMut(&Graph, &mut Compiler),
) {
    let mut counts = CompileCounts::default();
    let mut lookups = Vec::new();
    let mut compiler = Compiler::new(*options);
    for g in graphs {
        let c = traced_compile_phases(tracer, g, options);
        counts.rewrites += c.rewrites;
        counts.blocks += c.blocks;
        counts.db_hits += c.db_hits;
        counts.db_misses += c.db_misses;
        let t = Instant::now();
        tracer.span("runtime.plan_cache_lookup", || lookup(g, &mut compiler));
        lookups.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push("io.import_ms", tracer.total_ms("io.import"), "ms");
    out.push("core.rewrite_ms", tracer.total_ms("core.rewrite"), "ms");
    out.push("core.rewrite_applied", counts.rewrites as f64, "count");
    out.push("core.plan_ms", tracer.total_ms("core.plan"), "ms");
    out.push("core.plan_blocks", counts.blocks as f64, "count");
    out.push("profiledb.hits", counts.db_hits as f64, "count");
    out.push("profiledb.misses", counts.db_misses as f64, "count");
    out.push("core.codegen_ms", tracer.total_ms("core.codegen"), "ms");
    out.push("runtime.plan_cache_lookup_us", mean(&lookups), "us");
    out.push(
        "runtime.seed_replay_ms",
        tracer.total_ms("runtime.seed_replay"),
        "ms",
    );
}

/// Paired plain and profiled runs per model for the kernel table.
const PROFILE_RUNS: usize = 5;

/// Engine-layer metrics of `models`, each run on its inputs:
/// `WeightStore::build` time summed over the models; run, kernel and
/// overhead time, per-run fixed work and the per-op-kind table as
/// per-inference means over the models.
pub fn engine_layers(
    out: &mut Metrics,
    tracer: &Tracer,
    executor: &Executor,
    models: &[(&CompiledModel, &HashMap<String, Tensor>)],
) {
    let mut weights = 0.0;
    let mut table = KernelTable::default();
    let (mut run, mut kernel, mut sched, mut acct) = (0.0, 0.0, 0.0, 0.0);
    for &(model, inputs) in models {
        let t = Instant::now();
        tracer.span("runtime.weights_build", || {
            WeightStore::build(model.graph())
        });
        weights += t.elapsed().as_secs_f64() * 1e3;
        let (r, k) = table.profile(tracer, executor, model, inputs, PROFILE_RUNS);
        run += r;
        kernel += k;
        let (s, a) = per_run_fixed_work(tracer, executor, model, 9);
        sched += s;
        acct += a;
    }
    let n = models.len().max(1) as f64;
    out.push("runtime.weights_build_ms", weights, "ms");
    out.push("runtime.run_ms", run / n, "ms");
    out.push("runtime.kernel_ms", kernel / n, "ms");
    out.push("runtime.overhead_ms", (run - kernel) / n, "ms");
    out.push("runtime.schedule_ms", sched / n, "ms");
    out.push("simdev.accounting_ms", acct / n, "ms");
    table.metrics(out);
}
