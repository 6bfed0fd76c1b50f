//! Random-graph differential fuzzing of the fused execution engine.
//!
//! One seed deterministically generates one model (an element-wise /
//! broadcast DAG, an anchored Conv/MatMul/Gemm/pool DAG with a fused
//! epilogue, or an attention-shaped MatMul chain), which is then compiled
//! without graph rewriting and executed through the fused engine at
//! `num_threads ∈ {1, 2, 8}` and again with every SIMD path disabled
//! (`force_scalar`). Every configuration must agree with the
//! reference-kernel interpreter within `1e-5` — and all configurations must
//! agree with each other **bit for bit** (the engine's ownership-split
//! determinism invariant).
//!
//! The `random_model` binary drives this over a seed range; any failure
//! prints its seed, which replays the exact graph and inputs.

use std::collections::HashMap;
use std::fmt;

use dnnf_core::{Compiler, CompilerOptions, Ecg, FusionPlan};
use dnnf_graph::{Graph, ValueId};
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{ExecOptions, Executor};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Unary operators that stay finite on bounded inputs.
const UNARY_OPS: &[OpKind] = &[
    OpKind::Relu,
    OpKind::Sigmoid,
    OpKind::Tanh,
    OpKind::Abs,
    OpKind::Neg,
    OpKind::Square,
    OpKind::Exp,
    OpKind::Erf,
    OpKind::Gelu,
    OpKind::HardSwish,
    OpKind::HardSigmoid,
    OpKind::Softplus,
    OpKind::Silu,
    OpKind::Mish,
    OpKind::Sin,
    OpKind::Cos,
    OpKind::Floor,
    OpKind::Ceil,
    OpKind::Round,
    OpKind::LeakyRelu,
    OpKind::Clip,
    OpKind::Identity,
];

/// Binary operators exercised by the random DAGs.
const BINARY_OPS: &[OpKind] = &[
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Min,
    OpKind::Max,
    OpKind::PRelu,
    OpKind::Greater,
];

fn below(rng: &mut StdRng, n: usize) -> usize {
    debug_assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

fn pick(rng: &mut StdRng, ops: &[OpKind]) -> OpKind {
    ops[below(rng, ops.len())]
}

/// Appends a random element-wise operator after `src`.
fn random_elementwise(g: &mut Graph, rng: &mut StdRng, src: ValueId, tag: &str) -> ValueId {
    let shape = g.value(src).shape.clone();
    let choice = below(rng, 8);
    if choice < 4 {
        let op = pick(rng, UNARY_OPS);
        let attrs = match op {
            OpKind::LeakyRelu => Attrs::new().with_float("alpha", 0.125),
            OpKind::Clip => Attrs::new()
                .with_float("min", -0.75)
                .with_float("max", 0.75),
            _ => Attrs::new(),
        };
        g.add_op(op, attrs, &[src], format!("{tag}.u")).unwrap()[0]
    } else if choice < 7 || shape.rank() < 2 {
        // Binary against a broadcast-shaped weight.
        let op = pick(rng, BINARY_OPS);
        let squashed: Vec<usize> = shape
            .dims()
            .iter()
            .map(|&d| if below(rng, 2) == 0 { 1 } else { d })
            .collect();
        let rhs = g.add_weight(format!("{tag}.w"), Shape::new(squashed));
        g.add_op(op, Attrs::new(), &[src, rhs], format!("{tag}.b"))
            .unwrap()[0]
    } else {
        // Inference-form BatchNormalization over the channel axis.
        let c = Shape::new(vec![shape.dim(1)]);
        let scale = g.add_weight(format!("{tag}.bn.scale"), c.clone());
        let bias = g.add_weight(format!("{tag}.bn.bias"), c.clone());
        let mean = g.add_weight(format!("{tag}.bn.mean"), c.clone());
        let var = g.add_weight(format!("{tag}.bn.var"), c);
        g.add_op(
            OpKind::BatchNormalization,
            Attrs::new().with_float("epsilon", 1e-5),
            &[src, scale, bias, mean, var],
            format!("{tag}.bn"),
        )
        .unwrap()[0]
    }
}

/// A random element-wise / broadcast DAG of at most `max_nodes` operators,
/// with one mid-graph escape output.
fn elementwise_dag(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let rank = 2 + below(rng, 3);
    let dims: Vec<usize> = (0..rank).map(|_| 1 + below(rng, 4)).collect();
    let mut g = Graph::new("fuzz-elementwise");
    let x = g.add_input("x", Shape::new(dims));
    let mut values = vec![x];
    let op_count = 3 + below(rng, max_nodes.saturating_sub(3).max(1));
    for i in 0..op_count {
        let src = values[below(rng, values.len())];
        let out = random_elementwise(&mut g, rng, src, &format!("n{i}"));
        values.push(out);
    }
    g.mark_output(*values.last().unwrap());
    g.mark_output(values[1 + below(rng, values.len() - 1)]);
    g
}

/// A random anchored DAG: one Conv / MatMul / Gemm / pool anchor with a
/// fused element-wise epilogue; the anchor escapes mid-block.
fn anchored_dag(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let mut g = Graph::new("fuzz-anchor");
    let anchor = match below(rng, 4) {
        0 => {
            // Conv at spatial rank 1 or 2 with random padding/stride.
            let rank = 1 + below(rng, 2);
            let n = 1 + below(rng, 2);
            let cin = 1 + below(rng, 3);
            let w = 3 + below(rng, 12);
            let mut x_dims = vec![n, cin];
            if rank == 2 {
                x_dims.push(3 + below(rng, 6));
            }
            x_dims.push(w);
            let cout = 1 + below(rng, 4);
            let k = 1 + below(rng, x_dims[2..].iter().copied().min().unwrap_or(1).min(3));
            let x = g.add_input("x", Shape::new(x_dims));
            let mut w_dims = vec![cout, cin];
            w_dims.extend(std::iter::repeat_n(k, rank));
            let wt = g.add_weight("conv.w", Shape::new(w_dims));
            let attrs = Attrs::new()
                .with_ints("pads", vec![below(rng, 2) as i64; 2 * rank])
                .with_ints("strides", vec![1 + below(rng, 2) as i64; rank]);
            g.add_op(OpKind::Conv, attrs, &[x, wt], "conv").unwrap()[0]
        }
        1 => {
            // MatMul in one of three batching forms.
            let m = 1 + below(rng, 5);
            let k = 1 + below(rng, 5);
            let n = 1 + below(rng, 12);
            let (a_shape, b_shape) = match below(rng, 3) {
                0 => (vec![m, k], vec![k, n]),
                1 => (vec![2, m, k], vec![k, n]),
                _ => (vec![2, 1, m, k], vec![2, k, n]),
            };
            let a = g.add_input("a", Shape::new(a_shape));
            let b = g.add_weight("mm.b", Shape::new(b_shape));
            g.add_op(OpKind::MatMul, Attrs::new(), &[a, b], "matmul")
                .unwrap()[0]
        }
        2 => {
            // Gemm with random transpose flags and scaling.
            let m = 1 + below(rng, 5);
            let k = 1 + below(rng, 5);
            let n = 1 + below(rng, 12);
            let trans_a = below(rng, 2) == 1;
            let trans_b = below(rng, 2) == 1;
            let a_shape = if trans_a { vec![k, m] } else { vec![m, k] };
            let b_shape = if trans_b { vec![n, k] } else { vec![k, n] };
            let a = g.add_input("a", Shape::new(a_shape));
            let b = g.add_weight("gemm.b", Shape::new(b_shape));
            let attrs = Attrs::new()
                .with_int("transA", i64::from(trans_a))
                .with_int("transB", i64::from(trans_b))
                .with_float("alpha", [1.0, 0.5, 2.0][below(rng, 3)])
                .with_float("beta", [1.0, 0.5, 2.0][below(rng, 3)]);
            g.add_op(OpKind::Gemm, attrs, &[a, b], "gemm").unwrap()[0]
        }
        _ => {
            // MaxPool over a rank-4 input.
            let x = g.add_input(
                "x",
                Shape::new(vec![
                    1 + below(rng, 2),
                    1 + below(rng, 4),
                    3 + below(rng, 4),
                    3 + below(rng, 10),
                ]),
            );
            let attrs = Attrs::new()
                .with_ints("kernel_shape", vec![2 + below(rng, 2) as i64; 2])
                .with_ints("strides", vec![1 + below(rng, 2) as i64; 2])
                .with_ints("pads", vec![below(rng, 2) as i64; 4]);
            g.add_op(OpKind::MaxPool, attrs, &[x], "pool").unwrap()[0]
        }
    };
    let epilogue = 1 + below(rng, max_nodes.min(4));
    let mut last = anchor;
    for i in 0..epilogue {
        last = random_elementwise(&mut g, rng, last, &format!("ep{i}"));
    }
    g.mark_output(last);
    if last != anchor {
        g.mark_output(anchor);
    }
    g
}

/// An attention-shaped MatMul chain — scores, scaling, a decomposed
/// causal-style softmax (`ReduceMax`/`Sub`/`Exp`/`ReduceSum`/`Div`) and the
/// context MatMul — the dataflow of one decoder attention head. Random
/// head counts, lengths and head widths; sometimes a `Concat` splices a
/// "past" segment onto the keys/values first, exactly like a KV-cache step
/// graph. The heads are then merged, gathered and pooled
/// ([`attention_epilogue`]).
fn attention_chain(rng: &mut StdRng, _max_nodes: usize) -> Graph {
    let heads = 1 + below(rng, 3);
    let q_len = 1 + below(rng, 4);
    let kv_len = 1 + below(rng, 6);
    let head_dim = 1 + below(rng, 8);
    let mut g = Graph::new("fuzz-attention");
    let q = g.add_input("q", Shape::new(vec![heads, q_len, head_dim]));
    let mut k = g.add_input("k", Shape::new(vec![heads, kv_len, head_dim]));
    let mut v = g.add_input("v", Shape::new(vec![heads, kv_len, head_dim]));
    if below(rng, 2) == 0 {
        // KV-cache form: splice a past segment before the fresh keys/values.
        let past_len = 1 + below(rng, 6);
        let past_shape = Shape::new(vec![heads, past_len, head_dim]);
        let pk = g.add_input("past_k", past_shape.clone());
        let pv = g.add_input("past_v", past_shape);
        let cat = Attrs::new().with_int("axis", 1);
        k = g
            .add_op(OpKind::Concat, cat.clone(), &[pk, k], "k.cat")
            .unwrap()[0];
        v = g.add_op(OpKind::Concat, cat, &[pv, v], "v.cat").unwrap()[0];
    }
    let kt = g
        .add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![0, 2, 1]),
            &[k],
            "kt",
        )
        .unwrap()[0];
    let scores = g
        .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
        .unwrap()[0];
    let scale = g.add_weight("scale", Shape::new(vec![1]));
    let scaled = g
        .add_op(OpKind::Mul, Attrs::new(), &[scores, scale], "scaled")
        .unwrap()[0];
    let reduce = Attrs::new()
        .with_ints("axes", vec![-1])
        .with_int("keepdims", 1);
    let max = g
        .add_op(OpKind::ReduceMax, reduce.clone(), &[scaled], "softmax.max")
        .unwrap()[0];
    let shifted = g
        .add_op(OpKind::Sub, Attrs::new(), &[scaled, max], "softmax.shift")
        .unwrap()[0];
    let exp = g
        .add_op(OpKind::Exp, Attrs::new(), &[shifted], "softmax.exp")
        .unwrap()[0];
    let sum = g
        .add_op(OpKind::ReduceSum, reduce, &[exp], "softmax.sum")
        .unwrap()[0];
    let probs = g
        .add_op(OpKind::Div, Attrs::new(), &[exp, sum], "softmax.div")
        .unwrap()[0];
    let ctx = g
        .add_op(OpKind::MatMul, Attrs::new(), &[probs, v], "ctx")
        .unwrap()[0];
    g.mark_output(ctx);
    if below(rng, 2) == 0 {
        // The attention probabilities escape mid-chain too.
        g.mark_output(probs);
    }
    attention_epilogue(&mut g, rng, ctx, [heads, q_len, head_dim]);
    g
}

/// Merges the heads of `ctx` back into rows (`Transpose`, then `Reshape` or
/// `Flatten`), gathers some rows or columns through an explicit index
/// weight (negative indices included), and pools them with a random
/// reduction whose kept or dropped axis is squeezed or unsqueezed — the
/// decoder's data-movement tail plus every other operator with a
/// flat-slice kernel.
fn attention_epilogue(g: &mut Graph, rng: &mut StdRng, ctx: ValueId, dims: [usize; 3]) {
    let [heads, q_len, head_dim] = dims;
    let merged = g
        .add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![1, 0, 2]),
            &[ctx],
            "merge",
        )
        .unwrap()[0];
    let rows = if below(rng, 2) == 0 {
        let shape = vec![q_len as i64, (heads * head_dim) as i64];
        let attrs = Attrs::new().with_ints("shape", shape);
        g.add_op(OpKind::Reshape, attrs, &[merged], "merge.flat")
    } else {
        let attrs = Attrs::new().with_int("axis", 1);
        g.add_op(OpKind::Flatten, attrs, &[merged], "merge.flat")
    }
    .unwrap()[0];
    let axis = below(rng, 2);
    let extent = [q_len, heads * head_dim][axis] as i64;
    let ids: Vec<f32> = (0..1 + below(rng, 4))
        .map(|_| (below(rng, 2 * extent as usize) as i64 - extent) as f32)
        .collect();
    let ids = g.add_weight_with_data(
        "pick.ids",
        Tensor::from_vec(Shape::new(vec![ids.len()]), ids).expect("ids match their shape"),
    );
    let picked = g
        .add_op(
            OpKind::Gather,
            Attrs::new().with_int("axis", axis as i64),
            &[rows, ids],
            "pick",
        )
        .unwrap()[0];
    let reduce = pick(
        rng,
        &[OpKind::ReduceMean, OpKind::ReduceMin, OpKind::ReduceProd],
    );
    let pool_axis = below(rng, 2) as i64;
    let keepdims = below(rng, 2) as i64;
    let pooled = g
        .add_op(
            reduce,
            Attrs::new()
                .with_ints("axes", vec![pool_axis])
                .with_int("keepdims", keepdims),
            &[picked],
            "pool",
        )
        .unwrap()[0];
    let out = if keepdims == 1 {
        let attrs = Attrs::new().with_ints("axes", vec![pool_axis]);
        g.add_op(OpKind::Squeeze, attrs, &[pooled], "pool.squeeze")
    } else {
        let attrs = Attrs::new().with_ints("axes", vec![0]);
        g.add_op(OpKind::Unsqueeze, attrs, &[pooled], "pool.unsqueeze")
    }
    .unwrap()[0];
    g.mark_output(out);
}

/// Deterministically generates the model for `seed`: the seed fully
/// determines the family (element-wise, anchored, or attention-shaped) and
/// every structural choice inside it.
#[must_use]
pub fn random_fuzz_graph(seed: u64, max_nodes: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match below(&mut rng, 3) {
        0 => elementwise_dag(&mut rng, max_nodes),
        1 => anchored_dag(&mut rng, max_nodes),
        _ => attention_chain(&mut rng, max_nodes),
    }
}

/// Random inputs for every graph input, seeded so a failing case replays.
#[must_use]
pub fn fuzz_inputs(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), seed))
        })
        .collect()
}

/// A passing seed's summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// The seed checked.
    pub seed: u64,
    /// Operator count of the generated graph.
    pub nodes: usize,
    /// Fused blocks the compiler produced for it.
    pub fused_blocks: usize,
}

/// A failing seed: `seed` replays it, `context` says what disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The seed that failed.
    pub seed: u64,
    /// Which configuration disagreed, and where.
    pub context: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}: {}", self.seed, self.context)
    }
}

/// Tolerance for the engine-vs-reference differential; the cross-config
/// comparison (threads, scalar) is bit-exact (tolerance 0).
pub const FUZZ_TOLERANCE: f32 = 1e-5;

fn disagreement(reference: &Tensor, engine: &Tensor, tol: f32) -> Option<String> {
    if reference.shape() != engine.shape() {
        return Some(format!(
            "shape mismatch: {:?} vs {:?}",
            reference.shape().dims(),
            engine.shape().dims()
        ));
    }
    reference.first_disagreement(engine, tol).map(|i| {
        format!(
            "element {i}: {} vs {}",
            reference.data()[i],
            engine.data()[i]
        )
    })
}

/// Checks one seed: generates the model, runs the reference interpreter as
/// the oracle, then the fused engine at `num_threads ∈ {1, 2, 8}`, each
/// with and without `force_scalar`. Engine runs must match the reference
/// within [`FUZZ_TOLERANCE`] and each other bit for bit.
///
/// Every seed also exercises the `.dnnfg` serialization round-trip: the
/// graph is exported and re-imported, the import must fingerprint
/// identically (and re-export byte-identically), and a compile of the
/// *imported* graph must produce bit-identical outputs to the original's
/// compile — tolerance 0, not [`FUZZ_TOLERANCE`].
///
/// # Errors
///
/// Returns the [`FuzzFailure`] describing the first disagreement (or a
/// compile/execution/serialization error).
pub fn check_seed(seed: u64, max_nodes: usize) -> Result<FuzzOutcome, FuzzFailure> {
    let fail = |context: String| FuzzFailure { seed, context };
    let graph = random_fuzz_graph(seed, max_nodes);
    let inputs = fuzz_inputs(&graph, seed ^ 0xF00D_5EED);
    let base = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();

    // The oracle: every operator through its reference kernel, serially.
    let ecg = Ecg::new(graph.clone());
    let singletons = FusionPlan::singletons(&ecg);
    let reference = base
        .clone()
        .with_options(ExecOptions::serial())
        .run_plan_reference(&graph, &singletons, &inputs)
        .map_err(|e| fail(format!("reference run failed: {e}")))?;

    // Rewriting off: the differential compares the same dataflow.
    let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
    let compiled = compiler
        .compile(&graph)
        .map_err(|e| fail(format!("compile failed: {e}")))?;

    let mut baseline: Option<Vec<Tensor>> = None;
    for threads in [1usize, 2, 8] {
        for force_scalar in [false, true] {
            let config = format!("num_threads={threads} force_scalar={force_scalar}");
            let executor = base.clone().with_options(ExecOptions {
                num_threads: threads,
                force_scalar,
                min_parallel_work: 0,
            });
            let run = executor
                .run_compiled(&compiled, &inputs)
                .map_err(|e| fail(format!("{config}: engine run failed: {e}")))?;
            for (i, (r, e)) in reference.outputs.iter().zip(&run.outputs).enumerate() {
                if let Some(diff) = disagreement(r, e, FUZZ_TOLERANCE) {
                    return Err(fail(format!("{config}: output {i} vs reference: {diff}")));
                }
            }
            match &baseline {
                None => baseline = Some(run.outputs),
                Some(first) => {
                    for (i, (b, e)) in first.iter().zip(&run.outputs).enumerate() {
                        if let Some(diff) = disagreement(b, e, 0.0) {
                            return Err(fail(format!(
                                "{config}: output {i} not bit-identical to first config: {diff}"
                            )));
                        }
                    }
                }
            }
        }
    }
    // Serialization round-trip. Fingerprint identity means the imported
    // graph would hit the same PlanCache entry; compiling it from scratch
    // and demanding bit-identical outputs proves the stronger claim that
    // nothing the compiler consumes was lost in the text form.
    let text = dnnf_io::to_text(&graph);
    let imported = dnnf_io::from_text(&text)
        .map_err(|e| fail(format!("dnnfg round-trip: import rejected own export: {e}")))?;
    if imported.fingerprint() != graph.fingerprint() {
        return Err(fail(format!(
            "dnnfg round-trip: fingerprint drift ({} -> {})",
            graph.fingerprint(),
            imported.fingerprint()
        )));
    }
    if dnnf_io::to_text(&imported) != text {
        return Err(fail(
            "dnnfg round-trip: re-export is not byte-identical".into(),
        ));
    }
    let recompiled = Compiler::new(CompilerOptions::without_rewriting())
        .compile(&imported)
        .map_err(|e| fail(format!("dnnfg round-trip: compile of import failed: {e}")))?;
    let rerun = base
        .clone()
        .with_options(ExecOptions {
            num_threads: 1,
            force_scalar: false,
            min_parallel_work: 0,
        })
        .run_compiled(&recompiled, &inputs)
        .map_err(|e| fail(format!("dnnfg round-trip: run of import failed: {e}")))?;
    let first = baseline.as_ref().expect("at least one engine config ran");
    for (i, (b, e)) in first.iter().zip(&rerun.outputs).enumerate() {
        if let Some(diff) = disagreement(b, e, 0.0) {
            return Err(fail(format!(
                "dnnfg round-trip: output {i} of imported graph not bit-identical: {diff}"
            )));
        }
    }

    Ok(FuzzOutcome {
        seed,
        nodes: graph.node_count(),
        fused_blocks: compiled.stats.fused_layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_appears_over_a_short_seed_range() {
        let mut names = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            names.insert(random_fuzz_graph(seed, 12).name().to_string());
        }
        for family in ["fuzz-elementwise", "fuzz-anchor", "fuzz-attention"] {
            assert!(
                names.contains(family),
                "seeds 0..32 never produced {family}"
            );
        }
    }

    #[test]
    fn every_flat_slice_kind_appears_over_a_short_seed_range() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let graph = random_fuzz_graph(seed, 12);
            kinds.extend(graph.nodes().map(|n| n.op));
        }
        use OpKind::*;
        for op in [
            Concat, Transpose, Reshape, Flatten, Squeeze, Unsqueeze, ReduceSum, ReduceMean,
            ReduceMax, ReduceMin, ReduceProd, Gather,
        ] {
            assert!(dnnf_ops::has_fast_kernel(op), "{op} has no fast kernel");
            assert!(kinds.contains(&op), "seeds 0..32 never emitted {op}");
        }
    }

    #[test]
    fn generated_graphs_validate() {
        for seed in 0..48u64 {
            let graph = random_fuzz_graph(seed, 12);
            assert!(
                graph.validate().is_ok(),
                "seed {seed} built an invalid graph"
            );
        }
    }

    #[test]
    fn a_seed_range_passes_the_differential() {
        for seed in 0..4u64 {
            if let Err(failure) = check_seed(seed, 10) {
                panic!("{failure}");
            }
        }
    }
}
