//! Closed-loop batch-1 inference over a fixed model set: `vision-b1` (the
//! nine CNNs of Table 5, built in memory) and `transformer-cold` (five
//! transformers imported from `.dnnfg` text, compiled with rewriting on).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{ModelKind, ModelScale};
use dnnf_runtime::{Executor, PlanCache, WeightStore};
use dnnf_tensor::Tensor;

use crate::engine::{self, bit_identical, matches_reference, Rng};
use crate::host;
use crate::stats::{gmean, median, tail};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome};

pub struct Spec {
    kinds: &'static [ModelKind],
    /// Import the graphs from `.dnnfg` text exported before timing starts,
    /// instead of building them in memory.
    import: bool,
    /// Least set-ups (and warm set-ups) per untraced run; cheap set-ups
    /// repeat for a second. `setup_s` is their median.
    setup_reps: usize,
}

pub const VISION: Spec = Spec {
    kinds: &[
        ModelKind::EfficientNetB0,
        ModelKind::Vgg16,
        ModelKind::MobileNetV1Ssd,
        ModelKind::YoloV4,
        ModelKind::C3d,
        ModelKind::S3d,
        ModelKind::UNet,
        ModelKind::FasterRcnn,
        ModelKind::MaskRcnn,
    ],
    import: false,
    setup_reps: 5,
};

pub const TRANSFORMERS: Spec = Spec {
    kinds: &[
        ModelKind::TinyBert,
        ModelKind::DistilBert,
        ModelKind::BertBase,
        ModelKind::Gpt2,
        ModelKind::MobileBert,
    ],
    import: true,
    setup_reps: 3,
};

/// Engine outputs must be within this of the reference interpreter's.
const REFERENCE_TOL: f32 = 1e-5;

struct Loaded {
    cache: PlanCache,
    graphs: Vec<Graph>,
    models: Vec<Arc<CompiledModel>>,
}

/// Workload start to first runnable request: build or import every graph,
/// compile it through a fresh `PlanCache`, build its weight store.
fn setup(spec: &Spec, texts: &[String], tracer: &Tracer) -> Loaded {
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let mut graphs = Vec::new();
    let mut models = Vec::new();
    for (i, &kind) in spec.kinds.iter().enumerate() {
        let graph = if spec.import {
            tracer.span("io.import", || {
                dnnf_io::from_text(&texts[i]).expect("import")
            })
        } else {
            tracer.span("models.build", || {
                kind.build(ModelScale::tiny()).expect("model builds")
            })
        };
        let (model, _) = tracer.span("core.compile", || {
            cache
                .compile_cached(&mut compiler, &graph)
                .expect("compile")
        });
        tracer.span("runtime.weights", || WeightStore::of_model(&model));
        graphs.push(graph);
        models.push(model);
    }
    Loaded {
        cache,
        graphs,
        models,
    }
}

struct Measured {
    per_model: Vec<Vec<f64>>,
    requests: u64,
    failed: u64,
    wall_s: f64,
}

/// Closed loop, one caller: seeded permutations of the models, one
/// request each, until `seconds` have passed at a permutation boundary
/// (so every model is measured equally often). Every output must be
/// bit-identical to the one recorded at set-up.
fn measure(
    executor: &Executor,
    models: &[Arc<CompiledModel>],
    inputs: &[HashMap<String, Tensor>],
    expected: &[Vec<Tensor>],
    seconds: f64,
    rng: &mut Rng,
    tracer: Option<&Tracer>,
) -> Measured {
    let mut m = Measured {
        per_model: vec![Vec::new(); models.len()],
        requests: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for i in rng.permutation(models.len()) {
            let t = Instant::now();
            let result = match tracer {
                Some(tr) => tr.request(m.requests, "runtime.run", || {
                    executor.run_compiled(&models[i], &inputs[i])
                }),
                None => executor.run_compiled(&models[i], &inputs[i]),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            m.requests += 1;
            match result {
                Ok(report) if bit_identical(&report.outputs, &expected[i]) => {
                    m.per_model[i].push(ms);
                }
                _ => m.failed += 1,
            }
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

pub fn run(spec: &Spec, args: &Args, tracer: &Tracer) -> Outcome {
    let executor = engine::executor();
    let options = CompilerOptions::default();
    let mut rng = Rng::new(args.seed);
    let mut failed = 0u64;
    let mut notes = Vec::new();

    // Inputs to set-up, made before timing starts.
    let texts: Vec<String> = if spec.import {
        spec.kinds
            .iter()
            .map(|k| dnnf_io::to_text(&k.build(ModelScale::tiny()).expect("model builds")))
            .collect()
    } else {
        Vec::new()
    };

    let reps = if tracer.enabled() {
        (1, 0.0)
    } else {
        (spec.setup_reps, 1.0)
    };
    let (setup_s, loaded) = engine::median_of_reps(reps.0, reps.1, || {
        tracer.span("bench.setup", || setup(spec, texts.as_slice(), tracer))
    });

    // Oracle: engine within tolerance of the reference interpreter.
    let inputs: Vec<_> = loaded
        .graphs
        .iter()
        .map(|g| engine::inputs_for(g, None, &mut rng))
        .collect();
    let mut expected = Vec::new();
    for (i, model) in loaded.models.iter().enumerate() {
        let out = executor
            .run_compiled(model, &inputs[i])
            .map(|r| r.outputs)
            .unwrap_or_default();
        if !matches_reference(&executor, model, &inputs[i], &out, REFERENCE_TOL) {
            eprintln!("perfbench: {} disagrees with the reference", spec.kinds[i]);
            failed += 1;
        }
        expected.push(out);
    }

    // Warm set-up: a fresh cache compiles the same graphs from the seeds
    // this run saved (disk tier).
    let (warm_setup_s, warm_models, warm_hit_ratio) =
        engine::warm_setup(&loaded.cache, reps, tracer, options, |warm, compiler| {
            loaded
                .graphs
                .iter()
                .map(|g| {
                    tracer.span("runtime.seed_replay", || {
                        warm.compile_cached(compiler, g).expect("warm compile").0
                    })
                })
                .collect::<Vec<_>>()
        });
    if warm_hit_ratio < 1.0 {
        eprintln!("perfbench: warm compile missed the disk tier");
        failed += 1;
    }
    for (i, m) in warm_models.iter().enumerate() {
        let out = executor.run_compiled(m, &inputs[i]).map(|r| r.outputs);
        if !out.is_ok_and(|o| bit_identical(&o, &expected[i])) {
            eprintln!("perfbench: warm-compiled {} differs", spec.kinds[i]);
            failed += 1;
        }
    }
    drop(warm_models);

    // Timed closed loop. The traced run measures half untraced and half
    // traced; the difference is the tracing overhead.
    let (measured, overhead_pct) = if tracer.enabled() {
        let half = args.seconds / 2.0;
        let plain = measure(
            &executor,
            &loaded.models,
            &inputs,
            &expected,
            half,
            &mut rng,
            None,
        );
        let traced = measure(
            &executor,
            &loaded.models,
            &inputs,
            &expected,
            half,
            &mut rng,
            Some(tracer),
        );
        let per_req = |m: &Measured| m.wall_s / m.requests.max(1) as f64;
        let overhead = 100.0 * (per_req(&traced) / per_req(&plain) - 1.0);
        (traced, overhead)
    } else {
        let m = measure(
            &executor,
            &loaded.models,
            &inputs,
            &expected,
            args.seconds,
            &mut rng,
            None,
        );
        (m, 0.0)
    };
    failed += measured.failed;
    let peak_rss_mb = host::peak_rss_mb();

    let pooled: Vec<f64> = measured.per_model.iter().flatten().copied().collect();
    let medians: Vec<f64> = measured.per_model.iter().map(|s| median(s)).collect();
    let t = tail(&pooled);
    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s");
    e2e.push("warm_setup_s", warm_setup_s, "s");
    e2e.push("latency_p50_ms", median(&pooled), "ms");
    e2e.push("latency_tail_ms", t.value, "ms");
    e2e.push("latency_gmean_ms", gmean(&medians), "ms");
    e2e.push(
        "throughput_rps",
        measured.requests as f64 / measured.wall_s,
        "1/s",
    );
    e2e.push("peak_rss_mb", peak_rss_mb, "MB");
    notes.push(("tail_percentile".into(), format!("p{:.1}", t.percentile)));
    notes.push(("latency_samples".into(), t.samples.to_string()));
    for (kind, med) in spec.kinds.iter().zip(&medians) {
        notes.push((format!("p50_ms.{kind}"), format!("{med:.4}")));
    }

    let mut layers = Metrics::default();
    if tracer.enabled() {
        layers.push("trace.overhead_pct", overhead_pct, "%");
        layers.push("runtime.plan_cache_hit_ratio", warm_hit_ratio, "ratio");
        layer_metrics(&mut layers, tracer, &executor, &loaded, &inputs);
    }
    Outcome {
        attempted: measured.requests + 2 * loaded.models.len() as u64,
        failed,
        e2e,
        layers,
        notes,
    }
}

/// Per-layer metrics of the traced run: each layer's public calls timed
/// one at a time, after the measured loop.
fn layer_metrics(
    out: &mut Metrics,
    tracer: &Tracer,
    executor: &Executor,
    loaded: &Loaded,
    inputs: &[HashMap<String, Tensor>],
) {
    engine::compile_layers(
        out,
        tracer,
        &loaded.graphs,
        &CompilerOptions::default(),
        |g, compiler| {
            loaded
                .cache
                .compile_cached(compiler, g)
                .expect("memory hit");
        },
    );
    let runs: Vec<_> = loaded.models.iter().map(|m| &**m).zip(inputs).collect();
    engine::engine_layers(out, tracer, executor, &runs);
}
