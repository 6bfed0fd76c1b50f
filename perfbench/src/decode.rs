//! `decode-long`: closed-loop autoregressive decoding. Sessions run one
//! after another on one shared compiled prefill/step pair; each session's
//! generation length is seeded within a fixed length stratum, and the
//! strata are visited long/short alternately, so every run covers the same
//! spread of KV lengths whatever the seed.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Instant;

use dnnf_core::{CompiledModel, Compiler, CompilerOptions, SeqInstance};
use dnnf_models::{decoder_prefill, decoder_step, DecoderConfig};
use dnnf_runtime::{greedy_argmax, DecodeSession, Executor, PlanCache, WeightStore};
use dnnf_tensor::{Shape, Tensor};

use crate::engine::{self, Rng};
use crate::host;
use crate::stats::{gmean, linear_fit, mean, median, quantile, tail};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome};

const CONFIG: DecoderConfig = DecoderConfig {
    layers: 6,
    hidden: 64,
    heads: 4,
    vocab: 256,
    max_seq: 256,
    ffn_mult: 4,
};
const PROMPT_LEN: usize = 8;
/// Generation-length strata `[lo, hi]`, visited in this order every cycle
/// (long and short alternate). Narrow strata keep each run's mix of KV
/// lengths, and so its step-time distribution, the same for every seed.
const STRATA: [(usize, usize); 6] = [
    (192, 200),
    (16, 19),
    (116, 124),
    (30, 34),
    (70, 76),
    (46, 50),
];
/// Width, in KV positions, of the buckets `latency_gmean_ms` groups steps
/// into.
const KV_BUCKET: usize = 16;
/// The quantile of each bucket's step times that `latency_gmean_ms` takes.
/// The host's speed swings by up to 1.7x for seconds to minutes (see
/// README.md); a bucket's median follows those swings, its 10th percentile
/// keeps to the steps the host ran at full speed.
const STEP_QUANTILE: f64 = 0.1;
/// Least warm set-ups per untraced run (repeated for a second).
const SETUP_REPS: usize = 5;
/// Generated tokens re-derived by full-prefix recompute per run.
const ORACLE_SAMPLES: usize = 6;

struct Pair {
    cache: PlanCache,
    prefill: Arc<CompiledModel>,
    step: Arc<CompiledModel>,
}

/// Build both graphs, compile them (2 plan searches), build weight stores.
fn setup(executor: &Executor, tracer: &Tracer) -> Pair {
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
    let (pg, sg) = tracer.span("models.build", || {
        (
            decoder_prefill(&CONFIG, PROMPT_LEN).expect("decoder builds"),
            decoder_step(&CONFIG, PROMPT_LEN).expect("decoder builds"),
        )
    });
    let session = tracer.span("core.compile", || {
        DecodeSession::compile(executor.clone(), &cache, &mut compiler, &pg, &sg)
            .expect("decoder compiles")
    });
    let prefill = Arc::clone(session.prefill_model());
    let step = Arc::clone(session.step_model());
    tracer.span("runtime.weights", || {
        let _ = WeightStore::of_model(&prefill);
        let _ = WeightStore::of_model(&step);
    });
    Pair {
        cache,
        prefill,
        step,
    }
}

struct Session {
    prompt: Vec<u32>,
    generated: Vec<u32>,
}

#[derive(Default)]
struct Measured {
    sessions: Vec<Session>,
    /// Tokens the sessions were asked to generate.
    requested: u64,
    ttft_ms: Vec<f64>,
    /// (KV length before the step, step ms)
    steps: Vec<(usize, f64)>,
    decode_s: f64,
    failed: u64,
    /// Traced runs: cold `instance_for_seq` times (ms).
    instance_builds: Vec<f64>,
}

/// Runs whole cycles over the strata until `seconds` have passed, calling
/// `after_cycle` after each.
fn measure(
    executor: &Executor,
    pair: &Pair,
    seconds: f64,
    rng: &mut Rng,
    tracer: Option<&Tracer>,
    after_cycle: &mut dyn FnMut(),
) -> Measured {
    let mut m = Measured::default();
    // Last instance seen per KV length: a call that returns another
    // instance than this one built it.
    let mut seen: HashMap<usize, Weak<SeqInstance>> = HashMap::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for &(lo, hi) in &STRATA {
            let generate = lo + rng.below((hi - lo + 1) as u64) as usize;
            let prompt: Vec<u32> = (0..PROMPT_LEN)
                .map(|_| rng.below(CONFIG.vocab as u64) as u32)
                .collect();
            m.requested += generate as u64;
            let mut session = DecodeSession::new(
                executor.clone(),
                Arc::clone(&pair.prefill),
                Arc::clone(&pair.step),
            )
            .expect("session wiring");
            let session_start = Instant::now();
            let t = Instant::now();
            let first = match tracer {
                Some(tr) => tr.span("runtime.decode.prefill", || session.prefill(&prompt)),
                None => session.prefill(&prompt),
            };
            m.ttft_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let mut generated = Vec::with_capacity(generate);
            match first {
                Ok(tok) => generated.push(tok),
                Err(_) => m.failed += generate as u64,
            }
            while !generated.is_empty() && generated.len() < generate {
                let kv = session.cache_len();
                let result = match tracer {
                    Some(tr) => {
                        let t = Instant::now();
                        let inst = tr.span("core.instance", || pair.step.instance_for_seq(kv));
                        let built = match (&inst, seen.get(&kv).and_then(Weak::upgrade)) {
                            (Ok(now), Some(before)) => !Arc::ptr_eq(now, &before),
                            _ => true,
                        };
                        if built {
                            m.instance_builds.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        if let Ok(now) = &inst {
                            seen.insert(kv, Arc::downgrade(now));
                        }
                        let t = Instant::now();
                        let r = tr.span("runtime.decode.step", || session.step());
                        m.steps.push((kv, t.elapsed().as_secs_f64() * 1e3));
                        r
                    }
                    None => {
                        let t = Instant::now();
                        let r = session.step();
                        m.steps.push((kv, t.elapsed().as_secs_f64() * 1e3));
                        r
                    }
                };
                match result {
                    Ok(tok) => generated.push(tok),
                    Err(_) => {
                        m.failed += (generate - generated.len()) as u64;
                        break;
                    }
                }
            }
            m.decode_s += session_start.elapsed().as_secs_f64();
            m.sessions.push(Session { prompt, generated });
        }
        after_cycle();
    }
    m
}

/// Full-prefix recompute of sampled generated tokens: the prefill graph
/// at the full prefix length, compiled on its own, must pick the same
/// token the KV-cached session did. Returns how many disagreed.
fn check_tokens(executor: &Executor, measured: &Measured, rng: &mut Rng) -> u64 {
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
    let done: Vec<&Session> = measured
        .sessions
        .iter()
        .filter(|s| !s.generated.is_empty())
        .collect();
    let mut wrong = 0;
    for _ in 0..ORACLE_SAMPLES.min(done.len()) {
        let s = done[rng.below(done.len() as u64) as usize];
        let j = rng.below(s.generated.len() as u64) as usize;
        let prefix: Vec<u32> = s.prompt.iter().chain(&s.generated[..j]).copied().collect();
        let len = prefix.len();
        let graph = decoder_prefill(&CONFIG, len).expect("decoder builds");
        let (model, _) = cache
            .compile_cached(&mut compiler, &graph)
            .expect("decoder compiles");
        let make = |values: Vec<f32>| {
            Tensor::from_vec(Shape::new(vec![len]), values).expect("length matches shape")
        };
        let mut inputs = HashMap::new();
        inputs.insert(
            "token_ids".to_string(),
            make(prefix.iter().map(|&t| t as f32).collect()),
        );
        inputs.insert(
            "positions".to_string(),
            make((0..len).map(|p| p as f32).collect()),
        );
        let token = executor.run_compiled(&model, &inputs).ok().and_then(|r| {
            let logits = r.outputs.last()?.data().to_vec();
            Some(greedy_argmax(&logits[logits.len() - CONFIG.vocab..]) as u32)
        });
        if token != Some(s.generated[j]) {
            eprintln!("perfbench: decode token {j} differs from full-prefix recompute");
            wrong += 1;
        }
    }
    wrong
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let executor = engine::executor();
    let mut rng = Rng::new(args.seed);
    let mut failed = 0u64;

    let reps = if tracer.enabled() {
        (1, 0.0)
    } else {
        (SETUP_REPS, 1.0)
    };
    let mut setup_times = Vec::new();
    let pair = engine::timed(&mut setup_times, || {
        tracer.span("bench.setup", || setup(&executor, tracer))
    });

    // Warm set-up from the seeds this run saved: both models must replay.
    let (pg, sg) = (
        decoder_prefill(&CONFIG, PROMPT_LEN).expect("decoder builds"),
        decoder_step(&CONFIG, PROMPT_LEN).expect("decoder builds"),
    );
    let options = CompilerOptions::without_rewriting();
    let (warm_setup_s, _, warm_hit_ratio) =
        engine::warm_setup(&pair.cache, reps, tracer, options, |warm, compiler| {
            tracer.span("runtime.seed_replay", || {
                DecodeSession::compile(executor.clone(), warm, compiler, &pg, &sg)
                    .expect("warm compile")
            })
        });
    if warm_hit_ratio < 1.0 {
        eprintln!("perfbench: warm decoder compile missed the disk tier");
        failed += 1;
    }

    let (measured, overhead_pct) = if tracer.enabled() {
        let half = args.seconds / 2.0;
        let plain = measure(&executor, &pair, half, &mut rng, None, &mut || {});
        let traced = measure(&executor, &pair, half, &mut rng, Some(tracer), &mut || {});
        let per_token = |m: &Measured| m.decode_s / (m.steps.len() + m.ttft_ms.len()).max(1) as f64;
        let overhead = 100.0 * (per_token(&traced) / per_token(&plain) - 1.0);
        (traced, overhead)
    } else {
        let mut set_up_again = || {
            for _ in 0..engine::SETUPS_PER_GAP {
                drop(engine::timed(&mut setup_times, || setup(&executor, tracer)));
            }
        };
        let m = measure(
            &executor,
            &pair,
            args.seconds,
            &mut rng,
            None,
            &mut set_up_again,
        );
        (m, 0.0)
    };
    let setup_s = median(&setup_times);
    // Before the full-prefix recompute: its long prefill graphs would set
    // the peak, at a size that depends on which positions the seed samples.
    let peak_rss_mb = host::peak_rss_mb();
    failed += measured.failed + check_tokens(&executor, &measured, &mut rng);

    let tokens: u64 = measured
        .sessions
        .iter()
        .map(|s| s.generated.len() as u64)
        .sum();
    let itl: Vec<f64> = measured.steps.iter().map(|s| s.1).collect();
    let mut per_bucket: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(kv, ms) in &measured.steps {
        per_bucket.entry(kv / KV_BUCKET).or_default().push(ms);
    }
    let bucket_lows: Vec<f64> = per_bucket
        .values()
        .map(|v| quantile(v, STEP_QUANTILE))
        .collect();
    let t = tail(&itl);
    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s");
    e2e.push("warm_setup_s", warm_setup_s, "s");
    e2e.push("latency_p50_ms", median(&itl), "ms");
    e2e.push("latency_tail_ms", t.value, "ms");
    e2e.push("latency_gmean_ms", gmean(&bucket_lows), "ms");
    e2e.push("ttft_p50_ms", median(&measured.ttft_ms), "ms");
    e2e.push("itl_p50_ms", median(&itl), "ms");
    e2e.push("itl_tail_ms", t.value, "ms");
    e2e.push("tokens_per_s", tokens as f64 / measured.decode_s, "1/s");
    e2e.push("peak_rss_mb", peak_rss_mb, "MB");
    let notes = vec![
        ("tail_percentile".into(), format!("p{:.1}", t.percentile)),
        ("latency_samples".into(), t.samples.to_string()),
        ("sessions".into(), measured.sessions.len().to_string()),
    ];

    let mut layers = Metrics::default();
    if tracer.enabled() {
        layers.push("trace.overhead_pct", overhead_pct, "%");
        layers.push("runtime.plan_cache_hit_ratio", warm_hit_ratio, "ratio");
        layer_metrics(&mut layers, tracer, &executor, &pair, &measured, &mut rng);
    }
    Outcome {
        attempted: measured.requested.max(1) + ORACLE_SAMPLES as u64,
        failed,
        e2e,
        layers,
        notes,
    }
}

/// Per-layer metrics of the traced run: each layer's public calls timed
/// one at a time, after the measured loop. The engine decomposition runs
/// the models at their native shapes (the prompt-length prefill, the step
/// model at its canonical KV length).
fn layer_metrics(
    out: &mut Metrics,
    tracer: &Tracer,
    executor: &Executor,
    pair: &Pair,
    measured: &Measured,
    rng: &mut Rng,
) {
    let graphs = [
        decoder_prefill(&CONFIG, PROMPT_LEN).expect("decoder builds"),
        decoder_step(&CONFIG, PROMPT_LEN).expect("decoder builds"),
    ];
    let options = CompilerOptions::without_rewriting();
    engine::compile_layers(out, tracer, &graphs, &options, |g, compiler| {
        if g.seq_len().is_some() {
            pair.cache.compile_seq(compiler, g)
        } else {
            pair.cache.compile_cached(compiler, g)
        }
        .expect("memory hit");
    });
    let inputs: Vec<_> = [&pair.prefill, &pair.step]
        .iter()
        .map(|m| engine::inputs_for(m.graph(), None, rng))
        .collect();
    engine::engine_layers(
        out,
        tracer,
        executor,
        &[(&pair.prefill, &inputs[0]), (&pair.step, &inputs[1])],
    );

    out.push("core.instance_ms", mean(&measured.instance_builds), "ms");
    out.push(
        "core.instance_builds",
        measured.instance_builds.len() as f64,
        "count",
    );
    let points: Vec<(f64, f64)> = measured
        .steps
        .iter()
        .map(|&(kv, ms)| (kv as f64, ms * 1e3))
        .collect();
    let (slope_us, _) = linear_fit(&points);
    out.push("runtime.decode.prefill_ms", median(&measured.ttft_ms), "ms");
    out.push(
        "runtime.decode.step_run_ms",
        median(&measured.steps.iter().map(|s| s.1).collect::<Vec<_>>()),
        "ms",
    );
    out.push("runtime.decode.step_slope_us_per_pos", slope_us, "us");
}
