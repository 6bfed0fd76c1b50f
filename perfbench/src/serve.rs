//! `serve-open`: open-loop Poisson arrivals into `dnnf-serve`. One worker
//! with serial execution hosts two tenants (VGG-16 and EfficientNet-B0;
//! MobileNetV1-SSD folds the batch axis into its outputs and cannot be
//! served coalesced); each request carries 1–4 rows. The untraced run
//! offers the reference rate for all of its time; the traced run also
//! steps through the other fixed rates for goodput. Latency is timed from
//! when each request was due.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{ModelKind, ModelScale};
use dnnf_runtime::{Executor, PlanCache, WeightStore};
use dnnf_serve::{ServeConfig, Server, Ticket};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::Tensor;

use crate::engine::{self, bit_identical, Rng};
use crate::host;
use crate::stats::{gmean, mean, median, tail};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome};

const TENANTS: [(&str, ModelKind); 2] = [
    ("vgg", ModelKind::Vgg16),
    ("effnet", ModelKind::EfficientNetB0),
];
const MAX_ROWS: usize = 4;
const MAX_BATCH: usize = 8;
/// No coalescing window: a request dispatches as soon as the worker is
/// free, coalescing whatever queued while it was busy, so a lone request
/// never waits on a timer.
const BATCH_WINDOW: Duration = Duration::ZERO;
const QUEUE_CAPACITY: usize = 256;
/// Input variants per (tenant, rows).
const VARIANTS: usize = 2;
/// Fixed offered rates (requests/s): about 25%, 50%, 75%, 90% and 110%
/// of the capacity measured when the benchmark was written (~135
/// requests/s on a 2-CPU x86-64 host; the backlog grows at 150).
const RATES: [f64; 5] = [34.0, 68.0, 100.0, 122.0, 150.0];
/// The rate `serve_p50_ms`, `serve_tail_ms` and the gated latency
/// metrics are reported at.
const REFERENCE: usize = 0;
/// Share of the traced run's time each rate gets. The traced run first
/// offers the reference rate untraced for `TIME_SHARE[REFERENCE]` too (the
/// tracing overhead), so its phases add up to the measured time.
const TIME_SHARE: [f64; 5] = [0.3, 0.1, 0.1, 0.1, 0.1];
/// A rate counts towards goodput only if its tail latency is at most this.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Least warm set-ups per untraced run (repeated for a second).
const SETUP_REPS: usize = 5;
/// The untraced run offers the reference rate in this many chunks, and
/// sets up again after each (see `engine::SETUPS_PER_GAP`).
const CHUNKS: usize = 10;

struct Loaded {
    cache: PlanCache,
    graphs: Vec<Graph>,
    models: Vec<Arc<CompiledModel>>,
}

/// Import both tenants from `.dnnfg` text, compile them
/// batch-polymorphically, build weight stores, warm every batch instance
/// up to `MAX_BATCH`, start the server.
fn setup(texts: &[String], tracer: &Tracer) -> (Loaded, Server) {
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let mut graphs = Vec::new();
    let mut models = Vec::new();
    let mut builder = Server::builder(ServeConfig {
        max_batch: MAX_BATCH,
        batch_window: BATCH_WINDOW,
        queue_capacity: QUEUE_CAPACITY,
        workers: 1,
        exec: *engine::executor().options(),
        device: DeviceSpec::snapdragon_865_cpu(),
        simulate_cache: false,
    });
    for ((name, _), text) in TENANTS.iter().zip(texts) {
        let graph = tracer.span("io.import", || dnnf_io::from_text(text).expect("import"));
        let (model, _) = tracer.span("core.compile", || {
            cache
                .compile_batched(&mut compiler, &graph)
                .expect("compile")
        });
        tracer.span("runtime.weights", || WeightStore::of_model(&model));
        for rows in 2..=MAX_BATCH {
            tracer.span("core.instance", || {
                model.instance_for_batch(rows).expect("rebatch")
            });
        }
        builder = builder
            .model(*name, Arc::clone(&model))
            .expect("register tenant");
        graphs.push(graph);
        models.push(model);
    }
    let server = tracer.span("serve.start", || builder.start());
    let loaded = Loaded {
        cache,
        graphs,
        models,
    };
    (loaded, server)
}

/// A request's inputs and its reply: pool index by (tenant, rows, variant).
fn pool_index(tenant: usize, rows: usize, variant: usize) -> usize {
    (tenant * MAX_ROWS + (rows - 1)) * VARIANTS + variant
}

struct Arrival {
    offset: Duration,
    tenant: usize,
    rows: usize,
    variant: usize,
}

/// Poisson arrivals at `rate` for `seconds`, stratified so every seed
/// offers the same load: the inter-arrival gaps are the `rate * seconds`
/// quantiles of the exponential distribution in seeded order, and every
/// run of eight consecutive arrivals holds each (tenant, rows) class once,
/// in seeded order.
fn arrivals(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<Arrival> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let classes = TENANTS.len() * MAX_ROWS;
    let mut order = Vec::new();
    let mut t = 0.0;
    rng.permutation(n)
        .into_iter()
        .map(|q| {
            t += -(1.0 - (q as f64 + 0.5) / n as f64).ln() / rate;
            if order.is_empty() {
                order = rng.permutation(classes);
            }
            let class = order.pop().expect("refilled above");
            Arrival {
                offset: Duration::from_secs_f64(t),
                tenant: class / MAX_ROWS,
                rows: 1 + class % MAX_ROWS,
                variant: rng.below(VARIANTS as u64) as usize,
            }
        })
        .collect()
}

/// One request as the generator and its tenant's collector saw it.
struct Record {
    tenant: usize,
    rows: usize,
    due: Instant,
    submit: (Instant, Instant),
    /// (reply time, coalesced requests, dispatched rows, output correct)
    reply: Option<(Instant, usize, usize, bool)>,
}

#[derive(Default)]
struct PhaseResult {
    rate: f64,
    records: Vec<Record>,
    refused: u64,
    outstanding_at_end: u64,
    late_ms: Vec<f64>,
}

impl PhaseResult {
    /// Appends a later phase at the same rate.
    fn extend(&mut self, later: PhaseResult) {
        self.records.extend(later.records);
        self.refused += later.refused;
        self.outstanding_at_end = self.outstanding_at_end.max(later.outstanding_at_end);
        self.late_ms.extend(later.late_ms);
    }

    /// Reply latencies (ms) of every request, or of one (tenant, rows)
    /// class.
    fn latencies(&self, class: Option<(usize, usize)>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| class.is_none_or(|c| (r.tenant, r.rows) == c))
            .filter_map(|r| r.reply.map(|(at, ..)| (at - r.due).as_secs_f64() * 1e3))
            .collect()
    }

    /// Failed, refused or wrong requests.
    fn failed(&self) -> u64 {
        self.refused
            + self
                .records
                .iter()
                .filter(|r| !r.reply.is_some_and(|(.., ok)| ok))
                .count() as u64
    }

    /// The rate meets the limit: tail within it, nothing failed, and no
    /// more requests outstanding when arrivals stop than the limit allows
    /// in flight (the backlog did not grow).
    fn meets_limit(&self) -> bool {
        let in_flight = (self.rate * LATENCY_LIMIT_MS / 1e3).max(MAX_BATCH as f64);
        self.failed() == 0
            && tail(&self.latencies(None)).value <= LATENCY_LIMIT_MS
            && (self.outstanding_at_end as f64) <= in_flight
    }
}

/// Offers `rate` requests/s for `seconds`, then waits for every reply.
fn phase(
    server: &Server,
    pool: &[HashMap<String, Tensor>],
    expected: &Arc<Vec<Vec<Tensor>>>,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
) -> PhaseResult {
    let schedule = arrivals(rate, seconds, rng);
    let completed = Arc::new(AtomicU64::new(0));
    let mut result = PhaseResult {
        rate,
        ..PhaseResult::default()
    };
    type Sent = (usize, Ticket, usize);
    std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for _ in TENANTS {
            let (tx, rx) = mpsc::channel::<Sent>();
            senders.push(tx);
            let completed = Arc::clone(&completed);
            let expected = Arc::clone(expected);
            // Within a tenant, replies come back in submission order (one
            // FIFO queue, one worker), so waiting in order times each
            // reply when it arrives.
            collectors.push(scope.spawn(move || {
                let mut replies = Vec::new();
                for (id, ticket, key) in rx {
                    let reply = ticket.wait();
                    let at = Instant::now();
                    completed.fetch_add(1, Ordering::Relaxed);
                    replies.push((
                        id,
                        reply.ok().map(|r| {
                            let ok = bit_identical(&r.outputs, &expected[key]);
                            (at, r.coalesced, r.batch_rows, ok)
                        }),
                    ));
                }
                replies
            }));
        }
        let start = Instant::now();
        let mut sent = 0u64;
        for a in &schedule {
            let key = pool_index(a.tenant, a.rows, a.variant);
            let inputs = pool[key].clone();
            let due = start + a.offset;
            // Spin (yielding) rather than sleep until the request is due:
            // on a VM, a sleeping generator lets its vCPU halt, and waking
            // a halted vCPU costs milliseconds that would land in every
            // request's latency. The generator and the worker are the two
            // busy threads.
            while Instant::now() < due {
                std::thread::yield_now();
            }
            let submit_start = Instant::now();
            result
                .late_ms
                .push((submit_start - due).as_secs_f64() * 1e3);
            let submitted = server.submit(TENANTS[a.tenant].0, inputs);
            let submit_end = Instant::now();
            match submitted {
                Ok(ticket) => {
                    let id = result.records.len();
                    result.records.push(Record {
                        tenant: a.tenant,
                        rows: a.rows,
                        due,
                        submit: (submit_start, submit_end),
                        reply: None,
                    });
                    senders[a.tenant]
                        .send((id, ticket, key))
                        .expect("collector alive");
                    sent += 1;
                }
                Err(_) => result.refused += 1,
            }
        }
        result.outstanding_at_end = sent - completed.load(Ordering::Relaxed);
        drop(senders);
        for c in collectors {
            for (id, reply) in c.join().expect("collector thread") {
                result.records[id].reply = reply;
            }
        }
    });
    result
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let executor = engine::executor();
    let mut rng = Rng::new(args.seed);
    let mut failed = 0u64;

    // The tenants as `.dnnfg` text, exported before timing starts.
    let texts: Vec<String> = TENANTS
        .iter()
        .map(|(_, kind)| dnnf_io::to_text(&kind.build(ModelScale::tiny()).expect("model builds")))
        .collect();
    let reps = if tracer.enabled() {
        (1, 0.0)
    } else {
        (SETUP_REPS, 1.0)
    };
    let mut setup_times = Vec::new();
    let (loaded, server) = engine::timed(&mut setup_times, || {
        tracer.span("bench.setup", || setup(&texts, tracer))
    });

    // Input pool and the replies a direct batched run gives for it.
    let mut pool = Vec::new();
    let mut expected = Vec::new();
    for (t, graph) in loaded.graphs.iter().enumerate() {
        for rows in 1..=MAX_ROWS {
            for _ in 0..VARIANTS {
                let inputs = engine::inputs_for(graph, Some(rows), &mut rng);
                let out = executor
                    .run_compiled_batched(&loaded.models[t], &inputs)
                    .map(|r| r.outputs)
                    .unwrap_or_default();
                pool.push(inputs);
                expected.push(out);
            }
        }
    }
    let expected = Arc::new(expected);

    // Warm set-up from the seeds this run saved: every tenant must replay.
    let options = CompilerOptions::default();
    let (warm_setup_s, (), warm_hit_ratio) =
        engine::warm_setup(&loaded.cache, reps, tracer, options, |warm, compiler| {
            for g in &loaded.graphs {
                tracer.span("runtime.seed_replay", || {
                    warm.compile_batched(compiler, g).expect("warm compile")
                });
            }
        });
    if warm_hit_ratio < 1.0 {
        eprintln!("perfbench: warm tenant compile missed the disk tier");
        failed += 1;
    }

    // The untraced run offers only the reference rate, for all of its
    // time, so the gated latency rests on as many requests as the run
    // allows. The traced run offers the reference rate untraced first (the
    // latency difference is the tracing overhead), then every rate traced.
    let mut plain_ref = None;
    let mut phases = Vec::new();
    if tracer.enabled() {
        let secs = args.seconds * TIME_SHARE[REFERENCE];
        plain_ref = Some(phase(
            &server,
            &pool,
            &expected,
            RATES[REFERENCE],
            secs,
            &mut rng,
        ));
        for (i, &rate) in RATES.iter().enumerate() {
            let secs = args.seconds * TIME_SHARE[i];
            let p = tracer.span("bench.phase", || {
                phase(&server, &pool, &expected, rate, secs, &mut rng)
            });
            record_spans(tracer, &p, phases.len());
            phases.push(p);
        }
    } else {
        let rate = RATES[REFERENCE];
        let mut reference = PhaseResult {
            rate,
            ..PhaseResult::default()
        };
        for _ in 0..CHUNKS {
            let secs = args.seconds / CHUNKS as f64;
            reference.extend(phase(&server, &pool, &expected, rate, secs, &mut rng));
            for _ in 0..engine::SETUPS_PER_GAP {
                let (again, again_server) =
                    engine::timed(&mut setup_times, || setup(&texts, tracer));
                again_server.shutdown();
                drop(again);
            }
        }
        phases.push(reference);
    }
    let setup_s = median(&setup_times);
    let peak_rss_mb = host::peak_rss_mb();
    let stats = server.stats();
    server.shutdown();

    let attempted: u64 = phases
        .iter()
        .map(|p| p.records.len() as u64 + p.refused)
        .sum();
    failed += phases.iter().map(PhaseResult::failed).sum::<u64>();

    let reference = &phases[REFERENCE];
    let lat = reference.latencies(None);
    let t = tail(&lat);
    let class_p50: Vec<f64> = (0..TENANTS.len())
        .flat_map(|t| (1..=MAX_ROWS).map(move |rows| (t, rows)))
        .map(|class| median(&reference.latencies(Some(class))))
        .collect();
    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s");
    e2e.push("warm_setup_s", warm_setup_s, "s");
    e2e.push("latency_p50_ms", median(&lat), "ms");
    e2e.push("latency_tail_ms", t.value, "ms");
    e2e.push("latency_gmean_ms", gmean(&class_p50), "ms");
    e2e.push("serve_p50_ms", median(&lat), "ms");
    e2e.push("serve_tail_ms", t.value, "ms");
    e2e.push("peak_rss_mb", peak_rss_mb, "MB");
    if tracer.enabled() {
        let goodput = phases
            .iter()
            .filter(|p| p.meets_limit())
            .map(|p| p.rate)
            .fold(0.0, f64::max);
        e2e.push("serve_goodput_rps", goodput, "1/s");
    }
    let mut notes = vec![
        ("tail_percentile".into(), format!("p{:.1}", t.percentile)),
        ("latency_samples".into(), t.samples.to_string()),
        ("reference_rate_rps".into(), RATES[REFERENCE].to_string()),
        ("latency_limit_ms".into(), LATENCY_LIMIT_MS.to_string()),
    ];
    for (i, p50) in class_p50.iter().enumerate() {
        let (tenant, rows) = (TENANTS[i / MAX_ROWS].0, 1 + i % MAX_ROWS);
        notes.push((format!("p50_ms.{tenant}.rows{rows}"), format!("{p50:.4}")));
    }
    for p in &phases {
        let l = p.latencies(None);
        let late = p.late_ms.iter().copied().fold(0.0, f64::max);
        notes.push((
            format!("rate_{}", p.rate),
            format!(
                "p50 {:.3} ms, tail {:.3} ms, sent {}, refused {}, outstanding {}, \
                 generator late max {late:.3} ms, meets limit {}",
                median(&l),
                tail(&l).value,
                p.records.len(),
                p.refused,
                p.outstanding_at_end,
                p.meets_limit()
            ),
        ));
    }

    let mut layers = Metrics::default();
    if let Some(plain) = plain_ref {
        let overhead =
            100.0 * (mean(&reference.latencies(None)) / mean(&plain.latencies(None)) - 1.0);
        layers.push("trace.overhead_pct", overhead, "%");
        layers.push("runtime.plan_cache_hit_ratio", warm_hit_ratio, "ratio");
        let rejected: u64 = stats.models.iter().map(|m| m.rejected).sum();
        let server_failed: u64 = stats.models.iter().map(|m| m.failed).sum();
        layers.push("serve.rejected", rejected as f64, "count");
        layers.push("serve.failed", server_failed as f64, "count");
        layer_metrics(&mut layers, tracer, &executor, &loaded, &pool, &phases);
    }
    Outcome {
        attempted: attempted.max(1),
        failed,
        e2e,
        layers,
        notes,
    }
}

/// Each reply's lifecycle as spans: `serve.request` from due to reply,
/// with `serve.submit` inside it.
fn record_spans(tracer: &Tracer, p: &PhaseResult, phase_no: usize) {
    for (i, r) in p.records.iter().enumerate() {
        let Some((at, ..)) = r.reply else { continue };
        let id = (phase_no as u64) << 32 | i as u64;
        let lane = 2 + (i % 16) as u64;
        let parent = tracer.record("serve.request", r.due, at, None, Some(id), lane);
        tracer.record(
            "serve.submit",
            r.submit.0,
            r.submit.1,
            parent,
            Some(id),
            lane,
        );
    }
}

/// Per-layer metrics of the traced run: each layer's public calls timed
/// one at a time, after the serving phases. The engine decomposition runs
/// the tenants at batch 1 with the server's executor.
fn layer_metrics(
    out: &mut Metrics,
    tracer: &Tracer,
    executor: &Executor,
    loaded: &Loaded,
    pool: &[HashMap<String, Tensor>],
    phases: &[PhaseResult],
) {
    let models = &loaded.models;
    engine::compile_layers(
        out,
        tracer,
        &loaded.graphs,
        &CompilerOptions::default(),
        |g, compiler| {
            loaded
                .cache
                .compile_batched(compiler, g)
                .expect("memory hit");
        },
    );
    let builds = tracer.durations_ms("core.instance");
    out.push("core.instance_ms", mean(&builds), "ms");
    out.push("core.instance_builds", builds.len() as f64, "count");
    let runs: Vec<_> = models
        .iter()
        .enumerate()
        .map(|(t, m)| (&**m, &pool[pool_index(t, 1, 0)]))
        .collect();
    engine::engine_layers(out, tracer, executor, &runs);

    // Serve layer at the reference rate. Exec time per dispatched batch
    // size is measured directly (outside the server); queueing is the
    // rest of each request's latency.
    let reference = &phases[REFERENCE];
    let mut exec_ms: HashMap<(usize, usize), f64> = HashMap::new();
    let mut per_request_exec = Vec::new();
    let mut queue = Vec::new();
    let mut coalesced = Vec::new();
    for r in &reference.records {
        let Some((at, co, rows, _)) = r.reply else {
            continue;
        };
        let e = *exec_ms.entry((r.tenant, rows)).or_insert_with(|| {
            let graph = models[r.tenant].graph();
            let inputs = engine::inputs_for(graph, Some(rows), &mut Rng::new(rows as u64));
            let times: Vec<f64> = (0..7)
                .map(|_| {
                    let start = Instant::now();
                    tracer.span("serve.exec_direct", || {
                        executor
                            .run_compiled_batched(&models[r.tenant], &inputs)
                            .expect("direct run")
                    });
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&times)
        });
        per_request_exec.push(e);
        queue.push(((at - r.due).as_secs_f64() * 1e3 - e).max(0.0));
        coalesced.push(co as f64);
    }
    let submits: Vec<f64> = phases
        .iter()
        .flat_map(|p| &p.records)
        .map(|r| (r.submit.1 - r.submit.0).as_secs_f64() * 1e6)
        .collect();
    out.push("serve.submit_us", mean(&submits), "us");
    out.push("serve.exec_ms", mean(&per_request_exec), "ms");
    out.push("serve.queue_ms", mean(&queue), "ms");
    out.push("serve.mean_coalesced", mean(&coalesced), "count");
}
