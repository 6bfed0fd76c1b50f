//! Structural guards for the decode step's per-run cost (counts, not
//! timings):
//!
//! * every operator of the tiny decoder's step graph runs through an
//!   optimized kernel or a fused tape — none falls back to a reference
//!   kernel — at the native cache length and at rebound lengths;
//! * the run schedule cached on a sequence instance reports exactly the
//!   counters and memory plan a fresh `Executor::estimate_plan` computes,
//!   for every device and cache-simulation setting sharing the instance,
//!   run after run.

use std::collections::HashMap;
use std::sync::Arc;

use dnnfusion::core::exec::{CompiledPlan, Step};
use dnnfusion::core::{CompiledModel, Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::models::{decoder_step, DecoderConfig};
use dnnfusion::runtime::{ExecOptions, Executor};
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::Tensor;

const NATIVE_PAST: usize = 4;

fn compile_step(options: CompilerOptions) -> CompiledModel {
    let graph = decoder_step(&DecoderConfig::test_tiny(), NATIVE_PAST).unwrap();
    Compiler::new(options).compile(&graph).unwrap()
}

fn reference_fallbacks(engine: &CompiledPlan) -> usize {
    engine
        .kernels()
        .iter()
        .flat_map(|k| k.steps())
        .filter(|s| matches!(s, Step::Op { fast: false, .. }))
        .count()
}

#[test]
fn step_graph_has_no_reference_fallback_steps() {
    for options in [
        CompilerOptions::without_rewriting(),
        CompilerOptions::default(),
    ] {
        let model = compile_step(options);
        assert_eq!(reference_fallbacks(&model.engine), 0, "native length");
        for past in [9, 31] {
            let instance = model.instance_for_seq(past).unwrap();
            assert_eq!(
                reference_fallbacks(instance.engine()),
                0,
                "cache length {past}"
            );
        }
    }
}

/// Inputs for a step graph: token id and position 0, random KV caches.
fn step_inputs(graph: &Graph, seed: u64) -> HashMap<String, Arc<Tensor>> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            let tensor = if v.shape.rank() == 1 {
                Tensor::zeros(v.shape.clone())
            } else {
                Tensor::random(v.shape.clone(), seed + id.index() as u64)
            };
            (v.name.clone(), Arc::new(tensor))
        })
        .collect()
}

#[test]
fn cached_schedule_reports_what_a_fresh_estimate_computes() {
    let model = compile_step(CompilerOptions::without_rewriting());
    let mut executors = Vec::new();
    for device in [
        DeviceSpec::snapdragon_865_cpu(),
        DeviceSpec::snapdragon_865_gpu(),
    ] {
        let with_sim = Executor::new(device).with_options(ExecOptions::serial());
        executors.push(with_sim.clone().without_cache_simulation());
        executors.push(with_sim);
    }
    for past in [NATIVE_PAST, 11] {
        let graph = if past == NATIVE_PAST {
            model.graph().clone()
        } else {
            model.instance_for_seq(past).unwrap().graph().clone()
        };
        let inputs = step_inputs(&graph, past as u64);
        // Interleave executors on the same instance, so a schedule keyed
        // by the wrong device or flag would be handed to the next one.
        for round in 0..3 {
            for executor in &executors {
                let report = executor.run_compiled_seq(&model, &inputs).unwrap();
                let (counters, memory) = executor.estimate_plan(&graph, &model.plan);
                let what = format!(
                    "{} cache-sim={} past={past} round={round}",
                    executor.device().name,
                    executor != &executor.clone().without_cache_simulation()
                );
                assert_eq!(report.counters, counters, "counters: {what}");
                assert_eq!(report.memory, memory, "memory: {what}");
            }
        }
    }
}
