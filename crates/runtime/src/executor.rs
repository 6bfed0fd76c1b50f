//! The model executor.
//!
//! Executes a graph under an arbitrary fusion plan (DNNFusion's, a fixed-
//! pattern baseline's, or the unfused singleton plan), producing both the
//! output tensors and the simulated device counters: modeled latency, memory
//! traffic, peak memory, cache/TLB misses, kernel launches and utilization.
//!
//! Two execution paths share the counter accounting:
//!
//! * [`Executor::run_plan`] — the **fused-block engine**: every block is
//!   compiled to a [`dnnf_core::FusedKernel`] (single-pass scalar tapes for
//!   element-wise runs, optimized anchor kernels for Conv/MatMul/pooling),
//!   boundary tensors are stored behind `Arc` in slot-indexed storage and
//!   their buffers recycled through a [`TensorArena`] driven by the
//!   [`MemoryPlan`]'s lifetimes.
//! * [`Executor::run_plan_reference`] — the **reference interpreter**: every
//!   operator runs its reference kernel and every boundary tensor is
//!   materialized. This is the semantic oracle the differential test harness
//!   pins the engine against, and the baseline the wall-clock benches
//!   compare with.
//!
//! Everything about a run that does not depend on the input values — the
//! block order, the [`MemoryPlan`], the buffer-death lists and the simulated
//! counters — is a *run schedule*: a pure function of (graph, plan, device,
//! cache-simulation flag). The compiled-model entry points build it once
//! per compiled instance (the model itself, each batch or sequence
//! instance), keep it in that instance's runtime cache slot (one per device
//! and flag) and reuse it on every later run; evicting an instance drops
//! its schedules with it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dnnf_core::{compile_plan, BufferPool, CompiledModel, Ecg, FusionPlan, RuntimeCacheSlot};
use dnnf_graph::{Graph, ValueId};
use dnnf_ops::execute;
use dnnf_profiledb::ProfileDatabase;
use dnnf_simdev::{BlockWork, CacheHierarchy, Counters, DeviceCostModel, DeviceSpec};
use dnnf_tensor::Tensor;

use crate::{
    materialize_weights, DeviceLatencyModel, ExecOptions, MemoryPlan, RuntimeError, TensorArena,
    WeightStore,
};

/// The result of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Output tensors, in the graph's output order.
    pub outputs: Vec<Tensor>,
    /// Simulated device counters for the run.
    pub counters: Counters,
    /// The memory plan used for the run.
    pub memory: MemoryPlan,
}

impl ExecutionReport {
    /// Modeled latency in milliseconds (the unit of the paper's Table 6).
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.counters.latency_us / 1e3
    }
}

/// Executes models on a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    device: DeviceSpec,
    simulate_cache: bool,
    options: ExecOptions,
}

/// The input-independent half of a run, built by
/// [`Executor::build_schedule`].
#[derive(Debug)]
struct RunSchedule {
    /// Block indices in execution order.
    order: Vec<usize>,
    /// Per position in `order`: the boundary values whose buffers return to
    /// the arena once that block has run (graph outputs never do).
    deaths: Vec<Vec<ValueId>>,
    memory: MemoryPlan,
    counters: Counters,
}

/// Schedules cached on one compiled instance, one per (device,
/// cache-simulation flag) an executor ran it with.
#[derive(Default)]
struct RunSchedules(Mutex<Vec<(DeviceSpec, bool, Arc<RunSchedule>)>>);

/// Bound on [`RunSchedules`]: a process normally runs an instance on one or
/// two simulated devices; beyond this the oldest schedule is dropped.
const MAX_SCHEDULES_PER_INSTANCE: usize = 4;

/// Shared per-run device accounting (identical for both execution paths, so
/// counters never depend on which engine produced the numbers).
struct Accounting {
    cost_model: DeviceCostModel,
    work_model: DeviceLatencyModel,
    cache: CacheHierarchy,
    counters: Counters,
    works: Vec<BlockWork>,
    addresses: Vec<u64>,
}

impl Executor {
    /// Creates an executor for a device with the default [`ExecOptions`]
    /// (thread count from the host, or `DNNF_NUM_THREADS` when set).
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        Executor {
            device,
            simulate_cache: true,
            options: ExecOptions::default(),
        }
    }

    /// Disables the cache simulation (useful for large sweeps where only
    /// latency and traffic are needed).
    #[must_use]
    pub fn without_cache_simulation(mut self) -> Self {
        self.simulate_cache = false;
        self
    }

    /// Replaces the execution options (thread count and parallelism gate).
    #[must_use]
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Caps kernel launches at `num_threads` threads; `1` recovers the
    /// fully serial engine. Results are bit-identical either way.
    #[must_use]
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.options.num_threads = num_threads.max(1);
        self
    }

    /// The execution options in effect.
    #[must_use]
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The device this executor models.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Runs a compiled model through the fused-block engine.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_compiled(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        // The model carries its compiled kernels and (after the first run)
        // its materialized weight store: repeated inference never
        // re-compiles the plan and never re-materializes or re-packs a
        // weight — every run shares the same Arc-backed tensors, across
        // executors and across threads.
        let store = WeightStore::of_model(model);
        self.run_plan_with_store(
            model.graph(),
            &model.plan,
            &model.engine,
            Some(model.runtime_cache()),
            &store,
            inputs,
            None,
        )
    }

    /// Runs a compiled model accepting any batch size: the leading (batch)
    /// dimension of the provided inputs may differ from the batch size the
    /// model was compiled at. When it does, the model's expensive fusion
    /// plan is reused verbatim and only cheap shape inference + code
    /// generation re-run for the requested batch
    /// ([`CompiledModel::instance_for_batch`], cached on the model), so one
    /// compiled plan — one plan-cache entry — serves every batch size.
    ///
    /// The weight store is shared with the native path (weights are
    /// batch-free and value ids are stable under rebatching), and because
    /// every kernel partitions work so each thread/lane owns whole output
    /// elements of independent batch items, outputs are **bit-identical** to
    /// running each batch row through [`Executor::run_compiled`] separately.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing, disagree on their
    /// batch size, or mismatch the model beyond the batch dimension; and
    /// [`RuntimeError::Core`] when the model cannot be rebatched (e.g. an
    /// operator whose attributes bake in the native batch size).
    pub fn run_compiled_batched(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let graph = model.graph();
        let batch = self.requested_batch(graph, inputs)?;
        if batch.is_none() || batch == model.native_batch() {
            // Native batch (or nothing to rebatch): the precompiled engine
            // serves the request directly.
            return self.run_compiled(model, inputs);
        }
        let instance = model
            .instance_for_batch(batch.expect("checked above"))
            .map_err(RuntimeError::Core)?;
        let store = WeightStore::of_model(model);
        self.run_plan_with_store(
            instance.graph(),
            &model.plan,
            instance.engine(),
            Some(instance.runtime_cache()),
            &store,
            inputs,
            None,
        )
    }

    /// Runs a compiled model accepting any KV-cache (sequence) length: the
    /// marked sequence axes ([`Graph::mark_seq_axis`]) of the provided
    /// inputs may differ from the length the model was compiled at. When
    /// they do, the model's expensive fusion plan is reused verbatim and
    /// only cheap shape inference + code generation re-run for the
    /// requested length ([`CompiledModel::instance_for_seq`], cached on the
    /// model) — the per-step dispatch of an autoregressive decode loop.
    ///
    /// Inputs are taken as `Arc<Tensor>` so the growing KV-cache tensors a
    /// `DecodeSession` holds are shared into the engine without copying a
    /// cache that gets larger every token. The weight store is shared with
    /// the native path (weights are length-free and value ids are stable
    /// under rebinding), and outputs are bit-identical across thread counts
    /// and scalar mode exactly as for [`Executor::run_compiled`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing, disagree on their
    /// sequence length, or mismatch the model beyond the marked axes; and
    /// [`RuntimeError::Core`] when the model cannot be rebound (e.g. an
    /// operator whose attributes bake in the native sequence length).
    pub fn run_compiled_seq(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Arc<Tensor>>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let graph = model.graph();
        let seq_len = self.requested_seq(graph, inputs)?;
        let store = WeightStore::of_model(model);
        if seq_len.is_none() || seq_len == model.native_seq_len() {
            // Native length (or nothing to rebind): the precompiled engine
            // serves the request directly.
            return self.run_plan_with_store_arc(
                graph,
                &model.plan,
                &model.engine,
                Some(model.runtime_cache()),
                &store,
                inputs,
                None,
            );
        }
        let instance = model
            .instance_for_seq(seq_len.expect("checked above"))
            .map_err(RuntimeError::Core)?;
        self.run_plan_with_store_arc(
            instance.graph(),
            &model.plan,
            instance.engine(),
            Some(instance.runtime_cache()),
            &store,
            inputs,
            None,
        )
    }

    /// The sequence length the provided inputs request, read off the marked
    /// sequence axes. `None` when no input is marked or a marked input's
    /// rank disagrees with the graph (the native path then reports the
    /// precise mismatch); an error when inputs are missing or two marked
    /// inputs disagree on the length.
    fn requested_seq(
        &self,
        graph: &Graph,
        inputs: &HashMap<String, Arc<Tensor>>,
    ) -> Result<Option<usize>, RuntimeError> {
        let mut seq_len: Option<usize> = None;
        for &input_id in graph.inputs() {
            let Some(axis) = graph.seq_axis(input_id) else {
                continue;
            };
            let value = graph.value(input_id);
            let tensor = inputs
                .get(&value.name)
                .ok_or_else(|| RuntimeError::MissingInput {
                    name: value.name.clone(),
                })?;
            if tensor.shape().rank() != value.shape.rank() {
                return Ok(None);
            }
            let s = tensor.shape().dim(axis);
            match seq_len {
                None => seq_len = Some(s),
                Some(prev) if prev != s => {
                    let mut expected = value.shape.dims().to_vec();
                    expected[axis] = prev;
                    return Err(RuntimeError::InputShapeMismatch {
                        name: value.name.clone(),
                        expected,
                        actual: tensor.shape().dims().to_vec(),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(seq_len)
    }

    /// The batch size the provided inputs request, by the leading-dimension
    /// convention. `None` when the graph has no inputs or an input's rank
    /// disagrees with the graph (the native path then reports the precise
    /// mismatch); an error when inputs are missing or disagree with each
    /// other on the batch size.
    fn requested_batch(
        &self,
        graph: &Graph,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Option<usize>, RuntimeError> {
        let mut batch: Option<usize> = None;
        for &input_id in graph.inputs() {
            let value = graph.value(input_id);
            let tensor = inputs
                .get(&value.name)
                .ok_or_else(|| RuntimeError::MissingInput {
                    name: value.name.clone(),
                })?;
            if value.shape.rank() == 0 || tensor.shape().rank() != value.shape.rank() {
                return Ok(None);
            }
            let b = tensor.shape().dim(0);
            match batch {
                None => batch = Some(b),
                Some(prev) if prev != b => {
                    let mut expected = value.shape.dims().to_vec();
                    expected[0] = prev;
                    return Err(RuntimeError::InputShapeMismatch {
                        name: value.name.clone(),
                        expected,
                        actual: tensor.shape().dims().to_vec(),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(batch)
    }

    /// Runs a compiled model like [`Executor::run_compiled`] while recording
    /// each fused block's **measured wall-clock latency** (µs) into `db`,
    /// under exactly the key the fusion planner consults during exploration
    /// ([`dnnf_core::block_profile_key`]). Persisting that database and
    /// pre-loading it into the next compilation
    /// ([`dnnf_core::Compiler::with_database`]) makes the plan search
    /// optimize against values measured on this host instead of the static
    /// analytic estimates — the paper's offline profiling step.
    ///
    /// Outputs are bit-identical to [`Executor::run_compiled`]; only the
    /// timing instrumentation differs.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing or mismatched, or a
    /// kernel fails.
    pub fn profile_compiled(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
        db: &mut ProfileDatabase,
    ) -> Result<ExecutionReport, RuntimeError> {
        let store = WeightStore::of_model(model);
        self.run_plan_with_store(
            model.graph(),
            &model.plan,
            &model.engine,
            Some(model.runtime_cache()),
            &store,
            inputs,
            Some(db),
        )
    }

    /// Runs a compiled model against a caller-supplied [`WeightStore`]
    /// instead of the model's cached one. Outputs are bit-identical for any
    /// store built from the model's graph — packed or unpacked, panels only
    /// change access patterns — so this exists for packed-vs-unpacked
    /// differential tests and the `conv_pack_speedup` benchmark column
    /// (which times fused runs with [`WeightStore::build_unpacked`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Executor::run_compiled`].
    pub fn run_compiled_with_store(
        &self,
        model: &CompiledModel,
        store: &WeightStore,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        self.run_plan_with_store(
            model.graph(),
            &model.plan,
            &model.engine,
            Some(model.runtime_cache()),
            store,
            inputs,
            None,
        )
    }

    /// Runs a graph without any fusion (every operator is its own kernel)
    /// through the reference interpreter. This is the unfused baseline —
    /// `OurB` in the paper's evaluation — and the semantic oracle of the
    /// differential tests.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_unfused(
        &self,
        graph: &Graph,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let ecg = Ecg::new(graph.clone());
        let plan = FusionPlan::singletons(&ecg);
        self.run_plan_reference(graph, &plan, inputs)
    }

    /// Estimates the counters of executing a graph under a plan *without*
    /// running any kernels: latency, traffic, peak memory, utilization and
    /// (optionally) cache statistics are produced from the cost model and the
    /// access trace alone. This is what the benchmark harness uses for the
    /// full-depth models, where executing reference kernels would be
    /// pointlessly slow and the paper's metrics are all counter-based.
    #[must_use]
    pub fn estimate_plan(&self, graph: &Graph, plan: &FusionPlan) -> (Counters, MemoryPlan) {
        let schedule = self.build_schedule(graph, plan);
        (schedule.counters, schedule.memory)
    }

    /// Builds the input-independent [`RunSchedule`] of `plan` over `graph`
    /// for this executor's device and cache-simulation flag.
    fn build_schedule(&self, graph: &Graph, plan: &FusionPlan) -> RunSchedule {
        let order = plan.execution_order(graph);
        let memory = MemoryPlan::build(graph, plan, &order, self.device.elem_bytes);
        let mut acct = self.accounting(graph);
        for &block_idx in &order {
            let block = &plan.blocks()[block_idx];
            self.account_block(graph, plan, block, &mut acct);
        }
        let counters = self.finish(acct, &memory);
        let mut deaths: Vec<Vec<ValueId>> = vec![Vec::new(); order.len()];
        for lifetime in &memory.lifetimes {
            if !graph.outputs().contains(&lifetime.value) {
                deaths[lifetime.death].push(lifetime.value);
            }
        }
        RunSchedule {
            order,
            deaths,
            memory,
            counters,
        }
    }

    /// The run schedule for `graph`/`plan`: from `cache` (the slot of the
    /// compiled instance they belong to) when this executor's device and
    /// cache-simulation flag already have one there, else built — and
    /// stored in `cache` for the next run.
    fn schedule(
        &self,
        cache: Option<&RuntimeCacheSlot>,
        graph: &Graph,
        plan: &FusionPlan,
    ) -> Arc<RunSchedule> {
        let Some(cache) = cache else {
            return Arc::new(self.build_schedule(graph, plan));
        };
        let schedules = cache.get_or_init(RunSchedules::default);
        let mut entries = schedules.0.lock().expect("run schedule lock");
        let key = |(device, simulate, _): &&(DeviceSpec, bool, Arc<RunSchedule>)| {
            *device == self.device && *simulate == self.simulate_cache
        };
        if let Some((.., hit)) = entries.iter().find(key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(self.build_schedule(graph, plan));
        if entries.len() >= MAX_SCHEDULES_PER_INSTANCE {
            entries.remove(0);
        }
        entries.push((self.device.clone(), self.simulate_cache, Arc::clone(&built)));
        built
    }

    /// Estimates the counters of the unfused execution of a graph (every
    /// operator its own kernel), without running kernels.
    #[must_use]
    pub fn estimate_unfused(&self, graph: &Graph) -> (Counters, MemoryPlan) {
        let ecg = Ecg::new(graph.clone());
        let plan = FusionPlan::singletons(&ecg);
        self.estimate_plan(graph, &plan)
    }

    /// Runs a graph under an explicit fusion plan through the fused-block
    /// engine: each block executes as one compiled kernel, boundary tensors
    /// live in `Arc`-backed slot storage keyed by value id, and output
    /// buffers are recycled through an arena as the memory plan's lifetimes
    /// expire.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_plan(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let engine = compile_plan(graph, plan);
        self.run_plan_with_engine(graph, plan, &engine, inputs)
    }

    /// Engine dispatch with pre-compiled kernels — the path behind
    /// [`Executor::run_plan`] (ad-hoc plans, compiled on the spot) and
    /// [`Executor::run_compiled`] (kernels cached in the [`CompiledModel`]).
    /// Callers timing repeated inference should compile once with
    /// [`dnnf_core::compile_plan`] and dispatch here, so per-run cost never
    /// includes plan compilation.
    ///
    /// This entry point has no [`CompiledModel`] to cache on, so it builds a
    /// fresh [`WeightStore`] per call — the *uncached* configuration
    /// `bench_exec` reports as `uncached_run_ms`. [`Executor::run_compiled`]
    /// reuses the model's cached store instead; outputs are bit-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_plan_with_engine(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        engine: &dnnf_core::CompiledPlan,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let store = WeightStore::build(graph);
        self.run_plan_with_store(graph, plan, engine, None, &store, inputs, None)
    }

    /// [`Executor::run_plan_with_store_arc`] over a map of owned tensors:
    /// each graph input is cloned into a shared handle once per run.
    #[allow(clippy::too_many_arguments)]
    fn run_plan_with_store(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        engine: &dnnf_core::CompiledPlan,
        cache: Option<&RuntimeCacheSlot>,
        store: &WeightStore,
        inputs: &HashMap<String, Tensor>,
        profile: Option<&mut ProfileDatabase>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let shared: HashMap<String, Arc<Tensor>> = inputs
            .iter()
            .map(|(name, tensor)| (name.clone(), Arc::new(tensor.clone())))
            .collect();
        self.run_plan_with_store_arc(graph, plan, engine, cache, store, &shared, profile)
    }

    /// The shared engine-dispatch path: boundary tensors in slot storage,
    /// inputs and weights handed out by `Arc` clone (no copying, no
    /// re-materialization), prepacked panels forwarded to the kernels, and
    /// the run schedule taken from `cache` (the slot of the compiled
    /// instance `graph` and `engine` belong to) when there is one.
    #[allow(clippy::too_many_arguments)]
    fn run_plan_with_store_arc(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        engine: &dnnf_core::CompiledPlan,
        cache: Option<&RuntimeCacheSlot>,
        store: &WeightStore,
        inputs: &HashMap<String, Arc<Tensor>>,
        mut profile: Option<&mut ProfileDatabase>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let schedule = self.schedule(cache, graph, plan);

        // Slot-indexed boundary storage: inputs, weights, block outputs.
        let mut env: Vec<Option<Arc<Tensor>>> = vec![None; graph.value_count()];
        for &input_id in graph.inputs() {
            let tensor = self.checked_input_arc(graph, input_id, inputs)?;
            env[input_id.index()] = Some(Arc::clone(tensor));
        }
        for value in graph.values() {
            if value.is_weight() {
                env[value.id.index()] = store.get(value.id).cloned();
            }
        }

        // Buffer recycling: each boundary value's buffer returns to the
        // arena right after the block at its death position has executed.
        let mut arena = TensorArena::new();
        let workers = self.options.pool();

        for (&block_idx, deaths) in schedule.order.iter().zip(&schedule.deaths) {
            let kernel = engine.kernel(block_idx);
            let started = profile.as_ref().map(|_| std::time::Instant::now());
            let produced = kernel
                .run(
                    graph,
                    &mut |v| env[v.index()].clone(),
                    store.packed(),
                    &mut arena,
                    workers,
                )
                .map_err(RuntimeError::Core)?;
            if let (Some(db), Some(started)) = (profile.as_deref_mut(), started) {
                let micros = started.elapsed().as_secs_f64() * 1e6;
                let block = &plan.blocks()[block_idx];
                db.record(dnnf_core::block_profile_key(graph, &block.nodes), micros);
            }
            for (out_id, tensor) in produced {
                env[out_id.index()] = Some(Arc::new(tensor));
            }
            for &dead in deaths {
                if let Some(handle) = env[dead.index()].take() {
                    if let Ok(tensor) = Arc::try_unwrap(handle) {
                        arena.recycle(tensor.into_vec());
                    }
                }
            }
        }

        // Graph outputs are excluded from recycling, so each slot holds the
        // only reference and unwraps without copying the tensor.
        let outputs = self.collect_outputs(graph, |id| {
            env[id.index()]
                .take()
                .map(|handle| Arc::try_unwrap(handle).unwrap_or_else(|rc| (*rc).clone()))
        })?;
        Ok(ExecutionReport {
            outputs,
            counters: schedule.counters.clone(),
            memory: schedule.memory.clone(),
        })
    }

    /// Runs a graph under an explicit fusion plan with the per-operator
    /// reference interpreter: every node executes its reference kernel and
    /// every boundary tensor is cloned into the environment. Slower than
    /// [`Executor::run_plan`] by construction — this path *defines* the
    /// semantics the engine must reproduce.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_plan_reference(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        // Environment of boundary tensors: inputs, weights, block outputs.
        let mut env: HashMap<ValueId, Tensor> = HashMap::new();
        for &input_id in graph.inputs() {
            let tensor = self.checked_input(graph, input_id, inputs)?;
            env.insert(input_id, tensor.clone());
        }
        for (id, tensor) in materialize_weights(graph) {
            env.insert(id, tensor);
        }

        let schedule = self.build_schedule(graph, plan);
        for &block_idx in &schedule.order {
            let block = &plan.blocks()[block_idx];
            // --- Functional execution of the block ---
            let mut scratch: HashMap<ValueId, Tensor> = HashMap::new();
            for &node_id in &block.nodes {
                let node = graph.node(node_id);
                let input_tensors: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|v| {
                        scratch.get(v).or_else(|| env.get(v)).ok_or_else(|| {
                            RuntimeError::Graph(dnnf_graph::GraphError::Invalid {
                                reason: format!(
                                    "value `{}` not available for node `{}`",
                                    graph.value(*v).name,
                                    node.name
                                ),
                            })
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let outputs = execute(node.op, &node.attrs, &input_tensors)?;
                for (&out_id, tensor) in node.outputs.iter().zip(outputs) {
                    scratch.insert(out_id, tensor);
                }
            }
            // Promote escaping outputs to the environment; everything else in
            // `scratch` is dropped — it was never "materialized".
            for &node_id in &block.nodes {
                for &out_id in &graph.node(node_id).outputs {
                    if plan.value_escapes(graph, out_id) {
                        if let Some(t) = scratch.get(&out_id) {
                            env.insert(out_id, t.clone());
                        }
                    }
                }
            }
        }

        let outputs = self.collect_outputs(graph, |id| env.get(&id).cloned())?;
        Ok(ExecutionReport {
            outputs,
            counters: schedule.counters,
            memory: schedule.memory,
        })
    }

    fn checked_input<'a>(
        &self,
        graph: &Graph,
        input_id: ValueId,
        inputs: &'a HashMap<String, Tensor>,
    ) -> Result<&'a Tensor, RuntimeError> {
        let value = graph.value(input_id);
        let tensor = inputs
            .get(&value.name)
            .ok_or_else(|| RuntimeError::MissingInput {
                name: value.name.clone(),
            })?;
        if tensor.shape() != &value.shape {
            return Err(RuntimeError::InputShapeMismatch {
                name: value.name.clone(),
                expected: value.shape.dims().to_vec(),
                actual: tensor.shape().dims().to_vec(),
            });
        }
        Ok(tensor)
    }

    fn checked_input_arc<'a>(
        &self,
        graph: &Graph,
        input_id: ValueId,
        inputs: &'a HashMap<String, Arc<Tensor>>,
    ) -> Result<&'a Arc<Tensor>, RuntimeError> {
        let value = graph.value(input_id);
        let tensor = inputs
            .get(&value.name)
            .ok_or_else(|| RuntimeError::MissingInput {
                name: value.name.clone(),
            })?;
        if tensor.shape() != &value.shape {
            return Err(RuntimeError::InputShapeMismatch {
                name: value.name.clone(),
                expected: value.shape.dims().to_vec(),
                actual: tensor.shape().dims().to_vec(),
            });
        }
        Ok(tensor)
    }

    fn collect_outputs(
        &self,
        graph: &Graph,
        mut get: impl FnMut(ValueId) -> Option<Tensor>,
    ) -> Result<Vec<Tensor>, RuntimeError> {
        graph
            .outputs()
            .iter()
            .map(|&id| {
                get(id).ok_or_else(|| {
                    RuntimeError::Graph(dnnf_graph::GraphError::Invalid {
                        reason: "graph output was never produced".into(),
                    })
                })
            })
            .collect()
    }

    /// Virtual addresses for the cache simulation: each value gets a
    /// 64-byte-aligned region of a flat address space.
    fn accounting(&self, graph: &Graph) -> Accounting {
        let elem_bytes = self.device.elem_bytes;
        let scale = |bytes: usize| bytes as u64 / 4 * elem_bytes;
        let mut addresses: Vec<u64> = Vec::with_capacity(graph.value_count());
        let mut next_addr = 0u64;
        for value in graph.values() {
            addresses.push(next_addr);
            let bytes = scale(value.size_bytes()).max(1);
            next_addr += bytes.div_ceil(64) * 64;
        }
        Accounting {
            cost_model: DeviceCostModel::new(self.device.clone()),
            work_model: DeviceLatencyModel::new(self.device.clone()),
            cache: CacheHierarchy::new(&self.device.cache),
            counters: Counters::default(),
            works: Vec::new(),
            addresses,
        }
    }

    fn account_block(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        block: &dnnf_core::FusionBlock,
        acct: &mut Accounting,
    ) {
        let elem_bytes = self.device.elem_bytes;
        let work = acct.work_model.block_work(graph, &block.nodes);
        acct.counters.kernel_launches += 1;
        acct.counters.flops += work.flops;
        acct.counters.memory_access_bytes += work.boundary_elems * elem_bytes;
        acct.counters.latency_us += acct.cost_model.kernel_latency_us(&work);
        if self.simulate_cache {
            self.simulate_block_accesses(
                graph,
                plan,
                block.id,
                &block.nodes,
                &acct.addresses,
                &mut acct.cache,
            );
        }
        acct.works.push(work);
    }

    fn finish(&self, acct: Accounting, memory: &MemoryPlan) -> Counters {
        let mut counters = acct.counters;
        counters.peak_memory_bytes = memory.peak_bytes();
        counters.utilization_percent = acct.cost_model.utilization_percent(&acct.works);
        counters.cache = acct.cache.stats();
        counters
    }

    /// Feeds the block's boundary reads and writes through the cache
    /// simulator (internal values never touch memory).
    fn simulate_block_accesses(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        block_id: usize,
        nodes: &[dnnf_graph::NodeId],
        addresses: &[u64],
        cache: &mut CacheHierarchy,
    ) {
        let elem_bytes = self.device.elem_bytes;
        let scale = |bytes: usize| bytes as u64 / 4 * elem_bytes;
        let in_block = |n: dnnf_graph::NodeId| plan.block_of(n) == block_id;
        let mut seen: std::collections::BTreeSet<ValueId> = std::collections::BTreeSet::new();
        for &node_id in nodes {
            let node = graph.node(node_id);
            for &input in &node.inputs {
                let v = graph.value(input);
                let internal = v.producer.map(&in_block).unwrap_or(false);
                if !internal && seen.insert(input) {
                    cache.access(addresses[input.index()], scale(v.size_bytes()));
                }
            }
            for &output in &node.outputs {
                let v = graph.value(output);
                if plan.value_escapes(graph, output) && seen.insert(output) {
                    cache.access(addresses[output.index()], scale(v.size_bytes()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_core::{Compiler, CompilerOptions};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// Conv -> bias Add -> Relu -> MaxPool -> Flatten -> MatMul network.
    fn small_cnn() -> Graph {
        let mut g = Graph::new("small-cnn");
        let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 3, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let b = g.add_weight("conv.b", Shape::new(vec![1, 4, 1, 1]));
        let bias = g
            .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[bias], "relu")
            .unwrap()[0];
        let pool = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[relu],
                "pool",
            )
            .unwrap()[0];
        let flat = g
            .add_op(
                OpKind::Flatten,
                Attrs::new().with_int("axis", 1),
                &[pool],
                "flatten",
            )
            .unwrap()[0];
        let fc = g.add_weight("fc.w", Shape::new(vec![64, 10]));
        let out = g
            .add_op(OpKind::MatMul, Attrs::new(), &[flat, fc], "fc")
            .unwrap()[0];
        g.mark_output(out);
        g
    }

    fn inputs_for(graph: &Graph) -> HashMap<String, Tensor> {
        graph
            .inputs()
            .iter()
            .map(|&id| {
                let v = graph.value(id);
                (v.name.clone(), Tensor::random(v.shape.clone(), 42))
            })
            .collect()
    }

    #[test]
    fn threaded_execution_is_bit_identical_to_serial_with_identical_counters() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let serial =
            Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
        let base = serial.run_compiled(&compiled, &inputs).unwrap();
        for threads in [2, 8] {
            // min_parallel_work = 0 forces the parallel partitioning even on
            // this small model.
            let threaded = serial.clone().with_options(ExecOptions {
                num_threads: threads,
                min_parallel_work: 0,
                ..ExecOptions::serial()
            });
            assert_eq!(threaded.options().num_threads, threads);
            let report = threaded.run_compiled(&compiled, &inputs).unwrap();
            for (a, b) in base.outputs.iter().zip(&report.outputs) {
                assert_eq!(
                    a.first_disagreement(b, 0.0),
                    None,
                    "threaded execution diverged at {threads} threads"
                );
            }
            // Threading changes wall-clock only; the modeled device counters
            // and memory plan are identical.
            assert_eq!(base.counters, report.counters);
            assert_eq!(base.memory, report.memory);
        }
    }

    #[test]
    fn force_scalar_execution_is_bit_identical_with_identical_counters() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let simd =
            Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
        let base = simd.run_compiled(&compiled, &inputs).unwrap();
        let scalar = simd
            .clone()
            .with_options(ExecOptions::serial().scalar_kernels());
        assert!(scalar.options().force_scalar);
        let report = scalar.run_compiled(&compiled, &inputs).unwrap();
        for (a, b) in base.outputs.iter().zip(&report.outputs) {
            assert_eq!(
                a.first_disagreement(b, 0.0),
                None,
                "force_scalar changed output bits"
            );
        }
        // SIMD changes wall-clock only; the modeled counters are identical.
        assert_eq!(base.counters, report.counters);
    }

    #[test]
    fn batched_execution_is_bit_identical_to_per_request_runs() {
        let g = small_cnn();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        // One polymorphic plan serves several batch sizes.
        for batch in [1usize, 2, 5] {
            // Batch input: `batch` independent rows concatenated along dim 0.
            let per_row: Vec<Tensor> = (0..batch)
                .map(|i| Tensor::random(Shape::new(vec![1, 3, 8, 8]), 100 + i as u64))
                .collect();
            let mut data = Vec::new();
            for t in &per_row {
                data.extend_from_slice(t.data());
            }
            let batched: HashMap<String, Tensor> = [(
                "x".to_string(),
                Tensor::from_vec(Shape::new(vec![batch, 3, 8, 8]), data).unwrap(),
            )]
            .into();
            let report = executor.run_compiled_batched(&compiled, &batched).unwrap();
            assert_eq!(report.outputs[0].shape().dims(), &[batch, 10]);
            // Each row is bit-identical to its own single-request run.
            for (i, row) in per_row.iter().enumerate() {
                let single: HashMap<String, Tensor> = [("x".to_string(), row.clone())].into();
                let direct = executor.run_compiled(&compiled, &single).unwrap();
                let got = &report.outputs[0].data()[i * 10..(i + 1) * 10];
                assert_eq!(
                    got,
                    direct.outputs[0].data(),
                    "batch {batch} row {i} diverged from the direct run"
                );
            }
        }
        // Inconsistent batch sizes across inputs are rejected up front.
        let mut two_inputs = Graph::new("two-in");
        let a = two_inputs.add_input("a", Shape::new(vec![1, 4]));
        let b = two_inputs.add_input("b", Shape::new(vec![1, 4]));
        let sum = two_inputs
            .add_op(OpKind::Add, Attrs::new(), &[a, b], "sum")
            .unwrap()[0];
        two_inputs.mark_output(sum);
        let compiled2 = Compiler::new(CompilerOptions::default())
            .compile(&two_inputs)
            .unwrap();
        let bad: HashMap<String, Tensor> = [
            ("a".to_string(), Tensor::zeros(Shape::new(vec![2, 4]))),
            ("b".to_string(), Tensor::zeros(Shape::new(vec![3, 4]))),
        ]
        .into();
        assert!(matches!(
            executor.run_compiled_batched(&compiled2, &bad),
            Err(RuntimeError::InputShapeMismatch { .. })
        ));
    }

    #[test]
    fn fused_and_unfused_execution_agree_numerically() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let unfused = executor.run_unfused(&g, &inputs).unwrap();

        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();

        assert_eq!(unfused.outputs.len(), fused.outputs.len());
        for (a, b) in unfused.outputs.iter().zip(&fused.outputs) {
            assert!(a.allclose(b, 1e-4), "fusion changed the numerical result");
        }
    }

    #[test]
    fn engine_and_reference_interpreter_agree_on_the_same_plan() {
        // Same graph, same plan: the compiled engine must reproduce the
        // reference interpreter to within float-identical results.
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let engine = executor.run_plan(&g, &plan, &inputs).unwrap();
        let reference = executor.run_plan_reference(&g, &plan, &inputs).unwrap();
        for (a, b) in engine.outputs.iter().zip(&reference.outputs) {
            assert!(a.allclose(b, 0.0), "engine diverged from reference");
        }
        // And the counters are computed identically on both paths.
        assert_eq!(engine.counters, reference.counters);
        assert_eq!(engine.memory, reference.memory);
    }

    #[test]
    fn fusion_reduces_latency_launches_and_memory_traffic() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_gpu());
        let unfused = executor.run_unfused(&g, &inputs).unwrap();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();

        assert!(fused.counters.kernel_launches < unfused.counters.kernel_launches);
        assert!(fused.counters.memory_access_bytes < unfused.counters.memory_access_bytes);
        assert!(fused.counters.latency_us < unfused.counters.latency_us);
        assert!(fused.counters.peak_memory_bytes <= unfused.counters.peak_memory_bytes);
        assert!(fused.counters.utilization_percent >= unfused.counters.utilization_percent);
    }

    #[test]
    fn cache_misses_drop_with_fusion() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let unfused = executor.run_unfused(&g, &inputs).unwrap();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();
        let unfused_l2: u64 = unfused
            .counters
            .cache
            .level_misses
            .get(1)
            .copied()
            .unwrap_or(0);
        let fused_l2: u64 = fused
            .counters
            .cache
            .level_misses
            .get(1)
            .copied()
            .unwrap_or(0);
        assert!(fused_l2 <= unfused_l2);
    }

    #[test]
    fn missing_and_mismatched_inputs_are_rejected() {
        let g = small_cnn();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let empty = HashMap::new();
        assert!(matches!(
            executor.run_unfused(&g, &empty),
            Err(RuntimeError::MissingInput { .. })
        ));
        let bad: HashMap<String, Tensor> =
            [("x".to_string(), Tensor::zeros(Shape::new(vec![2, 2])))].into();
        assert!(matches!(
            executor.run_unfused(&g, &bad),
            Err(RuntimeError::InputShapeMismatch { .. })
        ));
        // The engine path checks inputs the same way.
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        assert!(matches!(
            executor.run_plan(&g, &plan, &empty),
            Err(RuntimeError::MissingInput { .. })
        ));
    }

    #[test]
    fn latency_report_converts_to_milliseconds() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
        let report = executor.run_unfused(&g, &inputs).unwrap();
        assert!((report.latency_ms() - report.counters.latency_us / 1e3).abs() < 1e-12);
        assert!(report.counters.flops > 0);
        // Cache simulation disabled: no per-level counters recorded.
        assert!(report.counters.cache.level_accesses.iter().all(|&a| a == 0));
    }

    #[test]
    fn gpu_uses_fp16_traffic_accounting() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let cpu = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
        let gpu = Executor::new(DeviceSpec::snapdragon_865_gpu()).without_cache_simulation();
        let cpu_report = cpu.run_unfused(&g, &inputs).unwrap();
        let gpu_report = gpu.run_unfused(&g, &inputs).unwrap();
        assert_eq!(
            cpu_report.counters.memory_access_bytes,
            2 * gpu_report.counters.memory_access_bytes
        );
    }
}
