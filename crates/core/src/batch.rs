//! Batch-dimension-polymorphic plan instantiation.
//!
//! A [`FusionPlan`](crate::FusionPlan) stores node *groupings*, not shapes:
//! which operators fuse into which block is decided by operator kinds,
//! mapping types and data-flow topology, none of which change when the batch
//! dimension does. Fused code generation ([`compile_plan`]) on the other
//! hand bakes loop shapes into its scalar tapes, and the memory planner
//! sizes arenas from value shapes — both of which are cheap and deterministic
//! per-shape work.
//!
//! [`CompiledModel::instance_for_batch`] exploits that split: it reuses the
//! expensive profile-driven plan verbatim and re-runs only the cheap codegen
//! against the model's graph rebatched to the requested batch size. The
//! result is one compiled plan (one plan-cache entry) serving *any* batch
//! size — the engine-side unlock for dynamic request batching in
//! `dnnf-serve`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dnnf_graph::Graph;

use crate::exec::{compile_plan, CompiledPlan};
use crate::{CompiledModel, CoreError, RuntimeCacheSlot};

/// How many distinct batch sizes a model caches executable instances for.
/// Serving workloads coalesce to a handful of batch sizes (1..=max_batch),
/// so this is a generous bound; the least recently used instance is evicted
/// beyond it. Instances are cheap to rebuild (codegen only), so eviction
/// costs a recompile, never a plan search.
const MAX_CACHED_BATCHES: usize = 32;

/// One batch size's executable view of a compiled model: the model's
/// (rewritten) graph rebatched via [`Graph::with_batch_size`] plus the
/// fusion plan recompiled to kernels against those shapes.
///
/// Node and value ids are identical to the parent model's graph, so the
/// parent's fusion plan, weight store and layout decisions all apply
/// unchanged; only shapes (and therefore loop extents and arena sizes)
/// differ.
#[derive(Debug)]
pub struct BatchInstance {
    batch: usize,
    graph: Graph,
    engine: CompiledPlan,
    runtime_cache: RuntimeCacheSlot,
}

impl BatchInstance {
    /// The batch size this instance executes.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The rebatched graph (same ids as the parent model's graph).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The plan compiled to kernels for this batch size.
    #[must_use]
    pub fn engine(&self) -> &CompiledPlan {
        &self.engine
    }

    /// This instance's own runtime cache slot (see [`RuntimeCacheSlot`]):
    /// state the runtime derives from the instance's shapes lives here, so
    /// it is built once per instance and evicted with it.
    #[must_use]
    pub fn runtime_cache(&self) -> &RuntimeCacheSlot {
        &self.runtime_cache
    }
}

/// Per-model cache of batch instances, attached to the model's
/// [`RuntimeCacheSlot`](crate::RuntimeCacheSlot). Recency-tracked so a
/// long-lived server touching many batch sizes stays bounded.
#[derive(Default)]
struct BatchInstances {
    state: Mutex<BatchInstanceMap>,
}

#[derive(Default)]
struct BatchInstanceMap {
    /// batch size -> (last-use tick, instance).
    entries: BTreeMap<usize, (u64, Arc<BatchInstance>)>,
    tick: u64,
}

impl CompiledModel {
    /// The batch size the model was compiled at (the leading dimension of
    /// its first graph input), or `None` for input-less graphs.
    #[must_use]
    pub fn native_batch(&self) -> Option<usize> {
        self.graph().batch_size()
    }

    /// Returns an executable [`BatchInstance`] of this model for the given
    /// batch size, building it on first use and caching it on the model's
    /// runtime cache slot (shared by clones, dropped with the model).
    ///
    /// Building an instance reuses this model's fusion plan verbatim —
    /// no plan search, no profiling — and re-runs only shape inference
    /// ([`Graph::with_batch_size`]) and fused code generation, after
    /// revalidating the plan against the rebatched graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the graph cannot be rebatched
    /// (batch 0, rank-0 inputs, or an operator whose attributes bake in the
    /// native batch size) and [`CoreError::Plan`] if the plan does not
    /// validate against the rebatched graph.
    pub fn instance_for_batch(&self, batch: usize) -> Result<Arc<BatchInstance>, CoreError> {
        let cache = self.runtime_cache().get_or_init(BatchInstances::default);
        {
            let mut state = cache.state.lock().expect("batch instance lock");
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(&batch) {
                entry.0 = tick;
                return Ok(Arc::clone(&entry.1));
            }
        }

        // Build outside the lock: codegen is cheap but not free, and two
        // threads racing the same new batch size must not serialize every
        // other batch size behind it. The race loser's instance is dropped.
        let graph = self.graph().with_batch_size(batch)?;
        self.plan.validate(&graph)?;
        let engine = compile_plan(&graph, &self.plan);
        let instance = Arc::new(BatchInstance {
            batch,
            graph,
            engine,
            runtime_cache: RuntimeCacheSlot::default(),
        });

        let mut state = cache.state.lock().expect("batch instance lock");
        state.tick += 1;
        let tick = state.tick;
        let entry = state.entries.entry(batch).or_insert((tick, instance));
        entry.0 = tick;
        let instance = Arc::clone(&entry.1);
        while state.entries.len() > MAX_CACHED_BATCHES {
            // Evict the least recently used batch size. The entry just
            // touched carries the max tick, so it is never the victim.
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&b, _)| b)
                .expect("non-empty map has a minimum");
            state.entries.remove(&victim);
        }
        Ok(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    fn tiny_model() -> Graph {
        let mut g = Graph::new("tiny");
        let x = g.add_input("x", Shape::new(vec![1, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 4]));
        let y = g
            .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "proj")
            .unwrap()[0];
        let z = g.add_op(OpKind::Relu, Attrs::new(), &[y], "act").unwrap()[0];
        g.mark_output(z);
        g
    }

    #[test]
    fn instances_are_cached_per_batch_and_shared_by_clones() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_model())
            .unwrap();
        assert_eq!(model.native_batch(), Some(1));
        let b4 = model.instance_for_batch(4).unwrap();
        assert_eq!(b4.batch(), 4);
        assert_eq!(b4.graph().batch_size(), Some(4));
        // Same blocks, rebatched shapes.
        let out = b4.graph().outputs()[0];
        assert_eq!(b4.graph().value(out).shape.dims(), &[4, 4]);
        // Second request hits the cache (pointer-identical), including
        // through a clone of the model (shared runtime cache slot).
        let again = model.clone().instance_for_batch(4).unwrap();
        assert!(Arc::ptr_eq(&b4, &again));
        // A different batch size is its own instance.
        let b2 = model.instance_for_batch(2).unwrap();
        assert!(!Arc::ptr_eq(&b4, &b2));
    }

    #[test]
    fn instance_cache_is_bounded() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_model())
            .unwrap();
        for b in 1..=(MAX_CACHED_BATCHES + 8) {
            model.instance_for_batch(b).unwrap();
        }
        let cache = model.runtime_cache().get_or_init(BatchInstances::default);
        let held = cache.state.lock().unwrap().entries.len();
        assert!(held <= MAX_CACHED_BATCHES, "held {held} instances");
        // Evicted batch sizes rebuild transparently.
        assert_eq!(model.instance_for_batch(1).unwrap().batch(), 1);
    }

    #[test]
    fn rebatching_errors_propagate() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_model())
            .unwrap();
        assert!(matches!(
            model.instance_for_batch(0),
            Err(CoreError::Graph(_))
        ));
    }
}
