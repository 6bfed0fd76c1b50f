//! Sequence-length-polymorphic plan instantiation.
//!
//! The autoregressive analogue of [`crate::batch`]: a fusion plan stores
//! node *groupings*, which do not change when a marked sequence dimension
//! (see [`Graph::mark_seq_axis`]) does — only loop extents and arena sizes
//! do. [`CompiledModel::instance_for_seq`] therefore reuses the
//! profile-driven plan verbatim and re-runs only shape inference
//! ([`Graph::with_seq_len`]) and fused code generation for the requested
//! KV-cache length. One compiled plan (one plan-cache entry) serves every
//! step of a decode loop whose cache grows token by token.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dnnf_graph::Graph;

use crate::exec::{compile_plan, CompiledPlan};
use crate::{CompiledModel, CoreError, RuntimeCacheSlot};

/// How many distinct sequence lengths a model caches executable instances
/// for. A decode loop walks lengths in order, touching each once, so the
/// recency-evicted entries are exactly the ones it will not revisit;
/// rebuilding an evicted length costs codegen only, never a plan search.
const MAX_CACHED_SEQ_LENS: usize = 32;

/// One sequence length's executable view of a compiled model: the model's
/// (rewritten) graph rebound via [`Graph::with_seq_len`] plus the fusion
/// plan recompiled to kernels against those shapes.
///
/// Node and value ids are identical to the parent model's graph, so the
/// parent's fusion plan, weight store and layout decisions all apply
/// unchanged; only shapes (and therefore loop extents and arena sizes)
/// differ.
#[derive(Debug)]
pub struct SeqInstance {
    seq_len: usize,
    graph: Graph,
    engine: CompiledPlan,
    runtime_cache: RuntimeCacheSlot,
}

impl SeqInstance {
    /// The sequence length this instance executes.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The rebound graph (same ids as the parent model's graph).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The plan compiled to kernels for this sequence length.
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

/// Per-model cache of sequence instances, attached to the model's
/// [`RuntimeCacheSlot`](crate::RuntimeCacheSlot). Recency-tracked so a
/// long-running decode loop stays bounded.
#[derive(Default)]
struct SeqInstances {
    state: Mutex<SeqInstanceMap>,
}

#[derive(Default)]
struct SeqInstanceMap {
    /// sequence length -> (last-use tick, instance).
    entries: BTreeMap<usize, (u64, Arc<SeqInstance>)>,
    tick: u64,
}

impl CompiledModel {
    /// The sequence length the model was compiled at (the marked dimension
    /// of its first seq-marked input), or `None` when no input carries a
    /// seq-axis marking.
    #[must_use]
    pub fn native_seq_len(&self) -> Option<usize> {
        self.graph().seq_len()
    }

    /// Returns an executable [`SeqInstance`] of this model for the given
    /// sequence length, building it on first use and caching it on the
    /// model's runtime cache slot (shared by clones, dropped with the
    /// model).
    ///
    /// Building an instance reuses this model's fusion plan verbatim —
    /// no plan search, no profiling — and re-runs only shape inference
    /// ([`Graph::with_seq_len`]) and fused code generation, after
    /// revalidating the plan against the rebound graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the graph cannot be rebound
    /// (length 0, no seq-marked inputs, or an operator whose attributes
    /// bake in the native sequence length) and [`CoreError::Plan`] if the
    /// plan does not validate against the rebound graph.
    pub fn instance_for_seq(&self, seq_len: usize) -> Result<Arc<SeqInstance>, CoreError> {
        let cache = self.runtime_cache().get_or_init(SeqInstances::default);
        {
            let mut state = cache.state.lock().expect("seq instance lock");
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(&seq_len) {
                entry.0 = tick;
                return Ok(Arc::clone(&entry.1));
            }
        }

        // Build outside the lock: codegen is cheap but not free, and two
        // threads racing the same new length must not serialize every other
        // length behind it. The race loser's instance is dropped.
        let graph = self.graph().with_seq_len(seq_len)?;
        self.plan.validate(&graph)?;
        let engine = compile_plan(&graph, &self.plan);
        let instance = Arc::new(SeqInstance {
            seq_len,
            graph,
            engine,
            runtime_cache: RuntimeCacheSlot::default(),
        });

        let mut state = cache.state.lock().expect("seq instance lock");
        state.tick += 1;
        let tick = state.tick;
        let entry = state.entries.entry(seq_len).or_insert((tick, instance));
        entry.0 = tick;
        let instance = Arc::clone(&entry.1);
        while state.entries.len() > MAX_CACHED_SEQ_LENS {
            // Evict the least recently used length. The entry just touched
            // carries the max tick, so it is never the victim.
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&s, _)| s)
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

    /// Single-query attention scores over a marked-length KV cache.
    fn tiny_seq_model() -> Graph {
        let mut g = Graph::new("tiny-seq");
        let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
        let past = g.add_input("past", Shape::new(vec![2, 4, 8]));
        g.mark_seq_axis(past, 1).unwrap();
        let kt = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![0, 2, 1]),
                &[past],
                "kt",
            )
            .unwrap()[0];
        let scores = g
            .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
            .unwrap()[0];
        let act = g
            .add_op(OpKind::Relu, Attrs::new(), &[scores], "act")
            .unwrap()[0];
        g.mark_output(act);
        g
    }

    #[test]
    fn instances_are_cached_per_length_and_shared_by_clones() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_seq_model())
            .unwrap();
        assert_eq!(model.native_seq_len(), Some(4));
        let s7 = model.instance_for_seq(7).unwrap();
        assert_eq!(s7.seq_len(), 7);
        assert_eq!(s7.graph().seq_len(), Some(7));
        let out = s7.graph().outputs()[0];
        assert_eq!(s7.graph().value(out).shape.dims(), &[2, 1, 7]);
        // Second request hits the cache (pointer-identical), including
        // through a clone of the model (shared runtime cache slot).
        let again = model.clone().instance_for_seq(7).unwrap();
        assert!(Arc::ptr_eq(&s7, &again));
        let s2 = model.instance_for_seq(2).unwrap();
        assert!(!Arc::ptr_eq(&s7, &s2));
    }

    #[test]
    fn instance_cache_is_bounded() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_seq_model())
            .unwrap();
        for s in 1..=(MAX_CACHED_SEQ_LENS + 8) {
            model.instance_for_seq(s).unwrap();
        }
        let cache = model.runtime_cache().get_or_init(SeqInstances::default);
        let held = cache.state.lock().unwrap().entries.len();
        assert!(held <= MAX_CACHED_SEQ_LENS, "held {held} instances");
        // Evicted lengths rebuild transparently.
        assert_eq!(model.instance_for_seq(1).unwrap().seq_len(), 1);
    }

    #[test]
    fn rebinding_errors_propagate() {
        let model = Compiler::new(CompilerOptions::default())
            .compile(&tiny_seq_model())
            .unwrap();
        assert!(matches!(
            model.instance_for_seq(0),
            Err(CoreError::Graph(_))
        ));
        // Unmarked models cannot produce seq instances.
        let mut g = Graph::new("unmarked");
        let x = g.add_input("x", Shape::new(vec![1, 8]));
        let y = g.add_op(OpKind::Relu, Attrs::new(), &[x], "act").unwrap()[0];
        g.mark_output(y);
        let model = Compiler::new(CompilerOptions::default())
            .compile(&g)
            .unwrap();
        assert_eq!(model.native_seq_len(), None);
        assert!(matches!(
            model.instance_for_seq(2),
            Err(CoreError::Graph(_))
        ));
    }
}
