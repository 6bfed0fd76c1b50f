//! Property-based tests for operator kernels and shape inference.

use dnnf_ops::{execute, execute_fast_into, infer_shapes, Attrs, OpKind};
use dnnf_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

/// Deterministic choices drawn from one random word (splitmix64 steps).
struct Choices(u64);

impl Choices {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// `axis` as written in an attribute: sometimes in its negative form.
    fn spelled(&mut self, axis: usize, rank: usize) -> i64 {
        if self.below(2) == 0 {
            axis as i64
        } else {
            axis as i64 - rank as i64
        }
    }
}

/// Runs `op` through the fast dispatch and the reference kernel and
/// returns both outputs' bit patterns (fast first), or `Err` where a kernel
/// rejects its inputs. The fast buffer starts as NaN so an unwritten
/// element cannot pass.
type Bits = Result<Vec<u32>, ()>;

fn fast_and_reference_bits(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) -> (Bits, Bits) {
    let shapes: Vec<Shape> = inputs.iter().map(|t| t.shape().clone()).collect();
    let out_shape = infer_shapes(op, attrs, &shapes).unwrap().remove(0);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut fast = vec![f32::NAN; out_shape.numel()];
    let fast = match execute_fast_into(op, attrs, inputs, &out_shape, &mut fast) {
        Ok(dispatched) => {
            assert!(dispatched, "{op} has no fast kernel");
            Ok(bits(&fast))
        }
        Err(_) => Err(()),
    };
    let reference = execute(op, attrs, inputs)
        .map(|out| bits(out[0].data()))
        .map_err(|_| ());
    (fast, reference)
}

proptest! {
    #[test]
    fn kernel_outputs_match_inferred_shapes_for_unary(dims in small_dims(), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims), seed);
        for op in [OpKind::Relu, OpKind::Sigmoid, OpKind::Exp, OpKind::Abs, OpKind::Square] {
            let inferred = infer_shapes(op, &Attrs::new(), &[x.shape().clone()]).unwrap();
            let out = execute(op, &Attrs::new(), &[&x]).unwrap();
            prop_assert_eq!(out[0].shape(), &inferred[0]);
        }
    }

    #[test]
    fn add_and_mul_are_commutative(dims in small_dims(), seed in 0u64..500) {
        let shape = Shape::new(dims);
        let a = Tensor::random(shape.clone(), seed);
        let b = Tensor::random(shape, seed.wrapping_add(7));
        for op in [OpKind::Add, OpKind::Mul, OpKind::Min, OpKind::Max] {
            let ab = execute(op, &Attrs::new(), &[&a, &b]).unwrap();
            let ba = execute(op, &Attrs::new(), &[&b, &a]).unwrap();
            prop_assert!(ab[0].allclose(&ba[0], 1e-6));
        }
    }

    #[test]
    fn mul_distributes_over_add(dims in small_dims(), seed in 0u64..500) {
        // The identity behind the paper's Distributive rewrite rules:
        // A⊙C + B⊙C == (A + B)⊙C.
        let shape = Shape::new(dims);
        let a = Tensor::random(shape.clone(), seed);
        let b = Tensor::random(shape.clone(), seed.wrapping_add(1));
        let c = Tensor::random(shape, seed.wrapping_add(2));
        let ac = execute(OpKind::Mul, &Attrs::new(), &[&a, &c]).unwrap();
        let bc = execute(OpKind::Mul, &Attrs::new(), &[&b, &c]).unwrap();
        let lhs = execute(OpKind::Add, &Attrs::new(), &[&ac[0], &bc[0]]).unwrap();
        let ab = execute(OpKind::Add, &Attrs::new(), &[&a, &b]).unwrap();
        let rhs = execute(OpKind::Mul, &Attrs::new(), &[&ab[0], &c]).unwrap();
        prop_assert!(lhs[0].allclose(&rhs[0], 1e-4));
    }

    #[test]
    fn reduce_sum_equals_manual_sum(dims in small_dims(), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims), seed);
        let out = execute(OpKind::ReduceSum, &Attrs::new().with_int("keepdims", 0), &[&x]).unwrap();
        let expected: f32 = x.iter().sum();
        prop_assert!((out[0].data()[0] - expected).abs() < 1e-3);
    }

    #[test]
    fn softmax_outputs_are_a_distribution(rows in 1usize..5, cols in 1usize..8, seed in 0u64..500) {
        let x = Tensor::random(Shape::new(vec![rows, cols]), seed);
        let out = execute(OpKind::Softmax, &Attrs::new(), &[&x]).unwrap();
        for r in 0..rows {
            let sum: f32 = (0..cols).map(|c| out[0].at(&[r, c]).unwrap()).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..cols {
                prop_assert!(out[0].at(&[r, c]).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn transpose_roundtrips_through_kernel(dims in prop::collection::vec(1usize..5, 2..4), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims.clone()), seed);
        let perm: Vec<i64> = (0..dims.len() as i64).rev().collect();
        let attrs = Attrs::new().with_ints("perm", perm.clone());
        let once = execute(OpKind::Transpose, &attrs, &[&x]).unwrap();
        let twice = execute(OpKind::Transpose, &attrs, &[&once[0]]).unwrap();
        prop_assert_eq!(&twice[0], &x);
    }

    #[test]
    fn maxpool_never_exceeds_input_max(h in 2usize..7, w in 2usize..7, seed in 0u64..500) {
        let x = Tensor::random(Shape::new(vec![1, 2, h, w]), seed);
        let attrs = Attrs::new().with_ints("kernel_shape", vec![2, 2]).with_ints("strides", vec![1, 1]);
        let out = execute(OpKind::MaxPool, &attrs, &[&x]).unwrap();
        let input_max = x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for &v in out[0].iter() {
            prop_assert!(v <= input_max + 1e-6);
        }
    }

    #[test]
    fn gemm_is_linear_in_first_argument(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..200) {
        let a1 = Tensor::random(Shape::new(vec![m, k]), seed);
        let a2 = Tensor::random(Shape::new(vec![m, k]), seed.wrapping_add(3));
        let b = Tensor::random(Shape::new(vec![k, n]), seed.wrapping_add(5));
        let sum_a = execute(OpKind::Add, &Attrs::new(), &[&a1, &a2]).unwrap();
        let lhs = execute(OpKind::Gemm, &Attrs::new(), &[&sum_a[0], &b]).unwrap();
        let p1 = execute(OpKind::Gemm, &Attrs::new(), &[&a1, &b]).unwrap();
        let p2 = execute(OpKind::Gemm, &Attrs::new(), &[&a2, &b]).unwrap();
        let rhs = execute(OpKind::Add, &Attrs::new(), &[&p1[0], &p2[0]]).unwrap();
        prop_assert!(lhs[0].allclose(&rhs[0], 1e-3));
    }

    #[test]
    fn flat_slice_kernels_equal_reference_bit_for_bit(
        dims in prop::collection::vec(0usize..5, 1..5),
        seed in 0u64..500,
        choice in any::<u64>(),
    ) {
        let rank = dims.len();
        let mut pick = Choices(choice);
        let x = Tensor::random(Shape::new(dims.clone()), seed);

        // Transpose under a random permutation (Fisher-Yates), and the
        // default reversal.
        let mut perm: Vec<i64> = (0..rank as i64).collect();
        for i in (1..rank).rev() {
            perm.swap(i, pick.below(i + 1));
        }
        for attrs in [Attrs::new().with_ints("perm", perm), Attrs::new()] {
            let (fast, reference) = fast_and_reference_bits(OpKind::Transpose, &attrs, &[&x]);
            prop_assert_eq!(fast, reference);
        }

        // Every reduction over a random axes subset (empty = all axes).
        let mut axes: Vec<i64> = Vec::new();
        for a in 0..rank {
            if pick.below(2) == 0 {
                axes.push(pick.spelled(a, rank));
            }
        }
        let keepdims = pick.below(2) as i64;
        let attrs = Attrs::new().with_ints("axes", axes).with_int("keepdims", keepdims);
        for op in [OpKind::ReduceSum, OpKind::ReduceMean, OpKind::ReduceMax, OpKind::ReduceMin, OpKind::ReduceProd] {
            let (fast, reference) = fast_and_reference_bits(op, &attrs, &[&x]);
            prop_assert_eq!(fast, reference);
        }

        // Concat of 2-3 parts along a random axis, each with its own extent
        // (zero included).
        let axis = pick.below(rank);
        let parts: Vec<Tensor> = (0..2 + pick.below(2))
            .map(|i| {
                let mut d = dims.clone();
                d[axis] = pick.below(4);
                Tensor::random(Shape::new(d), seed.wrapping_add(i as u64 + 1))
            })
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let attrs = Attrs::new().with_int("axis", pick.spelled(axis, rank));
        let (fast, reference) = fast_and_reference_bits(OpKind::Concat, &attrs, &refs);
        prop_assert_eq!(fast, reference);

        // Gather along a random axis with in-range indices, half of them in
        // their negative (wrapping) form.
        let extent = dims[axis];
        let picks = if extent == 0 { 0 } else { 1 + pick.below(4) };
        let mut ids: Vec<f32> = Vec::new();
        for _ in 0..picks {
            let i = pick.below(extent);
            ids.push(pick.spelled(i, extent) as f32);
        }
        let ids = Tensor::from_vec(Shape::new(vec![picks]), ids).unwrap();
        let attrs = Attrs::new().with_int("axis", pick.spelled(axis, rank));
        let (fast, reference) = fast_and_reference_bits(OpKind::Gather, &attrs, &[&x, &ids]);
        prop_assert_eq!(fast, reference);

        // The reshape family is a flat copy (both sides reject a zero-extent
        // Flatten, whose inferred shape is never empty).
        let attrs = Attrs::new().with_int("axis", pick.below(rank + 1) as i64);
        let (fast, reference) = fast_and_reference_bits(OpKind::Flatten, &attrs, &[&x]);
        prop_assert_eq!(fast, reference);
        let at = pick.below(rank + 1);
        let attrs = Attrs::new().with_ints("axes", vec![pick.spelled(at, rank + 1)]);
        let (fast, reference) = fast_and_reference_bits(OpKind::Unsqueeze, &attrs, &[&x]);
        prop_assert_eq!(fast, reference);
    }
}
