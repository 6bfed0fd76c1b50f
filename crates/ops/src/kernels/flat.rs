//! Flat-slice kernels for the data-movement and reduction operators:
//! `Concat`, `Transpose`, the reshape family (`Reshape`/`Flatten`/
//! `Squeeze`/`Unsqueeze`), `Reduce{Sum,Mean,Max,Min,Prod}` and `Gather`.
//!
//! Their reference twins walk every element through an allocated index
//! vector; these walk the same elements with precomputed strides and
//! contiguous slice copies. Results are bit-identical to the reference:
//!
//! * data movement copies values, so any visiting order gives the same
//!   bytes;
//! * a reduction folds each output's inputs in the reference's row-major
//!   input order (no tree or SIMD reassociation, the same `f32::max` /
//!   `f32::min` calls), and `ReduceMean` divides once by the count;
//! * every output element is written, since the engine's buffer pool may
//!   hand back a stale buffer.
//!
//! The kernels are serial: a copy or a single-pass fold over a decode-step
//! tensor is far below the work a thread launch pays for.

use dnnf_tensor::{Shape, Tensor};

use super::fast::arity;
use crate::{Attrs, OpError, OpKind};

/// Whether `op` has a kernel in this module.
pub(super) fn handles(op: OpKind) -> bool {
    use OpKind::*;
    matches!(
        op,
        Concat
            | Transpose
            | Reshape
            | Flatten
            | Squeeze
            | Unsqueeze
            | ReduceSum
            | ReduceMean
            | ReduceMax
            | ReduceMin
            | ReduceProd
            | Gather
    )
}

/// Runs `op` (one of [`handles`]) into `out`, which holds
/// `out_shape.numel()` elements.
pub(super) fn execute_into(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
) -> Result<(), OpError> {
    use OpKind::*;
    arity(op, inputs, if op == Gather { 2 } else { 1 })?;
    match op {
        Concat => concat(attrs, inputs, out_shape, out),
        Transpose => transpose(attrs, inputs[0], out_shape, out),
        Reshape | Flatten | Squeeze | Unsqueeze => {
            check_len(op, inputs[0].numel(), out)?;
            out.copy_from_slice(inputs[0].data());
            Ok(())
        }
        ReduceSum | ReduceMean => reduce(op, attrs, inputs[0], out, 0.0, |a, v| a + v),
        ReduceProd => reduce(op, attrs, inputs[0], out, 1.0, |a, v| a * v),
        ReduceMax => reduce(op, attrs, inputs[0], out, f32::NEG_INFINITY, f32::max),
        ReduceMin => reduce(op, attrs, inputs[0], out, f32::INFINITY, f32::min),
        Gather => gather(attrs, inputs[0], inputs[1], out),
        _ => Err(OpError::Unsupported { op }),
    }
}

fn check_len(op: OpKind, expected: usize, out: &[f32]) -> Result<(), OpError> {
    if out.len() != expected {
        return Err(OpError::InvalidShape {
            op,
            reason: format!("output holds {} elements, expected {expected}", out.len()),
        });
    }
    Ok(())
}

/// `Concat`: each input contributes one contiguous run of
/// `dim(axis) · inner` elements to every outer row of the output.
fn concat(
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
) -> Result<(), OpError> {
    let op = OpKind::Concat;
    let axis = out_shape.normalize_axis(attrs.int_or("axis", 0))?;
    let dims = out_shape.dims();
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let row = dims[axis] * inner;
    check_len(op, outer * row, out)?;
    let mut col = 0;
    for t in inputs {
        if t.shape().rank() != dims.len() {
            return Err(OpError::InvalidShape {
                op,
                reason: "rank mismatch across inputs".into(),
            });
        }
        let chunk = t.shape().dim(axis) * inner;
        if col + chunk > row || t.numel() != outer * chunk {
            return Err(OpError::InvalidShape {
                op,
                reason: format!("input {:?} does not fit output {dims:?}", t.shape().dims()),
            });
        }
        if chunk > 0 {
            for (o, src) in t.data().chunks_exact(chunk).enumerate() {
                out[o * row + col..o * row + col + chunk].copy_from_slice(src);
            }
        }
        col += chunk;
    }
    if col != row {
        return Err(OpError::InvalidShape {
            op,
            reason: format!("inputs fill {col} of {row} elements per row"),
        });
    }
    Ok(())
}

/// `Transpose`: walks the output row-major and reads the input through the
/// permuted strides (innermost output axis as a strided inner loop).
fn transpose(attrs: &Attrs, x: &Tensor, out_shape: &Shape, out: &mut [f32]) -> Result<(), OpError> {
    let op = OpKind::Transpose;
    let rank = x.shape().rank();
    let default: Vec<i64> = (0..rank as i64).rev().collect();
    let perm: Vec<usize> = attrs
        .ints_or("perm", &default)
        .iter()
        .map(|&p| p as usize)
        .collect();
    let permuted = x.shape().permute(&perm)?;
    if &permuted != out_shape {
        return Err(OpError::InvalidShape {
            op,
            reason: format!(
                "perm {perm:?} maps {:?} to {:?}, not {:?}",
                x.shape().dims(),
                permuted.dims(),
                out_shape.dims()
            ),
        });
    }
    check_len(op, x.numel(), out)?;
    let in_strides = x.shape().strides();
    let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let src = x.data();
    let Some((&n, outer_dims)) = out_shape.dims().split_last() else {
        out.copy_from_slice(src);
        return Ok(());
    };
    if out.is_empty() {
        return Ok(());
    }
    let step = src_strides[rank - 1];
    let mut pos = vec![0usize; rank - 1];
    let mut base = 0usize;
    for dst in out.chunks_exact_mut(n) {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = src[base + j * step];
        }
        advance(&mut pos, outer_dims, &src_strides, &mut base);
    }
    Ok(())
}

/// Steps the odometer `pos` over `dims` by one, keeping `base` equal to
/// `Σ pos[k] · strides[k]`.
fn advance(pos: &mut [usize], dims: &[usize], strides: &[usize], base: &mut usize) {
    for k in (0..pos.len()).rev() {
        pos[k] += 1;
        *base += strides[k];
        if pos[k] < dims[k] {
            return;
        }
        *base -= strides[k] * dims[k];
        pos[k] = 0;
    }
}

/// `Reduce*`: folds `f` into each output starting from `init`, visiting the
/// input row-major (the reference's order). Reduced axes get output
/// stride 0, so each input element lands on its projected output.
fn reduce(
    op: OpKind,
    attrs: &Attrs,
    x: &Tensor,
    out: &mut [f32],
    init: f32,
    f: impl Fn(f32, f32) -> f32,
) -> Result<(), OpError> {
    let dims = x.shape().dims();
    let rank = dims.len();
    let axes = attrs.ints_or("axes", &[]);
    let mut reduced = vec![axes.is_empty(); rank];
    for &a in &axes {
        reduced[x.shape().normalize_axis(a)?] = true;
    }
    // Output strides per input axis; the kept axes are row-major in the
    // output whether or not `keepdims` leaves size-1 axes in between.
    let mut out_strides = vec![0usize; rank];
    let mut out_numel = 1usize;
    let mut count = 1usize;
    for axis in (0..rank).rev() {
        if reduced[axis] {
            count *= dims[axis];
        } else {
            out_strides[axis] = out_numel;
            out_numel *= dims[axis];
        }
    }
    check_len(op, out_numel, out)?;
    out.fill(init);
    let src = x.data();
    match dims.split_last() {
        None => out[0] = f(out[0], src[0]),
        Some((&n, outer_dims)) if n > 0 && !src.is_empty() => {
            let step = out_strides[rank - 1];
            let mut pos = vec![0usize; rank - 1];
            let mut base = 0usize;
            for row in src.chunks_exact(n) {
                if step == 0 {
                    let mut acc = out[base];
                    for &v in row {
                        acc = f(acc, v);
                    }
                    out[base] = acc;
                } else {
                    for (j, &v) in row.iter().enumerate() {
                        let o = &mut out[base + j * step];
                        *o = f(*o, v);
                    }
                }
                advance(&mut pos, outer_dims, &out_strides, &mut base);
            }
        }
        Some(_) => {}
    }
    if op == OpKind::ReduceMean {
        let c = count.max(1) as u64 as f32;
        for o in out.iter_mut() {
            *o /= c;
        }
    }
    Ok(())
}

/// `Gather`: every `(outer, index)` pair copies one contiguous run of
/// `inner` elements. Negative indices wrap once; an index still outside
/// the axis is an error.
fn gather(attrs: &Attrs, data: &Tensor, indices: &Tensor, out: &mut [f32]) -> Result<(), OpError> {
    let op = OpKind::Gather;
    let axis = data.shape().normalize_axis(attrs.int_or("axis", 0))?;
    let dims = data.shape().dims();
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let extent = dims[axis];
    let picks = indices.numel();
    check_len(op, outer * picks * inner, out)?;
    if out.is_empty() {
        return Ok(());
    }
    let rows: Vec<usize> = indices
        .data()
        .iter()
        .map(|&raw| {
            let i = raw as i64;
            let i = if i < 0 { i + extent as i64 } else { i };
            if i < 0 || i >= extent as i64 {
                return Err(OpError::InvalidShape {
                    op,
                    reason: format!("index {i} out of range for axis extent {extent}"),
                });
            }
            Ok(i as usize)
        })
        .collect::<Result<_, _>>()?;
    let src = data.data();
    for (o, dst) in out.chunks_exact_mut(picks * inner).enumerate() {
        let block = &src[o * extent * inner..(o + 1) * extent * inner];
        for (&r, d) in rows.iter().zip(dst.chunks_exact_mut(inner)) {
            d.copy_from_slice(&block[r * inner..(r + 1) * inner]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, execute_fast_into, infer_shapes};

    /// Runs `op` through the fast dispatch and through the reference kernel and
    /// requires agreement at tolerance 0 (NaN/inf classes included). The
    /// fast output buffer starts out filled with garbage, so an element the
    /// kernel forgets to write shows up as a disagreement.
    fn assert_matches_reference(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) {
        let shapes: Vec<Shape> = inputs.iter().map(|t| t.shape().clone()).collect();
        let out_shape = infer_shapes(op, attrs, &shapes).unwrap().remove(0);
        let mut fast = vec![12345.0f32; out_shape.numel()];
        assert!(execute_fast_into(op, attrs, inputs, &out_shape, &mut fast).unwrap());
        let fast = Tensor::from_vec(out_shape, fast).unwrap();
        let reference = execute(op, attrs, inputs).unwrap().remove(0);
        assert_eq!(
            reference.first_disagreement(&fast, 0.0),
            None,
            "{op} {attrs:?} diverged: reference {:?} vs fast {:?}",
            reference.data(),
            fast.data()
        );
    }

    fn reduce_attrs(axes: Option<Vec<i64>>, keepdims: i64) -> Attrs {
        let attrs = Attrs::new().with_int("keepdims", keepdims);
        match axes {
            Some(a) => attrs.with_ints("axes", a),
            None => attrs,
        }
    }

    const REDUCTIONS: [OpKind; 5] = [
        OpKind::ReduceSum,
        OpKind::ReduceMean,
        OpKind::ReduceMax,
        OpKind::ReduceMin,
        OpKind::ReduceProd,
    ];

    #[test]
    fn reductions_match_reference_over_axes_and_keepdims() {
        let x = Tensor::random(Shape::new(vec![2, 3, 4, 5]), 7);
        let axes_cases = [
            None,
            Some(vec![]),
            Some(vec![-1]),
            Some(vec![0]),
            Some(vec![1, 3]),
            Some(vec![-4, 2]),
            Some(vec![3, 0, 1]),
            Some(vec![0, 1, 2, 3]),
        ];
        for op in REDUCTIONS {
            for axes in &axes_cases {
                for keepdims in [0, 1] {
                    assert_matches_reference(op, &reduce_attrs(axes.clone(), keepdims), &[&x]);
                }
            }
        }
    }

    #[test]
    fn reductions_match_reference_on_scalars_and_empty_extents() {
        let scalar = Tensor::scalar(-2.5);
        let empty_reduced = Tensor::zeros(Shape::new(vec![2, 0, 3]));
        for op in REDUCTIONS {
            assert_matches_reference(op, &Attrs::new(), &[&scalar]);
            for keepdims in [0, 1] {
                let attrs = reduce_attrs(Some(vec![1]), keepdims);
                assert_matches_reference(op, &attrs, &[&empty_reduced]);
                let attrs = reduce_attrs(Some(vec![0]), keepdims);
                assert_matches_reference(op, &attrs, &[&empty_reduced]);
            }
        }
    }

    #[test]
    fn max_and_min_keep_f32_semantics_on_nan_and_infinities() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let x = Tensor::from_vec(
            Shape::new(vec![4, 3]),
            vec![
                nan, 1.0, -inf, // NaN first, then finite, then -inf
                2.0, nan, inf, // NaN in the middle
                nan, nan, nan, // all NaN
                -inf, inf, -0.0,
            ],
        )
        .unwrap();
        for op in [OpKind::ReduceMax, OpKind::ReduceMin, OpKind::ReduceSum] {
            for axes in [vec![0], vec![1], vec![-1, -2]] {
                for keepdims in [0, 1] {
                    assert_matches_reference(
                        op,
                        &reduce_attrs(Some(axes.clone()), keepdims),
                        &[&x],
                    );
                }
            }
        }
    }

    #[test]
    fn concat_matches_reference_including_zero_extent_and_three_way() {
        let a = Tensor::random(Shape::new(vec![2, 3, 4]), 1);
        let b = Tensor::random(Shape::new(vec![2, 1, 4]), 2);
        let c = Tensor::random(Shape::new(vec![2, 5, 4]), 3);
        let empty = Tensor::zeros(Shape::new(vec![2, 0, 4]));
        for axis in [1, -2] {
            let attrs = Attrs::new().with_int("axis", axis);
            assert_matches_reference(OpKind::Concat, &attrs, &[&a, &b, &c]);
            assert_matches_reference(OpKind::Concat, &attrs, &[&empty, &a]);
            assert_matches_reference(OpKind::Concat, &attrs, &[&a, &empty, &b]);
        }
        let attrs = Attrs::new().with_int("axis", 0);
        assert_matches_reference(OpKind::Concat, &attrs, &[&a, &a]);
        let attrs = Attrs::new().with_int("axis", -1);
        assert_matches_reference(OpKind::Concat, &attrs, &[&a, &a, &a]);
    }

    #[test]
    fn transpose_matches_reference_for_default_and_rank4_perms() {
        let x3 = Tensor::random(Shape::new(vec![2, 3, 4]), 4);
        assert_matches_reference(OpKind::Transpose, &Attrs::new(), &[&x3]);
        let x4 = Tensor::random(Shape::new(vec![2, 3, 4, 5]), 5);
        assert_matches_reference(OpKind::Transpose, &Attrs::new(), &[&x4]);
        for perm in [
            vec![0, 2, 3, 1],
            vec![3, 1, 0, 2],
            vec![0, 1, 2, 3],
            vec![1, 0, 3, 2],
        ] {
            let attrs = Attrs::new().with_ints("perm", perm);
            assert_matches_reference(OpKind::Transpose, &attrs, &[&x4]);
        }
        let x1 = Tensor::random(Shape::new(vec![6]), 6);
        assert_matches_reference(OpKind::Transpose, &Attrs::new(), &[&x1]);
        assert_matches_reference(OpKind::Transpose, &Attrs::new(), &[&Tensor::scalar(3.0)]);
    }

    #[test]
    fn reshape_family_matches_reference() {
        let x = Tensor::random(Shape::new(vec![1, 3, 1, 4]), 8);
        let cases = [
            (
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![3, -1]),
            ),
            (OpKind::Flatten, Attrs::new().with_int("axis", 2)),
            (OpKind::Squeeze, Attrs::new().with_ints("axes", vec![0, 2])),
            (OpKind::Unsqueeze, Attrs::new().with_ints("axes", vec![0])),
        ];
        for (op, attrs) in cases {
            assert_matches_reference(op, &attrs, &[&x]);
        }
    }

    #[test]
    fn gather_matches_reference_with_negative_indices_on_every_axis() {
        let data = Tensor::random(Shape::new(vec![3, 4, 5]), 9);
        let ids = Tensor::from_vec(Shape::new(vec![2, 2]), vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        for axis in [0, 1, -1] {
            let attrs = Attrs::new().with_int("axis", axis);
            assert_matches_reference(OpKind::Gather, &attrs, &[&data, &ids]);
        }
        let scalar_id = Tensor::scalar(-2.0);
        assert_matches_reference(OpKind::Gather, &Attrs::new(), &[&data, &scalar_id]);
    }

    #[test]
    fn gather_out_of_range_index_is_an_error_not_a_panic() {
        let data = Tensor::random(Shape::new(vec![4, 3]), 10);
        for bad in [4.0, -5.0, 1e9] {
            let ids = Tensor::from_vec(Shape::new(vec![2]), vec![0.0, bad]).unwrap();
            let out_shape = infer_shapes(
                OpKind::Gather,
                &Attrs::new(),
                &[data.shape().clone(), ids.shape().clone()],
            )
            .unwrap()
            .remove(0);
            let mut out = vec![0.0; out_shape.numel()];
            assert!(
                execute_into(
                    OpKind::Gather,
                    &Attrs::new(),
                    &[&data, &ids],
                    &out_shape,
                    &mut out
                )
                .is_err(),
                "index {bad} accepted"
            );
            assert!(execute(OpKind::Gather, &Attrs::new(), &[&data, &ids]).is_err());
        }
    }

    #[test]
    fn inconsistent_shapes_are_errors_not_panics() {
        let x = Tensor::random(Shape::new(vec![2, 3]), 11);
        let mut out = vec![0.0; 5];
        let wrong = Shape::new(vec![5]);
        for (op, attrs) in [
            (OpKind::Reshape, Attrs::new()),
            (OpKind::Transpose, Attrs::new()),
            (OpKind::ReduceSum, Attrs::new().with_ints("axes", vec![0])),
            (OpKind::Concat, Attrs::new().with_int("axis", 0)),
        ] {
            assert!(
                execute_into(op, &attrs, &[&x], &wrong, &mut out).is_err(),
                "{op} accepted a mismatched output"
            );
        }
    }
}
