//! Optimized kernels used by the fused-block execution engine: the
//! compute-heavy anchor operators (`Conv`, `MatMul`, `Gemm`, pooling) here,
//! and the data-movement and reduction operators (`Concat`, `Transpose`,
//! the reshape family, `Reduce*`, `Gather`) in the sibling flat-slice
//! module.
//!
//! The reference kernels in this crate define the semantics; they index every
//! element through bounds-checked multi-dimensional lookups and allocate
//! scratch index vectors in their innermost loops, which makes them 1–2
//! orders of magnitude slower than necessary. The kernels here compute the
//! *same* result — they visit taps in exactly the same order and accumulate
//! in the same sequence, so outputs are bit-identical — but with precomputed
//! strides, flat-slice indexing and no allocation inside the hot loops.
//!
//! Every anchor kernel is additionally **data-parallel** over a
//! [`WorkPool`]: the output index space is partitioned into disjoint tiles
//! (convolution and pooling over `(batch, channel)` planes, matrix products
//! over output rows), and each tile is computed start-to-finish by one
//! thread with the serial kernel's exact accumulation order. No reduction is ever split
//! across threads, so results are bit-identical for every thread count —
//! [`execute_fast_into`] with a serial pool and
//! [`execute_fast_into_threaded`] with any pool produce the same bytes.
//! The flat-slice kernels are serial copies and single-pass folds.
//!
//! Within a thread's tile, every anchor kernel here is additionally
//! **lane-blocked** over the [`crate::simd`] bundles: 4–8 consecutive output
//! elements accumulate in lockstep, one element per lane, each lane running
//! the scalar kernel's exact operation sequence (two rounding steps per
//! conv/matmul tap, no fused multiply-add, no split reduction; `f32::max` /
//! add-then-one-division for the pools). Convolution and pooling — at every
//! spatial rank, including the 1-D/3-D odometer paths — vectorize only the
//! *interior* output columns of each innermost-axis row: those whose every
//! innermost kernel tap is in bounds, so no column tap-skip test fires
//! (outer-axis taps keep their bounds checks, which are uniform across a
//! row). Padded borders and lane remainders stay on the checked scalar
//! loop; `GlobalAveragePool` lanes own whole `(n, c)` outputs. The scalar
//! and lane regions compute identical tap sequences, so SIMD-on and
//! SIMD-off ([`WorkPool::with_simd`]) produce the same bytes at every lane
//! width.
//!
//! Inputs are expected to be shape-consistent with `out_shape`, exactly as
//! produced by graph construction / shape inference (the fused engine always
//! calls with graph-derived shapes). The differential test harness pins
//! every kernel here against its reference twin.

use dnnf_tensor::{broadcast_index, Shape, Tensor};

use crate::parallel::WorkPool;
use crate::simd::{F32Lanes, LANES};
use crate::{Attrs, OpError, OpKind};

/// Whether `op` has an optimized kernel here or in the flat-slice module
/// (data movement and reductions). The fused engine uses this registry to
/// decide between the fast path and the reference fallback
/// ([`crate::execute`]).
#[must_use]
pub fn has_fast_kernel(op: OpKind) -> bool {
    use OpKind::*;
    matches!(
        op,
        Conv | MatMul | Gemm | MaxPool | AveragePool | GlobalAveragePool
    ) || super::flat::handles(op)
}

/// Output channels per block of a packed conv weight panel — one full
/// [`LANES`]-wide bundle, so a panel tap feeds all lanes with a single
/// contiguous load.
pub const CONV_PANEL_LANES: usize = LANES;

/// Packs a convolution weight `(OC, ICpg, k…)` into the OC-blocked panel
/// layout the lane-blocked conv kernels consume: shape
/// `[OC / LANES, ICpg · ∏k, LANES]`, where `panel[ob][t][l] =
/// w[ob·LANES + l][t]` and `t` ravels `(ic, k…)` row-major — the kernels'
/// exact tap order. Eight SIMD lanes then own eight whole output channels of
/// one output position, and each tap's eight weights are one contiguous
/// load instead of a stride-`ICpg·∏k` gather from the `(OC, ICpg, k…)`
/// layout.
///
/// Returns `None` when the layout does not apply: rank < 3, or `OC` not a
/// multiple of [`CONV_PANEL_LANES`] (the kernels then keep the column-lane
/// path, which handles any channel count).
#[must_use]
pub fn pack_conv_oc_panel(w: &Tensor) -> Option<Tensor> {
    let dims = w.shape().dims();
    if dims.len() < 3 || dims[0] == 0 || !dims[0].is_multiple_of(CONV_PANEL_LANES) {
        return None;
    }
    let oc = dims[0];
    let taps: usize = dims[1..].iter().product();
    if taps == 0 {
        return None;
    }
    let blocks = oc / CONV_PANEL_LANES;
    let src = w.data();
    let mut packed = vec![0.0f32; oc * taps];
    for ob in 0..blocks {
        let block_base = ob * taps * CONV_PANEL_LANES;
        for l in 0..CONV_PANEL_LANES {
            let w_row = (ob * CONV_PANEL_LANES + l) * taps;
            for t in 0..taps {
                packed[block_base + t * CONV_PANEL_LANES + l] = src[w_row + t];
            }
        }
    }
    Some(
        Tensor::from_vec(Shape::new(vec![blocks, taps, CONV_PANEL_LANES]), packed)
            .expect("panel sized to its shape"),
    )
}

/// Executes `op` with its optimized kernel on the calling thread. Equivalent
/// to [`execute_fast_into_threaded`] with a serial pool.
///
/// # Errors
///
/// Returns an [`OpError`] when the inputs are structurally invalid for the
/// operator (wrong arity or rank).
pub fn execute_fast_into(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
) -> Result<bool, OpError> {
    execute_fast_into_threaded(op, attrs, inputs, out_shape, out, WorkPool::serial())
}

/// Executes `op` with its optimized kernel, writing the single output into
/// `out` (length `out_shape.numel()`), splitting the output space over
/// `pool`'s threads. Returns `Ok(false)` without touching `out` when the
/// operator has no fast kernel. Results are bit-identical to
/// [`execute_fast_into`] for every pool (per-element ownership split; the
/// pool's [`WorkPool::for_work`] gate keeps small launches serial).
///
/// # Errors
///
/// Returns an [`OpError`] when the inputs are structurally invalid for the
/// operator (wrong arity or rank).
///
/// # Panics
///
/// May panic on inputs whose shapes are inconsistent with `out_shape`;
/// callers are expected to pass shapes produced by shape inference.
pub fn execute_fast_into_threaded(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<bool, OpError> {
    execute_fast_into_packed(op, attrs, inputs, None, out_shape, out, pool)
}

/// [`execute_fast_into_threaded`] with an optional **prepacked operand**: a
/// kernel-friendly re-layout of one input, prepared once by the caller and
/// reused across runs. Two packed forms exist today:
///
/// * a transposed `Gemm` B panel — when `op` is `Gemm` with `transB = 1` and
///   `packed_b` carries `B` already transposed to `(K, N)` row-major, the
///   kernel reads the panel with contiguous loads instead of strided
///   gathers;
/// * an OC-blocked `Conv` weight panel ([`pack_conv_oc_panel`]) — when `op`
///   is an ungrouped `Conv` whose output-channel count is a multiple of
///   [`CONV_PANEL_LANES`], the kernel switches from column lanes to
///   channel-block lanes: eight output channels of one output position
///   accumulate in lockstep, each tap's eight weights arriving as one
///   contiguous panel load instead of an `(OC, ICpg, k…)`-stride gather.
///
/// Packing never changes results — a panel supplies the same operand values
/// in the same accumulation order, so outputs are bit-identical to the
/// unpacked call (pinned by the kernel tests). `packed_b` is ignored for
/// every other operator, for untransposed `Gemm`, and for convs the panel
/// layout does not fit (grouped, remainder channels, or the scalar path).
///
/// # Errors
///
/// Returns an [`OpError`] when the inputs are structurally invalid for the
/// operator (wrong arity or rank).
///
/// # Panics
///
/// May panic on inputs whose shapes are inconsistent with `out_shape`, or a
/// `packed_b` whose shape is not the transposed B; callers are expected to
/// pass shapes produced by shape inference and panels produced from the
/// actual operand.
pub fn execute_fast_into_packed(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed_b: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<bool, OpError> {
    debug_assert_eq!(out.len(), out_shape.numel());
    match op {
        OpKind::Conv => fast_conv(attrs, inputs, packed_b, out_shape, out, pool)?,
        OpKind::MatMul => fast_matmul(op, inputs, out_shape, out, pool)?,
        OpKind::Gemm => fast_gemm(attrs, inputs, packed_b, out_shape, out, pool)?,
        OpKind::MaxPool | OpKind::AveragePool => {
            fast_pool(op, attrs, inputs, out_shape, out, pool)?
        }
        OpKind::GlobalAveragePool => fast_global_average_pool(inputs, out_shape, out, pool)?,
        _ if super::flat::handles(op) => {
            super::flat::execute_into(op, attrs, inputs, out_shape, out)?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

pub(super) fn arity(op: OpKind, inputs: &[&Tensor], min: usize) -> Result<(), OpError> {
    if inputs.len() < min {
        return Err(OpError::ArityMismatch {
            op,
            expected: min,
            actual: inputs.len(),
        });
    }
    Ok(())
}

fn spatial_attrs(attrs: &Attrs, spatial_rank: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let strides: Vec<usize> = attrs
        .ints_or("strides", &vec![1; spatial_rank])
        .iter()
        .map(|&s| s.max(1) as usize)
        .collect();
    let dilations: Vec<usize> = attrs
        .ints_or("dilations", &vec![1; spatial_rank])
        .iter()
        .map(|&d| d.max(1) as usize)
        .collect();
    let pads: Vec<usize> = attrs
        .ints_or("pads", &vec![0; spatial_rank * 2])
        .iter()
        .map(|&p| p.max(0) as usize)
        .collect();
    (strides, dilations, pads)
}

/// Direct convolution with precomputed strides. Accumulates over input
/// channels then kernel taps in row-major order — the reference kernel's
/// exact summation sequence. Parallel over `(batch, out_channel)` output
/// planes; each plane is owned by one thread. With a prepacked OC panel
/// (`packed`, see [`pack_conv_oc_panel`]) and an ungrouped conv whose
/// channel count fits the panel, the kernel parallelizes over
/// `(batch, channel-block)` super-planes instead and lanes own whole output
/// channels — same elements, same per-element tap order, different loop
/// nesting across *independent* elements, so results stay bit-identical.
fn fast_conv(
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::Conv, inputs, 2)?;
    let x = inputs[0];
    let w = inputs[1];
    let bias = inputs.get(2).map(|b| b.data());
    if x.shape().rank() < 3 || w.shape().rank() != x.shape().rank() {
        return Err(OpError::InvalidShape {
            op: OpKind::Conv,
            reason: "expected (N, C, spatial...) input and matching-rank weight".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let spatial_rank = x.shape().rank() - 2;
    let (strides, dilations, pads) = spatial_attrs(attrs, spatial_rank);
    let group = attrs.int_or("group", 1).max(1) as usize;

    let xd = x.shape().dims().to_vec();
    let xs = x.shape().strides();
    let ws = w.shape().strides();
    let out_channels = out_shape.dim(1);
    let in_per_group = w.shape().dim(1);
    let channels_per_group_out = (out_channels / group).max(1);
    let xdat = x.data();
    let wdat = w.data();
    let kernel_elems: usize = w.shape().dims()[2..].iter().product();
    let pool = pool.for_work(
        out.len()
            .saturating_mul(in_per_group)
            .saturating_mul(kernel_elems),
    );

    // OC-blocked lane path: with an ungrouped conv, a channel count that
    // fills whole lane bundles, and a prepacked panel matching this weight
    // ([`pack_conv_oc_panel`]'s layout), lanes own eight output channels of
    // one output position instead of eight output columns — each tap's
    // weights arrive as one contiguous panel load (the `(OC, ICpg, k…)`
    // layout would gather them with stride `ICpg·∏k`) and the input value is
    // a splat. Every output element still accumulates with the scalar tap
    // order, so the path is bit-identical to the column-lane and scalar
    // paths; the scalar mode ignores the panel entirely.
    let panel = packed.filter(|p| {
        group == 1
            && out_channels.is_multiple_of(CONV_PANEL_LANES)
            && p.shape().dims()
                == [
                    out_channels / CONV_PANEL_LANES,
                    in_per_group * kernel_elems,
                    CONV_PANEL_LANES,
                ]
    });
    if pool.use_simd() {
        if let Some(panel) = panel {
            fast_conv_packed(
                panel.data(),
                xdat,
                bias,
                &xd,
                &xs,
                &w.shape().dims()[2..],
                out_shape,
                &strides,
                &dilations,
                &pads,
                in_per_group,
                out,
                pool,
            );
            return Ok(());
        }
    }

    if spatial_rank == 2 {
        let (oh, ow) = (out_shape.dim(2), out_shape.dim(3));
        let (ih, iw) = (xd[2], xd[3]);
        let (kh, kw) = (w.shape().dim(2), w.shape().dim(3));
        let (sh, sw) = (strides[0], strides[1]);
        let (dh, dw) = (dilations[0], dilations[1]);
        let (ph, pw) = (pads[0], pads[1]);
        // Hoist the stride vectors into scalars so the closure captures
        // plain values the optimizer keeps in registers.
        let (xs0, xs1, xs2) = (xs[0], xs[1], xs[2]);
        let (ws0, ws1, ws2) = (ws[0], ws[1], ws[2]);
        let tile = Conv2d {
            xdat,
            wdat,
            ih,
            iw,
            kh,
            kw,
            sh,
            sw,
            dh,
            dw,
            ph,
            pw,
            in_per_group,
            xs1,
            xs2,
            ws1,
            ws2,
        };
        // Interior output columns: every kx tap lands in bounds, for every
        // lane, so the lane-blocked path never needs a tap-skip test. The
        // left border needs ox*sw >= pw; the right border needs the furthest
        // tap, ox*sw + (kw-1)*dw - pw, to stay below iw.
        let span = (kw - 1) * dw;
        let x_hi = if iw + pw > span {
            ((iw + pw - span - 1) / sw + 1).min(ow)
        } else {
            0
        };
        let x_lo = pw.div_ceil(sw).min(x_hi);
        let simd = pool.use_simd();
        // One chunk per (n, oc) output plane, written by exactly one thread.
        pool.run_chunks(out, oh * ow, |plane, chunk| {
            let n = plane / out_channels;
            let oc = plane % out_channels;
            let g = oc / channels_per_group_out;
            let b0 = bias.map_or(0.0, |b| b[oc]);
            let w_oc = oc * ws0;
            let x_plane = n * xs0 + g * in_per_group * xs1;
            for (oy, row) in chunk.chunks_mut(ow).enumerate() {
                if simd {
                    tile.scalar_cols(row, x_plane, w_oc, b0, oy, 0, x_lo);
                    let mut ox = x_lo;
                    while ox + LANES <= x_hi {
                        tile.simd_cols::<LANES>(row, x_plane, w_oc, b0, oy, ox);
                        ox += LANES;
                    }
                    if ox + 4 <= x_hi {
                        tile.simd_cols::<4>(row, x_plane, w_oc, b0, oy, ox);
                        ox += 4;
                    }
                    tile.scalar_cols(row, x_plane, w_oc, b0, oy, ox, ow);
                } else {
                    tile.scalar_cols(row, x_plane, w_oc, b0, oy, 0, ow);
                }
            }
        });
        return Ok(());
    }

    // Generic spatial rank (1-D and 3-D convolutions), parallel over the
    // same (n, oc) planes. Each plane is walked row by row along the
    // innermost spatial axis: outer-axis taps keep per-tap bounds checks
    // (the predicate is uniform over a row), while the innermost axis is
    // split into checked border columns and lane-blocked interior columns
    // exactly like the 2-D kernel above.
    let out_sp: Vec<usize> = out_shape.dims()[2..].to_vec();
    let kernel_sp: Vec<usize> = w.shape().dims()[2..].to_vec();
    let out_sp_count: usize = out_sp.iter().product();
    let last = spatial_rank - 1;
    let ow = out_sp[last];
    let iw = xd[2 + last];
    let (sw, dw, pw) = (strides[last], dilations[last], pads[last]);
    let kw = kernel_sp[last];
    // Interior columns: every innermost tap lands in bounds for every lane
    // (same derivation as the 2-D kernel's x_lo / x_hi).
    let span = (kw - 1) * dw;
    let x_hi = if iw + pw > span {
        ((iw + pw - span - 1) / sw + 1).min(ow)
    } else {
        0
    };
    let x_lo = pw.div_ceil(sw).min(x_hi);
    let tile = ConvNd {
        xdat,
        wdat,
        xd_sp: &xd[2..],
        xs_sp: &xs[2..],
        ws_sp: &ws[2..],
        kernel_sp: &kernel_sp,
        kernel_count: kernel_sp.iter().product(),
        outer_count: kernel_sp[..last].iter().product(),
        strides: &strides,
        dilations: &dilations,
        pads: &pads,
        in_per_group,
        xs1: xs[1],
        ws1: ws[1],
    };
    let outer_sp = &out_sp[..last];
    let simd = pool.use_simd();
    pool.run_chunks(out, out_sp_count, |plane, chunk| {
        let n = plane / out_channels;
        let oc = plane % out_channels;
        let g = oc / channels_per_group_out;
        let b0 = bias.map_or(0.0, |b| b[oc]);
        let w_oc = oc * ws[0];
        let x_plane = n * xs[0] + g * in_per_group * xs[1];
        let mut outer_pos = vec![0usize; last];
        // One odometer scratch per plane, shared by every column kernel call
        // (the scalar path walks all axes, the lane path only the outer
        // ones) — no allocation inside the row loop.
        let mut k_pos = vec![0usize; spatial_rank];
        for row in chunk.chunks_mut(ow) {
            if simd {
                tile.scalar_cols(row, x_plane, w_oc, b0, &outer_pos, &mut k_pos, 0, x_lo);
                let mut ox = x_lo;
                while ox + LANES <= x_hi {
                    tile.simd_cols::<LANES>(
                        row,
                        x_plane,
                        w_oc,
                        b0,
                        &outer_pos,
                        &mut k_pos[..last],
                        ox,
                    );
                    ox += LANES;
                }
                if ox + 4 <= x_hi {
                    tile.simd_cols::<4>(row, x_plane, w_oc, b0, &outer_pos, &mut k_pos[..last], ox);
                    ox += 4;
                }
                tile.scalar_cols(row, x_plane, w_oc, b0, &outer_pos, &mut k_pos, ox, ow);
            } else {
                tile.scalar_cols(row, x_plane, w_oc, b0, &outer_pos, &mut k_pos, 0, ow);
            }
            advance(&mut outer_pos, outer_sp);
        }
    });
    Ok(())
}

/// The OC-blocked convolution path: lanes own [`CONV_PANEL_LANES`] whole
/// output channels of one output position, weights stream from the packed
/// panel ([`pack_conv_oc_panel`]), inputs splat. Parallel over
/// `(batch, channel-block)` super-planes of [`CONV_PANEL_LANES`] output
/// planes each — exact chunks, since the caller guarantees
/// `OC % CONV_PANEL_LANES == 0` — so each super-plane is written by exactly
/// one thread. Interior columns additionally take a register-blocked
/// microkernel tile: [`CONV_PACK_COLS`] consecutive columns accumulate in
/// independent registers sharing each tap's single panel load, which both
/// amortizes the weight traffic and breaks the loop-carried dependence on
/// one accumulator. Every output element still accumulates with the scalar
/// kernel's tap order (`acc = acc + x * w`, input channels then kernel taps
/// row-major, no FMA), so the path is bit-identical to the column-lane and
/// scalar paths.
#[allow(clippy::too_many_arguments)]
fn fast_conv_packed(
    panel: &[f32],
    xdat: &[f32],
    bias: Option<&[f32]>,
    xd: &[usize],
    xs: &[usize],
    kernel_sp: &[usize],
    out_shape: &Shape,
    strides: &[usize],
    dilations: &[usize],
    pads: &[usize],
    in_per_group: usize,
    out: &mut [f32],
    pool: WorkPool,
) {
    const B: usize = CONV_PANEL_LANES;
    let spatial_rank = kernel_sp.len();
    let out_channels = out_shape.dim(1);
    let blocks = out_channels / B;
    let out_sp: Vec<usize> = out_shape.dims()[2..].to_vec();
    let out_sp_count: usize = out_sp.iter().product();
    let taps: usize = in_per_group * kernel_sp.iter().product::<usize>();

    // Interior columns of the innermost axis: every innermost tap in bounds,
    // same derivation as the column-lane kernels.
    let last = spatial_rank - 1;
    let ow = out_sp[last];
    let iw = xd[2 + last];
    let (sw, dw, pw) = (strides[last], dilations[last], pads[last]);
    let kw = kernel_sp[last];
    let span = (kw - 1) * dw;
    let x_hi = if iw + pw > span {
        ((iw + pw - span - 1) / sw + 1).min(ow)
    } else {
        0
    };
    let x_lo = pw.div_ceil(sw).min(x_hi);

    if spatial_rank == 2 {
        let tile = ConvPacked2d {
            xdat,
            panel,
            ih: xd[2],
            iw,
            kh: kernel_sp[0],
            kw,
            sh: strides[0],
            sw,
            dh: dilations[0],
            dw,
            ph: pads[0],
            pw,
            in_per_group,
            xs1: xs[1],
            xs2: xs[2],
        };
        let (oh, xs0) = (out_sp[0], xs[0]);
        pool.run_chunks(out, B * out_sp_count, |super_plane, chunk| {
            let n = super_plane / blocks;
            let ob = super_plane % blocks;
            let bias_v = bias.map_or_else(
                || F32Lanes::<B>::splat(0.0),
                |b| F32Lanes::<B>::load(&b[ob * B..]),
            );
            let x_plane = n * xs0;
            let p_block = ob * taps * B;
            for oy in 0..oh {
                let pos = oy * ow;
                for ox in 0..x_lo {
                    tile.border_col(chunk, out_sp_count, x_plane, p_block, bias_v, oy, ox, pos);
                }
                let mut ox = x_lo;
                while ox + CONV_PACK_COLS <= x_hi {
                    tile.interior_cols::<CONV_PACK_COLS>(
                        chunk,
                        out_sp_count,
                        x_plane,
                        p_block,
                        bias_v,
                        oy,
                        ox,
                        pos,
                    );
                    ox += CONV_PACK_COLS;
                }
                while ox < x_hi {
                    tile.interior_cols::<1>(
                        chunk,
                        out_sp_count,
                        x_plane,
                        p_block,
                        bias_v,
                        oy,
                        ox,
                        pos,
                    );
                    ox += 1;
                }
                for ox in x_hi..ow {
                    tile.border_col(chunk, out_sp_count, x_plane, p_block, bias_v, oy, ox, pos);
                }
            }
        });
        return;
    }

    // Generic spatial rank (1-D / 3-D and beyond): outer kernel axes walk by
    // odometer with per-tap bounds checks (uniform over a row and over the
    // channel lanes), the innermost axis takes the same border/interior
    // split.
    let tile = ConvPackedNd {
        xdat,
        panel,
        xd_sp: &xd[2..],
        xs_sp: &xs[2..],
        kernel_sp,
        kernel_count: kernel_sp.iter().product(),
        outer_count: kernel_sp[..last].iter().product(),
        strides,
        dilations,
        pads,
        in_per_group,
        xs1: xs[1],
    };
    let outer_sp = &out_sp[..last];
    let xs0 = xs[0];
    pool.run_chunks(out, B * out_sp_count, |super_plane, chunk| {
        let n = super_plane / blocks;
        let ob = super_plane % blocks;
        let bias_v = bias.map_or_else(
            || F32Lanes::<B>::splat(0.0),
            |b| F32Lanes::<B>::load(&b[ob * B..]),
        );
        let x_plane = n * xs0;
        let p_block = ob * taps * B;
        let mut outer_pos = vec![0usize; last];
        let mut k_pos = vec![0usize; spatial_rank];
        let mut pos = 0usize;
        while pos < out_sp_count {
            for ox in 0..x_lo {
                tile.border_col(
                    chunk,
                    out_sp_count,
                    x_plane,
                    p_block,
                    bias_v,
                    &outer_pos,
                    &mut k_pos,
                    ox,
                    pos,
                );
            }
            let mut ox = x_lo;
            while ox + CONV_PACK_COLS <= x_hi {
                tile.interior_cols::<CONV_PACK_COLS>(
                    chunk,
                    out_sp_count,
                    x_plane,
                    p_block,
                    bias_v,
                    &outer_pos,
                    &mut k_pos[..last],
                    ox,
                    pos,
                );
                ox += CONV_PACK_COLS;
            }
            while ox < x_hi {
                tile.interior_cols::<1>(
                    chunk,
                    out_sp_count,
                    x_plane,
                    p_block,
                    bias_v,
                    &outer_pos,
                    &mut k_pos[..last],
                    ox,
                    pos,
                );
                ox += 1;
            }
            for ox in x_hi..ow {
                tile.border_col(
                    chunk,
                    out_sp_count,
                    x_plane,
                    p_block,
                    bias_v,
                    &outer_pos,
                    &mut k_pos,
                    ox,
                    pos,
                );
            }
            advance(&mut outer_pos, outer_sp);
            pos += ow;
        }
    });
}

/// Columns per register-blocked interior tile of the packed conv path: four
/// independent lane-bundle accumulators share each tap's panel load.
const CONV_PACK_COLS: usize = 4;

/// Loop constants of one 2-D OC-blocked packed convolution launch.
struct ConvPacked2d<'a> {
    xdat: &'a [f32],
    panel: &'a [f32],
    ih: usize,
    iw: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    dh: usize,
    dw: usize,
    ph: usize,
    pw: usize,
    in_per_group: usize,
    xs1: usize,
    xs2: usize,
}

impl ConvPacked2d<'_> {
    /// `R` consecutive interior columns at `(oy, ox…ox+R)`: every `kx` tap
    /// in bounds, `ky` checks uniform across the tile. Lane `l` of
    /// accumulator `r` owns output element `(oc0 + l, oy, ox + r)`; each
    /// accumulates `acc = acc + x * w` over input channels then kernel taps
    /// row-major — the scalar order. The panel index advances over skipped
    /// `ky` rows so every tap reads its own fixed panel slot.
    #[allow(clippy::too_many_arguments)]
    fn interior_cols<const R: usize>(
        &self,
        chunk: &mut [f32],
        plane_sp: usize,
        x_plane: usize,
        p_block: usize,
        bias_v: F32Lanes<CONV_PANEL_LANES>,
        oy: usize,
        ox: usize,
        row_pos: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let mut acc = [bias_v; R];
        let mut t = p_block;
        for ic in 0..self.in_per_group {
            let x_ic = x_plane + ic * self.xs1;
            for ky in 0..self.kh {
                let y = oy * self.sh + ky * self.dh;
                if y < self.ph || y - self.ph >= self.ih {
                    t += self.kw * B;
                    continue;
                }
                let x_row = x_ic + (y - self.ph) * self.xs2;
                for kx in 0..self.kw {
                    let wv = F32Lanes::<B>::load(&self.panel[t..]);
                    t += B;
                    let xb = x_row + ox * self.sw + kx * self.dw - self.pw;
                    for (r, a) in acc.iter_mut().enumerate() {
                        let xv = F32Lanes::<B>::splat(self.xdat[xb + r * self.sw]);
                        *a = *a + xv * wv;
                    }
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            for (l, &v) in a.to_array().iter().enumerate() {
                chunk[l * plane_sp + row_pos + ox + r] = v;
            }
        }
    }

    /// One border column with full per-tap bounds checks — the checks
    /// depend only on `(oy, ox, ky, kx)`, so they are uniform across the
    /// channel lanes and skip exactly the taps the scalar kernel skips.
    #[allow(clippy::too_many_arguments)]
    fn border_col(
        &self,
        chunk: &mut [f32],
        plane_sp: usize,
        x_plane: usize,
        p_block: usize,
        bias_v: F32Lanes<CONV_PANEL_LANES>,
        oy: usize,
        ox: usize,
        row_pos: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let mut acc = bias_v;
        let mut t = p_block;
        for ic in 0..self.in_per_group {
            let x_ic = x_plane + ic * self.xs1;
            for ky in 0..self.kh {
                let y = oy * self.sh + ky * self.dh;
                if y < self.ph || y - self.ph >= self.ih {
                    t += self.kw * B;
                    continue;
                }
                let x_row = x_ic + (y - self.ph) * self.xs2;
                for kx in 0..self.kw {
                    let xx = ox * self.sw + kx * self.dw;
                    if xx >= self.pw && xx - self.pw < self.iw {
                        let xv = F32Lanes::<B>::splat(self.xdat[x_row + (xx - self.pw)]);
                        acc = acc + xv * F32Lanes::<B>::load(&self.panel[t..]);
                    }
                    t += B;
                }
            }
        }
        for (l, &v) in acc.to_array().iter().enumerate() {
            chunk[l * plane_sp + row_pos + ox] = v;
        }
    }
}

/// Loop constants of one generic-rank OC-blocked packed convolution launch.
struct ConvPackedNd<'a> {
    xdat: &'a [f32],
    panel: &'a [f32],
    xd_sp: &'a [usize],
    xs_sp: &'a [usize],
    kernel_sp: &'a [usize],
    kernel_count: usize,
    outer_count: usize,
    strides: &'a [usize],
    dilations: &'a [usize],
    pads: &'a [usize],
    in_per_group: usize,
    xs1: usize,
}

impl ConvPackedNd<'_> {
    /// `R` consecutive interior columns of the row at `outer_pos`: innermost
    /// taps all in bounds, outer-axis checks uniform across the tile and the
    /// channel lanes. Skipped outer taps advance the panel index by a whole
    /// innermost run, so in-bounds taps read their fixed panel slots in the
    /// scalar ravel order.
    #[allow(clippy::too_many_arguments)]
    fn interior_cols<const R: usize>(
        &self,
        chunk: &mut [f32],
        plane_sp: usize,
        x_plane: usize,
        p_block: usize,
        bias_v: F32Lanes<CONV_PANEL_LANES>,
        outer_pos: &[usize],
        k_outer: &mut [usize],
        ox: usize,
        row_pos: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        let (sw, dw, pw) = (self.strides[last], self.dilations[last], self.pads[last]);
        let xs_last = self.xs_sp[last];
        let kw = self.kernel_sp[last];
        let lane_step = sw * xs_last;
        let mut acc = [bias_v; R];
        let mut t = p_block;
        for ic in 0..self.in_per_group {
            let x_base = x_plane + ic * self.xs1;
            k_outer.iter_mut().for_each(|p| *p = 0);
            for _ in 0..self.outer_count {
                let mut x_off = x_base;
                let mut in_bounds = true;
                for d in 0..last {
                    let pos = outer_pos[d] * self.strides[d] + k_outer[d] * self.dilations[d];
                    if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                        in_bounds = false;
                        break;
                    }
                    x_off += (pos - self.pads[d]) * self.xs_sp[d];
                }
                if in_bounds {
                    for kx in 0..kw {
                        let wv = F32Lanes::<B>::load(&self.panel[t..]);
                        t += B;
                        let xb = x_off + (ox * sw + kx * dw - pw) * xs_last;
                        for (r, a) in acc.iter_mut().enumerate() {
                            let xv = F32Lanes::<B>::splat(self.xdat[xb + r * lane_step]);
                            *a = *a + xv * wv;
                        }
                    }
                } else {
                    t += kw * B;
                }
                advance(k_outer, &self.kernel_sp[..last]);
            }
        }
        for (r, a) in acc.iter().enumerate() {
            for (l, &v) in a.to_array().iter().enumerate() {
                chunk[l * plane_sp + row_pos + ox + r] = v;
            }
        }
    }

    /// One border column with per-tap bounds checks on every axis — uniform
    /// across the channel lanes, skipping exactly the taps the scalar kernel
    /// skips.
    #[allow(clippy::too_many_arguments)]
    fn border_col(
        &self,
        chunk: &mut [f32],
        plane_sp: usize,
        x_plane: usize,
        p_block: usize,
        bias_v: F32Lanes<CONV_PANEL_LANES>,
        outer_pos: &[usize],
        k_pos: &mut [usize],
        ox: usize,
        row_pos: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        let mut acc = bias_v;
        let mut t = p_block;
        for ic in 0..self.in_per_group {
            let x_base = x_plane + ic * self.xs1;
            k_pos.iter_mut().for_each(|p| *p = 0);
            for _ in 0..self.kernel_count {
                let mut x_off = x_base;
                let mut in_bounds = true;
                for d in 0..rank {
                    let out_coord = if d == last { ox } else { outer_pos[d] };
                    let pos = out_coord * self.strides[d] + k_pos[d] * self.dilations[d];
                    if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                        in_bounds = false;
                        break;
                    }
                    x_off += (pos - self.pads[d]) * self.xs_sp[d];
                }
                if in_bounds {
                    let xv = F32Lanes::<B>::splat(self.xdat[x_off]);
                    acc = acc + xv * F32Lanes::<B>::load(&self.panel[t..]);
                }
                t += B;
                advance(k_pos, self.kernel_sp);
            }
        }
        for (l, &v) in acc.to_array().iter().enumerate() {
            chunk[l * plane_sp + row_pos + ox] = v;
        }
    }
}

/// Loop constants of one generic-rank (1-D / 3-D / higher) convolution
/// launch, shared by the scalar and lane-blocked column kernels so both walk
/// the identical tap sequence. Spatial axis `last` (`kernel_sp.len() - 1`)
/// is the vectorized one; the outer spatial axes are walked by odometer with
/// per-tap bounds checks that are uniform over an output row.
struct ConvNd<'a> {
    xdat: &'a [f32],
    wdat: &'a [f32],
    /// Input spatial dims (length = spatial rank).
    xd_sp: &'a [usize],
    /// Input strides of the spatial axes.
    xs_sp: &'a [usize],
    /// Weight strides of the spatial axes.
    ws_sp: &'a [usize],
    kernel_sp: &'a [usize],
    /// Product of all kernel extents (taps per input channel).
    kernel_count: usize,
    /// Product of the outer (non-innermost) kernel extents.
    outer_count: usize,
    strides: &'a [usize],
    dilations: &'a [usize],
    pads: &'a [usize],
    in_per_group: usize,
    xs1: usize,
    ws1: usize,
}

impl ConvNd<'_> {
    /// Columns `[ox0, ox1)` of the output row at `outer_pos`, one element at
    /// a time with per-tap bounds checks on every axis — the reference
    /// kernel's accumulation order (input channels, then kernel taps in
    /// row-major order), used for padded borders, lane remainders and the
    /// full-scalar mode.
    #[allow(clippy::too_many_arguments)]
    fn scalar_cols(
        &self,
        row: &mut [f32],
        x_plane: usize,
        w_oc: usize,
        b0: f32,
        outer_pos: &[usize],
        k_pos: &mut [usize],
        ox0: usize,
        ox1: usize,
    ) {
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        for (ox, slot) in row[..ox1].iter_mut().enumerate().skip(ox0) {
            let mut acc = b0;
            for ic in 0..self.in_per_group {
                let x_base = x_plane + ic * self.xs1;
                let w_base = w_oc + ic * self.ws1;
                k_pos.iter_mut().for_each(|p| *p = 0);
                for _ in 0..self.kernel_count {
                    let mut x_off = x_base;
                    let mut w_off = w_base;
                    let mut in_bounds = true;
                    for d in 0..rank {
                        let out_coord = if d == last { ox } else { outer_pos[d] };
                        let pos = out_coord * self.strides[d] + k_pos[d] * self.dilations[d];
                        if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                            in_bounds = false;
                            break;
                        }
                        x_off += (pos - self.pads[d]) * self.xs_sp[d];
                        w_off += k_pos[d] * self.ws_sp[d];
                    }
                    if in_bounds {
                        acc += self.xdat[x_off] * self.wdat[w_off];
                    }
                    advance(k_pos, self.kernel_sp);
                }
            }
            *slot = acc;
        }
    }

    /// `N` consecutive interior columns starting at `ox`: one output element
    /// per lane, every innermost tap in bounds by the caller's interior-range
    /// computation. Outer-axis taps whose bounds check fails are skipped for
    /// the whole bundle — exactly the taps [`ConvNd::scalar_cols`] skips —
    /// and in-bounds taps accumulate in the scalar order (`acc = acc + x * w`
    /// per lane, no FMA), so the two paths are bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn simd_cols<const N: usize>(
        &self,
        row: &mut [f32],
        x_plane: usize,
        w_oc: usize,
        b0: f32,
        outer_pos: &[usize],
        k_outer: &mut [usize],
        ox: usize,
    ) {
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        let (sw, dw, pw) = (self.strides[last], self.dilations[last], self.pads[last]);
        let (xs_last, ws_last) = (self.xs_sp[last], self.ws_sp[last]);
        let kw = self.kernel_sp[last];
        let lane_stride = sw * xs_last;
        let mut acc = F32Lanes::<N>::splat(b0);
        for ic in 0..self.in_per_group {
            let x_base = x_plane + ic * self.xs1;
            let w_base = w_oc + ic * self.ws1;
            k_outer.iter_mut().for_each(|p| *p = 0);
            for _ in 0..self.outer_count {
                let mut x_off = x_base;
                let mut w_off = w_base;
                let mut in_bounds = true;
                for d in 0..last {
                    let pos = outer_pos[d] * self.strides[d] + k_outer[d] * self.dilations[d];
                    if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                        in_bounds = false;
                        break;
                    }
                    x_off += (pos - self.pads[d]) * self.xs_sp[d];
                    w_off += k_outer[d] * self.ws_sp[d];
                }
                if in_bounds {
                    for kx in 0..kw {
                        let x0 = x_off + (ox * sw + kx * dw - pw) * xs_last;
                        let xv = if lane_stride == 1 {
                            F32Lanes::<N>::load(&self.xdat[x0..])
                        } else {
                            F32Lanes::<N>::gather(self.xdat, x0, lane_stride)
                        };
                        acc = acc + xv * F32Lanes::<N>::splat(self.wdat[w_off + kx * ws_last]);
                    }
                }
                advance(k_outer, &self.kernel_sp[..last]);
            }
        }
        acc.store(&mut row[ox..]);
    }
}

/// Loop constants of one 2-D convolution launch, shared by the scalar and
/// lane-blocked column kernels so both walk the identical tap sequence.
struct Conv2d<'a> {
    xdat: &'a [f32],
    wdat: &'a [f32],
    ih: usize,
    iw: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    dh: usize,
    dw: usize,
    ph: usize,
    pw: usize,
    in_per_group: usize,
    xs1: usize,
    xs2: usize,
    ws1: usize,
    ws2: usize,
}

impl Conv2d<'_> {
    /// Columns `[ox0, ox1)` of output row `oy`, one element at a time with
    /// per-tap bounds checks — the reference accumulation order, used for
    /// padded borders, lane remainders and the full-scalar mode.
    #[allow(clippy::too_many_arguments)]
    fn scalar_cols(
        &self,
        row: &mut [f32],
        x_plane: usize,
        w_oc: usize,
        b0: f32,
        oy: usize,
        ox0: usize,
        ox1: usize,
    ) {
        for (ox, slot) in row[..ox1].iter_mut().enumerate().skip(ox0) {
            let mut acc = b0;
            for ic in 0..self.in_per_group {
                let x_base = x_plane + ic * self.xs1;
                let w_base = w_oc + ic * self.ws1;
                for ky in 0..self.kh {
                    let y = oy * self.sh + ky * self.dh;
                    if y < self.ph || y - self.ph >= self.ih {
                        continue;
                    }
                    let x_row = x_base + (y - self.ph) * self.xs2;
                    let w_row = w_base + ky * self.ws2;
                    for kx in 0..self.kw {
                        let xx = ox * self.sw + kx * self.dw;
                        if xx < self.pw || xx - self.pw >= self.iw {
                            continue;
                        }
                        acc += self.xdat[x_row + (xx - self.pw)] * self.wdat[w_row + kx];
                    }
                }
            }
            *slot = acc;
        }
    }

    /// `N` consecutive interior columns starting at `ox`: one output element
    /// per lane, all taps in bounds by the caller's interior-range
    /// computation, accumulated tap by tap in the scalar order (`acc = acc +
    /// x * w` per lane — bit-identical to [`Conv2d::scalar_cols`]).
    #[allow(clippy::too_many_arguments)]
    fn simd_cols<const N: usize>(
        &self,
        row: &mut [f32],
        x_plane: usize,
        w_oc: usize,
        b0: f32,
        oy: usize,
        ox: usize,
    ) {
        let mut acc = F32Lanes::<N>::splat(b0);
        for ic in 0..self.in_per_group {
            let x_base = x_plane + ic * self.xs1;
            let w_base = w_oc + ic * self.ws1;
            for ky in 0..self.kh {
                let y = oy * self.sh + ky * self.dh;
                if y < self.ph || y - self.ph >= self.ih {
                    continue;
                }
                let x_row = x_base + (y - self.ph) * self.xs2;
                let w_row = w_base + ky * self.ws2;
                for kx in 0..self.kw {
                    let x0 = x_row + ox * self.sw + kx * self.dw - self.pw;
                    let xv = if self.sw == 1 {
                        F32Lanes::<N>::load(&self.xdat[x0..])
                    } else {
                        F32Lanes::<N>::gather(self.xdat, x0, self.sw)
                    };
                    acc = acc + xv * F32Lanes::<N>::splat(self.wdat[w_row + kx]);
                }
            }
        }
        acc.store(&mut row[ox..]);
    }
}

/// Row-major odometer increment.
fn advance(pos: &mut [usize], dims: &[usize]) {
    for axis in (0..dims.len()).rev() {
        pos[axis] += 1;
        if pos[axis] < dims[axis] {
            break;
        }
        pos[axis] = 0;
    }
}

/// Batched matrix multiplication with broadcasting over batch dimensions.
/// Parallel over output rows across all batches (per-batch operand offsets
/// are precomputed, so a small batch count never caps thread utilization);
/// the per-element dot product is never split.
fn fast_matmul(
    op: OpKind,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(op, inputs, 2)?;
    let a = inputs[0];
    let b = inputs[1];
    if a.shape().rank() < 2 || b.shape().rank() < 2 {
        return Err(OpError::InvalidShape {
            op,
            reason: "operands must be rank >= 2".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let m = out_shape.dim(out_shape.rank() - 2);
    let n = out_shape.dim(out_shape.rank() - 1);
    let k = a.shape().dim(a.shape().rank() - 1);
    let batch_shape = Shape::new(out_shape.dims()[..out_shape.rank() - 2].to_vec());
    let a_batch = Shape::new(a.shape().dims()[..a.shape().rank() - 2].to_vec());
    let b_batch = Shape::new(b.shape().dims()[..b.shape().rank() - 2].to_vec());
    let a_strides = a.shape().strides();
    let b_strides = b.shape().strides();
    let adat = a.data();
    let bdat = b.data();
    let a_row_stride = a_strides[a.shape().rank() - 2];
    let b_row_stride = b_strides[b.shape().rank() - 2];
    let batches = batch_shape.numel().max(1);
    let pool = pool.for_work(out.len().saturating_mul(k));

    // Broadcast-resolved operand offsets, one entry per batch, computed once
    // so the per-row closure stays index-arithmetic only.
    let bases: Vec<(usize, usize)> = (0..batches)
        .map(|batch| {
            let batch_idx = batch_shape.multi_index(batch);
            let a_prefix = broadcast_index(&batch_idx, &a_batch);
            let b_prefix = broadcast_index(&batch_idx, &b_batch);
            let a_base = a_prefix.iter().zip(&a_strides).map(|(&i, &s)| i * s).sum();
            let b_base = b_prefix.iter().zip(&b_strides).map(|(&i, &s)| i * s).sum();
            (a_base, b_base)
        })
        .collect();

    // One chunk per output row, across all batches. Lane-blocked over the
    // output columns: `b`'s column stride is 1, so each reduction step loads
    // one contiguous `N`-wide slice of `b`'s row `p` and every lane
    // accumulates its own column's dot product in the scalar order.
    let simd = pool.use_simd();
    pool.run_chunks(out, n, |row, chunk| {
        let (a_base, b_base) = bases[row / m];
        let i = row % m;
        let a_row = &adat[a_base + i * a_row_stride..a_base + i * a_row_stride + k];
        let mut j0 = 0usize;
        if simd {
            while j0 + 2 * LANES <= n {
                matmul_cols2::<LANES>(chunk, j0, a_row, bdat, b_base, b_row_stride);
                j0 += 2 * LANES;
            }
            while j0 + LANES <= n {
                matmul_cols::<LANES>(chunk, j0, a_row, bdat, b_base, b_row_stride);
                j0 += LANES;
            }
            if j0 + 4 <= n {
                matmul_cols::<4>(chunk, j0, a_row, bdat, b_base, b_row_stride);
                j0 += 4;
            }
        }
        for (j, slot) in chunk.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            for (p, &av) in a_row.iter().enumerate() {
                acc += av * bdat[b_base + p * b_row_stride + j];
            }
            *slot = acc;
        }
    });
    Ok(())
}

/// `N` consecutive output columns of one `MatMul` row: lane `l` owns column
/// `j + l` and runs the scalar dot-product sequence on it.
fn matmul_cols<const N: usize>(
    chunk: &mut [f32],
    j: usize,
    a_row: &[f32],
    bdat: &[f32],
    b_base: usize,
    b_row_stride: usize,
) {
    let mut acc = F32Lanes::<N>::splat(0.0);
    for (p, &av) in a_row.iter().enumerate() {
        let bv = F32Lanes::<N>::load(&bdat[b_base + p * b_row_stride + j..]);
        acc = acc + F32Lanes::<N>::splat(av) * bv;
    }
    acc.store(&mut chunk[j..]);
}

/// Register-blocked tile of `2 * N` consecutive `MatMul` output columns: two
/// independent lane-bundle accumulators share each reduction step's `a`
/// splat, halving the splat traffic and breaking the loop-carried dependence
/// on a single accumulator. Each column's accumulation sequence is exactly
/// [`matmul_cols`]'s, so the tile is bit-identical to two single-bundle
/// calls.
fn matmul_cols2<const N: usize>(
    chunk: &mut [f32],
    j: usize,
    a_row: &[f32],
    bdat: &[f32],
    b_base: usize,
    b_row_stride: usize,
) {
    let mut acc0 = F32Lanes::<N>::splat(0.0);
    let mut acc1 = F32Lanes::<N>::splat(0.0);
    for (p, &av) in a_row.iter().enumerate() {
        let row = b_base + p * b_row_stride + j;
        let avv = F32Lanes::<N>::splat(av);
        acc0 = acc0 + avv * F32Lanes::<N>::load(&bdat[row..]);
        acc1 = acc1 + avv * F32Lanes::<N>::load(&bdat[row + N..]);
    }
    acc0.store(&mut chunk[j..]);
    acc1.store(&mut chunk[j + N..]);
}

/// ONNX `Gemm` with transpose flags, `alpha`/`beta` scaling and broadcast
/// bias, in the reference kernel's evaluation order. Parallel over output
/// rows.
fn fast_gemm(
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed_b: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::Gemm, inputs, 2)?;
    let a = inputs[0];
    let b = inputs[1];
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(OpError::InvalidShape {
            op: OpKind::Gemm,
            reason: "operands must be rank 2".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let alpha = attrs.float_or("alpha", 1.0);
    let beta = attrs.float_or("beta", 1.0);
    let trans_a = attrs.int_or("transA", 0) != 0;
    let trans_b = attrs.int_or("transB", 0) != 0;
    let m = out_shape.dim(0);
    let n = out_shape.dim(1);
    let k = if trans_a {
        a.shape().dim(0)
    } else {
        a.shape().dim(1)
    };
    let adat = a.data();
    let a_cols = a.shape().dim(1);
    // A prepacked (already transposed, `(K, N)` row-major) B panel replaces
    // the transposed operand: reads become contiguous, while every element
    // value — `packed[p][j] == b[j][p]` — and the accumulation order stay
    // exactly those of the strided loop, so results are bit-identical.
    let (bdat, b_cols, trans_b) = match packed_b {
        Some(panel) if trans_b => {
            debug_assert_eq!(
                panel.shape().dims(),
                &[k, n],
                "packed B panel must be (K, N)"
            );
            (panel.data(), n, false)
        }
        _ => (b.data(), b.shape().dim(1), trans_b),
    };
    // Broadcast strides of the optional bias over the (m, n) output.
    let c = inputs.get(2);
    let (c_dat, c_si, c_sj) = match c {
        Some(c) => {
            let cd = c.shape().dims();
            let (si, sj) = match cd.len() {
                2 => (
                    if cd[0] == 1 { 0 } else { cd[1] },
                    if cd[1] == 1 { 0 } else { 1 },
                ),
                1 => (0, if cd[0] == 1 { 0 } else { 1 }),
                _ => (0, 0),
            };
            (Some(c.data()), si, sj)
        }
        None => (None, 0, 0),
    };

    let pool = pool.for_work(m.saturating_mul(n).saturating_mul(k));
    // Lane-blocked over output columns: `a`'s element is uniform per
    // reduction step (splat), `b` loads contiguously (or gathers with
    // column stride when transposed), and the bias broadcast reuses its
    // existing per-axis strides as gather strides.
    let simd = pool.use_simd();
    pool.run_chunks(out, n, |i, chunk| {
        let mut j0 = 0usize;
        if simd {
            if !trans_b {
                while j0 + 2 * LANES <= n {
                    gemm_cols2::<LANES>(
                        chunk, i, j0, k, trans_a, adat, bdat, a_cols, b_cols, alpha, beta, c_dat,
                        c_si, c_sj,
                    );
                    j0 += 2 * LANES;
                }
            }
            while j0 + LANES <= n {
                gemm_cols::<LANES>(
                    chunk, i, j0, k, trans_a, trans_b, adat, bdat, a_cols, b_cols, alpha, beta,
                    c_dat, c_si, c_sj,
                );
                j0 += LANES;
            }
            if j0 + 4 <= n {
                gemm_cols::<4>(
                    chunk, i, j0, k, trans_a, trans_b, adat, bdat, a_cols, b_cols, alpha, beta,
                    c_dat, c_si, c_sj,
                );
                j0 += 4;
            }
        }
        for (j, slot) in chunk.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = if trans_a {
                    adat[p * a_cols + i]
                } else {
                    adat[i * a_cols + p]
                };
                let bv = if trans_b {
                    bdat[j * b_cols + p]
                } else {
                    bdat[p * b_cols + j]
                };
                acc += av * bv;
            }
            let mut v = alpha * acc;
            if let Some(cd) = c_dat {
                v += beta * cd[i * c_si + j * c_sj];
            }
            *slot = v;
        }
    });
    Ok(())
}

/// `N` consecutive output columns of one `Gemm` row: lane `l` owns column
/// `j + l`, accumulating `a[i,:] · b[:,j+l]` then applying `alpha`/`beta`
/// and the broadcast bias with the scalar kernel's operation sequence.
#[allow(clippy::too_many_arguments)]
fn gemm_cols<const N: usize>(
    chunk: &mut [f32],
    i: usize,
    j: usize,
    k: usize,
    trans_a: bool,
    trans_b: bool,
    adat: &[f32],
    bdat: &[f32],
    a_cols: usize,
    b_cols: usize,
    alpha: f32,
    beta: f32,
    c_dat: Option<&[f32]>,
    c_si: usize,
    c_sj: usize,
) {
    let mut acc = F32Lanes::<N>::splat(0.0);
    for p in 0..k {
        let av = if trans_a {
            adat[p * a_cols + i]
        } else {
            adat[i * a_cols + p]
        };
        let bv = if trans_b {
            F32Lanes::<N>::gather(bdat, j * b_cols + p, b_cols)
        } else {
            F32Lanes::<N>::load(&bdat[p * b_cols + j..])
        };
        acc = acc + F32Lanes::<N>::splat(av) * bv;
    }
    let mut v = F32Lanes::<N>::splat(alpha) * acc;
    if let Some(cd) = c_dat {
        let cv = F32Lanes::<N>::gather(cd, i * c_si + j * c_sj, c_sj);
        v = v + F32Lanes::<N>::splat(beta) * cv;
    }
    v.store(&mut chunk[j..]);
}

/// Register-blocked tile of `2 * N` consecutive `Gemm` output columns for
/// the contiguous-B case (`transB = 0`, or a prepacked panel): two
/// independent lane-bundle accumulators share each reduction step's `a`
/// splat. Per column, the accumulation and `alpha`/`beta`/bias sequence is
/// exactly [`gemm_cols`]'s, so the tile is bit-identical to two
/// single-bundle calls.
#[allow(clippy::too_many_arguments)]
fn gemm_cols2<const N: usize>(
    chunk: &mut [f32],
    i: usize,
    j: usize,
    k: usize,
    trans_a: bool,
    adat: &[f32],
    bdat: &[f32],
    a_cols: usize,
    b_cols: usize,
    alpha: f32,
    beta: f32,
    c_dat: Option<&[f32]>,
    c_si: usize,
    c_sj: usize,
) {
    let mut acc0 = F32Lanes::<N>::splat(0.0);
    let mut acc1 = F32Lanes::<N>::splat(0.0);
    for p in 0..k {
        let av = if trans_a {
            adat[p * a_cols + i]
        } else {
            adat[i * a_cols + p]
        };
        let avv = F32Lanes::<N>::splat(av);
        let row = p * b_cols + j;
        acc0 = acc0 + avv * F32Lanes::<N>::load(&bdat[row..]);
        acc1 = acc1 + avv * F32Lanes::<N>::load(&bdat[row + N..]);
    }
    let alpha_v = F32Lanes::<N>::splat(alpha);
    let mut v0 = alpha_v * acc0;
    let mut v1 = alpha_v * acc1;
    if let Some(cd) = c_dat {
        let beta_v = F32Lanes::<N>::splat(beta);
        let c_base = i * c_si + j * c_sj;
        v0 = v0 + beta_v * F32Lanes::<N>::gather(cd, c_base, c_sj);
        v1 = v1 + beta_v * F32Lanes::<N>::gather(cd, c_base + N * c_sj, c_sj);
    }
    v0.store(&mut chunk[j..]);
    v1.store(&mut chunk[j + N..]);
}

/// `MaxPool` / `AveragePool` with the reference kernel's window order and
/// padding-count semantics. Parallel over `(batch, channel)` output planes.
fn fast_pool(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(op, inputs, 1)?;
    let x = inputs[0];
    if x.shape().rank() < 3 {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected (N, C, spatial...) input".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let spatial_rank = x.shape().rank() - 2;
    let kernel: Vec<usize> = attrs
        .ints_or("kernel_shape", &vec![1; spatial_rank])
        .iter()
        .map(|&k| k.max(1) as usize)
        .collect();
    let (strides, _, pads) = spatial_attrs(attrs, spatial_rank);
    let count_include_pad = attrs.int_or("count_include_pad", 0) != 0;
    let kernel_total: usize = kernel.iter().product();
    let is_max = op == OpKind::MaxPool;

    let xd = x.shape().dims().to_vec();
    let xs = x.shape().strides();
    let xdat = x.data();
    let channels = out_shape.dim(1);
    let out_sp: Vec<usize> = out_shape.dims()[2..].to_vec();
    let out_sp_count: usize = out_sp.iter().product();
    let pool = pool.for_work(out.len().saturating_mul(kernel_total));

    // Interior-column split on the innermost spatial axis, shared by the
    // 2-D fast path and the generic-rank odometer path: columns in
    // [x_lo, x_hi) have every innermost tap in bounds (pooling has no
    // dilation, so the furthest tap is ox*sw + kw - 1).
    let last = spatial_rank - 1;
    let ow = out_sp[last];
    let iw = xd[2 + last];
    let (sw, pw, kw) = (strides[last], pads[last], kernel[last]);
    let span = kw - 1;
    let x_hi = if iw + pw > span {
        ((iw + pw - span - 1) / sw + 1).min(ow)
    } else {
        0
    };
    let x_lo = pw.div_ceil(sw).min(x_hi);
    let simd = pool.use_simd();

    if spatial_rank == 2 {
        let (oh, _) = (out_sp[0], out_sp[1]);
        let (xs0, xs1) = (xs[0], xs[1]);
        let tile = Pool2d {
            xdat,
            ih: xd[2],
            iw,
            kh: kernel[0],
            kw,
            sh: strides[0],
            sw,
            ph: pads[0],
            pw,
            xs2: xs[2],
            is_max,
            count_include_pad,
            kernel_total,
        };
        pool.run_chunks(out, oh * ow, |plane, chunk| {
            let n = plane / channels;
            let c = plane % channels;
            let base = n * xs0 + c * xs1;
            for (oy, row) in chunk.chunks_mut(ow).enumerate() {
                if simd {
                    tile.scalar_cols(row, base, oy, 0, x_lo);
                    let mut ox = x_lo;
                    while ox + LANES <= x_hi {
                        tile.simd_cols::<LANES>(row, base, oy, ox);
                        ox += LANES;
                    }
                    if ox + 4 <= x_hi {
                        tile.simd_cols::<4>(row, base, oy, ox);
                        ox += 4;
                    }
                    tile.scalar_cols(row, base, oy, ox, ow);
                } else {
                    tile.scalar_cols(row, base, oy, 0, ow);
                }
            }
        });
        return Ok(());
    }

    // Generic spatial rank (1-D and 3-D pooling): outer-axis taps keep
    // per-tap bounds checks (uniform over a row), the innermost axis takes
    // the border/interior split above.
    let tile = PoolNd {
        xdat,
        xd_sp: &xd[2..],
        xs_sp: &xs[2..],
        kernel_sp: &kernel,
        outer_count: kernel[..last].iter().product(),
        strides: &strides,
        pads: &pads,
        is_max,
        count_include_pad,
        kernel_total,
    };
    let outer_sp = &out_sp[..last];
    pool.run_chunks(out, out_sp_count, |plane, chunk| {
        let n = plane / channels;
        let c = plane % channels;
        let base = n * xs[0] + c * xs[1];
        let mut outer_pos = vec![0usize; last];
        // One odometer scratch per plane, shared by every column kernel call
        // — no allocation inside the row loop.
        let mut k_pos = vec![0usize; spatial_rank];
        for row in chunk.chunks_mut(ow) {
            if simd {
                tile.scalar_cols(row, base, &outer_pos, &mut k_pos, 0, x_lo);
                let mut ox = x_lo;
                while ox + LANES <= x_hi {
                    tile.simd_cols::<LANES>(row, base, &outer_pos, &mut k_pos[..last], ox);
                    ox += LANES;
                }
                if ox + 4 <= x_hi {
                    tile.simd_cols::<4>(row, base, &outer_pos, &mut k_pos[..last], ox);
                    ox += 4;
                }
                tile.scalar_cols(row, base, &outer_pos, &mut k_pos, ox, ow);
            } else {
                tile.scalar_cols(row, base, &outer_pos, &mut k_pos, 0, ow);
            }
            advance(&mut outer_pos, outer_sp);
        }
    });
    Ok(())
}

/// Loop constants of one 2-D pooling launch, shared by the scalar and
/// lane-blocked column kernels so both visit the identical tap sequence.
struct Pool2d<'a> {
    xdat: &'a [f32],
    ih: usize,
    iw: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    ph: usize,
    pw: usize,
    xs2: usize,
    is_max: bool,
    count_include_pad: bool,
    kernel_total: usize,
}

impl Pool2d<'_> {
    /// Columns `[ox0, ox1)` of output row `oy`, one element at a time with
    /// per-tap bounds checks — the reference kernel's window order, used for
    /// padded borders, lane remainders and the full-scalar mode.
    fn scalar_cols(&self, row: &mut [f32], base: usize, oy: usize, ox0: usize, ox1: usize) {
        for (ox, slot) in row[..ox1].iter_mut().enumerate().skip(ox0) {
            let mut acc = if self.is_max { f32::NEG_INFINITY } else { 0.0 };
            let mut count = 0usize;
            for ky in 0..self.kh {
                let y = oy * self.sh + ky;
                if y < self.ph || y - self.ph >= self.ih {
                    continue;
                }
                let x_row = base + (y - self.ph) * self.xs2;
                for kx in 0..self.kw {
                    let xx = ox * self.sw + kx;
                    if xx < self.pw || xx - self.pw >= self.iw {
                        continue;
                    }
                    let v = self.xdat[x_row + (xx - self.pw)];
                    if self.is_max {
                        acc = acc.max(v);
                    } else {
                        acc += v;
                    }
                    count += 1;
                }
            }
            *slot = pool_result(acc, count, self);
        }
    }

    /// `N` consecutive interior columns starting at `ox`: one output element
    /// per lane, every column tap in bounds by the caller's interior-range
    /// computation. Row taps outside the input are skipped for the whole
    /// bundle (the same taps the scalar loop skips); in-bounds taps apply
    /// the scalar operation per lane (`f32::max` / `+`, then one division
    /// for averages), so the two paths are bit-identical.
    fn simd_cols<const N: usize>(&self, row: &mut [f32], base: usize, oy: usize, ox: usize) {
        let mut acc = F32Lanes::<N>::splat(if self.is_max { f32::NEG_INFINITY } else { 0.0 });
        let mut valid_rows = 0usize;
        for ky in 0..self.kh {
            let y = oy * self.sh + ky;
            if y < self.ph || y - self.ph >= self.ih {
                continue;
            }
            valid_rows += 1;
            let x_row = base + (y - self.ph) * self.xs2;
            for kx in 0..self.kw {
                let x0 = x_row + ox * self.sw + kx - self.pw;
                let xv = if self.sw == 1 {
                    F32Lanes::<N>::load(&self.xdat[x0..])
                } else {
                    F32Lanes::<N>::gather(self.xdat, x0, self.sw)
                };
                acc = if self.is_max { acc.max(xv) } else { acc + xv };
            }
        }
        store_pool_lanes(acc, valid_rows * self.kw, self, row, ox);
    }
}

impl<'a> PoolKernel for Pool2d<'a> {
    fn is_max(&self) -> bool {
        self.is_max
    }
    fn count_include_pad(&self) -> bool {
        self.count_include_pad
    }
    fn kernel_total(&self) -> usize {
        self.kernel_total
    }
}

/// Loop constants of one generic-rank pooling launch (1-D / 3-D / higher),
/// mirroring [`ConvNd`]: the innermost spatial axis is the vectorized one.
struct PoolNd<'a> {
    xdat: &'a [f32],
    xd_sp: &'a [usize],
    xs_sp: &'a [usize],
    kernel_sp: &'a [usize],
    /// Product of the outer (non-innermost) kernel extents.
    outer_count: usize,
    strides: &'a [usize],
    pads: &'a [usize],
    is_max: bool,
    count_include_pad: bool,
    kernel_total: usize,
}

impl PoolNd<'_> {
    /// Columns `[ox0, ox1)` of the output row at `outer_pos`, one element at
    /// a time with per-tap bounds checks on every axis — the reference
    /// kernel's window order (kernel taps row-major).
    fn scalar_cols(
        &self,
        row: &mut [f32],
        base: usize,
        outer_pos: &[usize],
        k_pos: &mut [usize],
        ox0: usize,
        ox1: usize,
    ) {
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        for (ox, slot) in row[..ox1].iter_mut().enumerate().skip(ox0) {
            let mut acc = if self.is_max { f32::NEG_INFINITY } else { 0.0 };
            let mut count = 0usize;
            k_pos.iter_mut().for_each(|p| *p = 0);
            for _ in 0..self.kernel_total {
                let mut off = base;
                let mut in_bounds = true;
                for d in 0..rank {
                    let out_coord = if d == last { ox } else { outer_pos[d] };
                    let pos = out_coord * self.strides[d] + k_pos[d];
                    if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                        in_bounds = false;
                        break;
                    }
                    off += (pos - self.pads[d]) * self.xs_sp[d];
                }
                if in_bounds {
                    let v = self.xdat[off];
                    if self.is_max {
                        acc = acc.max(v);
                    } else {
                        acc += v;
                    }
                    count += 1;
                }
                advance(k_pos, self.kernel_sp);
            }
            *slot = pool_result(acc, count, self);
        }
    }

    /// `N` consecutive interior columns starting at `ox`: one output element
    /// per lane. Outer-axis taps failing their bounds check are skipped for
    /// the whole bundle; every innermost tap of a surviving outer tap is in
    /// bounds by the caller's interior-range computation, and applies the
    /// scalar operation per lane in the odometer order.
    fn simd_cols<const N: usize>(
        &self,
        row: &mut [f32],
        base: usize,
        outer_pos: &[usize],
        k_outer: &mut [usize],
        ox: usize,
    ) {
        let rank = self.kernel_sp.len();
        let last = rank - 1;
        let (sw, pw) = (self.strides[last], self.pads[last]);
        let xs_last = self.xs_sp[last];
        let kw = self.kernel_sp[last];
        let lane_stride = sw * xs_last;
        k_outer.iter_mut().for_each(|p| *p = 0);
        let mut acc = F32Lanes::<N>::splat(if self.is_max { f32::NEG_INFINITY } else { 0.0 });
        let mut valid_outer = 0usize;
        for _ in 0..self.outer_count {
            let mut off = base;
            let mut in_bounds = true;
            for d in 0..last {
                let pos = outer_pos[d] * self.strides[d] + k_outer[d];
                if pos < self.pads[d] || pos - self.pads[d] >= self.xd_sp[d] {
                    in_bounds = false;
                    break;
                }
                off += (pos - self.pads[d]) * self.xs_sp[d];
            }
            if in_bounds {
                valid_outer += 1;
                for kx in 0..kw {
                    let x0 = off + (ox * sw + kx - pw) * xs_last;
                    let xv = if lane_stride == 1 {
                        F32Lanes::<N>::load(&self.xdat[x0..])
                    } else {
                        F32Lanes::<N>::gather(self.xdat, x0, lane_stride)
                    };
                    acc = if self.is_max { acc.max(xv) } else { acc + xv };
                }
            }
            advance(k_outer, &self.kernel_sp[..last]);
        }
        store_pool_lanes(acc, valid_outer * kw, self, row, ox);
    }
}

impl<'a> PoolKernel for PoolNd<'a> {
    fn is_max(&self) -> bool {
        self.is_max
    }
    fn count_include_pad(&self) -> bool {
        self.count_include_pad
    }
    fn kernel_total(&self) -> usize {
        self.kernel_total
    }
}

/// The pooling-mode constants [`pool_result`] and [`store_pool_lanes`] need,
/// shared by [`Pool2d`] and [`PoolNd`].
trait PoolKernel {
    fn is_max(&self) -> bool;
    fn count_include_pad(&self) -> bool;
    fn kernel_total(&self) -> usize;
}

/// Finishes one pooled element: the max as-is, or the average via the
/// reference kernel's padding-count semantics.
fn pool_result(acc: f32, count: usize, k: &impl PoolKernel) -> f32 {
    if k.is_max() {
        acc
    } else {
        let denom = if k.count_include_pad() {
            k.kernel_total()
        } else {
            count.max(1)
        };
        acc / denom as f32
    }
}

/// Finishes `N` pooled interior columns: `count` (in-bounds taps) is uniform
/// across the lanes, and the average divides per lane — one IEEE division,
/// exactly [`pool_result`]'s operation.
fn store_pool_lanes<const N: usize>(
    acc: F32Lanes<N>,
    count: usize,
    k: &impl PoolKernel,
    row: &mut [f32],
    ox: usize,
) {
    if k.is_max() {
        acc.store(&mut row[ox..]);
    } else {
        let denom = if k.count_include_pad() {
            k.kernel_total()
        } else {
            count.max(1)
        };
        let avg = acc / F32Lanes::<N>::splat(denom as f32);
        avg.store(&mut row[ox..]);
    }
}

/// `GlobalAveragePool` over contiguous per-channel spatial slices, parallel
/// over groups of `(batch, channel)` output elements. With SIMD enabled the
/// groups are lane-blocked: each lane owns one whole `(n, c)` output and
/// runs the scalar summation order over its own channel plane (gather loads
/// with the plane stride), so the lane path is bit-identical to the scalar
/// fold.
fn fast_global_average_pool(
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::GlobalAveragePool, inputs, 1)?;
    let x = inputs[0];
    if x.shape().rank() < 3 {
        return Err(OpError::InvalidShape {
            op: OpKind::GlobalAveragePool,
            reason: "expected (N, C, spatial...) input".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let channels = out_shape.dim(1);
    debug_assert_eq!(out.len(), out_shape.dim(0) * channels);
    let spatial: usize = x.shape().dims()[2..].iter().product();
    let xdat = x.data();
    let pool = pool.for_work(xdat.len());
    let simd = pool.use_simd();
    let denom = spatial.max(1) as f32;
    pool.run_chunks(out, LANES, |group, chunk| {
        let mut o = 0usize;
        if simd && spatial > 0 {
            while o + LANES <= chunk.len() {
                gap_lanes::<LANES>(
                    xdat,
                    (group * LANES + o) * spatial,
                    spatial,
                    denom,
                    &mut chunk[o..],
                );
                o += LANES;
            }
            if o + 4 <= chunk.len() {
                gap_lanes::<4>(
                    xdat,
                    (group * LANES + o) * spatial,
                    spatial,
                    denom,
                    &mut chunk[o..],
                );
                o += 4;
            }
        }
        for (i, slot) in chunk.iter_mut().enumerate().skip(o) {
            let base = (group * LANES + i) * spatial;
            let sum: f32 = xdat[base..base + spatial].iter().sum();
            *slot = sum / denom;
        }
    });
    Ok(())
}

/// Sums `N` consecutive channel planes in lockstep, one plane per lane: step
/// `s` adds element `s` of every plane (`acc = acc + x`, the scalar fold's
/// exact order per lane), then divides once per lane.
fn gap_lanes<const N: usize>(
    xdat: &[f32],
    base: usize,
    spatial: usize,
    denom: f32,
    out: &mut [f32],
) {
    let mut acc = F32Lanes::<N>::splat(0.0);
    for s in 0..spatial {
        acc = acc + F32Lanes::<N>::gather(xdat, base + s, spatial);
    }
    let avg = acc / F32Lanes::<N>::splat(denom);
    avg.store(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, infer_shapes};

    /// Shape-infers a `Conv` output for explicit packed-vs-unpacked runs.
    fn infer_conv_shape(attrs: &Attrs, x: &Tensor, w: &Tensor) -> Shape {
        infer_shapes(OpKind::Conv, attrs, &[x.shape().clone(), w.shape().clone()])
            .unwrap()
            .remove(0)
    }

    /// Runs `op` through both the fast and reference kernels and checks the
    /// outputs are bit-identical (same taps, same accumulation order). The
    /// fast kernel runs with its lane-blocked (SIMD) path enabled — the
    /// default — so every case here also pins SIMD == reference; the
    /// explicit scalar mode is checked against it bit for bit as well.
    fn assert_fast_matches_reference(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) {
        let shapes: Vec<Shape> = inputs.iter().map(|t| t.shape().clone()).collect();
        let out_shape = infer_shapes(op, attrs, &shapes).unwrap().remove(0);
        let mut fast = vec![0.0f32; out_shape.numel()];
        assert!(execute_fast_into(op, attrs, inputs, &out_shape, &mut fast).unwrap());
        let reference = execute(op, attrs, inputs).unwrap().remove(0);
        assert_eq!(
            fast.as_slice(),
            reference.data(),
            "{op} diverged from reference"
        );
        let mut scalar = vec![0.0f32; out_shape.numel()];
        assert!(execute_fast_into_threaded(
            op,
            attrs,
            inputs,
            &out_shape,
            &mut scalar,
            WorkPool::serial().with_simd(false),
        )
        .unwrap());
        assert_eq!(scalar, fast, "{op} scalar mode diverged from the SIMD path");
        assert_threaded_matches_serial(op, attrs, inputs, &out_shape, &fast);
    }

    /// Runs `op` through the threaded kernel at several thread counts (with
    /// the work gate disabled, so the parallel partitioning really runs) and
    /// checks every output byte matches the serial result.
    fn assert_threaded_matches_serial(
        op: OpKind,
        attrs: &Attrs,
        inputs: &[&Tensor],
        out_shape: &Shape,
        serial: &[f32],
    ) {
        for threads in [2, 3, 8] {
            let pool = WorkPool::with_min_work(threads, 0);
            let mut threaded = vec![0.0f32; out_shape.numel()];
            assert!(
                execute_fast_into_threaded(op, attrs, inputs, out_shape, &mut threaded, pool)
                    .unwrap()
            );
            assert_eq!(
                threaded.as_slice(),
                serial,
                "{op} not bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn registry_matches_dispatch() {
        for op in OpKind::all() {
            if !has_fast_kernel(op) {
                let mut out = [0.0f32];
                let x = Tensor::scalar(1.0);
                // Elementwise ops get Ok(false); the registry is authoritative.
                if op.is_elementwise_unary() {
                    assert!(!execute_fast_into(
                        op,
                        &Attrs::new(),
                        &[&x],
                        &Shape::scalar(),
                        &mut out
                    )
                    .unwrap());
                }
            }
        }
        assert!(has_fast_kernel(OpKind::Conv));
        use OpKind::*;
        for op in [
            Concat, Transpose, Reshape, Flatten, Squeeze, Unsqueeze, ReduceSum, ReduceMean,
            ReduceMax, ReduceMin, ReduceProd, Gather,
        ] {
            assert!(has_fast_kernel(op), "{op} is not registered");
        }
        for op in [Softmax, Slice, Split, Pad, Resize, ConvTranspose] {
            assert!(!has_fast_kernel(op), "{op} has no fast kernel");
            let x = Tensor::scalar(1.0);
            let mut out = [0.0f32];
            assert!(
                !execute_fast_into(op, &Attrs::new(), &[&x], &Shape::scalar(), &mut out).unwrap(),
                "{op} dispatched without being registered"
            );
        }
    }

    #[test]
    fn conv_2d_matches_reference_with_padding_strides_and_bias() {
        let x = Tensor::random(Shape::new(vec![2, 3, 9, 7]), 1);
        let w = Tensor::random(Shape::new(vec![4, 3, 3, 3]), 2);
        let b = Tensor::random(Shape::new(vec![4]), 3);
        for attrs in [
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new().with_ints("strides", vec![2, 2]),
            Attrs::new()
                .with_ints("pads", vec![2, 0, 2, 0])
                .with_ints("dilations", vec![2, 1]),
        ] {
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w, &b]);
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
        }
    }

    #[test]
    fn grouped_conv_matches_reference() {
        let x = Tensor::random(Shape::new(vec![1, 4, 6, 6]), 4);
        let w = Tensor::random(Shape::new(vec![4, 1, 3, 3]), 5);
        let attrs = Attrs::new()
            .with_int("group", 4)
            .with_ints("pads", vec![1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
    }

    #[test]
    fn conv_3d_matches_reference() {
        let x = Tensor::random(Shape::new(vec![1, 2, 4, 5, 4]), 6);
        let w = Tensor::random(Shape::new(vec![3, 2, 3, 3, 3]), 7);
        let attrs = Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
    }

    #[test]
    fn matmul_matches_reference_including_batch_broadcast() {
        let a = Tensor::random(Shape::new(vec![3, 4]), 8);
        let b = Tensor::random(Shape::new(vec![4, 5]), 9);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        let a = Tensor::random(Shape::new(vec![2, 3, 4]), 10);
        let b = Tensor::random(Shape::new(vec![4, 5]), 11);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        let a = Tensor::random(Shape::new(vec![2, 1, 3, 4]), 12);
        let b = Tensor::random(Shape::new(vec![2, 4, 2]), 13);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        // Leading all-ones batch prefix takes the per-row parallel path.
        let a = Tensor::random(Shape::new(vec![1, 6, 4]), 24);
        let b = Tensor::random(Shape::new(vec![1, 4, 3]), 25);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
    }

    #[test]
    fn gemm_matches_reference_with_transpose_and_bias() {
        let a = Tensor::random(Shape::new(vec![3, 4]), 14);
        let bt = Tensor::random(Shape::new(vec![5, 4]), 15);
        let c = Tensor::random(Shape::new(vec![5]), 16);
        let attrs = Attrs::new()
            .with_int("transB", 1)
            .with_float("alpha", 0.5)
            .with_float("beta", 2.0);
        assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&a, &bt, &c]);
        let at = Tensor::random(Shape::new(vec![4, 3]), 17);
        let b = Tensor::random(Shape::new(vec![4, 5]), 18);
        let c2 = Tensor::random(Shape::new(vec![3, 1]), 19);
        let attrs = Attrs::new().with_int("transA", 1);
        assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&at, &b, &c2]);
    }

    #[test]
    fn prepacked_gemm_b_panel_is_bit_identical_to_the_strided_operand() {
        // transB = 1 with a prepacked (K, N) panel: contiguous loads replace
        // the gathers, but every element value and the accumulation order
        // are unchanged, so outputs must match bit for bit — for widths
        // crossing the 8/4/scalar lane splits, and in forced-scalar mode.
        for n in [3usize, 7, 8, 21] {
            let a = Tensor::random(Shape::new(vec![4, 6]), 110 + n as u64);
            let bt = Tensor::random(Shape::new(vec![n, 6]), 120 + n as u64);
            let c = Tensor::random(Shape::new(vec![n]), 130 + n as u64);
            let panel = bt.transpose(&[1, 0]).unwrap();
            let attrs = Attrs::new()
                .with_int("transB", 1)
                .with_float("alpha", 0.75)
                .with_float("beta", 1.5);
            let out_shape = Shape::new(vec![4, n]);
            let mut unpacked = vec![0.0f32; out_shape.numel()];
            assert!(execute_fast_into(
                OpKind::Gemm,
                &attrs,
                &[&a, &bt, &c],
                &out_shape,
                &mut unpacked
            )
            .unwrap());
            for pool in [
                WorkPool::serial(),
                WorkPool::serial().with_simd(false),
                WorkPool::with_min_work(3, 0),
            ] {
                let mut packed = vec![0.0f32; out_shape.numel()];
                assert!(execute_fast_into_packed(
                    OpKind::Gemm,
                    &attrs,
                    &[&a, &bt, &c],
                    Some(&panel),
                    &out_shape,
                    &mut packed,
                    pool,
                )
                .unwrap());
                assert_eq!(packed, unpacked, "packed Gemm diverged at n = {n}");
            }
            // An untransposed Gemm ignores the panel entirely.
            let b = Tensor::random(Shape::new(vec![6, n]), 140 + n as u64);
            let plain = Attrs::new();
            let mut without = vec![0.0f32; out_shape.numel()];
            assert!(
                execute_fast_into(OpKind::Gemm, &plain, &[&a, &b], &out_shape, &mut without)
                    .unwrap()
            );
            let mut with = vec![0.0f32; out_shape.numel()];
            assert!(execute_fast_into_packed(
                OpKind::Gemm,
                &plain,
                &[&a, &b],
                Some(&panel),
                &out_shape,
                &mut with,
                WorkPool::serial(),
            )
            .unwrap());
            assert_eq!(with, without);
        }
    }

    #[test]
    fn prepacked_conv_oc_panel_is_bit_identical_to_the_strided_weights() {
        // OC-blocked panels replace the strided weight walk with contiguous
        // lane loads, but every tap value and the per-element accumulation
        // order are the scalar kernel's, so outputs must match bit for bit —
        // across the border/interior split, strides, dilations, bias, every
        // pool configuration, and both the 2-D and odometer (3-D) paths.
        let x = Tensor::random(Shape::new(vec![2, 3, 7, 13]), 200);
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES * 2, 3, 3, 3]), 201);
        let b = Tensor::random(Shape::new(vec![CONV_PANEL_LANES * 2]), 202);
        let x3 = Tensor::random(Shape::new(vec![1, 2, 4, 5, 11]), 203);
        let w3 = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 2, 3, 3, 3]), 204);
        let cases: [(&Tensor, &Tensor, Option<&Tensor>, Attrs); 5] = [
            (
                &x,
                &w,
                Some(&b),
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            ),
            (&x, &w, None, Attrs::new().with_ints("strides", vec![2, 2])),
            (
                &x,
                &w,
                Some(&b),
                Attrs::new()
                    .with_ints("pads", vec![2, 0, 2, 0])
                    .with_ints("dilations", vec![2, 1]),
            ),
            (&x, &w, None, Attrs::new()),
            (
                &x3,
                &w3,
                None,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
            ),
        ];
        for (x, w, b, attrs) in cases {
            let panel = pack_conv_oc_panel(w).expect("lane-aligned OC packs");
            let inputs: Vec<&Tensor> = match b {
                Some(b) => vec![x, w, b],
                None => vec![x, w],
            };
            let out_shape = infer_conv_shape(&attrs, x, w);
            let mut unpacked = vec![0.0f32; out_shape.numel()];
            assert!(
                execute_fast_into(OpKind::Conv, &attrs, &inputs, &out_shape, &mut unpacked)
                    .unwrap()
            );
            for pool in [
                WorkPool::serial(),
                WorkPool::serial().with_simd(false),
                WorkPool::with_min_work(3, 0),
                WorkPool::with_min_work(7, 0),
            ] {
                let mut packed = vec![0.0f32; out_shape.numel()];
                assert!(execute_fast_into_packed(
                    OpKind::Conv,
                    &attrs,
                    &inputs,
                    Some(&panel),
                    &out_shape,
                    &mut packed,
                    pool,
                )
                .unwrap());
                assert_eq!(packed, unpacked, "packed conv diverged for {attrs:?}");
            }
        }
    }

    #[test]
    fn conv_oc_panel_packing_gates_on_lane_aligned_output_channels() {
        // Non-multiple-of-LANES OC has no panel form.
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES + 1, 2, 3, 3]), 210);
        assert!(pack_conv_oc_panel(&w).is_none());
        // Rank < 3 (not a conv weight) has no panel form either.
        let m = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 4]), 211);
        assert!(pack_conv_oc_panel(&m).is_none());
        // A grouped conv ignores a (mis-sized for its per-group walk) panel
        // and still matches the unpacked kernel.
        let x = Tensor::random(Shape::new(vec![1, CONV_PANEL_LANES, 6, 6]), 212);
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 1, 3, 3]), 213);
        let panel = pack_conv_oc_panel(&w).unwrap();
        let attrs = Attrs::new()
            .with_int("group", CONV_PANEL_LANES as i64)
            .with_ints("pads", vec![1, 1, 1, 1]);
        let out_shape = infer_conv_shape(&attrs, &x, &w);
        let mut unpacked = vec![0.0f32; out_shape.numel()];
        assert!(
            execute_fast_into(OpKind::Conv, &attrs, &[&x, &w], &out_shape, &mut unpacked).unwrap()
        );
        let mut packed = vec![0.0f32; out_shape.numel()];
        assert!(execute_fast_into_packed(
            OpKind::Conv,
            &attrs,
            &[&x, &w],
            Some(&panel),
            &out_shape,
            &mut packed,
            WorkPool::serial(),
        )
        .unwrap());
        assert_eq!(packed, unpacked);
    }

    #[test]
    fn pools_match_reference() {
        let x = Tensor::random(Shape::new(vec![1, 3, 7, 7]), 20);
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![3, 3])
            .with_ints("strides", vec![2, 2])
            .with_ints("pads", vec![1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x]);
        assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x]);
        let include = attrs.clone().with_int("count_include_pad", 1);
        assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x]);
        // 3-D pooling takes the generic odometer path.
        let x3 = Tensor::random(Shape::new(vec![1, 2, 4, 4, 4]), 21);
        let attrs3 = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2, 2])
            .with_ints("strides", vec![2, 2, 2]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs3, &[&x3]);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x3]);
    }

    #[test]
    fn simd_interiors_cover_every_lane_width_and_stride_form() {
        // Output widths chosen to force each lane split: 8-lane bundles
        // (ow >= 8 + borders), the 4-lane remainder pass, and scalar tails;
        // strides > 1 take the gather load, stride 1 the contiguous load.
        let x = Tensor::random(Shape::new(vec![1, 2, 5, 23]), 50);
        let w = Tensor::random(Shape::new(vec![3, 2, 3, 3]), 51);
        for attrs in [
            Attrs::new(),
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new()
                .with_ints("strides", vec![1, 2])
                .with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new().with_ints("dilations", vec![1, 2]),
            Attrs::new().with_ints("pads", vec![0, 9, 0, 9]),
        ] {
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
        }
        // 1x1 kernel: the whole row is interior.
        let w1 = Tensor::random(Shape::new(vec![3, 2, 1, 1]), 52);
        assert_fast_matches_reference(OpKind::Conv, &Attrs::new(), &[&x, &w1]);
        // MatMul/Gemm columns across the 8/4/scalar splits (n = 4, 7, 8, 21).
        for n in [4usize, 7, 8, 21] {
            let a = Tensor::random(Shape::new(vec![3, 5]), 53 + n as u64);
            let b = Tensor::random(Shape::new(vec![5, n]), 60 + n as u64);
            assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
            let bt = Tensor::random(Shape::new(vec![n, 5]), 70 + n as u64);
            let c = Tensor::random(Shape::new(vec![n]), 80 + n as u64);
            let attrs = Attrs::new().with_int("transB", 1).with_float("beta", 0.5);
            assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&a, &bt, &c]);
        }
    }

    #[test]
    fn generic_rank_conv_interiors_cover_every_lane_width_and_stride_form() {
        // 1-D conv: width 23 forces 8-lane bundles, the 4-lane pass and a
        // scalar tail; pads exercise the border columns, strides > 1 the
        // gather load.
        let x1 = Tensor::random(Shape::new(vec![2, 3, 23]), 90);
        let w1 = Tensor::random(Shape::new(vec![4, 3, 3]), 91);
        let b1 = Tensor::random(Shape::new(vec![4]), 92);
        for attrs in [
            Attrs::new(),
            Attrs::new().with_ints("pads", vec![1, 1]),
            Attrs::new()
                .with_ints("strides", vec![2])
                .with_ints("pads", vec![2, 2]),
            Attrs::new().with_ints("dilations", vec![2]),
            Attrs::new().with_ints("pads", vec![9, 9]),
        ] {
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x1, &w1, &b1]);
        }
        // 3-D conv wide enough for full bundles, with out-of-bounds outer
        // (depth/height) taps so the uniform row-skip path really fires.
        let x3 = Tensor::random(Shape::new(vec![1, 2, 3, 4, 23]), 93);
        let w3 = Tensor::random(Shape::new(vec![3, 2, 2, 3, 3]), 94);
        for attrs in [
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
            Attrs::new()
                .with_ints("strides", vec![1, 1, 2])
                .with_ints("pads", vec![1, 2, 1, 1, 2, 1]),
            Attrs::new().with_ints("dilations", vec![2, 1, 2]),
        ] {
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x3, &w3]);
        }
        // Grouped 3-D conv takes the generic path with group offsets.
        let xg = Tensor::random(Shape::new(vec![1, 4, 3, 3, 17]), 95);
        let wg = Tensor::random(Shape::new(vec![4, 2, 2, 2, 3]), 96);
        let attrs = Attrs::new()
            .with_int("group", 2)
            .with_ints("pads", vec![0, 1, 1, 0, 1, 1]);
        assert_fast_matches_reference(OpKind::Conv, &attrs, &[&xg, &wg]);
    }

    #[test]
    fn pool_interiors_cover_every_lane_width_and_stride_form() {
        // 2-D pools wide enough for 8-lane bundles + 4-lane pass + scalar
        // tail; strides > 1 exercise the gather load, pads the borders.
        let x = Tensor::random(Shape::new(vec![1, 3, 5, 23]), 97);
        for attrs in [
            Attrs::new().with_ints("kernel_shape", vec![3, 3]),
            Attrs::new()
                .with_ints("kernel_shape", vec![3, 3])
                .with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 4])
                .with_ints("strides", vec![1, 2])
                .with_ints("pads", vec![1, 2, 1, 2]),
        ] {
            assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x]);
            assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x]);
            let include = attrs.clone().with_int("count_include_pad", 1);
            assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x]);
        }
        // 3-D pools through the generic odometer path, with padding so
        // outer-axis taps go out of bounds (the uniform row-skip).
        let x3 = Tensor::random(Shape::new(vec![1, 2, 3, 4, 21]), 98);
        for attrs in [
            Attrs::new().with_ints("kernel_shape", vec![2, 2, 3]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 3, 3])
                .with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 2, 2])
                .with_ints("strides", vec![2, 1, 2])
                .with_ints("pads", vec![0, 1, 1, 0, 1, 1]),
        ] {
            assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x3]);
            assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x3]);
            let include = attrs.clone().with_int("count_include_pad", 1);
            assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x3]);
        }
        // 1-D pooling also runs the generic path.
        let x1 = Tensor::random(Shape::new(vec![2, 3, 19]), 99);
        let attrs1 = Attrs::new()
            .with_ints("kernel_shape", vec![4])
            .with_ints("pads", vec![2, 2]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs1, &[&x1]);
        assert_fast_matches_reference(OpKind::AveragePool, &attrs1, &[&x1]);
    }

    #[test]
    fn global_average_pool_lane_splits_match_the_scalar_fold() {
        // 21 (n, c) outputs: two 8-lane bundles, one 4-lane pass, one scalar
        // remainder; each lane sums its own plane in the fold order.
        let x = Tensor::random(Shape::new(vec![3, 7, 4, 5]), 100);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x]);
        // Fewer outputs than a 4-lane bundle stay fully scalar.
        let small = Tensor::random(Shape::new(vec![1, 3, 2, 2]), 101);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&small]);
        // 5-D input: the spatial product covers all trailing axes.
        let x5 = Tensor::random(Shape::new(vec![2, 5, 2, 3, 4]), 102);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x5]);
    }

    #[test]
    fn large_conv_passes_the_default_work_gate_bit_identically() {
        // Big enough that WorkPool::new's default gate keeps the region
        // parallel — the production configuration, not just min_work = 0.
        let x = Tensor::random(Shape::new(vec![1, 8, 20, 20]), 26);
        let w = Tensor::random(Shape::new(vec![16, 8, 3, 3]), 27);
        let attrs = Attrs::new().with_ints("pads", vec![1, 1, 1, 1]);
        let out_shape = infer_shapes(
            OpKind::Conv,
            &attrs,
            &[x.shape().clone(), w.shape().clone()],
        )
        .unwrap()
        .remove(0);
        let mut serial = vec![0.0f32; out_shape.numel()];
        execute_fast_into(OpKind::Conv, &attrs, &[&x, &w], &out_shape, &mut serial).unwrap();
        let mut threaded = vec![0.0f32; out_shape.numel()];
        execute_fast_into_threaded(
            OpKind::Conv,
            &attrs,
            &[&x, &w],
            &out_shape,
            &mut threaded,
            WorkPool::new(4),
        )
        .unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn invalid_ranks_are_rejected_not_panicked() {
        let x = Tensor::random(Shape::new(vec![4]), 22);
        let w = Tensor::random(Shape::new(vec![4]), 23);
        let mut out = vec![0.0f32; 4];
        let shape = Shape::new(vec![4]);
        assert!(
            execute_fast_into(OpKind::Conv, &Attrs::new(), &[&x, &w], &shape, &mut out).is_err()
        );
        assert!(
            execute_fast_into(OpKind::MatMul, &Attrs::new(), &[&x, &w], &shape, &mut out).is_err()
        );
        assert!(
            execute_fast_into(OpKind::MaxPool, &Attrs::new(), &[&x], &shape, &mut out).is_err()
        );
    }
}
