//! Host facts recorded with every run: a memory-copy rate and a scalar
//! multiply-add rate (so per-op-kind rates can be read as a fraction of
//! what this host does, and a noisy host shows), the CPU time the
//! hypervisor stole during the run, plus peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Bytes copied per pass: well beyond a last-level cache.
const COPY_BYTES: usize = 32 << 20;
/// Independent multiply-add chains; enough to hide the add latency.
const CHAINS: usize = 16;

/// Copy rate in GB/s, counting each byte read and written once.
/// The best of a few passes over a 32 MiB buffer.
pub fn copy_gbps() -> f64 {
    let src = vec![1.0f32; COPY_BYTES / 4];
    let mut dst = vec![0.0f32; COPY_BYTES / 4];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * COPY_BYTES as f64 / best / 1e9
}

/// Multiply-add rate in GFLOP/s (two flops per multiply-add), with the
/// multiply and the add kept as separate instructions like the engine's
/// kernels (no fused multiply-add). The best of a few passes.
pub fn madd_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut acc = [0.5f32; CHAINS];
        let a = black_box(0.999_9f32);
        let b = black_box(1e-4f32);
        let t = Instant::now();
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = *x * a + b;
            }
        }
        black_box(&acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * (ITERS * CHAINS) as f64 / best / 1e9
}

/// CPU time stolen from this VM by the hypervisor so far, summed over
/// CPUs, in seconds (`steal` of `/proc/stat`'s `cpu` line, in the kernel's
/// fixed 100 ticks per second), or 0 where `/proc` is unavailable.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
