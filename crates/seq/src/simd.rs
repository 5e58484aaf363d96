//! Explicit SIMD distance kernels behind runtime feature detection.
//!
//! Two kernels live here, both slotted behind the [`crate::Metric`]
//! contract (DESIGN.md §15) so every caller keeps bit-identical results:
//!
//! * **Hamming** — byte-compare kernels over 16-byte (SSE2, the x86_64
//!   baseline) or 32-byte (AVX2, runtime-detected) chunks using
//!   `cmpeq` + `movemask` + popcount. The result is an integer mismatch
//!   count, so any chunking is exact; no floating-point order concerns.
//! * **MatrixDistance, multi-candidate** — the L1 window sum is a
//!   *serial* f32 dependency chain (`Sum<f32>` order, seeded at `-0.0`)
//!   that must not be reassociated, so within-pair vectorization is
//!   ruled out. Instead the kernel parallelizes *across candidates*:
//!   each lane owns one candidate window and accumulates
//!   `table[q[pos] * n + c[pos]]` in strict position order — exactly the
//!   per-pair chain. The production dispatch runs four independent
//!   scalar accumulation chains (instruction-level parallelism breaks
//!   the 4-cycle add-latency chain the serial kernel is bound by). An
//!   eight-lane AVX2 `vgatherdps` variant was measured, rejected and
//!   removed: the gather ran 1.7–2× *slower* than the serial chain
//!   (`vgatherdps` decodes to per-lane loads without the early-abandon
//!   asymmetry win; DESIGN.md §15.1). A periodic all-lanes-over-bound
//!   check keeps the early-abandoning behaviour of the scalar bounded
//!   kernel: since residue distances are non-negative the partial sums
//!   are monotone, so once every lane exceeds the bound every final
//!   distance would too, and `None` for all lanes is exact.
//!
//! The `set_simd_enabled(false)` switch forces every dispatch back to
//! the scalar kernels; `kernel_bench` uses it for the scalar-vs-SIMD
//! ablation and CI asserts both paths agree bit-for-bit.

use std::sync::atomic::{AtomicBool, Ordering};

/// Global kill switch for the vectorized kernels (benchmark ablations,
/// CI agreement checks). Defaults to enabled.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// True when SIMD dispatch is enabled (the default).
#[inline]
pub fn simd_enabled() -> bool {
    // audit:ordering(Relaxed): independent on/off flag read on the hot path; no other memory is published through it and both settings compute bit-identical results
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the SIMD kernels process-wide; returns the
/// previous setting. Both settings are bit-identical — this exists for
/// ablation benchmarks and the CI agreement check.
pub fn set_simd_enabled(on: bool) -> bool {
    // audit:ordering(Relaxed): flag flip for ablations; the only reader is the dispatch check above and either value is correct
    SIMD_ENABLED.swap(on, Ordering::Relaxed)
}

/// Name of the widest kernel the running CPU dispatches to, honouring
/// the kill switch. Reported by benches and `mendel metrics`.
pub fn active_kernel() -> &'static str {
    if !simd_enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Hamming mismatch count with SIMD dispatch. Exact — the count is an
/// integer, so the chunked kernels agree with the scalar loop on every
/// input.
///
/// # Panics
/// Panics if the slices have different lengths (same contract as
/// [`crate::Hamming::count`]).
#[inline]
pub fn hamming_count(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "Hamming distance requires equal lengths");
    if !simd_enabled() {
        return hamming_scalar(a, b);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just checked at runtime.
            return unsafe { x86::hamming_avx2(a, b) };
        }
        return x86::hamming_sse2(a, b);
    }
    #[cfg(not(target_arch = "x86_64"))]
    hamming_scalar(a, b)
}

/// Portable scalar mismatch count (the pre-SIMD kernel).
#[inline]
pub(crate) fn hamming_scalar(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Multi-candidate bounded L1 matrix kernel: for each candidate window
/// `cands[j]`, compute `sum_pos table[q[pos] * n + cands[j][pos]]` in
/// strict position order (seeded at `-0.0`, the `iter::Sum<f32>` fold)
/// and report `Some(sum)` iff `sum <= bound`. Appends one result per
/// candidate to `out`.
///
/// `table` is the row-major `n × n` residue table. Falls back to the
/// per-pair scalar kernel when SIMD is disabled, when a residue code is
/// out of table range (preserving the scalar panic-on-garbage
/// behaviour), or on non-x86_64 targets without the ILP win.
///
/// # Panics
/// Panics if any candidate length differs from the query length, or if
/// a residue code indexes outside the table (both identical to the
/// scalar kernel's behaviour).
pub(crate) fn matrix_dist_bounded_many(
    table: &[f32],
    n: usize,
    q: &[u8],
    cands: &[&[u8]],
    bound: f32,
    out: &mut Vec<Option<f32>>,
) {
    debug_assert_eq!(table.len(), n * n);
    for c in cands {
        assert_eq!(q.len(), c.len(), "window distance requires equal lengths");
    }
    if !simd_enabled() || q.is_empty() || !codes_in_range(q, n) {
        scalar_tail(table, n, q, cands, bound, out);
        return;
    }
    let mut rest = cands;
    // Four independent scalar accumulation chains: same per-lane f32
    // order as the serial kernel, ~4× the instruction-level parallelism.
    while rest.len() >= 4 {
        let (head, tail) = rest.split_at(4);
        let group: [&[u8]; 4] = [head[0], head[1], head[2], head[3]];
        let sums = matrix_sums_ilp_x4(table, n, q, &group, bound);
        out.extend(sums.iter().map(|&s| (s <= bound).then_some(s)));
        rest = tail;
    }
    scalar_tail(table, n, q, rest, bound, out);
}

/// Per-pair scalar bounded kernel over a candidate slice — byte-for-byte
/// the `MatrixDistance::dist_bounded` loop, used for remainders and
/// fallback.
fn scalar_tail(
    table: &[f32],
    n: usize,
    q: &[u8],
    cands: &[&[u8]],
    bound: f32,
    out: &mut Vec<Option<f32>>,
) {
    for c in cands {
        out.push(matrix_sum_scalar(table, n, q, c, bound));
    }
}

/// The scalar early-abandoning kernel (8-unrolled, strict left-to-right,
/// `-0.0` seed — see `MatrixDistance::dist_bounded`).
pub(crate) fn matrix_sum_scalar(
    table: &[f32],
    n: usize,
    q: &[u8],
    c: &[u8],
    bound: f32,
) -> Option<f32> {
    const LANE: usize = 8;
    let len = q.len();
    let at = |x: u8, y: u8| table[x as usize * n + y as usize];
    let mut sum = -0.0f32;
    let mut i = 0;
    while i + LANE <= len {
        sum += at(q[i], c[i]);
        sum += at(q[i + 1], c[i + 1]);
        sum += at(q[i + 2], c[i + 2]);
        sum += at(q[i + 3], c[i + 3]);
        sum += at(q[i + 4], c[i + 4]);
        sum += at(q[i + 5], c[i + 5]);
        sum += at(q[i + 6], c[i + 6]);
        sum += at(q[i + 7], c[i + 7]);
        if sum > bound {
            return None;
        }
        i += LANE;
    }
    while i < len {
        sum += at(q[i], c[i]);
        i += 1;
    }
    (sum <= bound).then_some(sum)
}

/// True when every residue code indexes inside an `n × n` table.
#[inline]
fn codes_in_range(w: &[u8], n: usize) -> bool {
    w.iter().all(|&b| (b as usize) < n)
}

/// Four-lane scalar kernel: one independent accumulator per candidate,
/// each advancing in strict position order. Every 16 positions, if all
/// four partial sums exceed the bound the remaining positions are
/// skipped — monotone sums make the all-`None` verdict exact.
fn matrix_sums_ilp_x4(table: &[f32], n: usize, q: &[u8], c: &[&[u8]; 4], bound: f32) -> [f32; 4] {
    const CHECK: usize = 16;
    let at = |x: u8, y: u8| table[x as usize * n + y as usize];
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
    let len = q.len();
    let mut i = 0;
    while i + CHECK <= len {
        for pos in i..i + CHECK {
            let x = q[pos];
            s0 += at(x, c[0][pos]);
            s1 += at(x, c[1][pos]);
            s2 += at(x, c[2][pos]);
            s3 += at(x, c[3][pos]);
        }
        if s0 > bound && s1 > bound && s2 > bound && s3 > bound {
            return [f32::INFINITY; 4];
        }
        i += CHECK;
    }
    while i < len {
        let x = q[i];
        s0 += at(x, c[0][i]);
        s1 += at(x, c[1][i]);
        s2 += at(x, c[2][i]);
        s3 += at(x, c[3][i]);
        i += 1;
    }
    [s0, s1, s2, s3]
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// 16-byte SSE2 mismatch count. SSE2 is part of the x86_64 baseline,
    /// so no runtime check is needed.
    pub(super) fn hamming_sse2(a: &[u8], b: &[u8]) -> usize {
        let len = a.len();
        let mut total = 0usize;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len` bounds both unaligned 16-byte
            // loads; SSE2 is statically available on x86_64.
            unsafe {
                let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
                let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32;
                total += 16 - (eq & 0xFFFF).count_ones() as usize;
            }
            i += 16;
        }
        while i < len {
            total += usize::from(a[i] != b[i]);
            i += 1;
        }
        total
    }

    /// 32-byte AVX2 mismatch count.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hamming_avx2(a: &[u8], b: &[u8]) -> usize {
        let len = a.len();
        let mut total = 0usize;
        let mut i = 0;
        while i + 32 <= len {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32;
            total += 32 - eq.count_ones() as usize;
            i += 32;
        }
        if i < len {
            total += hamming_sse2(&a[i..], &b[i..]);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(len: usize, n: usize, seed: u32) -> (Vec<u8>, Vec<u8>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) as usize % n) as u8
        };
        let a: Vec<u8> = (0..len).map(|_| next()).collect();
        let b: Vec<u8> = (0..len).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn hamming_kernels_agree_with_scalar() {
        // Exercise the vector kernels directly (no global toggling, so
        // tests never race on the process-wide switch) across lengths
        // hitting every chunk boundary and remainder.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 100] {
            let (a, b) = windows(len, 4, 0xBEEF ^ len as u32);
            let want = hamming_scalar(&a, &b);
            assert_eq!(hamming_count(&a, &b), want, "len {len}");
            #[cfg(target_arch = "x86_64")]
            {
                assert_eq!(x86::hamming_sse2(&a, &b), want, "len {len} sse2");
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 presence just checked.
                    assert_eq!(unsafe { x86::hamming_avx2(&a, &b) }, want, "len {len} avx2");
                }
            }
        }
    }

    #[test]
    fn multi_candidate_kernel_is_bit_identical_to_scalar() {
        // n = 24 mimics the protein table; random tables exercise real
        // f32 rounding so bit-identity is meaningful.
        let n = 24usize;
        let mut state = 0xACE1u32;
        let mut nextf = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 16) as f32 / 7001.0
        };
        let mut table = vec![0.0f32; n * n];
        for (i, v) in table.iter_mut().enumerate() {
            *v = if i / n == i % n { 0.0 } else { nextf() };
        }
        for len in [1usize, 7, 8, 16, 23, 64] {
            let (q, _) = windows(len, n, 77 + len as u32);
            let cands: Vec<Vec<u8>> = (0..13).map(|j| windows(len, n, 1000 + j).0).collect();
            let refs: Vec<&[u8]> = cands.iter().map(|c| c.as_slice()).collect();
            let exact: Vec<f32> = refs
                .iter()
                .map(|c| {
                    q.iter()
                        .zip(c.iter())
                        .map(|(&x, &y)| table[x as usize * n + y as usize])
                        .sum()
                })
                .collect();
            for bound in [0.0, exact[0] * 0.5, exact[0], f32::INFINITY] {
                let mut out = Vec::new();
                matrix_dist_bounded_many(&table, n, &q, &refs, bound, &mut out);
                assert_eq!(out.len(), refs.len());
                for (j, res) in out.iter().enumerate() {
                    match res {
                        Some(d) => {
                            assert_eq!(d.to_bits(), exact[j].to_bits(), "len {len} cand {j}");
                            assert!(*d <= bound);
                        }
                        None => assert!(exact[j] > bound, "len {len} cand {j} bound {bound}"),
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_codes_fall_back_to_scalar_panic_path() {
        let n = 4usize;
        let table = vec![0.0f32; n * n];
        let q = vec![1u8, 2];
        let bad = vec![9u8, 9];
        let refs: Vec<&[u8]> = vec![&bad];
        let caught = std::panic::catch_unwind(|| {
            let mut out = Vec::new();
            matrix_dist_bounded_many(&table, n, &q, &refs, f32::INFINITY, &mut out);
        });
        assert!(caught.is_err(), "out-of-range code must panic like scalar");
    }

    #[test]
    fn toggle_reports_previous_state() {
        // The only test that flips the global switch; every other test
        // asserts values that are identical under either dispatch.
        let prev = set_simd_enabled(false);
        assert_eq!(active_kernel(), "scalar");
        assert!(!set_simd_enabled(prev));
        assert!(matches!(active_kernel(), "avx2" | "sse2" | "scalar"));
    }

    #[test]
    fn ilp_lanes_match_serial_chains() {
        let n = 8usize;
        let mut table = vec![0.0f32; n * n];
        for (i, v) in table.iter_mut().enumerate() {
            *v = if i / n == i % n {
                0.0
            } else {
                (i as f32).sqrt() / 3.0
            };
        }
        let (q, _) = windows(29, n, 5);
        let cands: Vec<Vec<u8>> = (0..4).map(|j| windows(29, n, 60 + j).0).collect();
        let group: [&[u8]; 4] = [&cands[0], &cands[1], &cands[2], &cands[3]];
        let sums = matrix_sums_ilp_x4(&table, n, &q, &group, f32::INFINITY);
        for (j, c) in group.iter().enumerate() {
            let serial = matrix_sum_scalar(&table, n, &q, c, f32::INFINITY).unwrap();
            assert_eq!(sums[j].to_bits(), serial.to_bits(), "lane {j}");
        }
    }
}
