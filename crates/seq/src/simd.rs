//! Distance kernels: the portable integer paths and, behind runtime
//! feature detection, their SIMD counterparts.
//!
//! Both metrics of [`crate::dist`] are **integers**, so every kernel here
//! is exact under any evaluation order and the scalar and vector paths
//! agree bit for bit by construction (DESIGN.md §15.1):
//!
//! * **Hamming** — a mismatch count. `cmpeq` + `movemask` + popcount over
//!   16-byte (SSE2, the x86_64 baseline) or 32-byte (AVX2,
//!   runtime-detected) chunks. [`hamming_scan`] scores a whole candidate
//!   list through the 16-byte kernel with the dispatch decided once,
//!   outside the loop, and `popcnt` enabled.
//! * **MatrixDistance** — every table entry is a whole number of
//!   *half-units* (`MatrixDistance` builds them as `|a| + |b|` of integer
//!   scores), a window distance is the integer sum of its entries, and the
//!   `f32` a caller sees is that sum × 0.5 — exact below 2²⁴ half-units.
//!   [`matrix_sum_bounded`] is the per-pair kernel (8-residue spans, one
//!   early-abandon check per span). [`matrix_scan`] scores candidates
//!   **sixteen at a time**, one per byte lane: a 16×16 byte transpose
//!   turns sixteen windows into sixteen position columns, and each
//!   position costs two `pshufb` look-ups into the query residue's
//!   32-byte table row, a select on bit 4 of the candidate code, and one
//!   saturating `u8` add. A lane that saturates holds a true sum
//!   ≥ 255 half-units, which is over every bound the vector path accepts
//!   (`2·bound < 255`), so rejecting it is exact. Looser bounds — `∞`
//!   while a k-NN heap is still filling — take the per-pair integer
//!   kernel, as does any table that does not fit `u8` rows.
//!
//! What was measured and is *not* here: an eight-lane AVX2 `vgatherdps`
//! kernel over an `f32` table (1.7–2× slower than the scalar chain), a
//! 32-lane AVX2 variant of the byte kernel (no gain: the kernel is a
//! fifth of a search), and the integer sum without its early-abandon
//! check (12 % slower end to end). See DESIGN.md §15.1.
//!
//! `set_simd_enabled(false)` forces every dispatch back to the scalar
//! integer kernels — the oracle the vector paths are tested against.

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

/// Survivors-only Hamming scan: append `(j, count)` for every candidate
/// `j` whose mismatch count against `q` is `≤ bound`, in candidate order.
/// The kill switch and CPU features are consulted once per call, not once
/// per candidate, and the 16-byte kernel runs with `popcnt` where the CPU
/// has it.
///
/// # Panics
/// Panics if a candidate's length differs from the query's.
pub(crate) fn hamming_scan<'a>(
    q: &[u8],
    cands: impl Iterator<Item = &'a [u8]>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // Without the `popcnt` instruction `count_ones` is a dozen bit
        // operations per 16 bytes.
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: POPCNT was just detected at runtime.
            unsafe { x86::hamming_scan_popcnt(q, cands, bound, out) };
        } else {
            scan_counts(q, cands, bound, out, x86::hamming_sse2);
        }
        return;
    }
    scan_counts(q, cands, bound, out, hamming_scalar);
}

/// The loop every Hamming scan shares: length check, count, threshold.
#[inline(always)]
fn scan_counts<'a>(
    q: &[u8],
    cands: impl Iterator<Item = &'a [u8]>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
    count: impl Fn(&[u8], &[u8]) -> usize,
) {
    for (j, c) in cands.enumerate() {
        assert_eq!(q.len(), c.len(), "Hamming distance requires equal lengths");
        let d = count(q, c) as f32;
        if d <= bound {
            out.push((j as u32, d));
        }
    }
}

/// Half-unit sums at or above this are not exactly representable after
/// the `as f32` conversion, so no early-abandon decision is taken on them.
const EXACT_HALF_UNITS: f32 = 16_777_216.0; // 2^24

/// The largest half-unit sum a distance may reach and still be `≤ bound`,
/// for early-abandon decisions: `None` when nothing can qualify (negative
/// or NaN bound), `u64::MAX` when the bound is loose enough that integer
/// and `f32` comparison could disagree past 2²⁴ (the caller's final `f32`
/// check decides there). `sum/2 ≤ bound ⟺ sum ≤ ⌊2·bound⌋` for integer
/// `sum`, and doubling an `f32` is exact.
#[inline]
pub(crate) fn half_unit_limit(bound: f32) -> Option<u64> {
    let twice = bound * 2.0;
    if twice >= EXACT_HALF_UNITS {
        Some(u64::MAX)
    } else if twice >= 0.0 {
        Some(twice as u64) // truncation is ⌊·⌋ for a non-negative value
    } else {
        None
    }
}

/// Largest residue code in `w` (0 for an empty window).
#[inline]
fn max_code(w: &[u8]) -> u8 {
    w.iter().fold(0, |m, &b| m.max(b))
}

/// The one outcome every matrix kernel gives a residue code outside the
/// table: a panic, raised before any arithmetic so it does not depend on
/// where an early abandon would have stopped reading.
#[inline]
#[track_caller]
pub(crate) fn assert_codes_in_table(w: &[u8], n: usize) {
    assert_pair_in_table(w, w, n);
}

/// [`assert_codes_in_table`] for both windows of an equal-length pair in
/// one pass — it runs on every per-pair distance, so on x86_64 it is two
/// loads, a `pmaxub` and a saturating subtract per 16 residues.
#[inline]
#[track_caller]
pub(crate) fn assert_pair_in_table(a: &[u8], b: &[u8], n: usize) {
    debug_assert_eq!(a.len(), b.len());
    let Ok(letters) = u8::try_from(n) else {
        return; // 256 letters or more: every byte is a code
    };
    #[cfg(target_arch = "x86_64")]
    let outside = x86::any_byte_at_least(a, b, letters);
    #[cfg(not(target_arch = "x86_64"))]
    let outside = a.iter().chain(b).any(|&x| x >= letters);
    assert!(
        !outside,
        "residue code {} outside the {n}-letter distance table",
        max_code(a).max(max_code(b))
    );
}

/// Per-pair early-abandoning sum over a row-major `n × n` table of
/// half-units: `Some(sum)` unless a running sum — checked once per
/// 8-residue span and once at the end — exceeds `limit`. Callers have
/// checked lengths and codes.
#[inline]
pub(crate) fn matrix_sum_bounded(
    table: &[u32],
    n: usize,
    q: &[u8],
    c: &[u8],
    limit: u64,
) -> Option<u64> {
    const SPAN: usize = 8;
    let at = |x: u8, y: u8| u64::from(table[usize::from(x) * n + usize::from(y)]);
    let mut sum = 0u64;
    let (mut qs, mut cs) = (q.chunks_exact(SPAN), c.chunks_exact(SPAN));
    for (qx, cx) in (&mut qs).zip(&mut cs) {
        for i in 0..SPAN {
            sum += at(qx[i], cx[i]);
        }
        if sum > limit {
            return None;
        }
    }
    for (&x, &y) in qs.remainder().iter().zip(cs.remainder()) {
        sum += at(x, y);
    }
    (sum <= limit).then_some(sum)
}

/// The per-pair bounded matrix distance: checks, the early-abandoning
/// integer sum, and the `f32` a caller sees. `Some(d)` iff `d ≤ bound`.
///
/// # Panics
/// Panics if the windows differ in length or hold a residue code `≥ n`.
#[inline]
pub(crate) fn matrix_dist_bounded(
    table: &[u32],
    n: usize,
    a: &[u8],
    b: &[u8],
    bound: f32,
) -> Option<f32> {
    assert_eq!(a.len(), b.len(), "window distance requires equal lengths");
    assert_pair_in_table(a, b, n);
    let sum = matrix_sum_bounded(table, n, a, b, half_unit_limit(bound)?)?;
    let d = sum as f32 * 0.5;
    (d <= bound).then_some(d)
}

/// Bytes per row of the `u8` table the vector kernel reads: two 16-entry
/// `pshufb` tables, zero-padded past the alphabet.
pub(crate) const ROW_BYTES: usize = 32;

/// Survivors-only matrix scan: append `(j, sum × 0.5)` for every candidate
/// `j` whose half-unit sum against `q` is within `bound`, in candidate
/// order. `rows` is the zero-padded `u8` copy of `table`
/// ([`ROW_BYTES`] per residue), empty when the table has an entry over
/// 255 or more than 32 letters.
///
/// # Panics
/// Panics if a candidate's length differs from the query's, or if any
/// residue code of the query or a candidate is `≥ n` — on the vector and
/// the per-pair path alike.
pub(crate) fn matrix_scan<'a>(
    table: &[u32],
    rows: &[u8],
    n: usize,
    q: &[u8],
    cands: impl Iterator<Item = &'a [u8]>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(limit @ 0..=254) = half_unit_limit(bound) {
        if !rows.is_empty()
            && !q.is_empty()
            && simd_enabled()
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            debug_assert!(rows.len() == n * ROW_BYTES && n <= ROW_BYTES);
            assert_codes_in_table(q, n);
            // SAFETY: SSSE3 and SSE4.1 were detected on the lines above.
            unsafe { scan_x16(rows, n, q, cands, limit as u8, out) };
            return;
        }
    }
    let _ = rows;
    for (j, c) in cands.enumerate() {
        if let Some(d) = matrix_dist_bounded(table, n, q, c, bound) {
            out.push((j as u32, d));
        }
    }
}

/// The vector path of [`matrix_scan`]: candidates in groups of sixteen, a
/// short last group padded with repeats of its first window (those lanes
/// are masked off). `limit` is in half-units and below 255, so a
/// saturated lane is over it.
///
/// # Safety
/// The caller must have verified SSSE3 and SSE4.1 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn scan_x16<'a>(
    rows: &[u8],
    n: usize,
    q: &[u8],
    mut cands: impl Iterator<Item = &'a [u8]>,
    limit: u8,
    out: &mut Vec<(u32, f32)>,
) {
    let mut base = 0usize;
    loop {
        let mut group: [&[u8]; 16] = [&[]; 16];
        let mut k = 0;
        for (slot, c) in group.iter_mut().zip(&mut cands) {
            assert_eq!(q.len(), c.len(), "window distance requires equal lengths");
            *slot = c;
            k += 1;
        }
        if k == 0 {
            return;
        }
        let first = group[0];
        group[k..].fill(first);
        let mut sums = [0u8; 16];
        // SAFETY: SSSE3 and SSE4.1 are this function's own precondition;
        // the kernel bounds-checks every window and row slice it loads
        // from.
        let (within, max_code) = unsafe { x86::matrix_sums_x16(rows, q, &group, limit, &mut sums) };
        assert!(
            usize::from(max_code) < n,
            "residue code {max_code} outside the {n}-letter distance table"
        );
        let mut live = within & ((1u32 << k) - 1);
        while live != 0 {
            let j = live.trailing_zeros() as usize;
            out.push(((base + j) as u32, f32::from(sums[j]) * 0.5));
            live &= live - 1;
        }
        base += k;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ROW_BYTES;
    use core::arch::x86_64::*;

    /// True when any of the first `min(a.len(), b.len())` bytes of `a` or
    /// `b` is `≥ floor`. SSE2 is part of the x86_64 baseline, so no
    /// runtime check is needed.
    #[inline]
    pub(super) fn any_byte_at_least(a: &[u8], b: &[u8], floor: u8) -> bool {
        let Some(top) = floor.checked_sub(1) else {
            return !(a.is_empty() || b.is_empty());
        };
        let len = a.len().min(b.len());
        let mut i = 0;
        // SAFETY: SSE2 is statically available on x86_64; every load is
        // 16 bytes at `i` with `i + 16 <= len`, and `len` is at most
        // either slice's length.
        let mut over = unsafe {
            let top = _mm_set1_epi8(top as i8);
            let mut excess = _mm_setzero_si128();
            while i + 16 <= len {
                let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
                // Saturating `x − top` is non-zero exactly where x > top.
                excess = _mm_or_si128(excess, _mm_subs_epu8(_mm_max_epu8(va, vb), top));
                i += 16;
            }
            _mm_movemask_epi8(_mm_cmpeq_epi8(excess, _mm_setzero_si128())) != 0xFFFF
        };
        while i < len {
            over |= a[i].max(b[i]) > top;
            i += 1;
        }
        over
    }

    /// 16-byte SSE2 mismatch count. SSE2 is part of the x86_64 baseline,
    /// so no runtime check is needed.
    #[inline]
    pub(super) fn hamming_sse2(a: &[u8], b: &[u8]) -> usize {
        let len = a.len().min(b.len());
        let mut total = 0usize;
        let mut i = 0;
        while i + 16 <= len {
            // SAFETY: `i + 16 <= len`, and `len` is at most either
            // slice's length, so both unaligned 16-byte loads are in
            // bounds; SSE2 is statically available on x86_64.
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
        let len = a.len().min(b.len());
        let mut total = 0usize;
        let mut i = 0;
        while i + 32 <= len {
            // SAFETY: `i + 32 <= len`, and `len` is at most either
            // slice's length, so both unaligned 32-byte loads are in
            // bounds; AVX2 is the caller's obligation.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i),
                    _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i),
                )
            };
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32;
            total += 32 - eq.count_ones() as usize;
            i += 32;
        }
        if i < len {
            total += hamming_sse2(&a[i..len], &b[i..len]);
        }
        total
    }

    /// [`super::hamming_scan`]'s loop compiled with POPCNT enabled: the
    /// 16-byte kernel inlines into it and its `count_ones` becomes one
    /// instruction.
    ///
    /// # Safety
    /// The caller must have verified POPCNT support at runtime.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn hamming_scan_popcnt<'a>(
        q: &[u8],
        cands: impl Iterator<Item = &'a [u8]>,
        bound: f32,
        out: &mut Vec<(u32, f32)>,
    ) {
        super::scan_counts(q, cands, bound, out, hamming_sse2);
    }

    /// Transpose sixteen 16-byte rows: `out[p]` byte `j` is `rows[j]`
    /// byte `p`. Four rounds of interleaves (8-, 16-, 32-, 64-bit).
    ///
    /// # Safety
    /// Uses SSE2 interleaves only, which x86_64 always has; it carries
    /// [`matrix_sums_x16`]'s features (and so its `unsafe`) to inline
    /// into it.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    unsafe fn transpose_16x16(r: [__m128i; 16]) -> [__m128i; 16] {
        let z = _mm_setzero_si128();
        // Round 1: t[2i], t[2i+1] = low/high halves of rows 2i, 2i+1
        // interleaved bytewise — 2 candidates per position.
        let mut t = [z; 16];
        for i in 0..8 {
            t[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
        }
        // Round 2: 4 candidates per position; u[4g + s] covers candidates
        // 4g..4g+4 at positions 4s..4s+4.
        let mut u = [z; 16];
        for g in 0..4 {
            u[4 * g] = _mm_unpacklo_epi16(t[4 * g], t[4 * g + 2]);
            u[4 * g + 1] = _mm_unpackhi_epi16(t[4 * g], t[4 * g + 2]);
            u[4 * g + 2] = _mm_unpacklo_epi16(t[4 * g + 1], t[4 * g + 3]);
            u[4 * g + 3] = _mm_unpackhi_epi16(t[4 * g + 1], t[4 * g + 3]);
        }
        // Round 3: 8 candidates per position; v[8h + s] covers candidates
        // 8h..8h+8 at positions 2s, 2s+1.
        let mut v = [z; 16];
        for h in 0..2 {
            for s in 0..4 {
                v[8 * h + 2 * s] = _mm_unpacklo_epi32(u[8 * h + s], u[8 * h + 4 + s]);
                v[8 * h + 2 * s + 1] = _mm_unpackhi_epi32(u[8 * h + s], u[8 * h + 4 + s]);
            }
        }
        // Round 4: all 16 candidates of one position per vector.
        let mut out = [z; 16];
        for s in 0..8 {
            out[2 * s] = _mm_unpacklo_epi64(v[s], v[8 + s]);
            out[2 * s + 1] = _mm_unpackhi_epi64(v[s], v[8 + s]);
        }
        out
    }

    /// Score sixteen candidate windows against `q` at once, one per byte
    /// lane, in saturating `u8` half-units. Writes the lane sums to
    /// `sums` and returns `(within, max_code)`: bit `j` of `within` is
    /// set iff lane `j`'s sum is `≤ limit`, and `max_code` is the largest
    /// candidate residue code seen (the caller rejects codes outside the
    /// table). Windows longer than 16 run in 16-position tiles; a final
    /// short tile is copied into a zeroed buffer, so no load reads past a
    /// window.
    ///
    /// For the sums to mean anything `limit` must be `< 255` (a saturated
    /// lane must be over it) and `rows` must be the `ROW_BYTES`-strided
    /// `u8` table.
    ///
    /// # Panics
    /// Panics if a window is shorter than `q` or a query code has no row.
    ///
    /// # Safety
    /// The caller must have verified SSSE3 and SSE4.1 at runtime. Memory
    /// safety needs nothing else: every load is from a bounds-checked
    /// slice or a local buffer.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn matrix_sums_x16(
        rows: &[u8],
        q: &[u8],
        c: &[&[u8]; 16],
        limit: u8,
        sums: &mut [u8; 16],
    ) -> (u32, u8) {
        let len = q.len();
        let lim = _mm_set1_epi8(limit as i8);
        let mut acc = _mm_setzero_si128();
        let mut seen = _mm_setzero_si128();
        let mut pos = 0;
        while pos < len {
            let width = (len - pos).min(16);
            let mut tile = [_mm_setzero_si128(); 16];
            for (slot, cand) in tile.iter_mut().zip(c) {
                let src = &cand[pos..pos + width];
                *slot = if width == 16 {
                    // SAFETY: `src` is a bounds-checked 16-byte slice.
                    unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) }
                } else {
                    let mut buf = [0u8; 16];
                    buf[..width].copy_from_slice(src);
                    // SAFETY: `buf` is a 16-byte local.
                    unsafe { _mm_loadu_si128(buf.as_ptr() as *const __m128i) }
                };
            }
            // SAFETY: same target features as this function.
            let cols = unsafe { transpose_16x16(tile) };
            for (&x, &col) in q[pos..pos + width].iter().zip(&cols) {
                let row = &rows[usize::from(x) * ROW_BYTES..][..ROW_BYTES];
                // SAFETY: `row` is a bounds-checked 32-byte slice: both
                // 16-byte loads are inside it.
                let (lo, hi) = unsafe {
                    (
                        _mm_loadu_si128(row.as_ptr() as *const __m128i),
                        _mm_loadu_si128(row.as_ptr().add(16) as *const __m128i),
                    )
                };
                seen = _mm_max_epu8(seen, col);
                // `pshufb` indexes by the low four bits; bit 4 of the
                // code (moved to each byte's sign bit) picks the table.
                let upper = _mm_slli_epi16(col, 3);
                let cost =
                    _mm_blendv_epi8(_mm_shuffle_epi8(lo, col), _mm_shuffle_epi8(hi, col), upper);
                acc = _mm_adds_epu8(acc, cost);
            }
            pos += width;
        }
        // SAFETY: `sums` and `codes` are 16-byte buffers.
        let mut codes = [0u8; 16];
        unsafe {
            _mm_storeu_si128(sums.as_mut_ptr() as *mut __m128i, acc);
            _mm_storeu_si128(codes.as_mut_ptr() as *mut __m128i, seen);
        }
        (within_mask(acc, lim), super::max_code(&codes))
    }

    /// Bit `j` set iff unsigned byte lane `j` of `acc` is `≤` that of `lim`.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    unsafe fn within_mask(acc: __m128i, lim: __m128i) -> u32 {
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_min_epu8(acc, lim), acc)) as u32
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
            let cands: Vec<Vec<u8>> = (0..9).map(|j| windows(len, 4, 31 * j).0).collect();
            for bound in [0.0, want as f32, f32::INFINITY] {
                let mut got = Vec::new();
                hamming_scan(&a, cands.iter().map(Vec::as_slice), bound, &mut got);
                let want: Vec<(u32, f32)> = (0u32..)
                    .zip(&cands)
                    .map(|(j, c)| (j, hamming_scalar(&a, c) as f32))
                    .filter(|&(_, d)| d <= bound)
                    .collect();
                assert_eq!(got, want, "len {len} bound {bound}");
            }
        }
    }

    #[test]
    fn half_unit_limit_is_the_floor_of_twice_the_bound() {
        assert_eq!(half_unit_limit(0.0), Some(0));
        assert_eq!(half_unit_limit(-0.0), Some(0));
        assert_eq!(half_unit_limit(0.49), Some(0));
        assert_eq!(half_unit_limit(0.5), Some(1));
        assert_eq!(half_unit_limit(127.0), Some(254));
        assert_eq!(half_unit_limit(127.49), Some(254));
        assert_eq!(half_unit_limit(127.5), Some(255));
        assert_eq!(half_unit_limit(8_388_607.5), Some(16_777_215));
        assert_eq!(half_unit_limit(8_388_608.0), Some(u64::MAX));
        assert_eq!(half_unit_limit(f32::INFINITY), Some(u64::MAX));
        assert_eq!(half_unit_limit(-0.5), None);
        assert_eq!(half_unit_limit(f32::NAN), None);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sixteen_lane_kernel_matches_the_per_pair_sum() {
        if !(std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        {
            return;
        }
        // Direct kernel test (no global toggle): a 24-letter table with
        // entries that make some lanes saturate, every tile shape.
        let n = 24usize;
        let table: Vec<u32> = (0..n * n)
            .map(|i| {
                if i / n == i % n {
                    0
                } else {
                    (i * 7 % 27) as u32
                }
            })
            .collect();
        let mut rows = vec![0u8; n * ROW_BYTES];
        for x in 0..n {
            for y in 0..n {
                rows[x * ROW_BYTES + y] = table[x * n + y] as u8;
            }
        }
        for len in [1usize, 5, 15, 16, 17, 31, 32, 40, 48] {
            let (q, _) = windows(len, n, 900 + len as u32);
            let cands: Vec<Vec<u8>> = (0..16).map(|j| windows(len, n, 77 * j + 1).0).collect();
            let mut group: [&[u8]; 16] = [&[]; 16];
            for (slot, c) in group.iter_mut().zip(&cands) {
                *slot = c;
            }
            for limit in [0u8, 40, 200, 254] {
                let mut sums = [0u8; 16];
                // SAFETY: features detected above; lengths equal by
                // construction; rows built for n with all codes < n.
                let (within, max_code) =
                    unsafe { x86::matrix_sums_x16(&rows, &q, &group, limit, &mut sums) };
                assert!(usize::from(max_code) < n);
                for (j, c) in cands.iter().enumerate() {
                    let exact = matrix_sum_bounded(&table, n, &q, c, u64::MAX)
                        .expect("no limit, no abandon");
                    let ok = within & (1 << j) != 0;
                    assert_eq!(ok, exact <= u64::from(limit), "len {len} lane {j}");
                    if ok {
                        assert_eq!(u64::from(sums[j]), exact, "len {len} lane {j}");
                    }
                }
            }
        }
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
}
