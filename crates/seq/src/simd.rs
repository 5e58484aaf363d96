//! Distance kernels: the portable integer paths and, behind runtime
//! feature detection, their SIMD counterparts. Each metric has one
//! per-pair kernel and one lane kernel, which scores one lane group of up
//! to sixteen windows ([`crate::lanes`]) per call: a vp-tree's leaf scans
//! and its build scans both run it (DESIGN.md §15.1).
//!
//! Both metrics of [`crate::dist`] are **integers**, so every kernel here
//! is exact under any evaluation order and the scalar and vector paths
//! agree bit for bit by construction:
//!
//! * **Hamming** — a mismatch count. Per pair, `cmpeq` + `movemask` +
//!   popcount over 16-byte chunks (SSE2, the x86_64 baseline). Per lane
//!   group, one `cmpeq` per position counts all sixteen lanes' matches
//!   (SSSE3, windows of at most 255 residues).
//! * **MatrixDistance** — every table entry is a whole number of
//!   *half-units* (`MatrixDistance` builds them as `|a| + |b|` of integer
//!   scores), a window distance is the integer sum of its entries, and the
//!   `f32` a caller sees is that sum × 0.5 — exact below 2²⁴ half-units.
//!   `matrix_sum_bounded` is the per-pair kernel (8-residue spans, one
//!   early-abandon check per span). `matrix_scan_lanes` scores a lane
//!   group **sixteen windows at a time**, one per lane: each position
//!   costs one column load, two `pshufb` look-ups into the query residue's
//!   32-byte table row, a select on bit 4 of the candidate code, and one
//!   saturating add. Bounds under 127.5 (`2·bound < 255`) add in `u8`
//!   lanes: a lane that saturates holds a true sum ≥ 255 half-units, over
//!   every such bound, so rejecting it is exact. Looser bounds — `∞` while
//!   a k-NN heap is still filling, and every vp-tree build scan — add in
//!   `u16` lanes through the same look-ups; a `u16` lane that saturates
//!   (≥ 65,535 half-units) is rejected under a smaller limit and scored
//!   per pair otherwise. A table that does not fit `u8` rows takes the
//!   per-pair integer kernel.
//!
//! What was measured and is *not* here: an eight-lane AVX2 `vgatherdps`
//! kernel over an `f32` table (1.7–2× slower than the scalar chain), a
//! 32-lane AVX2 variant of the byte kernel (no gain: the kernel is a
//! fifth of a search), a 32-byte AVX2 Hamming kernel (served DNA blocks
//! are 16 residues, so its 32-byte loop never ran), and the integer sum
//! without its early-abandon check (12 % slower end to end). See
//! DESIGN.md §15.1.
//!
//! `set_simd_enabled(false)` forces every dispatch back to the scalar
//! integer kernels — the oracle the vector paths are tested against —
//! and takes `mendel-align`'s gapped extension off its `i16` lanes too.

use crate::lanes::LaneGroup;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global kill switch for the vectorized kernels — these distance
/// kernels and `mendel-align`'s gapped-extension lanes (benchmark
/// ablations, CI agreement checks). Defaults to enabled.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// True when SIMD dispatch is enabled (the default).
#[inline]
pub fn simd_enabled() -> bool {
    // audit:ordering(Relaxed): independent on/off flag read on the hot path; no other memory is published through it and both settings compute bit-identical results
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the SIMD kernels process-wide; returns the
/// previous setting. Both settings are bit-identical — this exists for
/// the CI agreement check.
// audit:allow(unreached): the kill switch tests/batch.rs's simd_kill_switch_leaves_cluster_hits_identical flips
pub fn set_simd_enabled(on: bool) -> bool {
    // audit:ordering(Relaxed): flag flip for ablations; the only reader is the dispatch check above and either value is correct
    SIMD_ENABLED.swap(on, Ordering::Relaxed)
}

/// Name of the widest kernel the running CPU dispatches to, honouring
/// the kill switch: `sse4.1` when the sixteen-lane matrix scan and
/// `mendel-align`'s `i16` gapped-extension lanes can run, else `sse2`
/// (the gapped extension then runs scalar). The kill switch covers both:
/// `scalar` means every distance and gapped kernel runs its scalar path.
/// Reported by benches and `/healthz?verbose=1`.
pub fn active_kernel() -> &'static str {
    if !simd_enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            "sse4.1"
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
        x86::hamming_sse2(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        hamming_scalar(a, b)
    }
}

/// Portable scalar mismatch count (the pre-SIMD kernel).
#[inline]
pub(crate) fn hamming_scalar(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
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
        // Truncation is ⌊·⌋ for a non-negative value, and one below 2²⁴
        // fits a `u32`, whose conversion is one instruction where a
        // `u64`'s takes a range fix-up.
        Some(u64::from(twice as u32))
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

/// The matrix lane kernel, over one lane-major group of a leaf
/// ([`crate::lanes`]): append `(j, sum × 0.5)` for each of the group's first `live` windows
/// within `bound`. The vector path loads one column per position; the
/// per-pair path copies each window out ([`crate::lanes::scan_per_pair`]).
///
/// # Panics
/// Panics if the group is malformed ([`LaneGroup::check`]) or a residue
/// code of the query or of a live window is `≥ n`, on every path.
pub(crate) fn matrix_scan_lanes(
    table: &[u32],
    rows: &[u8],
    n: usize,
    q: &[u8],
    group: LaneGroup<'_>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
) {
    group.check(q.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(wide) = lane_width(rows, n, q, bound) {
        assert_codes_in_table(q, n);
        // SAFETY: `lane_width` detected SSSE3 and SSE4.1 and found a row
        // for each of the `n` letters, which every query code is below.
        unsafe {
            if wide {
                lanes_x16::<true>(table, rows, n, q, group, bound, out);
            } else {
                lanes_x16::<false>(table, rows, n, q, group, bound, out);
            }
        }
        return;
    }
    let _ = rows;
    crate::lanes::scan_per_pair(q, group, bound, out, |q, c, bound| {
        matrix_dist_bounded(table, n, q, c, bound)
    });
}

/// Which lanes the vector matrix kernel takes for `bound` — `u8`
/// (`Some(false)`) under 127.5, `u16` (`Some(true)`) from there to `∞` —
/// or `None` when it cannot run: no `u8` row for each of the `n` letters
/// (the kernel's unchecked row loads rely on one), an empty query, a
/// negative or NaN bound, SIMD switched off, or a CPU without SSSE3 and
/// SSE4.1.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lane_width(rows: &[u8], n: usize, q: &[u8], bound: f32) -> Option<bool> {
    let limit = half_unit_limit(bound)?;
    let ready = (1..=ROW_BYTES).contains(&n)
        && rows.len() == n * ROW_BYTES
        && !q.is_empty()
        && simd_enabled()
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    ready.then_some(limit >= 255)
}

/// The vector path of [`matrix_scan_lanes`]: one kernel call per group,
/// the lanes past `live` masked off. Narrow (`u8`) lanes take limits
/// below 255, so a lane that saturates is over the limit; a wide (`u16`)
/// lane that saturates holds at least 65,535 half-units and is scored per
/// pair when the limit reaches that.
///
/// # Safety
/// The caller must have verified SSSE3 and SSE4.1 support at runtime, and
/// that every code of `q` has a row of `rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn lanes_x16<const WIDE: bool>(
    table: &[u32],
    rows: &[u8],
    n: usize,
    q: &[u8],
    group: LaneGroup<'_>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
) {
    let Some(limit) = half_unit_limit(bound) else {
        return;
    };
    let saturated = if WIDE { u16::MAX } else { u16::from(u8::MAX) };
    debug_assert!(WIDE || limit < u64::from(saturated));
    let lane_limit = limit.min(u64::from(saturated)) as u16;
    let mut sums = [0u16; 16];
    // SAFETY: SSSE3, SSE4.1 and a row per query code are this function's
    // own precondition; the kernel keeps every column load inside the
    // group's bytes.
    let (within, outside) = unsafe {
        x86::matrix_sums_lanes::<WIDE>(rows, q, group.bytes, group.width, lane_limit, &mut sums)
    };
    let mask = (1u32 << group.live) - 1;
    let window = |j: usize| {
        let mut w = vec![0u8; q.len()];
        group.window(j, &mut w);
        w
    };
    if outside & mask != 0 {
        assert_codes_in_table(&window((outside & mask).trailing_zeros() as usize), n);
    }
    let mut within = within & mask;
    while within != 0 {
        let j = within.trailing_zeros() as usize;
        let d = if sums[j] == saturated {
            matrix_dist_bounded(table, n, q, &window(j), bound)
        } else {
            Some(f32::from(sums[j]) * 0.5)
        };
        if let Some(d) = d {
            out.push((j as u32, d));
        }
        within &= within - 1;
    }
}

/// The Hamming lane kernel, over one lane-major group of a leaf
/// ([`crate::lanes`]): append `(j, count)` for each of the group's first
/// `live` windows whose mismatch count is `≤ bound`. With SIMD on, SSSE3
/// and windows of at most 255 residues, one `cmpeq` per position counts
/// all sixteen lanes' matches; otherwise each window is copied out and
/// counted per pair.
///
/// # Panics
/// Panics if the group is malformed ([`LaneGroup::check`]).
pub(crate) fn hamming_scan_lanes(
    q: &[u8],
    group: LaneGroup<'_>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
) {
    group.check(q.len());
    #[cfg(target_arch = "x86_64")]
    if simd_enabled()
        && q.len() <= usize::from(u8::MAX)
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: SSSE3 was just detected at runtime.
        unsafe { x86::hamming_lanes(q, group, bound, out) };
        return;
    }
    crate::lanes::scan_per_pair(q, group, bound, out, |q, c, bound| {
        let d = hamming_count(q, c) as f32;
        (d <= bound).then_some(d)
    });
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ROW_BYTES;
    use crate::lanes::LaneGroup;
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

    /// Sixteen bytes of `bytes` from `at` as one vector, zero past the
    /// end of the slice: one load when they are all inside it, a copy into
    /// a zeroed buffer otherwise.
    #[inline(always)]
    fn load16(bytes: &[u8], at: usize) -> __m128i {
        match bytes.get(at..at + 16) {
            // SAFETY: `src` is a bounds-checked 16-byte slice; SSE2 is
            // statically available on x86_64.
            Some(src) => unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) },
            None => {
                let mut buf = [0u8; 16];
                let src = bytes.get(at..).unwrap_or_default();
                buf[..src.len()].copy_from_slice(src);
                // SAFETY: `buf` is a 16-byte local.
                unsafe { _mm_loadu_si128(buf.as_ptr() as *const __m128i) }
            }
        }
    }

    /// The `len` columns of a lane group of `width` windows: column `p` is
    /// the sixteen bytes at `p·width`, lanes past `width` holding whatever
    /// follows. When the last column's load stays inside the group's
    /// bytes — the leaf's tail slack follows them — every column is one
    /// load; otherwise each is read through [`load16`].
    #[derive(Clone, Copy)]
    struct Columns<'a> {
        bytes: &'a [u8],
        width: usize,
        /// Columns `0..direct` end inside `bytes`: all `len` or none.
        direct: usize,
    }

    impl<'a> Columns<'a> {
        #[inline(always)]
        fn new(bytes: &'a [u8], width: usize, len: usize) -> Self {
            let fits = len > 0 && (len - 1) * width + 16 <= bytes.len();
            let direct = if fits { len } else { 0 };
            Columns {
                bytes,
                width,
                direct,
            }
        }

        #[inline(always)]
        fn get(&self, p: usize) -> __m128i {
            if p < self.direct {
                // SAFETY: `p < direct = len` gives `p·width + 16 ≤
                // (len − 1)·width + 16 ≤ bytes.len()`; SSE2 is statically
                // available on x86_64.
                unsafe {
                    _mm_loadu_si128(self.bytes.as_ptr().add(p * self.width) as *const __m128i)
                }
            } else {
                load16(self.bytes, p * self.width)
            }
        }
    }

    /// The two 16-byte halves of residue `x`'s row of the `u8` table.
    ///
    /// # Safety
    /// `x` must have a row: `(x + 1)·ROW_BYTES ≤ rows.len()`.
    #[inline(always)]
    unsafe fn row(rows: &[u8], x: u8) -> (__m128i, __m128i) {
        debug_assert!((usize::from(x) + 1) * ROW_BYTES <= rows.len());
        // SAFETY: the caller's precondition keeps both 16-byte loads inside
        // `rows`; SSE2 is statically available.
        unsafe {
            let at = rows.as_ptr().add(usize::from(x) * ROW_BYTES);
            (
                _mm_loadu_si128(at as *const __m128i),
                _mm_loadu_si128(at.add(16) as *const __m128i),
            )
        }
    }

    /// Score the `width` windows of a lane group ([`crate::lanes`])
    /// against `q` at once, one per lane, in saturating half-units: `u8`
    /// lanes, or `u16` lanes when `WIDE`. Each position costs one column
    /// load, two `pshufb` look-ups into the query residue's table row, a
    /// select on bit 4 of the candidate code and one saturating add.
    /// Writes the lane sums to `sums` and returns `(within, outside)`: bit
    /// `j` of `within` is set iff lane `j`'s sum is `≤ limit`, bit `j` of
    /// `outside` iff lane `j` read a code `≥` the table's letters
    /// (`rows.len() / ROW_BYTES`). Lanes past `width` hold bytes of the
    /// next columns or the tail slack; the caller masks them off.
    ///
    /// A lane that saturates (255, or 65,535 when `WIDE`) holds a true sum
    /// at least that large; `rows` must be the `ROW_BYTES`-strided `u8`
    /// table, and in `u8` lanes `limit` must be below 255.
    ///
    /// # Safety
    /// The caller must have verified SSSE3 and SSE4.1 at runtime, and that
    /// every code of `q` has a row of `rows`. Every other load is inside
    /// `group` or a local buffer.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn matrix_sums_lanes<const WIDE: bool>(
        rows: &[u8],
        q: &[u8],
        group: &[u8],
        width: usize,
        limit: u16,
        sums: &mut [u16; 16],
    ) -> (u32, u32) {
        let zero = _mm_setzero_si128();
        // Narrow: `acc[0]` holds all sixteen `u8` lanes; wide: `acc[0]`
        // lanes 0–7 and `acc[1]` lanes 8–15 as `u16`. `seen` keeps the
        // largest code each lane read.
        let (mut acc, mut seen) = ([zero; 2], zero);
        let cols = Columns::new(group, width, q.len());
        for (p, &x) in q.iter().enumerate() {
            let col = cols.get(p);
            // SAFETY: `x` has a row by this function's precondition.
            let (lo, hi) = unsafe { row(rows, x) };
            seen = _mm_max_epu8(seen, col);
            // `pshufb` indexes by the low four bits; bit 4 of the code
            // (moved to each byte's sign bit) picks the table.
            let upper = _mm_slli_epi16(col, 3);
            let cost = _mm_blendv_epi8(_mm_shuffle_epi8(lo, col), _mm_shuffle_epi8(hi, col), upper);
            if WIDE {
                acc[0] = _mm_adds_epu16(acc[0], _mm_unpacklo_epi8(cost, zero));
                acc[1] = _mm_adds_epu16(acc[1], _mm_unpackhi_epi8(cost, zero));
            } else {
                acc[0] = _mm_adds_epu8(acc[0], cost);
            }
        }
        let (wide, within) = if WIDE {
            let lim = _mm_set1_epi16(limit as i16);
            let lo = _mm_cmpeq_epi16(_mm_min_epu16(acc[0], lim), acc[0]);
            let hi = _mm_cmpeq_epi16(_mm_min_epu16(acc[1], lim), acc[1]);
            // Packing the all-ones / all-zeros words keeps lane order.
            let mask = _mm_movemask_epi8(_mm_packs_epi16(lo, hi));
            (acc, mask as u32)
        } else {
            let lim = _mm_set1_epi8(limit as u8 as i8);
            let ok = _mm_cmpeq_epi8(_mm_min_epu8(acc[0], lim), acc[0]);
            let lanes = [
                _mm_unpacklo_epi8(acc[0], zero),
                _mm_unpackhi_epi8(acc[0], zero),
            ];
            (lanes, _mm_movemask_epi8(ok) as u32)
        };
        // At most 32 letters have rows, so `top` fits a byte; saturating
        // `seen − top` is non-zero exactly in the lanes over it.
        let top = (rows.len() / ROW_BYTES).saturating_sub(1) as u8;
        let excess = _mm_subs_epu8(seen, _mm_set1_epi8(top as i8));
        let outside = !(_mm_movemask_epi8(_mm_cmpeq_epi8(excess, zero)) as u32) & 0xFFFF;
        // SAFETY: `sums` is 32 bytes, two 16-byte halves.
        unsafe {
            _mm_storeu_si128(sums.as_mut_ptr() as *mut __m128i, wide[0]);
            _mm_storeu_si128(sums.as_mut_ptr().add(8) as *mut __m128i, wide[1]);
        }
        (within, outside)
    }

    /// [`super::hamming_scan_lanes`]' vector path for windows of at most
    /// 255 residues: per position, `pshufb` broadcasts the query residue
    /// from a 16-residue tile of the query and one `cmpeq` counts every
    /// lane's match in a `u8`; one compare then tests all sixteen mismatch
    /// counts against the bound.
    ///
    /// # Safety
    /// The caller must have verified SSSE3 at runtime.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn hamming_lanes(
        q: &[u8],
        group: LaneGroup<'_>,
        bound: f32,
        out: &mut Vec<(u32, f32)>,
    ) {
        debug_assert!(q.len() <= usize::from(u8::MAX));
        // `count as f32 ≤ bound ⟺ count ≤ ⌊bound⌋` for the small counts
        // here; a negative or NaN bound admits nothing.
        let limit = if bound >= 255.0 {
            u8::MAX
        } else if bound >= 0.0 {
            bound as u8
        } else {
            return;
        };
        let cols = Columns::new(group.bytes, group.width, q.len());
        let (one, mut matches) = (_mm_set1_epi8(1), _mm_setzero_si128());
        for (t, residues) in q.chunks(16).enumerate() {
            let tile = load16(q, 16 * t);
            let mut at = _mm_setzero_si128();
            for p in 16 * t..16 * t + residues.len() {
                // An equal byte is all ones, −1: subtracting counts it.
                let eq = _mm_cmpeq_epi8(cols.get(p), _mm_shuffle_epi8(tile, at));
                matches = _mm_sub_epi8(matches, eq);
                at = _mm_add_epi8(at, one);
            }
        }
        let mism = _mm_sub_epi8(_mm_set1_epi8(q.len() as u8 as i8), matches);
        let ok = _mm_cmpeq_epi8(_mm_min_epu8(mism, _mm_set1_epi8(limit as i8)), mism);
        let mut counts = [0u8; 16];
        // SAFETY: `counts` is a 16-byte local.
        unsafe { _mm_storeu_si128(counts.as_mut_ptr() as *mut __m128i, mism) };
        let mut live = _mm_movemask_epi8(ok) as u32 & ((1u32 << group.live) - 1);
        while live != 0 {
            let j = live.trailing_zeros() as usize;
            out.push((j as u32, f32::from(counts[j])));
            live &= live - 1;
        }
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
            }
            let cands: Vec<Vec<u8>> = (0..9).map(|j| windows(len, 4, 31 * j).0).collect();
            for bound in [0.0, want as f32, f32::INFINITY] {
                let dispatched = crate::lanes::tests::scan_packed(&a, &cands, |group, out| {
                    hamming_scan_lanes(&a, group, bound, out)
                });
                let per_pair = crate::lanes::tests::scan_packed(&a, &cands, |group, out| {
                    crate::lanes::scan_per_pair(&a, group, bound, out, |q, c, bound| {
                        let d = hamming_scalar(q, c) as f32;
                        (d <= bound).then_some(d)
                    })
                });
                let want: Vec<(u32, f32)> = (0u32..)
                    .zip(&cands)
                    .map(|(j, c)| (j, hamming_scalar(&a, c) as f32))
                    .filter(|&(_, d)| d <= bound)
                    .collect();
                assert_eq!(dispatched, want, "len {len} bound {bound}");
                assert_eq!(per_pair, want, "len {len} bound {bound} per pair");
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
        // entries that make some lanes saturate, over one full lane group
        // packed by `write_lanes` (whole transpose tiles and remainders).
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
            let mut lanes = vec![0u8; crate::lanes::lane_bytes(16, len)];
            crate::lanes::write_lanes(cands.iter().map(Vec::as_slice), len, &mut lanes);
            // Narrow lanes take limits below 255; wide lanes any, and
            // their sums never saturate here (at most 26 × 48).
            for (wide, limit) in [
                (false, 0u16),
                (false, 40),
                (false, 200),
                (false, 254),
                (true, 0),
                (true, 254),
                (true, 255),
                (true, 1000),
                (true, u16::MAX),
            ] {
                let mut sums = [0u16; 16];
                // SAFETY: features detected above; lengths equal by
                // construction; rows built for n with all codes < n.
                let (within, outside) = unsafe {
                    if wide {
                        x86::matrix_sums_lanes::<true>(&rows, &q, &lanes, 16, limit, &mut sums)
                    } else {
                        x86::matrix_sums_lanes::<false>(&rows, &q, &lanes, 16, limit, &mut sums)
                    }
                };
                assert_eq!(outside, 0);
                for (j, c) in cands.iter().enumerate() {
                    let exact = matrix_sum_bounded(&table, n, &q, c, u64::MAX)
                        .expect("no limit, no abandon");
                    let ok = within & (1 << j) != 0;
                    let what = format!("len {len} wide {wide} limit {limit} lane {j}");
                    assert_eq!(ok, exact <= u64::from(limit), "{what}");
                    if ok || wide {
                        assert_eq!(u64::from(sums[j]), exact, "{what}");
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
        assert!(matches!(active_kernel(), "sse4.1" | "sse2" | "scalar"));
    }
}
