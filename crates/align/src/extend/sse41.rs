//! The lane kernel of the banded extension (DESIGN §19): the scalar
//! kernel's recurrence, eight cells per instruction in saturating `i16`
//! lanes.
//!
//! * **Band lanes.** Row `i` holds lane `k` for column `j = i + k − band`,
//!   so a cell's diagonal predecessor is the same lane of the previous
//!   row and the cell above it is lane `k + 1`. H and F are updated in
//!   place, low lanes first: a vector reads lanes `s..s + 9` of the
//!   previous row before it writes `s..s + 8`, and no later vector of the
//!   row reads below `s + 8`. Lane `2·band + 1` is the column one past the
//!   band, NEG in both buffers after every row. A row's subject codes are
//!   the contiguous run `b[lo − 1..hi]` of a copy padded past `n`.
//! * **Scores.** Two `pshufb` look-ups into the row residue's 32-byte
//!   [`ScoringMatrix::i8_rows`](mendel_seq::ScoringMatrix::i8_rows) row,
//!   picked by bit 4 of each code, widen to eight `i16` scores.
//! * **E as a prefix max.** `E[k] = max(E[k−1] − extend, T[k−1] − open1)`
//!   unrolls to `max over m ≤ k of (T[m−1] − open1 − (k − m)·extend)`:
//!   three shift-and-max steps (1, 2 and 4 lanes) inside a vector, and the
//!   previous vector's last E, broadcast, minus `(1..=8)·extend`.
//! * **First maximum.** Each lane keeps the row's largest H and the first
//!   column offset that reached it; a row folds them once, with no branch
//!   on whether it beat the best.
//!
//! Only a row's live lanes `lo..=hi` are computed, from the first; the
//! last vector's lanes past `hi` are columns past `n` (or past the band),
//! which feed no live cell and are masked out of the row maximum. Every
//! live value is a real score inside the domain guard, so the saturating
//! adds are plain adds there, and a NEG-derived value (saturated at
//! `i16::MIN`) never beats one.

use super::Half;
use crate::alignment::GapPenalties;
use core::arch::x86_64::*;
use mendel_seq::matrix::I8_ROW;

/// The lanes' −∞: saturating subtractions leave it where it is.
const NEG: i16 = i16::MIN;

/// The banded half of [`super::scalar_half`], in band lanes: the same
/// score, best cell (the first maximum in row-major order) and cell count.
///
/// # Safety
/// The caller must have verified SSSE3 and SSE4.1 at runtime, and
/// [`super::lanes_fit`]'s domain: both sides non-empty, non-negative gap
/// costs, a row of `rows` for every code of `a` and of the first
/// `min(|b|, |a| + band)` codes of `b`, and the `i16` bound.
#[target_feature(enable = "ssse3,sse4.1")]
pub(super) unsafe fn banded_half(
    a: &[u8],
    b: &[u8],
    rows: &[[i8; I8_ROW]],
    gaps: GapPenalties,
    band: usize,
    x_drop: i32,
) -> Half {
    let n = b.len().min(a.len() + band);
    // The domain guard keeps every gap cost this half takes below 2^14.
    let cost = |len: usize| gaps.cost(len) as i16;
    let width = 2 * band + 1;
    // H then F: `width` lanes, the pad lane, and room for the last
    // vector's loads and stores past them.
    let span = width + 16;
    let mut lanes = vec![NEG; 2 * span];
    let (h, f) = lanes.split_at_mut(span);
    let mut codes = Vec::with_capacity(n + 8);
    codes.extend_from_slice(&b[..n]);
    codes.resize(n + 8, 0);
    // Row 0: H[0][j] sits in lane band + j.
    h[band] = 0;
    for j in 1..=band.min(n) {
        h[band + j] = -cost(j);
    }

    let neg = _mm_set1_epi16(NEG);
    let ext = gaps.extend;
    let open1 = _mm_set1_epi16(cost(1));
    let (ext1, ext2, ext4) = (
        _mm_set1_epi16(ext as i16),
        _mm_set1_epi16((2 * ext) as i16),
        _mm_set1_epi16((4 * ext) as i16),
    );
    // `(k + 1)·extend` for the carried E; a lane that would pass i16::MAX
    // only ever subtracts from a real E to below every real score.
    let step = |k: i32| ((k * ext).min(i32::from(i16::MAX))) as i16;
    let ramp = _mm_setr_epi16(
        step(1),
        step(2),
        step(3),
        step(4),
        step(5),
        step(6),
        step(7),
        step(8),
    );
    let (lane_ids, eight) = (_mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7), _mm_set1_epi16(8));
    let last_lane = _mm_set1_epi16(0x0F0E);

    let (mut best, mut best_at, mut cells) = (0i32, (0usize, 0usize), 0u64);
    for (i, &code) in (1usize..).zip(a) {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        if lo > hi {
            break;
        }
        let (k_lo, live) = (lo + band - i, hi - lo + 1);
        // The T left of the band's first column: column 0's H while
        // i <= band (kept in its lane for the next row's diagonal), else
        // outside the band.
        let left = if lo == 1 && i <= band {
            h[k_lo - 1] = -cost(i);
            -cost(i)
        } else {
            NEG
        };
        let row = &rows[usize::from(code)];
        // SAFETY: `row` is a 32-byte array; SSE2 is statically available.
        let (tab_lo, tab_hi) = unsafe {
            let at = row.as_ptr() as *const __m128i;
            (_mm_loadu_si128(at), _mm_loadu_si128(at.add(1)))
        };
        let (mut t_prev, mut e_prev) = (_mm_set1_epi16(left), neg);
        // Per lane: the row's largest H so far, and the offset from `lo`
        // of the first column that holds it; `offset` walks the vectors.
        let (mut top, mut first, mut offset) = (neg, lane_ids, lane_ids);
        let mut tail = neg;
        let last = (live - 1) / 8;
        // Every lane and code the row's vectors touch, checked once: lanes
        // `k_lo..k_lo + 8·last + 9` and codes `lo − 1..lo + 8·last + 7`.
        assert!(k_lo + 8 * last + 9 <= span && lo + 8 * last + 7 <= codes.len());
        let (hp, fp, cp) = (h.as_mut_ptr(), f.as_mut_ptr(), codes.as_ptr());
        for v in 0..=last {
            let s = k_lo + 8 * v;
            // SAFETY: the assert above bounds lanes `s..s + 9` of both
            // buffers and codes `lo − 1 + 8·v..lo + 7 + 8·v`; SSE2 is
            // statically available.
            let (diag, up, f_up, col) = unsafe {
                (
                    _mm_loadu_si128(hp.add(s) as *const __m128i),
                    _mm_loadu_si128(hp.add(s + 1) as *const __m128i),
                    _mm_loadu_si128(fp.add(s + 1) as *const __m128i),
                    _mm_loadl_epi64(cp.add(lo - 1 + 8 * v) as *const __m128i),
                )
            };
            let pick = _mm_slli_epi16(col, 3);
            let score = _mm_cvtepi8_epi16(_mm_blendv_epi8(
                _mm_shuffle_epi8(tab_lo, col),
                _mm_shuffle_epi8(tab_hi, col),
                pick,
            ));
            let fv = _mm_max_epi16(_mm_subs_epi16(f_up, ext1), _mm_subs_epi16(up, open1));
            let t = _mm_max_epi16(_mm_adds_epi16(diag, score), fv);
            // U[k] = T[k − 1] − open1, then its prefix max with decay.
            let mut e = _mm_subs_epi16(_mm_alignr_epi8(t, t_prev, 14), open1);
            t_prev = t;
            e = _mm_max_epi16(e, _mm_subs_epi16(_mm_alignr_epi8(e, neg, 14), ext1));
            e = _mm_max_epi16(e, _mm_subs_epi16(_mm_alignr_epi8(e, neg, 12), ext2));
            e = _mm_max_epi16(e, _mm_subs_epi16(_mm_alignr_epi8(e, neg, 8), ext4));
            e = _mm_max_epi16(e, _mm_subs_epi16(e_prev, ramp));
            e_prev = _mm_shuffle_epi8(e, last_lane);
            let hv = _mm_max_epi16(t, e);
            // SAFETY: lanes `s..s + 8`, inside the assert's bound.
            unsafe {
                _mm_storeu_si128(hp.add(s) as *mut __m128i, hv);
                _mm_storeu_si128(fp.add(s) as *mut __m128i, fv);
            }
            if v < last {
                let above = _mm_cmpgt_epi16(hv, top);
                top = _mm_max_epi16(top, hv);
                first = _mm_blendv_epi8(first, offset, above);
                offset = _mm_add_epi16(offset, eight);
            } else {
                tail = hv;
            }
        }
        // The last vector's lanes past `hi` stay out of the row maximum.
        let rest = _mm_set1_epi16((live - 8 * last) as i16);
        let tail = _mm_blendv_epi8(neg, tail, _mm_cmpgt_epi16(rest, lane_ids));
        first = _mm_blendv_epi8(first, offset, _mm_cmpgt_epi16(tail, top));
        let top_lanes = _mm_max_epi16(top, tail);
        h[width] = NEG;
        f[width] = NEG;
        let top = _mm_max_epi16(top_lanes, _mm_shuffle_epi32(top_lanes, 0x4E));
        let top = _mm_max_epi16(top, _mm_shuffle_epi32(top, 0xB1));
        let top = _mm_max_epi16(top, _mm_shufflelo_epi16(top, 0xB1));
        let row_best = i32::from(_mm_extract_epi16(top, 0) as i16);
        // The row's first maximum — where a row-major scan with a strict
        // `>` would have left `best_at` — is the least first offset among
        // the lanes that reach it (offsets are below 2^14, so unsigned).
        // It is found every row and kept by a select: whether a row beats
        // the best is data-dependent, and a branch on it mispredicts.
        let reach = _mm_cmpeq_epi16(top_lanes, _mm_set1_epi16(row_best as i16));
        let offsets = _mm_blendv_epi8(_mm_set1_epi16(-1), first, reach);
        let at = _mm_extract_epi16(_mm_minpos_epu16(offsets), 0) as usize;
        let improved = row_best > best;
        best_at.0 = if improved { i } else { best_at.0 };
        best_at.1 = if improved { lo + at } else { best_at.1 };
        best = best.max(row_best);
        cells += live as u64;
        if best - row_best > x_drop {
            break;
        }
    }
    Half {
        score: best,
        a_len: best_at.0,
        b_len: best_at.1,
        cells,
    }
}
