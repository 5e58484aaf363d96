//! The lane-major layout the lane kernels read, so they load one
//! 16-candidate column per position instead of gathering each candidate's
//! bytes (DESIGN.md §15.1). A vp-tree leaf stores its windows this way,
//! and a tree build packs the windows it scores into scratch groups the
//! same way: [`write_lanes`] is the one packer.
//!
//! A leaf's `count` windows of length `L` form groups of [`GROUP`] in
//! bucket order: group `g` holds windows `16g ..` and starts at byte
//! `16g·L`. With `k` windows in the group (16, or fewer in the last one),
//! byte `p` of its `j`-th window sits at `p·k + j`, so a full group is
//! `L` columns of sixteen bytes, one per position. A short group keeps
//! stride `k`: its columns overlap, and a 16-byte load of the last one
//! reads up to `16 − k` bytes past the group. [`lane_bytes`] leaves that
//! much tail slack after the last group; nothing else is padded.
//!
//! The kernels ([`crate::Metric::scan_lanes`]) take one [`LaneGroup`]:
//! the slice from its first byte to the end of the lanes it sits in, its
//! width `k`, and how many of its windows to score.

/// Windows per lane group: one per byte of a 16-byte vector.
pub const GROUP: usize = 16;

/// Bytes the lanes of `count` windows of length `len` take, tail slack
/// included.
pub fn lane_bytes(count: usize, len: usize) -> usize {
    match count % GROUP {
        0 => count * len,
        short => count * len + GROUP - short,
    }
}

/// One lane group as a kernel reads it: the bytes from its first to the
/// end of its leaf's lanes, its width `k` (1 to 16 windows), and how many
/// of its windows — the first `live` — to score.
#[derive(Debug, Clone, Copy)]
pub struct LaneGroup<'a> {
    /// The group's lanes and everything after them in the leaf.
    pub bytes: &'a [u8],
    /// Windows in the group, and so its column stride.
    pub width: usize,
    /// Windows to score, `≤ width`.
    pub live: usize,
}

impl LaneGroup<'_> {
    /// The checks every lane kernel makes before reading a group of
    /// windows of length `len`: a width of 1 to 16, no more live windows
    /// than that, and bytes that hold them.
    #[inline]
    #[track_caller]
    pub(crate) fn check(&self, len: usize) {
        assert!(
            (1..=GROUP).contains(&self.width) && self.live <= self.width,
            "a lane group scores at most its 1 to 16 windows"
        );
        assert!(
            self.bytes.len() >= len * self.width,
            "lane group shorter than its windows"
        );
    }

    /// Copy window `j` of the group into `out` (the window length).
    pub(crate) fn window(&self, j: usize, out: &mut [u8]) {
        for (p, b) in out.iter_mut().enumerate() {
            *b = self.bytes[p * self.width + j];
        }
    }
}

/// `(first window, group)` for each group of a leaf's `count` windows of
/// length `len`, every window live.
pub fn groups(
    lanes: &[u8],
    count: usize,
    len: usize,
) -> impl Iterator<Item = (usize, LaneGroup<'_>)> {
    (0..count).step_by(GROUP).map(move |first| {
        let width = (count - first).min(GROUP);
        let group = LaneGroup {
            bytes: &lanes[first * len..],
            width,
            live: width,
        };
        (first, group)
    })
}

/// Lay `windows`, each of length `len`, out lane-major into `out`, which
/// must be [`lane_bytes`]`(windows.len(), len)` long. The tail slack is
/// zeroed. A full group's 16-position tiles each go through one 16×16
/// byte transpose; the positions past its last tile, and a short group,
/// are placed a byte at a time. Every vp-tree leaf and every build scan's
/// scratch group is laid out here.
///
/// # Panics
/// Panics if a window's length is not `len` or `out` has the wrong length.
pub fn write_lanes<'a>(
    windows: impl ExactSizeIterator<Item = &'a [u8]>,
    len: usize,
    out: &mut [u8],
) {
    let count = windows.len();
    assert_eq!(out.len(), lane_bytes(count, len), "lane area size");
    out[count * len..].fill(0);
    let mut windows = windows.inspect(|w| assert_eq!(w.len(), len, "windows of one length"));
    for first in (0..count).step_by(GROUP) {
        let width = (count - first).min(GROUP);
        let mut rows: [&[u8]; GROUP] = [&[]; GROUP];
        for (row, window) in rows[..width].iter_mut().zip(&mut windows) {
            *row = window;
        }
        let group = &mut out[first * len..][..width * len];
        let tiled = if width == GROUP {
            transpose_tiles(&rows, len, group)
        } else {
            0
        };
        for (j, row) in rows[..width].iter().enumerate() {
            for (p, &b) in (tiled..).zip(&row[tiled..]) {
                group[p * width + j] = b;
            }
        }
    }
}

/// Write the whole 16-position tiles of a full group's sixteen windows of
/// length `len` into its columns, one 16×16 byte transpose per tile, and
/// return how many positions they cover.
#[cfg(target_arch = "x86_64")]
fn transpose_tiles(rows: &[&[u8]; GROUP], len: usize, group: &mut [u8]) -> usize {
    use core::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_storeu_si128};
    let tiled = len - len % GROUP;
    for p in (0..tiled).step_by(GROUP) {
        let tile = rows.map(|row| {
            let src = &row[p..p + GROUP];
            // SAFETY: `src` is a bounds-checked 16-byte slice; SSE2 is
            // statically available on x86_64.
            unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) }
        });
        for (i, column) in transpose_16x16(tile).into_iter().enumerate() {
            let dst = &mut group[(p + i) * GROUP..][..GROUP];
            // SAFETY: `dst` is a bounds-checked 16-byte slice; SSE2 is
            // statically available on x86_64.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, column) };
        }
    }
    tiled
}

/// Off x86_64 every position is placed a byte at a time.
#[cfg(not(target_arch = "x86_64"))]
fn transpose_tiles(_: &[&[u8]; GROUP], _: usize, _: &mut [u8]) -> usize {
    0
}

/// Transpose sixteen 16-byte rows: byte `j` of `out[p]` is byte `p` of
/// `rows[j]`. Four rounds of interleaves (8-, 16-, 32-, 64-bit).
#[cfg(target_arch = "x86_64")]
#[inline]
fn transpose_16x16(r: [core::arch::x86_64::__m128i; 16]) -> [core::arch::x86_64::__m128i; 16] {
    use core::arch::x86_64::*;
    // SAFETY: SSE2 register interleaves only, which every x86_64 CPU has;
    // no memory is read or written.
    unsafe {
        let z = _mm_setzero_si128();
        // Round 1: t[2i], t[2i+1] = low/high halves of rows 2i, 2i+1
        // interleaved bytewise — 2 windows per position.
        let mut t = [z; 16];
        for i in 0..8 {
            t[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
        }
        // Round 2: 4 windows per position; u[4g + s] covers windows
        // 4g..4g+4 at positions 4s..4s+4.
        let mut u = [z; 16];
        for g in 0..4 {
            u[4 * g] = _mm_unpacklo_epi16(t[4 * g], t[4 * g + 2]);
            u[4 * g + 1] = _mm_unpackhi_epi16(t[4 * g], t[4 * g + 2]);
            u[4 * g + 2] = _mm_unpacklo_epi16(t[4 * g + 1], t[4 * g + 3]);
            u[4 * g + 3] = _mm_unpackhi_epi16(t[4 * g + 1], t[4 * g + 3]);
        }
        // Round 3: 8 windows per position; v[8h + s] covers windows
        // 8h..8h+8 at positions 2s, 2s+1.
        let mut v = [z; 16];
        for h in 0..2 {
            for s in 0..4 {
                v[8 * h + 2 * s] = _mm_unpacklo_epi32(u[8 * h + s], u[8 * h + 4 + s]);
                v[8 * h + 2 * s + 1] = _mm_unpackhi_epi32(u[8 * h + s], u[8 * h + 4 + s]);
            }
        }
        // Round 4: all 16 windows of one position per vector.
        let mut out = [z; 16];
        for s in 0..8 {
            out[2 * s] = _mm_unpacklo_epi64(v[s], v[8 + s]);
            out[2 * s + 1] = _mm_unpackhi_epi64(v[s], v[8 + s]);
        }
        out
    }
}

/// Copy window `j` of a leaf's lanes (`count` windows of length
/// `out.len()`) into `out`.
pub fn read_window(lanes: &[u8], count: usize, j: usize, out: &mut [u8]) {
    let first = j - j % GROUP;
    let group = LaneGroup {
        bytes: &lanes[first * out.len()..],
        width: (count - first).min(GROUP),
        live: 0,
    };
    group.window(j - first, out);
}

/// The per-pair lane scan: each of the first `live` windows of the group
/// is copied out and scored by `dist_bounded`, `(j, d)` kept for every
/// `Some(d)`. It is [`crate::Metric::scan_lanes`]' default and the path
/// the SIMD kill switch selects, so the vector kernels are tested against
/// it.
pub(crate) fn scan_per_pair(
    q: &[u8],
    group: LaneGroup<'_>,
    bound: f32,
    out: &mut Vec<(u32, f32)>,
    dist_bounded: impl Fn(&[u8], &[u8], f32) -> Option<f32>,
) {
    group.check(q.len());
    let mut stack = [0u8; 64];
    let mut heap = Vec::new();
    let window = if q.len() <= stack.len() {
        &mut stack[..q.len()]
    } else {
        heap.resize(q.len(), 0);
        &mut heap[..]
    };
    for j in 0..group.live {
        group.window(j, window);
        if let Some(d) = dist_bounded(q, window, bound) {
            out.push((j as u32, d));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Pack `cands` (each `q.len()` long) lane-major with [`write_lanes`]
    /// and score every group of them through `scan`, survivors numbered
    /// by candidate: the whole-list scan the kernel tests compare.
    pub(crate) fn scan_packed(
        q: &[u8],
        cands: &[Vec<u8>],
        mut scan: impl FnMut(LaneGroup<'_>, &mut Vec<(u32, f32)>),
    ) -> Vec<(u32, f32)> {
        let len = q.len();
        let mut lanes = vec![0u8; lane_bytes(cands.len(), len)];
        write_lanes(cands.iter().map(Vec::as_slice), len, &mut lanes);
        let mut out = Vec::new();
        for (first, group) in groups(&lanes, cands.len(), len) {
            let from = out.len();
            scan(group, &mut out);
            for survivor in &mut out[from..] {
                survivor.0 += first as u32;
            }
        }
        out
    }

    #[test]
    fn lanes_round_trip_every_group_shape() {
        for len in [1usize, 3, 16, 17, 32, 33] {
            for count in [0usize, 1, 5, 15, 16, 17, 31, 32, 33, 40] {
                let windows: Vec<u8> = (0..count * len).map(|i| (i * 7 % 251) as u8).collect();
                let mut lanes = vec![0xAA; lane_bytes(count, len)];
                write_lanes(windows.chunks_exact(len), len, &mut lanes);
                let mut out = vec![0u8; len];
                for (j, want) in windows.chunks_exact(len).enumerate() {
                    read_window(&lanes, count, j, &mut out);
                    assert_eq!(out, want, "len {len} count {count} window {j}");
                }
                let widths: Vec<usize> = groups(&lanes, count, len).map(|g| g.1.width).collect();
                assert_eq!(widths.iter().sum::<usize>(), count);
                assert!(widths.iter().rev().skip(1).all(|&w| w == GROUP));
                // The last column of the last group can be loaded whole.
                if let Some((_, g)) = groups(&lanes, count, len).last() {
                    assert!(g.bytes.len() >= (len - 1) * g.width + GROUP);
                }
            }
        }
    }
}
