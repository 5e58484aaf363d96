//! The lane-major layout a vp-tree leaf stores its windows in, so the
//! leaf kernels load one 16-candidate column per position instead of
//! gathering each candidate's bytes (DESIGN.md §15.1).
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
//! the slice from its first byte to the end of the leaf's lanes, its width
//! `k`, and how many of its windows to score.

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
/// zeroed.
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
    for (j, window) in windows.enumerate() {
        assert_eq!(window.len(), len, "windows of one length");
        let first = j - j % GROUP;
        let width = (count - first).min(GROUP);
        let group = &mut out[first * len..][..width * len];
        for (p, &b) in window.iter().enumerate() {
            group[p * width + j - first] = b;
        }
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
mod tests {
    use super::*;

    #[test]
    fn lanes_round_trip_every_group_shape() {
        for len in [1usize, 3, 16, 17] {
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
