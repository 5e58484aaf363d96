//! The SHA-NI compression kernel: the same 80 rounds as
//! [`super::compress_scalar`], four per `sha1rnds4`.
//!
//! The state lives in two registers: `abcd` (A in the top lane, D in
//! the bottom) and `e`, whose top lane is E. Each block's sixteen
//! message words are four registers, byte-swapped to big-endian words
//! and reversed so word 0 is the top lane. Quad `q` (rounds `4q..4q+4`)
//! takes message register `q mod 4`: `sha1nexte` adds the rotated E of
//! the quad before (quad 0 adds E itself), `sha1rnds4` runs the four
//! rounds with function `q / 5`, and the schedule advances in step —
//! `sha1msg1` and a xor start the words of quads `q + 3` and `q + 2`,
//! `sha1msg2` finishes those of quad `q + 1`.

use core::arch::x86_64::*;

/// Compress every 64-byte block of `blocks` into `h`, in order.
///
/// # Safety
/// The caller must have verified SHA, SSSE3 and SSE4.1 at runtime.
/// `blocks.len()` must be a multiple of 64.
#[target_feature(enable = "sha,ssse3,sse4.1")]
#[allow(
    unused_assignments,
    reason = "quad 19's schedule steps sit behind constant-false guards, and rustc still sees their writes"
)]
pub(super) unsafe fn compress(h: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Reverses the sixteen bytes: big-endian words, word 0 on top.
    let swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
    let mut e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
    for block in blocks.chunks_exact(64) {
        let (abcd_in, e_in) = (abcd, e0);
        // SAFETY: `block` is 64 bytes, so each unaligned 16-byte load at
        // offset 0, 16, 32 and 48 is in bounds.
        let mut m = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap),
            ]
        };
        // `e[q % 2]` carries quad q's E plus its words; the other
        // register keeps `abcd` from before the quad, whose rotated A is
        // the next quad's E.
        let mut e = [e0, abcd];
        macro_rules! quad {
            ($q:literal) => {{
                let (cur, w) = ($q % 2, $q % 4);
                e[cur] = if $q == 0 {
                    _mm_add_epi32(e[cur], m[w])
                } else {
                    _mm_sha1nexte_epu32(e[cur], m[w])
                };
                e[1 - cur] = abcd;
                if (3..=18).contains(&$q) {
                    m[($q + 1) % 4] = _mm_sha1msg2_epu32(m[($q + 1) % 4], m[w]);
                }
                abcd = _mm_sha1rnds4_epu32::<{ $q / 5 }>(abcd, e[cur]);
                if (1..=16).contains(&$q) {
                    m[($q + 3) % 4] = _mm_sha1msg1_epu32(m[($q + 3) % 4], m[w]);
                }
                if (2..=17).contains(&$q) {
                    m[($q + 2) % 4] = _mm_xor_si128(m[($q + 2) % 4], m[w]);
                }
            }};
        }
        quad!(0);
        quad!(1);
        quad!(2);
        quad!(3);
        quad!(4);
        quad!(5);
        quad!(6);
        quad!(7);
        quad!(8);
        quad!(9);
        quad!(10);
        quad!(11);
        quad!(12);
        quad!(13);
        quad!(14);
        quad!(15);
        quad!(16);
        quad!(17);
        quad!(18);
        quad!(19);
        // After quad 19, `e[0]` holds `abcd` from before it: its rotated
        // A is the block's final E, which the feed-forward adds to.
        e0 = _mm_sha1nexte_epu32(e[0], e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }
    h[0] = _mm_extract_epi32::<3>(abcd) as u32;
    h[1] = _mm_extract_epi32::<2>(abcd) as u32;
    h[2] = _mm_extract_epi32::<1>(abcd) as u32;
    h[3] = _mm_extract_epi32::<0>(abcd) as u32;
    h[4] = _mm_extract_epi32::<3>(e0) as u32;
}
