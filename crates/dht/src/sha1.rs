//! SHA-1, implemented from scratch (FIPS 180-1).
//!
//! The paper's second-tier placement uses "a tried-and-true flat hashing
//! scheme, SHA-1, to disperse the blocks within a group" (§V-A2). Only
//! uniformity matters here — SHA-1's cryptographic retirement is
//! irrelevant to load balancing — so a dependency-free 80-round
//! implementation suffices. Validated against the FIPS test vectors.
//!
//! The compression function has two kernels. On an x86_64 CPU with the
//! SHA extensions (plus SSSE3 and SSE4.1) it runs `sha1rnds4`,
//! `sha1nexte`, `sha1msg1` and `sha1msg2`, four rounds per instruction
//! (`sha1/shani.rs`); elsewhere, and whenever
//! [`mendel_seq::simd::set_simd_enabled`]`(false)` holds, it runs the
//! portable scalar rounds, which are also the oracle the SHA-NI kernel
//! is tested against. Both produce the same digest for every input, so
//! the kernel decides speed only. Every caller shares the dispatch:
//! [`sha1_u64`] (block placement and repair), the streaming [`Sha1`],
//! and through it the store's blob digests and bloom keys.
//! [`active_kernel`] names the kernel that runs.

#[cfg(target_arch = "x86_64")]
mod shani;

/// The initial hash value (FIPS 180-1 §7).
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// A compression kernel: the scalar rounds, or SHA-NI where it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The kernel this CPU and the SIMD kill switch allow.
    fn dispatch() -> Self {
        #[cfg(target_arch = "x86_64")]
        if mendel_seq::simd::simd_enabled()
            && std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }

    /// Compress every 64-byte block of `blocks` into `h`, in order.
    fn compress(self, h: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Scalar => blocks
                .chunks_exact(64)
                .for_each(|block| compress_scalar(h, block)),
            // SAFETY: `dispatch` returns `ShaNi` only after detecting SHA,
            // SSSE3 and SSE4.1 at runtime, and `blocks` is whole blocks.
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => unsafe { shani::compress(h, blocks) },
        }
    }
}

/// Name of the SHA-1 kernel that runs, honouring the SIMD kill switch:
/// `sha-ni` on a CPU with the SHA extensions, SSSE3 and SSE4.1, else
/// `scalar`. Reported by `/healthz?verbose=1`.
pub fn active_kernel() -> &'static str {
    match Kernel::dispatch() {
        Kernel::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Kernel::ShaNi => "sha-ni",
    }
}

/// Streaming SHA-1 state.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// The compression kernel, chosen once when the hasher is made.
    kernel: Kernel,
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::dispatch())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha1 {
            h: H0,
            kernel,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                self.kernel.compress(&mut self.h, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = data.len() / 64 * 64;
        self.kernel.compress(&mut self.h, &data[..whole]);
        data = &data[whole..];
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize(self) -> [u8; 20] {
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.finish()) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Pad and compress the last block or two, returning the hash words.
    /// The padding — `0x80`, zeros up to 56 mod 64, the message length in
    /// bits as a big-endian u64 — goes in with one `update`.
    fn finish(mut self) -> [u32; 5] {
        let bit_len = self.len.wrapping_mul(8);
        let zeros_to = if self.buf_len < 56 { 56 } else { 120 };
        let n = zeros_to - self.buf_len;
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[n..n + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..n + 8]);
        debug_assert_eq!(self.buf_len, 0);
        self.h
    }
}

/// The scalar compression function over one 64-byte block. The four
/// 20-round phases run as four loops, so no round decides which phase it
/// is in.
fn compress_scalar(h: &mut [u32; 5], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 80];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let mut s = *h;
    rounds(&mut s, &w[..20], 0x5A82_7999, |b, c, d| (b & c) | (!b & d));
    rounds(&mut s, &w[20..40], 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
    rounds(&mut s, &w[40..60], 0x8F1B_BCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    rounds(&mut s, &w[60..], 0xCA62_C1D6, |b, c, d| b ^ c ^ d);
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

/// One phase of [`compress_scalar`]: a round per schedule word, with the
/// phase's constant `k` and boolean function `f(b, c, d)`.
#[inline(always)]
fn rounds(s: &mut [u32; 5], w: &[u32], k: u32, f: impl Fn(u32, u32, u32) -> u32) {
    let [mut a, mut b, mut c, mut d, mut e] = *s;
    for &wi in w {
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    *s = [a, b, c, d, e];
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut s = Sha1::new();
    s.update(data);
    s.finalize()
}

/// The first 8 digest bytes as a big-endian u64 — the placement key used
/// by [`crate::placement`]. An input under 56 bytes (every block key)
/// fits one padded block, built on the stack and compressed once.
pub fn sha1_u64(data: &[u8]) -> u64 {
    KeyHasher::dispatched().head(data)
}

/// [`sha1_u64`] with its kernel chosen once, for a pass that hashes many
/// keys (routing, repair): the choice loads the SIMD switch and probes
/// three CPU features, a tenth of what a block key's SHA-NI hash costs.
/// A hasher keeps the kernel it was made with, so a pass that starts
/// after [`mendel_seq::simd::set_simd_enabled`] runs the new setting.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(Kernel);

impl KeyHasher {
    /// The kernel this CPU and the SIMD kill switch allow now.
    pub fn dispatched() -> Self {
        KeyHasher(Kernel::dispatch())
    }

    /// [`sha1_u64`] of `data` on this hasher's kernel.
    #[inline]
    pub fn head(self, data: &[u8]) -> u64 {
        head(self.0, data)
    }
}

/// [`sha1_u64`] on a given kernel.
fn head(kernel: Kernel, data: &[u8]) -> u64 {
    let h = if data.len() < 56 {
        let mut block = [0u8; 64];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        kernel.compress(&mut h, &block);
        h
    } else {
        let mut s = Sha1::with_kernel(kernel);
        s.update(data);
        s.finish()
    };
    u64::from(h[0]) << 32 | u64::from(h[1])
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "the SIMD switch lock is a const-built std Mutex, as in mendel-seq's and mendel-align's tests"
)]
mod tests {
    use super::*;
    use mendel_seq::simd::set_simd_enabled;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::{Mutex, MutexGuard};

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Held by every test here that flips the process-wide SIMD switch or
    /// needs it on: the dispatched path must not quietly run scalar.
    fn switch() -> MutexGuard<'static, ()> {
        static SWITCH: Mutex<()> = Mutex::new(());
        SWITCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The digest of `data` with the SIMD switch on, then off.
    fn both_settings(data: &[u8]) -> [[u8; 20]; 2] {
        let _held = switch();
        let on = sha1(data);
        let prev = set_simd_enabled(false);
        let off = sha1(data);
        set_simd_enabled(prev);
        [on, off]
    }

    /// `data`'s hex digest under both settings of the SIMD switch.
    fn fips(data: &[u8], want: &str) {
        for (digest, setting) in both_settings(data).iter().zip(["on", "off"]) {
            assert_eq!(hex(digest), want, "SIMD {setting}");
        }
    }

    /// Whether this CPU runs the SHA-NI kernel with the switch on.
    fn cpu_has_sha_ni() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[test]
    fn fips_vector_empty() {
        fips(b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        fips(b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_two_blocks() {
        fips(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        );
    }

    #[test]
    fn fips_vector_896_bit() {
        // NIST's 896-bit two-block message.
        fips(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "a49b2446a02c645bf419f995b67091253a04a259",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        fips(&data, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn quick_brown_fox() {
        fips(
            b"The quick brown fox jumps over the lazy dog",
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
        );
    }

    /// Every length from empty to past two blocks — through 55/56 and
    /// 119/120, where the padding spills into one more block — and every
    /// split of the streaming hasher's input: one-shot, `sha1_u64` (whose
    /// short inputs take the single stack block) and streaming agree.
    #[test]
    fn every_length_and_split_point_agrees() {
        for n in 0..=130usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + n) as u8).collect();
            let want = sha1(&data);
            assert_eq!(
                sha1_u64(&data),
                u64::from_be_bytes(want[..8].try_into().unwrap()),
                "sha1_u64 at length {n}"
            );
            for split in 0..=n {
                let mut s = Sha1::new();
                s.update(&data[..split]);
                s.update(&data[split..]);
                assert_eq!(s.finalize(), want, "length {n} split at {split}");
            }
            let mut bytewise = Sha1::new();
            for b in &data {
                bytewise.update(std::slice::from_ref(b));
            }
            assert_eq!(bytewise.finalize(), want, "length {n} fed bytewise");
        }
    }

    /// The switch-on (dispatched) path equals the kill-switch path at
    /// every length from empty to past four blocks and every split of the
    /// streaming hasher's input, and `sha1_u64` is the digest's head on
    /// both.
    #[test]
    fn kill_switch_path_equals_the_dispatched_path() {
        let _held = switch();
        for n in 0..=300usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 131 + n * 7) as u8).collect();
            let mut runs = [Vec::new(), Vec::new()];
            for (on, run) in [true, false].into_iter().zip(&mut runs) {
                let prev = set_simd_enabled(on);
                for split in 0..=n {
                    let mut s = Sha1::new();
                    s.update(&data[..split]);
                    s.update(&data[split..]);
                    run.push(s.finalize());
                }
                let head = u64::from_be_bytes(run[0][..8].try_into().unwrap());
                assert_eq!(sha1_u64(&data), head, "length {n}, SIMD on: {on}");
                set_simd_enabled(prev);
            }
            assert_eq!(runs[0], runs[1], "length {n}");
            assert!(runs[0].iter().all(|d| *d == runs[0][0]), "length {n}");
        }
    }

    /// `count` random messages of 0–299 bytes, each streamed in at a
    /// random split point through the dispatched kernel and through the
    /// scalar rounds: equal digests and heads. On a CPU with the SHA
    /// extensions the dispatched kernel must be SHA-NI, so the sweep
    /// cannot quietly compare scalar with scalar.
    fn kernels_agree(count: usize, seed: u64) {
        let _held = switch();
        let dispatched = Kernel::dispatch();
        if cpu_has_sha_ni() {
            assert_ne!(dispatched, Kernel::Scalar, "SHA-NI CPU dispatched scalar");
            assert_eq!(active_kernel(), "sha-ni");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(300);
        for case in 0..count {
            let n = rng.random_range(0..300usize);
            data.clear();
            data.extend((0..n).map(|_| rng.random::<u8>()));
            let split = rng.random_range(0..=n);
            let digest = |kernel| {
                let mut s = Sha1::with_kernel(kernel);
                s.update(&data[..split]);
                s.update(&data[split..]);
                s.finalize()
            };
            let want = digest(Kernel::Scalar);
            assert_eq!(
                digest(dispatched),
                want,
                "case {case}: {n} bytes split at {split}"
            );
            let head = head(Kernel::Scalar, &data);
            assert_eq!(head, u64::from_be_bytes(want[..8].try_into().unwrap()));
            assert_eq!(super::head(dispatched, &data), head, "case {case}: head");
        }
    }

    #[test]
    fn dispatched_kernel_equals_the_scalar_rounds() {
        kernels_agree(2_000, 0x5A1);
    }

    /// The same at 50× the cases, in release only (`ci.sh`).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn dispatched_kernel_equals_the_scalar_rounds_release_sweep() {
        kernels_agree(100_000, 0x5A2);
    }

    #[test]
    fn kill_switch_names_the_scalar_kernel() {
        let _held = switch();
        let prev = set_simd_enabled(false);
        let off = active_kernel();
        set_simd_enabled(prev);
        assert_eq!(off, "scalar");
    }

    #[test]
    fn u64_prefix_is_big_endian_digest_head() {
        let d = sha1(b"abc");
        assert_eq!(
            sha1_u64(b"abc"),
            u64::from_be_bytes(d[..8].try_into().unwrap())
        );
    }

    #[test]
    fn u64_values_look_uniform() {
        // Crude uniformity check: bucket 10k hashed integers into 16 bins.
        let mut bins = [0usize; 16];
        for i in 0..10_000u32 {
            bins[(sha1_u64(&i.to_le_bytes()) % 16) as usize] += 1;
        }
        let (min, max) = (bins.iter().min().unwrap(), bins.iter().max().unwrap());
        assert!(max - min < 200, "bins too skewed: {bins:?}");
    }
}
