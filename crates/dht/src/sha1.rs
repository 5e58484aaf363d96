//! SHA-1, implemented from scratch (FIPS 180-1).
//!
//! The paper's second-tier placement uses "a tried-and-true flat hashing
//! scheme, SHA-1, to disperse the blocks within a group" (§V-A2). Only
//! uniformity matters here — SHA-1's cryptographic retirement is
//! irrelevant to load balancing — so a dependency-free 80-round
//! implementation suffices. Validated against the FIPS test vectors.

/// The initial hash value (FIPS 180-1 §7).
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Streaming SHA-1 state.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
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
        Sha1 {
            h: H0,
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
                compress(&mut self.h, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block);
        }
        data = blocks.remainder();
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

/// The compression function over one 64-byte block. The four 20-round
/// phases run as four loops, so no round decides which phase it is in.
fn compress(h: &mut [u32; 5], block: &[u8]) {
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

/// One phase of [`compress`]: a round per schedule word, with the
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
    let h = if data.len() < 56 {
        let mut block = [0u8; 64];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[56..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        compress(&mut h, &block);
        h
    } else {
        let mut s = Sha1::new();
        s.update(data);
        s.finish()
    };
    u64::from(h[0]) << 32 | u64::from(h[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_896_bit() {
        // NIST's 896-bit two-block message.
        assert_eq!(
            hex(&sha1(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "a49b2446a02c645bf419f995b67091253a04a259"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
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
