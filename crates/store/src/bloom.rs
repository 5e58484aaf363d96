//! Per-segment bloom filters for the negative-lookup fast path.
//!
//! The read path walks segments newest to oldest; most segments do not
//! hold the requested key, and without a filter every miss costs binary
//!-search reads against the segment file. A bloom filter answers
//! "definitely absent" from memory, so negative lookups never touch the
//! file (the SEQUOIA three-tier shape — SNIPPETS.md §2 — collapsed to
//! the one tier this engine needs).
//!
//! Hashing: the key's from-scratch SHA-1 (already the engine's
//! content-address function) is split into two 64-bit halves driving
//! standard double hashing `h1 + i·h2 mod m`.

use mendel_dht::sha1::sha1;

/// Bits per stored key; with `k = 7` hash probes this yields a false
/// positive rate under 1%.
const BITS_PER_KEY: usize = 10;
/// Number of hash probes per key.
const PROBES: u8 = 7;

/// A fixed-size bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u64>,
    /// Total bit count (`m`); not necessarily a multiple of 64.
    m: u32,
    /// Probes per key (`k`).
    k: u8,
}

impl Bloom {
    /// An empty filter sized for roughly `n` keys.
    pub fn with_capacity(n: usize) -> Self {
        let m = (n * BITS_PER_KEY).max(64) as u32;
        Bloom {
            bits: vec![0u64; (m as usize).div_ceil(64)],
            m,
            k: PROBES,
        }
    }

    fn probe_bits(&self, key: &[u8]) -> impl Iterator<Item = u32> + '_ {
        let digest = sha1(key);
        let h1 = u64::from_le_bytes([
            digest[0], digest[1], digest[2], digest[3], digest[4], digest[5], digest[6], digest[7],
        ]);
        // Force h2 odd so successive probes never collapse onto one bit.
        let h2 = u64::from_le_bytes([
            digest[8], digest[9], digest[10], digest[11], digest[12], digest[13], digest[14],
            digest[15],
        ]) | 1;
        let m = self.m as u64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as u32)
    }

    /// Record `key`.
    pub fn insert(&mut self, key: &[u8]) {
        let probes: Vec<u32> = self.probe_bits(key).collect();
        for bit in probes {
            self.bits[bit as usize / 64] |= 1u64 << (bit % 64);
        }
    }

    /// `false` means the key is definitely absent; `true` means it may
    /// be present.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.probe_bits(key)
            .collect::<Vec<_>>()
            .iter()
            .all(|&bit| self.bits[bit as usize / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Serialized form: `[m u32-le][k u8][bitmap little-endian words]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.bits.len() * 8);
        out.extend_from_slice(&self.m.to_le_bytes());
        out.push(self.k);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse [`Self::to_bytes`] output. `None` on any size mismatch.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if buf.len() < 5 {
            return None;
        }
        let m = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let k = buf[4];
        if m == 0 || k == 0 {
            return None;
        }
        let words = (m as usize).div_ceil(64);
        if buf.len() != 5 + words * 8 {
            return None;
        }
        let bits = buf[5..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        Some(Bloom { bits, m, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let mut b = Bloom::with_capacity(200);
        for i in 0u32..200 {
            b.insert(&i.to_le_bytes());
        }
        for i in 0u32..200 {
            assert!(b.may_contain(&i.to_le_bytes()), "key {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut b = Bloom::with_capacity(1000);
        for i in 0u32..1000 {
            b.insert(&i.to_le_bytes());
        }
        let fp = (1000u32..11_000)
            .filter(|i| b.may_contain(&i.to_le_bytes()))
            .count();
        // 10 bits/key, 7 probes: theoretical ~0.8%; allow slack to 3%.
        assert!(fp < 300, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut b = Bloom::with_capacity(50);
        for i in 0u32..50 {
            b.insert(&i.to_le_bytes());
        }
        let rt = Bloom::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(rt, b);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert!(Bloom::from_bytes(&[]).is_none());
        assert!(Bloom::from_bytes(&[0, 0, 0, 0, 7]).is_none(), "m = 0");
        let b = Bloom::with_capacity(10).to_bytes();
        assert!(Bloom::from_bytes(&b[..b.len() - 1]).is_none(), "truncated");
        let mut long = b.clone();
        long.push(0);
        assert!(Bloom::from_bytes(&long).is_none(), "trailing bytes");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = Bloom::with_capacity(10);
        assert!(!b.may_contain(b"anything"));
    }
}
