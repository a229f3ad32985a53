//! The engine's internal table hasher.
//!
//! Every hot table the engine owns — the basis store's entry and
//! in-flight tables, a batch's dedupe index, the probe memo, the draw
//! ledgers, the recipe memo and the VG catalog — is keyed by values the
//! engine derives itself: parameter points drawn from parsed parameter
//! domains and slider values, call-site keys, stream ids and recipe
//! keys. std's default SipHash-1-3 spends most of a lookup on those short
//! keys defending against adversarial collisions none of them can carry,
//! so these tables spell their maps `HashMap<K, V, FastBuild>` instead.
//!
//! [`FastHasher`] is an FxHash-style word hasher (rotate, xor, multiply
//! per 64-bit word) with a final avalanche, so both the low bits that
//! pick a bucket and the high bits that tag it depend on every input
//! bit. It is:
//!
//! * **deterministic** — unseeded, and the same on every platform and
//!   run (words are read little-endian and `usize` hashes as `u64`;
//!   `fast_hash_outputs_are_pinned` pins it). Map *iteration order* is
//!   still never relied on: the analyzer's `map-iter` pass audits every
//!   walk over these maps exactly as over `RandomState` ones;
//! * **not DoS-resistant** — an adversary who picks keys can force
//!   collisions. That is acceptable because no key of these tables comes
//!   from outside the engine: parameter values come from parsed domains
//!   and checked slider values, and the engine derives stream ids and
//!   recipe keys itself. A wire-level service tier, where clients would
//!   pick keys, is parked; a table keyed by untrusted input keeps std's
//!   `RandomState`.
//!
//! It is not configurable: no table keeps a SipHash twin.

use std::hash::{BuildHasherDefault, Hasher};

/// The per-word multiplier (FxHash's): odd, with well-spread bits.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic [`Hasher`] for tables keyed by
/// engine-derived values. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FastHasher`]: a
/// zero-sized, unseeded `S` for `HashMap<K, V, FastBuild>`.
pub type FastBuild = BuildHasherDefault<FastHasher>;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.add(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The running word through MurmurHash3's 64-bit finalizer.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fast(value: impl Hash) -> u64 {
        FastBuild::default().hash_one(value)
    }

    /// The outputs are a stability contract: the same on every run and
    /// platform (no seed, little-endian words, `usize` as `u64`). The
    /// pins were cross-checked against an independent model of the
    /// algorithm, and the last is how a two-parameter `ParamPoint`
    /// hashes (a length-prefixed slice of `(name, value)` pairs).
    #[test]
    fn fast_hash_outputs_are_pinned() {
        assert_eq!(fast(0u64), 0);
        assert_eq!(fast(1u64), 0x37e8_d294_6949_7cd2);
        assert_eq!(fast(u64::MAX), 0x92f9_6f6a_0392_ef8d);
        assert_eq!(fast(7usize), fast(7u64));
        assert_eq!(fast("CapacityModel"), 0xb6a6_dc0e_611f_bbf0);
        assert_eq!(fast((3u64, 400u64)), 0x2eaa_a2dc_3386_ab4c);
        assert_eq!(
            fast([("current", 7i64), ("feature", 12)]),
            0x68fb_32d4_ad4a_1f8a
        );
    }

    #[test]
    fn every_byte_of_a_string_counts() {
        let names = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "abcdefgh",
            "abcdefgi",
            "abcdefghi",
        ];
        let mut seen: Vec<u64> = names.iter().map(fast).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), names.len());
    }

    #[test]
    fn low_and_high_bits_both_move() {
        // Consecutive small keys — slider values, world ids — must spread
        // over the bucket bits (low) and the tag bits (high) alike.
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for i in 0..256u64 {
            let h = fast(i);
            low.push(h & 0xff);
            high.push(h >> 56);
        }
        for bits in [&mut low, &mut high] {
            bits.sort_unstable();
            bits.dedup();
            assert!(bits.len() > 140, "only {} of 256 distinct", bits.len());
        }
    }
}
