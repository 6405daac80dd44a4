//! Tiny streaming hash used by the determinism tests.
//!
//! The kernel feeds every trace event into an [`Fnv1a`] hasher; two runs with
//! the same seed must produce the same digest. FNV-1a is not cryptographic —
//! it only needs to be sensitive to any divergence in the event stream.

/// Streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// `PRIME_POW[k]` is the FNV prime raised to `k` (wrapping): the effect of
/// absorbing `k` zero bytes, since XOR with a zero byte changes nothing.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(Fnv1a::PRIME);
        k += 1;
    }
    pow
};

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher.
    pub fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian). Same digest as
    /// `write(&v.to_le_bytes())`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_le(v, 8);
    }

    /// Absorb a `u32` (little-endian). Same digest as
    /// `write(&v.to_le_bytes())`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_le(u64::from(v), 4);
    }

    /// Absorb the low `width` bytes of `v`, little-endian. Bytes up to the
    /// highest non-zero one go through the byte loop; the zero bytes above
    /// it fold into one multiply by `PRIME^k`.
    #[inline]
    fn write_le(&mut self, mut v: u64, width: usize) {
        let used = (64 - v.leading_zeros() as usize).div_ceil(8);
        debug_assert!(used <= width);
        let mut state = self.state;
        for _ in 0..used {
            state = (state ^ (v & 0xff)).wrapping_mul(Self::PRIME);
            v >>= 8;
        }
        self.state = state.wrapping_mul(PRIME_POW[width - used]);
    }

    /// Current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") is a standard vector.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn integer_writes_match_the_byte_loop() {
        let mut rng = crate::SimRng::new(11);
        let mut values: Vec<u64> = vec![0, u64::MAX, 0xff];
        values.extend((0..64).map(|b| 1u64 << b));
        for _ in 0..2000 {
            // Random widths too, so every count of leading zero bytes shows up.
            let v = rng.next_u64();
            values.push(v >> rng.gen_below(64));
        }
        for v in values {
            let (mut fast, mut slow) = (Fnv1a::new(), Fnv1a::new());
            fast.write_u64(v);
            slow.write(&v.to_le_bytes());
            assert_eq!(fast.finish(), slow.finish(), "write_u64({v:#x})");
            let w = v as u32;
            fast.write_u32(w);
            slow.write(&w.to_le_bytes());
            assert_eq!(fast.finish(), slow.finish(), "write_u32({w:#x})");
        }
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
