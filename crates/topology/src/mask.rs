//! Fixed-capacity CPU bitset.
//!
//! Affinity masks, topology spans and online-CPU tracking were `Vec<CpuId>`
//! / `Vec<bool>` until the 256+-core scenarios made every linear scan on the
//! dispatch path visible. [`CpuMask`] is the dense replacement: a fixed
//! array of `u64` words (512 CPUs capacity — one cache line), with the
//! word-wise operations the schedulers need: popcount, first-set,
//! intersection/union, and ascending-order iteration via `trailing_zeros`.
//!
//! Iteration order is *always* ascending CPU id, exactly the order the old
//! `Vec<CpuId>` spans were built in — this is what keeps decision digests
//! byte-identical across the representation change.

use serde::{Serialize, Value};

use crate::CpuId;

/// Maximum number of logical CPUs a [`CpuMask`] (and therefore a
/// simulation) can address.
pub const MAX_CPUS: usize = 512;
const WORDS: usize = MAX_CPUS / 64;

/// A fixed-capacity bitset over [`CpuId`]s (Linux's `struct cpumask`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask {
    words: [u64; WORDS],
}

impl CpuMask {
    /// The empty mask.
    #[inline]
    pub const fn empty() -> CpuMask {
        CpuMask { words: [0; WORDS] }
    }

    /// A mask with the first `n` CPUs set (the "all online" mask of an
    /// `n`-CPU machine). Panics if `n` exceeds [`MAX_CPUS`].
    pub fn first_n(n: usize) -> CpuMask {
        assert!(
            n <= MAX_CPUS,
            "CpuMask capacity is {MAX_CPUS} CPUs, got {n}"
        );
        let mut m = CpuMask::empty();
        for w in 0..WORDS {
            let lo = w * 64;
            if n >= lo + 64 {
                m.words[w] = u64::MAX;
            } else if n > lo {
                m.words[w] = (1u64 << (n - lo)) - 1;
            }
        }
        m
    }

    /// A mask containing exactly `cpu`.
    #[inline]
    pub fn single(cpu: CpuId) -> CpuMask {
        let mut m = CpuMask::empty();
        m.set(cpu);
        m
    }

    /// Set `cpu`'s bit. Panics if the id exceeds [`MAX_CPUS`] (a
    /// construction-time bug, never reachable from the dispatch path: the
    /// topology constructors reject machines larger than the capacity).
    #[inline]
    pub fn set(&mut self, cpu: CpuId) {
        let i = cpu.index();
        assert!(
            i < MAX_CPUS,
            "CpuId {i} exceeds CpuMask capacity {MAX_CPUS}"
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear `cpu`'s bit (out-of-range ids are a no-op: they were never set).
    #[inline]
    pub fn clear(&mut self, cpu: CpuId) {
        let i = cpu.index();
        if i < MAX_CPUS {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Whether `cpu`'s bit is set.
    #[inline]
    pub fn contains(&self, cpu: CpuId) -> bool {
        let i = cpu.index();
        i < MAX_CPUS && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits (popcount).
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest set CPU id, if any.
    #[inline]
    pub fn first_set(&self) -> Option<CpuId> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(CpuId((w * 64) as u32 + word.trailing_zeros()));
            }
        }
        None
    }

    /// Intersection (`self & other`).
    #[inline]
    pub fn and(&self, other: &CpuMask) -> CpuMask {
        let mut out = CpuMask::empty();
        for w in 0..WORDS {
            out.words[w] = self.words[w] & other.words[w];
        }
        out
    }

    /// Union (`self | other`).
    #[inline]
    pub fn or(&self, other: &CpuMask) -> CpuMask {
        let mut out = CpuMask::empty();
        for w in 0..WORDS {
            out.words[w] = self.words[w] | other.words[w];
        }
        out
    }

    /// Difference (`self & !other`).
    #[inline]
    pub fn and_not(&self, other: &CpuMask) -> CpuMask {
        let mut out = CpuMask::empty();
        for w in 0..WORDS {
            out.words[w] = self.words[w] & !other.words[w];
        }
        out
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &CpuMask) {
        for w in 0..WORDS {
            self.words[w] |= other.words[w];
        }
    }

    /// Bits `64 * i .. 64 * i + 63` as one word (0 past the capacity), for
    /// walks that stop at the last word a machine uses instead of the
    /// full [`MAX_CPUS`] capacity.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Union `bits` into word `i`, the counterpart of [`CpuMask::word`]
    /// for masks built a word at a time. Panics if `i` is past the
    /// capacity.
    #[inline]
    pub fn or_word(&mut self, i: usize, bits: u64) {
        self.words[i] |= bits;
    }

    /// Whether the two masks share any set bit (cheaper than
    /// `!self.and(other).is_empty()` — no temporary, early exit).
    #[inline]
    pub fn intersects(&self, other: &CpuMask) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterate set bits in ascending CPU-id order.
    #[inline]
    pub fn iter(&self) -> CpuMaskIter<'_> {
        CpuMaskIter {
            mask: self,
            word: 0,
            bits: self.words[0],
        }
    }
}

impl FromIterator<CpuId> for CpuMask {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> CpuMask {
        let mut m = CpuMask::empty();
        for cpu in iter {
            m.set(cpu);
        }
        m
    }
}

impl<'a> IntoIterator for &'a CpuMask {
    type Item = CpuId;
    type IntoIter = CpuMaskIter<'a>;
    fn into_iter(self) -> CpuMaskIter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the set bits of a [`CpuMask`].
pub struct CpuMaskIter<'a> {
    mask: &'a CpuMask,
    word: usize,
    bits: u64,
}

impl Iterator for CpuMaskIter<'_> {
    type Item = CpuId;

    #[inline]
    fn next(&mut self) -> Option<CpuId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(CpuId((self.word * 64) as u32 + bit));
            }
            self.word += 1;
            if self.word >= WORDS {
                return None;
            }
            self.bits = self.mask.words[self.word];
        }
    }
}

/// The CPUs of one mask word's set bits, ascending: bit `i` of word `w`
/// is CPU `64 * w + i`. Queries that combine several masks a word at a
/// time (see [`CpuMask::word`]) walk the result with it.
#[derive(Debug, Clone, Copy)]
pub struct WordBits {
    word: usize,
    bits: u64,
}

impl WordBits {
    /// The set bits of `bits`, taken as mask word `word`.
    #[inline]
    pub fn new(word: usize, bits: u64) -> WordBits {
        WordBits { word, bits }
    }
}

impl Iterator for WordBits {
    type Item = CpuId;

    #[inline]
    fn next(&mut self) -> Option<CpuId> {
        if self.bits == 0 {
            return None;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(CpuId((self.word * 64) as u32 + bit))
    }
}

/// Compact `{0-7,16,24-31}` range notation — readable at 256+ CPUs in crash
/// bundles, where the old `Vec` debug print was a wall of ids.
impl std::fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        let mut run: Option<(u32, u32)> = None;
        let flush = |f: &mut std::fmt::Formatter<'_>,
                     run: &mut Option<(u32, u32)>,
                     first: &mut bool|
         -> std::fmt::Result {
            if let Some((lo, hi)) = run.take() {
                if !*first {
                    write!(f, ",")?;
                }
                *first = false;
                if lo == hi {
                    write!(f, "{lo}")?;
                } else {
                    write!(f, "{lo}-{hi}")?;
                }
            }
            Ok(())
        };
        for cpu in self.iter() {
            match run {
                Some((lo, hi)) if cpu.0 == hi + 1 => run = Some((lo, cpu.0)),
                _ => {
                    flush(f, &mut run, &mut first)?;
                    run = Some((cpu.0, cpu.0));
                }
            }
        }
        flush(f, &mut run, &mut first)?;
        write!(f, "}}")
    }
}

impl std::fmt::Display for CpuMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Serialized as the ascending list of set CPU ids (readable in JSON
/// reports, independent of the word representation).
impl Serialize for CpuMask {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(|c| Value::UInt(c.0 as u64)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut m = CpuMask::empty();
        assert!(m.is_empty());
        m.set(CpuId(0));
        m.set(CpuId(63));
        m.set(CpuId(64));
        m.set(CpuId(511));
        assert_eq!(m.count(), 4);
        assert!(m.contains(CpuId(63)) && m.contains(CpuId(64)));
        assert!(!m.contains(CpuId(1)));
        m.clear(CpuId(63));
        assert!(!m.contains(CpuId(63)));
        assert_eq!(m.first_set(), Some(CpuId(0)));
    }

    #[test]
    fn iteration_is_ascending() {
        let ids = [511u32, 0, 64, 3, 200];
        let m: CpuMask = ids.iter().map(|&i| CpuId(i)).collect();
        let got: Vec<u32> = m.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![0, 3, 64, 200, 511]);
    }

    #[test]
    fn first_n_and_ops() {
        let a = CpuMask::first_n(100);
        assert_eq!(a.count(), 100);
        let b = CpuMask::single(CpuId(99)).or(&CpuMask::single(CpuId(100)));
        assert_eq!(a.and(&b).count(), 1);
        assert!(a.intersects(&b));
        assert_eq!(a.and_not(&b).count(), 99);
        assert_eq!(CpuMask::first_n(512).count(), 512);
        assert_eq!(CpuMask::first_n(0).count(), 0);
    }

    #[test]
    fn words_cover_64_cpus_each() {
        let m: CpuMask = [0u32, 63, 64, 511].iter().map(|&i| CpuId(i)).collect();
        assert_eq!(m.word(0), 1 | 1 << 63);
        assert_eq!(m.word(1), 1);
        assert_eq!(m.word(7), 1 << 63);
        assert_eq!(m.word(8), 0, "past the capacity");
    }

    #[test]
    fn word_bits_ascend_within_their_word() {
        let got: Vec<u32> = WordBits::new(2, 1 | 1 << 5 | 1 << 63)
            .map(|c| c.0)
            .collect();
        assert_eq!(got, vec![128, 133, 191]);
        assert_eq!(WordBits::new(7, 0).next(), None);
    }

    #[test]
    fn debug_ranges() {
        let m: CpuMask = (0..8).chain(16..17).chain(24..32).map(CpuId).collect();
        assert_eq!(format!("{m:?}"), "{0-7,16,24-31}");
        assert_eq!(format!("{:?}", CpuMask::empty()), "{}");
    }
}
