//! The index of CPUs by `tdq_lowpri` behind `sched_pickcpu`'s passes 1
//! and 2.
//!
//! Passes 1 and 2 look for the least-loaded CPU whose most urgent thread
//! (`tdq_lowpri`) is less urgent than the waking one. Reading each
//! candidate's priority multiset costs O(cores) per wakeup whenever the
//! thread is no more urgent than what the CPUs already run, the common
//! case on a busy wide machine. [`LowpriIndex`] keeps the CPUs sorted by
//! that priority instead:
//!
//! * one mask per level, a level per thread priority `0 ..= BATCH_PRIO_MAX`
//!   plus one for an idle CPU ([`IDLE_PRIO`]), each covering only the mask
//!   words the machine uses, as [`sched_api::Occupancy`]'s levels do;
//! * a count per level and a bitmap of the non-empty levels, so a query
//!   visits only the levels that hold a CPU;
//! * each CPU's recorded level.
//!
//! The index is lazy. A queue change only marks its CPU stale, one bit
//! ([`LowpriIndex::mark`]), and [`LowpriIndex::refresh`] re-indexes the
//! stale CPUs before a query reads the levels. A CPU's queues change many
//! times between two wakeups that read them, and a one-CPU machine never
//! queries, so the class hooks pay a bit set, not a level move.
//! [`LowpriIndex::above`] ORs the non-empty levels above a priority into
//! the candidate mask that [`sched_api::Occupancy::least_loaded_in`]
//! narrows to the least-loaded CPU, and [`LowpriIndex::audit`] checks a
//! clean CPU's level against its queues for SchedSan.

use topology::{CpuId, CpuMask, WordBits};

use crate::params::{BATCH_PRIO_MAX, IDLE_PRIO};

/// Levels: one per thread priority `0 ..= BATCH_PRIO_MAX`, then the idle
/// level.
const LEVELS: usize = BATCH_PRIO_MAX as usize + 2;
/// The level of a CPU with nothing runnable ([`IDLE_PRIO`]).
const IDLE_LEVEL: usize = LEVELS - 1;
/// Words of the non-empty-level bitmap.
const LEVEL_WORDS: usize = LEVELS.div_ceil(64);
// A CPU's recorded level is a `u8`.
const _: () = assert!(LEVELS <= 256);

/// The level of a `tdq_lowpri` value.
#[inline]
fn level(lowpri: i32) -> usize {
    if lowpri == IDLE_PRIO {
        IDLE_LEVEL
    } else {
        debug_assert!(
            (0..=BATCH_PRIO_MAX).contains(&lowpri),
            "priority {lowpri} out of range"
        );
        lowpri as usize
    }
}

/// The `tdq_lowpri` value of a level.
fn prio_of(level: usize) -> i32 {
    if level == IDLE_LEVEL {
        IDLE_PRIO
    } else {
        level as i32
    }
}

/// The set bits of `bitmap`, ascending, as level numbers.
fn levels_in(bitmap: [u64; LEVEL_WORDS]) -> impl Iterator<Item = usize> {
    bitmap.into_iter().enumerate().flat_map(|(j, mut word)| {
        std::iter::from_fn(move || {
            let b = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(j * 64 + b)
        })
    })
}

/// The CPUs of a machine by `tdq_lowpri`; see the module docs.
pub(crate) struct LowpriIndex {
    /// Mask words the machine uses (`ceil(nr_cpus / 64)`).
    words: usize,
    /// The level masks, `words` words each: word `w` of level `k` is
    /// `masks[k * words + w]`.
    masks: Box<[u64]>,
    /// CPUs per level.
    counts: [u32; LEVELS],
    /// The levels whose count is not 0.
    nonempty: [u64; LEVEL_WORDS],
    /// Each CPU's recorded level.
    at: Box<[u8]>,
    /// CPUs whose queues may have changed since they were last indexed.
    stale: Box<[u64]>,
}

impl LowpriIndex {
    /// An index over `nr_cpus` CPUs, every one idle and clean.
    pub(crate) fn new(nr_cpus: usize) -> LowpriIndex {
        let words = nr_cpus.div_ceil(64);
        let all = CpuMask::first_n(nr_cpus);
        let mut masks = vec![0; LEVELS * words].into_boxed_slice();
        masks[IDLE_LEVEL * words..]
            .iter_mut()
            .enumerate()
            .for_each(|(w, word)| *word = all.word(w));
        let mut counts = [0; LEVELS];
        counts[IDLE_LEVEL] = nr_cpus as u32;
        let mut nonempty = [0; LEVEL_WORDS];
        nonempty[IDLE_LEVEL / 64] |= 1 << (IDLE_LEVEL % 64);
        LowpriIndex {
            words,
            masks,
            counts,
            nonempty,
            at: vec![IDLE_LEVEL as u8; nr_cpus].into_boxed_slice(),
            stale: vec![0; words].into_boxed_slice(),
        }
    }

    /// Record that `cpu`'s queues changed: its level is read again at the
    /// next [`LowpriIndex::refresh`].
    #[inline]
    pub(crate) fn mark(&mut self, cpu: CpuId) {
        self.stale[cpu.index() / 64] |= 1 << (cpu.index() % 64);
    }

    /// Whether `cpu` is marked and not yet re-indexed.
    #[inline]
    pub(crate) fn is_stale(&self, cpu: CpuId) -> bool {
        self.stale[cpu.index() / 64] >> (cpu.index() % 64) & 1 == 1
    }

    /// Move every stale CPU to the level of its `lowpri(cpu)` and clear
    /// the marks.
    pub(crate) fn refresh(&mut self, lowpri: impl Fn(CpuId) -> i32) {
        for w in 0..self.words {
            let marked = std::mem::take(&mut self.stale[w]);
            for cpu in WordBits::new(w, marked) {
                self.place(cpu, level(lowpri(cpu)));
            }
        }
    }

    /// Move `cpu` to level `to`, if it is not there already.
    #[inline]
    fn place(&mut self, cpu: CpuId, to: usize) {
        let from = usize::from(self.at[cpu.index()]);
        if from == to {
            return;
        }
        let (w, bit) = (cpu.index() / 64, 1u64 << (cpu.index() % 64));
        self.masks[from * self.words + w] &= !bit;
        self.masks[to * self.words + w] |= bit;
        self.counts[from] -= 1;
        if self.counts[from] == 0 {
            self.nonempty[from / 64] &= !(1 << (from % 64));
        }
        if self.counts[to] == 0 {
            self.nonempty[to / 64] |= 1 << (to % 64);
        }
        self.counts[to] += 1;
        self.at[cpu.index()] = to as u8;
    }

    /// The CPUs whose recorded `tdq_lowpri` is above (less urgent than)
    /// the thread priority `prio`, idle CPUs included: the OR of the
    /// non-empty levels above `prio`. Read it after a
    /// [`LowpriIndex::refresh`].
    pub(crate) fn above(&self, prio: i32) -> CpuMask {
        debug_assert!(self.stale.iter().all(|&w| w == 0), "read before a refresh");
        let first = level(prio) + 1;
        let mut keep = self.nonempty;
        for (j, word) in keep.iter_mut().enumerate() {
            let lo = j * 64;
            if first >= lo + 64 {
                *word = 0;
            } else if first > lo {
                *word &= u64::MAX << (first - lo);
            }
        }
        let mut out = CpuMask::empty();
        for k in levels_in(keep) {
            let row = &self.masks[k * self.words..][..self.words];
            for (w, &bits) in row.iter().enumerate() {
                out.or_word(w, bits);
            }
        }
        out
    }

    /// SchedSan check of a clean `cpu`, whose queues give `tdq_lowpri`
    /// `lowpri`: its recorded level must be `lowpri`'s, and its bit must
    /// be set in that level and in no other non-empty level. The caller
    /// skips a stale CPU ([`LowpriIndex::is_stale`]); refreshing here
    /// would hide a change that missed its mark. The passing path only
    /// compares; the message is built in a cold function.
    #[inline]
    pub(crate) fn audit(&self, cpu: CpuId, lowpri: i32) -> Result<(), String> {
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        let at = usize::from(self.at[cpu.index()]);
        let held: u64 = levels_in(self.nonempty)
            .map(|k| self.masks[k * self.words + w] >> b & 1)
            .sum();
        if at == level(lowpri) && held == 1 && self.masks[at * self.words + w] >> b & 1 == 1 {
            Ok(())
        } else {
            Err(self.audit_failure(cpu, lowpri))
        }
    }

    /// The message of a failed [`LowpriIndex::audit`].
    #[cold]
    #[inline(never)]
    fn audit_failure(&self, cpu: CpuId, lowpri: i32) -> String {
        let at = usize::from(self.at[cpu.index()]);
        if at != level(lowpri) {
            return format!(
                "lowpri index records {cpu} at priority {}, but its queues give \
                 tdq_lowpri {lowpri} (a queue change that missed its stale mark)",
                prio_of(at)
            );
        }
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        let held: Vec<String> = (0..LEVELS)
            .filter(|&k| self.masks[k * self.words + w] >> b & 1 == 1)
            .map(|k| {
                let empty = self.nonempty[k / 64] >> (k % 64) & 1 == 0;
                format!("{}{}", prio_of(k), if empty { " (empty)" } else { "" })
            })
            .collect();
        format!(
            "lowpri index puts {cpu} in priority levels [{}], but tdq_lowpri {lowpri} \
             belongs in its own level alone",
            held.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts and the non-empty bitmap agree with the masks, and every
    /// CPU sits in the one level it records.
    fn check_consistent(ix: &LowpriIndex, nr_cpus: usize) {
        for k in 0..LEVELS {
            let row = &ix.masks[k * ix.words..][..ix.words];
            let held: u32 = row.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ix.counts[k], held, "count of level {k}");
            assert_eq!(
                ix.nonempty[k / 64] >> (k % 64) & 1 == 1,
                held > 0,
                "level {k}"
            );
        }
        for c in 0..nr_cpus {
            let at = usize::from(ix.at[c]);
            assert_eq!(
                ix.masks[at * ix.words + c / 64] >> (c % 64) & 1,
                1,
                "cpu{c}"
            );
        }
    }

    #[test]
    fn levels_follow_refreshes_and_answer_like_a_scan() {
        let n = 130;
        let mut ix = LowpriIndex::new(n);
        let mut lowpri = vec![IDLE_PRIO; n];
        check_consistent(&ix, n);
        assert_eq!(ix.above(0).count(), n, "an idle machine is all candidates");
        let mut rng = simcore::SimRng::new(11);
        for round in 0..200 {
            for _ in 0..1 + rng.gen_below(20) {
                let c = rng.gen_below(n as u64) as usize;
                lowpri[c] = match rng.gen_below(4) {
                    0 => IDLE_PRIO,
                    // A few shared priorities, so levels fill and drain.
                    1 => [0, 63, 64, BATCH_PRIO_MAX][rng.gen_below(4) as usize],
                    _ => rng.gen_below(BATCH_PRIO_MAX as u64 + 1) as i32,
                };
                ix.mark(CpuId(c as u32));
            }
            ix.refresh(|c| lowpri[c.index()]);
            check_consistent(&ix, n);
            for (c, &p) in lowpri.iter().enumerate() {
                let cpu = CpuId(c as u32);
                assert!(!ix.is_stale(cpu));
                ix.audit(cpu, p).unwrap();
            }
            let prio = rng.gen_below(BATCH_PRIO_MAX as u64 + 1) as i32;
            let want: CpuMask = (0..n)
                .filter(|&c| lowpri[c] > prio)
                .map(|c| CpuId(c as u32))
                .collect();
            assert_eq!(ix.above(prio), want, "round {round}, prio {prio}");
        }
    }

    #[test]
    fn audit_names_the_cpu_and_both_priorities() {
        let mut ix = LowpriIndex::new(70);
        let cpu = CpuId(66);
        ix.mark(cpu);
        ix.refresh(|_| 40);
        ix.audit(cpu, 40).unwrap();
        // The CPU's queues moved to 12 without a mark.
        let err = ix.audit(cpu, 12).unwrap_err();
        for part in ["cpu66", "priority 40", "tdq_lowpri 12"] {
            assert!(err.contains(part), "{part} missing from: {err}");
        }
        // A stray bit in another non-empty level.
        ix.mark(CpuId(3));
        ix.refresh(|_| 7);
        ix.masks[7 * ix.words + 1] |= 1 << 2;
        let err = ix.audit(cpu, 40).unwrap_err();
        assert!(err.contains("[7, 40]"), "{err}");
        ix.masks[7 * ix.words + 1] &= !(1 << 2);
        ix.audit(cpu, 40).unwrap();
        // A marked CPU is the caller's to skip; the index only reports it.
        ix.mark(cpu);
        assert!(ix.is_stale(cpu));
    }
}
