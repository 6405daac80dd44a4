//! The per-CPU occupancy index behind placement and stealing.
//!
//! Every class places a waking task by comparing CPUs' loads and steals
//! from the CPU with the most work. Scanning every CPU for either answer
//! costs O(cores) per wakeup and per idle tick, which on a 256-core machine
//! is almost all of the work. [`Occupancy`] keeps the answer's inputs
//! indexed instead, the way Linux's sched_ext keeps an idle cpumask for its
//! policies (`scx_bpf_pick_idle_cpu`):
//!
//! * per CPU, the number of waiting tasks (queued, not running) and whether
//!   a task is running;
//! * across CPUs, an `online` [`CpuMask`] and two families of level masks:
//!   load level `k` holds the CPUs whose load (waiting + running) is `k`,
//!   and waiting level `k` those with `k` waiting tasks, for `k` below the
//!   last level; the last level holds every larger count. The idle CPUs
//!   are load level 0, the CPUs with waiters the complement of waiting
//!   level 0. The masks cover only the words the machine uses, so a small
//!   machine's index stays small.
//!
//! A row update moves a CPU to another level only when its level changes,
//! a bit clear and a bit set per family, so the classes' per-hook updates
//! stay a couple of compares. The queries answer from the levels with a
//! few word operations per level, and compare rows only inside the last
//! level:
//!
//! * [`Occupancy::least_loaded`] and [`Occupancy::least_loaded_in`]: the
//!   first candidate of the lowest level that has one, which is the lowest
//!   id at the lowest load;
//! * [`Occupancy::busiest`] and [`Occupancy::most_loaded`]: the row
//!   maximum of the last level, else the first candidate of the highest
//!   level down, after a one-pass exit when no candidate has any work;
//! * [`Occupancy::first_idle`]: the first idle candidate.
//!
//! All six classes keep their placement state here. The owning class calls
//! [`Occupancy::set`] after every queue or running-task change and
//! [`Occupancy::set_online`] from its hotplug hooks, and checks the row and
//! its level bits in its SchedSan audit ([`Occupancy::audit`]). Each query
//! returns exactly what the exhaustive scan it replaces returned; the
//! callers charge the modelled scan counts.

use topology::{CpuId, CpuMask, WordBits};

use crate::sched::SelectStats;
use crate::task::Task;

/// Levels per mask family: counts `0 ..= LEVELS - 2` have a level each,
/// and the last level holds every larger count.
const LEVELS: usize = 8;
/// The last level, whose CPUs the queries tell apart by their rows.
const OVERFLOW: usize = LEVELS - 1;

/// The two families of level masks.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// Levels by waiting + running.
    Load = 0,
    /// Levels by waiting alone.
    Wait = 1,
}

/// The level of a count.
#[inline]
fn level(n: usize) -> usize {
    n.min(OVERFLOW)
}

/// One CPU's occupancy.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    /// Tasks queued on the CPU, excluding the running one.
    waiting: usize,
    /// Whether a task is executing on the CPU.
    running: bool,
}

impl Row {
    #[inline]
    fn load(&self) -> usize {
        self.waiting + usize::from(self.running)
    }
}

/// Per-CPU waiting counts and running flags, plus the online mask and the
/// load and waiting levels over them; see the module docs.
#[derive(Debug, Clone)]
pub struct Occupancy {
    rows: Vec<Row>,
    /// Mask words the machine uses (`ceil(nr_cpus / 64)`): the walks stop
    /// there, so a small machine pays for one word, not the full mask.
    words: usize,
    online: CpuMask,
    /// The level masks, `words` words each, grouped by word: word `w` of
    /// level `k` of a family is `levels[(w * 2 + family) * LEVELS + k]`,
    /// so the 16 words that hold one CPU's bits are adjacent.
    levels: Box<[u64]>,
}

impl Occupancy {
    /// An index over `nr_cpus` CPUs, all online and idle. Panics if
    /// `nr_cpus` exceeds [`topology::MAX_CPUS`].
    pub fn new(nr_cpus: usize) -> Occupancy {
        let all = CpuMask::first_n(nr_cpus);
        let words = nr_cpus.div_ceil(64);
        // Allocated before the rows: in the other order simbench's herd-256
        // measured about 0.3 MiB more peak RSS (heap fragmentation).
        let levels = vec![0; 2 * LEVELS * words].into_boxed_slice();
        let mut o = Occupancy {
            rows: vec![Row::default(); nr_cpus],
            words,
            online: all,
            levels,
        };
        for w in 0..words {
            for family in [Family::Load, Family::Wait] {
                let slot = o.slot(family, 0, w);
                o.levels[slot] = all.word(w);
            }
        }
        o
    }

    /// Where word `w` of level `k` of `family` lives in `levels`.
    #[inline]
    fn slot(&self, family: Family, k: usize, w: usize) -> usize {
        (w * 2 + family as usize) * LEVELS + k
    }

    /// Word `w` of level `k` of `family`.
    #[inline]
    fn level_word(&self, family: Family, k: usize, w: usize) -> u64 {
        self.levels[self.slot(family, k, w)]
    }

    /// Number of CPUs indexed.
    #[inline]
    pub fn nr_cpus(&self) -> usize {
        self.rows.len()
    }

    /// Record that `cpu` now has `waiting` queued tasks and, if `running`,
    /// a task executing. A level mask is written only when the CPU's level
    /// in that family changes.
    #[inline]
    pub fn set(&mut self, cpu: CpuId, waiting: usize, running: bool) {
        let row = &mut self.rows[cpu.index()];
        let old = *row;
        *row = Row { waiting, running };
        // A CPU that stays in the last waiting level stays in the last
        // load level too.
        if old.waiting.min(waiting) < OVERFLOW {
            self.relevel(cpu, old);
        }
    }

    /// Move `cpu` from the levels of its `old` row to those of its
    /// current one, where they differ.
    #[inline]
    fn relevel(&mut self, cpu: CpuId, old: Row) {
        let new = self.rows[cpu.index()];
        let (w, bit) = (cpu.index() / 64, 1u64 << (cpu.index() % 64));
        for (family, from, to) in [
            (Family::Load, level(old.load()), level(new.load())),
            (Family::Wait, level(old.waiting), level(new.waiting)),
        ] {
            if from != to {
                let (from, to) = (self.slot(family, from, w), self.slot(family, to, w));
                self.levels[from] &= !bit;
                self.levels[to] |= bit;
            }
        }
    }

    /// Mark `cpu` online or hotplugged out. Offline CPUs are never
    /// returned by the queries.
    #[inline]
    pub fn set_online(&mut self, cpu: CpuId, online: bool) {
        if online {
            self.online.set(cpu);
        } else {
            self.online.clear(cpu);
        }
    }

    /// Tasks waiting on `cpu` (excluding the running one).
    #[inline]
    pub fn waiting(&self, cpu: CpuId) -> usize {
        self.rows[cpu.index()].waiting
    }

    /// Whether a task is executing on `cpu`.
    #[inline]
    pub fn running(&self, cpu: CpuId) -> bool {
        self.rows[cpu.index()].running
    }

    /// Waiting plus running: the load figure placement compares.
    #[inline]
    pub fn load(&self, cpu: CpuId) -> usize {
        self.rows[cpu.index()].load()
    }

    /// CPUs currently online.
    #[inline]
    pub fn online(&self) -> &CpuMask {
        &self.online
    }

    /// Whether `cpu` has nothing waiting and nothing running (online or
    /// not); `false` past the machine.
    #[inline]
    pub fn is_idle(&self, cpu: CpuId) -> bool {
        cpu.index() < self.rows.len()
            && self.level_word(Family::Load, 0, cpu.index() / 64) >> (cpu.index() % 64) & 1 == 1
    }

    /// The CPUs at load level `k` (waiting + running equal to `k`; the last
    /// level, 7, holds every load of 7 or more).
    pub fn load_level(&self, k: usize) -> CpuMask {
        self.level_mask(Family::Load, level(k))
    }

    /// The CPUs at waiting level `k`, as [`Occupancy::load_level`].
    pub fn wait_level(&self, k: usize) -> CpuMask {
        self.level_mask(Family::Wait, level(k))
    }

    fn level_mask(&self, family: Family, k: usize) -> CpuMask {
        (0..self.words)
            .flat_map(|w| WordBits::new(w, self.level_word(family, k, w)))
            .collect()
    }

    /// The least-loaded online CPU in `task`'s affinity mask, lowest id
    /// among ties; `None` when no online CPU is allowed.
    ///
    /// `stats.cpus_scanned` is charged |allowed ∩ online|: the kernel
    /// models the scan a real class performs, not the index lookup.
    pub fn least_loaded(&self, task: &Task, stats: &mut SelectStats) -> Option<CpuId> {
        let cand = self.within(&self.online, task.affinity.as_ref());
        stats.cpus_scanned += (0..self.words).map(|w| cand(w).count_ones()).sum::<u32>();
        self.lowest_load(cand)
    }

    /// The online CPU of `span ∩ allowed` (`None` allows every CPU) with
    /// the lowest load, lowest id among ties; `None` when that set is
    /// empty. Charges nothing. A caller that filters the candidates (ULE's
    /// priority search) narrows `span` first.
    pub fn least_loaded_in(&self, span: &CpuMask, allowed: Option<&CpuMask>) -> Option<CpuId> {
        self.lowest_load(self.within(span, allowed))
    }

    /// The lowest-id online CPU of `span ∩ allowed` (`None` allows every
    /// CPU) with nothing waiting and nothing running. Charges nothing.
    pub fn first_idle(&self, span: &CpuMask, allowed: Option<&CpuMask>) -> Option<CpuId> {
        self.first_at(self.within(span, allowed), |w| {
            self.level_word(Family::Load, 0, w)
        })
    }

    /// The online CPU of `span` other than `thief` with the highest load
    /// of at least `min`, lowest id among ties (ULE's `tdq_idled` victim
    /// rule); `None` when no such CPU exists. Charges nothing.
    ///
    /// A load of 1 or more means the CPU is not idle, and a load of 2 or
    /// more means it has a waiter, so the candidates are first narrowed to
    /// the busy or the waiting CPUs; when that leaves nothing the answer is
    /// `None` after one pass over the words.
    pub fn most_loaded(&self, span: &CpuMask, thief: CpuId, min: usize) -> Option<CpuId> {
        let none = |w: usize| match min {
            0 => 0,
            1 => self.level_word(Family::Load, 0, w),
            _ => self.level_word(Family::Wait, 0, w),
        };
        let cand = self.victims(span, none, thief)?;
        self.highest(Family::Load, Row::load, cand, min)
    }

    /// The online CPU other than `thief` with the most waiting tasks, lowest
    /// id among ties; `None` when no other online CPU has a waiter, after
    /// one pass over the machine's words, so an idle machine's steals stay
    /// cheap.
    ///
    /// Charges `stats.cpus_scanned` the modelled full scan of every CPU.
    pub fn busiest(&self, thief: CpuId, stats: &mut SelectStats) -> Option<CpuId> {
        stats.cpus_scanned += self.rows.len() as u32;
        let none = |w: usize| self.level_word(Family::Wait, 0, w);
        let cand = self.victims(&self.online, none, thief)?;
        self.highest(Family::Wait, |r| r.waiting, cand, 1)
    }

    /// Word `w` of `span ∩ allowed ∩ online` (`allowed` None: every CPU).
    #[inline]
    fn within<'a>(
        &'a self,
        span: &'a CpuMask,
        allowed: Option<&'a CpuMask>,
    ) -> impl Fn(usize) -> u64 + Copy + 'a {
        move |w| span.word(w) & self.online.word(w) & allowed.map_or(u64::MAX, |m| m.word(w))
    }

    /// Word `w` of `span ∩ online ∖ none ∖ {thief}`, or `None` when that
    /// set is empty.
    #[inline]
    fn victims<'a>(
        &'a self,
        span: &'a CpuMask,
        none: impl Fn(usize) -> u64 + Copy + 'a,
        thief: CpuId,
    ) -> Option<impl Fn(usize) -> u64 + Copy + 'a> {
        let (tw, tbit) = (thief.index() / 64, 1u64 << (thief.index() % 64));
        let cand = move |w: usize| {
            let bits = span.word(w) & self.online.word(w) & !none(w);
            if w == tw {
                bits & !tbit
            } else {
                bits
            }
        };
        (0..self.words).any(|w| cand(w) != 0).then_some(cand)
    }

    /// The lowest-id CPU of `cand ∩ level`, both given word by word.
    #[inline]
    fn first_at(&self, cand: impl Fn(usize) -> u64, level: impl Fn(usize) -> u64) -> Option<CpuId> {
        (0..self.words).find_map(|w| WordBits::new(w, cand(w) & level(w)).next())
    }

    /// The lowest (load, id) among the CPUs of `cand`.
    fn lowest_load(&self, cand: impl Fn(usize) -> u64 + Copy) -> Option<CpuId> {
        let last = |w: usize| self.level_word(Family::Load, OVERFLOW, w);
        // A candidate below the last level: the first of the lowest level
        // that holds one. Otherwise (a small machine under load) every
        // candidate sits in the last level, and the rows decide.
        if (0..self.words).any(|w| cand(w) & !last(w) != 0) {
            return (0..OVERFLOW)
                .find_map(|k| self.first_at(cand, |w| self.level_word(Family::Load, k, w)));
        }
        let mut best: Option<(CpuId, usize)> = None;
        for w in 0..self.words {
            for cpu in WordBits::new(w, cand(w) & last(w)) {
                let load = self.load(cpu);
                if best.is_none_or(|(_, b)| load < b) {
                    best = Some((cpu, load));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// The CPU of `cand` with the highest `count` of at least `min`, lowest
    /// id among ties, where `family` levels CPUs by `count`.
    fn highest(
        &self,
        family: Family,
        count: impl Fn(&Row) -> usize,
        cand: impl Fn(usize) -> u64 + Copy,
        min: usize,
    ) -> Option<CpuId> {
        let mut best: Option<(CpuId, usize)> = None;
        for w in 0..self.words {
            for cpu in WordBits::new(w, cand(w) & self.level_word(family, OVERFLOW, w)) {
                let n = count(&self.rows[cpu.index()]);
                if n >= min && best.is_none_or(|(_, b)| n > b) {
                    best = Some((cpu, n));
                }
            }
        }
        if best.is_some() {
            return best.map(|(c, _)| c);
        }
        (min..OVERFLOW)
            .rev()
            .find_map(|k| self.first_at(cand, |w| self.level_word(family, k, w)))
    }

    /// SchedSan check of `cpu`'s row against the owning class's queue,
    /// which holds `waiting` tasks and, if `running`, a running one. Also
    /// checks that the CPU sits in exactly one load level and one waiting
    /// level, the ones its row gives (every update moves both with the
    /// row; a stray bit elsewhere would show a busy CPU as idle), and that
    /// an offline CPU holds no work (the kernel drains a
    /// CPU as it goes offline and never runs one while it is down). A
    /// desynced row would silently steer placement and stealing, so the
    /// classes run this from their [`crate::Scheduler::audit`].
    ///
    /// This runs for every CPU a strict event touches, so the passing path
    /// only compares: the CPU's bits over its 16 level words must sum to 2,
    /// with the bits at the row's two levels set. The message is built
    /// in a cold function, only when a check fails.
    #[inline]
    pub fn audit(&self, cpu: CpuId, waiting: usize, running: bool) -> Result<(), String> {
        let Some(row) = self.rows.get(cpu.index()) else {
            return Err(self.audit_failure(cpu, waiting, running));
        };
        let load = row.load();
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        let column = &self.levels[w * 2 * LEVELS..][..2 * LEVELS];
        let held: u64 = column.iter().map(|word| word >> b & 1).sum();
        let at = |family: Family, n: usize| column[family as usize * LEVELS + level(n)] >> b & 1;
        let ok = row.waiting == waiting
            && row.running == running
            && held == 2
            && at(Family::Load, load) == 1
            && at(Family::Wait, waiting) == 1
            && (load == 0 || self.online.contains(cpu));
        if ok {
            Ok(())
        } else {
            Err(self.audit_failure(cpu, waiting, running))
        }
    }

    /// The message of a failed [`Occupancy::audit`]: the first check, in
    /// the order the docs list them, that `cpu` fails.
    #[cold]
    #[inline(never)]
    fn audit_failure(&self, cpu: CpuId, waiting: usize, running: bool) -> String {
        let Some(row) = self.rows.get(cpu.index()) else {
            return format!(
                "occupancy has no row for {cpu:?} ({} CPUs)",
                self.rows.len()
            );
        };
        if row.waiting != waiting {
            return format!(
                "occupancy says {} waiting, the queue holds {waiting}",
                row.waiting
            );
        }
        if row.running != running {
            return format!(
                "occupancy running flag {} disagrees with the class ({running})",
                row.running
            );
        }
        let load = row.load();
        let (w, b) = (cpu.index() / 64, cpu.index() % 64);
        for (family, name, n) in [
            (Family::Load, "load", load),
            (Family::Wait, "waiting", waiting),
        ] {
            let at: Vec<usize> = (0..LEVELS)
                .filter(|&k| self.level_word(family, k, w) >> b & 1 == 1)
                .collect();
            if at != [level(n)] {
                return format!(
                    "occupancy puts the CPU in {name} levels {at:?}, but a {name} count \
                     of {n} belongs in level {} alone",
                    level(n)
                );
            }
        }
        format!(
            "occupancy marks the CPU offline, but it holds {waiting} waiting \
             and running={running}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_follow_transitions() {
        let mut o = Occupancy::new(130);
        assert_eq!(o.load_level(0).count(), 130);
        o.set(CpuId(129), 2, true);
        assert!(!o.wait_level(0).contains(CpuId(129)));
        assert!(!o.is_idle(CpuId(129)));
        assert!(o.load_level(3).contains(CpuId(129)));
        assert!(o.wait_level(2).contains(CpuId(129)));
        o.set(CpuId(129), 0, true);
        assert!(o.wait_level(0).contains(CpuId(129)));
        assert!(!o.is_idle(CpuId(129)), "running is busy");
        o.set(CpuId(129), 0, false);
        assert!(o.is_idle(CpuId(129)));
        assert!(!o.is_idle(CpuId(130)), "past the machine");
        assert_eq!(o.load(CpuId(129)), 0);
        o.audit(CpuId(129), 0, false).unwrap();
    }

    #[test]
    fn counts_past_the_last_level_share_it() {
        let mut o = Occupancy::new(4);
        o.set(CpuId(1), 9, true);
        o.set(CpuId(2), 7, false);
        assert!(o.load_level(OVERFLOW).contains(CpuId(1)));
        assert!(o.load_level(OVERFLOW).contains(CpuId(2)));
        assert!(o.wait_level(100).contains(CpuId(1)));
        o.set(CpuId(1), 12, true);
        o.audit(CpuId(1), 12, true).unwrap();
        let mut stats = SelectStats::default();
        assert_eq!(o.busiest(CpuId(0), &mut stats), Some(CpuId(1)));
        assert_eq!(o.busiest(CpuId(1), &mut stats), Some(CpuId(2)));
    }

    #[test]
    fn audit_catches_a_flipped_mask_bit() {
        // CPU 1 of 4 in load and waiting level 1 (word 0), and CPU 129 of
        // 130 in the last level of both families (word 2), idle and busy.
        for (nr, cpu, waiting, running) in [
            (4, CpuId(1), 1, false),
            (130, CpuId(129), 7, false),
            (130, CpuId(129), 9, true),
        ] {
            let label = format!("{cpu} of {nr}, {waiting} waiting, running={running}");
            let mut o = Occupancy::new(nr);
            o.set(cpu, waiting, running);
            o.audit(cpu, waiting, running).unwrap();
            let (w, bit) = (cpu.index() / 64, 1u64 << (cpu.index() % 64));
            // Flip the CPU's bit in each level of each family: a missing
            // bit at its own two levels, a stray one elsewhere (at level
            // 0 a busy CPU would read as idle).
            for family in [Family::Wait, Family::Load] {
                for k in 0..LEVELS {
                    let slot = o.slot(family, k, w);
                    o.levels[slot] ^= bit;
                    assert!(
                        o.audit(cpu, waiting, running).is_err(),
                        "{label}: {family:?} {k}"
                    );
                    o.levels[slot] ^= bit;
                    o.audit(cpu, waiting, running).unwrap();
                }
            }
            // Stray bits in both level 0s: the busy CPU now reads as idle.
            for family in [Family::Wait, Family::Load] {
                let slot = o.slot(family, 0, w);
                o.levels[slot] |= bit;
            }
            assert!(o.is_idle(cpu), "{label}");
            let err = o.audit(cpu, waiting, running).expect_err(&label);
            let held = format!("load levels [0, {}]", level(waiting + usize::from(running)));
            assert!(err.contains(&held), "{label}: {err}");
            for family in [Family::Wait, Family::Load] {
                let slot = o.slot(family, 0, w);
                o.levels[slot] &= !bit;
            }
            o.audit(cpu, waiting, running).unwrap();
            // A row that moved to another level without its bits.
            o.rows[cpu.index()].waiting = 0;
            assert!(o.audit(cpu, 0, running).is_err(), "{label}");
        }
    }

    #[test]
    fn audit_catches_work_on_an_offline_cpu() {
        let mut o = Occupancy::new(2);
        o.set(CpuId(1), 0, true);
        o.set_online(CpuId(1), false);
        assert!(o.audit(CpuId(1), 0, true).is_err());
        o.set(CpuId(1), 0, false);
        o.audit(CpuId(1), 0, false).unwrap();
    }
}
