//! The per-CPU occupancy index behind least-loaded placement and idle
//! stealing.
//!
//! EEVDF, SimpleRR and the scx adapter share one balancing design: a waking
//! task goes to the least-loaded CPU it may run on, and an idle CPU steals
//! one waiter from the CPU with the most waiters. Scanning every CPU for
//! either answer costs O(cores) per wakeup and per idle tick, which on a
//! mostly idle 256-core machine is almost all of the work. [`Occupancy`]
//! keeps the answer's inputs indexed instead, the way Linux's sched_ext
//! keeps an idle cpumask for its policies (`scx_bpf_pick_idle_cpu`):
//!
//! * per CPU, the number of waiting tasks (queued, not running) and whether
//!   a task is running;
//! * across CPUs, three [`CpuMask`]s — `online`, `idle` (nothing waiting,
//!   nothing running) and `has_waiters` — whose bits flip only when a CPU
//!   goes empty ↔ non-empty or idle ↔ busy, so the classes' per-hook
//!   updates stay a compare and, rarely, one bit write.
//!
//! The owning class calls [`Occupancy::set`] after every queue mutation and
//! [`Occupancy::set_online`] from its hotplug hooks, and checks the row in
//! its SchedSan audit ([`Occupancy::audit`]). Placement reads
//! `allowed ∩ online ∩ idle`; idle steal walks `has_waiters ∩ online`.
//! Both return exactly what the exhaustive scans they replace returned, and
//! charge the same modelled scan counts.

use topology::{CpuId, CpuMask};

use crate::sched::SelectStats;
use crate::task::Task;

/// One CPU's occupancy.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    /// Tasks queued on the CPU, excluding the running one.
    waiting: usize,
    /// Whether a task is executing on the CPU.
    running: bool,
}

/// Per-CPU waiting counts and running flags, plus the online, idle and
/// has-waiters masks over them; see the module docs.
#[derive(Debug, Clone)]
pub struct Occupancy {
    rows: Vec<Row>,
    /// Mask words the machine uses (`ceil(nr_cpus / 64)`): the walks stop
    /// there, so a small machine pays for one word, not the full mask.
    words: usize,
    online: CpuMask,
    idle: CpuMask,
    has_waiters: CpuMask,
}

impl Occupancy {
    /// An index over `nr_cpus` CPUs, all online and idle. Panics if
    /// `nr_cpus` exceeds [`topology::MAX_CPUS`].
    pub fn new(nr_cpus: usize) -> Occupancy {
        let all = CpuMask::first_n(nr_cpus);
        Occupancy {
            rows: vec![Row::default(); nr_cpus],
            words: nr_cpus.div_ceil(64),
            online: all,
            idle: all,
            has_waiters: CpuMask::empty(),
        }
    }

    /// Number of CPUs indexed.
    #[inline]
    pub fn nr_cpus(&self) -> usize {
        self.rows.len()
    }

    /// Record that `cpu` now has `waiting` queued tasks and, if `running`,
    /// a task executing. The masks are written only when the CPU crosses
    /// the empty ↔ non-empty or idle ↔ busy line.
    #[inline]
    pub fn set(&mut self, cpu: CpuId, waiting: usize, running: bool) {
        let row = &mut self.rows[cpu.index()];
        let had_waiters = row.waiting > 0;
        let was_idle = !had_waiters && !row.running;
        *row = Row { waiting, running };
        let has_waiters = waiting > 0;
        if has_waiters != had_waiters {
            assign(&mut self.has_waiters, cpu, has_waiters);
        }
        let idle = !has_waiters && !running;
        if idle != was_idle {
            assign(&mut self.idle, cpu, idle);
        }
    }

    /// Mark `cpu` online or hotplugged out. Offline CPUs are never
    /// returned by [`Occupancy::least_loaded`] or [`Occupancy::busiest`].
    #[inline]
    pub fn set_online(&mut self, cpu: CpuId, online: bool) {
        assign(&mut self.online, cpu, online);
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
        let row = &self.rows[cpu.index()];
        row.waiting + usize::from(row.running)
    }

    /// CPUs currently online.
    #[inline]
    pub fn online(&self) -> &CpuMask {
        &self.online
    }

    /// CPUs with nothing waiting and nothing running (online or not).
    #[inline]
    pub fn idle(&self) -> &CpuMask {
        &self.idle
    }

    /// CPUs with at least one waiting task (online or not).
    #[inline]
    pub fn has_waiters(&self) -> &CpuMask {
        &self.has_waiters
    }

    /// The least-loaded online CPU in `task`'s affinity mask, lowest id
    /// among ties; `None` when no online CPU is allowed. The first idle
    /// candidate wins outright (no CPU can carry less than zero load), so
    /// the argmin walk only runs when every candidate is busy.
    ///
    /// `stats.cpus_scanned` is charged |allowed ∩ online| whichever path
    /// answers: the kernel models the scan a real class performs, not the
    /// index lookup.
    pub fn least_loaded(&self, task: &Task, stats: &mut SelectStats) -> Option<CpuId> {
        let candidates =
            |w: usize| self.online.word(w) & task.affinity.as_ref().map_or(u64::MAX, |m| m.word(w));
        let mut scanned = 0;
        let mut first_idle = None;
        for w in 0..self.words {
            let cand = candidates(w);
            scanned += cand.count_ones();
            let idle = cand & self.idle.word(w);
            if first_idle.is_none() && idle != 0 {
                first_idle = Some(lowest(w, idle));
            }
        }
        stats.cpus_scanned += scanned;
        if first_idle.is_some() {
            return first_idle;
        }
        let mut best: Option<(CpuId, usize)> = None;
        for w in 0..self.words {
            let mut cand = candidates(w);
            while cand != 0 {
                let cpu = lowest(w, cand);
                cand &= cand - 1;
                let load = self.load(cpu);
                match best {
                    None => best = Some((cpu, load)),
                    Some((_, b)) if load < b => best = Some((cpu, load)),
                    _ => {}
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// The online CPU other than `thief` with the most waiting tasks, lowest
    /// id among ties; `None` when no other online CPU has a waiter. Walks
    /// only `has_waiters ∩ online`, but charges `stats.cpus_scanned` the
    /// modelled full scan of every CPU.
    pub fn busiest(&self, thief: CpuId, stats: &mut SelectStats) -> Option<CpuId> {
        stats.cpus_scanned += self.rows.len() as u32;
        let mut best: Option<(CpuId, usize)> = None;
        for w in 0..self.words {
            let mut victims = self.has_waiters.word(w) & self.online.word(w);
            while victims != 0 {
                let cpu = lowest(w, victims);
                victims &= victims - 1;
                if cpu == thief {
                    continue;
                }
                let waiting = self.rows[cpu.index()].waiting;
                match best {
                    None => best = Some((cpu, waiting)),
                    Some((_, b)) if waiting > b => best = Some((cpu, waiting)),
                    _ => {}
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// SchedSan check of `cpu`'s row against the owning class's queue,
    /// which holds `waiting` tasks and, if `running`, a running one. Also
    /// checks that the idle and has-waiters bits agree with the row and
    /// that an offline CPU holds no work (the kernel drains a CPU as it
    /// goes offline and never runs one while it is down). A desynced row
    /// would silently steer placement and stealing, so the classes run
    /// this from their [`crate::Scheduler::audit`].
    pub fn audit(&self, cpu: CpuId, waiting: usize, running: bool) -> Result<(), String> {
        let Some(row) = self.rows.get(cpu.index()) else {
            return Err(format!(
                "occupancy has no row for {cpu:?} ({} CPUs)",
                self.rows.len()
            ));
        };
        if row.waiting != waiting {
            return Err(format!(
                "occupancy says {} waiting, the queue holds {waiting}",
                row.waiting
            ));
        }
        if row.running != running {
            return Err(format!(
                "occupancy running flag {} disagrees with the class ({running})",
                row.running
            ));
        }
        if self.has_waiters.contains(cpu) != (waiting > 0) {
            return Err(format!(
                "occupancy has-waiters bit {} with {waiting} waiting",
                self.has_waiters.contains(cpu)
            ));
        }
        let idle = waiting == 0 && !running;
        if self.idle.contains(cpu) != idle {
            return Err(format!(
                "occupancy idle bit {} with {waiting} waiting and running={running}",
                self.idle.contains(cpu)
            ));
        }
        if !self.online.contains(cpu) && !idle {
            return Err(format!(
                "occupancy marks the CPU offline, but it holds {waiting} waiting \
                 and running={running}"
            ));
        }
        Ok(())
    }
}

/// The CPU of the lowest set bit of mask word `w` (`bits` is non-zero).
#[inline]
fn lowest(w: usize, bits: u64) -> CpuId {
    CpuId((w * 64) as u32 + bits.trailing_zeros())
}

/// Set or clear `cpu`'s bit in `mask`.
#[inline]
fn assign(mask: &mut CpuMask, cpu: CpuId, on: bool) {
    if on {
        mask.set(cpu);
    } else {
        mask.clear(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_follow_transitions() {
        let mut o = Occupancy::new(130);
        assert_eq!(o.idle().count(), 130);
        o.set(CpuId(129), 2, true);
        assert!(o.has_waiters().contains(CpuId(129)));
        assert!(!o.idle().contains(CpuId(129)));
        o.set(CpuId(129), 0, true);
        assert!(!o.has_waiters().contains(CpuId(129)));
        assert!(!o.idle().contains(CpuId(129)), "running is busy");
        o.set(CpuId(129), 0, false);
        assert!(o.idle().contains(CpuId(129)));
        assert_eq!(o.load(CpuId(129)), 0);
        o.audit(CpuId(129), 0, false).unwrap();
    }

    #[test]
    fn audit_catches_a_flipped_mask_bit() {
        let mut o = Occupancy::new(4);
        o.set(CpuId(1), 1, false);
        o.audit(CpuId(1), 1, false).unwrap();
        o.has_waiters.clear(CpuId(1));
        assert!(o.audit(CpuId(1), 1, false).is_err());
        o.has_waiters.set(CpuId(1));
        o.idle.set(CpuId(1));
        assert!(o.audit(CpuId(1), 1, false).is_err());
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
