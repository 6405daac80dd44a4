//! Thread placement: `select_task_rq_fair`.
//!
//! §2.1 of the paper: "The scheduler first decides which cores are suitable
//! to host the thread. ... if CFS detects a 1-to-many producer-consumer
//! pattern, then it spreads out the consumer threads as much as possible
//! (...). In a 1-to-1 communication pattern, CFS restricts the list of
//! suitable cores to cores sharing a cache with the thread that initiated
//! the wakeup. Then, among all suitable cores, CFS chooses the core with the
//! lowest load."
//!
//! This module implements Linux's `wake_wide` flip heuristic, the
//! `wake_affine` waker-vs-prev choice, `select_idle_sibling` within the LLC,
//! and idlest-CPU search for forks and wide wakeups.

use sched_api::{SelectError, SelectStats, TaskTable, Tid, WakeKind};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask};

use crate::{Cfs, CpuRq};

impl Cfs {
    /// Entry point used by `select_task_rq`. Errors when no online CPU
    /// satisfies the task's affinity mask (hotplug raced a pinned task);
    /// the kernel turns that into a crash bundle instead of a panic.
    pub(crate) fn select_cpu(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        kind: WakeKind,
        waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        match kind {
            WakeKind::New => self.find_idlest(tasks, tid, now, stats),
            WakeKind::Wakeup { waker } => {
                let prev = tasks.get(tid).last_cpu;
                let wide = match waker {
                    Some(w) if tasks.contains(w) => {
                        self.record_wakee(w, tid, now);
                        self.wake_wide(w, tid, waking_cpu)
                    }
                    _ => false,
                };
                if wide {
                    // 1-to-many pattern: spread over the whole machine.
                    return self.find_idlest(tasks, tid, now, stats);
                }
                // 1-to-1 pattern: stay near the waker if its CPU is not
                // more loaded than where the wakee slept. The comparison
                // uses instantaneous runnable weight (as Linux's
                // wake_affine effectively counts the running waker), so a
                // CPU that just became busy is not mistaken for idle.
                let task = tasks.get(tid);
                let online = self.occ.online();
                let target = if task.allowed_on(waking_cpu)
                    && online.contains(waking_cpu)
                    && (self.cpus[waking_cpu.index()].tw_sum < self.cpus[prev.index()].tw_sum
                        || !online.contains(prev))
                {
                    waking_cpu
                } else if task.allowed_on(prev) && online.contains(prev) {
                    prev
                } else {
                    self.first_allowed(tasks, tid)?
                };
                self.select_idle_sibling(tasks, tid, target, stats)
            }
        }
    }

    /// Load of a CPU as seen by placement and balancing: the decaying
    /// runqueue load average (refresh with [`Cfs::refresh_load`] first).
    pub(crate) fn cpu_load(&self, cpu: CpuId) -> u64 {
        self.cpus[cpu.index()].load.avg()
    }

    /// Bring a CPU's load average up to `now` ([`refresh_rq`]).
    pub(crate) fn refresh_load(&mut self, cpu: CpuId, now: Time) {
        refresh_rq(&mut self.cpus[cpu.index()], &mut self.active, cpu, now);
    }

    /// Lowest-id online CPU in the task's affinity mask — the deterministic
    /// last-resort placement. One word-AND over the bitsets instead of a
    /// full-machine scan; an empty intersection is a structured error, not
    /// a panic (the kernel builds the crash bundle).
    fn first_allowed(&self, tasks: &TaskTable, tid: Tid) -> Result<CpuId, SelectError> {
        tasks
            .get(tid)
            .allowed_online(self.occ.online())
            .first_set()
            .ok_or(SelectError { tid })
    }

    /// Track whether `waker` keeps waking the same task or many different
    /// ones (`record_wakee`): flips decay by half every second.
    pub(crate) fn record_wakee(&mut self, waker: Tid, wakee: Tid, now: Time) {
        let te = self.tent_mut(waker);
        while now.saturating_since(te.wakee_decay) >= Dur::secs(1) {
            te.wakee_flips /= 2;
            te.wakee_decay += Dur::secs(1);
            if te.wakee_flips == 0 {
                te.wakee_decay = now;
                break;
            }
        }
        if te.last_wakee != Some(wakee) {
            te.last_wakee = Some(wakee);
            te.wakee_flips += 1;
        }
    }

    /// Linux's `wake_wide`: detect 1-to-many producer/consumer wakeups.
    pub(crate) fn wake_wide(&self, waker: Tid, wakee: Tid, waking_cpu: CpuId) -> bool {
        let factor = self.topo.llc_cpus(waking_cpu).len() as u32;
        let mut master = self.tent(waker).wakee_flips;
        let mut slave = self.tent(wakee).wakee_flips;
        if master < slave {
            std::mem::swap(&mut master, &mut slave);
        }
        slave >= factor && master >= slave.saturating_mul(factor)
    }

    /// Linux's `select_idle_sibling`: prefer `target` if idle, otherwise an
    /// idle CPU sharing `target`'s LLC, otherwise `target` itself. Charges
    /// the modelled scan: `target`, then the LLC's CPUs in id order up to
    /// the idle one found (all of them on a miss).
    pub(crate) fn select_idle_sibling(
        &self,
        tasks: &TaskTable,
        tid: Tid,
        target: CpuId,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let task = tasks.get(tid);
        stats.cpus_scanned += 1;
        let ok = task.allowed_on(target) && self.occ.online().contains(target);
        if ok && self.occ.is_idle(target) {
            return Ok(target);
        }
        let llc = self.topo.llc_mask(target);
        match self.occ.first_idle(llc, task.affinity.as_ref()) {
            Some(c) => {
                stats.cpus_scanned += llc.and(&CpuMask::first_n(c.index() + 1)).count() as u32;
                Ok(c)
            }
            None => {
                stats.cpus_scanned += self.topo.llc_cpus(target).len() as u32;
                if ok {
                    Ok(target)
                } else {
                    self.first_allowed(tasks, tid)
                }
            }
        }
    }

    /// Lowest-load CPU among the allowed ones (fork placement and wide
    /// wakeups; `find_idlest_group`/`find_idlest_cpu` collapsed onto the
    /// flat CPU set). Charges every allowed online CPU.
    pub(crate) fn find_idlest(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let cand = tasks.get(tid).allowed_online(self.occ.online());
        stats.cpus_scanned += cand.count() as u32;
        // Linux's find_idlest_cpu compares load averages only; the blocked
        // residue of sleeping tasks blurs the comparison, which is exactly
        // how CFS ends up doubling threads onto one core (§6.3).
        //
        // A CPU outside the active mask has load 0, and refreshing it
        // changes nothing, so the first one stands in for all of them and
        // only the active candidates are refreshed and compared.
        let mut best = cand.and_not(&self.active).first_set().map(|c| (0, c));
        for c in cand.and(&self.active).iter() {
            self.refresh_load(c, now);
            let key = (self.cpu_load(c), c);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, c)| c).ok_or(SelectError { tid })
    }
}

/// Bring `rq`'s load average up to `now` and keep `cpu`'s bit in the
/// active mask: once the CPU is idle *and* its average has decayed to
/// exactly zero, further refreshes are no-ops, so it drops out of the
/// O(active) sweeps until its next enqueue.
pub(crate) fn refresh_rq(rq: &mut CpuRq, active: &mut CpuMask, cpu: CpuId, now: Time) {
    let tw = rq.tw_sum;
    rq.load.update(now, tw);
    if rq.h_nr == 0 && tw == 0 && rq.load.avg() == 0 {
        active.clear(cpu);
    } else {
        active.set(cpu);
    }
}
