//! Hierarchical load balancing.
//!
//! §2.1: "Load balancing also happens periodically. Every 4ms every core
//! tries to steal work from other cores. This load balancing takes into
//! account the topology of the machine (...). When a core decides to steal
//! work from another core, it tries to even out the load between the two
//! cores by stealing as many as 32 threads. Cores also immediately call the
//! periodic load balancer when they become idle." Between NUMA nodes, "if
//! the load difference between the nodes is small (less than 25% in
//! practice), then no load balancing is performed."
//!
//! Each distinct domain is built once and shared by the CPUs it spans
//! (`build_domains`). A pass compares the domain's groups by their
//! average load: the Σ of their active CPUs' load averages, brought up to
//! the pass's instant, × 1024 / |group|.
//!
//! **Group statistics are kept between passes.** Each shared group has an
//! entry: its load sum, task count and average, the CPU a pass would pull
//! from, and a deadline, the earliest instant at which an active member's
//! PELT period rolls over ([`RqLoad::next_period`](crate::pelt::RqLoad::next_period),
//! `last + PERIOD − frac`). The class's change hook marks every group
//! holding a CPU dirty whenever that CPU's `h_nr` or `tw_sum` changes,
//! its load average changes other than at a rollover (an attach or a
//! detach), or an enqueue sets its active bit. A pass reads a clean entry
//! before its deadline as it is, with no refresh and no division; it
//! sweeps a dirty or due group as every pass once swept all of them,
//! which rebuilds the entry. This is exact:
//!
//! * a refresh that crosses no period boundary changes no average, and
//!   skipping it changes no later update's result, since `frac + (t −
//!   last)` adds up the same either way (an attach or detach between the
//!   two, as enqueue and dequeue make before their own update, changes
//!   nothing about that);
//! * a rollover needs no hook: no member's update crosses a boundary
//!   before the member's own rollover, which is at or after the deadline,
//!   so the first pass after it sweeps the group anyway;
//! * so no member of a clean group before its deadline would change, and
//!   none would leave the active mask: every member the last sweep left
//!   active was not idle with a zero average, and still is not;
//! * active bits are still cleared only where a sweep clears them, which
//!   matters because enqueue refreshes an inactive CPU before it attaches;
//!   a cleared CPU adds nothing to any entry, so the clear needs no hook.
//!
//! A member whose average already equals its target cannot move at a
//! rollover either, but it still sets the deadline: skipping its refresh
//! would not be exact, because enqueue and dequeue attach or detach before
//! their own update, which would then decay the change across the skipped
//! rollover.
//!
//! SchedSan's class audit checks each CPU against what the last sweep
//! counted of it (load average, `h_nr` and next rollover, kept until the
//! hook drops it), refreshing nothing: a change made without the hook
//! leaves the count in place, so the audit of the CPU the change touched
//! fails, naming the clean entries that hold the old values. The check is
//! O(1) per call, where recounting a group's sums would cost a walk of its
//! CPUs on every strict event.

use std::ops::Range;

use sched_api::{DequeueKind, EnqueueKind, Scheduler, SelectStats, TaskTable};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask, Level, Topology, WordBits};

use crate::params::CfsParams;
use crate::{Cfs, Counted, CpuRq};

/// One scheduling domain, built once and shared by every CPU it spans.
pub(crate) struct SchedDomain {
    pub(crate) level: Level,
    span: CpuMask,
    /// |span|: the modelled cost of scanning the domain.
    pub(crate) span_size: u32,
    /// Disjoint groups partitioning the span (the units compared).
    pub(crate) groups: Vec<SchedGroup>,
    /// The entry of group 0 in [`Cfs::group_loads`]; group `i`'s is at
    /// `base + i`.
    base: usize,
    /// How much busier (in percent) the busiest group must be than the
    /// local one before a pass moves anything.
    pub(crate) imbalance_pct: u64,
}

/// One group of a domain, with what every balancing pass needs of it.
pub(crate) struct SchedGroup {
    pub(crate) mask: CpuMask,
    /// |mask|, the divisor of the group's average load.
    pub(crate) size: u64,
    /// The mask words the group's CPUs fall in.
    words: Range<usize>,
}

/// One CPU's balancing state for one of its domains.
pub(crate) struct DomState {
    /// Index of the domain in [`Cfs::doms`].
    pub(crate) dom: usize,
    /// Index of the CPU's own group in the domain.
    pub(crate) local: usize,
    /// The own group's entry in [`Cfs::group_loads`].
    pub(crate) gid: usize,
    pub(crate) next_balance: Time,
    pub(crate) interval: Dur,
    pub(crate) nr_failed: u32,
}

/// A shared group's statistics as the last sweep of it left them; see the
/// module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct GroupLoad {
    /// The earliest period rollover of an active member: the first
    /// instant at which a refresh could change the entry. [`Time::ZERO`]
    /// marks the entry dirty: no rollover falls there, since `frac` stays
    /// below a period.
    due: Time,
    /// Σ load average of the group's active CPUs.
    load: u64,
    /// Σ `h_nr` of them.
    nr: usize,
    /// `load × 1024 / |group|`.
    avg: u64,
    /// The CPU a pass pulls from if the group is the busiest: the last
    /// active one with the most load, then the longest queue.
    busiest: Option<CpuId>,
}

impl GroupLoad {
    /// An entry the first pass must sweep.
    pub(crate) const DIRTY: GroupLoad = GroupLoad {
        due: Time::ZERO,
        load: 0,
        nr: 0,
        avg: 0,
        busiest: None,
    };

    /// A member changed: the next pass must sweep the group.
    #[inline]
    pub(crate) fn mark_dirty(&mut self) {
        self.due = Time::ZERO;
    }

    /// Whether a member changed since the entry was built.
    pub(crate) fn is_dirty(&self) -> bool {
        self.due == Time::ZERO
    }
}

/// A group's entry being counted from its active CPUs, ascending.
struct Tally {
    e: GroupLoad,
    /// The busiest CPU's key so far.
    top: (u64, usize),
}

impl Tally {
    fn new() -> Tally {
        Tally {
            e: GroupLoad {
                due: Time::MAX,
                ..GroupLoad::DIRTY
            },
            top: (0, 0),
        }
    }

    /// Count active CPU `c` as it stands.
    #[inline]
    fn add(&mut self, c: CpuId, rq: &CpuRq) {
        let key = (rq.load.avg(), rq.h_nr);
        self.e.load += key.0;
        self.e.nr += key.1;
        self.e.due = self.e.due.min(rq.load.next_period());
        if key >= self.top {
            (self.e.busiest, self.top) = (Some(c), key);
        }
    }

    /// The entry of a group of `size` CPUs.
    fn entry(self, size: u64) -> GroupLoad {
        let load = self.e.load;
        let avg = if load == 0 { 0 } else { load * 1024 / size };
        GroupLoad { avg, ..self.e }
    }
}

/// The distinct domains of `topo` and, per CPU, its state for each of its
/// domains ([`Topology::domain_levels`]), smallest first, plus the number
/// of shared groups. A domain is built at the first CPU of its span and
/// shared by the rest.
pub(crate) fn build_domains(
    topo: &Topology,
    p: &CfsParams,
) -> (Vec<SchedDomain>, Vec<Vec<DomState>>, usize) {
    let numa = topo.nr_nodes() > 1;
    let mut doms: Vec<SchedDomain> = Vec::new();
    let mut ngroups = 0;
    let mut per_cpu = Vec::with_capacity(topo.nr_cpus());
    for cpu in topo.all_cpus() {
        let mut states = Vec::new();
        for (lvl, level) in topo.domain_levels(cpu).into_iter().enumerate() {
            let span = topo.span_mask(cpu, level);
            let dom = match doms
                .iter()
                .rposition(|d| d.level == level && d.span == *span)
            {
                Some(i) => i,
                None => {
                    let d = topo.domain(cpu, level);
                    let imbalance_pct = if numa && level == Level::Machine {
                        p.imbalance_pct_numa
                    } else {
                        p.imbalance_pct_llc
                    };
                    doms.push(SchedDomain {
                        level,
                        span: d.span,
                        span_size: d.span.count() as u32,
                        groups: d.groups.iter().map(SchedGroup::new).collect(),
                        base: ngroups,
                        imbalance_pct,
                    });
                    ngroups += d.groups.len();
                    doms.len() - 1
                }
            };
            let local = doms[dom]
                .groups
                .iter()
                .position(|g| g.mask.contains(cpu))
                .expect("a domain's groups partition a span holding its CPU");
            states.push(DomState {
                dom,
                local,
                gid: doms[dom].base + local,
                next_balance: Time::ZERO,
                interval: Dur(p.balance_interval.as_nanos() * p.interval_scaling.pow(lvl as u32)),
                nr_failed: 0,
            });
        }
        per_cpu.push(states);
    }
    (doms, per_cpu, ngroups)
}

impl SchedGroup {
    fn new(mask: &CpuMask) -> SchedGroup {
        let first = mask.first_set().map_or(0, |c| c.index() / 64);
        let last = mask.iter().last().map_or(0, |c| c.index() / 64);
        SchedGroup {
            mask: *mask,
            size: mask.count() as u64,
            words: first..last + 1,
        }
    }
}

impl Cfs {
    /// Periodic balancing opportunity on `cpu`'s tick: walk its domains,
    /// balance each whose interval expired (if this CPU is the designated
    /// balancer of its group). Appends the destination CPU to `out` once
    /// per task migrated, so the kernel can reschedule it.
    pub(crate) fn periodic_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        out: &mut Vec<CpuId>,
    ) {
        for di in 0..self.domains[cpu.index()].len() {
            {
                let ds = &mut self.domains[cpu.index()][di];
                if now < ds.next_balance {
                    continue;
                }
                ds.next_balance = now + ds.interval;
            }
            if !self.should_we_balance(cpu, di) {
                continue;
            }
            let moved = self.load_balance(tasks, cpu, di, now);
            for _ in 0..moved {
                out.push(cpu);
            }
        }
    }

    /// Newidle balancing: the CPU just went idle and tries to pull work
    /// immediately, walking its domains from closest to farthest.
    pub(crate) fn newidle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        for di in 0..self.domains[cpu.index()].len() {
            let dom = &self.doms[self.domains[cpu.index()][di].dom];
            // Linux does not set SD_BALANCE_NEWIDLE on NUMA domains: a
            // newly idle CPU only pulls from within its node; cross-node
            // imbalance is left to the (25%-tolerant) periodic balancer.
            if dom.level == Level::Machine && self.topo.nr_nodes() > 1 {
                break;
            }
            // Charge the *modeled* cost of the full-span scan (a real
            // kernel walks every rq); the host-side walk below only
            // touches active CPUs.
            stats.cpus_scanned += dom.span_size;
            if self.load_balance(tasks, cpu, di, now) > 0 {
                return true;
            }
        }
        false
    }

    /// Only one CPU per group balances a domain: the first idle CPU of the
    /// local group, or the group's first CPU if none is idle
    /// (`should_we_balance`). Offline CPUs neither balance nor count as
    /// idle candidates.
    pub(crate) fn should_we_balance(&self, cpu: CpuId, di: usize) -> bool {
        let ds = &self.domains[cpu.index()][di];
        let local = &self.doms[ds.dom].groups[ds.local].mask;
        let first = match self.occ.first_idle(local, None) {
            Some(idle) => Some(idle),
            None => local.and(self.occ.online()).first_set(),
        };
        first == Some(cpu)
    }

    /// Sweep group `g` of domain `dom` as every pass once swept every
    /// group: bring its active CPUs' load averages up to `now` and count
    /// them into a new entry in the same sweep (each CPU's refresh only
    /// affects its own load, so fusing the passes is exact), and record
    /// for the audit what was counted of each. The new entry is clean.
    /// This runs on the tick path, so it must not allocate.
    ///
    /// O(active), not O(cores): a CPU outside the active mask has h_nr ==
    /// 0, zero queued weight, and a fully decayed load average, so
    /// refreshing it is a no-op and its contribution to every group
    /// statistic is exactly (load 0, nr 0); skipping it cannot change any
    /// balancing decision.
    #[cold]
    fn sweep_group(&mut self, dom: usize, g: usize, now: Time) {
        let grp = &self.doms[dom].groups[g];
        let (words, size) = (grp.words.clone(), grp.size);
        let mut t = Tally::new();
        for w in words {
            let bits = self.doms[dom].groups[g].mask.word(w) & self.active.word(w);
            for c in WordBits::new(w, bits) {
                self.refresh_load(c, now);
                // A CPU the refresh dropped counts for nothing.
                if self.active.contains(c) {
                    let rq = &mut self.cpus[c.index()];
                    rq.counted = Some((rq.load.avg(), rq.h_nr, rq.load.next_period()));
                    t.add(c, rq);
                }
            }
        }
        self.group_loads[self.doms[dom].base + g] = t.entry(size);
    }

    /// The audit's message for a CPU that no longer holds what a balance
    /// sweep counted of it, naming the clean group entries that hold the
    /// old values.
    #[cold]
    pub(crate) fn counted_drift(&self, cpu: CpuId, kept: Counted, now: Counted) -> String {
        let groups: Vec<String> = self.domains[cpu.index()]
            .iter()
            .filter(|ds| !self.group_loads[ds.gid].is_dirty())
            .map(|ds| {
                let dom = &self.doms[ds.dom];
                let first = dom.groups[ds.local].mask.first_set().unwrap_or(cpu);
                format!("{:?} balance group at {first}", dom.level)
            })
            .collect();
        format!(
            "the CPU holds load {}, {} task(s), next rollover {}, but the clean entries of \
             the {} keep load {}, {} task(s), next rollover {} for it",
            now.0,
            now.1,
            now.2,
            groups.join(", "),
            kept.0,
            kept.1,
            kept.2
        )
    }

    /// One balancing pass of domain `di` with `dst` as the pulling CPU.
    /// Returns the number of tasks migrated.
    fn load_balance(&mut self, tasks: &mut TaskTable, dst: CpuId, di: usize, now: Time) -> usize {
        let DomState {
            dom,
            local,
            nr_failed,
            ..
        } = self.domains[dst.index()][di];
        let d = &self.doms[dom];
        let (pct, base, n) = (d.imbalance_pct, d.base, d.groups.len());
        // Each group's average and task count at `now`: a clean entry
        // before its deadline as it is, any other after a sweep.
        let mut local_avg = 0u64;
        let mut busiest: Option<(usize, u64)> = None;
        for i in 0..n {
            if now >= self.group_loads[base + i].due {
                self.sweep_group(dom, i, now);
            }
            let GroupLoad { avg, nr, .. } = self.group_loads[base + i];
            if i == local {
                local_avg = avg;
            } else if nr > 0 {
                match busiest {
                    Some((_, b)) if avg <= b => {}
                    _ => busiest = Some((i, avg)),
                }
            }
        }
        let Some((bi, busiest_avg)) = busiest else {
            return 0;
        };
        // The imbalance threshold: e.g. 125 between NUMA nodes means the
        // busiest group must exceed the local group by 25 % to bother.
        if busiest_avg * 100 <= local_avg * pct {
            return 0;
        }
        // Busiest CPU inside the busiest group, preferring load then queue
        // length (a spinner-storm CPU wins both ways), the last maximum on
        // ties, as the group's entry records it. Restricted to the active
        // mask: the winner carries runnable tasks (the group had nr > 0),
        // and every skipped CPU's key is exactly (0, 0), so it can never be
        // maximal.
        let Some(src) = self.group_loads[base + bi].busiest else {
            return 0;
        };
        if self.cpus[src.index()].h_nr <= 1 {
            self.domains[dst.index()][di].nr_failed += 1;
            return 0;
        }

        // Even out the pair: move up to half the load difference, capped at
        // 32 tasks per pass.
        let imbalance = self.cpu_load(src).saturating_sub(self.cpu_load(dst)) / 2;
        let mut moved = 0usize;
        let mut moved_load = 0u64;
        // Steal from the tail of the source rq (largest vruntime first);
        // the candidate list lives in a reused scratch buffer because this
        // runs on the tick path.
        let mut candidates = std::mem::take(&mut self.scratch_tids);
        candidates.clear();
        self.queued_tids_into(src, &mut candidates);
        candidates.reverse();
        for tid in candidates.drain(..) {
            if moved >= self.p.max_migrate || moved_load >= imbalance {
                break;
            }
            // Never more tasks than would invert the queue-length balance.
            if self.cpus[src.index()].h_nr <= self.cpus[dst.index()].h_nr + 1 {
                break;
            }
            let task = tasks.get(tid);
            if !task.allowed_on(dst) {
                continue;
            }
            // Cache-hot tasks resist migration until balancing has failed
            // repeatedly (`task_hot` + `cache_nice_tries`).
            let hot = now.saturating_since(task.last_ran) < self.p.migration_cost;
            if hot && nr_failed <= self.p.cache_nice_tries {
                continue;
            }
            let w_moved = self.tent(tid).ent.weight;
            self.dequeue_task(tasks, src, tid, DequeueKind::Migrate, now);
            tasks.get_mut(tid).cpu = dst;
            self.enqueue_task(tasks, dst, tid, EnqueueKind::Migrate, now);
            moved += 1;
            moved_load += w_moved;
        }
        self.scratch_tids = candidates;
        let ds = &mut self.domains[dst.index()][di];
        if moved == 0 {
            ds.nr_failed += 1;
        } else {
            ds.nr_failed = 0;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use sched_api::{GroupId, Task, TaskState, Tid, WakeKind};

    use super::*;

    /// A task forked and enqueued on `cpu` at `now`.
    fn spawn(cfs: &mut Cfs, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Tid {
        let tid = tasks.insert_with(|t| Task::new(t, "t", GroupId::ROOT));
        cfs.task_fork(tasks, tid, None, now);
        let t = tasks.get_mut(tid);
        (t.cpu, t.last_cpu, t.state) = (cpu, cpu, TaskState::Runnable);
        cfs.enqueue_task(tasks, cpu, tid, EnqueueKind::New, now);
        tid
    }

    #[test]
    fn audit_catches_a_load_change_without_the_hook() {
        // Two LLCs of two CPUs: an LLC domain of single CPUs and a node
        // domain of the two LLCs, both led by CPU 2 on its side.
        let topo = Topology::regular("x", 1, 2, 2, 1);
        let (cpu, now) = (CpuId(2), Time::ZERO + Dur::millis(1));
        let mut cfs = Cfs::new(&topo);
        let mut tasks = TaskTable::new();
        spawn(&mut cfs, &mut tasks, cpu, now);
        // A pass over both domains sweeps every group: all entries clean.
        for di in 0..cfs.domains[cpu.index()].len() {
            cfs.load_balance(&mut tasks, cpu, di, now);
        }
        assert!(cfs.domains[cpu.index()]
            .iter()
            .all(|ds| !cfs.group_loads[ds.gid].is_dirty()));
        cfs.audit(&tasks, cpu, now).unwrap();
        // A load change as an attach makes it, without the hook.
        cfs.cpus[cpu.index()].load.attach(100);
        let err = cfs.audit(&tasks, cpu, now).unwrap_err();
        for part in [
            "Llc balance group at cpu2",
            "keep load 1024,",
            "holds load 1124,",
        ] {
            assert!(err.contains(part), "{part} missing from: {err}");
        }
        // With the hook the entries are dirty, so the audit skips them,
        // and the next pass rebuilds them.
        cfs.load_changed(cpu);
        cfs.audit(&tasks, cpu, now).unwrap();
        for di in 0..cfs.domains[cpu.index()].len() {
            cfs.load_balance(&mut tasks, cpu, di, now);
        }
        cfs.audit(&tasks, cpu, now).unwrap();
    }

    #[test]
    fn audit_catches_a_change_the_idlest_order_missed() {
        let topo = Topology::flat(4);
        let (cpu, now) = (CpuId(1), Time::ZERO + Dur::millis(1));
        let mut cfs = Cfs::new(&topo);
        let mut tasks = TaskTable::new();
        // Two forks at one instant: the second builds the order.
        for _ in 0..2 {
            let tid = tasks.insert_with(|t| Task::new(t, "t", GroupId::ROOT));
            cfs.task_fork(&tasks, tid, None, now);
            let to = cfs
                .select_task_rq(
                    &tasks,
                    tid,
                    WakeKind::New,
                    cpu,
                    now,
                    &mut SelectStats::default(),
                )
                .unwrap();
            let t = tasks.get_mut(tid);
            (t.cpu, t.last_cpu, t.state) = (to, to, TaskState::Runnable);
            cfs.enqueue_task(&mut tasks, to, tid, EnqueueKind::New, now);
        }
        // The first fork went to CPU 0; only CPU 1 changed since the build.
        assert!(cfs.idlest.built_at(now));
        assert_eq!(tasks.get(Tid(0)).cpu, CpuId(0));
        cfs.audit(&tasks, CpuId(0), now).unwrap();
        cfs.cpus[0].load.attach(100);
        let err = cfs.audit(&tasks, CpuId(0), now).unwrap_err();
        for part in ["idlest order keeps load Some(1024)", "holds Some(1124)"] {
            assert!(err.contains(part), "{part} missing from: {err}");
        }
        cfs.load_changed(CpuId(0));
        cfs.audit(&tasks, CpuId(0), now).unwrap();
    }

    #[test]
    fn shared_domains_match_each_cpus_own() {
        for topo in [
            Topology::single_core(),
            Topology::core_i7_3770(),
            Topology::opteron_6172(),
            Topology::flat(65),
            Topology::regular("x", 2, 2, 2, 2),
            Topology::numa_256(),
        ] {
            let (doms, per_cpu, ngroups) = build_domains(&topo, &CfsParams::default());
            let mut base = 0;
            for d in &doms {
                assert_eq!(d.base, base);
                base += d.groups.len();
            }
            assert_eq!(base, ngroups);
            for cpu in topo.all_cpus() {
                let own = topo.domains(cpu);
                assert_eq!(per_cpu[cpu.index()].len(), own.len());
                for (ds, d) in per_cpu[cpu.index()].iter().zip(&own) {
                    let shared = &doms[ds.dom];
                    assert_eq!((shared.level, shared.span), (d.level, d.span));
                    assert_eq!(shared.span_size as usize, d.span.count());
                    let masks: Vec<CpuMask> = shared.groups.iter().map(|g| g.mask).collect();
                    assert_eq!(masks, d.groups);
                    assert!(shared.groups[ds.local].mask.contains(cpu));
                    assert_eq!(ds.gid, shared.base + ds.local);
                    for g in &shared.groups {
                        assert_eq!(g.size as usize, g.mask.count());
                        let in_words: u32 =
                            g.words.clone().map(|w| g.mask.word(w).count_ones()).sum();
                        assert_eq!(in_words as usize, g.mask.count());
                    }
                }
            }
        }
        // 8 LLC, 4 node and 1 machine domain instead of 256 × 3 copies.
        let (doms, _, _) = build_domains(&Topology::numa_256(), &CfsParams::default());
        assert_eq!(doms.len(), 13);
    }
}
