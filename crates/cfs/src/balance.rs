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

use std::ops::Range;

use sched_api::{DequeueKind, EnqueueKind, Scheduler, SelectStats, TaskTable};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask, Level, Topology, WordBits};

use crate::params::CfsParams;
use crate::placement::refresh_rq;
use crate::Cfs;

/// One scheduling domain, built once and shared by every CPU it spans.
pub(crate) struct SchedDomain {
    level: Level,
    span: CpuMask,
    /// |span|: the modelled cost of scanning the domain.
    span_size: u32,
    /// Disjoint groups partitioning the span (the units compared).
    groups: Vec<SchedGroup>,
    /// How much busier (in percent) the busiest group must be than the
    /// local one before a pass moves anything.
    imbalance_pct: u64,
}

/// One group of a domain, with what every balancing pass needs of it.
struct SchedGroup {
    mask: CpuMask,
    /// |mask|, the divisor of the group's average load.
    size: u64,
    /// The mask words the group's CPUs fall in.
    words: Range<usize>,
}

/// One CPU's balancing state for one of its domains.
pub(crate) struct DomState {
    /// Index of the domain in [`Cfs::doms`].
    dom: usize,
    /// Index of the CPU's own group in the domain.
    local: usize,
    next_balance: Time,
    interval: Dur,
    nr_failed: u32,
}

/// The distinct domains of `topo` and, per CPU, its state for each of its
/// domains ([`Topology::domain_levels`]), smallest first. A domain is
/// built at the first CPU of its span and shared by the rest.
pub(crate) fn build_domains(
    topo: &Topology,
    p: &CfsParams,
) -> (Vec<SchedDomain>, Vec<Vec<DomState>>) {
    let numa = topo.nr_nodes() > 1;
    let mut doms: Vec<SchedDomain> = Vec::new();
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
                        imbalance_pct,
                    });
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
                next_balance: Time::ZERO,
                interval: Dur(p.balance_interval.as_nanos() * p.interval_scaling.pow(lvl as u32)),
                nr_failed: 0,
            });
        }
        per_cpu.push(states);
    }
    (doms, per_cpu)
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

    /// The group's CPUs that are also in `active`, ascending.
    fn active<'a>(&'a self, active: &'a CpuMask) -> impl Iterator<Item = CpuId> + 'a {
        self.words
            .clone()
            .flat_map(move |w| WordBits::new(w, self.mask.word(w) & active.word(w)))
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

    /// One balancing pass of domain `di` with `dst` as the pulling CPU.
    /// Returns the number of tasks migrated.
    fn load_balance(&mut self, tasks: &mut TaskTable, dst: CpuId, di: usize, now: Time) -> usize {
        let DomState {
            dom,
            local,
            nr_failed,
            ..
        } = self.domains[dst.index()][di];
        let pct = self.doms[dom].imbalance_pct;
        // Bring every involved CPU's load average up to date and gather the
        // per-group statistics in the same sweep (each CPU's refresh only
        // affects its own load, so fusing the passes is exact). This runs
        // on the tick path, so it must not allocate.
        //
        // O(active), not O(cores): a CPU outside the active mask has
        // h_nr == 0, zero queued weight, and a fully decayed load average,
        // so refreshing it is a no-op and its contribution to every group
        // statistic is exactly (load 0, nr 0) — skipping it cannot change
        // any balancing decision. At 512 cores with a handful busy, the
        // sweep touches a handful of CPUs instead of all of them.
        let Cfs {
            doms, cpus, active, ..
        } = self;
        let groups = &doms[dom].groups;
        let mut local_avg = 0u64;
        let mut busiest: Option<(usize, u64)> = None;
        for (i, g) in groups.iter().enumerate() {
            let mut load = 0u64;
            let mut nr = 0usize;
            for w in g.words.clone() {
                for c in WordBits::new(w, g.mask.word(w) & active.word(w)) {
                    let rq = &mut cpus[c.index()];
                    refresh_rq(rq, active, c, now);
                    load += rq.load.avg();
                    nr += rq.h_nr;
                }
            }
            let avg = if load == 0 { 0 } else { load * 1024 / g.size };
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
        // ties. Restricted to the active mask: the winner carries runnable
        // tasks (the group had nr > 0), and every skipped CPU's key is
        // exactly (0, 0), so it can never be maximal.
        let Some(src) = groups[bi]
            .active(active)
            .max_by_key(|c| (cpus[c.index()].load.avg(), cpus[c.index()].h_nr))
        else {
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
    use super::*;

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
            let (doms, per_cpu) = build_domains(&topo, &CfsParams::default());
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
                    for g in &shared.groups {
                        assert_eq!(g.size as usize, g.mask.count());
                        assert_eq!(g.active(topo.machine_mask()).count(), g.mask.count());
                    }
                }
            }
        }
        // 8 LLC, 4 node and 1 machine domain instead of 256 × 3 copies.
        let (doms, _) = build_domains(&Topology::numa_256(), &CfsParams::default());
        assert_eq!(doms.len(), 13);
    }
}
