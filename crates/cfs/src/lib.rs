//! The Completely Fair Scheduler, as described in §2.1 of the paper
//! (Linux 4.9 semantics).
//!
//! * **Per-core scheduling** — weighted fair queueing over *vruntime*:
//!   each entity's virtual runtime advances at `wall_time × 1024 / weight`;
//!   the entity with the smallest vruntime runs next. Since Linux 2.6.38
//!   fairness is arbitrated *between applications*: threads live in cgroup
//!   runqueues, and a per-(group, cpu) *group entity* competes in the root
//!   runqueue with a weight derived from the group's shares.
//! * **Starvation avoidance** — every thread runs within a scheduling
//!   period (48 ms, stretched to 6 ms × n beyond 8 threads); new threads
//!   start at the maximum waiting vruntime; waking threads are clamped to
//!   `min_vruntime − bonus` so long sleepers run first.
//! * **Wakeup preemption** — a waking thread preempts the current one only
//!   if its vruntime is more than 1 ms behind (cache friendliness).
//! * **Load balancing** — per-entity decaying load averages (PELT), hier-
//!   archical sched-domains balanced every 4 ms, up to 32 tasks migrated
//!   per pass, and a 25 % imbalance tolerance between NUMA nodes.
//!
//! The load-balancing and thread-placement halves live in [`balance`] and
//! [`placement`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod entity;
#[cfg(test)]
mod model_tests;
pub mod params;
pub mod pelt;
pub mod placement;

use sched_api::{
    weights, DequeueKind, EnqueueKind, GroupId, Occupancy, Preempt, PreemptCause, Scheduler,
    SelectError, SelectStats, TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask, Topology};

use balance::{DomState, SchedDomain};
use entity::{CfsRq, EntKey, Entity};
use params::CfsParams;
use pelt::RqLoad;

/// Per-task CFS state (`struct sched_entity` for a task).
pub(crate) struct TaskEnt {
    pub(crate) ent: Entity,
    /// Effective cgroup (ROOT when cgroups are disabled).
    pub(crate) group: GroupId,
    /// Wakeup-pattern detection for `wake_wide` (1-to-many producers).
    pub(crate) wakee_flips: u32,
    pub(crate) wakee_decay: Time,
    pub(crate) last_wakee: Option<Tid>,
    /// `sum_exec` snapshot when the task was last picked (slice tracking).
    pub(crate) slice_start_exec: Dur,
}

/// Per-(group, cpu) state: the group's runqueue of tasks on that CPU plus
/// the group entity competing in the root runqueue.
pub(crate) struct GroupCpu {
    pub(crate) ge: Entity,
    pub(crate) rq: CfsRq,
    /// Σ task weights queued on this CPU (including a running one).
    pub(crate) queued_weight: u64,
    /// Whether the group entity is accounted in the root rq.
    pub(crate) active: bool,
}

/// Per-group state.
pub(crate) struct Group {
    pub(crate) per_cpu: Vec<GroupCpu>,
    /// Σ task weights across all CPUs (for share distribution).
    pub(crate) total_weight: u64,
    pub(crate) shares: u64,
}

/// Per-CPU state.
pub(crate) struct CpuRq {
    pub(crate) root: CfsRq,
    pub(crate) curr: Option<Tid>,
    /// Total runnable tasks on the CPU, including the running one.
    pub(crate) h_nr: usize,
    /// Instantaneous Σ of runnable task weights (including the running
    /// task), the target the load average tracks.
    pub(crate) tw_sum: u64,
    /// Decaying runqueue load average (`cfs_rq->avg.load_avg`).
    pub(crate) load: RqLoad,
}

/// The CFS scheduling class.
pub struct Cfs {
    pub(crate) topo: Topology,
    pub(crate) p: CfsParams,
    pub(crate) tents: Vec<Option<TaskEnt>>,
    pub(crate) groups: Vec<Group>,
    pub(crate) cpus: Vec<CpuRq>,
    /// The distinct scheduling domains, each built once and shared by the
    /// CPUs it spans.
    pub(crate) doms: Vec<SchedDomain>,
    /// Per CPU, its balancing state for each of its domains, smallest
    /// first.
    pub(crate) domains: Vec<Vec<DomState>>,
    /// Each CPU's runnable count (`h_nr`, split into waiting and the
    /// running task) and the online mask: placement finds idle CPUs here
    /// ([`Cfs::sync`] keeps it current).
    pub(crate) occ: Occupancy,
    /// CPUs with runnable tasks *or* undecayed load residue. Balancing
    /// group scans iterate this instead of all CPUs: a CPU outside the
    /// mask contributes exactly (load 0, nr 0) to every group statistic,
    /// so skipping it cannot change any balancing decision.
    pub(crate) active: CpuMask,
    /// Reused migration-candidate buffer (`load_balance` runs every few
    /// ticks; re-collecting the source rq into a fresh `Vec` each time was
    /// measurable in the event loop).
    pub(crate) scratch_tids: Vec<Tid>,
    /// Per-CPU `min_vruntime` observed by the last [`Scheduler::audit`]
    /// call, for the monotonicity invariant.
    pub(crate) last_audit_min: Vec<u64>,
}

impl Cfs {
    /// CFS with default parameters on `topo`.
    pub fn new(topo: &Topology) -> Cfs {
        Cfs::with_params(topo, CfsParams::default())
    }

    /// CFS with explicit parameters.
    pub fn with_params(topo: &Topology, p: CfsParams) -> Cfs {
        let ncpu = topo.nr_cpus();
        let (doms, domains) = balance::build_domains(topo, &p);
        Cfs {
            topo: topo.clone(),
            p,
            tents: Vec::new(),
            groups: Vec::new(),
            cpus: (0..ncpu)
                .map(|_| CpuRq {
                    root: CfsRq::default(),
                    curr: None,
                    h_nr: 0,
                    tw_sum: 0,
                    load: RqLoad::default(),
                })
                .collect(),
            doms,
            domains,
            occ: Occupancy::new(ncpu),
            active: CpuMask::empty(),
            scratch_tids: Vec::new(),
            last_audit_min: vec![0; ncpu],
        }
    }

    /// Access to the parameters (for ablation benches).
    pub fn params(&self) -> &CfsParams {
        &self.p
    }

    /// Bring `cpu`'s occupancy row up to date with `h_nr` and `curr`. Every
    /// site that changes either calls it.
    pub(crate) fn sync(&mut self, cpu: CpuId) {
        let c = &self.cpus[cpu.index()];
        let running = c.curr.is_some();
        self.occ.set(cpu, c.h_nr - usize::from(running), running);
    }

    pub(crate) fn eff_group(&self, tasks: &TaskTable, tid: Tid) -> GroupId {
        if self.p.cgroups {
            tasks.get(tid).group
        } else {
            GroupId::ROOT
        }
    }

    pub(crate) fn ensure_group(&mut self, g: GroupId, now: Time) {
        let ncpu = self.cpus.len();
        while self.groups.len() <= g.index() {
            let shares = self.p.group_shares;
            self.groups.push(Group {
                per_cpu: (0..ncpu)
                    .map(|_| GroupCpu {
                        ge: Entity::new(shares, now),
                        rq: CfsRq::default(),
                        queued_weight: 0,
                        active: false,
                    })
                    .collect(),
                total_weight: 0,
                shares,
            });
        }
    }

    /// `min_vruntime` of the rq that holds group `g`'s tasks on `cpu`.
    pub(crate) fn rq_min_of(&self, g: GroupId, cpu: CpuId) -> u64 {
        if g == GroupId::ROOT {
            self.cpus[cpu.index()].root.min_vruntime
        } else if g.index() < self.groups.len() {
            self.groups[g.index()].per_cpu[cpu.index()].rq.min_vruntime
        } else {
            0
        }
    }

    pub(crate) fn tent(&self, tid: Tid) -> &TaskEnt {
        self.tents[tid.index()].as_ref().expect("cfs entity")
    }

    pub(crate) fn tent_mut(&mut self, tid: Tid) -> &mut TaskEnt {
        self.tents[tid.index()].as_mut().expect("cfs entity")
    }

    /// Recompute the group entity's weight on `cpu` from the share split
    /// (`shares × local_weight / total_weight`), adjusting the root rq's
    /// weight sum if the entity is accounted there.
    pub(crate) fn update_group_weight(&mut self, g: GroupId, cpu: CpuId) {
        if g == GroupId::ROOT {
            return;
        }
        let grp = &mut self.groups[g.index()];
        let gc = &mut grp.per_cpu[cpu.index()];
        let new = if grp.total_weight == 0 || gc.queued_weight == 0 {
            2
        } else {
            (grp.shares * gc.queued_weight / grp.total_weight).max(2)
        };
        let old = gc.ge.weight;
        if new != old {
            gc.ge.weight = new;
            if gc.active {
                let root = &mut self.cpus[cpu.index()].root;
                root.weight_sum = (root.weight_sum + new).saturating_sub(old);
            }
        }
    }

    /// Bring the running task's vruntime, PELT load and the min_vruntimes
    /// up to date (`update_curr`).
    pub(crate) fn update_curr(&mut self, cpu: CpuId, now: Time) {
        let Some(tid) = self.cpus[cpu.index()].curr else {
            return;
        };
        let g = self.tent(tid).group;
        let te = self.tent_mut(tid);
        let delta = now.saturating_since(te.ent.exec_start);
        te.ent.exec_start = now;
        if !delta.is_zero() {
            te.ent.sum_exec += delta;
            te.ent.vruntime += te.ent.calc_delta_fair(delta);
        }
        te.ent.pelt.update(now, true);
        te.ent.load_contrib = te.ent.pelt.load(te.ent.weight);
        let task_v = te.ent.vruntime;
        let c = &mut self.cpus[cpu.index()];
        let tw = c.tw_sum;
        c.load.update(now, tw);

        if g == GroupId::ROOT {
            c.root.refresh_min_vruntime(Some(task_v));
        } else {
            let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
            if !delta.is_zero() {
                gc.ge.vruntime += gc.ge.calc_delta_fair(delta);
                gc.ge.sum_exec += delta;
            }
            gc.rq.refresh_min_vruntime(Some(task_v));
            let ge_v = gc.ge.vruntime;
            self.cpus[cpu.index()].root.refresh_min_vruntime(Some(ge_v));
        }
    }

    /// The ideal slice of the running task: `period(h_nr)` × its share of
    /// the weights along the hierarchy.
    pub(crate) fn sched_slice(&self, cpu: CpuId, tid: Tid) -> Dur {
        let c = &self.cpus[cpu.index()];
        let period = self.p.period(c.h_nr.max(1));
        let te = self.tent(tid);
        // `x * num / den`, dropping to 64-bit division when the product
        // fits (it almost always does: period × weight ≲ 2^50); the u128
        // divide is a libcall and this runs on every tick.
        fn mul_div(x: u128, num: u64, den: u64) -> u128 {
            let prod = x * num as u128;
            if prod >> 64 == 0 {
                (prod as u64 / den) as u128
            } else {
                prod / den as u128
            }
        }
        let mut slice = period.as_nanos() as u128;
        if te.group == GroupId::ROOT {
            slice = mul_div(slice, te.ent.weight, c.root.weight_sum.max(1));
        } else {
            let gc = &self.groups[te.group.index()].per_cpu[cpu.index()];
            slice = mul_div(slice, te.ent.weight, gc.rq.weight_sum.max(1));
            slice = mul_div(slice, gc.ge.weight, c.root.weight_sum.max(1));
        }
        Dur(slice as u64).max(Dur::millis(1))
    }

    /// Wakeup-preemption test (`check_preempt_wakeup`): compare at the
    /// deepest common level of the hierarchy; preempt when the waking
    /// entity's vruntime is more than the (virtual) wakeup granularity
    /// behind the running one. Never, with `wakeup_preemption` off.
    fn should_preempt_on_wakeup(&self, cpu: CpuId, woken: Tid) -> bool {
        if !self.p.wakeup_preemption {
            return false;
        }
        let Some(curr) = self.cpus[cpu.index()].curr else {
            return true;
        };
        if curr == woken {
            return false;
        }
        let cw = self.tent(curr);
        let ww = self.tent(woken);
        let (curr_v, woken_v, gran_w) = if cw.group == ww.group {
            (cw.ent.vruntime, ww.ent.vruntime, ww.ent.weight)
        } else {
            // Compare the root-level entities (group entity or root task).
            let cv = if cw.group == GroupId::ROOT {
                cw.ent.vruntime
            } else {
                self.groups[cw.group.index()].per_cpu[cpu.index()]
                    .ge
                    .vruntime
            };
            let (wv, wgw) = if ww.group == GroupId::ROOT {
                (ww.ent.vruntime, ww.ent.weight)
            } else {
                let gc = &self.groups[ww.group.index()].per_cpu[cpu.index()];
                (gc.ge.vruntime, gc.ge.weight)
            };
            (cv, wv, wgw)
        };
        if woken_v >= curr_v {
            return false;
        }
        let gran_v = self.p.wakeup_granularity.as_nanos() * 1024 / gran_w.max(1);
        curr_v - woken_v > gran_v
    }
}

impl Scheduler for Cfs {
    fn name(&self) -> &'static str {
        "cfs"
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        kind: WakeKind,
        waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        self.select_cpu(tasks, tid, kind, waking_cpu, now, stats)
    }

    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let g = self.eff_group(tasks, tid);
        self.ensure_group(g, now);
        self.update_curr(cpu, now);

        // PELT: time since the entity was last updated was sleep for
        // wakeups, runnable otherwise.
        let te = self.tent_mut(tid);
        te.ent.pelt.update(now, kind != EnqueueKind::Wakeup);
        te.ent.load_contrib = te.ent.pelt.load(te.ent.weight);
        let w = te.ent.weight;

        // Virtual-runtime placement (§2.1).
        let rq_min = if g == GroupId::ROOT {
            self.cpus[cpu.index()].root.min_vruntime
        } else {
            self.groups[g.index()].per_cpu[cpu.index()].rq.min_vruntime
        };
        let stored = self.tent(tid).ent.vruntime;
        let v = match kind {
            EnqueueKind::New => {
                // "the thread starts with a vruntime equal to the maximum
                // vruntime of the threads waiting in the runqueue".
                let rq_max = if g == GroupId::ROOT {
                    self.cpus[cpu.index()].root.max_vruntime()
                } else {
                    self.groups[g.index()].per_cpu[cpu.index()]
                        .rq
                        .max_vruntime()
                };
                rq_max.unwrap_or(rq_min).max(rq_min)
            }
            EnqueueKind::Wakeup => {
                // "its vruntime is updated to be at least equal to the
                // minimum vruntime", with the sleeper bonus applied.
                // `stored` is absolute in the scale of the rq the task
                // slept on; rebase if it wakes on another CPU.
                let last = tasks.get(tid).last_cpu;
                let abs = if last == cpu {
                    stored as i128
                } else {
                    stored as i128 - self.rq_min_of(g, last) as i128 + rq_min as i128
                };
                let floor = rq_min.saturating_sub(self.p.sleeper_bonus.as_nanos());
                if abs <= floor as i128 {
                    floor
                } else {
                    abs as u64
                }
            }
            EnqueueKind::Migrate | EnqueueKind::Requeue => {
                // `stored` is a *signed* offset relative to the source
                // rq's min_vruntime (see the renormalisation in
                // `dequeue_task`): a task parked at the wakeup floor sits
                // *below* min_vruntime, making the offset negative. Rebase
                // in signed arithmetic and clamp at this rq's sleeper
                // floor; a plain unsigned wrap would sort the entity to
                // the far right of the queue and drag min_vruntime with it.
                let abs = (stored as i64 as i128) + rq_min as i128;
                let floor = rq_min.saturating_sub(self.p.sleeper_bonus.as_nanos());
                if abs <= floor as i128 {
                    floor
                } else {
                    abs as u64
                }
            }
        };
        self.tent_mut(tid).ent.vruntime = v;

        if g == GroupId::ROOT {
            self.cpus[cpu.index()].root.insert(EntKey::Task(tid), v, w);
        } else {
            let grp = &mut self.groups[g.index()];
            let gc = &mut grp.per_cpu[cpu.index()];
            let was_active = gc.active;
            gc.rq.insert(EntKey::Task(tid), v, w);
            gc.queued_weight += w;
            grp.total_weight += w;
            self.update_group_weight(g, cpu);
            if !was_active {
                // Activate the group entity in the root rq.
                let root_min = self.cpus[cpu.index()].root.min_vruntime;
                let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
                let floor = root_min.saturating_sub(self.p.sleeper_bonus.as_nanos());
                gc.ge.vruntime = gc.ge.vruntime.max(floor);
                gc.active = true;
                let (gev, gew) = (gc.ge.vruntime, gc.ge.weight);
                self.cpus[cpu.index()]
                    .root
                    .insert(EntKey::Group(g), gev, gew);
            }
        }
        // Activating an idle CPU: bring its (fully decayed) rq average up
        // to date *before* attaching. While the CPU sat outside the active
        // mask the O(active) sweeps deliberately skipped its no-op
        // refreshes, so its decay clock is stale; updating after the attach
        // would decay the incoming contribution across that whole idle
        // window. Already-active CPUs keep the attach-then-update order —
        // their refresh cadence is unchanged.
        if !self.active.contains(cpu) {
            self.refresh_load(cpu, now);
        }
        // Load attach (Linux attach_entity_load_avg): new and migrated
        // entities add their decayed average immediately. A wakeup on the
        // same CPU re-uses the *blocked* residue still present in the rq
        // average; a wakeup elsewhere moves the residue across.
        let contrib = self.tent(tid).ent.load_contrib.max(2);
        let last = tasks.get(tid).last_cpu;
        match kind {
            EnqueueKind::Wakeup if last == cpu => {}
            EnqueueKind::Wakeup => {
                self.cpus[last.index()].load.detach(contrib);
                self.cpus[cpu.index()].load.attach(contrib);
            }
            _ => self.cpus[cpu.index()].load.attach(contrib),
        }
        let c = &mut self.cpus[cpu.index()];
        let tw = c.tw_sum;
        c.load.update(now, tw);
        c.h_nr += 1;
        c.tw_sum += w;
        // The CPU now carries runnable weight: it must be visible to the
        // O(active) balancing sweeps (cleared lazily in `refresh_load`
        // once idle *and* fully decayed).
        self.active.set(cpu);
        self.sync(cpu);

        if kind == EnqueueKind::Wakeup && self.should_preempt_on_wakeup(cpu, tid) {
            Preempt::Yes(PreemptCause::Wakeup)
        } else {
            Preempt::No
        }
    }

    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        now: Time,
    ) {
        let g = self.eff_group(tasks, tid);
        self.update_curr(cpu, now);
        let is_curr = self.cpus[cpu.index()].curr == Some(tid);
        let te = self.tent_mut(tid);
        te.ent.pelt.update(now, true);
        te.ent.load_contrib = te.ent.pelt.load(te.ent.weight);
        let w = te.ent.weight;
        let v = te.ent.vruntime;

        // Only migrations renormalise vruntime to a relative value; sleep
        // keeps it absolute so the sleeper-bonus floor has effect (Linux
        // renormalises in `migrate_task_rq_fair` only).
        let renorm = _kind == DequeueKind::Migrate;
        if g == GroupId::ROOT {
            let root = &mut self.cpus[cpu.index()].root;
            if is_curr {
                root.clear_curr(EntKey::Task(tid), w);
            } else {
                root.remove(EntKey::Task(tid), v, w);
            }
            let rq_min = root.min_vruntime;
            if renorm {
                self.tent_mut(tid).ent.vruntime = v.wrapping_sub(rq_min);
            }
        } else {
            {
                let grp = &mut self.groups[g.index()];
                let gc = &mut grp.per_cpu[cpu.index()];
                if is_curr {
                    gc.rq.clear_curr(EntKey::Task(tid), w);
                } else {
                    gc.rq.remove(EntKey::Task(tid), v, w);
                }
                gc.queued_weight -= w;
                grp.total_weight -= w;
            }
            let (grq_min, now_empty, gev, gew) = {
                let gc = &self.groups[g.index()].per_cpu[cpu.index()];
                (
                    gc.rq.min_vruntime,
                    gc.rq.is_empty(),
                    gc.ge.vruntime,
                    gc.ge.weight,
                )
            };
            if renorm {
                self.tent_mut(tid).ent.vruntime = v.wrapping_sub(grq_min);
            }

            if is_curr {
                // The group entity was the root rq's running entity.
                if now_empty {
                    let root = &mut self.cpus[cpu.index()].root;
                    root.clear_curr(EntKey::Group(g), gew);
                    let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
                    gc.active = false; // ge vruntime stays absolute
                } else {
                    // Still has queued siblings: requeue the group entity.
                    self.cpus[cpu.index()].root.put_prev(EntKey::Group(g), gev);
                }
            } else if now_empty {
                let root = &mut self.cpus[cpu.index()].root;
                root.remove(EntKey::Group(g), gev, gew);
                let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
                gc.active = false; // ge vruntime stays absolute
            }
            self.update_group_weight(g, cpu);
        }
        // Blocked load: a sleeping entity's contribution stays in the rq
        // average and decays there (Linux keeps blocked load attached);
        // only migration/exit removes it immediately.
        if _kind != DequeueKind::Sleep {
            let contrib = self.tent(tid).ent.load_contrib.max(2);
            self.cpus[cpu.index()].load.detach(contrib);
        }
        let c = &mut self.cpus[cpu.index()];
        let tw = c.tw_sum;
        c.load.update(now, tw);
        c.h_nr -= 1;
        c.tw_sum = c.tw_sum.saturating_sub(w);
        if is_curr {
            c.curr = None;
        }
        self.sync(cpu);
    }

    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        if let Some(curr) = self.cpus[cpu.index()].curr {
            self.put_prev_task(tasks, cpu, curr, now);
        }
    }

    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        debug_assert!(self.cpus[cpu.index()].curr.is_none());
        let (_, key) = self.cpus[cpu.index()].root.pick()?;
        let tid = match key {
            EntKey::Task(t) => t,
            EntKey::Group(g) => {
                let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
                let (_, tk) = gc.rq.pick().expect("active group entity with empty rq");
                match tk {
                    EntKey::Task(t) => t,
                    EntKey::Group(_) => unreachable!("two-level hierarchy"),
                }
            }
        };
        let te = self.tent_mut(tid);
        te.ent.exec_start = now;
        te.slice_start_exec = te.ent.sum_exec;
        self.cpus[cpu.index()].curr = Some(tid);
        self.sync(cpu);
        debug_assert_eq!(tasks.get(tid).cpu, cpu);
        Some(tid)
    }

    fn put_prev_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        debug_assert_eq!(self.cpus[cpu.index()].curr, Some(tid));
        self.update_curr(cpu, now);
        let g = self.tent(tid).group;
        let v = self.tent(tid).ent.vruntime;
        if g == GroupId::ROOT {
            self.cpus[cpu.index()].root.put_prev(EntKey::Task(tid), v);
        } else {
            let gc = &mut self.groups[g.index()].per_cpu[cpu.index()];
            gc.rq.put_prev(EntKey::Task(tid), v);
            let gev = gc.ge.vruntime;
            self.cpus[cpu.index()].root.put_prev(EntKey::Group(g), gev);
        }
        self.cpus[cpu.index()].curr = None;
        self.sync(cpu);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        self.update_curr(cpu, now);
        let c = &self.cpus[cpu.index()];
        if c.h_nr <= 1 {
            return Preempt::No;
        }
        let ideal = self.sched_slice(cpu, curr);
        let te = self.tent(curr);
        let delta_exec = te.ent.sum_exec - te.slice_start_exec;
        if delta_exec > ideal {
            return Preempt::Yes(PreemptCause::SliceExpired);
        }
        // Secondary check from `check_preempt_tick`: don't let curr run far
        // ahead of the leftmost waiter in its own rq.
        if delta_exec > self.p.min_granularity {
            let leftmost = if te.group == GroupId::ROOT {
                c.root.leftmost()
            } else {
                self.groups[te.group.index()].per_cpu[cpu.index()]
                    .rq
                    .leftmost()
            };
            if let Some((lv, _)) = leftmost {
                if te.ent.vruntime > lv && te.ent.vruntime - lv > ideal.as_nanos() {
                    return Preempt::Yes(PreemptCause::Fairness);
                }
            }
        }
        Preempt::No
    }

    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, _parent: Option<Tid>, now: Time) {
        let t = tasks.get(child);
        let weight = weights::nice_to_weight(t.nice);
        if child.index() >= self.tents.len() {
            self.tents.resize_with(child.index() + 1, || None);
        }
        let group = if self.p.cgroups {
            t.group
        } else {
            GroupId::ROOT
        };
        self.tents[child.index()] = Some(TaskEnt {
            ent: Entity::new(weight, now),
            group,
            wakee_flips: 0,
            wakee_decay: now,
            last_wakee: None,
            slice_start_exec: Dur::ZERO,
        });
    }

    fn task_dead(&mut self, _tasks: &TaskTable, tid: Tid, _now: Time) {
        self.tents[tid.index()] = None;
    }

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        self.periodic_balance(tasks, cpu, now, targets);
    }

    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        self.newidle_balance(tasks, cpu, now, stats)
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.cpus[cpu.index()].h_nr
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        for &(_, key) in self.cpus[cpu.index()].root.iter() {
            match key {
                EntKey::Task(t) => out.push(t),
                EntKey::Group(g) => {
                    for &(_, tk) in self.groups[g.index()].per_cpu[cpu.index()].rq.iter() {
                        if let EntKey::Task(t) = tk {
                            out.push(t);
                        }
                    }
                }
            }
        }
        // The running task's group entity is out of the root queue, but its
        // queued siblings are reachable only through that group's rq.
        if let Some(EntKey::Group(g)) = self.cpus[cpu.index()].root.curr {
            for &(_, tk) in self.groups[g.index()].per_cpu[cpu.index()].rq.iter() {
                if let EntKey::Task(t) = tk {
                    out.push(t);
                }
            }
        }
    }

    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        let Some(te) = self.tents.get(tid.index()).and_then(|e| e.as_ref()) else {
            return TaskSnapshot::default();
        };
        TaskSnapshot {
            vruntime_ns: Some(te.ent.vruntime),
            load: Some(te.ent.pelt.avg()),
            prio: Some(weights::nice_to_prio(tasks.get(tid).nice)),
            timeslice_ns: None,
            ..Default::default()
        }
    }

    fn audit(&mut self, _tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        let c = &self.cpus[cpu.index()];
        // The index placement reads, and the O(active) sweeps' premise: a
        // CPU they skip contributes nothing.
        let running = c.curr.is_some();
        self.occ
            .audit(cpu, c.h_nr.saturating_sub(usize::from(running)), running)?;
        if !self.active.contains(cpu) && (c.h_nr, c.tw_sum, c.load.avg()) != (0, 0, 0) {
            return Err(format!(
                "inactive CPU holds h_nr {}, tw_sum {}, load {}",
                c.h_nr,
                c.tw_sum,
                c.load.avg()
            ));
        }

        // min_vruntime must never go backward (the fairness clock).
        let min = c.root.min_vruntime;
        let last = self.last_audit_min[cpu.index()];
        if min < last {
            return Err(format!("root min_vruntime went backward: {last} -> {min}"));
        }
        self.last_audit_min[cpu.index()] = min;

        // Every queued task sits in its queue at its entity's own vruntime,
        // and every queue is in order.
        let key_drift = |t: Tid, v: u64| -> Result<(), String> {
            match self.tents.get(t.index()).and_then(Option::as_ref) {
                Some(te) if te.ent.vruntime == v => Ok(()),
                Some(te) => Err(format!(
                    "{t} queued at vruntime {v} but its entity holds {}",
                    te.ent.vruntime
                )),
                None => Err(format!("queued {t} has no entity")),
            }
        };
        // A group's queued tasks, key-checked as they are counted.
        let group_rq = |g: GroupId| -> Result<usize, String> {
            let rq = &self.groups[g.index()].per_cpu[cpu.index()].rq;
            rq.audit_each(|&(v, key)| match key {
                EntKey::Task(t) => key_drift(t, v),
                EntKey::Group(_) => Ok(()),
            })?;
            Ok(rq.nr)
        };
        // The hierarchy's task count must agree with h_nr, and the running
        // task must be represented as the rq's curr entity at each level.
        // One walk of the root checks the keys and counts the tasks.
        let mut n = 0usize;
        c.root.audit_each(|&(v, key)| {
            n += match key {
                EntKey::Task(t) => {
                    key_drift(t, v)?;
                    1
                }
                EntKey::Group(g) => {
                    let gc = &self.groups[g.index()].per_cpu[cpu.index()];
                    if gc.rq.curr.is_some() {
                        return Err(format!("queued group entity {g:?} has a running child"));
                    }
                    if gc.ge.vruntime != v {
                        return Err(format!(
                            "group entity {g:?} queued at vruntime {v} but holds {}",
                            gc.ge.vruntime
                        ));
                    }
                    group_rq(g)?
                }
            };
            Ok(())
        })?;
        n += match c.root.curr {
            None => 0,
            Some(EntKey::Task(_)) => 1,
            Some(EntKey::Group(g)) => group_rq(g)?,
        };
        if n != c.h_nr {
            return Err(format!(
                "h_nr accounting drifted: h_nr={} but hierarchy holds {n} task(s)",
                c.h_nr
            ));
        }
        match (c.curr, c.root.curr) {
            (None, None) => {}
            (None, Some(k)) => return Err(format!("no running task but root curr is {k:?}")),
            (Some(t), None) => return Err(format!("{t} runs but no root curr entity is set")),
            (Some(t), Some(EntKey::Task(rt))) => {
                if t != rt {
                    return Err(format!("running {t} but root curr is {rt}"));
                }
            }
            (Some(t), Some(EntKey::Group(g))) => {
                let gc = &self.groups[g.index()].per_cpu[cpu.index()];
                if gc.rq.curr != Some(EntKey::Task(t)) {
                    return Err(format!(
                        "running {t} but group {g:?} curr is {:?}",
                        gc.rq.curr
                    ));
                }
            }
        }
        Ok(())
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        self.occ.set_online(cpu, false);
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        self.occ.set_online(cpu, true);
    }
}
