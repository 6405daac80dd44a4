//! Reference-model tests of ULE's placement and idle stealing.
//!
//! `sched_pickcpu` and `tdq_idled` answer from the occupancy index and the
//! `tdq_lowpri` index. The loops they replaced walked every CPU of each
//! span and read the queues themselves; they are kept below as the
//! reference, reading the queues (the ground truth), not the indexes.
//! Random machine states — 1 to 512 CPUs, offline CPUs, loads around the
//! occupancy index's last level with ties, pinned and unpinned threads of
//! every priority — must get the same CPU and the same `cpus_scanned`
//! charge from both, and every CPU must pass the class audit after every
//! step. Placements interleave with the churn, and one follows a tick that
//! moved a CPU's `tdq_lowpri` and nothing else, so a queue change that
//! misses its stale mark (in `sync` or in `task_tick`) gives a stale
//! answer here.

use proptest::prelude::*;
use sched_api::{
    DequeueKind, EnqueueKind, GroupId, Scheduler, SelectStats, Task, TaskState, TaskTable, Tid,
    WakeKind,
};
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, CpuMask, Topology, MAX_CPUS};

use crate::Ule;

/// A machine of `ncpu` CPUs: flat, two LLCs, SMT pairs, or 64-CPU nodes
/// of two LLCs, as `ncpu` allows.
fn machine(ncpu: usize, pick: u64) -> Topology {
    let n = ncpu as u32;
    let mut shapes = vec![Topology::flat(n)];
    if n.is_multiple_of(2) {
        shapes.push(Topology::regular("two-llc", 1, 2, n / 2, 1));
        shapes.push(Topology::regular("smt", 1, 1, n / 2, 2));
    }
    if n.is_multiple_of(4) {
        shapes.push(Topology::regular("two-node", 2, 1, n / 4, 2));
    }
    if n.is_multiple_of(64) {
        shapes.push(Topology::regular("numa", n / 64, 2, 32, 1));
    }
    shapes.swap_remove(pick as usize % shapes.len())
}

/// An affinity mask: none, empty, one CPU (maybe past the machine), a
/// run of CPUs (maybe running past it), or random bits over the whole
/// capacity.
fn affinity(rng: &mut SimRng, ncpu: usize) -> Option<CpuMask> {
    match rng.gen_below(6) {
        0 | 1 => None,
        2 => Some(CpuMask::empty()),
        3 => Some(CpuMask::single(CpuId(
            rng.gen_below(ncpu as u64 + 8).min(MAX_CPUS as u64 - 1) as u32,
        ))),
        4 => {
            let lo = rng.gen_below(ncpu as u64) as usize;
            let len = 1 + rng.gen_below(ncpu as u64 + 64) as usize;
            Some(
                (lo..(lo + len).min(MAX_CPUS))
                    .map(|c| CpuId(c as u32))
                    .collect(),
            )
        }
        _ => Some(
            (0..MAX_CPUS)
                .filter(|_| rng.gen_bool(0.5))
                .map(|c| CpuId(c as u32))
                .collect(),
        ),
    }
}

fn ncpu_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => Just(1usize),
        2 => Just(64usize),
        2 => Just(65usize),
        2 => Just(256usize),
        1 => Just(MAX_CPUS),
        4 => 1usize..=MAX_CPUS,
    ]
}

/// A ULE instance with threads spread over the machine.
struct Rig {
    ule: Ule,
    tasks: TaskTable,
    topo: Topology,
    online: Vec<bool>,
    now: Time,
    rng: SimRng,
}

impl Rig {
    fn new(ncpu: usize, seed: u64) -> Rig {
        let mut rng = SimRng::new(seed);
        let topo = machine(ncpu, rng.next_u64());
        let mut rig = Rig {
            ule: Ule::new(&topo),
            tasks: TaskTable::new(),
            online: vec![true; ncpu],
            topo,
            now: Time::ZERO + Dur::millis(1000),
            rng,
        };
        // Hotplug out a few CPUs before any work arrives (the kernel
        // drains a CPU before it goes down), never CPU 0.
        for c in 1..ncpu {
            if rig.rng.gen_bool(0.08) {
                rig.online[c] = false;
                rig.ule.cpu_offline(CpuId(c as u32));
            }
        }
        // A few hot CPUs carry loads around and past the last level.
        let hot: Vec<usize> = (0..1 + ncpu / 16)
            .map(|_| rig.rng.gen_below(ncpu as u64) as usize)
            .collect();
        // Up to eight threads per CPU, so that some machines have no idle
        // CPU left and placement takes its all-busy path.
        let threads = rig.rng.gen_below(8 * ncpu as u64 + 4);
        for _ in 0..threads {
            let c = if rig.rng.gen_bool(0.4) {
                hot[rig.rng.gen_below(hot.len() as u64) as usize]
            } else {
                rig.rng.gen_below(ncpu as u64) as usize
            };
            if rig.online[c] {
                rig.spawn_on(CpuId(c as u32));
            }
        }
        for c in 0..ncpu {
            if rig.rng.gen_bool(0.7) {
                rig.ule
                    .pick_next_task(&mut rig.tasks, CpuId(c as u32), rig.now);
            }
        }
        rig
    }

    /// A new thread with a random history and niceness, so that its
    /// priority is interactive or batch.
    fn fork(&mut self) -> Tid {
        let run = Dur::millis(self.rng.gen_below(400));
        let sleep = Dur::millis(self.rng.gen_below(400));
        let nice = self.rng.gen_below(40) as i32 - 20;
        let tid = self.tasks.insert_with(|t| {
            let mut task = Task::new(t, "t", GroupId::ROOT);
            task.inherit_history = Some((run, sleep));
            task.nice = nice;
            task
        });
        self.ule.task_fork(&self.tasks, tid, None, self.now);
        tid
    }

    fn spawn_on(&mut self, cpu: CpuId) {
        let tid = self.fork();
        let pinned = self.rng.gen_bool(0.2);
        let t = self.tasks.get_mut(tid);
        t.cpu = cpu;
        t.last_cpu = cpu;
        t.state = TaskState::Runnable;
        t.on_rq = true;
        if pinned {
            t.affinity = Some(CpuMask::single(cpu));
        }
        self.ule
            .enqueue_task(&mut self.tasks, cpu, tid, EnqueueKind::New, self.now);
    }

    /// One random change: a thread arrives, the running thread ticks,
    /// sleeps or yields, or an idle CPU picks.
    fn churn(&mut self) {
        self.now += Dur::micros(self.rng.gen_range(1, 20_000));
        let n = self.topo.nr_cpus();
        let cpu = CpuId(self.rng.gen_below(n as u64) as u32);
        if !self.online[cpu.index()] {
            return;
        }
        let curr = self.ule.tdqs[cpu.index()].curr;
        match (self.rng.gen_below(5), curr) {
            (0, _) => self.spawn_on(cpu),
            (1, Some(t)) => {
                self.ule.task_tick(&mut self.tasks, cpu, t, self.now);
            }
            (2, Some(t)) => {
                self.ule
                    .dequeue_task(&mut self.tasks, cpu, t, DequeueKind::Sleep, self.now);
                self.tasks.get_mut(t).state = TaskState::Sleeping;
            }
            (3, Some(_)) => self.ule.yield_task(&mut self.tasks, cpu, self.now),
            (_, None) => {
                self.ule.pick_next_task(&mut self.tasks, cpu, self.now);
            }
            _ => {}
        }
    }

    /// Tick a running thread until one tick moves its CPU's `tdq_lowpri`,
    /// trying up to eight CPUs. Returns the CPU and its `tdq_lowpri`
    /// before and after that tick.
    fn tick_moving_lowpri(&mut self) -> Option<(CpuId, i32, i32)> {
        for _ in 0..8 {
            let cpu = CpuId(self.rng.gen_below(self.topo.nr_cpus() as u64) as u32);
            let Some(curr) = self.ule.tdqs[cpu.index()].curr else {
                continue;
            };
            self.now += Dur::micros(self.rng.gen_range(1, 100_000));
            let before = self.ule.tdqs[cpu.index()].lowpri();
            self.ule.task_tick(&mut self.tasks, cpu, curr, self.now);
            let after = self.ule.tdqs[cpu.index()].lowpri();
            if after != before {
                return Some((cpu, before, after));
            }
        }
        None
    }

    /// A sleeping thread that last ran on `last` `ago` before now, with
    /// affinity `aff`.
    fn probe(&mut self, last: CpuId, ago: Dur, aff: Option<CpuMask>) -> Tid {
        let probe = self.fork();
        let t = self.tasks.get_mut(probe);
        t.last_cpu = last;
        t.last_ran = self.now - ago;
        t.state = TaskState::Sleeping;
        t.affinity = aff;
        probe
    }

    /// Place `probe` through the class and through the reference:
    /// `(got, got charge, want, want charge)`.
    fn place(&mut self, probe: Tid) -> (Option<CpuId>, u32, Option<CpuId>, u32) {
        let (want, want_scanned) = self.reference_pickcpu(probe);
        let mut stats = SelectStats::default();
        let got = self.ule.select_task_rq(
            &self.tasks,
            probe,
            WakeKind::Wakeup { waker: None },
            CpuId(0),
            self.now,
            &mut stats,
        );
        (got.ok(), stats.cpus_scanned, want, want_scanned)
    }

    /// Runnable threads on `cpu`, the running one included, from the
    /// queues themselves.
    fn load(&self, cpu: CpuId) -> usize {
        let tdq = &self.ule.tdqs[cpu.index()];
        tdq.interactive.len() + tdq.batch.len() + usize::from(tdq.curr.is_some())
    }

    fn audit_all(&mut self) -> Result<(), String> {
        for c in self.topo.all_cpus() {
            self.ule
                .audit(&self.tasks, c, self.now)
                .map_err(|e| format!("{c}: {e}"))?;
        }
        Ok(())
    }

    /// The three-pass `sched_pickcpu` scan the class ran before the index.
    fn reference_pickcpu(&self, tid: Tid) -> (Option<CpuId>, u32) {
        if self.topo.nr_cpus() == 1 {
            return (Some(CpuId(0)), 0);
        }
        let task = self.tasks.get(tid);
        let last = task.last_cpu;
        let prio = self.ule.ts(tid).prio;
        let mut scanned = 1;
        let affine = self.now.saturating_since(task.last_ran) <= self.ule.p.affinity_window;
        let ok = |c: CpuId| task.allowed_on(c) && self.online[c.index()];
        if ok(last) && affine && self.load(last) == 0 {
            return (Some(last), scanned);
        }
        let all: Vec<CpuId> = self.topo.all_cpus().collect();
        let span1 = if affine {
            self.topo.llc_cpus(last).to_vec()
        } else {
            all.clone()
        };
        let pass = |span: &[CpuId], scanned: &mut u32, lowpri_only: bool| {
            let mut best: Option<(usize, CpuId)> = None;
            for &c in span {
                *scanned += 1;
                if !ok(c) {
                    continue;
                }
                if lowpri_only && self.ule.tdqs[c.index()].lowpri() <= prio {
                    continue;
                }
                let key = (self.load(c), c);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            best.map(|(_, c)| c)
        };
        for (span, lowpri_only) in [(&span1, true), (&all, true), (&all, false)] {
            if let Some(c) = pass(span, &mut scanned, lowpri_only) {
                return (Some(c), scanned);
            }
        }
        (None, scanned)
    }

    /// The `tdq_idled` victim walk the class ran before the index: per
    /// span, the first CPU with the highest load reaching `steal_thresh`.
    /// Returns the CPU a thread is stolen from, if any, and the charge.
    fn reference_steal(&self, thief: CpuId) -> (Option<CpuId>, u32) {
        let mut scanned = 0;
        for span in [
            self.topo.llc_cpus(thief).to_vec(),
            self.topo.all_cpus().collect(),
        ] {
            scanned += span.len() as u32;
            let mut best: Option<(usize, CpuId)> = None;
            for &c in &span {
                let load = self.load(c);
                if c == thief || !self.online[c.index()] || load < self.ule.p.steal_thresh {
                    continue;
                }
                if best.is_none_or(|(b, _)| load > b) {
                    best = Some((load, c));
                }
            }
            if let Some((_, victim)) = best {
                let tdq = &self.ule.tdqs[victim.index()];
                let stealable = tdq
                    .interactive
                    .iter()
                    .chain(tdq.batch.iter())
                    .any(|t| self.tasks.get(t).allowed_on(thief));
                if stealable {
                    return (Some(victim), scanned);
                }
            }
        }
        (None, scanned)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn placement_and_stealing_answer_like_the_old_walks(
        ncpu in ncpu_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rig = Rig::new(ncpu, seed);
        prop_assert_eq!(rig.audit_all(), Ok(()));
        for round in 0..12 {
            // Three bursts of churn, each followed by a sleeping thread's
            // wakeup: affine or not, any affinity.
            for burst in 0..3 {
                for _ in 0..1 + ncpu / 16 {
                    rig.churn();
                }
                prop_assert_eq!(rig.audit_all(), Ok(()));
                let last = CpuId(rig.rng.gen_below(ncpu as u64) as u32);
                let ago = Dur::millis(rig.rng.gen_below(4) * 2);
                let aff = affinity(&mut rig.rng, ncpu);
                let probe = rig.probe(last, ago, aff);
                let (got, got_scanned, want, want_scanned) = rig.place(probe);
                prop_assert_eq!(got, want, "round {} burst {} pick for {:?}", round, burst, aff);
                prop_assert_eq!(got_scanned, want_scanned, "round {} burst {} pick charge", round, burst);
            }

            // A tick moves one CPU's `tdq_lowpri`, and the next wakeup
            // tells the two values apart: its priority is the lower one,
            // so the CPU is a candidate under exactly one of them. Pinned
            // there, only the charge tells the passes apart.
            if let Some((cpu, before, after)) = rig.tick_moving_lowpri() {
                prop_assert_eq!(rig.audit_all(), Ok(()));
                let aff = rig.rng.gen_bool(0.5).then(|| CpuMask::single(cpu));
                let probe = rig.probe(cpu, Dur::millis(50), aff);
                rig.ule.ts_mut(probe).prio = before.min(after);
                let (got, got_scanned, want, want_scanned) = rig.place(probe);
                prop_assert_eq!(got, want, "round {} pick after {}'s tick {} -> {}", round, cpu, before, after);
                prop_assert_eq!(got_scanned, want_scanned, "round {} charge after {}'s tick", round, cpu);
            }

            // An idle (or any) CPU steals.
            let thief = CpuId(rig.rng.gen_below(ncpu as u64) as u32);
            if !rig.online[thief.index()] {
                continue;
            }
            let (victim, want_scanned) = rig.reference_steal(thief);
            let before: Vec<usize> = rig.topo.all_cpus().map(|c| rig.load(c)).collect();
            let mut stats = SelectStats::default();
            let stole = rig.ule.idle_balance(&mut rig.tasks, thief, rig.now, &mut stats);
            let lost: Vec<CpuId> = rig
                .topo
                .all_cpus()
                .filter(|&c| rig.load(c) < before[c.index()])
                .collect();
            prop_assert_eq!(stole, victim.is_some());
            prop_assert_eq!(lost, victim.into_iter().collect::<Vec<_>>(), "round {} victim", round);
            prop_assert_eq!(stats.cpus_scanned, want_scanned, "round {} steal charge", round);
            prop_assert_eq!(rig.audit_all(), Ok(()));
        }
    }
}
