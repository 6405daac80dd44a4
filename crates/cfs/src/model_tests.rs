//! Reference-model tests of CFS's placement and balancer election.
//!
//! `select_idle_sibling`, `find_idlest` and `should_we_balance` answer
//! from the occupancy index, the active mask and the shared domains. The
//! loops they replaced walked every CPU of their span and read `h_nr` and
//! each CPU's online flag; they are kept below as the reference, reading
//! `h_nr` (the ground truth) and the test's own online flags.
//!
//! Two instances receive the same random operations: hotplug, arrivals,
//! wakeups, sleeps, picks, ticks, migrations, balancing and time steps
//! long enough for blocked load to decay away. `find_idlest` runs on one
//! and the old full-refresh loop on the other; they must pick the same CPU
//! with the same `cpus_scanned` charge and leave every CPU's load average
//! and the active mask equal, and every CPU of both must pass the class
//! audit after every round.

use proptest::prelude::*;
use sched_api::{
    DequeueKind, EnqueueKind, GroupId, Scheduler, SelectError, SelectStats, Task, TaskState,
    TaskTable, Tid,
};
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, CpuMask, Domain, Topology, MAX_CPUS};

use crate::Cfs;

/// A machine of `ncpu` CPUs: flat, two LLCs, SMT pairs, two nodes, or
/// 64-CPU nodes of two LLCs, as `ncpu` allows.
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

/// One random operation, applied to both instances.
#[derive(Clone, Copy)]
enum Op {
    /// A new task arrives on a CPU.
    Spawn(CpuId),
    /// A sleeping task wakes on a CPU.
    Wake(Tid, CpuId),
    /// The running task goes to sleep.
    Sleep(CpuId, Tid),
    /// An idle CPU picks its next task.
    Pick(CpuId),
    /// The running task takes a tick.
    Tick(CpuId, Tid),
    /// A queued task moves to another CPU.
    Migrate(Tid, CpuId, CpuId),
    /// A CPU's balancing tick.
    Balance(CpuId),
    /// An idle CPU tries to pull work.
    NewIdle(CpuId),
    Offline(CpuId),
    Online(CpuId),
}

/// One CFS instance and its task table.
struct Side {
    cfs: Cfs,
    tasks: TaskTable,
}

impl Side {
    fn apply(&mut self, op: Op, now: Time) {
        let (cfs, tasks) = (&mut self.cfs, &mut self.tasks);
        match op {
            Op::Spawn(cpu) => {
                let tid = tasks.insert_with(|t| Task::new(t, "t", GroupId::ROOT));
                cfs.task_fork(tasks, tid, None, now);
                let t = tasks.get_mut(tid);
                (t.cpu, t.last_cpu, t.state) = (cpu, cpu, TaskState::Runnable);
                cfs.enqueue_task(tasks, cpu, tid, EnqueueKind::New, now);
            }
            Op::Wake(tid, cpu) => {
                let t = tasks.get_mut(tid);
                (t.cpu, t.state) = (cpu, TaskState::Runnable);
                cfs.enqueue_task(tasks, cpu, tid, EnqueueKind::Wakeup, now);
            }
            Op::Sleep(cpu, tid) => {
                cfs.dequeue_task(tasks, cpu, tid, DequeueKind::Sleep, now);
                let t = tasks.get_mut(tid);
                (t.last_cpu, t.last_ran, t.state) = (cpu, now, TaskState::Sleeping);
            }
            Op::Pick(cpu) => {
                cfs.pick_next_task(tasks, cpu, now);
            }
            Op::Tick(cpu, tid) => {
                cfs.task_tick(tasks, cpu, tid, now);
            }
            Op::Migrate(tid, from, to) => {
                cfs.dequeue_task(tasks, from, tid, DequeueKind::Migrate, now);
                tasks.get_mut(tid).cpu = to;
                cfs.enqueue_task(tasks, to, tid, EnqueueKind::Migrate, now);
            }
            Op::Balance(cpu) => cfs.balance_tick(tasks, cpu, now, &mut Vec::new()),
            Op::NewIdle(cpu) => {
                cfs.idle_balance(tasks, cpu, now, &mut SelectStats::default());
            }
            Op::Offline(cpu) => cfs.cpu_offline(cpu),
            Op::Online(cpu) => cfs.cpu_online(cpu),
        }
    }

    fn audit_all(&mut self, now: Time) -> Result<(), String> {
        for c in 0..self.cfs.cpus.len() {
            let cpu = CpuId(c as u32);
            self.cfs
                .audit(&self.tasks, cpu, now)
                .map_err(|e| format!("{cpu}: {e}"))?;
        }
        Ok(())
    }
}

/// Two instances fed the same operations, and the test's view of which
/// CPUs are online.
struct Rig {
    a: Side,
    b: Side,
    topo: Topology,
    /// Each CPU's own copy of its domains, as the class once kept them.
    domains: Vec<Vec<Domain>>,
    online: Vec<bool>,
    now: Time,
    rng: SimRng,
}

impl Rig {
    fn new(ncpu: usize, seed: u64) -> Rig {
        let mut rng = SimRng::new(seed);
        let topo = machine(ncpu, rng.next_u64());
        let side = || Side {
            cfs: Cfs::new(&topo),
            tasks: TaskTable::new(),
        };
        Rig {
            a: side(),
            b: side(),
            online: vec![true; ncpu],
            domains: topo.all_cpus().map(|c| topo.domains(c)).collect(),
            topo,
            now: Time::ZERO + Dur::millis(1),
            rng,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Offline(cpu) => self.online[cpu.index()] = false,
            Op::Online(cpu) => self.online[cpu.index()] = true,
            _ => {}
        }
        self.a.apply(op, self.now);
        self.b.apply(op, self.now);
    }

    fn h_nr(&self, cpu: CpuId) -> usize {
        self.a.cfs.cpus[cpu.index()].h_nr
    }

    fn random_cpu(&mut self) -> CpuId {
        CpuId(self.rng.gen_below(self.online.len() as u64) as u32)
    }

    /// One random operation the kernel could make, on both instances.
    fn churn(&mut self) {
        let step = match self.rng.gen_below(10) {
            0 => 500_000,
            1..=3 => 20_000,
            _ => 2_000,
        };
        self.now += Dur::micros(self.rng.gen_range(1, step));
        let cpu = self.random_cpu();
        let up = self.online[cpu.index()];
        let curr = self.a.cfs.cpus[cpu.index()].curr;
        let op = match self.rng.gen_below(12) {
            0..=2 if up => Op::Spawn(cpu),
            3 if up => {
                let sleeping: Vec<Tid> = self
                    .a
                    .tasks
                    .iter()
                    .filter(|t| t.state == TaskState::Sleeping)
                    .map(|t| t.tid)
                    .collect();
                if sleeping.is_empty() {
                    return;
                }
                Op::Wake(
                    sleeping[self.rng.gen_below(sleeping.len() as u64) as usize],
                    cpu,
                )
            }
            4 => match curr {
                Some(t) => Op::Sleep(cpu, t),
                None => return,
            },
            5 | 6 => match curr {
                Some(t) => Op::Tick(cpu, t),
                None if self.h_nr(cpu) > 0 => Op::Pick(cpu),
                None => return,
            },
            7 => {
                let to = self.random_cpu();
                let mut queued = Vec::new();
                self.a.cfs.queued_tids_into(cpu, &mut queued);
                match queued.first() {
                    Some(&t) if to != cpu && self.online[to.index()] => Op::Migrate(t, cpu, to),
                    _ => return,
                }
            }
            8 if up => Op::Balance(cpu),
            9 if up && curr.is_none() && self.h_nr(cpu) == 0 => Op::NewIdle(cpu),
            // The kernel drains a CPU before it goes down, and keeps CPU 0.
            10 if up && cpu != CpuId(0) && self.h_nr(cpu) == 0 => Op::Offline(cpu),
            11 if !up => Op::Online(cpu),
            _ => return,
        };
        self.apply(op);
    }

    /// A probe task that never runs, with a random affinity.
    fn probe(&mut self) -> Tid {
        let aff = affinity(&mut self.rng, self.online.len());
        let mut tid = None;
        for side in [&mut self.a, &mut self.b] {
            let t = side.tasks.insert_with(|t| {
                let mut task = Task::new(t, "probe", GroupId::ROOT);
                task.affinity = aff;
                task
            });
            side.cfs.task_fork(&side.tasks, t, None, self.now);
            tid = Some(t);
        }
        tid.expect("two sides")
    }

    /// Lowest-id online CPU the task allows.
    fn first_allowed(&self, tid: Tid) -> Result<CpuId, SelectError> {
        let task = self.a.tasks.get(tid);
        (0..self.online.len())
            .map(|c| CpuId(c as u32))
            .find(|&c| self.online[c.index()] && task.allowed_on(c))
            .ok_or(SelectError { tid })
    }

    /// The `select_idle_sibling` walk the class ran before the index.
    fn reference_idle_sibling(&self, tid: Tid, target: CpuId) -> (Result<CpuId, SelectError>, u32) {
        let task = self.a.tasks.get(tid);
        let ok = |c: CpuId| task.allowed_on(c) && self.online[c.index()];
        let mut scanned = 1;
        if ok(target) && self.h_nr(target) == 0 {
            return (Ok(target), scanned);
        }
        for &c in self.topo.llc_cpus(target) {
            scanned += 1;
            if c != target && ok(c) && self.h_nr(c) == 0 {
                return (Ok(c), scanned);
            }
        }
        let pick = if ok(target) {
            Ok(target)
        } else {
            self.first_allowed(tid)
        };
        (pick, scanned)
    }

    /// The `should_we_balance` walk the class ran before the shared
    /// domains and the index.
    fn reference_should_balance(&self, cpu: CpuId, di: usize) -> bool {
        let dom = &self.domains[cpu.index()][di];
        let local = dom
            .groups
            .iter()
            .find(|g| g.contains(cpu))
            .expect("own group");
        for c in local.iter() {
            if !self.online[c.index()] {
                continue;
            }
            if self.h_nr(c) == 0 {
                return c == cpu;
            }
        }
        local.iter().find(|c| self.online[c.index()]) == Some(cpu)
    }

    /// The `find_idlest` loop the class ran before skipping inactive CPUs:
    /// refresh and compare every allowed online CPU, on instance `b`.
    fn reference_find_idlest(&mut self, tid: Tid) -> (Result<CpuId, SelectError>, u32) {
        let now = self.now;
        let cfs = &mut self.b.cfs;
        let task = self.b.tasks.get(tid);
        let mut scanned = 0;
        let mut best: Option<(u64, CpuId)> = None;
        for c in 0..self.online.len() {
            let c = CpuId(c as u32);
            if !task.allowed_on(c) || !self.online[c.index()] {
                continue;
            }
            cfs.refresh_load(c, now);
            scanned += 1;
            let key = (cfs.cpu_load(c), c);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        (best.map(|(_, c)| c).ok_or(SelectError { tid }), scanned)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn placement_and_election_answer_like_the_old_walks(
        ncpu in ncpu_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rig = Rig::new(ncpu, seed);
        let busy = rig.rng.gen_below(6 * ncpu as u64 + 4);
        for _ in 0..busy {
            let cpu = rig.random_cpu();
            rig.apply(Op::Spawn(cpu));
        }
        for round in 0..10 {
            for _ in 0..4 + ncpu / 4 {
                rig.churn();
            }
            prop_assert_eq!(rig.a.audit_all(rig.now), Ok(()));
            prop_assert_eq!(rig.b.audit_all(rig.now), Ok(()));

            let probe = rig.probe();
            let target = rig.random_cpu();
            let mut stats = SelectStats::default();
            let got = rig.a.cfs.select_idle_sibling(&rig.a.tasks, probe, target, &mut stats);
            let (want, scanned) = rig.reference_idle_sibling(probe, target);
            prop_assert_eq!(got, want, "round {} idle sibling of {:?}", round, target);
            prop_assert_eq!(stats.cpus_scanned, scanned, "round {} idle sibling charge", round);

            for _ in 0..32 {
                let cpu = rig.random_cpu();
                let c = cpu.index();
                if !rig.online[c] {
                    continue;
                }
                prop_assert_eq!(rig.a.cfs.domains[c].len(), rig.domains[c].len());
                for di in 0..rig.a.cfs.domains[c].len() {
                    prop_assert_eq!(
                        rig.a.cfs.should_we_balance(cpu, di),
                        rig.reference_should_balance(cpu, di),
                        "round {} balancer election of {:?} at level {}", round, cpu, di
                    );
                }
            }

            let mut stats = SelectStats::default();
            let now = rig.now;
            let got = rig.a.cfs.find_idlest(&rig.a.tasks, probe, now, &mut stats);
            let (want, scanned) = rig.reference_find_idlest(probe);
            prop_assert_eq!(got, want, "round {} idlest", round);
            prop_assert_eq!(stats.cpus_scanned, scanned, "round {} idlest charge", round);
            for c in 0..ncpu {
                prop_assert_eq!(
                    rig.a.cfs.cpu_load(CpuId(c as u32)),
                    rig.b.cfs.cpu_load(CpuId(c as u32)),
                    "round {} load of cpu{}", round, c
                );
            }
            prop_assert_eq!(rig.a.cfs.active, rig.b.cfs.active);
        }
    }
}
