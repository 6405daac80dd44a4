//! Reference-model tests of CFS's placement, balancer election and
//! balancing passes.
//!
//! `select_idle_sibling`, `find_idlest` and `should_we_balance` answer
//! from the occupancy index, the active mask and the shared domains, and
//! `find_idlest` for an unpinned task reads the idlest order within an
//! instant. The loops they replaced walked every CPU of their span and read
//! `h_nr` and each CPU's online flag; they are kept below as the
//! reference, reading `h_nr` (the ground truth) and the test's own online
//! flags. `load_balance` reads clean group statistics from their entries;
//! the pass it replaced refreshed and summed every active CPU of every
//! group, and it is kept below too.
//!
//! Two instances receive the same random operations: hotplug, arrivals,
//! wakeups, sleeps, picks, ticks, migrations, balancing, same-instant fork
//! bursts with and without affinity masks, and time steps from none (one
//! instant) through part of a PELT period to long enough for blocked load
//! to decay away. The class runs on one and the old full-refresh loops on
//! the other (instance `b` balances and places forks with the reference);
//! they must pick the same CPUs with the same `cpus_scanned` charges,
//! migrate the same tasks, and leave every CPU's load average, the active
//! mask and every domain's `nr_failed` and `next_balance` equal, and every
//! CPU of both must pass the class audit after every round.

use proptest::prelude::*;
use sched_api::{
    DequeueKind, EnqueueKind, GroupId, Scheduler, SelectError, SelectStats, Task, TaskState,
    TaskTable, Tid,
};
use simcore::{Dur, SimRng, Time};
use topology::{CpuId, CpuMask, Domain, Level, Topology, MAX_CPUS};

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
#[derive(Clone, Copy, Debug)]
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

/// One CFS instance and its task table. The reference instance balances
/// with the old full-refresh passes.
struct Side {
    cfs: Cfs,
    tasks: TaskTable,
    reference: bool,
}

/// What an operation decided, compared between the instances: tasks
/// migrated (or pulled, for newidle) and the `cpus_scanned` charge.
type Outcome = (usize, u32);

impl Side {
    fn apply(&mut self, op: Op, now: Time) -> Outcome {
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
            Op::Balance(cpu) if self.reference => {
                return (reference_periodic_balance(cfs, tasks, cpu, now), 0);
            }
            Op::Balance(cpu) => {
                let mut targets = Vec::new();
                cfs.balance_tick(tasks, cpu, now, &mut targets);
                return (targets.len(), 0);
            }
            Op::NewIdle(cpu) => {
                let mut stats = SelectStats::default();
                let pulled = if self.reference {
                    reference_newidle_balance(cfs, tasks, cpu, now, &mut stats)
                } else {
                    cfs.idle_balance(tasks, cpu, now, &mut stats)
                };
                return (usize::from(pulled), stats.cpus_scanned);
            }
            Op::Offline(cpu) => cfs.cpu_offline(cpu),
            Op::Online(cpu) => cfs.cpu_online(cpu),
        }
        (0, 0)
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
        let side = |reference| Side {
            cfs: Cfs::new(&topo),
            tasks: TaskTable::new(),
            reference,
        };
        Rig {
            a: side(false),
            b: side(true),
            online: vec![true; ncpu],
            domains: topo.all_cpus().map(|c| topo.domains(c)).collect(),
            topo,
            now: Time::ZERO + Dur::millis(1),
            rng,
        }
    }

    /// Apply `op` to both instances; they must decide alike.
    fn apply(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Offline(cpu) => self.online[cpu.index()] = false,
            Op::Online(cpu) => self.online[cpu.index()] = true,
            _ => {}
        }
        let got = self.a.apply(op, self.now);
        let want = self.b.apply(op, self.now);
        if got != want {
            return Err(format!(
                "{op:?} at {}: {got:?}, reference {want:?}",
                self.now
            ));
        }
        Ok(())
    }

    /// The state both instances must agree on: where every task is, each
    /// CPU's load average and task count, the active mask, and each CPU's
    /// `nr_failed` and `next_balance` in every domain.
    fn same_state(&self) -> Result<(), String> {
        let (a, b) = (&self.a.cfs, &self.b.cfs);
        for t in self.a.tasks.iter() {
            let other = self.b.tasks.get(t.tid);
            if (t.cpu, t.state) != (other.cpu, other.state) {
                return Err(format!(
                    "{} on {} ({:?}), reference {} ({:?})",
                    t.tid, t.cpu, t.state, other.cpu, other.state
                ));
            }
        }
        for c in 0..a.cpus.len() {
            let (x, y) = (&a.cpus[c], &b.cpus[c]);
            if (x.load.avg(), x.h_nr) != (y.load.avg(), y.h_nr) {
                return Err(format!(
                    "cpu{c} load {} h_nr {}, reference {} {}",
                    x.load.avg(),
                    x.h_nr,
                    y.load.avg(),
                    y.h_nr
                ));
            }
            for (di, (x, y)) in a.domains[c].iter().zip(&b.domains[c]).enumerate() {
                if (x.nr_failed, x.next_balance) != (y.nr_failed, y.next_balance) {
                    return Err(format!(
                        "cpu{c} domain {di}: nr_failed {} next_balance {}, reference {} {}",
                        x.nr_failed, x.next_balance, y.nr_failed, y.next_balance
                    ));
                }
            }
        }
        if a.active != b.active {
            return Err("active masks differ".into());
        }
        Ok(())
    }

    fn h_nr(&self, cpu: CpuId) -> usize {
        self.a.cfs.cpus[cpu.index()].h_nr
    }

    fn random_cpu(&mut self) -> CpuId {
        CpuId(self.rng.gen_below(self.online.len() as u64) as u32)
    }

    /// One random operation the kernel could make, on both instances,
    /// after a time step: none (the same instant), part of a PELT period,
    /// a few periods, or long enough for blocked load to decay away.
    fn churn(&mut self) -> Result<(), String> {
        let step = match self.rng.gen_below(12) {
            0 => 500_000,
            1..=2 => 20_000,
            3..=5 => 2_000,
            6..=8 => 400,
            _ => 0,
        };
        if step > 0 {
            self.now += Dur::micros(self.rng.gen_range(1, step));
        }
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
                    return Ok(());
                }
                Op::Wake(
                    sleeping[self.rng.gen_below(sleeping.len() as u64) as usize],
                    cpu,
                )
            }
            4 => match curr {
                Some(t) => Op::Sleep(cpu, t),
                None => return Ok(()),
            },
            5 | 6 => match curr {
                Some(t) => Op::Tick(cpu, t),
                None if self.h_nr(cpu) > 0 => Op::Pick(cpu),
                None => return Ok(()),
            },
            7 => {
                let to = self.random_cpu();
                let mut queued = Vec::new();
                self.a.cfs.queued_tids_into(cpu, &mut queued);
                match queued.first() {
                    Some(&t) if to != cpu && self.online[to.index()] => Op::Migrate(t, cpu, to),
                    _ => return Ok(()),
                }
            }
            8 if up => Op::Balance(cpu),
            9 if up && curr.is_none() && self.h_nr(cpu) == 0 => Op::NewIdle(cpu),
            // The kernel drains a CPU before it goes down, and keeps CPU 0.
            10 if up && cpu != CpuId(0) && self.h_nr(cpu) == 0 => Op::Offline(cpu),
            11 if !up => Op::Online(cpu),
            _ => return Ok(()),
        };
        self.apply(op)
    }

    /// Up to `max` forks at one instant, each placed by `find_idlest` on
    /// instance `a` and by the old loop on `b`, then enqueued where they
    /// were placed: with `pinned`, some forks carry affinity masks. Now and
    /// then a CPU goes down or comes up between two forks.
    fn fork_burst(&mut self, max: u64, pinned: bool) -> Result<(), String> {
        for _ in 0..1 + self.rng.gen_below(max) {
            if self.rng.gen_bool(0.1) {
                let cpu = self.random_cpu();
                if !self.online[cpu.index()] {
                    self.apply(Op::Online(cpu))?;
                } else if cpu != CpuId(0) && self.h_nr(cpu) == 0 {
                    self.apply(Op::Offline(cpu))?;
                }
            }
            let aff = if pinned && self.rng.gen_bool(0.3) {
                affinity(&mut self.rng, self.online.len())
            } else {
                None
            };
            let tid = self.fork(aff);
            let mut stats = SelectStats::default();
            let now = self.now;
            let got = self.a.cfs.find_idlest(&self.a.tasks, tid, now, &mut stats);
            let (want, scanned) = self.reference_find_idlest(tid);
            if (got, stats.cpus_scanned) != (want, scanned) {
                return Err(format!(
                    "fork {tid} at {now}: {got:?} charged {}, reference {want:?} charged {scanned}",
                    stats.cpus_scanned
                ));
            }
            if let Ok(cpu) = got {
                for side in [&mut self.a, &mut self.b] {
                    let t = side.tasks.get_mut(tid);
                    (t.cpu, t.last_cpu, t.state) = (cpu, cpu, TaskState::Runnable);
                    side.cfs
                        .enqueue_task(&mut side.tasks, cpu, tid, EnqueueKind::New, now);
                }
            }
        }
        Ok(())
    }

    /// A probe task that never runs, with a random affinity.
    fn probe(&mut self) -> Tid {
        let aff = affinity(&mut self.rng, self.online.len());
        self.fork(aff)
    }

    /// A new task on both instances, not yet placed.
    fn fork(&mut self, aff: Option<CpuMask>) -> Tid {
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

/// The periodic pass the class ran before it kept group statistics.
fn reference_periodic_balance(
    cfs: &mut Cfs,
    tasks: &mut TaskTable,
    cpu: CpuId,
    now: Time,
) -> usize {
    let mut moved = 0;
    for di in 0..cfs.domains[cpu.index()].len() {
        let ds = &mut cfs.domains[cpu.index()][di];
        if now < ds.next_balance {
            continue;
        }
        ds.next_balance = now + ds.interval;
        if cfs.should_we_balance(cpu, di) {
            moved += reference_load_balance(cfs, tasks, cpu, di, now);
        }
    }
    moved
}

/// The newidle pass the class ran before it kept group statistics.
fn reference_newidle_balance(
    cfs: &mut Cfs,
    tasks: &mut TaskTable,
    cpu: CpuId,
    now: Time,
    stats: &mut SelectStats,
) -> bool {
    for di in 0..cfs.domains[cpu.index()].len() {
        let dom = &cfs.doms[cfs.domains[cpu.index()][di].dom];
        if dom.level == Level::Machine && cfs.topo.nr_nodes() > 1 {
            break;
        }
        stats.cpus_scanned += dom.span_size;
        if reference_load_balance(cfs, tasks, cpu, di, now) > 0 {
            return true;
        }
    }
    false
}

/// The `load_balance` the class ran before it kept group statistics:
/// refresh every active CPU of every group of the domain and sum them.
fn reference_load_balance(
    cfs: &mut Cfs,
    tasks: &mut TaskTable,
    dst: CpuId,
    di: usize,
    now: Time,
) -> usize {
    let ds = &cfs.domains[dst.index()][di];
    let (dom, local, nr_failed) = (ds.dom, ds.local, ds.nr_failed);
    let pct = cfs.doms[dom].imbalance_pct;
    let mut local_avg = 0u64;
    let mut busiest: Option<(usize, u64)> = None;
    for i in 0..cfs.doms[dom].groups.len() {
        let group = &cfs.doms[dom].groups[i];
        let (members, size) = (group.mask.and(&cfs.active), group.size);
        let (mut load, mut nr) = (0u64, 0usize);
        for c in members.iter() {
            cfs.refresh_load(c, now);
            load += cfs.cpu_load(c);
            nr += cfs.cpus[c.index()].h_nr;
        }
        let avg = if load == 0 { 0 } else { load * 1024 / size };
        if i == local {
            local_avg = avg;
        } else if nr > 0 && busiest.is_none_or(|(_, b)| avg > b) {
            busiest = Some((i, avg));
        }
    }
    let Some((bi, busiest_avg)) = busiest else {
        return 0;
    };
    if busiest_avg * 100 <= local_avg * pct {
        return 0;
    }
    let Some(src) = cfs.doms[dom].groups[bi]
        .mask
        .and(&cfs.active)
        .iter()
        .max_by_key(|c| (cfs.cpu_load(*c), cfs.cpus[c.index()].h_nr))
    else {
        return 0;
    };
    if cfs.cpus[src.index()].h_nr <= 1 {
        cfs.domains[dst.index()][di].nr_failed += 1;
        return 0;
    }
    let imbalance = cfs.cpu_load(src).saturating_sub(cfs.cpu_load(dst)) / 2;
    let (mut moved, mut moved_load) = (0usize, 0u64);
    let mut candidates = Vec::new();
    cfs.queued_tids_into(src, &mut candidates);
    for tid in candidates.into_iter().rev() {
        if moved >= cfs.p.max_migrate || moved_load >= imbalance {
            break;
        }
        if cfs.cpus[src.index()].h_nr <= cfs.cpus[dst.index()].h_nr + 1 {
            break;
        }
        let task = tasks.get(tid);
        let hot = now.saturating_since(task.last_ran) < cfs.p.migration_cost;
        if !task.allowed_on(dst) || (hot && nr_failed <= cfs.p.cache_nice_tries) {
            continue;
        }
        let w = cfs.tent(tid).ent.weight;
        cfs.dequeue_task(tasks, src, tid, DequeueKind::Migrate, now);
        tasks.get_mut(tid).cpu = dst;
        cfs.enqueue_task(tasks, dst, tid, EnqueueKind::Migrate, now);
        moved += 1;
        moved_load += w;
    }
    let ds = &mut cfs.domains[dst.index()][di];
    ds.nr_failed = if moved == 0 { ds.nr_failed + 1 } else { 0 };
    moved
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
            prop_assert_eq!(rig.apply(Op::Spawn(cpu)), Ok(()));
        }
        for round in 0..10 {
            for _ in 0..4 + ncpu / 4 {
                prop_assert_eq!(rig.churn(), Ok(()), "round {}", round);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn balancing_and_fork_bursts_move_like_the_full_sweeps(
        ncpu in ncpu_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rig = Rig::new(ncpu, seed);
        let busy = rig.rng.gen_below(3 * ncpu as u64 + 4);
        for _ in 0..busy {
            let cpu = rig.random_cpu();
            prop_assert_eq!(rig.apply(Op::Spawn(cpu)), Ok(()));
        }
        for round in 0..10 {
            for _ in 0..4 + ncpu / 32 {
                let step = match rig.rng.gen_below(10) {
                    // A fork burst at one instant, half the rounds with
                    // some forks pinned.
                    0 => rig.fork_burst(ncpu as u64 / 2 + 4, round % 2 == 1),
                    // Every online CPU's balancing tick, then every idle
                    // one's newidle pass, at one instant, as the kernel
                    // makes them: later passes read what earlier ones left.
                    1 => (0..ncpu).try_for_each(|c| {
                        let cpu = CpuId(c as u32);
                        if rig.online[c] {
                            rig.apply(Op::Balance(cpu))?;
                        }
                        if rig.online[c] && rig.h_nr(cpu) == 0 {
                            rig.apply(Op::NewIdle(cpu))?;
                        }
                        Ok(())
                    }),
                    _ => rig.churn(),
                };
                prop_assert_eq!(step, Ok(()), "round {}", round);
                prop_assert_eq!(rig.same_state(), Ok(()), "round {} at {}", round, rig.now);
                prop_assert_eq!(rig.a.audit_all(rig.now), Ok(()), "round {}", round);
            }
            prop_assert_eq!(rig.a.audit_all(rig.now), Ok(()), "round {}", round);
            prop_assert_eq!(rig.b.audit_all(rig.now), Ok(()), "round {}", round);
        }
    }
}
