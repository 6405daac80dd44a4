//! Model-based property test of [`Occupancy`]: random occupancy updates,
//! range fills and hotplug on machines of 1 to 512 CPUs, checked after
//! every step against a plain per-CPU model. Every load and waiting level
//! mask must hold exactly the CPUs at that level. Least-loaded placement
//! must return the CPU and the `cpus_scanned` charge of the exhaustive scan
//! it replaced, and the busiest-CPU query the victim of the old steal scan;
//! the span-limited queries ULE and CFS use must answer as their old walks
//! did. The scans are kept below as the reference.

use proptest::prelude::*;
use sched_api::{GroupId, Occupancy, SelectStats, Task, Tid};
use topology::{CpuId, CpuMask, MAX_CPUS};

/// One step against the index and the model.
#[derive(Debug, Clone)]
enum Op {
    /// Set one CPU's row (the CPU is `sel % ncpu`).
    Set {
        sel: usize,
        waiting: usize,
        running: bool,
    },
    /// Make `len` CPUs from `sel % ncpu` on busy, so placement over them
    /// has no idle candidate and takes the argmin path.
    Fill {
        sel: usize,
        len: usize,
        waiting: usize,
    },
    /// Hotplug a CPU out.
    Offline(usize),
    /// Bring a CPU back.
    Online(usize),
}

/// A task's affinity for one least-loaded query.
#[derive(Debug, Clone)]
enum Aff {
    /// No mask: any CPU.
    Any,
    /// An empty mask: nothing is placeable.
    Empty,
    /// One CPU, possibly past the end of the machine.
    Single(usize),
    /// A contiguous run of CPUs, possibly running past the end.
    Range(usize, usize),
    /// Random bits over the whole `MAX_CPUS` capacity at roughly 50 % or
    /// 25 % density (the flag), so bits past the end are common.
    Bits(Vec<u64>, bool),
}

impl Aff {
    fn mask(&self) -> Option<CpuMask> {
        match self {
            Aff::Any => None,
            Aff::Empty => Some(CpuMask::empty()),
            Aff::Single(c) => Some(CpuMask::single(CpuId(*c as u32))),
            Aff::Range(lo, len) => Some(
                (*lo..(*lo + *len).min(MAX_CPUS))
                    .map(|c| CpuId(c as u32))
                    .collect(),
            ),
            Aff::Bits(words, sparse) => Some(
                (0..MAX_CPUS)
                    .filter(|&c| {
                        let w = words[c / 64];
                        let w = if *sparse {
                            w & words[(c / 64 + 1) % 8]
                        } else {
                            w
                        };
                        w >> (c % 64) & 1 == 1
                    })
                    .map(|c| CpuId(c as u32))
                    .collect(),
            ),
        }
    }
}

fn ncpu_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(1usize),
        1 => Just(64usize),
        1 => Just(65usize),
        1 => Just(MAX_CPUS),
        6 => 1usize..=MAX_CPUS,
    ]
}

/// Waiting counts drawn small so equal loads (ties) are the norm, with
/// a share around the last level (7 and up) so its row compares run.
fn waiting_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => Just(0usize),
        4 => 1usize..3,
        2 => 5usize..10,
        1 => 3usize..40,
    ]
}

/// Levels per mask family in the index: the last one holds every count
/// from `LEVELS - 1` up.
const LEVELS: usize = 8;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<usize>(), waiting_strategy(), any::<bool>())
            .prop_map(|(sel, waiting, running)| Op::Set { sel, waiting, running }),
        2 => (any::<usize>(), 1usize..=MAX_CPUS, waiting_strategy())
            .prop_map(|(sel, len, waiting)| Op::Fill { sel, len, waiting }),
        1 => any::<usize>().prop_map(Op::Offline),
        1 => any::<usize>().prop_map(Op::Online),
    ]
}

fn aff_strategy() -> impl Strategy<Value = Aff> {
    prop_oneof![
        2 => Just(Aff::Any),
        1 => Just(Aff::Empty),
        2 => (0usize..MAX_CPUS).prop_map(Aff::Single),
        3 => (0usize..MAX_CPUS, 1usize..=MAX_CPUS).prop_map(|(lo, len)| Aff::Range(lo, len)),
        2 => (prop::collection::vec(any::<u64>(), 8), any::<bool>())
            .prop_map(|(w, sparse)| Aff::Bits(w, sparse)),
    ]
}

/// The per-CPU model: `(waiting, running)` rows and online flags.
struct Model {
    rows: Vec<(usize, bool)>,
    online: Vec<bool>,
}

impl Model {
    /// The exhaustive least-loaded scan the classes ran before the index.
    fn least_loaded(&self, task: &Task) -> (Option<CpuId>, u32) {
        let mut scanned = 0u32;
        let mut best: Option<(CpuId, usize)> = None;
        for (i, &(waiting, running)) in self.rows.iter().enumerate() {
            let cpu = CpuId(i as u32);
            if !self.online[i] || !task.allowed_on(cpu) {
                continue;
            }
            scanned += 1;
            let load = waiting + usize::from(running);
            match best {
                None => best = Some((cpu, load)),
                Some((_, b)) if load < b => best = Some((cpu, load)),
                _ => {}
            }
        }
        (best.map(|(c, _)| c), scanned)
    }

    /// The exhaustive scan for the lowest (load, id) among the online
    /// CPUs of `cand`.
    fn least_loaded_in(&self, cand: &CpuMask) -> Option<CpuId> {
        let mut best: Option<(usize, CpuId)> = None;
        for (i, &(waiting, running)) in self.rows.iter().enumerate() {
            let cpu = CpuId(i as u32);
            if !self.online[i] || !cand.contains(cpu) {
                continue;
            }
            let key = (waiting + usize::from(running), cpu);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, c)| c)
    }

    /// ULE's old `tdq_idled` victim walk over one span.
    fn most_loaded(&self, span: &CpuMask, thief: CpuId, min: usize) -> Option<CpuId> {
        let mut best: Option<(usize, CpuId)> = None;
        for (i, &(waiting, running)) in self.rows.iter().enumerate() {
            let cpu = CpuId(i as u32);
            if cpu == thief || !self.online[i] || !span.contains(cpu) {
                continue;
            }
            let load = waiting + usize::from(running);
            if load >= min && best.is_none_or(|(b, _)| load > b) {
                best = Some((load, cpu));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The exhaustive idle-steal scan the classes ran before the index.
    fn busiest(&self, thief: CpuId) -> (Option<CpuId>, u32) {
        let mut scanned = 0u32;
        let mut best: Option<(usize, usize)> = None;
        for (i, &(waiting, _)) in self.rows.iter().enumerate() {
            scanned += 1;
            if i == thief.index() || !self.online[i] || waiting == 0 {
                continue;
            }
            match best {
                None => best = Some((i, waiting)),
                Some((_, b)) if waiting > b => best = Some((i, waiting)),
                _ => {}
            }
        }
        (best.map(|(i, _)| CpuId(i as u32)), scanned)
    }

    fn mask(&self, f: impl Fn(usize) -> bool) -> CpuMask {
        (0..self.rows.len())
            .filter(|&i| f(i))
            .map(|i| CpuId(i as u32))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn index_answers_like_the_exhaustive_scans(
        ncpu in ncpu_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..120),
        affs in prop::collection::vec(aff_strategy(), 8),
        thieves in prop::collection::vec(any::<usize>(), 8),
    ) {
        let mut occ = Occupancy::new(ncpu);
        let mut model = Model {
            rows: vec![(0, false); ncpu],
            online: vec![true; ncpu],
        };
        let mut task = Task::new(Tid(0), "probe".to_string(), GroupId::ROOT);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Set { sel, waiting, running } => {
                    let cpu = sel % ncpu;
                    occ.set(CpuId(cpu as u32), waiting, running);
                    model.rows[cpu] = (waiting, running);
                }
                Op::Fill { sel, len, waiting } => {
                    for cpu in (sel % ncpu..ncpu).take(len) {
                        occ.set(CpuId(cpu as u32), waiting, true);
                        model.rows[cpu] = (waiting, true);
                    }
                }
                Op::Offline(sel) | Op::Online(sel) => {
                    let cpu = sel % ncpu;
                    let up = matches!(op, Op::Online(_));
                    occ.set_online(CpuId(cpu as u32), up);
                    model.online[cpu] = up;
                }
            }
            prop_assert_eq!(*occ.online(), model.mask(|i| model.online[i]));
            prop_assert_eq!(
                occ.load_level(0),
                model.mask(|i| model.rows[i] == (0, false))
            );
            for k in 0..LEVELS + 2 {
                let at = |n: usize| n.min(LEVELS - 1) == k.min(LEVELS - 1);
                prop_assert_eq!(
                    occ.load_level(k),
                    model.mask(|i| at(model.rows[i].0 + usize::from(model.rows[i].1))),
                    "load level {}", k
                );
                prop_assert_eq!(
                    occ.wait_level(k),
                    model.mask(|i| at(model.rows[i].0)),
                    "waiting level {}", k
                );
            }
            for (i, &(waiting, running)) in model.rows.iter().enumerate() {
                let cpu = CpuId(i as u32);
                prop_assert_eq!(occ.waiting(cpu), waiting);
                prop_assert_eq!(occ.running(cpu), running);
                if model.online[i] || (waiting, running) == (0, false) {
                    prop_assert_eq!(occ.audit(cpu, waiting, running), Ok(()));
                } else {
                    prop_assert!(occ.audit(cpu, waiting, running).is_err(),
                        "offline CPU {} holding work passed the audit", i);
                }
            }
            let aff = &affs[step % affs.len()];
            task.affinity = aff.mask();
            let mut stats = SelectStats::default();
            let got = occ.least_loaded(&task, &mut stats);
            let (want, scanned) = model.least_loaded(&task);
            prop_assert_eq!(got, want, "least-loaded pick for {:?}", aff);
            prop_assert_eq!(stats.cpus_scanned, scanned, "scan charge for {:?}", aff);

            let thief = CpuId((thieves[step % thieves.len()] % ncpu) as u32);
            let mut stats = SelectStats::default();
            let got = occ.busiest(thief, &mut stats);
            let (want, scanned) = model.busiest(thief);
            prop_assert_eq!(got, want, "busiest victim for thief {:?}", thief);
            prop_assert_eq!(stats.cpus_scanned, scanned);

            // The span-limited queries, with the next affinity as the span.
            let span = affs[(step + 1) % affs.len()]
                .mask()
                .unwrap_or(CpuMask::first_n(ncpu));
            let min = step % 4;
            prop_assert_eq!(
                occ.most_loaded(&span, thief, min),
                model.most_loaded(&span, thief, min),
                "most loaded in {:?} reaching {} for thief {:?}", span, min, thief
            );
            let allowed = aff.mask();
            let cand = allowed.map_or(span, |m| span.and(&m));
            // A filtered search (ULE's priority passes) narrows the span:
            // about a third of the CPUs are filtered out.
            let salt = thieves[(step + 1) % thieves.len()];
            let kept: CpuMask = (0..MAX_CPUS)
                .filter(|c| c % 3 != salt % 3)
                .map(|c| CpuId(c as u32))
                .collect();
            prop_assert_eq!(
                occ.least_loaded_in(&span.and(&kept), allowed.as_ref()),
                model.least_loaded_in(&cand.and(&kept)),
                "least loaded in {:?} ∩ {:?}, filtered", span, aff
            );
            let first_idle = cand.iter().find(|c| {
                c.index() < ncpu && model.online[c.index()] && model.rows[c.index()] == (0, false)
            });
            prop_assert_eq!(occ.first_idle(&span, allowed.as_ref()), first_idle);
        }
    }
}
