//! A fixed reference workload that gauges how fast the host is running
//! right now.
//!
//! On a shared host, neighbours slow the simulator down by up to 2x in
//! episodes lasting seconds to minutes. The reference is a small CFS-like
//! event simulation (an event heap, per-CPU runqueues ordered by vruntime,
//! wakeup placement over a few CPUs), so it slows down with the simulator,
//! and it lives in the benchmark, so no change to the simulator moves it.
//! Each round times it once; every reported host time is scaled by
//! [`REFERENCE_S`] over the reference's own time in the same run.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::hint::black_box;

/// Host seconds one [`run`] takes on the machine the benchmark was tuned
/// on (2-vCPU KVM guest, Intel Xeon with AVX-512) while it was quiet.
pub const REFERENCE_S: f64 = 0.016;

const EVENTS: u32 = 150_000;
const CPUS: usize = 16;
const TASKS: usize = 400;

struct Task {
    vruntime: u64,
    weight: u64,
    cpu: usize,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Wake(usize),
    Tick(usize),
}

/// Run the reference once; returns a digest so the work cannot be elided.
pub fn run() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut rqs: Vec<BTreeSet<(u64, usize)>> = (0..CPUS).map(|_| BTreeSet::new()).collect();
    let mut tasks: Vec<Task> = (0..TASKS)
        .map(|i| Task {
            vruntime: 0,
            weight: 1024 + (i as u64 % 7) * 100,
            cpu: i % CPUS,
        })
        .collect();
    let mut events = BinaryHeap::new();
    for t in 0..TASKS {
        events.push(Reverse((xorshift(&mut rng) % 1000, Event::Wake(t))));
    }
    for c in 0..CPUS {
        events.push(Reverse((c as u64 * 7, Event::Tick(c))));
    }
    let mut digest = 0u64;
    for _ in 0..EVENTS {
        let Reverse((now, ev)) = events.pop().expect("every tick re-arms itself");
        match ev {
            Event::Wake(tid) => {
                // Place on the shortest of the last CPU and four others.
                let t = &mut tasks[tid];
                let mut best = t.cpu;
                for k in 0..4 {
                    let c = (xorshift(&mut rng) as usize + k) % CPUS;
                    if rqs[c].len() < rqs[best].len() {
                        best = c;
                    }
                }
                let min_vruntime = rqs[best].first().map_or(t.vruntime, |e| e.0);
                t.vruntime = t.vruntime.max(min_vruntime.saturating_sub(3000));
                t.cpu = best;
                rqs[best].insert((t.vruntime, tid));
            }
            Event::Tick(cpu) => {
                // Run the leftmost task for a slice; one in four then sleeps.
                if let Some((vruntime, tid)) = rqs[cpu].pop_first() {
                    let t = &mut tasks[tid];
                    let slice = 1000 + xorshift(&mut rng) % 3000;
                    t.vruntime = vruntime + slice * 1024 / t.weight;
                    digest = digest.wrapping_mul(31).wrapping_add(tid as u64 ^ now);
                    if xorshift(&mut rng).is_multiple_of(4) {
                        let sleep = xorshift(&mut rng) % 20_000;
                        events.push(Reverse((now + sleep, Event::Wake(tid))));
                    } else {
                        rqs[cpu].insert((t.vruntime, tid));
                    }
                }
                events.push(Reverse((now + 4000, Event::Tick(cpu))));
            }
        }
    }
    black_box(digest)
}
