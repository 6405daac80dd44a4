//! Fault injection (SchedSan).
//!
//! Perturbs a simulation with the misfortunes a real kernel lives with —
//! spurious wakeups, timer-tick jitter and missed ticks, and CPU
//! offline/online (hotplug) — all driven by a dedicated stream of the
//! seeded RNG so that a faulty run is exactly as reproducible as a clean
//! one. Schedulers are required to survive every fault: a spuriously woken
//! task retries its blocking operation (see [`crate::sync::BlockedOn`]),
//! and a hotplugged-out CPU must be drained, its tasks re-placed on the
//! surviving CPUs.
//!
//! The [`FaultPlan`] lives in [`crate::SimConfig::faults`]; everything is
//! disabled by default, and the checks in [`crate::check`] (strict mode)
//! verify that no fault ever corrupts scheduler state.

use sched_api::{DequeueKind, EnqueueKind, SelectStats, TaskState, Tid, WakeKind};
use simcore::Dur;
use topology::{CpuId, CpuMask};

use crate::error::SimError;
use crate::kernel::{Cont, Event, Kernel};
use crate::sync::BlockedOn;
use crate::trace::TraceEvent;

/// What faults to inject, and how often. Default: nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Spuriously wake one random sleeping task with this period.
    pub spurious_wake_period: Option<Dur>,
    /// Add up to this much uniform random delay to every tick re-arm.
    pub tick_jitter: Dur,
    /// Percentage (0–100) of ticks that are skipped entirely (the next
    /// tick fires one full period late).
    pub missed_tick_pct: u8,
    /// Take one random eligible CPU offline with this period. CPU 0, CPUs
    /// named in any live task's affinity mask, and the last online CPU are
    /// never offlined.
    pub hotplug_period: Option<Dur>,
    /// How long an offlined CPU stays down before coming back.
    pub hotplug_down: Dur,
}

impl FaultPlan {
    /// `true` if any fault kind is enabled.
    pub fn active(&self) -> bool {
        self.spurious_wake_period.is_some()
            || self.hotplug_period.is_some()
            || !self.tick_jitter.is_zero()
            || self.missed_tick_pct > 0
    }
}

/// A fault event in flight (see [`crate::kernel::Kernel`]'s event loop).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultOp {
    /// Spuriously wake one random sleeping task, then re-arm.
    SpuriousWake,
    /// Take one random eligible CPU offline.
    Offline,
    /// Bring the given CPU back online.
    Online(CpuId),
}

impl Kernel {
    pub(crate) fn on_fault(&mut self, op: FaultOp) -> Result<(), SimError> {
        match op {
            FaultOp::SpuriousWake => self.fault_spurious_wake(),
            FaultOp::Offline => self.fault_offline(),
            FaultOp::Online(cpu) => self.fault_online(cpu),
        }
    }

    /// Rip one random sleeping task out of whatever it is blocked on. The
    /// victim's continuation becomes [`Cont::Retry`]: at its next dispatch
    /// it re-executes the incomplete operation, re-blocking if the resource
    /// is still unavailable — the POSIX spurious-wakeup contract.
    fn fault_spurious_wake(&mut self) -> Result<(), SimError> {
        if let Some(p) = self.cfg.faults.spurious_wake_period {
            self.events
                .push(self.now + p, Event::Fault(FaultOp::SpuriousWake));
        }
        let victims: Vec<Tid> = self
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Sleeping)
            .map(|t| t.tid)
            .collect();
        if victims.is_empty() {
            return Ok(());
        }
        let victim = victims[self.fault_rng.gen_below(victims.len() as u64) as usize];
        let Some(op) = self.rt_mut(victim)?.blocked_on else {
            return Ok(()); // already being woken; nothing to disturb
        };
        match op {
            // The timer event stays armed; an early retry just re-sleeps.
            BlockedOn::Timer { .. } => {}
            other => {
                if !self.sync.remove_waiter(other, victim) {
                    // No longer a registered waiter (e.g. the resource was
                    // granted in this very instant); skip the injection.
                    return Ok(());
                }
            }
        }
        let rt = self.rt_mut(victim)?;
        rt.cont = Cont::Retry(op);
        rt.blocked_on = None;
        self.counters.spurious_wakes += 1;
        if self.trace_on {
            self.emit(TraceEvent::SpuriousWake {
                at: self.now,
                tid: victim,
            });
        }
        self.wake_task(victim, None)
    }

    /// Take one random eligible CPU offline: mark it dead in the scheduler,
    /// preempt whatever is running there, and drain its runqueue by
    /// re-placing every queued task on a surviving CPU through the normal
    /// select/enqueue path.
    fn fault_offline(&mut self) -> Result<(), SimError> {
        let period = self.cfg.faults.hotplug_period;
        let Some(victim) = self.pick_hotplug_victim() else {
            if let Some(p) = period {
                self.events
                    .push(self.now + p, Event::Fault(FaultOp::Offline));
            }
            return Ok(());
        };
        self.counters.hotplug_events += 1;
        if self.check_on {
            self.san.sweep_all();
        }
        // Mark the CPU dead *before* draining so every placement decision
        // the drain triggers already sees it as unavailable.
        self.cpus[victim.index()].online = false;
        self.online_mask.clear(victim);
        self.sched.cpu_offline(victim);
        if self.trace_on {
            self.emit(TraceEvent::Hotplug {
                at: self.now,
                cpu: victim,
                online: false,
            });
        }
        if self.cpus[victim.index()].current.is_some() {
            // Back into the (dead) runqueue; the drain below re-places it.
            self.preempt_current(victim)?;
        }
        self.cpus[victim.index()].last_tid = None;
        self.cpus[victim.index()].resched_pending = false;

        let mut orphans = std::mem::take(&mut self.san.tids);
        orphans.clear();
        self.sched.queued_tids_into(victim, &mut orphans);
        for &tid in &orphans {
            self.sched
                .dequeue_task(&mut self.tasks, victim, tid, DequeueKind::Migrate, self.now);
            let mut stats = SelectStats::default();
            let target = self
                .sched
                .select_task_rq(
                    &self.tasks,
                    tid,
                    WakeKind::Wakeup { waker: None },
                    victim,
                    self.now,
                    &mut stats,
                )
                .map_err(|e| self.no_placeable(e))?;
            if target == victim || !self.cpus[target.index()].online {
                return Err(SimError::Invariant {
                    at: self.now,
                    detail: format!("hotplug drain placed {tid} on offline {target}"),
                });
            }
            if !self.tasks.get(tid).allowed_on(target) {
                return Err(SimError::AffinityViolated {
                    tid,
                    cpu: target,
                    at: self.now,
                });
            }
            self.tasks.get_mut(tid).cpu = target;
            self.sched
                .enqueue_task(&mut self.tasks, target, tid, EnqueueKind::Migrate, self.now);
            self.counters.migrations += 1;
            self.events.push(self.now, Event::Resched(target));
        }
        orphans.clear();
        self.san.tids = orphans;

        self.events.push(
            self.now + self.cfg.faults.hotplug_down,
            Event::Fault(FaultOp::Online(victim)),
        );
        if let Some(p) = period {
            self.events
                .push(self.now + p, Event::Fault(FaultOp::Offline));
        }
        Ok(())
    }

    /// Bring a hotplugged-out CPU back: re-arm its tick chain (which died
    /// while it was down) and let it pick work.
    fn fault_online(&mut self, cpu: CpuId) -> Result<(), SimError> {
        self.counters.hotplug_events += 1;
        if self.check_on {
            self.san.sweep_all();
        }
        self.cpus[cpu.index()].online = true;
        self.online_mask.set(cpu);
        self.sched.cpu_online(cpu);
        if self.trace_on {
            self.emit(TraceEvent::Hotplug {
                at: self.now,
                cpu,
                online: true,
            });
        }
        if !self.cpus[cpu.index()].tick_armed {
            self.arm_tick(cpu, self.now + self.cfg.tick);
        }
        self.events.push(self.now, Event::Resched(cpu));
        Ok(())
    }

    /// A CPU that may safely be offlined: never CPU 0 (it anchors the
    /// balancers), never a CPU any live task is pinned to (the task would
    /// become unplaceable), and never the last online CPU.
    fn pick_hotplug_victim(&mut self) -> Option<CpuId> {
        // Union every live task's pin mask once — O(tasks + words) instead
        // of the old O(cpus × tasks) nested scan. Excluding CPU 0 by
        // setting it in the pinned mask keeps the candidate set identical
        // to the old loop, so the RNG draw picks the same victim.
        let mut pinned = CpuMask::single(CpuId(0));
        for t in self.tasks.iter() {
            if t.state == TaskState::Dead {
                continue;
            }
            if let Some(mask) = &t.affinity {
                pinned.union_with(mask);
            }
        }
        let cands = self.online_mask.and_not(&pinned);
        let n = cands.count();
        if n == 0 {
            None
        } else {
            let k = self.fault_rng.gen_below(n as u64) as usize;
            cands.iter().nth(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(!FaultPlan::default().active());
        let p = FaultPlan {
            missed_tick_pct: 5,
            ..Default::default()
        };
        assert!(p.active());
        let p = FaultPlan {
            spurious_wake_period: Some(Dur::millis(10)),
            ..Default::default()
        };
        assert!(p.active());
    }
}
