//! The idlest-CPU order behind `find_idlest` for a task without an
//! affinity mask.
//!
//! A fork burst places many tasks at one instant, and each placement used
//! to refresh and compare every active online CPU. Between two placements
//! at one instant only the CPUs whose load changed can move: every other
//! CPU was refreshed to that instant by the first scan, so a second
//! refresh changes nothing. [`IdlestOrder`] keeps the online CPUs in a
//! tournament tree keyed by `(load, id)`, so the idlest is the root:
//!
//! * the first such placement at an instant takes the full scan and only
//!   records the instant ([`IdlestOrder::scanned`]);
//! * the second one at that instant builds the tree ([`IdlestOrder::build`]);
//! * later ones re-key only the CPUs marked stale since
//!   ([`IdlestOrder::mark`], called by the class's change hook and on
//!   hotplug) and read the root.
//!
//! An inactive CPU's load is 0 (the class audit checks it), so it takes
//! the key `(0, id)` that the full scan gives it. An offline CPU takes a
//! key above every real one. The tree is allocated once, at construction.

use simcore::Time;
use topology::{CpuId, CpuMask};

/// The key of a CPU no placement may pick (offline, or past the machine).
const NONE: (u64, u32) = (u64::MAX, u32::MAX);

/// Where the order stands with respect to the current instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// No full scan of an unpinned placement has been recorded.
    Cold,
    /// A full scan ran at this instant; the tree is not built.
    Scanned(Time),
    /// The tree holds every CPU's key at this instant, except the stale
    /// CPUs'.
    Built(Time),
}

/// The online CPUs ordered by `(load, id)`; see the module docs.
pub(crate) struct IdlestOrder {
    /// Leaves: a power of two at least the machine's CPU count.
    leaves: usize,
    /// A min-tournament tree: node 1 is the root, node `i`'s children are
    /// `2i` and `2i + 1`, and CPU `c`'s leaf is node `leaves + c`.
    keys: Vec<(u64, u32)>,
    state: State,
    /// CPUs whose key may have changed since the tree was last brought up
    /// to date.
    stale: CpuMask,
}

impl IdlestOrder {
    pub(crate) fn new(ncpu: usize) -> IdlestOrder {
        let leaves = ncpu.max(1).next_power_of_two();
        IdlestOrder {
            leaves,
            keys: vec![NONE; 2 * leaves],
            state: State::Cold,
            stale: CpuMask::empty(),
        }
    }

    /// `cpu`'s load, run queue, active bit or online state changed.
    #[inline]
    pub(crate) fn mark(&mut self, cpu: CpuId) {
        self.stale.set(cpu);
    }

    /// The CPUs marked stale since the last [`IdlestOrder::scanned`],
    /// [`IdlestOrder::build`] or [`IdlestOrder::clear_stale`].
    pub(crate) fn stale(&self) -> CpuMask {
        self.stale
    }

    pub(crate) fn clear_stale(&mut self) {
        self.stale = CpuMask::empty();
    }

    /// Whether the tree holds the keys at `now` (stale CPUs aside).
    pub(crate) fn built_at(&self, now: Time) -> bool {
        self.state == State::Built(now)
    }

    /// Whether the order can answer at `now`: a full scan ran at `now`,
    /// and the tree is built at `now` or can be.
    pub(crate) fn covers(&self, now: Time) -> bool {
        matches!(self.state, State::Scanned(t) | State::Built(t) if t == now)
    }

    /// A full scan of every active online CPU ran at `now`: each is now
    /// refreshed to `now`, so only a CPU marked from here on can differ
    /// from what that scan saw.
    pub(crate) fn scanned(&mut self, now: Time) {
        self.state = State::Scanned(now);
        self.stale = CpuMask::empty();
    }

    /// Build the tree at `now` from every CPU's key (`None` for an offline
    /// one), and clear the stale mask.
    pub(crate) fn build(&mut self, now: Time, key: impl Fn(usize) -> Option<u64>) {
        let n = self.leaves;
        for c in 0..n {
            self.keys[n + c] = key(c).map_or(NONE, |load| (load, c as u32));
        }
        for i in (1..n).rev() {
            self.keys[i] = self.keys[2 * i].min(self.keys[2 * i + 1]);
        }
        self.state = State::Built(now);
        self.stale = CpuMask::empty();
    }

    /// Re-key `cpu` (`None`: offline) and the path above it.
    pub(crate) fn set(&mut self, cpu: CpuId, load: Option<u64>) {
        let mut i = self.leaves + cpu.index();
        self.keys[i] = load.map_or(NONE, |load| (load, cpu.0));
        while i > 1 {
            i /= 2;
            self.keys[i] = self.keys[2 * i].min(self.keys[2 * i + 1]);
        }
    }

    /// The idlest online CPU, if any CPU is online.
    pub(crate) fn idlest(&self) -> Option<CpuId> {
        let (_, c) = self.keys[1];
        (self.keys[1] != NONE).then_some(CpuId(c))
    }

    /// `cpu`'s recorded load (`None`: recorded offline).
    fn key(&self, cpu: CpuId) -> Option<u64> {
        let key = self.keys[self.leaves + cpu.index()];
        (key != NONE).then_some(key.0)
    }

    /// SchedSan: built at `now`, the tree holds every CPU's current key
    /// except the stale CPUs'. `load` is `cpu`'s load average, `None` if it
    /// is offline.
    #[inline]
    pub(crate) fn audit(&self, cpu: CpuId, load: Option<u64>, now: Time) -> Result<(), String> {
        if !self.built_at(now) || self.stale.contains(cpu) {
            return Ok(());
        }
        let kept = self.key(cpu);
        if kept != load {
            return Err(format!(
                "idlest order keeps load {kept:?} but the CPU holds {load:?} (None: offline)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_root_is_the_least_key_and_follows_every_re_key() {
        for ncpu in [1usize, 2, 3, 64, 65, 256] {
            let now = Time(7);
            let mut order = IdlestOrder::new(ncpu);
            let mut loads: Vec<Option<u64>> =
                (0..ncpu).map(|c| Some((c as u64 * 37) % 11)).collect();
            order.build(now, |c| loads.get(c).copied().flatten());
            assert!(order.built_at(now));
            let want = |loads: &[Option<u64>]| {
                (0..loads.len())
                    .filter_map(|c| loads[c].map(|l| (l, c)))
                    .min()
                    .map(|(_, c)| CpuId(c as u32))
            };
            assert_eq!(order.idlest(), want(&loads));
            for step in 0..3 * ncpu {
                let c = (step * 7) % ncpu;
                loads[c] = if step % 5 == 4 {
                    None
                } else {
                    Some(step as u64 % 13)
                };
                order.set(CpuId(c as u32), loads[c]);
                assert_eq!(order.key(CpuId(c as u32)), loads[c]);
                assert_eq!(order.idlest(), want(&loads), "{ncpu} CPUs, step {step}");
            }
        }
    }
}
