//! Machine topology model.
//!
//! Both schedulers studied by the paper make placement decisions that depend
//! on the hardware topology: ULE walks a tree of "cache affinity levels"
//! (`sched_pickcpu`, idle stealing), while CFS builds *scheduling domains*
//! (SMT → last-level cache → NUMA) and balances hierarchically with
//! per-level imbalance thresholds.
//!
//! This crate describes a machine as a regular tree:
//! NUMA nodes → LLC groups → physical cores → SMT hardware threads, and
//! offers the queries both schedulers need, plus structural sched-domain
//! construction for CFS.
//!
//! Presets model the paper's two evaluation machines:
//! [`Topology::opteron_6172`] (32 cores, 4 NUMA nodes) and
//! [`Topology::core_i7_3770`] (4 cores × 2 SMT, single LLC).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mask;

pub use mask::{CpuMask, CpuMaskIter, MAX_CPUS};

use serde::{Deserialize, Serialize};

/// Identifier of a logical CPU (a hardware thread).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CpuId(pub u32);

impl CpuId {
    /// Index into per-cpu arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Affinity levels, ordered from closest to farthest. These are the levels
/// ULE's `sched_pickcpu` walks and the levels at which CFS builds domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Same physical core (SMT siblings).
    Smt,
    /// Same last-level cache.
    Llc,
    /// Same NUMA node.
    Node,
    /// The whole machine.
    Machine,
}

impl Level {
    /// All levels, closest first.
    pub const ALL: [Level; 4] = [Level::Smt, Level::Llc, Level::Node, Level::Machine];
}

/// Immutable description of one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    /// For every cpu: the physical core it belongs to.
    core_of: Vec<u32>,
    /// For every cpu: the LLC group it belongs to.
    llc_of: Vec<u32>,
    /// For every cpu: the NUMA node it belongs to.
    node_of: Vec<u32>,
    /// cpus grouped by physical core.
    cores: Vec<Vec<CpuId>>,
    /// cpus grouped by LLC.
    llcs: Vec<Vec<CpuId>>,
    /// cpus grouped by NUMA node.
    nodes: Vec<Vec<CpuId>>,
    /// Dense bitset per physical core (same indexing as `cores`).
    core_masks: Vec<CpuMask>,
    /// Dense bitset per LLC group.
    llc_masks: Vec<CpuMask>,
    /// Dense bitset per NUMA node.
    node_masks: Vec<CpuMask>,
    /// All CPUs of the machine as one bitset.
    machine_mask: CpuMask,
}

impl Topology {
    /// Build a regular topology: `nodes` NUMA nodes, each containing
    /// `llcs_per_node` LLC groups, each containing `cores_per_llc` physical
    /// cores, each with `smt_per_core` hardware threads.
    ///
    /// CPU ids are assigned depth-first, so consecutive ids share caches —
    /// the same convention as the simulated machines in the paper.
    pub fn regular(
        name: &str,
        nodes: u32,
        llcs_per_node: u32,
        cores_per_llc: u32,
        smt_per_core: u32,
    ) -> Self {
        assert!(nodes > 0 && llcs_per_node > 0 && cores_per_llc > 0 && smt_per_core > 0);
        let total = nodes as usize
            * llcs_per_node as usize
            * cores_per_llc as usize
            * smt_per_core as usize;
        assert!(
            total <= MAX_CPUS,
            "topology {name:?} has {total} CPUs; CpuMask capacity is {MAX_CPUS}"
        );
        let mut core_of = Vec::new();
        let mut llc_of = Vec::new();
        let mut node_of = Vec::new();
        let mut cores = Vec::new();
        let mut llcs = Vec::new();
        let mut node_groups = Vec::new();
        let mut cpu = 0u32;
        for n in 0..nodes {
            let mut node_cpus = Vec::new();
            for _l in 0..llcs_per_node {
                let llc_id = llcs.len() as u32;
                let mut llc_cpus = Vec::new();
                for _c in 0..cores_per_llc {
                    let core_id = cores.len() as u32;
                    let mut core_cpus = Vec::new();
                    for _t in 0..smt_per_core {
                        let id = CpuId(cpu);
                        cpu += 1;
                        core_of.push(core_id);
                        llc_of.push(llc_id);
                        node_of.push(n);
                        core_cpus.push(id);
                        llc_cpus.push(id);
                        node_cpus.push(id);
                    }
                    cores.push(core_cpus);
                }
                llcs.push(llc_cpus);
            }
            node_groups.push(node_cpus);
        }
        let as_masks = |groups: &[Vec<CpuId>]| -> Vec<CpuMask> {
            groups.iter().map(|g| g.iter().copied().collect()).collect()
        };
        let core_masks = as_masks(&cores);
        let llc_masks = as_masks(&llcs);
        let node_masks = as_masks(&node_groups);
        Topology {
            name: name.to_string(),
            core_of,
            llc_of,
            node_of,
            cores,
            llcs,
            nodes: node_groups,
            core_masks,
            llc_masks,
            node_masks,
            machine_mask: CpuMask::first_n(cpu as usize),
        }
    }

    /// The paper's large machine: a 32-core AMD Opteron 6172 with 32 GB RAM.
    ///
    /// Modelled as 4 NUMA nodes of 8 cores each, one LLC per node, no SMT
    /// (the Opteron 6100 series has no SMT; each pair of dies forms a node).
    pub fn opteron_6172() -> Self {
        Topology::regular("amd-opteron-6172", 4, 1, 8, 1)
    }

    /// The paper's small desktop machine: an 8-thread Intel i7-3770
    /// (4 cores × 2 SMT, single LLC, single NUMA node).
    pub fn core_i7_3770() -> Self {
        Topology::regular("intel-i7-3770", 1, 1, 4, 2)
    }

    /// A single-core machine, used by the per-core scheduling experiments
    /// (§5 of the paper).
    pub fn single_core() -> Self {
        Topology::regular("single-core", 1, 1, 1, 1)
    }

    /// A flat machine: `n` cores sharing one LLC on one node.
    pub fn flat(n: u32) -> Self {
        Topology::regular("flat", 1, 1, n, 1)
    }

    /// A datacenter-class 256-CPU machine: 4 NUMA nodes × 2 LLCs × 32 cores
    /// (the multi-tenant interference scenarios' default box).
    pub fn numa_256() -> Self {
        Topology::regular("numa-256", 4, 2, 32, 1)
    }

    /// A datacenter-class 512-CPU machine: 8 NUMA nodes × 2 LLCs × 32 cores
    /// — the largest topology a [`CpuMask`] addresses.
    pub fn numa_512() -> Self {
        Topology::regular("numa-512", 8, 2, 32, 1)
    }

    /// Human-readable name of the machine model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical CPUs.
    pub fn nr_cpus(&self) -> usize {
        self.core_of.len()
    }

    /// Iterator over all CPU ids in increasing order.
    pub fn all_cpus(&self) -> impl Iterator<Item = CpuId> + '_ {
        (0..self.nr_cpus() as u32).map(CpuId)
    }

    /// The physical core of `cpu`.
    pub fn core_of(&self, cpu: CpuId) -> u32 {
        self.core_of[cpu.index()]
    }

    /// The LLC group of `cpu`.
    pub fn llc_of(&self, cpu: CpuId) -> u32 {
        self.llc_of[cpu.index()]
    }

    /// The NUMA node of `cpu`.
    pub fn node_of(&self, cpu: CpuId) -> u32 {
        self.node_of[cpu.index()]
    }

    /// Number of NUMA nodes.
    pub fn nr_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of LLC groups.
    pub fn nr_llcs(&self) -> usize {
        self.llcs.len()
    }

    /// The SMT siblings of `cpu` (including `cpu` itself).
    pub fn smt_siblings(&self, cpu: CpuId) -> &[CpuId] {
        &self.cores[self.core_of(cpu) as usize]
    }

    /// All CPUs sharing `cpu`'s LLC (including `cpu`).
    pub fn llc_cpus(&self, cpu: CpuId) -> &[CpuId] {
        &self.llcs[self.llc_of(cpu) as usize]
    }

    /// All CPUs on `cpu`'s NUMA node (including `cpu`).
    pub fn node_cpus(&self, cpu: CpuId) -> &[CpuId] {
        &self.nodes[self.node_of(cpu) as usize]
    }

    /// All CPUs of the `i`-th NUMA node.
    pub fn node(&self, i: usize) -> &[CpuId] {
        &self.nodes[i]
    }

    /// The CPUs `cpu` shares the given level with (including `cpu`).
    pub fn span(&self, cpu: CpuId, level: Level) -> Vec<CpuId> {
        match level {
            Level::Smt => self.smt_siblings(cpu).to_vec(),
            Level::Llc => self.llc_cpus(cpu).to_vec(),
            Level::Node => self.node_cpus(cpu).to_vec(),
            Level::Machine => self.all_cpus().collect(),
        }
    }

    /// Bitset of the CPUs `cpu` shares the given level with (including
    /// `cpu`). Precomputed; the dispatch-path form of [`Topology::span`].
    #[inline]
    pub fn span_mask(&self, cpu: CpuId, level: Level) -> &CpuMask {
        match level {
            Level::Smt => &self.core_masks[self.core_of(cpu) as usize],
            Level::Llc => &self.llc_masks[self.llc_of(cpu) as usize],
            Level::Node => &self.node_masks[self.node_of(cpu) as usize],
            Level::Machine => &self.machine_mask,
        }
    }

    /// Bitset of all CPUs sharing `cpu`'s LLC.
    #[inline]
    pub fn llc_mask(&self, cpu: CpuId) -> &CpuMask {
        &self.llc_masks[self.llc_of(cpu) as usize]
    }

    /// Bitset of every CPU in the machine.
    #[inline]
    pub fn machine_mask(&self) -> &CpuMask {
        &self.machine_mask
    }

    /// The closest level at which `a` and `b` share hardware. `Smt` means
    /// same physical core (or the same cpu).
    pub fn shared_level(&self, a: CpuId, b: CpuId) -> Level {
        if self.core_of(a) == self.core_of(b) {
            Level::Smt
        } else if self.llc_of(a) == self.llc_of(b) {
            Level::Llc
        } else if self.node_of(a) == self.node_of(b) {
            Level::Node
        } else {
            Level::Machine
        }
    }

    /// A small integer distance: 0 = same core, 1 = same LLC, 2 = same node,
    /// 3 = cross-node. Used for migration-cost modelling.
    pub fn distance(&self, a: CpuId, b: CpuId) -> u32 {
        match self.shared_level(a, b) {
            Level::Smt => 0,
            Level::Llc => 1,
            Level::Node => 2,
            Level::Machine => 3,
        }
    }

    /// `true` if the topology has more than one hardware thread per core.
    pub fn has_smt(&self) -> bool {
        self.cores.iter().any(|c| c.len() > 1)
    }

    /// Build the per-CPU scheduling-domain hierarchy, smallest domain first,
    /// skipping degenerate levels (levels whose span equals the level below).
    ///
    /// This mirrors how Linux constructs `sched_domain`s from the hardware
    /// topology; CFS's load balancer walks exactly this list.
    pub fn domains(&self, cpu: CpuId) -> Vec<Domain> {
        let mut out: Vec<Domain> = Vec::new();
        for level in Level::ALL {
            let span = *self.span_mask(cpu, level);
            if span.count() <= 1 {
                continue;
            }
            if let Some(prev) = out.last() {
                if prev.span.count() == span.count() {
                    continue; // degenerate level
                }
            }
            // Groups of this domain: the child-level spans partitioning it.
            let child_level = match level {
                Level::Smt => None,
                Level::Llc => Some(Level::Smt),
                Level::Node => Some(Level::Llc),
                Level::Machine => Some(Level::Node),
            };
            let groups = match child_level {
                None => span.iter().map(CpuMask::single).collect::<Vec<_>>(),
                Some(cl) => {
                    let mut groups: Vec<CpuMask> = Vec::new();
                    for c in span.iter() {
                        let g = *self.span_mask(c, cl);
                        if !groups.contains(&g) {
                            groups.push(g);
                        }
                    }
                    // Collapse degenerate grouping (one group == whole span).
                    if groups.len() == 1 {
                        groups = span.iter().map(CpuMask::single).collect();
                    }
                    groups
                }
            };
            out.push(Domain {
                level,
                span,
                groups,
            });
        }
        out
    }
}

/// One scheduling domain of one CPU: the CPUs it balances across at this
/// level, partitioned into groups (the units the balancer compares).
/// Spans and groups are dense bitsets; their iteration order (ascending
/// CPU id) matches the `Vec<CpuId>` representation they replaced, keeping
/// balancing decisions — and therefore digests — identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Domain {
    /// Hardware level of the domain.
    pub level: Level,
    /// All CPUs in the domain (always contains the owning CPU).
    pub span: CpuMask,
    /// Disjoint groups partitioning `span`.
    pub groups: Vec<CpuMask>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opteron_shape() {
        let t = Topology::opteron_6172();
        assert_eq!(t.nr_cpus(), 32);
        assert_eq!(t.nr_nodes(), 4);
        assert_eq!(t.nr_llcs(), 4);
        assert!(!t.has_smt());
        assert_eq!(t.node_cpus(CpuId(0)).len(), 8);
        assert_eq!(t.node_of(CpuId(7)), 0);
        assert_eq!(t.node_of(CpuId(8)), 1);
    }

    #[test]
    fn i7_shape() {
        let t = Topology::core_i7_3770();
        assert_eq!(t.nr_cpus(), 8);
        assert!(t.has_smt());
        assert_eq!(t.smt_siblings(CpuId(0)), &[CpuId(0), CpuId(1)]);
        assert_eq!(t.llc_cpus(CpuId(0)).len(), 8);
        assert_eq!(t.nr_nodes(), 1);
    }

    #[test]
    fn shared_levels_and_distance() {
        let t = Topology::opteron_6172();
        assert_eq!(t.shared_level(CpuId(0), CpuId(0)), Level::Smt);
        assert_eq!(t.shared_level(CpuId(0), CpuId(1)), Level::Llc);
        assert_eq!(t.shared_level(CpuId(0), CpuId(9)), Level::Machine);
        assert_eq!(t.distance(CpuId(0), CpuId(9)), 3);

        let i7 = Topology::core_i7_3770();
        assert_eq!(i7.shared_level(CpuId(0), CpuId(1)), Level::Smt);
        assert_eq!(i7.shared_level(CpuId(0), CpuId(2)), Level::Llc);
        assert_eq!(i7.distance(CpuId(0), CpuId(2)), 1);
    }

    #[test]
    fn spans_partition_machine() {
        let t = Topology::opteron_6172();
        let mut all: Vec<CpuId> = Vec::new();
        for n in 0..t.nr_nodes() {
            all.extend_from_slice(t.node(n));
        }
        all.sort();
        assert_eq!(all, t.all_cpus().collect::<Vec<_>>());
    }

    #[test]
    fn domains_opteron() {
        let t = Topology::opteron_6172();
        let d = t.domains(CpuId(3));
        // No SMT, LLC == node span → one LLC/MC-like domain of 8, then machine.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].span.count(), 8);
        assert_eq!(d[1].span.count(), 32);
        assert_eq!(d[1].groups.len(), 4);
        for g in &d[1].groups {
            assert_eq!(g.count(), 8);
        }
        // Every domain contains the owning cpu.
        for dom in &d {
            assert!(dom.span.contains(CpuId(3)));
        }
    }

    #[test]
    fn domains_i7() {
        let t = Topology::core_i7_3770();
        let d = t.domains(CpuId(5));
        // SMT domain of 2, then LLC domain of 8 with 4 groups of 2.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].level, Level::Smt);
        assert_eq!(d[0].span.count(), 2);
        assert_eq!(d[1].span.count(), 8);
        assert_eq!(d[1].groups.len(), 4);
    }

    #[test]
    fn domains_single_core_empty() {
        let t = Topology::single_core();
        assert!(t.domains(CpuId(0)).is_empty());
    }

    #[test]
    fn domain_groups_partition_span() {
        for t in [
            Topology::opteron_6172(),
            Topology::core_i7_3770(),
            Topology::flat(6),
            Topology::regular("x", 2, 2, 2, 2),
        ] {
            for cpu in t.all_cpus() {
                for dom in t.domains(cpu) {
                    let mut union = CpuMask::empty();
                    let mut total = 0;
                    for g in &dom.groups {
                        union.union_with(g);
                        total += g.count();
                    }
                    assert_eq!(union, dom.span, "groups must cover the span");
                    assert_eq!(total, dom.span.count(), "groups must be disjoint");
                }
            }
        }
    }
}
