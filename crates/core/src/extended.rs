//! Extended microarchitecture-independent characteristics.
//!
//! Beyond the 47 metrics of the paper's Table II, the authors' released
//! MICA tool measures additional categories. This module provides the two
//! that add real information on top of Table II: detailed **branch
//! behavior** (taken rate, transition rate, basic-block size) and the
//! **memory reuse-distance distribution** ([`crate::ReuseDistance`]).
//! [`ExtendedSuite`] bundles them with the standard
//! [`crate::CharacterizationSuite`].

use crate::reuse::{ReuseDistance, REUSE_BUCKETS};
use crate::suite::CharacterizationSuite;
use crate::vector::MicaVector;
use std::collections::HashMap;
use tinyisa::{DynInst, TraceSink};

/// Branch-behavior detail: taken fraction, per-branch transition rate and
/// dynamic basic-block length.
#[derive(Debug, Default, Clone)]
pub struct BranchBehavior {
    branches: u64,
    taken: u64,
    transitions: u64,
    /// Last outcome per static branch.
    last_outcome: HashMap<u64, bool>,
    instructions: u64,
    control: u64,
}

impl BranchBehavior {
    /// Create an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of conditional branches that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken as f64 / self.branches as f64
        }
    }

    /// Fraction of conditional-branch executions whose outcome differed
    /// from the same static branch's previous outcome. Low transition rates
    /// mean branches are biased (easily predictable even bimodally); rates
    /// near 1 mean systematic alternation.
    pub fn transition_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.transitions as f64 / self.branches as f64
        }
    }

    /// Mean dynamic instructions per control transfer ("basic block size").
    pub fn avg_basic_block(&self) -> f64 {
        if self.control == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.control as f64
        }
    }

    /// Conditional branches observed.
    pub fn branches(&self) -> u64 {
        self.branches
    }
}

impl TraceSink for BranchBehavior {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Bulk-count instructions, tally control and branch statistics
        // locally, and touch the per-branch map only for actual
        // conditional branches.
        self.instructions += block.len() as u64;
        let mut control = 0u64;
        let mut branches = 0u64;
        let mut taken = 0u64;
        for inst in block {
            if inst.class.is_control() {
                control += 1;
            }
            if let Some(ctrl) = inst.ctrl {
                if ctrl.conditional {
                    branches += 1;
                    taken += ctrl.taken as u64;
                    if let Some(prev) = self.last_outcome.insert(inst.pc, ctrl.taken) {
                        if prev != ctrl.taken {
                            self.transitions += 1;
                        }
                    }
                }
            }
        }
        self.control += control;
        self.branches += branches;
        self.taken += taken;
    }
}

/// Number of extended metrics appended by [`ExtendedSuite`].
pub const NUM_EXTENDED_METRICS: usize = 10;

/// Names of the extended metrics, in [`ExtendedSuite::finish_extended`]
/// order.
pub const EXTENDED_METRIC_NAMES: [&str; NUM_EXTENDED_METRICS] = [
    "branch taken rate",
    "branch transition rate",
    "avg. basic block size",
    "cold access fraction",
    "prob. reuse distance < 16 blocks",
    "prob. reuse distance < 64 blocks",
    "prob. reuse distance < 256 blocks",
    "prob. reuse distance < 1024 blocks",
    "prob. reuse distance < 8192 blocks",
    "prob. reuse distance < 65536 blocks",
];

/// The 47 Table II characteristics plus the extended set (57 total).
#[derive(Debug, Clone)]
pub struct ExtendedSuite {
    /// The standard 47-metric suite.
    pub base: CharacterizationSuite,
    /// Branch-behavior detail.
    pub branch: BranchBehavior,
    /// Data reuse distances.
    pub reuse: ReuseDistance,
}

impl Default for ExtendedSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl ExtendedSuite {
    /// An extended suite with default configuration.
    pub fn new() -> Self {
        ExtendedSuite {
            base: CharacterizationSuite::new(),
            branch: BranchBehavior::new(),
            reuse: ReuseDistance::new(),
        }
    }

    /// The standard 47-metric vector.
    pub fn finish_base(&self) -> MicaVector {
        self.base.finish()
    }

    /// The 10 extended metrics, in [`EXTENDED_METRIC_NAMES`] order.
    pub fn finish_extended(&self) -> [f64; NUM_EXTENDED_METRICS] {
        let cdf = self.reuse.cdf();
        [
            self.branch.taken_rate(),
            self.branch.transition_rate(),
            self.branch.avg_basic_block(),
            self.reuse.cold_fraction(),
            cdf[0],
            cdf[1],
            cdf[2],
            cdf[3],
            cdf[4],
            cdf[5],
        ]
    }

    /// All 57 values: the 47 Table II metrics followed by the extended 10.
    pub fn finish_all(&self) -> Vec<f64> {
        let mut v = self.finish_base().into_values();
        v.extend_from_slice(&self.finish_extended());
        v
    }
}

impl TraceSink for ExtendedSuite {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        self.base.retire_block(block);
        self.branch.retire_block(block);
        self.reuse.retire_block(block);
    }
}

/// Re-export of the reuse bucket limits for display code.
pub const EXTENDED_REUSE_BUCKETS: [u64; 6] = REUSE_BUCKETS;

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm, CtrlInfo, InstClass, Vm};

    fn branch(pc: u64, taken: bool) -> DynInst {
        DynInst {
            pc,
            class: InstClass::Branch,
            dst: None,
            srcs: [None; 3],
            mem: None,
            ctrl: Some(CtrlInfo { taken, target: pc, conditional: true }),
        }
    }

    #[test]
    fn taken_rate_counts() {
        let mut b = BranchBehavior::new();
        for i in 0..10 {
            b.retire(&branch(0x100, i < 7));
        }
        assert!((b.taken_rate() - 0.7).abs() < 1e-12);
        assert_eq!(b.branches(), 10);
    }

    #[test]
    fn transition_rate_distinguishes_bias_from_alternation() {
        let mut biased = BranchBehavior::new();
        let mut alternating = BranchBehavior::new();
        for i in 0..100 {
            biased.retire(&branch(0x100, true));
            alternating.retire(&branch(0x100, i % 2 == 0));
        }
        assert_eq!(biased.transition_rate(), 0.0);
        assert!(alternating.transition_rate() > 0.95);
        // Both are 50-100% taken; the transition rate tells them apart.
    }

    #[test]
    fn transition_rate_is_per_static_branch() {
        // Two branches with opposite constant outcomes, interleaved: a
        // global view would see constant alternation; per-branch sees none.
        let mut b = BranchBehavior::new();
        for _ in 0..50 {
            b.retire(&branch(0x100, true));
            b.retire(&branch(0x200, false));
        }
        assert_eq!(b.transition_rate(), 0.0);
    }

    #[test]
    fn basic_block_size_from_real_program() {
        let mut a = Asm::new();
        let head = a.label();
        a.li(T0, 0);
        a.bind(head);
        a.addi(T0, T0, 1);
        a.addi(T1, T0, 0);
        a.addi(T2, T0, 0);
        a.slti(T3, T0, 1000);
        a.bne(T3, ZERO, head);
        a.halt();
        let mut b = BranchBehavior::new();
        let mut vm = Vm::new(a.assemble().unwrap());
        vm.run(&mut b, 100_000).unwrap();
        // 5-instruction loop ending in a branch.
        assert!((b.avg_basic_block() - 5.0).abs() < 0.1, "{}", b.avg_basic_block());
    }

    #[test]
    fn extended_suite_produces_57_sane_values() {
        let mut a = Asm::new();
        let head = a.label();
        a.li(T0, 0);
        a.li(T2, 0x9000);
        a.bind(head);
        a.ld8(T3, T2, 0);
        a.addi(T2, T2, 8);
        a.andi(T2, T2, 0x90ff); // wrap within a small buffer: reuse!
        a.addi(T0, T0, 1);
        a.slti(T1, T0, 5000);
        a.bne(T1, ZERO, head);
        a.halt();
        let mut s = ExtendedSuite::new();
        let mut vm = Vm::new(a.assemble().unwrap());
        vm.run(&mut s, 100_000).unwrap();
        let all = s.finish_all();
        assert_eq!(all.len(), 57);
        for (i, v) in all.iter().enumerate() {
            assert!(v.is_finite() && *v >= 0.0, "metric {i}: {v}");
        }
        // The wrapped buffer is 256 bytes = 8 blocks: all reuses < 16.
        let ext = s.finish_extended();
        assert!(ext[4] > 0.9, "small-buffer reuse: {ext:?}");
        assert!(ext[3] < 0.05, "few cold accesses: {ext:?}");
    }
}
