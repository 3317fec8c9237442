//! Interval (phase) characterization.
//!
//! The paper's related work ([16], [18]) exploits program *phase* behavior:
//! execution intervals with similar code behave similarly. [`PhaseProfiler`]
//! computes a full [`MicaVector`] per fixed-size instruction interval, so
//! phase structure can be observed microarchitecture-independently — e.g.
//! an FFT's butterfly stages vs its permutation pass, or a codec's
//! transform vs entropy-coding phases.

use crate::suite::CharacterizationSuite;
use crate::vector::MicaVector;
use tinyisa::{DynInst, TraceSink};

/// Computes one [`MicaVector`] per interval of `interval` retired
/// instructions.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    interval: u64,
    in_interval: u64,
    current: CharacterizationSuite,
    phases: Vec<MicaVector>,
}

impl PhaseProfiler {
    /// Profiler with the given interval length (instructions).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        PhaseProfiler {
            interval,
            in_interval: 0,
            current: CharacterizationSuite::new(),
            phases: Vec::new(),
        }
    }

    /// The configured interval length.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Completed interval vectors so far.
    pub fn phases(&self) -> &[MicaVector] {
        &self.phases
    }

    /// Instructions observed in the (incomplete) current interval.
    pub fn partial_len(&self) -> u64 {
        self.in_interval
    }

    /// Finish, returning all completed intervals; a trailing partial
    /// interval is included only if it covers at least half the interval
    /// length (shorter tails are statistically unreliable).
    pub fn into_phases(mut self) -> Vec<MicaVector> {
        if self.in_interval * 2 >= self.interval {
            self.phases.push(self.current.finish());
        }
        self.phases
    }

    /// Euclidean distances between consecutive phase vectors after
    /// per-metric max-normalization — spikes locate phase changes.
    pub fn transition_profile(phases: &[MicaVector]) -> Vec<f64> {
        if phases.len() < 2 {
            return Vec::new();
        }
        let dims = phases[0].values().len();
        // Per-metric max over phases, for scale-free comparison.
        let mut max = vec![0.0f64; dims];
        for p in phases {
            for (m, v) in max.iter_mut().zip(p.values()) {
                *m = m.max(v.abs());
            }
        }
        phases
            .windows(2)
            .map(|w| {
                let mut d2 = 0.0;
                for (c, &m) in max.iter().enumerate().take(dims) {
                    if m > 0.0 {
                        let a = w[0].values()[c] / m;
                        let b = w[1].values()[c] / m;
                        d2 += (a - b) * (a - b);
                    }
                }
                d2.sqrt()
            })
            .collect()
    }
}

impl TraceSink for PhaseProfiler {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Split the block at interval boundaries so each sub-slice lands
        // entirely inside one interval: intervals close at exactly the
        // same instruction whatever the delivery partition.
        let mut rest = block;
        while !rest.is_empty() {
            let room = self.interval - self.in_interval;
            let take =
                if room < rest.len() as u64 { room as usize } else { rest.len() };
            let (chunk, next) = rest.split_at(take);
            self.current.retire_block(chunk);
            self.in_interval += take as u64;
            if self.in_interval == self.interval {
                let done = std::mem::take(&mut self.current);
                self.phases.push(done.finish());
                self.in_interval = 0;
            }
            rest = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{regs::*, Asm, Vm};

    /// A two-phase program: a store-heavy integer loop, then an FP loop.
    fn two_phase_vm(iters: i64) -> Vm {
        let mut a = Asm::new();
        let (p1, p2, done) = (a.label(), a.label(), a.label());
        a.li(T0, 0);
        a.li(T2, 0x9000);
        a.bind(p1);
        a.st8(T0, T2, 0);
        a.addi(T2, T2, 8);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, iters);
        a.bne(T1, ZERO, p1);
        a.li(T0, 0);
        a.bind(p2);
        a.fadd(F1, F0, F0);
        a.fmul(F2, F1, F1);
        a.addi(T0, T0, 1);
        a.slti(T1, T0, iters);
        a.bne(T1, ZERO, p2);
        a.jmp(done);
        a.bind(done);
        a.halt();
        Vm::new(a.assemble().unwrap())
    }

    #[test]
    fn intervals_have_expected_count() {
        let mut p = PhaseProfiler::new(1000);
        two_phase_vm(2000).run(&mut p, 100_000).unwrap();
        // 2000 iterations x 5 insts x 2 phases ~ 20k instructions.
        let phases = p.into_phases();
        assert!((19..=21).contains(&phases.len()), "{}", phases.len());
    }

    #[test]
    fn phase_change_is_visible_in_transitions() {
        let mut p = PhaseProfiler::new(500);
        two_phase_vm(1000).run(&mut p, 100_000).unwrap();
        let phases = p.into_phases();
        let trans = PhaseProfiler::transition_profile(&phases);
        // The largest transition should dwarf the median: a real phase
        // change against steady-state noise.
        let mut sorted = trans.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let max = sorted[sorted.len() - 1];
        assert!(max > 5.0 * (median + 1e-9), "max {max} vs median {median}: {trans:?}");
    }

    #[test]
    fn steady_state_has_flat_transitions() {
        let mut a = Asm::new();
        let head = a.label();
        a.bind(head);
        a.addi(T0, T0, 1);
        a.jmp(head);
        let mut p = PhaseProfiler::new(500);
        Vm::new(a.assemble().unwrap()).run(&mut p, 10_000).unwrap();
        let phases = p.into_phases();
        for t in PhaseProfiler::transition_profile(&phases).iter().skip(1) {
            assert!(*t < 0.5, "steady loop should have no phase changes: {t}");
        }
    }

    #[test]
    fn short_tail_is_dropped_long_tail_is_kept() {
        let mut p = PhaseProfiler::new(1000);
        for _ in 0..2300 {
            p.retire(&tinyisa::DynInst {
                pc: 0,
                class: tinyisa::InstClass::IntAlu,
                dst: None,
                srcs: [None; 3],
                mem: None,
                ctrl: None,
            });
        }
        assert_eq!(p.phases().len(), 2);
        assert_eq!(p.partial_len(), 300);
        assert_eq!(p.into_phases().len(), 2, "300 < half interval: dropped");

        let mut p = PhaseProfiler::new(1000);
        for _ in 0..2600 {
            p.retire(&tinyisa::DynInst {
                pc: 0,
                class: tinyisa::InstClass::IntAlu,
                dst: None,
                srcs: [None; 3],
                mem: None,
                ctrl: None,
            });
        }
        assert_eq!(p.into_phases().len(), 3, "600 >= half interval: kept");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = PhaseProfiler::new(0);
    }
}
