//! Idealized instruction-level-parallelism characterization (metrics 7–10).

use tinyisa::{DynInst, TraceSink};

/// The window sizes of Table II.
pub const DEFAULT_WINDOWS: [usize; 4] = [32, 64, 128, 256];

/// One idealized out-of-order machine, limited only by its window size.
///
/// Everything else is perfect: caches, branch prediction, unbounded
/// functional units, unit execution latency, perfect memory disambiguation.
/// An instruction executes one cycle after all its register producers have
/// executed, but cannot enter the window (and therefore execute) before the
/// instruction `window_size` positions ahead of it has completed.
#[derive(Debug, Clone)]
struct WindowModel {
    size: usize,
    /// Completion cycle of each unified register's most recent producer.
    reg_ready: [u64; 64],
    /// Completion cycles of the last `size` instructions (ring buffer).
    ring: Vec<u64>,
    count: u64,
    last_cycle: u64,
}

impl WindowModel {
    fn new(size: usize) -> Self {
        WindowModel {
            size,
            reg_ready: [0; 64],
            ring: vec![0; size],
            count: 0,
            last_cycle: 0,
        }
    }

    fn observe(&mut self, inst: &DynInst) {
        let slot = (self.count % self.size as u64) as usize;
        // Window constraint: this instruction enters the window only once the
        // instruction `size` positions earlier has completed.
        let window_ready = if self.count >= self.size as u64 { self.ring[slot] } else { 0 };
        let mut start = window_ready;
        for s in inst.sources() {
            start = start.max(self.reg_ready[s.unified()]);
        }
        let complete = start + 1;
        if let Some(d) = inst.dst {
            self.reg_ready[d.unified()] = complete;
        }
        self.ring[slot] = complete;
        self.count += 1;
        self.last_cycle = self.last_cycle.max(complete);
    }

    fn ipc(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.count as f64 / self.last_cycle as f64
        }
    }
}

/// Computes the idealized IPC achievable with windows of 32, 64, 128 and 256
/// in-flight instructions (metrics 7–10 of Table II).
///
/// Custom window sizes can be supplied with [`IlpAnalyzer::with_windows`]
/// (used by the ablation benchmarks).
#[derive(Debug, Clone)]
pub struct IlpAnalyzer {
    models: Vec<WindowModel>,
}

impl Default for IlpAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl IlpAnalyzer {
    /// Analyzer with the paper's four window sizes.
    pub fn new() -> Self {
        Self::with_windows(&DEFAULT_WINDOWS)
    }

    /// Analyzer with custom window sizes.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or contains a zero size.
    pub fn with_windows(windows: &[usize]) -> Self {
        assert!(!windows.is_empty(), "need at least one window size");
        assert!(windows.iter().all(|&w| w > 0), "window sizes must be positive");
        IlpAnalyzer { models: windows.iter().map(|&w| WindowModel::new(w)).collect() }
    }

    /// The configured window sizes.
    pub fn windows(&self) -> Vec<usize> {
        self.models.iter().map(|m| m.size).collect()
    }

    /// IPC per configured window, in configuration order.
    pub fn ipcs(&self) -> Vec<f64> {
        self.models.iter().map(|m| m.ipc()).collect()
    }
}

impl TraceSink for IlpAnalyzer {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Loop inversion: the models are independent, so running one model
        // over the whole block keeps its `reg_ready`/ring state hot in
        // cache instead of cycling all models through it per instruction.
        // Each model sees the same instruction sequence either way.
        for m in &mut self.models {
            for inst in block {
                m.observe(inst);
            }
        }
    }
}


/// The simpler ILP approximation some workload studies use instead of
/// windowed scheduling: split the stream into consecutive windows of `w`
/// instructions and compute each window's dependence-chain critical path;
/// IPC = instructions / sum of critical paths.
///
/// This ignores overlap *between* windows, so it lower-bounds
/// [`IlpAnalyzer`]'s windowed-scheduling IPC; the ablation benchmark
/// quantifies the gap.
#[derive(Debug, Clone)]
pub struct IlpCriticalPath {
    size: usize,
    /// Chain depth at each unified register within the current window.
    depth: [u64; 64],
    in_window: usize,
    window_critical: u64,
    total_cycles: u64,
    count: u64,
}

impl IlpCriticalPath {
    /// Analyzer with window size `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "window size must be positive");
        IlpCriticalPath {
            size,
            depth: [0; 64],
            in_window: 0,
            window_critical: 0,
            total_cycles: 0,
            count: 0,
        }
    }

    /// IPC under the per-window critical-path model.
    pub fn ipc(&self) -> f64 {
        let cycles = self.total_cycles + self.window_critical;
        if self.count == 0 || cycles == 0 {
            0.0
        } else {
            self.count as f64 / cycles as f64
        }
    }
}

impl TraceSink for IlpCriticalPath {
    fn retire(&mut self, inst: &DynInst) {
        let mut d = 0;
        for s in inst.sources() {
            d = d.max(self.depth[s.unified()]);
        }
        let d = d + 1;
        if let Some(dst) = inst.dst {
            self.depth[dst.unified()] = d;
        }
        self.window_critical = self.window_critical.max(d);
        self.count += 1;
        self.in_window += 1;
        if self.in_window == self.size {
            self.total_cycles += self.window_critical;
            self.window_critical = 0;
            self.in_window = 0;
            self.depth = [0; 64];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{InstClass, RegRef};

    fn inst(dst: Option<u8>, srcs: &[u8]) -> DynInst {
        let mut s = [None; 3];
        for (i, &r) in srcs.iter().enumerate() {
            s[i] = Some(RegRef::Int(r));
        }
        DynInst {
            pc: 0,
            class: InstClass::IntAlu,
            dst: dst.map(RegRef::Int),
            srcs: s,
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn serial_chain_has_ipc_one() {
        // Each instruction depends on the previous one: r1 = f(r1).
        let mut a = IlpAnalyzer::with_windows(&[32]);
        for _ in 0..1000 {
            a.retire(&inst(Some(1), &[1]));
        }
        let ipc = a.ipcs()[0];
        assert!((ipc - 1.0).abs() < 1e-9, "serial chain IPC should be 1, got {ipc}");
    }

    #[test]
    fn independent_stream_is_window_limited() {
        // Fully independent instructions: parallelism = window size.
        let mut a = IlpAnalyzer::with_windows(&[4, 16]);
        for i in 0..10_000u64 {
            // Distinct destination registers, no sources.
            a.retire(&inst(Some((i % 8 + 1) as u8), &[]));
        }
        let ipcs = a.ipcs();
        // Window of 4 can sustain ~4 IPC; window of 16 only ~8 because only 8
        // registers rotate — but with no sources there's no dependence, so
        // both should approach their window size.
        assert!(ipcs[0] > 3.5, "window-4 IPC {}", ipcs[0]);
        assert!(ipcs[1] > 10.0, "window-16 IPC {}", ipcs[1]);
    }

    #[test]
    fn larger_window_never_hurts() {
        let mut a = IlpAnalyzer::new();
        // A mix: pairs of dependent instructions.
        for i in 0..5000u64 {
            let r = (i % 20 + 1) as u8;
            a.retire(&inst(Some(r), &[]));
            a.retire(&inst(Some(r), &[r]));
        }
        let ipcs = a.ipcs();
        for w in ipcs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "IPC must be monotone in window size: {ipcs:?}");
        }
    }

    #[test]
    fn empty_trace_ipc_zero() {
        assert_eq!(IlpAnalyzer::new().ipcs(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = IlpAnalyzer::with_windows(&[0]);
    }
    #[test]
    fn critical_path_serial_chain_is_ipc_one() {
        let mut a = IlpCriticalPath::new(32);
        for _ in 0..960 {
            a.retire(&inst(Some(1), &[1]));
        }
        assert!((a.ipc() - 1.0).abs() < 0.05, "{}", a.ipc());
    }

    #[test]
    fn critical_path_lower_bounds_windowed_scheduling() {
        // A half-dependent stream: scheduling overlaps across windows,
        // the per-window model cannot.
        let mut sched = IlpAnalyzer::with_windows(&[64]);
        let mut cp = IlpCriticalPath::new(64);
        for i in 0..10_000u64 {
            let d = (i % 6 + 1) as u8;
            let srcs = if i % 2 == 0 { vec![] } else { vec![d] };
            let di = inst(Some(d), &srcs);
            sched.retire(&di);
            cp.retire(&di);
        }
        let sched_ipc = sched.ipcs()[0];
        assert!(
            cp.ipc() <= sched_ipc + 1e-9,
            "critical-path {} must not exceed scheduled {sched_ipc}",
            cp.ipc(),
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn critical_path_zero_window_rejected() {
        let _ = IlpCriticalPath::new(0);
    }

}
