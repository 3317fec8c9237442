//! A test-only oracle for the 47 Table II characteristics.
//!
//! [`Oracle`] observes a dynamic instruction stream one instruction at a
//! time and computes every metric straight from its definition in the
//! paper, with its own state and its own `finish` arithmetic. It shares no
//! code with the `mica-core` analyzers — only the [`DynInst`] input and
//! the [`MicaVector`] output types — so a bug in a production analyzer
//! cannot hide in the oracle too. It favours the obvious formulation over
//! speed:
//!
//! - ILP keeps the completion cycle of *every* instruction, not a ring;
//! - register traffic and PPM key plain hash maps by [`RegRef`] and by
//!   explicit outcome sequences, not dense tables or bit-packed
//!   histories;
//! - working sets enumerate every byte an access touches;
//! - cumulative distributions test each threshold directly.
//!
//! The oracle also measures the three branch-behavior metrics of the
//! extended set, and [`phases`] runs it over fixed intervals as the
//! reference for `PhaseProfiler`.

use mica_core::MicaVector;
use std::collections::{HashMap, HashSet};
use tinyisa::{DynInst, InstClass, RegRef};

/// Idealized-machine window sizes (metrics 7–10).
const WINDOWS: [usize; 4] = [32, 64, 128, 256];
/// Dependency-distance thresholds, `P[distance <= k]` (metrics 13–19).
const DEP_DIST: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Stride thresholds: `= 0`, then `P[stride <= k]` (metrics 24–43).
const STRIDES: [u64; 5] = [0, 8, 64, 512, 4096];
/// Working-set granularities: 32-byte blocks and 4 KiB pages.
const BLOCK: u64 = 32;
const PAGE: u64 = 4096;
/// Longest PPM context, in branch outcomes (metrics 44–47).
const PPM_ORDER: usize = 8;

/// `num / den` as the characterization reports ratios; `empty` when
/// nothing was counted.
fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// One idealized out-of-order machine: perfect caches and prediction,
/// unbounded units, unit latency. An instruction completes one cycle
/// after its last register input is ready, and enters the window only once
/// the instruction `size` places before it has completed.
struct Window {
    size: usize,
    completed: Vec<u64>,
    ready: HashMap<RegRef, u64>,
}

impl Window {
    fn observe(&mut self, inst: &DynInst) {
        let n = self.completed.len();
        let mut start = if n >= self.size {
            self.completed[n - self.size]
        } else {
            0
        };
        for src in inst.srcs.iter().flatten() {
            start = start.max(self.ready.get(src).copied().unwrap_or(0));
        }
        let done = start + 1;
        if let Some(dst) = inst.dst {
            self.ready.insert(dst, done);
        }
        self.completed.push(done);
    }

    fn ipc(&self) -> f64 {
        let cycles = self.completed.iter().copied().max().unwrap_or(0);
        ratio(self.completed.len() as u64, cycles, 0.0)
    }
}

/// One cumulative stride distribution.
#[derive(Default)]
struct StrideCdf {
    within: [u64; 5],
    total: u64,
}

impl StrideCdf {
    fn record(&mut self, stride: u64) {
        self.total += 1;
        if stride == 0 {
            self.within[0] += 1;
        }
        for (k, &limit) in STRIDES.iter().enumerate().skip(1) {
            if stride <= limit {
                self.within[k] += 1;
            }
        }
    }

    fn cdf(&self) -> impl Iterator<Item = f64> + '_ {
        self.within.iter().map(|&c| ratio(c, self.total, 0.0))
    }
}

/// One PPM predictor: frequency tables for every context order from
/// [`PPM_ORDER`] down to 0; predict with the longest context seen before.
struct Ppm {
    /// Per-address histories (PAg, PAs) instead of one global history.
    per_address: bool,
    /// Per-branch pattern tables (GAs, PAs) instead of shared ones.
    per_branch: bool,
    global: Vec<bool>,
    local: HashMap<u64, Vec<bool>>,
    /// `(order, branch or 0, context) -> (not-taken, taken)` counts; the
    /// context lists the last `order` outcomes, most recent first.
    counts: HashMap<(usize, u64, Vec<bool>), (u64, u64)>,
    correct: u64,
    total: u64,
}

impl Ppm {
    fn new(per_address: bool, per_branch: bool) -> Ppm {
        Ppm {
            per_address,
            per_branch,
            global: Vec::new(),
            local: HashMap::new(),
            counts: HashMap::new(),
            correct: 0,
            total: 0,
        }
    }

    fn observe(&mut self, pc: u64, taken: bool) {
        let table = if self.per_branch { pc } else { 0 };
        let history = if self.per_address {
            self.local.entry(pc).or_default()
        } else {
            &mut self.global
        };
        // The context of each order; outcomes before the start of the
        // history read as not taken.
        let contexts: Vec<Vec<bool>> = (0..=PPM_ORDER)
            .map(|order| {
                (1..=order)
                    .map(|back| history.len().checked_sub(back).is_some_and(|i| history[i]))
                    .collect()
            })
            .collect();
        history.push(taken);
        if history.len() > PPM_ORDER {
            history.remove(0);
        }

        let mut prediction = true;
        for (order, context) in contexts.iter().enumerate().rev() {
            if let Some(&(not_taken, taken_count)) =
                self.counts.get(&(order, table, context.clone()))
            {
                if not_taken + taken_count > 0 {
                    prediction = taken_count >= not_taken;
                    break;
                }
            }
        }
        self.total += 1;
        if prediction == taken {
            self.correct += 1;
        }

        for (order, context) in contexts.into_iter().enumerate() {
            let entry = self.counts.entry((order, table, context)).or_insert((0, 0));
            if taken {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
    }
}

/// The per-instruction oracle: every Table II characteristic plus the
/// extended branch-behavior metrics.
pub struct Oracle {
    instructions: u64,
    /// Loads, stores, control transfers, integer ALU, integer multiply, FP.
    mix: [u64; 6],
    windows: Vec<Window>,
    /// Dynamic index of each register's most recent producer.
    producer: HashMap<RegRef, u64>,
    operands: u64,
    live_reads: u64,
    writes: u64,
    dep_within: [u64; 7],
    d_blocks: HashSet<u64>,
    d_pages: HashSet<u64>,
    i_blocks: HashSet<u64>,
    i_pages: HashSet<u64>,
    /// Last address per kind (store?) and per `(store?, pc)`.
    last_global: HashMap<bool, u64>,
    last_local: HashMap<(bool, u64), u64>,
    /// Local load, global load, local store, global store.
    strides: [StrideCdf; 4],
    /// GAg, PAg, GAs, PAs.
    ppm: [Ppm; 4],
    control: u64,
    branches: u64,
    taken: u64,
    transitions: u64,
    last_outcome: HashMap<u64, bool>,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            instructions: 0,
            mix: [0; 6],
            windows: WINDOWS
                .iter()
                .map(|&size| Window {
                    size,
                    completed: Vec::new(),
                    ready: HashMap::new(),
                })
                .collect(),
            producer: HashMap::new(),
            operands: 0,
            live_reads: 0,
            writes: 0,
            dep_within: [0; 7],
            d_blocks: HashSet::new(),
            d_pages: HashSet::new(),
            i_blocks: HashSet::new(),
            i_pages: HashSet::new(),
            last_global: HashMap::new(),
            last_local: HashMap::new(),
            strides: Default::default(),
            ppm: [
                Ppm::new(false, false),
                Ppm::new(true, false),
                Ppm::new(false, true),
                Ppm::new(true, true),
            ],
            control: 0,
            branches: 0,
            taken: 0,
            transitions: 0,
            last_outcome: HashMap::new(),
        }
    }

    /// The oracle after observing all of `stream`, in order.
    pub fn of(stream: &[DynInst]) -> Oracle {
        let mut oracle = Oracle::new();
        for inst in stream {
            oracle.observe(inst);
        }
        oracle
    }

    pub fn observe(&mut self, inst: &DynInst) {
        let index = self.instructions;
        self.instructions += 1;

        let slot = match inst.class {
            InstClass::Load => 0,
            InstClass::Store => 1,
            InstClass::Branch | InstClass::Jump => 2,
            InstClass::IntAlu => 3,
            InstClass::IntMul => 4,
            InstClass::Fp => 5,
        };
        self.mix[slot] += 1;

        for window in &mut self.windows {
            window.observe(inst);
        }

        // Register traffic: every source is an operand; a source with a
        // producer is a use of that register instance, at a distance of
        // `index - producer` dynamic instructions.
        for src in inst.srcs.iter().flatten() {
            self.operands += 1;
            if let Some(&produced) = self.producer.get(src) {
                self.live_reads += 1;
                let distance = index - produced;
                for (k, &limit) in DEP_DIST.iter().enumerate() {
                    if distance <= limit {
                        self.dep_within[k] += 1;
                    }
                }
            }
        }
        if let Some(dst) = inst.dst {
            self.writes += 1;
            self.producer.insert(dst, index);
        }

        self.i_blocks.insert(inst.pc / BLOCK);
        self.i_pages.insert(inst.pc / PAGE);
        if let Some(m) = inst.mem {
            // Every byte the access touches, stopping at the top of the
            // address space; a zero-sized access still touches its address.
            for byte in (0..m.size.max(1)).map_while(|offset| m.addr.checked_add(offset)) {
                self.d_blocks.insert(byte / BLOCK);
                self.d_pages.insert(byte / PAGE);
            }
            let (local, global) = if m.is_store { (2, 3) } else { (0, 1) };
            if let Some(prev) = self.last_global.insert(m.is_store, m.addr) {
                self.strides[global].record(prev.abs_diff(m.addr));
            }
            if let Some(prev) = self.last_local.insert((m.is_store, inst.pc), m.addr) {
                self.strides[local].record(prev.abs_diff(m.addr));
            }
        }

        if inst.class.is_control() {
            self.control += 1;
        }
        if let Some(ctrl) = inst.ctrl.filter(|c| c.conditional) {
            for ppm in &mut self.ppm {
                ppm.observe(inst.pc, ctrl.taken);
            }
            self.branches += 1;
            self.taken += ctrl.taken as u64;
            if self
                .last_outcome
                .insert(inst.pc, ctrl.taken)
                .is_some_and(|prev| prev != ctrl.taken)
            {
                self.transitions += 1;
            }
        }
    }

    /// Instructions observed.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The 47 metrics, in Table II order.
    pub fn finish(&self) -> MicaVector {
        let n = self.instructions;
        let mut v: Vec<f64> = self.mix.iter().map(|&c| ratio(c, n, 0.0)).collect();
        v.extend(self.windows.iter().map(Window::ipc));
        v.push(ratio(self.operands, n, 0.0));
        v.push(ratio(self.live_reads, self.writes, 0.0));
        v.extend(
            self.dep_within
                .iter()
                .map(|&c| ratio(c, self.live_reads, 0.0)),
        );
        for set in [&self.d_blocks, &self.d_pages, &self.i_blocks, &self.i_pages] {
            v.push(set.len() as f64);
        }
        for dist in &self.strides {
            v.extend(dist.cdf());
        }
        v.extend(self.ppm.iter().map(|p| ratio(p.correct, p.total, 1.0)));
        MicaVector::new(v)
    }

    /// Branch taken rate, per-branch transition rate, and instructions per
    /// control transfer (all instructions when there is none).
    pub fn branch_metrics(&self) -> [f64; 3] {
        let basic_block = if self.control == 0 {
            self.instructions as f64
        } else {
            ratio(self.instructions, self.control, 0.0)
        };
        [
            ratio(self.taken, self.branches, 0.0),
            ratio(self.transitions, self.branches, 0.0),
            basic_block,
        ]
    }
}

/// Per-interval vectors: a fresh oracle over each `interval` instructions;
/// a trailing partial interval counts only if it covers at least half an
/// interval.
pub fn phases(stream: &[DynInst], interval: usize) -> Vec<MicaVector> {
    stream
        .chunks(interval)
        .filter(|chunk| chunk.len() * 2 >= interval)
        .map(|chunk| Oracle::of(chunk).finish())
        .collect()
}
