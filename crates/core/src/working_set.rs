//! Working-set-size characterization (metrics 20–23).

use std::collections::HashSet;
use tinyisa::{DynInst, TraceSink};

const BLOCK_SHIFT: u64 = 5; // 32-byte blocks
const PAGE_SHIFT: u64 = 12; // 4 KiB pages

/// Counts unique 32-byte blocks and 4 KiB pages touched by the instruction
/// and data streams (metrics 20–23 of Table II).
///
/// A data access that spans a block (or page) boundary touches both blocks
/// (pages).
#[derive(Debug, Default, Clone)]
pub struct WorkingSet {
    d_blocks: HashSet<u64>,
    d_pages: HashSet<u64>,
    i_blocks: HashSet<u64>,
    i_pages: HashSet<u64>,
    /// Scratch: candidate ids for the current block, deduped before they
    /// are hashed into the sets.
    scratch: Vec<u64>,
}

impl WorkingSet {
    /// Create an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique 32-byte data blocks touched.
    pub fn d_stream_blocks(&self) -> usize {
        self.d_blocks.len()
    }

    /// Unique 4 KiB data pages touched.
    pub fn d_stream_pages(&self) -> usize {
        self.d_pages.len()
    }

    /// Unique 32-byte instruction blocks touched.
    pub fn i_stream_blocks(&self) -> usize {
        self.i_blocks.len()
    }

    /// Unique 4 KiB instruction pages touched.
    pub fn i_stream_pages(&self) -> usize {
        self.i_pages.len()
    }

    /// The four metrics in Table II order: D-blocks, D-pages, I-blocks,
    /// I-pages.
    pub fn counts(&self) -> [f64; 4] {
        [
            self.d_blocks.len() as f64,
            self.d_pages.len() as f64,
            self.i_blocks.len() as f64,
            self.i_pages.len() as f64,
        ]
    }
}

/// Last byte touched by an access: saturates so accesses at the very top
/// of the address space stay in the last block/page instead of wrapping.
fn last_byte(addr: u64, size: u64) -> u64 {
    addr.saturating_add(size.max(1) - 1)
}

/// Dedup `scratch` (sort + dedup) and insert the distinct ids into `set`.
/// Sequential code repeats the same blocks and pages heavily, so paying
/// one sort over a small block-local vector is cheaper than hashing every
/// occurrence.
fn flush_ids(scratch: &mut Vec<u64>, set: &mut HashSet<u64>) {
    scratch.sort_unstable();
    scratch.dedup();
    for &id in scratch.iter() {
        set.insert(id);
    }
    scratch.clear();
}

impl TraceSink for WorkingSet {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Dedup-before-hash: collect ids into scratch, dropping adjacent
        // duplicates on the way in (instruction streams are runs of nearby
        // pcs), then sort+dedup and hash each distinct id once. Membership
        // of the sets is a pure union, so ordering does not matter.
        let mut scratch = std::mem::take(&mut self.scratch);

        for (shift, set) in
            [(BLOCK_SHIFT, &mut self.i_blocks), (PAGE_SHIFT, &mut self.i_pages)]
        {
            for inst in block {
                let id = inst.pc >> shift;
                if scratch.last() != Some(&id) {
                    scratch.push(id);
                }
            }
            flush_ids(&mut scratch, set);
        }

        for (shift, set) in
            [(BLOCK_SHIFT, &mut self.d_blocks), (PAGE_SHIFT, &mut self.d_pages)]
        {
            for inst in block {
                if let Some(m) = inst.mem {
                    let last = last_byte(m.addr, m.size);
                    for id in (m.addr >> shift)..=(last >> shift) {
                        if scratch.last() != Some(&id) {
                            scratch.push(id);
                        }
                    }
                }
            }
            flush_ids(&mut scratch, set);
        }

        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::{InstClass, MemAccess};

    fn mem_inst(pc: u64, addr: u64, size: u64) -> DynInst {
        DynInst {
            pc,
            class: InstClass::Load,
            dst: None,
            srcs: [None; 3],
            mem: Some(MemAccess { addr, size, is_store: false }),
            ctrl: None,
        }
    }

    fn plain_inst(pc: u64) -> DynInst {
        DynInst {
            pc,
            class: InstClass::IntAlu,
            dst: None,
            srcs: [None; 3],
            mem: None,
            ctrl: None,
        }
    }

    #[test]
    fn instruction_stream_blocks_and_pages() {
        let mut w = WorkingSet::new();
        // 16 instructions of 4 bytes: 64 bytes = 2 blocks, 1 page.
        for i in 0..16 {
            w.retire(&plain_inst(0x1_0000 + i * 4));
        }
        assert_eq!(w.i_stream_blocks(), 2);
        assert_eq!(w.i_stream_pages(), 1);
        assert_eq!(w.d_stream_blocks(), 0);
    }

    #[test]
    fn repeated_access_counts_once() {
        let mut w = WorkingSet::new();
        for _ in 0..100 {
            w.retire(&mem_inst(0x1000, 0x8000, 8));
        }
        assert_eq!(w.d_stream_blocks(), 1);
        assert_eq!(w.d_stream_pages(), 1);
    }

    #[test]
    fn block_spanning_access_touches_both_blocks() {
        let mut w = WorkingSet::new();
        w.retire(&mem_inst(0x1000, 0x801e, 8)); // crosses 0x8020 boundary
        assert_eq!(w.d_stream_blocks(), 2);
        assert_eq!(w.d_stream_pages(), 1);
    }

    #[test]
    fn page_spanning_access_touches_both_pages() {
        let mut w = WorkingSet::new();
        w.retire(&mem_inst(0x1000, 0x8ffc, 8)); // crosses 0x9000
        assert_eq!(w.d_stream_pages(), 2);
    }

    #[test]
    fn access_at_the_top_of_the_address_space_does_not_overflow() {
        // addr + size - 1 would wrap past u64::MAX (debug panic, release
        // wraparound into block 0); the last byte must saturate instead.
        let mut w = WorkingSet::new();
        w.retire(&mem_inst(0x1000, u64::MAX - 3, 8));
        assert_eq!(w.d_stream_blocks(), 1);
        assert_eq!(w.d_stream_pages(), 1);
        assert!(w.counts().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn zero_sized_access_touches_one_block() {
        let mut w = WorkingSet::new();
        w.retire(&mem_inst(0x1000, 0x8000, 0));
        assert_eq!(w.d_stream_blocks(), 1);
    }

    #[test]
    fn distinct_pages_accumulate() {
        let mut w = WorkingSet::new();
        for p in 0..10u64 {
            w.retire(&mem_inst(0x1000, 0x10_0000 + p * 4096, 4));
        }
        assert_eq!(w.d_stream_pages(), 10);
        assert_eq!(w.d_stream_blocks(), 10);
    }
}
