//! Register-traffic characterization (metrics 11–19).

use tinyisa::{DynInst, TraceSink};

/// The dependency-distance thresholds of Table II (metrics 13–19). The
/// distribution is cumulative: `P[distance <= k]`.
pub const DEP_DIST_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Measures register traffic (Franklin & Sohi style):
///
/// - **average number of input operands** per instruction (metric 11),
/// - **average degree of use**: how many times a register instance is read
///   between its production and the next write of the same register
///   (metric 12) — reads of a register that has no live producer yet are
///   not uses of any register *instance* and do not count here, though
///   they remain operands for metric 11,
/// - the cumulative **register dependency distance** distribution — the
///   number of dynamic instructions between a register write and a read of
///   it (metrics 13–19).
#[derive(Debug, Clone)]
pub struct RegTraffic {
    /// Dynamic instruction index of each unified register's last producer,
    /// or `u64::MAX` when never written.
    producer: [u64; 64],
    index: u64,
    operand_count: u64,
    reg_reads: u64,
    reg_writes: u64,
    /// `dist_buckets[i]` counts reads with distance <= DEP_DIST_BUCKETS[i]
    /// (cumulative, so a distance of 1 increments every bucket).
    dist_buckets: [u64; 7],
    dist_total: u64,
}

impl Default for RegTraffic {
    fn default() -> Self {
        Self::new()
    }
}

impl RegTraffic {
    /// Create an empty analyzer.
    pub fn new() -> Self {
        RegTraffic {
            producer: [u64::MAX; 64],
            index: 0,
            operand_count: 0,
            reg_reads: 0,
            reg_writes: 0,
            dist_buckets: [0; 7],
            dist_total: 0,
        }
    }

    /// Metric 11: mean register input operands per instruction.
    pub fn avg_input_operands(&self) -> f64 {
        if self.index == 0 {
            0.0
        } else {
            self.operand_count as f64 / self.index as f64
        }
    }

    /// Metric 12: mean reads per register write (degree of use).
    pub fn avg_degree_of_use(&self) -> f64 {
        if self.reg_writes == 0 {
            0.0
        } else {
            self.reg_reads as f64 / self.reg_writes as f64
        }
    }

    /// Metrics 13–19: `P[dependency distance <= k]` for
    /// `DEP_DIST_BUCKETS` (1, 2, 4, 8, 16, 32, 64).
    pub fn dependency_distance_cdf(&self) -> [f64; 7] {
        if self.dist_total == 0 {
            return [0.0; 7];
        }
        let t = self.dist_total as f64;
        let mut out = [0.0; 7];
        for (o, &c) in out.iter_mut().zip(&self.dist_buckets) {
            *o = c as f64 / t;
        }
        out
    }
}

/// First cumulative bucket a dependency distance lands in: `BUCKET_OF[d]`
/// is the smallest `i` with `d <= DEP_DIST_BUCKETS[i]`, for `d` in
/// `1..=64` (index 0 is unused — a consumer always retires after its
/// producer, so distances start at 1).
const BUCKET_OF: [u8; 65] = {
    let mut t = [0u8; 65];
    let mut d = 1u64;
    while d <= 64 {
        let mut i = 0;
        while DEP_DIST_BUCKETS[i] < d {
            i += 1;
        }
        t[d as usize] = i as u8;
        d += 1;
    }
    t
};

impl TraceSink for RegTraffic {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        // Tally operands/reads/writes locally and bucket each dependency
        // distance once via the BUCKET_OF table into a first-bucket
        // histogram, folded into the cumulative distribution at block end.
        // The producer table is inherently sequential and is updated in
        // retirement order.
        let mut operands = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut hist = [0u64; 7];
        let mut index = self.index;
        for inst in block {
            index += 1;
            for s in inst.sources() {
                operands += 1;
                let prod = self.producer[s.unified()];
                if prod != u64::MAX {
                    // A read of a live register instance: counts for degree
                    // of use (metric 12) and the dependency-distance
                    // distribution; adjacent instructions have distance 1.
                    reads += 1;
                    let dist = index - 1 - prod;
                    if dist <= 64 {
                        hist[BUCKET_OF[dist as usize] as usize] += 1;
                    }
                }
            }
            if let Some(d) = inst.dst {
                writes += 1;
                self.producer[d.unified()] = index - 1;
            }
        }
        self.index = index;
        self.operand_count += operands;
        self.reg_reads += reads;
        self.reg_writes += writes;
        self.dist_total += reads;
        // Fold: a read first landing in bucket j belongs to every
        // cumulative bucket j..7.
        let mut acc = 0u64;
        for (b, h) in self.dist_buckets.iter_mut().zip(&hist) {
            acc += h;
            *b += acc;
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
    fn empty_trace_yields_zeroes() {
        let r = RegTraffic::new();
        assert_eq!(r.avg_input_operands(), 0.0);
        assert_eq!(r.avg_degree_of_use(), 0.0);
        assert_eq!(r.dependency_distance_cdf(), [0.0; 7]);
    }

    #[test]
    fn avg_inputs_counts_all_instructions() {
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(1), &[])); // 0 operands
        r.retire(&inst(Some(2), &[1, 1])); // 2 operands
        assert_eq!(r.avg_input_operands(), 1.0);
    }

    #[test]
    fn degree_of_use_is_reads_per_write() {
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(1), &[])); // write r1
        r.retire(&inst(Some(2), &[1])); // read r1, write r2
        r.retire(&inst(Some(3), &[1, 2])); // read r1, r2, write r3
        // 3 reads, 3 writes
        assert_eq!(r.avg_degree_of_use(), 1.0);
    }

    #[test]
    fn adjacent_dependence_has_distance_one() {
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(1), &[]));
        r.retire(&inst(Some(2), &[1])); // distance 1
        let cdf = r.dependency_distance_cdf();
        assert_eq!(cdf, [1.0; 7]); // a distance-1 read is within all buckets
    }

    #[test]
    fn distance_buckets_are_cumulative_and_monotone() {
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(1), &[])); // producer at index 0
        for _ in 0..9 {
            r.retire(&inst(Some(2), &[])); // 9 fillers
        }
        r.retire(&inst(Some(3), &[1])); // distance 10: in <=16, <=32, <=64 only
        let cdf = r.dependency_distance_cdf();
        assert_eq!(cdf[..4], [0.0; 4]); // <=1,2,4,8
        assert_eq!(cdf[4..], [1.0; 3]); // <=16,32,64
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn reads_before_any_write_are_not_counted_as_dependences() {
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(2), &[7])); // r7 never produced
        assert_eq!(r.dependency_distance_cdf(), [0.0; 7]);
        assert_eq!(r.avg_input_operands(), 1.0); // still an operand
    }

    #[test]
    fn cold_register_reads_do_not_inflate_degree_of_use() {
        // Metric 12 counts reads per register *instance* (Franklin & Sohi);
        // a read of a never-written register has no producing instance and
        // must not count, or cold-start reads inflate the metric.
        let mut r = RegTraffic::new();
        r.retire(&inst(Some(1), &[7])); // r7 cold: not a use of an instance
        r.retire(&inst(None, &[1])); // r1 live: one real use
        assert_eq!(r.avg_degree_of_use(), 1.0, "1 live read / 1 write");
        assert_eq!(r.avg_input_operands(), 1.0, "both reads remain operands");
    }

    #[test]
    fn bucket_table_matches_the_cumulative_thresholds() {
        for d in 1u64..=64 {
            let expect = DEP_DIST_BUCKETS.iter().position(|&t| d <= t).unwrap();
            assert_eq!(BUCKET_OF[d as usize] as usize, expect, "distance {d}");
        }
    }
}
