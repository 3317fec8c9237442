//! Genetic-algorithm feature selection (Section V-B of the paper).
//!
//! A solution is a bitmask over the N metrics. The paper's fitness is
//! `f = rho * (1 - n/N)`, where `rho` is the Pearson correlation between the
//! pairwise benchmark distances in the full space and in the selected
//! subspace, and `n` is the number of selected metrics — rewarding subsets
//! that preserve the workload-space geometry while being small.

use crate::dataset::DataSet;
use crate::distance::{pairwise_distances, pearson};
use crate::zscore_normalize;
use mica_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GA generations evaluated, across all selector runs in the process.
static GENERATIONS: obs::Counter = obs::Counter::new("ga.generations");

/// Hyperparameters of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Probability of crossover (vs. cloning) when breeding.
    pub crossover_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of best solutions copied unchanged into the next generation.
    pub elitism: usize,
    /// Stop early after this many generations without improvement
    /// ("until no more improvement is observed", as the paper puts it).
    pub stagnation_limit: usize,
    /// RNG seed — the selection is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 64,
            generations: 300,
            mutation_rate: 0.02,
            crossover_rate: 0.9,
            tournament: 3,
            elitism: 2,
            stagnation_limit: 60,
            seed: 0x4d49_4341, // "MICA"
        }
    }
}

/// Outcome of a GA feature-selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Selected column indices, ascending.
    pub selected: Vec<usize>,
    /// The achieved fitness value.
    pub fitness: f64,
    /// The distance-correlation component `rho` of the fitness.
    pub rho: f64,
    /// Generations actually run (early stop counts).
    pub generations_run: usize,
    /// Best fitness per generation.
    pub history: Vec<f64>,
}

/// The GA engine. Precomputes per-column pairwise squared differences so a
/// genome evaluation is one weighted sum per benchmark pair.
#[derive(Debug)]
pub struct GeneticSelector {
    config: GaConfig,
    num_cols: usize,
    /// Full-space pairwise distances.
    full: Vec<f64>,
    /// `col_sq[c][p]` = squared difference of column `c` for pair `p`.
    col_sq: Vec<Vec<f64>>,
    /// If set, genomes are constrained to exactly this many bits and the
    /// fitness is plain `rho`.
    fixed_size: Option<usize>,
}

impl GeneticSelector {
    /// Build a selector over `ds` (z-scored internally; z-scoring is
    /// idempotent so already-normalized data is fine).
    ///
    /// # Panics
    ///
    /// Panics if `ds` has more than 64 columns or fewer than 2 rows.
    pub fn new(ds: &DataSet, config: GaConfig) -> Self {
        assert!(ds.cols() <= 64, "genomes are 64-bit masks");
        assert!(ds.rows() >= 2, "need at least two benchmarks");
        let z = zscore_normalize(ds);
        let full = pairwise_distances(&z).values().to_vec();
        let pairs = full.len();
        let mut col_sq = vec![vec![0.0; pairs]; z.cols()];
        let n = z.rows();
        let mut p = 0;
        for i in 0..n {
            for j in i + 1..n {
                for (c, sq) in col_sq.iter_mut().enumerate() {
                    let d = z.get(i, c) - z.get(j, c);
                    sq[p] = d * d;
                }
                p += 1;
            }
        }
        GeneticSelector { config, num_cols: z.cols(), full, col_sq, fixed_size: None }
    }

    /// Constrain genomes to exactly `k` selected metrics (fitness becomes
    /// plain `rho`). Used for like-for-like comparisons against correlation
    /// elimination at a given subset size.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the number of columns.
    pub fn with_fixed_size(mut self, k: usize) -> Self {
        assert!(k >= 1 && k <= self.num_cols, "fixed size out of range");
        self.fixed_size = Some(k);
        self
    }

    /// Distance correlation `rho` for a genome.
    fn rho(&self, genome: u64) -> f64 {
        let pairs = self.full.len();
        let mut sub = vec![0.0; pairs];
        for c in 0..self.num_cols {
            if genome >> c & 1 == 1 {
                let sq = &self.col_sq[c];
                for (s, q) in sub.iter_mut().zip(sq) {
                    *s += q;
                }
            }
        }
        for s in &mut sub {
            *s = s.sqrt();
        }
        pearson(&self.full, &sub)
    }

    /// Fitness of a genome: `rho * (1 - n/N)` (or plain `rho` when the
    /// subset size is fixed). Empty genomes score 0.
    pub fn fitness(&self, genome: u64) -> f64 {
        let n = genome.count_ones() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let rho = self.rho(genome);
        match self.fixed_size {
            Some(_) => rho,
            None => rho * (1.0 - n / self.num_cols as f64),
        }
    }

    fn random_genome(&self, rng: &mut StdRng) -> u64 {
        match self.fixed_size {
            Some(k) => {
                let mut g = 0u64;
                while (g.count_ones() as usize) < k {
                    g |= 1 << rng.gen_range(0..self.num_cols);
                }
                g
            }
            None => {
                let mask = if self.num_cols == 64 { u64::MAX } else { (1u64 << self.num_cols) - 1 };
                let g = rng.gen::<u64>() & mask;
                if g == 0 {
                    1 << rng.gen_range(0..self.num_cols)
                } else {
                    g
                }
            }
        }
    }

    /// Repair a genome to satisfy the non-empty (and fixed-size, if any)
    /// constraint.
    fn repair(&self, mut g: u64, rng: &mut StdRng) -> u64 {
        match self.fixed_size {
            Some(k) => {
                while (g.count_ones() as usize) > k {
                    // Drop a random selected bit.
                    let selected: Vec<usize> =
                        (0..self.num_cols).filter(|&c| g >> c & 1 == 1).collect();
                    g &= !(1 << selected[rng.gen_range(0..selected.len())]);
                }
                while (g.count_ones() as usize) < k {
                    g |= 1 << rng.gen_range(0..self.num_cols);
                }
                g
            }
            None => {
                if g == 0 {
                    g = 1 << rng.gen_range(0..self.num_cols);
                }
                g
            }
        }
    }

    fn tournament_pick(&self, pop: &[(u64, f64)], rng: &mut StdRng) -> u64 {
        let mut best = pop[rng.gen_range(0..pop.len())];
        for _ in 1..self.config.tournament.max(1) {
            let cand = pop[rng.gen_range(0..pop.len())];
            if cand.1 > best.1 {
                best = cand;
            }
        }
        best.0
    }

    /// Score a batch of genomes on the worker pool. Fitness is RNG-free, so
    /// the scores come back bit-identical, in input order, for any thread
    /// count.
    fn evaluate(&self, genomes: &[u64]) -> Vec<(u64, f64)> {
        mica_par::par_map(genomes, |&g| (g, self.fitness(g)))
    }

    /// Run the GA to completion, evaluating population fitness on the
    /// worker pool. Bit-identical for any `MICA_THREADS`: all RNG
    /// consumption (breeding) happens serially; only the RNG-free fitness
    /// scoring is distributed, and scores are merged back in breeding order
    /// before the (stable) ranking sort.
    pub fn run(&self) -> GaResult {
        let cfg = self.config;
        let mut run_span = obs::span("ga", "ga_run");
        run_span.attr("population", cfg.population as u64);
        run_span.attr("metrics", self.num_cols as u64);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let seeds: Vec<u64> =
            (0..cfg.population.max(2)).map(|_| self.random_genome(&mut rng)).collect();
        let mut pop = self.evaluate(&seeds);
        pop.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

        let mut history = Vec::new();
        let mut best = pop[0];
        let mut stagnant = 0;
        let mut gens = 0;
        for _ in 0..cfg.generations {
            gens += 1;
            GENERATIONS.incr();
            let mut gen_span = obs::span("ga", "generation");
            gen_span.attr("gen", gens as u64);
            let elites = cfg.elitism.min(pop.len());
            let mut children = Vec::with_capacity(pop.len() - elites);
            while elites + children.len() < pop.len() {
                let a = self.tournament_pick(&pop, &mut rng);
                let b = self.tournament_pick(&pop, &mut rng);
                let mut child = if rng.gen::<f64>() < cfg.crossover_rate {
                    // Uniform crossover.
                    let mask = rng.gen::<u64>();
                    (a & mask) | (b & !mask)
                } else {
                    a
                };
                for c in 0..self.num_cols {
                    if rng.gen::<f64>() < cfg.mutation_rate {
                        child ^= 1 << c;
                    }
                }
                children.push(self.repair(child, &mut rng));
            }
            let mut next: Vec<(u64, f64)> = pop[..elites].to_vec();
            next.extend(self.evaluate(&children));
            next.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            pop = next;
            history.push(pop[0].1);
            gen_span.attr("best_fitness", pop[0].1);
            if pop[0].1 > best.1 + 1e-12 {
                best = pop[0];
                stagnant = 0;
            } else {
                stagnant += 1;
                if stagnant >= cfg.stagnation_limit {
                    break;
                }
            }
        }

        let selected: Vec<usize> = (0..self.num_cols).filter(|&c| best.0 >> c & 1 == 1).collect();
        run_span.attr("generations", gens as u64);
        run_span.attr("fitness", best.1);
        obs::debug!("ga converged after {gens} generations (fitness {:.4})", best.1);
        GaResult {
            rho: self.rho(best.0),
            selected,
            fitness: best.1,
            generations_run: gens,
            history,
        }
    }
}

/// Run the paper's GA feature selection on `ds`.
pub fn select_features(ds: &DataSet, config: GaConfig) -> GaResult {
    GeneticSelector::new(ds, config).run()
}

/// Run the GA constrained to exactly `k` metrics (fitness = `rho`).
pub fn select_features_k(ds: &DataSet, k: usize, config: GaConfig) -> GaResult {
    GeneticSelector::new(ds, config).with_fixed_size(k).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 rows x 6 cols: cols 0..3 are noisy copies of one latent factor,
    /// col 4 is a second factor, col 5 is a third.
    fn structured() -> DataSet {
        let mut rows = Vec::new();
        let mut x = 7u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 1000.0
        };
        for _ in 0..20 {
            let f1 = rnd() * 10.0;
            let f2 = rnd() * 10.0;
            let f3 = rnd() * 10.0;
            rows.push(vec![
                f1,
                f1 * 2.0 + 0.01 * rnd(),
                f1 * -1.5 + 0.01 * rnd(),
                f1 + 0.01 * rnd(),
                f2,
                f3,
            ]);
        }
        DataSet::from_rows(rows)
    }

    #[test]
    fn ga_finds_small_subset_with_decent_rho() {
        // With only N=6 columns the paper's size penalty (1 - n/N) is very
        // steep, so the unconstrained GA trades some rho for size; it should
        // still remove the redundant copies and keep meaningful correlation.
        let ds = structured();
        let r = select_features(&ds, GaConfig { generations: 120, ..GaConfig::default() });
        assert!(!r.selected.is_empty());
        assert!(r.selected.len() <= 4, "redundancy should be removed: {:?}", r.selected);
        assert!(r.rho > 0.7, "rho = {}", r.rho);
    }

    #[test]
    fn fixed_k_ga_recovers_the_three_factors() {
        // Balanced latent structure: factors 1 and 2 appear twice each
        // (columns 0-1 and 2-3), factor 3 once (column 4). The best
        // 3-column subset picks one representative per factor.
        let mut rows = Vec::new();
        let mut x = 11u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 100.0
        };
        for _ in 0..25 {
            let (f1, f2, f3) = (rnd(), rnd(), rnd());
            rows.push(vec![f1, f1 * 2.0 + 0.001 * rnd(), f2, -f2 + 0.001 * rnd(), f3]);
        }
        let ds = DataSet::from_rows(rows);
        let r = select_features_k(&ds, 3, GaConfig { generations: 120, ..GaConfig::default() });
        assert_eq!(r.selected.len(), 3);
        assert!(r.rho > 0.9, "rho = {}", r.rho);
        assert!(r.selected.iter().any(|&c| c <= 1), "factor 1 missing: {:?}", r.selected);
        assert!(
            r.selected.iter().any(|&c| c == 2 || c == 3),
            "factor 2 missing: {:?}",
            r.selected
        );
        assert!(r.selected.contains(&4), "factor 3 missing: {:?}", r.selected);
    }

    #[test]
    fn fixed_size_is_respected() {
        let ds = structured();
        for k in [1, 3, 6] {
            let r = select_features_k(&ds, k, GaConfig { generations: 60, ..GaConfig::default() });
            assert_eq!(r.selected.len(), k);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = structured();
        let cfg = GaConfig { generations: 40, ..GaConfig::default() };
        let a = select_features(&ds, cfg);
        let b = select_features(&ds, cfg);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn run_is_identical_at_one_and_four_threads() {
        // Other tests may run while the variable is flipped; none of their
        // results depends on the pool width either.
        let ds = structured();
        let cfg = GaConfig { generations: 60, ..GaConfig::default() };
        let sel = GeneticSelector::new(&ds, cfg);
        let outer = std::env::var_os("MICA_THREADS");
        std::env::set_var("MICA_THREADS", "1");
        let one = sel.run();
        std::env::set_var("MICA_THREADS", "4");
        let four = sel.run();
        match outer {
            Some(v) => std::env::set_var("MICA_THREADS", v),
            None => std::env::remove_var("MICA_THREADS"),
        }
        assert_eq!(one, four, "the pool width must not change the evolution");
        assert!(one.history.iter().zip(&four.history).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn full_genome_rho_is_one() {
        let ds = structured();
        let sel = GeneticSelector::new(&ds, GaConfig::default());
        let full_mask = (1u64 << ds.cols()) - 1;
        assert!((sel.rho(full_mask) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_genome_fitness_zero() {
        let ds = structured();
        let sel = GeneticSelector::new(&ds, GaConfig::default());
        assert_eq!(sel.fitness(0), 0.0);
    }

    #[test]
    fn history_is_monotone_with_elitism() {
        let ds = structured();
        let r = select_features(&ds, GaConfig { generations: 50, ..GaConfig::default() });
        for w in r.history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "elitism keeps best: {:?}", r.history);
        }
    }
}
