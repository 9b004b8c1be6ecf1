//! Infeasibility-distance cost function and lexicographic solution
//! comparison (paper §3.3–§3.4).

use std::cmp::Ordering;
use std::fmt;

use fpart_device::DeviceConstraints;

use crate::config::FpartConfig;
use crate::state::PartitionState;

/// Classification of a partitioning solution (paper §2, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeasibilityClass {
    /// Every block meets the device constraints.
    Feasible,
    /// Exactly one block (the remainder) violates the constraints.
    SemiFeasible,
    /// More than one block violates the constraints.
    Infeasible,
}

/// Classifies a solution from its violator count.
#[must_use]
pub fn classify(feasible_blocks: usize, total_blocks: usize) -> FeasibilityClass {
    match total_blocks - feasible_blocks {
        0 => FeasibilityClass::Feasible,
        1 => FeasibilityClass::SemiFeasible,
        _ => FeasibilityClass::Infeasible,
    }
}

/// The lexicographic solution quality key `(f, d_k, T^SUM, d_k^E)` of
/// §3.4, with the cut size as a final deterministic tie-break.
///
/// A key is *better* when it has more feasible blocks, then a smaller
/// infeasibility distance, then a smaller total terminal count, then a
/// smaller external-balance deviation, then a smaller cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolutionKey {
    /// Number of blocks meeting the device constraints (`f`).
    pub feasible_blocks: usize,
    /// Total number of blocks when the key was taken.
    pub total_blocks: usize,
    /// Infeasibility distance `d_k` (§3.3), including the `λ^R d_k^R`
    /// size-deviation penalty.
    pub infeasibility: f64,
    /// Total terminal count `T^SUM = Σ|Y_i|`.
    pub terminal_sum: usize,
    /// External I/O balancing factor `d_k^E` (§3.4).
    pub external_balance: f64,
    /// Nets spanning more than one block.
    pub cut: usize,
}

impl SolutionKey {
    /// Returns the feasibility classification of the keyed solution.
    #[must_use]
    pub fn class(&self) -> FeasibilityClass {
        classify(self.feasible_blocks, self.total_blocks)
    }

    /// Returns `true` if `self` is strictly better than `other` in the
    /// paper's lexicographic order.
    #[must_use]
    pub fn better_than(&self, other: &SolutionKey) -> bool {
        self.cmp_key(other) == Ordering::Less
    }

    /// Total order: `Less` means better.
    #[must_use]
    pub fn cmp_key(&self, other: &SolutionKey) -> Ordering {
        other
            .feasible_blocks
            .cmp(&self.feasible_blocks)
            .then_with(|| self.infeasibility.total_cmp(&other.infeasibility))
            .then_with(|| self.terminal_sum.cmp(&other.terminal_sum))
            .then_with(|| self.external_balance.total_cmp(&other.external_balance))
            .then_with(|| self.cut.cmp(&other.cut))
    }
}

/// Compact, stable, single-line rendering in the key's lexicographic
/// field order — `f=<feasible>/<total> d=<infeasibility> tsum=<terminal
/// sum> ext=<external balance> cut=<cut>` — used by the CLI's `--trace`
/// output, so it is diffable: the column set, order, and float precision
/// (three decimals) are a compatibility surface.
impl fmt::Display for SolutionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f={}/{} d={:.3} tsum={} ext={:.3} cut={}",
            self.feasible_blocks,
            self.total_blocks,
            self.infeasibility,
            self.terminal_sum,
            self.external_balance,
            self.cut
        )
    }
}

/// Evaluates [`SolutionKey`]s for a fixed device, lower bound `M`, and
/// terminal total `|Y₀|`.
///
/// Constructed once per partitioning run. A from-scratch evaluation
/// ([`Self::key`]) is `O(k)`; the move loop instead maintains a
/// [`KeyTracker`], which delta-updates the same aggregates in `O(1)` per
/// move and produces bit-identical keys.
///
/// All per-block cost terms are aggregated as *integers* (size excess,
/// terminal excess, external deficit numerators) and converted to the
/// paper's `f64` distances by a single division at key-assembly time.
/// Integer sums are order-independent, which is what makes the
/// incremental and from-scratch paths agree exactly.
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    constraints: DeviceConstraints,
    lambda_s: f64,
    lambda_t: f64,
    lambda_r: f64,
    /// Lower bound `M` on the number of devices.
    m: usize,
    /// Circuit terminal total `|Y₀|` (the numerator of `T^E_AVG`).
    y0: u64,
    use_infeasibility: bool,
    use_external_balance: bool,
}

/// Order-independent integer aggregates from which a [`SolutionKey`] is
/// assembled in O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KeyAggregates {
    /// Blocks meeting the device constraints.
    feasible: usize,
    /// `Σ_i max(0, S_i − S_MAX)`.
    size_excess: u64,
    /// `Σ_i max(0, T_i − T_MAX)`.
    term_excess: u64,
    /// `Σ_i max(0, |Y₀| − M·T_i^E)` — the external-balance deficit
    /// numerator (`d_k^E = Σ (T^E_AVG − T_i^E)/T^E_AVG` with
    /// `T^E_AVG = |Y₀|/M`, rewritten over a common denominator `|Y₀|`).
    ext_deficit: u64,
}

/// One block's contribution to the [`KeyAggregates`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockTerms {
    fits: bool,
    size_excess: u64,
    term_excess: u64,
    ext_deficit: u64,
}

impl KeyAggregates {
    #[inline]
    fn add(&mut self, t: BlockTerms) {
        self.feasible += usize::from(t.fits);
        self.size_excess += t.size_excess;
        self.term_excess += t.term_excess;
        self.ext_deficit += t.ext_deficit;
    }

    #[inline]
    fn remove(&mut self, t: BlockTerms) {
        self.feasible -= usize::from(t.fits);
        self.size_excess -= t.size_excess;
        self.term_excess -= t.term_excess;
        self.ext_deficit -= t.ext_deficit;
    }
}

impl CostEvaluator {
    /// Creates an evaluator for the given device, configuration, lower
    /// bound `M`, and circuit terminal count `|Y₀|`.
    #[must_use]
    pub fn new(
        constraints: DeviceConstraints,
        config: &FpartConfig,
        m: usize,
        total_terminals: usize,
    ) -> Self {
        CostEvaluator {
            constraints,
            lambda_s: config.lambda_s,
            lambda_t: config.lambda_t,
            lambda_r: config.lambda_r,
            m: m.max(1),
            y0: total_terminals as u64,
            use_infeasibility: config.use_infeasibility_cost,
            use_external_balance: config.use_external_balance,
        }
    }

    /// Returns the device constraints this evaluator enforces.
    #[must_use]
    pub fn constraints(&self) -> DeviceConstraints {
        self.constraints
    }

    /// Returns a copy with the full paper cost re-enabled, regardless of
    /// ablation flags. The constructive initial bipartition always ranks
    /// its two methods with the full key: every recursive method the
    /// paper builds on (k-way.x included) constructs *well-filled
    /// feasible* blocks, so a cut-only ranking there would caricature the
    /// baseline rather than model it.
    #[must_use]
    pub fn with_full_cost(&self) -> CostEvaluator {
        CostEvaluator { use_infeasibility: true, use_external_balance: true, ..self.clone() }
    }

    /// Returns the lower bound `M` used by the deviation penalties.
    #[must_use]
    pub fn lower_bound(&self) -> usize {
        self.m
    }

    /// Infeasibility distance `d_i = λ^S d_i^S + λ^T d_i^T` of one block.
    #[must_use]
    pub fn block_distance(&self, size: u64, terminals: usize) -> f64 {
        let s_max = self.constraints.s_max as f64;
        let t_max = self.constraints.t_max as f64;
        let ds = if size > self.constraints.s_max && s_max > 0.0 {
            (size as f64 - s_max) / s_max
        } else {
            0.0
        };
        let dt = if terminals > self.constraints.t_max && t_max > 0.0 {
            (terminals as f64 - t_max) / t_max
        } else {
            0.0
        };
        self.lambda_s * ds + self.lambda_t * dt
    }

    /// Size-deviation penalty `d_k^R` (§3.3): with `p` blocks already
    /// peeled off, the remainder must still be split into at least
    /// `M − p` devices; if even the *average* resulting block size
    /// `S_AVG = S(R)/(M − p + 1)` exceeds `S_MAX`, the penalty
    /// `S_AVG / S_MAX` applies.
    #[must_use]
    pub fn remainder_penalty(&self, remainder_size: u64, peeled_blocks: usize) -> f64 {
        // The paper's denominator M − k + 1, with k = peeled_blocks,
        // clamped to at least 1 once k exceeds M.
        let denom = self.m.saturating_sub(peeled_blocks).saturating_add(1).max(1) as f64;
        let s_avg = remainder_size as f64 / denom;
        let s_max = self.constraints.s_max as f64;
        if s_max > 0.0 && s_avg > s_max {
            s_avg / s_max
        } else {
            0.0
        }
    }

    /// External I/O balance factor `d_k^E` (§3.4): total relative deficit
    /// of under-served blocks w.r.t. `T^E_AVG`.
    ///
    /// Computed over the common denominator `|Y₀|` — each block with
    /// `M·T_i^E < |Y₀|` contributes `(|Y₀| − M·T_i^E)/|Y₀|`, which equals
    /// the paper's `(T^E_AVG − T_i^E)/T^E_AVG` — so the value is a single
    /// division of an integer sum and therefore order-independent.
    #[must_use]
    pub fn external_balance(&self, externals: impl IntoIterator<Item = usize>) -> f64 {
        let deficit: u64 = externals.into_iter().map(|t| self.block_ext_deficit(t)).sum();
        self.balance_from_deficit(deficit)
    }

    /// One block's external-deficit numerator `max(0, |Y₀| − M·T_i^E)`.
    #[inline]
    fn block_ext_deficit(&self, externals: usize) -> u64 {
        self.y0.saturating_sub((self.m as u64).saturating_mul(externals as u64))
    }

    /// Converts an external-deficit numerator to the `d_k^E` factor.
    #[inline]
    fn balance_from_deficit(&self, deficit: u64) -> f64 {
        if !self.use_external_balance || self.y0 == 0 {
            0.0
        } else {
            deficit as f64 / self.y0 as f64
        }
    }

    /// One block's contribution to the key aggregates.
    #[inline]
    fn block_terms(&self, size: u64, terminals: usize, externals: usize) -> BlockTerms {
        BlockTerms {
            fits: self.constraints.fits(size, terminals),
            size_excess: size.saturating_sub(self.constraints.s_max),
            term_excess: (terminals as u64).saturating_sub(self.constraints.t_max as u64),
            ext_deficit: self.block_ext_deficit(externals),
        }
    }

    /// Converts excess sums to the infeasibility distance
    /// `λ^S Σd_i^S + λ^T Σd_i^T` (no remainder term).
    #[inline]
    fn distance_from_excess(&self, size_excess: u64, term_excess: u64) -> f64 {
        let mut d = 0.0f64;
        if size_excess > 0 && self.constraints.s_max > 0 {
            d += self.lambda_s * (size_excess as f64 / self.constraints.s_max as f64);
        }
        if term_excess > 0 && self.constraints.t_max > 0 {
            d += self.lambda_t * (term_excess as f64 / self.constraints.t_max as f64);
        }
        d
    }

    /// O(k) scan producing the aggregates for the current state.
    fn scan_aggregates(&self, state: &PartitionState<'_>) -> KeyAggregates {
        let mut agg = KeyAggregates::default();
        for b in 0..state.block_count() {
            agg.add(self.block_terms(
                state.block_size(b),
                state.block_terminals(b),
                state.block_externals(b),
            ));
        }
        agg
    }

    /// O(1) assembly of the final key from aggregates. Shared by the
    /// from-scratch path and [`KeyTracker`], so both produce the exact
    /// same floating-point values.
    fn assemble_key(
        &self,
        agg: KeyAggregates,
        state: &PartitionState<'_>,
        remainder: Option<usize>,
    ) -> SolutionKey {
        let k = state.block_count();
        if !self.use_infeasibility {
            // Ablation: classical cut-only ranking (k-way.x cost function).
            return SolutionKey {
                feasible_blocks: agg.feasible,
                total_blocks: k,
                infeasibility: 0.0,
                terminal_sum: 0,
                external_balance: 0.0,
                cut: state.cut_count(),
            };
        }
        let mut distance = self.distance_from_excess(agg.size_excess, agg.term_excess);
        if let Some(r) = remainder {
            let peeled = k.saturating_sub(1);
            distance += self.lambda_r * self.remainder_penalty(state.block_size(r), peeled);
        }
        SolutionKey {
            feasible_blocks: agg.feasible,
            total_blocks: k,
            infeasibility: distance,
            terminal_sum: state.terminal_sum(),
            external_balance: self.balance_from_deficit(agg.ext_deficit),
            cut: state.cut_count(),
        }
    }

    /// Computes the full solution key for the current state (O(k) scan).
    ///
    /// `remainder` is the block currently designated as the remainder
    /// `R_k` (used by the `d_k^R` penalty); pass `None` once no remainder
    /// is distinguished (final solutions).
    #[must_use]
    pub fn key(&self, state: &PartitionState<'_>, remainder: Option<usize>) -> SolutionKey {
        self.assemble_key(self.scan_aggregates(state), state, remainder)
    }
}

/// Incrementally maintained key aggregates: the move loop's O(1)
/// replacement for the O(k) [`CostEvaluator::key`] rescan.
///
/// The tracker caches each block's key terms; after a move only the
/// two touched blocks are re-derived and the aggregate sums adjusted.
/// Because all aggregates are integers and the final key is assembled by
/// the same key assembly as the from-scratch [`CostEvaluator::key`],
/// the produced keys are bit-identical regardless of move history —
/// an invariant enforced by `tests/invariants_proptest.rs` and by
/// debug assertions in the pass engine.
#[derive(Debug, Clone)]
pub struct KeyTracker {
    blocks: Vec<BlockTerms>,
    agg: KeyAggregates,
}

impl KeyTracker {
    /// Builds a tracker for the current state (one O(k) scan).
    #[must_use]
    pub fn new(evaluator: &CostEvaluator, state: &PartitionState<'_>) -> Self {
        let mut tracker = KeyTracker { blocks: Vec::new(), agg: KeyAggregates::default() };
        tracker.rebuild(evaluator, state);
        tracker
    }

    /// Re-derives every cached term from the state (O(k)); reuses the
    /// existing allocation.
    pub fn rebuild(&mut self, evaluator: &CostEvaluator, state: &PartitionState<'_>) {
        self.blocks.clear();
        self.agg = KeyAggregates::default();
        self.ensure_blocks(evaluator, state);
    }

    /// Accounts for blocks appended by `PartitionState::add_block` since
    /// the last sync.
    pub fn ensure_blocks(&mut self, evaluator: &CostEvaluator, state: &PartitionState<'_>) {
        while self.blocks.len() < state.block_count() {
            let b = self.blocks.len();
            let terms = evaluator.block_terms(
                state.block_size(b),
                state.block_terminals(b),
                state.block_externals(b),
            );
            self.agg.add(terms);
            self.blocks.push(terms);
        }
    }

    /// Re-derives one block's cached terms from the state.
    #[inline]
    fn sync_block(&mut self, evaluator: &CostEvaluator, state: &PartitionState<'_>, block: usize) {
        let terms = evaluator.block_terms(
            state.block_size(block),
            state.block_terminals(block),
            state.block_externals(block),
        );
        self.agg.remove(self.blocks[block]);
        self.agg.add(terms);
        self.blocks[block] = terms;
    }

    /// Updates the tracker after `state.move_node(_, to)` moved a cell
    /// from block `from` to block `to`. O(1): only the two touched
    /// blocks are re-derived.
    #[inline]
    pub fn apply_move(
        &mut self,
        evaluator: &CostEvaluator,
        state: &PartitionState<'_>,
        from: usize,
        to: usize,
    ) {
        self.sync_block(evaluator, state, from);
        if to != from {
            self.sync_block(evaluator, state, to);
        }
    }

    /// Assembles the current key in O(1).
    #[must_use]
    pub fn key(
        &self,
        evaluator: &CostEvaluator,
        state: &PartitionState<'_>,
        remainder: Option<usize>,
    ) -> SolutionKey {
        debug_assert_eq!(
            self.blocks.len(),
            state.block_count(),
            "tracker out of sync with block count; call ensure_blocks"
        );
        evaluator.assemble_key(self.agg, state, remainder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::HypergraphBuilder;

    fn evaluator(s_max: u64, t_max: usize, m: usize, y0: usize) -> CostEvaluator {
        CostEvaluator::new(DeviceConstraints::new(s_max, t_max), &FpartConfig::default(), m, y0)
    }

    #[test]
    fn classify_matches_paper_definitions() {
        assert_eq!(classify(4, 4), FeasibilityClass::Feasible);
        assert_eq!(classify(3, 4), FeasibilityClass::SemiFeasible);
        assert_eq!(classify(2, 4), FeasibilityClass::Infeasible);
    }

    #[test]
    fn block_distance_zero_inside_region() {
        let e = evaluator(100, 50, 4, 100);
        assert_eq!(e.block_distance(100, 50), 0.0);
        assert_eq!(e.block_distance(1, 1), 0.0);
    }

    #[test]
    fn block_distance_weights_components() {
        let e = evaluator(100, 50, 4, 100);
        // size 150 → d^S = 0.5; terminals 75 → d^T = 0.5
        let d = e.block_distance(150, 75);
        assert!((d - (0.4 * 0.5 + 0.6 * 0.5)).abs() < 1e-12);
        // I/O-only violation is weighted more than the same size-only one.
        assert!(e.block_distance(100, 75) > e.block_distance(150, 50));
    }

    #[test]
    fn remainder_penalty_activates_when_average_exceeds() {
        let e = evaluator(100, 50, 5, 100);
        // 1 block peeled, remainder 600 → S_AVG = 600/5 = 120 > 100.
        assert!((e.remainder_penalty(600, 1) - 1.2).abs() < 1e-12);
        // remainder 400 → S_AVG = 80 ≤ 100 → no penalty.
        assert_eq!(e.remainder_penalty(400, 1), 0.0);
        // All M blocks peeled: denominator clamps at 1.
        assert!(e.remainder_penalty(150, 7) > 0.0);
    }

    #[test]
    fn external_balance_only_counts_deficits() {
        let e = evaluator(100, 50, 4, 80); // T_AVG^E = 20
        let d = e.external_balance([10usize, 20, 30, 20]);
        assert!((d - 0.5).abs() < 1e-12); // only the 10 is under average
        assert_eq!(e.external_balance([20usize, 25, 30, 25]), 0.0);
    }

    #[test]
    fn key_ordering_is_lexicographic() {
        let base = SolutionKey {
            feasible_blocks: 3,
            total_blocks: 4,
            infeasibility: 1.0,
            terminal_sum: 100,
            external_balance: 0.5,
            cut: 40,
        };
        let more_feasible = SolutionKey { feasible_blocks: 4, ..base };
        assert!(more_feasible.better_than(&base));
        let lower_distance = SolutionKey { infeasibility: 0.5, ..base };
        assert!(lower_distance.better_than(&base));
        let fewer_terminals = SolutionKey { terminal_sum: 90, ..base };
        assert!(fewer_terminals.better_than(&base));
        let better_balance = SolutionKey { external_balance: 0.2, ..base };
        assert!(better_balance.better_than(&base));
        let smaller_cut = SolutionKey { cut: 39, ..base };
        assert!(smaller_cut.better_than(&base));
        // Feasibility dominates everything else.
        let tempting =
            SolutionKey { feasible_blocks: 2, infeasibility: 0.0, terminal_sum: 0, ..base };
        assert!(base.better_than(&tempting));
        assert!(!base.better_than(&base.clone()));
    }

    #[test]
    fn key_from_state_counts_feasible_blocks() {
        let mut b = HypergraphBuilder::new();
        let nodes: Vec<_> = (0..6).map(|i| b.add_node(format!("n{i}"), 10)).collect();
        for w in nodes.windows(2) {
            b.add_net(format!("e{}", w[0]), [w[0], w[1]]).unwrap();
        }
        let g = b.finish().unwrap();
        // blocks: {0,1}=20, {2,3}=20, {4,5}=20; S_MAX 25 → all feasible.
        let state = PartitionState::from_assignment(&g, vec![0, 0, 1, 1, 2, 2], 3);
        let e = evaluator(25, 10, 3, 0);
        let key = e.key(&state, Some(2));
        assert_eq!(key.feasible_blocks, 3);
        assert_eq!(key.class(), FeasibilityClass::Feasible);
        assert_eq!(key.cut, 2);
        assert_eq!(key.infeasibility, 0.0);
        // Tighter size budget → one violator per block of 20 > 15.
        let tight = evaluator(15, 10, 4, 0);
        let key2 = tight.key(&state, Some(2));
        assert_eq!(key2.feasible_blocks, 0);
        assert!(key2.infeasibility > 0.0);
    }

    #[test]
    fn ablated_evaluator_ranks_by_cut_only() {
        let config = FpartConfig { use_infeasibility_cost: false, ..FpartConfig::default() };
        let e = CostEvaluator::new(DeviceConstraints::new(10, 10), &config, 2, 4);
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 20);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let state = PartitionState::from_assignment(&g, vec![0, 1], 2);
        let key = e.key(&state, None);
        assert_eq!(key.infeasibility, 0.0);
        assert_eq!(key.cut, 1);
        assert_eq!(key.terminal_sum, 0);
    }
}
