//! Algorithm configuration: every tunable named in the paper plus
//! ablation switches and the paper's §5 future-work options.

/// What a cell-move gain measures (paper §3.7 and §5).
///
/// The paper uses the classical cut-net gain and names the I/O-pin gain
/// as future work: "to incorporate the real gain in I/O pin number of a
/// block instead of the gain in number of cut nets into the cell gain of
/// the FM-algorithm. This may more quickly direct the search towards
/// finding solutions respecting the I/O pin constraint."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GainObjective {
    /// Classical FM: +1 per net leaving the cut, −1 per net entering it.
    #[default]
    CutNets,
    /// Future-work variant: the reduction in the two touched blocks'
    /// combined IOB counts (`T_from + T_to`). Terminal-attached nets and
    /// multi-block spans are accounted exactly.
    IoPins,
}

/// Configuration of the FPART partitioner.
///
/// Defaults are the fixed parameter values reported in §4 of the paper:
/// `σ₁ = σ₂ = 0.5`, `N_small = 15`, `λ^S = 0.4`, `λ^T = 0.6`, `λ^R = 0.1`,
/// `ε*_max = ε²_max = 1.05`, `ε*_min = 0.3`, `ε²_min = 0.95`,
/// `D_stack = 4`, 2-level gains.
///
/// The `use_*` flags are ablation switches (all `true` by default); they
/// let the benchmark harness measure how much each of the paper's devices
/// contributes to solution quality.
///
/// # Example
///
/// ```
/// use fpart_core::FpartConfig;
///
/// let config = FpartConfig::default();
/// assert_eq!(config.n_small, 15);
/// assert_eq!(config.stack_depth, 4);
///
/// let ablated = FpartConfig { use_solution_stacks: false, ..FpartConfig::default() };
/// assert!(!ablated.use_solution_stacks);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpartConfig {
    /// Weight `λ^S` of the size component of the infeasibility distance.
    pub lambda_s: f64,
    /// Weight `λ^T` of the I/O component of the infeasibility distance.
    pub lambda_t: f64,
    /// Weight `λ^R` of the size-deviation penalty `d_k^R`.
    pub lambda_r: f64,
    /// Weight `σ₁` of the size term in the free-space estimate.
    pub sigma1: f64,
    /// Weight `σ₂` of the I/O term in the free-space estimate.
    pub sigma2: f64,
    /// Threshold `N_small`: the all-block improvement pass and the final
    /// pairwise sweep run only when `M ≤ N_small`.
    pub n_small: usize,
    /// Upper feasible-move multiplier: a non-remainder block may grow to
    /// `ε_max · S_MAX` (while `k ≤ M`; above `M` growth stops at `S_MAX`).
    pub eps_max: f64,
    /// Lower feasible-move multiplier for **two-block** passes: a
    /// non-remainder block may not shrink below `ε²_min · S_MAX`
    /// (strict, to bias moves *from* the remainder).
    pub eps_min_two: f64,
    /// Lower feasible-move multiplier for **multi-block** passes
    /// (`ε*_min`, loose).
    pub eps_min_multi: f64,
    /// Depth `D_stack` of each of the two solution stacks.
    pub stack_depth: usize,
    /// Maximum FM passes in one pass series before giving up on
    /// improvement.
    pub max_passes: usize,
    /// Number of gain levels used for tie-breaking (1 = plain FM,
    /// 2 = Krishnamurthy second-level gains — the paper's choice; up to
    /// 4 levels are supported for the higher-level-gain experiments the
    /// paper discusses via \[7\]).
    pub gain_levels: u8,
    /// What the first-level gain measures (paper §5 future work offers
    /// [`GainObjective::IoPins`]; the paper's evaluation uses
    /// [`GainObjective::CutNets`]).
    pub gain_objective: GainObjective,
    /// Paper §5 future work: "reduce time wasted in the infeasible region
    /// by stopping the FM pass if current solution moves farther away
    /// from the feasible region". When set, a pass ends after this many
    /// consecutive moves without improving on the pass-best key.
    pub early_stop_patience: Option<usize>,
    /// Ablation: use the constructive initial bipartition of §3.2
    /// (greedy dual-seed merge vs ratio-cut sweep, best-of). When
    /// `false`, the initial peel is a random size-balanced subset — the
    /// paper observes that "randomly created initial partition may lead
    /// to poor results", and this flag lets the harness demonstrate it.
    pub use_constructive_initial: bool,
    /// Ablation: explore restarts from the dual solution stacks (§3.6).
    pub use_solution_stacks: bool,
    /// Ablation: use the infeasibility-distance cost (§3.3); when `false`
    /// solutions are ranked by cut size alone, as in the k-way.x cost
    /// function the paper improves upon.
    pub use_infeasibility_cost: bool,
    /// Ablation: include the external-I/O balancing factor `d_k^E` (§3.4).
    pub use_external_balance: bool,
    /// Ablation: run the extra improvement schedule of §3.1 (all-block
    /// pass, remainder vs min-size/min-IO/max-free-space, final pairwise
    /// sweep). When `false` only the two-lately-partitioned-blocks pass
    /// runs, which is the k-way.x schedule.
    pub use_improvement_schedule: bool,
    /// Ablation: asymmetric ε move regions (§3.5). When `false`, the
    /// classical symmetric FM balance window `±5 %` applies to every
    /// block including the remainder.
    pub use_move_regions: bool,
    /// When an improvement pass leaves a non-remainder block violating
    /// the constraints (it absorbed the remainder, say), re-designate the
    /// violator as the remainder and keep splitting. The paper defines
    /// the remainder as *the violating subset*, so this is on for FPART;
    /// the greedy k-way.x baseline stops as soon as the original
    /// remainder fits, reporting whatever feasibility it achieved.
    pub repair_violators: bool,
    /// Safety valve: the driver aborts after `M · max_iterations_factor +
    /// 32` peeling iterations (a correct run needs at most a few more
    /// than `M`).
    pub max_iterations_factor: usize,
    /// Seed of the randomized choices: the random initial peel
    /// (`use_constructive_initial: false`), the FM bipartitioner's
    /// initial split ([`crate::fm`]) and the direct k-way baseline's
    /// seeded clusters ([`crate::direct`]). The default constructive
    /// flow — flat FPART, the V-cycle and ECO repair — never reads it,
    /// so the solution memo ([`crate::memo`]) leaves it out of its key
    /// there.
    pub seed: u64,
    /// Execution budget (deadline, pass/move caps, cancel token) checked
    /// cooperatively at pass and peel boundaries. The default is
    /// unlimited and costs one branch per boundary.
    pub budget: crate::budget::RunBudget,
    /// Deterministic fault-injection schedule for robustness testing.
    /// `None` (the default) compiles down to a no-op branch.
    pub fault_plan: Option<crate::budget::FaultPlan>,
}

impl Default for FpartConfig {
    fn default() -> Self {
        FpartConfig {
            lambda_s: 0.4,
            lambda_t: 0.6,
            lambda_r: 0.1,
            sigma1: 0.5,
            sigma2: 0.5,
            n_small: 15,
            eps_max: 1.05,
            eps_min_two: 0.95,
            eps_min_multi: 0.3,
            stack_depth: 4,
            max_passes: 8,
            gain_levels: 2,
            gain_objective: GainObjective::CutNets,
            early_stop_patience: None,
            use_constructive_initial: true,
            use_solution_stacks: true,
            use_infeasibility_cost: true,
            use_external_balance: true,
            use_improvement_schedule: true,
            use_move_regions: true,
            repair_violators: true,
            max_iterations_factor: 4,
            seed: 0xF9A7,
            budget: crate::budget::RunBudget::default(),
            fault_plan: None,
        }
    }
}

impl FpartConfig {
    /// Returns the paper's fixed parameters (same as [`Default`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// A configuration with every FPART-specific device disabled — the
    /// closest match to the plain recursive-FM `(p,p)` baseline while
    /// still using this crate's engine: one-level gains, no solution
    /// stacks, no improvement schedule beyond the last-pair pass, and
    /// solutions ranked by `(feasible blocks, cut)` only — the "net
    /// number" cost of k-way.x. The move regions stay on: the recursive
    /// paradigm itself needs feasible peeled blocks, in k-way.x as here.
    #[must_use]
    pub fn classical() -> Self {
        FpartConfig {
            gain_levels: 1,
            use_solution_stacks: false,
            use_infeasibility_cost: false,
            use_external_balance: false,
            use_improvement_schedule: false,
            repair_violators: false,
            ..Self::default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if weights are negative, `ε` windows are inverted, the stack
    /// depth is zero while stacks are enabled, or `gain_levels` is not 1
    /// or 2.
    pub fn validate(&self) {
        assert!(self.lambda_s >= 0.0 && self.lambda_t >= 0.0 && self.lambda_r >= 0.0);
        assert!(self.sigma1 >= 0.0 && self.sigma2 >= 0.0);
        assert!(self.eps_max >= 1.0, "eps_max must allow at least S_MAX");
        assert!(
            (0.0..=1.0).contains(&self.eps_min_two) && (0.0..=1.0).contains(&self.eps_min_multi),
            "eps_min multipliers must be in [0, 1]"
        );
        assert!(
            !self.use_solution_stacks || self.stack_depth > 0,
            "stack depth must be positive when stacks are enabled"
        );
        assert!(self.max_passes > 0, "need at least one pass");
        assert!((1..=4).contains(&self.gain_levels), "gain levels must be between 1 and 4");
        assert!(
            self.early_stop_patience != Some(0),
            "an early-stop patience of zero would end every pass at once"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_values() {
        let c = FpartConfig::default();
        assert_eq!(c.lambda_s, 0.4);
        assert_eq!(c.lambda_t, 0.6);
        assert_eq!(c.lambda_r, 0.1);
        assert_eq!(c.sigma1, 0.5);
        assert_eq!(c.sigma2, 0.5);
        assert_eq!(c.n_small, 15);
        assert_eq!(c.eps_max, 1.05);
        assert_eq!(c.eps_min_two, 0.95);
        assert_eq!(c.eps_min_multi, 0.3);
        assert_eq!(c.stack_depth, 4);
        assert_eq!(c.gain_levels, 2);
        c.validate();
    }

    #[test]
    fn classical_disables_fpart_devices() {
        let c = FpartConfig::classical();
        assert!(!c.use_solution_stacks);
        assert!(!c.use_infeasibility_cost);
        assert!(!c.use_improvement_schedule);
        assert_eq!(c.gain_levels, 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn validate_rejects_bad_gain_levels() {
        FpartConfig { gain_levels: 5, ..FpartConfig::default() }.validate();
    }

    #[test]
    fn higher_gain_levels_are_accepted() {
        FpartConfig { gain_levels: 3, ..FpartConfig::default() }.validate();
        FpartConfig { gain_levels: 4, ..FpartConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "stack depth")]
    fn validate_rejects_zero_stack_depth() {
        FpartConfig { stack_depth: 0, ..FpartConfig::default() }.validate();
    }
}
