//! Execution trace events: which improvement passes ran, what they
//! achieved, and how solutions were classified — the data behind the
//! paper's Figures 1 and 2. An [`EventSink`](crate::obs::EventSink)
//! consumes them; a `Vec<TraceEvent>` records them in memory.

use fpart_device::BlockUsage;

use crate::cost::{FeasibilityClass, SolutionKey};
use crate::initial::InitialMethod;

/// Which slot of the §3.1 improvement schedule an `Improve` call filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImproveKind {
    /// `Improve(R_k, P_k)` — the two lately partitioned blocks.
    LastPair,
    /// `Improve(P₀ … P_k, R_k)` — all blocks (only when `M ≤ N_small`).
    AllBlocks,
    /// `Improve(P_MIN_size, R_k)`.
    MinSize,
    /// `Improve(P_MIN_IO, R_k)`.
    MinIo,
    /// `Improve(P_MIN_F, R_k)` — the maximum-free-space block.
    MaxFree,
    /// The final `Improve(P_i, R_k)` sweep at `k = M`.
    FinalSweep,
    /// Boundary-only refinement of one uncoarsening level in the
    /// n-level multilevel flow (not part of the §3.1 schedule).
    Boundary,
}

impl ImproveKind {
    /// Every schedule slot, in schedule order.
    pub const ALL: [ImproveKind; 7] = [
        ImproveKind::LastPair,
        ImproveKind::AllBlocks,
        ImproveKind::MinSize,
        ImproveKind::MinIo,
        ImproveKind::MaxFree,
        ImproveKind::FinalSweep,
        ImproveKind::Boundary,
    ];

    /// Stable `snake_case` name, used by serialized metrics/traces and the
    /// CLI's `--trace` rendering. These strings are a compatibility
    /// surface — do not change them without bumping
    /// [`crate::obs::SCHEMA_VERSION`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ImproveKind::LastPair => "last_pair",
            ImproveKind::AllBlocks => "all_blocks",
            ImproveKind::MinSize => "min_size",
            ImproveKind::MinIo => "min_io",
            ImproveKind::MaxFree => "max_free",
            ImproveKind::FinalSweep => "final_sweep",
            ImproveKind::Boundary => "boundary",
        }
    }

    /// Dense index of this slot in [`ImproveKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded driver event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A peeling iteration began.
    IterationStart {
        /// 1-based iteration number (`k` in Algorithm 1).
        iteration: usize,
        /// Remainder size entering the iteration.
        remainder_size: u64,
        /// Remainder terminal count entering the iteration.
        remainder_terminals: usize,
    },
    /// The remainder was constructively bipartitioned.
    Bipartition {
        /// Iteration number.
        iteration: usize,
        /// Which constructive method won.
        method: InitialMethod,
        /// Size of the peeled block.
        peeled_size: u64,
        /// Terminal count of the peeled block.
        peeled_terminals: usize,
    },
    /// One `Improve(...)` call completed.
    Improve {
        /// Iteration number.
        iteration: usize,
        /// Schedule slot.
        kind: ImproveKind,
        /// Blocks involved.
        blocks: Vec<usize>,
        /// Key before the call.
        initial_key: SolutionKey,
        /// Key after the call.
        final_key: SolutionKey,
        /// FM passes executed.
        passes: usize,
        /// Moves retained.
        moves: usize,
        /// Stack restarts performed.
        restarts: usize,
    },
    /// A periodic progress heartbeat, emitted by long-running phases
    /// when the observer's [`Heartbeat`](crate::obs::Heartbeat) is
    /// armed (the CLI's `--progress`). Throttled; off by default.
    Progress {
        /// Which phase is running.
        phase: crate::obs::SpanKind,
        /// Hierarchy level of the phase (uncoarsen level, peeling
        /// iteration, …).
        level: usize,
        /// FM passes executed so far by this run.
        passes: u64,
        /// Moves retained so far by this run.
        moves: u64,
        /// Best cut known so far (`None` when no solution is built yet).
        cut: Option<usize>,
        /// Wall time since the first heartbeat, in milliseconds.
        elapsed_ms: u64,
        /// Remaining wall-clock budget, in milliseconds (`None` when
        /// the run has no deadline).
        deadline_remaining_ms: Option<u64>,
        /// Remaining pass budget (`None` when unbounded).
        passes_remaining: Option<u64>,
    },
    /// End-of-iteration solution snapshot (Figure 2 data: one occupancy
    /// point per block).
    Solution {
        /// Iteration number.
        iteration: usize,
        /// Feasibility classification of the snapshot.
        class: FeasibilityClass,
        /// Per-block occupancy points.
        blocks: Vec<BlockUsage>,
    },
}
