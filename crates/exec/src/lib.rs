//! Deterministic parallel execution for the `esram-diag` workspace.
//!
//! Three subsystems run the same shape of work — a list of independent
//! items (faults to simulate, memories to diagnose, memories to build)
//! processed by a handful of worker threads whose merged output must be
//! **byte-identical to the sequential walk at every worker count**.
//! This crate centralises that discipline so no call site hand-rolls
//! its own `std::thread::scope` + chunk/merge bookkeeping:
//!
//! * [`ShardPlan`] carries the tunables: worker count
//!   ([`THREADS_ENV`] overridable), scheduling strategy
//!   ([`SCHED_ENV`] overridable) and the stealing block size.
//! * [`ShardStrategy::Cost`] (the default) splits items into contiguous
//!   chunks whose *estimated cost* is balanced: callers supply a
//!   per-item cost closure and the chunk boundaries are computed once
//!   from prefix sums — the partition is a pure function of the item
//!   costs and the shard count.
//! * [`ShardStrategy::Steal`] claims fixed-size blocks from a shared
//!   atomic counter. Which worker runs which block is scheduling noise;
//!   every block's results are written into a pre-sized slot, and the
//!   slots are merged in block order — so the output is byte-identical
//!   to sequential at any worker count and any interleaving.
//!
//! **Determinism argument.** For every strategy, the output order is
//! the item order: contiguous chunks concatenate in chunk order, and
//! stolen blocks merge in block-index order regardless of which thread
//! claimed them. The only requirement on callers is the one the
//! workspace's call sites already satisfy: each item's result must be a
//! pure function of the item (plus shared read-only state) — per-worker
//! scratch state (a reusable memory, a golden store) must not leak
//! observable effects between items.
//!
//! **Fault containment.** Worker panics are caught per shard/block and
//! all workers are joined before anything propagates, so two shards
//! panicking simultaneously can no longer escalate into a double-panic
//! process abort. The fallible entry points
//! ([`ShardPlan::try_map_slots`], [`ShardPlan::try_run_segments`],
//! [`ShardPlan::map_slots_isolated`]) surface failures as a structured
//! [`ExecError`] / [`ItemFault`] taxonomy, and a [`RunToken`] gives
//! callers cooperative cancellation and deadlines checked at item,
//! segment and block boundaries with clean teardown.
//!
//! Three supporting modules round out the crate:
//!
//! * [`env`] centralises the `ESRAM_*` knob parsing (warn-once fallback
//!   on malformed values) so every knob shares one discipline.
//! * [`calibrate`] prices work items: one committed [`CostCalibration`]
//!   table maps each [`CostDomain`] (fault sim, diagnosis, SoC build)
//!   to `fixed + unit · units` picosecond weights derived once from
//!   benchmark timings. Calibration moves shard *boundaries* only —
//!   results are byte-identical under any table.
//! * [`failpoint`] deterministically injects panics/errors/delays at
//!   named sites ([`FAILPOINTS_ENV`], e.g. `diag.segment@job=3:panic`),
//!   zero-cost when unset — the substrate for the chaos test suites.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod calibrate;
pub mod env;
pub mod error;
pub mod executor;
pub mod failpoint;
pub mod plan;
pub mod token;

pub use calibrate::{CalibrationMode, CostCalibration, CostDomain, DomainWeights, CALIB_ENV};
pub use env::{
    parse_spec_out, spec_out_from_env, EnvFallback, FaultSimKernel, FAULTSIM_KERNEL_ENV, SPEC_OUT_ENV,
};
pub use error::{panic_payload, ExecError, ItemFault};
pub use failpoint::{FailAction, Failpoint, FailpointGuard, FailpointSet, InjectedFailure, FAILPOINTS_ENV};
pub use plan::{
    block_ranges, cost_ranges, even_ranges, steal_schedule, ShardPlan, ShardStrategy, DEFAULT_BLOCK_SIZE,
    SCHED_ENV, THREADS_ENV,
};
pub use token::RunToken;
