//! Deterministic parallel execution for the `esram-diag` workspace.
//!
//! Three subsystems run the same shape of work — a list of independent
//! items (faults to simulate, memories to diagnose, memories to build)
//! processed by a handful of worker threads whose merged output must be
//! **byte-identical to the sequential walk at every worker count**.
//! This crate centralises that discipline so no call site hand-rolls
//! its own `std::thread::scope` + chunk/merge bookkeeping:
//!
//! * [`ShardPlan`] is the one setting: the worker count. Libraries
//!   take it as an argument; entry points build it, from
//!   [`THREADS_ENV`] if they choose ([`ShardPlan::from_env_values`]).
//! * Work is split into contiguous chunks whose *estimated cost* is
//!   balanced: callers supply a per-item cost closure and the chunk
//!   boundaries are computed once from prefix sums ([`cost_ranges`]) —
//!   the partition is a pure function of the item costs and the shard
//!   count.
//!
//! **Determinism argument.** The output order is the item order:
//! contiguous chunks concatenate in chunk order. The only requirement
//! on callers is the one the workspace's call sites already satisfy:
//! each item's result must be a pure function of the item (plus shared
//! read-only state) — per-worker scratch state (a reusable memory, a
//! golden store) must not leak observable effects between items.
//!
//! **Fault containment.** Worker panics are caught per shard and
//! all workers are joined before anything propagates, so two shards
//! panicking simultaneously can no longer escalate into a double-panic
//! process abort. The fallible entry points
//! ([`ShardPlan::try_run_segments`], [`ShardPlan::map_slots_isolated`])
//! surface failures as a structured [`ExecError`] / [`ItemFault`]
//! taxonomy, and a [`RunToken`] gives
//! callers cooperative cancellation and deadlines checked at item and
//! segment boundaries with clean teardown.
//!
//! Three supporting modules round out the crate:
//!
//! * [`env`](mod@env) centralises the `ESRAM_*` knob parsing
//!   (warn-once fallback on malformed values) so every knob shares one
//!   discipline; it reads no variable itself.
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
pub use env::EnvFallback;
pub use error::{panic_payload, ExecError, ItemFault};
pub use failpoint::{FailAction, Failpoint, FailpointGuard, FailpointSet, InjectedFailure, FAILPOINTS_ENV};
pub use plan::{cost_ranges, even_ranges, ShardPlan, ShardStrategy, THREADS_ENV};
pub use token::RunToken;
