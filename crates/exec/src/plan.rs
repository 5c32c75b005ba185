//! Shard plans and the pure partition functions they derive.
//!
//! A [`ShardPlan`] is one value, the worker count. Libraries take it
//! as an argument; only entry points (the CLI, bench harnesses and
//! tests) build one from [`THREADS_ENV`], by reading the variable
//! themselves and passing its raw value to
//! [`ShardPlan::from_env_values`]. The partition functions
//! ([`even_ranges`], [`cost_ranges`]) are pure functions of their
//! inputs, exposed so tests and benches can reason about the exact
//! shard geometry a plan will use.

use std::fmt;
use std::ops::Range;

use crate::env::{self, EnvFallback};

/// Environment variable an entry point reads to pick the worker count
/// (see [`ShardPlan::from_env_values`]). Values that are not a positive
/// integer fall back to the auto-detected parallelism.
pub const THREADS_ENV: &str = "ESRAM_DIAG_THREADS";

/// How a plan assigns work items to its workers. There is one
/// strategy: contiguous chunks of balanced estimated cost, with
/// boundaries computed once from prefix sums of the caller's per-item
/// costs ([`cost_ranges`]).
///
/// The type exists only because the benchmark in `perfbench/` still
/// names [`ShardStrategy::Cost`]; nothing else selects a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Contiguous cost-balanced chunks.
    #[default]
    Cost,
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cost")
    }
}

/// How a work list is split across worker threads.
///
/// `threads == 1` is the sequential case: the executor runs the whole
/// list inline on one worker state, with no thread spawned — so the
/// sequential path stays exactly the 1-thread instance of the sharded
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
}

impl ShardPlan {
    /// The sequential plan (one worker, no threads spawned).
    pub fn sequential() -> Self {
        ShardPlan::with_threads(1)
    }

    /// A plan with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ShardPlan {
            threads: threads.max(1),
        }
    }

    /// The plan an entry point builds from [`THREADS_ENV`]: `threads` is
    /// the variable's raw value, `None` when unset. A positive integer
    /// is the worker count; otherwise the plan is
    /// [`ShardPlan::default`].
    ///
    /// A value that is set but malformed (`0`, a garbled number) falls
    /// back to the same default an unset one gets, but loudly: a
    /// warning naming the variable, the rejected value and the fallback
    /// is printed to stderr once per process, and the report is
    /// returned so tests can assert it. A silently ignored typo in a CI
    /// job would otherwise test the wrong configuration while claiming
    /// to test the right one.
    pub fn from_env_values(threads: Option<&str>) -> (Self, Option<EnvFallback>) {
        let (parsed, fallback) = env::parse_knob(
            THREADS_ENV,
            threads,
            |raw| raw.trim().parse::<usize>().ok().filter(|&t| t >= 1),
            || format!("auto-detected parallelism ({})", ShardPlan::default().threads),
        );
        if let Some(fallback) = &fallback {
            fallback.warn_once();
        }
        (
            parsed.map_or_else(ShardPlan::default, ShardPlan::with_threads),
            fallback,
        )
    }

    /// Returns the plan unchanged: [`ShardStrategy::Cost`] is the only
    /// strategy. Exists only for the benchmark in `perfbench/`.
    pub fn with_strategy(self, _strategy: ShardStrategy) -> Self {
        self
    }

    /// Number of worker threads the plan asks for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Always [`ShardStrategy::Cost`]. Exists only for the benchmark in
    /// `perfbench/`, which echoes it in its run configuration.
    pub fn strategy(&self) -> ShardStrategy {
        ShardStrategy::Cost
    }

    /// Always 16. No scheduler uses a block size; the benchmark in
    /// `perfbench/` echoes this value in its run configuration, and
    /// 16 keeps that echo unchanged.
    pub fn block_size(&self) -> usize {
        16
    }

    /// Number of shards actually used for `items` work items (never more
    /// shards than items, never zero — the degenerate `items == 0` case
    /// reports one shard, and the executors return before spawning on
    /// empty input).
    pub fn shard_count(&self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }

    /// Contiguous chunk size that splits `items` into
    /// [`ShardPlan::shard_count`] balanced shards (1 for the degenerate
    /// empty list, which the executors never reach a spawn with).
    pub fn chunk_size(&self, items: usize) -> usize {
        items.div_ceil(self.shard_count(items)).max(1)
    }
}

impl Default for ShardPlan {
    /// One worker per available core (1 if unknown). Reads no
    /// environment variable.
    fn default() -> Self {
        ShardPlan::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} thread(s)", self.threads)
    }
}

/// Contiguous equal-count partition of `items` indices into at most
/// `shards` ranges (fewer when there are fewer items than shards).
/// Concatenating the ranges in order reproduces `0..items` exactly.
///
/// Degenerate inputs never panic: an empty universe returns no ranges,
/// `shards == 0` is treated as 1, and more shards than items (1 item ×
/// 32 shards) produces one single-item range per item.
pub fn even_ranges(items: usize, shards: usize) -> Vec<Range<usize>> {
    if items == 0 {
        // Early return: nothing to partition. Callers iterating the
        // result spawn no workers, matching `ShardPlan::shard_count`'s
        // "one never-spawned shard" story for the empty universe.
        return Vec::new();
    }
    let shards = shards.clamp(1, items);
    let chunk = items.div_ceil(shards);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    while start < items {
        let end = (start + chunk).min(items);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Contiguous cost-balanced partition of `costs.len()` indices into at
/// most `shards` ranges: shard `k` ends at the first index where the
/// cost prefix sum reaches `(k + 1)/shards` of the total. A pure
/// function of `(costs, shards)` — no worker count or timing enters the
/// boundary computation. All-zero costs fall back to [`even_ranges`].
/// Concatenating the ranges in order reproduces `0..costs.len()`
/// exactly; a range may be empty when one item dominates the total.
///
/// Degenerate inputs never panic: an empty cost list returns no ranges
/// (not a division by a zero total), all-zero costs fall back to the
/// even split before the prefix-sum arithmetic runs, and more shards
/// than items clamps to one shard per item.
pub fn cost_ranges(costs: &[u64], shards: usize) -> Vec<Range<usize>> {
    if costs.is_empty() {
        // Early return: guards the `total == 0` division fallback and
        // the trailing `start..len` push below, both of which assume at
        // least one item.
        return Vec::new();
    }
    let shards = shards.clamp(1, costs.len());
    let total: u128 = costs.iter().map(|&cost| u128::from(cost)).sum();
    if total == 0 || shards == 1 {
        return even_ranges(costs.len(), shards);
    }
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut prefix: u128 = 0;
    for (index, &cost) in costs.iter().enumerate() {
        prefix += u128::from(cost);
        if ranges.len() + 1 < shards && prefix * shards as u128 >= (ranges.len() as u128 + 1) * total {
            ranges.push(start..index + 1);
            start = index + 1;
        }
    }
    ranges.push(start..costs.len());
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plans_clamp_and_report_threads() {
        assert_eq!(ShardPlan::sequential().threads(), 1);
        assert_eq!(ShardPlan::with_threads(0).threads(), 1);
        assert_eq!(ShardPlan::with_threads(8).threads(), 8);
        assert!(ShardPlan::with_threads(3).to_string().contains("3 thread"));
    }

    #[test]
    fn shard_geometry_is_balanced_and_covers_all_items() {
        let plan = ShardPlan::with_threads(4);
        assert_eq!(plan.shard_count(100), 4);
        assert_eq!(plan.chunk_size(100), 25);
        // Fewer items than workers: one shard per item.
        assert_eq!(plan.shard_count(3), 3);
        assert_eq!(plan.chunk_size(3), 1);
        // Uneven split still covers everything in shard_count chunks.
        assert_eq!(plan.chunk_size(10), 3);
        assert!(plan.chunk_size(10) * plan.shard_count(10) >= 10);
        // Degenerate empty universe: one (never-spawned) shard.
        assert_eq!(plan.shard_count(0), 1);
        assert_eq!(plan.chunk_size(0), 1);
    }

    #[test]
    fn default_plan_has_at_least_one_thread() {
        assert!(ShardPlan::default().threads() >= 1);
    }

    fn assert_covers(ranges: &[Range<usize>], items: usize) {
        let mut next = 0;
        for range in ranges {
            assert_eq!(range.start, next, "ranges must be contiguous");
            assert!(range.end >= range.start);
            next = range.end;
        }
        assert_eq!(next, items, "ranges must cover every item");
    }

    #[test]
    fn even_ranges_cover_and_balance() {
        assert!(even_ranges(0, 4).is_empty());
        let ranges = even_ranges(10, 4);
        assert_covers(&ranges, 10);
        assert!(ranges.iter().all(|r| r.len() <= 3));
        assert_eq!(even_ranges(3, 8).len(), 3);
    }

    #[test]
    fn cost_ranges_balance_heterogeneous_costs() {
        // One expensive tail item per shard's worth of cheap items.
        let costs = [1, 1, 1, 1, 100, 100, 100, 100];
        let ranges = cost_ranges(&costs, 4);
        assert_covers(&ranges, costs.len());
        // The cheap prefix lands in one shard; each expensive item gets
        // (roughly) its own.
        let shard_costs: Vec<u128> = ranges
            .iter()
            .map(|r| r.clone().map(|i| u128::from(costs[i])).sum())
            .collect();
        let max = shard_costs.iter().copied().max().unwrap();
        assert!(
            max <= 104 + 100,
            "cost-weighted bottleneck {max} must stay near the ideal 101"
        );
        // Even chunking would put two expensive items in one shard.
        let even_bottleneck: u128 = even_ranges(costs.len(), 4)
            .iter()
            .map(|r| r.clone().map(|i| u128::from(costs[i])).sum())
            .max()
            .unwrap();
        assert_eq!(even_bottleneck, 200);
    }

    #[test]
    fn cost_ranges_are_pure_and_degenerate_safely() {
        assert!(cost_ranges(&[], 4).is_empty());
        // All-zero costs fall back to the even split.
        assert_eq!(cost_ranges(&[0, 0, 0, 0], 2), even_ranges(4, 2));
        // A dominating item may leave trailing shards empty but still
        // covers everything.
        let ranges = cost_ranges(&[1000, 1, 1], 3);
        assert_covers(&ranges, 3);
        // Determinism: same inputs, same boundaries.
        assert_eq!(
            cost_ranges(&[3, 1, 4, 1, 5, 9, 2, 6], 3),
            cost_ranges(&[3, 1, 4, 1, 5, 9, 2, 6], 3)
        );
    }

    #[test]
    fn env_knobs_round_trip_through_parse() {
        // A plan's thread count, written as the knob's value, parses
        // back to the same plan.
        for threads in [1, 2, 7, 32] {
            let plan = ShardPlan::with_threads(threads);
            let (parsed, fallback) = ShardPlan::from_env_values(Some(&plan.threads().to_string()));
            assert_eq!(parsed, plan);
            assert!(fallback.is_none());
        }
    }

    #[test]
    fn well_formed_env_values_parse_without_fallbacks() {
        let (plan, fallback) = ShardPlan::from_env_values(Some(" 7 "));
        assert!(fallback.is_none());
        assert_eq!(plan.threads(), 7);

        // An unset knob is not a fallback — nothing was rejected.
        let (plan, fallback) = ShardPlan::from_env_values(None);
        assert!(fallback.is_none());
        assert_eq!(plan, ShardPlan::default());
    }

    #[test]
    fn malformed_thread_count_falls_back_loudly() {
        for bad in ["0", "garbage", "-3", "1.5", ""] {
            let (plan, fallback) = ShardPlan::from_env_values(Some(bad));
            assert_eq!(
                plan,
                ShardPlan::default(),
                "{bad:?} must fall back to the default plan"
            );
            let fallback = fallback.unwrap_or_else(|| panic!("{bad:?} must be reported"));
            assert_eq!(fallback.variable, THREADS_ENV);
            assert_eq!(fallback.rejected, bad);
            assert!(fallback.fallback.contains("auto-detected"));
        }
    }

    #[test]
    fn partitions_handle_degenerate_inputs_without_panicking() {
        // Empty universe.
        assert!(even_ranges(0, 32).is_empty());
        assert!(cost_ranges(&[], 32).is_empty());
        // One item spread over 32 shards collapses to one range.
        assert_eq!(even_ranges(1, 32), vec![0..1]);
        assert_eq!(cost_ranges(&[5], 32), vec![0..1]);
        // All-zero costs at more shards than the even fallback needs.
        let ranges = cost_ranges(&[0, 0, 0], 32);
        assert_covers(&ranges, 3);
        // Zero shards are treated as one.
        assert_eq!(even_ranges(4, 0), vec![0..4]);
    }
}
