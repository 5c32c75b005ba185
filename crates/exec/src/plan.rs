//! Shard plans and the pure partition functions they derive.
//!
//! A [`ShardPlan`] captures the executor's tunables — worker count,
//! scheduling strategy and the stealing block size — with defaults
//! taken from the machine's available parallelism and the
//! [`THREADS_ENV`] / [`SCHED_ENV`] environment variables. The
//! partition functions ([`even_ranges`], [`cost_ranges`],
//! [`block_ranges`], [`steal_schedule`]) are pure functions of their
//! inputs, exposed so tests and benches can reason about the exact
//! shard geometry a plan will use.

use std::fmt;
use std::ops::Range;

use crate::env::{self, EnvFallback};

/// Environment variable overriding the default worker count used by
/// [`ShardPlan::from_env`]. Values that are not a positive integer fall
/// back to the auto-detected parallelism.
pub const THREADS_ENV: &str = "ESRAM_DIAG_THREADS";

/// Environment variable overriding the default scheduling strategy used
/// by [`ShardPlan::from_env`]: `cost` or `steal` (case-insensitive). Unrecognised values fall back to the default
/// ([`ShardStrategy::Cost`]).
pub const SCHED_ENV: &str = "ESRAM_DIAG_SCHED";

/// Default block size for [`ShardStrategy::Steal`]: small enough that a
/// run of expensive items cannot hide inside one block, large enough
/// that the shared claim counter stays off the hot path.
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// How a plan assigns work items to its workers.
///
/// Every strategy produces output byte-identical to the sequential
/// walk; they differ only in how evenly the *wall-clock* load spreads
/// when item costs are heterogeneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Contiguous chunks of balanced estimated *cost*: boundaries are
    /// computed once from prefix sums of the caller's per-item costs,
    /// so the partition is a pure function of the item list and the
    /// shard count. Uniform costs give near-equal item counts.
    #[default]
    Cost,
    /// Deterministic block-stealing: fixed-size blocks claimed from a
    /// shared atomic counter, results written into per-block slots and
    /// merged in block order. Adapts to cost-model error at the price
    /// of one atomic claim per block.
    Steal,
}

impl ShardStrategy {
    /// Parses an environment-variable value (`cost` / `steal`,
    /// case-insensitive, surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "cost" => Some(ShardStrategy::Cost),
            "steal" => Some(ShardStrategy::Steal),
            _ => None,
        }
    }

    /// All strategies, for determinism sweeps.
    pub fn all() -> [ShardStrategy; 2] {
        [ShardStrategy::Cost, ShardStrategy::Steal]
    }
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardStrategy::Cost => write!(f, "cost"),
            ShardStrategy::Steal => write!(f, "steal"),
        }
    }
}

/// How a work list is split across worker threads.
///
/// `threads == 1` is the sequential case: the executor runs the whole
/// list inline on one worker state, with no thread spawned — so the
/// sequential path stays exactly the 1-thread instance of the sharded
/// one, for every strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
    strategy: ShardStrategy,
    block_size: usize,
}

impl ShardPlan {
    /// The sequential plan (one worker, no threads spawned).
    pub fn sequential() -> Self {
        ShardPlan::with_threads(1)
    }

    /// A plan with an explicit worker count (clamped to at least 1) and
    /// the default strategy and block size.
    pub fn with_threads(threads: usize) -> Self {
        ShardPlan {
            threads: threads.max(1),
            strategy: ShardStrategy::default(),
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }

    /// The default plan: [`THREADS_ENV`] if set to a positive integer
    /// (otherwise the machine's available parallelism, 1 if unknown),
    /// with the strategy taken from [`SCHED_ENV`] if set to a
    /// recognised name.
    ///
    /// A knob that is set but malformed (`ESRAM_DIAG_THREADS=0`, a
    /// garbled number, a typo'd strategy name) falls back to the same
    /// default an unset knob gets — but loudly: a warning naming the
    /// variable, the rejected value and the fallback is printed to
    /// stderr, once per variable per process. A silently ignored typo
    /// in a CI matrix would otherwise test the wrong configuration
    /// while claiming to test the right one.
    pub fn from_env() -> Self {
        let (plan, fallbacks) = Self::from_env_values(
            std::env::var(THREADS_ENV).ok().as_deref(),
            std::env::var(SCHED_ENV).ok().as_deref(),
        );
        for fallback in &fallbacks {
            fallback.warn_once();
        }
        plan
    }

    /// Pure core of [`ShardPlan::from_env`]: builds the plan from the
    /// given raw knob values (`None` = unset) and reports a
    /// [`EnvFallback`] for every knob that was set but malformed.
    /// Exposed so the malformed cases are unit-testable without
    /// mutating process-global environment state.
    pub fn from_env_values(threads: Option<&str>, sched: Option<&str>) -> (Self, Vec<EnvFallback>) {
        let mut fallbacks = Vec::new();
        let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (parsed_threads, report) = env::parse_knob(
            THREADS_ENV,
            threads,
            |raw| raw.trim().parse::<usize>().ok().filter(|&t| t >= 1),
            || format!("auto-detected parallelism ({default_threads})"),
        );
        fallbacks.extend(report);
        let mut plan = ShardPlan::with_threads(parsed_threads.unwrap_or(default_threads));
        let (strategy, report) = env::parse_knob(SCHED_ENV, sched, ShardStrategy::parse, || {
            format!("default strategy ({})", ShardStrategy::default())
        });
        fallbacks.extend(report);
        if let Some(strategy) = strategy {
            plan = plan.with_strategy(strategy);
        }
        (plan, fallbacks)
    }

    /// Selects the scheduling strategy.
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the block size used by [`ShardStrategy::Steal`] (clamped
    /// to at least 1; ignored by the contiguous strategies).
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size.max(1);
        self
    }

    /// Number of worker threads the plan asks for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scheduling strategy.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The stealing block size.
    pub fn block_size(&self) -> usize {
        self.block_size
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
    fn default() -> Self {
        ShardPlan::from_env()
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} thread(s), {} scheduling", self.threads, self.strategy)
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

/// Fixed-size block partition of `items` indices: every block but the
/// last holds exactly `block_size` indices. Concatenating the blocks in
/// order reproduces `0..items` exactly.
pub fn block_ranges(items: usize, block_size: usize) -> Vec<Range<usize>> {
    let block_size = block_size.max(1);
    let mut ranges = Vec::with_capacity(items.div_ceil(block_size));
    let mut start = 0;
    while start < items {
        let end = (start + block_size).min(items);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Deterministic *model* of block-stealing at `workers` workers: blocks
/// are assigned in index order, each to the worker with the least
/// accumulated cost so far (ties to the lowest worker index) — i.e. the
/// next free worker claims the next block. Returns each worker's block
/// list.
///
/// This models the wall-clock assignment a perfectly cost-predicted run
/// would make; the live executor's actual claim order depends on
/// timing, but its *output* never does. Benches use this to compute the
/// critical path (the most loaded worker) a strategy would pay on a
/// `workers`-core machine.
///
/// Degenerate inputs never panic: an empty cost list returns one empty
/// block list per worker, `workers == 0` is treated as 1 (so the
/// least-loaded lookup below always has a candidate and needs no
/// unwrap), and all-zero costs degrade to round-robin-by-tie-break
/// (ties go to the lowest worker index).
pub fn steal_schedule(costs: &[u64], block_size: usize, workers: usize) -> Vec<Vec<Range<usize>>> {
    let workers = workers.max(1);
    let mut assignments: Vec<Vec<Range<usize>>> = vec![Vec::new(); workers];
    if costs.is_empty() {
        // Early return: no blocks to assign; every worker idles.
        return assignments;
    }
    let mut loads: Vec<u128> = vec![0; workers];
    for block in block_ranges(costs.len(), block_size) {
        let next = loads
            .iter()
            .enumerate()
            .min_by_key(|&(index, &load)| (load, index))
            .map(|(index, _)| index)
            .expect("workers >= 1 so a least-loaded worker always exists");
        loads[next] += block.clone().map(|i| u128::from(costs[i])).sum::<u128>();
        assignments[next].push(block);
    }
    assignments
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
        assert_eq!(ShardPlan::with_threads(2).with_block_size(0).block_size(), 1);
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

    #[test]
    fn strategy_parses_case_insensitively() {
        assert_eq!(ShardStrategy::parse(" Cost "), Some(ShardStrategy::Cost));
        assert_eq!(ShardStrategy::parse("COST"), Some(ShardStrategy::Cost));
        assert_eq!(ShardStrategy::parse("steal"), Some(ShardStrategy::Steal));
        assert_eq!(ShardStrategy::parse("work-stealing"), None);
        // No `even` strategy: cost partitioning over uniform costs
        // already balances item counts.
        assert_eq!(ShardStrategy::parse("even"), None);
        for strategy in ShardStrategy::all() {
            assert_eq!(ShardStrategy::parse(&strategy.to_string()), Some(strategy));
        }
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
    fn block_ranges_are_fixed_size() {
        assert!(block_ranges(0, 4).is_empty());
        let ranges = block_ranges(10, 4);
        assert_covers(&ranges, 10);
        assert_eq!(ranges.len(), 3);
        assert!(ranges[..2].iter().all(|r| r.len() == 4));
        assert_eq!(ranges[2].len(), 2);
    }

    #[test]
    fn steal_schedule_assigns_blocks_to_the_least_loaded_worker() {
        // Blocks of one item; costs force the model to interleave.
        let costs = [10, 1, 1, 1];
        let schedule = steal_schedule(&costs, 1, 2);
        assert_eq!(schedule.len(), 2);
        // Worker 0 takes the expensive block; worker 1 absorbs the rest.
        assert_eq!(schedule[0], vec![0..1]);
        assert_eq!(schedule[1], vec![1..2, 2..3, 3..4]);
        // Every block appears exactly once across workers.
        let mut all: Vec<Range<usize>> = schedule.into_iter().flatten().collect();
        all.sort_by_key(|r| r.start);
        assert_covers(&all, costs.len());
    }

    #[test]
    fn env_knobs_round_trip_through_parse() {
        // `from_env` must at minimum produce a valid plan; the exact
        // values depend on the ambient environment (the CI matrix sets
        // both knobs), so only invariants are asserted here.
        let plan = ShardPlan::from_env();
        assert!(plan.threads() >= 1);
        assert!(plan.block_size() >= 1);
    }

    #[test]
    fn well_formed_env_values_parse_without_fallbacks() {
        let (plan, fallbacks) = ShardPlan::from_env_values(Some("7"), Some(" Steal "));
        assert!(fallbacks.is_empty());
        assert_eq!(plan.threads(), 7);
        assert_eq!(plan.strategy(), ShardStrategy::Steal);

        // Unset knobs are not fallbacks — nothing was rejected.
        let (plan, fallbacks) = ShardPlan::from_env_values(None, None);
        assert!(fallbacks.is_empty());
        assert!(plan.threads() >= 1);
        assert_eq!(plan.strategy(), ShardStrategy::default());
    }

    #[test]
    fn malformed_thread_count_falls_back_loudly() {
        for bad in ["0", "garbage", "-3", "1.5", ""] {
            let (plan, fallbacks) = ShardPlan::from_env_values(Some(bad), None);
            assert!(plan.threads() >= 1, "{bad:?} must still yield a usable plan");
            assert_eq!(fallbacks.len(), 1, "{bad:?} must be reported");
            assert_eq!(fallbacks[0].variable, THREADS_ENV);
            assert_eq!(fallbacks[0].rejected, bad);
            assert!(fallbacks[0].fallback.contains("auto-detected"));
        }
    }

    #[test]
    fn malformed_strategy_falls_back_loudly() {
        // "stael" is the CI-matrix typo that motivated the warning.
        let (plan, fallbacks) = ShardPlan::from_env_values(None, Some("stael"));
        assert_eq!(plan.strategy(), ShardStrategy::default());
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].variable, SCHED_ENV);
        assert_eq!(fallbacks[0].rejected, "stael");
        assert!(fallbacks[0].fallback.contains("cost"));

        // Both knobs malformed: both reported, in knob order.
        let (_, fallbacks) = ShardPlan::from_env_values(Some("zero"), Some("stael"));
        assert_eq!(fallbacks.len(), 2);
        assert_eq!(fallbacks[0].variable, THREADS_ENV);
        assert_eq!(fallbacks[1].variable, SCHED_ENV);
    }

    #[test]
    fn partitions_handle_degenerate_inputs_without_panicking() {
        // Empty universe.
        assert!(even_ranges(0, 32).is_empty());
        assert!(cost_ranges(&[], 32).is_empty());
        assert!(block_ranges(0, 16).is_empty());
        assert_eq!(steal_schedule(&[], 16, 4), vec![Vec::new(); 4]);
        // One item spread over 32 shards collapses to one range.
        assert_eq!(even_ranges(1, 32), vec![0..1]);
        assert_eq!(cost_ranges(&[5], 32), vec![0..1]);
        // All-zero costs at more shards than the even fallback needs.
        let ranges = cost_ranges(&[0, 0, 0], 32);
        assert_covers(&ranges, 3);
        let schedule = steal_schedule(&[0, 0, 0], 1, 32);
        let mut blocks: Vec<Range<usize>> = schedule.into_iter().flatten().collect();
        blocks.sort_by_key(|r| r.start);
        assert_covers(&blocks, 3);
        // Zero shards / zero workers are treated as one.
        assert_eq!(even_ranges(4, 0), vec![0..4]);
        assert_eq!(steal_schedule(&[1, 2], 1, 0).len(), 1);
    }
}
