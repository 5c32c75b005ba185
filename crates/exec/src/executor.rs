//! The deterministic executors: slot-per-item mapping and contiguous
//! mutable-segment processing.
//!
//! Both entry points live as inherent methods on [`ShardPlan`] so call
//! sites that already hold a plan need no extra imports. Both share the
//! same contract:
//!
//! * **Empty input spawns nothing** — the degenerate `shard_count(0)` /
//!   `chunk_size(0)` geometry is never consulted past the fast path.
//! * **One worker runs inline** — `ShardPlan::sequential()` (and any
//!   plan over a single-item list) executes on the calling thread, so
//!   the sequential path *is* the 1-worker instance of the parallel
//!   one.
//! * **Output order is item order** at every worker count: contiguous
//!   cost-balanced chunks concatenate in chunk order.
//!
//! # Fault containment
//!
//! Every entry point runs on one fallible core: each worker's work is
//! wrapped in `catch_unwind`, **all** workers are joined even when some
//! panicked (two shards panicking simultaneously can no longer
//! escalate into a process-killing double panic), and the caller's
//! [`RunToken`] is checked at item and segment boundaries. The
//! `try_*` variants surface failures as a structured [`ExecError`]; the
//! infallible classics keep their contract by re-raising the original
//! panic payload *after* teardown completed. When several workers fail
//! in one run the reported failure is deterministic: a panic outranks a
//! cancellation, and among panics the lowest-indexed failed shard wins.
//!
//! [`ShardPlan::map_slots_isolated`] narrows the fault domain to a
//! single item: a panicking or erroring item fails only its own slot
//! ([`ItemFault`]), the worker's scratch state is rebuilt, and every
//! surviving slot stays byte-identical to the sequential map.

use crate::error::{panic_payload, ExecError, ItemFault};
use crate::plan::{cost_ranges, ShardPlan};
use crate::token::RunToken;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Internal failure currency of the fallible core: panics keep their
/// original boxed payload so the infallible wrappers can re-raise it
/// unchanged (`resume_unwind`), while the `try_*` wrappers render it
/// into the string-carrying [`ExecError`].
enum RawFailure {
    Panic {
        shard: usize,
        payload: Box<dyn Any + Send>,
    },
    Cancelled,
    Deadline,
}

impl RawFailure {
    fn from_exec(error: ExecError) -> RawFailure {
        match error {
            ExecError::Cancelled => RawFailure::Cancelled,
            ExecError::Deadline => RawFailure::Deadline,
            ExecError::WorkerPanic { shard, payload } => RawFailure::Panic {
                shard,
                payload: Box::new(payload),
            },
        }
    }

    fn into_exec(self) -> ExecError {
        match self {
            RawFailure::Panic { shard, payload } => ExecError::WorkerPanic {
                shard,
                payload: panic_payload(payload.as_ref()),
            },
            RawFailure::Cancelled => ExecError::Cancelled,
            RawFailure::Deadline => ExecError::Deadline,
        }
    }

    /// Deterministic severity order: panics first (by ascending shard),
    /// then cancellation, then deadline expiry.
    fn rank(&self) -> (u8, usize) {
        match self {
            RawFailure::Panic { shard, .. } => (0, *shard),
            RawFailure::Cancelled => (1, 0),
            RawFailure::Deadline => (2, 0),
        }
    }
}

/// Keeps the highest-severity (lowest-rank) failure seen so far.
fn keep_worst(slot: &mut Option<RawFailure>, candidate: RawFailure) {
    match slot {
        None => *slot = Some(candidate),
        Some(current) if candidate.rank() < current.rank() => *slot = Some(candidate),
        Some(_) => {}
    }
}

impl ShardPlan {
    /// Maps every item to one output slot, deterministically, with one
    /// scratch state per worker.
    ///
    /// `cost` estimates per-item work for the cost-balanced partition
    /// ([`cost_ranges`]); `init` builds one
    /// scratch state per worker (a reusable memory, an RNG — anything
    /// whose reuse across items has no observable effect); `work` maps
    /// `(state, index, item)` to the item's result. Returns the results
    /// in exact item order at every worker count.
    ///
    /// # Panics
    ///
    /// If any worker's work panics, the panic is contained, **all**
    /// workers are joined (no double-panic abort), and the original
    /// payload of the lowest-indexed failed shard is re-raised on the
    /// calling thread. Use [`ShardPlan::map_slots_isolated`] to receive
    /// failures as values instead.
    pub fn map_slots<T, S, R>(
        &self,
        items: &[T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        match self.map_slots_raw(&RunToken::new(), items, cost, init, work) {
            Ok(results) => results,
            Err(RawFailure::Panic { payload, .. }) => resume_unwind(payload),
            Err(_) => unreachable!("a fresh never-cancelled token cannot cancel"),
        }
    }

    /// Fallible [`ShardPlan::map_slots`]: worker panics are contained
    /// and surfaced as [`ExecError::WorkerPanic`], and `token` is
    /// checked at every item boundary so cancellation and deadlines
    /// stop the run with a deterministic error and clean teardown (all
    /// workers joined, no poisoned state).
    fn try_map_slots<T, S, R>(
        &self,
        token: &RunToken,
        items: &[T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, ExecError>
    where
        T: Sync,
        R: Send,
    {
        self.map_slots_raw(token, items, cost, init, work)
            .map_err(RawFailure::into_exec)
    }

    /// Per-item fault isolation: like [`ShardPlan::map_slots`], but a
    /// panicking or erroring item fails only its own slot, and `token`
    /// is checked at every item boundary so cancellation and deadlines
    /// stop the run with a deterministic error and clean teardown.
    ///
    /// `work` returns `Result<R, E>`; each item runs under its own
    /// `catch_unwind`, so a slot comes back as `Ok(R)`, or
    /// `Err(ItemFault::Error(E))`, or `Err(ItemFault::Panic { .. })`.
    /// After a caught item panic the worker's scratch state is rebuilt
    /// with `init` before the next item (an unwound closure may leave
    /// it inconsistent), so every *surviving* slot is byte-identical to
    /// the sequential map at every worker count — the chaos proptest
    /// asserts exactly this.
    ///
    /// # Errors
    ///
    /// Only run-level failures: [`ExecError::Cancelled`] /
    /// [`ExecError::Deadline`] from the token. Item failures never fail
    /// the run.
    pub fn map_slots_isolated<T, S, R, E>(
        &self,
        token: &RunToken,
        items: &[T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
    ) -> Result<Vec<Result<R, ItemFault<E>>>, ExecError>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        let init = &init;
        let work = &work;
        self.try_map_slots(
            token,
            items,
            cost,
            init,
            move |state, index, item| match catch_unwind(AssertUnwindSafe(|| work(state, index, item))) {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(error)) => Err(ItemFault::Error(error)),
                Err(payload) => {
                    *state = init();
                    Err(ItemFault::Panic {
                        payload: panic_payload(payload.as_ref()),
                    })
                }
            },
        )
    }

    /// The fallible core behind every `map_slots` flavour.
    fn map_slots_raw<T, S, R>(
        &self,
        token: &RunToken,
        items: &[T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, RawFailure>
    where
        T: Sync,
        R: Send,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // One shard's contained run: panics are caught and tagged with
        // the shard index; the token is checked per item.
        let run_range = |shard: usize, range: Range<usize>| -> Result<Vec<R>, RawFailure> {
            let caught = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<R>, RawFailure> {
                let mut state = init();
                let mut results = Vec::with_capacity(range.len());
                for index in range.clone() {
                    token.check().map_err(RawFailure::from_exec)?;
                    results.push(work(&mut state, index, &items[index]));
                }
                Ok(results)
            }));
            match caught {
                Ok(result) => result,
                Err(payload) => Err(RawFailure::Panic { shard, payload }),
            }
        };
        if self.shard_count(items.len()) <= 1 {
            return run_range(0, 0..items.len());
        }
        let ranges = self.contiguous_ranges(items.len(), |index| cost(index, &items[index]));
        if ranges.len() <= 1 {
            return run_range(0, 0..items.len());
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(shard, range)| {
                    let run_range = &run_range;
                    scope.spawn(move || run_range(shard, range))
                })
                .collect();
            // Join ALL workers before reporting anything: a second
            // simultaneous panic lands here as a value, not as a
            // double-panic abort.
            let mut merged = Vec::with_capacity(items.len());
            let mut failure: Option<RawFailure> = None;
            for (shard, worker) in workers.into_iter().enumerate() {
                match worker.join() {
                    Ok(Ok(results)) => merged.extend(results),
                    Ok(Err(raw)) => keep_worst(&mut failure, raw),
                    // The worker closure is fully caught; a join error
                    // would mean the spawn machinery itself panicked —
                    // still contained, still reported.
                    Err(payload) => keep_worst(&mut failure, RawFailure::Panic { shard, payload }),
                }
            }
            match failure {
                None => Ok(merged),
                Some(raw) => Err(raw),
            }
        })
    }

    /// Processes disjoint contiguous mutable segments of `items`,
    /// returning one result per segment in segment (item) order.
    ///
    /// `work` receives each segment together with the index of its
    /// first item, so callers can slice parallel read-only arrays to
    /// match. How many segments exist depends on the worker count and
    /// the item costs (one per non-empty shard), so callers must merge
    /// the per-segment results with an operation that is associative
    /// over adjacent segments — which the
    /// workspace's merges (ordered concatenation, OR-reduction, stable
    /// sort by a shared sequence key) all are.
    ///
    /// # Panics
    ///
    /// If any segment's work panics, the panic is contained, **all**
    /// workers are joined, and the original payload of the
    /// lowest-indexed failed segment is re-raised on the calling
    /// thread. Use [`ShardPlan::try_run_segments`] to receive the
    /// failure as a value instead.
    pub fn run_segments<T, R>(
        &self,
        items: &mut [T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        work: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        match self.run_segments_raw(&RunToken::new(), items, cost, work) {
            Ok(results) => results,
            Err(RawFailure::Panic { payload, .. }) => resume_unwind(payload),
            Err(_) => unreachable!("a fresh never-cancelled token cannot cancel"),
        }
    }

    /// Fallible [`ShardPlan::run_segments`]: worker panics are
    /// contained and surfaced as [`ExecError::WorkerPanic`], and
    /// `token` is checked at every segment boundary so
    /// cancellation and deadlines stop the run with a deterministic
    /// error and clean teardown. Items already processed by completed
    /// segments keep their mutations (cooperative cancellation is a
    /// boundary, not a rollback); the caller's slice is never poisoned
    /// and can be reset and reused.
    ///
    /// # Errors
    ///
    /// [`ExecError::WorkerPanic`] when any segment's work panicked;
    /// [`ExecError::Cancelled`] / [`ExecError::Deadline`] when the
    /// token stopped the run first.
    pub fn try_run_segments<T, R>(
        &self,
        token: &RunToken,
        items: &mut [T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        work: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Result<Vec<R>, ExecError>
    where
        T: Send,
        R: Send,
    {
        self.run_segments_raw(token, items, cost, work)
            .map_err(RawFailure::into_exec)
    }

    /// The fallible core behind both `run_segments` flavours.
    fn run_segments_raw<T, R>(
        &self,
        token: &RunToken,
        items: &mut [T],
        cost: impl Fn(usize, &T) -> u64 + Sync,
        work: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Result<Vec<R>, RawFailure>
    where
        T: Send,
        R: Send,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // One segment's contained run: the token gates entry, the work
        // itself runs under catch_unwind.
        let run_segment = |shard: usize, base: usize, segment: &mut [T]| -> Result<R, RawFailure> {
            token.check().map_err(RawFailure::from_exec)?;
            catch_unwind(AssertUnwindSafe(|| work(base, segment)))
                .map_err(|payload| RawFailure::Panic { shard, payload })
        };
        if self.shard_count(items.len()) <= 1 {
            return Ok(vec![run_segment(0, 0, items)?]);
        }
        let ranges = self.contiguous_ranges(items.len(), |index| cost(index, &items[index]));
        if ranges.len() <= 1 {
            return Ok(vec![run_segment(0, 0, items)?]);
        }
        let mut segments: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = items;
        for range in &ranges {
            let (segment, tail) = rest.split_at_mut(range.len());
            segments.push((range.start, segment));
            rest = tail;
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = segments
                .into_iter()
                .enumerate()
                .map(|(shard, (base, segment))| {
                    let run_segment = &run_segment;
                    scope.spawn(move || run_segment(shard, base, segment))
                })
                .collect();
            let mut merged = Vec::with_capacity(workers.len());
            let mut failure: Option<RawFailure> = None;
            for (shard, worker) in workers.into_iter().enumerate() {
                match worker.join() {
                    Ok(Ok(result)) => merged.push(result),
                    Ok(Err(raw)) => keep_worst(&mut failure, raw),
                    Err(payload) => keep_worst(&mut failure, RawFailure::Panic { shard, payload }),
                }
            }
            match failure {
                None => Ok(merged),
                Some(raw) => Err(raw),
            }
        })
    }

    /// The cost-balanced contiguous partition for `len` items, with
    /// empty ranges (possible when one item dominates the cost total)
    /// dropped.
    fn contiguous_ranges(&self, len: usize, cost_of: impl Fn(usize) -> u64) -> Vec<Range<usize>> {
        let costs: Vec<u64> = (0..len).map(cost_of).collect();
        cost_ranges(&costs, self.shard_count(len))
            .into_iter()
            .filter(|range| !range.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{install_quiet_panic_hook, QUIET_MARKER};

    fn plans() -> Vec<ShardPlan> {
        [1, 2, 7, 32].into_iter().map(ShardPlan::with_threads).collect()
    }

    #[test]
    fn map_slots_preserves_item_order_with_per_worker_state() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&v| v * 3).collect();
        for plan in plans() {
            let mapped = plan.map_slots(&items, |_, &v| v + 1, || 0u64, |_, _, &v| v * 3);
            assert_eq!(mapped, expected, "order diverged under {plan}");
        }
    }

    #[test]
    fn run_segments_covers_every_item_exactly_once() {
        for plan in plans() {
            let mut items: Vec<u64> = vec![0; 53];
            let segments = plan.run_segments(
                &mut items,
                |index, _| (index as u64 % 5) + 1,
                |base, segment| {
                    for value in segment.iter_mut() {
                        *value += 1;
                    }
                    (base, segment.len())
                },
            );
            assert!(
                items.iter().all(|&v| v == 1),
                "an item was skipped or repeated under {plan}"
            );
            // Segments are disjoint, contiguous and in item order.
            let mut next = 0;
            for (base, len) in segments {
                assert_eq!(base, next, "segment bases out of order under {plan}");
                next += len;
            }
            assert_eq!(next, items.len());
        }
    }

    #[test]
    fn empty_input_returns_without_spawning_for_every_strategy() {
        for plan in plans() {
            let empty: [u64; 0] = [];
            let mapped: Vec<u64> = plan.map_slots(&empty, |_, _| 1, || (), |_, _, &v| v);
            assert!(mapped.is_empty(), "empty map under {plan} must be empty");
            let mut none: [u64; 0] = [];
            let segments: Vec<usize> = plan.run_segments(&mut none, |_, _| 1, |_, s| s.len());
            assert!(segments.is_empty(), "empty segments under {plan} must be empty");
            // The degenerate shard geometry stays well-defined even
            // though the fast path never consults it.
            assert_eq!(plan.shard_count(0), 1);
            assert_eq!(plan.chunk_size(0), 1);
        }
    }

    #[test]
    fn single_item_runs_inline_on_any_plan() {
        for plan in plans() {
            let mapped = plan.map_slots(&[41u64], |_, _| 7, || (), |_, _, &v| v + 1);
            assert_eq!(mapped, vec![42]);
        }
    }

    #[test]
    fn two_simultaneously_panicking_shards_report_the_lowest_without_aborting() {
        install_quiet_panic_hook();
        // Two shards at two threads: both panic at the same time. The
        // original executor joined with `.expect(...)` — the second
        // panic unwinding through the first join was a double-panic
        // abort hazard. Now both are caught, both joined, and the
        // lowest shard is reported as a value.
        let items: Vec<u64> = (0..8).collect();
        let plan = ShardPlan::with_threads(2);
        let token = RunToken::new();
        let result = plan.try_map_slots(
            &token,
            &items,
            |_, _| 1,
            || (),
            |_, index, _| -> u64 { panic!("{QUIET_MARKER} shard item {index} exploded") },
        );
        match result {
            Err(ExecError::WorkerPanic { shard, payload }) => {
                assert_eq!(shard, 0, "the lowest failed shard must win");
                assert!(payload.contains("exploded"), "{payload}");
            }
            other => panic!("expected a worker panic, got {other:?}"),
        }
        // Segments variant: both segment closures panic simultaneously.
        let mut working: Vec<u64> = (0..8).collect();
        let result = plan.try_run_segments(
            &token,
            &mut working,
            |_, _| 1,
            |base, _| -> u64 { panic!("{QUIET_MARKER} segment {base} exploded") },
        );
        assert!(
            matches!(result, Err(ExecError::WorkerPanic { shard: 0, .. })),
            "expected the lowest failed segment, got {result:?}"
        );
    }

    #[test]
    fn infallible_entry_points_resume_the_original_payload_after_joining_all() {
        install_quiet_panic_hook();
        let items: Vec<u64> = (0..64).collect();
        for plan in plans() {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                plan.map_slots(
                    &items,
                    |_, _| 1,
                    || (),
                    |_, index, &v| {
                        if index >= 3 {
                            std::panic::panic_any(format!("{QUIET_MARKER} original payload {index}"));
                        }
                        v
                    },
                )
            }));
            let payload = caught.expect_err("the contained panic must be re-raised");
            let message = payload
                .downcast_ref::<String>()
                .expect("original String payload must survive containment");
            assert!(message.contains("original payload"), "{message} under {plan}");
        }
    }

    #[test]
    fn cancelled_token_stops_every_strategy_deterministically() {
        let items: Vec<u64> = (0..64).collect();
        let token = RunToken::new();
        token.cancel();
        for plan in plans() {
            let mapped = plan.try_map_slots(&token, &items, |_, _| 1, || (), |_, _, &v| v);
            assert_eq!(mapped, Err(ExecError::Cancelled), "map under {plan}");
            let mut working = items.clone();
            let segments = plan.try_run_segments(&token, &mut working, |_, _| 1, |_, s| s.len());
            assert_eq!(segments, Err(ExecError::Cancelled), "segments under {plan}");
            let isolated =
                plan.map_slots_isolated(&token, &items, |_, _| 1, || (), |_, _, &v| Ok::<_, ()>(v));
            assert_eq!(isolated, Err(ExecError::Cancelled), "isolated under {plan}");
        }
        // Empty input short-circuits before the token is consulted.
        let empty: [u64; 0] = [];
        let plan = ShardPlan::with_threads(4);
        assert_eq!(
            plan.try_map_slots(&token, &empty, |_, _| 1, || (), |_, _, &v| v),
            Ok(Vec::new())
        );
    }

    #[test]
    fn expired_deadline_reports_deadline_on_every_strategy() {
        use std::time::{Duration, Instant};
        let items: Vec<u64> = (0..16).collect();
        let token = RunToken::with_deadline(Instant::now() - Duration::from_millis(1));
        for plan in plans() {
            let mapped = plan.try_map_slots(&token, &items, |_, _| 1, || (), |_, _, &v| v);
            assert_eq!(mapped, Err(ExecError::Deadline), "map under {plan}");
        }
    }

    #[test]
    fn cancellation_leaves_items_resettable_not_poisoned() {
        let token = RunToken::new();
        token.cancel();
        let mut items: Vec<u64> = (0..32).collect();
        let plan = ShardPlan::with_threads(4);
        let result = plan.try_run_segments(
            &token,
            &mut items,
            |_, _| 1,
            |_, segment| {
                for value in segment.iter_mut() {
                    *value += 1000;
                }
            },
        );
        assert_eq!(result, Err(ExecError::Cancelled));
        // Clean teardown: the slice is untouched (cancellation beat
        // every segment) and immediately reusable with a fresh token.
        assert_eq!(items, (0..32).collect::<Vec<u64>>());
        let fresh = RunToken::new();
        let segments = plan.try_run_segments(
            &fresh,
            &mut items,
            |_, _| 1,
            |_, segment| {
                for value in segment.iter_mut() {
                    *value += 1;
                }
                segment.len()
            },
        );
        assert!(segments.is_ok());
        assert_eq!(items, (1..33).collect::<Vec<u64>>());
    }

    #[test]
    fn isolated_map_confines_faults_to_their_own_slots() {
        install_quiet_panic_hook();
        let items: Vec<u64> = (0..50).collect();
        let token = RunToken::new();
        for plan in plans() {
            let slots = plan
                .map_slots_isolated(
                    &token,
                    &items,
                    |_, _| 1,
                    || 0u64,
                    |scratch, _, &v| {
                        *scratch = scratch.wrapping_add(v);
                        if v % 10 == 3 {
                            panic!("{QUIET_MARKER} item {v} panicked");
                        }
                        if v % 10 == 7 {
                            return Err(v);
                        }
                        Ok(v * 2)
                    },
                )
                .expect("item faults must not fail the run");
            assert_eq!(slots.len(), items.len());
            for (&v, slot) in items.iter().zip(&slots) {
                match (v % 10, slot) {
                    (3, Err(ItemFault::Panic { payload })) => {
                        assert!(payload.contains("panicked"), "{payload}")
                    }
                    (7, Err(ItemFault::Error(error))) => assert_eq!(*error, v),
                    (_, Ok(doubled)) => assert_eq!(*doubled, v * 2, "under {plan}"),
                    (_, unexpected) => panic!("slot for {v} diverged under {plan}: {unexpected:?}"),
                }
            }
        }
    }
}
