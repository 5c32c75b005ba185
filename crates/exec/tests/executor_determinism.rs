//! The executor's headline guarantee, property-tested: for arbitrary
//! item lists, cost functions and worker counts, the cost-balanced
//! executor produces output slot-for-slot identical to the sequential
//! map — and mutable-segment processing touches every item exactly
//! once, in order, under every partition.

use esram_exec::failpoint::{install_quiet_panic_hook, QUIET_MARKER};
use esram_exec::{cost_ranges, even_ranges, ItemFault, RunToken, ShardPlan};
use proptest::collection;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 7, 32];

/// The degenerate corners the `plan.rs` unwrap audit hardened, pinned
/// explicitly (the generators above reach them only by luck): an empty
/// universe, one item fanned across 32 shards, and all-zero costs.
#[test]
fn degenerate_universes_run_on_every_strategy() {
    for threads in WORKER_COUNTS {
        let plan = ShardPlan::with_threads(threads);

        // Empty universe: no segments, no spawns, no panic.
        let mut empty: Vec<u64> = Vec::new();
        let segments = plan.run_segments(&mut empty, |_, v| *v, |base, s| (base, s.len()));
        assert!(segments.is_empty(), "empty universe must yield no segments");

        // One item across up to 32 shards: exactly one segment.
        let mut single = vec![41u64];
        let segments = plan.run_segments(
            &mut single,
            |_, v| *v,
            |base, segment| {
                segment[0] += 1;
                (base, segment.len())
            },
        );
        assert_eq!(single, vec![42]);
        assert_eq!(segments, vec![(0, 1)]);

        // All-zero costs: every item still visited exactly once.
        let mut zeros = vec![0u64; 5];
        plan.run_segments(
            &mut zeros,
            |_, _| 0,
            |_, segment| {
                for value in segment.iter_mut() {
                    *value += 1;
                }
            },
        );
        assert_eq!(zeros, vec![1; 5], "all-zero costs dropped or repeated items");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: the pure partition functions cover `0..items` exactly,
    /// contiguously and in order, for arbitrary (including degenerate)
    /// inputs — the invariant the unwrap audit rests on.
    #[test]
    fn partitions_always_cover_contiguously(
        costs in collection::vec(0u64..1000, 0..130),
        shards in 0usize..40,
    ) {
        let assert_covers = |ranges: &[std::ops::Range<usize>]| {
            let mut next = 0;
            for range in ranges {
                assert_eq!(range.start, next, "ranges must be contiguous");
                assert!(range.end >= range.start);
                next = range.end;
            }
            assert_eq!(next, costs.len(), "ranges must cover every item");
        };
        assert_covers(&even_ranges(costs.len(), shards));
        assert_covers(&cost_ranges(&costs, shards));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: `map_slots` equals the sequential map at every worker
    /// count, with an arbitrary (deterministic) cost function —
    /// per-worker scratch state included, to prove state reuse cannot
    /// reorder or drop slots.
    #[test]
    fn map_slots_matches_the_sequential_map(
        items in collection::vec(any::<u64>(), 0..130),
        cost_mul in 0u64..7,
        cost_mod in 1u64..97,
        workers_index in 0usize..4,
    ) {
        let threads = WORKER_COUNTS[workers_index];
        let cost =
            |index: usize, value: &u64| (value.wrapping_mul(cost_mul) % cost_mod) + (index as u64 % 3);
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(index, &value)| value.rotate_left((index % 64) as u32))
            .collect();
        let plan = ShardPlan::with_threads(threads);
        let mapped = plan.map_slots(&items, cost, || 0u32, |scratch, index, &value| {
            // Scratch state drifts per worker; results must not.
            *scratch = scratch.wrapping_add(1);
            value.rotate_left((index % 64) as u32)
        });
        prop_assert_eq!(&mapped, &sequential, "map diverged at {} threads", threads);
    }

    /// Property: `run_segments` visits every item exactly once through
    /// contiguous, in-order segments, and the per-segment results merge
    /// back in item order — at every worker count.
    #[test]
    fn run_segments_matches_the_sequential_walk(
        items in collection::vec(any::<u64>(), 0..130),
        cost_mod in 1u64..53,
        workers_index in 0usize..4,
    ) {
        let threads = WORKER_COUNTS[workers_index];
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(index, &value)| value.wrapping_mul(3) ^ index as u64)
            .collect();
        let mut working = items.clone();
        let plan = ShardPlan::with_threads(threads);
        let segments = plan.run_segments(
            &mut working,
            |index, value| value % cost_mod + (index as u64 & 1),
            |base, segment| {
                for (offset, value) in segment.iter_mut().enumerate() {
                    *value = value.wrapping_mul(3) ^ (base + offset) as u64;
                }
                (base, segment.len())
            },
        );
        prop_assert_eq!(&working, &expected, "segment mutation diverged at {} threads", threads);
        let mut next = 0;
        for (base, len) in segments {
            prop_assert_eq!(base, next, "segments out of order at {} threads", threads);
            next += len;
        }
        prop_assert_eq!(next, items.len(), "segments must cover every item at {} threads", threads);
    }

    /// Property: the isolated mapper confines panicking and erroring
    /// items to their own slots, and every *surviving* slot equals the
    /// sequential map — at every worker count, even though caught
    /// panics forced scratch-state rebuilds mid-shard.
    #[test]
    fn isolated_map_survives_poisoned_items(
        items in collection::vec(any::<u64>(), 0..130),
        panic_mod in 2u64..12,
        error_mod in 2u64..12,
        workers_index in 0usize..4,
    ) {
        install_quiet_panic_hook();
        let threads = WORKER_COUNTS[workers_index];
        let token = RunToken::new();
        // The sequential classification the surviving slots must match.
        let classify = |value: u64| -> Option<Result<u64, u64>> {
            if value.is_multiple_of(panic_mod) {
                None // this slot panics
            } else if value.is_multiple_of(error_mod) {
                Some(Err(value)) // this slot errors
            } else {
                Some(Ok(value.wrapping_mul(7)))
            }
        };
        let plan = ShardPlan::with_threads(threads);
        let slots = plan
            .map_slots_isolated(
                &token,
                &items,
                |index, value| value % 5 + (index as u64 & 1),
                || 0u64,
                |scratch, _, &value| {
                    // Scratch drifts per worker and is rebuilt after
                    // caught panics; surviving results must not care.
                    *scratch = scratch.wrapping_add(value);
                    match classify(value) {
                        None => std::panic::panic_any(format!(
                            "{QUIET_MARKER} injected item panic on {value}"
                        )),
                        Some(Err(error)) => Err(error),
                        Some(Ok(result)) => Ok(result),
                    }
                },
            )
            .expect("item faults must never fail the run");
        prop_assert_eq!(slots.len(), items.len());
        for (index, (&value, slot)) in items.iter().zip(&slots).enumerate() {
            match (classify(value), slot) {
                (None, Err(ItemFault::Panic { payload })) => {
                    prop_assert!(payload.contains("injected item panic"), "{}", payload);
                }
                (Some(Err(expected)), Err(ItemFault::Error(error))) => {
                    prop_assert_eq!(*error, expected);
                }
                (Some(Ok(expected)), Ok(result)) => {
                    prop_assert_eq!(
                        *result, expected,
                        "surviving slot {} diverged at {} threads",
                        index, threads
                    );
                }
                (expected, actual) => prop_assert!(
                    false,
                    "slot {} misclassified at {} threads: expected {:?}, got {:?}",
                    index, threads, expected, actual
                ),
            }
        }
    }
}
