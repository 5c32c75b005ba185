//! Guard for the CI jobs that export `ESRAM_*` knobs: if a knob the
//! workspace still reads is set in the ambient environment, it must
//! parse. A typo'd entry (`ESRAM_DIAG_THREADS=0`) would otherwise
//! silently run the default configuration while the job name claims
//! something else; this test turns that into a loud failure. CI runs
//! it before the suites that inherit the knobs.

use esram_exec::{ShardPlan, THREADS_ENV};

#[test]
fn ambient_executor_knobs_are_well_formed() {
    let threads = std::env::var(THREADS_ENV).ok();
    let (plan, fallback) = ShardPlan::from_env_values(threads.as_deref());
    assert!(
        fallback.is_none(),
        "malformed executor knob in the environment: {fallback:?} \
         (the run would silently fall back to {plan})"
    );
}
