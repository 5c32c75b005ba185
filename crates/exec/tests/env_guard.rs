//! Guard for the CI jobs that export `ESRAM_*` knobs: if a knob the
//! workspace still reads is set in the ambient environment, it must
//! parse. A typo'd entry (`ESRAM_DIAG_THREADS=0`) would otherwise
//! silently run the default configuration while the job name claims
//! something else; this test turns that into a loud failure. CI runs
//! it before the suites that inherit the knobs.

use esram_exec::{CalibrationMode, FailpointSet, ShardPlan, CALIB_ENV, FAILPOINTS_ENV, THREADS_ENV};

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

#[test]
fn ambient_failpoint_knob_is_well_formed() {
    // A chaos-matrix entry like `ESRAM_FAILPOINTS=diag.segment:explode`
    // must fail loudly instead of silently running with injection
    // disarmed while the job name claims a failure is being injected.
    if let Ok(raw) = std::env::var(FAILPOINTS_ENV) {
        assert!(
            FailpointSet::parse(&raw).is_some(),
            "malformed {FAILPOINTS_ENV}='{raw}' in the environment \
             (the run would silently disarm all failpoints)"
        );
    }
}

#[test]
fn ambient_calibration_knob_is_well_formed() {
    // Same guard for the cost-calibration mode: a matrix entry naming a
    // retired mode like `ESRAM_COST_CALIB=online` must fail this test
    // loudly instead of silently running the measured default.
    if let Ok(raw) = std::env::var(CALIB_ENV) {
        assert!(
            CalibrationMode::parse(&raw).is_some(),
            "malformed {CALIB_ENV}='{raw}' in the environment \
             (the run would silently fall back to {:?})",
            CalibrationMode::default()
        );
    }
}
