//! Guard for the CI determinism matrix: if the `ESRAM_DIAG_*` executor
//! knobs are set in the ambient environment, they must parse. A typo'd
//! matrix entry (`ESRAM_DIAG_SCHED=stael`) would otherwise silently run
//! the default configuration while the job name claims something else;
//! this test turns that into a loud failure. The matrix runs it once
//! per configuration before the determinism suites.

use esram_exec::{
    parse_spec_out, CalibrationMode, FailpointSet, FaultSimKernel, ShardPlan, CALIB_ENV, FAILPOINTS_ENV,
    FAULTSIM_KERNEL_ENV, SCHED_ENV, SPEC_OUT_ENV, THREADS_ENV,
};

#[test]
fn ambient_executor_knobs_are_well_formed() {
    let threads = std::env::var(THREADS_ENV).ok();
    let sched = std::env::var(SCHED_ENV).ok();
    let (plan, fallbacks) = ShardPlan::from_env_values(threads.as_deref(), sched.as_deref());
    assert!(
        fallbacks.is_empty(),
        "malformed executor knob(s) in the environment: {fallbacks:?} \
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
fn ambient_spec_out_knob_is_well_formed() {
    // The CLI's output-directory override: a set-but-blank value would
    // silently dump reports into the working directory while the job
    // name claims an override directory is in force.
    if let Ok(raw) = std::env::var(SPEC_OUT_ENV) {
        assert!(
            parse_spec_out(&raw).is_some(),
            "malformed {SPEC_OUT_ENV}='{raw}' in the environment \
             (the run would silently fall back to the spec's own report directory)"
        );
    }
}

#[test]
fn ambient_faultsim_kernel_knob_is_well_formed() {
    // The determinism matrix's kernel rows: a typo'd entry like
    // `ESRAM_FAULTSIM_KERNEL=lnaes` must fail loudly instead of
    // silently sweeping the default lane kernel under a permem label.
    if let Ok(raw) = std::env::var(FAULTSIM_KERNEL_ENV) {
        assert!(
            FaultSimKernel::parse(&raw).is_some(),
            "malformed {FAULTSIM_KERNEL_ENV}='{raw}' in the environment \
             (the run would silently fall back to {})",
            FaultSimKernel::default()
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
