//! The metric tables `BENCHMARK.json` declares and the result line.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::OpWork;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. The op-time
/// percentiles (p10, p50, p90) are printed on the `op_ms` line instead:
/// on a shared 2-vCPU host they move with the neighbours' load by more
/// than the largest bound allowed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_min", "ms"),
    ("cells_per_s", "1/s"),
    ("faults_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("location_coverage", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer that does
/// not run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bisd.fast.diagnose_ms", "ms"),
    ("bisd.fast.ns_per_cell", "ns"),
    ("bisd.fast.log_records", "count"),
    ("bisd.members_faulty_share", "ratio"),
    ("score.evaluate_ms", "ms"),
    ("score.us_per_fault", "us"),
    ("bisd.huang.diagnose_ms", "ms"),
    ("bisd.huang.iterations", "count"),
    ("bisd.huang.ms_per_iteration", "ms"),
    ("fault_sim.decoder_ms", "ms"),
    ("fault_sim.coupling_ms", "ms"),
    ("fault_sim.cell_ms", "ms"),
    ("fault_sim.slice_ms", "ms"),
    ("fault_sim.full_sweep_share", "ratio"),
    ("fleet.plan_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("soc.build_ms", "ms"),
    ("soc.cells", "count"),
    ("soc.faults_injected", "count"),
    ("exec.speedup_2w", "ratio"),
    ("spec.compile_ms", "ms"),
    ("report.render_ms", "ms"),
    ("fault_models.generate_ms", "ms"),
    ("check.reference_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

/// What the measurement loop collected.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Wall time of every untraced op.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Work counts of the last traced op.
    pub counts: BTreeMap<&'static str, f64>,
}

pub fn end_to_end(
    measurement: &Measurement,
    work: OpWork,
    setup_s: f64,
    peak_rss_mb: f64,
    location_coverage: f64,
) -> BTreeMap<&'static str, f64> {
    // The fastest op, not the median or the 10th percentile: on the
    // shared 2-vCPU build host the same op runs about 1.5 times slower
    // for seconds at a time while neighbours are busy, and those phases
    // can cover most of a run. Every op does the same deterministic
    // work, so the fastest one is the op with the least interference; a
    // change to the program's own work moves it like every other op.
    let fastest = quantile(&measurement.op_ms, 0.0);
    BTreeMap::from([
        ("op_ms_min", fastest),
        ("cells_per_s", work.cells as f64 / (fastest / 1e3)),
        ("faults_per_s", work.faults as f64 / (fastest / 1e3)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("location_coverage", location_coverage),
    ])
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ns_to_ms(values: Vec<u64>) -> Vec<f64> {
    values.into_iter().map(|ns| ns as f64 / 1e6).collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

pub fn per_layer(tracer: &Tracer, measurement: &Measurement) -> BTreeMap<&'static str, f64> {
    let op_layer = |name: &str| median_or_zero(&ns_to_ms(tracer.per_root_totals_ns("op", name)));
    let setup_layer = |name: &str| median_or_zero(&ns_to_ms(tracer.per_root_totals_ns("setup", name)));
    let count = |name: &str| measurement.counts.get(name).copied().unwrap_or(0.0);

    let fast_ms = op_layer("bisd.fast.diagnose");
    let score_ms = op_layer("score.evaluate");
    let huang_ms = op_layer("bisd.huang.diagnose");
    let fault_sim: Vec<f64> = [
        "fault_sim.decoder",
        "fault_sim.coupling",
        "fault_sim.cell",
        "fault_sim.slice",
    ]
    .into_iter()
    .map(op_layer)
    .collect();
    let diagnose_2w_ms = median_or_zero(&ns_to_ms(tracer.root_durations_ns("exec.diagnose_2w")));
    let traced_op_ms = median_or_zero(&ns_to_ms(tracer.root_durations_ns("op")));

    BTreeMap::from([
        ("bisd.fast.diagnose_ms", fast_ms),
        (
            "bisd.fast.ns_per_cell",
            ratio(fast_ms * 1e6, count("bisd.fast.cells")),
        ),
        ("bisd.fast.log_records", count("bisd.fast.log_records")),
        ("bisd.members_faulty_share", count("bisd.members_faulty_share")),
        ("score.evaluate_ms", score_ms),
        (
            "score.us_per_fault",
            ratio(score_ms * 1e3, count("soc.faults_injected")),
        ),
        ("bisd.huang.diagnose_ms", huang_ms),
        ("bisd.huang.iterations", count("bisd.huang.iterations")),
        (
            "bisd.huang.ms_per_iteration",
            ratio(huang_ms, count("bisd.huang.iterations")),
        ),
        ("fault_sim.decoder_ms", fault_sim[0]),
        ("fault_sim.coupling_ms", fault_sim[1]),
        ("fault_sim.cell_ms", fault_sim[2]),
        ("fault_sim.slice_ms", fault_sim[3]),
        (
            "fault_sim.full_sweep_share",
            ratio(fault_sim[0], fault_sim.iter().sum()),
        ),
        ("fleet.plan_ms", op_layer("fleet.plan")),
        (
            "fleet.run_ms",
            median_or_zero(&ns_to_ms(tracer.root_durations_ns("fleet.run"))),
        ),
        ("soc.build_ms", op_layer("soc.build")),
        ("soc.cells", count("soc.cells")),
        ("soc.faults_injected", count("soc.faults_injected")),
        ("exec.speedup_2w", ratio(fast_ms, diagnose_2w_ms)),
        ("spec.compile_ms", op_layer("spec.compile")),
        ("report.render_ms", op_layer("report.render")),
        ("fault_models.generate_ms", setup_layer("fault_models.generate")),
        ("check.reference_ms", setup_layer("check.reference")),
        (
            "trace.overhead",
            ratio(traced_op_ms, median_or_zero(&measurement.op_ms)),
        ),
        (
            "trace.unattributed_ms",
            median_or_zero(&ns_to_ms(tracer.root_self_times_ns("op"))),
        ),
    ])
}

/// The last stdout line: every metric of `table`, in table order.
pub fn result_line(
    correct: bool,
    measurement: &Measurement,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not computed"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if values.len() != table.len() {
        return Err("computed metrics the table does not declare".to_string());
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measurement.attempted,
        measurement.failed,
        metrics.join(", ")
    ))
}
