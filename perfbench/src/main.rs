//! The esram-diag benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload case_study --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Each workload is one closed-loop client in this process: it sets up
//! (several times, timing each), then runs ops back to back for
//! `--seconds`, checking every op's output. With `--trace 0` the last
//! stdout line holds the end-to-end metrics; with `--trace 1` half the
//! ops are replayed layer by layer inside spans and the last line holds
//! the per-layer metrics. Run from the repository root. See
//! `perfbench/NOTES.md` for why each workload exists.

mod fault_sim_workload;
mod metrics;
mod replay;
mod spec_workload;
mod stats;
mod trace;
mod workload;

use fault_sim_workload::FaultSimWorkload;
use metrics::{Measurement, END_TO_END, PER_LAYER};
use spec_workload::SpecWorkload;
use stats::median;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{PaperMetric, Scale, Workload, WorkloadName};

/// A run sets up at least this many times, and for at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median. Five set-ups of a
/// 0.1 s workload moved by 35–46 % between runs; a longer window
/// averages over the host's sub-second contention bursts.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Where the traced run writes its spans, relative to the repository
/// root.
const TRACE_DIR: &str = "perfbench/out";

#[derive(Debug)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadName::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            // Seeds go into spec text, whose integers are signed 64-bit.
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| i64::try_from(s).is_ok())
                        .ok_or_else(|| format!("bad --seed '{value}' (0 ..= 2^63 - 1)"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `ShardPlan::default` and `CostCalibration::current` read `ESRAM_*`
/// variables; the benchmark pins every knob itself and will not run
/// with any of them set.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("ESRAM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins every knob",
            set.join(", ")
        ))
    }
}

/// Runs the contention probe in a child process, so its buffer never
/// counts towards this process's peak RSS.
fn probe_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--probe")
        .output()
        .map_err(|e| format!("probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("probe exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("probe output: {e}"))
}

fn json_str(value: &str) -> String {
    let mut out = String::from("\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sets up repeatedly (see [`SETUP_MIN_REPEATS`]), timing each, and
/// keeps the last.
fn setup_repeatedly<W>(
    tracer: &mut Tracer,
    setup: impl Fn(&mut Tracer) -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut seconds: Vec<f64> = Vec::new();
    let mut workload = None;
    while seconds.len() < SETUP_MIN_REPEATS || seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        // Drop the previous set-up first, so two never coexist.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(tracer.span("setup", |t| setup(t))?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((workload.expect("at least one set-up"), seconds))
}

/// Runs ops back to back for `seconds`, checking each. In trace mode
/// every other op is the traced replay.
fn measure<W: Workload>(
    workload: &W,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Measurement, String> {
    let mut measurement = Measurement::default();
    let mut tracer = tracer;
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds || op < 2 {
        let traced = op % 2 == 1;
        let output = match (&mut tracer, traced) {
            (Some(tracer), true) => {
                tracer.set_op(op);
                tracer.take_counts();
                let output = workload.traced_op(tracer)?;
                measurement.counts = tracer.take_counts();
                output
            }
            _ => {
                let op_start = Instant::now();
                let output = workload.op()?;
                measurement.op_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
                output
            }
        };
        measurement.attempted += 1;
        if let Err(error) = workload.check(&output) {
            eprintln!("op {op}: {error}");
            measurement.failed += 1;
        }
        op += 1;
    }
    Ok(measurement)
}

fn run<W: Workload>(args: &Args, setup: impl Fn(&mut Tracer) -> Result<W, String>) -> Result<bool, String> {
    let probe_before_ms = probe_in_child()?;
    let mut tracer = Tracer::new();
    let (workload, setup_s) = setup_repeatedly(&mut tracer, setup)?;
    // `peak_rss_mb` covers the timed ops only; the set-ups' references
    // and warm-ups peak on their own, printed on the `setup` line.
    let setup_peak_rss_mb = stats::peak_rss_mb()?;
    stats::reset_peak_rss()?;
    let measurement = measure(&workload, args.seconds, args.trace.then_some(&mut tracer))?;
    let peak_rss_mb = stats::peak_rss_mb()?;
    let probe_after_ms = probe_in_child()?;

    let mut config: Vec<(&str, String)> = vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("loop", "closed, 1 client".to_string()),
        ("setups", setup_s.len().to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "cost_calibration",
            format!("{:?}", esram_exec::CalibrationMode::from_env()),
        ),
        ("allocator", stats::ALLOCATOR_POLICY.to_string()),
    ];
    config.extend(workload.config());
    let config_json: Vec<String> = config
        .iter()
        .map(|(key, value)| format!("{}: {}", json_str(key), json_str(value)))
        .collect();
    println!("{{\"config\": {{{}}}}}", config_json.join(", "));
    println!(
        "{{\"probe\": {{\"before_ms\": {probe_before_ms}, \"after_ms\": {probe_after_ms}, \"bytes\": {}, \"reads\": {}}}}}",
        stats::PROBE_BYTES,
        stats::PROBE_READS
    );
    println!(
        "{{\"setup\": {{\"runs\": {}, \"min_s\": {}, \"median_s\": {}, \"max_s\": {}, \"peak_rss_mb\": {setup_peak_rss_mb}}}}}",
        setup_s.len(),
        stats::quantile(&setup_s, 0.0),
        median(&setup_s),
        stats::quantile(&setup_s, 1.0)
    );
    let mut paper = workload.paper_metrics();
    paper.push(PaperMetric::new(
        "failed_op_ratio",
        measurement.failed as f64 / measurement.attempted as f64,
        "ratio",
    ));
    let paper_json: Vec<String> = paper
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!("{{\"paper\": {{{}}}}}", paper_json.join(", "));
    if !measurement.op_ms.is_empty() {
        let q = |p: f64| stats::quantile(&measurement.op_ms, p);
        println!(
            "{{\"op_ms\": {{\"samples\": {}, \"min\": {}, \"p10\": {}, \"p50\": {}, \"p90\": {}, \"max\": {}}}}}",
            measurement.op_ms.len(),
            q(0.0),
            q(0.1),
            q(0.5),
            q(0.9),
            q(1.0)
        );
    }

    let values = if args.trace {
        write_trace(args, &tracer)?;
        metrics::per_layer(&tracer, &measurement)
    } else {
        metrics::end_to_end(
            &measurement,
            workload.work(),
            median(&setup_s),
            peak_rss_mb,
            workload.location_coverage(),
        )
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = measurement.failed == 0;
    println!("{}", metrics::result_line(correct, &measurement, table, &values)?);
    Ok(correct)
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, tracer.to_json_lines()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("spans written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--probe") {
        println!("{}", stats::contention_probe_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = check_environment().and_then(|()| stats::pin_allocator()) {
        eprintln!("perfbench: {error}");
        return ExitCode::from(2);
    }
    let scale = Scale::Full;
    let result = match args.workload {
        WorkloadName::FaultSimCampaign => run(&args, |t| FaultSimWorkload::setup(args.seed, scale, t)),
        name => run(&args, |t| SpecWorkload::setup(name, args.seed, scale, t)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// The self-test: every workload at a tiny size passes its checks on
/// both the untraced and the traced path, and the metric names and units
/// it prints are exactly those `BENCHMARK.json` declares.
#[cfg(test)]
mod tests {
    use super::*;
    use esram_spec::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let text_of =
            |metric: &Json, key: &str| metric.get(key).and_then(Json::as_str).expect(key).to_string();
        json.get(section)
            .and_then(Json::as_array)
            .expect(section)
            .iter()
            .map(|metric| (text_of(metric, "name"), text_of(metric, "unit")))
            .collect()
    }

    fn printed(line: &str) -> Vec<(String, String)> {
        let Some(Json::Object(metrics)) = Json::parse(line)
            .expect("result line parses")
            .get("metrics")
            .cloned()
        else {
            panic!("result line has no metrics object");
        };
        metrics
            .into_iter()
            .map(|(name, metric)| {
                (
                    name,
                    metric
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn check_tiny<W: Workload>(setup: impl Fn(&mut Tracer) -> Result<W, String>) {
        let mut tracer = Tracer::new();
        let (workload, setup_s) = setup_repeatedly(&mut tracer, setup).unwrap();
        let untraced = measure(&workload, 0.0, None).unwrap();
        assert_eq!((untraced.attempted, untraced.failed), (2, 0));
        let traced = measure(&workload, 0.0, Some(&mut tracer)).unwrap();
        assert_eq!((traced.attempted, traced.failed), (2, 0));
        assert!(workload
            .paper_metrics()
            .iter()
            .all(|metric| metric.value.is_finite()));
        assert!(workload.location_coverage() > 0.0);

        let values = metrics::end_to_end(
            &untraced,
            workload.work(),
            median(&setup_s),
            1.0,
            workload.location_coverage(),
        );
        let line = metrics::result_line(true, &untraced, END_TO_END, &values).unwrap();
        assert_eq!(printed(&line), declared("end_to_end"));
        let values = metrics::per_layer(&tracer, &traced);
        let line = metrics::result_line(true, &traced, PER_LAYER, &values).unwrap();
        assert_eq!(printed(&line), declared("per_layer"));
        assert!(values["trace.overhead"] > 0.0);
    }

    #[test]
    fn case_study_tiny() {
        check_tiny(|t| SpecWorkload::setup(WorkloadName::CaseStudy, 42, Scale::Tiny, t));
    }

    #[test]
    fn distributed_fleet_tiny() {
        check_tiny(|t| SpecWorkload::setup(WorkloadName::DistributedFleet, 1, Scale::Tiny, t));
    }

    #[test]
    fn baseline_comparison_tiny() {
        check_tiny(|t| SpecWorkload::setup(WorkloadName::BaselineComparison, 1, Scale::Tiny, t));
    }

    #[test]
    fn fault_sim_campaign_tiny() {
        check_tiny(|t| FaultSimWorkload::setup(1, Scale::Tiny, t));
    }

    #[test]
    fn workload_names_match_the_declared_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.as_str()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_are_all_required() {
        let args: Vec<String> = [
            "--workload",
            "case_study",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, WorkloadName::CaseStudy);
        assert!(parsed.trace);
        assert!(parse_args(&args[..6]).is_err());
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
