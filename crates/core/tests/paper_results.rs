//! Every headline result of the paper in one asserted table.
//!
//! Each row of DESIGN.md's experiment index (E1–E6, F2/F4/F5, the
//! Sec. 3.2 delivery ablation, F6, S1, S2) is computed here, checked
//! against its bound or documented deviation (DESIGN.md, "Modelling
//! substitutions"), and rendered into one markdown table that must match
//! the committed `examples/goldens/paper_results.md` byte for byte. On a
//! mismatch the test prints the table it computed, so a deliberate
//! change is reviewed as a golden diff.
//!
//! The defective benchmark-scale simulation (512 × 100, k = 96-class
//! population) stays in `paper_conformance` under `--ignored`; every row
//! here runs in the default debug test run.

use esram_diag::area::AreaModel;
use esram_diag::{
    algorithms, defect_rate_sweep, scheme_coverage, size_sweep, AnalyticModel, CaseStudy, DataBackground,
    DataWord, DiagnosisResult, DiagnosisScheme, DrfMode, FastScheme, FaultClass, FaultUniverse, HuangScheme,
    MemConfig, Soc, SocBuilder, Sram,
};
use march::CoverageReport;
use serial::{
    BidirectionalSerialInterface, ParallelToSerialConverter, PatternDeliveryBus, SerialToParallelConverter,
    ShiftDirection, ShiftOrder,
};
use std::collections::BTreeSet;
use std::path::Path;

const CLOCK_NS: f64 = 10.0;

/// The benchmark e-SRAM of the case study (from \[16\]).
const N: u64 = 512;
const C: u64 = 100;

const HEADER: &str = "# Paper results

Every headline number of the paper, reproduced and checked against its bound by
`cargo test -p esram-diag --test paper_results`, which fails if this file differs
from what it computes. Deviations cite DESIGN.md, \"Modelling substitutions\".

| ID | Artefact | Paper | Reproduced | Bound or deviation |
|---|---|---|---|---|
";

/// The rendered rows plus every row whose bound failed.
#[derive(Default)]
struct Table {
    rows: String,
    broken: Vec<String>,
}

impl Table {
    /// Adds one markdown row; `holds` is whether its reproduced value
    /// meets its bound.
    fn row(&mut self, row: String, holds: bool) {
        if !holds {
            self.broken.push(row.clone());
        }
        self.rows.push_str(&row);
        self.rows.push('\n');
    }
}

fn pct(ratio: f64) -> String {
    format!("{:.1} %", ratio * 100.0)
}

fn joined(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(" / ")
}

fn rises(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

/// A population of `(count, words, width)` groups at a defect rate and
/// seed.
fn soc(groups: &[(usize, u64, usize)], rate: f64, seed: u64) -> SocBuilder {
    let builder = groups
        .iter()
        .fold(Soc::builder(), |builder, &(count, words, width)| {
            builder.memories(count, words, width).expect("geometry")
        });
    builder.defect_rate(rate).seed(seed).spares(32)
}

fn build(builder: SocBuilder) -> Soc {
    builder.build().expect("population builds")
}

fn fast_no_drf() -> FastScheme {
    FastScheme::new(CLOCK_NS).with_drf_mode(DrfMode::None)
}

/// One pristine benchmark e-SRAM (n = 512, c = 100).
fn benchmark() -> Soc {
    build(soc(&[(1, N, C as usize)], 0.0, 0))
}

fn diagnose(scheme: &dyn DiagnosisScheme, mut soc: Soc) -> DiagnosisResult {
    scheme.diagnose(soc.memories_mut()).expect("diagnosis runs")
}

/// Simulated reduction factor R of the proposed scheme over the baseline
/// on two copies of one population, with both runs.
fn simulated(population: impl Fn() -> Soc) -> (f64, DiagnosisResult, DiagnosisResult) {
    let baseline = diagnose(&HuangScheme::new(CLOCK_NS), population());
    let fast = diagnose(&fast_no_drf(), population());
    (fast.speedup_versus(&baseline), baseline, fast)
}

/// E1–E4: the Sec. 4.2 case study, closed form and simulated.
fn case_study(table: &mut Table) {
    let model = AnalyticModel::date2005_benchmark();
    let report = CaseStudy::date2005().evaluate();
    let (faults, k) = (report.faults, report.iterations);
    table.row(
        format!("| E1 | Sec. 4.2 case study at 1 % defects: faults, baseline iterations k | 256 faults, k = 96 | {faults} faults, k = {k} | exact |"),
        faults == 256 && k == 96,
    );
    let (eq1, analytic) = ((17 * 96 + 9) * N * C, model.baseline_cycles(96));
    table.row(
        format!("| E1 | Eq. (1) baseline cycles (17k + 9)·n·c, n = 512, c = 100, k = 96 | {eq1} | {analytic} | exact |"),
        analytic == eq1,
    );

    let eq2 = (5 * N + 5 * C + 5 * N * (C + 1)) + (3 * N + 3 * C + 2 * N * (C + 1)) * 7; // ⌈log2 100⌉ = 7
    let analytic = model.proposed_cycles();
    let simulated_cycles = diagnose(&fast_no_drf(), benchmark()).cycles;
    table.row(
        format!("| E2 | Eq. (2) proposed cycles, n = 512, c = 100 (analytic / simulated) | {eq2} | {analytic} / {simulated_cycles} | exact, both |"),
        analytic == eq2 && simulated_cycles == eq2,
    );

    let (r, r_drf) = (report.reduction_without_drf, report.reduction_with_drf);
    table.row(
        format!("| E3 | Eq. (3) reduction factor R without DRFs | ≥ 84 | {r:.1} | ≥ 84 |"),
        r >= 84.0,
    );
    table.row(
        format!("| E4 | Eq. (4) reduction factor R with DRFs (200 ms retention pause) | ≥ 145 | {r_drf:.1} | ≥ 140 and > R: the paper rounds its intermediate times (deviation 2) |"),
        r_drf >= 140.0 && r_drf > r,
    );

    // The same comparison simulated cycle by cycle on a shared defect
    // population: both schemes must cost exactly their closed forms.
    let small = AnalyticModel::new(64, 16, CLOCK_NS);
    for rate in [0.005, 0.01, 0.02] {
        let (r, baseline, fast) = simulated(|| build(soc(&[(4, 64, 16)], rate, 42)));
        let (rate, k) = (pct(rate), baseline.iterations);
        let (located, fast_located) = (baseline.located_count(), fast.located_count());
        table.row(
            format!("| E1–E4 | simulated 4 × 64×16, {rate} defects, seed 42: R, baseline k, located sites baseline / proposed | — | R = {r:.1}, k = {k}, located {located} / {fast_located} | cycles = Eq. (1) at the simulated k and Eq. (2); k iterates until a pass finds nothing new (deviation 3) |"),
            baseline.cycles == small.baseline_cycles(k) && fast.cycles == small.proposed_cycles(),
        );
    }
}

/// E5: Sec. 4.1 detection coverage over the exhaustive 8 × 4 universe.
fn coverage(table: &mut Table) {
    let config = MemConfig::new(8, 4).expect("geometry");
    let universe = FaultUniverse::new(config).date2005_full();
    let (faults, drfs) = (universe.len(), FaultUniverse::new(config).data_retention().len());
    let baseline = scheme_coverage(&HuangScheme::new(CLOCK_NS), config, &universe);
    let without = scheme_coverage(&fast_no_drf(), config, &universe);
    let with = scheme_coverage(&FastScheme::new(CLOCK_NS), config, &universe);
    let coverages = |report: &CoverageReport| {
        format!(
            "{} / {}",
            pct(report.detection_coverage()),
            pct(report.location_coverage())
        )
    };
    let universe = format!("{faults} faults ({drfs} DRFs) on 8×4");
    table.row(
        format!("| E5 | detection / location coverage, baseline [7,8], {universe} | lower than proposed | {} | < proposed without NWRTM |", coverages(&baseline)),
        baseline.detection_coverage() < without.detection_coverage(),
    );
    table.row(
        format!("| E5 | detection / location coverage, proposed without NWRTM, {universe} | higher than baseline | {} | every fault but the DRFs |", coverages(&without)),
        without.detected() == faults - drfs && without.located() == without.detected(),
    );
    table.row(
        format!("| E5 | detection / location coverage, proposed with NWRTM, {universe} | + DRFs | {} | = 100 % / 100 % |", coverages(&with)),
        with.detection_coverage() == 1.0 && with.location_coverage() == 1.0,
    );
}

/// E6: Sec. 4.3 area overhead in 6T-cell equivalents.
fn area(table: &mut Table) {
    let model = AreaModel::date2005();
    // The paper charges each multiplexer a full cell; the model charges
    // a 2:1 multiplexer half a cell (deviation 5).
    let full_cell_muxes = AreaModel {
        mux2_cells: 1.0,
        mux4_cells: 2.0,
        ..model
    };
    let (extra, paper_extra) = (model.extra_per_bit(), full_cell_muxes.extra_per_bit());
    table.row(
        format!("| E6 | extra cells per IO bit (SPC + PSC over the bi-directional interface) | 3 | {extra} ({paper_extra} with full-cell multiplexers) | = 3 with full-cell multiplexers; 2.5 with half-cell 2:1 multiplexers (deviation 5) |"),
        extra == 2.5 && paper_extra == 3.0,
    );
    let single = model.report(MemConfig::date2005_benchmark());
    let wires = single.extra_global_wires();
    table.row(
        format!("| E6 | extra global wires (PSC scan_en) | 1 | {wires} | = 1 |"),
        wires == 1,
    );
    let overhead = single.proposed_overhead_ratio();
    table.row(
        format!("| E6 | proposed interface overhead, 512×100 e-SRAM | ≈ 1.8 % | {:.2} % | < 2 %: interface cells only, no control routing (deviation 5) |", overhead * 100.0),
        overhead < 0.02,
    );
    for (words, width) in [(1024, 64), (256, 32), (64, 16), (16, 8)] {
        let report = model.report(MemConfig::new(words, width).expect("geometry"));
        let added = report.extra_overhead_ratio();
        table.row(
            format!("| E6 | baseline / proposed / extra overhead, {words}×{width} | — | {:.2} % / {:.2} % / {:.2} % | extra = 2.5 cells per bit / n words |", report.baseline_overhead_ratio() * 100.0, report.proposed_overhead_ratio() * 100.0, added * 100.0),
            added == extra / words as f64,
        );
    }
    let eight = model.report_for_population(&[MemConfig::date2005_benchmark(); 8]);
    let (proposed, added) = (eight.proposed_overhead_ratio(), eight.extra_overhead_ratio());
    let wires = eight.extra_global_wires();
    table.row(
        format!("| E6 | 8 benchmark e-SRAMs: proposed / extra overhead, extra wires | ≈ 1.8 %, +1 wire | {:.2} % / {:.2} %, +{wires} | ratios = one memory's; wires are global, so +1 |", proposed * 100.0, added * 100.0),
        proposed == overhead && added == single.extra_overhead_ratio() && wires == 1,
    );
}

/// F2/F4/F5: per-operation cycle cost of the serial access fabrics, and
/// the Sec. 3.2 MSB-first vs LSB-first delivery ablation.
fn interfaces(table: &mut Table) {
    let (width, march) = (C as usize, algorithms::march_c_minus());
    let interface = BidirectionalSerialInterface::new(width);
    let mut sram = Sram::new(MemConfig::new(N, width).expect("geometry"));
    let baseline: u64 = march
        .elements()
        .iter()
        .map(|element| {
            let run = interface.run_element(
                &mut sram,
                element,
                DataBackground::Solid,
                ShiftDirection::Right,
                &BTreeSet::new(),
            );
            run.expect("element runs").cycles
        })
        .sum();
    let ops = N * march.complexity_per_address() as u64;
    let per_op = baseline / ops;
    table.row(
        format!("| F2 | bi-directional interface: cycles per read or write (March C−, 512×100) | c = 100 | {per_op} | = c |"),
        baseline == ops * C,
    );

    let pattern = DataWord::checkerboard(width, 0, false);
    let delivery = SerialToParallelConverter::new(width).deliver(&pattern, ShiftOrder::MsbFirst);
    let (_, read) = ParallelToSerialConverter::new(width).serialize(&pattern);
    let proposed = diagnose(&fast_no_drf().with_march_c_minus(), benchmark()).cycles;
    // March C−: 5 writes and 5 reads per address, one delivery per
    // written value per element (5); what remains is the write cost.
    let write = (proposed - 5 * delivery - 5 * N * read) / (5 * N);
    table.row(
        format!("| F4/F5 | SPC delivery / proposed write / PSC read + shift-out, cycles per operation | c / 1 / 1 + c | {delivery} / {write} / {read} | = 100 / 1 / 101, and March C− totals 5n + 5c + 5n(c + 1) |"),
        delivery == C && write == 1 && read == C + 1 && proposed == 5 * N + 5 * C + 5 * N * (C + 1),
    );

    let (wide, mut msb, mut lsb) = (
        DataWord::from_u64(0b0111, 4),
        PatternDeliveryBus::new(&[4, 3]),
        PatternDeliveryBus::with_order(&[4, 3], ShiftOrder::LsbFirst),
    );
    msb.broadcast(&wide);
    lsb.broadcast(&wide);
    let (expected, msb, lsb) = (wide.truncated_lsb(3), msb.pattern_at(1), lsb.pattern_at(1));
    table.row(
        format!("| Sec. 3.2 | DP[3:0] = {wide} broadcast to a 3-bit memory: received MSB-first / LSB-first | {expected} / corrupted | {msb} / {lsb} | MSB-first = DP[2:0] ≠ LSB-first |"),
        msb == expected && lsb != expected,
    );

    let pristine = || build(soc(&[(1, 32, 8), (1, 16, 5)], 0.0, 0));
    let default_order = diagnose(&fast_no_drf(), pristine()).located_count();
    let lsb_first =
        diagnose(&fast_no_drf().with_shift_order(ShiftOrder::LsbFirst), pristine()).located_count();
    table.row(
        format!("| Sec. 3.2 | spurious fault sites on a pristine 32×8 + 16×5 SoC: default (MSB-first) / LSB-first | 0 / > 0 | {default_order} / {lsb_first} | 0 / > 0 |"),
        default_order == 0 && lsb_first > 0,
    );
}

/// F6: NWRTM vs pause-based data-retention diagnosis.
fn drf(table: &mut Table) {
    let (huang, fast) = (HuangScheme::new(CLOCK_NS), FastScheme::new(CLOCK_NS));
    let (huang_pause, fast_pause) = (
        huang.with_retention_pause(100),
        fast.with_drf_mode(DrfMode::RetentionPause(100)),
    );
    // (configuration, scheme, full DRF coverage expected, pause in ms)
    let configurations: [(&str, &dyn DiagnosisScheme, bool, f64); 4] = [
        ("baseline [7,8], no DRF diagnosis", &huang, false, 0.0),
        ("baseline [7,8] + 2 × 100 ms pauses", &huang_pause, true, 200.0),
        ("proposed + 2 × 100 ms pauses", &fast_pause, true, 200.0),
        ("proposed + NWRTM", &fast, true, 0.0),
    ];
    for (label, scheme, full, expected_pause) in configurations {
        let mut soc = build(soc(&[(2, 64, 16)], 0.02, 7).with_data_retention_defects());
        let result = scheme.diagnose(soc.memories_mut()).expect("diagnosis runs");
        let coverage = soc.score(&result).class_coverage(FaultClass::DataRetention);
        let (covered, total, pause_ms) = (pct(coverage), result.time_ms(), result.pause_ms);
        let (paper, relation) = if full {
            (format!("100 %, {expected_pause} ms pause"), "=")
        } else {
            ("misses DRFs".to_string(), "<")
        };
        table.row(
            format!("| F6 | DRF coverage and pause, 2 × 64×16 at 2 %, seed 7: {label} | {paper} | {covered}, {pause_ms} ms pause, {total:.3} ms total | {relation} 100 %, {expected_pause} ms pause |"),
            (coverage == 1.0) == full && pause_ms == expected_pause,
        );
    }
}

/// S1/S2: the shape of R over defect rate and geometry.
fn sweeps(table: &mut Table) {
    let rates = [0.001, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1];
    let points = defect_rate_sweep(&AnalyticModel::date2005_benchmark(), &rates);
    let reductions: Vec<f64> = points.iter().map(|p| p.reduction_without_drf).collect();
    table.row(
        format!("| S1 | analytic R at 0.1 / 0.25 / 0.5 / 1 / 2 / 5 / 10 % defects, 512×100 | — | {} | R rises with the defect rate; proposed time flat |", joined(&reductions)),
        rises(&reductions) && points.iter().all(|p| p.proposed_ms == points[0].proposed_ms),
    );

    let runs: Vec<_> = [0.0025, 0.005, 0.01, 0.02, 0.04]
        .into_iter()
        .map(|rate| simulated(|| build(soc(&[(4, 64, 16)], rate, 11))))
        .collect();
    let reductions: Vec<f64> = runs.iter().map(|run| run.0).collect();
    table.row(
        format!("| S1 | simulated R at 0.25 / 0.5 / 1 / 2 / 4 % defects, 4 × 64×16, seed 11 | — | {} | R rises with the defect rate; proposed cycles flat |", joined(&reductions)),
        rises(&reductions) && runs.iter().all(|run| run.2.cycles == runs[0].2.cycles),
    );

    let geometries = [(128, 8), (128, 16), (512, 64), (512, 100)];
    let reductions: Vec<f64> = size_sweep(&geometries, CLOCK_NS, 0.01)
        .iter()
        .map(|p| p.reduction_without_drf)
        .collect();
    table.row(
        format!("| S2 | analytic R at 1 % for 128×8 / 128×16 / 512×64 / 512×100 | — | {} | R rises with the IO width at equal words |", joined(&reductions)),
        reductions.chunks(2).all(rises),
    );

    let reductions: Vec<f64> = [8, 16, 32]
        .into_iter()
        .map(|width| simulated(|| build(soc(&[(1, 64, width)], 0.01, 21))).0)
        .collect();
    table.row(
        format!("| S2 | simulated R at 1 % for 64×8 / 64×16 / 64×32, seed 21 | — | {} | R rises with the IO width |", joined(&reductions)),
        rises(&reductions),
    );
}

#[test]
fn paper_results_meet_their_bounds_and_match_the_golden() {
    let mut table = Table::default();
    case_study(&mut table);
    coverage(&mut table);
    area(&mut table);
    interfaces(&mut table);
    drf(&mut table);
    sweeps(&mut table);

    let rendered = format!("{HEADER}{}", table.rows);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/goldens/paper_results.md");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if rendered != golden {
        println!("{rendered}");
    }
    assert!(
        table.broken.is_empty(),
        "rows out of bounds:\n{}",
        table.broken.join("\n")
    );
    assert!(
        rendered == golden,
        "{} differs from the computed table printed above",
        golden_path.display()
    );
}
