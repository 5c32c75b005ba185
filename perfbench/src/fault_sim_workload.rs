//! The Sec. 4.1 coverage evaluation: March CW fault-simulated over a
//! seeded defect universe plus a slice of the exhaustive stuck-at
//! universe on one 512x100 memory.

use crate::trace::Tracer;
use crate::workload::{OpWork, PaperMetric, Scale, Workload};
use esram_diag::{algorithms, FaultSimKernel, MarchSchedule, MemConfig, ShardPlan, ShardStrategy};
use fault_models::{DefectProfile, FaultClass, FaultInjector, FaultList, FaultUniverse};
use march::{FaultSimOutcome, FaultSimulator};

/// Defect rate of the seeded universe.
const DEFECT_RATE: f64 = 0.005;

/// The seeded universe split by how the simulator handles each class:
/// decoder faults take full sweeps, coupling faults two rows, the other
/// cell faults one row.
const CLASS_SPANS: [&str; 3] = ["fault_sim.decoder", "fault_sim.coupling", "fault_sim.cell"];

fn class_span(class: FaultClass) -> usize {
    match class {
        FaultClass::AddressDecoder => 0,
        FaultClass::Coupling => 1,
        _ => 2,
    }
}

#[derive(Debug)]
pub struct FaultSimWorkload {
    config: MemConfig,
    shard: ShardPlan,
    sim: FaultSimulator,
    schedule: MarchSchedule,
    /// The seeded defect universe.
    defects: FaultList,
    /// The leading faults of the exhaustive stuck-at universe.
    slice: FaultList,
    /// `defects` split per [`CLASS_SPANS`], with each fault's index in
    /// `defects`.
    by_class: Vec<(FaultList, Vec<usize>)>,
    /// Per-memory oracle outcomes of `defects` and `slice`.
    oracle: [Vec<FaultSimOutcome>; 2],
}

impl FaultSimWorkload {
    pub fn setup(seed: u64, scale: Scale, tracer: &mut Tracer) -> Result<Self, String> {
        let (words, width, slice_len) = match scale {
            Scale::Full => (512, 100, 32_768),
            Scale::Tiny => (64, 16, 256),
        };
        let config = MemConfig::new(words, width).map_err(|e| e.to_string())?;
        let schedule = algorithms::march_cw(config.width());
        let (defects, slice) = tracer.span("fault_models.generate", |_| {
            // One seeded draw per class of the paper's four-class mix, at
            // a quarter of the defect rate each: the universe has the
            // 0.5 % profile's expected class mix exactly, so the
            // full-sweep decoder share does not swing with the seed.
            let defects: FaultList = (0u64..)
                .zip(FaultClass::date2005_baseline_classes())
                .flat_map(|(stream, class)| {
                    let profile = DefectProfile::single_class(class, DEFECT_RATE / 4.0);
                    FaultInjector::for_stream(seed, stream).generate(config, &profile)
                })
                .collect();
            let slice: FaultList = FaultUniverse::new(config)
                .stuck_at()
                .iter()
                .take(slice_len)
                .copied()
                .collect();
            (defects, slice)
        });
        let mut by_class: Vec<(FaultList, Vec<usize>)> =
            CLASS_SPANS.iter().map(|_| Default::default()).collect();
        for (index, fault) in defects.iter().enumerate() {
            let (list, indices) = &mut by_class[class_span(fault.class())];
            list.push(*fault);
            indices.push(index);
        }
        let shard = ShardPlan::with_threads(1).with_strategy(ShardStrategy::Cost);
        let oracle_sim = FaultSimulator::new(config).with_kernel(FaultSimKernel::PerMemory);
        let oracle = tracer.span("check.reference", |_| {
            [
                oracle_sim.simulate_universe_with(shard, &schedule, &defects),
                oracle_sim.simulate_universe_with(shard, &schedule, &slice),
            ]
        });
        let workload = FaultSimWorkload {
            config,
            shard,
            sim: FaultSimulator::new(config).with_kernel(FaultSimKernel::Lanes),
            schedule,
            defects,
            slice,
            by_class,
            oracle,
        };
        let warmup = tracer.span("warmup", |_| workload.op())?;
        workload.check(&warmup)?;
        Ok(workload)
    }

    fn faults(&self) -> usize {
        self.defects.len() + self.slice.len()
    }
}

impl Workload for FaultSimWorkload {
    type Output = [Vec<FaultSimOutcome>; 2];

    fn op(&self) -> Result<Self::Output, String> {
        Ok([
            self.sim
                .simulate_universe_with(self.shard, &self.schedule, &self.defects),
            self.sim
                .simulate_universe_with(self.shard, &self.schedule, &self.slice),
        ])
    }

    fn traced_op(&self, tracer: &mut Tracer) -> Result<Self::Output, String> {
        let (per_class, slice) = tracer.span("op", |t| {
            let per_class: Vec<Vec<FaultSimOutcome>> = self
                .by_class
                .iter()
                .zip(CLASS_SPANS)
                .map(|((list, _), name)| {
                    t.span(name, |_| {
                        self.sim.simulate_universe_with(self.shard, &self.schedule, list)
                    })
                })
                .collect();
            let slice = t.span("fault_sim.slice", |_| {
                self.sim
                    .simulate_universe_with(self.shard, &self.schedule, &self.slice)
            });
            (per_class, slice)
        });
        // Scatter the class runs back into universe order.
        let mut defects: Vec<Option<FaultSimOutcome>> = vec![None; self.defects.len()];
        for ((_, indices), outcomes) in self.by_class.iter().zip(per_class) {
            for (&index, outcome) in indices.iter().zip(outcomes) {
                defects[index] = Some(outcome);
            }
        }
        let defects = defects
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("class split lost a fault")?;
        Ok([defects, slice])
    }

    fn check(&self, output: &Self::Output) -> Result<(), String> {
        if *output != self.oracle {
            return Err("fault-sim outcomes differ from the per-memory oracle".to_string());
        }
        Ok(())
    }

    fn work(&self) -> OpWork {
        OpWork {
            cells: self.faults() as u64 * self.config.cells(),
            faults: self.faults() as u64,
        }
    }

    fn location_coverage(&self) -> f64 {
        let located = self
            .oracle
            .iter()
            .flatten()
            .filter(|outcome| outcome.located)
            .count();
        located as f64 / self.faults() as f64
    }

    fn paper_metrics(&self) -> Vec<PaperMetric> {
        let detected = self
            .oracle
            .iter()
            .flatten()
            .filter(|outcome| outcome.detected)
            .count();
        let decoder = self.by_class[0].0.len();
        vec![
            PaperMetric::new("location_coverage", self.location_coverage(), "ratio"),
            PaperMetric::new(
                "detection_coverage",
                detected as f64 / self.faults() as f64,
                "ratio",
            ),
            PaperMetric::new("defect_universe_faults", self.defects.len() as f64, "count"),
            PaperMetric::new("decoder_faults", decoder as f64, "count"),
            PaperMetric::new("stuck_at_slice_faults", self.slice.len() as f64, "count"),
        ]
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("threads", self.shard.threads().to_string()),
            ("strategy", self.shard.strategy().to_string()),
            ("block_size", self.shard.block_size().to_string()),
            ("faultsim_kernel", self.sim.kernel().to_string()),
            ("oracle_kernel", FaultSimKernel::PerMemory.to_string()),
            ("geometry", self.config.to_string()),
            ("schedule", self.schedule.name().to_string()),
        ]
    }
}
