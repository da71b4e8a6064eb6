//! `placement-offline`: the paper's E1/E2 shape. Seeded GRID'11
//! instances, each solved by ACO (`AcoConsolidator::run`, default
//! parameters) and by FFD from the consolidator registry. No engine.

use std::time::Instant;

use snooze_consolidation::registry::{ConsolidatorRegistry, Params};
use snooze_consolidation::{AcoConsolidator, AcoParams, Consolidator, Instance, InstanceGenerator};
use snooze_simcore::rng::SimRng;

use crate::report::{fnv_fold, Gate, Metrics, FNV_OFFSET};

/// VMs per instance of the set.
pub const SIZES: [usize; 3] = [128, 256, 512];

/// The instance set plus the two solvers.
pub struct Ready {
    instances: Vec<Instance>,
    ffd: Box<dyn Consolidator>,
}

/// One instance's results.
pub struct Solved {
    pub lower_bound: usize,
    pub aco_bins: Option<usize>,
    pub ffd_bins: Option<usize>,
    pub aco_feasible: bool,
    pub ffd_feasible: bool,
}

/// One pass over the instance set.
#[derive(Default)]
pub struct Outcome {
    pub solved: Vec<Solved>,
    pub aco_s: f64,
    pub ffd_s: f64,
    pub construction_steps: u64,
    pub evaluation_comparisons: u64,
    pub evaporation_updates: u64,
    /// FNV-1a fold of every solution's assignment.
    pub fingerprint: u64,
}

/// Build the instance set from `seed`: one generator stream, instances
/// drawn in [`SIZES`] order.
pub fn setup(seed: u64) -> Result<Ready, String> {
    let mut rng = SimRng::new(seed);
    let gen = InstanceGenerator::grid11();
    let instances = SIZES.iter().map(|&n| gen.generate(n, &mut rng)).collect();
    let ffd = ConsolidatorRegistry::standard().build("ffd", &Params::new())?;
    Ok(Ready { instances, ffd })
}

/// Solve every instance with both algorithms, timing each call.
pub fn run(ready: &Ready) -> Outcome {
    let aco = AcoConsolidator::new(AcoParams::default());
    let mut o = Outcome {
        fingerprint: FNV_OFFSET,
        ..Outcome::default()
    };
    for inst in &ready.instances {
        let t = Instant::now();
        let run = aco.run(inst);
        o.aco_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let ffd = ready.ffd.consolidate(inst);
        o.ffd_s += t.elapsed().as_secs_f64();

        o.construction_steps += run.profile.construction_steps;
        o.evaluation_comparisons += run.profile.evaluation_comparisons;
        o.evaporation_updates += run.profile.evaporation_updates;
        for s in [&run.solution, &ffd].into_iter().flatten() {
            o.fingerprint = s
                .assignment
                .iter()
                .fold(o.fingerprint, |h, &b| fnv_fold(h, b as u64));
        }
        o.solved.push(Solved {
            lower_bound: inst.lower_bound(),
            aco_bins: run.solution.as_ref().map(|s| s.bins_used()),
            ffd_bins: ffd.as_ref().map(|s| s.bins_used()),
            aco_feasible: run.solution.as_ref().is_some_and(|s| s.is_feasible(inst)),
            ffd_feasible: ffd.as_ref().is_some_and(|s| s.is_feasible(inst)),
        });
    }
    o
}

/// Every solution exists, is feasible and uses at least the lower bound.
pub fn check(o: &Outcome, gate: &mut Gate) {
    gate.check(o.solved.len() == SIZES.len(), || {
        format!("solved {} of {} instances", o.solved.len(), SIZES.len())
    });
    for (i, s) in o.solved.iter().enumerate() {
        for (algo, bins, feasible) in [
            ("aco", s.aco_bins, s.aco_feasible),
            ("ffd", s.ffd_bins, s.ffd_feasible),
        ] {
            gate.check(feasible, || {
                format!("{algo} on instance {i}: no feasible solution")
            });
            gate.check(bins.is_some_and(|b| b >= s.lower_bound), || {
                format!(
                    "{algo} on instance {i}: {bins:?} bins below the lower bound {}",
                    s.lower_bound
                )
            });
        }
    }
}

fn sum(o: &Outcome, f: impl Fn(&Solved) -> usize) -> f64 {
    o.solved.iter().map(f).sum::<usize>() as f64
}

/// The workload's outcome and layer metrics, all exact but the times.
pub fn metrics(o: &Outcome, m: &mut Metrics) {
    let lb = sum(o, |s| s.lower_bound);
    let aco = sum(o, |s| s.aco_bins.unwrap_or(0));
    m.put("bins_over_lb", aco / lb.max(1.0), "ratio");
    m.put("aco.bins", aco, "count");
    m.put("ffd.bins", sum(o, |s| s.ffd_bins.unwrap_or(0)), "count");
    m.put("lb.bins", lb, "count");
    m.put("aco.solve_s", o.aco_s, "host_s");
    m.put("ffd.solve_s", o.ffd_s, "host_s");
    m.put(
        "aco.construction_steps",
        o.construction_steps as f64,
        "count",
    );
    m.put(
        "aco.evaluation_comparisons",
        o.evaluation_comparisons as f64,
        "count",
    );
    m.put(
        "aco.evaporation_updates",
        o.evaporation_updates as f64,
        "count",
    );
}
