//! `mc-failover`: a state-capped exploration of the failover harness
//! (1 GL and 2 GMs, 2 LCs, an EP and a client), with the `snooze-mc`
//! command's defaults: DFS to depth 12 and one crash per path. The
//! harness fixes the state space, so this workload takes no seed.

use snooze::prelude::SnoozeNode;
use snooze_mc::explorer::{explore, McConfig, McReport, Predicate};
use snooze_mc::failover::FailoverHarness;

use crate::report::{Gate, Metrics};

/// Distinct states after which exploration stops. Small enough that a
/// run makes a dozen or more iterations, so that its set-ups are sampled
/// between many of them (see `measure` in `main.rs`).
pub const STATE_CAP: usize = 5_000;

/// A bootstrapped harness with its invariants and checker settings.
pub struct Ready {
    harness: FailoverHarness,
    predicates: Vec<Predicate<SnoozeNode>>,
    config: McConfig,
}

/// Build and bootstrap the harness: 3 managers, 2 LCs, 10 s of normal
/// execution.
pub fn setup() -> Ready {
    let harness = FailoverHarness::new(3, 2, 10);
    let config = McConfig {
        crash_budget: 1,
        max_states: STATE_CAP,
        crashable: harness.crashable(),
        ..McConfig::default()
    };
    Ready {
        predicates: harness.predicates(),
        harness,
        config,
    }
}

/// Explore from the bootstrapped state.
pub fn run(ready: &mut Ready) -> McReport {
    explore(&mut ready.harness.sim, &ready.predicates, &ready.config)
}

/// No invariant may be violated, and the exploration must reach the cap.
pub fn check(r: &McReport, gate: &mut Gate) {
    gate.check(r.violations.is_empty(), || {
        let v = &r.violations[0];
        format!("violation of {}: {}", v.predicate, v.detail)
    });
    gate.check(r.explored > 0 && r.transitions > 0, || {
        "the exploration visited nothing".into()
    });
}

/// The exploration counts (exact) and the host cost per transition.
pub fn metrics(r: &McReport, run_s: f64, m: &mut Metrics) {
    m.put("mc.states", r.explored as f64, "count");
    m.put("mc.transitions", r.transitions as f64, "count");
    m.put("mc.deduped", r.deduped as f64, "count");
    m.put("mc.liveness_probes", r.liveness_probes as f64, "count");
    m.put(
        "mc.us_per_transition",
        run_s * 1e6 / r.transitions.max(1) as f64,
        "host_us",
    );
}
