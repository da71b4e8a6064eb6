//! The two simulated workloads, `trace-1k` and `kilonode-burst`.
//!
//! Each is a scenario document the benchmark writes from its seed and
//! then feeds through the public scenario layer: `ScenarioDoc::parse`,
//! `expand`, `snooze_scenario::compile`. The phase program is driven
//! here rather than by `snooze_scenario::run`, which compiles
//! internally, so that set-up and run are timed apart and the traced
//! run can deploy the same spec with observing decorators. Only the
//! phase kinds these two documents use are interpreted; the benchmark's
//! tests check that this interpreter and `snooze_scenario::run` execute the
//! same event stream.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snooze_scenario::compile::SLA_PERFORMANCE_FLOOR;
use snooze_scenario::live::{build_workload, deploy_hierarchy_with, EngineOpts};
use snooze_scenario::spec::{ms_to_span, ms_to_time, Condition, PhaseSpec, TargetSpec};
use snooze_scenario::{LiveSystem, ScenarioDoc, ScenarioSpec, VmIdAlloc};
use snooze_simcore::prelude::*;

use crate::probes::{ConsolidatorStats, CountingPower, PowerStats, TimedConsolidator};
use crate::report::{fnv_fold, median, Gate, Metrics};

/// Heartbeat rows of the handler profile: the traffic ROADMAP item 2
/// sets out to remove.
const HEARTBEAT_ROWS: [(&str, &str); 3] = [
    ("lc", "GlHeartbeat"),
    ("lc", "GmLcHeartbeat"),
    ("gm", "LcMonitoring"),
];

/// Which simulated workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The E12 shape: diurnal trace, 1000 LCs, ACO reconfiguration.
    Trace1k,
    /// The E11 shape: 5000-VM fleet on 1024 LCs, then a GL crash.
    KilonodeBurst,
}

/// A simulated workload's generated inputs.
pub struct SimWorkload {
    shape: Shape,
    toml: String,
    trace_path: Option<PathBuf>,
}

/// The scenario document of `trace-1k`: `scenarios/e12_trace.toml`'s
/// ACO variant, replaying the generated trace at `path`.
fn trace_1k_toml(seed: u64, path: &str) -> String {
    format!(
        r#"name = "trace-1k"
description = "diurnal trace replay on 1000 LCs, aco reconfiguration"
seed = {seed}

[config]
idle_suspend_ms = 120000.0
placement = "round_robin"
preset = "default"
underload_threshold = 0.0

[config.reconfiguration]
aco = "default"
aco_cycles = 15
algo = "aco"
max_migrations = 16
period_ms = 600000.0

[topology]
eps = 1
lcs = 1000
managers = 9

[topology.client]
retry_ms = 15000.0

[[phase]]
every_ms = 60000.0
kind = "sample_to"
t_ms = 10800000.0

[[workload]]
kind = "trace"
max_vms = 0
path = "{path}"
policy = "truncate"
time_scale = 1.0
"#
    )
}

/// The scenario document of `kilonode-burst`: `scenarios/e11.toml`
/// without its `[obs]` and `[[slo]]` tables.
fn kilonode_burst_toml(seed: u64) -> String {
    let fleet_seed = seed ^ 0x11F1EE7;
    format!(
        r#"name = "kilonode-burst"
description = "5000-VM staggered fleet on 1024 LCs, then a GL crash"
seed = {seed}

[config]
idle_suspend_ms = -1.0
preset = "default"

[topology]
eps = 1
lcs = 1024
managers = 9

[topology.client]
retry_ms = 15000.0

[[phase]]
deadline_ms = 3600000.0
kind = "settle"

[[phase]]
delay_ms = 10000.0
fault = "crash"
kind = "fault"
label = "GL crash"
target = "gl"

[phase.observe]
perf_window_ms = 60000.0
step_ms = 2000.0
steps = 90
stop_on_success = false
until = "gl_elected"

[[phase]]
dur_ms = 120000.0
kind = "run_for"

[[workload]]
arrival_at_ms = 30000.0
arrival_spread_s = 600
cores_max = 1.5
cores_min = 0.5
kind = "random_fleet"
lifetime_every = 0
lifetime_max_s = 0
lifetime_min_s = 0
mem_max_mb = 6144.0
mem_min_mb = 2048.0
n = 5000
seed = {fleet_seed}
util_max = 0.8
util_min = 0.3
"#
    )
}

/// What one run of a simulated workload produced. Every field but the
/// host times is a pure function of the scenario document.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    pub digest: u64,
    pub events: u64,
    pub sim_end_s: f64,
    pub dead_letters: u64,
    pub net_sent: u64,
    pub net_delivered: u64,
    pub net_dropped: u64,
    pub requested: usize,
    pub placed: usize,
    pub rejected: usize,
    pub abandoned: usize,
    pub placement_p95_s: f64,
    pub energy_wh: f64,
    pub migrations: u64,
    pub suspends: u64,
    pub wakeups: u64,
    pub sla_samples: u64,
    pub sla_violations: u64,
    /// Seconds from the GL crash until a new GL held, on the observe
    /// grid; `None` without a fault phase or if no GL came back.
    pub gl_failover_s: Option<f64>,
    /// Whether the workload crashed the GL.
    pub crashed_gl: bool,
    pub vms_alive_end: usize,
}

impl SimOutcome {
    /// The engine digest folded with the modelled outcome, so equal
    /// fingerprints mean the same event stream and the same accounting
    /// (a decorator that changed a wattage would not move the digest).
    pub fn fingerprint(&self) -> u64 {
        [
            self.energy_wh.to_bits(),
            self.placement_p95_s.to_bits(),
            self.placed as u64,
            self.rejected as u64,
            self.abandoned as u64,
            self.migrations,
            self.suspends,
            self.wakeups,
            self.sla_violations,
            self.vms_alive_end as u64,
        ]
        .into_iter()
        .fold(self.digest, fnv_fold)
    }
}

impl SimWorkload {
    /// Generate the workload's inputs from `seed`. For `trace-1k` this
    /// writes the generated trace under `work_dir`; generation is the
    /// benchmark's own work and is not part of any timed phase.
    pub fn generate(shape: Shape, seed: u64, work_dir: &Path) -> Result<SimWorkload, String> {
        match shape {
            Shape::Trace1k => {
                let records =
                    snooze_trace::generate(&snooze_trace::GeneratorConfig::default(), seed);
                std::fs::create_dir_all(work_dir)
                    .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
                let path = work_dir.join(format!("trace-1k-{seed}.csv"));
                std::fs::write(&path, snooze_trace::csv::to_string(&records))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                let text = path.to_str().ok_or("work directory is not valid UTF-8")?;
                Ok(SimWorkload {
                    shape,
                    toml: trace_1k_toml(seed, text),
                    trace_path: Some(path),
                })
            }
            Shape::KilonodeBurst => Ok(SimWorkload {
                shape,
                toml: kilonode_burst_toml(seed),
                trace_path: None,
            }),
        }
    }

    /// Parse and expand the scenario document into its one spec.
    pub fn parse(&self) -> Result<ScenarioSpec, String> {
        let mut specs = ScenarioDoc::parse(&self.toml)?.expand()?;
        if specs.len() != 1 {
            return Err(format!("expected one scenario, got {}", specs.len()));
        }
        Ok(specs.remove(0))
    }

    /// The timed set-up: parse, expand, trace read and lowering,
    /// compile and deploy.
    pub fn setup(&self) -> Result<(ScenarioSpec, LiveSystem), String> {
        let spec = self.parse()?;
        let live = snooze_scenario::compile(&spec)?;
        Ok((spec, live))
    }

    /// Check one run's outcome against the workload's correctness gate.
    pub fn check(&self, o: &SimOutcome, gate: &mut Gate) {
        gate.check(o.placed + o.rejected + o.abandoned == o.requested, || {
            format!(
                "placed {} + rejected {} + abandoned {} != requested {}",
                o.placed, o.rejected, o.abandoned, o.requested
            )
        });
        gate.check(o.requested > 0 && o.placed > 0, || {
            "the workload placed nothing".into()
        });
        match self.shape {
            Shape::Trace1k => {
                gate.check(o.dead_letters == 0, || {
                    format!("{} dead letters in a fault-free run", o.dead_letters)
                });
                gate.check(o.energy_wh > 0.0 && o.sla_samples > 0, || {
                    "no energy or SLA samples accounted".into()
                });
            }
            Shape::KilonodeBurst => {
                gate.check(o.crashed_gl && o.gl_failover_s.is_some(), || {
                    "no GL was re-elected after the crash".into()
                });
                gate.check(o.vms_alive_end == o.placed, || {
                    format!(
                        "{} VMs alive at the end, {} placed",
                        o.vms_alive_end, o.placed
                    )
                });
            }
        }
    }

    /// The traced run: per-layer set-up timings, then one run of the
    /// spec deployed with a timed consolidator, counting power models
    /// and the engine's handler profiler. Returns its outcome and wall
    /// seconds.
    pub fn traced(&self, m: &mut Metrics) -> Result<(SimOutcome, f64), String> {
        const REPEATS: usize = 9;
        let mut parse = Vec::new();
        let mut read = Vec::new();
        let mut compile = Vec::new();
        let mut records = 0usize;
        let mut spec = None;
        for _ in 0..REPEATS {
            let t = Instant::now();
            let s = self.parse()?;
            parse.push(t.elapsed().as_secs_f64());
            if let Some(path) = &self.trace_path {
                let t = Instant::now();
                records = snooze_trace::load_path(path)?.len();
                read.push(t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let live = snooze_scenario::compile(&s)?;
            compile.push(t.elapsed().as_secs_f64());
            drop(live);
            spec = Some(s);
        }
        let spec = spec.expect("REPEATS is positive");
        m.put("scenario.parse_s", median(&parse), "host_s");
        m.put("scenario.compile_s", median(&compile), "host_s");
        m.put("trace.read_s", median(&read), "host_s");
        m.put("trace.records", records as f64, "count");

        let cstats = Arc::new(Mutex::new(ConsolidatorStats::default()));
        let pstats = Arc::new(PowerStats::default());
        let mut live = deploy_observed(&spec, &cstats, &pstats)?;
        live.sim.enable_profiler();
        let t = Instant::now();
        let o = drive(&spec, &mut live)?;
        let run_s = t.elapsed().as_secs_f64();

        let rows = live.sim.profile_rows();
        let wall: u64 = rows.iter().map(|r| r.wall_nanos).sum();
        let mut hb = 0u64;
        for r in &rows {
            let events = format!("snooze.{}.{}.events", r.kind, r.variant);
            let share = format!("snooze.{}.{}.wall_share", r.kind, r.variant);
            m.put(&events, r.events as f64, "count");
            m.put(&share, r.wall_nanos as f64 / wall.max(1) as f64, "ratio");
            if HEARTBEAT_ROWS.contains(&(r.kind.as_str(), r.variant.as_str())) {
                hb += r.events;
            }
        }
        m.put(
            "snooze.heartbeat_share",
            hb as f64 / o.events.max(1) as f64,
            "ratio",
        );

        let c = cstats.lock().expect("consolidator stats lock poisoned");
        let mut calls = c.call_nanos.clone();
        calls.sort_unstable();
        let n = calls.len();
        m.put("consolidation.calls", n as f64, "count");
        m.put(
            "consolidation.busy_s",
            calls.iter().sum::<u64>() as f64 / 1e9,
            "host_s",
        );
        let p50 = if n == 0 {
            0.0
        } else {
            calls[(n - 1) / 2] as f64 / 1e6
        };
        m.put("consolidation.call_p50_ms", p50, "host_ms");
        m.put(
            "consolidation.call_max_ms",
            calls.last().copied().unwrap_or(0) as f64 / 1e6,
            "host_ms",
        );
        m.put(
            "consolidation.items_per_call",
            c.items as f64 / n.max(1) as f64,
            "count",
        );
        m.put("consolidation.migrations", o.migrations as f64, "count");
        m.put(
            "power.calls",
            pstats.calls.load(std::sync::atomic::Ordering::Relaxed) as f64,
            "count",
        );
        m.put("power.busy_s", pstats.busy_s(), "host_s");
        m.put("power.suspends", o.suspends as f64, "count");
        m.put("power.wakeups", o.wakeups as f64, "count");
        Ok((o, run_s))
    }
}

/// Deploy `spec` exactly as `snooze_scenario::compile` does, but with the
/// reconfiguration consolidator and every node's power model wrapped in
/// observing decorators. Supports the hierarchy topology with no static
/// faults or `[obs]` table, which is what both workloads use.
fn deploy_observed(
    spec: &ScenarioSpec,
    cstats: &Arc<Mutex<ConsolidatorStats>>,
    pstats: &Arc<PowerStats>,
) -> Result<LiveSystem, String> {
    if spec.topology.unified.is_some() || !spec.faults.is_empty() || spec.obs.is_some() {
        return Err("traced deployment covers fault-free hierarchy specs only".into());
    }
    let mut config = spec.config.build()?;
    if let Some(r) = config.reconfiguration.as_mut() {
        r.consolidator = Arc::new(TimedConsolidator::new(
            r.consolidator.clone(),
            cstats.clone(),
        ));
    }
    let mut nodes = spec.topology.build_nodes(spec.power.as_ref())?;
    for n in &mut nodes {
        n.power = Arc::new(CountingPower::new(n.power.clone(), pstats.clone()));
    }
    let mut alloc = VmIdAlloc::new();
    let mut schedule = Vec::new();
    for w in &spec.workload {
        schedule.extend(build_workload(&mut alloc, w)?);
    }
    let client = spec
        .topology
        .client
        .as_ref()
        .map(|c| (schedule, ms_to_span(c.retry_ms)));
    Ok(deploy_hierarchy_with(
        spec.seed,
        &config,
        spec.topology.managers,
        &nodes,
        spec.topology.eps,
        client,
        &EngineOpts::default(),
    ))
}

fn advance(live: &mut LiveSystem, to: SimTime) {
    if to > live.sim.now() {
        live.sim.run_until(to);
    }
}

/// Interpret the phase program the way `snooze_scenario::run` does for a
/// spec without probes or an `[obs]` table, and collect the outcome.
pub fn drive(spec: &ScenarioSpec, live: &mut LiveSystem) -> Result<SimOutcome, String> {
    let mut o = SimOutcome::default();
    for phase in &spec.phases {
        match phase {
            PhaseSpec::RunTo { t_ms } => advance(live, ms_to_time(*t_ms)),
            PhaseSpec::RunFor { dur_ms } => {
                let to = live.sim.now() + ms_to_span(*dur_ms);
                advance(live, to);
            }
            PhaseSpec::Settle { deadline_ms } => {
                let deadline = ms_to_time(*deadline_ms);
                if live.client_id.is_none() {
                    advance(live, deadline);
                    continue;
                }
                let step = SimSpan::from_secs(5);
                while live.sim.now() < deadline {
                    let next = (live.sim.now() + step).min(deadline);
                    advance(live, next);
                    if live.client().done() {
                        break;
                    }
                }
            }
            PhaseSpec::SampleTo { t_ms, every_ms } => {
                let horizon = ms_to_time(*t_ms);
                let step = ms_to_span(*every_ms);
                while live.sim.now() < horizon {
                    let next = (live.sim.now() + step).min(horizon);
                    advance(live, next);
                    let now = live.sim.now();
                    let (loaded, violating) =
                        live.system()
                            .sla_census(&live.sim, now, SLA_PERFORMANCE_FLOOR);
                    o.sla_samples += loaded as u64;
                    o.sla_violations += violating as u64;
                }
            }
            PhaseSpec::Fault {
                target,
                delay_ms,
                kind,
                observe,
                ..
            } => {
                if kind != "crash" || *target != TargetSpec::Gl {
                    return Err(format!("unsupported fault phase: {kind} on {target:?}"));
                }
                let Some(victim) = live.system().current_gl(&live.sim) else {
                    continue;
                };
                let at = live.sim.now() + ms_to_span(*delay_ms);
                live.sim.schedule_crash(at, victim);
                o.crashed_gl = true;
                if let Some(ob) = observe {
                    if ob.until != Condition::GlElected {
                        return Err(format!("unsupported observe condition {:?}", ob.until));
                    }
                    let step = ms_to_span(ob.step_ms);
                    for i in 1..=ob.steps as u64 {
                        advance(live, at + step * i);
                        if o.gl_failover_s.is_none()
                            && live.system().current_gl(&live.sim).is_some()
                        {
                            o.gl_failover_s = Some(i as f64 * ob.step_ms / 1e3);
                            if ob.stop_on_success {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    let sim = &live.sim;
    let sys = live.system();
    for l in sys
        .lcs
        .iter()
        .filter_map(|&lc| sim.get(lc).and_then(|c| c.as_lc()))
    {
        o.migrations += l.stats.migrations_out;
        o.suspends += l.stats.suspensions;
        o.wakeups += l.stats.wakeups;
    }
    o.energy_wh = sys.total_energy_wh(sim, sim.now());
    o.vms_alive_end = sys.total_vms(sim);
    if let Some(c) = live.client_opt() {
        o.requested = c.schedule_len();
        o.placed = c.placed.len();
        o.rejected = c.rejected.len();
        o.abandoned = c.abandoned.len();
        o.placement_p95_s = c.p95_latency_secs();
    }
    o.digest = sim.digest();
    o.events = sim.events_executed();
    o.sim_end_s = sim.now().as_secs_f64();
    o.dead_letters = sim.dead_letters();
    let metrics = sim.metrics();
    o.net_sent = metrics.counter("net.sent");
    o.net_delivered = metrics.counter("net.delivered");
    o.net_dropped = metrics.counter("net.dropped");
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shrink a workload's document to a test-sized cluster.
    fn small(w: &SimWorkload, lcs: usize) -> ScenarioSpec {
        let mut spec = w.parse().expect("benchmark scenario parses");
        spec.topology.lcs = lcs;
        spec
    }

    fn check_against_library_runner(spec: &ScenarioSpec) {
        let reference = snooze_scenario::run(spec).expect("library run");
        let mut live = snooze_scenario::compile(spec).expect("compile");
        let o = drive(spec, &mut live).expect("interpreted run");
        let r = &reference.outcome;
        assert_eq!(
            o.digest,
            reference.live.sim.digest(),
            "event streams differ"
        );
        assert_eq!(o.events, r.sim_events);
        assert_eq!(o.placed, r.placed);
        assert_eq!(o.rejected, r.rejected);
        assert_eq!(o.abandoned, r.abandoned);
        assert_eq!(o.energy_wh.to_bits(), r.energy_wh.to_bits());
        assert_eq!(o.migrations, r.migrations);
        assert_eq!(o.suspends, r.suspends);
        assert_eq!(o.sla_violations, r.sla_violations);
        assert_eq!(o.sla_samples, r.sla_samples);
        assert_eq!(o.dead_letters, r.dead_letters);
        assert_eq!(o.placement_p95_s.to_bits(), r.p95_latency_s.to_bits());
        if let Some(f) = r.faults.first() {
            assert_eq!(o.gl_failover_s, Some(f.recovery_s));
        }
    }

    #[test]
    fn phase_interpreter_matches_library_runner_on_kilonode_shape() {
        let w = SimWorkload::generate(Shape::KilonodeBurst, 5, Path::new(".")).unwrap();
        let mut spec = small(&w, 48);
        if let snooze_scenario::spec::WorkloadSpec::RandomFleet { n, .. } = &mut spec.workload[0] {
            *n = 120;
        }
        check_against_library_runner(&spec);
    }

    #[test]
    fn phase_interpreter_matches_library_runner_on_trace_shape() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let w = SimWorkload::generate(Shape::Trace1k, 5, &dir).unwrap();
        let mut spec = small(&w, 64);
        if let snooze_scenario::spec::WorkloadSpec::Trace { max_vms, .. } = &mut spec.workload[0] {
            *max_vms = 150;
        }
        if let PhaseSpec::SampleTo { t_ms, .. } = &mut spec.phases[0] {
            *t_ms = 2_700_000.0;
        }
        check_against_library_runner(&spec);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observing_decorators_leave_the_event_stream_unchanged() {
        let dir = std::env::temp_dir().join(format!("perfbench-deco-{}", std::process::id()));
        let w = SimWorkload::generate(Shape::Trace1k, 9, &dir).unwrap();
        let mut spec = small(&w, 48);
        if let snooze_scenario::spec::WorkloadSpec::Trace { max_vms, .. } = &mut spec.workload[0] {
            *max_vms = 120;
        }
        if let PhaseSpec::SampleTo { t_ms, .. } = &mut spec.phases[0] {
            *t_ms = 2_400_000.0;
        }
        let mut plain = snooze_scenario::compile(&spec).unwrap();
        let a = drive(&spec, &mut plain).unwrap();
        let cstats = Arc::new(Mutex::new(ConsolidatorStats::default()));
        let pstats = Arc::new(PowerStats::default());
        let mut observed = deploy_observed(&spec, &cstats, &pstats).unwrap();
        observed.sim.enable_profiler();
        let b = drive(&spec, &mut observed).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.energy_wh.to_bits(), b.energy_wh.to_bits());
        assert!(!cstats.lock().unwrap().call_nanos.is_empty());
        assert!(pstats.calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
