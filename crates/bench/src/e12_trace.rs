//! **E12 — trace-driven consolidation** (beyond the paper's synthetic
//! workloads).
//!
//! The paper's energy evaluation (§III-B) drives the cluster with
//! hand-parameterized bursts and fleets; E12 replays a canonical VM
//! request trace instead (`snooze-trace`): diurnal arrivals, heavy-tailed
//! lifetimes, correlated cpu/mem reservations, and per-VM piecewise
//! demand curves the hypervisors sample live. The same replay runs under
//! ACO and FFD reconfiguration — the two scenario variants of
//! `scenarios/e12_trace.toml`, differing only in
//! `config.reconfiguration.algo` — and the table compares energy,
//! migration traffic and SLA violations. `BENCH_E12_TRACE.json` at the
//! workspace root is the checked-in baseline.
//!
//! `run_experiments --trace-smoke` is the CI gate: it generates a tiny
//! trace from the fixed seed (or takes one written by `snooze-tracegen`),
//! replays it twice on a reduced 128-LC shape, and fails unless the two
//! runs agree byte-for-byte on the event digest and every table column.

use std::path::Path;

use snooze_scenario::presets;

use crate::table::{f2, Table};

/// One variant's outcome.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Scenario name (`e12-trace-aco`, `e12-trace-ffd`).
    pub name: String,
    /// LCs in the cluster.
    pub lcs: usize,
    /// VM requests the trace submitted.
    pub vms: usize,
    /// VMs placed.
    pub placed: usize,
    /// VMs rejected.
    pub rejected: usize,
    /// Total cluster energy over the horizon, Wh.
    pub energy_wh: f64,
    /// Live migrations performed.
    pub migrations: u64,
    /// Suspend transitions performed.
    pub suspends: u64,
    /// Mean powered-on node count (sampled every minute).
    pub mean_nodes_on: f64,
    /// Mean delivered application performance across samples
    /// (1.0 = no contention anywhere).
    pub mean_performance: f64,
    /// Loaded LC-samples whose performance fell below the SLA floor.
    pub sla_violations: u64,
    /// Loaded LC-samples observed (the violation denominator).
    pub sla_samples: u64,
    /// Deliveries that found no live receiver (must be 0: no faults).
    pub dead_letters: u64,
    /// Advisory wall-clock of the run, ms.
    pub wall_ms: f64,
}

fn row_from_outcome(o: snooze_scenario::ScenarioOutcome, lcs: usize) -> E12Row {
    E12Row {
        name: o.name,
        lcs,
        vms: o.requested_vms,
        placed: o.placed,
        rejected: o.rejected,
        energy_wh: o.energy_wh,
        migrations: o.migrations,
        suspends: o.suspends,
        mean_nodes_on: o.mean_nodes_on,
        mean_performance: o.mean_performance,
        sla_violations: o.sla_violations,
        sla_samples: o.sla_samples,
        dead_letters: o.dead_letters,
        wall_ms: o.wall_ms,
    }
}

/// Run both E12 variants (ACO, then FFD) on `lcs` nodes.
pub fn run(
    lcs: usize,
    trace_path: &str,
    max_vms: usize,
    horizon_secs: u64,
    seed: u64,
) -> Vec<E12Row> {
    presets::e12_trace(lcs, trace_path, max_vms, horizon_secs, seed)
        .iter()
        .map(|spec| {
            let o = snooze_scenario::run(spec)
                .expect("E12 preset compiles")
                .outcome;
            row_from_outcome(o, lcs)
        })
        .collect()
}

/// The full configuration used by `run_experiments e12`: the whole
/// checked-in reference trace on 1000 LCs.
pub fn default_rows() -> Vec<E12Row> {
    run(1000, presets::REFERENCE_TRACE, 0, 10_800, 0xE12)
}

/// Render the table.
pub fn render(rows: &[E12Row]) -> Table {
    let mut t = Table::new(
        "E12: trace-driven consolidation — ACO vs FFD under a diurnal VM trace",
        &[
            "scenario",
            "LCs",
            "VMs",
            "placed",
            "rejected",
            "energy Wh",
            "migrations",
            "suspends",
            "mean nodes on",
            "mean perf",
            "SLA viol",
            "SLA samples",
            "dead letters",
            "wall ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.lcs.to_string(),
            r.vms.to_string(),
            r.placed.to_string(),
            r.rejected.to_string(),
            f2(r.energy_wh),
            r.migrations.to_string(),
            r.suspends.to_string(),
            f2(r.mean_nodes_on),
            f2(r.mean_performance),
            r.sla_violations.to_string(),
            r.sla_samples.to_string(),
            r.dead_letters.to_string(),
            f2(r.wall_ms),
        ]);
    }
    t
}

/// Everything `--trace-smoke` measured.
#[derive(Debug)]
pub struct TraceSmoke {
    /// The first run's rows (one per variant), for rendering.
    pub rows: Vec<E12Row>,
    /// Both runs of every variant agreed on the event digest.
    pub digests_match: bool,
    /// Both runs rendered byte-identical tables.
    pub tables_identical: bool,
    /// The first run's network ledger per variant: the gate wants muted
    /// heartbeats (`muted > 0`) and every transit accounted for.
    pub ledgers: Vec<snooze_simcore::NetLedger>,
    /// Where the trace came from.
    pub trace_path: String,
}

/// Resolve the smoke-trace path: the caller's file when given,
/// otherwise the tiny seed-42 trace generated in-process (asserting the
/// generator is a pure function of the seed). Shared by `--trace-smoke`
/// and `--arena-smoke`.
pub fn smoke_trace_path(trace: Option<&Path>) -> Result<std::path::PathBuf, String> {
    match trace {
        Some(p) => Ok(p.to_path_buf()),
        None => {
            let cfg = snooze_trace::GeneratorConfig {
                vms: 200,
                horizon_s: 1800.0,
                diurnal_period_s: 900.0,
                flash_crowds: 1,
                curve_step_s: 300.0,
            };
            let text = snooze_trace::csv::to_string(&snooze_trace::generate(&cfg, 42));
            let again = snooze_trace::csv::to_string(&snooze_trace::generate(&cfg, 42));
            if text != again {
                return Err("tracegen is not a pure function of the seed".into());
            }
            let dir = std::env::temp_dir().join("snooze-trace-smoke");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let p = dir.join("smoke_seed42.csv");
            std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(p)
        }
    }
}

/// The `--trace-smoke` gate. With `trace` set, replay that file
/// (typically written by `snooze-tracegen --seed 42`); otherwise
/// generate the same tiny trace in-process and additionally assert the
/// generator is a pure function of the seed (two generations must be
/// byte-identical). Either way, run the reduced 128-LC shape twice,
/// compare event digests and rendered tables byte-for-byte, and keep
/// each variant's network ledger for the heartbeat-muting checks.
pub fn smoke(trace: Option<&Path>) -> Result<TraceSmoke, String> {
    let path = smoke_trace_path(trace)?;
    let path_str = path
        .to_str()
        .ok_or_else(|| format!("non-UTF8 trace path {}", path.display()))?;

    let specs = presets::e12_trace_smoke(path_str);
    let mut rows = Vec::new();
    let mut ledgers = Vec::new();
    let mut digests_match = true;
    let mut tables_identical = true;
    for spec in &specs {
        let a = snooze_scenario::run(spec)?;
        let b = snooze_scenario::run(spec)?;
        digests_match &= a.live.sim.digest() == b.live.sim.digest();
        ledgers.push(a.live.sim.net_ledger());
        let row_a = row_from_outcome(a.outcome, 128);
        let row_b = row_from_outcome(b.outcome, 128);
        let strip = |r: &E12Row| {
            render(std::slice::from_ref(r))
                .without_columns(&["wall ms"])
                .to_json()
        };
        tables_identical &= strip(&row_a) == strip(&row_b);
        rows.push(row_a);
    }
    Ok(TraceSmoke {
        rows,
        digests_match,
        tables_identical,
        ledgers,
        trace_path: path_str.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small, fast variant of the default run: 12 LCs, the first 40
    /// trace VMs, 45 simulated minutes.
    fn small_rows() -> Vec<E12Row> {
        run(12, presets::REFERENCE_TRACE, 40, 2700, 0x12)
    }

    #[test]
    fn trace_replay_places_vms_under_both_consolidators() {
        let rows = small_rows();
        assert_eq!(rows.len(), 2, "one row per variant");
        assert_eq!(rows[0].name, "e12-trace-aco");
        assert_eq!(rows[1].name, "e12-trace-ffd");
        for r in &rows {
            assert_eq!(r.vms, 40, "max_vms caps the trace");
            assert!(r.placed > 0, "{}: trace VMs must place", r.name);
            assert_eq!(r.dead_letters, 0, "{}: fault-free run", r.name);
            assert!(r.energy_wh > 0.0);
            assert!(r.sla_samples > 0, "{}: loaded LCs were sampled", r.name);
            assert!(
                r.mean_performance > 0.0 && r.mean_performance <= 1.0,
                "{}: perf in (0, 1], got {}",
                r.name,
                r.mean_performance
            );
        }
        // Admission is identical across variants (placement is
        // round-robin; the consolidator only moves VMs afterwards).
        assert_eq!(rows[0].placed, rows[1].placed);
    }

    #[test]
    fn trace_scenario_is_deterministic_across_runs() {
        let spec = &presets::e12_trace(12, presets::REFERENCE_TRACE, 40, 2700, 0x12)[0];
        let a = snooze_scenario::run(spec).expect("compiles");
        let b = snooze_scenario::run(spec).expect("compiles");
        assert_eq!(
            a.live.sim.digest(),
            b.live.sim.digest(),
            "same spec, same seed: identical event history"
        );
        assert_eq!(a.outcome.sim_events, b.outcome.sim_events);
        assert_eq!(a.outcome.energy_wh, b.outcome.energy_wh);
        assert_eq!(a.outcome.migrations, b.outcome.migrations);
    }

    #[test]
    fn table_has_the_sla_columns() {
        let rendered = render(&small_rows()).render();
        assert!(rendered.contains("SLA viol"));
        assert!(rendered.contains("mean perf"));
        assert!(rendered.contains("energy Wh"));
    }
}
