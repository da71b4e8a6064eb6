//! The repository benchmark's measuring binary.
//!
//! `snooze-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --work-dir <dir>` runs one workload for about `<s>` seconds of set-up
//! plus run iterations, checks every outcome, and prints one JSON object
//! on its last line: the correctness count, every metric the run
//! measured, and a record of the raw samples. `perfbench/run.py` builds
//! this binary, adds provenance and selects the metrics `BENCHMARK.json`
//! declares. See `perfbench/README.md` for the workloads and metrics.

mod mc;
mod offline;
mod probes;
mod report;
mod sim;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{mean, median, Gate, Json, Metrics};
use sim::{Shape, SimOutcome, SimWorkload};
use snooze_scenario::{LiveSystem, ScenarioSpec};

/// Timed iterations a run makes even when one overruns its seconds.
const MIN_RUNS: usize = 2;
/// Before each iteration, a run sets up again and again for this share
/// of the previous iteration's run time.
const SETUP_SHARE: f64 = 0.1;

/// One workload, as the measuring loop sees it.
trait Workload {
    type Ready;
    type Outcome;
    /// Everything before the run proper; timed as `setup_s`.
    fn setup(&self) -> Result<Self::Ready, String>;
    /// The run proper; timed as `run_s`.
    fn run(&self, ready: &mut Self::Ready) -> Result<Self::Outcome, String>;
    /// The workload's correctness gate.
    fn check(&self, o: &Self::Outcome, gate: &mut Gate);
    /// Fingerprint of the outcome that must repeat across iterations.
    fn fingerprint(&self, o: &Self::Outcome) -> u64;
    /// Outcome and layer metrics that follow from a timed run.
    fn metrics(&self, o: &Self::Outcome, run_s: f64, m: &mut Metrics);
    /// One traced run: records the per-layer metrics only it can see
    /// and returns its outcome and run seconds.
    fn traced(&self, m: &mut Metrics) -> Result<(Self::Outcome, f64), String>;
}

struct Sim(SimWorkload);

impl Workload for Sim {
    type Ready = (ScenarioSpec, LiveSystem);
    type Outcome = SimOutcome;

    fn setup(&self) -> Result<Self::Ready, String> {
        self.0.setup()
    }

    fn run(&self, (spec, live): &mut Self::Ready) -> Result<SimOutcome, String> {
        sim::drive(spec, live)
    }

    fn check(&self, o: &SimOutcome, gate: &mut Gate) {
        self.0.check(o, gate)
    }

    fn fingerprint(&self, o: &SimOutcome) -> u64 {
        o.fingerprint()
    }

    fn metrics(&self, o: &SimOutcome, run_s: f64, m: &mut Metrics) {
        let requested = o.requested.max(1) as f64;
        m.put("energy_kwh", o.energy_wh / 1e3, "kWh");
        m.put("placement_p95_s", o.placement_p95_s, "sim_s");
        m.put(
            "unplaced_ratio",
            (o.rejected + o.abandoned) as f64 / requested,
            "ratio",
        );
        m.put(
            "sla_violation_ratio",
            o.sla_violations as f64 / o.sla_samples.max(1) as f64,
            "ratio",
        );
        m.put("gl_failover_s", o.gl_failover_s.unwrap_or(0.0), "sim_s");
        m.put("engine.events", o.events as f64, "count");
        m.put(
            "engine.ns_per_event",
            run_s * 1e9 / o.events.max(1) as f64,
            "host_ns",
        );
        m.put(
            "engine.events_per_sim_s",
            o.events as f64 / o.sim_end_s.max(1e-9),
            "1/sim_s",
        );
        m.put("engine.dead_letters", o.dead_letters as f64, "count");
        m.put("net.sent", o.net_sent as f64, "count");
        m.put("net.delivered", o.net_delivered as f64, "count");
        m.put("net.dropped", o.net_dropped as f64, "count");
        m.put(
            "net.fanout",
            o.net_delivered as f64 / o.net_sent.max(1) as f64,
            "ratio",
        );
    }

    fn traced(&self, m: &mut Metrics) -> Result<(SimOutcome, f64), String> {
        self.0.traced(m)
    }
}

struct Offline {
    seed: u64,
}

impl Workload for Offline {
    type Ready = offline::Ready;
    type Outcome = offline::Outcome;

    fn setup(&self) -> Result<offline::Ready, String> {
        offline::setup(self.seed)
    }

    fn run(&self, ready: &mut offline::Ready) -> Result<offline::Outcome, String> {
        Ok(offline::run(ready))
    }

    fn check(&self, o: &offline::Outcome, gate: &mut Gate) {
        offline::check(o, gate)
    }

    fn fingerprint(&self, o: &offline::Outcome) -> u64 {
        o.fingerprint
    }

    fn metrics(&self, o: &offline::Outcome, _run_s: f64, m: &mut Metrics) {
        offline::metrics(o, m)
    }

    fn traced(&self, m: &mut Metrics) -> Result<(offline::Outcome, f64), String> {
        let ready = offline::setup(self.seed)?;
        let t = Instant::now();
        let o = offline::run(&ready);
        let run_s = t.elapsed().as_secs_f64();
        offline::metrics(&o, m);
        Ok((o, run_s))
    }
}

struct Mc;

impl Workload for Mc {
    type Ready = mc::Ready;
    type Outcome = snooze_mc::McReport;

    fn setup(&self) -> Result<mc::Ready, String> {
        Ok(mc::setup())
    }

    fn run(&self, ready: &mut mc::Ready) -> Result<snooze_mc::McReport, String> {
        Ok(mc::run(ready))
    }

    fn check(&self, r: &snooze_mc::McReport, gate: &mut Gate) {
        mc::check(r, gate)
    }

    fn fingerprint(&self, r: &snooze_mc::McReport) -> u64 {
        r.fingerprint
    }

    fn metrics(&self, r: &snooze_mc::McReport, run_s: f64, m: &mut Metrics) {
        mc::metrics(r, run_s, m)
    }

    fn traced(&self, _m: &mut Metrics) -> Result<(snooze_mc::McReport, f64), String> {
        let mut ready = mc::setup();
        let t = Instant::now();
        let r = mc::run(&mut ready);
        Ok((r, t.elapsed().as_secs_f64()))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => trace = Some(num()? != 0),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// This thread's scheduler account, seconds: (on CPU, waiting to run).
fn thread_sched_s() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = text
        .split_whitespace()
        .map(|v| v.parse::<f64>().unwrap_or(0.0) / 1e9);
    (f.next().unwrap_or(0.0), f.next().unwrap_or(0.0))
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Measured {
    gate: Gate,
    metrics: Metrics,
    /// Mean set-up of each iteration's block, and how many set-ups
    /// were timed in all.
    setup_blocks: Vec<f64>,
    setup_count: usize,
    run_samples: Vec<f64>,
    fingerprint: u64,
}

/// The measuring loop, all of it within `seconds`. Each iteration first
/// sets up repeatedly for a tenth of the previous run's time, at least
/// once, timing each set-up, then times one run on the last set-up. It
/// stops when the next iteration would overrun `seconds`, leaving room
/// for one more when tracing; with tracing, one traced run follows.
/// `run_s` is the median run. `setup_s` is the mean set-up: on a shared
/// host the speed changes in stretches that last from a tenth of a
/// second to seconds, so each block of sub-millisecond set-ups reads one
/// stretch, and a median follows whichever stretch holds the most
/// samples. The mean over blocks spread across the run averages the
/// host over the same stretch as `run_s`. `peak_rss_mb` is the
/// process's peak as of the first run's end.
fn measure<W: Workload>(w: &W, args: &Args) -> Result<Measured, String> {
    let mut gate = Gate::default();
    let mut m = Metrics::default();
    let (mut setups, mut setup_blocks, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut wait) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut last;
    let mut peak_rss = None;
    let budget = Instant::now();
    loop {
        let setting_up = SETUP_SHARE * runs.last().copied().unwrap_or(0.0);
        let (block, from) = (Instant::now(), setups.len());
        let mut ready = loop {
            let t = Instant::now();
            let ready = w.setup()?;
            setups.push(t.elapsed().as_secs_f64());
            if block.elapsed().as_secs_f64() >= setting_up {
                break ready;
            }
        };
        setup_blocks.push(mean(&setups[from..]));
        let (t, s0) = (Instant::now(), thread_sched_s());
        let o = w.run(&mut ready)?;
        runs.push(t.elapsed().as_secs_f64());
        let s1 = thread_sched_s();
        cpu.push(s1.0 - s0.0);
        wait.push(s1.1 - s0.1);
        drop(ready);
        w.check(&o, &mut gate);
        let d = w.fingerprint(&o);
        let want = *first.get_or_insert(d);
        gate.check(d == want, || {
            format!(
                "iteration {} fingerprint {d:016x} != first {want:016x}",
                runs.len()
            )
        });
        last = o;
        // Read after the first run, so the figure does not depend on how
        // many iterations the host's speed allowed.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        let elapsed = budget.elapsed().as_secs_f64();
        let per_iteration = elapsed / runs.len() as f64;
        let ahead = if args.trace { 2.0 } else { 1.0 } * per_iteration;
        if runs.len() >= MIN_RUNS && elapsed + ahead > args.seconds {
            break;
        }
    }

    let fingerprint = first.expect("at least one iteration ran");
    let run_s = median(&runs);
    w.metrics(&last, run_s, &mut m);
    m.put("run_s", run_s, "s");
    m.put("run_cpu_s", median(&cpu), "host_s");
    m.put("run_wait_s", median(&wait), "host_s");
    m.put("setup_s", mean(&setups), "s");
    m.put(
        "peak_rss_mb",
        peak_rss.expect("at least one iteration ran"),
        "MB",
    );
    if args.trace {
        let (o, traced_s) = w.traced(&mut m)?;
        w.check(&o, &mut gate);
        let d = w.fingerprint(&o);
        gate.check(d == fingerprint, || {
            format!("traced run fingerprint {d:016x} != timed {fingerprint:016x}")
        });
        m.put("tracing.run_s", traced_s, "host_s");
        m.put("tracing.overhead_s", traced_s - run_s, "host_s");
    }
    Ok(Measured {
        gate,
        metrics: m,
        setup_count: setups.len(),
        setup_blocks,
        run_samples: runs,
        fingerprint,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("snooze-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let m = match args.workload.as_str() {
        "trace-1k" | "kilonode-burst" => {
            let shape = if args.workload == "trace-1k" {
                Shape::Trace1k
            } else {
                Shape::KilonodeBurst
            };
            let w = SimWorkload::generate(shape, args.seed, &args.work_dir)?;
            measure(&Sim(w), &args)?
        }
        "placement-offline" => measure(&Offline { seed: args.seed }, &args)?,
        "mc-failover" => measure(&Mc, &args)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let Measured {
        mut gate,
        metrics,
        setup_blocks,
        setup_count,
        run_samples,
        fingerprint,
    } = m;
    let all_finite = metrics.all_finite();
    gate.check(all_finite, || "a metric is not a finite number".into());

    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Int(threads as u64)),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("fingerprint".into(), Json::hex(fingerprint)),
        ("run_s_samples".into(), nums(&run_samples)),
        ("setup_s_blocks".into(), nums(&setup_blocks)),
        ("setup_s_count".into(), Json::Int(setup_count as u64)),
        (
            "failures".into(),
            Json::Arr(gate.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ]);
    let out = Json::Obj(vec![
        ("correct".into(), Json::Bool(gate.failed == 0)),
        ("attempted".into(), Json::Int(gate.attempted)),
        ("failed".into(), Json::Int(gate.failed)),
        ("metrics".into(), metrics.to_json()),
        ("record".into(), record),
    ]);
    println!("{}", out.render());
    Ok(if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
