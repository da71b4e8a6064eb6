//! Observing decorators for the traced run.
//!
//! Both wrap a trait object the deployment already holds and forward
//! every call unchanged, so a traced run executes the same event stream
//! as a timed one (the benchmark checks that the two runs agree).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snooze_cluster::power::PowerModel;
use snooze_consolidation::problem::{Consolidator, Instance, Solution};

/// Per-call record of a wrapped consolidator.
#[derive(Default)]
pub struct ConsolidatorStats {
    /// Wall nanoseconds of each call, in call order.
    pub call_nanos: Vec<u64>,
    /// Items (VMs) offered across all calls.
    pub items: u64,
}

/// Times every `consolidate` call of the wrapped consolidator.
pub struct TimedConsolidator {
    inner: Arc<dyn Consolidator>,
    stats: Arc<Mutex<ConsolidatorStats>>,
}

impl TimedConsolidator {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: Arc<dyn Consolidator>, stats: Arc<Mutex<ConsolidatorStats>>) -> Self {
        TimedConsolidator { inner, stats }
    }
}

impl Consolidator for TimedConsolidator {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        let t = Instant::now();
        let out = self.inner.consolidate(instance);
        let nanos = t.elapsed().as_nanos() as u64;
        let mut s = self
            .stats
            .lock()
            .expect("consolidator stats lock poisoned by a panicking call");
        s.call_nanos.push(nanos);
        s.items += instance.n_items() as u64;
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Call counts of every wrapped power model, shared across nodes.
#[derive(Default)]
pub struct PowerStats {
    /// Calls into any power-model method.
    pub calls: AtomicU64,
    /// Calls that were timed.
    pub timed_calls: AtomicU64,
    /// Wall nanoseconds of the timed calls.
    pub timed_nanos: AtomicU64,
}

impl PowerStats {
    /// Estimated wall seconds inside power models: the sampled mean
    /// call time scaled to every call.
    pub fn busy_s(&self) -> f64 {
        let timed = self.timed_calls.load(Ordering::Relaxed);
        if timed == 0 {
            return 0.0;
        }
        let per_call = self.timed_nanos.load(Ordering::Relaxed) as f64 / timed as f64;
        per_call * self.calls.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Counts every call into the wrapped power model and times one call in
/// [`CountingPower::SAMPLE`], so the clock reads stay cheap next to the
/// arithmetic they measure.
pub struct CountingPower {
    inner: Arc<dyn PowerModel>,
    stats: Arc<PowerStats>,
}

impl CountingPower {
    /// One call in this many is timed.
    pub const SAMPLE: u64 = 64;

    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: Arc<dyn PowerModel>, stats: Arc<PowerStats>) -> Self {
        CountingPower { inner, stats }
    }

    fn observe(&self, f: impl FnOnce(&dyn PowerModel) -> f64) -> f64 {
        let n = self.stats.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(Self::SAMPLE) {
            return f(self.inner.as_ref());
        }
        let t = Instant::now();
        let w = f(self.inner.as_ref());
        let nanos = t.elapsed().as_nanos() as u64;
        self.stats.timed_calls.fetch_add(1, Ordering::Relaxed);
        self.stats.timed_nanos.fetch_add(nanos, Ordering::Relaxed);
        w
    }
}

impl PowerModel for CountingPower {
    fn active_watts(&self, utilization: f64) -> f64 {
        self.observe(|p| p.active_watts(utilization))
    }

    fn suspended_watts(&self) -> f64 {
        self.observe(|p| p.suspended_watts())
    }

    fn off_watts(&self) -> f64 {
        self.observe(|p| p.off_watts())
    }

    fn suspending_watts(&self) -> f64 {
        self.observe(|p| p.suspending_watts())
    }

    fn resuming_watts(&self) -> f64 {
        self.observe(|p| p.resuming_watts())
    }

    fn shutting_down_watts(&self) -> f64 {
        self.observe(|p| p.shutting_down_watts())
    }

    fn booting_watts(&self) -> f64 {
        self.observe(|p| p.booting_watts())
    }
}
