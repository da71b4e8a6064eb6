//! The discrete-event engine.
//!
//! User logic lives in [`Component`]s. Each component is addressed by a
//! [`ComponentId`] and reacts to three stimuli: a start signal, messages
//! from other components (routed through the simulated [`crate::network`]),
//! and timers it set on itself. All interaction with the simulation happens
//! through the [`Ctx`] handle passed into every callback — components never
//! hold references to one another, which is what makes crash injection and
//! deterministic replay trivial.
//!
//! The engine is *generic over its message type*: a [`Component`] declares
//! the closed message set it speaks as [`Component::Msg`] (typically an
//! enum), the engine is [`Engine<C>`] over one component type `C`, and a
//! heterogeneous system wraps its node kinds in a dispatch enum — see
//! [`node_enum!`](crate::node_enum). Messages travel by value, handlers
//! match exhaustively, and the compiler checks every arm: no `Box`, no
//! `Any`, no runtime casts on the deliver path.
//!
//! Events are executed in `(time, sequence)` order; the sequence number
//! breaks ties in scheduling order, so the engine is fully deterministic.
//!
//! # Sharded execution
//!
//! The engine can be *sharded*: [`SimBuilder::shards`] partitions the
//! components into `S` groups, each with its own event queue, RNG stream,
//! timer-id space and FIFO clamps. Execution then proceeds in conservative
//! lookahead windows (see [`crate::exec`]): every shard independently
//! executes its events up to a horizon derived from the minimum cross-shard
//! network latency, and the window's effects (digest records, cross-shard
//! messages, liveness changes) are committed in deterministic shard-major
//! order. Shards may run on worker threads ([`SimBuilder::workers`]); the
//! audited digest of an `N`-worker run is byte-identical to the same
//! engine run with one worker, because the window structure and the commit
//! order never depend on the worker count. `shards(1)` (the default) is
//! byte-identical to the historical single-queue engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use snooze_telemetry::label::label;
use snooze_telemetry::span::{SpanId, SpanLog};

use crate::equeue::{EventQueue, QueueKind};
use crate::mc::McState as _;
use crate::metrics::MetricsRegistry;
use crate::network::{FifoClamps, GroupMember, GroupOp, Network, NetworkConfig};
use crate::rng::SimRng;
use crate::time::{SimSpan, SimTime};
use crate::trace::Trace;

/// Identifies a registered component. Ids are dense indices assigned in
/// registration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

impl ComponentId {
    /// Pseudo-sender for messages injected from outside the simulation
    /// (e.g. a test driver posting a client request).
    pub const EXTERNAL: ComponentId = ComponentId(usize::MAX);
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ComponentId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

impl From<ComponentId> for u64 {
    fn from(id: ComponentId) -> u64 {
        id.0 as u64
    }
}

/// Identifies a multicast group on the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub usize);

/// Handle for cancelling a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(u64);

/// A simulated process speaking a closed, typed message set.
///
/// [`Component::Msg`] is the message type this component sends and
/// receives — usually a workspace enum (one variant per wire message),
/// so `on_message` is an exhaustive `match` the compiler checks.
///
/// Components are `Send` (and their messages too) so a sharded engine can
/// execute disjoint shards on worker threads. A component is only ever
/// touched by one thread at a time — the bound is about moving shards to
/// workers, not about shared access.
pub trait Component: Send {
    /// The message type this component exchanges over the simulated
    /// network. Every component registered in one [`Engine`] shares it.
    type Msg: Send;

    /// Called once when the simulation starts (or never, if the component
    /// is registered after `run` began — use messages to bootstrap those).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A message arrived from `src` over the simulated network.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, src: ComponentId, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] fired. `tag` is the caller-chosen
    /// discriminator.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _tag: u64) {}

    /// The failure injector crashed this component. State is *not* cleared
    /// automatically — a crashed process keeps its memory so tests can
    /// inspect it — but no events will be delivered until restart.
    fn on_crash(&mut self, _now: SimTime) {}

    /// The failure injector restarted this component. Implementations
    /// should reset volatile state here, as a freshly exec'd process would.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Which shard this component prefers to live in, used by
    /// [`Engine::add_component`] on sharded engines (`None` → shard 0;
    /// values wrap modulo the shard count). Systems that know their
    /// topology — e.g. a GM subtree and the LCs under it — override this
    /// so chatty neighbors share a queue and cross-shard traffic stays on
    /// the (lookahead-bounded) slow path.
    fn shard_hint(&self) -> Option<usize> {
        None
    }
}

/// A scheduled change to the simulated network's health — the
/// event-scheduled form of fault injection that used to require driver
/// code stepping the engine and mutating [`Engine::network_mut`] by
/// hand. Installed via [`Engine::schedule_net_fault`] (or declaratively
/// through [`crate::failure::FailurePlan`]), it fires in event order
/// like any other event, so fault schedules are part of the audited,
/// digest-covered history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetFault {
    /// Cut a component off from the network entirely.
    Isolate(ComponentId),
    /// Reconnect a previously isolated component.
    Reconnect(ComponentId),
    /// Degrade every link: set the message-loss probability, in parts
    /// per million (integer, so fault schedules stay `Eq`/hashable).
    SetLossPpm(u32),
}

#[derive(Clone)]
pub(crate) enum EventKind<M> {
    Start(ComponentId),
    Deliver {
        src: ComponentId,
        dst: ComponentId,
        msg: M,
        /// Causal span context riding along with the message — the
        /// simulated analogue of trace-context propagation headers.
        span: Option<SpanId>,
    },
    Timer {
        dst: ComponentId,
        tag: u64,
        incarnation: u32,
        id: u64,
        /// Span context carried across the timer (explicitly opted into
        /// via [`Ctx::set_timer_in`]; plain timers never inherit one, so
        /// periodic ticks don't capture unrelated submission contexts).
        span: Option<SpanId>,
    },
    Crash(ComponentId),
    Restart(ComponentId),
    Net(NetFault),
}

#[derive(Clone)]
pub(crate) struct Scheduled<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Digest words of an event kind: `(discriminant, a, b)`. Span contexts
/// are observers, not causes: they are folded into the SpanLog's own
/// digest, never into the event digest, so instrumentation cannot perturb
/// the audited history. Payloads are likewise never folded — the digest is
/// message-type-agnostic, which is what let the typed message layer
/// replace the old type-erased one digest-identically.
pub(crate) fn event_words<M>(kind: &EventKind<M>) -> (u64, u64, u64) {
    match kind {
        EventKind::Start(id) => (1, id.0 as u64, 0),
        EventKind::Deliver { src, dst, .. } => (2, src.0 as u64, dst.0 as u64),
        EventKind::Timer { dst, tag, .. } => (3, dst.0 as u64, *tag),
        EventKind::Crash(id) => (4, id.0 as u64, 0),
        EventKind::Restart(id) => (5, id.0 as u64, 0),
        EventKind::Net(NetFault::Isolate(id)) => (6, id.0 as u64, 0),
        EventKind::Net(NetFault::Reconnect(id)) => (6, id.0 as u64, 1),
        EventKind::Net(NetFault::SetLossPpm(ppm)) => (6, *ppm as u64, 2),
    }
}

/// One executed event's digest record, buffered by a shard during a
/// lookahead window and folded into the engine digest at commit, in
/// shard-major order.
#[derive(Clone, Copy)]
pub(crate) struct ExecRec {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) disc: u64,
    pub(crate) a: u64,
    pub(crate) b: u64,
}

/// Where the network transits of a run ended up, read from the `net.*`
/// counters plus the deliveries still queued. Every transit a send or a
/// multicast draws counts once in `sent` and ends exactly one way, so
/// [`NetLedger::balanced`] holds at any point between events. Messages
/// injected with [`Engine::post`] draw no transit; they count only where
/// they land, so a run that posts does not balance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetLedger {
    /// Transits drawn (`net.sent`).
    pub sent: u64,
    /// Delivered to a live component (`net.delivered`).
    pub delivered: u64,
    /// Lost to random loss, a partition or isolation (`net.dropped`).
    pub dropped: u64,
    /// Skipped for a live member that muted the group (`net.muted`).
    pub muted: u64,
    /// Arrived at a crashed or unknown component (`net.to_dead`).
    pub to_dead: u64,
    /// Drawn but not yet delivered.
    pub in_flight: u64,
}

impl NetLedger {
    /// `sent == delivered + dropped + muted + to_dead + in_flight`.
    pub fn balanced(&self) -> bool {
        self.sent == self.delivered + self.dropped + self.muted + self.to_dead + self.in_flight
    }
}

/// Hot-path counters a shard accumulates instead of hitting the labeled
/// metrics registry per event; flushed into the named counters when the
/// engine returns control to the caller.
#[derive(Default, Clone, Copy)]
pub(crate) struct FastCounters {
    pub(crate) sent: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    pub(crate) muted: u64,
    pub(crate) to_dead: u64,
    pub(crate) crashes: u64,
    pub(crate) restarts: u64,
}

/// A span-log mutation recorded by a shard during a window and replayed
/// against the shared [`SpanLog`] in shard order at flush time.
pub(crate) enum SpanOp {
    Open {
        id: SpanId,
        name: &'static str,
        track: u64,
        parent: Option<SpanId>,
        at: u64,
    },
    Close {
        id: SpanId,
        at: u64,
    },
    Label {
        id: SpanId,
        key: &'static str,
        value: String,
    },
}

/// Per-shard buffers for everything a worker thread produces during a
/// window but must not write into shared engine state until commit.
pub(crate) struct ShardScratch<M> {
    /// Cross-shard sends: `(destination shard, arrival time, event)`.
    pub(crate) outbox: Vec<(u32, SimTime, EventKind<M>)>,
    /// Executed-event digest records, in execution order.
    pub(crate) recs: Vec<ExecRec>,
    /// Events executed this window.
    pub(crate) events: u64,
    /// Delta metrics (labeled counters etc.) absorbed at flush.
    pub(crate) metrics: MetricsRegistry,
    /// Unlabeled hot-path counters.
    pub(crate) fast: FastCounters,
    /// Liveness overlay: `component id -> (alive, incarnation)` for
    /// own-shard crashes/restarts executed this window.
    pub(crate) live: BTreeMap<usize, (bool, u32)>,
    /// Multicast membership deltas (joins, leaves, mutes, unmutes), in
    /// the order this shard's components made them.
    pub(crate) groups: Vec<(GroupId, ComponentId, GroupOp)>,
    /// Span-log mutations, replayed in shard order at flush.
    pub(crate) spans: Vec<SpanOp>,
    /// Parent links for shard-allocated span ids (persistent — span
    /// stacks must survive across windows and flushes).
    pub(crate) span_parents: BTreeMap<u64, Option<SpanId>>,
    /// Count of spans this shard has opened (persistent; span ids are
    /// `((shard+1) << 40) | counter`, so shards never collide with each
    /// other or with densely allocated sequential-mode ids).
    pub(crate) next_span: u64,
    /// Ambient span context of the event being executed.
    pub(crate) ctx_span: Option<SpanId>,
    /// Buffered trace records, replayed in shard order at flush.
    pub(crate) trace: Vec<(SimTime, ComponentId, &'static str, String)>,
    /// A component called [`Ctx::halt`] this window.
    pub(crate) halt: bool,
    /// `(time, seq)` of the last event this shard executed — the audit's
    /// witness that each shard's stream is strictly ordered.
    pub(crate) last_executed: Option<(SimTime, u64)>,
    /// Per-shard profiler (sharded engines only); merged on read.
    pub(crate) profiler: Option<crate::flight::Profiler>,
    /// Buffered flight-recorder events, merged by time at commit.
    pub(crate) flight: Vec<crate::flight::FlightEvent>,
}

impl<M> ShardScratch<M> {
    fn new() -> Self {
        ShardScratch {
            outbox: Vec::new(),
            recs: Vec::new(),
            events: 0,
            metrics: MetricsRegistry::new(),
            fast: FastCounters::default(),
            live: BTreeMap::new(),
            groups: Vec::new(),
            spans: Vec::new(),
            span_parents: BTreeMap::new(),
            next_span: 0,
            ctx_span: None,
            trace: Vec::new(),
            halt: false,
            last_executed: None,
            profiler: None,
            flight: Vec::new(),
        }
    }
}

/// One shard: an event queue plus every piece of mutable engine state
/// that can be owned per-partition without changing observable behavior
/// at `shards(1)` — the RNG stream, timer-id space, cancelled-timer set
/// and per-link FIFO clamps (clamp keys are `(src, dst)` and `src`
/// determines the shard, so per-shard maps are disjoint by construction).
pub(crate) struct ShardState<M> {
    pub(crate) queue: EventQueue<M>,
    pub(crate) seq: u64,
    pub(crate) rng: SimRng,
    pub(crate) next_timer_id: u64,
    pub(crate) cancelled_timers: BTreeSet<u64>,
    pub(crate) fifo: FifoClamps,
    pub(crate) scratch: ShardScratch<M>,
}

impl<M> ShardState<M> {
    fn new(kind: QueueKind, rng: SimRng) -> Self {
        ShardState {
            queue: EventQueue::new(kind),
            seq: 0,
            rng,
            next_timer_id: 0,
            cancelled_timers: BTreeSet::new(),
            fifo: FifoClamps::new(),
            scratch: ShardScratch::new(),
        }
    }
}

/// Read-only view of the shared engine state a shard may consult while
/// executing a window: the network (health, groups, latency model), the
/// pre-window liveness vectors, and the component→shard mapping. All
/// shards see the same frozen view regardless of worker count — that is
/// the heart of the "digest independent of `workers`" guarantee.
pub(crate) struct SharedView<'a, M> {
    pub(crate) network: &'a Network,
    pub(crate) names: &'a [String],
    pub(crate) alive: &'a [bool],
    pub(crate) incarnation: &'a [u32],
    pub(crate) shard_of: &'a [u32],
    pub(crate) local_of: &'a [u32],
    pub(crate) n_components: usize,
    pub(crate) classifier: Option<fn(&M) -> &'static str>,
    pub(crate) flight_on: bool,
}

impl<M> Clone for SharedView<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for SharedView<'_, M> {}

/// The mutable half of a worker-side context: the shard being executed
/// plus the frozen shared view.
pub(crate) struct ShardCtx<'a, M> {
    pub(crate) shard: usize,
    pub(crate) now: SimTime,
    pub(crate) state: &'a mut ShardState<M>,
    pub(crate) shared: SharedView<'a, M>,
}

/// Everything the engine owns apart from the components themselves.
/// Split out so a component can be borrowed mutably while its [`Ctx`]
/// mutates the rest of the engine.
pub(crate) struct EngineCore<M> {
    pub(crate) now: SimTime,
    /// The event-queue partitions. Always at least one; `shards.len() == 1`
    /// is the historical single-queue engine, byte-for-byte.
    pub(crate) shards: Vec<ShardState<M>>,
    /// Component id → shard index.
    pub(crate) shard_of: Vec<u32>,
    /// Component id → index within its shard's component vector.
    pub(crate) local_of: Vec<u32>,
    /// Scheduled network faults, kept outside the shard queues on sharded
    /// engines (they mutate global network state, so they act as window
    /// barriers). Sorted by `(time, seq)`; seqs come from shard 0's
    /// counter. Always empty at `shards(1)`.
    pub(crate) net_events: Vec<(SimTime, u64, NetFault)>,
    /// Conservative lookahead: the minimum cross-component network
    /// latency, fixed at build time. A shard may run `lookahead` ahead of
    /// the global minimum because no cross-shard message can arrive
    /// sooner than that.
    pub(crate) lookahead: SimSpan,
    /// Worker threads to execute windows on (1 = inline). Purely a
    /// throughput knob: never observable in the digest.
    pub(crate) workers: usize,
    pub(crate) network: Network,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) trace: Trace,
    pub(crate) spans: SpanLog,
    /// Ambient span context for the event being executed: seeded from
    /// the incoming message/timer context, updated by [`Ctx::span_open`]
    /// so later sends in the same handler propagate the innermost span.
    pub(crate) ctx_span: Option<SpanId>,
    pub(crate) alive: Vec<bool>,
    pub(crate) incarnation: Vec<u32>,
    pub(crate) names: Vec<String>,
    pub(crate) halted: bool,
    pub(crate) events_executed: u64,
    /// Running FNV-1a fingerprint of the executed event stream.
    pub(crate) digest: u64,
    /// `(time, seq)` of the last executed event — the audit's witness
    /// that the executed stream is strictly ordered (single-shard only;
    /// sharded engines witness per-shard order in their scratch).
    pub(crate) last_executed: Option<(SimTime, u64)>,
    /// Names payloads of `M` for the profiler, the flight recorder and
    /// the `dead_letters{msg}` breakdown. An observer: never folded
    /// into the digest, excluded from mc snapshots and fingerprints.
    pub(crate) classifier: Option<fn(&M) -> &'static str>,
    /// Per-(component kind, message variant) event attribution; `None`
    /// until enabled. Observer.
    pub(crate) profiler: Option<crate::flight::Profiler>,
    /// Bounded ring of recent executed events; `None` until enabled.
    /// Observer.
    pub(crate) flight: Option<crate::flight::FlightRecorder>,
}

impl<M> EngineCore<M> {
    /// Fold one executed event record into the run digest. The digest
    /// covers the full executed stream — `(time, seq, kind, endpoints)`
    /// per event — so two runs agree on it iff they executed the same
    /// history.
    pub(crate) fn fold_exec(&mut self, time: SimTime, seq: u64, disc: u64, a: u64, b: u64) {
        let mut h = self.digest;
        for word in [time.0, seq, disc, a, b] {
            h = crate::trace::fnv1a(h, &word.to_le_bytes());
        }
        self.digest = h;
    }

    fn fold_event(&mut self, ev: &Scheduled<M>) {
        let (disc, a, b) = event_words(&ev.kind);
        self.fold_exec(ev.time, ev.seq, disc, a, b);
    }

    /// Shard housing component `id` (0 for unknown ids, including
    /// [`ComponentId::EXTERNAL`]).
    pub(crate) fn shard_idx(&self, id: ComponentId) -> usize {
        self.shard_of.get(id.0).map(|&s| s as usize).unwrap_or(0)
    }

    /// Which shard's queue an event belongs in: the shard of the
    /// component it targets. Network faults are global and live in
    /// `net_events` on sharded engines (`schedule` special-cases them).
    fn shard_for_kind(&self, kind: &EventKind<M>) -> usize {
        match kind {
            EventKind::Start(id) | EventKind::Crash(id) | EventKind::Restart(id) => {
                self.shard_idx(*id)
            }
            EventKind::Deliver { dst, .. } => self.shard_idx(*dst),
            EventKind::Timer { dst, .. } => self.shard_idx(*dst),
            EventKind::Net(_) => 0,
        }
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let time = at.max(self.now);
        if self.shards.len() > 1 {
            if let EventKind::Net(fault) = &kind {
                // Global-state events act as window barriers; they draw
                // seqs from shard 0 so their identity stays unambiguous.
                let fault = *fault;
                let sh = &mut self.shards[0];
                let seq = sh.seq;
                sh.seq += 1;
                let pos = self
                    .net_events
                    .partition_point(|&(t, s, _)| (t, s) <= (time, seq));
                self.net_events.insert(pos, (time, seq, fault));
                return;
            }
        }
        let s = if self.shards.len() == 1 {
            0
        } else {
            self.shard_for_kind(&kind)
        };
        let sh = &mut self.shards[s];
        let seq = sh.seq;
        sh.seq += 1;
        sh.queue.push(Scheduled { time, seq, kind });
    }

    /// Draw the transit of one message and enqueue its delivery. With
    /// `muted` set the transit is still drawn — same latency sample, same
    /// FIFO clamp — but a message that would arrive is neither built nor
    /// enqueued; returns whether that happened.
    fn send_via_network(
        &mut self,
        src: ComponentId,
        dst: ComponentId,
        extra: SimSpan,
        muted: bool,
        msg: impl FnOnce() -> M,
        span: Option<SpanId>,
    ) -> bool {
        let departs = self.now + extra;
        let s = self.shard_idx(src);
        let arrival = {
            let EngineCore {
                shards, network, ..
            } = self;
            let sh = &mut shards[s];
            network.transit(src, dst, departs, &mut sh.rng, &mut sh.fifo)
        };
        match arrival {
            Some(_) if muted => return true,
            Some(arrival) => {
                self.schedule(
                    arrival,
                    EventKind::Deliver {
                        src,
                        dst,
                        msg: msg(),
                        span,
                    },
                );
            }
            None => {
                self.metrics.incr("net.dropped");
            }
        }
        false
    }

    /// Drain every shard's observer buffers into the shared registries,
    /// in shard order. Called when a sharded engine returns control to
    /// the caller (end of `step`/`run`/`run_until`); a no-op at
    /// `shards(1)`, where components write the shared state directly.
    pub(crate) fn flush_shard_observers(&mut self) {
        if self.shards.len() <= 1 {
            return;
        }
        for s in 0..self.shards.len() {
            let fast = std::mem::take(&mut self.shards[s].scratch.fast);
            for (key, n) in [
                ("net.sent", fast.sent),
                ("net.delivered", fast.delivered),
                ("net.dropped", fast.dropped),
                ("net.muted", fast.muted),
                ("net.to_dead", fast.to_dead),
                ("failure.crashes", fast.crashes),
                ("failure.restarts", fast.restarts),
            ] {
                if n > 0 {
                    self.metrics.add(key, n);
                }
            }
            let delta =
                std::mem::replace(&mut self.shards[s].scratch.metrics, MetricsRegistry::new());
            self.metrics.absorb(delta);
            let ops = std::mem::take(&mut self.shards[s].scratch.spans);
            for op in ops {
                match op {
                    SpanOp::Open {
                        id,
                        name,
                        track,
                        parent,
                        at,
                    } => self.spans.open_with_id(id, name, track, parent, at),
                    SpanOp::Close { id, at } => self.spans.close(id, at),
                    SpanOp::Label { id, key, value } => self.spans.label(id, key, value),
                }
            }
            let recs = std::mem::take(&mut self.shards[s].scratch.trace);
            for (t, id, category, text) in recs {
                self.trace.record(t, id, category, text);
            }
        }
    }
}

/// The windowed half of [`EngineCore::send_via_network`]: draw the
/// transit on the shard's own RNG and FIFO clamps, then queue the
/// delivery on this shard or buffer it for the owning one. Returns
/// whether a `muted` receiver's message was skipped.
fn shard_send<M>(
    sc: &mut ShardCtx<'_, M>,
    src: ComponentId,
    dst: ComponentId,
    delay: SimSpan,
    muted: bool,
    msg: impl FnOnce() -> M,
    span: Option<SpanId>,
) -> bool {
    let st = &mut *sc.state;
    let departs = sc.now + delay;
    let Some(arrival) = sc
        .shared
        .network
        .transit(src, dst, departs, &mut st.rng, &mut st.fifo)
    else {
        st.scratch.fast.dropped += 1;
        return false;
    };
    if muted {
        return true;
    }
    let dshard = sc
        .shared
        .shard_of
        .get(dst.0)
        .map(|&s| s as usize)
        .unwrap_or(0);
    let kind = EventKind::Deliver {
        src,
        dst,
        msg: msg(),
        span,
    };
    if dshard == sc.shard {
        // Own-shard traffic stays on the fast path and may execute later
        // in the same window.
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Scheduled {
            time: arrival,
            seq,
            kind,
        });
    } else {
        // Cross-shard: buffered, committed with a destination-shard seq
        // after the window. The lookahead horizon guarantees `arrival` is
        // at or beyond every shard's horizon.
        st.scratch.outbox.push((dshard as u32, arrival, kind));
    }
    false
}

/// The context handle passed to every component callback, parameterized
/// by the engine's message type `M`. One type serves both execution
/// modes: sequential (single-shard engines and the model checker's
/// re-timed apply path) borrows the whole engine core; windowed (sharded
/// engines) borrows one shard plus a frozen view of the shared state.
pub struct Ctx<'a, M> {
    inner: CtxInner<'a, M>,
    me: ComponentId,
}

enum CtxInner<'a, M> {
    Seq(&'a mut EngineCore<M>),
    Shard(ShardCtx<'a, M>),
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn for_shard(sc: ShardCtx<'a, M>, me: ComponentId) -> Ctx<'a, M> {
        Ctx {
            inner: CtxInner::Shard(sc),
            me,
        }
    }
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            CtxInner::Seq(core) => core.now,
            CtxInner::Shard(sc) => sc.now,
        }
    }

    /// Id of the component being invoked.
    pub fn id(&self) -> ComponentId {
        self.me
    }

    /// This component's shard's RNG stream. Components needing an
    /// independent stream should fork one at construction time instead.
    pub fn rng(&mut self) -> &mut SimRng {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                let s = core.shard_idx(me);
                &mut core.shards[s].rng
            }
            CtxInner::Shard(sc) => &mut sc.state.rng,
        }
    }

    /// Send `msg` to `dst` over the simulated network (subject to latency,
    /// loss and partitions). Anything convertible into the engine's
    /// message type is accepted, so call sites pass concrete wire structs
    /// and the `From` impls on the message enum do the wrapping. The
    /// current span context (the incoming one, or the innermost span
    /// opened via [`Ctx::span_open`]) rides along, so causal chains
    /// survive uninstrumented hops.
    pub fn send(&mut self, dst: ComponentId, msg: impl Into<M>) {
        let span = self.current_span();
        self.send_with(dst, SimSpan::ZERO, msg.into(), span);
    }

    /// Send after an additional local processing delay (still subject to
    /// network latency on top).
    pub fn send_after(&mut self, delay: SimSpan, dst: ComponentId, msg: impl Into<M>) {
        let span = self.current_span();
        self.send_with(dst, delay, msg.into(), span);
    }

    /// Send `msg` carrying an explicit span context instead of the
    /// ambient one — for operations whose span outlives a single handler
    /// (a GM retrying a placement it recorded earlier, say).
    pub fn send_in(&mut self, span: SpanId, dst: ComponentId, msg: impl Into<M>) {
        self.send_with(dst, SimSpan::ZERO, msg.into(), Some(span));
    }

    fn send_with(&mut self, dst: ComponentId, delay: SimSpan, msg: M, span: Option<SpanId>) {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                core.metrics.incr("net.sent");
                core.send_via_network(me, dst, delay, false, || msg, span);
            }
            CtxInner::Shard(sc) => {
                sc.state.scratch.fast.sent += 1;
                shard_send(sc, me, dst, delay, false, || msg, span);
            }
        }
    }

    /// Multicast to every current member of `group` except the sender.
    /// `make` is invoked once per delivered message, so payloads need not
    /// be `Clone`.
    ///
    /// Every receiver costs one transit draw, in member order, whether or
    /// not it listens, so the RNG stream and every arrival time are those
    /// of an all-listening group. A member that has muted the group (see
    /// [`GroupMember`]) and is alive then gets nothing; a crashed one
    /// still gets its message, which becomes a dead letter as before.
    /// `net.sent` counts every draw and `net.muted` the skipped ones.
    pub fn multicast<T: Into<M>, F: Fn() -> T>(&mut self, group: GroupId, make: F) {
        let me = self.me;
        let span = self.current_span();
        let make = || make().into();
        let (mut sent, mut muted) = (0u64, 0u64);
        match &mut self.inner {
            CtxInner::Seq(core) => {
                // Indexed so the member list is not copied: nothing can
                // change membership while this handler is sending.
                for i in 0..core.network.group_members(group).len() {
                    let m = core.network.group_members(group)[i];
                    if m.id == me {
                        continue;
                    }
                    sent += 1;
                    let skip = m.muted && core.alive.get(m.id.0).copied().unwrap_or(false);
                    muted +=
                        core.send_via_network(me, m.id, SimSpan::ZERO, skip, make, span) as u64;
                }
                if sent > 0 {
                    core.metrics.add("net.sent", sent);
                }
                if muted > 0 {
                    core.metrics.add("net.muted", muted);
                }
            }
            CtxInner::Shard(sc) => {
                // Pre-window membership plus this shard's own deltas — a
                // component sees its own joins, leaves and mutes at once,
                // other shards' only from the next window on. Only a
                // group this shard changed this window needs a copy.
                let base = sc.shared.network.group_members(group);
                let members: std::borrow::Cow<'_, [GroupMember]> =
                    if sc.state.scratch.groups.iter().any(|(g, _, _)| *g == group) {
                        let mut m = base.to_vec();
                        for &(g, id, op) in &sc.state.scratch.groups {
                            if g == group {
                                op.apply(&mut m, id);
                            }
                        }
                        m.into()
                    } else {
                        base.into()
                    };
                for m in members.iter() {
                    if m.id == me {
                        continue;
                    }
                    sent += 1;
                    let skip = m.muted && crate::exec::live_of(sc.state, sc.shared, m.id).0;
                    muted += shard_send(sc, me, m.id, SimSpan::ZERO, skip, make, span) as u64;
                }
                sc.state.scratch.fast.sent += sent;
                sc.state.scratch.fast.muted += muted;
            }
        }
    }

    fn group_op(&mut self, group: GroupId, op: GroupOp) {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => core.network.apply_group_op(group, me, op),
            CtxInner::Shard(sc) => sc.state.scratch.groups.push((group, me, op)),
        }
    }

    /// Join a multicast group.
    pub fn join_group(&mut self, group: GroupId) {
        self.group_op(group, GroupOp::Join);
    }

    /// Leave a multicast group.
    pub fn leave_group(&mut self, group: GroupId) {
        self.group_op(group, GroupOp::Leave);
    }

    /// Stay in `group` but take no delivery of its multicasts while alive
    /// (see [`GroupMember`]). For traffic this component would ignore
    /// anyway; a no-op if it is not a member.
    pub fn mute_group(&mut self, group: GroupId) {
        self.group_op(group, GroupOp::Mute);
    }

    /// Take delivery of `group`'s multicasts again.
    pub fn unmute_group(&mut self, group: GroupId) {
        self.group_op(group, GroupOp::Unmute);
    }

    /// Arrange for [`Component::on_timer`] to be called on this component
    /// after `delay`, carrying `tag`. Timers die with the incarnation that
    /// set them: if the component crashes, pending timers never fire.
    pub fn set_timer(&mut self, delay: SimSpan, tag: u64) -> TimerHandle {
        self.set_timer_impl(delay, tag, None)
    }

    /// Like [`Ctx::set_timer`], but the timer carries span context `span`:
    /// when it fires, the handler's ambient context is `span`, so a VM
    /// boot delay or migration transfer keeps its causal chain intact.
    pub fn set_timer_in(&mut self, span: SpanId, delay: SimSpan, tag: u64) -> TimerHandle {
        self.set_timer_impl(delay, tag, Some(span))
    }

    fn set_timer_impl(&mut self, delay: SimSpan, tag: u64, span: Option<SpanId>) -> TimerHandle {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                let s = core.shard_idx(me);
                let id = {
                    let sh = &mut core.shards[s];
                    let id = sh.next_timer_id;
                    sh.next_timer_id += 1;
                    id
                };
                let at = core.now + delay;
                let incarnation = core.incarnation[me.0];
                core.schedule(
                    at,
                    EventKind::Timer {
                        dst: me,
                        tag,
                        incarnation,
                        id,
                        span,
                    },
                );
                TimerHandle(id)
            }
            CtxInner::Shard(sc) => {
                // Timers never cross shards (dst == me), so they go
                // straight into this shard's queue and may fire within
                // the current window.
                let st = &mut *sc.state;
                let id = st.next_timer_id;
                st.next_timer_id += 1;
                let at = sc.now + delay;
                let incarnation = match st.scratch.live.get(&me.0) {
                    Some(&(_, inc)) => inc,
                    None => sc.shared.incarnation.get(me.0).copied().unwrap_or(0),
                };
                let seq = st.seq;
                st.seq += 1;
                st.queue.push(Scheduled {
                    time: at,
                    seq,
                    kind: EventKind::Timer {
                        dst: me,
                        tag,
                        incarnation,
                        id,
                        span,
                    },
                });
                TimerHandle(id)
            }
        }
    }

    /// Cancel a timer previously set with [`Ctx::set_timer`]. Cancelling an
    /// already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                let s = core.shard_idx(me);
                core.shards[s].cancelled_timers.insert(handle.0);
            }
            CtxInner::Shard(sc) => {
                sc.state.cancelled_timers.insert(handle.0);
            }
        }
    }

    /// Whether `other` is currently alive (not crashed). Real processes
    /// cannot ask this of remote peers — only failure detectors built on
    /// heartbeats should use it for *remote* components; it is exposed
    /// mainly so a component can cheaply model local knowledge (e.g. a
    /// hypervisor knows its own host is up). On sharded engines,
    /// cross-shard liveness is the pre-window state — consistent with the
    /// message-visibility horizon.
    pub fn is_alive(&self, other: ComponentId) -> bool {
        match &self.inner {
            CtxInner::Seq(core) => core.alive.get(other.0).copied().unwrap_or(false),
            CtxInner::Shard(sc) => crate::exec::live_of(sc.state, sc.shared, other).0,
        }
    }

    /// Record a metric counter increment.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        match &mut self.inner {
            CtxInner::Seq(core) => &mut core.metrics,
            CtxInner::Shard(sc) => &mut sc.state.scratch.metrics,
        }
    }

    /// Append a line to the bounded event trace.
    pub fn trace(&mut self, category: &'static str, text: impl Into<String>) {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                let now = core.now;
                core.trace.record(now, me, category, text.into());
            }
            CtxInner::Shard(sc) => {
                sc.state
                    .scratch
                    .trace
                    .push((sc.now, me, category, text.into()));
            }
        }
    }

    /// Stop the simulation after the current event completes. On sharded
    /// engines the stop takes effect at the end of the current window.
    pub fn halt(&mut self) {
        match &mut self.inner {
            CtxInner::Seq(core) => core.halted = true,
            CtxInner::Shard(sc) => sc.state.scratch.halt = true,
        }
    }

    // --- causal spans ----------------------------------------------------

    /// The span context this handler is executing under: the context the
    /// triggering message/timer carried, or the innermost span opened by
    /// [`Ctx::span_open`] since.
    pub fn current_span(&self) -> Option<SpanId> {
        match &self.inner {
            CtxInner::Seq(core) => core.ctx_span,
            CtxInner::Shard(sc) => sc.state.scratch.ctx_span,
        }
    }

    /// Open a span named `name` as a child of the current context (or as
    /// a root if there is none). The new span becomes the ambient context
    /// for the rest of this handler, so subsequent [`Ctx::send`]s carry it.
    pub fn span_open(&mut self, name: &'static str) -> SpanId {
        let parent = self.current_span();
        self.span_open_under(name, parent)
    }

    /// Open a span with an explicit parent (`None` for a root), e.g. when
    /// resuming an operation whose context was stashed in component state.
    /// Like [`Ctx::span_open`], the new span becomes the ambient context.
    pub fn span_open_under(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Seq(core) => {
                let id = core.spans.open(name, me.0 as u64, parent, core.now.0);
                core.ctx_span = Some(id);
                id
            }
            CtxInner::Shard(sc) => {
                // Shard-namespaced id: `((shard+1) << 40) | counter`.
                // Never collides across shards or with the dense ids the
                // sequential path allocates (those stay below 2^40).
                let st = &mut *sc.state;
                st.scratch.next_span += 1;
                let id = SpanId((((sc.shard as u64) + 1) << 40) | st.scratch.next_span);
                st.scratch.spans.push(SpanOp::Open {
                    id,
                    name,
                    track: me.0 as u64,
                    parent,
                    at: sc.now.0,
                });
                st.scratch.span_parents.insert(id.0, parent);
                st.scratch.ctx_span = Some(id);
                id
            }
        }
    }

    /// Close span `id` at the current virtual time. If it is the ambient
    /// context, the context pops back to its parent (spans behave as a
    /// stack within a handler). Double-close is a no-op.
    pub fn span_close(&mut self, id: SpanId) {
        match &mut self.inner {
            CtxInner::Seq(core) => {
                if core.ctx_span == Some(id) {
                    core.ctx_span = core.spans.parent_of(id);
                }
                core.spans.close(id, core.now.0);
            }
            CtxInner::Shard(sc) => {
                let st = &mut *sc.state;
                if st.scratch.ctx_span == Some(id) {
                    // Parent links are tracked for shard-opened spans;
                    // closing a carried-in foreign span pops to None.
                    st.scratch.ctx_span = st.scratch.span_parents.get(&id.0).copied().flatten();
                }
                st.scratch.spans.push(SpanOp::Close { id, at: sc.now.0 });
            }
        }
    }

    /// Open and immediately close a zero-duration marker span (e.g.
    /// "became GL", "declared GM dead"). Ambient context is unchanged.
    pub fn span_instant(&mut self, name: &'static str) -> SpanId {
        let id = self.span_open(name);
        self.span_close(id);
        id
    }

    /// Annotate span `id` with a key/value label.
    pub fn span_label(&mut self, id: SpanId, key: &'static str, value: impl Into<String>) {
        match &mut self.inner {
            CtxInner::Seq(core) => core.spans.label(id, key, value),
            CtxInner::Shard(sc) => sc.state.scratch.spans.push(SpanOp::Label {
                id,
                key,
                value: value.into(),
            }),
        }
    }
}

/// Builder for [`Engine`].
pub struct SimBuilder {
    seed: u64,
    network: NetworkConfig,
    trace_capacity: usize,
    max_events: u64,
    shards: usize,
    workers: Option<usize>,
    queue: Option<QueueKind>,
}

impl SimBuilder {
    /// Start building a simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            network: NetworkConfig::default(),
            trace_capacity: 0,
            max_events: u64::MAX,
            shards: 1,
            workers: None,
            queue: None,
        }
    }

    /// Configure the simulated network.
    pub fn network(mut self, config: NetworkConfig) -> Self {
        self.network = config;
        self
    }

    /// Keep the last `capacity` trace records (0 disables tracing).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Abort the run after this many events (runaway-loop guard). On
    /// sharded engines the guard is checked per window, so a run may
    /// finish the window in flight and overshoot by a bounded amount.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Partition the engine into `n` event-queue shards (clamped to at
    /// least 1). The shard count is *semantic*: it changes which RNG
    /// stream each component draws from, so digests are only comparable
    /// between runs with equal shard counts. `shards(1)` — the default —
    /// is byte-identical to the historical single-queue engine.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Execute windows on `n` worker threads (default: one per shard).
    /// Purely a throughput knob — the digest of a run is byte-identical
    /// for every worker count, including 1.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Choose the event-queue implementation. Defaults to the binary heap
    /// for single-shard engines (the historical structure) and the
    /// calendar/bucket queue for sharded ones. The queue kind never
    /// affects the executed history, only its cost.
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue = Some(kind);
        self
    }

    /// Finish building. The component type is chosen by the caller
    /// (usually via a type annotation on the binding):
    ///
    /// ```ignore
    /// let mut sim: Engine<SnoozeNode> = SimBuilder::new(7).build();
    /// ```
    pub fn build<C: Component>(self) -> Engine<C> {
        let shard_count = self.shards.max(1);
        let queue_kind = self.queue.unwrap_or(if shard_count == 1 {
            QueueKind::Heap
        } else {
            QueueKind::Bucket
        });
        let workers = self.workers.unwrap_or(shard_count).max(1);
        let network = Network::new(self.network);
        let lookahead = network.min_latency();
        let shards: Vec<ShardState<C::Msg>> = (0..shard_count)
            .map(|i| {
                // Shard 0 keeps the engine-seed stream (byte parity at
                // shards(1)); the rest fork deterministically off it.
                let rng = if i == 0 {
                    SimRng::new(self.seed)
                } else {
                    SimRng::new(self.seed).fork(i as u64)
                };
                ShardState::new(queue_kind, rng)
            })
            .collect();
        Engine {
            core: EngineCore {
                now: SimTime::ZERO,
                shards,
                shard_of: Vec::new(),
                local_of: Vec::new(),
                net_events: Vec::new(),
                lookahead,
                workers,
                network,
                metrics: MetricsRegistry::new(),
                trace: Trace::new(self.trace_capacity),
                spans: SpanLog::new(),
                ctx_span: None,
                alive: Vec::new(),
                incarnation: Vec::new(),
                names: Vec::new(),
                halted: false,
                events_executed: 0,
                digest: crate::trace::FNV_OFFSET,
                last_executed: None,
                classifier: None,
                profiler: None,
                flight: None,
            },
            components: (0..shard_count).map(|_| Vec::new()).collect(),
            started: false,
            max_events: self.max_events,
        }
    }
}

/// The simulation engine: owns all components (of one type `C`, usually
/// a dispatch enum built with [`node_enum!`](crate::node_enum)), the
/// event queue shards, the network, metrics and trace.
pub struct Engine<C: Component> {
    pub(crate) core: EngineCore<C::Msg>,
    /// Components, grouped by shard; `components[shard][local]`. The
    /// global id → `(shard, local)` mapping lives in the core
    /// (`shard_of`/`local_of`).
    pub(crate) components: Vec<Vec<Option<C>>>,
    pub(crate) started: bool,
    pub(crate) max_events: u64,
}

impl<C: Component> Engine<C> {
    /// Register a component; its `on_start` runs at time zero when the
    /// simulation starts (or immediately-ish if already running).
    /// Anything convertible into the engine's component type is accepted,
    /// so node-enum wrapping happens here rather than at every call site.
    /// On sharded engines the component lands in the shard named by its
    /// [`Component::shard_hint`] (modulo the shard count; no hint → 0).
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        component: impl Into<C>,
    ) -> ComponentId {
        let comp = component.into();
        let shard = match comp.shard_hint() {
            Some(h) => h % self.core.shards.len(),
            None => 0,
        };
        self.insert_component(name.into(), comp, shard)
    }

    /// Register a component into an explicit shard (modulo the shard
    /// count), overriding its [`Component::shard_hint`]. The system layer
    /// uses this to co-locate each GM subtree — the GM and the LCs it
    /// manages — in one shard, so heartbeat traffic never crosses the
    /// lookahead boundary.
    pub fn add_component_in_shard(
        &mut self,
        name: impl Into<String>,
        component: impl Into<C>,
        shard: usize,
    ) -> ComponentId {
        let shard = shard % self.core.shards.len();
        self.insert_component(name.into(), component.into(), shard)
    }

    fn insert_component(&mut self, name: String, comp: C, shard: usize) -> ComponentId {
        let id = ComponentId(self.core.shard_of.len());
        self.core.shard_of.push(shard as u32);
        self.core.local_of.push(self.components[shard].len() as u32);
        self.components[shard].push(Some(comp));
        self.core.alive.push(true);
        self.core.incarnation.push(0);
        self.core.names.push(name);
        self.core.schedule(self.core.now, EventKind::Start(id));
        id
    }

    fn locate(&self, id: ComponentId) -> Option<(usize, usize)> {
        let shard = *self.core.shard_of.get(id.0)? as usize;
        let local = *self.core.local_of.get(id.0)? as usize;
        Some((shard, local))
    }

    /// Create a fresh multicast group.
    pub fn create_group(&mut self) -> GroupId {
        self.core.network.create_group()
    }

    /// Add a component to a multicast group from outside the simulation.
    pub fn join_group(&mut self, group: GroupId, id: ComponentId) {
        self.core.network.join_group(group, id);
    }

    /// Inject a message from outside the simulation, delivered to `dst` at
    /// absolute time `at` (no network latency is applied).
    pub fn post(&mut self, at: SimTime, dst: ComponentId, msg: impl Into<C::Msg>) {
        self.core.schedule(
            at,
            EventKind::Deliver {
                src: ComponentId::EXTERNAL,
                dst,
                msg: msg.into(),
                span: None,
            },
        );
    }

    /// Schedule a crash of `id` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, id: ComponentId) {
        self.core.schedule(at, EventKind::Crash(id));
    }

    /// Schedule a restart of `id` at time `at`.
    pub fn schedule_restart(&mut self, at: SimTime, id: ComponentId) {
        self.core.schedule(at, EventKind::Restart(id));
    }

    /// Schedule a network-health change at time `at` — link degradation
    /// and component isolation as first-class, digest-covered events.
    pub fn schedule_net_fault(&mut self, at: SimTime, fault: NetFault) {
        self.core.schedule(at, EventKind::Net(fault));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.core.events_executed
    }

    /// FNV-1a fingerprint of the executed event stream: every executed
    /// event's `(time, seq, kind, endpoints)` in order. Two runs from the
    /// same seed must report identical digests; `snooze-audit
    /// determinism` and the replay proptests assert exactly that. On
    /// sharded engines the digest is additionally independent of the
    /// worker count — only the shard count is semantic.
    pub fn digest(&self) -> u64 {
        self.core.digest
    }

    /// Number of event-queue shards (1 unless [`SimBuilder::shards`]).
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Worker threads windows execute on (1 = inline).
    pub fn worker_count(&self) -> usize {
        self.core.workers
    }

    /// The event-queue implementation in use.
    pub fn queue_kind(&self) -> QueueKind {
        self.core.shards[0].queue.kind()
    }

    /// Which shard component `id` was registered into.
    pub fn shard_of(&self, id: ComponentId) -> Option<usize> {
        self.core.shard_of.get(id.0).map(|&s| s as usize)
    }

    /// The network ledger of the run so far (see [`NetLedger`]).
    pub fn net_ledger(&self) -> NetLedger {
        let m = &self.core.metrics;
        let in_flight = self
            .core
            .shards
            .iter()
            .flat_map(|sh| sh.queue.iter())
            .filter(|ev| {
                matches!(ev.kind, EventKind::Deliver { src, .. } if src != ComponentId::EXTERNAL)
            })
            .count() as u64;
        NetLedger {
            sent: m.counter("net.sent"),
            delivered: m.counter("net.delivered"),
            dropped: m.counter("net.dropped"),
            muted: m.counter("net.muted"),
            to_dead: m.counter("net.to_dead"),
            in_flight,
        }
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: ComponentId) -> bool {
        self.core.alive.get(id.0).copied().unwrap_or(false)
    }

    /// The registered name of `id`.
    pub fn name_of(&self, id: ComponentId) -> &str {
        self.core.names.get(id.0).map(String::as_str).unwrap_or("?")
    }

    /// Metrics collected during the run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// Mutable metrics (e.g. for a driver recording external observations).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.core.metrics
    }

    /// Messages that arrived for a crashed or never-registered component
    /// and were dropped — the sum of every `dead_letters{reason}` count.
    pub fn dead_letters(&self) -> u64 {
        self.core.metrics.counter_total("dead_letters")
    }

    /// The bounded event trace.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The causal span log accumulated by instrumented components.
    pub fn spans(&self) -> &SpanLog {
        &self.core.spans
    }

    /// FNV-1a digest of the span log's mutation stream — the telemetry
    /// analogue of [`Engine::digest`]; same-seed runs must agree on it.
    pub fn span_digest(&self) -> u64 {
        self.core.spans.digest()
    }

    /// Mutable span log — for drivers recording engine-external spans
    /// (e.g. the scenario layer's SLO alert spans).
    pub fn spans_mut(&mut self) -> &mut SpanLog {
        &mut self.core.spans
    }

    /// Number of events currently pending across every shard queue (plus
    /// scheduled network faults). An observer reading (the queues are
    /// untouched); SLO watchdogs use it as the backlog signal.
    pub fn queue_depth(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.queue.len())
            .sum::<usize>()
            + self.core.net_events.len()
    }

    /// Install the message classifier: a plain `fn` mapping a payload
    /// to its `&'static str` variant name. Powers the profiler's
    /// per-variant attribution, the flight recorder's event labels and
    /// the `dead_letters{msg}` breakdown. Purely observational — the
    /// digest-covered history is identical with or without it.
    pub fn set_msg_classifier(&mut self, classify: fn(&C::Msg) -> &'static str) {
        self.core.classifier = Some(classify);
    }

    /// Turn on the sim-time profiler (idempotent). Costs one advisory
    /// wall-clock read per executed event while on. Sharded engines
    /// profile per shard and merge on read.
    pub fn enable_profiler(&mut self) {
        if self.core.profiler.is_none() {
            self.core.profiler = Some(crate::flight::Profiler::new());
        }
        if self.core.shards.len() > 1 {
            for sh in &mut self.core.shards {
                if sh.scratch.profiler.is_none() {
                    sh.scratch.profiler = Some(crate::flight::Profiler::new());
                }
            }
        }
    }

    /// Turn on the flight recorder with a ring of `capacity` events
    /// (idempotent; the first call wins).
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if self.core.flight.is_none() {
            self.core.flight = Some(crate::flight::FlightRecorder::new(capacity));
        }
    }

    /// The flight recorder, if enabled.
    pub fn flight_recorder(&self) -> Option<&crate::flight::FlightRecorder> {
        self.core.flight.as_ref()
    }

    /// The aggregated profile, hottest bucket first — empty when the
    /// profiler is off. Flushes the in-flight attribution first, and on
    /// sharded engines merges every shard's cells with the engine-level
    /// ones (commit-time network faults).
    pub fn profile_rows(&mut self) -> Vec<crate::flight::ProfileRow> {
        let mut cells: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        let mut enabled = false;
        if let Some(p) = self.core.profiler.as_mut() {
            p.flush();
            enabled = true;
            for row in p.rows() {
                let cell = cells.entry((row.kind, row.variant)).or_insert((0, 0));
                cell.0 += row.events;
                cell.1 += row.wall_nanos;
            }
        }
        for sh in &mut self.core.shards {
            if let Some(p) = sh.scratch.profiler.as_mut() {
                p.flush();
                enabled = true;
                for row in p.rows() {
                    let cell = cells.entry((row.kind, row.variant)).or_insert((0, 0));
                    cell.0 += row.events;
                    cell.1 += row.wall_nanos;
                }
            }
        }
        if !enabled {
            return Vec::new();
        }
        let mut rows: Vec<crate::flight::ProfileRow> = cells
            .into_iter()
            .map(
                |((kind, variant), (events, wall_nanos))| crate::flight::ProfileRow {
                    kind,
                    variant,
                    events,
                    wall_nanos,
                },
            )
            .collect();
        rows.sort_by(|a, b| {
            b.events
                .cmp(&a.events)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.variant.cmp(&b.variant))
        });
        rows
    }

    /// Folded-stack profile text (`kind;variant events` per line),
    /// flamegraph-compatible and byte-deterministic — empty when the
    /// profiler is off.
    pub fn profile_folded(&mut self) -> String {
        let mut out = String::new();
        for row in self.profile_rows() {
            out.push_str(&format!("{};{} {}\n", row.kind, row.variant, row.events));
        }
        out
    }

    /// The simulated network (group membership, partitions).
    pub fn network(&self) -> &Network {
        &self.core.network
    }

    /// Direct mutable access to the simulated network (partitions etc.).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.core.network
    }

    /// Borrow a registered component for inspection, or `None` for an
    /// unknown id. (Node-enum engines usually chain this with the enum's
    /// generated `as_*` accessor.)
    pub fn get(&self, id: ComponentId) -> Option<&C> {
        let (shard, local) = self.locate(id)?;
        self.components[shard][local].as_ref()
    }

    /// Borrow a registered component for inspection. Panics if the id is
    /// unknown.
    pub fn component(&self, id: ComponentId) -> &C {
        self.get(id).expect("unknown component id")
    }

    /// Execute a single event (single-shard engines) or a single
    /// lookahead window (sharded engines). Returns `false` when the
    /// queues are empty or the simulation halted.
    pub fn step(&mut self) -> bool {
        if self.core.shards.len() > 1 {
            let advanced = crate::exec::step_window(self, SimTime::MAX);
            self.core.flush_shard_observers();
            return advanced;
        }
        if self.core.halted || self.core.events_executed >= self.max_events {
            return false;
        }
        let ev = match self.core.shards[0].queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(ev.time >= self.core.now);
        self.execute(ev);
        true
    }

    /// Execute one event: advance the clock, fold the digest, dispatch to
    /// the target component. Shared by [`Engine::step`] (which executes
    /// the queue minimum) and the model checker's re-timed apply path —
    /// the checker drives even sharded engines through this sequential
    /// path, one event at a time.
    fn execute(&mut self, ev: Scheduled<C::Msg>) {
        crate::audit_invariant!(
            "engine",
            "monotonic-clock",
            ev.time >= self.core.now,
            "event at t={:?} executed while clock already at t={:?}",
            ev.time,
            self.core.now
        );
        crate::audit_invariant!(
            "engine",
            "total-event-order",
            // Sharded engines have per-shard seq counters; global
            // (time, seq) strictness only holds with a single shard.
            self.core.shards.len() > 1
                || self
                    .core
                    .last_executed
                    .is_none_or(|last| (ev.time, ev.seq) > last),
            "event (t={:?}, seq={}) not after last executed {:?}",
            ev.time,
            ev.seq,
            self.core.last_executed
        );
        self.core.last_executed = Some((ev.time, ev.seq));
        self.core.fold_event(&ev);
        self.core.now = ev.time;
        self.core.events_executed += 1;
        if self.core.profiler.is_some() || self.core.flight.is_some() {
            self.observe_event(&ev);
        }
        match ev.kind {
            EventKind::Start(id) => {
                self.with_component(id, |comp, ctx| comp.on_start(ctx));
            }
            EventKind::Deliver {
                src,
                dst,
                msg,
                span,
            } => {
                if self.core.alive.get(dst.0).copied().unwrap_or(false) {
                    self.core.metrics.incr("net.delivered");
                    self.core.ctx_span = span;
                    self.with_component(dst, |comp, ctx| comp.on_message(ctx, src, msg));
                } else {
                    // Dead letter: delivered to a crashed component, or to
                    // an id nothing was ever registered under. Counted per
                    // reason so silent drops show up in run outcomes.
                    self.core.metrics.incr("net.to_dead");
                    let reason = if dst.0 < self.core.names.len() {
                        "crashed"
                    } else {
                        "unknown_dst"
                    };
                    let mut labels = label("reason", reason);
                    if let Some(classify) = self.core.classifier {
                        // Break the drop count down by message variant
                        // so "129 dead letters" becomes "mostly missed
                        // GmLcHeartbeat to a crashed LC".
                        labels.insert("msg", classify(&msg));
                    }
                    self.core.metrics.incr_with("dead_letters", &labels);
                }
            }
            EventKind::Timer {
                dst,
                tag,
                incarnation,
                id,
                span,
            } => {
                let shard = self.core.shard_idx(dst);
                let stale = self.core.shards[shard].cancelled_timers.remove(&id)
                    || self.core.incarnation[dst.0] != incarnation
                    || !self.core.alive[dst.0];
                if !stale {
                    self.core.ctx_span = span;
                    self.with_component(dst, |comp, ctx| comp.on_timer(ctx, tag));
                }
            }
            EventKind::Crash(id) => {
                if self.core.alive[id.0] {
                    self.core.alive[id.0] = false;
                    // Bump the incarnation so timers set by the dead
                    // incarnation never fire, even across a restart.
                    self.core.incarnation[id.0] += 1;
                    self.core.metrics.incr("failure.crashes");
                    let now = self.core.now;
                    if let Some((shard, local)) = self.locate(id) {
                        if let Some(comp) = self.components[shard][local].as_mut() {
                            comp.on_crash(now);
                        }
                    }
                    let name = self.core.names[id.0].clone();
                    self.core.trace.record(now, id, "crash", name);
                }
            }
            EventKind::Restart(id) => {
                if !self.core.alive[id.0] {
                    self.core.alive[id.0] = true;
                    self.core.metrics.incr("failure.restarts");
                    self.with_component(id, |comp, ctx| comp.on_restart(ctx));
                }
            }
            EventKind::Net(fault) => {
                self.core.metrics.incr("failure.net");
                match fault {
                    NetFault::Isolate(id) => self.core.network.isolate(id),
                    NetFault::Reconnect(id) => self.core.network.reconnect(id),
                    NetFault::SetLossPpm(ppm) => self.core.network.set_loss_rate(ppm as f64 / 1e6),
                }
            }
        }
    }

    /// Feed one executed event to the enabled observers (profiler and
    /// flight recorder). Pure observation: reads the event, mutates
    /// only observer state, schedules nothing — the digest-covered
    /// history is identical with observers on or off.
    fn observe_event(&mut self, ev: &Scheduled<C::Msg>) {
        let (kind, comp, a, b): (&'static str, Option<usize>, u64, u64) = match &ev.kind {
            EventKind::Start(id) => ("start", Some(id.0), id.0 as u64, 0),
            EventKind::Deliver { src, dst, .. } => {
                ("deliver", Some(dst.0), src.0 as u64, dst.0 as u64)
            }
            EventKind::Timer { dst, tag, .. } => ("timer", Some(dst.0), dst.0 as u64, *tag),
            EventKind::Crash(id) => ("crash", Some(id.0), id.0 as u64, 0),
            EventKind::Restart(id) => ("restart", Some(id.0), id.0 as u64, 0),
            EventKind::Net(_) => ("net", None, 0, 0),
        };
        let variant = match (&ev.kind, self.core.classifier) {
            (EventKind::Deliver { msg, .. }, Some(classify)) => classify(msg),
            _ => kind,
        };
        if let Some(p) = self.core.profiler.as_mut() {
            let k = p.kind_index(comp, &self.core.names);
            p.begin_event(k, variant);
        }
        if let Some(fr) = self.core.flight.as_mut() {
            fr.record(crate::flight::FlightEvent {
                time_us: ev.time.0,
                seq: ev.seq,
                kind,
                a,
                b,
                variant,
            });
        }
    }

    fn with_component<F: FnOnce(&mut C, &mut Ctx<'_, C::Msg>)>(&mut self, id: ComponentId, f: F) {
        self.started = true;
        let Some((shard, local)) = self.locate(id) else {
            return;
        };
        let mut comp = match self.components[shard][local].take() {
            Some(c) => c,
            None => return, // unknown or re-entrant — drop the event
        };
        {
            let mut ctx = Ctx {
                inner: CtxInner::Seq(&mut self.core),
                me: id,
            };
            f(&mut comp, &mut ctx);
        }
        // Context hygiene: ambient span context never leaks across events.
        self.core.ctx_span = None;
        self.components[shard][local] = Some(comp);
    }

    /// Run until the queue drains, the engine halts, or `max_events` hits.
    pub fn run(&mut self) {
        if self.core.shards.len() > 1 {
            while crate::exec::step_window(self, SimTime::MAX) {}
            self.core.flush_shard_observers();
            return;
        }
        while self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are executed). Time advances to `deadline` even if the
    /// queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.core.shards.len() > 1 {
            while crate::exec::step_window(self, deadline) {}
            if self.core.now < deadline && !self.core.halted {
                self.core.now = deadline;
            }
            self.core.flush_shard_observers();
            return;
        }
        loop {
            match self.core.shards[0].queue.peek_key() {
                Some((time, _)) if time <= deadline => {}
                _ => break,
            }
            if !self.step() {
                break;
            }
        }
        if self.core.now < deadline && !self.core.halted {
            self.core.now = deadline;
        }
    }

    /// Run for an additional span of virtual time.
    pub fn run_for(&mut self, span: SimSpan) {
        let deadline = self.core.now + span;
        self.run_until(deadline);
    }
}

// ---------------------------------------------------------------------------
// Model-checking hooks (see `crate::mc` and the `snooze-mc` crate)
// ---------------------------------------------------------------------------

/// Bit position separating the shard index from the per-shard seq in the
/// encoded pending-event ids [`Engine::mc_pending`] reports on sharded
/// engines. Single-shard engines report raw seqs (historical format).
const MC_SHARD_SHIFT: u32 = 48;

impl<C: Component> Engine<C>
where
    C: Clone,
    C::Msg: Clone,
{
    /// Capture a full copy of the engine state: clock, counters, pending
    /// events (per shard), network, RNG streams, span log and every
    /// component. Metrics and the bounded trace are *not* captured — they
    /// are observers, never causes, and restoring them would only blur
    /// exploration statistics.
    pub fn mc_snapshot(&self) -> crate::mc::SystemState<C> {
        let mut fifo_union = FifoClamps::new();
        for sh in &self.core.shards {
            for (&key, &t) in &sh.fifo {
                let slot = fifo_union.entry(key).or_insert(SimTime::ZERO);
                if t > *slot {
                    *slot = t;
                }
            }
        }
        crate::mc::SystemState {
            now: self.core.now,
            shards: self
                .core
                .shards
                .iter()
                .map(|sh| crate::mc::ShardSnap {
                    queue: sh.queue.to_sorted_vec(),
                    seq: sh.seq,
                    rng: sh.rng.clone(),
                    next_timer_id: sh.next_timer_id,
                    cancelled_timers: sh.cancelled_timers.clone(),
                    next_span: sh.scratch.next_span,
                    span_parents: sh.scratch.span_parents.clone(),
                })
                .collect(),
            net_events: self.core.net_events.clone(),
            network: self.core.network.save_state(fifo_union),
            spans: self.core.spans.clone(),
            ctx_span: self.core.ctx_span,
            alive: self.core.alive.clone(),
            incarnation: self.core.incarnation.clone(),
            halted: self.core.halted,
            events_executed: self.core.events_executed,
            digest: self.core.digest,
            last_executed: self.core.last_executed,
            components: self.components.clone(),
        }
    }

    /// Restore a state captured by [`Engine::mc_snapshot`]. The snapshot
    /// must come from *this* engine (same components, same names, same
    /// shard layout); the checker only ever restores its own captures.
    pub fn mc_restore(&mut self, state: &crate::mc::SystemState<C>) {
        assert_eq!(
            state.components.len(),
            self.components.len(),
            "snapshot from a different system shape"
        );
        for (mine, theirs) in self.components.iter().zip(state.components.iter()) {
            assert_eq!(
                mine.len(),
                theirs.len(),
                "snapshot from a different system shape"
            );
        }
        self.core.now = state.now;
        for (sh, snap) in self.core.shards.iter_mut().zip(state.shards.iter()) {
            let kind = sh.queue.kind();
            sh.queue = EventQueue::from_vec(kind, snap.queue.clone());
            sh.seq = snap.seq;
            sh.rng = snap.rng.clone();
            sh.next_timer_id = snap.next_timer_id;
            sh.cancelled_timers = snap.cancelled_timers.clone();
            sh.scratch.next_span = snap.next_span;
            sh.scratch.span_parents = snap.span_parents.clone();
        }
        self.core.net_events = state.net_events.clone();
        let clamps = self.core.network.load_state(&state.network);
        {
            // Redistribute the merged FIFO clamps back to the shard that
            // owns each (src, dst) link — src determines the shard.
            let EngineCore {
                shards, shard_of, ..
            } = &mut self.core;
            for sh in shards.iter_mut() {
                sh.fifo.clear();
            }
            for ((src, dst), t) in clamps {
                let s = shard_of.get(src).map(|&x| x as usize).unwrap_or(0);
                shards[s].fifo.insert((src, dst), t);
            }
        }
        self.core.spans = state.spans.clone();
        self.core.ctx_span = state.ctx_span;
        self.core.alive = state.alive.clone();
        self.core.incarnation = state.incarnation.clone();
        self.core.halted = state.halted;
        self.core.events_executed = state.events_executed;
        self.core.digest = state.digest;
        self.core.last_executed = state.last_executed;
        self.components = state.components.clone();
    }
}

impl<C: Component> Engine<C> {
    fn timer_is_stale(&self, dst: ComponentId, incarnation: u32, id: u64) -> bool {
        let shard = self.core.shard_idx(dst);
        self.core.shards[shard].cancelled_timers.contains(&id)
            || self.core.incarnation.get(dst.0).copied() != Some(incarnation)
            || !self.core.alive.get(dst.0).copied().unwrap_or(false)
    }

    fn encode_pending(&self, shard: usize, seq: u64) -> u64 {
        if self.core.shards.len() == 1 {
            seq
        } else {
            (((shard as u64) + 1) << MC_SHARD_SHIFT) | seq
        }
    }

    fn decode_pending(&self, enc: u64) -> (usize, u64) {
        if self.core.shards.len() == 1 {
            (0, enc)
        } else {
            (
                ((enc >> MC_SHARD_SHIFT) - 1) as usize,
                enc & ((1u64 << MC_SHARD_SHIFT) - 1),
            )
        }
    }

    /// Every pending event a checker could execute next, sorted by
    /// `(time, seq)`. Stale timers (cancelled, or set by a dead or
    /// superseded incarnation) are omitted — they would be silently
    /// discarded by normal execution too. On sharded engines the reported
    /// seq encodes the owning shard (`((shard+1) << 48) | seq`); treat it
    /// as an opaque token either way.
    pub fn mc_pending(&self) -> Vec<crate::mc::McPending> {
        let mut out: Vec<crate::mc::McPending> = Vec::new();
        for (s, sh) in self.core.shards.iter().enumerate() {
            for ev in sh.queue.iter() {
                let desc = match &ev.kind {
                    EventKind::Start(dst) => crate::mc::McEventDesc::Start { dst: *dst },
                    EventKind::Deliver { src, dst, .. } => crate::mc::McEventDesc::Deliver {
                        src: *src,
                        dst: *dst,
                    },
                    EventKind::Timer {
                        dst,
                        tag,
                        incarnation,
                        id,
                        ..
                    } => {
                        if self.timer_is_stale(*dst, *incarnation, *id) {
                            continue;
                        }
                        crate::mc::McEventDesc::Timer {
                            dst: *dst,
                            tag: *tag,
                        }
                    }
                    EventKind::Crash(dst) => crate::mc::McEventDesc::Crash { dst: *dst },
                    EventKind::Restart(dst) => crate::mc::McEventDesc::Restart { dst: *dst },
                    EventKind::Net(_) => crate::mc::McEventDesc::Net,
                };
                let dst_alive = match desc {
                    crate::mc::McEventDesc::Start { dst }
                    | crate::mc::McEventDesc::Deliver { dst, .. }
                    | crate::mc::McEventDesc::Timer { dst, .. } => self.is_alive(dst),
                    _ => true,
                };
                out.push(crate::mc::McPending {
                    seq: self.encode_pending(s, ev.seq),
                    time: ev.time,
                    dst_alive,
                    desc,
                });
            }
        }
        // Sharded engines keep network faults outside the shard queues;
        // they draw shard-0 seqs, so encode them as shard 0.
        for &(time, seq, _) in &self.core.net_events {
            out.push(crate::mc::McPending {
                seq: self.encode_pending(0, seq),
                time,
                dst_alive: true,
                desc: crate::mc::McEventDesc::Net,
            });
        }
        out.sort_by_key(|p| (p.time, p.seq));
        out
    }

    fn mc_remove(&mut self, enc: u64) -> Option<Scheduled<C::Msg>> {
        let (shard, seq) = self.decode_pending(enc);
        if self.core.shards.len() > 1 && shard == 0 {
            // Net events share shard 0's seq counter but live in their
            // own list; their seqs never collide with queued events.
            if let Some(pos) = self.core.net_events.iter().position(|&(_, s, _)| s == seq) {
                let (time, seq, fault) = self.core.net_events.remove(pos);
                return Some(Scheduled {
                    time,
                    seq,
                    kind: EventKind::Net(fault),
                });
            }
        }
        let sh = self.core.shards.get_mut(shard)?;
        let kind = sh.queue.kind();
        let mut events = sh.queue.drain_all();
        let pos = events.iter().position(|ev| ev.seq == seq);
        let found = pos.map(|i| events.remove(i));
        sh.queue = EventQueue::from_vec(kind, events);
        found
    }

    /// Execute pending event `seq` *now*, regardless of queue order: the
    /// event is re-timed to `max(now, its scheduled time)` and re-sequenced
    /// so the executed stream stays strictly `(time, seq)`-ordered — the
    /// audit invariants hold during exploration exactly as during normal
    /// runs. Returns `false` if no such pending event exists.
    pub fn mc_execute_pending(&mut self, seq: u64) -> bool {
        let Some(ev) = self.mc_remove(seq) else {
            return false;
        };
        let time = ev.time.max(self.core.now);
        let shard = self.core.shard_for_kind(&ev.kind);
        let sh = &mut self.core.shards[shard];
        let new_seq = sh.seq;
        sh.seq += 1;
        self.execute(Scheduled {
            time,
            seq: new_seq,
            kind: ev.kind,
        });
        true
    }

    /// Drop pending event `seq` without executing it — the checker's
    /// explicit message-loss action. Returns `false` if no such pending
    /// event exists.
    pub fn mc_drop_pending(&mut self, seq: u64) -> bool {
        if self.mc_remove(seq).is_none() {
            return false;
        }
        self.core.metrics.incr("mc.dropped");
        true
    }

    /// Crash `id` immediately (a checker-chosen crash point). No-op if
    /// already dead.
    pub fn mc_inject_crash(&mut self, id: ComponentId) {
        let shard = self.core.shard_idx(id);
        let sh = &mut self.core.shards[shard];
        let seq = sh.seq;
        sh.seq += 1;
        self.execute(Scheduled {
            time: self.core.now,
            seq,
            kind: EventKind::Crash(id),
        });
    }

    /// Restart `id` immediately. No-op if alive.
    pub fn mc_inject_restart(&mut self, id: ComponentId) {
        let shard = self.core.shard_idx(id);
        let sh = &mut self.core.shards[shard];
        let seq = sh.seq;
        sh.seq += 1;
        self.execute(Scheduled {
            time: self.core.now,
            seq,
            kind: EventKind::Restart(id),
        });
    }

    /// Purge stale timers from the queues (and their ids from the
    /// cancelled sets). Keeps snapshots small and fingerprints free of
    /// events that can never fire.
    pub fn mc_gc(&mut self) {
        let EngineCore {
            shards,
            alive,
            incarnation,
            ..
        } = &mut self.core;
        for sh in shards.iter_mut() {
            let mut stale: Vec<u64> = Vec::new();
            let ShardState {
                queue,
                cancelled_timers,
                ..
            } = sh;
            queue.retain(|ev| {
                if let EventKind::Timer {
                    dst,
                    incarnation: inc,
                    id,
                    ..
                } = &ev.kind
                {
                    if cancelled_timers.contains(id)
                        || incarnation.get(dst.0).copied() != Some(*inc)
                        || !alive.get(dst.0).copied().unwrap_or(false)
                    {
                        stale.push(*id);
                        return false;
                    }
                }
                true
            });
            for id in stale {
                cancelled_timers.remove(&id);
            }
        }
    }

    /// Hand the queues back to normal scheduled execution after checker
    /// perturbation: any event whose scheduled time fell behind the clock
    /// (a message the checker left "in flight" while executing later
    /// events) is re-timed to *now*, preserving relative `(time, seq)`
    /// order via fresh sequence numbers. Without this, [`Engine::step`]'s
    /// monotonic-clock invariant would trip on the stale entries.
    pub fn mc_release(&mut self) {
        let now = self.core.now;
        for sh in self.core.shards.iter_mut() {
            if sh.queue.iter().all(|ev| ev.time >= now) {
                continue;
            }
            let kind = sh.queue.kind();
            let mut events = sh.queue.drain_all(); // sorted by (time, seq)
            for ev in events.iter_mut() {
                if ev.time < now {
                    ev.time = now;
                    ev.seq = sh.seq;
                    sh.seq += 1;
                }
            }
            sh.queue = EventQueue::from_vec(kind, events);
        }
        if self.core.net_events.iter().any(|&(t, _, _)| t < now) {
            let mut evs = std::mem::take(&mut self.core.net_events);
            evs.sort_by_key(|&(t, s, _)| (t, s));
            for e in evs.iter_mut() {
                if e.0 < now {
                    e.0 = now;
                    let sh = &mut self.core.shards[0];
                    e.1 = sh.seq;
                    sh.seq += 1;
                }
            }
            evs.sort_by_key(|&(t, s, _)| (t, s));
            self.core.net_events = evs;
        }
    }
}

impl<C> Engine<C>
where
    C: Component + crate::mc::McState,
    C::Msg: crate::mc::McState,
{
    /// Canonical fingerprint of the current state, for visited-state
    /// deduplication: per-component state, liveness, the pending-event
    /// multiset (stale timers excluded, times relative to now), and the
    /// network's mutable state. Excludes observers (metrics, trace,
    /// spans), history (digest, executed count) and identity counters
    /// (seq, timer ids) — none of which influence future behavior.
    pub fn mc_fingerprint(&self) -> u64 {
        let mut h = crate::mc::McHasher::new(self.core.now);
        h.flag(self.core.halted);
        for idx in 0..self.core.names.len() {
            h.word(idx as u64);
            h.flag(self.core.alive[idx]);
            h.word(self.core.incarnation[idx] as u64);
            if let Some((shard, local)) = self.locate(ComponentId(idx)) {
                if let Some(c) = self.components[shard][local].as_ref() {
                    c.mc_fold(&mut h);
                }
            }
        }
        let mut pending: Vec<(usize, &Scheduled<C::Msg>)> = Vec::new();
        for (s, sh) in self.core.shards.iter().enumerate() {
            for ev in sh.queue.iter() {
                if let EventKind::Timer {
                    dst,
                    incarnation,
                    id,
                    ..
                } = &ev.kind
                {
                    if self.timer_is_stale(*dst, *incarnation, *id) {
                        continue;
                    }
                }
                pending.push((s, ev));
            }
        }
        pending.sort_by_key(|(s, ev)| (ev.time, *s, ev.seq));
        for (_, ev) in pending {
            h.time(ev.time);
            match &ev.kind {
                EventKind::Start(dst) => {
                    h.word(1);
                    h.id(*dst);
                }
                EventKind::Deliver { src, dst, msg, .. } => {
                    h.word(2);
                    h.id(*src);
                    h.id(*dst);
                    msg.mc_fold(&mut h);
                }
                EventKind::Timer { dst, tag, .. } => {
                    h.word(3);
                    h.id(*dst);
                    h.word(*tag);
                }
                EventKind::Crash(dst) => {
                    h.word(4);
                    h.id(*dst);
                }
                EventKind::Restart(dst) => {
                    h.word(5);
                    h.id(*dst);
                }
                EventKind::Net(fault) => {
                    h.word(6);
                    match fault {
                        NetFault::Isolate(id) => {
                            h.word(0);
                            h.id(*id);
                        }
                        NetFault::Reconnect(id) => {
                            h.word(1);
                            h.id(*id);
                        }
                        NetFault::SetLossPpm(ppm) => {
                            h.word(2);
                            h.word(*ppm as u64);
                        }
                    }
                }
            }
        }
        // Scheduled network faults held outside the shard queues (always
        // empty on single-shard engines, so the historical fold is
        // unchanged there).
        for &(time, _, fault) in &self.core.net_events {
            h.time(time);
            h.word(6);
            match fault {
                NetFault::Isolate(id) => {
                    h.word(0);
                    h.id(id);
                }
                NetFault::Reconnect(id) => {
                    h.word(1);
                    h.id(id);
                }
                NetFault::SetLossPpm(ppm) => {
                    h.word(2);
                    h.word(ppm as u64);
                }
            }
        }
        self.core.network.fold_state(|w| h.word(w));
        h.finish()
    }
}

/// Generate a dispatch enum over several [`Component`] types sharing one
/// message type — the glue that lets a heterogeneous system (managers,
/// controllers, clients, …) live in one typed [`Engine`].
///
/// For each `Variant(Inner) as accessor` entry the macro emits:
/// * the enum variant wrapping `Inner`,
/// * `From<Inner>` (so [`Engine::add_component`] takes the bare inner
///   type),
/// * an `fn accessor(&self) -> Option<&Inner>` borrow for inspection,
/// * and a [`Component`] impl that delegates every callback (including
///   [`Component::shard_hint`]) to the active variant.
///
/// ```
/// use snooze_simcore::prelude::*;
///
/// enum Msg { Ping }
///
/// struct Ping;
/// impl Component for Ping {
///     type Msg = Msg;
///     fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ComponentId, _: Msg) {}
/// }
///
/// node_enum! {
///     /// All node kinds of this little system.
///     enum Node: Msg {
///         Ping(Ping) as as_ping,
///     }
/// }
///
/// let mut sim: Engine<Node> = SimBuilder::new(1).build();
/// let id = sim.add_component("ping", Ping);
/// sim.run();
/// assert!(sim.component(id).as_ping().is_some());
/// ```
#[macro_export]
macro_rules! node_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $msg:ty {
            $( $variant:ident($inner:ty) as $as_fn:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                #[doc = concat!("A [`", stringify!($inner), "`] node.")]
                $variant($inner),
            )+
        }

        $(
            impl ::core::convert::From<$inner> for $name {
                fn from(inner: $inner) -> Self {
                    $name::$variant(inner)
                }
            }
        )+

        impl $name {
            $(
                #[doc = concat!(
                    "Borrow the inner [`", stringify!($inner),
                    "`] if this node is that kind."
                )]
                #[allow(unreachable_patterns, dead_code)]
                $vis fn $as_fn(&self) -> ::core::option::Option<&$inner> {
                    match self {
                        $name::$variant(inner) => ::core::option::Option::Some(inner),
                        _ => ::core::option::Option::None,
                    }
                }
            )+
        }

        impl $crate::engine::Component for $name {
            type Msg = $msg;

            fn on_start(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_start(inner, ctx), )+
                }
            }

            fn on_message(
                &mut self,
                ctx: &mut $crate::engine::Ctx<'_, $msg>,
                src: $crate::engine::ComponentId,
                msg: $msg,
            ) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_message(inner, ctx, src, msg), )+
                }
            }

            fn on_timer(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>, tag: u64) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_timer(inner, ctx, tag), )+
                }
            }

            fn on_crash(&mut self, now: $crate::time::SimTime) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_crash(inner, now), )+
                }
            }

            fn on_restart(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_restart(inner, ctx), )+
                }
            }

            fn shard_hint(&self) -> ::core::option::Option<usize> {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::shard_hint(inner), )+
                }
            }
        }
    };
}
#[cfg(test)]
mod tests {
    use super::*;

    /// The closed message set of the unit-test system.
    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping,
    }

    /// Echoes every message back to its sender `bounces` times.
    struct Echo {
        bounces: u32,
        seen: u32,
    }

    impl Component for Echo {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, src: ComponentId, _msg: TestMsg) {
            self.seen += 1;
            if self.bounces > 0 && src != ComponentId::EXTERNAL {
                self.bounces -= 1;
                ctx.send(src, TestMsg::Ping);
            }
        }
    }

    struct Kickoff {
        peer: ComponentId,
    }

    impl Component for Kickoff {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.send(self.peer, TestMsg::Ping);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, src: ComponentId, _msg: TestMsg) {
            ctx.send(src, TestMsg::Ping);
        }
    }

    struct TimerUser {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Component for TimerUser {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_secs(1), 1);
            let h = ctx.set_timer(SimSpan::from_secs(2), 2);
            ctx.set_timer(SimSpan::from_secs(3), 3);
            if self.cancel_second {
                ctx.cancel_timer(h);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            self.fired.push(tag);
        }
    }

    struct RestartProbe {
        restarts: u32,
        crashes: u32,
    }

    impl Component for RestartProbe {
        type Msg = TestMsg;
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_crash(&mut self, _now: SimTime) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_, TestMsg>) {
            self.restarts += 1;
        }
    }

    struct Caster {
        group: GroupId,
    }
    impl Component for Caster {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.join_group(self.group);
            ctx.multicast(self.group, || TestMsg::Ping);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
            panic!("sender must not receive its own multicast");
        }
    }

    /// Joins `group` on start (muting it if `mute`), then records when
    /// each message arrives.
    struct Stamp {
        group: GroupId,
        mute: bool,
        arrivals: Vec<SimTime>,
    }
    impl Component for Stamp {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.join_group(self.group);
            if self.mute {
                ctx.mute_group(self.group);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
            self.arrivals.push(ctx.now());
        }
    }

    /// Multicasts to `group` once a millisecond for `rounds` rounds, then
    /// records one draw from its shard's RNG stream.
    struct Beacon {
        group: GroupId,
        rounds: u32,
        rng_after: Option<u64>,
    }
    impl Component for Beacon {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            ctx.multicast(self.group, || TestMsg::Ping);
            self.rounds -= 1;
            if self.rounds > 0 {
                ctx.set_timer(SimSpan::from_millis(1), 0);
            } else {
                self.rng_after = Some(ctx.rng().range(0, usize::MAX) as u64);
            }
        }
    }

    struct Loopy;
    impl Component for Loopy {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_micros(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            ctx.set_timer(SimSpan::from_micros(1), 0);
        }
    }

    struct SrcProbe {
        from_external: bool,
    }
    impl Component for SrcProbe {
        type Msg = TestMsg;
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, src: ComponentId, _: TestMsg) {
            self.from_external = src == ComponentId::EXTERNAL;
        }
    }

    /// Opens a root span, relays through a middle hop that doesn't
    /// instrument anything, ends at a sink that opens a child — the
    /// context must survive the uninstrumented hop.
    struct SpanSource {
        next: ComponentId,
    }
    impl Component for SpanSource {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let root = ctx.span_open("op.root");
            ctx.span_label(root, "kind", "test");
            ctx.send(self.next, TestMsg::Ping);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
    }
    struct SpanRelay {
        next: ComponentId,
    }
    impl Component for SpanRelay {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, msg: TestMsg) {
            ctx.send(self.next, msg); // no instrumentation here
        }
    }
    struct SpanSink;
    impl Component for SpanSink {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
            let leaf = ctx.span_open("op.leaf");
            ctx.span_close(leaf);
        }
    }

    struct TimerSpans {
        carried: Option<Option<SpanId>>,
        plain: Option<Option<SpanId>>,
    }
    impl Component for TimerSpans {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let op = ctx.span_open("op");
            ctx.set_timer_in(op, SimSpan::from_secs(1), 1);
            ctx.set_timer(SimSpan::from_secs(2), 2);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            if tag == 1 {
                self.carried = Some(ctx.current_span());
            } else {
                self.plain = Some(ctx.current_span());
            }
        }
    }

    struct Nester;
    impl Component for Nester {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let outer = ctx.span_open("outer");
            let inner = ctx.span_open("inner");
            assert_eq!(ctx.current_span(), Some(inner));
            ctx.span_close(inner);
            assert_eq!(ctx.current_span(), Some(outer));
            let marker = ctx.span_instant("marker");
            assert_eq!(ctx.current_span(), Some(outer));
            ctx.span_close(outer);
            assert_eq!(ctx.current_span(), None);
            let _ = marker;
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
    }

    struct Halter;
    impl Component for Halter {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_secs(1), 0);
            ctx.set_timer(SimSpan::from_secs(100), 1);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            if tag == 0 {
                ctx.halt();
            } else {
                panic!("should have halted");
            }
        }
    }

    /// Declares a preferred shard via [`Component::shard_hint`].
    struct Hinted {
        shard: usize,
    }
    impl Component for Hinted {
        type Msg = TestMsg;
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn shard_hint(&self) -> Option<usize> {
            Some(self.shard)
        }
    }

    node_enum! {
        /// Every component kind the engine unit tests register,
        /// exercising the macro-generated dispatcher along the way.
        enum TestNode: TestMsg {
            Echo(Echo) as as_echo,
            Kickoff(Kickoff) as as_kickoff,
            TimerUser(TimerUser) as as_timer_user,
            RestartProbe(RestartProbe) as as_restart_probe,
            Caster(Caster) as as_caster,
            Loopy(Loopy) as as_loopy,
            SrcProbe(SrcProbe) as as_src_probe,
            SpanSource(SpanSource) as as_span_source,
            SpanRelay(SpanRelay) as as_span_relay,
            SpanSink(SpanSink) as as_span_sink,
            TimerSpans(TimerSpans) as as_timer_spans,
            Nester(Nester) as as_nester,
            Halter(Halter) as as_halter,
            Hinted(Hinted) as as_hinted,
            Stamp(Stamp) as as_stamp,
            Beacon(Beacon) as as_beacon,
        }
    }

    fn sim(seed: u64) -> Engine<TestNode> {
        SimBuilder::new(seed).build()
    }

    #[test]
    fn ping_pong_terminates() {
        let mut sim = sim(1);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 5,
                seen: 0,
            },
        );
        let _kick = sim.add_component("kick", Kickoff { peer: echo });
        sim.run();
        let echo_ref = sim.component(echo).as_echo().unwrap();
        assert_eq!(echo_ref.seen, 6); // initial + 5 replies to its bounces
        assert_eq!(echo_ref.bounces, 0);
    }

    #[test]
    fn time_advances_with_network_latency() {
        let mut sim = sim(1);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        sim.post(SimTime::from_secs(3), echo, TestMsg::Ping);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.run();
        assert_eq!(
            sim.component(id).as_timer_user().unwrap().fired,
            vec![1, 2, 3]
        );
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: true,
            },
        );
        sim.run();
        assert_eq!(sim.component(id).as_timer_user().unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn crash_suppresses_delivery_and_timers() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1) + SimSpan::from_micros(1), id);
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.run();
        // Only the first timer fired before the crash.
        assert_eq!(sim.component(id).as_timer_user().unwrap().fired, vec![1]);
        assert_eq!(sim.metrics().counter("net.to_dead"), 1);
    }

    #[test]
    fn dead_letters_are_counted_by_reason() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        // To a crashed component and to an id nothing is registered under.
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.post(SimTime::from_secs(2), ComponentId(99), TestMsg::Ping);
        sim.run();
        assert_eq!(
            sim.metrics()
                .counter_with("dead_letters", &label("reason", "crashed")),
            1
        );
        assert_eq!(
            sim.metrics()
                .counter_with("dead_letters", &label("reason", "unknown_dst")),
            1
        );
        assert_eq!(sim.dead_letters(), 2);
        assert_eq!(sim.metrics().counter("net.to_dead"), 2);
    }

    #[test]
    fn crash_restart_lifecycle() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "p",
            RestartProbe {
                restarts: 0,
                crashes: 0,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        sim.schedule_restart(SimTime::from_secs(2), id);
        // Crash while already dead and restart while alive are no-ops.
        sim.schedule_crash(SimTime::from_secs(1) + SimSpan::from_millis(1), id);
        sim.schedule_restart(SimTime::from_secs(3), id);
        sim.run();
        let p = sim.component(id).as_restart_probe().unwrap();
        assert_eq!(p.crashes, 1);
        assert_eq!(p.restarts, 1);
        assert!(sim.is_alive(id));
    }

    #[test]
    fn run_until_advances_clock_past_empty_queue() {
        let mut sim = sim(1);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn determinism_same_seed_same_history() {
        fn history(seed: u64) -> (u64, SimTime) {
            let mut sim = sim(seed);
            let echo = sim.add_component(
                "echo",
                Echo {
                    bounces: 50,
                    seen: 0,
                },
            );
            let _k = sim.add_component("kick", Kickoff { peer: echo });
            sim.run();
            (sim.events_executed(), sim.now())
        }
        assert_eq!(history(42), history(42));
    }

    #[test]
    fn multicast_reaches_all_members_except_sender() {
        let mut sim = sim(1);
        let group = sim.create_group();
        let a = sim.add_component(
            "a",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        let b = sim.add_component(
            "b",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        sim.join_group(group, a);
        sim.join_group(group, b);
        let _c = sim.add_component("caster", Caster { group });
        sim.run();
        assert_eq!(sim.component(a).as_echo().unwrap().seen, 1);
        assert_eq!(sim.component(b).as_echo().unwrap().seen, 1);
    }

    /// Three stamps (the middle one muted when `mute_middle`) under a
    /// ten-round beacon on a jittered LAN; `crash_middle` crashes the
    /// middle stamp halfway through. Returns each stamp's arrivals, the
    /// beacon's post-run RNG draw and the network ledger.
    fn beacon_run(
        seed: u64,
        shards: usize,
        mute_middle: bool,
        crash_middle: bool,
    ) -> (Vec<Vec<SimTime>>, Option<u64>, NetLedger) {
        let mut sim: Engine<TestNode> = SimBuilder::new(seed)
            .network(NetworkConfig::lossy_lan(0.2))
            .shards(shards)
            .build();
        let group = sim.create_group();
        let stamps: Vec<ComponentId> = (0..3)
            .map(|i| {
                sim.add_component_in_shard(
                    format!("stamp{i}"),
                    Stamp {
                        group,
                        mute: mute_middle && i == 1,
                        arrivals: Vec::new(),
                    },
                    i % shards,
                )
            })
            .collect();
        let beacon = sim.add_component(
            "beacon",
            Beacon {
                group,
                rounds: 10,
                rng_after: None,
            },
        );
        if crash_middle {
            sim.schedule_crash(SimTime(5_500), stamps[1]);
        }
        sim.run();
        let arrivals = stamps
            .iter()
            .map(|&id| sim.component(id).as_stamp().unwrap().arrivals.clone())
            .collect();
        let rng_after = sim.component(beacon).as_beacon().unwrap().rng_after;
        (arrivals, rng_after, sim.net_ledger())
    }

    #[test]
    fn muting_a_member_changes_nothing_for_the_others() {
        for seed in [1u64, 2, 3] {
            let (all, rng_all, net_all) = beacon_run(seed, 1, false, false);
            let (muted, rng_muted, net_muted) = beacon_run(seed, 1, true, false);
            assert!(!all[1].is_empty(), "the middle stamp listens by default");
            assert!(muted[1].is_empty(), "a muted member takes no delivery");
            assert_eq!(muted[0], all[0], "seed {seed}: first stamp's arrivals");
            assert_eq!(muted[2], all[2], "seed {seed}: last stamp's arrivals");
            assert_eq!(rng_muted, rng_all, "seed {seed}: the RNG stream moved");
            assert_eq!(net_muted.sent, net_all.sent, "muted transits still count");
            assert_eq!(net_muted.dropped, net_all.dropped);
            assert_eq!(net_muted.muted, all[1].len() as u64);
            assert_eq!(net_all.muted, 0);
        }
    }

    #[test]
    fn net_ledger_balances_at_quiescence() {
        for shards in [1usize, 2] {
            for (mute, crash) in [(false, false), (true, false), (true, true)] {
                let (arrivals, _, net) = beacon_run(4, shards, mute, crash);
                assert_eq!(net.in_flight, 0, "run() drains the queue");
                assert!(
                    net.balanced(),
                    "shards {shards} mute {mute} crash {crash}: {net:?}"
                );
                assert!(net.dropped > 0, "the lossy LAN drops some transits");
                if crash {
                    // A crashed member is never skipped: what reaches it
                    // becomes a dead letter, exactly as if it listened.
                    assert!(net.to_dead > 0, "{net:?}");
                    assert!(arrivals[1].is_empty());
                }
            }
        }
        let mut sim = sim(1);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 3,
                seen: 0,
            },
        );
        sim.add_component("kick", Kickoff { peer: echo });
        sim.run_until(SimTime(50));
        let mid = sim.net_ledger();
        assert!(mid.in_flight > 0 && mid.balanced(), "{mid:?}");
    }

    #[test]
    fn net_muted_is_registered_only_when_nonzero() {
        let mut sim = sim(1);
        let group = sim.create_group();
        sim.add_component(
            "stamp",
            Stamp {
                group,
                mute: false,
                arrivals: Vec::new(),
            },
        );
        sim.add_component(
            "beacon",
            Beacon {
                group,
                rounds: 2,
                rng_after: None,
            },
        );
        sim.run();
        assert!(!sim.metrics().counter_names().contains(&"net.muted"));
    }

    #[test]
    fn max_events_guard_stops_runaway() {
        let mut sim: Engine<TestNode> = SimBuilder::new(1).max_events(100).build();
        sim.add_component("loopy", Loopy);
        sim.run();
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn run_for_advances_relative_spans() {
        let mut sim = sim(1);
        sim.run_for(SimSpan::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_for(SimSpan::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(8));
    }

    #[test]
    fn node_enum_accessor_is_variant_checked() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "echo",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        assert!(sim.component(id).as_echo().is_some());
        assert!(sim.component(id).as_kickoff().is_none());
        assert!(sim.get(ComponentId(99)).is_none());
    }

    #[test]
    fn external_posts_report_external_sender() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "p",
            SrcProbe {
                from_external: false,
            },
        );
        sim.post(SimTime::from_secs(1), id, TestMsg::Ping);
        sim.run();
        assert!(sim.component(id).as_src_probe().unwrap().from_external);
    }

    #[test]
    fn name_of_unknown_component_is_safe() {
        let sim = sim(1);
        assert_eq!(sim.name_of(ComponentId(99)), "?");
        assert!(!sim.is_alive(ComponentId(99)));
    }

    #[test]
    fn span_context_survives_uninstrumented_hops() {
        let mut sim = sim(1);
        let sink = sim.add_component("sink", SpanSink);
        let relay = sim.add_component("relay", SpanRelay { next: sink });
        let _src = sim.add_component("src", SpanSource { next: relay });
        sim.run();
        let spans = sim.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op.root").unwrap();
        let leaf = spans.iter().find(|s| s.name == "op.leaf").unwrap();
        assert_eq!(leaf.parent, Some(root.id), "context lost across relay");
        assert_eq!(root.label("kind"), Some("test"));
        assert!(leaf.end_us.is_some());
        assert!(root.end_us.is_none(), "source never closed its root");
    }

    #[test]
    fn plain_timers_do_not_inherit_context_but_spanned_ones_carry_it() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerSpans {
                carried: None,
                plain: None,
            },
        );
        sim.run();
        let t = sim.component(id).as_timer_spans().unwrap();
        assert_eq!(t.carried, Some(Some(SpanId(1))));
        assert_eq!(t.plain, Some(None));
    }

    #[test]
    fn span_open_close_behaves_as_stack() {
        let mut sim = sim(1);
        sim.add_component("n", Nester);
        sim.run();
        assert_eq!(sim.spans().len(), 3);
        let marker = sim.spans().iter().find(|s| s.name == "marker").unwrap();
        assert_eq!(
            marker.parent,
            Some(sim.spans().iter().find(|s| s.name == "outer").unwrap().id)
        );
    }

    #[test]
    fn span_digest_is_deterministic_across_runs() {
        fn run() -> u64 {
            let mut sim = sim(7);
            let sink = sim.add_component("sink", SpanSink);
            let relay = sim.add_component("relay", SpanRelay { next: sink });
            let _src = sim.add_component("src", SpanSource { next: relay });
            sim.run();
            sim.span_digest()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn halt_stops_run() {
        let mut sim = sim(1);
        sim.add_component("h", Halter);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    fn classify(_m: &TestMsg) -> &'static str {
        "Ping"
    }

    #[test]
    fn observers_do_not_perturb_the_event_digest() {
        fn run(observed: bool) -> (u64, u64) {
            let mut sim = sim(9);
            if observed {
                sim.set_msg_classifier(classify);
                sim.enable_profiler();
                sim.enable_flight_recorder(16);
            }
            let echo = sim.add_component(
                "echo",
                Echo {
                    bounces: 5,
                    seen: 0,
                },
            );
            sim.add_component("kick", Kickoff { peer: echo });
            sim.run();
            (sim.digest(), sim.events_executed())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiler_attributes_events_to_kind_and_variant() {
        let mut sim = sim(3);
        sim.set_msg_classifier(classify);
        sim.enable_profiler();
        let echo = sim.add_component(
            "echo1",
            Echo {
                bounces: 2,
                seen: 0,
            },
        );
        sim.add_component("echo2", Kickoff { peer: echo });
        sim.run();
        let folded = sim.profile_folded();
        // Both components share the digit-stripped kind "echo"; starts
        // and delivers are separate buckets.
        assert!(folded.contains("echo;Ping "), "folded:\n{folded}");
        assert!(folded.contains("echo;start 2\n"), "folded:\n{folded}");
        let rows = sim.profile_rows();
        let total: u64 = rows.iter().map(|r| r.events).sum();
        assert_eq!(total, sim.events_executed());
        // Deterministic bytes for the deterministic columns.
        assert_eq!(folded, sim.profile_folded());
    }

    #[test]
    fn flight_recorder_keeps_recent_events_with_variants() {
        let mut sim = sim(4);
        sim.set_msg_classifier(classify);
        sim.enable_flight_recorder(4);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 6,
                seen: 0,
            },
        );
        sim.add_component("kick", Kickoff { peer: echo });
        sim.run();
        let fr = sim.flight_recorder().unwrap();
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.recorded(), sim.events_executed());
        let evs = fr.events();
        assert_eq!(evs.len(), 4);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].time_us, w[0].seq) < (w[1].time_us, w[1].seq)));
        assert!(evs
            .iter()
            .all(|e| e.kind == "deliver" && e.variant == "Ping"));
    }

    #[test]
    fn dead_letters_carry_msg_variant_when_classified() {
        let mut sim = sim(5);
        sim.set_msg_classifier(classify);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.run();
        let labels = label("reason", "crashed").with("msg", "Ping");
        assert_eq!(sim.metrics().counter_with("dead_letters", &labels), 1);
        assert_eq!(sim.dead_letters(), 1);
    }

    #[test]
    fn queue_depth_reports_pending_events() {
        let mut sim = sim(6);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        assert_eq!(sim.queue_depth(), 1, "the pending Start event");
        sim.post(SimTime::from_secs(10), id, TestMsg::Ping);
        assert_eq!(sim.queue_depth(), 2);
        sim.run();
        assert_eq!(sim.queue_depth(), 0);
    }

    // -- sharded execution ---------------------------------------------

    fn ssim(seed: u64, shards: usize, workers: usize) -> Engine<TestNode> {
        SimBuilder::new(seed)
            .shards(shards)
            .workers(workers)
            .build()
    }

    /// Cross-shard ping-pong mesh: kickers and echoes deliberately land
    /// on different shards so every exchange crosses a shard boundary.
    fn build_mesh(sim: &mut Engine<TestNode>, shards: usize) {
        let mut echoes = Vec::new();
        for i in 0..shards.max(2) {
            echoes.push(sim.add_component_in_shard(
                "echo",
                Echo {
                    bounces: 5,
                    seen: 0,
                },
                i % shards,
            ));
        }
        for (i, &echo) in echoes.iter().enumerate() {
            sim.add_component_in_shard("kick", Kickoff { peer: echo }, (i + 1) % shards);
        }
    }

    #[test]
    fn sharded_digest_independent_of_worker_count() {
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let mut sim = ssim(42, 4, workers);
            build_mesh(&mut sim, 4);
            sim.run();
            let got = (
                sim.digest(),
                sim.events_executed(),
                sim.now(),
                sim.metrics().counter("net.sent"),
                sim.metrics().counter("net.delivered"),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "worker count {workers} changed observable behavior"
                ),
            }
        }
    }

    #[test]
    fn single_shard_matches_sharded_engine_structure() {
        // S=1 must follow the historical sequential path byte-for-byte;
        // S>1 is a different (but self-consistent) schedule.
        let mut seq = ssim(9, 1, 1);
        build_mesh(&mut seq, 1);
        seq.run();
        let mut again = ssim(9, 1, 4);
        build_mesh(&mut again, 1);
        again.run();
        assert_eq!(seq.digest(), again.digest());
        assert_eq!(seq.queue_kind(), QueueKind::Heap);
        assert_eq!(again.shard_count(), 1);
    }

    #[test]
    fn queue_kind_does_not_affect_digest() {
        let run = |kind: QueueKind| {
            let mut sim: Engine<TestNode> = SimBuilder::new(7).queue(kind).build();
            build_mesh(&mut sim, 1);
            sim.add_component(
                "t",
                TimerUser {
                    fired: vec![],
                    cancel_second: true,
                },
            );
            sim.run();
            (sim.digest(), sim.events_executed())
        };
        assert_eq!(run(QueueKind::Heap), run(QueueKind::Bucket));
    }

    #[test]
    fn shard_hint_routes_registration() {
        let mut sim = ssim(1, 4, 1);
        let a = sim.add_component("a", Hinted { shard: 2 });
        let b = sim.add_component("b", Hinted { shard: 7 });
        let c = sim.add_component(
            "c",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        assert_eq!(sim.shard_of(a), Some(2));
        assert_eq!(
            sim.shard_of(b),
            Some(3),
            "hints wrap modulo the shard count"
        );
        assert_eq!(sim.shard_of(c), Some(0), "no hint lands on shard 0");
        assert!(sim.component(a).as_hinted().is_some());
        assert_eq!(sim.shard_count(), 4);
        assert_eq!(sim.worker_count(), 1);
        assert_eq!(sim.queue_kind(), QueueKind::Bucket);
    }

    #[test]
    fn sharded_multicast_and_metrics() {
        let mut sim = ssim(5, 4, 2);
        let g = sim.create_group();
        let m1 = sim.add_component_in_shard(
            "m1",
            Echo {
                bounces: 0,
                seen: 0,
            },
            1,
        );
        let m2 = sim.add_component_in_shard(
            "m2",
            Echo {
                bounces: 0,
                seen: 0,
            },
            2,
        );
        sim.join_group(g, m1);
        sim.join_group(g, m2);
        sim.add_component_in_shard("caster", Caster { group: g }, 3);
        sim.run();
        assert_eq!(sim.metrics().counter("net.sent"), 2);
        assert_eq!(sim.metrics().counter("net.delivered"), 2);
        assert_eq!(sim.component(m1).as_echo().unwrap().seen, 1);
        assert_eq!(sim.component(m2).as_echo().unwrap().seen, 1);
    }

    #[test]
    fn sharded_dead_letters_and_crash_lifecycle() {
        let mut sim: Engine<TestNode> = SimBuilder::new(11)
            .shards(2)
            .workers(2)
            .trace_capacity(16)
            .build();
        let probe = sim.add_component_in_shard(
            "probe",
            RestartProbe {
                restarts: 0,
                crashes: 0,
            },
            1,
        );
        let timers = sim.add_component_in_shard(
            "timers",
            TimerUser {
                fired: vec![],
                cancel_second: true,
            },
            0,
        );
        sim.schedule_crash(SimTime(500_000), probe);
        sim.post(SimTime::from_secs(1), probe, TestMsg::Ping);
        sim.schedule_restart(SimTime(1_500_000), probe);
        sim.run();
        let p = sim.component(probe).as_restart_probe().unwrap();
        assert_eq!(p.crashes, 1);
        assert_eq!(p.restarts, 1);
        let t = sim.component(timers).as_timer_user().unwrap();
        assert_eq!(t.fired, vec![1, 3], "cancelled timer must not fire");
        assert_eq!(sim.metrics().counter("net.to_dead"), 1);
        assert_eq!(sim.dead_letters(), 1);
        assert_eq!(sim.metrics().counter("failure.crashes"), 1);
        assert_eq!(sim.metrics().counter("failure.restarts"), 1);
        assert_eq!(
            sim.trace().total_recorded(),
            1,
            "the crash must surface in the replayed trace"
        );
    }

    #[test]
    fn sharded_spans_cross_shard_parentage() {
        let mut sim = ssim(3, 3, 3);
        let sink = sim.add_component_in_shard("sink", SpanSink, 2);
        let relay = sim.add_component_in_shard("relay", SpanRelay { next: sink }, 1);
        sim.add_component_in_shard("source", SpanSource { next: relay }, 0);
        sim.run();
        let spans = sim.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op.root").unwrap();
        let leaf = spans.iter().find(|s| s.name == "op.leaf").unwrap();
        assert_eq!(
            leaf.parent,
            Some(root.id),
            "span context must survive two shard hops"
        );
        assert!(
            root.id.0 >= 1 << 40,
            "sharded span ids live in the shard namespace"
        );
        assert_eq!(root.label("kind"), Some("test"));
    }

    #[test]
    fn sharded_observers_do_not_perturb_digest() {
        let bare = {
            let mut sim = ssim(21, 4, 4);
            build_mesh(&mut sim, 4);
            sim.run();
            sim.digest()
        };
        let mut sim: Engine<TestNode> = SimBuilder::new(21)
            .shards(4)
            .workers(4)
            .trace_capacity(64)
            .build();
        sim.enable_profiler();
        sim.enable_flight_recorder(32);
        build_mesh(&mut sim, 4);
        sim.run();
        assert_eq!(sim.digest(), bare);
        assert!(!sim.profile_rows().is_empty());
        assert!(sim.flight_recorder().unwrap().recorded() > 0);
    }

    #[test]
    fn sharded_halt_and_run_until() {
        let mut sim = ssim(13, 2, 2);
        sim.add_component_in_shard("halter", Halter, 0);
        sim.add_component_in_shard("loopy", Loopy, 1);
        sim.run();
        assert!(sim.now() >= SimTime::from_secs(1));
        assert!(
            sim.now() < SimTime::from_secs(100),
            "halt must stop the run"
        );

        let mut sim = ssim(13, 2, 2);
        sim.add_component_in_shard("loopy", Loopy, 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert!(sim.events_executed() > 100);
    }

    #[test]
    fn sharded_net_fault_fires_at_commit() {
        let mut sim = ssim(17, 2, 2);
        let echo = sim.add_component_in_shard(
            "echo",
            Echo {
                bounces: 9,
                seen: 0,
            },
            0,
        );
        sim.add_component_in_shard("kick", Kickoff { peer: echo }, 1);
        sim.schedule_net_fault(SimTime(50), NetFault::SetLossPpm(1_000_000));
        sim.run();
        assert_eq!(sim.metrics().counter("failure.net"), 1);
        assert!(
            sim.metrics().counter("net.dropped") > 0,
            "full loss after the fault must drop the remaining traffic"
        );
    }

    // -- model checking over sharded queues ----------------------------

    /// Minimal cloneable component for snapshot/restore tests.
    #[derive(Clone)]
    struct McPing {
        peer: Option<ComponentId>,
        count: u32,
        timers: u32,
    }
    impl Component for McPing {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            if let Some(p) = self.peer {
                ctx.send(p, TestMsg::Ping);
            }
            ctx.set_timer(SimSpan::from_secs(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, src: ComponentId, _: TestMsg) {
            self.count += 1;
            if self.count < 6 && src != ComponentId::EXTERNAL {
                ctx.send(src, TestMsg::Ping);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            // Bounded re-arming so every run drains even if the peer dies.
            self.timers += 1;
            if self.timers < 3 {
                ctx.set_timer(SimSpan::from_secs(1), 0);
            }
        }
    }
    impl crate::mc::McState for McPing {
        fn mc_fold(&self, h: &mut crate::mc::McHasher) {
            h.word(self.count as u64);
        }
    }
    impl crate::mc::McState for TestMsg {
        fn mc_fold(&self, h: &mut crate::mc::McHasher) {
            h.word(match self {
                TestMsg::Ping => 1,
            });
        }
    }

    #[test]
    fn mc_snapshot_restore_roundtrip_over_sharded_queues() {
        let mut sim: Engine<McPing> = SimBuilder::new(31).shards(2).build();
        let b = sim.add_component_in_shard(
            "b",
            McPing {
                peer: None,
                count: 0,
                timers: 0,
            },
            1,
        );
        sim.add_component_in_shard(
            "a",
            McPing {
                peer: Some(b),
                count: 0,
                timers: 0,
            },
            0,
        );
        // Advance a couple of windows so both shard queues hold live
        // cross-shard traffic, then capture.
        sim.step();
        sim.step();
        let pending = sim.mc_pending();
        assert!(!pending.is_empty());
        assert!(
            pending.iter().all(|p| p.seq >= 1 << 48),
            "sharded pending seqs carry the shard namespace"
        );
        let snap = sim.mc_snapshot();
        let fp = sim.mc_fingerprint();
        sim.run();
        let end = (sim.digest(), sim.events_executed(), sim.now());

        sim.mc_restore(&snap);
        assert_eq!(sim.mc_fingerprint(), fp, "restore must reproduce the state");
        assert!(!sim.mc_drop_pending(u64::MAX), "bogus seq is rejected");
        sim.run();
        assert_eq!(
            (sim.digest(), sim.events_executed(), sim.now()),
            end,
            "a restored run must replay identically"
        );
    }

    #[test]
    fn mc_perturbation_on_sharded_queues() {
        let mut sim: Engine<McPing> = SimBuilder::new(33).shards(2).build();
        let b = sim.add_component_in_shard(
            "b",
            McPing {
                peer: None,
                count: 0,
                timers: 0,
            },
            1,
        );
        let a = sim.add_component_in_shard(
            "a",
            McPing {
                peer: Some(b),
                count: 0,
                timers: 0,
            },
            0,
        );
        sim.step();
        // Execute a pending event out of order, drop another, then let a
        // crash/restart pair run — the monotonic-seq audit must hold.
        let pending = sim.mc_pending();
        assert!(sim.mc_execute_pending(pending[pending.len() - 1].seq));
        if let Some(p) = sim.mc_pending().first() {
            assert!(sim.mc_drop_pending(p.seq));
        }
        sim.mc_inject_crash(a);
        sim.mc_inject_restart(a);
        sim.mc_gc();
        sim.mc_release();
        sim.run();
        assert!(sim.metrics().counter("mc.dropped") >= 1);
        assert_eq!(sim.metrics().counter("failure.crashes"), 1);
    }
}
