//! Windowed executor for sharded engines.
//!
//! A sharded [`Engine`](crate::engine::Engine) advances in *conservative
//! lookahead windows*. Each window:
//!
//! 1. finds `t0`, the earliest pending event across every shard queue and
//!    the scheduled network faults;
//! 2. sets the horizon to `min(t0 + lookahead, deadline, first net fault)`,
//!    where `lookahead` is the minimum cross-component network latency
//!    fixed at build time — no cross-shard message sent at or after `t0`
//!    can arrive before `t0 + lookahead`, so events up to the horizon are
//!    causally independent across shards;
//! 3. lets every shard execute its own events up to the horizon —
//!    inline, or on worker threads when the window is big enough to pay
//!    for dispatch (the choice is invisible: per-shard work is isolated
//!    either way);
//! 4. commits the window in deterministic shard-major order: digest
//!    records, due network faults, liveness and group changes,
//!    cross-shard outboxes (which draw destination-shard seqs here, not
//!    on the worker), halt flags and flight-recorder events.
//!
//! Worker count never appears in any of those steps, which is why the
//! audited digest of an `N`-worker run is byte-identical to the same
//! engine run with one worker.

use snooze_telemetry::label::label;
use snooze_telemetry::span::SpanId;

use crate::engine::{
    event_words, Component, ComponentId, Ctx, Engine, EngineCore, EventKind, ExecRec, NetFault,
    Scheduled, ShardCtx, ShardState, SharedView,
};
use crate::flight::FlightEvent;
use crate::time::SimTime;

/// Estimated events per window below which thread dispatch costs more
/// than it saves; such windows run inline on the calling thread. The
/// choice never affects the digest — only wall-clock time.
pub(crate) const DISPATCH_THRESHOLD: u64 = 96;

/// Execute one lookahead window up to `deadline`. Returns `false` when
/// nothing at or before `deadline` is pending, the engine halted, or the
/// event budget ran out — i.e. when the caller's loop should stop.
pub(crate) fn step_window<C: Component>(engine: &mut Engine<C>, deadline: SimTime) -> bool {
    if engine.core.halted || engine.core.events_executed >= engine.max_events {
        return false;
    }
    engine.started = true;

    // The global minimum pending time, across shard queues and faults.
    let mut t0 = engine.core.net_events.first().map(|&(t, _, _)| t);
    for sh in engine.core.shards.iter_mut() {
        if let Some((t, _)) = sh.queue.peek_key() {
            t0 = Some(match t0 {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        }
    }
    let Some(t0) = t0 else { return false };
    if t0 > deadline {
        return false;
    }

    // Conservative horizon: events up to here are safe to execute
    // without seeing this window's cross-shard traffic. Network faults
    // mutate global state, so the horizon never extends past the first.
    let mut horizon = SimTime(t0.0.saturating_add(engine.core.lookahead.0)).min(deadline);
    if let Some(&(t, _, _)) = engine.core.net_events.first() {
        horizon = horizon.min(t);
    }

    // Count (approximately, capped) how much work the window holds to
    // decide whether thread dispatch is worth it.
    let mut est = 0u64;
    for sh in engine.core.shards.iter_mut() {
        est += sh
            .queue
            .approx_events_before(horizon, DISPATCH_THRESHOLD as usize) as u64;
        if est >= DISPATCH_THRESHOLD {
            break;
        }
    }
    let use_pool = engine.core.workers > 1 && est >= DISPATCH_THRESHOLD;

    {
        let Engine {
            core, components, ..
        } = engine;
        let EngineCore {
            shards,
            shard_of,
            local_of,
            network,
            names,
            alive,
            incarnation,
            classifier,
            flight,
            ..
        } = &mut *core;
        let shared = SharedView {
            network: &*network,
            names: names.as_slice(),
            alive: alive.as_slice(),
            incarnation: incarnation.as_slice(),
            shard_of: shard_of.as_slice(),
            local_of: local_of.as_slice(),
            n_components: names.len(),
            classifier: *classifier,
            flight_on: flight.is_some(),
        };
        if use_pool {
            rayon::scope(|s| {
                for (i, (st, comps)) in shards.iter_mut().zip(components.iter_mut()).enumerate() {
                    s.spawn(move |_| run_shard(i, st, comps, shared, horizon));
                }
            });
        } else {
            for (i, (st, comps)) in shards.iter_mut().zip(components.iter_mut()).enumerate() {
                run_shard(i, st, comps, shared, horizon);
            }
        }
    }

    commit(engine, horizon)
}

/// Drain one shard's queue up to (and including) the horizon. Touches
/// only the shard's own state plus the frozen shared view — this is the
/// function that runs concurrently.
fn run_shard<C: Component>(
    shard: usize,
    st: &mut ShardState<C::Msg>,
    comps: &mut [Option<C>],
    shared: SharedView<'_, C::Msg>,
    horizon: SimTime,
) {
    loop {
        match st.queue.peek_key() {
            Some((t, _)) if t <= horizon => {}
            _ => break,
        }
        let ev = st.queue.pop().expect("peeked event vanished");
        execute_shard_event(shard, st, comps, shared, ev);
    }
}

/// Liveness of `id` as seen by this shard: the window's own overlay if
/// this shard crashed/restarted it, else the frozen pre-window state.
pub(crate) fn live_of<M>(
    st: &ShardState<M>,
    shared: SharedView<'_, M>,
    id: ComponentId,
) -> (bool, u32) {
    match st.scratch.live.get(&id.0) {
        Some(&(alive, inc)) => (alive, inc),
        None => (
            shared.alive.get(id.0).copied().unwrap_or(false),
            shared.incarnation.get(id.0).copied().unwrap_or(0),
        ),
    }
}

/// Feed one executed event to this shard's observer buffers. Mirrors the
/// sequential engine's `observe_event`; pure observation, never folded.
fn observe<M>(st: &mut ShardState<M>, shared: SharedView<'_, M>, ev: &Scheduled<M>) {
    if st.scratch.profiler.is_none() && !shared.flight_on {
        return;
    }
    let (kind, comp, a, b): (&'static str, Option<usize>, u64, u64) = match &ev.kind {
        EventKind::Start(id) => ("start", Some(id.0), id.0 as u64, 0),
        EventKind::Deliver { src, dst, .. } => ("deliver", Some(dst.0), src.0 as u64, dst.0 as u64),
        EventKind::Timer { dst, tag, .. } => ("timer", Some(dst.0), dst.0 as u64, *tag),
        EventKind::Crash(id) => ("crash", Some(id.0), id.0 as u64, 0),
        EventKind::Restart(id) => ("restart", Some(id.0), id.0 as u64, 0),
        EventKind::Net(_) => ("net", None, 0, 0),
    };
    let variant = match (&ev.kind, shared.classifier) {
        (EventKind::Deliver { msg, .. }, Some(classify)) => classify(msg),
        _ => kind,
    };
    if let Some(p) = st.scratch.profiler.as_mut() {
        let k = p.kind_index(comp, shared.names);
        p.begin_event(k, variant);
    }
    if shared.flight_on {
        st.scratch.flight.push(FlightEvent {
            time_us: ev.time.0,
            seq: ev.seq,
            kind,
            a,
            b,
            variant,
        });
    }
}

/// Execute one event inside a shard, buffering every side effect that
/// touches shared state into the shard's scratch.
fn execute_shard_event<C: Component>(
    shard: usize,
    st: &mut ShardState<C::Msg>,
    comps: &mut [Option<C>],
    shared: SharedView<'_, C::Msg>,
    ev: Scheduled<C::Msg>,
) {
    crate::audit_invariant!(
        "engine",
        "shard-monotonic",
        st.scratch
            .last_executed
            .is_none_or(|last| (ev.time, ev.seq) > last),
        "shard event (t={:?}, seq={}) not after last executed {:?}",
        ev.time,
        ev.seq,
        st.scratch.last_executed
    );
    st.scratch.last_executed = Some((ev.time, ev.seq));
    let (disc, a, b) = event_words(&ev.kind);
    st.scratch.recs.push(ExecRec {
        time: ev.time,
        seq: ev.seq,
        disc,
        a,
        b,
    });
    st.scratch.events += 1;
    observe(st, shared, &ev);
    let now = ev.time;
    match ev.kind {
        EventKind::Start(id) => {
            with_comp(shard, st, comps, shared, now, id, None, |comp, ctx| {
                comp.on_start(ctx)
            });
        }
        EventKind::Deliver {
            src,
            dst,
            msg,
            span,
        } => {
            if live_of(st, shared, dst).0 {
                st.scratch.fast.delivered += 1;
                with_comp(shard, st, comps, shared, now, dst, span, |comp, ctx| {
                    comp.on_message(ctx, src, msg)
                });
            } else {
                st.scratch.fast.to_dead += 1;
                let reason = if dst.0 < shared.n_components {
                    "crashed"
                } else {
                    "unknown_dst"
                };
                let mut labels = label("reason", reason);
                if let Some(classify) = shared.classifier {
                    labels.insert("msg", classify(&msg));
                }
                st.scratch.metrics.incr_with("dead_letters", &labels);
            }
        }
        EventKind::Timer {
            dst,
            tag,
            incarnation,
            id,
            span,
        } => {
            let (alive, inc) = live_of(st, shared, dst);
            let stale = st.cancelled_timers.remove(&id) || inc != incarnation || !alive;
            if !stale {
                with_comp(shard, st, comps, shared, now, dst, span, |comp, ctx| {
                    comp.on_timer(ctx, tag)
                });
            }
        }
        EventKind::Crash(id) => {
            let (alive, inc) = live_of(st, shared, id);
            if alive {
                st.scratch.live.insert(id.0, (false, inc + 1));
                st.scratch.fast.crashes += 1;
                if let Some(&local) = shared.local_of.get(id.0) {
                    if let Some(comp) = comps.get_mut(local as usize).and_then(|s| s.as_mut()) {
                        comp.on_crash(now);
                    }
                }
                let name = shared.names.get(id.0).cloned().unwrap_or_default();
                st.scratch.trace.push((now, id, "crash", name));
            }
        }
        EventKind::Restart(id) => {
            let (alive, inc) = live_of(st, shared, id);
            if !alive {
                st.scratch.live.insert(id.0, (true, inc));
                st.scratch.fast.restarts += 1;
                with_comp(shard, st, comps, shared, now, id, None, |comp, ctx| {
                    comp.on_restart(ctx)
                });
            }
        }
        EventKind::Net(_) => {
            unreachable!("network faults never enter shard queues")
        }
    }
}

/// Borrow the component behind `id` out of this shard and invoke `f`
/// with a windowed [`Ctx`]. Events in a shard's queue only ever target
/// that shard's own components, so `local_of` indexes `comps` directly.
#[allow(clippy::too_many_arguments)]
fn with_comp<C: Component, F: FnOnce(&mut C, &mut Ctx<'_, C::Msg>)>(
    shard: usize,
    st: &mut ShardState<C::Msg>,
    comps: &mut [Option<C>],
    shared: SharedView<'_, C::Msg>,
    now: SimTime,
    id: ComponentId,
    span: Option<SpanId>,
    f: F,
) {
    let Some(&local) = shared.local_of.get(id.0) else {
        return;
    };
    let Some(slot) = comps.get_mut(local as usize) else {
        return;
    };
    let Some(mut comp) = slot.take() else {
        return; // unknown or re-entrant — drop the event
    };
    st.scratch.ctx_span = span;
    {
        let mut ctx = Ctx::for_shard(
            ShardCtx {
                shard,
                now,
                state: st,
                shared,
            },
            id,
        );
        f(&mut comp, &mut ctx);
    }
    // Context hygiene: ambient span context never leaks across events.
    st.scratch.ctx_span = None;
    comps[local as usize] = Some(comp);
}

/// Commit a finished window into the shared engine state. Every loop
/// below walks the shards in index order and drains buffers that were
/// filled in per-shard execution order, so the merged effect is a pure
/// function of the window's contents — never of worker scheduling.
fn commit<C: Component>(engine: &mut Engine<C>, horizon: SimTime) -> bool {
    let mut total = 0u64;

    // 1. Fold the executed-event records into the run digest,
    // shard-major.
    for s in 0..engine.core.shards.len() {
        let recs = std::mem::take(&mut engine.core.shards[s].scratch.recs);
        for r in &recs {
            engine.core.fold_exec(r.time, r.seq, r.disc, r.a, r.b);
        }
        total += std::mem::take(&mut engine.core.shards[s].scratch.events);
    }

    // 2. Network faults due at the horizon run now, on the engine
    // thread — they mutate global network state, which is exactly why
    // the horizon never extends past the first of them.
    let mut net_flights: Vec<FlightEvent> = Vec::new();
    let n_due = engine
        .core
        .net_events
        .partition_point(|&(t, _, _)| t <= horizon);
    let due: Vec<(SimTime, u64, NetFault)> = engine.core.net_events.drain(..n_due).collect();
    for (t, seq, fault) in due {
        let kind = EventKind::<C::Msg>::Net(fault);
        let (disc, a, b) = event_words(&kind);
        engine.core.fold_exec(t, seq, disc, a, b);
        total += 1;
        engine.core.metrics.incr("failure.net");
        {
            let EngineCore {
                profiler, names, ..
            } = &mut engine.core;
            if let Some(p) = profiler.as_mut() {
                let k = p.kind_index(None, names);
                p.begin_event(k, "net");
            }
        }
        if engine.core.flight.is_some() {
            net_flights.push(FlightEvent {
                time_us: t.0,
                seq,
                kind: "net",
                a,
                b,
                variant: "net",
            });
        }
        match fault {
            NetFault::Isolate(id) => engine.core.network.isolate(id),
            NetFault::Reconnect(id) => engine.core.network.reconnect(id),
            NetFault::SetLossPpm(ppm) => engine.core.network.set_loss_rate(ppm as f64 / 1e6),
        }
    }

    // 3. Liveness overlays and multicast membership deltas, shard-major.
    for s in 0..engine.core.shards.len() {
        let live = std::mem::take(&mut engine.core.shards[s].scratch.live);
        for (idx, (alive, inc)) in live {
            engine.core.alive[idx] = alive;
            engine.core.incarnation[idx] = inc;
        }
        let groups = std::mem::take(&mut engine.core.shards[s].scratch.groups);
        for (g, id, op) in groups {
            engine.core.network.apply_group_op(g, id, op);
        }
    }

    // 4. Cross-shard outboxes: destination-shard seqs are assigned here,
    // in shard-major source order, so they are identical for every
    // worker count. The lookahead horizon guarantees each arrival lands
    // at or beyond every shard's horizon, i.e. in a later window.
    {
        let EngineCore { shards, .. } = &mut engine.core;
        for s in 0..shards.len() {
            let outbox = std::mem::take(&mut shards[s].scratch.outbox);
            for (dshard, time, kind) in outbox {
                debug_assert!(time >= horizon, "cross-shard arrival inside the window");
                let dst = &mut shards[dshard as usize];
                let seq = dst.seq;
                dst.seq += 1;
                dst.queue.push(Scheduled { time, seq, kind });
            }
        }
    }

    // 5. Halt flags.
    for s in 0..engine.core.shards.len() {
        if std::mem::take(&mut engine.core.shards[s].scratch.halt) {
            engine.core.halted = true;
        }
    }

    // 6. Flight-recorder merge: shard buffers plus the window's network
    // faults, stably sorted by time (same-time events keep shard-major
    // order), then pushed through the bounded ring.
    if engine.core.flight.is_some() {
        let mut batch: Vec<FlightEvent> = Vec::new();
        for s in 0..engine.core.shards.len() {
            batch.append(&mut engine.core.shards[s].scratch.flight);
        }
        batch.append(&mut net_flights);
        batch.sort_by_key(|e| e.time_us);
        if let Some(fr) = engine.core.flight.as_mut() {
            for e in batch {
                fr.record(e);
            }
        }
    }

    // 7. Advance the shared clock to the horizon.
    engine.core.events_executed += total;
    if horizon > engine.core.now {
        engine.core.now = horizon;
    }
    total > 0
}
