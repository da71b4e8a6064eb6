//! Property tests for the sharded executor: over random topologies,
//! the audited engine digest must be a function of (seed, topology,
//! shard count) only — never of the worker-thread count or the queue
//! implementation — and model-checker snapshot/restore must round-trip
//! the per-shard queues exactly. The same holds with multicast groups
//! whose members mute and unmute themselves mid-window.

use proptest::prelude::*;

use snooze_simcore::prelude::*;
use snooze_simcore::NetLedger;

/// A gossip node: on start it pings its successor peers, every received
/// message is forwarded with a decremented TTL to a peer chosen by the
/// TTL (deterministic, but irregular), and a bounded timer keeps
/// background traffic flowing. Peers are arbitrary, so random
/// topologies route freely across shard boundaries.
#[derive(Clone)]
struct Gossip {
    peers: Vec<ComponentId>,
    timers_left: u32,
    seen: u64,
}

impl Component for Gossip {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for (i, &p) in self.peers.iter().enumerate() {
            ctx.send(p, 3 + i as u64);
        }
        if self.timers_left > 0 {
            ctx.set_timer(SimSpan::from_micros(700), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: ComponentId, ttl: u64) {
        self.seen += 1;
        if ttl > 0 && !self.peers.is_empty() {
            let next = self.peers[(ttl as usize) % self.peers.len()];
            ctx.send(next, ttl - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        if let Some(&first) = self.peers.first() {
            ctx.send(first, 2u64);
        }
        if self.timers_left > 0 {
            self.timers_left -= 1;
            ctx.set_timer(SimSpan::from_micros(900), 0);
        }
    }
}

impl McState for Gossip {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(self.peers.len() as u64);
        h.word(self.timers_left as u64);
        h.word(self.seen);
    }
}

/// Build one engine over a pseudo-random topology drawn from `seed`:
/// `n` gossip nodes, each wired to 1–3 peers, spread across `shards`
/// via explicit placement.
fn build(seed: u64, n: usize, shards: usize, workers: usize, queue: QueueKind) -> Engine<Gossip> {
    let mut sim: Engine<Gossip> = SimBuilder::new(seed)
        .network(NetworkConfig::lan())
        .shards(shards)
        .workers(workers)
        .queue(queue)
        .build();
    let mut rng = SimRng::new(seed ^ 0x70_90_10);
    for i in 0..n {
        let n_peers = 1 + rng.range(0, 3);
        let peers = (0..n_peers).map(|_| ComponentId(rng.range(0, n))).collect();
        sim.add_component_in_shard(
            format!("g{i}"),
            Gossip {
                peers,
                timers_left: 2 + rng.range(0, 3) as u32,
                seen: 0,
            },
            i % shards,
        );
    }
    sim
}

const HORIZON: SimTime = SimTime(80_000);

fn digest_of(seed: u64, n: usize, shards: usize, workers: usize, queue: QueueKind) -> (u64, u64) {
    let mut sim = build(seed, n, shards, workers, queue);
    sim.run_until(HORIZON);
    (sim.digest(), sim.events_executed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: 1, 2, 4 and 8 workers produce the same
    /// audited digest over the same sharded topology.
    #[test]
    fn digest_is_independent_of_worker_count(
        seed in any::<u64>(),
        n in 3usize..20,
        shards in 1usize..5,
    ) {
        let reference = digest_of(seed, n, shards, 1, QueueKind::Bucket);
        for workers in [2usize, 4, 8] {
            let got = digest_of(seed, n, shards, workers, QueueKind::Bucket);
            prop_assert_eq!(
                got, reference,
                "digest drifted at {} workers (seed {seed}, n {n}, shards {shards})",
                workers
            );
        }
    }

    /// The queue implementation is a pure data-structure swap: heap and
    /// bucket runs replay byte-identical histories.
    #[test]
    fn digest_is_independent_of_queue_impl(
        seed in any::<u64>(),
        n in 3usize..20,
        shards in 1usize..5,
    ) {
        let heap = digest_of(seed, n, shards, 1, QueueKind::Heap);
        let bucket = digest_of(seed, n, shards, 1, QueueKind::Bucket);
        prop_assert_eq!(heap, bucket);
    }

    /// Snapshot → run to the horizon → restore → run again: the second
    /// pass must replay the exact same history over the restored
    /// per-shard queues, and the restored state must fingerprint
    /// identically to the captured one.
    #[test]
    fn mc_snapshot_restore_round_trips_sharded_queues(
        seed in any::<u64>(),
        n in 3usize..16,
        shards in 1usize..4,
    ) {
        let mut sim = build(seed, n, shards, 1, QueueKind::Bucket);
        sim.run_until(SimTime(20_000));
        let snap = sim.mc_snapshot();
        let fp_before = sim.mc_fingerprint();

        sim.run_until(HORIZON);
        let first = (sim.digest(), sim.events_executed());

        sim.mc_restore(&snap);
        prop_assert_eq!(sim.mc_fingerprint(), fp_before, "restore changed the fingerprint");
        sim.run_until(HORIZON);
        let second = (sim.digest(), sim.events_executed());
        prop_assert_eq!(first, second, "restored run diverged (seed {seed}, shards {shards})");
    }
}

/// Scale past the executor's inline-dispatch threshold (windows with a
/// hundred-plus synchronized timer events) so the worker pool really
/// runs, then hold the digest to the single-worker reference.
#[test]
fn pool_dispatch_matches_inline_at_scale() {
    let reference = digest_of(11, 96, 4, 1, QueueKind::Bucket);
    assert!(reference.1 > 1_000, "scale test too small to mean anything");
    for workers in [2usize, 4, 8] {
        assert_eq!(
            digest_of(11, 96, 4, workers, QueueKind::Bucket),
            reference,
            "{workers} workers"
        );
    }
}

/// A plain `SimBuilder::new(seed)` engine (the pre-shard configuration)
/// and an explicit single-shard sharded build replay byte-identical
/// histories — the compatibility guarantee protecting every E4–E12
/// golden.
#[test]
fn single_shard_build_matches_the_classic_engine() {
    for seed in [1u64, 7, 0xE4] {
        let classic = {
            let mut sim: Engine<Gossip> =
                SimBuilder::new(seed).network(NetworkConfig::lan()).build();
            let mut rng = SimRng::new(seed ^ 0x70_90_10);
            for i in 0..12 {
                let n_peers = 1 + rng.range(0, 3);
                let peers = (0..n_peers)
                    .map(|_| ComponentId(rng.range(0, 12)))
                    .collect();
                sim.add_component(
                    format!("g{i}"),
                    Gossip {
                        peers,
                        timers_left: 2 + rng.range(0, 3) as u32,
                        seen: 0,
                    },
                );
            }
            sim.run_until(HORIZON);
            (sim.digest(), sim.events_executed())
        };
        let sharded = digest_of(seed, 12, 1, 1, QueueKind::Heap);
        assert_eq!(classic, sharded, "seed {seed}");
    }
}

/// A chorus member: joins the shared multicast group on start, then on
/// every tick multicasts to it and flips its own mute flag every
/// `flip_every` ticks — so mutes and unmutes land mid-window, on every
/// shard, while other shards are still sending to the group.
#[derive(Clone)]
struct Chorus {
    group: GroupId,
    period_us: u64,
    ticks_left: u32,
    flip_every: u32,
    tick: u32,
    muted: bool,
    heard: u64,
}

impl Component for Chorus {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.join_group(self.group);
        if self.muted {
            ctx.mute_group(self.group);
        }
        ctx.set_timer(SimSpan::from_micros(self.period_us), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _src: ComponentId, _tick: u64) {
        self.heard += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        let tick = self.tick as u64;
        ctx.multicast(self.group, move || tick);
        self.tick += 1;
        if self.tick.is_multiple_of(self.flip_every) {
            self.muted = !self.muted;
            if self.muted {
                ctx.mute_group(self.group);
            } else {
                ctx.unmute_group(self.group);
            }
        }
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            ctx.set_timer(SimSpan::from_micros(self.period_us), 0);
        }
    }
}

impl McState for Chorus {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(self.ticks_left as u64);
        h.word(self.tick as u64);
        h.flag(self.muted);
        h.word(self.heard);
    }
}

/// `n` chorus members on one group, drawn from `seed`, spread over
/// `shards` (`None`: the classic unsharded builder).
fn build_chorus(seed: u64, n: usize, shards: Option<usize>, workers: usize) -> Engine<Chorus> {
    let builder = SimBuilder::new(seed).network(NetworkConfig::lossy_lan(0.05));
    let mut sim: Engine<Chorus> = match shards {
        Some(s) => builder.shards(s).workers(workers).build(),
        None => builder.build(),
    };
    let group = sim.create_group();
    let mut rng = SimRng::new(seed ^ 0xC0_905);
    for i in 0..n {
        let node = Chorus {
            group,
            period_us: 400 + 150 * rng.range(0, 4) as u64,
            ticks_left: 4 + rng.range(0, 6) as u32,
            flip_every: 1 + rng.range(0, 3) as u32,
            tick: 0,
            muted: rng.chance(0.5),
            heard: 0,
        };
        match shards {
            Some(s) => sim.add_component_in_shard(format!("c{i}"), node, i % s),
            None => sim.add_component(format!("c{i}"), node),
        };
    }
    sim
}

fn chorus_outcome(sim: &mut Engine<Chorus>) -> (u64, u64, NetLedger) {
    sim.run();
    (sim.digest(), sim.events_executed(), sim.net_ledger())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mute deltas are buffered per shard like joins and leaves, so the
    /// digest and the network ledger stay independent of the worker
    /// count, and every drawn transit is accounted for.
    #[test]
    fn muted_members_keep_the_digest_independent_of_worker_count(
        seed in any::<u64>(),
        n in 3usize..14,
        shards in 1usize..5,
    ) {
        let reference = chorus_outcome(&mut build_chorus(seed, n, Some(shards), 1));
        prop_assert!(reference.2.muted > 0, "some member was muted: {:?}", reference.2);
        prop_assert!(reference.2.balanced(), "{:?}", reference.2);
        for workers in [2usize, 4] {
            let got = chorus_outcome(&mut build_chorus(seed, n, Some(shards), workers));
            prop_assert_eq!(got, reference, "{} workers (seed {}, shards {})", workers, seed, shards);
        }
    }
}

/// With muting members, `shards(1)` still replays the classic engine
/// byte for byte, ledger included.
#[test]
fn muted_single_shard_build_matches_the_classic_engine() {
    for seed in [1u64, 7, 0xE4] {
        let classic = chorus_outcome(&mut build_chorus(seed, 9, None, 1));
        let sharded = chorus_outcome(&mut build_chorus(seed, 9, Some(1), 1));
        assert!(classic.2.muted > 0);
        assert_eq!(classic, sharded, "seed {seed}");
    }
}

/// Mute flags are model-checker state: a snapshot carries them, the
/// fingerprint sees them, and a restored run replays identically.
#[test]
fn mc_snapshot_restore_carries_mute_flags() {
    let mut sim = build_chorus(3, 6, None, 1);
    sim.run_until(SimTime(1_500));
    let group = GroupId(0);
    let members: Vec<(ComponentId, bool)> = sim
        .network()
        .group_members(group)
        .iter()
        .map(|m| (m.id, m.muted))
        .collect();
    assert_eq!(members.len(), 6);
    assert!(members.iter().any(|&(_, muted)| muted), "{members:?}");
    let snap = sim.mc_snapshot();
    let fp = sim.mc_fingerprint();

    // Flipping one flag is a different state.
    let (first, was_muted) = members[0];
    sim.network_mut().set_muted(group, first, !was_muted);
    assert_ne!(sim.mc_fingerprint(), fp, "the fingerprint folds mute flags");
    sim.mc_restore(&snap);
    assert_eq!(sim.mc_fingerprint(), fp);

    // Metrics are observers, outside snapshots: compare the histories.
    sim.run();
    let end = (sim.digest(), sim.events_executed());
    sim.mc_restore(&snap);
    assert_eq!(sim.mc_fingerprint(), fp, "restore reproduces the state");
    for &(id, muted) in &members {
        assert_eq!(sim.network().is_muted(group, id), Some(muted), "{id:?}");
    }
    sim.run();
    assert_eq!(
        (sim.digest(), sim.events_executed()),
        end,
        "a restored run replays identically"
    );
}
