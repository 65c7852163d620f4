//! Property tests for the [`wsp_noc::Fabric`] engine: packet
//! conservation, destination correctness, exclusion of disconnected
//! pairs, deterministic replay of the traffic simulator, and the
//! arena/ring-buffer invariants of the data-oriented hot loop —
//! wrap-around at tiny FIFO capacities, drain-to-empty occupancy
//! clearing, slot recycling, and the occupancy-bitmask walk on array
//! shapes that do not fill whole 64-bit words — swept across
//! fault-map × stepping.

use std::collections::HashMap;

use proptest::prelude::*;
use wsp_common::stepping::Stepping;
use wsp_noc::{
    Fabric, FabricPacket, NetworkChoice, NetworkKind, NocSim, RoutePlanner, SimConfig,
    TrafficPattern,
};
use wsp_topo::{FaultMap, TileArray, TileCoord, DIRECTIONS};

/// Injects one request per sampled healthy pair into `fabric`, skipping
/// disconnected ones, and returns `(injected_count, id → dst)`.
fn inject_random_pairs(
    fabric: &mut Fabric,
    faults: &FaultMap,
    attempts: usize,
    seed: u64,
) -> (u64, HashMap<u64, TileCoord>) {
    let planner = RoutePlanner::new(faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let mut rng = wsp_common::seeded_rng(seed);
    let mut injected = 0u64;
    let mut expected = HashMap::new();
    for _ in 0..attempts {
        use rand::RngExt as _;
        let src = healthy[rng.random_range(0..healthy.len())];
        let dst = healthy[rng.random_range(0..healthy.len())];
        if src == dst {
            continue;
        }
        let choice = planner.choose(src, dst);
        if choice == NetworkChoice::Disconnected {
            continue;
        }
        let id = fabric.allocate_id();
        let packet = FabricPacket::request(id, src, dst, choice, fabric.cycle());
        if fabric.inject(packet) {
            injected += 1;
            expected.insert(id, dst);
        }
    }
    (injected, expected)
}

/// The observable identity of a delivered packet, for bit-identity
/// comparisons across stepping modes.
fn delivery_key(p: &FabricPacket) -> (u64, TileCoord, TileCoord, u64, u32) {
    (p.id, p.src, p.dst, p.injected_at, p.hops)
}

const STEPPINGS: [Stepping; 2] = [Stepping::Dense, Stepping::Wheel];

/// Array shapes whose tile count is not a multiple of 64 or whose width
/// exceeds 64 columns: the occupancy bitmask's partial last word, words
/// spanning row boundaries, and the degenerate single tile.
const ODD_SHAPES: [(u16, u16); 6] = [(65, 3), (130, 1), (7, 9), (1, 1), (1, 130), (64, 2)];

/// Injects `attempts` random requests on a fault-free `fabric`, any
/// source to any destination (self-addressed included), on a random
/// direct network — dimension-ordered routes always exist on a clean
/// array, so no planner is needed.
fn inject_clean_pairs(fabric: &mut Fabric, attempts: usize, seed: u64) {
    use rand::RngExt as _;
    let array = fabric.array();
    let mut rng = wsp_common::seeded_rng(seed);
    for _ in 0..attempts {
        let src = array.coord_of(rng.random_range(0..array.tile_count()));
        let dst = array.coord_of(rng.random_range(0..array.tile_count()));
        let net = if rng.random_bool(0.5) {
            NetworkKind::Xy
        } else {
            NetworkKind::Yx
        };
        let id = fabric.allocate_id();
        let packet =
            FabricPacket::request(id, src, dst, NetworkChoice::Direct(net), fabric.cycle());
        fabric.inject(packet);
    }
}

/// Every per-link counter of `fabric`, in `(network, tile, direction)`
/// order.
fn all_link_stats(fabric: &Fabric) -> Vec<wsp_noc::LinkStats> {
    let array = fabric.array();
    let mut out = Vec::new();
    for net in [NetworkKind::Xy, NetworkKind::Yx] {
        for tile in array.tiles() {
            for dir in DIRECTIONS {
                out.push(fabric.link_stats(net, tile, dir));
            }
        }
    }
    out
}

proptest! {
    /// Every packet accepted by `inject` is either still in flight or
    /// has been delivered — at every intermediate cycle and at drain.
    #[test]
    fn packets_are_conserved(
        cols in 2u16..7,
        rows in 2u16..7,
        fault_count in 0usize..4,
        attempts in 1usize..48,
        seed in 0u64..1000,
    ) {
        let array = TileArray::new(cols, rows);
        let mut rng = wsp_common::seeded_rng(seed.wrapping_mul(31).wrapping_add(7));
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        if faults.healthy_count() < 2 {
            return Ok(());
        }
        let mut fabric = Fabric::new(array, 4);
        let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);

        let mut delivered = 0u64;
        for _ in 0..3 {
            delivered += fabric.tick().len() as u64;
            prop_assert_eq!(delivered + fabric.in_flight() as u64, injected);
        }
        delivered += fabric.drain().len() as u64;
        prop_assert_eq!(delivered, injected);
        prop_assert_eq!(fabric.in_flight(), 0);
    }

    /// Delivered packets surface at the destination they were addressed
    /// to, exactly once.
    #[test]
    fn deliveries_arrive_at_their_destination(
        cols in 2u16..7,
        rows in 2u16..7,
        attempts in 1usize..48,
        seed in 0u64..1000,
    ) {
        let array = TileArray::new(cols, rows);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, 4);
        let (injected, mut expected) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
        let delivered = fabric.drain();
        prop_assert_eq!(delivered.len() as u64, injected);
        for packet in delivered {
            let dst = expected.remove(&packet.id);
            prop_assert_eq!(dst, Some(packet.dst));
        }
        prop_assert!(expected.is_empty());
    }

    /// Pairs the kernel marks `Disconnected` never yield a delivery: the
    /// traffic layer refuses them at injection (`undeliverable`), and
    /// every request that does enter the fabric completes its round
    /// trip, so injected = responses at the end of a drained run.
    #[test]
    fn disconnected_pairs_never_deliver(
        fault_count in 1usize..6,
        seed in 0u64..500,
    ) {
        let array = TileArray::new(6, 6);
        let mut rng = wsp_common::seeded_rng(seed.wrapping_add(99));
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        if faults.healthy_count() < 2 {
            return Ok(());
        }
        let mut sim = NocSim::new(faults, SimConfig::default());
        let report = sim.run(TrafficPattern::UniformRandom, 50, &mut rng);
        prop_assert_eq!(report.in_flight_at_end, 0);
        prop_assert_eq!(report.responses_delivered, report.requests_injected);
    }

    /// The same seed replays the same run bit for bit — fabric state is
    /// fully deterministic.
    #[test]
    fn replay_is_deterministic(
        seed in any::<u64>(),
        fault_count in 0usize..5,
    ) {
        let array = TileArray::new(8, 8);
        let run = || {
            let mut rng = wsp_common::seeded_rng(seed);
            let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
            let target = faults
                .healthy_tiles()
                .next()
                .expect("an 8x8 array with at most 4 faults has healthy tiles");
            let mut sim = NocSim::new(faults, SimConfig::default());
            sim.run(TrafficPattern::HotSpot { target }, 100, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }

    /// Either stepping mode replays the dense reference bit for bit —
    /// same deliveries in the same order each cycle, same link
    /// traversals — at any ring
    /// capacity (capacity 1 forces wrap-around on every push/pop pair),
    /// under any fault map, and both drain to an empty arena.
    #[test]
    fn executor_axes_replay_the_dense_reference(
        cols in 2u16..7,
        rows in 2u16..7,
        fault_count in 0usize..4,
        queue_capacity in 1usize..5,
        attempts in 1usize..48,
        seed in 0u64..500,
        stepping_idx in 0usize..2,
    ) {
        let array = TileArray::new(cols, rows);
        let mut rng = wsp_common::seeded_rng(seed.wrapping_mul(17).wrapping_add(3));
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        if faults.healthy_count() < 2 {
            return Ok(());
        }

        let mut reference = Fabric::new(array, queue_capacity);
        reference.set_stepping(Stepping::Dense);
        let mut variant = Fabric::new(array, queue_capacity);
        variant.set_stepping(STEPPINGS[stepping_idx]);

        let (injected_ref, _) = inject_random_pairs(&mut reference, &faults, attempts, seed);
        let (injected_var, _) = inject_random_pairs(&mut variant, &faults, attempts, seed);
        prop_assert_eq!(injected_ref, injected_var);

        // Lockstep for a few cycles: each tick's delivery batch must
        // match exactly, order included.
        let mut batch_ref = Vec::new();
        let mut batch_var = Vec::new();
        for _ in 0..4 {
            reference.tick_into(&mut batch_ref);
            variant.tick_into(&mut batch_var);
            let keys_ref: Vec<_> = batch_ref.iter().map(delivery_key).collect();
            let keys_var: Vec<_> = batch_var.iter().map(delivery_key).collect();
            prop_assert_eq!(keys_ref, keys_var);
        }

        let rest_ref: Vec<_> = reference.drain().iter().map(delivery_key).collect();
        let rest_var: Vec<_> = variant.drain().iter().map(delivery_key).collect();
        prop_assert_eq!(rest_ref, rest_var);
        prop_assert_eq!(reference.link_traversals(), variant.link_traversals());

        // Drain-to-empty returns every arena slot on both fabrics.
        prop_assert_eq!(reference.arena_live(), 0);
        prop_assert_eq!(variant.arena_live(), 0);
    }

    /// Repeated identical waves through a drained fabric recycle arena
    /// slots instead of growing the columns: after the second wave the
    /// arena footprint is pinned, at every ring capacity and stepping.
    #[test]
    fn drained_waves_recycle_arena_slots(
        queue_capacity in 1usize..4,
        attempts in 1usize..32,
        seed in 0u64..500,
        stepping_idx in 0usize..2,
    ) {
        let array = TileArray::new(6, 6);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(STEPPINGS[stepping_idx]);

        let mut footprints = Vec::new();
        for _ in 0..4 {
            let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
            let delivered = fabric.drain();
            prop_assert_eq!(delivered.len() as u64, injected);
            prop_assert_eq!(fabric.arena_live(), 0);
            footprints.push(fabric.arena_slots());
        }
        // The first wave may grow the columns while the free list is
        // empty; identical later waves must fit in recycled slots.
        prop_assert_eq!(footprints[1], footprints[2]);
        prop_assert_eq!(footprints[2], footprints[3]);
    }

    /// A drained fabric is inert: after the occupancy masks empty out,
    /// extra ticks deliver nothing and traverse no links, and the fabric
    /// still accepts and completes a fresh wave afterwards (clearing the
    /// masks must not wedge the executor).
    #[test]
    fn drain_to_empty_clears_occupancy_without_wedging(
        queue_capacity in 1usize..4,
        attempts in 1usize..32,
        seed in 0u64..500,
        stepping_idx in 0usize..2,
    ) {
        let array = TileArray::new(5, 5);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(STEPPINGS[stepping_idx]);

        let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
        let delivered = fabric.drain().len() as u64;
        prop_assert_eq!(delivered, injected);

        let traversals = fabric.link_traversals();
        let mut batch = Vec::new();
        for _ in 0..5 {
            fabric.tick_into(&mut batch);
            prop_assert!(batch.is_empty());
        }
        prop_assert_eq!(fabric.link_traversals(), traversals);
        prop_assert_eq!(fabric.in_flight(), 0);

        let (again, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed ^ 0xabcd);
        prop_assert_eq!(fabric.drain().len() as u64, again);
        prop_assert_eq!(fabric.arena_live(), 0);
    }

    /// The flat occupancy-bitmask walk replays the dense reference on
    /// arrays whose tile count is not a multiple of 64 or whose width
    /// exceeds 64 columns: the same delivery batch (order included)
    /// every tick, two injection waves apart, and afterwards identical
    /// per-link counters, active-set histograms and executed tick counts
    /// — in either stepping mode.
    #[test]
    fn odd_shapes_replay_the_dense_reference(
        shape_idx in 0usize..6,
        queue_capacity in 1usize..4,
        attempts in 1usize..400,
        seed in 0u64..500,
        stepping_idx in 0usize..2,
    ) {
        let (cols, rows) = ODD_SHAPES[shape_idx];
        let array = TileArray::new(cols, rows);
        let mut reference = Fabric::new(array, queue_capacity);
        reference.set_stepping(Stepping::Dense);
        let mut variant = Fabric::new(array, queue_capacity);
        variant.set_stepping(STEPPINGS[stepping_idx]);

        let mut batch_ref = Vec::new();
        let mut batch_var = Vec::new();
        for wave in 0..2u64 {
            inject_clean_pairs(&mut reference, attempts, seed ^ wave);
            inject_clean_pairs(&mut variant, attempts, seed ^ wave);
            prop_assert_eq!(reference.in_flight(), variant.in_flight());
            while reference.in_flight() > 0 {
                reference.tick_into(&mut batch_ref);
                variant.tick_into(&mut batch_var);
                let keys_ref: Vec<_> = batch_ref.iter().map(delivery_key).collect();
                let keys_var: Vec<_> = batch_var.iter().map(delivery_key).collect();
                prop_assert_eq!(keys_ref, keys_var);
                prop_assert!(reference.cycle() < 100_000, "reference failed to drain");
            }
            prop_assert_eq!(variant.in_flight(), 0);
        }
        prop_assert_eq!(all_link_stats(&reference), all_link_stats(&variant));
        prop_assert_eq!(reference.active_tiles(), variant.active_tiles());
        prop_assert_eq!(reference.ticks_executed(), variant.ticks_executed());
        prop_assert_eq!(reference.link_traversals(), variant.link_traversals());
        prop_assert_eq!(variant.arena_live(), 0);
    }

    /// Wheel-stepped bursty traffic on the same odd shapes matches the
    /// dense sweep: the report, every per-link counter and the active-set
    /// histogram are identical, while the wheel executes fewer ticks.
    #[test]
    fn odd_shape_bursts_skip_idle_gaps_identically(
        shape_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let (cols, rows) = ODD_SHAPES[shape_idx];
        let run = |stepping: Stepping| {
            let mut sim = NocSim::new(FaultMap::none(TileArray::new(cols, rows)), SimConfig::default());
            sim.fabric_mut().set_stepping(stepping);
            let mut rng = wsp_common::seeded_rng(seed);
            let report = sim.run_bursts(TrafficPattern::UniformRandom, 3, 4, 300, &mut rng);
            let fabric = sim.fabric();
            (
                report,
                all_link_stats(fabric),
                fabric.active_tiles().clone(),
                fabric.ticks_executed(),
            )
        };
        let (dense_report, dense_links, dense_active, dense_ticks) = run(Stepping::Dense);
        let (wheel_report, wheel_links, wheel_active, wheel_ticks) = run(Stepping::Wheel);
        prop_assert_eq!(&dense_report, &wheel_report);
        prop_assert_eq!(dense_links, wheel_links);
        prop_assert_eq!(dense_active, wheel_active);
        prop_assert_eq!(dense_ticks, dense_report.cycles);
        prop_assert!(wheel_ticks < dense_ticks, "wheel {} vs dense {}", wheel_ticks, dense_ticks);
    }
}
