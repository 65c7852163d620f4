//! Property tests for wheel stepping — the active-set walks plus the
//! event-wheel skipper: skipping idle tiles (and jumping idle or fully
//! stalled windows) must be *unobservable*. Every fabric report and every
//! machine outcome — stats, architectural memory state, per-core
//! activity counters, the runnable-tiles telemetry sample, the memory
//! profile, the sampled time series, and the digest journal — has to
//! match the dense reference sweep bit for bit, across random seeds,
//! fault maps, ring capacities and memory backends.

use proptest::prelude::*;
use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_common::parallel::Stepping;
use wsp_common::seeded_rng;
use wsp_noc::{NocSim, SimConfig, TrafficPattern};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::MemoryModelKind;
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// Fault counts for the 16×16 fabric runs (the fig7 scenario ladder).
const FABRIC_FAULTS: [usize; 3] = [0, 5, 15];

/// Fault counts for the 4×4 machine runs.
const MACHINE_FAULTS: [usize; 3] = [0, 1, 3];

/// Memory-timing backends the machine identity property ranges over:
/// the runnable-tile walk must be unobservable on stateful backends too (the
/// execute-then-stall drain keeps a stalled core's tile runnable).
const MEMORY: [MemoryModelKind; 3] = [
    MemoryModelKind::Fixed,
    MemoryModelKind::Banked,
    MemoryModelKind::BankedTlb,
];

/// Runs the NoC traffic simulator on a 16×16 wafer and returns the full
/// report (deliveries, latencies, stalls, backpressure, undeliverables).
fn run_fabric(
    seed: u64,
    fault_count: usize,
    requests: u64,
    pattern: TrafficPattern,
    stepping: Stepping,
) -> wsp_noc::SimReport {
    run_fabric_with_capacity(seed, fault_count, requests, pattern, stepping, 4)
}

/// [`run_fabric`] with an explicit ring-buffer FIFO depth, for the
/// wrap-around and recycling properties (capacity 1 wraps the ring on
/// every push/pop pair and maximises backpressure stalls).
fn run_fabric_with_capacity(
    seed: u64,
    fault_count: usize,
    requests: u64,
    pattern: TrafficPattern,
    stepping: Stepping,
    queue_capacity: usize,
) -> wsp_noc::SimReport {
    let array = TileArray::new(16, 16);
    let mut rng = seeded_rng(seed);
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    let config = SimConfig {
        queue_capacity,
        ..SimConfig::default()
    };
    let mut sim = NocSim::new(faults, config);
    sim.fabric_mut().set_stepping(stepping);
    sim.run(pattern, requests, &mut rng)
}

/// Builds a 4×4 fabric-model machine whose healthy tiles all atomically
/// increment one counter on the first healthy tile (a hot-spot with
/// long blocked stretches — the runnable-tile walk's hardest case), runs
/// it, and returns everything observable: the stats, the architectural
/// counter word, the per-core activity counters (which the gap replay
/// must reconstruct exactly), and the runnable-tiles sample.
fn run_machine(
    seed: u64,
    fault_count: usize,
    reps: u32,
    stepping: Stepping,
    memory: MemoryModelKind,
) -> impl PartialEq + std::fmt::Debug {
    run_machine_on(seed, fault_count, reps, stepping, memory, u16::MAX)
}

/// [`run_machine`] with only the healthy tiles whose row-major index
/// bit is set in `participants` loading the program; the rest stay idle
/// for the whole run, so the runnable-tile set is sparse throughout.
fn run_machine_on(
    seed: u64,
    fault_count: usize,
    reps: u32,
    stepping: Stepping,
    memory: MemoryModelKind,
    participants: u16,
) -> impl PartialEq + std::fmt::Debug {
    let array = TileArray::new(4, 4);
    let mut rng = seeded_rng(seed);
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    let cfg = SystemConfig::with_array(array)
        .with_latency_model(LatencyModel::Fabric)
        .with_memory_model(memory);
    let mut m = MultiTileMachine::new(cfg, faults.clone());
    m.set_stepping(stepping);
    // The observability artifacts ride along in the identity tuple: the
    // wheel's bulk gap replay must reproduce the gauge samples and the
    // digest windows of the dense sweep, not just the end state.
    m.set_sampling(8);
    m.set_digests(16);
    let owner = array
        .tiles()
        .find(|&t| !faults.is_faulty(t))
        .expect("some tile survives");
    let counter = m.global_address(owner, 256).expect("mapped");
    let program = Program::builder()
        .ldi(Reg::R1, counter)
        .ldi(Reg::R2, 1)
        .ldi(Reg::R3, reps)
        .ldi(Reg::R0, 0)
        .label("loop")
        .amo_add(Reg::R4, Reg::R1, Reg::R2)
        .addi(Reg::R3, Reg::R3, -1)
        .bne(Reg::R3, Reg::R0, "loop")
        .halt()
        .build()
        .expect("builds");
    for tile in array.tiles() {
        if faults.is_faulty(tile) || participants & (1 << array.index_of(tile)) == 0 {
            continue;
        }
        m.load_program(tile, 0, &program).expect("loads");
    }
    // A heavily faulted map can disconnect a tile from the owner, which
    // faults the accessing core — a legitimate outcome that must still
    // match between stepping modes, so the error is part of the tuple.
    let outcome = m.run_until_halt(1_000_000).map_err(|e| format!("{e:?}"));
    let journal = m.journal().expect("digests on").to_text();
    let series: Vec<(String, Vec<(u64, f64)>)> = m
        .timeseries()
        .map(|(name, s)| (name.to_string(), s.points().to_vec()))
        .collect();
    (
        outcome,
        m.read_word(counter).expect("owner is healthy"),
        m.per_tile_activity(),
        m.runnable_tiles().clone(),
        m.memory_profile(),
        journal,
        series,
    )
}

/// A 4×4 fabric-model machine where each healthy tile runs the cores
/// set in its entry of `masks` (row-major, low 14 bits). Core `c` of the
/// `i`-th healthy tile sums a strip of `1 + (3c + i) % 7` words held by
/// the next healthy tile and stores the sum in its own tile, so within
/// one tile cores block on remote loads and halt on different cycles —
/// the wheel walk leaves some cores of a tile blocked while it steps the
/// others, and each must replay its own gap. Returns everything
/// observable, including every core's [`wsp_tile::CoreStats`].
fn run_multicore(
    seed: u64,
    fault_count: usize,
    masks: &[u16],
    stepping: Stepping,
    memory: MemoryModelKind,
) -> impl PartialEq + std::fmt::Debug {
    let array = TileArray::new(4, 4);
    let mut rng = seeded_rng(seed);
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    let cfg = SystemConfig::with_array(array)
        .with_latency_model(LatencyModel::Fabric)
        .with_memory_model(memory);
    let mut m = MultiTileMachine::new(cfg, faults.clone());
    m.set_stepping(stepping);
    m.set_sampling(8);
    m.set_digests(16);
    let healthy: Vec<TileCoord> = array.tiles().filter(|&t| !faults.is_faulty(t)).collect();
    for (i, &tile) in healthy.iter().enumerate() {
        let partner = healthy[(i + 1) % healthy.len()];
        let mask = masks[array.index_of(tile)] & 0x3FFF;
        for core in 0..14u32 {
            let strip = m
                .global_address(partner, 0x200 + 64 * core)
                .expect("mapped");
            for word in 0..7 {
                m.write_word(strip + 4 * word, 1 + i as u32 * 97 + core * 13 + word)
                    .expect("mapped");
            }
            if mask & (1 << core) == 0 {
                continue;
            }
            let result = m.global_address(tile, 0x1000 + 4 * core).expect("mapped");
            let words = 1 + (3 * core + i as u32) % 7;
            let program = Program::builder()
                .ldi(Reg::R1, strip)
                .ldi(Reg::R2, words)
                .ldi(Reg::R3, 0)
                .ldi(Reg::R0, 0)
                .label("sum")
                .ld(Reg::R4, Reg::R1, 0)
                .add(Reg::R3, Reg::R3, Reg::R4)
                .addi(Reg::R1, Reg::R1, 4)
                .addi(Reg::R2, Reg::R2, -1)
                .bne(Reg::R2, Reg::R0, "sum")
                .ldi(Reg::R5, result)
                .st(Reg::R3, Reg::R5, 0)
                .halt()
                .build()
                .expect("builds");
            m.load_program(tile, core as usize, &program)
                .expect("loads");
        }
    }
    let outcome = m.run_until_halt(1_000_000).map_err(|e| format!("{e:?}"));
    let journal = m.journal().expect("digests on").to_text();
    let series: Vec<(String, Vec<(u64, f64)>)> = m
        .timeseries()
        .map(|(name, s)| (name.to_string(), s.points().to_vec()))
        .collect();
    let mut core_stats = Vec::new();
    let mut sums = Vec::new();
    for &tile in &healthy {
        for core in 0..14u32 {
            core_stats.push(m.core_mut(tile, core as usize).stats());
            let result = m.global_address(tile, 0x1000 + 4 * core).expect("mapped");
            sums.push(m.read_word(result).expect("mapped"));
        }
    }
    (
        outcome,
        sums,
        core_stats,
        m.runnable_tiles().clone(),
        m.memory_profile(),
        journal,
        series,
    )
}

proptest! {
    /// Wheel-vs-dense identity with several cores per tile: random
    /// per-tile core masks, per-core strip lengths, fault maps and
    /// memory backends. The wheel steps only a tile's unblocked cores, so
    /// cores of one tile sit blocked over different spans while their
    /// neighbours run; stats, memory, every core's `CoreStats`, the
    /// series and the journal must still match the dense sweep.
    #[test]
    fn multicore_machine_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        mem_idx in 0usize..3,
        masks in proptest::collection::vec(0u16..0x4000, 16..17),
    ) {
        let faults = MACHINE_FAULTS[fault_idx];
        let memory = MEMORY[mem_idx];
        let dense = run_multicore(seed, faults, &masks, Stepping::Dense, memory);
        let wheel = run_multicore(seed, faults, &masks, Stepping::Wheel, memory);
        prop_assert_eq!(dense, wheel);
    }

    /// Sparse traffic is where the wheel skips the most: a handful of
    /// requests in a non-uniform pattern (transpose, east-neighbour
    /// stencil, or a hot spot) leaves almost every tile idle and most
    /// cycles empty, yet the report still matches the dense sweep bit
    /// for bit, over clean and faulted wafers.
    #[test]
    fn sparse_fabric_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 1u64..20,
        pattern_idx in 0usize..3,
        hot_x in 0u16..16,
        hot_y in 0u16..16,
    ) {
        let faults = FABRIC_FAULTS[fault_idx];
        let pattern = [
            TrafficPattern::Transpose,
            TrafficPattern::NeighborEast,
            TrafficPattern::HotSpot { target: TileCoord::new(hot_x, hot_y) },
        ][pattern_idx];
        let dense = run_fabric(seed, faults, requests, pattern, Stepping::Dense);
        let wheel = run_fabric(seed, faults, requests, pattern, Stepping::Wheel);
        prop_assert_eq!(dense, wheel);
    }

    /// Machine identity when only a few tiles run: most healthy tiles
    /// load no program, so the runnable-tile set stays sparse and the
    /// wheel's gap replay covers long idle stretches — stats, memory,
    /// activity counters and observability artifacts still match the
    /// dense sweep at every memory-timing backend.
    #[test]
    fn sparse_machine_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        reps in 1u32..6,
        mem_idx in 0usize..3,
        tiles in proptest::collection::vec(0usize..16, 1..4),
    ) {
        let faults = MACHINE_FAULTS[fault_idx];
        let memory = MEMORY[mem_idx];
        let participants = tiles.iter().fold(0u16, |mask, &t| mask | 1 << t);
        let dense = run_machine_on(seed, faults, reps, Stepping::Dense, memory, participants);
        let wheel = run_machine_on(seed, faults, reps, Stepping::Wheel, memory, participants);
        prop_assert_eq!(dense, wheel);
    }

    /// Machine architectural state — memory, stats, the per-core
    /// cycle/stall counters the runnable-tile gap replay reconstructs,
    /// the memory profile, time series and digest journal — is
    /// bit-identical between wheel stepping (including its stalled-window
    /// jumps) and the dense sweep over random schedules, fault maps, and
    /// memory backends.
    #[test]
    fn wheel_machine_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        reps in 1u32..6,
        mem_idx in 0usize..3,
    ) {
        let faults = MACHINE_FAULTS[fault_idx];
        let memory = MEMORY[mem_idx];
        let dense = run_machine(seed, faults, reps, Stepping::Dense, memory);
        let wheel = run_machine(seed, faults, reps, Stepping::Wheel, memory);
        prop_assert_eq!(dense, wheel);
    }

    /// Fabric packet delivery is bit-identical between the dense sweep
    /// and wheel stepping, over clean and heavily
    /// faulted wafers: with injections running the wheel walks the
    /// occupied tiles each tick, and the drain phase jumps empty windows.
    #[test]
    fn wheel_fabric_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..150,
    ) {
        let faults = FABRIC_FAULTS[fault_idx];
        let pattern = TrafficPattern::UniformRandom;
        let dense = run_fabric(seed, faults, requests, pattern, Stepping::Dense);
        let wheel = run_fabric(seed, faults, requests, pattern, Stepping::Wheel);
        prop_assert_eq!(dense, wheel);
    }

    /// Ring-buffer wrap-around is unobservable: shrinking the FIFO depth
    /// to 1 (every push/pop pair wraps the ring, every contended link
    /// backpressures) still replays the dense reference bit for bit in
    /// either stepping mode, over faulted wafers.
    #[test]
    fn tiny_ring_capacity_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..150,
        stepping_idx in 0usize..2,
        queue_capacity in 1usize..4,
    ) {
        let faults = FABRIC_FAULTS[fault_idx];
        let stepping = [Stepping::Dense, Stepping::Wheel][stepping_idx];
        let pattern = TrafficPattern::UniformRandom;
        let dense = run_fabric_with_capacity(
            seed, faults, requests, pattern, Stepping::Dense, queue_capacity);
        let other = run_fabric_with_capacity(
            seed, faults, requests, pattern, stepping, queue_capacity);
        prop_assert_eq!(dense, other);
    }

    /// Arena slots are recycled and occupancy masks cleared across
    /// drained campaigns: repeated traffic runs through one fabric leave
    /// no live arena slots behind, the second and later identical
    /// campaigns fit in recycled slots without growing the columns, and
    /// the cleared masks never wedge a later run — in either stepping
    /// mode and at every ring capacity, over faulted wafers.
    #[test]
    fn drained_campaigns_recycle_arena_slots(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..100,
        stepping_idx in 0usize..2,
        queue_capacity in 1usize..4,
    ) {
        let array = TileArray::new(16, 16);
        let mut rng = seeded_rng(seed);
        let faults = FaultMap::sample_uniform(array, FABRIC_FAULTS[fault_idx], &mut rng);
        let config = SimConfig { queue_capacity, ..SimConfig::default() };
        let mut sim = NocSim::new(faults, config);
        sim.fabric_mut()
            .set_stepping([Stepping::Dense, Stepping::Wheel][stepping_idx]);
        let mut footprints = Vec::new();
        for _ in 0..3 {
            let mut rng = seeded_rng(seed);
            let report = sim.run(TrafficPattern::UniformRandom, requests, &mut rng);
            prop_assert_eq!(report.in_flight_at_end, 0);
            prop_assert_eq!(sim.fabric().arena_live(), 0);
            footprints.push(sim.fabric().arena_slots());
        }
        // The footprint is the high-water mark of in-flight packets, so
        // identical later campaigns run almost entirely in recycled
        // slots: the start-cycle alignment of the response-delay wheel
        // can jitter the peak by a slot or two, but a recycling failure
        // would grow the columns by ~2×requests (request + response)
        // per campaign. Pin the former scale, not the latter.
        prop_assert!(
            footprints[2] - footprints[0] <= 8,
            "arena footprint must stay at the round-0 high-water mark: {:?}",
            footprints
        );
    }
}
