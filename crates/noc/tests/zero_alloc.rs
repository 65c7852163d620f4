//! Regression tests pinning the zero-allocation steady state of the
//! fabric hot loop and of the synthetic-traffic simulator's cycle.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (arena free list populated, rings grown to their working
//! depth, scratch buffers at their high-water mark) a measured window of
//! inject → tick → deliver rounds must perform **zero** heap allocations.
//! Integration tests are separate binaries, so the wrapper allocator is
//! confined to this file and cannot slow the rest of the suite. The
//! counter is process-wide, so the tests take [`SERIAL`] to keep one
//! test's allocations out of another's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wsp_noc::{
    Fabric, FabricPacket, NetworkChoice, NetworkKind, NocSim, SimConfig, TrafficPattern,
};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// System allocator wrapper that counts every allocation-path call.
/// Frees are deliberately not counted: handing memory back is harmless;
/// acquiring it in the hot loop is the regression this test pins.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the measured windows of the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

/// One wave of neighbour-east requests: every tile with an eastern
/// neighbour sends one packet to it. Exercises injection, link FIFOs,
/// arbitration, and delivery every round.
fn inject_wave(fabric: &mut Fabric, cols: u16, rows: u16) -> u64 {
    let mut injected = 0;
    for y in 0..rows {
        for x in 0..cols - 1 {
            let src = TileCoord::new(x, y);
            let dst = TileCoord::new(x + 1, y);
            let id = fabric.allocate_id();
            let packet = FabricPacket::request(
                id,
                src,
                dst,
                NetworkChoice::Direct(NetworkKind::Xy),
                fabric.cycle(),
            );
            if fabric.inject(packet) {
                injected += 1;
            }
        }
    }
    injected
}

/// Ticks until the fabric is empty, reusing `delivered`; returns the
/// number of packets that surfaced.
fn drain_into(fabric: &mut Fabric, delivered: &mut Vec<FabricPacket>) -> u64 {
    let mut total = 0;
    while fabric.in_flight() > 0 {
        fabric.tick_into(delivered);
        total += delivered.len() as u64;
    }
    total
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const COLS: u16 = 16;
    const ROWS: u16 = 16;
    let array = TileArray::new(COLS, ROWS);
    let mut fabric = Fabric::new(array, 4);
    let mut delivered = Vec::new();

    // Warm-up: grow every reusable buffer to its steady-state footprint —
    // the arena columns and free list, ring capacities, scratch vectors,
    // and the caller-side delivery buffer.
    let mut warmed = 0;
    for _ in 0..60 {
        warmed += inject_wave(&mut fabric, COLS, ROWS);
        fabric.tick_into(&mut delivered);
        warmed -= delivered.len() as u64;
    }
    warmed -= drain_into(&mut fabric, &mut delivered);
    assert_eq!(warmed, 0, "warm-up traffic fully drained");
    assert_eq!(fabric.arena_live(), 0);
    let footprint = fabric.arena_slots();
    assert!(footprint > 0, "warm-up populated the arena");

    // Measured window: the same traffic shape must fit entirely inside
    // the warmed buffers.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut moved = 0;
    for _ in 0..40 {
        moved += inject_wave(&mut fabric, COLS, ROWS);
        fabric.tick_into(&mut delivered);
    }
    let drained = drain_into(&mut fabric, &mut delivered);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(moved > 0, "measured window injected traffic");
    assert!(drained > 0, "measured window delivered traffic");
    assert_eq!(
        after - before,
        0,
        "steady-state fabric ticks must not touch the heap"
    );
    assert_eq!(
        fabric.arena_slots(),
        footprint,
        "steady-state traffic reuses warm arena slots instead of growing"
    );
}

/// A warmed [`NocSim`] allocates the same amount for a 2 000-cycle run as
/// for a 200-cycle one: only the per-run report clone, nothing per cycle.
/// The fault wall forces relay routes, so relay re-injection is covered.
#[test]
fn warmed_noc_sim_cycles_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let array = TileArray::new(12, 10);
    let faults = FaultMap::from_faulty(
        array,
        [
            TileCoord::new(5, 3),
            TileCoord::new(5, 4),
            TileCoord::new(8, 7),
        ],
    );
    let mut sim = NocSim::new(faults, SimConfig::default());
    let mut rng = wsp_common::seeded_rng(17);
    let allocs_of = |sim: &mut NocSim, rng: &mut _, cycles| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = sim.run(TrafficPattern::UniformRandom, cycles, rng);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(report.in_flight_at_end, 0);
        (after - before, report)
    };

    // Warm-up at least as long as the longest measured run, so the arena,
    // the local rings and the pending-response queue reach their working
    // size.
    let (_, warm) = allocs_of(&mut sim, &mut rng, 4000);
    assert!(warm.relay_forwards > 0, "the fault wall forces relays");
    let (short, _) = allocs_of(&mut sim, &mut rng, 200);
    let (long, report) = allocs_of(&mut sim, &mut rng, 2000);
    assert!(report.responses_delivered > warm.responses_delivered);
    assert_eq!(
        long, short,
        "a warmed NocSim cycle must not touch the heap ({short} allocations \
         for 200 cycles, {long} for 2000)"
    );
}
