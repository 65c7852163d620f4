//! Regression test pinning the zero-allocation steady state of the
//! fabric-model machine step.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Every
//! core loops forever over a fixed set of local and remote addresses, so
//! after a warm-up phase (SRAM pages written, the in-flight map, the
//! deferred-request queue, the fabric's rings and arena and the
//! machine's intent buffer at their working size) a measured window of
//! [`MultiTileMachine::step`] calls must perform **zero** heap
//! allocations. Integration tests are separate binaries, so the wrapper
//! allocator is confined to this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_tile::isa::{Program, Reg};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// System allocator wrapper that counts every allocation-path call.
/// Frees are not counted: handing memory back is harmless; acquiring it
/// in the hot loop is the regression this test pins.
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

/// A 4×4 fabric-model machine whose first two cores on every tile loop
/// forever: load and store a word of their own tile, then load, store
/// and atomically add words of their east neighbour (wrapping), so both
/// the local crossbar path and the remote request/response path run
/// every iteration.
fn looping_machine() -> MultiTileMachine {
    const N: u16 = 4;
    let array = TileArray::new(N, N);
    let cfg = SystemConfig::with_array(array).with_latency_model(LatencyModel::Fabric);
    let mut m = MultiTileMachine::new(cfg, FaultMap::none(array));
    for tile in array.tiles() {
        let east = TileCoord::new((tile.x + 1) % N, tile.y);
        for core in 0..2u32 {
            let local = m.global_address(tile, 256 + core * 64).expect("mapped");
            let remote = m.global_address(east, 512 + core * 64).expect("mapped");
            let program = Program::builder()
                .ldi(Reg::R1, local)
                .ldi(Reg::R2, remote)
                .ldi(Reg::R6, 1)
                .label("loop")
                .ld(Reg::R3, Reg::R1, 0)
                .addi(Reg::R3, Reg::R3, 1)
                .st(Reg::R3, Reg::R1, 0)
                .ld(Reg::R4, Reg::R2, 0)
                .st(Reg::R3, Reg::R2, 4)
                .amo_add(Reg::R5, Reg::R2, Reg::R6)
                .jmp("loop")
                .build()
                .expect("builds");
            m.load_program(tile, core as usize, &program)
                .expect("healthy tile");
        }
    }
    m
}

#[test]
fn steady_state_machine_steps_do_not_allocate() {
    let mut m = looping_machine();

    // Warm-up: every page the loops touch is written, and every reusable
    // buffer reaches its steady-state footprint.
    for _ in 0..5_000 {
        m.step().expect("loops never fault");
    }
    let warm = m.stats();
    assert!(warm.remote_accesses > 0, "warm-up crossed the network");
    assert!(warm.local_accesses > 0, "warm-up used the local crossbar");

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        m.step().expect("loops never fault");
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    let done = m.stats();
    assert!(
        done.remote_accesses > warm.remote_accesses,
        "the measured window completed remote accesses"
    );
    assert!(
        done.local_accesses > warm.local_accesses,
        "the measured window completed local accesses"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state machine steps must not touch the heap"
    );
}
