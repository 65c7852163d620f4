//! Footprint pin for the paged simulated SRAM: a machine allocates a 4 KiB
//! page only when a word in it is first written, so a fresh full wafer
//! holds no SRAM at all and a run holds exactly the pages it stored to.
//! Eager zeroing of every tile's 640 KB chiplet and 14 × 64 KB private
//! SRAMs (1.5 GiB on a 32×32 wafer) fails here at once.

use std::collections::BTreeSet;

use waferscale::workload::HALO_WORDS;
use waferscale::{MultiTileMachine, SystemConfig};
use wsp_common::parallel::Stepping;
use wsp_sched::{build_halo_slice_machine, partition, restrict_faults, slice_usable};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::memory::{bank_row_of_offset, PAGE_BYTES, ROW_BYTES};
use wsp_tile::{MemoryModelKind, PRIVATE_SRAM_BYTES};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// Scattered faulty tiles of the 32×32 wafer; each has healthy
/// neighbours, so every healthy tile can reach the next one east.
const FAULTS: [(u16, u16); 4] = [(5, 5), (20, 13), (31, 31), (0, 17)];
/// Words of strip data loaded into each healthy tile.
const STRIP_WORDS: u32 = 256;
/// Cores per tile that sum a strip.
const CORES_USED: u32 = 4;
/// Byte offset of the per-core result words in each tile's region.
const RESULT_OFFSET: u32 = 0x1_0000;
/// Private-SRAM address every strip-sum core also stores its sum to:
/// the last word of the region.
const PRIVATE_RESULT: u32 = PRIVATE_SRAM_BYTES as u32 - 4;

fn wafer_faults() -> FaultMap {
    let array = TileArray::new(32, 32);
    FaultMap::from_faulty(array, FAULTS.iter().map(|&(x, y)| TileCoord::new(x, y)))
}

/// The chiplet page a tile-local offset is stored in: `(bank, page)`.
fn page_of(offset: u32) -> (usize, usize) {
    let (bank, row) = bank_row_of_offset(offset).expect("valid offset");
    (bank, row as usize * ROW_BYTES / PAGE_BYTES)
}

/// Pages touched by writes to `offsets`, in bytes.
fn pages_bytes(offsets: impl IntoIterator<Item = u32>) -> usize {
    offsets
        .into_iter()
        .map(page_of)
        .collect::<BTreeSet<_>>()
        .len()
        * PAGE_BYTES
}

fn strip_word(tile: usize, i: u32) -> u32 {
    (tile as u32 + 1).wrapping_mul(0x9E37_79B9) ^ i
}

/// The nearest healthy tile east of `t` in its row, wrapping around.
fn east_of(faults: &FaultMap, t: TileCoord) -> TileCoord {
    let cols = faults.array().cols();
    (1..=cols)
        .map(|dx| TileCoord::new((t.x + dx) % cols, t.y))
        .find(|&e| faults.is_healthy(e))
        .unwrap_or(t)
}

#[test]
fn fresh_wafer_machine_holds_no_sram() {
    let faults = wafer_faults();
    let array = faults.array();
    let m = MultiTileMachine::new(SystemConfig::with_array(array), faults);
    for t in array.tiles() {
        assert_eq!(m.resident_sram_bytes(t), 0, "tile {t}");
    }
}

#[test]
fn strip_sum_run_holds_exactly_the_written_pages() {
    let faults = wafer_faults();
    let array = faults.array();
    let mut m = MultiTileMachine::new(SystemConfig::with_array(array), faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    for &t in &healthy {
        let base = m.global_address(t, 0).expect("healthy");
        for i in 0..STRIP_WORDS {
            m.write_word(base + 4 * i, strip_word(array.index_of(t), i))
                .expect("strip word is mapped");
        }
    }
    // Each core sums a quarter of the east neighbour's strip and stores
    // the sum both in its own tile's shared region and in its private
    // SRAM.
    let quarter = STRIP_WORDS / CORES_USED;
    for &t in &healthy {
        let east = east_of(&faults, t);
        for core in 0..CORES_USED {
            let src = m.global_address(east, 4 * core * quarter).expect("healthy");
            let dst = m
                .global_address(t, RESULT_OFFSET + 4 * core)
                .expect("healthy");
            let program = Program::builder()
                .ldi(Reg::R1, src)
                .ldi(Reg::R5, 0)
                .ldi(Reg::R3, quarter)
                .ldi(Reg::R0, 0)
                .label("sum")
                .ld(Reg::R2, Reg::R1, 0)
                .add(Reg::R5, Reg::R5, Reg::R2)
                .addi(Reg::R1, Reg::R1, 4)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "sum")
                .ldi(Reg::R4, dst)
                .st(Reg::R5, Reg::R4, 0)
                .ldi(Reg::R4, PRIVATE_RESULT)
                .st(Reg::R5, Reg::R4, 0)
                .halt()
                .build()
                .expect("builds");
            m.load_program(t, core as usize, &program)
                .expect("healthy tile");
        }
    }
    m.run_until_halt(1_000_000).expect("strip sums halt");

    let data_and_results = (0..STRIP_WORDS)
        .map(|i| 4 * i)
        .chain((0..CORES_USED).map(|c| RESULT_OFFSET + 4 * c));
    let expected = pages_bytes(data_and_results) + CORES_USED as usize * PAGE_BYTES;
    for t in array.tiles() {
        if faults.is_faulty(t) {
            assert_eq!(m.resident_sram_bytes(t), 0, "faulty tile {t}");
            continue;
        }
        assert_eq!(m.resident_sram_bytes(t), expected, "tile {t}");
        let east = array.index_of(east_of(&faults, t));
        for core in 0..CORES_USED {
            let want = (core * quarter..(core + 1) * quarter)
                .fold(0u32, |s, i| s.wrapping_add(strip_word(east, i)));
            let addr = m
                .global_address(t, RESULT_OFFSET + 4 * core)
                .expect("healthy");
            assert_eq!(m.read_word(addr), Ok(want), "tile {t} core {core}");
            assert_eq!(
                m.core_mut(t, core as usize)
                    .read_private_word(PRIVATE_RESULT),
                Ok(want)
            );
        }
    }
}

#[test]
fn halo_slice_run_allocates_nothing_on_reads() {
    // A faulty 8×8 slice of the faulty wafer, as the serving layer
    // builds it. Halo cores only load, so after the host stores the halo
    // source words the run adds no page anywhere.
    let wafer = wafer_faults();
    let slice = partition(wafer.array(), 8, 8)
        .into_iter()
        .find(|s| s.rect.contains(TileCoord::new(5, 5)))
        .expect("slice covers the first fault");
    assert!(slice_usable(&wafer, slice.rect));
    let local = restrict_faults(&wafer, slice.rect);
    assert!(local.fault_count() > 0);
    let mut m = build_halo_slice_machine(&local, 1, Stepping::default(), MemoryModelKind::Fixed);
    let array = local.array();
    for t in array.tiles() {
        assert_eq!(m.resident_sram_bytes(t), 0, "fresh slice tile {t}");
    }
    // Halo cores `c` of every tile read HALO_WORDS words from byte
    // `64 * c` of their east peer.
    let halo_offsets: Vec<u32> = (0..2u32)
        .flat_map(|c| (0..HALO_WORDS).map(move |i| 64 * c + 4 * i))
        .collect();
    for t in local.healthy_tiles().collect::<Vec<_>>() {
        for &off in &halo_offsets {
            let addr = m.global_address(t, off).expect("healthy");
            m.write_word(addr, off + 1).expect("mapped");
        }
    }
    m.run_until_halt(2_000_000).expect("halo job halts");
    let expected = pages_bytes(halo_offsets.iter().copied());
    for t in array.tiles() {
        let want = if local.is_faulty(t) { 0 } else { expected };
        assert_eq!(m.resident_sram_bytes(t), want, "slice tile {t}");
    }
}
