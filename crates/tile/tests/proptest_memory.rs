//! Differential property test of the paged SRAM stores: random word reads
//! and writes go both to [`wsp_tile::MemoryChiplet`] /
//! [`wsp_tile::CoreSim`] private SRAM and to a flat `Vec<u32>` reference
//! indexed by `offset / 4`. Every access must return the same value or
//! the same `Err`, and exactly the pages that were written are resident.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wsp_tile::memory::{
    bank_row_of_offset, BANK_BYTES, GLOBAL_BANKS, PAGE_BYTES, ROW_BYTES, TOTAL_BYTES,
};
use wsp_tile::{AccessMemoryError, CoreSim, MemoryChiplet, PRIVATE_SRAM_BYTES};

/// One access against a store of `bytes` bytes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u32),
    Write(u32, u32),
}

/// `k * stride + d` for `k` in `0..=count`, clamped at 0.
fn near_multiples(stride: usize, count: usize, d: i64) -> impl Strategy<Value = u32> {
    (0..=count as i64, -d..d).prop_map(move |(k, d)| (k * stride as i64 + d).max(0) as u32)
}

/// Offsets that stress the page layout of a `bytes`-byte region: near
/// page and bank boundaries, the last word, past the end, misaligned,
/// and anywhere at all.
fn arb_offset(bytes: usize) -> impl Strategy<Value = u32> {
    let end = bytes as u32;
    // Words interleave across the four global banks, so a bank's page
    // boundary recurs every `GLOBAL_BANKS` pages of offsets; ±32 bytes
    // reaches the last and first word of the adjacent pages of every
    // bank.
    let interleaved = GLOBAL_BANKS * PAGE_BYTES;
    prop_oneof![
        near_multiples(PAGE_BYTES, bytes / PAGE_BYTES, 8),
        near_multiples(interleaved, bytes / interleaved, 32),
        near_multiples(BANK_BYTES, bytes / BANK_BYTES, 8),
        Just(end - 4),
        (0..end / 4).prop_map(|w| w * 4),
        0..end,
        end..=u32::MAX,
    ]
}

/// A value that is zero often enough to write zeros to untouched pages.
fn arb_value() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), any::<u32>()]
}

fn arb_ops(bytes: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_offset(bytes).prop_map(Op::Read),
            (arb_offset(bytes), arb_value()).prop_map(|(a, v)| Op::Write(a, v)),
        ],
        1..400,
    )
}

/// The flat reference: a word per aligned in-range offset, checked
/// alignment first, then range.
struct Flat(Vec<u32>);

impl Flat {
    fn new(bytes: usize) -> Self {
        Flat(vec![0; bytes / 4])
    }

    fn index(&self, addr: u32) -> Result<usize, AccessMemoryError> {
        if !addr.is_multiple_of(4) {
            return Err(AccessMemoryError::Misaligned { addr });
        }
        let word = addr as usize / 4;
        if word >= self.0.len() {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        Ok(word)
    }

    fn read(&self, addr: u32) -> Result<u32, AccessMemoryError> {
        self.index(addr).map(|w| self.0[w])
    }

    fn write(&mut self, addr: u32, value: u32) -> Result<(), AccessMemoryError> {
        let w = self.index(addr)?;
        self.0[w] = value;
        Ok(())
    }
}

/// The chiplet page a valid offset is stored in: `(bank, page in bank)`.
fn chiplet_page(offset: u32) -> (usize, usize) {
    let (bank, row) = bank_row_of_offset(offset).expect("valid offset");
    (bank, row as usize * ROW_BYTES / PAGE_BYTES)
}

proptest! {
    #[test]
    fn chiplet_matches_flat_reference(ops in arb_ops(TOTAL_BYTES)) {
        let mut mem = MemoryChiplet::new();
        let mut flat = Flat::new(TOTAL_BYTES);
        let mut written = BTreeSet::new();
        for op in ops {
            match op {
                Op::Read(a) => prop_assert_eq!(mem.read_word(a), flat.read(a), "read {:#x}", a),
                Op::Write(a, v) => {
                    let result = mem.write_word(a, v);
                    prop_assert_eq!(result, flat.write(a, v), "write {:#x}", a);
                    if result.is_ok() {
                        written.insert(chiplet_page(a));
                    }
                }
            }
        }
        // Every word agrees at the end, not only the ones read.
        for w in 0..TOTAL_BYTES as u32 / 4 {
            prop_assert_eq!(mem.read_word(w * 4), Ok(flat.0[w as usize]));
        }
        prop_assert_eq!(mem.resident_bytes(), written.len() * PAGE_BYTES);
    }

    #[test]
    fn private_sram_matches_flat_reference(ops in arb_ops(PRIVATE_SRAM_BYTES)) {
        let mut core = CoreSim::new();
        let mut flat = Flat::new(PRIVATE_SRAM_BYTES);
        let mut written = BTreeSet::new();
        for op in ops {
            match op {
                Op::Read(a) => {
                    prop_assert_eq!(core.read_private_word(a), flat.read(a), "read {:#x}", a)
                }
                Op::Write(a, v) => {
                    let result = core.write_private_word(a, v);
                    prop_assert_eq!(result, flat.write(a, v), "write {:#x}", a);
                    if result.is_ok() {
                        written.insert(a as usize / PAGE_BYTES);
                    }
                }
            }
        }
        for w in 0..PRIVATE_SRAM_BYTES as u32 / 4 {
            prop_assert_eq!(core.read_private_word(w * 4), Ok(flat.0[w as usize]));
        }
        prop_assert_eq!(core.resident_bytes(), written.len() * PAGE_BYTES);
    }
}
