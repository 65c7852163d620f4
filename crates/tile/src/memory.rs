//! The memory chiplet: five 128 KB SRAM banks (Sec. II).
//!
//! Four banks are mapped into the global shared address space (words
//! interleaved across them so streaming accesses hit all four in
//! parallel); the fifth is reachable only by this tile's cores and
//! routers. Each bank has one port — one word per bank per cycle — which
//! is the per-tile term of Table I's 6.144 TB/s aggregate shared-memory
//! bandwidth.

use std::error::Error;
use std::fmt;

/// Number of SRAM banks on the memory chiplet.
pub const BANK_COUNT: usize = 5;

/// Bytes per bank (128 KB).
pub const BANK_BYTES: usize = 128 * 1024;

/// Number of banks in the global shared address space.
pub const GLOBAL_BANKS: usize = 4;

/// Size of the globally addressable region of one tile (4 × 128 KB).
pub const GLOBAL_REGION_BYTES: usize = GLOBAL_BANKS * BANK_BYTES;

/// Total capacity of the memory chiplet (640 KB).
pub const TOTAL_BYTES: usize = BANK_COUNT * BANK_BYTES;

/// Bytes per SRAM row (the row-buffer granule of the banked timing
/// model): 2 KiB, i.e. 512 words and 64 rows per 128 KB bank.
pub const ROW_BYTES: usize = 2048;

/// Bytes per page of simulated SRAM storage: 4 KiB, i.e. 1024 words,
/// 32 pages per 128 KB bank and 16 per core's 64 KB private SRAM. A page
/// is allocated on the first write to any of its words.
pub const PAGE_BYTES: usize = 4096;

/// Words per storage page.
const PAGE_WORDS: usize = PAGE_BYTES / 4;

/// The bank a tile-local offset maps to, as pure offset arithmetic:
/// global offsets word-interleave across banks 0–3, local offsets go to
/// bank 4.
///
/// This is [`MemoryChiplet::bank_of`] without the chiplet: the mapping
/// depends only on the address, so shared-memory validation (e.g. a
/// machine shard checking a *remote* tile's bank before queueing a fabric
/// request) can run without touching the owner's memory instance.
///
/// # Errors
///
/// Returns an error for misaligned or out-of-range offsets.
pub fn bank_of_offset(offset: u32) -> Result<usize, AccessMemoryError> {
    locate(offset).map(|(bank, _)| bank)
}

/// Maps an offset to `(bank, row-within-bank)` for row-buffer timing
/// models. The row index is the byte-within-bank address divided by
/// [`ROW_BYTES`], so word-interleaved streaming walks each global
/// bank's rows in lockstep.
///
/// # Errors
///
/// Returns an error for misaligned or out-of-range offsets.
pub fn bank_row_of_offset(offset: u32) -> Result<(usize, u32), AccessMemoryError> {
    locate(offset).map(|(bank, byte)| (bank, (byte / ROW_BYTES) as u32))
}

/// Maps an offset to `(bank, byte-within-bank)`.
fn locate(offset: u32) -> Result<(usize, usize), AccessMemoryError> {
    if !offset.is_multiple_of(4) {
        return Err(AccessMemoryError::Misaligned { addr: offset });
    }
    let off = offset as usize;
    if off + 4 <= GLOBAL_REGION_BYTES {
        let word = off / 4;
        let bank = word % GLOBAL_BANKS;
        let byte = (word / GLOBAL_BANKS) * 4;
        Ok((bank, byte))
    } else if off >= GLOBAL_REGION_BYTES && off + 4 <= TOTAL_BYTES {
        Ok((GLOBAL_BANKS, off - GLOBAL_REGION_BYTES))
    } else {
        Err(AccessMemoryError::OutOfRange { addr: offset })
    }
}

/// The storage word index of `(bank, byte-within-bank)`.
#[inline]
fn word_index(bank: usize, byte: usize) -> usize {
    (bank * BANK_BYTES + byte) / 4
}

/// Memory-access failure modes shared by the tile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMemoryError {
    /// Address not 4-byte aligned.
    Misaligned {
        /// The offending byte address.
        addr: u32,
    },
    /// Address outside the addressable region.
    OutOfRange {
        /// The offending byte address.
        addr: u32,
    },
}

impl fmt::Display for AccessMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMemoryError::Misaligned { addr } => {
                write!(f, "address {addr:#x} is not word aligned")
            }
            AccessMemoryError::OutOfRange { addr } => {
                write!(f, "address {addr:#x} outside addressable memory")
            }
        }
    }
}

impl Error for AccessMemoryError {}

/// Word-addressed simulated SRAM, stored as [`PAGE_BYTES`] pages that are
/// allocated on first write. A word never written reads as 0, so a fresh
/// store costs one pointer per page and no zeroing. Indices are checked
/// by the callers, which own the address decoding and its errors.
#[derive(Debug, Clone)]
pub(crate) struct PagedWords {
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
}

impl PagedWords {
    /// A store of `bytes` (a multiple of [`PAGE_BYTES`]) with no pages.
    pub(crate) fn new(bytes: usize) -> Self {
        debug_assert!(bytes.is_multiple_of(PAGE_BYTES));
        PagedWords {
            pages: vec![None; bytes / PAGE_BYTES],
        }
    }

    /// The word at index `word`.
    #[inline]
    pub(crate) fn read(&self, word: usize) -> u32 {
        match &self.pages[word / PAGE_WORDS] {
            Some(page) => page[word % PAGE_WORDS],
            None => 0,
        }
    }

    /// Stores `value` at index `word`, allocating its page if needed.
    #[inline]
    pub(crate) fn write(&mut self, word: usize, value: u32) {
        let page = self.pages[word / PAGE_WORDS].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[word % PAGE_WORDS] = value;
    }

    /// Bytes held by allocated pages.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE_BYTES
    }
}

/// The five-bank memory chiplet of one tile.
///
/// Offsets `0..512 KiB` address the four global banks (word-interleaved);
/// offsets `512..640 KiB` address the tile-local bank.
///
/// # Examples
///
/// ```
/// use wsp_tile::MemoryChiplet;
///
/// let mut mem = MemoryChiplet::new();
/// mem.write_word(0x40, 123)?;
/// assert_eq!(mem.read_word(0x40)?, 123);
/// # Ok::<(), wsp_tile::AccessMemoryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChiplet {
    /// All five banks back to back, `BANK_BYTES` each; a bank is a whole
    /// number of pages, so no page spans two banks.
    words: PagedWords,
}

impl MemoryChiplet {
    /// Creates a memory chiplet whose words all read 0. No storage is
    /// allocated until the first write.
    pub fn new() -> Self {
        MemoryChiplet {
            words: PagedWords::new(TOTAL_BYTES),
        }
    }

    /// Bytes of simulated SRAM backed by allocated pages: a multiple of
    /// [`PAGE_BYTES`], 0 for a chiplet that was never written.
    pub fn resident_bytes(&self) -> usize {
        self.words.resident_bytes()
    }

    /// The bank an offset maps to: global offsets word-interleave across
    /// banks 0–3, local offsets go to bank 4.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn bank_of(&self, offset: u32) -> Result<usize, AccessMemoryError> {
        bank_of_offset(offset)
    }

    /// Reads a word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn read_word(&self, offset: u32) -> Result<u32, AccessMemoryError> {
        let (bank, byte) = locate(offset)?;
        Ok(self.words.read(word_index(bank, byte)))
    }

    /// Writes a word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn write_word(&mut self, offset: u32, value: u32) -> Result<(), AccessMemoryError> {
        let (bank, byte) = locate(offset)?;
        self.words.write(word_index(bank, byte), value);
        Ok(())
    }
}

impl Default for MemoryChiplet {
    fn default() -> Self {
        MemoryChiplet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_interleave_across_global_banks() {
        let mem = MemoryChiplet::new();
        assert_eq!(mem.bank_of(0).expect("ok"), 0);
        assert_eq!(mem.bank_of(4).expect("ok"), 1);
        assert_eq!(mem.bank_of(8).expect("ok"), 2);
        assert_eq!(mem.bank_of(12).expect("ok"), 3);
        assert_eq!(mem.bank_of(16).expect("ok"), 0);
    }

    #[test]
    fn local_bank_region() {
        let mem = MemoryChiplet::new();
        assert_eq!(
            mem.bank_of(GLOBAL_REGION_BYTES as u32).expect("ok"),
            GLOBAL_BANKS
        );
        assert_eq!(mem.bank_of(TOTAL_BYTES as u32 - 4).expect("ok"), 4);
    }

    #[test]
    fn read_write_round_trip_everywhere() {
        let mut mem = MemoryChiplet::new();
        for offset in [0u32, 4, 12, 100, 524288, 655356] {
            mem.write_word(offset, offset ^ 0xABCD_1234).expect("write");
        }
        for offset in [0u32, 4, 12, 100, 524288, 655356] {
            assert_eq!(mem.read_word(offset).expect("read"), offset ^ 0xABCD_1234);
        }
    }

    #[test]
    fn interleaved_words_do_not_alias() {
        let mut mem = MemoryChiplet::new();
        for w in 0..64u32 {
            mem.write_word(w * 4, w).expect("write");
        }
        for w in 0..64u32 {
            assert_eq!(mem.read_word(w * 4).expect("read"), w);
        }
    }

    #[test]
    fn bank_of_offset_matches_the_chiplet_mapping() {
        let mem = MemoryChiplet::new();
        for offset in (0..TOTAL_BYTES as u32 + 8).step_by(4) {
            assert_eq!(bank_of_offset(offset), mem.bank_of(offset), "{offset:#x}");
        }
        assert_eq!(bank_of_offset(7), mem.bank_of(7));
    }

    #[test]
    fn misaligned_rejected() {
        let mem = MemoryChiplet::new();
        assert_eq!(
            mem.read_word(3),
            Err(AccessMemoryError::Misaligned { addr: 3 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = MemoryChiplet::new();
        assert_eq!(
            mem.write_word(TOTAL_BYTES as u32, 1),
            Err(AccessMemoryError::OutOfRange {
                addr: TOTAL_BYTES as u32
            })
        );
    }

    #[test]
    fn global_local_boundary_is_exact() {
        // The 512 KiB boundary: the last global word belongs to an
        // interleaved bank, the first local word to bank 4, and the
        // word straddling the boundary cannot exist (aligned stride).
        let last_global = GLOBAL_REGION_BYTES as u32 - 4;
        let word = (last_global / 4) as usize;
        assert_eq!(bank_of_offset(last_global), Ok(word % GLOBAL_BANKS));
        assert_eq!(bank_of_offset(GLOBAL_REGION_BYTES as u32), Ok(GLOBAL_BANKS));
        // One word below the boundary lands in the final row of its
        // global bank; one at the boundary in row 0 of the local bank.
        let (bank, row) = bank_row_of_offset(last_global).expect("ok");
        assert!(bank < GLOBAL_BANKS);
        assert_eq!(row as usize, BANK_BYTES / ROW_BYTES - 1);
        assert_eq!(
            bank_row_of_offset(GLOBAL_REGION_BYTES as u32),
            Ok((GLOBAL_BANKS, 0))
        );
    }

    #[test]
    fn last_valid_word_of_local_bank() {
        let last = TOTAL_BYTES as u32 - 4;
        assert_eq!(bank_of_offset(last), Ok(GLOBAL_BANKS));
        let (bank, row) = bank_row_of_offset(last).expect("ok");
        assert_eq!(bank, GLOBAL_BANKS);
        assert_eq!(row as usize, BANK_BYTES / ROW_BYTES - 1);
        // The very next word is the first invalid one.
        assert_eq!(
            bank_of_offset(TOTAL_BYTES as u32),
            Err(AccessMemoryError::OutOfRange {
                addr: TOTAL_BYTES as u32
            })
        );
    }

    #[test]
    fn unaligned_offsets_rejected_everywhere() {
        for offset in [1u32, 2, 3, GLOBAL_REGION_BYTES as u32 + 2, 0xFFFF_FFFD] {
            assert_eq!(
                bank_of_offset(offset),
                Err(AccessMemoryError::Misaligned { addr: offset }),
                "{offset:#x}"
            );
            assert_eq!(
                bank_row_of_offset(offset),
                Err(AccessMemoryError::Misaligned { addr: offset }),
                "{offset:#x}"
            );
        }
    }

    #[test]
    fn out_of_range_error_path_is_aligned_aware() {
        // Aligned but beyond the chiplet: OutOfRange, not Misaligned.
        for offset in [TOTAL_BYTES as u32, TOTAL_BYTES as u32 + 4, 0xFFFF_FFFC] {
            assert_eq!(
                bank_row_of_offset(offset),
                Err(AccessMemoryError::OutOfRange { addr: offset }),
                "{offset:#x}"
            );
        }
    }

    #[test]
    fn rows_advance_in_lockstep_across_interleaved_banks() {
        // Word-interleaving: 4 consecutive words hit banks 0..4, all in
        // the same row; a full row's worth of stride-4 words later, the
        // row index advances on every bank.
        for w in 0..4u32 {
            assert_eq!(bank_row_of_offset(w * 4), Ok((w as usize, 0)));
        }
        let words_per_row_group = (GLOBAL_BANKS * ROW_BYTES / 4) as u32;
        for w in 0..4u32 {
            assert_eq!(
                bank_row_of_offset((words_per_row_group + w) * 4),
                Ok((w as usize, 1))
            );
        }
    }

    #[test]
    fn capacity_constants_match_table1() {
        // 5 banks × 128 KB = 640 KB per tile; 4 banks (512 KB) global.
        assert_eq!(TOTAL_BYTES, 640 * 1024);
        assert_eq!(GLOBAL_REGION_BYTES, 512 * 1024);
        // Whole wafer: 1024 tiles × 512 KB global = 512 MB (Table I).
        assert_eq!(1024 * GLOBAL_REGION_BYTES, 512 * 1024 * 1024);
    }

    #[test]
    fn error_display_mentions_address() {
        assert!(AccessMemoryError::Misaligned { addr: 7 }
            .to_string()
            .contains("0x7"));
        assert!(AccessMemoryError::OutOfRange { addr: 0xA0000 }
            .to_string()
            .contains("outside"));
    }
}
