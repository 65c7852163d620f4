//! Determinism digests: rolling FNV-1a fingerprints of simulator state
//! recorded every K cycles into a compact sidecar journal, so a
//! bit-identity failure localises to a cycle window and a tile instead
//! of manifesting as an opaque byte diff between artefacts.
//!
//! A [`DigestJournal`] holds per-*lane* digests — one lane per fabric
//! router per network (`n0`/`n1`) and one per machine tile (`m`) —
//! deduplicated against the previous window, so idle state costs no
//! journal space. [`first_divergence`] walks two journals and reports
//! the first window and lane where the reconstructed state differs;
//! the `wsp-diff` bin is a thin CLI over it.

use std::fmt;

/// 64-bit FNV-1a rolling hash.
///
/// # Examples
///
/// ```
/// use wsp_telemetry::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write_u64(42);
/// let a = h.finish();
/// let mut h2 = Fnv1a::new();
/// h2.write_u64(43);
/// assert_ne!(a, h2.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a `u32` little-endian.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` little-endian.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A seedless [`std::hash::Hasher`], so a hash map keyed through it grows
/// (and allocates) as a deterministic function of the keys inserted.
impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }
}

/// Identity of one digested state lane. The `Ord` derivation (networks
/// before machine tiles, ascending indices) fixes which lane a
/// divergence report names when several differ in the same window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneId {
    /// Queue occupancy of one router on one fabric network.
    Net {
        /// Network index (0 = X-Y, 1 = Y-X).
        net: u8,
        /// Row-major tile index.
        tile: u32,
    },
    /// Architectural state of one machine tile (cores + pending slots +
    /// memory-timing fingerprint).
    Machine {
        /// Row-major tile index.
        tile: u32,
    },
    /// Outcome of one serving-layer job (dispatch placement + service
    /// cycles + result checksum), recorded at the job's completion time
    /// on the campaign clock.
    Job {
        /// Job sequence number within the campaign.
        id: u32,
    },
}

impl LaneId {
    /// The row-major tile index the lane points at (the job id for
    /// serving-layer job lanes, which are not tied to one tile).
    pub fn tile(&self) -> u32 {
        match *self {
            LaneId::Net { tile, .. } | LaneId::Machine { tile } => tile,
            LaneId::Job { id } => id,
        }
    }
}

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LaneId::Net { net, tile } => write!(f, "network {net} tile {tile}"),
            LaneId::Machine { tile } => write!(f, "machine tile {tile}"),
            LaneId::Job { id } => write!(f, "job {id}"),
        }
    }
}

/// All lane updates recorded at one digest window boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestWindow {
    /// The cycle the window ends on (a multiple of the cadence).
    pub cycle: u64,
    /// Lanes whose digest changed since the previous window.
    pub lanes: Vec<(LaneId, u64)>,
}

/// Magic first line of the sidecar journal format.
pub const JOURNAL_MAGIC: &str = "wsp-digest-v1";

/// Default digest cadence (cycles between windows) used by the bench
/// binaries' `--digest-every` flag.
pub const DEFAULT_DIGEST_EVERY: u64 = 64;

/// A determinism-digest journal: windows of per-lane FNV-1a digests at
/// a fixed cycle cadence, with per-lane dedup against the previous
/// window. Serialises to a line-oriented text sidecar.
///
/// # Examples
///
/// ```
/// use wsp_telemetry::{DigestJournal, LaneId};
///
/// let mut j = DigestJournal::new(64, 4, 4);
/// j.record(64, LaneId::Machine { tile: 3 }, 0xabcd);
/// j.record(128, LaneId::Machine { tile: 3 }, 0xabcd); // unchanged: deduped
/// assert_eq!(j.windows().len(), 1);
/// let text = j.to_text();
/// assert_eq!(DigestJournal::parse(&text).unwrap(), j);
/// ```
#[derive(Debug, Clone)]
pub struct DigestJournal {
    every: u64,
    width: u16,
    height: u16,
    windows: Vec<DigestWindow>,
    /// Latest digest per lane, for O(log lanes) dedup on record.
    current: std::collections::BTreeMap<LaneId, u64>,
}

impl PartialEq for DigestJournal {
    fn eq(&self, other: &Self) -> bool {
        self.every == other.every
            && self.width == other.width
            && self.height == other.height
            && self.windows == other.windows
    }
}

impl Eq for DigestJournal {}

impl DigestJournal {
    /// A journal recording every `every` cycles over a `width`×`height`
    /// tile array. `every == 0` disables recording.
    pub fn new(every: u64, width: u16, height: u16) -> Self {
        DigestJournal {
            every,
            width,
            height,
            windows: Vec::new(),
            current: std::collections::BTreeMap::new(),
        }
    }

    /// Window cadence in cycles (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Tile-array dimensions `(width, height)`.
    pub fn dims(&self) -> (u16, u16) {
        (self.width, self.height)
    }

    /// Whether `cycle` is a window boundary. Emitters gate the state
    /// walk on this so off-window cycles cost one branch.
    #[inline]
    pub fn wants(&self, cycle: u64) -> bool {
        self.every != 0 && cycle != 0 && cycle.is_multiple_of(self.every)
    }

    /// Records one lane digest at a window boundary. A lane whose
    /// digest matches its previously recorded value is deduplicated.
    /// Windows must be fed in ascending cycle order (they are — the
    /// emitters walk the simulator's own clock).
    pub fn record(&mut self, cycle: u64, lane: LaneId, digest: u64) {
        if self.current.get(&lane) == Some(&digest) {
            return;
        }
        self.current.insert(lane, digest);
        if self.windows.last().map(|w| w.cycle) != Some(cycle) {
            self.windows.push(DigestWindow {
                cycle,
                lanes: Vec::new(),
            });
        }
        let window = self.windows.last_mut().expect("just ensured");
        window.lanes.push((lane, digest));
    }

    /// The recorded windows in ascending cycle order.
    pub fn windows(&self) -> &[DigestWindow] {
        &self.windows
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Serialises to the line-oriented sidecar format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.windows.len() * 32);
        out.push_str(JOURNAL_MAGIC);
        out.push('\n');
        out.push_str(&format!("dims {} {}\n", self.width, self.height));
        out.push_str(&format!("every {}\n", self.every));
        for w in &self.windows {
            out.push_str(&format!("@ {}\n", w.cycle));
            for (lane, digest) in &w.lanes {
                match lane {
                    LaneId::Net { net, tile } => {
                        out.push_str(&format!("n{net} {tile} {digest:016x}\n"));
                    }
                    LaneId::Machine { tile } => {
                        out.push_str(&format!("m {tile} {digest:016x}\n"));
                    }
                    LaneId::Job { id } => {
                        out.push_str(&format!("j {id} {digest:016x}\n"));
                    }
                }
            }
        }
        out
    }

    /// Parses a sidecar journal written by [`DigestJournal::to_text`].
    ///
    /// Rejects, besides malformed lines, anything `to_text` never
    /// writes: window cycles that do not strictly ascend (which
    /// [`first_divergence`] relies on), network or machine lanes naming a
    /// tile outside the `dims` array, and trailing tokens on a line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some(JOURNAL_MAGIC) {
            return Err(format!("not a digest journal (missing {JOURNAL_MAGIC:?})"));
        }
        let dims_line = lines.next().ok_or("missing dims line")?;
        let mut dims = dims_line
            .strip_prefix("dims ")
            .ok_or_else(|| format!("expected \"dims W H\", got {dims_line:?}"))?
            .split_whitespace();
        let width: u16 = dims
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad dims width")?;
        let height: u16 = dims
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad dims height")?;
        if dims.next().is_some() {
            return Err(format!("trailing tokens on dims line {dims_line:?}"));
        }
        let tiles = u32::from(width) * u32::from(height);
        let every_line = lines.next().ok_or("missing every line")?;
        let every: u64 = every_line
            .strip_prefix("every ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("expected \"every K\", got {every_line:?}"))?;
        let mut journal = DigestJournal::new(every, width, height);
        let mut cycle: Option<u64> = None;
        for (i, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(c) = line.strip_prefix("@ ") {
                let c: u64 = c.parse().map_err(|_| format!("bad window line {i}"))?;
                if cycle.is_some_and(|prev| c <= prev) {
                    return Err(format!(
                        "window @ {c} on line {i} does not follow its predecessor"
                    ));
                }
                journal.windows.push(DigestWindow {
                    cycle: c,
                    lanes: Vec::new(),
                });
                cycle = Some(c);
                continue;
            }
            let mut parts = line.split_whitespace();
            let kind = parts.next().ok_or_else(|| format!("empty lane line {i}"))?;
            let tile: u32 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad tile on lane line {i}"))?;
            let digest = parts
                .next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or_else(|| format!("bad digest on lane line {i}"))?;
            if parts.next().is_some() {
                return Err(format!("trailing tokens on lane line {i}"));
            }
            let lane = match kind {
                "m" => LaneId::Machine { tile },
                "j" => LaneId::Job { id: tile },
                k => {
                    let net: u8 = k
                        .strip_prefix('n')
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("unknown lane kind {k:?} on line {i}"))?;
                    LaneId::Net { net, tile }
                }
            };
            if matches!(lane, LaneId::Net { .. } | LaneId::Machine { .. }) && tile >= tiles {
                return Err(format!(
                    "lane line {i} names tile {tile} outside the {width}x{height} array"
                ));
            }
            cycle.ok_or_else(|| format!("lane line {i} before any window"))?;
            journal
                .windows
                .last_mut()
                .expect("cycle is set")
                .lanes
                .push((lane, digest));
        }
        let pairs: Vec<(LaneId, u64)> = journal
            .windows
            .iter()
            .flat_map(|w| w.lanes.iter().copied())
            .collect();
        journal.current.extend(pairs);
        Ok(journal)
    }
}

/// The first point where two journals disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Cycle range `(start, end)` the divergence happened in: the
    /// window's cadence span ending on the first differing boundary.
    pub window: (u64, u64),
    /// The smallest differing lane (networks order before machine
    /// tiles; see [`LaneId`]'s `Ord`).
    pub lane: LaneId,
    /// Digest in journal A at the boundary (`None` = lane never
    /// recorded).
    pub a: Option<u64>,
    /// Digest in journal B at the boundary.
    pub b: Option<u64>,
}

/// Walks two journals window by window and returns the first window
/// whose reconstructed per-lane state differs, or `None` when the
/// journals agree everywhere. Errs when the journals are incomparable
/// (different cadence or array dimensions).
pub fn first_divergence(
    a: &DigestJournal,
    b: &DigestJournal,
) -> Result<Option<Divergence>, String> {
    if a.every() != b.every() {
        return Err(format!(
            "journals have different cadences ({} vs {})",
            a.every(),
            b.every()
        ));
    }
    if a.dims() != b.dims() {
        return Err(format!(
            "journals cover different arrays ({:?} vs {:?})",
            a.dims(),
            b.dims()
        ));
    }
    let mut state_a = std::collections::BTreeMap::new();
    let mut state_b = std::collections::BTreeMap::new();
    let mut ia = a.windows().iter().peekable();
    let mut ib = b.windows().iter().peekable();
    loop {
        let next_cycle = match (ia.peek(), ib.peek()) {
            (Some(wa), Some(wb)) => wa.cycle.min(wb.cycle),
            (Some(wa), None) => wa.cycle,
            (None, Some(wb)) => wb.cycle,
            (None, None) => return Ok(None),
        };
        if let Some(wa) = ia.peek() {
            if wa.cycle == next_cycle {
                for (lane, digest) in &wa.lanes {
                    state_a.insert(*lane, *digest);
                }
                ia.next();
            }
        }
        if let Some(wb) = ib.peek() {
            if wb.cycle == next_cycle {
                for (lane, digest) in &wb.lanes {
                    state_b.insert(*lane, *digest);
                }
                ib.next();
            }
        }
        let mismatch = state_a
            .iter()
            .filter(|(lane, da)| state_b.get(*lane) != Some(*da))
            .map(|(lane, _)| *lane)
            .chain(
                state_b
                    .keys()
                    .filter(|lane| !state_a.contains_key(*lane))
                    .copied(),
            )
            .min();
        if let Some(lane) = mismatch {
            let start = next_cycle.saturating_sub(a.every()) + 1;
            return Ok(Some(Divergence {
                window: (start, next_cycle),
                lane,
                a: state_a.get(&lane).copied(),
                b: state_b.get(&lane).copied(),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c (standard test vector).
        let mut h = Fnv1a::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn journal_dedups_unchanged_lanes() {
        let mut j = DigestJournal::new(16, 4, 4);
        j.record(16, LaneId::Net { net: 0, tile: 7 }, 1);
        j.record(32, LaneId::Net { net: 0, tile: 7 }, 1);
        j.record(48, LaneId::Net { net: 0, tile: 7 }, 2);
        assert_eq!(j.windows().len(), 2);
        assert_eq!(j.windows()[1].cycle, 48);
    }

    #[test]
    fn text_round_trip() {
        let mut j = DigestJournal::new(64, 16, 16);
        j.record(64, LaneId::Net { net: 0, tile: 3 }, 0xdead_beef);
        j.record(64, LaneId::Net { net: 1, tile: 3 }, 0xcafe);
        j.record(64, LaneId::Machine { tile: 12 }, u64::MAX);
        j.record(128, LaneId::Machine { tile: 12 }, 0);
        let parsed = DigestJournal::parse(&j.to_text()).expect("parses");
        assert_eq!(parsed, j);
    }

    #[test]
    fn job_lanes_round_trip_and_order_after_tiles() {
        let mut j = DigestJournal::new(1, 16, 16);
        j.record(10, LaneId::Job { id: 0 }, 0xaaaa);
        j.record(25, LaneId::Job { id: 1 }, 0xbbbb);
        j.record(25, LaneId::Machine { tile: 1 }, 3);
        let text = j.to_text();
        assert!(text.contains("j 0 000000000000aaaa"));
        assert_eq!(DigestJournal::parse(&text).expect("parses"), j);
        // Ord: job lanes sort after the tile-indexed lanes, so divergence
        // reports name router/machine lanes before campaign-level ones.
        assert!(LaneId::Machine { tile: u32::MAX } < LaneId::Job { id: 0 });
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DigestJournal::parse("not a journal").is_err());
        assert!(DigestJournal::parse("wsp-digest-v1\ndims 4 4\nevery 8\nm x y\n").is_err());
        assert!(DigestJournal::parse("wsp-digest-v1\ndims 4 4\nevery 8\nm 1 ff\n").is_err());
        let valid = "wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nn0 3 ff\n@ 32\nm 1 aa\n";
        assert!(DigestJournal::parse(valid).is_ok());
        for bad in [
            // Windows out of order.
            "wsp-digest-v1\ndims 2 2\nevery 16\n@ 32\nm 1 aa\n@ 16\nn0 3 ff\n",
            // A repeated window.
            "wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nn0 3 ff\n@ 16\nm 1 aa\n",
            // Tiles outside the 2x2 array.
            "wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nn0 999 ff\n",
            "wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nm 4 ff\n",
            // Trailing tokens.
            "wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nn0 3 ff junk\n",
            "wsp-digest-v1\ndims 2 2 2\nevery 16\n",
        ] {
            assert!(DigestJournal::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Job lanes are numbered by job, not tile, so any id is in range.
        assert!(
            DigestJournal::parse("wsp-digest-v1\ndims 2 2\nevery 16\n@ 16\nj 999 ff\n").is_ok()
        );
    }

    #[test]
    fn identical_journals_have_no_divergence() {
        let mut j = DigestJournal::new(8, 4, 4);
        j.record(8, LaneId::Machine { tile: 1 }, 11);
        j.record(16, LaneId::Machine { tile: 2 }, 22);
        assert_eq!(first_divergence(&j, &j.clone()), Ok(None));
    }

    #[test]
    fn divergence_localises_to_window_and_lane() {
        let mut a = DigestJournal::new(8, 4, 4);
        let mut b = DigestJournal::new(8, 4, 4);
        for (cycle, d_a, d_b) in [(8, 1, 1), (16, 2, 2), (24, 3, 99), (32, 4, 4)] {
            a.record(cycle, LaneId::Machine { tile: 5 }, d_a);
            b.record(cycle, LaneId::Machine { tile: 5 }, d_b);
        }
        let d = first_divergence(&a, &b)
            .expect("comparable")
            .expect("diverges");
        assert_eq!(d.window, (17, 24));
        assert_eq!(d.lane, LaneId::Machine { tile: 5 });
        assert_eq!((d.a, d.b), (Some(3), Some(99)));
    }

    #[test]
    fn dedup_asymmetry_is_still_caught() {
        // A's lane changes at 16; B's stays at its old value (so B's
        // journal records nothing at 16). The reconstructed states must
        // still diverge at window 16.
        let mut a = DigestJournal::new(8, 4, 4);
        let mut b = DigestJournal::new(8, 4, 4);
        a.record(8, LaneId::Net { net: 1, tile: 0 }, 7);
        b.record(8, LaneId::Net { net: 1, tile: 0 }, 7);
        a.record(16, LaneId::Net { net: 1, tile: 0 }, 8);
        b.record(16, LaneId::Net { net: 1, tile: 0 }, 7); // deduped away
        let d = first_divergence(&a, &b)
            .expect("comparable")
            .expect("diverges");
        assert_eq!(d.window, (9, 16));
        assert_eq!((d.a, d.b), (Some(8), Some(7)));
    }

    #[test]
    fn incomparable_journals_err() {
        let a = DigestJournal::new(8, 4, 4);
        assert!(first_divergence(&a, &DigestJournal::new(16, 4, 4)).is_err());
        assert!(first_divergence(&a, &DigestJournal::new(8, 8, 4)).is_err());
    }

    #[test]
    fn lane_ordering_prefers_networks_then_ascending_tiles() {
        let mut lanes = [
            LaneId::Machine { tile: 0 },
            LaneId::Net { net: 1, tile: 2 },
            LaneId::Net { net: 0, tile: 9 },
        ];
        lanes.sort();
        assert_eq!(
            lanes,
            [
                LaneId::Net { net: 0, tile: 9 },
                LaneId::Net { net: 1, tile: 2 },
                LaneId::Machine { tile: 0 },
            ]
        );
    }
}
