//! Kernel-software routing policy (Sec. VI).
//!
//! The hardware gives every tile two deterministic networks; *software*
//! decides which one each source-destination pair uses. After assembly the
//! fault map is known, and the kernel:
//!
//! 1. picks the only healthy network when just one direct path survives;
//! 2. balances pairs across both networks when both paths are healthy
//!    (deterministically, so every packet of a pair rides the same network
//!    and packet order is preserved);
//! 3. relays through an intermediate tile when both direct paths are
//!    broken — the intermediate tile's cores spend cycles forwarding, so
//!    this is a last resort the dual-network design makes rare.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use wsp_topo::{FaultMap, TileCoord};

use crate::connectivity::SegmentOracle;
use crate::routing::NetworkKind;

/// The kernel's routing decision for one source-destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkChoice {
    /// Send directly on the given network (response returns on its
    /// complement along the same tiles).
    Direct(NetworkKind),
    /// Relay via an intermediate tile: `first` carries source→via,
    /// `second` carries via→destination. The response retraces the same
    /// two legs on the complementary networks.
    Relay {
        /// The forwarding tile.
        via: TileCoord,
        /// Network for the source→via leg.
        first: NetworkKind,
        /// Network for the via→destination leg.
        second: NetworkKind,
    },
    /// No healthy one- or two-leg path exists.
    Disconnected,
}

impl NetworkChoice {
    /// The tile a packet on leg `leg` of this choice heads for, given its
    /// final destination `dst`: relay routes aim at the `via` tile on leg
    /// 0, every other case aims at `dst`. Requests and responses agree —
    /// a response retraces the same two legs in reverse order, so its
    /// leg-0 target is the same intermediate tile.
    ///
    /// This lives on the choice (not the packet) so the fabric's
    /// struct-of-arrays packet arena can answer route queries from its
    /// parallel columns without materialising a packet.
    #[inline]
    pub fn leg_target(self, leg: u8, dst: TileCoord) -> TileCoord {
        match (self, leg) {
            (NetworkChoice::Relay { via, .. }, 0) => via,
            _ => dst,
        }
    }

    /// The network carrying leg `leg`. A `response` retraces the
    /// request's physical path in reverse on the complementary networks.
    ///
    /// # Panics
    ///
    /// Panics on [`NetworkChoice::Disconnected`]: unreachable pairs are
    /// rejected before any routing question is asked.
    #[inline]
    pub fn leg_network(self, response: bool, leg: u8) -> NetworkKind {
        match (self, response, leg) {
            (NetworkChoice::Direct(n), false, _) => n,
            (NetworkChoice::Direct(n), true, _) => n.complement(),
            (NetworkChoice::Relay { first, .. }, false, 0) => first,
            (NetworkChoice::Relay { second, .. }, false, _) => second,
            // Response retraces: leg 0 is dst→via on second's complement,
            // leg 1 is via→src on first's complement.
            (NetworkChoice::Relay { second, .. }, true, 0) => second.complement(),
            (NetworkChoice::Relay { first, .. }, true, _) => first.complement(),
            (NetworkChoice::Disconnected, _, _) => {
                unreachable!("disconnected packets are never routed")
            }
        }
    }
}

impl fmt::Display for NetworkChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkChoice::Direct(n) => write!(f, "direct on {n}"),
            NetworkChoice::Relay { via, .. } => write!(f, "relay via {via}"),
            NetworkChoice::Disconnected => f.write_str("disconnected"),
        }
    }
}

/// Plans per-pair network assignments over a known fault map.
///
/// # Examples
///
/// ```
/// use wsp_noc::{NetworkChoice, RoutePlanner};
/// use wsp_topo::{FaultMap, TileArray, TileCoord};
///
/// let planner = RoutePlanner::new(FaultMap::none(TileArray::new(8, 8)));
/// let choice = planner.choose(TileCoord::new(0, 0), TileCoord::new(5, 5));
/// assert!(matches!(choice, NetworkChoice::Direct(_)));
/// ```
#[derive(Debug, Clone)]
pub struct RoutePlanner {
    faults: FaultMap,
    oracle: SegmentOracle,
}

impl RoutePlanner {
    /// Creates a planner for the given post-assembly fault map.
    pub fn new(faults: FaultMap) -> Self {
        let oracle = SegmentOracle::new(&faults);
        RoutePlanner { faults, oracle }
    }

    /// The fault map the planner consults.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// The kernel's decision for the pair `(src, dst)`.
    ///
    /// Both endpoints must be healthy for any communication; a faulty
    /// endpoint yields [`NetworkChoice::Disconnected`].
    ///
    /// # Panics
    ///
    /// Panics if either tile lies outside the array.
    pub fn choose(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        if src == dst || self.faults.is_faulty(src) || self.faults.is_faulty(dst) {
            return NetworkChoice::Disconnected;
        }
        let xy = self.oracle.xy_connected(src, dst);
        let yx = self.oracle.yx_connected(src, dst);
        match (xy, yx) {
            (true, true) => NetworkChoice::Direct(self.balance(src, dst)),
            (true, false) => NetworkChoice::Direct(NetworkKind::Xy),
            (false, true) => NetworkChoice::Direct(NetworkKind::Yx),
            (false, false) => self.find_relay(src, dst),
        }
    }

    /// Deterministic load balancing: pairs hash onto the two networks so
    /// aggregate utilisation is even while any one pair always uses the
    /// same network (preserving packet order).
    fn balance(&self, src: TileCoord, dst: TileCoord) -> NetworkKind {
        let h = (u64::from(src.x) ^ u64::from(dst.y).rotate_left(16))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(src.y) ^ u64::from(dst.x).rotate_left(32))
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        if h & 1 == 0 {
            NetworkKind::Xy
        } else {
            NetworkKind::Yx
        }
    }

    /// Searches for a relay tile with healthy legs to both endpoints,
    /// preferring the one adding the fewest extra hops and, among those,
    /// the first in row-major order.
    ///
    /// A via adds zero extra hops iff it lies in the closed src/dst
    /// bounding box, and zero is the minimum, so the first box tile in
    /// row-major order with healthy legs is exactly what a full scan
    /// would keep. Only when the box has no such tile does the search
    /// fall back to scanning every healthy tile.
    fn find_relay(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        let (x0, x1) = (src.x.min(dst.x), src.x.max(dst.x));
        let (y0, y1) = (src.y.min(dst.y), src.y.max(dst.y));
        for y in y0..=y1 {
            for x in x0..=x1 {
                if let Some(choice) = self.relay_via(src, TileCoord::new(x, y), dst) {
                    return choice;
                }
            }
        }
        let mut best: Option<(u32, NetworkChoice)> = None;
        for via in self.faults.healthy_tiles() {
            if let Some(choice) = self.relay_via(src, via, dst) {
                let hops = src.manhattan_distance(via) + via.manhattan_distance(dst);
                match &best {
                    Some((best_hops, _)) if *best_hops <= hops => {}
                    _ => best = Some((hops, choice)),
                }
            }
        }
        best.map(|(_, c)| c).unwrap_or(NetworkChoice::Disconnected)
    }

    /// The relay route through `via`, if `via` is a healthy third tile
    /// with a healthy leg from `src` and one to `dst` (XY preferred on
    /// each leg).
    fn relay_via(&self, src: TileCoord, via: TileCoord, dst: TileCoord) -> Option<NetworkChoice> {
        if via == src || via == dst || self.faults.is_faulty(via) {
            return None;
        }
        let first = self.direct_leg(src, via)?;
        let second = self.direct_leg(via, dst)?;
        Some(NetworkChoice::Relay { via, first, second })
    }

    /// The network of a healthy direct leg `from → to`, XY first.
    fn direct_leg(&self, from: TileCoord, to: TileCoord) -> Option<NetworkKind> {
        if self.oracle.xy_connected(from, to) {
            Some(NetworkKind::Xy)
        } else if self.oracle.yx_connected(from, to) {
            Some(NetworkKind::Yx)
        } else {
            None
        }
    }

    /// Builds the full routing table for every ordered healthy pair.
    pub fn build_table(&self) -> RoutingTable {
        let mut entries = HashMap::new();
        let healthy: Vec<TileCoord> = self.faults.healthy_tiles().collect();
        for &s in &healthy {
            for &d in &healthy {
                if s != d {
                    entries.insert((s, d), self.choose(s, d));
                }
            }
        }
        RoutingTable { entries }
    }
}

/// The kernel's materialised per-pair routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    entries: HashMap<(TileCoord, TileCoord), NetworkChoice>,
}

impl RoutingTable {
    /// The decision for a pair, if the pair is in the table.
    pub fn get(&self, src: TileCoord, dst: TileCoord) -> Option<NetworkChoice> {
        self.entries.get(&(src, dst)).copied()
    }

    /// Number of pairs in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts of `(direct XY, direct YX, relayed, disconnected)` pairs —
    /// the balance statistic the kernel aims to keep even.
    pub fn utilization(&self) -> (usize, usize, usize, usize) {
        let mut xy = 0;
        let mut yx = 0;
        let mut relay = 0;
        let mut dead = 0;
        for choice in self.entries.values() {
            match choice {
                NetworkChoice::Direct(NetworkKind::Xy) => xy += 1,
                NetworkChoice::Direct(NetworkKind::Yx) => yx += 1,
                NetworkChoice::Relay { .. } => relay += 1,
                NetworkChoice::Disconnected => dead += 1,
            }
        }
        (xy, yx, relay, dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;
    use wsp_topo::TileArray;

    #[test]
    fn clean_wafer_all_direct_and_balanced() {
        let planner = RoutePlanner::new(FaultMap::none(TileArray::new(16, 16)));
        let table = planner.build_table();
        let (xy, yx, relay, dead) = table.utilization();
        assert_eq!(relay, 0);
        assert_eq!(dead, 0);
        let total = (xy + yx) as f64;
        let balance = xy as f64 / total;
        // Hash balancing should be near 50/50 (Sec. VI: "both the networks
        // are equally utilized").
        assert!(
            (0.45..0.55).contains(&balance),
            "XY share {balance:.3} not balanced"
        );
    }

    #[test]
    fn single_surviving_path_is_used() {
        let array = TileArray::new(8, 8);
        // Fault at (4,0) kills the XY path (row 0 first) from (0,0)→(7,7).
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 0)]));
        let choice = planner.choose(TileCoord::new(0, 0), TileCoord::new(7, 7));
        assert_eq!(choice, NetworkChoice::Direct(NetworkKind::Yx));
        // The reverse direction's XY path also avoids row 0 → both healthy.
        let reverse = planner.choose(TileCoord::new(7, 7), TileCoord::new(0, 0));
        assert!(matches!(reverse, NetworkChoice::Direct(_)));
    }

    #[test]
    fn pair_choice_is_stable() {
        // Packet consistency demands one network per pair: repeated calls
        // must return the same choice.
        let planner = RoutePlanner::new(FaultMap::none(TileArray::new(8, 8)));
        let s = TileCoord::new(1, 2);
        let d = TileCoord::new(6, 5);
        let first = planner.choose(s, d);
        for _ in 0..10 {
            assert_eq!(planner.choose(s, d), first);
        }
    }

    #[test]
    fn colinear_pair_with_blocked_row_gets_relayed() {
        let array = TileArray::new(8, 8);
        // (0,3)→(7,3) same row; block the row in between: both DoR paths
        // (identical for colinear pairs) die, but a relay through another
        // row reconnects them.
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 3)]));
        let choice = planner.choose(TileCoord::new(0, 3), TileCoord::new(7, 3));
        match choice {
            NetworkChoice::Relay { via, .. } => assert!(via.y != 3 || via.x > 4 || via.x < 4),
            other => panic!("expected relay, got {other:?}"),
        }
    }

    #[test]
    fn relay_prefers_minimal_detour() {
        let array = TileArray::new(8, 8);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 3)]));
        let s = TileCoord::new(0, 3);
        let d = TileCoord::new(7, 3);
        if let NetworkChoice::Relay { via, .. } = planner.choose(s, d) {
            // Minimal detour for a blocked row is one row over: 2 extra hops.
            let hops = s.manhattan_distance(via) + via.manhattan_distance(d);
            assert_eq!(hops, s.manhattan_distance(d) + 2);
        } else {
            panic!("expected relay");
        }
    }

    #[test]
    fn faulty_endpoints_are_disconnected() {
        let array = TileArray::new(8, 8);
        let dead = TileCoord::new(2, 2);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [dead]));
        assert_eq!(
            planner.choose(dead, TileCoord::new(5, 5)),
            NetworkChoice::Disconnected
        );
        assert_eq!(
            planner.choose(TileCoord::new(5, 5), dead),
            NetworkChoice::Disconnected
        );
        assert_eq!(
            planner.choose(TileCoord::new(5, 5), TileCoord::new(5, 5)),
            NetworkChoice::Disconnected
        );
    }

    #[test]
    fn fully_walled_tile_is_disconnected() {
        let array = TileArray::new(8, 8);
        let centre = TileCoord::new(3, 3);
        let ring: Vec<TileCoord> = array.neighbors(centre).collect();
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, ring));
        assert_eq!(
            planner.choose(centre, TileCoord::new(0, 0)),
            NetworkChoice::Disconnected
        );
    }

    #[test]
    fn table_covers_all_healthy_ordered_pairs() {
        let array = TileArray::new(6, 6);
        let mut rng = seeded_rng(3);
        let faults = FaultMap::sample_uniform(array, 4, &mut rng);
        let planner = RoutePlanner::new(faults.clone());
        let table = planner.build_table();
        let h = faults.healthy_count();
        assert_eq!(table.len(), h * (h - 1));
        assert!(!table.is_empty());
        let s = faults.healthy_tiles().next().expect("healthy tile");
        let d = faults.healthy_tiles().last().expect("healthy tile");
        assert_eq!(table.get(s, d), Some(planner.choose(s, d)));
        assert_eq!(table.get(s, s), None);
    }

    #[test]
    fn relay_rate_is_small_with_few_faults() {
        // The point of the dual network: relays (which steal core cycles)
        // should be rare at realistic fault counts.
        let planner = {
            let mut rng = seeded_rng(77);
            RoutePlanner::new(FaultMap::sample_uniform(
                TileArray::new(16, 16),
                3,
                &mut rng,
            ))
        };
        let table = planner.build_table();
        let (_, _, relay, dead) = table.utilization();
        let frac = (relay + dead) as f64 / table.len() as f64;
        assert!(frac < 0.03, "relay+dead fraction {frac}");
    }

    #[test]
    fn display_summarises_choice() {
        assert_eq!(
            NetworkChoice::Direct(NetworkKind::Xy).to_string(),
            "direct on X-Y network"
        );
        assert!(NetworkChoice::Relay {
            via: TileCoord::new(1, 1),
            first: NetworkKind::Xy,
            second: NetworkKind::Yx,
        }
        .to_string()
        .contains("relay via"));
        assert_eq!(NetworkChoice::Disconnected.to_string(), "disconnected");
    }
}
