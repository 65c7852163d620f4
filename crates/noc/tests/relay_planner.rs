//! [`RoutePlanner::choose`] checked against a brute-force reference on
//! every ordered pair of random connected fault maps.
//!
//! The reference decides each pair from the public [`path_is_healthy`]
//! alone, which walks the dimension-ordered path tile by tile, so it
//! shares nothing with the planner's prefix-sum segment oracle or its
//! bounding-box-first relay search:
//!
//! - a pair with at least one healthy direct path must go direct, on a
//!   healthy network (the only one, when just one survives);
//! - otherwise the reference scans every healthy third tile in row-major
//!   order, takes XY before YX on each leg, and keeps the first via with
//!   the fewest total hops — the planner must return exactly that route.
//!
//! Relays whose best via lies outside the src/dst bounding box take the
//! planner's full-scan fallback; the test counts them and requires the
//! generator to reach that path at least once.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use wsp_noc::connectivity::sample_connected_fault_map;
use wsp_noc::routing::path_is_healthy;
use wsp_noc::{NetworkChoice, NetworkKind, RoutePlanner};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// The network of a healthy direct leg `from → to`, XY first.
fn reference_leg(faults: &FaultMap, from: TileCoord, to: TileCoord) -> Option<NetworkKind> {
    [NetworkKind::Xy, NetworkKind::Yx]
        .into_iter()
        .find(|&net| path_is_healthy(faults, from, to, net))
}

/// The brute-force relay choice for a pair with no healthy direct path:
/// the first healthy via in row-major order with the fewest total hops.
fn reference_relay(faults: &FaultMap, src: TileCoord, dst: TileCoord) -> NetworkChoice {
    let mut best: Option<(u32, NetworkChoice)> = None;
    for via in faults.array().tiles() {
        if via == src || via == dst || faults.is_faulty(via) {
            continue;
        }
        let (Some(first), Some(second)) = (
            reference_leg(faults, src, via),
            reference_leg(faults, via, dst),
        ) else {
            continue;
        };
        let hops = src.manhattan_distance(via) + via.manhattan_distance(dst);
        if best.is_none_or(|(best_hops, _)| hops < best_hops) {
            best = Some((hops, NetworkChoice::Relay { via, first, second }));
        }
    }
    best.map_or(NetworkChoice::Disconnected, |(_, choice)| choice)
}

/// Checks every ordered healthy pair of `faults`; returns how many pairs
/// relay through a via outside their bounding box.
fn check_every_pair(faults: &FaultMap) -> Result<usize, TestCaseError> {
    let planner = RoutePlanner::new(faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let mut out_of_box = 0;
    for &src in &healthy {
        for &dst in &healthy {
            if src == dst {
                continue;
            }
            let choice = planner.choose(src, dst);
            let xy = path_is_healthy(faults, src, dst, NetworkKind::Xy);
            let yx = path_is_healthy(faults, src, dst, NetworkKind::Yx);
            if xy || yx {
                let NetworkChoice::Direct(net) = choice else {
                    return Err(TestCaseError::fail(format!(
                        "{src}->{dst}: healthy direct path, planner chose {choice:?}"
                    )));
                };
                prop_assert!(
                    path_is_healthy(faults, src, dst, net),
                    "{src}->{dst}: direct on broken {net:?}"
                );
                continue;
            }
            let expected = reference_relay(faults, src, dst);
            prop_assert_eq!(choice, expected, "{}->{}", src, dst);
            if let NetworkChoice::Relay { via, .. } = expected {
                let hops = src.manhattan_distance(via) + via.manhattan_distance(dst);
                if hops > src.manhattan_distance(dst) {
                    out_of_box += 1;
                }
            }
        }
    }
    Ok(out_of_box)
}

/// Pairs that took the out-of-box fallback across all property cases.
static OUT_OF_BOX: AtomicUsize = AtomicUsize::new(0);

proptest! {
    /// Arrays from 3×3 to 16×12 with 0–15% faulty tiles, each map
    /// resampled until its healthy region is connected.
    fn planner_matches_the_reference(
        cols in 3u16..17,
        rows in 3u16..13,
        percent in 0usize..16,
        seed in any::<u64>(),
    ) {
        let array = TileArray::new(cols, rows);
        let count = array.tile_count() * percent / 100;
        if let Ok((faults, _)) = sample_connected_fault_map(array, count, seed, 64) {
            let out_of_box = check_every_pair(&faults)?;
            OUT_OF_BOX.fetch_add(out_of_box, Ordering::Relaxed);
        }
    }
}

#[test]
fn box_first_relay_search_equals_the_full_scan() {
    planner_matches_the_reference();
    assert!(
        OUT_OF_BOX.load(Ordering::Relaxed) > 0,
        "no generated pair exercised the out-of-box fallback"
    );
}
