//! Property test for the PDN solver: the SOR sweep must land within a
//! microvolt of the exact nodal solution, computed here by a dense direct
//! solve of the same equations.

use proptest::prelude::*;
use wsp_common::units::{Amps, Ohms, Volts};
use wsp_pdn::{LoadModel, PdnConfig};
use wsp_topo::TileArray;

const SUPPLY_V: f64 = 2.5;
const SHEET_OHMS: f64 = 2e-3;
const EDGE_OHMS: f64 = 1e-3;

/// The exact node voltages of a `cols × rows` grid drawing `amps` per tile,
/// supplied from `sides` (\[north, south, east, west\]): the nodal
/// equations `G·v = b` assembled densely and solved by Gaussian elimination
/// with partial pivoting.
fn direct_solve(cols: u16, rows: u16, amps: f64, sides: [bool; 4]) -> Vec<f64> {
    let (c, r) = (usize::from(cols), usize::from(rows));
    let n = c * r;
    let (g_link, g_edge) = (1.0 / SHEET_OHMS, 1.0 / EDGE_OHMS);
    let mut g = vec![vec![0.0f64; n]; n];
    let mut b = vec![-amps; n];
    for y in 0..r {
        for x in 0..c {
            let i = y * c + x;
            let mut link = |j: usize| {
                g[i][i] += g_link;
                g[i][j] -= g_link;
            };
            if x > 0 {
                link(i - 1);
            }
            if x + 1 < c {
                link(i + 1);
            }
            if y > 0 {
                link(i - c);
            }
            if y + 1 < r {
                link(i + c);
            }
            let on_edge = (sides[0] && y == 0)
                || (sides[1] && y == r - 1)
                || (sides[2] && x == c - 1)
                || (sides[3] && x == 0);
            if on_edge {
                g[i][i] += g_edge;
                b[i] += g_edge * SUPPLY_V;
            }
        }
    }
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&p, &q| g[p][col].abs().total_cmp(&g[q][col].abs()))
            .expect("non-empty pivot column");
        g.swap(col, pivot);
        b.swap(col, pivot);
        let (upper, lower) = g.split_at_mut(col + 1);
        let pivot_row = &upper[col];
        for (offset, row) in lower.iter_mut().enumerate() {
            let f = row[col] / pivot_row[col];
            if f != 0.0 {
                for (x, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= f * p;
                }
                b[col + 1 + offset] -= f * b[col];
            }
        }
    }
    let mut v = vec![0.0f64; n];
    for row in (0..n).rev() {
        let tail: f64 = (row + 1..n).map(|k| g[row][k] * v[k]).sum();
        v[row] = (b[row] - tail) / g[row][row];
    }
    v
}

proptest! {
    /// SOR agrees with the direct solve within a microvolt on every tile,
    /// for any grid shape up to 12×12, any load from 10 to 200 mA per tile
    /// and any non-empty set of supply sides.
    #[test]
    fn sor_matches_direct_solve_within_a_microvolt(
        cols in 1u16..=12,
        rows in 1u16..=12,
        milliamps in 10.0f64..200.0,
        side_mask in 1u8..16,
    ) {
        let sides = [0, 1, 2, 3].map(|bit| side_mask & (1 << bit) != 0);
        let amps = milliamps / 1e3;
        let sol = PdnConfig::new(
            TileArray::new(cols, rows),
            Volts(SUPPLY_V),
            Ohms(SHEET_OHMS),
            Ohms(EDGE_OHMS),
            LoadModel::ConstantCurrent(Amps(amps)),
            sides,
        )
        .solve()
        .expect("SOR converges");
        let exact = direct_solve(cols, rows, amps, sides);
        for ((tile, v), want) in sol.voltages().zip(exact) {
            prop_assert!(
                (v.value() - want).abs() < 1e-6,
                "{cols}x{rows}, sides {sides:?}, tile {tile}: SOR {} vs direct {want}",
                v.value()
            );
        }
    }
}
