//! Pins the order in which a machine cycle issues its cores' remote
//! accesses: tile-major, and within a tile core `cycles % 14` first,
//! wrapping round. Every core of four tiles on a 4×4 fabric-model
//! machine draws tickets from one remote `AmoAdd` counter and stores the
//! ticket it got, so the ticket vector reads out the order in which the
//! requests reached the owner. Same-cycle requests from one tile enter
//! its injection FIFO in issue order, so any change to the per-tile core
//! rotation reorders the tickets. The digest journal pins the cycle-level
//! path that led there.

use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_common::parallel::Stepping;
use wsp_tile::isa::{Program, Reg};
use wsp_topo::{FaultMap, TileArray, TileCoord};

const CORES: usize = 14;
const DRAWS: u32 = 2;

/// Tickets recorded by the per-tile core scan that the per-core bitmask
/// walk replaced, in the order [`run`] returns them: tile (1,0), (0,1), (2,2), (3,1); cores 0..14;
/// draws 0..2.
const TICKETS: [u32; 4 * CORES * DRAWS as usize] = [
    32, 87, 36, 90, 40, 93, 44, 97, 48, 101, 52, 105, 1, 56, 4, 60, 8, 64, 12, 68, 16, 72, 20, 76,
    24, 80, 28, 84, 30, 86, 34, 89, 38, 92, 42, 95, 46, 99, 50, 103, 0, 54, 2, 58, 6, 62, 10, 66,
    14, 70, 18, 74, 22, 78, 26, 82, 35, 94, 39, 98, 43, 102, 47, 106, 51, 108, 55, 110, 3, 59, 7,
    63, 11, 67, 15, 71, 19, 75, 23, 79, 27, 83, 31, 88, 37, 96, 41, 100, 45, 104, 49, 107, 53, 109,
    57, 111, 5, 61, 9, 65, 13, 69, 17, 73, 21, 77, 25, 81, 29, 85, 33, 91,
];

/// The digest journal of the same run (cadence 64).
const JOURNAL: &str = "\
wsp-digest-v1\n\
dims 4 4\n\
every 64\n\
@ 64\n\
n0 0 9250d97a91f8dc3f\n\
n0 1 5fadb0668bb8a1fb\n\
n0 2 d4657f55662f817f\n\
n0 3 d4657f55662f817f\n\
n0 4 e75da2ea12b41612\n\
n0 5 3886cd6f74c8dafa\n\
n0 6 3ea252bc9c5a2ed4\n\
n0 7 d4657f55662f817f\n\
n0 8 5de1919fbc71cca2\n\
n0 9 3ea252bc9c5a2ed4\n\
n0 10 d4657f55662f817f\n\
n0 11 d4657f55662f817f\n\
n0 12 d4657f55662f817f\n\
n0 13 d4657f55662f817f\n\
n0 14 d4657f55662f817f\n\
n0 15 d4657f55662f817f\n\
n1 0 d4658055662f8332\n\
n1 1 d4657f55662f817f\n\
n1 2 d4657f55662f817f\n\
n1 3 d4657f55662f817f\n\
n1 4 b620cb857444ab49\n\
n1 5 117ff774e1867953\n\
n1 6 117ff774e1867953\n\
n1 7 6ad21f6c99dd8306\n\
n1 8 321f4e038ad749b2\n\
n1 9 117ff774e1867953\n\
n1 10 d4657b55662f7ab3\n\
n1 11 d4657f55662f817f\n\
n1 12 d4657f55662f817f\n\
n1 13 d4657f55662f817f\n\
n1 14 d4657f55662f817f\n\
n1 15 d4657f55662f817f\n\
m 0 bf901576c9bdec6c\n\
m 1 cfdc554957fb5ff6\n\
m 2 cdbbf8b6f75e403a\n\
m 3 cdbbf8b6f75e403a\n\
m 4 758000615ffee317\n\
m 5 cdbbf8b6f75e403a\n\
m 6 cdbbf8b6f75e403a\n\
m 7 2472504b25dc3232\n\
m 8 cdbbf8b6f75e403a\n\
m 9 cdbbf8b6f75e403a\n\
m 10 502a438cd8712c5a\n\
m 11 cdbbf8b6f75e403a\n\
m 12 cdbbf8b6f75e403a\n\
m 13 cdbbf8b6f75e403a\n\
m 14 cdbbf8b6f75e403a\n\
m 15 cdbbf8b6f75e403a\n\
@ 128\n\
n0 0 d4658155662f84e5\n\
n0 1 d4657b55662f7ab3\n\
n0 4 5de1929fbc71ce55\n\
n0 5 3ea252bc9c5a2ed4\n\
n1 7 d4657b55662f7ab3\n\
n1 8 a3ac1d5d45053f74\n\
m 0 a5bb4d4a92f1037f\n\
m 1 5a1acbe73e19d772\n\
m 4 b10d9bb2579b5200\n\
m 7 93f0df9f373f4db2\n\
m 10 75cc87b29a149948\n\
";

fn ticket_tiles() -> [TileCoord; 4] {
    [
        TileCoord::new(1, 0),
        TileCoord::new(0, 1),
        TileCoord::new(2, 2),
        TileCoord::new(3, 1),
    ]
}

/// Runs the ticket program and returns every stored ticket (tile-major,
/// then core, then draw) and the digest-journal text.
fn run(stepping: Stepping) -> (Vec<u32>, String) {
    let array = TileArray::new(4, 4);
    let cfg = SystemConfig::with_array(array).with_latency_model(LatencyModel::Fabric);
    let mut m = MultiTileMachine::new(cfg, FaultMap::none(array));
    m.set_stepping(stepping);
    m.set_digests(64);
    let counter = m
        .global_address(TileCoord::new(0, 0), 0x40)
        .expect("mapped");
    for tile in ticket_tiles() {
        for core in 0..CORES {
            let slot = m
                .global_address(tile, 0x100 + 8 * core as u32)
                .expect("mapped");
            let program = Program::builder()
                .ldi(Reg::R1, counter)
                .ldi(Reg::R2, 1)
                .ldi(Reg::R3, slot)
                .ldi(Reg::R5, DRAWS)
                .ldi(Reg::R0, 0)
                .label("draw")
                .amo_add(Reg::R4, Reg::R1, Reg::R2)
                .st(Reg::R4, Reg::R3, 0)
                .addi(Reg::R3, Reg::R3, 4)
                .addi(Reg::R5, Reg::R5, -1)
                .bne(Reg::R5, Reg::R0, "draw")
                .halt()
                .build()
                .expect("builds");
            m.load_program(tile, core, &program).expect("healthy tile");
        }
    }
    m.run_until_halt(100_000).expect("halts");
    let mut tickets = Vec::new();
    for tile in ticket_tiles() {
        for core in 0..CORES {
            for draw in 0..DRAWS {
                let addr = m
                    .global_address(tile, 0x100 + 8 * core as u32 + 4 * draw)
                    .expect("mapped");
                tickets.push(m.read_word(addr).expect("mapped"));
            }
        }
    }
    let journal = m.journal().expect("digests on").to_text();
    (tickets, journal)
}

#[test]
fn remote_issue_order_is_pinned_in_both_stepping_modes() {
    for stepping in [Stepping::Dense, Stepping::Wheel] {
        let (tickets, journal) = run(stepping);
        assert_eq!(tickets, TICKETS, "{stepping:?} tickets");
        assert_eq!(journal, JOURNAL, "{stepping:?} journal");
    }
}
