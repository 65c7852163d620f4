//! Integration tests for the run-artifact observability pipeline: the
//! determinism-digest journal must localise an injected single-tile
//! divergence to the right lane and cycle window, and every artifact
//! (time series, digests) must be identical across stepping modes and
//! thread counts — the property that lets them live inside the
//! byte-compared smoke goldens.

use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_common::parallel::Stepping;
use wsp_telemetry::{first_divergence, DigestJournal, LaneId};
use wsp_tile::isa::{Program, Reg};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// Digest cadence used by the injection test: small enough that the
/// divergence window is tight, large enough to span several steps.
const EVERY: u64 = 16;

/// Builds a 4×4 fabric-model machine where every tile atomically
/// increments a counter on tile (0, 0) — remote traffic on every tile,
/// so both networks and the machine lanes carry real state.
fn build_machine(stepping: Stepping, threads: usize, digest_every: u64) -> MultiTileMachine {
    let array = TileArray::new(4, 4);
    let cfg = SystemConfig::with_array(array).with_latency_model(LatencyModel::Fabric);
    let mut m = MultiTileMachine::new(cfg, FaultMap::none(array));
    m.set_threads(threads);
    m.set_stepping(stepping);
    m.set_sampling(8);
    m.set_digests(digest_every);
    let counter = m.global_address(TileCoord::new(0, 0), 256).expect("mapped");
    let program = Program::builder()
        .ldi(Reg::R1, counter)
        .ldi(Reg::R2, 1)
        .ldi(Reg::R3, 40)
        .ldi(Reg::R0, 0)
        .label("loop")
        .amo_add(Reg::R4, Reg::R1, Reg::R2)
        .addi(Reg::R3, Reg::R3, -1)
        .bne(Reg::R3, Reg::R0, "loop")
        .halt()
        .build()
        .expect("builds");
    for tile in array.tiles() {
        m.load_program(tile, 0, &program).expect("loads");
    }
    m
}

/// Injecting a one-register mutation into a single core mid-run must
/// surface as a divergence in exactly that tile's machine lane, in the
/// first digest window after the mutation — this is the debugging story
/// `wsp-diff digest` sells, reproduced end to end.
#[test]
fn injected_divergence_is_localized_to_tile_and_window() {
    let mut clean = build_machine(Stepping::Dense, 1, EVERY);
    let mut mutated = build_machine(Stepping::Dense, 1, EVERY);
    let victim = TileCoord::new(2, 1);
    let victim_idx = TileArray::new(4, 4).index_of(victim) as u32;
    let mutate_at = 40u64;
    for cycle in 0..200 {
        clean.step().expect("clean steps");
        mutated.step().expect("mutated steps");
        if cycle + 1 == mutate_at {
            // R5 is unused by the program, so execution stays identical
            // on both machines — only the architectural digest differs.
            mutated.core_mut(victim, 0).set_reg(Reg::R5, 0xDEAD_BEEF);
        }
    }
    let d = first_divergence(
        clean.journal().expect("digests on"),
        mutated.journal().expect("digests on"),
    )
    .expect("comparable journals")
    .expect("the mutation must be caught");
    assert_eq!(
        d.lane,
        LaneId::Machine { tile: victim_idx },
        "divergence pinned to the wrong lane: {}",
        d.lane
    );
    let (start, end) = d.window;
    assert!(
        start <= mutate_at && mutate_at <= end,
        "window {start}..={end} does not cover the mutation at cycle {mutate_at}"
    );
    assert_eq!(end - start + 1, EVERY, "window width is the digest cadence");
}

/// Identical runs produce identical journals — the no-divergence path.
#[test]
fn identical_runs_have_identical_digests() {
    let run = || {
        let mut m = build_machine(Stepping::Dense, 1, EVERY);
        for _ in 0..200 {
            m.step().expect("steps");
        }
        m.journal().expect("digests on").to_text()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    let parsed = DigestJournal::parse(&a).expect("roundtrips");
    assert_eq!(parsed.to_text(), a, "text form roundtrips exactly");
}

/// The digest journal and every sampled time series are pure functions
/// of architectural state: wheel stepping (runnable-tile walk plus
/// window skips) at 1 and 8 threads must reproduce the dense
/// single-threaded artifacts byte for byte.
#[test]
fn artifacts_are_identical_across_stepping_and_threads() {
    let run = |stepping, threads| {
        let mut m = build_machine(stepping, threads, EVERY);
        let stats = m.run_until_halt(100_000).expect("halts");
        let journal = m.journal().expect("digests on").to_text();
        let machine_series: Vec<(String, Vec<(u64, f64)>)> = m
            .timeseries()
            .map(|(name, s)| (name.to_string(), s.points().to_vec()))
            .collect();
        let fabric_series: Vec<(String, Vec<(u64, f64)>)> = m
            .fabric()
            .timeseries()
            .map(|(name, s)| (name.to_string(), s.points().to_vec()))
            .collect();
        (stats, journal, machine_series, fabric_series)
    };
    let baseline = run(Stepping::Dense, 1);
    for (stepping, threads) in [
        (Stepping::Dense, 8),
        (Stepping::Wheel, 1),
        (Stepping::Wheel, 8),
    ] {
        assert_eq!(
            baseline,
            run(stepping, threads),
            "artifacts diverged at {stepping:?}/{threads} threads"
        );
    }
}
