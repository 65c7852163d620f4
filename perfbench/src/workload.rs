//! What every workload hands the measurement loop.

use std::time::Instant;

use wsp_noc::Fabric;
use wsp_telemetry::PhaseProfiler;

use crate::trace::Trace;

/// The checked result of one repetition, read after its timed run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations whose result the benchmark checked.
    pub attempted: u64,
    /// Operations that failed the check.
    pub failed: u64,
    /// Failures the same check reports against a deliberately corrupted
    /// expected value — the negative self-check; must be above 0.
    pub failed_if_corrupted: u64,
    /// Simulated cycles the run covered.
    pub sim_cycles: f64,
    /// Simulated quantities, identical on every repetition of a seed,
    /// traced or not.
    pub counters: Vec<(&'static str, f64)>,
    /// Host time the layers' own phase profilers attributed (traced
    /// repetitions only), in milliseconds.
    pub profile: Vec<(&'static str, f64)>,
}

/// One benchmark workload: generated inputs plus the system built from them.
pub trait Workload {
    /// Input sizes, recorded in the run manifest.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// Builds the simulated system from the generated inputs, replacing
    /// any previous one. Timed as `setup_s`.
    fn setup(&mut self, trace: &mut Trace);
    /// Runs the simulation to completion, returning the host seconds of
    /// each call into the layer (see [`timed`]) in call order.
    fn run(&mut self, trace: &mut Trace) -> Vec<f64>;
    /// Checks the outputs and reads the layers' counters.
    fn outcome(&self) -> Outcome;
    /// Drops the system, outside every timer.
    fn teardown(&mut self);
}

/// Runs `f`, one call into a layer, and appends its host seconds to
/// `chunks`. A run is timed call by call so that `run_s` can take each
/// call's fastest time across repetitions (see `fastest_run`).
pub fn timed<T>(chunks: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    chunks.push(start.elapsed().as_secs_f64());
    out
}

/// The fabric's deterministic counters, named as the benchmark reports them.
pub fn fabric_counters(fabric: &Fabric) -> Vec<(&'static str, f64)> {
    let cycles = fabric.cycle().max(1) as f64;
    let tiles = fabric.array().tile_count() as f64;
    let active_mean = fabric.active_tiles().mean();
    vec![
        ("fabric.ticks_executed", fabric.ticks_executed() as f64),
        ("fabric.link_traversals", fabric.link_traversals() as f64),
        ("fabric.relay_forwards", fabric.relay_forwards() as f64),
        ("fabric.stall_cycles", fabric.total_stall_cycles() as f64),
        (
            "fabric.peak_link_occupancy",
            fabric.peak_link_occupancy() as f64,
        ),
        ("fabric.arena_slots", fabric.arena_slots() as f64),
        ("fabric.active_tiles_mean", active_mean),
        ("fabric.tick_ratio", fabric.ticks_executed() as f64 / cycles),
        // Awake tiles are summed over both networks.
        ("fabric.active_fraction", active_mean / (2.0 * tiles)),
    ]
}

/// The fabric profiler's phases, named as the benchmark reports them.
pub fn fabric_profile(profiler: &PhaseProfiler) -> Vec<(&'static str, f64)> {
    phase_ms(
        profiler,
        &[
            ("fused", "fabric.profile.fused_ms"),
            ("plan", "fabric.profile.plan_ms"),
            ("apply", "fabric.profile.apply_ms"),
        ],
    )
}

/// Milliseconds of each `(phase, reported name)` pair the profiler saw.
pub fn phase_ms(
    profiler: &PhaseProfiler,
    phases: &[(&str, &'static str)],
) -> Vec<(&'static str, f64)> {
    phases
        .iter()
        .filter_map(|&(phase, name)| profiler.stat(phase).map(|stat| (name, stat.ms())))
        .collect()
}
