//! Cycle-level ISA execution on the full wafer through
//! `waferscale::MultiTileMachine`: every used core sums a strip of words
//! held by a nearby partner tile and stores the sum in its own tile.
//! Strip lengths are log-uniform, so a busy start where nearly every tile
//! runs gives way to a long tail where few do.

use rand::RngExt as _;
use waferscale::{MachineStats, MultiTileMachine, RunMachineError, SystemConfig};
use wsp_common::seeded_rng;
use wsp_tile::isa::{Program, Reg};
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::trace::Trace;
use crate::workload::{fabric_counters, fabric_profile, phase_ms, timed, Outcome, Workload};

/// Wafer edge, in tiles.
const WAFER: u16 = 32;
/// Cores per tile that run a program (the others stay idle).
const CORES_USED: usize = 4;
/// Strips of data each tile holds; each core reads one of a partner's.
const STRIPS_PER_TILE: usize = 4;
/// Shortest strip, in words.
const MIN_STRIP_WORDS: f64 = 4.0;
/// Longest strip, in words; every strip slot holds this many.
const MAX_STRIP_WORDS: usize = 64;
/// Largest Manhattan distance from a core's tile to its partner.
const PARTNER_RADIUS: i32 = 2;
/// Byte offset of the per-core result words in each tile's region.
const RESULT_OFFSET: u32 = 0x1_0000;
/// Cycle budget; the run halts in under a tenth of it.
const MAX_CYCLES: u64 = 1_000_000;
/// Machine steps per `run_until_halt` call in untraced runs.
const CHUNK_STEPS: u64 = 32;

/// One core's generated job.
struct CoreJob {
    tile: TileCoord,
    core: usize,
    partner: TileCoord,
    strip: usize,
    words: usize,
    expected: u32,
}

/// Seeded strips, seeded partners, and the sums the benchmark expects.
pub struct MachineWorkload {
    array: TileArray,
    /// Row-major per-tile strip data, `STRIPS_PER_TILE × MAX_STRIP_WORDS` words.
    data: Vec<Vec<u32>>,
    jobs: Vec<CoreJob>,
    machine: Option<MultiTileMachine>,
    stats: Option<MachineStats>,
}

impl MachineWorkload {
    /// Generates every input from `seed`.
    pub fn new(seed: u64) -> Self {
        let array = TileArray::new(WAFER, WAFER);
        let mut rng = seeded_rng(seed);
        let data: Vec<Vec<u32>> = (0..array.tile_count())
            .map(|_| {
                (0..STRIPS_PER_TILE * MAX_STRIP_WORDS)
                    .map(|_| rng.random_range(0..1u32 << 24))
                    .collect()
            })
            .collect();
        let mut jobs = Vec::with_capacity(array.tile_count() * CORES_USED);
        for tile in array.tiles() {
            for core in 0..CORES_USED {
                let partner = loop {
                    let dx = rng.random_range(-PARTNER_RADIUS..=PARTNER_RADIUS);
                    let dy = rng.random_range(-PARTNER_RADIUS..=PARTNER_RADIUS);
                    let (x, y) = (i32::from(tile.x) + dx, i32::from(tile.y) + dy);
                    let in_range = (1..=PARTNER_RADIUS).contains(&(dx.abs() + dy.abs()));
                    if in_range
                        && (0..i32::from(WAFER)).contains(&x)
                        && (0..i32::from(WAFER)).contains(&y)
                    {
                        break TileCoord::new(x as u16, y as u16);
                    }
                };
                let strip = rng.random_range(0..STRIPS_PER_TILE);
                let span = (MAX_STRIP_WORDS as f64 / MIN_STRIP_WORDS).log2();
                let words = (MIN_STRIP_WORDS * rng.random_range(0.0..span).exp2()) as usize;
                let expected = data[array.index_of(partner)][strip * MAX_STRIP_WORDS..][..words]
                    .iter()
                    .fold(0u32, |sum, &w| sum.wrapping_add(w));
                jobs.push(CoreJob {
                    tile,
                    core,
                    partner,
                    strip,
                    words,
                    expected,
                });
            }
        }
        MachineWorkload {
            array,
            data,
            jobs,
            machine: None,
            stats: None,
        }
    }

    /// Cores whose stored sum differs from `expected(job)`.
    fn mismatches(&self, expected: impl Fn(usize, &CoreJob) -> u32) -> u64 {
        let machine = self.machine.as_ref().expect("set up before checking");
        let mut failed = 0;
        for (i, job) in self.jobs.iter().enumerate() {
            let addr = result_address(machine, job);
            if machine.read_word(addr) != Ok(expected(i, job)) {
                failed += 1;
            }
        }
        failed
    }
}

fn result_address(machine: &MultiTileMachine, job: &CoreJob) -> u32 {
    machine
        .global_address(job.tile, RESULT_OFFSET + 4 * job.core as u32)
        .expect("result word is mapped")
}

/// The strip-sum program of one core.
fn program(machine: &MultiTileMachine, job: &CoreJob) -> Program {
    let base = machine
        .global_address(job.partner, (4 * job.strip * MAX_STRIP_WORDS) as u32)
        .expect("strip is mapped");
    Program::builder()
        .ldi(Reg::R1, base)
        .ldi(Reg::R5, 0)
        .ldi(Reg::R3, job.words as u32)
        .ldi(Reg::R0, 0)
        .label("sum")
        .ld(Reg::R2, Reg::R1, 0)
        .add(Reg::R5, Reg::R5, Reg::R2)
        .addi(Reg::R1, Reg::R1, 4)
        .addi(Reg::R3, Reg::R3, -1)
        .bne(Reg::R3, Reg::R0, "sum")
        .ldi(Reg::R4, result_address(machine, job))
        .st(Reg::R5, Reg::R4, 0)
        .halt()
        .build()
        .expect("strip-sum program builds")
}

impl Workload for MachineWorkload {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("wafer_tiles", self.array.tile_count() as u64),
            ("cores_used", self.jobs.len() as u64),
            ("strip_words_max", MAX_STRIP_WORDS as u64),
            (
                "strip_words_total",
                self.jobs.iter().map(|j| j.words as u64).sum(),
            ),
            ("partner_radius", PARTNER_RADIUS as u64),
        ]
    }

    fn setup(&mut self, trace: &mut Trace) {
        let array = self.array;
        let mut machine = trace.span("machine.new", |_| {
            MultiTileMachine::new(SystemConfig::with_array(array), FaultMap::none(array))
        });
        machine.set_profiling(trace.enabled());
        trace.span("machine.load", |_| {
            for (idx, words) in self.data.iter().enumerate() {
                let base = machine
                    .global_address(array.coord_of(idx), 0)
                    .expect("tile is healthy");
                for (i, &word) in words.iter().enumerate() {
                    machine
                        .write_word(base + 4 * i as u32, word)
                        .expect("strip word is mapped");
                }
            }
            for job in &self.jobs {
                let program = program(&machine, job);
                machine
                    .load_program(job.tile, job.core, &program)
                    .expect("program loads on a healthy tile");
            }
        });
        self.machine = Some(machine);
    }

    fn run(&mut self, trace: &mut Trace) -> Vec<f64> {
        let machine = self.machine.as_mut().expect("set up before run");
        // Traced runs take one machine step per call so that each step is
        // a span; `run_until_halt(n)` advances at most `n` steps and
        // reports whether every core has halted.
        let chunk = if trace.enabled() { 1 } else { CHUNK_STEPS };
        let mut chunks = Vec::new();
        let stats = trace.span("machine.run", |t| {
            for _ in 0..MAX_CYCLES / chunk {
                let result = t.span("machine.step", |_| {
                    timed(&mut chunks, || machine.run_until_halt(chunk))
                });
                match result {
                    Ok(stats) => return stats,
                    Err(RunMachineError::CycleLimit { .. }) => {}
                    Err(e) => panic!("strip-sum run faulted: {e}"),
                }
            }
            panic!("strip sums did not halt within {MAX_CYCLES} steps")
        });
        self.stats = Some(stats);
        chunks
    }

    fn outcome(&self) -> Outcome {
        let machine = self.machine.as_ref().expect("set up before outcome");
        let stats = self.stats.expect("run before outcome");
        let tiles = self.array.tile_count() as f64;
        let mut counters = vec![
            ("machine.sim_cycles", stats.cycles as f64),
            ("machine.retired", stats.retired as f64),
            ("machine.remote_accesses", stats.remote_accesses as f64),
            (
                "machine.network_stall_cycles",
                stats.network_stall_cycles as f64,
            ),
            ("machine.bank_conflicts", stats.bank_conflicts as f64),
            (
                "machine.runnable_fraction",
                machine.runnable_tiles().mean() / tiles,
            ),
            (
                "machine.mean_remote_latency_cycles",
                stats.mean_remote_latency(),
            ),
        ];
        counters.extend(fabric_counters(machine.fabric()));
        let mut profile = fabric_profile(machine.fabric().profiler());
        profile.extend(phase_ms(
            machine.profiler(),
            &[
                ("machine.tiles", "machine.profile.tiles_ms"),
                ("machine.commit", "machine.profile.commit_ms"),
                ("machine.fabric", "machine.profile.fabric_ms"),
                ("machine.fabric.memory", "machine.profile.fabric_memory_ms"),
            ],
        ));
        Outcome {
            attempted: self.jobs.len() as u64,
            failed: self.mismatches(|_, job| job.expected),
            failed_if_corrupted: self
                .mismatches(|i, job| job.expected.wrapping_add(u32::from(i == 0))),
            sim_cycles: stats.cycles as f64,
            counters,
            profile,
        }
    }

    fn teardown(&mut self) {
        self.machine = None;
        self.stats = None;
    }
}
