//! The multi-tile machine: ISA-level execution over the unified shared
//! memory (Sec. II: "any core on any tile can directly access the
//! globally shared memory across the entire waferscale system").
//!
//! Each tile contributes its four global banks to one flat address space:
//! `GLOBAL_BASE + tile_index × 512 KiB + offset`. A core load/store that
//! decodes to its own tile arbitrates the local crossbar as usual; one
//! that decodes to a *remote* tile becomes a request packet on the shared
//! [`wsp_noc::Fabric`] — riding whichever network the kernel's
//! [`RoutePlanner`] picked, with the response returning on the
//! complementary network — and the core stalls until the response packet
//! is actually delivered. The access itself (including atomic
//! fetch-and-add) is performed at the owner when the request arrives,
//! serialised by the owner's bank port exactly like a local AMO, so
//! congestion, hot-spot queueing, and relay-tile forwarding cycles are
//! all visible in the run time.
//!
//! [`LatencyModel::Analytic`] keeps the old closed-form estimate
//! (`2 · hops · CYCLES_PER_HOP + REMOTE_OVERHEAD`) for fast runs where
//! contention is known not to matter.
//!
//! This is the model the FPGA emulation validated: programs written
//! against one shared address space, running unchanged while the fault
//! map, the distance, and now the *traffic* decide the latency of each
//! access.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasherDefault;

use wsp_common::parallel::Stepping;
use wsp_noc::{Fabric, FabricPacket, NetworkChoice, PacketKind, RoutePlanner};
use wsp_telemetry::{
    DigestJournal, Fnv1a, Histogram, LaneId, NoopSink, PhaseProfiler, Sink, TimeSeries,
};
use wsp_tile::{
    isa::Reg,
    memory::{bank_of_offset, GLOBAL_REGION_BYTES},
    AccessMemoryError, BusAccess, BusGrant, CoreSim, CoreState, MemTiming, MemoryChiplet,
    MemoryModel, MemoryModelKind, PendingAccess, StepError, CORES_PER_TILE, GLOBAL_BASE,
};
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::config::{LatencyModel, SystemConfig};

/// Cycles per network hop in the analytic model (request and response
/// each pay this).
const CYCLES_PER_HOP: u64 = 2;

/// Fixed injection + ejection overhead per remote access in the analytic
/// model.
const REMOTE_OVERHEAD: u64 = 6;

/// Router FIFO depth of the machine's fabric (matches the synthetic
/// traffic simulator's default).
const FABRIC_QUEUE_CAPACITY: usize = 4;

// A tile's cores are one bit each in the `u16` liveness masks.
const _: () = assert!(CORES_PER_TILE <= 16);

/// A remote access in flight on the fabric, keyed by its request packet
/// id. The owner fills `result` when it services the request; the value
/// travels back with the response packet's id.
#[derive(Debug, Clone, Copy)]
struct RemoteOp {
    tile_idx: usize,
    core_idx: usize,
    access: BusAccess,
    result: Option<u32>,
}

impl RemoteOp {
    fn addr(&self) -> u32 {
        match self.access {
            BusAccess::Load { addr }
            | BusAccess::Store { addr, .. }
            | BusAccess::AmoAdd { addr, .. } => addr,
        }
    }
}

/// The machine's running shared-memory access counters; the matching
/// [`MachineStats`] fields document each one.
#[derive(Debug, Default, Clone, Copy)]
struct AccessCounters {
    local_accesses: u64,
    remote_accesses: u64,
    network_stall_cycles: u64,
    remote_latency_total: u64,
    bank_conflicts: u64,
}

/// Execution statistics of a machine run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles stepped.
    pub cycles: u64,
    /// Instructions retired across every core.
    pub retired: u64,
    /// Shared-memory accesses that resolved to the issuing tile.
    pub local_accesses: u64,
    /// Shared-memory accesses that crossed the network.
    pub remote_accesses: u64,
    /// Core-cycles spent stalled on remote accesses (issue to grant).
    pub network_stall_cycles: u64,
    /// Sum of end-to-end remote-access latencies, in cycles; divide by
    /// [`MachineStats::remote_accesses`] (or use
    /// [`MachineStats::mean_remote_latency`]) for the average round trip.
    pub remote_latency_total: u64,
    /// Packets re-injected at an intermediate tile because both direct
    /// DoR paths were broken (fabric model only).
    pub relay_forwards: u64,
    /// Cycles any fabric link spent blocked on a full downstream FIFO
    /// (fabric model only).
    pub link_stall_cycles: u64,
    /// Deepest router FIFO observed anywhere in the fabric (fabric model
    /// only).
    pub peak_link_occupancy: usize,
    /// Bank-port arbitration denials: cycles an access (local, or a
    /// remote request arriving at its owner) lost the crossbar and had to
    /// retry.
    pub bank_conflicts: u64,
}

impl MachineStats {
    /// Mean end-to-end remote-access latency in cycles (0 when no remote
    /// access completed).
    pub fn mean_remote_latency(&self) -> f64 {
        if self.remote_accesses == 0 {
            0.0
        } else {
            self.remote_latency_total as f64 / self.remote_accesses as f64
        }
    }
}

/// A machine of many tiles executing ISA programs over one global
/// address space.
///
/// # Examples
///
/// ```
/// use waferscale::{MultiTileMachine, SystemConfig};
/// use wsp_tile::isa::{Program, Reg};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::with_array(TileArray::new(2, 2));
/// let mut machine = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
/// // Core 0 of tile (0,0) stores 99 into tile (1,1)'s memory.
/// let target = machine.global_address(wsp_topo::TileCoord::new(1, 1), 0)?;
/// let program = Program::builder()
///     .ldi(Reg::R1, target)
///     .ldi(Reg::R2, 99)
///     .st(Reg::R2, Reg::R1, 0)
///     .halt()
///     .build()?;
/// machine.load_program(wsp_topo::TileCoord::new(0, 0), 0, &program)?;
/// machine.run_until_halt(10_000)?;
/// assert_eq!(machine.read_word(target)?, 99);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MultiTileMachine {
    config: SystemConfig,
    faults: FaultMap,
    planner: RoutePlanner,
    cores: Vec<Vec<CoreSim>>,
    memories: Vec<MemoryChiplet>,
    /// Per-tile memory-timing backend (the `--memory` fidelity axis).
    /// Built from [`SystemConfig::memory_model`]; every shared access —
    /// local, owner-side remote service, analytic — arbitrates through
    /// it under the execute-then-stall contract.
    mem_models: Vec<Box<dyn MemoryModel>>,
    pending: Vec<Vec<Option<PendingAccess>>>,
    fabric: Fabric,
    /// Remote ops in flight, by request packet id. Keyed through the
    /// seedless [`Fnv1a`] hasher, so when the map grows — and allocates —
    /// is the same on every run.
    in_flight: HashMap<u64, RemoteOp, BuildHasherDefault<Fnv1a>>,
    /// Request packets delivered at their owner but still waiting for a
    /// bank port (the owner's cores compete through the same crossbar).
    deferred: VecDeque<FabricPacket>,
    /// Reusable per-cycle fabric delivery buffer
    /// ([`Fabric::tick_into`] clears it each call).
    delivered_buf: Vec<FabricPacket>,
    /// Remote requests the fabric-model tile walk recorded this cycle,
    /// injected after the walk in walk order; drained, never shrunk.
    intents: Vec<InjectIntent>,
    cycles: u64,
    counters: AccessCounters,
    /// Event-wheel stepping over the runnable-tile set (default) or the
    /// dense reference sweep. Bit-identical either way.
    stepping: Stepping,
    /// Per-tile bitmask of the cores in [`CoreState::Running`] (bit `c`
    /// is core `c`).
    running: Vec<u16>,
    /// Per-tile bitmask of the running cores blocked on an in-flight
    /// remote op (fabric model). Such a core cannot retire, issue, or
    /// touch memory, so the wheel walk steps only `running & !blocked`.
    blocked: Vec<u16>,
    /// Cycle the fabric-model walk last stepped each core, tile-major
    /// (`tile * CORES_PER_TILE + core`). Read only for a core holding a
    /// remote op, which was stepped on the cycle it issued: the wheel walk
    /// leaves it unstepped while blocked, and it replays `now - last - 1`
    /// stall cycles when next stepped.
    last_stepped: Vec<u64>,
    /// Running cores across the machine — the O(1) `run_until_halt` test.
    running_cores: usize,
    /// Set when [`MultiTileMachine::core_mut`] hands out direct core
    /// access; liveness counters are recomputed on the next step.
    liveness_dirty: bool,
    /// Per-cycle runnable-tile counts, sampled in both stepping modes so
    /// the exported telemetry is independent of the mode.
    runnable_tiles: Histogram,
    /// Telemetry sink; [`NoopSink`] by default. Remote completions record
    /// a latency histogram sample, bank denials bump a counter, and
    /// [`MultiTileMachine::run_until_halt`] emits a `machine` run span.
    sink: Box<dyn Sink>,
    /// Sampling cadence for the machine's gauge series (0 = off).
    sample_every: u64,
    /// Per-cycle gauge series `(name, series)`: runnable tiles, in-flight
    /// remote ops, and (stateful memory backends only) the cumulative
    /// row-hit rate. Pure functions of architectural state, so the series
    /// are bit-identical across stepping modes.
    samples: [(&'static str, TimeSeries); 3],
    /// Wall-clock phase attribution: `machine.tiles`, `machine.commit`,
    /// `machine.fabric`, and `machine.fabric.memory`. The fabric's own
    /// `fused` tick phase lives in its profiler and is re-rooted on
    /// export.
    profiler: PhaseProfiler,
}

impl MultiTileMachine {
    /// Builds a machine over the healthy tiles of `faults` (faulty tiles
    /// have no cores and serve no memory).
    ///
    /// # Panics
    ///
    /// Panics if the fault map covers a different array than `config`.
    pub fn new(config: SystemConfig, faults: FaultMap) -> Self {
        assert_eq!(
            faults.array(),
            config.array(),
            "fault map must match the configuration"
        );
        let tiles = config.array().tile_count();
        let cores_per_tile = config.cores_per_tile();
        MultiTileMachine {
            config,
            planner: RoutePlanner::new(faults.clone()),
            fabric: Fabric::new(faults.array(), FABRIC_QUEUE_CAPACITY),
            faults,
            cores: (0..tiles)
                .map(|_| (0..cores_per_tile).map(|_| CoreSim::new()).collect())
                .collect(),
            memories: (0..tiles).map(|_| MemoryChiplet::new()).collect(),
            mem_models: (0..tiles).map(|_| config.memory_model().build()).collect(),
            pending: (0..tiles).map(|_| vec![None; cores_per_tile]).collect(),
            in_flight: HashMap::default(),
            deferred: VecDeque::new(),
            delivered_buf: Vec::new(),
            intents: Vec::new(),
            cycles: 0,
            counters: AccessCounters::default(),
            stepping: Stepping::default(),
            running: vec![0; tiles],
            blocked: vec![0; tiles],
            last_stepped: vec![0; tiles * CORES_PER_TILE],
            running_cores: 0,
            liveness_dirty: false,
            runnable_tiles: Histogram::new(),
            sink: Box::new(NoopSink),
            sample_every: 0,
            samples: Self::make_samples(0),
            profiler: PhaseProfiler::new(false),
        }
    }

    /// The machine's sampled gauge series at cadence `every`.
    fn make_samples(every: u64) -> [(&'static str, TimeSeries); 3] {
        [
            ("machine.runnable_tiles", TimeSeries::new(every)),
            ("machine.in_flight", TimeSeries::new(every)),
            ("machine.memory.row_hit_rate", TimeSeries::new(every)),
        ]
    }

    /// Selects how the machine (and its fabric) visit tiles each cycle
    /// (default: [`Stepping::Wheel`]). Results are bit-identical in
    /// either mode.
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
        self.fabric.set_stepping(stepping);
    }

    /// The current stepping mode.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Per-cycle runnable-tile counts sampled so far — a pure function of
    /// core/pending state, identical in either stepping mode.
    pub fn runnable_tiles(&self) -> &Histogram {
        &self.runnable_tiles
    }

    /// Installs a telemetry sink for machine-level events (remote-latency
    /// histogram, bank-conflict counter, run spans). Fabric-level link
    /// telemetry is installed separately via
    /// [`MultiTileMachine::fabric_mut`].
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// Enables per-cycle gauge sampling every `every` cycles for both the
    /// machine and its fabric (0 = off, the default). Resets previously
    /// collected series. Sampled values are pure functions of
    /// architectural state and land in the deterministic bench report.
    pub fn set_sampling(&mut self, every: u64) {
        self.sample_every = every;
        self.samples = Self::make_samples(every);
        self.fabric.set_sampling(every);
    }

    /// Sampling cadence in cycles (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The machine's collected gauge series as `(name, series)` pairs.
    pub fn timeseries(&self) -> impl Iterator<Item = (&'static str, &TimeSeries)> {
        self.samples.iter().map(|(name, s)| (*name, s))
    }

    /// Enables determinism digests every `every` cycles (0 = off). The
    /// journal lives in the fabric (machine and fabric share one cycle
    /// domain); every window fingerprints each router's queue state and
    /// each tile's architectural state (cores, pending slots, memory-model
    /// timing). Digests are only recorded under [`LatencyModel::Fabric`] —
    /// the analytic model never ticks the fabric clock.
    pub fn set_digests(&mut self, every: u64) {
        self.fabric.set_digests(every);
    }

    /// The determinism-digest journal recorded so far, if digests are on.
    pub fn journal(&self) -> Option<&DigestJournal> {
        self.fabric.journal()
    }

    /// Turns wall-clock phase profiling on or off, for the machine's own
    /// phases and the fabric's tick.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
        self.fabric.set_profiling(on);
    }

    /// The machine's accumulated phase timings (excluding the fabric's;
    /// see [`MultiTileMachine::export_profile`] for the merged export).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Exports every phase timing as `wall.profile.*` gauges: the
    /// machine's own phases plus the fabric's, re-rooted under
    /// `machine.fabric.` so the rollup sees one tree.
    pub fn export_profile(&self, sink: &mut dyn Sink) {
        self.profiler.export(sink, "");
        self.fabric.export_profile(sink, "machine.fabric.");
    }

    /// Mutable access to the shared fabric, e.g. to install its sink.
    #[inline]
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The shared network fabric (idle under
    /// [`LatencyModel::Analytic`]).
    #[inline]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The global byte address of `offset` within `tile`'s shared region.
    ///
    /// # Errors
    ///
    /// Returns an error when the tile is faulty or the offset leaves the
    /// 512 KiB global region (misalignment is caught at access time).
    pub fn global_address(&self, tile: TileCoord, offset: u32) -> Result<u32, AccessMemoryError> {
        if self.faults.is_faulty(tile) || offset as usize >= GLOBAL_REGION_BYTES {
            return Err(AccessMemoryError::OutOfRange { addr: offset });
        }
        let index = self.faults.array().index_of(tile) as u32;
        Ok(GLOBAL_BASE + index * GLOBAL_REGION_BYTES as u32 + offset)
    }

    /// Loads a program into one core of one tile.
    ///
    /// # Errors
    ///
    /// Returns an error for faulty tiles or core indices out of range.
    pub fn load_program(
        &mut self,
        tile: TileCoord,
        core: usize,
        program: &wsp_tile::isa::Program,
    ) -> Result<(), LoadMachineError> {
        if self.faults.is_faulty(tile) {
            return Err(LoadMachineError::FaultyTile { tile });
        }
        let idx = self.faults.array().index_of(tile);
        let slot = self.cores[idx]
            .get_mut(core)
            .ok_or(LoadMachineError::NoSuchCore { tile, core })?;
        let was_running = slot.state() == CoreState::Running;
        slot.load_program(program);
        if !was_running && slot.state() == CoreState::Running {
            self.running[idx] |= 1 << core;
            self.running_cores += 1;
        }
        Ok(())
    }

    /// Access to one core for argument setup / result readout.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range tiles or cores.
    pub fn core_mut(&mut self, tile: TileCoord, core: usize) -> &mut CoreSim {
        let idx = self.faults.array().index_of(tile);
        // The caller may flip core state directly; recount liveness before
        // the next step so the runnable-tile walk never skips a woken tile.
        self.liveness_dirty = true;
        &mut self.cores[idx][core]
    }

    /// Host read of a global word.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn read_word(&self, addr: u32) -> Result<u32, AccessMemoryError> {
        let (tile_idx, offset) = self.decode(addr)?;
        self.memories[tile_idx].read_word(offset)
    }

    /// Host write of a global word.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), AccessMemoryError> {
        let (tile_idx, offset) = self.decode(addr)?;
        self.memories[tile_idx].write_word(offset, value)
    }

    /// Bytes of simulated SRAM that `tile` holds in allocated pages: its
    /// memory chiplet plus its cores' private SRAM. Pages are allocated on
    /// first write, so this is 0 for a tile nothing has stored to.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range tiles.
    pub fn resident_sram_bytes(&self, tile: TileCoord) -> usize {
        let idx = self.faults.array().index_of(tile);
        self.memories[idx].resident_bytes()
            + self.cores[idx]
                .iter()
                .map(CoreSim::resident_bytes)
                .sum::<usize>()
    }

    /// Decodes a global address to `(tile index, bank offset)`.
    fn decode(&self, addr: u32) -> Result<(usize, u32), AccessMemoryError> {
        if addr < GLOBAL_BASE {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        let off = addr - GLOBAL_BASE;
        let tile_idx = (off as usize) / GLOBAL_REGION_BYTES;
        if tile_idx >= self.faults.array().tile_count() {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        let tile = self.faults.array().coord_of(tile_idx);
        if self.faults.is_faulty(tile) {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        Ok((tile_idx, off % GLOBAL_REGION_BYTES as u32))
    }

    /// Whether any core is still running.
    pub fn any_running(&self) -> bool {
        self.cores
            .iter()
            .flatten()
            .any(|c| c.state() == CoreState::Running)
    }

    /// Recomputes the per-tile liveness masks from scratch after a
    /// caller mutated cores through [`MultiTileMachine::core_mut`].
    fn refresh_liveness(&mut self) {
        self.running_cores = 0;
        for (t, (tile_cores, slots)) in self.cores.iter().zip(&self.pending).enumerate() {
            let (mut running, mut blocked) = (0u16, 0u16);
            for (c, (core, slot)) in tile_cores.iter().zip(slots).enumerate() {
                if core.state() == CoreState::Running {
                    running |= 1 << c;
                }
                if matches!(slot, Some(PendingAccess::InFlight { .. })) {
                    blocked |= 1 << c;
                }
            }
            self.running[t] = running;
            self.blocked[t] = blocked;
            self.running_cores += running.count_ones() as usize;
        }
        self.liveness_dirty = false;
    }

    /// Tiles with at least one running core that is not blocked on an
    /// in-flight remote op — the per-cycle runnable-tile sample.
    fn runnable_tile_count(&self) -> u64 {
        self.running
            .iter()
            .zip(&self.blocked)
            .filter(|&(&running, &blocked)| running & !blocked != 0)
            .count() as u64
    }

    /// Advances every tile one cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first core fault in canonical tile/core order; no
    /// core after the faulting one steps that cycle.
    pub fn step(&mut self) -> Result<(), RunMachineError> {
        if self.liveness_dirty {
            self.refresh_liveness();
        }
        if self.stepping == Stepping::Wheel && self.config.latency_model() == LatencyModel::Fabric {
            let window = self.wheel_skip_window();
            if window > 0 {
                self.skip_stall_window(window);
                return Ok(());
            }
        }
        self.cycles += 1;
        let result = match self.config.latency_model() {
            LatencyModel::Analytic => {
                let tiles_timer = self.profiler.start();
                let r = self.step_tiles_analytic();
                self.profiler.stop("machine.tiles", tiles_timer);
                r
            }
            LatencyModel::Fabric => self.step_tiles_fabric().map(|()| self.advance_fabric()),
        };
        if result.is_err() {
            // A core fault stops the walk mid-sweep; recount liveness
            // before any further stepping instead of patching the
            // partially updated counters.
            self.liveness_dirty = true;
        } else {
            self.sample_cycle();
            if self.config.latency_model() == LatencyModel::Fabric {
                self.record_digest_lanes();
            }
        }
        result
    }

    /// How many whole cycles the event wheel may jump right now, or 0
    /// when the next cycle must execute normally.
    ///
    /// A window opens only when the machine is *fully stalled*: nothing
    /// is in flight anywhere (`in_flight`, `deferred`, and the fabric are
    /// all empty — which forces every `blocked` mask to zero) and every
    /// running core is frozen behind a positive `stall_pending`. During
    /// such a window the dense sweep provably does nothing but decrement
    /// each frozen core's `stall_pending` by one per cycle: a frozen
    /// [`CoreSim::step`] touches no other state, no packets move, and
    /// the lazily-stamped memory models are never consulted. The window
    /// therefore ends at the smallest `stall_pending` — the next cycle
    /// at which some core thaws and issues — clamped to the next sample
    /// and digest boundaries so every observation cycle is stepped-or-
    /// skipped-to exactly, never jumped over.
    ///
    /// Cores holding a delivered [`PendingAccess::Ready`] value have
    /// `stall_pending == 0` (remote blocks never arm the freeze), so the
    /// minimum scan rejects those windows automatically; under the Fixed
    /// memory model no core ever freezes and the scan exits on the first
    /// running core.
    fn wheel_skip_window(&mut self) -> u64 {
        if self.running_cores == 0
            || !self.in_flight.is_empty()
            || !self.deferred.is_empty()
            || self.fabric.in_flight() != 0
        {
            return 0;
        }
        let mut window = u64::MAX;
        for (tile_cores, &mask) in self.cores.iter().zip(&self.running) {
            let mut bits = mask;
            while bits != 0 {
                let pending = tile_cores[bits.trailing_zeros() as usize].stall_pending();
                bits &= bits - 1;
                if pending == 0 {
                    return 0;
                }
                window = window.min(pending);
            }
        }
        if window == u64::MAX {
            return 0;
        }
        if let Some(periods) = self.cycles.checked_div(self.sample_every) {
            window = window.min((periods + 1) * self.sample_every - self.cycles);
        }
        if let Some(every) = self.fabric.journal_mut().map(|j| j.every()) {
            if let Some(periods) = self.cycles.checked_div(every) {
                window = window.min((periods + 1) * every - self.cycles);
            }
        }
        window
    }

    /// Jumps the machine `window` cycles through a fully stalled span,
    /// replaying the dense sweep's bookkeeping in bulk: the runnable-tile
    /// histogram gets `window` identical observations, every frozen core
    /// drains `window` freeze cycles in one subtraction, the fabric skips
    /// its own gauges/digests, and the endpoint cycle is offered to the
    /// machine's sample series and digest lanes exactly as a stepped
    /// cycle would be. `wheel_skip_window` guarantees no observation
    /// boundary lies strictly inside the span.
    fn skip_stall_window(&mut self, window: u64) {
        let runnable = self.runnable_tile_count();
        self.cycles += window;
        self.runnable_tiles.record_n(runnable, window);
        for (tile_cores, &mask) in self.cores.iter_mut().zip(&self.running) {
            let mut bits = mask;
            while bits != 0 {
                tile_cores[bits.trailing_zeros() as usize].drain_stall_cycles(window);
                bits &= bits - 1;
            }
        }
        self.fabric.skip_cycles(window);
        self.sample_cycle();
        self.record_digest_lanes();
    }

    /// Offers this cycle's gauge samples to the machine's series (the
    /// fabric samples its own inside [`Fabric::tick`]). Gated on the
    /// shared cadence so the state walks run only on sample cycles.
    fn sample_cycle(&mut self) {
        if self.sample_every == 0 || !self.samples[0].1.wants(self.cycles) {
            return;
        }
        let cycle = self.cycles;
        let runnable = self.runnable_tile_count();
        self.samples[0].1.record(cycle, runnable as f64);
        self.samples[1].1.record(cycle, self.in_flight.len() as f64);
        // The row-hit-rate series only exists on stateful backends,
        // matching the gating of the end-of-run memory counters.
        if self.config.memory_model() != MemoryModelKind::Fixed {
            self.samples[2]
                .1
                .record(cycle, self.memory_profile().row_hit_rate());
        }
    }

    /// Fingerprints each tile's architectural state into the fabric's
    /// digest journal at window boundaries: per-core state/pc/registers/
    /// stats, pending-access slots, liveness counts, and the memory
    /// model's timing fingerprint. Shared-memory *contents* are not
    /// hashed (too large at this cadence); a data-only divergence
    /// surfaces as soon as a core loads it into a register.
    fn record_digest_lanes(&mut self) {
        let MultiTileMachine {
            cores,
            mem_models,
            pending,
            running,
            blocked,
            fabric,
            cycles,
            ..
        } = self;
        let Some(journal) = fabric.journal_mut() else {
            return;
        };
        let cycle = *cycles;
        if !journal.wants(cycle) {
            return;
        }
        for (t, (tile_cores, slots)) in cores.iter().zip(pending).enumerate() {
            let mut h = Fnv1a::new();
            for core in tile_cores {
                h.write_u8(match core.state() {
                    CoreState::Running => 0,
                    CoreState::Halted => 1,
                    CoreState::Faulted => 2,
                });
                h.write_u64(core.pc() as u64);
                h.write_u64(core.stall_pending());
                // Retired instructions are stepping-invariant; the cycle
                // and stall counters are NOT hashed because the wheel
                // walk replays a blocked core's bookkeeping in bulk on
                // wake, so they lag the dense sweep mid-run.
                h.write_u64(core.stats().retired);
                for r in Reg::ALL {
                    h.write_u32(core.reg(r));
                }
            }
            for slot in slots {
                match *slot {
                    None => h.write_u8(0),
                    Some(PendingAccess::InFlight { addr, issued_at }) => {
                        h.write_u8(1);
                        h.write_u32(addr);
                        h.write_u64(issued_at);
                    }
                    Some(PendingAccess::WaitUntil {
                        addr,
                        issued_at,
                        ready_at,
                    }) => {
                        h.write_u8(2);
                        h.write_u32(addr);
                        h.write_u64(issued_at);
                        h.write_u64(ready_at);
                    }
                    Some(PendingAccess::Ready {
                        addr,
                        issued_at,
                        value,
                    }) => {
                        h.write_u8(3);
                        h.write_u32(addr);
                        h.write_u64(issued_at);
                        h.write_u32(value);
                    }
                }
            }
            h.write_u64(mem_models[t].state_fingerprint());
            h.write_u32(running[t].count_ones());
            h.write_u32(blocked[t].count_ones());
            journal.record(cycle, LaneId::Machine { tile: t as u32 }, h.finish());
        }
    }

    /// One cycle of the analytic model, where a remote access performs
    /// synchronously at the *owner* tile's crossbar.
    ///
    /// Both stepping modes walk only the running cores: analytic accesses
    /// never arm `InFlight`, and stepping a halted core is a no-op in
    /// [`CoreSim::step`].
    fn step_tiles_analytic(&mut self) -> Result<(), RunMachineError> {
        let array = self.faults.array();
        // No per-cycle crossbar reset: the memory models stamp requests
        // with the absolute cycle and free their ports lazily.
        self.runnable_tiles.record(self.runnable_tile_count());
        let rotate = (self.cycles % CORES_PER_TILE as u64) as u32;
        for tile_idx in 0..array.tile_count() {
            let mask = self.running[tile_idx];
            if mask == 0 {
                continue;
            }
            let tile = array.coord_of(tile_idx);
            if self.faults.is_faulty(tile) {
                continue;
            }
            let mut walk = rotated_walk(mask, rotate);
            while walk != 0 {
                let core_idx = (walk.trailing_zeros() % 16) as usize;
                walk &= walk - 1;
                let outcome = self.step_core_analytic(tile_idx, core_idx);
                outcome.map_err(|source| RunMachineError::CoreFault {
                    tile,
                    core: core_idx,
                    source,
                })?;
                if self.cores[tile_idx][core_idx].state() != CoreState::Running {
                    self.running[tile_idx] &= !(1 << core_idx);
                    self.running_cores -= 1;
                }
            }
        }
        Ok(())
    }

    /// One cycle of the fabric model's tile phase: steps the running
    /// cores of every healthy tile in place, in `(tile, rotated core)`
    /// order.
    ///
    /// With wheel stepping the walk steps only the cores that can move:
    /// running and not blocked on an in-flight remote op. Skipping is
    /// unobservable: a halted core's step is a no-op, and a blocked core's
    /// dense step does exactly `cycles += 1`, `stall_cycles += 1`,
    /// `network_stall_cycles += 1` — replayed in bulk when the core is
    /// next stepped, from the gap since it last was. A tile's masks can
    /// change mid-walk only through its own cores halting, so the mask
    /// read at the visit is the pre-cycle value.
    ///
    /// A core touching a remote owner only records an [`InjectIntent`];
    /// the intents are injected after the walk, in walk order, which
    /// keeps packet ids and queue order canonical. The walk stops at the
    /// first core fault; intents recorded before it are still injected.
    fn step_tiles_fabric(&mut self) -> Result<(), RunMachineError> {
        let array = self.faults.array();
        let rotate = (self.cycles % CORES_PER_TILE as u64) as u32;
        let cycles = self.cycles;
        // Dense steps blocked cores too: the reference the replay matches.
        let skip_blocked = if self.stepping == Stepping::Dense {
            0
        } else {
            u16::MAX
        };

        // Sampled in both stepping modes: a pure function of liveness.
        self.runnable_tiles.record(self.runnable_tile_count());

        let tiles_timer = self.profiler.start();
        let MultiTileMachine {
            faults,
            planner,
            cores,
            memories,
            mem_models,
            pending,
            intents,
            counters,
            running,
            blocked,
            last_stepped,
            running_cores,
            sink,
            ..
        } = self;
        let mut fault = None;
        'tiles: for tile_idx in 0..array.tile_count() {
            // Stepping a non-running core is a no-op in `CoreSim::step`,
            // so both modes leave halted cores out.
            let mask = running[tile_idx] & !(blocked[tile_idx] & skip_blocked);
            if mask == 0 {
                continue;
            }
            let tile = array.coord_of(tile_idx);
            // A faulty tile's memory model is never arbitrated: its cores
            // never run and it owns no servable memory.
            if faults.is_faulty(tile) {
                continue;
            }
            let mut walk = rotated_walk(mask, rotate);
            while walk != 0 {
                let core_idx = (walk.trailing_zeros() % 16) as usize;
                walk &= walk - 1;
                let core = &mut cores[tile_idx][core_idx];
                let slot = &mut pending[tile_idx][core_idx];
                let stamp = &mut last_stepped[tile_idx * CORES_PER_TILE + core_idx];
                // Replay the span the wheel left this core blocked: it
                // stepped-and-stalled once per skipped cycle in the dense
                // sweep. Only a core holding a remote op can have a gap.
                if matches!(
                    slot,
                    Some(PendingAccess::InFlight { .. }) | Some(PendingAccess::Ready { .. })
                ) {
                    let gap = cycles - *stamp - 1;
                    core.absorb_stall_cycles(gap);
                    counters.network_stall_cycles += gap;
                }
                *stamp = cycles;
                let outcome = step_one_core_fabric(
                    array,
                    faults,
                    planner,
                    tile_idx,
                    core_idx,
                    cycles,
                    core,
                    &mut memories[tile_idx],
                    mem_models[tile_idx].as_mut(),
                    slot,
                    counters,
                    sink.as_mut(),
                    intents,
                );
                match outcome {
                    Err(source) => {
                        fault = Some(RunMachineError::CoreFault {
                            tile,
                            core: core_idx,
                            source,
                        });
                        break 'tiles;
                    }
                    Ok(state) => {
                        if state != CoreState::Running {
                            running[tile_idx] &= !(1 << core_idx);
                            *running_cores -= 1;
                        }
                    }
                }
            }
        }
        self.profiler.stop("machine.tiles", tiles_timer);

        let commit_timer = self.profiler.start();
        for intent in self.intents.drain(..) {
            let id = self.fabric.allocate_id();
            let packet = FabricPacket::request(
                id,
                array.coord_of(intent.tile_idx),
                intent.owner,
                intent.choice,
                self.fabric.cycle(),
            );
            if self.fabric.inject(packet) {
                self.in_flight.insert(
                    id,
                    RemoteOp {
                        tile_idx: intent.tile_idx,
                        core_idx: intent.core_idx,
                        access: intent.access,
                        result: None,
                    },
                );
                self.pending[intent.tile_idx][intent.core_idx] = Some(PendingAccess::InFlight {
                    addr: intent.addr,
                    issued_at: cycles,
                });
                self.blocked[intent.tile_idx] |= 1 << intent.core_idx;
            }
            // On injection backpressure the id is burned (ids count
            // attempts, as in the traffic layer) and the core retries
            // next cycle.
        }
        self.profiler.stop("machine.commit", commit_timer);
        match fault {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Moves the fabric one cycle and services what it delivered:
    /// requests perform their access at the owner (arbitrating the
    /// owner's crossbar against its own cores) and send the result back;
    /// responses wake the issuing core.
    fn advance_fabric(&mut self) {
        let fabric_timer = self.profiler.start();
        let mut delivered = std::mem::take(&mut self.delivered_buf);
        self.fabric.tick_into(&mut delivered);
        for &packet in &delivered {
            match packet.kind {
                PacketKind::Request => self.deferred.push_back(packet),
                PacketKind::Response => self.complete_response(&packet),
            }
        }
        self.delivered_buf = delivered;
        let memory_timer = self.profiler.start();
        // Rotate the deferred queue in place: each request gets one
        // service attempt, refused ones keep their relative order.
        for _ in 0..self.deferred.len() {
            let packet = self.deferred.pop_front().expect("counted");
            if !self.try_service_request(&packet) {
                self.deferred.push_back(packet);
            }
        }
        self.profiler.stop("machine.fabric.memory", memory_timer);
        self.profiler.stop("machine.fabric", fabric_timer);
    }

    /// Performs a delivered request at its owner tile if a bank port is
    /// free this cycle, injecting the response. Returns `false` when the
    /// memory model denied the port (retry next cycle).
    fn try_service_request(&mut self, packet: &FabricPacket) -> bool {
        let owner_idx = self.faults.array().index_of(packet.dst);
        let op = self.in_flight[&packet.id];
        let offset = (op.addr() - GLOBAL_BASE) % GLOBAL_REGION_BYTES as u32;
        // The issuing closure validated range and alignment before the
        // packet was injected. Models stamp with the absolute cycle, so
        // no lazy per-cycle reset is needed even when tiles skip cycles.
        self.memories[owner_idx]
            .bank_of(offset)
            .expect("offset validated at issue");
        match self.mem_models[owner_idx].request(offset, self.cycles) {
            MemTiming::Denied => {
                self.counters.bank_conflicts += 1;
                if self.sink.enabled() {
                    self.sink.counter_add("machine.bank_conflicts", 1);
                }
                return false;
            }
            // The response is injected immediately on grant; a banked
            // model prices the access by keeping the bank busy, which
            // delays *subsequent* requests rather than this reply.
            MemTiming::Granted { .. } => {}
        }
        let memory = &mut self.memories[owner_idx];
        let value = match op.access {
            BusAccess::Load { .. } => memory.read_word(offset).expect("offset validated at issue"),
            BusAccess::Store { value, .. } => {
                memory
                    .write_word(offset, value)
                    .expect("offset validated at issue");
                0
            }
            BusAccess::AmoAdd { value, .. } => {
                let old = memory.read_word(offset).expect("offset validated at issue");
                memory
                    .write_word(offset, old.wrapping_add(value))
                    .expect("offset validated at issue");
                old
            }
        };
        self.in_flight
            .get_mut(&packet.id)
            .expect("op present until response completes")
            .result = Some(value);
        // Responses ride the complementary network and are never dropped
        // (the owner's reply queue is not finite in this model).
        self.fabric.inject_unbounded(FabricPacket::response(packet));
        true
    }

    /// Delivers a response to the core that issued the request: its
    /// pending slot becomes `Ready` and the next bus attempt is granted.
    fn complete_response(&mut self, packet: &FabricPacket) {
        let Some(op) = self.in_flight.remove(&packet.id) else {
            return;
        };
        let slot = &mut self.pending[op.tile_idx][op.core_idx];
        if let Some(PendingAccess::InFlight { addr, issued_at }) = *slot {
            debug_assert_eq!(addr, op.addr(), "response matches the stalled access");
            *slot = Some(PendingAccess::Ready {
                addr,
                issued_at,
                value: op.result.unwrap_or(0),
            });
            // The core can make progress again: the wheel walk steps it
            // from next cycle.
            self.blocked[op.tile_idx] &= !(1 << op.core_idx);
        }
    }

    /// Steps one core under the analytic latency model, servicing local
    /// and remote shared accesses. (Fabric-model cores step through
    /// [`step_one_core_fabric`].)
    fn step_core_analytic(&mut self, tile_idx: usize, core_idx: usize) -> Result<(), StepError> {
        let array = self.faults.array();
        let my_tile = array.coord_of(tile_idx);
        let cycles = self.cycles;

        // Split the borrows the closure needs out of `self`.
        let Self {
            faults,
            planner,
            cores,
            memories,
            mem_models,
            pending,
            counters,
            sink,
            ..
        } = self;
        let telemetry_on = sink.enabled();
        let pending_slot = &mut pending[tile_idx][core_idx];

        // Execute-then-stall: a granted access performs inside the
        // closure (the model mutates exactly once) and parks its extra
        // latency here; it lands on the core after the step returns.
        let mut stall = 0u64;

        // Take the core out to avoid aliasing the vectors inside the
        // closure (memories/models of *other* tiles are touched).
        let core = &mut cores[tile_idx][core_idx];
        let outcome = core.step(|access| {
            let addr = match access {
                BusAccess::Load { addr }
                | BusAccess::Store { addr, .. }
                | BusAccess::AmoAdd { addr, .. } => addr,
            };
            let (owner_idx, offset) = decode_global(array, faults, addr)?;

            // An analytic remote access whose modelled round trip has
            // elapsed performs at the owner's crossbar below.
            let mut completing_remote: Option<u64> = None;
            if owner_idx != tile_idx {
                match *pending_slot {
                    Some(PendingAccess::Ready {
                        addr: a,
                        issued_at,
                        value,
                    }) if a == addr => {
                        *pending_slot = None;
                        counters.remote_accesses += 1;
                        let latency = cycles.saturating_sub(issued_at);
                        counters.remote_latency_total += latency;
                        if telemetry_on {
                            sink.histogram_record("machine.remote_latency_cycles", latency);
                        }
                        return Ok(BusGrant::Granted(value));
                    }
                    Some(PendingAccess::InFlight { addr: a, .. }) if a == addr => {
                        counters.network_stall_cycles += 1;
                        return Ok(BusGrant::Stalled);
                    }
                    Some(PendingAccess::WaitUntil {
                        addr: a,
                        issued_at,
                        ready_at,
                    }) if a == addr => {
                        if cycles < ready_at {
                            counters.network_stall_cycles += 1;
                            return Ok(BusGrant::Stalled);
                        }
                        completing_remote = Some(issued_at);
                        // Fall through to perform at the owner below.
                    }
                    _ => {
                        let owner = array.coord_of(owner_idx);
                        let choice = planner.choose(my_tile, owner);
                        if choice == NetworkChoice::Disconnected {
                            return Err(AccessMemoryError::OutOfRange { addr });
                        }
                        let hops = match choice {
                            NetworkChoice::Direct(_) => {
                                u64::from(my_tile.manhattan_distance(owner))
                            }
                            NetworkChoice::Relay { via, .. } => {
                                u64::from(my_tile.manhattan_distance(via))
                                    + u64::from(via.manhattan_distance(owner))
                            }
                            NetworkChoice::Disconnected => unreachable!(),
                        };
                        let latency = 2 * hops * CYCLES_PER_HOP + REMOTE_OVERHEAD;
                        *pending_slot = Some(PendingAccess::WaitUntil {
                            addr,
                            issued_at: cycles,
                            ready_at: cycles + latency,
                        });
                        counters.network_stall_cycles += 1;
                        return Ok(BusGrant::Stalled);
                    }
                }
            }

            // Arbitrate the owner tile's bank timing: local accesses,
            // plus analytic remote accesses whose network timer expired.
            memories[owner_idx].bank_of(offset)?;
            match mem_models[owner_idx].request(offset, cycles) {
                MemTiming::Denied => {
                    counters.bank_conflicts += 1;
                    if telemetry_on {
                        sink.counter_add("machine.bank_conflicts", 1);
                    }
                    return Ok(BusGrant::Stalled);
                }
                MemTiming::Granted { stall: extra } => stall = extra,
            }
            if let Some(issued_at) = completing_remote {
                *pending_slot = None;
                counters.remote_accesses += 1;
                let latency = cycles.saturating_sub(issued_at);
                counters.remote_latency_total += latency;
                if telemetry_on {
                    sink.histogram_record("machine.remote_latency_cycles", latency);
                }
            } else {
                counters.local_accesses += 1;
            }
            match access {
                BusAccess::Load { .. } => {
                    Ok(BusGrant::Granted(memories[owner_idx].read_word(offset)?))
                }
                BusAccess::Store { value, .. } => {
                    memories[owner_idx].write_word(offset, value)?;
                    Ok(BusGrant::Granted(0))
                }
                BusAccess::AmoAdd { value, .. } => {
                    let old = memories[owner_idx].read_word(offset)?;
                    memories[owner_idx].write_word(offset, old.wrapping_add(value))?;
                    Ok(BusGrant::Granted(old))
                }
            }
        });
        core.apply_stall_cycles(stall);
        outcome.map(|_| ())
    }

    /// Steps until every core halts.
    ///
    /// # Errors
    ///
    /// Returns [`RunMachineError::CycleLimit`] past the budget, or the
    /// first core fault.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<MachineStats, RunMachineError> {
        let start = self.cycles;
        if self.liveness_dirty {
            self.refresh_liveness();
        }
        while self.running_cores > 0 {
            if self.cycles - start >= max_cycles {
                return Err(RunMachineError::CycleLimit { max_cycles });
            }
            self.step()?;
        }
        if self.sink.enabled() {
            self.sink
                .span("machine", "run_until_halt", 0, start, self.cycles);
        }
        Ok(self.stats())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycles,
            retired: self.cores.iter().flatten().map(|c| c.stats().retired).sum(),
            local_accesses: self.counters.local_accesses,
            remote_accesses: self.counters.remote_accesses,
            network_stall_cycles: self.counters.network_stall_cycles,
            remote_latency_total: self.counters.remote_latency_total,
            relay_forwards: self.fabric.relay_forwards(),
            link_stall_cycles: self.fabric.total_stall_cycles(),
            peak_link_occupancy: self.fabric.peak_link_occupancy(),
            bank_conflicts: self.counters.bank_conflicts,
        }
    }

    /// Per-tile `(instructions retired, core stall cycles)`, summed over
    /// each tile's cores, in row-major tile order.
    pub fn per_tile_activity(&self) -> Vec<(u64, u64)> {
        self.cores
            .iter()
            .map(|tile_cores| {
                tile_cores.iter().fold((0, 0), |(r, s), c| {
                    let st = c.stats();
                    (r + st.retired, s + st.stall_cycles)
                })
            })
            .collect()
    }

    /// Emits the machine's aggregate metrics into `sink`: access and
    /// conflict counters, cycle gauges, per-tile retired/stall activity
    /// (as histograms over tiles plus series heat maps), and the fabric's
    /// own link metrics when the fabric latency model ran.
    pub fn export_metrics(&self, sink: &mut dyn Sink) {
        sink.counter_add("machine.retired", self.stats().retired);
        let counters = self.counters;
        sink.counter_add("machine.local_accesses", counters.local_accesses);
        sink.counter_add("machine.remote_accesses", counters.remote_accesses);
        sink.counter_add(
            "machine.network_stall_cycles",
            counters.network_stall_cycles,
        );
        sink.counter_add("machine.bank_conflicts", counters.bank_conflicts);
        sink.gauge_set("machine.cycles", self.cycles as f64);
        sink.gauge_set(
            "machine.mean_remote_latency_cycles",
            self.stats().mean_remote_latency(),
        );
        let activity = self.per_tile_activity();
        for &(retired, stalls) in &activity {
            sink.histogram_record("machine.tile.retired", retired);
            sink.histogram_record("machine.tile.stall_cycles", stalls);
        }
        let retired: Vec<f64> = activity.iter().map(|&(r, _)| r as f64).collect();
        let stalls: Vec<f64> = activity.iter().map(|&(_, s)| s as f64).collect();
        sink.series_set("machine.tile_retired", &retired);
        sink.series_set("machine.tile_stall_cycles", &stalls);
        if self.runnable_tiles.count() > 0 {
            sink.gauge_set("machine.runnable_tiles_mean", self.runnable_tiles.mean());
            sink.gauge_set(
                "machine.runnable_tiles_peak",
                self.runnable_tiles.max() as f64,
            );
            sink.histogram_merge("machine.runnable_tiles", &self.runnable_tiles);
        }
        for (name, series) in &self.samples {
            if !series.is_empty() {
                sink.timeseries_merge(name, series);
            }
        }
        if self.config.latency_model() == LatencyModel::Fabric {
            self.fabric.export_metrics(sink);
        }
        // Row-buffer and TLB fidelity counters only exist on stateful
        // backends; gating keeps fixed-latency output byte-identical to
        // the pre-trait model.
        if self.config.memory_model() != MemoryModelKind::Fixed {
            let profile = self.memory_profile();
            sink.counter_add("machine.memory.row_hits", profile.row_hits);
            sink.counter_add("machine.memory.row_misses", profile.row_misses);
            sink.counter_add("machine.memory.tlb_hits", profile.tlb_hits);
            sink.counter_add("machine.memory.tlb_misses", profile.tlb_misses);
            sink.gauge_set("machine.memory.row_hit_rate", profile.row_hit_rate());
            for model in &self.mem_models {
                for &busy in &model.bank_busy_cycles() {
                    sink.histogram_record("machine.memory.bank_busy_cycles", busy);
                }
            }
        }
    }

    /// Aggregate memory-model counters summed over every tile's backend.
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut profile = MemoryProfile::default();
        for model in &self.mem_models {
            profile.grants += model.grants();
            profile.conflicts += model.conflicts();
            profile.row_hits += model.row_hits();
            profile.row_misses += model.row_misses();
            profile.tlb_hits += model.tlb_hits();
            profile.tlb_misses += model.tlb_misses();
        }
        profile
    }
}

/// Machine-wide memory-model counters (see
/// [`wsp_tile::MemoryModel`]); all zeros except `grants`/`conflicts`
/// under the fixed-latency backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Accesses granted a bank port.
    pub grants: u64,
    /// Accesses denied and retried.
    pub conflicts: u64,
    /// Granted accesses that hit an open row.
    pub row_hits: u64,
    /// Granted accesses that had to open their row.
    pub row_misses: u64,
    /// Granted accesses whose page translation was cached.
    pub tlb_hits: u64,
    /// Granted accesses that paid a TLB fill.
    pub tlb_misses: u64,
}

impl MemoryProfile {
    /// Fraction of row-buffer lookups that hit, or 0.0 before any.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Decodes a global address to `(tile index, bank offset)` from the fault
/// map alone, so the core-step closures can call it while the machine's
/// per-tile vectors are borrowed.
fn decode_global(
    array: TileArray,
    faults: &FaultMap,
    addr: u32,
) -> Result<(usize, u32), AccessMemoryError> {
    if addr < GLOBAL_BASE {
        return Err(AccessMemoryError::OutOfRange { addr });
    }
    let off = addr - GLOBAL_BASE;
    let t = (off as usize) / GLOBAL_REGION_BYTES;
    if t >= array.tile_count() || faults.is_faulty(array.coord_of(t)) {
        return Err(AccessMemoryError::OutOfRange { addr });
    }
    Ok((t, off % GLOBAL_REGION_BYTES as u32))
}

/// The set bits of a tile's core `mask` in the walk order
/// `rotate, rotate + 1, …, 0, 1, …, rotate - 1`: cores at or above
/// `rotate` keep their bit in the low half, the rest move to the high
/// half, so popping the lowest set bit (core `bit % 16`) yields exactly
/// the `(i + rotate) % CORES_PER_TILE` order.
fn rotated_walk(mask: u16, rotate: u32) -> u32 {
    let low = u16::MAX << rotate;
    u32::from(mask & low) | u32::from(mask & !low) << 16
}

/// A remote access a fabric-model core wants injected; the commit after
/// the tile walk performs the injection so packet ids and queue order
/// stay canonical.
#[derive(Debug)]
struct InjectIntent {
    tile_idx: usize,
    core_idx: usize,
    access: BusAccess,
    owner: TileCoord,
    choice: NetworkChoice,
    addr: u32,
}

/// Steps one fabric-model core. Local accesses arbitrate this tile's
/// memory model; remote accesses either consume a delivered response,
/// keep stalling on one in flight, or record an [`InjectIntent`] for the
/// commit after the walk — never touching another tile's state.
#[allow(clippy::too_many_arguments)]
fn step_one_core_fabric(
    array: TileArray,
    faults: &FaultMap,
    planner: &RoutePlanner,
    tile_idx: usize,
    core_idx: usize,
    cycles: u64,
    core: &mut CoreSim,
    memory: &mut MemoryChiplet,
    model: &mut dyn MemoryModel,
    pending_slot: &mut Option<PendingAccess>,
    counters: &mut AccessCounters,
    sink: &mut dyn Sink,
    intents: &mut Vec<InjectIntent>,
) -> Result<CoreState, StepError> {
    let my_tile = array.coord_of(tile_idx);
    let mut stall = 0u64;
    let outcome = core.step(|access| {
        let addr = match access {
            BusAccess::Load { addr }
            | BusAccess::Store { addr, .. }
            | BusAccess::AmoAdd { addr, .. } => addr,
        };
        let (owner_idx, offset) = decode_global(array, faults, addr)?;

        if owner_idx != tile_idx {
            match *pending_slot {
                Some(PendingAccess::Ready {
                    addr: a,
                    issued_at,
                    value,
                }) if a == addr => {
                    *pending_slot = None;
                    counters.remote_accesses += 1;
                    let latency = cycles.saturating_sub(issued_at);
                    counters.remote_latency_total += latency;
                    if sink.enabled() {
                        sink.histogram_record("machine.remote_latency_cycles", latency);
                    }
                    return Ok(BusGrant::Granted(value));
                }
                Some(PendingAccess::InFlight { addr: a, .. }) if a == addr => {
                    counters.network_stall_cycles += 1;
                    return Ok(BusGrant::Stalled);
                }
                Some(PendingAccess::WaitUntil { .. }) => {
                    unreachable!("analytic timers never arm under the fabric model")
                }
                _ => {
                    let owner = array.coord_of(owner_idx);
                    let choice = planner.choose(my_tile, owner);
                    if choice == NetworkChoice::Disconnected {
                        return Err(AccessMemoryError::OutOfRange { addr });
                    }
                    // Validate the owner-side access now so the fault
                    // surfaces on the issuing core; the service path can
                    // then assume success. `bank_of_offset` is pure
                    // offset math — the owner's memory is not touched.
                    bank_of_offset(offset)?;
                    intents.push(InjectIntent {
                        tile_idx,
                        core_idx,
                        access,
                        owner,
                        choice,
                        addr,
                    });
                    counters.network_stall_cycles += 1;
                    return Ok(BusGrant::Stalled);
                }
            }
        }

        // Arbitrate this tile's own memory model for a local access.
        memory.bank_of(offset)?;
        match model.request(offset, cycles) {
            MemTiming::Denied => {
                counters.bank_conflicts += 1;
                if sink.enabled() {
                    sink.counter_add("machine.bank_conflicts", 1);
                }
                return Ok(BusGrant::Stalled);
            }
            MemTiming::Granted { stall: extra } => stall = extra,
        }
        counters.local_accesses += 1;
        match access {
            BusAccess::Load { .. } => Ok(BusGrant::Granted(memory.read_word(offset)?)),
            BusAccess::Store { value, .. } => {
                memory.write_word(offset, value)?;
                Ok(BusGrant::Granted(0))
            }
            BusAccess::AmoAdd { value, .. } => {
                let old = memory.read_word(offset)?;
                memory.write_word(offset, old.wrapping_add(value))?;
                Ok(BusGrant::Granted(old))
            }
        }
    });
    core.apply_stall_cycles(stall);
    outcome
}

impl fmt::Debug for MultiTileMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiTileMachine")
            .field("array", &self.config.array())
            .field("latency_model", &self.config.latency_model())
            .field("cycles", &self.cycles)
            .field("remote_accesses", &self.counters.remote_accesses)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// Errors loading programs into the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMachineError {
    /// The target tile failed assembly.
    FaultyTile {
        /// The tile.
        tile: TileCoord,
    },
    /// The core index does not exist.
    NoSuchCore {
        /// The tile.
        tile: TileCoord,
        /// The requested core.
        core: usize,
    },
}

impl fmt::Display for LoadMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMachineError::FaultyTile { tile } => write!(f, "tile {tile} is faulty"),
            LoadMachineError::NoSuchCore { tile, core } => {
                write!(f, "tile {tile} has no core {core}")
            }
        }
    }
}

impl std::error::Error for LoadMachineError {}

/// Errors advancing the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMachineError {
    /// A core trapped.
    CoreFault {
        /// The tile holding the core.
        tile: TileCoord,
        /// The core index.
        core: usize,
        /// The architectural fault.
        source: StepError,
    },
    /// The cycle budget was exhausted.
    CycleLimit {
        /// The budget.
        max_cycles: u64,
    },
}

impl fmt::Display for RunMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunMachineError::CoreFault { tile, core, source } => {
                write!(f, "core {core} of tile {tile} faulted: {source}")
            }
            RunMachineError::CycleLimit { max_cycles } => {
                write!(f, "machine did not halt within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for RunMachineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_tile::isa::{Program, Reg};
    use wsp_topo::TileArray;

    fn machine(n: u16) -> MultiTileMachine {
        let cfg = SystemConfig::with_array(TileArray::new(n, n));
        MultiTileMachine::new(cfg, FaultMap::none(cfg.array()))
    }

    fn analytic_machine(n: u16) -> MultiTileMachine {
        let cfg = SystemConfig::with_array(TileArray::new(n, n))
            .with_latency_model(LatencyModel::Analytic);
        MultiTileMachine::new(cfg, FaultMap::none(cfg.array()))
    }

    #[test]
    fn remote_store_lands_in_the_owner_memory() {
        let mut m = machine(2);
        let target = m.global_address(TileCoord::new(1, 1), 64).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 0xCAFE)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(10_000).expect("halts");
        assert_eq!(m.read_word(target).expect("ok"), 0xCAFE);
        assert_eq!(stats.remote_accesses, 1);
        assert_eq!(stats.local_accesses, 0);
        assert!(stats.network_stall_cycles > 0);
        assert!(stats.remote_latency_total > 0);
    }

    #[test]
    fn remote_store_lands_under_the_analytic_model() {
        let mut m = analytic_machine(2);
        let target = m.global_address(TileCoord::new(1, 1), 64).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 0xCAFE)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(10_000).expect("halts");
        assert_eq!(m.read_word(target).expect("ok"), 0xCAFE);
        assert_eq!(stats.remote_accesses, 1);
        // The analytic model never moves a packet.
        assert_eq!(stats.link_stall_cycles, 0);
        assert_eq!(stats.peak_link_occupancy, 0);
    }

    #[test]
    fn remote_access_pays_network_latency() {
        // The same single-store program, run against a near and a far
        // owner: the far run must take longer.
        let run = |owner: TileCoord| -> u64 {
            let mut m = machine(8);
            let target = m.global_address(owner, 0).expect("ok");
            let program = Program::builder()
                .ldi(Reg::R1, target)
                .ldi(Reg::R2, 1)
                .st(Reg::R2, Reg::R1, 0)
                .halt()
                .build()
                .expect("builds");
            m.load_program(TileCoord::new(0, 0), 0, &program)
                .expect("ok");
            m.run_until_halt(100_000).expect("halts").cycles
        };
        let near = run(TileCoord::new(1, 0));
        let far = run(TileCoord::new(7, 7));
        assert!(
            far > near + 10,
            "far {far} should exceed near {near} by the hop latency"
        );
    }

    #[test]
    fn flag_based_message_passing_across_tiles() {
        // Producer on tile (0,0) writes data then sets a flag; consumer
        // on tile (1,1) spins on the flag, then reads the data — the
        // classic unified-shared-memory handshake.
        let mut m = machine(2);
        let data = m.global_address(TileCoord::new(1, 0), 0).expect("ok");
        let flag = m.global_address(TileCoord::new(1, 0), 4).expect("ok");

        let producer = Program::builder()
            .ldi(Reg::R1, data)
            .ldi(Reg::R2, 777)
            .st(Reg::R2, Reg::R1, 0)
            .ldi(Reg::R3, flag)
            .ldi(Reg::R4, 1)
            .st(Reg::R4, Reg::R3, 0)
            .halt()
            .build()
            .expect("builds");
        let consumer = Program::builder()
            .ldi(Reg::R3, flag)
            .ldi(Reg::R0, 0)
            .label("spin")
            .ld(Reg::R4, Reg::R3, 0)
            .beq(Reg::R4, Reg::R0, "spin")
            .ldi(Reg::R1, data)
            .ld(Reg::R5, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");

        m.load_program(TileCoord::new(0, 0), 0, &producer)
            .expect("ok");
        m.load_program(TileCoord::new(1, 1), 0, &consumer)
            .expect("ok");
        m.run_until_halt(100_000).expect("halts");
        assert_eq!(m.core_mut(TileCoord::new(1, 1), 0).reg(Reg::R5), 777);
    }

    #[test]
    fn global_amo_counter_across_all_tiles_and_cores() {
        // Every core of every tile on a 2x2 machine atomically increments
        // one counter on tile (0,0): 4 tiles × 14 cores × 5 increments.
        let mut m = machine(2);
        let counter = m.global_address(TileCoord::new(0, 0), 128).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, counter)
            .ldi(Reg::R2, 1)
            .ldi(Reg::R3, 5)
            .ldi(Reg::R0, 0)
            .label("loop")
            .amo_add(Reg::R4, Reg::R1, Reg::R2)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for tile in TileArray::new(2, 2).tiles() {
            for core in 0..14 {
                m.load_program(tile, core, &program).expect("ok");
            }
        }
        m.run_until_halt(1_000_000).expect("halts");
        assert_eq!(m.read_word(counter).expect("ok"), 4 * 14 * 5);
    }

    #[test]
    fn faulty_owner_faults_the_accessing_core() {
        let cfg = SystemConfig::with_array(TileArray::new(2, 2));
        let dead = TileCoord::new(1, 1);
        let faults = FaultMap::from_faulty(cfg.array(), [dead]);
        let mut m = MultiTileMachine::new(cfg, faults);
        assert!(m.global_address(dead, 0).is_err());
        // Hand-construct the address the dead tile would have owned.
        let addr = GLOBAL_BASE + 3 * GLOBAL_REGION_BYTES as u32;
        let program = Program::builder()
            .ldi(Reg::R1, addr)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let err = m.run_until_halt(1000).expect_err("faults");
        assert!(matches!(err, RunMachineError::CoreFault { .. }));
    }

    #[test]
    fn local_accesses_do_not_pay_remote_latency() {
        let mut m = machine(2);
        let local = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 5)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(1000).expect("halts");
        assert_eq!(stats.local_accesses, 1);
        assert_eq!(stats.remote_accesses, 0);
        // 4 instructions + a couple of cycles of slack.
        assert!(stats.cycles < 20, "cycles {}", stats.cycles);
    }

    #[test]
    fn load_errors_are_reported() {
        let cfg = SystemConfig::with_array(TileArray::new(2, 2));
        let dead = TileCoord::new(0, 1);
        let faults = FaultMap::from_faulty(cfg.array(), [dead]);
        let mut m = MultiTileMachine::new(cfg, faults);
        let p = Program::builder().halt().build().expect("ok");
        assert_eq!(
            m.load_program(dead, 0, &p).expect_err("faulty"),
            LoadMachineError::FaultyTile { tile: dead }
        );
        assert_eq!(
            m.load_program(TileCoord::new(0, 0), 99, &p)
                .expect_err("bad core"),
            LoadMachineError::NoSuchCore {
                tile: TileCoord::new(0, 0),
                core: 99
            }
        );
    }

    /// Loads a one-shot remote-load program into every core of every
    /// tile except the hot one: the machine-level `HotSpot` pattern.
    fn load_hotspot(m: &mut MultiTileMachine, n: u16, hot: TileCoord) {
        let mut word = 0u32;
        for tile in TileArray::new(n, n).tiles() {
            if tile == hot {
                continue;
            }
            for core in 0..14 {
                // Spread the reads over the owner's banks so the bank
                // port is not the bottleneck — the links are.
                let target = m.global_address(hot, (word % 1024) * 4).expect("ok");
                word += 1;
                let program = Program::builder()
                    .ldi(Reg::R1, target)
                    .ld(Reg::R2, Reg::R1, 0)
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(tile, core, &program).expect("ok");
            }
        }
    }

    /// Loads every core of `tile` with a loop alternating two same-bank
    /// addresses one row apart: under the banked backend every load is a
    /// row miss, so the program is maximally sensitive to the memory
    /// model while computing nothing that depends on it.
    fn load_row_ping_pong(m: &mut MultiTileMachine, tile: TileCoord) {
        let near = m.global_address(tile, 0).expect("ok");
        let far = m.global_address(tile, 8192).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, near)
            .ldi(Reg::R2, far)
            .ldi(Reg::R3, 8)
            .ldi(Reg::R0, 0)
            .label("loop")
            .ld(Reg::R4, Reg::R1, 0)
            .ld(Reg::R5, Reg::R2, 0)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for core in 0..14 {
            m.load_program(tile, core, &program).expect("ok");
        }
    }

    #[test]
    fn hotspot_contention_costs_more_than_the_analytic_model() {
        // 15 tiles × 14 cores all load from tile (0,0) at once. The
        // analytic model prices each access by distance alone; the
        // fabric funnels 210 requests through the hot tile's two ingress
        // links, so queueing must push the mean round trip strictly
        // higher. This is the acceptance criterion of the fabric
        // refactor.
        let hot = TileCoord::new(0, 0);
        let n = 4;

        let mut analytic = analytic_machine(n);
        load_hotspot(&mut analytic, n, hot);
        let analytic_stats = analytic.run_until_halt(1_000_000).expect("halts");

        let mut fabric = machine(n);
        load_hotspot(&mut fabric, n, hot);
        let fabric_stats = fabric.run_until_halt(1_000_000).expect("halts");
        assert_eq!(analytic_stats.remote_accesses, 15 * 14);
        assert_eq!(fabric_stats.remote_accesses, 15 * 14);
        assert!(
            fabric_stats.mean_remote_latency() > analytic_stats.mean_remote_latency(),
            "fabric {:.1} cycles should exceed analytic {:.1} under contention",
            fabric_stats.mean_remote_latency(),
            analytic_stats.mean_remote_latency(),
        );
        // The contention is observable in the new counters.
        assert!(fabric_stats.link_stall_cycles > 0, "links saw backpressure");
        assert!(fabric_stats.peak_link_occupancy > 1, "queues built up");
        assert_eq!(analytic_stats.link_stall_cycles, 0);
    }

    #[test]
    fn idle_machine_stats_have_no_nan_ratios() {
        // A machine that never ran: every derived ratio must be a finite
        // zero, not NaN from a zero denominator.
        let m = machine(2);
        let stats = m.stats();
        assert_eq!(stats.remote_accesses, 0);
        assert_eq!(stats.mean_remote_latency(), 0.0);
        assert!(stats.mean_remote_latency().is_finite());
        let default_stats = MachineStats::default();
        assert_eq!(default_stats.mean_remote_latency(), 0.0);
    }

    #[test]
    fn telemetry_sink_records_latency_histogram_and_run_span() {
        use wsp_telemetry::SharedRecorder;

        let recorder = SharedRecorder::new();
        let mut m = machine(2);
        m.set_sink(recorder.boxed());
        m.fabric_mut().set_sink(recorder.boxed());
        let target = m.global_address(TileCoord::new(1, 1), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(10_000).expect("halts");

        let mut shared = recorder.clone();
        m.export_metrics(&mut shared);
        recorder.with(|r| {
            let hist = r
                .registry
                .histogram("machine.remote_latency_cycles")
                .expect("remote access recorded");
            assert_eq!(hist.count(), stats.remote_accesses);
            assert_eq!(r.tracer.span_count("machine"), 1);
            // The fabric delivered one request and one response.
            assert_eq!(r.tracer.span_count("fabric"), 2);
            assert_eq!(
                r.registry.counter("machine.remote_accesses"),
                stats.remote_accesses
            );
            assert_eq!(
                r.registry.series("machine.tile_retired").map(<[f64]>::len),
                Some(4)
            );
        });
    }

    #[test]
    fn bank_conflicts_are_counted_under_amo_pressure() {
        // 14 cores of one tile hammer one word in their own tile: the
        // four bank ports cannot grant everyone, so denials must appear.
        let mut m = machine(2);
        let counter = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, counter)
            .ldi(Reg::R2, 1)
            .ldi(Reg::R3, 8)
            .ldi(Reg::R0, 0)
            .label("loop")
            .amo_add(Reg::R4, Reg::R1, Reg::R2)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for core in 0..14 {
            m.load_program(TileCoord::new(0, 0), core, &program)
                .expect("ok");
        }
        let stats = m.run_until_halt(1_000_000).expect("halts");
        assert_eq!(m.read_word(counter).expect("ok"), 14 * 8);
        assert!(stats.bank_conflicts > 0, "no crossbar denials recorded");
    }

    #[test]
    fn banked_memory_is_slower_but_architecturally_identical() {
        // Swapping the timing backend must never change what the
        // programs compute — only how many cycles they take. The banked
        // model pays row misses, so the hotspot gets strictly slower;
        // adding the TLB layer can only slow it further.
        let hot = TileCoord::new(0, 0);
        let run = |kind: MemoryModelKind| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4)).with_memory_model(kind);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            load_hotspot(&mut m, 4, hot);
            load_row_ping_pong(&mut m, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (stats, m.read_word(probe).expect("ok"), m.memory_profile())
        };
        let (fixed, fixed_sum, fixed_profile) = run(MemoryModelKind::Fixed);
        let (banked, banked_sum, profile) = run(MemoryModelKind::Banked);
        assert_eq!(banked_sum, fixed_sum, "same architectural result");
        assert_eq!(banked.retired, fixed.retired, "same instruction stream");
        assert!(
            banked.cycles > fixed.cycles,
            "row misses must cost cycles: banked {} vs fixed {}",
            banked.cycles,
            fixed.cycles
        );
        assert!(profile.row_misses > 0, "cold rows were opened");
        assert_eq!(profile.row_hits + profile.row_misses, profile.grants);
        assert_eq!(
            fixed_profile.row_hits + fixed_profile.row_misses,
            0,
            "the fixed backend models no rows"
        );
        let (tlb, tlb_sum, tlb_profile) = run(MemoryModelKind::BankedTlb);
        assert_eq!(tlb_sum, fixed_sum, "same architectural result");
        assert!(tlb.cycles >= banked.cycles, "TLB fills only add latency");
        assert!(tlb_profile.tlb_misses > 0, "cold pages were filled");
    }

    #[test]
    fn banked_memory_is_bit_identical_across_stepping() {
        // The determinism claim must survive a stateful backend: busy
        // windows are stamped with absolute cycles, so the wheel's
        // runnable-tile walk observes the same grant sequence as the
        // dense sweep.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4))
                .with_memory_model(MemoryModelKind::Banked);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            m.set_stepping(stepping);
            load_hotspot(&mut m, 4, hot);
            load_row_ping_pong(&mut m, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (
                stats,
                m.read_word(probe).expect("ok"),
                m.per_tile_activity(),
                m.memory_profile(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    #[test]
    fn wheel_stepping_jumps_frozen_stall_windows() {
        // Event-wheel acceptance at machine level: a lone core ping-
        // ponging rows of its own banked memory freezes behind a row-miss
        // stall after every load, with nothing in flight anywhere — so
        // the wheel must jump each frozen window whole. The fabric tick
        // counter is the wall-clock-free gauge: dense executes one tick
        // per cycle; the wheel's ticks stay in the order of the retired
        // instruction count, far below the cycle count.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4))
                .with_memory_model(MemoryModelKind::Banked);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            m.set_stepping(stepping);
            let near = m.global_address(hot, 0).expect("ok");
            let far = m.global_address(hot, 8192).expect("ok");
            let program = Program::builder()
                .ldi(Reg::R1, near)
                .ldi(Reg::R2, far)
                .ldi(Reg::R3, 64)
                .ldi(Reg::R0, 0)
                .label("loop")
                .ld(Reg::R4, Reg::R1, 0)
                .ld(Reg::R5, Reg::R2, 0)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "loop")
                .halt()
                .build()
                .expect("builds");
            m.load_program(hot, 0, &program).expect("ok");
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let ticks = m.fabric().ticks_executed();
            (
                stats,
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
                m.memory_profile(),
                ticks,
            )
        };
        let (stats, activity, runnable, profile, dense_ticks) = run(Stepping::Dense);
        let (w_stats, w_activity, w_runnable, w_profile, wheel_ticks) = run(Stepping::Wheel);
        assert_eq!(w_stats, stats);
        assert_eq!(w_activity, activity);
        assert_eq!(w_runnable, runnable);
        assert_eq!(w_profile, profile);
        assert_eq!(dense_ticks, stats.cycles, "dense ticks every cycle");
        assert!(
            wheel_ticks < stats.cycles / 2,
            "the wheel must skip most frozen cycles: {wheel_ticks} ticks over {} cycles",
            stats.cycles
        );
    }

    #[test]
    fn relay_forwards_are_counted_through_the_fabric() {
        // A same-row pair with the tile between them dead: both DoR
        // networks use the same row path, so the kernel must pick a
        // two-leg relay route through a neighbouring row.
        let cfg = SystemConfig::with_array(TileArray::new(4, 4));
        let faults = FaultMap::from_faulty(cfg.array(), [TileCoord::new(2, 1)]);
        let src = TileCoord::new(0, 1);
        let dst = TileCoord::new(3, 1);
        assert!(matches!(
            RoutePlanner::new(faults.clone()).choose(src, dst),
            NetworkChoice::Relay { .. }
        ));

        let mut m = MultiTileMachine::new(cfg, faults);
        let target = m.global_address(dst, 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 9)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(src, 0, &program).expect("ok");
        let stats = m.run_until_halt(100_000).expect("halts");
        assert_eq!(m.read_word(target).expect("ok"), 9);
        assert!(
            stats.relay_forwards >= 1,
            "request or response re-injected at the via tile"
        );
    }

    #[test]
    fn wheel_stepping_is_bit_identical_to_dense() {
        // The runnable-tile walk plus the wheel's window skips must match
        // the dense sweep bit for bit — stats, memory, the
        // per-core activity counters (which the gap replay reconstructs),
        // and the runnable-tiles sample.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let mut m = machine(4);
            m.set_stepping(stepping);
            load_hotspot(&mut m, 4, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (
                stats,
                m.read_word(probe).expect("ok"),
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    #[test]
    fn wheel_stepping_matches_dense_under_the_analytic_model() {
        // Analytic wheel stepping only elides halted cores; a machine
        // where programs finish at staggered times must end identically.
        let run = |stepping: Stepping| {
            let mut m = analytic_machine(4);
            m.set_stepping(stepping);
            let counter = m.global_address(TileCoord::new(0, 0), 128).expect("ok");
            for (i, tile) in TileArray::new(4, 4).tiles().enumerate() {
                let reps = 1 + (i as u32 % 5);
                let program = Program::builder()
                    .ldi(Reg::R1, counter)
                    .ldi(Reg::R2, 1)
                    .ldi(Reg::R3, reps)
                    .ldi(Reg::R0, 0)
                    .label("loop")
                    .amo_add(Reg::R4, Reg::R1, Reg::R2)
                    .addi(Reg::R3, Reg::R3, -1)
                    .bne(Reg::R3, Reg::R0, "loop")
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(tile, 0, &program).expect("ok");
            }
            let stats = m.run_until_halt(1_000_000).expect("halts");
            (
                stats,
                m.read_word(counter).expect("ok"),
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    #[test]
    fn blocked_tiles_leave_the_runnable_set() {
        // One issuing tile on a 8x8 machine: while its single remote op
        // is in flight the whole machine has zero runnable tiles, so the
        // sampled runnable peak stays at 1 under the default wheel
        // stepping.
        let mut m = machine(8);
        assert_eq!(m.stepping(), Stepping::Wheel);
        let target = m.global_address(TileCoord::new(7, 7), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 1)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(100_000).expect("halts");
        assert!(stats.network_stall_cycles > 0);
        let hist = m.runnable_tiles();
        assert_eq!(hist.max(), 1, "only one tile ever runnable");
        assert_eq!(hist.min(), 0, "tile blocked while the op is in flight");
        assert_eq!(hist.count(), stats.cycles, "one sample per cycle");
    }

    #[test]
    fn injection_backpressure_burns_ids_identically_across_stepping() {
        // Every other tile's 14 cores stream loads to the hot tile, whose
        // own 14 cores spin briefly and then stream loads to the far
        // corner, all issuing in the same cycle. The responses the hot
        // tile sends queue in its local FIFOs ahead of those requests, so
        // some are refused and retried: each refusal burns an id.
        let hot = TileCoord::new(1, 1);
        let far = TileCoord::new(3, 3);
        let program = |target: u32, spin: u32, loads: u32| {
            Program::builder()
                .ldi(Reg::R1, target)
                .ldi(Reg::R3, loads)
                .ldi(Reg::R5, spin)
                .ldi(Reg::R0, 0)
                .label("spin")
                .addi(Reg::R5, Reg::R5, -1)
                .bne(Reg::R5, Reg::R0, "spin")
                .label("load")
                .ld(Reg::R2, Reg::R1, 0)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "load")
                .halt()
                .build()
                .expect("builds")
        };
        let run = |stepping: Stepping| {
            let mut m = machine(4);
            m.set_stepping(stepping);
            for (i, tile) in TileArray::new(4, 4).tiles().enumerate() {
                for core in 0..14 {
                    let p = if tile == hot {
                        program(m.global_address(far, 4 * core as u32).expect("ok"), 10, 4)
                    } else {
                        let word = (i * 14 + core) as u32 % 2048;
                        program(m.global_address(hot, 4 * word).expect("ok"), 1, 8)
                    };
                    m.load_program(tile, core, &p).expect("ok");
                }
            }
            let stats = m.run_until_halt(1_000_000).expect("halts");
            assert!(m.in_flight.is_empty());
            // Ids count injection attempts; completed remote accesses
            // count the accepted injections.
            let attempts = m.fabric_mut().allocate_id();
            (
                stats,
                attempts,
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
            )
        };
        let dense = run(Stepping::Dense);
        assert_eq!(dense.0.remote_accesses, 15 * 14 * 8 + 14 * 4);
        assert!(
            dense.1 > dense.0.remote_accesses,
            "no injection was refused: {} attempts, {} accesses",
            dense.1,
            dense.0.remote_accesses
        );
        assert_eq!(run(Stepping::Wheel), dense);
    }

    #[test]
    fn core_mut_wakes_a_wheel_machine() {
        // Direct core mutation must invalidate the cached liveness so a
        // manually reset machine does not spin forever (or exit early).
        let mut m = machine(2);
        let local = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 41)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        m.run_until_halt(1_000).expect("halts");
        assert_eq!(m.read_word(local).expect("ok"), 41);
        // Reload the same core through load_program and run again.
        let program2 = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 42)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program2)
            .expect("ok");
        m.run_until_halt(1_000).expect("halts");
        assert_eq!(m.read_word(local).expect("ok"), 42);
    }
}
