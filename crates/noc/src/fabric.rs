//! The reusable cycle-level NoC fabric engine.
//!
//! [`Fabric`] owns everything that happens *between* endpoints on the dual
//! dimension-ordered mesh: per-tile router FIFOs (one input queue per side
//! plus a local injection queue, per network), round-robin link arbitration
//! with backpressure, and relay re-injection at intermediate tiles when a
//! pair rides a two-leg [`NetworkChoice::Relay`] route. Endpoint policy —
//! who injects what, when responses are generated, what statistics a
//! traffic study keeps — lives with the caller: the synthetic-traffic
//! simulator ([`crate::traffic::NocSim`]) and the ISA-level machine in
//! `waferscale::machine` both drive this same engine.
//!
//! The API is deliberately small: [`Fabric::inject`] enqueues a packet at
//! its source tile, [`Fabric::tick`] advances one cycle and returns the
//! packets that reached their *final* destination this cycle (relay legs
//! are handled internally), and [`Fabric::drain`] ticks until the network
//! is empty. Per-link statistics (forwarded packets, stall cycles, peak
//! queue occupancy) expose where contention concentrates.
//!
//! # The per-cycle contract
//!
//! A cycle is synchronous, as in the paper's mesh: every router decides
//! its grants once, against the state its FIFOs held at the *start* of
//! the cycle. Each output port grants one input-FIFO head round-robin
//! (one read port per FIFO, so each FIFO pops at most once per cycle); a
//! granted head moves one hop unless the downstream input FIFO was full
//! when the cycle began, in which case the link stalls even if that FIFO
//! also drains this cycle. Moves take effect in canonical `(network,
//! tile, output port)` order.
//!
//! [`Fabric::tick_into`] realises this in a single pass per network that
//! decides and applies each occupied tile's grants on the spot, while
//! every decision still reads pre-cycle state:
//!
//! - a tile's grants read a snapshot of its own head routes taken before
//!   any of its pops, and a grant writes only the round-robin pointer of
//!   the port it was made on, so a tile's own pops cannot disturb its
//!   later output ports;
//! - pop stamps reconstruct the pre-cycle length: each link FIFO pops at
//!   most once per cycle and stamps the pop with the tick that made it,
//!   so `len + (popped this tick)` is the length the FIFO held when the
//!   cycle began;
//! - arrivals are staged and pushed only after the network's pass, so no
//!   FIFO grows mid-cycle and no packet moves twice in one cycle;
//! - ejections resolve after both networks: relay packets reaching their
//!   intermediate tile re-inject on its local queue, the rest are
//!   delivered, in the order they were ejected. The two networks share
//!   no queue state, so walking network 0 fully before network 1 is the
//!   canonical order.
//!
//! `crates/noc/tests/reference_fabric.rs` checks this pass tick by tick
//! against an independent, deliberately plain reference: a snapshot-then-
//! commit update over `VecDeque` FIFOs.
//!
//! # Data layout
//!
//! In-flight packets live in one struct-of-arrays
//! [`PacketArena`](crate::arena::PacketArena). Router FIFOs hold packed
//! 16-byte entries: an arena index plus the packet's per-hop hot state,
//! including its output port at the tile that holds it. A hop therefore
//! moves 16 bytes instead of a ~48-byte packet. The port comes from an
//! 18-entry `[network][sign dx][sign dy]` table, with no branches.
//!
//! The backpressure check bounds every link FIFO at the link depth, so
//! each network stores all of them inline, in one flat array of
//! `depth`-entry rings, with each ring's head and length in its tile's
//! one-cache-line [`Router`]. Only the local injection FIFO, which
//! [`Fabric::inject_unbounded`] may grow without a cap, is a
//! [`PacketRing`](crate::fifo::PacketRing).
//!
//! All per-tick scratch (staged arrivals, ejected entries) is owned by
//! the fabric and cleared, not reallocated — the steady-state tick
//! performs **zero heap allocations** (pinned by a counting-allocator
//! regression test).
//!
//! # Active-set scheduling
//!
//! A tile whose five input FIFOs are all empty on a network cannot make
//! a move, a stall, or a round-robin update on that network, so sweeping it
//! is pure overhead. Each [`Network`] therefore keeps a per-tile occupancy
//! count plus one flat occupancy bitmask (`occ_mask`, bit `t % 64` of word
//! `t / 64` set iff tile `t` holds a packet), both maintained at every
//! push and pop. Every tick, in either stepping mode, walks the set bits
//! with `trailing_zeros` in ascending tile order, so the move stream, and
//! therefore every counter and every packet, is exactly the one a sweep
//! over all tiles would produce, at any array width. The per-tick
//! active-set sample is the O(1) occupied-tile counter, not a walk.
//!
//! [`Stepping`] only decides what happens *between* ticks: under the
//! default [`Stepping::Wheel`] the callers
//! ([`crate::traffic::NocSim`], the machine) jump an empty fabric across
//! idle windows with [`Fabric::skip_cycles`], which replays the skipped
//! per-cycle bookkeeping in bulk; [`Stepping::Dense`] ticks every cycle
//! and is the reference the equivalence tests and the CI byte-compare
//! gate run against.
//!
//! # Examples
//!
//! ```
//! use wsp_noc::{Fabric, FabricPacket, NetworkChoice, NetworkKind, PacketKind};
//! use wsp_topo::{TileArray, TileCoord};
//!
//! let array = TileArray::new(4, 4);
//! let mut fabric = Fabric::new(array, 4);
//! let id = fabric.allocate_id();
//! let packet = FabricPacket::request(
//!     id,
//!     TileCoord::new(0, 0),
//!     TileCoord::new(3, 3),
//!     NetworkChoice::Direct(NetworkKind::Xy),
//!     fabric.cycle(),
//! );
//! assert!(fabric.inject(packet));
//! let delivered = fabric.drain();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].dst, TileCoord::new(3, 3));
//! assert_eq!(delivered[0].kind, PacketKind::Request);
//! ```

use wsp_common::stepping::Stepping;
use wsp_telemetry::{
    DigestJournal, Fnv1a, Histogram, LaneId, NoopSink, PhaseProfiler, Sink, TimeSeries,
};
use wsp_topo::{Direction, TileArray, TileCoord, DIRECTIONS};

use crate::arena::PacketArena;
use crate::fifo::PacketRing;
use crate::kernel::NetworkChoice;
use crate::routing::NetworkKind;

/// Index of the local injection/ejection port in each router's queue array.
const LOCAL: usize = 4;

/// Sentinel in [`Network::head_out`] for an empty input FIFO.
const EMPTY_HEAD: u8 = u8::MAX;

/// `DIRECTIONS[i].opposite().index()` as a table: N↔S, E↔W.
const OPPOSITE: [usize; 4] = [1, 0, 3, 2];

/// Sentinel in the precomputed neighbour-index table for "off the array".
const NO_NEIGHBOR: u32 = u32::MAX;

/// The local injection FIFO is deeper than a link FIFO by this factor —
/// it models the tile's outbound staging buffer in local SRAM.
const LOCAL_QUEUE_FACTOR: usize = 4;

/// One router-FIFO entry: the arena slot plus everything the steady-state
/// loop needs about the packet's current leg — the cached output port *at
/// this tile*, the current-leg target and network, and the hop count —
/// packed into one `u128`. A forward therefore moves a packet hop-to-hop
/// without ever touching the (randomly-indexed) arena: the arena is read
/// only at injection, relay re-injection, and delivery.
///
/// Layout: bits 0–31 slot, 32–39 output port, 40–55 target x, 56–71
/// target y, 72–79 network, 80–111 hops.
#[derive(Clone, Copy, Default)]
struct RingEntry(u128);

impl RingEntry {
    fn new(slot: u32, out: u8, target: TileCoord, net: NetworkKind, hops: u32) -> Self {
        RingEntry(
            u128::from(slot)
                | u128::from(out) << 32
                | u128::from(target.x) << 40
                | u128::from(target.y) << 56
                | u128::from(net as u8) << 72
                | u128::from(hops) << 80,
        )
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The cached output port at the tile whose FIFO holds this entry.
    fn out(self) -> u8 {
        (self.0 >> 32) as u8
    }

    fn target(self) -> TileCoord {
        TileCoord::new((self.0 >> 40) as u16, (self.0 >> 56) as u16)
    }

    fn net(self) -> NetworkKind {
        if (self.0 >> 72) as u8 == 0 {
            NetworkKind::Xy
        } else {
            NetworkKind::Yx
        }
    }

    fn hops(self) -> u32 {
        (self.0 >> 80) as u32
    }

    /// The same entry with its cached output port replaced by `out`.
    fn with_out(self, out: u8) -> Self {
        RingEntry(self.0 & !(0xffu128 << 32) | u128::from(out) << 32)
    }

    /// The same entry with one more link traversal recorded.
    fn bumped(self) -> Self {
        RingEntry(self.0 + (1u128 << 80))
    }
}

/// Output port by `[network][sign dx][sign dy]` (sign index 0 = target
/// behind, 1 = level, 2 = ahead): XY exhausts x before turning, YX
/// exhausts y; a packet at its target ejects on [`LOCAL`].
const PORT_TABLE: [[[u8; 3]; 3]; 2] = [
    // XY: x first (W / E), then y (N / S).
    [[3, 3, 3], [0, LOCAL as u8, 1], [2, 2, 2]],
    // YX: y first (N / S), then x (W / E).
    [[0, 3, 1], [0, LOCAL as u8, 1], [0, 2, 1]],
];

/// The output port a packet heading for `target` on `net` takes at
/// `tile`: the local ejection port at its endpoint, otherwise the
/// dimension-ordered next-hop direction. One table load, no branches.
#[inline]
fn out_port_for(tile: TileCoord, target: TileCoord, net: NetworkKind) -> u8 {
    let sx = usize::from(target.x > tile.x) + usize::from(target.x >= tile.x);
    let sy = usize::from(target.y > tile.y) + usize::from(target.y >= tile.y);
    PORT_TABLE[net as usize][sx][sy]
}

/// What a packet is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Travelling src→dst on the leg networks the kernel chose.
    Request,
    /// Travelling dst→src on the complementary networks, retracing the
    /// request's physical path in reverse.
    Response,
}

/// A single-flit packet in flight on the fabric (the 100-bit packet of
/// Sec. VI — payload narrow enough that every message is one flit).
#[derive(Debug, Clone, Copy)]
pub struct FabricPacket {
    /// Caller-allocated identifier (see [`Fabric::allocate_id`]); the
    /// fabric never interprets it, endpoints use it to match traffic.
    pub id: u64,
    /// Tile where this packet entered the fabric.
    pub src: TileCoord,
    /// Final destination tile.
    pub dst: TileCoord,
    /// The kernel's routing decision for the pair.
    pub choice: NetworkChoice,
    /// Request or response.
    pub kind: PacketKind,
    /// Which leg of a relayed route this packet is on (always 0 for
    /// direct routes). Crate-visible so the packet arena can mirror it
    /// into its packed metadata column.
    pub(crate) leg: u8,
    /// Fabric cycle at which the *request* was injected; responses inherit
    /// it so the delivery cycle minus this is the round-trip time.
    pub injected_at: u64,
    /// Link traversals so far, across both legs and both packets of the
    /// request/response pair.
    pub hops: u32,
}

impl FabricPacket {
    /// A fresh request packet on leg 0.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is [`NetworkChoice::Disconnected`]: unreachable
    /// pairs must be rejected before touching the fabric.
    pub fn request(
        id: u64,
        src: TileCoord,
        dst: TileCoord,
        choice: NetworkChoice,
        now: u64,
    ) -> Self {
        assert!(
            choice != NetworkChoice::Disconnected,
            "disconnected packets are never injected"
        );
        FabricPacket {
            id,
            src,
            dst,
            choice,
            kind: PacketKind::Request,
            leg: 0,
            injected_at: now,
            hops: 0,
        }
    }

    /// The response to a delivered request: same id and route choice,
    /// endpoints swapped, travelling on the complementary networks.
    /// `injected_at` and `hops` carry over so the delivery cycle yields
    /// the round-trip latency.
    pub fn response(request: &FabricPacket) -> Self {
        debug_assert_eq!(request.kind, PacketKind::Request);
        FabricPacket {
            id: request.id,
            src: request.dst,
            dst: request.src,
            choice: request.choice,
            kind: PacketKind::Response,
            leg: 0,
            injected_at: request.injected_at,
            hops: request.hops,
        }
    }

    /// The network carrying the present leg.
    fn network(&self) -> NetworkKind {
        self.choice
            .leg_network(self.kind == PacketKind::Response, self.leg)
    }
}

/// Per-tile router hot state, packed into exactly one cache line so a
/// tile visit touches one line for its own arbitration state and
/// one line per downstream backpressure probe. The tick loop is
/// memory-bound on random tile access; this layout is the perf lever.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Router {
    /// Length of each *link-side* input FIFO (ports 0..4; the local FIFO
    /// is never a forward destination). Exact, because [`Fabric::new`]
    /// bounds `queue_capacity` to `u16::MAX`; co-located with
    /// `popped_at` so the backpressure probe is one line.
    link_len: [u16; 4],
    /// Ring position of each link-side FIFO's head within its slice of
    /// [`Network::link_slots`].
    link_head: [u16; 4],
    /// Routing decision at each FIFO head (`EMPTY_HEAD` when empty), so
    /// arbitration reads a flat `[u8; 5]` instead of chasing five queue
    /// heads through the routing kernel. Valid because a queued packet's
    /// route is fixed while it waits: the only `leg` mutation happens
    /// between an eject pop and a fresh relay [`push_local`](Network::push_local).
    head_out: [u8; 5],
    /// Round-robin pointers, one per output port; values 0..5.
    rr: [u8; 5],
    /// Tick stamp of the most recent pop from each link-side FIFO. The
    /// tick reconstructs a downstream FIFO's pre-cycle length as
    /// `len + (popped_at == current tick)` — valid because each FIFO pops
    /// at most once per cycle and pushes are deferred to the end of the
    /// network pass.
    popped_at: [u64; 4],
}

impl Router {
    fn new() -> Self {
        Router {
            link_len: [0; 4],
            link_head: [0; 4],
            head_out: [EMPTY_HEAD; 5],
            rr: [0; 5],
            popped_at: [0; 4],
        }
    }
}

/// One mesh network's router state: five input FIFOs per tile
/// (N, S, E, W, local injection), plus the active-set tracker.
///
/// FIFO entries carry the packet's whole per-hop hot state (see
/// [`RingEntry`]), so the head-route refresh after a pop reads the next
/// entry off the ring line just touched instead of chasing the next
/// packet's (cold) arena line — and a forward re-derives the downstream
/// output port from the entry alone. Packet fields live in the shared
/// [`PacketArena`] owned by [`Fabric`].
struct Network {
    /// Every link-side input FIFO, inline: FIFO `port` of tile `t` is
    /// the `link_cap`-entry ring `link_slots[(4 * t + port) * link_cap..]`
    /// whose head and length live in `routers[t]`. The tick's
    /// backpressure check bounds these FIFOs, so they never grow; at the
    /// default depth of 4 one FIFO is one cache line of entries.
    link_slots: Vec<RingEntry>,
    /// Depth of every link-side FIFO (the fabric's `queue_capacity`).
    link_cap: usize,
    /// Each tile's local injection FIFO — the one queue without a hard
    /// cap, since [`Fabric::inject_unbounded`] buffers responses in it.
    local: Vec<PacketRing<RingEntry>>,
    /// One-cache-line hot state per tile; see [`Router`].
    routers: Vec<Router>,
    /// Packets queued at each tile across all five FIFOs. The invariant
    /// `occ[t] > 0 ⟺ t can make a move/stall/rr-update` is what lets a
    /// tick visit only occupied tiles and still match a full sweep.
    occ: Vec<u32>,
    /// Flat occupancy bitmask: bit `t % 64` of `occ_mask[t / 64]` is set
    /// iff `occ[t] > 0`. Ticks walk set bits with `trailing_zeros`, in
    /// ascending tile order, instead of touching every idle tile.
    occ_mask: Vec<u64>,
    /// Tiles with `occ > 0`, maintained in O(1) at every push and pop —
    /// the per-tick active-set sample.
    live: usize,
    /// Packets queued across all tiles (the sum of `occ`), so
    /// [`Fabric::in_flight`] is O(1) for the callers that test it every
    /// cycle.
    queued: usize,
}

impl Network {
    fn new(array: TileArray, queue_capacity: usize) -> Self {
        let tiles = array.tile_count();
        Network {
            link_slots: vec![RingEntry::default(); tiles * 4 * queue_capacity],
            link_cap: queue_capacity,
            // The local FIFO starts at its bounded-inject depth and grows
            // only under `inject_unbounded` response buffering.
            local: (0..tiles)
                .map(|_| PacketRing::with_capacity(queue_capacity * LOCAL_QUEUE_FACTOR))
                .collect(),
            routers: vec![Router::new(); tiles],
            occ: vec![0; tiles],
            occ_mask: vec![0; tiles.div_ceil(64)],
            live: 0,
            queued: 0,
        }
    }

    /// Start of FIFO `port`'s ring (a link side, `port < LOCAL`) of
    /// `tile_idx` in `link_slots`.
    #[inline]
    fn link_base(&self, tile_idx: usize, port: usize) -> usize {
        (4 * tile_idx + port) * self.link_cap
    }

    /// Enqueues `entry`, whose output port at this tile is `entry.out()`,
    /// into link-side FIFO `port` of `tile_idx`. The caller has checked
    /// backpressure, so the FIFO has room.
    #[inline]
    fn push_link(&mut self, tile_idx: usize, port: usize, entry: RingEntry) {
        let base = self.link_base(tile_idx, port);
        let router = &mut self.routers[tile_idx];
        let len = usize::from(router.link_len[port]);
        assert!(len < self.link_cap, "backpressure bounds link FIFOs");
        let mut pos = usize::from(router.link_head[port]) + len;
        if pos >= self.link_cap {
            pos -= self.link_cap;
        }
        self.link_slots[base + pos] = entry;
        if len == 0 {
            router.head_out[port] = entry.out();
        }
        router.link_len[port] += 1;
        self.note_push(tile_idx);
    }

    /// Enqueues `entry` into the local injection FIFO of `tile_idx`.
    #[inline]
    fn push_local(&mut self, tile_idx: usize, entry: RingEntry) {
        let queue = &mut self.local[tile_idx];
        queue.push(entry);
        if queue.len() == 1 {
            self.routers[tile_idx].head_out[LOCAL] = entry.out();
        }
        self.note_push(tile_idx);
    }

    /// Dequeues the head of FIFO `port` at `tile_idx`, refreshing the
    /// cached routing decision for the new head (off the ring entry, not
    /// the arena) and stamping a link-side pop with `tick` (the
    /// pre-cycle-length witness). All fabric pops go through here.
    #[inline]
    fn pop(&mut self, tile_idx: usize, port: usize, tick: u64) -> RingEntry {
        let entry = if port < LOCAL {
            let base = self.link_base(tile_idx, port);
            let router = &mut self.routers[tile_idx];
            assert!(router.link_len[port] > 0, "granted head");
            let head = usize::from(router.link_head[port]);
            let entry = self.link_slots[base + head];
            let next = if head + 1 == self.link_cap {
                0
            } else {
                head + 1
            };
            router.link_head[port] = next as u16;
            router.link_len[port] -= 1;
            router.head_out[port] = if router.link_len[port] == 0 {
                EMPTY_HEAD
            } else {
                self.link_slots[base + next].out()
            };
            router.popped_at[port] = tick;
            entry
        } else {
            let queue = &mut self.local[tile_idx];
            let entry = queue.pop().expect("granted head");
            self.routers[tile_idx].head_out[LOCAL] = queue.front().map_or(EMPTY_HEAD, |e| e.out());
            entry
        };
        self.note_pop(tile_idx);
        entry
    }

    /// Packets queued in FIFO `port` of `tile_idx`.
    fn fifo_len(&self, tile_idx: usize, port: usize) -> usize {
        if port == LOCAL {
            self.local[tile_idx].len()
        } else {
            usize::from(self.routers[tile_idx].link_len[port])
        }
    }

    /// Calls `f` on each entry of FIFO `port` at `tile_idx`, head to tail.
    fn for_each_entry(&self, tile_idx: usize, port: usize, mut f: impl FnMut(RingEntry)) {
        if port == LOCAL {
            self.local[tile_idx].iter().for_each(f);
            return;
        }
        let base = self.link_base(tile_idx, port);
        let head = usize::from(self.routers[tile_idx].link_head[port]);
        for i in 0..self.fifo_len(tile_idx, port) {
            f(self.link_slots[base + (head + i) % self.link_cap]);
        }
    }

    /// Registers one packet pushed into any FIFO of `tile_idx`.
    #[inline]
    fn note_push(&mut self, tile_idx: usize) {
        self.queued += 1;
        self.occ[tile_idx] += 1;
        if self.occ[tile_idx] == 1 {
            self.live += 1;
            self.occ_mask[tile_idx / 64] |= 1u64 << (tile_idx % 64);
        }
    }

    /// Registers one packet popped from any FIFO of `tile_idx`.
    #[inline]
    fn note_pop(&mut self, tile_idx: usize) {
        self.queued -= 1;
        self.occ[tile_idx] -= 1;
        if self.occ[tile_idx] == 0 {
            self.live -= 1;
            self.occ_mask[tile_idx / 64] &= !(1u64 << (tile_idx % 64));
        }
    }
}

/// Per-link counters kept by the fabric. A "link" is the connection
/// leaving a tile in one of the four directions on one network.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets that traversed this link.
    pub forwarded: u64,
    /// Cycles an arbitration winner could not traverse this link because
    /// the downstream input FIFO was full — the contention signal.
    pub stall_cycles: u64,
    /// Highest occupancy the downstream input FIFO ever reached.
    pub peak_occupancy: usize,
}

/// Reusable per-tick scratch owned by [`Fabric`] — cleared every tick,
/// reallocated never. Holding these across ticks is what makes the
/// steady-state tick allocation-free.
#[derive(Default)]
struct TickScratch {
    /// Staged link arrivals `(net, dest tile, in side, entry)` — the
    /// entry's hop count already bumped — pushed in order after the
    /// network's pass.
    arrivals: Vec<(u8, u32, u8, RingEntry)>,
    /// Entries ejected at their endpoint this tick, in canonical
    /// `(network, tile, output port)` order.
    ejected: Vec<RingEntry>,
}

/// The reusable dual-network fabric engine. See the module docs for the
/// contract; construction is per fault-free [`TileArray`] geometry — the
/// caller is responsible for only injecting packets whose
/// [`NetworkChoice`] avoids faulty tiles (the kernel's job).
pub struct Fabric {
    array: TileArray,
    queue_capacity: usize,
    /// Row-major tile coordinates, so the hot loop never divides.
    coords: Vec<TileCoord>,
    /// Neighbour tile index per `(tile, direction)`, [`NO_NEIGHBOR`] off
    /// the edge — the hot loop's replacement for coordinate arithmetic.
    neighbors: Vec<[u32; 4]>,
    networks: [Network; 2],
    /// Struct-of-arrays store of every in-flight packet; router FIFOs
    /// hold indices into it. Freed slots recycle, so steady-state
    /// traffic reaches a fixed footprint.
    arena: PacketArena,
    /// Per-tick scratch buffers, cleared not reallocated.
    scratch: TickScratch,
    /// Per-link stats: `[network][tile][direction]`.
    links: [Vec<[LinkStats; 4]>; 2],
    cycle: u64,
    /// Ticks actually executed (excludes cycles jumped by
    /// [`Fabric::skip_cycles`]) — the wall-clock-free gauge the
    /// O(events)-termination tests assert on.
    ticks: u64,
    next_id: u64,
    relay_forwards: u64,
    link_traversals: u64,
    /// Event-wheel stepping (default) or the dense reference sweep.
    /// Results are bit-identical either way.
    stepping: Stepping,
    /// Per-tick active-set sizes (occupied tiles summed over both
    /// networks), sampled in *both* stepping modes so the exported
    /// telemetry is independent of the mode.
    active_tiles: Histogram,
    /// Telemetry sink; [`NoopSink`] by default so the hot path pays one
    /// `enabled()` virtual call per tick when tracing is off.
    sink: Box<dyn Sink>,
    /// Sampling cadence for the bounded time series below (0 = off).
    sample_every: u64,
    /// Per-tick gauge series `(name, series)`: active tiles, per-network
    /// queue occupancy, packets in flight. Sampled from pre-cycle queue
    /// state, so the series are pure functions of architectural state —
    /// bit-identical across stepping modes.
    samples: [(&'static str, TimeSeries); 4],
    /// Determinism-digest journal; `None` when digests are off. Lanes are
    /// recorded from post-cycle router state every `journal.every()`
    /// cycles. The machine also records its per-tile lanes here (same
    /// cycle domain — it ticks this fabric once per machine step).
    journal: Option<DigestJournal>,
    /// Wall-clock attribution of each tick (the `fused` phase). Disabled
    /// by default; never feeds deterministic output.
    profiler: PhaseProfiler,
}

impl Fabric {
    /// A fabric over `array` with the given per-link input FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` exceeds `u16::MAX`: link FIFO lengths
    /// are mirrored as `u16` in the one-cache-line [`Router`] hot state.
    pub fn new(array: TileArray, queue_capacity: usize) -> Self {
        assert!(
            queue_capacity <= u16::MAX as usize,
            "link FIFO depth must fit in u16"
        );
        let tiles = array.tile_count();
        let coords: Vec<TileCoord> = (0..tiles).map(|i| array.coord_of(i)).collect();
        let neighbors: Vec<[u32; 4]> = coords
            .iter()
            .map(|&tile| {
                let mut nb = [NO_NEIGHBOR; 4];
                for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                    if let Some(n) = array.neighbor(tile, dir) {
                        nb[d] = array.index_of(n) as u32;
                    }
                }
                nb
            })
            .collect();
        Fabric {
            array,
            queue_capacity,
            coords,
            neighbors,
            networks: [
                Network::new(array, queue_capacity),
                Network::new(array, queue_capacity),
            ],
            arena: PacketArena::default(),
            scratch: TickScratch::default(),
            links: [
                vec![[LinkStats::default(); 4]; tiles],
                vec![[LinkStats::default(); 4]; tiles],
            ],
            cycle: 0,
            ticks: 0,
            next_id: 0,
            relay_forwards: 0,
            link_traversals: 0,
            stepping: Stepping::default(),
            active_tiles: Histogram::new(),
            sink: Box::new(NoopSink),
            sample_every: 0,
            samples: Self::make_samples(0),
            journal: None,
            profiler: PhaseProfiler::new(false),
        }
    }

    /// The fabric's four sampled gauge series at cadence `every`.
    fn make_samples(every: u64) -> [(&'static str, TimeSeries); 4] {
        [
            ("fabric.active_tiles", TimeSeries::new(every)),
            ("fabric.net0.occupancy", TimeSeries::new(every)),
            ("fabric.net1.occupancy", TimeSeries::new(every)),
            ("fabric.in_flight", TimeSeries::new(every)),
        ]
    }

    /// Selects the stepping mode (default: [`Stepping::Wheel`]).
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
    }

    /// The current stepping mode.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Installs a telemetry sink. Each endpoint delivery then emits a
    /// `fabric` span from injection to delivery (track = destination tile
    /// index), so request/response life-times appear on the trace timeline.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// Enables per-tick gauge sampling every `every` cycles (0 = off, the
    /// default). Resets any previously collected series. The sampled
    /// values are pure functions of queue state, so the series land in
    /// the deterministic bench report.
    pub fn set_sampling(&mut self, every: u64) {
        self.sample_every = every;
        self.samples = Self::make_samples(every);
    }

    /// Sampling cadence in cycles (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The collected gauge series as `(name, series)` pairs.
    pub fn timeseries(&self) -> impl Iterator<Item = (&'static str, &TimeSeries)> {
        self.samples.iter().map(|(name, s)| (*name, s))
    }

    /// Enables determinism digests every `every` cycles (0 = off, the
    /// default). Resets any previously recorded journal.
    pub fn set_digests(&mut self, every: u64) {
        self.journal =
            (every != 0).then(|| DigestJournal::new(every, self.array.cols(), self.array.rows()));
    }

    /// The determinism-digest journal recorded so far, if digests are on.
    pub fn journal(&self) -> Option<&DigestJournal> {
        self.journal.as_ref()
    }

    /// Mutable journal access, for an owning machine recording its own
    /// per-tile lanes into the shared cycle domain.
    pub fn journal_mut(&mut self) -> Option<&mut DigestJournal> {
        self.journal.as_mut()
    }

    /// Turns wall-clock phase profiling of the tick (`fused`) on or off.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// The accumulated phase timings.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Exports phase timings as `wall.profile.<prefix><phase>.*` gauges
    /// (`prefix` is `"fabric."` standalone, `"machine.fabric."` when the
    /// machine re-roots them under its own tree).
    pub fn export_profile(&self, sink: &mut dyn Sink, prefix: &str) {
        self.profiler.export(sink, prefix);
    }

    /// The geometry this fabric spans.
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Cycles ticked so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Allocates the next packet id. Ids are consumed even if the
    /// subsequent [`inject`](Fabric::inject) is refused, so id sequences
    /// are stable under backpressure.
    pub fn allocate_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Enqueues `packet` in the local injection FIFO of its `src` tile.
    /// Returns `false` (dropping the packet) when that FIFO is full —
    /// injection backpressure the endpoint must handle by retrying later.
    pub fn inject(&mut self, packet: FabricPacket) -> bool {
        let net = packet.network() as usize;
        let idx = self.array.index_of(packet.src);
        if self.networks[net].local[idx].len() < self.queue_capacity * LOCAL_QUEUE_FACTOR {
            let slot = self.arena.alloc(&packet);
            self.push_local(idx, slot, packet.hops);
            true
        } else {
            false
        }
    }

    /// Enqueues `packet` at its `src` tile without a capacity check:
    /// response traffic regenerated at a destination is buffered in that
    /// tile's local memory rather than refused.
    pub fn inject_unbounded(&mut self, packet: FabricPacket) {
        let idx = self.array.index_of(packet.src);
        let slot = self.arena.alloc(&packet);
        self.push_local(idx, slot, packet.hops);
    }

    /// Enqueues arena slot `slot`, with `hops` traversals so far, on the
    /// local FIFO of tile `idx` in the network of its present leg. The
    /// slot's output port at this tile is computed once here and packed
    /// into the entry, so later head refreshes and forwards never go
    /// back to the arena.
    fn push_local(&mut self, idx: usize, slot: u32, hops: u32) {
        let target = self.arena.leg_target(slot);
        let net = self.arena.network_of(slot);
        let out = out_port_for(self.coords[idx], target, net);
        self.networks[net as usize].push_local(idx, RingEntry::new(slot, out, target, net, hops));
    }

    /// Packets currently queued anywhere in the fabric.
    pub fn in_flight(&self) -> usize {
        self.networks[0].queued + self.networks[1].queued
    }

    /// Packets currently resident in the arena. Always equals
    /// [`Fabric::in_flight`] between ticks — the leak invariant the
    /// proptest harness asserts after every drain.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Total arena slots ever allocated — the high-water in-flight
    /// footprint (slots recycle; this never shrinks).
    pub fn arena_slots(&self) -> usize {
        self.arena.slots()
    }

    /// Advances one cycle: every router grants each output port to one
    /// input FIFO head round-robin, winners move one hop (or stall on a
    /// full downstream FIFO), relay packets reaching their intermediate
    /// tile are re-injected on their second leg, and packets reaching
    /// their final endpoint are returned in arbitration order.
    ///
    /// Every grant reads the *pre-cycle* state (so each input FIFO pops
    /// at most once per cycle — one read port per FIFO — and a full
    /// downstream FIFO stalls the link even if it also drains this
    /// cycle), and moves take effect in `(network, tile, output port)`
    /// order; see the module docs for how one pass per network keeps
    /// that contract.
    pub fn tick(&mut self) -> Vec<FabricPacket> {
        let mut delivered = Vec::new();
        self.tick_into(&mut delivered);
        delivered
    }

    /// [`Fabric::tick`] into a caller-owned delivery buffer, which is
    /// cleared first — the allocation-free form hot drivers loop on.
    pub fn tick_into(&mut self, delivered: &mut Vec<FabricPacket>) {
        delivered.clear();
        self.cycle += 1;
        self.ticks += 1;

        // Sample the active set in both stepping modes from the O(1)
        // occupied-tile counters: a pure function of queue state, so the
        // exported histogram is identical across modes.
        let active = self.networks[0].live + self.networks[1].live;
        self.active_tiles.record(active as u64);

        // Gauge sampling reads the same pre-cycle queue state the sample
        // above does; all four series share a cadence, so gating all of
        // them on the first one's acceptance test is exact.
        if self.sample_every != 0 && self.samples[0].1.wants(self.cycle) {
            let cycle = self.cycle;
            let occ0 = self.networks[0].queued;
            let occ1 = self.networks[1].queued;
            self.samples[0].1.record(cycle, active as f64);
            self.samples[1].1.record(cycle, occ0 as f64);
            self.samples[2].1.record(cycle, occ1 as f64);
            self.samples[3].1.record(cycle, (occ0 + occ1) as f64);
        }

        let fused_timer = self.profiler.start();
        self.fused_walk(0);
        self.fused_walk(1);
        self.resolve_ejected(delivered);
        self.profiler.stop("fused", fused_timer);

        // Digest window boundary: fingerprint every router's post-cycle
        // state (queue contents and round-robin pointers) into per-lane
        // journal entries. Per-lane dedup means idle routers cost no
        // journal space; the walk itself runs only every K cycles.
        if self.journal.as_ref().is_some_and(|j| j.wants(self.cycle)) {
            self.record_net_lanes(self.cycle);
        }

        if self.sink.enabled() {
            for p in delivered.iter() {
                let name = match p.kind {
                    PacketKind::Request => "request",
                    PacketKind::Response => "response",
                };
                let track = self.array.index_of(p.dst) as u64;
                self.sink
                    .span("fabric", name, track, p.injected_at, self.cycle);
            }
        }
    }

    /// The single pass over one network: decides each occupied tile's
    /// grants against reconstructed pre-cycle state and applies them
    /// immediately, staging arrivals until the pass completes. See the
    /// module docs for the pre-cycle contract.
    fn fused_walk(&mut self, net_idx: usize) {
        // Copy each mask word before walking it: the walk only clears
        // bits of the tile it is visiting (pops at that tile), and pushes
        // are staged, so the copy is exactly the pre-cycle occupancy.
        for word in 0..self.networks[net_idx].occ_mask.len() {
            let mut bits = self.networks[net_idx].occ_mask[word];
            while bits != 0 {
                self.fuse_tile(net_idx, word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.commit_arrivals();
    }

    /// Decides and applies one tile's grants on one network.
    fn fuse_tile(&mut self, net_idx: usize, tile_idx: usize) {
        let tick = self.ticks;
        let Fabric {
            queue_capacity,
            neighbors,
            networks,
            links,
            scratch,
            ..
        } = self;
        let network = &mut networks[net_idx];
        // Snapshot the head routes before any of this tile's own pops
        // refresh them — the pre-cycle heads.
        let head_out = network.routers[tile_idx].head_out;
        // An empty head (`EMPTY_HEAD & 7 == 7`) lands in unused slot 7,
        // so building the contender sets takes no branches; `ports` marks
        // the output ports that have any contender.
        let mut want = [0u8; 8];
        let mut ports = 0u32;
        for (in_port, &out) in head_out.iter().enumerate() {
            let out = usize::from(out & 7);
            want[out] |= 1 << in_port;
            ports |= 1 << out;
        }
        ports &= 0x1f;
        while ports != 0 {
            let out_port = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let contenders = u32::from(want[out_port]);
            // Branchless round-robin grant: rotate the 5-bit contender
            // mask so the pointer sits at bit 0; the winner is then the
            // lowest set bit — the first hit of a `(start + o) % 5` scan.
            let start = usize::from(network.routers[tile_idx].rr[out_port]);
            let rotated = ((contenders >> start) | (contenders << (5 - start))) & 0x1f;
            let in_port = (start + rotated.trailing_zeros() as usize) % 5;
            if out_port == LOCAL {
                let entry = network.pop(tile_idx, in_port, tick);
                network.routers[tile_idx].rr[LOCAL] = ((in_port + 1) % 5) as u8;
                scratch.ejected.push(entry);
                continue;
            }
            let nb_idx = neighbors[tile_idx][out_port];
            debug_assert_ne!(nb_idx, NO_NEIGHBOR, "DoR never routes off the array");
            let nb_idx = nb_idx as usize;
            let in_side = OPPOSITE[out_port];
            // Pre-cycle occupancy of the downstream FIFO: it pops at
            // most once per cycle (stamped), and its arrivals are still
            // staged, so adding the pop back reconstructs the length it
            // held when the cycle began. Each input FIFO is fed by one
            // upstream link, so at most one push lands per cycle and
            // the check cannot oversubscribe. One cache line: the
            // neighbour's length mirror and pop stamp share a `Router`.
            let nb_router = &network.routers[nb_idx];
            let pre_len = usize::from(nb_router.link_len[in_side])
                + usize::from(nb_router.popped_at[in_side] == tick);
            if pre_len < *queue_capacity {
                let entry = network.pop(tile_idx, in_port, tick);
                network.routers[tile_idx].rr[out_port] = ((in_port + 1) % 5) as u8;
                // Link stats land in `commit_arrivals`, which touches
                // the same cache lines anyway.
                scratch.arrivals.push((
                    net_idx as u8,
                    nb_idx as u32,
                    in_side as u8,
                    entry.bumped(),
                ));
            } else {
                links[net_idx][tile_idx][out_port].stall_cycles += 1;
            }
        }
    }

    /// Pushes the staged arrivals into their destination FIFOs in order,
    /// attributing peak occupancy to the upstream link that fed each.
    fn commit_arrivals(&mut self) {
        let Fabric {
            coords,
            neighbors,
            networks,
            links,
            scratch,
            link_traversals,
            ..
        } = self;
        *link_traversals += scratch.arrivals.len() as u64;
        for &(net, nb_idx, in_side, entry) in &scratch.arrivals {
            let (net, tile, port) = (net as usize, nb_idx as usize, in_side as usize);
            let network = &mut networks[net];
            let out = out_port_for(coords[tile], entry.target(), entry.net());
            network.push_link(tile, port, entry.with_out(out));
            // `port` is the receiving side, which faces back toward the
            // sender; attribute the traversal and the peak to the
            // upstream link feeding it.
            let occupancy = network.fifo_len(tile, port);
            let upstream = neighbors[tile][port];
            debug_assert_ne!(upstream, NO_NEIGHBOR, "arrival came from a neighbour");
            let stats = &mut links[net][upstream as usize][OPPOSITE[port]];
            stats.forwarded += 1;
            stats.peak_occupancy = stats.peak_occupancy.max(occupancy);
        }
        scratch.arrivals.clear();
    }

    /// Resolves this tick's ejected slots in order: relay packets
    /// reaching their intermediate tile start their second leg (the via
    /// tile re-injects them locally, spending its own cycles — the
    /// paper's software relay workaround); everything else is delivered.
    fn resolve_ejected(&mut self, delivered: &mut Vec<FabricPacket>) {
        let mut ejected = std::mem::take(&mut self.scratch.ejected);
        for &entry in &ejected {
            let slot = entry.slot();
            if matches!(self.arena.choice(slot), NetworkChoice::Relay { .. })
                && self.arena.leg(slot) == 0
            {
                self.arena.set_leg(slot, 1);
                self.relay_forwards += 1;
                let NetworkChoice::Relay { via, .. } = self.arena.choice(slot) else {
                    unreachable!()
                };
                let idx = self.array.index_of(via);
                self.push_local(idx, slot, entry.hops());
            } else {
                // The fabric tracks hop counts in its ring entries (the
                // arena column holds the count as of injection), so the
                // delivered packet takes the entry's value.
                let mut packet = self.arena.take(slot);
                packet.hops = entry.hops();
                delivered.push(packet);
            }
        }
        ejected.clear();
        self.scratch.ejected = ejected;
    }

    /// Fingerprints every router's current state into the journal's net
    /// lanes at window boundary `cycle` (no-op when digests are off).
    fn record_net_lanes(&mut self, cycle: u64) {
        let tiles = self.array.tile_count();
        let Fabric {
            networks,
            journal,
            arena,
            ..
        } = self;
        let Some(journal) = journal.as_mut() else {
            return;
        };
        for (net_idx, network) in networks.iter().enumerate() {
            for tile in 0..tiles {
                let mut h = Fnv1a::new();
                for port in 0..5 {
                    h.write_u32(network.fifo_len(tile, port) as u32);
                    network.for_each_entry(tile, port, |entry| {
                        let slot = entry.slot();
                        h.write_u64(arena.id(slot));
                        h.write_u8(arena.leg(slot));
                        h.write_u32(entry.hops());
                    });
                    h.write_u8(network.routers[tile].rr[port]);
                }
                journal.record(
                    cycle,
                    LaneId::Net {
                        net: net_idx as u8,
                        tile: tile as u32,
                    },
                    h.finish(),
                );
            }
        }
    }

    /// Jumps the clock forward `cycles` cycles across a window in which
    /// the fabric is provably inert (nothing queued anywhere), replaying
    /// the per-cycle bookkeeping in bulk so every artefact stays
    /// byte-identical to having ticked the window densely:
    ///
    /// - each skipped tick would have sampled an empty active set, so
    ///   the histogram takes `cycles` zeros in O(1);
    /// - each gauge-sample boundary inside the window records the same
    ///   four zeros the dense tick would read off empty queues;
    /// - every digest boundary inside the window hashes the same empty
    ///   routers, so recording the *first* one reproduces the dense
    ///   journal — later boundaries dedup to nothing.
    ///
    /// Ticks are not executed, so [`Fabric::ticks_executed`] does not
    /// advance — the counter the O(events)-termination tests watch.
    ///
    /// Callers (the wheel-stepping drivers) must only skip windows with
    /// no in-flight packets; this is debug-asserted.
    pub fn skip_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert_eq!(self.in_flight(), 0, "only an empty fabric may skip");
        debug_assert_eq!(self.networks[0].live + self.networks[1].live, 0);
        let start = self.cycle;
        self.cycle += cycles;
        self.active_tiles.record_n(0, cycles);
        if self.sample_every != 0 {
            let every = self.sample_every;
            let mut boundary = (start / every + 1) * every;
            while boundary <= self.cycle {
                if self.samples[0].1.wants(boundary) {
                    for (_, series) in &mut self.samples {
                        series.record(boundary, 0.0);
                    }
                }
                boundary += every;
            }
        }
        if let Some(every) = self.journal.as_ref().map(|j| j.every()) {
            if let Some(periods) = start.checked_div(every) {
                let first = (periods + 1) * every;
                if first <= self.cycle {
                    self.record_net_lanes(first);
                }
            }
        }
    }

    /// Ticks actually executed so far — unlike [`Fabric::cycle`], cycles
    /// jumped by [`Fabric::skip_cycles`] do not count. The ratio
    /// `cycle / ticks_executed` is the event-wheel skip leverage.
    pub fn ticks_executed(&self) -> u64 {
        self.ticks
    }

    /// Ticks until the fabric is empty, returning every endpoint delivery.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to drain (a deadlock), which the
    /// dual-DoR design guarantees cannot happen — the panic is the
    /// regression alarm for that property.
    pub fn drain(&mut self) -> Vec<FabricPacket> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut idle_cycles = 0u64;
        while self.in_flight() > 0 {
            let before = self.in_flight();
            self.tick_into(&mut batch);
            out.extend_from_slice(&batch);
            if self.in_flight() == before {
                idle_cycles += 1;
                assert!(
                    idle_cycles < 10_000,
                    "network failed to drain: deadlock with {} packets in flight",
                    self.in_flight()
                );
            } else {
                idle_cycles = 0;
            }
        }
        out
    }

    /// Counters for the link leaving `tile` in `dir` on `network`.
    pub fn link_stats(&self, network: NetworkKind, tile: TileCoord, dir: Direction) -> LinkStats {
        self.links[network as usize][self.array.index_of(tile)][dir.index()]
    }

    /// Traversal count of the link leaving `tile` in direction `dir` on
    /// the given network — the congestion heat map.
    pub fn link_utilization(&self, network: NetworkKind, tile: TileCoord, dir: Direction) -> u64 {
        self.link_stats(network, tile, dir).forwarded
    }

    /// The most-used link: `(network, tile, direction, traversals)`.
    ///
    /// Ties break deterministically: lowest tile index first, then lowest
    /// direction index (N, S, E, W order), then the Xy network — so equal
    /// heat maps always report the same link regardless of iteration order.
    pub fn hottest_link(&self) -> Option<(NetworkKind, TileCoord, Direction, u64)> {
        // Key: forwarded count descending, then (tile, direction, network)
        // ascending.
        let mut best: Option<(u64, usize, usize, usize)> = None;
        for (n, per_net) in self.links.iter().enumerate() {
            for (idx, dirs) in per_net.iter().enumerate() {
                for (d, stats) in dirs.iter().enumerate() {
                    if stats.forwarded == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((count, tile, dir, net)) => {
                            stats.forwarded > count
                                || (stats.forwarded == count && (idx, d, n) < (tile, dir, net))
                        }
                    };
                    if better {
                        best = Some((stats.forwarded, idx, d, n));
                    }
                }
            }
        }
        best.map(|(count, idx, d, n)| {
            let network = if n == 0 {
                NetworkKind::Xy
            } else {
                NetworkKind::Yx
            };
            (network, self.array.coord_of(idx), DIRECTIONS[d], count)
        })
    }

    /// Row-major per-tile heat map: total packets forwarded out of each
    /// tile, summed over both networks and all four directions.
    pub fn utilization_heatmap(&self) -> Vec<f64> {
        let tiles = self.array.tile_count();
        let mut map = vec![0.0; tiles];
        for per_net in &self.links {
            for (idx, dirs) in per_net.iter().enumerate() {
                map[idx] += dirs.iter().map(|s| s.forwarded as f64).sum::<f64>();
            }
        }
        map
    }

    /// Emits the fabric's aggregate metrics into `sink`: traversal and
    /// relay counters, per-link forwarded/stall histograms, peak FIFO
    /// occupancy, and the per-tile utilization heat map as a series.
    pub fn export_metrics(&self, sink: &mut dyn Sink) {
        sink.counter_add("fabric.link_traversals", self.link_traversals);
        sink.counter_add("fabric.relay_forwards", self.relay_forwards);
        sink.counter_add("fabric.stall_cycles", self.total_stall_cycles());
        sink.gauge_set(
            "fabric.peak_link_occupancy",
            self.peak_link_occupancy() as f64,
        );
        sink.gauge_set("fabric.cycles", self.cycle as f64);
        // Active-set occupancy: sampled per tick in both stepping modes
        // from queue state alone, so these values are identical across
        // modes (the CI smoke gate byte-compares them).
        sink.gauge_set("fabric.active_tiles_mean", self.active_tiles.mean());
        sink.gauge_set("fabric.active_tiles_peak", self.active_tiles.max() as f64);
        sink.histogram_merge("fabric.active_tiles", &self.active_tiles);
        for per_net in &self.links {
            for dirs in per_net {
                for stats in dirs {
                    sink.histogram_record("fabric.link.forwarded", stats.forwarded);
                    sink.histogram_record("fabric.link.stall_cycles", stats.stall_cycles);
                }
            }
        }
        sink.series_set("fabric.tile_heatmap", &self.utilization_heatmap());
        for (name, series) in &self.samples {
            if !series.is_empty() {
                sink.timeseries_merge(name, series);
            }
        }
    }

    /// Total link traversals (one per packet per hop).
    pub fn link_traversals(&self) -> u64 {
        self.link_traversals
    }

    /// Relay re-injections performed by intermediate tiles.
    pub fn relay_forwards(&self) -> u64 {
        self.relay_forwards
    }

    /// Total cycles any link spent stalled on a full downstream FIFO.
    pub fn total_stall_cycles(&self) -> u64 {
        self.links
            .iter()
            .flat_map(|per_net| per_net.iter())
            .flat_map(|dirs| dirs.iter())
            .map(|s| s.stall_cycles)
            .sum()
    }

    /// Per-tick active-set sizes sampled so far (occupied tiles summed
    /// over both networks) — a pure function of queue state, identical in
    /// either stepping mode.
    pub fn active_tiles(&self) -> &Histogram {
        &self.active_tiles
    }

    /// The highest occupancy any link input FIFO ever reached.
    pub fn peak_link_occupancy(&self) -> usize {
        self.links
            .iter()
            .flat_map(|per_net| per_net.iter())
            .flat_map(|dirs| dirs.iter())
            .map(|s| s.peak_occupancy)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_req(fabric: &mut Fabric, src: (u16, u16), dst: (u16, u16)) -> FabricPacket {
        let id = fabric.allocate_id();
        FabricPacket::request(
            id,
            TileCoord::new(src.0, src.1),
            TileCoord::new(dst.0, dst.1),
            NetworkChoice::Direct(NetworkKind::Xy),
            fabric.cycle(),
        )
    }

    #[test]
    fn port_table_matches_next_hop_on_every_pair() {
        // Non-square, so a table with x and y swapped cannot pass.
        use crate::routing::next_hop;
        let array = TileArray::new(7, 5);
        for net in [NetworkKind::Xy, NetworkKind::Yx] {
            for tile in array.tiles() {
                for target in array.tiles() {
                    let expected = match next_hop(tile, target, net) {
                        None => LOCAL as u8,
                        Some(nb) => DIRECTIONS
                            .into_iter()
                            .position(|d| array.neighbor(tile, d) == Some(nb))
                            .expect("next hop is a neighbour")
                            as u8,
                    };
                    assert_eq!(
                        out_port_for(tile, target, net),
                        expected,
                        "{net:?} at {tile} toward {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_packet_takes_manhattan_plus_queueing_cycles() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 4);
        let packet = direct_req(&mut fabric, (0, 0), (5, 3));
        assert!(fabric.inject(packet));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        let p = delivered[0];
        assert_eq!(p.hops, 8);
        // 1 cycle out of the local queue per hop, plus local ejection.
        assert!(
            fabric.cycle() >= 9 && fabric.cycle() <= 12,
            "{}",
            fabric.cycle()
        );
        assert_eq!(fabric.link_traversals(), 8);
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn ids_advance_even_under_backpressure() {
        let mut fabric = Fabric::new(TileArray::new(4, 4), 1);
        // Local queue cap is queue_capacity * 4 = 4.
        let mut accepted = 0;
        for _ in 0..10 {
            let p = direct_req(&mut fabric, (0, 0), (3, 0));
            if fabric.inject(p) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(fabric.allocate_id(), 10);
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 4);
    }

    #[test]
    fn relay_packets_reinject_at_the_via_tile() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 4);
        let id = fabric.allocate_id();
        let choice = NetworkChoice::Relay {
            via: TileCoord::new(3, 5),
            first: NetworkKind::Xy,
            second: NetworkKind::Yx,
        };
        let packet = FabricPacket::request(
            id,
            TileCoord::new(0, 3),
            TileCoord::new(7, 3),
            choice,
            fabric.cycle(),
        );
        assert!(fabric.inject(packet));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].dst, TileCoord::new(7, 3));
        assert_eq!(fabric.relay_forwards(), 1);
    }

    #[test]
    fn stall_cycles_appear_under_hotspot_pressure() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
        // Everyone floods tile (4,4) at once.
        for _ in 0..3 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    if (x, y) == (4, 4) {
                        continue;
                    }
                    let p = direct_req(&mut fabric, (x, y), (4, 4));
                    fabric.inject(p);
                }
            }
        }
        let delivered = fabric.drain();
        assert!(!delivered.is_empty());
        assert!(fabric.total_stall_cycles() > 0, "no contention recorded");
        assert!(fabric.peak_link_occupancy() >= 2);
    }

    #[test]
    fn hottest_link_breaks_ties_toward_lowest_tile_then_direction() {
        let mut fabric = Fabric::new(TileArray::new(4, 4), 4);
        // Two disjoint single-hop flows with identical traversal counts:
        // (2,0)→(3,0) and (0,1)→(1,1). Equal heat, so the tie must break
        // to the lower row-major tile index, (2,0), regardless of network
        // scan order.
        for _ in 0..3 {
            let a = direct_req(&mut fabric, (2, 0), (3, 0));
            let b = direct_req(&mut fabric, (0, 1), (1, 1));
            assert!(fabric.inject(a));
            assert!(fabric.inject(b));
            fabric.drain();
        }
        let (net, tile, dir, count) = fabric.hottest_link().expect("traffic ran");
        assert_eq!(count, 3);
        assert_eq!(tile, TileCoord::new(2, 0));
        assert_eq!(dir, Direction::East);
        assert_eq!(net, NetworkKind::Xy);
    }

    #[test]
    fn wheel_stepping_is_bit_identical_to_dense() {
        // A hotspot flood plus background transpose flows, compared
        // across stepping modes. The active-set histogram must match
        // too: it is sampled from queue state, not from the scheduler's
        // own work list.
        let run = |stepping: Stepping| {
            let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
            fabric.set_stepping(stepping);
            for _ in 0..3 {
                for x in 0..8u16 {
                    for y in 0..8u16 {
                        if (x, y) == (4, 4) {
                            continue;
                        }
                        let p = direct_req(&mut fabric, (x, y), (4, 4));
                        fabric.inject(p);
                        let q = direct_req(&mut fabric, (x, y), (y, x));
                        fabric.inject(q);
                    }
                }
            }
            let delivered: Vec<(u64, u32, u64)> = fabric
                .drain()
                .into_iter()
                .map(|p| (p.id, p.hops, p.injected_at))
                .collect();
            (
                delivered,
                fabric.cycle(),
                fabric.link_traversals(),
                fabric.total_stall_cycles(),
                fabric.peak_link_occupancy(),
                fabric.utilization_heatmap(),
                fabric.active_tiles().clone(),
            )
        };
        let baseline = run(Stepping::Dense);
        assert!(baseline.6.count() > 0, "active-set samples recorded");
        assert_eq!(run(Stepping::Wheel), baseline);
    }

    #[test]
    fn drained_fabric_releases_every_arena_slot() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
        for round in 0..4 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    let p = direct_req(&mut fabric, (x, y), (7 - x, 7 - y));
                    fabric.inject(p);
                }
            }
            assert!(fabric.arena_live() > 0);
            fabric.drain();
            assert_eq!(fabric.arena_live(), 0, "round {round} leaked slots");
        }
        // Recycling bounds the footprint at one round's peak in flight.
        let footprint = fabric.arena_slots();
        for _ in 0..4 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    let p = direct_req(&mut fabric, (x, y), (7 - x, 7 - y));
                    fabric.inject(p);
                }
            }
            fabric.drain();
        }
        assert_eq!(
            fabric.arena_slots(),
            footprint,
            "steady churn grew the arena"
        );
    }

    #[test]
    fn idle_tiles_cost_nothing_in_wheel_mode() {
        // One packet on a big array: only the tiles along the path are
        // ever occupied, so only they are ever visited.
        let mut fabric = Fabric::new(TileArray::new(16, 16), 4);
        assert_eq!(fabric.stepping(), Stepping::Wheel);
        let p = direct_req(&mut fabric, (0, 0), (3, 0));
        assert!(fabric.inject(p));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        let active = fabric.active_tiles();
        assert_eq!(active.max(), 1, "a single flit occupies one tile per tick");
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn hottest_link_is_none_on_an_idle_fabric() {
        let fabric = Fabric::new(TileArray::new(4, 4), 4);
        assert!(fabric.hottest_link().is_none());
    }

    #[test]
    fn export_metrics_and_delivery_spans_reach_the_sink() {
        use wsp_telemetry::SharedRecorder;

        let recorder = SharedRecorder::new();
        let mut fabric = Fabric::new(TileArray::new(4, 4), 4);
        fabric.set_sink(recorder.boxed());
        let p = direct_req(&mut fabric, (0, 0), (3, 3));
        assert!(fabric.inject(p));
        fabric.drain();

        let mut shared = recorder.clone();
        fabric.export_metrics(&mut shared);
        recorder.with(|r| {
            assert_eq!(r.tracer.span_count("fabric"), 1);
            assert_eq!(r.registry.counter("fabric.link_traversals"), 6);
            let heat = r.registry.series("fabric.tile_heatmap").expect("heatmap");
            assert_eq!(heat.len(), 16);
            assert_eq!(heat.iter().sum::<f64>(), 6.0);
        });
    }

    #[test]
    #[should_panic(expected = "disconnected packets are never injected")]
    fn disconnected_requests_are_rejected_at_construction() {
        let _ = FabricPacket::request(
            0,
            TileCoord::new(0, 0),
            TileCoord::new(1, 1),
            NetworkChoice::Disconnected,
            0,
        );
    }
}
