//! An independent reference model of the fabric's per-cycle contract,
//! and properties that check [`Fabric`] against it tick by tick.
//!
//! The reference is deliberately plain, so it can be checked by reading
//! it: `VecDeque` FIFOs of whole packets and a two-phase cycle.
//!
//! - **Phase 1** decides every grant from a snapshot taken at the start
//!   of the cycle: the queue heads, the downstream FIFO lengths and the
//!   round-robin pointers. Each output port grants one contending input
//!   port round-robin across the five ports; a winner whose downstream
//!   FIFO is full stalls.
//! - **Phase 2** applies the grants in `(network, tile, output port)`
//!   order: every granted head is popped, then every forwarded packet is
//!   pushed into its downstream FIFO. After both networks, the ejected
//!   packets resolve in order: relay packets finishing their first leg
//!   re-inject on the local queue of their via tile, the rest are
//!   delivered.
//!
//! It uses only the crate's public API (`routing::next_hop`,
//! [`NetworkChoice`], [`FabricPacket`]), so it shares no code with the
//! single-pass tick it checks.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::RngExt as _;
use wsp_common::stepping::Stepping;
use wsp_noc::routing::next_hop;
use wsp_noc::{
    Fabric, FabricPacket, LinkStats, NetworkChoice, NetworkKind, PacketKind, RoutePlanner,
};
use wsp_topo::{FaultMap, TileArray, TileCoord, DIRECTIONS};

/// Input ports per router: the four link sides in [`DIRECTIONS`] order,
/// then the local injection queue.
const PORTS: usize = 5;

/// Index of the local injection/ejection port.
const LOCAL: usize = 4;

/// A tile's local injection queue holds this many link FIFOs' worth of
/// packets; [`Fabric::inject`] refuses a packet beyond that.
const LOCAL_DEPTH_FACTOR: usize = 4;

/// Array shapes whose tile count is not a multiple of 64 or whose width
/// exceeds 64 columns, plus the degenerate single tile.
const ODD_SHAPES: [(u16, u16); 6] = [(65, 3), (130, 1), (7, 9), (1, 1), (1, 130), (64, 2)];

/// A packet as the reference tracks it: the fabric packet (whose `hops`
/// the reference advances) plus the leg of its route it is on.
#[derive(Clone, Copy)]
struct Flit {
    packet: FabricPacket,
    leg: u8,
}

impl Flit {
    /// The network carrying the current leg.
    fn net(&self) -> NetworkKind {
        let response = self.packet.kind == PacketKind::Response;
        self.packet.choice.leg_network(response, self.leg)
    }

    /// The tile the current leg ends at.
    fn target(&self) -> TileCoord {
        self.packet.choice.leg_target(self.leg, self.packet.dst)
    }
}

/// What phase 1 decided for one output port of one router.
enum Grant {
    /// The winner leaves the network at this tile.
    Eject,
    /// The winner moves into FIFO `side` of tile `to`.
    Forward { to: usize, side: usize },
    /// The winner's downstream FIFO was full at the start of the cycle.
    Stall,
}

/// The two-phase reference fabric.
struct ReferenceFabric {
    array: TileArray,
    capacity: usize,
    /// `queues[network][tile][port]`.
    queues: [Vec<[VecDeque<Flit>; PORTS]>; 2],
    /// `rr[network][tile][output port]`: the input port searched first.
    rr: [Vec<[usize; PORTS]>; 2],
    /// `links[network][tile][direction]`.
    links: [Vec<[LinkStats; 4]>; 2],
    relay_forwards: u64,
}

impl ReferenceFabric {
    fn new(array: TileArray, capacity: usize) -> Self {
        let tiles = array.tile_count();
        let queues = || (0..tiles).map(|_| Default::default()).collect();
        ReferenceFabric {
            array,
            capacity,
            queues: [queues(), queues()],
            rr: [vec![[0; PORTS]; tiles], vec![[0; PORTS]; tiles]],
            links: [
                vec![[LinkStats::default(); 4]; tiles],
                vec![[LinkStats::default(); 4]; tiles],
            ],
            relay_forwards: 0,
        }
    }

    fn in_flight(&self) -> usize {
        self.queues
            .iter()
            .flatten()
            .flatten()
            .map(VecDeque::len)
            .sum()
    }

    /// The local queue `packet` enters at its source tile.
    fn local_queue(&mut self, packet: FabricPacket) -> (&mut VecDeque<Flit>, Flit) {
        let flit = Flit { packet, leg: 0 };
        let src = self.array.index_of(packet.src);
        (&mut self.queues[flit.net() as usize][src][LOCAL], flit)
    }

    /// Enqueues `packet` at its source unless the local queue is full.
    fn inject(&mut self, packet: FabricPacket) -> bool {
        let limit = self.capacity * LOCAL_DEPTH_FACTOR;
        let (queue, flit) = self.local_queue(packet);
        if queue.len() >= limit {
            return false;
        }
        queue.push_back(flit);
        true
    }

    /// Enqueues `packet` at its source with no capacity check.
    fn inject_unbounded(&mut self, packet: FabricPacket) {
        let (queue, flit) = self.local_queue(packet);
        queue.push_back(flit);
    }

    /// The output port `flit`, queued at `tile`, asks for: local ejection
    /// at the end of its leg, otherwise the direction of its next hop.
    fn out_port(&self, tile: TileCoord, flit: &Flit) -> usize {
        match next_hop(tile, flit.target(), flit.net()) {
            None => LOCAL,
            Some(hop) => DIRECTIONS
                .iter()
                .position(|&d| self.array.neighbor(tile, d) == Some(hop))
                .expect("the next hop is adjacent"),
        }
    }

    /// One cycle; returns the packets delivered at their final endpoint.
    fn tick(&mut self) -> Vec<FabricPacket> {
        // Phase 1: decide every grant from the start-of-cycle snapshot.
        // Nothing is mutated until every grant is known.
        let mut grants = Vec::new();
        for net in 0..2 {
            for t in 0..self.array.tile_count() {
                let tile = self.array.coord_of(t);
                let mut heads = [None; PORTS];
                for (port, queue) in self.queues[net][t].iter().enumerate() {
                    heads[port] = queue.front().map(|flit| self.out_port(tile, flit));
                }
                for out in 0..PORTS {
                    let start = self.rr[net][t][out];
                    let Some(winner) = (0..PORTS)
                        .map(|k| (start + k) % PORTS)
                        .find(|&port| heads[port] == Some(out))
                    else {
                        continue;
                    };
                    // Output ports 0..4 are the links in DIRECTIONS
                    // order; the one past them is the local ejection port.
                    let grant = match DIRECTIONS.get(out) {
                        None => Grant::Eject,
                        Some(&dir) => {
                            let hop = self
                                .array
                                .neighbor(tile, dir)
                                .expect("dimension-ordered routes stay on the array");
                            let to = self.array.index_of(hop);
                            let side = dir.opposite().index();
                            if self.queues[net][to][side].len() < self.capacity {
                                Grant::Forward { to, side }
                            } else {
                                Grant::Stall
                            }
                        }
                    };
                    grants.push((net, t, out, winner, grant));
                }
            }
        }

        // Phase 2: apply in (network, tile, output port) order — the
        // order `grants` was built in. Pops first, then pushes.
        let mut moved = Vec::new();
        let mut ejected = Vec::new();
        for &(net, t, out, winner, ref grant) in &grants {
            match *grant {
                Grant::Stall => self.links[net][t][out].stall_cycles += 1,
                Grant::Eject | Grant::Forward { .. } => {
                    self.rr[net][t][out] = (winner + 1) % PORTS;
                    let flit = self.queues[net][t][winner]
                        .pop_front()
                        .expect("granted head");
                    match *grant {
                        Grant::Forward { to, side } => moved.push((net, t, out, to, side, flit)),
                        _ => ejected.push(flit),
                    }
                }
            }
        }
        for (net, t, out, to, side, mut flit) in moved {
            flit.packet.hops += 1;
            let queue = &mut self.queues[net][to][side];
            queue.push_back(flit);
            let stats = &mut self.links[net][t][out];
            stats.forwarded += 1;
            stats.peak_occupancy = stats.peak_occupancy.max(queue.len());
        }

        let mut delivered = Vec::new();
        for mut flit in ejected {
            match flit.packet.choice {
                NetworkChoice::Relay { via, .. } if flit.leg == 0 => {
                    flit.leg = 1;
                    self.relay_forwards += 1;
                    let via = self.array.index_of(via);
                    self.queues[flit.net() as usize][via][LOCAL].push_back(flit);
                }
                _ => delivered.push(flit.packet),
            }
        }
        delivered
    }

    fn link_stats(&self) -> Vec<LinkStats> {
        self.links.iter().flatten().flatten().copied().collect()
    }
}

/// Every per-link counter of `fabric`, in the reference's
/// `(network, tile, direction)` order.
fn fabric_link_stats(fabric: &Fabric) -> Vec<LinkStats> {
    let array = fabric.array();
    let mut out = Vec::new();
    for net in [NetworkKind::Xy, NetworkKind::Yx] {
        for tile in array.tiles() {
            for dir in DIRECTIONS {
                out.push(fabric.link_stats(net, tile, dir));
            }
        }
    }
    out
}

/// The observable identity of a delivered packet.
fn delivery_key(p: &FabricPacket) -> (u64, TileCoord, TileCoord, u64, u32, PacketKind) {
    (p.id, p.src, p.dst, p.injected_at, p.hops, p.kind)
}

/// A fabric and the reference driven in lockstep.
struct Lockstep {
    fabric: Fabric,
    reference: ReferenceFabric,
    planner: RoutePlanner,
    healthy: Vec<TileCoord>,
    delivered: Vec<FabricPacket>,
}

impl Lockstep {
    fn new(faults: FaultMap, capacity: usize, stepping: Stepping) -> Self {
        let array = faults.array();
        let mut fabric = Fabric::new(array, capacity);
        fabric.set_stepping(stepping);
        Lockstep {
            fabric,
            reference: ReferenceFabric::new(array, capacity),
            healthy: faults.healthy_tiles().collect(),
            planner: RoutePlanner::new(faults),
            delivered: Vec::new(),
        }
    }

    /// Offers `packet` to both; they must agree on accepting it.
    fn inject(&mut self, packet: FabricPacket) -> Result<(), TestCaseError> {
        let accepted = self.fabric.inject(packet);
        prop_assert_eq!(
            accepted,
            self.reference.inject(packet),
            "injection acceptance"
        );
        Ok(())
    }

    /// Injects `count` requests between random healthy tiles: the
    /// kernel's route for distinct tiles (relays included, disconnected
    /// pairs skipped), a random direct network for self-addressed ones.
    fn inject_requests(
        &mut self,
        count: usize,
        rng: &mut impl rand::Rng,
    ) -> Result<(), TestCaseError> {
        for _ in 0..count {
            let src = self.healthy[rng.random_range(0..self.healthy.len())];
            let dst = self.healthy[rng.random_range(0..self.healthy.len())];
            let choice = if src == dst {
                NetworkChoice::Direct(if rng.random_bool(0.5) {
                    NetworkKind::Xy
                } else {
                    NetworkKind::Yx
                })
            } else {
                self.planner.choose(src, dst)
            };
            if choice == NetworkChoice::Disconnected {
                continue;
            }
            let id = self.fabric.allocate_id();
            let packet = FabricPacket::request(id, src, dst, choice, self.fabric.cycle());
            self.inject(packet)?;
        }
        Ok(())
    }

    /// Ticks both; the delivery sequences and the packets in flight must
    /// match. Every delivered request is answered on both.
    fn tick(&mut self) -> Result<(), TestCaseError> {
        self.fabric.tick_into(&mut self.delivered);
        let expected = self.reference.tick();
        let got: Vec<_> = self.delivered.iter().map(delivery_key).collect();
        let want: Vec<_> = expected.iter().map(delivery_key).collect();
        prop_assert_eq!(got, want, "deliveries at cycle {}", self.fabric.cycle());
        prop_assert_eq!(self.fabric.in_flight(), self.reference.in_flight());
        for packet in &self.delivered {
            if packet.kind == PacketKind::Request {
                let response = FabricPacket::response(packet);
                self.fabric.inject_unbounded(response);
                self.reference.inject_unbounded(response);
            }
        }
        Ok(())
    }

    /// Ticks until both are empty.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        let start = self.fabric.cycle();
        while self.fabric.in_flight() > 0 || self.reference.in_flight() > 0 {
            prop_assert!(self.fabric.cycle() - start < 100_000, "failed to drain");
            self.tick()?;
        }
        Ok(())
    }

    /// Idles `cycles` empty cycles: the wheel jumps them with
    /// `skip_cycles`, the dense sweep ticks them.
    fn idle(&mut self, cycles: u64) -> Result<(), TestCaseError> {
        if self.fabric.stepping() == Stepping::Wheel {
            self.fabric.skip_cycles(cycles);
        } else {
            for _ in 0..cycles {
                self.tick()?;
            }
        }
        Ok(())
    }

    /// The end-of-run counters must match too.
    fn check_counters(&self) -> Result<(), TestCaseError> {
        let reference = self.reference.link_stats();
        prop_assert_eq!(fabric_link_stats(&self.fabric), reference.clone());
        prop_assert_eq!(self.fabric.relay_forwards(), self.reference.relay_forwards);
        let forwarded: u64 = reference.iter().map(|s| s.forwarded).sum();
        prop_assert_eq!(self.fabric.link_traversals(), forwarded);
        prop_assert_eq!(self.fabric.arena_live(), self.fabric.in_flight());
        Ok(())
    }
}

/// Runs `rounds` rounds of `schedule` — each entry injects a burst of
/// requests and then ticks a few cycles — draining and idling between
/// rounds, in lockstep with the reference.
fn run_lockstep(
    lockstep: &mut Lockstep,
    schedule: &[(usize, usize)],
    rounds: usize,
    gap: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = wsp_common::seeded_rng(seed);
    for _ in 0..rounds {
        for &(burst, ticks) in schedule {
            lockstep.inject_requests(burst, &mut rng)?;
            for _ in 0..ticks {
                lockstep.tick()?;
            }
        }
        lockstep.drain()?;
        lockstep.idle(gap)?;
    }
    lockstep.check_counters()
}

proptest! {
    /// The fabric matches the reference on every tick: the delivered
    /// `(id, src, dst, injected_at, hops, kind)` sequence and the packets
    /// in flight, then every per-link counter at the end — over odd
    /// array shapes and small faulty arrays (whose kernel routes include
    /// relays), link FIFO depths 1–4, and both stepping modes.
    #[test]
    fn fabric_matches_the_reference(
        shape_idx in 0usize..ODD_SHAPES.len() + 1,
        cols in 3u16..9,
        rows in 3u16..9,
        fault_count in 0usize..8,
        capacity in 1usize..5,
        stepping_idx in 0usize..2,
        schedule in proptest::collection::vec((0usize..40, 0usize..4), 1..6),
        gap in 1u64..200,
        seed in any::<u64>(),
    ) {
        let (cols, rows) = ODD_SHAPES.get(shape_idx).copied().unwrap_or((cols, rows));
        let array = TileArray::new(cols, rows);
        let fault_count = fault_count.min(array.tile_count() - 1);
        let mut rng = wsp_common::seeded_rng(seed ^ 0x5eed);
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        let stepping = [Stepping::Dense, Stepping::Wheel][stepping_idx];
        let mut lockstep = Lockstep::new(faults, capacity, stepping);
        run_lockstep(&mut lockstep, &schedule, 2, gap, seed)?;
    }
}

/// A wall of faults that leaves some pairs reachable only through a
/// relay: the lockstep check must see relay re-injections, on both
/// request and response legs, at every FIFO depth.
#[test]
fn relay_routes_match_the_reference() {
    let array = TileArray::new(6, 6);
    let faults = FaultMap::from_faulty(
        array,
        [
            TileCoord::new(2, 1),
            TileCoord::new(3, 2),
            TileCoord::new(2, 4),
            TileCoord::new(4, 3),
        ],
    );
    for capacity in 1..=4 {
        for stepping in [Stepping::Dense, Stepping::Wheel] {
            let mut lockstep = Lockstep::new(faults.clone(), capacity, stepping);
            run_lockstep(&mut lockstep, &[(60, 2), (60, 1), (30, 3)], 2, 50, 7)
                .unwrap_or_else(|e| panic!("capacity {capacity}, {stepping:?}: {e}"));
            assert!(
                lockstep.fabric.relay_forwards() > 0,
                "the fault wall forces relay routes"
            );
        }
    }
}
