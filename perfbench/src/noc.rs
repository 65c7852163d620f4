//! Synthetic traffic on the full 32×32 wafer through `wsp_noc::NocSim`.

use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;
use wsp_noc::{sample_connected_fault_map, NocSim, SimConfig, SimReport, TrafficPattern};
use wsp_topo::{FaultMap, TileArray};

use crate::trace::Trace;
use crate::workload::{fabric_counters, fabric_profile, timed, Outcome, Workload};

/// Wafer edge, in tiles.
const WAFER: u16 = 32;

/// The traffic schedule a noc workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Open-loop injection every cycle for `cycles`, then drain.
    Steady { cycles: u64 },
    /// `bursts` rounds of `burst_len` injection cycles, each followed by
    /// `gap` cycles with no injection, then drain.
    Bursts {
        bursts: u64,
        burst_len: u64,
        gap: u64,
    },
}

/// A seeded fault map plus a traffic schedule at the default injection rate.
pub struct NocWorkload {
    seed: u64,
    faults: usize,
    schedule: Schedule,
    sim: Option<NocSim>,
    report: Option<SimReport>,
}

impl NocWorkload {
    /// Uniform-random traffic on a wafer with `faults` faulty tiles.
    pub fn new(seed: u64, faults: usize, schedule: Schedule) -> Self {
        NocWorkload {
            seed,
            faults,
            schedule,
            sim: None,
            report: None,
        }
    }
}

/// Requests that did not come back as responses, plus anything left in
/// the network, against the benchmark's expectation that `expected`
/// requests complete their round trip.
fn failed_requests(report: &SimReport, expected: u64, arena_live: usize) -> u64 {
    expected
        .abs_diff(report.requests_delivered)
        .max(expected.abs_diff(report.responses_delivered))
        + report.in_flight_at_end as u64
        + arena_live as u64
}

impl Workload for NocWorkload {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        let mut sizes = vec![
            ("wafer_tiles", u64::from(WAFER) * u64::from(WAFER)),
            ("faulty_tiles", self.faults as u64),
        ];
        match self.schedule {
            Schedule::Steady { cycles } => sizes.push(("injection_cycles", cycles)),
            Schedule::Bursts {
                bursts,
                burst_len,
                gap,
            } => sizes.extend([
                ("bursts", bursts),
                ("burst_cycles", burst_len),
                ("gap_cycles", gap),
            ]),
        }
        sizes
    }

    fn setup(&mut self, trace: &mut Trace) {
        let array = TileArray::new(WAFER, WAFER);
        let faults = if self.faults == 0 {
            FaultMap::none(array)
        } else {
            trace.span("topo.fault_map", |_| {
                sample_connected_fault_map(array, self.faults, self.seed, 64)
                    .expect("a connected fault map within the sampling budget")
                    .0
            })
        };
        let mut sim = trace.span("noc.new", |_| NocSim::new(faults, SimConfig::default()));
        sim.fabric_mut().set_profiling(trace.enabled());
        self.sim = Some(sim);
    }

    fn run(&mut self, trace: &mut Trace) -> Vec<f64> {
        let sim = self.sim.as_mut().expect("set up before run");
        let mut rng = seeded_rng(stream_seed(self.seed, 1));
        let pattern = TrafficPattern::UniformRandom;
        let mut chunks = Vec::new();
        let report = trace.span("noc.run", |_| match self.schedule {
            Schedule::Steady { cycles } => {
                timed(&mut chunks, || sim.run(pattern, cycles, &mut rng))
            }
            // One call per burst: each burst drains within its gap, so
            // this simulates exactly what one `run_bursts` call over all
            // bursts would, and times it burst by burst.
            Schedule::Bursts {
                bursts,
                burst_len,
                gap,
            } => (0..bursts)
                .map(|_| {
                    timed(&mut chunks, || {
                        sim.run_bursts(pattern, 1, burst_len, gap, &mut rng)
                    })
                })
                .last()
                .expect("at least one burst"),
        });
        self.report = Some(report);
        chunks
    }

    fn outcome(&self) -> Outcome {
        let sim = self.sim.as_ref().expect("set up before outcome");
        let report = self.report.as_ref().expect("run before outcome");
        let fabric = sim.fabric();
        let expected = report.requests_injected;
        let mut counters = vec![
            ("noc.sim_cycles", report.cycles as f64),
            ("noc.requests_injected", report.requests_injected as f64),
            ("noc.responses_delivered", report.responses_delivered as f64),
            (
                "noc.injection_backpressure",
                report.injection_backpressure as f64,
            ),
            ("noc.undeliverable", report.undeliverable as f64),
            ("noc.mean_request_cycles", report.mean_request_latency()),
            ("noc.rtt_p99_cycles", report.rtt_percentile(0.99) as f64),
        ];
        counters.extend(fabric_counters(fabric));
        Outcome {
            attempted: expected,
            failed: failed_requests(report, expected, fabric.arena_live()),
            failed_if_corrupted: failed_requests(report, expected + 1, fabric.arena_live()),
            sim_cycles: report.cycles as f64,
            counters,
            profile: fabric_profile(fabric.profiler()),
        }
    }

    fn teardown(&mut self) {
        self.sim = None;
        self.report = None;
    }
}
