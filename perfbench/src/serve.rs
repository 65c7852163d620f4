//! A wafer-as-a-service campaign through `wsp_sched::ServeCampaign`.

use wsp_noc::sample_connected_fault_map;
use wsp_sched::{synthesize_jobs, JobKind, ServeCampaign, ServeConfig};
use wsp_telemetry::Recorder;
use wsp_topo::TileArray;

use crate::trace::Trace;
use crate::workload::{timed, Outcome, Workload};

/// Wafer edge, in tiles.
const WAFER: u16 = 32;
/// Slice edge, in tiles (16 slices on the wafer).
const SLICE: u16 = 8;
/// Manufacturing faults: 2% of the wafer's tiles.
const FAULTS: usize = 20;
/// Jobs in the open-loop stream.
const JOBS: usize = 128;
/// Mean gap between job arrivals, in cycles.
const MEAN_GAP: u64 = 60;
/// A slice fails after every this many job completions.
const FAIL_EVERY: u32 = 40;

/// A seeded job stream over a seeded faulty wafer.
pub struct ServeWorkload {
    seed: u64,
    campaign: Option<ServeCampaign>,
}

impl ServeWorkload {
    /// A campaign whose faults and jobs are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        ServeWorkload {
            seed,
            campaign: None,
        }
    }
}

/// Jobs the campaign did not complete correctly, against the
/// benchmark's expectation that `expected` jobs complete.
fn failed_jobs(metrics: &Recorder, expected: u64) -> u64 {
    let completed = metrics.registry.counter("serve.jobs_completed");
    let wrong = metrics.registry.counter("serve.jobs_incorrect");
    expected.abs_diff(completed) + wrong
}

impl Workload for ServeWorkload {
    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("wafer_tiles", u64::from(WAFER) * u64::from(WAFER)),
            ("slice_tiles", u64::from(SLICE) * u64::from(SLICE)),
            ("faulty_tiles", FAULTS as u64),
            ("jobs", JOBS as u64),
            ("mean_gap_cycles", MEAN_GAP),
            ("fail_slice_every", u64::from(FAIL_EVERY)),
        ]
    }

    fn setup(&mut self, trace: &mut Trace) {
        let wafer = TileArray::new(WAFER, WAFER);
        let (faults, _) = trace.span("topo.fault_map", |_| {
            sample_connected_fault_map(wafer, FAULTS, self.seed, 64)
                .expect("a connected fault map within the sampling budget")
        });
        let campaign = trace.span("serve.setup", |_| {
            let mut config = ServeConfig::new(wafer, SLICE, SLICE);
            config.wafer_faults = faults;
            config.jobs = synthesize_jobs(JOBS, self.seed, MEAN_GAP);
            // Every seed serves the same kernel mix, so the seed moves
            // arrivals, job inputs and faults but not how much work of
            // each kind there is.
            for job in &mut config.jobs {
                job.kind = JobKind::ALL[job.id as usize % JobKind::ALL.len()];
            }
            config.fail_slice_after = Some(FAIL_EVERY);
            ServeCampaign::new(config).expect("valid campaign config")
        });
        self.campaign = Some(campaign);
    }

    fn run(&mut self, trace: &mut Trace) -> Vec<f64> {
        let campaign = self.campaign.as_mut().expect("set up before run");
        let mut chunks = Vec::new();
        trace.span("serve.run", |t| {
            while t.span("serve.step", |_| timed(&mut chunks, || campaign.step())) {}
        });
        chunks
    }

    fn outcome(&self) -> Outcome {
        let campaign = self.campaign.as_ref().expect("set up before outcome");
        let mut metrics = Recorder::new();
        campaign.export_metrics(&mut metrics);
        let registry = &metrics.registry;
        let histogram = |name: &str| registry.histogram(name).cloned().unwrap_or_default();
        let service_cycles = histogram("serve.service_cycles").sum() as f64;
        let queue_wait = histogram("serve.queue_wait_cycles");
        let gauge = |name: &str| registry.gauge(name).unwrap_or(0.0);
        let counter = |name: &str| registry.counter(name) as f64;
        Outcome {
            attempted: JOBS as u64,
            failed: failed_jobs(&metrics, JOBS as u64),
            failed_if_corrupted: failed_jobs(&metrics, JOBS as u64 + 1),
            sim_cycles: service_cycles,
            counters: vec![
                ("serve.jobs_completed", counter("serve.jobs_completed")),
                ("serve.jobs_dropped", counter("serve.jobs_dropped")),
                ("serve.jobs_incorrect", counter("serve.jobs_incorrect")),
                ("serve.slices_retired", counter("serve.slices_retired")),
                ("serve.service_cycles", service_cycles),
                ("serve.makespan_cycles", gauge("serve.makespan_cycles")),
                (
                    "serve.queue_wait_p50_cycles",
                    queue_wait.percentile(0.5) as f64,
                ),
                (
                    "serve.queue_wait_p99_cycles",
                    queue_wait.percentile(0.99) as f64,
                ),
                ("serve.utilisation", gauge("serve.slice_utilisation")),
            ],
            profile: Vec::new(),
        }
    }

    fn teardown(&mut self) {
        self.campaign = None;
    }
}
