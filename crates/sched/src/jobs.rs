//! The synthetic open-loop job stream a serving campaign admits.
//!
//! Jobs arrive on a seeded open-loop clock — interarrival gaps are drawn
//! up front from one dedicated RNG stream, independent of how fast the
//! wafer drains the queue — and each job carries its own decorrelated
//! seed (via [`wsp_common::rng::stream_seed`]), so any single job can be
//! re-generated and re-run in isolation, bit-identically, without
//! replaying the stream before it.

use rand::RngExt as _;

use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;

/// The kernel a job runs on its slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Breadth-first search on a per-job random graph.
    Bfs,
    /// Single-source shortest path on a per-job random graph.
    Sssp,
    /// PageRank iterations on a per-job power-law graph.
    PageRank,
    /// Jacobi stencil sweeps on a per-job boundary field.
    Stencil,
    /// A halo-exchange ISA program on a cycle-level `MultiTileMachine`.
    Halo,
}

impl JobKind {
    /// All kinds, in the fixed order the synthesiser draws from.
    pub const ALL: [JobKind; 5] = [
        JobKind::Bfs,
        JobKind::Sssp,
        JobKind::PageRank,
        JobKind::Stencil,
        JobKind::Halo,
    ];

    /// Stable lowercase label (metric keys, snapshot lines, tables).
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Bfs => "bfs",
            JobKind::Sssp => "sssp",
            JobKind::PageRank => "pagerank",
            JobKind::Stencil => "stencil",
            JobKind::Halo => "halo",
        }
    }

    /// Parses [`JobKind::as_str`] output back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        JobKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// One admitted job: what to run, when it arrives, and its private seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable job index in arrival order.
    pub id: u32,
    /// The kernel to run.
    pub kind: JobKind,
    /// Arrival cycle on the campaign clock.
    pub arrival: u64,
    /// The job's private seed (graph shape, boundary values, …).
    pub seed: u64,
}

/// Synthesises `count` jobs with seeded interarrival gaps uniform in
/// `[1, 2·mean_interarrival]` cycles (mean `≈ mean_interarrival + ½`)
/// and kinds drawn round-robin-free from the same stream. Arrival times
/// are non-decreasing and the whole stream is a pure function of
/// `base_seed`.
///
/// # Panics
///
/// Panics if `count` exceeds `u32::MAX + 1`: job ids are `u32` and
/// must not repeat.
///
/// # Examples
///
/// ```
/// use wsp_sched::synthesize_jobs;
///
/// let jobs = synthesize_jobs(16, 42, 500);
/// assert_eq!(jobs.len(), 16);
/// assert!(jobs.windows(2).all(|w| w[0].arrival < w[1].arrival));
/// assert_eq!(jobs, synthesize_jobs(16, 42, 500));
/// ```
pub fn synthesize_jobs(count: usize, base_seed: u64, mean_interarrival: u64) -> Vec<JobSpec> {
    let mean = mean_interarrival.max(1);
    let mut rng = seeded_rng(stream_seed(base_seed, 0));
    let mut clock = 0u64;
    (0..count)
        .map(|id| {
            clock += rng.random_range(1..=2 * mean);
            JobSpec {
                id: u32::try_from(id).expect("job ids fit in u32"),
                kind: JobKind::ALL[rng.random_range(0..JobKind::ALL.len())],
                arrival: clock,
                seed: stream_seed(base_seed, 1 + id as u64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in JobKind::ALL {
            assert_eq!(JobKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(JobKind::parse("fft"), None);
    }

    #[test]
    fn stream_is_deterministic_and_open_loop() {
        let a = synthesize_jobs(64, 7, 300);
        let b = synthesize_jobs(64, 7, 300);
        assert_eq!(a, b);
        // Strictly increasing arrivals (gaps are >= 1).
        assert!(a.windows(2).all(|w| w[0].arrival < w[1].arrival));
        // Gap bounds hold.
        let mut prev = 0;
        for j in &a {
            let gap = j.arrival - prev;
            assert!((1..=600).contains(&gap), "gap {gap} out of range");
            prev = j.arrival;
        }
        // Every kind shows up in a 64-job stream.
        for kind in JobKind::ALL {
            assert!(a.iter().any(|j| j.kind == kind), "{kind:?} never drawn");
        }
        // Per-job seeds are decorrelated (all distinct here).
        let mut seeds: Vec<u64> = a.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
        // A different base seed moves the arrivals.
        assert_ne!(synthesize_jobs(64, 8, 300), a);
    }
}
