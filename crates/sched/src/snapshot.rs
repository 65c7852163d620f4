//! Campaign checkpoint/restore: a line-oriented text snapshot that
//! resumes bit-identically.
//!
//! Snapshots are taken at completion boundaries
//! ([`ServeCampaign::run_until_completed`]), where every slice machine
//! is quiescent — cores halted, fabric drained, memory models idle — so
//! the *entire* machine/fabric/memory state a mid-run checkpoint would
//! have to serialise is reconstructible from the slice's fault map
//! alone. What the snapshot must carry is exactly the campaign state:
//! the clock, the admission cursor, the queue, the current wafer fault
//! map (manufacturing plus injected failures), each slice's pending-job
//! accounting (including the already-computed completion digest, so a
//! resumed run never re-executes a dispatched job), the three latency
//! histograms (via raw accumulators), and the digest journal so far.
//! Restoring into the same [`ServeConfig`] and running to completion
//! yields byte-identical reports and journals to the uninterrupted run
//! — `scripts/check.sh` gates on exactly that.

use std::collections::VecDeque;
use std::fmt::Write as _;

use wsp_telemetry::{DigestJournal, Histogram, HISTOGRAM_BUCKETS};
use wsp_topo::FaultMap;

use crate::serve::{PendingJob, ServeCampaign, ServeConfig};

/// First line of every campaign snapshot; bump when the layout changes.
pub const SNAPSHOT_MAGIC: &str = "wsp-serve-snapshot-v1";

fn push_ids(out: &mut String, key: &str, ids: impl IntoIterator<Item = u32>) {
    out.push_str(key);
    for id in ids {
        let _ = write!(out, " {id}");
    }
    out.push('\n');
}

fn push_hist(out: &mut String, name: &str, hist: &Histogram) {
    let (count, sum, min, max, buckets) = hist.to_raw();
    let _ = write!(out, "hist {name} {count} {sum} {min} {max}");
    for b in buckets {
        let _ = write!(out, " {b}");
    }
    out.push('\n');
}

impl ServeCampaign {
    /// Serialises the campaign state (see the module docs for what is
    /// and is not captured).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_MAGIC);
        out.push('\n');
        let _ = writeln!(
            out,
            "wafer {} {}",
            self.config.wafer.cols(),
            self.config.wafer.rows()
        );
        let _ = writeln!(
            out,
            "slice {} {}",
            self.config.slice_width, self.config.slice_height
        );
        let _ = writeln!(out, "jobs {}", self.config.jobs.len());
        let _ = writeln!(out, "clock {}", self.clock);
        let _ = writeln!(out, "next_arrival {}", self.next_arrival);
        push_ids(&mut out, "queue", self.queue.iter().copied());
        push_ids(&mut out, "completed", self.completed.iter().copied());
        push_ids(&mut out, "dropped", self.dropped.iter().copied());
        let _ = writeln!(out, "incorrect {}", self.incorrect);
        push_ids(
            &mut out,
            "faults",
            self.wafer_faults
                .faulty_tiles()
                .map(|t| self.config.wafer.index_of(t) as u32),
        );
        let _ = writeln!(out, "slices {}", self.slices.len());
        for s in &self.slices {
            let _ = write!(
                out,
                "s {} {} {} {}",
                s.slice.id,
                u8::from(s.retired),
                s.busy_until,
                s.busy_cycles
            );
            if let Some(p) = &s.pending {
                let _ = write!(
                    out,
                    " p {} {} {:016x} {}",
                    p.job,
                    p.dispatched_at,
                    p.digest,
                    u8::from(p.correct)
                );
            }
            out.push('\n');
        }
        push_hist(&mut out, "queue_wait", &self.queue_wait);
        push_hist(&mut out, "service", &self.service);
        push_hist(&mut out, "sojourn", &self.sojourn);
        let journal = self.journal.to_text();
        let _ = writeln!(out, "journal {}", journal.lines().count());
        out.push_str(&journal);
        if !journal.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Rebuilds a campaign from `text`, validating it against `config`
    /// (the snapshot does not embed the job stream or machine options —
    /// the caller must supply the same config the snapshot was taken
    /// under; dimensions and job count are cross-checked).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or config
    /// mismatch.
    pub fn restore(config: ServeConfig, text: &str) -> Result<ServeCampaign, String> {
        let mut campaign = ServeCampaign::new(config).map_err(|e| e.to_string())?;
        let mut lines = text.lines();
        if lines.next() != Some(SNAPSHOT_MAGIC) {
            return Err(format!("snapshot does not start with {SNAPSHOT_MAGIC:?}"));
        }
        let wafer = parse_pair(lines.next(), "wafer")?;
        if wafer
            != (
                u64::from(campaign.config.wafer.cols()),
                u64::from(campaign.config.wafer.rows()),
            )
        {
            return Err("snapshot wafer dimensions do not match the config".into());
        }
        let slice = parse_pair(lines.next(), "slice")?;
        if slice
            != (
                u64::from(campaign.config.slice_width),
                u64::from(campaign.config.slice_height),
            )
        {
            return Err("snapshot slice dimensions do not match the config".into());
        }
        let jobs = parse_one(lines.next(), "jobs")?;
        if jobs != campaign.config.jobs.len() as u64 {
            return Err("snapshot job count does not match the config".into());
        }
        campaign.clock = parse_one(lines.next(), "clock")?;
        campaign.next_arrival = parse_one(lines.next(), "next_arrival")? as usize;
        let job_count = campaign.config.jobs.len();
        let job_ids = |line: Option<&str>, key: &str| {
            let ids = parse_ids(line, key)?;
            match ids.iter().find(|&&id| id as usize >= job_count) {
                Some(bad) => Err(format!(
                    "{key} job id {bad} outside the {job_count}-job stream"
                )),
                None => Ok(ids),
            }
        };
        campaign.queue = job_ids(lines.next(), "queue")?
            .into_iter()
            .collect::<VecDeque<u32>>();
        campaign.completed = job_ids(lines.next(), "completed")?;
        campaign.dropped = job_ids(lines.next(), "dropped")?;
        campaign.incorrect = parse_one(lines.next(), "incorrect")?;
        let fault_ids = parse_ids(lines.next(), "faults")?;
        let wafer_array = campaign.config.wafer;
        if let Some(&bad) = fault_ids
            .iter()
            .find(|&&i| i as usize >= wafer_array.tile_count())
        {
            return Err(format!("fault index {bad} outside the wafer"));
        }
        campaign.wafer_faults = FaultMap::from_faulty(
            wafer_array,
            fault_ids.iter().map(|&i| wafer_array.coord_of(i as usize)),
        );
        let slice_count = parse_one(lines.next(), "slices")? as usize;
        if slice_count != campaign.slices.len() {
            return Err(format!(
                "snapshot has {slice_count} slices, the config partitions into {}",
                campaign.slices.len()
            ));
        }
        for idx in 0..slice_count {
            let line = lines.next().ok_or("truncated slice list")?;
            let mut f = line.split_whitespace();
            if f.next() != Some("s") {
                return Err(format!("expected slice line, got {line:?}"));
            }
            let id: usize = field(f.next(), "slice id")?;
            if id != idx {
                return Err(format!("slice lines out of order at {id}"));
            }
            let retired: u8 = field(f.next(), "retired flag")?;
            let state = &mut campaign.slices[idx];
            state.retired = retired != 0;
            state.busy_until = field(f.next(), "busy_until")?;
            state.busy_cycles = field(f.next(), "busy_cycles")?;
            state.pending = match f.next() {
                None => None,
                Some("p") => {
                    let job: u32 = field(f.next(), "pending job")?;
                    let arrival = campaign
                        .config
                        .jobs
                        .get(job as usize)
                        .ok_or_else(|| {
                            format!("pending job id {job} outside the {job_count}-job stream")
                        })?
                        .arrival;
                    let dispatched_at: u64 = field(f.next(), "dispatch cycle")?;
                    if dispatched_at < arrival {
                        return Err(format!(
                            "pending job {job} dispatched at cycle {dispatched_at}, \
                             before its arrival at {arrival}"
                        ));
                    }
                    if state.busy_until < dispatched_at {
                        return Err(format!(
                            "pending job {job} completes at cycle {}, \
                             before its dispatch at {dispatched_at}",
                            state.busy_until
                        ));
                    }
                    let digest = u64::from_str_radix(f.next().ok_or("missing pending digest")?, 16)
                        .map_err(|e| format!("bad pending digest: {e}"))?;
                    let correct: u8 = field(f.next(), "correct flag")?;
                    Some(PendingJob {
                        job,
                        dispatched_at,
                        digest,
                        correct: correct != 0,
                    })
                }
                Some(other) => return Err(format!("unexpected slice field {other:?}")),
            };
        }
        campaign.queue_wait = parse_hist(lines.next(), "queue_wait")?;
        campaign.service = parse_hist(lines.next(), "service")?;
        campaign.sojourn = parse_hist(lines.next(), "sojourn")?;
        let journal_lines = parse_one(lines.next(), "journal")? as usize;
        let mut journal = String::new();
        for _ in 0..journal_lines {
            journal.push_str(lines.next().ok_or("truncated journal")?);
            journal.push('\n');
        }
        campaign.journal = DigestJournal::parse(&journal)?;
        Ok(campaign)
    }
}

fn field<T: std::str::FromStr>(raw: Option<&str>, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

fn keyed<'a>(line: Option<&'a str>, key: &str) -> Result<std::str::SplitWhitespace<'a>, String> {
    let line = line.ok_or_else(|| format!("missing {key} line"))?;
    let mut f = line.split_whitespace();
    if f.next() != Some(key) {
        return Err(format!("expected {key} line, got {line:?}"));
    }
    Ok(f)
}

fn parse_one(line: Option<&str>, key: &str) -> Result<u64, String> {
    let mut f = keyed(line, key)?;
    field(f.next(), key)
}

fn parse_pair(line: Option<&str>, key: &str) -> Result<(u64, u64), String> {
    let mut f = keyed(line, key)?;
    Ok((field(f.next(), key)?, field(f.next(), key)?))
}

fn parse_ids(line: Option<&str>, key: &str) -> Result<Vec<u32>, String> {
    keyed(line, key)?.map(|raw| field(Some(raw), key)).collect()
}

fn parse_hist(line: Option<&str>, name: &str) -> Result<Histogram, String> {
    let mut f = keyed(line, "hist")?;
    if f.next() != Some(name) {
        return Err(format!("expected histogram {name}"));
    }
    let count = field(f.next(), "hist count")?;
    let sum = field(f.next(), "hist sum")?;
    let min = field(f.next(), "hist min")?;
    let max = field(f.next(), "hist max")?;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for (i, b) in buckets.iter_mut().enumerate() {
        *b = field(f.next(), "hist bucket").map_err(|e| format!("{name} bucket {i}: {e}"))?;
    }
    if f.next().is_some() {
        return Err(format!("histogram {name} has trailing fields"));
    }
    Ok(Histogram::from_raw(count, sum, min, max, buckets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize_jobs;
    use wsp_topo::TileArray;

    fn config() -> ServeConfig {
        let mut cfg = ServeConfig::new(TileArray::new(8, 8), 4, 4);
        cfg.jobs = synthesize_jobs(14, 5, 1_500);
        cfg.fail_slice_after = Some(6);
        cfg
    }

    #[test]
    fn snapshot_round_trips_mid_campaign() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(5);
        let snap = campaign.snapshot();
        let restored = ServeCampaign::restore(config(), &snap).expect("parses");
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restored_campaign_finishes_bit_identically() {
        let mut uninterrupted = ServeCampaign::new(config()).expect("valid");
        uninterrupted.run_to_completion();

        let mut first_half = ServeCampaign::new(config()).expect("valid");
        first_half.run_until_completed(7);
        assert!(!first_half.is_done());
        let snap = first_half.snapshot();
        let mut resumed = ServeCampaign::restore(config(), &snap).expect("parses");
        resumed.run_to_completion();

        assert_eq!(resumed.clock(), uninterrupted.clock());
        assert_eq!(resumed.completed, uninterrupted.completed);
        assert_eq!(resumed.dropped, uninterrupted.dropped);
        assert_eq!(
            resumed.journal().to_text(),
            uninterrupted.journal().to_text()
        );
        assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
    }

    #[test]
    fn snapshot_rejects_mismatched_configs() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(3);
        let snap = campaign.snapshot();
        let mut other = config();
        other.jobs = synthesize_jobs(9, 5, 1_500);
        assert!(ServeCampaign::restore(other, &snap)
            .unwrap_err()
            .contains("job count"));
        let mut smaller = config();
        smaller.slice_width = 2;
        smaller.slice_height = 2;
        assert!(ServeCampaign::restore(smaller, &snap)
            .unwrap_err()
            .contains("slice dimensions"));
        assert!(ServeCampaign::restore(config(), "not a snapshot")
            .unwrap_err()
            .contains(SNAPSHOT_MAGIC));
    }

    /// `snap` with the line starting `key ` replaced by `line`.
    fn with_line(snap: &str, key: &str, line: &str) -> String {
        let prefix = format!("{key} ");
        let mut replaced = 0;
        let out: Vec<&str> = snap
            .lines()
            .map(|l| {
                if l == key || l.starts_with(&prefix) {
                    replaced += 1;
                    line
                } else {
                    l
                }
            })
            .collect();
        assert_eq!(replaced, 1, "exactly one {key} line");
        out.join("\n") + "\n"
    }

    #[test]
    fn snapshot_rejects_out_of_range_job_ids() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(3);
        let snap = campaign.snapshot();
        for (key, line) in [
            ("queue", "queue 999"),
            ("completed", "completed 0 14"),
            ("dropped", "dropped 999"),
        ] {
            let err = ServeCampaign::restore(config(), &with_line(&snap, key, line))
                .expect_err("tampered ids must not restore");
            assert!(err.contains("outside the 14-job stream"), "{key}: {err}");
        }
    }

    #[test]
    fn snapshot_rejects_impossible_pending_jobs() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        while campaign.slices.iter().all(|s| s.pending.is_none()) {
            assert!(campaign.step(), "some job gets dispatched");
        }
        let (idx, pending) = campaign
            .slices
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.pending.map(|p| (i, p)))
            .expect("a slice is busy");
        let slice = &campaign.slices[idx];
        let snap = campaign.snapshot();
        let arrival = campaign.config.jobs[pending.job as usize].arrival;
        let tampered = |job: u32, dispatched_at: u64| {
            with_line(
                &snap,
                &format!("s {idx}"),
                &format!(
                    "s {idx} 0 {} {} p {job} {dispatched_at} {:016x} 1",
                    slice.busy_until, slice.busy_cycles, pending.digest
                ),
            )
        };
        let err = ServeCampaign::restore(config(), &tampered(999, pending.dispatched_at))
            .expect_err("pending id out of range");
        assert!(err.contains("outside the 14-job stream"), "{err}");
        assert!(arrival > 0, "the stream's first arrival is after cycle 0");
        let err = ServeCampaign::restore(config(), &tampered(pending.job, arrival - 1))
            .expect_err("dispatch before arrival");
        assert!(err.contains("before its arrival"), "{err}");
        let err = ServeCampaign::restore(config(), &tampered(pending.job, slice.busy_until + 1))
            .expect_err("dispatch after completion");
        assert!(err.contains("before its dispatch"), "{err}");
        // The untampered line still restores.
        let same = tampered(pending.job, pending.dispatched_at);
        ServeCampaign::restore(config(), &same).expect("untampered pending job restores");
    }
}
