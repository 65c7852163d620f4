//! Regenerates the **Sec. II** system validation: BFS and SSSP on
//! reduced-size multi-tile systems (the paper's FPGA-emulation
//! experiments), with scaling across tile counts and fault injection.
//!
//! Run with `cargo run --release -p wsp-bench --bin workloads`.
//! Accepts `--json <path>` (metrics report), `--trace <path>` (Chrome
//! trace of an instrumented stencil machine run spanning the machine,
//! fabric, PDN, clock, and DfT subsystems), `--seed <u64>`,
//! `--threads <n>` (deterministic parallel backend), and `--smoke`
//! (reduced graph sizes).
//!
//! Exits non-zero if any fault-tolerance row could not find a connected
//! fault map within its resample budget (the row is reported as an error
//! rather than a panic, so the remaining rows and outputs still land).

use std::time::Instant;

use waferscale::workload::{
    build_halo_machine, reference_pagerank, run_bfs, run_pagerank, run_sssp, run_stencil, Graph,
    GraphKind, StencilGrid,
};
use waferscale::{SystemConfig, WaferscaleSystem};
use wsp_bench::{executor_code, header, metric_key, result_line, row, BenchOpts};
use wsp_clock::ClockSelector;
use wsp_common::parallel::Stepping;
use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;
use wsp_common::units::Amps;
use wsp_dft::TestSchedule;
use wsp_noc::sample_connected_fault_map;
use wsp_pdn::{LoadModel, PdnConfig};
use wsp_telemetry::{SharedRecorder, Sink};
use wsp_topo::{Direction, FaultMap, TileArray};

fn main() {
    let opts = BenchOpts::from_env();
    let recorder = SharedRecorder::new();
    let mut sink = recorder.clone();
    let threads = opts.threads_or_available();
    let seed = opts.seed_or(1234);
    let mut rng = seeded_rng(seed);
    let bfs_vertices = if opts.smoke { 2_000 } else { 20_000 };
    let small_vertices = if opts.smoke { 1_000 } else { 5_000 };
    let graph = Graph::generate(
        GraphKind::UniformRandom { avg_degree: 16 },
        bfs_vertices,
        &mut rng,
    );

    header(
        "Sec. II",
        "BFS scaling across system sizes (20k vertices, 320k edges)",
    );
    row(&[
        "system",
        "cores",
        "cycles",
        "MTEPS",
        "remote msgs",
        "correct",
    ]);
    let sizes: &[u16] = if opts.smoke { &[2, 4] } else { &[2, 4, 8, 16] };
    for &n in sizes {
        let cfg = SystemConfig::with_array(TileArray::new(n, n)).with_memory_model(opts.memory);
        let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
        let (dist, report) = run_bfs(&system, &graph, 0).expect("runs");
        let correct = dist == graph.reference_bfs(0);
        sink.gauge_set(&format!("machine.bfs.{n}x{n}.cycles"), report.cycles as f64);
        sink.gauge_set(&format!("machine.bfs.{n}x{n}.mteps"), report.mteps(&cfg));
        sink.counter_add(
            &format!("machine.bfs.{n}x{n}.remote_messages"),
            report.remote_messages,
        );
        row(&[
            format!("{n}x{n}"),
            format!("{}", cfg.total_cores()),
            format!("{}", report.cycles),
            format!("{:.0}", report.mteps(&cfg)),
            format!("{}", report.remote_messages),
            format!("{correct}"),
        ]);
    }

    header("Sec. II", "SSSP on an 8x8 system across graph families");
    row(&["graph", "supersteps", "cycles", "edges relaxed", "correct"]);
    let cfg = SystemConfig::with_array(TileArray::new(8, 8)).with_memory_model(opts.memory);
    let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
    for (name, kind) in [
        ("uniform d=8", GraphKind::UniformRandom { avg_degree: 8 }),
        ("grid 2-D", GraphKind::Grid2d),
        ("power law d=8", GraphKind::PowerLaw { avg_degree: 8 }),
    ] {
        let g = Graph::generate(kind, small_vertices, &mut rng);
        let (dist, report) = run_sssp(&system, &g, 0).expect("runs");
        let key = metric_key(name);
        sink.gauge_set(&format!("machine.sssp.{key}.cycles"), report.cycles as f64);
        sink.counter_add(
            &format!("machine.sssp.{key}.edges_relaxed"),
            report.edges_relaxed,
        );
        row(&[
            name.to_string(),
            format!("{}", report.supersteps),
            format!("{}", report.cycles),
            format!("{}", report.edges_relaxed),
            format!("{}", dist == g.reference_sssp(0)),
        ]);
    }

    header(
        "Sec. II",
        "PageRank on an 8x8 system (20 iterations, fixed-point exact)",
    );
    row(&["graph", "cycles", "remote msgs/iter", "correct"]);
    {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8)).with_memory_model(opts.memory);
        let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
        for (name, kind) in [
            ("uniform d=8", GraphKind::UniformRandom { avg_degree: 8 }),
            ("power law d=8", GraphKind::PowerLaw { avg_degree: 8 }),
        ] {
            let g = Graph::generate(kind, small_vertices, &mut rng);
            let (ranks, report) = run_pagerank(&system, &g, 20).expect("runs");
            let key = metric_key(name);
            sink.gauge_set(
                &format!("machine.pagerank.{key}.cycles"),
                report.cycles as f64,
            );
            row(&[
                name.to_string(),
                format!("{}", report.cycles),
                format!("{}", report.remote_messages / 20),
                format!("{}", ranks == reference_pagerank(&g, 20)),
            ]);
        }
    }

    header(
        "Sec. II / ref. [4]",
        "2-D Jacobi stencil scaling (256x256 grid, 100 iterations)",
    );
    row(&[
        "system",
        "cycles",
        "halo msgs/step",
        "wall time (ms)",
        "correct",
    ]);
    let (grid_n, iters) = if opts.smoke { (64, 10) } else { (256, 100) };
    let mut hot = StencilGrid::new(grid_n, grid_n);
    for y in 0..grid_n {
        hot.set(0, y, 100.0);
    }
    let stencil_sizes: &[u16] = if opts.smoke { &[2, 4] } else { &[2, 4, 8] };
    for &n in stencil_sizes {
        let cfg = SystemConfig::with_array(TileArray::new(n, n)).with_memory_model(opts.memory);
        let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
        let (result, report) = run_stencil(&system, &hot, iters).expect("runs");
        sink.gauge_set(
            &format!("machine.stencil.{n}x{n}.cycles"),
            report.cycles as f64,
        );
        row(&[
            format!("{n}x{n}"),
            format!("{}", report.cycles),
            format!("{}", report.remote_messages / iters as u64),
            format!("{:.3}", report.wall_time(&cfg).value() * 1e3),
            format!("{}", result == hot.reference_jacobi(iters)),
        ]);
    }

    header(
        "Sec. VI x Sec. II",
        "fault tolerance: BFS on an 8x8 wafer as chiplets fail",
    );
    row(&[
        "faulty tiles",
        "usable cores",
        "mean cycles",
        "slowdown",
        "correct",
    ]);
    let g = Graph::generate(
        GraphKind::UniformRandom { avg_degree: 12 },
        bfs_vertices / 2,
        &mut rng,
    );
    let base_cfg = SystemConfig::with_array(TileArray::new(8, 8)).with_memory_model(opts.memory);
    // Connected fault maps averaged per row, and the resample budget per map.
    const FAULT_SAMPLES: usize = 8;
    const RESAMPLE_BUDGET: usize = 32;
    let mut sampling_failures = 0usize;
    let mut base_cycles: Option<f64> = None;
    for faults_n in [0usize, 2, 4, 8] {
        // Each row derives its fault maps from a sub-seed built only from
        // the base seed and the row's fault count, and each of the row's
        // samples retries inside its own decorrelated sub-seed stream
        // (`sample_connected_fault_map`). Neither another row's resampling
        // nor an earlier sample's retries can shift a later map, so every
        // map is reproducible in isolation. Averaging a few maps per row
        // also keeps one outlier map from defining the row.
        let row_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(faults_n as u64 + 1);
        // (cycles, usable cores, answer correct) per connected map.
        let mut samples: Vec<(u64, usize, bool)> = Vec::new();
        for sample in 0..FAULT_SAMPLES {
            // A sampled map can wall healthy tiles off from the rest of the
            // wafer, which legitimately makes some graph owners unreachable.
            // The connected-region predicate is exactly the condition under
            // which the kernel can route (store-and-forward reachability),
            // so a successfully sampled map never fails `run_bfs`.
            let Ok((faults, _attempt)) = sample_connected_fault_map(
                base_cfg.array(),
                faults_n,
                stream_seed(row_seed, sample as u64),
                RESAMPLE_BUDGET,
            ) else {
                break;
            };
            let system = WaferscaleSystem::with_faults(base_cfg, faults);
            let (dist, report) = run_bfs(&system, &g, 0).expect("connected fault map routes");
            samples.push((
                report.cycles,
                system.faults().healthy_count() * 14,
                dist == g.reference_bfs(0),
            ));
        }
        if samples.len() < FAULT_SAMPLES {
            sampling_failures += 1;
            sink.counter_add("machine.bfs_faults.sampling_failures", 1);
            row(&[
                format!("{faults_n}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("ERROR: no connected fault map in {RESAMPLE_BUDGET} samples"),
            ]);
            continue;
        }
        let mean_cycles =
            samples.iter().map(|&(c, _, _)| c as f64).sum::<f64>() / samples.len() as f64;
        let mean_cores =
            samples.iter().map(|&(_, u, _)| u as f64).sum::<f64>() / samples.len() as f64;
        let all_correct = samples.iter().all(|&(_, _, ok)| ok);
        let base = *base_cycles.get_or_insert(mean_cycles);
        let slowdown = mean_cycles / base;
        sink.gauge_set(&format!("machine.bfs_faults.{faults_n}.slowdown"), slowdown);
        sink.gauge_set(
            &format!("machine.bfs_faults.{faults_n}.mean_cycles"),
            mean_cycles,
        );
        row(&[
            format!("{faults_n}"),
            format!("{mean_cores:.0}"),
            format!("{mean_cycles:.0}"),
            format!("{slowdown:.2}x"),
            format!("{all_correct}"),
        ]);
    }
    result_line(
        "takeaway",
        "answers stay correct under faults; only performance degrades",
        Some("the kernel reroutes around the fault map"),
    );

    mini_serve_campaign(&mut sink, seed, threads, opts.stepping);

    if !opts.smoke {
        memory_fidelity_sweep(&mut sink, seed, threads);
        full_wafer_machine_bench(&mut sink, threads, opts.stepping);
        wheel_vs_dense_machine_bench(&mut sink, threads);
    }
    traced_stencil_run(&recorder, &opts, threads);
    opts.write_outputs("workloads", &recorder);
    if sampling_failures > 0 {
        eprintln!(
            "error: {sampling_failures} fault-tolerance row(s) found no connected fault map \
             within {RESAMPLE_BUDGET} samples (see table above)"
        );
        std::process::exit(1);
    }
}

/// A small fixed-size wafer-as-a-service campaign (8x8 wafer, 4x4
/// slices, 20 jobs, one injected slice failure), recording its SLO
/// metrics — queueing/service/sojourn latency histograms with
/// p50/p95/p99, slice utilisation, and jobs/s — under the `serve.`
/// prefix of BENCH_machine.json. The same configuration runs in smoke
/// and full mode, and every value is a simulated-clock quantity, so the
/// section is byte-stable across hosts and sweeps with the code, not
/// with the machine it ran on.
fn mini_serve_campaign(sink: &mut SharedRecorder, seed: u64, threads: usize, stepping: Stepping) {
    header(
        "Serving",
        "wafer-as-a-service mini campaign: 8x8 wafer, 4x4 slices",
    );
    let wafer = TileArray::new(8, 8);
    let (faults, _attempt) =
        sample_connected_fault_map(wafer, 2, seed, 32).expect("fault sampling within budget");
    let mut config = wsp_sched::ServeConfig::new(wafer, 4, 4);
    config.wafer_faults = faults;
    config.jobs = wsp_sched::synthesize_jobs(20, seed, 2_500);
    config.threads = threads;
    config.stepping = stepping;
    config.fail_slice_after = Some(10);
    let mut campaign = wsp_sched::ServeCampaign::new(config).expect("valid campaign config");
    campaign.run_to_completion();
    campaign.export_metrics(sink);
    row(&["metric", "value"]);
    row(&[
        "jobs completed".to_string(),
        format!("{}", campaign.completed()),
    ]);
    row(&[
        "slices retired".to_string(),
        format!("{}", campaign.retired_slices()),
    ]);
    row(&[
        "makespan cycles".to_string(),
        format!("{}", campaign.clock()),
    ]);
    result_line(
        "takeaway",
        "the wafer serves a job stream through slice failure without losing work",
        Some("full campaign: the `serve` bench bin"),
    );
}

/// The memory-fidelity sweep: BFS, SSSP, PageRank, and the halo-exchange
/// machine each run under the fixed-latency and the banked row-buffer
/// backend, recording the slowdown and the row-buffer hit rate. The
/// backend must never change answers, and banked cycles must dominate
/// fixed cycles (the banked model only ever adds latency) — both are
/// asserted, not just reported. Skipped in smoke mode.
fn memory_fidelity_sweep(sink: &mut SharedRecorder, seed: u64, threads: usize) {
    use wsp_tile::MemoryModelKind;

    header(
        "Memory hierarchy",
        "kernel slowdown under banked row-buffer timing (8x8)",
    );
    row(&[
        "workload",
        "fixed cycles",
        "banked cycles",
        "slowdown",
        "row hit rate",
    ]);
    let mut rng = seeded_rng(seed ^ 0xA5A5_A5A5);
    let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 5_000, &mut rng);
    let system_with = |kind: MemoryModelKind| {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8)).with_memory_model(kind);
        WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()))
    };
    // (cycles, stalls the fixed run must not have charged, row hit rate)
    let mut report_row = |name: &str, fixed: (u64, u64, f64), banked: (u64, u64, f64)| {
        let (fixed_cycles, fixed_stalls, _) = fixed;
        let (banked_cycles, _, hit_rate) = banked;
        assert_eq!(fixed_stalls, 0, "{name}: fixed backend charged stalls");
        assert!(
            banked_cycles >= fixed_cycles,
            "{name}: banked ({banked_cycles}) undercut fixed ({fixed_cycles})"
        );
        let slowdown = banked_cycles as f64 / fixed_cycles.max(1) as f64;
        let key = metric_key(name);
        sink.gauge_set(
            &format!("machine.memory.{key}.fixed_cycles"),
            fixed_cycles as f64,
        );
        sink.gauge_set(
            &format!("machine.memory.{key}.banked_cycles"),
            banked_cycles as f64,
        );
        sink.gauge_set(&format!("machine.memory.{key}.slowdown"), slowdown);
        sink.gauge_set(&format!("machine.memory.{key}.row_hit_rate"), hit_rate);
        row(&[
            name.to_string(),
            format!("{fixed_cycles}"),
            format!("{banked_cycles}"),
            format!("{slowdown:.3}x"),
            format!("{:.1}%", hit_rate * 100.0),
        ]);
    };

    let bfs = |kind| {
        let (_, r) = run_bfs(&system_with(kind), &graph, 0).expect("runs");
        (r.cycles, r.mem_stall_cycles, r.row_hit_rate())
    };
    report_row(
        "BFS",
        bfs(MemoryModelKind::Fixed),
        bfs(MemoryModelKind::Banked),
    );
    let sssp = |kind| {
        let (_, r) = run_sssp(&system_with(kind), &graph, 0).expect("runs");
        (r.cycles, r.mem_stall_cycles, r.row_hit_rate())
    };
    report_row(
        "SSSP",
        sssp(MemoryModelKind::Fixed),
        sssp(MemoryModelKind::Banked),
    );
    let pagerank = |kind| {
        let (_, r) = run_pagerank(&system_with(kind), &graph, 20).expect("runs");
        (r.cycles, r.mem_stall_cycles, r.row_hit_rate())
    };
    report_row(
        "PageRank",
        pagerank(MemoryModelKind::Fixed),
        pagerank(MemoryModelKind::Banked),
    );
    let halo = |kind| {
        let mut m = waferscale::workload::build_halo_machine_with_memory(8, threads, kind);
        let stats = m.run_until_halt(1_000_000).expect("halts");
        (stats.cycles, 0, m.memory_profile().row_hit_rate())
    };
    report_row(
        "halo machine",
        halo(MemoryModelKind::Fixed),
        halo(MemoryModelKind::Banked),
    );
    result_line(
        "takeaway",
        "row-buffer fidelity only adds latency; answers and counters stay exact",
        None,
    );
}

/// The machine-layer speedup measurement: a full-wafer 32×32
/// fabric-model machine runs the halo-exchange kernel at one thread and
/// at `threads`, asserting the results are bit-identical and recording
/// both wall-clocks. At `threads == 1` the "parallel" run *is* the
/// sequential run — no worker pool is built and no duplicate heavy run
/// happens, so the reported speedup is 1.00 by definition (the old
/// duplicate run measured pool overhead against itself and reported a
/// bogus 0.59x). Skipped in smoke mode (wall-clock gauges would break
/// the byte-identical-JSON determinism gate).
fn full_wafer_machine_bench(sink: &mut SharedRecorder, threads: usize, stepping: Stepping) {
    header(
        "Parallel backend",
        "full-wafer 32x32 machine halo exchange, 1 thread vs N",
    );
    let run = |threads: usize| {
        let mut m = build_halo_machine(32, threads);
        m.set_stepping(stepping);
        let start = Instant::now();
        let stats = m.run_until_halt(1_000_000).expect("halts");
        (stats, start.elapsed(), m.executor())
    };
    let (seq_stats, seq_wall, seq_executor) = run(1);
    let (par_wall, par_executor) = if threads > 1 {
        let (par_stats, par_wall, par_executor) = run(threads);
        assert_eq!(
            seq_stats, par_stats,
            "parallel machine diverged from sequential on the full wafer"
        );
        (par_wall, par_executor)
    } else {
        (seq_wall, seq_executor)
    };
    let speedup = if threads > 1 {
        seq_wall.as_secs_f64() / par_wall.as_secs_f64()
    } else {
        1.0
    };
    row(&["threads", "wall ms", "speedup", "executor"]);
    row(&[
        "1".to_string(),
        format!("{:.1}", seq_wall.as_secs_f64() * 1e3),
        "1.00".to_string(),
        seq_executor.to_string(),
    ]);
    row(&[
        format!("{threads}"),
        format!("{:.1}", par_wall.as_secs_f64() * 1e3),
        format!("{speedup:.2}"),
        par_executor.to_string(),
    ]);
    sink.gauge_set("machine.full_wafer.cycles", seq_stats.cycles as f64);
    sink.gauge_set(
        "machine.full_wafer.remote_accesses",
        seq_stats.remote_accesses as f64,
    );
    sink.gauge_set("wall.machine.full_wafer.threads", threads as f64);
    sink.gauge_set(
        "wall.machine.full_wafer.ms_1_thread",
        seq_wall.as_secs_f64() * 1e3,
    );
    sink.gauge_set(
        "wall.machine.full_wafer.ms_n_threads",
        par_wall.as_secs_f64() * 1e3,
    );
    sink.gauge_set("wall.machine.full_wafer.speedup", speedup);
    sink.gauge_set(
        "wall.machine.full_wafer.executor_code",
        executor_code(par_executor),
    );
    result_line(
        "full-wafer machine",
        format!(
            "{} cycles, bit-identical at 1 and {threads} thread(s), speedup {speedup:.2}x ({par_executor})",
            seq_stats.cycles
        ),
        None,
    );
}

/// The stepping-mode measurement: the same halo-exchange machine at
/// 16×16 run under the dense sweep and under wheel stepping (the
/// runnable-tile walk plus stalled-window jumps), asserting stats,
/// per-core activity, and the runnable-tiles sample all match bit for
/// bit, and recording the wall-clocks. Skipped in smoke mode (the
/// determinism gate byte-compares the smoke JSON across modes).
fn wheel_vs_dense_machine_bench(sink: &mut SharedRecorder, threads: usize) {
    header(
        "Wheel stepping",
        "16x16 machine halo exchange, dense sweep vs wheel stepping",
    );
    let run = |stepping: Stepping| {
        let mut m = build_halo_machine(16, threads);
        m.set_stepping(stepping);
        let start = Instant::now();
        let stats = m.run_until_halt(1_000_000).expect("halts");
        let wall = start.elapsed();
        (
            stats,
            wall,
            m.per_tile_activity(),
            m.runnable_tiles().clone(),
        )
    };
    let (dense_stats, dense_wall, dense_activity, dense_hist) = run(Stepping::Dense);
    let (wheel_stats, wheel_wall, wheel_activity, wheel_hist) = run(Stepping::Wheel);
    assert_eq!(
        dense_stats, wheel_stats,
        "wheel stepping diverged from the dense sweep"
    );
    assert_eq!(
        dense_activity, wheel_activity,
        "per-core activity diverged between stepping modes"
    );
    assert_eq!(
        dense_hist, wheel_hist,
        "runnable-tile samples diverged between stepping modes"
    );
    let wheel_speedup = dense_wall.as_secs_f64() / wheel_wall.as_secs_f64();
    row(&["stepping", "wall ms", "speedup", "identical"]);
    row(&[
        "dense".to_string(),
        format!("{:.1}", dense_wall.as_secs_f64() * 1e3),
        "1.00".to_string(),
        "-".to_string(),
    ]);
    row(&[
        "wheel".to_string(),
        format!("{:.1}", wheel_wall.as_secs_f64() * 1e3),
        format!("{wheel_speedup:.2}"),
        "true".to_string(),
    ]);
    sink.gauge_set(
        "wall.machine.wheel.halo.ms_dense",
        dense_wall.as_secs_f64() * 1e3,
    );
    sink.gauge_set(
        "wall.machine.wheel.halo.ms_wheel",
        wheel_wall.as_secs_f64() * 1e3,
    );
    sink.gauge_set("wall.machine.wheel.halo.speedup", wheel_speedup);
    sink.gauge_set("machine.wheel.halo.runnable_mean", wheel_hist.mean());
    result_line(
        "mean runnable tiles per cycle",
        format!(
            "{:.1} of {} (the wheel's walk only visits those)",
            wheel_hist.mean(),
            16 * 16
        ),
        None,
    );
}

/// The instrumented showcase run behind `--trace`: a 4×4 multi-tile
/// machine executes a halo-exchange stencil on the cycle-level fabric
/// with machine and fabric sinks installed, a clock-selection bring-up
/// and a DfT program load are traced alongside it, and the machine's
/// per-tile activity drives a traced PDN solve — one timeline covering
/// five subsystems. This machine also carries the run-artifact
/// observability: gauge time series, the determinism-digest journal
/// (written next to the JSON report), and — outside smoke mode — the
/// wall-clock phase profile.
fn traced_stencil_run(recorder: &SharedRecorder, opts: &BenchOpts, threads: usize) {
    const N: u16 = 4;
    let stepping = opts.stepping;
    let mut sink = recorder.clone();

    header(
        "Telemetry",
        "traced stencil run (machine + fabric + pdn + clock + dft)",
    );

    // Clock bring-up: the west edge generates, every other tile locks
    // onto its west neighbour's forwarded clock in a sweep.
    let array = TileArray::new(N, N);
    for tile in array.tiles() {
        let track = u64::from(tile.y) * u64::from(N) + u64::from(tile.x);
        let at = u64::from(tile.x) * 20;
        let mut sel = ClockSelector::new();
        if tile.x == 0 {
            sel.configure_as_generator_traced(&mut sink, track, at);
        } else {
            sel.begin_auto_selection_traced(&mut sink, track, at);
            for i in 0..ClockSelector::DEFAULT_TOGGLE_COUNT {
                sel.observe_toggle_traced(Direction::West, &mut sink, track, at + 1 + u64::from(i));
            }
        }
    }

    // DfT: the program load that precedes execution.
    TestSchedule::paper_multichain().trace_load(16 * 1024, &mut sink);

    // The halo-exchange machine, fully instrumented.
    let mut m = build_halo_machine(N, threads);
    m.set_stepping(stepping);
    m.set_sink(recorder.boxed());
    m.fabric_mut().set_sink(recorder.boxed());
    m.set_sampling(opts.sample_every);
    m.set_digests(opts.digest_every);
    m.set_profiling(!opts.smoke);
    let stats = m.run_until_halt(1_000_000).expect("halts");
    m.export_metrics(&mut sink);
    if !opts.smoke {
        m.export_profile(&mut sink);
    }
    opts.write_digest(m.journal());
    result_line(
        "stencil machine",
        format!(
            "{} cycles, {} remote accesses, mean RTT {:.1} cycles",
            stats.cycles,
            stats.remote_accesses,
            stats.mean_remote_latency()
        ),
        None,
    );

    // The machine's activity becomes the PDN's per-tile load: busy tiles
    // (by retired instructions) draw peak current, idle ones leakage.
    let activity = m.per_tile_activity();
    let max_retired = activity.iter().map(|&(r, _)| r).max().unwrap_or(1).max(1);
    let peak = PdnConfig::PAPER_TILE_CURRENT;
    let currents: Vec<Amps> = activity
        .iter()
        .map(|&(retired, _)| {
            Amps(peak.value() * (0.05 + 0.95 * retired as f64 / max_retired as f64))
        })
        .collect();
    let pdn = PdnConfig::new(
        array,
        PdnConfig::PAPER_SUPPLY,
        PdnConfig::PAPER_LOOP_SHEET_RESISTANCE,
        wsp_common::units::Ohms::from_milliohms(1.0),
        LoadModel::ConstantCurrent(peak),
        [true; 4],
    );
    let sol = pdn
        .solve_with_tile_currents_traced(&currents, &mut sink)
        .expect("converges");
    result_line(
        "activity-driven PDN",
        format!(
            "min tile voltage {:.3} V after {} SOR iterations",
            sol.min_voltage().value(),
            sol.iterations()
        ),
        None,
    );

    let categories = recorder.with(|r| {
        r.tracer
            .categories()
            .into_iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    });
    result_line("trace categories", categories.join(", "), None);
}
