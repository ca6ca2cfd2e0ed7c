//! `frontier`: the paper's §V.C evaluation grid.
//!
//! `SweepConfig::full()`'s 13-scheme roster × 9 failure models, with the
//! seed axis replaced by the run's seed. It is the only workload that runs
//! `ae_sim` and `ae_sweep` (the availability plane and its parallel
//! planner), and it moves no bytes, so store, kernel, service and async
//! I/O changes must leave it unchanged. The grid runs one cell at a time
//! (each cell is a one-scheme, one-failure, one-seed `SweepConfig`), so
//! every cell is timed, and passes repeat until the run's time is up. The
//! 117 cells are fewer than a p99 needs, so latency is over per-cell
//! times. The traced run also runs the whole grid through one `run_sweep`
//! call and checks its CSV equals the per-cell CSV byte for byte.

use crate::common::{best_quartile, fnv, median, timed_setup, Outcome, Samples, FNV_OFFSET};
use crate::trace::{self, kind};
use ae_sweep::{run_sweep, CellResult, Scheme, SweepConfig, CSV_HEADER};
use std::time::{Duration, Instant};

/// Per-family cell-time metrics, indexed by [`family`].
pub const CELL_METRICS: [&str; 5] = [
    "sweep.cell_ms.ae",
    "sweep.cell_ms.rs",
    "sweep.cell_ms.rep",
    "sweep.cell_ms.chain",
    "sweep.cell_ms.geo",
];

/// Grid of the workload.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Data blocks per deployment.
    pub data_blocks: u64,
}

impl Scale {
    /// The full preset's deployment.
    pub const BENCH: Scale = Scale {
        data_blocks: 120_000,
    };
}

fn family(s: &Scheme) -> usize {
    match s {
        Scheme::Ae(_) => 0,
        Scheme::Rs { .. } => 1,
        Scheme::Replication { .. } => 2,
        Scheme::Chain { .. } => 3,
        Scheme::Geo { .. } => 4,
    }
}

fn grid(seed: u64, scale: Scale) -> SweepConfig {
    SweepConfig {
        data_blocks: scale.data_blocks,
        seeds: vec![seed],
        ..SweepConfig::full()
    }
}

/// The grid's cells as one-cell configs, in `run_sweep`'s order.
fn cells(g: &SweepConfig) -> Vec<SweepConfig> {
    let mut out = Vec::new();
    for s in &g.schemes {
        for f in &g.failures {
            out.push(SweepConfig {
                schemes: vec![*s],
                failures: vec![*f],
                ..g.clone()
            });
        }
    }
    out
}

/// CSV body row of one cell (the sweep's own serialization).
fn row(cfg: &SweepConfig, c: &CellResult) -> String {
    let csv = ae_sweep::SweepResult {
        config: cfg.clone(),
        cells: vec![c.clone()],
    }
    .to_csv();
    csv[CSV_HEADER.len() + 1..].to_string()
}

/// Runs `frontier` for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: build and validate the grid, and run its first cell once so
    // lazy initialization is paid before timing.
    let (cfgs, setup_s) = timed_setup(9, || {
        let g = grid(seed, scale);
        g.validate().expect("the full grid is valid");
        let cfgs = cells(&g);
        run_sweep(&cfgs[0]).expect("valid cell");
        cfgs
    });
    out.e2e.setup_s = setup_s;
    trace::reset();

    // Each cell's time is its better quartile over the passes
    // (`best_quartile`), so a pass that meets outside interference moves
    // nothing; latency and throughput come from these per-cell times.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cfgs.len()];
    let mut digest = None;
    let (mut rounds, mut blocks_read, mut passes) = (0u64, 0u64, 0u64);
    while passes == 0 || start.elapsed() < budget {
        let mut csv = String::from(CSV_HEADER);
        csv.push('\n');
        let (mut pass_rounds, mut pass_reads) = (0, 0);
        for (i, cfg) in cfgs.iter().enumerate() {
            let t0 = Instant::now();
            let res = trace::span(kind::CELL, || run_sweep(cfg));
            times[i].push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            let cell = match res {
                Ok(r) if r.cells.len() == 1 => r.cells[0].clone(),
                other => {
                    out.fail(format_args!(
                        "cell did not produce one result: {:?}",
                        other.err()
                    ));
                    continue;
                }
            };
            if cell.failed_data + cell.failed_redundancy
                != cell.repaired + cell.lost_data + cell.lost_redundancy
            {
                out.fail(format_args!(
                    "{} under {}: failed != repaired + lost",
                    cell.scheme, cell.failure
                ));
            }
            pass_rounds += cell.rounds;
            pass_reads += cell.blocks_read;
            csv.push_str(&row(cfg, &cell));
        }
        let d = fnv(FNV_OFFSET, csv.as_bytes());
        match digest {
            None => digest = Some(d),
            Some(first) if first != d => out.fail("grid passes produced different CSVs"),
            Some(_) => {}
        }
        if passes > 0 && (pass_rounds, pass_reads) != (rounds, blocks_read) {
            out.fail("grid passes produced different round or read counts");
        }
        rounds = pass_rounds;
        blocks_read = pass_reads;
        passes += 1;
    }
    out.digest = digest.expect("at least one pass");
    let cell_s: Vec<f64> = times.iter().map(|t| best_quartile(t, true)).collect();
    let mut samples = Samples::default();
    let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); CELL_METRICS.len()];
    for (cfg, &s) in cfgs.iter().zip(&cell_s) {
        samples.push_s(s);
        per_family[family(&cfg.schemes[0])].push(s * 1e3);
    }

    if trace::enabled() {
        // The whole grid through one call must produce the same bytes.
        let whole = trace::paused(|| run_sweep(&grid(seed, scale)).expect("valid grid").to_csv());
        if fnv(FNV_OFFSET, whole.as_bytes()) != out.digest {
            out.fail("whole-grid CSV differs from the per-cell CSV");
        }
    }

    out.samples = samples.len();
    (out.e2e.op_p50_ms, out.e2e.op_p99_ms) = samples.windowed_p50_p99();
    out.e2e.work_per_s = cfgs.len() as f64 / cell_s.iter().sum::<f64>();
    out.named = vec![("sweep_cells_per_s", "cells/s", out.e2e.work_per_s)];
    for (name, times) in CELL_METRICS.into_iter().zip(&per_family) {
        out.layers.insert(name, median(times));
    }
    out.layers.insert("sim.rounds", rounds as f64);
    out.layers.insert("sim.blocks_read", blocks_read as f64);
    eprintln!("perfbench: frontier passes={passes}");
    out
}
