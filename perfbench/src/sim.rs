//! The simulator side: each workload's figures, run from the figure
//! catalog (`fgs_bench::run_figure`) at its Quick run length. An engine
//! workload times the figures of its own workload family; `sim-figures`
//! times fig3 (HOTCOLD), fig8 (HICON) and fig12 (9x-scaled HOTCOLD).
//! The catalog runs every figure at its own seed, so the simulator's
//! work is the same in every run and its time measures the simulator,
//! not the seed.
//!
//! Simulator work runs in a child process (this binary, `sim-child`),
//! so the sweep's worker count can be set through `FGS_SIM_WORKERS`, the
//! simulator's `FGS_SIM_DEBUG` `events=` lines can be read from its
//! stderr, and two processes can be compared for bit-identical output:
//! the fig8 defect (hash-order deadlock victims) only shows across
//! processes.

use crate::report::{percentile, ratio, Report};
use fgs_bench::{run_figure, Quality};
use fgs_core::Protocol;
use fgs_sim::{run_point, Figure, RunMetrics, SystemConfig};
use fgs_workload::WorkloadSpec;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Sweep workers for the figure wall-clock, sized for a 2-CPU host.
pub const WORKERS: usize = 2;

/// The catalog figures a workload times.
pub fn figures_of(workload: &str) -> &'static [&'static str] {
    match workload {
        // PRIVATE, high page locality.
        "commit-private" => &["fig10"],
        // HICON, high and low page locality.
        "hicon-tcp" => &["fig9", "fig8"],
        // UNIFORM, low and high page locality.
        "uniform-scan" => &["fig6", "fig7"],
        _ => &["fig3", "fig8", "fig12"],
    }
}

/// What the child runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end timing: the figures through the catalog's parallel
    /// sweep on `WORKERS` workers, or the workload's point repeated.
    Time,
    /// The per-layer run: the same work on one worker, with the
    /// simulator's debug lines on, so each cell can be timed.
    Cells,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "time" => Some(Mode::Time),
            "cells" => Some(Mode::Cells),
            _ => None,
        }
    }

    fn arg(self) -> &'static str {
        match self {
            Mode::Time => "time",
            Mode::Cells => "cells",
        }
    }
}

/// The simulated system with the engine workloads' two clients.
fn two_clients() -> SystemConfig {
    SystemConfig {
        num_clients: 2,
        ..SystemConfig::default()
    }
}

/// FNV-1a over the exact (`Debug`, shortest round-trip floats) text of
/// the metrics: equal digests mean bit-identical output.
fn digest(runs: &[RunMetrics]) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in format!("{runs:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// A figure's grid is complete when every protocol has a series over
/// the same write probabilities and every point has its run.
fn complete(fig: &Figure) -> bool {
    let Some(first) = fig.series.first() else {
        return false;
    };
    let xs: Vec<f64> = first.points.iter().map(|p| p.0).collect();
    fig.series.len() == Protocol::ALL.len()
        && !xs.is_empty()
        && fig
            .series
            .iter()
            .all(|s| s.points.iter().map(|p| p.0).eq(xs.iter().copied()))
        && fig.runs.len() == fig.series.len() * xs.len()
}

fn print_point(m: &RunMetrics) {
    let commits = m.commits as f64;
    println!(
        "point {} {} {} {} {} {}",
        m.msgs_per_commit,
        ratio(m.callbacks as f64, commits),
        ratio(m.deescalations as f64, commits),
        m.page_grant_frac,
        m.restarts_per_commit,
        m.commits
    );
}

/// The child process: runs `figures` from the catalog and prints
/// `key values…` lines on stdout. In `Mode::Cells` it also simulates
/// `xcheck_spec` as a 2-client point for the traced run's cross-check.
pub fn child(figures: &[&str], xcheck_spec: WorkloadSpec, mode: Mode) {
    // Marks the start of the first cell for the parent's cell timing.
    eprintln!("start");
    let t = Instant::now();
    let figures: Vec<Figure> = figures
        .iter()
        .map(|id| run_figure(id, Quality::Quick))
        .collect();
    println!("wall {}", t.elapsed().as_secs_f64());
    // Marks the end of the last cell: what follows is not a figure cell.
    eprintln!("end");
    let runs: Vec<RunMetrics> = figures.iter().flat_map(|f| f.runs.clone()).collect();
    let min_commits = runs.iter().map(|m| m.commits).min().unwrap_or(0);
    let whole = figures.iter().all(complete);
    println!("cells {} {min_commits} {}", runs.len(), u8::from(whole));
    println!("digest {}", digest(&runs));
    if mode == Mode::Cells {
        let run = Quality::Quick.run_config();
        print_point(&run_point(
            Protocol::PsAa,
            xcheck_spec,
            &two_clients(),
            &run,
        ));
    }
}

/// What the parent reads back from one child.
#[derive(Default)]
pub struct ChildOutput {
    /// Wall-clock of the figures.
    pub wall_s: f64,
    pub cells: usize,
    pub min_commits: u64,
    /// Every figure's grid is complete.
    pub complete: bool,
    pub cell_ms: Vec<f64>,
    /// Digest of all the child's simulator output.
    pub digest: String,
    /// msgs, callbacks, de-escalations per commit, page-grant fraction,
    /// restarts per commit, commits.
    pub point: Option<[f64; 6]>,
    /// Sum of the `events=` counts the simulator printed.
    pub events: u64,
}

impl ChildOutput {
    /// Every cell ran, and committed.
    pub fn ok(&self) -> bool {
        self.complete && self.cells > 0 && self.min_commits > 0
    }
}

/// Runs the child for `workload` and parses its output. In
/// `Mode::Cells` the sweep runs on one worker and each cell's time is
/// the gap between the simulator's debug lines as they arrive.
pub fn spawn_child(workload: &str, mode: Mode) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["sim-child", workload, mode.arg()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let workers = if mode == Mode::Cells { 1 } else { WORKERS };
    cmd.env("FGS_SIM_WORKERS", workers.to_string());
    if mode == Mode::Cells {
        cmd.env("FGS_SIM_DEBUG", "1");
    } else {
        cmd.env_remove("FGS_SIM_DEBUG");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn sim child: {e}"))?;
    let mut parsed = ChildOutput::default();
    let (mut stderr_text, mut last) = (String::new(), None::<Instant>);
    let stderr = child.stderr.take().expect("piped stderr");
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        let now = Instant::now();
        if line == "start" || line == "end" {
            last = (line == "start").then_some(now);
        } else if let Some(events) = line.strip_prefix("events=") {
            // Outside the figures: the cross-check point.
            let Some(prev) = last.replace(now) else {
                continue;
            };
            parsed.cell_ms.push((now - prev).as_secs_f64() * 1e3);
            parsed.events += events
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0);
        } else {
            stderr_text.push_str(&line);
            stderr_text.push('\n');
        }
    }
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("read sim child: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait sim child: {e}"))?;
    if !status.success() {
        return Err(format!("sim child failed ({status}): {stderr_text}"));
    }
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        let key = it.next().unwrap_or("");
        let nums: Vec<f64> = it.clone().filter_map(|v| v.parse().ok()).collect();
        match (key, nums.as_slice()) {
            ("wall", [w]) => parsed.wall_s = *w,
            ("cells", [n, c, whole]) => {
                parsed.cells = *n as usize;
                parsed.min_commits = *c as u64;
                parsed.complete = *whole == 1.0;
            }
            ("digest", _) => parsed.digest = it.next().unwrap_or("").to_string(),
            ("point", [a, b, c, d, e, f]) => parsed.point = Some([*a, *b, *c, *d, *e, *f]),
            _ => {}
        }
    }
    if mode == Mode::Cells && parsed.cell_ms.len() != parsed.cells {
        eprintln!(
            "perfbench: timed {} simulator cells of {}",
            parsed.cell_ms.len(),
            parsed.cells
        );
        parsed.complete = false;
    }
    Ok(parsed)
}

/// The per-layer simulator metrics of a traced run: cell times from the
/// one-worker `cells` child, parallel efficiency against the `time`
/// child's wall-clock on `WORKERS` workers, and the cross-process
/// digest comparison between the two.
pub fn sim_layers(report: &mut Report, cells: &ChildOutput, time: &ChildOutput) {
    let mut ms: Vec<u64> = cells.cell_ms.iter().map(|m| (m * 1e3) as u64).collect();
    let n = ms.len() as u64;
    report.add(
        "sim.cell_ms_p50",
        percentile(&mut ms, 0.5) as f64 / 1e3,
        "ms",
        n,
    );
    report.add(
        "sim.cell_ms_max",
        percentile(&mut ms, 1.0) as f64 / 1e3,
        "ms",
        n,
    );
    let busy_s: f64 = cells.cell_ms.iter().sum::<f64>() / 1e3;
    report.add(
        "sim.parallel_efficiency",
        ratio(busy_s, WORKERS as f64 * time.wall_s),
        "frac",
        n,
    );
    let distinct = if cells.digest == time.digest {
        1.0
    } else {
        2.0
    };
    report.add("sim.digests_distinct", distinct, "count", 2);
    report.add(
        "simkernel.events_per_s",
        ratio(cells.events as f64, busy_s),
        "1/s",
        cells.events,
    );
    let p = cells.point.unwrap_or_default();
    let commits = p[5] as u64;
    report.add("xcheck.msgs_per_commit", p[0], "count", commits);
    report.add("xcheck.callbacks_per_commit", p[1], "count", commits);
    report.add("xcheck.deescalations_per_commit", p[2], "count", commits);
    report.add("xcheck.page_grant_frac", p[3], "frac", commits);
    report.add("xcheck.restarts_per_commit", p[4], "count", commits);
}
