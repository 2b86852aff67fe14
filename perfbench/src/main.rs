//! The repository benchmark.
//!
//! `fgs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints one line per metric (value, unit and
//! sample count), then the result object as the last line of stdout.
//! `perfbench/run.py` builds this package and runs it from the
//! repository root.
//!
//! Every workload runs a closed loop of two clients with zero think
//! time through an embedded PS-AA `Oodb`, then its simulator figures
//! (see `sim.rs`):
//!
//! * `commit-private`: PRIVATE cut to one page of 2–4 objects, always
//!   hot, over channels. Short updates with no sharing, so the server's
//!   work is mostly the commit path (WAL append, log writer, completion).
//!   Figure: fig10 (PRIVATE, high locality).
//! * `hicon-tcp`: HICON, high locality, write probability 0.1, over
//!   loopback TCP. Callbacks, de-escalations, blocking and deadlock
//!   restarts, and every message crosses the codec and a socket.
//!   Figures: fig9 and fig8 (HICON, high and low locality).
//! * `uniform-scan`: UNIFORM, low locality, write probability 0.02,
//!   over channels. Read-mostly traffic over a working set larger than
//!   both caches: page shipping, evictions, server page attach.
//!   Figures: fig6 and fig7 (UNIFORM, low and high locality).
//! * `sim-figures`: the figures ROADMAP item 1 must hold, fig3 (HOTCOLD),
//!   fig8 (HICON) and fig12 (9x-scaled HOTCOLD), beside fig3's HOTCOLD
//!   load (low locality, 0.1) through the engine.
//!
//! The figures come from the catalog at its Quick run length and its
//! own seed, on 2 sweep workers; `--seed` seeds the engine load. Each
//! workload's figures take 6–13 s here: long enough that the host's
//! short slow spells average out of the figure wall-clock. Each result
//! thus carries every end-to-end metric, engine and simulator alike.
//!
//! With `--trace 0` the metrics are the end-to-end ones: commits/s and
//! median latencies (medians over 1-second slices of the window), set-up
//! time, memory, and the figure wall-clock. `--trace 1` runs the same
//! load with alternating untraced and traced segments and reports the
//! per-layer metrics (see `layers.rs` and `sim.rs`), the p99 latencies
//! among them. Spans are written to `perfbench/out/spans-<workload>.csv`.

mod hist;
mod layers;
mod load;
mod report;
mod sim;

use fgs_oodb::TransportKind;
use fgs_workload::{Locality, WorkloadSpec};
use load::{LoadResult, SpanKind};
use report::{median, ratio, Report};
use sim::{ChildOutput, Mode};

/// Databases opened to time set-up, in each of two bursts. Opening is the
/// same work each time, so set-up time is the fastest open: the one the
/// host disturbed least. A host's slow spells last for tens of opens,
/// hence so many, and can last a whole burst, hence two bursts seconds
/// apart, either side of the figures.
const SETUP_REPS: usize = 50;

const WORKLOADS: [&str; 4] = ["commit-private", "hicon-tcp", "uniform-scan", "sim-figures"];

/// The engine load of a workload.
fn engine_load(workload: &str) -> Option<(WorkloadSpec, TransportKind)> {
    Some(match workload {
        "commit-private" => {
            let mut spec = WorkloadSpec::private(Locality::High, 0.5);
            spec.trans_size_pages = 1;
            spec.page_locality = (2, 4);
            spec.hot_access_prob = 1.0;
            (spec, TransportKind::Channel)
        }
        "hicon-tcp" => (WorkloadSpec::hicon(Locality::High, 0.1), TransportKind::Tcp),
        "uniform-scan" => (
            WorkloadSpec::uniform(Locality::Low, 0.02),
            TransportKind::Channel,
        ),
        "sim-figures" => (
            WorkloadSpec::hotcold(Locality::Low, 0.1),
            TransportKind::Channel,
        ),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if engine_load(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sim-child") {
        std::process::exit(sim_child(&argv[1..]));
    }
    match parse_args(&argv) {
        Ok(args) => {
            if let Err(e) = run(&args) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: fgs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    }
}

/// `sim-child <workload> <mode>`: the simulator half, run in its own
/// process.
fn sim_child(argv: &[String]) -> i32 {
    let [workload, mode] = argv else {
        eprintln!("perfbench sim-child: expected <workload> <mode>");
        return 2;
    };
    let (Some((spec, _)), Some(mode)) = (engine_load(workload), Mode::parse(mode)) else {
        eprintln!("perfbench sim-child: bad arguments {argv:?}");
        return 2;
    };
    sim::child(sim::figures_of(workload), spec, mode);
    0
}

fn run(args: &Args) -> Result<(), String> {
    let (spec, transport) = engine_load(&args.workload).expect("validated workload");
    let load = load::run_load(&spec, transport, args.seed, args.seconds, args.trace)
        .map_err(|e| format!("engine load failed: {e}"))?;
    for (c, rec) in load.records.iter().enumerate() {
        for e in &rec.errors {
            eprintln!("perfbench: client {c}: {e}");
        }
    }
    // After the load and its memory readings, so that the freed
    // databases' memory is not counted in the resident set.
    let mut setup_s = Vec::new();
    let opens = |out: &mut Vec<f64>| {
        load::time_opens(transport, SETUP_REPS, out).map_err(|e| format!("set-up open failed: {e}"))
    };
    if !args.trace {
        opens(&mut setup_s)?;
    }
    let sim_out = sim::spawn_child(&args.workload, Mode::Time)?;
    if !args.trace {
        opens(&mut setup_s)?;
    }
    // The traced run also times each cell on one worker, in a second
    // process, and compares that process's output with the first's.
    let cells = if args.trace {
        Some(sim::spawn_child(&args.workload, Mode::Cells)?)
    } else {
        None
    };
    let sim_ok = sim_out.ok() && cells.as_ref().is_none_or(ChildOutput::ok);
    if !sim_ok {
        eprintln!(
            "perfbench: simulator grid incomplete or a cell without commits ({} cells, min commits {})",
            sim_out.cells, sim_out.min_commits
        );
    }
    if !load.correct() {
        eprintln!(
            "perfbench: correctness check failed: counter sum {:?}, committed writes {}, invariants ok {}",
            load.scan_sum, load.expected_sum, load.invariants_ok
        );
    }

    let mut report = Report::default();
    if let Some(cells) = &cells {
        layers::engine_layers(&mut report, &load, load::engine_config(transport).page_size);
        sim::sim_layers(&mut report, cells, &sim_out);
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.csv", args.workload));
        if let Err(e) = layers::write_spans(&path, &load) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    } else {
        end_to_end(&mut report, &load, &sim_out, &setup_s);
    }

    let attempted: u64 = load.records.iter().map(|r| r.attempted).sum();
    let failed: u64 = load.records.iter().map(|r| r.failed).sum();
    let commits: u64 = load
        .records
        .iter()
        .map(|r| r.commits_plain + r.commits_traced)
        .sum();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} window_s={:.3} commits={commits} attempted={attempted} failed={failed} sim_digest={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load.window_s(),
        sim_out.digest
    );
    report.print(&header, load.correct() && sim_ok, attempted, failed);
    Ok(())
}

/// The median over the window's slices of the median latency (ns) of
/// one kind, pooled over both clients; and the sample count.
fn slice_median(load: &LoadResult, kind: SpanKind) -> (f64, u64) {
    let mut n = 0;
    let per_slice: Vec<f64> = (0..load.slice_s.len())
        .map(|i| {
            let h = load.slice_hist(i, kind);
            n += h.count();
            h.quantile(0.5)
        })
        .collect();
    println!("# {} p50 ns by slice: {per_slice:.0?}", kind.name());
    (median(&per_slice), n)
}

fn end_to_end(report: &mut Report, load: &LoadResult, sim_out: &ChildOutput, setup_s: &[f64]) {
    let rates: Vec<f64> = load
        .slice_s
        .iter()
        .enumerate()
        .map(|(i, secs)| load.slice_commits(i) as f64 / secs)
        .collect();
    let commits: u64 = load.records.iter().map(|r| r.commits_plain).sum();
    println!("# commits_per_s by slice: {:.0?}", rates);
    report.add("commits_per_s", median(&rates), "1/s", commits);
    // Medians only: the p99s spread too far on a shared host to be
    // gated, so the traced run reports them.
    for (name, unit, kind) in [
        ("txn_p50_ms", "ms", SpanKind::Txn),
        ("commit_p50_us", "us", SpanKind::Commit),
        ("read_p50_us", "us", SpanKind::Read),
        ("write_p50_us", "us", SpanKind::Write),
    ] {
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        let (v, n) = slice_median(load, kind);
        report.add(name, v / scale, unit, n);
    }
    report.add(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
        setup_s.len() as u64,
    );
    report.add(
        "rss_setup_mb",
        load.rss_window_start_kb as f64 / 1024.0,
        "MB",
        1,
    );
    let grown = load.rss_window_end_kb as f64 - load.rss_window_start_kb as f64;
    report.add(
        "rss_kb_per_1k_commits",
        ratio(grown * 1000.0, commits as f64),
        "kB",
        commits,
    );
    report.add("figure_wall_s", sim_out.wall_s, "s", sim_out.cells as u64);
}
