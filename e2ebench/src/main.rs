//! Command line of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ldask_programs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Set-up runs in child processes of this
//! binary (`--setup-into`), so the measuring process's peak RSS covers
//! only the measured passes. Everything is written under `--work-dir`
//! (default `e2ebench/.work`); the run's data directory is removed at
//! exit and only the span file of a traced run stays. The last line of
//! standard output is the JSON result.

use e2ebench::report::{self, median};
use e2ebench::workload::{setup, Bench, Prepared, Settings, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Base row count of the generated inputs unless `--rows` says otherwise.
const DEFAULT_ROWS: usize = 40_000;
/// Below this, `ldask_spill`'s budget no longer holds one scan partition.
const MIN_ROWS: usize = 10_000;
/// Set-up runs per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Upper bound on pinned worker threads, to keep memory use modest on
/// large hosts.
const MAX_THREADS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
    work_dir: PathBuf,
    setup_into: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rows = DEFAULT_ROWS;
    let mut work_dir = PathBuf::from("e2ebench/.work");
    let mut setup_into = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = number(value()?)? as f64,
            "--trace" => trace = number(value()?)? != 0,
            "--rows" => rows = number(value()?)? as usize,
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--setup-into" => setup_into = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if rows < MIN_ROWS {
        return Err(format!("--rows must be at least {MIN_ROWS}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rows,
        work_dir,
        setup_into,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // One core stays free of the pools: on a small shared host, a pool as
    // wide as the host times the neighbours' load, not the program.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .clamp(1, MAX_THREADS);
    let settings = Settings {
        base_rows: args.rows,
        threads,
    };
    if let Some(dir) = &args.setup_into {
        // Child mode: environment already pinned by the parent.
        return match setup(dir, args.workload, args.seed, settings) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work = match std::env::current_dir() {
        Ok(cwd) => cwd.join(&args.work_dir),
        Err(e) => {
            eprintln!("e2ebench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_dir = work.join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let tmp = run_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2ebench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Pin the thread count every engine resolves by default (the Dask
    // engine reads only this), and keep spill files inside the run
    // directory. No other thread exists yet, and set-up children inherit
    // both.
    std::env::set_var("LAFP_THREADS", threads.to_string());
    std::env::set_var("TMPDIR", &tmp);

    let result = run(&args, settings, &run_dir, &work);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("# {:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    args: &Args,
    settings: Settings,
    run_dir: &Path,
    work: &Path,
) -> Result<report::Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut setup_times = Vec::new();
    let mut prepared: Option<(PathBuf, Prepared)> = None;
    for rep in 0..SETUP_REPS {
        let dir = run_dir.join(format!("data{rep}"));
        let started = Instant::now();
        let status = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--rows", &args.rows.to_string()])
            .arg("--setup-into")
            .arg(&dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start set-up: {e}"))?;
        setup_times.push(started.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up exited with {status}"));
        }
        let this = Prepared::load(&dir).map_err(|e| format!("set-up manifest: {e}"))?;
        if let Some((old_dir, previous)) = prepared.take() {
            if let Some(d) = previous.disagreement(&this) {
                return Err(format!("two set-ups from one seed disagree: {d}"));
            }
            let _ = std::fs::remove_dir_all(old_dir);
        }
        prepared = Some((dir, this));
    }
    let (dir, prepared) = prepared.expect("at least one set-up");
    let bench = Bench::new(args.workload, dir, settings, prepared);
    let trace_out =
        work.join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    Ok(report::measure(
        &bench,
        args.seconds,
        median(&setup_times),
        args.trace,
        &trace_out,
    ))
}
