//! `kbench` — the repository's benchmark: one command, three workloads.
//!
//! ```text
//! kbench --workload <apps-matrix|corpus-cold|serve-watch> --seed <n>
//!        --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the run is timed and prints the end-to-end metrics;
//! with `--trace 1` a separate, fixed sequence of operations is replayed
//! with spans around each layer call and the per-layer metrics are
//! printed. Either way the last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`), and any failed
//! correctness check makes the exit code non-zero. `--smoke` shrinks the
//! inputs so the benchmark's own test can run every workload quickly.
//! See `README.md` next to this crate for the workloads and metrics.

mod layers;
mod replay;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Params;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "usage: kbench --workload <apps-matrix|corpus-cold|serve-watch> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut work_dir = PathBuf::from(".kbench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        work_dir,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("apps-matrix", false) => workloads::apps_matrix,
        ("apps-matrix", true) => workloads::apps_matrix_traced,
        ("corpus-cold", false) => workloads::corpus_cold,
        ("corpus-cold", true) => workloads::corpus_cold_traced,
        ("serve-watch", false) => workloads::serve_watch,
        ("serve-watch", true) => workloads::serve_watch_traced,
        (other, _) => {
            eprintln!("kbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("kbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let scratch = Scratch(dir.clone());
    print!(
        "{}",
        report::host_lines(&args.workload, args.seed, args.trace)
    );
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        dir,
    };
    let outcome = run(&params);
    drop(scratch);
    match outcome {
        Ok(o) => {
            print!("{}", report::render(&o));
            if o.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("kbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
