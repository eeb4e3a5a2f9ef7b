//! Host-time benchmark of the TunIO workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tunio_serve|bo_search|ga_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process: set-up (timed
//! several times), a timed window of campaigns with no benchmark
//! tracing, then a traced run of the same campaigns whose outcomes must
//! equal the untraced ones byte for byte. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics. The last line
//! of standard output is the JSON result. See `perfbench/README.md`.

mod layers;
mod library;
mod report;
mod serve;
mod workload;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// How many times set-up is timed per run; the median is reported.
pub const SETUP_REPS: usize = 7;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <tunio_serve|bo_search|ga_storm> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Metrics,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check, with its reason.
    pub problems: Vec<String>,
}

impl RunResult {
    /// A campaign that failed, was refused, or failed an output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// Empty `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The daemon's default campaigns fan evaluations out over the rayon
    // pool; pin it to the two evaluator slots every workload uses, so the
    // load does not depend on the host's core count.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    // Scratch space inside the working directory, one per process.
    let work: PathBuf = Path::new(".perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    fresh_dir(&work);

    let result = match args.workload {
        Workload::TunioServe => serve::run(&args, &work),
        Workload::BoSearch => {
            library::run(args.workload, &workload::bo_search(args.seed), &args, &work)
        }
        Workload::GaStorm => {
            library::run(args.workload, &workload::ga_storm(args.seed), &args, &work)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &result.lines {
        println!("  {line}");
    }
    for p in &result.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = result.problems.is_empty();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result
            .metrics
            .result_line(table, correct, result.attempted, result.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload ga_storm --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::GaStorm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload bo_search --seed 1 --seconds 0 --trace 0",
            "--workload bo_search --seed 1 --seconds 1 --trace 2",
            "--workload bo_search --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
