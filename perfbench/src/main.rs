//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`paper-grid`, `forensics` or `fleet-serve`) for
//! `--seconds` after one warm-up pass, checks every pass's output, and
//! prints the metrics by name and unit; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics from untraced passes;
//! `--trace 1` alternates untraced and traced passes, reports the
//! per-layer metrics, the tracing overhead and the share of the traced
//! pass no span covers, and writes the spans to `perfbench/out/`.
//! `perfbench/README.md` is the metric catalog.

mod fleet;
mod forensics;
mod grid;
mod layers;
mod measure;
mod report;

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use util::json::{Json, ToJson};

use measure::{median, Tracer};
use report::Outcome;

const USAGE: &str =
    "usage: perfbench --workload paper-grid|forensics|fleet-serve --seed N --seconds S --trace 0|1";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper-grid", "forensics", "fleet-serve"];

/// Fresh processes `setup_s` is the median over (this one included).
const SETUP_SAMPLES: usize = 21;

/// Fewest measured passes a run makes, whatever `--seconds` says;
/// traced runs make this many of each kind.
const MIN_PASSES: usize = 3;

/// What a process is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// A measured run.
    Run,
    /// A fresh process that only sets up, for `setup_s`.
    Setup,
    /// The forensics replay process.
    Replay,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    role: Role,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut role = Role::Run;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.into_iter().find(|w| *w == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, got {s}"));
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            "--role" => {
                role = match value.as_str() {
                    "setup" => Role::Setup,
                    "replay" => Role::Replay,
                    _ => return Err(format!("unknown role `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        role,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.role {
        Role::Run => run(&args),
        Role::Setup => {
            let t = Instant::now();
            let done = match args.workload {
                "paper-grid" => grid::setup(args.seed, None).map(drop),
                "forensics" => forensics::setup(None).map(drop),
                _ => fleet::setup(args.seed, None).map(drop),
            };
            match done {
                Ok(()) => {
                    let secs = Json::F64(t.elapsed().as_secs_f64());
                    println!(
                        "{}",
                        Json::Obj(vec![("setup_s".into(), secs)]).render(false)
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: set-up failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Role::Replay => {
            let tracer = args.trace.then(Tracer::default);
            let side = forensics::replay_side(args.seed, tracer.as_ref());
            println!("{}", side.to_json_string());
            ExitCode::SUCCESS
        }
    }
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The first pass after set-up: checked, not measured.
    Warmup,
    /// Untraced and measured.
    Timed,
    /// Traced.
    Traced,
}

/// One warm-up pass, then passes until `seconds` have elapsed and at
/// least the minimum ran; traced runs alternate untraced and traced.
///
/// Untraced runs also take the fresh-process `setup_s` samples here,
/// spread evenly over the measured interval so they see the same
/// machine the passes do, and return them.
pub fn passes(
    args: &Args,
    mut pass: impl FnMut(Kind) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    pass(Kind::Warmup)?;
    let children = if args.trace { 0 } else { SETUP_SAMPLES - 1 };
    let mut setup = Vec::with_capacity(children);
    let start = Instant::now();
    let min = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < args.seconds {
        let due = setup.len() as f64 * args.seconds / children.max(1) as f64;
        if setup.len() < children && start.elapsed().as_secs_f64() >= due {
            setup.push(setup_sample(args)?);
        }
        pass(if args.trace && i % 2 == 1 {
            Kind::Traced
        } else {
            Kind::Timed
        })?;
        i += 1;
    }
    while setup.len() < children {
        setup.push(setup_sample(args)?);
    }
    Ok(setup)
}

/// One `setup_s` sample from a fresh process (`--role setup`).
fn setup_sample(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(&exe)
        .args(["--role", "setup", "--workload", args.workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("running a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .ok()
        .and_then(|v| v.get("setup_s").and_then(Json::as_f64))
        .ok_or_else(|| format!("set-up process printed `{text}`"))
}

fn run(args: &Args) -> ExitCode {
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let mut out = Outcome::default();
    let setup = match args.workload {
        "paper-grid" => grid::run(args, tracer.as_ref(), &mut out),
        "forensics" => forensics::run(args, tracer.as_deref(), &mut out),
        _ => fleet::run(args, tracer.as_deref(), &mut out),
    };
    let setup = setup.unwrap_or_else(|e| {
        out.check(false, || e);
        Vec::new()
    });
    if !args.trace && !setup.is_empty() {
        out.metric("setup_s", median(&setup));
        let samples = setup.iter().map(|&s| Json::F64(s)).collect();
        out.detail("setup_samples_s", Json::Arr(samples));
    }
    if let Some(t) = &tracer {
        write_spans(args, t);
    }
    report::print(args, out)
}

/// Writes the traced run's spans to `perfbench/out/`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().render(false)));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload forensics --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("forensics", 3, 10.0, true)
        );
        assert_eq!(a.role, Role::Run);
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload forensics --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload forensics --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload forensics --seed 3 --seconds 10").is_err());
        assert!(parse("--workload forensics --seed").is_err());
    }
}
