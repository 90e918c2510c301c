//! `crcwbench` — the repository's benchmark.
//!
//! ```text
//! crcwbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Runs one workload (`bfs-rmat18`, `bfs-path14`, `cc-rmat16`, `max2048`)
//! on inputs made from the seed. `--trace 0` times kernel calls and prints
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! prints the per-layer metrics. Every output is verified. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The run's record (seed, machine, commit, compiler, result, and in the
//! traced run its spans) is written to `out/` beside this package's
//! manifest. The exit code is 1 if any output failed verification and 2
//! on a usage error.

mod metrics;
mod procfs;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};

use workload::{Size, Workload, TEAM};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: crcwbench --workload <bfs-rmat18|bfs-path14|cc-rmat16|max2048> --seed <n> \
     [--seconds <s>] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("--seconds must be in (0, 120], got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// First line of a tool's standard output, or `unknown`.
fn tool_output(program: &str, args: &[&str], dir: &Path) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).current_dir(dir);
    if let Some(parent) = dir.parent() {
        // Look for a git repository at `dir` only, never in a directory
        // that merely contains the checkout.
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// The reproducibility record of a run, as a JSON object.
fn repro_json(args: &Args, repo: &Path) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"team\": {TEAM}, \
         \"available_parallelism\": {parallelism}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tool_output("git", &["rev-parse", "HEAD"], repo),
        tool_output("rustc", &["-V"], repo)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repro = repro_json(&args, package.parent().unwrap_or(package));
    println!("# {repro}");

    let (w, seed, secs) = (args.workload, args.seed, args.seconds);
    let (outcome, defs) = if args.trace {
        (
            run::traced_run(w, Size::Full, seed, secs),
            metrics::PER_LAYER,
        )
    } else {
        (
            run::timed_run(w, Size::Full, seed, secs),
            metrics::END_TO_END,
        )
    };
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, unit) in defs {
        if let Some(v) = result.values.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    let line = match metrics::result_line(result.attempted, result.failed, defs, &result.values) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bad result: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out_dir = package.join("out");
    let events = result
        .trace
        .as_ref()
        .map_or("[]".to_string(), |t| t.events_json());
    let record =
        format!("{{\"repro\": {repro},\n\"result\": {line},\n\"traceEvents\": {events}}}\n");
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "max2048",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Max2048, 7, 3.0, true)
        );
        for bad in [
            &["--seed", "7"][..],
            &["--workload", "max2048"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "max2048", "--seed", "1", "--trace", "2"],
            &["--workload", "max2048", "--seed", "1", "--seconds", "0"],
            &["--workload", "max2048", "--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
