//! The cbtc benchmark: one workload per invocation, closed loop, one
//! caller that is always backlogged.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <construct|serve-single|serve-batched|lifetime> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it carries the host facts and the workload's sample counts. With
//! `--trace 1` the spans are written to `.bench_out/` in the working
//! directory. See `perfbench/README.md`.

mod construct;
mod lifetime;
mod report;
mod serve;
mod spans;
mod stats;
mod stream;
mod traced;
mod verify;

use std::process::ExitCode;

use cbtc_core::parallel;
use report::{json_str, Outcome, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Construct,
    ServeSingle,
    ServeBatched,
    Lifetime,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "construct" => Workload::Construct,
            "serve-single" => Workload::ServeSingle,
            "serve-batched" => Workload::ServeBatched,
            "lifetime" => Workload::Lifetime,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Construct => "construct",
            Workload::ServeSingle => "serve-single",
            Workload::ServeBatched => "serve-batched",
            Workload::Lifetime => "lifetime",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <construct|serve-single|serve-batched|lifetime> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match (args.workload, args.trace) {
        (Workload::Construct, false) => construct::run(&args),
        (Workload::Construct, true) => construct::traced(&args),
        (Workload::ServeSingle | Workload::ServeBatched, false) => serve::run(&args),
        (Workload::ServeSingle | Workload::ServeBatched, true) => serve::traced(&args),
        (Workload::Lifetime, false) => lifetime::run(&args),
        (Workload::Lifetime, true) => lifetime::traced(&args),
    };
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let finite = catalogue
        .iter()
        .all(|(n, _)| outcome.metrics.get(n).is_none_or(|v| v.is_finite()));
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;

    let mut facts = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("git_commit", json_str(&report::git_commit())),
        ("detected_cores", parallel::detected_cores().to_string()),
        // Read after the run, so a workload that pins itself reports 1.
        (
            "planned_threads",
            parallel::effective_parallelism().to_string(),
        ),
        ("cpu_model", json_str(&report::cpu_model())),
    ];
    facts.extend(outcome.info.iter().map(|(k, v)| (*k, v.clone())));
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"info\": {{{}}}}}", facts.join(", "));
    println!("{}", report::result_line(correct, &outcome, catalogue));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-batched --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeBatched);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload lifetime --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lifetime --seconds 1")).is_err());
    }
}
