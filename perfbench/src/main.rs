//! `lotus-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the provenance block, every metric by name with its unit and
//! sample count, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a
//! correctness gate fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lotus::running::run_experiment;
use lotus::tuning::tune_experiment;
use lotus_perfbench::native::{self, NativeWorkload};
use lotus_perfbench::output::{provenance, result_line, Outcome};
use lotus_perfbench::stats::median;
use lotus_perfbench::wrap::mark_main_thread;
use lotus_perfbench::{tune, Workload, DEFAULT_SEED};

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;
/// Seed of the warm-up input made during set-up.
const WARMUP_SEED: u64 = DEFAULT_SEED;
/// Every run ends its measurement by this long after start, well inside
/// the 180 s a run may take.
const HARD_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 45.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Times `prepare` [`SETUP_REPS`] times and returns the median seconds.
fn setup(out: &mut Outcome, mut prepare: impl FnMut() -> Result<(), String>) -> f64 {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        if let Err(e) = prepare() {
            out.gate(false, || format!("set-up failed: {e}"));
        }
        times.push(started.elapsed().as_secs_f64());
    }
    median(&times).unwrap_or(f64::NAN)
}

fn run_native(w: &NativeWorkload, args: &Args, started: Instant, out: &mut Outcome) {
    // Set-up: a small warm-up call, so lazy initialization is paid before
    // timing. Its input is the same for every seed, so set-up time does
    // not move with the seed's image sizes.
    let setup_s = setup(out, || {
        let experiment = native::experiment(WARMUP_SEED, w.warmup_items);
        run_experiment(&experiment, &w.options()).map(drop)
    });
    let timed_deadline = started + if args.trace { HARD_CAP / 2 } else { HARD_CAP };
    let timed = native::timed(w, args.seed, args.seconds, timed_deadline, out);
    if args.trace {
        let calls = native::traced(w, args.seed, args.seconds, started + HARD_CAP, out);
        native::report_traced(&calls, timed.samples_per_s(), out);
    } else {
        native::report_timed(&timed, setup_s, out);
    }
}

fn run_tune(args: &Args, started: Instant, out: &mut Outcome) {
    let setup_s = setup(out, || {
        tune_experiment(
            &tune::experiment(WARMUP_SEED, tune::WARMUP_ITEMS),
            &tune::options(),
        )
        .map(drop)
    });
    let timed_deadline = started + if args.trace { HARD_CAP / 2 } else { HARD_CAP };
    let mut timed = tune::timed(args.seed, args.seconds, timed_deadline, out);
    if args.trace {
        let sweeps = tune::traced(
            args.seed,
            args.seconds,
            started + HARD_CAP,
            &mut timed.json,
            out,
        );
        tune::report_traced(&sweeps, timed.samples_per_s(), out);
    } else {
        tune::report_timed(&timed, setup_s, out);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lotus-perfbench: {e}");
            eprintln!(
                "usage: lotus-perfbench --workload native-ic|native-ic-meta|sim-tune-ic \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    mark_main_thread();
    let params = match args.workload.native() {
        Some(w) => w.params(),
        None => tune::params(),
    };
    println!(
        "provenance {}",
        provenance(args.workload.name(), args.seed, args.trace, &params)
    );
    let mut out = Outcome::default();
    match args.workload.native() {
        Some(w) => run_native(&w, &args, started, &mut out),
        None => run_tune(&args, started, &mut out),
    }
    for m in &out.metrics {
        println!("{:<46} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<46} {:>16.6} {:<8} {} failed of {} attempted",
        "failed_frac", failed_frac, "fraction", out.failed, out.attempted
    );
    for line in &out.details {
        println!("{line}");
    }
    for v in &out.violations {
        println!("GATE FAILED: {v}");
    }
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
