//! The `lotus` command-line tool: trace a pipeline, build the hardware
//! mapping, attribute counters to operations, or compare profilers — the
//! workflows of the paper's artifact, as one binary.

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

use lotus::checking::CheckOptions;
use lotus::core::check::Counterexample;
use lotus::core::map::{
    split_metrics, split_metrics_mix_aware, IsolationConfig, StorageAttribution,
};
use lotus::core::metrics::{
    render_dashboard, to_csv, to_json, to_prometheus, DashboardOptions, MetricsRegistry,
    MetricsSink, MultiSink,
};
use lotus::core::trace::chrome::{to_chrome_trace, ChromeTraceOptions};
use lotus::core::trace::insights::analyze;
use lotus::core::trace::viz::{render_timeline, TimelineOptions};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus::core::tune::{SearchSpace, Strategy};
use lotus::dataflow::{
    DataLoaderConfig, FaultPlan, LoaderMutation, SchedulingPolicyKind, SyncEvent,
};
use lotus::profilers::ComparisonHarness;
use lotus::running::{
    bench_report, check_regression, run_experiment, verdict_family, BackendKind, RunOptions,
};
use lotus::sim::{FileLayout, Span};
use lotus::tuning::{tune_experiment, TuneOptions};
use lotus::uarch::{
    format_report, CollectionMode, HwProfiler, Machine, MachineConfig, ProfilerConfig,
};
use lotus::workloads::{build_ic_mapping, build_ic_mapping_native, ExperimentConfig, PipelineKind};

/// One subcommand. Its synopsis is also its flag table: `[--name]` is a
/// boolean flag, `[--name METAVAR]` takes a value. Parsing, dispatch and
/// help all read this one entry.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    about: &'static str,
    run: fn(&Args) -> Result<(), Box<dyn Error>>,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "trace", run: cmd_trace,
        synopsis: "[--pipeline ic|is|od] [--items N] [--batch B] [--workers W]
                   [--gpus G] [--storage cold|warm] [--layout tiny|packed]
                   [--access shuffled|sequential] [--policy POLICY]
                   [--out FILE.json] [--log FILE] [--timeline]",
        about: "Run one epoch under LotusTrace; print per-op stats, the automated
                diagnosis, optionally an ASCII timeline, a Chrome trace file and a
                lintable LotusTrace log. --storage routes every Dataset::get_item
                through the simulated storage hierarchy (object store / local disk /
                shared OS page cache), producing per-read [T0] fetch spans and a
                per-tier attribution table: cold tiny-file epochs are typically
                storage-bound, warm or packed ones flip back to the CPU phases.
                --layout picks one-file-per-record (tiny) or packed shards;
                --access picks the sampler order (sequential lets readahead turn
                packed-shard neighbors into page-cache hits)." },
    Command { name: "run", run: cmd_run,
        synopsis: "[--backend sim|native] [--pipeline ic|is|od|ac] [--items N]
                   [--batch B] [--workers W] [--gpus G] [--no-gpu]
                   [--no-materialize] [--status-check-ms T] [--profile]
                   [--attribution FILE.json]
                   [--storage cold|warm] [--layout tiny|packed]
                   [--access shuffled|sequential] [--storage-out FILE.json]
                   [--kill-worker W] [--kill-at-ms T] [--error-rate P]
                   [--error-op NAME] [--slow-rate P] [--slow-factor F]
                   [--policy POLICY] [--out FILE.json] [--log FILE]",
        about: "Execute one epoch on the chosen execution backend. `native` (the
                default here) runs the same DataLoader protocol on real OS threads
                with real bounded queues against real pixels, emitting a
                wall-clock LotusTrace; `sim` replays it in deterministic virtual
                time. Prints per-op stats plus the tune-style scorecard and
                bottleneck verdict. --no-gpu skips the emulated GPU consumer,
                --no-materialize keeps image pipelines cost-only. --profile (native
                only) attaches the OS-level sampling profiler: per-thread CPU time,
                RSS and context switches from /proc plus per-op native-kernel
                attribution, cross-validated against the simulated LotusMap;
                --attribution writes the observed mapping as JSON. --storage (sim
                only) models the storage hierarchy: the scorecard gains a per-tier
                [T0] attribution table, the verdict can come back storage-bound,
                and --storage-out writes the attribution as JSON. --out writes a
                Chrome trace; --log writes a LotusTrace log file that
                `lotus check --trace FILE` lints." },
    Command { name: "bench", run: cmd_bench,
        synopsis: "[--backend sim|native] [--presets ic,ac,is] [--items N]
                   [--batch B] [--workers W] [--no-gpu] [--no-materialize]
                   [--status-check-ms T] [--profile]
                   [--out-dir DIR] [--check-against FILE] [--tolerance F]",
        about: "Run small-scale benchmark epochs (native by default) and write one
                BENCH_<backend>_<preset>.json per preset: throughput, p50/p99
                batch latency, the T1/T2/T3 phase split, and the bottleneck
                verdict. --check-against gates a single preset against a committed
                baseline JSON and fails on a throughput regression beyond
                --tolerance (default 0.2 = 20%). --profile (native) adds the
                sampling profiler's self-accounting block to the report
                (lotus-bench-v2; v1 baselines stay comparable)." },
    Command { name: "map", run: cmd_map,
        synopsis: "[--backend sim|native] [--vendor intel|amd] [--runs N]
                   [--no-sleep-gap] [--storage cold|warm]
                   [--layout tiny|packed] [--access shuffled|sequential]
                   [--items N] [--out FILE.json]",
        about: "Build the Python-op → C/C++-function mapping (Table I). The default
                `sim` backend isolates each IC operation under the simulated
                hardware profiler; `native` observes the real kernels executing on
                this machine via the cooperative span feed (--runs measured passes,
                default 3). --storage additionally runs a short traced IC epoch
                against the simulated storage hierarchy and joins the per-tier
                fetch counters ([T0] reads, bytes, span time) into the mapping
                table and JSON artifact." },
    Command { name: "attribute", run: cmd_attribute,
        synopsis: "[--items N] [--workers W] [--mix-aware] [--functions]",
        about: "Profile an IC epoch with the simulated VTune, build the mapping, and
                attribute hardware counters to Python operations (Figure 6 e–h).
                --functions additionally prints the raw per-function profile." },
    Command { name: "compare", run: cmd_compare,
        synopsis: "[--items N]",
        about: "Run the profiler comparison (Tables III and IV)." },
    Command { name: "top", run: cmd_top,
        synopsis: "[--backend sim|native] [--pipeline ic|is|od] [--items N]
                   [--batch B] [--workers W] [--width COLS] [--profile]
                   [--no-gpu] [--no-materialize] [--status-check-ms T]
                   [--storage cold|warm] [--layout tiny|packed]
                   [--access shuffled|sequential] [--policy POLICY]
                   [--prom FILE] [--json FILE] [--csv FILE]",
        about: "Run one epoch with the streaming metrics sink and render the
                pipeline dashboard: queue-depth sparklines over time, per-worker
                utilization, throughput, latency summaries. With --backend native
                every gauge and histogram carries wall-clock timestamps from the
                run's shared clock, and --profile adds the OS sampler's per-thread
                CPU/RSS/context-switch gauges to the dashboard and exports.
                --storage (sim only) adds the live storage section: per-tier
                read/byte counters, backing-device queue-depth sparklines and the
                t0 fetch latency summary. Optionally export the registry as
                Prometheus text, JSON, or CSV time-series." },
    Command { name: "tune", run: cmd_tune,
        synopsis: "[--pipeline ic|is|od|ac] [--items N] [--batch B]
                   [--strategy grid|hill] [--workers 1,2,4,8] [--prefetch 1,2,4]
                   [--caps none,4,8] [--pin on|off|both] [--json] [--out FILE]
                   [--jobs N] [--no-cache] [--cache-dir DIR]
                   [--storage cold|warm] [--layout tiny|packed]
                   [--access shuffled|sequential]
                   [--kill-worker W] [--kill-at-ms T] [--error-rate P]
                   [--error-op NAME] [--slow-rate P] [--slow-factor F]
                   [--policy POLICY]",
        about: "Search DataLoader configurations (workers, prefetch, data-queue
                cap, pin-memory) over deterministic simulated epochs. Prints the
                per-config scorecards, the Pareto frontier of throughput vs peak
                resident batches, a T1/T2/T3-based bottleneck verdict per config,
                and the recommended configuration with its predicted speedup.
                --json emits the byte-deterministic report instead; fault flags
                compose (degraded configs are reported, not fatal). --storage runs
                every trial against the simulated storage hierarchy — a cold
                tiny-file dataset typically tunes to a storage-bound verdict that
                extra workers cannot fix, because they queue on the same backing
                device. Trials fan out
                over --jobs threads (default: all cores) and memoize to the
                on-disk cache at --cache-dir (default .lotus-cache; --no-cache
                disables) — neither changes a single output byte." },
    Command { name: "check", run: cmd_check,
        synopsis: "[--pipeline ic|is|od|ac|all] [--workers W] [--items N]
                   [--batch B] [--schedules N] [--depth D] [--branch K]
                   [--steps S] [--no-faults] [--policy POLICY]
                   [--mutate lose-batch|premature-redispatch]
                   [--replay 0,2,1] [--trace FILE[,FILE...]]",
        about: "Bounded model checking of the DataLoader protocol: explore
                ready-event interleavings of a small configuration (DFS over
                schedule prefixes with state-hash pruning) and judge every run
                against the safety-invariant catalog (sample conservation, dispatch
                discipline, bounded buffers, progress). Prints a per-scenario
                summary with explored/pruned state counts; a violation prints a
                minimized counterexample schedule, replayable with --replay.
                --mutate seeds a known loader bug and *expects* detection (exit 1
                when the checker misses it). --trace skips the model checker and
                lints recorded trace files (Chrome JSON or LotusTrace logs)
                instead." },
    Command { name: "audit", run: cmd_audit,
        synopsis: "[--pipeline ic|ac|is|all] [--policy POLICY|all] [--items N]
                   [--workers W] [--status-check-ms T]
                   [--mutate skip-notify|release-recheck|lock-order]
                   [--trace] [--json]
                   [--model] [--bug BUG] [--batches N] [--cap C]
                   [--schedules N] [--depth D] [--branch K] [--replay 0,2,1]",
        about: "Happens-before race & deadlock audit of the native backend. Attaches
                a synchronization-event feed to real native runs (IC/AC/IS under
                every scheduling policy by default), rebuilds the happens-before
                order with vector clocks, and checks lock discipline, lost wakeups,
                condvar predicate re-checks, liveness-gated sends, produce-before-
                consume per batch, death-before-redispatch, gauge total ordering,
                and lock-order acyclicity. A finding prints a greedily minimized
                event window. --mutate seeds a known backend defect and *expects*
                detection (exit 1 when the auditor misses it). --trace dumps the
                event stream per run. --model switches to the bounded exhaustive
                mode: the NativeQueue protocol's state machine explored through
                every small interleaving (DFS with state-hash pruning), --bug
                seeding skip-notify|release-recheck|lock-order|if-instead-of-while
                into the model, and --replay re-running one model schedule
                deterministically." },
];

/// Closes the full help: the POLICY metavariable most commands share.
const POLICY_HELP: &str = "  POLICY: the loader scheduling policy — round-robin (default; the
  PyTorch-faithful dispatch), work-stealing (overflowing queues donate to
  the shallowest live queue), slow-lane (an online per-sample cost EWMA
  segregates expensive batches onto dedicated workers), adaptive-prefetch
  (the refill window tracks live queue-depth gauges). Shorthands: rr, ws,
  sl, ap. All policies run on both backends and pass `lotus check`;
  non-default policies tag the fingerprint, traces and tune cache keys.
  --slow-rate/--slow-factor (run, tune) make that probability of samples
  cost F× their normal time — the skewed-cost fault plan the policy
  bake-off in EXPERIMENTS.md uses.
";

/// `(dependent, parent)`: flags that mean nothing without their parent.
const NEEDS: [(&str, &str); 8] = [
    ("layout", "storage"),
    ("access", "storage"),
    ("storage-out", "storage"),
    ("attribution", "profile"),
    ("kill-at-ms", "kill-worker"),
    ("error-op", "error-rate"),
    ("slow-factor", "slow-rate"),
    ("tolerance", "check-against"),
];

/// Parses a synopsis into `(name, metavar)` pairs, `None` for booleans.
fn flag_table(synopsis: &str) -> Result<Vec<(&str, Option<&str>)>, String> {
    let mut table = Vec::new();
    let mut words = synopsis.split_whitespace();
    while let Some(word) = words.next() {
        let malformed = || format!("malformed synopsis entry at '{word}'");
        let open = word.strip_prefix("[--").ok_or_else(malformed)?;
        let (name, metavar) = match open.strip_suffix(']') {
            Some(name) => (name, None),
            None => {
                let metavar = words.next().and_then(|m| m.strip_suffix(']'));
                (open, Some(metavar.ok_or_else(malformed)?))
            }
        };
        if table.iter().any(|&(seen, _)| seen == name) {
            return Err(format!("--{name} is listed twice"));
        }
        table.push((name, metavar));
    }
    Ok(table)
}

/// One command's help section: the synopsis, then the prose.
fn help(command: &Command) -> String {
    let synopsis: Vec<&str> = command.synopsis.lines().map(str::trim).collect();
    let about: String = command
        .about
        .lines()
        .map(|l| format!("      {}\n", l.trim()))
        .collect();
    format!(
        "  lotus {:<10}{}\n{about}",
        command.name,
        synopsis.join(&format!("\n{:18}", ""))
    )
}

fn usage() -> String {
    let sections: Vec<String> = COMMANDS.iter().map(help).collect();
    format!(
        "lotus — characterization of ML preprocessing pipelines (paper reproduction)\n\n\
         USAGE:\n{}\n{POLICY_HELP}\n  lotus help\n",
        sections.join("\n")
    )
}

/// Levenshtein distance, for did-you-mean hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diagonal = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// One command's argv, checked against its flag table: every flag
/// declared, given once, valued flags with a value, `NEEDS` parents
/// present. Boolean flags hold an empty value.
struct Args {
    command: &'static str,
    table: Vec<(&'static str, Option<&'static str>)>,
    flags: BTreeMap<&'static str, String>,
}

impl Args {
    fn parse(command: &Command, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let table = flag_table(command.synopsis)?;
        let mut args = Args {
            command: command.name,
            table,
            flags: BTreeMap::new(),
        };
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (flags start with --)"));
            };
            let Some((name, metavar)) = args.table.iter().copied().find(|&(n, _)| n == name) else {
                let hint = (args.table.iter())
                    .map(|&(known, _)| (edit_distance(name, known), known))
                    .filter(|&(distance, _)| distance <= 2)
                    .min()
                    .map_or(String::new(), |(_, known)| {
                        format!(" (did you mean --{known}?)")
                    });
                let cmd = command.name;
                return Err(format!(
                    "unknown flag --{name} for `lotus {cmd}`{hint}; see `lotus {cmd} --help`"
                ));
            };
            let value = match metavar {
                None => String::new(),
                Some(meta) => argv
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a {meta}"))?,
            };
            if args.flags.insert(name, value).is_some() {
                return Err(format!("--{name} is given more than once"));
            }
        }
        for (dependent, parent) in NEEDS {
            if args.has(dependent) && !args.has(parent) {
                let meta = args
                    .metavar(parent)
                    .map_or(String::new(), |m| format!(" {m}"));
                return Err(format!(
                    "--{dependent} only makes sense together with --{parent}{meta}"
                ));
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: '{v}'")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn metavar(&self, name: &str) -> Option<&'static str> {
        self.table.iter().find(|&&(n, _)| n == name)?.1
    }

    /// The position of `--name`'s value among the `a|b|c` choices its
    /// metavar lists; the first choice is the default.
    fn choice(&self, name: &str) -> Result<usize, String> {
        let (Some(value), Some(choices)) = (self.value(name), self.metavar(name)) else {
            return Ok(0);
        };
        choices
            .split('|')
            .position(|choice| choice == value)
            .ok_or_else(|| format!("invalid --{name} '{value}' (expected {choices})"))
    }
}

/// Parses `--policy` (default `round-robin`, the PyTorch-faithful
/// dispatch; `rr`, `ws`, `sl` and `ap` are accepted as shorthands).
fn policy_of(args: &Args) -> Result<SchedulingPolicyKind, Box<dyn Error>> {
    let raw = args.get(
        "policy",
        SchedulingPolicyKind::RoundRobin.as_str().to_string(),
    )?;
    Ok(SchedulingPolicyKind::parse(&raw)?)
}

fn pipeline_of(name: &str) -> Result<PipelineKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "ic" => Ok(PipelineKind::ImageClassification),
        "is" => Ok(PipelineKind::ImageSegmentation),
        "od" => Ok(PipelineKind::ObjectDetection),
        "ac" => Ok(PipelineKind::AudioClassification),
        other => Err(format!(
            "unknown pipeline '{other}' (expected ic, is, od or ac)"
        )),
    }
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn Error>> {
    let config = experiment_config(args, None, (210, 8))?;

    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::new());
    let job = config.build(&machine, Arc::clone(&trace) as _, None);
    let storage = job.storage.clone();
    let report = job.run()?;
    println!(
        "{}: {} batches / {} samples in {:.2}s of virtual time\n",
        config.pipeline.abbrev(),
        report.batches,
        report.samples,
        report.elapsed.as_secs_f64()
    );
    println!(
        "{:<30} {:>9} {:>9} {:>8} {:>8}",
        "op", "avg ms", "P90 ms", "<10ms %", "<100us %"
    );
    for op in trace.op_stats() {
        println!(
            "{:<30} {:>9.2} {:>9.2} {:>8.2} {:>8.2}",
            op.name,
            op.summary.mean,
            op.summary.p90,
            op.frac_below_10ms * 100.0,
            op.frac_below_100us * 100.0
        );
    }
    if let Some(storage) = &storage {
        println!("\nstorage attribution:");
        print!(
            "{}",
            StorageAttribution::from_run(&storage.counters(), &trace.records()).to_table_string()
        );
    }
    println!("\n{}", analyze(&trace.records()));
    if args.has("timeline") {
        println!(
            "{}",
            render_timeline(&trace.records(), TimelineOptions::default())
        );
    }
    write_trace_files(args, &trace)
}

/// Writes `--out` (a coarse Chrome trace) and `--log` (a LotusTrace log
/// for `lotus check --trace`) when given; shared by `trace` and `run`.
fn write_trace_files(args: &Args, trace: &LotusTrace) -> Result<(), Box<dyn Error>> {
    if let Some(path) = args.value("out") {
        let doc = to_chrome_trace(&trace.records(), ChromeTraceOptions { coarse: true });
        std::fs::write(path, serde_json::to_string_pretty(&doc)?)?;
        println!("chrome trace written to {path}");
    }
    if let Some(path) = args.value("log") {
        std::fs::write(path, trace.to_log_string())?;
        println!("trace log written to {path} (lint it with: lotus check --trace {path})");
    }
    Ok(())
}

/// Writes `contents` to the FILE `--name` gives, if any, and reports it
/// as `what`.
fn write_output(
    args: &Args,
    name: &str,
    what: &str,
    contents: impl FnOnce() -> String,
) -> std::io::Result<()> {
    if let Some(path) = args.value(name) {
        std::fs::write(path, contents())?;
        println!("{what} written to {path}");
    }
    Ok(())
}

/// `--name` milliseconds (default `default`) as a `Span`, rejecting
/// values a nanosecond `Span` cannot hold.
fn millis(args: &Args, name: &str, default: u64) -> Result<Span, String> {
    let ms: u64 = args.get(name, default)?;
    ms.checked_mul(1_000_000)
        .map(Span::from_nanos)
        .ok_or_else(|| format!("--{name} {ms} is out of range"))
}

/// Parses `--backend` (default `native` for run/bench, `sim` for top).
fn backend_of(args: &Args, default: &str) -> Result<BackendKind, Box<dyn Error>> {
    let raw = args.get("backend", default.to_string())?;
    BackendKind::parse(&raw)
        .ok_or_else(|| format!("unknown backend '{raw}' (expected sim or native)").into())
}

/// Applies the run-shaping flags shared by `run`, `bench` and `top`.
fn apply_run_flags(args: &Args, options: &mut RunOptions) -> Result<(), Box<dyn Error>> {
    if args.has("no-gpu") {
        options.emulate_gpu = false;
    }
    if args.has("no-materialize") {
        options.materialize = false;
    }
    if args.has("status-check-ms") {
        options.status_check = millis(args, "status-check-ms", 0)?;
    }
    if args.has("profile") {
        options.profile = true;
    }
    Ok(())
}

/// Applies `--storage cold|warm`, `--layout tiny|packed` and
/// `--access shuffled|sequential`: routes the dataset's reads through
/// the simulated storage hierarchy (the pipeline's natural one — remote
/// object store for IC/OD/AC, local NVMe for IS), producing traced
/// \[T0\] fetch spans. Sim backend only.
fn apply_storage_flags(
    args: &Args,
    config: ExperimentConfig,
) -> Result<ExperimentConfig, Box<dyn Error>> {
    if !args.has("storage") {
        return Ok(config);
    }
    let layout = [FileLayout::TinyFiles, FileLayout::PackedRecords][args.choice("layout")?];
    let config = [config, config.sequential()][args.choice("access")?];
    let base = config.default_storage().with_layout(layout);
    Ok(config.with_storage([base, base.warm()][args.choice("storage")?]))
}

/// Rejects an epoch the loader cannot run: the loader shapes
/// `DataLoaderConfig::validate` refuses, and fewer `items` than one batch
/// (`drop_last` would leave no batch at all).
fn check_epoch(items: u64, batch_size: usize, num_workers: usize) -> Result<(), String> {
    DataLoaderConfig {
        batch_size,
        num_workers,
        ..DataLoaderConfig::default()
    }
    .validate()?;
    if items < batch_size as u64 {
        return Err(format!(
            "--items {items} is less than one batch of {batch_size}: the epoch would have no full batch"
        ));
    }
    Ok(())
}

/// The config prologue of `trace`, `run`, `top`, `tune` and `bench`: the
/// paper default for the `--pipeline` (or `bench`'s `preset`) with
/// `--batch`, `--workers` and `--gpus`, scaled to `--items`, the storage
/// flags and `--policy`, checked before any work starts. `--items`
/// defaults to the command's own rule: `(is, batches)` is `is` items for
/// IS and `batches` full batches for the other pipelines.
fn experiment_config(
    args: &Args,
    preset: Option<&str>,
    (is, batches): (u64, u64),
) -> Result<ExperimentConfig, Box<dyn Error>> {
    let kind = pipeline_of(preset.or(args.value("pipeline")).unwrap_or("ic"))?;
    let mut config = ExperimentConfig::paper_default(kind);
    config.batch_size = args.get("batch", config.batch_size)?;
    // `tune` sweeps its `--workers` list over the paper default instead.
    if args.command != "tune" {
        config.num_workers = args.get("workers", config.num_workers)?;
    }
    config.num_gpus = args.get("gpus", config.num_gpus)?;
    if config.num_gpus == 0 {
        return Err("--gpus must be at least 1".into());
    }
    let default_items = match kind {
        PipelineKind::ImageSegmentation => is,
        _ => batches * config.batch_size as u64,
    };
    let items = args.get("items", default_items)?;
    check_epoch(items, config.batch_size, config.num_workers)?;
    let config = apply_storage_flags(args, config.scaled_to(items))?;
    Ok(config.with_policy(policy_of(args)?))
}

fn cmd_run(args: &Args) -> Result<(), Box<dyn Error>> {
    let config = experiment_config(args, None, (8, 4))?;

    let backend = backend_of(args, "native")?;
    let mut options = RunOptions::for_backend(backend);
    apply_run_flags(args, &mut options)?;
    options.faults = parse_fault_flags(args, config.seed, config.num_workers)?;

    let outcome = run_experiment(&config, &options)?;
    let time_label = match backend {
        BackendKind::Sim => "virtual",
        BackendKind::Native => "wall",
    };
    println!(
        "{} [{} backend]: {} batches / {} samples in {:.2}s of {} time\n",
        config.pipeline.abbrev(),
        outcome.backend,
        outcome.report.batches,
        outcome.report.samples,
        outcome.report.elapsed.as_secs_f64(),
        time_label
    );
    println!(
        "{:<30} {:>7} {:>9} {:>9} {:>8}",
        "op", "count", "avg ms", "P90 ms", "<10ms %"
    );
    for op in outcome.trace.op_stats() {
        println!(
            "{:<30} {:>7} {:>9.2} {:>9.2} {:>8.2}",
            op.name,
            op.count,
            op.summary.mean,
            op.summary.p90,
            op.frac_below_10ms * 100.0
        );
    }
    let card = &outcome.scorecard;
    println!(
        "\nthroughput {:.1} samples/s | main-process wait {:.1}% | verdict: {} ({})",
        card.throughput,
        card.wait_fraction * 100.0,
        card.verdict
            .map_or("failed", lotus::core::tune::TuneVerdict::as_str),
        verdict_family(card)
    );
    if let Some(storage) = &outcome.storage {
        println!("\nstorage attribution:");
        print!("{}", storage.to_table_string());
        write_output(args, "storage-out", "storage attribution", || {
            storage.to_json()
        })?;
    }
    if let Some(profile) = &outcome.profile {
        println!(
            "\nprofiler: {} kernel samples over {} sampler ticks | overhead {:.4}s ({:.2}% of wall) | RSS peak {} kB",
            profile.kernel_samples,
            profile.ticks,
            profile.overhead.as_secs_f64(),
            profile.overhead_fraction * 100.0,
            profile.rss_peak_kb
        );
        print!("{}", profile.attribution.to_table_string());
        if let Some(agreement) = &profile.agreement {
            println!("\nsim-vs-native attribution (top-k kernels per op):");
            for verdict in agreement {
                let status = if verdict.agrees() {
                    "agrees with the simulated mapping".to_string()
                } else {
                    format!("MISSING from sim: {}", verdict.missing_from_sim.join(", "))
                };
                println!(
                    "  {}: [{}] — {status}",
                    verdict.op,
                    verdict.native_top.join(", ")
                );
            }
        }
        write_output(args, "attribution", "attribution mapping", || {
            profile.attribution.to_json()
        })?;
    }
    write_trace_files(args, &outcome.trace)
}

fn cmd_bench(args: &Args) -> Result<(), Box<dyn Error>> {
    let backend = backend_of(args, "native")?;
    let presets: Vec<String> = args
        .get("presets", "ic".to_string())?
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    if presets.is_empty() {
        return Err("--presets must name at least one pipeline".into());
    }
    let baseline_path = args.value("check-against");
    if baseline_path.is_some() && presets.len() != 1 {
        return Err(
            "--check-against gates exactly one preset; pass a single --presets value".into(),
        );
    }
    let tolerance: f64 = args.get("tolerance", 0.2)?;
    let configs = presets
        .iter()
        .map(|preset| experiment_config(args, Some(preset), (8, 4)))
        .collect::<Result<Vec<_>, _>>()?;
    let out_dir = std::path::PathBuf::from(args.get("out-dir", ".".to_string())?);
    std::fs::create_dir_all(&out_dir)?;

    for (preset, config) in presets.iter().zip(configs) {
        let mut options = RunOptions::for_backend(backend);
        apply_run_flags(args, &mut options)?;
        let outcome = run_experiment(&config, &options)?;
        let report = bench_report(preset, &config, &outcome);
        let path = out_dir.join(format!("BENCH_{}_{preset}.json", outcome.backend));
        std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
        println!(
            "{preset}: {:.1} samples/s, verdict {} -> {}",
            outcome.scorecard.throughput,
            outcome
                .scorecard
                .verdict
                .map_or("failed", lotus::core::tune::TuneVerdict::as_str),
            path.display()
        );
        if let Some(baseline_path) = baseline_path {
            let raw = std::fs::read_to_string(baseline_path)?;
            let baseline: serde_json::Value = serde_json::from_str(&raw)?;
            check_regression(&report, &baseline, tolerance)?;
            println!(
                "  regression gate vs {baseline_path}: ok (tolerance {:.0}%)",
                tolerance * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_map(args: &Args) -> Result<(), Box<dyn Error>> {
    let machine_config = match args.choice("vendor")? {
        0 => MachineConfig::cloudlab_c4130(),
        _ => MachineConfig::amd_rome(),
    };
    let machine = Machine::new(machine_config);
    let mut mapping = match backend_of(args, "sim")? {
        BackendKind::Sim => {
            let mut isolation = IsolationConfig::default();
            if args.has("runs") {
                isolation.runs_override = Some(args.get("runs", 20usize)?);
            }
            isolation.use_sleep_gap = !args.has("no-sleep-gap");
            build_ic_mapping(&machine, isolation)
        }
        // Real kernels, real wall clock: the cooperative span feed
        // observes the instrumented native functions as they execute.
        BackendKind::Native => build_ic_mapping_native(&machine, args.get("runs", 3usize)?),
    };
    // `--storage cold|warm`: run a short traced IC epoch through the
    // simulated storage hierarchy and attach its per-tier attribution, so
    // one artifact carries both the op→function and the fetch→tier side.
    if args.has("storage") {
        let items = args.get("items", 512u64)?;
        let config = apply_storage_flags(
            args,
            ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(items),
        )?;
        check_epoch(items, config.batch_size, config.num_workers)?;
        let trace = Arc::new(LotusTrace::new());
        let job = config.build(&machine, Arc::clone(&trace) as _, None);
        let storage = job.storage.clone();
        job.run()?;
        if let Some(storage) = storage {
            mapping.set_storage(StorageAttribution::from_run(
                &storage.counters(),
                &trace.records(),
            ));
        }
    }
    print!("{}", mapping.to_table_string());
    write_output(args, "out", "\nmapping", || mapping.to_json())?;
    Ok(())
}

fn cmd_attribute(args: &Args) -> Result<(), Box<dyn Error>> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let mapping = build_ic_mapping(&machine, IsolationConfig::default());
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.num_workers = args.get("workers", config.num_workers)?;
    let items = args.get("items", 8_192u64)?;
    check_epoch(items, config.batch_size, config.num_workers)?;
    let config = config.scaled_to(items);

    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        op_mode: OpLogMode::Aggregate,
        ..LotusTraceConfig::default()
    }));
    let hw = Arc::new(HwProfiler::new(ProfilerConfig {
        sampling_interval: Span::from_millis(10),
        skid: Span::from_micros(120),
        mode: CollectionMode::Sampling,
        start_paused: false,
    }));
    config
        .build(&machine, Arc::clone(&trace) as _, Some(Arc::clone(&hw)))
        .run()?;
    let op_times: BTreeMap<String, Span> = trace
        .op_stats()
        .iter()
        .map(|o| (o.name.clone(), o.total_cpu))
        .collect();
    let profile = hw.report(&machine);
    if args.has("functions") {
        println!("-- per-function hardware profile (VTune µarch exploration) --");
        print!("{}", format_report(&profile));
        println!();
    }
    let split = if args.has("mix-aware") {
        println!("(mix-aware splitting)");
        split_metrics_mix_aware(&profile, &mapping, &op_times)
    } else {
        split_metrics(&profile, &mapping, &op_times)
    };
    println!(
        "{:<30} {:>12} {:>10} {:>12} {:>12}",
        "op", "CPU (s)", "IPC", "FE-bound %", "DRAM-bound %"
    );
    for op in split {
        if op.cpu_time.is_zero() {
            continue;
        }
        println!(
            "{:<30} {:>12.2} {:>10.2} {:>12.2} {:>12.2}",
            op.op,
            op.cpu_time.as_secs_f64(),
            op.events.ipc(),
            op.events.frontend_bound_fraction() * 100.0,
            op.events.dram_bound_fraction() * 100.0
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.batch_size = 512;
    let items = args.get("items", 8_192u64)?;
    check_epoch(items, config.batch_size, config.num_workers)?;
    let harness = ComparisonHarness::new(config.scaled_to(items));
    println!(
        "{:<18} {:>11} {:>12} {:>14}   Epoch/Batch/Async/Wait/Delay",
        "profiler", "wall (s)", "overhead %", "log bytes"
    );
    let baseline = harness.baseline_wall();
    let mut rows = vec![harness.run_lotus(baseline)];
    for which in lotus::profilers::BaselineProfiler::ALL {
        rows.push(harness.run_baseline(which, baseline));
    }
    for row in rows {
        println!(
            "{:<18} {:>11.1} {:>12.1} {:>14}   {}{}",
            row.profiler,
            row.wall_time.as_secs_f64(),
            row.wall_overhead * 100.0,
            row.log_bytes,
            row.capabilities.row(),
            if row.out_of_memory { "  (OOM!)" } else { "" }
        );
    }
    println!("\nstreaming sink stack (one run, cost attributed per sink):");
    println!("{:<18} {:>11} {:>14}", "sink", "wall (s)", "charged");
    for row in harness.run_sink_stack(baseline) {
        println!(
            "{:<18} {:>11.1} {:>14}",
            row.sink,
            row.wall_time.as_secs_f64(),
            format!("{}", row.charged),
        );
    }
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), Box<dyn Error>> {
    let config = experiment_config(args, None, (210, 8))?;

    let backend = backend_of(args, "sim")?;
    let (snapshot, report, time_label, overheads) = match backend {
        BackendKind::Sim => {
            let machine = Machine::new(MachineConfig::cloudlab_c4130());
            let registry = Arc::new(MetricsRegistry::new());
            let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), config.num_workers));
            let sinks = Arc::new(MultiSink::new().with(Arc::clone(&metrics) as _));
            let report = config
                .build(&machine, Arc::clone(&sinks) as _, None)
                .run()?;
            (registry.snapshot(), report, "virtual", sinks.overheads())
        }
        BackendKind::Native => {
            // Wall-clock dashboard: gauges and histograms are stamped by
            // the native run's shared clock, so the sparklines span the
            // run's real elapsed time.
            let mut options = RunOptions::native();
            apply_run_flags(args, &mut options)?;
            let outcome = run_experiment(&config, &options)?;
            (
                outcome.measurement.snapshot,
                outcome.report,
                "wall",
                Vec::new(),
            )
        }
    };
    let width = args.get("width", 48usize)?;
    print!(
        "{}",
        render_dashboard(&snapshot, DashboardOptions { width })
    );
    println!(
        "\n{} batches / {} samples in {:.2}s of {time_label} time",
        report.batches,
        report.samples,
        report.elapsed.as_secs_f64()
    );
    for (name, overhead) in overheads {
        println!("sink '{name}' charged {overhead} of instrumentation overhead");
    }
    write_output(args, "prom", "prometheus text", || to_prometheus(&snapshot))?;
    write_output(args, "json", "json snapshot", || to_json(&snapshot))?;
    write_output(args, "csv", "csv time-series", || to_csv(&snapshot))?;
    Ok(())
}

/// Builds the `FaultPlan` from the fault flags `run` and `tune` share,
/// rejecting rates and factors it would panic on and a `--kill-worker`
/// beyond the `workers` the run starts.
fn parse_fault_flags(args: &Args, seed: u64, workers: usize) -> Result<FaultPlan, Box<dyn Error>> {
    let mut faults = FaultPlan::new(seed);
    if args.has("kill-worker") {
        let worker: usize = args.get("kill-worker", 0)?;
        if worker >= workers {
            return Err(
                format!("--kill-worker {worker} names no worker of the {workers} started").into(),
            );
        }
        let at = millis(args, "kill-at-ms", 50)?;
        faults = faults.kill_process(format!("dataloader{worker}"), lotus::sim::Time::ZERO + at);
    }
    let probability = |name: &str| -> Result<f64, String> {
        let p: f64 = args.get(name, 0.0)?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("--{name} must be a probability in [0, 1], got {p}"))
        }
    };
    let error_rate = probability("error-rate")?;
    if error_rate > 0.0 {
        let op = args.get("error-op", "Loader".to_string())?;
        faults = faults.inject_sample_errors(op, error_rate);
    }
    let slow_rate = probability("slow-rate")?;
    let factor: f64 = args.get("slow-factor", 10.0)?;
    if factor.is_nan() || factor < 1.0 {
        return Err(format!("--slow-factor must be at least 1, got {factor}").into());
    }
    if slow_rate > 0.0 {
        faults = faults.slow_samples(slow_rate, factor);
    }
    Ok(faults)
}

/// Parses a comma-separated `--name` list, one `parse`d item per token.
fn parse_list<T>(name: &str, raw: &str, parse: fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|tok| parse(tok.trim()).ok_or_else(|| format!("invalid value in --{name}: '{tok}'")))
        .collect()
}

fn cmd_tune(args: &Args) -> Result<(), Box<dyn Error>> {
    let config = experiment_config(args, None, (16, 8))?;

    let mut space = SearchSpace::default();
    if let Some(raw) = args.value("workers") {
        space.workers = parse_list("workers", raw, |tok| tok.parse().ok())?;
    }
    if let Some(raw) = args.value("prefetch") {
        space.prefetch = parse_list("prefetch", raw, |tok| tok.parse().ok())?;
    }
    if let Some(raw) = args.value("caps") {
        space.queue_caps = parse_list("caps", raw, |tok| match tok {
            "none" | "-" => Some(None),
            n => n.parse().ok().map(Some),
        })?;
    }
    space.pin_memory = [&[true][..], &[false], &[true, false]][args.choice("pin")?].to_vec();
    let strategy =
        [Strategy::Grid, Strategy::HillClimb { max_moves: 16 }][args.choice("strategy")?];

    let max_workers = space.workers.iter().copied().max().unwrap_or(0);
    let faults = parse_fault_flags(args, config.seed, max_workers)?;

    let jobs = args.get("jobs", lotus::core::exec::default_jobs())?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let cache_dir = if args.has("no-cache") {
        None
    } else {
        Some(std::path::PathBuf::from(args.get(
            "cache-dir",
            lotus::core::exec::DEFAULT_CACHE_DIR.to_string(),
        )?))
    };
    let options = TuneOptions {
        space,
        strategy,
        faults,
        jobs,
        cache_dir,
    };
    let report = tune_experiment(&config, &options)?;

    if args.has("json") {
        print!("{}", report.to_json());
    } else {
        println!(
            "{}: tuning {} configs over {} items (batch {})\n",
            config.pipeline.abbrev(),
            report.cards.len(),
            config.dataset_items.unwrap_or(0),
            config.batch_size
        );
        print!("{}", report.render_table());
    }
    write_output(args, "out", "json report", || report.to_json())?;
    Ok(())
}

/// Lints one or more recorded trace files; returns the number of files
/// with findings.
fn check_traces(raw: &str) -> Result<usize, Box<dyn Error>> {
    let mut dirty = 0usize;
    for path in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let records = lotus::core::check::load_trace(std::path::Path::new(path))?;
        let findings = lotus::core::check::lint_records(&records, None);
        if findings.is_empty() {
            println!("{path}: ok ({} records)", records.len());
        } else {
            dirty += 1;
            println!("{path}: {} finding(s)", findings.len());
            for finding in &findings {
                println!("  {finding}");
            }
        }
    }
    Ok(dirty)
}

/// Prints a minimized counterexample and the `--replay` invocation
/// (`replay`, e.g. `lotus check`) that re-runs it.
fn print_counterexample(indent: &str, cx: &Counterexample, replay: &str) {
    let schedule: Vec<String> = cx.schedule.iter().map(usize::to_string).collect();
    let schedule = schedule.join(",");
    println!("{indent}counterexample schedule: [{schedule}]");
    println!(
        "  ({} decision points in the violating run; replay with: {replay} --replay {})",
        cx.decisions,
        if schedule.is_empty() {
            "\"\""
        } else {
            &schedule
        }
    );
    print_violations(&cx.violations);
}

fn print_events(indent: &str, events: &[SyncEvent]) {
    for e in events {
        println!(
            "{indent}#{:<6} tid {:<4} {:<22} {:?}",
            e.seq, e.tid, e.obj, e.op
        );
    }
}

fn print_violations(violations: &[impl std::fmt::Display]) {
    for violation in violations {
        println!("  violation: {violation}");
    }
}

/// The verdict on a run that may carry a seeded defect (`seeded`, e.g.
/// `mutation 'lose-batch'`): unseeded code must produce no `findings`
/// (else the `dirty` error), a seeded defect must be found by the `tool`.
fn detection_verdict(
    seeded: Option<String>,
    findings: usize,
    dirty: String,
    tool: &str,
) -> Result<(), Box<dyn Error>> {
    match (seeded, findings) {
        (None, 0) => Ok(()),
        (None, _) => Err(dirty.into()),
        (Some(defect), 0) => {
            Err(format!("{defect} was NOT detected — the {tool} has a blind spot").into())
        }
        (Some(defect), _) => {
            println!("\n{defect} detected as expected");
            Ok(())
        }
    }
}

fn cmd_check(args: &Args) -> Result<(), Box<dyn Error>> {
    if let Some(raw) = args.value("trace") {
        let dirty = check_traces(raw)?;
        if dirty > 0 {
            return Err(format!("{dirty} trace file(s) violated the lint rules").into());
        }
        return Ok(());
    }

    let mut options = CheckOptions::default();
    options.workers = args.get("workers", options.workers)?;
    options.items = args.get("items", options.items)?;
    options.batch_size = args.get("batch", options.batch_size)?;
    check_epoch(options.items, options.batch_size, options.workers)?;
    options.bounds.max_schedules = args.get("schedules", 64usize)?;
    options.bounds.max_depth = args.get("depth", options.bounds.max_depth)?;
    options.bounds.max_branch = args.get("branch", options.bounds.max_branch)?;
    options.bounds.max_steps = args.get("steps", options.bounds.max_steps)?;
    options.with_faults = !args.has("no-faults");
    options.policy = policy_of(args)?;
    let mutate = args.value("mutate");
    if mutate.is_some() {
        let mutations = [
            LoaderMutation::LoseBatch { batch_id: 1 },
            LoaderMutation::RedispatchLive { batch_id: 1 },
        ];
        options.mutation = mutations[args.choice("mutate")?];
    }

    let raw_kind = args.get("pipeline", "ic".to_string())?;
    let kinds: Vec<PipelineKind> = if raw_kind == "all" {
        vec![
            PipelineKind::ImageClassification,
            PipelineKind::AudioClassification,
            PipelineKind::ImageSegmentation,
        ]
    } else {
        vec![pipeline_of(&raw_kind)?]
    };

    if let Some(raw) = args.value("replay") {
        let schedule = parse_schedule(raw)?;
        let scenario = lotus::checking::scenarios(kinds[0], &options)
            .into_iter()
            .next()
            .ok_or("no scenario to replay")?;
        let outcome = lotus::checking::run_scheduled(&scenario, &schedule, &options.bounds);
        println!(
            "replay {}: {} decision points, {} protocol events",
            scenario.name,
            outcome.decisions.len(),
            outcome.events.len()
        );
        println!("  ending: {:?}", outcome.ending);
        return replay_verdict(
            &outcome.violations,
            "replayed schedule violates the invariant catalog",
        );
    }

    println!(
        "lotus check: workers={} items={} batch={} | schedules<={} depth<={} branch<={} steps<={}{}",
        options.workers,
        options.items,
        options.batch_size,
        options.bounds.max_schedules,
        options.bounds.max_depth,
        options.bounds.max_branch,
        options.bounds.max_steps,
        mutate.map_or(String::new(), |m| format!(" | MUTATED ({m})"))
    );
    println!(
        "\n{:<34} {:>9} {:>9} {:>8} {:>8} {:>7} {:>9}",
        "scenario", "schedules", "decisions", "states", "pruned", "depth", "verdict"
    );
    let mut counterexamples = Vec::new();
    for kind in kinds {
        for (scenario, report) in lotus::checking::check_pipeline(kind, &options) {
            let stats = report.stats;
            println!(
                "{:<34} {:>9} {:>9} {:>8} {:>8} {:>7} {:>9}",
                scenario.name,
                stats.schedules_run,
                stats.decision_points,
                stats.states_seen,
                stats.states_pruned,
                stats.max_depth_reached,
                if report.clean() { "ok" } else { "VIOLATED" }
            );
            if stats.budget_exhausted || stats.depth_truncations > 0 {
                println!(
                    "{:<34}   (bounded: budget_exhausted={} depth_truncations={} branch_truncations={})",
                    "", stats.budget_exhausted, stats.depth_truncations, stats.branch_truncations
                );
            }
            if let Some(cx) = report.counterexample {
                counterexamples.push((scenario.name, cx));
            }
        }
    }
    for (name, cx) in &counterexamples {
        println!("\n{name}:");
        print_counterexample("  ", cx, "lotus check");
    }
    let n = counterexamples.len();
    detection_verdict(
        mutate.map(|m| format!("mutation '{m}'")),
        n,
        format!("{n} scenario(s) violated the invariant catalog"),
        "checker",
    )
}

/// Parses `--replay`'s comma-separated choice list (`--replay ""` is the
/// empty, default-policy schedule).
fn parse_schedule(raw: &str) -> Result<Vec<usize>, String> {
    if raw.trim().is_empty() {
        return Ok(Vec::new());
    }
    parse_list("replay", raw, |tok| tok.parse().ok())
}

/// Prints a replayed schedule's violations; any is the `dirty` error.
fn replay_verdict(
    violations: &[impl std::fmt::Display],
    dirty: &str,
) -> Result<(), Box<dyn Error>> {
    if violations.is_empty() {
        println!("  no violations");
        return Ok(());
    }
    print_violations(violations);
    Err(dirty.into())
}

/// The bounded-exhaustive side of `lotus audit`: explore (or `--replay`)
/// the modelled native protocol.
fn cmd_audit_model(args: &Args) -> Result<(), Box<dyn Error>> {
    use lotus::core::check::ExploreBounds;
    use lotus::core::check::{explore_native_model, run_model_traced, ModelBug, ModelConfig};

    let raw_bug = args.get("bug", "none".to_string())?;
    let bug = ModelBug::parse(&raw_bug).ok_or_else(|| {
        format!(
            "invalid --bug '{raw_bug}' (none, skip-notify, release-recheck, lock-order or \
             if-instead-of-while)"
        )
    })?;
    let cfg = ModelConfig {
        workers: args.get("workers", 2usize)?,
        batches_per_worker: args.get("batches", 2usize)?,
        queue_cap: args.get("cap", 1usize)?,
        bug,
    };
    DataLoaderConfig {
        num_workers: cfg.workers,
        data_queue_cap: Some(cfg.queue_cap),
        ..DataLoaderConfig::default()
    }
    .validate()?;
    if cfg.batches_per_worker == 0 {
        return Err("--batches must be at least 1".into());
    }
    let bounds = ExploreBounds {
        max_schedules: args.get("schedules", 2_000usize)?,
        max_depth: args.get("depth", 96usize)?,
        max_branch: args.get("branch", 4usize)?,
        ..ExploreBounds::default()
    };

    if let Some(raw) = args.value("replay") {
        let schedule = parse_schedule(raw)?;
        let (run, events) = run_model_traced(&cfg, &schedule);
        println!(
            "replay model[bug={}] schedule [{}]: {} decision points, {} sync events",
            bug.as_str(),
            raw.trim(),
            run.decisions.len(),
            events.len()
        );
        if args.has("trace") {
            print_events("  ", &events);
        }
        return replay_verdict(
            &run.violations,
            "replayed model schedule violates the synchronization contract",
        );
    }

    println!(
        "lotus audit --model: workers={} batches/worker={} cap={} bug={} | schedules<={} depth<={} branch<={}",
        cfg.workers,
        cfg.batches_per_worker,
        cfg.queue_cap,
        bug.as_str(),
        bounds.max_schedules,
        bounds.max_depth,
        bounds.max_branch
    );
    let report = explore_native_model(&cfg, &bounds);
    let stats = report.stats;
    println!(
        "explored {} schedules, {} decision points, {} states ({} pruned), depth {} | verdict: {}",
        stats.schedules_run,
        stats.decision_points,
        stats.states_seen,
        stats.states_pruned,
        stats.max_depth_reached,
        if report.clean() { "ok" } else { "VIOLATED" }
    );
    let found = report.counterexample.is_some();
    if let Some(cx) = &report.counterexample {
        let replay = format!("lotus audit --model --bug {}", bug.as_str());
        print_counterexample("", cx, &replay);
    }
    detection_verdict(
        (bug != ModelBug::None).then(|| format!("model bug '{}'", bug.as_str())),
        usize::from(found),
        "the clean model violated the synchronization contract".into(),
        "auditor",
    )
}

fn cmd_audit(args: &Args) -> Result<(), Box<dyn Error>> {
    use lotus::auditing::{audit_matrix, minimized_window, AuditOptions, AUDIT_BATCH_SIZE};
    use lotus::dataflow::AuditMutation;

    if args.has("model") || args.has("bug") {
        return cmd_audit_model(args);
    }
    if args.has("replay") {
        return Err("--replay replays model schedules; add --model (and --bug NAME)".into());
    }

    let mut options = AuditOptions::default();
    options.items = args.get("items", options.items)?;
    options.workers = args.get("workers", options.workers)?;
    if options.items == 0 {
        return Err("--items must be at least 1".into());
    }
    check_epoch(options.items, AUDIT_BATCH_SIZE, options.workers)?;
    if args.has("status-check-ms") {
        options.status_check = millis(args, "status-check-ms", 0)?;
    }
    let raw_kind = args.get("pipeline", "all".to_string())?;
    if raw_kind != "all" {
        options.pipelines = vec![pipeline_of(&raw_kind)?];
    }
    let raw_policy = args.get("policy", "all".to_string())?;
    if raw_policy != "all" {
        options.policies = vec![SchedulingPolicyKind::parse(&raw_policy)?];
    }
    let mutate = args.value("mutate");
    if let Some(name) = mutate {
        options.mutation = AuditMutation::parse(name).ok_or_else(|| {
            format!("invalid --mutate '{name}' (skip-notify, release-recheck or lock-order)")
        })?;
    }

    println!(
        "lotus audit: items={} workers={} status-check={:.0}ms | {} pipeline(s) x {} policy(ies){}",
        options.items,
        options.workers,
        options.status_check.as_secs_f64() * 1e3,
        options.pipelines.len(),
        options.policies.len(),
        mutate.map_or(String::new(), |m| format!(" | MUTATED ({m})"))
    );
    println!(
        "\n{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12} {:>9}",
        "run", "batches", "events", "threads", "objects", "ids", "overhead us", "verdict"
    );
    let runs = audit_matrix(&options)?;
    let mut flagged = 0usize;
    for run in &runs {
        let s = run.report.stats;
        println!(
            "{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12.1} {:>9}",
            run.name,
            run.batches,
            s.events,
            s.threads,
            s.objects,
            s.batches,
            run.audit_overhead_ns as f64 / 1e3,
            if run.report.clean() { "ok" } else { "FLAGGED" }
        );
        if args.has("trace") {
            print_events("  ", &run.events);
        }
        if !run.report.clean() {
            flagged += 1;
        }
    }
    if args.has("json") {
        let docs: Vec<serde_json::Value> = runs
            .iter()
            .map(|run| {
                let findings: Vec<serde_json::Value> = (run.report.findings.iter())
                    .map(|f| serde_json::json!({"kind": f.kind(), "detail": f.to_string()}))
                    .collect();
                serde_json::json!({
                    "run": run.name.clone(),
                    "clean": run.report.clean(),
                    "events": run.report.stats.events,
                    "threads": run.report.stats.threads,
                    "overhead_ns": run.audit_overhead_ns,
                    "elapsed_s": run.elapsed.as_secs_f64(),
                    "findings": findings,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::from(docs))?
        );
    }
    for run in runs.iter().filter(|r| !r.report.clean()) {
        println!("\n{}: {} finding(s)", run.name, run.report.findings.len());
        for finding in &run.report.findings {
            println!("  [{}] {finding}", finding.kind());
        }
        if let Some(window) = minimized_window(run) {
            println!(
                "  minimized counterexample window ({} of {} events):",
                window.len(),
                run.events.len()
            );
            print_events("    ", &window);
        }
    }
    detection_verdict(
        mutate.map(|m| format!("mutation '{m}'")),
        flagged,
        format!("{flagged} run(s) violated the synchronization contract"),
        "auditor",
    )
}

fn run() -> Result<(), Box<dyn Error>> {
    let argv = (std::env::args_os().skip(1))
        .map(|arg| {
            arg.into_string()
                .map_err(|arg| format!("argument {arg:?} is not UTF-8"))
        })
        .collect::<Result<Vec<String>, _>>()?;
    let Some(name) = argv
        .first()
        .filter(|n| !matches!(n.as_str(), "help" | "--help" | "-h"))
    else {
        print!("{}", usage());
        return Ok(());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'\n\n{}", usage()))?;
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help(command));
        return Ok(());
    }
    (command.run)(&Args::parse(command, argv[1..].iter().cloned())?)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_synopsis_is_a_flag_table_that_declares_its_needs_parents() {
        for command in COMMANDS {
            let table = flag_table(command.synopsis).expect("the synopsis parses");
            let declared = |name: &str| table.iter().any(|&(n, _)| n == name);
            for (dependent, parent) in NEEDS {
                assert!(
                    !declared(dependent) || declared(parent),
                    "lotus {}: --{dependent} without --{parent}",
                    command.name
                );
            }
        }
    }

    /// The shell lines of `text` (Markdown: inside ``` fences; workflow
    /// YAML: every line, a leading `run:` dropped) with `\` continuations
    /// joined, each numbered by its first line.
    fn shell_lines(text: &str, markdown: bool) -> Vec<(usize, String)> {
        let (mut lines, mut fenced, mut pending) = (Vec::new(), false, None);
        for (i, line) in text.lines().map(str::trim).enumerate() {
            if line.starts_with("```") {
                fenced = !fenced;
            }
            if markdown && !fenced || line.starts_with("```") {
                continue;
            }
            let line = line.strip_prefix("run:").map_or(line, str::trim);
            let (first, joined) = pending.take().unwrap_or((i + 1, String::new()));
            match line.strip_suffix('\\') {
                Some(head) => pending = Some((first, joined + head + " ")),
                None => lines.push((first, joined + line)),
            }
        }
        lines
    }

    /// The argv after the binary of a shell line that starts a `lotus`
    /// command, cut at the first pipe, redirect or `;`, with `# comments`,
    /// `[optional]` brackets and quotes stripped.
    fn invocation(line: &str) -> Option<Vec<String>> {
        let mut words = Vec::new();
        let shell = line.split(" #").next()?.split_whitespace();
        for word in shell.skip_while(|w| matches!(*w, "$" | "!" | "if")) {
            if word.starts_with(['|', '>', '&', ';']) || word.starts_with("2>") {
                break;
            }
            words.push(word.trim_end_matches(';').trim_matches(['[', ']', '"']));
            if word.ends_with(';') {
                break;
            }
        }
        let start = match words.as_slice() {
            ["cargo", "run", rest @ ..]
                if !rest
                    .iter()
                    .any(|w| matches!(*w, "--example" | "--manifest-path")) =>
            {
                words.iter().position(|w| *w == "--")? + 1
            }
            [bin, ..] if *bin == "lotus" || bin.ends_with("/lotus") => 1,
            _ => return None,
        };
        Some(words[start..].iter().map(ToString::to_string).collect())
    }

    /// A mistyped flag in the docs or in CI fails here rather than being
    /// silently ignored when someone runs it.
    #[test]
    fn documented_and_ci_invocations_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<_> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
            .map(|f| root.join(f))
            .into();
        for entry in std::fs::read_dir(root.join(".github/workflows")).expect("workflows exist") {
            files.push(entry.expect("a readable directory entry").path());
        }
        let (mut checked, mut failures) = (0, Vec::new());
        for file in &files {
            let text = std::fs::read_to_string(file).expect("a readable file");
            let markdown = file.extension().is_some_and(|ext| ext == "md");
            for (line, shell) in shell_lines(&text, markdown) {
                let Some(argv) = invocation(&shell) else {
                    continue;
                };
                checked += 1;
                let parsed = match COMMANDS
                    .iter()
                    .find(|c| argv.first().is_some_and(|a| a == c.name))
                {
                    Some(command) => Args::parse(command, argv[1..].to_vec()).map(drop),
                    None => Err(format!("unknown command in {argv:?}")),
                };
                if let Err(e) = parsed {
                    let file = file.strip_prefix(root).unwrap_or(file);
                    failures.push(format!("{}:{line}: {e}", file.display()));
                }
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        assert!(checked >= 50, "only {checked} invocations found");
    }
}
