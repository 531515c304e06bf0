//! What a run prints: named metrics with units, the provenance block, and
//! the one-line JSON result that ends standard output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the value was obtained (sample count, base of a ratio).
    pub note: String,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: samples on the native workloads, trials on
    /// the tune sweep.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness gates that did not hold, one line each.
    pub violations: Vec<String>,
    /// The metrics this invocation reports.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (time budgets, per-call details).
    pub details: Vec<String>,
}

impl Outcome {
    /// Records a gate: when `ok` is false, `what` becomes a violation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// True when every gate held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }
}

/// Escapes `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become `null`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The revision of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance block: host, toolchain, revision, seed and workload
/// parameters, as one JSON object.
#[must_use]
pub fn provenance(workload: &str, seed: u64, trace: bool, params: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let params: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"git\": {}, \"workload\": {}, \
         \"seed\": {seed}, \"trace\": {trace}, \"params\": {{{}}}}}",
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_revision()),
        json_str(workload),
        params.join(", ")
    )
}

/// Lowers the kernel's resident-set high-water mark to the current
/// resident size, so [`peak_rss_kb`] afterwards reads the peak of the
/// interval in between. Where the reset is unsupported the peak covers
/// the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`) in kB, if
/// readable.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        outcome.push("latency_ms", 1.25, "ms", String::new());
        outcome.push("setup_s", 2.0, "s", String::new());
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_violation_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.gate(true, || unreachable!());
        assert!(outcome.correct());
        outcome.push("x", f64::NAN, "ms", String::new());
        assert!(!outcome.correct());
        assert!(result_line(&outcome).contains("null"));
        let mut gated = Outcome::default();
        gated.gate(false, || "lint found 1 issue".to_string());
        assert!(!gated.correct());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
