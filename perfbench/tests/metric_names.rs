//! Every workload reports exactly the metrics `BENCHMARK.json` lists, in
//! its order: the end-to-end list untraced, the per-layer list traced.

use lotus_perfbench::output::Outcome;
use lotus_perfbench::{native, tune};

/// The `name`s of one top-level list of `BENCHMARK.json`, in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a closed list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn untraced_runs_report_the_end_to_end_list() {
    let expected = listed("end_to_end");
    assert!(
        expected.iter().any(|name| name == "setup_s"),
        "{expected:?}"
    );
    let mut out = Outcome::default();
    native::report_timed(&native::Timed::default(), 1.0, &mut out);
    assert_eq!(names(&out), expected);
    let mut out = Outcome::default();
    tune::report_timed(&tune::Timed::default(), 1.0, &mut out);
    assert_eq!(names(&out), expected);
}

#[test]
fn traced_runs_report_the_per_layer_list() {
    let expected = listed("per_layer");
    assert!(expected.len() > 30, "{expected:?}");
    let mut out = Outcome::default();
    native::report_traced(&[native::TracedCall::default()], 1.0, &mut out);
    assert_eq!(names(&out), expected);
    let mut out = Outcome::default();
    let sweep = tune::SweepTrace {
        wall_ns: 1,
        trials: Vec::new(),
    };
    tune::report_traced(&[sweep], 1.0, &mut out);
    assert_eq!(names(&out), expected);
}

#[test]
fn listed_workloads_are_known_workloads() {
    let listed = listed("workloads");
    assert!(listed.len() >= 2, "{listed:?}");
    for name in &listed {
        assert!(
            lotus_perfbench::Workload::parse(name).is_some(),
            "BENCHMARK.json lists unknown workload {name}"
        );
    }
}
