//! Scaled-down smoke runs of every workload (`AllLikeConfig::tiny`,
//! `ReplaceConfig::tiny`): every metric is printed by name and unit, the
//! names and units agree with `BENCHMARK.json`, the outputs check out, the
//! traced replica reproduces the engine and its spans reconcile — and a
//! corrupted result counts as a failed operation.

use cfp_perfbench::oracle;
use cfp_perfbench::report::{Ledger, MetricDef, END_TO_END, PER_LAYER};
use cfp_perfbench::workload::{self, Scale, Workload, WORKLOADS};
use std::process::Command;

/// Runs `perfbench run` at tiny scale and returns its stdout lines.
fn run(w: Workload, trace: bool) -> Vec<String> {
    let state = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "run",
        "--workload",
        w.name(),
        "--seed",
        "3",
        "--seconds",
        "1",
    ])
    .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
    .arg("--state-dir")
    .arg(&state);
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("CFP_")) {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("the benchmark executable runs");
    assert!(
        out.status.success(),
        "{} exited with {}: {}",
        w.name(),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("UTF-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The numeric value of `"name": {"value": V, "unit": "unit"}` in `line`.
fn metric(line: &str, def: &MetricDef) -> Option<f64> {
    let head = format!("\"{}\": {{\"value\": ", def.name);
    let rest = &line[line.find(&head)? + head.len()..];
    let (value, tail) = rest.split_once(", \"unit\": ")?;
    tail.starts_with(&format!("\"{}\"}}", def.unit))
        .then(|| value.parse().ok())
        .flatten()
}

fn check_run(w: Workload, trace: bool, defs: &[MetricDef]) -> String {
    let lines = run(w, trace);
    let last = lines.last().expect("a result line").clone();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{} trace={trace}: {lines:#?}",
        w.name()
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    for def in defs {
        let v = metric(&last, def).unwrap_or_else(|| panic!("{} missing in {last}", def.name));
        assert!(v.is_finite());
    }
    assert!(lines.iter().any(|l| l.starts_with("host: nproc=")));
    last
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in WORKLOADS {
        let last = check_run(w, false, END_TO_END);
        for def in END_TO_END {
            assert!(
                metric(&last, def).expect("checked") > 0.0,
                "{} is 0",
                def.name
            );
        }
    }
}

#[test]
fn every_workload_traces_and_reconciles() {
    let unattributed = PER_LAYER
        .iter()
        .find(|d| d.name == "trace.unattributed_ratio")
        .expect("declared");
    for w in WORKLOADS {
        let last = check_run(w, true, PER_LAYER);
        let share = metric(&last, unattributed).expect("checked");
        assert!(share <= 0.05, "{}: {share} unattributed", w.name());
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (e2e, layers) = json
        .split_once("\"per_layer\"")
        .expect("a per_layer section");
    for (defs, section) in [(END_TO_END, e2e), (PER_LAYER, layers)] {
        for d in defs {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    let entries = |s: &str| s.matches("{\"name\": ").count();
    assert_eq!(entries(e2e), WORKLOADS.len() + END_TO_END.len());
    assert_eq!(entries(layers), PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}

#[test]
fn a_flipped_tid_is_a_failed_operation() {
    let w = Workload::All;
    let cfg = workload::config(w, Scale::Tiny, 5);
    let input = workload::generate(w, Scale::Tiny, 5);
    let (db, result) = cfp_perfbench::batch::mine_once(&input.fimi, &cfg).expect("tiny mine");
    let vindex = cfp_itemset::VerticalIndex::new(&db);
    let expected = oracle::canon(&db, &result.patterns);

    let mut ledger = Ledger::default();
    ledger.record(oracle::judge_mine(
        &db,
        &vindex,
        &result.patterns,
        cfg.min_count,
        &expected,
    ));
    let mut corrupted = result.patterns.clone();
    let last = corrupted.last_mut().expect("a non-empty result");
    let universe = last.tids.universe();
    let tid = (0..universe)
        .find(|&t| !last.tids.contains(t))
        .expect("a tid outside the support set");
    last.tids.insert(tid);
    ledger.record(oracle::judge_mine(
        &db,
        &vindex,
        &corrupted,
        cfg.min_count,
        &expected,
    ));
    assert_eq!(
        (ledger.attempted, ledger.failed),
        (2, 1),
        "{:?}",
        ledger.reasons
    );
}
