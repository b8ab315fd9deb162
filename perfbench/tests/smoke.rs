//! Smoke test at tiny op counts: every workload emits every metric that
//! `BENCHMARK.json` declares, with its unit, and a deliberately wrong
//! expected value is reported as a failed op.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["chase", "inject", "codeship", "lossy"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Run one tiny workload in a directory of its own and return its last
/// stdout line.
fn run(workload: &str, extra: &[&str]) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}",
        extra.join("").replace('-', "")
    ));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--rounds", "1", "--ops", "6"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_metrics(line: &str, metrics: &[(String, String)]) {
    let tail = line.find("\"metrics\"").expect("metrics key");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line[tail..]
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"))
            + tail
            + key.len();
        let rest = &line[at..];
        let (value, after) = rest.split_once(", ").expect("value then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name} value `{value}` is not a number"));
        assert!(
            after.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name} should be in {unit}: {after}"
        );
    }
    let count = line[tail..].matches("{\"value\"").count();
    assert_eq!(count, metrics.len(), "unexpected extra metrics in {line}");
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let line = run(w, &["--trace", "0"]);
        assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
        assert!(line.contains("\"failed\": 0, "), "{w}: {line}");
        assert_metrics(&line, &end_to_end);
        let line = run(w, &["--trace", "1"]);
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{w} traced: {line}"
        );
        assert_metrics(&line, &per_layer);
    }
}

#[test]
fn a_wrong_expected_value_is_a_failed_op() {
    for w in WORKLOADS {
        let line = run(w, &["--trace", "0", "--expect-wrong"]);
        assert!(line.starts_with("{\"correct\": false, "), "{w}: {line}");
        assert!(line.contains("\"failed\": 1, "), "{w}: {line}");
    }
}
