//! Smoke mode: every workload of `BENCHMARK.json` runs once per mode on a
//! small scene, succeeds, and emits exactly the metrics the file names,
//! each with a finite value.
//!
//! `BENCHMARK.json` is read by plain text scanning: its sections appear in
//! the order `workloads`, `end_to_end`, `per_layer`, and every entry has a
//! `"name": "<name>"` field.

use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

/// `"name": "<x>"` values in `text`, in order.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The names declared in each section, in file order.
fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let text = benchmark_json();
    let w = text.find("\"workloads\"").expect("workloads section");
    let e = text.find("\"end_to_end\"").expect("end_to_end section");
    let p = text.find("\"per_layer\"").expect("per_layer section");
    assert!(w < e && e < p, "sections in the order the scan assumes");
    (names(&text[w..e]), names(&text[e..p]), names(&text[p..]))
}

/// `(name, value)` of every metric in a result line.
fn emitted(line: &str) -> Vec<(String, Option<f64>)> {
    let marker = ": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_end = rest[..at].rfind('"').expect("name close quote");
        let name_start = rest[..name_end].rfind('"').expect("name open quote") + 1;
        let value_text = &rest[at + marker.len()..];
        let value_end = value_text.find(',').expect("value end");
        out.push((
            rest[name_start..name_end].to_string(),
            value_text[..value_end].parse::<f64>().ok(),
        ));
        rest = &value_text[value_end..];
    }
    out
}

fn run(workload: &str, trace: &str) -> String {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_hsbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--smoke", "--out", out_dir])
        .output()
        .expect("run hsbench");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let (workloads, end_to_end, per_layer) = declared();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            let got = emitted(&line);
            let got_names: Vec<&String> = got.iter().map(|(n, _)| n).collect();
            let want: Vec<&String> = expected.iter().collect();
            assert_eq!(got_names, want, "{workload} --trace {trace}: metric names");
            for (name, value) in &got {
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} --trace {trace}: {name} = {value:?}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_hsbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run hsbench");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn result_line_scanner() {
    let line = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                {\"a.b\": {\"value\": 1.5, \"unit\": \"s\"}, \"c\": {\"value\": null, \"unit\": \"ms\"}}}";
    assert_eq!(
        emitted(line),
        vec![("a.b".to_string(), Some(1.5)), ("c".to_string(), None)]
    );
    assert_eq!(names("[{\"name\": \"x\"}, {\"name\": \"y\"}]"), ["x", "y"]);
}
