//! Smoke test of the benchmark: one pass of every workload at 4 nodes and
//! input scale 0.02 (`--smoke`), run twice, once traced.

use std::path::{Path, PathBuf};
use std::process::Command;

use netcache_core::json::{self, Value};

/// Runs `netbench --smoke` with `extra` arguments in a scratch directory;
/// returns its standard output and its `--json` document.
fn smoke(tag: &str, extra: &[&str]) -> (String, Value) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_netbench"))
        .args(["--smoke", "--json", "detail.json"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run netbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "netbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(dir.join("detail.json")).unwrap();
    let doc = json::parse(&doc).expect("--json output parses");
    assert!(
        !dir.join(".netbench-tmp").exists(),
        "scratch directory left behind"
    );
    (stdout, doc)
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).expect("BENCHMARK.json parses")
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap()
}

/// `(workload, metric) -> value` of every simulated (exact) metric.
fn exact_metrics(doc: &Value) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for w in workloads(doc) {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        let Some(Value::Obj(metrics)) = w.get("metrics") else {
            panic!("metrics object")
        };
        for (metric, m) in metrics {
            if matches!(m.get("exact"), Some(Value::Bool(true))) {
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                out.push((name.to_string(), metric.clone(), v));
            }
        }
    }
    out
}

#[test]
fn smoke_runs_check_print_and_repeat() {
    let (plain, plain_doc) = smoke("plain", &["--trace", "0"]);
    let (traced, traced_doc) = smoke("traced", &["--trace", "1"]);

    // Every workload ran and no cell failed a check.
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    for doc in [&plain_doc, &traced_doc] {
        let ran: Vec<&str> = workloads(doc)
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(ran, names);
        for w in workloads(doc) {
            assert!(w.get("attempted").and_then(Value::as_u64).unwrap() > 0);
            assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0));
        }
    }

    // Every metric BENCHMARK.json names is printed with its unit (a
    // traced run prints the end-to-end metrics too).
    for list in ["end_to_end", "per_layer"] {
        for m in bench.get(list).and_then(Value::as_arr).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            let printed = traced.lines().filter(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 3 && f[0] == name && f[2] == unit
            });
            assert_eq!(printed.count(), names.len(), "{name} [{unit}]");
        }
    }

    // The result line carries the mode's catalogue, per workload.
    for (out, list) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
        let line = json::parse(out.lines().last().unwrap()).expect("result line parses");
        assert!(matches!(line.get("correct"), Some(Value::Bool(true))));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        let catalogue = bench.get(list).and_then(Value::as_arr).unwrap();
        assert_eq!(metrics.len(), catalogue.len() * names.len());
        for w in &names {
            for m in catalogue {
                let name = m.get("name").and_then(Value::as_str).unwrap();
                let got = line.get("metrics").unwrap().get(&format!("{w}.{name}"));
                let unit = got.and_then(|g| g.get("unit")).and_then(Value::as_str);
                assert_eq!(unit, m.get("unit").and_then(Value::as_str), "{w}.{name}");
            }
        }
    }

    // Simulated results do not depend on the run or on tracing.
    let (a, b) = (exact_metrics(&plain_doc), exact_metrics(&traced_doc));
    assert!(a.iter().any(|(_, m, _)| m == "sim.cycles"));
    assert_eq!(a, b);
}
