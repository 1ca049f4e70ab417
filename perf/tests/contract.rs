//! The benchmark's names and build settings against the files that
//! record them: `BENCHMARK.json`, the root manifest, and `src/api.rs`.

use ms_perf::json::{self, Value};
use ms_perf::spec::{benchmark_json, layer_metrics, END_TO_END};
use ms_perf::workloads::WORKLOADS;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_name_and_unit_fits_the_contract_and_is_used_once() {
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
    for m in layer_metrics() {
        assert!(valid_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
        names.push(m.name);
    }
    for m in &END_TO_END {
        assert!(valid_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(
            m.bound.rel <= 0.25,
            "{} bound above the contract's cap",
            m.name
        );
    }
    for n in &names {
        assert!(valid_name(n), "name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    assert!(layer_metrics().len() <= 128);
}

#[test]
fn benchmark_json_is_the_spec_table() {
    let on_disk = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "BENCHMARK.json drifted from src/spec.rs; regenerate it with `perf spec > BENCHMARK.json`"
    );
    let keys: Vec<&str> = on_disk
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for w in on_disk.get("workloads").and_then(Value::as_arr).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why: {why:?}"
        );
    }
    let setup = on_disk
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

#[test]
fn baseline_covers_every_metric_of_every_workload() {
    let baseline = json::parse(&repo_file("perf/baseline.json")).expect("baseline.json parses");
    let by_workload = baseline.get("end_to_end").and_then(|e| e.get("workloads"));
    for w in WORKLOADS {
        for m in &END_TO_END {
            let median = by_workload
                .and_then(|b| b.get(w))
                .and_then(|b| b.get(m.name))
                .and_then(|b| b.get("median"))
                .and_then(Value::as_f64);
            assert!(median.is_some(), "baseline.json lacks {w}.{}", m.name);
        }
    }
    let global = baseline.get("per_layer").and_then(|p| p.get("global"));
    for m in layer_metrics().iter().filter(|m| m.global) {
        assert!(
            global.and_then(|g| g.get(&m.name)).is_some(),
            "baseline.json lacks per-layer {}",
            m.name
        );
    }
}

/// The `[profile.release]` table of a manifest, as sorted `key = value` lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = release_profile(&repo_file("Cargo.toml"));
    let ours = release_profile(&repo_file("perf/Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        ours, root,
        "perf must be built the way users build the workspace"
    );
}

#[test]
fn only_api_rs_names_the_repository_crates() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let crates = [
        "ms_dcsim",
        "ms_telemetry",
        "ms_transport",
        "ms_sketch",
        "ms_topo",
        "millisampler",
        "ms_workload",
        "ms_analysis",
        "ms_fleet",
        "ms_lake",
    ];
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().is_some_and(|f| f == "api.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            for c in crates {
                assert!(
                    !code.contains(&format!("{c}::")) && !code.contains(&format!("use {c}")),
                    "{}:{}: names {c} directly; go through api.rs",
                    path.display(),
                    n + 1
                );
            }
        }
    }
}
