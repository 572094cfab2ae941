//! The benchmark's own checks at a tiny scale: the command line end to
//! end (every metric, every workload, correct outputs, which counters
//! move where, repeatability), and the input generator's determinism.

use e2ebench::datagen::generate;
use e2ebench::report::{per_layer, END_TO_END};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};

const ROWS: &str = "10000";
const WORKLOADS: [&str; 2] = ["ldask_programs", "ldask_spill"];

/// A parsed result line.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    names: Vec<String>,
}

impl Outcome {
    fn get(&self, name: &str) -> f64 {
        *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("missing {name}"))
    }
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Parse the benchmark's own result line (flat, fixed layout).
fn parse(line: &str) -> Outcome {
    let field = |key: &str| {
        let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        line[start..].split(',').next().unwrap().trim().to_string()
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let mut metrics = BTreeMap::new();
    let mut names = Vec::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 = value.split(',').next().unwrap().parse().expect("number");
        names.push(name.clone());
        metrics.insert(name, value);
    }
    Outcome {
        correct: field("correct") == "true",
        attempted: field("attempted").parse().unwrap(),
        failed: field("failed").parse().unwrap(),
        metrics,
        names,
    }
}

/// Run the benchmark binary once and check that every output matched.
fn invoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_lafp-e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--rows", ROWS])
        .arg("--work-dir")
        .arg(scratch("work"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let outcome = parse(stdout.lines().last().expect("a result line"));
    assert!(
        outcome.correct && outcome.failed == 0,
        "{workload} seed {seed}:\n{stdout}"
    );
    outcome
}

/// Finished runs by `(workload, seed, trace)`.
type Runs = Mutex<HashMap<(String, u64, bool), Arc<Outcome>>>;

/// [`invoke`], cached per argument set so tests can share runs.
fn run(workload: &str, seed: u64, trace: bool) -> Arc<Outcome> {
    static CACHE: OnceLock<Runs> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let key = (workload.to_string(), seed, trace);
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    let outcome = Arc::new(invoke(workload, seed, trace));
    cache.lock().unwrap().insert(key, Arc::clone(&outcome));
    outcome
}

/// `(end_to_end, per_layer)` metric names listed in `BENCHMARK.json`.
fn listed_names() -> (Vec<String>, Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let body = &text[start..start + text[start..].find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect()
    };
    (section("end_to_end"), section("per_layer"))
}

#[test]
fn every_metric_is_emitted_for_every_workload_with_no_failures() {
    let (end_to_end, layers) = listed_names();
    let ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(end_to_end, ours, "BENCHMARK.json end_to_end");
    let ours: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(layers, ours, "BENCHMARK.json per_layer");
    for workload in WORKLOADS {
        let timed = run(workload, 1, false);
        assert_eq!(timed.names, end_to_end, "{workload}");
        assert!(timed.attempted > 0);
        assert_eq!(
            timed.get("success_rate"),
            1.0,
            "{workload}: fail rate is not 0"
        );
        for name in &end_to_end {
            assert!(timed.get(name) > 0.0, "{workload}: {name} is 0");
        }
        let traced = run(workload, 1, true);
        assert_eq!(traced.names, layers, "{workload}");
        // Every span a workload records lands in a metric: only the
        // executions it does not run read 0.
        let runs_here = |name: &str| match workload {
            "ldask_spill" => !name.starts_with("interp.run_ms.") || name.ends_with(".zip"),
            _ => !name.starts_with("core."),
        };
        for name in layers.iter().filter(|n| n.contains("_ms") && runs_here(n)) {
            assert!(traced.get(name) > 0.0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn spill_counters_move_only_out_of_core() {
    for workload in WORKLOADS {
        let traced = run(workload, 1, true);
        for c in ["events", "spilled_mb", "restored_mb", "files"] {
            let v = traced.get(&format!("columnar.spill.{c}"));
            assert_eq!(
                v > 0.0,
                workload == "ldask_spill",
                "{workload}: spill {c} = {v}"
            );
        }
    }
}

#[test]
fn fusion_counters_move_on_every_workload() {
    for workload in WORKLOADS {
        let traced = run(workload, 1, true);
        for c in ["fused_chains", "fused_morsels", "fused_rows_in"] {
            let v = traced.get(&format!("backends.dask.{c}"));
            assert!(v > 0.0, "{workload}: {c} = {v}");
        }
    }
}

#[test]
fn the_same_seed_repeats_inputs_and_counts() {
    let a = generate(&scratch("gen-a"), 7, 1000).unwrap();
    let b = generate(&scratch("gen-b"), 7, 1000).unwrap();
    assert_eq!(a, b);
    for f in &a {
        let bytes = |dir: &str| std::fs::read(scratch(dir).join(&f.file)).unwrap();
        assert_eq!(bytes("gen-a"), bytes("gen-b"), "{}", f.file);
    }
    let counted = |name: &str| {
        !name.ends_with("_ms")
            && [
                "rewrite.",
                "backends.dask.fused",
                "backends.dask.intermediate",
                "columnar.spill.",
                "columnar.encoding.",
            ]
            .iter()
            .any(|p| name.starts_with(p))
    };
    for workload in ["ldask_programs", "ldask_spill"] {
        let first = run(workload, 1, true);
        let again = invoke(workload, 1, true);
        assert!(first.metrics.keys().any(|k| counted(k)));
        for (name, value) in first.metrics.iter().filter(|(k, _)| counted(k)) {
            assert_eq!(
                *value,
                again.get(name),
                "{workload}: {name} differs between runs of one seed"
            );
        }
    }
}

#[test]
fn another_seed_gives_other_inputs_that_still_check() {
    let a = generate(&scratch("seed-a"), 1, 1000).unwrap();
    let b = generate(&scratch("seed-b"), 2, 1000).unwrap();
    assert_eq!(a, b, "row counts depend on the scale only");
    let differing = a
        .iter()
        .filter(|f| {
            std::fs::read(scratch("seed-a").join(&f.file)).unwrap()
                != std::fs::read(scratch("seed-b").join(&f.file)).unwrap()
        })
        .count();
    // Only the fixed country lookup draws nothing from the seed.
    assert_eq!(
        differing,
        a.len() - 1,
        "every drawn file changes with the seed"
    );
    for workload in WORKLOADS {
        let outcome = run(workload, 2, false);
        assert_eq!(outcome.get("success_rate"), 1.0, "{workload}");
    }
}
