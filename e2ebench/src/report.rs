//! Measuring a prepared workload and rendering the result line.

use crate::probes;
use crate::procfs;
use crate::trace::Tracer;
use crate::workload::{Bench, Counters, Pass, MIB, QUERIES};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Timed passes never stop before this many, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Traced passes, and repetitions of each layer probe, in a traced run.
const TRACE_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every execution matched its reference and every probe passed.
    pub correct: bool,
    /// Executions and probe rounds attempted.
    pub attempted: usize,
    /// Those that failed, ran out of memory or mismatched.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, threads, first errors.
    pub notes: Vec<String>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "1/s"),
    ("program_p50_ms", "ms"),
    ("program_max_ms", "ms"),
    ("peak_mem_mb", "MiB"),
    ("rss_peak_mb", "MiB"),
    ("success_rate", "ratio"),
];

const EAGER_OPS: [&str; 4] = ["read_csv", "group_by", "merge", "sort_values"];

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("ir.parse_ms", "ms");
    add("rewrite.analyze_ms", "ms");
    add("rewrite.usecols", "count");
    add("rewrite.forced_computes", "count");
    add("rewrite.categories", "count");
    add("meta.scan_ms", "ms");
    add("interp.run_ms", "ms");
    add("interp.run_cpu_ms", "ms");
    for name in lafp_bench::programs::PROGRAM_NAMES {
        add(&format!("interp.run_ms.{name}"), "ms");
    }
    add("core.run_ms", "ms");
    for q in QUERIES {
        add(&format!("core.run_ms.{}", q.name()), "ms");
    }
    add("backends.memory.peak_mb", "MiB");
    for c in [
        "fused_chains",
        "fused_morsels",
        "fused_rows_in",
        "intermediate_frames",
    ] {
        add(&format!("backends.dask.{c}"), "count");
    }
    for op in ["gather", "sort", "merge", "groupby"] {
        add(&format!("backends.dask.{op}_ms"), "ms");
    }
    for op in EAGER_OPS {
        add(&format!("backends.eager.{op}_ms.t1"), "ms");
        add(&format!("backends.eager.{op}_ms.tn"), "ms");
    }
    add("backends.eager.par_speedup", "ratio");
    add("columnar.csv.read_ms", "ms");
    add("columnar.csv.read_par_ms", "ms");
    add("columnar.csv.chunk_scan_ms", "ms");
    add("columnar.spill.events", "count");
    add("columnar.spill.spilled_mb", "MiB");
    add("columnar.spill.restored_mb", "MiB");
    add("columnar.spill.files", "count");
    add("columnar.encoding.dict_columns", "count");
    add("columnar.encoding.rle_columns", "count");
    add("columnar.encoding.decode_fallbacks", "count");
    add("columnar.encoding.bytes_saved_mb", "MiB");
    add("columnar.faults.retries_recovered", "count");
    add("columnar.faults.panics_isolated", "count");
    add("trace.overhead_pct", "%");
    add("run.threads", "count");
    out
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Tallies executions across every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        for s in &pass.samples {
            self.attempted += 1;
            if let Some(e) = &s.error {
                self.failed += 1;
                self.errors.push(format!("{}: {e}", s.name));
            }
        }
    }
}

/// Measure `bench` for `seconds`: one warm-up pass, then timed passes.
/// With `trace`, follow with traced passes and the layer probes, write
/// the spans to `trace_out`, and report per-layer metrics instead of
/// end-to-end ones.
pub fn measure(bench: &Bench, seconds: f64, setup_s: f64, trace: bool, trace_out: &Path) -> Report {
    let quiet = Tracer::new(false);
    let mut tally = Tally::default();
    tally.add(&bench.pass(&quiet));
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let pass = bench.pass(&quiet);
        tally.add(&pass);
        passes.push(pass);
    }
    let rss_peak_mb = procfs::rss_peak_mb();
    let wall_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let samples: usize = passes.iter().map(|p| p.samples.len()).sum();
    let mut notes = vec![format!(
        "workload={} base_rows={} threads={} (LAFP_THREADS) passes={} executions={samples}",
        bench.workload.name(),
        bench.settings.base_rows,
        bench.settings.threads,
        passes.len(),
    )];

    let metrics = if trace {
        let (metrics, probe_failures) = traced(bench, wall_s, &mut tally, &mut notes, trace_out);
        tally.attempted += TRACE_REPS;
        tally.failed += probe_failures;
        metrics
    } else {
        end_to_end(&passes, setup_s, rss_peak_mb, &tally)
    };
    notes.extend(tally.errors.iter().take(5).map(|e| format!("error: {e}")));
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

fn end_to_end(passes: &[Pass], setup_s: f64, rss_peak_mb: f64, tally: &Tally) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Each execution's median time over the passes; the typical and the
    // slowest execution are read off these, so that they name a stable
    // program rather than whichever sample landed in the middle.
    let mut by_exec: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flat_map(|p| &p.samples) {
        by_exec.entry(s.name).or_default().push(s.ms);
    }
    let exec_ms: Vec<f64> = by_exec.values().map(|v| median(v)).collect();
    let values = [
        setup_s,
        per_pass(&|p| p.wall_s),
        // A mean: CPU time comes in 10 ms ticks, so a median would be a
        // whole number of ticks and read the same on most runs.
        passes.iter().map(|p| p.cpu_s).sum::<f64>() / passes.len().max(1) as f64,
        per_pass(&|p| p.rows_read as f64 / p.wall_s),
        median(&exec_ms),
        exec_ms.iter().copied().fold(0.0, f64::max),
        per_pass(&Pass::peak_mb),
        rss_peak_mb,
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

/// Median, per name, of the values each repetition produced.
fn median_by_name(reps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, v) in rep {
            all.entry(name.clone()).or_default().push(*v);
        }
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Span `a.b#label` reports as metric `a.b_ms.label`; `a.b` as `a.b_ms`.
fn span_metric(span: &str) -> String {
    match span.split_once('#') {
        Some((stem, label)) => format!("{stem}_ms.{label}"),
        None => format!("{span}_ms"),
    }
}

fn traced(
    bench: &Bench,
    untraced_wall_s: f64,
    tally: &mut Tally,
    notes: &mut Vec<String>,
    trace_out: &Path,
) -> (Vec<Metric>, usize) {
    let tracer = Tracer::new(true);
    let mut pass_reps = Vec::new();
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..TRACE_REPS {
        let mark = tracer.mark();
        let pass = bench.pass(&tracer);
        tally.add(&pass);
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        for (span, ms) in tracer.self_ms_since(mark) {
            let metric = span_metric(&span);
            if let Some((total, _)) = metric.split_once("_ms.") {
                *values.entry(format!("{total}_ms")).or_insert(0.0) += ms;
            }
            values.insert(metric, ms);
        }
        let cpu_s: f64 = pass.samples.iter().map(|s| s.outcome.run_cpu_s).sum();
        values.insert("interp.run_cpu_ms".to_string(), cpu_s * 1e3);
        walls.push(pass.wall_s);
        pass_reps.push(values);
        last = Some(pass);
    }
    let mut probe_reps = Vec::new();
    let mut probe_failures = 0;
    for _ in 0..TRACE_REPS {
        let mark = tracer.mark();
        let errors = probes::run_all(bench, &tracer);
        if !errors.is_empty() {
            probe_failures += 1;
            tally.errors.extend(errors);
        }
        probe_reps.push(
            tracer
                .self_ms_since(mark)
                .into_iter()
                .map(|(span, ms)| (span_metric(&span), ms))
                .collect(),
        );
    }
    if let Err(e) = tracer.write_jsonl(trace_out) {
        notes.push(format!(
            "could not write spans to {}: {e}",
            trace_out.display()
        ));
    } else {
        notes.push(format!("spans: {}", trace_out.display()));
    }

    let mut values = median_by_name(&pass_reps);
    values.extend(median_by_name(&probe_reps));
    let pass = last.expect("at least one traced pass");
    let eager_sum = |label: &str| -> f64 {
        EAGER_OPS
            .iter()
            .map(|op| {
                values
                    .get(&format!("backends.eager.{op}_ms.{label}"))
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum()
    };
    let speedup = eager_sum("t1") / eager_sum("tn").max(1e-9);
    let c: Counters = pass.counters;
    let (usecols, forced, categories) = pass.samples.iter().fold((0, 0, 0), |acc, s| {
        let r = s.outcome.rewrites;
        (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2)
    });
    let exact = [
        ("rewrite.usecols", usecols as f64),
        ("rewrite.forced_computes", forced as f64),
        ("rewrite.categories", categories as f64),
        ("backends.memory.peak_mb", pass.peak_mb()),
        ("backends.dask.fused_chains", c.fused_chains as f64),
        ("backends.dask.fused_morsels", c.fused_morsels as f64),
        ("backends.dask.fused_rows_in", c.fused_rows_in as f64),
        (
            "backends.dask.intermediate_frames",
            c.intermediate_frames as f64,
        ),
        ("backends.eager.par_speedup", speedup),
        ("columnar.spill.events", c.spill_events as f64),
        ("columnar.spill.spilled_mb", c.spilled_bytes as f64 / MIB),
        ("columnar.spill.restored_mb", c.restored_bytes as f64 / MIB),
        ("columnar.spill.files", c.spill_files as f64),
        ("columnar.encoding.dict_columns", c.dict_columns as f64),
        ("columnar.encoding.rle_columns", c.rle_columns as f64),
        (
            "columnar.encoding.decode_fallbacks",
            c.decode_fallbacks as f64,
        ),
        (
            "columnar.encoding.bytes_saved_mb",
            c.bytes_saved as f64 / MIB,
        ),
        (
            "columnar.faults.retries_recovered",
            c.retries_recovered as f64,
        ),
        ("columnar.faults.panics_isolated", c.panics_isolated as f64),
        (
            "trace.overhead_pct",
            (median(&walls) - untraced_wall_s) / untraced_wall_s * 100.0,
        ),
        ("run.threads", bench.settings.threads as f64),
    ];
    values.extend(exact.iter().map(|(k, v)| (k.to_string(), *v)));
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect();
    (metrics, probe_failures)
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn span_names_map_to_metric_names() {
        assert_eq!(span_metric("ir.parse"), "ir.parse_ms");
        assert_eq!(span_metric("interp.run#zip"), "interp.run_ms.zip");
        assert_eq!(
            span_metric("backends.eager.merge#t1"),
            "backends.eager.merge_ms.t1"
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
