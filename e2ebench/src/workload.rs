//! The workloads, their executions, set-up and one timed pass.

use crate::check;
use crate::datagen::{self, Generated};
use crate::procfs;
use crate::trace::Tracer;
use lafp_backends::BackendKind;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, ColumnarError, Result};
use lafp_core::optimizer::OptimizerFlags;
use lafp_core::{LaFP, LafpConfig};
use lafp_interp::{ExecMode, Interp};
use lafp_rewrite::{analyze, RewriteOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bytes in a MiB, the unit of every memory metric.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ten programs, JIT-rewritten with metadata, on the Dask backend.
    LdaskPrograms,
    /// Lazy sort queries and `zip` on the Dask backend under a budget
    /// smaller than the inputs, so blocking buffers spill.
    LdaskSpill,
}

/// A lazy-API query of the out-of-core workload: `dso.csv` sorted by
/// `v1` descending, then finished one of three ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `.head(20)`: an external sort merged only as far as needed.
    SortHead,
    /// `len(...)` of the sorted frame.
    SortLen,
    /// `.groupby(['category'])['v5'].sum()` over the sorted stream.
    SortGroupBy,
}

impl Query {
    /// The query's name in metrics and references.
    pub fn name(self) -> &'static str {
        match self {
            Query::SortHead => "sort_head",
            Query::SortLen => "sort_len",
            Query::SortGroupBy => "sort_groupby",
        }
    }
}

/// The queries of `ldask_spill`, in run order.
pub const QUERIES: [Query; 3] = [Query::SortHead, Query::SortLen, Query::SortGroupBy];

/// Programs that run in `ldask_spill`. `emp` (plot of the full frame),
/// `mov` and `stu` (persisted merges and frames) run out of memory under
/// a small budget by design, so they stay out.
const SPILL_PROGRAMS: [&str; 1] = ["zip"];

/// What one execution runs.
#[derive(Debug, Clone)]
pub enum What {
    /// A §5.1 PandaScript program (its source).
    Program(&'static str),
    /// A lazy-API query.
    Query(Query),
}

/// One execution of a pass: a program or a query, checked against its
/// reference output.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Program or query name.
    pub name: &'static str,
    /// What it runs.
    pub what: What,
}

impl Exec {
    fn program(name: &'static str) -> Exec {
        let program = lafp_bench::programs::program(name).expect("known program");
        Exec {
            name: program.name,
            what: What::Program(program.source),
        }
    }

    /// Files this execution reads (relative to the data directory).
    pub fn inputs(&self) -> Vec<String> {
        match &self.what {
            What::Program(source) => source
                .split("read_csv('")
                .skip(1)
                .filter_map(|rest| rest.split('\'').next())
                .map(str::to_string)
                .collect(),
            What::Query(_) => vec!["dso.csv".to_string()],
        }
    }
}

/// Set-up and execution settings shared by every pass of a run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Base row count of the generated inputs.
    pub base_rows: usize,
    /// Worker threads (`LafpConfig::threads`; the Dask engine's pool
    /// reads the pinned `LAFP_THREADS`).
    pub threads: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::LdaskPrograms, Workload::LdaskSpill];

    /// Look a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LdaskPrograms => "ldask_programs",
            Workload::LdaskSpill => "ldask_spill",
        }
    }

    /// The executions of one pass, in order.
    pub fn executions(self) -> Vec<Exec> {
        match self {
            Workload::LdaskPrograms => lafp_bench::programs::PROGRAM_NAMES
                .iter()
                .map(|name| Exec::program(name))
                .collect(),
            Workload::LdaskSpill => QUERIES
                .iter()
                .map(|&q| Exec {
                    name: q.name(),
                    what: What::Query(q),
                })
                .chain(SPILL_PROGRAMS.iter().map(|name| Exec::program(name)))
                .collect(),
        }
    }

    /// Simulated memory budget in bytes: unlimited, except for the
    /// out-of-core workload, whose budget is about a third of the
    /// `dso.csv` frame (~82 bytes a row), so the sort buffer cannot stay
    /// resident.
    pub fn budget(self, base_rows: usize) -> usize {
        match self {
            Workload::LdaskSpill => base_rows.max(1) * 28,
            _ => usize::MAX,
        }
    }

    /// Dask partition size in rows (0 = the engine default). The
    /// out-of-core workload scans in smaller partitions so that several
    /// fit in its budget.
    pub fn chunk_rows(self) -> usize {
        match self {
            Workload::LdaskSpill => 2048,
            _ => 0,
        }
    }
}

/// How an execution is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The reference: plain Pandas for programs (no rewrite), no memory
    /// limit for queries.
    Reference,
    /// The workload's own configuration.
    Measured(Workload),
}

/// The outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The printed output, or the error.
    pub output: std::result::Result<Vec<String>, String>,
    /// Peak simulated memory of the execution (bytes).
    pub peak_bytes: usize,
    /// Process CPU seconds spent in the execution layer call.
    pub run_cpu_s: f64,
    /// Rewrite counts `(usecols, forced computes, categories)` of the JIT.
    pub rewrites: (usize, usize, usize),
}

fn run_exec(
    exec: &Exec,
    role: Role,
    dir: &Path,
    settings: Settings,
    tracer: &Tracer,
) -> ExecOutcome {
    let mut out = ExecOutcome {
        output: Err(String::new()),
        peak_bytes: 0,
        run_cpu_s: 0.0,
        rewrites: (0, 0, 0),
    };
    // The reference configuration of a query, and the Dask backend of every
    // measured run; a measured run swaps in its workload's budget and
    // partition size.
    let mut config = LafpConfig {
        backend: BackendKind::Dask,
        memory_budget: usize::MAX,
        threads: settings.threads,
        chunk_rows: 0,
        optimizer: OptimizerFlags::default(),
        use_metadata: false,
        print_rows: 5,
    };
    if let Role::Measured(w) = role {
        config.memory_budget = w.budget(settings.base_rows);
        config.chunk_rows = w.chunk_rows();
    }
    let cpu_before = procfs::cpu_seconds();
    out.output = match &exec.what {
        What::Query(query) => tracer.span(&format!("core.run#{}", exec.name), || {
            let pd = LaFP::with_config(config);
            let result = run_query(&pd, *query, dir);
            out.peak_bytes = pd.peak_memory();
            result.map_err(|e| e.to_string())
        }),
        What::Program(source) => {
            let ast = if role == Role::Reference {
                tracer.span("ir.parse", || lafp_ir::parser::parse(source))
            } else {
                if tracer.enabled() {
                    // JIT probe: the parse alone (analyze parses again).
                    let _ = tracer.span("ir.parse", || lafp_ir::parser::parse(source));
                }
                let options = RewriteOptions {
                    column_selection: true,
                    lazy_print: true,
                    forced_compute: true,
                    metadata_dtypes: true,
                    data_dir: Some(dir.to_path_buf()),
                };
                tracer
                    .span("rewrite.analyze", || analyze(source, &options))
                    .map(|analyzed| {
                        let r = &analyzed.report;
                        out.rewrites =
                            (r.usecols.len(), r.forced_computes.len(), r.categories.len());
                        analyzed.ast
                    })
            };
            match ast {
                Err(e) => Err(e.to_string()),
                Ok(ast) => {
                    let (mode, config) = match role {
                        Role::Reference => (
                            ExecMode::Eager(BackendKind::Pandas),
                            LafpConfig {
                                backend: BackendKind::Pandas,
                                threads: 1,
                                ..config
                            },
                        ),
                        Role::Measured(_) => (
                            ExecMode::Lafp,
                            LafpConfig {
                                use_metadata: true,
                                ..config
                            },
                        ),
                    };
                    tracer.span(&format!("interp.run#{}", exec.name), || {
                        let mut interp = Interp::new(mode, config, dir.to_path_buf());
                        let result = interp.run(&ast);
                        out.peak_bytes = interp.tracker().peak();
                        result
                            .map(|outcome| outcome.output)
                            .map_err(|e| e.to_string())
                    })
                }
            }
        }
    };
    out.run_cpu_s = procfs::cpu_seconds() - cpu_before;
    out
}

fn run_query(pd: &LaFP, query: Query, dir: &Path) -> Result<Vec<String>> {
    let sorted = pd
        .read_csv(&dir.join("dso.csv"))
        .sort_values(SortOptions::single("v1", false));
    let rendered = match query {
        Query::SortHead => sorted.head(20).compute(&[])?.to_display_string(usize::MAX),
        Query::SortLen => sorted.len().compute(&[])?.to_string(),
        Query::SortGroupBy => sorted
            .groupby_agg(vec!["category".to_string()], "v5", AggKind::Sum)
            .compute(&[])?
            .to_display_string(usize::MAX),
    };
    Ok(vec![rendered])
}

/// What set-up leaves in the data directory: the inputs and the
/// reference output of every execution.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Generated files with their row counts.
    pub files: Vec<Generated>,
    /// Reference output (the printed entries) per execution name.
    pub references: BTreeMap<String, Vec<String>>,
}

const MANIFEST: &str = "manifest.txt";

/// Set a workload up in `dir`: generate the inputs from `seed`, write
/// the metadata sidecars, record the reference outputs, and save the
/// manifest that [`Prepared::load`] reads back.
pub fn setup(dir: &Path, workload: Workload, seed: u64, settings: Settings) -> Result<Prepared> {
    let files = datagen::generate(dir, seed, settings.base_rows)?;
    for f in &files {
        lafp_meta::scan::compute_and_store(&dir.join(&f.file))?;
    }
    let quiet = Tracer::new(false);
    let mut references = BTreeMap::new();
    for exec in workload.executions() {
        let outcome = run_exec(&exec, Role::Reference, dir, settings, &quiet);
        let output = outcome.output.map_err(|e| {
            ColumnarError::InvalidArgument(format!("reference run of {} failed: {e}", exec.name))
        })?;
        references.insert(exec.name.to_string(), output);
    }
    let prepared = Prepared { files, references };
    let mut text = String::new();
    for f in &prepared.files {
        text.push_str(&format!("file {} {}\n", f.file, f.rows));
    }
    for (name, output) in &prepared.references {
        text.push_str(&format!("ref {name}\n"));
        for entry in output {
            text.push_str(&format!("out {name} {}\n", escape(entry)));
        }
    }
    std::fs::write(dir.join(MANIFEST), text)?;
    Ok(prepared)
}

impl Prepared {
    /// Read the manifest [`setup`] wrote into `dir`.
    pub fn load(dir: &Path) -> Result<Prepared> {
        let text = std::fs::read_to_string(dir.join(MANIFEST))?;
        let mut prepared = Prepared {
            files: Vec::new(),
            references: BTreeMap::new(),
        };
        for line in text.lines() {
            let bad = || ColumnarError::InvalidArgument(format!("bad manifest line {line:?}"));
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("file"), Some(file), Some(rows)) => prepared.files.push(Generated {
                    file: file.to_string(),
                    rows: rows.parse().map_err(|_| bad())?,
                }),
                (Some("ref"), Some(name), None) => {
                    prepared.references.insert(name.to_string(), Vec::new());
                }
                (Some("out"), Some(name), Some(entry)) => prepared
                    .references
                    .get_mut(name)
                    .ok_or_else(bad)?
                    .push(unescape(entry).ok_or_else(bad)?),
                _ => return Err(bad()),
            }
        }
        Ok(prepared)
    }

    /// `None` when `other` was set up the same: the same files, and
    /// reference outputs that match (see [`check::diff`]). Otherwise the
    /// first difference.
    pub fn disagreement(&self, other: &Prepared) -> Option<String> {
        if self.files != other.files {
            return Some("generated files differ".to_string());
        }
        if !self.references.keys().eq(other.references.keys()) {
            return Some("reference names differ".to_string());
        }
        self.references.iter().find_map(|(name, output)| {
            check::diff(&other.references[name], output).map(|d| format!("{name}: {d}"))
        })
    }

    /// Rows of one generated file (0 if unknown).
    pub fn rows(&self, file: &str) -> usize {
        self.files
            .iter()
            .find(|f| f.file == file)
            .map_or(0, |f| f.rows)
    }
}

/// One manifest line holding `text`: backslashes and line breaks escaped.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// The inverse of [`escape`]; `None` on a malformed escape.
fn unescape(line: &str) -> Option<String> {
    let mut text = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            text.push(c);
            continue;
        }
        text.push(match chars.next()? {
            '\\' => '\\',
            'n' => '\n',
            'r' => '\r',
            _ => return None,
        });
    }
    Some(text)
}

/// Process-global counters, read before and after a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Fused chains planned.
    pub fused_chains: u64,
    /// Morsels through fused chains.
    pub fused_morsels: u64,
    /// Rows into fused chains.
    pub fused_rows_in: u64,
    /// Frames materialized by the unfused row-local path.
    pub intermediate_frames: u64,
    /// Partition evictions to spill files.
    pub spill_events: u64,
    /// Bytes evicted.
    pub spilled_bytes: u64,
    /// Bytes restored from spill files.
    pub restored_bytes: u64,
    /// Spill files created.
    pub spill_files: u64,
    /// Dictionary-encoded columns.
    pub dict_columns: u64,
    /// Run-length-encoded columns.
    pub rle_columns: u64,
    /// Kernel decodes of encoded columns.
    pub decode_fallbacks: u64,
    /// Heap bytes saved by encodings.
    pub bytes_saved: u64,
    /// Spill operations that succeeded on retry.
    pub retries_recovered: u64,
    /// Panics converted into errors.
    pub panics_isolated: u64,
}

impl Counters {
    /// Read the counters now.
    pub fn now() -> Counters {
        let fusion = lafp_meta::fusion::global().snapshot();
        let spill = lafp_meta::spill::global().snapshot();
        let encoding = lafp_meta::encoding::snapshot();
        let faults = lafp_meta::faults::stats().snapshot();
        Counters {
            fused_chains: fusion.chains,
            fused_morsels: fusion.fused_morsels,
            fused_rows_in: fusion.fused_rows_in,
            intermediate_frames: fusion.intermediate_frames,
            spill_events: spill.events,
            spilled_bytes: spill.spilled_bytes,
            restored_bytes: spill.restored_bytes,
            spill_files: spill.files,
            dict_columns: encoding.dict_columns,
            rle_columns: encoding.rle_columns,
            decode_fallbacks: encoding.decode_fallbacks,
            bytes_saved: encoding.bytes_saved,
            retries_recovered: faults.retries_recovered,
            panics_isolated: faults.panics_isolated,
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            fused_chains: d(self.fused_chains, before.fused_chains),
            fused_morsels: d(self.fused_morsels, before.fused_morsels),
            fused_rows_in: d(self.fused_rows_in, before.fused_rows_in),
            intermediate_frames: d(self.intermediate_frames, before.intermediate_frames),
            spill_events: d(self.spill_events, before.spill_events),
            spilled_bytes: d(self.spilled_bytes, before.spilled_bytes),
            restored_bytes: d(self.restored_bytes, before.restored_bytes),
            spill_files: d(self.spill_files, before.spill_files),
            dict_columns: d(self.dict_columns, before.dict_columns),
            rle_columns: d(self.rle_columns, before.rle_columns),
            decode_fallbacks: d(self.decode_fallbacks, before.decode_fallbacks),
            bytes_saved: d(self.bytes_saved, before.bytes_saved),
            retries_recovered: d(self.retries_recovered, before.retries_recovered),
            panics_isolated: d(self.panics_isolated, before.panics_isolated),
        }
    }
}

/// One execution inside a pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Execution name.
    pub name: &'static str,
    /// Wall time of the execution (JIT included), ms.
    pub ms: f64,
    /// `None` when the output matched its reference; else why not.
    pub error: Option<String>,
    /// The execution's outcome.
    pub outcome: ExecOutcome,
}

/// One pass over a workload's executions.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Process CPU seconds over the pass.
    pub cpu_s: f64,
    /// Input CSV rows the pass's executions read.
    pub rows_read: usize,
    /// Every execution, in order.
    pub samples: Vec<Sample>,
    /// Counter deltas over the pass.
    pub counters: Counters,
}

impl Pass {
    /// The highest simulated-memory peak of any execution, in MiB.
    pub fn peak_mb(&self) -> f64 {
        let peak = self.samples.iter().map(|s| s.outcome.peak_bytes).max();
        peak.unwrap_or(0) as f64 / MIB
    }
}

/// A workload prepared in a data directory, ready to run passes.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Where the inputs are.
    pub dir: PathBuf,
    /// Set-up and execution settings.
    pub settings: Settings,
    /// Inputs and references.
    pub prepared: Prepared,
    execs: Vec<Exec>,
    /// Input rows of the pass: every row of every file an execution reads.
    rows_read: usize,
}

impl Bench {
    /// A bench over a directory [`setup`] has prepared.
    pub fn new(workload: Workload, dir: PathBuf, settings: Settings, prepared: Prepared) -> Bench {
        let execs = workload.executions();
        let rows_read = execs
            .iter()
            .flat_map(Exec::inputs)
            .map(|f| prepared.rows(&f))
            .sum();
        Bench {
            workload,
            dir,
            settings,
            prepared,
            execs,
            rows_read,
        }
    }

    /// Run every execution once and check each output.
    pub fn pass(&self, tracer: &Tracer) -> Pass {
        let before = Counters::now();
        let cpu_before = procfs::cpu_seconds();
        let started = Instant::now();
        let samples = tracer.span("pass", || {
            self.execs
                .iter()
                .enumerate()
                .map(|(i, exec)| {
                    tracer.set_run(i as u64 + 1);
                    let t0 = Instant::now();
                    let (outcome, error) = tracer.span(&format!("exec#{}", exec.name), || {
                        let outcome = run_exec(
                            exec,
                            Role::Measured(self.workload),
                            &self.dir,
                            self.settings,
                            tracer,
                        );
                        let error = self.check(exec, &outcome);
                        (outcome, error)
                    });
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    tracer.set_run(0);
                    Sample {
                        name: exec.name,
                        ms,
                        error,
                        outcome,
                    }
                })
                .collect()
        });
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: procfs::cpu_seconds() - cpu_before,
            rows_read: self.rows_read,
            samples,
            counters: Counters::now().since(&before),
        }
    }

    fn check(&self, exec: &Exec, outcome: &ExecOutcome) -> Option<String> {
        match (&outcome.output, self.prepared.references.get(exec.name)) {
            (Err(e), _) => Some(e.clone()),
            (Ok(_), None) => Some("no reference output".to_string()),
            (Ok(got), Some(want)) => check::diff(got, want),
        }
    }
}
