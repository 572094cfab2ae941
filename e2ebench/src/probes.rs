//! Layer probes of the traced run: direct calls into `meta`, the two
//! backends and the CSV layer on the workload's own inputs, each inside
//! a span named after the layer it measures.

use crate::trace::Tracer;
use crate::workload::Bench;
use lafp_backends::{BackendKind, DaskEngine, DaskOp, EagerEngine, MemoryTracker};
use lafp_columnar::csv::{read_csv, read_csv_par, CsvChunkReader, CsvOptions};
use lafp_columnar::groupby::GroupBySpec;
use lafp_columnar::join::JoinKind;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, ColumnarError, DataFrame, Result, Scalar, WorkerPool};
use lafp_rewrite::{analyze, RewriteOptions};

/// Partition size of the Dask engine's CSV scans (its default).
const ENGINE_CHUNK_ROWS: usize = 8192;

/// Workers of the parallel-kernel probes: the pinned count, but at least
/// two, so that the probes take the parallel path on every host.
fn parallel_threads(bench: &Bench) -> usize {
    bench.settings.threads.max(2)
}

/// Run every probe once. Errors (a failed call or an output that does
/// not have the expected shape) are returned, one message per probe.
pub fn run_all(bench: &Bench, tracer: &Tracer) -> Vec<String> {
    [
        ("meta", meta_scan(bench, tracer)),
        ("dask", dask(bench, tracer)),
        ("eager", eager(bench, tracer)),
        ("csv", csv(bench, tracer)),
    ]
    .into_iter()
    .filter_map(|(name, result)| result.err().map(|e| format!("{name} probe: {e}")))
    .collect()
}

fn expect(what: &str, got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(ColumnarError::InvalidArgument(format!(
            "{what}: {got} rows, expected {want}"
        )))
    }
}

/// `compute_and_store` per input CSV (the metastore's background scan).
fn meta_scan(bench: &Bench, tracer: &Tracer) -> Result<()> {
    for f in &bench.prepared.files {
        tracer.span("meta.scan", || {
            lafp_meta::scan::compute_and_store(&bench.dir.join(&f.file))
        })?;
    }
    Ok(())
}

/// `DaskEngine` graphs: scan + gather, sort + head (under the workload's
/// budget), merge + len, and a streaming group-by.
fn dask(bench: &Bench, tracer: &Tracer) -> Result<()> {
    let path = |f: &str| bench.dir.join(f);
    let scan = |engine: &mut DaskEngine, file: &str| {
        engine.add(
            DaskOp::ReadCsv {
                path: path(file),
                options: CsvOptions::new(),
                limit: None,
            },
            vec![],
        )
    };
    let unlimited = || DaskEngine::new(MemoryTracker::unlimited(), ENGINE_CHUNK_ROWS);

    let mut engine = unlimited();
    let node = scan(&mut engine, "emp.csv");
    let (frame, _held) = tracer.span("backends.dask.gather", || engine.gather(node))?;
    expect(
        "gather emp.csv",
        frame.num_rows(),
        bench.prepared.rows("emp.csv"),
    )?;
    drop(frame);

    let budget = bench.workload.budget(bench.settings.base_rows);
    let chunk_rows = match bench.workload.chunk_rows() {
        0 => ENGINE_CHUNK_ROWS,
        n => n,
    };
    let mut engine = DaskEngine::new(MemoryTracker::with_budget(budget), chunk_rows);
    let node = scan(&mut engine, "dso.csv");
    let node = engine.add(DaskOp::Sort(SortOptions::single("v1", false)), vec![node]);
    let node = engine.add(DaskOp::Head(10), vec![node]);
    let (top, _held) = tracer.span("backends.dask.sort", || engine.gather(node))?;
    expect("sort dso.csv head", top.num_rows(), 10)?;

    let mut engine = unlimited();
    let ratings = scan(&mut engine, "mov.csv");
    let titles = scan(&mut engine, "mov_titles.csv");
    let merged = engine.add(
        DaskOp::Merge {
            on: vec!["movie_id".to_string()],
            how: JoinKind::Inner,
        },
        vec![ratings, titles],
    );
    let count = engine.add(DaskOp::Len, vec![merged]);
    let (rows, _held) = tracer.span("backends.dask.merge", || engine.compute(count))?;
    // Every rating's movie id has a title, so the inner join keeps all.
    expect(
        "merge mov.csv",
        scalar_rows(rows.into_scalar()?),
        bench.prepared.rows("mov.csv"),
    )?;

    let mut engine = unlimited();
    let node = scan(&mut engine, "stu.csv");
    let node = engine.add(DaskOp::GroupByAgg(school_math_mean()), vec![node]);
    let (groups, _held) = tracer.span("backends.dask.groupby", || engine.gather(node))?;
    expect("groupby stu.csv", groups.num_rows(), 12)?;
    Ok(())
}

fn scalar_rows(value: Scalar) -> usize {
    match value {
        Scalar::Int(n) => n as usize,
        _ => usize::MAX,
    }
}

fn school_math_mean() -> GroupBySpec {
    GroupBySpec {
        keys: vec!["school".to_string()],
        value: "math".to_string(),
        agg: AggKind::Mean,
    }
}

/// `EagerEngine` (Modin kind) kernels at one thread and at
/// [`parallel_threads`].
fn eager(bench: &Bench, tracer: &Tracer) -> Result<()> {
    let path = |f: &str| bench.dir.join(f);
    let titles = read_csv(&path("mov_titles.csv"), &CsvOptions::new())?;
    let dso = read_csv(&path("dso.csv"), &CsvOptions::new())?;
    let by_movie = GroupBySpec {
        keys: vec!["movie_id".to_string()],
        value: "rating".to_string(),
        agg: AggKind::Mean,
    };
    let ratings_rows = bench.prepared.rows("mov.csv");
    for (label, threads) in [("t1", 1), ("tn", parallel_threads(bench))] {
        let engine = EagerEngine::new(BackendKind::Modin, MemoryTracker::unlimited(), threads);
        let span = |op: &str| format!("backends.eager.{op}#{label}");
        let ratings = tracer.span(&span("read_csv"), || {
            engine.read_csv(&path("mov.csv"), &CsvOptions::new())
        })?;
        expect("eager read_csv mov.csv", ratings.num_rows(), ratings_rows)?;
        let groups = tracer.span(&span("group_by"), || engine.group_by(&ratings, &by_movie))?;
        expect(
            "eager group_by",
            groups.num_rows(),
            bench.prepared.rows("mov_titles.csv"),
        )?;
        let merged = tracer.span(&span("merge"), || {
            engine.merge(
                &ratings,
                &titles,
                &["movie_id".to_string()],
                JoinKind::Inner,
            )
        })?;
        expect("eager merge", merged.num_rows(), ratings_rows)?;
        let sorted = tracer.span(&span("sort_values"), || {
            engine.sort_values(&dso, &SortOptions::single("v1", false))
        })?;
        expect("eager sort_values", sorted.num_rows(), dso.num_rows())?;
    }
    Ok(())
}

/// The CSV layer on `nyt.csv` with the columns the JIT keeps for `nyt`.
fn csv(bench: &Bench, tracer: &Tracer) -> Result<()> {
    let program = lafp_bench::programs::program("nyt").expect("known program");
    let analyzed = analyze(program.source, &RewriteOptions::default())
        .map_err(|e| ColumnarError::InvalidArgument(e.to_string()))?;
    let usecols = analyzed
        .report
        .usecols
        .first()
        .map(|(_, cols)| cols.clone())
        .ok_or_else(|| ColumnarError::InvalidArgument("nyt got no usecols".to_string()))?;
    let options = CsvOptions::new().with_usecols(usecols);
    let path = bench.dir.join("nyt.csv");
    let rows = bench.prepared.rows("nyt.csv");

    let frame = tracer.span("columnar.csv.read", || read_csv(&path, &options))?;
    expect("read_csv nyt.csv", frame.num_rows(), rows)?;
    let pool = WorkerPool::new(parallel_threads(bench));
    let par = tracer.span("columnar.csv.read_par", || {
        read_csv_par(&path, &options, &pool)
    })?;
    expect("read_csv_par nyt.csv", par.num_rows(), rows)?;
    let scanned = tracer.span("columnar.csv.chunk_scan", || -> Result<usize> {
        let mut reader = CsvChunkReader::open(&path, &options, ENGINE_CHUNK_ROWS)?;
        let mut n = 0;
        while let Some(chunk) = reader.next_chunk()? {
            n += std::hint::black_box(&chunk as &DataFrame).num_rows();
        }
        Ok(n)
    })?;
    expect("chunk scan nyt.csv", scanned, rows)
}
