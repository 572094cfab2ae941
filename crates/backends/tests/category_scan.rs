//! A `category` dtype override survives a partitioned Dask scan.
//!
//! Every partition's CSV chunk dictionary-encodes its `category` column
//! on its own; gathering the partitions must merge those dictionaries
//! (not rebuild the column row by row), keep the `category` dtype, and
//! never fall back to decoding. Lives in its own test binary because the
//! decode-fallback counter is process-global.

use lafp_backends::dask::{DaskEngine, DaskOp};
use lafp_backends::MemoryTracker;
use lafp_columnar::csv::CsvOptions;
use lafp_columnar::{encoding, Column, DType, Scalar};

const ROWS: usize = 3_000;
const CHUNK_ROWS: usize = 400;
const CITIES: [&str; 5] = ["Pune", "Oslo", "Lima", "Kyiv", "Doha"];

/// Row `i`'s city, or `None` (an empty CSV field) for every 11th row.
fn city(i: usize) -> Option<&'static str> {
    // Partitions past row 1200 introduce cities the first ones never saw.
    let seen = if i < 1_200 { 3 } else { CITIES.len() };
    (!i.is_multiple_of(11)).then(|| CITIES[(i / 7) % seen])
}

#[test]
fn category_override_gathers_into_one_merged_dictionary() {
    let dir = std::env::temp_dir().join(format!("lafp-category-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cities.csv");
    let mut text = String::from("city,n\n");
    for i in 0..ROWS {
        text.push_str(&format!("{},{i}\n", city(i).unwrap_or("")));
    }
    std::fs::write(&path, text).unwrap();

    encoding::reset();
    let mut engine = DaskEngine::new(MemoryTracker::unlimited(), CHUNK_ROWS);
    let scan = engine.add(
        DaskOp::ReadCsv {
            path: path.clone(),
            options: CsvOptions::new().with_dtype("city", DType::Categorical),
            limit: None,
        },
        vec![],
    );
    let (frame, _reservation) = engine.gather(scan).unwrap();
    let col = frame.column("city").unwrap().column();

    assert_eq!(col.dtype(), DType::Categorical);
    assert_eq!(col.len(), ROWS);
    for i in 0..ROWS {
        let want = city(i).map_or(Scalar::Null, |c| Scalar::Str(c.to_string()));
        assert_eq!(col.get(i), want, "row {i}");
    }
    match col {
        Column::Dict(c, _) => {
            assert!(c.category);
            assert!(
                c.dict.len() <= CITIES.len() + 1,
                "one merged dictionary (distinct values plus the interned \"\"), got {} entries",
                c.dict.len()
            );
        }
        other => panic!("expected one dictionary column, got {other:?}"),
    }
    assert_eq!(encoding::snapshot().decode_fallbacks, 0);

    std::fs::remove_dir_all(&dir).ok();
}
