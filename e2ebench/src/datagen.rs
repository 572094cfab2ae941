//! Seeded, row-scalable inputs for the ten benchmark programs.
//!
//! The schemas are those the §5.1 programs read (`lafp_bench::programs`):
//! same file names, same columns, same value domains. Unlike the
//! evaluation's fixed datasets, every file here is drawn from one
//! workload seed and a base row count, so the benchmark can vary both.
//! Row counts depend only on the base row count, never on the seed, so
//! two seeds give equally sized inputs with different values.
//!
//! The generator carries its own SplitMix64 stream, so the bytes a seed
//! produces do not depend on any other crate.

use lafp_columnar::csv::quote_field;
use lafp_columnar::value::format_datetime;
use std::fmt::{Display, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// SplitMix64: a small, fast, well-mixed deterministic stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for one file: the workload seed mixed with a per-file salt.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi` (`hi > lo`).
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform float in `lo..hi`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.float(0.0, 1.0) < p
    }

    /// One element of `items`, uniformly.
    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.int(0, items.len() as i64) as usize]
    }

    /// A 2024 timestamp rendered the way the CSV reader parses dates.
    pub fn datetime(&mut self) -> String {
        let day = self.int(0, 365);
        format_datetime(1_704_067_200 + day * 86_400 + self.int(0, 86_400))
    }
}

/// A float rendered with two decimals, as the evaluation's data is.
struct F2(f64);

impl Display for F2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// Streaming CSV writer: cells are appended to the current line.
struct CsvOut {
    out: BufWriter<File>,
    line: String,
    cells: usize,
    rows: usize,
}

impl CsvOut {
    fn create(dir: &Path, name: &str, header: &str) -> std::io::Result<CsvOut> {
        let mut out = BufWriter::new(File::create(dir.join(name))?);
        writeln!(out, "{header}")?;
        Ok(CsvOut {
            out,
            line: String::new(),
            cells: 0,
            rows: 0,
        })
    }

    /// Append a cell that never needs quoting (numbers, plain tokens).
    fn cell(&mut self, v: impl Display) -> &mut Self {
        if self.cells > 0 {
            self.line.push(',');
        }
        write!(self.line, "{v}").expect("writing to a String cannot fail");
        self.cells += 1;
        self
    }

    /// Append free text, quoted when it holds separators.
    fn text(&mut self, s: &str) -> &mut Self {
        self.cell(quote_field(s))
    }

    fn end_row(&mut self) -> std::io::Result<()> {
        writeln!(self.out, "{}", self.line)?;
        self.line.clear();
        self.cells = 0;
        self.rows += 1;
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<usize> {
        self.out.flush()?;
        Ok(self.rows)
    }
}

/// One generated file and its data-row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// File name inside the data directory.
    pub file: String,
    /// Data rows (header excluded).
    pub rows: usize,
}

/// Write every input file for `base_rows` into `dir` from `seed`.
pub fn generate(dir: &Path, seed: u64, base_rows: usize) -> std::io::Result<Vec<Generated>> {
    std::fs::create_dir_all(dir)?;
    let n = base_rows.max(1);
    let mut files = Vec::new();
    let mut push = |file: &str, rows: usize| {
        files.push(Generated {
            file: file.to_string(),
            rows,
        })
    };
    push("nyt.csv", nyt(dir, seed, n * 72 / 100)?);
    push("ais.csv", ais(dir, seed, n)?);
    let (cities, countries) = cty(dir, seed, n)?;
    push("cty.csv", cities);
    push("cty_countries.csv", countries);
    push("dso.csv", dso(dir, seed, n)?);
    push("emp.csv", emp(dir, seed, n + n / 2)?);
    push("env.csv", env(dir, seed, n + n * 15 / 100)?);
    push("fdb.csv", fdb(dir, seed, n)?);
    let (ratings, titles) = mov(dir, seed, n * 2)?;
    push("mov.csv", ratings);
    push("mov_titles.csv", titles);
    push("stu.csv", stu(dir, seed, n)?);
    push("zip.csv", zip(dir, seed, n)?);
    Ok(files)
}

fn nyt(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 101);
    let mut csv = CsvOut::create(
        dir,
        "nyt.csv",
        "vendor_id,tpep_pickup_datetime,tpep_dropoff_datetime,passenger_count,trip_distance,\
         rate_code,store_and_fwd_flag,pu_location,do_location,payment_type,fare_amount,extra,\
         mta_tax,tip_amount,tolls_amount,improvement_surcharge,total_amount,congestion_surcharge,\
         airport_fee,trip_type,ehail_fee,note",
    )?;
    for i in 0..rows {
        let fare = r.float(-5.0, 95.0);
        csv.cell(r.int(1, 3))
            .cell(r.datetime())
            .cell(r.datetime())
            .cell(r.int(1, 7))
            .cell(F2(r.float(0.1, 40.0)))
            .cell(r.int(1, 7))
            .cell(if r.chance(0.5) { "Y" } else { "N" })
            .cell(r.int(1, 266))
            .cell(r.int(1, 266))
            .cell(r.int(1, 5))
            .cell(F2(fare))
            .cell(F2(r.float(0.0, 3.0)))
            .cell(F2(0.5))
            .cell(F2(r.float(0.0, 20.0)))
            .cell(F2(r.float(0.0, 10.0)))
            .cell(F2(0.3))
            .cell(F2(fare + r.float(0.0, 30.0)))
            .cell(F2(r.float(0.0, 2.75)))
            .cell(F2(r.float(0.0, 5.0)))
            .cell(r.int(1, 3))
            .cell(F2(r.float(0.0, 1.0)))
            .cell(format_args!("trip-note-{i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn ais(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 202);
    let mut csv = CsvOut::create(
        dir,
        "ais.csv",
        "mmsi,base_datetime,lat,lon,sog,cog,heading,vessel_name,imo,call_sign,vessel_type,\
         status,length,width,draft,cargo,transceiver,remark",
    )?;
    let types = ["cargo", "tanker", "fishing", "tug", "passenger", "pleasure"];
    for i in 0..rows {
        csv.cell(r.int(200_000_000, 299_999_999))
            .cell(r.datetime())
            .cell(F2(r.float(-60.0, 60.0)))
            .cell(F2(r.float(-180.0, 180.0)))
            .cell(F2(r.float(0.0, 25.0)))
            .cell(F2(r.float(0.0, 360.0)))
            .cell(r.int(0, 360))
            .cell(format_args!("VESSEL {i}"))
            .cell(r.int(1_000_000, 9_999_999))
            .cell(format_args!("C{i}"))
            .cell(r.pick(&types))
            .cell(r.int(0, 15))
            .cell(F2(r.float(10.0, 300.0)))
            .cell(F2(r.float(3.0, 50.0)))
            .cell(F2(r.float(1.0, 20.0)))
            .cell(r.int(0, 9))
            .cell(if r.chance(0.8) { "A" } else { "B" })
            .cell(format_args!("remark-{i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn cty(dir: &Path, seed: u64, rows: usize) -> std::io::Result<(usize, usize)> {
    let mut r = Rng::new(seed, 303);
    let mut csv = CsvOut::create(
        dir,
        "cty.csv",
        "city_id,name,country_code,population,area,elevation,timezone,founded,mayor,motto",
    )?;
    const COUNTRIES: i64 = 40;
    for i in 0..rows {
        csv.cell(i)
            .cell(format_args!("City {i}"))
            .cell(format_args!("C{:02}", r.int(0, COUNTRIES)))
            .cell(r.int(1_000, 10_000_000))
            .cell(F2(r.float(5.0, 2000.0)))
            .cell(r.int(-100, 3500))
            .cell(format_args!("UTC{:+}", r.int(-11, 13)))
            .cell(r.int(900, 2000))
            .cell(format_args!("Mayor {i}"))
            .cell(format_args!("motto of city {i}"));
        csv.end_row()?;
    }
    let cities = csv.finish()?;
    let mut lookup = CsvOut::create(
        dir,
        "cty_countries.csv",
        "country_code,country_name,continent",
    )?;
    let continents = ["Africa", "Americas", "Asia", "Europe", "Oceania"];
    for i in 0..COUNTRIES as usize {
        lookup
            .cell(format_args!("C{i:02}"))
            .cell(format_args!("Country {i}"))
            .cell(continents[i % continents.len()]);
        lookup.end_row()?;
    }
    Ok((cities, lookup.finish()?))
}

fn dso(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 404);
    let mut csv = CsvOut::create(dir, "dso.csv", "id,v1,v2,v3,v4,v5,v6,category,flag,comment")?;
    let cats = ["alpha", "beta", "gamma", "delta"];
    for i in 0..rows {
        csv.cell(i)
            .cell(F2(r.float(-100.0, 100.0)))
            .cell(F2(r.float(0.0, 1.0)))
            .cell(r.int(0, 1000))
            .cell(F2(r.float(-1.0, 1.0)))
            .cell(F2(r.float(0.0, 1e6)))
            .cell(r.int(0, 10))
            .cell(r.pick(&cats))
            .cell(if r.chance(0.5) { "true" } else { "false" })
            .cell(format_args!("comment text {i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn emp(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 505);
    let mut csv = CsvOut::create(
        dir,
        "emp.csv",
        "emp_id,full_name,dept,title,salary,bonus,age,city,hire_date,manager,review,bio",
    )?;
    let depts = ["eng", "sales", "hr", "finance", "ops", "legal"];
    for i in 0..rows {
        csv.cell(i)
            .cell(format_args!("Employee Number {i}"))
            .cell(r.pick(&depts))
            .cell(format_args!("Title-{}", r.int(0, 30)))
            .cell(F2(r.float(30_000.0, 250_000.0)))
            .cell(F2(r.float(0.0, 50_000.0)))
            .cell(r.int(21, 68))
            .cell(format_args!("City{}", r.int(0, 80)))
            .cell(r.datetime())
            .cell(format_args!("Manager {}", r.int(0, 200)))
            .text(&format!(
                "review text for employee {i}: consistently meets expectations across \
                 quarters; peer feedback positive; growth plan on track ({i})"
            ))
            .text(&format!(
                "biography paragraph for employee {i}: joined from a previous role in a \
                 related industry, relocated, mentors juniors, leads the working group {i}"
            ));
        csv.end_row()?;
    }
    csv.finish()
}

fn env(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 606);
    let mut csv = CsvOut::create(
        dir,
        "env.csv",
        "station,ts,temp,humidity,pm25,pm10,no2,o3,wind,pressure,operator,notes",
    )?;
    for i in 0..rows {
        csv.cell(format_args!("ST{:03}", r.int(0, 50)))
            .cell(r.datetime())
            .cell(F2(r.float(-20.0, 45.0)))
            .cell(F2(r.float(10.0, 100.0)))
            .cell(F2(r.float(0.0, 250.0)))
            .cell(F2(r.float(0.0, 400.0)))
            .cell(F2(r.float(0.0, 200.0)))
            .cell(F2(r.float(0.0, 180.0)))
            .cell(F2(r.float(0.0, 30.0)))
            .cell(F2(r.float(950.0, 1050.0)))
            .cell(format_args!("op-{}", r.int(0, 8)))
            .cell(format_args!("maintenance note {i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn fdb(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 707);
    let mut csv = CsvOut::create(
        dir,
        "fdb.csv",
        "company,category,city,state,funding_total,rounds,founded_year,status,investors,pitch",
    )?;
    let cats = [
        "fintech",
        "biotech",
        "saas",
        "ecommerce",
        "ai",
        "hardware",
        "media",
        "energy",
    ];
    let states = ["CA", "NY", "TX", "WA", "MA", "IL", "CO", "GA"];
    let statuses = ["operating", "acquired", "closed"];
    for i in 0..rows {
        csv.cell(format_args!("Startup {i}"))
            .cell(r.pick(&cats))
            .cell(format_args!("City{}", r.int(0, 60)))
            .cell(r.pick(&states));
        // 15% nulls, for the program's fillna.
        if r.chance(0.15) {
            csv.cell("");
        } else {
            csv.cell(F2(r.float(50_000.0, 5e8)));
        }
        csv.cell(r.int(1, 8))
            .cell(r.int(1995, 2024))
            .cell(r.pick(&statuses))
            .cell(format_args!("Investor A{i}; Investor B{i}"))
            .cell(format_args!("pitch deck text for startup {i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn mov(dir: &Path, seed: u64, rows: usize) -> std::io::Result<(usize, usize)> {
    let mut r = Rng::new(seed, 808);
    const MOVIES: i64 = 500;
    let mut csv = CsvOut::create(
        dir,
        "mov.csv",
        "user_id,movie_id,rating,rated_at,device,session",
    )?;
    for i in 0..rows {
        csv.cell(r.int(0, rows as i64 / 4 + 1))
            .cell(r.int(0, MOVIES))
            .cell(F2(r.int(1, 11) as f64 / 2.0))
            .cell(r.datetime())
            .cell(if r.chance(0.6) { "mobile" } else { "web" })
            .cell(format_args!("session-{i}"));
        csv.end_row()?;
    }
    let ratings = csv.finish()?;
    let genres = ["drama", "comedy", "action", "scifi", "docu", "horror"];
    let mut movies = CsvOut::create(dir, "mov_titles.csv", "movie_id,title,genre,year")?;
    for m in 0..MOVIES {
        movies
            .cell(m)
            .cell(format_args!("Movie #{m}"))
            .cell(r.pick(&genres))
            .cell(r.int(1960, 2025));
        movies.end_row()?;
    }
    Ok((ratings, movies.finish()?))
}

fn stu(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 909);
    let mut csv = CsvOut::create(
        dir,
        "stu.csv",
        "student_id,name,grade_level,school,math,reading,science,history,attendance,city,counselor,remark",
    )?;
    for i in 0..rows {
        csv.cell(i)
            .cell(format_args!("Student Name {i}"))
            .cell(r.int(1, 13))
            .cell(format_args!("School-{:02}", r.int(0, 12)))
            .cell(F2(r.float(0.0, 100.0)))
            .cell(F2(r.float(0.0, 100.0)))
            .cell(F2(r.float(0.0, 100.0)))
            .cell(F2(r.float(0.0, 100.0)))
            .cell(F2(r.float(60.0, 100.0)))
            .cell(format_args!("Town{}", r.int(0, 30)))
            .cell(format_args!("Counselor {}", r.int(0, 40)))
            .cell(format_args!("remark about student {i}"));
        csv.end_row()?;
    }
    csv.finish()
}

fn zip(dir: &Path, seed: u64, rows: usize) -> std::io::Result<usize> {
    let mut r = Rng::new(seed, 1010);
    let mut csv = CsvOut::create(
        dir,
        "zip.csv",
        "zip,state,population,median_income,households,land_area,lat,lon,county,note",
    )?;
    for i in 0..rows {
        csv.cell(format_args!("{:05}", i % 99_999))
            .cell(format_args!("S{}", r.int(0, 50)))
            .cell(r.int(100, 100_000))
            .cell(F2(r.float(20_000.0, 180_000.0)))
            .cell(r.int(50, 40_000))
            .cell(F2(r.float(1.0, 900.0)))
            .cell(F2(r.float(25.0, 49.0)))
            .cell(F2(r.float(-125.0, -67.0)))
            .cell(format_args!("County {}", r.int(0, 300)))
            .cell(format_args!("zip note {i}"));
        csv.end_row()?;
    }
    csv.finish()
}
