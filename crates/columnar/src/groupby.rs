//! Hash group-by aggregation, including the partial-aggregate form used by
//! the out-of-core (Dask-like) backend to keep the working set small.
//!
//! Groups are keyed by a `u64` row hash (the same FNV-1a mix
//! [`Column::hash_into`] uses everywhere) over a typed key store: key
//! values live in per-column typed vectors, the hash table maps a hash to
//! the group indexes that share it, and equality is checked column-wise on
//! collision. The per-row update path never renders a key to a `String`
//! and never boxes a cell into a [`Scalar`] — both were the dominant cost
//! of the old accumulator.

use crate::bitmap::Bitmap;
use crate::column::{fnv1a, Column, ColumnBuilder, HashTable, HASH_PRIME};
use crate::dtype::DType;
use crate::error::{ColumnarError, Result};
use crate::frame::DataFrame;
use crate::series::Series;
use crate::strings::Utf8Col;
use crate::value::Scalar;
use std::collections::HashSet;

/// Aggregate functions supported by `groupby(...)[col].agg(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of the value column.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Count of non-null values.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Distinct count. (Not decomposable: the streaming form keeps a set.)
    NUnique,
}

impl AggKind {
    /// Parse the pandas method name.
    pub fn parse(name: &str) -> Option<AggKind> {
        match name {
            "sum" => Some(AggKind::Sum),
            "mean" => Some(AggKind::Mean),
            "count" | "size" => Some(AggKind::Count),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "nunique" => Some(AggKind::NUnique),
            _ => None,
        }
    }

    /// Method name as written in programs.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Mean => "mean",
            AggKind::Count => "count",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::NUnique => "nunique",
        }
    }
}

/// A group-by request: grouping keys, value column, aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySpec {
    /// Key column names.
    pub keys: Vec<String>,
    /// The aggregated value column.
    pub value: String,
    /// Which aggregate to compute.
    pub agg: AggKind,
}

// ---------------------------------------------------------------------------
// Typed value access
// ---------------------------------------------------------------------------

/// A borrowed, type-dispatched view of a value column: matched once per
/// chunk so the per-row update loop is branch-cheap and allocation-free.
enum ColView<'a> {
    I64(&'a [i64], Option<&'a Bitmap>),
    F64(&'a [f64], Option<&'a Bitmap>),
    Bool(&'a Bitmap, Option<&'a Bitmap>),
    Dt(&'a [i64], Option<&'a Bitmap>),
    Str(&'a Utf8Col, Option<&'a Bitmap>),
    Cat(&'a crate::column::DictCol, Option<&'a Bitmap>),
}

impl<'a> ColView<'a> {
    fn new(col: &'a Column) -> ColView<'a> {
        match col {
            Column::Int64(d, v) => ColView::I64(d, v.as_ref()),
            Column::Float64(d, v) => ColView::F64(d, v.as_ref()),
            Column::Bool(d, v) => ColView::Bool(d, v.as_ref()),
            Column::Datetime(d, v) => ColView::Dt(d, v.as_ref()),
            Column::Utf8(d, v) => ColView::Str(d, v.as_ref()),
            Column::Dict(c, v) => ColView::Cat(c, v.as_ref()),
            // `update_inner` expands run-length values before building a
            // view; a borrowed view cannot own the expansion.
            Column::Rle(_) => unreachable!("RLE values are decoded before view construction"),
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        let masked = |m: &Option<&Bitmap>| m.is_some_and(|m| !m.get(i));
        match self {
            ColView::F64(d, m) => d[i].is_nan() || masked(m),
            ColView::I64(_, m)
            | ColView::Bool(_, m)
            | ColView::Dt(_, m)
            | ColView::Str(_, m)
            | ColView::Cat(_, m) => masked(m),
        }
    }

}

// ---------------------------------------------------------------------------
// Typed aggregate state
// ---------------------------------------------------------------------------

/// A typed min/max cell: the old `Option<Scalar>` forced a clone (and for
/// strings a heap allocation) on every new extreme. String extremes own
/// their bytes (`Box<str>`) — the arena a candidate came from may be a
/// transient morsel view, and an extreme only replaces when it improves,
/// so the copy is rare.
#[derive(Debug, Clone, PartialEq)]
enum Extreme {
    None,
    I(i64),
    F(f64),
    B(bool),
    D(i64),
    S(Box<str>),
}

impl Extreme {
    fn to_scalar(&self) -> Scalar {
        match self {
            Extreme::None => Scalar::Null,
            Extreme::I(v) => Scalar::Int(*v),
            Extreme::F(v) => Scalar::Float(*v),
            Extreme::B(v) => Scalar::Bool(*v),
            Extreme::D(v) => Scalar::Datetime(*v),
            Extreme::S(v) => Scalar::Str(v.to_string()),
        }
    }

    /// `Scalar::cmp_values` over the typed representation.
    fn cmp(&self, other: &Extreme) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Extreme::S(a), Extreme::S(b)) => a.as_ref().cmp(b.as_ref()),
            (Extreme::B(a), Extreme::B(b)) => a.cmp(b),
            (Extreme::D(a), Extreme::D(b)) => a.cmp(b),
            _ => {
                let num = |e: &Extreme| -> Option<f64> {
                    match e {
                        Extreme::I(v) => Some(*v as f64),
                        Extreme::F(v) => Some(*v),
                        Extreme::B(v) => Some(if *v { 1.0 } else { 0.0 }),
                        Extreme::D(v) => Some(*v as f64),
                        _ => None,
                    }
                };
                match (num(self), num(other)) {
                    (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
                    _ => self.to_scalar().cmp_values(&other.to_scalar()),
                }
            }
        }
    }
}

/// Typed distinct-value set for `nunique`. Starts untyped, specializes on
/// first insert, and falls back to canonical strings if a value column
/// changes dtype mid-stream (which only happens in degenerate inputs).
#[derive(Debug, Clone, Default)]
enum Distinct {
    #[default]
    Empty,
    I(HashSet<i64>),
    F(HashSet<u64>),
    D(HashSet<i64>),
    B {
        t: bool,
        f: bool,
    },
    S(HashSet<Box<str>>),
    Canon(HashSet<String>),
}

impl Distinct {
    fn len(&self) -> usize {
        match self {
            Distinct::Empty => 0,
            Distinct::I(s) => s.len(),
            Distinct::F(s) => s.len(),
            Distinct::D(s) => s.len(),
            Distinct::B { t, f } => usize::from(*t) + usize::from(*f),
            Distinct::S(s) => s.len(),
            Distinct::Canon(s) => s.len(),
        }
    }

    /// Downgrade to canonical display strings (the old representation).
    fn canonize(&mut self) {
        let strings: HashSet<String> = match self {
            Distinct::Empty => HashSet::new(),
            Distinct::I(s) => s.iter().map(|v| Scalar::Int(*v).to_string()).collect(),
            Distinct::F(s) => s
                .iter()
                .map(|&bits| Scalar::Float(f64::from_bits(bits)).to_string())
                .collect(),
            Distinct::D(s) => s.iter().map(|v| Scalar::Datetime(*v).to_string()).collect(),
            Distinct::B { t, f } => {
                let mut out = HashSet::new();
                if *t {
                    out.insert("True".to_string());
                }
                if *f {
                    out.insert("False".to_string());
                }
                out
            }
            Distinct::S(s) => s.iter().map(|v| v.to_string()).collect(),
            Distinct::Canon(s) => std::mem::take(s),
        };
        *self = Distinct::Canon(strings);
    }

    fn insert_i64(&mut self, v: i64) {
        match self {
            Distinct::Empty => *self = Distinct::I(HashSet::from([v])),
            Distinct::I(s) => {
                s.insert(v);
            }
            _ => {
                self.canonize();
                self.insert_i64(v);
            }
        }
    }

    fn insert_f64(&mut self, v: f64) {
        match self {
            Distinct::Empty => *self = Distinct::F(HashSet::from([v.to_bits()])),
            Distinct::F(s) => {
                s.insert(v.to_bits());
            }
            _ => {
                self.canonize();
                self.insert_f64(v);
            }
        }
    }

    fn insert_dt(&mut self, v: i64) {
        match self {
            Distinct::Empty => *self = Distinct::D(HashSet::from([v])),
            Distinct::D(s) => {
                s.insert(v);
            }
            _ => {
                self.canonize();
                self.insert_dt(v);
            }
        }
    }

    fn insert_bool(&mut self, v: bool) {
        match self {
            Distinct::Empty => *self = Distinct::B { t: v, f: !v },
            Distinct::B { t, f } => {
                if v {
                    *t = true;
                } else {
                    *f = true;
                }
            }
            _ => {
                self.canonize();
                self.insert_bool(v);
            }
        }
    }

    fn insert_str(&mut self, v: &str) {
        match self {
            Distinct::Empty => *self = Distinct::S(HashSet::from([Box::from(v)])),
            Distinct::S(s) => {
                // Probe by &str; the byte copy only happens on first sight.
                if !s.contains(v) {
                    s.insert(Box::from(v));
                }
            }
            _ => {
                self.canonize();
                self.insert_str(v);
            }
        }
    }

    fn insert_canon(&mut self, v: String) {
        if !matches!(self, Distinct::Canon(_)) {
            self.canonize();
        }
        if let Distinct::Canon(s) = self {
            s.insert(v);
        }
    }

    fn merge(&mut self, other: &Distinct) {
        match (&mut *self, other) {
            (_, Distinct::Empty) => {}
            (Distinct::Empty, o) => *self = o.clone(),
            (Distinct::I(a), Distinct::I(b)) => a.extend(b),
            (Distinct::F(a), Distinct::F(b)) => a.extend(b),
            (Distinct::D(a), Distinct::D(b)) => a.extend(b),
            (Distinct::B { t, f }, Distinct::B { t: t2, f: f2 }) => {
                *t |= t2;
                *f |= f2;
            }
            (Distinct::S(a), Distinct::S(b)) => {
                for v in b {
                    if !a.contains(v) {
                        a.insert(v.clone());
                    }
                }
            }
            _ => {
                self.canonize();
                let mut theirs = other.clone();
                theirs.canonize();
                if let (Distinct::Canon(a), Distinct::Canon(b)) = (self, theirs) {
                    a.extend(b);
                }
            }
        }
    }

    fn heap_size(&self) -> usize {
        match self {
            Distinct::Empty | Distinct::B { .. } => 0,
            Distinct::I(s) | Distinct::D(s) => s.capacity() * 16,
            Distinct::F(s) => s.capacity() * 16,
            Distinct::S(s) => s.capacity() * 16 + s.iter().map(|v| v.len()).sum::<usize>(),
            Distinct::Canon(s) => {
                s.capacity() * 32 + s.iter().map(String::capacity).sum::<usize>()
            }
        }
    }
}

/// Running per-group state; merging two states gives the state of the
/// concatenated input, which is what makes streaming aggregation possible.
/// All fields are typed: the hot `update` path never constructs a
/// [`Scalar`] and never heap-allocates for numeric values.
#[derive(Debug, Clone)]
pub struct AggState {
    sum: f64,
    int_sum: i64,
    count: u64,
    min: Extreme,
    max: Extreme,
    distinct: Distinct,
    value_is_int: bool,
}

impl AggState {
    fn new(value_is_int: bool) -> AggState {
        AggState {
            sum: 0.0,
            int_sum: 0,
            count: 0,
            min: Extreme::None,
            max: Extreme::None,
            distinct: Distinct::Empty,
            value_is_int,
        }
    }

    /// Fold row `i` of `view` into this state. Caller guarantees the row
    /// is non-null.
    #[inline]
    fn update_at(&mut self, view: &ColView<'_>, i: usize, agg: AggKind) {
        self.count += 1;
        match agg {
            AggKind::Sum | AggKind::Mean => match view {
                ColView::I64(d, _) => {
                    self.sum += d[i] as f64;
                    self.int_sum = self.int_sum.wrapping_add(d[i]);
                }
                ColView::F64(d, _) => self.sum += d[i],
                ColView::Bool(d, _) => {
                    let v = i64::from(d.get(i));
                    self.sum += v as f64;
                    self.int_sum = self.int_sum.wrapping_add(v);
                }
                ColView::Dt(d, _) => {
                    self.sum += d[i] as f64;
                    self.int_sum = self.int_sum.wrapping_add(d[i]);
                }
                ColView::Str(..) | ColView::Cat(..) => {}
            },
            AggKind::Min | AggKind::Max => {
                let candidate = match view {
                    ColView::I64(d, _) => Extreme::I(d[i]),
                    ColView::F64(d, _) => Extreme::F(d[i]),
                    ColView::Bool(d, _) => Extreme::B(d.get(i)),
                    ColView::Dt(d, _) => Extreme::D(d[i]),
                    ColView::Str(d, _) => {
                        // Compare before copying: the byte copy only happens
                        // when the extreme actually improves.
                        let s = d.get(i);
                        if self.str_extreme_better(agg, s) {
                            let slot =
                                if agg == AggKind::Min { &mut self.min } else { &mut self.max };
                            *slot = Extreme::S(Box::from(s));
                        }
                        return;
                    }
                    ColView::Cat(cat, _) => {
                        let s = cat.dict.get(cat.codes[i] as usize);
                        if self.str_extreme_better(agg, s) {
                            let slot =
                                if agg == AggKind::Min { &mut self.min } else { &mut self.max };
                            *slot = Extreme::S(Box::from(s));
                        }
                        return;
                    }
                };
                if agg == AggKind::Min {
                    if matches!(self.min, Extreme::None) || candidate.cmp(&self.min).is_lt() {
                        self.min = candidate;
                    }
                } else if matches!(self.max, Extreme::None) || candidate.cmp(&self.max).is_gt() {
                    self.max = candidate;
                }
            }
            AggKind::NUnique => match view {
                ColView::I64(d, _) => self.distinct.insert_i64(d[i]),
                ColView::F64(d, _) => self.distinct.insert_f64(d[i]),
                ColView::Bool(d, _) => self.distinct.insert_bool(d.get(i)),
                ColView::Dt(d, _) => self.distinct.insert_dt(d[i]),
                ColView::Str(d, _) => self.distinct.insert_str(d.get(i)),
                ColView::Cat(c, _) => {
                    self.distinct.insert_canon(c.dict.get(c.codes[i] as usize).to_string())
                }
            },
            AggKind::Count => {}
        }
    }

    /// Would string value `s` replace the current min/max extreme?
    fn str_extreme_better(&self, agg: AggKind, s: &str) -> bool {
        let cur = if agg == AggKind::Min { &self.min } else { &self.max };
        match cur {
            Extreme::None => true,
            Extreme::S(c) => {
                if agg == AggKind::Min {
                    s < c.as_ref()
                } else {
                    s > c.as_ref()
                }
            }
            other => {
                // Mixed-dtype stream (degenerate): fall back to scalar order.
                let cand = Extreme::S(Box::from(s));
                if agg == AggKind::Min {
                    cand.cmp(other).is_lt()
                } else {
                    cand.cmp(other).is_gt()
                }
            }
        }
    }

    /// Merge another partial state into this one.
    pub fn merge(&mut self, other: &AggState) {
        self.sum += other.sum;
        self.int_sum = self.int_sum.wrapping_add(other.int_sum);
        self.count += other.count;
        if !matches!(other.min, Extreme::None)
            && (matches!(self.min, Extreme::None) || other.min.cmp(&self.min).is_lt())
        {
            self.min = other.min.clone();
        }
        if !matches!(other.max, Extreme::None)
            && (matches!(self.max, Extreme::None) || other.max.cmp(&self.max).is_gt())
        {
            self.max = other.max.clone();
        }
        self.distinct.merge(&other.distinct);
    }

    fn finish(&self, agg: AggKind) -> Scalar {
        match agg {
            AggKind::Sum => {
                if self.count == 0 {
                    Scalar::Null
                } else if self.value_is_int {
                    Scalar::Int(self.int_sum)
                } else {
                    Scalar::Float(self.sum)
                }
            }
            AggKind::Mean => {
                if self.count == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float(self.sum / self.count as f64)
                }
            }
            AggKind::Count => Scalar::Int(self.count as i64),
            AggKind::Min => self.min.to_scalar(),
            AggKind::Max => self.max.to_scalar(),
            AggKind::NUnique => Scalar::Int(self.distinct.len() as i64),
        }
    }

    /// Approximate heap bytes held by this state (for the memory budget).
    pub fn heap_size(&self) -> usize {
        let extreme = |e: &Extreme| match e {
            Extreme::S(s) => s.len() + 16,
            _ => 0,
        };
        std::mem::size_of::<AggState>()
            + extreme(&self.min)
            + extreme(&self.max)
            + self.distinct.heap_size()
    }
}

// ---------------------------------------------------------------------------
// Typed key storage
// ---------------------------------------------------------------------------

/// One key column's stored group values. `nulls[g]` is true when group `g`
/// has a null in this key position.
#[derive(Debug)]
enum KeyCol {
    I64 {
        dtype: DType, // Int64 or Datetime
        data: Vec<i64>,
        nulls: Vec<bool>,
    },
    F64 {
        data: Vec<f64>,
        nulls: Vec<bool>,
    },
    Bool {
        data: Vec<bool>,
        nulls: Vec<bool>,
    },
    Str {
        data: Vec<Box<str>>,
        nulls: Vec<bool>,
    },
    /// Fallback after a mid-stream dtype change: canonical display strings.
    Canon {
        data: Vec<String>,
        nulls: Vec<bool>,
    },
}

impl KeyCol {
    fn for_column(col: &Column) -> KeyCol {
        match col.dtype() {
            DType::Int64 | DType::Datetime => KeyCol::I64 {
                dtype: col.dtype(),
                data: Vec::new(),
                nulls: Vec::new(),
            },
            DType::Float64 => KeyCol::F64 {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            DType::Bool => KeyCol::Bool {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            DType::Utf8 | DType::Categorical => KeyCol::Str {
                data: Vec::new(),
                nulls: Vec::new(),
            },
        }
    }

    /// Does this store accept values of `col` without canonizing?
    fn accepts(&self, col: &Column) -> bool {
        matches!(
            (self, col.dtype()),
            (KeyCol::I64 { dtype, .. }, d) if *dtype == d
        ) || matches!(
            (self, col.dtype()),
            (KeyCol::F64 { .. }, DType::Float64)
                | (KeyCol::Bool { .. }, DType::Bool)
                | (KeyCol::Str { .. }, DType::Utf8)
                | (KeyCol::Str { .. }, DType::Categorical)
                | (KeyCol::Canon { .. }, _)
        )
    }

    /// Downgrade stored values to canonical display strings.
    fn canonize(&mut self) {
        let (data, nulls): (Vec<String>, Vec<bool>) = match self {
            KeyCol::I64 { dtype, data, nulls } => (
                data.iter()
                    .zip(nulls.iter())
                    .map(|(&v, &n)| {
                        if n {
                            Scalar::Null.to_string()
                        } else if *dtype == DType::Datetime {
                            Scalar::Datetime(v).to_string()
                        } else {
                            Scalar::Int(v).to_string()
                        }
                    })
                    .collect(),
                std::mem::take(nulls),
            ),
            KeyCol::F64 { data, nulls } => (
                data.iter()
                    .zip(nulls.iter())
                    .map(|(&v, &n)| {
                        if n {
                            Scalar::Null.to_string()
                        } else {
                            Scalar::Float(v).to_string()
                        }
                    })
                    .collect(),
                std::mem::take(nulls),
            ),
            KeyCol::Bool { data, nulls } => (
                data.iter()
                    .zip(nulls.iter())
                    .map(|(&v, &n)| {
                        if n {
                            Scalar::Null.to_string()
                        } else {
                            Scalar::Bool(v).to_string()
                        }
                    })
                    .collect(),
                std::mem::take(nulls),
            ),
            KeyCol::Str { data, nulls } => (
                data.iter()
                    .zip(nulls.iter())
                    .map(|(v, &n)| {
                        if n {
                            Scalar::Null.to_string()
                        } else {
                            v.to_string()
                        }
                    })
                    .collect(),
                std::mem::take(nulls),
            ),
            KeyCol::Canon { .. } => return,
        };
        *self = KeyCol::Canon { data, nulls };
    }

    /// Is stored group `g` equal to row `i` of `col`? Equality follows the
    /// old canonical-string semantics: nulls equal nulls, values equal when
    /// their rendered scalars would match.
    #[inline]
    fn matches(&self, g: usize, col: &Column, i: usize) -> bool {
        let row_null = col.is_null_at(i);
        match self {
            KeyCol::I64 { dtype, data, nulls } => {
                if nulls[g] != row_null {
                    return false;
                }
                if row_null {
                    return true;
                }
                match (col, dtype) {
                    (Column::Int64(d, _), DType::Int64) => d[i] == data[g],
                    (Column::Datetime(d, _), DType::Datetime) => d[i] == data[g],
                    _ => false,
                }
            }
            KeyCol::F64 { data, nulls } => {
                if nulls[g] != row_null {
                    return false;
                }
                if row_null {
                    return true;
                }
                match col {
                    // Bit equality matches display-string equality
                    // (-0.0 and 0.0 render differently and hash differently).
                    Column::Float64(d, _) => d[i].to_bits() == data[g].to_bits(),
                    _ => false,
                }
            }
            KeyCol::Bool { data, nulls } => {
                if nulls[g] != row_null {
                    return false;
                }
                if row_null {
                    return true;
                }
                match col {
                    Column::Bool(d, _) => d.get(i) == data[g],
                    _ => false,
                }
            }
            KeyCol::Str { data, nulls } => {
                // Rendered equality: a null key renders as "NaN", which the
                // canonical-string semantics equate with a literal "NaN".
                let stored: &str = if nulls[g] { "NaN" } else { &data[g] };
                let row: &str = if row_null {
                    "NaN"
                } else {
                    match col {
                        Column::Utf8(d, _) => d.get(i),
                        Column::Dict(c, _) => c.dict.get(c.codes[i] as usize),
                        _ => return false,
                    }
                };
                stored == row
            }
            // Canonical stores compare by rendering alone (nulls render
            // "NaN" and are stored that way).
            KeyCol::Canon { data, .. } => col.get(i).to_string() == data[g],
        }
    }

    /// Append row `i` of `col` as a new group. Caller has verified
    /// `accepts(col)`.
    fn push_row(&mut self, col: &Column, i: usize) {
        let row_null = col.is_null_at(i);
        match self {
            KeyCol::I64 { data, nulls, .. } => {
                let v = match col {
                    Column::Int64(d, _) | Column::Datetime(d, _) => d[i],
                    _ => 0,
                };
                data.push(if row_null { 0 } else { v });
                nulls.push(row_null);
            }
            KeyCol::F64 { data, nulls } => {
                let v = match col {
                    Column::Float64(d, _) => d[i],
                    _ => 0.0,
                };
                data.push(if row_null { 0.0 } else { v });
                nulls.push(row_null);
            }
            KeyCol::Bool { data, nulls } => {
                let v = match col {
                    Column::Bool(d, _) => d.get(i),
                    _ => false,
                };
                data.push(!row_null && v);
                nulls.push(row_null);
            }
            KeyCol::Str { data, nulls } => {
                let v: &str = if row_null {
                    ""
                } else {
                    match col {
                        Column::Utf8(d, _) => d.get(i),
                        Column::Dict(c, _) => c.dict.get(c.codes[i] as usize),
                        _ => "",
                    }
                };
                data.push(Box::from(v));
                nulls.push(row_null);
            }
            KeyCol::Canon { data, nulls } => {
                data.push(if row_null {
                    Scalar::Null.to_string()
                } else {
                    col.get(i).to_string()
                });
                nulls.push(row_null);
            }
        }
    }

    /// Is stored group `g` here equal to stored group `h` in `other`
    /// (accumulator merge path)? Equality is canonical-rendering equality,
    /// evaluated typed where the representations agree.
    fn matches_store(&self, g: usize, other: &KeyCol, h: usize) -> bool {
        match (self, other) {
            (
                KeyCol::I64 { dtype: d1, data: a, nulls: na },
                KeyCol::I64 { dtype: d2, data: b, nulls: nb },
            ) => {
                d1 == d2
                    && na[g] == nb[h]
                    && (na[g] || a[g] == b[h])
            }
            (
                KeyCol::F64 { data: a, nulls: na },
                KeyCol::F64 { data: b, nulls: nb },
            ) => na[g] == nb[h] && (na[g] || a[g].to_bits() == b[h].to_bits()),
            (
                KeyCol::Bool { data: a, nulls: na },
                KeyCol::Bool { data: b, nulls: nb },
            ) => na[g] == nb[h] && (na[g] || a[g] == b[h]),
            // Strings, canonical stores, and mixed representations all
            // compare by canonical rendering (nulls render "NaN").
            _ => self.rendered(g) == other.rendered(h),
        }
    }

    /// Group `g`'s canonical rendering (what the seed `KeyWrap::canon`
    /// produced for this cell; nulls render "NaN").
    fn rendered(&self, g: usize) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        if self.is_null(g) {
            return Cow::Borrowed("NaN");
        }
        match self {
            KeyCol::Str { data, .. } => Cow::Borrowed(&data[g]),
            KeyCol::Canon { data, .. } => Cow::Borrowed(&data[g]),
            other => Cow::Owned(other.scalar(g).to_string()),
        }
    }

    /// This group's contribution to the canonical row hash: must mix the
    /// same value [`mix_key_hashes`] feeds for an identical incoming cell.
    fn hash_value(&self, g: usize) -> u64 {
        match self {
            KeyCol::I64 { data, nulls, .. } => {
                if nulls[g] { u64::MAX } else { data[g] as u64 }
            }
            KeyCol::F64 { data, nulls } => {
                if nulls[g] { u64::MAX } else { data[g].to_bits() }
            }
            KeyCol::Bool { data, nulls } => {
                if nulls[g] { u64::MAX } else { data[g] as u64 }
            }
            KeyCol::Str { data, nulls } => {
                if nulls[g] { fnv1a(b"NaN") } else { fnv1a(data[g].as_bytes()) }
            }
            // Canonical nulls are stored rendered ("NaN") already.
            KeyCol::Canon { data, .. } => fnv1a(data[g].as_bytes()),
        }
    }

    /// Overwrite stored group `g` with `other`'s key-equal group `h`.
    /// Only string-class stores can hold differing keys for one group (a
    /// null and a literal `"NaN"`); typed stores hold identical values.
    fn set_from(&mut self, g: usize, other: &KeyCol, h: usize) {
        match (self, other) {
            (
                KeyCol::Str { data, nulls },
                KeyCol::Str {
                    data: d2,
                    nulls: n2,
                },
            ) => {
                data[g] = d2[h].clone();
                nulls[g] = n2[h];
            }
            (KeyCol::Canon { data, nulls }, _) => {
                data[g] = other.rendered(h).into_owned();
                nulls[g] = other.is_null(h);
            }
            _ => {}
        }
    }

    /// Append stored group `h` of `other` as a new group of this store.
    fn push_from(&mut self, other: &KeyCol, h: usize) {
        match (&mut *self, other) {
            (KeyCol::I64 { data, nulls, .. }, KeyCol::I64 { data: d2, nulls: n2, .. }) => {
                data.push(d2[h]);
                nulls.push(n2[h]);
            }
            (KeyCol::F64 { data, nulls }, KeyCol::F64 { data: d2, nulls: n2 }) => {
                data.push(d2[h]);
                nulls.push(n2[h]);
            }
            (KeyCol::Bool { data, nulls }, KeyCol::Bool { data: d2, nulls: n2 }) => {
                data.push(d2[h]);
                nulls.push(n2[h]);
            }
            (KeyCol::Str { data, nulls }, KeyCol::Str { data: d2, nulls: n2 }) => {
                data.push(d2[h].clone());
                nulls.push(n2[h]);
            }
            _ => {
                self.canonize();
                if let KeyCol::Canon { data, nulls } = self {
                    data.push(if other.is_null(h) {
                        Scalar::Null.to_string()
                    } else {
                        other.scalar(h).to_string()
                    });
                    nulls.push(other.is_null(h));
                }
            }
        }
    }

    fn is_null(&self, g: usize) -> bool {
        match self {
            KeyCol::I64 { nulls, .. }
            | KeyCol::F64 { nulls, .. }
            | KeyCol::Bool { nulls, .. }
            | KeyCol::Str { nulls, .. }
            | KeyCol::Canon { nulls, .. } => nulls[g],
        }
    }

    /// An empty store with the same representation (and key dtype).
    fn empty_like(&self) -> KeyCol {
        match self {
            KeyCol::I64 { dtype, .. } => KeyCol::I64 {
                dtype: *dtype,
                data: Vec::new(),
                nulls: Vec::new(),
            },
            KeyCol::F64 { .. } => KeyCol::F64 {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            KeyCol::Bool { .. } => KeyCol::Bool {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            KeyCol::Str { .. } => KeyCol::Str {
                data: Vec::new(),
                nulls: Vec::new(),
            },
            KeyCol::Canon { .. } => KeyCol::Canon {
                data: Vec::new(),
                nulls: Vec::new(),
            },
        }
    }

    /// Same stored representation (variant and, for ints, dtype)?
    fn same_repr(&self, other: &KeyCol) -> bool {
        match (self, other) {
            (KeyCol::I64 { dtype: a, .. }, KeyCol::I64 { dtype: b, .. }) => a == b,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    /// Stored group `g` as a scalar (finish / merge paths only).
    fn scalar(&self, g: usize) -> Scalar {
        if self.is_null(g) {
            return Scalar::Null;
        }
        match self {
            KeyCol::I64 { dtype, data, .. } => {
                if *dtype == DType::Datetime {
                    Scalar::Datetime(data[g])
                } else {
                    Scalar::Int(data[g])
                }
            }
            KeyCol::F64 { data, .. } => Scalar::Float(data[g]),
            KeyCol::Bool { data, .. } => Scalar::Bool(data[g]),
            KeyCol::Str { data, .. } => Scalar::Str(data[g].to_string()),
            KeyCol::Canon { data, .. } => Scalar::Str(data[g].clone()),
        }
    }

    /// Output dtype for the result frame (the old code inferred this from
    /// the first non-null scalar, defaulting to Utf8).
    fn out_dtype(&self) -> Option<DType> {
        let any_non_null = match self {
            KeyCol::I64 { nulls, .. }
            | KeyCol::F64 { nulls, .. }
            | KeyCol::Bool { nulls, .. }
            | KeyCol::Str { nulls, .. }
            | KeyCol::Canon { nulls, .. } => nulls.iter().any(|n| !n),
        };
        if !any_non_null {
            return None;
        }
        Some(match self {
            KeyCol::I64 { dtype, .. } => *dtype,
            KeyCol::F64 { .. } => DType::Float64,
            KeyCol::Bool { .. } => DType::Bool,
            KeyCol::Str { .. } | KeyCol::Canon { .. } => DType::Utf8,
        })
    }

    fn heap_size(&self) -> usize {
        match self {
            KeyCol::I64 { data, nulls, .. } => data.capacity() * 8 + nulls.capacity(),
            KeyCol::F64 { data, nulls } => data.capacity() * 8 + nulls.capacity(),
            KeyCol::Bool { data, nulls } => data.capacity() + nulls.capacity(),
            KeyCol::Str { data, nulls } => {
                data.capacity() * 16
                    + data.iter().map(|s| s.len()).sum::<usize>()
                    + nulls.capacity()
            }
            KeyCol::Canon { data, nulls } => {
                data.capacity() * 24
                    + data.iter().map(String::capacity).sum::<usize>()
                    + nulls.capacity()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The accumulator
// ---------------------------------------------------------------------------

/// Mix one key column's per-row hash contribution for rows
/// `offset .. offset + hashes.len()` into `hashes` (slot `j` accumulates
/// row `offset + j`), matching the canonical-rendering semantics: typed
/// columns use [`Column::hash_into`]'s scheme, string-class columns hash
/// nulls as the rendered "NaN" (so a null key and a literal `"NaN"`
/// string key land in the same bucket, as the old canonical-string keying
/// did), and canonical stores hash the rendered scalar. The range form is
/// what lets parallel workers hash only their own morsel.
fn mix_key_hashes(store: &KeyCol, col: &Column, offset: usize, hashes: &mut [u64]) {
    let len = hashes.len();
    let mut mix = |j: usize, v: u64| {
        let h = &mut hashes[j];
        *h = (*h ^ v).wrapping_mul(HASH_PRIME);
    };
    match store {
        KeyCol::Canon { .. } => {
            for j in 0..len {
                mix(j, fnv1a(col.get(offset + j).to_string().as_bytes()));
            }
        }
        KeyCol::Str { .. } => {
            let nan = fnv1a(b"NaN");
            match col {
                Column::Utf8(d, _) => {
                    for j in 0..len {
                        let i = offset + j;
                        let v = if col.is_null_at(i) { nan } else { fnv1a(d.bytes_at(i)) };
                        mix(j, v);
                    }
                }
                Column::Dict(c, _) => {
                    let dict_hashes: Vec<u64> =
                        (0..c.dict.len()).map(|d| fnv1a(c.dict.bytes_at(d))).collect();
                    for (j, &code) in c.codes[offset..offset + len].iter().enumerate() {
                        let i = offset + j;
                        let v = if col.is_null_at(i) {
                            nan
                        } else {
                            dict_hashes[code as usize]
                        };
                        mix(j, v);
                    }
                }
                // `accepts` guarantees Str stores only see string columns.
                other => other.hash_range_into(offset, hashes),
            }
        }
        _ => col.hash_range_into(offset, hashes),
    }
}

/// A stored group's full key hash under `cols`' current representation.
fn group_hash(cols: &[KeyCol], g: usize) -> u64 {
    let mut h = 0u64;
    for c in cols {
        h = (h ^ c.hash_value(g)).wrapping_mul(HASH_PRIME);
    }
    h
}

/// A stored group's key hash in `theirs`, computed under `mine`'s
/// representation (accumulator merge: the sides may disagree on whether a
/// column has been canonized).
fn cross_group_hash(mine: &[KeyCol], theirs: &[KeyCol], g: usize) -> u64 {
    let mut h = 0u64;
    for (m, t) in mine.iter().zip(theirs) {
        let v = match m {
            KeyCol::Canon { .. } => fnv1a(t.rendered(g).as_bytes()),
            _ => t.hash_value(g),
        };
        h = (h ^ v).wrapping_mul(HASH_PRIME);
    }
    h
}

/// Streaming group-by accumulator: feed chunks, then `finish`.
///
/// Representation: `table` maps a 64-bit row hash to the group indexes
/// sharing it; `key_cols` stores each group's key values in typed columns
/// (one slot per group, in first-seen order); `states[g]` is group `g`'s
/// running aggregate. The same representation serves `update` (streaming
/// chunks), `merge` (parallel partials), and `finish`.
#[derive(Debug)]
pub struct GroupByAccumulator {
    spec: GroupBySpec,
    table: HashTable,
    key_cols: Vec<KeyCol>,
    states: Vec<AggState>,
    /// Each group's first row (index into the frame its rows came from),
    /// so partials over disjoint row ranges of one frame can merge to
    /// the sequential scan's representative key.
    first_rows: Vec<usize>,
    value_is_int: bool,
    /// Reused per-chunk row-hash buffer: the fused-chain path feeds one
    /// accumulator morsel after morsel, so the scratch is allocated once
    /// and grown to the largest morsel instead of once per update.
    hash_scratch: Vec<u64>,
}

impl GroupByAccumulator {
    /// Start an accumulation for `spec`.
    pub fn new(spec: GroupBySpec) -> GroupByAccumulator {
        GroupByAccumulator {
            spec,
            table: HashTable::default(),
            key_cols: Vec::new(),
            states: Vec::new(),
            first_rows: Vec::new(),
            value_is_int: true,
            hash_scratch: Vec::new(),
        }
    }

    /// The spec this accumulator computes.
    pub fn spec(&self) -> &GroupBySpec {
        &self.spec
    }

    /// Number of groups discovered so far.
    fn num_groups(&self) -> usize {
        self.states.len()
    }

    /// Consume one chunk of input rows.
    pub fn update(&mut self, chunk: &DataFrame) -> Result<()> {
        self.update_range(chunk, 0, chunk.num_rows())
    }

    /// Consume rows `offset .. offset + len` of `chunk` without slicing
    /// (no column copies). This is the morsel entry point: parallel
    /// workers feed disjoint row ranges of one shared frame into
    /// worker-local accumulators.
    pub fn update_range(&mut self, chunk: &DataFrame, offset: usize, len: usize) -> Result<()> {
        debug_assert!(offset + len <= chunk.num_rows());
        let key_cols: Vec<&Column> = self
            .spec
            .keys
            .iter()
            .map(|k| chunk.column(k).map(Series::column))
            .collect::<Result<Vec<_>>>()?;
        let value_col = chunk.column(&self.spec.value)?.column();
        self.update_inner(&key_cols, value_col, offset, len, None)
    }

    /// Consume rows of already-resolved key/value columns, optionally
    /// restricted to the set bits of a selection bitmap over the columns'
    /// row domain. This is the fused-chain entry point: a chain that ends
    /// in a group-by feeds the accumulator straight from its selection
    /// view, so the surviving rows are never gathered into an
    /// intermediate frame. `key_cols` must line up with the spec's key
    /// names (caller resolves); all columns share one length.
    pub fn update_cols(
        &mut self,
        key_cols: &[&Column],
        value_col: &Column,
        sel: Option<&Bitmap>,
    ) -> Result<()> {
        self.update_inner(key_cols, value_col, 0, value_col.len(), sel)
    }

    /// Shared update loop: hash keys for the full range, then upsert
    /// every row (or only the selected rows) into the group table.
    fn update_inner(
        &mut self,
        key_cols: &[&Column],
        value_col: &Column,
        offset: usize,
        len: usize,
        sel: Option<&Bitmap>,
    ) -> Result<()> {
        debug_assert_eq!(key_cols.len(), self.spec.keys.len());
        debug_assert!(sel.is_none_or(|s| s.len() == len));
        // Run-length columns fall back to plain rows here (dictionary
        // columns flow through the Cat arms natively).
        let key_storage: Vec<std::borrow::Cow<'_, Column>> =
            key_cols.iter().map(|c| c.rle_decoded()).collect();
        let key_cols_vec: Vec<&Column> = key_storage.iter().map(|c| c.as_ref()).collect();
        let key_cols: &[&Column] = &key_cols_vec;
        let value_storage = value_col.rle_decoded();
        let value_col: &Column = value_storage.as_ref();
        if value_col.dtype() != DType::Int64 && value_col.dtype() != DType::Bool {
            self.value_is_int = false;
        }
        if self.key_cols.is_empty() {
            self.key_cols = key_cols.iter().map(|c| KeyCol::for_column(c)).collect();
        }
        // A mid-stream dtype change downgrades that key column to
        // canonical strings (degenerate inputs only); existing groups are
        // re-hashed and canonically-equal ones merged, preserving the old
        // rendered-string grouping semantics.
        let mut canonized = false;
        for (store, col) in self.key_cols.iter_mut().zip(key_cols) {
            if !store.accepts(col) {
                store.canonize();
                canonized = true;
            }
        }
        if canonized {
            self.rebuild_table();
        }
        let mut row_hashes = std::mem::take(&mut self.hash_scratch);
        row_hashes.clear();
        row_hashes.resize(len, 0);
        for (store, col) in self.key_cols.iter().zip(key_cols) {
            mix_key_hashes(store, col, offset, &mut row_hashes);
        }
        let agg = self.spec.agg;
        let value_is_int = self.value_is_int;
        let view = ColView::new(value_col);
        match sel {
            None => {
                for (j, &h) in row_hashes.iter().enumerate() {
                    self.upsert_row(key_cols, &view, offset + j, h, agg, value_is_int);
                }
            }
            Some(sel) => {
                // Hashes were mixed for the whole range (word-at-a-time,
                // cheap); only the selected rows touch the table.
                sel.for_each_set(|j| {
                    self.upsert_row(key_cols, &view, offset + j, row_hashes[j], agg, value_is_int);
                });
            }
        }
        self.hash_scratch = row_hashes;
        Ok(())
    }

    /// Find-or-create row `i`'s group and fold its value in.
    #[inline]
    fn upsert_row(
        &mut self,
        key_cols: &[&Column],
        view: &ColView,
        i: usize,
        h: u64,
        agg: AggKind,
        value_is_int: bool,
    ) {
        let gid = {
            let candidates = self.table.entry(h).or_default();
            let found = candidates.iter().copied().find(|&g| {
                self.key_cols
                    .iter()
                    .zip(key_cols)
                    .all(|(store, col)| store.matches(g as usize, col, i))
            });
            match found {
                Some(g) => g as usize,
                None => {
                    let g = self.states.len() as u32;
                    candidates.push(g);
                    for (store, col) in self.key_cols.iter_mut().zip(key_cols) {
                        store.push_row(col, i);
                    }
                    self.states.push(AggState::new(value_is_int));
                    self.first_rows.push(i);
                    g as usize
                }
            }
        };
        if !view.is_null(i) {
            self.states[gid].update_at(view, i, agg);
        }
    }

    /// Merge a sibling accumulator (same spec) — used by the parallel
    /// (Modin-like) backend to combine per-partition states, and it reuses
    /// the same hashed representation: no keys are re-rendered on the
    /// common path.
    pub fn merge(&mut self, other: &GroupByAccumulator) {
        self.merge_impl(other, false)
    }

    /// [`merge`](Self::merge) for partials that read disjoint row ranges
    /// of one frame: a group present on both sides takes the key of the
    /// earlier first row. Keys that group together can differ (a null
    /// string key and a literal `"NaN"`); this keeps the sequential
    /// scan's key whatever order the partials merge in.
    fn merge_in_row_order(&mut self, other: &GroupByAccumulator) {
        self.merge_impl(other, true)
    }

    fn merge_impl(&mut self, other: &GroupByAccumulator, earliest_key: bool) {
        self.value_is_int = self.value_is_int && other.value_is_int;
        if self.key_cols.is_empty() && !other.key_cols.is_empty() {
            // We never saw a chunk: adopt the other side's key layout.
            self.key_cols = other.key_cols.iter().map(KeyCol::empty_like).collect();
        }
        // Unify representations: if the sides disagree on a column (one
        // canonized, or different key dtypes), downgrade ours to canonical
        // strings and re-bucket before merging (degenerate inputs only).
        let mut canonized = false;
        for (mine, theirs) in self.key_cols.iter_mut().zip(&other.key_cols) {
            if !mine.same_repr(theirs) && !matches!(mine, KeyCol::Canon { .. }) {
                mine.canonize();
                canonized = true;
            }
        }
        if canonized {
            self.rebuild_table();
        }
        for h in 0..other.num_groups() {
            let hash = cross_group_hash(&self.key_cols, &other.key_cols, h);
            let found = self.table.get(&hash).and_then(|candidates| {
                candidates.iter().copied().find(|&g| {
                    self.key_cols
                        .iter()
                        .zip(&other.key_cols)
                        .all(|(mine, theirs)| mine.matches_store(g as usize, theirs, h))
                })
            });
            match found {
                Some(g) => {
                    let g = g as usize;
                    if earliest_key && other.first_rows[h] < self.first_rows[g] {
                        for (mine, theirs) in self.key_cols.iter_mut().zip(&other.key_cols) {
                            mine.set_from(g, theirs, h);
                        }
                        self.first_rows[g] = other.first_rows[h];
                    }
                    self.states[g].merge(&other.states[h]);
                }
                None => {
                    let g = self.states.len() as u32;
                    self.table.entry(hash).or_default().push(g);
                    for (mine, theirs) in self.key_cols.iter_mut().zip(&other.key_cols) {
                        mine.push_from(theirs, h);
                    }
                    self.states.push(other.states[h].clone());
                    self.first_rows.push(other.first_rows[h]);
                }
            }
        }
    }

    /// Re-hash every stored group and re-bucket the table, folding groups
    /// whose keys now render identically (after a key column is canonized
    /// mid-stream). Preserves first-seen order of the surviving groups.
    fn rebuild_table(&mut self) {
        let old_keys = std::mem::take(&mut self.key_cols);
        let old_states = std::mem::take(&mut self.states);
        let old_first_rows = std::mem::take(&mut self.first_rows);
        self.key_cols = old_keys.iter().map(KeyCol::empty_like).collect();
        self.table.clear();
        for (g, old_state) in old_states.iter().enumerate() {
            let h = group_hash(&old_keys, g);
            let found = self.table.get(&h).and_then(|candidates| {
                candidates.iter().copied().find(|&c| {
                    self.key_cols
                        .iter()
                        .zip(&old_keys)
                        .all(|(mine, theirs)| mine.matches_store(c as usize, theirs, g))
                })
            });
            match found {
                Some(c) => self.states[c as usize].merge(old_state),
                None => {
                    let gid = self.states.len() as u32;
                    self.table.entry(h).or_default().push(gid);
                    for (mine, theirs) in self.key_cols.iter_mut().zip(&old_keys) {
                        mine.push_from(theirs, g);
                    }
                    self.states.push(old_state.clone());
                    self.first_rows.push(old_first_rows[g]);
                }
            }
        }
    }

    /// Approximate heap bytes (memory-budget accounting for streaming
    /// aggs). Accounts for the actual typed key bytes — including string
    /// key payloads — rather than a flat per-group estimate.
    pub fn heap_size(&self) -> usize {
        let states: usize = self.states.iter().map(AggState::heap_size).sum();
        let keys: usize = self.key_cols.iter().map(KeyCol::heap_size).sum();
        // Hash table: each occupied slot holds a key, a Vec header and
        // (usually) one u32 entry.
        let table = self.table.len() * (8 + 24) + self.num_groups() * 4;
        states + keys + table + (self.first_rows.capacity() + self.hash_scratch.capacity()) * 8
    }

    /// Produce the result frame: one row per group, sorted by key (pandas
    /// `groupby` sorts group keys by default; like the old accumulator we
    /// order by the rendered key string, computed once per group).
    pub fn finish(self) -> Result<DataFrame> {
        let n_groups = self.num_groups();
        let n_keys = self.spec.keys.len();
        let canons: Vec<String> = (0..n_groups)
            .map(|g| {
                self.key_cols
                    .iter()
                    .map(|c| c.scalar(g).to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            })
            .collect();
        let mut order: Vec<usize> = (0..n_groups).collect();
        order.sort_by(|&a, &b| canons[a].cmp(&canons[b]));

        let mut key_builders: Vec<ColumnBuilder> = Vec::with_capacity(n_keys);
        for k in 0..n_keys {
            let dtype = self
                .key_cols
                .get(k)
                .and_then(KeyCol::out_dtype)
                .unwrap_or(DType::Utf8);
            key_builders.push(ColumnBuilder::new(dtype));
        }
        let mut values: Vec<Scalar> = Vec::with_capacity(n_groups);
        for &g in &order {
            for (k, b) in key_builders.iter_mut().enumerate() {
                b.push_scalar(&self.key_cols[k].scalar(g))?;
            }
            values.push(self.states[g].finish(self.spec.agg));
        }
        let out_dtype = values
            .iter()
            .find_map(Scalar::dtype)
            .unwrap_or(DType::Float64);
        let mut value_builder = ColumnBuilder::new(out_dtype);
        for v in &values {
            value_builder.push_scalar(v)?;
        }
        let mut series = Vec::with_capacity(n_keys + 1);
        for (k, b) in key_builders.into_iter().enumerate() {
            series.push(Series::new(self.spec.keys[k].clone(), b.finish()));
        }
        series.push(Series::new(self.spec.value.clone(), value_builder.finish()));
        DataFrame::new(series)
    }
}

// ---------------------------------------------------------------------------
// Dense code-keyed fast path
// ---------------------------------------------------------------------------

/// Largest dictionary the dense path will allocate per-code slots for.
const DENSE_MAX_DICT: usize = 65_536;

/// The key column's dictionary view when the dense code-keyed fast path
/// applies: a single dictionary-backed key with no nulls, a small
/// dictionary, and unique entries. Uniqueness holds for every in-tree
/// construction path but is verified here (one cheap pass over the
/// dictionary, not the rows) because `DictCol`'s fields are public.
fn dense_key(col: &Column) -> Option<&crate::column::DictCol> {
    let c = match col {
        Column::Dict(c, None) => c,
        _ => return None,
    };
    if c.dict.len() > DENSE_MAX_DICT {
        return None;
    }
    let mut seen = HashSet::with_capacity(c.dict.len());
    for e in 0..c.dict.len() {
        if !seen.insert(c.dict.bytes_at(e)) {
            return None;
        }
    }
    Some(c)
}

/// Per-code aggregate slots: group identity is the u32 dictionary code, so
/// the per-row step is an array index — no hashing, no key comparison, no
/// key-byte copies. Reuses [`AggState`] so every aggregate's arithmetic
/// (and therefore its output) is identical to the hash path's.
struct DenseGroups {
    seen: Vec<bool>,
    states: Vec<AggState>,
}

impl DenseGroups {
    fn new(dict_len: usize, value_is_int: bool) -> DenseGroups {
        DenseGroups {
            seen: vec![false; dict_len],
            states: vec![AggState::new(value_is_int); dict_len],
        }
    }

    /// Fold rows `offset .. offset + len` into the per-code slots. Like
    /// the hash path, a row claims its group even when its value is null.
    fn update_range(
        &mut self,
        key: &crate::column::DictCol,
        view: &ColView<'_>,
        offset: usize,
        len: usize,
        agg: AggKind,
    ) {
        for (j, &code) in key.codes[offset..offset + len].iter().enumerate() {
            let g = code as usize;
            self.seen[g] = true;
            let i = offset + j;
            if !view.is_null(i) {
                self.states[g].update_at(view, i, agg);
            }
        }
    }

    /// Merge a sibling's slots (parallel partials; code spaces coincide
    /// because both sides index one shared dictionary).
    fn merge(&mut self, other: &DenseGroups) {
        for (g, ot) in other.states.iter().enumerate() {
            if !other.seen[g] {
                continue;
            }
            if self.seen[g] {
                self.states[g].merge(ot);
            } else {
                self.seen[g] = true;
                self.states[g] = ot.clone();
            }
        }
    }
}

/// Render dense slots into the result frame through the hash path's own
/// `finish` (same key-sort, same builders, same output dtypes).
fn finish_dense(
    spec: GroupBySpec,
    key: &crate::column::DictCol,
    dense: DenseGroups,
    value_is_int: bool,
) -> Result<DataFrame> {
    let mut data: Vec<Box<str>> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    for (code, st) in dense.states.iter().enumerate() {
        if dense.seen[code] {
            data.push(Box::from(key.dict.get(code)));
            states.push(st.clone());
        }
    }
    let nulls = vec![false; data.len()];
    let acc = GroupByAccumulator {
        spec,
        table: HashTable::default(),
        key_cols: vec![KeyCol::Str { data, nulls }],
        states,
        first_rows: Vec::new(),
        value_is_int,
        hash_scratch: Vec::new(),
    };
    acc.finish()
}

/// Run the dense code-keyed group-by when the gate admits
/// `frame`/`spec`; `Ok(None)` routes the caller to the hash path.
fn try_dense_group_by(
    frame: &DataFrame,
    spec: &GroupBySpec,
    pool: Option<&crate::pool::WorkerPool>,
) -> Result<Option<DataFrame>> {
    if !crate::encoding::enabled() || spec.keys.len() != 1 {
        return Ok(None);
    }
    let key_col = frame.column(&spec.keys[0])?.column();
    let Some(key) = dense_key(key_col) else {
        return Ok(None);
    };
    let value_col = frame.column(&spec.value)?.column();
    if matches!(value_col, Column::Rle(_)) {
        return Ok(None);
    }
    let value_is_int =
        value_col.dtype() == DType::Int64 || value_col.dtype() == DType::Bool;
    let rows = frame.num_rows();
    let dense = match pool {
        Some(pool) if pool.is_parallel() && rows >= crate::pool::PAR_MIN_ROWS => {
            let morsels = crate::pool::kernel_morsels(rows, pool.threads());
            let partials: Vec<Result<DenseGroups>> =
                pool.run_workers(morsels.len(), |queue| {
                    let mut dense = DenseGroups::new(key.dict.len(), value_is_int);
                    let view = ColView::new(value_col);
                    while let Some(t) = queue.claim() {
                        let (start, len) = morsels[t];
                        dense.update_range(key, &view, start, len, spec.agg);
                    }
                    Ok(dense)
                })?;
            let mut it = partials.into_iter();
            let mut merged = it.next().expect("at least one worker")?;
            for partial in it {
                merged.merge(&partial?);
            }
            merged
        }
        _ => {
            let mut dense = DenseGroups::new(key.dict.len(), value_is_int);
            let view = ColView::new(value_col);
            dense.update_range(key, &view, 0, rows, spec.agg);
            dense
        }
    };
    finish_dense(spec.clone(), key, dense, value_is_int).map(Some)
}

/// One-shot group-by over a whole frame.
pub fn group_by(frame: &DataFrame, spec: &GroupBySpec) -> Result<DataFrame> {
    if spec.keys.is_empty() {
        return Err(ColumnarError::InvalidArgument(
            "groupby requires at least one key".into(),
        ));
    }
    if let Some(out) = try_dense_group_by(frame, spec, None)? {
        return Ok(out);
    }
    let mut acc = GroupByAccumulator::new(spec.clone());
    acc.update(frame)?;
    acc.finish()
}

/// Morsel-parallel group-by: workers claim row-range morsels off the
/// pool's shared queue, fold them into worker-local
/// [`GroupByAccumulator`]s (no input copies — [`update_range`] reads the
/// shared frame in place), and the partials merge through the existing
/// typed merge path, each group keeping its earliest row's key so the
/// result does not depend on which worker claimed which morsel. Falls
/// back to the sequential [`group_by`] below
/// [`PAR_MIN_ROWS`](crate::pool::PAR_MIN_ROWS) or on a single-thread
/// pool; the result is identical either way (the finish step orders
/// groups by rendered key, not by discovery order).
///
/// [`update_range`]: GroupByAccumulator::update_range
pub fn group_by_par(
    frame: &DataFrame,
    spec: &GroupBySpec,
    pool: &crate::pool::WorkerPool,
) -> Result<DataFrame> {
    let rows = frame.num_rows();
    if !pool.is_parallel() || rows < crate::pool::PAR_MIN_ROWS {
        return group_by(frame, spec);
    }
    if spec.keys.is_empty() {
        return Err(ColumnarError::InvalidArgument(
            "groupby requires at least one key".into(),
        ));
    }
    if let Some(out) = try_dense_group_by(frame, spec, Some(pool))? {
        return Ok(out);
    }
    let morsels = crate::pool::kernel_morsels(rows, pool.threads());
    let partials: Vec<Result<GroupByAccumulator>> = pool.run_workers(morsels.len(), |queue| {
        let mut acc = GroupByAccumulator::new(spec.clone());
        while let Some(t) = queue.claim() {
            let (start, len) = morsels[t];
            acc.update_range(frame, start, len)?;
        }
        Ok(acc)
    })?;
    let mut it = partials.into_iter();
    let mut merged = it.next().expect("at least one worker")?;
    for partial in it {
        merged.merge_in_row_order(&partial?);
    }
    merged.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::df;

    fn trips() -> DataFrame {
        df![
            ("day", Column::from_i64(vec![1, 0, 1, 0, 1])),
            (
                "passenger_count",
                Column::from_i64(vec![2, 1, 3, 4, 1])
            ),
            ("fare", Column::from_f64(vec![5.0, 6.0, 7.0, 8.0, 9.0])),
        ]
    }

    fn spec(agg: AggKind) -> GroupBySpec {
        GroupBySpec {
            keys: vec!["day".into()],
            value: "passenger_count".into(),
            agg,
        }
    }

    #[test]
    fn sum_by_key_sorted() {
        let out = group_by(&trips(), &spec(AggKind::Sum)).unwrap();
        assert_eq!(out.num_rows(), 2);
        // keys sorted ascending: day=0 then day=1
        assert_eq!(out.column("day").unwrap().get(0), Scalar::Int(0));
        assert_eq!(out.column("passenger_count").unwrap().get(0), Scalar::Int(5));
        assert_eq!(out.column("passenger_count").unwrap().get(1), Scalar::Int(6));
    }

    #[test]
    fn mean_count_min_max_nunique() {
        let out = group_by(&trips(), &spec(AggKind::Mean)).unwrap();
        assert_eq!(
            out.column("passenger_count").unwrap().get(1),
            Scalar::Float(2.0)
        );
        let out = group_by(&trips(), &spec(AggKind::Count)).unwrap();
        assert_eq!(out.column("passenger_count").unwrap().get(0), Scalar::Int(2));
        let out = group_by(&trips(), &spec(AggKind::Min)).unwrap();
        assert_eq!(out.column("passenger_count").unwrap().get(1), Scalar::Int(1));
        let out = group_by(&trips(), &spec(AggKind::Max)).unwrap();
        assert_eq!(out.column("passenger_count").unwrap().get(1), Scalar::Int(3));
        let out = group_by(&trips(), &spec(AggKind::NUnique)).unwrap();
        assert_eq!(out.column("passenger_count").unwrap().get(1), Scalar::Int(3));
    }

    #[test]
    fn float_values_sum_to_float() {
        let s = GroupBySpec {
            keys: vec!["day".into()],
            value: "fare".into(),
            agg: AggKind::Sum,
        };
        let out = group_by(&trips(), &s).unwrap();
        assert_eq!(out.column("fare").unwrap().get(0), Scalar::Float(14.0));
    }

    #[test]
    fn multi_key_groupby() {
        let df = df![
            ("a", Column::from_strings(vec!["x", "x", "y"])),
            ("b", Column::from_i64(vec![1, 1, 2])),
            ("v", Column::from_i64(vec![10, 20, 30])),
        ];
        let s = GroupBySpec {
            keys: vec!["a".into(), "b".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 3);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(30));
    }

    #[test]
    fn streaming_chunks_equal_oneshot() {
        let df = trips();
        let whole = group_by(&df, &spec(AggKind::Mean)).unwrap();
        let mut acc = GroupByAccumulator::new(spec(AggKind::Mean));
        acc.update(&df.slice(0, 2)).unwrap();
        acc.update(&df.slice(2, 3)).unwrap();
        let chunked = acc.finish().unwrap();
        assert_eq!(whole, chunked);
    }

    #[test]
    fn parallel_merge_equal_oneshot() {
        let df = trips();
        let whole = group_by(&df, &spec(AggKind::Sum)).unwrap();
        let mut left = GroupByAccumulator::new(spec(AggKind::Sum));
        left.update(&df.slice(0, 3)).unwrap();
        let mut right = GroupByAccumulator::new(spec(AggKind::Sum));
        right.update(&df.slice(3, 2)).unwrap();
        left.merge(&right);
        assert_eq!(whole, left.finish().unwrap());
    }

    #[test]
    fn nulls_skipped() {
        let df = df![
            ("k", Column::from_i64(vec![1, 1, 1])),
            ("v", Column::from_opt_i64(vec![Some(1), None, Some(3)])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Count,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(2));
    }

    #[test]
    fn empty_keys_rejected() {
        let s = GroupBySpec {
            keys: vec![],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        assert!(group_by(&trips(), &s).is_err());
    }

    #[test]
    fn agg_kind_parse_roundtrip() {
        for agg in [
            AggKind::Sum,
            AggKind::Mean,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::NUnique,
        ] {
            assert_eq!(AggKind::parse(agg.name()), Some(agg));
        }
        assert_eq!(AggKind::parse("median"), None);
    }

    #[test]
    fn null_keys_group_together() {
        let df = df![
            ("k", Column::from_opt_i64(vec![None, Some(1), None, Some(1)])),
            ("v", Column::from_i64(vec![10, 20, 30, 40])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.num_rows(), 2);
        // canonical order: "1" < "NaN"
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(60));
        assert_eq!(out.column("v").unwrap().get(1), Scalar::Int(40));
        assert!(out.column("k").unwrap().column().is_null_at(1));
    }

    #[test]
    fn string_keys_and_aggregates() {
        let df = df![
            ("city", Column::from_strings(vec!["NY", "LA", "NY", "LA", "SF"])),
            ("name", Column::from_strings(vec!["b", "x", "a", "y", "z"])),
        ];
        let s = GroupBySpec {
            keys: vec!["city".into()],
            value: "name".into(),
            agg: AggKind::Min,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.num_rows(), 3);
        // sorted: LA, NY, SF
        assert_eq!(out.column("city").unwrap().get(1), Scalar::Str("NY".into()));
        assert_eq!(out.column("name").unwrap().get(1), Scalar::Str("a".into()));
        let s = GroupBySpec {
            keys: vec!["city".into()],
            value: "name".into(),
            agg: AggKind::NUnique,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.column("name").unwrap().get(1), Scalar::Int(2));
    }

    #[test]
    fn categorical_keys_match_utf8_semantics() {
        let plain = df![
            ("city", Column::from_strings(vec!["NY", "LA", "NY"])),
            ("v", Column::from_i64(vec![1, 2, 3])),
        ];
        let cat = df![
            (
                "city",
                Column::from_strings(vec!["NY", "LA", "NY"])
                    .to_categorical()
                    .unwrap()
            ),
            ("v", Column::from_i64(vec![1, 2, 3])),
        ];
        let s = GroupBySpec {
            keys: vec!["city".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        assert_eq!(group_by(&plain, &s).unwrap(), group_by(&cat, &s).unwrap());
    }

    #[test]
    fn merge_into_empty_accumulator() {
        let df = trips();
        let mut filled = GroupByAccumulator::new(spec(AggKind::Sum));
        filled.update(&df).unwrap();
        let mut empty = GroupByAccumulator::new(spec(AggKind::Sum));
        empty.merge(&filled);
        assert_eq!(
            empty.finish().unwrap(),
            group_by(&df, &spec(AggKind::Sum)).unwrap()
        );
    }

    #[test]
    fn mid_stream_key_dtype_change_groups_canonically() {
        // The old canonical-string keying grouped Int64 1 and Utf8 "1"
        // together when chunks disagreed on the key dtype; the hashed
        // representation must downgrade to canonical strings and fold
        // the existing groups.
        let chunk1 = df![
            ("k", Column::from_i64(vec![1, 2])),
            ("v", Column::from_i64(vec![10, 20])),
        ];
        let chunk2 = df![
            ("k", Column::from_strings(vec!["1", "3"])),
            ("v", Column::from_i64(vec![30, 40])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let mut acc = GroupByAccumulator::new(s.clone());
        acc.update(&chunk1).unwrap();
        acc.update(&chunk2).unwrap();
        let out = acc.finish().unwrap();
        assert_eq!(out.num_rows(), 3, "canonically-equal keys must fold: {out:?}");
        // sorted canonical order: "1" < "2" < "3"
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(40)); // 10 + 30
        // The merge path unifies representations the same way.
        let mut left = GroupByAccumulator::new(s.clone());
        left.update(&chunk1).unwrap();
        let mut right = GroupByAccumulator::new(s);
        right.update(&chunk2).unwrap();
        left.merge(&right);
        assert_eq!(left.finish().unwrap(), out);
    }

    #[test]
    fn null_string_key_groups_with_literal_nan() {
        // A null key renders as "NaN" under canonical-string semantics, so
        // it groups with a literal "NaN" string key (seed behaviour).
        let df = df![
            (
                "k",
                Column::from_opt_strings(vec![None, Some("NaN".into()), Some("x".into())])
            ),
            ("v", Column::from_i64(vec![1, 2, 4])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let out = group_by(&df, &s).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("v").unwrap().get(0), Scalar::Int(3));
    }

    #[test]
    fn row_order_merge_keeps_the_earliest_key() {
        // Rows 0 (null) and 2 ("NaN") share a group. Merging the later
        // partial first must still yield row 0's null key, as the
        // sequential scan does.
        let df = df![
            (
                "k",
                Column::from_opt_strings(vec![
                    None,
                    Some("x".into()),
                    Some("NaN".into()),
                    Some("x".into())
                ])
            ),
            ("v", Column::from_i64(vec![1, 2, 4, 8])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let mut late = GroupByAccumulator::new(s.clone());
        late.update_range(&df, 2, 2).unwrap();
        let mut early = GroupByAccumulator::new(s.clone());
        early.update_range(&df, 0, 2).unwrap();
        late.merge_in_row_order(&early);
        let out = late.finish().unwrap();
        assert_eq!(out, group_by(&df, &s).unwrap());
        assert!(out.column("k").unwrap().column().is_null_at(0));
    }

    #[test]
    fn heap_size_tracks_string_key_width() {
        let narrow = df![
            ("k", Column::from_strings(vec!["a", "b", "c", "d"])),
            ("v", Column::from_i64(vec![1, 2, 3, 4])),
        ];
        let wide = df![
            (
                "k",
                Column::from_strings(
                    (0..4)
                        .map(|i| format!("an-extremely-wide-composite-key-{i:0>120}"))
                        .collect::<Vec<_>>()
                )
            ),
            ("v", Column::from_i64(vec![1, 2, 3, 4])),
        ];
        let s = GroupBySpec {
            keys: vec!["k".into()],
            value: "v".into(),
            agg: AggKind::Sum,
        };
        let mut a = GroupByAccumulator::new(s.clone());
        a.update(&narrow).unwrap();
        let mut b = GroupByAccumulator::new(s);
        b.update(&wide).unwrap();
        // Same group count, but the wide keys must be charged for their bytes.
        assert!(
            b.heap_size() >= a.heap_size() + 4 * 100,
            "wide string keys under-counted: {} vs {}",
            b.heap_size(),
            a.heap_size()
        );
    }
}
