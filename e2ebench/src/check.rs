//! Compare an execution's printed output with its reference.
//!
//! The comparison has the same two freedoms as the workspace's
//! regression hash (`lafp_interp::result_hash`): row order within a
//! printed table may differ (the Dask backend loses it), and numbers may
//! differ by float noise (parallel and streaming execution re-associate
//! sums). The hash gives the second freedom by rounding every number to
//! ten significant digits, which fails whenever two noisy values fall on
//! either side of a rounding boundary (`877548326949.9999` against
//! `877548326950.0002`). Here numbers are compared within a relative
//! tolerance instead, so no value sits on a boundary.

use std::cmp::Ordering;

/// Largest relative difference two numbers may have and still match:
/// the precision the regression hash keeps.
pub const REL_TOL: f64 = 1e-9;

/// A printed line split into its text and its numbers: every token that
/// parses as a finite `f64` is replaced by `\u{1}` in `shape` and its
/// value is pushed to `numbers`.
#[derive(Debug)]
struct Row {
    shape: String,
    numbers: Vec<f64>,
}

impl Row {
    fn parse(line: &str) -> Row {
        let mut row = Row {
            shape: String::with_capacity(line.len()),
            numbers: Vec::new(),
        };
        let mut rest = line;
        loop {
            let end = rest.find(['\t', ' ']).unwrap_or(rest.len());
            match rest[..end].parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    row.shape.push('\u{1}');
                    row.numbers.push(v);
                }
                _ => row.shape.push_str(&rest[..end]),
            }
            // Keep which separator stood here (both are one byte).
            let Some(separator) = rest[end..].chars().next() else {
                return row;
            };
            row.shape.push(separator);
            rest = &rest[end + 1..];
        }
    }

    fn order(&self, other: &Row) -> Ordering {
        self.shape.cmp(&other.shape).then_with(|| {
            let pairs = self.numbers.iter().zip(&other.numbers);
            pairs
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }

    fn matches(&self, other: &Row) -> bool {
        self.shape == other.shape
            && self.numbers.len() == other.numbers.len()
            && self
                .numbers
                .iter()
                .zip(&other.numbers)
                .all(|(&a, &b)| close(a, b))
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn rows(entry: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = entry.lines().map(Row::parse).collect();
    rows.sort_by(Row::order);
    rows
}

/// `None` when `got` matches `want`: the same number of printed entries,
/// and each entry the same lines in any order, numbers within
/// [`REL_TOL`]. Otherwise the first difference.
pub fn diff(got: &[String], want: &[String]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} printed entries, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (g_rows, w_rows) = (rows(g), rows(w));
        if g_rows.len() != w_rows.len() {
            return Some(format!(
                "entry {i}: {} lines, reference has {}",
                g_rows.len(),
                w_rows.len()
            ));
        }
        if g_rows.iter().zip(&w_rows).any(|(a, b)| !a.matches(b)) {
            return Some(format!("entry {i}: {g:?} != reference {w:?}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(text: &str) -> Vec<String> {
        vec![text.to_string()]
    }

    #[test]
    fn float_noise_across_a_rounding_boundary_matches() {
        let want = one("state\tfunding_total\nMA\t877548326949.9999");
        let got = one("state\tfunding_total\nMA\t877548326950.0002");
        assert_eq!(diff(&got, &want), None);
    }

    #[test]
    fn row_order_does_not_matter() {
        let want = one("day\tn\n0\t5\n1\t7 rows");
        let got = one("day\tn\n1\t7 rows\n0\t5");
        assert_eq!(diff(&got, &want), None);
    }

    #[test]
    fn real_differences_do_not_match() {
        let want = one("count: 11137");
        assert!(diff(&one("count: 11138"), &want).is_some());
        assert!(diff(&one("count:\t11137"), &want).is_some());
        assert!(diff(&one("total: 11137"), &want).is_some());
        assert!(diff(&one("count: 11137 NaN"), &want).is_some());
        assert!(diff(&one("count: 1.0000001e4"), &one("count: 1e4")).is_some());
        assert!(diff(&one("x\ny"), &one("x")).is_some());
        let two = vec!["count: 11137".to_string(), "x".to_string()];
        assert!(diff(&two, &want).is_some());
    }

    #[test]
    fn text_tokens_compare_exactly() {
        assert_eq!(diff(&one("NaN inf x"), &one("NaN inf x")), None);
        assert!(diff(&one("NaN"), &one("nan")).is_some());
    }
}
