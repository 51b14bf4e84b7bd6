//! Scalar and aggregate function implementations.
//!
//! Aggregates are built on *mergeable accumulators* ([`AggAcc`]): every
//! engine — the naive reference interpreter, the serial columnar executor
//! and the partition-parallel executor — feeds rows into the same
//! accumulator type and the parallel executor additionally merges partial
//! states across partitions. Floating-point sums use [`ExactSum`]
//! (Shewchuk-style error-free accumulation, finished with the `fsum`
//! rounding step), so a sum is the correctly rounded exact result and is
//! therefore *independent of partitioning*: serial, parallel and reference
//! results are bit-identical by construction, not by luck.

use crate::value::Value;
use crate::{QueryError, Result};

/// True when `name` (uppercase) is an aggregate function.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "AVG" | "SUM" | "MIN" | "MAX" | "COUNT" | "STDDEV" | "VARIANCE" | "PERCENTILE")
}

/// True when `name` (uppercase) is a window function.
pub fn is_window(name: &str) -> bool {
    matches!(name, "LAG" | "LEAD")
}

/// Evaluates a scalar function over already-evaluated arguments.
pub fn eval_scalar(name: &str, args: &[Value]) -> Result<Value> {
    match name {
        "CONCAT" => {
            // NULL inputs render as empty (Spark-style CONCAT returns NULL;
            // the paper's grouping keys are friendlier with empty) — we
            // follow the forgiving variant and document it.
            let mut s = String::new();
            for a in args {
                if !a.is_null() {
                    s.push_str(&a.render());
                }
            }
            Ok(Value::Str(s))
        }
        "SPLIT" => {
            expect_arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) => Ok(Value::Null),
                (Value::Str(s), Value::Str(sep)) => {
                    if sep.is_empty() {
                        return Err(QueryError::BadFunction(
                            "SPLIT separator must be non-empty".into(),
                        ));
                    }
                    Ok(Value::List(
                        s.split(sep.as_str()).map(|p| Value::Str(p.to_string())).collect(),
                    ))
                }
                _ => Err(QueryError::Type("SPLIT expects (string, string)".into())),
            }
        }
        "UPPER" => unary_string(name, args, |s| s.to_uppercase()),
        "LOWER" => unary_string(name, args, |s| s.to_lowercase()),
        "TRIM" => unary_string(name, args, |s| s.trim().to_string()),
        "LENGTH" => {
            expect_arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::List(l) => Ok(Value::Int(l.len() as i64)),
                _ => Err(QueryError::Type("LENGTH expects a string or list".into())),
            }
        }
        "COALESCE" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "GREATEST" => fold_numeric(name, args, f64::max),
        "LEAST" => fold_numeric(name, args, f64::min),
        "ABS" => unary_numeric(name, args, f64::abs),
        "SQRT" => unary_numeric(name, args, f64::sqrt),
        "LN" => unary_numeric(name, args, f64::ln),
        "EXP" => unary_numeric(name, args, f64::exp),
        "FLOOR" => unary_numeric(name, args, f64::floor),
        "CEIL" => unary_numeric(name, args, f64::ceil),
        "ROUND" => {
            if args.len() == 1 {
                return unary_numeric(name, args, |v| v.round());
            }
            expect_arity(name, args, 2)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let v = numeric_arg(name, &args[0])?;
            let digits = args[1]
                .as_i64()
                .ok_or_else(|| QueryError::Type("ROUND digits must be integer".into()))?;
            // Clamp before narrowing: `as i32` would wrap huge digit counts
            // into small or negative ones. Past ±400 the scale is already
            // inf or 0 for every f64.
            let scale = 10f64.powi(digits.clamp(-400, 400) as i32);
            if scale == 0.0 {
                // Rounding to a place above every finite magnitude.
                return Ok(Value::Float(0.0f64.copysign(v)));
            }
            if !scale.is_finite() || !(v * scale).is_finite() {
                // More digits than the value carries: nothing to round.
                return Ok(Value::Float(v));
            }
            Ok(Value::Float((v * scale).round() / scale))
        }
        "POW" | "POWER" => {
            expect_arity(name, args, 2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let a = numeric_arg(name, &args[0])?;
            let b = numeric_arg(name, &args[1])?;
            Ok(Value::Float(a.powf(b)))
        }
        "SUBSTR" | "SUBSTRING" => {
            // SUBSTR(s, start_1_based[, len])
            if args.len() != 2 && args.len() != 3 {
                return Err(QueryError::BadFunction(format!("{name} expects 2 or 3 args")));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| QueryError::Type("SUBSTR expects a string".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| QueryError::Type("SUBSTR start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let begin = (start.max(1) as usize - 1).min(chars.len());
            let end = match args.get(2) {
                Some(l) => {
                    let len = l
                        .as_i64()
                        .ok_or_else(|| QueryError::Type("SUBSTR length must be integer".into()))?
                        .max(0) as usize;
                    (begin + len).min(chars.len())
                }
                None => chars.len(),
            };
            Ok(Value::Str(chars[begin..end].iter().collect()))
        }
        "REPLACE" => {
            expect_arity(name, args, 3)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            match (&args[0], &args[1], &args[2]) {
                (Value::Str(s), Value::Str(from), Value::Str(to)) => {
                    Ok(Value::Str(s.replace(from.as_str(), to)))
                }
                _ => Err(QueryError::Type("REPLACE expects three strings".into())),
            }
        }
        "HOSTGROUP" => {
            // The UDF from Appendix C: hostgroup('web-12') == 'web'.
            expect_arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => {
                    Ok(Value::Str(s.split('-').next().unwrap_or_default().to_string()))
                }
                _ => Err(QueryError::Type("HOSTGROUP expects a string".into())),
            }
        }
        "IF" => {
            expect_arity(name, args, 3)?;
            Ok(if args[0].is_true() { args[1].clone() } else { args[2].clone() })
        }
        "NULLIF" => {
            expect_arity(name, args, 2)?;
            if args[0].sql_cmp(&args[1]) == Some(std::cmp::Ordering::Equal) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        other => Err(QueryError::BadFunction(format!("unknown function {other}"))),
    }
}

/// Evaluates an aggregate function over a group's argument values.
///
/// `args_per_row` holds, for each row in the group, the evaluated argument
/// list. NULL first-arguments are skipped (SQL semantics) except by COUNT
/// whose argument convention here is `COUNT(*)` ≙ `COUNT(1)`.
pub fn eval_aggregate(name: &str, args_per_row: &[Vec<Value>]) -> Result<Value> {
    let mut acc = AggAcc::new(name)
        .ok_or_else(|| QueryError::BadFunction(format!("unknown aggregate {name}")))?;
    for row in args_per_row {
        acc.push(row)?;
    }
    acc.finish()
}

// ---------------------------------------------------------------------------
// Mergeable aggregate accumulators
// ---------------------------------------------------------------------------

/// Error-free f64 accumulation: a Shewchuk expansion of non-overlapping
/// partials whose sum is the *exact* real sum of everything added.
///
/// Because the expansion represents the exact sum, adding values (or
/// merging whole expansions) in any order produces the same final
/// [`ExactSum::value`] — the property the partition-parallel aggregate
/// relies on to match serial execution bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Non-overlapping partials, ascending in magnitude.
    partials: Vec<f64>,
    /// Plain running sum of non-finite inputs (inf/NaN poison the
    /// two-sum trick; they propagate here instead, order-independently).
    special: f64,
}

impl ExactSum {
    /// Adds one value.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let mut x = x;
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Stages the expansion into a stack array for a bulk fold. Returns
    /// `None` if the expansion is too large to stage — impossible by the
    /// non-overlap invariant (see [`BulkSum`]), but callers fall back to
    /// per-element [`ExactSum::add`] defensively.
    pub(crate) fn bulk(&mut self) -> Option<BulkSum<'_>> {
        if self.partials.len() > BULK_SLOTS - 8 {
            return None;
        }
        let mut lows = [0.0f64; BULK_SLOTS];
        let (top, n_lows) = match self.partials.split_last() {
            Some((&top, rest)) => {
                lows[..rest.len()].copy_from_slice(rest);
                (Some(top), rest.len())
            }
            None => (None, 0),
        };
        Some(BulkSum { lows, n_lows, top, special: self.special, target: self })
    }

    /// Folds another expansion in (still exact).
    pub fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
        self.special += other.special;
    }

    /// The correctly rounded sum (CPython `math.fsum` finalization).
    pub fn value(&self) -> f64 {
        if self.special != 0.0 || self.special.is_nan() {
            return self.special + self.partials.iter().sum::<f64>();
        }
        let mut n = self.partials.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut x = self.partials[n];
        let mut lo = 0.0;
        while n > 0 {
            n -= 1;
            let y = self.partials[n];
            let hi = x + y;
            lo = y - (hi - x);
            x = hi;
            if lo != 0.0 {
                break;
            }
        }
        // Round-half-even correction against the next lower partial.
        if n > 0
            && ((lo < 0.0 && self.partials[n - 1] < 0.0)
                || (lo > 0.0 && self.partials[n - 1] > 0.0))
        {
            let y = lo * 2.0;
            let z = x + y;
            if y == z - x {
                x = z;
            }
        }
        x
    }
}

/// Slots in a [`BulkSum`] stack array. A non-overlapping f64 expansion
/// has at most ≈40 terms (the ~2098-bit exponent span of finite doubles
/// divided by 53 mantissa bits per partial), so 64 leaves ample margin.
pub(crate) const BULK_SLOTS: usize = 64;

/// Stack-staged continuation of an [`ExactSum`] expansion for bulk folds.
///
/// [`BulkSum::add`] runs the *identical* per-element algorithm as
/// [`ExactSum::add`] — same compare/swap, same two-sum, same compaction
/// order — so the expansion written back by [`BulkSum::finish`] is
/// bit-for-bit the one serial `add` calls would have produced. Two things
/// change *where the work happens*, not what it computes:
///
/// * the partials live in a fixed stack array instead of the `Vec`,
///   keeping per-element capacity checks / `truncate` / `push` out of
///   the hot loop;
/// * the expansion is held as `lows ++ [top]` with the top (largest)
///   partial in a register field. When every intermediate sum is exactly
///   representable — the common case for telemetry-scale data — the
///   expansion is a single partial, `n_lows` stays 0 and the whole add
///   is register arithmetic with no store→load round-trip on the serial
///   dependency chain.
///
/// Dropping a `BulkSum` without `finish` leaves the underlying sum
/// untouched.
pub(crate) struct BulkSum<'a> {
    /// All partials below the top one, ascending in magnitude.
    lows: [f64; BULK_SLOTS],
    /// Occupied `lows` slots.
    n_lows: usize,
    /// The largest partial; `None` for an empty expansion.
    top: Option<f64>,
    special: f64,
    target: &'a mut ExactSum,
}

impl BulkSum<'_> {
    /// Adds one value — the [`ExactSum::add`] algorithm over
    /// `lows ++ [top]`.
    #[inline]
    pub(crate) fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let Some(top) = self.top else {
            // Empty expansion: the walk is vacuous and `add` pushes x.
            self.top = Some(x);
            return;
        };
        let mut x = x;
        let mut kept = 0;
        // The walk over every partial but the last, in ascending order —
        // skipped entirely while the expansion is a single partial.
        for j in 0..self.n_lows {
            let mut y = self.lows[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.lows[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        // The top partial: same step, with y in a register.
        let mut y = top;
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            debug_assert!(kept < BULK_SLOTS, "expansion exceeded {BULK_SLOTS} terms");
            self.lows[kept] = lo;
            kept += 1;
        }
        self.n_lows = kept;
        self.top = Some(hi);
    }

    /// Writes the staged expansion back to the underlying sum.
    pub(crate) fn finish(self) {
        self.target.partials.clear();
        self.target.partials.extend_from_slice(&self.lows[..self.n_lows]);
        if let Some(top) = self.top {
            self.target.partials.push(top);
        }
        self.target.special = self.special;
    }
}

/// Runs `f` over every selected valid row index, dispatching on the
/// validity bitmap once instead of per element — the `None` (all-valid)
/// loop is the raw selection with no bitmap check. The `Some` arm is
/// [`crate::kernel::is_valid`]'s bit test.
#[inline]
fn for_each_valid(
    sel: impl Iterator<Item = usize>,
    validity: Option<&[u64]>,
    f: impl FnMut(usize),
) {
    match validity {
        None => sel.for_each(f),
        Some(bits) => sel.filter(|&i| bits[i >> 6] >> (i & 63) & 1 == 1).for_each(f),
    }
}

/// One aggregate's mergeable partial state.
///
/// Every engine computes aggregates by `new` → `push` per row → `finish`;
/// the partition-parallel executor additionally `merge`s partials in
/// partition order. For each function, `merge` is *exactly* equivalent to
/// having pushed the second partial's rows after the first's — sums are
/// error-free (see [`ExactSum`]), COUNT/SUM-over-Int are integer-exact,
/// MIN/MAX folds candidates per comparability class, and PERCENTILE gathers
/// raw values and only sorts at `finish` — so partitioning never changes a
/// result.
#[derive(Debug, Clone)]
pub enum AggAcc {
    /// `COUNT(x)`: non-null rows.
    Count {
        /// Rows counted so far.
        n: i64,
    },
    /// `SUM(x)`: Int-typed when every input is an Int, Float otherwise.
    Sum {
        /// Exact integer sum (i128 cannot overflow from i64 inputs).
        int: i128,
        /// Exact float sum over all numeric inputs.
        float: ExactSum,
        /// True once any non-Int numeric input was seen.
        saw_float: bool,
        /// Numeric inputs seen.
        n: usize,
    },
    /// `AVG(x)`.
    Avg {
        /// Exact sum.
        sum: ExactSum,
        /// Numeric inputs seen.
        n: usize,
    },
    /// `VARIANCE(x)` / `STDDEV(x)` — *sample* (n−1) variance.
    Var {
        /// Exact Σv.
        sum: ExactSum,
        /// Exact Σv².
        sumsq: ExactSum,
        /// Numeric inputs seen.
        n: usize,
        /// Take the square root at finish (STDDEV).
        stddev: bool,
    },
    /// `MIN(x)` / `MAX(x)`.
    MinMax {
        /// One running best per comparability class, in first-seen class
        /// order; the head is the fold result. Keeping per-class bests
        /// makes the merge order-equivalent to the serial row fold even
        /// when a group mixes incomparable types.
        candidates: Vec<Value>,
        /// MIN when true.
        want_min: bool,
    },
    /// `PERCENTILE(x, p)` with constant `p` per group.
    Percentile {
        /// Gathered numeric inputs (sorted at finish).
        vals: Vec<f64>,
        /// The pinned p (first non-null seen; later disagreement errors).
        p: Option<f64>,
    },
}

impl AggAcc {
    /// A fresh accumulator for the (uppercase) aggregate name.
    pub fn new(name: &str) -> Option<AggAcc> {
        Some(match name {
            "COUNT" => AggAcc::Count { n: 0 },
            "SUM" => AggAcc::Sum { int: 0, float: ExactSum::default(), saw_float: false, n: 0 },
            "AVG" => AggAcc::Avg { sum: ExactSum::default(), n: 0 },
            "VARIANCE" => AggAcc::Var {
                sum: ExactSum::default(),
                sumsq: ExactSum::default(),
                n: 0,
                stddev: false,
            },
            "STDDEV" => AggAcc::Var {
                sum: ExactSum::default(),
                sumsq: ExactSum::default(),
                n: 0,
                stddev: true,
            },
            "MIN" => AggAcc::MinMax { candidates: Vec::new(), want_min: true },
            "MAX" => AggAcc::MinMax { candidates: Vec::new(), want_min: false },
            "PERCENTILE" => AggAcc::Percentile { vals: Vec::new(), p: None },
            _ => return None,
        })
    }

    /// Feeds one row's evaluated argument list.
    pub fn push(&mut self, args: &[Value]) -> Result<()> {
        let first = args.first().unwrap_or(&Value::Null);
        match self {
            AggAcc::Count { n } => {
                if !first.is_null() {
                    *n += 1;
                }
            }
            AggAcc::Sum { int, float, saw_float, n } => match first {
                Value::Int(i) => {
                    *int += i128::from(*i);
                    float.add(*i as f64);
                    *n += 1;
                }
                other => {
                    if let Some(f) = other.as_f64() {
                        float.add(f);
                        *saw_float = true;
                        *n += 1;
                    }
                }
            },
            AggAcc::Avg { sum, n } => {
                if let Some(f) = first.as_f64() {
                    sum.add(f);
                    *n += 1;
                }
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                if let Some(f) = first.as_f64() {
                    sum.add(f);
                    sumsq.add(f * f);
                    *n += 1;
                }
            }
            AggAcc::MinMax { candidates, want_min } => {
                if !first.is_null() {
                    fold_minmax(candidates, first.clone(), *want_min);
                }
            }
            AggAcc::Percentile { vals, p } => {
                if let Some(pv) = args.get(1).and_then(Value::as_f64) {
                    if !(0.0..=1.0).contains(&pv) {
                        return Err(QueryError::BadFunction(
                            "PERCENTILE p must be in [0,1]".into(),
                        ));
                    }
                    match *p {
                        None => *p = Some(pv),
                        Some(prev) if prev == pv => {}
                        Some(prev) => {
                            return Err(QueryError::BadFunction(format!(
                                "PERCENTILE p must be constant within a group (saw {prev} and {pv})"
                            )))
                        }
                    }
                }
                if let Some(v) = first.as_f64() {
                    vals.push(v);
                }
            }
        }
        Ok(())
    }

    /// Feeds one non-null Float argument; exactly `push(&[Value::Float(v)])`
    /// minus the boxing (single-argument pushes can never hit PERCENTILE's
    /// p validation, so this is infallible).
    pub fn push_f64(&mut self, v: f64) {
        match self {
            AggAcc::Count { n } => *n += 1,
            AggAcc::Sum { float, saw_float, n, .. } => {
                float.add(v);
                *saw_float = true;
                *n += 1;
            }
            AggAcc::Avg { sum, n } => {
                sum.add(v);
                *n += 1;
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                sum.add(v);
                sumsq.add(v * v);
                *n += 1;
            }
            AggAcc::MinMax { candidates, want_min } => {
                fold_minmax(candidates, Value::Float(v), *want_min);
            }
            AggAcc::Percentile { vals, .. } => vals.push(v),
        }
    }

    /// Feeds one non-null Int argument; exactly `push(&[Value::Int(v)])`
    /// minus the boxing.
    pub fn push_i64(&mut self, v: i64) {
        match self {
            AggAcc::Count { n } => *n += 1,
            AggAcc::Sum { int, float, n, .. } => {
                *int += i128::from(v);
                float.add(v as f64);
                *n += 1;
            }
            AggAcc::Avg { sum, n } => {
                sum.add(v as f64);
                *n += 1;
            }
            AggAcc::Var { sum, sumsq, n, .. } => {
                let f = v as f64;
                sum.add(f);
                sumsq.add(f * f);
                *n += 1;
            }
            AggAcc::MinMax { candidates, want_min } => {
                fold_minmax(candidates, Value::Int(v), *want_min);
            }
            AggAcc::Percentile { vals, .. } => vals.push(v as f64),
        }
    }

    /// Bulk fold over a Float minicolumn: equivalent to `push_f64` for
    /// every selected valid row, with the per-variant dispatch hoisted out
    /// of the loop. MIN/MAX runs a pure `f64` running best whenever the
    /// numeric candidate class is Float-typed (strict compares keep the
    /// incumbent on ties — including `-0.0` vs `0.0` — exactly like
    /// [`fold_minmax`]'s first-seen-wins rule); NaN inputs append their own
    /// incomparable candidate classes in encounter order.
    ///
    /// The sum-based arms dispatch on the validity bitmap once
    /// ([`for_each_valid`]) so the all-valid loop carries no per-element
    /// bitmap check.
    pub fn fold_f64s(
        &mut self,
        vals: &[f64],
        sel: impl Iterator<Item = usize>,
        validity: Option<&[u64]>,
    ) {
        let valid = |i: usize| crate::kernel::is_valid(validity, i);
        match self {
            AggAcc::Count { n } => {
                for i in sel {
                    *n += i64::from(valid(i));
                }
            }
            AggAcc::Sum { float, saw_float, n, .. } => {
                let before = *n;
                match float.bulk() {
                    Some(mut bulk) => {
                        for_each_valid(sel, validity, |i| {
                            bulk.add(vals[i]);
                            *n += 1;
                        });
                        bulk.finish();
                    }
                    None => for_each_valid(sel, validity, |i| {
                        float.add(vals[i]);
                        *n += 1;
                    }),
                }
                *saw_float |= *n != before;
            }
            AggAcc::Avg { sum, n } => match sum.bulk() {
                Some(mut bulk) => {
                    for_each_valid(sel, validity, |i| {
                        bulk.add(vals[i]);
                        *n += 1;
                    });
                    bulk.finish();
                }
                None => for_each_valid(sel, validity, |i| {
                    sum.add(vals[i]);
                    *n += 1;
                }),
            },
            AggAcc::Var { sum, sumsq, n, .. } => match (sum.bulk(), sumsq.bulk()) {
                (Some(mut bs), Some(mut bq)) => {
                    for_each_valid(sel, validity, |i| {
                        let v = vals[i];
                        bs.add(v);
                        bq.add(v * v);
                        *n += 1;
                    });
                    bs.finish();
                    bq.finish();
                }
                _ => for_each_valid(sel, validity, |i| {
                    let v = vals[i];
                    sum.add(v);
                    sumsq.add(v * v);
                    *n += 1;
                }),
            },
            AggAcc::MinMax { candidates, want_min } => {
                let want_min = *want_min;
                // The (single) candidate class a non-NaN number folds into:
                // the first candidate that is numeric and not NaN — every
                // earlier class is incomparable with a finite number, so
                // skipping the scan per element is exact.
                let mut num_pos =
                    candidates.iter().position(|c| c.as_f64().is_some_and(|f| !f.is_nan()));
                if num_pos.is_some_and(|p| !matches!(candidates[p], Value::Float(_))) {
                    // Int/Bool incumbent: rare — per-element sql_cmp fold.
                    for i in sel.filter(|&i| valid(i)) {
                        fold_minmax(candidates, Value::Float(vals[i]), want_min);
                    }
                    return;
                }
                let mut best: Option<f64> = num_pos.map(|p| match candidates[p] {
                    Value::Float(c) => c,
                    _ => unreachable!("checked Float above"),
                });
                for i in sel.filter(|&i| valid(i)) {
                    let v = vals[i];
                    if v.is_nan() {
                        // Incomparable: its own candidate class, in
                        // encounter order.
                        candidates.push(Value::Float(v));
                        continue;
                    }
                    best = Some(match best {
                        None => {
                            // First numeric: the class is created *here* so
                            // it keeps its encounter position among NaNs.
                            candidates.push(Value::Float(v));
                            num_pos = Some(candidates.len() - 1);
                            v
                        }
                        Some(c) if want_min => {
                            if v < c {
                                v
                            } else {
                                c
                            }
                        }
                        Some(c) => {
                            if v > c {
                                v
                            } else {
                                c
                            }
                        }
                    });
                }
                if let (Some(p), Some(b)) = (num_pos, best) {
                    candidates[p] = Value::Float(b);
                }
            }
            AggAcc::Percentile { vals: acc, .. } => {
                acc.extend(sel.filter(|&i| valid(i)).map(|i| vals[i]));
            }
        }
    }

    /// Bulk fold over an Int minicolumn: `push_i64` for every selected
    /// valid row with hoisted dispatch. MIN/MAX keeps exact i64 compares
    /// while the numeric candidate class is Int-typed.
    pub fn fold_i64s(
        &mut self,
        vals: &[i64],
        sel: impl Iterator<Item = usize>,
        validity: Option<&[u64]>,
    ) {
        let valid = |i: usize| crate::kernel::is_valid(validity, i);
        match self {
            AggAcc::Count { n } => {
                for i in sel {
                    *n += i64::from(valid(i));
                }
            }
            AggAcc::Sum { int, float, n, .. } => match float.bulk() {
                Some(mut bulk) => {
                    for_each_valid(sel, validity, |i| {
                        *int += i128::from(vals[i]);
                        bulk.add(vals[i] as f64);
                        *n += 1;
                    });
                    bulk.finish();
                }
                None => for_each_valid(sel, validity, |i| {
                    *int += i128::from(vals[i]);
                    float.add(vals[i] as f64);
                    *n += 1;
                }),
            },
            AggAcc::Avg { sum, n } => match sum.bulk() {
                Some(mut bulk) => {
                    for_each_valid(sel, validity, |i| {
                        bulk.add(vals[i] as f64);
                        *n += 1;
                    });
                    bulk.finish();
                }
                None => for_each_valid(sel, validity, |i| {
                    sum.add(vals[i] as f64);
                    *n += 1;
                }),
            },
            AggAcc::Var { sum, sumsq, n, .. } => match (sum.bulk(), sumsq.bulk()) {
                (Some(mut bs), Some(mut bq)) => {
                    for_each_valid(sel, validity, |i| {
                        let v = vals[i] as f64;
                        bs.add(v);
                        bq.add(v * v);
                        *n += 1;
                    });
                    bs.finish();
                    bq.finish();
                }
                _ => for_each_valid(sel, validity, |i| {
                    let v = vals[i] as f64;
                    sum.add(v);
                    sumsq.add(v * v);
                    *n += 1;
                }),
            },
            AggAcc::MinMax { candidates, want_min } => {
                let want_min = *want_min;
                let mut num_pos =
                    candidates.iter().position(|c| c.as_f64().is_some_and(|f| !f.is_nan()));
                if num_pos.is_some_and(|p| !matches!(candidates[p], Value::Int(_))) {
                    for i in sel.filter(|&i| valid(i)) {
                        fold_minmax(candidates, Value::Int(vals[i]), want_min);
                    }
                    return;
                }
                let mut best: Option<i64> = num_pos.map(|p| match candidates[p] {
                    Value::Int(c) => c,
                    _ => unreachable!("checked Int above"),
                });
                for i in sel.filter(|&i| valid(i)) {
                    let v = vals[i];
                    best = Some(match best {
                        None => {
                            candidates.push(Value::Int(v));
                            num_pos = Some(candidates.len() - 1);
                            v
                        }
                        Some(c) if want_min => c.min(v),
                        Some(c) => c.max(v),
                    });
                }
                if let (Some(p), Some(b)) = (num_pos, best) {
                    candidates[p] = Value::Int(b);
                }
            }
            AggAcc::Percentile { vals: acc, .. } => {
                acc.extend(sel.filter(|&i| valid(i)).map(|i| vals[i] as f64));
            }
        }
    }

    /// Folds another partial in; equivalent to pushing `other`'s rows
    /// after this accumulator's rows.
    pub fn merge(&mut self, other: AggAcc) -> Result<()> {
        match (self, other) {
            (AggAcc::Count { n }, AggAcc::Count { n: o }) => *n += o,
            (
                AggAcc::Sum { int, float, saw_float, n },
                AggAcc::Sum { int: oi, float: of, saw_float: os, n: on },
            ) => {
                *int += oi;
                float.merge(&of);
                *saw_float |= os;
                *n += on;
            }
            (AggAcc::Avg { sum, n }, AggAcc::Avg { sum: os, n: on }) => {
                sum.merge(&os);
                *n += on;
            }
            (AggAcc::Var { sum, sumsq, n, .. }, AggAcc::Var { sum: os, sumsq: oss, n: on, .. }) => {
                sum.merge(&os);
                sumsq.merge(&oss);
                *n += on;
            }
            (AggAcc::MinMax { candidates, want_min }, AggAcc::MinMax { candidates: oc, .. }) => {
                for v in oc {
                    fold_minmax(candidates, v, *want_min);
                }
            }
            (AggAcc::Percentile { vals, p }, AggAcc::Percentile { vals: ov, p: op }) => {
                match (*p, op) {
                    (Some(a), Some(b)) if a != b => {
                        return Err(QueryError::BadFunction(format!(
                            "PERCENTILE p must be constant within a group (saw {a} and {b})"
                        )))
                    }
                    (None, some) => *p = some,
                    _ => {}
                }
                vals.extend(ov);
            }
            _ => unreachable!("merging mismatched aggregate accumulators"),
        }
        Ok(())
    }

    /// The aggregate's final value.
    pub fn finish(self) -> Result<Value> {
        match self {
            AggAcc::Count { n } => Ok(Value::Int(n)),
            AggAcc::Sum { int, float, saw_float, n } => {
                if n == 0 {
                    Ok(Value::Null)
                } else if !saw_float {
                    // All-Int input keeps Int typing; i64 overflow promotes
                    // to the exact float sum.
                    match i64::try_from(int) {
                        Ok(i) => Ok(Value::Int(i)),
                        Err(_) => Ok(Value::Float(float.value())),
                    }
                } else {
                    Ok(Value::Float(float.value()))
                }
            }
            AggAcc::Avg { sum, n } => {
                if n == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(sum.value() / n as f64))
                }
            }
            AggAcc::Var { sum, sumsq, n, stddev } => {
                if n < 2 {
                    return Ok(Value::Null);
                }
                let s = sum.value();
                let ss = sumsq.value();
                // Sample (n−1) variance from exact moments; the subtraction
                // can go epsilon-negative, never meaningfully so.
                let mut var = (ss - s * s / n as f64) / (n as f64 - 1.0);
                if var < 0.0 {
                    var = 0.0;
                }
                Ok(Value::Float(if stddev { var.sqrt() } else { var }))
            }
            AggAcc::MinMax { candidates, .. } => {
                Ok(candidates.into_iter().next().unwrap_or(Value::Null))
            }
            AggAcc::Percentile { mut vals, p } => {
                let p = p.ok_or_else(|| {
                    QueryError::BadFunction("PERCENTILE needs a p argument".into())
                })?;
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                vals.sort_by(f64::total_cmp);
                // Linear interpolation between closest ranks.
                let idx = p * (vals.len() - 1) as f64;
                let lo = idx.floor() as usize;
                let hi = idx.ceil() as usize;
                let frac = idx - lo as f64;
                Ok(Value::Float(vals[lo] * (1.0 - frac) + vals[hi] * frac))
            }
        }
    }
}

/// One step of the MIN/MAX fold: replace the candidate `v` is comparable
/// with when `v` is strictly better, append `v` as a new class head when it
/// compares with nothing. Ties keep the incumbent (first-seen wins), which
/// is what makes the fold merge-associative.
fn fold_minmax(candidates: &mut Vec<Value>, v: Value, want_min: bool) {
    for c in candidates.iter_mut() {
        match v.sql_cmp(c) {
            Some(std::cmp::Ordering::Less) => {
                if want_min {
                    *c = v;
                }
                return;
            }
            Some(std::cmp::Ordering::Greater) => {
                if !want_min {
                    *c = v;
                }
                return;
            }
            Some(std::cmp::Ordering::Equal) => return,
            None => {}
        }
    }
    candidates.push(v);
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(QueryError::BadFunction(format!("{name} expects {n} argument(s), got {}", args.len())))
    }
}

fn numeric_arg(name: &str, v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| QueryError::Type(format!("{name} expects a numeric argument, got {v}")))
}

fn unary_numeric(name: &str, args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value> {
    expect_arity(name, args, 1)?;
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::Float(f(numeric_arg(name, &args[0])?)))
}

fn unary_string(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    expect_arity(name, args, 1)?;
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Str(f(s))),
        _ => Err(QueryError::Type(format!("{name} expects a string"))),
    }
}

fn fold_numeric(name: &str, args: &[Value], f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    if args.is_empty() {
        return Err(QueryError::BadFunction(format!("{name} needs arguments")));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let mut acc = numeric_arg(name, &args[0])?;
    for a in &args[1..] {
        acc = f(acc, numeric_arg(name, a)?);
    }
    Ok(Value::Float(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every fold/push shortcut must agree with the boxed `push` loop.
    fn fold_matches_push(name: &str, vals: &[f64], sel: &[usize], validity: Option<&[u64]>) {
        let mut folded = AggAcc::new(name).unwrap();
        folded.fold_f64s(vals, sel.iter().copied(), validity);
        let mut pushed = AggAcc::new(name).unwrap();
        for &i in sel {
            if crate::kernel::is_valid(validity, i) {
                pushed.push(&[Value::Float(vals[i])]).unwrap();
            } else {
                pushed.push(&[Value::Null]).unwrap();
            }
        }
        assert_eq!(
            format!("{:?}", folded.finish()),
            format!("{:?}", pushed.finish()),
            "{name} over {vals:?} sel {sel:?}"
        );
    }

    #[test]
    fn typed_folds_match_boxed_pushes() {
        let vals = [3.0, f64::NAN, -0.0, 0.0, f64::INFINITY, 1.5, f64::NAN, -2.0];
        let all: Vec<usize> = (0..vals.len()).collect();
        let validity = vec![0b10110101u64]; // rows 1, 3, 6 are NULL
        for name in ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV", "MIN", "MAX"] {
            fold_matches_push(name, &vals, &all, None);
            fold_matches_push(name, &vals, &all, Some(&validity));
            fold_matches_push(name, &vals, &[], None); // empty selection
            fold_matches_push(name, &vals, &[4, 6, 1], None); // NaN/inf only-ish
        }
    }

    #[test]
    fn typed_i64_folds_match_boxed_pushes() {
        let vals = [5i64, i64::MAX, -3, i64::MIN, 0, 7];
        let all: Vec<usize> = (0..vals.len()).collect();
        for name in ["COUNT", "SUM", "AVG", "MIN", "MAX"] {
            let mut folded = AggAcc::new(name).unwrap();
            folded.fold_i64s(&vals, all.iter().copied(), None);
            let mut pushed = AggAcc::new(name).unwrap();
            for &i in &all {
                pushed.push(&[Value::Int(vals[i])]).unwrap();
            }
            assert_eq!(
                format!("{:?}", folded.finish()),
                format!("{:?}", pushed.finish()),
                "{name}"
            );
        }
    }

    #[test]
    fn fold_preserves_nan_class_head_order() {
        // A NaN seen before any number is the head class and wins finish().
        let vals = [f64::NAN, 1.0, -5.0];
        let mut folded = AggAcc::new("MIN").unwrap();
        folded.fold_f64s(&vals, 0..3, None);
        match folded.finish().unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected NaN head, got {other:?}"),
        }
        // Numbers first: the numeric class stays the head.
        let vals = [1.0, f64::NAN, -5.0];
        let mut folded = AggAcc::new("MIN").unwrap();
        folded.fold_f64s(&vals, 0..3, None);
        assert_eq!(folded.finish().unwrap(), Value::Float(-5.0));
    }

    #[test]
    fn fold_onto_int_incumbent_uses_exact_compare() {
        // MIN over an Int incumbent folded with floats: exact mixed compare.
        let mut acc = AggAcc::new("MIN").unwrap();
        acc.push(&[Value::Int((1 << 53) + 1)]).unwrap();
        acc.fold_f64s(&[(1i64 << 53) as f64], 0..1, None);
        // 2^53 < 2^53+1 exactly, so the float replaces the int.
        assert_eq!(acc.finish().unwrap(), Value::Float((1i64 << 53) as f64));
        let mut acc = AggAcc::new("MAX").unwrap();
        acc.push(&[Value::Int((1 << 53) + 1)]).unwrap();
        acc.fold_f64s(&[(1i64 << 53) as f64], 0..1, None);
        assert_eq!(acc.finish().unwrap(), Value::Int((1 << 53) + 1));
    }

    #[test]
    fn concat_renders_and_skips_nulls() {
        let v = eval_scalar(
            "CONCAT",
            &[Value::str("web"), Value::Int(1), Value::Null, Value::str("x")],
        )
        .unwrap();
        assert_eq!(v, Value::str("web1x"));
    }

    #[test]
    fn split_and_index_style_usage() {
        let v = eval_scalar("SPLIT", &[Value::str("web-1-a"), Value::str("-")]).unwrap();
        match v {
            Value::List(parts) => {
                assert_eq!(parts, vec![Value::str("web"), Value::str("1"), Value::str("a")]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(eval_scalar("SPLIT", &[Value::Null, Value::str("-")]).unwrap(), Value::Null);
        assert!(eval_scalar("SPLIT", &[Value::str("x"), Value::str("")]).is_err());
    }

    #[test]
    fn greatest_least_with_papers_usage() {
        // GREATEST(write_b - cancelled_write_b, 0)
        let v = eval_scalar("GREATEST", &[Value::Float(-3.0), Value::Int(0)]).unwrap();
        assert_eq!(v, Value::Float(0.0));
        let v = eval_scalar("LEAST", &[Value::Float(5.0), Value::Int(2)]).unwrap();
        assert_eq!(v, Value::Float(2.0));
        assert_eq!(eval_scalar("GREATEST", &[Value::Null, Value::Int(1)]).unwrap(), Value::Null);
    }

    #[test]
    fn hostgroup_udf() {
        assert_eq!(eval_scalar("HOSTGROUP", &[Value::str("web-12")]).unwrap(), Value::str("web"));
        assert_eq!(
            eval_scalar("HOSTGROUP", &[Value::str("standalone")]).unwrap(),
            Value::str("standalone")
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let v = eval_scalar("COALESCE", &[Value::Null, Value::Null, Value::Int(3)]).unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(eval_scalar("COALESCE", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn string_helpers() {
        assert_eq!(eval_scalar("UPPER", &[Value::str("ab")]).unwrap(), Value::str("AB"));
        assert_eq!(eval_scalar("LOWER", &[Value::str("AB")]).unwrap(), Value::str("ab"));
        assert_eq!(eval_scalar("TRIM", &[Value::str(" x ")]).unwrap(), Value::str("x"));
        assert_eq!(eval_scalar("LENGTH", &[Value::str("abc")]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_scalar("SUBSTR", &[Value::str("hello"), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            eval_scalar("REPLACE", &[Value::str("a-b"), Value::str("-"), Value::str("_")]).unwrap(),
            Value::str("a_b")
        );
    }

    #[test]
    fn math_helpers() {
        assert_eq!(eval_scalar("ABS", &[Value::Float(-2.5)]).unwrap(), Value::Float(2.5));
        assert_eq!(eval_scalar("SQRT", &[Value::Int(9)]).unwrap(), Value::Float(3.0));
        assert_eq!(
            eval_scalar("ROUND", &[Value::Float(2.345), Value::Int(2)]).unwrap(),
            Value::Float(2.35)
        );
        assert_eq!(
            eval_scalar("POW", &[Value::Int(2), Value::Int(10)]).unwrap(),
            Value::Float(1024.0)
        );
    }

    #[test]
    fn round_with_out_of_range_digits() {
        let round = |x: f64, d: i64| match eval_scalar("ROUND", &[Value::Float(x), Value::Int(d)]) {
            Ok(Value::Float(f)) => f,
            other => panic!("ROUND({x}, {d}) = {other:?}"),
        };
        // Digit counts that do not fit an i32 must not wrap around.
        assert_eq!(round(1234.5678, i64::MAX), 1234.5678);
        assert_eq!(round(1234.5678, 4_294_967_298), 1234.5678);
        assert_eq!(round(1234.5678, 2_147_483_648), 1234.5678);
        // A scale that overflows leaves the value as it is.
        assert_eq!(round(1e300, 10), 1e300);
        // A scale that underflows rounds to a signed zero.
        let z = round(1234.5678, -400);
        assert!(z == 0.0 && z.is_sign_positive(), "{z}");
        let z = round(-1234.5678, i64::MIN);
        assert!(z == 0.0 && z.is_sign_negative(), "{z}");
        // In-range digits keep rounding.
        assert_eq!(round(1234.5678, -2), 1200.0);
        assert_eq!(round(1234.5678, 300), 1234.5678);
    }

    #[test]
    fn aggregate_avg_sum_count() {
        let rows = vec![vec![Value::Float(1.0)], vec![Value::Float(3.0)], vec![Value::Null]];
        assert_eq!(eval_aggregate("AVG", &rows).unwrap(), Value::Float(2.0));
        assert_eq!(eval_aggregate("SUM", &rows).unwrap(), Value::Float(4.0));
        assert_eq!(eval_aggregate("COUNT", &rows).unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_preserves_int_typing() {
        let ints = vec![vec![Value::Int(2)], vec![Value::Int(40)], vec![Value::Null]];
        assert_eq!(eval_aggregate("SUM", &ints).unwrap(), Value::Int(42));
        // One float input demotes the whole sum to Float.
        let mixed = vec![vec![Value::Int(2)], vec![Value::Float(1.5)]];
        assert_eq!(eval_aggregate("SUM", &mixed).unwrap(), Value::Float(3.5));
        // i64 overflow promotes to the (exact) float sum instead of wrapping.
        let big = vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MAX)]];
        assert_eq!(eval_aggregate("SUM", &big).unwrap(), Value::Float(2.0 * i64::MAX as f64));
    }

    #[test]
    fn aggregate_min_max_strings() {
        let rows = vec![vec![Value::str("b")], vec![Value::str("a")], vec![Value::str("c")]];
        assert_eq!(eval_aggregate("MIN", &rows).unwrap(), Value::str("a"));
        assert_eq!(eval_aggregate("MAX", &rows).unwrap(), Value::str("c"));
    }

    #[test]
    fn aggregate_empty_group() {
        let rows: Vec<Vec<Value>> = vec![];
        assert_eq!(eval_aggregate("AVG", &rows).unwrap(), Value::Null);
        assert_eq!(eval_aggregate("COUNT", &rows).unwrap(), Value::Int(0));
        assert_eq!(eval_aggregate("MIN", &rows).unwrap(), Value::Null);
    }

    #[test]
    fn aggregate_stddev_is_sample_not_population() {
        // [2, 4, 4, 4, 5, 5, 7, 9]: Σv = 40, Σv² = 232, n = 8 →
        // sample variance = (232 − 40²/8) / 7 = 32/7 (population would be 4).
        let rows: Vec<Vec<Value>> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&v| vec![Value::Float(v)])
            .collect();
        assert_eq!(eval_aggregate("VARIANCE", &rows).unwrap(), Value::Float(32.0 / 7.0));
        assert_eq!(eval_aggregate("STDDEV", &rows).unwrap(), Value::Float((32.0f64 / 7.0).sqrt()));
        // n < 2 has no sample variance.
        assert_eq!(eval_aggregate("VARIANCE", &rows[..1]).unwrap(), Value::Null);
    }

    #[test]
    fn percentile_interpolates() {
        let rows: Vec<Vec<Value>> =
            (1..=5).map(|v| vec![Value::Float(v as f64), Value::Float(0.5)]).collect();
        assert_eq!(eval_aggregate("PERCENTILE", &rows).unwrap(), Value::Float(3.0));
        let rows99: Vec<Vec<Value>> =
            (0..101).map(|v| vec![Value::Float(v as f64), Value::Float(0.99)]).collect();
        assert_eq!(eval_aggregate("PERCENTILE", &rows99).unwrap(), Value::Float(99.0));
        let bad: Vec<Vec<Value>> = vec![vec![Value::Float(1.0), Value::Float(2.0)]];
        assert!(eval_aggregate("PERCENTILE", &bad).is_err());
    }

    #[test]
    fn percentile_rejects_non_constant_p() {
        let rows = vec![
            vec![Value::Float(1.0), Value::Float(0.5)],
            vec![Value::Float(2.0), Value::Float(0.9)],
        ];
        let err = eval_aggregate("PERCENTILE", &rows).unwrap_err();
        assert!(matches!(err, QueryError::BadFunction(_)), "got {err:?}");
        // A NULL p row does not conflict with the pinned p.
        let rows = vec![
            vec![Value::Float(1.0), Value::Float(0.5)],
            vec![Value::Float(2.0), Value::Null],
            vec![Value::Float(3.0), Value::Float(0.5)],
        ];
        assert_eq!(eval_aggregate("PERCENTILE", &rows).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn exact_sum_is_order_and_partition_independent() {
        let values = [1e16, 3.25, -1e16, 2.75, 1e-9, 0.1, -0.3, 7.5e15, -7.5e15];
        let mut forward = ExactSum::default();
        for &v in &values {
            forward.add(v);
        }
        let mut backward = ExactSum::default();
        for &v in values.iter().rev() {
            backward.add(v);
        }
        assert_eq!(forward.value(), backward.value());
        // Split into two partials and merge: identical bits.
        let (mut a, mut b) = (ExactSum::default(), ExactSum::default());
        for &v in &values[..4] {
            a.add(v);
        }
        for &v in &values[4..] {
            b.add(v);
        }
        a.merge(&b);
        assert_eq!(a.value(), forward.value());
        // And the exact result is right where naive summation drifts.
        assert_eq!(forward.value(), 3.25 + 2.75 + 1e-9 + 0.1 - 0.3);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let rows: Vec<Vec<Value>> = [0.1, 0.2, 0.3, 0.7, -1.5, 2.5, 0.4, 1e15, -1e15]
            .iter()
            .map(|&v| vec![Value::Float(v), Value::Float(0.5)])
            .collect();
        for name in ["COUNT", "SUM", "AVG", "MIN", "MAX", "VARIANCE", "STDDEV", "PERCENTILE"] {
            let serial = eval_aggregate(name, &rows).unwrap();
            for split in [1, 4, 8] {
                let mut left = AggAcc::new(name).unwrap();
                for r in &rows[..split] {
                    left.push(r).unwrap();
                }
                let mut right = AggAcc::new(name).unwrap();
                for r in &rows[split..] {
                    right.push(r).unwrap();
                }
                left.merge(right).unwrap();
                assert_eq!(left.finish().unwrap(), serial, "{name} split at {split}");
            }
        }
    }

    #[test]
    fn minmax_merge_handles_incomparable_classes_like_the_serial_fold() {
        // Strings and numbers are mutually incomparable under sql_cmp: the
        // serial fold keeps the first value's class. Partition merges must
        // reproduce that, whatever the split.
        let rows = vec![
            vec![Value::Int(5)],
            vec![Value::str("zz")],
            vec![Value::Int(1)],
            vec![Value::str("aa")],
        ];
        let serial = eval_aggregate("MIN", &rows).unwrap();
        assert_eq!(serial, Value::Int(1));
        for split in 1..rows.len() {
            let mut l = AggAcc::new("MIN").unwrap();
            for r in &rows[..split] {
                l.push(r).unwrap();
            }
            let mut r_acc = AggAcc::new("MIN").unwrap();
            for r in &rows[split..] {
                r_acc.push(r).unwrap();
            }
            l.merge(r_acc).unwrap();
            assert_eq!(l.finish().unwrap(), serial, "split {split}");
        }
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval_scalar("NOPE", &[]), Err(QueryError::BadFunction(_))));
        assert!(eval_aggregate("NOPE", &[]).is_err());
    }

    #[test]
    fn classification_helpers() {
        assert!(is_aggregate("AVG") && is_aggregate("PERCENTILE"));
        assert!(!is_aggregate("CONCAT"));
        assert!(is_window("LAG") && is_window("LEAD"));
        assert!(!is_window("AVG"));
    }
}
