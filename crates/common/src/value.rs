//! SQL values and their comparison / arithmetic semantics.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::path::PathData;

/// A single SQL value.
///
/// `Text` uses `Arc<str>` so that projecting a string column is a pointer
/// copy — rows flow through many operators in a volcano pipeline and string
/// cloning would dominate otherwise. `Path` carries the graph-operator
/// payload (see [`PathData`]); it is what lets a path travel through joins,
/// filters, and projections as an ordinary column ("Path extends Tuple",
/// EDBT 2018 §5.2).
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Integer(i64),
    Double(f64),
    Boolean(bool),
    Text(Arc<str>),
    Path(Arc<PathData>),
}

impl Value {
    /// SQL NULL check.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Build a text value.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Coerce to `i64`, if the value is numeric. In-range doubles truncate
    /// toward zero; NaN, infinities, and doubles outside `i64`'s range are
    /// rejected instead of silently saturating (`as` would pin
    /// `9223372036854775808.0` to `i64::MAX`). The exclusive upper bound is
    /// 2^63 because `i64::MAX as f64` rounds *up* to 2^63, which is itself
    /// one past the largest representable i64; the lower bound `-(2^63)` is
    /// exact in f64 and valid.
    pub fn as_integer(&self) -> Result<i64> {
        const I64_MIN_F: f64 = -9_223_372_036_854_775_808.0; // -(2^63), exact
        const I64_BOUND_F: f64 = 9_223_372_036_854_775_808.0; // 2^63, exclusive
        match self {
            Value::Integer(i) => Ok(*i),
            Value::Double(d) if d.is_finite() && *d >= I64_MIN_F && *d < I64_BOUND_F => {
                Ok(*d as i64) // cast-ok: guarded to [-(2^63), 2^63) by the match arm
            }
            Value::Double(d) => Err(Error::execution(format!(
                "DOUBLE {d} is outside INTEGER range"
            ))),
            Value::Boolean(b) => Ok(*b as i64), // cast-ok: bool -> i64 is 0/1
            other => Err(Error::execution(format!("cannot read {other} as INTEGER"))),
        }
    }

    /// Coerce to `f64`, if the value is numeric.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Integer(i) => Ok(*i as f64), // cast-ok: SQL INTEGER->DOUBLE coercion; rounds above 2^53 by design
            Value::Double(d) => Ok(*d),
            other => Err(Error::execution(format!("cannot read {other} as DOUBLE"))),
        }
    }

    /// Coerce to `bool` (SQL booleans only; no implicit int→bool).
    pub fn as_boolean(&self) -> Result<bool> {
        match self {
            Value::Boolean(b) => Ok(*b),
            other => Err(Error::execution(format!("cannot read {other} as BOOLEAN"))),
        }
    }

    /// Borrow the text payload.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::execution(format!("cannot read {other} as VARCHAR"))),
        }
    }

    /// Borrow the path payload.
    pub fn as_path(&self) -> Result<&Arc<PathData>> {
        match self {
            Value::Path(p) => Ok(p),
            other => Err(Error::execution(format!("cannot read {other} as PATH"))),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable — predicate evaluation maps `None` to "not
    /// satisfied", mirroring SQL's UNKNOWN.
    ///
    /// Integers and doubles compare numerically across types. Doubles use
    /// total ordering with NaN greater than everything (so sorting is
    /// well-defined) but NaN != NaN for equality purposes is *not*
    /// preserved — an engine-internal simplification documented here.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Integer(a), Double(b)) => Some(total_f64(*a as f64, *b)), // cast-ok: SQL mixed-type compare coerces to DOUBLE
            (Double(a), Integer(b)) => Some(total_f64(*a, *b as f64)), // cast-ok: SQL mixed-type compare coerces to DOUBLE
            (Double(a), Double(b)) => Some(total_f64(*a, *b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Text(a), Text(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SQL equality: `None` (UNKNOWN) when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Binary arithmetic with numeric type promotion (INT op INT → INT,
    /// anything involving DOUBLE → DOUBLE). NULL propagates.
    pub fn arith(&self, op: ArithOp, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Integer(a), Integer(b)) => op.apply_i64(*a, *b),
            _ => {
                let a = self.as_double()?;
                let b = other.as_double()?;
                op.apply_f64(a, b)
            }
        }
    }

    /// Hashable key form for group-by, DISTINCT and hash indexes: NULL gets
    /// its own key, and two doubles share a key exactly when `sql_eq` holds
    /// them equal. An INTEGER and a DOUBLE never share one (`1` and `1.0`
    /// are two groups); index probes coerce the key to the column's type
    /// first.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Integer(i) => GroupKey::Integer(*i),
            Value::Double(d) => {
                // Doubles are keyed by bit pattern, so the values SQL holds
                // equal across bit patterns are folded first: `-0.0` onto
                // `0.0`, and every NaN — whatever its sign and payload
                // (`inf * 0` on x86 sets the sign bit) — onto one.
                let d = if d.is_nan() {
                    f64::NAN
                } else if *d == 0.0 {
                    0.0
                } else {
                    *d
                };
                GroupKey::Double(d.to_bits())
            }
            Value::Boolean(b) => GroupKey::Boolean(*b),
            Value::Text(s) => GroupKey::Text(s.clone()),
            Value::Path(p) => GroupKey::Path(p.edges().to_vec()),
        }
    }
}

/// Total order for f64 used internally by comparisons and sorts.
fn total_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaN sorts greater than any number; two NaNs are equal.
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!(),
        }
    })
}

/// PartialEq for Value follows `sql_eq` where defined, and falls back to
/// structural identity for NULL (NULL == NULL here, unlike SQL) so that
/// `Value` can be used in tests and collections. Predicate evaluation must
/// go through [`Value::sql_eq`].
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Path(a), Value::Path(b)) => a == b,
            _ => self.sql_eq(other).unwrap_or(false),
        }
    }
}

/// Arithmetic operators supported by the expression evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    fn apply_i64(self, a: i64, b: i64) -> Result<Value> {
        let overflow = || Error::execution("integer overflow");
        Ok(match self {
            ArithOp::Add => Value::Integer(a.checked_add(b).ok_or_else(overflow)?),
            ArithOp::Sub => Value::Integer(a.checked_sub(b).ok_or_else(overflow)?),
            ArithOp::Mul => Value::Integer(a.checked_mul(b).ok_or_else(overflow)?),
            ArithOp::Div => {
                if b == 0 {
                    return Err(Error::execution("division by zero"));
                }
                Value::Integer(a / b)
            }
            ArithOp::Mod => {
                if b == 0 {
                    return Err(Error::execution("division by zero"));
                }
                Value::Integer(a % b)
            }
        })
    }

    fn apply_f64(self, a: f64, b: f64) -> Result<Value> {
        Ok(match self {
            ArithOp::Add => Value::Double(a + b),
            ArithOp::Sub => Value::Double(a - b),
            ArithOp::Mul => Value::Double(a * b),
            ArithOp::Div => {
                if b == 0.0 {
                    return Err(Error::execution("division by zero"));
                }
                Value::Double(a / b)
            }
            ArithOp::Mod => {
                if b == 0.0 {
                    return Err(Error::execution("division by zero"));
                }
                Value::Double(a % b)
            }
        })
    }
}

/// Hash/group key form of a value (see [`Value::group_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Null,
    Integer(i64),
    Double(u64),
    Boolean(bool),
    Text(Arc<str>),
    Path(Vec<i64>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Boolean(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Text(s) => write!(f, "{s}"),
            Value::Path(p) => write!(f, "{p}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64) // cast-ok: i32 -> i64 widening is lossless
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (pre-fix: `d <= i64::MAX as f64` admitted 2^63, which
    /// `as i64` saturated onto `i64::MAX`): DOUBLE→INTEGER reads accept
    /// exactly the finite doubles inside [-(2^63), 2^63) and reject the
    /// rest instead of wrapping or saturating.
    #[test]
    fn as_integer_double_boundaries() {
        const P53: f64 = 9_007_199_254_740_992.0; // 2^53: f64 still exact
        const P63: f64 = 9_223_372_036_854_775_808.0; // 2^63 = i64::MAX as f64
        assert_eq!(Value::Double(P53).as_integer().unwrap(), 1 << 53);
        assert_eq!(Value::Double(-P53).as_integer().unwrap(), -(1 << 53));
        // -(2^63) is exactly i64::MIN; 2^63 is one past i64::MAX.
        assert_eq!(Value::Double(-P63).as_integer().unwrap(), i64::MIN);
        assert!(Value::Double(P63).as_integer().is_err());
        // Largest double strictly below 2^63 is still in range.
        assert_eq!(
            Value::Double(9_223_372_036_854_774_784.0).as_integer().unwrap(),
            9_223_372_036_854_774_784
        );
        // Next double below -(2^63) is out of range, as are non-finites.
        assert!(Value::Double(-9_223_372_036_854_777_856.0).as_integer().is_err());
        assert!(Value::Double(f64::NAN).as_integer().is_err());
        assert!(Value::Double(f64::INFINITY).as_integer().is_err());
        assert!(Value::Double(f64::NEG_INFINITY).as_integer().is_err());
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Integer(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Double(1.5).sql_cmp(&Value::Integer(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn text_comparison_is_lexicographic() {
        assert_eq!(
            Value::text("abc").sql_cmp(&Value::text("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(Value::text("1").sql_cmp(&Value::Integer(1)), None);
        assert_eq!(Value::Boolean(true).sql_cmp(&Value::Integer(1)), None);
    }

    #[test]
    fn arithmetic_promotion() {
        let v = Value::Integer(3)
            .arith(ArithOp::Add, &Value::Integer(4))
            .unwrap();
        assert_eq!(v, Value::Integer(7));
        let v = Value::Integer(3)
            .arith(ArithOp::Mul, &Value::Double(0.5))
            .unwrap();
        assert_eq!(v, Value::Double(1.5));
    }

    #[test]
    fn arithmetic_null_propagates() {
        let v = Value::Null.arith(ArithOp::Add, &Value::Integer(1)).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(Value::Integer(1)
            .arith(ArithOp::Div, &Value::Integer(0))
            .is_err());
        assert!(Value::Double(1.0)
            .arith(ArithOp::Mod, &Value::Double(0.0))
            .is_err());
    }

    #[test]
    fn integer_overflow_detected() {
        assert!(Value::Integer(i64::MAX)
            .arith(ArithOp::Add, &Value::Integer(1))
            .is_err());
    }

    #[test]
    fn group_key_unifies_zero_signs_and_nans() {
        assert_eq!(Value::Double(0.0).group_key(), Value::Double(-0.0).group_key());
        let x86_default_nan = f64::INFINITY * 0.0;
        assert_ne!(f64::NAN.to_bits(), (-f64::NAN).to_bits());
        for nan in [-f64::NAN, x86_default_nan, f64::from_bits(0x7ff0_0000_0000_0001)] {
            assert!(nan.is_nan());
            assert_eq!(Value::Double(nan).group_key(), Value::Double(f64::NAN).group_key());
        }
        assert_ne!(Value::Double(1.0).group_key(), Value::Integer(1).group_key());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Integer(-5).to_string(), "-5");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Boolean(true).to_string(), "true");
    }

    #[test]
    fn nan_total_order_for_sorting() {
        assert_eq!(
            Value::Double(f64::NAN).sql_cmp(&Value::Double(1.0)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Double(f64::NAN).sql_cmp(&Value::Double(f64::NAN)),
            Some(Ordering::Equal)
        );
    }
}
