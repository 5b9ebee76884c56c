//! The AST-based check, **unit-safety**: arithmetic or comparison mixing
//! values of different physical units (seconds, days, bytes) or mixing the
//! raw units with the `Timestamp`/`TimeDelta` newtypes outside their typed
//! operations. It reasons about expressions, which the token-window checks
//! in [`crate::checks`] cannot.
//!
//! Like the token checks, the check is pure: file scoping lives in
//! [`crate::runner`], and it degrades to "no finding" on code the parser
//! abstracted to [`ExprKind::Opaque`].

use crate::ast::{Expr, ExprKind, File};
use crate::checks::Finding;
use crate::visit;

// ---------------------------------------------------------------------------
// 5. unit-safety
// ---------------------------------------------------------------------------

/// The unit a syntactic expression provably carries, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Raw seconds (`.secs()`, `SECS_PER_DAY` in additive position).
    Secs,
    /// Raw days (`.day()`, `.whole_days()`, `.days_f64()`, year constants).
    Days,
    /// Raw byte counts (`*_bytes()` accessors).
    Bytes,
    /// The `Timestamp` newtype itself.
    Timestamp,
    /// The `TimeDelta` newtype itself.
    Delta,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Secs => "seconds",
            Unit::Days => "days",
            Unit::Bytes => "bytes",
            Unit::Timestamp => "Timestamp",
            Unit::Delta => "TimeDelta",
        }
    }
}

/// Accessor methods whose name pins down the unit of their result.
fn unit_of_method(name: &str) -> Option<Unit> {
    match name {
        "secs" => Some(Unit::Secs),
        "day" | "whole_days" | "days_f64" => Some(Unit::Days),
        "age_since" => Some(Unit::Delta),
        _ if name.ends_with("_bytes") || name == "bytes" => Some(Unit::Bytes),
        _ => None,
    }
}

fn unit_of_path(path: &str) -> Option<Unit> {
    let last = path.rsplit("::").next().unwrap_or(path);
    match last {
        "SECS_PER_DAY" => Some(Unit::Secs),
        "REPLAY_YEAR_DAYS" | "WARMUP_YEAR_DAYS" => Some(Unit::Days),
        "EPOCH" if path.contains("Timestamp") => Some(Unit::Timestamp),
        "ZERO" if path.contains("TimeDelta") => Some(Unit::Delta),
        _ => None,
    }
}

fn unit_of_call(path: &str) -> Option<Unit> {
    let mut segs = path.rsplit("::");
    let last = segs.next().unwrap_or(path);
    let prev = segs.next().unwrap_or("");
    match (prev, last) {
        (_, "Timestamp") => Some(Unit::Timestamp),
        (_, "TimeDelta") => Some(Unit::Delta),
        ("Timestamp", "from_days" | "from_days_f64") => Some(Unit::Timestamp),
        ("TimeDelta", "from_days" | "from_days_f64" | "from_hours") => Some(Unit::Delta),
        _ => None,
    }
}

/// Infer the unit of an expression, seeing through casts, negation,
/// references and `?`.
fn unit_of(e: &Expr) -> Option<Unit> {
    match &e.kind {
        ExprKind::Cast { operand, .. } => unit_of(operand),
        ExprKind::Unary { operand, .. } => unit_of(operand),
        ExprKind::Ref(inner) | ExprKind::Try(inner) => unit_of(inner),
        ExprKind::Method { name, .. } => unit_of_method(name),
        ExprKind::Path(p) => unit_of_path(p),
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(p) => unit_of_call(p),
            _ => None,
        },
        // Same-unit arithmetic preserves the unit; anything else is unknown.
        ExprKind::Binary { op, lhs, rhs } if matches!(*op, "+" | "-") => {
            let (l, r) = (unit_of(lhs), unit_of(rhs));
            if l == r {
                l
            } else {
                None
            }
        }
        _ => None,
    }
}

/// May `l` and `r` legally meet across an additive or comparison operator?
fn units_compatible(l: Unit, r: Unit) -> bool {
    if l == r {
        return true;
    }
    // The typed ops: Timestamp ± TimeDelta, Timestamp - Timestamp.
    matches!(
        (l, r),
        (Unit::Timestamp, Unit::Delta) | (Unit::Delta, Unit::Timestamp)
    )
}

/// Is this expression literally the `SECS_PER_DAY` constant (possibly cast)?
fn is_secs_per_day(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Cast { operand, .. } => is_secs_per_day(operand),
        ExprKind::Path(p) => p.rsplit("::").next() == Some("SECS_PER_DAY"),
        _ => false,
    }
}

/// Arithmetic mixing different units, and manual day↔second conversion by
/// multiplying/dividing with `SECS_PER_DAY` outside the unit home modules.
pub fn check_unit_safety(file: &File) -> Vec<Finding> {
    const ADDITIVE_OR_CMP: [&str; 8] = ["+", "-", "<", ">", "<=", ">=", "==", "!="];
    let mut out = Vec::new();
    visit::visit_file(file, &mut |e| {
        let (op, lhs, rhs) = match &e.kind {
            ExprKind::Binary { op, lhs, rhs } => (*op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } if matches!(*op, "+=" | "-=") => (*op, lhs, rhs),
            _ => return,
        };
        if matches!(op, "*" | "/") {
            if is_secs_per_day(lhs) || is_secs_per_day(rhs) {
                out.push(Finding {
                    line: e.line,
                    category: "",
                    message: format!(
                        "manual day\u{2194}second conversion (`{op}` with SECS_PER_DAY); use \
                         Timestamp/TimeDelta::from_days or core::convert"
                    ),
                });
            }
            return;
        }
        if ADDITIVE_OR_CMP.contains(&op) || matches!(op, "+=" | "-=") {
            if let (Some(l), Some(r)) = (unit_of(lhs), unit_of(rhs)) {
                if !units_compatible(l, r) {
                    out.push(Finding {
                        line: e.line,
                        category: "",
                        message: format!(
                            "`{op}` mixes {} and {}; convert explicitly through the typed ops \
                             or core::convert",
                            l.name(),
                            r.name()
                        ),
                    });
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::{lex, strip_test_regions};

    fn file(src: &str) -> File {
        parse_file(&strip_test_regions(lex(src)))
    }

    fn unit_findings(src: &str) -> Vec<Finding> {
        check_unit_safety(&file(src))
    }

    #[test]
    fn mixing_seconds_and_days_is_flagged() {
        assert_eq!(
            unit_findings("fn f(a: Timestamp, d: TimeDelta) -> i64 { a.secs() + d.whole_days() }")
                .len(),
            1
        );
        assert_eq!(
            unit_findings("fn f(a: Timestamp, d: TimeDelta) -> bool { a.day() < d.secs() }").len(),
            1
        );
    }

    #[test]
    fn same_unit_and_typed_ops_are_fine() {
        assert!(
            unit_findings("fn f(a: Timestamp, b: Timestamp) -> i64 { a.secs() - b.secs() }")
                .is_empty()
        );
        assert!(
            unit_findings("fn f(a: Timestamp, d: TimeDelta) -> Timestamp { a + d }").is_empty()
        );
        assert!(unit_findings(
            "fn f(t: Timestamp, d: i64) -> bool { t < Timestamp::from_days(d) }"
        )
        .is_empty());
    }

    #[test]
    fn bytes_never_meet_time() {
        assert_eq!(
            unit_findings("fn f(fs: &Vfs, t: TimeDelta) -> i64 { fs.used_bytes() + t.secs() }")
                .len(),
            1
        );
    }

    #[test]
    fn manual_secs_per_day_conversion_is_flagged() {
        assert_eq!(
            unit_findings("fn f(days: i64) -> i64 { days * SECS_PER_DAY }").len(),
            1
        );
        assert_eq!(
            unit_findings("fn f(secs: i64) -> i64 { secs / SECS_PER_DAY }").len(),
            1
        );
        assert!(unit_findings("fn f(s: i64) -> i64 { s + SECS_PER_DAY - 1 }").is_empty());
    }
}
