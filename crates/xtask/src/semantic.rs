//! The two AST-based check families.
//!
//! These checks reason about expressions, which the token-window checks in
//! [`crate::checks`] cannot:
//!
//! * **unit-safety** — arithmetic or comparison mixing values of different
//!   physical units (seconds, days, bytes) or mixing the raw units with the
//!   `Timestamp`/`TimeDelta` newtypes outside their typed operations.
//! * **par-determinism** — constructs inside rayon parallel chains that
//!   break bit-identical replay: interior-mutability captures, locks, and
//!   order-sensitive floating-point reductions.
//!
//! Like the token checks, every function here is pure: file scoping lives in
//! [`crate::runner`], and each check degrades to "no finding" on code the
//! parser abstracted to [`ExprKind::Opaque`].

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

// ---------------------------------------------------------------------------
// 6. par-determinism
// ---------------------------------------------------------------------------

/// Methods that introduce a rayon parallel iterator.
const PAR_INTROS: [&str; 8] = [
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_drain",
];

/// Order-sensitive terminal reductions (grouping varies run to run).
const REDUCTIONS: [&str; 5] = ["reduce", "sum", "fold", "fold_with", "product"];

/// Does the method-receiver chain of `e` pass through a parallel intro?
fn chain_has_par(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Method { recv, name, .. } => {
            PAR_INTROS.contains(&name.as_str()) || chain_has_par(recv)
        }
        ExprKind::Try(inner) | ExprKind::Ref(inner) => chain_has_par(inner),
        _ => false,
    }
}

/// Does any float evidence appear in the reduction: an `::<f64>`-style
/// turbofish, a float literal in a closure body, or arithmetic on
/// identifiable float values?
fn reduction_is_float(turbofish: Option<&str>, args: &[Expr]) -> bool {
    if turbofish.is_some_and(|t| t.contains("f64") || t.contains("f32")) {
        return true;
    }
    let mut float = false;
    for arg in args {
        visit::visit_expr(arg, &mut |e| match &e.kind {
            ExprKind::Float(_) => float = true,
            ExprKind::Path(p) if p.starts_with("f64") || p.starts_with("f32") => float = true,
            ExprKind::Cast { ty, .. } if ty == "f64" || ty == "f32" => float = true,
            _ => {}
        });
    }
    float
}

/// Scan one closure body for replay-determinism hazards.
fn scan_par_closure(body: &Expr, out: &mut Vec<Finding>) {
    visit::visit_expr(body, &mut |e| match &e.kind {
        ExprKind::Path(p) => {
            let first = p.split("::").next().unwrap_or(p);
            if first == "RefCell" || first == "Cell" {
                out.push(Finding {
                    line: e.line,
                    category: "",
                    message: format!(
                        "`{first}` inside a rayon closure: interior mutability across parallel \
                         tasks breaks deterministic replay"
                    ),
                });
            }
        }
        ExprKind::Method { name, .. } if name == "borrow" || name == "borrow_mut" => {
            out.push(Finding {
                line: e.line,
                category: "",
                message: format!(
                    "`.{name}()` inside a rayon closure: RefCell access across parallel tasks \
                     breaks deterministic replay"
                ),
            });
        }
        ExprKind::Method { name, .. } if name == "lock" => {
            out.push(Finding {
                line: e.line,
                category: "",
                message: "lock acquired inside a rayon closure: cross-task ordering becomes \
                          schedule-dependent"
                    .to_string(),
            });
        }
        _ => {}
    });
}

/// Does a subtree contain a `.lock()` call (for "lock held across
/// `par_iter`" detection on the receiver side)?
fn subtree_locks(e: &Expr) -> Option<u32> {
    let mut line = None;
    visit::visit_expr(e, &mut |x| {
        if let ExprKind::Method { name, .. } = &x.kind {
            if name == "lock" && line.is_none() {
                line = Some(x.line);
            }
        }
    });
    line
}

/// Replay-determinism hazards inside rayon parallel chains.
pub fn check_par_determinism(file: &File) -> Vec<Finding> {
    let mut out = Vec::new();
    visit::visit_file(file, &mut |e| {
        let ExprKind::Method {
            recv,
            name,
            turbofish,
            args,
        } = &e.kind
        else {
            return;
        };
        // A lock held on the receiver side of the par intro serializes (or
        // deadlocks) the parallel loop and orders tasks by acquisition.
        if PAR_INTROS.contains(&name.as_str()) {
            if let Some(line) = subtree_locks(recv) {
                out.push(Finding {
                    line,
                    category: "",
                    message: format!(
                        "lock held across `.{name}()`: parallel tasks run under one guard, \
                         making progress schedule-dependent"
                    ),
                });
            }
            return;
        }
        if !chain_has_par(recv) {
            return;
        }
        // Inside the parallel part of the chain.
        if REDUCTIONS.contains(&name.as_str()) && reduction_is_float(turbofish.as_deref(), args) {
            out.push(Finding {
                line: e.line,
                category: "",
                message: format!(
                    "floating-point `.{name}()` on a parallel iterator: rayon's reduction \
                     grouping is nondeterministic, so results are not bit-identical across runs"
                ),
            });
        }
        for arg in args {
            if let ExprKind::Closure { body } = &arg.kind {
                scan_par_closure(body, &mut out);
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

    fn par_findings(src: &str) -> Vec<Finding> {
        check_par_determinism(&file(src))
    }

    #[test]
    fn float_reduction_in_par_chain_is_flagged() {
        assert_eq!(
            par_findings("fn f(v: Vec<f64>) -> f64 { v.par_iter().map(|x| x * 2.0).sum::<f64>() }")
                .len(),
            1
        );
        // Integer sum is order-insensitive.
        assert!(par_findings(
            "fn f(v: Vec<u64>) -> u64 { v.par_iter().map(|x| x + 1).sum::<u64>() }"
        )
        .is_empty());
        // Sequential float sum is fine.
        assert!(par_findings(
            "fn f(v: Vec<f64>) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }"
        )
        .is_empty());
    }

    #[test]
    fn refcell_and_lock_in_par_closures_are_flagged() {
        assert_eq!(
            par_findings(
                "fn f(v: &[u32], c: &RefCell<u32>) { v.par_iter().for_each(|x| { *c.borrow_mut() += x; }); }"
            )
            .len(),
            1
        );
        assert_eq!(
            par_findings(
                "fn f(v: &[u32], m: &Mutex<u32>) { v.par_iter().for_each(|x| { *m.lock() += x; }); }"
            )
            .len(),
            1
        );
    }

    #[test]
    fn lock_held_across_par_intro_is_flagged() {
        assert_eq!(
            par_findings(
                "fn f(m: &Mutex<Vec<u32>>) { m.lock().par_iter().for_each(|x| use_it(x)); }"
            )
            .len(),
            1
        );
    }
}
