//! Expression-tree traversal over the [`crate::ast`] nodes.
//!
//! The semantic checks all follow the same shape — walk every expression in
//! a file, pattern-match a node, emit a finding — so the traversal lives
//! here once. `visit_file` / `visit_expr` call the callback on every
//! expression in pre-order; `walk_expr` visits only the direct children of
//! one node, for checks that need to control recursion themselves (e.g. to
//! carry context like "inside a rayon closure").

use crate::ast::{Block, Expr, ExprKind, File, FnItem, Item, Stmt};

/// Call `f` on every expression in the file, pre-order.
pub fn visit_file(file: &File, f: &mut dyn FnMut(&Expr)) {
    for item in &file.items {
        visit_item(item, f);
    }
}

/// Call `f` on every expression in one item, pre-order.
pub fn visit_item(item: &Item, f: &mut dyn FnMut(&Expr)) {
    match item {
        Item::Fn(FnItem { body, .. }) => {
            if let Some(b) = body {
                visit_block(b, f);
            }
        }
        Item::Impl { items, .. } | Item::Mod { items, .. } => {
            for it in items {
                visit_item(it, f);
            }
        }
    }
}

/// Call `f` on every expression in a block, pre-order.
pub fn visit_block(block: &Block, f: &mut dyn FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    visit_expr(e, f);
                }
            }
            Stmt::Expr { expr, .. } => visit_expr(expr, f),
            Stmt::Item(item) => visit_item(item, f),
        }
    }
}

/// Call `f` on `expr` and then on every descendant, pre-order.
pub fn visit_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(expr);
    walk_expr(expr, &mut |child| visit_expr(child, f));
}

/// Call `f` on each *direct* child expression of `expr` (blocks included),
/// without recursing further. Composing this with itself yields the full
/// traversal; checks that track context override individual steps.
pub fn walk_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    match &expr.kind {
        ExprKind::Path(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str
        | ExprKind::Char
        | ExprKind::Bool(_)
        | ExprKind::Break
        | ExprKind::Continue
        | ExprKind::Opaque => {}
        ExprKind::Call { callee, args } => {
            f(callee);
            for a in args {
                f(a);
            }
        }
        ExprKind::Method { recv, args, .. } => {
            f(recv);
            for a in args {
                f(a);
            }
        }
        ExprKind::Field { base, .. } => f(base),
        ExprKind::Index { base, index } => {
            f(base);
            f(index);
        }
        ExprKind::Unary { operand, .. } => f(operand),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Cast { operand, .. } => f(operand),
        ExprKind::Try(inner) | ExprKind::Ref(inner) => f(inner),
        ExprKind::Closure { body } => f(body),
        ExprKind::Block(b) => walk_block_children(b, f),
        ExprKind::If {
            cond, then, els, ..
        } => {
            f(cond);
            walk_block_children(then, f);
            if let Some(e) = els {
                f(e);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            f(scrutinee);
            for (_, value) in arms {
                f(value);
            }
        }
        ExprKind::While { cond, body, .. } => {
            f(cond);
            walk_block_children(body, f);
        }
        ExprKind::ForLoop { iter, body, .. } => {
            f(iter);
            walk_block_children(body, f);
        }
        ExprKind::Loop { body } => walk_block_children(body, f),
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for e in items {
                f(e);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for e in fields {
                f(e);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for e in args {
                f(e);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                f(e);
            }
            if let Some(e) = hi {
                f(e);
            }
        }
        ExprKind::Return(value) => {
            if let Some(e) = value {
                f(e);
            }
        }
    }
}

/// Visit the immediate expressions of a block (used by `walk_expr` so that
/// block-bearing nodes expose their statements as children).
fn walk_block_children(block: &Block, f: &mut dyn FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    f(e);
                }
            }
            Stmt::Expr { expr, .. } => f(expr),
            Stmt::Item(item) => visit_item(item, &mut |e| visit_expr(e, f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    #[test]
    fn every_cast_is_reachable() {
        let src = r#"
            fn f(v: Vec<u32>, n: usize) -> f64 {
                let a = n as f64;
                let b = v.iter().map(|x| *x as f64).sum::<f64>();
                if a > 1.0 { b / a } else { (n as u64) as f64 }
            }
        "#;
        let file = parse_file(&lex(src));
        let mut casts = 0usize;
        visit_file(&file, &mut |e| {
            if matches!(e.kind, crate::ast::ExprKind::Cast { .. }) {
                casts += 1;
            }
        });
        assert_eq!(casts, 4, "n as f64, *x as f64, n as u64, … as f64");
    }

    #[test]
    fn nested_fn_bodies_are_visited() {
        let src = "fn outer() { fn inner(x: i64) -> f64 { x as f64 } inner(1); }";
        let file = parse_file(&lex(src));
        let mut casts = 0usize;
        visit_file(&file, &mut |e| {
            if matches!(e.kind, crate::ast::ExprKind::Cast { .. }) {
                casts += 1;
            }
        });
        assert_eq!(casts, 1);
    }
}
