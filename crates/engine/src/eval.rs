//! Rule evaluation: unification, joins, constraints, assignments.
//!
//! [`eval_rule`] computes the firings of one rule given its triggering
//! event tuple and a node's local database of slow-changing tables. Each
//! [`Firing`] carries the head tuple *and* the slow-changing tuples the
//! join consumed, in body order — exactly the information the provenance
//! recorders need.
//!
//! The runtime evaluates rules through compiled plans
//! ([`RulePlan::eval`](crate::plan::RulePlan::eval)), never through this
//! interpreter. [`eval_rule`] has two uses: it is the oracle that the plan
//! tests and the `differential` integration test compare plans against,
//! and it is the re-derivation step of `dpc_core::reconstruct`, which
//! evaluates one rule against the recorded slow tuples only.

use std::collections::HashMap;
use std::sync::Arc;

use dpc_common::{Error, FastMap, Result, Tuple, Value};
use dpc_ndlog::{Atom, BinOp, BodyItem, CmpOp, Expr, ExprKind, Rule, TermKind};

use crate::db::Database;

/// Variable bindings accumulated during evaluation.
pub type Bindings = HashMap<String, Value>;

/// A user-defined function callable from rule bodies (e.g.
/// `f_isSubDomain`).
pub type UserFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Registry of user-defined functions, shared by all nodes.
#[derive(Clone, Default)]
pub struct FnRegistry {
    fns: FastMap<String, UserFn>,
}

impl FnRegistry {
    /// An empty registry.
    pub fn new() -> FnRegistry {
        FnRegistry::default()
    }

    /// Register `f` under `name` (conventionally `f_`-prefixed).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.fns.insert(name.into(), Arc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<&UserFn> {
        self.fns.get(name)
    }
}

impl std::fmt::Debug for FnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnRegistry")
            .field("fns", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// One firing of a rule: the derived head tuple and the slow-changing
/// tuples used by the join (in body order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The derived head tuple.
    pub head: Tuple,
    /// Slow-changing tuples joined by this firing, in body-atom order.
    pub slow: Vec<Tuple>,
}

/// Unify an atom's terms against a concrete tuple, extending `bind`.
///
/// Returns `false` (leaving `bind` possibly partially extended — callers
/// clone first) on mismatch.
fn unify_atom(atom: &Atom, tuple: &Tuple, bind: &mut Bindings) -> bool {
    if atom.rel != tuple.rel() || atom.arity() != tuple.arity() {
        return false;
    }
    for (term, val) in atom.args.iter().zip(tuple.args()) {
        match &term.kind {
            TermKind::Const(c) => {
                if c != val {
                    return false;
                }
            }
            TermKind::Var(v) => match bind.get(v) {
                Some(existing) => {
                    if existing != val {
                        return false;
                    }
                }
                None => {
                    bind.insert(v.clone(), val.clone());
                }
            },
        }
    }
    true
}

/// Evaluate an expression under bindings.
pub fn eval_expr(expr: &Expr, bind: &Bindings, fns: &FnRegistry) -> Result<Value> {
    match &expr.kind {
        ExprKind::Var(v) => bind
            .get(v)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("unbound variable `{v}`"))),
        ExprKind::Const(c) => Ok(c.clone()),
        ExprKind::BinOp(op, l, r) => {
            let lv = eval_expr(l, bind, fns)?;
            let rv = eval_expr(r, bind, fns)?;
            apply_binop(*op, &lv, &rv)
        }
        ExprKind::Call(name, args) => {
            let f = fns
                .get(name)
                .ok_or_else(|| Error::Eval(format!("unknown function `{name}`")))?;
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_expr(a, bind, fns))
                .collect::<Result<_>>()?;
            f(&vals)
        }
    }
}

/// Apply an arithmetic operator to two evaluated operands. Shared by the
/// interpreted ([`eval_expr`]) and compiled (`RulePlan`) expression paths
/// so both report identical errors.
pub(crate) fn apply_binop(op: BinOp, lv: &Value, rv: &Value) -> Result<Value> {
    let (Value::Int(a), Value::Int(b)) = (lv, rv) else {
        return Err(Error::Eval(format!(
            "arithmetic `{op}` requires integers, got {lv} and {rv}"
        )));
    };
    let out = match op {
        BinOp::Add => a.checked_add(*b),
        BinOp::Sub => a.checked_sub(*b),
        BinOp::Mul => a.checked_mul(*b),
        BinOp::Div => {
            if *b == 0 {
                return Err(Error::Eval("division by zero".into()));
            }
            a.checked_div(*b)
        }
    }
    .ok_or_else(|| Error::Eval(format!("arithmetic overflow in `{a} {op} {b}`")))?;
    Ok(Value::Int(out))
}

/// Evaluate a comparison between two values.
pub(crate) fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool> {
    match op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Ne => Ok(l != r),
        _ => {
            // Ordering comparisons require same-variant operands; anything
            // else is a program bug worth surfacing, not silently false.
            let same = matches!(
                (l, r),
                (Value::Int(_), Value::Int(_))
                    | (Value::Str(_), Value::Str(_))
                    | (Value::Addr(_), Value::Addr(_))
            );
            if !same {
                return Err(Error::Eval(format!("cannot order {l} and {r} with `{op}`")));
            }
            Ok(match op {
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
                CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
            })
        }
    }
}

/// Substitute bindings into the head atom to build the derived tuple.
fn build_head(head: &Atom, bind: &Bindings) -> Result<Tuple> {
    let args = head
        .args
        .iter()
        .map(|t| match &t.kind {
            TermKind::Const(c) => Ok(c.clone()),
            TermKind::Var(v) => bind
                .get(v)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("unbound head variable `{v}`"))),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Tuple::new(&head.rel, args))
}

/// Evaluate `rule` triggered by `event` against `db`'s slow tables.
///
/// The event atom (first relational atom in the body) unifies against
/// `event`; the remaining body items are processed in source order:
/// condition atoms join against `db`, constraints filter, assignments bind.
/// Returns every firing (usually zero or one; more when slow tables hold
/// multiple matching rows).
pub fn eval_rule(
    rule: &Rule,
    event: &Tuple,
    db: &Database,
    fns: &FnRegistry,
) -> Result<Vec<Firing>> {
    let event_atom = rule
        .event()
        .ok_or_else(|| Error::Eval(format!("rule `{}` has no event atom", rule.label)))?;

    let mut init = Bindings::new();
    if !unify_atom(event_atom, event, &mut init) {
        return Ok(Vec::new());
    }

    // Partial results: bindings plus the slow tuples consumed so far.
    let mut partials: Vec<(Bindings, Vec<Tuple>)> = vec![(init, Vec::new())];
    let mut seen_event = false;

    for item in &rule.body {
        match item {
            BodyItem::Atom(atom) => {
                if !seen_event && std::ptr::eq(atom, event_atom) {
                    seen_event = true;
                    continue; // already unified
                }
                let mut next = Vec::new();
                for (bind, slow) in &partials {
                    for row in db.rows(&atom.rel) {
                        let mut b2 = bind.clone();
                        if unify_atom(atom, row, &mut b2) {
                            let mut s2 = slow.clone();
                            s2.push(row.clone());
                            next.push((b2, s2));
                        }
                    }
                }
                partials = next;
            }
            BodyItem::Constraint {
                left, op, right, ..
            } => {
                let mut next = Vec::new();
                for (bind, slow) in partials {
                    let lv = eval_expr(left, &bind, fns)?;
                    let rv = eval_expr(right, &bind, fns)?;
                    if compare(*op, &lv, &rv)? {
                        next.push((bind, slow));
                    }
                }
                partials = next;
            }
            BodyItem::Assign { var, expr, .. } => {
                let mut next = Vec::new();
                for (mut bind, slow) in partials {
                    let v = eval_expr(expr, &bind, fns)?;
                    match bind.get(var) {
                        Some(existing) if *existing != v => continue, // filter
                        _ => {
                            bind.insert(var.clone(), v);
                            next.push((bind, slow));
                        }
                    }
                }
                partials = next;
            }
        }
        if partials.is_empty() {
            return Ok(Vec::new());
        }
    }

    partials
        .into_iter()
        .map(|(bind, slow)| {
            Ok(Firing {
                head: build_head(&rule.head, &bind)?,
                slow,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::NodeId;
    use dpc_ndlog::parse_program;

    fn forwarding_rule(label: &str) -> Rule {
        let p = parse_program(dpc_ndlog::programs::PACKET_FORWARDING).unwrap();
        p.rule(label).unwrap().clone()
    }

    fn packet(loc: u32, src: u32, dst: u32, payload: &str) -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(loc)),
                Value::Addr(NodeId(src)),
                Value::Addr(NodeId(dst)),
                Value::str(payload),
            ],
        )
    }

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(NodeId(loc)),
                Value::Addr(NodeId(dst)),
                Value::Addr(NodeId(next)),
            ],
        )
    }

    #[test]
    fn forwarding_r1_fires_with_matching_route() {
        let mut db = Database::new();
        db.insert(route(1, 3, 2));
        let fns = FnRegistry::new();
        let firings =
            eval_rule(&forwarding_rule("r1"), &packet(1, 1, 3, "data"), &db, &fns).unwrap();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].head, packet(2, 1, 3, "data"));
        assert_eq!(firings[0].slow, vec![route(1, 3, 2)]);
    }

    #[test]
    fn forwarding_r1_silent_without_route() {
        let mut db = Database::new();
        db.insert(route(1, 4, 2)); // different destination
        let fns = FnRegistry::new();
        let firings =
            eval_rule(&forwarding_rule("r1"), &packet(1, 1, 3, "data"), &db, &fns).unwrap();
        assert!(firings.is_empty());
    }

    #[test]
    fn forwarding_r2_fires_only_at_destination() {
        let db = Database::new();
        let fns = FnRegistry::new();
        let r2 = forwarding_rule("r2");
        let at_dest = eval_rule(&r2, &packet(3, 1, 3, "data"), &db, &fns).unwrap();
        assert_eq!(at_dest.len(), 1);
        assert_eq!(at_dest[0].head.rel(), "recv");
        assert!(at_dest[0].slow.is_empty());
        let in_transit = eval_rule(&r2, &packet(2, 1, 3, "data"), &db, &fns).unwrap();
        assert!(in_transit.is_empty());
    }

    #[test]
    fn multiple_matching_rows_fire_multiple_times() {
        let mut db = Database::new();
        db.insert(route(1, 3, 2));
        db.insert(route(1, 3, 4)); // multipath
        let fns = FnRegistry::new();
        let firings = eval_rule(&forwarding_rule("r1"), &packet(1, 1, 3, "x"), &db, &fns).unwrap();
        assert_eq!(firings.len(), 2);
        let nexts: Vec<u32> = firings
            .iter()
            .map(|f| f.head.args()[0].as_addr().unwrap().0)
            .collect();
        assert_eq!(nexts, vec![2, 4]);
    }

    #[test]
    fn repeated_variable_in_event_atom_must_match() {
        let p = parse_program("r1 out(@X) :- e(@X, X), s(@X, X).").unwrap();
        let rule = &p.rules[0];
        let mut db = Database::new();
        db.insert(Tuple::new(
            "s",
            vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(1))],
        ));
        let fns = FnRegistry::new();
        let same = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(1))]);
        let diff = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Addr(NodeId(2))]);
        assert_eq!(eval_rule(rule, &same, &db, &fns).unwrap().len(), 1);
        assert_eq!(eval_rule(rule, &diff, &db, &fns).unwrap().len(), 0);
    }

    #[test]
    fn constants_in_atoms_filter() {
        let p = parse_program(r#"r1 out(@X) :- e(@X, "go")."#).unwrap();
        let rule = &p.rules[0];
        let db = Database::new();
        let fns = FnRegistry::new();
        let yes = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::str("go")]);
        let no = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::str("stop")]);
        assert_eq!(eval_rule(rule, &yes, &db, &fns).unwrap().len(), 1);
        assert_eq!(eval_rule(rule, &no, &db, &fns).unwrap().len(), 0);
    }

    #[test]
    fn assignment_binds_and_filters() {
        let p = parse_program("r1 out(@X, Y) :- e(@X, Z), Y := Z + 1.").unwrap();
        let rule = &p.rules[0];
        let db = Database::new();
        let fns = FnRegistry::new();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(41)]);
        let f = eval_rule(rule, &ev, &db, &fns).unwrap();
        assert_eq!(f[0].head.args()[1], Value::Int(42));
    }

    #[test]
    fn user_function_in_constraint() {
        let p =
            parse_program(r#"r1 out(@X) :- e(@X, U), s(@X, D), f_prefix(D, U) == true."#).unwrap();
        let rule = &p.rules[0];
        let mut db = Database::new();
        db.insert(Tuple::new(
            "s",
            vec![Value::Addr(NodeId(1)), Value::str("com")],
        ));
        let mut fns = FnRegistry::new();
        fns.register("f_prefix", |args: &[Value]| {
            let (Some(d), Some(u)) = (args[0].as_str(), args[1].as_str()) else {
                return Err(Error::Eval("f_prefix expects strings".into()));
            };
            Ok(Value::Bool(u.ends_with(d)))
        });
        let hit = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::str("a.com")]);
        let miss = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::str("a.org")]);
        assert_eq!(eval_rule(rule, &hit, &db, &fns).unwrap().len(), 1);
        assert_eq!(eval_rule(rule, &miss, &db, &fns).unwrap().len(), 0);
    }

    #[test]
    fn unknown_function_errors() {
        let p = parse_program("r1 out(@X) :- e(@X, U), f_nope(U) == true.").unwrap();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(1)]);
        let err = eval_rule(&p.rules[0], &ev, &Database::new(), &FnRegistry::new()).unwrap_err();
        assert!(err.to_string().contains("f_nope"), "{err}");
    }

    #[test]
    fn division_by_zero_errors() {
        let p = parse_program("r1 out(@X, Y) :- e(@X, Z), Y := Z / 0.").unwrap();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]);
        let err = eval_rule(&p.rules[0], &ev, &Database::new(), &FnRegistry::new()).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn ordering_comparison_type_mismatch_errors() {
        let p = parse_program("r1 out(@X) :- e(@X, Z), Z < \"abc\".").unwrap();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]);
        assert!(eval_rule(&p.rules[0], &ev, &Database::new(), &FnRegistry::new()).is_err());
    }

    #[test]
    fn ordering_comparisons_work_within_type() {
        let p = parse_program("r1 out(@X) :- e(@X, Z), Z >= 10.").unwrap();
        let db = Database::new();
        let fns = FnRegistry::new();
        let hi = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(12)]);
        let lo = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(9)]);
        assert_eq!(eval_rule(&p.rules[0], &hi, &db, &fns).unwrap().len(), 1);
        assert_eq!(eval_rule(&p.rules[0], &lo, &db, &fns).unwrap().len(), 0);
    }

    #[test]
    fn wrong_relation_or_arity_never_unifies() {
        let rule = forwarding_rule("r1");
        let db = Database::new();
        let fns = FnRegistry::new();
        let wrong_rel = Tuple::new("pkt", vec![Value::Addr(NodeId(1))]);
        assert!(eval_rule(&rule, &wrong_rel, &db, &fns).unwrap().is_empty());
        let wrong_arity = Tuple::new("packet", vec![Value::Addr(NodeId(1))]);
        assert!(eval_rule(&rule, &wrong_arity, &db, &fns)
            .unwrap()
            .is_empty());
    }
}
