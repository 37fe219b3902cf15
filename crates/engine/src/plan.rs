//! Compiled rule plans: slot-mapped bindings and index-driven joins.
//!
//! [`RulePlan::eval`] is the runtime's only rule evaluator.
//! [`eval_rule`](crate::eval::eval_rule) interprets a rule from its AST on
//! every event: variables are looked up by string in a `HashMap` that is
//! cloned once per *candidate* row, and every condition atom is joined by
//! scanning its entire table. [`RulePlan`] moves all of the per-event
//! name resolution to build time:
//!
//! * every variable gets a dense **slot** index, so a binding set is a
//!   `Vec<Option<Value>>` — no hashing, and cloned only for rows that
//!   actually match;
//! * for every condition atom the compiler records which argument
//!   positions are already bound when the atom joins (the `joinSAttr`
//!   analysis exposed by [`dpc_ndlog::join_key_positions`]), and the join
//!   probes a [secondary index](crate::db::Table::ensure_index) on those
//!   positions instead of scanning;
//! * constraints, assignments and the head template are compiled to
//!   slot-addressed expressions.
//!
//! The compiled path is **firing-identical** to the interpreter: an index
//! bucket lists rows in insertion order, which is exactly the scan order
//! restricted to matching rows, and steps execute in source order with the
//! same filter/bind semantics — so heads and slow-tuple lists come out
//! byte-for-byte equal, in the same order (see the `differential`
//! integration test, which keeps the interpreter as this module's oracle).

use std::collections::HashMap;
use std::sync::Arc;

use dpc_common::{Error, RelName, Result, Tuple, Value};
use dpc_ndlog::{join_key_positions, Atom, BodyItem, CmpOp, Delp, Expr, ExprKind, Rule, TermKind};

use crate::db::Database;
use crate::eval::{apply_binop, compare, Firing, FnRegistry};

/// Index/plan effectiveness counters, accumulated per evaluation and
/// exported through `dpc-telemetry` by the runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Join probes served by a secondary index (bucket lookup, no scan).
    pub index_hits: u64,
    /// Join probes that fell back to a full table scan — the atom had no
    /// bound positions, or the index was degenerate (mixed-arity rows).
    pub index_misses: u64,
}

impl EvalStats {
    /// Merge another stats snapshot into this one.
    pub fn merge(&mut self, other: EvalStats) {
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
    }
}

/// How one argument position of an atom is handled during matching.
#[derive(Debug, Clone)]
enum MatchTerm {
    /// The position must equal this constant.
    Const(Value),
    /// First occurrence of a variable: bind the row value into the slot.
    Bind(usize),
    /// Repeated occurrence: the row value must equal the slot's value.
    Check(usize),
}

/// Where a value that is known at join time comes from.
#[derive(Debug, Clone)]
enum ValSource {
    /// A bound variable slot.
    Slot(usize),
    /// A literal from the rule text.
    Const(Value),
}

/// A compiled expression: [`Expr`] with variables resolved to slots.
#[derive(Debug, Clone)]
enum PlanExpr {
    Slot(usize),
    Const(Value),
    BinOp(dpc_ndlog::BinOp, Box<PlanExpr>, Box<PlanExpr>),
    Call(String, Vec<PlanExpr>),
}

/// One join against a slow-changing table.
#[derive(Debug, Clone)]
struct JoinStep {
    rel: String,
    arity: usize,
    /// Argument positions whose value is known at join time, ascending.
    /// This is the secondary-index key for the probe.
    key_positions: Box<[usize]>,
    /// Value sources aligned with `key_positions`.
    key_sources: Vec<ValSource>,
    /// The remaining positions: bind/check in position order.
    rest: Vec<(usize, MatchTerm)>,
}

/// One body item after the event atom, in source order.
#[derive(Debug, Clone)]
enum PlanStep {
    Join(JoinStep),
    Filter {
        left: PlanExpr,
        op: CmpOp,
        right: PlanExpr,
    },
    Assign {
        slot: usize,
        expr: PlanExpr,
    },
}

/// The event atom's match program, run once per incoming event.
#[derive(Debug, Clone)]
struct EventPlan {
    rel: String,
    arity: usize,
    terms: Vec<MatchTerm>,
}

/// A rule compiled for repeated evaluation.
#[derive(Debug, Clone)]
pub struct RulePlan {
    rule: Arc<Rule>,
    /// Slot index -> variable name (for diagnostics only).
    names: Vec<String>,
    event: EventPlan,
    steps: Vec<PlanStep>,
    head_rel: RelName,
    head: Vec<ValSource>,
}

/// Tracks variable -> slot allocation and which slots are bound so far.
#[derive(Default)]
struct SlotMap {
    names: Vec<String>,
    bound: Vec<bool>,
}

impl SlotMap {
    fn slot_of(&mut self, var: &str) -> usize {
        match self.names.iter().position(|n| n == var) {
            Some(s) => s,
            None => {
                self.names.push(var.to_string());
                self.bound.push(false);
                self.names.len() - 1
            }
        }
    }

    fn is_bound(&self, slot: usize) -> bool {
        self.bound[slot]
    }

    fn bind(&mut self, slot: usize) {
        self.bound[slot] = true;
    }
}

impl RulePlan {
    /// Compile `rule`. Fails for rules with no event atom and for rules
    /// whose constraint or assignment reads a variable no earlier atom or
    /// assignment binds (the analyzer's W0202); the interpreter rejects
    /// both at evaluation time instead.
    pub fn compile(rule: &Rule) -> Result<RulePlan> {
        let event_atom = rule
            .event()
            .ok_or_else(|| Error::Eval(format!("rule `{}` has no event atom", rule.label)))?;
        let key_positions = join_key_positions(rule);

        let mut slots = SlotMap::default();

        // Event atom: matched against the incoming tuple from an empty
        // binding set.
        let mut event_terms = Vec::with_capacity(event_atom.arity());
        for term in &event_atom.args {
            event_terms.push(match &term.kind {
                TermKind::Const(c) => MatchTerm::Const(c.clone()),
                TermKind::Var(v) => {
                    let s = slots.slot_of(v);
                    if slots.is_bound(s) {
                        MatchTerm::Check(s)
                    } else {
                        slots.bind(s);
                        MatchTerm::Bind(s)
                    }
                }
            });
        }
        let event = EventPlan {
            rel: event_atom.rel.clone(),
            arity: event_atom.arity(),
            terms: event_terms,
        };

        // Remaining body items, in source order.
        let mut steps = Vec::new();
        let mut seen_event = false;
        let mut join_idx = 0usize;
        for item in &rule.body {
            match item {
                BodyItem::Atom(atom) => {
                    if !seen_event && std::ptr::eq(atom, event_atom) {
                        seen_event = true;
                        continue;
                    }
                    let keyed = key_positions.get(join_idx).map_or(&[][..], Vec::as_slice);
                    join_idx += 1;
                    steps.push(PlanStep::Join(compile_join(atom, keyed, &mut slots)?));
                }
                BodyItem::Constraint {
                    left, op, right, ..
                } => {
                    steps.push(PlanStep::Filter {
                        left: compile_expr(rule, left, &mut slots)?,
                        op: *op,
                        right: compile_expr(rule, right, &mut slots)?,
                    });
                }
                BodyItem::Assign { var, expr, .. } => {
                    let compiled = compile_expr(rule, expr, &mut slots)?;
                    let s = slots.slot_of(var);
                    slots.bind(s);
                    steps.push(PlanStep::Assign {
                        slot: s,
                        expr: compiled,
                    });
                }
            }
        }

        // Head template. Unbound head variables still get a slot so the
        // runtime can report the same error as the interpreter.
        let head = rule
            .head
            .args
            .iter()
            .map(|t| match &t.kind {
                TermKind::Const(c) => ValSource::Const(c.clone()),
                TermKind::Var(v) => ValSource::Slot(slots.slot_of(v)),
            })
            .collect();

        Ok(RulePlan {
            rule: Arc::new(rule.clone()),
            names: slots.names,
            event,
            steps,
            head_rel: Arc::from(rule.head.rel.as_str()),
            head,
        })
    }

    /// The source rule this plan was compiled from.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The rule label.
    pub fn label(&self) -> &str {
        &self.rule.label
    }

    /// Evaluate the plan for one incoming `event`.
    ///
    /// Takes the database mutably so join probes can build missing
    /// secondary indexes in place; the logical table contents are never
    /// modified. Produces exactly the firings (and errors) of
    /// [`eval_rule`](crate::eval::eval_rule) on the same inputs, in the
    /// same order.
    pub fn eval(
        &self,
        event: &Tuple,
        db: &mut Database,
        fns: &FnRegistry,
        stats: &mut EvalStats,
    ) -> Result<Vec<Firing>> {
        if event.rel() != self.event.rel || event.arity() != self.event.arity {
            return Ok(Vec::new());
        }
        let mut slots: Vec<Option<Value>> = vec![None; self.names.len()];
        for (term, val) in self.event.terms.iter().zip(event.args()) {
            match term {
                MatchTerm::Const(c) => {
                    if c != val {
                        return Ok(Vec::new());
                    }
                }
                MatchTerm::Bind(s) => slots[*s] = Some(val.clone()),
                MatchTerm::Check(s) => {
                    if slots[*s].as_ref() != Some(val) {
                        return Ok(Vec::new());
                    }
                }
            }
        }

        let mut partials: Vec<(Vec<Option<Value>>, Vec<Tuple>)> = vec![(slots, Vec::new())];
        for step in &self.steps {
            match step {
                PlanStep::Join(j) => {
                    let mut next = Vec::new();
                    if let Some(table) = db.table_mut(&j.rel) {
                        let indexed =
                            !j.key_positions.is_empty() && table.ensure_index(&j.key_positions);
                        let table = &*table;
                        let mut keybuf = Vec::new();
                        for (bind, slow) in &partials {
                            if indexed {
                                stats.index_hits += 1;
                                keybuf.clear();
                                for src in &j.key_sources {
                                    self.key_value(src, bind)?.encode_into(&mut keybuf);
                                }
                                if let Some(rows) = table.probe(&j.key_positions, &keybuf) {
                                    for row in rows {
                                        j.try_match(row, bind, slow, true, &mut next);
                                    }
                                }
                            } else {
                                stats.index_misses += 1;
                                for row in table.iter() {
                                    j.try_match(row, bind, slow, false, &mut next);
                                }
                            }
                        }
                    }
                    partials = next;
                }
                PlanStep::Filter { left, op, right } => {
                    let mut next = Vec::new();
                    for (bind, slow) in partials {
                        let lv = self.eval_expr(left, &bind, fns)?;
                        let rv = self.eval_expr(right, &bind, fns)?;
                        if compare(*op, &lv, &rv)? {
                            next.push((bind, slow));
                        }
                    }
                    partials = next;
                }
                PlanStep::Assign { slot, expr } => {
                    let mut next = Vec::new();
                    for (mut bind, slow) in partials {
                        let v = self.eval_expr(expr, &bind, fns)?;
                        match &bind[*slot] {
                            Some(existing) if *existing != v => continue, // filter
                            _ => {
                                bind[*slot] = Some(v);
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
                let args = self
                    .head
                    .iter()
                    .map(|src| match src {
                        ValSource::Const(c) => Ok(c.clone()),
                        ValSource::Slot(s) => bind[*s].clone().ok_or_else(|| {
                            Error::Eval(format!("unbound head variable `{}`", self.names[*s]))
                        }),
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Firing {
                    head: Tuple::from_rel(self.head_rel.clone(), args),
                    slow,
                })
            })
            .collect()
    }

    /// Audit the compiled plan against its own source rule.
    ///
    /// Recomputes the static join-key analysis
    /// ([`dpc_ndlog::join_key_positions`]) and replays the plan's binding
    /// discipline symbolically: every slot must be written before it is
    /// read, every `Check` must follow a `Bind`, every join's key
    /// positions must match the analysis (ascending, in range, disjoint
    /// from the residual match terms, and together covering the atom), and
    /// every head slot must be bound by the end of the body. A plan fresh
    /// out of [`RulePlan::compile`] on a structurally valid rule always
    /// passes; a corrupted or stale plan (e.g. after an AST change that the
    /// compiler was not updated for) fails with a description of the first
    /// inconsistency found.
    pub fn audit(&self) -> Result<()> {
        let fail = |what: String| {
            Err(Error::Schema(format!(
                "plan audit failed for rule `{}`: {what}",
                self.rule.label
            )))
        };
        let nslots = self.names.len();
        let mut bound = vec![false; nslots];

        // Event match program.
        if self.event.terms.len() != self.event.arity {
            return fail(format!(
                "event plan has {} match terms for arity {}",
                self.event.terms.len(),
                self.event.arity
            ));
        }
        for (p, term) in self.event.terms.iter().enumerate() {
            match term {
                MatchTerm::Const(_) => {}
                MatchTerm::Bind(s) => {
                    if *s >= nslots {
                        return fail(format!("event position {p} binds out-of-range slot {s}"));
                    }
                    if bound[*s] {
                        return fail(format!(
                            "event position {p} re-binds slot {s} (`{}`)",
                            self.names[*s]
                        ));
                    }
                    bound[*s] = true;
                }
                MatchTerm::Check(s) => {
                    if *s >= nslots {
                        return fail(format!("event position {p} checks out-of-range slot {s}"));
                    }
                    if !bound[*s] {
                        return fail(format!(
                            "event position {p} checks slot {s} (`{}`) before it is bound",
                            self.names[*s]
                        ));
                    }
                }
            }
        }

        // Body steps, replayed in order against the recomputed analysis.
        let expected_keys = join_key_positions(&self.rule);
        let mut join_idx = 0usize;
        for step in &self.steps {
            match step {
                PlanStep::Join(j) => {
                    let expected = expected_keys.get(join_idx).map_or(&[][..], Vec::as_slice);
                    join_idx += 1;
                    if &*j.key_positions != expected {
                        return fail(format!(
                            "join #{join_idx} on `{}` has key positions {:?}, static analysis \
                             says {:?}",
                            j.rel, j.key_positions, expected
                        ));
                    }
                    if j.key_sources.len() != j.key_positions.len() {
                        return fail(format!(
                            "join #{join_idx} on `{}` has {} key sources for {} key positions",
                            j.rel,
                            j.key_sources.len(),
                            j.key_positions.len()
                        ));
                    }
                    if j.key_positions.windows(2).any(|w| w[0] >= w[1]) {
                        return fail(format!(
                            "join #{join_idx} on `{}` key positions {:?} are not strictly \
                             ascending",
                            j.rel, j.key_positions
                        ));
                    }
                    if let Some(&p) = j.key_positions.iter().find(|&&p| p >= j.arity) {
                        return fail(format!(
                            "join #{join_idx} on `{}` keys position {p} beyond arity {}",
                            j.rel, j.arity
                        ));
                    }
                    for src in &j.key_sources {
                        if let ValSource::Slot(s) = src {
                            if *s >= nslots {
                                return fail(format!(
                                    "join #{join_idx} on `{}` keys out-of-range slot {s}",
                                    j.rel
                                ));
                            }
                            if !bound[*s] {
                                return fail(format!(
                                    "join #{join_idx} on `{}` keys slot {s} (`{}`) which is \
                                     unbound at join time",
                                    j.rel, self.names[*s]
                                ));
                            }
                        }
                    }
                    // The residual terms must cover exactly the non-key
                    // positions, each once.
                    let mut covered: Vec<usize> = j.key_positions.to_vec();
                    let mut in_atom: Vec<usize> = Vec::new();
                    for (p, term) in &j.rest {
                        if *p >= j.arity || covered.contains(p) {
                            return fail(format!(
                                "join #{join_idx} on `{}` matches position {p} twice or beyond \
                                 arity {}",
                                j.rel, j.arity
                            ));
                        }
                        covered.push(*p);
                        match term {
                            MatchTerm::Const(_) => {}
                            MatchTerm::Bind(s) => {
                                if *s >= nslots {
                                    return fail(format!(
                                        "join #{join_idx} on `{}` binds out-of-range slot {s}",
                                        j.rel
                                    ));
                                }
                                if bound[*s] || in_atom.contains(s) {
                                    return fail(format!(
                                        "join #{join_idx} on `{}` re-binds slot {s} (`{}`)",
                                        j.rel, self.names[*s]
                                    ));
                                }
                                in_atom.push(*s);
                            }
                            MatchTerm::Check(s) => {
                                if *s >= nslots {
                                    return fail(format!(
                                        "join #{join_idx} on `{}` checks out-of-range slot {s}",
                                        j.rel
                                    ));
                                }
                                if !bound[*s] && !in_atom.contains(s) {
                                    return fail(format!(
                                        "join #{join_idx} on `{}` checks slot {s} (`{}`) before \
                                         it is bound",
                                        j.rel, self.names[*s]
                                    ));
                                }
                            }
                        }
                    }
                    if covered.len() != j.arity {
                        return fail(format!(
                            "join #{join_idx} on `{}` covers {} of {} positions",
                            j.rel,
                            covered.len(),
                            j.arity
                        ));
                    }
                    for s in in_atom {
                        bound[s] = true;
                    }
                }
                PlanStep::Filter { left, right, .. } => {
                    for expr in [left, right] {
                        self.audit_expr(expr, &bound, "filter")?;
                    }
                }
                PlanStep::Assign { slot, expr } => {
                    self.audit_expr(expr, &bound, "assignment")?;
                    if *slot >= nslots {
                        return fail(format!("assignment writes out-of-range slot {slot}"));
                    }
                    bound[*slot] = true;
                }
            }
        }
        if join_idx != expected_keys.len() {
            return fail(format!(
                "plan has {join_idx} joins, source rule has {}",
                expected_keys.len()
            ));
        }

        // Head template.
        if self.head.len() != self.rule.head.arity() {
            return fail(format!(
                "head template has {} sources for arity {}",
                self.head.len(),
                self.rule.head.arity()
            ));
        }
        for (p, src) in self.head.iter().enumerate() {
            if let ValSource::Slot(s) = src {
                if *s >= nslots {
                    return fail(format!("head position {p} reads out-of-range slot {s}"));
                }
                if !bound[*s] {
                    return fail(format!(
                        "head position {p} reads slot {s} (`{}`) which is never bound",
                        self.names[*s]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check that every slot an expression reads is bound at this point.
    fn audit_expr(&self, expr: &PlanExpr, bound: &[bool], ctx: &str) -> Result<()> {
        match expr {
            PlanExpr::Slot(s) => {
                if *s >= bound.len() {
                    return Err(Error::Schema(format!(
                        "plan audit failed for rule `{}`: {ctx} reads out-of-range slot {s}",
                        self.rule.label
                    )));
                }
                if !bound[*s] {
                    return Err(Error::Schema(format!(
                        "plan audit failed for rule `{}`: {ctx} reads slot {s} (`{}`) before it \
                         is bound",
                        self.rule.label, self.names[*s]
                    )));
                }
                Ok(())
            }
            PlanExpr::Const(_) => Ok(()),
            PlanExpr::BinOp(_, l, r) => {
                self.audit_expr(l, bound, ctx)?;
                self.audit_expr(r, bound, ctx)
            }
            PlanExpr::Call(_, args) => args.iter().try_for_each(|a| self.audit_expr(a, bound, ctx)),
        }
    }

    fn key_value<'b>(&self, src: &'b ValSource, bind: &'b [Option<Value>]) -> Result<&'b Value> {
        match src {
            ValSource::Const(c) => Ok(c),
            ValSource::Slot(s) => bind[*s].as_ref().ok_or_else(|| {
                Error::Eval(format!(
                    "internal: join key variable `{}` unbound",
                    self.names[*s]
                ))
            }),
        }
    }

    fn eval_expr(
        &self,
        expr: &PlanExpr,
        bind: &[Option<Value>],
        fns: &FnRegistry,
    ) -> Result<Value> {
        match expr {
            PlanExpr::Slot(s) => bind[*s]
                .clone()
                .ok_or_else(|| Error::Eval(format!("unbound variable `{}`", self.names[*s]))),
            PlanExpr::Const(c) => Ok(c.clone()),
            PlanExpr::BinOp(op, l, r) => {
                let lv = self.eval_expr(l, bind, fns)?;
                let rv = self.eval_expr(r, bind, fns)?;
                apply_binop(*op, &lv, &rv)
            }
            PlanExpr::Call(name, args) => {
                let f = fns
                    .get(name)
                    .ok_or_else(|| Error::Eval(format!("unknown function `{name}`")))?;
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_expr(a, bind, fns))
                    .collect::<Result<_>>()?;
                f(&vals)
            }
        }
    }
}

impl JoinStep {
    /// Try to extend one partial binding with `row`. `key_verified` is true
    /// when the row came out of an index bucket, whose key construction
    /// already guarantees the key positions match (the encoding is
    /// injective). The binding vector is cloned only on success.
    fn try_match(
        &self,
        row: &Tuple,
        bind: &[Option<Value>],
        slow: &[Tuple],
        key_verified: bool,
        next: &mut Vec<(Vec<Option<Value>>, Vec<Tuple>)>,
    ) {
        if row.arity() != self.arity {
            return;
        }
        let args = row.args();
        if !key_verified {
            for (&p, src) in self.key_positions.iter().zip(&self.key_sources) {
                let expect = match src {
                    ValSource::Const(c) => c,
                    ValSource::Slot(s) => match &bind[*s] {
                        Some(v) => v,
                        None => return, // unreachable: key slots are bound
                    },
                };
                if args[p] != *expect {
                    return;
                }
            }
        }
        // Bind/check the free positions without cloning the binding set;
        // `pending` carries in-atom bindings for repeated variables.
        let mut pending: Vec<(usize, &Value)> = Vec::with_capacity(self.rest.len());
        for (p, term) in &self.rest {
            let val = &args[*p];
            match term {
                MatchTerm::Const(c) => {
                    if c != val {
                        return;
                    }
                }
                MatchTerm::Bind(s) => pending.push((*s, val)),
                MatchTerm::Check(s) => {
                    let bound = pending
                        .iter()
                        .rev()
                        .find(|(ps, _)| ps == s)
                        .map(|(_, v)| *v)
                        .or(bind[*s].as_ref());
                    if bound != Some(val) {
                        return;
                    }
                }
            }
        }
        let mut b2 = bind.to_vec();
        for (s, v) in pending {
            b2[s] = Some(v.clone());
        }
        let mut s2 = slow.to_vec();
        s2.push(row.clone());
        next.push((b2, s2));
    }
}

/// Compile one condition atom given the positions `keyed` that the static
/// analysis says are bound at join time.
fn compile_join(atom: &Atom, keyed: &[usize], slots: &mut SlotMap) -> Result<JoinStep> {
    let mut key_sources = Vec::with_capacity(keyed.len());
    let mut rest = Vec::new();
    let mut bound_in_atom: Vec<usize> = Vec::new();
    for (p, term) in atom.args.iter().enumerate() {
        let is_key = keyed.contains(&p);
        match &term.kind {
            TermKind::Const(c) => {
                if is_key {
                    key_sources.push(ValSource::Const(c.clone()));
                } else {
                    rest.push((p, MatchTerm::Const(c.clone())));
                }
            }
            TermKind::Var(v) => {
                let s = slots.slot_of(v);
                if is_key {
                    if !slots.is_bound(s) {
                        return Err(Error::Schema(format!(
                            "join-key analysis marked unbound variable `{v}` at {}[{p}]",
                            atom.rel
                        )));
                    }
                    key_sources.push(ValSource::Slot(s));
                } else if slots.is_bound(s) || bound_in_atom.contains(&s) {
                    rest.push((p, MatchTerm::Check(s)));
                } else {
                    bound_in_atom.push(s);
                    rest.push((p, MatchTerm::Bind(s)));
                }
            }
        }
    }
    for s in bound_in_atom {
        slots.bind(s);
    }
    Ok(JoinStep {
        rel: atom.rel.clone(),
        arity: atom.arity(),
        key_positions: keyed.into(),
        key_sources,
        rest,
    })
}

/// Compile `expr`, every variable of which must already be bound.
fn compile_expr(rule: &Rule, expr: &Expr, slots: &mut SlotMap) -> Result<PlanExpr> {
    Ok(match &expr.kind {
        ExprKind::Var(v) => {
            let s = slots.slot_of(v);
            if !slots.is_bound(s) {
                return Err(Error::Eval(format!(
                    "rule `{}` reads `{v}` before any atom or assignment binds it",
                    rule.label
                )));
            }
            PlanExpr::Slot(s)
        }
        ExprKind::Const(c) => PlanExpr::Const(c.clone()),
        ExprKind::BinOp(op, l, r) => PlanExpr::BinOp(
            *op,
            Box::new(compile_expr(rule, l, slots)?),
            Box::new(compile_expr(rule, r, slots)?),
        ),
        ExprKind::Call(name, args) => PlanExpr::Call(
            name.clone(),
            args.iter()
                .map(|a| compile_expr(rule, a, slots))
                .collect::<Result<_>>()?,
        ),
    })
}

/// All rules of a DELP compiled once, grouped by triggering event relation
/// in program order — the compiled counterpart of
/// [`Delp::rules_for_event`].
#[derive(Debug, Clone, Default)]
pub struct PlanSet {
    by_event: HashMap<String, Vec<Arc<RulePlan>>>,
    total: usize,
}

impl PlanSet {
    /// Compile every rule of `delp`.
    pub fn compile(delp: &Delp) -> Result<PlanSet> {
        let mut by_event: HashMap<String, Vec<Arc<RulePlan>>> = HashMap::new();
        let mut total = 0;
        for rule in delp.rules() {
            let plan = RulePlan::compile(rule)?;
            by_event
                .entry(plan.event.rel.clone())
                .or_default()
                .push(Arc::new(plan));
            total += 1;
        }
        Ok(PlanSet { by_event, total })
    }

    /// Plans whose event relation is `rel`, in program order.
    pub fn plans_for_event(&self, rel: &str) -> &[Arc<RulePlan>] {
        self.by_event.get(rel).map_or(&[], Vec::as_slice)
    }

    /// Audit every compiled plan (see [`RulePlan::audit`]) and check the
    /// event-relation grouping. Returns the number of plans audited.
    pub fn audit(&self) -> Result<usize> {
        let mut audited = 0;
        for (rel, plans) in &self.by_event {
            for plan in plans {
                if plan.event.rel != *rel {
                    return Err(Error::Schema(format!(
                        "plan audit failed for rule `{}`: grouped under event `{rel}` but \
                         compiled for `{}`",
                        plan.rule.label, plan.event.rel
                    )));
                }
                plan.audit()?;
                audited += 1;
            }
        }
        if audited != self.total {
            return Err(Error::Schema(format!(
                "plan audit failed: {audited} plans in groups, {} recorded",
                self.total
            )));
        }
        Ok(audited)
    }

    /// Number of compiled plans.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether any plans were compiled.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_rule;
    use dpc_common::NodeId;
    use dpc_ndlog::parse_program;

    fn check_parity(src: &str, label: &str, event: &Tuple, db: &mut Database, fns: &FnRegistry) {
        let p = parse_program(src).unwrap();
        let rule = p.rule(label).unwrap();
        let naive = eval_rule(rule, event, db, fns);
        let plan = RulePlan::compile(rule).unwrap();
        let mut stats = EvalStats::default();
        let compiled = plan.eval(event, db, fns, &mut stats);
        match (naive, compiled) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "firing mismatch for `{label}` on {event}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("result kind mismatch: naive={a:?} compiled={b:?}"),
        }
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

    #[test]
    fn forwarding_join_uses_index_and_matches_naive() {
        let mut db = Database::new();
        for dst in 0..50 {
            db.insert(route(1, dst, (dst + 1) % 50));
        }
        db.insert(route(1, 3, 9)); // second route for dst=3: two firings
        let fns = FnRegistry::new();
        let src = dpc_ndlog::programs::PACKET_FORWARDING;
        check_parity(src, "r1", &packet(1, 1, 3, "data"), &mut db, &fns);
        check_parity(src, "r2", &packet(3, 1, 3, "data"), &mut db, &fns);

        // And the probe really was indexed.
        let p = parse_program(src).unwrap();
        let plan = RulePlan::compile(p.rule("r1").unwrap()).unwrap();
        let mut stats = EvalStats::default();
        let firings = plan
            .eval(&packet(1, 1, 3, "data"), &mut db, &fns, &mut stats)
            .unwrap();
        assert_eq!(firings.len(), 2);
        assert_eq!(stats.index_hits, 1);
        assert_eq!(stats.index_misses, 0);
    }

    #[test]
    fn unbound_join_falls_back_to_scan() {
        // s(@Y, Z) shares no variable with the event: no key positions.
        let src = "r1 out(@X, Y, Z) :- e(@X), s(@Y, Z).";
        let mut db = Database::new();
        db.insert(Tuple::new("s", vec![Value::Addr(NodeId(7)), Value::Int(1)]));
        let fns = FnRegistry::new();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1))]);
        check_parity(src, "r1", &ev, &mut db, &fns);
        let p = parse_program(src).unwrap();
        let plan = RulePlan::compile(p.rule("r1").unwrap()).unwrap();
        let mut stats = EvalStats::default();
        plan.eval(&ev, &mut db, &fns, &mut stats).unwrap();
        assert_eq!(stats.index_hits, 0);
        assert_eq!(stats.index_misses, 1);
    }

    #[test]
    fn repeated_vars_consts_assigns_and_constraints_match_naive() {
        let src = r#"
            r1 out(@X, W) :- e(@X, X, N), s(@X, Y, Y, "t"), W := N + 1, W > 1.
        "#;
        let mut db = Database::new();
        db.insert(Tuple::new(
            "s",
            vec![
                Value::Addr(NodeId(1)),
                Value::Int(5),
                Value::Int(5),
                Value::str("t"),
            ],
        ));
        db.insert(Tuple::new(
            "s",
            vec![
                Value::Addr(NodeId(1)),
                Value::Int(5),
                Value::Int(6), // repeated-var mismatch
                Value::str("t"),
            ],
        ));
        let fns = FnRegistry::new();
        for ev in [
            Tuple::new(
                "e",
                vec![
                    Value::Addr(NodeId(1)),
                    Value::Addr(NodeId(1)),
                    Value::Int(3),
                ],
            ),
            Tuple::new(
                "e",
                // repeated event var mismatch
                vec![
                    Value::Addr(NodeId(1)),
                    Value::Addr(NodeId(2)),
                    Value::Int(3),
                ],
            ),
            Tuple::new(
                "e",
                // constraint filters (W = 1 not > 1)
                vec![
                    Value::Addr(NodeId(1)),
                    Value::Addr(NodeId(1)),
                    Value::Int(0),
                ],
            ),
        ] {
            check_parity(src, "r1", &ev, &mut db, &fns);
        }
    }

    #[test]
    fn errors_match_naive() {
        let src = "r1 out(@X, Y) :- e(@X, Z), Y := Z / 0.";
        let mut db = Database::new();
        let fns = FnRegistry::new();
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]);
        check_parity(src, "r1", &ev, &mut db, &fns);
        let src2 = "r1 out(@X) :- e(@X, U), f_nope(U) == true.";
        check_parity(src2, "r1", &ev.clone(), &mut db, &fns);
    }

    #[test]
    fn audit_passes_on_bundled_programs() {
        for delp in [
            dpc_ndlog::programs::packet_forwarding(),
            dpc_ndlog::programs::dns_resolution(),
            dpc_ndlog::programs::dhcp(),
            dpc_ndlog::programs::arp(),
        ] {
            let plans = PlanSet::compile(&delp).unwrap();
            assert_eq!(plans.audit().unwrap(), plans.len());
        }
    }

    #[test]
    fn audit_passes_on_assignments_and_constraints() {
        let src = r#"
            r1 out(@X, W) :- e(@X, N), s(@X, Y), W := N + Y, W > 1, f_abs(W) == W.
        "#;
        let p = parse_program(src).unwrap();
        let plan = RulePlan::compile(p.rule("r1").unwrap()).unwrap();
        plan.audit().unwrap();
    }

    #[test]
    fn compile_rejects_expressions_over_unbound_variables() {
        // `Q` is never bound; `Y` is bound only by the join after the
        // constraint. Both plans would fail their audit.
        for src in [
            "r1 out(@X, Y) :- e(@X, Z), Y := Q + 1.",
            "r1 out(@X, Y) :- e(@X), Y > 1, s(@X, Y).",
        ] {
            let p = parse_program(src).unwrap();
            let err = RulePlan::compile(&p.rules[0]).unwrap_err().to_string();
            assert!(
                err.contains("before any atom or assignment binds it"),
                "{err}"
            );
        }
    }

    #[test]
    fn audit_catches_corrupted_join_key_positions() {
        let p = parse_program(dpc_ndlog::programs::PACKET_FORWARDING).unwrap();
        let mut plan = RulePlan::compile(p.rule("r1").unwrap()).unwrap();
        // route(@L, D, N) is keyed on [0, 1]; pretend the compiler keyed it
        // on [0] only — the index would probe a different bucket set.
        match &mut plan.steps[0] {
            PlanStep::Join(j) => {
                j.key_positions = vec![0].into();
                j.key_sources.truncate(1);
            }
            other => panic!("expected join step, got {other:?}"),
        }
        let err = plan.audit().unwrap_err().to_string();
        assert!(err.contains("key positions"), "unexpected message: {err}");
        assert!(err.contains("r1"), "audit should name the rule: {err}");
    }

    #[test]
    fn audit_catches_unbound_key_slot() {
        let p = parse_program(dpc_ndlog::programs::PACKET_FORWARDING).unwrap();
        let mut plan = RulePlan::compile(p.rule("r1").unwrap()).unwrap();
        // Re-point a key source at a slot the event never binds.
        plan.names.push("PHANTOM".to_string());
        let phantom = plan.names.len() - 1;
        match &mut plan.steps[0] {
            PlanStep::Join(j) => j.key_sources[0] = ValSource::Slot(phantom),
            other => panic!("expected join step, got {other:?}"),
        }
        let err = plan.audit().unwrap_err().to_string();
        assert!(err.contains("unbound at join time"), "unexpected: {err}");
    }

    #[test]
    fn audit_catches_unbound_head_slot() {
        let p = parse_program(dpc_ndlog::programs::PACKET_FORWARDING).unwrap();
        let mut plan = RulePlan::compile(p.rule("r2").unwrap()).unwrap();
        plan.names.push("PHANTOM".to_string());
        let phantom = plan.names.len() - 1;
        plan.head[0] = ValSource::Slot(phantom);
        let err = plan.audit().unwrap_err().to_string();
        assert!(err.contains("never bound"), "unexpected: {err}");
    }

    #[test]
    fn plan_set_groups_by_event_in_program_order() {
        let delp = dpc_ndlog::programs::packet_forwarding();
        let plans = PlanSet::compile(&delp).unwrap();
        assert_eq!(plans.len(), 2);
        let for_packet = plans.plans_for_event("packet");
        assert_eq!(for_packet.len(), 2);
        assert_eq!(for_packet[0].label(), "r1");
        assert_eq!(for_packet[1].label(), "r2");
        assert!(plans.plans_for_event("recv").is_empty());
    }
}
