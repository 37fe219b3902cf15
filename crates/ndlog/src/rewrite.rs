//! The compile-time provenance rewrite (Section 6: "we add a program
//! rewrite step that rewrites each DELP into a new program that supports
//! online provenance maintenance ... at runtime").
//!
//! [`rewrite_basic`] transforms a DELP into a plain NDlog program that
//! maintains the Basic scheme (Section 4) *in the language itself*:
//!
//! * every event relation gains two meta attributes `(PLoc, PRid)` — the
//!   chain reference that the recorder-based implementation carries in
//!   its wire metadata;
//! * each original rule recomputes the reference: the head carries the
//!   executing node and the new rule-execution id, produced by the
//!   user-defined functions `f_vid` (content hash of a tuple) and `f_rid`
//!   (rule-execution hash);
//! * each original rule gains *provenance rules* deriving explicit
//!   `ruleExec_<label>_tail` / `ruleExec_<label>_mid` tuples — the rows of
//!   the Basic `ruleExec` table (the tail variant keeps the input event's
//!   vid, per Table 2).
//!
//! [`rewrite_advanced`] goes further and self-hosts the *compression* of
//! Section 5.3: events carry `(PLoc, PRid, Flag)`, rules triggered by a
//! raw input compute `Flag` through the stateful `f_existflag`
//! (equivalence-keys checking, stage 1), and the provenance rules are
//! guarded on `Flag == false` — only the first execution of a class emits
//! rows. The chained rule-execution id is recomputed deterministically by
//! `f_arid`, so compressed executions still deliver the correct shared
//! reference on their output tuples without any `hmap`.
//!
//! The rewritten programs are event-driven but no longer chains (each
//! event triggers both forwarding and provenance rules), so they validate
//! under [`Delp::new_relaxed`] rather than Definition 1. The `dpc-core`
//! test suite executes rewritten programs on the engine with the hash
//! functions registered and checks the derived rows against the native
//! `BasicRecorder` / `AdvancedRecorder` tables, hash for hash.

use dpc_common::Value;

use crate::ast::{Atom, BodyItem, CmpOp, Expr, ExprKind, Program, Rule, Term, TermKind};
use crate::delp::Delp;
use crate::keys::EquivKeys;

/// The sentinel value carried by input events' meta attributes before the
/// first rule fires (a NULL chain reference).
pub const NULL_REF: &str = "null";

/// Prefix of the derived provenance relations.
pub const RULE_EXEC_PREFIX: &str = "ruleExec_";

/// Number of meta attributes appended to each event relation.
pub const META_ARITY: usize = 2;

fn var(name: impl Into<String>) -> Term {
    Term::var(name)
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::call(name, args)
}

fn sconst(s: &str) -> Expr {
    Expr::cnst(Value::str(s))
}

/// Fresh meta variable names that cannot collide with user variables
/// (scans the program once and extends with underscores if needed).
fn meta_names(program: &Program) -> (String, String, String, String) {
    let mut taken = std::collections::BTreeSet::new();
    for r in &program.rules {
        for a in std::iter::once(&r.head).chain(r.body.iter().filter_map(|b| match b {
            BodyItem::Atom(a) => Some(a),
            _ => None,
        })) {
            for v in a.vars() {
                taken.insert(v.to_string());
            }
        }
    }
    let fresh = |base: &str| {
        let mut name = base.to_string();
        while taken.contains(&name) {
            name.push('_');
        }
        name
    };
    (fresh("PLOC"), fresh("PRID"), fresh("RIDNEW"), fresh("VE"))
}

/// Rewrite a DELP into the self-hosted Basic-provenance program.
pub fn rewrite_basic(delp: &Delp) -> Program {
    let (ploc, prid, rid_new, ve) = meta_names(delp.program());
    let mut rules = Vec::new();

    for rule in delp.rules() {
        let event = rule.event().expect("validated DELP").clone();
        let conditions: Vec<BodyItem> = rule.body.iter().skip(1).cloned().collect();

        // Meta-extended event atom.
        let mut ev_meta = event.clone();
        ev_meta.args.push(var(&ploc));
        ev_meta.args.push(var(&prid));

        // Event-vid assignment: hash of the *original* event tuple.
        let mut ve_args = vec![sconst(&event.rel)];
        ve_args.extend(event.args.iter().map(term_to_expr));
        let assign_ve = BodyItem::assign(ve.clone(), call("f_vid", ve_args));

        // Slow-tuple vid expressions, in body order.
        let slow_atoms: Vec<&Atom> = rule.condition_atoms().collect();
        let slow_vid_exprs: Vec<Expr> = slow_atoms
            .iter()
            .map(|a| {
                let mut args = vec![sconst(&a.rel)];
                args.extend(a.args.iter().map(term_to_expr));
                call("f_vid", args)
            })
            .collect();

        // RID := f_rid(label, loc, VE, slow vids...) — matches the
        // ExSPAN/Basic rid hash exactly.
        let loc_expr = term_to_expr(event.args.first().expect("events have a location"));
        let mut rid_args = vec![sconst(&rule.label), loc_expr.clone(), Expr::var(ve.clone())];
        rid_args.extend(slow_vid_exprs.iter().cloned());
        let assign_rid = BodyItem::assign(rid_new.clone(), call("f_rid", rid_args));

        // The rewritten forwarding rule: head carries (loc, RID).
        let mut head_meta = rule.head.clone();
        head_meta.args.push(term_to_expr_term(&loc_expr));
        head_meta.args.push(var(&rid_new));
        let mut body = vec![BodyItem::Atom(ev_meta.clone())];
        body.extend(conditions.iter().cloned());
        body.push(assign_ve.clone());
        body.push(assign_rid.clone());
        rules.push(Rule::new(rule.label.clone(), head_meta, body));

        // Provenance rules: the Basic ruleExec rows. Two variants because
        // the chain tail additionally stores the input event's vid
        // (Table 2) — selected by whether the incoming reference is NULL.
        for (variant, keep_event_vid, guard) in
            [("tail", true, CmpOp::Eq), ("mid", false, CmpOp::Ne)]
        {
            // ruleExec_<label>_<variant>(@L, RID, VE?, Vslow..., PLoc, PRid)
            let mut h_args: Vec<Term> = vec![term_to_expr_term(&loc_expr), var(&rid_new)];
            if keep_event_vid {
                h_args.push(var(&ve));
            }
            let mut body = vec![BodyItem::Atom(ev_meta.clone())];
            body.extend(conditions.iter().cloned());
            body.push(assign_ve.clone());
            body.push(assign_rid.clone());
            for (k, e) in slow_vid_exprs.iter().enumerate() {
                let v = format!("{ve}S{k}");
                body.push(BodyItem::assign(v.clone(), e.clone()));
                h_args.push(var(v));
            }
            h_args.push(var(&ploc));
            h_args.push(var(&prid));
            body.push(BodyItem::constraint(
                Expr::var(prid.clone()),
                guard,
                sconst(NULL_REF),
            ));
            rules.push(Rule::new(
                format!("{}_{variant}", rule.label),
                Atom::new(
                    format!("{RULE_EXEC_PREFIX}{}_{variant}", rule.label),
                    h_args,
                ),
                body,
            ));
        }
    }

    Program { rules }
}

/// Rewrite a DELP into the self-hosted Advanced-compression program.
///
/// Meta attributes on event relations: `(PLoc, PRid, Flag)`. Rules come
/// in `_in` variants (triggered by raw inputs, `PRid == "null"`; they run
/// the stage-1 equivalence-keys check via `f_existflag`) and `_fwd`
/// variants (triggered by intermediate events; they propagate the flag),
/// each with a provenance rule guarded on `Flag == false` deriving the
/// `ruleExecA_<label>_{tail,mid}` rows of the Advanced table (slow vids
/// only, per Table 3).
pub fn rewrite_advanced(delp: &Delp, keys: &EquivKeys) -> Program {
    let (ploc, prid, rid_new, _ve) = meta_names(delp.program());
    let flag = {
        // One more fresh name, disjoint from the others.
        let mut f = "FLAG".to_string();
        while f == ploc || f == prid || f == rid_new {
            f.push('_');
        }
        f
    };
    let mut rules = Vec::new();

    for rule in delp.rules() {
        let event = rule.event().expect("validated DELP").clone();
        let conditions: Vec<BodyItem> = rule.body.iter().skip(1).cloned().collect();
        let loc_expr = term_to_expr(event.args.first().expect("events have a location"));
        let is_input_rel = event.rel == delp.input_event();

        // Meta-extended event atom.
        let mut ev_meta = event.clone();
        ev_meta.args.push(var(&ploc));
        ev_meta.args.push(var(&prid));
        ev_meta.args.push(var(&flag));

        // Slow-tuple vid expressions, in body order.
        let slow_atoms: Vec<&Atom> = rule.condition_atoms().collect();
        let slow_vid_exprs: Vec<Expr> = slow_atoms
            .iter()
            .map(|a| {
                let mut args = vec![sconst(&a.rel)];
                args.extend(a.args.iter().map(term_to_expr));
                call("f_vid", args)
            })
            .collect();

        // RID := f_arid(label, PLoc, PRid, slow vids...) — the chained
        // Advanced rule-execution id, recomputable by every execution.
        let mut rid_args = vec![
            sconst(&rule.label),
            Expr::var(ploc.clone()),
            Expr::var(prid.clone()),
        ];
        rid_args.extend(slow_vid_exprs.iter().cloned());
        let assign_rid = BodyItem::assign(rid_new.clone(), call("f_arid", rid_args));

        // Variants: `_in` fires on raw inputs (computes the flag via the
        // stage-1 check), `_fwd` on intermediate events (propagates it).
        for (variant, input_side) in [("in", true), ("fwd", false)] {
            if input_side && !is_input_rel {
                continue; // only the input relation receives raw events
            }
            let guard = BodyItem::constraint(
                Expr::var(prid.clone()),
                if input_side { CmpOp::Eq } else { CmpOp::Ne },
                sconst(NULL_REF),
            );
            // The flag variable used downstream of this variant.
            let out_flag = if input_side {
                format!("{flag}2")
            } else {
                flag.clone()
            };
            let mut common = vec![BodyItem::Atom(ev_meta.clone())];
            common.extend(conditions.iter().cloned());
            common.push(guard);
            if input_side {
                // Stage 1: equivalence-keys checking at the input node.
                // Arguments: the number of key attributes, the location,
                // the key valuation, then the full event (so the check is
                // idempotent for one event even though both the forwarding
                // and the provenance variant evaluate it).
                let key_attrs: Vec<Expr> = keys
                    .indices()
                    .iter()
                    .filter(|&&i| i != 0)
                    .map(|&i| term_to_expr(&event.args[i]))
                    .collect();
                let mut args = vec![
                    Expr::cnst(Value::Int(key_attrs.len() as i64)),
                    loc_expr.clone(),
                ];
                args.extend(key_attrs);
                args.extend(event.args.iter().map(term_to_expr));
                common.push(BodyItem::assign(
                    out_flag.clone(),
                    call("f_existflag", args),
                ));
            }
            common.push(assign_rid.clone());

            // Forwarding variant.
            let mut head_meta = rule.head.clone();
            head_meta.args.push(term_to_expr_term(&loc_expr));
            head_meta.args.push(var(&rid_new));
            head_meta.args.push(var(&out_flag));
            rules.push(Rule::new(
                format!("{}_{variant}", rule.label),
                head_meta,
                common.clone(),
            ));

            // Provenance variant: only uncompressed executions emit rows.
            let mut h_args: Vec<Term> = vec![term_to_expr_term(&loc_expr), var(&rid_new)];
            let mut body = common.clone();
            for (k, e) in slow_vid_exprs.iter().enumerate() {
                let v = format!("{rid_new}S{k}");
                body.push(BodyItem::assign(v.clone(), e.clone()));
                h_args.push(var(v));
            }
            h_args.push(var(&ploc));
            h_args.push(var(&prid));
            body.push(BodyItem::constraint(
                Expr::var(out_flag.clone()),
                CmpOp::Eq,
                Expr::cnst(Value::Bool(false)),
            ));
            let prov_variant = if input_side { "tail" } else { "mid" };
            rules.push(Rule::new(
                format!("{}_{variant}_prov", rule.label),
                Atom::new(format!("ruleExecA_{}_{prov_variant}", rule.label), h_args),
                body,
            ));
        }
    }

    Program { rules }
}

fn term_to_expr(t: &Term) -> Expr {
    match &t.kind {
        TermKind::Var(v) => Expr::var(v.clone()),
        TermKind::Const(c) => Expr::cnst(c.clone()),
    }
}

fn term_to_expr_term(e: &Expr) -> Term {
    match &e.kind {
        ExprKind::Var(v) => Term::var(v.clone()),
        ExprKind::Const(c) => Term::cnst(c.clone()),
        other => unreachable!("location expressions are terms, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::programs;

    fn rewritten() -> Program {
        rewrite_basic(&programs::packet_forwarding())
    }

    #[test]
    fn rewrite_produces_three_rules_per_original() {
        let p = rewritten();
        // r1, r1_tail, r1_mid, r2, r2_tail, r2_mid.
        assert_eq!(p.rules.len(), 6);
        let labels: Vec<_> = p.rules.iter().map(|r| r.label.clone()).collect();
        assert_eq!(
            labels,
            vec!["r1", "r1_tail", "r1_mid", "r2", "r2_tail", "r2_mid"]
        );
    }

    #[test]
    fn rewritten_program_round_trips_through_the_parser() {
        let p = rewritten();
        let text = p.to_string();
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(p, reparsed);
    }

    #[test]
    fn event_relations_gain_meta_attributes() {
        let p = rewritten();
        let r1 = p.rule("r1").unwrap();
        // packet had 4 attributes; the rewritten event and head have 6.
        assert_eq!(r1.event().unwrap().arity(), 4 + META_ARITY);
        assert_eq!(r1.head.arity(), 4 + META_ARITY);
        // recv too: the output tuple carries its prov reference inline.
        let r2 = p.rule("r2").unwrap();
        assert_eq!(r2.head.arity(), 4 + META_ARITY);
    }

    #[test]
    fn tail_variant_keeps_the_event_vid() {
        let p = rewritten();
        let tail = p.rule("r1_tail").unwrap();
        let mid = p.rule("r1_mid").unwrap();
        // tail: (@L, RID, VE, Vslow, PLoc, PRid) = 6; mid drops VE = 5.
        assert_eq!(tail.head.arity(), 6);
        assert_eq!(mid.head.arity(), 5);
        // Guards select on the NULL sentinel.
        let tail_guard = tail.constraints().next().unwrap();
        assert_eq!(tail_guard.1, CmpOp::Eq);
        let mid_guard = mid.constraints().next().unwrap();
        assert_eq!(mid_guard.1, CmpOp::Ne);
    }

    #[test]
    fn meta_variables_avoid_collisions() {
        // A program already using PLOC forces renaming.
        let src = "r1 out(@X, PLOC) :- e(@X, PLOC), s(@X, X).";
        let delp = crate::Delp::new(parse_program(src).unwrap()).unwrap();
        let p = rewrite_basic(&delp);
        let r1 = p.rule("r1").unwrap();
        let ev = r1.event().unwrap();
        // The appended meta attribute is PLOC_ (renamed), not PLOC.
        assert_eq!(ev.args[ev.arity() - 2], Term::var("PLOC_"));
    }

    #[test]
    fn advanced_rewrite_structure() {
        let keys = crate::keys::equivalence_keys(&programs::packet_forwarding());
        let p = rewrite_advanced(&programs::packet_forwarding(), &keys);
        // Both rules' event relation is `packet` — the input relation —
        // so both get in/fwd forwarding variants plus a prov rule each
        // (a raw packet injected at its own destination triggers r2
        // directly): 4 rules per original.
        assert_eq!(p.rules.len(), 8);
        let labels: Vec<_> = p.rules.iter().map(|r| r.label.clone()).collect();
        assert_eq!(
            labels,
            vec![
                "r1_in",
                "r1_in_prov",
                "r1_fwd",
                "r1_fwd_prov",
                "r2_in",
                "r2_in_prov",
                "r2_fwd",
                "r2_fwd_prov"
            ]
        );
        // Events and heads gained three meta attributes.
        let r1 = p.rule("r1_in").unwrap();
        assert_eq!(r1.event().unwrap().arity(), 4 + 3);
        assert_eq!(r1.head.arity(), 4 + 3);
        // The input variant runs the stage-1 check; forwarders do not.
        let has_check = |label: &str| {
            p.rule(label)
                .unwrap()
                .assignments()
                .any(|(_, e)| matches!(&e.kind, ExprKind::Call(n, _) if n == "f_existflag"))
        };
        assert!(has_check("r1_in"));
        assert!(has_check("r1_in_prov"));
        assert!(!has_check("r1_fwd"));
        assert!(!has_check("r2_fwd"));
        // Provenance rules are guarded on Flag == false.
        let guard_count = p
            .rule("r1_fwd_prov")
            .unwrap()
            .constraints()
            .filter(|(_, _, r)| matches!(&r.kind, ExprKind::Const(Value::Bool(false))))
            .count();
        assert_eq!(guard_count, 1);
        // It still parses and validates relaxed.
        let text = p.to_string();
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(p, reparsed);
        assert!(crate::Delp::new_relaxed(p).is_ok());
    }

    #[test]
    fn rewritten_program_validates_relaxed() {
        let p = rewritten();
        let relaxed = crate::Delp::new_relaxed(p).unwrap();
        assert_eq!(relaxed.input_event(), "packet");
        assert!(relaxed.is_output("recv"));
        assert!(relaxed.is_output("ruleExec_r1_tail"));
        assert!(relaxed.is_output("ruleExec_r2_mid"));
        // Strict DELP validation rightly rejects it (branching rules).
        assert!(crate::Delp::new(rewritten()).is_err());
    }
}
