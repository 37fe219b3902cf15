//! Differential testing: compiled [`RulePlan`] evaluation must produce
//! byte-identical firings — head tuple and slow tuples, in the same order
//! — as the naive AST interpreter [`eval_rule`], for every bundled
//! program, for seeded-random events and databases, and for synthetic
//! rules covering the tricky corners (repeated variables, constants,
//! scan fallbacks, assignments, constraints, user functions, errors).

use std::collections::BTreeMap;

use dpc_common::{NodeId, Rng, SeededRng, Tuple, Value};
use dpc_engine::eval::{eval_rule, FnRegistry};
use dpc_engine::plan::{EvalStats, RulePlan};
use dpc_engine::Database;
use dpc_ndlog::ast::{BodyItem, Rule};
use dpc_ndlog::parser::parse_program;
use dpc_ndlog::programs;
use dpc_ndlog::Delp;

/// Relation name → arity, collected from every atom in the program.
fn rel_arities(delp: &Delp) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for rule in delp.rules() {
        out.insert(rule.head.rel.clone(), rule.head.arity());
        for item in &rule.body {
            if let BodyItem::Atom(a) = item {
                out.insert(a.rel.clone(), a.arity());
            }
        }
    }
    out
}

/// Values drawn from a deliberately tiny domain so random joins collide
/// often: a handful of addresses, small integers, and strings that form
/// subdomain chains (exercising `f_isSubDomain` both ways).
fn random_value(rng: &mut SeededRng) -> Value {
    const STRS: &[&str] = &["com", "a.com", "b.a.com", "org", "x.org", "data"];
    match rng.next_u64() % 4 {
        0 => Value::Addr(NodeId((rng.next_u64() % 4) as u32)),
        1 => Value::Int((rng.next_u64() % 6) as i64),
        2 => Value::str(STRS[(rng.next_u64() % STRS.len() as u64) as usize]),
        _ => Value::Bool(rng.next_u64().is_multiple_of(2)),
    }
}

fn random_tuple(rng: &mut SeededRng, rel: &str, arity: usize) -> Tuple {
    // Index 0 is the location specifier, so always an address.
    let mut args = vec![Value::Addr(NodeId((rng.next_u64() % 4) as u32))];
    args.extend((1..arity).map(|_| random_value(rng)));
    Tuple::new(rel, args)
}

/// Registry with the one user function the bundled programs need.
fn registry() -> FnRegistry {
    let mut fns = FnRegistry::new();
    fns.register("f_isSubDomain", |args: &[Value]| {
        let (Some(dm), Some(url)) = (args[0].as_str(), args[1].as_str()) else {
            return Err(dpc_common::Error::Eval(
                "f_isSubDomain expects (domain, url) strings".into(),
            ));
        };
        Ok(Value::Bool(
            !dm.is_empty() && (url == dm || url.ends_with(&format!(".{dm}"))),
        ))
    });
    fns
}

/// Assert naive and compiled evaluation agree on `rule` for `event`
/// against `db` — identical `Vec<Firing>` (order included) on success,
/// identical error messages on failure.
fn assert_parity(rule: &Rule, plan: &RulePlan, event: &Tuple, db: &mut Database, fns: &FnRegistry) {
    let naive = eval_rule(rule, event, db, fns);
    let mut stats = EvalStats::default();
    let compiled = plan.eval(event, db, fns, &mut stats);
    match (naive, compiled) {
        (Ok(n), Ok(c)) => assert_eq!(n, c, "firings diverge: rule `{}` on {event}", rule.label),
        (Err(n), Err(c)) => assert_eq!(
            n.to_string(),
            c.to_string(),
            "error messages diverge: rule `{}` on {event}",
            rule.label
        ),
        (n, c) => panic!(
            "outcome diverges for rule `{}` on {event}: naive {n:?}, compiled {c:?}",
            rule.label
        ),
    }
}

/// Run the full differential loop over one program: seeded-random slow
/// state, random events for every rule, and interleaved insert/remove
/// churn so tombstones and incremental index maintenance are on the hook.
fn differential_program(delp: &Delp, seed: u64, rounds: usize) {
    let fns = registry();
    let arities = rel_arities(delp);
    let plans: Vec<(usize, RulePlan)> = delp
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| (i, RulePlan::compile(r).expect("bundled rules compile")))
        .collect();
    let slow: Vec<(&str, usize)> = arities
        .iter()
        .filter(|(rel, _)| delp.is_slow(rel))
        .map(|(rel, &a)| (rel.as_str(), a))
        .collect();

    let mut rng = SeededRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut rows: Vec<Tuple> = Vec::new();
    for &(rel, arity) in &slow {
        for _ in 0..12 {
            let t = random_tuple(&mut rng, rel, arity);
            if db.insert(t.clone()) {
                rows.push(t);
            }
        }
    }

    for round in 0..rounds {
        for (i, plan) in &plans {
            let rule = &delp.rules()[*i];
            let event_rel = rule.event().expect("DELP rule has an event").rel.clone();
            let arity = arities[&event_rel];
            for _ in 0..4 {
                let ev = random_tuple(&mut rng, &event_rel, arity);
                assert_parity(rule, plan, &ev, &mut db, &fns);
            }
        }
        // Churn the slow state between rounds: removals leave tombstones
        // and stale index-bucket entries, insertions append to existing
        // buckets — the compiled path must keep matching the naive scan.
        if !rows.is_empty() && round.is_multiple_of(2) {
            let victim = rows.swap_remove((rng.next_u64() as usize) % rows.len());
            assert!(db.remove(&victim), "row was present");
        }
        let &(rel, arity) = &slow[(rng.next_u64() as usize) % slow.len().max(1)];
        let t = random_tuple(&mut rng, rel, arity);
        if db.insert(t.clone()) {
            rows.push(t);
        }
    }
}

#[test]
fn bundled_programs_fire_identically() {
    for (name, delp) in [
        ("packet_forwarding", programs::packet_forwarding()),
        ("dns_resolution", programs::dns_resolution()),
        ("dhcp", programs::dhcp()),
        ("arp", programs::arp()),
    ] {
        for seed in 0..8u64 {
            differential_program(&delp, 0xD1FF + seed * 1315423911 + name.len() as u64, 24);
        }
    }
}

/// Synthetic rules stressing the corners the bundled programs miss:
/// repeated variables within and across atoms, constants in condition
/// atoms, joins with no bound positions (scan fallback), multi-atom
/// chains, assignments feeding later constraints, and user functions.
#[test]
fn synthetic_rules_fire_identically() {
    let cases = [
        // Repeated variable inside the event atom and across the join.
        "r1 out(@X, Y) :- e(@X, X, Y), s(@X, Y).",
        // Constant in a condition atom plus a repeated join variable.
        r#"r1 out(@X) :- e(@X, Y), s(@X, "com", Y)."#,
        // Join with no bound positions: must fall back to a scan.
        "r1 out(@X, A, B) :- e(@X), s(@A, B).",
        // Two-atom chain where the second join key comes from the first.
        "r1 out(@X, C) :- e(@X, A), s(@X, A, B), t(@X, B, C).",
        // Assignment binding a variable used by a later constraint.
        "r1 out(@X, W) :- e(@X, Z), W := Z + 1, W < 4.",
        // Constraint between two event-bound variables.
        "r1 out(@X) :- e(@X, A, B), A == B.",
        // User function in a constraint over joined state.
        r#"r1 out(@X) :- e(@X, U), s(@X, D), f_isSubDomain(D, U) == true."#,
        // Comparison on the joined row, filtering after the index probe.
        "r1 out(@X, V) :- e(@X, K), s(@X, K, V), V >= 2.",
    ];
    let fns = registry();
    for (ci, src) in cases.iter().enumerate() {
        let program = parse_program(src).expect("case parses");
        let rule = &program.rules[0];
        let plan = RulePlan::compile(rule).expect("case compiles");
        let arities: BTreeMap<String, usize> = {
            let mut m = BTreeMap::new();
            for item in &rule.body {
                if let BodyItem::Atom(a) = item {
                    m.insert(a.rel.clone(), a.arity());
                }
            }
            m
        };
        let mut rng = SeededRng::seed_from_u64(0x5EED + ci as u64);
        let mut db = Database::new();
        let mut rows = Vec::new();
        for (rel, &arity) in arities.iter().filter(|(rel, _)| *rel != "e") {
            for _ in 0..10 {
                let t = random_tuple(&mut rng, rel, arity);
                if db.insert(t.clone()) {
                    rows.push(t);
                }
            }
        }
        for step in 0..80u32 {
            let ev = random_tuple(&mut rng, "e", arities["e"]);
            assert_parity(rule, &plan, &ev, &mut db, &fns);
            if step.is_multiple_of(5) && !rows.is_empty() {
                let victim = rows.swap_remove((rng.next_u64() as usize) % rows.len());
                db.remove(&victim);
            }
        }
    }
}

/// Evaluation errors must carry identical messages on both paths.
#[test]
fn error_messages_match_exactly() {
    let cases: &[(&str, Tuple)] = &[
        (
            "r1 out(@X, Y) :- e(@X, Z), Y := Z / 0.",
            Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]),
        ),
        (
            "r1 out(@X, Y) :- e(@X, Z), Y := Z + 1.",
            Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(i64::MAX)]),
        ),
        (
            "r1 out(@X, Y) :- e(@X, Z), Y := Z * 2.",
            Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::str("nope")]),
        ),
        (
            r#"r1 out(@X) :- e(@X, Z), Z < "abc"."#,
            Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]),
        ),
        (
            "r1 out(@X) :- e(@X, U), f_nope(U) == true.",
            Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(1)]),
        ),
    ];
    let fns = registry();
    for (src, ev) in cases {
        let program = parse_program(src).expect("case parses");
        let rule = &program.rules[0];
        let plan = RulePlan::compile(rule).expect("case compiles");
        let mut db = Database::new();
        assert_parity(rule, &plan, ev, &mut db, &fns);
    }
}

/// Two keyed joins whose key values mix `Addr`, `Int` and `Str` of equal
/// payload (`n1`, `1`, `"1"`), so keys that agree on every byte but the
/// variant tag must still land apart. The slow tables churn between
/// evaluations: removals leave tombstones and stale bucket entries, and
/// enough of them trigger compaction and index rebuilds.
#[test]
fn mixed_variant_keys_fire_identically_under_churn() {
    let src = "r1 out(@X, A, B) :- e(@X, K, J), s(@X, K, A), t(@X, J, A, B).";
    let program = parse_program(src).expect("case parses");
    let rule = &program.rules[0];
    let plan = RulePlan::compile(rule).expect("case compiles");
    let fns = registry();
    let value = |rng: &mut SeededRng| {
        let payload = rng.next_u64() % 2;
        match rng.next_u64() % 3 {
            0 => Value::Addr(NodeId(payload as u32)),
            1 => Value::Int(payload as i64),
            _ => Value::str(payload.to_string()),
        }
    };
    let tuple = |rng: &mut SeededRng, rel: &str, arity: usize| {
        let mut args = vec![Value::Addr(NodeId((rng.next_u64() % 2) as u32))];
        args.extend((1..arity).map(|_| value(rng)));
        Tuple::new(rel, args)
    };
    let mut firings = 0;
    for seed in 0..6u64 {
        let mut rng = SeededRng::seed_from_u64(0x4D1_7ED + seed);
        let mut db = Database::new();
        let mut rows: Vec<Tuple> = Vec::new();
        for step in 0..300u32 {
            let ev = tuple(&mut rng, "e", 3);
            assert_parity(rule, &plan, &ev, &mut db, &fns);
            firings += eval_rule(rule, &ev, &db, &fns).expect("no errors").len();
            // Grow the tables for a while, then mostly shrink them.
            let removal_odds = if step < 150 { 1 } else { 3 };
            if rng.next_u64() % 4 < removal_odds && !rows.is_empty() {
                let victim = rows.swap_remove((rng.next_u64() as usize) % rows.len());
                assert!(db.remove(&victim), "row was present");
            } else {
                let t = if rng.next_u64().is_multiple_of(2) {
                    tuple(&mut rng, "s", 3)
                } else {
                    tuple(&mut rng, "t", 4)
                };
                if db.insert(t.clone()) {
                    rows.push(t);
                }
            }
        }
    }
    assert!(firings > 300, "the joins matched: {firings} firings");
}
