//! Differential testing of compiled rule plans against the naive AST
//! interpreter (`support/interp.rs`), the oracle kept only here.
//!
//! [`RulePlan::eval`] must produce byte-identical firings — head tuple and
//! slow tuples, in the same order — and identical errors, for every bundled
//! program, for seeded-random events and databases, and for synthetic
//! rules covering the tricky corners (repeated variables, constants, scan
//! fallbacks, assignments, constraints, user functions, errors).
//!
//! [`RulePlan::replay`], the re-derivation step of query-time
//! reconstruction, is checked on the same firings: each replays from its
//! event and slow list to its head, and a slow list with one tuple swapped
//! for another row of the same relation, permuted, one tuple short or one
//! too long replays to exactly the firing with that list, which is usually
//! none.

#[path = "support/interp.rs"]
mod interp;

use std::collections::BTreeMap;

use dpc_common::{NodeId, Rng, SeededRng, Tuple, Value};
use dpc_engine::eval::{Firing, FnRegistry};
use dpc_engine::plan::{EvalStats, RulePlan};
use dpc_engine::Database;
use dpc_ndlog::ast::{BodyItem, Rule};
use dpc_ndlog::parser::parse_program;
use dpc_ndlog::programs;
use dpc_ndlog::Delp;
use interp::eval_rule;

/// The firewall-forwarding program of `dpc_apps::firewall`: its `r1`
/// joins two slow relations, `acl` and `route`.
const FIREWALL_FORWARDING: &str = r#"
    r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), acl(@L, S), route(@L, D, N).
    r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
"#;

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

/// How many mutated slow lists replayed to no firing, by mutation.
#[derive(Debug, Default)]
struct Rejected {
    swapped: usize,
    permuted: usize,
    short: usize,
    long: usize,
}

impl Rejected {
    /// Every mutation was rejected at least once, permutations only when
    /// `permutable` (some rule joins two or more tuples).
    fn assert_all_seen(&self, permutable: bool) {
        assert!(
            self.swapped > 0 && self.short > 0 && self.long > 0,
            "{self:?}"
        );
        assert!(!permutable || self.permuted > 0, "{self:?}");
    }
}

/// Assert naive and compiled evaluation agree on `rule` for `event`
/// against `db` — identical `Vec<Firing>` (order included) on success,
/// identical error messages on failure — and that the firings replay.
fn assert_parity(
    rule: &Rule,
    plan: &RulePlan,
    event: &Tuple,
    db: &mut Database,
    fns: &FnRegistry,
    rejected: &mut Rejected,
) {
    let naive = eval_rule(rule, event, db, fns);
    let mut stats = EvalStats::default();
    let compiled = plan.eval(event, db, fns, &mut stats);
    match (naive, compiled) {
        (Ok(n), Ok(c)) => {
            assert_eq!(n, c, "firings diverge: rule `{}` on {event}", rule.label);
            assert_replays(plan, event, &c, db, fns, rejected);
        }
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

/// Every firing replays from `(event, firing.slow)` to its head. A slow
/// list with one tuple swapped for another row of `db`, rotated, one tuple
/// short or one too long replays to the head of the firing with exactly
/// that list, or to `None` when no firing has it. Every mutated list is
/// made of rows the evaluation could join, so none of them can fail where
/// the evaluation did not.
fn assert_replays(
    plan: &RulePlan,
    event: &Tuple,
    firings: &[Firing],
    db: &Database,
    fns: &FnRegistry,
    rejected: &mut Rejected,
) {
    let replay = |slow: &[Tuple]| {
        let got = plan
            .replay(event, slow, fns)
            .expect("replay fails only where eval fails");
        let want = firings.iter().find(|f| f.slow == slow).map(|f| &f.head);
        assert_eq!(
            got.as_ref(),
            want,
            "`{}` on {event} replayed from {slow:?}",
            plan.label()
        );
        usize::from(got.is_none())
    };
    for f in firings {
        assert_eq!(replay(&f.slow), 0);
        for (k, recorded) in f.slow.iter().enumerate() {
            for row in db.rows(recorded.rel()).filter(|&row| row != recorded) {
                let mut swapped = f.slow.clone();
                swapped[k] = row.clone();
                rejected.swapped += replay(&swapped);
            }
        }
        let mut permuted = f.slow.clone();
        permuted.rotate_left(f.slow.len().min(1));
        if permuted != f.slow {
            rejected.permuted += replay(&permuted);
        }
        if let Some((_, short)) = f.slow.split_last() {
            rejected.short += replay(short);
        }
        let mut long = f.slow.clone();
        long.push(f.slow.first().unwrap_or(event).clone());
        rejected.long += replay(&long);
    }
}

/// Run the full differential loop over one program: seeded-random slow
/// state, random events for every rule, and interleaved insert/remove
/// churn so tombstones and incremental index maintenance are on the hook.
fn differential_program(delp: &Delp, seed: u64, rounds: usize, rejected: &mut Rejected) {
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
                assert_parity(rule, plan, &ev, &mut db, &fns, rejected);
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
    let firewall = Delp::new(parse_program(FIREWALL_FORWARDING).expect("firewall parses"))
        .expect("firewall is a DELP");
    for (name, delp) in [
        ("packet_forwarding", programs::packet_forwarding()),
        ("dns_resolution", programs::dns_resolution()),
        ("dhcp", programs::dhcp()),
        ("arp", programs::arp()),
        ("firewall", firewall),
    ] {
        let mut rejected = Rejected::default();
        for seed in 0..8u64 {
            let seed = 0xD1FF + seed * 1315423911 + name.len() as u64;
            differential_program(&delp, seed, 24, &mut rejected);
        }
        let joins = |r: &Rule| {
            r.body
                .iter()
                .filter(|i| matches!(i, BodyItem::Atom(_)))
                .count()
        };
        rejected.assert_all_seen(delp.rules().iter().any(|r| joins(r) > 2));
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
    let mut rejected = Rejected::default();
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
            assert_parity(rule, &plan, &ev, &mut db, &fns, &mut rejected);
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
        assert_parity(rule, &plan, ev, &mut db, &fns, &mut Rejected::default());
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
    let (mut firings, mut rejected) = (0, Rejected::default());
    for seed in 0..6u64 {
        let mut rng = SeededRng::seed_from_u64(0x4D1_7ED + seed);
        let mut db = Database::new();
        let mut rows: Vec<Tuple> = Vec::new();
        for step in 0..300u32 {
            let ev = tuple(&mut rng, "e", 3);
            assert_parity(rule, &plan, &ev, &mut db, &fns, &mut rejected);
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
    rejected.assert_all_seen(true);
}

/// Compile rule `label` of `src` and check it against the interpreter on
/// one event.
fn check_parity(src: &str, label: &str, event: &Tuple, db: &mut Database) {
    let program = parse_program(src).expect("case parses");
    let rule = program.rule(label).expect("rule exists");
    let plan = RulePlan::compile(rule).expect("case compiles");
    assert_parity(
        rule,
        &plan,
        event,
        db,
        &registry(),
        &mut Rejected::default(),
    );
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
fn forwarding_index_probe_matches_naive() {
    let mut db = Database::new();
    for dst in 0..50 {
        db.insert(route(1, dst, (dst + 1) % 50));
    }
    db.insert(route(1, 3, 9)); // second route for dst=3: two firings
    let src = programs::PACKET_FORWARDING;
    check_parity(src, "r1", &packet(1, 1, 3, "data"), &mut db);
    check_parity(src, "r2", &packet(3, 1, 3, "data"), &mut db);
}

#[test]
fn unbound_join_scan_matches_naive() {
    // s(@Y, Z) shares no variable with the event: no key positions.
    let mut db = Database::new();
    db.insert(Tuple::new("s", vec![Value::Addr(NodeId(7)), Value::Int(1)]));
    let ev = Tuple::new("e", vec![Value::Addr(NodeId(1))]);
    check_parity("r1 out(@X, Y, Z) :- e(@X), s(@Y, Z).", "r1", &ev, &mut db);
}

#[test]
fn repeated_vars_consts_assigns_and_constraints_match_naive() {
    let src = r#"
        r1 out(@X, W) :- e(@X, X, N), s(@X, Y, Y, "t"), W := N + 1, W > 1.
    "#;
    let s = |y: i64, y2: i64| {
        Tuple::new(
            "s",
            vec![
                Value::Addr(NodeId(1)),
                Value::Int(y),
                Value::Int(y2),
                Value::str("t"),
            ],
        )
    };
    let mut db = Database::new();
    db.insert(s(5, 5));
    db.insert(s(5, 6)); // repeated-var mismatch
    let e = |x: u32, n: i64| {
        Tuple::new(
            "e",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(x)),
                Value::Int(n),
            ],
        )
    };
    // A match, a repeated event variable mismatch, and a constraint that
    // filters (W = 1 is not > 1).
    for ev in [e(1, 3), e(2, 3), e(1, 0)] {
        check_parity(src, "r1", &ev, &mut db);
    }
}

#[test]
fn evaluation_errors_match_naive() {
    let mut db = Database::new();
    let ev = Tuple::new("e", vec![Value::Addr(NodeId(1)), Value::Int(4)]);
    check_parity("r1 out(@X, Y) :- e(@X, Z), Y := Z / 0.", "r1", &ev, &mut db);
    check_parity(
        "r1 out(@X) :- e(@X, U), f_nope(U) == true.",
        "r1",
        &ev,
        &mut db,
    );
}
