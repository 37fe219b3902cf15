//! No-panic fuzz of the frontend through plan compilation.
//!
//! Compiled plans are the runtime's only evaluator, so every program a
//! user can write must either compile to plans that pass their audit or
//! be rejected with an `Err` — never a panic. Each case mutates a seed
//! program (the four bundled DELPs plus every source in the analyzer's
//! golden tests, `crates/ndlog/tests/diagnostics.rs`) with byte flips,
//! token deletion and duplication, or rule splicing across programs, and
//! pushes the result through `lex` → `parse_program` → `analyze` →
//! `Delp::new`/`new_relaxed` → `PlanSet::compile` → `PlanSet::audit`, and
//! then through `Runtime::new`, which runs the same compile and audit and
//! must return `Ok` exactly when `PlanSet::compile` does.
//!
//! Generation is driven by the in-tree seeded PRNG, so every failure
//! reproduces from its case number.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dpc_common::{Rng, SeededRng};
use dpc_engine::{NoopRecorder, PlanSet, Runtime};
use dpc_ndlog::lexer::lex;
use dpc_ndlog::{analyze, parse_program, programs, Delp, Mode};
use dpc_netsim::{topo, Link};

const CASES: u64 = 2_000;

/// Bytes a flip may write: NDlog punctuation, operators and identifier
/// characters, plus a few bytes no token starts with.
const FLIP_BYTES: &[u8] = b"@(),.:-=<>!+*/%\"'_ aZz09#\n\t\\;{}";

/// The seed corpus: the bundled programs, then every string literal in
/// the diagnostics golden tests that contains a rule (`:-`).
fn corpus() -> Vec<String> {
    let mut out: Vec<String> = [
        programs::PACKET_FORWARDING,
        programs::DNS_RESOLUTION,
        programs::DHCP,
        programs::ARP,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let golden = include_str!("../../ndlog/tests/diagnostics.rs");
    out.extend(
        string_literals(golden)
            .into_iter()
            .filter(|s| s.contains(":-")),
    );
    out
}

/// The contents of every `"…"` and `r#"…"#` literal in Rust source `src`,
/// with the escapes the golden tests use (`\n`, `\t`, `\"`, `\\`)
/// resolved.
fn string_literals(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(i) = rest.find('"') {
        if rest[..i].ends_with("r#") {
            let body = &rest[i + 1..];
            let end = body.find("\"#").expect("raw string literal is terminated");
            out.push(body[..end].to_string());
            rest = &body[end + 2..];
            continue;
        }
        let mut lit = String::new();
        let mut chars = rest[i + 1..].char_indices();
        let mut end = None;
        while let Some((j, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(i + 1 + j + 1);
                    break;
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('n') => lit.push('\n'),
                    Some('t') => lit.push('\t'),
                    Some(e) => lit.push(e),
                    None => break,
                },
                c => lit.push(c),
            }
        }
        out.push(lit);
        rest = &rest[end.expect("string literal is terminated")..];
    }
    out
}

/// Overwrite 1–4 random bytes. The result may be invalid UTF-8, which is
/// replaced lossily (the frontend takes `&str`).
fn flip_bytes(rng: &mut SeededRng, src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        bytes.push(b' ');
    }
    for _ in 0..rng.random_range(1..5usize) {
        let at = rng.random_range(0..bytes.len());
        bytes[at] = if rng.random_bool(0.8) {
            FLIP_BYTES[rng.random_range(0..FLIP_BYTES.len())]
        } else {
            rng.random_range(0..256u32) as u8
        };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Delete or duplicate 1–3 lexer tokens of `src` (by source span). Falls
/// back to a byte flip when `src` does not lex.
fn edit_tokens(rng: &mut SeededRng, src: &str) -> String {
    let mut out = src.to_string();
    for _ in 0..rng.random_range(1..4usize) {
        let tokens = match lex(&out) {
            Ok(t) if !t.is_empty() => t,
            _ => return flip_bytes(rng, &out),
        };
        let span = tokens[rng.random_range(0..tokens.len())].span;
        if span.start >= span.end {
            continue;
        }
        let text = out[span.start..span.end].to_string();
        if rng.random_bool(0.5) {
            out.replace_range(span.start..span.end, "");
        } else {
            out.insert_str(span.end, &format!(" {text}"));
        }
    }
    out
}

/// A program assembled from 1–4 rules drawn, as source text, from random
/// programs of the corpus, relabelled `s0`, `s1`, … so labels stay
/// unique.
fn splice_rules(rng: &mut SeededRng, corpus: &[String]) -> String {
    let mut out = String::new();
    for k in 0..rng.random_range(1..5usize) {
        let src = &corpus[rng.random_range(0..corpus.len())];
        let Ok(program) = parse_program(src) else {
            continue;
        };
        if program.rules.is_empty() {
            continue;
        }
        let rule = &program.rules[rng.random_range(0..program.rules.len())];
        let label = &rule.label_span;
        out.push_str(&format!("s{k}"));
        out.push_str(&src[label.end..rule.span.end]);
        out.push('\n');
    }
    out
}

fn mutate(rng: &mut SeededRng, corpus: &[String]) -> String {
    let seed = &corpus[rng.random_range(0..corpus.len())];
    match rng.random_range(0..4u32) {
        0 => flip_bytes(rng, seed),
        1 => edit_tokens(rng, seed),
        2 => splice_rules(rng, corpus),
        _ => {
            let spliced = splice_rules(rng, corpus);
            edit_tokens(rng, &spliced)
        }
    }
}

/// How far one program got through the pipeline.
#[derive(Debug, Default)]
struct Reached {
    parsed: bool,
    compiled: usize,
}

/// Run the whole frontend on `src`. `Err` carries a contract violation:
/// a plan set that compiled but failed its own audit.
fn pipeline(src: &str) -> Result<Reached, String> {
    let mut reached = Reached::default();
    if lex(src).is_err() {
        return Ok(reached);
    }
    let Ok(program) = parse_program(src) else {
        return Ok(reached);
    };
    reached.parsed = true;
    for mode in [Mode::Strict, Mode::Relaxed] {
        let _ = analyze(&program, mode);
    }
    for delp in [
        Delp::new(program.clone()),
        Delp::new_relaxed(program.clone()),
    ] {
        let Ok(delp) = delp else { continue };
        let compiled = PlanSet::compile(&delp);
        if let Ok(plans) = &compiled {
            plans
                .audit()
                .map_err(|e| format!("compiled plans fail their audit: {e}"))?;
            reached.compiled += 1;
        }
        // The runtime compiles and audits on its own; it must agree.
        let built = Runtime::new(delp, topo::line(2, Link::STUB_STUB), NoopRecorder);
        if compiled.is_ok() != built.is_ok() {
            return Err(format!(
                "PlanSet::compile returned {} but Runtime::new returned {}",
                if compiled.is_ok() { "Ok" } else { "Err" },
                if built.is_ok() { "Ok" } else { "Err" },
            ));
        }
    }
    Ok(reached)
}

#[test]
fn corpus_covers_bundled_and_golden_sources() {
    let corpus = corpus();
    assert!(corpus.len() >= 20, "only {} seed programs", corpus.len());
    for src in &corpus[..4] {
        assert_eq!(pipeline(src).unwrap().compiled, 2, "{src}");
    }
}

#[test]
fn mutated_programs_never_panic_and_plans_pass_audit() {
    let corpus = corpus();
    let (mut parsed, mut compiled) = (0, 0);
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0xF022 ^ case);
        // Token edits lex half-mutated text, so mutation is fuzzed too.
        let Ok(src) = catch_unwind(AssertUnwindSafe(|| mutate(&mut rng, &corpus))) else {
            panic!("case {case}: the frontend panicked while the case was mutated");
        };
        match catch_unwind(AssertUnwindSafe(|| pipeline(&src))) {
            Ok(Ok(r)) => {
                parsed += r.parsed as usize;
                compiled += (r.compiled > 0) as usize;
            }
            Ok(Err(e)) => panic!("case {case}: {e}\nsource:\n{src}"),
            Err(_) => panic!("case {case}: the frontend panicked on\n{src}"),
        }
    }
    // The mutations must leave enough programs intact to exercise the
    // late stages, or the test checks only the lexer.
    assert!(
        parsed >= CASES as usize / 5,
        "only {parsed} programs parsed"
    );
    assert!(
        compiled >= CASES as usize / 10,
        "only {compiled} programs compiled"
    );
}
