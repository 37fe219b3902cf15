//! Randomized tests of the NDlog frontend: pretty-print → parse round
//! trips on randomly generated programs, and total robustness of the
//! lexer/parser on arbitrary input (errors, never panics).
//!
//! Generation is driven by the in-tree seeded PRNG so every failure
//! reproduces from its case number.

use dpc_common::{Rng, SeededRng, Value};
use dpc_ndlog::{parse_program, Atom, BinOp, BodyItem, CmpOp, Expr, Program, Rule, Term};

const CASES: u64 = 128;

fn random_var(rng: &mut SeededRng) -> String {
    let mut s = String::new();
    s.push((b'A' + rng.random_range(0..26u32) as u8) as char);
    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
    for _ in 0..rng.random_range(0..6u64) {
        s.push(alphabet[rng.random_range(0..alphabet.len())] as char);
    }
    s
}

fn random_rel(rng: &mut SeededRng) -> String {
    loop {
        let mut s = String::new();
        s.push((b'a' + rng.random_range(0..26u32) as u8) as char);
        let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
        for _ in 0..rng.random_range(0..7u64) {
            s.push(alphabet[rng.random_range(0..alphabet.len())] as char);
        }
        // Avoid literal keywords and the function-name prefix.
        if s != "true" && s != "false" && !s.starts_with("f_") {
            return s;
        }
    }
}

fn random_fn_name(rng: &mut SeededRng) -> String {
    let mut s = String::from("f_");
    s.push((b'a' + rng.random_range(0..26u32) as u8) as char);
    let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    for _ in 0..rng.random_range(0..6u64) {
        s.push(alphabet[rng.random_range(0..alphabet.len())] as char);
    }
    s
}

fn random_constant(rng: &mut SeededRng) -> Value {
    match rng.random_range(0..3u32) {
        0 => Value::Int(rng.next_u64() as i32 as i64),
        1 => {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
            let len = rng.random_range(0..9u64) as usize;
            Value::str(
                (0..len)
                    .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
                    .collect::<String>(),
            )
        }
        _ => Value::Bool(rng.random_bool(0.5)),
    }
}

fn random_term(rng: &mut SeededRng) -> Term {
    if rng.random_bool(0.5) {
        Term::var(random_var(rng))
    } else {
        Term::cnst(random_constant(rng))
    }
}

fn random_atom(rng: &mut SeededRng) -> Atom {
    let arity = rng.random_range(1..5u64) as usize;
    Atom::new(
        random_rel(rng),
        (0..arity).map(|_| random_term(rng)).collect(),
    )
}

fn random_expr(rng: &mut SeededRng, depth: usize) -> Expr {
    if depth == 0 || rng.random_bool(0.4) {
        return if rng.random_bool(0.5) {
            Expr::var(random_var(rng))
        } else {
            Expr::cnst(random_constant(rng))
        };
    }
    if rng.random_bool(0.6) {
        let op = match rng.random_range(0..4u32) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            _ => BinOp::Div,
        };
        Expr::binop(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    } else {
        let n = rng.random_range(1..3u64) as usize;
        Expr::call(
            random_fn_name(rng),
            (0..n).map(|_| random_expr(rng, depth - 1)).collect(),
        )
    }
}

fn random_cmp_op(rng: &mut SeededRng) -> CmpOp {
    match rng.random_range(0..6u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn random_body_item(rng: &mut SeededRng) -> BodyItem {
    match rng.random_range(0..3u32) {
        0 => BodyItem::Atom(random_atom(rng)),
        1 => BodyItem::constraint(random_expr(rng, 3), random_cmp_op(rng), random_expr(rng, 3)),
        _ => BodyItem::assign(random_var(rng), random_expr(rng, 3)),
    }
}

fn random_program(rng: &mut SeededRng) -> Program {
    let n = rng.random_range(1..5u64) as usize;
    Program {
        rules: (0..n)
            .map(|i| {
                let body_len = rng.random_range(1..5u64) as usize;
                Rule::new(
                    format!("r{i}"),
                    random_atom(rng),
                    (0..body_len).map(|_| random_body_item(rng)).collect(),
                )
            })
            .collect(),
    }
}

/// Rendering a random program and parsing it back is the identity.
#[test]
fn display_parse_round_trip() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0xA000 + case);
        let p = random_program(&mut rng);
        let text = p.to_string();
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("rendered program failed to parse: {e}\n{text}"));
        assert_eq!(p, reparsed);
    }
}

/// Parsing each bundled paper program, pretty-printing it and parsing it
/// back is the identity. Spans differ between the two parses (the rendered
/// text is formatted differently), so this also pins down that equality is
/// span-insensitive.
#[test]
fn bundled_programs_round_trip() {
    for src in [
        dpc_ndlog::programs::PACKET_FORWARDING,
        dpc_ndlog::programs::DNS_RESOLUTION,
        dpc_ndlog::programs::DHCP,
        dpc_ndlog::programs::ARP,
    ] {
        let p = parse_program(src).unwrap();
        let text = p.to_string();
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("rendered program failed to parse: {e}\n{text}"));
        assert_eq!(p, reparsed);
    }
}

/// The frontend is total: arbitrary input produces Ok or Err, never a
/// panic.
#[test]
fn parser_never_panics() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0xB000 + case);
        let len = rng.random_range(0..201u64) as usize;
        // Arbitrary printable unicode-ish soup: mix ASCII with a few
        // multi-byte code points.
        let s: String = (0..len)
            .map(|_| match rng.random_range(0..8u32) {
                0 => 'λ',
                1 => 'é',
                _ => (rng.random_range(0x20u32..0x7f) as u8) as char,
            })
            .collect();
        let _ = parse_program(&s);
    }
}

/// Arbitrary ASCII soup drawn from NDlog-ish characters — more likely to
/// reach deep parser states than uniform noise.
#[test]
fn parser_never_panics_on_ndlogish_soup() {
    let alphabet: Vec<char> =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@(),.:=<>!+*/ \"\\-"
            .chars()
            .collect();
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0xC000 + case);
        let len = rng.random_range(0..121u64) as usize;
        let s: String = (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect();
        let _ = parse_program(&s);
    }
}
