//! The figures a seed fixes repeat exactly for one seed and move with
//! the seed; every execution and query succeeds at the small scale.

use dpcbench::{traced, untraced, Size, Traced, WORKLOADS};

/// The figures that must repeat exactly for one seed.
fn figures(t: &Traced) -> [f64; 6] {
    let layer = |name| {
        t.layer(name)
            .unwrap_or_else(|| panic!("traced run lacks {name}"))
    };
    [
        t.fixed.storage_bytes as f64,
        t.fixed.wire_bytes as f64,
        t.fixed.query_sim_ms,
        layer("netsim.messages"),
        layer("plan.firings"),
        layer("tuple.bytes_hashed"),
    ]
}

#[test]
fn one_seed_repeats_and_another_moves_every_figure() {
    for w in WORKLOADS {
        let run =
            |seed| traced(&w, &Size::SMALL, seed).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(figures(&a), figures(&b), "{}: one seed", w.name);
        for (i, (x, y)) in figures(&a).iter().zip(figures(&c)).enumerate() {
            assert_ne!(*x, y, "{}: figure {i} ignores the seed", w.name);
        }
        assert_eq!(a.execs.failed + a.queries.failed, 0, "{}", w.name);
    }
}

#[test]
fn untraced_run_delivers_and_answers_everything() {
    for w in WORKLOADS {
        let u = untraced(&w, &Size::SMALL, 3, 0.0).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            u.execs.attempted > 0 && u.queries.attempted > 0,
            "{}",
            w.name
        );
        assert_eq!(u.execs.failed + u.queries.failed, 0, "{}", w.name);
        let t = traced(&w, &Size::SMALL, 3).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            u.fixed, t.fixed,
            "{}: both modes see the same inputs",
            w.name
        );
    }
}
