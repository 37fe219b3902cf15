//! Tree reconstruction: `TRANSFORM_TO_D` (Appendix E) / Step 2 of the
//! Basic query (Section 4).
//!
//! Given the rule-execution chain fetched from the provenance tables (rule
//! labels and the concrete slow-changing tuples at each level) and the
//! input event tuple, the full provenance tree — including every
//! intermediate event tuple — is recovered by re-executing the rules
//! bottom-up. Each level replays the rule's compiled plan
//! ([`RulePlan::replay`](dpc_engine::RulePlan::replay)): every join step is
//! matched against the slow tuple recorded for it, so the join can use only
//! what the original execution used.

use dpc_common::{Error, Result, Tuple};
use dpc_engine::{FnRegistry, PlanSet};

use crate::tree::ProvTree;

/// One level of a fetched chain, root-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLevel {
    /// The rule label executed at this level.
    pub rule: String,
    /// The concrete slow-changing tuples it joined, in body order.
    pub slow: Vec<Tuple>,
}

/// Re-execute `chain` (root-first) bottom-up from `event` on the
/// program's compiled `plans`, returning the full provenance tree.
///
/// Fails if a rule label is unknown, a re-execution does not fire exactly
/// as recorded, or the chain is empty.
pub fn reconstruct(
    plans: &PlanSet,
    fns: &FnRegistry,
    chain: &[ChainLevel],
    event: &Tuple,
) -> Result<ProvTree> {
    if chain.is_empty() {
        return Err(Error::ProvenanceLookup(
            "cannot reconstruct from an empty chain".into(),
        ));
    }
    let mut tree: Option<ProvTree> = None;
    let mut cur_event = event.clone();

    for level in chain.iter().rev() {
        let plan = plans.plan(&level.rule).ok_or_else(|| {
            Error::ProvenanceLookup(format!("unknown rule label `{}`", level.rule))
        })?;
        let head = plan.replay(&cur_event, &level.slow, fns)?.ok_or_else(|| {
            Error::ProvenanceLookup(format!(
                "re-execution of `{}` on {cur_event} did not reproduce the recorded firing",
                level.rule
            ))
        })?;
        tree = Some(match tree {
            None => ProvTree::Leaf {
                rule: level.rule.clone(),
                output: head.clone(),
                event: cur_event,
                slow: level.slow.clone(),
            },
            Some(child) => ProvTree::Node {
                rule: level.rule.clone(),
                output: head.clone(),
                child: Box::new(child),
                slow: level.slow.clone(),
            },
        });
        cur_event = head;
    }

    Ok(tree.expect("chain is non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::{NodeId, Value};
    use dpc_ndlog::programs;

    fn forwarding_plans() -> PlanSet {
        PlanSet::compile(&programs::packet_forwarding()).unwrap()
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn packet(loc: u32, src: u32, dst: u32, payload: &str) -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(src)),
                Value::Addr(n(dst)),
                Value::str(payload),
            ],
        )
    }

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(dst)),
                Value::Addr(n(next)),
            ],
        )
    }

    fn figure3_chain() -> Vec<ChainLevel> {
        vec![
            ChainLevel {
                rule: "r2".into(),
                slow: vec![],
            },
            ChainLevel {
                rule: "r1".into(),
                slow: vec![route(1, 2, 2)],
            },
            ChainLevel {
                rule: "r1".into(),
                slow: vec![route(0, 2, 1)],
            },
        ]
    }

    #[test]
    fn rebuilds_figure3_tree() {
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let tree = reconstruct(&plans, &fns, &figure3_chain(), &packet(0, 0, 2, "data")).unwrap();
        assert_eq!(tree.rules(), vec!["r2", "r1", "r1"]);
        assert_eq!(tree.event(), &packet(0, 0, 2, "data"));
        assert_eq!(tree.output().rel(), "recv");
        // Intermediate tuples were re-derived.
        let mid = tree.child().unwrap().output();
        assert_eq!(mid, &packet(2, 0, 2, "data"));
    }

    #[test]
    fn different_event_same_chain_rederives_its_own_intermediates() {
        // The shared-tree property: reconstructing the equivalent "url"
        // execution from the same chain yields its own tuples.
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let a = reconstruct(&plans, &fns, &figure3_chain(), &packet(0, 0, 2, "data")).unwrap();
        let b = reconstruct(&plans, &fns, &figure3_chain(), &packet(0, 0, 2, "url")).unwrap();
        assert!(a.equivalent(&b));
        assert_ne!(a.output(), b.output());
        assert_eq!(b.output().args()[3], Value::str("url"),);
    }

    #[test]
    fn empty_chain_is_rejected() {
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let err = reconstruct(&plans, &fns, &[], &packet(0, 0, 2, "x")).unwrap_err();
        assert!(err.to_string().contains("empty chain"), "{err}");
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let chain = vec![ChainLevel {
            rule: "r9".into(),
            slow: vec![],
        }];
        let err = reconstruct(&plans, &fns, &chain, &packet(0, 0, 2, "x")).unwrap_err();
        assert!(err.to_string().contains("r9"), "{err}");
    }

    #[test]
    fn non_reproducing_chain_is_rejected() {
        // Chain claims r1 fired at n0 with a route for the wrong
        // destination — the join cannot reproduce.
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let chain = vec![ChainLevel {
            rule: "r1".into(),
            slow: vec![route(0, 9, 1)],
        }];
        let err = reconstruct(&plans, &fns, &chain, &packet(0, 0, 2, "x")).unwrap_err();
        assert!(err.to_string().contains("did not reproduce"), "{err}");
    }

    #[test]
    fn event_mismatching_chain_tail_is_rejected() {
        // The event is at n1 but the chain tail expects a join at n0.
        let plans = forwarding_plans();
        let fns = FnRegistry::new();
        let chain = vec![ChainLevel {
            rule: "r1".into(),
            slow: vec![route(0, 2, 1)],
        }];
        assert!(reconstruct(&plans, &fns, &chain, &packet(1, 0, 2, "x")).is_err());
    }
}
