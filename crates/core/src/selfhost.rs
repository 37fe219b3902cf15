//! Runtime support for the *self-hosted* provenance rewrite
//! (`dpc_ndlog::rewrite`): the user-defined hash functions the rewritten
//! programs call, and the input-event extension helper.
//!
//! `f_vid(rel, a1..an)` hashes the tuple `rel(a1..an)` exactly like
//! [`dpc_common::Tuple::vid`]; `f_rid(label, loc, v1..vk)` reproduces the
//! ExSPAN/Basic rule-execution hash ([`crate::exspan::exspan_rid`]). With
//! these registered, a rewritten program derives provenance rows that are
//! hash-identical to what [`crate::BasicRecorder`] maintains natively —
//! the equivalence the test at the bottom of this module enforces.

use dpc_common::{Digest, Error, NodeId, Rid, Tuple, Value, Vid};
use dpc_engine::FnRegistry;
use dpc_ndlog::rewrite::NULL_REF;
use std::sync::Arc;
use std::sync::Mutex;

use crate::advanced::advanced_rid;
use crate::exspan::exspan_rid;

/// Register `f_vid` and `f_rid` in the function registry of a runtime
/// that executes a rewritten program (pass `Runtime::fns_mut()` before
/// the first event).
pub fn register_provenance_fns(fns: &mut FnRegistry) {
    fns.register("f_vid", |args: &[Value]| {
        let Some(rel) = args.first().and_then(Value::as_str) else {
            return Err(Error::Eval("f_vid expects a relation name first".into()));
        };
        let t = Tuple::new(rel, args[1..].to_vec());
        Ok(Value::str(t.vid().to_hex()))
    });
    fns.register("f_rid", |args: &[Value]| {
        let (Some(label), Some(loc)) = (
            args.first().and_then(Value::as_str),
            args.get(1).and_then(Value::as_addr),
        ) else {
            return Err(Error::Eval(
                "f_rid expects (label, loc, vid hex strings...)".into(),
            ));
        };
        let mut vids = Vec::with_capacity(args.len() - 2);
        for a in &args[2..] {
            let hex = a
                .as_str()
                .ok_or_else(|| Error::Eval("f_rid vids must be hex strings".into()))?;
            let d = Digest::from_hex(hex)
                .ok_or_else(|| Error::Eval(format!("`{hex}` is not a 40-char hex digest")))?;
            vids.push(Vid(d));
        }
        Ok(Value::str(exspan_rid(label, loc, &vids).to_hex()))
    });
}

/// Register `f_arid` (the chained Advanced rule-execution hash) and the
/// *stateful* `f_existflag` (stage-1 equivalence-keys checking: returns
/// `false` the first time a key valuation is seen, `true` afterwards) on
/// a runtime executing an Advanced-rewritten program. Call
/// [`register_provenance_fns`] as well for `f_vid`.
pub fn register_advanced_fns(fns: &mut FnRegistry) {
    fns.register("f_arid", |args: &[Value]| {
        let Some(label) = args.first().and_then(Value::as_str) else {
            return Err(Error::Eval("f_arid expects a rule label first".into()));
        };
        let prev: Option<(NodeId, Rid)> = match (args.get(1), args.get(2)) {
            (Some(Value::Str(s1)), Some(Value::Str(s2)))
                if &**s1 == NULL_REF && &**s2 == NULL_REF =>
            {
                None
            }
            (Some(Value::Addr(l)), Some(Value::Str(hex))) => {
                let d = Digest::from_hex(hex)
                    .ok_or_else(|| Error::Eval(format!("`{hex}` is not a 40-char hex digest")))?;
                Some((*l, Rid(d)))
            }
            other => {
                return Err(Error::Eval(format!(
                    "f_arid expects (label, ploc, prid, vids...), got {other:?}"
                )))
            }
        };
        let mut vids = Vec::with_capacity(args.len().saturating_sub(3));
        for a in &args[3..] {
            let hex = a
                .as_str()
                .ok_or_else(|| Error::Eval("f_arid vids must be hex strings".into()))?;
            let d = Digest::from_hex(hex)
                .ok_or_else(|| Error::Eval(format!("`{hex}` is not a 40-char hex digest")))?;
            vids.push(Vid(d));
        }
        Ok(Value::str(advanced_rid(label, &vids, prev).to_hex()))
    });

    // Stage 1 state: the distributed htequi sets, keyed by the checking
    // node, behind a lock because user functions are shared by all
    // simulated nodes. Each class key remembers the *first event* that
    // claimed it, so re-evaluating the check for the same event (the
    // forwarding and provenance rule variants both call it) returns the
    // same verdict.
    //
    // Arguments: (NKEYS, loc, key valuation..., full event attrs...).
    let htequi: Arc<Mutex<std::collections::HashMap<Vec<u8>, Vec<u8>>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    fns.register("f_existflag", move |args: &[Value]| {
        let nkeys = args
            .first()
            .and_then(Value::as_int)
            .filter(|&n| n >= 0 && (n as usize) + 2 <= args.len())
            .ok_or_else(|| {
                Error::Eval("f_existflag expects (NKEYS, loc, keys..., event...)".into())
            })? as usize;
        if args.get(1).and_then(Value::as_addr).is_none() {
            return Err(Error::Eval(
                "f_existflag expects the checking node second".into(),
            ));
        }
        let mut class_key = Vec::new();
        for a in &args[1..2 + nkeys] {
            a.encode_into(&mut class_key);
        }
        let mut identity = Vec::new();
        for a in &args[2 + nkeys..] {
            a.encode_into(&mut identity);
        }
        let mut map = htequi.lock().unwrap();
        match map.get(&class_key) {
            Some(first) => Ok(Value::Bool(*first != identity)),
            None => {
                map.insert(class_key, identity);
                Ok(Value::Bool(false))
            }
        }
    });
}

/// Extend an input event tuple with the NULL meta reference the rewritten
/// program expects (`(PLoc, PRid) = ("null", "null")`).
pub fn extend_input_event(event: &Tuple) -> Tuple {
    let mut args = event.args().to_vec();
    args.push(Value::str(NULL_REF));
    args.push(Value::str(NULL_REF));
    Tuple::new(event.rel(), args)
}

/// As [`extend_input_event`], for the Advanced rewrite: adds the flag
/// placeholder too (`(PLoc, PRid, Flag) = ("null", "null", "null")`; the
/// `_in` rule variants recompute the flag via `f_existflag`).
pub fn extend_input_event_advanced(event: &Tuple) -> Tuple {
    let mut args = event.args().to_vec();
    args.push(Value::str(NULL_REF));
    args.push(Value::str(NULL_REF));
    args.push(Value::str(NULL_REF));
    Tuple::new(event.rel(), args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicRecorder;
    use dpc_apps::forwarding;
    use dpc_common::{NodeId, Rid};
    use dpc_engine::{NoopRecorder, ProvRecorder, Runtime};
    use dpc_ndlog::rewrite::{rewrite_basic, RULE_EXEC_PREFIX};
    use dpc_ndlog::{programs, Delp};
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn routes<R: ProvRecorder>(rt: &mut Runtime<R>, len: u32) {
        for i in 0..len - 1 {
            rt.install(forwarding::route(n(i), n(len - 1), n(i + 1)))
                .unwrap();
        }
    }

    /// The headline equivalence: the rewritten program, executed as plain
    /// NDlog with `f_vid`/`f_rid`, derives exactly the provenance rows the
    /// native BasicRecorder maintains — same rids, same vids, same chain.
    #[test]
    fn rewritten_program_reproduces_basic_recorder_tables() {
        let len = 4u32;
        // Native run.
        let mut native = forwarding::make_runtime(
            topo::line(len as usize, Link::STUB_STUB),
            BasicRecorder::new(len as usize),
        );
        routes(&mut native, len);
        let pkt = forwarding::packet(n(0), n(0), n(len - 1), "data");
        native.inject(pkt.clone()).unwrap();
        native.run().unwrap();

        // Self-hosted run.
        let rewritten = Delp::new_relaxed(rewrite_basic(&programs::packet_forwarding())).unwrap();
        let mut hosted = Runtime::new(
            rewritten,
            topo::line(len as usize, Link::STUB_STUB),
            NoopRecorder,
        )
        .unwrap();
        register_provenance_fns(hosted.fns_mut());
        routes(&mut hosted, len);
        hosted.inject(extend_input_event(&pkt)).unwrap();
        hosted.run().unwrap();

        // Outputs: one extended recv + one ruleExec row per rule firing.
        let recv_ext = hosted
            .outputs()
            .iter()
            .find(|o| o.tuple.rel() == "recv")
            .expect("rewritten program derives recv")
            .tuple
            .clone();
        let exec_rows: Vec<&Tuple> = hosted
            .outputs()
            .iter()
            .map(|o| &o.tuple)
            .filter(|t| t.rel().starts_with(RULE_EXEC_PREFIX))
            .collect();
        assert_eq!(exec_rows.len(), len as usize, "one row per rule firing");

        // recv's trailing meta attrs are the Basic prov row reference.
        let a = recv_ext.args();
        let (rloc, rid_hex) = (
            a[a.len() - 2].as_addr().expect("PLoc is a node"),
            a[a.len() - 1].as_str().expect("PRid is hex"),
        );
        let recv_native = forwarding::recv(n(len - 1), n(0), n(len - 1), "data");
        let prov = native
            .recorder()
            .prov_row(n(len - 1), &recv_native.vid())
            .expect("native prov row");
        assert_eq!(prov.rloc, Some(rloc));
        assert_eq!(prov.rid.unwrap().to_hex(), rid_hex);

        // Every derived ruleExec row matches a native table row.
        for row in exec_rows {
            let args = row.args();
            let loc = args[0].as_addr().expect("RLoc");
            let rid = Rid(Digest::from_hex(args[1].as_str().expect("RID hex")).unwrap());
            let native_row = native
                .recorder()
                .rule_exec(loc, &rid)
                .unwrap_or_else(|| panic!("no native row for {row}"));
            // Variant name encodes the original label: ruleExec_<l>_<v>.
            let rest = row.rel().strip_prefix(RULE_EXEC_PREFIX).unwrap();
            let (label, variant) = rest.rsplit_once('_').unwrap();
            assert_eq!(native_row.rule, label);
            // vids: everything between RID and the trailing (PLoc, PRid).
            let vids: Vec<Vid> = args[2..args.len() - 2]
                .iter()
                .map(|v| Vid(Digest::from_hex(v.as_str().expect("vid hex")).unwrap()))
                .collect();
            assert_eq!(native_row.vids, vids, "row {row}");
            // Chain reference.
            match (&args[args.len() - 2], &args[args.len() - 1]) {
                (Value::Str(s1), Value::Str(s2)) if &**s1 == "null" && &**s2 == "null" => {
                    assert_eq!(native_row.next, None);
                    assert_eq!(variant, "tail");
                }
                (Value::Addr(ploc), Value::Str(prid)) => {
                    let (nl, nr) = native_row.next.expect("mid rows chain");
                    assert_eq!(nl, *ploc);
                    assert_eq!(nr.to_hex(), **prid);
                    assert_eq!(variant, "mid");
                }
                other => panic!("unexpected meta attrs {other:?}"),
            }
        }
    }

    /// The Advanced self-host: the rewritten program compresses (only the
    /// first execution of a class emits ruleExec rows), and everything it
    /// derives matches the native AdvancedRecorder tables hash for hash.
    #[test]
    fn rewritten_advanced_program_compresses_and_matches_native() {
        use crate::advanced::AdvancedRecorder;
        use dpc_ndlog::rewrite::rewrite_advanced;
        use dpc_ndlog::{equivalence_keys, EquivKeys};

        let len = 3u32;
        let keys: EquivKeys = equivalence_keys(&programs::packet_forwarding());

        // Native run: two packets of the same class (Figure 6).
        let mut native = forwarding::make_runtime(
            topo::line(len as usize, Link::STUB_STUB),
            AdvancedRecorder::new(len as usize, keys.clone()),
        );
        routes(&mut native, len);
        let p1 = forwarding::packet(n(0), n(0), n(len - 1), "data");
        let p2 = forwarding::packet(n(0), n(0), n(len - 1), "url");
        native.inject(p1.clone()).unwrap();
        native.run().unwrap();
        native.inject(p2.clone()).unwrap();
        native.run().unwrap();

        // Self-hosted run.
        let rewritten =
            Delp::new_relaxed(rewrite_advanced(&programs::packet_forwarding(), &keys)).unwrap();
        let mut hosted = Runtime::new(
            rewritten,
            topo::line(len as usize, Link::STUB_STUB),
            NoopRecorder,
        )
        .unwrap();
        register_provenance_fns(hosted.fns_mut());
        register_advanced_fns(hosted.fns_mut());
        routes(&mut hosted, len);
        hosted.inject(extend_input_event_advanced(&p1)).unwrap();
        hosted.run().unwrap();
        hosted.inject(extend_input_event_advanced(&p2)).unwrap();
        hosted.run().unwrap();

        // Compression: only the first packet emitted ruleExec rows.
        let exec_rows: Vec<&Tuple> = hosted
            .outputs()
            .iter()
            .map(|o| &o.tuple)
            .filter(|t| t.rel().starts_with("ruleExecA_"))
            .collect();
        assert_eq!(exec_rows.len(), len as usize, "one row per rule, once");

        // Both recvs carry the same shared-tree reference, flags differ.
        let recvs: Vec<&Tuple> = hosted
            .outputs()
            .iter()
            .map(|o| &o.tuple)
            .filter(|t| t.rel() == "recv")
            .collect();
        assert_eq!(recvs.len(), 2);
        let meta = |t: &Tuple| {
            let a = t.args();
            (
                a[a.len() - 3].as_addr().expect("PLoc"),
                a[a.len() - 2].as_str().expect("PRid").to_string(),
                a[a.len() - 1].as_bool().expect("Flag"),
            )
        };
        let (l1, r1, f1) = meta(recvs[0]);
        let (l2, r2, f2) = meta(recvs[1]);
        assert_eq!((l1, &r1), (l2, &r2), "shared reference");
        assert!(!f1, "first execution is uncompressed");
        assert!(f2, "second execution is compressed");

        // The reference matches the native prov rows of both executions.
        for (pkt, recv_payload) in [(&p1, "data"), (&p2, "url")] {
            let recv_native = forwarding::recv(n(len - 1), n(0), n(len - 1), recv_payload);
            let vid = recv_native.vid();
            let evid = pkt.evid();
            let prov = native
                .recorder()
                .prov_row(n(len - 1), &vid, &evid)
                .expect("native prov row");
            assert_eq!(prov.rloc, l1);
            assert_eq!(prov.rid.to_hex(), r1);
        }

        // Every derived ruleExecA row matches the native table.
        for row in exec_rows {
            let args = row.args();
            let loc = args[0].as_addr().expect("RLoc");
            let rid = Rid(Digest::from_hex(args[1].as_str().expect("RID")).unwrap());
            let view = native
                .recorder()
                .rule_exec(loc, &rid)
                .unwrap_or_else(|| panic!("no native row for {row}"));
            let rest = row.rel().strip_prefix("ruleExecA_").unwrap();
            let (label, variant) = rest.rsplit_once('_').unwrap();
            assert_eq!(view.rule, label);
            let vids: Vec<Vid> = args[2..args.len() - 2]
                .iter()
                .map(|v| Vid(Digest::from_hex(v.as_str().expect("vid hex")).unwrap()))
                .collect();
            assert_eq!(view.vids, vids, "row {row}");
            match (&args[args.len() - 2], &args[args.len() - 1]) {
                (Value::Str(s1), Value::Str(s2)) if &**s1 == "null" && &**s2 == "null" => {
                    assert_eq!(view.next, None);
                    assert_eq!(variant, "tail");
                }
                (Value::Addr(ploc), Value::Str(prid)) => {
                    let (nl, nr) = view.next.expect("mid rows chain");
                    assert_eq!(nl, *ploc);
                    assert_eq!(nr.to_hex(), **prid);
                    assert_eq!(variant, "mid");
                }
                other => panic!("unexpected meta attrs {other:?}"),
            }
        }
    }

    #[test]
    fn existflag_is_stateful_and_per_key() {
        let mut fns = FnRegistry::new();
        register_advanced_fns(&mut fns);
        let f = fns.get("f_existflag").unwrap().clone();
        // (NKEYS=1, loc, key, event identity...)
        let ev1 = [
            Value::Int(1),
            Value::Addr(n(0)),
            Value::Addr(n(5)),
            Value::str("payload-1"),
        ];
        let ev2 = [
            Value::Int(1),
            Value::Addr(n(0)),
            Value::Addr(n(5)),
            Value::str("payload-2"),
        ];
        let other_class = [
            Value::Int(1),
            Value::Addr(n(0)),
            Value::Addr(n(6)),
            Value::str("payload-1"),
        ];
        assert_eq!(f(&ev1).unwrap(), Value::Bool(false)); // first sighting
        assert_eq!(f(&ev1).unwrap(), Value::Bool(false)); // same event: idempotent
        assert_eq!(f(&ev2).unwrap(), Value::Bool(true)); // same class, new event
        assert_eq!(f(&other_class).unwrap(), Value::Bool(false)); // new class
        assert!(f(&[Value::Int(9)]).is_err());
    }

    #[test]
    fn fvid_matches_native_tuple_hash() {
        let mut fns = FnRegistry::new();
        register_provenance_fns(&mut fns);
        let f = fns.get("f_vid").unwrap().clone();
        let t = forwarding::route(n(0), n(1), n(1));
        let mut args = vec![Value::str("route")];
        args.extend(t.args().iter().cloned());
        assert_eq!(f(&args).unwrap(), Value::str(t.vid().to_hex()));
    }

    #[test]
    fn frid_matches_native_rule_hash() {
        let mut fns = FnRegistry::new();
        register_provenance_fns(&mut fns);
        let f = fns.get("f_rid").unwrap().clone();
        let v1 = Vid::of_bytes(b"child");
        let native = exspan_rid("r1", n(0), &[v1]);
        let got = f(&[Value::str("r1"), Value::Addr(n(0)), Value::str(v1.to_hex())]).unwrap();
        assert_eq!(got, Value::str(native.to_hex()));
    }

    #[test]
    fn frid_rejects_bad_hex() {
        let mut fns = FnRegistry::new();
        register_provenance_fns(&mut fns);
        let f = fns.get("f_rid").unwrap().clone();
        let err = f(&[Value::str("r1"), Value::Addr(n(0)), Value::str("zzz")]).unwrap_err();
        assert!(err.to_string().contains("hex"), "{err}");
    }

    #[test]
    fn extend_appends_null_refs() {
        let pkt = forwarding::packet(n(0), n(0), n(1), "x");
        let ext = extend_input_event(&pkt);
        assert_eq!(ext.arity(), pkt.arity() + 2);
        assert_eq!(ext.args()[4], Value::str("null"));
        assert_eq!(ext.args()[5], Value::str("null"));
    }
}
