//! Recursive DNS resolution (Figure 19, Section 6.2) deployment helpers.
//!
//! Nameservers form a tree; each node owns a domain (`d<k>.<parent's
//! domain>`, the root owning the empty zone). Parents hold `nameServer`
//! delegation rows for their children, URL owners hold `addressRecord`
//! rows, and hosts hold a `rootServer` row pointing at the root. The
//! `f_isSubDomain` predicate checks label-boundary domain suffixes.

use dpc_common::{Error, NodeId, Result, Tuple, Value};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::programs;
use dpc_netsim::topo::Tree;

/// Build a `url(@host, url, rqid)` input event.
pub fn url_event(host: NodeId, url: impl AsRef<str>, rqid: i64) -> Tuple {
    Tuple::new(
        "url",
        vec![Value::Addr(host), Value::str(url), Value::Int(rqid)],
    )
}

/// The domain owned by `node` in `tree`: label path to the root, e.g.
/// `"d7.d2"`; the root owns `""`.
pub fn domain_of(tree: &Tree, node: NodeId) -> String {
    let mut labels = Vec::new();
    let mut cur = node;
    while let Some(p) = tree.parent[cur.index()] {
        labels.push(format!("d{}", cur.0));
        cur = p;
    }
    labels.join(".")
}

/// The canonical URL hosted by `node`: `www.<domain>` (or `www` at the
/// root).
pub fn url_for(tree: &Tree, node: NodeId) -> String {
    let d = domain_of(tree, node);
    if d.is_empty() {
        "www".to_string()
    } else {
        format!("www.{d}")
    }
}

/// `f_isSubDomain(DM, URL)`: is `URL` within the zone `DM`? True when the
/// URL equals the domain or ends with `".<domain>"` (label boundary).
pub fn is_sub_domain(dm: &str, url: &str) -> bool {
    if dm.is_empty() || !url.ends_with(dm) {
        return false;
    }
    // `dm` is a suffix; it must start the URL or follow a `.`.
    let cut = url.len() - dm.len();
    cut == 0 || url.as_bytes()[cut - 1] == b'.'
}

/// A deployed DNS setup.
#[derive(Debug, Clone)]
pub struct DnsDeployment {
    /// The root nameserver.
    pub root: NodeId,
    /// Hosts that can issue `url` events.
    pub clients: Vec<NodeId>,
    /// `(url, owning nameserver, ip)` for each deployable URL.
    pub urls: Vec<(String, NodeId, String)>,
}

/// Create a DNS runtime over the tree's network, with `f_isSubDomain`
/// registered.
pub fn make_runtime<R: ProvRecorder>(tree: &Tree, recorder: R) -> Runtime<R> {
    let mut rt = Runtime::new(programs::dns_resolution(), tree.net.clone(), recorder)
        .expect("the bundled DNS program compiles and passes its audit");
    rt.fns_mut().register("f_isSubDomain", |args| {
        let (Some(dm), Some(url)) = (args[0].as_str(), args[1].as_str()) else {
            return Err(Error::Eval(
                "f_isSubDomain expects (domain, url) strings".into(),
            ));
        };
        Ok(Value::Bool(is_sub_domain(dm, url)))
    });
    rt
}

/// Deploy the nameserver hierarchy: delegations at every parent, one
/// `addressRecord` per URL at its owning server, `rootServer` rows at the
/// clients. URLs are hosted at the deepest non-root servers (deep chains
/// are where resolution work — and therefore provenance — accumulates),
/// cycling when `num_urls` exceeds the server count: real nameservers
/// hold many records, and the extra URLs get distinct `www<k>.` hosts in
/// the same zone.
pub fn deploy<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    tree: &Tree,
    num_urls: usize,
    clients: &[NodeId],
) -> Result<DnsDeployment> {
    let n = tree.net.node_count();
    if n < 2 && num_urls > 0 {
        return Err(Error::Schema(format!(
            "cannot host {num_urls} URLs on {n} servers"
        )));
    }

    // Delegations.
    for i in 0..n {
        let node = NodeId(i as u32);
        for child in tree.children(node) {
            rt.install(Tuple::new(
                "nameServer",
                vec![
                    Value::Addr(node),
                    Value::str(domain_of(tree, child)),
                    Value::Addr(child),
                ],
            ))?;
        }
    }

    // URL owners: deepest non-root nodes first, wrapping around (with
    // fresh host labels) when there are more URLs than servers.
    let mut by_depth: Vec<NodeId> = (1..n).map(|i| NodeId(i as u32)).collect();
    by_depth.sort_by_key(|&nd| std::cmp::Reverse(tree.depth(nd)));
    let hosts = by_depth.len();
    let mut urls = Vec::with_capacity(num_urls);
    for k in 0..num_urls {
        let server = by_depth[k % hosts];
        let url = if k < hosts {
            url_for(tree, server)
        } else {
            format!("www{}.{}", k / hosts, domain_of(tree, server))
        };
        let ip = format!("10.{}.{}.{}", k / 256, k % 256, server.0 % 256);
        rt.install(Tuple::new(
            "addressRecord",
            vec![Value::Addr(server), Value::str(&url), Value::str(&ip)],
        ))?;
        urls.push((url, server, ip));
    }

    // Clients know the root.
    for &c in clients {
        rt.install(Tuple::new(
            "rootServer",
            vec![Value::Addr(c), Value::Addr(tree.root)],
        ))?;
    }

    Ok(DnsDeployment {
        root: tree.root,
        clients: clients.to_vec(),
        urls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::SeededRng;
    use dpc_engine::NoopRecorder;
    use dpc_netsim::topo::{tree, TreeParams};

    fn small_tree() -> Tree {
        let mut rng = SeededRng::seed_from_u64(5);
        tree(
            &mut rng,
            &TreeParams {
                nodes: 20,
                chain_bias: 0.6,
                ..TreeParams::default()
            },
        )
    }

    #[test]
    fn domains_follow_the_tree() {
        let t = small_tree();
        assert_eq!(domain_of(&t, t.root), "");
        for i in 1..20u32 {
            let d = domain_of(&t, NodeId(i));
            assert!(d.starts_with(&format!("d{i}")), "{d}");
            let parent = t.parent[i as usize].unwrap();
            let pd = domain_of(&t, parent);
            if pd.is_empty() {
                assert_eq!(d, format!("d{i}"));
            } else {
                assert_eq!(d, format!("d{i}.{pd}"));
            }
        }
    }

    #[test]
    fn is_sub_domain_respects_label_boundaries() {
        assert!(is_sub_domain("d1", "www.d1"));
        assert!(is_sub_domain("d1", "www.d3.d1"));
        assert!(is_sub_domain("d3.d1", "www.d3.d1"));
        assert!(!is_sub_domain("d1", "www.d11")); // not a label boundary
        assert!(!is_sub_domain("d3.d1", "www.d1"));
        assert!(!is_sub_domain("", "www.d1")); // the root zone never matches
        assert!(is_sub_domain("d1", "d1")); // the zone apex itself
        assert!(!is_sub_domain("www.d1", "d1")); // domain longer than the URL
        assert!(is_sub_domain("d1", ".d1")); // the boundary dot starts the URL
        assert!(!is_sub_domain("3.d1", "www.d3.d1")); // suffix cuts through a label
    }

    #[test]
    fn every_url_resolves() {
        let t = small_tree();
        let mut rt = make_runtime(&t, NoopRecorder);
        let dep = deploy(&mut rt, &t, 8, &[t.root]).unwrap();
        for (i, (url, _server, ip)) in dep.urls.iter().enumerate() {
            rt.inject(url_event(t.root, url.clone(), i as i64)).unwrap();
            rt.run().unwrap();
            let out = rt.outputs().last().unwrap();
            assert_eq!(out.tuple.rel(), "reply");
            assert_eq!(out.tuple.args()[1], Value::str(url), "url {url}");
            assert_eq!(out.tuple.args()[2], Value::str(ip));
        }
        assert_eq!(rt.outputs().len(), 8);
    }

    #[test]
    fn resolution_walks_the_delegation_chain() {
        let t = small_tree();
        let mut rt = make_runtime(&t, NoopRecorder);
        let dep = deploy(&mut rt, &t, 4, &[t.root]).unwrap();
        // The deepest URL owner: resolution takes depth+? rule firings:
        // r1 once, r2 per delegation hop, r3 once, r4 once.
        let (url, server, _) = dep.urls[0].clone();
        let depth = t.depth(server);
        rt.inject(url_event(t.root, url, 0)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        assert_eq!(rt.metrics().rules_fired, 1 + depth as u64 + 1 + 1);
    }

    #[test]
    fn unknown_url_produces_no_reply() {
        let t = small_tree();
        let mut rt = make_runtime(&t, NoopRecorder);
        deploy(&mut rt, &t, 4, &[t.root]).unwrap();
        rt.inject(url_event(t.root, "www.nonexistent", 9)).unwrap();
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
    }

    #[test]
    fn more_urls_than_servers_wrap_around() {
        let t = small_tree();
        let mut rt = make_runtime(&t, NoopRecorder);
        let dep = deploy(&mut rt, &t, 50, &[t.root]).unwrap();
        assert_eq!(dep.urls.len(), 50);
        // All URLs are distinct, and every one resolves.
        let distinct: std::collections::HashSet<_> =
            dep.urls.iter().map(|(u, _, _)| u.clone()).collect();
        assert_eq!(distinct.len(), 50);
        let (wrapped, _, _) = dep.urls[dep.urls.len() - 1].clone();
        rt.inject(url_event(t.root, wrapped, 1)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
    }

    #[test]
    fn client_can_be_a_leaf() {
        let t = small_tree();
        let mut rt = make_runtime(&t, NoopRecorder);
        let client = NodeId(19);
        let dep = deploy(&mut rt, &t, 4, &[client]).unwrap();
        let (url, _, _) = dep.urls[0].clone();
        rt.inject(url_event(client, url, 1)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        assert_eq!(rt.outputs()[0].node, client); // reply returns to client
    }
}
