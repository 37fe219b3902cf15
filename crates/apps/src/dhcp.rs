//! A DHCP-style address-assignment application (Section 3.1 lists DHCP as
//! expressible in DELP).
//!
//! `discover(@CL, RQID)` relays to the client's configured DHCP server,
//! which offers every address in its pool; the client turns offers into
//! leases. A multi-address pool makes one execution derive several
//! outputs — exercising the engine's (and recorders') handling of
//! branching executions.

use dpc_common::{NodeId, Result, Tuple, Value};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::programs;
use dpc_netsim::Network;

/// Build a `discover(@client, rqid)` input event.
pub fn discover(client: NodeId, rqid: i64) -> Tuple {
    Tuple::new("discover", vec![Value::Addr(client), Value::Int(rqid)])
}

/// Create a DHCP runtime over `net`.
pub fn make_runtime<R: ProvRecorder>(net: Network, recorder: R) -> Runtime<R> {
    Runtime::new(programs::dhcp(), net, recorder)
        .expect("the bundled DHCP program compiles and passes its audit")
}

/// Point `clients` at `server` and stock the server's address pool.
pub fn deploy<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    server: NodeId,
    clients: &[NodeId],
    pool: &[&str],
) -> Result<()> {
    for &c in clients {
        rt.install(Tuple::new(
            "dhcpServer",
            vec![Value::Addr(c), Value::Addr(server)],
        ))?;
    }
    for ip in pool {
        rt.install(Tuple::new(
            "addressPool",
            vec![Value::Addr(server), Value::str(*ip)],
        ))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_engine::NoopRecorder;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn lease_round_trip() {
        // Star: server at hub 0, clients 1..4.
        let net = topo::star(5, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        deploy(&mut rt, n(0), &[n(1), n(2), n(3), n(4)], &["10.0.0.9"]).unwrap();
        rt.inject(discover(n(2), 77)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        let lease = &rt.outputs()[0].tuple;
        assert_eq!(lease.rel(), "lease");
        assert_eq!(lease.loc().unwrap(), n(2));
        assert_eq!(lease.args()[2], Value::str("10.0.0.9"));
        assert_eq!(lease.args()[3], Value::Int(77));
    }

    #[test]
    fn multi_address_pool_offers_all() {
        let net = topo::star(3, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        deploy(
            &mut rt,
            n(0),
            &[n(1)],
            &["10.0.0.1", "10.0.0.2", "10.0.0.3"],
        )
        .unwrap();
        rt.inject(discover(n(1), 1)).unwrap();
        rt.run().unwrap();
        // One lease per pool address — a branching execution.
        assert_eq!(rt.outputs().len(), 3);
        let ips: std::collections::BTreeSet<_> = rt
            .outputs()
            .iter()
            .map(|o| o.tuple.args()[2].as_str().unwrap().to_string())
            .collect();
        assert_eq!(ips.len(), 3);
    }

    #[test]
    fn client_without_server_config_gets_nothing() {
        let net = topo::star(3, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        deploy(&mut rt, n(0), &[n(1)], &["10.0.0.1"]).unwrap();
        rt.inject(discover(n(2), 5)).unwrap(); // n2 not configured
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
    }

    #[test]
    fn equivalence_classes_are_per_client() {
        use dpc_core::AdvancedRecorder;
        use dpc_ndlog::equivalence_keys;
        let keys = equivalence_keys(&programs::dhcp());
        let net = topo::star(4, Link::STUB_STUB);
        let mut rt = make_runtime(net, AdvancedRecorder::new(4, keys));
        deploy(&mut rt, n(0), &[n(1), n(2)], &["10.0.0.1"]).unwrap();
        // Two discovers from n1 (same class), one from n2 (new class).
        rt.inject(discover(n(1), 1)).unwrap();
        rt.run().unwrap();
        rt.inject(discover(n(1), 2)).unwrap();
        rt.run().unwrap();
        rt.inject(discover(n(2), 3)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 3);
        let rec = rt.recorder();
        assert_eq!(rec.hmap_misses(), 0);
        // r2 fires at the server for classes {n1, n2} -> 2 rows.
        assert_eq!(rec.row_counts(n(0)).1, 2);
    }
}
