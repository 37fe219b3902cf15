//! Tables 1-4: the paper's worked storage examples, regenerated on the
//! Figure 2 deployment (paper nodes n1,n2,n3 are our n0,n1,n2).

#![forbid(unsafe_code)]

use dpc_apps::forwarding;
use dpc_bench::Cli;
use dpc_common::NodeId;
use dpc_core::dump::{dump_advanced, dump_basic, dump_exspan};
use dpc_core::{AdvancedRecorder, BasicRecorder, ExspanRecorder};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, Link};
use dpc_telemetry::json::Json;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// One JSON-lines record per table: per-node row counts and storage.
fn table_json<R: ProvRecorder>(
    table: u64,
    scheme: &str,
    rt: &Runtime<R>,
    rows: impl Fn(NodeId) -> (usize, usize),
) -> Json {
    let per_node = rt
        .net()
        .nodes()
        .map(|nd| {
            let (prov, rule_exec) = rows(nd);
            Json::obj([
                ("node", Json::UInt(nd.0 as u64)),
                ("prov_rows", Json::UInt(prov as u64)),
                ("rule_exec_rows", Json::UInt(rule_exec as u64)),
                (
                    "storage_bytes",
                    Json::UInt(rt.recorder().storage_at(nd) as u64),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("record", Json::Str("table".into())),
        ("table", Json::UInt(table)),
        ("scheme", Json::Str(scheme.into())),
        ("per_node", Json::Arr(per_node)),
    ])
}

fn deploy<R: ProvRecorder>(rec: R) -> Runtime<R> {
    let net = topo::line(3, Link::STUB_STUB);
    let mut rt = forwarding::make_runtime(net, rec);
    rt.install(forwarding::route(n(0), n(2), n(1)))
        .expect("install");
    rt.install(forwarding::route(n(1), n(2), n(2)))
        .expect("install");
    rt
}

fn main() {
    let cli = Cli::parse();

    // Table 1: ExSPAN, one packet (Figure 3's tree).
    let mut rt = deploy(ExspanRecorder::new(3));
    rt.inject(forwarding::packet(n(0), n(0), n(2), "data"))
        .expect("inject");
    rt.run().expect("run");
    if cli.json {
        println!(
            "{}",
            table_json(1, "ExSPAN", &rt, |nd| rt.recorder().row_counts(nd))
        );
    } else {
        println!("# Table 1 — ExSPAN tables for Figure 3's provenance tree");
        println!("{}", dump_exspan(rt.recorder(), rt.net().nodes()));
    }

    // Table 2: Basic, same packet (Figure 4's optimized tree).
    let mut rt = deploy(BasicRecorder::new(3));
    rt.inject(forwarding::packet(n(0), n(0), n(2), "data"))
        .expect("inject");
    rt.run().expect("run");
    if cli.json {
        println!(
            "{}",
            table_json(2, "Basic", &rt, |nd| rt.recorder().row_counts(nd))
        );
    } else {
        println!("# Table 2 — Basic (optimized) tables for Figure 4");
        println!("{}", dump_basic(rt.recorder(), rt.net().nodes()));
    }

    // Table 3: Advanced, the two packets of Figure 6.
    let keys = equivalence_keys(&programs::packet_forwarding());
    let mut rt = deploy(AdvancedRecorder::new(3, keys.clone()));
    rt.inject(forwarding::packet(n(0), n(0), n(2), "data"))
        .expect("inject");
    rt.inject(forwarding::packet(n(0), n(0), n(2), "url"))
        .expect("inject");
    rt.run().expect("run");
    if cli.json {
        println!(
            "{}",
            table_json(3, "Advanced", &rt, |nd| rt.recorder().row_counts(nd))
        );
    } else {
        println!("# Table 3 — Advanced (compressed) tables for Figure 6's two packets");
        println!("{}", dump_advanced(rt.recorder(), rt.net().nodes()));
    }

    // Table 4: the inter-class split after Section 5.4's extra packet
    // entering mid-path at n1.
    let mut rt = deploy(AdvancedRecorder::with_inter_class(3, keys));
    rt.inject(forwarding::packet(n(0), n(0), n(2), "data"))
        .expect("inject");
    rt.run().expect("run");
    rt.inject(forwarding::packet(n(1), n(1), n(2), "ack"))
        .expect("inject");
    rt.run().expect("run");
    if cli.json {
        let per_node = (0..3u32)
            .map(|i| {
                let (prov, rule_exec) = rt.recorder().row_counts(n(i));
                Json::obj([
                    ("node", Json::UInt(i as u64)),
                    ("prov_rows", Json::UInt(prov as u64)),
                    ("rule_exec_link_rows", Json::UInt(rule_exec as u64)),
                    (
                        "rule_exec_node_rows",
                        Json::UInt(rt.recorder().node_row_count(n(i)) as u64),
                    ),
                    (
                        "storage_bytes",
                        Json::UInt(rt.recorder().storage_at(n(i)) as u64),
                    ),
                ])
            })
            .collect();
        let line = Json::obj([
            ("record", Json::Str("table".into())),
            ("table", Json::UInt(4)),
            ("scheme", Json::Str("Advanced+InterClass".into())),
            ("per_node", Json::Arr(per_node)),
        ]);
        println!("{line}");
    } else {
        println!("# Table 4 — ruleExecNode/ruleExecLink split (Section 5.4)");
        for i in 0..3u32 {
            println!(
                "n{i}: {} shared ruleExecNode rows, {} per-tree ruleExecLink rows, {} prov rows",
                rt.recorder().node_row_count(n(i)),
                rt.recorder().row_counts(n(i)).1,
                rt.recorder().row_counts(n(i)).0,
            );
        }
    }
}
