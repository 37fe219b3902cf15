//! Ablation: intra-class compression (Section 5.3) vs. adding the
//! inter-equivalence-class node/link split (Section 5.4), across both
//! applications. Not a paper figure — quantifies the design choice the
//! paper motivates with Table 4.

#![forbid(unsafe_code)]

use dpc_apps::forwarding;
use dpc_bench::{print_table, run_dns, run_forwarding, Cli, DnsConfig, FwdConfig, Scheme};
use dpc_common::NodeId;
use dpc_core::AdvancedRecorder;
use dpc_engine::ProvRecorder;
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, Link, SimTime};
use dpc_telemetry::json::Json;

/// The regime Section 5.4 targets: many sources converging on one
/// destination along a line, so every tree shares the path suffix of the
/// longest one. Returns (plain bytes, inter-class bytes).
fn convergecast(sources: usize) -> (usize, usize) {
    let keys = equivalence_keys(&programs::packet_forwarding());
    let mut out = [0usize; 2];
    for (slot, inter) in [(0, false), (1, true)] {
        let n = sources + 1;
        let net = topo::line(n, Link::STUB_STUB);
        let rec = if inter {
            AdvancedRecorder::with_inter_class(n, keys.clone())
        } else {
            AdvancedRecorder::new(n, keys.clone())
        };
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = NodeId(sources as u32);
        let pairs: Vec<_> = (0..sources as u32).map(|s| (NodeId(s), dst)).collect();
        forwarding::install_routes_for_pairs(&mut rt, &pairs).expect("line is connected");
        for &(s, _) in &pairs {
            rt.inject(forwarding::packet(s, s, dst, "payload"))
                .expect("valid");
            rt.run().expect("run");
        }
        out[slot] = rt.net().nodes().map(|m| rt.recorder().storage_at(m)).sum();
    }
    (out[0], out[1])
}

/// The `--json` record for one Advanced-vs-InterClass comparison.
fn ablation_json(case: &str, plain: usize, inter: usize) -> Json {
    Json::obj([
        ("record", Json::Str("ablation".into())),
        ("case", Json::Str(case.into())),
        ("advanced_bytes", Json::UInt(plain as u64)),
        ("inter_class_bytes", Json::UInt(inter as u64)),
        (
            "saving_pct",
            Json::Float((1.0 - inter as f64 / plain as f64) * 100.0),
        ),
    ])
}

fn main() {
    let cli = Cli::parse();

    // Forwarding: many sources toward few destinations maximizes shared
    // path suffixes, the case inter-class compression targets.
    let fwd = FwdConfig {
        seed: cli.seed,
        pairs: 60,
        rate_per_pair: 5.0,
        duration: SimTime::from_secs(5),
        ..FwdConfig::default()
    };
    let plain = run_forwarding(Scheme::Advanced, &fwd).m.total_storage();
    let inter = run_forwarding(Scheme::AdvancedInterClass, &fwd)
        .m
        .total_storage();
    if cli.json {
        println!("{}", ablation_json("forwarding", plain, inter));
    } else {
        print_table(
            "forwarding: Advanced vs +InterClass",
            &[
                ("Advanced (5.3) bytes", plain.to_string()),
                ("Advanced+InterClass (5.4) bytes", inter.to_string()),
                (
                    "inter-class saving",
                    format!("{:.1}%", (1.0 - inter as f64 / plain as f64) * 100.0),
                ),
            ],
        );
    }

    // DNS: every resolution shares the delegation chain prefix from the
    // root, so node sharing across classes is pervasive.
    let dns = DnsConfig {
        seed: cli.seed,
        ..DnsConfig::default()
    };
    let plain = run_dns(Scheme::Advanced, &dns).m.total_storage();
    let inter = run_dns(Scheme::AdvancedInterClass, &dns).m.total_storage();
    if cli.json {
        println!("{}", ablation_json("dns", plain, inter));
    } else {
        print_table(
            "dns: Advanced vs +InterClass",
            &[
                ("Advanced (5.3) bytes", plain.to_string()),
                ("Advanced+InterClass (5.4) bytes", inter.to_string()),
                (
                    "inter-class saving",
                    format!("{:.1}%", (1.0 - inter as f64 / plain as f64) * 100.0),
                ),
            ],
        );
    }

    // The favorable regime: heavy cross-class node sharing (Section 5.4's
    // own example is a packet entering mid-path). With k sources converging
    // on one destination, plain Advanced stores O(k^2) chain rows while the
    // split shares the O(k) concrete nodes.
    let (plain, inter) = convergecast(20);
    if cli.json {
        println!("{}", ablation_json("convergecast", plain, inter));
        return;
    }
    print_table(
        "convergecast (20 sources -> 1 dest): Advanced vs +InterClass",
        &[
            ("Advanced (5.3) bytes", plain.to_string()),
            ("Advanced+InterClass (5.4) bytes", inter.to_string()),
            (
                "inter-class saving",
                format!("{:.1}%", (1.0 - inter as f64 / plain as f64) * 100.0),
            ),
        ],
    );
}
