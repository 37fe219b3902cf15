//! Run every figure harness in sequence (scaled-down configurations).
//!
//! This is a convenience wrapper: each `figNN` binary can also be run
//! individually, with `--paper-scale` for the paper's parameters.

#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failures = 0;
    for fig in [
        "tables", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "ablation",
    ] {
        println!("\n================ {fig} ================");
        let status = Command::new(dir.join(fig))
            .args(std::env::args().skip(1))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{fig} exited with {s}");
                failures += 1;
            }
            Err(e) => {
                eprintln!(
                    "could not run {fig}: {e} (build with `cargo build -p dpc-bench --bins`)"
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
