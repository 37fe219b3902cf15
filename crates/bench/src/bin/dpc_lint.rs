//! `dpc-lint` — static analysis for NDlog/DELP programs.
//!
//! Runs the full `dpc_ndlog::analyze` pipeline (DELP validation,
//! range-restriction, locality, dead rules, shadowing, equivalence-key
//! coverage, attribute kind inference) over one or more programs and
//! prints rustc-style diagnostics with source excerpts. For programs that
//! validate as DELPs it also compiles every rule with the engine's plan
//! compiler and audits the compiled plans against the static join-key
//! analysis.
//!
//! Targets:
//!
//! * `--bundled` — the four programs shipped in `dpc_ndlog::programs`.
//! * `path.ndlog` — a file of NDlog source.
//! * `path.rs` — a Rust file; every `r#"…"#` raw string that contains
//!   `:-` is extracted and linted as a program (how the examples and
//!   tests embed NDlog).
//!
//! Flags:
//!
//! * `--json` — one JSON object per target on stdout (JSON lines).
//! * `--deny-warnings` — exit non-zero if any warning fires.
//! * `--relaxed` — validate against the relaxed DELP rules
//!   (`Delp::new_relaxed`): Definition 1 dependency violations downgrade
//!   to warnings.
//! * `--no-audit` — skip the compiled-plan audit.
//! * `--list-codes` — print the diagnostic code table and exit.
//!
//! Exit codes: 0 clean, 1 diagnostics at failing severity (or parse /
//! audit failure), 2 usage or I/O error.

#![forbid(unsafe_code)]

use dpc_engine::PlanSet;
use dpc_ndlog::{
    analyze, parse_program, render_parse_error, Code, Delp, Diagnostic, Mode, Severity,
};
use dpc_telemetry::Json;

fn fail(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: dpc-lint [--bundled] [--json] [--deny-warnings] [--relaxed] \
         [--no-audit] [--list-codes] [files...]"
    );
    std::process::exit(2);
}

/// Everything the linter learned about one target program.
struct Report {
    target: String,
    source: String,
    /// `(line, col, message)` when the program did not even parse.
    parse_error: Option<(usize, usize, String)>,
    diagnostics: Vec<Diagnostic>,
    /// `Some(n)`: n plans compiled and audited. `None`: audit skipped
    /// (flag, parse failure, or the program has validation errors).
    plans_audited: Option<usize>,
    audit_error: Option<String>,
}

impl Report {
    fn error_count(&self) -> usize {
        let base = self.diagnostics.iter().filter(|d| d.is_error()).count();
        base + usize::from(self.parse_error.is_some()) + usize::from(self.audit_error.is_some())
    }

    fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| !d.is_error()).count()
    }
}

fn lint_source(target: &str, source: &str, mode: Mode, audit: bool) -> Report {
    let mut report = Report {
        target: target.to_string(),
        source: source.to_string(),
        parse_error: None,
        diagnostics: Vec::new(),
        plans_audited: None,
        audit_error: None,
    };
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(dpc_common::Error::Parse { line, col, msg }) => {
            report.parse_error = Some((line, col, msg));
            return report;
        }
        Err(e) => {
            report.parse_error = Some((0, 0, e.to_string()));
            return report;
        }
    };
    let analysis = analyze(&program, mode);
    let has_errors = analysis.has_errors();
    report.diagnostics = analysis.diagnostics;
    if audit && !has_errors {
        let delp = match mode {
            Mode::Strict => Delp::new(program),
            Mode::Relaxed => Delp::new_relaxed(program),
        };
        match delp.and_then(|d| PlanSet::compile(&d)).and_then(|p| {
            p.audit()?;
            Ok(p.len())
        }) {
            Ok(n) => report.plans_audited = Some(n),
            Err(e) => report.audit_error = Some(e.to_string()),
        }
    }
    report
}

/// Extract every `r#"…"#` raw string that looks like an NDlog program
/// (contains `:-`) from Rust source.
fn extract_programs(rust_src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = rust_src;
    while let Some(start) = rest.find("r#\"") {
        rest = &rest[start + 3..];
        let Some(end) = rest.find("\"#") else { break };
        let body = &rest[..end];
        if body.contains(":-") {
            out.push(body.to_string());
        }
        rest = &rest[end + 2..];
    }
    out
}

fn print_human(report: &Report) {
    if let Some((line, col, msg)) = &report.parse_error {
        if *line > 0 {
            print!(
                "{}",
                render_parse_error(&report.source, &report.target, *line, *col, msg)
            );
        } else {
            eprintln!("{}: parse error: {msg}", report.target);
        }
    }
    for d in &report.diagnostics {
        print!("{}", d.render(&report.source, &report.target));
    }
    if let Some(e) = &report.audit_error {
        println!("error: plan audit failed for `{}`: {e}", report.target);
    }
    let (errs, warns) = (report.error_count(), report.warning_count());
    let audit = match report.plans_audited {
        Some(n) => format!(", {n} plans audited"),
        None => String::new(),
    };
    println!("{}: {errs} errors, {warns} warnings{audit}", report.target);
}

fn label_json(l: &dpc_ndlog::Label) -> Json {
    Json::obj([
        ("line", Json::UInt(l.span.line as u64)),
        ("col", Json::UInt(l.span.col as u64)),
        ("start", Json::UInt(l.span.start as u64)),
        ("end", Json::UInt(l.span.end as u64)),
        ("message", Json::Str(l.message.clone())),
    ])
}

fn report_json(report: &Report) -> Json {
    let mut diags: Vec<Json> = Vec::new();
    if let Some((line, col, msg)) = &report.parse_error {
        diags.push(Json::obj([
            ("code", Json::Str("parse".into())),
            ("severity", Json::Str("error".into())),
            ("message", Json::Str(msg.clone())),
            ("line", Json::UInt(*line as u64)),
            ("col", Json::UInt(*col as u64)),
        ]));
    }
    for d in &report.diagnostics {
        diags.push(Json::obj([
            ("code", Json::Str(d.code.as_str().into())),
            ("severity", Json::Str(d.severity.to_string())),
            ("message", Json::Str(d.message.clone())),
            ("line", Json::UInt(d.primary.span.line as u64)),
            ("col", Json::UInt(d.primary.span.col as u64)),
            ("primary", label_json(&d.primary)),
            (
                "secondary",
                Json::Arr(d.secondary.iter().map(label_json).collect()),
            ),
        ]));
    }
    let audit = match (&report.plans_audited, &report.audit_error) {
        (Some(n), _) => Json::obj([("ok", Json::Bool(true)), ("plans", Json::UInt(*n as u64))]),
        (None, Some(e)) => Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]),
        (None, None) => Json::Null,
    };
    Json::obj([
        ("target", Json::Str(report.target.clone())),
        ("errors", Json::UInt(report.error_count() as u64)),
        ("warnings", Json::UInt(report.warning_count() as u64)),
        ("diagnostics", Json::Arr(diags)),
        ("plan_audit", audit),
    ])
}

fn list_codes() {
    for code in Code::ALL {
        let sev = match code.default_severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        println!("{}  {:7}  {}", code.as_str(), sev, code.summary());
    }
}

fn main() {
    let mut json = false;
    let mut deny_warnings = false;
    let mut bundled = false;
    let mut audit = true;
    let mut mode = Mode::Strict;
    let mut files: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--bundled" => bundled = true,
            "--no-audit" => audit = false,
            "--relaxed" => mode = Mode::Relaxed,
            "--list-codes" => {
                list_codes();
                return;
            }
            "--help" | "-h" => fail("dpc-lint: static analysis for NDlog/DELP programs"),
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
            _ => files.push(a),
        }
    }
    if !bundled && files.is_empty() {
        fail("nothing to lint: pass --bundled and/or files");
    }

    let mut targets: Vec<(String, String)> = Vec::new();
    if bundled {
        use dpc_ndlog::programs;
        targets.push((
            "bundled:packet_forwarding".into(),
            programs::PACKET_FORWARDING.into(),
        ));
        targets.push((
            "bundled:dns_resolution".into(),
            programs::DNS_RESOLUTION.into(),
        ));
        targets.push(("bundled:dhcp".into(), programs::DHCP.into()));
        targets.push(("bundled:arp".into(), programs::ARP.into()));
    }
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot read {path}: {e}")),
        };
        if path.ends_with(".rs") {
            for (i, prog) in extract_programs(&src).into_iter().enumerate() {
                targets.push((format!("{path}#{i}"), prog));
            }
        } else {
            targets.push((path.clone(), src));
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (target, source) in &targets {
        let report = lint_source(target, source, mode, audit);
        errors += report.error_count();
        warnings += report.warning_count();
        if json {
            println!("{}", report_json(&report));
        } else {
            print_human(&report);
        }
    }
    if !json {
        println!(
            "dpc-lint: {} targets, {errors} errors, {warnings} warnings",
            targets.len()
        );
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
