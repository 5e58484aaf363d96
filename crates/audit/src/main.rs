//! CLI for the workspace source auditor.
//!
//! ```text
//! mendel-audit lint     [--root DIR] [--baseline FILE] [--json FILE]  # gate: fail on NEW violations
//! mendel-audit baseline [--root DIR] [--baseline FILE] [--write]
//! mendel-audit locks    [--root DIR] [--dot] [--json FILE]            # gate: fail on cycles / unwaived smells
//! mendel-audit atomics  [--root DIR] [--baseline FILE] [--write] [--json FILE]
//! mendel-audit reach    [--root DIR] [--json FILE]                    # gate: fail on unreached pub items
//! mendel-audit self-test
//! ```

// This binary's purpose is terminal output: reports go to stderr,
// rendered baselines and DOT graphs to stdout (so they can be
// redirected).
#![allow(clippy::print_stdout)]

use mendel_audit::{
    atomics, diff, locks, parse_baseline, reach, render_baseline, render_report, scan_workspace,
    self_test, to_counts, Json,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mendel-audit <lint|baseline|locks|atomics|reach|self-test> \
     [--root DIR] [--baseline FILE] [--write] [--dot] [--json FILE]";

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    write: bool,
    dot: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    // Default root: the workspace this binary was built from, so
    // `cargo run -p mendel-audit -- lint` works from any directory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let mut baseline = None;
    let mut write = false;
    let mut dot = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?));
            }
            "--write" => write = true,
            "--dot" => dot = true,
            "--json" => {
                json = Some(PathBuf::from(it.next().ok_or("--json needs a value")?));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Options {
        root,
        baseline,
        write,
        dot,
        json,
    })
}

fn write_json(path: &PathBuf, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_optional(path: &PathBuf) -> Result<String, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    match command.as_str() {
        "lint" => {
            let opts = parse_args(rest)?;
            let baseline_path = opts
                .baseline
                .unwrap_or_else(|| opts.root.join("audit-baseline.txt"));
            let violations = scan_workspace(&opts.root)
                .map_err(|e| format!("scanning {}: {e}", opts.root.display()))?;
            let baseline = parse_baseline(&read_optional(&baseline_path)?)?;
            let d = diff(&violations, &baseline);
            let gate_fails = !d.regressions.is_empty();
            if let Some(json_path) = &opts.json {
                let doc = Json::Obj(vec![
                    ("analysis".into(), Json::str("lint")),
                    ("violations".into(), Json::count(violations.len())),
                    ("baseline_groups".into(), Json::count(baseline.len())),
                    ("regressions".into(), Json::count(d.regressions.len())),
                    ("stale".into(), Json::count(d.stale.len())),
                    ("clean".into(), Json::Bool(!gate_fails)),
                ]);
                write_json(json_path, &doc)?;
            }
            match render_report(&d) {
                Some(report) => eprintln!("{report}"),
                None => eprintln!(
                    "audit clean: {} file-level allowance(s) in baseline, no new violations",
                    baseline.len()
                ),
            }
            Ok(exit(!gate_fails))
        }
        "baseline" => {
            let opts = parse_args(rest)?;
            let baseline_path = opts
                .baseline
                .unwrap_or_else(|| opts.root.join("audit-baseline.txt"));
            let violations = scan_workspace(&opts.root)
                .map_err(|e| format!("scanning {}: {e}", opts.root.display()))?;
            let rendered = render_baseline(&to_counts(&violations));
            if opts.write {
                std::fs::write(&baseline_path, &rendered)
                    .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
                eprintln!(
                    "wrote {} ({} violations across {} groups)",
                    baseline_path.display(),
                    violations.len(),
                    to_counts(&violations).len()
                );
            } else {
                print!("{rendered}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "locks" => {
            let opts = parse_args(rest)?;
            let report = locks::analyze_workspace(&opts.root)?;
            if let Some(json_path) = &opts.json {
                write_json(json_path, &locks::to_json(&report))?;
            }
            if opts.dot {
                print!("{}", locks::render_dot(&report));
            }
            eprintln!("{}", locks::render_report(&report));
            Ok(exit(report.is_clean()))
        }
        "atomics" => {
            let opts = parse_args(rest)?;
            let baseline_path = opts
                .baseline
                .unwrap_or_else(|| opts.root.join("atomics-baseline.txt"));
            let report = atomics::scan_workspace(&opts.root)?;
            let current = report.to_counts();
            if opts.write {
                let rendered = atomics::render_baseline(&current);
                std::fs::write(&baseline_path, &rendered)
                    .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
                eprintln!(
                    "wrote {} ({} unannotated sites across {} groups)",
                    baseline_path.display(),
                    report.unannotated().len(),
                    current.len()
                );
                return Ok(ExitCode::SUCCESS);
            }
            let baseline = atomics::parse_baseline(&read_optional(&baseline_path)?)?;
            let (regressions, stale) = atomics::diff(&current, &baseline);
            if let Some(json_path) = &opts.json {
                write_json(json_path, &atomics::to_json(&report, &regressions))?;
            }
            eprintln!("{}", atomics::render_report(&report, &regressions, &stale));
            Ok(exit(regressions.is_empty()))
        }
        "reach" => {
            let opts = parse_args(rest)?;
            let report = reach::scan_workspace(&opts.root)?;
            if let Some(json_path) = &opts.json {
                write_json(json_path, &reach::to_json(&report))?;
            }
            eprintln!("{}", reach::render_report(&report));
            Ok(exit(report.is_clean()))
        }
        "self-test" => {
            let report = self_test()?;
            eprintln!("self-test ok: seeded violations detected and reported:\n");
            eprintln!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mendel-audit: {message}");
            ExitCode::from(2)
        }
    }
}
