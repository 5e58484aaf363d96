//! CLI for the workspace source auditor. Every analysis lists its
//! unwaived findings and exits 1 when there are any, 2 on a usage error.
//!
//! ```text
//! mendel-audit locks    [--root DIR] [--dot] [--json FILE]  # lock-order cycles, unwaived smells
//! mendel-audit atomics  [--root DIR] [--json FILE]          # unannotated Ordering::* sites
//! mendel-audit reach    [--root DIR] [--json FILE]          # unreached pub items
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "this binary's purpose is terminal output: reports go to stderr, DOT graphs to stdout"
)]

use mendel_audit::{atomics, locks, reach, Json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mendel-audit <locks|atomics|reach> \
     [--root DIR] [--dot] [--json FILE]";

struct Options {
    root: PathBuf,
    dot: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    // Default root: the workspace this binary was built from, so
    // `cargo run -p mendel-audit -- reach` works from any directory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let mut dot = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--dot" => dot = true,
            "--json" => {
                json = Some(PathBuf::from(it.next().ok_or("--json needs a value")?));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Options { root, dot, json })
}

fn write_json(path: &PathBuf, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))
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
            let report = atomics::scan_workspace(&opts.root)?;
            if let Some(json_path) = &opts.json {
                write_json(json_path, &atomics::to_json(&report))?;
            }
            eprintln!("{}", atomics::render_report(&report));
            Ok(exit(report.is_clean()))
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
