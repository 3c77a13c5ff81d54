//! `meshctl` — a small operator CLI over the meshlayer library.
//!
//! ```sh
//! meshctl policy dump [PRESET]     # render a policy snapshot (baseline|prototype|full)
//! meshctl policy diff A B          # toggle-level diff between two presets
//! meshctl validate-trace PATH      # check a --profile Chrome trace JSON file
//! ```
//!
//! `meshctl` runs no simulation: the views that do (`incident`, `chaos`,
//! `links`, `top`, `trace`) are entries of the `experiment` binary.

use meshlayer::core::{PolicySnapshot, XLayerConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: meshctl policy <dump [PRESET] | diff PRESET PRESET>");
    eprintln!("       meshctl validate-trace PATH");
    eprintln!("       presets: baseline | prototype | full");
    ExitCode::from(2)
}

/// Validate a Chrome trace-event file written by `experiment`'s
/// `--profile` flag: well-formed JSON, non-empty, every span complete.
fn cmd_validate_trace(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("validate-trace: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match meshlayer::prof::validate_chrome_trace(&json) {
        Ok(spans) => {
            println!("{path}: ok ({spans} spans)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate-trace: {path} is not a valid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A named preset rendered as the policy snapshot the control plane
/// would push for it. Versions are illustrative: a dump is v1, a diff
/// is v1 -> v2.
fn preset_snapshot(name: &str, version: u64) -> Option<PolicySnapshot> {
    let xlayer = match name {
        "baseline" => XLayerConfig::baseline(),
        "prototype" => XLayerConfig::paper_prototype(),
        "full" => XLayerConfig::full(),
        _ => return None,
    };
    Some(PolicySnapshot {
        version,
        xlayer,
        high_share: meshlayer::core::HIGH_PRIO_SHARE,
        queue_pkts: meshlayer::core::NetworkPlan::default().queue_pkts,
    })
}

fn cmd_policy(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("dump") => {
            let name = args.get(1).map(String::as_str).unwrap_or("prototype");
            let Some(snap) = preset_snapshot(name, 1) else {
                eprintln!("unknown preset {name:?}");
                return usage();
            };
            print!("{}", snap.render());
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (Some(from), Some(to)) = (preset_snapshot(a, 1), preset_snapshot(b, 2)) else {
                eprintln!("unknown preset in {a:?} / {b:?}");
                return usage();
            };
            let changes = from.diff(&to);
            if changes.is_empty() {
                println!("no toggle changes: {a} == {b}");
            } else {
                println!("policy diff: {a} -> {b} ({} toggles change)", changes.len());
                for (name, old, new) in changes {
                    println!("  {name:<20} {old} -> {new}");
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("policy"), _) => cmd_policy(&args[1..]),
        (Some("validate-trace"), Some(path)) => cmd_validate_trace(path),
        _ => usage(),
    }
}
