//! Bench-regression gate: measure the smoke-plan headline numbers and
//! diff them against the committed `BENCH_smoke.json` baseline.
//!
//! The simulator is deterministic, so the op counts and claim ratios in
//! the snapshot reproduce exactly run-to-run; the tolerance exists to
//! absorb *intentional* model refinements small enough not to change any
//! conclusion. Larger drift fails the gate — either fix the regression
//! or refresh the baseline with `--update` and justify it in the PR.
//!
//! Usage: `cargo run --release -p horus-bench --bin bench-gate --
//! [--update] [--baseline PATH] [--out PATH] [--tolerance FRACTION]
//! [--throughput-tolerance FRACTION] [--host-profile-tolerance FRACTION]
//! [--gate-host-profile]` plus the shared `repro-*` flags
//! (`--jobs`, `--cache-dir`, `--no-cache`, `--run-dir`, ...). Here
//! `--out` is the snapshot output path.
//!
//! The deterministic op counts are gated tight (default 2%); the
//! `ops_per_sec` throughput section is gated loose (default 25%,
//! regressions only) because wall-clock rates depend on the runner.
//! The `host_profile` section (wall/CPU seconds, peak RSS, allocation
//! totals) is looser still — default 50%, regressions only — and runs
//! *informationally* unless `--gate-host-profile` is given: deviations
//! print but do not fail the gate, so the section can ride along until
//! the committed baseline has been refreshed on the CI runner class.

use horus_bench::bench_gate::{self, BenchSnapshot};
use horus_bench::cli::HarnessArgs;
use std::path::PathBuf;
use std::process::exit;

#[derive(Debug)]
struct GateArgs {
    update: bool,
    baseline: PathBuf,
    out: Option<PathBuf>,
    tolerance: f64,
    throughput_tolerance: f64,
    host_profile_tolerance: f64,
    gate_host_profile: bool,
}

const GATE_USAGE: &str = "bench-gate [--update] [--baseline PATH] [--out PATH] \
[--tolerance FRACTION] [--throughput-tolerance FRACTION] \
[--host-profile-tolerance FRACTION] [--gate-host-profile]";

fn fraction(flag: &str, v: &str) -> Result<f64, String> {
    let f = v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"))?;
    if !(0.0..1.0).contains(&f) {
        return Err(format!("{flag} {v}: want a fraction in [0, 1)"));
    }
    Ok(f)
}

fn main() {
    let mut args = GateArgs {
        update: false,
        baseline: PathBuf::from("BENCH_smoke.json"),
        out: None,
        tolerance: 0.02,
        throughput_tolerance: 0.25,
        host_profile_tolerance: 0.5,
        gate_host_profile: false,
    };
    let shared = HarnessArgs::parse_or_exit_with(GATE_USAGE, |flag, it| match flag {
        "--update" => {
            args.update = true;
            Ok(true)
        }
        "--baseline" => {
            args.baseline = PathBuf::from(it.next().ok_or("--baseline requires a value")?);
            Ok(true)
        }
        "--out" => {
            args.out = Some(PathBuf::from(it.next().ok_or("--out requires a value")?));
            Ok(true)
        }
        "--tolerance" => {
            let v = it.next().ok_or("--tolerance requires a value")?;
            args.tolerance = fraction("--tolerance", &v)?;
            Ok(true)
        }
        "--throughput-tolerance" => {
            let v = it.next().ok_or("--throughput-tolerance requires a value")?;
            args.throughput_tolerance = fraction("--throughput-tolerance", &v)?;
            Ok(true)
        }
        "--host-profile-tolerance" => {
            let v = it
                .next()
                .ok_or("--host-profile-tolerance requires a value")?;
            args.host_profile_tolerance = fraction("--host-profile-tolerance", &v)?;
            Ok(true)
        }
        "--gate-host-profile" => {
            args.gate_host_profile = true;
            Ok(true)
        }
        _ => Ok(false),
    });
    let obs = shared.obs_or_exit();
    let harness = shared.harness_with(&obs);
    let snapshot = bench_gate::measure_with(&harness, harness.jobs());
    obs.finish_or_exit(&harness);
    println!(
        "smoke-plan headline op counts ({:.2}s wall, {} workers):\n\n{}",
        snapshot.wall_seconds,
        harness.jobs(),
        snapshot.render()
    );
    println!("ops_per_sec: {}", snapshot.render_throughput());
    if let Some(host) = &snapshot.host_profile {
        println!(
            "host_profile: cpu {} s, peak rss {}, allocs {}",
            host.cpu_seconds
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}")),
            host.peak_rss_bytes
                .map_or_else(|| "n/a".to_owned(), |v| format!("{} MiB", v >> 20)),
            host.allocations.map_or_else(
                || "n/a (build with --features alloc-profile)".to_owned(),
                |v| v.to_string()
            ),
        );
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, snapshot.to_json()) {
            eprintln!("error: writing {}: {e}", out.display());
            exit(1);
        }
        println!("snapshot written to {}", out.display());
    }
    if args.update {
        if let Err(e) = std::fs::write(&args.baseline, snapshot.to_json()) {
            eprintln!("error: writing {}: {e}", args.baseline.display());
            exit(1);
        }
        println!("baseline refreshed at {}", args.baseline.display());
        return;
    }
    let text = match std::fs::read_to_string(&args.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: reading baseline {}: {e}\n(run with --update to create it)",
                args.baseline.display()
            );
            exit(1);
        }
    };
    let baseline = match BenchSnapshot::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: baseline {}: {e}", args.baseline.display());
            exit(1);
        }
    };
    let mut deviations = bench_gate::compare(&snapshot, &baseline, args.tolerance);
    deviations.extend(bench_gate::compare_throughput(
        &snapshot,
        &baseline,
        args.throughput_tolerance,
    ));
    let host_deviations =
        bench_gate::compare_host_profile(&snapshot, &baseline, args.host_profile_tolerance);
    if args.gate_host_profile {
        deviations.extend(host_deviations);
    } else if !host_deviations.is_empty() {
        eprintln!(
            "host-profile note ({} finding(s), informational — pass --gate-host-profile to gate):",
            host_deviations.len()
        );
        for d in &host_deviations {
            eprintln!("  - {d}");
        }
    }
    if deviations.is_empty() {
        println!(
            "bench gate PASSED: headline numbers within {:.1}%, throughput within \
             {:.0}% of {} (baseline wall {:.2}s, this run {:.2}s — informational)",
            args.tolerance * 100.0,
            args.throughput_tolerance * 100.0,
            args.baseline.display(),
            baseline.wall_seconds,
            snapshot.wall_seconds
        );
    } else {
        eprintln!(
            "bench gate FAILED: {} deviation(s) beyond {:.1}% (counts) / {:.0}% \
             (throughput) of {}:",
            deviations.len(),
            args.tolerance * 100.0,
            args.throughput_tolerance * 100.0,
            args.baseline.display()
        );
        for d in &deviations {
            eprintln!("  - {d}");
        }
        eprintln!("fix the regression, or refresh with --update and justify the change");
        exit(1);
    }
}
