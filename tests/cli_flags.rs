//! `horus-cli` rejects every flag a subcommand does not read.
//!
//! Rejection happens while parsing, before a subcommand does any work,
//! so each case here costs one process spawn. A flag that parsed but was
//! ignored would instead run the subcommand (and fail the exit-status
//! assertion or, for `serve`, block on its listener).

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_horus-cli"))
        .args(args)
        .output()
        .expect("spawn horus-cli")
}

/// Asserts `args` fail with an error naming `flag` on the first line.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(!out.status.success(), "{args:?} was accepted:\n{stderr}");
    assert!(
        first.starts_with("error: ") && first.contains(&format!("'{flag}'")),
        "{args:?}: {first}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

/// The six flags `--run-dir` replaced, plus the `--out` alias.
const DELETED: [&str; 7] = [
    "--obs-out",
    "--span-out",
    "--trace-out",
    "--out",
    "--dashboard",
    "--progress",
    "--log-json",
];

#[test]
fn deleted_output_flags_are_rejected_by_every_subcommand() {
    for cmd in [
        &["sweep"][..],
        &["crash-sweep"],
        &["serve"],
        &["insight"],
        &["drain"],
        &["config"],
        &["repro"],
        &["bench-gate"],
        &["ablation", "wear"],
    ] {
        for flag in DELETED {
            // `crash-sweep`, `insight` and `bench-gate` claim `--out
            // FILE` for their own outputs (the crash matrix,
            // `insight.json`, the gate's snapshot).
            if matches!(cmd[0], "crash-sweep" | "insight" | "bench-gate") && flag == "--out" {
                continue;
            }
            assert_rejected(&[cmd, &[flag, "x.json"]].concat(), flag);
        }
    }
}

#[test]
fn flags_a_subcommand_does_not_read_are_rejected() {
    // Once a boolean, now unknown: must not swallow `--llc` as a value.
    assert_rejected(&["sweep", "--dashboard", "--llc", "8"], "--dashboard");
    // A typo is an error, not a silent default.
    assert_rejected(&["sweep", "--obs_out", "f"], "--obs_out");
    // Shared harness flags `sweep` would ignore.
    assert_rejected(&["sweep", "--quick"], "--quick");
    assert_rejected(&["sweep", "--sim-threads", "2"], "--sim-threads");
    // crash-sweep executes no JobSpecs: no cache, no service.
    assert_rejected(&["crash-sweep", "--cache-dir", "c"], "--cache-dir");
    assert_rejected(&["crash-sweep", "--service", "127.0.0.1:1"], "--service");
    // Per-subcommand flags do not leak across subcommands.
    assert_rejected(&["drain", "--write-through"], "--write-through");
    assert_rejected(
        &["serve", "--metrics-addr", "127.0.0.1:0"],
        "--metrics-addr",
    );
    assert_rejected(&["trace", "--file", "ops.txt", "--llc-mb", "2"], "--llc-mb");
    assert_rejected(&["insight", "--obs", "s.json"], "--obs");
}

#[test]
fn serve_metrics_is_gone_and_log_level_is_global() {
    let out = cli(&["serve-metrics", "--for-seconds", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("error: unknown command 'serve-metrics'")
    );

    let out = cli(&["config", "--log-level", "warn"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("hierarchy_bytes"));
    assert!(!cli(&["config", "--log-level", "loud"]).status.success());
    assert!(
        !cli(&["config", "extra"]).status.success(),
        "stray positional"
    );
}

#[test]
fn paper_commands_refuse_flags_they_do_not_read() {
    // `--sim-threads` is gone: episodes run on the one harness pool.
    for cmd in [&["repro"][..], &["bench-gate"], &["ablation", "wear"]] {
        assert_rejected(&[cmd, &["--sim-threads", "2"]].concat(), "--sim-threads");
    }
    // `repro` renders the whole document; there is no section filter.
    assert_rejected(&["repro", "--only", "fig06"], "--only");
    // The gate has one smoke plan, one baseline and fixed tolerances.
    assert_rejected(&["bench-gate", "--quick"], "--quick");
    for flag in ["--baseline", "--tolerance", "--throughput-tolerance"] {
        assert_rejected(&["bench-gate", flag, "0.5"], flag);
    }
    // Ablations run inline: no pool, cache, service or run directory.
    for flag in ["--jobs", "--cache-dir", "--service", "--run-dir"] {
        assert_rejected(&["ablation", "wear", flag, "2"], flag);
    }
    for flag in ["--quick", "--no-cache"] {
        assert_rejected(&["ablation", "faults", flag], flag);
    }
}

#[test]
fn ablation_names_its_choices() {
    for args in [
        &["ablation"][..],
        &["ablation", "fig06"],
        &["ablation", "wear", "faults"],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    let stderr = String::from_utf8_lossy(&cli(&["ablation", "fig06"]).stderr).into_owned();
    assert!(
        stderr.starts_with(
            "error: unknown ablation 'fig06' (wear, metacache, runtime, domains, faults)"
        ),
        "{stderr}"
    );
}
