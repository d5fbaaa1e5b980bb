//! The `repro-*` binaries and `bench-gate` refuse flags they do not
//! read, with exit status 2, before any simulation runs.
//!
//! Each case is one process spawn that fails while parsing; a flag
//! that parsed and was ignored would instead run the binary (and print
//! its report on stdout).

use std::process::Command;

/// Runs `bin` with `args`; asserts exit status 2, an empty stdout, and
/// a first stderr line naming `flag`, which it returns.
fn assert_refused(bin: &str, args: &[&str], flag: &str) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
    assert!(
        first.starts_with("error: ") && first.contains(&format!("'{flag}'")),
        "{bin} {args:?}: {first}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a report");
    first.to_owned()
}

#[test]
fn binaries_without_a_sweep_refuse_sweep_only_flags() {
    for (name, bin) in [
        ("repro-config", env!("CARGO_BIN_EXE_repro-config")),
        ("repro-domains", env!("CARGO_BIN_EXE_repro-domains")),
        ("repro-metacache", env!("CARGO_BIN_EXE_repro-metacache")),
        ("repro-runtime", env!("CARGO_BIN_EXE_repro-runtime")),
        ("repro-wear", env!("CARGO_BIN_EXE_repro-wear")),
    ] {
        assert_eq!(
            assert_refused(bin, &["--service", "127.0.0.1:1"], "--service"),
            format!("error: {name} does not take '--service'")
        );
    }
}

#[test]
fn sim_threads_is_unknown_everywhere() {
    for bin in [
        env!("CARGO_BIN_EXE_bench-gate"),
        env!("CARGO_BIN_EXE_repro-all"),
        env!("CARGO_BIN_EXE_repro-config"),
        env!("CARGO_BIN_EXE_repro-domains"),
        env!("CARGO_BIN_EXE_repro-faults"),
        env!("CARGO_BIN_EXE_repro-fig06"),
        env!("CARGO_BIN_EXE_repro-fig11"),
        env!("CARGO_BIN_EXE_repro-fig12"),
        env!("CARGO_BIN_EXE_repro-fig13"),
        env!("CARGO_BIN_EXE_repro-fig14"),
        env!("CARGO_BIN_EXE_repro-fig15"),
        env!("CARGO_BIN_EXE_repro-fig16"),
        env!("CARGO_BIN_EXE_repro-metacache"),
        env!("CARGO_BIN_EXE_repro-runtime"),
        env!("CARGO_BIN_EXE_repro-tab2"),
        env!("CARGO_BIN_EXE_repro-tab3"),
        env!("CARGO_BIN_EXE_repro-wear"),
    ] {
        assert_refused(bin, &["--sim-threads", "2"], "--sim-threads");
    }
}
