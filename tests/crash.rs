//! End-to-end crash-point fault injection through the public facade:
//! interrupt a drain mid-flight, recover from exactly the persistent
//! state left behind, and check the sweep layer's matrix on top.

use horus::bench::crash_sweep::{self, CrashSweepPlan};
use horus::core::crash::{run_crash_point, CrashSpec};
use horus::core::{
    CrashVerdict, DrainScheme, RecoveryMode, SecureEpdSystem, SystemConfig, TornWriteModel,
};
use horus::harness::Harness;

fn filled(scheme: DrainScheme) -> SecureEpdSystem {
    let mut sys = SecureEpdSystem::for_scheme(SystemConfig::small_test(), scheme);
    for i in 0..48u64 {
        sys.write(i * 16448, [i as u8 + 1; 64]).expect("write");
    }
    sys
}

#[test]
fn interrupted_horus_drain_salvages_a_verified_prefix() {
    let planned = filled(DrainScheme::HorusSlm)
        .crash_and_drain(DrainScheme::HorusSlm)
        .cycles;
    let mut sys = filled(DrainScheme::HorusSlm);
    let cut =
        sys.crash_and_drain_interrupted(DrainScheme::HorusSlm, CrashSpec::at(3 * planned / 4));
    assert!(!cut.completed);
    assert!(cut.issued_blocks > 0);
    assert!(sys.drain_open(), "persistent drain-open register set");
    let rec = sys
        .recover_after_crash(RecoveryMode::RefillLlc)
        .expect("the verified prefix restores");
    assert!(
        !rec.complete,
        "an interrupted drain is never reported whole"
    );
    assert!(rec.verified_prefix > 0);
    assert!(!sys.drain_open(), "recovery clears the register");
    // Every line the prefix covered reads back exactly.
    let mut matched = 0;
    for i in 0..48u64 {
        if sys.read(i * 16448) == Ok([i as u8 + 1; 64]) {
            matched += 1;
        }
    }
    assert_eq!(matched, rec.verified_prefix.min(48));
}

/// An interrupted episode that is never recovered is superseded by the
/// next completed drain, which closes the drain-open register: the new
/// episode recovers complete, and every line it vaulted reads back.
#[test]
fn completed_drain_closes_a_stale_drain_open_register() {
    let planned = filled(DrainScheme::HorusSlm)
        .crash_and_drain(DrainScheme::HorusSlm)
        .cycles;
    let mut sys = filled(DrainScheme::HorusSlm);
    sys.crash_and_drain_interrupted(DrainScheme::HorusSlm, CrashSpec::at(planned / 2));
    assert!(sys.drain_open());
    // Recovery is skipped; power returns to new activity, then a clean
    // outage.
    for i in 0..16u64 {
        sys.write(i * 16448 + 64, [0xAB; 64]).expect("write");
    }
    let dr = sys.crash_and_drain(DrainScheme::HorusSlm);
    assert!(!sys.drain_open(), "a completed drain closes the register");
    let rec = sys
        .recover_after_crash(RecoveryMode::RefillLlc)
        .expect("the completed episode verifies");
    assert!(rec.complete, "a completed episode is reported whole");
    assert_eq!(rec.verified_prefix, dr.flushed_blocks + dr.metadata_blocks);
    assert_eq!(rec.report.restored_blocks, rec.verified_prefix);
    for i in 0..16u64 {
        assert_eq!(sys.read(i * 16448 + 64), Ok([0xAB; 64]), "line {i}");
    }
}

#[test]
fn torn_write_models_change_the_wreckage_not_the_verdict() {
    let planned = filled(DrainScheme::HorusDlm)
        .crash_and_drain(DrainScheme::HorusDlm)
        .cycles;
    for model in [
        TornWriteModel::Torn,
        TornWriteModel::Stale,
        TornWriteModel::Garbled,
    ] {
        let mut sys = filled(DrainScheme::HorusDlm);
        let report = run_crash_point(
            &mut sys,
            DrainScheme::HorusDlm,
            CrashSpec {
                at: planned / 2,
                model,
            },
            RecoveryMode::RefillLlc,
        );
        // Lines the cut kept out of the vault read back as fresh
        // memory or fail verification — either way the incomplete
        // recovery was *announced*, so the verdict stays Detected (and
        // never silent) no matter how the in-flight writes landed.
        assert_eq!(report.verdict, CrashVerdict::Detected, "{model}");
        assert_eq!(
            report.reads_matched + report.reads_stale + report.reads_failed,
            48,
            "{model}"
        );
    }
}

#[test]
fn quick_matrix_gates_horus_and_reports_baseline_windows() {
    let plan = CrashSweepPlan {
        points_per_scheme: 12,
        ..CrashSweepPlan::quick()
    };
    let matrix = crash_sweep::run(&Harness::with_jobs(2), &plan);
    assert_eq!(matrix.failures(), 0, "{}", matrix.render());
    assert_eq!(matrix.horus_silent_corruptions(), 0);
    assert_eq!(matrix.rows.len(), 4);
    let horus_rows = matrix
        .rows
        .iter()
        .filter(|r| r.scheme.starts_with("Horus"))
        .count();
    assert_eq!(horus_rows, 2);
    for row in &matrix.rows {
        assert_eq!(row.recovered + row.detected + row.silent, row.points);
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The quick crash matrix under every torn-write model, pinned as an
/// FNV-1a digest of its JSON: every crash point's verdict, restored
/// count and read-back tally. The recovery walk may be restructured,
/// but no sampled cut may change what it salvages or reports.
#[test]
fn quick_crash_matrix_golden() {
    for (model, golden) in [
        (TornWriteModel::Torn, 0x96b2_bfa9_ac63_7bba),
        (TornWriteModel::Stale, 0xd3c3_230b_b2c5_fb3f),
        (TornWriteModel::Garbled, 0xccb6_9c72_8511_dc37),
    ] {
        let plan = CrashSweepPlan {
            model,
            ..CrashSweepPlan::quick()
        };
        let json = serde_json::to_string(&crash_sweep::run(&Harness::with_jobs(2), &plan))
            .expect("matrix serializes");
        let digest = fnv1a(json.as_bytes());
        assert_eq!(digest, golden, "{model}: {digest:#018x}");
    }
}
