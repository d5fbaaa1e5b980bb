//! End-to-end crash-point fault injection through the public facade:
//! interrupt a drain mid-flight, recover from exactly the persistent
//! state left behind, and check the sweep layer's matrix on top.

use horus::bench::crash_sweep::{self, CrashSweepPlan};
use horus::core::crash::{run_crash_point, CrashSpec};
use horus::core::system::Episode;
use horus::core::{
    CrashVerdict, DrainScheme, RecoveryError, RecoveryMode, SecureEpdSystem, SystemConfig,
    TornWriteModel,
};
use horus::harness::Harness;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

// ----- the persistent episode state, against a written-out model -------

/// CHV rotation slots for the state-machine sequences: two, so a second
/// Horus episode lands in slot 1 and a rotation bug shows in `chv_slot`.
const SLOTS: u64 = 2;

/// The persistent episode state as `drain_open()` and `episode()` expose
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Register {
    /// No unrecovered episode; the drain-open register is clear.
    Idle,
    /// An unrecovered episode; the register is clear.
    Drained(Episode),
    /// An unrecovered episode; the register is set.
    Interrupted(Episode),
}

/// An event that changes the persistent episode state.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A drain ran to completion.
    Completed(Episode),
    /// A drain was cut by a power failure.
    Cut(Episode),
    /// `recover_after_crash` returned `Ok`.
    Recovered,
    /// `recover_after_crash` returned an error.
    RecoveryFailed,
    /// `simulate_metadata_loss`.
    MetadataLost,
}

/// The reference transition table: state × event → state.
fn transition(state: Register, event: Event) -> Register {
    use {Event as E, Register as R};
    match (state, event) {
        (_, E::Completed(ep)) => R::Drained(ep),
        (_, E::Cut(ep)) if ep.scheme.is_horus() => R::Interrupted(ep),
        (R::Interrupted(_), E::Cut(ep)) => R::Interrupted(ep),
        (R::Idle | R::Drained(_), E::Cut(ep)) => R::Drained(ep),
        (_, E::Recovered | E::MetadataLost) => R::Idle,
        (state, E::RecoveryFailed) => state,
    }
}

/// What one `recover_after_crash` call returns, as the model predicts it.
#[derive(Debug, PartialEq, Eq)]
enum Recovery {
    /// `Ok`, with its `complete` flag and the probed recovery phase name.
    Restored { complete: bool, phase: String },
    /// `Err(RecoveryError::NoEpisode)`.
    NoEpisode,
    /// `Err(RecoveryError::Metadata(_))`.
    MetadataError,
}

/// One step of a sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Drain under the scheme, cut at half its planned cycles if `true`.
    Drain(DrainScheme, bool),
    /// `recover_after_crash(RefillLlc)`.
    Recover,
    /// `simulate_metadata_loss`.
    LoseMetadata,
}

/// The model: the register plus the rotation counter and the last drain.
struct Model {
    register: Register,
    horus_drains: u64,
    last_drain: Option<(DrainScheme, bool)>,
}

impl Model {
    fn episode(&self) -> Option<Episode> {
        match self.register {
            Register::Idle => None,
            Register::Drained(ep) | Register::Interrupted(ep) => Some(ep),
        }
    }

    /// The episode a drain of `blocks` blocks under `scheme` records:
    /// every Horus drain, cut or completed, takes the next rotation slot.
    fn record(&mut self, scheme: DrainScheme, blocks: u64) -> Episode {
        let chv_slot = if scheme.is_horus() {
            self.horus_drains += 1;
            (self.horus_drains - 1) % SLOTS
        } else {
            0
        };
        Episode {
            scheme,
            blocks,
            chv_slot,
        }
    }

    /// What recovery returns from this state. Only a cut Base-LU episode
    /// fails: its shadow flush never committed.
    fn recovery(&self) -> Recovery {
        match self.register {
            Register::Idle => Recovery::NoEpisode,
            Register::Drained(ep) | Register::Interrupted(ep)
                if self.last_drain == Some((DrainScheme::BaseLazy, true)) =>
            {
                assert_eq!(ep.scheme, DrainScheme::BaseLazy);
                Recovery::MetadataError
            }
            Register::Drained(ep) => Recovery::Restored {
                complete: true,
                phase: format!("recovery.{}", ep.scheme),
            },
            Register::Interrupted(ep) => Recovery::Restored {
                complete: false,
                phase: format!("recovery.crash.{}", ep.scheme),
            },
        }
    }

    /// Whether a drain under `scheme` panics with "legitimate drain must
    /// verify". A baseline drain walks the run-time tree, which does not
    /// verify in NVM right after a Base-LU drain whose episode is still
    /// unrecovered (its metadata lives in the shadow region until then)
    /// nor after a cut Base-EU drain (the engine's root register reverted
    /// while some of the drain's tree writes landed).
    fn baseline_drain_panics(&self, scheme: DrainScheme) -> bool {
        let baseline = matches!(scheme, DrainScheme::BaseLazy | DrainScheme::BaseEager);
        baseline
            && match self.last_drain {
                Some((DrainScheme::BaseLazy, _)) => self.episode().is_some(),
                Some((DrainScheme::BaseEager, cut)) => cut,
                _ => false,
            }
    }
}

fn recover(sys: &mut SecureEpdSystem) -> Recovery {
    match sys.recover_after_crash(RecoveryMode::RefillLlc) {
        Ok(rec) => {
            let phase = sys
                .take_episode_trace()
                .expect("a probed recovery leaves its trace")
                .into_iter()
                .find(|e| e.track == "phase" && e.name.starts_with("recovery"))
                .expect("the recovery phase is recorded")
                .name;
            Recovery::Restored {
                complete: rec.complete,
                phase,
            }
        }
        Err(RecoveryError::NoEpisode) => Recovery::NoEpisode,
        Err(RecoveryError::Metadata(_)) => Recovery::MetadataError,
        Err(e) => panic!("unexpected recovery error {e}"),
    }
}

/// Drains under `scheme`, cut at half the planned cycles if `cut`, and
/// returns the event with the episode the model expects: the whole run
/// for a completed drain or a cut baseline, the issued pushes for a cut
/// Horus drain.
fn drain(sys: &mut SecureEpdSystem, model: &mut Model, scheme: DrainScheme, cut: bool) -> Event {
    model.last_drain = Some((scheme, cut));
    if !cut {
        let dr = sys.crash_and_drain(scheme);
        return Event::Completed(model.record(scheme, dr.flushed_blocks + dr.metadata_blocks));
    }
    let plan = sys.clone().crash_and_drain(scheme);
    let whole = plan.flushed_blocks + plan.metadata_blocks;
    let dr = sys.crash_and_drain_interrupted(scheme, CrashSpec::at(plan.cycles / 2));
    assert!(!dr.completed, "a cut at half the planned cycles interrupts");
    let blocks = if scheme.is_horus() {
        assert!(dr.issued_blocks < whole);
        dr.issued_blocks
    } else {
        whole
    };
    Event::Cut(model.record(scheme, blocks))
}

/// Runs `steps` on a fresh system with the `engine` baseline's run-time
/// engine, asserting the register and the episode after every step and
/// the outcome of every recovery against the model. New activity (16
/// dirty lines) precedes every drain after the first. Returns `true` if
/// the sequence ended in a drain the model expects to panic.
fn check_sequence(engine: DrainScheme, steps: &[Step]) -> bool {
    let config = SystemConfig {
        chv_rotation_slots: SLOTS,
        ..SystemConfig::small_test()
    };
    let mut sys = SecureEpdSystem::for_scheme(config, engine);
    sys.enable_probe();
    for i in 0..48u64 {
        sys.write(i * 16448, [i as u8 + 1; 64]).expect("write");
    }
    let mut model = Model {
        register: Register::Idle,
        horus_drains: 0,
        last_drain: None,
    };
    let name = format!("{engine} engine, {steps:?}");
    for (k, &step) in steps.iter().enumerate() {
        let event = match step {
            Step::Drain(scheme, cut) => {
                if model.last_drain.is_some() {
                    for i in 0..16u64 {
                        sys.write(i * 16448 + 64, [0xAB; 64]).expect("write");
                    }
                }
                if model.baseline_drain_panics(scheme) {
                    // The drain loops panic before the cut cycle is
                    // consulted, so the cut needs no plan here.
                    let panic = catch_unwind(AssertUnwindSafe(|| {
                        if cut {
                            sys.crash_and_drain_interrupted(scheme, CrashSpec::at(0));
                        } else {
                            sys.crash_and_drain(scheme);
                        }
                    }))
                    .expect_err(&format!("{name}: step {k} should panic"));
                    let msg = panic
                        .downcast_ref::<String>()
                        .map_or("", String::as_str)
                        .to_owned();
                    assert!(
                        msg.contains("legitimate drain must verify"),
                        "{name}: step {k}: {msg}"
                    );
                    return true;
                }
                drain(&mut sys, &mut model, scheme, cut)
            }
            Step::Recover => {
                let expected = model.recovery();
                let ok = matches!(expected, Recovery::Restored { .. });
                assert_eq!(recover(&mut sys), expected, "{name}: step {k}");
                if ok {
                    Event::Recovered
                } else {
                    Event::RecoveryFailed
                }
            }
            Step::LoseMetadata => {
                sys.simulate_metadata_loss();
                Event::MetadataLost
            }
        };
        model.register = transition(model.register, event);
        assert_eq!(
            (sys.drain_open(), sys.episode()),
            (
                matches!(model.register, Register::Interrupted(_)),
                model.episode()
            ),
            "{name}: after step {k}"
        );
    }
    false
}

/// The drains one run-time engine allows, completed and cut.
fn drains(engine: DrainScheme) -> Vec<Step> {
    [
        DrainScheme::NonSecure,
        engine,
        DrainScheme::HorusSlm,
        DrainScheme::HorusDlm,
    ]
    .into_iter()
    .flat_map(|s| [Step::Drain(s, false), Step::Drain(s, true)])
    .collect()
}

/// Every ordered pair of completed or cut drains under each run-time
/// engine, with and without a recovery between them, then a final
/// recovery: 256 sequences. The ten whose second drain is a baseline
/// drain the model expects to panic (see `baseline_drain_panics`) are
/// asserted to panic, not skipped.
#[test]
fn episode_state_follows_the_transition_table() {
    let (mut sequences, mut panicked) = (0, 0);
    for engine in [DrainScheme::BaseLazy, DrainScheme::BaseEager] {
        let drains = drains(engine);
        for &first in &drains {
            for between in [None, Some(Step::Recover)] {
                for &second in &drains {
                    let steps: Vec<Step> =
                        [Some(first), between, Some(second), Some(Step::Recover)]
                            .into_iter()
                            .flatten()
                            .collect();
                    sequences += 1;
                    panicked += usize::from(check_sequence(engine, &steps));
                }
            }
        }
    }
    assert_eq!(sequences, 256);
    assert_eq!(panicked, 10, "expected-panic rows");
}

/// Losing the volatile state without a drain leaves no episode and a
/// closed register, whatever the drain before it left — including an
/// open register — and the rotation counter carries on.
#[test]
fn metadata_loss_leaves_no_episode() {
    for engine in [DrainScheme::BaseLazy, DrainScheme::BaseEager] {
        for first in drains(engine) {
            let steps = [
                first,
                Step::LoseMetadata,
                Step::Recover,
                Step::Drain(DrainScheme::HorusSlm, false),
                Step::Recover,
            ];
            assert!(!check_sequence(engine, &steps));
        }
    }
}
