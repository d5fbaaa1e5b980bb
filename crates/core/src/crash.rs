//! Crash-point fault injection: interrupt a drain at an arbitrary
//! cycle, reconstruct exactly the persistent state a real machine would
//! hold, run recovery against it, and classify the outcome.
//!
//! The drain engines in [`drain`](crate::drain) issue every NVM write
//! through the timed [`NvmSystem`](horus_nvm::NvmSystem), which applies
//! data functionally at issue time; the crash journal in `horus-nvm`
//! records each write's pre-image and bank service window so firing a
//! [`PowerFailure`] *rewinds* the device to the crash cycle: completed
//! writes stay, never-started writes vanish, and the one write per bank
//! caught mid-service is torn under a [`TornWriteModel`].
//!
//! On top of that functional rewind, this module freezes the *on-chip*
//! state to its crash-cycle value:
//!
//! * **Horus** — the persistent DC register holds the count of CHV
//!   pushes *issued* before the cut (the register increments at issue,
//!   not at write completion), and the persistent one-bit *drain-open*
//!   register records that the episode never finished.
//!   [`recover_after_crash`](SecureEpdSystem::recover_after_crash) runs
//!   the same vault walk as a complete recovery, but because drain-open
//!   is set the walk salvages the longest verifiable CHV prefix instead
//!   of failing on the first bad group, and the recovery reports itself
//!   incomplete no matter how much it salvaged: lines that were never
//!   pushed are gone and the machine knows it. This is what makes Horus
//!   crash-*detectable* at every cycle: it can lose recent data to the
//!   outage window, but it never lies about having it. A completed
//!   drain or a successful recovery closes the register again.
//! * **Baselines** — Base-LU/EU have no such register (that is their
//!   documented vulnerability). Their on-chip metadata engine reverts to
//!   its pre-drain snapshot (the shadow-flush commit never happened) and
//!   its volatile caches are cleared by the power loss; recovery and
//!   subsequent reads see whatever NVM happens to hold.
//!
//! [`run_crash_point`] packages one full experiment: fill-drain-crash,
//! recover, read back every pre-crash dirty line, and return a
//! [`CrashVerdict`] — the row material for the crash matrix.

use crate::drain::DrainScheme;
use crate::recovery::{RecoveryError, RecoveryMode, RecoveryReport};
use crate::system::{Episode, SecureEpdSystem};
use horus_sim::{Cycles, PowerFailure};
use serde::{Deserialize, Serialize};

pub use horus_nvm::{CrashOutcome, TornWriteModel};

/// Where and how to cut the power during a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The cycle (from outage detection) the power fails at. A cut at or
    /// after the drain's planned completion leaves a completed episode.
    pub at: u64,
    /// What an interrupted in-flight NVM write leaves behind.
    pub model: TornWriteModel,
}

impl CrashSpec {
    /// A cut at `at` with the default [`TornWriteModel::Torn`] model.
    #[must_use]
    pub fn at(at: u64) -> Self {
        CrashSpec {
            at,
            model: TornWriteModel::default(),
        }
    }
}

/// What an interrupted drain left behind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterruptedDrain {
    /// The drained scheme's name.
    pub scheme: String,
    /// The crash cycle.
    pub at: u64,
    /// The cycle the drain would have completed at without the crash.
    pub planned_cycles: u64,
    /// Whether the cut landed at or after `planned_cycles` (the episode
    /// completed and the crash hit an idle machine).
    pub completed: bool,
    /// Horus only: CHV pushes issued before the cut — the frozen value
    /// of the ephemeral drain-counter register.
    pub issued_blocks: u64,
    /// Per-write fate accounting from the NVM crash journal.
    pub outcome: CrashOutcome,
}

/// The result of recovering from a (possibly interrupted) episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecovery {
    /// Whether the machine believes the episode was recovered in full.
    /// For an interrupted Horus drain this is *always* false — the
    /// drain-open register proves lines were lost even when every vault
    /// entry present verifies.
    pub complete: bool,
    /// CHV entries verified and restored (Horus), or the episode's block
    /// count for a complete recovery.
    pub verified_prefix: u64,
    /// The usual recovery measurements.
    pub report: RecoveryReport,
}

/// How one crash point ended, from the user's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrashVerdict {
    /// Recovery succeeded and every pre-crash dirty line read back with
    /// its pre-crash contents.
    Recovered,
    /// The machine *knows* state was lost or damaged: recovery returned
    /// an error, or reported itself incomplete, or subsequent reads
    /// failed verification. Data may be gone, but no lie was told.
    Detected,
    /// The worst case: recovery claimed success, reads verified, and yet
    /// some line returned data that differs from its pre-crash contents.
    SilentCorruption,
}

impl std::fmt::Display for CrashVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashVerdict::Recovered => write!(f, "recovered"),
            CrashVerdict::Detected => write!(f, "detected"),
            CrashVerdict::SilentCorruption => write!(f, "SILENT-CORRUPTION"),
        }
    }
}

/// One row of the crash matrix: everything observed at one crash point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashPointReport {
    /// The drained scheme's name.
    pub scheme: String,
    /// The crash cycle.
    pub at: u64,
    /// The drain's uninterrupted completion cycle.
    pub planned_cycles: u64,
    /// Whether the drain had already completed when the cut landed.
    pub completed_drain: bool,
    /// The classification.
    pub verdict: CrashVerdict,
    /// Human-readable one-liner: what happened.
    pub detail: String,
    /// Journaled writes the cut caught mid-service.
    pub torn_writes: u64,
    /// Journaled writes the cut rewound entirely.
    pub lost_writes: u64,
    /// Journaled writes that persisted.
    pub durable_writes: u64,
    /// Blocks recovery restored.
    pub restored_blocks: u64,
    /// Pre-crash dirty lines that read back correctly.
    pub reads_matched: u64,
    /// Pre-crash dirty lines that read back *verified but wrong* — the
    /// silent-corruption count.
    pub reads_stale: u64,
    /// Pre-crash dirty lines whose read failed verification.
    pub reads_failed: u64,
}

impl SecureEpdSystem {
    /// Drains under `scheme` and cuts the power at `spec.at` cycles
    /// after outage detection, leaving the system in exactly the
    /// persistent state a real machine would hold: NVM rewound per the
    /// crash journal, volatile caches cleared, on-chip registers frozen
    /// at their crash-cycle values.
    ///
    /// A cut at or after the drain's completion cycle degenerates to
    /// [`crash_and_drain`](SecureEpdSystem::crash_and_drain) (every
    /// write durable, episode recorded as complete).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`crash_and_drain`](SecureEpdSystem::crash_and_drain).
    pub fn crash_and_drain_interrupted(
        &mut self,
        scheme: DrainScheme,
        spec: CrashSpec,
    ) -> InterruptedDrain {
        // On-chip snapshots taken at outage detection: what survives the
        // crash is the persistent registers' values *at the cut*, which
        // are reconstructed from these below.
        let counters_snapshot = self.counters;
        let engine_snapshot = (!scheme.is_horus()).then(|| self.engine.clone());

        self.platform.nvm.arm_crash_journal();
        let run = self.run_drain_loops(scheme);
        let planned = self.platform.busy_until();
        let completed = spec.at >= planned.0;
        let outcome = self
            .platform
            .nvm
            .fire_crash(PowerFailure::at(Cycles(spec.at)), spec.model);

        // Freeze the on-chip registers to their crash-cycle values.
        let issued = run
            .push_issue_cycles
            .iter()
            .filter(|c| c.0 < spec.at)
            .count() as u64;
        if scheme.is_horus() && !completed {
            // The DC register increments when a push is *issued*; pushes
            // after the cut never happened on a real machine.
            self.counters = counters_snapshot;
            self.counters.clear_ephemeral();
            for _ in 0..issued {
                self.counters.allocate();
            }
        }
        if let (Some(snap), false) = (engine_snapshot, completed) {
            // The baseline shadow-flush commit (root + shadow registers)
            // never happened; the engine's persistent registers revert.
            self.engine = snap;
        }

        // Power off: volatile state is lost regardless of scheme.
        self.hierarchy.clear();
        self.clear_metadata_caches();

        let chv_slot = run.chv_slot;
        if scheme.is_horus() {
            // The slot was consumed even if the episode never finished.
            self.episodes_drained += 1;
            self.drain_open = !completed;
        }
        self.episode = Some(Episode {
            scheme,
            // An interrupted Horus episode spans only the issued pushes;
            // recovery must not look past the frozen DC value.
            blocks: if scheme.is_horus() && !completed {
                issued
            } else {
                run.flushed + run.metadata_blocks
            },
            chv_slot,
        });

        InterruptedDrain {
            scheme: scheme.name().to_owned(),
            at: spec.at,
            planned_cycles: planned.0,
            completed,
            issued_blocks: if scheme.is_horus() { issued } else { 0 },
            outcome,
        }
    }

    /// Recovers from the most recent episode, interrupted or not.
    ///
    /// The persistent drain-open register decides. Clear, the episode
    /// completed and this is
    /// [`recover_with`](SecureEpdSystem::recover_with). Set, the same
    /// vault walk salvages the longest verifiable CHV prefix —
    /// verification failures past it are *expected* there (torn or lost
    /// vault writes), not errors — and the recovery always reports
    /// `complete: false`: the register proves dirty lines existed that
    /// were never pushed (or never became durable).
    ///
    /// # Errors
    ///
    /// See [`RecoveryError`]; when salvaging, only metadata failures
    /// while re-installing verified entries surface as errors.
    pub fn recover_after_crash(
        &mut self,
        mode: RecoveryMode,
    ) -> Result<CrashRecovery, RecoveryError> {
        let ep = self.episode.ok_or(RecoveryError::NoEpisode)?;
        let salvage = self.drain_open;
        let report = self.recover_episode(mode, salvage)?;
        Ok(CrashRecovery {
            complete: !salvage,
            verified_prefix: if salvage {
                report.restored_blocks
            } else {
                ep.blocks
            },
            report,
        })
    }
}

/// The crash-matrix classification rule, applied to what recovery said
/// and what the read-back observed.
///
/// * Clean recovery and every read correct → [`CrashVerdict::Recovered`].
/// * Recovery errored, reported itself incomplete, or any read failed
///   verification → [`CrashVerdict::Detected`]: state was lost but the
///   machine (or its read path) said so.
/// * Recovery claimed completeness, nothing failed, and yet a read
///   returned verified-but-wrong data →
///   [`CrashVerdict::SilentCorruption`].
#[must_use]
pub fn classify(rec_failed: bool, complete: bool, stale: u64, failed: u64) -> CrashVerdict {
    if !rec_failed && stale == 0 && failed == 0 {
        CrashVerdict::Recovered
    } else if rec_failed || !complete {
        CrashVerdict::Detected
    } else if stale > 0 {
        CrashVerdict::SilentCorruption
    } else {
        CrashVerdict::Detected
    }
}

/// Runs one complete crash-point experiment on a prepared (dirty)
/// system: drain under `scheme`, cut the power at `spec.at`, recover,
/// then read back every pre-crash dirty line and classify.
///
/// The verdict logic is the contract the crash sweep enforces:
///
/// * every line reads back correctly after a clean recovery →
///   [`CrashVerdict::Recovered`];
/// * recovery errored, reported itself incomplete, or reads failed
///   verification → [`CrashVerdict::Detected`] (loss the machine knows
///   about);
/// * recovery claimed completeness and a read returned verified-but-
///   wrong data → [`CrashVerdict::SilentCorruption`].
///
/// # Panics
///
/// Panics if `scheme` is [`DrainScheme::NonSecure`], whose raw drain
/// path has no verified read-back to classify against.
pub fn run_crash_point(
    sys: &mut SecureEpdSystem,
    scheme: DrainScheme,
    spec: CrashSpec,
    mode: RecoveryMode,
) -> CrashPointReport {
    assert_ne!(
        scheme,
        DrainScheme::NonSecure,
        "crash points need a verified read path"
    );
    let pre = sys.hierarchy().drain_order();
    let dr = sys.crash_and_drain_interrupted(scheme, spec);
    let rec = sys.recover_after_crash(mode);

    let (rec_err, complete, restored) = match &rec {
        Ok(r) => (None, r.complete, r.report.restored_blocks),
        Err(e) => (Some(e.to_string()), false, 0),
    };

    let (mut matched, mut stale, mut failed) = (0u64, 0u64, 0u64);
    for (addr, data) in &pre {
        match sys.read(*addr) {
            Ok(b) if b == *data => matched += 1,
            Ok(_) => stale += 1,
            Err(_) => failed += 1,
        }
    }

    let verdict = classify(rec_err.is_some(), complete, stale, failed);

    let detail = match &rec_err {
        Some(e) => format!("recovery failed: {e}"),
        None => format!(
            "{} recovery, {restored} restored, reads {matched}/{stale}/{failed} ok/stale/failed",
            if complete { "complete" } else { "partial" },
        ),
    };

    CrashPointReport {
        scheme: dr.scheme,
        at: spec.at,
        planned_cycles: dr.planned_cycles,
        completed_drain: dr.completed,
        verdict,
        detail,
        torn_writes: dr.outcome.torn,
        lost_writes: dr.outcome.lost,
        durable_writes: dr.outcome.durable,
        restored_blocks: restored,
        reads_matched: matched,
        reads_stale: stale,
        reads_failed: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn filled(scheme: DrainScheme) -> SecureEpdSystem {
        let mut s = SecureEpdSystem::for_scheme(SystemConfig::small_test(), scheme);
        for i in 0..40u64 {
            s.write(i * 16448, [i as u8 + 1; 64]).expect("ok");
        }
        s
    }

    fn planned_cycles(scheme: DrainScheme) -> u64 {
        filled(scheme).crash_and_drain(scheme).cycles
    }

    #[test]
    fn cut_at_zero_loses_everything_but_is_detected() {
        let mut s = filled(DrainScheme::HorusSlm);
        let dr = s.crash_and_drain_interrupted(DrainScheme::HorusSlm, CrashSpec::at(0));
        assert!(!dr.completed);
        assert_eq!(dr.issued_blocks, 0);
        assert_eq!(dr.outcome.durable, 0);
        assert!(s.drain_open());
        let rec = s.recover_after_crash(RecoveryMode::RefillLlc).expect("ok");
        assert!(!rec.complete);
        assert_eq!(rec.verified_prefix, 0);
        assert!(!s.drain_open(), "recovery closes the register");
    }

    #[test]
    fn cut_after_planned_completion_recovers_fully() {
        let planned = planned_cycles(DrainScheme::HorusSlm);
        let mut s = filled(DrainScheme::HorusSlm);
        let r = run_crash_point(
            &mut s,
            DrainScheme::HorusSlm,
            CrashSpec::at(planned),
            RecoveryMode::RefillLlc,
        );
        assert!(r.completed_drain);
        assert_eq!(r.verdict, CrashVerdict::Recovered);
        assert_eq!(r.reads_stale, 0);
        assert_eq!(r.reads_failed, 0);
        assert_eq!(r.torn_writes, 0);
        assert_eq!(r.lost_writes, 0);
    }

    #[test]
    fn mid_drain_cut_freezes_the_drain_counter_at_issued_pushes() {
        let planned = planned_cycles(DrainScheme::HorusSlm);
        let mut s = filled(DrainScheme::HorusSlm);
        let dc_before = s.drain_counters().dc();
        let dr = s.crash_and_drain_interrupted(DrainScheme::HorusSlm, CrashSpec::at(planned / 2));
        assert!(!dr.completed);
        assert!(dr.issued_blocks > 0, "mid-drain cut catches issued pushes");
        assert_eq!(s.drain_counters().dc(), dc_before + dr.issued_blocks);
        assert_eq!(s.drain_counters().edc(), dr.issued_blocks);
    }

    #[test]
    fn horus_is_never_silently_corrupted_at_sampled_cuts() {
        for scheme in [DrainScheme::HorusSlm, DrainScheme::HorusDlm] {
            let planned = planned_cycles(scheme);
            for at in [
                0,
                planned / 7,
                planned / 3,
                planned / 2,
                planned * 3 / 4,
                planned - 1,
                planned,
            ] {
                let mut s = filled(scheme);
                let r = run_crash_point(&mut s, scheme, CrashSpec::at(at), RecoveryMode::RefillLlc);
                assert_ne!(
                    r.verdict,
                    CrashVerdict::SilentCorruption,
                    "{} at cycle {at}: {}",
                    scheme.name(),
                    r.detail
                );
            }
        }
    }

    #[test]
    fn mid_drain_horus_salvages_a_prefix() {
        let planned = planned_cycles(DrainScheme::HorusSlm);
        let mut s = filled(DrainScheme::HorusSlm);
        let r = run_crash_point(
            &mut s,
            DrainScheme::HorusSlm,
            CrashSpec::at(planned * 3 / 4),
            RecoveryMode::RefillLlc,
        );
        assert_eq!(r.verdict, CrashVerdict::Detected);
        assert!(
            r.restored_blocks > 0,
            "late cut leaves a verifiable prefix: {}",
            r.detail
        );
        assert!(r.reads_matched > 0);
    }

    #[test]
    fn baselines_lose_data_in_their_vulnerability_window() {
        // Every mid-drain cut is a loss for the baselines: Base-LU's
        // shadow flush never committed ("no flush recorded"), and
        // Base-EU's reverted root register no longer covers the writes
        // the drain managed to land. Both fail *loudly* under our
        // conservative register model — the window is data loss the
        // machine reports, with nothing salvaged. At the planned
        // completion cycle the window closes and the drain recovers.
        for scheme in [DrainScheme::BaseLazy, DrainScheme::BaseEager] {
            let planned = planned_cycles(scheme);
            for i in 1..8 {
                let mut s = filled(scheme);
                let r = run_crash_point(
                    &mut s,
                    scheme,
                    CrashSpec::at(planned * i / 8),
                    RecoveryMode::RefillLlc,
                );
                assert_eq!(
                    r.verdict,
                    CrashVerdict::Detected,
                    "{} at {i}/8: {}",
                    scheme.name(),
                    r.detail
                );
                assert_eq!(r.reads_matched, 0, "{} salvages nothing", scheme.name());
            }
            let mut s = filled(scheme);
            let r = run_crash_point(
                &mut s,
                scheme,
                CrashSpec::at(planned),
                RecoveryMode::RefillLlc,
            );
            assert_eq!(r.verdict, CrashVerdict::Recovered, "{}", r.detail);
        }
    }

    #[test]
    fn classifier_covers_all_verdicts() {
        // Recovery clean, reads clean.
        assert_eq!(classify(false, true, 0, 0), CrashVerdict::Recovered);
        // A partial (prefix) recovery with clean reads still counts as
        // recovered only by observation; with a stale read it must NOT
        // go silent, because the machine declared itself incomplete.
        assert_eq!(classify(false, false, 0, 0), CrashVerdict::Recovered);
        assert_eq!(classify(false, false, 3, 0), CrashVerdict::Detected);
        // Loud failures.
        assert_eq!(classify(true, false, 0, 0), CrashVerdict::Detected);
        assert_eq!(classify(false, true, 0, 2), CrashVerdict::Detected);
        // The one path that is silent: recovery claimed completeness,
        // every read verified, and data is wrong anyway.
        assert_eq!(classify(false, true, 1, 0), CrashVerdict::SilentCorruption);
    }

    #[test]
    fn crash_points_are_deterministic() {
        let planned = planned_cycles(DrainScheme::HorusDlm);
        let run = |at: u64| {
            let mut s = filled(DrainScheme::HorusDlm);
            run_crash_point(
                &mut s,
                DrainScheme::HorusDlm,
                CrashSpec::at(at),
                RecoveryMode::RefillLlc,
            )
        };
        for at in [planned / 4, planned / 2, planned - 1] {
            assert_eq!(run(at), run(at), "cut at {at}");
        }
    }

    #[test]
    fn interrupted_episode_does_not_poison_the_next() {
        let planned = planned_cycles(DrainScheme::HorusSlm);
        let mut s = filled(DrainScheme::HorusSlm);
        s.crash_and_drain_interrupted(DrainScheme::HorusSlm, CrashSpec::at(planned / 2));
        s.recover_after_crash(RecoveryMode::RefillLlc).expect("ok");
        // New activity, clean drain, clean recovery.
        for i in 0..16u64 {
            s.write(i * 16448 + 64, [0xAB; 64]).expect("ok");
        }
        let dr2 = s.crash_and_drain(DrainScheme::HorusSlm);
        assert!(dr2.flushed_blocks >= 16);
        s.recover().expect("second episode verifies");
        assert_eq!(s.read(64).expect("ok"), [0xAB; 64]);
    }

    #[test]
    fn stale_model_keeps_pre_images_and_still_detects() {
        let planned = planned_cycles(DrainScheme::HorusSlm);
        let mut s = filled(DrainScheme::HorusSlm);
        let spec = CrashSpec {
            at: planned / 2,
            model: TornWriteModel::Stale,
        };
        let r = run_crash_point(&mut s, DrainScheme::HorusSlm, spec, RecoveryMode::RefillLlc);
        assert_ne!(r.verdict, CrashVerdict::SilentCorruption, "{}", r.detail);
    }

    #[test]
    fn crash_spec_and_verdict_display() {
        assert_eq!(CrashSpec::at(42).model, TornWriteModel::Torn);
        assert_eq!(CrashVerdict::Recovered.to_string(), "recovered");
        assert_eq!(CrashVerdict::Detected.to_string(), "detected");
        assert_eq!(
            CrashVerdict::SilentCorruption.to_string(),
            "SILENT-CORRUPTION"
        );
    }
}
