//! The persistent episode state: besides NVM and the DC/eDC registers,
//! what survives an outage on chip and decides what recovery may claim —
//! the one-bit **drain-open register**, the unrecovered **episode**
//! (scheme, blocks, vault slot) and the **CHV rotation counter**. They
//! are private to this module; each event that changes them is one
//! transition here:
//!
//! | state            | event                       | next state              |
//! |------------------|-----------------------------|-------------------------|
//! | any              | drain completed             | `Drained(ep)`           |
//! | any              | Horus drain cut             | `Interrupted(issued)`   |
//! | `Interrupted(_)` | non-Horus drain cut         | `Interrupted(ep)`       |
//! | otherwise        | non-Horus drain cut         | `Drained(ep)`           |
//! | any              | recovery succeeded          | `Idle`                  |
//! | any              | metadata lost               | `Idle`                  |
//!
//! (`clear` is the last two rows' one transition.)
//!
//! A failed recovery is no event: the episode stays pending. Every Horus
//! drain, cut or completed, consumes its vault slot and advances the
//! rotation counter.

use crate::drain::DrainScheme;
use crate::system::Episode;

/// The drain-open register and the episode it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Register {
    /// No unrecovered episode.
    Idle,
    /// An unrecovered episode; the register is closed.
    Drained(Episode),
    /// An unrecovered episode; the register is open.
    Interrupted(Episode),
}

/// The persistent episode state of one system (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpisodeState {
    register: Register,
    /// Horus episodes drained so far, cut or completed.
    horus_drains: u64,
    /// CHV rotation slots the vault region is divided into (≥ 1).
    rotation_slots: u64,
}

impl EpisodeState {
    /// First boot: no episode, register closed, rotation at slot 0.
    pub(crate) fn new(rotation_slots: u64) -> Self {
        EpisodeState {
            register: Register::Idle,
            horus_drains: 0,
            rotation_slots: rotation_slots.max(1),
        }
    }

    /// The most recent unrecovered episode, if any.
    pub(crate) fn episode(&self) -> Option<Episode> {
        match self.register {
            Register::Idle => None,
            Register::Drained(ep) | Register::Interrupted(ep) => Some(ep),
        }
    }

    /// Whether the drain-open register is set.
    pub(crate) fn drain_open(&self) -> bool {
        matches!(self.register, Register::Interrupted(_))
    }

    /// The CHV rotation slot the next Horus drain writes its vault to.
    pub(crate) fn next_chv_slot(&self) -> u64 {
        self.horus_drains % self.rotation_slots
    }

    /// A drain of `blocks` blocks under `scheme` ran to completion: the
    /// register closes, even if an earlier cut episode left it open —
    /// this episode supersedes that one.
    pub(crate) fn drain_completed(&mut self, scheme: DrainScheme, blocks: u64) {
        self.register = Register::Drained(self.record(scheme, blocks));
    }

    /// A drain under `scheme` was cut after issuing `issued` CHV pushes
    /// (Horus) of the `blocks` a complete drain would have streamed. A
    /// Horus episode spans only the issued pushes — recovery must not
    /// look past the frozen DC value — and opens the register. A
    /// baseline has no register: its episode is recorded whole and the
    /// register stays as it was.
    pub(crate) fn drain_interrupted(&mut self, scheme: DrainScheme, blocks: u64, issued: u64) {
        self.register = if scheme.is_horus() {
            Register::Interrupted(self.record(scheme, issued))
        } else if self.drain_open() {
            Register::Interrupted(self.record(scheme, blocks))
        } else {
            Register::Drained(self.record(scheme, blocks))
        };
    }

    /// No episode is left to recover: recovery of the pending one
    /// succeeded, or the volatile state was lost without a drain (the
    /// Osiris disaster) and no vault holds the lost lines.
    pub(crate) fn clear(&mut self) {
        self.register = Register::Idle;
    }

    /// The episode a drain under `scheme` leaves. A Horus drain takes the
    /// next vault slot and advances the rotation counter.
    fn record(&mut self, scheme: DrainScheme, blocks: u64) -> Episode {
        let chv_slot = if scheme.is_horus() {
            let slot = self.next_chv_slot();
            self.horus_drains += 1;
            slot
        } else {
            0
        };
        Episode {
            scheme,
            blocks,
            chv_slot,
        }
    }
}
