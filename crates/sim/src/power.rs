//! Power-failure injection: cutting the simulation at an arbitrary cycle.
//!
//! The drain engines model an outage window: back-up power covers the
//! flush, then the machine dies. A *crash-point* experiment asks the
//! opposite question — what if the back-up power itself fails `C` cycles
//! into the drain? [`PowerFailure`] is the cut: it classifies every
//! issued operation's [`Completion`] against the failure cycle into a
//! [`WriteFate`] (finished, never started, or caught mid-flight).
//!
//! The classification is the timing half of the torn-write model; what a
//! mid-flight NVM write leaves behind is the functional half and lives in
//! `horus-nvm`.

use crate::clock::Cycles;
use crate::schedule::Completion;
use serde::{Deserialize, Serialize};

/// What the power failure did to one issued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// The operation completed strictly before the cut: its effect is
    /// durable.
    Durable,
    /// The operation had not started at the cut: it never happened.
    Lost,
    /// The cut landed inside the operation's `[start, done)` window.
    Torn {
        /// Cycles of progress the operation made before the cut
        /// (`at - start`, in `1..duration`... zero when the cut lands
        /// exactly on `start`).
        elapsed: Cycles,
        /// The operation's full service time (`done - start`).
        duration: Cycles,
    },
}

impl WriteFate {
    /// Whether the fate is [`WriteFate::Torn`].
    #[must_use]
    pub fn is_torn(&self) -> bool {
        matches!(self, WriteFate::Torn { .. })
    }
}

/// A power failure injected at an absolute cycle.
///
/// ```
/// use horus_sim::{Completion, Cycles};
/// use horus_sim::power::{PowerFailure, WriteFate};
/// let cut = PowerFailure::at(Cycles(100));
/// let done = Completion { start: Cycles(0), done: Cycles(100) };
/// let torn = Completion { start: Cycles(50), done: Cycles(150) };
/// let never = Completion { start: Cycles(100), done: Cycles(200) };
/// assert_eq!(cut.fate_of(&done), WriteFate::Durable);
/// assert!(cut.fate_of(&torn).is_torn());
/// assert_eq!(cut.fate_of(&never), WriteFate::Lost);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerFailure {
    at: Cycles,
}

impl PowerFailure {
    /// A power failure striking at cycle `at`.
    #[must_use]
    pub fn at(at: Cycles) -> Self {
        Self { at }
    }

    /// The failure cycle.
    #[must_use]
    pub fn cycle(&self) -> Cycles {
        self.at
    }

    /// Classifies one completion against the cut.
    ///
    /// An operation finishing exactly at the failure cycle counts as
    /// durable (its last cycle of work was `at - 1`); one starting
    /// exactly at the failure cycle never happened.
    #[must_use]
    pub fn fate_of(&self, c: &Completion) -> WriteFate {
        if c.done <= self.at {
            WriteFate::Durable
        } else if c.start >= self.at {
            WriteFate::Lost
        } else {
            WriteFate::Torn {
                elapsed: Cycles(self.at.0 - c.start.0),
                duration: Cycles(c.done.0 - c.start.0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(start: u64, done: u64) -> Completion {
        Completion {
            start: Cycles(start),
            done: Cycles(done),
        }
    }

    #[test]
    fn fate_boundaries_are_exact() {
        let cut = PowerFailure::at(Cycles(1000));
        assert_eq!(cut.fate_of(&c(0, 1000)), WriteFate::Durable);
        assert_eq!(cut.fate_of(&c(0, 999)), WriteFate::Durable);
        assert_eq!(cut.fate_of(&c(1000, 2000)), WriteFate::Lost);
        assert_eq!(cut.fate_of(&c(1001, 2000)), WriteFate::Lost);
        assert_eq!(
            cut.fate_of(&c(999, 1001)),
            WriteFate::Torn {
                elapsed: Cycles(1),
                duration: Cycles(2),
            }
        );
    }

    #[test]
    fn torn_progress_is_proportional() {
        let cut = PowerFailure::at(Cycles(500));
        match cut.fate_of(&c(0, 2000)) {
            WriteFate::Torn { elapsed, duration } => {
                assert_eq!(elapsed, Cycles(500));
                assert_eq!(duration, Cycles(2000));
            }
            other => panic!("expected torn, got {other:?}"),
        }
    }

    #[test]
    fn cut_at_zero_loses_everything() {
        let cut = PowerFailure::at(Cycles::ZERO);
        assert_eq!(cut.fate_of(&c(0, 2000)), WriteFate::Lost);
        assert!(!cut.fate_of(&c(0, 1)).is_torn());
    }
}
