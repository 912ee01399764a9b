//! The fault-tolerance mode lowered into run-wide data.
//!
//! [`FtMode`] is the public, paper-shaped vocabulary; the runtime reads
//! it exactly once, in [`lower`], and from then on consults two small
//! values instead of re-matching the mode at every use:
//!
//! * [`Backup`] — when a task ships a state snapshot (never, on a timer,
//!   or when its drift crosses a bound);
//! * [`Recovery`] — what a restored task does once its snapshot is
//!   loaded (nothing, exact upstream replay, a lossy jump to the
//!   frontier, or Storm-style replay from the sources).
//!
//! Active replication is the third axis and stays per task, in the
//! runtime's replica slots and adopted plan.

use crate::config::{EngineConfig, FtMode};
use ppa_core::TaskSet;
use ppa_sim::SimDuration;

/// When a task ships a state backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Backup {
    /// No snapshots: a restore starts from an empty UDF.
    None,
    /// Staggered periodic checkpoints.
    Interval(SimDuration),
    /// A ship whenever the task's drift reaches the error bound.
    Divergence(u64),
}

/// What a restored task does once its snapshot (or empty state) is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Recovery {
    /// Failed tasks stay dead.
    None,
    /// Upstreams re-serve everything past the snapshot; the task replays
    /// it until its progress dominates the pre-failure progress.
    ExactReplay,
    /// The task jumps to the stream frontier without replaying the gap
    /// and records the forfeited fidelity.
    LossyJump,
    /// The task restarts empty `window_batches` before its pre-failure
    /// progress, and the sources replay that window through its
    /// upstream cone.
    SourceReplay { window_batches: u64 },
}

impl Recovery {
    /// The PPA families (exact or lossy snapshot restore): the only ones
    /// that run replication plans and proxy tentative output.
    pub(super) fn is_ppa(self) -> bool {
        matches!(self, Recovery::ExactReplay | Recovery::LossyJump)
    }
}

/// Lowers `config.mode` into the initial active-replication plan over
/// `n_tasks` tasks, the backup cadence and the recovery tail.
pub(super) fn lower(config: &EngineConfig, n_tasks: usize) -> (TaskSet, Backup, Recovery) {
    match &config.mode {
        FtMode::None => (TaskSet::empty(n_tasks), Backup::None, Recovery::None),
        FtMode::SourceReplay { buffer } => (
            TaskSet::empty(n_tasks),
            Backup::None,
            Recovery::SourceReplay {
                window_batches: config.batches_in(*buffer).max(1),
            },
        ),
        FtMode::Ppa {
            plan,
            checkpoint_interval,
        } => (
            plan.clone(),
            checkpoint_interval.map_or(Backup::None, Backup::Interval),
            Recovery::ExactReplay,
        ),
        FtMode::Approximate { error_bound } => (
            TaskSet::empty(n_tasks),
            Backup::Divergence(*error_bound),
            Recovery::LossyJump,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(mode: FtMode) -> (usize, Backup, Recovery) {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let (plan, backup, recovery) = lower(&config, 5);
        (plan.len(), backup, recovery)
    }

    #[test]
    fn every_mode_lowers_to_its_cadence_and_recovery() {
        let i = SimDuration::from_secs(15);
        let cases = [
            (FtMode::None, (0, Backup::None, Recovery::None)),
            (
                FtMode::SourceReplay {
                    buffer: SimDuration::from_secs(30),
                },
                (
                    0,
                    Backup::None,
                    Recovery::SourceReplay { window_batches: 30 },
                ),
            ),
            (
                // A buffer shorter than one batch still replays one.
                FtMode::SourceReplay {
                    buffer: SimDuration::from_millis(10),
                },
                (
                    0,
                    Backup::None,
                    Recovery::SourceReplay { window_batches: 1 },
                ),
            ),
            (
                FtMode::checkpoint(5, i),
                (0, Backup::Interval(i), Recovery::ExactReplay),
            ),
            (FtMode::active(5), (5, Backup::None, Recovery::ExactReplay)),
            (
                FtMode::ppa(TaskSet::from_tasks(5, [ppa_core::TaskIndex(2)]), i),
                (1, Backup::Interval(i), Recovery::ExactReplay),
            ),
            (
                FtMode::approximate(5, i, 0),
                (0, Backup::Interval(i), Recovery::ExactReplay),
            ),
            (
                FtMode::approximate(5, i, 200),
                (0, Backup::Divergence(200), Recovery::LossyJump),
            ),
        ];
        for (mode, want) in cases {
            let label = format!("{mode:?}");
            assert_eq!(lowered(mode), want, "{label}");
        }
    }
}
