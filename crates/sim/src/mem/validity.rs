//! The golden run's line-validity timeline: when each cache line turned
//! valid or invalid, ordered against the points where a forked run fires
//! its faults.
//!
//! A transient flip into an invalid cache line changes nothing (§IV.B.4),
//! so a run whose every flip lands in a line invalid at the moment it is
//! made stays the golden run.  `Gpu::launch` fires due faults at the top
//! of a cycle-loop iteration, after any checkpoint capture and before the
//! cores issue: a fault planned at cycle `f` fires at the first such top
//! at cycle `f` or later.  Validity changes only inside the cores' issue
//! (a fill into an invalid way, an evict-on-write invalidation) and in the
//! L1 flush ending each launch, so a change made in the iteration whose
//! top is at cycle `t`, or in the flush after a launch's last top `t`,
//! follows the fire point of every fault planned at or before `t` and
//! precedes that of every later one.  The recording pass therefore stamps
//! each change with `t + 1`, the first fault cycle it precedes (0 before
//! the first top), and the timeline answers "is this line valid where a
//! fault planned at `f` fires?" by counting the line's changes stamped at
//! or before `f`.

use crate::fault::Structure;

/// One cache line as one sortable key: the cache structure, its unit (the
/// SM of an L1, the bank of the L2) and the line's line-major index there.
fn site(structure: Structure, unit: usize, line: u32) -> u64 {
    (structure as u64) << 48 | (unit as u64) << 32 | u64::from(line)
}

/// The log of validity changes the recording device's memory system
/// keeps, off everywhere else.
///
/// It is an instrument of the golden recording pass, not machine state: a
/// clone — a captured snapshot — and a `clone_from` — a fork's restore —
/// are off, so snapshots, forks and injection runs neither hold nor
/// update a log, and a device that does not record pays one untaken
/// branch per validity change.
#[derive(Debug, Default)]
pub(crate) struct ValidityLog {
    /// `(site, stamp)` of every change, in the order made; `None` when off.
    changes: Option<Vec<(u64, u64)>>,
    /// The stamp of a change made now: the cycle of the latest loop top
    /// plus one, 0 before the first.
    stamp: u64,
}

impl Clone for ValidityLog {
    fn clone(&self) -> Self {
        ValidityLog::default()
    }

    fn clone_from(&mut self, _: &Self) {
        *self = ValidityLog::default();
    }
}

impl ValidityLog {
    /// A log switched on, with no change yet and stamp 0.
    pub(super) fn on() -> Self {
        ValidityLog {
            changes: Some(Vec::new()),
            stamp: 0,
        }
    }

    /// Whether the log is on.
    pub(super) fn is_on(&self) -> bool {
        self.changes.is_some()
    }

    /// Logs that line `line` of cache `unit` of `structure` turned valid
    /// or invalid (a no-op when off).
    pub(super) fn note(&mut self, structure: Structure, unit: usize, line: u32) {
        if let Some(changes) = &mut self.changes {
            changes.push((site(structure, unit, line), self.stamp));
        }
    }

    /// Marks a loop top at `cycle`: changes from here on follow the fire
    /// point of every fault planned at or before it.
    pub(super) fn top(&mut self, cycle: u64) {
        self.stamp = cycle + 1;
    }

    /// Switches the log off and orders its changes into a [`Timeline`]
    /// (empty if the log was off).
    pub(super) fn take(&mut self) -> Timeline {
        let ValidityLog { changes, stamp } = std::mem::take(self);
        let mut changes = changes.unwrap_or_default();
        // By site, then stamp: equal entries are interchangeable, and
        // only the count of a line's changes up to a cycle is ever read.
        changes.sort_unstable();
        changes.shrink_to_fit();
        Timeline {
            changes,
            end: stamp,
        }
    }
}

/// Every validity change of every cache line over a recorded golden run,
/// each line starting invalid (see the module docs).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Timeline {
    /// `(site, stamp)` of every change, in ascending order.
    changes: Vec<(u64, u64)>,
    /// One past the cycle of the last loop top: a fault planned at this
    /// cycle or later never fires.
    end: u64,
}

impl Timeline {
    /// Whether a fault planned at `cycle` fires at all in a run that
    /// follows the golden run.
    pub(crate) fn fires(&self, cycle: u64) -> bool {
        cycle < self.end
    }

    /// Whether line `line` of cache `unit` of `structure` is invalid where
    /// a fault planned at `cycle` fires: it changed validity an even
    /// number of times before.  O(log n) in the changes recorded.
    pub(crate) fn invalid_at(
        &self,
        structure: Structure,
        unit: usize,
        line: u32,
        cycle: u64,
    ) -> bool {
        let s = site(structure, unit, line);
        let first = self.changes.partition_point(|&(x, _)| x < s);
        let before = self.changes[first..].partition_point(|&(x, at)| x == s && at <= cycle);
        before % 2 == 0
    }

    /// Heap bytes held.
    pub(crate) fn held_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_or_a_restore_of_a_log_is_off() {
        let mut on = ValidityLog::on();
        on.note(Structure::L2, 0, 3);
        assert!(!on.clone().is_on());
        let mut restored = ValidityLog::on();
        restored.clone_from(&on);
        assert!(!restored.is_on());
    }

    #[test]
    fn a_line_is_valid_after_an_odd_number_of_changes() {
        let mut log = ValidityLog::on();
        log.note(Structure::L1Tex, 1, 7);
        log.top(5);
        log.note(Structure::L1Tex, 1, 7);
        log.note(Structure::L1Tex, 0, 7);
        log.top(9);
        let t = log.take();
        assert!(!log.is_on());
        let invalid = |unit, c| t.invalid_at(Structure::L1Tex, unit, 7, c);
        // Valid before any top, invalid from the iteration of top 5 on.
        assert_eq!((0..=9).filter(|&c| invalid(1, c)).count(), 4);
        assert!(!invalid(1, 5) && invalid(1, 6));
        assert!(invalid(0, 5) && !invalid(0, 6));
        assert!(
            t.invalid_at(Structure::L1Data, 1, 7, 0),
            "another structure"
        );
        assert!(t.fires(9) && !t.fires(10));
    }
}
