//! View timers: failure timeouts with exponential backoff, plus the
//! optional rotating-leader mode.

use crate::config::Config;
use marlin_types::View;

/// Exponential backoff cap: a view's timeout doubles per consecutive
/// failed view up to `base << MAX_BACKOFF_EXP`.
const MAX_BACKOFF_EXP: u32 = 6;

/// Computes view-timer delays.
///
/// * In the default mode, a view's timer is the base timeout doubled for
///   each consecutive view that failed to make progress (capped), the
///   standard partial-synchrony pacemaker.
/// * In rotating-leader mode (the paper's Section VI failure
///   experiment), leaders hand over on a fixed interval; the timer is
///   the rotation interval, and backoff still applies while no progress
///   is made so crashed leaders are skipped increasingly fast.
#[derive(Clone, Debug)]
pub struct Pacemaker {
    base_ns: u64,
    rotation_ns: Option<u64>,
    /// The highest view in which progress (a commit) was observed.
    last_progress_view: View,
}

impl Pacemaker {
    /// Creates a pacemaker from the replica configuration.
    pub fn new(config: &Config) -> Self {
        Pacemaker {
            base_ns: config.base_timeout_ns,
            rotation_ns: config.rotation_interval_ns,
            last_progress_view: View::GENESIS,
        }
    }

    /// Records that `view` made progress (committed something); resets
    /// the backoff for subsequent views.
    pub fn record_progress(&mut self, view: View) {
        if view > self.last_progress_view {
            self.last_progress_view = view;
        }
    }

    /// The timer delay for `view`.
    pub fn delay_for(&self, view: View) -> u64 {
        let failed_views = view.gap(self.last_progress_view).saturating_sub(1);
        let exp = (failed_views as u32).min(MAX_BACKOFF_EXP);
        let backoff = self.base_ns << exp;
        match self.rotation_ns {
            // Rotation fires at the fixed interval while progressing, but
            // backs off like the failure timer when views are failing.
            Some(rot) if failed_views == 0 => rot,
            _ => backoff,
        }
    }

    /// Whether rotating-leader mode is active.
    pub fn rotating(&self) -> bool {
        self.rotation_ns.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn pm(rotation: Option<u64>) -> Pacemaker {
        let mut cfg = Config::for_test(4, 1);
        cfg.base_timeout_ns = 100;
        cfg.rotation_interval_ns = rotation;
        Pacemaker::new(&cfg)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut p = pm(None);
        p.record_progress(View(5));
        assert_eq!(p.delay_for(View(6)), 100);
        assert_eq!(p.delay_for(View(7)), 200);
        assert_eq!(p.delay_for(View(8)), 400);
        assert_eq!(p.delay_for(View(9)), 800);
        // Capped at base << MAX_BACKOFF_EXP.
        assert_eq!(p.delay_for(View(11)), 100 << 5);
        assert_eq!(p.delay_for(View(12)), 100 << MAX_BACKOFF_EXP);
        assert_eq!(p.delay_for(View(20)), 100 << MAX_BACKOFF_EXP);
    }

    #[test]
    fn progress_resets_backoff() {
        let mut p = pm(None);
        p.record_progress(View(2));
        assert_eq!(p.delay_for(View(5)), 400);
        p.record_progress(View(5));
        assert_eq!(p.delay_for(View(6)), 100);
        // Progress never regresses.
        p.record_progress(View(3));
        assert_eq!(p.delay_for(View(6)), 100);
    }

    #[test]
    fn rotation_mode_uses_interval_when_progressing() {
        let mut p = pm(Some(1_000));
        assert!(p.rotating());
        p.record_progress(View(4));
        assert_eq!(p.delay_for(View(5)), 1_000);
        // A failing view falls back to the failure timer.
        assert_eq!(p.delay_for(View(6)), 200);
    }
}
