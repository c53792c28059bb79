//! The load-adaptive doorbell hold shared by both ends of a link: the CN's
//! send doorbell (requests into batch frames) and the MN's egress doorbell
//! (responses into batch frames) size their holds the same way.
//!
//! A doorbell tracks the gap between the events it coalesces (submissions
//! on the CN, response completions on the MN) and holds only when they
//! come faster than its latency budget: then waiting for the free slots of
//! the frame to fill pays, otherwise it delays a lone packet for nothing.
//! The budget is derived from a measured round trip (a quarter of it,
//! capped) and is zero before the first sample, so neither end holds on a
//! path it has not measured.

use clio_sim::{SimDuration, SimTime};

/// One α = 1/4 step of an exponentially weighted moving average.
pub fn ewma_step(avg: &mut f64, sample: f64) {
    *avg = 0.75 * *avg + 0.25 * sample;
}

/// A doorbell's latency budget from a measured round trip: a quarter of
/// `rtt`, capped at `cap`; zero without a sample.
pub fn budget(rtt: Option<SimDuration>, cap: SimDuration) -> SimDuration {
    rtt.map_or(SimDuration::ZERO, |rtt| (rtt / 4).min(cap))
}

/// The event history of one doorbell: when its last event happened and an
/// EWMA of the gaps between events, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct GapEwma {
    last: SimTime,
    gap_ns: Option<f64>,
}

impl GapEwma {
    /// A history whose first event happened at `at`.
    pub fn new(at: SimTime) -> Self {
        GapEwma { last: at, gap_ns: None }
    }

    /// When the last event happened.
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// Records an event at `at`. An event noted out of order (responses
    /// may complete out of order) counts as a zero gap.
    pub fn note(&mut self, at: SimTime) {
        let gap = at.since(self.last).as_nanos() as f64;
        self.last = at;
        ewma_step(self.gap_ns.get_or_insert(gap), gap);
    }

    /// How long the doorbell may hold with `free_slots` slots left in the
    /// frame: `min(gap × free_slots, budget)` when `0 < gap < budget`, and
    /// zero otherwise.
    pub fn hold(&self, free_slots: usize, budget: SimDuration) -> SimDuration {
        match self.gap_ns {
            Some(gap) if gap > 0.0 && gap < budget.as_nanos() as f64 => {
                SimDuration::from_nanos((gap * free_slots as f64) as u64).min(budget)
            }
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_engages_only_below_the_budget() {
        let us = SimDuration::from_micros;
        let mut g = GapEwma::new(SimTime::ZERO);
        assert_eq!(g.hold(8, us(2)), SimDuration::ZERO, "no gap sample yet");
        g.note(SimTime::from_nanos(100));
        assert_eq!(g.hold(8, us(2)), SimDuration::from_nanos(800), "gap × free slots");
        assert_eq!(g.hold(30, us(2)), us(2), "capped by the budget");
        assert_eq!(g.hold(0, us(2)), SimDuration::ZERO, "full frame");
        assert_eq!(g.hold(8, SimDuration::ZERO), SimDuration::ZERO, "no budget");
        g.note(SimTime::from_nanos(50));
        assert_eq!(g.last(), SimTime::from_nanos(50), "an out-of-order event still moves last");
        g.note(SimTime::from_nanos(100_000));
        assert_eq!(g.hold(8, us(2)), SimDuration::ZERO, "events sparser than the budget");
        assert_eq!(budget(None, us(4)), SimDuration::ZERO);
        assert_eq!(budget(Some(us(8)), us(4)), us(2));
        assert_eq!(budget(Some(us(80)), us(4)), us(4));
    }
}
