//! Rate meters.

use crate::time::{Bandwidth, SimTime};

/// Accumulates transferred bytes over a measurement window and reports
/// goodput. Used for every throughput figure.
#[derive(Debug, Clone, Copy)]
pub struct RateMeter {
    bytes: u64,
    ops: u64,
    window_start: SimTime,
    last_event: SimTime,
}

impl RateMeter {
    /// Starts a measurement window at `start`.
    pub fn new(start: SimTime) -> Self {
        RateMeter { bytes: 0, ops: 0, window_start: start, last_event: start }
    }

    /// Records `bytes` of useful payload completing at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
        self.last_event = self.last_event.max(now);
    }

    /// Discards history and restarts the window at `now` (used to cut off
    /// warm-up).
    pub fn reset(&mut self, now: SimTime) {
        self.bytes = 0;
        self.ops = 0;
        self.window_start = now;
        self.last_event = now;
    }

    /// Total payload bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Goodput in bits/second between the window start and the last recorded
    /// event.
    pub fn goodput_bps(&self) -> f64 {
        Bandwidth::from_transfer(self.bytes, self.last_event.since(self.window_start))
    }

    /// Goodput in Gbps.
    pub fn goodput_gbps(&self) -> f64 {
        self.goodput_bps() / 1e9
    }

    /// Operations per second between window start and last event.
    pub fn ops_per_sec(&self) -> f64 {
        let elapsed = self.last_event.since(self.window_start);
        if elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / elapsed.as_secs_f64()
        }
    }

    /// Operations per second in millions (the paper's MIOPS unit).
    pub fn miops(&self) -> f64 {
        self.ops_per_sec() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn rate_meter_computes_goodput() {
        let t0 = SimTime::ZERO;
        let mut m = RateMeter::new(t0);
        m.record(t0 + SimDuration::from_micros(1), 1250);
        m.record(t0 + SimDuration::from_micros(2), 1250);
        // 2500 B over 2 us = 10 Gbps.
        assert!((m.goodput_gbps() - 10.0).abs() < 0.01, "{}", m.goodput_gbps());
        assert_eq!(m.ops(), 2);
        assert!((m.ops_per_sec() - 1e6).abs() < 1.0);
    }

    #[test]
    fn rate_meter_reset_cuts_warmup() {
        let t0 = SimTime::ZERO;
        let mut m = RateMeter::new(t0);
        m.record(t0 + SimDuration::from_secs(1), 1);
        m.reset(t0 + SimDuration::from_secs(1));
        assert_eq!(m.bytes(), 0);
        m.record(t0 + SimDuration::from_secs(2), 125_000_000);
        assert!((m.goodput_gbps() - 1.0).abs() < 0.01);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = RateMeter::new(SimTime::ZERO);
        assert_eq!(m.goodput_bps(), 0.0);
        assert_eq!(m.miops(), 0.0);
    }
}
