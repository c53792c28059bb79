//! Measurement toolkit: latency histograms, rates and time series.

mod histogram;
mod rate;
mod series;

pub use histogram::{Histogram, LatencySummary};
pub use rate::RateMeter;
pub use series::{render_table, Series};
