//! Figure 11: Write latency vs request size across systems.
//!
//! Same systems as Figure 10. The paper's standout: Clover needs ≥ 2 RTTs
//! per write (no MN processing means consistency must be built client-side).

#[path = "fig10_read_latency.rs"]
#[allow(dead_code)]
mod fig10;

use clio_baselines::rdma::Verb;
use clio_bench::load::AccessMix;
use clio_bench::FigureReport;
use clio_sim::stats::Series;

const SIZES: &[u32] = &[4, 16, 64, 256, 1024, 4096];

fn main() {
    let mut report =
        FigureReport::new("fig11", "Write latency (us) vs request size", "request bytes");
    let mut clio = Series::new("Clio");
    let mut clover = Series::new("Clover");
    let mut rdma = Series::new("RDMA");
    let mut herd_bf = Series::new("HERD-BF");
    let mut herd = Series::new("HERD");
    let mut lego = Series::new("LegoOS");
    for &sz in SIZES {
        clio.push(sz as f64, fig10::clio_latency(sz, AccessMix::Writes));
        clover.push(sz as f64, fig10::clover_latency(sz, true));
        rdma.push(sz as f64, fig10::rdma_latency(sz, Verb::Write));
        herd_bf.push(sz as f64, fig10::herd_latency(sz, true));
        herd.push(sz as f64, fig10::herd_latency(sz, false));
        lego.push(sz as f64, fig10::legoos_latency(sz));
    }
    report.push_series(clio);
    report.push_series(clover);
    report.push_series(rdma);
    report.push_series(herd_bf);
    report.push_series(herd);
    report.push_series(lego);
    report.note("paper: Clover worst among non-BF systems — >= 2 RTTs per write");
    report.print();
}
