//! Figure 19: Clio-MV object read/write latency vs number of CNs.
//!
//! 16 B objects accessed 50/50 read/write from 1–4 CNs under uniform and
//! Zipf object popularity. The array-based version design makes reads of
//! any version cost the same, and latency stays flat as CNs are added.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use clio_apps::mv::{encode_append, encode_read, ClioMv, MvOpcode};
use clio_bench::setup::bench_cluster;
use clio_bench::FigureReport;
use clio_proto::Pid;
use clio_sim::dist::Zipf;
use clio_sim::stats::Series;
use clio_sim::{SimDuration, SimRng};

const OPS_PER_CN: u64 = 400;
const OBJECTS: u64 = 48;

/// Measured latency totals of one CN's client.
#[derive(Default)]
struct MvStats {
    read_total: SimDuration,
    reads: u64,
    write_total: SimDuration,
    writes: u64,
}

fn run(cns: usize, zipf: bool) -> (f64, f64) {
    let mut cluster = bench_cluster(cns, 1, 190 + cns as u64);
    cluster.install_offload(0, 3, Pid(9200), Box::new(ClioMv::new(4096, 16)));
    let mn = cluster.mn_macs()[0];
    let stats: Vec<Rc<RefCell<MvStats>>> = (0..cns).map(|_| Rc::default()).collect();
    for (cn, out) in stats.iter().enumerate() {
        let out = out.clone();
        cluster.spawn(cn, Pid(400 + cn as u64), move |h| async move {
            let call = |opcode: MvOpcode, arg: Bytes| h.roffload(mn, 3, opcode as u16, arg);
            if cn == 0 {
                // Object ids are deterministic (0..OBJECTS): one creator
                // assigns them sequentially, then seeds every object.
                for _ in 0..OBJECTS {
                    let c = call(MvOpcode::Create, Bytes::new()).await;
                    assert!(c.result.is_ok(), "create failed: {:?}", c.result);
                }
                for id in 0..OBJECTS {
                    let c = call(MvOpcode::Append, encode_append(id, &[1; 16])).await;
                    assert!(c.result.is_ok(), "seed failed: {:?}", c.result);
                }
            } else {
                // Let the creator finish setup first.
                h.sleep(SimDuration::from_millis(20)).await;
            }
            let zipf = zipf.then(|| Zipf::new(OBJECTS as usize, 0.99));
            let mut rng = SimRng::new(60 + cn as u64);
            for measured in 0..OPS_PER_CN {
                let id = match &zipf {
                    Some(z) => z.sample(&mut rng) as u64,
                    None => rng.range_u64(0, OBJECTS),
                };
                let issued = h.now();
                let read = rng.chance(0.5);
                let c = if read {
                    call(MvOpcode::Read, encode_read(id, u64::MAX)).await
                } else {
                    call(MvOpcode::Append, encode_append(id, &[measured as u8; 16])).await
                };
                if c.result.is_ok() {
                    let lat = h.now().since(issued);
                    let mut s = out.borrow_mut();
                    if read {
                        s.read_total += lat;
                        s.reads += 1;
                    } else {
                        s.write_total += lat;
                        s.writes += 1;
                    }
                }
            }
        });
    }
    cluster.start();
    cluster.run_until_idle();
    let (mut rt, mut rn, mut wt, mut wn) = (0f64, 0u64, 0f64, 0u64);
    for (cn, s) in stats.iter().enumerate() {
        let s = s.borrow();
        assert!(s.reads + s.writes > 0, "cn {cn} measured nothing");
        rt += s.read_total.as_nanos() as f64;
        rn += s.reads;
        wt += s.write_total.as_nanos() as f64;
        wn += s.writes;
    }
    (rt / rn.max(1) as f64 / 1000.0, wt / wn.max(1) as f64 / 1000.0)
}

fn main() {
    let mut report =
        FigureReport::new("fig19", "Clio-MV object read/write latency (us) vs CNs", "CNs");
    let mut ru = Series::new("Read-Uniform");
    let mut wu = Series::new("Write-Uniform");
    let mut rz = Series::new("Read-Zipf");
    let mut wz = Series::new("Write-Zipf");
    for cns in 1..=4usize {
        let (r, w) = run(cns, false);
        ru.push(cns as f64, r);
        wu.push(cns as f64, w);
        let (r, w) = run(cns, true);
        rz.push(cns as f64, r);
        wz.push(cns as f64, w);
    }
    report.push_series(ru);
    report.push_series(wu);
    report.push_series(rz);
    report.push_series(wz);
    report.note("paper: reads ~= writes, any version costs the same, flat across CNs");
    report.print();
}
