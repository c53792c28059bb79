//! Full-system integration: clusters with event-driven drivers, async
//! client tasks, cross-CN sharing, multi-MN placement and
//! pressure-triggered migration.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::CompletionValue;
use clio_core::{AppCompletion, ClientApi, ClientDriver, Cluster, ClusterConfig, ExecDriver};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

/// Driver that allocates, writes a pattern, reads it back, and checks it.
struct WriteReadClient {
    va: u64,
    phase: u8,
    pattern: Vec<u8>,
    verified: bool,
    read_latency: Option<SimDuration>,
}

impl WriteReadClient {
    fn new(pattern: Vec<u8>) -> Self {
        WriteReadClient { va: 0, phase: 0, pattern, verified: false, read_latency: None }
    }
}

impl ClientDriver for WriteReadClient {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.alloc(self.pattern.len() as u64, Perm::RW);
    }

    fn on_completion(&mut self, api: &mut ClientApi<'_, '_>, c: AppCompletion) {
        match self.phase {
            0 => {
                self.va = c.va();
                self.phase = 1;
                api.write(self.va, Bytes::from(self.pattern.clone()));
            }
            1 => {
                assert!(c.result.is_ok(), "write failed: {:?}", c.result);
                self.phase = 2;
                api.read(self.va, self.pattern.len() as u32);
            }
            2 => {
                assert_eq!(&c.data()[..], &self.pattern[..]);
                self.read_latency = Some(c.latency());
                self.verified = true;
                self.phase = 3;
            }
            _ => {}
        }
    }
}

#[test]
fn driver_roundtrip_on_small_cluster() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.add_driver(0, Pid(1), Box::new(WriteReadClient::new(vec![7u8; 3000])));
    cluster.start();
    cluster.run_until_idle();
    let d: &WriteReadClient = cluster.cn(0).driver(0);
    assert!(d.verified, "client never verified its data");
    let lat = d.read_latency.expect("read measured");
    assert!(lat < SimDuration::from_micros(20), "3 KB read latency {lat}");
}

#[test]
fn many_processes_on_many_cns_and_mns() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 3;
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    for i in 0..12u64 {
        let cn = (i % 3) as usize;
        cluster.add_driver(cn, Pid(100 + i), Box::new(WriteReadClient::new(vec![i as u8; 512])));
    }
    cluster.start();
    cluster.run_until_idle();
    for i in 0..12u64 {
        let cn = (i % 3) as usize;
        let idx = (i / 3) as usize;
        let d: &WriteReadClient = cluster.cn(cn).driver(idx);
        assert!(d.verified, "client {i} failed");
    }
    // Placement used both MNs (the controller balances by free memory).
    let used0 = cluster.mn(0).slow_path().palloc().used_pages();
    let used1 = cluster.mn(1).slow_path().palloc().used_pages();
    assert!(used0 > 0 && used1 > 0, "placement ignored one MN: {used0}/{used1}");
}

/// Starts `cluster`, runs it until idle, and asserts that every task of
/// the executors at `drivers` (driver indices on CN 0) ran to completion.
fn run_to_completion(cluster: &mut Cluster, drivers: &[usize]) {
    cluster.start();
    cluster.run_until_idle();
    for &d in drivers {
        assert_eq!(cluster.cn(0).driver::<ExecDriver>(d).live_tasks(), 0, "driver {d} hung");
    }
}

#[test]
fn figure1_style() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    // The paper's Figure 1, nearly verbatim.
    let d = cluster.spawn(0, Pid(42), |h| async move {
        let remote_addr = h.ralloc(4096, Perm::RW).await.va();
        let lock = h.ralloc(4096, Perm::RW).await.va();

        h.rlock(lock).await.result.expect("rlock");
        let writes = vec![
            (remote_addr, Bytes::from_static(b"hello ")),
            (remote_addr + 6, Bytes::from_static(b"world")),
        ];
        assert!(h.rwrite_v(writes).await.iter().all(|c| c.result.is_ok()), "async writes");
        h.runlock(lock).await.result.expect("runlock");

        let back = h.rread(remote_addr, 11).await;
        assert_eq!(&back.data()[..], b"hello world");

        h.sleep(SimDuration::from_micros(50)).await;
        h.rfree(remote_addr, 4096).await.result.expect("rfree");
    });
    run_to_completion(&mut cluster, &[d]);
}

#[test]
fn scatter_gather() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let d = cluster.spawn(0, Pid(42), |h| async move {
        let va = h.ralloc(16 << 10, Perm::RW).await.va();
        // Scatter/gather write: one explicit vector, one submission.
        let writes = (0..16u64).map(|i| (va + i * 1024, Bytes::from(vec![i as u8 + 1; 64])));
        let done = h.rwrite_v(writes.collect()).await;
        assert_eq!(done.len(), 16);
        assert!(done.iter().all(|c| c.result.is_ok()), "rwrite_v");
        // Scatter/gather read returns results in request order.
        let reads: Vec<(u64, u32)> = (0..16u64).map(|i| (va + i * 1024, 64)).collect();
        let data = h.rread_v(reads.clone()).await;
        assert_eq!(data.len(), 16);
        for (i, c) in data.iter().enumerate() {
            assert!(c.data().iter().all(|&b| b == i as u8 + 1), "entry {i} wrong data");
        }
        // Single-entry and empty vectors degenerate cleanly.
        assert_eq!(h.rread_v(reads[..1].to_vec()).await.len(), 1);
        assert!(h.rread_v(Vec::new()).await.is_empty());
        assert!(h.rwrite_v(Vec::new()).await.is_empty());
    });
    run_to_completion(&mut cluster, &[d]);
    // The vector reached the wire coalesced: the CN transport shipped
    // multi-request frames.
    assert!(cluster.cn(0).clib().batched_ops() >= 16, "vector ops did not batch");
}

#[test]
fn two_threads_share_a_lock() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    // Two threads of process 7: each is its own driver, so CLib orders
    // their ops independently. Thread 1 allocates a counter + lock and
    // publishes the addresses through a shared cell.
    let shared: Rc<Cell<Option<(u64, u64)>>> = Rc::default();
    let publish = shared.clone();
    let t1 = cluster.spawn(0, Pid(7), |h| async move {
        let counter = h.ralloc(4096, Perm::RW).await.va();
        let lock = counter + 8;
        publish.set(Some((counter, lock)));
        for _ in 0..5 {
            h.rlock(lock).await.result.expect("lock");
            h.rfaa(counter, 1).await.result.expect("faa");
            h.runlock(lock).await.result.expect("unlock");
        }
    });
    let t2 = cluster.spawn(0, Pid(7), |h| async move {
        let (counter, lock) = loop {
            match shared.get() {
                Some(addrs) => break addrs,
                None => h.sleep(SimDuration::from_micros(1)).await,
            }
        };
        for _ in 0..5 {
            h.rlock(lock).await.result.expect("lock");
            h.rfaa(counter, 1).await.result.expect("faa");
            h.runlock(lock).await.result.expect("unlock");
        }
        // The other thread may still be mid-loop, so only our own 5
        // increments are guaranteed to be visible.
        let v = match h.rfaa(counter, 0).await.result {
            Ok(CompletionValue::Old(v)) => v,
            other => panic!("faa returned {other:?}"),
        };
        assert!(v >= 5, "counter lost updates: {v}");
    });
    run_to_completion(&mut cluster, &[t1, t2]);
}

#[test]
fn pressure_triggers_transparent_migration() {
    // Tiny MNs: the first fills up and must shed a region to the second.
    let mut cfg = ClusterConfig::test_small();
    cfg.mns = 2;
    cfg.board.hw.phys_mem_bytes = 16 * cfg.board.hw.page_size; // 16 pages
    cfg.board.hw.pt_slack = 8;
    cfg.board.hw.async_buffer_pages = 2;
    cfg.pressure_threshold = 0.5;
    let mut cluster = Cluster::build(&cfg);
    let d = cluster.spawn(0, Pid(9), |h| async move {
        // Two ranges; touching the second drives utilization over 50%,
        // so the controller migrates the first (coldest) range away.
        let a = h.ralloc(4 * 4096, Perm::RW).await.va();
        let b = h.ralloc(8 * 4096, Perm::RW).await.va();
        h.rwrite(a, Bytes::from_static(b"range-a data")).await.result.expect("write a");
        for i in 0..8u64 {
            h.rwrite(b + i * 4096, Bytes::from(vec![i as u8; 64])).await.result.expect("write b");
        }
        // Give the migration time to run, then access the moved range:
        // the runtime re-routes transparently after the Moved refusal.
        h.sleep(SimDuration::from_millis(50)).await;
        let back = h.rread(a, 12).await;
        assert_eq!(&back.data()[..], b"range-a data");
    });
    run_to_completion(&mut cluster, &[d]);
    let (started, completed) = cluster.controller().migration_stats();
    assert!(started >= 1, "no migration started");
    assert_eq!(started, completed, "migrations must complete");
}

/// A closed-loop driver issuing `n` sequential reads (for scalability
/// sanity: many drivers at once).
struct ClosedLoop {
    va: u64,
    remaining: u32,
    done: bool,
}

impl ClientDriver for ClosedLoop {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.alloc(4096, Perm::RW);
    }
    fn on_completion(&mut self, api: &mut ClientApi<'_, '_>, c: AppCompletion) {
        if self.va == 0 {
            self.va = c.va();
            api.write(self.va, Bytes::from_static(&[1u8; 64]));
            return;
        }
        assert!(c.result.is_ok());
        if self.remaining == 0 {
            self.done = true;
            return;
        }
        self.remaining -= 1;
        api.read(self.va, 64);
    }
}

#[test]
fn hundred_concurrent_processes() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 2;
    let mut cluster = Cluster::build(&cfg);
    for i in 0..100u64 {
        cluster.add_driver(
            (i % 2) as usize,
            Pid(1000 + i),
            Box::new(ClosedLoop { va: 0, remaining: 20, done: false }),
        );
    }
    cluster.start();
    cluster.run_until_idle();
    for i in 0..100u64 {
        let d: &ClosedLoop = cluster.cn((i % 2) as usize).driver((i / 2) as usize);
        assert!(d.done, "process {i} did not finish");
    }
}

/// With two MNs, the order in which `Transport::kick_all` re-pumps the
/// per-board queues decides the run's digest, so it must not depend on a
/// `HashMap`'s per-instance hash seed. Two concurrent vectors of 64 KiB
/// reads, one per board, overflow the CN's incast window (shared by both
/// boards), so every completion kicks two non-empty queues that race for
/// the bytes it freed; ten builds in one process must agree.
#[test]
fn two_mn_concurrent_traffic_is_digest_stable() {
    const READ: u64 = 64 << 10;
    let run = || {
        let mut cfg = ClusterConfig::test_small();
        cfg.mns = 2;
        let span = cfg.mn_slice_span;
        let mut cluster = Cluster::build(&cfg);
        let d = cluster.spawn(0, Pid(3), move |h| async move {
            let a = h.ralloc(16 * READ, Perm::RW).await.va();
            let b = h.ralloc(16 * READ, Perm::RW).await.va();
            assert_ne!(a / span, b / span, "ranges must land on different MNs");
            for base in [a, b] {
                let h2 = h.clone();
                h.spawn(async move {
                    let reads = (0..16).map(|i| (base + i * READ, READ as u32)).collect();
                    let done = h2.rread_v(reads).await;
                    assert!(done.iter().all(|c| c.data().len() == READ as usize));
                });
            }
        });
        run_to_completion(&mut cluster, &[d]);
        (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now())
    };
    let first = run();
    for _ in 0..9 {
        assert_eq!(run(), first, "2-MN schedule must not depend on hash seeds");
    }
}

#[test]
fn deterministic_across_runs() {
    let digest = |seed: u64| {
        let mut cfg = ClusterConfig::test_small();
        cfg.seed = seed;
        let mut cluster = Cluster::build(&cfg);
        for i in 0..10u64 {
            cluster.add_driver(
                0,
                Pid(i),
                Box::new(ClosedLoop { va: 0, remaining: 5, done: false }),
            );
        }
        cluster.start();
        cluster.run_until_idle();
        (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now())
    };
    assert_eq!(digest(1), digest(1), "same seed must replay identically");
}
