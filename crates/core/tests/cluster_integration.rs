//! Full-system integration: clusters of async client tasks, cross-CN
//! sharing, multi-MN placement and pressure-triggered migration.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use clio_cn::CompletionValue;
use clio_core::{Cluster, ClusterConfig, ExecDriver};
use clio_net::FaultInjector;
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimTime};

/// Spawns a client that allocates, writes `pattern`, reads it back and
/// checks it. The returned cell holds the read's latency once verified.
fn spawn_write_read(
    cluster: &mut Cluster,
    cn: usize,
    pid: Pid,
    pattern: Vec<u8>,
) -> Rc<Cell<Option<SimDuration>>> {
    let verified = Rc::new(Cell::new(None));
    let out = verified.clone();
    cluster.spawn(cn, pid, move |h| async move {
        let va = h.ralloc(pattern.len() as u64, Perm::RW).await.va();
        let c = h.rwrite(va, Bytes::from(pattern.clone())).await;
        assert!(c.result.is_ok(), "write failed: {:?}", c.result);
        let c = h.rread(va, pattern.len() as u32).await;
        assert_eq!(&c.data()[..], &pattern[..]);
        out.set(Some(c.latency()));
    });
    verified
}

#[test]
fn write_read_roundtrip_on_small_cluster() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let verified = spawn_write_read(&mut cluster, 0, Pid(1), vec![7u8; 3000]);
    cluster.start();
    cluster.run_until_idle();
    assert!(verified.get().is_some(), "client never verified its data");
    let lat = verified.get().expect("read measured");
    assert!(lat < SimDuration::from_micros(20), "3 KB read latency {lat}");
}

#[test]
fn many_processes_on_many_cns_and_mns() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 3;
    cfg.mns = 2;
    let mut cluster = Cluster::build(&cfg);
    let verified: Vec<_> = (0..12u64)
        .map(|i| spawn_write_read(&mut cluster, (i % 3) as usize, Pid(100 + i), vec![i as u8; 512]))
        .collect();
    cluster.start();
    cluster.run_until_idle();
    for (i, v) in verified.iter().enumerate() {
        assert!(v.get().is_some(), "client {i} failed");
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

/// Spawns a closed-loop client issuing `n` sequential reads after a seed
/// write (for scalability sanity: many processes at once). The returned
/// flag is set once the last read completed.
fn spawn_closed_loop(cluster: &mut Cluster, cn: usize, pid: Pid, n: u32) -> Rc<Cell<bool>> {
    let done = Rc::new(Cell::new(false));
    let flag = done.clone();
    cluster.spawn(cn, pid, move |h| async move {
        let va = h.ralloc(4096, Perm::RW).await.va();
        assert!(h.rwrite(va, Bytes::from_static(&[1u8; 64])).await.result.is_ok());
        for _ in 0..n {
            assert!(h.rread(va, 64).await.result.is_ok());
        }
        flag.set(true);
    });
    done
}

#[test]
fn hundred_concurrent_processes() {
    let mut cfg = ClusterConfig::test_small();
    cfg.cns = 2;
    let mut cluster = Cluster::build(&cfg);
    let done: Vec<_> = (0..100u64)
        .map(|i| spawn_closed_loop(&mut cluster, (i % 2) as usize, Pid(1000 + i), 20))
        .collect();
    cluster.start();
    cluster.run_until_idle();
    for (i, d) in done.iter().enumerate() {
        assert!(d.get(), "process {i} did not finish");
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
            spawn_closed_loop(&mut cluster, 0, Pid(i), 5);
        }
        cluster.start();
        cluster.run_until_idle();
        (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now())
    };
    assert_eq!(digest(1), digest(1), "same seed must replay identically");
}

/// Regression: a small op must not time out behind its own CN's bulk
/// writes. Three processes keep 64 KiB writes in flight to one MN, so a
/// 64 B read issued mid-stream (150 µs) queues at the switch behind
/// ~150 µs of this CN's write bytes. Its retry timeout used to budget only
/// its own bytes (~51 µs), so every attempt expired and the read failed
/// with `TimedOut`; the timeout now also budgets the payload of the CN's
/// outstanding requests to the same MN. Swept over issue times from the
/// start of the stream to after it.
#[test]
fn small_read_behind_own_bulk_writes_does_not_time_out() {
    const WRITE: u64 = 64 << 10;
    for issue_us in [80, 150, 250, 400] {
        let mut cluster = Cluster::build(&ClusterConfig::test_small());
        for p in 0..3u64 {
            cluster.spawn(0, Pid(10 + p), move |h| async move {
                let va = h.ralloc(4 * WRITE, Perm::RW).await.va();
                for i in 0..4 {
                    let data = Bytes::from(vec![p as u8; WRITE as usize]);
                    let c = h.rwrite(va + i * WRITE, data).await;
                    assert!(c.result.is_ok(), "bulk write failed: {:?}", c.result);
                }
            });
        }
        let read = Rc::new(Cell::new(None));
        let out = read.clone();
        cluster.spawn(0, Pid(20), move |h| async move {
            let va = h.ralloc(4096, Perm::RW).await.va();
            h.sleep(SimTime::from_nanos(issue_us * 1000).since(h.now())).await;
            out.set(Some(h.rread(va, 64).await.result.map(|_| ())));
        });
        cluster.start();
        cluster.run_until_idle();
        let result = read.take().expect("read never completed");
        assert!(result.is_ok(), "read issued at {issue_us} us failed: {result:?}");
        let retries = cluster.cn(0).clib().retry_count();
        assert_eq!(retries, 0, "read issued at {issue_us} us: no request should have retried");
    }
}

/// An FAA queued behind its CN's own bulk writes must retry within the MN's
/// dedup window. CN 0 puts 256 KiB of writes in flight, then issues an FAA
/// behind them whose response is lost; from 250 µs CN 1 streams small
/// writes to 64 pages, each recorded in the MN's FIFO dedup buffer. An
/// uncapped queued-payload allowance delayed the FAA's retry until CN 1's
/// writes had evicted the original's record, and the retry added again.
#[test]
fn lost_faa_response_behind_own_bulk_writes_applies_once() {
    const WRITE: u64 = 64 << 10;
    const PAGE: u64 = 4096;
    let mut cluster = Cluster::build(&ClusterConfig { cns: 2, ..ClusterConfig::test_small() });
    for p in 0..4u64 {
        cluster.spawn(0, Pid(10 + p), move |h| async move {
            let va = h.ralloc(WRITE, Perm::RW).await.va();
            let data = Bytes::from(vec![p as u8; WRITE as usize]);
            h.rwrite(va, data).await.result.expect("bulk write");
        });
    }
    cluster.spawn(1, Pid(30), |h| async move {
        let va = h.ralloc(64 * PAGE, Perm::RW).await.va();
        h.sleep(SimTime::from_nanos(250_000).since(h.now())).await;
        for w in 0..64u64 {
            let h2 = h.clone();
            h.spawn(async move {
                for i in 0..100u8 {
                    let data = Bytes::from(vec![i; 64]);
                    h2.rwrite(va + w * PAGE, data).await.result.expect("small write");
                }
            });
        }
    });
    let outcome = Rc::new(Cell::new(None));
    let out = outcome.clone();
    cluster.spawn(0, Pid(20), move |h| async move {
        let va = h.ralloc(PAGE, Perm::RW).await.va();
        let faa = h.rfaa(va, 1).await.result;
        let after = match h.rfaa(va, 0).await.result {
            Ok(CompletionValue::Old(v)) => v,
            other => panic!("read-back faa returned {other:?}"),
        };
        out.set(Some((faa, after)));
    });
    cluster.start();
    // Lose every frame toward CN 0 for 5 µs from the FAA's execution: its
    // response (and any write ack sharing that window).
    while cluster.mn(0).silicon().stats().atomics == 0 {
        cluster.run_for(SimDuration::from_nanos(100));
    }
    let cn0 = cluster.cn(0).mac();
    cluster.net.set_faults(
        &mut cluster.sim,
        cn0,
        FaultInjector { corrupt_next: u32::MAX, ..FaultInjector::none() },
    );
    cluster.run_for(SimDuration::from_micros(5));
    cluster.net.set_faults(&mut cluster.sim, cn0, FaultInjector::none());
    cluster.run_until_idle();
    let (faa, after) = outcome.take().expect("faa client never finished");
    assert!(cluster.mn(0).stats().dedup_replays > 0, "no retry was answered from the dedup buffer");
    assert!(matches!(faa, Ok(CompletionValue::Old(0))), "faa returned {faa:?}");
    assert_eq!(after, 1, "the add took effect {after} times");
}

/// Regression: an op cancelled by its deadline while still queued behind a
/// conflicting write must leave CLib's dependency tracker. It used to stay
/// queued there; the blocking write's completion then released it into the
/// tracker's in-flight set, where it held its page forever, so every later
/// write to that page waited on it.
#[test]
fn op_cancelled_while_queued_does_not_block_its_page() {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    let results = Rc::new(RefCell::new(Vec::new()));
    let sink = results.clone();
    cluster.spawn(0, Pid(21), move |h| async move {
        let va = h.ralloc(64 << 10, Perm::RW).await.va();
        let (big, queued) = (sink.clone(), sink.clone());
        // A 64 KiB write holds the first page; a 64 B write to the same
        // page queues behind it and is cancelled long before it dispatches.
        let write = h.rwrite(va, Bytes::from(vec![1u8; 64 << 10]));
        h.spawn(async move {
            let r = write.await.result;
            big.borrow_mut().push(("big", r));
        });
        let write =
            h.with_deadline(h.rwrite(va, Bytes::from(vec![2u8; 64])), SimDuration::from_nanos(500));
        h.spawn(async move {
            let r = write.await.result;
            queued.borrow_mut().push(("queued", r));
        });
        h.sleep(SimDuration::from_micros(200)).await;
        let c = h
            .with_deadline(h.rwrite(va, Bytes::from(vec![3u8; 64])), SimDuration::from_millis(5))
            .await;
        sink.borrow_mut().push(("later", c.result));
    });
    cluster.start();
    cluster.run_until_idle();

    let results = results.borrow();
    let get = |k| results.iter().find(|(n, _)| *n == k).map(|(_, r)| r.clone());
    assert!(matches!(get("big"), Some(Ok(_))), "64 KiB write: {:?}", get("big"));
    assert_eq!(get("queued"), Some(Err(clio_cn::ClioError::DeadlineExceeded)));
    assert!(matches!(get("later"), Some(Ok(_))), "write after the cancel: {:?}", get("later"));
}
