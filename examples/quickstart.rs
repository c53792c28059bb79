//! Quickstart: the paper's Figure 1, almost verbatim.
//!
//! Two threads of one process share remote memory on a simulated Clio
//! cluster: thread 1 takes a remote lock and issues two asynchronous writes;
//! thread 2 reads the data back under the same lock. Each thread is an async
//! task spawned as the same process (pid 42), and every remote call is
//! awaited.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};
use clio_sim::SimDuration;

const PAGE_SIZE: u64 = 4 << 10; // the test cluster's page size

fn main() {
    // A cluster with one compute node and one CBoard memory node.
    let mut cluster = Cluster::build(&ClusterConfig::test_small());

    // Hands the allocated addresses to the second thread (in place of
    // Figure 1's shared globals).
    let shared: Rc<Cell<Option<(u64, u64)>>> = Rc::default();
    let publish = shared.clone();

    // -- Figure 1, thread 1 ------------------------------------------------
    cluster.spawn(0, Pid(42), |h| async move {
        // /* Alloc one remote page. Define a remote lock */
        let remote_addr = h.ralloc(PAGE_SIZE, Perm::RW).await.va();
        let lock = h.ralloc(8, Perm::RW).await.va();

        // /* Acquire lock to enter critical section.
        //    Do two ASYNC writes then poll completion. */
        // Enter the critical section BEFORE publishing the addresses:
        // thread 2 must not be able to win the lock race and read the page
        // before it is written.
        h.rlock(lock).await.result.expect("rlock");
        publish.set(Some((remote_addr, lock)));
        let writes = h
            .rwrite_v(vec![
                (remote_addr, Bytes::from_static(b"hello ")),
                (remote_addr + 6, Bytes::from_static(b"remote world!")),
            ])
            .await;
        assert!(writes.iter().all(|c| c.result.is_ok()), "async writes");
        h.runlock(lock).await.result.expect("runlock");
        println!("[thread 1] wrote 2 fragments under the lock");
    });

    // -- Figure 1, thread 2 ------------------------------------------------
    cluster.spawn(0, Pid(42), |h| async move {
        let (remote_addr, lock) = loop {
            match shared.get() {
                Some(addrs) => break addrs,
                None => h.sleep(SimDuration::from_micros(1)).await,
            }
        };

        // /* Synchronously read from remote */
        h.rlock(lock).await.result.expect("rlock");
        let data = h.rread(remote_addr, 19).await.data().clone();
        h.runlock(lock).await.result.expect("runlock");

        println!("[thread 2] read back: {:?}", std::str::from_utf8(&data).expect("utf8"));
        assert_eq!(&data[..], b"hello remote world!");
    });

    cluster.start();
    cluster.run_until_idle();
    assert_eq!(cluster.registry().gauge("cn0.runtime.tasks"), Some(0), "a client task hung");
    println!(
        "simulation finished at virtual time {} after {} events",
        cluster.now(),
        cluster.sim.events_dispatched()
    );
}
