//! Schedule pin for a fixed sync-only executor program: it must (a) land on
//! the exact virtual completion time recorded below (op-level schedule
//! parity: a change that moves it must explain why), and (b) be
//! digest-identical across repeated runs in one process.

use bytes::Bytes;
use clio_cn::CompletionValue;
use clio_core::{Cluster, ClusterConfig};
use clio_proto::{Perm, Pid};

/// Final virtual time of the probe program.
const PINNED_FINAL_NANOS: u64 = 216_998;

fn probe_run() -> (u64, u64, u64) {
    let mut cluster = Cluster::build(&ClusterConfig::test_small());
    cluster.spawn(0, Pid(7), |h| async move {
        let va = h.ralloc(1 << 16, Perm::RW).await.va();
        for i in 0..32u64 {
            let blob = Bytes::from(format!("blob-{i}"));
            h.rwrite(va + i * 256, blob).await.result.unwrap();
        }
        for i in 0..32u64 {
            let d = h.rread(va + i * 256, 6).await;
            assert_eq!(&d.data()[..5], b"blob-");
        }
        h.rfence().await.result.unwrap();
        h.rfaa(va, 3).await.result.unwrap();
        let old = |c: clio_core::AppCompletion| match c.result {
            Ok(CompletionValue::Old(v)) => v,
            other => panic!("cas returned {other:?}"),
        };
        let first = old(h.rcas(va, u64::from_le_bytes(*b"blob-0\x003"), 9).await);
        assert_eq!(first, old(h.rcas(va, 0, 0).await));
    });
    cluster.start();
    cluster.run_until_idle();
    (cluster.sim.digest(), cluster.sim.events_dispatched(), cluster.now().as_nanos())
}

#[test]
fn exec_probe_schedule_is_pinned_and_deterministic() {
    let a = probe_run();
    let b = probe_run();
    assert_eq!(a, b, "sync executor program must be digest-deterministic");
    assert_eq!(a.2, PINNED_FINAL_NANOS, "op-level schedule moved");
}
