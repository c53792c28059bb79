//! A key-value store served *by the memory nodes themselves*: Clio-KV runs
//! as an extend-path offload (paper §6), and a CN-side load balancer shards
//! keys across two CBoards.
//!
//! Run with: `cargo run --release --example kv_store`

use std::cell::Cell;
use std::rc::Rc;

use clio_apps::kv::{partition_of, ClioKv, KvRequest, KvResponse};
use clio_core::{Cluster, ClusterConfig};
use clio_mn::CBoardConfig;
use clio_proto::{Pid, Status};

const KEYS: u64 = 200;
const OFFLOAD_ID: u16 = 1;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    format!("value-for-{i}").into_bytes()
}

fn main() {
    let mut cfg = ClusterConfig::testbed();
    cfg.cns = 1;
    cfg.mns = 2;
    cfg.board = CBoardConfig::test_small();
    let mut cluster = Cluster::build(&cfg);
    for mn in 0..2 {
        cluster.install_offload(mn, OFFLOAD_ID, Pid(9000 + mn as u64), Box::new(ClioKv::new(1024)));
    }
    let macs = cluster.mn_macs().to_vec();
    let tally: Rc<Cell<(u64, u64)>> = Rc::default(); // (verified, deleted)
    let out = tally.clone();

    // Loads KEYS records, reads them all back, and deletes the odd ones.
    cluster.spawn(0, Pid(1), move |h| async move {
        // Routes a request to the board owning its key's partition.
        let send = |req: KvRequest| {
            let (KvRequest::Put { key, .. } | KvRequest::Get { key } | KvRequest::Delete { key }) =
                &req;
            let mn = macs[partition_of(key, macs.len())];
            let op = h.roffload(mn, OFFLOAD_ID, req.opcode(), req.encode());
            async move {
                let c = op.await;
                assert!(c.result.is_ok(), "kv op failed: {:?}", c.result);
                c
            }
        };

        for i in 0..KEYS {
            send(KvRequest::Put { key: key(i), value: value(i) }).await;
        }
        let (mut verified, mut deleted) = (0, 0);
        for i in 0..KEYS {
            let data = send(KvRequest::Get { key: key(i) }).await.data().clone();
            match KvResponse::decode(Status::Ok, data) {
                KvResponse::Value(v) => assert_eq!(&v[..], &value(i)[..]),
                other => panic!("expected value for key {i}: {other:?}"),
            }
            verified += 1;
        }
        for i in (1..KEYS).step_by(2) {
            send(KvRequest::Delete { key: key(i) }).await;
            deleted += 1;
        }
        out.set((verified, deleted));
    });
    cluster.start();
    cluster.run_until_idle();
    assert_eq!(cluster.registry().gauge("cn0.runtime.tasks"), Some(0), "a client task hung");

    println!("loaded {KEYS} records across 2 memory nodes");
    let (verified, deleted) = tally.get();
    println!("verified {verified} reads, deleted {deleted} records");
    for mn in 0..2 {
        let stats = cluster.mn(mn).stats();
        println!("mn{mn}: {} offload calls served", stats.offload_calls);
    }
    assert_eq!(verified, KEYS);
    println!("done at virtual time {}", cluster.now());
}
