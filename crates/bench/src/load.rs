//! Reusable load generators, each an async client program on
//! [`Cluster::spawn`].
//!
//! Every generator runs as its own process (one `spawn`, one pid, so CLib's
//! per-thread ordering streams are those of a real client) and reports
//! through a shared [`Recorder`] the harness reads after the run. A window
//! of `n` outstanding ops is `n` worker tasks drawing from one shared op
//! sequence; `h.spawn` polls each worker inline, so their first ops submit
//! in spawn order.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use bytes::Bytes;
use clio_apps::kv::{partition_of, KvRequest};
use clio_apps::ycsb::{YcsbGenerator, YcsbOp};
use clio_core::exec::ProcHandle;
use clio_core::metrics::OpRecorder;
use clio_core::{AppCompletion, Cluster, OpFuture};
use clio_net::Mac;
use clio_proto::{Perm, Pid};
use clio_sim::{SimDuration, SimRng, SimTime};

/// A load's measurements, filled in by its task as ops complete.
pub type Recorder = Rc<RefCell<OpRecorder>>;

fn new_recorder() -> Recorder {
    Rc::new(RefCell::new(OpRecorder::new(SimTime::ZERO)))
}

fn record(rec: &Recorder, c: &AppCompletion, payload_bytes: u64) {
    match &c.result {
        Ok(_) => rec.borrow_mut().record(c.completed_at, c.latency(), payload_bytes),
        Err(_) => rec.borrow_mut().record_error(c.completed_at),
    }
}

/// What a memory-access load does per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMix {
    /// Only reads.
    Reads,
    /// Only writes.
    Writes,
    /// Read/write alternating.
    Alternate,
}

/// One memory access: a read, or a write filled with `fill`.
#[derive(Debug, Clone, Copy)]
struct Access {
    va: u64,
    fill: Option<u8>,
}

/// Issues `a` as a `size`-byte op.
async fn access(h: &ProcHandle, a: Access, size: u32) -> AppCompletion {
    match a.fill {
        Some(b) => h.rwrite(a.va, Bytes::from(vec![b; size as usize])).await,
        None => h.rread(a.va, size).await,
    }
}

/// Allocates `pages` pages and touches each with a 1-byte write, in order
/// (first-touch fault + TLB fill), so the measured ops that follow start
/// warm. Returns the range's base address.
async fn alloc_warm(h: &ProcHandle, pages: u64, page_size: u64) -> u64 {
    let va = h.ralloc(pages * page_size, Perm::RW).await.va();
    for page in 0..pages {
        h.rwrite(va + page * page_size, Bytes::from_static(&[0u8])).await;
    }
    va
}

/// Awaits every op of a same-instant burst, handing each completion to
/// `each` as it lands. All futures are first polled together, so the burst
/// is submitted at one instant through the scalar (doorbell) path.
async fn join_each(ops: Vec<OpFuture>, mut each: impl FnMut(AppCompletion)) {
    let mut pending: Vec<Option<OpFuture>> = ops.into_iter().map(Some).collect();
    poll_fn(|cx| {
        let mut left = 0;
        for slot in pending.iter_mut() {
            let Some(op) = slot else { continue };
            match Pin::new(op).poll(cx) {
                Poll::Ready(c) => {
                    *slot = None;
                    each(c);
                }
                Poll::Pending => left += 1,
            }
        }
        if left == 0 {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await
}

/// A closed-loop (optionally windowed) read/write load.
///
/// Allocates `span_pages` of remote memory, warms every page (fault +
/// TLB), then runs `ops` operations of `size` bytes with `window`
/// outstanding (1 = synchronous), optionally uniform-random over the span,
/// with optional per-op think time. Latencies/goodput land in the
/// [`Recorder`] returned by [`spawn`](Self::spawn).
#[derive(Debug, Clone)]
pub struct MemLoad {
    /// Operation size in bytes.
    pub size: u32,
    /// Access mix.
    pub mix: AccessMix,
    /// Operations to run after warm-up.
    pub ops: u64,
    /// Outstanding window (1 = sync; >1 = the paper's async API).
    pub window: u32,
    /// Pages of remote memory to use.
    pub span_pages: u64,
    /// Page size (for span math).
    pub page_size: u64,
    /// Uniform-random page selection (vs. cycling through the span).
    pub random: bool,
    /// Think time before each op (models light offered load); a
    /// think-time load runs one op at a time regardless of `window`.
    pub think: SimDuration,
    /// Seed of the page-selection RNG.
    pub seed: u64,
}

/// The shared op sequence of a [`MemLoad`]'s workers.
struct MemOps {
    load: MemLoad,
    va: u64,
    issued: u64,
    rng: SimRng,
}

impl MemOps {
    /// The next op's target and kind, or `None` once `ops` were issued.
    fn next(&mut self) -> Option<Access> {
        let l = &self.load;
        if self.issued >= l.ops {
            return None;
        }
        let page =
            if l.random { self.rng.range_u64(0, l.span_pages) } else { self.issued % l.span_pages };
        // Keep the op inside one page.
        let max_off = l.page_size.saturating_sub(l.size as u64).max(1);
        let va = self.va + page * l.page_size + self.issued * 64 % max_off;
        self.issued += 1;
        let write = match l.mix {
            AccessMix::Reads => false,
            AccessMix::Writes => true,
            AccessMix::Alternate => self.issued.is_multiple_of(2),
        };
        Some(Access { va, fill: write.then_some(self.issued as u8) })
    }
}

impl MemLoad {
    /// A load with the given shape; measurement starts after warm-up.
    #[allow(clippy::too_many_arguments)] // a config surface, built once per bench
    pub fn new(
        size: u32,
        mix: AccessMix,
        ops: u64,
        window: u32,
        span_pages: u64,
        page_size: u64,
        random: bool,
        seed: u64,
    ) -> Self {
        MemLoad {
            size,
            mix,
            ops,
            window: window.max(1),
            span_pages: span_pages.max(1),
            page_size,
            random,
            think: SimDuration::ZERO,
            seed,
        }
    }

    /// Runs the load as process `pid` on compute node `cn` from cluster
    /// start.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = new_recorder();
        let out = rec.clone();
        cluster.spawn(cn, pid, move |h| async move {
            let va = alloc_warm(&h, self.span_pages, self.page_size).await;
            *rec.borrow_mut() = OpRecorder::new(h.now());
            let (size, think) = (self.size, self.think);
            let workers = if think.is_zero() { self.window } else { 1 };
            let rng = SimRng::new(self.seed);
            let ops = Rc::new(RefCell::new(MemOps { load: self, va, issued: 0, rng }));
            for _ in 0..workers {
                let (h2, ops, rec) = (h.clone(), ops.clone(), rec.clone());
                h.spawn(async move {
                    loop {
                        let next = ops.borrow_mut().next();
                        let Some(a) = next else { break };
                        if !think.is_zero() {
                            h2.sleep(think).await;
                        }
                        let c = access(&h2, a, size).await;
                        record(&rec, &c, size as u64);
                    }
                });
            }
        });
        out
    }
}

/// An open-loop burst load: issues `burst` small async reads at one
/// instant (the paper's issue-then-`rpoll` pattern), waits for all of them,
/// then fires the next burst. Because every request of a burst is submitted
/// at the same virtual instant, this is the natural showcase for the
/// transport's doorbell-coalesced request batching.
#[derive(Debug, Clone)]
pub struct BurstLoad {
    /// Operation size in bytes.
    pub size: u32,
    /// Requests per burst.
    pub burst: u64,
    /// Bursts to run after warm-up.
    pub bursts: u64,
    /// Pages of remote memory spanned (each burst walks distinct pages).
    pub span_pages: u64,
    /// Page size.
    pub page_size: u64,
    /// Submit each burst as one explicit `rread_v` vector (the
    /// scatter/gather API) instead of per-op async submissions.
    pub scatter_gather: bool,
}

impl BurstLoad {
    /// A load firing `bursts` bursts of `burst` reads of `size` bytes.
    pub fn new(size: u32, burst: u64, bursts: u64, span_pages: u64, page_size: u64) -> Self {
        BurstLoad {
            size,
            burst: burst.max(1),
            bursts,
            span_pages: span_pages.max(burst.max(1)),
            page_size,
            scatter_gather: false,
        }
    }

    /// Switches the load to the explicit scatter/gather submit path.
    pub fn with_scatter_gather(mut self) -> Self {
        self.scatter_gather = true;
        self
    }

    /// Runs the load as process `pid` on compute node `cn` from cluster
    /// start.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = new_recorder();
        let out = rec.clone();
        cluster.spawn(cn, pid, move |h| async move {
            let va = alloc_warm(&h, self.span_pages, self.page_size).await;
            *rec.borrow_mut() = OpRecorder::new(h.now());
            let size = self.size;
            for b in 0..self.bursts {
                // Distinct pages inside one burst: no intra-burst
                // dependencies, so the whole burst dispatches (and
                // coalesces) at one instant.
                let base = (b * self.burst) % self.span_pages;
                let reads: Vec<(u64, u32)> = (0..self.burst)
                    .map(|i| (va + (base + i) % self.span_pages * self.page_size, size))
                    .collect();
                if self.scatter_gather {
                    for c in h.rread_v(reads).await {
                        record(&rec, &c, size as u64);
                    }
                } else {
                    let ops = reads.into_iter().map(|(va, len)| h.rread(va, len)).collect();
                    join_each(ops, |c| record(&rec, &c, size as u64)).await;
                }
            }
        });
        out
    }
}

/// A YCSB load over the Clio-KV offload, partitioned across MNs.
pub struct KvLoad {
    gen: YcsbGenerator,
    /// Keys stored (sequentially, so every MN partition gets its records)
    /// before measurement starts.
    pub preload: u64,
    /// Operations to run.
    pub ops: u64,
    /// Outstanding window.
    pub window: u32,
    /// Offload id on every MN.
    pub offload_id: u16,
}

fn key_bytes(key: u64) -> Vec<u8> {
    format!("user{key:012}").into_bytes()
}

/// Sends `req` to the Clio-KV offload on the MN owning its key.
fn kv_call(h: &ProcHandle, mns: &[Mac], offload_id: u16, req: &KvRequest) -> OpFuture {
    let key = match req {
        KvRequest::Put { key, .. } | KvRequest::Get { key } | KvRequest::Delete { key } => key,
    };
    h.roffload(mns[partition_of(key, mns.len())], offload_id, req.opcode(), req.encode())
}

impl KvLoad {
    /// A load running `ops` YCSB operations after pre-loading `preload`
    /// keys.
    pub fn new(gen: YcsbGenerator, preload: u64, ops: u64, window: u32, offload_id: u16) -> Self {
        KvLoad { gen, preload, ops, window: window.max(1), offload_id }
    }

    /// Runs the load as process `pid` on compute node `cn` from cluster
    /// start.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = new_recorder();
        let out = rec.clone();
        let mns = Rc::new(cluster.mn_macs().to_vec());
        cluster.spawn(cn, pid, move |h| async move {
            let KvLoad { gen, preload, ops, window, offload_id: id } = self;
            for key in 0..preload {
                let put = KvRequest::Put { key: key_bytes(key), value: gen.value_for(key, 0) };
                kv_call(&h, &mns, id, &put).await;
            }
            *rec.borrow_mut() = OpRecorder::new(h.now());
            let value_size = gen.value_size() as u64;
            let state = Rc::new(RefCell::new((gen, 0u64)));
            for _ in 0..window {
                let (h2, mns, state, rec) = (h.clone(), mns.clone(), state.clone(), rec.clone());
                h.spawn(async move {
                    loop {
                        let req = {
                            let (gen, issued) = &mut *state.borrow_mut();
                            if *issued >= ops {
                                break;
                            }
                            *issued += 1;
                            match gen.next_op() {
                                YcsbOp::Get { key } => KvRequest::Get { key: key_bytes(key) },
                                YcsbOp::Set { key, value } => {
                                    KvRequest::Put { key: key_bytes(key), value }
                                }
                            }
                        };
                        let c = kv_call(&h2, &mns, id, &req).await;
                        record(&rec, &c, value_size);
                    }
                });
            }
        });
        out
    }
}

/// A synchronous load reading/writing a **pre-existing** remote range
/// (used by sweeps that install state directly, e.g. the Figure 5
/// PTE-aliasing methodology). Every op must succeed.
#[derive(Debug, Clone)]
pub struct RangeLoad {
    /// Base VA of the range (must already be mapped for the load's pid).
    pub base: u64,
    /// Pages in the range.
    pub pages: u64,
    /// Page size.
    pub page_size: u64,
    /// Operation size.
    pub size: u32,
    /// Access mix.
    pub mix: AccessMix,
    /// Operations to run (the first `warmup` excluded from stats).
    pub ops: u64,
    /// Warm-up operations.
    pub warmup: u64,
    /// Random page selection.
    pub random: bool,
    /// Seed of the page-selection RNG.
    pub seed: u64,
}

impl RangeLoad {
    /// A synchronous load over `[base, base + pages*page_size)`.
    #[allow(clippy::too_many_arguments)] // bench config surface
    pub fn new(
        base: u64,
        pages: u64,
        page_size: u64,
        size: u32,
        mix: AccessMix,
        ops: u64,
        random: bool,
        seed: u64,
    ) -> Self {
        RangeLoad {
            base,
            pages: pages.max(1),
            page_size,
            size,
            mix,
            ops,
            warmup: (ops / 10).clamp(4, ops),
            random,
            seed,
        }
    }

    /// Runs the load as process `pid` on compute node `cn` from cluster
    /// start.
    pub fn spawn(self, cluster: &mut Cluster, cn: usize, pid: Pid) -> Recorder {
        let rec = new_recorder();
        let out = rec.clone();
        cluster.spawn(cn, pid, move |h| async move {
            let mut rng = SimRng::new(self.seed);
            for i in 0..self.ops {
                let page = if self.random { rng.range_u64(0, self.pages) } else { i % self.pages };
                let write = match self.mix {
                    AccessMix::Reads => false,
                    AccessMix::Writes => true,
                    AccessMix::Alternate => i % 2 == 1,
                };
                let a = Access {
                    va: self.base + page * self.page_size,
                    fill: write.then_some(i as u8),
                };
                let c = access(&h, a, self.size).await;
                assert!(c.result.is_ok(), "range op failed: {:?}", c.result);
                if i >= self.warmup {
                    rec.borrow_mut().record(c.completed_at, c.latency(), self.size as u64);
                }
            }
        });
        out
    }
}
