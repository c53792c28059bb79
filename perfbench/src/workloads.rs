//! The three cluster workloads, written as async client programs on
//! `Cluster::spawn`. Each CN runs one root task through four phases:
//!
//! 1. prefill — allocate and first-touch the working set;
//! 2. warm-up — a slice of the workload's own op stream, excluded from
//!    every modeled statistic, so the TLB and allocator reach their steady
//!    state (the TLB starts warm, not empty);
//! 3. measured — the op stream the modeled metrics are taken from;
//! 4. drain — the root returns once every op it issued has completed.
//!
//! All CNs pass a barrier after phases 1 and 2, so no CN's measured ops
//! overlap another CN's prefill. The host instant at which the first CN
//! leaves the second barrier splits set-up time from measured time.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use bytes::Bytes;
use clio_cn::CompletionValue;
use clio_core::exec::ProcHandle;
use clio_core::{AppCompletion, Cluster, ClusterConfig, ExecDriver};
use clio_mn::CBoardConfig;
use clio_proto::{Perm, Pid};
use clio_sim::dist::{ExpInterarrival, Zipf};
use clio_sim::{SimDuration, SimRng, SimTime};
use clio_trace::metrics::Snapshot;
use clio_trace::OpTrace;

/// Bench page size (the bench-sized board: 4 KiB pages).
pub const PAGE: u64 = 4 << 10;
/// Bench-sized board TLB capacity, in entries.
const TLB_ENTRIES: u64 = 4096;
/// Bench-sized board physical memory.
const PHYS_BYTES: u64 = 64 << 20;
/// Compute nodes in every workload.
pub const CNS: usize = 4;

/// `rw_open`: working set per CN, in pages. Four CNs together cover 3x
/// the TLB's reach, so Zipfian accesses keep missing into page walks.
const OPEN_PAGES: usize = (3 * TLB_ENTRIES as usize) / CNS;
/// `rw_open`: Zipf exponent of the page choice.
const OPEN_THETA: f64 = 0.99;
/// `rw_open`: aggregate offered rate. On this mix the backlog starts to
/// grow near 3.5 Mops/s; this sits at about 60% of that.
const OPEN_RATE_PER_S: f64 = 2.0e6;
/// `rw_open`: warm-up and measured arrivals per CN.
const OPEN_WARM: usize = 2_000;
const OPEN_MEASURED: usize = 24_000;
/// `rw_open`: per-CN backlog at which the run is declared unsteady and
/// generation stops (steady state at the chosen rate holds a handful).
const OPEN_BACKLOG_CAP: usize = 2_048;

/// `rw_deep`: hot set per CN, in pages (all four fit in the TLB together).
const DEEP_PAGES: usize = 512;
/// `rw_deep`: ops each CN keeps in flight.
const DEEP_DEPTH: usize = 256;
/// `rw_deep`: warm-up and measured ops per CN.
const DEEP_WARM: usize = 2_048;
const DEEP_MEASURED: usize = 8_000;

/// `alloc_migrate`: memory nodes.
const AM_MNS: usize = 2;
/// `alloc_migrate`: the long-lived range each CN re-reads throughout.
const AM_LONG_PAGES: u64 = 64;
/// `alloc_migrate`: CN 0's heap, first-touched one page per churn
/// iteration until it pushes its board past the pressure threshold.
const AM_HEAP_PAGES: u64 = 1024;
/// `alloc_migrate`: physical utilization at which boards report pressure.
/// Long-lived ranges and churn alone stay well under it; CN 0's growing
/// heap crosses it partway through the measured phase, once.
const AM_PRESSURE: f64 = 0.05;
/// `alloc_migrate`: churn tasks per CN and iterations per task.
const AM_TASKS: usize = 8;
const AM_WARM_ITERS: usize = 16;
const AM_ITERS: usize = 330;
/// `alloc_migrate`: churn allocation sizes, in pages.
const AM_SIZES: [u64; 5] = [1, 2, 4, 8, 16];

/// Concurrent prefill workers per CN (kept small so the prefill does not
/// set `core.peak_inflight`).
const PREFILL_WORKERS: usize = 4;
/// Write size of a first touch.
const TOUCH_BYTES: usize = 16;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Poisson arrivals, 4 CNs -> 1 MN, Zipfian pages over 3x
    /// the TLB's reach.
    RwOpen,
    /// Closed loop, 256 in flight per CN, 4 CNs -> 1 MN, TLB-resident.
    RwDeep,
    /// Closed-loop alloc/touch/verify/free churn on 4 CNs x 2 MNs with one
    /// pressure-triggered live migration.
    AllocMigrate,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rw_open" => Some(Workload::RwOpen),
            "rw_deep" => Some(Workload::RwDeep),
            "alloc_migrate" => Some(Workload::AllocMigrate),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RwOpen => "rw_open",
            Workload::RwDeep => "rw_deep",
            Workload::AllocMigrate => "alloc_migrate",
        }
    }

    fn mns(self) -> usize {
        match self {
            Workload::AllocMigrate => AM_MNS,
            _ => 1,
        }
    }
}

/// One read or write of a read/write workload.
#[derive(Debug, Clone, Copy)]
struct Access {
    write: bool,
    page: u32,
    offset: u32,
    len: u32,
    /// Gap after the previous arrival (open loop only).
    gap: SimDuration,
    /// Payload key of a write.
    key: u64,
}

/// One churn iteration of `alloc_migrate`.
#[derive(Debug, Clone, Copy)]
struct Churn {
    pages: u64,
    /// Page of the allocation that is first-touched and read back.
    touch: u64,
    key: u64,
}

/// Everything one CN does, drawn from the seed up front.
#[derive(Debug, Clone)]
struct CnInputs {
    /// Allocation sizes of the working set, in pages.
    chunks: Vec<u64>,
    warm: Vec<Access>,
    measured: Vec<Access>,
    /// `alloc_migrate`: per task, warm-up then measured iterations.
    churn: Vec<Vec<Churn>>,
}

/// A workload's inputs for every CN.
#[derive(Debug, Clone)]
pub struct Inputs {
    workload: Workload,
    cns: Vec<Rc<CnInputs>>,
}

impl Inputs {
    /// Draws every input of `workload` from `seed`.
    pub fn draw(workload: Workload, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let cns = (0..CNS)
            .map(|_| {
                let mut rng = root.fork();
                Rc::new(match workload {
                    Workload::RwOpen => draw_open(&mut rng),
                    Workload::RwDeep => draw_deep(&mut rng),
                    Workload::AllocMigrate => draw_churn(&mut rng),
                })
            })
            .collect();
        Inputs { workload, cns }
    }
}

/// Working-set chunk sizes (mixed, 4..32 pages) summing to `pages`.
fn draw_chunks(rng: &mut SimRng, pages: usize) -> Vec<u64> {
    let mut left = pages as u64;
    let mut chunks = Vec::new();
    while left > 0 {
        let c = (4u64 << rng.range_u64(0, 4)).min(left);
        chunks.push(c);
        left -= c;
    }
    chunks
}

fn draw_open(rng: &mut SimRng) -> CnInputs {
    let chunks = draw_chunks(rng, OPEN_PAGES);
    let zipf = Zipf::new(OPEN_PAGES, OPEN_THETA);
    let gaps = ExpInterarrival::from_rate(OPEN_RATE_PER_S / CNS as f64);
    let mut ops: Vec<Access> = (0..OPEN_WARM + OPEN_MEASURED)
        .map(|_| {
            let len = if rng.chance(0.5) { 16 } else { 1024 };
            Access {
                write: rng.chance(0.5),
                page: zipf.sample(rng) as u32,
                offset: rng.range_u64(0, (PAGE - len) / 16 + 1) as u32 * 16,
                len: len as u32,
                gap: gaps.sample(rng),
                key: rng.u64(),
            }
        })
        .collect();
    let measured = ops.split_off(OPEN_WARM);
    CnInputs { chunks, warm: ops, measured, churn: vec![] }
}

fn draw_deep(rng: &mut SimRng) -> CnInputs {
    let chunks = draw_chunks(rng, DEEP_PAGES);
    let mut ops: Vec<Access> = (0..DEEP_WARM + DEEP_MEASURED)
        .map(|_| Access {
            write: rng.chance(0.5),
            page: rng.range_u64(0, DEEP_PAGES as u64) as u32,
            offset: rng.range_u64(0, PAGE / 1024) as u32 * 1024,
            len: 1024,
            gap: SimDuration::ZERO,
            key: rng.u64(),
        })
        .collect();
    let measured = ops.split_off(DEEP_WARM);
    CnInputs { chunks, warm: ops, measured, churn: vec![] }
}

fn draw_churn(rng: &mut SimRng) -> CnInputs {
    let churn = (0..AM_TASKS)
        .map(|_| {
            (0..AM_WARM_ITERS + AM_ITERS)
                .map(|_| {
                    let pages = AM_SIZES[rng.range_u64(0, AM_SIZES.len() as u64) as usize];
                    Churn { pages, touch: rng.range_u64(0, pages), key: rng.u64() }
                })
                .collect()
        })
        .collect();
    CnInputs { chunks: vec![AM_LONG_PAGES], warm: vec![], measured: vec![], churn }
}

/// `len` payload bytes determined by `key`.
fn payload(key: u64, len: usize) -> Bytes {
    let mut rng = SimRng::new(key);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.u64().to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// Operation classes with a modeled latency statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `rread`.
    Read,
    /// `rwrite`.
    Write,
    /// `ralloc`.
    Alloc,
    /// `rfree` (counted, not reported as a latency).
    Free,
}

/// Modeled results of the measured phase. Deterministic in the seed:
/// traced and untraced runs of one seed must produce equal values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modeled {
    /// Latencies in ns, sorted, per [`Class`] (read, write, alloc).
    pub latency_ns: [Vec<u64>; 3],
    /// Measured ops (every class).
    pub ops: u64,
    /// Read plus write payload bytes of measured ops.
    pub payload_bytes: u64,
    /// Virtual time from the first measured arrival to the last measured
    /// completion.
    pub span: SimDuration,
}

impl Modeled {
    /// Useful payload bits in both directions per simulated second.
    pub fn goodput_gbps(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.span.as_secs_f64() / 1e9
    }
}

/// Counters that are not in the metrics registry, read off the boards
/// and the controller once the simulation is idle.
#[derive(Debug, Clone, Default)]
pub struct BoardCounters {
    /// TLB hits, all boards.
    pub tlb_hits: u64,
    /// TLB misses, all boards.
    pub tlb_misses: u64,
    /// First-touch page faults, all boards.
    pub page_faults: u64,
    /// Faults that found the async free-page buffer empty.
    pub fault_stalls: u64,
    /// Completed live migrations.
    pub migrations: u64,
}

/// What one cluster instance measured.
#[derive(Debug)]
pub struct Outcome {
    /// `Simulation::digest` at idle.
    pub digest: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Host time from build to the start of the measured phase.
    pub setup: Duration,
    /// Host time of the measured phase.
    pub measured: Duration,
    /// Modeled statistics (empty for a set-up-only instance).
    pub modeled: Modeled,
    /// Ops issued, all phases.
    pub attempted: u64,
    /// Ops that completed with an error, all phases.
    pub failed: u64,
    /// Correctness failures (errors, wrong data, an unsteady open loop).
    pub errors: Vec<String>,
    /// Highest per-CN in-flight op count (`ExecDriver::peak_inflight`).
    pub peak_inflight: u64,
    /// Registry snapshot at idle.
    pub registry: Snapshot,
    /// Board and controller counters at idle.
    pub boards: BoardCounters,
    /// Finished op traces (traced instances only).
    pub traces: Vec<OpTrace>,
    /// Virtual time at which the measured phase began.
    pub measure_start: SimTime,
}

/// Shared state between the host and the client tasks of one instance.
#[derive(Default)]
struct Probe {
    latency: RefCell<[Vec<u64>; 3]>,
    /// `(due, completed)` of every measured `rw_open` op, for the
    /// steady-state guard.
    open_log: RefCell<Vec<(SimTime, SimTime)>>,
    measured_ops: Cell<u64>,
    payload_bytes: Cell<u64>,
    first_issue: Cell<Option<SimTime>>,
    last_done: Cell<SimTime>,
    attempted: Cell<u64>,
    failed: Cell<u64>,
    errors: RefCell<Vec<String>>,
    prefilled: Cell<usize>,
    warmed: Cell<usize>,
    measure_host: Cell<Option<Instant>>,
    measure_sim: Cell<Option<SimTime>>,
}

impl Probe {
    fn error(&self, msg: String) {
        let mut errors = self.errors.borrow_mut();
        if errors.len() < 8 {
            errors.push(msg);
        }
    }

    /// Books one completion. Returns whether it succeeded.
    fn settle(&self, class: Class, c: &AppCompletion, measured: bool, bytes: u64) -> bool {
        if let Err(e) = &c.result {
            self.failed.set(self.failed.get() + 1);
            self.error(format!("{class:?} failed: {e}"));
            return false;
        }
        if measured {
            self.measured_ops.set(self.measured_ops.get() + 1);
            if matches!(class, Class::Read | Class::Write) {
                self.payload_bytes.set(self.payload_bytes.get() + bytes);
                if self.first_issue.get().is_none_or(|t| c.issued_at < t) {
                    self.first_issue.set(Some(c.issued_at));
                }
                self.last_done.set(self.last_done.get().max(c.completed_at));
            }
            let ns = c.latency().as_nanos();
            match class {
                Class::Read => self.latency.borrow_mut()[0].push(ns),
                Class::Write => self.latency.borrow_mut()[1].push(ns),
                Class::Alloc => self.latency.borrow_mut()[2].push(ns),
                Class::Free => {}
            }
        }
        true
    }
}

/// Counts down spawned tasks; the owner awaits zero.
#[derive(Default)]
struct Latch {
    left: Cell<usize>,
    waiter: RefCell<Option<Waker>>,
}

impl Latch {
    fn new(n: usize) -> Rc<Self> {
        Rc::new(Latch { left: Cell::new(n), waiter: RefCell::new(None) })
    }

    fn count_down(&self) {
        self.left.set(self.left.get() - 1);
        if self.left.get() == 0 {
            if let Some(w) = self.waiter.take() {
                w.wake();
            }
        }
    }

    fn wait(&self) -> impl Future<Output = ()> + '_ {
        poll_fn(move |cx| {
            if self.left.get() == 0 {
                Poll::Ready(())
            } else {
                *self.waiter.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        })
    }
}

/// Spawns `n` copies of `body` (given their index) and waits for all.
async fn fan_out<F, Fut>(h: &ProcHandle, n: usize, body: F)
where
    F: Fn(usize) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let latch = Latch::new(n);
    for i in 0..n {
        let (task, l) = (body(i), latch.clone());
        h.spawn(async move {
            task.await;
            l.count_down();
        });
    }
    latch.wait().await;
}

/// Waits until all CNs have arrived at the barrier counted by `count`.
async fn barrier(h: &ProcHandle, count: &Cell<usize>) {
    count.set(count.get() + 1);
    while count.get() < CNS {
        h.sleep(SimDuration::from_micros(1)).await;
    }
}

/// One CN's view of its working set: page VAs and the shadow copy every
/// read is checked against.
struct Region {
    page_va: RefCell<Vec<u64>>,
    shadow: RefCell<Vec<u8>>,
}

impl Region {
    fn va(&self, page: u32, offset: u32) -> u64 {
        self.page_va.borrow()[page as usize] + offset as u64
    }

    fn record(&self, page: u32, offset: u32, data: &[u8]) {
        let at = page as usize * PAGE as usize + offset as usize;
        self.shadow.borrow_mut()[at..at + data.len()].copy_from_slice(data);
    }

    fn expect(&self, page: u32, offset: u32, len: u32) -> Bytes {
        let at = page as usize * PAGE as usize + offset as usize;
        Bytes::copy_from_slice(&self.shadow.borrow()[at..at + len as usize])
    }
}

/// Per-CN task context.
#[derive(Clone)]
struct Cn {
    h: ProcHandle,
    index: usize,
    probe: Rc<Probe>,
    inputs: Rc<CnInputs>,
    region: Rc<Region>,
}

impl Cn {
    async fn write(&self, va: u64, data: Bytes, measured: bool, due: Option<SimTime>) -> bool {
        self.probe.attempted.set(self.probe.attempted.get() + 1);
        let len = data.len() as u64;
        let op = self.h.rwrite(va, data);
        let c = match due {
            Some(at) => op.arriving_at(at).await,
            None => op.await,
        };
        self.probe.settle(Class::Write, &c, measured, len)
    }

    async fn read(&self, va: u64, expect: Bytes, measured: bool, due: Option<SimTime>) -> bool {
        self.probe.attempted.set(self.probe.attempted.get() + 1);
        let op = self.h.rread(va, expect.len() as u32);
        let c = match due {
            Some(at) => op.arriving_at(at).await,
            None => op.await,
        };
        if !self.probe.settle(Class::Read, &c, measured, expect.len() as u64) {
            return false;
        }
        if c.data() != &expect {
            self.probe
                .error(format!("cn{}: read at {va:#x} returned stale or wrong data", self.index));
            return false;
        }
        true
    }

    async fn alloc(&self, pages: u64, measured: bool) -> Option<u64> {
        self.probe.attempted.set(self.probe.attempted.get() + 1);
        let c = self.h.ralloc(pages * PAGE, Perm::RW).await;
        if !self.probe.settle(Class::Alloc, &c, measured, 0) {
            return None;
        }
        match c.result {
            Ok(CompletionValue::Va(va)) => Some(va),
            other => {
                self.probe.error(format!("alloc returned {other:?}"));
                None
            }
        }
    }

    async fn free(&self, va: u64, pages: u64, measured: bool) {
        self.probe.attempted.set(self.probe.attempted.get() + 1);
        let c = self.h.rfree(va, pages * PAGE).await;
        self.probe.settle(Class::Free, &c, measured, 0);
    }

    /// Allocates the working set chunk by chunk and first-touches every
    /// page with a short write.
    async fn prefill(&self) {
        for &pages in &self.inputs.chunks {
            let Some(va) = self.alloc(pages, false).await else { return };
            self.region.page_va.borrow_mut().extend((0..pages).map(|p| va + p * PAGE));
        }
        let total = self.region.page_va.borrow().len();
        let next = Rc::new(Cell::new(0usize));
        fan_out(&self.h, PREFILL_WORKERS, |_| {
            let (cn, next) = (self.clone(), next.clone());
            async move {
                loop {
                    let page = next.get();
                    if page >= total {
                        break;
                    }
                    next.set(page + 1);
                    let data = payload((cn.index as u64) << 32 | page as u64, TOUCH_BYTES);
                    cn.region.record(page as u32, 0, &data);
                    cn.write(cn.region.va(page as u32, 0), data, false, None).await;
                }
            }
        })
        .await;
    }

    /// Issues one access, updating or checking the shadow copy. The
    /// shadow is updated at issue: CLib orders same-page accesses of one
    /// process in issue order, so a read sees every write issued before it.
    async fn access(&self, a: Access, measured: bool, due: Option<SimTime>) {
        let va = self.region.va(a.page, a.offset);
        if a.write {
            let data = payload(a.key, a.len as usize);
            self.region.record(a.page, a.offset, &data);
            self.write(va, data, measured, due).await;
        } else {
            let expect = self.region.expect(a.page, a.offset, a.len);
            self.read(va, expect, measured, due).await;
        }
    }

    /// Open loop: each access arrives at its pre-drawn time whether or
    /// not earlier ones completed, and is timed from that due time.
    async fn open_loop(&self, ops: &[Access], measured: bool) {
        let latch = Latch::new(ops.len());
        let mut due = self.h.now();
        let mut issued = 0;
        for a in ops {
            due += a.gap;
            let now = self.h.now();
            if due > now {
                self.h.sleep(due.since(now)).await;
            }
            if self.h.inflight() >= OPEN_BACKLOG_CAP {
                self.probe.error(format!(
                    "cn{}: open-loop backlog reached {OPEN_BACKLOG_CAP} ops; the offered rate \
                     exceeds what the system sustains",
                    self.index
                ));
                break;
            }
            let (cn, l, a) = (self.clone(), latch.clone(), *a);
            self.h.spawn(async move {
                cn.access(a, measured, Some(due)).await;
                if measured {
                    cn.probe.open_log.borrow_mut().push((due, cn.h.now()));
                }
                l.count_down();
            });
            issued += 1;
        }
        for _ in issued..ops.len() {
            latch.count_down();
        }
        latch.wait().await;
    }

    /// Closed loop: `depth` tasks each issue the next access of the phase
    /// as soon as their previous one completes.
    async fn closed_loop(&self, depth: usize, measured: bool) {
        let next = Rc::new(Cell::new(0usize));
        fan_out(&self.h, depth, |_| {
            let (cn, next) = (self.clone(), next.clone());
            async move {
                let ops = if measured { &cn.inputs.measured } else { &cn.inputs.warm };
                while let Some(&a) = ops.get(next.get()) {
                    next.set(next.get() + 1);
                    cn.access(a, measured, None).await;
                }
            }
        })
        .await;
    }

    /// One `alloc_migrate` churn task: allocate, first-touch, verify, free.
    /// On CN 0 each iteration also first-touches the next heap page.
    async fn churn(&self, its: &[Churn], heap: Option<(u64, Rc<Cell<u64>>)>, measured: bool) {
        for it in its {
            if let Some((heap_va, next)) = &heap {
                if next.get() < AM_HEAP_PAGES {
                    let page = next.get();
                    next.set(page + 1);
                    let data = payload(it.key ^ 0xFEED, TOUCH_BYTES);
                    self.write(heap_va + page * PAGE, data, measured, None).await;
                }
            }
            let Some(va) = self.alloc(it.pages, measured).await else { continue };
            let data = payload(it.key, 1024);
            let at = va + it.touch * PAGE;
            if self.write(at, data.clone(), measured, None).await {
                self.read(at, data, measured, None).await;
            }
            self.free(va, it.pages, measured).await;
        }
    }

    /// Re-reads the long-lived range, page by page, until `stop` is set.
    async fn reread(&self, stop: Rc<Cell<bool>>, measured: bool) {
        let mut page = 0u32;
        while !stop.get() {
            let expect = self.region.expect(page, 0, 1024);
            self.read(self.region.va(page, 0), expect, measured, None).await;
            page = (page + 1) % AM_LONG_PAGES as u32;
        }
    }

    /// Runs `main` with `background` alongside; `background` gets a flag
    /// that is raised once `main` is done, and is awaited after it.
    async fn alongside<B, Fut>(&self, background: B, main: impl Future<Output = ()>)
    where
        B: FnOnce(Rc<Cell<bool>>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let stop = Rc::new(Cell::new(false));
        let latch = Latch::new(1);
        let (task, l) = (background(stop.clone()), latch.clone());
        self.h.spawn(async move {
            task.await;
            l.count_down();
        });
        main.await;
        stop.set(true);
        latch.wait().await;
    }

    async fn alloc_migrate_phase(&self, warm: bool, heap: Option<(u64, Rc<Cell<u64>>)>) {
        let cn = self.clone();
        let churn = fan_out(&self.h, AM_TASKS, |t| {
            let (cn, heap) = (self.clone(), heap.clone());
            let its = &self.inputs.churn[t];
            let its: Vec<Churn> =
                if warm { its[..AM_WARM_ITERS].to_vec() } else { its[AM_WARM_ITERS..].to_vec() };
            async move { cn.churn(&its, heap, !warm).await }
        });
        self.alongside(move |stop| async move { cn.reread(stop, !warm).await }, churn).await;
    }

    /// One phase of a read/write workload.
    async fn rw_phase(&self, workload: Workload, measured: bool) {
        match workload {
            Workload::RwOpen => {
                let ops = if measured { &self.inputs.measured } else { &self.inputs.warm };
                self.open_loop(ops, measured).await
            }
            _ => self.closed_loop(DEEP_DEPTH, measured).await,
        }
    }

    /// The whole per-CN program.
    async fn run(self, workload: Workload, setup_only: bool) {
        let probe = self.probe.clone();
        let mut heap = None;
        match workload {
            Workload::RwOpen | Workload::RwDeep => self.prefill().await,
            Workload::AllocMigrate => {
                self.prefill_long().await;
                if self.index == 0 {
                    if let Some(va) = self.alloc(AM_HEAP_PAGES, false).await {
                        heap = Some((va, Rc::new(Cell::new(0u64))));
                    }
                }
            }
        }
        barrier(&self.h, &probe.prefilled).await;
        match workload {
            Workload::AllocMigrate => self.alloc_migrate_phase(true, heap.clone()).await,
            _ => self.rw_phase(workload, false).await,
        }
        barrier(&self.h, &probe.warmed).await;
        if probe.measure_host.get().is_none() {
            probe.measure_host.set(Some(Instant::now()));
            probe.measure_sim.set(Some(self.h.now()));
        }
        if setup_only {
            return;
        }
        match workload {
            Workload::AllocMigrate => self.alloc_migrate_phase(false, heap).await,
            _ => self.rw_phase(workload, true).await,
        }
    }

    /// `alloc_migrate` set-up: the long-lived range, written in full.
    async fn prefill_long(&self) {
        let Some(va) = self.alloc(AM_LONG_PAGES, false).await else { return };
        self.region.page_va.borrow_mut().extend((0..AM_LONG_PAGES).map(|p| va + p * PAGE));
        for page in 0..AM_LONG_PAGES as u32 {
            let data = payload((self.index as u64) << 32 | page as u64, 1024);
            self.region.record(page, 0, &data);
            self.write(self.region.va(page, 0), data, false, None).await;
        }
    }
}

/// The cluster every workload runs on: bench-sized boards (4 KiB pages,
/// 4096-entry TLB, 64 MiB), otherwise the paper's testbed parameters.
fn config(workload: Workload, seed: u64, traced: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::testbed();
    cfg.seed = seed;
    cfg.cns = CNS;
    cfg.mns = workload.mns();
    cfg.board = CBoardConfig::test_small();
    cfg.board.hw.phys_mem_bytes = PHYS_BYTES;
    cfg.board.hw.tlb_entries = TLB_ENTRIES as usize;
    if workload == Workload::AllocMigrate {
        cfg.pressure_threshold = AM_PRESSURE;
    }
    if traced {
        cfg = cfg.with_tracing(1);
    }
    cfg
}

/// Builds and runs one instance of `inputs`' workload. `setup_only`
/// stops every CN after the warm-up barrier; its counters are the
/// baseline the per-layer numbers subtract.
pub fn run(inputs: &Inputs, seed: u64, traced: bool, setup_only: bool) -> Outcome {
    let workload = inputs.workload;
    let probe = Rc::new(Probe::default());
    let shadow_pages = match workload {
        Workload::RwOpen => OPEN_PAGES,
        Workload::RwDeep => DEEP_PAGES,
        Workload::AllocMigrate => AM_LONG_PAGES as usize,
    };

    let started = Instant::now();
    let mut cluster = Cluster::build(&config(workload, seed, traced));
    let drivers: Vec<usize> = (0..CNS)
        .map(|index| {
            let cn_inputs = inputs.cns[index].clone();
            let probe = probe.clone();
            cluster.spawn(index, Pid(1 + index as u64), move |h| {
                let region = Rc::new(Region {
                    page_va: RefCell::new(Vec::with_capacity(shadow_pages)),
                    shadow: RefCell::new(vec![0; shadow_pages * PAGE as usize]),
                });
                Cn { h, index, probe, inputs: cn_inputs, region }.run(workload, setup_only)
            })
        })
        .collect();
    cluster.start();
    cluster.run_until_idle();
    let finished = Instant::now();

    let measure_host = probe.measure_host.get().unwrap_or(finished);
    let mut errors = probe.errors.borrow().clone();
    let pending = cluster.tracer().active_count();
    if traced && pending > 0 {
        errors.push(format!("{pending} traced ops never finished"));
    }
    let peak_inflight = drivers
        .iter()
        .enumerate()
        .map(|(cn, &d)| cluster.cn(cn).driver::<ExecDriver>(d).peak_inflight())
        .max()
        .unwrap_or(0);
    let mut boards = BoardCounters::default();
    for mn in 0..workload.mns() {
        let vm = cluster.mn(mn).silicon().vm();
        boards.tlb_hits += vm.tlb().hits();
        boards.tlb_misses += vm.tlb().misses();
        boards.page_faults += vm.stats().page_faults;
        boards.fault_stalls += vm.stats().fault_stalls;
    }
    let (started_m, completed_m) = cluster.controller().migration_stats();
    boards.migrations = completed_m;
    if workload == Workload::AllocMigrate
        && !setup_only
        && (completed_m == 0 || started_m != completed_m)
    {
        errors.push(format!(
            "expected live migrations to fire and finish: {started_m} started, \
             {completed_m} completed"
        ));
    }

    let mut latency_ns = probe.latency.take();
    latency_ns.iter_mut().for_each(|v| v.sort_unstable());
    let span =
        probe.first_issue.get().map_or(SimDuration::ZERO, |t| probe.last_done.get().since(t));
    let modeled = Modeled {
        latency_ns,
        ops: probe.measured_ops.get(),
        payload_bytes: probe.payload_bytes.get(),
        span,
    };
    if workload == Workload::RwOpen && !setup_only {
        if let Err(e) = steady(&probe.open_log.borrow()) {
            errors.push(e);
        }
    }
    Outcome {
        digest: cluster.sim.digest(),
        events: cluster.sim.events_dispatched(),
        setup: measure_host.duration_since(started),
        measured: finished.duration_since(measure_host),
        modeled,
        attempted: probe.attempted.get(),
        failed: probe.failed.get(),
        errors,
        peak_inflight,
        registry: cluster.registry().snapshot(),
        boards,
        traces: if traced { cluster.take_traces() } else { vec![] },
        measure_start: probe.measure_sim.get().unwrap_or(SimTime::ZERO),
    }
}

/// Steady-state guard for the open loop: over the second half of the
/// arrival window, completions must keep up with arrivals. A backlog that
/// grows means the offered rate is past capacity and latency percentiles
/// would describe a transient, not a steady state.
fn steady(log: &[(SimTime, SimTime)]) -> Result<(), String> {
    let (Some(first), Some(last)) = (log.iter().map(|e| e.0).min(), log.iter().map(|e| e.0).max())
    else {
        return Err("open loop completed no measured ops".into());
    };
    let mid = first + SimDuration::from_nanos(last.since(first).as_nanos() / 2);
    let arrived = log.iter().filter(|e| e.0 >= mid).count();
    let completed = log.iter().filter(|e| e.1 >= mid && e.1 <= last).count();
    // Slack: at the operating point the backlog holds a handful of ops and
    // fluctuates by tens; 1/256 of the half's arrivals is over a hundred.
    if completed + arrived / 256 < arrived {
        return Err(format!(
            "open-loop backlog grew: {completed} completions against {arrived} arrivals in the \
             second half of the arrival window"
        ));
    }
    Ok(())
}
