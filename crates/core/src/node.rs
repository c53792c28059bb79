//! The compute-node host actor.
//!
//! A [`ComputeNode`] owns a NIC, a CLib instance and one
//! [`ExecDriver`] per simulated client process (each built by
//! [`Cluster::spawn`](crate::Cluster::spawn)). Executors issue operations
//! using only `(pid, va)`; the node resolves which memory node owns the
//! address (slice routing plus migration-exception cache), consults the
//! global controller for allocations and after `Moved` refusals, and
//! transparently re-issues relocated requests — the CN half of §4.7's
//! distributed memory support.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use clio_cn::{CLib, CLibConfig, ClioError, Completion, CompletionValue, Op, OpToken, ThreadId};
use clio_net::{Frame, Mac, NicPort};
use clio_proto::{Perm, Pid};
use clio_sim::{Actor, ActorId, Ctx, Message, SimDuration, SimTime};
use clio_trace::metrics::{Counter, Gauge, Registry};
use clio_trace::{Tracer, Track};

use crate::controller::{
    AllocNotify, FreeNotify, PlaceAlloc, PlacementReply, RouteQuery, RouteReply, RouteUpdate,
};
use crate::exec::ExecDriver;

/// Host-level operation handle, stable across transparent re-submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppToken(pub u64);

/// Result type of a finished operation.
pub type AppResult = Result<CompletionValue, ClioError>;

/// A finished application operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCompletion {
    /// The operation's handle.
    pub token: AppToken,
    /// Outcome.
    pub result: AppResult,
    /// When the client issued it (its arrival, for back-dated ops).
    pub issued_at: SimTime,
    /// When it completed.
    pub completed_at: SimTime,
}

impl AppCompletion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }

    /// Unwraps read/offload data.
    ///
    /// # Panics
    ///
    /// Panics if the operation failed or returned no data.
    pub fn data(&self) -> &Bytes {
        match &self.result {
            Ok(CompletionValue::Data(d)) => d,
            other => panic!("expected data completion, got {other:?}"),
        }
    }

    /// Unwraps an allocation's virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the operation failed or was not an allocation.
    pub fn va(&self) -> u64 {
        match &self.result {
            Ok(CompletionValue::Va(va)) => *va,
            other => panic!("expected va completion, got {other:?}"),
        }
    }
}

/// A remote operation as a client issues it — the one op vocabulary of
/// the executor and the node. The issuing process is implied by the
/// executor that submits it, and the target MN is resolved at dispatch
/// (kept host-side so requests can be transparently re-routed after
/// migration).
#[derive(Debug, Clone)]
pub(crate) enum OpSpec {
    Read { va: u64, len: u32 },
    Write { va: u64, data: Bytes },
    Alloc { size: u64, perm: Perm },
    Free { va: u64, size: u64 },
    Lock { va: u64 },
    Unlock { va: u64 },
    Faa { va: u64, delta: u64 },
    Cas { va: u64, expected: u64, new: u64 },
    Fence,
    Release,
    Offload { mn: Mac, offload: u16, opcode: u16, arg: Bytes },
}

impl OpSpec {
    /// The `(va, len)` span that determines routing, if any. The length
    /// matters: an op is routable only if *every* byte it touches lives on
    /// one MN, so routing must consider the full span rather than just the
    /// start address.
    fn route_range(&self) -> Option<(u64, u64)> {
        match self {
            OpSpec::Read { va, len } => Some((*va, u64::from(*len))),
            OpSpec::Write { va, data } => Some((*va, data.len() as u64)),
            OpSpec::Free { va, size } => Some((*va, *size)),
            // Lock words and atomics are 8-byte cells.
            OpSpec::Lock { va }
            | OpSpec::Unlock { va }
            | OpSpec::Faa { va, .. }
            | OpSpec::Cas { va, .. } => Some((*va, 8)),
            _ => None,
        }
    }

    fn to_op(&self, pid: Pid, mn: Mac) -> Op {
        match self.clone() {
            OpSpec::Read { va, len } => Op::Read { mn, pid, va, len },
            OpSpec::Write { va, data } => Op::Write { mn, pid, va, data },
            OpSpec::Alloc { size, perm } => Op::Alloc { mn, pid, size, perm, fixed_va: None },
            OpSpec::Free { va, size } => Op::Free { mn, pid, va, size },
            OpSpec::Lock { va } => Op::Lock { mn, pid, va },
            OpSpec::Unlock { va } => Op::Unlock { mn, pid, va },
            OpSpec::Faa { va, delta } => Op::Faa { mn, pid, va, delta },
            OpSpec::Cas { va, expected, new } => Op::Cas { mn, pid, va, expected, new },
            OpSpec::Fence => Op::Fence { mn, pid },
            OpSpec::Release => Op::Release,
            OpSpec::Offload { mn: target, offload, opcode, arg } => {
                Op::Offload { mn: target, pid, offload, opcode, arg }
            }
        }
    }
}

/// Routing table: RAS slices (static) + migrated-range exceptions (learned
/// from `Moved` refusals and controller [`RouteUpdate`] broadcasts).
#[derive(Debug, Default)]
struct RasRouter {
    slices: Vec<(u64, u64, Mac)>,
    exceptions: Vec<(Pid, u64, u64, Mac)>,
}

/// Routing verdict for a whole access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// One MN serves every byte of the access.
    Owned(Mac),
    /// The access straddles two owners: no single MN can serve it.
    Spans,
    /// No slice or exception covers the address.
    Unknown,
}

impl RasRouter {
    fn lookup_byte(&self, pid: Pid, va: u64) -> Option<Mac> {
        if let Some(&(_, _, _, mac)) = self
            .exceptions
            .iter()
            .find(|(p, start, len, _)| *p == pid && va >= *start && va < start + len)
        {
            return Some(mac);
        }
        self.slices
            .iter()
            .find(|(base, span, _)| va >= *base && va < base + span)
            .map(|&(_, _, mac)| mac)
    }

    /// Resolves a whole `len`-byte access. Start-VA-only resolution would
    /// silently route a boundary-straddling op to one MN; checking both
    /// endpoints plus any interior exception catches every split.
    fn lookup(&self, pid: Pid, va: u64, len: u64) -> Route {
        let end = va + len.max(1) - 1; // inclusive last byte
        let first = self.lookup_byte(pid, va);
        if self.lookup_byte(pid, end) != first {
            return Route::Spans;
        }
        let interior_differs = self
            .exceptions
            .iter()
            .any(|(p, s, l, m)| *p == pid && *s <= end && va < s + l && Some(*m) != first);
        if interior_differs {
            return Route::Spans;
        }
        match first {
            Some(mac) => Route::Owned(mac),
            None => Route::Unknown,
        }
    }

    fn add_exception(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        self.exceptions.retain(|(p, s, _, _)| !(*p == pid && *s == start));
        self.exceptions.push((pid, start, len, mac));
    }

    /// Applies a controller [`RouteUpdate`]: every cached exception
    /// overlapping the migrated range is stale, so drop the lot and install
    /// one exception covering the whole range at its new owner.
    fn apply_update(&mut self, pid: Pid, start: u64, len: u64, mac: Mac) {
        let end = start + len;
        self.exceptions.retain(|(p, s, l, _)| !(*p == pid && *s < end && start < s + l));
        self.exceptions.push((pid, start, len, mac));
    }
}

#[derive(Debug)]
struct HostOp {
    driver: usize,
    pid: Pid,
    spec: OpSpec,
    issued_at: SimTime,
    moved_retries: u32,
    /// Outstanding sub-operations (only >1 for multi-MN fences).
    fanout: u32,
    /// The arrival time to attribute the first CLib submission to (a
    /// `SubmitQueued` span covers [arrival, submit]); consumed on dispatch.
    queued_since: Option<SimTime>,
}

/// Kick-off message: start all executors (sent by `Cluster::start`).
#[derive(Debug, Clone, Copy)]
pub struct StartClients;

/// Pokes one executor: a harness-side doorbell (see
/// [`ProcHandle::next_poke`](crate::ProcHandle::next_poke)).
#[derive(Debug, Clone, Copy)]
pub struct PokeDriver {
    /// The driver index on the target compute node.
    pub driver: usize,
}

/// Default per-process in-flight submission budget (ops holding a window
/// credit before the executor parks further submitters). Large enough that
/// closed-loop clients never park; open-loop overload tests shrink it.
pub const DEFAULT_INFLIGHT_BUDGET: usize = 65_536;

/// Executor timer message.
#[derive(Debug, Clone, Copy)]
struct Wake {
    driver: usize,
    tag: u64,
}

enum DriverEvent {
    Completion(AppCompletion),
    Timer(u64),
    Poke,
}

/// Live gauges describing the async client runtime on one compute node,
/// registered as `cn<i>.runtime.inflight` / `.parked` / `.tasks`. Shared
/// (clone-handle) between the node and every executor driver it hosts, so
/// values aggregate across a CN's processes.
#[derive(Debug, Clone, Default)]
pub struct RuntimeGauges {
    /// Operations submitted (or holding a submission credit) and not yet
    /// completed.
    pub inflight: Gauge,
    /// Submitters parked because the in-flight budget is exhausted.
    pub parked: Gauge,
    /// Live executor tasks.
    pub tasks: Gauge,
}

impl RuntimeGauges {
    /// Adds `d` to a gauge (single-threaded, so read-modify-write is fine).
    pub(crate) fn bump(g: &Gauge, d: i64) {
        g.set(g.get().saturating_add_signed(d));
    }
}

struct NodeCore {
    nic: NicPort,
    clib: CLib,
    router: RasRouter,
    controller: ActorId,
    mn_macs: Vec<Mac>,
    driver_pids: Vec<Pid>,
    app_ops: HashMap<AppToken, HostOp>,
    token_map: HashMap<OpToken, AppToken>,
    next_app_token: u64,
    next_tag: u64,
    pending_placements: HashMap<u64, AppToken>,
    pending_routes: HashMap<u64, AppToken>,
    events: VecDeque<(usize, DriverEvent)>,
    max_moved_retries: u32,
    /// Per-process in-flight submission budget executor drivers enforce.
    runtime_budget: usize,
    runtime_gauges: RuntimeGauges,
    /// Ops resolved with `DeadlineExceeded` by `ClientApi::cancel`.
    deadline_exceeded: Counter,
}

impl NodeCore {
    fn fresh_token(&mut self) -> AppToken {
        self.next_app_token += 1;
        AppToken(self.next_app_token)
    }

    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Issues (or re-issues) the stored op for `token`.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, token: AppToken) {
        let Some(host_op) = self.app_ops.get_mut(&token) else { return };
        let (driver, pid) = (host_op.driver, host_op.pid);
        let thread = ThreadId(driver as u64);
        match &host_op.spec {
            OpSpec::Alloc { size, .. } => {
                // Placement is the controller's call.
                let tag = {
                    let size = *size;
                    let tag = self.fresh_tag();
                    let msg = PlaceAlloc { pid, size, reply_to: ctx.self_id(), tag };
                    ctx.send(self.controller, SimDuration::from_micros(1), Message::new(msg));
                    tag
                };
                self.pending_placements.insert(tag, token);
            }
            OpSpec::Fence => {
                // Fence every MN the process might touch.
                let spec = host_op.spec.clone();
                host_op.fanout = self.mn_macs.len() as u32;
                let mut queued_since = host_op.queued_since.take();
                for mac in self.mn_macs.clone() {
                    // Only the first sub-submission carries the arrival
                    // attribution; the rest start at `now`.
                    self.clib.set_queued_since(queued_since.take());
                    let op = spec.to_op(pid, mac);
                    let (t, comps) = self.clib.submit(ctx, &mut self.nic, thread, op);
                    self.token_map.insert(t, token);
                    self.enqueue_clib_completions(ctx, comps);
                }
            }
            spec => {
                let mn = match spec.route_range() {
                    Some((va, len)) => match self.router.lookup(pid, va, len) {
                        Route::Owned(m) => m,
                        verdict => {
                            // Unroutable: fail fast with a typed error —
                            // spanning accesses must never be guessed onto
                            // the start VA's owner.
                            let result = match verdict {
                                Route::Spans => Err(ClioError::SpansOwners { va, len }),
                                _ => Err(ClioError::Remote(clio_proto::Status::InvalidAddr)),
                            };
                            let issued_at = host_op.issued_at;
                            self.events.push_back((
                                driver,
                                DriverEvent::Completion(AppCompletion {
                                    token,
                                    result,
                                    issued_at,
                                    completed_at: ctx.now(),
                                }),
                            ));
                            self.app_ops.remove(&token);
                            return;
                        }
                    },
                    None => match spec {
                        OpSpec::Offload { mn, .. } => *mn,
                        _ => self.mn_macs.first().copied().expect("at least one MN"),
                    },
                };
                let op = spec.to_op(pid, mn);
                self.submit(ctx, token, op);
            }
        }
    }

    /// Submits `op` to CLib as the current attempt of `token`: attributes
    /// the op's arrival (first attempt only) and queues any immediate
    /// completions.
    fn submit(&mut self, ctx: &mut Ctx<'_>, token: AppToken, op: Op) {
        let Some(host_op) = self.app_ops.get_mut(&token) else { return };
        let thread = ThreadId(host_op.driver as u64);
        self.clib.set_queued_since(host_op.queued_since.take());
        let (t, comps) = self.clib.submit(ctx, &mut self.nic, thread, op);
        self.token_map.insert(t, token);
        self.enqueue_clib_completions(ctx, comps);
    }

    /// Issues a vector of routable data ops (reads/writes) as one
    /// scatter/gather submission: every op is routed individually, then the
    /// whole batch is handed to CLib's `submit_many`, which bypasses the
    /// transport doorbell's same-instant heuristics. Unroutable entries
    /// fail fast with `InvalidAddr` without sinking the rest.
    fn dispatch_vec(&mut self, ctx: &mut Ctx<'_>, driver: usize, tokens: &[AppToken]) {
        let thread = ThreadId(driver as u64);
        let mut ops = Vec::with_capacity(tokens.len());
        let mut routed = Vec::with_capacity(tokens.len());
        let mut queued_since = None;
        for &token in tokens {
            let Some(host_op) = self.app_ops.get_mut(&token) else { continue };
            if let Some(a) = host_op.queued_since.take() {
                queued_since.get_or_insert(a);
            }
            let pid = host_op.pid;
            let (va, len) = host_op.spec.route_range().expect("vector ops address memory");
            match self.router.lookup(pid, va, len) {
                Route::Owned(mn) => {
                    ops.push(host_op.spec.to_op(pid, mn));
                    routed.push(token);
                }
                verdict => {
                    let result = match verdict {
                        Route::Spans => Err(ClioError::SpansOwners { va, len }),
                        _ => Err(ClioError::Remote(clio_proto::Status::InvalidAddr)),
                    };
                    let issued_at = host_op.issued_at;
                    self.events.push_back((
                        driver,
                        DriverEvent::Completion(AppCompletion {
                            token,
                            result,
                            issued_at,
                            completed_at: ctx.now(),
                        }),
                    ));
                    self.app_ops.remove(&token);
                }
            }
        }
        self.clib.set_queued_since(queued_since);
        let (clib_tokens, comps) = self.clib.submit_many(ctx, &mut self.nic, thread, ops);
        for (t, app) in clib_tokens.into_iter().zip(routed) {
            self.token_map.insert(t, app);
        }
        self.enqueue_clib_completions(ctx, comps);
    }

    /// Converts CLib completions into executor events, handling Moved
    /// re-routing, alloc notifications and fence fan-in.
    fn enqueue_clib_completions(&mut self, ctx: &mut Ctx<'_>, comps: Vec<Completion>) {
        for c in comps {
            let Some(app_token) = self.token_map.remove(&c.token) else { continue };
            let Some(host_op) = self.app_ops.get_mut(&app_token) else { continue };

            // Transparent re-route on Moved.
            if c.result == Err(ClioError::Moved) && host_op.moved_retries < self.max_moved_retries {
                host_op.moved_retries += 1;
                if let Some((va, len)) = host_op.spec.route_range() {
                    let pid = host_op.pid;
                    let tag = self.fresh_tag();
                    self.pending_routes.insert(tag, app_token);
                    let q = RouteQuery { pid, va, len, reply_to: ctx.self_id(), tag };
                    ctx.send(self.controller, SimDuration::from_micros(1), Message::new(q));
                    continue;
                }
            }

            // Fence fan-in: deliver only the last sub-completion.
            if host_op.fanout > 1 {
                host_op.fanout -= 1;
                continue;
            }

            let host_op = self.app_ops.remove(&app_token).expect("present");
            // Successful allocations are reported to the controller.
            let pid = host_op.pid;
            if let (OpSpec::Alloc { size, .. }, Ok(CompletionValue::Va(va))) =
                (&host_op.spec, &c.result)
            {
                let Route::Owned(mn) = self.router.lookup(pid, *va, *size) else {
                    panic!("allocated range must be routable to one MN")
                };
                let n = AllocNotify { pid, va: *va, len: *size, mn };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            if let (OpSpec::Free { va, .. }, Ok(_)) = (&host_op.spec, &c.result) {
                let n = FreeNotify { pid, va: *va };
                ctx.send(self.controller, SimDuration::from_micros(1), Message::new(n));
            }
            self.events.push_back((
                host_op.driver,
                DriverEvent::Completion(AppCompletion {
                    token: app_token,
                    result: c.result,
                    issued_at: host_op.issued_at,
                    completed_at: c.completed_at,
                }),
            ));
        }
    }
}

/// The node-side surface an [`ExecDriver`] issues its ops through, for the
/// duration of one callback.
pub(crate) struct ClientApi<'a, 'b> {
    core: &'a mut NodeCore,
    ctx: &'a mut Ctx<'b>,
    driver: usize,
}

impl ClientApi<'_, '_> {
    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// A fresh host-side record for `spec`, issued by this driver with the
    /// given arrival time (clamped to `now`): `issued_at` (and the trace
    /// origin) start there, and the wait until actual submission is
    /// attributed to the `SubmitQueued` stage.
    fn host_op(&self, spec: OpSpec, arrival: SimTime) -> HostOp {
        let now = self.ctx.now();
        let arrival = arrival.min(now);
        HostOp {
            driver: self.driver,
            pid: self.core.driver_pids[self.driver],
            spec,
            issued_at: arrival,
            moved_retries: 0,
            fanout: 1,
            queued_since: (arrival < now).then_some(arrival),
        }
    }

    /// Issues one op that arrived at `arrival`.
    pub(crate) fn issue(&mut self, spec: OpSpec, arrival: SimTime) -> AppToken {
        let token = self.core.fresh_token();
        let host_op = self.host_op(spec, arrival);
        self.core.app_ops.insert(token, host_op);
        self.core.dispatch(self.ctx, token);
        token
    }

    /// Issues a vector of reads/writes as one scatter/gather submission:
    /// the whole vector goes to the transport as one unit, so the entries
    /// coalesce into batch frames regardless of doorbell timing. Returns
    /// one token per entry, in order; each completes independently.
    pub(crate) fn issue_vec(&mut self, specs: Vec<OpSpec>, arrival: SimTime) -> Vec<AppToken> {
        let tokens: Vec<AppToken> = specs
            .into_iter()
            .map(|spec| {
                let token = self.core.fresh_token();
                let host_op = self.host_op(spec, arrival);
                self.core.app_ops.insert(token, host_op);
                token
            })
            .collect();
        self.core.dispatch_vec(self.ctx, self.driver, &tokens);
        tokens
    }

    /// Arms a timer delivering [`ExecDriver`]'s timer callback with `tag`.
    pub(crate) fn wake_in(&mut self, delay: SimDuration, tag: u64) {
        let driver = self.driver;
        self.ctx.schedule(delay, Message::new(Wake { driver, tag }));
    }

    /// Cancels an outstanding op: it completes now with
    /// [`ClioError::DeadlineExceeded`], its transport window credit is
    /// released (no congestion signal — abandonment is not loss), and a
    /// `Cancelled` stage ends its trace. Sub-submissions of a fanned-out
    /// fence are all cancelled; an op still parked at the controller
    /// (placement or route query) is failed directly. Does nothing if the
    /// op already completed — cancellation is best-effort and never
    /// un-completes a finished op.
    pub(crate) fn cancel(&mut self, token: AppToken) {
        if !self.core.app_ops.contains_key(&token) {
            return;
        }
        self.core.deadline_exceeded.inc();
        let clib_tokens: Vec<OpToken> =
            self.core.token_map.iter().filter(|(_, a)| **a == token).map(|(t, _)| *t).collect();
        if clib_tokens.is_empty() {
            // Never reached CLib: the op is waiting on a controller reply.
            // Drop the pending request and fail the op host-side.
            self.core.pending_placements.retain(|_, t| *t != token);
            self.core.pending_routes.retain(|_, t| *t != token);
            let host_op = self.core.app_ops.remove(&token).expect("checked above");
            self.core.events.push_back((
                host_op.driver,
                DriverEvent::Completion(AppCompletion {
                    token,
                    result: Err(ClioError::DeadlineExceeded),
                    issued_at: host_op.issued_at,
                    completed_at: self.ctx.now(),
                }),
            ));
        } else {
            let mut comps = Vec::new();
            for t in clib_tokens {
                comps.extend(self.core.clib.cancel(self.ctx, &mut self.core.nic, t));
            }
            self.core.enqueue_clib_completions(self.ctx, comps);
        }
    }

    /// This node's shared runtime gauges (in-flight / parked / tasks).
    pub(crate) fn runtime_gauges(&self) -> RuntimeGauges {
        self.core.runtime_gauges.clone()
    }

    /// The per-process in-flight submission budget executors enforce.
    pub(crate) fn inflight_budget(&self) -> usize {
        self.core.runtime_budget
    }
}

/// The compute-node actor.
pub struct ComputeNode {
    name: String,
    core: NodeCore,
    drivers: Vec<ExecDriver>,
}

impl ComputeNode {
    /// Builds a compute node. `slices` is the RAS routing table
    /// (base, span, owner-MAC per MN).
    #[allow(clippy::too_many_arguments)] // assembled once, by the cluster builder
    pub fn new(
        name: impl Into<String>,
        cn_index: usize,
        nic: NicPort,
        clib_cfg: CLibConfig,
        page_size: u64,
        controller: ActorId,
        slices: Vec<(u64, u64, Mac)>,
        mn_macs: Vec<Mac>,
    ) -> Self {
        ComputeNode {
            name: name.into(),
            core: NodeCore {
                clib: CLib::new(clib_cfg, cn_index as u64 + 1, page_size),
                nic,
                router: RasRouter { slices, exceptions: Vec::new() },
                controller,
                mn_macs,
                driver_pids: Vec::new(),
                app_ops: HashMap::new(),
                token_map: HashMap::new(),
                next_app_token: 0,
                next_tag: 0,
                pending_placements: HashMap::new(),
                pending_routes: HashMap::new(),
                events: VecDeque::new(),
                max_moved_retries: 8,
                runtime_budget: DEFAULT_INFLIGHT_BUDGET,
                runtime_gauges: RuntimeGauges::default(),
                deadline_exceeded: Counter::default(),
            },
            drivers: Vec::new(),
        }
    }

    /// Hosts `driver` as process `pid`. Returns its index.
    pub(crate) fn add_driver(&mut self, pid: Pid, driver: ExecDriver) -> usize {
        self.core.driver_pids.push(pid);
        self.drivers.push(driver);
        self.drivers.len() - 1
    }

    /// The CLib instance (stats inspection).
    pub fn clib(&self) -> &CLib {
        &self.core.clib
    }

    /// Injects a live span collector into this node's CLib and transport;
    /// subsequent ops stitch their host-side stages onto `track`.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.core.clib.set_tracer(tracer, track);
    }

    /// Shares the node's live CLib/transport counters with `registry`
    /// under `<prefix>.clib.*` / `<prefix>.transport.*`, plus the async
    /// runtime gauges under `<prefix>.runtime.*`.
    pub fn register_metrics(&self, registry: &mut Registry, prefix: &str) {
        self.core.clib.register_metrics(registry, prefix);
        let g = &self.core.runtime_gauges;
        registry.register_gauge(format!("{prefix}.runtime.inflight"), g.inflight.clone());
        registry.register_gauge(format!("{prefix}.runtime.parked"), g.parked.clone());
        registry.register_gauge(format!("{prefix}.runtime.tasks"), g.tasks.clone());
        registry.register_counter(
            format!("{prefix}.runtime.deadline_exceeded_total"),
            self.core.deadline_exceeded.clone(),
        );
    }

    /// Overrides the per-process in-flight submission budget (backpressure
    /// window) enforced by the executors on this node.
    pub fn set_runtime_budget(&mut self, budget: usize) {
        self.core.runtime_budget = budget.max(1);
    }

    /// This node's link-layer address (per-port fabric stats lookups).
    pub fn mac(&self) -> Mac {
        self.core.nic.mac()
    }

    /// The MN this node would route a `len`-byte access at `(pid, va)` to
    /// right now — `None` when the address is unknown or the access spans
    /// owners. Test/diagnostic accessor for the routing cache.
    pub fn route_of(&self, pid: Pid, va: u64, len: u64) -> Option<Mac> {
        match self.core.router.lookup(pid, va, len) {
            Route::Owned(mac) => Some(mac),
            _ => None,
        }
    }

    /// Borrows the executor at driver index `idx` (the index
    /// [`Cluster::spawn`](crate::Cluster::spawn) returned), named by type:
    /// `cn.driver::<ExecDriver>(idx)`.
    ///
    /// # Panics
    ///
    /// Panics on a bad index, or if `D` is not [`ExecDriver`].
    pub fn driver<D: std::any::Any>(&self, idx: usize) -> &D {
        let any: &dyn std::any::Any = &self.drivers[idx];
        any.downcast_ref::<D>().expect("a compute node hosts only ExecDrivers")
    }

    /// Drains queued executor events, letting tasks issue follow-up ops.
    fn pump_events(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((idx, ev)) = self.core.events.pop_front() {
            let mut api = ClientApi { core: &mut self.core, ctx, driver: idx };
            let driver = &mut self.drivers[idx];
            match ev {
                DriverEvent::Completion(c) => driver.on_completion(&mut api, c),
                DriverEvent::Timer(tag) => driver.on_timer(&mut api, tag),
                DriverEvent::Poke => driver.on_poke(&mut api),
            }
        }
    }
}

impl Actor for ComputeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<StartClients>() {
            Ok(_) => {
                for (idx, driver) in self.drivers.iter_mut().enumerate() {
                    driver.on_start(&mut ClientApi { core: &mut self.core, ctx, driver: idx });
                }
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Frame>() {
            Ok(frame) => {
                let comps = self.core.clib.on_frame(ctx, &mut self.core.nic, frame);
                self.core.enqueue_clib_completions(ctx, comps);
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Wake>() {
            Ok(w) => {
                self.core.events.push_back((w.driver, DriverEvent::Timer(w.tag)));
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PokeDriver>() {
            Ok(p) => {
                self.core.events.push_back((p.driver, DriverEvent::Poke));
                self.pump_events(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PlacementReply>() {
            Ok(p) => {
                if let Some(token) = self.core.pending_placements.remove(&p.tag) {
                    if let Some(host_op) = self.core.app_ops.get(&token) {
                        let op = host_op.spec.to_op(host_op.pid, p.mn);
                        self.core.submit(ctx, token, op);
                        self.pump_events(ctx);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteReply>() {
            Ok(r) => {
                if let Some(token) = self.core.pending_routes.remove(&r.tag) {
                    match (r.mn, self.core.app_ops.get(&token)) {
                        (Some(mac), Some(host_op)) => {
                            if let Some((va, len)) = host_op.spec.route_range() {
                                // Cache an access-sized exception; the
                                // controller's RouteUpdate broadcast widens
                                // it to the whole migrated range.
                                let pid = host_op.pid;
                                self.core.router.add_exception(pid, va, len.max(1), mac);
                            }
                            self.core.dispatch(ctx, token);
                        }
                        (None, Some(host_op)) => {
                            // The controller either lost track of the range
                            // or reports it straddling two owners.
                            let result = match host_op.spec.route_range() {
                                Some((va, len)) if r.spans => {
                                    Err(ClioError::SpansOwners { va, len })
                                }
                                _ => Err(ClioError::Moved),
                            };
                            let ev = DriverEvent::Completion(AppCompletion {
                                token,
                                result,
                                issued_at: host_op.issued_at,
                                completed_at: ctx.now(),
                            });
                            let driver = host_op.driver;
                            self.core.app_ops.remove(&token);
                            self.core.events.push_back((driver, ev));
                        }
                        _ => {}
                    }
                    self.pump_events(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RouteUpdate>() {
            Ok(u) => {
                // A migration committed somewhere in the cluster: refresh
                // this node's routing cache so the next op targets the new
                // owner directly instead of eating a Moved refusal.
                self.core.router.apply_update(u.pid, u.start, u.len, u.mn);
                return;
            }
            Err(m) => m,
        };
        // Anything else is a CLib timer.
        let (comps, leftover) = self.core.clib.on_timer(ctx, &mut self.core.nic, msg);
        if let Some(m) = leftover {
            panic!("ComputeNode {} got unexpected message {m:?}", self.name);
        }
        self.core.enqueue_clib_completions(ctx, comps);
        self.pump_events(ctx);
    }
}
