//! The connectionless reliable transport (paper §4.4–4.5).
//!
//! Everything a conventional reliable transport keeps at *both* ends lives
//! only here, at the CN: the retransmission buffer (request blueprints), the
//! request-id space, timeout timers, congestion windows and the incast
//! window. Reliability is lifted to the **memory-request level**: any lost,
//! corrupted (NACKed) or unanswered packet causes the whole request to be
//! retried under a fresh id carrying `retry_of`, which the MN's dedup buffer
//! uses to suppress double execution of non-idempotent operations.
//!
//! # Request batching (doorbell coalescing)
//!
//! With batching enabled (`batch_max_ops > 1`, the default), [`send`]
//! enqueues the request and rings a *doorbell* instead of transmitting
//! immediately; when the doorbell fires, every queued request drains
//! through a single pump. The pump packs admitted small same-MN requests
//! (single-packet reads, writes, and atomics) into [`ClioPacket::Batch`]
//! frames under the `batch_max_ops`/MTU budgets, saving one Ethernet
//! framing overhead per coalesced request. Each batched request keeps its
//! own request id, congestion/incast window slot, retry timer, and
//! blueprint: timeouts, NACK retries (`retry_of` dedup), and completions
//! are indistinguishable from the unbatched wire protocol. A
//! lone admitted request is framed as a plain `Request`, byte-identical to
//! `batch_max_ops = 1`.
//!
//! The doorbell's delay is **load-adaptive**, bounded by a latency budget
//! that is itself **RTT-derived**: `srtt / 4` of the congestion window's
//! EWMA-smoothed RTT toward that MN (capped by
//! `CLibConfig::DOORBELL_DERIVED_CAP`, zero before the first RTT sample),
//! so the hold self-calibrates: always a small fraction of what the
//! application already waits per request. Within the budget the doorbell
//! holds for the observed inter-submission gap times the free batch slots
//! ([`clio_net::doorbell`], the same policy as the MN's egress doorbell),
//! and fires immediately when a full batch is queued or the transport has
//! no recent-traffic history.
//!
//! Retransmissions re-coalesce too: retries queued in the same pump — e.g.
//! several timers for one MN expiring at the same instant after a lost
//! batch frame, or the entries of one [`ClioPacket::BatchNack`] — share
//! [`ClioPacket::Batch`] frames through a dedicated zero-delay retry
//! doorbell, packed by the same routine as first sends. The retry doorbell
//! bypasses the window machinery (retries keep the slots of the requests
//! they replace) while preserving each entry's `retry_of` dedup chain. A corrupted batch frame therefore recovers symmetrically:
//! one `BatchNack` frame back, one coalesced retry frame forward.
//!
//! [`send_many`] bypasses the doorbell heuristics entirely: the caller
//! hands the transport an explicit op vector (CLib's `rread_v`/`rwrite_v`
//! scatter/gather API) which is queued and pumped as one unit.
//!
//! # Invariants
//!
//! The following hold at every event boundary (between any two messages
//! the host actor delivers to the transport) and are checked exhaustively
//! by the `clio_mc` bounded model checker via
//! [`Transport::check_invariants`], plus sampled by the proptests in
//! `tests/equivalence.rs` and `tests/transport_window.rs`:
//!
//! 1. **Window accounting.** The incast window's in-flight byte count
//!    equals the sum of `expected_bytes` over all outstanding requests,
//!    and each MN's congestion window holds exactly one slot per
//!    outstanding request toward that MN. Retries keep the slots of the
//!    requests they replace; parked conflicts hold **no** window slots
//!    (both windows are released before parking and re-acquired when the
//!    request rejoins the send queue).
//! 2. **Request-id freshness.** Every transmission — first attempt or
//!    retry — uses a fresh id from a strictly monotonic per-CN counter;
//!    no id is ever reused on the wire. Retries of non-idempotent
//!    requests carry `retry_of` naming the chain's **first** id (the
//!    original attempt), never an intermediate retry: an intermediate
//!    attempt may be lost before the MN sees it, and only the first id is
//!    guaranteed to be in the MN's dedup buffer if the original executed.
//!    (The model checker caught the predecessor-linked variant of this
//!    re-executing an atomic; see `tests/mc_regressions.rs`.)
//! 3. **Single completion.** Each submitted token completes exactly once
//!    (success, remote error, or `TimedOut` after `max_retries`
//!    exhausted attempts), regardless of how many duplicates, stale
//!    responses or stale NACKs arrive afterwards — those are dropped by
//!    the outstanding-id lookup.
//! 4. **Quiescence drains everything.** Once every token has completed
//!    and no frame or timer is in flight, `in_flight`, `queued`,
//!    `parked` and `incast_in_flight` are all zero: no orphaned window
//!    slots, queued sends, or parked conflicts survive.
//!
//! [`send`]: Transport::send
//! [`send_many`]: Transport::send_many

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use clio_net::doorbell::{self, GapEwma};
use clio_net::{Mac, NicPort};
use clio_proto::{
    codec, split_write, ClioPacket, FrameBuilder, Perm, Pid, Reassembler, ReqHeader, ReqId,
    RequestBody, RespHeader, ResponseBody, Status, ETH_OVERHEAD_BYTES, MAX_WRITE_FRAG_PAYLOAD,
};
use clio_sim::{Ctx, EventId, Fnv, Message, SimDuration, SimTime};
use clio_trace::metrics::{Counter, Gauge, Registry};
use clio_trace::{Stage, TraceCtx, Tracer, Track};

use crate::config::CLibConfig;
use crate::congestion::{CongestionWindow, IncastWindow};
use crate::error::ClioError;

/// Caller-side handle for one in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XferToken(pub u64);

/// Retry-timeout allowance per byte a request moves itself (≈0.4 Gbps).
const TIMEOUT_NS_PER_BYTE: u64 = 20;

/// Retry-timeout allowance per byte of the CN's *other* in-flight payload
/// toward the same MN (≈4 Gbps): 2.5× the time those bytes take to drain
/// through a 10 Gbps MN port, headroom for other CNs sharing that port.
const QUEUED_NS_PER_BYTE: u64 = 2;

/// Cap on the queued-payload allowance of a write or atomic, in units of
/// `request_timeout`. A retried non-idempotent request is safe only while
/// the MN's dedup buffer still holds its original, and that buffer is sized
/// for `3 × TIMEOUT` of traffic (§4.5 T4), so a small write or atomic never
/// waits longer than that before it retries.
const QUEUED_TIMEOUTS_MAX: u64 = 2;

/// How to (re)build the packets of a request — the CN-side retransmission
/// state (§4.4 "maintain transport logic, state, and data buffers only at
/// CNs").
#[derive(Debug, Clone, Hash)]
pub enum Blueprint {
    /// `rread`.
    Read {
        /// Start address.
        va: u64,
        /// Bytes to read.
        len: u32,
    },
    /// `rwrite` (split over MTU packets on build).
    Write {
        /// Start address.
        va: u64,
        /// Payload.
        data: Bytes,
    },
    /// One 8-byte atomic.
    Atomic {
        /// Word address.
        va: u64,
        /// Operation.
        op: AtomicKind,
    },
    /// Remote fence.
    Fence,
    /// Slow-path allocation.
    Alloc {
        /// Requested bytes.
        size: u64,
        /// Permissions.
        perm: Perm,
        /// Optional fixed placement.
        fixed_va: Option<u64>,
    },
    /// Slow-path free.
    Free {
        /// Range start.
        va: u64,
        /// Range length.
        size: u64,
    },
    /// Address-space creation.
    CreateAs,
    /// Address-space teardown.
    DestroyAs,
    /// Extend-path invocation.
    Offload {
        /// Installed offload id.
        offload: u16,
        /// Offload-defined opcode.
        opcode: u16,
        /// Argument bytes.
        arg: Bytes,
    },
}

/// Atomic operation kinds carried by [`Blueprint::Atomic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicKind {
    /// Test-and-set to 1.
    Tas,
    /// Store a value.
    Store(u64),
    /// Compare-and-swap.
    Cas {
        /// Expected value.
        expected: u64,
        /// New value.
        new: u64,
    },
    /// Fetch-and-add.
    Faa(u64),
}

impl Blueprint {
    fn build(&self, req_id: ReqId, retry_of: Option<ReqId>, pid: Pid) -> Vec<ClioPacket> {
        let single = |body: RequestBody| {
            vec![ClioPacket::Request {
                // Trace and srtt echo are stamped post-build by
                // `Transport::annotate`.
                header: ReqHeader {
                    req_id,
                    retry_of,
                    pid,
                    pkt_index: 0,
                    pkt_count: 1,
                    trace: None,
                    srtt_echo_ns: None,
                },
                body,
            }]
        };
        match self {
            Blueprint::Read { va, len } => single(RequestBody::Read { va: *va, len: *len }),
            Blueprint::Write { va, data } => split_write(req_id, retry_of, pid, *va, data.clone()),
            Blueprint::Atomic { va, op } => single(match op {
                AtomicKind::Tas => RequestBody::AtomicTas { va: *va },
                AtomicKind::Store(v) => RequestBody::AtomicStore { va: *va, value: *v },
                AtomicKind::Cas { expected, new } => {
                    RequestBody::AtomicCas { va: *va, expected: *expected, new: *new }
                }
                AtomicKind::Faa(d) => RequestBody::AtomicFaa { va: *va, delta: *d },
            }),
            Blueprint::Fence => single(RequestBody::Fence),
            Blueprint::Alloc { size, perm, fixed_va } => {
                single(RequestBody::Alloc { size: *size, perm: *perm, fixed_va: *fixed_va })
            }
            Blueprint::Free { va, size } => single(RequestBody::Free { va: *va, size: *size }),
            Blueprint::CreateAs => single(RequestBody::CreateAs),
            Blueprint::DestroyAs => single(RequestBody::DestroyAs),
            Blueprint::Offload { offload, opcode, arg } => single(RequestBody::OffloadCall {
                offload: *offload,
                opcode: *opcode,
                arg: arg.clone(),
            }),
        }
    }

    /// Expected response payload bytes (drives the incast window).
    fn expected_response_bytes(&self) -> u64 {
        match self {
            Blueprint::Read { len, .. } => *len as u64 + 64,
            Blueprint::Offload { .. } => 256,
            _ => 64,
        }
    }

    /// Request payload bytes (large writes take long to even transmit).
    fn payload_bytes(&self) -> u64 {
        match self {
            Blueprint::Write { data, .. } => data.len() as u64,
            Blueprint::Offload { arg, .. } => arg.len() as u64,
            _ => 0,
        }
    }

    /// The retry timeout on an otherwise idle path: the base (multiplied
    /// for slow-path ops) plus a conservative [`TIMEOUT_NS_PER_BYTE`]
    /// (≈0.4 Gbps) allowance for the bytes this request moves in either
    /// direction, so multi-MTU transfers are not spuriously retried even
    /// under congestion (the congestion window's per-byte target of
    /// 10 ns/byte keeps queueing below this). Bytes of the CN's *other*
    /// in-flight requests are budgeted on top by
    /// [`Transport::timeout_for`].
    fn timeout(&self, base: SimDuration) -> SimDuration {
        let bytes = self.payload_bytes() + self.expected_response_bytes();
        base * self.timeout_multiplier() + SimDuration::from_nanos(bytes * TIMEOUT_NS_PER_BYTE)
    }

    /// True if a retry must carry `retry_of` for MN-side deduplication.
    fn is_non_idempotent(&self) -> bool {
        matches!(self, Blueprint::Write { .. } | Blueprint::Atomic { .. })
    }

    /// True for requests eligible to share a batch frame: data-plane
    /// operations that encode as exactly one packet. Slow-path, fence, and
    /// extend-path requests always travel alone.
    fn is_batchable(&self) -> bool {
        match self {
            Blueprint::Read { .. } | Blueprint::Atomic { .. } => true,
            Blueprint::Write { data, .. } => data.len() <= MAX_WRITE_FRAG_PAYLOAD,
            _ => false,
        }
    }

    /// True for data-plane operations whose RTT is a valid congestion
    /// signal. Slow-path and extend-path operations embed ARM/software
    /// service time in their RTTs, so they must not drive the delay-based
    /// window (they still consume and release window slots).
    fn is_congestion_signal(&self) -> bool {
        matches!(
            self,
            Blueprint::Read { .. }
                | Blueprint::Write { .. }
                | Blueprint::Atomic { .. }
                | Blueprint::Fence
        )
    }

    /// Short kind name surfaced in error context (`ClioError::TimedOut`).
    pub fn kind(&self) -> &'static str {
        match self {
            Blueprint::Read { .. } => "read",
            Blueprint::Write { .. } => "write",
            Blueprint::Atomic { .. } => "atomic",
            Blueprint::Fence => "fence",
            Blueprint::Alloc { .. } => "alloc",
            Blueprint::Free { .. } => "free",
            Blueprint::CreateAs => "create_as",
            Blueprint::DestroyAs => "destroy_as",
            Blueprint::Offload { .. } => "offload",
        }
    }

    /// Slow-path and extend-path operations inherently take tens of
    /// microseconds to milliseconds (ARM crossing, software service,
    /// offload chains), so their retry timers are much longer than the
    /// fast-path timeout that sizes the dedup buffer.
    fn timeout_multiplier(&self) -> u64 {
        match self {
            Blueprint::Alloc { .. }
            | Blueprint::Free { .. }
            | Blueprint::CreateAs
            | Blueprint::DestroyAs => 100,
            Blueprint::Offload { .. } => 400,
            Blueprint::Fence => 20,
            _ => 1,
        }
    }
}

/// The value delivered on success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XferValue {
    /// Read data / offload reply payload.
    Data(Bytes),
    /// Plain acknowledgment.
    Done,
    /// Allocation result.
    Va(u64),
    /// Atomic old value.
    Old(u64),
}

/// What the transport reports upward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XferDone {
    /// The request's token.
    pub token: XferToken,
    /// Result.
    pub result: Result<XferValue, ClioError>,
    /// Measured request RTT (first send to completion).
    pub rtt: SimDuration,
}

/// Timer messages the transport schedules on its host actor; the host must
/// route them back via [`Transport::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportTimer {
    /// Retransmission timeout for a request.
    Timeout(ReqId),
    /// A queued send may now fit the (paced) window.
    Pump(Mac),
    /// Queued retransmissions toward an MN may now coalesce and ship.
    RetryPump(Mac),
    /// Re-issue a request refused with `Conflict`.
    ConflictRetry(XferToken),
    /// An open circuit breaker toward an MN may move to half-open and let
    /// a probe through.
    BreakerProbe(Mac),
}

/// Circuit-breaker state toward one MN (§ failure model). `Closed` is
/// normal operation; `Open` fails ops fast with `ClioError::Unreachable`;
/// `HalfOpen` lets queued ops through as probes — one success closes the
/// breaker, one more timeout re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum BreakerState {
    /// Normal operation: ops flow, timeouts are counted.
    #[default]
    Closed,
    /// Presumed dead: ops fail fast until a probe succeeds.
    Open,
    /// Probing: the next completed op decides open vs closed.
    HalfOpen,
}

/// Liveness bookkeeping toward one MN. Only attempt-level timeouts count
/// against a board: a NACK (corruption) proves the board is alive and
/// resets the streak just like a response does.
#[derive(Debug, Clone, Default)]
struct PeerHealth {
    consecutive_timeouts: u32,
    state: BreakerState,
}

#[derive(Debug, Clone)]
struct Outstanding {
    token: XferToken,
    target: Mac,
    pid: Pid,
    blueprint: Blueprint,
    expected_bytes: u64,
    /// Id of the request's FIRST attempt — the root of the `retry_of`
    /// chain. Every retry's `retry_of` points here, never at an
    /// intermediate attempt: an intermediate retry can be lost or
    /// corrupted before the MN sees it, so a predecessor-linked chain
    /// would leave the MN's dedup record (keyed by the ids it has actually
    /// seen) unreachable and a non-idempotent op would re-execute.
    origin: ReqId,
    attempt_sent_at: SimTime,
    first_sent_at: SimTime,
    retries: u32,
    conflict_retries: u32,
    timer: Option<EventId>,
    /// Observability context for this op (attempt number advances on every
    /// retry). `None` when tracing is disabled or the op was not sampled.
    trace: Option<TraceCtx>,
}

#[derive(Debug, Clone)]
struct QueuedSend {
    token: XferToken,
    pid: Pid,
    blueprint: Blueprint,
    enqueued_at: SimTime,
    trace: Option<TraceCtx>,
}

/// A deliberately planted transport bug, used **only** by the model
/// checker's self-test: `clio_mc` must demonstrate it can catch a window
/// leak before its clean-search result means anything. Production code
/// paths never set anything but [`McMutation::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McMutation {
    /// The correct transport (the default).
    #[default]
    None,
    /// Skips `Transport::release_windows` when a NACK exhausts the retry
    /// budget: the failed request's congestion-window slot and incast
    /// bytes are never returned, violating invariant 1 (window
    /// accounting) immediately and invariant 4 (quiescence drains
    /// everything) at the end of the run.
    LeakWindowOnNack,
}

/// The batch frame under assembly toward one MN, with the trace contexts
/// of its entries in push order: their pack and NIC-serialization spans are
/// stitched when the shared frame actually leaves.
struct OpenFrame {
    entries: FrameBuilder<(ReqHeader, RequestBody)>,
    traces: Vec<Option<TraceCtx>>,
}

impl OpenFrame {
    fn new(cfg: &CLibConfig) -> Self {
        OpenFrame { entries: FrameBuilder::new(cfg.batch_max_ops as usize), traces: Vec::new() }
    }
}

/// Per-CN transport instance (shared by all processes on the CN, like the
/// kernel-bypass driver in §5).
///
/// # Invariants
///
/// See the [module docs](self) for the four transport invariants (window
/// accounting, request-id freshness, single completion, quiescence drains
/// everything); [`Transport::check_invariants`] verifies the first
/// mechanically and the `clio_mc` model checker enforces all four over
/// every bounded fault interleaving.
#[derive(Debug)]
pub struct Transport {
    cfg: CLibConfig,
    next_req: u64,
    outstanding: HashMap<ReqId, Outstanding>,
    /// Σ request payload bytes over `outstanding`, per target MN.
    payload_in_flight: HashMap<Mac, u64>,
    parked_conflicts: HashMap<XferToken, Outstanding>,
    queues: HashMap<Mac, VecDeque<QueuedSend>>,
    conflict_generations: HashMap<XferToken, u32>,
    cwnds: HashMap<Mac, CongestionWindow>,
    iwnd: IncastWindow,
    reassembler: Reassembler,
    /// MNs with a doorbell (pump) event already scheduled.
    doorbells: HashMap<Mac, EventId>,
    /// Submission-gap history per MN (feeds the adaptive doorbell).
    submit_gaps: HashMap<Mac, GapEwma>,
    /// Retransmissions queued for coalescing: `(new id, retry_of)`.
    retry_queues: HashMap<Mac, Vec<(ReqId, Option<ReqId>)>>,
    /// MNs with a zero-delay retry doorbell already scheduled.
    retry_doorbells: HashSet<Mac>,
    /// Retries performed (for stats).
    pub retry_count: Counter,
    /// Multi-request batch frames sent (for stats).
    pub batch_frames: Counter,
    /// Requests that traveled inside a multi-request batch frame.
    pub batched_ops: Counter,
    /// Wire frames shipped by the retry doorbell (coalesced or not). With
    /// NACK coalescing, a corrupted 16-entry batch should cost one retry
    /// frame here, not sixteen.
    pub retry_frames: Counter,
    /// Per-MN circuit-breaker state (empty while the breaker is disabled,
    /// i.e. `breaker_threshold == 0`).
    health: HashMap<Mac, PeerHealth>,
    /// Breaker trips (Closed/HalfOpen -> Open transitions).
    pub circuit_open_total: Counter,
    /// Number of MNs currently presumed unhealthy (breaker Open or
    /// HalfOpen); clears only on a confirmed success.
    pub peer_health: Gauge,
    /// Planted bug for the model checker's self-test (see [`McMutation`]).
    mutation: McMutation,
    /// Stage-span recorder (disabled by default; see
    /// [`set_tracer`](Self::set_tracer)). Stitching is pure observation: it
    /// never changes what or when the transport sends.
    tracer: Tracer,
    /// The Perfetto track CN-side spans land on.
    track: Track,
}

impl Transport {
    /// Creates a transport whose request ids start from a CN-unique base so
    /// ids never collide across CNs.
    pub fn new(cfg: CLibConfig, cn_id: u64) -> Self {
        Transport {
            iwnd: IncastWindow::new(cfg.iwnd_bytes),
            cfg,
            next_req: cn_id << 40,
            outstanding: HashMap::new(),
            payload_in_flight: HashMap::new(),
            parked_conflicts: HashMap::new(),
            queues: HashMap::new(),
            conflict_generations: HashMap::new(),
            cwnds: HashMap::new(),
            reassembler: Reassembler::new(),
            doorbells: HashMap::new(),
            submit_gaps: HashMap::new(),
            retry_queues: HashMap::new(),
            retry_doorbells: HashSet::new(),
            retry_count: Counter::new(),
            batch_frames: Counter::new(),
            batched_ops: Counter::new(),
            retry_frames: Counter::new(),
            health: HashMap::new(),
            circuit_open_total: Counter::new(),
            peer_health: Gauge::new(),
            mutation: McMutation::None,
            tracer: Tracer::disabled(),
            track: Track::Cn(0),
        }
    }

    /// A deep copy of this transport whose counters, gauge and tracer are
    /// detached from the original's (for forking the host that owns it).
    /// Pending timers keep their event ids, which stay valid in a forked
    /// simulation.
    pub fn fork(&self) -> Self {
        Transport {
            cfg: self.cfg,
            next_req: self.next_req,
            outstanding: self.outstanding.clone(),
            payload_in_flight: self.payload_in_flight.clone(),
            parked_conflicts: self.parked_conflicts.clone(),
            queues: self.queues.clone(),
            conflict_generations: self.conflict_generations.clone(),
            cwnds: self.cwnds.clone(),
            iwnd: self.iwnd,
            reassembler: self.reassembler.clone(),
            doorbells: self.doorbells.clone(),
            submit_gaps: self.submit_gaps.clone(),
            retry_queues: self.retry_queues.clone(),
            retry_doorbells: self.retry_doorbells.clone(),
            retry_count: self.retry_count.detached(),
            batch_frames: self.batch_frames.detached(),
            batched_ops: self.batched_ops.detached(),
            retry_frames: self.retry_frames.detached(),
            health: self.health.clone(),
            circuit_open_total: self.circuit_open_total.detached(),
            peer_health: self.peer_health.detached(),
            mutation: self.mutation,
            tracer: self.tracer.detached(),
            track: self.track,
        }
    }

    /// Injects the tracer and the CN track this transport stitches spans
    /// onto. Leaving the default ([`Tracer::disabled`]) keeps every stitch
    /// a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Registers the transport's counters into `registry` under
    /// `<prefix>.transport.*`. The registry shares the live handles, so
    /// snapshots and resets stay in lockstep with the public fields.
    pub fn register_metrics(&self, registry: &mut Registry, prefix: &str) {
        registry.register_counter(format!("{prefix}.transport.retries"), self.retry_count.clone());
        registry.register_counter(
            format!("{prefix}.transport.batch_frames"),
            self.batch_frames.clone(),
        );
        registry
            .register_counter(format!("{prefix}.transport.batched_ops"), self.batched_ops.clone());
        registry.register_counter(
            format!("{prefix}.transport.retry_frames"),
            self.retry_frames.clone(),
        );
        registry.register_counter(
            format!("{prefix}.transport.circuit_open_total"),
            self.circuit_open_total.clone(),
        );
        registry
            .register_gauge(format!("{prefix}.transport.peer_health"), self.peer_health.clone());
    }

    /// Plants (or clears) a deliberate bug for the model checker's
    /// self-test. See [`McMutation`]; production code never calls this.
    pub fn set_mc_mutation(&mut self, mutation: McMutation) {
        self.mutation = mutation;
    }

    fn fresh_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Requests queued for window space.
    pub fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Requests parked awaiting a conflict-retry backoff.
    pub fn parked(&self) -> usize {
        self.parked_conflicts.len()
    }

    /// Expected response bytes currently held by the incast window.
    pub fn incast_in_flight(&self) -> u64 {
        self.iwnd.in_flight()
    }

    /// Checks the window-accounting invariants (invariant 1 of the
    /// [module docs](self)) that must hold at every event boundary:
    ///
    /// * incast in-flight bytes == Σ `expected_bytes` over outstanding
    ///   requests (parked conflicts and queued sends hold no bytes),
    /// * each MN's congestion window holds exactly one slot per
    ///   outstanding request toward it,
    /// * no token is simultaneously parked and outstanding,
    /// * each MN's counted in-flight payload == Σ request payload bytes over
    ///   outstanding requests toward it.
    ///
    /// Returns a human-readable description of the first violation. Called
    /// by the `clio_mc` explorer at every settled state; cheap enough for
    /// tests to call after every delivery.
    pub fn check_invariants(&self) -> Result<(), String> {
        let expected: u64 = self.outstanding.values().map(|o| o.expected_bytes).sum();
        if self.iwnd.in_flight() != expected {
            return Err(format!(
                "incast window holds {} bytes but outstanding requests expect {} \
                 (leaked or double-released incast slots)",
                self.iwnd.in_flight(),
                expected
            ));
        }
        // Per MN: (outstanding requests, their request payload bytes).
        let mut per_mn: HashMap<Mac, (u64, u64)> = HashMap::new();
        for o in self.outstanding.values() {
            let (count, payload) = per_mn.entry(o.target).or_insert((0, 0));
            *count += 1;
            *payload += o.blueprint.payload_bytes();
        }
        for (mac, &bytes) in &self.payload_in_flight {
            let want = per_mn.get(mac).map_or(0, |&(_, payload)| payload);
            if bytes != want {
                return Err(format!(
                    "{bytes} payload bytes counted in flight toward {mac} but outstanding \
                     requests carry {want}"
                ));
            }
        }
        for (mac, cwnd) in &self.cwnds {
            let want = per_mn.get(mac).map_or(0, |&(count, _)| count);
            if cwnd.outstanding() != want {
                return Err(format!(
                    "congestion window toward {mac} holds {} slots but {} requests \
                     are outstanding (leaked or double-released cwnd slots)",
                    cwnd.outstanding(),
                    want
                ));
            }
        }
        for token in self.parked_conflicts.keys() {
            if self.outstanding.values().any(|o| o.token == *token) {
                return Err(format!(
                    "token {token:?} is parked awaiting a conflict retry AND still \
                     outstanding (double-registered request)"
                ));
            }
        }
        Ok(())
    }

    /// An order-insensitive FNV-1a digest of the transport's **logical**
    /// state: outstanding requests (id, token, target, retry counts,
    /// expected bytes, blueprint), queued and parked sends, retry queues,
    /// window slot/byte counts, and the id counter.
    ///
    /// Absolute times (timer deadlines, RTT/gap EWMAs, fractional window
    /// sizes) are deliberately **excluded**: the model checker prunes
    /// states on this digest, and timing-continuous controller state would
    /// make every interleaving hash distinct, defeating pruning. Two
    /// states with equal fingerprints can differ in timing, never in
    /// protocol-visible structure.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.write_unordered(self.outstanding.iter().map(|(id, o)| {
            (id, o.token, o.target, o.retries, o.conflict_retries, o.expected_bytes, &o.blueprint)
        }));
        // Queue order matters, so each queued send hashes with its position.
        h.write_unordered(self.queues.iter().flat_map(|(mac, q)| {
            q.iter().enumerate().map(move |(i, s)| (mac, i, s.token, &s.blueprint))
        }));
        h.write_unordered(self.parked_conflicts.iter().map(|(t, o)| (t, o.conflict_retries)));
        h.write_unordered(
            self.retry_queues.iter().flat_map(|(mac, q)| q.iter().map(move |e| (mac, e))),
        );
        h.write_unordered(self.cwnds.iter().map(|(mac, w)| (mac, w.outstanding())));
        h.write_unordered(
            self.health
                .iter()
                .filter(|(_, ph)| ph.state != BreakerState::Closed || ph.consecutive_timeouts != 0)
                .map(|(mac, ph)| (mac, ph.state, ph.consecutive_timeouts)),
        );
        (self.iwnd.in_flight(), self.next_req).hash(&mut h);
        h.finish()
    }

    fn batching(&self) -> bool {
        self.cfg.batch_max_ops > 1
    }

    /// The congestion window toward `mn` (created on first use).
    pub fn cwnd(&mut self, mn: Mac) -> &mut CongestionWindow {
        let cfg = &self.cfg;
        self.cwnds.entry(mn).or_insert_with(|| CongestionWindow::new(cfg))
    }

    /// True when the circuit breaker toward `mn` is open (ops fail fast).
    pub fn peer_open(&self, mn: Mac) -> bool {
        self.health.get(&mn).is_some_and(|h| h.state == BreakerState::Open)
    }

    /// Recounts the unhealthy-peer gauge (breaker Open or HalfOpen).
    fn refresh_peer_health_gauge(&self) {
        let unhealthy =
            self.health.values().filter(|h| h.state != BreakerState::Closed).count() as u64;
        self.peer_health.set(unhealthy);
    }

    /// Records one attempt-level timeout toward `mn`. Trips the breaker —
    /// Closed at the configured streak, HalfOpen on any timeout — emitting
    /// a `board_down` trace event and scheduling the half-open probe with
    /// seeded jitter (up to a quarter of the backoff) so recovering CNs do
    /// not probe in lockstep. No-op while the breaker is disabled; the
    /// jitter draw only happens on a trip, so disabled runs consume no
    /// randomness.
    fn note_peer_timeout(&mut self, ctx: &mut Ctx<'_>, mn: Mac) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let threshold = self.cfg.breaker_threshold;
        let h = self.health.entry(mn).or_default();
        h.consecutive_timeouts += 1;
        let trip = match h.state {
            BreakerState::Closed => h.consecutive_timeouts >= threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            h.state = BreakerState::Open;
            self.circuit_open_total.inc();
            self.refresh_peer_health_gauge();
            self.tracer.event(self.track, "board_down", ctx.now());
            let backoff = self.cfg.breaker_probe_backoff;
            let jitter_ns = (ctx.rng().f64() * (backoff.as_nanos() as f64 / 4.0)) as u64;
            ctx.schedule(
                backoff + SimDuration::from_nanos(jitter_ns),
                Message::cloneable(TransportTimer::BreakerProbe(mn)),
            );
        }
    }

    /// Records proof of life from `mn` (a response or a NACK): resets the
    /// timeout streak and closes the breaker, emitting `board_up` when the
    /// peer was previously presumed unhealthy.
    fn note_peer_success(&mut self, now: SimTime, mn: Mac) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        if let Some(h) = self.health.get_mut(&mn) {
            let was_unhealthy = h.state != BreakerState::Closed;
            h.consecutive_timeouts = 0;
            h.state = BreakerState::Closed;
            if was_unhealthy {
                self.refresh_peer_health_gauge();
                self.tracer.event(self.track, "board_up", now);
            }
        }
    }

    /// Submits a request. With batching disabled it is sent immediately if
    /// the congestion and incast windows allow (otherwise queued); with
    /// batching enabled it is queued and the (load-adaptive) doorbell
    /// coalesces every submission sharing a pump into shared frames.
    ///
    /// Returns completions produced synchronously: with the circuit
    /// breaker toward `target` open, the request fails fast here with
    /// [`ClioError::Unreachable`] instead of waiting out a retry budget.
    #[allow(clippy::too_many_arguments)] // the op's full identity travels together
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        token: XferToken,
        target: Mac,
        pid: Pid,
        blueprint: Blueprint,
        trace: Option<TraceCtx>,
    ) -> Vec<XferDone> {
        let mut done = Vec::new();
        self.note_submission(target, ctx.now());
        self.tracer.stitch(trace, self.track, Stage::Submit, ctx.now());
        let q = QueuedSend { token, pid, blueprint, enqueued_at: ctx.now(), trace };
        self.queues.entry(target).or_default().push_back(q);
        self.kick(ctx, nic, target, &mut done);
        done
    }

    /// Submits an explicit vector of requests (the scatter/gather path):
    /// all entries are queued first and then every touched MN is pumped
    /// once, immediately — no doorbell heuristics involved — so the vector
    /// coalesces into batch frames regardless of submission timing.
    pub fn send_many(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        requests: Vec<(XferToken, Mac, Pid, Blueprint, Option<TraceCtx>)>,
    ) -> Vec<XferDone> {
        let mut done = Vec::new();
        let now = ctx.now();
        let mut targets: Vec<Mac> = Vec::new();
        for (token, target, pid, blueprint, trace) in requests {
            self.note_submission(target, now);
            self.tracer.stitch(trace, self.track, Stage::Submit, now);
            let q = QueuedSend { token, pid, blueprint, enqueued_at: now, trace };
            self.queues.entry(target).or_default().push_back(q);
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        for target in targets {
            if let Some(ev) = self.doorbells.remove(&target) {
                ctx.cancel(ev);
            }
            self.pump(ctx, nic, target, &mut done);
        }
        done
    }

    /// Feeds the per-MN inter-submission-gap estimate that sizes the
    /// adaptive doorbell hold.
    fn note_submission(&mut self, target: Mac, now: SimTime) {
        self.submit_gaps.entry(target).and_modify(|g| g.note(now)).or_insert(GapEwma::new(now));
    }

    /// The doorbell's latency budget toward `target`: a quarter of the
    /// congestion window's smoothed RTT, capped by
    /// [`CLibConfig::DOORBELL_DERIVED_CAP`], and zero before the first RTT
    /// sample or after a window reset, so the transport never holds
    /// requests on an unmeasured fabric.
    pub fn doorbell_budget(&self, target: Mac) -> SimDuration {
        let srtt = self.cwnds.get(&target).and_then(CongestionWindow::srtt);
        doorbell::budget(srtt, CLibConfig::DOORBELL_DERIVED_CAP)
    }

    /// How long the doorbell toward `target` may hold before pumping (see
    /// [`GapEwma::hold`]).
    fn doorbell_delay(&self, target: Mac) -> SimDuration {
        let queued = self.queues.get(&target).map_or(0, VecDeque::len);
        let slots = (self.cfg.batch_max_ops as usize).saturating_sub(queued);
        self.submit_gaps
            .get(&target)
            .map_or(SimDuration::ZERO, |g| g.hold(slots, self.doorbell_budget(target)))
    }

    /// Makes queued requests toward `target` progress: immediately when
    /// batching is off, via the coalescing doorbell when on. A doorbell
    /// already scheduled is left in place unless a full batch is waiting,
    /// in which case it is re-rung to fire now.
    fn kick(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        if self.peer_open(target) {
            // Fail fast synchronously: no doorbell hold for a dead board.
            if let Some(ev) = self.doorbells.remove(&target) {
                ctx.cancel(ev);
            }
            self.pump(ctx, nic, target, done);
            return;
        }
        if !self.batching() {
            self.pump(ctx, nic, target, done);
            return;
        }
        let full =
            self.queues.get(&target).map_or(0, VecDeque::len) >= self.cfg.batch_max_ops as usize;
        if let Some(&ev) = self.doorbells.get(&target) {
            if full {
                ctx.cancel(ev);
                let now_ev = ctx
                    .schedule(SimDuration::ZERO, Message::cloneable(TransportTimer::Pump(target)));
                self.doorbells.insert(target, now_ev);
            }
            return;
        }
        let delay = if full { SimDuration::ZERO } else { self.doorbell_delay(target) };
        let ev = ctx.schedule(delay, Message::cloneable(TransportTimer::Pump(target)));
        self.doorbells.insert(target, ev);
    }

    /// Kicks every queue (after a completion/failure freed window space),
    /// in MAC order: `HashMap` iteration order is seeded per instance, and
    /// the send order decides the run's digest.
    fn kick_all(&mut self, ctx: &mut Ctx<'_>, nic: &mut NicPort, done: &mut Vec<XferDone>) {
        let mut macs: Vec<Mac> = self.queues.keys().copied().collect();
        macs.sort_unstable();
        for m in macs {
            self.kick(ctx, nic, m, done);
        }
    }

    /// Tries to transmit queued requests toward `target`, coalescing small
    /// admitted requests into batch frames. With the breaker toward
    /// `target` open, drains the whole queue to `Unreachable` completions
    /// instead — queued ops hold no window slots, so nothing needs
    /// releasing.
    fn pump(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        self.doorbells.remove(&target);
        if self.peer_open(target) {
            if let Some(mut queue) = self.queues.remove(&target) {
                let now = ctx.now();
                for q in queue.drain(..) {
                    self.conflict_generations.remove(&q.token);
                    done.push(XferDone {
                        token: q.token,
                        result: Err(ClioError::Unreachable { mn: target }),
                        rtt: now.since(q.enqueued_at),
                    });
                }
            }
            return;
        }
        let mut frame = OpenFrame::new(&self.cfg);
        loop {
            let now = ctx.now();
            let Some(queue) = self.queues.get_mut(&target) else { break };
            let Some(head) = queue.front() else { break };
            let bytes = head.blueprint.expected_response_bytes();
            let cwnd = self.cwnds.entry(target).or_insert_with(|| CongestionWindow::new(&self.cfg));
            if !cwnd.try_acquire(now) {
                // Paced sub-1 windows need a wake-up; full windows are
                // pumped by the next completion.
                let at = cwnd.next_opportunity(now);
                if at > now {
                    let ev = ctx
                        .schedule(at.since(now), Message::cloneable(TransportTimer::Pump(target)));
                    self.doorbells.insert(target, ev);
                }
                break;
            }
            if !self.iwnd.try_acquire(bytes) {
                self.cwnds.get_mut(&target).expect("just used").on_release();
                break;
            }
            let q = self
                .queues
                .get_mut(&target)
                .expect("checked above")
                .pop_front()
                .expect("checked above");
            let conflict_gen = self.conflict_generations.remove(&q.token).unwrap_or(0);
            self.tracer.stitch(q.trace, self.track, Stage::DoorbellHold, now);
            self.launch(ctx, nic, target, &mut frame, q, conflict_gen);
        }
        self.flush(ctx, nic, target, &mut frame);
    }

    /// Sends the first attempt of an admitted request under a fresh id —
    /// packed into `frame` or shipped alone — arms its retry timer, and
    /// tracks it as outstanding.
    fn launch(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        frame: &mut OpenFrame,
        q: QueuedSend,
        conflict_retries: u32,
    ) {
        let req_id = self.fresh_id();
        let packets = q.blueprint.build(req_id, None, q.pid);
        self.pack(ctx, nic, target, frame, packets, &q.blueprint, q.trace);
        let timer = ctx.schedule(
            self.timeout_for(&q.blueprint, target),
            Message::cloneable(TransportTimer::Timeout(req_id)),
        );
        self.track(
            req_id,
            Outstanding {
                token: q.token,
                target,
                pid: q.pid,
                expected_bytes: q.blueprint.expected_response_bytes(),
                blueprint: q.blueprint,
                origin: req_id,
                attempt_sent_at: ctx.now(),
                first_sent_at: q.enqueued_at,
                retries: 0,
                conflict_retries,
                timer: Some(timer),
                trace: q.trace,
            },
        );
    }

    /// Puts one attempt's freshly built `packets` on the wire toward
    /// `target` — the one packing routine of first sends and retries. A
    /// batchable attempt joins the open `frame`, flushing it first when the
    /// entry would bust a budget. Anything else — and an entry too large
    /// for even an empty frame — flushes the frame ahead of it (the MN must
    /// see requests in send order: fences must not overtake the batch in
    /// front of them) and leaves in its own frames. Returns how many wire
    /// frames left.
    #[allow(clippy::too_many_arguments)] // the attempt's full identity travels together
    fn pack(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        frame: &mut OpenFrame,
        mut packets: Vec<ClioPacket>,
        blueprint: &Blueprint,
        trace: Option<TraceCtx>,
    ) -> u64 {
        self.annotate(&mut packets, target, trace);
        let mut frames = 0;
        if self.batching() && blueprint.is_batchable() {
            let Some(ClioPacket::Request { header, body }) = packets.pop() else {
                unreachable!("batchable blueprints build one request packet")
            };
            let entry = (header, body);
            if !frame.entries.fits(&entry) {
                frames += self.flush(ctx, nic, target, frame);
            }
            if frame.entries.fits(&entry) {
                frame.entries.push(entry);
                frame.traces.push(trace);
                return frames;
            }
            packets.push(ClioPacket::Request { header: entry.0, body: entry.1 });
        } else {
            frames += self.flush(ctx, nic, target, frame);
        }
        let send_start = ctx.now() + self.cfg.send_overhead;
        let mut tx_end = send_start;
        frames += packets.len() as u64;
        for pkt in packets {
            let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
            tx_end =
                tx_end.max(nic.send_at(ctx, send_start, target, wire, Message::cloneable(pkt)));
        }
        self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
        self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        frames
    }

    /// Ships the open frame (if any) as one wire frame, stitching every
    /// member's pack + NIC-serialization spans to the frame's actual
    /// transmit window. Returns how many wire frames left (0 or 1).
    fn flush(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        frame: &mut OpenFrame,
    ) -> u64 {
        let ops = frame.entries.len() as u64;
        let Some(pkt) = frame.entries.take() else { return 0 };
        if ops > 1 {
            self.batch_frames.inc();
            self.batched_ops.add(ops);
        }
        let wire = (codec::wire_len(&pkt) + ETH_OVERHEAD_BYTES) as u32;
        let send_start = ctx.now() + self.cfg.send_overhead;
        let tx_end = nic.send_at(ctx, send_start, target, wire, Message::cloneable(pkt));
        for trace in frame.traces.drain(..) {
            self.tracer.stitch(trace, self.track, Stage::Pack, send_start);
            self.tracer.stitch(trace, self.track, Stage::NicSerialize, tx_end);
        }
        1
    }

    /// Stamps freshly built request packets with the op's trace context and
    /// the CN's current smoothed RTT toward `target` (the srtt echo the MN
    /// derives its egress doorbell budget from). The trace rides in
    /// reserved header bits (zero wire bytes); the echo is always encoded,
    /// tracing on or off, so the wire image never depends on observability.
    fn annotate(&self, packets: &mut [ClioPacket], target: Mac, trace: Option<TraceCtx>) {
        let echo = self
            .cwnds
            .get(&target)
            .and_then(CongestionWindow::srtt)
            .map(|s| s.as_nanos().min(u32::MAX as u64) as u32);
        for pkt in packets {
            if let ClioPacket::Request { header, .. } = pkt {
                header.trace = trace;
                header.srtt_echo_ns = echo;
            }
        }
    }

    /// The retry timeout of `blueprint` toward `target`: its own budget
    /// plus [`QUEUED_NS_PER_BYTE`] for the payload of every request this
    /// CN already has in flight to `target`. Those bytes go out ahead of
    /// it on the same path, so a small op queued behind the CN's own bulk
    /// writes must not expire while they drain. For a write or atomic the
    /// extra wait is capped at [`QUEUED_TIMEOUTS_MAX`] `× request_timeout`,
    /// keeping its retries inside the MN's dedup window; a read's retry is
    /// harmless, so its allowance is not capped.
    fn timeout_for(&self, blueprint: &Blueprint, target: Mac) -> SimDuration {
        let queued = self.payload_in_flight.get(&target).copied().unwrap_or(0);
        let mut wait = SimDuration::from_nanos(queued * QUEUED_NS_PER_BYTE);
        if blueprint.is_non_idempotent() {
            wait = wait.min(self.cfg.request_timeout * QUEUED_TIMEOUTS_MAX);
        }
        blueprint.timeout(self.cfg.request_timeout) + wait
    }

    /// Registers `o` as outstanding under `id`.
    fn track(&mut self, id: ReqId, o: Outstanding) {
        *self.payload_in_flight.entry(o.target).or_insert(0) += o.blueprint.payload_bytes();
        self.outstanding.insert(id, o);
    }

    /// Unregisters the outstanding request `id`, if any.
    fn untrack(&mut self, id: &ReqId) -> Option<Outstanding> {
        let o = self.outstanding.remove(id)?;
        let payload = self.payload_in_flight.get_mut(&o.target).expect("tracked target");
        *payload -= o.blueprint.payload_bytes();
        Some(o)
    }

    fn release_windows(&mut self, now: SimTime, o: &Outstanding, rtt: Option<SimDuration>) {
        let cwnd = self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(&self.cfg));
        let moved_bytes = o.expected_bytes + o.blueprint.payload_bytes();
        match rtt {
            Some(rtt) if o.blueprint.is_congestion_signal() => {
                cwnd.on_response_sized(now, rtt, moved_bytes)
            }
            Some(_) => cwnd.on_release(),
            None if o.blueprint.is_congestion_signal() => cwnd.on_timeout(now),
            None => cwnd.on_release(),
        }
        self.iwnd.release(o.expected_bytes);
    }

    /// Releases an outstanding request's window slots without feeding the
    /// congestion controller any signal — used when the request is being
    /// abandoned (cancellation, breaker fail-fast) rather than answered or
    /// lost: the abandonment says nothing about the fabric.
    fn release_windows_neutral(&mut self, o: &Outstanding) {
        let cfg = &self.cfg;
        self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(cfg)).on_release();
        self.iwnd.release(o.expected_bytes);
    }

    /// Cancels every attempt of `token` still owned by the transport:
    /// in-flight requests (timer cancelled, window slots released
    /// neutrally, reassembly state dropped), queued sends, queued
    /// retransmissions, and parked conflicts. Returns whether anything was
    /// actually cancelled; the caller owns reporting the op's completion
    /// (e.g. `DeadlineExceeded`) upward. A response or NACK for a
    /// cancelled id arriving later is dropped by the outstanding-id lookup
    /// like any stale frame.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, token: XferToken) -> bool {
        let mut found = false;
        let ids: Vec<ReqId> =
            self.outstanding.iter().filter(|(_, o)| o.token == token).map(|(id, _)| *id).collect();
        for id in ids {
            let mut o = self.untrack(&id).expect("collected above");
            if let Some(t) = o.timer.take() {
                ctx.cancel(t);
            }
            self.release_windows_neutral(&o);
            self.reassembler.forget(id);
            found = true;
        }
        // Retry-queue entries for ids that no longer exist must not be
        // rebuilt by the retry pump.
        let outstanding = &self.outstanding;
        for q in self.retry_queues.values_mut() {
            q.retain(|(id, _)| outstanding.contains_key(id));
        }
        for q in self.queues.values_mut() {
            let before = q.len();
            q.retain(|s| s.token != token);
            found |= q.len() != before;
        }
        found |= self.parked_conflicts.remove(&token).is_some();
        self.conflict_generations.remove(&token);
        found
    }

    /// Handles a frame payload (a [`ClioPacket`]) delivered to this CN.
    /// Returns completions to surface and the MACs whose queues may now
    /// drain (the caller should keep forwarding frames in).
    ///
    /// # Invariants
    ///
    /// * A response or NACK whose id is not outstanding (stale duplicate,
    ///   or a late original overtaken by its own retry) is dropped without
    ///   touching windows — double releases are structurally impossible.
    /// * Completing entries release both window slots exactly once;
    ///   `Conflict` responses release windows **before** parking, so a
    ///   parked request holds no window state.
    /// * A NACK within the retry budget keeps both window slots and moves
    ///   the request to a fresh id (`retry_of` set for non-idempotent
    ///   ops); past the budget it releases the slots and reports
    ///   `TimedOut`.
    pub fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        pkt: ClioPacket,
    ) -> Vec<XferDone> {
        let mut done = Vec::new();
        match pkt {
            ClioPacket::Response { header, body } => {
                if self.handle_response(ctx, header, body, &mut done) {
                    // A completion freed window space: drain every queue.
                    self.kick_all(ctx, nic, &mut done);
                }
            }
            ClioPacket::BatchResp { responses } => {
                // Unbatch at ingress: every entry completes (ids, RTTs,
                // window releases, conflict parking) exactly as if it had
                // arrived in its own frame; only the framing was shared.
                let mut completed = false;
                for (header, body) in responses {
                    completed |= self.handle_response(ctx, header, body, &mut done);
                }
                if completed {
                    // One drain for the whole frame: the first kick arms
                    // the doorbells, further passes would no-op.
                    self.kick_all(ctx, nic, &mut done);
                }
            }
            ClioPacket::Nack { req_id } => {
                if self.handle_nack(ctx, req_id, &mut done) {
                    // The failure freed window space just like a
                    // completion: drain queued requests now instead of
                    // stalling them until an unrelated completion.
                    self.kick_all(ctx, nic, &mut done);
                }
            }
            ClioPacket::BatchNack { req_ids } => {
                // Unbatch the coalesced NACKs of one corrupted batch frame:
                // each entry retries exactly as if its NACK had arrived
                // alone, and because every retry is queued in this same
                // event, the retry doorbell re-coalesces them into shared
                // `Batch` frames — recovery stays at one frame per
                // direction per corrupted frame.
                let mut failed = false;
                for req_id in req_ids {
                    failed |= self.handle_nack(ctx, req_id, &mut done);
                }
                if failed {
                    self.kick_all(ctx, nic, &mut done);
                }
            }
            // CNs never receive requests (batched or not).
            ClioPacket::Request { .. } | ClioPacket::Batch { .. } => {}
        }
        done
    }

    /// Handles one link-layer NACK — shared by plain `Nack` frames and
    /// unbatched `BatchNack` entries. The corrupted request is retried
    /// immediately (no congestion signal; corruption is not loss). Returns
    /// whether the entry *failed* the request (exhausted retries) and so
    /// freed window space the caller should re-drain.
    fn handle_nack(&mut self, ctx: &mut Ctx<'_>, req_id: ReqId, done: &mut Vec<XferDone>) -> bool {
        let Some(mut o) = self.untrack(&req_id) else {
            return false; // stale/duplicate NACK
        };
        if let Some(t) = o.timer.take() {
            ctx.cancel(t);
        }
        self.retry_count.inc();
        o.retries += 1;
        // A NACK proves the board is alive (it decoded and answered the
        // frame), so it feeds the breaker as a success signal.
        self.note_peer_success(ctx.now(), o.target);
        // The corrupted attempt's wire + MN time is unattributable (the MN
        // executes nothing for it); the turnaround span from the attempt's
        // last stitch to the NACK's arrival absorbs it, keeping the op's
        // timeline gap-free.
        self.tracer.stitch(o.trace, self.track, Stage::NackTurnaround, ctx.now());
        if o.retries > self.cfg.max_retries {
            if self.mutation != McMutation::LeakWindowOnNack {
                self.release_windows(ctx.now(), &o, None);
            }
            done.push(XferDone {
                token: o.token,
                result: Err(ClioError::TimedOut {
                    op: o.blueprint.kind(),
                    mn: o.target,
                    attempts: o.retries,
                }),
                rtt: ctx.now().since(o.first_sent_at),
            });
            true
        } else {
            o.trace = self.tracer.retry(o.trace, ctx.now());
            // Window slot stays held: this is the same logical request.
            // Hand the slot bookkeeping over by not releasing and queueing
            // the retransmission.
            self.queue_retransmit(ctx, o, req_id);
            false
        }
    }

    /// Completes one response entry — shared by plain `Response` frames and
    /// unbatched `BatchResp` entries. Returns whether the entry finished a
    /// request (and so freed window space the caller should re-drain).
    fn handle_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: RespHeader,
        body: ResponseBody,
        done: &mut Vec<XferDone>,
    ) -> bool {
        if !self.outstanding.contains_key(&header.req_id) {
            return false; // stale/duplicate response
        }
        // Multi-packet read responses finish on the last fragment.
        let value = match body {
            ResponseBody::DataFrag { offset, data } => {
                match self.reassembler.accept(header, offset, data) {
                    Some(full) => XferValue::Data(full),
                    None => return false,
                }
            }
            ResponseBody::Done => XferValue::Done,
            ResponseBody::Alloced { va } => XferValue::Va(va),
            ResponseBody::AtomicOld { old } => XferValue::Old(old),
            ResponseBody::OffloadReply { data } => XferValue::Data(data),
        };
        let o = self.untrack(&header.req_id).expect("checked");
        if let Some(t) = o.timer {
            ctx.cancel(t);
        }
        let now = ctx.now();
        self.note_peer_success(now, o.target);
        // Response wire time: from the MN's last stitch (egress NIC
        // serialization) to delivery here. For multi-fragment reads this
        // covers the whole reassembly window, attributed once on
        // completion of the final fragment.
        self.tracer.stitch(o.trace, Track::Wire, Stage::Wire, now);
        let rtt = now.since(o.attempt_sent_at);
        self.release_windows(now, &o, Some(rtt));
        match header.status {
            Status::Ok => {
                done.push(XferDone {
                    token: o.token,
                    result: Ok(value),
                    rtt: now.since(o.first_sent_at) + self.cfg.recv_overhead,
                });
            }
            Status::Conflict => {
                // Region mid-migration: back off and re-issue.
                if o.conflict_retries >= self.cfg.max_conflict_retries {
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::Remote(Status::Conflict)),
                        rtt: now.since(o.first_sent_at),
                    });
                } else {
                    let backoff =
                        self.cfg.conflict_backoff * (1 + o.conflict_retries.min(16) as u64);
                    ctx.schedule(
                        backoff,
                        Message::cloneable(TransportTimer::ConflictRetry(o.token)),
                    );
                    self.parked_conflicts.insert(o.token, o);
                }
            }
            status => {
                done.push(XferDone {
                    token: o.token,
                    result: Err(ClioError::from(status)),
                    rtt: now.since(o.first_sent_at),
                });
            }
        }
        true
    }

    /// Re-registers a timed-out/NACKed request under a fresh id and queues
    /// its retransmission behind a zero-delay retry doorbell, so every
    /// retry queued in the same pump — e.g. the timers of one lost batch
    /// frame expiring together — re-coalesces into shared frames.
    /// The retry keeps its window slots. `retry_of` always names the
    /// chain's FIRST id (`Outstanding::origin`), never the immediately
    /// preceding attempt: the predecessor may itself have been lost before
    /// the MN saw it, and a dedup lookup keyed on an id the MN never
    /// recorded would re-execute a non-idempotent original that did land.
    /// (Found by the `clio_mc` model checker; pinned in
    /// `crates/cn/tests/mc_regressions.rs`.)
    fn queue_retransmit(&mut self, ctx: &mut Ctx<'_>, mut o: Outstanding, prev_id: ReqId) {
        let new_id = self.fresh_id();
        let retry_of = o.blueprint.is_non_idempotent().then_some(o.origin);
        let timer = ctx.schedule(
            self.timeout_for(&o.blueprint, o.target),
            Message::cloneable(TransportTimer::Timeout(new_id)),
        );
        self.reassembler.forget(prev_id);
        let target = o.target;
        o.attempt_sent_at = ctx.now();
        o.timer = Some(timer);
        self.track(new_id, o);
        self.retry_queues.entry(target).or_default().push((new_id, retry_of));
        if self.retry_doorbells.insert(target) {
            ctx.schedule(SimDuration::ZERO, Message::cloneable(TransportTimer::RetryPump(target)));
        }
    }

    /// Ships queued retransmissions toward `target`, packing batchable
    /// single-packet retries into shared frames. With the breaker open
    /// (tripped between queueing and this pump by a same-instant timer),
    /// the queued retries fail fast instead: slots released neutrally,
    /// `Unreachable` reported.
    fn retry_pump(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        target: Mac,
        done: &mut Vec<XferDone>,
    ) {
        self.retry_doorbells.remove(&target);
        let Some(entries) = self.retry_queues.remove(&target) else { return };
        if self.peer_open(target) {
            let now = ctx.now();
            for (req_id, _) in entries {
                let Some(mut o) = self.untrack(&req_id) else { continue };
                if let Some(t) = o.timer.take() {
                    ctx.cancel(t);
                }
                self.release_windows_neutral(&o);
                done.push(XferDone {
                    token: o.token,
                    result: Err(ClioError::Unreachable { mn: target }),
                    rtt: now.since(o.first_sent_at),
                });
            }
            return;
        }
        let mut frame = OpenFrame::new(&self.cfg);
        for (req_id, retry_of) in entries {
            // A retry can only vanish between queue and pump if its own
            // timer fired first; the timeout path re-queues it.
            let Some(o) = self.outstanding.get(&req_id) else { continue };
            let (trace, blueprint) = (o.trace, o.blueprint.clone());
            self.tracer.stitch(trace, self.track, Stage::RetryDoorbell, ctx.now());
            let packets = blueprint.build(req_id, retry_of, o.pid);
            let frames = self.pack(ctx, nic, target, &mut frame, packets, &blueprint, trace);
            self.retry_frames.add(frames);
        }
        let frames = self.flush(ctx, nic, target, &mut frame);
        self.retry_frames.add(frames);
    }

    /// Handles a transport timer routed back by the host actor.
    ///
    /// # Invariants
    ///
    /// * A `Timeout` for an id no longer outstanding (the response won the
    ///   race) is a no-op.
    /// * A `Timeout` within the retry budget shrinks the congestion window
    ///   (timeout = congestion) but keeps both window slots for the
    ///   retransmission, which is the same logical request under a fresh
    ///   id; past the budget it releases the slots and reports `TimedOut`.
    /// * `ConflictRetry` moves a parked request (which holds no window
    ///   slots) to the **front** of its send queue, so it re-acquires
    ///   windows through the same admission path as a first send.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        nic: &mut NicPort,
        timer: TransportTimer,
    ) -> Vec<XferDone> {
        let mut done = Vec::new();
        match timer {
            TransportTimer::Timeout(req_id) => {
                let Some(mut o) = self.untrack(&req_id) else {
                    return done; // completed already
                };
                o.timer = None;
                self.retry_count.inc();
                o.retries += 1;
                let now = ctx.now();
                // The lost attempt left no response to attribute; the wait
                // span from its last stitch to the timer firing absorbs the
                // whole silent interval.
                self.tracer.stitch(o.trace, self.track, Stage::TimeoutWait, now);
                self.note_peer_timeout(ctx, o.target);
                if self.peer_open(o.target) {
                    // The breaker just tripped (or was already open): give
                    // up on this op now instead of burning more retries
                    // against a board presumed dead.
                    self.release_windows(now, &o, None);
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::Unreachable { mn: o.target }),
                        rtt: now.since(o.first_sent_at),
                    });
                    self.kick_all(ctx, nic, &mut done);
                } else if o.retries > self.cfg.max_retries {
                    self.release_windows(now, &o, None);
                    done.push(XferDone {
                        token: o.token,
                        result: Err(ClioError::TimedOut {
                            op: o.blueprint.kind(),
                            mn: o.target,
                            attempts: o.retries,
                        }),
                        rtt: now.since(o.first_sent_at),
                    });
                    self.kick_all(ctx, nic, &mut done);
                } else {
                    o.trace = self.tracer.retry(o.trace, now);
                    // Timeout is a congestion signal; shrink but keep the
                    // slot for the retransmission (same logical request).
                    let cfg = &self.cfg;
                    let cwnd =
                        self.cwnds.entry(o.target).or_insert_with(|| CongestionWindow::new(cfg));
                    cwnd.on_congestion(now);
                    self.queue_retransmit(ctx, o, req_id);
                }
            }
            TransportTimer::Pump(mac) => self.pump(ctx, nic, mac, &mut done),
            TransportTimer::RetryPump(mac) => self.retry_pump(ctx, nic, mac, &mut done),
            TransportTimer::BreakerProbe(mac) => {
                if let Some(h) = self.health.get_mut(&mac) {
                    if h.state == BreakerState::Open {
                        // Half-open: queued ops flow again as probes. The
                        // gauge stays up — the peer is not healthy until a
                        // probe actually completes.
                        h.state = BreakerState::HalfOpen;
                        self.kick(ctx, nic, mac, &mut done);
                    }
                }
            }
            TransportTimer::ConflictRetry(token) => {
                if let Some(o) = self.parked_conflicts.remove(&token) {
                    // Rejoin the send queue (at the front: it is the oldest
                    // logical request) so window accounting stays uniform.
                    let target = o.target;
                    self.tracer.stitch(o.trace, self.track, Stage::ConflictBackoff, ctx.now());
                    self.queues.entry(target).or_default().push_front(QueuedSend {
                        token: o.token,
                        pid: o.pid,
                        blueprint: o.blueprint,
                        enqueued_at: o.first_sent_at,
                        trace: o.trace,
                    });
                    self.conflict_generations.insert(o.token, o.conflict_retries + 1);
                    self.kick(ctx, nic, target, &mut done);
                }
            }
        }
        done
    }
}
