//! MTU-bounded packing of small packets into batch frames, in both
//! directions: one [`FrameBuilder`] packs requests into
//! [`ClioPacket::Batch`] (CN → MN), responses into [`ClioPacket::BatchResp`]
//! (MN → CN), and the link-layer NACKs of one corrupted batch frame into
//! [`ClioPacket::BatchNack`] (MN → CN, the error-path mirror).
//!
//! Clio's asynchronous API (§4.5 T1) keeps many small requests in flight;
//! sent one per frame, a 16–64 B operation pays ~38 B of Ethernet overhead
//! plus a full Clio header of framing per op — and its reply pays the same
//! again on the board's 10 Gbps egress port. The builder packs several
//! same-destination single-packet entries into one wire frame under two
//! budgets: the link MTU and a caller-chosen op count. Every request and
//! response entry keeps its own header ([`ReqHeader`] / [`RespHeader`]), so
//! retries, deduplication, completion matching and window accounting stay
//! per logical request.

use crate::codec::{request_wire_len, response_wire_len, BATCH_OVERHEAD_BYTES, NACK_ENTRY_BYTES};
use crate::mtu::MTU_BYTES;
use crate::packet::{ClioPacket, ReqHeader, RequestBody, RespHeader, ResponseBody};
use crate::types::ReqId;

/// One kind of batch-frame entry: a request, a response, or a NACKed
/// request id.
pub trait FrameEntry: Sized {
    /// Encoded bytes this entry adds to a batch frame.
    fn wire_len(&self) -> usize;

    /// The packet carrying `entries` (at least one): the plain packet for a
    /// lone entry — byte-identical to the unbatched protocol, so batching is
    /// a pure overlay — and the batch frame otherwise.
    fn into_packet(entries: Vec<Self>) -> ClioPacket;
}

impl FrameEntry for (ReqHeader, RequestBody) {
    fn wire_len(&self) -> usize {
        request_wire_len(&self.1)
    }

    fn into_packet(mut requests: Vec<Self>) -> ClioPacket {
        match requests.len() {
            1 => {
                let (header, body) = requests.pop().expect("one entry");
                ClioPacket::Request { header, body }
            }
            _ => ClioPacket::Batch { requests },
        }
    }
}

impl FrameEntry for (RespHeader, ResponseBody) {
    fn wire_len(&self) -> usize {
        response_wire_len(&self.1)
    }

    fn into_packet(mut responses: Vec<Self>) -> ClioPacket {
        match responses.len() {
            1 => {
                let (header, body) = responses.pop().expect("one entry");
                ClioPacket::Response { header, body }
            }
            _ => ClioPacket::BatchResp { responses },
        }
    }
}

impl FrameEntry for ReqId {
    fn wire_len(&self) -> usize {
        NACK_ENTRY_BYTES
    }

    fn into_packet(req_ids: Vec<Self>) -> ClioPacket {
        match req_ids[..] {
            [req_id] => ClioPacket::Nack { req_id },
            _ => ClioPacket::BatchNack { req_ids },
        }
    }
}

/// Accumulates entries of one kind into an MTU-bounded batch frame.
///
/// `take` yields the plain packet when only one entry accumulated (see
/// [`FrameEntry::into_packet`]).
#[derive(Debug)]
pub struct FrameBuilder<E> {
    entries: Vec<E>,
    wire: usize,
    max_ops: usize,
}

impl<E: FrameEntry> FrameBuilder<E> {
    /// A builder admitting at most `max_ops` entries (at least one) and at
    /// most an MTU of encoded batch frame.
    pub fn new(max_ops: usize) -> Self {
        FrameBuilder { entries: Vec::new(), wire: BATCH_OVERHEAD_BYTES, max_ops: max_ops.max(1) }
    }

    /// Entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encoded size of the batch frame built so far (tag + count + entries).
    pub fn wire_len(&self) -> usize {
        self.wire
    }

    /// Whether `entry` can join the current frame without busting the op
    /// budget or the MTU.
    pub fn fits(&self, entry: &E) -> bool {
        self.entries.len() < self.max_ops && self.wire + entry.wire_len() <= MTU_BYTES
    }

    /// Appends an entry. Callers must check [`fits`](Self::fits) first.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the entry busts a budget.
    pub fn push(&mut self, entry: E) {
        debug_assert!(
            self.fits(&entry),
            "entry of {} B pushed into a full frame",
            entry.wire_len()
        );
        self.wire += entry.wire_len();
        self.entries.push(entry);
    }

    /// Takes the accumulated frame, leaving the builder empty for reuse.
    /// Returns `None` when nothing accumulated.
    pub fn take(&mut self) -> Option<ClioPacket> {
        self.wire = BATCH_OVERHEAD_BYTES;
        if self.entries.is_empty() {
            return None;
        }
        Some(E::into_packet(std::mem::take(&mut self.entries)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::wire_len;
    use crate::mtu::{MAX_READ_FRAG_PAYLOAD, MAX_WRITE_FRAG_PAYLOAD};
    use crate::types::{Pid, Status};

    fn request(id: u64, n: usize) -> (ReqHeader, RequestBody) {
        let body = RequestBody::WriteFrag { va: id * 64, data: vec![0u8; n].into() };
        (ReqHeader::single(ReqId(id), Pid(1)), body)
    }

    fn response(id: u64, n: usize) -> (RespHeader, ResponseBody) {
        let body = ResponseBody::DataFrag { offset: 0, data: vec![0u8; n].into() };
        (RespHeader::single(ReqId(id), Status::Ok), body)
    }

    /// What one entry kind must show: how `entry(id)` is built, the plain
    /// packet a lone entry becomes, and the batch frame of several.
    struct Case<E> {
        entry: fn(u64) -> E,
        plain: fn(E) -> ClioPacket,
        batch: fn(&ClioPacket) -> bool,
        /// An entry too large to join even an empty frame, if the kind has
        /// one.
        oversized: Option<E>,
    }

    fn check<E: FrameEntry + Clone + std::fmt::Debug>(case: Case<E>) {
        // Op budget: the third entry is refused by a two-op builder.
        let mut b = FrameBuilder::new(2);
        assert!(b.is_empty() && b.take().is_none(), "an empty builder yields nothing");
        b.push((case.entry)(0));
        b.push((case.entry)(1));
        assert!(!b.fits(&(case.entry)(2)), "third entry exceeds max_ops = 2");

        // Exact wire length of a multi-entry frame, and reset after take.
        let predicted = b.wire_len();
        let pkt = b.take().expect("two entries");
        assert!((case.batch)(&pkt), "two entries make a batch frame: {pkt:?}");
        assert_eq!(wire_len(&pkt), predicted);
        assert!(b.is_empty() && b.wire_len() == BATCH_OVERHEAD_BYTES, "builder resets");

        // A lone entry becomes the plain packet.
        b.push((case.entry)(7));
        assert_eq!(b.take(), Some((case.plain)((case.entry)(7))), "a lone entry stays plain");

        // MTU: a generous op budget still stops at the MTU.
        let mut b = FrameBuilder::new(usize::MAX);
        let mut id = 0;
        while b.fits(&(case.entry)(id)) {
            b.push((case.entry)(id));
            id += 1;
        }
        assert!(b.len() > 1 && b.wire_len() <= MTU_BYTES);
        assert!(b.wire_len() + (case.entry)(id).wire_len() > MTU_BYTES, "stopped by the MTU");
        if let Some(big) = case.oversized {
            assert!(!FrameBuilder::new(usize::MAX).fits(&big), "{big:?} exceeds an empty frame");
        }
    }

    #[test]
    fn frame_builder_budgets_for_every_entry_kind() {
        check(Case {
            entry: |id| request(id, 40),
            plain: |(header, body)| ClioPacket::Request { header, body },
            batch: |p| matches!(p, ClioPacket::Batch { requests } if requests.len() == 2),
            oversized: Some(request(0, MAX_WRITE_FRAG_PAYLOAD)),
        });
        check(Case {
            entry: |id| response(id, 32),
            plain: |(header, body)| ClioPacket::Response { header, body },
            batch: |p| matches!(p, ClioPacket::BatchResp { responses } if responses.len() == 2),
            oversized: Some(response(0, MAX_READ_FRAG_PAYLOAD)),
        });
        check(Case {
            entry: ReqId,
            plain: |req_id| ClioPacket::Nack { req_id },
            batch: |p| matches!(p, ClioPacket::BatchNack { req_ids } if req_ids.len() == 2),
            oversized: None,
        });
    }
}
