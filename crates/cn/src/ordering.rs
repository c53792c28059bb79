//! Intra-thread request ordering (paper §4.5, technique T2).
//!
//! CLib — not the memory node — guarantees that no two *dependent*
//! (WAW/RAW/WAR) asynchronous requests are outstanding at once. Dependencies
//! are tracked at **page granularity**: every new request's virtual pages
//! are matched against in-flight (and queued) requests; conflicting requests
//! wait. `rrelease`/`rfence` insert a full barrier. Tracking by page keeps
//! the table small at the cost of occasional false dependencies (§4.5
//! discusses this trade-off).

use std::collections::VecDeque;

/// Whether an operation reads or mutates its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Reads only — concurrent reads never conflict.
    Read,
    /// Writes/atomics/metadata — conflicts with everything overlapping.
    Write,
}

/// One tracked operation.
#[derive(Debug, Clone)]
struct Tracked<T> {
    token: T,
    class: AccessClass,
    /// Virtual page numbers the op touches (tiny for data ops).
    vpns: Vec<u64>,
    /// Barrier ops conflict with everything.
    barrier: bool,
}

impl<T> Tracked<T> {
    fn conflicts_with(&self, class: AccessClass, vpns: &[u64], barrier: bool) -> bool {
        if self.barrier || barrier {
            return true;
        }
        if self.class == AccessClass::Read && class == AccessClass::Read {
            return false;
        }
        self.vpns.iter().any(|v| vpns.contains(v))
    }
}

/// Per-thread dependency tracker.
///
/// `T` is the caller's operation token type (kept opaque). Submissions
/// either dispatch immediately or join a FIFO pending queue; completions
/// release queued operations in program order (a pending op never jumps an
/// earlier conflicting one).
#[derive(Debug, Clone)]
pub struct DependencyTracker<T> {
    inflight: Vec<Tracked<T>>,
    pending: VecDeque<Tracked<T>>,
}

impl<T: Copy + PartialEq> DependencyTracker<T> {
    /// An empty tracker.
    pub fn new() -> Self {
        DependencyTracker { inflight: Vec::new(), pending: VecDeque::new() }
    }

    /// Number of dispatched-but-incomplete operations.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Number of operations waiting on dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight or queued (barrier condition).
    pub fn is_drained(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty()
    }

    /// Submits an operation touching `vpns`. Returns `true` if it may be
    /// sent now; otherwise it is queued and will be released by
    /// [`complete`](Self::complete).
    pub fn submit(&mut self, token: T, class: AccessClass, vpns: Vec<u64>) -> bool {
        self.submit_inner(Tracked { token, class, vpns, barrier: false })
    }

    /// Submits a barrier (`rrelease`/`rfence`): it waits for everything
    /// before it, and everything after waits for it.
    pub fn submit_barrier(&mut self, token: T) -> bool {
        self.submit_inner(Tracked { token, class: AccessClass::Write, vpns: vec![], barrier: true })
    }

    fn submit_inner(&mut self, t: Tracked<T>) -> bool {
        let conflicts = self
            .inflight
            .iter()
            .chain(self.pending.iter())
            .any(|o| o.conflicts_with(t.class, &t.vpns, t.barrier));
        if conflicts {
            self.pending.push_back(t);
            false
        } else {
            self.inflight.push(t);
            true
        }
    }

    /// Marks an operation complete and returns the tokens of queued
    /// operations that become dispatchable, in program order. The op may
    /// still be queued (a cancelled op never dispatched): it leaves the
    /// queue, and whatever it was holding back is released.
    pub fn complete(&mut self, token: T) -> Vec<T> {
        if let Some(idx) = self.inflight.iter().position(|o| o.token == token) {
            self.inflight.swap_remove(idx);
        } else if let Some(idx) = self.pending.iter().position(|o| o.token == token) {
            self.pending.remove(idx);
        }
        let mut released = Vec::new();
        // Repeatedly promote the longest prefix of pending ops whose
        // conflicts have cleared, preserving FIFO among conflicting ops.
        let mut i = 0;
        while i < self.pending.len() {
            let candidate = &self.pending[i];
            let blocked =
                self.inflight
                    .iter()
                    .any(|o| o.conflicts_with(candidate.class, &candidate.vpns, candidate.barrier))
                    || self.pending.iter().take(i).any(|o| {
                        o.conflicts_with(candidate.class, &candidate.vpns, candidate.barrier)
                    });
            if blocked {
                i += 1;
                continue;
            }
            let t = self.pending.remove(i).expect("index in range");
            released.push(t.token);
            self.inflight.push(t);
            // Restart: releasing one op can unblock none of the earlier
            // ones, but indices shifted.
        }
        released
    }
}

impl<T: Copy + PartialEq> Default for DependencyTracker<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessClass::{Read, Write};

    #[test]
    fn independent_ops_fly_together() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1]));
        assert!(d.submit(2, Write, vec![2]));
        assert!(d.submit(3, Read, vec![3]));
        assert_eq!(d.inflight_len(), 3);
    }

    #[test]
    fn reads_to_same_page_do_not_conflict() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Read, vec![7]));
        assert!(d.submit(2, Read, vec![7]));
    }

    #[test]
    fn waw_raw_war_block() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![7]));
        assert!(!d.submit(2, Write, vec![7]), "WAW");
        assert!(!d.submit(3, Read, vec![7]), "RAW");
        let released = d.complete(1);
        assert_eq!(released, vec![2], "only the WAW write releases first");
        let released = d.complete(2);
        assert_eq!(released, vec![3]);
        // WAR: read in flight blocks a write.
        assert!(d.submit(4, Read, vec![9]));
        assert!(!d.submit(5, Write, vec![9]), "WAR");
        d.complete(3);
        assert_eq!(d.complete(4), vec![5]);
    }

    #[test]
    fn program_order_preserved_among_conflicting_ops() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1]));
        assert!(!d.submit(2, Write, vec![1]));
        assert!(!d.submit(3, Write, vec![1]));
        // Completing 1 must release 2 (not 3).
        assert_eq!(d.complete(1), vec![2]);
        assert_eq!(d.complete(2), vec![3]);
    }

    #[test]
    fn barrier_waits_for_everything_and_blocks_everything() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Read, vec![1]));
        assert!(d.submit(2, Write, vec![2]));
        assert!(!d.submit_barrier(10), "barrier waits for in-flight ops");
        assert!(!d.submit(3, Read, vec![99]), "ops after a barrier wait for it");
        d.complete(1);
        let rel = d.complete(2);
        assert_eq!(rel, vec![10], "barrier dispatches once drained");
        let rel = d.complete(10);
        assert_eq!(rel, vec![3]);
        assert!(d.is_drained() || d.inflight_len() == 1);
    }

    #[test]
    fn multi_page_ops_conflict_on_any_shared_page() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1, 2, 3]));
        assert!(!d.submit(2, Read, vec![3, 4]), "overlap on page 3");
        assert!(d.submit(3, Read, vec![4, 5]));
    }

    #[test]
    fn false_sharing_at_page_granularity() {
        // Two writes to different addresses on the SAME page conflict —
        // the documented false-dependency trade-off.
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![7]));
        assert!(!d.submit(2, Write, vec![7]));
    }

    #[test]
    fn completing_a_queued_op_unblocks_its_pages() {
        // A cancelled op completes while still queued behind a multi-page
        // write. It must leave the queue: otherwise the write's completion
        // releases it, and it holds its pages in flight forever.
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1, 2]));
        assert!(!d.submit(2, Write, vec![2]), "queued behind the multi-page write");
        assert_eq!(d.complete(2), Vec::<u32>::new(), "cancelled while queued");
        assert_eq!(d.pending_len(), 0);
        assert_eq!(d.complete(1), Vec::<u32>::new(), "nothing left to release");
        assert!(d.is_drained());
        assert!(d.submit(3, Write, vec![2]), "page 2 is free again");
    }

    #[test]
    fn cancelling_a_queued_op_releases_ops_queued_behind_it() {
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1, 2]));
        assert!(!d.submit(2, Write, vec![2, 3]));
        assert!(!d.submit(3, Write, vec![3]), "queued behind op 2 on page 3");
        assert_eq!(d.complete(2), vec![3], "op 3 only waited on op 2");
        assert_eq!(d.inflight_len(), 2);
    }

    #[test]
    fn independent_op_overtakes_blocked_queue() {
        // Release ordering allows non-dependent ops to proceed even while a
        // dependent chain is queued.
        let mut d = DependencyTracker::new();
        assert!(d.submit(1u32, Write, vec![1]));
        assert!(!d.submit(2, Write, vec![1]), "dependent: queued");
        assert!(d.submit(3, Write, vec![2]), "independent: dispatches immediately");
        assert_eq!(d.inflight_len(), 2);
        assert_eq!(d.pending_len(), 1);
    }
}
