//! Per-rank mailboxes: the queue substrate under [`crate::runtime::Comm`].
//!
//! Each rank owns one mailbox that every peer may enqueue into. Unlike an
//! opaque channel, the queue is *scannable*: a receiver takes the first
//! envelope matching a `(source, tag)` pattern while leaving earlier
//! non-matching traffic queued in arrival order, which is exactly MPI-style
//! matching semantics. Keeping the structure transparent is what lets the
//! schedule checker in `hot-analyze` observe tag state when it proves a
//! deadlock and audit for undrained messages at teardown.

use crate::runtime::{Envelope, POISON_TAG};
use bytes::Bytes;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One rank's incoming queue. Multi-producer (any peer sends), single
/// consumer (the owning rank scans and takes).
#[derive(Default)]
pub(crate) struct Mailbox {
    q: Mutex<VecDeque<Envelope>>,
}

/// Outcome of a matching scan over a mailbox.
pub(crate) enum Scan<M = Envelope> {
    /// Removed from the queue: the envelope that matched, or how many did.
    Matched(M),
    /// No match, but a poison envelope from `src` is queued: the peer died.
    Poisoned { src: u32 },
    /// Nothing matching and no poison.
    Empty,
}

impl Mailbox {
    /// The queue, poisoned or not: only `take_each`'s `deliver` can unwind
    /// under the lock (a payload that fails to decode), `retain_mut` leaves
    /// a valid queue, and the dying rank's own drain must not panic again.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Envelope>> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append an envelope (called by the sending rank).
    pub(crate) fn push(&self, env: Envelope) {
        self.lock().push_back(env);
    }

    /// Remove and return the first envelope matching `(src, tag)`. When no
    /// match exists but a poison message is queued, reports the poisoned
    /// source instead so the caller can tear down rather than block forever.
    pub(crate) fn take_match(&self, src: Option<u32>, tag: u32) -> Scan {
        let mut q = self.lock();
        if let Some(pos) = q
            .iter()
            .position(|e| e.tag == tag && src.is_none_or(|s| s == e.src))
        {
            return Scan::Matched(q.remove(pos).expect("indexed scan"));
        }
        if let Some(p) = q.iter().find(|e| e.tag == POISON_TAG) {
            return Scan::Poisoned { src: p.src };
        }
        Scan::Empty
    }

    /// "One message from every peer" in one pass under the lock: `deliver`
    /// gets the *oldest* `tag` envelope of every source still marked in
    /// `missing` (the mark is cleared); all else — a source's second message
    /// included — stays queued in order. Each (source, tag) stream is FIFO,
    /// so this is what one by-source `take_match` per marked peer takes, in
    /// arrival order. Reports how many; a queued poison only when none.
    pub(crate) fn take_each(
        &self,
        tag: u32,
        missing: &[Cell<bool>],
        deliver: &mut dyn FnMut(u32, Bytes),
    ) -> Scan<u64> {
        let (mut taken, mut poison) = (0, None);
        self.lock().retain_mut(|e| {
            if e.tag == tag && missing[e.src as usize].replace(false) {
                taken += 1;
                deliver(e.src, std::mem::take(&mut e.data));
                return false;
            }
            if e.tag == POISON_TAG {
                poison = poison.or(Some(e.src));
            }
            true
        });
        match (taken, poison) {
            (0, Some(src)) => Scan::Poisoned { src },
            (0, None) => Scan::Empty,
            _ => Scan::Matched(taken),
        }
    }

    /// True when an envelope matching `(src, tag)` — or a poison message —
    /// is queued. Non-destructive; used as the wake condition while blocked.
    pub(crate) fn has_match_or_poison(&self, src: Option<u32>, tag: u32) -> bool {
        let q = self.lock();
        q.iter().any(|e| {
            e.tag == POISON_TAG
                || (e.tag == tag && src.is_none_or(|s| s == e.src))
        })
    }

    /// Wake condition of a rank blocked on [`Mailbox::take_each`]: a `tag`
    /// envelope from a source still marked, or a poison message, is queued.
    pub(crate) fn has_each_or_poison(&self, tag: u32, missing: &[Cell<bool>]) -> bool {
        let q = self.lock();
        q.iter().any(|e| e.tag == POISON_TAG || (e.tag == tag && missing[e.src as usize].get()))
    }

    /// `(source, tag)` of every queued envelope, oldest first — the tag
    /// state reported in deadlock and teardown diagnostics.
    pub(crate) fn queued_tags(&self) -> Vec<(u32, u32)> {
        self.lock().iter().map(|e| (e.src, e.tag)).collect()
    }

    /// Drain every queued envelope (teardown path).
    pub(crate) fn drain_all(&self) -> Vec<Envelope> {
        self.lock().drain(..).collect()
    }

    /// Remove and return every queued envelope carrying `tag`, preserving
    /// arrival order among them and leaving all other traffic queued in
    /// order. The reliable transport's frame-intake path: raw frames are
    /// pulled out wholesale, verified, resequenced, and re-enqueued as
    /// ordinary logical envelopes.
    pub(crate) fn drain_tag(&self, tag: u32) -> Vec<Envelope> {
        let mut q = self.lock();
        let mut out = Vec::new();
        let mut keep = VecDeque::with_capacity(q.len());
        for e in q.drain(..) {
            if e.tag == tag {
                out.push(e);
            } else {
                keep.push_back(e);
            }
        }
        *q = keep;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope { src, tag, data: Bytes::new() }
    }

    #[test]
    fn fifo_within_matching_stream() {
        let m = Mailbox::default();
        m.push(env(0, 7));
        m.push(env(1, 5));
        m.push(env(0, 5));
        // Tag 5 from any source: rank 1's message is older.
        match m.take_match(None, 5) {
            Scan::Matched(e) => assert_eq!((e.src, e.tag), (1, 5)),
            _ => panic!("expected match"),
        }
        // The unmatched tag-7 message is still queued, order preserved.
        assert_eq!(m.queued_tags(), vec![(0, 7), (0, 5)]);
    }

    #[test]
    fn poison_reported_only_without_match() {
        let m = Mailbox::default();
        m.push(env(2, POISON_TAG));
        m.push(env(0, 3));
        // A live match is preferred over the poison report.
        assert!(matches!(m.take_match(Some(0), 3), Scan::Matched(_)));
        // With no match left, the poison surfaces.
        assert!(matches!(m.take_match(Some(0), 3), Scan::Poisoned { src: 2 }));
    }

    #[test]
    fn empty_scan() {
        let m = Mailbox::default();
        assert!(matches!(m.take_match(None, 1), Scan::Empty));
        assert!(!m.has_match_or_poison(None, 1));
        m.push(env(0, 1));
        assert!(m.has_match_or_poison(None, 1));
        assert!(!m.has_match_or_poison(None, 2));
    }

    #[test]
    fn envelope_is_40_bytes() {
        // Source, tag and a payload of up to 24 bytes in place: a queued
        // message is part of one cache line, not a pointer to another.
        assert_eq!(std::mem::size_of::<Envelope>(), 40);
    }

    fn marks(m: &[bool]) -> Vec<Cell<bool>> {
        m.iter().map(|&b| Cell::new(b)).collect()
    }

    /// Run `take_each` and list the sources delivered, in delivery order.
    fn each(m: &Mailbox, tag: u32, missing: &[Cell<bool>]) -> (Vec<u32>, Scan<u64>) {
        let mut got = Vec::new();
        let scan = m.take_each(tag, missing, &mut |src, _| got.push(src));
        (got, scan)
    }

    #[test]
    fn take_each_takes_one_per_marked_source_and_leaves_the_rest_in_place() {
        let m = Mailbox::default();
        for (src, tag) in [(2, 9), (1, 5), (0, 7), (1, 5), (3, 5), (2, 5), (0, 8)] {
            m.push(env(src, tag));
        }
        // Rank 0 is not marked (say it is the receiver), rank 3 was
        // delivered by an earlier pass.
        let missing = marks(&[false, true, true, false]);
        assert!(m.has_each_or_poison(5, &missing));
        let (got, scan) = each(&m, 5, &missing);
        // Oldest first, and only the first of rank 1's two messages.
        assert_eq!(got, vec![1, 2]);
        assert!(matches!(scan, Scan::Matched(2)));
        assert!(missing.iter().all(|c| !c.get()), "delivered marks are cleared");
        // Rank 1's second message kept its place; rank 3's stays because its
        // mark was already clear; the other tags kept their order.
        assert_eq!(m.queued_tags(), vec![(2, 9), (0, 7), (1, 5), (3, 5), (0, 8)]);
        // Nothing is missing any more: the leftovers belong to the next call.
        assert!(!m.has_each_or_poison(5, &missing));
        assert!(matches!(each(&m, 5, &missing), (got, Scan::Empty) if got.is_empty()));
    }

    #[test]
    fn take_each_reports_poison_only_when_nothing_was_delivered() {
        let m = Mailbox::default();
        m.push(env(2, POISON_TAG));
        m.push(env(1, 5));
        let missing = marks(&[false, true, true]);
        let (got, scan) = each(&m, 5, &missing);
        assert_eq!(got, vec![1]);
        assert!(matches!(scan, Scan::Matched(1)));
        // Rank 2 is still missing, nothing of it is queued, and it is dead.
        assert!(m.has_each_or_poison(5, &missing));
        assert!(matches!(each(&m, 5, &missing), (_, Scan::Poisoned { src: 2 })));
        assert_eq!(m.queued_tags(), vec![(2, POISON_TAG)]);
    }

    #[test]
    fn drain_reports_everything() {
        let m = Mailbox::default();
        m.push(env(0, 1));
        m.push(env(1, 2));
        assert_eq!(m.drain_all().len(), 2);
        assert!(matches!(m.take_match(None, 1), Scan::Empty));
    }
}
