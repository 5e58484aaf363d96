//! Arena-backed window views: zero-copy inverted-index blocks.
//!
//! A step-one sliding window over a sequence of length L produces L−k+1
//! overlapping k-windows; materializing each as its own `Vec<u8>` costs
//! ~k× the sequence's bytes and scatters leaf-scan reads across the heap.
//! Instead, every window of a sequence is a [`WindowView`] — a
//! `(backing, start, len)` triple over one shared, immutable buffer — and
//! each storage node keeps a [`SeqArena`] interning one backing buffer
//! per sequence it holds blocks of. The arena's byte counter charges each
//! sequence **once**, which is what the Fig. 5 load reports now measure
//! (see DESIGN.md §10).

use crate::dist::{BlockDistance, Metric};
use crate::seq::SeqId;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// A fixed window of residue codes borrowed from a shared backing buffer.
///
/// Dereferences to `&[u8]`, so it drops into every API that reads window
/// content. Equality is by *content* (two views over different backings
/// holding the same residues compare equal), matching the semantics of
/// the owned `Vec<u8>` windows it replaces.
#[derive(Debug, Clone)]
pub struct WindowView {
    bytes: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl WindowView {
    /// A view of `bytes[start .. start + len]`.
    ///
    /// # Panics
    /// Panics when the range falls outside the backing buffer.
    pub fn new(bytes: Arc<[u8]>, start: usize, len: usize) -> Self {
        assert!(
            start + len <= bytes.len(),
            "window [{start}, {}) out of range for backing of {} bytes",
            start + len,
            bytes.len()
        );
        WindowView {
            bytes,
            start: start as u32,
            len: len as u32,
        }
    }

    /// A self-contained view owning exactly `window` (the wire-decode
    /// path, before a receiving node re-anchors the block in its arena).
    pub fn standalone(window: Vec<u8>) -> Self {
        let len = window.len();
        WindowView {
            bytes: Arc::from(window),
            start: 0,
            len: len as u32,
        }
    }

    /// The window content.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[self.start as usize..self.start as usize + self.len as usize]
    }

    /// The shared backing buffer.
    #[inline]
    pub fn backing(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// Offset of the window within its backing buffer.
    #[inline]
    pub fn offset(&self) -> usize {
        self.start as usize
    }

    /// True when the view's offset within its backing equals `start` —
    /// i.e. the backing is addressed in sequence coordinates, so it can
    /// serve as (a prefix of) the sequence's arena buffer.
    #[inline]
    pub fn anchored_at(&self, start: u32) -> bool {
        self.start == start
    }
}

impl Deref for WindowView {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for WindowView {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for WindowView {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WindowView {}

impl From<Vec<u8>> for WindowView {
    fn from(window: Vec<u8>) -> Self {
        WindowView::standalone(window)
    }
}

/// Bridge slice metrics to view points, mirroring the `Vec<u8>` bridge.
impl<M: Metric<[u8]>> Metric<WindowView> for BlockDistance<M> {
    #[inline]
    fn dist(&self, a: &WindowView, b: &WindowView) -> f32 {
        self.inner.dist(a, b)
    }

    #[inline]
    fn dist_bounded(&self, a: &WindowView, b: &WindowView, bound: f32) -> Option<f32> {
        self.inner.dist_bounded(a, b, bound)
    }

    fn scan_bounded<'a, I>(&self, a: &WindowView, cands: I, bound: f32, out: &mut Vec<(u32, f32)>)
    where
        I: Iterator<Item = &'a WindowView>,
    {
        self.inner
            .scan_bounded(a, cands.map(WindowView::as_slice), bound, out);
    }
}

/// A per-node sequence arena: one immutable backing buffer per sequence,
/// shared by every [`WindowView`] cut from it.
///
/// `bytes()` counts each interned sequence exactly once, however many
/// overlapping windows reference it — the compressive accounting the
/// load-balance experiments report.
#[derive(Debug, Clone, Default)]
pub struct SeqArena {
    seqs: HashMap<u32, Arc<[u8]>>,
    bytes: u64,
}

impl SeqArena {
    /// An empty arena.
    pub fn new() -> Self {
        SeqArena::default()
    }

    /// The backing buffer for `id`, if interned.
    #[inline]
    pub fn get(&self, id: SeqId) -> Option<&Arc<[u8]>> {
        self.seqs.get(&id.0)
    }

    /// Intern `residues` for `id`, copying once; returns the (possibly
    /// pre-existing) shared buffer. Re-interning an id is a no-op that
    /// returns the first buffer.
    pub fn intern(&mut self, id: SeqId, residues: &[u8]) -> Arc<[u8]> {
        if let Some(a) = self.seqs.get(&id.0) {
            return a.clone();
        }
        let a: Arc<[u8]> = Arc::from(residues);
        self.bytes += a.len() as u64;
        self.seqs.insert(id.0, a.clone());
        a
    }

    /// Intern an already-shared buffer for `id` without copying.
    pub fn intern_arc(&mut self, id: SeqId, buffer: Arc<[u8]>) -> Arc<[u8]> {
        if let Some(a) = self.seqs.get(&id.0) {
            return a.clone();
        }
        self.bytes += buffer.len() as u64;
        self.seqs.insert(id.0, buffer.clone());
        buffer
    }

    /// A window view over sequence `id`, if it is interned and the range
    /// fits.
    pub fn view(&self, id: SeqId, start: u32, len: usize) -> Option<WindowView> {
        let backing = self.seqs.get(&id.0)?;
        if start as usize + len > backing.len() {
            return None;
        }
        Some(WindowView::new(backing.clone(), start as usize, len))
    }

    /// Total interned bytes, each sequence counted once.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of interned sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when nothing is interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Accounting invariant: the byte counter equals the sum of interned
    /// buffer lengths.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: u64 = self.seqs.values().map(|a| a.len() as u64).sum();
        if sum != self.bytes {
            return Err(format!(
                "arena byte counter {} does not match interned total {sum}",
                self.bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_backing() {
        let mut arena = SeqArena::new();
        let residues: Vec<u8> = (0..40u8).collect();
        let backing = arena.intern(SeqId(3), &residues);
        let a = WindowView::new(backing.clone(), 0, 16);
        let b = WindowView::new(backing.clone(), 5, 16);
        assert_eq!(&a[..], &residues[0..16]);
        assert_eq!(&b[..], &residues[5..21]);
        assert!(Arc::ptr_eq(a.backing(), b.backing()));
        assert_eq!(arena.bytes(), 40);
    }

    #[test]
    fn interning_is_idempotent_and_counts_once() {
        let mut arena = SeqArena::new();
        let first = arena.intern(SeqId(1), &[1, 2, 3]);
        let second = arena.intern(SeqId(1), &[9, 9, 9]); // ignored: already interned
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(arena.bytes(), 3);
        assert_eq!(arena.len(), 1);
        arena.intern_arc(SeqId(2), first.clone());
        assert_eq!(arena.bytes(), 6);
        assert_eq!(arena.check_invariants(), Ok(()));
    }

    #[test]
    fn arena_view_bounds_are_checked() {
        let mut arena = SeqArena::new();
        arena.intern(SeqId(0), &[0; 10]);
        assert!(arena.view(SeqId(0), 0, 10).is_some());
        assert!(arena.view(SeqId(0), 5, 6).is_none());
        assert!(arena.view(SeqId(9), 0, 1).is_none());
    }

    #[test]
    fn standalone_views_compare_by_content() {
        let mut arena = SeqArena::new();
        let backing = arena.intern(SeqId(0), &[7, 8, 9, 10]);
        let anchored = WindowView::new(backing, 1, 2);
        let standalone = WindowView::standalone(vec![8, 9]);
        assert_eq!(anchored, standalone);
        assert!(anchored.anchored_at(1));
        assert!(!standalone.anchored_at(1));
        assert_eq!(standalone.to_vec(), vec![8, 9]); // via Deref
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_view_is_rejected() {
        let backing: Arc<[u8]> = Arc::from(vec![0u8; 4]);
        WindowView::new(backing, 2, 3);
    }
}
