//! Zero-copy window views: inverted-index blocks over a shared sequence.
//!
//! A step-one sliding window over a sequence of length L produces L−k+1
//! overlapping k-windows; materializing each as its own `Vec<u8>` costs
//! ~k× the sequence's bytes. Instead, every window of a sequence is a
//! [`WindowView`] — a `(backing, start, len)` triple over one shared,
//! immutable buffer — from fragmentation through routing and durable
//! storage, whose blobs are those buffers (DESIGN.md §10).

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

    /// A self-contained view owning exactly `window`, for a window with
    /// no stored sequence to view.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_backing() {
        let residues: Vec<u8> = (0..40u8).collect();
        let backing: Arc<[u8]> = Arc::from(residues.as_slice());
        let a = WindowView::new(backing.clone(), 0, 16);
        let b = WindowView::new(backing.clone(), 5, 16);
        assert_eq!(&a[..], &residues[0..16]);
        assert_eq!(&b[..], &residues[5..21]);
        assert!(Arc::ptr_eq(a.backing(), b.backing()));
        assert_eq!(b.offset(), 5);
    }

    #[test]
    fn standalone_views_compare_by_content() {
        let anchored = WindowView::new(Arc::from(vec![7u8, 8, 9, 10]), 1, 2);
        let standalone = WindowView::standalone(vec![8, 9]);
        assert_eq!(anchored, standalone);
        assert_eq!(standalone.offset(), 0);
        assert_eq!(standalone.to_vec(), vec![8, 9]); // via Deref
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_view_is_rejected() {
        let backing: Arc<[u8]> = Arc::from(vec![0u8; 4]);
        WindowView::new(backing, 2, 3);
    }
}
