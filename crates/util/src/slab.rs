//! Lazily-paged dense slabs for per-block simulator state.
//!
//! The hot path of the engine touches one record per memory block on nearly
//! every access (directory entry, busy-until time, oracle tracking). Keying
//! those records by hashed `BlockAddr` costs a hash + probe per touch;
//! indexing a dense array by block index costs two loads. Simulated
//! address spaces are sparse, so — exactly like the backing store — the
//! slab materializes fixed-size pages on first touch and reads untouched
//! entries as `T::default()`.

/// Entries per lazily-allocated page (a power of two so the split compiles
/// to shift/mask).
const PAGE: usize = 4096;

/// A growable dense array indexed by block index, with lazily materialized
/// pages. Untouched entries read as `T::default()`.
pub struct Slab<T> {
    pages: Vec<Option<Box<[T]>>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { pages: Vec::new() }
    }
}

impl<T: Default + Clone> Slab<T> {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn locate(index: usize) -> (usize, usize) {
        (index / PAGE, index % PAGE)
    }

    /// Borrow the entry at `index`, or `None` if its page was never
    /// touched. (An untouched entry is semantically `T::default()`; this
    /// form lets read paths skip materializing pages.)
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        let (p, o) = Self::locate(index);
        match self.pages.get(p) {
            Some(Some(page)) => Some(&page[o]),
            _ => None,
        }
    }

    /// Mutably borrow the entry at `index`, or `None` if its page was never
    /// touched. Never materializes a page, so a write path that leaves
    /// default entries alone (clearing bits already clear) can skip it.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        let (p, o) = Self::locate(index);
        match self.pages.get_mut(p) {
            Some(Some(page)) => Some(&mut page[o]),
            _ => None,
        }
    }

    /// Mutably borrow the entry at `index`, materializing its page.
    #[inline]
    pub fn entry(&mut self, index: usize) -> &mut T {
        let (p, o) = Self::locate(index);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| vec![T::default(); PAGE].into_boxed_slice());
        &mut page[o]
    }

    /// Iterate over every entry of every materialized page, in index
    /// order. Callers filter out still-default entries where it matters.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter()
                .flat_map(move |pg| pg.iter().enumerate().map(move |(o, t)| (p * PAGE + o, t)))
        })
    }

    /// Number of materialized pages (capacity diagnostics).
    pub fn pages_committed(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl<T: Copy + Default> Slab<T> {
    /// Read the entry at `index` by value (`T::default()` if untouched).
    #[inline]
    pub fn load(&self, index: usize) -> T {
        self.get(index).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_entries_read_default() {
        let s: Slab<u64> = Slab::new();
        assert_eq!(s.load(0), 0);
        assert_eq!(s.load(1 << 30), 0);
        assert!(s.get(7).is_none());
        assert_eq!(s.pages_committed(), 0);
    }

    #[test]
    fn entry_round_trips_and_pages_lazily() {
        let mut s: Slab<u64> = Slab::new();
        *s.entry(5) = 50;
        *s.entry(5 + PAGE * 3) = 99;
        assert_eq!(s.load(5), 50);
        assert_eq!(s.load(5 + PAGE * 3), 99);
        assert_eq!(s.load(6), 0);
        // Only the two touched pages exist, despite the index gap.
        assert_eq!(s.pages_committed(), 2);
    }

    #[test]
    fn get_mut_never_materializes() {
        let mut s: Slab<u64> = Slab::new();
        assert!(s.get_mut(3).is_none());
        assert!(s.get_mut(3 + PAGE * 5).is_none());
        assert_eq!(s.pages_committed(), 0);
        *s.entry(3) = 1;
        *s.get_mut(4).expect("page 0 is materialized") = 2;
        assert_eq!((s.load(3), s.load(4)), (1, 2));
        assert!(s.get_mut(3 + PAGE).is_none());
        assert_eq!(s.pages_committed(), 1);
    }

    #[test]
    fn iter_visits_in_index_order() {
        let mut s: Slab<u32> = Slab::new();
        *s.entry(PAGE + 1) = 2;
        *s.entry(3) = 1;
        let touched: Vec<(usize, u32)> = s
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
            .collect();
        assert_eq!(touched, vec![(3, 1), (PAGE + 1, 2)]);
    }

    #[test]
    fn non_copy_payloads_work() {
        let mut s: Slab<Vec<u8>> = Slab::new();
        s.entry(10).push(7);
        s.entry(10).push(8);
        assert_eq!(s.get(10).map(|v| v.as_slice()), Some(&[7u8, 8][..]));
    }
}
