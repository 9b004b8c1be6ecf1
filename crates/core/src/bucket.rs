//! Gain bucket structure: one instance per move direction (ordered block
//! pair), as in Sanchis' multi-way algorithm.
//!
//! Each bucket array is indexed by gain (offset by the maximum node degree
//! `p_max`, which bounds |gain|). Cells within a bucket are kept in a vector
//! with a position index per cell, giving O(1) insert/remove/adjust; the
//! maximum-gain pointer is maintained lazily. Within a bucket the *last*
//! inserted cell is scanned first, which preserves the classical LIFO
//! behaviour studied in the FM literature.

/// A gain-indexed bucket list over cells (`u32` node indices).
#[derive(Debug, Clone)]
pub struct GainBucket {
    /// `buckets[gain + offset]` holds the cells at that gain.
    buckets: Vec<Vec<u32>>,
    offset: i32,
    /// Per-cell position within its bucket; `u32::MAX` = not present.
    pos: Vec<u32>,
    /// Per-cell current gain (meaningful only when present).
    gain: Vec<i32>,
    /// Lazy upper bound on the best non-empty bucket.
    max_gain: i32,
    len: usize,
}

impl GainBucket {
    /// Creates a bucket structure for cells `0..cell_capacity` with gains
    /// in `[-p_max, p_max]`.
    #[must_use]
    pub fn new(cell_capacity: usize, p_max: usize) -> Self {
        let p = p_max as i32;
        GainBucket {
            buckets: vec![Vec::new(); 2 * p_max + 1],
            offset: p,
            pos: vec![u32::MAX; cell_capacity],
            gain: vec![0; cell_capacity],
            max_gain: -p,
            len: 0,
        }
    }

    /// Number of cells currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no cells are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every cell, keeping all allocations. The bucket is then
    /// indistinguishable from a new one of the same capacity: the same
    /// inserts leave the same cells in the same order.
    pub fn clear(&mut self) {
        let pos = &mut self.pos;
        for bucket in &mut self.buckets {
            for &cell in bucket.iter() {
                pos[cell as usize] = u32::MAX;
            }
            bucket.clear();
        }
        self.max_gain = -self.offset;
        self.len = 0;
    }

    /// Returns whether `cell` is present.
    #[inline]
    #[must_use]
    pub fn contains(&self, cell: u32) -> bool {
        self.pos[cell as usize] != u32::MAX
    }

    /// Returns the stored gain of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not present.
    #[inline]
    #[must_use]
    pub fn gain_of(&self, cell: u32) -> i32 {
        assert!(self.contains(cell), "cell {cell} not in bucket");
        self.gain[cell as usize]
    }

    /// Inserts `cell` with the given gain.
    ///
    /// # Panics
    ///
    /// Panics if the cell is already present or the gain is out of the
    /// `[-p_max, p_max]` range.
    pub fn insert(&mut self, cell: u32, gain: i32) {
        assert!(!self.contains(cell), "cell {cell} inserted twice");
        let idx = self.bucket_index(gain);
        self.pos[cell as usize] = self.buckets[idx].len() as u32;
        self.gain[cell as usize] = gain;
        self.buckets[idx].push(cell);
        self.len += 1;
        if gain > self.max_gain {
            self.max_gain = gain;
        }
    }

    /// Removes `cell` if present; returns whether it was present.
    pub fn remove(&mut self, cell: u32) -> bool {
        let p = self.pos[cell as usize];
        if p == u32::MAX {
            return false;
        }
        let idx = self.bucket_index(self.gain[cell as usize]);
        let bucket = &mut self.buckets[idx];
        let last = *bucket.last().expect("cell position implies non-empty bucket");
        bucket.swap_remove(p as usize);
        if last != cell {
            self.pos[last as usize] = p;
        }
        self.pos[cell as usize] = u32::MAX;
        self.len -= 1;
        true
    }

    /// Adjusts a present cell's gain by `delta` (no-op for `delta == 0`).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not present.
    pub fn adjust(&mut self, cell: u32, delta: i32) {
        if delta == 0 {
            return;
        }
        let g = self.gain_of(cell);
        self.remove(cell);
        self.insert(cell, g + delta);
    }

    /// Returns the highest gain with a non-empty bucket, or `None`.
    #[must_use]
    pub fn max_gain(&mut self) -> Option<i32> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = self.bucket_index(self.max_gain);
            if !self.buckets[idx].is_empty() {
                return Some(self.max_gain);
            }
            self.max_gain -= 1;
        }
    }

    /// Returns the cells at exactly the given gain (most recently inserted
    /// last).
    #[must_use]
    pub fn cells_at(&self, gain: i32) -> &[u32] {
        &self.buckets[self.bucket_index(gain)]
    }

    #[inline]
    fn bucket_index(&self, gain: i32) -> usize {
        let idx = gain + self.offset;
        assert!(
            idx >= 0 && (idx as usize) < self.buckets.len(),
            "gain {gain} out of range ±{}",
            self.offset
        );
        idx as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_max() {
        let mut b = GainBucket::new(10, 5);
        assert!(b.is_empty());
        b.insert(3, 2);
        b.insert(4, -1);
        b.insert(5, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.max_gain(), Some(2));
        assert_eq!(b.cells_at(2), &[3, 5]);
    }

    #[test]
    fn remove_updates_max_lazily() {
        let mut b = GainBucket::new(10, 5);
        b.insert(1, 4);
        b.insert(2, 0);
        assert_eq!(b.max_gain(), Some(4));
        assert!(b.remove(1));
        assert_eq!(b.max_gain(), Some(0));
        assert!(!b.remove(1));
        assert!(b.remove(2));
        assert_eq!(b.max_gain(), None);
    }

    #[test]
    fn adjust_moves_between_buckets() {
        let mut b = GainBucket::new(4, 5);
        b.insert(0, 1);
        b.adjust(0, 3);
        assert_eq!(b.gain_of(0), 4);
        assert_eq!(b.max_gain(), Some(4));
        b.adjust(0, -5);
        assert_eq!(b.gain_of(0), -1);
        assert_eq!(b.max_gain(), Some(-1));
    }

    #[test]
    fn swap_remove_fixes_positions() {
        let mut b = GainBucket::new(5, 3);
        b.insert(0, 1);
        b.insert(1, 1);
        b.insert(2, 1);
        assert!(b.remove(0)); // cell 2 swaps into slot 0
        assert!(b.contains(2));
        assert!(b.remove(2));
        assert_eq!(b.cells_at(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut b = GainBucket::new(4, 2);
        b.insert(1, 0);
        b.insert(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gain_out_of_range_panics() {
        let mut b = GainBucket::new(4, 2);
        b.insert(0, 3);
    }
}
