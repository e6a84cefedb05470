//! In-memory allocation bitmaps persisted to fixed device regions.

use crate::error::InodeError;

/// A simple bit set tracking allocation of inodes or blocks.
///
/// The bitmap is held in memory by the mounted filesystem; dirty bitmap
/// blocks are included in the journal transaction of the operation that
/// modified them, which keeps them crash-consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    capacity: u64,
}

impl Bitmap {
    /// Creates a bitmap able to track `capacity` items, all free.
    pub fn new(capacity: u64) -> Self {
        let bytes = capacity.div_ceil(8) as usize;
        Self {
            bits: vec![0u8; bytes],
            capacity,
        }
    }

    /// Rebuilds a bitmap from the raw bytes of its persisted region.
    pub fn from_bytes(bytes: &[u8], capacity: u64) -> Self {
        let needed = capacity.div_ceil(8) as usize;
        let mut bits = bytes.to_vec();
        bits.resize(needed, 0);
        Self { bits, capacity }
    }

    /// Number of items the bitmap tracks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Returns `true` if `index` is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_set(&self, index: u64) -> bool {
        assert!(index < self.capacity, "bitmap index out of range");
        self.bits[(index / 8) as usize] & (1 << (index % 8)) != 0
    }

    /// Marks `index` allocated.
    pub fn set(&mut self, index: u64) {
        assert!(index < self.capacity, "bitmap index out of range");
        self.bits[(index / 8) as usize] |= 1 << (index % 8);
    }

    /// Marks `index` free.
    pub fn clear(&mut self, index: u64) {
        assert!(index < self.capacity, "bitmap index out of range");
        self.bits[(index / 8) as usize] &= !(1 << (index % 8));
    }

    /// Finds, marks and returns the first free index at or after `from`,
    /// wrapping around to the indexes before it: exact first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::OutOfSpace`], mapped by callers to the
    /// appropriate out-of-space error, when every index is allocated.
    pub fn allocate_from(&mut self, from: u64) -> Result<u64, InodeError> {
        let from = from.min(self.capacity);
        let index = self
            .first_free(from, self.capacity)
            .or_else(|| self.first_free(0, from))
            .ok_or(InodeError::OutOfSpace)?;
        self.set(index);
        Ok(index)
    }

    /// The first free index in `from..end`, skipping full bytes whole.
    fn first_free(&self, from: u64, end: u64) -> Option<u64> {
        let mut index = from;
        while index < end {
            let byte = self.bits[(index / 8) as usize];
            if byte == 0xFF && index.is_multiple_of(8) {
                index += 8;
            } else if byte & (1 << (index % 8)) == 0 {
                return Some(index);
            } else {
                index += 1;
            }
        }
        None
    }

    /// Number of allocated items.
    pub fn count_set(&self) -> u64 {
        self.bits.iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// Serialises the bitmap bytes that belong to persisted block `block_index`
    /// (0-based within the bitmap region) into a block-sized buffer.
    pub fn block_bytes(&self, block_index: u64, block_size: usize) -> Vec<u8> {
        let start = block_index as usize * block_size;
        let mut out = vec![0u8; block_size];
        if start < self.bits.len() {
            let end = (start + block_size).min(self.bits.len());
            out[..end - start].copy_from_slice(&self.bits[start..end]);
        }
        out
    }

    /// The bitmap-region block (0-based) that stores the bit for `index`.
    pub fn block_of(&self, index: u64, block_size: usize) -> u64 {
        (index / 8) / block_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_and_count() {
        let mut bm = Bitmap::new(20);
        assert_eq!(bm.capacity(), 20);
        assert_eq!(bm.count_set(), 0);
        bm.set(3);
        bm.set(19);
        assert!(bm.is_set(3));
        assert!(bm.is_set(19));
        assert!(!bm.is_set(4));
        assert_eq!(bm.count_set(), 2);
        bm.clear(3);
        assert!(!bm.is_set(3));
        assert_eq!(bm.count_set(), 1);
    }

    #[test]
    fn allocate_scans_and_wraps() {
        let mut bm = Bitmap::new(4);
        assert_eq!(bm.allocate_from(0).unwrap(), 0);
        assert_eq!(bm.allocate_from(0).unwrap(), 1);
        assert_eq!(bm.allocate_from(3).unwrap(), 3);
        // Wraps around to index 2.
        assert_eq!(bm.allocate_from(3).unwrap(), 2);
        assert!(matches!(bm.allocate_from(0), Err(InodeError::OutOfSpace)));
    }

    proptest::proptest! {
        /// The byte-skipping scan places exactly where the bit-by-bit one
        /// does, full bytes, a ragged last byte and the wrap-around included.
        #[test]
        fn allocate_from_is_exact_first_fit(
            capacity in 1u64..200,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 25..26),
            dense in proptest::prelude::any::<bool>(),
            from in 0u64..220,
        ) {
            // Random bytes, or — to meet runs of full bytes — mostly 0xFF.
            let fill = |&byte: &u8| if dense && byte > 40 { 0xFF } else { byte };
            let bytes: Vec<u8> = bytes.iter().map(fill).collect();
            let mut bitmap = Bitmap::from_bytes(&bytes, capacity);
            let naive = (from.min(capacity)..capacity)
                .chain(0..from.min(capacity))
                .find(|&index| !bitmap.is_set(index));
            let before = bitmap.count_set();
            match bitmap.allocate_from(from) {
                Ok(index) => {
                    proptest::prop_assert_eq!(Some(index), naive);
                    proptest::prop_assert!(bitmap.is_set(index));
                    proptest::prop_assert_eq!(bitmap.count_set(), before + 1);
                }
                Err(_) => proptest::prop_assert_eq!(naive, None),
            }
        }
    }

    #[test]
    fn round_trip_through_block_bytes() {
        let mut bm = Bitmap::new(1000);
        for i in (0..1000).step_by(7) {
            bm.set(i);
        }
        let block_size = 64;
        let blocks = (1000usize.div_ceil(8)).div_ceil(block_size);
        let mut bytes = Vec::new();
        for b in 0..blocks as u64 {
            bytes.extend_from_slice(&bm.block_bytes(b, block_size));
        }
        let rebuilt = Bitmap::from_bytes(&bytes, 1000);
        assert_eq!(rebuilt, bm);
    }

    #[test]
    fn block_of_maps_bits_to_blocks() {
        let bm = Bitmap::new(100_000);
        assert_eq!(bm.block_of(0, 512), 0);
        assert_eq!(bm.block_of(512 * 8 - 1, 512), 0);
        assert_eq!(bm.block_of(512 * 8, 512), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Bitmap::new(8).set(8);
    }
}
