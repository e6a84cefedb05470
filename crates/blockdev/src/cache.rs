//! Hit/miss counters of the buffer cache that sits above the device.

use std::fmt;

/// Hit/miss counters of a block cache.
///
/// Reported by the inode-layer buffer cache of `rgpdos-inode` (the only
/// block cache in the stack) and surfaced through `Dbfs::cache_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the layer below.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} hit_rate={:.1}%",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_display() {
        let stats = CacheStats { hits: 1, misses: 1 };
        assert!((stats.hit_rate() - 0.5).abs() < f64::EPSILON);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert!(stats.to_string().contains("hits=1"));
    }
}
