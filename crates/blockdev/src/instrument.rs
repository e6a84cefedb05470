//! Instrumentation wrapper: operation counters and a simulated latency model.
//!
//! The experiments and `rgpdbench` report both wall-clock time and
//! *simulated device time*, which is what the paper's storage-level arguments
//! are about.  The [`LatencyModel`] charges a configurable cost per read and
//! per write; the [`InstrumentedDevice`] accumulates those costs and exposes
//! counters.

use crate::device::{BlockDevice, DeviceGeometry};
use crate::error::DeviceError;
use rgpdos_trace::{Hist, TraceClock, TraceCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Latency charged to each device operation, in simulated microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of one block read.
    pub read_us: u64,
    /// Cost of one block write.
    pub write_us: u64,
    /// Cost of one flush.
    pub flush_us: u64,
}

impl LatencyModel {
    /// A model approximating a datacenter NVMe drive.
    pub fn nvme() -> Self {
        Self {
            read_us: 20,
            write_us: 30,
            flush_us: 100,
        }
    }

    /// A model approximating a SATA SSD.
    pub fn ssd() -> Self {
        Self {
            read_us: 80,
            write_us: 120,
            flush_us: 500,
        }
    }

    /// A model approximating a 7200 RPM hard disk.
    pub fn hdd() -> Self {
        Self {
            read_us: 4_000,
            write_us: 5_000,
            flush_us: 8_000,
        }
    }

    /// A free model (no simulated latency), useful in unit tests.
    pub fn zero() -> Self {
        Self {
            read_us: 0,
            write_us: 0,
            flush_us: 0,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::nvme()
    }
}

/// Counters accumulated by an [`InstrumentedDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of block reads.
    pub reads: u64,
    /// Number of block writes.
    pub writes: u64,
    /// Number of flushes.
    pub flushes: u64,
    /// Total simulated time spent, in microseconds.
    pub simulated_us: u64,
}

impl DeviceStats {
    /// Total number of I/O operations.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.flushes
    }
}

/// Per-operation latency histograms plus the trace clock the device
/// advances as it charges its model — how the simulated-time model becomes
/// the time source for every latency histogram in the stack.
#[derive(Debug, Clone)]
struct DeviceTrace {
    clock: Arc<TraceClock>,
    read_us: Hist,
    write_us: Hist,
    flush_us: Hist,
}

/// Wraps a device, counting operations and charging simulated latency.
#[derive(Debug)]
pub struct InstrumentedDevice<D> {
    inner: D,
    model: LatencyModel,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    simulated_us: AtomicU64,
    trace: Option<DeviceTrace>,
}

impl<D: BlockDevice> InstrumentedDevice<D> {
    /// Wraps `inner` with the given latency model.
    pub fn new(inner: D, model: LatencyModel) -> Self {
        Self {
            inner,
            model,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            simulated_us: AtomicU64::new(0),
            trace: None,
        }
    }

    /// Like [`InstrumentedDevice::new`], but additionally recording
    /// per-operation latency into `ctx`'s `device_read_us` /
    /// `device_write_us` / `device_flush_us` histograms (labeled
    /// `device="<device>"`), and — when `ctx` runs on a simulated clock —
    /// advancing that clock by the model cost of every operation, so
    /// higher-layer timers read consistent simulated time.
    pub fn with_trace(inner: D, model: LatencyModel, ctx: &TraceCtx, device: &str) -> Self {
        let labels = [("device", device)];
        let mut this = Self::new(inner, model);
        this.trace = Some(DeviceTrace {
            clock: Arc::clone(&ctx.clock),
            read_us: ctx.registry.histogram_with("device_read_us", &labels),
            write_us: ctx.registry.histogram_with("device_write_us", &labels),
            flush_us: ctx.registry.histogram_with("device_flush_us", &labels),
        });
        this
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            simulated_us: self.simulated_us.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.simulated_us.store(0, Ordering::Relaxed);
    }

    /// Gives access to the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for InstrumentedDevice<D> {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.simulated_us
            .fetch_add(self.model.read_us, Ordering::Relaxed);
        match &self.trace {
            None => self.inner.read_block(block),
            Some(t) => {
                let start = t.clock.now_us();
                let result = self.inner.read_block(block);
                t.clock.advance_us(self.model.read_us);
                t.read_us.record(t.clock.now_us().saturating_sub(start));
                result
            }
        }
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.simulated_us
            .fetch_add(self.model.write_us, Ordering::Relaxed);
        match &self.trace {
            None => self.inner.write_block(block, data),
            Some(t) => {
                let start = t.clock.now_us();
                let result = self.inner.write_block(block, data);
                t.clock.advance_us(self.model.write_us);
                t.write_us.record(t.clock.now_us().saturating_sub(start));
                result
            }
        }
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.simulated_us
            .fetch_add(self.model.flush_us, Ordering::Relaxed);
        match &self.trace {
            None => self.inner.flush(),
            Some(t) => {
                let start = t.clock.now_us();
                let result = self.inner.flush();
                t.clock.advance_us(self.model.flush_us);
                t.flush_us.record(t.clock.now_us().saturating_sub(start));
                result
            }
        }
    }

    fn sanitizer(&self) -> Option<&crate::sanitize::BlockSanitizer> {
        self.inner.sanitizer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDevice;

    #[test]
    fn counters_and_latency_accumulate() {
        let d = InstrumentedDevice::new(MemDevice::new(4, 16), LatencyModel::ssd());
        d.write_block(0, &[1u8; 16]).unwrap();
        d.write_block(1, &[2u8; 16]).unwrap();
        let _ = d.read_block(0).unwrap();
        d.flush().unwrap();
        let stats = d.stats();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.simulated_us, 80 + 2 * 120 + 500);
        assert_eq!(stats.total_ops(), 4);
        d.reset_stats();
        assert_eq!(d.stats(), DeviceStats::default());
        assert_eq!(d.inner().touched_blocks(), 2);
    }

    #[test]
    fn latency_presets_are_ordered() {
        assert!(LatencyModel::nvme().read_us < LatencyModel::ssd().read_us);
        assert!(LatencyModel::ssd().read_us < LatencyModel::hdd().read_us);
        assert_eq!(LatencyModel::zero().write_us, 0);
        assert_eq!(LatencyModel::default(), LatencyModel::nvme());
    }

    #[test]
    fn traced_device_drives_the_sim_clock_and_histograms() {
        let ctx = TraceCtx::sim();
        let d = InstrumentedDevice::with_trace(
            MemDevice::new(4, 16),
            LatencyModel::nvme(),
            &ctx,
            "pd0",
        );
        d.write_block(0, &[1u8; 16]).unwrap();
        let _ = d.read_block(0).unwrap();
        d.flush().unwrap();
        // The simulated clock advanced by exactly the modeled cost…
        assert_eq!(ctx.clock.now_us(), 30 + 20 + 100);
        assert_eq!(d.stats().simulated_us, 150);
        // …and each histogram recorded that cost as the op latency.
        let w = ctx
            .registry
            .histogram_summary("device_write_us", &[("device", "pd0")])
            .unwrap();
        assert_eq!((w.count, w.p50), (1, 30));
        let f = ctx
            .registry
            .histogram_summary("device_flush_us", &[("device", "pd0")])
            .unwrap();
        assert_eq!((f.count, f.max), (1, 100));
    }

    #[test]
    fn errors_pass_through_and_are_still_counted() {
        let d = InstrumentedDevice::new(MemDevice::new(1, 16), LatencyModel::zero());
        assert!(d.read_block(5).is_err());
        assert_eq!(d.stats().reads, 1);
        let inner = d.into_inner();
        assert_eq!(inner.touched_blocks(), 0);
    }
}
