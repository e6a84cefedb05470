//! Fault injection: simulated crashes, torn writes and failing reads.
//!
//! The inode layer's journal recovery (and DBFS's durability claims) are
//! tested by letting the device "crash" after a configurable number of
//! writes, then remounting the filesystem and checking invariants.  The
//! crash-point harness (`rgpdos-bench`'s `crashgrind`) brute-forces this:
//! it sweeps `CrashAfterWrites(k)` over every `k` a workload performs.
//!
//! Two layers of API:
//!
//! * [`FaultScript`] — an ordered sequence of [`FaultEvent`]s triggered by
//!   absolute operation counters: none ([`FaultScript::none`]), a single
//!   crash, torn write or failing read, or e.g. "torn write at write 7,
//!   then a full crash at write 20, then a transient read error after the
//!   reboot";
//! * [`FaultCell`] — the shared trigger state behind a script.  Several
//!   [`FaultyDevice`]s can share one cell
//!   ([`FaultyDevice::with_cell`]), which models a whole-machine power
//!   loss taking down every shard device of a sharded deployment at the
//!   same global write index.

use crate::device::{BlockDevice, DeviceGeometry};
use crate::error::DeviceError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One scripted fault event.  Counters are *absolute* operation indexes on
/// the shared [`FaultCell`], counted across every device attached to it.
/// Each event fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The device(s) go down once the total write count reaches `n`; every
    /// operation fails until [`FaultCell::revive`].
    CrashAfterWrites(u64),
    /// Write number `n` (0-based) is torn: only the first half of the block
    /// reaches the medium.
    TornWriteAt(u64),
    /// Read number `n` (0-based) fails transiently.
    FailedReadAt(u64),
}

/// An ordered set of fault events sharing one pair of read/write counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// A script made of the given events.
    pub fn new(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        Self {
            events: events.into_iter().collect(),
        }
    }

    /// The empty script (never fails).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single whole-machine crash once `n` writes have happened.
    pub fn crash_after_writes(n: u64) -> Self {
        Self::new([FaultEvent::CrashAfterWrites(n)])
    }

    /// The events still pending in the script.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// The shared trigger state of a fault script.  Attach the same cell to
/// several devices ([`FaultyDevice::with_cell`]) to model one machine whose
/// crash takes every attached device down at the same global write index.
#[derive(Debug)]
pub struct FaultCell {
    pending: Mutex<Vec<FaultEvent>>,
    writes_seen: AtomicU64,
    reads_seen: AtomicU64,
    down: AtomicBool,
}

impl FaultCell {
    /// A cell armed with the given script.
    pub fn new(script: FaultScript) -> Self {
        Self {
            pending: Mutex::new(script.events),
            writes_seen: AtomicU64::new(0),
            reads_seen: AtomicU64::new(0),
            down: AtomicBool::new(false),
        }
    }

    /// Whether the simulated machine is currently down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Brings the machine back up (models a reboot: data already on the
    /// media is preserved, in-flight operations were lost).  Pending script
    /// events with higher operation indexes remain armed.
    pub fn revive(&self) {
        self.down.store(false, Ordering::SeqCst);
    }

    /// Total writes observed across every attached device.
    pub fn writes_seen(&self) -> u64 {
        self.writes_seen.load(Ordering::SeqCst)
    }

    /// Total reads observed across every attached device.
    pub fn reads_seen(&self) -> u64 {
        self.reads_seen.load(Ordering::SeqCst)
    }

    /// Runs `op` and returns how many writes it performed (across every
    /// device attached to this cell) together with its result.  Crash-point
    /// sweeps use this probe instead of hand-counting writes.
    pub fn writes_between<R>(&self, op: impl FnOnce() -> R) -> (u64, R) {
        let before = self.writes_seen();
        let result = op();
        (self.writes_seen() - before, result)
    }

    /// Outcome of one write attempt against the script.
    fn on_write(&self) -> Result<WriteOutcome, DeviceError> {
        if self.is_down() {
            return Err(DeviceError::DeviceDown);
        }
        let n = self.writes_seen.fetch_add(1, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        let fired = pending.iter().position(|event| {
            matches!(event, FaultEvent::CrashAfterWrites(limit) if n >= *limit)
                || matches!(event, FaultEvent::TornWriteAt(target) if n == *target)
        });
        if let Some(i) = fired {
            let event = pending.remove(i);
            drop(pending);
            return match event {
                FaultEvent::CrashAfterWrites(_) => {
                    self.down.store(true, Ordering::SeqCst);
                    Err(DeviceError::InjectedFault {
                        operation: "write",
                        at_op: n,
                    })
                }
                FaultEvent::TornWriteAt(_) => Ok(WriteOutcome::Torn { at_op: n }),
                FaultEvent::FailedReadAt(_) => unreachable!("read events never match writes"),
            };
        }
        Ok(WriteOutcome::Normal)
    }

    /// Outcome of one read attempt against the script.
    fn on_read(&self) -> Result<(), DeviceError> {
        if self.is_down() {
            return Err(DeviceError::DeviceDown);
        }
        let n = self.reads_seen.fetch_add(1, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        let fired = pending
            .iter()
            .position(|event| matches!(event, FaultEvent::FailedReadAt(target) if n == *target));
        if let Some(i) = fired {
            pending.remove(i);
            return Err(DeviceError::InjectedFault {
                operation: "read",
                at_op: n,
            });
        }
        Ok(())
    }
}

enum WriteOutcome {
    Normal,
    Torn { at_op: u64 },
}

/// Wraps a device with a fault script.
#[derive(Debug)]
pub struct FaultyDevice<D> {
    inner: D,
    cell: Arc<FaultCell>,
}

impl<D: BlockDevice> FaultyDevice<D> {
    /// Wraps `inner` with a fault script of its own.
    pub fn new(inner: D, script: FaultScript) -> Self {
        Self::with_cell(inner, Arc::new(FaultCell::new(script)))
    }

    /// Wraps `inner` with an existing (possibly shared) fault cell.  Every
    /// device sharing a cell shares its counters, its script and its crash
    /// state — a whole-machine fault domain.
    pub fn with_cell(inner: D, cell: Arc<FaultCell>) -> Self {
        Self { inner, cell }
    }

    /// The shared fault state behind this device.
    pub fn cell(&self) -> Arc<FaultCell> {
        Arc::clone(&self.cell)
    }

    /// Returns `true` once the simulated crash has happened.
    pub fn is_down(&self) -> bool {
        self.cell.is_down()
    }

    /// Brings a crashed device back up (models a reboot: the data already on
    /// the medium is preserved, in-flight operations were lost).
    pub fn revive(&self) {
        self.cell.revive();
    }

    /// Number of writes observed so far (cell-wide).
    pub fn writes_seen(&self) -> u64 {
        self.cell.writes_seen()
    }

    /// Number of reads observed so far (cell-wide).
    pub fn reads_seen(&self) -> u64 {
        self.cell.reads_seen()
    }

    /// Runs `op` and returns how many writes it performed, with its result.
    pub fn writes_between<R>(&self, op: impl FnOnce() -> R) -> (u64, R) {
        self.cell.writes_between(op)
    }

    /// Gives access to the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDevice<D> {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        self.cell.on_read()?;
        self.inner.read_block(block)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        match self.cell.on_write()? {
            WriteOutcome::Normal => self.inner.write_block(block, data),
            WriteOutcome::Torn { at_op } => {
                // Write only the first half of the block, zero the rest.
                let mut torn = data.to_vec();
                let half = torn.len() / 2;
                for byte in &mut torn[half..] {
                    *byte = 0;
                }
                self.inner.write_block(block, &torn)?;
                Err(DeviceError::InjectedFault {
                    operation: "torn-write",
                    at_op,
                })
            }
        }
    }

    fn flush(&self) -> Result<(), DeviceError> {
        if self.cell.is_down() {
            return Err(DeviceError::DeviceDown);
        }
        self.inner.flush()
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
    fn the_empty_script_never_fails() {
        let d = FaultyDevice::new(MemDevice::new(4, 8), FaultScript::none());
        for i in 0..4 {
            d.write_block(i, &[i as u8; 8]).unwrap();
        }
        assert!(!d.is_down());
        assert_eq!(d.writes_seen(), 4);
    }

    #[test]
    fn crash_after_writes() {
        let d = FaultyDevice::new(MemDevice::new(8, 8), FaultScript::crash_after_writes(2));
        d.write_block(0, &[1u8; 8]).unwrap();
        d.write_block(1, &[2u8; 8]).unwrap();
        assert!(matches!(
            d.write_block(2, &[3u8; 8]),
            Err(DeviceError::InjectedFault { .. })
        ));
        assert!(d.is_down());
        // Everything fails while down.
        assert!(matches!(d.read_block(0), Err(DeviceError::DeviceDown)));
        assert!(matches!(d.flush(), Err(DeviceError::DeviceDown)));
        // Reviving preserves the data written before the crash.
        d.revive();
        assert_eq!(d.read_block(0).unwrap(), vec![1u8; 8]);
        assert_eq!(d.read_block(2).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn torn_write() {
        let script = FaultScript::new([FaultEvent::TornWriteAt(1)]);
        let d = FaultyDevice::new(MemDevice::new(4, 8), script);
        d.write_block(0, &[0xFFu8; 8]).unwrap();
        assert!(matches!(
            d.write_block(1, &[0xFFu8; 8]),
            Err(DeviceError::InjectedFault { .. })
        ));
        // Torn block: first half written, second half zeroed.
        assert_eq!(
            d.read_block(1).unwrap(),
            vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]
        );
        // Device keeps working afterwards.
        d.write_block(2, &[0xAAu8; 8]).unwrap();
        assert_eq!(d.inner().touched_blocks(), 3);
    }

    #[test]
    fn failed_read_is_transient() {
        let script = FaultScript::new([FaultEvent::FailedReadAt(1)]);
        let d = FaultyDevice::new(MemDevice::new(4, 8), script);
        d.write_block(0, &[7u8; 8]).unwrap();
        assert_eq!(d.read_block(0).unwrap(), vec![7u8; 8]);
        assert!(matches!(
            d.read_block(0),
            Err(DeviceError::InjectedFault {
                operation: "read",
                ..
            })
        ));
        // The next read succeeds and the device never went down.
        assert_eq!(d.read_block(0).unwrap(), vec![7u8; 8]);
        assert!(!d.is_down());
        assert_eq!(d.reads_seen(), 3);
    }

    #[test]
    fn scripted_sequence_fires_each_event_once() {
        // Torn write at 1, crash at 3, failing read at 0 (after revive).
        let script = FaultScript::new([
            FaultEvent::TornWriteAt(1),
            FaultEvent::CrashAfterWrites(3),
            FaultEvent::FailedReadAt(2),
        ]);
        let d = FaultyDevice::new(MemDevice::new(8, 8), script);
        d.write_block(0, &[1u8; 8]).unwrap();
        assert!(matches!(
            d.write_block(1, &[0xFFu8; 8]),
            Err(DeviceError::InjectedFault {
                operation: "torn-write",
                ..
            })
        ));
        d.write_block(2, &[3u8; 8]).unwrap();
        assert!(matches!(
            d.write_block(3, &[4u8; 8]),
            Err(DeviceError::InjectedFault {
                operation: "write",
                ..
            })
        ));
        assert!(d.is_down());
        d.revive();
        // Reads 0 and 1 happened before the crash? No — none did: the read
        // counter is still at 0, so reads 0 and 1 succeed and read 2 fails.
        assert!(d.read_block(0).is_ok());
        assert!(d.read_block(0).is_ok());
        assert!(matches!(
            d.read_block(0),
            Err(DeviceError::InjectedFault { .. })
        ));
        // The crash event fired once: writing past the old limit works now.
        d.write_block(4, &[5u8; 8]).unwrap();
        assert!(!d.is_down());
    }

    #[test]
    fn shared_cell_crashes_every_attached_device() {
        let cell = Arc::new(FaultCell::new(FaultScript::crash_after_writes(3)));
        let a = FaultyDevice::with_cell(MemDevice::new(4, 8), Arc::clone(&cell));
        let b = FaultyDevice::with_cell(MemDevice::new(4, 8), Arc::clone(&cell));
        a.write_block(0, &[1u8; 8]).unwrap();
        b.write_block(0, &[2u8; 8]).unwrap();
        a.write_block(1, &[3u8; 8]).unwrap();
        // The 4th write — on device B — trips the *global* counter.
        assert!(matches!(
            b.write_block(1, &[4u8; 8]),
            Err(DeviceError::InjectedFault { .. })
        ));
        assert!(a.is_down() && b.is_down());
        assert!(matches!(a.read_block(0), Err(DeviceError::DeviceDown)));
        cell.revive();
        assert_eq!(a.read_block(0).unwrap(), vec![1u8; 8]);
        assert_eq!(cell.writes_seen(), 4);
    }

    #[test]
    fn writes_between_probe_counts_cell_wide() {
        let cell = Arc::new(FaultCell::new(FaultScript::none()));
        let a = FaultyDevice::with_cell(MemDevice::new(4, 8), Arc::clone(&cell));
        let b = FaultyDevice::with_cell(MemDevice::new(4, 8), Arc::clone(&cell));
        a.write_block(0, &[0u8; 8]).unwrap();
        let (writes, ()) = cell.writes_between(|| {
            a.write_block(1, &[1u8; 8]).unwrap();
            b.write_block(0, &[2u8; 8]).unwrap();
        });
        assert_eq!(writes, 2);
        let (none, ()) = a.writes_between(|| {
            let _ = a.read_block(0);
        });
        assert_eq!(none, 0);
    }
}
