//! # rgpdos-blockdev — simulated block-device substrate
//!
//! Every filesystem in the reproduction (the database-oriented DBFS, the
//! file-based NPD filesystem, and the baseline's storage) sits on top of the
//! same simulated block device abstraction defined here.  The substrate
//! replaces the physical disks / uFS device files of the paper's prototype
//! and gives the experiments three capabilities the real hardware would not:
//!
//! * **determinism** — devices are in-memory and seeded, so experiment
//!   results are reproducible;
//! * **instrumentation** — every read/write is counted and charged a
//!   configurable latency, which is how the benchmark harness reports
//!   simulated I/O cost;
//! * **raw scanning** — experiments F2/C2 must demonstrate whether deleted
//!   personal data still lingers on the device (the paper's
//!   journal-residue argument); [`scan`] searches raw device bytes for
//!   plaintext fragments exactly like a forensic tool would.
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::{BlockDevice, MemDevice};
//!
//! # fn main() -> Result<(), rgpdos_blockdev::DeviceError> {
//! let device = MemDevice::new(128, 512); // 128 blocks of 512 bytes
//! device.write_block(3, &vec![0xAB; 512])?;
//! let block = device.read_block(3)?;
//! assert_eq!(block[0], 0xAB);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod error;
pub mod faults;
pub mod instrument;
pub mod mem;
pub mod sanitize;
pub mod scan;

pub use cache::CacheStats;
pub use device::{BlockDevice, DeviceGeometry};
pub use error::DeviceError;
pub use faults::{FaultCell, FaultEvent, FaultScript, FaultyDevice};
pub use instrument::{DeviceStats, InstrumentedDevice, LatencyModel};
pub use mem::MemDevice;
pub use sanitize::{
    BlockSanitizer, BlockState, SanitizedDevice, SanitizerViolation, SanitizerViolationKind,
};
pub use scan::{scan_for_pattern, ScanHit};
