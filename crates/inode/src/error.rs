//! Error type of the inode layer.

use rgpdos_blockdev::DeviceError;
use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the inode layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InodeError {
    /// The underlying device failed.
    Device(DeviceError),
    /// The device is too small for the requested format parameters.
    DeviceTooSmall {
        /// Blocks required.
        needed: u64,
        /// Blocks available.
        available: u64,
    },
    /// No free inode is left.
    OutOfInodes,
    /// No free data block is left.
    OutOfSpace,
    /// An inode number is invalid or refers to a free inode.
    BadInode {
        /// The offending inode number.
        ino: u64,
    },
    /// An on-disk structure failed to decode.
    Corrupt {
        /// What was being decoded.
        what: String,
    },
    /// A directory operation failed (duplicate name, missing entry, …).
    Directory {
        /// Human-readable reason.
        reason: String,
    },
    /// A read or write goes beyond the maximum file size supported by the
    /// inode's block pointers.
    FileTooLarge {
        /// The requested end offset.
        requested: u64,
        /// The maximum supported size.
        max: u64,
    },
    /// A compound transaction staged more blocks than one journal
    /// transaction holds, so it could not commit atomically and was aborted.
    TxTooLarge {
        /// Distinct blocks the transaction had staged.
        staged: usize,
        /// [`InodeFs::tx_capacity_blocks`](crate::InodeFs::tx_capacity_blocks).
        capacity: usize,
    },
}

impl fmt::Display for InodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InodeError::Device(e) => write!(f, "device error: {e}"),
            InodeError::DeviceTooSmall { needed, available } => {
                write!(
                    f,
                    "device too small: need {needed} blocks, have {available}"
                )
            }
            InodeError::OutOfInodes => f.write_str("no free inode"),
            InodeError::OutOfSpace => f.write_str("no free data block"),
            InodeError::BadInode { ino } => write!(f, "invalid inode {ino}"),
            InodeError::Corrupt { what } => write!(f, "corrupt on-disk structure: {what}"),
            InodeError::Directory { reason } => write!(f, "directory operation failed: {reason}"),
            InodeError::FileTooLarge { requested, max } => {
                write!(f, "file would grow to {requested} bytes, maximum is {max}")
            }
            InodeError::TxTooLarge { staged, capacity } => write!(
                f,
                "transaction stages {staged} blocks, one journal transaction holds {capacity}"
            ),
        }
    }
}

impl StdError for InodeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            InodeError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for InodeError {
    fn from(e: DeviceError) -> Self {
        InodeError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_source() {
        let e = InodeError::from(DeviceError::DeviceDown);
        assert!(e.to_string().contains("device"));
        assert!(e.source().is_some());
        for e in [
            InodeError::DeviceTooSmall {
                needed: 10,
                available: 5,
            },
            InodeError::OutOfInodes,
            InodeError::OutOfSpace,
            InodeError::BadInode { ino: 3 },
            InodeError::Corrupt {
                what: "superblock".into(),
            },
            InodeError::Directory {
                reason: "duplicate".into(),
            },
            InodeError::FileTooLarge {
                requested: 10,
                max: 5,
            },
            InodeError::TxTooLarge {
                staged: 10,
                capacity: 5,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
