//! # rgpdos-fs — the file-based filesystem for non-personal data
//!
//! rgpdOS keeps **two** filesystems (§2, "File System"): the
//! database-oriented DBFS for personal data, and a traditional file-based
//! filesystem — "e.g. ext4" — for non-personal data.  This crate provides
//! that second filesystem and, just as importantly, the **baseline storage**
//! of Fig. 2: the state-of-the-art architecture runs its user-space DB engine
//! on exactly this kind of filesystem, which is why its journal can retain
//! personal data that the application believes it has deleted.
//!
//! [`FileFs`] is a path-based API (files and nested directories) over the
//! journaling inode layer of [`rgpdos_inode`].  By default it is formatted
//! with [`rgpdos_inode::JournalMode::Retain`] and without zero-on-free,
//! matching conventional filesystems; the rgpdOS deployment uses it only for
//! non-personal data, so that behaviour is acceptable there.
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::MemDevice;
//! use rgpdos_fs::FileFs;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), rgpdos_fs::FsError> {
//! let fs = FileFs::format_default(Arc::new(MemDevice::new(2048, 512)))?;
//! fs.create("/logs/app.log")?;
//! fs.append("/logs/app.log", b"request served\n")?;
//! assert_eq!(fs.read("/logs/app.log")?, b"request served\n");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod file_fs;
pub mod path;

pub use error::FsError;
pub use file_fs::FileFs;
