//! # rgpdos-inode — uFS-inspired inode layer
//!
//! The paper's prototype re-architects **uFS** (Liu et al., SOSP'21), a
//! filesystem semi-microkernel, keeping only its *inode* concept and building
//! a database-oriented filesystem on top (§3, implementation choice 1).  This
//! crate is our equivalent substrate: a journaling inode layer over the
//! simulated block device of [`rgpdos_blockdev`], consumed by both
//! `rgpdos-dbfs` (personal data) and `rgpdos-fs` (non-personal data and the
//! baseline).
//!
//! The layer provides:
//!
//! * an on-disk layout (superblock, allocation bitmaps, inode table, journal,
//!   data region — [`layout`]);
//! * fixed-size encodable [`inode::Inode`]s with direct and single-indirect
//!   block pointers;
//! * a write-ahead **data journal** ([`journal`]) with two scrubbing policies:
//!   [`journal::JournalMode::Retain`] reproduces the behaviour the paper
//!   criticises (journal blocks keep stale copies of deleted personal data),
//!   while [`journal::JournalMode::Scrub`] zeroes journal blocks after
//!   checkpoint, which is what rgpdOS's DBFS uses;
//! * a mid-level filesystem API ([`fs::InodeFs`]) with files, directories,
//!   crash recovery and optional zero-on-free;
//! * an LRU **buffer cache** ([`cache`]) of committed block contents,
//!   read-through on every internal read, filled write-back at each
//!   commit's flush barrier — never ahead of the journal, so caching does
//!   not weaken crash consistency, and updated in place by erasure writes
//!   so no erased plaintext survives in memory.
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::MemDevice;
//! use rgpdos_inode::{FormatParams, InodeFs, InodeKind, JournalMode};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), rgpdos_inode::InodeError> {
//! let device = Arc::new(MemDevice::new(256, 512));
//! let fs = InodeFs::format(device, FormatParams::small(), JournalMode::Scrub)?;
//! let ino = fs.alloc_inode(InodeKind::File)?;
//! fs.write(ino, 0, b"hello personal data")?;
//! assert_eq!(fs.read(ino, 0, 5)?, b"hello");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod cache;
pub mod error;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod layout;
pub mod superblock;

pub use cache::BlockCache;
pub use error::InodeError;
pub use fs::{FormatParams, InodeFs, Transaction};
pub use inode::{Ino, Inode, InodeKind};
pub use journal::JournalMode;
pub use layout::Layout;
pub use superblock::Superblock;
