//! # rgpdos-dbfs — the database-oriented filesystem
//!
//! DBFS is the heart of rgpdOS's storage story (§1 Idea 3, §2 "File System",
//! §3(1)): personal data is not stored as anonymous byte files but as typed
//! rows in tables, each row wrapped in its [`Membrane`](rgpdos_core::Membrane).
//! The implementation follows the paper's description of the re-architected
//! uFS layout with **two major inode trees** built over the
//! [`rgpdos_inode`] layer:
//!
//! * the **subject tree** gathers every piece of personal data of each
//!   subject (one subtree per subject, grouping the data *and* its
//!   membranes);
//! * the **schema tree** provides the database structure: one subtree per
//!   table (data type) describing its fields and pointing at the records of
//!   that type.
//!
//! DBFS is always formatted with the scrubbed journal and zero-on-free
//! policies, so that the right to be forgotten holds against the raw device —
//! the property the paper shows conventional filesystems violate.  Erasure is
//! implemented as **crypto-erasure** through the authority escrow of
//! [`rgpdos_crypto`]: the ciphertext tombstone and membrane survive (so the
//! audit trail and the authorities' ability to investigate are preserved),
//! the plaintext does not.
//!
//! DBFS must only ever be called by the DED and the rgpdOS built-ins; that
//! rule is enforced by the LSM layer of the `rgpdos-kernel` crate and
//! exercised in the integration tests.
//!
//! ## Split record layout and secondary indexes (format v2)
//!
//! Each record inode holds a **length-prefixed membrane header followed by
//! the row payload** ([`rgpdos_core::record::stored`]).  Membrane-only reads
//! — the `ded_load_membrane` request that consent filtering runs on — fetch
//! and decode the header section without ever reading the payload, making
//! data minimisation hold at the storage layer too.  A format-v1 image
//! (single-section JSON records, bare-counter metadata) is refused on mount.
//!
//! Besides the primary record map the in-memory index keeps four derived
//! structures: per-table and per-subject id sets (bounding every scan to the
//! records actually involved), a **reverse copy-lineage** index (so the
//! right to be forgotten reaches every *transitive* copy via a pure index
//! walk), and an **expiry** index ordered by expiry instant (so retention
//! sweeps only visit records that actually expired).  What a record
//! contributes to them is defined once (`keys_of` in the private `index`
//! module): every index mutation, the mount rebuild and
//! [`PdStore::verify_index_invariants`] go through that one statement; the
//! checker then compares the primary map with the on-disk headers and with
//! the entries of both trees.  The
//! obligation over the lineage — no copy outlives its erased original — is
//! one function too, [`erased_ancestor`], shared by the insert guard here,
//! the shard router and the crash-matrix oracle.
//!
//! ## Batched writes: one pipeline, journal group commit
//!
//! Every record mutation is a batch through one private write pipeline:
//! [`PdStore::collect`], [`PdStore::insert_wrapped`], [`PdStore::copy`],
//! [`PdStore::update_row`] and [`PdStore::apply_membrane_delta`] are
//! batches of one, [`PdStore::collect_many`], [`PdStore::insert_many`] and
//! [`PdStore::update_rows`] batches of N.  The pipeline stages the ops into
//! shared compound transactions (**group commits**), each op behind a
//! savepoint: a failing op is un-staged and ends the batch with the ops
//! before it committed, and a group is cut at the inode journal's
//! capacity bound so each group — and therefore each
//! record — stays crash-atomic; an op too large for a group of its own is
//! refused.  Erasure cascades are batches through the same pipeline.
//!
//! ## Reads: one checked read
//!
//! Readers never take the index lock: they resolve locations from the
//! published, epoch-stamped snapshot (a clone of the writer's index view)
//! and read the device unlocked.  Every reader — [`PdStore::get`], the
//! `load_membrane*` family, [`PdStore::load_records`],
//! [`PdStore::records_of_subject`], [`PdStore::query`], the source read of
//! [`PdStore::copy`] — fetches record bytes through one private function that
//! validates *after* the read, against the current snapshot, whatever the
//! read returned and whether the record was located live or as a
//! tombstone: a record erased since is read again as its tombstone, an id
//! reclaimed since is gone and its reused inode is never served under it.
//! Point reads report [`DbfsError::Erased`]; set reads leave the id out.
//! Block reads go through the inode layer's LRU buffer cache, which only
//! ever holds committed contents (dirty data lives in the transaction
//! overlay until the commit's flush barrier) and is updated in place by
//! crypto-erasure writes, so no erased plaintext survives in memory either.
//!
//! ## One store surface
//!
//! The store operations exist once, as the [`PdStore`] trait; [`Dbfs`]
//! implements it directly (there are no same-named inherent methods), so
//! callers bring the trait into scope.  What stays inherent on [`Dbfs`] is
//! what is not a store operation: constructors, instrumentation accessors
//! and the protocol a routing layer drives (erase intents, index
//! snapshots, the scrub pass with a retention predicate).
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::MemDevice;
//! use rgpdos_core::prelude::*;
//! use rgpdos_core::schema::listing1_user_schema;
//! use rgpdos_dbfs::{Dbfs, DbfsParams, PdStore};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), rgpdos_dbfs::DbfsError> {
//! let dbfs = Dbfs::format(Arc::new(MemDevice::new(4096, 512)), DbfsParams::default())?;
//! dbfs.create_type(listing1_user_schema())?;
//! let row = Row::new()
//!     .with("name", "Chiraz")
//!     .with("pwd", "secret")
//!     .with("year_of_birthdate", 1990i64);
//! let user = DataTypeId::from("user");
//! let id = dbfs.collect(&user, SubjectId::new(1), row)?;
//! let record = dbfs.get(&user, id)?;
//! assert_eq!(record.membrane().subject(), SubjectId::new(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbfs;
pub mod error;
mod index;
pub mod query;
pub mod scrub;
pub mod stats;
pub mod store;

pub use dbfs::{Dbfs, DbfsParams, EraseIntent, IdAllocation, RecordSummary};
pub use error::DbfsError;
pub use index::erased_ancestor;
pub use query::{Predicate, QueryRequest};
pub use scrub::{ScrubReport, SpaceStats};
pub use stats::DbfsStats;
pub use store::PdStore;
