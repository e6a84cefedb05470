//! # rgpdos-shard — subject-partitioned DBFS shards
//!
//! The horizontal-scale story of the reproduction: rgpdOS must answer
//! Art. 15/17 requests over *all* of a subject's data while serving millions
//! of subjects, so the storage layer partitions by subject.
//! [`ShardedDbfs`] runs N independent [`Dbfs`](rgpdos_dbfs::Dbfs) instances
//! — each with its own block device, index and expiry machinery — behind:
//!
//! * a **deterministic placement map**: a subject's records live on
//!   `hash(subject) % N`, so collection, point reads and subject-routed
//!   rights requests touch one shard regardless of how large the rest of
//!   the deployment grows;
//! * a **scatter-gather router**: table-wide queries, counts and membrane
//!   scans fan out over a worker pool (one crossbeam-fed worker pinned per
//!   shard) and merge per-shard results, so aggregate throughput scales
//!   with the shard count — and the write path scatters too:
//!   `collect_many` / `insert_many` / `update_rows` group a batch by home
//!   shard and every involved shard ingests its slice under journal group
//!   commit (shards driven in deterministic shard order, keeping the
//!   shared audit stream reproducible);
//! * a **cross-shard lineage directory**: `copy` places derived records
//!   round-robin across shards, so a copy may live on a different shard
//!   than its original — the directory records every copy edge, every
//!   off-home placement and every tombstone, and erasure runs in **two
//!   phases** (snapshot the transitive copy closure and pre-announce the
//!   tombstones under the directory lock — pure metadata, no disk I/O —
//!   then crypto-erase per shard), so the right to be forgotten reaches
//!   every copy on every shard while staying `O(one shard + lineage)`.
//!   The directory is derived state, and how it follows from the shards'
//!   index summaries is defined once (`LineageDirectory::from_summaries`):
//!   mount builds it that way, a failed scrub pass resynchronises it that
//!   way, and `verify_index_invariants` compares the live directory with a
//!   rebuild.  The copy guard and the lineage heal walk ancestors with
//!   [`erased_ancestor`](rgpdos_dbfs::erased_ancestor), the function the
//!   per-shard insert guard uses.
//!
//! Both [`ShardedDbfs`] and the single-device `Dbfs` implement
//! [`PdStore`](rgpdos_dbfs::PdStore) — and only that: the store operations
//! are the trait's methods, not inherent ones — so the DED pipeline, the
//! rights engine and the compliance checker run unchanged over either.
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::MemDevice;
//! use rgpdos_core::prelude::*;
//! use rgpdos_core::schema::listing1_user_schema;
//! use rgpdos_dbfs::{DbfsParams, PdStore};
//! use rgpdos_shard::ShardedDbfs;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), rgpdos_dbfs::DbfsError> {
//! let devices: Vec<_> = (0..4).map(|_| Arc::new(MemDevice::new(4096, 512))).collect();
//! let sharded = ShardedDbfs::format(devices, DbfsParams::small())?;
//! sharded.create_type(listing1_user_schema())?;
//! let row = Row::new()
//!     .with("name", "Chiraz")
//!     .with("pwd", "secret")
//!     .with("year_of_birthdate", 1990i64);
//! let user = DataTypeId::from("user");
//! let id = sharded.collect(&user, SubjectId::new(1), row)?;
//! // The id was allocated on the subject's home shard.
//! assert_eq!(sharded.shard_of_id(id), sharded.home_shard(SubjectId::new(1)));
//! assert_eq!(sharded.count(&user)?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;
mod pool;
pub mod sharded;

pub use sharded::{ShardLoad, ShardedDbfs, ShardedStats};
