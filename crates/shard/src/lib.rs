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
//!   `insert_many` / `update_rows` group a batch by home shard and every
//!   involved shard ingests its slice under journal group commit, into its
//!   own audit stream.  Every fan-out goes through one entry point, and a
//!   scatter that lands on one shard is that shard's own call, on the
//!   caller's thread;
//! * **cross-shard lineage read off the shards**: `copy` places derived
//!   records round-robin across shards, so a copy may live on a different
//!   shard than its original.  The copy's membrane names its original, so
//!   the shard holding it files the edge in its own reverse-lineage index,
//!   and its subject index says it lives off its subject's home shard.  The
//!   router keeps no copy of any of that: a copy closure is a walk over
//!   every shard's reverse-lineage index, and placements and tombstones
//!   are read off the shards' published snapshots.  Erasure walks the
//!   transitive copy closure and announces its ids under the router's
//!   announcement lock (index reads, no disk I/O), then runs each involved
//!   shard's members as that shard's own cascade — so the right to be
//!   forgotten reaches every copy on every shard while staying
//!   `O(one shard + lineage)`.  A closure on one shard writes exactly what that shard's
//!   `Dbfs` would; one spanning shards persists a routed erase intent first.
//!   The announced ids are the one piece of lineage state the router keeps:
//!   held while the erasure is in flight (until the next mount, after one
//!   whose cascade failed), they make a racing copy lose.
//!   The copy guard and the lineage heal walk ancestors with
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

mod pool;
pub mod sharded;

pub use sharded::{ShardLoad, ShardedDbfs, ShardedStats};
