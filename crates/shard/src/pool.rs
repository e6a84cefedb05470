//! The scatter-gather worker pool.
//!
//! One worker thread is pinned to each shard; scatter requests enqueue a job
//! per involved shard over crossbeam channels and gather the replies in
//! shard order, so a full-table fan-out costs one channel round-trip instead
//! of N sequential scans.  The router sends only scatters over two or more
//! shards here: a lone leg runs on the caller's thread.  Pinning a worker to a shard (rather than pooling
//! jobs over free threads) keeps every shard's I/O on one thread, which is
//! how a real deployment would bind shards to devices or NUMA nodes.

use crossbeam::channel::{unbounded, Sender};
use rgpdos_blockdev::BlockDevice;
use rgpdos_dbfs::Dbfs;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A unit of work bound for one shard's worker.
type ShardJob<D> = Box<dyn FnOnce(&Dbfs<D>) + Send>;

/// A pool of per-shard worker threads.
pub(crate) struct ShardPool<D: BlockDevice + 'static> {
    senders: Vec<Sender<ShardJob<D>>>,
    handles: Vec<JoinHandle<()>>,
}

impl<D: BlockDevice + 'static> ShardPool<D> {
    /// Spawns one worker per shard.
    pub(crate) fn new(shards: &[Arc<Dbfs<D>>]) -> Self {
        let mut senders = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (index, shard) in shards.iter().enumerate() {
            let (tx, rx) = unbounded::<ShardJob<D>>();
            let shard = Arc::clone(shard);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dbfs-shard-{index}"))
                    .spawn(move || {
                        // Workers exit when the pool drops its senders.
                        while let Ok(job) = rx.recv() {
                            job(&shard);
                        }
                    })
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        Self { senders, handles }
    }

    /// Runs `job` on the given shards concurrently, gathering the results in
    /// the order of `shards` (duplicates are executed once per occurrence).
    pub(crate) fn scatter_on<R, F>(&self, shards: &[usize], job: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &Dbfs<D>) -> R + Send + Sync + 'static,
    {
        let job = Arc::new(job);
        let (reply_tx, reply_rx) = unbounded::<(usize, R)>();
        for (slot, &shard) in shards.iter().enumerate() {
            let job = Arc::clone(&job);
            let reply_tx = reply_tx.clone();
            if self.senders[shard]
                .send(Box::new(move |dbfs| {
                    let _ = reply_tx.send((slot, job(shard, dbfs)));
                }))
                .is_err()
            {
                panic!("shard worker {shard} is gone");
            }
        }
        drop(reply_tx);
        let mut slots: Vec<Option<R>> = shards.iter().map(|_| None).collect();
        for _ in 0..shards.len() {
            let (slot, result) = reply_rx.recv().expect("shard worker reply");
            slots[slot] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every slot replied"))
            .collect()
    }
}

impl<D: BlockDevice + 'static> fmt::Debug for ShardPool<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.senders.len())
            .finish()
    }
}

impl<D: BlockDevice + 'static> Drop for ShardPool<D> {
    fn drop(&mut self) {
        // Closing the channels lets every worker's `recv` fail and the
        // thread exit; joining keeps shard teardown deterministic.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
