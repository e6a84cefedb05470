//! Snapshot reads against an erasure, a scrub reclaim and an inode reuse
//! that land *inside* the read.
//!
//! A reader resolves a record from the published snapshot and reads the
//! device with no lock held, so a whole erase → reclaim → reuse chain can
//! commit between two of its block reads.  These tests force exactly that,
//! without threads: a test-only block device runs a closure on the n-th
//! unlocked `read_block` after arming, and the closure drives the racing
//! writers to completion.  Every reader of `Dbfs` is swept over every such
//! position.  Whatever the device then returns — the fresh record's bytes
//! under the old inode, zeroed blocks, a freed inode — no reader may hand
//! out a membrane or row under an id it does not belong to, and none may
//! fail with a structural error.
//!
//! The last two tests are about the other half of the window: what a second
//! thread sees while a writer's compound transaction is still *open*.  The
//! staged blocks belong to the thread that opened it; everyone else reads
//! committed state, without waiting for a lock the writer holds.

use rgpdos::blockdev::{BlockDevice, DeviceError, DeviceGeometry, MemDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{DataTypeId, Membrane, PdId, PdRecord, Row, SubjectId};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsError, DbfsParams, PdStore, QueryRequest};
use rgpdos::inode::{FormatParams, InodeError, InodeFs, InodeKind, JournalMode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A device that runs `hook` once, just before the n-th read of a **data
/// block** after [`HookDevice::arm`].  Data-block reads are the reads the
/// inode layer issues with none of its locks held (inode-table blocks are
/// fetched under its state lock, where a re-entrant writer would deadlock),
/// so the hook may call back into the store it sits under.
struct HookDevice {
    inner: MemDevice,
    first_data_block: AtomicU64,
    countdown: AtomicU64,
    hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl HookDevice {
    fn arm(&self, nth: u64, hook: impl FnOnce() + Send + 'static) {
        *self.hook.lock().unwrap() = Some(Box::new(hook));
        self.countdown.store(nth, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.countdown.store(0, Ordering::SeqCst);
        self.hook.lock().unwrap().take();
    }
}

impl BlockDevice for HookDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        let armed = self.countdown.load(Ordering::SeqCst);
        if armed > 0 && block >= self.first_data_block.load(Ordering::SeqCst) {
            self.countdown.store(armed - 1, Ordering::SeqCst);
            if armed == 1 {
                let hook = self.hook.lock().unwrap().take();
                hook.expect("an armed device holds its hook")();
            }
        }
        self.inner.read_block(block)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.inner.write_block(block, data)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.inner.flush()
    }
}

type Store = Arc<Dbfs<Arc<HookDevice>>>;

const BYSTANDER_SUBJECT: SubjectId = SubjectId::new(1);
const VICTIM_SUBJECT: SubjectId = SubjectId::new(1);
const FRESH_SUBJECT: SubjectId = SubjectId::new(2);

fn user() -> DataTypeId {
    "user".into()
}

fn escrow() -> OperatorEscrow {
    OperatorEscrow::new(Authority::generate(17).public_key())
}

/// Rows of one fixed size spanning several 512-byte blocks, so a record
/// read has more than one unlocked position and a reused inode holds a
/// record of exactly the reclaimed one's shape.
fn row(who: &str) -> Row {
    Row::new()
        .with("name", format!("{who:-<900}"))
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

struct Fixture {
    store: Store,
    device: Arc<HookDevice>,
    bystander: PdId,
    victim: PdId,
    /// Set once the armed race has run.
    raced: Arc<AtomicBool>,
}

/// A store with the buffer cache off (every block read reaches the device)
/// holding a bystander and — read last by every set reader — the victim.
fn fixture() -> Fixture {
    let device = Arc::new(HookDevice {
        inner: MemDevice::new(4096, 512),
        first_data_block: AtomicU64::new(u64::MAX),
        countdown: AtomicU64::new(0),
        hook: Mutex::new(None),
    });
    let store = Arc::new(Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap());
    store.inode_fs().set_cache_capacity(0);
    device
        .first_data_block
        .store(store.inode_fs().layout().data_start, Ordering::SeqCst);
    store.create_type(listing1_user_schema()).unwrap();
    let bystander = store
        .collect(&user(), BYSTANDER_SUBJECT, row("bystander"))
        .unwrap();
    let victim = store
        .collect(&user(), VICTIM_SUBJECT, row("victim"))
        .unwrap();
    Fixture {
        store,
        device,
        bystander,
        victim,
        raced: Arc::default(),
    }
}

/// What the racing writers do while the reader sits between two block reads.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Race {
    /// The victim was erased *before* the reader resolved it; the race is
    /// the scrub reclaim plus a fresh insert that reuses the freed inode.
    ReclaimAndReuse,
    /// The reader resolved the victim live; the race is the whole chain:
    /// erase, reclaim, reuse.
    EraseReclaimAndReuse,
    /// The reader resolved the victim live; the race is the erasure alone.
    Erase,
}

impl Fixture {
    /// Arms `race` before the n-th unlocked block read *of a reader*: once
    /// the call under test has taken the index lock (the insert half of
    /// `copy`), its block reads are a writer's and the race stays off.
    fn arm(&self, nth: u64, race: Race) {
        let (store, victim) = (Arc::clone(&self.store), self.victim);
        let raced = Arc::clone(&self.raced);
        let holds = store.index_lock_holds();
        self.device.arm(nth, move || {
            if store.index_lock_holds() != holds {
                return;
            }
            raced.store(true, Ordering::SeqCst);
            if race != Race::ReclaimAndReuse {
                store.erase(&user(), victim, &escrow()).unwrap();
            }
            if race != Race::Erase {
                let report = store.scrub_tombstones().unwrap();
                assert_eq!(report.reclaimed, vec![victim]);
                let fresh = store
                    .collect(&user(), FRESH_SUBJECT, row("fresh!"))
                    .unwrap();
                assert_ne!(fresh, victim, "identifiers are never reused");
            }
        });
    }
}

/// What one reader call returned, reduced to what the assertions need.
#[derive(Debug)]
enum Seen {
    Membranes(Vec<(PdId, Membrane)>),
    Records(Vec<PdRecord>),
}

impl Seen {
    fn ids(&self) -> Vec<PdId> {
        match self {
            Seen::Membranes(membranes) => membranes.iter().map(|(id, _)| *id).collect(),
            Seen::Records(records) => records.iter().map(PdRecord::id).collect(),
        }
    }

    /// The membrane returned under `id`, when the reader returned one.
    fn membrane(&self, id: PdId) -> Option<&Membrane> {
        match self {
            Seen::Membranes(membranes) => membranes.iter().find(|(i, _)| *i == id).map(|(_, m)| m),
            Seen::Records(records) => records
                .iter()
                .find(|r| r.id() == id)
                .map(PdRecord::membrane),
        }
    }
}

type Reader = fn(&Fixture) -> Result<Seen, DbfsError>;

/// Readers that answer for one id (or an explicit id list): an id erased or
/// reclaimed under them is an `Erased` error.
const POINT_READERS: [(&str, Reader); 4] = [
    ("get", |f| {
        Ok(Seen::Records(vec![f.store.get(&user(), f.victim)?]))
    }),
    ("load_membrane", |f| {
        let membrane = f.store.load_membrane(&user(), f.victim)?;
        Ok(Seen::Membranes(vec![(f.victim, membrane)]))
    }),
    ("load_records", |f| {
        let batch = f.store.load_records(&user(), &[f.bystander, f.victim])?;
        Ok(Seen::Records(batch.into_iter().collect()))
    }),
    ("copy", |f| {
        let copy = f.store.copy(&user(), f.victim)?;
        Ok(Seen::Records(vec![f.store.get(&user(), copy)?]))
    }),
];

/// Readers that answer for a set: an id reclaimed under them is left out.
const SET_READERS: [(&str, Reader); 5] = [
    ("load_membranes", |f| {
        Ok(Seen::Membranes(f.store.load_membranes(&user())?))
    }),
    ("load_membranes_for_subject", |f| {
        let membranes = f
            .store
            .load_membranes_for_subject(&user(), VICTIM_SUBJECT)?;
        Ok(Seen::Membranes(membranes))
    }),
    ("records_of_subject", |f| {
        Ok(Seen::Records(f.store.records_of_subject(VICTIM_SUBJECT)?))
    }),
    ("query", |f| {
        let batch = f.store.query(&QueryRequest::all("user"))?;
        Ok(Seen::Records(batch.into_iter().collect()))
    }),
    ("query including erased", |f| {
        let batch = f
            .store
            .query(&QueryRequest::all("user").including_erased())?;
        Ok(Seen::Records(batch.into_iter().collect()))
    }),
];

/// Runs `reader` with `race` landing before its n-th unlocked block read,
/// for n = 1, 2, … until the reader finishes before the race starts, and
/// hands each raced result to `check`.  Returns how many positions raced.
fn sweep(
    name: &str,
    reader: Reader,
    race: Race,
    check: impl Fn(&Fixture, Result<Seen, DbfsError>, &str),
) -> u64 {
    for nth in 1.. {
        let fixture = fixture();
        if race == Race::ReclaimAndReuse {
            let erased = fixture.store.erase(&user(), fixture.victim, &escrow());
            assert_eq!(erased.unwrap(), vec![fixture.victim]);
        }
        fixture.arm(nth, race);
        let result = reader(&fixture);
        fixture.device.disarm();
        if !fixture.raced.load(Ordering::SeqCst) {
            return nth - 1;
        }
        let context = format!("{name}, {race:?} before unlocked read {nth}");
        if let Err(e) = &result {
            assert!(
                matches!(e, DbfsError::Erased { id } if *id == fixture.victim.raw()),
                "{context}: {e}"
            );
        }
        if let Ok(seen) = &result {
            // Nothing is ever served under an id it does not belong to.
            if let Some(membrane) = seen.membrane(fixture.bystander) {
                assert_eq!(membrane.subject(), BYSTANDER_SUBJECT, "{context}");
                assert!(!membrane.is_erased(), "{context}");
            }
            if let Some(membrane) = seen.membrane(fixture.victim) {
                assert_eq!(membrane.subject(), VICTIM_SUBJECT, "{context}");
            }
        }
        check(&fixture, result, &context);
        fixture.store.verify_index_invariants().unwrap();
    }
    unreachable!("a reader performs finitely many block reads")
}

#[test]
fn a_reclaimed_id_is_never_served_and_never_a_structural_error() {
    for race in [Race::ReclaimAndReuse, Race::EraseReclaimAndReuse] {
        for (name, reader) in POINT_READERS {
            let raced = sweep(name, reader, race, |_, result, context| {
                let error = result.expect_err(context);
                assert!(
                    matches!(error, DbfsError::Erased { .. }),
                    "{context}: {error}"
                );
            });
            // `copy` refuses a tombstone before it reads anything.
            let reads_nothing = name == "copy" && race == Race::ReclaimAndReuse;
            assert_eq!(
                raced == 0,
                reads_nothing,
                "{name}, {race:?}: {raced} positions"
            );
        }
        for (name, reader) in SET_READERS {
            let raced = sweep(name, reader, race, |fixture, result, context| {
                let seen = result.unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_eq!(seen.ids(), vec![fixture.bystander], "{context}");
            });
            assert!(raced >= 2, "{name}, {race:?}: {raced} positions");
        }
    }
}

#[test]
fn a_record_erased_under_a_read_is_its_tombstone_or_an_erased_error() {
    for (name, reader) in POINT_READERS {
        let raced = sweep(name, reader, Race::Erase, |fixture, result, context| {
            match (name, result) {
                // A membrane can say "erased" itself.
                ("load_membrane", Ok(seen)) => {
                    assert!(
                        seen.membrane(fixture.victim).unwrap().is_erased(),
                        "{context}"
                    );
                }
                (_, result) => {
                    let error = result.expect_err(context);
                    assert!(
                        matches!(error, DbfsError::Erased { .. }),
                        "{context}: {error}"
                    );
                }
            }
        });
        assert!(raced >= 1, "{name}: {raced} positions");
    }
    for (name, reader) in SET_READERS {
        let raced = sweep(name, reader, Race::Erase, |fixture, result, context| {
            let seen = result.unwrap_or_else(|e| panic!("{context}: {e}"));
            // Readers of live records leave the victim out; the others keep
            // it as the tombstone it now is.
            let live_only = matches!(name, "records_of_subject" | "query");
            if live_only {
                assert_eq!(seen.ids(), vec![fixture.bystander], "{context}");
            } else {
                assert_eq!(
                    seen.ids(),
                    vec![fixture.bystander, fixture.victim],
                    "{context}"
                );
                assert!(
                    seen.membrane(fixture.victim).unwrap().is_erased(),
                    "{context}"
                );
            }
        });
        assert!(raced >= 2, "{name}: {raced} positions");
    }
}

/// The rule at the inode layer, with the transaction held open across a
/// second thread's whole visit: committed inodes read as committed (not the
/// staged rewrite, not `BadInode` for one the transaction frees), an inode
/// allocated inside the transaction does not exist for the visitor, and the
/// owner reads what it staged.  The visitor runs to completion while the
/// owner waits for it, so none of its calls waits on the owner.
#[test]
fn an_open_transaction_is_read_by_its_owner_only() {
    let device = Arc::new(MemDevice::new(1_024, 512));
    let fs = InodeFs::format(device, FormatParams::small(), JournalMode::Retain).unwrap();
    let rewritten = fs.alloc_inode(InodeKind::File).unwrap();
    fs.write(rewritten, 0, &[0xAA; 1_500]).unwrap();
    let freed = fs.alloc_inode(InodeKind::File).unwrap();
    fs.write(freed, 0, b"still here").unwrap();
    let visit = |expect: &(dyn Fn(&InodeFs<Arc<MemDevice>>) + Sync)| {
        std::thread::scope(|scope| scope.spawn(|| expect(&fs)).join().unwrap());
    };

    let tx = fs.begin_tx();
    fs.write(rewritten, 0, &[0xBB; 2_000]).unwrap();
    let fresh = fs.alloc_inode(InodeKind::File).unwrap();
    fs.write(fresh, 0, b"staged").unwrap();
    fs.dir_add(0, "fresh", fresh).unwrap();
    fs.free_inode(freed).unwrap();
    let staged = |fs: &InodeFs<Arc<MemDevice>>| {
        assert_eq!(fs.read_all(rewritten).unwrap(), vec![0xBB; 2_000]);
        assert!(matches!(fs.stat(freed), Err(InodeError::BadInode { .. })));
        assert_eq!(fs.read_all(fresh).unwrap(), b"staged");
        assert_eq!(fs.dir_lookup(0, "fresh").unwrap(), Some(fresh));
    };
    staged(&fs);
    visit(&|fs| {
        assert_eq!(fs.stat(rewritten).unwrap().size, 1_500);
        assert_eq!(fs.read_all(rewritten).unwrap(), vec![0xAA; 1_500]);
        assert_eq!(fs.read(rewritten, 1_000, 600).unwrap(), vec![0xAA; 500]);
        assert_eq!(fs.read_all(freed).unwrap(), b"still here");
        assert!(matches!(fs.stat(fresh), Err(InodeError::BadInode { .. })));
        assert!(matches!(
            fs.read(fresh, 0, 6),
            Err(InodeError::BadInode { .. })
        ));
        assert_eq!(fs.dir_lookup(0, "fresh").unwrap(), None);
    });
    staged(&fs);
    tx.commit().unwrap();
    visit(&staged);
}

/// The same through the store: a second thread reads the bystander at every
/// block read of an `update_rows` that rewrites it and then the victim —
/// inside the writer's stage window, the transaction open, the index lock
/// held, the bystander's new image staged from the victim's first read on.
/// Each visit returns the committed row; before, it met the staged one, and
/// where the writer sat inside the filesystem's state lock it could not have
/// returned at all.
#[test]
fn a_reader_inside_a_writers_stage_window_reads_the_committed_record() {
    fn name(row: &Row) -> &str {
        row.get("name").unwrap().as_text().unwrap()
    }
    for nth in 1.. {
        let fixture = fixture();
        let (store, bystander) = (Arc::clone(&fixture.store), fixture.bystander);
        let (raced, seen) = (Arc::clone(&fixture.raced), Arc::new(Mutex::new(None)));
        let slot = Arc::clone(&seen);
        fixture.device.arm(nth, move || {
            raced.store(true, Ordering::SeqCst);
            let visitor = std::thread::spawn(move || store.get(&user(), bystander));
            *slot.lock().unwrap() = Some(visitor.join().unwrap());
        });
        let rewrites = vec![
            (bystander, row("rewritten")),
            (fixture.victim, row("rewritten too")),
        ];
        let updated = fixture.store.update_rows(&user(), rewrites);
        fixture.device.disarm();
        updated.unwrap();
        if !fixture.raced.load(Ordering::SeqCst) {
            assert!(nth > 6, "both rewrites read several blocks");
            break;
        }
        let seen = seen.lock().unwrap().take().unwrap();
        let seen = seen.unwrap_or_else(|e| panic!("visit at block read {nth}: {e}"));
        assert_eq!(name(seen.row()), name(&row("bystander")), "read {nth}");
        let after = fixture.store.get(&user(), bystander).unwrap();
        assert_eq!(name(after.row()), name(&row("rewritten")));
        fixture.store.verify_index_invariants().unwrap();
    }
}
