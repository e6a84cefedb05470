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
//! fail with a structural error.  The membrane readers answer from the
//! snapshot's index alone, so they read no block and the sweep finds no
//! position in them.
//!
//! The same device also pauses a writer in the middle of a commit's
//! in-place apply, the record half old and half new on the device, and
//! runs every reader on a second thread there: none may hand out the torn
//! record or fail on it.
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
use rgpdos::inode::{FormatParams, InodeError, InodeFs, InodeKind, JournalMode, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A closure run once, just before the n-th device access of one kind after
/// [`Trigger::arm`].
#[derive(Default)]
struct Trigger {
    countdown: AtomicU64,
    hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Trigger {
    fn arm(&self, nth: u64, hook: impl FnOnce() + Send + 'static) {
        *self.hook.lock().unwrap() = Some(Box::new(hook));
        self.countdown.store(nth, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.countdown.store(0, Ordering::SeqCst);
        self.hook.lock().unwrap().take();
    }

    /// Counts one access, running the hook when it is the armed one.
    fn count(&self) {
        let armed = self.countdown.load(Ordering::SeqCst);
        if armed > 0 {
            self.countdown.store(armed - 1, Ordering::SeqCst);
            if armed == 1 {
                let hook = self.hook.lock().unwrap().take();
                hook.expect("an armed trigger holds its hook")();
            }
        }
    }
}

/// A device with two triggers.  `reads` counts reads of **data blocks**:
/// the reads the inode layer issues with none of its locks held
/// (inode-table blocks are fetched under its state lock, where a
/// re-entrant writer would deadlock), so its hook may call back into the
/// store it sits under.  `applies` counts the writes a commit applies in
/// place — every write but the superblock's and the journal's — so its
/// hook runs with the commit's blocks half applied.
struct HookDevice {
    inner: MemDevice,
    layout: OnceLock<Layout>,
    reads: Trigger,
    applies: Trigger,
}

impl BlockDevice for HookDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        if self.layout.get().is_some_and(|l| block >= l.data_start) {
            self.reads.count();
        }
        self.inner.read_block(block)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        let layout = self.layout.get();
        if layout.is_some_and(|l| block != 0 && !l.is_journal_block(block)) {
            self.applies.count();
        }
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

#[derive(Clone)]
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
        layout: OnceLock::new(),
        reads: Trigger::default(),
        applies: Trigger::default(),
    });
    let store = Arc::new(Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap());
    store.inode_fs().set_cache_capacity(0);
    let _ = device.layout.set(store.inode_fs().layout());
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
        self.device.reads.arm(nth, move || {
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

/// Whether `reader` reads the device at all: the membrane readers answer
/// from the snapshot's index alone.
fn reads_blocks(reader: &str) -> bool {
    !reader.starts_with("load_membrane")
}

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
        fixture.device.reads.disarm();
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
            let reads_nothing =
                !reads_blocks(name) || (name == "copy" && race == Race::ReclaimAndReuse);
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
            assert_eq!(raced >= 2, reads_blocks(name), "{name}, {race:?}: {raced}");
        }
    }
}

#[test]
fn a_record_erased_under_a_read_is_its_tombstone_or_an_erased_error() {
    for (name, reader) in POINT_READERS {
        let raced = sweep(name, reader, Race::Erase, |_, result, context| {
            let error = result.expect_err(context);
            assert!(
                matches!(error, DbfsError::Erased { .. }),
                "{context}: {error}"
            );
        });
        assert_eq!(raced >= 1, reads_blocks(name), "{name}: {raced} positions");
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
        assert_eq!(raced >= 2, reads_blocks(name), "{name}: {raced} positions");
    }
}

/// The membrane readers read no block, so what they answer is the
/// published snapshot's: the victim live, then its tombstone once the
/// erasure returns, then nothing once the scrub reclaims it.
#[test]
fn the_membrane_readers_answer_from_the_published_snapshot() {
    let fixture = fixture();
    let membrane_readers = POINT_READERS
        .iter()
        .chain(&SET_READERS)
        .filter(|(name, _)| !reads_blocks(name));
    let read_all = || -> Vec<Result<Seen, DbfsError>> {
        fixture
            .device
            .reads
            .arm(1, || panic!("a membrane reader read a block"));
        let seen = membrane_readers
            .clone()
            .map(|(_, read)| read(&fixture))
            .collect();
        fixture.device.reads.disarm();
        seen
    };
    let victim_erased = |seen: &[Result<Seen, DbfsError>]| -> Vec<bool> {
        let of_victim = seen
            .iter()
            .map(|seen| seen.as_ref().unwrap().membrane(fixture.victim));
        of_victim
            .map(|membrane| membrane.unwrap().is_erased())
            .collect()
    };
    assert_eq!(victim_erased(&read_all()), [false; 3]);
    fixture
        .store
        .erase(&user(), fixture.victim, &escrow())
        .unwrap();
    assert_eq!(victim_erased(&read_all()), [true; 3]);
    fixture.store.scrub_tombstones().unwrap();
    let seen = read_all();
    assert!(matches!(seen[0], Err(DbfsError::UnknownPd { .. })));
    for seen in &seen[1..] {
        assert_eq!(seen.as_ref().unwrap().ids(), vec![fixture.bystander]);
    }
    fixture.store.verify_index_invariants().unwrap();
}

/// What the writer paused in the middle of its in-place apply does to the
/// victim.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Apply {
    Rewrite,
    Erase,
}

/// The victim's row after the rewrite: as long as [`row`]'s, and different
/// in every block, so a read half old and half new matches neither.
fn rewritten() -> Row {
    Row::new()
        .with("name", format!("{:=<900}", "rewritten"))
        .with("pwd", "pw")
        .with("year_of_birthdate", 1990i64)
}

/// The name column of a live row.
fn name(row: &Row) -> &str {
    row.get("name").unwrap().as_text().unwrap()
}

/// Pauses the writer of `apply` before its n-th in-place write, for n = 1,
/// 2, … until the writer finishes before the n-th, and runs `reader` on a
/// second thread there.  A reader that has not returned after a while is
/// waiting for the apply to end; the writer then goes on, and the reader
/// returns once it is done.  Whatever it returns is the victim as it was,
/// as it is after the apply, or an `Erased` error for an erasure — never a
/// record half old and half new, or an error about one.  Returns how many
/// positions raced.
fn sweep_apply(name_of_reader: &str, reader: Reader, apply: Apply) -> u64 {
    for nth in 1.. {
        let fixture = fixture();
        let handle: Arc<Mutex<Option<JoinHandle<_>>>> = Arc::default();
        let (visitor, slot) = (fixture.clone(), Arc::clone(&handle));
        fixture.device.applies.arm(nth, move || {
            visitor.raced.store(true, Ordering::SeqCst);
            let reading = visitor.clone();
            let thread = std::thread::spawn(move || reader(&reading));
            let deadline = Instant::now() + Duration::from_millis(20);
            while !thread.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            *slot.lock().unwrap() = Some(thread);
        });
        let (store, victim) = (&fixture.store, fixture.victim);
        match apply {
            Apply::Rewrite => store.update_row(&user(), victim, rewritten()).unwrap(),
            Apply::Erase => assert_eq!(store.erase(&user(), victim, &escrow()).unwrap(), [victim]),
        }
        fixture.device.applies.disarm();
        if !fixture.raced.load(Ordering::SeqCst) {
            return nth - 1;
        }
        let thread = handle.lock().unwrap().take().unwrap();
        let context = format!("{name_of_reader}, {apply:?} paused before applied write {nth}");
        let seen = match thread.join().unwrap() {
            Err(DbfsError::Erased { id }) if apply == Apply::Erase && id == victim.raw() => None,
            Err(e) => panic!("{context}: {e}"),
            Ok(seen) => Some(seen),
        };
        let mut rows = vec![row("bystander"), row("victim")];
        if apply == Apply::Rewrite {
            rows.push(rewritten());
        }
        let names: Vec<&str> = rows.iter().map(name).collect();
        if let Some(Seen::Records(records)) = &seen {
            for record in records {
                let tombstone = apply == Apply::Erase && record.membrane().is_erased();
                assert!(
                    tombstone || names.contains(&name(record.row())),
                    "{context}: {record:?}"
                );
            }
        }
        if let Some(membrane) = seen
            .as_ref()
            .and_then(|seen| seen.membrane(fixture.bystander))
        {
            assert!(!membrane.is_erased(), "{context}");
        }
        store.verify_index_invariants().unwrap();
    }
    unreachable!("a commit applies finitely many blocks")
}

#[test]
fn a_read_overlapping_an_in_place_apply_is_never_torn() {
    for apply in [Apply::Rewrite, Apply::Erase] {
        for (name, reader) in POINT_READERS.into_iter().chain(SET_READERS) {
            let raced = sweep_apply(name, reader, apply);
            assert!(raced >= 3, "{name}, {apply:?}: {raced} positions");
        }
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
        fixture.device.reads.arm(nth, move || {
            raced.store(true, Ordering::SeqCst);
            let visitor = std::thread::spawn(move || store.get(&user(), bystander));
            *slot.lock().unwrap() = Some(visitor.join().unwrap());
        });
        let rewrites = vec![
            (bystander, row("rewritten")),
            (fixture.victim, row("rewritten too")),
        ];
        let updated = fixture.store.update_rows(&user(), rewrites);
        fixture.device.reads.disarm();
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
