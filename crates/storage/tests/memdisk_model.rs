//! Differential model test for `MemDisk`'s crash model.
//!
//! The reference is the simplest disk that has the contract: it keeps
//! a whole copy of the live files as the durable state, takes that copy
//! at every `sync`, and puts it back at every crash. `MemDisk` must be
//! indistinguishable from it, both driven directly (crash consumes the
//! disk) and behind a `SharedDisk` handle (crash in place).
//!
//! Random schedules over three file names mix appends of 0–300 bytes,
//! removes, syncs, crashes and torn appends (`tear_next_write_after(k)`
//! then an append). After every operation the three disks must agree
//! on the operation's `Ok`/error kind and, for every name, on
//! `read_file` and `exists`, and on `list`.
//!
//! A `FileDisk` on a fresh directory runs the same schedules with the
//! crash and tear steps left out (a real disk has neither hook), and
//! must match the reference's live files the same way. On Linux the
//! open descriptors into that directory may never outnumber its live
//! files: a held append handle dies with its file.

use marlin_storage::{Disk, FileDisk, MemDisk, SharedDisk};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

const NAMES: [&str; 3] = ["journal.1", "state-snapshot.1", "state-snapshot.2"];

/// The reference: durable state is a full copy of the live files,
/// taken at `sync` and restored at `crash`.
#[derive(Debug, Default)]
struct CloneOnSync {
    durable: BTreeMap<String, Vec<u8>>,
    live: BTreeMap<String, Vec<u8>>,
    tear_after: Option<usize>,
}

impl CloneOnSync {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let (keep, torn) = match self.tear_after.take() {
            Some(limit) if limit < data.len() => (limit, true),
            _ => (data.len(), false),
        };
        self.live
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(&data[..keep]);
        if torn {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "torn append"));
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) {
        self.live.remove(name);
    }

    fn sync(&mut self) {
        self.durable = self.live.clone();
    }

    fn crash(&mut self) {
        self.live = self.durable.clone();
        self.tear_after = None;
    }
}

#[derive(Clone, Debug)]
enum Op {
    Append(usize, Vec<u8>),
    Remove(usize),
    Sync,
    Crash,
    /// `tear_next_write_after(k)`, then an append.
    TornAppend(usize, usize, Vec<u8>),
}

fn data() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..=300)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..3, data()).prop_map(|(f, d)| Op::Append(f, d)),
        2 => (0usize..3).prop_map(Op::Remove),
        2 => Just(Op::Sync),
        2 => Just(Op::Crash),
        1 => (0usize..3, 0usize..300, data()).prop_map(|(f, k, d)| Op::TornAppend(f, k, d)),
    ]
}

/// The schedules a real disk can run: no crash, no torn append.
fn arb_live_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..3, data()).prop_map(|(f, d)| Op::Append(f, d)),
        2 => (0usize..3).prop_map(Op::Remove),
        2 => Just(Op::Sync),
    ]
}

type Outcome = Result<(), io::ErrorKind>;

fn kind(r: io::Result<()>) -> Outcome {
    r.map_err(|e| e.kind())
}

/// Applies `op` to a `MemDisk`, crashing it by value.
fn on_mem(disk: &mut MemDisk, op: &Op) -> Outcome {
    match op {
        Op::Append(f, d) => kind(disk.append(NAMES[*f], d)),
        Op::Remove(f) => kind(disk.remove(NAMES[*f])),
        Op::Sync => kind(disk.sync()),
        Op::Crash => {
            *disk = std::mem::take(disk).crash();
            Ok(())
        }
        Op::TornAppend(f, k, d) => {
            disk.tear_next_write_after(*k);
            kind(disk.append(NAMES[*f], d))
        }
    }
}

/// Applies `op` through a `SharedDisk` handle, crashing it in place.
fn on_shared(disk: &mut SharedDisk, op: &Op) -> Outcome {
    match op {
        Op::Append(f, d) => kind(disk.append(NAMES[*f], d)),
        Op::Remove(f) => kind(disk.remove(NAMES[*f])),
        Op::Sync => kind(disk.sync()),
        Op::Crash => {
            disk.crash();
            Ok(())
        }
        Op::TornAppend(f, k, d) => {
            disk.tear_next_write_after(*k);
            kind(disk.append(NAMES[*f], d))
        }
    }
}

/// Applies a crash-free `op` to a `FileDisk`.
fn on_file(disk: &mut FileDisk, op: &Op) -> Outcome {
    match op {
        Op::Append(f, d) => kind(disk.append(NAMES[*f], d)),
        Op::Remove(f) => kind(disk.remove(NAMES[*f])),
        Op::Sync => kind(disk.sync()),
        Op::Crash | Op::TornAppend(..) => unreachable!("not a live-file step: {op:?}"),
    }
}

fn on_model(disk: &mut CloneOnSync, op: &Op) -> Outcome {
    match op {
        Op::Append(f, d) => kind(disk.append(NAMES[*f], d)),
        Op::Remove(f) => {
            disk.remove(NAMES[*f]);
            Ok(())
        }
        Op::Sync => {
            disk.sync();
            Ok(())
        }
        Op::Crash => {
            disk.crash();
            Ok(())
        }
        Op::TornAppend(f, k, d) => {
            disk.tear_after = Some(*k);
            kind(disk.append(NAMES[*f], d))
        }
    }
}

/// Everything a reader can observe: per name `read_file` and
/// `exists`, then `list`.
type View = (Vec<(Result<Vec<u8>, io::ErrorKind>, bool)>, Vec<String>);

fn view(disk: &impl Disk) -> View {
    let files = NAMES
        .iter()
        .map(|n| (disk.read_file(n).map_err(|e| e.kind()), disk.exists(n)))
        .collect();
    let mut names = disk.list().expect("list");
    names.sort();
    (files, names)
}

fn model_view(disk: &CloneOnSync) -> View {
    let files = NAMES
        .iter()
        .map(|n| match disk.live.get(*n) {
            Some(bytes) => (Ok(bytes.clone()), true),
            None => (Err(io::ErrorKind::NotFound), false),
        })
        .collect();
    (files, disk.live.keys().cloned().collect())
}

/// A fresh, empty directory for one `FileDisk` schedule, by its
/// canonical path (what `/proc/self/fd` links name).
fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marlin-filedisk-model-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the dir");
    std::fs::canonicalize(&dir).expect("dir exists")
}

/// How many of this process's open descriptors point into `dir` (on
/// Linux; elsewhere there is no `/proc/self/fd` and this is 0).
fn fds_into(dir: &Path) -> usize {
    if !cfg!(target_os = "linux") {
        return 0;
    }
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.starts_with(dir))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memdisk_matches_the_clone_on_sync_model(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut model = CloneOnSync::default();
        let mut mem = MemDisk::new();
        let mut shared = SharedDisk::new();
        for (i, op) in ops.iter().enumerate() {
            let expected = on_model(&mut model, op);
            prop_assert_eq!(on_mem(&mut mem, op), expected, "MemDisk, op {} {:?}", i, op);
            prop_assert_eq!(on_shared(&mut shared, op), expected, "SharedDisk, op {} {:?}", i, op);
            let want = model_view(&model);
            prop_assert_eq!(view(&mem), want.clone(), "MemDisk after op {} {:?}", i, op);
            prop_assert_eq!(view(&shared), want, "SharedDisk after op {} {:?}", i, op);
        }
    }

    #[test]
    fn filedisk_matches_the_model_on_live_files(
        ops in prop::collection::vec(arb_live_op(), 1..60),
    ) {
        let dir = fresh_dir();
        let mut model = CloneOnSync::default();
        let mut file = FileDisk::open(&dir).expect("opens");
        for (i, op) in ops.iter().enumerate() {
            let expected = on_model(&mut model, op);
            prop_assert_eq!(on_file(&mut file, op), expected, "FileDisk, op {} {:?}", i, op);
            prop_assert_eq!(view(&file), model_view(&model), "FileDisk after op {} {:?}", i, op);
            let fds = fds_into(&dir);
            prop_assert!(
                fds <= model.live.len(),
                "FileDisk holds {} descriptors for {} live files after op {} {:?}",
                fds, model.live.len(), i, op
            );
        }
        drop(file);
        std::fs::remove_dir_all(&dir).expect("cleans up");
    }
}
