//! The disk abstraction: named append-only files with read/remove.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A minimal filesystem interface: a flat namespace of named files.
/// A file only grows until it is removed; there is no overwrite.
///
/// Implementations must make `sync` a durability point: data written
/// before a successful `sync` survives a crash; unsynced data may be
/// partially lost (see [`MemDisk::crash`]).
pub trait Disk {
    /// Appends `data` to `name` (creating it if absent).
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Reads the full contents of `name`.
    fn read_file(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Whether `name` exists.
    fn exists(&self, name: &str) -> bool;
    /// Removes `name` (idempotent).
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// Lists file names in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Durability barrier.
    fn sync(&mut self) -> io::Result<()>;
}

/// An in-memory disk with crash-fault injection, for tests and for the
/// discrete-event simulation (where durability is modeled, not real).
///
/// Each file's bytes are kept once, with its length at the last `sync`;
/// a file removed since then keeps its synced bytes on the side. Files
/// only grow between removals, so `sync` records lengths, not bytes.
#[derive(Clone, Debug, Default)]
pub struct MemDisk {
    /// Current (possibly unsynced) files.
    files: BTreeMap<String, MemFile>,
    /// Synced contents of files removed since the last sync.
    removed: BTreeMap<String, Vec<u8>>,
    /// Armed by `tear_next_write_after`: the next append tears here.
    tear_after: Option<usize>,
}

#[derive(Clone, Debug, Default)]
struct MemFile {
    bytes: Vec<u8>,
    /// Length at the last sync; `None` if created since.
    synced: Option<usize>,
}

impl MemDisk {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Arms fault injection: the next append tears after `bytes` bytes.
    pub fn tear_next_write_after(&mut self, bytes: usize) {
        self.tear_after = Some(bytes);
    }

    /// Simulates a crash: all state reverts to the last synced state.
    /// Every file is cut back to its synced length, files created since
    /// the sync vanish, and removed ones come back. Returns the reverted
    /// disk (replay a [`crate::Wal`] from it to test recovery).
    pub fn crash(mut self) -> MemDisk {
        self.files.retain(|_, f| {
            f.bytes.truncate(f.synced.unwrap_or(0));
            f.synced.is_some()
        });
        for (name, bytes) in std::mem::take(&mut self.removed) {
            let synced = Some(bytes.len());
            self.files.insert(name, MemFile { bytes, synced });
        }
        self.tear_after = None;
        self
    }
}

impl Disk for MemDisk {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let (keep, torn) = match self.tear_after.take() {
            Some(limit) if limit < data.len() => (limit, true),
            Some(_) | None => (data.len(), false),
        };
        let file = self.files.entry(name.to_string()).or_default();
        file.bytes.extend_from_slice(&data[..keep]);
        if torn {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "torn append"));
        }
        Ok(())
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .get(name)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        if let Some((name, mut file)) = self.files.remove_entry(name) {
            if let Some(len) = file.synced {
                file.bytes.truncate(len);
                self.removed.insert(name, file.bytes);
            }
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn sync(&mut self) -> io::Result<()> {
        for f in self.files.values_mut() {
            f.synced = Some(f.bytes.len());
        }
        self.removed.clear();
        Ok(())
    }
}

/// The storage behind a [`SharedDisk`] handle: the default in-memory
/// fault-injectable disk, or any boxed [`Disk`] (a [`FileDisk`], a
/// timing decorator, ...). Keeping the enum private lets
/// `SharedDisk` stay the one concrete type the safety journal needs
/// while the actual backend varies between simulation and deployment.
enum SharedBackend {
    Mem(MemDisk),
    Boxed(Box<dyn Disk + Send>),
}

impl SharedBackend {
    fn disk(&mut self) -> &mut (dyn Disk + Send) {
        match self {
            SharedBackend::Mem(d) => d,
            SharedBackend::Boxed(d) => d.as_mut(),
        }
    }

    fn disk_ref(&self) -> &dyn Disk {
        match self {
            SharedBackend::Mem(d) => d,
            SharedBackend::Boxed(d) => d.as_ref(),
        }
    }
}

impl std::fmt::Debug for SharedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedBackend::Mem(d) => f.debug_tuple("Mem").field(d).finish(),
            SharedBackend::Boxed(_) => f.debug_tuple("Boxed").finish(),
        }
    }
}

impl Default for SharedBackend {
    fn default() -> Self {
        SharedBackend::Mem(MemDisk::new())
    }
}

/// A cloneable handle to one shared disk: every clone addresses the
/// same files. This lets a consensus replica (which owns a durable
/// journal on the disk) and a fault-injecting harness (which crashes
/// the disk and tears its writes) hold the *same* per-replica disk —
/// and, unlike [`MemDisk::crash`] which consumes the disk, crash it in
/// place so outstanding handles stay valid across the restart.
///
/// By default the backend is a [`MemDisk`]; [`SharedDisk::from_disk`]
/// wraps any other [`Disk`] (e.g. a [`FileDisk`]) behind the same
/// handle type, so code written against `SharedDisk` — notably the
/// safety journal — runs unchanged on real files. Fault injection
/// ([`crash`](SharedDisk::crash), [`wipe`](SharedDisk::wipe),
/// [`tear_next_write_after`](SharedDisk::tear_next_write_after)) only
/// applies to the in-memory backend and is a no-op on boxed backends:
/// for a real disk, "crash" means killing the process.
#[derive(Clone, Debug, Default)]
pub struct SharedDisk(Arc<Mutex<SharedBackend>>);

impl SharedDisk {
    /// A handle to a fresh empty in-memory disk.
    pub fn new() -> Self {
        SharedDisk::default()
    }

    /// Wraps an arbitrary disk (a [`FileDisk`], a timing decorator,
    /// ...) behind a shared cloneable handle.
    pub fn from_disk(disk: Box<dyn Disk + Send>) -> Self {
        SharedDisk(Arc::new(Mutex::new(SharedBackend::Boxed(disk))))
    }

    /// Opens (creating if necessary) a directory as a shared
    /// [`FileDisk`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation.
    pub fn open_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(SharedDisk::from_disk(Box::new(FileDisk::open(dir)?)))
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, SharedBackend> {
        self.0.lock().expect("disk lock")
    }

    /// Simulates a crash in place: all state reverts to the last synced
    /// state (see [`MemDisk::crash`]); armed torn writes are cleared.
    /// No-op on non-memory backends.
    pub fn crash(&self) {
        if let SharedBackend::Mem(disk) = &mut *self.inner() {
            *disk = std::mem::take(disk).crash();
        }
    }

    /// Discards *everything*, durable state included — the "replaced
    /// hardware" amnesia fault, as opposed to [`SharedDisk::crash`]'s
    /// power loss. No-op on non-memory backends.
    pub fn wipe(&self) {
        if let SharedBackend::Mem(disk) = &mut *self.inner() {
            *disk = MemDisk::new();
        }
    }

    /// Arms fault injection: the next append tears after `bytes` bytes.
    /// No-op on non-memory backends.
    pub fn tear_next_write_after(&self, bytes: usize) {
        if let SharedBackend::Mem(disk) = &mut *self.inner() {
            disk.tear_next_write_after(bytes);
        }
    }
}

impl Disk for SharedDisk {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner().disk().append(name, data)
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner().disk_ref().read_file(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner().disk_ref().exists(name)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner().disk().remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner().disk_ref().list()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner().disk().sync()
    }
}

/// A real directory-backed disk.
#[derive(Debug)]
pub struct FileDisk {
    dir: PathBuf,
}

impl FileDisk {
    /// Opens (creating if necessary) a directory as a disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileDisk { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Disk for FileDisk {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn sync(&mut self) -> io::Result<()> {
        // Directory-level fsync is best-effort and platform-specific;
        // individual writes above already hit the page cache.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_basic_ops() {
        let mut d = MemDisk::new();
        d.append("a", b"one").unwrap();
        d.append("a", b"two").unwrap();
        assert_eq!(d.read_file("a").unwrap(), b"onetwo");
        assert!(d.exists("a"));
        assert_eq!(d.list().unwrap(), vec!["a".to_string()]);
        d.remove("a").unwrap();
        assert!(!d.exists("a"));
        assert!(d.read_file("a").is_err());
    }

    #[test]
    fn memdisk_crash_reverts_to_synced_state() {
        let mut d = MemDisk::new();
        d.append("a", b"durable").unwrap();
        d.sync().unwrap();
        d.append("a", b" volatile").unwrap();
        d.append("b", b"also volatile").unwrap();
        let d = d.crash();
        assert_eq!(d.read_file("a").unwrap(), b"durable");
        assert!(!d.exists("b"));
    }

    #[test]
    fn memdisk_torn_append_keeps_prefix() {
        let mut d = MemDisk::new();
        d.append("log", b"abcdef").unwrap();
        d.tear_next_write_after(2);
        assert!(d.append("log", b"ghijkl").is_err());
        assert_eq!(d.read_file("log").unwrap(), b"abcdefgh");
        // Fault injection is one-shot.
        d.append("log", b"!").unwrap();
        assert_eq!(d.read_file("log").unwrap(), b"abcdefgh!");
    }

    #[test]
    fn shared_disk_clones_alias_and_crash_in_place() {
        let a = SharedDisk::new();
        let mut b = a.clone();
        b.append("j", b"durable").unwrap();
        b.sync().unwrap();
        b.append("j", b" volatile").unwrap();
        assert_eq!(a.read_file("j").unwrap(), b"durable volatile");
        a.crash();
        // Both handles still work and see the reverted state.
        assert_eq!(b.read_file("j").unwrap(), b"durable");
        a.tear_next_write_after(2);
        assert!(b.append("j", b"abcd").is_err());
        assert_eq!(a.read_file("j").unwrap(), b"durableab");
        a.wipe();
        assert!(!b.exists("j"));
    }

    #[test]
    fn shared_disk_over_filedisk() {
        let dir = std::env::temp_dir().join(format!("marlin-shared-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = SharedDisk::open_dir(&dir).unwrap();
        let mut b = a.clone();
        b.append("j", b"on real files").unwrap();
        b.sync().unwrap();
        assert_eq!(a.read_file("j").unwrap(), b"on real files");
        // Fault injection is memory-only: these must not disturb files.
        a.crash();
        a.tear_next_write_after(1);
        b.append("j", b"!!").unwrap();
        assert_eq!(a.read_file("j").unwrap(), b"on real files!!");
        a.wipe();
        assert!(b.exists("j"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filedisk_round_trip() {
        let dir = std::env::temp_dir().join(format!("marlin-storage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = FileDisk::open(&dir).unwrap();
        d.append("seg-1", b"hello").unwrap();
        d.append("seg-1", b" world").unwrap();
        assert_eq!(d.read_file("seg-1").unwrap(), b"hello world");
        assert!(d.list().unwrap().contains(&"seg-1".to_string()));
        d.remove("seg-1").unwrap();
        d.remove("seg-1").unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
