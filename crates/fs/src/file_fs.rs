//! Path-based file API over the inode layer.

use crate::error::FsError;
use crate::path::split_path;
use rgpdos_blockdev::BlockDevice;
use rgpdos_inode::fs::ROOT_INO;
use rgpdos_inode::{FormatParams, Ino, InodeFs, InodeKind, JournalMode};

/// A traditional file-based filesystem: files and directories addressed by
/// path, conventional (residue-prone) deletion semantics by default.
#[derive(Debug)]
pub struct FileFs<D> {
    inner: InodeFs<D>,
}

impl<D: BlockDevice> FileFs<D> {
    /// Formats `device` with conventional parameters: retain-mode journal and
    /// no zero-on-free — the behaviour of a stock ext4-like filesystem.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format_default(device: D) -> Result<Self, FsError> {
        Ok(Self {
            inner: InodeFs::format(device, FormatParams::standard(), JournalMode::Retain)?,
        })
    }

    /// Formats `device` with explicit parameters.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format(
        device: D,
        params: FormatParams,
        journal_mode: JournalMode,
    ) -> Result<Self, FsError> {
        Ok(Self {
            inner: InodeFs::format(device, params, journal_mode)?,
        })
    }

    /// Mounts an already formatted device.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn mount(device: D) -> Result<Self, FsError> {
        Ok(Self {
            inner: InodeFs::mount(device)?,
        })
    }

    /// Gives access to the underlying inode filesystem.
    pub fn inode_fs(&self) -> &InodeFs<D> {
        &self.inner
    }

    /// Gives access to the underlying block device (for forensic scans).
    pub fn device(&self) -> &D {
        self.inner.device()
    }

    /// Creates an empty file, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if the path already exists.
    pub fn create(&self, path: &str) -> Result<(), FsError> {
        let components = split_path(path)?;
        let (dir_components, file_name) = components.split_at(components.len() - 1);
        let dir = self.ensure_directories(dir_components)?;
        if self.inner.dir_lookup(dir, file_name[0])?.is_some() {
            return Err(FsError::AlreadyExists {
                path: path.to_owned(),
            });
        }
        let ino = self.inner.alloc_inode(InodeKind::File)?;
        self.inner.dir_add(dir, file_name[0], ino)?;
        Ok(())
    }

    /// Creates a directory (and its parents).
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn create_dir(&self, path: &str) -> Result<(), FsError> {
        let components = split_path(path)?;
        self.ensure_directories(&components)?;
        Ok(())
    }

    /// Returns `true` if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Overwrites the whole contents of a file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] / [`FsError::NotAFile`] as appropriate.
    pub fn write(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let ino = self.resolve_file(path)?;
        self.inner.write_replace(ino, data)?;
        Ok(())
    }

    /// Appends to a file (the access pattern of log files, which is how the
    /// paper's journal-residue scenario arises at the application level too).
    ///
    /// # Errors
    ///
    /// Same as [`FileFs::write`].
    pub fn append(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let ino = self.resolve_file(path)?;
        let size = self.inner.stat(ino)?.size;
        self.inner.write(ino, size, data)?;
        Ok(())
    }

    /// Reads the whole contents of a file.
    ///
    /// # Errors
    ///
    /// Same as [`FileFs::write`].
    pub fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let ino = self.resolve_file(path)?;
        Ok(self.inner.read_all(ino)?)
    }

    /// Deletes a file.  With the default (conventional) format parameters the
    /// freed blocks and journal records still hold the bytes — which is the
    /// precise behaviour the paper's Fig. 2 critique relies on.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] / [`FsError::NotAFile`].
    pub fn remove(&self, path: &str) -> Result<(), FsError> {
        let components = split_path(path)?;
        let (dir_components, file_name) = components.split_at(components.len() - 1);
        let dir = self.resolve_components(dir_components)?;
        let ino = self
            .inner
            .dir_lookup(dir, file_name[0])?
            .ok_or_else(|| FsError::NotFound {
                path: path.to_owned(),
            })?;
        let inode = self.inner.stat(ino)?;
        if inode.kind == InodeKind::Directory && !self.inner.dir_entries(ino)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty {
                path: path.to_owned(),
            });
        }
        self.inner.dir_remove(dir, file_name[0])?;
        self.inner.free_inode(ino)?;
        Ok(())
    }

    // ------------------------------------------------------------------

    fn ensure_directories(&self, components: &[&str]) -> Result<Ino, FsError> {
        let mut current = ROOT_INO;
        for component in components {
            current = match self.inner.dir_lookup(current, component)? {
                Some(ino) => ino,
                None => {
                    let ino = self.inner.alloc_inode(InodeKind::Directory)?;
                    self.inner.dir_add(current, component, ino)?;
                    ino
                }
            };
        }
        Ok(current)
    }

    fn resolve_components(&self, components: &[&str]) -> Result<Ino, FsError> {
        let mut current = ROOT_INO;
        for component in components {
            current =
                self.inner
                    .dir_lookup(current, component)?
                    .ok_or_else(|| FsError::NotFound {
                        path: components.join("/"),
                    })?;
        }
        Ok(current)
    }

    fn resolve(&self, path: &str) -> Result<Ino, FsError> {
        let components = split_path(path)?;
        self.resolve_components(&components)
    }

    fn resolve_file(&self, path: &str) -> Result<Ino, FsError> {
        let ino = self.resolve(path)?;
        let inode = self.inner.stat(ino)?;
        if inode.kind == InodeKind::Directory {
            return Err(FsError::NotAFile {
                path: path.to_owned(),
            });
        }
        Ok(ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::{scan_for_pattern, MemDevice};
    use std::sync::Arc;

    fn fs() -> FileFs<Arc<MemDevice>> {
        FileFs::format(
            Arc::new(MemDevice::new(1024, 256)),
            FormatParams::small().with_inode_count(128),
            JournalMode::Retain,
        )
        .unwrap()
    }

    #[test]
    fn create_write_read() {
        let fs = fs();
        fs.create("/notes.txt").unwrap();
        fs.write("/notes.txt", b"non personal note").unwrap();
        assert_eq!(fs.read("/notes.txt").unwrap(), b"non personal note");
        assert!(fs.exists("/notes.txt"));
        assert!(!fs.exists("/missing.txt"));
    }

    #[test]
    fn nested_directories_are_created_on_demand() {
        let fs = fs();
        fs.create("/var/log/app/service.log").unwrap();
        fs.append("/var/log/app/service.log", b"line 1\n").unwrap();
        fs.append("/var/log/app/service.log", b"line 2\n").unwrap();
        assert_eq!(
            fs.read("/var/log/app/service.log").unwrap(),
            b"line 1\nline 2\n"
        );
        assert!(fs.exists("/var/log"));
    }

    #[test]
    fn duplicate_create_fails() {
        let fs = fs();
        fs.create("/a").unwrap();
        assert!(matches!(
            fs.create("/a"),
            Err(FsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn remove_file_and_empty_directory() {
        let fs = fs();
        fs.create("/dir/file").unwrap();
        assert!(matches!(
            fs.remove("/dir"),
            Err(FsError::DirectoryNotEmpty { .. })
        ));
        fs.remove("/dir/file").unwrap();
        assert!(!fs.exists("/dir/file"));
        fs.remove("/dir").unwrap();
        assert!(!fs.exists("/dir"));
        assert!(matches!(fs.remove("/dir"), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn directory_is_not_a_file() {
        let fs = fs();
        fs.create_dir("/d").unwrap();
        assert!(matches!(
            fs.write("/d", b"x"),
            Err(FsError::NotAFile { .. })
        ));
        assert!(matches!(fs.read("/d"), Err(FsError::NotAFile { .. })));
    }

    #[test]
    fn conventional_delete_leaves_residue() {
        let fs = fs();
        fs.create("/patient.rec").unwrap();
        fs.write("/patient.rec", b"PATIENT-RECORD-XYZ").unwrap();
        fs.remove("/patient.rec").unwrap();
        let hits = scan_for_pattern(fs.device().as_ref(), b"PATIENT-RECORD-XYZ").unwrap();
        assert!(
            !hits.is_empty(),
            "a conventional filesystem keeps deleted bytes reachable on the raw device"
        );
    }

    #[test]
    fn secure_format_removes_residue() {
        let fs = FileFs::format(
            Arc::new(MemDevice::new(1024, 256)),
            FormatParams::small().with_secure_free(true),
            JournalMode::Scrub,
        )
        .unwrap();
        fs.create("/patient.rec").unwrap();
        fs.write("/patient.rec", b"PATIENT-RECORD-XYZ").unwrap();
        fs.remove("/patient.rec").unwrap();
        let hits = scan_for_pattern(fs.device().as_ref(), b"PATIENT-RECORD-XYZ").unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn remount_preserves_tree() {
        let device = Arc::new(MemDevice::new(1024, 256));
        {
            let fs = FileFs::format(
                Arc::clone(&device),
                FormatParams::small().with_inode_count(128),
                JournalMode::Retain,
            )
            .unwrap();
            fs.create("/a/b/c.txt").unwrap();
            fs.write("/a/b/c.txt", b"survives remount").unwrap();
        }
        let fs = FileFs::mount(device).unwrap();
        assert_eq!(fs.read("/a/b/c.txt").unwrap(), b"survives remount");
    }

    #[test]
    fn default_format_works() {
        let fs = FileFs::format_default(Arc::new(MemDevice::new(4096, 512))).unwrap();
        fs.create("/x").unwrap();
        fs.write("/x", &vec![9u8; 5000]).unwrap();
        assert_eq!(fs.read("/x").unwrap().len(), 5000);
        assert_eq!(fs.inode_fs().journal_mode(), JournalMode::Retain);
    }

    #[test]
    fn bad_paths_are_rejected() {
        let fs = fs();
        assert!(matches!(fs.create("//"), Err(FsError::BadPath { .. })));
        assert!(matches!(fs.read("/"), Err(FsError::BadPath { .. })));
        assert!(matches!(fs.write("", b"x"), Err(FsError::BadPath { .. })));
    }
}
