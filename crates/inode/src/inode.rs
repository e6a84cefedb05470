//! The on-disk inode.

use crate::error::InodeError;
use crate::layout::{DIRECT_POINTERS, INODE_SIZE};
use std::fmt;

/// An inode number.
pub type Ino = u64;

/// What an inode stores.  The inode layer itself only distinguishes files and
/// directories; the higher-level filesystems register their own kinds so that
/// a raw scan of the inode table reveals the structural role of each subtree
/// (DBFS builds its table tree out of these).  Code 4, once a DBFS subject
/// directory, is retired: no inode carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InodeKind {
    /// Unused inode slot.
    Free,
    /// A plain byte file.
    File,
    /// A directory (name → inode entries in its data).
    Directory,
    /// DBFS: the root of a table (data type) subtree.
    Table,
    /// DBFS: one personal-data record (row + membrane).
    Record,
    /// DBFS: schema descriptor of a table.
    Schema,
}

impl InodeKind {
    fn to_raw(self) -> u8 {
        match self {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Directory => 2,
            InodeKind::Table => 3,
            InodeKind::Record => 5,
            InodeKind::Schema => 6,
        }
    }

    fn from_raw(raw: u8) -> Option<Self> {
        match raw {
            0 => Some(InodeKind::Free),
            1 => Some(InodeKind::File),
            2 => Some(InodeKind::Directory),
            3 => Some(InodeKind::Table),
            5 => Some(InodeKind::Record),
            6 => Some(InodeKind::Schema),
            _ => None,
        }
    }
}

impl fmt::Display for InodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InodeKind::Free => "free",
            InodeKind::File => "file",
            InodeKind::Directory => "directory",
            InodeKind::Table => "table",
            InodeKind::Record => "record",
            InodeKind::Schema => "schema",
        };
        f.write_str(s)
    }
}

/// One inode: type, size, and block pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// What this inode stores.
    pub kind: InodeKind,
    /// Size of the stored data in bytes.
    pub size: u64,
    /// Direct block pointers (0 = unallocated; block 0 is the superblock and
    /// can never be a data block, so 0 is a safe sentinel).
    pub direct: [u64; DIRECT_POINTERS],
    /// Single indirect pointer block (0 = unallocated).
    pub indirect: u64,
    /// Creation timestamp (simulated seconds).
    pub created_at: u64,
    /// Last-modification timestamp (simulated seconds).
    pub modified_at: u64,
}

impl Inode {
    /// A freshly allocated inode of the given kind.
    pub fn empty(kind: InodeKind, now: u64) -> Self {
        Self {
            kind,
            size: 0,
            direct: [0; DIRECT_POINTERS],
            indirect: 0,
            created_at: now,
            modified_at: now,
        }
    }

    /// Serialises the inode into its fixed-size on-disk form.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut out = [0u8; INODE_SIZE];
        out[0] = self.kind.to_raw();
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, ptr) in self.direct.iter().enumerate() {
            out[16 + i * 8..24 + i * 8].copy_from_slice(&ptr.to_le_bytes());
        }
        let base = 16 + DIRECT_POINTERS * 8;
        out[base..base + 8].copy_from_slice(&self.indirect.to_le_bytes());
        out[base + 8..base + 16].copy_from_slice(&self.created_at.to_le_bytes());
        out[base + 16..base + 24].copy_from_slice(&self.modified_at.to_le_bytes());
        out
    }

    /// Decodes an inode from its on-disk form.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Corrupt`] if the buffer is too short or the kind
    /// byte is unknown.
    pub fn decode(buf: &[u8]) -> Result<Self, InodeError> {
        if buf.len() < INODE_SIZE {
            return Err(InodeError::Corrupt {
                what: "inode slot shorter than expected".to_owned(),
            });
        }
        let kind = InodeKind::from_raw(buf[0]).ok_or_else(|| InodeError::Corrupt {
            what: format!("unknown inode kind {}", buf[0]),
        })?;
        let mut direct = [0u64; DIRECT_POINTERS];
        for (i, ptr) in direct.iter_mut().enumerate() {
            *ptr = u64::from_le_bytes(buf[16 + i * 8..24 + i * 8].try_into().expect("8 bytes"));
        }
        let base = 16 + DIRECT_POINTERS * 8;
        Ok(Self {
            kind,
            size: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            direct,
            indirect: u64::from_le_bytes(buf[base..base + 8].try_into().expect("8 bytes")),
            created_at: u64::from_le_bytes(buf[base + 8..base + 16].try_into().expect("8 bytes")),
            modified_at: u64::from_le_bytes(buf[base + 16..base + 24].try_into().expect("8 bytes")),
        })
    }

    /// Returns `true` if the slot is free.
    pub fn is_free(&self) -> bool {
        self.kind == InodeKind::Free
    }
}

impl Default for Inode {
    fn default() -> Self {
        Self::empty(InodeKind::Free, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut inode = Inode::empty(InodeKind::Record, 42);
        inode.size = 1234;
        inode.direct[0] = 100;
        inode.direct[9] = 900;
        inode.indirect = 77;
        inode.modified_at = 50;
        let decoded = Inode::decode(&inode.encode()).unwrap();
        assert_eq!(decoded, inode);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            InodeKind::Free,
            InodeKind::File,
            InodeKind::Directory,
            InodeKind::Table,
            InodeKind::Record,
            InodeKind::Schema,
        ] {
            let inode = Inode::empty(kind, 1);
            assert_eq!(Inode::decode(&inode.encode()).unwrap().kind, kind);
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Inode::decode(&[0u8; 10]).is_err());
        let mut buf = [0u8; INODE_SIZE];
        buf[0] = 200;
        assert!(Inode::decode(&buf).is_err());
        buf[0] = 4;
        assert!(Inode::decode(&buf).is_err(), "kind code 4 is retired");
    }

    #[test]
    fn default_is_free() {
        assert!(Inode::default().is_free());
        assert!(!Inode::empty(InodeKind::File, 0).is_free());
    }
}
