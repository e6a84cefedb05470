//! The superblock: block 0 of every formatted device.

use crate::error::InodeError;
use crate::journal::JournalMode;

/// Magic number identifying an rgpdOS inode-layer filesystem.
pub const SUPERBLOCK_MAGIC: u64 = 0x5247_5044_494E_4F44; // "RGPDINOD"

/// On-disk format version implemented by this crate.
pub const FORMAT_VERSION: u32 = 1;

/// The superblock, persisted in block 0.
///
/// Besides the static format parameters it records the journal recovery
/// state: the id and position of the most recently *started* transaction and
/// the id of the most recently *applied* one.  Mount compares the two to know
/// whether a committed-but-unapplied transaction must be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Number of inodes in the inode table.
    pub inode_count: u64,
    /// Number of journal blocks.
    pub journal_blocks: u64,
    /// Journal scrubbing policy.
    pub journal_mode: JournalMode,
    /// Whether freed data blocks are zeroed.
    pub secure_free: bool,
    /// Identifier of the last transaction whose journal records were written.
    pub last_started_tx: u64,
    /// Offset (in blocks, relative to the journal start) of that transaction.
    pub last_tx_offset: u64,
    /// Identifier of the last transaction fully applied in place.
    pub last_applied_tx: u64,
    /// Next free offset in the journal region (blocks, relative).
    pub journal_write_ptr: u64,
}

impl Superblock {
    /// Creates the superblock written by `format`.
    pub fn new(
        inode_count: u64,
        journal_blocks: u64,
        journal_mode: JournalMode,
        secure_free: bool,
    ) -> Self {
        Self {
            inode_count,
            journal_blocks,
            journal_mode,
            secure_free,
            last_started_tx: 0,
            last_tx_offset: 0,
            last_applied_tx: 0,
            journal_write_ptr: 0,
        }
    }

    /// Serialises the superblock into a block-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is smaller than the encoded superblock (72 bytes).
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        assert!(block_size >= 72, "block size too small for superblock");
        let mut out = vec![0u8; block_size];
        out[0..8].copy_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(self.journal_mode as u32).to_le_bytes());
        out[16..24].copy_from_slice(&self.inode_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.journal_blocks.to_le_bytes());
        out[32..40].copy_from_slice(&self.last_started_tx.to_le_bytes());
        out[40..48].copy_from_slice(&self.last_tx_offset.to_le_bytes());
        out[48..56].copy_from_slice(&self.last_applied_tx.to_le_bytes());
        out[56..64].copy_from_slice(&self.journal_write_ptr.to_le_bytes());
        out[64] = u8::from(self.secure_free);
        out
    }

    /// Decodes a superblock from block 0's contents.
    ///
    /// # Errors
    ///
    /// Returns [`InodeError::Corrupt`] when the magic or version does not
    /// match, or the buffer is too short.
    pub fn decode(buf: &[u8]) -> Result<Self, InodeError> {
        let corrupt = |what: &str| InodeError::Corrupt {
            what: what.to_owned(),
        };
        if buf.len() < 72 {
            return Err(corrupt("superblock shorter than 72 bytes"));
        }
        let magic = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        if magic != SUPERBLOCK_MAGIC {
            return Err(corrupt("superblock magic mismatch"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(corrupt("unsupported format version"));
        }
        let mode_raw = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
        let journal_mode =
            JournalMode::from_raw(mode_raw).ok_or_else(|| corrupt("unknown journal mode"))?;
        Ok(Self {
            journal_mode,
            secure_free: buf[64] != 0,
            inode_count: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
            journal_blocks: u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes")),
            last_started_tx: u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes")),
            last_tx_offset: u64::from_le_bytes(buf[40..48].try_into().expect("8 bytes")),
            last_applied_tx: u64::from_le_bytes(buf[48..56].try_into().expect("8 bytes")),
            journal_write_ptr: u64::from_le_bytes(buf[56..64].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut sb = Superblock::new(128, 32, JournalMode::Scrub, true);
        sb.last_started_tx = 7;
        sb.last_tx_offset = 12;
        sb.last_applied_tx = 6;
        sb.journal_write_ptr = 20;
        let decoded = Superblock::decode(&sb.encode(512)).unwrap();
        assert_eq!(decoded, sb);
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let sb = Superblock::new(1, 1, JournalMode::Retain, false);
        let mut buf = sb.encode(128);
        buf[0] ^= 0xFF;
        assert!(Superblock::decode(&buf).is_err());
        let mut buf = sb.encode(128);
        buf[8] = 99;
        assert!(Superblock::decode(&buf).is_err());
        assert!(Superblock::decode(&[0u8; 10]).is_err());
        let mut buf = sb.encode(128);
        buf[12] = 9;
        assert!(Superblock::decode(&buf).is_err());
    }

    #[test]
    #[should_panic(expected = "block size too small")]
    fn tiny_block_panics() {
        Superblock::new(1, 1, JournalMode::Retain, false).encode(16);
    }
}
