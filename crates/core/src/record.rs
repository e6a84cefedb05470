//! Wrapped personal data records.
//!
//! A [`PdRecord`] is the unit DBFS stores: one typed [`Row`] plus the
//! [`Membrane`] enforcing its subject's decisions.  The paper's enforcement
//! rule (3) — "every PD stored in DBFS must have a membrane attached to it" —
//! is made unrepresentable-by-construction here: there is no way to build a
//! `PdRecord` without a membrane.

use crate::error::CoreError;
use crate::ids::{DataTypeId, PdId, PdRef, SubjectId};
use crate::membrane::Membrane;
use crate::value::Row;
use serde::{Deserialize, Serialize};
use std::fmt;

/// On-disk codec for the *split* record layout used by DBFS (format v2).
///
/// A stored record is two length-prefixed sections inside one inode extent:
///
/// ```text
/// [u32 LE: membrane section length][membrane JSON][row JSON]
/// ```
///
/// The membrane header comes first so that membrane-only reads (the
/// `ded_load_membrane` request) can fetch and deserialize the header section
/// without ever touching the row payload — data minimisation inside the
/// storage layer itself.
pub mod stored {
    use super::{CoreError, Membrane, Row};

    /// Length of the section-length prefix.
    pub const PREFIX_LEN: usize = 4;

    fn corrupt(what: &str) -> CoreError {
        CoreError::Corrupt {
            what: what.to_owned(),
        }
    }

    /// Encodes a membrane + row into the split layout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] when either section fails to serialize.
    pub fn encode(membrane: &Membrane, row: &Row) -> Result<Vec<u8>, CoreError> {
        let header = serde_json::to_vec(membrane).map_err(|_| corrupt("membrane serialization"))?;
        let payload = serde_json::to_vec(row).map_err(|_| corrupt("row serialization"))?;
        let len = u32::try_from(header.len()).map_err(|_| corrupt("membrane section length"))?;
        let mut out = Vec::with_capacity(PREFIX_LEN + header.len() + payload.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Reads the membrane-section length out of the 4-byte prefix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] when fewer than [`PREFIX_LEN`] bytes
    /// are supplied.
    pub fn membrane_section_len(prefix: &[u8]) -> Result<usize, CoreError> {
        let bytes: [u8; PREFIX_LEN] = prefix
            .get(..PREFIX_LEN)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| corrupt("record header prefix truncated"))?;
        Ok(u32::from_le_bytes(bytes) as usize)
    }

    /// Decodes a membrane header section (the bytes *after* the prefix).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] when the section does not decode.
    pub fn decode_membrane(section: &[u8]) -> Result<Membrane, CoreError> {
        serde_json::from_slice(section).map_err(|_| corrupt("membrane header section"))
    }

    fn header_end(bytes: &[u8]) -> Result<usize, CoreError> {
        PREFIX_LEN
            .checked_add(membrane_section_len(bytes)?)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| corrupt("membrane section truncated"))
    }

    /// Decodes a full split-layout record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] for truncated or undecodable input.
    pub fn decode(bytes: &[u8]) -> Result<(Membrane, Row), CoreError> {
        let header_end = header_end(bytes)?;
        let membrane = decode_membrane(&bytes[PREFIX_LEN..header_end])?;
        let row: Row = serde_json::from_slice(&bytes[header_end..])
            .map_err(|_| corrupt("row payload section"))?;
        Ok((membrane, row))
    }

    /// Decodes only the membrane header of a full split-layout record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] for truncated or undecodable input.
    pub fn membrane_of(bytes: &[u8]) -> Result<Membrane, CoreError> {
        decode_membrane(&bytes[PREFIX_LEN..header_end(bytes)?])
    }

    /// Re-encodes a split-layout record with a replacement membrane header,
    /// carrying the row payload bytes over untouched (no row deserialization
    /// round-trip).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] when the input is truncated or the new
    /// membrane fails to serialize.
    pub fn replace_membrane(bytes: &[u8], membrane: &Membrane) -> Result<Vec<u8>, CoreError> {
        let header_end = header_end(bytes)?;
        let header = serde_json::to_vec(membrane).map_err(|_| corrupt("membrane serialization"))?;
        let len = u32::try_from(header.len()).map_err(|_| corrupt("membrane section length"))?;
        let payload = &bytes[header_end..];
        let mut out = Vec::with_capacity(PREFIX_LEN + header.len() + payload.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(payload);
        Ok(out)
    }
}

/// A typed row of personal data wrapped in its membrane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WrappedPd {
    row: Row,
    membrane: Membrane,
}

impl WrappedPd {
    /// Wraps a row in a membrane.
    pub fn new(row: Row, membrane: Membrane) -> Self {
        Self { row, membrane }
    }

    /// The data payload.
    pub fn row(&self) -> &Row {
        &self.row
    }

    /// Mutable access to the data payload (used by the `update` built-in).
    pub fn row_mut(&mut self) -> &mut Row {
        &mut self.row
    }

    /// The membrane.
    pub fn membrane(&self) -> &Membrane {
        &self.membrane
    }

    /// Splits the wrapper into its parts.
    pub fn into_parts(self) -> (Row, Membrane) {
        (self.row, self.membrane)
    }

    /// Replaces the payload with an erasure tombstone (the ciphertext) and
    /// marks the membrane as erased.
    pub fn erase_with(&mut self, ciphertext: Vec<u8>) {
        self.row = Row::new().with("__erased_ciphertext", ciphertext);
        self.membrane.mark_erased();
    }
}

/// A stored PD record: a [`WrappedPd`] plus its storage identity (which table
/// it lives in, its PD identifier, and its subject).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdRecord {
    id: PdId,
    data_type: DataTypeId,
    wrapped: WrappedPd,
}

impl PdRecord {
    /// Creates a record.
    pub fn new(id: PdId, data_type: DataTypeId, wrapped: WrappedPd) -> Self {
        Self {
            id,
            data_type,
            wrapped,
        }
    }

    /// The PD identifier.
    pub fn id(&self) -> PdId {
        self.id
    }

    /// The data type (table) this record belongs to.
    pub fn data_type(&self) -> &DataTypeId {
        &self.data_type
    }

    /// The subject the record belongs to (read from the membrane).
    pub fn subject(&self) -> SubjectId {
        self.wrapped.membrane().subject()
    }

    /// The wrapped payload + membrane.
    pub fn wrapped(&self) -> &WrappedPd {
        &self.wrapped
    }

    /// Mutable access to the wrapped payload + membrane.
    pub fn wrapped_mut(&mut self) -> &mut WrappedPd {
        &mut self.wrapped
    }

    /// Shorthand for the payload row.
    pub fn row(&self) -> &Row {
        self.wrapped.row()
    }

    /// Shorthand for the membrane.
    pub fn membrane(&self) -> &Membrane {
        self.wrapped.membrane()
    }

    /// The opaque reference applications receive for this record.
    pub fn to_ref(&self) -> PdRef {
        PdRef::new(self.data_type.clone(), self.id)
    }
}

impl fmt::Display for PdRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] of {} ({} fields)",
            self.data_type,
            self.id,
            self.subject(),
            self.row().len()
        )
    }
}

/// An ordered batch of records, as returned by DBFS queries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecordBatch {
    records: Vec<PdRecord>,
}

impl RecordBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record to the batch.
    pub fn push(&mut self, record: PdRecord) {
        self.records.push(record);
    }

    /// The records in the batch.
    pub fn records(&self) -> &[PdRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &PdRecord> {
        self.records.iter()
    }

    /// Consumes the batch, yielding its records.
    pub fn into_records(self) -> Vec<PdRecord> {
        self.records
    }

    /// Keeps only records satisfying the predicate.
    pub fn retain(&mut self, mut predicate: impl FnMut(&PdRecord) -> bool) {
        self.records.retain(|r| predicate(r));
    }

    /// Looks up a record by identifier.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] if no record in the batch has this id.
    pub fn find(&self, id: PdId) -> Result<&PdRecord, CoreError> {
        self.records
            .iter()
            .find(|r| r.id() == id)
            .ok_or_else(|| CoreError::NotFound {
                what: format!("record {id} in batch"),
            })
    }
}

impl FromIterator<PdRecord> for RecordBatch {
    fn from_iter<T: IntoIterator<Item = PdRecord>>(iter: T) -> Self {
        RecordBatch {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<PdRecord> for RecordBatch {
    fn extend<T: IntoIterator<Item = PdRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl IntoIterator for RecordBatch {
    type Item = PdRecord;
    type IntoIter = std::vec::IntoIter<PdRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Timestamp;
    use crate::schema::listing1_user_schema;

    fn record(id: u64, subject: u64) -> PdRecord {
        let schema = listing1_user_schema();
        let row = Row::new()
            .with("name", "Chiraz")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64);
        let membrane = Membrane::from_schema(&schema, SubjectId::new(subject), Timestamp::ZERO);
        PdRecord::new(
            PdId::new(id),
            DataTypeId::from("user"),
            WrappedPd::new(row, membrane),
        )
    }

    #[test]
    fn record_accessors() {
        let r = record(3, 9);
        assert_eq!(r.id(), PdId::new(3));
        assert_eq!(r.data_type().as_str(), "user");
        assert_eq!(r.subject(), SubjectId::new(9));
        assert_eq!(r.row().len(), 3);
        assert_eq!(
            r.to_ref(),
            PdRef::new(DataTypeId::from("user"), PdId::new(3))
        );
        assert!(r.to_string().contains("user"));
    }

    #[test]
    fn wrapped_pd_mutation_and_erasure() {
        let mut r = record(1, 1);
        r.wrapped_mut().row_mut().insert("name", "Updated");
        assert_eq!(r.row().get("name").unwrap().as_text(), Some("Updated"));
        let (row, membrane) = r.wrapped().clone().into_parts();
        assert_eq!(row.len(), 3);
        assert!(!membrane.is_erased());

        r.wrapped_mut().erase_with(vec![0xde, 0xad]);
        assert!(r.membrane().is_erased());
        assert!(r.row().get("name").is_none());
        assert_eq!(
            r.row().get("__erased_ciphertext").unwrap().as_bytes(),
            Some(&[0xde, 0xad][..])
        );
    }

    #[test]
    fn split_layout_round_trips_and_header_decodes_alone() {
        let r = record(5, 2);
        let bytes = stored::encode(r.membrane(), r.row()).unwrap();
        // The full record round-trips.
        let (membrane, row) = stored::decode(&bytes).unwrap();
        assert_eq!(&membrane, r.membrane());
        assert_eq!(&row, r.row());
        // The membrane header decodes without the row payload ever being
        // parsed (or even present).
        let header_len = stored::membrane_section_len(&bytes).unwrap();
        let header_only = &bytes[stored::PREFIX_LEN..stored::PREFIX_LEN + header_len];
        let membrane = stored::decode_membrane(header_only).unwrap();
        assert_eq!(&membrane, r.membrane());
        // Truncated input is reported as corrupt, not a panic.
        assert!(stored::membrane_section_len(&bytes[..2]).is_err());
        assert!(stored::decode(&bytes[..stored::PREFIX_LEN + header_len - 1]).is_err());
        assert!(stored::decode_membrane(b"not json").is_err());
        // A membrane swap keeps the payload bytes byte-identical.
        let mut erased = r.membrane().clone();
        erased.mark_erased();
        let swapped = stored::replace_membrane(&bytes, &erased).unwrap();
        assert!(stored::membrane_of(&swapped).unwrap().is_erased());
        let (_, row) = stored::decode(&swapped).unwrap();
        assert_eq!(&row, r.row());
        assert!(stored::replace_membrane(&bytes[..2], &erased).is_err());
    }

    #[test]
    fn batch_operations() {
        let mut batch: RecordBatch = (0..5).map(|i| record(i, i)).collect();
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        assert!(batch.find(PdId::new(4)).is_ok());
        assert!(batch.find(PdId::new(99)).is_err());
        batch.retain(|r| r.id().raw() % 2 == 0);
        assert_eq!(batch.len(), 3);
        batch.push(record(10, 10));
        batch.extend(vec![record(11, 11)]);
        assert_eq!(batch.iter().count(), 5);
        let ids: Vec<u64> = batch.into_iter().map(|r| r.id().raw()).collect();
        assert_eq!(ids, vec![0, 2, 4, 10, 11]);
        assert!(RecordBatch::new().is_empty());
    }
}
