//! The authority-escrow protocol implementing the right to be forgotten (§4).
//!
//! Roles:
//!
//! * the [`Authority`] (e.g. a data-protection agency) generates the key pair
//!   and keeps the private key;
//! * the data operator's rgpdOS instance holds an [`OperatorEscrow`]
//!   initialised with the public key only;
//! * "deleting" personal data means calling [`OperatorEscrow::erase`], which
//!   produces an [`EscrowedCiphertext`] that replaces the plaintext in DBFS;
//! * only the authority can call [`Authority::recover`] on that ciphertext.

use crate::cipher::StreamCipher;
use crate::elgamal::{decapsulate, encapsulate, ElGamalCiphertextHeader, KeyPair, PublicKey};
use crate::error::CryptoError;
use crate::rng::DeterministicRng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A ciphertext produced by crypto-erasure.
///
/// It contains the asymmetric header (for the authority) and the symmetric
/// ciphertext of the erased payload.  It deliberately exposes nothing that
/// would let the *operator* recover the plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscrowedCiphertext {
    header: ElGamalCiphertextHeader,
    nonce: u64,
    payload: Arc<[u8]>,
}

impl EscrowedCiphertext {
    /// The asymmetric header.
    pub fn header(&self) -> &ElGamalCiphertextHeader {
        &self.header
    }

    /// The symmetric ciphertext bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The nonce used by the stream cipher.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Always returns `None`: the operator has no way to recover the
    /// plaintext from the ciphertext alone.  The method exists to make that
    /// property explicit (and testable) at the API level.
    pub fn recover_plaintext_hint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Serialises the ciphertext for storage inside a DBFS tombstone.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.payload.len());
        out.extend_from_slice(&self.header.ephemeral().to_le_bytes());
        out.extend_from_slice(&self.header.masked_secret().to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes a ciphertext previously produced by [`EscrowedCiphertext::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedCiphertext`] when the buffer is too
    /// short or the header is invalid.
    pub fn decode(buf: &[u8]) -> Result<Self, CryptoError> {
        if buf.len() < 24 {
            return Err(CryptoError::MalformedCiphertext {
                reason: format!("{} bytes is shorter than the 24-byte header", buf.len()),
            });
        }
        let ephemeral = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let masked = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let nonce = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let header = ElGamalCiphertextHeader::from_parts(ephemeral, masked).map_err(|e| {
            CryptoError::MalformedCiphertext {
                reason: e.to_string(),
            }
        })?;
        Ok(Self {
            header,
            nonce,
            payload: buf[24..].into(),
        })
    }
}

impl fmt::Display for EscrowedCiphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "escrowed ciphertext ({} bytes)", self.payload.len())
    }
}

/// The data-protection authority: generates keys, recovers erased data.
#[derive(Debug)]
pub struct Authority {
    keys: KeyPair,
}

impl Authority {
    /// Deterministically generates an authority from a seed.
    pub fn generate(seed: u64) -> Self {
        Self {
            keys: KeyPair::generate(seed),
        }
    }

    /// The public key to hand to data operators.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public_key()
    }

    /// Recovers the plaintext of an erased record.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::WrongKey`] if the ciphertext was produced for a
    /// different authority.
    pub fn recover(&self, ciphertext: &EscrowedCiphertext) -> Result<Vec<u8>, CryptoError> {
        let shared = decapsulate(self.keys.private_key(), ciphertext.header())?;
        let cipher = StreamCipher::new(shared, ciphertext.nonce());
        Ok(cipher.apply(ciphertext.payload()))
    }
}

/// The operator-side erasure engine, holding only the authority's public key.
#[derive(Debug)]
pub struct OperatorEscrow {
    public: PublicKey,
    /// Counter mixed into the per-erasure entropy so repeated erasures of the
    /// same payload produce distinct ciphertexts.
    counter: AtomicU64,
    /// Seed for entropy derivation (deterministic for reproducibility).
    seed: u64,
}

impl OperatorEscrow {
    /// Creates an escrow engine for the given authority public key.
    pub fn new(public: PublicKey) -> Self {
        Self::with_seed(public, 0xE5C2_0FAA)
    }

    /// Creates an escrow engine with an explicit entropy seed.
    pub fn with_seed(public: PublicKey, seed: u64) -> Self {
        Self {
            public,
            counter: AtomicU64::new(0),
            seed,
        }
    }

    /// The authority public key this engine encrypts to.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Crypto-erases a payload: encrypts it so only the authority can read it.
    pub fn erase(&self, plaintext: &[u8]) -> EscrowedCiphertext {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        let mut rng = DeterministicRng::new(self.seed ^ n.rotate_left(21));
        let entropy = rng.next_u64();
        let nonce = rng.next_u64();
        let (header, shared) = encapsulate(self.public, entropy);
        let cipher = StreamCipher::new(shared, nonce);
        EscrowedCiphertext {
            header,
            nonce,
            payload: cipher.apply(plaintext).into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erase_then_authority_recovers() {
        let authority = Authority::generate(1);
        let operator = OperatorEscrow::new(authority.public_key());
        let plaintext = b"medical image bytes ...";
        let ct = operator.erase(plaintext);
        assert_ne!(ct.payload(), plaintext);
        assert_eq!(authority.recover(&ct).unwrap(), plaintext.to_vec());
    }

    #[test]
    fn operator_cannot_recover() {
        let authority = Authority::generate(1);
        let operator = OperatorEscrow::new(authority.public_key());
        let ct = operator.erase(b"secret");
        assert!(ct.recover_plaintext_hint().is_none());
    }

    #[test]
    fn wrong_authority_cannot_recover() {
        let authority = Authority::generate(1);
        let impostor = Authority::generate(2);
        let operator = OperatorEscrow::new(authority.public_key());
        let ct = operator.erase(b"secret");
        assert_eq!(impostor.recover(&ct), Err(CryptoError::WrongKey));
    }

    #[test]
    fn repeated_erasures_produce_distinct_ciphertexts() {
        let authority = Authority::generate(3);
        let operator = OperatorEscrow::new(authority.public_key());
        let a = operator.erase(b"same plaintext");
        let b = operator.erase(b"same plaintext");
        assert_ne!(a, b);
        assert_eq!(authority.recover(&a).unwrap(), b"same plaintext".to_vec());
        assert_eq!(authority.recover(&b).unwrap(), b"same plaintext".to_vec());
    }

    #[test]
    fn encode_decode_round_trip() {
        let authority = Authority::generate(5);
        let operator = OperatorEscrow::new(authority.public_key());
        let ct = operator.erase(b"round trip me");
        let decoded = EscrowedCiphertext::decode(&ct.encode()).unwrap();
        assert_eq!(decoded, ct);
        assert_eq!(
            authority.recover(&decoded).unwrap(),
            b"round trip me".to_vec()
        );
    }

    #[test]
    fn decode_rejects_malformed_buffers() {
        assert!(EscrowedCiphertext::decode(&[]).is_err());
        assert!(EscrowedCiphertext::decode(&[0u8; 23]).is_err());
        // A zero ephemeral element is not a valid group element.
        let mut bad = vec![0u8; 30];
        bad[16] = 1;
        assert!(EscrowedCiphertext::decode(&bad).is_err());
    }

    #[test]
    fn empty_payload_round_trips() {
        let authority = Authority::generate(8);
        let operator = OperatorEscrow::new(authority.public_key());
        let ct = operator.erase(b"");
        assert_eq!(authority.recover(&ct).unwrap(), Vec::<u8>::new());
        assert!(ct.to_string().contains("0 bytes"));
    }
}
