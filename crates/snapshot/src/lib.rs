//! # tsn-snapshot
//!
//! Deterministic world checkpoint/restore for the `clocksync` testbed.
//!
//! The simulation core is single-threaded and fully deterministic, so
//! its complete state at any instant — event queue, RNG streams, clock
//! anchors and servo integrators, in-flight frames, protocol state
//! machines, shared-memory pages — can be captured as a byte string and
//! later restored bit-exactly. This crate provides the substrate:
//!
//! - a binary state codec ([`Writer`]/[`Reader`]) with strict
//!   determinism rules (see [`codec`]);
//! - the [`Snap`] trait for value types and the [`SnapState`] trait for
//!   stateful components, implemented across the `tsn-*` crates —
//!   almost always through the one-list-per-type [`forms`];
//! - the versioned [`WorldSnapshot`] envelope with a FNV-1a content
//!   hash over the encoded state.
//!
//! Restore is *reconstruct-then-overwrite*: the host rebuilds the full
//! object graph from configuration (`World::new`) and `load_state`
//! overwrites only the mutable fields. A snapshot therefore never
//! contains configuration — it carries a fingerprint of the producing
//! configuration so a restore into the wrong one is rejected early.
//!
//! On top of this substrate `tsn-campaign` implements fork-based
//! campaign execution (simulate a shared warm prefix once, fork each
//! run's divergent continuation) and `campaign snapshot` implements
//! save/restore/verify/info of any campaign run, including divergence
//! detection via per-epoch state hashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod forms;

pub use codec::{Reader, Snap, SnapError, SnapState, Writer};

use rand::rngs::StdRng;

/// File magic of the snapshot envelope (`TSNSNAP` + format generation).
pub const MAGIC: [u8; 8] = *b"TSNSNAP1";

/// Version of the envelope framing itself (not of the state schema,
/// which is [`WorldSnapshot::state_version`]).
pub const ENVELOPE_VERSION: u32 = 1;

/// 64-bit FNV-1a over a byte string — the snapshot content hash.
///
/// Stable, dependency-free, and byte-order independent; collisions are
/// irrelevant here because the hash guards against corruption and
/// nondeterminism, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fingerprint of a configuration's canonical textual rendering, used
/// to bind a snapshot to the configuration that produced it.
pub fn fingerprint_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

/// A checkpoint of the complete simulation state.
///
/// The payload is opaque to this crate: it is whatever the world's
/// `SnapState` tree encoded, pinned by `state_version`. The envelope
/// carries enough metadata to route and sanity-check a restore without
/// decoding the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSnapshot {
    /// Version of the encoded state schema (bumped whenever any
    /// `SnapState` implementation changes its layout).
    pub state_version: u32,
    /// Fingerprint of the configuration that produced the snapshot
    /// (the full configuration for plain checkpoints, the warm-prefix
    /// projection for fork-based campaign execution).
    pub config_fingerprint: u64,
    /// Simulation time of the checkpoint, in nanoseconds.
    pub at_ns: u64,
    /// Events processed before the checkpoint — what a forked
    /// continuation does *not* re-simulate.
    pub events_processed: u64,
    /// The encoded state.
    pub payload: Vec<u8>,
}

impl WorldSnapshot {
    /// The content hash over the encoded state. Two worlds with equal
    /// state hashes at equal times are byte-identical; the `snapshot
    /// verify` divergence check is built on this.
    pub fn state_hash(&self) -> u64 {
        fnv1a64(&self.payload)
    }

    /// Serializes the envelope: magic, body, FNV-1a hash of the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        ENVELOPE_VERSION.put(&mut body);
        self.state_version.put(&mut body);
        self.config_fingerprint.put(&mut body);
        self.at_ns.put(&mut body);
        self.events_processed.put(&mut body);
        self.payload.put(&mut body);
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        out
    }

    /// Deserializes an envelope, verifying magic, framing version, and
    /// content hash.
    pub fn decode(bytes: &[u8]) -> Result<WorldSnapshot, SnapError> {
        if bytes.len() < MAGIC.len() + 8 || bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let (body, tail) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let found = fnv1a64(body);
        if expected != found {
            return Err(SnapError::HashMismatch { expected, found });
        }
        let mut r = Reader::new(body);
        let envelope_version = u32::get(&mut r)?;
        if envelope_version != ENVELOPE_VERSION {
            return Err(SnapError::UnsupportedVersion(envelope_version));
        }
        let snap = WorldSnapshot {
            state_version: u32::get(&mut r)?,
            config_fingerprint: u64::get(&mut r)?,
            at_ns: u64::get(&mut r)?,
            events_processed: u64::get(&mut r)?,
            payload: Vec::<u8>::get(&mut r)?,
        };
        r.finish()?;
        Ok(snap)
    }
}

// `Snap` for the workspace RNG lives here (not in `vendor/rand`) so the
// vendored crate stays a pure reimplementation of the upstream API plus
// minimal state accessors. Hand-written: the all-zero state (a fixed
// point of the generator) is refused.
impl Snap for StdRng {
    fn put(&self, w: &mut Writer) {
        self.state().put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let s = <[u64; 4]>::get(r)?;
        if s == [0; 4] {
            return Err(SnapError::Malformed("all-zero rng state"));
        }
        Ok(StdRng::from_state(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::get(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&(-1i64));
        roundtrip(&i128::MIN);
        roundtrip(&true);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&(-0.0f64));
        roundtrip(&String::from("snapshot"));
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn hash_map_encoding_is_key_sorted() {
        let mut a = std::collections::HashMap::new();
        let mut b = std::collections::HashMap::new();
        for k in 0..64u64 {
            a.insert(k, k * 3);
        }
        for k in (0..64u64).rev() {
            b.insert(k, k * 3);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.put(&mut wa);
        b.put(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        roundtrip(&a);
    }

    #[test]
    fn rng_stream_resumes_exactly() {
        let mut rng = StdRng::seed_from_u64(42);
        let _burn: u64 = rng.gen();
        let mut w = Writer::new();
        rng.put(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StdRng::get(&mut Reader::new(&bytes)).unwrap();
        for _ in 0..16 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].put(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Vec::<u64>::get(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn envelope_rejects_corruption() {
        let snap = WorldSnapshot {
            state_version: 3,
            config_fingerprint: 0xABCD,
            at_ns: 30_000_000_000,
            events_processed: 12345,
            payload: vec![1, 2, 3, 4, 5],
        };
        let mut bytes = snap.encode();
        assert_eq!(WorldSnapshot::decode(&bytes).unwrap(), snap);
        // Flip one payload byte: the content hash must catch it.
        bytes[MAGIC.len() + 24] ^= 0x40;
        assert!(matches!(
            WorldSnapshot::decode(&bytes),
            Err(SnapError::HashMismatch { .. })
        ));
        // Break the magic.
        let mut bad = snap.encode();
        bad[0] = b'X';
        assert_eq!(WorldSnapshot::decode(&bad), Err(SnapError::BadMagic));
    }

    proptest! {
        #[test]
        fn snap_u64_roundtrip(v in any::<u64>()) {
            roundtrip(&v);
        }

        #[test]
        fn snap_f64_bits_roundtrip(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            let mut w = Writer::new();
            v.put(&mut w);
            let back = f64::get(&mut Reader::new(&w.into_bytes())).unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }

        #[test]
        fn snap_vec_roundtrip(v in proptest::collection::vec(any::<i64>(), 0..64)) {
            roundtrip(&v);
        }

        #[test]
        fn envelope_roundtrip_and_hash_stable(
            state_version in any::<u32>(),
            fingerprint in any::<u64>(),
            at in any::<u64>(),
            processed in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let snap = WorldSnapshot {
                state_version,
                config_fingerprint: fingerprint,
                at_ns: at,
                events_processed: processed,
                payload,
            };
            let bytes = snap.encode();
            let back = WorldSnapshot::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &snap);
            // encode ∘ decode is the identity on bytes, and the content
            // hash is stable across the round trip.
            prop_assert_eq!(back.encode(), bytes);
            prop_assert_eq!(back.state_hash(), snap.state_hash());
        }
    }
}
