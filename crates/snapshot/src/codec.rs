//! The binary state codec: a little-endian, length-prefixed encoding
//! with no self-description. Both sides must agree on the schema, which
//! is what the envelope's state version pins.
//!
//! Determinism rules, so that equal state always encodes to equal
//! bytes:
//!
//! - integers are fixed-width little-endian (no varints);
//! - `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]), so
//!   `-0.0`, subnormals, and NaN payloads round-trip exactly;
//! - unordered containers ([`HashMap`]) are encoded in ascending key
//!   order.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Errors surfaced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The envelope framing version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The snapshot's state schema is not the one this build reads. State
    /// is not migrated: the snapshot has to be re-created.
    StateVersionMismatch {
        /// Schema version stamped on the snapshot.
        found: u32,
        /// Schema version of this build.
        expected: u32,
    },
    /// The embedded content hash does not match the decoded bytes.
    HashMismatch {
        /// Hash stored in the envelope.
        expected: u64,
        /// Hash of the bytes actually read.
        found: u64,
    },
    /// A value failed a semantic check (bad discriminant, bad length…).
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, had {have}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot envelope version {v}")
            }
            SnapError::StateVersionMismatch { found, expected } => write!(
                f,
                "snapshot has state schema version {found}, this build reads version {expected}: \
                 re-create it with `campaign snapshot save`"
            ),
            SnapError::HashMismatch { expected, found } => write!(
                f,
                "snapshot content hash mismatch: stored {expected:016x}, computed {found:016x}"
            ),
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Accumulates the encoded byte stream.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over an encoded byte stream.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes a collection's element count. No element encodes to zero
    /// bytes, so a count beyond the bytes left is corrupt — refused here,
    /// before anything is allocated for it.
    pub fn take_count(&mut self) -> Result<usize, SnapError> {
        let n = usize::get(self)?;
        if n > self.remaining() {
            return Err(SnapError::Malformed("collection length exceeds input"));
        }
        Ok(n)
    }

    /// Asserts that the whole input was consumed (trailing garbage is a
    /// corruption signal, not padding).
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Malformed("trailing bytes after value"))
        }
    }
}

/// A value type that encodes to/decodes from the snapshot byte stream.
///
/// The contract is `decode ∘ encode = id` and byte-determinism: equal
/// values produce equal bytes.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn put(&self, w: &mut Writer);
    /// Decodes one value from `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

/// A stateful component that can save its *mutable* state and later
/// load it back in place.
///
/// Unlike [`Snap`], implementations do not reconstruct themselves from
/// bytes: the host rebuilds the full object graph deterministically
/// from configuration (`World::new`) and `load_state` then overwrites
/// only the fields that evolve during a run. Static structure
/// (topology, configs, derived constants) is never serialized.
pub trait SnapState {
    /// Appends the mutable state to `w`.
    fn save_state(&self, w: &mut Writer);
    /// Overwrites the mutable state from `r`.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn put(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                let n = std::mem::size_of::<$t>();
                let bytes = r.take(n)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

snap_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Snap for usize {
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("usize overflow"))
    }
}

impl Snap for bool {
    fn put(&self, w: &mut Writer) {
        w.put_bytes(&[u8::from(*self)]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool out of range")),
        }
    }
}

impl Snap for f64 {
    fn put(&self, w: &mut Writer) {
        self.to_bits().put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Snap for String {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::get(r)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("invalid utf-8"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => false.put(w),
            Some(v) => {
                true.put(w);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::get(r)?.into())
    }
}

impl<K: Snap + Ord + Eq + Hash, V: Snap> Snap for HashMap<K, V> {
    fn put(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.len().put(w);
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_count()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::get(r)?;
            let v = V::get(r)?;
            if out.insert(k, v).is_some() {
                return Err(SnapError::Malformed("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_count()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::get(r)?;
            let v = V::get(r)?;
            if out.insert(k, v).is_some() {
                return Err(SnapError::Malformed("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut Writer) {
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(r)?;
        }
        Ok(out)
    }
}
