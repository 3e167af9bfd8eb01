//! Declarative codec forms: one ordered field list per type, both
//! directions derived from it.
//!
//! A hand-written codec names every field twice — once to save, once to
//! load — and the two lists can drift apart. These `macro_rules!` forms
//! take the list once and expand to the same `put`/`get`/`save_state`/
//! `load_state` calls a hand-written impl would make, in list order:
//!
//! - [`snap_struct!`](crate::snap_struct) — [`Snap`](crate::Snap) for a
//!   struct value (named fields, or `{ 0 }` for a newtype);
//! - [`snap_enum!`](crate::snap_enum) — [`Snap`](crate::Snap) for an enum
//!   as a `u8` discriminant followed by the variant's fields;
//! - [`snap_state!`](crate::snap_state) — [`SnapState`](crate::SnapState)
//!   for a component's mutable fields, overwritten in place.
//!
//! The list order **is** the byte layout: reordering, adding or removing
//! a name changes the stream and needs a state-version bump.

/// Implements [`Snap`](crate::Snap) for a struct: every listed field is
/// encoded in list order and the value is rebuilt from exactly those
/// fields, so the list must name all of them. A tuple struct lists its
/// indices (`snap_struct!(VmId { 0 })`).
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn put(&self, w: &mut $crate::Writer) {
                $( $crate::Snap::put(&self.$field, w); )+
            }
            fn get(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snap::get(r)? ),+ })
            }
        }
    };
}

/// Implements [`Snap`](crate::Snap) for an enum: a `u8` discriminant,
/// then the variant's fields in list order. Variants are unit
/// (`6 => WanderTick`), struct (`0 => Transmit { from, frame }`) or tuple
/// (`8 => FaultAt(i)`, the names only label the positions). An unlisted
/// discriminant decodes to [`SnapError::Malformed`](crate::SnapError).
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty {
        $( $tag:literal => $variant:ident
            $({ $($named:ident),+ $(,)? })?
            $(( $($pos:ident),+ $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn put(&self, w: &mut $crate::Writer) {
                match self {
                    $( Self::$variant $({ $($named),+ })? $(( $($pos),+ ))? => {
                        let tag: u8 = $tag;
                        $crate::Snap::put(&tag, w);
                        $($( $crate::Snap::put($named, w); )+)?
                        $($( $crate::Snap::put($pos, w); )+)?
                    } )+
                }
            }
            fn get(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(match <u8 as $crate::Snap>::get(r)? {
                    $( $tag => Self::$variant
                        $({ $($named: $crate::Snap::get(r)?),+ })?
                        $(( $({
                            let $pos = $crate::Snap::get(r)?;
                            $pos
                        }),+ ))?, )+
                    _ => {
                        return Err($crate::SnapError::Malformed(concat!(
                            stringify!($ty),
                            " discriminant"
                        )))
                    }
                })
            }
        }
    };
}

/// Implements [`SnapState`](crate::SnapState) from one ordered list of
/// the component's mutable fields (static configuration is simply not
/// listed). Each entry is a field path, optionally tagged with how it
/// travels:
///
/// - `field` — a [`Snap`](crate::Snap) value, replaced on load;
/// - `field: state` — a nested [`SnapState`](crate::SnapState), loaded
///   in place;
/// - `field: each` — a `Vec` or `Option` of nested states whose shape
///   comes from configuration: every element present is saved and
///   loaded in place, no length or presence byte is written.
///
/// Generic parameters go in a leading `impl[..]`:
/// `snap_state!(impl[R: Snap] Sampler<R> { rng, draws })`.
#[macro_export]
macro_rules! snap_state {
    (impl[$($generics:tt)*] $ty:ty {
        $( $($field:ident).+ $(: $kind:ident)? ),+ $(,)?
    }) => {
        impl<$($generics)*> $crate::SnapState for $ty {
            fn save_state(&self, w: &mut $crate::Writer) {
                $( $crate::__snap_field!(save w, self.$($field).+ $(, $kind)?); )+
            }
            fn load_state(
                &mut self,
                r: &mut $crate::Reader<'_>,
            ) -> Result<(), $crate::SnapError> {
                $( $crate::__snap_field!(load r, self.$($field).+ $(, $kind)?); )+
                Ok(())
            }
        }
    };
    ($ty:ty { $($list:tt)+ }) => {
        $crate::snap_state!(impl[] $ty { $($list)+ });
    };
}

/// One entry of a [`snap_state!`](crate::snap_state) list, one direction.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    (save $w:ident, $f:expr) => {
        $crate::Snap::put(&$f, $w)
    };
    (load $r:ident, $f:expr) => {
        $f = $crate::Snap::get($r)?
    };
    (save $w:ident, $f:expr, state) => {
        $crate::SnapState::save_state(&$f, $w)
    };
    (load $r:ident, $f:expr, state) => {
        $crate::SnapState::load_state(&mut $f, $r)?
    };
    (save $w:ident, $f:expr, each) => {
        for s in $f.iter() {
            $crate::SnapState::save_state(s, $w);
        }
    };
    (load $r:ident, $f:expr, each) => {
        for s in $f.iter_mut() {
            $crate::SnapState::load_state(s, $r)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Reader, Snap, SnapError, SnapState, Writer};

    fn bytes_of(v: &impl Snap) -> Vec<u8> {
        let mut w = Writer::new();
        v.put(&mut w);
        w.into_bytes()
    }

    fn state_of(v: &impl SnapState) -> Vec<u8> {
        let mut w = Writer::new();
        v.save_state(&mut w);
        w.into_bytes()
    }

    fn decode<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
        let mut r = Reader::new(bytes);
        let v = T::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        at: u64,
        value: i32,
        label: Option<u16>,
    }
    snap_struct!(Sample { at, value, label });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u32);
    snap_struct!(Id { 0 });

    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Tick,
        Send { to: Id, seq: u16 },
        Fault(u64, bool),
    }
    snap_enum!(Event {
        0 => Tick,
        1 => Send { to, seq },
        // Discriminants need not be dense.
        7 => Fault(index, hard),
    });

    #[derive(Debug, Clone, PartialEq)]
    struct Leaf {
        window: u64, // configuration: not in the list
        count: u64,
        last: Option<Sample>,
    }
    snap_state!(Leaf { count, last });

    #[derive(Debug, Clone, PartialEq)]
    struct Tree<T> {
        seed: T,
        inner: Inner,
        primary: Leaf,
        leaves: Vec<Leaf>,
        spare: Option<Leaf>,
    }
    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        depth: u8,
    }
    snap_state!(impl[T: Snap] Tree<T> {
        seed,
        inner.depth,
        primary: state,
        leaves: each,
        spare: each,
    });

    fn leaf(count: u64) -> Leaf {
        Leaf {
            window: 9,
            count,
            last: Some(Sample {
                at: count,
                value: -3,
                label: None,
            }),
        }
    }

    fn tree(seed: u64, spare: bool) -> Tree<u64> {
        Tree {
            seed,
            inner: Inner { depth: 4 },
            primary: leaf(seed + 1),
            leaves: vec![leaf(seed + 2), leaf(seed + 3)],
            spare: spare.then(|| leaf(seed + 4)),
        }
    }

    #[test]
    fn struct_form_matches_hand_written_bytes() {
        let s = Sample {
            at: 0x0102_0304_0506_0708,
            value: -2,
            label: Some(0xBEEF),
        };
        let mut w = Writer::new();
        s.at.put(&mut w);
        s.value.put(&mut w);
        s.label.put(&mut w);
        assert_eq!(bytes_of(&s), w.into_bytes());
        assert_eq!(decode::<Sample>(&bytes_of(&s)), Ok(s));
        // A newtype is its field, nothing more.
        assert_eq!(bytes_of(&Id(77)), bytes_of(&77u32));
        assert_eq!(decode::<Id>(&bytes_of(&Id(77))), Ok(Id(77)));
    }

    #[test]
    fn enum_form_matches_hand_written_bytes() {
        let send = Event::Send {
            to: Id(5),
            seq: 0x1234,
        };
        assert_eq!(bytes_of(&Event::Tick), vec![0]);
        assert_eq!(bytes_of(&send), bytes_of(&(1u8, 5u32, 0x1234u16)));
        let fault = Event::Fault(9, true);
        assert_eq!(bytes_of(&fault), bytes_of(&(7u8, 9u64, true)));
        for e in [Event::Tick, send, fault] {
            assert_eq!(decode::<Event>(&bytes_of(&e)), Ok(e));
        }
    }

    #[test]
    fn enum_form_rejects_unknown_discriminant() {
        for tag in [2u8, 6, 8, 255] {
            assert_eq!(
                decode::<Event>(&[tag, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                Err(SnapError::Malformed("Event discriminant"))
            );
        }
    }

    #[test]
    fn state_form_matches_hand_written_bytes() {
        let t = tree(40, true);
        let mut w = Writer::new();
        t.seed.put(&mut w);
        t.inner.depth.put(&mut w);
        for l in std::iter::once(&t.primary).chain(&t.leaves).chain(&t.spare) {
            l.count.put(&mut w);
            l.last.put(&mut w);
        }
        assert_eq!(state_of(&t), w.into_bytes());
    }

    #[test]
    fn state_form_overwrites_listed_fields_only() {
        let saved = tree(40, true);
        let mut target = tree(1, true);
        target.primary.window = 123;
        target
            .load_state(&mut Reader::new(&state_of(&saved)))
            .expect("load");
        assert_eq!(target.primary.window, 123, "unlisted field untouched");
        target.primary.window = saved.primary.window;
        assert_eq!(target, saved);
        // `each` takes its shape from the target, not from the stream.
        let bare = tree(40, false);
        assert_eq!(
            state_of(&bare).len() + state_of(&leaf(0)).len(),
            state_of(&saved).len()
        );
    }

    #[test]
    fn truncated_input_is_eof_for_every_form() {
        let eof = |e| matches!(e, SnapError::UnexpectedEof { .. });
        let s = bytes_of(&Sample {
            at: 1,
            value: 2,
            label: Some(3),
        });
        let e = bytes_of(&Event::Fault(1, false));
        let t = state_of(&tree(7, true));
        for cut in 0..s.len() {
            assert!(decode::<Sample>(&s[..cut]).is_err_and(eof), "struct {cut}");
        }
        for cut in 0..e.len() {
            assert!(decode::<Event>(&e[..cut]).is_err_and(eof), "enum {cut}");
        }
        for cut in 0..t.len() {
            let err = tree(0, true).load_state(&mut Reader::new(&t[..cut]));
            assert!(err.is_err_and(eof), "state {cut}");
        }
    }
}
