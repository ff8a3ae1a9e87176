//! Offline shim of `serde`: serde's architecture — types read from and
//! write to a token stream — cut down to what this workspace needs.
//!
//! * [`Serialize::serialize`] writes a type's tokens into a
//!   [`Serializer`] sink; [`Deserialize::deserialize`] reads them from a
//!   [`Deserializer`] source.  The derives produced by the sibling
//!   `serde_derive` shim emit exactly these two methods.
//! * `serde_json`'s text writer and parser are one sink and one source:
//!   a typed value goes text ⇄ type directly, allocating only what the
//!   target owns.  The parser caps nesting at `serde_json::MAX_DEPTH`
//!   open containers, so a recursive `deserialize` never recurses
//!   deeper than that on any input: a deeper document is an [`Error`].
//! * The self-describing [`Value`] tree (the data model JSON uses) is
//!   another sink and source, kept for callers that speak trees:
//!   schema-free MAC state inside a snapshot, hand-assembled CLI
//!   envelopes, tests that doctor a document.  [`Serialize::to_value`]
//!   and [`Deserialize::from_value`] are provided adapters through a
//!   tree-building sink and a tree-walking source; a type that
//!   implements only those two gets the streaming methods by default,
//!   through a tree.  Implement at least one method of each pair — the
//!   two defaults call each other.
//!
//! The derives follow serde's default encodings:
//!
//! * struct → map of fields (read in any order; unknown keys are
//!   skipped, the first of duplicate keys wins);
//! * newtype struct → the inner value;
//! * unit enum variant → the variant name as a string;
//! * data-carrying enum variant → externally tagged
//!   (`{"Variant": ...}`).
//!
//! Only the attribute subset the workspace uses is honoured
//! (`#[serde(skip)]`, `#[serde(default)]`).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

pub use de::Deserializer;
pub use ser::Serializer;

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// The self-describing data model: what [`Serialize::to_value`] builds
/// and [`Deserialize::from_value`] reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Seq(Vec<Value>),
    /// Ordered map (field order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a map value (the first entry with that key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// (De)serialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// Creates an error from any message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that writes itself as a token stream.
pub trait Serialize {
    /// Writes `self` into `s`.  The default goes through
    /// [`Serialize::to_value`].
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.to_value().serialize(s);
    }

    /// Converts `self` into a [`Value`] tree.  The default streams
    /// [`Serialize::serialize`] into a tree-building sink.
    fn to_value(&self) -> Value {
        let mut sink = ser::ValueSink::default();
        self.serialize(&mut sink);
        sink.finish()
    }
}

/// A type that reads itself from a token stream.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` from `d`.  The default captures the
    /// value as a [`Value`] tree and goes through
    /// [`Deserialize::from_value`].
    ///
    /// # Errors
    ///
    /// Malformed input or a shape mismatch with `Self`.
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Self::from_value(&Value::deserialize(d)?)
    }

    /// Rebuilds `Self` from a [`Value`] tree.  The default walks the
    /// tree as a source for [`Deserialize::deserialize`].
    ///
    /// # Errors
    ///
    /// A shape mismatch with `Self`.
    fn from_value(v: &Value) -> Result<Self, Error> {
        Self::deserialize(&mut de::ValueSource::new(v))
    }
}

/// The sink side: what a [`Serialize`] impl writes into.
pub mod ser {
    use super::{Serialize, Value};

    /// A token sink.  A value is one scalar call, or a container: a
    /// `begin_*`, then per element [`Serializer::element`] (sequences)
    /// or [`Serializer::key`] (maps) followed by the element's value,
    /// then the matching `end_*`.
    pub trait Serializer {
        /// Null / unit.
        fn null(&mut self);
        /// A boolean.
        fn bool(&mut self, v: bool);
        /// A signed integer.
        fn int(&mut self, v: i64);
        /// An unsigned integer.
        fn uint(&mut self, v: u64);
        /// A float.
        fn float(&mut self, v: f64);
        /// A string.
        fn str(&mut self, v: &str);
        /// Opens a sequence.
        fn begin_seq(&mut self);
        /// Announces the next element of the open sequence.
        fn element(&mut self);
        /// Closes the open sequence.
        fn end_seq(&mut self);
        /// Opens a map.
        fn begin_map(&mut self);
        /// The key of the next entry of the open map.
        fn key(&mut self, k: &str);
        /// Closes the open map.
        fn end_map(&mut self);

        /// One map entry: `key` then `v`.
        fn field<T: Serialize + ?Sized>(&mut self, key: &str, v: &T)
        where
            Self: Sized,
        {
            self.key(key);
            v.serialize(self);
        }

        /// One sequence element.
        fn item<T: Serialize + ?Sized>(&mut self, v: &T)
        where
            Self: Sized,
        {
            self.element();
            v.serialize(self);
        }
    }

    /// A container under construction, with the key its next value
    /// goes under when it is a map.
    #[derive(Debug)]
    enum Open {
        Seq(Vec<Value>),
        Map(Vec<(String, Value)>, String),
    }

    /// The tree-building sink behind [`Serialize::to_value`].
    #[derive(Debug, Default)]
    pub(crate) struct ValueSink {
        open: Vec<Open>,
        done: Option<Value>,
    }

    impl ValueSink {
        fn put(&mut self, v: Value) {
            match self.open.last_mut() {
                Some(Open::Seq(items)) => items.push(v),
                Some(Open::Map(entries, key)) => entries.push((std::mem::take(key), v)),
                None => self.done = Some(v),
            }
        }

        /// The finished tree (`Null` when nothing was written).
        pub(crate) fn finish(self) -> Value {
            debug_assert!(self.open.is_empty(), "an unclosed container");
            self.done.unwrap_or(Value::Null)
        }
    }

    impl Serializer for ValueSink {
        fn null(&mut self) {
            self.put(Value::Null);
        }
        fn bool(&mut self, v: bool) {
            self.put(Value::Bool(v));
        }
        fn int(&mut self, v: i64) {
            self.put(Value::Int(v));
        }
        fn uint(&mut self, v: u64) {
            self.put(Value::UInt(v));
        }
        fn float(&mut self, v: f64) {
            self.put(Value::Float(v));
        }
        fn str(&mut self, v: &str) {
            self.put(Value::Str(v.to_string()));
        }
        fn begin_seq(&mut self) {
            self.open.push(Open::Seq(Vec::new()));
        }
        fn element(&mut self) {}
        fn end_seq(&mut self) {
            if let Some(Open::Seq(items)) = self.open.pop() {
                self.put(Value::Seq(items));
            }
        }
        fn begin_map(&mut self) {
            self.open.push(Open::Map(Vec::new(), String::new()));
        }
        fn key(&mut self, k: &str) {
            if let Some(Open::Map(_, key)) = self.open.last_mut() {
                k.clone_into(key);
            }
        }
        fn end_map(&mut self) {
            if let Some(Open::Map(entries, _)) = self.open.pop() {
                self.put(Value::Map(entries));
            }
        }
    }
}

/// The source side: what a [`Deserialize`] impl reads from.
pub mod de {
    use std::borrow::Cow;
    use std::ops::Range;

    use super::{Deserialize, Error, Value};

    pub use crate::Deserialize as DeserializeOwned;

    /// What the next value of a source is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool,
        /// Any number.
        Number,
        /// A string.
        Str,
        /// A sequence.
        Seq,
        /// A map.
        Map,
    }

    /// A scalar read from a source.  Strings borrow from the source
    /// when they can.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Scalar<'de> {
        /// `null`.
        Null,
        /// A boolean.
        Bool(bool),
        /// A negative integer.
        Int(i64),
        /// A non-negative integer.
        UInt(u64),
        /// A number with a fraction or an exponent.
        Float(f64),
        /// A string.
        Str(Cow<'de, str>),
    }

    /// A token source.  A value is one [`Deserializer::scalar`], or a
    /// container: `begin_*`, then [`Deserializer::next_element`] /
    /// [`Deserializer::next_key`] before each element until they report
    /// the end — each `true` / `Some` must be followed by reading (or
    /// skipping) exactly one value.
    pub trait Deserializer<'de> {
        /// The kind of the next value, without consuming it.
        ///
        /// # Errors
        ///
        /// No value follows.
        fn peek(&mut self) -> Result<Kind, Error>;

        /// Consumes the next value, which must be a scalar.
        ///
        /// # Errors
        ///
        /// A container or malformed input.
        fn scalar(&mut self) -> Result<Scalar<'de>, Error>;

        /// Consumes the opening of a sequence.
        ///
        /// # Errors
        ///
        /// The next value is not a sequence.
        fn begin_seq(&mut self) -> Result<(), Error>;

        /// `true` when the open sequence has another element (read it
        /// next); `false` consumes the end of the sequence.
        ///
        /// # Errors
        ///
        /// Malformed input.
        fn next_element(&mut self) -> Result<bool, Error>;

        /// Consumes the opening of a map.
        ///
        /// # Errors
        ///
        /// The next value is not a map.
        fn begin_map(&mut self) -> Result<(), Error>;

        /// The key of the open map's next entry (read its value next);
        /// `None` consumes the end of the map.
        ///
        /// # Errors
        ///
        /// Malformed input.
        fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error>;

        /// Consumes the next value, whatever it is.
        ///
        /// # Errors
        ///
        /// Malformed input.
        fn skip(&mut self) -> Result<(), Error>
        where
            Self: Sized,
        {
            match self.peek()? {
                Kind::Seq => {
                    self.begin_seq()?;
                    while self.next_element()? {
                        self.skip()?;
                    }
                }
                Kind::Map => {
                    self.begin_map()?;
                    while self.next_key()?.is_some() {
                        self.skip()?;
                    }
                }
                _ => {
                    self.scalar()?;
                }
            }
            Ok(())
        }

        /// Consumes the next value, which must be a string.
        ///
        /// # Errors
        ///
        /// Anything but a string.
        fn str(&mut self) -> Result<Cow<'de, str>, Error> {
            match self.scalar()? {
                Scalar::Str(s) => Ok(s),
                _ => Err(Error::msg("expected string")),
            }
        }

        /// The next element of an open sequence of known length.
        ///
        /// # Errors
        ///
        /// The sequence ended early, or the element is not a `T`.
        fn element<T: Deserialize>(&mut self) -> Result<T, Error>
        where
            Self: Sized,
        {
            if self.next_element()? {
                T::deserialize(self)
            } else {
                Err(Error::msg("sequence too short"))
            }
        }

        /// Consumes the end of an open sequence of known length.
        ///
        /// # Errors
        ///
        /// The sequence has more elements.
        fn end_seq(&mut self) -> Result<(), Error> {
            if self.next_element()? {
                Err(Error::msg("sequence too long"))
            } else {
                Ok(())
            }
        }

        /// Reads the next value as a `T`, with the byte range of the
        /// source text it was read from — `None` for a source that is
        /// not text.
        ///
        /// # Errors
        ///
        /// As `T::deserialize`.
        fn spanned<T: Deserialize>(&mut self) -> Result<(T, Option<Range<usize>>), Error>
        where
            Self: Sized,
        {
            T::deserialize(self).map(|v| (v, None))
        }
    }

    /// A container being walked, positioned after its last element read.
    #[derive(Debug)]
    enum Walk<'de> {
        Seq(std::slice::Iter<'de, Value>),
        Map(std::slice::Iter<'de, (String, Value)>),
    }

    /// The tree-walking source behind [`Deserialize::from_value`].
    #[derive(Debug)]
    pub(crate) struct ValueSource<'de> {
        next: Option<&'de Value>,
        open: Vec<Walk<'de>>,
    }

    impl<'de> ValueSource<'de> {
        pub(crate) fn new(root: &'de Value) -> Self {
            ValueSource { next: Some(root), open: Vec::new() }
        }

        fn take(&mut self) -> Result<&'de Value, Error> {
            self.next.take().ok_or_else(|| Error::msg("no value to read"))
        }
    }

    impl<'de> Deserializer<'de> for ValueSource<'de> {
        fn peek(&mut self) -> Result<Kind, Error> {
            Ok(match self.next.ok_or_else(|| Error::msg("no value to read"))? {
                Value::Null => Kind::Null,
                Value::Bool(_) => Kind::Bool,
                Value::Int(_) | Value::UInt(_) | Value::Float(_) => Kind::Number,
                Value::Str(_) => Kind::Str,
                Value::Seq(_) => Kind::Seq,
                Value::Map(_) => Kind::Map,
            })
        }

        fn scalar(&mut self) -> Result<Scalar<'de>, Error> {
            Ok(match self.take()? {
                Value::Null => Scalar::Null,
                Value::Bool(b) => Scalar::Bool(*b),
                Value::Int(i) => Scalar::Int(*i),
                Value::UInt(u) => Scalar::UInt(*u),
                Value::Float(f) => Scalar::Float(*f),
                Value::Str(s) => Scalar::Str(Cow::Borrowed(s)),
                Value::Seq(_) | Value::Map(_) => return Err(Error::msg("expected a scalar")),
            })
        }

        fn begin_seq(&mut self) -> Result<(), Error> {
            match self.take()? {
                Value::Seq(items) => {
                    self.open.push(Walk::Seq(items.iter()));
                    Ok(())
                }
                _ => Err(Error::msg("expected sequence")),
            }
        }

        fn next_element(&mut self) -> Result<bool, Error> {
            let Some(Walk::Seq(items)) = self.open.last_mut() else {
                return Err(Error::msg("no open sequence"));
            };
            self.next = items.next();
            if self.next.is_none() {
                self.open.pop();
            }
            Ok(self.next.is_some())
        }

        fn begin_map(&mut self) -> Result<(), Error> {
            match self.take()? {
                Value::Map(entries) => {
                    self.open.push(Walk::Map(entries.iter()));
                    Ok(())
                }
                _ => Err(Error::msg("expected map")),
            }
        }

        fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
            let Some(Walk::Map(entries)) = self.open.last_mut() else {
                return Err(Error::msg("no open map"));
            };
            Ok(match entries.next() {
                Some((k, v)) => {
                    self.next = Some(v);
                    Some(Cow::Borrowed(k))
                }
                None => {
                    self.open.pop();
                    None
                }
            })
        }
    }
}

/// [`Value`] writes and reads itself: hand-assembled trees (e.g. the
/// `sweep` CLI's fetch envelopes) render through `serde_json` like any
/// derived type, and a `Value` field captures an arbitrary subtree.
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Int(i) => s.int(*i),
            Value::UInt(u) => s.uint(*u),
            Value::Float(f) => s.float(*f),
            Value::Str(v) => s.str(v),
            Value::Seq(items) => items.serialize(s),
            Value::Map(entries) => {
                s.begin_map();
                for (k, v) in entries {
                    s.field(k, v);
                }
                s.end_map();
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Ok(match d.peek()? {
            de::Kind::Seq => {
                d.begin_seq()?;
                let mut items = Vec::new();
                while d.next_element()? {
                    items.push(Value::deserialize(d)?);
                }
                Value::Seq(items)
            }
            de::Kind::Map => {
                d.begin_map()?;
                let mut entries = Vec::new();
                while let Some(k) = d.next_key()? {
                    entries.push((k.into_owned(), Value::deserialize(d)?));
                }
                Value::Map(entries)
            }
            _ => match d.scalar()? {
                de::Scalar::Null => Value::Null,
                de::Scalar::Bool(b) => Value::Bool(b),
                de::Scalar::Int(i) => Value::Int(i),
                de::Scalar::UInt(u) => Value::UInt(u),
                de::Scalar::Float(f) => Value::Float(f),
                de::Scalar::Str(s) => Value::Str(s.into_owned()),
            },
        })
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// --------------------------------------------------------------------
// Primitive impls.
// --------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) { s.uint(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                let out_of_range = |_| Error::msg("unsigned out of range");
                match d.scalar()? {
                    de::Scalar::UInt(u) => <$t>::try_from(u).map_err(out_of_range),
                    de::Scalar::Int(i) if i >= 0 => <$t>::try_from(i as u64).map_err(out_of_range),
                    de::Scalar::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 =>
                        <$t>::try_from(f as u64).map_err(out_of_range),
                    _ => Err(Error::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) { s.int(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                match d.scalar()? {
                    de::Scalar::Int(i) => <$t>::try_from(i)
                        .map_err(|_| Error::msg("signed out of range")),
                    de::Scalar::UInt(u) => i64::try_from(u)
                        .ok()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| Error::msg("signed out of range")),
                    de::Scalar::Float(f) if f.fract() == 0.0 => Ok(f as $t),
                    _ => Err(Error::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.float(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            de::Scalar::Float(f) => Ok(f),
            de::Scalar::Int(i) => Ok(i as f64),
            de::Scalar::UInt(u) => Ok(u as f64),
            _ => Err(Error::msg("expected f64")),
        }
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.float(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        f64::deserialize(d).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            de::Scalar::Bool(b) => Ok(b),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        d.str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

/// `&'static str` deserialization leaks the parsed string.  The seed
/// code derives `Deserialize` on profile structs whose names are static
/// string literals; round-trips through this impl are rare and small.
impl Deserialize for &'static str {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        d.str().map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        let s = d.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg("expected single-char string")),
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.null();
    }
}

impl Deserialize for () {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            de::Scalar::Null => Ok(()),
            _ => Err(Error::msg("expected null")),
        }
    }
}

// --------------------------------------------------------------------
// Containers.
// --------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(x) => x.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        if d.peek()? == de::Kind::Null {
            d.scalar()?;
            Ok(None)
        } else {
            T::deserialize(d).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for x in self {
            s.item(x);
        }
        s.end_seq();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        d.begin_seq()?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for x in self {
            s.item(x);
        }
        s.end_seq();
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Vec::<T>::deserialize(d).map(VecDeque::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(d)?;
        <[T; N]>::try_from(items).map_err(|_| Error::msg("wrong array length"))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.begin_seq();
                $(s.item(&self.$n);)+
                s.end_seq();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
                d.begin_seq()?;
                let tuple = ($(d.element::<$t>()?,)+);
                d.end_seq()?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (0 T0)
    (0 T0, 1 T1)
    (0 T0, 1 T1, 2 T2)
    (0 T0, 1 T1, 2 T2, 3 T3)
    (0 T0, 1 T1, 2 T2, 3 T3, 4 T4)
    (0 T0, 1 T1, 2 T2, 3 T3, 4 T4, 5 T5)
}

// Maps serialize as sequences of `[key, value]` pairs: JSON object keys
// must be strings, and the workspace's maps are keyed by newtype ids.
// Both sides of the round trip go through this shim, so the encoding
// only needs to be self-consistent.
fn serialize_pairs<'a, K, V, S>(pairs: impl Iterator<Item = (&'a K, &'a V)>, s: &mut S)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
{
    s.begin_seq();
    for pair in pairs {
        s.item(&pair);
    }
    s.end_seq();
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_pairs(self.iter(), s);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Vec::<(K, V)>::deserialize(d).map(|pairs| pairs.into_iter().collect())
    }
}

impl<K: Serialize + Ord, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        serialize_pairs(pairs.into_iter(), s);
    }
}

impl<K, V, H> Deserialize for HashMap<K, V, H>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, Error> {
        Vec::<(K, V)>::deserialize(d).map(|pairs| pairs.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()), Ok(42));
        assert_eq!(i32::from_value(&(-3i32).to_value()), Ok(-3));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, Some(2.5f64)), (3, None)];
        let back = Vec::<(u32, Option<f64>)>::from_value(&v.to_value()).unwrap();
        assert_eq!(v, back);
        let arr = [1u64, 2, 3];
        assert_eq!(<[u64; 3]>::from_value(&arr.to_value()), Ok(arr));
        assert!(<(u8, u8)>::from_value(&Value::Seq(vec![Value::UInt(1)])).is_err());
        assert!(<(u8,)>::from_value(&Value::Seq(vec![Value::UInt(1); 2])).is_err());
    }

    #[test]
    fn the_tree_sink_builds_what_the_tree_source_walks() {
        let tree = Value::Map(vec![
            ("a".to_string(), Value::Seq(vec![Value::Null, Value::Seq(Vec::new())])),
            ("b".to_string(), Value::Map(vec![("c".to_string(), Value::Int(-1))])),
            ("d".to_string(), Value::Map(Vec::new())),
        ]);
        let mut sink = ser::ValueSink::default();
        tree.serialize(&mut sink);
        assert_eq!(sink.finish(), tree);
        let walked = Value::deserialize(&mut de::ValueSource::new(&tree)).unwrap();
        assert_eq!(walked, tree);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(f64::from_value(&Value::Int(2)), Ok(2.0));
        assert_eq!(u64::from_value(&Value::Int(7)), Ok(7));
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }
}
