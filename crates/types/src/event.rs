//! Events: typed attributes for content-based matching plus an opaque
//! payload.
//!
//! Published events carry a small set of typed attributes (the content the
//! matching engine filters on) and an application payload. In the paper's
//! experiments events are 418 bytes: ~250 bytes of payload plus headers.

use crate::{AttrName, PubendId, Timestamp};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A typed attribute value.
///
/// Values of different types never compare equal and have no relative order
/// (mirroring content-based pub/sub semantics where a predicate on a string
/// attribute simply fails to match an integer-valued event).
///
/// # Examples
///
/// ```
/// use gryphon_types::AttrValue;
/// assert_eq!(AttrValue::from("IBM"), AttrValue::Str("IBM".into()));
/// assert!(AttrValue::Int(3).partial_cmp(&AttrValue::Str("x".into())).is_none());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AttrValue {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` never matches any predicate.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => a == b,
            (AttrValue::Float(a), AttrValue::Float(b)) => a == b,
            (AttrValue::Str(a), AttrValue::Str(b)) => a == b,
            (AttrValue::Bool(a), AttrValue::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => a.partial_cmp(b),
            (AttrValue::Float(a), AttrValue::Float(b)) => a.partial_cmp(b),
            (AttrValue::Str(a), AttrValue::Str(b)) => a.partial_cmp(b),
            (AttrValue::Bool(a), AttrValue::Bool(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            AttrValue::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            AttrValue::Float(v) => {
                1u8.hash(state);
                // `0.0 == -0.0`, so both zeros must hash alike.
                let v = if *v == 0.0 { 0.0f64 } else { *v };
                v.to_bits().hash(state);
            }
            AttrValue::Str(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            AttrValue::Bool(v) => {
                3u8.hash(state);
                v.hash(state);
            }
        }
    }
}

// Hash/Eq consistency: `eq` only holds within one variant and delegates to
// the inner value. Float hashes its bits with the two zeros folded into one,
// so equal floats hash equally; `NaN` equals nothing, not even itself (the
// one way this `Eq` is not reflexive), so it is never found by hash lookup —
// which is also what `NaN never matches` asks for.
impl Eq for AttrValue {}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            // `Debug` keeps the point (`1500.0`, `1e20`), so a printed
            // float reparses as a float, not an integer.
            AttrValue::Float(v) => write!(f, "{v:?}"),
            AttrValue::Str(v) => write!(f, "'{v}'"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An event's attribute map: interned name → typed value.
///
/// Keys are interned [`AttrName`]s so the matching hot path works on dense
/// symbol ids instead of hashing strings per event. A `BTreeMap` keeps
/// attribute order deterministic — and because [`AttrName`] orders by its
/// *string* (not its interning-order id), iteration order is identical
/// across processes and shard counts, which matters for reproducible
/// simulation runs and golden tests.
pub type Attributes = BTreeMap<AttrName, AttrValue>;

/// A published event.
///
/// Events are immutable once assigned a timestamp by their pubend; brokers
/// share them via [`EventRef`] (an `Arc`), so fan-out to thousands of
/// subscribers never copies the payload.
///
/// # Examples
///
/// ```
/// use gryphon_types::{Event, PubendId, Timestamp};
///
/// let e = Event::builder(PubendId(0))
///     .attr("symbol", "IBM")
///     .attr("price", 85.5)
///     .payload(vec![0u8; 250])
///     .build(Timestamp(17));
/// assert_eq!(e.ts, Timestamp(17));
/// assert_eq!(e.attr("symbol"), Some(&"IBM".into()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Pubend this event was published to.
    pub pubend: PubendId,
    /// Tick assigned by the pubend; unique per pubend.
    pub ts: Timestamp,
    /// Typed attributes used for content-based matching.
    pub attrs: Attributes,
    /// Opaque application payload.
    pub payload: Bytes,
}

/// Shared reference to an immutable event.
pub type EventRef = Arc<Event>;

impl Event {
    /// Starts building an event destined for `pubend`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_types::{Event, PubendId, Timestamp};
    /// let e = Event::builder(PubendId(1)).attr("k", 1i64).build(Timestamp(1));
    /// assert_eq!(e.pubend, PubendId(1));
    /// ```
    pub fn builder(pubend: PubendId) -> EventBuilder {
        EventBuilder {
            pubend,
            attrs: BTreeMap::new(),
            payload: Bytes::new(),
        }
    }

    /// Approximate on-the-wire size in bytes (headers + attributes +
    /// payload), used by storage-volume accounting.
    ///
    /// The constant header charge (24 bytes: pubend + timestamp + framing)
    /// plus per-attribute costs approximates the paper's 418-byte events
    /// (250-byte payload).
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_types::{Event, PubendId, Timestamp};
    /// let e = Event::builder(PubendId(0)).payload(vec![0; 250]).build(Timestamp(1));
    /// assert!(e.encoded_len() >= 274);
    /// ```
    pub fn encoded_len(&self) -> usize {
        let attr_len: usize = self
            .attrs
            .iter()
            .map(|(k, v)| {
                k.as_str().len()
                    + 2
                    + match v {
                        AttrValue::Int(_) | AttrValue::Float(_) => 8,
                        AttrValue::Str(s) => s.len() + 2,
                        AttrValue::Bool(_) => 1,
                    }
            })
            .sum();
        24 + attr_len + self.payload.len()
    }

    /// Returns the attribute `name`, if present.
    ///
    /// Looks the name up in the symbol table without interning it, so
    /// probing with arbitrary strings never grows the table.
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_types::{Event, PubendId, Timestamp, AttrValue};
    /// let e = Event::builder(PubendId(0)).attr("x", 3i64).build(Timestamp(1));
    /// assert_eq!(e.attr("x"), Some(&AttrValue::Int(3)));
    /// assert_eq!(e.attr("y"), None);
    /// ```
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.get(&AttrName::lookup(name)?)
    }
}

/// Builder for [`Event`]; see [`Event::builder`].
#[derive(Debug, Clone)]
pub struct EventBuilder {
    pubend: PubendId,
    attrs: Attributes,
    payload: Bytes,
}

impl EventBuilder {
    /// Adds (or replaces) an attribute. The name is interned.
    pub fn attr(mut self, name: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(name.into(), value.into());
        self
    }

    /// Sets the application payload.
    pub fn payload(mut self, payload: impl Into<Bytes>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Finishes the event with the timestamp its pubend assigned.
    pub fn build(self, ts: Timestamp) -> Event {
        Event {
            pubend: self.pubend,
            ts,
            attrs: self.attrs,
            payload: self.payload,
        }
    }

    /// Finishes the event wrapped in an [`EventRef`].
    pub fn build_ref(self, ts: Timestamp) -> EventRef {
        Arc::new(self.build(ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_cross_type_neither_eq_nor_ordered() {
        assert_ne!(AttrValue::Int(1), AttrValue::Float(1.0));
        assert!(AttrValue::Int(1)
            .partial_cmp(&AttrValue::Bool(true))
            .is_none());
    }

    #[test]
    fn attr_value_same_type_ordering() {
        assert!(AttrValue::Int(1) < AttrValue::Int(2));
        assert!(AttrValue::Str("a".into()) < AttrValue::Str("b".into()));
        assert!(AttrValue::Float(1.5) < AttrValue::Float(2.0));
    }

    #[test]
    fn nan_compares_with_nothing() {
        let nan = AttrValue::Float(f64::NAN);
        assert!(nan.partial_cmp(&AttrValue::Float(0.0)).is_none());
        assert_ne!(nan, AttrValue::Float(f64::NAN));
    }

    #[test]
    fn equal_zeros_hash_equally() {
        use std::hash::{BuildHasher, RandomState};
        let h = RandomState::new();
        assert_eq!(AttrValue::Float(0.0), AttrValue::Float(-0.0));
        assert_eq!(
            h.hash_one(AttrValue::Float(0.0)),
            h.hash_one(AttrValue::Float(-0.0))
        );
    }

    #[test]
    fn whole_floats_display_with_a_point() {
        assert_eq!(AttrValue::Float(1500.0).to_string(), "1500.0");
        assert_eq!(AttrValue::Float(-0.0).to_string(), "-0.0");
        assert_eq!(AttrValue::Float(10.5).to_string(), "10.5");
        assert_eq!(AttrValue::Int(1500).to_string(), "1500");
    }

    #[test]
    fn builder_produces_expected_event() {
        let e = Event::builder(PubendId(2))
            .attr("class", 3i64)
            .attr("symbol", "IBM")
            .payload(vec![1, 2, 3])
            .build(Timestamp(9));
        assert_eq!(e.pubend, PubendId(2));
        assert_eq!(e.ts, Timestamp(9));
        assert_eq!(e.attr("class"), Some(&AttrValue::Int(3)));
        assert_eq!(e.payload.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn encoded_len_tracks_payload() {
        let small = Event::builder(PubendId(0)).build(Timestamp(1));
        let big = Event::builder(PubendId(0))
            .payload(vec![0u8; 250])
            .build(Timestamp(1));
        assert_eq!(big.encoded_len() - small.encoded_len(), 250);
    }

    #[test]
    fn hash_distinguishes_variants() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(AttrValue::Int(1));
        set.insert(AttrValue::Bool(true));
        set.insert(AttrValue::Str("1".into()));
        assert_eq!(set.len(), 3);
    }
}
