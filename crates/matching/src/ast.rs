//! Filter AST: conjunctions of attribute predicates.

use gryphon_types::{AttrName, AttrValue, Event};

/// Comparison operator of a [`Predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `=` — equality (same type, same value).
    Eq,
    /// `!=` — attribute present and not equal (same-type comparison).
    Ne,
    /// `<` — strictly less (same-type, ordered).
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `=p` — string prefix match.
    Prefix,
    /// `exists` — attribute present with any value.
    Exists,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "=p",
            Op::Exists => "exists",
        };
        f.write_str(s)
    }
}

/// A single attribute predicate, e.g. `price > 10.5`.
///
/// Missing attributes never match (content-based semantics): `price != 3`
/// is *false* for an event without a `price` attribute, as is any
/// comparison across types.
///
/// # Examples
///
/// ```
/// use gryphon_matching::{Op, Predicate};
/// use gryphon_types::{AttrValue, Event, PubendId, Timestamp};
///
/// let p = Predicate::new("price", Op::Gt, AttrValue::Int(10));
/// let e = Event::builder(PubendId(0)).attr("price", 12i64).build(Timestamp(1));
/// assert!(p.eval(&e));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Interned attribute name.
    pub attr: AttrName,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand constant (ignored for [`Op::Exists`]).
    pub value: AttrValue,
}

impl Predicate {
    /// Creates a predicate. The attribute name is interned.
    pub fn new(attr: impl Into<AttrName>, op: Op, value: AttrValue) -> Self {
        Predicate {
            attr: attr.into(),
            op,
            value,
        }
    }

    /// Creates an existence predicate for `attr`.
    pub fn exists(attr: impl Into<AttrName>) -> Self {
        Predicate {
            attr: attr.into(),
            op: Op::Exists,
            value: AttrValue::Bool(true),
        }
    }

    /// Evaluates this predicate against an event.
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_matching::{Op, Predicate};
    /// # use gryphon_types::{AttrValue, Event, PubendId, Timestamp};
    /// let p = Predicate::new("sym", Op::Prefix, AttrValue::from("IB"));
    /// let hit = Event::builder(PubendId(0)).attr("sym", "IBM").build(Timestamp(1));
    /// let miss = Event::builder(PubendId(0)).attr("sym", "MSFT").build(Timestamp(2));
    /// assert!(p.eval(&hit));
    /// assert!(!p.eval(&miss));
    /// ```
    pub fn eval(&self, event: &Event) -> bool {
        // Direct symbol-keyed lookup: no string hashing or table probe.
        let Some(v) = event.attrs.get(&self.attr) else {
            return false;
        };
        self.eval_value(v)
    }

    /// Evaluates this predicate against a raw attribute value (the
    /// attribute is known to be present).
    pub fn eval_value(&self, v: &AttrValue) -> bool {
        use std::cmp::Ordering;
        match self.op {
            Op::Exists => true,
            Op::Eq => v == &self.value,
            Op::Ne => {
                // Same-type inequality only: cross-type is "incomparable",
                // not "unequal", matching content-based filter semantics.
                same_type(v, &self.value) && v != &self.value
            }
            Op::Prefix => match (v, &self.value) {
                (AttrValue::Str(s), AttrValue::Str(p)) => s.starts_with(p.as_str()),
                _ => false,
            },
            Op::Lt | Op::Le | Op::Gt | Op::Ge => match v.partial_cmp(&self.value) {
                None => false,
                Some(ord) => match self.op {
                    Op::Lt => ord == Ordering::Less,
                    Op::Le => ord != Ordering::Greater,
                    Op::Gt => ord == Ordering::Greater,
                    Op::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                },
            },
        }
    }
}

fn same_type(a: &AttrValue, b: &AttrValue) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.op == Op::Exists {
            write!(f, "{} exists", self.attr)
        } else {
            write!(f, "{} {} {}", self.attr, self.op, self.value)
        }
    }
}

/// A subscription filter: the conjunction of its predicates.
///
/// The empty conjunction ([`Filter::match_all`]) matches every event.
///
/// # Examples
///
/// ```
/// use gryphon_matching::Filter;
/// use gryphon_types::{Event, PubendId, Timestamp};
///
/// let f = Filter::parse("class = 1 && price >= 10")?;
/// let e = Event::builder(PubendId(0))
///     .attr("class", 1i64)
///     .attr("price", 10i64)
///     .build(Timestamp(1));
/// assert!(f.eval(&e));
/// # Ok::<(), gryphon_matching::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    predicates: Vec<Predicate>,
}

impl Filter {
    /// Builds a filter from predicates.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Filter { predicates }
    }

    /// The filter that matches every event.
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_matching::Filter;
    /// # use gryphon_types::{Event, PubendId, Timestamp};
    /// let e = Event::builder(PubendId(0)).build(Timestamp(1));
    /// assert!(Filter::match_all().eval(&e));
    /// ```
    pub fn match_all() -> Self {
        Filter::default()
    }

    /// Parses the filter grammar; see the [crate docs](crate) for examples.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`](crate::ParseError) on malformed input.
    pub fn parse(input: &str) -> Result<Self, crate::ParseError> {
        crate::parser::parse(input)
    }

    /// The conjunction's predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Evaluates the conjunction against an event.
    pub fn eval(&self, event: &Event) -> bool {
        self.predicates.iter().all(|p| p.eval(event))
    }
}

impl std::fmt::Display for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("true");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" && ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{PubendId, Timestamp};

    fn ev(pairs: &[(&str, AttrValue)]) -> Event {
        let mut b = Event::builder(PubendId(0));
        for (k, v) in pairs {
            b = b.attr(*k, v.clone());
        }
        b.build(Timestamp(1))
    }

    #[test]
    fn missing_attribute_never_matches() {
        let e = ev(&[]);
        for op in [Op::Eq, Op::Ne, Op::Lt, Op::Gt, Op::Exists, Op::Prefix] {
            let p = Predicate::new("x", op, AttrValue::Int(1));
            assert!(!p.eval(&e), "op {op:?} matched missing attribute");
        }
    }

    #[test]
    fn cross_type_comparisons_fail() {
        let e = ev(&[("x", AttrValue::Str("5".into()))]);
        assert!(!Predicate::new("x", Op::Eq, AttrValue::Int(5)).eval(&e));
        assert!(!Predicate::new("x", Op::Ne, AttrValue::Int(5)).eval(&e));
        assert!(!Predicate::new("x", Op::Lt, AttrValue::Int(9)).eval(&e));
    }

    #[test]
    fn ne_requires_same_type() {
        let e = ev(&[("x", AttrValue::Int(5))]);
        assert!(Predicate::new("x", Op::Ne, AttrValue::Int(4)).eval(&e));
        assert!(!Predicate::new("x", Op::Ne, AttrValue::Int(5)).eval(&e));
    }

    #[test]
    fn range_operators() {
        let e = ev(&[("x", AttrValue::Float(2.5))]);
        assert!(Predicate::new("x", Op::Gt, AttrValue::Float(2.0)).eval(&e));
        assert!(Predicate::new("x", Op::Ge, AttrValue::Float(2.5)).eval(&e));
        assert!(!Predicate::new("x", Op::Lt, AttrValue::Float(2.5)).eval(&e));
        assert!(Predicate::new("x", Op::Le, AttrValue::Float(2.5)).eval(&e));
    }

    #[test]
    fn prefix_on_strings_only() {
        let e = ev(&[("s", AttrValue::Str("IBM".into()))]);
        assert!(Predicate::new("s", Op::Prefix, AttrValue::from("IB")).eval(&e));
        assert!(!Predicate::new("s", Op::Prefix, AttrValue::from("BM")).eval(&e));
        let n = ev(&[("s", AttrValue::Int(3))]);
        assert!(!Predicate::new("s", Op::Prefix, AttrValue::from("3")).eval(&n));
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(Filter::match_all().eval(&ev(&[])));
    }

    #[test]
    fn conjunction_semantics() {
        let f = Filter::new(vec![
            Predicate::new("a", Op::Eq, AttrValue::Int(1)),
            Predicate::new("b", Op::Gt, AttrValue::Int(5)),
        ]);
        assert!(f.eval(&ev(&[("a", AttrValue::Int(1)), ("b", AttrValue::Int(6))])));
        assert!(!f.eval(&ev(&[("a", AttrValue::Int(1)), ("b", AttrValue::Int(5))])));
        assert!(!f.eval(&ev(&[("b", AttrValue::Int(6))])));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let f = Filter::new(vec![
            Predicate::new("a", Op::Eq, AttrValue::Int(1)),
            Predicate::exists("b"),
            Predicate::new("s", Op::Prefix, AttrValue::from("x")),
        ]);
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed).expect("display should reparse");
        assert_eq!(f, reparsed);
    }

    #[test]
    fn whole_number_floats_roundtrip_as_floats() {
        for text in ["x = 1500.0", "x = 0.0", "x > -0.0", "x = 1e20"] {
            let f = Filter::parse(text).unwrap();
            let reparsed = Filter::parse(&f.to_string()).unwrap();
            assert_eq!(f, reparsed, "{text} printed as {f}");
        }
        assert_eq!(
            Filter::parse("x = 1500.0").unwrap().to_string(),
            "x = 1500.0"
        );
    }

    #[test]
    fn nan_never_matches() {
        let e = ev(&[("x", AttrValue::Float(f64::NAN))]);
        for op in [Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge] {
            assert!(!Predicate::new("x", op, AttrValue::Float(1.0)).eval(&e));
        }
        // But existence still holds.
        assert!(Predicate::exists("x").eval(&e));
    }
}
