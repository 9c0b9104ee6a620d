//! Content-based subscription matching for the Gryphon reproduction.
//!
//! Gryphon filters events against *content-based subscriptions* — predicate
//! conjunctions over typed event attributes — at every broker in the
//! overlay ([Aguilera et al., PODC 1999] is the matching substrate the
//! paper builds on). This crate provides:
//!
//! * a [`Filter`] AST: a conjunction of [`Predicate`]s over attributes;
//! * a text grammar and [parser](Filter::parse):
//!   `class = 2 && price > 10.5 && symbol =p 'IB'`;
//! * [`SubscriptionIndex`], an access-predicate matcher: each subscription
//!   is filed under one of its predicates (its first equality predicate
//!   when it has one), and an event visits only the
//!   subscriptions filed under its own attribute values, so matching costs
//!   per *candidate*, not per registered subscription.
//!
//! # Examples
//!
//! ```
//! use gryphon_matching::{Filter, SubscriptionIndex};
//! use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
//!
//! let mut index = SubscriptionIndex::new();
//! index.insert(SubscriberId(1), Filter::parse("class = 2")?);
//! index.insert(SubscriberId(2), Filter::parse("class = 2 && price > 100")?);
//!
//! let event = Event::builder(PubendId(0))
//!     .attr("class", 2i64)
//!     .attr("price", 50i64)
//!     .build(Timestamp(1));
//! assert_eq!(index.matches(&event), vec![SubscriberId(1)]);
//! # Ok::<(), gryphon_matching::ParseError>(())
//! ```

mod ast;
mod index;
mod parser;

pub use ast::{Filter, Op, Predicate};
pub use index::{MatchScratch, SubscriptionIndex};
pub use parser::ParseError;

#[cfg(test)]
mod prop_tests;
