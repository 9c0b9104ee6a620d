//! Core vocabulary types for the Gryphon durable-subscription reproduction.
//!
//! This crate defines the identifiers, timestamps, event representation,
//! checkpoint tokens (vector clocks) and wire messages shared by every other
//! crate in the workspace. It corresponds to the *system model* of §2 of
//! "Scalably Supporting Durable Subscriptions in a Publish/Subscribe System"
//! (Bhola, Zhao, Auerbach — DSN 2003):
//!
//! * every persistent event is published to a **pubend** and assigned a
//!   monotone [`Timestamp`] on that pubend's stream;
//! * a durable subscriber holds a [`CheckpointToken`] — a vector clock of
//!   `(pubend, timestamp)` pairs — as its resumption point;
//! * subscribers receive [`DeliveryMsg`]s: **event**, **silence** or **gap**
//!   messages, each of which advances per-pubend knowledge monotonically.
//!
//! # Examples
//!
//! ```
//! use gryphon_types::{CheckpointToken, PubendId, Timestamp};
//!
//! let mut ct = CheckpointToken::new();
//! ct.advance(PubendId(0), Timestamp(100));
//! ct.advance(PubendId(0), Timestamp(90)); // ignored: not monotone
//! assert_eq!(ct.get(PubendId(0)), Timestamp(100));
//! ```

pub mod ct;
pub mod event;
pub mod ids;
pub mod lineage;
pub mod msg;
pub mod symbol;
pub mod tick;
pub mod time;

pub use ct::CheckpointToken;
pub use event::{AttrValue, Attributes, Event, EventRef};
pub use ids::{BrokerId, NodeId, PubendId, SubSlot, SubscriberId};
pub use lineage::LineageKey;
pub use msg::{
    ClientMsg, CuriosityMsg, DeliveryKind, DeliveryMsg, InterestChange, KnowledgeMsg,
    KnowledgePart, NetMsg, PublishMsg, ReleaseMsg, ServerMsg, SubInterestMsg, SubscriptionSpec,
};
pub use symbol::{AttrName, SymbolId};
pub use tick::TickKind;
pub use time::Timestamp;

/// Errors produced by the core protocol layers.
///
/// Storage-level errors live in `gryphon-storage`; this enum covers protocol
/// and model violations that public APIs can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GryphonError {
    /// A subscriber id was not known to the broker handling the request.
    UnknownSubscriber(SubscriberId),
    /// A pubend id was not known to the node handling the request.
    UnknownPubend(PubendId),
    /// A checkpoint token regressed (client presented a timestamp beyond
    /// what the system can still serve *forward* from).
    NonMonotoneCheckpoint {
        /// Pubend whose component regressed.
        pubend: PubendId,
        /// The offending timestamp.
        presented: Timestamp,
    },
    /// A subscription filter failed to parse or validate.
    InvalidSubscription(String),
    /// The broker is not configured for the requested role
    /// (e.g. publishing to a broker that hosts no pubends).
    RoleMismatch(String),
}

impl std::fmt::Display for GryphonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GryphonError::UnknownSubscriber(s) => write!(f, "unknown subscriber {s}"),
            GryphonError::UnknownPubend(p) => write!(f, "unknown pubend {p}"),
            GryphonError::NonMonotoneCheckpoint { pubend, presented } => {
                write!(f, "checkpoint token for {pubend} regressed to {presented}")
            }
            GryphonError::InvalidSubscription(msg) => {
                write!(f, "invalid subscription: {msg}")
            }
            GryphonError::RoleMismatch(msg) => write!(f, "role mismatch: {msg}"),
        }
    }
}

impl std::error::Error for GryphonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            GryphonError::UnknownSubscriber(SubscriberId(3)),
            GryphonError::UnknownPubend(PubendId(1)),
            GryphonError::NonMonotoneCheckpoint {
                pubend: PubendId(0),
                presented: Timestamp(5),
            },
            GryphonError::InvalidSubscription("bad".into()),
            GryphonError::RoleMismatch("no pubends".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GryphonError>();
    }
}
