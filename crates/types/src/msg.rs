//! Wire messages: broker↔broker control traffic and client↔broker traffic.
//!
//! The overlay routes [`NetMsg`] values over FIFO links. Knowledge flows
//! *down* the per-pubend tree (from the pubend's hosting broker towards
//! subscriber hosting brokers); curiosity (nacks) and release aggregation
//! flow *up*. Clients speak [`ClientMsg`] / [`ServerMsg`] with the broker
//! they attach to.

use crate::{CheckpointToken, EventRef, PubendId, SubscriberId, Timestamp};

/// A subscription filter, carried on the wire as its source expression.
///
/// The expression grammar is defined by `gryphon-matching` (conjunctions of
/// attribute predicates, e.g. `class = 2 && price > 10.5`). Brokers parse
/// the expression on receipt; parse errors are reported back on connect.
///
/// # Examples
///
/// ```
/// use gryphon_types::SubscriptionSpec;
/// let spec = SubscriptionSpec::new("class = 2");
/// assert_eq!(spec.expr(), "class = 2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubscriptionSpec(String);

impl SubscriptionSpec {
    /// Wraps a filter expression.
    pub fn new(expr: impl Into<String>) -> Self {
        SubscriptionSpec(expr.into())
    }

    /// The filter expression text.
    pub fn expr(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SubscriptionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SubscriptionSpec {
    fn from(s: &str) -> Self {
        SubscriptionSpec::new(s)
    }
}

/// A publish request from a publisher client to its hosting broker.
///
/// The pubend assigns the timestamp; the client supplies content only.
#[derive(Debug, Clone)]
pub struct PublishMsg {
    /// Target pubend.
    pub pubend: PubendId,
    /// Attributes for content-based matching.
    pub attrs: crate::Attributes,
    /// Opaque payload.
    pub payload: bytes::Bytes,
}

/// One element of a knowledge message: a span of tick knowledge.
///
/// `Q` is never transmitted — absence of knowledge is the default — so the
/// wire form only carries `S`, `D` and `L`.
#[derive(Debug, Clone, PartialEq)]
pub enum KnowledgePart {
    /// All ticks in `[from, to]` (inclusive) are silence.
    Silence {
        /// First silent tick.
        from: Timestamp,
        /// Last silent tick.
        to: Timestamp,
    },
    /// A data tick carrying an event (at `event.ts`).
    Data(EventRef),
    /// All ticks in `[from, to]` (inclusive) were discarded by early
    /// release.
    Lost {
        /// First lost tick.
        from: Timestamp,
        /// Last lost tick.
        to: Timestamp,
    },
}

impl KnowledgePart {
    /// The inclusive tick range this part covers.
    pub fn range(&self) -> (Timestamp, Timestamp) {
        match self {
            KnowledgePart::Silence { from, to } | KnowledgePart::Lost { from, to } => (*from, *to),
            KnowledgePart::Data(e) => (e.ts, e.ts),
        }
    }
}

/// Knowledge flowing down a pubend's tree (also the response to a nack).
#[derive(Debug, Clone)]
pub struct KnowledgeMsg {
    /// The pubend whose stream this describes.
    pub pubend: PubendId,
    /// Spans of new knowledge, in ascending tick order.
    pub parts: Vec<KnowledgePart>,
    /// `true` when this message answers a nack (recovery traffic). Brokers
    /// forward responses only to the downstreams that registered interest,
    /// while fresh knowledge flows to every child.
    pub nack_response: bool,
    /// The receiver's subscription-interest version this message was
    /// filtered under (see [`SubInterestMsg::version`]). A subscription
    /// added in interest version `v` may only be served ticks from
    /// messages stamped `≥ v` — earlier messages may have silently
    /// downgraded its events. `0` = no interest applied (unfiltered).
    pub interest_version: u64,
}

impl KnowledgeMsg {
    /// Approximate wire size (drives bandwidth-limited links).
    pub fn size_hint(&self) -> usize {
        16 + self
            .parts
            .iter()
            .map(|p| match p {
                KnowledgePart::Data(e) => e.encoded_len(),
                _ => 17,
            })
            .sum::<usize>()
    }
}

/// A nack: "send me knowledge for these tick ranges".
///
/// Ranges are inclusive; a `to` of [`Timestamp::MAX`] means "everything you
/// currently have from `from` onwards" (used by a recovering SHB whose
/// constream must catch up without knowing the pubend's current time).
#[derive(Debug, Clone)]
pub struct CuriosityMsg {
    /// The pubend whose stream is being nacked.
    pub pubend: PubendId,
    /// Inclusive tick ranges still unknown downstream.
    pub ranges: Vec<(Timestamp, Timestamp)>,
    /// `true` when only the pubend's authoritative knowledge may answer:
    /// interior caches may hold streams filtered without the requesting
    /// subscription (the reconnect-anywhere extension of paper §1).
    pub authoritative: bool,
}

/// Release-protocol aggregation flowing up the tree (paper §3).
///
/// Each node reports, for one pubend, the minimum over its subtree of the
/// released timestamp and of `latestDelivered`. The pubend (root) uses the
/// global minima `Tr(p)` and `Td(p)` to decide when ticks may turn `L`.
#[derive(Debug, Clone, Copy)]
pub struct ReleaseMsg {
    /// The pubend this report concerns.
    pub pubend: PubendId,
    /// Minimum released timestamp over the subtree.
    pub released: Timestamp,
    /// Minimum `latestDelivered` over the subtree.
    pub latest_delivered: Timestamp,
}

/// A change to the subscription interest a child broker reports to its
/// parent.
///
/// Parents filter knowledge per child: a data tick matching no subscription
/// in the child's subtree is forwarded as silence, preserving the paper's
/// "filtering at intermediate nodes improves network utilization" property.
/// Interest travels as changes, so a registration costs one entry per hop,
/// not the whole set:
///
/// * a [`InterestChange::Delta`] names the entries added and the ids
///   removed since version `base`. A child sends one per first connect and
///   per unsubscribe. The parent applies it only on top of `base`; any
///   other base is a gap (the parent restarted, or a message was lost) and
///   the parent ignores it;
/// * a [`InterestChange::Snapshot`] is the child's complete set and
///   replaces what the parent holds. A child sends one after it restarts
///   and on its periodic refresh, which heals any gap. A parent skips a
///   snapshot whose version it has already applied.
#[derive(Debug, Clone)]
pub struct SubInterestMsg {
    /// Monotone version of the sender's interest set after this change.
    /// The parent echoes the version it filtered under on every
    /// [`KnowledgeMsg`], which is how a subscriber-hosting broker learns
    /// when a *new* subscription's filter is causally upstream (and thus
    /// where the subscription may safely start).
    pub version: u64,
    /// What changed.
    pub change: InterestChange,
}

/// The body of a [`SubInterestMsg`].
#[derive(Debug, Clone)]
pub enum InterestChange {
    /// All durable subscriptions in the sender's subtree (replaces the
    /// parent's copy).
    Snapshot(Vec<(SubscriberId, SubscriptionSpec)>),
    /// The change since the sender's version `base`.
    Delta {
        /// The version this change applies on top of.
        base: u64,
        /// Subscriptions added (or whose filter changed).
        added: Vec<(SubscriberId, SubscriptionSpec)>,
        /// Subscriptions removed.
        removed: Vec<SubscriberId>,
    },
}

impl InterestChange {
    /// Approximate wire size of the entries this change carries.
    fn size_hint(&self) -> usize {
        let entries = |subs: &[(SubscriberId, SubscriptionSpec)]| {
            subs.iter()
                .map(|(_, spec)| 12 + spec.expr().len())
                .sum::<usize>()
        };
        match self {
            InterestChange::Snapshot(subs) => entries(subs),
            InterestChange::Delta { added, removed, .. } => 8 + entries(added) + 8 * removed.len(),
        }
    }
}

/// Messages a client sends to the broker it attaches to.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Attach (or re-attach) a durable subscription.
    Connect {
        /// The durable subscription id.
        sub: SubscriberId,
        /// Resumption point; `None` on first-ever connect (the SHB then
        /// starts the subscription at `latestDelivered`, i.e. non-catchup)
        /// or when the broker manages the checkpoint (JMS mode).
        ct: Option<CheckpointToken>,
        /// Filter; required on first-ever connect, ignored afterwards.
        spec: Option<SubscriptionSpec>,
        /// JMS-style subscription: the SHB persists the checkpoint token
        /// in its metadata table on acknowledgment (paper §5.2).
        broker_ct: bool,
        /// JMS auto-acknowledge: the client acknowledges every message,
        /// and the SHB serializes delivery against commit completion —
        /// the paper's most severe mode.
        auto_ack: bool,
    },
    /// Periodic acknowledgment: everything ≤ `ct` is consumed.
    Ack {
        /// The acknowledging subscription.
        sub: SubscriberId,
        /// The consumed-prefix vector clock.
        ct: CheckpointToken,
    },
    /// Graceful detach (the subscription itself stays durable).
    Disconnect {
        /// The detaching subscription.
        sub: SubscriberId,
    },
    /// Destroy the durable subscription entirely (its acknowledgments no
    /// longer hold back release).
    Unsubscribe {
        /// The subscription to destroy.
        sub: SubscriberId,
    },
}

/// One message delivered to a durable subscriber for one pubend.
///
/// Let `t0` be the timestamp of the previous message this subscriber saw
/// from the same pubend (or its checkpoint component). The three kinds
/// guarantee (paper §2):
///
/// * **Event** at `m.t`: no matching events existed in `(t0, m.t)`;
/// * **Silence** with `m.t`: no matching events existed in `(t0, m.t]`;
/// * **Gap** with `m.t`: matching events *may* have existed in `(t0, m.t]`
///   but the information was discarded by early release.
#[derive(Debug, Clone)]
pub struct DeliveryMsg {
    /// The pubend this message advances.
    pub pubend: PubendId,
    /// Event, silence or gap.
    pub kind: DeliveryKind,
}

/// Payload of a [`DeliveryMsg`].
#[derive(Debug, Clone)]
pub enum DeliveryKind {
    /// An event matching the subscription.
    Event(EventRef),
    /// Silence up to (and including) the carried timestamp.
    Silence(Timestamp),
    /// Potential loss up to (and including) the carried timestamp.
    Gap(Timestamp),
}

impl DeliveryMsg {
    /// The timestamp `m.t` this message advances the subscriber to.
    pub fn ts(&self) -> Timestamp {
        match &self.kind {
            DeliveryKind::Event(e) => e.ts,
            DeliveryKind::Silence(t) | DeliveryKind::Gap(t) => *t,
        }
    }

    /// `true` when this message carries an application event.
    pub fn is_event(&self) -> bool {
        matches!(self.kind, DeliveryKind::Event(_))
    }

    /// `true` when this message is a gap notification.
    pub fn is_gap(&self) -> bool {
        matches!(self.kind, DeliveryKind::Gap(_))
    }
}

/// Messages a broker sends to an attached client.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// Connection accepted; carries the starting checkpoint the SHB will
    /// deliver forward from (for a first connect this is `latestDelivered`).
    ConnectOk {
        /// The subscription this acknowledges.
        sub: SubscriberId,
        /// Effective resumption point.
        start: CheckpointToken,
    },
    /// Connection refused.
    ConnectErr {
        /// The subscription this refuses.
        sub: SubscriberId,
        /// Human-readable reason.
        reason: String,
    },
    /// An in-order delivery for one pubend.
    Deliver {
        /// Destination subscription.
        sub: SubscriberId,
        /// The message.
        msg: DeliveryMsg,
    },
}

/// Every message routed by the overlay runtime.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// Publisher client → hosting broker.
    Publish(PublishMsg),
    /// Parent broker → child broker (stream knowledge).
    Knowledge(KnowledgeMsg),
    /// Child broker → parent broker (nack).
    Curiosity(CuriosityMsg),
    /// Child broker → parent broker (release aggregation).
    Release(ReleaseMsg),
    /// Child broker → parent broker (subscription interest).
    SubInterest(SubInterestMsg),
    /// Client → broker.
    Client(ClientMsg),
    /// Broker → client.
    Server(ServerMsg),
}

impl NetMsg {
    /// Approximate wire size in bytes, used by bandwidth-limited links.
    ///
    /// Events dominate (the paper's 418-byte events); control messages are
    /// charged small fixed sizes.
    pub fn size_hint(&self) -> usize {
        match self {
            NetMsg::Publish(p) => {
                64 + p.payload.len() + p.attrs.keys().map(|k| k.as_str().len() + 10).sum::<usize>()
            }
            NetMsg::Knowledge(k) => k.size_hint(),
            NetMsg::Curiosity(c) => 16 + 16 * c.ranges.len(),
            NetMsg::Release(_) => 24,
            NetMsg::SubInterest(s) => 16 + s.change.size_hint(),
            NetMsg::Client(_) => 64,
            NetMsg::Server(ServerMsg::Deliver { msg, .. }) => match &msg.kind {
                DeliveryKind::Event(e) => 32 + e.encoded_len(),
                _ => 32,
            },
            NetMsg::Server(_) => 64,
        }
    }

    /// Short tag for logging/metrics.
    pub fn tag(&self) -> &'static str {
        match self {
            NetMsg::Publish(_) => "publish",
            NetMsg::Knowledge(_) => "knowledge",
            NetMsg::Curiosity(_) => "curiosity",
            NetMsg::Release(_) => "release",
            NetMsg::SubInterest(_) => "sub_interest",
            NetMsg::Client(_) => "client",
            NetMsg::Server(_) => "server",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn delivery_ts_covers_all_kinds() {
        let e = Event::builder(PubendId(0)).build_ref(Timestamp(7));
        let event = DeliveryMsg {
            pubend: PubendId(0),
            kind: DeliveryKind::Event(e),
        };
        let silence = DeliveryMsg {
            pubend: PubendId(0),
            kind: DeliveryKind::Silence(Timestamp(9)),
        };
        let gap = DeliveryMsg {
            pubend: PubendId(0),
            kind: DeliveryKind::Gap(Timestamp(11)),
        };
        assert_eq!(event.ts(), Timestamp(7));
        assert!(event.is_event() && !event.is_gap());
        assert_eq!(silence.ts(), Timestamp(9));
        assert_eq!(gap.ts(), Timestamp(11));
        assert!(gap.is_gap());
    }

    #[test]
    fn knowledge_part_range() {
        let e = Event::builder(PubendId(0)).build_ref(Timestamp(4));
        assert_eq!(KnowledgePart::Data(e).range(), (Timestamp(4), Timestamp(4)));
        assert_eq!(
            KnowledgePart::Silence {
                from: Timestamp(1),
                to: Timestamp(3)
            }
            .range(),
            (Timestamp(1), Timestamp(3))
        );
    }

    #[test]
    fn netmsg_tags_are_distinct() {
        use std::collections::HashSet;
        let msgs: Vec<NetMsg> = vec![
            NetMsg::Publish(PublishMsg {
                pubend: PubendId(0),
                attrs: Default::default(),
                payload: bytes::Bytes::new(),
            }),
            NetMsg::Knowledge(KnowledgeMsg {
                pubend: PubendId(0),
                parts: vec![],
                nack_response: false,
                interest_version: 0,
            }),
            NetMsg::Curiosity(CuriosityMsg {
                pubend: PubendId(0),
                ranges: vec![],
                authoritative: false,
            }),
            NetMsg::Release(ReleaseMsg {
                pubend: PubendId(0),
                released: Timestamp(0),
                latest_delivered: Timestamp(0),
            }),
            NetMsg::SubInterest(SubInterestMsg {
                version: 0,
                change: InterestChange::Snapshot(vec![]),
            }),
            NetMsg::Client(ClientMsg::Disconnect {
                sub: SubscriberId(0),
            }),
            NetMsg::Server(ServerMsg::ConnectErr {
                sub: SubscriberId(0),
                reason: "x".into(),
            }),
        ];
        let tags: HashSet<_> = msgs.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), msgs.len());
    }

    #[test]
    fn subscription_spec_roundtrip() {
        let s: SubscriptionSpec = "a = 1".into();
        assert_eq!(s.expr(), "a = 1");
        assert_eq!(s.to_string(), "a = 1");
    }
}
