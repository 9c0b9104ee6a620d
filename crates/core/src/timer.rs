//! Timer-key packing.
//!
//! The sim's [`TimerKey`](gryphon_sim::TimerKey) is a bare `u64`; brokers
//! pack `(kind, epoch, pubend, param)` into it. The epoch is bumped on
//! crash recovery so periodic timers armed before a crash are recognized
//! as stale and dropped instead of doubling up.

use gryphon_sim::names;

/// Timer kinds used by [`Broker`](crate::Broker), declared in code
/// order: a kind's code is its position + 1 (so a zero key is never a
/// broker timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The broker's batch window closed: every hosted pubend with
    /// pending events snapshots its batch, and one disk write starts for
    /// all of them (broker-wide; no parameter).
    PhbCommit,
    /// Idle-pubend silence emission (all hosted pubends).
    PhbSilence,
    /// Release aggregation + log chopping.
    Release,
    /// Persist `released(s,p)` / `latestDelivered(p)` to the meta table.
    MetaPersist,
    /// PFS group commit.
    PfsSync,
    /// Re-nack timed-out curiosity ranges.
    RetryNacks,
    /// Silence messages to idle subscribers.
    ClientSilence,
    /// Trim knowledge caches to the retention window.
    CacheTrim,
    /// A modeled PFS batch read completed (param = sub slot, pubend).
    CatchupRead,
    /// A checkpoint-commit worker finished its transaction (param =
    /// worker index).
    CtCommit,
    /// The oldest in-flight disk write became durable: one sync for
    /// every batch its window closed (broker-wide; no parameter).
    PhbCommitDone,
}

impl Kind {
    /// Every kind, in code order.
    pub const ALL: [Kind; 11] = [
        Kind::PhbCommit,
        Kind::PhbSilence,
        Kind::Release,
        Kind::MetaPersist,
        Kind::PfsSync,
        Kind::RetryNacks,
        Kind::ClientSilence,
        Kind::CacheTrim,
        Kind::CatchupRead,
        Kind::CtCommit,
        Kind::PhbCommitDone,
    ];

    /// The counter a firing of this kind is counted under
    /// (`broker.timer.<kind>`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::PhbCommit => names::BROKER_TIMER_PHB_COMMIT,
            Kind::PhbSilence => names::BROKER_TIMER_PHB_SILENCE,
            Kind::Release => names::BROKER_TIMER_RELEASE,
            Kind::MetaPersist => names::BROKER_TIMER_META_PERSIST,
            Kind::PfsSync => names::BROKER_TIMER_PFS_SYNC,
            Kind::RetryNacks => names::BROKER_TIMER_RETRY_NACKS,
            Kind::ClientSilence => names::BROKER_TIMER_CLIENT_SILENCE,
            Kind::CacheTrim => names::BROKER_TIMER_CACHE_TRIM,
            Kind::CatchupRead => names::BROKER_TIMER_CATCHUP_READ,
            Kind::CtCommit => names::BROKER_TIMER_CT_COMMIT,
            Kind::PhbCommitDone => names::BROKER_TIMER_PHB_COMMIT_DONE,
        }
    }

    fn code(self) -> u64 {
        self as u64 + 1
    }

    fn from_code(code: u64) -> Option<Kind> {
        let i = usize::try_from(code.checked_sub(1)?).ok()?;
        Kind::ALL.get(i).copied()
    }
}

/// Decoded timer key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// What fired.
    pub kind: Kind,
    /// Restart epoch the timer was armed in.
    pub epoch: u8,
    /// Pubend parameter (16 bits).
    pub pubend: u16,
    /// Free-form parameter (subscriber slot / worker index).
    pub param: u32,
}

/// Packs a timer key: `kind(8) | epoch(8) | pubend(16) | param(32)`.
pub fn pack(kind: Kind, epoch: u8, pubend: u16, param: u32) -> gryphon_sim::TimerKey {
    gryphon_sim::TimerKey(
        (kind.code() << 56) | ((epoch as u64) << 48) | ((pubend as u64) << 32) | param as u64,
    )
}

/// Unpacks a timer key (`None` for foreign keys).
pub fn unpack(key: gryphon_sim::TimerKey) -> Option<Decoded> {
    let kind = Kind::from_code(key.0 >> 56)?;
    Some(Decoded {
        kind,
        epoch: ((key.0 >> 48) & 0xFF) as u8,
        pubend: ((key.0 >> 32) & 0xFFFF) as u16,
        param: (key.0 & 0xFFFF_FFFF) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind.code(), i as u64 + 1);
            let key = pack(kind, 7, 65_535, 0xDEAD_BEEF);
            let d = unpack(key).unwrap();
            assert_eq!(d.kind, kind);
            assert_eq!(d.epoch, 7);
            assert_eq!(d.pubend, 65_535);
            assert_eq!(d.param, 0xDEAD_BEEF);
        }
    }

    #[test]
    fn every_kind_has_its_own_registered_counter() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in Kind::ALL {
            let name = kind.name();
            assert!(name.starts_with("broker.timer."), "{name}");
            assert!(names::all().contains(&name), "{name} not registered");
            assert!(seen.insert(name), "{name} named twice");
        }
    }

    #[test]
    fn foreign_keys_rejected() {
        assert!(unpack(gryphon_sim::TimerKey(0)).is_none());
        assert!(unpack(gryphon_sim::TimerKey(0xFF << 56)).is_none());
    }
}
