//! Timer-key packing.
//!
//! The sim's [`TimerKey`](gryphon_sim::TimerKey) is a bare `u64`; brokers
//! pack `(kind, epoch, pubend, param)` into it. The epoch is bumped on
//! crash recovery so periodic timers armed before a crash are recognized
//! as stale and dropped instead of doubling up.

/// Timer kinds used by [`Broker`](crate::Broker), declared in code
/// order: a kind's code is its position + 1 (so a zero key is never a
/// broker timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pubend batch window closed: snapshot the batch, start the disk
    /// write (param = pubend).
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
    /// The in-flight disk write became durable (param = pubend).
    PhbCommitDone,
    /// Flush a child's batched knowledge (param = child node id).
    KnowledgeFlush,
}

impl Kind {
    /// Every kind, in code order.
    pub const ALL: [Kind; 12] = [
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
        Kind::KnowledgeFlush,
    ];

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
    fn foreign_keys_rejected() {
        assert!(unpack(gryphon_sim::TimerKey(0)).is_none());
        assert!(unpack(gryphon_sim::TimerKey(0xFF << 56)).is_none());
    }
}
