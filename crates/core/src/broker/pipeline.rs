//! Per-pubend pipeline state: everything a broker keeps about one
//! pubend, in one place.
//!
//! Before this struct existed the broker smeared per-pubend state across
//! parallel maps (`pubends`, `routes`, `child_release`,
//! `last_release_reported`), all keyed by [`PubendId`] and all looked up
//! separately. Consolidating them means one lookup per message, no way
//! for the maps to drift out of sync, and a single unit to create,
//! restore or drop.

use super::{Broker, Pubend, Route};
use gryphon_types::{NodeId, PubendId, Timestamp};
use std::collections::HashMap;

/// All broker state scoped to a single pubend.
///
/// Created lazily the first time any message mentions the pubend (or at
/// boot for hosted pubends); `Default` is the correct empty state for
/// every field.
#[derive(Debug, Default)]
pub(crate) struct PubendPipeline {
    /// The authoritative pubend state machine — `Some` only on the
    /// hosting broker (PHB role).
    pub(crate) pubend: Option<Pubend>,
    /// Routing state: knowledge cache, consolidated curiosity, and
    /// downstream interest (intermediate role).
    pub(crate) route: Route,
    /// Latest release report per child broker (release aggregation).
    pub(crate) child_release: HashMap<NodeId, (Timestamp, Timestamp)>,
    /// Last release point reported for this pubend, so the release timer
    /// only emits a `ReleaseAdvanced` trace on actual progress.
    pub(crate) last_release_reported: Timestamp,
}

impl Broker {
    /// The pipeline for `p`, created empty on first touch.
    pub(crate) fn pipeline_mut(&mut self, p: PubendId) -> &mut PubendPipeline {
        self.pipelines.entry(p).or_default()
    }

    /// Whether this broker hosts (is authoritative for) pubend `p`.
    pub(crate) fn hosts(&self, p: PubendId) -> bool {
        self.pipelines.get(&p).is_some_and(|pl| pl.pubend.is_some())
    }

    /// The hosted pubend state for `p`, if this broker is its PHB.
    pub(crate) fn hosted_mut(&mut self, p: PubendId) -> Option<&mut Pubend> {
        self.pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut())
    }

    /// Every pubend this broker has a pipeline for, in sorted order so
    /// periodic sweeps emit messages deterministically regardless of map
    /// iteration order.
    pub(crate) fn pipeline_ids(&self) -> Vec<PubendId> {
        let mut ids: Vec<PubendId> = self.pipelines.keys().copied().collect();
        ids.sort_by_key(|p| p.0);
        ids
    }
}
