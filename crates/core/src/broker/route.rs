//! Per-pubend routing state at a broker: knowledge cache, consolidated
//! curiosity, and downstream interest for nack-response routing.

use gryphon_streams::{CuriosityStream, InterestMap, KnowledgeStream};
use gryphon_types::{KnowledgePart, NodeId, Timestamp};

/// Routing state for one pubend flowing through (or originating at) a
/// broker.
#[derive(Debug, Default)]
pub struct Route {
    /// Knowledge cache: answers downstream nacks without bothering the
    /// pubend (the paper's "caching events at intermediate brokers and
    /// SHBs"). Trimmed to a retention window; absence is never incorrect,
    /// only slower.
    pub knowledge: KnowledgeStream,
    /// Consolidated upstream curiosity: each hole is nacked to the parent
    /// once, no matter how many downstreams (or local catchup streams)
    /// want it.
    pub curiosity: CuriosityStream,
    /// Which child asked for which ranges (nack-response routing).
    pub interest: InterestMap<NodeId>,
    /// Highest tick ever seen for this pubend (steady-state hole
    /// detection bounds).
    pub max_seen: Timestamp,
}

impl Route {
    /// Applies an arriving knowledge part to the cache, clears matching
    /// curiosity, and tracks the high-water mark.
    pub fn absorb(&mut self, part: &KnowledgePart) {
        let (from, to) = part.range();
        self.knowledge.apply(part);
        self.curiosity.satisfy(from, to);
        self.max_seen = self.max_seen.max(to);
    }

    /// Splits `[from, to]` into locally answerable parts and holes.
    ///
    /// Ticks at or below the cache's trimmed base are *always* holes —
    /// the cache no longer remembers them and must not claim silence.
    pub fn answer_from_cache(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> (Vec<KnowledgePart>, Vec<(Timestamp, Timestamp)>) {
        let mut parts = Vec::new();
        let mut holes = Vec::new();
        let from = from.max(Timestamp(1));
        if from > to {
            return (parts, holes);
        }
        let lost = self.knowledge.lost_to();
        let base = self.knowledge.base();
        // Region A — the lost prefix is retained across trims: answer L,
        // all of it (it is authoritative and only grows).
        if lost >= from {
            parts.push(KnowledgePart::Lost { from, to: lost });
        }
        // Region B — above the lost prefix but inside the trimmed base:
        // the cache no longer remembers these, so they are holes.
        let b_lo = from.max(lost.next());
        let b_hi = base.min(to);
        if b_lo <= b_hi {
            holes.push((b_lo, b_hi));
        }
        // Region C — live cache contents.
        let c_lo = from.max(base.next()).max(lost.next());
        if c_lo <= to {
            parts.extend(self.knowledge.export_range(c_lo, to));
            holes.extend(self.knowledge.q_ranges(c_lo, to));
        }
        (parts, holes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{Event, PubendId, TickKind};

    fn ev(ts: u64) -> KnowledgePart {
        KnowledgePart::Data(Event::builder(PubendId(0)).build_ref(Timestamp(ts)))
    }

    fn sil(a: u64, b: u64) -> KnowledgePart {
        KnowledgePart::Silence {
            from: Timestamp(a),
            to: Timestamp(b),
        }
    }

    #[test]
    fn absorb_tracks_max_and_satisfies_curiosity() {
        let mut r = Route::default();
        r.curiosity.add_wanted(Timestamp(1), Timestamp(10), 0);
        r.absorb(&sil(1, 4));
        r.absorb(&ev(5));
        assert_eq!(r.max_seen, Timestamp(5));
        assert_eq!(
            r.curiosity.outstanding(),
            vec![(Timestamp(6), Timestamp(10))]
        );
    }

    #[test]
    fn answer_reports_known_and_holes() {
        let mut r = Route::default();
        r.absorb(&sil(1, 4));
        r.absorb(&ev(7));
        let (parts, holes) = r.answer_from_cache(Timestamp(1), Timestamp(9));
        assert_eq!(parts.len(), 2); // silence span + event
        assert_eq!(
            holes,
            vec![(Timestamp(5), Timestamp(6)), (Timestamp(8), Timestamp(9))]
        );
    }

    #[test]
    fn trimmed_prefix_is_a_hole_not_silence() {
        let mut r = Route::default();
        r.absorb(&sil(1, 20));
        r.knowledge.advance_base(Timestamp(10));
        let (parts, holes) = r.answer_from_cache(Timestamp(5), Timestamp(15));
        // Ticks 5..=10 were trimmed: they must come back as holes.
        assert_eq!(holes, vec![(Timestamp(5), Timestamp(10))]);
        // Ticks 11..=15 still known as silence.
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].range(), (Timestamp(11), Timestamp(15)));
    }

    #[test]
    fn lost_prefix_survives_trim_in_answers() {
        let mut r = Route::default();
        r.absorb(&KnowledgePart::Lost {
            from: Timestamp(1),
            to: Timestamp(6),
        });
        r.absorb(&sil(7, 12));
        r.knowledge.advance_base(Timestamp(9));
        let (parts, holes) = r.answer_from_cache(Timestamp(2), Timestamp(12));
        // L is retained below base; only the trimmed S range (7..=9) holes.
        assert!(parts
            .iter()
            .any(|p| matches!(p, KnowledgePart::Lost { .. })));
        assert_eq!(holes, vec![(Timestamp(7), Timestamp(9))]);
        let _ = TickKind::L;
    }
}
