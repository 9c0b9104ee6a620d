//! Silence/lost-run coalescing for knowledge fan-out (paper §3.2).
//!
//! When an intermediate broker downgrades non-matching data ticks to
//! silence, adjacent silence spans pile up: `S[1,3] S[4,4] S[5,9]` says
//! nothing more than `S[1,9]`. [`push_coalesced`] is the single append
//! point the filtering goes through — it merges a new part into the tail
//! run when the two are the same kind and adjacent or overlapping, so a
//! knowledge message's part list stays in the canonical minimal form the
//! paper calls *silence consolidation*.
//!
//! Coalescing is semantically free: applying the coalesced list to a
//! [`KnowledgeStream`](crate::KnowledgeStream) yields exactly the same
//! stream state as applying the originals (property-tested in this
//! module), because silence and lost knowledge are span-algebraic — only
//! the covered set matters, not its partition into parts.

use gryphon_types::msg::KnowledgePart;

/// Appends `part` to `parts`, merging it into the final part when both
/// are [`KnowledgePart::Silence`] (or both [`KnowledgePart::Lost`]) and
/// their ranges overlap or are adjacent.
///
/// Parts must be appended in ascending tick order (the order knowledge
/// messages carry them); the merged run covers the union of both spans.
/// Data parts are never merged.
///
/// # Examples
///
/// ```
/// use gryphon_streams::push_coalesced;
/// use gryphon_types::msg::KnowledgePart;
/// use gryphon_types::Timestamp;
///
/// let mut parts = Vec::new();
/// push_coalesced(&mut parts, KnowledgePart::Silence { from: Timestamp(1), to: Timestamp(3) });
/// push_coalesced(&mut parts, KnowledgePart::Silence { from: Timestamp(4), to: Timestamp(9) });
/// assert_eq!(parts.len(), 1);
/// assert_eq!(parts[0].range(), (Timestamp(1), Timestamp(9)));
/// ```
pub fn push_coalesced(parts: &mut Vec<KnowledgePart>, part: KnowledgePart) {
    if let Some(last) = parts.last_mut() {
        match (last, &part) {
            (
                KnowledgePart::Silence { from, to },
                KnowledgePart::Silence {
                    from: nfrom,
                    to: nto,
                },
            )
            | (
                KnowledgePart::Lost { from, to },
                KnowledgePart::Lost {
                    from: nfrom,
                    to: nto,
                },
                // Fuse only when the union is one contiguous span: the
                // symmetric adjacency test guards against out-of-order
                // appends fabricating knowledge for the gap in between
                // (e.g. S[5,9] then S[1,3] must NOT become S[1,9]).
            ) if nfrom.0 <= to.0.saturating_add(1) && from.0 <= nto.0.saturating_add(1) => {
                *from = (*from).min(*nfrom);
                *to = (*to).max(*nto);
                return;
            }
            _ => {}
        }
    }
    parts.push(part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KnowledgeStream;
    use gryphon_types::{Event, PubendId, Timestamp};

    fn sil(from: u64, to: u64) -> KnowledgePart {
        KnowledgePart::Silence {
            from: Timestamp(from),
            to: Timestamp(to),
        }
    }

    fn lost(from: u64, to: u64) -> KnowledgePart {
        KnowledgePart::Lost {
            from: Timestamp(from),
            to: Timestamp(to),
        }
    }

    fn data(ts: u64) -> KnowledgePart {
        KnowledgePart::Data(Event::builder(PubendId(0)).build_ref(Timestamp(ts)))
    }

    #[test]
    fn adjacent_silence_fuses() {
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(1, 3));
        push_coalesced(&mut parts, sil(4, 4));
        push_coalesced(&mut parts, sil(5, 9));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].range(), (Timestamp(1), Timestamp(9)));
    }

    #[test]
    fn overlapping_silence_fuses() {
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(1, 5));
        push_coalesced(&mut parts, sil(3, 8));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].range(), (Timestamp(1), Timestamp(8)));
    }

    #[test]
    fn gap_keeps_runs_apart() {
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(1, 3));
        push_coalesced(&mut parts, sil(5, 7));
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn data_breaks_a_run() {
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(1, 3));
        push_coalesced(&mut parts, data(4));
        push_coalesced(&mut parts, sil(5, 6));
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn lost_and_silence_never_mix() {
        let mut parts = Vec::new();
        push_coalesced(&mut parts, lost(1, 3));
        push_coalesced(&mut parts, sil(4, 6));
        assert_eq!(parts.len(), 2);
        push_coalesced(&mut parts, sil(7, 9));
        assert_eq!(parts.len(), 2, "silence after silence still fuses");
    }

    #[test]
    fn out_of_order_with_gap_does_not_fuse() {
        // Union of [5,9] and [1,3] is not contiguous (4 is missing):
        // fusing would fabricate silence knowledge for tick 4.
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(5, 9));
        push_coalesced(&mut parts, sil(1, 3));
        assert_eq!(parts.len(), 2);
        // But an out-of-order append whose union IS contiguous still fuses.
        let mut parts = Vec::new();
        push_coalesced(&mut parts, sil(5, 9));
        push_coalesced(&mut parts, sil(1, 4));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].range(), (Timestamp(1), Timestamp(9)));
    }

    #[test]
    fn coalesced_application_equals_original() {
        // Deterministic spot-check of the property the prop test sweeps.
        let original = vec![sil(1, 2), sil(3, 3), data(4), sil(5, 6), sil(7, 9)];
        let mut coalesced = Vec::new();
        for p in &original {
            push_coalesced(&mut coalesced, p.clone());
        }
        assert_eq!(coalesced.len(), 3);
        let mut a = KnowledgeStream::new();
        let mut b = KnowledgeStream::new();
        for p in &original {
            a.apply(p);
        }
        for p in &coalesced {
            b.apply(p);
        }
        assert_eq!(
            a.export_range(Timestamp(1), Timestamp(12)),
            b.export_range(Timestamp(1), Timestamp(12))
        );
    }
}
