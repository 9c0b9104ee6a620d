//! Broker tuning knobs and the CPU-cost calibration model.

/// CPU work charged to a broker per operation, in microseconds.
///
/// The simulator does not slow message processing down by these costs; it
/// *accounts* them per node, which is how the paper's "% CPU idle" plots
/// and peak-capacity estimates are reproduced. Defaults are calibrated so
/// that one SHB saturating at ≈20 K deliveries/s matches the paper's
/// single-SHB capacity (see EXPERIMENTS.md for the calibration note).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Matching one event against the subscription index.
    pub match_us: u64,
    /// Delivering one event to one non-catchup subscriber (constream path).
    pub delivery_us: u64,
    /// Delivering one event to one catchup subscriber (separate stream:
    /// per-subscriber knowledge bookkeeping, nack initiation, PFS-driven
    /// state). The catchup/constream cost ratio reproduces the paper's
    /// "10 K ev/s all-catchup vs 20 K ev/s constream" observation.
    pub catchup_delivery_us: u64,
    /// Writing one PFS record (timestamp + matching subscriber list).
    pub pfs_record_us: u64,
    /// Visiting one record during a PFS backpointer read.
    pub pfs_read_record_us: u64,
    /// Appending one event to the PHB event log.
    pub event_log_append_us: u64,
    /// Handling any message (protocol overhead).
    pub per_msg_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            match_us: 2,
            delivery_us: 48,
            catchup_delivery_us: 96,
            pfs_record_us: 6,
            pfs_read_record_us: 1,
            event_log_append_us: 8,
            per_msg_us: 3,
        }
    }
}

/// Maximum ticks of knowledge answered per nack-response message;
/// bounds burst sizes during recovery.
pub const NACK_RESPONSE_CHUNK_TICKS: u64 = 2_000;
/// Period for persisting `released(s, p)` / `latestDelivered(p)` to the
/// metadata table (250 ms in the paper).
pub const META_PERSIST_INTERVAL_US: u64 = 250_000;
/// Period for sending silence messages to idle subscribers (keeps their
/// checkpoint tokens advancing).
pub const CLIENT_SILENCE_INTERVAL_US: u64 = 100_000;
/// Period for trimming knowledge caches to the retention window.
pub const CACHE_TRIM_INTERVAL_US: u64 = 1_000_000;
/// PFS read buffer size in Q ticks (5000 in the paper's experiments).
pub const CATCHUP_READ_BUFFER: usize = 5_000;
/// Modeled base latency of one PFS batch read.
pub const PFS_READ_BASE_US: u64 = 2_000;
/// Modeled additional PFS read latency per record visited.
pub const PFS_READ_PER_RECORD_US: u64 = 1;
/// Number of parallel commit workers for broker-managed (JMS-style)
/// checkpoint tokens (4 in the paper's JMS experiment).
pub const CT_COMMIT_WORKERS: usize = 4;
/// Modeled latency of one checkpoint-commit transaction: base cost...
pub const CT_COMMIT_BASE_US: u64 = 2_000;
/// ...plus this much per checkpoint update batched into it.
pub const CT_COMMIT_PER_UPDATE_US: u64 = 500;

/// Configuration for a [`Broker`](crate::Broker).
///
/// Defaults follow the paper's experimental setup where it states one
/// (44 ms PHB group-commit latency) and sensible middleware values
/// elsewhere. Values no caller varies are the constants above.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    // ---- PHB / pubend ----
    /// Group-commit window of a PHB: one window per broker, opened by
    /// the first publish to any of its pubends. Every publish it buffers,
    /// across all hosted pubends, shares one event-log sync.
    pub phb_commit_interval_us: u64,
    /// Modeled durability latency of one group commit (disk write +
    /// rotation; 44 ms in the paper's SSA-disk setup). Knowledge for an
    /// event is emitted downstream only after its commit completes —
    /// this is the dominant term of end-to-end latency.
    pub phb_commit_latency_us: u64,
    /// How often an idle pubend emits silence knowledge (bounds how far
    /// `latestDelivered` lags `T(p)` on a quiet stream).
    pub pubend_silence_interval_us: u64,
    /// Early-release policy `maxRetain(p)` in ticks (milliseconds of
    /// stream time); `None` disables early release (the paper's
    /// experiments disable it too).
    pub max_retain_ticks: Option<u64>,

    // ---- release protocol ----
    /// Period of upward `(released, latestDelivered)` aggregation and of
    /// release-driven log chopping.
    pub release_interval_us: u64,

    // ---- caching / routing ----
    /// How many ticks of knowledge an intermediate/SHB cache retains for
    /// answering nacks locally.
    pub cache_window_ticks: u64,

    // ---- SHB ----
    /// PFS group-commit interval: constream advances `latestDelivered`
    /// only at these sync points.
    pub pfs_sync_interval_us: u64,
    /// Flow control: maximum outstanding nacked ticks per catchup stream
    /// (the paper's scheme that avoids overwhelming the client).
    pub catchup_window_ticks: u64,

    /// CPU cost calibration.
    pub costs: CostModel,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            phb_commit_interval_us: 4_000,
            phb_commit_latency_us: 44_000,
            pubend_silence_interval_us: 20_000,
            max_retain_ticks: None,
            release_interval_us: 250_000,
            cache_window_ticks: 60_000,
            pfs_sync_interval_us: 5_000,
            catchup_window_ticks: 2_000,
            costs: CostModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = BrokerConfig::default();
        assert_eq!(c.phb_commit_latency_us, 44_000);
        assert_eq!(META_PERSIST_INTERVAL_US, 250_000);
        assert_eq!(CATCHUP_READ_BUFFER, 5_000);
        assert_eq!(CT_COMMIT_WORKERS, 4);
        assert!(c.max_retain_ticks.is_none(), "early release off by default");
    }

    #[test]
    fn cost_model_catchup_is_pricier_than_constream() {
        let m = CostModel::default();
        assert!(m.catchup_delivery_us > m.delivery_us);
    }
}
