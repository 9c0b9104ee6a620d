//! Every metric the benchmark prints: name, unit, direction, bound and
//! one-line definition. `BENCHMARK.json` and `README.md` repeat this
//! table; the smoke test fails if they drift apart.

use crate::run::{Pass, Slice};
use crate::stats::{median, quantile, quantile_sorted};
use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression — also the
    /// bound two sets of runs of the same code must agree within, and
    /// the bound on the inter-quartile range of ten runs. The last is
    /// what sets the four 0.15s: the widest such range seen in the final
    /// A/A sets was 9.0 % (README), and a bound must clear it with room.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

/// A generator-lateness p99 above this marks a slice's latency as
/// unusable: the slice then measured the box, not the program.
pub const MAX_SLICE_LAG_P99_US: f64 = 1_000.0;
/// The contract has every run print every metric, so a run cannot
/// refuse to report latency: when fewer slices than this are usable,
/// the least late ones make up the number and the report says so.
pub const MIN_LATENCY_SLICES: usize = 4;

/// The end-to-end metrics, the same seven on every workload.
pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", 0.20, "net build -> every subscriber ConnectOk and the probe events delivered to all their matches; median of the run's set-ups"),
    e2e("lat_p50_us", "us", 0.15, "publish due instant -> receipt in the pool; first quartile over the latency phase's on-time 0.5 s slices of the slice p50"),
    e2e("lat_p90_us", "us", 0.15, "same, of the slice p90 (p99 does not repeat on this box; it is reported ungated as gen.lat_p99_us)"),
    e2e("broker_cpu_us_per_event", "us", 0.15, "CPU of the phb and shb worker threads (schedstat) / events published, median over the CPU phase's 0.5 s slices; generator threads excluded"),
    e2e("bottleneck_cpu_us_per_event", "us", 0.15, "the larger of the two threads' CPU / events (each the median of its slice values); its reciprocal is the pipeline's capacity on unshared cores, the stand-in for saturation throughput"),
    e2e("disk_bytes_per_event", "B", 0.02, "bytes the process wrote (wchar) over the measured phase / events published: event log + PFS + meta tables; the log-once claim as a number"),
    e2e("rss_peak_mb", "MiB", 0.05, "VmHWM at stop"),
];

/// The per-layer metrics. `*` = traced pass, `+` = direct-drive replay,
/// `o` = free in every pass.
pub const PER_LAYER: [Def; 67] = [
    // core::broker PHB
    layer("phb.thread_cpu_us_per_event", "us", "lower", "o CPU of the phb thread / events"),
    layer("phb.publish_busy_us_per_event", "us", "lower", "* time inside on_message(Publish) / events"),
    layer("phb.timer_busy_us_per_event", "us", "lower", "* time inside phb timers (commit, log append, knowledge emit, IB forward) / events"),
    layer("phb.other_busy_us_per_event", "us", "lower", "* time inside other phb messages (curiosity, release, interest) / events"),
    layer("phb.commits_per_event", "1/event", "lower", "* phb.commits / phb.published"),
    layer("phb.publish_dropped", "count", "lower", "* publishes the PHB dropped"),
    // core::broker IB
    layer("ib.parts_per_batch", "count", "higher", "* mean ib.knowledge_batch_parts"),
    layer("ib.batches_per_event", "1/event", "lower", "* ib.knowledge_batches / phb.published"),
    layer("ib.silenced_share", "share", "higher", "* measured events the PHB forwarded to the SHB as silence (no subscriber matches)"),
    // core::broker SHB
    layer("shb.thread_cpu_us_per_event", "us", "lower", "o CPU of the shb thread / events"),
    layer("shb.knowledge_busy_us_per_event", "us", "lower", "* time inside on_message(Knowledge) / events"),
    layer("shb.client_busy_us_per_event", "us", "lower", "* time inside client messages (connect, ack, disconnect) / events"),
    layer("shb.timer_busy_us_per_event", "us", "lower", "* time inside shb timers (PFS sync, client silence, meta persist, catchup reads) / events"),
    layer("shb.events_per_knowledge_msg", "count", "higher", "* events carried per knowledge message received"),
    layer("shb.catchup_share", "share", "lower", "* shb.catchup_delivered / all delivered"),
    layer("shb.catchup_ms_p50", "ms", "lower", "* ConnectOk -> subscriber holds the seq newest at reconnect, per reconnect; 0 without reconnects"),
    layer("shb.catchup_ms_p90", "ms", "lower", "* same, p90"),
    layer("shb.nacks_per_reconnect", "count", "lower", "* curiosity.nacks_sent / reconnects; 0 without reconnects"),
    // core::pfs
    layer("pfs.write_ns_per_record", "ns", "lower", "+ Pfs::write_slots with the workload's slots per record"),
    layer("pfs.bytes_per_record", "B", "lower", "+ volume bytes / records written"),
    layer("pfs.sync_us_per_batch", "us", "lower", "+ Pfs::sync every 5 ms worth of records"),
    layer("pfs.read_ns_per_record", "ns", "lower", "+ Pfs::read_slot over a 1 s absence / records visited"),
    layer("pfs.batch_read_records_mean", "count", "lower", "* mean pfs.batch_read_records; 0 without catchup"),
    // gryphon-matching
    layer("matching.match_ns_per_event", "ns", "lower", "+ matches_slots_into on the workload's subscriptions and events"),
    layer("matching.matches_per_event", "count", "lower", "+ matches found per event"),
    layer("matching.any_match_ns_per_event", "ns", "lower", "+ any_match (the PHB's child-subtree filter)"),
    layer("matching.insert_ns_per_sub", "ns", "lower", "+ SubscriptionIndex::insert_at"),
    layer("matching.parse_ns_per_filter", "ns", "lower", "+ Filter::parse"),
    // gryphon-storage
    layer("storage.append_ns_per_event", "ns", "lower", "+ EventLog::append"),
    layer("storage.commit_us_per_batch", "us", "lower", "+ CommitPipeline::commit_with, batch = one pubend's 4 ms of events, store medium"),
    layer("storage.bytes_per_event", "B", "lower", "+ event log bytes / events"),
    layer("storage.read_ns_per_event", "ns", "lower", "+ EventLog::read_range over 1 s of one pubend"),
    layer("storage.chop_us_per_call", "us", "lower", "+ EventLog::chop_below, 250 ms at a time"),
    layer("storage.meta_commit_us_per_batch", "us", "lower", "+ SharedMetaTable::commit of 5 keys"),
    layer("storage.group_size_mean", "count", "higher", "* mean storage.commit.group_size"),
    layer("storage.fsync_us_p50_disk", "us", "lower", "+ the same commit through FileFactory's real sync_data in the checkout: this machine's device, not the program"),
    // gryphon-streams
    layer("streams.apply_ns_per_part", "ns", "lower", "+ KnowledgeStream::apply"),
    layer("streams.export_ns_per_tick", "ns", "lower", "+ KnowledgeStream::export_range"),
    layer("streams.curiosity_ns_per_range", "ns", "lower", "+ CuriosityStream::add_wanted + satisfy"),
    // gryphon-types
    layer("types.encoded_bytes_per_event", "B", "lower", "+ mean Event::encoded_len"),
    layer("types.publish_build_ns_per_event", "ns", "lower", "+ building one PublishMsg (attributes + payload handle)"),
    // gryphon-net and the channel stand-in
    layer("net.chan_ns_per_msg", "ns", "lower", "+ bounded channel, one producer and one consumer thread"),
    layer("net.hop_ns_per_msg", "ns", "lower", "+ one message through two no-op nodes of a NetBuilder net"),
    layer("net.timer_late_us_p50", "us", "lower", "* timer fired - timer due, phb and shb"),
    layer("net.driver_phb_wait_us_p50", "us", "lower", "* inject -> phb publish span"),
    layer("net.phb_shb_wait_us_p50", "us", "lower", "* k-th send phb->shb -> k-th receive"),
    layer("net.shb_pool_wait_us_p50", "us", "lower", "* k-th send shb->pool -> k-th receive"),
    // gryphon-sim observers
    layer("sim.observer_cpu_pct", "%", "lower", "* broker_cpu_us_per_event with default features over a --no-default-features build, minus 1"),
    // generator and tracing
    layer("gen.driver_cpu_us_per_event", "us", "lower", "o CPU of the driver thread / events"),
    layer("gen.pool_cpu_us_per_event", "us", "lower", "o CPU of the pool thread / events"),
    layer("gen.lag_p50_us", "us", "lower", "o actual - due send instant"),
    layer("gen.lag_p99_us", "us", "lower", "o same, p99"),
    layer("gen.lat_p99_us", "us", "lower", "o latency p99 over the whole measured phase (ungated: does not repeat)"),
    layer("gen.lat_p999_us", "us", "lower", "o same, p99.9"),
    layer("gen.lat_max_us", "us", "lower", "o same, max"),
    layer("gen.sat_events_per_s", "1/s", "higher", "o closed-loop saturation phase, 1024 events in flight (ungated: +-17 % on this box)"),
    layer("trace.overhead_pct", "%", "lower", "* broker_cpu_us_per_event traced over untraced, minus 1"),
    // stage budget
    layer("stage.inject_wait_us", "us", "lower", "* due -> phb publish span"),
    layer("stage.phb_batch_wait_us", "us", "lower", "* publish span -> start of the span that sends the event's knowledge (4 ms commit window + 1 ms flush)"),
    layer("stage.phb_commit_busy_us", "us", "lower", "* start of that span -> the knowledge send"),
    layer("stage.phb_shb_wait_us", "us", "lower", "* knowledge send -> shb knowledge span"),
    layer("stage.shb_busy_us", "us", "lower", "* shb knowledge span start -> Deliver sent (capped at the span's end)"),
    layer("stage.shb_hold_us", "us", "lower", "* Deliver sent after that span ended: the excess"),
    layer("stage.shb_pool_wait_us", "us", "lower", "* Deliver sent -> pool receive span"),
    layer("stage.e2e_us", "us", "lower", "* due -> pool receive span, median, traced pass"),
    layer("stage.sum_over_e2e", "ratio", "lower", "* sum of the stage means / mean due -> receipt over the joined deliveries (medians do not add); 1 when the stages tile the path, within 0.90-1.10 on fanout"),
    layer("stage.joined_deliveries", "count", "higher", "* deliveries the stage budget was joined over"),
];

fn per_event_us(ns: u64, events: u64) -> f64 {
    ns as f64 / 1_000.0 / events.max(1) as f64
}

/// The latency-phase slices whose latency is reported, and how many of
/// them ran late (generator lag p99 above [`MAX_SLICE_LAG_P99_US`]).
/// Late slices are set aside — unless that leaves fewer than
/// [`MIN_LATENCY_SLICES`], in which case the least late ones are kept.
pub fn usable_slices(pass: &Pass) -> (Vec<&Slice>, usize) {
    let lag = |s: &Slice| quantile_sorted(&s.lag_us, 0.99);
    let mut slices: Vec<&Slice> = pass.phase(true).collect();
    slices.sort_by(|a, b| lag(a).total_cmp(&lag(b)));
    let on_time = slices.partition_point(|s| lag(s) <= MAX_SLICE_LAG_P99_US);
    let late = slices.len() - on_time;
    slices.truncate(on_time.max(MIN_LATENCY_SLICES));
    (slices, late)
}

/// First quartile over the usable latency-phase slices of the slice's
/// latency quantile `q`. The box only ever adds latency, and in its bad
/// minutes it adds some to most slices, on time or not: over ten runs
/// the spread of the median of slices was 21 % where the first
/// quartile's was 9 %. A slow-down of the program shows as soon as it
/// reaches three slices in four.
fn latency(pass: &Pass, q: f64) -> f64 {
    let (usable, _) = usable_slices(pass);
    let mut values: Vec<f64> = usable
        .iter()
        .map(|s| quantile_sorted(&s.lat_us, q))
        .collect();
    quantile(&mut values, 0.25)
}

/// CPU per event: median over the CPU-phase slices of `ns(slice)` /
/// events.
pub fn cpu_per_event(pass: &Pass, ns: impl Fn(&Slice) -> u64) -> f64 {
    let values: Vec<f64> = pass
        .phase(false)
        .map(|s| per_event_us(ns(s), s.events))
        .collect();
    median(&values)
}

/// Broker CPU per event: phb + shb.
pub fn broker_cpu(pass: &Pass) -> f64 {
    cpu_per_event(pass, |s| s.phb_ns + s.shb_ns)
}

/// The seven end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Values {
    let events = pass.measured_events();
    let mut v = Values::new();
    v.insert("setup_s", median(&pass.setup_s));
    v.insert("lat_p50_us", latency(pass, 0.5));
    v.insert("lat_p90_us", latency(pass, 0.9));
    v.insert("broker_cpu_us_per_event", broker_cpu(pass));
    v.insert(
        "bottleneck_cpu_us_per_event",
        cpu_per_event(pass, |s| s.phb_ns).max(cpu_per_event(pass, |s| s.shb_ns)),
    );
    v.insert(
        "disk_bytes_per_event",
        pass.disk_bytes as f64 / events as f64,
    );
    v.insert("rss_peak_mb", pass.rss_peak_mib);
    v
}

/// The per-layer metrics that are free in every pass (`o`): thread CPU
/// from the CPU phase, generator lag and latency tail from the latency
/// phase (every slice of it, late or not).
pub fn free_layer(pass: &Pass) -> Values {
    let mut lag: Vec<u32> = pass
        .phase(true)
        .flat_map(|s| s.lag_us.iter().copied())
        .collect();
    let mut lat: Vec<f32> = pass
        .phase(true)
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    let mut v = Values::new();
    v.insert(
        "phb.thread_cpu_us_per_event",
        cpu_per_event(pass, |s| s.phb_ns),
    );
    v.insert(
        "shb.thread_cpu_us_per_event",
        cpu_per_event(pass, |s| s.shb_ns),
    );
    v.insert(
        "gen.driver_cpu_us_per_event",
        cpu_per_event(pass, |s| s.driver_ns),
    );
    v.insert(
        "gen.pool_cpu_us_per_event",
        cpu_per_event(pass, |s| s.pool_ns),
    );
    v.insert("gen.lag_p50_us", quantile(&mut lag, 0.5));
    v.insert("gen.lag_p99_us", quantile_sorted(&lag, 0.99));
    v.insert("gen.lat_p99_us", quantile(&mut lat, 0.99));
    v.insert("gen.lat_p999_us", quantile_sorted(&lat, 0.999));
    v.insert("gen.lat_max_us", quantile_sorted(&lat, 1.0));
    if pass.sat_events_per_s > 0.0 {
        v.insert("gen.sat_events_per_s", pass.sat_events_per_s);
    }
    v
}
