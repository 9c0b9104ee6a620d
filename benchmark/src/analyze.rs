//! Per-layer numbers of the traced pass: busy time per node and message
//! kind, link waits, and the per-event stage budget joined on `_seq`.

use crate::gen::{Workload, PROBE_EVENTS, RATE};
use crate::metrics::Values;
use crate::run::{Pass, Traces};
use crate::stats::{median, quantile};
use crate::trace::{kind_name, NodeTrace, Send, Span, KIND_TIMER};
use std::io::Write;
use std::path::Path;

const PHB: u8 = 0;
const SHB: u8 = 1;
const POOL: u8 = 2;
const K_PUBLISH: u8 = 0;
const K_KNOWLEDGE: u8 = 1;
const K_CLIENT: u8 = 5;
const K_SERVER: u8 = 6;

/// The stage budget's columns, in path order.
const STAGES: [&str; 7] = [
    "stage.inject_wait_us",
    "stage.phb_batch_wait_us",
    "stage.phb_commit_busy_us",
    "stage.phb_shb_wait_us",
    "stage.shb_busy_us",
    "stage.shb_hold_us",
    "stage.shb_pool_wait_us",
];

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| us(n)).collect::<Vec<_>>())
}

fn sends_to(t: &NodeTrace, node: u8) -> Vec<&Send> {
    t.sends.iter().filter(|s| s.to == node).collect()
}

fn spans_from(t: &NodeTrace, node: u8) -> Vec<&Span> {
    t.spans
        .iter()
        .filter(|s| s.from == node && s.kind < KIND_TIMER)
        .collect()
}

/// Median wait between the k-th send on a link and the k-th receive;
/// links are FIFO per producer, so position identifies the message.
fn link_wait_us(sends: &[&Send], recvs: &[&Span], window: (u64, u64)) -> f64 {
    let waits: Vec<u64> = sends
        .iter()
        .zip(recvs)
        .filter(|(s, _)| s.t_ns >= window.0 && s.t_ns < window.1)
        .map(|(s, r)| r.start_ns.saturating_sub(s.t_ns))
        .collect();
    median_us(&waits)
}

/// Computes every `*` metric except the two overhead ratios.
pub fn traced_layer(w: &Workload, pass: &Pass) -> Values {
    let tr = pass.traces.as_ref().expect("traced pass");
    let c = &pass.counters;
    let events = pass.measured.1 as f64;
    let interval_ns = 1_000_000_000 / RATE;
    let due_ns = |seq: u32| pass.stream_start_ns + (seq - PROBE_EVENTS) as u64 * interval_ns;
    let (first, n) = pass.measured;
    let window = (due_ns(first), due_ns(first + n));
    let in_window = |s: &&Span| s.start_ns >= window.0 && s.start_ns < window.1;
    let busy = |t: &NodeTrace, pick: &dyn Fn(u8) -> bool| {
        let ns: u64 = t
            .spans
            .iter()
            .filter(in_window)
            .filter(|s| pick(s.kind))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        us(ns) / events
    };
    let mut v = Values::new();
    v.insert(
        "phb.publish_busy_us_per_event",
        busy(&tr.phb, &|k| k == K_PUBLISH),
    );
    v.insert(
        "phb.timer_busy_us_per_event",
        busy(&tr.phb, &|k| k == KIND_TIMER),
    );
    v.insert(
        "phb.other_busy_us_per_event",
        busy(&tr.phb, &|k| k != K_PUBLISH && k < KIND_TIMER),
    );
    v.insert("phb.commits_per_event", c.commits / c.published.max(1.0));
    v.insert("phb.publish_dropped", pass.failures.publish_dropped as f64);
    v.insert("ib.parts_per_batch", c.batch_parts_mean);
    v.insert(
        "ib.batches_per_event",
        c.knowledge_batches / c.published.max(1.0),
    );
    v.insert(
        "shb.knowledge_busy_us_per_event",
        busy(&tr.shb, &|k| k == K_KNOWLEDGE),
    );
    v.insert(
        "shb.client_busy_us_per_event",
        busy(&tr.shb, &|k| k == K_CLIENT),
    );
    v.insert(
        "shb.timer_busy_us_per_event",
        busy(&tr.shb, &|k| k == KIND_TIMER),
    );
    let knowledge_in: Vec<&Span> = tr
        .shb
        .spans
        .iter()
        .filter(in_window)
        .filter(|s| s.kind == K_KNOWLEDGE)
        .collect();
    v.insert(
        "shb.events_per_knowledge_msg",
        knowledge_in.iter().map(|s| s.seq_n as f64).sum::<f64>() / knowledge_in.len().max(1) as f64,
    );
    let delivered = c.constream_delivered + c.catchup_delivered;
    v.insert(
        "shb.catchup_share",
        c.catchup_delivered / delivered.max(1.0),
    );
    let mut catchup = pass.catchup_ms.clone();
    v.insert("shb.catchup_ms_p50", quantile(&mut catchup, 0.5));
    v.insert("shb.catchup_ms_p90", quantile(&mut catchup, 0.9));
    v.insert(
        "shb.nacks_per_reconnect",
        if pass.reconnects == 0 {
            0.0
        } else {
            c.nacks_sent / pass.reconnects as f64
        },
    );
    v.insert("pfs.batch_read_records_mean", c.pfs_batch_read_records_mean);
    v.insert("storage.group_size_mean", c.commit_group_size_mean);

    let mut late: Vec<f64> = [&tr.phb, &tr.shb]
        .iter()
        .flat_map(|t| t.timer_late_ns.iter().map(|&n| us(n as u64)))
        .collect();
    v.insert("net.timer_late_us_p50", quantile(&mut late, 0.5));
    v.insert(
        "net.phb_shb_wait_us_p50",
        link_wait_us(&sends_to(&tr.phb, SHB), &spans_from(&tr.shb, PHB), window),
    );
    v.insert(
        "net.shb_pool_wait_us_p50",
        link_wait_us(&sends_to(&tr.shb, POOL), &spans_from(&tr.pool, SHB), window),
    );

    stage_budget(w, pass, tr, &due_ns, &mut v);
    v
}

/// Joins every measured event's spans on `_seq` and reports the median
/// of each stage between the due instant and the receipt in the pool.
fn stage_budget(
    w: &Workload,
    pass: &Pass,
    tr: &Traces,
    due_ns: &dyn Fn(u32) -> u64,
    v: &mut Values,
) {
    let (first, n) = pass.measured;
    let measured = |seq: u32| seq >= first && seq < first + n;
    // Everything up to the end of the measured phase; a saturation
    // phase after it is not part of the budget.
    let total = tr.inject_ns.len();
    // Per seq: phb publish span start; first knowledge send to the shb
    // (instant, start of the span it was made in); first shb knowledge
    // span carrying it (start, end). 0 = never seen.
    let mut publish = vec![0u64; total];
    for s in tr.phb.spans.iter().filter(|s| s.kind == K_PUBLISH) {
        for &q in tr.phb.span_seqs(s) {
            if let Some(slot) = publish.get_mut(q as usize) {
                *slot = s.start_ns;
            }
        }
    }
    let mut emit = vec![(0u64, 0u64); total];
    for s in tr
        .phb
        .sends
        .iter()
        .filter(|s| s.kind == K_KNOWLEDGE && s.to == SHB)
    {
        for &q in tr.phb.send_seqs(s) {
            if let Some(slot) = emit.get_mut(q as usize).filter(|e| e.0 == 0) {
                *slot = (s.t_ns, tr.phb.spans[s.span as usize].start_ns);
            }
        }
    }
    let mut ingest = vec![(0u64, 0u64); total];
    for s in tr.shb.spans.iter().filter(|s| s.kind == K_KNOWLEDGE) {
        for &q in tr.shb.span_seqs(s) {
            if let Some(slot) = ingest.get_mut(q as usize).filter(|i| i.0 == 0) {
                *slot = (s.start_ns, s.end_ns);
            }
        }
    }
    let mut driver_phb = Vec::new();
    let mut silenced = 0u32;
    for seq in first..first + n {
        let q = seq as usize;
        if publish[q] != 0 {
            driver_phb.push(publish[q].saturating_sub(tr.inject_ns[q]));
            silenced += u32::from(emit[q].0 == 0);
        }
    }
    v.insert("ib.silenced_share", silenced as f64 / n as f64);
    v.insert("net.driver_phb_wait_us_p50", median_us(&driver_phb));

    // Per delivery, keyed (subscriber, seq): the shb's Deliver send and
    // the pool's receive span. Only subscribers that never disconnect
    // are joined — a delivery in flight across a disconnect is sent
    // twice by design.
    let steady = w.cycles.iter().filter(|c| c.is_none()).count() as u32;
    let key = |sub: u32, seq: u32| (sub as u64) << 32 | seq as u64;
    let mut sent: Vec<(u64, u64)> = Vec::new();
    for s in tr
        .shb
        .sends
        .iter()
        .filter(|s| s.kind == K_SERVER && s.seq_n == 1)
    {
        let seq = tr.shb.send_seqs(s)[0];
        if s.sub <= steady && measured(seq) {
            sent.push((key(s.sub, seq), s.t_ns));
        }
    }
    let mut got: Vec<(u64, u64)> = Vec::new();
    for s in tr
        .pool
        .spans
        .iter()
        .filter(|s| s.kind == K_SERVER && s.seq_n == 1)
    {
        let seq = tr.pool.span_seqs(s)[0];
        if s.sub <= steady && measured(seq) {
            got.push((key(s.sub, seq), s.start_ns));
        }
    }
    sent.sort_unstable();
    got.sort_unstable();
    // One column per stage; every joined delivery adds a row, so the
    // columns tile its path from the due instant to the receipt.
    let mut stages: [Vec<u64>; STAGES.len()] = Default::default();
    let mut e2e = Vec::new();
    let mut g = got.iter().peekable();
    for &(k, sent_ns) in &sent {
        while g.peek().is_some_and(|&&(gk, _)| gk < k) {
            g.next();
        }
        let Some(&&(gk, got_ns)) = g.peek() else {
            break;
        };
        let seq = k as u32;
        let q = seq as usize;
        let (emit_ns, emit_span_ns) = emit[q];
        let (in_start, in_end) = ingest[q];
        if gk != k || publish[q] == 0 || emit_ns == 0 || in_start == 0 {
            continue;
        }
        let row = [
            publish[q].saturating_sub(due_ns(seq)),
            emit_span_ns.saturating_sub(publish[q]),
            emit_ns.saturating_sub(emit_span_ns),
            in_start.saturating_sub(emit_ns),
            sent_ns.min(in_end).saturating_sub(in_start),
            sent_ns.saturating_sub(in_end),
            got_ns.saturating_sub(sent_ns),
        ];
        for (col, x) in stages.iter_mut().zip(row) {
            col.push(x);
        }
        e2e.push(got_ns.saturating_sub(due_ns(seq)));
    }
    let mean = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64;
    let sum_of_means: f64 = stages.iter().map(|col| mean(col)).sum();
    for (&name, col) in STAGES.iter().zip(&stages) {
        v.insert(name, median_us(col));
    }
    v.insert("stage.e2e_us", median_us(&e2e));
    // Medians do not add (the small stages are right-skewed), so the
    // tiling check is on means: every ns between due and receipt is in
    // exactly one stage iff this is 1.
    v.insert(
        "stage.sum_over_e2e",
        if e2e.is_empty() {
            0.0
        } else {
            sum_of_means / mean(&e2e)
        },
    );
    v.insert("stage.joined_deliveries", e2e.len() as f64);
}

/// Writes the broker spans of a traced pass as one JSON object per line.
pub fn write_spans(path: &Path, tr: &Traces) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (node, t) in [("phb", &tr.phb), ("shb", &tr.shb)] {
        for s in &t.spans {
            let seqs = t.span_seqs(s);
            let sends = &t.sends[s.send_lo as usize..(s.send_lo + s.send_n) as usize];
            write!(
                out,
                "{{\"node\":\"{node}\",\"kind\":\"{}\",\"from\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"events\":{}",
                kind_name(s.kind),
                s.from as i8,
                us(s.start_ns),
                us(s.end_ns),
                seqs.len()
            )?;
            if let (Some(a), Some(b)) = (seqs.first(), seqs.last()) {
                write!(out, ",\"first_seq\":{a},\"last_seq\":{b}")?;
            }
            write!(out, ",\"sends\":{}", sends.len())?;
            if let (Some(a), Some(b)) = (sends.first(), sends.last()) {
                write!(
                    out,
                    ",\"first_send_us\":{:.3},\"last_send_us\":{:.3}",
                    us(a.t_ns),
                    us(b.t_ns)
                )?;
            }
            writeln!(out, "}}")?;
        }
    }
    out.flush()
}
