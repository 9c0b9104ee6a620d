//! Workloads: constants, the seeded event/filter generator, and the
//! reference oracle.
//!
//! Everything the program sees is derived from `--seed` through
//! [`mix`]: event `seq` → attribute values and payload, subscriber `j` →
//! filter constants and (for `reconnect`) its disconnect phase. The
//! generator is stateless per `seq`, so the driver, the oracle and the
//! layer replays all see exactly the same inputs without sharing state.
//!
//! The oracle evaluates each generated filter *structurally* — the
//! generator knows its own `class`/`sym`/`price`/`region` constants — and
//! never calls `gryphon-matching`, so the matcher is not used to check
//! itself.

use bytes::Bytes;
use gryphon_types::{AttrName, AttrValue, Attributes, PubendId, PublishMsg};

/// Pubends hosted by the PHB; events go round-robin over them. Four
/// keeps the per-pubend rate at 500 ev/s, under the 1 000 ev/s at which
/// a pubend's 1 ms ticks start running ahead of the wall clock.
pub const PUBENDS: u32 = 4;

/// Offered rate of every workload, events per second over all pubends.
/// 2 000 ev/s keeps the two broker threads near a third of the two
/// cores; at 4 000 ev/s the probe saw CPU noise of ±8 % (README).
pub const RATE: u64 = 2_000;

/// Events published during set-up; set-up is complete when every
/// expected delivery of these has arrived.
pub const PROBE_EVENTS: u32 = 8;

/// Distinct seeded payloads events choose from (sharing them keeps the
/// generator thread off the allocator during the measured phase).
const PAYLOAD_POOL: usize = 16;

const PRICE_RANGE: i64 = 10_000;
const REGIONS: i64 = 4;
/// Subscribers per symbol in `selective` (over the 4 regions: 5 per
/// `(sym, region)`, each matching with probability ≈ ½).
const SUBS_PER_SYM: usize = 20;
/// Per cent of `selective` events whose symbol has no subscriber at
/// all; with the rest matching nobody 1 time in 6 this gives ≈ 30 % of
/// events forwarded as silence by the PHB.
const UNSUBSCRIBED_SYM_PCT: usize = 16;

/// SplitMix64 step: the one hash behind every generated value.
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 256 subscribers on 4 classes: 64 deliveries per event.
    Fanout,
    /// A thousand selective three-predicate filters, ≈ 2 matches.
    Selective,
    /// 4 KiB payloads to 4 subscribers.
    LargePayload,
    /// `fanout`'s stream, half the subscribers cycling away and back.
    Reconnect,
}

/// One workload's fixed constants.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Its name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Payload bytes per event.
    pub payload: usize,
    /// Durable subscribers hosted by the pool node.
    pub subs: usize,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// All workloads, in suite order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        kind: Kind::Fanout,
        name: "fanout",
        payload: 250,
        subs: 256,
        why: "2000 ev/s x 64 deliveries: SHB constream delivery, the SHB->client hop and PFS records do the work; matching and the event log do little (paper Fig. 4a)",
    },
    Spec {
        kind: Kind::Selective,
        name: "selective",
        payload: 250,
        subs: 1_000,
        why: "1000 selective 3-predicate filters, ~2 matches/event, ~30% matching nobody: matching at the PHB filter and the SHB, registration cost in setup_s, idle-subscriber upkeep; fan-out is bypassed",
    },
    Spec {
        kind: Kind::LargePayload,
        name: "large_payload",
        payload: 4_096,
        subs: 4,
        why: "4 KiB payloads (8 MB/s logged) to 4 subscribers: log append, CRC framing, commit (data-file fsync answered by the page cache) and byte movement on the PHB thread; matching and fan-out are bypassed",
    },
    Spec {
        kind: Kind::Reconnect,
        name: "reconnect",
        payload: 250,
        subs: 64,
        why: "fanout's stream with 32 of 64 subscribers cycling 2 s on / 1 s away: PFS reads, catchup streams, switchover and nacks beside the steady writes (paper Fig. 4b)",
    },
];

/// Looks a workload up by name.
pub fn spec_by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// A subscriber's filter, in the generator's own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubFilter {
    /// `true`.
    All,
    /// `class = k`.
    Class(i64),
    /// `sym = 'S<tag>_<sym>' && price > <price_gt> && region = <region>`.
    Sel {
        /// Symbol index.
        sym: u32,
        /// Exclusive lower price bound.
        price_gt: i64,
        /// Region constant.
        region: i64,
    },
}

/// The content-bearing fields of one generated event.
#[derive(Debug, Clone, Copy)]
pub struct Fields {
    /// `class` attribute (`fanout`).
    pub class: i64,
    /// Symbol index behind the `sym` attribute (`selective`).
    pub sym: u32,
    /// `price` attribute.
    pub price: i64,
    /// `region` attribute.
    pub region: i64,
    /// Raw hash the filler attributes and the payload choice come from.
    filler: u64,
}

/// Disconnect schedule of a cycling subscriber (`reconnect`).
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Connected time per period.
    pub on_us: u64,
    /// Away time per period.
    pub off_us: u64,
    /// Offset of the first disconnect into the stream.
    pub phase_us: u64,
}

/// Pre-interned attribute names (interning takes a lock; the driver
/// builds 2 000 events a second).
struct Names {
    seq: AttrName,
    sent_us: AttrName,
    class: AttrName,
    sym: AttrName,
    price: AttrName,
    region: AttrName,
    volume: AttrName,
    exch: AttrName,
    flag: AttrName,
    bid: AttrName,
}

/// One seeded instance of a workload.
pub struct Workload {
    /// Fixed constants.
    pub spec: Spec,
    /// The seed everything below derives from.
    pub seed: u64,
    /// Filter of subscriber `j` (subscriber ids are `j + 1`).
    pub filters: Vec<SubFilter>,
    /// Disconnect schedule of subscriber `j`, if it cycles.
    pub cycles: Vec<Option<Cycle>>,
    payloads: Vec<Bytes>,
    names: Names,
    /// Seed-derived offset of the `class` / `region` constants.
    base: i64,
    /// Seed-derived tag inside every symbol name.
    tag: u64,
    /// `selective`: subscribed symbols, and symbols events draw from.
    syms: u32,
    event_syms: u32,
    /// `selective` oracle index: `(sym, region)` → `(price_gt, sub j)`.
    sel_index: std::collections::HashMap<(u32, i64), Vec<(i64, u32)>>,
}

impl Workload {
    /// Generates the workload's filters, schedules and payload pool.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let base = (mix(seed ^ 0xB5) % 1_000) as i64;
        let tag = mix(seed ^ 0x7A6) % 10_000;
        let syms = (spec.subs / SUBS_PER_SYM).max(1) as u32;
        let event_syms = (syms as usize * 100).div_ceil(100 - UNSUBSCRIBED_SYM_PCT) as u32;
        let filters: Vec<SubFilter> = (0..spec.subs)
            .map(|j| match spec.kind {
                Kind::Fanout => SubFilter::Class(base + (j % 4) as i64),
                Kind::Selective => SubFilter::Sel {
                    sym: j as u32 % syms,
                    price_gt: (mix(seed ^ mix(0x5E1 + j as u64)) % PRICE_RANGE as u64) as i64,
                    region: base + (j as i64 / syms as i64) % REGIONS,
                },
                Kind::LargePayload | Kind::Reconnect => SubFilter::All,
            })
            .collect();
        let cycles = (0..spec.subs)
            .map(|j| {
                let cycling = spec.kind == Kind::Reconnect && j >= spec.subs / 2;
                cycling.then(|| {
                    let (on_us, off_us) = (2_000_000u64, 1_000_000u64);
                    let n = (spec.subs - spec.subs / 2) as u64;
                    let k = (j - spec.subs / 2) as u64;
                    // Phases spread evenly over the period, shifted as a
                    // whole by the seed.
                    let shift = mix(seed ^ 0xC7C) % (on_us + off_us);
                    Cycle {
                        on_us,
                        off_us,
                        phase_us: (k * (on_us + off_us) / n + shift) % (on_us + off_us),
                    }
                })
            })
            .collect();
        let payloads = (0..PAYLOAD_POOL)
            .map(|i| {
                let mut state = mix(seed ^ mix(0xFA1 + i as u64));
                let bytes: Vec<u8> = (0..spec.payload)
                    .map(|_| {
                        state = mix(state);
                        state as u8
                    })
                    .collect();
                Bytes::from(bytes)
            })
            .collect();
        let mut sel_index: std::collections::HashMap<(u32, i64), Vec<(i64, u32)>> =
            std::collections::HashMap::new();
        for (j, f) in filters.iter().enumerate() {
            if let SubFilter::Sel {
                sym,
                price_gt,
                region,
            } = *f
            {
                sel_index
                    .entry((sym, region))
                    .or_default()
                    .push((price_gt, j as u32));
            }
        }
        Workload {
            spec,
            seed,
            filters,
            cycles,
            payloads,
            names: Names {
                seq: AttrName::intern("_seq"),
                sent_us: AttrName::intern("_sent_us"),
                class: AttrName::intern("class"),
                sym: AttrName::intern("sym"),
                price: AttrName::intern("price"),
                region: AttrName::intern("region"),
                volume: AttrName::intern("volume"),
                exch: AttrName::intern("exch"),
                flag: AttrName::intern("flag"),
                bid: AttrName::intern("bid"),
            },
            base,
            tag,
            syms,
            event_syms,
            sel_index,
        }
    }

    /// The pubend event `seq` is published to.
    pub fn pubend_of(seq: u32) -> PubendId {
        PubendId(seq % PUBENDS)
    }

    /// Content fields of event `seq`.
    pub fn fields(&self, seq: u32) -> Fields {
        let h = mix(self.seed ^ mix(seq as u64));
        let h2 = mix(h);
        Fields {
            class: self.base + (h % 4) as i64,
            sym: ((h >> 8) % self.event_syms as u64) as u32,
            price: ((h >> 32) % PRICE_RANGE as u64) as i64,
            region: self.base + (h2 % REGIONS as u64) as i64,
            filler: h2,
        }
    }

    fn sym_name(&self, sym: u32) -> String {
        format!("S{}_{}", self.tag, sym)
    }

    /// Filter expression of subscriber `j`, in the program's grammar.
    pub fn filter_expr(&self, j: usize) -> String {
        match self.filters[j] {
            SubFilter::All => "true".to_owned(),
            SubFilter::Class(k) => format!("class = {k}"),
            SubFilter::Sel {
                sym,
                price_gt,
                region,
            } => format!(
                "sym = '{}' && price > {price_gt} && region = {region}",
                self.sym_name(sym)
            ),
        }
    }

    /// Attributes of event `seq`, stamped with `_seq` and `_sent_us`.
    pub fn attrs(&self, seq: u32, sent_us: i64) -> Attributes {
        let f = self.fields(seq);
        let n = &self.names;
        let mut a = Attributes::new();
        a.insert(n.seq, AttrValue::Int(seq as i64));
        a.insert(n.sent_us, AttrValue::Int(sent_us));
        match self.spec.kind {
            Kind::Fanout => {
                a.insert(n.class, AttrValue::Int(f.class));
            }
            Kind::Selective => {
                a.insert(n.sym, AttrValue::Str(self.sym_name(f.sym)));
                a.insert(n.price, AttrValue::Int(f.price));
                a.insert(n.region, AttrValue::Int(f.region));
                a.insert(n.volume, AttrValue::Int((f.filler >> 16) as i64 % 100_000));
                a.insert(
                    n.exch,
                    AttrValue::Str(
                        ["NYSE", "LSE", "TSE", "FWB"][(f.filler >> 40) as usize % 4].into(),
                    ),
                );
                a.insert(n.flag, AttrValue::Bool(f.filler & 1 == 1));
                a.insert(n.bid, AttrValue::Float(f.price as f64 - 0.25));
            }
            Kind::LargePayload | Kind::Reconnect => {}
        }
        a
    }

    /// The publish request for event `seq`.
    pub fn publish(&self, seq: u32, sent_us: i64) -> PublishMsg {
        let f = self.fields(seq);
        PublishMsg {
            pubend: Self::pubend_of(seq),
            attrs: self.attrs(seq, sent_us),
            payload: self.payloads[(f.filler >> 48) as usize % self.payloads.len()].clone(),
        }
    }

    /// Oracle: calls `hit(j)` for every subscriber `j` whose filter
    /// event `seq` satisfies, and returns how many there are.
    pub fn matching(&self, seq: u32, mut hit: impl FnMut(usize)) -> usize {
        let f = self.fields(seq);
        match self.spec.kind {
            Kind::Fanout => {
                let k = (f.class - self.base) as usize;
                let mut n = 0;
                for j in (k..self.spec.subs).step_by(4) {
                    hit(j);
                    n += 1;
                }
                n
            }
            Kind::Selective => {
                let mut n = 0;
                if f.sym < self.syms {
                    for &(price_gt, j) in
                        self.sel_index.get(&(f.sym, f.region)).into_iter().flatten()
                    {
                        if f.price > price_gt {
                            hit(j as usize);
                            n += 1;
                        }
                    }
                }
                n
            }
            Kind::LargePayload | Kind::Reconnect => {
                (0..self.spec.subs).for_each(&mut hit);
                self.spec.subs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_matching::Filter;
    use gryphon_types::{Event, Timestamp};

    /// The structural oracle and the program's matcher must agree on the
    /// generated inputs (the oracle is the reference; this only guards
    /// the generator against emitting filters the grammar reads
    /// differently).
    #[test]
    fn oracle_agrees_with_filter_eval_on_generated_inputs() {
        for spec in WORKLOADS {
            let w = Workload::new(spec, 7);
            let filters: Vec<Filter> = (0..spec.subs)
                .map(|j| Filter::parse(&w.filter_expr(j)).expect("generated filter parses"))
                .collect();
            let mut total = 0usize;
            let mut unmatched = 0usize;
            for seq in 0..400u32 {
                let e = Event {
                    pubend: Workload::pubend_of(seq),
                    ts: Timestamp(1),
                    attrs: w.attrs(seq, 0),
                    payload: Bytes::new(),
                };
                let mut want = Vec::new();
                let n = w.matching(seq, |j| want.push(j));
                want.sort_unstable();
                let got: Vec<usize> = (0..spec.subs).filter(|&j| filters[j].eval(&e)).collect();
                assert_eq!(got, want, "{} seq {seq}", spec.name);
                total += n;
                unmatched += usize::from(n == 0);
            }
            if spec.kind == Kind::Selective {
                let per_event = total as f64 / 400.0;
                assert!((1.5..2.8).contains(&per_event), "matches/event {per_event}");
                assert!((80..160).contains(&unmatched), "unmatched {unmatched}/400");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = WORKLOADS[1];
        let (a, b, c) = (
            Workload::new(spec, 3),
            Workload::new(spec, 3),
            Workload::new(spec, 4),
        );
        assert_eq!(a.filter_expr(17), b.filter_expr(17));
        assert_eq!(a.publish(5, 0).attrs, b.publish(5, 0).attrs);
        assert_ne!(a.filter_expr(17), c.filter_expr(17));
    }
}
