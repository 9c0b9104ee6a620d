//! `scrape_smoke` — end-to-end smoke test of the live `/metrics`
//! endpoint, wired into `scripts/ci.sh`.
//!
//! Starts a real threaded PHB → SHB → subscriber pipeline
//! (`gryphon-net`), arms the telemetry sampler and the scrape endpoint,
//! pushes a burst of publishes through, then fetches `/metrics` over
//! TCP **while the net is still running** (the curl-equivalent) and
//! prints the response body to stdout. CI pipes that body through the
//! same awk Prometheus-grammar validator it applies to a bundle's
//! `snapshot.prom`. Also probes `/healthz` (must answer 200 with an `alerts N`
//! body) and, after `net.stop()`, asserts the endpoint actually went
//! away — the accept thread is joined, not leaked. Exits non-zero if
//! the pipeline delivers nothing, a fetch fails, or the body is missing
//! the telemetry gauge families.

use gryphon::{Broker, BrokerConfig, SubscriberClient, SubscriberConfig};
use gryphon_net::NetBuilder;
use gryphon_storage::MemFactory;
use gryphon_types::{NetMsg, PubendId, PublishMsg, SubscriberId};
use std::io::{Read, Write};
use std::time::Duration;

fn main() {
    const BURST: u64 = 500;
    let config = BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 100,
        pfs_sync_interval_us: 1_000,
        ..BrokerConfig::default()
    };
    // Registration order fixes node ids: phb=0, shb=1, sub=2.
    let mut builder = NetBuilder::new();
    let mut phb_node =
        Broker::new(0, Box::new(MemFactory::new()), config.clone()).hosting_pubends([PubendId(0)]);
    phb_node.add_child(gryphon_types::NodeId(1));
    let phb = builder.add_node("phb", phb_node);
    let mut shb_node = Broker::new(1, Box::new(MemFactory::new()), config).hosting_subscribers();
    shb_node.set_parent(phb.id());
    let shb = builder.add_node("shb", shb_node);
    builder.add_node(
        "sub",
        SubscriberClient::new(SubscriberId(1), shb.id(), "", SubscriberConfig::default()),
    );
    let mut net = builder.start();
    net.start_sampler(Duration::from_millis(10));
    let addr = net.serve_metrics("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("error: cannot bind scrape endpoint: {e}");
        std::process::exit(1);
    });
    std::thread::sleep(Duration::from_millis(30)); // connect
    for seq in 0..BURST {
        net.inject(
            phb.id(),
            NetMsg::Publish(PublishMsg {
                pubend: PubendId(0),
                attrs: [("_seq".into(), (seq as i64).into())].into(),
                payload: bytes::Bytes::from(vec![0u8; 128]),
            }),
        );
    }
    // Wait for the pipeline to make visible progress (bounded).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while net.counter("shb.delivered") < BURST as f64 {
        if std::time::Instant::now() > deadline {
            eprintln!(
                "error: pipeline failed to drain {BURST} deliveries in 10 s (got {})",
                net.counter("shb.delivered")
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // The curl-equivalent: raw HTTP GET against the live endpoint.
    let body = fetch(&addr.to_string(), "/metrics", true).unwrap_or_else(|e| {
        eprintln!("error: scrape failed: {e}");
        std::process::exit(1);
    });
    // Liveness probe: 200 with a machine-readable alert count.
    let health = fetch(&addr.to_string(), "/healthz", false).unwrap_or_else(|e| {
        eprintln!("error: health probe failed: {e}");
        std::process::exit(1);
    });
    if !health.starts_with("alerts ") {
        eprintln!("error: /healthz body is not an alert count: {health:?}");
        std::process::exit(1);
    }
    net.stop();
    // Clean shutdown: the accept thread is joined, so the port must
    // refuse further connections (no half-dead endpoint lingering).
    if std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_ok() {
        eprintln!("error: scrape endpoint still accepting after net.stop()");
        std::process::exit(1);
    }
    // The aggregate queue depth is unsuffixed (merged_snapshot derives
    // it); per-worker gauges keep their shard suffix (`.w0` → `_w0`).
    for family in [
        "# TYPE telemetry_queue_depth gauge",
        "# TYPE telemetry_worker_utilization_w0 gauge",
        "# TYPE shb_delivered counter",
    ] {
        if !body.contains(family) {
            eprintln!("error: scrape body is missing '{family}'");
            std::process::exit(1);
        }
    }
    // Body (not headers) to stdout for the grammar validator.
    print!("{body}");
}

/// Minimal HTTP GET: one request, `Connection: close`, returns the body.
/// `prom` additionally enforces the Prometheus exposition headers.
fn fetch(addr: &str, path: &str, prom: bool) -> std::io::Result<String> {
    let mut sock = std::net::TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut resp = String::new();
    sock.read_to_string(&mut resp)?;
    if !resp.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected response: {}", resp.lines().next().unwrap_or("")),
        ));
    }
    let (headers, body) = resp.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header terminator")
    })?;
    // Prometheus scrapers key on these; assert the server sets them.
    if prom && !headers.contains("Content-Type: text/plain; version=0.0.4") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "missing Prometheus Content-Type header",
        ));
    }
    let declared: usize = headers
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "missing Content-Length")
        })?;
    if declared != body.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("Content-Length {declared} != body {}", body.len()),
        ));
    }
    Ok(body.to_owned())
}
