//! Scrape-under-load: the live HTTP ops surface is hammered while a
//! threaded chaos fleet trains, and must never panic, block the training
//! path, or serve garbage.
//!
//! The run is the `runtime_chaos.rs` storm (preemption + respawn + delay
//! line) with tracing on; scraper threads cycle `/metrics`, `/status`,
//! `/events`, `/trace`, `/healthz` and the dashboard the whole time over
//! real loopback TCP. Every response must be a well-formed 200 with the
//! right shape, per-scrape latency stays bounded, and the run itself
//! finishes and learns exactly as it does unobserved.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_ops::{OpsHub, OpsServer, StatusSnapshot};
use vc_runtime::{FaultPlan, Runtime, RuntimeConfig};
use vc_telemetry::Telemetry;

/// One raw HTTP/1.1 GET over loopback; returns (status code, body).
fn scrape(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text_head = String::from_utf8_lossy(&buf[..buf.len().min(64)]).into_owned();
    let status: u16 = text_head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line: {text_head:?}"));
    let body_at = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .unwrap_or(buf.len());
    (status, buf[body_at..].to_vec())
}

#[test]
fn scraping_under_chaos_load_never_blocks_the_fleet() {
    let mut cfg = RuntimeConfig::test_small(22);
    cfg.job.cn = 6;
    cfg.job.tn = 2;
    cfg.job.epochs = 3;
    cfg.faults = FaultPlan {
        kill_hosts: FaultPlan::fraction_of(cfg.job.cn, 0.34),
        kill_on_nth_assignment: 1,
        respawn_after_s: Some(0.3),
        max_msg_delay_s: 0.01,
        ..FaultPlan::none()
    };
    cfg.faults.seed = 22;
    cfg.trace = true;

    let tel = Telemetry::silent();
    let hub = Arc::new(OpsHub::new(tel.clone()));
    let server = OpsServer::start("127.0.0.1:0", hub.clone()).expect("bind ops server");
    let addr = server.local_addr();

    let runtime = Runtime::new(cfg.clone())
        .unwrap()
        .with_telemetry(tel)
        .with_ops_hub(hub.clone());
    let run = std::thread::spawn(move || runtime.run());

    // Hammer every endpoint from two scraper threads until the run ends.
    let done = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let mut scrapers = Vec::new();
    for t in 0..2 {
        let done = done.clone();
        let scrapes = scrapes.clone();
        scrapers.push(std::thread::spawn(move || {
            let paths = ["/metrics", "/status", "/events", "/trace", "/healthz", "/"];
            let mut worst = Duration::ZERO;
            let mut i = t; // desynchronize the two scrapers
            while !done.load(Ordering::Relaxed) {
                let path = paths[i % paths.len()];
                i += 1;
                let t0 = Instant::now();
                let (status, body) = scrape(addr, path);
                worst = worst.max(t0.elapsed());
                assert_eq!(status, 200, "{path} under load");
                // /metrics and /events may be legitimately empty in the
                // first instants, before the run registers anything.
                if !matches!(path, "/metrics" | "/events") {
                    assert!(!body.is_empty(), "{path}: empty body under load");
                }
                if path == "/status" {
                    let snap: StatusSnapshot =
                        serde_json::from_str(std::str::from_utf8(&body).unwrap())
                            .expect("/status parses mid-run");
                    // Default snapshot until the first publish; live after.
                    assert!(
                        snap.epochs_total == 0 || snap.epochs_total == 3,
                        "garbled snapshot: {snap:?}"
                    );
                }
                scrapes.fetch_add(1, Ordering::Relaxed);
            }
            worst
        }));
    }

    let report = run.join().expect("run thread").expect("run finishes");
    done.store(true, Ordering::Relaxed);
    let worst = scrapers
        .into_iter()
        .map(|h| h.join().expect("scraper panicked under load"))
        .fold(Duration::ZERO, Duration::max);

    // The observed run behaves like the unobserved chaos test: finishes,
    // learns, recovers all preempted hosts.
    assert!(!report.halted_early);
    assert_eq!(report.epochs.len(), 3);
    assert!(report.final_mean_acc() > 0.2, "{}", report.final_mean_acc());
    assert!(report.kills > 0 && report.respawns == report.kills);

    let n = scrapes.load(Ordering::Relaxed);
    assert!(n >= 10, "only {n} scrapes landed during the run");
    // Bounded scrape latency: generous for CI noise, but far below any
    // "scrape waits for the training path" failure mode.
    assert!(
        worst < Duration::from_secs(5),
        "worst scrape took {worst:?}"
    );

    // After the run the hub (which outlives the runtime) serves the final
    // state: done=true, with the traced run's spans in /events.
    let (status, body) = scrape(addr, "/status");
    assert_eq!(status, 200);
    let snap: StatusSnapshot = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(snap.done, "finalize published done=true");
    assert_eq!(snap.epochs_done, 3);
    let (status, body) = scrape(addr, "/events");
    assert_eq!(status, 200);
    let events = String::from_utf8(body).unwrap();
    assert!(
        events.lines().any(|l| l.contains("\"trace_span\"")),
        "traced run exposes spans over /events"
    );
    drop(server); // joins the accept + worker threads
}
