//! A tiny std-only HTTP/1.1 server over [`std::net`].
//!
//! Built for exactly one job: serving the ops endpoints from inside a
//! training run without perturbing it. One accept thread feeds a bounded
//! queue drained by a fixed pool of worker threads; when the queue is
//! full the accept thread answers `503` inline rather than letting
//! connections pile up. Request parsing is hostile-input-safe: the
//! request head is capped, reads and writes are deadline-bounded, only
//! `GET` is accepted, and every response closes the connection — there
//! is no keep-alive state for a slow client to squat on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::hub::{OpsHub, Response};

/// Maximum request-head bytes accepted before answering `431`.
const MAX_HEAD: usize = 8 * 1024;
/// Per-connection read/write deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Worker threads serving parsed requests.
const WORKERS: usize = 4;
/// Accepted-connection queue bound; beyond this the accept thread sheds
/// load with `503`.
const BACKLOG: usize = 64;

/// The running ops server. Dropping it stops the accept loop, drains the
/// workers, and joins every thread.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Option<SyncSender<TcpStream>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, or port `0` for an ephemeral
    /// port) and starts serving `hub`'s endpoints.
    pub fn start(addr: impl ToSocketAddrs, hub: Arc<OpsHub>) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(BACKLOG);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let rx = rx.clone();
            let hub = hub.clone();
            workers.push(std::thread::spawn(move || worker_loop(&rx, &hub)));
        }

        let accept = {
            let stop = stop.clone();
            let tx = tx.clone();
            std::thread::spawn(move || accept_loop(&listener, &stop, &tx))
        };

        Ok(OpsServer {
            addr: local,
            stop,
            queue: Some(tx),
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // With the accept thread gone, dropping the last sender ends the
        // worker recv loops once the queue drains.
        self.queue = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, tx: &SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut s)) => {
                // Shed load without blocking the accept loop.
                let _ = s.set_write_timeout(Some(IO_TIMEOUT));
                let _ = write_response(&mut s, &Response::error(503, "ops server saturated"));
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, hub: &OpsHub) {
    loop {
        // Hold the receiver lock only for the dequeue, not while serving.
        let stream = match rx.lock().recv() {
            Ok(s) => s,
            Err(_) => break,
        };
        serve_connection(stream, hub);
    }
}

fn serve_connection(mut stream: TcpStream, hub: &OpsHub) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let response = match read_request_head(&mut stream) {
        Ok(head) => match parse_request_line(&head) {
            Ok(path) => hub.handle(&path),
            Err(resp) => resp,
        },
        Err(Some(resp)) => resp,
        // Read error / client gone: nothing useful to say.
        Err(None) => return,
    };
    if write_response(&mut stream, &response).is_ok() {
        lingering_close(stream);
    }
}

/// Closes a served connection without racing the peer: shut down the
/// write side, then briefly drain whatever the client is still sending
/// (an oversized head, a request body we never read). Closing with
/// unread bytes pending would RST the connection and can destroy the
/// response before the client reads it.
fn lingering_close(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Reads until the end-of-head marker (`\r\n\r\n`), the size cap, or the
/// read deadline. Returns the head bytes, `Err(Some(431))` past the cap,
/// or `Err(None)` when the connection died first.
fn read_request_head(stream: &mut TcpStream) -> Result<Vec<u8>, Option<Response>> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(None),
            Ok(n) => n,
            Err(_) => return Err(None),
        };
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            return Ok(head);
        }
        if head.len() > MAX_HEAD {
            return Err(Some(Response::error(431, "request head too large")));
        }
    }
}

/// Parses the request line out of a raw head. Tolerates `\n`-only line
/// endings, rejects non-GET methods with `405` and anything malformed —
/// binary garbage, missing path, non-HTTP version, non-ASCII control
/// bytes — with `400`.
fn parse_request_line(head: &[u8]) -> Result<String, Response> {
    let line_end = head
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| Response::error(400, "malformed request"))?;
    let line = &head[..line_end];
    let line = std::str::from_utf8(line)
        .map_err(|_| Response::error(400, "malformed request"))?
        .trim_end_matches('\r');
    if line.bytes().any(|b| b < 0x20 || b == 0x7f) {
        return Err(Response::error(400, "malformed request"));
    }
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| Response::error(400, "malformed request"))?;
    let target = parts
        .next()
        .ok_or_else(|| Response::error(400, "malformed request"))?;
    let version = parts
        .next()
        .ok_or_else(|| Response::error(400, "malformed request"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "unsupported protocol"));
    }
    if method != "GET" {
        return Err(Response::error(405, "only GET is served"));
    }
    if !target.starts_with('/') || target.len() > 2048 {
        return Err(Response::error(400, "malformed request target"));
    }
    Ok(target.to_string())
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_telemetry::Telemetry;

    fn start_server() -> (OpsServer, Telemetry) {
        let tel = Telemetry::with_echo(64, None);
        let hub = Arc::new(OpsHub::new(tel.clone()));
        let srv = OpsServer::start("127.0.0.1:0", hub).expect("bind ephemeral port");
        (srv, tel)
    }

    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = s.write_all(bytes);
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        raw_request(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
        )
    }

    #[test]
    fn serves_endpoints_over_tcp() {
        let (srv, tel) = start_server();
        let addr = srv.local_addr();
        tel.registry().counter("vc_http_test").add(9);

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        assert!(health.contains("Connection: close"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("vc_http_test 9"), "{metrics}");
        let status = get(addr, "/status");
        assert!(status.contains("application/json"), "{status}");
        let dash = get(addr, "/");
        assert!(dash.contains("text/html"), "{dash}");
        assert!(get(addr, "/missing").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn hostile_requests_get_clean_errors() {
        let (srv, _tel) = start_server();
        let addr = srv.local_addr();

        assert!(
            raw_request(addr, b"POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"),
            "non-GET is refused"
        );
        assert!(
            raw_request(addr, b"\x00\x01\x02\xff\xfe garbage\r\n\r\n").starts_with("HTTP/1.1 400"),
            "binary garbage is refused"
        );
        assert!(
            raw_request(addr, b"GET\r\n\r\n").starts_with("HTTP/1.1 400"),
            "missing target is refused"
        );
        assert!(
            raw_request(addr, b"GET /metrics SPDY/3\r\n\r\n").starts_with("HTTP/1.1 400"),
            "non-HTTP version is refused"
        );
        assert!(
            raw_request(addr, b"GET metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 400"),
            "relative target is refused"
        );

        // An oversized head is cut off with 431, not buffered forever.
        let mut big = Vec::from(&b"GET /metrics HTTP/1.1\r\n"[..]);
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD + 1024));
        big.extend_from_slice(b"\r\n\r\n");
        assert!(
            raw_request(addr, &big).starts_with("HTTP/1.1 431"),
            "oversized head is refused"
        );

        // A half-open client that sends nothing and hangs up gets no
        // response and must not wedge a worker: the server still answers
        // afterwards.
        drop(TcpStream::connect(addr).unwrap());
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn newline_only_line_endings_are_tolerated() {
        let (srv, _tel) = start_server();
        let out = raw_request(srv.local_addr(), b"GET /healthz HTTP/1.0\n\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let (srv, _tel) = start_server();
        let addr = srv.local_addr();
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        drop(srv);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly while the port drains; a real
                // request must fail either way.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                s.read_to_string(&mut buf).is_err() || buf.is_empty()
            },
            "no thread keeps serving after drop"
        );
    }
}
