//! Real-socket transport: blocking TCP on loopback.
//!
//! One listener fronts the [`PsService`], as the one project server hands
//! every client the parameter file in the paper (§III-A). A client holds
//! one stream, and a sync is one `Fetch` request on it. The socket is only
//! a byte pipe: the client runs the fetch body [`crate::MemClient`] runs,
//! and each connection thread the [`PsService::serve`] the in-process
//! loopback's flush runs.

use crate::client::{fetch_over, FetchSink, PsClient, PsError};
use crate::codec::Codec;
use crate::service::PsService;
use crate::wire::FetchSummary;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running TCP front for a [`PsService`]: one loopback listener, one
/// accept thread, and one thread per open connection.
pub struct TcpPsServer {
    pub(crate) addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Conns>>,
}

/// The server's open connections, shared by the accept thread, the
/// connection threads and [`TcpPsServer`]'s `Drop`.
#[derive(Default)]
struct Conns {
    /// Set by `Drop` under this lock, so an accepted connection is either
    /// registered before the shutdown sweep or never served.
    stop: bool,
    /// A clone of each open connection's stream, so shutdown can unblock
    /// its thread's read. A connection removes its own entry as it ends.
    live: HashMap<u64, TcpStream>,
    next_id: u64,
    /// Connection threads not yet joined; each accept joins the finished.
    threads: Vec<JoinHandle<()>>,
}

impl TcpPsServer {
    /// Binds `127.0.0.1:0` and starts serving `service`.
    pub fn start(service: Arc<PsService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let conns = Arc::new(Mutex::new(Conns::default()));
        let accept = {
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("vc-ps-listen".to_string())
                .spawn(move || accept_loop(listener, service, conns))?
        };
        Ok(TcpPsServer {
            addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (the port `start` was given by the OS).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Stops serving and joins every server thread, even while clients are
/// still connected: open connection sockets are shut down, which unblocks
/// their reads mid-wait. In `Drop` so that an owner's early exit cannot
/// leave the accept thread blocked in `accept()`, pinning the [`PsService`].
impl Drop for TcpPsServer {
    fn drop(&mut self) {
        {
            let mut conns = self.conns.lock();
            conns.stop = true;
            for conn in conns.live.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, service: Arc<PsService>, conns: Arc<Mutex<Conns>>) {
    loop {
        let accepted = listener.accept();
        let mut c = conns.lock();
        if c.stop {
            break;
        }
        let Ok((stream, _)) = accepted else {
            // Out of fds (EMFILE) or a connection reset before it was
            // accepted: that connection is lost, the listener is not.
            drop(c);
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let (done, running) = std::mem::take(&mut c.threads)
            .into_iter()
            .partition(|t| t.is_finished());
        c.threads = running;
        for t in done {
            let _ = t.join();
        }
        // Out of fds for the clone, or of threads: refuse this connection
        // (dropping its stream closes it) rather than serve one `Drop`
        // could not shut down.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let id = c.next_id;
        c.next_id += 1;
        let (service, conns) = (service.clone(), conns.clone());
        let spawned = std::thread::Builder::new()
            .name("vc-ps-conn".to_string())
            .spawn(move || {
                connection_loop(stream, service);
                // The accept loop holds the lock from the spawn until this
                // entry is in, so the removal always finds it.
                conns.lock().live.remove(&id);
            });
        if let Ok(thread) = spawned {
            c.live.insert(id, clone);
            c.threads.push(thread);
        }
    }
    let threads = std::mem::take(&mut conns.lock().threads);
    for t in threads {
        let _ = t.join();
    }
}

/// Serves one connection, one [`PsService::serve`] per request.
/// Transport-level garbage (bad length, bad CRC) closes the connection;
/// protocol-level mistakes come back as error frames and the connection
/// lives on.
fn connection_loop(stream: TcpStream, service: Arc<PsService>) {
    let _ = stream.set_nodelay(true);
    // Ends on EOF, a hostile or broken stream, or a shutdown by `Drop`.
    while service.serve(&mut &stream, &mut &stream).is_ok() {}
}

/// Client side of the TCP transport: one stream to the server.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to the server listening on `addr`.
    pub fn new(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient { stream })
    }
}

impl PsClient for TcpClient {
    fn fetch(
        &mut self,
        epoch: u64,
        wants: &[(u32, u64)],
        codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError> {
        fetch_over(&mut self.stream, epoch, wants, codec, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ShardCache;
    use crate::merge::ShardedAssimilator;
    use crate::wire::{err_code, read_frame, Crc32, FetchReq, Frame, FrameKind};
    use bytes::Bytes;
    use std::io::{Read, Write};
    use std::time::Instant;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};
    use vc_tensor::codec::encode_f32s;

    fn service(n: usize, p: usize) -> Arc<PsService> {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            n,
            p,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        ));
        let params: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assim.seed_params(&params);
        let svc = Arc::new(PsService::new(assim));
        let (full, manifest) = svc.assimilator().read_params();
        svc.publish_snapshot(1, &full, &manifest);
        svc
    }

    #[test]
    fn loopback_fetch_roundtrip() {
        let svc = service(40, 8);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let mut client = TcpClient::new(server.local_addr()).unwrap();
        let (want, manifest) = svc.assimilator().read_params();
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(got, &want[..]);
        // Second sync: all cache hits, no shard crosses the socket.
        let sent_before = svc.ops().shards_sent;
        cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(svc.ops().shards_sent, sent_before);
        // One request crossed the socket, for all eight shards.
        assert_eq!(svc.ops().fetches, 1);
    }

    #[test]
    fn two_clients_share_the_server() {
        let svc = service(24, 4);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let addr = server.local_addr();
        let (want, manifest) = svc.assimilator().read_params();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let manifest = manifest.clone();
                let want = want.clone();
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let mut client = TcpClient::new(addr).unwrap();
                    let mut cache = ShardCache::new(*svc.assimilator().layout());
                    let got = cache.sync(1, &manifest, &mut client).unwrap();
                    assert_eq!(got, &want[..]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn garbage_on_the_socket_drops_the_connection_not_the_server() {
        let svc = service(10, 2);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        // Hostile connection: a forged 4 GiB length prefix.
        {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 32]).unwrap();
            // The server closes on us; either the read returns 0 or errors.
            let mut buf = [0u8; 8];
            let _ = s.read(&mut buf);
        }
        // A well-formed client still gets served afterwards.
        let mut client = TcpClient::new(server.local_addr()).unwrap();
        let (want, manifest) = svc.assimilator().read_params();
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(got, &want[..]);
    }

    /// A finished connection leaves nothing behind: after 64 connect →
    /// fetch → drop cycles the registry holds no stream clone (an open fd
    /// each) and no unjoined thread beyond the connections still open,
    /// and the listener still serves.
    #[test]
    fn finished_connections_release_their_fd_and_thread() {
        let svc = service(10, 2);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let (want, manifest) = svc.assimilator().read_params();
        let sync = |client: &mut TcpClient| {
            let mut cache = ShardCache::new(*svc.assimilator().layout());
            cache.sync(1, &manifest, client).unwrap().to_vec()
        };
        for _ in 0..64 {
            assert_eq!(
                sync(&mut TcpClient::new(server.local_addr()).unwrap()),
                want
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let c = server.conns.lock();
            if c.live.is_empty() && c.threads.iter().all(|t| t.is_finished()) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{} connections still registered",
                c.live.len()
            );
            drop(c);
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut fresh = TcpClient::new(server.local_addr()).unwrap();
        assert_eq!(sync(&mut fresh), want);
        let c = server.conns.lock();
        assert_eq!(
            (c.live.len(), c.threads.len()),
            (1, 1),
            "only the open connection"
        );
    }

    /// A start-up that fails after the bind drops the server on its early
    /// exit: the drop alone must stop the listener and release the service.
    #[test]
    fn dropping_the_server_stops_listeners_and_releases_the_service() {
        let svc = service(10, 2);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let addr = server.local_addr();
        let _client = TcpClient::new(addr).unwrap();
        assert!(
            Arc::strong_count(&svc) > 1,
            "the listener shares the service"
        );
        drop(server);
        assert_eq!(Arc::strong_count(&svc), 1, "a server thread outlived drop");
        let err = TcpStream::connect(addr).expect_err("listener still bound");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    /// A well-formed frame (valid length and CRC) carrying a kind byte
    /// `Frame` cannot express: encoded as a `Shard` frame, then the kind
    /// byte patched and the checksum redone.
    fn frame_with_kind(kind: u8, shard_id: u32, version: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Frame {
            kind: FrameKind::Shard,
            shard_id,
            version,
            payload: Bytes::copy_from_slice(payload),
        }
        .encode();
        bytes[4] = kind;
        let mut crc = Crc32::new();
        crc.update(&bytes[4..17]); // kind + shard_id + version
        crc.update(payload);
        bytes[17..21].copy_from_slice(&crc.finish().to_le_bytes());
        bytes
    }

    /// The retired write path stays shut: a legacy push (kind 4) or
    /// quantized push (kind 8) of NaNs, well-formed down to the CRC, gets
    /// its connection dropped and leaves the store exactly as it was.
    #[test]
    fn legacy_push_frames_cannot_reach_the_store() {
        let svc = service(10, 2);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let (want, manifest) = svc.assimilator().read_params();
        let nans = vec![f32::NAN; svc.assimilator().layout().len(0)];
        // Kind 4 carried the replica as a VCP1 blob, kind 8 as
        // `[base_epoch u64][codec descriptor][blob]`; both named the
        // epoch in `version`.
        let int8 = Codec::Int8 {
            error_feedback: false,
        };
        let mut delta = 1u64.to_le_bytes().to_vec();
        int8.write_desc(&mut delta);
        let mut blob = Vec::new();
        int8.encode_update(&nans, &mut blob);
        delta.extend_from_slice(&blob);
        let mut hung_up = Vec::new();
        for (kind, payload) in [(4, &encode_f32s(&nans)[..]), (8, &delta[..])] {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            s.write_all(&frame_with_kind(kind, 0, 1, payload)).unwrap();
            // No ack, no error frame: the server hangs up.
            let mut answer = Vec::new();
            let closed = match s.read_to_end(&mut answer) {
                Ok(_) => true,
                Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
            };
            hung_up.push((kind, closed, answer));
        }
        assert_eq!(svc.assimilator().versions(), manifest, "a shard moved");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&svc.assimilator().read_params().0), bits(&want));
        for (kind, closed, answer) in hung_up {
            assert!(closed, "kind {kind}: connection still open");
            assert!(answer.is_empty(), "kind {kind} was answered: {answer:?}");
        }
        // Fetching is unaffected.
        let mut client = TcpClient::new(server.local_addr()).unwrap();
        let mut cache = ShardCache::new(*svc.assimilator().layout());
        let got = cache.sync(1, &manifest, &mut client).unwrap();
        assert_eq!(bits(got), bits(&want));
    }

    /// Codec ids 1 and 3 are retired (DESIGN §12a): a fetch naming one is
    /// refused with the structured code, costs the connection nothing, and
    /// ships no shard.
    #[test]
    fn retired_codec_ids_get_a_structured_error_and_the_connection_survives() {
        let int8 = Codec::Int8 {
            error_feedback: true,
        };
        let svc = service(10, 2);
        let server = TcpPsServer::start(svc.clone()).unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let valid = FetchReq {
            epoch: 1,
            wants: vec![(0, 0), (1, 0)],
            codec: int8,
        }
        .to_frame();
        for id in [1u8, 3] {
            let mut retired = valid.clone();
            let mut payload = retired.payload.to_vec();
            let desc = payload.len() - crate::codec::DESC_LEN;
            payload[desc] = id;
            retired.payload = Bytes::from(payload);
            s.write_all(&retired.encode()).unwrap();
            let answer = read_frame(&mut s).expect("an answer, not a hang-up");
            assert_eq!(answer.kind, FrameKind::Error, "id {id}");
            assert_eq!(answer.version, err_code::UNSUPPORTED_CODEC, "id {id}");
        }
        assert_eq!(svc.ops().shards_sent, 0);
        // Same connection, valid request: both shards, then the summary.
        s.write_all(&valid.encode()).unwrap();
        for shard in 0..2 {
            let f = read_frame(&mut s).unwrap();
            assert_eq!((f.kind, f.shard_id), (FrameKind::Shard, shard));
        }
        assert_eq!(read_frame(&mut s).unwrap().kind, FrameKind::FetchDone);
        assert_eq!(svc.ops().shards_sent, 2);
        assert_eq!(svc.ops().fetches, 1);
    }
}
