//! Real-socket transport: blocking TCP on loopback.
//!
//! One listener fronts the [`PsService`], as the one project server hands
//! every client the parameter file in the paper (§III-A). A client holds
//! one stream, and a sync is one `Fetch` request on it — the same request
//! [`crate::MemClient`] hands the service in process, handled by the same
//! [`PsService`]; the only difference is that bytes cross a socket.

use crate::client::{route_fetch_frame, FetchSink, PsClient, PsError};
use crate::codec::Codec;
use crate::service::PsService;
use crate::wire::{read_frame, FetchReq, FetchSummary, FrameReadError, SealedFrame};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A running TCP front for a [`PsService`]: one loopback listener, one
/// accept thread, and one thread per accepted connection.
pub struct TcpPsServer {
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    // Clones of every accepted connection, so shutdown can unblock the
    // connection threads' reads even while clients are still connected.
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl TcpPsServer {
    /// Binds `127.0.0.1:0` and starts serving `service`.
    pub fn start(service: Arc<PsService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stop, conns) = (stop.clone(), conns.clone());
            std::thread::Builder::new()
                .name("vc-ps-listen".to_string())
                .spawn(move || accept_loop(listener, service, stop, conns))?
        };
        Ok(TcpPsServer {
            addr,
            stop,
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
        self.stop.store(true, Ordering::SeqCst);
        // A poisoned registry still lists the sockets to close.
        for conn in self.conns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<PsService>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => break,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(clone) = stream.try_clone() {
            conns.lock().expect("ps conn registry").push(clone);
        }
        let service = service.clone();
        let stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("vc-ps-conn".to_string())
            .spawn(move || connection_loop(stream, service, stop))
            .expect("spawn ps connection");
        handles.push(handle);
    }
    for c in handles {
        let _ = c.join();
    }
}

/// Serves one connection: read a frame, handle it, write the responses.
/// Transport-level garbage (bad length, bad CRC) closes the connection;
/// protocol-level mistakes come back as error frames and the connection
/// lives on.
fn connection_loop(mut stream: TcpStream, service: Arc<PsService>, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let mut responses = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(FrameReadError::Eof) => break,
            Err(_) => break, // hostile or broken stream: drop the connection
        };
        service.handle(&frame, &mut responses);
        // Drained, not kept: a response shares its payloads with the epoch
        // snapshot, and an idle connection must not pin a retired one.
        let failed = responses
            .drain(..)
            .any(|resp| resp.write_to(&mut stream).is_err());
        if failed || stream.flush().is_err() {
            break;
        }
    }
    // A registry clone of this stream outlives us (see `TcpPsServer`'s
    // `Drop`), so dropping the fd alone would leave the socket open:
    // close it for real so the peer sees EOF.
    let _ = stream.shutdown(Shutdown::Both);
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
    /// Sends the whole want list as one request, then routes each response
    /// frame as it is read until the summary (or an error frame) ends it.
    fn fetch(
        &mut self,
        epoch: u64,
        wants: &[(u32, u64)],
        codec: Codec,
        sink: &mut FetchSink<'_>,
    ) -> Result<FetchSummary, PsError> {
        let io_err = |e: std::io::Error| PsError::Transport(e.to_string());
        let req = FetchReq {
            epoch,
            wants: wants.to_vec(),
            codec,
        };
        SealedFrame::from(req.to_frame())
            .write_to(&mut self.stream)
            .map_err(io_err)?;
        self.stream.flush().map_err(io_err)?;
        loop {
            let frame = read_frame(&mut self.stream).map_err(|e| match e {
                FrameReadError::Wire(w) => PsError::Wire(w),
                other => PsError::Transport(other.to_string()),
            })?;
            if let Some(done) = route_fetch_frame(frame, sink) {
                return done;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ShardCache;
    use crate::merge::ShardedAssimilator;
    use crate::wire::{err_code, Crc32, Frame, FrameKind};
    use bytes::Bytes;
    use std::io::Read;
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
