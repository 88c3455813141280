//! What the frozen `benchmark/src/probes.rs` compiles against and no
//! driver calls, with the probe lines that keep each item alive:
//!
//! * `TcpPsServer::{bind, addrs, groups}` and `TcpClient::connect` —
//!   `probes.rs:439–440, 500–501`. They pass around the group count of the
//!   retired listener-per-shard-group layout and bind the one listener
//!   `start` binds, so the probes measure what the runtime runs.
//! * `TcpPsServer::shutdown` — `probes.rs:445, 516`; a drop does the same.
//! * `ShardedAssimilator::{commit_eventual, assimilate_strong}` —
//!   `probes.rs:586, 590`: copying forms of `finish` (`begin_eventual`, at
//!   `:585`, is `begin`'s body and stays in `merge.rs`).
//! * `PsService::publish_snapshot` — `probes.rs:459, 554, 567`: a publish
//!   of a vector, encoded along the layout. Tests call it too; every
//!   driver publishes blobs (`PsService::publish`).

use crate::merge::{ShardSnapshot, ShardedAssimilator};
use crate::service::PsService;
use crate::tcp::{TcpClient, TcpPsServer};
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;

#[doc(hidden)]
impl TcpPsServer {
    /// [`TcpPsServer::start`]; the group count is ignored.
    pub fn bind(service: Arc<PsService>, _groups: usize) -> std::io::Result<Self> {
        Self::start(service)
    }

    /// The one bound address, as a slice.
    pub fn addrs(&self) -> &[SocketAddr] {
        std::slice::from_ref(&self.addr)
    }

    /// Always 1: one listener serves every shard.
    pub fn groups(&self) -> usize {
        1
    }

    /// Stops serving and joins every server thread — an explicit drop.
    pub fn shutdown(self) {
        drop(self);
    }
}

#[doc(hidden)]
impl TcpClient {
    /// [`TcpClient::new`] on the one address [`TcpPsServer::addrs`] lists.
    pub fn connect(addrs: &[SocketAddr], _groups: usize) -> std::io::Result<Self> {
        match addrs {
            [addr] => Self::new(*addr),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "one parameter-service address",
            )),
        }
    }
}

#[doc(hidden)]
impl ShardedAssimilator {
    /// [`Self::finish`] of an eventual read on a copy of `client`, with the
    /// clobbered-update count.
    pub fn commit_eventual(
        &self,
        snapshot: ShardSnapshot,
        client: &[f32],
        epoch: usize,
    ) -> (Vec<f32>, u64) {
        let mut full = client.to_vec();
        let clobbered = self.blend(Some(snapshot), &mut full, epoch);
        (full, clobbered)
    }

    /// [`Self::finish`] of a strong-mode assimilation on a copy of `client`.
    pub fn assimilate_strong(&self, client: &[f32], epoch: usize) -> Vec<f32> {
        self.finish(None, client.to_vec(), epoch)
    }
}

#[doc(hidden)]
impl PsService {
    /// [`Self::publish`] of `params`, encoded along the layout, with
    /// `manifest` as the shard versions.
    pub fn publish_snapshot(&self, epoch: u64, params: &[f32], manifest: &[u64]) {
        let blobs = self.assimilator().encode_shards(params);
        assert_eq!(manifest.len(), blobs.len(), "manifest length");
        let shards: Vec<(Bytes, u64)> = blobs.into_iter().zip(manifest.iter().copied()).collect();
        self.publish(epoch, &shards);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ShardCache;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::{Consistency, VersionedStore};

    /// The probes' call shape binds the runtime's layout: whatever group
    /// count they pass, a cold sync at four shards is one request.
    #[test]
    fn probe_shims_bind_the_one_listener() {
        let assim = Arc::new(ShardedAssimilator::new(
            Arc::new(VersionedStore::new()),
            40,
            4,
            Consistency::Eventual,
            AlphaSchedule::Const(0.5),
        ));
        assim.seed_params(&[1.5; 40]);
        let svc = Arc::new(PsService::new(assim.clone()));
        svc.publish_snapshot(1, &[1.5; 40], &assim.versions());
        let server = TcpPsServer::bind(svc.clone(), 4).unwrap();
        assert_eq!(server.addrs(), [server.local_addr()]);
        let mut client = TcpClient::connect(server.addrs(), server.groups()).unwrap();
        let got = ShardCache::new(*assim.layout())
            .sync(1, &assim.versions(), &mut client)
            .unwrap()
            .to_vec();
        assert_eq!(got, [1.5; 40]);
        drop(client);
        server.shutdown();
        let ops = svc.ops();
        assert_eq!((ops.fetches, ops.shards_sent), (1, 4));
    }
}
