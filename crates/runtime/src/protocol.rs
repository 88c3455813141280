//! The channel protocol between workers, the coordinator and the
//! assimilator pool.
//!
//! The message set deliberately mirrors BOINC's HTTP scheduler RPCs: a
//! client only ever *requests work* and *reports results*; the server only
//! ever answers the request it was asked. There is no death notification —
//! when a worker disappears, the server finds out the way the real system
//! does, through assignment timeouts.

use vc_middleware::{HostId, WorkUnit, WuId};
use vc_simnet::SimTime;

/// Worker → coordinator (and assimilator → coordinator) traffic. All
/// senders share one MPMC channel; the coordinator is the single consumer.
#[derive(Debug)]
pub enum ToServer {
    /// Scheduler RPC: `host` asks for one subtask.
    RequestWork {
        /// The polling host.
        host: HostId,
    },
    /// Upload: a trained replica's parameter vector.
    Result {
        /// The reporting host.
        host: HostId,
        /// The workunit the result answers.
        wu: WuId,
        /// The replica parameters (validated server-side).
        params: Vec<f32>,
    },
    /// A parameter server finished assimilating an accepted result.
    Assimilated {
        /// The workunit whose result was assimilated.
        wu: WuId,
        /// The host whose result won the workunit (echoed from
        /// [`AssimTask::host`], so the assimilate trace span names the
        /// volunteer that produced the update).
        host: HostId,
        /// The epoch the workunit belongs to.
        epoch: usize,
        /// The shard the workunit trained.
        shard_id: usize,
        /// Validation accuracy of the post-update server copy.
        acc: f32,
        /// When the coordinator accepted the result (echoed from
        /// [`AssimTask::accepted_at`]), so assimilation latency —
        /// acceptance to blended-and-evaluated — can be measured at the
        /// coordinator without any cross-thread clock reads.
        accepted_at: SimTime,
    },
}

/// Coordinator → worker replies, one channel per worker.
#[derive(Debug)]
pub enum ToWorker {
    /// One subtask. The parameter snapshot it trains from (Eq. (2)'s
    /// `W_{s,e-1}`) is *not* shipped in the assignment: the workunit
    /// carries a shard-version manifest (`wu.param_versions`) and the
    /// worker fetches exactly the shards its cache is missing from the
    /// parameter service.
    Assign {
        /// The assigned workunit.
        wu: WorkUnit,
    },
    /// Nothing schedulable right now; poll again after the configured
    /// interval.
    NoWork,
    /// The job is over; exit.
    Shutdown,
}

/// One accepted result queued for the assimilator pool (MPMC: any free
/// parameter-server thread picks it up).
#[derive(Debug)]
pub struct AssimTask {
    /// The workunit the result answers.
    pub wu: WuId,
    /// The host whose result was accepted (the canonical replica under
    /// quorum validation).
    pub host: HostId,
    /// The epoch the workunit belongs to.
    pub epoch: usize,
    /// The shard the workunit trained.
    pub shard_id: usize,
    /// The client replica's parameters.
    pub client: Vec<f32>,
    /// When the coordinator accepted the result (its clock's reading).
    pub accepted_at: SimTime,
}

impl AssimTask {
    /// The outcome message a parameter server reports once this task is
    /// blended and the post-update server copy scored `acc`.
    pub fn assimilated(&self, acc: f32) -> ToServer {
        ToServer::Assimilated {
            wu: self.wu,
            host: self.host,
            epoch: self.epoch,
            shard_id: self.shard_id,
            acc,
            accepted_at: self.accepted_at,
        }
    }
}
