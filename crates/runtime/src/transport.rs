//! Worker→server transport, optionally routed through a delay line.
//!
//! With fault injection enabled, every worker message is stamped with a
//! random future delivery instant and held in a [`DelayQueue`] keyed by
//! [`Instant`], which a dedicated delay-line thread releases in
//! *delivery-time* order. Messages with different draws overtake each
//! other, so the coordinator sees genuinely reordered traffic (a result
//! can arrive after the poll that was sent later, a straggler upload after
//! its workunit already timed out and was reassigned).
//!
//! The deterministic simulation (`crate::sim`) has no delay line: it
//! schedules each message as a `Deliver` event on its own event queue,
//! which is the same [`DelayQueue`] keyed by virtual time.

use crate::protocol::ToServer;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use vc_simnet::DelayQueue;

/// A worker's handle for sending to the coordinator: direct, or via the
/// delay line.
pub enum Outbox {
    /// In-order delivery straight into the coordinator's inbox.
    Direct(Sender<ToServer>),
    /// Delivery through the delay-line thread, each message held for the
    /// delay its worker drew ([`crate::worker::WorkerCore::draw_delay`]).
    Delayed(Sender<(Instant, ToServer)>),
}

impl Outbox {
    /// Sends one message, to be delivered `delay_s` from now when delayed.
    /// Returns `Err` when the coordinator (or delay line) is gone — the
    /// only failure mode, so the error carries no payload.
    #[allow(clippy::result_unit_err)]
    pub fn send(&self, delay_s: f64, msg: ToServer) -> Result<(), ()> {
        match self {
            Outbox::Direct(tx) => tx.send(msg).map_err(|_| ()),
            Outbox::Delayed(tx) => tx
                .send((Instant::now() + Duration::from_secs_f64(delay_s), msg))
                .map_err(|_| ()),
        }
    }
}

/// The delay-line thread body: stamps incoming messages into the queue and
/// releases each when its delivery instant passes. Drains the queue after
/// the input disconnects, then exits.
pub fn delay_line_main(rx: Receiver<(Instant, ToServer)>, out: Sender<ToServer>) {
    let mut queue: DelayQueue<Instant, ToServer> = DelayQueue::new();
    let mut open = true;
    while open || !queue.is_empty() {
        // Wait for the next due delivery or the next incoming message.
        let next_due = queue.peek().map(|(at, _)| at);
        if open {
            let incoming = match next_due {
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            open = false;
                            None
                        }
                    }
                }
                None => match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => {
                        open = false;
                        None
                    }
                },
            };
            if let Some((at, msg)) = incoming {
                queue.push(at, msg);
            }
        } else if let Some(at) = next_due {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        let now = Instant::now();
        while let Some((_, msg)) = queue.pop_due(now) {
            if out.send(msg).is_err() {
                return; // coordinator gone: drop the rest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vc_middleware::HostId;

    #[test]
    fn direct_outbox_preserves_order() {
        let (tx, rx) = unbounded();
        let ob = Outbox::Direct(tx);
        for i in 0..5 {
            ob.send(0.0, ToServer::RequestWork { host: HostId(i) })
                .unwrap();
        }
        for i in 0..5 {
            match rx.recv().unwrap() {
                ToServer::RequestWork { host } => assert_eq!(host, HostId(i)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn delay_line_delivers_everything_by_delivery_time() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let line = std::thread::spawn(move || delay_line_main(in_rx, out_tx));
        let ob = Outbox::Delayed(in_tx);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 64u32;
        for i in 0..n {
            let delay = rng.gen_range(0.0..=0.05);
            ob.send(delay, ToServer::RequestWork { host: HostId(i) })
                .unwrap();
        }
        drop(ob); // disconnect the input so the line drains and exits
        let mut seen = vec![false; n as usize];
        let mut reordered = false;
        let mut last = 0u32;
        for k in 0..n {
            let msg = out_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("delay line must drain every message");
            let ToServer::RequestWork { host } = msg else {
                panic!("unexpected message");
            };
            seen[host.0 as usize] = true;
            if k > 0 && host.0 < last {
                reordered = true;
            }
            last = host.0;
        }
        line.join().unwrap();
        assert!(seen.iter().all(|&s| s), "no message may be lost");
        assert!(reordered, "random delays over 64 messages must reorder");
    }
}
