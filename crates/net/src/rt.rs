//! The real-clock, really-concurrent runtime backend.
//!
//! [`RealNet`] wires N nodes together with plain `std::sync::mpsc`
//! channels — zero dependencies, one channel per node. After registering
//! every node, the builder is split into per-node [`RealEndpoint`] handles;
//! each endpoint owns its node's receiver plus a sender to every peer and
//! is `Send`, so one `std::thread` per node runs genuinely in parallel.
//! Time comes from a shared [`RealClock`], so timestamps across threads are
//! mutually comparable.
//!
//! A node's channel is its single **inbox**: it carries both fabric
//! envelopes from peers and commands of type `C` from whoever drives the
//! node (posted through a [`CommandSender`]). A worker thread blocks in
//! [`RealEndpoint::recv_until`] until either kind arrives or its next
//! timer deadline passes, so an idle node neither sleeps nor polls.
//!
//! An endpoint implements [`Fabric`], the same trait the deterministic
//! [`SimNet`](crate::SimNet) implements, so the entire dosgi stack runs on
//! either backend unchanged; [`Fabric::drain`] returns only the
//! envelopes. What the real backend deliberately does *not* reproduce:
//! seeded loss/jitter, partitions, crash-stop faults, or any determinism —
//! it exists to measure real hardware, not to replay schedules.

use crate::{Clock, Envelope, Fabric, NodeId, RealClock, SimTime};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// One item in a node's inbox.
#[derive(Debug)]
enum Inbound<M, C> {
    /// A fabric message from a peer.
    Envelope(Envelope<M>),
    /// A command from the node's driver.
    Command(C),
}

/// Builder for a set of mutually connected [`RealEndpoint`]s whose inboxes
/// also accept commands of type `C`.
#[derive(Debug)]
pub struct RealNet<M, C = ()> {
    clock: RealClock,
    senders: Vec<Sender<Inbound<M, C>>>,
    receivers: Vec<Option<Receiver<Inbound<M, C>>>>,
}

impl<M, C> RealNet<M, C> {
    /// A new, empty fabric with a fresh monotonic epoch.
    pub fn new() -> Self {
        RealNet {
            clock: RealClock::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// Registers a new node and returns its id. Ids are dense and stable,
    /// matching [`SimNet::register_node`](crate::SimNet::register_node).
    pub fn register_node(&mut self) -> NodeId {
        let id = NodeId(self.senders.len() as u32);
        let (tx, rx) = channel();
        self.senders.push(tx);
        self.receivers.push(Some(rx));
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// The shared clock (one epoch for the whole fabric).
    pub fn clock(&self) -> RealClock {
        self.clock.clone()
    }

    /// A handle that posts commands into `node`'s inbox.
    pub fn commands(&self, node: NodeId) -> CommandSender<M, C> {
        CommandSender {
            tx: self.senders[node.index()].clone(),
        }
    }

    /// Detaches `node`'s endpoint: its receiver, a sender to every peer,
    /// and a handle on the shared clock. Call once per node, after all
    /// nodes are registered (an endpoint only knows the peers registered
    /// before it was taken).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint for `node` was already taken.
    pub fn endpoint(&mut self, node: NodeId) -> RealEndpoint<M, C> {
        let rx = self.receivers[node.index()]
            .take()
            .expect("endpoint already taken");
        RealEndpoint {
            id: node,
            clock: self.clock.clone(),
            rx,
            peers: self.senders.clone(),
            mail: Vec::new(),
            commands: VecDeque::new(),
        }
    }
}

impl<M, C> Default for RealNet<M, C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Posts commands into one node's inbox. Cheap to clone and `Send`.
#[derive(Debug)]
pub struct CommandSender<M, C> {
    tx: Sender<Inbound<M, C>>,
}

impl<M, C> Clone for CommandSender<M, C> {
    fn clone(&self) -> Self {
        CommandSender {
            tx: self.tx.clone(),
        }
    }
}

impl<M, C> CommandSender<M, C> {
    /// Queues `cmd` and wakes the node if it is blocked in
    /// [`RealEndpoint::recv_until`].
    ///
    /// # Errors
    ///
    /// Gives `cmd` back when the node's endpoint has been dropped.
    pub fn send(&self, cmd: C) -> Result<(), C> {
        self.tx.send(Inbound::Command(cmd)).map_err(|e| match e.0 {
            Inbound::Command(c) => c,
            Inbound::Envelope(_) => unreachable!("only commands are sent here"),
        })
    }
}

/// One node's handle onto a [`RealNet`]: `Send`, so it moves into the
/// node's thread. Implements [`Fabric`] — `now` reads the shared monotonic
/// clock, `send` pushes onto the destination's inbox, `drain` returns the
/// envelopes received so far without blocking.
#[derive(Debug)]
pub struct RealEndpoint<M, C = ()> {
    id: NodeId,
    clock: RealClock,
    rx: Receiver<Inbound<M, C>>,
    peers: Vec<Sender<Inbound<M, C>>>,
    // Items already taken off the channel, split by kind.
    mail: Vec<Envelope<M>>,
    commands: VecDeque<C>,
}

impl<M, C> RealEndpoint<M, C> {
    /// The node this endpoint belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Blocks until the inbox holds an item or this clock reaches
    /// `deadline` ([`SimTime::MAX`] waits without a deadline), then takes
    /// everything queued: envelopes are kept for the next
    /// [`drain`](Fabric::drain), commands for
    /// [`next_command`](Self::next_command). Returns at once if commands
    /// are already waiting or the deadline has passed. Returns whether any
    /// envelope arrived.
    pub fn recv_until(&mut self, deadline: SimTime) -> bool {
        let mut mail = false;
        if self.commands.is_empty() {
            let first = match self.clock.instant_at(deadline) {
                None => self.rx.recv().ok(),
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        None
                    } else {
                        self.rx.recv_timeout(wait).ok()
                    }
                }
            };
            if let Some(item) = first {
                mail |= self.stash(item);
            }
        }
        mail | self.collect()
    }

    /// The oldest command taken off the inbox and not yet handed out.
    pub fn next_command(&mut self) -> Option<C> {
        self.commands.pop_front()
    }

    /// Moves everything queued on the channel into the local buffers
    /// without blocking; returns whether any envelope arrived.
    fn collect(&mut self) -> bool {
        let mut mail = false;
        while let Ok(item) = self.rx.try_recv() {
            mail |= self.stash(item);
        }
        mail
    }

    fn stash(&mut self, item: Inbound<M, C>) -> bool {
        match item {
            Inbound::Envelope(env) => {
                self.mail.push(env);
                true
            }
            Inbound::Command(cmd) => {
                self.commands.push_back(cmd);
                false
            }
        }
    }
}

impl<M, C> Fabric<M> for RealEndpoint<M, C> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Delivery is immediate (the receiver sees it on its next drain and
    /// a blocked receiver wakes); a send to a node whose endpoint was
    /// dropped is silently discarded, mirroring the sim's crash-stop
    /// semantics.
    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        let Some(tx) = self.peers.get(to.index()) else {
            return;
        };
        let now = self.clock.now();
        let _ = tx.send(Inbound::Envelope(Envelope {
            from,
            to,
            sent_at: now,
            delivered_at: now,
            payload,
        }));
    }

    /// # Panics
    ///
    /// Panics if `node` is not this endpoint's node — an endpoint only
    /// holds its own mailbox.
    fn drain(&mut self, node: NodeId) -> Vec<Envelope<M>> {
        assert_eq!(node, self.id, "an endpoint only drains its own mailbox");
        self.collect();
        std::mem::take(&mut self.mail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::time::Duration;

    #[test]
    fn endpoints_exchange_messages_across_threads() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);

        let t = std::thread::spawn(move || {
            ea.send(a, b, 7);
            ea.send(a, b, 8);
            // Wait for the echo from b.
            assert!(ea.recv_until(SimTime::MAX));
            ea.drain(a)[0].payload
        });
        // b echoes the sum back to a.
        let mut got: Vec<u32> = Vec::new();
        while got.len() < 2 {
            eb.recv_until(SimTime::MAX);
            got.extend(eb.drain(b).into_iter().map(|e| e.payload));
        }
        eb.send(b, a, got.iter().sum());
        assert_eq!(t.join().unwrap(), 15);
    }

    #[test]
    fn send_to_unknown_node_is_discarded() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let mut ea = net.endpoint(a);
        ea.send(a, NodeId(99), 1); // no panic, no delivery
        assert!(ea.drain(a).is_empty());
    }

    #[test]
    fn timestamps_come_from_the_shared_clock() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);
        let before = ea.now();
        ea.send(a, b, 1);
        assert!(eb.recv_until(SimTime::MAX));
        let env = eb.drain(b).pop().expect("delivered");
        assert!(env.sent_at >= before);
        assert!(eb.now() >= env.sent_at);
    }

    /// A receive blocked without a deadline wakes as soon as a peer on
    /// another thread sends.
    #[test]
    fn blocked_receive_wakes_on_a_peer_send() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            ea.send(a, b, 42);
        });
        let start = Instant::now();
        assert!(eb.recv_until(SimTime::MAX), "woken by mail");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(eb.drain(b)[0].payload, 42);
        sender.join().unwrap();
    }

    /// With nothing arriving, the receive returns once its deadline has
    /// passed on the shared clock — not before, and reporting no mail.
    #[test]
    fn receive_returns_at_its_deadline_when_nothing_arrives() {
        let mut net: RealNet<u32> = RealNet::new();
        let a = net.register_node();
        let mut ea = net.endpoint(a);
        let deadline = ea.now() + SimDuration::from_millis(15);
        assert!(!ea.recv_until(deadline));
        assert!(ea.now() >= deadline);
        assert!(ea.drain(a).is_empty());
        // A deadline already past returns at once.
        let start = Instant::now();
        assert!(!ea.recv_until(SimTime::ZERO));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// Commands share the inbox with envelopes but never reach `drain`;
    /// a queued command wakes the receiver like mail does.
    #[test]
    fn commands_share_the_inbox_but_not_the_mailbox() {
        let mut net: RealNet<u32, &'static str> = RealNet::new();
        let a = net.register_node();
        let b = net.register_node();
        let cmds = net.commands(b);
        let mut ea = net.endpoint(a);
        let mut eb = net.endpoint(b);
        cmds.send("deploy").unwrap();
        ea.send(a, b, 5);
        cmds.clone().send("probe").unwrap();
        assert!(eb.recv_until(SimTime::MAX), "the envelope counts as mail");
        assert_eq!(eb.next_command(), Some("deploy"));
        assert_eq!(eb.next_command(), Some("probe"));
        assert_eq!(eb.next_command(), None);
        let mail: Vec<u32> = eb.drain(b).into_iter().map(|e| e.payload).collect();
        assert_eq!(mail, vec![5]);

        cmds.send("health").unwrap();
        assert!(!eb.recv_until(SimTime::MAX), "a command alone is not mail");
        assert_eq!(eb.next_command(), Some("health"));
        drop(eb);
        assert_eq!(cmds.send("late"), Err("late"), "endpoint gone");
    }
}
