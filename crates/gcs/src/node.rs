//! The per-node protocol engine: failure detection, view agreement,
//! reliable FIFO broadcast and sequencer-based total order.

use crate::{GcsConfig, GcsWire, Transport, View, ViewId};
use dosgi_net::{NodeId, SimDuration, SimTime};
use dosgi_telemetry::{Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet};

/// Events a [`GroupNode`] delivers to the layer above.
#[derive(Debug, Clone, PartialEq)]
pub enum GcsEvent<A> {
    /// A new membership view was installed.
    ViewChange {
        /// The installed view.
        view: View,
        /// Members present now but not before.
        joined: Vec<NodeId>,
        /// Members present before but not now — the trigger for the paper's
        /// failover redeployment.
        left: Vec<NodeId>,
    },
    /// A reliable-FIFO message.
    Deliver {
        /// The sender.
        from: NodeId,
        /// The payload.
        payload: A,
    },
    /// A totally-ordered message. All members of a stable view deliver
    /// these in the same `gseq` order.
    OrderedDeliver {
        /// The global sequence number (per sequencer epoch).
        gseq: u64,
        /// The original sender.
        origin: NodeId,
        /// The payload.
        payload: A,
        /// The origin's causal trace context, if the flow was traced
        /// (carried opaquely: GCS never inspects or alters it).
        trace: Option<TraceContext>,
    },
}

/// One node's endpoint of the group.
///
/// Drive it with [`handle`](Self::handle) for every incoming wire message
/// and [`tick`](Self::tick) periodically (at least once per heartbeat
/// interval); collect outputs with [`take_events`](Self::take_events).
#[derive(Debug)]
pub struct GroupNode<A> {
    id: NodeId,
    peers: Vec<NodeId>,
    config: GcsConfig,

    // Failure detection.
    incarnation: u64,
    peer_incarnations: BTreeMap<NodeId, u64>,
    last_heard: BTreeMap<NodeId, SimTime>,
    last_hb_sent: Option<SimTime>,
    departed: BTreeSet<NodeId>,

    // View agreement.
    view: View,
    proposal: Option<Proposal>,

    // Reliable FIFO.
    send_seq: u64,
    send_buffer: BTreeMap<u64, A>,
    recv_next: BTreeMap<NodeId, u64>,
    recv_ooo: BTreeMap<NodeId, BTreeMap<u64, A>>,
    last_nack: BTreeMap<NodeId, SimTime>,

    // Total order.
    order_seq: u64,
    pending_orders: BTreeMap<u64, (A, Option<TraceContext>)>,
    pending_last_sent: Option<SimTime>,
    gseq_counter: u64,
    assigned: BTreeMap<(NodeId, u64, u64), u64>,
    ordered_buffer: BTreeMap<u64, (NodeId, u64, u64, A, Option<TraceContext>)>,
    expected_gseq: u64,
    ordered_ooo: BTreeMap<u64, (NodeId, u64, u64, A, Option<TraceContext>)>,
    delivered_orders: BTreeSet<(NodeId, u64, u64)>,
    last_order_nack: Option<SimTime>,

    events: Vec<GcsEvent<A>>,
    telemetry: Telemetry,
}

#[derive(Debug)]
struct Proposal {
    view: View,
    acks: BTreeSet<NodeId>,
    last_sent: SimTime,
}

impl<A: Clone> GroupNode<A> {
    /// Creates a node for `id` in a fixed universe of `peers` (which must
    /// include `id`). The initial view optimistically contains every peer;
    /// the failure detector prunes it within a suspicion timeout.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id`.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: GcsConfig, now: SimTime) -> Self {
        assert!(peers.contains(&id), "peers must include the local node");
        let view = View::new(
            ViewId {
                epoch: 0,
                proposer: NodeId(0),
            },
            peers.clone(),
        );
        let last_heard = peers.iter().map(|p| (*p, now)).collect();
        let mut node = GroupNode {
            id,
            peers,
            config,
            incarnation: now.as_micros().wrapping_add(1),
            peer_incarnations: BTreeMap::new(),
            last_heard,
            last_hb_sent: None,
            departed: BTreeSet::new(),
            view: view.clone(),
            proposal: None,
            send_seq: 0,
            send_buffer: BTreeMap::new(),
            recv_next: BTreeMap::new(),
            recv_ooo: BTreeMap::new(),
            last_nack: BTreeMap::new(),
            order_seq: 0,
            pending_orders: BTreeMap::new(),
            pending_last_sent: None,
            gseq_counter: 0,
            assigned: BTreeMap::new(),
            ordered_buffer: BTreeMap::new(),
            expected_gseq: 1,
            ordered_ooo: BTreeMap::new(),
            delivered_orders: BTreeSet::new(),
            last_order_nack: None,
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
        };
        let members = view.members.clone();
        node.events.push(GcsEvent::ViewChange {
            view,
            joined: members,
            left: Vec::new(),
        });
        node
    }

    /// Attaches a telemetry handle (`gcs.*` metrics). Telemetry is
    /// passive: it never alters protocol behaviour.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The fixed universe size (for majority tests).
    pub fn universe(&self) -> usize {
        self.peers.len()
    }

    /// True if this node is the current view's coordinator/sequencer.
    pub fn is_coordinator(&self) -> bool {
        self.view.coordinator() == Some(self.id)
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<GcsEvent<A>> {
        std::mem::take(&mut self.events)
    }

    /// Number of ordered messages sent but not yet sequenced. A node that
    /// intends to leave gracefully must wait until this reaches zero, or
    /// its final control messages die with it.
    pub fn pending_orders(&self) -> usize {
        self.pending_orders.len()
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Reliable-FIFO broadcast to the current view (self-delivery is
    /// immediate).
    pub fn broadcast(&mut self, t: &mut impl Transport<A>, payload: A) {
        self.telemetry.incr("gcs.fifo.sent");
        self.send_seq += 1;
        self.send_buffer.insert(self.send_seq, payload.clone());
        for m in self.view.members.clone() {
            if m != self.id {
                t.send(
                    m,
                    GcsWire::Data {
                        seq: self.send_seq,
                        payload: payload.clone(),
                    },
                );
            }
        }
        self.events.push(GcsEvent::Deliver {
            from: self.id,
            payload,
        });
    }

    /// Totally-ordered broadcast: the message is sequenced by the view
    /// coordinator and delivered everywhere in global order. Retries
    /// automatically across sequencer failovers until ordered.
    ///
    /// Per-origin FIFO is preserved by keeping at most one order request
    /// outstanding: later messages queue locally until the head is
    /// sequenced (ordering traffic is low-rate control-plane traffic, so
    /// the extra round trip is immaterial).
    pub fn order(&mut self, t: &mut impl Transport<A>, payload: A) {
        self.order_traced(t, payload, None);
    }

    /// [`order`](Self::order) with a causal [`TraceContext`] that rides
    /// the wire to every deliverer. GCS carries it opaquely — tracing
    /// never alters ordering behaviour.
    pub fn order_traced(
        &mut self,
        t: &mut impl Transport<A>,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        self.telemetry.incr("gcs.order.sent");
        self.order_seq += 1;
        self.pending_orders
            .insert(self.order_seq, (payload.clone(), trace));
        let is_head = self.pending_orders.len() == 1;
        let origin_seq = self.order_seq;
        if !is_head {
            return; // the tick timer sends it once the head clears
        }
        if self.is_coordinator() {
            let inc = self.incarnation;
            self.assign_and_broadcast(t, self.id, inc, origin_seq, payload, trace);
        } else if let Some(seq) = self.view.coordinator() {
            t.send(
                seq,
                GcsWire::OrderRequest {
                    incarnation: self.incarnation,
                    origin_seq,
                    payload,
                    trace,
                },
            );
        }
    }

    /// Announces a graceful departure (the paper's normal-shutdown path):
    /// peers exclude this node without waiting for suspicion.
    pub fn leave(&mut self, t: &mut impl Transport<A>) {
        for m in self.peers.clone() {
            if m != self.id {
                t.send(m, GcsWire::Leave);
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// Runs heartbeats, suspicion, view proposal and retransmission timers.
    /// Call at least once per heartbeat interval.
    pub fn tick(&mut self, t: &mut impl Transport<A>, now: SimTime) {
        // Heartbeats.
        let due = self
            .last_hb_sent
            .map(|at| now.since(at) >= self.config.heartbeat_interval)
            .unwrap_or(true);
        if due {
            for m in self.peers.clone() {
                if m != self.id {
                    t.send(
                        m,
                        GcsWire::Heartbeat {
                            sent: self.send_seq,
                            ordered: self.gseq_counter,
                            incarnation: self.incarnation,
                            view: self.view.id,
                        },
                    );
                }
            }
            self.last_hb_sent = Some(now);
        }

        // Suspicion: who do I currently believe is alive?
        let alive = self.alive_set(now);

        if self.proposer(&alive) == Some(self.id) && alive != self.view.members {
            let need_new = match &self.proposal {
                Some(p) => p.view.members != alive,
                None => true,
            };
            let resend_due = self
                .proposal
                .as_ref()
                .map(|p| now.since(p.last_sent) >= self.config.propose_resend)
                .unwrap_or(false);
            if need_new || resend_due {
                // Every (re-)proposal bumps the epoch: if the previous one
                // could not gather acks (e.g. the other side of a healed
                // partition sits at a higher epoch), the retry eventually
                // overtakes it.
                let epoch = self
                    .proposal
                    .as_ref()
                    .map(|p| p.view.id.epoch)
                    .unwrap_or(0)
                    .max(self.view.id.epoch)
                    + 1;
                // The proposer is the lowest live node, i.e. the new
                // view's coordinator. If it is *already* sequencing (its
                // coordinatorship survives the change), the stream
                // continues and joiners must skip its history; a freshly
                // elected coordinator starts a new stream at zero.
                let stream_base = if self.is_coordinator() {
                    self.gseq_counter
                } else {
                    0
                };
                let view = View::new(
                    ViewId {
                        epoch,
                        proposer: self.id,
                    },
                    alive.clone(),
                )
                .with_stream_base(stream_base);
                let mut acks = BTreeSet::new();
                acks.insert(self.id);
                self.proposal = Some(Proposal {
                    view,
                    acks,
                    last_sent: now,
                });
                self.send_proposal(t);
            }
            self.try_commit(t);
        }

        // Retry pending ordered messages (sequencer may have changed or a
        // request may have been lost).
        if !self.pending_orders.is_empty() {
            let due = self
                .pending_last_sent
                .map(|at| now.since(at) >= self.config.order_resend)
                .unwrap_or(true);
            if due {
                self.pending_last_sent = Some(now);
                // Only the head of the queue goes out (per-origin FIFO).
                let head = self
                    .pending_orders
                    .iter()
                    .next()
                    .map(|(&s, p)| (s, p.clone()));
                if let (Some(seq), Some((origin_seq, (payload, trace)))) =
                    (self.view.coordinator(), head)
                {
                    if seq == self.id {
                        let inc = self.incarnation;
                        self.assign_and_broadcast(t, self.id, inc, origin_seq, payload, trace);
                    } else {
                        t.send(
                            seq,
                            GcsWire::OrderRequest {
                                incarnation: self.incarnation,
                                origin_seq,
                                payload,
                                trace,
                            },
                        );
                    }
                }
            }
        }
    }

    /// The earliest instant at which [`tick`](Self::tick) has work to do
    /// if no message arrives first. A result at or before `now` means the
    /// tick has work now: events wait to be taken, the head of the order
    /// queue is unsent, or a view proposal must be made or can commit.
    /// Otherwise it is the earliest of the next heartbeat, the next peer
    /// suspicion, and the proposal and order resend times. A tick before
    /// then changes nothing; handling a message may bring it forward.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        let Some(last_hb) = self.last_hb_sent else {
            return now;
        };
        if !self.events.is_empty() {
            return now;
        }
        let mut next = last_hb + self.config.heartbeat_interval;
        // A live peer turns suspect one µs after its silence exceeds the
        // timeout (`alive_set` keeps it while `since <= suspect_timeout`).
        let alive = self.alive_set(now);
        for p in alive.iter().filter(|&&p| p != self.id) {
            if let Some(&heard) = self.last_heard.get(p) {
                next = next.min(heard + self.config.suspect_timeout + SimDuration::from_micros(1));
            }
        }
        if self.proposer(&alive) == Some(self.id) && alive != self.view.members {
            match &self.proposal {
                Some(p) if p.view.members == alive => {
                    if p.view.members.iter().all(|m| p.acks.contains(m)) {
                        return now;
                    }
                    next = next.min(p.last_sent + self.config.propose_resend);
                }
                _ => return now,
            }
        }
        if !self.pending_orders.is_empty() {
            match self.pending_last_sent {
                Some(at) => next = next.min(at + self.config.order_resend),
                None => return now,
            }
        }
        next
    }

    /// Proposer election: the lowest *live current member* proposes. A
    /// freshly-(re)started outsider with a stale optimistic view must not
    /// pre-empt the incumbent coordinator — otherwise a restarted lowest-id
    /// node and the incumbent each wait for the other and the merge never
    /// happens. If no current member is alive (a node alone after a wipe),
    /// fall back to the lowest live node.
    fn proposer(&self, alive: &[NodeId]) -> Option<NodeId> {
        alive
            .iter()
            .find(|m| self.view.contains(**m))
            .or(alive.first())
            .copied()
    }

    fn alive_set(&self, now: SimTime) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|&&p| {
                p == self.id
                    || (!self.departed.contains(&p)
                        && self
                            .last_heard
                            .get(&p)
                            .map(|&at| now.since(at) <= self.config.suspect_timeout)
                            .unwrap_or(false))
            })
            .copied()
            .collect();
        alive.sort();
        alive
    }

    fn send_proposal(&mut self, t: &mut impl Transport<A>) {
        if let Some(p) = &self.proposal {
            // One clone to build the message; byte transports serialize it
            // once for the whole broadcast (`send_all`), typed transports
            // clone per recipient exactly as the old per-member loop did.
            let msg = GcsWire::ViewPropose(p.view.clone());
            t.send_all(&p.view.members, self.id, &msg);
        }
    }

    fn try_commit(&mut self, t: &mut impl Transport<A>) {
        let ready = self
            .proposal
            .as_ref()
            .map(|p| p.view.members.iter().all(|m| p.acks.contains(m)))
            .unwrap_or(false);
        if ready {
            let view = self.proposal.take().expect("checked").view;
            let msg = GcsWire::ViewCommit(view);
            let GcsWire::ViewCommit(view_ref) = &msg else {
                unreachable!()
            };
            t.send_all(&view_ref.members, self.id, &msg);
            let GcsWire::ViewCommit(view) = msg else {
                unreachable!()
            };
            self.install_view(view);
        }
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Processes one incoming wire message.
    pub fn handle(
        &mut self,
        t: &mut impl Transport<A>,
        from: NodeId,
        msg: GcsWire<A>,
        now: SimTime,
    ) {
        // Any traffic counts as liveness.
        self.last_heard.insert(from, now);
        self.departed.remove(&from);
        match msg {
            GcsWire::Heartbeat {
                sent,
                ordered,
                incarnation,
                view,
            } => {
                // View anti-entropy. A `ViewCommit` is sent exactly once;
                // if the one carrying this member into the current view was
                // lost, no later message repairs it — the member waits for
                // a proposal from a coordinator that, seeing its own view
                // already match the alive set, never proposes again. So:
                // a current member advertising an older view id missed a
                // commit; push it the view we hold. `install_view` ignores
                // anything not newer than the receiver's own, so
                // concurrent pushes are harmless.
                if view < self.view.id && self.view.contains(from) {
                    self.telemetry.incr("gcs.antientropy.view_repairs");
                    t.send(from, GcsWire::ViewCommit(self.view.clone()));
                }
                // A changed incarnation means the peer truly restarted:
                // its streams begin again at 1. (Suspicion flaps keep the
                // incarnation, so no duplicate re-delivery.)
                let prev = self.peer_incarnations.insert(from, incarnation);
                if prev.is_some() && prev != Some(incarnation) {
                    self.recv_next.insert(from, 1);
                    self.recv_ooo.remove(&from);
                    // The restarted peer's origin_seq counter restarted at
                    // 1 too: forget old-incarnation dedupe entries, or its
                    // new ordered messages would be swallowed as replays —
                    // both the delivery dedupe and (when we are the
                    // sequencer) the assignment dedupe, which would recycle
                    // a stale gseq otherwise.
                    // With incarnation-scoped identities collisions are
                    // impossible; pruning old-incarnation entries is pure
                    // garbage collection.
                    self.delivered_orders
                        .retain(|(o, i, _)| *o != from || *i == incarnation);
                    self.assigned
                        .retain(|(o, i, _), _| *o != from || *i == incarnation);
                    // And if it is the current sequencer, its global order
                    // counter restarted: reset our cursor for its stream.
                    if Some(from) == self.view.coordinator() {
                        self.expected_gseq = 1;
                        self.ordered_ooo.clear();
                    }
                }
                // Anti-entropy: if the sender claims more messages than we
                // have seen, nack the missing prefix — this recovers streams
                // whose every copy was lost (no gap visible locally).
                let next = self.recv_next.get(&from).copied().unwrap_or(1);
                if sent >= next {
                    let nack_due = self
                        .last_nack
                        .get(&from)
                        .map(|&at| now.since(at) >= self.config.order_resend)
                        .unwrap_or(true);
                    if nack_due {
                        self.last_nack.insert(from, now);
                        self.telemetry.incr("gcs.antientropy.nacks");
                        t.send(from, GcsWire::Nack { from_seq: next });
                    }
                }
                // Same for the ordered stream, against the sequencer.
                if Some(from) == self.view.coordinator() && ordered >= self.expected_gseq {
                    self.request_ordered_replay(t, from, now);
                }
            }
            GcsWire::OrderedReplayRequest { from_gseq } => {
                if self.is_coordinator() {
                    self.replay_ordered(t, from, from_gseq);
                }
            }
            GcsWire::Leave => {
                self.departed.insert(from);
                self.last_heard.remove(&from);
            }
            GcsWire::ViewPropose(view) => {
                if view.id > self.view.id {
                    // If we would coordinate the proposed view and already
                    // sequence our current one, the stream continues at our
                    // counter; report it so the commit carries the right
                    // `stream_base` (the proposer may not be us).
                    let stream_base =
                        if view.coordinator() == Some(self.id) && self.is_coordinator() {
                            self.gseq_counter
                        } else {
                            0
                        };
                    t.send(
                        view.id.proposer,
                        GcsWire::ViewAck {
                            id: view.id,
                            stream_base,
                        },
                    );
                }
            }
            GcsWire::ViewAck { id, stream_base } => {
                self.telemetry.incr("gcs.view.acks");
                if let Some(p) = self.proposal.as_mut() {
                    if p.view.id == id {
                        p.acks.insert(from);
                        if p.view.coordinator() == Some(from) {
                            p.view.stream_base = stream_base;
                        }
                    }
                }
                self.try_commit(t);
            }
            GcsWire::ViewCommit(view) => {
                if view.id > self.view.id {
                    self.install_view(view);
                }
            }
            GcsWire::Data { seq, payload } => self.handle_data(t, from, seq, payload, now),
            GcsWire::Nack { from_seq } => {
                for (&seq, payload) in self.send_buffer.range(from_seq..) {
                    t.send(
                        from,
                        GcsWire::Data {
                            seq,
                            payload: payload.clone(),
                        },
                    );
                }
            }
            GcsWire::OrderRequest {
                incarnation,
                origin_seq,
                payload,
                trace,
            } => {
                if self.is_coordinator() {
                    self.assign_and_broadcast(t, from, incarnation, origin_seq, payload, trace);
                }
                // Otherwise: stale request to an ex-coordinator; the origin
                // will retry against the new one.
            }
            GcsWire::Ordered {
                gseq,
                origin,
                origin_inc,
                origin_seq,
                payload,
                trace,
            } => self.handle_ordered(
                t, from, gseq, origin, origin_inc, origin_seq, payload, trace, now,
            ),
        }
    }

    fn handle_data(
        &mut self,
        t: &mut impl Transport<A>,
        from: NodeId,
        seq: u64,
        payload: A,
        now: SimTime,
    ) {
        let next = self.recv_next.entry(from).or_insert(1);
        if seq < *next {
            return; // duplicate
        }
        if seq > *next {
            self.recv_ooo.entry(from).or_default().insert(seq, payload);
            // Rate-limited nack.
            let nack_due = self
                .last_nack
                .get(&from)
                .map(|&at| now.since(at) >= self.config.order_resend)
                .unwrap_or(true);
            if nack_due {
                let missing = *next;
                self.last_nack.insert(from, now);
                self.telemetry.incr("gcs.antientropy.nacks");
                t.send(from, GcsWire::Nack { from_seq: missing });
            }
            return;
        }
        // In-order: deliver it and any buffered successors.
        *next += 1;
        self.telemetry.incr("gcs.fifo.delivered");
        self.events.push(GcsEvent::Deliver { from, payload });
        if let Some(buf) = self.recv_ooo.get_mut(&from) {
            loop {
                let expected = self.recv_next.get(&from).copied().unwrap_or(1);
                match buf.remove(&expected) {
                    Some(p) => {
                        self.recv_next.insert(from, expected + 1);
                        self.telemetry.incr("gcs.fifo.delivered");
                        self.events.push(GcsEvent::Deliver { from, payload: p });
                    }
                    None => break,
                }
            }
        }
    }

    fn assign_and_broadcast(
        &mut self,
        t: &mut impl Transport<A>,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        let gseq = match self.assigned.get(&(origin, origin_inc, origin_seq)) {
            Some(&g) => g,
            None => {
                self.gseq_counter += 1;
                self.assigned
                    .insert((origin, origin_inc, origin_seq), self.gseq_counter);
                self.ordered_buffer.insert(
                    self.gseq_counter,
                    (origin, origin_inc, origin_seq, payload.clone(), trace),
                );
                self.gseq_counter
            }
        };
        for m in self.view.members.clone() {
            if m != self.id {
                t.send(
                    m,
                    GcsWire::Ordered {
                        gseq,
                        origin,
                        origin_inc,
                        origin_seq,
                        payload: payload.clone(),
                        trace,
                    },
                );
            }
        }
        // Sequencer self-delivery.
        self.deliver_ordered_chain(gseq, origin, origin_inc, origin_seq, payload, trace);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_ordered(
        &mut self,
        t: &mut impl Transport<A>,
        from: NodeId,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
        now: SimTime,
    ) {
        // Only the current coordinator's stream counts.
        if Some(from) != self.view.coordinator() {
            return;
        }
        if gseq < self.expected_gseq {
            // Duplicate of something already processed; still clears pending.
            self.clear_pending(origin, origin_inc, origin_seq);
            return;
        }
        if gseq > self.expected_gseq {
            self.ordered_ooo
                .insert(gseq, (origin, origin_inc, origin_seq, payload, trace));
            self.request_ordered_replay(t, from, now);
            return;
        }
        self.deliver_ordered_chain(gseq, origin, origin_inc, origin_seq, payload, trace);
    }

    /// Rate-limited request to the sequencer to replay the ordered stream
    /// from our cursor.
    fn request_ordered_replay(
        &mut self,
        t: &mut impl Transport<A>,
        sequencer: NodeId,
        now: SimTime,
    ) {
        let due = self
            .last_order_nack
            .map(|at| now.since(at) >= self.config.order_resend)
            .unwrap_or(true);
        if due {
            self.last_order_nack = Some(now);
            self.telemetry.incr("gcs.antientropy.replay_requests");
            t.send(
                sequencer,
                GcsWire::OrderedReplayRequest {
                    from_gseq: self.expected_gseq,
                },
            );
        }
    }

    fn deliver_ordered_chain(
        &mut self,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        self.deliver_ordered_one(gseq, origin, origin_inc, origin_seq, payload, trace);
        loop {
            let next = self.expected_gseq;
            match self.ordered_ooo.remove(&next) {
                Some((o, oi, os, p, tr)) => self.deliver_ordered_one(next, o, oi, os, p, tr),
                None => break,
            }
        }
    }

    fn deliver_ordered_one(
        &mut self,
        gseq: u64,
        origin: NodeId,
        origin_inc: u64,
        origin_seq: u64,
        payload: A,
        trace: Option<TraceContext>,
    ) {
        // Monotone: a replayed/stale gseq must never pull the cursor back.
        self.expected_gseq = self.expected_gseq.max(gseq + 1);
        self.clear_pending(origin, origin_inc, origin_seq);
        if self
            .delivered_orders
            .insert((origin, origin_inc, origin_seq))
        {
            self.telemetry.incr("gcs.order.delivered");
            self.events.push(GcsEvent::OrderedDeliver {
                gseq,
                origin,
                payload,
                trace,
            });
        }
    }

    fn clear_pending(&mut self, origin: NodeId, origin_inc: u64, origin_seq: u64) {
        if origin == self.id
            && origin_inc == self.incarnation
            && self.pending_orders.remove(&origin_seq).is_some()
        {
            // Head cleared: let the next tick dispatch the next pending
            // message immediately.
            self.pending_last_sent = None;
        }
    }

    fn install_view(&mut self, view: View) {
        self.telemetry.incr("gcs.view.installed");
        let old = std::mem::replace(&mut self.view, view.clone());
        let (joined, left) = view.diff(&old);
        // (Stream resets for genuinely restarted peers are driven by the
        // incarnation number on their heartbeats, not by view membership —
        // a suspicion flap must not replay the retransmission buffer.)
        // Sequencer change: reset the ordered-stream cursor; pending orders
        // will be retried against the new sequencer by the tick timer.
        //
        // The cursor starts at the view's `stream_base`, not at 1: when the
        // new coordinator's stream predates this view (a partition heal
        // merges us into the majority, whose sequencer kept running), the
        // history before `stream_base` was ordered while we were not a
        // member of that stream. We must NOT fetch it via replay — our
        // registry state for that span arrives by snapshot transfer, and
        // re-applying already-incorporated messages on top of the snapshot
        // is not idempotent (it was a real divergence: replayed `Deployed`
        // bumped record revisions only on the rejoining side). For a
        // freshly elected coordinator `stream_base` is 0 and this is the
        // old "start at 1" behaviour.
        if view.coordinator() != old.coordinator() {
            self.expected_gseq = view.stream_base + 1;
            self.ordered_ooo.clear();
            if self.is_coordinator() {
                self.gseq_counter = view.stream_base;
                self.assigned.clear();
                self.ordered_buffer.clear();
            }
            self.pending_last_sent = None;
        }
        if self.proposal.as_ref().is_some_and(|p| p.view.id <= view.id) {
            self.proposal = None;
        }
        self.events
            .push(GcsEvent::ViewChange { view, joined, left });
    }

    /// Handles a replay request from a lagging member: resends the ordered
    /// buffer from `from_gseq` to `to`.
    fn replay_ordered(&mut self, t: &mut impl Transport<A>, to: NodeId, from_gseq: u64) {
        for (&gseq, (origin, origin_inc, origin_seq, payload, trace)) in
            self.ordered_buffer.range(from_gseq..)
        {
            self.telemetry.incr("gcs.antientropy.replayed");
            t.send(
                to,
                GcsWire::Ordered {
                    gseq,
                    origin: *origin,
                    origin_inc: *origin_inc,
                    origin_seq: *origin_seq,
                    payload: payload.clone(),
                    trace: *trace,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTransport;
    use dosgi_net::{LinkConfig, SimDuration, SimNet};

    type Net = SimNet<GcsWire<u64>>;
    type Node = GroupNode<u64>;

    struct Cluster {
        net: Net,
        nodes: Vec<Node>,
        crashed: Vec<bool>,
    }

    impl Cluster {
        fn new(n: usize, link: LinkConfig, config: GcsConfig, seed: u64) -> Self {
            let mut net = Net::new(link, seed);
            let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
            let nodes = ids
                .iter()
                .map(|&id| Node::new(id, ids.clone(), config, SimTime::ZERO))
                .collect();
            Cluster {
                net,
                nodes,
                crashed: vec![false; n],
            }
        }

        /// Advances simulated time in 5ms steps, ticking and draining every
        /// live node.
        fn run(&mut self, duration: SimDuration) {
            let step = SimDuration::from_millis(5);
            let end = self.net.now() + duration;
            while self.net.now() < end {
                self.net.advance(step);
                let now = self.net.now();
                for i in 0..self.nodes.len() {
                    if self.crashed[i] {
                        continue;
                    }
                    let id = NodeId(i as u32);
                    for env in self.net.drain(id) {
                        let mut t = SimTransport::new(&mut self.net, id);
                        self.nodes[i].handle(&mut t, env.from, env.payload, now);
                    }
                    let mut t = SimTransport::new(&mut self.net, id);
                    self.nodes[i].tick(&mut t, now);
                }
            }
        }

        fn crash(&mut self, i: usize) {
            self.crashed[i] = true;
            self.net.crash(NodeId(i as u32));
        }

        fn events(&mut self, i: usize) -> Vec<GcsEvent<u64>> {
            self.nodes[i].take_events()
        }

        fn broadcast(&mut self, i: usize, payload: u64) {
            let id = NodeId(i as u32);
            let mut t = SimTransport::new(&mut self.net, id);
            self.nodes[i].broadcast(&mut t, payload);
        }

        fn order(&mut self, i: usize, payload: u64) {
            let id = NodeId(i as u32);
            let mut t = SimTransport::new(&mut self.net, id);
            self.nodes[i].order(&mut t, payload);
        }

        fn order_traced(&mut self, i: usize, payload: u64, trace: dosgi_telemetry::TraceContext) {
            let id = NodeId(i as u32);
            let mut t = SimTransport::new(&mut self.net, id);
            self.nodes[i].order_traced(&mut t, payload, Some(trace));
        }
    }

    fn delivered(events: &[GcsEvent<u64>]) -> Vec<(NodeId, u64)> {
        events
            .iter()
            .filter_map(|e| match e {
                GcsEvent::Deliver { from, payload } => Some((*from, *payload)),
                _ => None,
            })
            .collect()
    }

    fn ordered(events: &[GcsEvent<u64>]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                GcsEvent::OrderedDeliver { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect()
    }

    fn last_view(events: &[GcsEvent<u64>]) -> Option<View> {
        events.iter().rev().find_map(|e| match e {
            GcsEvent::ViewChange { view, .. } => Some(view.clone()),
            _ => None,
        })
    }

    #[test]
    fn initial_view_contains_everyone() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 1);
        c.run(SimDuration::from_millis(300));
        for i in 0..3 {
            let events = c.events(i);
            let v = last_view(&events).expect("initial view event");
            assert_eq!(v.members.len(), 3);
            assert_eq!(c.nodes[i].view().members.len(), 3);
            assert_eq!(c.nodes[i].view().coordinator(), Some(NodeId(0)));
        }
        assert!(c.nodes[0].is_coordinator());
        assert!(!c.nodes[1].is_coordinator());
    }

    /// `next_deadline` is `now` while work waits (a first heartbeat,
    /// untaken events, an order head the timer has not sent, a view
    /// proposal to make) and otherwise the next timer, e.g. a heartbeat or
    /// a peer's suspicion.
    #[test]
    fn next_deadline_tracks_pending_work_and_timers() {
        let cfg = GcsConfig::lan();
        let mut c = Cluster::new(3, LinkConfig::lan(), cfg, 1);
        let boot = c.net.now();
        assert_eq!(c.nodes[1].next_deadline(boot), boot, "first heartbeat");
        c.run(SimDuration::from_millis(300));
        let now = c.net.now();
        assert_eq!(c.nodes[1].next_deadline(now), now, "view event untaken");
        c.events(1);
        let next = c.nodes[1].next_deadline(now);
        assert!(next > now && next <= now + cfg.heartbeat_interval);
        c.order(1, 7);
        assert_eq!(c.nodes[1].next_deadline(now), now, "order head unsent");

        // With heartbeats out of the way, the next timer is the earliest
        // peer suspicion.
        c.events(0);
        let heard_first = c.nodes[0].last_heard[&NodeId(1)].min(c.nodes[0].last_heard[&NodeId(2)]);
        c.nodes[0].config.heartbeat_interval = SimDuration::from_secs(60);
        assert_eq!(
            c.nodes[0].next_deadline(now),
            heard_first + cfg.suspect_timeout + SimDuration::from_micros(1)
        );
        c.nodes[0].config.heartbeat_interval = cfg.heartbeat_interval;

        c.crash(2);
        let heard = c.nodes[0].last_heard[&NodeId(2)];
        let suspect_at = heard + cfg.suspect_timeout + SimDuration::from_micros(1);
        assert!(c.nodes[0].next_deadline(heard + cfg.suspect_timeout) <= suspect_at);
        assert_eq!(
            c.nodes[0].next_deadline(suspect_at),
            suspect_at,
            "node 2 suspected: the coordinator must propose"
        );
    }

    #[test]
    fn crash_is_detected_and_view_shrinks() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 2);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        for i in 0..2 {
            let events = c.events(i);
            let v = last_view(&events).expect("view after crash");
            assert_eq!(v.members, vec![NodeId(0), NodeId(1)]);
            // The ViewChange reports who left.
            let left: Vec<NodeId> = events
                .iter()
                .filter_map(|e| match e {
                    GcsEvent::ViewChange { left, .. } => Some(left.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert!(left.contains(&NodeId(2)), "node {i} saw the departure");
        }
    }

    #[test]
    fn coordinator_crash_elects_next_lowest() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 3);
        c.run(SimDuration::from_millis(200));
        c.crash(0);
        c.run(SimDuration::from_millis(800));
        for i in 1..3 {
            assert_eq!(
                c.nodes[i].view().members,
                vec![NodeId(1), NodeId(2)],
                "node {i}"
            );
            assert_eq!(c.nodes[i].view().coordinator(), Some(NodeId(1)));
        }
        assert!(c.nodes[1].is_coordinator());
    }

    #[test]
    fn graceful_leave_is_faster_than_suspicion() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 4);
        c.run(SimDuration::from_millis(200));
        // Node 2 leaves gracefully.
        {
            let id = NodeId(2);
            let mut t = SimTransport::new(&mut c.net, id);
            c.nodes[2].leave(&mut t);
        }
        c.crashed[2] = true;
        // Well under the 200ms suspicion timeout plus propose round.
        c.run(SimDuration::from_millis(150));
        for i in 0..2 {
            assert_eq!(c.nodes[i].view().members, vec![NodeId(0), NodeId(1)]);
        }
    }

    #[test]
    fn rejoin_after_restart_is_readmitted() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 5);
        c.run(SimDuration::from_millis(200));
        c.crash(2);
        c.run(SimDuration::from_millis(600));
        assert_eq!(c.nodes[0].view().members.len(), 2);
        // Restart node 2 with a fresh protocol state.
        c.net.restart(NodeId(2));
        c.crashed[2] = false;
        c.nodes[2] = Node::new(
            NodeId(2),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            GcsConfig::lan(),
            c.net.now(),
        );
        c.run(SimDuration::from_millis(600));
        for i in 0..3 {
            assert_eq!(c.nodes[i].view().members.len(), 3, "node {i}");
        }
    }

    #[test]
    fn fifo_broadcast_delivers_in_order_everywhere() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 6);
        c.run(SimDuration::from_millis(100));
        for i in 0..3 {
            c.events(i);
        }
        for v in 1..=20 {
            c.broadcast(0, v);
        }
        c.run(SimDuration::from_millis(300));
        for i in 0..3 {
            let events = c.events(i);
            let got: Vec<u64> = delivered(&events)
                .into_iter()
                .filter(|(from, _)| *from == NodeId(0))
                .map(|(_, p)| p)
                .collect();
            assert_eq!(got, (1..=20).collect::<Vec<_>>(), "node {i}");
        }
    }

    #[test]
    fn fifo_survives_heavy_message_loss() {
        let mut c = Cluster::new(2, LinkConfig::lossy(0.3), GcsConfig::lan(), 7);
        c.run(SimDuration::from_millis(100));
        for i in 0..2 {
            c.events(i);
        }
        for v in 1..=50 {
            c.broadcast(0, v);
        }
        // Generous time for nack-driven recovery.
        c.run(SimDuration::from_secs(5));
        let events = c.events(1);
        let got: Vec<u64> = delivered(&events).into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn total_order_is_identical_across_members() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 8);
        c.run(SimDuration::from_millis(100));
        for i in 0..3 {
            c.events(i);
        }
        // Interleave ordering requests from every node.
        for round in 0..10u64 {
            for i in 0..3 {
                c.order(i, round * 10 + i as u64);
            }
        }
        c.run(SimDuration::from_secs(2));
        let seqs: Vec<Vec<u64>> = (0..3).map(|i| ordered(&c.events(i))).collect();
        assert_eq!(seqs[0].len(), 30, "all 30 messages ordered");
        assert_eq!(seqs[0], seqs[1], "node 0 and 1 agree");
        assert_eq!(seqs[1], seqs[2], "node 1 and 2 agree");
    }

    #[test]
    fn total_order_survives_loss() {
        let mut c = Cluster::new(3, LinkConfig::lossy(0.2), GcsConfig::lan(), 9);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        for v in 1..=15 {
            c.order(1, v);
        }
        c.run(SimDuration::from_secs(8));
        let seqs: Vec<Vec<u64>> = (0..3).map(|i| ordered(&c.events(i))).collect();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), 15, "node {i} delivered all");
        }
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
    }

    #[test]
    fn trace_contexts_survive_loss_and_replay() {
        use dosgi_telemetry::TraceContext;
        let mut c = Cluster::new(3, LinkConfig::lossy(0.25), GcsConfig::lan(), 12);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        // Each message carries a distinct context; loss forces the
        // nack/replay paths, which must forward the buffered trace.
        for v in 1..=10u64 {
            c.order_traced(
                2,
                v,
                TraceContext {
                    trace_id: 3 << 40,
                    parent_span: (3 << 40) | v,
                    lamport: 100 + v,
                },
            );
        }
        c.order(2, 11); // untraced tail keeps working alongside
        c.run(SimDuration::from_secs(8));
        for i in 0..3 {
            let got: Vec<(u64, Option<TraceContext>)> = c
                .events(i)
                .into_iter()
                .filter_map(|e| match e {
                    GcsEvent::OrderedDeliver { payload, trace, .. } => Some((payload, trace)),
                    _ => None,
                })
                .collect();
            assert_eq!(got.len(), 11, "node {i} delivered all");
            for (payload, trace) in got {
                if payload == 11 {
                    assert_eq!(trace, None, "node {i}: untraced stays untraced");
                } else {
                    let t = trace.expect("traced delivery");
                    assert_eq!(t.parent_span, (3 << 40) | payload, "node {i}");
                    assert_eq!(t.lamport, 100 + payload, "node {i}");
                }
            }
        }
    }

    #[test]
    fn sequencer_failover_still_orders_pending_messages() {
        let mut c = Cluster::new(3, LinkConfig::lan(), GcsConfig::lan(), 10);
        c.run(SimDuration::from_millis(200));
        for i in 0..3 {
            c.events(i);
        }
        // Crash the sequencer, then immediately try to order from node 2.
        c.crash(0);
        c.order(2, 77);
        c.order(2, 78);
        c.run(SimDuration::from_secs(3));
        for i in 1..3 {
            let got = ordered(&c.events(i));
            assert_eq!(got, vec![77, 78], "node {i} got the retried orders");
        }
    }

    #[test]
    fn partition_and_heal_reconverges() {
        let mut c = Cluster::new(4, LinkConfig::lan(), GcsConfig::lan(), 11);
        c.run(SimDuration::from_millis(200));
        c.net.partition(dosgi_net::Partition::split([
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3)],
        ]));
        c.run(SimDuration::from_secs(1));
        // Each side formed its own view; only one side has a majority test.
        assert_eq!(c.nodes[0].view().members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(c.nodes[2].view().members, vec![NodeId(2), NodeId(3)]);
        assert!(!c.nodes[0].view().has_majority(c.nodes[0].universe()));
        c.net.heal();
        c.run(SimDuration::from_secs(1));
        for i in 0..4 {
            assert_eq!(c.nodes[i].view().members.len(), 4, "node {i} healed");
            assert!(c.nodes[i].view().has_majority(4));
        }
    }

    #[test]
    #[should_panic(expected = "peers must include")]
    fn new_requires_self_in_peers() {
        let _ = Node::new(NodeId(9), vec![NodeId(0)], GcsConfig::lan(), SimTime::ZERO);
    }
}
