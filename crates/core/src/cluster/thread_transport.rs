//! The real-concurrency backend: server runtimes on OS threads, client
//! runtimes on the caller's thread, fabric operations as tagged envelopes
//! over channels.
//!
//! No virtual time is involved — this backend exists to show that the
//! framework's state machines (auto-registration, sender-side caching,
//! recursive forwarding, result return) are correct under genuine
//! parallelism.
//!
//! # Execution model
//!
//! * Server rank `r` (ranks `clients..clients + servers`) runs as thread
//!   node `r - clients` of a [`tc_simnet::ThreadCluster`] and drains its own
//!   inbox independently.
//! * Client rank `c` (ranks `0..clients`) is external port `c` of the
//!   fabric.  Every external port feeds the cluster's one external queue,
//!   and an envelope's `to` field names the port it was sent to.  The
//!   [`ThreadTransport`] owns the client runtimes directly; clients start no
//!   threads of their own.
//! * The caller drives client-side progress, as the socket driver does.
//!   `flush_client` moves posted operations into the fabric synchronously,
//!   so a control round trip issued right after a flush acts as a barrier
//!   behind that client's data (both ride the same per-producer FIFO
//!   channel).  `step` drains the external queue on the caller's thread: it
//!   busy-yields for a constant 300 µs spin window, then parks.  What arrives is
//!   delivered into the client runtimes, polled, and any responses flushed
//!   back out; reliable-delivery frames and acks drive the client's own
//!   [`ReliableSet`]; completions stay buffered in the runtime until
//!   [`Transport::take_completions`] drains them.
//! * Control traffic (peek/poke/stats) and server error reports use external
//!   port `clients`, which no client owns.  A control round trip processes
//!   every data-plane envelope that reaches the queue while it waits.
//!
//! A GET round trip therefore wakes two threads — the server's and the
//! caller's — and the caller is usually still spinning when the reply lands.
//!
//! Active-Message deployment after startup works through a shared,
//! append-only handler registry: every node applies new registry entries (in
//! order) before handling each message, so `AmHandlerId`s agree cluster-wide
//! without shipping closures through channels.

use super::reliable::{LinkHealth, RelConfig, RelMetrics, ReliableSet};
use super::socket::most_stressed;
use super::{wire, Transport, TransportMetrics};
use crate::error::{CoreError, Result};
use crate::metrics::RuntimeStats;
use crate::runtime::{Completion, NativeAmHandler, NodeRuntime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tc_bitir::TargetTriple;
use tc_chaos::{ChaosSession, ChaosStats, FaultPlan};
use tc_jit::{Memory, OptLevel};
use tc_simnet::{
    external_port, Envelope, EnvelopeFilter, Injector, NodeCtx, ThreadCluster, ThreadConfig,
    ThreadedNode,
};
use tc_ucx::{Bytes, OutgoingMessage, WorkerAddr};

use super::ClientId;

/// Shared, append-only list of predeployed AM handlers.  Deploy order defines
/// the cluster-wide handler ids.
type AmRegistry = Arc<Mutex<Vec<(String, NativeAmHandler)>>>;

/// How long one `step` busy-yields on the external queue before it parks.
/// Equal to the socket driver's default spin window: a round trip to a
/// server thread takes tens of microseconds, well below what a futex wake
/// plus a reschedule of the caller costs.
const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// Scheduling tunables of the threaded backend — every value that used to
/// be a hard-coded constant, configurable through
/// [`super::ClusterBuilder::thread_tuning`].  The defaults reproduce the
/// former behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadTuning {
    /// How long one `step` parks on the external queue, after its 300 µs
    /// spin window, before running its idleness checks.  The park wakes
    /// the moment an envelope is enqueued, so this bounds *idle-detection*
    /// latency only, not delivery latency.  In chaos mode the park is cut
    /// into retransmission-tick slices so the clients' timers keep running.
    pub step_timeout: Duration,
    /// Upper bound one `step` keeps waiting while node threads are
    /// verifiably busy (messages enqueued or mid-processing) without sending
    /// anything to a client.  Guards against a runaway ifunc wedging the
    /// caller forever.
    pub busy_step_timeout: Duration,
    /// Most external envelopes one `step` drains after its first arrival
    /// (batch drain: one wakeup, many messages, one poll per client).
    pub step_batch: usize,
    /// Consecutive idle steps before waits give up.  A step only reports
    /// idle after `step_timeout` of silence with zero pending node-bound
    /// messages, so two suffice: the second covers the race where a node
    /// enqueued a reply right as the first park timed out.
    pub idle_grace: u32,
    /// Most messages a *node thread* drains per wakeup (the former
    /// `MAX_BATCH` in `tc_simnet::threaded`).
    pub node_batch: usize,
    /// How long a control-plane round trip (peek/poke/stats) may take.
    pub control_timeout: Duration,
}

impl Default for ThreadTuning {
    fn default() -> Self {
        ThreadTuning {
            step_timeout: Duration::from_millis(20),
            busy_step_timeout: Duration::from_secs(1),
            step_batch: 128,
            idle_grace: 2,
            node_batch: 128,
            control_timeout: Duration::from_secs(10),
        }
    }
}

/// Map a threaded-fabric sender/receiver id to a cluster rank in a cluster
/// with `clients` driver-side runtimes: external port `p` is client rank
/// `p`, thread node `n` is rank `n + clients`.  (The single-client layout —
/// client rank 0, thread node `n` at rank `n + 1` — is the `clients == 1`
/// case.)  The driver's control port (`p == clients`) is not a data-plane
/// endpoint and never reaches this map on a faulted or reliable path.
fn rank_of(clients: usize, fabric_id: usize) -> usize {
    match external_port(fabric_id) {
        Some(port) => port,
        None => fabric_id + clients,
    }
}

/// An encoded-but-unwrapped data-plane message buffered for retransmission:
/// the op head (without the reliability prefix — each transmission gets a
/// fresh cumulative ack) and the detached payload segment.
type StoredEnv = (Bytes, Bytes);

/// Per-rank reliability counters published by their owner (the owning node
/// thread for servers, the caller's thread for clients) and read by the
/// caller without taking any lock.
struct RelSlot {
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    out_of_order: AtomicU64,
    acks_sent: AtomicU64,
    unacked: AtomicU64,
    /// Earliest armed retransmission deadline of this rank, on the shared
    /// epoch clock; `u64::MAX` when nothing is outstanding.
    next_deadline: AtomicU64,
    /// Most-stressed-link health of this rank (RTT estimator state for the
    /// link with the most unacked frames).  `health_peer == u64::MAX` means
    /// no link has carried traffic yet.  Published field-by-field with
    /// relaxed stores — the snapshot is diagnostic, tearing between fields
    /// is acceptable.
    health_peer: AtomicU64,
    health_srtt: AtomicU64,
    health_rttvar: AtomicU64,
    health_rto: AtomicU64,
    health_unacked: AtomicU64,
    health_silent: AtomicU64,
}

impl Default for RelSlot {
    fn default() -> Self {
        RelSlot {
            retransmits: AtomicU64::new(0),
            dup_drops: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
            unacked: AtomicU64::new(0),
            next_deadline: AtomicU64::new(u64::MAX),
            health_peer: AtomicU64::new(u64::MAX),
            health_srtt: AtomicU64::new(0),
            health_rttvar: AtomicU64::new(0),
            health_rto: AtomicU64::new(0),
            health_unacked: AtomicU64::new(0),
            health_silent: AtomicU64::new(0),
        }
    }
}

/// Shared table of every rank's reliability counters.
struct RelTable {
    slots: Vec<RelSlot>,
}

impl RelTable {
    fn new(ranks: usize) -> Self {
        RelTable {
            slots: (0..ranks).map(|_| RelSlot::default()).collect(),
        }
    }

    fn publish(&self, rank: usize, set: &ReliableSet<StoredEnv>) {
        let s = &self.slots[rank];
        s.retransmits
            .store(set.metrics.retransmits, Ordering::Relaxed);
        s.dup_drops.store(set.metrics.dup_drops, Ordering::Relaxed);
        s.out_of_order
            .store(set.metrics.out_of_order, Ordering::Relaxed);
        s.acks_sent.store(set.metrics.acks_sent, Ordering::Relaxed);
        s.next_deadline
            .store(set.next_deadline().unwrap_or(u64::MAX), Ordering::Relaxed);
        if let Some(h) = most_stressed(&set.link_health()) {
            s.health_srtt.store(h.srtt, Ordering::Relaxed);
            s.health_rttvar.store(h.rttvar, Ordering::Relaxed);
            s.health_rto.store(h.rto, Ordering::Relaxed);
            s.health_unacked.store(h.unacked, Ordering::Relaxed);
            s.health_silent
                .store(u64::from(h.silent_rounds), Ordering::Relaxed);
            s.health_peer.store(h.peer as u64, Ordering::Relaxed);
        }
        // SeqCst: the driver's idleness check must not miss outstanding
        // frames behind a relaxed store.
        s.unacked.store(set.unacked_total(), Ordering::SeqCst);
    }

    fn snapshot(&self, rank: usize) -> Option<RelMetrics> {
        let s = self.slots.get(rank)?;
        Some(RelMetrics {
            retransmits: s.retransmits.load(Ordering::Relaxed),
            dup_drops: s.dup_drops.load(Ordering::Relaxed),
            out_of_order: s.out_of_order.load(Ordering::Relaxed),
            acks_sent: s.acks_sent.load(Ordering::Relaxed),
        })
    }

    /// Most-stressed-link health last published by `rank`, if any link has
    /// carried reliable traffic there.
    fn health_snapshot(&self, rank: usize) -> Option<LinkHealth> {
        let s = self.slots.get(rank)?;
        let peer = s.health_peer.load(Ordering::Relaxed);
        if peer == u64::MAX {
            return None;
        }
        Some(LinkHealth {
            peer: peer as u32,
            srtt: s.health_srtt.load(Ordering::Relaxed),
            rttvar: s.health_rttvar.load(Ordering::Relaxed),
            rto: s.health_rto.load(Ordering::Relaxed),
            unacked: s.health_unacked.load(Ordering::Relaxed),
            silent_rounds: s.health_silent.load(Ordering::Relaxed) as u32,
        })
    }

    fn total_unacked(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.unacked.load(Ordering::SeqCst))
            .sum()
    }

    fn earliest_deadline(&self) -> Option<u64> {
        self.slots
            .iter()
            .map(|s| s.next_deadline.load(Ordering::Relaxed))
            .min()
            .filter(|&d| d != u64::MAX)
    }

    fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(r, d), s| {
            (
                r + s.retransmits.load(Ordering::Relaxed),
                d + s.dup_drops.load(Ordering::Relaxed),
            )
        })
    }
}

/// Reliability state of one node thread (server side).
struct NodeRel {
    set: ReliableSet<StoredEnv>,
    table: Arc<RelTable>,
    rank: usize,
    epoch: Instant,
}

impl NodeRel {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Transmit a reliable envelope to `peer` (rank) through the node ctx.
    /// Ranks below `clients` are driver-side endpoints (external ports).
    fn transmit(
        ctx: &NodeCtx,
        clients: usize,
        peer: usize,
        seq: u64,
        ack: u64,
        head: &Bytes,
        payload: Bytes,
    ) {
        let data = wire::encode_rel_head(seq, ack, head);
        let _ = if peer < clients {
            ctx.send_external_port_vectored(peer, wire::TAG_ROP, data, payload)
        } else {
            ctx.send_vectored(peer - clients, wire::TAG_ROP, data, payload)
        };
    }

    /// Send a pure ack to `peer` (rank).
    fn send_ack(ctx: &NodeCtx, clients: usize, peer: usize, ack: u64) {
        let bytes = wire::encode_ack(ack);
        let _ = if peer < clients {
            ctx.send_external_port(peer, wire::TAG_ACK, bytes)
        } else {
            ctx.send(peer - clients, wire::TAG_ACK, bytes)
        };
    }
}

/// Report a node-side failure to the driver's control port.  Errors ride the
/// same queue as control replies, so the existing FIFO barrier argument
/// holds: an error emitted before a stats reply is collected before it.
fn report_error(ctx: &NodeCtx, control_port: usize, text: String) {
    let _ = ctx.send_external_port(control_port, wire::TAG_ERROR, text.into_bytes());
}

/// A server node: owns a full Three-Chains runtime and speaks the transport's
/// wire protocol.
struct ServerNode {
    runtime: NodeRuntime,
    /// Number of driver-side client ranks (this node's rank is
    /// `clients + thread_id`; the driver's control port is `clients`).
    clients: usize,
    am_registry: AmRegistry,
    am_applied: usize,
    /// Reliability state when a fault plan is installed; `None` keeps the
    /// original lossless fast path byte-for-byte.
    rel: Option<NodeRel>,
}

impl ServerNode {
    fn sync_am(&mut self) {
        let registry = self.am_registry.lock().expect("AM registry poisoned");
        for (name, handler) in registry.iter().skip(self.am_applied) {
            self.runtime
                .deploy_am_handler(name.clone(), handler.clone());
        }
        self.am_applied = registry.len();
    }

    fn route_outgoing(&mut self, ctx: &NodeCtx) {
        let clients = self.clients;
        for msg in self.runtime.take_outgoing() {
            let dst = msg.dst.index();
            // Scatter-gather: the head is pooled, large payloads ship as a
            // shared view (no copy).  Drops are counted by the ThreadCluster's
            // delivery counters and surfaced through the transport metrics.
            let (head, payload) = wire::encode_op_vectored(&msg);
            // Two cases bypass the reliability layer and go out raw:
            // misaddressed sends (rank beyond the cluster — they would
            // retransmit forever; the raw path lets the fabric count the
            // drop, exactly like the driver path) and self-sends (the
            // simulated backend excludes loopback from the fault model, so
            // the threaded backend must too or the chaos schedules
            // diverge).  Valid remote ranks are `0..clients` (driver-side
            // clients) and `clients..clients + node_count()` (servers).
            let own_rank = self.runtime.node_id().index();
            let bypass_rel =
                dst >= clients && (dst >= clients + ctx.node_count() || dst == own_rank);
            match &mut self.rel {
                Some(rel) if !bypass_rel => {
                    let now = rel.now();
                    let (seq, ack) = rel
                        .set
                        .send(dst as u32, (head.clone(), payload.clone()), now);
                    NodeRel::transmit(ctx, clients, dst, seq, ack, &head, payload);
                }
                _ => {
                    let _ = if dst < clients {
                        ctx.send_external_port_vectored(dst, wire::TAG_OP, head, payload)
                    } else {
                        ctx.send_vectored(dst - clients, wire::TAG_OP, head, payload)
                    };
                }
            }
        }
        if let Some(rel) = &self.rel {
            rel.table.publish(rel.rank, &rel.set);
        }
    }
}

impl ThreadedNode for ServerNode {
    /// One wakeup's worth of envelopes.  Consecutive data-plane messages are
    /// delivered together and polled/flushed once, so a burst of N ifunc
    /// frames pays for one poll loop and one outgoing flush instead of N.
    /// Control messages are handled strictly in FIFO position (the control
    /// plane doubles as a barrier behind the data plane).
    fn on_batch(&mut self, msgs: Vec<Envelope>, ctx: &NodeCtx) {
        self.sync_am();
        let control_port = self.clients;
        let mut pending_ops = false;
        for msg in msgs {
            if msg.tag == wire::TAG_OP {
                match wire::decode_op_vectored(&msg.data, &msg.payload) {
                    Ok(op) => {
                        self.runtime.deliver(op);
                        pending_ops = true;
                    }
                    Err(e) => report_error(ctx, control_port, e.to_string()),
                }
                continue;
            }
            if msg.tag == wire::TAG_ROP {
                pending_ops |= self.on_reliable_op(msg, ctx);
                continue;
            }
            if msg.tag == wire::TAG_ACK {
                let clients = self.clients;
                if let (Some(rel), Ok(ack)) = (&mut self.rel, wire::decode_ack(&msg.data)) {
                    let now = rel.now();
                    rel.set.on_ack(rank_of(clients, msg.from) as u32, ack, now);
                    rel.table.publish(rel.rank, &rel.set);
                }
                continue;
            }
            if pending_ops {
                self.process_delivered(ctx);
                pending_ops = false;
            }
            self.on_control(msg, ctx);
        }
        if pending_ops {
            self.process_delivered(ctx);
        }
    }

    fn on_message(&mut self, msg: Envelope, ctx: &NodeCtx) {
        self.on_batch(vec![msg], ctx);
    }

    fn on_tick(&mut self, ctx: &NodeCtx) {
        let clients = self.clients;
        let Some(rel) = &mut self.rel else {
            return;
        };
        let now = rel.now();
        for f in rel.set.tick(now) {
            NodeRel::transmit(
                ctx,
                clients,
                f.peer as usize,
                f.seq,
                f.ack,
                &f.m.0,
                f.m.1.clone(),
            );
        }
        rel.table.publish(rel.rank, &rel.set);
    }
}

impl ServerNode {
    /// Handle one reliable data-plane envelope: run it through the node's
    /// reliability state, ack the sender, deliver whatever became in-order.
    /// Returns true when operations were delivered to the runtime.
    fn on_reliable_op(&mut self, msg: Envelope, ctx: &NodeCtx) -> bool {
        let clients = self.clients;
        let Some(rel) = &mut self.rel else {
            report_error(
                ctx,
                clients,
                "reliable envelope on a node without a fault plan".into(),
            );
            return false;
        };
        let src = rank_of(clients, msg.from);
        let (seq, ack, head) = match wire::decode_rel_head(&msg.data) {
            Ok(parts) => parts,
            Err(e) => {
                report_error(ctx, clients, e.to_string());
                return false;
            }
        };
        let now = rel.now();
        let out = rel
            .set
            .on_data(src as u32, seq, ack, (head, msg.payload), now);
        NodeRel::send_ack(ctx, clients, src, out.ack);
        rel.table.publish(rel.rank, &rel.set);
        let mut delivered = false;
        for (h, p) in out.deliver {
            match wire::decode_op_vectored(&h, &p) {
                Ok(op) => {
                    self.runtime.deliver(op);
                    delivered = true;
                }
                Err(e) => report_error(ctx, clients, e.to_string()),
            }
        }
        delivered
    }

    /// Poll every delivered operation and flush whatever the runtime posted.
    fn process_delivered(&mut self, ctx: &NodeCtx) {
        let control_port = self.clients;
        for outcome in self.runtime.poll(usize::MAX) {
            if let Err(e) = outcome {
                report_error(ctx, control_port, e.to_string());
            }
        }
        self.route_outgoing(ctx);
    }

    /// Handle one control-plane envelope, replying to whichever external
    /// port issued it (the driver's control port in practice).
    fn on_control(&mut self, msg: Envelope, ctx: &NodeCtx) {
        let reply_to = external_port(msg.from).unwrap_or(self.clients);
        match msg.tag {
            wire::TAG_PEEK => {
                let Ok((token, body)) = wire::decode_control(&msg.data) else {
                    return;
                };
                if body.len() != 16 {
                    return;
                }
                let addr = u64::from_le_bytes(body[0..8].try_into().unwrap());
                let len = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
                let mut buf = vec![0u8; len];
                let reply = match self.runtime.memory.read(addr, &mut buf) {
                    Ok(()) => wire::encode_control(token, &buf),
                    Err(_) => wire::encode_control(token, &[]),
                };
                let _ = ctx.send_external_port(reply_to, wire::TAG_PEEK_REPLY, reply);
            }
            wire::TAG_POKE => {
                let Ok((token, body)) = wire::decode_control(&msg.data) else {
                    return;
                };
                if body.len() < 8 {
                    return;
                }
                let addr = u64::from_le_bytes(body[0..8].try_into().unwrap());
                let ok = self.runtime.memory.write(addr, &body[8..]).is_ok();
                let _ = ctx.send_external_port(
                    reply_to,
                    wire::TAG_POKE_ACK,
                    wire::encode_control(token, &[ok as u8]),
                );
            }
            wire::TAG_STATS => {
                let Ok((token, _)) = wire::decode_control(&msg.data) else {
                    return;
                };
                let reply = wire::encode_control(token, &wire::encode_stats(&self.runtime.stats));
                let _ = ctx.send_external_port(reply_to, wire::TAG_STATS_REPLY, reply);
            }
            _ => {}
        }
    }
}

/// Build the interposing envelope filter that injects a [`ChaosSession`]'s
/// decisions into the threaded fabric.  Only reliable data-plane traffic
/// ([`wire::TAG_ROP`]) and acks ([`wire::TAG_ACK`]) are faulted; the
/// control plane (peek/poke/stats) stays exact so observation never lies.
///
/// Delay and reorder share one mechanism — the envelope is *held back* and
/// released behind the link's next traffic (wall-clock sleeping inside a
/// sender is not an option).  A held envelope that is never overtaken is
/// recovered by the retransmission timer, whose re-send also flushes it.
///
/// `clients` maps fabric ids to cluster ranks, so the per-link decision
/// streams are drawn for the *true* (src rank, dst rank) pair — a send from
/// client 1 and one from client 0 to the same server are different links,
/// exactly as on the simulated backend.
fn chaos_filter(session: ChaosSession, clients: usize) -> EnvelopeFilter {
    let held: Mutex<HashMap<(usize, usize), Envelope>> = Mutex::new(HashMap::new());
    Arc::new(move |env: Envelope| {
        if env.tag != wire::TAG_ROP && env.tag != wire::TAG_ACK {
            return vec![env];
        }
        let src = rank_of(clients, env.from);
        let dst = rank_of(clients, env.to);
        let decision = session.decide(src, dst);
        if !decision.deliver {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut held = held.lock().expect("chaos hold-back table poisoned");
        if decision.reorder || decision.delay_units > 0 {
            if decision.duplicate {
                out.push(env.clone());
            }
            // Park this envelope; release whatever the link previously
            // parked (it has now been overtaken at least once).
            if let Some(prev) = held.insert((src, dst), env) {
                out.push(prev);
            }
            return out;
        }
        if decision.duplicate {
            out.push(env.clone());
        }
        out.push(env);
        if let Some(prev) = held.remove(&(src, dst)) {
            out.push(prev);
        }
        out
    })
}

/// Chaos-mode state of the transport: the shared fault session, the counter
/// table, and each client's reliability state.
struct DriverChaos {
    session: ChaosSession,
    table: Arc<RelTable>,
    /// The reliability layer's backoff cap, in nanoseconds — the longest
    /// silence a healthy-but-lossy link can exhibit between retransmission
    /// rounds.  Quiescence detection must out-wait several of these.
    rto_max: u64,
    /// One reliable set per client: an independent sequence space per
    /// (client, server) link.
    clients: Vec<ReliableSet<StoredEnv>>,
    /// Retransmission cadence of the client timers.
    tick: Duration,
    last_tick: Instant,
}

/// The real-concurrency cluster backend (threads + channels, wall-clock time).
pub struct ThreadTransport {
    /// Client runtimes, indexed by client rank.
    clients: Vec<NodeRuntime>,
    /// `None` once shut down (threads joined).
    cluster: Option<ThreadCluster>,
    /// Send handle of the client ports.
    injector: Injector,
    /// Delivery counters captured at shutdown so `metrics` stays meaningful.
    final_metrics: tc_simnet::ThreadMetrics,
    servers: usize,
    am_registry: AmRegistry,
    next_token: u64,
    tuning: ThreadTuning,
    /// Chaos-mode state; `None` keeps the lossless fast path.
    chaos: Option<DriverChaos>,
    /// Transport-clock origin ([`Transport::now_nanos`] measures from here).
    epoch: Instant,
    /// Since when `step` has seen zero progress while reliability frames
    /// stay unacked (chaos mode).  Bounds how long outstanding
    /// retransmissions can keep the caller reporting "busy" — a frame that
    /// can never be acked (e.g. a dead node thread) must eventually let
    /// waits time out instead of spinning forever.
    stalled_since: Option<Instant>,
    /// Errors reported by server nodes or the client-side decode paths.
    errors: Vec<CoreError>,
    /// Per-client "received operations, needs a poll" flags (scratch reused
    /// across batches).
    staged: Vec<bool>,
}

impl std::fmt::Debug for ThreadTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTransport")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers)
            .field("errors", &self.errors.len())
            .finish()
    }
}

impl ThreadTransport {
    /// Start a backend with one client (rank 0) and `servers` threaded
    /// server nodes (ranks 1..=servers).
    pub fn new(servers: usize, client_triple: TargetTriple, server_triple: TargetTriple) -> Self {
        Self::with_opt(servers, client_triple, server_triple, OptLevel::O2)
    }

    /// Constructor with default tuning, one client and no fault plan.
    pub fn with_opt(
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        opt_level: OptLevel,
    ) -> Self {
        Self::with_config(
            1,
            servers,
            client_triple,
            server_triple,
            opt_level,
            ThreadTuning::default(),
            None,
            None,
        )
    }

    /// Full-control constructor used by the cluster builder: `clients`
    /// client runtimes (ranks `0..clients`), `servers` threaded server nodes
    /// (ranks `clients..clients+servers`), scheduling tunables plus an
    /// optional fault plan.  With a plan installed, every data-plane
    /// envelope passes the chaos engine's envelope filter and travels over
    /// the reliable-delivery layer (sequence numbers, cumulative acks,
    /// retransmission, dedup) — with one independent sequence space per
    /// (client, server) link.
    #[allow(clippy::too_many_arguments)]
    pub fn with_config(
        clients: usize,
        servers: usize,
        client_triple: TargetTriple,
        server_triple: TargetTriple,
        opt_level: OptLevel,
        tuning: ThreadTuning,
        fault_plan: Option<FaultPlan>,
        rel_config: Option<RelConfig>,
    ) -> Self {
        let clients = clients.max(1);
        let total = (servers + clients) as u32;
        let am_registry: AmRegistry = Arc::new(Mutex::new(Vec::new()));
        let registry_for_nodes = Arc::clone(&am_registry);

        let epoch = Instant::now();
        let rel_cfg = rel_config.unwrap_or_else(RelConfig::threads_default);
        let chaos = fault_plan.map(|plan| DriverChaos {
            session: ChaosSession::new(plan),
            table: Arc::new(RelTable::new(servers + clients)),
            rto_max: rel_cfg.rto_max,
            clients: (0..clients).map(|_| ReliableSet::new(rel_cfg)).collect(),
            tick: Duration::from_nanos(rel_cfg.rto / 2),
            last_tick: epoch,
        });

        let mut config = ThreadConfig {
            max_batch: tuning.node_batch,
            ..ThreadConfig::default()
        };
        let node_chaos = chaos.as_ref().map(|c| {
            config.tick = Some(c.tick);
            config.filter = Some(chaos_filter(c.session.clone(), clients));
            Arc::clone(&c.table)
        });

        let cluster = ThreadCluster::start_with_config(servers, config, move |thread_id| {
            let rank = (thread_id + clients) as u32;
            ServerNode {
                runtime: NodeRuntime::with_opt_level(
                    WorkerAddr(rank),
                    total,
                    server_triple,
                    opt_level,
                ),
                clients,
                am_registry: Arc::clone(&registry_for_nodes),
                am_applied: 0,
                rel: node_chaos.as_ref().map(|table| NodeRel {
                    set: ReliableSet::new(rel_cfg),
                    table: Arc::clone(table),
                    rank: rank as usize,
                    epoch,
                }),
            }
        });

        ThreadTransport {
            clients: (0..clients)
                .map(|c| {
                    NodeRuntime::with_opt_level(
                        WorkerAddr(c as u32),
                        total,
                        client_triple,
                        opt_level,
                    )
                })
                .collect(),
            injector: cluster.injector(),
            cluster: Some(cluster),
            final_metrics: tc_simnet::ThreadMetrics::default(),
            servers,
            am_registry,
            next_token: 1,
            tuning,
            chaos,
            epoch,
            stalled_since: None,
            errors: Vec::new(),
            staged: vec![false; clients],
        }
    }

    /// Snapshot of the injected-fault counters (chaos mode only).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.session.stats())
    }

    /// Reliability counters of one rank (chaos mode only).
    pub fn rel_metrics(&self, rank: usize) -> Option<RelMetrics> {
        self.chaos.as_ref().and_then(|c| c.table.snapshot(rank))
    }

    /// Errors reported by server nodes or transport-level decode failures,
    /// in observation order.
    pub fn errors(&self) -> Vec<CoreError> {
        self.errors.clone()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Longest single park on the external queue: the step timeout, cut to
    /// the retransmission tick in chaos mode.
    fn park_slice(&self) -> Duration {
        let step = self.tuning.step_timeout;
        self.chaos.as_ref().map_or(step, |c| c.tick.min(step))
    }

    /// Publish client `c`'s reliability counters to the shared table.
    fn publish_rel(&self, c: usize) {
        if let Some(chaos) = &self.chaos {
            chaos.table.publish(c, &chaos.clients[c]);
        }
    }

    /// Run the clients' retransmission timers when their tick is due.
    fn client_tick(&mut self) {
        let clients = self.clients.len();
        let Some(chaos) = &mut self.chaos else {
            return;
        };
        if chaos.last_tick.elapsed() < chaos.tick {
            return;
        }
        chaos.last_tick = Instant::now();
        let now = self.epoch.elapsed().as_nanos() as u64;
        for (c, set) in chaos.clients.iter_mut().enumerate() {
            for f in set.tick(now) {
                let peer = f.peer as usize;
                if peer < clients {
                    continue; // loopback links never enter the reliable layer
                }
                let data = wire::encode_rel_head(f.seq, f.ack, &f.m.0);
                let _ = self.injector.send_vectored_from_port(
                    c,
                    peer - clients,
                    wire::TAG_ROP,
                    data,
                    f.m.1,
                );
            }
            chaos.table.publish(c, set);
        }
    }

    /// Move everything client `origin` posted into the threaded fabric,
    /// looping until the outgoing queues are quiescent.  Client-to-client
    /// traffic (including client-to-self) is delivered locally and may post
    /// follow-on operations (GET replies, result writes) that go out in the
    /// same flush, possibly from a different client than the origin.
    fn flush_outgoing(&mut self, origin: usize) {
        let clients = self.clients.len();
        let servers = self.servers;
        let mut dirty = vec![origin];
        while let Some(c) = dirty.pop() {
            loop {
                let outgoing = self.clients[c].take_outgoing();
                if outgoing.is_empty() {
                    break;
                }
                for msg in outgoing {
                    let dst = msg.dst.index();
                    if dst < clients {
                        // Client-to-client delivery: execute locally
                        // (loopback class, like the simulated backend's
                        // self-delivery — never faulted).
                        let runtime = &mut self.clients[dst];
                        runtime.deliver(msg);
                        for outcome in runtime.poll(usize::MAX) {
                            if let Err(e) = outcome {
                                self.errors.push(e);
                            }
                        }
                        if dst != c && !dirty.contains(&dst) {
                            dirty.push(dst);
                        }
                        continue;
                    }
                    // Server-bound: thread node ids are rank - clients.
                    // Drops (unknown rank, stopped node) are recorded in the
                    // cluster's counters and show up in the transport
                    // metrics, mirroring the fabric's lossy-but-accounted
                    // model.
                    let (head, payload) = wire::encode_op_vectored(&msg);
                    let now = self.now();
                    match &mut self.chaos {
                        Some(chaos) if dst < clients + servers => {
                            let (seq, ack) = chaos.clients[c].send(
                                dst as u32,
                                (head.clone(), payload.clone()),
                                now,
                            );
                            let data = wire::encode_rel_head(seq, ack, &head);
                            let _ = self.injector.send_vectored_from_port(
                                c,
                                dst - clients,
                                wire::TAG_ROP,
                                data,
                                payload,
                            );
                        }
                        _ => {
                            // Lossless — or misaddressed in chaos mode, which
                            // skips reliability (it would retransmit forever)
                            // and lets the fabric count the drop.
                            let _ = self.injector.send_vectored_from_port(
                                c,
                                dst - clients,
                                wire::TAG_OP,
                                head,
                                payload,
                            );
                        }
                    }
                }
            }
            self.publish_rel(c);
        }
    }

    /// Deliver a decoded client-bound operation into its destination
    /// runtime (the op head carries the true destination rank) and mark that
    /// client for a poll.
    fn deliver_op(&mut self, op: Result<OutgoingMessage>) {
        match op {
            Ok(msg) if msg.dst.index() < self.clients.len() => {
                let dst = msg.dst.index();
                self.clients[dst].deliver(msg);
                self.staged[dst] = true;
            }
            Ok(msg) => self.errors.push(CoreError::Transport(format!(
                "driver received an operation for non-client rank {}",
                msg.dst.index()
            ))),
            Err(e) => self.errors.push(e),
        }
    }

    /// Handle one envelope from the external queue.  `Envelope::to` names
    /// the port it was sent to: client `c`'s reliable frames and acks drive
    /// that client's reliable set.
    fn on_external(&mut self, env: Envelope) {
        let clients = self.clients.len();
        match env.tag {
            wire::TAG_OP => self.deliver_op(wire::decode_op_vectored(&env.data, &env.payload)),
            wire::TAG_ROP => {
                let c = external_port(env.to).unwrap_or(clients);
                let now = self.now();
                let Some(set) = self.chaos.as_mut().and_then(|ch| ch.clients.get_mut(c)) else {
                    self.errors.push(CoreError::Transport(
                        "reliable envelope without a fault plan".into(),
                    ));
                    return;
                };
                let (seq, ack, head) = match wire::decode_rel_head(&env.data) {
                    Ok(parts) => parts,
                    Err(e) => {
                        self.errors.push(e);
                        return;
                    }
                };
                let src = rank_of(clients, env.from);
                let out = set.on_data(src as u32, seq, ack, (head, env.payload), now);
                if src >= clients && src < clients + self.servers {
                    let _ = self.injector.send_from_port(
                        c,
                        src - clients,
                        wire::TAG_ACK,
                        wire::encode_ack(out.ack),
                    );
                }
                self.publish_rel(c);
                for (h, p) in out.deliver {
                    self.deliver_op(wire::decode_op_vectored(&h, &p));
                }
            }
            wire::TAG_ACK => {
                let c = external_port(env.to).unwrap_or(clients);
                let now = self.now();
                let set = self.chaos.as_mut().and_then(|ch| ch.clients.get_mut(c));
                if let (Some(set), Ok(ack)) = (set, wire::decode_ack(&env.data)) {
                    set.on_ack(rank_of(clients, env.from) as u32, ack, now);
                    self.publish_rel(c);
                }
            }
            wire::TAG_ERROR => self.errors.push(CoreError::Transport(
                String::from_utf8_lossy(&env.data).into_owned(),
            )),
            // Stale control replies (from a timed-out request); live ones
            // are intercepted by `control_roundtrip` before this.
            _ => {}
        }
    }

    /// Handle a batch of external envelopes, then poll every client that
    /// received operations and flush whatever it posted in response.
    fn process(&mut self, batch: impl IntoIterator<Item = Envelope>) {
        for env in batch {
            self.on_external(env);
        }
        for c in 0..self.clients.len() {
            if !std::mem::take(&mut self.staged[c]) {
                continue;
            }
            for outcome in self.clients[c].poll(usize::MAX) {
                if let Err(e) = outcome {
                    self.errors.push(e);
                }
            }
            self.flush_outgoing(c);
        }
    }

    /// Issue a control request to server `rank` and wait for its tokened
    /// reply.  The request is sent from the control port (`clients`), so the
    /// reply comes back on the external queue; every other envelope that
    /// arrives in the meantime is processed, not dropped.
    fn control_roundtrip(
        &mut self,
        rank: usize,
        request_tag: u64,
        reply_tag: u64,
        body: &[u8],
    ) -> Result<Vec<u8>> {
        let clients = self.clients.len();
        if rank < clients || rank >= clients + self.servers {
            return Err(CoreError::Transport(format!(
                "control request addressed to invalid rank {rank} ({}..={} expected)",
                clients,
                clients + self.servers - 1
            )));
        }
        if self.cluster.is_none() {
            return Err(CoreError::Transport("thread transport is shut down".into()));
        }
        let token = self.next_token;
        self.next_token += 1;
        let status = self.injector.send_from_port(
            clients,
            rank - clients,
            request_tag,
            wire::encode_control(token, body),
        );
        if !status.is_delivered() {
            return Err(CoreError::Transport(format!(
                "control request to rank {rank} not delivered: {status:?}"
            )));
        }
        let deadline = Instant::now() + self.tuning.control_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CoreError::WaitTimeout {
                    what: format!("control reply (tag {reply_tag}) from rank {rank}"),
                });
            }
            self.client_tick();
            let park = remaining.min(self.park_slice());
            let env = match &self.cluster {
                Some(cluster) => cluster.recv_external(park),
                None => return Err(CoreError::Transport("thread transport is shut down".into())),
            };
            let Some(env) = env else {
                continue;
            };
            if env.tag == reply_tag && env.from == rank - clients {
                if let Ok((reply_token, reply_body)) = wire::decode_control(&env.data) {
                    if reply_token == token {
                        return Ok(reply_body.to_vec());
                    }
                    continue; // stale reply from an abandoned request
                }
            }
            self.process([env]);
        }
    }
}

impl Transport for ThreadTransport {
    fn backend_name(&self) -> &'static str {
        "threads"
    }

    /// Per-link reliability health: every rank — clients included — reports
    /// the most-stressed link it last published to the shared atomic table
    /// (one row per rank).  Server rows are read field-by-field with relaxed
    /// loads while their node threads may republish them, so a row may tear
    /// between fields; the values are diagnostic and each field is
    /// individually recent.
    fn link_health(&self) -> Vec<(u32, LinkHealth)> {
        let Some(chaos) = &self.chaos else {
            return Vec::new();
        };
        let ranks = self.clients.len() + self.servers;
        (0..ranks)
            .filter_map(|rank| chaos.table.health_snapshot(rank).map(|h| (rank as u32, h)))
            .collect()
    }

    fn node_count(&self) -> usize {
        self.servers + self.clients.len()
    }

    fn client_count(&self) -> usize {
        self.clients.len()
    }

    fn client(&self, id: ClientId) -> &NodeRuntime {
        assert!(id.0 < self.clients.len(), "no client with id {id}");
        &self.clients[id.0]
    }

    fn client_mut(&mut self, id: ClientId) -> &mut NodeRuntime {
        assert!(id.0 < self.clients.len(), "no client with id {id}");
        &mut self.clients[id.0]
    }

    fn deploy_am(&mut self, name: &str, handler: NativeAmHandler) -> Result<()> {
        // Clients apply immediately; servers catch up (in registry order,
        // hence with identical handler ids) before their next message.
        for client in &mut self.clients {
            client.deploy_am_handler(name.to_string(), handler.clone());
        }
        self.am_registry
            .lock()
            .map_err(|_| CoreError::Transport("AM registry poisoned".into()))?
            .push((name.to_string(), handler));
        Ok(())
    }

    fn flush_client(&mut self, id: ClientId) -> Result<()> {
        if id.0 >= self.clients.len() {
            return Err(CoreError::Transport(format!("no client with id {id}")));
        }
        if self.cluster.is_none() {
            return Err(CoreError::Transport("thread transport is shut down".into()));
        }
        // Synchronous on the caller's thread: when this returns, the ops are
        // in the node channels, so a control round trip issued next acts as
        // a barrier behind them (same per-producer FIFO).
        self.flush_outgoing(id.0);
        Ok(())
    }

    fn step(&mut self) -> Result<bool> {
        let started = Instant::now();
        let busy_deadline = started + self.tuning.busy_step_timeout;
        let step_timeout = self.tuning.step_timeout;
        let step_batch = self.tuning.step_batch.max(1);
        let mut silent_since = started;
        loop {
            // The retransmission timers run whether or not traffic flows (a
            // held-back envelope is recovered by the re-send).
            self.client_tick();
            let park = self.park_slice();
            let Some(cluster) = &self.cluster else {
                return Ok(false);
            };
            // Spin first: the reply to a just-flushed op usually lands
            // within the window, and catching it here skips a park/wake.
            let arrived = if started.elapsed() < SPIN_WINDOW {
                match cluster.try_recv_external() {
                    Some(env) => Some(env),
                    None => {
                        std::thread::yield_now();
                        continue;
                    }
                }
            } else {
                let silence_left = step_timeout.saturating_sub(silent_since.elapsed());
                cluster.recv_external(park.min(silence_left))
            };
            if let Some(env) = arrived {
                // Drain the burst behind the first envelope: one wakeup,
                // one batch of work.
                let mut batch = vec![env];
                while batch.len() < step_batch {
                    match cluster.try_recv_external() {
                        Some(env) => batch.push(env),
                        None => break,
                    }
                }
                self.stalled_since = None;
                self.process(batch);
                return Ok(true);
            }
            if silent_since.elapsed() < step_timeout {
                continue; // a chaos-mode tick slice ended, not the silence
            }
            // step_timeout of silence.  Only call it idleness when no
            // node-bound message is queued or mid-processing — and, in chaos
            // mode, no frame anywhere awaits an ack (a partitioned link with
            // retransmits pending is *busy*, not idle) — otherwise keep
            // waiting (bounded).
            let unacked = self.unacked_total();
            if unacked > 0 {
                // Reliability work is outstanding: report progress so waits
                // keep running — but bound the total silence.  A frame that
                // stays unacked through many busy budgets with zero traffic
                // (dead node thread, unhealable partition) must not wedge
                // idleness detection forever.
                //
                // The bound must out-wait the retransmission machinery
                // itself: with an armed RTO deadline, a healthy link can
                // legitimately stay silent for a full backed-off round (up
                // to `rto_max`), so a horizon shorter than a few such rounds
                // would declare `WaitTimeout` on traffic the reliable layer
                // was about to recover (the pre-fix bug when
                // `busy_step_timeout` was tuned below the RTO backoff).
                let now = Instant::now();
                let since = *self.stalled_since.get_or_insert(now);
                let rel_horizon = self
                    .chaos
                    .as_ref()
                    .map(|c| Duration::from_nanos(c.rto_max) * 4)
                    .unwrap_or(Duration::ZERO);
                let horizon = (self.tuning.busy_step_timeout * 10).max(rel_horizon);
                return Ok(now.duration_since(since) < horizon);
            }
            self.stalled_since = None;
            if cluster.pending_messages() == 0 || Instant::now() >= busy_deadline {
                return Ok(false);
            }
            silent_since = Instant::now();
        }
    }

    fn idle_grace(&self) -> u32 {
        self.tuning.idle_grace
    }

    fn take_completions(&mut self, id: ClientId) -> Vec<Completion> {
        assert!(id.0 < self.clients.len(), "no client with id {id}");
        self.clients[id.0].take_completions()
    }

    fn now_nanos(&self) -> u64 {
        self.now()
    }

    fn unacked_total(&self) -> u64 {
        self.chaos
            .as_ref()
            .map(|c| c.table.total_unacked())
            .unwrap_or(0)
    }

    fn next_rel_deadline(&self) -> Option<u64> {
        self.chaos
            .as_ref()
            .and_then(|c| c.table.earliest_deadline())
    }

    fn read_memory(&mut self, rank: usize, addr: u64, len: usize) -> Result<Vec<u8>> {
        if rank < self.clients.len() {
            let mut buf = vec![0u8; len];
            self.clients[rank]
                .memory
                .read(addr, &mut buf)
                .map_err(|e| CoreError::Transport(e.to_string()))?;
            return Ok(buf);
        }
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&addr.to_le_bytes());
        body.extend_from_slice(&(len as u64).to_le_bytes());
        let reply = self.control_roundtrip(rank, wire::TAG_PEEK, wire::TAG_PEEK_REPLY, &body)?;
        if reply.len() != len {
            return Err(CoreError::Transport(format!(
                "peek of {len} bytes at {addr:#x} on rank {rank} failed"
            )));
        }
        Ok(reply)
    }

    fn write_memory(&mut self, rank: usize, addr: u64, data: &[u8]) -> Result<()> {
        if rank < self.clients.len() {
            return self.clients[rank]
                .memory
                .write(addr, data)
                .map_err(|e| CoreError::Transport(e.to_string()));
        }
        let mut body = Vec::with_capacity(8 + data.len());
        body.extend_from_slice(&addr.to_le_bytes());
        body.extend_from_slice(data);
        let reply = self.control_roundtrip(rank, wire::TAG_POKE, wire::TAG_POKE_ACK, &body)?;
        if reply != [1] {
            return Err(CoreError::Transport(format!(
                "poke of {} bytes at {addr:#x} on rank {rank} failed",
                data.len()
            )));
        }
        Ok(())
    }

    fn node_stats(&mut self, rank: usize) -> Result<RuntimeStats> {
        if rank < self.clients.len() {
            return Ok(self.clients[rank].stats);
        }
        let reply = self.control_roundtrip(rank, wire::TAG_STATS, wire::TAG_STATS_REPLY, &[])?;
        wire::decode_stats(&reply)
    }

    fn metrics(&self) -> TransportMetrics {
        let m = self
            .cluster
            .as_ref()
            .map(|c| c.metrics())
            .unwrap_or(self.final_metrics);
        let (retransmits, dup_drops) = self
            .chaos
            .as_ref()
            .map(|c| c.table.totals())
            .unwrap_or((0, 0));
        TransportMetrics {
            messages_delivered: m.delivered,
            messages_dropped: m.dropped(),
            bytes_sent: self.clients.iter().map(|c| c.stats.bytes_sent).sum(),
            retransmits,
            dup_drops,
            faults_injected: self
                .chaos
                .as_ref()
                .map(|c| c.session.stats().total_injected())
                .unwrap_or(0),
        }
    }

    fn node_reliability(&self, rank: usize) -> Option<RelMetrics> {
        self.rel_metrics(rank)
    }

    fn chaos_stats(&self) -> Option<ChaosStats> {
        ThreadTransport::chaos_stats(self)
    }

    fn shutdown(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            self.final_metrics = cluster.metrics();
            cluster.shutdown();
        }
    }
}

impl Drop for ThreadTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
