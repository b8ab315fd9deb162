//! What every workload shares: the run context with its op and failure
//! accounting, the result-slot ring, cluster builders, and the closed-loop
//! and windowed op drivers.

use crate::stats::{median, ratio};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use tc_core::cluster::{
    Cluster, ClusterBuilder, CompletionSet, CompletionToken, Ready, SocketSpec, SocketTuning,
    Transport,
};
use tc_core::layout::RESULT_MAILBOX_SLOTS;
use tc_core::{ResultHandle, RuntimeStats, TransportMetrics};
use tc_simnet::Platform;
use tc_ucx::Bytes;

/// Server ranks in every workload's cluster.
pub const SERVERS: usize = 2;
/// Operations in flight in the windowed arms of the socket workloads.
pub const WINDOW: usize = 32;
/// Where the run keeps its sockets and span files, relative to the
/// directory it runs in.
pub const RUN_DIR: &str = ".perfbench_run";

/// The platform every workload runs: Xeon client and Xeon servers, so the
/// servers' triple is the host's and binary ifuncs load natively.
pub fn platform() -> Platform {
    Platform::thor_xeon()
}

pub fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .platform(platform())
        .clients(1)
        .servers(SERVERS)
}

/// The server of op `i` of a closed-loop arm that turns to the next server
/// every `block` ops.  Both server processes spin for a millisecond after
/// their last message, so one op in flight spread over both servers keeps
/// three processes spinning on a 2-vCPU host and the figures follow the
/// scheduler; with blocks the idle server goes back to sleeping.
pub fn block_server(i: usize, block: usize) -> usize {
    (i / block.max(1)) % SERVERS
}

/// A builder for the socket backend whose server processes are this
/// executable (see `main`) and whose listener lives under [`RUN_DIR`].
///
/// Waits give up after 50 idle 20 ms steps instead of the default 2: on a
/// shared 2-vCPU host a server process can sit descheduled for more than
/// 40 ms, and the default grace then ends an op that is still in flight in
/// `WaitTimeout` (seen under heavy host steal in the windowed TSI arm).  A
/// wait that is truly lost still fails, one second later.
pub fn socket_builder() -> ClusterBuilder {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = PathBuf::from(RUN_DIR).join(format!("{}-{n}.sock", std::process::id()));
    builder()
        .server_bin(std::env::current_exe().expect("own executable path"))
        .socket_addr(SocketSpec::Unix(path))
        .socket_tuning(SocketTuning {
            idle_grace: 50,
            ..SocketTuning::default()
        })
}

/// X-RDMA result slots taken round-robin from the whole mailbox.
///
/// `Cluster::result_slot` hands out ever-growing slot numbers while
/// `layout::result_slot_addr` wraps them modulo `RESULT_MAILBOX_SLOTS`, so
/// the 4097th allocated result lands in slot 0's mailbox word and its wait
/// ends in `WaitTimeout`.  That is an open defect of the cluster API; the
/// benchmark stays inside the mailbox by reusing slots itself.
pub struct SlotRing {
    next: u64,
}

impl SlotRing {
    pub fn new() -> Self {
        SlotRing { next: 0 }
    }

    pub fn take(&mut self) -> ResultHandle {
        let slot = self.next;
        self.next = (self.next + 1) % RESULT_MAILBOX_SLOTS;
        ResultHandle::for_slot(slot)
    }
}

/// Everything one pass measures, summed over its rounds.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each round's set-up.
    pub setup_s: Vec<f64>,
    /// Per-op latencies (µs) of the three closed-loop arms, correct ops only.
    pub ops: [Vec<f64>; 3],
    pub window_ops: u64,
    pub window_secs: f64,
    /// Ops per second of each chunk of the windowed arm.
    pub window_rates: Vec<f64>,
    /// Report the windowed rate pooled over the whole run rather than as
    /// the median chunk: set where the rate's spread comes from the seeded
    /// fault count rather than from the host.
    pub pool_window: bool,
    /// Operations outstanding at each `wait_any` of the windowed arm.
    pub inflight: Vec<f64>,
    /// Milliseconds of `write_memory`/`install_cluster` per set-up.
    pub install_ms: Vec<f64>,
    /// Milliseconds of `build_ifunc_library` per set-up.
    pub build_lib_ms: Vec<f64>,
    /// Runtime counters summed over the server ranks of every round.
    pub servers: RuntimeStats,
    /// Ifunc frames sent full / truncated, over every rank.
    pub full_sends: u64,
    pub truncated_sends: u64,
    pub fabric: TransportMetrics,
    /// Ifunc executions and client-issued ifunc ops of the arm that counts
    /// hops (the X-RDMA chase; elsewhere the TSI arm).
    pub hop_ifuncs: u64,
    pub hop_ops: u64,
    /// `rto / srtt` of every link with an RTT estimate at round end.
    pub rto_per_srtt: Vec<f64>,
}

impl Measured {
    /// The windowed arm's rate in ops per second.
    pub fn window_rate(&self) -> f64 {
        if self.pool_window {
            ratio(self.window_ops as f64, self.window_secs)
        } else {
            median(&self.window_rates)
        }
    }

    /// Add the cluster's counters to the pass totals at the end of a round.
    pub fn absorb_counters<T: Transport>(
        &mut self,
        cluster: &mut Cluster<T>,
    ) -> tc_core::Result<()> {
        for rank in 0..cluster.node_count() {
            let s = cluster.stats(rank)?;
            self.full_sends += s.ifunc_full_sends;
            self.truncated_sends += s.ifunc_truncated_sends;
            if rank >= cluster.first_server_rank() {
                add_stats(&mut self.servers, &s);
            }
        }
        let f = cluster.metrics();
        self.fabric.messages_delivered += f.messages_delivered;
        self.fabric.messages_dropped += f.messages_dropped;
        self.fabric.bytes_sent += f.bytes_sent;
        self.fabric.retransmits += f.retransmits;
        self.fabric.dup_drops += f.dup_drops;
        self.fabric.faults_injected += f.faults_injected;
        for (_, h) in cluster.link_health() {
            if h.srtt > 0 {
                self.rto_per_srtt.push(h.rto as f64 / h.srtt as f64);
            }
        }
        Ok(())
    }
}

fn add_stats(sum: &mut RuntimeStats, s: &RuntimeStats) {
    sum.full_frames_received += s.full_frames_received;
    sum.truncated_frames_received += s.truncated_frames_received;
    sum.ifuncs_executed += s.ifuncs_executed;
    sum.jit_compilations += s.jit_compilations;
    sum.binary_loads += s.binary_loads;
    sum.ams_executed += s.ams_executed;
    sum.gets_served += s.gets_served;
    sum.puts_applied += s.puts_applied;
    sum.ifunc_full_sends += s.ifunc_full_sends;
    sum.ifunc_truncated_sends += s.ifunc_truncated_sends;
    sum.bytes_sent += s.bytes_sent;
}

/// Sum of the server ranks' counters right now (for per-arm deltas).
pub fn server_stats<T: Transport>(cluster: &mut Cluster<T>) -> tc_core::Result<RuntimeStats> {
    let mut sum = RuntimeStats::default();
    for idx in 0..cluster.server_count() {
        let rank = cluster.server_rank(idx);
        add_stats(&mut sum, &cluster.stats(rank)?);
    }
    Ok(sum)
}

/// The run's op accounting and settings.
pub struct Ctx {
    pub seed: u64,
    pub rounds: usize,
    ops_override: Option<usize>,
    pub tr: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run checks (read-backs, counter sums) that did not hold.
    pub bad_checks: Vec<String>,
    /// Report the next checked op as wrong by flipping its expected value
    /// (the smoke test's proof that a wrong value is caught).
    wrong_pending: bool,
}

impl Ctx {
    pub fn new(
        seed: u64,
        rounds: usize,
        ops_override: Option<usize>,
        trace: bool,
        expect_wrong: bool,
    ) -> Self {
        Ctx {
            seed,
            rounds,
            ops_override,
            tr: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            bad_checks: Vec::new(),
            wrong_pending: expect_wrong,
        }
    }

    /// Add another pass's op accounting to this one.
    pub fn absorb(&mut self, other: Ctx) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bad_checks.extend(other.bad_checks);
    }

    /// Ops per round of an arm whose nominal count is `nominal`.
    pub fn ops(&self, nominal: usize) -> usize {
        self.ops_override.unwrap_or(nominal)
    }

    /// Count one op whose value was `actual`; true when it was correct.
    pub fn check(&mut self, actual: u64, expected: u64) -> bool {
        self.attempted += 1;
        let expected = if std::mem::take(&mut self.wrong_pending) {
            expected ^ 1
        } else {
            expected
        };
        if actual == expected {
            true
        } else {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: wrong value {actual:#x}, expected {expected:#x}");
            }
            false
        }
    }

    /// Count one op that ended in an error or a non-value outcome.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failed op: {what}");
        }
    }

    /// Record an end-of-run check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.bad_checks.push(what);
        }
    }

    /// Run one closed-loop op: time it, check its value, keep its latency.
    pub fn closed_op(
        &mut self,
        samples: &mut Vec<f64>,
        expected: u64,
        op: impl FnOnce(&mut Tracer) -> tc_core::Result<u64>,
    ) {
        self.tr.set_op(self.attempted);
        let root = self.tr.enter("bench.op");
        let t0 = Instant::now();
        let out = op(&mut self.tr);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.tr.exit(root);
        match out {
            Ok(v) => {
                if self.check(v, expected) {
                    samples.push(us);
                }
            }
            Err(e) => self.fail(e),
        }
    }

    /// Drive `total` ops with `depth` in flight.  `post(cluster, set, i)`
    /// posts op `i`, registers it in `set` and returns its token and
    /// expected value; posted ops are flushed once per refill.  Every
    /// `chunk` completions add one rate sample to `m.window_rates`.
    pub fn windowed<T: Transport>(
        &mut self,
        m: &mut Measured,
        cluster: &mut Cluster<T>,
        total: usize,
        depth: usize,
        chunk: usize,
        mut post: impl FnMut(
            &mut Cluster<T>,
            &mut CompletionSet,
            usize,
        ) -> tc_core::Result<(CompletionToken, u64)>,
    ) {
        let chunk = chunk.clamp(1, total.max(1));
        let mut set = CompletionSet::new();
        let mut pending: HashMap<CompletionToken, u64> = HashMap::new();
        let mut next = 0usize;
        let mut done = 0usize;
        let t0 = Instant::now();
        let mut chunk_start = t0;
        while next < total || !set.is_empty() {
            self.tr.set_op(self.attempted + set.len() as u64);
            let span = self.tr.enter("runtime.post");
            while next < total && set.len() < depth {
                match post(cluster, &mut set, next) {
                    Ok((token, expected)) => {
                        pending.insert(token, expected);
                    }
                    Err(e) => self.fail(e),
                }
                next += 1;
            }
            let flushed = cluster.flush();
            self.tr.exit(span);
            if let Err(e) = flushed {
                self.fail(e);
            }
            if set.is_empty() {
                continue;
            }
            m.inflight.push(set.len() as f64);
            let span = self.tr.enter("completion.wait_any");
            let got = cluster.wait_any(&mut set);
            self.tr.exit(span);
            match got {
                Ok((token, ready)) => {
                    let expected = pending.remove(&token).expect("token was registered");
                    match ready_value(ready) {
                        Some(v) => {
                            self.check(v, expected);
                        }
                        None => self.fail("windowed op ended without a value"),
                    }
                }
                Err(e) => {
                    // Nothing in the set can complete any more.
                    done += pending.len().saturating_sub(1);
                    for _ in pending.drain() {
                        self.fail(&e);
                    }
                    set = CompletionSet::new();
                }
            }
            done += 1;
            if done.is_multiple_of(chunk) {
                m.window_rates
                    .push(chunk as f64 / chunk_start.elapsed().as_secs_f64());
                chunk_start = Instant::now();
            }
        }
        m.window_ops += total as u64;
        m.window_secs += t0.elapsed().as_secs_f64();
    }
}

/// The value an op resolved to: the result word, the 8 fetched bytes, or 0
/// for an acknowledged PUT.
pub fn ready_value(ready: Ready) -> Option<u64> {
    match ready {
        Ready::Result(v) => Some(v),
        Ready::Get(bytes) => word(&bytes),
        Ready::Put => Some(0),
        Ready::Deadline | Ready::PeerLost(_) => None,
    }
}

/// The little-endian u64 in `bytes`, which must be exactly 8 long.
pub fn word(bytes: &Bytes) -> Option<u64> {
    let b: [u8; 8] = bytes.as_slice().try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

/// Time `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}
