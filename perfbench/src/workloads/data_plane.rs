//! `inject` and `lossy`: the cross-process message path of Tables IV–VI on
//! the socket backend.  Closed-loop arms, one op in flight: `tsi` (cached
//! TSI-reporting ifunc, truncated frame, X-RDMA result), `get` (8 B at
//! seeded addresses, checked against the preloaded image and the PUTs so
//! far) and `put` (1 KiB confirmed PUTs, read back at the end), taking
//! turns a block at a time; then a windowed arm with 32 in flight — TSI on
//! `inject`, 8 B GETs on `lossy`.
//!
//! `lossy` runs the same ops under a seeded 1% drop / 0.5% duplicate /
//! 1% reorder fault plan, so it is the one workload where the reliable
//! layer and the chaos engine work; `inject` bypasses both.

use crate::harness::{self, time_ms, word, Ctx, Measured, SlotRing};
use crate::replay::{self, ExecBench};
use std::time::Instant;
use tc_bitir::TargetTriple;
use tc_core::cluster::SocketTransport;
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, Cluster, IfuncHandle, IfuncLibrary};
use tc_simnet::SplitMix64;
use tc_ucx::{Bytes, UcpOp};
use tc_workloads::{platform_toolchain, reporting_tsi_payload, sweep_plan, tsi_reporting_module};

const TSI: &str = "perfbench_tsi";
const PUT_BYTES: usize = 1024;

/// Which of the two workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Inject,
    Lossy,
}

struct Shape {
    region: usize,
    tsi: usize,
    get: usize,
    put: usize,
    window: usize,
    /// Closed-loop ops of each arm sent to one server before the arms
    /// turn to the next (see [`harness::block_server`]); the arms take
    /// turns a block at a time.
    block: usize,
    /// Completions per windowed rate sample (`inject` only: `lossy` pools
    /// its rate over the run).
    chunk: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::Inject => Shape {
                region: 4 << 20,
                tsi: 8000,
                get: 8000,
                put: 8000,
                window: 40000,
                block: 500,
                chunk: 4000,
            },
            Kind::Lossy => Shape {
                region: 4 << 20,
                tsi: 150,
                get: 150,
                put: 150,
                window: 1500,
                block: 75,
                chunk: 1500,
            },
        }
    }
}

struct Inputs {
    /// Each server's preloaded data region.
    images: Vec<Vec<u8>>,
    /// (server index, delta) per TSI op, closed loop then windowed.
    tsi: Vec<(usize, u64)>,
    tsi_window: Vec<(usize, u64)>,
    /// (server index, offset) per GET, closed loop then windowed.
    get: Vec<(usize, usize)>,
    get_window: Vec<(usize, usize)>,
    /// (server index, offset, pool offset) per PUT.
    put: Vec<(usize, usize, usize)>,
    /// PUT payloads are 1 KiB views into this pool.
    pool: Bytes,
}

/// The server of op `i` of an arm: blockwise for the closed-loop arms,
/// drawn from `rng` for the windowed arm, whose ops in flight spread over
/// both servers.
fn server(rng: &mut SplitMix64, i: usize, block: Option<usize>) -> usize {
    match block {
        Some(block) => harness::block_server(i, block),
        None => rng.below(harness::SERVERS as u64) as usize,
    }
}

fn inputs(ctx: &Ctx, kind: Kind) -> Inputs {
    let shape = kind.shape();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x1A7EC7);
    let mut fill = |len: usize| -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v
    };
    let images = (0..harness::SERVERS).map(|_| fill(shape.region)).collect();
    let pool = Bytes::from(fill(64 << 10));
    let tsi_ops = |rng: &mut SplitMix64, count: usize, block: Option<usize>| -> Vec<(usize, u64)> {
        (0..count)
            .map(|i| (server(rng, i, block), rng.range(1, 256)))
            .collect()
    };
    let get_ops =
        |rng: &mut SplitMix64, count: usize, block: Option<usize>| -> Vec<(usize, usize)> {
            (0..count)
                .map(|i| {
                    (
                        server(rng, i, block),
                        rng.below((shape.region - 8) as u64) as usize,
                    )
                })
                .collect()
        };
    let tsi = tsi_ops(&mut rng, ctx.ops(shape.tsi), Some(shape.block));
    let get = get_ops(&mut rng, ctx.ops(shape.get), Some(shape.block));
    let put = (0..ctx.ops(shape.put))
        .map(|i| {
            (
                server(&mut rng, i, Some(shape.block)),
                rng.below((shape.region - PUT_BYTES) as u64) as usize,
                rng.below((pool.len() - PUT_BYTES) as u64) as usize,
            )
        })
        .collect();
    let (tsi_window, get_window) = match kind {
        Kind::Inject => (tsi_ops(&mut rng, ctx.ops(shape.window), None), Vec::new()),
        Kind::Lossy => (Vec::new(), get_ops(&mut rng, ctx.ops(shape.window), None)),
    };
    Inputs {
        images,
        tsi,
        tsi_window,
        get,
        get_window,
        put,
        pool,
    }
}

/// Each round draws its own fault plan from the run's seed: the chaos engine
/// decides per link traversal, so a plan repeated every round would repeat
/// the same faults and the run would measure one fault pattern many times.
fn build(ctx: &Ctx, kind: Kind, round: usize) -> tc_core::Result<Cluster<SocketTransport>> {
    let b = harness::socket_builder();
    match kind {
        Kind::Inject => b.build_socket(),
        Kind::Lossy => {
            let seed = ctx.seed.wrapping_add((round as u64) << 32);
            b.fault_plan(sweep_plan(seed, 0.01)).build_socket()
        }
    }
}

fn load_word(image: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(image[off..off + 8].try_into().expect("8 bytes"))
}

pub fn run(ctx: &mut Ctx, m: &mut Measured, kind: Kind) -> tc_core::Result<()> {
    let inp = inputs(ctx, kind);
    let shape = kind.shape();
    m.pool_window = kind == Kind::Lossy;
    let module = tsi_reporting_module(TSI);
    let toolchain = platform_toolchain(&harness::platform());
    let mut kept = None;
    for round in 0..ctx.rounds {
        let t0 = Instant::now();
        let mut cluster = build(ctx, kind, round)?;
        let span = ctx.tr.enter("workloads.install");
        let (installed, ms) = time_ms(|| -> tc_core::Result<()> {
            for (s, image) in inp.images.iter().enumerate() {
                let rank = cluster.server_rank(s);
                cluster.write_memory(rank, DATA_REGION_BASE, image)?;
            }
            Ok(())
        });
        ctx.tr.exit(span);
        installed?;
        m.install_ms.push(ms);
        let span = ctx.tr.enter("ifunc.build_lib");
        let (lib, ms) = time_ms(|| build_ifunc_library(&module, &toolchain));
        ctx.tr.exit(span);
        let lib = lib?;
        m.build_lib_ms.push(ms);
        let handle = cluster.register_ifunc(lib.clone());
        let mut ring = SlotRing::new();
        let mut counters = [0u64; harness::SERVERS];
        // Warm-up: the first full frame and JIT on each server.  Under the
        // fault plan every extra warm-up op is one more chance of a
        // retransmission stall inside `setup_s`.
        for (s, counter) in counters.iter_mut().enumerate() {
            let rank = cluster.server_rank(s);
            let v = tsi_op(&mut cluster, handle, &mut ring, rank, 1)?;
            *counter += 1;
            ctx.expect(v == *counter, || "warm-up TSI".into());
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());

        // The closed-loop arms take turns a block at a time, so each arm
        // samples the whole round rather than one stretch of it.  PUTs
        // rewrite the images; the model follows so GETs and the read-back
        // can be checked byte for byte.
        let mut model = inp.images.clone();
        let before = harness::server_stats(&mut cluster)?;
        let longest = inp.tsi.len().max(inp.get.len()).max(inp.put.len());
        for b in 0..longest.div_ceil(shape.block) {
            let block = |len: usize| (b * shape.block).min(len)..((b + 1) * shape.block).min(len);
            for &(s, delta) in &inp.tsi[block(inp.tsi.len())] {
                let rank = cluster.server_rank(s);
                let slot = ring.take();
                counters[s] += delta;
                let c = &mut cluster;
                ctx.closed_op(&mut m.ops[0], counters[s], |tr| {
                    let p = reporting_tsi_payload::encode(0, slot.slot(), delta, 0);
                    let msg = tr.time("frame.message", || c.bitcode_message(handle, p))?;
                    tr.time("runtime.post", || c.send_ifunc(&msg, rank))?;
                    tr.time("transport.wait", || c.wait(&slot))
                });
            }
            for &(s, off) in &inp.get[block(inp.get.len())] {
                let rank = cluster.server_rank(s);
                let c = &mut cluster;
                ctx.closed_op(&mut m.ops[1], load_word(&model[s], off), |tr| {
                    let h = tr.time("runtime.post", || {
                        c.get(rank, DATA_REGION_BASE + off as u64, 8)
                    })?;
                    let data = tr.time("transport.wait", || c.wait(&h))?;
                    Ok(word(&data).unwrap_or(!0))
                });
            }
            for &(s, off, from) in &inp.put[block(inp.put.len())] {
                let rank = cluster.server_rank(s);
                let data = inp.pool.slice(from..from + PUT_BYTES);
                model[s][off..off + PUT_BYTES].copy_from_slice(data.as_slice());
                let c = &mut cluster;
                ctx.closed_op(&mut m.ops[2], 0, |tr| {
                    let h = tr.time("runtime.post", || {
                        c.put_confirmed(rank, DATA_REGION_BASE + off as u64, data)
                    })?;
                    tr.time("transport.wait", || c.wait(&h))?;
                    Ok(0)
                });
            }
        }
        // GETs and PUTs execute no ifunc, so the difference is the TSI arm's.
        let after = harness::server_stats(&mut cluster)?;
        m.hop_ifuncs += after.ifuncs_executed - before.ifuncs_executed;
        m.hop_ops += inp.tsi.len() as u64;

        match kind {
            Kind::Inject => {
                let ops = &inp.tsi_window;
                ctx.windowed(
                    m,
                    &mut cluster,
                    ops.len(),
                    harness::WINDOW,
                    shape.chunk,
                    |c, set, i| {
                        let (s, delta) = ops[i];
                        let slot = ring.take();
                        counters[s] += delta;
                        let msg = c.bitcode_message(
                            handle,
                            reporting_tsi_payload::encode(0, slot.slot(), delta, 0),
                        )?;
                        c.send_ifunc(&msg, c.server_rank(s))?;
                        Ok((set.add_result(slot), counters[s]))
                    },
                );
            }
            Kind::Lossy => {
                let ops = &inp.get_window;
                ctx.windowed(
                    m,
                    &mut cluster,
                    ops.len(),
                    harness::WINDOW,
                    shape.chunk,
                    |c, set, i| {
                        let (s, off) = ops[i];
                        let h = c.post_get(c.server_rank(s), DATA_REGION_BASE + off as u64, 8);
                        Ok((set.add_get(h), load_word(&model[s], off)))
                    },
                );
            }
        }

        for s in 0..harness::SERVERS {
            let rank = cluster.server_rank(s);
            let counter = cluster.read_u64(rank, TARGET_REGION_BASE)?;
            ctx.expect(counter == counters[s], || {
                format!(
                    "server {s} TSI counter {counter}, deltas sum to {}",
                    counters[s]
                )
            });
            let back = cluster.read_memory(rank, DATA_REGION_BASE, model[s].len())?;
            ctx.expect(back == model[s], || {
                format!("server {s} PUT read-back differs")
            });
        }
        m.absorb_counters(&mut cluster)?;
        cluster.shutdown();
        kept = Some(lib);
    }
    if ctx.tr.on() {
        replays(ctx, &inp, &kept.expect("at least one round"));
    }
    Ok(())
}

/// One closed TSI op outside the timed arms.
fn tsi_op(
    cluster: &mut Cluster<SocketTransport>,
    handle: IfuncHandle,
    ring: &mut SlotRing,
    rank: usize,
    delta: u64,
) -> tc_core::Result<u64> {
    let slot = ring.take();
    let msg = cluster.bitcode_message(
        handle,
        reporting_tsi_payload::encode(0, slot.slot(), delta, 0),
    )?;
    cluster.send_ifunc(&msg, rank)?;
    cluster.wait(&slot)
}

/// Replays on the TSI library and on the GET, PUT and ifunc ops of the run.
fn replays(ctx: &mut Ctx, inp: &Inputs, lib: &IfuncLibrary) {
    let triple = TargetTriple::parse(harness::platform().server_triple).expect("server triple");
    let mut exec = ExecBench::new(lib, triple, 1, DATA_REGION_BASE, &[]);
    for i in 0..256usize.min(inp.tsi.len()) {
        ctx.tr.set_op(i as u64);
        replay::library(&mut ctx.tr, lib, triple);
        let (_, delta) = inp.tsi[i];
        let p = reporting_tsi_payload::encode(0, 0, delta, 0);
        exec.run(&mut ctx.tr, &p);
        let msg = tc_core::IfuncMessage::bitcode(IfuncHandle(0), lib, p);
        replay::frame(&mut ctx.tr, &msg);
        replay::codecs(
            &mut ctx.tr,
            1,
            UcpOp::IfuncFrame {
                bytes: msg.wire_truncated(),
            },
        );
        let (_, off) = inp.get[i % inp.get.len()];
        let get = UcpOp::Get {
            remote_addr: DATA_REGION_BASE + off as u64,
            len: 8,
        };
        replay::codecs(&mut ctx.tr, 1, get);
        let (_, off, from) = inp.put[i % inp.put.len()];
        let put = UcpOp::PutConfirm {
            remote_addr: DATA_REGION_BASE + off as u64,
            data: inp.pool.slice(from..from + PUT_BYTES),
        };
        replay::codecs(&mut ctx.tr, 1, put);
    }
}
