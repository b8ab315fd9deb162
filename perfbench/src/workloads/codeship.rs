//! `codeship`: the uncached overhead of Tables I–III on the socket backend.
//! Set-up builds never-seen TSI-reporting libraries; each cold op ships one
//! to a server, as bitcode (decode, verify, JIT compile, execute) or as a
//! binary for the server triple (`tc-binfmt` load), and is followed by a warm
//! resend whose truncated frame hits the server's cache.  The windowed arm
//! ships further never-seen bitcode libraries, 32 in flight, so both server
//! processes compile at once.  It is the only workload where decode, compile
//! and binary loading sit on the critical path.

use crate::harness::{self, time_ms, Ctx, Measured, SlotRing};
use crate::replay::{self, ExecBench};
use std::time::Instant;
use tc_bitir::{Module, TargetTriple};
use tc_core::cluster::SocketTransport;
use tc_core::layout::{DATA_REGION_BASE, TARGET_REGION_BASE};
use tc_core::{build_ifunc_library, Cluster, IfuncHandle, IfuncLibrary, IfuncMessage};
use tc_simnet::SplitMix64;
use tc_ucx::UcpOp;
use tc_workloads::{platform_toolchain, reporting_tsi_payload, tsi_reporting_module};

/// Libraries per round at nominal scale: cold bitcode, cold binary,
/// windowed cold bitcode.
const BITCODE_OPS: usize = 1500;
const BINARY_OPS: usize = 1500;
const WINDOW_OPS: usize = 1500;
/// Cold ops of each closed-loop arm sent to one server before the arms turn
/// to the next (see [`harness::block_server`]): bitcode and binary ships
/// take turns a block at a time, so both arms sample the whole round.
const BLOCK: usize = 250;
/// Completions per windowed rate sample.
const WINDOW_CHUNK: usize = 500;

/// Which arm a library is shipped by.
#[derive(Clone, Copy)]
enum Ship {
    Bitcode,
    Binary,
    Window,
}

/// One cold op: the library, its server and the counter delta.
struct Op {
    module: Module,
    ship: Ship,
    server: usize,
    delta: u64,
}

fn inputs(ctx: &Ctx) -> (Vec<Op>, Vec<u64>) {
    let mut rng = SplitMix64::new(ctx.seed ^ 0xC0DE5);
    let n = harness::SERVERS as u64;
    let (bitcode, binary, window) = (
        ctx.ops(BITCODE_OPS),
        ctx.ops(BINARY_OPS),
        ctx.ops(WINDOW_OPS),
    );
    // (ship, server) of every op in the order they run: the closed-loop
    // arms block by block, then the windowed arm.
    let mut order = Vec::new();
    for b in 0..bitcode.max(binary).div_ceil(BLOCK) {
        for (ship, count) in [(Ship::Bitcode, bitcode), (Ship::Binary, binary)] {
            for i in (b * BLOCK).min(count)..((b + 1) * BLOCK).min(count) {
                order.push((ship, Some(harness::block_server(i, BLOCK))));
            }
        }
    }
    order.extend((0..window).map(|_| (Ship::Window, None)));
    let mut ops = Vec::new();
    for (ship, server) in order {
        let name = format!("perfbench_lib_{}_{:016x}", ops.len(), rng.next_u64());
        let server = server.unwrap_or_else(|| rng.below(n) as usize);
        ops.push(Op {
            module: tsi_reporting_module(&name),
            ship,
            server,
            delta: rng.range(1, 256),
        });
    }
    let seeds = (0..harness::SERVERS).map(|_| rng.below(1 << 32)).collect();
    (ops, seeds)
}

fn message(
    c: &Cluster<SocketTransport>,
    handle: IfuncHandle,
    ship: Ship,
    payload: Vec<u8>,
) -> tc_core::Result<IfuncMessage> {
    match ship {
        Ship::Binary => c.binary_message(handle, harness::platform().server_triple, payload),
        Ship::Bitcode | Ship::Window => c.bitcode_message(handle, payload),
    }
}

pub fn run(ctx: &mut Ctx, m: &mut Measured) -> tc_core::Result<()> {
    let (ops, seeds) = inputs(ctx);
    let toolchain = platform_toolchain(&harness::platform());
    let cold_bitcode = ops
        .iter()
        .filter(|o| !matches!(o.ship, Ship::Binary))
        .count() as u64;
    let cold_binary = ops.len() as u64 - cold_bitcode;
    let mut kept = Vec::new();
    for _ in 0..ctx.rounds {
        let t0 = Instant::now();
        let mut cluster = harness::socket_builder().build_socket()?;
        // Each server's TSI counter starts from a seeded value.
        let span = ctx.tr.enter("workloads.install");
        let (installed, ms) = time_ms(|| -> tc_core::Result<()> {
            for (s, &seed) in seeds.iter().enumerate() {
                cluster.write_u64(cluster.server_rank(s), TARGET_REGION_BASE, seed)?;
            }
            Ok(())
        });
        ctx.tr.exit(span);
        installed?;
        m.install_ms.push(ms);
        let span = ctx.tr.enter("ifunc.build_lib");
        let (libs, ms) = time_ms(|| {
            ops.iter()
                .map(|op| build_ifunc_library(&op.module, &toolchain))
                .collect::<tc_core::Result<Vec<IfuncLibrary>>>()
        });
        ctx.tr.exit(span);
        let libs = libs?;
        m.build_lib_ms.push(ms);
        let handles: Vec<IfuncHandle> = libs
            .iter()
            .map(|lib| cluster.register_ifunc(lib.clone()))
            .collect();
        let mut ring = SlotRing::new();
        let mut counters = seeds.clone();
        // Warm-up: one full frame and JIT on each server, with a library the
        // timed ops never ship.
        let warm_lib = build_ifunc_library(&tsi_reporting_module("perfbench_warm"), &toolchain)?;
        let warm = cluster.register_ifunc(warm_lib);
        for (s, counter) in counters.iter_mut().enumerate() {
            let slot = ring.take();
            let msg = cluster
                .bitcode_message(warm, reporting_tsi_payload::encode(0, slot.slot(), 1, 0))?;
            cluster.send_ifunc(&msg, cluster.server_rank(s))?;
            *counter += 1;
            let v = cluster.wait(&slot)?;
            ctx.expect(v == *counter, || "warm-up ship".into());
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());

        // Cold op then its warm resend, in input order.
        let before = harness::server_stats(&mut cluster)?;
        let mut closed = 0u64;
        for (op, &handle) in ops.iter().zip(&handles) {
            let arm = match op.ship {
                Ship::Bitcode => 0,
                Ship::Binary => 1,
                Ship::Window => continue,
            };
            let rank = cluster.server_rank(op.server);
            for samples in [arm, 2] {
                closed += 1;
                let slot = ring.take();
                counters[op.server] += op.delta;
                let c = &mut cluster;
                ctx.closed_op(&mut m.ops[samples], counters[op.server], |tr| {
                    let p = reporting_tsi_payload::encode(0, slot.slot(), op.delta, 0);
                    let msg = tr.time("frame.message", || message(c, handle, op.ship, p))?;
                    tr.time("runtime.post", || c.send_ifunc(&msg, rank))?;
                    tr.time("transport.wait", || c.wait(&slot))
                });
            }
        }
        let after = harness::server_stats(&mut cluster)?;
        m.hop_ifuncs += after.ifuncs_executed - before.ifuncs_executed;
        m.hop_ops += closed;

        let window: Vec<(&Op, IfuncHandle)> = ops
            .iter()
            .zip(handles.iter().copied())
            .filter(|(op, _)| matches!(op.ship, Ship::Window))
            .collect();
        ctx.windowed(
            m,
            &mut cluster,
            window.len(),
            harness::WINDOW,
            WINDOW_CHUNK,
            |c, set, i| {
                let (op, handle) = window[i];
                let slot = ring.take();
                counters[op.server] += op.delta;
                let msg = c.bitcode_message(
                    handle,
                    reporting_tsi_payload::encode(0, slot.slot(), op.delta, 0),
                )?;
                c.send_ifunc(&msg, c.server_rank(op.server))?;
                Ok((set.add_result(slot), counters[op.server]))
            },
        );

        let before = m.servers;
        for (s, &expected) in counters.iter().enumerate() {
            let counter = cluster.read_u64(cluster.server_rank(s), TARGET_REGION_BASE)?;
            ctx.expect(counter == expected, || {
                format!("server {s} TSI counter {counter}, expected {expected}")
            });
        }
        m.absorb_counters(&mut cluster)?;
        // One compile per cold bitcode library plus the warm-up library on
        // each server; one load per binary library.
        let compiled = m.servers.jit_compilations - before.jit_compilations;
        let loaded = m.servers.binary_loads - before.binary_loads;
        let want = cold_bitcode + harness::SERVERS as u64;
        ctx.expect(compiled == want, || {
            format!("{compiled} JIT compilations, expected {want}")
        });
        ctx.expect(loaded == cold_binary, || {
            format!("{loaded} binary loads, expected {cold_binary}")
        });
        cluster.shutdown();
        kept = libs;
    }
    if ctx.tr.on() {
        replays(ctx, &ops, &kept);
    }
    Ok(())
}

/// Replays on the shipped libraries and their cold frames.
fn replays(ctx: &mut Ctx, ops: &[Op], libs: &[IfuncLibrary]) {
    let triple = TargetTriple::parse(harness::platform().server_triple).expect("server triple");
    for (i, (op, lib)) in ops
        .iter()
        .zip(libs)
        .enumerate()
        .step_by((ops.len() / 256).max(1))
    {
        ctx.tr.set_op(i as u64);
        replay::library(&mut ctx.tr, lib, triple);
        let p = reporting_tsi_payload::encode(0, 0, op.delta, 0);
        ExecBench::new(lib, triple, 1, DATA_REGION_BASE, &[]).run(&mut ctx.tr, &p);
        let msg = match op.ship {
            Ship::Binary => {
                IfuncMessage::binary(IfuncHandle(0), lib, harness::platform().server_triple, p)
                    .expect("library has a server binary")
            }
            Ship::Bitcode | Ship::Window => IfuncMessage::bitcode(IfuncHandle(0), lib, p),
        };
        replay::frame(&mut ctx.tr, &msg);
        replay::codecs(
            &mut ctx.tr,
            1,
            UcpOp::IfuncFrame {
                bytes: msg.wire_full(),
            },
        );
    }
}
