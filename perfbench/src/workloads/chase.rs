//! `chase`: the paper's headline comparison (Figs 5–12) on the threads
//! backend.  Depth-32 pointer chases over a 2 × 2^18-entry table, one in
//! flight: X-RDMA (cached chaser ifunc hopping server to server, result
//! through the mailbox), Active Messages (predeployed `dapc_chase`) and GET
//! (32 dependent client GETs), then the X-RDMA chaser with 4 in flight.

use crate::harness::{self, time_ms, word, Ctx, Measured, SlotRing};
use crate::replay::{self, ExecBench};
use std::time::Instant;
use tc_bitir::TargetTriple;
use tc_core::cluster::Transport;
use tc_core::layout::DATA_REGION_BASE;
use tc_core::{build_ifunc_library, Cluster};
use tc_simnet::SplitMix64;
use tc_ucx::UcpOp;
use tc_workloads::{
    chaser_module, chaser_payload, dapc_am_handler, platform_toolchain, PointerTable,
};

const SHARD: usize = 1 << 18;
const DEPTH: u64 = 32;
const CHASER: &str = "perfbench_chaser";

/// Ops per round at nominal scale: X-RDMA, AM, GET, windowed X-RDMA.
const XRDMA_OPS: usize = 600;
const AM_OPS: usize = 600;
const GET_OPS: usize = 150;
const WINDOW_OPS: usize = 1500;
/// Completions per windowed rate sample.
const WINDOW_CHUNK: usize = 500;
/// Chases in flight in the windowed arm.  With 32 in flight the two server
/// threads saturate both vCPUs, and the rate then follows how much CPU the
/// host leaves the benchmark (a third less with one vCPU busy elsewhere);
/// 4 in flight still overlaps chases across both servers.
const CHASE_WINDOW: usize = 4;

struct Inputs {
    table: PointerTable,
    /// Start index and expected end of every chase, per arm.
    arms: [Vec<(u64, u64)>; 4],
}

fn inputs(ctx: &Ctx) -> Inputs {
    let table = PointerTable::generate(harness::SERVERS, SHARD, ctx.seed);
    let mut rng = SplitMix64::new(ctx.seed ^ 0xC4A5E);
    let total = table.total_entries() as u64;
    let mut arm = |n: usize| -> Vec<(u64, u64)> {
        (0..n)
            .map(|_| {
                let start = rng.below(total);
                (start, table.chase(start, DEPTH))
            })
            .collect()
    };
    let arms = [
        arm(ctx.ops(XRDMA_OPS)),
        arm(ctx.ops(AM_OPS)),
        arm(ctx.ops(GET_OPS)),
        arm(ctx.ops(WINDOW_OPS)),
    ];
    Inputs { table, arms }
}

fn payload<T: Transport>(c: &Cluster<T>, slot: u64, start: u64) -> Vec<u8> {
    chaser_payload::encode(
        0,
        slot,
        start,
        DEPTH,
        c.first_server_rank() as u64,
        SHARD as u64,
    )
}

pub fn run(ctx: &mut Ctx, m: &mut Measured) -> tc_core::Result<()> {
    let inp = inputs(ctx);
    let toolchain = platform_toolchain(&harness::platform());
    let module = chaser_module(CHASER);
    let mut kept = None;
    for _ in 0..ctx.rounds {
        // Set-up: spawn, table install, chaser build, AM deploy, warm-up.
        let t0 = Instant::now();
        let mut cluster = harness::builder().build_threaded();
        let span = ctx.tr.enter("workloads.install");
        let (installed, ms) = time_ms(|| inp.table.install_cluster(&mut cluster));
        ctx.tr.exit(span);
        installed?;
        m.install_ms.push(ms);
        let span = ctx.tr.enter("ifunc.build_lib");
        let (lib, ms) = time_ms(|| build_ifunc_library(&module, &toolchain));
        ctx.tr.exit(span);
        let lib = lib?;
        m.build_lib_ms.push(ms);
        let handle = cluster.register_ifunc(lib.clone());
        cluster.deploy_am("dapc_chase", dapc_am_handler())?;
        let mut ring = SlotRing::new();
        // A chase from each shard ships the chaser to both servers and warms
        // every sender cache on the way.
        for s in 0..harness::SERVERS as u64 {
            let start = s * SHARD as u64;
            let slot = ring.take();
            let msg = cluster.bitcode_message(handle, payload(&cluster, slot.slot(), start))?;
            cluster.send_ifunc(&msg, cluster.server_rank(s as usize))?;
            let v = cluster.wait(&slot)?;
            ctx.expect(v == inp.table.chase(start, DEPTH), || {
                "warm-up chase".into()
            });
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());

        let before = harness::server_stats(&mut cluster)?;
        for &(start, expected) in &inp.arms[0] {
            let slot = ring.take();
            let dst = cluster.server_rank(inp.table.owner_index(start));
            let c = &mut cluster;
            ctx.closed_op(&mut m.ops[0], expected, |tr| {
                let p = payload(c, slot.slot(), start);
                let msg = tr.time("frame.message", || c.bitcode_message(handle, p))?;
                tr.time("runtime.post", || c.send_ifunc(&msg, dst))?;
                tr.time("transport.wait", || c.wait(&slot))
            });
        }
        let after = harness::server_stats(&mut cluster)?;
        m.hop_ifuncs += after.ifuncs_executed - before.ifuncs_executed;
        m.hop_ops += inp.arms[0].len() as u64;

        for &(start, expected) in &inp.arms[1] {
            let slot = ring.take();
            let dst = cluster.server_rank(inp.table.owner_index(start));
            let c = &mut cluster;
            ctx.closed_op(&mut m.ops[1], expected, |tr| {
                let p = payload(c, slot.slot(), start);
                tr.time("runtime.post", || c.send_am("dapc_chase", dst, p))?;
                tr.time("transport.wait", || c.wait(&slot))
            });
        }

        for &(start, expected) in &inp.arms[2] {
            let c = &mut cluster;
            let table = &inp.table;
            ctx.closed_op(&mut m.ops[2], expected, |tr| {
                let mut idx = start;
                for _ in 0..DEPTH {
                    let dst = c.server_rank(table.owner_index(idx));
                    let h = tr.time("runtime.post", || c.get(dst, table.entry_addr(idx), 8))?;
                    let data = tr.time("transport.wait", || c.wait(&h))?;
                    idx = word(&data).ok_or(tc_core::CoreError::ShortRead {
                        rank: dst,
                        addr: table.entry_addr(idx),
                        wanted: 8,
                        got: data.len(),
                    })?;
                }
                Ok(idx)
            });
        }

        let window = &inp.arms[3];
        ctx.windowed(
            m,
            &mut cluster,
            window.len(),
            CHASE_WINDOW,
            WINDOW_CHUNK,
            |c, set, i| {
                let (start, expected) = window[i];
                let slot = ring.take();
                let msg = c.bitcode_message(handle, payload(c, slot.slot(), start))?;
                c.send_ifunc(&msg, c.server_rank(inp.table.owner_index(start)))?;
                Ok((set.add_result(slot), expected))
            },
        );

        m.absorb_counters(&mut cluster)?;
        cluster.shutdown();
        kept = Some(lib);
    }
    if ctx.tr.on() {
        replays(ctx, &inp, &kept.expect("at least one round"));
    }
    Ok(())
}

/// Replays on the chaser and the chase's own GET op.
fn replays(ctx: &mut Ctx, inp: &Inputs, lib: &tc_core::IfuncLibrary) {
    let triple = TargetTriple::parse(harness::platform().server_triple).expect("server triple");
    let mut exec = ExecBench::new(lib, triple, 1, DATA_REGION_BASE, &inp.table.shard_image(0));
    for (i, &(start, _)) in inp.arms[0].iter().enumerate().take(256) {
        ctx.tr.set_op(i as u64);
        replay::library(&mut ctx.tr, lib, triple);
        let p = chaser_payload::encode(0, 0, start % SHARD as u64, DEPTH, 1, SHARD as u64);
        exec.run(&mut ctx.tr, &p);
        let msg = tc_core::IfuncMessage::bitcode(tc_core::IfuncHandle(0), lib, p);
        replay::frame(&mut ctx.tr, &msg);
        let get = UcpOp::Get {
            remote_addr: inp.table.entry_addr(start),
            len: 8,
        };
        replay::codecs(&mut ctx.tr, 1, get);
    }
}
