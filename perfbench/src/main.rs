//! Wall-clock benchmark of the paper's workloads on the threads and socket
//! backends.  See `perfbench/NOTES.md` for why each workload exists and
//! what each metric should move.
//!
//! ```text
//! env MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_MMAP_THRESHOLD_=33554432 \
//!     cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chase --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  The first line
//! is the host fingerprint.
//!
//! Launched as `perfbench --connect <spec> --rank <n>`, the executable is a
//! socket-backend server rank instead: the socket workloads spawn their
//! servers from this same file.

mod harness;
mod replay;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Measured};
use stats::{mean, median, quantile, ratio};
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rounds: Option<usize>,
    ops: Option<usize>,
    expect_wrong: bool,
}

const USAGE: &str = "usage: perfbench --workload <chase|inject|codeship|lossy> --seed <n> \
                     --seconds <n> --trace <0|1> [--rounds <n>] [--ops <n>] [--expect-wrong]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rounds = None;
    let mut ops = None;
    let mut expect_wrong = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: bad number `{v}`"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--rounds" => rounds = Some(number(value()?)?.max(1) as usize),
            "--ops" => ops = Some(number(value()?)?.max(1) as usize),
            "--expect-wrong" => expect_wrong = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rounds,
        ops,
        expect_wrong,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--connect") {
        return serve(args);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(harness::RUN_DIR) {
        eprintln!("perfbench: creating {}: {e}", harness::RUN_DIR);
        return ExitCode::FAILURE;
    }
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Serve as one socket-backend server rank.
fn serve(args: Vec<String>) -> ExitCode {
    let opts = match tc_core::cluster::ServerOptions::from_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench server: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match tc_core::cluster::serve_socket(opts, tc_workloads::am_catalog()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench server: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One pass over the workload: `rounds` fresh clusters, each set up and
/// driven through the same ops.
fn pass(args: &Args, rounds: usize, trace: bool) -> tc_core::Result<(Ctx, Measured)> {
    let mut ctx = Ctx::new(args.seed, rounds, args.ops, trace, args.expect_wrong);
    let mut m = Measured::default();
    args.workload.run(&mut ctx, &mut m)?;
    Ok((ctx, m))
}

type Metric = (&'static str, f64, &'static str);

/// Rounds of a traced pass: its spans are kept in memory and written out.
const TRACED_ROUNDS: usize = 2;

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("op1_us_p50", median(&m.ops[0]), "us"),
        ("op2_us_p50", median(&m.ops[1]), "us"),
        ("op3_us_p50", median(&m.ops[2]), "us"),
        ("window_kops", m.window_rate() / 1e3, "kops/s"),
    ]
}

fn per_layer(ctx: &Ctx, m: &Measured, untraced: &[Metric]) -> Vec<Metric> {
    let spans = ctx.tr.self_times();
    let ns = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
    let us = |name: &str| ns(name) / 1e3;
    let s = &m.servers;
    let f = &m.fabric;
    let mut out: Vec<Metric> = vec![
        ("workloads.install_ms", median(&m.install_ms), "ms"),
        ("ifunc.build_lib_ms", median(&m.build_lib_ms), "ms"),
        ("bitir.encode_us", us("bitir.encode"), "us"),
        ("bitir.decode_us", us("bitir.decode"), "us"),
        ("jit.compile_us", us("jit.compile"), "us"),
        ("jit.compilations", s.jit_compilations as f64, "count"),
        ("binfmt.load_us", us("binfmt.load"), "us"),
        ("jit.binary_loads", s.binary_loads as f64, "count"),
        ("jit.exec_us", us("jit.exec"), "us"),
        (
            "runtime.hops_per_chase",
            ratio(m.hop_ifuncs as f64, m.hop_ops as f64),
            "hops/op",
        ),
        ("frame.message_us", us("frame.message"), "us"),
        ("frame.encode_full_us", us("frame.encode_full"), "us"),
        ("frame.decode_us", us("frame.decode"), "us"),
        (
            "cache.truncated_share",
            ratio(
                m.truncated_sends as f64,
                (m.full_sends + m.truncated_sends) as f64,
            ),
            "ratio",
        ),
        ("runtime.post_us", us("runtime.post"), "us"),
        ("runtime.ifuncs_executed", s.ifuncs_executed as f64, "count"),
        ("runtime.ams_executed", s.ams_executed as f64, "count"),
        ("runtime.gets_served", s.gets_served as f64, "count"),
        ("runtime.puts_applied", s.puts_applied as f64, "count"),
        ("wire.encode_op_ns", ns("wire.encode_op"), "ns"),
        ("wire.decode_op_ns", ns("wire.decode_op"), "ns"),
        ("net.frame_encode_ns", ns("net.frame_encode"), "ns"),
        ("net.frame_decode_ns", ns("net.frame_decode"), "ns"),
        ("transport.wait_us", us("transport.wait"), "us"),
        ("completion.wait_any_us", us("completion.wait_any"), "us"),
        ("completion.inflight_mean", mean(&m.inflight), "count"),
        ("reliable.retransmits", f.retransmits as f64, "count"),
        ("reliable.dup_drops", f.dup_drops as f64, "count"),
        ("chaos.faults_injected", f.faults_injected as f64, "count"),
        (
            "reliable.retx_per_fault",
            ratio(f.retransmits as f64, f.faults_injected as f64),
            "ratio",
        ),
        ("reliable.rto_per_srtt", median(&m.rto_per_srtt), "ratio"),
        (
            "fabric.messages_delivered",
            f.messages_delivered as f64,
            "count",
        ),
        (
            "fabric.messages_dropped",
            f.messages_dropped as f64,
            "count",
        ),
        ("fabric.bytes_sent", f.bytes_sent as f64, "bytes"),
        ("op1_us_p99", quantile(&m.ops[0], 0.99), "us"),
        ("op2_us_p99", quantile(&m.ops[1], 0.99), "us"),
        ("op3_us_p99", quantile(&m.ops[2], 0.99), "us"),
        ("bench.self_us", us("bench.op"), "us"),
    ];
    // Overhead is how much worse the traced pass reads: slower for times,
    // fewer ops per second for the rate.
    let names = [
        "overhead.setup_s",
        "overhead.op1_us_p50",
        "overhead.op2_us_p50",
        "overhead.op3_us_p50",
        "overhead.window_kops",
    ];
    for (((_, traced, unit), (_, plain, _)), name) in
        end_to_end(m).into_iter().zip(untraced).zip(names)
    {
        let worse = if unit == "kops/s" {
            ratio(*plain, traced)
        } else {
            ratio(traced, *plain)
        };
        out.push((name, worse - 1.0, "ratio"));
    }
    out
}

fn bench(args: &Args) -> tc_core::Result<String> {
    let w = args.workload;
    let rounds = args.rounds.unwrap_or_else(|| w.rounds(args.seconds));
    let (mut ctx, m) = pass(args, rounds, false)?;
    let plain = end_to_end(&m);
    println!("{}", fingerprint(args, rounds, &m));
    report(w, "untraced", &m, &plain);
    let metrics = if args.trace {
        // The overhead baseline is an untraced pass as long as the traced
        // one and run right before it, so host drift between the full run
        // and the traced pass does not count as tracing cost.
        let (base_ctx, base) = pass(args, TRACED_ROUNDS, false)?;
        let (traced_ctx, traced) = pass(args, TRACED_ROUNDS, true)?;
        report(w, "baseline", &base, &end_to_end(&base));
        report(w, "traced", &traced, &end_to_end(&traced));
        let path = std::path::Path::new(harness::RUN_DIR).join(format!("spans-{}.jsonl", w.name()));
        traced_ctx.tr.write_jsonl(&path).map_err(|e| {
            tc_core::CoreError::Transport(format!("writing {}: {e}", path.display()))
        })?;
        let layers = per_layer(&traced_ctx, &traced, &end_to_end(&base));
        ctx.absorb(base_ctx);
        ctx.absorb(traced_ctx);
        layers
    } else {
        plain
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0 && ctx.bad_checks.is_empty(),
        ctx.attempted,
        ctx.failed,
        body.join(", ")
    ))
}

/// Print each end-to-end metric under the name it has in this workload.
fn report(w: Workload, pass: &str, m: &Measured, metrics: &[Metric]) {
    let [a, b, c, win] = w.arms();
    let labels = [
        "setup_s".to_string(),
        format!("{a}_us_p50"),
        format!("{b}_us_p50"),
        format!("{c}_us_p50"),
        format!("{win}_kops"),
    ];
    let samples = [&m.setup_s, &m.ops[0], &m.ops[1], &m.ops[2], &m.window_rates];
    for ((label, (_, value, unit)), v) in labels.iter().zip(metrics).zip(samples) {
        println!(
            "# {pass} {}/{label} = {value:.3} {unit} ({} samples, {:.4e}..{:.4e})",
            w.name(),
            v.len(),
            quantile(v, 0.0),
            quantile(v, 1.0)
        );
    }
}

/// The host and run description printed with every result, so figures from
/// differently sized hosts never look alike.
fn fingerprint(args: &Args, rounds: usize, m: &Measured) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let allowed = read("/proc/self/status")
        .lines()
        .find_map(|l| {
            l.strip_prefix("Cpus_allowed_list:")
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = args.workload;
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"cpus_allowed\": \"{allowed}\"}}, \
         \"workload\": \"{}\", \"backend\": \"{}\", \"servers\": {}, \"seed\": {}, \"seconds\": {}, \
         \"rounds\": {rounds}, \"trace\": {}, \"op_samples\": [{}, {}, {}], \"window_ops\": {}}}",
        cpu.replace('"', "'"),
        read("/proc/sys/kernel/osrelease").trim(),
        w.name(),
        w.backend(),
        harness::SERVERS,
        args.seed,
        args.seconds,
        args.trace,
        m.ops[0].len(),
        m.ops[1].len(),
        m.ops[2].len(),
        m.window_ops,
    )
}
