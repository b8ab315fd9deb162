//! Traced-pass replays of the layer functions that run out of the driver's
//! reach: server-side decode, JIT compile, binary load and execution, and the
//! codecs every op passes through.  Each replay calls the layer's public
//! function on the workload's own input (the library it ships, the op it just
//! posted) inside a span, so the per-layer numbers describe this workload and
//! not a synthetic one.

use crate::trace::Tracer;
use std::hint::black_box;
use tc_binfmt::{load_object, LoadOptions, MapResolver, ObjectFile};
use tc_bitir::{decode_module, encode_module, TargetTriple};
use tc_core::cluster::wire;
use tc_core::layout::{PAYLOAD_STAGING_BASE, TARGET_REGION_BASE};
use tc_core::{IfuncLibrary, IfuncMessage, MessageFrame};
use tc_jit::{ExternalHost, Memory, OptLevel, OrcJit, SparseMemory};
use tc_net::{Frame, FrameDecoder};
use tc_ucx::{Bytes, OutgoingMessage, RequestId, UcpOp, WorkerAddr};

/// Calls per span for the nanosecond-scale codec replays.
const CODEC_REPS: u32 = 32;

/// The framework symbols a shipped ifunc may import.
const FRAMEWORK_SYMBOLS: [&str; 6] = [
    "tc_node_id",
    "tc_num_nodes",
    "tc_put",
    "tc_forward_self",
    "tc_return_result",
    "tc_self_name_len",
];

/// Replay the server-side handling of a cold frame carrying `lib`:
/// `bitir.encode` (the toolchain's encoder on the library's module),
/// `bitir.decode` and `jit.compile` (the bitcode a server of `triple`
/// selects from the fat archive) and `binfmt.load` (the binary object the
/// library carries for `triple`).
pub fn library(tr: &mut Tracer, lib: &IfuncLibrary, triple: TargetTriple) {
    let entry = lib
        .fat_bitcode
        .select(triple)
        .expect("the archive carries the server triple");
    let span = tr.enter("bitir.encode");
    black_box(encode_module(black_box(&lib.module)));
    tr.exit(span);
    let span = tr.enter("bitir.decode");
    black_box(decode_module(black_box(&entry.bitcode)).expect("shipped bitcode decodes"));
    tr.exit(span);
    let mut jit = OrcJit::new(triple, OptLevel::O2);
    let mut mem = SparseMemory::new();
    let span = tr.enter("jit.compile");
    jit.add_bitcode(&entry.bitcode, &mut mem)
        .expect("shipped bitcode compiles");
    tr.exit(span);

    let name = triple.name();
    let object = lib.binary_for(&name).expect("library has a server binary");
    let mut resolver = MapResolver::new();
    for (i, sym) in FRAMEWORK_SYMBOLS.iter().enumerate() {
        resolver.insert(*sym, 0x6000_0000_0000 + i as u64 * 16);
    }
    let span = tr.enter("binfmt.load");
    let obj = ObjectFile::decode(object).expect("shipped object decodes");
    let image =
        load_object(&obj, &name, &resolver, LoadOptions::default()).expect("shipped object loads");
    black_box(tc_jit::module_from_image(&image).expect("image has text"));
    tr.exit(span);
}

/// Replay the frame layer on an op's message: `frame.encode_full` and
/// `frame.decode`.
pub fn frame(tr: &mut Tracer, msg: &IfuncMessage) {
    let span = tr.enter("frame.encode_full");
    let bytes = msg.frame.encode_full();
    tr.exit(span);
    let span = tr.enter("frame.decode");
    black_box(MessageFrame::decode(black_box(&bytes)).expect("own frame decodes"));
    tr.exit(span);
}

/// Replay the codecs one posted op passes through on its way to a server:
/// the `cluster::wire` op codec and the `tc_net` stream framing.
pub fn codecs(tr: &mut Tracer, dst: usize, op: UcpOp) {
    let msg = OutgoingMessage {
        src: WorkerAddr(0),
        dst: WorkerAddr(dst as u32),
        request: RequestId(1),
        op,
    };
    let span = tr.enter_reps("wire.encode_op", CODEC_REPS);
    let mut encoded = Bytes::from(Vec::new());
    for _ in 0..CODEC_REPS {
        encoded = wire::encode_op(black_box(&msg));
    }
    tr.exit(span);
    let span = tr.enter_reps("wire.decode_op", CODEC_REPS);
    for _ in 0..CODEC_REPS {
        black_box(wire::decode_op(black_box(&encoded)).expect("own op decodes"));
    }
    tr.exit(span);

    let frame = Frame::new(0, dst as u32, wire::TAG_OP, encoded);
    let span = tr.enter_reps("net.frame_encode", CODEC_REPS);
    let mut stream = Vec::new();
    for _ in 0..CODEC_REPS {
        stream = frame.encode();
    }
    tr.exit(span);
    let mut decoder = FrameDecoder::new();
    let span = tr.enter_reps("net.frame_decode", CODEC_REPS);
    for _ in 0..CODEC_REPS {
        decoder.extend(black_box(&stream));
        black_box(decoder.next_frame().expect("own frame decodes"));
    }
    tr.exit(span);
}

/// A host that answers `tc_node_id` and swallows the calls that would post
/// fabric operations, so one arrival's execution can be timed alone.
struct ReplayHost {
    node_id: u64,
}

impl ExternalHost for ReplayHost {
    fn call_external(
        &mut self,
        symbol: &str,
        _args: &[u64],
        _mem: &mut dyn Memory,
    ) -> tc_jit::Result<u64> {
        Ok(if symbol == "tc_node_id" {
            self.node_id
        } else {
            0
        })
    }
}

/// A server-side JIT with one module compiled, for `jit.exec` replays.
pub struct ExecBench {
    jit: OrcJit,
    mem: SparseMemory,
    name: String,
    node_id: u64,
}

impl ExecBench {
    /// Compile `lib` as a server of `triple` with rank `node_id` would,
    /// over a memory image holding `data` at `data_addr`.
    pub fn new(
        lib: &IfuncLibrary,
        triple: TargetTriple,
        node_id: u64,
        data_addr: u64,
        data: &[u8],
    ) -> Self {
        let mut jit = OrcJit::new(triple, OptLevel::O2);
        let mut mem = SparseMemory::new();
        mem.write(data_addr, data).expect("sparse memory write");
        let entry = lib.fat_bitcode.select(triple).expect("server triple");
        jit.add_bitcode(&entry.bitcode, &mut mem)
            .expect("library compiles");
        ExecBench {
            jit,
            mem,
            name: lib.name.clone(),
            node_id,
        }
    }

    /// `jit.exec`: run the entry point once on `payload`.
    pub fn run(&mut self, tr: &mut Tracer, payload: &[u8]) {
        self.mem
            .write(PAYLOAD_STAGING_BASE, payload)
            .expect("sparse memory write");
        let mut host = ReplayHost {
            node_id: self.node_id,
        };
        let span = tr.enter("jit.exec");
        let out = self.jit.execute_entry(
            &self.name,
            PAYLOAD_STAGING_BASE,
            payload.len() as u64,
            TARGET_REGION_BASE,
            &mut self.mem,
            &mut host,
        );
        tr.exit(span);
        out.expect("replayed ifunc executes");
    }
}
