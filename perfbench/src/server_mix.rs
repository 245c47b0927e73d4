//! `server_mix`: a closed loop of two clients over loopback TCP to an
//! in-process `Server` journaling with `LUX_JOURNAL_FSYNC=always`. Each
//! client is a tenant replaying the Table-3 wire mix: it puts a 4k×8 CSV,
//! then prints it with a rotating intent at two charts per tab, and every
//! fourth cell re-puts a mutated frame. A notebook kernel waits for each
//! cell's reply before it sends the next, hence the closed loop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lux_core::{LuxDataFrame, WireWidget};
use lux_server::journal::{FsyncPolicy, JournalConfig};
use lux_server::protocol::{read_frame, write_frame};
use lux_server::{Client, PrintOutcome, Registry, Request, Response, Server, ServerConfig};

use crate::probe::{decomposed_print, export_layers, PER_TAB};
use crate::record::{ms_since, Counters, Phase, Record};
use crate::stats::{derive, wire_digest};
use crate::trace::Tracer;

pub const ROWS: usize = 4_000;
pub const COLS: usize = 8;
pub const CLIENTS: usize = 2;
const FRAME: &str = "frame";
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A deterministic numeric CSV of `ROWS` × `COLS` from `seed`.
pub fn make_csv(seed: u64) -> String {
    let mut out = String::with_capacity(ROWS * COLS * 4);
    let header: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    let mut state = seed | 1;
    for _ in 0..ROWS {
        for c in 0..COLS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if c > 0 {
                out.push(',');
            }
            out.push_str(&(state % 1_000).to_string());
        }
        out.push('\n');
    }
    out
}

fn tenant(c: usize) -> String {
    format!("tenant-{c}")
}

/// The intent of cell `k`: the whole frame every third cell, else one
/// column, rotating.
fn intent(k: u64) -> String {
    if k.is_multiple_of(3) {
        String::new()
    } else {
        format!("c{}", k % COLS as u64)
    }
}

fn set_intent(ldf: &mut LuxDataFrame, intent: &str) {
    if intent.is_empty() {
        ldf.clear_intent();
    } else {
        ldf.set_intent_strs([intent])
            .expect("column intent is valid");
    }
}

struct Tenant {
    client: Client,
    name: String,
    /// Next cell index and the CSV the server currently holds.
    k: u64,
    csv: String,
}

pub struct ServerMix {
    seed: u64,
    dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
    tenants: Vec<Tenant>,
}

/// Encode a message, write it as a wire frame into a buffer, read the
/// frame back and decode it: the codec work of one message on each side.
fn codec<T>(
    msg: &T,
    encode: impl Fn(&T) -> (u8, Vec<u8>),
    decode: impl Fn(u8, &[u8]) -> Result<T, String>,
) {
    let (ty, payload) = encode(msg);
    let mut buf = Vec::with_capacity(payload.len() + 16);
    write_frame(&mut buf, ty, 1, &payload).expect("write to buffer");
    let frame = read_frame(&mut buf.as_slice()).expect("read from buffer");
    decode(frame.msg_type, &frame.payload).expect("decode message");
}

/// A served operation of the traced phase, kept for its in-process
/// replay after the TCP loop.
enum Op {
    Put {
        rid: u64,
        csv: String,
    },
    Print {
        rid: u64,
        intent: String,
        trace_id: String,
    },
}

impl ServerMix {
    /// Boot a server on a fresh data directory under `out`, connect the
    /// clients, put each tenant's first frame and print it once.
    pub fn setup(seed: u64, round: u64, out: &Path) -> ServerMix {
        let dir = out.join(format!("server-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            read_timeout: IO_TIMEOUT,
            write_timeout: IO_TIMEOUT,
            drain_timeout: Duration::from_secs(5),
            max_conns: 64,
            metrics_addr: None,
        })
        .expect("bind server");
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        let tenants = (0..CLIENTS)
            .map(|c| {
                let mut client = Client::connect(&addr, IO_TIMEOUT).expect("connect");
                client.hello(&tenant(c)).expect("hello");
                let csv = make_csv(derive(seed, (round << 48) | ((c as u64) << 32)));
                client.put_frame(FRAME, &csv).expect("first put");
                client
                    .print(FRAME, "", 0, PER_TAB as u32)
                    .expect("warm-up print");
                Tenant {
                    client,
                    name: tenant(c),
                    k: 1,
                    csv,
                }
            })
            .collect();
        ServerMix {
            seed,
            dir,
            shutdown,
            server: Some(handle),
            tenants,
        }
    }

    pub fn phase(&mut self, phase: Phase, traced: Option<Instant>, out: &Path) -> Record {
        // The traced phase replays each request's server-side work
        // in-process against a registry of its own, once both clients'
        // TCP loops have ended, so no replay runs beside a round trip.
        let probe = traced.map(|_| {
            let dir = out.join(format!("probe-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = JournalConfig {
                fsync: FsyncPolicy::Always,
                ..JournalConfig::default()
            };
            let (reg, _) = Registry::recover_with_config(&dir, None, cfg).expect("probe registry");
            (Arc::new(reg), dir)
        });
        let before = Counters::read();
        let started = Instant::now();
        let seed = self.seed;
        let tenants = std::mem::take(&mut self.tenants);
        let barrier = Barrier::new(CLIENTS);
        let results: Vec<(Tenant, Record, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .into_iter()
                .enumerate()
                .map(|(c, t)| {
                    let reg = probe.as_ref().map(|(r, _)| Arc::clone(r));
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let tracer = traced.map(|origin| Tracer::new(origin, c as u32));
                        let replay = reg.map(|reg| (reg, barrier));
                        run_client(c, t, seed, phase, started, tracer, replay)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut rec = Record::default();
        let mut generating = Duration::ZERO;
        for (t, r, g) in results {
            self.tenants.push(t);
            rec.merge(r);
            generating = generating.max(g);
        }
        rec.busy = started.elapsed().saturating_sub(generating);
        rec.counters = Counters::read().since(&before);
        if let Some((reg, dir)) = probe {
            drop(reg);
            let _ = std::fs::remove_dir_all(dir);
        }
        rec
    }

    /// Output check: each tenant's latest frame, put under a fresh name
    /// and printed by the idle server, must match an in-process print of
    /// the same CSV and intent, flattened the same way.
    pub fn check(&mut self, rec: &mut Record) {
        for t in &mut self.tenants {
            let intent = "c1";
            let served = t
                .client
                .put_frame("check", &t.csv)
                .and_then(|_| t.client.print("check", intent, 0, PER_TAB as u32));
            let served = match served {
                Ok(PrintOutcome::Widget(w)) => wire_digest(&w),
                other => {
                    eprintln!("server_mix: check print failed: {other:?}");
                    rec.mismatch();
                    continue;
                }
            };
            let mut ldf = LuxDataFrame::read_csv_str(&t.csv).expect("parse check csv");
            set_intent(&mut ldf, intent);
            let local = wire_digest(&WireWidget::from_widget(&ldf.print(), PER_TAB));
            if served != local {
                eprintln!(
                    "server_mix: served print of {} differs from in-process",
                    t.name
                );
                rec.mismatch();
            }
        }
    }
}

impl Drop for ServerMix {
    fn drop(&mut self) {
        self.tenants.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One client's closed loop. Returns its tenant state, what it recorded
/// and how long it spent generating CSVs. A traced client keeps its
/// operations and, once every client's loop has ended, replays them
/// in-process on the probe registry.
fn run_client(
    c: usize,
    mut t: Tenant,
    seed: u64,
    phase: Phase,
    started: Instant,
    mut tracer: Option<Tracer>,
    replay: Option<(Arc<Registry>, &Barrier)>,
) -> (Tenant, Record, Duration) {
    let mut rec = Record::default();
    let mut generating = Duration::ZERO;
    let first_csv = t.csv.clone();
    let mut ops = Vec::new();
    let mut prints = 0usize;
    while !phase.done(started, prints * CLIENTS) {
        let k = t.k;
        t.k += 1;
        let rid = ((c as u64) << 48) | k;
        if k.is_multiple_of(4) {
            let g = Instant::now();
            t.csv = make_csv(derive(seed, ((c as u64) << 32) | k));
            generating += g.elapsed();
            rec.generate_ms.push(ms_since(g));
            rec.attempted += 1;
            let s = Instant::now();
            let root = tracer.as_mut().map(|tr| tr.request(rid, "put"));
            let ack = t.client.put_frame(FRAME, &t.csv);
            if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                tr.end(root);
            }
            rec.put_ms.push(ms_since(s));
            match ack {
                Ok((rows, cols, _)) if rows == ROWS as u64 && cols == COLS as u64 => rec.ops += 1,
                other => {
                    eprintln!("server_mix: put failed: {other:?}");
                    rec.fail(1);
                }
            }
            if tracer.is_some() {
                ops.push(Op::Put {
                    rid,
                    csv: t.csv.clone(),
                });
            }
        }
        let intent = intent(k);
        rec.attempted += 1;
        let trace_id = format!("bench-{rid}");
        let s = Instant::now();
        let root = tracer.as_mut().map(|tr| tr.request(rid, "print"));
        let outcome = t
            .client
            .print_traced(FRAME, &intent, 0, PER_TAB as u32, &trace_id);
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.end(root);
        }
        rec.print_ms.push(ms_since(s));
        prints += 1;
        match outcome {
            Ok(PrintOutcome::Widget(w))
                if !w.was_shed()
                    && w.num_rows == ROWS as u64
                    && !w.tabs.is_empty()
                    && !w
                        .health_problems
                        .iter()
                        .any(|h| h.contains("failed") || h.contains("disabled")) =>
            {
                rec.ops += 1;
            }
            other => {
                eprintln!("server_mix: print failed: {other:?}");
                rec.fail(1);
            }
        }
        if tracer.is_some() {
            ops.push(Op::Print {
                rid,
                intent,
                trace_id,
            });
        }
    }
    if let (Some(tr), Some((reg, barrier))) = (tracer.as_mut(), replay) {
        barrier.wait();
        replay_ops(tr, &reg, &t.name, &first_csv, ops, &mut rec);
    }
    if let Some(tr) = tracer {
        rec.spans = tr.into_spans();
    }
    (t, rec, generating)
}

/// Replay a client's served operations in-process: the server-side
/// layers on the probe registry, and the print path decomposed on a
/// mirror of the tenant's frame. Spans carry the served operation's
/// request id.
fn replay_ops(
    tr: &mut Tracer,
    reg: &Registry,
    tenant: &str,
    first_csv: &str,
    ops: Vec<Op>,
    rec: &mut Record,
) {
    reg.put_frame(tenant, FRAME, first_csv, "")
        .expect("probe put");
    let mut mirror = LuxDataFrame::read_csv_str(first_csv).expect("mirror parse");
    let mut current = String::new();
    for op in ops {
        match op {
            Op::Put { rid, csv } => {
                mirror = traced_put(tr, rid, reg, tenant, &csv);
                current.clear();
            }
            Op::Print {
                rid,
                intent,
                trace_id,
            } => {
                traced_print(tr, rid, reg, tenant, &intent, &trace_id);
                if current != intent {
                    set_intent(&mut mirror, &intent);
                    current = intent;
                }
                let root = tr.request(rid, "mirror.print");
                let w = decomposed_print(tr, &mirror, &mut rec.boundary);
                tr.end(root);
                rec.count_vis(&w);
                export_layers(tr, rid, &w, rec);
            }
        }
    }
}

/// The server-side layers of a put, replayed in-process: the CSV parse
/// alone, the registry put (which parses, spools and journals) and the
/// codec of both messages. Returns the parsed frame as the new mirror.
fn traced_put(tr: &mut Tracer, rid: u64, reg: &Registry, tenant: &str, csv: &str) -> LuxDataFrame {
    let idx = tr.request(rid, "dataframe.csv_parse");
    let parsed = LuxDataFrame::read_csv_str(csv).expect("csv parse");
    tr.end(idx);
    let idx = tr.request(rid, "server.registry_put");
    let entry = reg.put_frame(tenant, FRAME, csv, "").expect("probe put");
    tr.end(idx);
    let idx = tr.request(rid, "server.codec");
    codec(
        &Request::PutFrame {
            name: FRAME.to_string(),
            csv: csv.to_string(),
            token: String::new(),
        },
        Request::encode,
        Request::decode,
    );
    codec(
        &Response::FrameAck {
            rows: entry.rows,
            cols: entry.cols,
            fingerprint: entry.fingerprint,
            seq: entry.seq,
        },
        Response::encode,
        Response::decode,
    );
    tr.end(idx);
    parsed
}

/// The server-side layers of a print, replayed in-process in the order
/// the server runs them: request codec, registry lookup, the frame's
/// print (frame lock, pass and flatten), widget encode, response codec.
fn traced_print(
    tr: &mut Tracer,
    rid: u64,
    reg: &Registry,
    tenant: &str,
    intent: &str,
    trace_id: &str,
) {
    let idx = tr.request(rid, "server.codec");
    codec(
        &Request::Print {
            name: FRAME.to_string(),
            intent: intent.to_string(),
            deadline_ms: 0,
            per_tab: PER_TAB as u32,
            trace: trace_id.to_string(),
        },
        Request::encode,
        Request::decode,
    );
    tr.end(idx);
    let idx = tr.request(rid, "server.lookup");
    let entry = reg.get(tenant, FRAME).expect("probe frame");
    tr.end(idx);
    let idx = tr.request(rid, "server.frame_print");
    let ww = entry
        .print(intent, tenant, None, PER_TAB, trace_id)
        .expect("probe print");
    tr.end(idx);
    let idx = tr.request(rid, "server.wire_encode");
    let bytes = ww.encode();
    tr.end(idx);
    let idx = tr.request(rid, "server.codec");
    codec(
        &Response::PrintResult { widget: bytes },
        Response::encode,
        Response::decode,
    );
    tr.end(idx);
}
