//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <notebook_airbnb|wide_cold|server_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints every end-to-end
//! metric; `--trace 1` runs half the time untraced (counters, overhead
//! baseline) and half traced (per-layer self times) and prints every
//! per-layer metric. The last line of standard output is one JSON object;
//! full summaries and the span dump go to `.bench_out/`. See
//! `perfbench/README.md`.

mod notebook;
mod probe;
mod record;
mod server_mix;
mod stats;
mod trace;
mod wide;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use record::{ratio, Phase, Record};
use stats::{median, Summary};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["notebook_airbnb", "wide_cold", "server_mix"];
/// Set-up is timed this many times per run, spread over the measured
/// phase; `setup_s` is the median.
const SETUP_ROUNDS: u64 = 15;
/// Untimed run of the workload loop before anything is timed: the
/// machine's vCPUs run slower for a while after idling, which would land
/// on whichever run or set-up comes first.
const WARMUP_S: f64 = 4.0;
/// Enough prints that at least ten lie beyond p90.
const MIN_PRINTS: usize = 110;
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

enum Workload {
    Notebook(notebook::Notebooks),
    Wide(wide::Wide),
    Server(server_mix::ServerMix),
}

impl Workload {
    fn setup(name: &str, seed: u64, round: u64, out: &Path) -> Workload {
        match name {
            "notebook_airbnb" => Workload::Notebook(notebook::Notebooks::setup(seed, round)),
            "wide_cold" => Workload::Wide(wide::Wide::setup(seed, round)),
            _ => Workload::Server(server_mix::ServerMix::setup(seed, round, out)),
        }
    }

    fn phase(&mut self, phase: Phase, origin: Instant, out: &Path) -> Record {
        let mut tracer = phase.traced.then(|| Tracer::new(origin, 0));
        let mut rec = match self {
            Workload::Notebook(w) => w.phase(phase, tracer.as_mut()),
            Workload::Wide(w) => w.phase(phase, tracer.as_mut()),
            Workload::Server(w) => return w.phase(phase, phase.traced.then_some(origin), out),
        };
        if let Some(t) = tracer {
            rec.spans = t.into_spans();
        }
        rec
    }

    fn check(&mut self, rec: &mut Record) {
        match self {
            Workload::Notebook(w) => w.check(rec),
            Workload::Wide(w) => w.check(rec),
            Workload::Server(w) => w.check(rec),
        }
    }

    /// Span names on the blocking path of a print, for `unattributed_ms`.
    fn blocking(&self) -> &'static [&'static str] {
        match self {
            Workload::Server(_) => &[
                "server.codec",
                "server.lookup",
                "server.frame_print",
                "server.wire_encode",
            ],
            _ => &[
                "engine.metadata",
                "intent.compile",
                "recs.pass",
                "core.print",
                "core.render",
            ],
        }
    }
}

/// One reported metric: its unit, its value and the summary of the
/// samples it was taken from.
struct Metric {
    unit: &'static str,
    value: f64,
    summary: Summary,
}

type Metrics = BTreeMap<&'static str, Metric>;

/// A metric whose value is the median of its samples.
fn put(m: &mut Metrics, name: &'static str, unit: &'static str, summary: Summary) {
    let value = summary.p50;
    m.insert(
        name,
        Metric {
            unit,
            value,
            summary,
        },
    );
}

fn end_to_end(setup_s: &[f64], a: &Record, workload: &str) -> Metrics {
    let mut m = Metrics::new();
    let prints = Summary::of(&a.print_ms);
    put(&mut m, "setup_s", "s", Summary::of(setup_s));
    put(&mut m, "print_p50_ms", "ms", prints);
    m.insert(
        "print_p90_ms",
        Metric {
            unit: "ms",
            value: prints.p90,
            summary: prints,
        },
    );
    put(
        &mut m,
        "ops_per_s",
        "1/s",
        Summary::single(a.ops as f64 / a.busy.as_secs_f64().max(1e-9)),
    );
    put(
        &mut m,
        "peak_rss_mb",
        "MB",
        Summary::single(stats::peak_rss_mb()),
    );
    // Reported in the full results; not every workload has them, so they
    // stay out of the gated set.
    if workload == "server_mix" {
        put(&mut m, "put_p50_ms", "ms", Summary::of(&a.put_ms));
    }
    if workload == "notebook_airbnb" {
        put(&mut m, "nonlux_total_ms", "ms", Summary::of(&a.nonlux_ms));
    }
    put(
        &mut m,
        "failed_ratio",
        "ratio",
        Summary::single(a.failed as f64 / a.attempted.max(1) as f64),
    );
    m
}

/// The metrics of the final line: every end-to-end metric of
/// `BENCHMARK.json`.
const GATED_E2E: [&str; 5] = [
    "setup_s",
    "print_p50_ms",
    "print_p90_ms",
    "ops_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics: self times from the traced phase `b`, counters and
/// the overhead baseline from the untraced phase `a`.
fn per_layer(a: &Record, b: &Record, w: &Workload) -> Metrics {
    let layers = trace::layer_summaries(&b.spans, "print", w.blocking());
    let span = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per = |count: u64, base: usize| Summary::single(count as f64 / base.max(1) as f64);
    let c = &a.counters;
    let a_prints = a.print_ms.len();
    let a_puts = a.put_ms.len();
    let mut m = Metrics::new();
    let mut generated = a.generate_ms.clone();
    generated.extend(&b.generate_ms);
    put(
        &mut m,
        "workloads.generate_ms",
        "ms",
        Summary::of(&generated),
    );
    put(
        &mut m,
        "dataframe.csv_parse_ms",
        "ms",
        span("dataframe.csv_parse"),
    );
    put(&mut m, "dataframe.op_ms", "ms", span("dataframe.op"));
    put(&mut m, "engine.metadata_ms", "ms", span("engine.metadata"));
    put(
        &mut m,
        "engine.metadata_rows",
        "count",
        per(c.metadata_rows, a_prints),
    );
    put(
        &mut m,
        "engine.meta_memo_hit_ratio",
        "ratio",
        Summary::single(ratio(b.boundary.meta_hit, b.boundary.meta_miss)),
    );
    put(
        &mut m,
        "engine.prune_engaged_ratio",
        "ratio",
        Summary::single(ratio(c.prune_engaged, c.prune_skipped)),
    );
    put(
        &mut m,
        "engine.governor_degrades",
        "count",
        per(c.governor_degrades, a_prints),
    );
    put(
        &mut m,
        "engine.admission_wait_ms",
        "ms",
        Summary::single(c.admission_wait_ns as f64 / 1e6 / a_prints.max(1) as f64),
    );
    put(
        &mut m,
        "engine.admission_sheds",
        "count",
        per(c.admission_sheds, 1),
    );
    put(&mut m, "intent.compile_ms", "ms", span("intent.compile"));
    put(&mut m, "recs.pass_ms", "ms", span("recs.pass"));
    put(
        &mut m,
        "recs.memo_hit_ratio",
        "ratio",
        Summary::single(ratio(b.boundary.recs_hit, b.boundary.recs_miss)),
    );
    put(
        &mut m,
        "recs.vis_memo_hit_ratio",
        "ratio",
        Summary::single(ratio(c.vis_memo_hit, c.vis_memo_miss)),
    );
    put(
        &mut m,
        "recs.actions_failed",
        "count",
        per(c.actions_failed + c.actions_disabled, 1),
    );
    let (vis, vis_prints) = if a.vis_prints > 0 {
        (a.vis_returned, a.vis_prints)
    } else {
        (b.vis_returned, b.vis_prints)
    };
    put(
        &mut m,
        "recs.vis_returned",
        "count",
        per(vis, vis_prints as usize),
    );
    put(&mut m, "core.render_ms", "ms", span("core.render"));
    put(
        &mut m,
        "core.wire_flatten_ms",
        "ms",
        span("core.wire_flatten"),
    );
    put(&mut m, "core.vega_lite_ms", "ms", span("core.vega_lite"));
    put(
        &mut m,
        "core.wire_encode_ms",
        "ms",
        span("core.wire_encode"),
    );
    put(
        &mut m,
        "core.wire_bytes",
        "bytes",
        Summary::of(&b.wire_bytes),
    );
    put(&mut m, "server.codec_ms", "ms", span("server.codec"));
    put(
        &mut m,
        "server.registry_put_ms",
        "ms",
        span("server.registry_put"),
    );
    put(
        &mut m,
        "server.journal_fsyncs",
        "count",
        per(c.journal_fsyncs, a_puts),
    );
    put(&mut m, "server.lookup_ms", "ms", span("server.lookup"));
    put(
        &mut m,
        "server.frame_print_ms",
        "ms",
        span("server.frame_print"),
    );
    put(&mut m, "unattributed_ms", "ms", span("unattributed_ms"));
    let traced = Summary::of(&trace::root_latencies(&b.spans, "print"));
    put(
        &mut m,
        "trace.overhead_ms",
        "ms",
        Summary::single(traced.p50 - median(&a.print_ms)),
    );
    m
}

/// The untraced measured phase, run in `SETUP_ROUNDS` slices with one
/// timed set-up before each, so that set-up is sampled across the same
/// stretch of machine time as the prints rather than in one burst. Each
/// timed set-up is torn down, outside its timing, before its slice runs.
/// Returns the merged record and the set-up times in seconds.
fn measure(
    workload: &mut Workload,
    args: &Args,
    seconds: f64,
    min_prints: usize,
    origin: Instant,
    out: &Path,
) -> (Record, Vec<f64>) {
    let slice = Phase {
        seconds: seconds / SETUP_ROUNDS as f64,
        min_prints: min_prints.div_ceil(SETUP_ROUNDS as usize),
        traced: false,
        warmup: false,
    };
    let mut rec = Record::default();
    let mut setup_s = Vec::new();
    for round in 1..=SETUP_ROUNDS {
        let t = Instant::now();
        let timed = Workload::setup(&args.workload, args.seed, round, out);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(timed);
        rec.merge(workload.phase(slice, origin, out));
    }
    (rec, setup_s)
}

/// `HEAD`'s commit id when the benchmark runs from a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "server_mix" {
        // Read once, when the server's journal opens.
        std::env::set_var("LUX_JOURNAL_FSYNC", "always");
    }
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).expect("create output directory");
    let origin = Instant::now();

    // Round 0 sets up the workload that is measured; it runs on a cold
    // machine, so it is not timed.
    let mut workload = Workload::setup(&args.workload, args.seed, 0, &out);
    let warmup = Phase {
        seconds: WARMUP_S,
        min_prints: 0,
        traced: false,
        warmup: true,
    };
    let warm = workload.phase(warmup, origin, &out);

    let jiffies = stats::cpu_jiffies();
    let (mut a, setup_s, b) = if args.trace {
        let half = args.seconds / 2.0;
        let (a, setup_s) = measure(&mut workload, &args, half, 20, origin, &out);
        let traced = Phase {
            seconds: half,
            min_prints: 20,
            traced: true,
            warmup: false,
        };
        let b = workload.phase(traced, origin, &out);
        (a, setup_s, Some(b))
    } else {
        let (a, setup_s) = measure(&mut workload, &args, args.seconds, MIN_PRINTS, origin, &out);
        (a, setup_s, None)
    };
    let (total, steal) = stats::cpu_jiffies();
    let steal_share = (steal - jiffies.1) as f64 / (total - jiffies.0).max(1) as f64;
    a.carry_mismatches(&warm);
    workload.check(&mut a);

    let e2e = end_to_end(&setup_s, &a, &args.workload);
    let layers = b.as_ref().map(|b| per_layer(&a, b, &workload));
    drop(workload);

    let (attempted, failed, mismatches) = match &b {
        Some(b) => (
            a.attempted + b.attempted,
            a.failed + b.failed,
            a.mismatches + b.mismatches,
        ),
        None => (a.attempted, a.failed, a.mismatches),
    };
    let correct = mismatches == 0;
    let fsync = std::env::var("LUX_JOURNAL_FSYNC").unwrap_or_else(|_| "n/a".to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = git_revision();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );

    println!(
        "# perfbench {} seed={} seconds={} trace={} parallelism={parallelism} fsync={fsync} \
         steal={steal_share:.4} rev={revision}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# attempted={attempted} failed={failed} mismatches={mismatches} correct={correct}");
    println!(
        "{:<28} {:>6} {:>14} {:>7} {:>12} {:>12} {:>12}",
        "metric", "unit", "value", "n", "p10", "p50", "p90"
    );
    for (name, m) in e2e.iter().chain(layers.iter().flatten()) {
        let s = m.summary;
        println!(
            "{name:<28} {:>6} {:>14.4} {:>7} {:>12.4} {:>12.4} {:>12.4}",
            m.unit, m.value, s.n, s.p10, s.p50, s.p90
        );
    }

    let mut full = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"available_parallelism\": {parallelism},\n  \"fsync\": {},\n  \"host_steal_share\": {steal_share},\n  \"git_revision\": {},\n  \
         \"attempted\": {attempted},\n  \"failed\": {failed},\n  \"mismatches\": {mismatches},\n  \
         \"metrics\": {{",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&fsync),
        json_str(&revision),
    );
    let all: Vec<_> = e2e.iter().chain(layers.iter().flatten()).collect();
    for (i, (name, m)) in all.iter().enumerate() {
        full.push_str(&format!(
            "{}\n    \"{name}\": {{\"unit\": \"{}\", \"value\": {}, \"samples\": {}}}",
            if i == 0 { "" } else { "," },
            m.unit,
            m.value,
            m.summary.json()
        ));
    }
    full.push_str("\n  }\n}\n");
    let _ = std::fs::write(out.join(format!("{tag}.json")), full);
    if let Some(b) = &b {
        let _ = std::fs::write(
            out.join(format!("{tag}-spans.json")),
            trace::chrome_json(&b.spans),
        );
    }

    let reported: Vec<String> = match &layers {
        Some(l) => l.iter().map(|(name, m)| metric_json(name, m)).collect(),
        None => GATED_E2E
            .iter()
            .map(|name| metric_json(name, &e2e[name]))
            .collect(),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        reported.join(", ")
    );
}

fn metric_json(name: &str, m: &Metric) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.value, m.unit
    )
}
