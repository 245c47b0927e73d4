//! What one measured phase of a workload records, and the process-wide
//! counters it reads as deltas.

use std::time::{Duration, Instant};

use lux_core::Widget;
use lux_engine::trace::names as metric;
use lux_engine::MetricsRegistry;

use crate::trace::Span;

/// Process-wide counters read at a phase boundary. The registry is a
/// process singleton, so a phase only ever reports `after - before`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub meta_memo_hit: u64,
    pub meta_memo_miss: u64,
    pub memo_hit: u64,
    pub memo_miss: u64,
    pub vis_memo_hit: u64,
    pub vis_memo_miss: u64,
    pub prune_engaged: u64,
    pub prune_skipped: u64,
    pub governor_degrades: u64,
    pub admission_sheds: u64,
    pub admission_wait_ns: u64,
    pub actions_failed: u64,
    pub actions_disabled: u64,
    pub metadata_rows: u64,
    pub journal_fsyncs: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let m = MetricsRegistry::global();
        Counters {
            meta_memo_hit: m.counter(metric::META_MEMO_HIT),
            meta_memo_miss: m.counter(metric::META_MEMO_MISS),
            memo_hit: m.counter(metric::MEMO_HIT),
            memo_miss: m.counter(metric::MEMO_MISS),
            vis_memo_hit: m.counter(metric::VIS_MEMO_HIT),
            vis_memo_miss: m.counter(metric::VIS_MEMO_MISS),
            prune_engaged: m.counter(metric::PRUNE_ENGAGED),
            prune_skipped: m.counter(metric::PRUNE_SKIPPED),
            governor_degrades: m.counter(metric::GOVERNOR_DEGRADES),
            admission_sheds: m.counter(metric::ADMISSION_SHEDS),
            admission_wait_ns: m.histogram_handle(metric::ADMISSION_WAIT).sum_ns(),
            actions_failed: m.counter(metric::ACTIONS_FAILED),
            actions_disabled: m.counter(metric::ACTIONS_DISABLED),
            metadata_rows: m.counter(metric::METADATA_KERNEL_ROWS),
            journal_fsyncs: m.counter(metric::SERVER_JOURNAL_FSYNCS),
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        self.zip(before, |a, b| a - b)
    }

    /// `self + o`, field by field.
    pub fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            meta_memo_hit: f(self.meta_memo_hit, o.meta_memo_hit),
            meta_memo_miss: f(self.meta_memo_miss, o.meta_memo_miss),
            memo_hit: f(self.memo_hit, o.memo_hit),
            memo_miss: f(self.memo_miss, o.memo_miss),
            vis_memo_hit: f(self.vis_memo_hit, o.vis_memo_hit),
            vis_memo_miss: f(self.vis_memo_miss, o.vis_memo_miss),
            prune_engaged: f(self.prune_engaged, o.prune_engaged),
            prune_skipped: f(self.prune_skipped, o.prune_skipped),
            governor_degrades: f(self.governor_degrades, o.governor_degrades),
            admission_sheds: f(self.admission_sheds, o.admission_sheds),
            admission_wait_ns: f(self.admission_wait_ns, o.admission_wait_ns),
            actions_failed: f(self.actions_failed, o.actions_failed),
            actions_disabled: f(self.actions_disabled, o.actions_disabled),
            metadata_rows: f(self.metadata_rows, o.metadata_rows),
            journal_fsyncs: f(self.journal_fsyncs, o.journal_fsyncs),
        }
    }
}

/// `hits / (hits + misses)`, 0 when nothing was queried.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Hit/miss tallies taken from counter deltas around one traced call:
/// the memo outcome of the call that does the work, not of the program's
/// internal re-reads after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Boundary {
    pub meta_hit: u64,
    pub meta_miss: u64,
    pub recs_hit: u64,
    pub recs_miss: u64,
}

impl Boundary {
    pub fn merge(&mut self, o: &Boundary) {
        self.meta_hit += o.meta_hit;
        self.meta_miss += o.meta_miss;
        self.recs_hit += o.recs_hit;
        self.recs_miss += o.recs_miss;
    }
}

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Record {
    /// Operations attempted and failed (shed, typed error, failed or
    /// disabled action, output-check mismatch).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches alone (also counted in `failed`).
    pub mismatches: u64,
    /// Latency of every dataframe print, in ms.
    pub print_ms: Vec<f64>,
    /// Latency of every acknowledged put, in ms.
    pub put_ms: Vec<f64>,
    /// Summed non-Lux cell time of each notebook replay, in ms.
    pub nonlux_ms: Vec<f64>,
    /// Time spent generating inputs inside the phase, in ms per frame.
    pub generate_ms: Vec<f64>,
    /// Completed operations and the phase's wall time without input
    /// generation.
    pub ops: u64,
    pub busy: Duration,
    /// Σ vislist length over the results of `vis_prints` prints.
    pub vis_returned: u64,
    pub vis_prints: u64,
    pub counters: Counters,
    pub boundary: Boundary,
    /// Traced phases only.
    pub spans: Vec<Span>,
    pub wire_bytes: Vec<f64>,
}

impl Record {
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    pub fn count_vis(&mut self, w: &Widget) {
        self.vis_returned += w
            .results()
            .iter()
            .map(|r| r.vislist.len() as u64)
            .sum::<u64>();
        self.vis_prints += 1;
    }

    pub fn mismatch(&mut self) {
        self.failed += 1;
        self.mismatches += 1;
    }

    /// Count the output-check mismatches of an unmeasured phase (the
    /// warm-up) as this phase's own.
    pub fn carry_mismatches(&mut self, o: &Record) {
        self.failed += o.mismatches;
        self.mismatches += o.mismatches;
    }

    pub fn merge(&mut self, o: Record) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.print_ms.extend(o.print_ms);
        self.put_ms.extend(o.put_ms);
        self.nonlux_ms.extend(o.nonlux_ms);
        self.generate_ms.extend(o.generate_ms);
        self.ops += o.ops;
        self.busy += o.busy;
        self.counters = self.counters.plus(&o.counters);
        self.vis_returned += o.vis_returned;
        self.vis_prints += o.vis_prints;
        self.boundary.merge(&o.boundary);
        let offset = self.spans.len();
        self.spans.extend(o.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.wire_bytes.extend(o.wire_bytes);
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Phase length and the print count a run must reach regardless, so that
/// at least ten prints lie beyond p90. A warm-up phase keeps no digests
/// for the output check: those come from measured prints.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub seconds: f64,
    pub min_prints: usize,
    pub traced: bool,
    pub warmup: bool,
}

impl Phase {
    /// Whether this phase keeps digests for the output check.
    pub fn keeps_digests(&self) -> bool {
        !self.traced && !self.warmup
    }

    pub fn done(&self, started: Instant, prints: usize) -> bool {
        started.elapsed().as_secs_f64() >= self.seconds && prints >= self.min_prints
    }
}
