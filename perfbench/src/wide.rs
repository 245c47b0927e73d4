//! `wide_cold`: cold prints of fresh 40-column × 5000-row frames of the
//! RQ2 type mix, one new frame per print, each print followed by the
//! rendered Lux view. No memo or stats-cache hit is possible, so metadata,
//! recommendations and rendering do all the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_core::{LuxDataFrame, Widget};
use lux_engine::LuxConfig;
use lux_workloads::synthetic_wide;

use crate::probe::{decomposed_print, export_layers, PER_TAB};
use crate::record::{ms_since, Counters, Phase, Record};
use crate::stats::{derive, failed_actions, widget_digest, widget_ok};
use crate::trace::Tracer;

pub const COLS: usize = 40;
pub const ROWS: usize = 5_000;
/// Frames whose digests are re-computed after the measured phases.
const CHECKED: usize = 3;
/// Warm-up frames use streams above this, measured frames below.
const WARMUP_STREAM: u64 = 1 << 40;

pub struct Wide {
    seed: u64,
    config: Arc<LuxConfig>,
    next: u64,
    /// `(frame stream, digest)` of the first measured prints.
    digests: Vec<(u64, u64)>,
}

fn frame(seed: u64, stream: u64, config: &Arc<LuxConfig>) -> LuxDataFrame {
    let df = synthetic_wide(COLS, ROWS, derive(seed, stream));
    LuxDataFrame::with_config(df, Arc::clone(config))
}

fn print_and_render(ldf: &LuxDataFrame) -> Widget {
    let w = ldf.print();
    std::hint::black_box(w.render_lux_view(PER_TAB));
    w
}

impl Wide {
    /// Generate a warm-up frame and print it twice (thread pool, lazy
    /// statics); round `r` uses its own frames.
    pub fn setup(seed: u64, round: u64) -> Wide {
        let config = Arc::new(LuxConfig::all_opt());
        for k in 0..2 {
            let ldf = frame(seed, WARMUP_STREAM + round * 2 + k, &config);
            print_and_render(&ldf);
        }
        Wide {
            seed,
            config,
            next: 0,
            digests: Vec::new(),
        }
    }

    pub fn phase(&mut self, phase: Phase, mut tracer: Option<&mut Tracer>) -> Record {
        let mut rec = Record::default();
        let before = Counters::read();
        let started = Instant::now();
        let mut generating = Duration::ZERO;
        while !phase.done(started, rec.print_ms.len()) {
            let stream = self.next;
            self.next += 1;
            let g = Instant::now();
            let ldf = frame(self.seed, stream, &self.config);
            generating += g.elapsed();
            rec.generate_ms.push(ms_since(g));
            rec.attempted += 1;
            let t = Instant::now();
            let w = match tracer.as_deref_mut() {
                None => print_and_render(&ldf),
                Some(tr) => {
                    let root = tr.request(stream, "print");
                    let w = decomposed_print(tr, &ldf, &mut rec.boundary);
                    tr.span("core.render", || w.render_lux_view(PER_TAB));
                    tr.end(root);
                    w
                }
            };
            rec.print_ms.push(ms_since(t));
            if let Some(tr) = tracer.as_deref_mut() {
                export_layers(tr, stream, &w, &mut rec);
            }
            rec.ops += 1;
            rec.count_vis(&w);
            if !widget_ok(&w) || failed_actions(&w) > 0 {
                rec.fail(1);
            }
            if phase.keeps_digests() && self.digests.len() < CHECKED {
                self.digests.push((stream, widget_digest(&w)));
            }
        }
        rec.busy = started.elapsed().saturating_sub(generating);
        rec.counters = Counters::read().since(&before);
        // Isolation: every print of a fresh frame must compute its
        // metadata exactly once, and never find it memoized.
        if !phase.traced && rec.counters.meta_memo_miss != rec.print_ms.len() as u64 {
            rec.mismatch();
        }
        if phase.traced && rec.boundary.meta_hit > 0 {
            rec.mismatch();
        }
        rec
    }

    /// Output check: regenerate the first measured frames from their
    /// seeds, print them again and compare digests.
    pub fn check(&self, rec: &mut Record) {
        for &(stream, digest) in &self.digests {
            let again = widget_digest(&print_and_render(&frame(self.seed, stream, &self.config)));
            if again != digest {
                eprintln!("wide_cold: digest mismatch on frame stream {stream}");
                rec.mismatch();
            }
        }
    }
}
