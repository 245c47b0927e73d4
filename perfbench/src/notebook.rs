//! `notebook_airbnb`: replays of the Airbnb notebook of Table 3 (14
//! dataframe prints, 7 series prints, 17 non-Lux cells) at 50,000 rows,
//! each replay on a fresh frame from its own seed, with the PRUNE sample
//! cap at rows/10. Dataframe operations derive new frames beside the
//! prints, re-prints hit the WFLOW memo, and PRUNE engages.

use std::time::{Duration, Instant};

use lux_core::Widget;
use lux_workloads::{airbnb_notebook, CellKind, Condition, Notebook, Session};

use crate::probe::decomposed_print;
use crate::record::{ms_since, Counters, Phase, Record};
use crate::stats::{derive, failed_actions, widget_digest, widget_ok};
use crate::trace::Tracer;

pub const ROWS: usize = 50_000;
const SAMPLE_CAP: usize = ROWS / 10;
/// The first cell generates the frame: it is input generation, timed
/// apart from the cells.
const LOAD_CELL: &str = "load csv";
const WARMUP_STREAM: u64 = 1 << 40;

pub struct Notebooks {
    seed: u64,
    next: u64,
    /// Print digests of the first measured replay, in cell order.
    checked: Option<(u64, Vec<u64>)>,
}

enum Target<'a> {
    Frame(&'a str),
    Series(&'a str, &'a str),
}

/// The frame (and column) a print cell prints, from its label:
/// `print df` or `print df[price]`.
fn target(label: &str) -> Target<'_> {
    let name = label.strip_prefix("print ").unwrap_or(label);
    match name.split_once('[') {
        Some((frame, col)) => Target::Series(frame, col.trim_end_matches(']')),
        None => Target::Frame(name),
    }
}

fn session() -> Session {
    Session::with_sample_cap(Condition::AllOpt, Some(SAMPLE_CAP))
}

fn notebook(seed: u64, stream: u64) -> Notebook {
    airbnb_notebook(ROWS, derive(seed, stream))
}

fn print_cell(s: &Session, target: &Target) -> Widget {
    match *target {
        Target::Frame(name) => s.frame(name).print(),
        Target::Series(frame, col) => s
            .frame(frame)
            .series(col)
            .expect("notebook column exists")
            .print(),
    }
}

/// Replay every cell untimed, returning the print digests in cell order.
fn replay_digests(nb: &Notebook) -> Vec<u64> {
    let mut s = session();
    let mut digests = Vec::new();
    for cell in &nb.cells {
        match cell.kind {
            CellKind::NonLux => (cell.run)(&mut s),
            _ => digests.push(widget_digest(&print_cell(&s, &target(&cell.label)))),
        }
    }
    digests
}

impl Notebooks {
    /// Load a warm-up frame and print it (thread pool, lazy statics).
    pub fn setup(seed: u64, round: u64) -> Notebooks {
        let nb = notebook(seed, WARMUP_STREAM + round);
        let mut s = session();
        for cell in nb.cells.iter().take(2) {
            match cell.kind {
                CellKind::NonLux => (cell.run)(&mut s),
                _ => {
                    print_cell(&s, &target(&cell.label));
                }
            }
        }
        Notebooks {
            seed,
            next: 0,
            checked: None,
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
            let nb = notebook(self.seed, stream);
            let mut s = session();
            let mut nonlux = 0.0;
            let mut digests = Vec::new();
            for (i, cell) in nb.cells.iter().enumerate() {
                let rid = stream * 1_000 + i as u64;
                if cell.label == LOAD_CELL {
                    let g = Instant::now();
                    (cell.run)(&mut s);
                    generating += g.elapsed();
                    rec.generate_ms.push(ms_since(g));
                    continue;
                }
                rec.attempted += 1;
                let t = Instant::now();
                if cell.kind == CellKind::NonLux {
                    match tracer.as_deref_mut() {
                        None => (cell.run)(&mut s),
                        Some(tr) => {
                            let root = tr.request(rid, "dataframe.op");
                            (cell.run)(&mut s);
                            tr.end(root);
                        }
                    }
                    nonlux += ms_since(t);
                    rec.ops += 1;
                    continue;
                }
                let target = target(&cell.label);
                let w = match (tracer.as_deref_mut(), &target) {
                    (None, _) => print_cell(&s, &target),
                    (Some(tr), Target::Frame(name)) => {
                        let root = tr.request(rid, "print");
                        let w = decomposed_print(tr, s.frame(name), &mut rec.boundary);
                        tr.end(root);
                        w
                    }
                    (Some(tr), Target::Series(..)) => {
                        let root = tr.request(rid, "print.series");
                        let w = tr.span("core.print", || print_cell(&s, &target));
                        tr.end(root);
                        w
                    }
                };
                if cell.kind == CellKind::PrintDataFrame {
                    rec.print_ms.push(ms_since(t));
                }
                rec.ops += 1;
                rec.count_vis(&w);
                if !widget_ok(&w) || failed_actions(&w) > 0 {
                    rec.fail(1);
                }
                digests.push(widget_digest(&w));
            }
            rec.nonlux_ms.push(nonlux);
            if phase.keeps_digests() && self.checked.is_none() {
                self.checked = Some((stream, digests));
            }
        }
        rec.busy = started.elapsed().saturating_sub(generating);
        rec.counters = Counters::read().since(&before);
        rec
    }

    /// Output check: replay the first measured notebook again from its
    /// seed and compare every print's digest.
    pub fn check(&self, rec: &mut Record) {
        if let Some((stream, digests)) = &self.checked {
            let again = replay_digests(&notebook(self.seed, *stream));
            for (i, (a, b)) in digests.iter().zip(&again).enumerate() {
                if a != b {
                    eprintln!("notebook_airbnb: digest mismatch on print {i} of replay {stream}");
                    rec.mismatch();
                }
            }
            if digests.len() != again.len() {
                rec.mismatch();
            }
        }
    }
}
