//! Recommendation generation: one executor runs the applicable actions over
//! a dataframe, applying the PRUNE optimization inside each action and
//! streaming each action's results as it completes (ASYNC, paper §8.2).
//!
//! A pass is a [`PassCtx`] handed to [`run_pass`]. Each action is one task
//! — [`execute_action`]: a `generate` span, then score/rank/process — that
//! runs either inline on the caller or, with `config.async`, on a detached
//! pool lane. One collector settles every task: results stream out in
//! completion order, while the health ledger and the governor events are
//! settled in dispatch order, so a pass's report is the same whichever way
//! it was dispatched and however its tasks interleaved.
//!
//! Every action runs under the fault model of [`crate::fault`]: generation,
//! scoring, and processing are panic-isolated; each action gets a wall-clock
//! budget derived from its cost estimate (`LuxConfig::action_budget` scaled
//! by `CostModel::time_budget`) with cooperative checks between steps and —
//! on detached dispatch — a hard cutoff that abandons hung workers; and a
//! per-action circuit breaker skips actions that keep failing, with a
//! half-open re-probe after a cooldown of fresh frames. One misbehaving
//! action can therefore never take down a recommendation pass: every healthy
//! action's results are still served, and the per-action health ledger in
//! [`RunReport`] says what happened to the rest.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use lux_dataframe::prelude::*;
use lux_engine::clock;
use lux_engine::governor::{drain_sink, event_sink, BudgetHandle, DegradeLevel, EventSink};
use lux_engine::lock_recover;
use lux_engine::trace::{names as metric, MetricsRegistry, SpanId, TraceCollector};
#[cfg(test)]
use lux_engine::LuxConfig;
use lux_engine::{CostModel, FrameMeta};
use lux_vis::{Channel, Vis, VisList, VisSpec};

use crate::action::{Action, ActionContext, ActionRegistry, ActionResult, Candidate};
use crate::fault::{
    isolate, ActionError, ActionHealth, ActionStatus, BreakerDecision, CircuitBreaker, Deadline,
    RunReport,
};

/// Trace attachment for one executing action: the shared pass collector plus
/// the action's own span, under which the executor records `generate` /
/// `score` / `process` phase spans and the PRUNE/deadline decision tags.
/// Cloneable so detached workers can carry it across threads.
#[derive(Clone)]
pub struct TraceCtx {
    pub collector: Arc<TraceCollector>,
    pub span: SpanId,
}

impl TraceCtx {
    pub fn new(collector: Arc<TraceCollector>, span: SpanId) -> TraceCtx {
        TraceCtx { collector, span }
    }

    fn child(&self, name: &str) -> SpanId {
        self.collector.begin(Some(self.span), name)
    }

    fn tag(&self, key: &str, value: impl Into<String>) {
        self.collector.tag(self.span, key, value);
    }
}

/// Estimate `(rows, groups)` for costing one spec against frame metadata.
/// "Groups" is the output cardinality of the primary relational operation
/// (Table 2): selections materialize no groups, binned ops produce one
/// group per bin, and group-bys produce one group per key combination.
fn estimate_spec(spec: &VisSpec, meta: &FrameMeta, num_rows: usize) -> (usize, usize) {
    use lux_engine::OpClass;
    let x_card = spec
        .channel(Channel::X)
        .and_then(|e| meta.column(&e.attribute))
        .map(|c| c.cardinality.min(num_rows))
        .unwrap_or(1);
    let color_card = spec
        .channel(Channel::Color)
        .and_then(|e| meta.column(&e.attribute))
        .map(|c| c.cardinality.min(num_rows))
        .unwrap_or(1);
    let bins = |e: Option<&lux_vis::Encoding>| e.and_then(|e| e.bin).unwrap_or(10);
    let groups = match spec.op_class() {
        OpClass::Selection2 | OpClass::Selection3 => 0,
        OpClass::GroupAgg => x_card,
        OpClass::GroupAgg2D => x_card.saturating_mul(color_card).min(num_rows),
        OpClass::BinCount => bins(spec.channel(Channel::X)),
        OpClass::BinCount2D | OpClass::BinCount2DGroup => {
            bins(spec.channel(Channel::X)) * bins(spec.channel(Channel::Y))
        }
    };
    (num_rows, groups)
}

/// Cost-model estimate for a whole action (sum over its candidates).
fn estimate_action(
    candidates: &[Candidate],
    meta: &FrameMeta,
    num_rows: usize,
    model: &CostModel,
) -> f64 {
    model.action_cost(candidates.iter().map(|c| {
        let rows = c.frame.as_ref().map_or(num_rows, |f| f.num_rows());
        let (r, g) = estimate_spec(&c.spec, meta, rows);
        (c.spec.op_class(), r, g)
    }))
}

/// Run `action.generate` under panic isolation, folding generation errors
/// into the [`ActionError`] taxonomy.
fn generate_isolated(
    action: &dyn Action,
    ctx: &ActionContext<'_>,
) -> std::result::Result<Vec<Candidate>, ActionError> {
    match isolate(action.name(), || action.generate(ctx)) {
        Ok(Ok(candidates)) => Ok(candidates),
        Ok(Err(e)) => Err(ActionError::Generation(e.to_string())),
        Err(panic) => Err(panic),
    }
}

/// Score, rank, and process pre-generated candidates under the fault model:
/// panic isolation around every call into the action, a cooperative deadline
/// between scoring/processing steps, and the degraded path (sample-backed
/// partial results, `degraded: true`) once the deadline expires.
fn execute_prepared(
    action: &dyn Action,
    pass: &PassCtx,
    mut candidates: Vec<Candidate>,
    trace: Option<&TraceCtx>,
    sink: &EventSink,
) -> std::result::Result<Option<ActionResult>, ActionError> {
    let start = clock::now();
    if candidates.is_empty() {
        return Ok(None);
    }
    let ctx = &pass.action_context();
    let sample = pass.sample.as_deref();
    let governor = pass.governor.as_ref();
    let model = &CostModel::default();
    let mut opts = ctx.process_options();
    opts.governor = governor.cloned();
    // SQL backend: count transient-error retries so they can be tagged
    // onto this action's span (`sql.retries`) after processing.
    let sql_attempts = ctx
        .config
        .sql_backend
        .then(|| Arc::new(std::sync::atomic::AtomicU64::new(0)));
    opts.sql_attempts = sql_attempts.clone();
    // Degradation events buffer in the action's sink; the collector replays
    // them onto the governor in dispatch order. Returns how many events
    // were emitted.
    let emit = |events: Vec<lux_engine::GovernorEvent>| -> usize {
        let n = events.len();
        lock_recover(sink).extend(events);
        n
    };
    // Governor: the candidate search space is the first allocation-heavy
    // surface of an action — cap it before any scoring/processing happens.
    let mut governor_notes: Vec<String> = Vec::new();
    // The governor's budget may be tighter than the config's: under
    // admission pressure the shed ladder hands the pass a shrunk candidate
    // cap (DESIGN.md §10).
    let max_candidates = governor
        .map(|g| g.budget().max_candidates)
        .unwrap_or(ctx.config.budget.max_candidates);
    if candidates.len() > max_candidates {
        let dropped = candidates.len() - max_candidates;
        candidates.truncate(max_candidates);
        let note = format!("candidate search space capped at {max_candidates} ({dropped} dropped)");
        if governor.is_some() {
            emit(vec![lux_engine::GovernorEvent {
                stage: format!("action:{}", action.name()),
                level: DegradeLevel::CappedCardinality,
                detail: note.clone(),
            }]);
        }
        governor_notes.push(note);
    }
    // Score/process degradations attributed to THIS action (counted from
    // its own per-candidate sinks, immune to concurrent actions' events).
    let mut degrade_events = 0usize;
    let governed = governor.is_some();
    let estimated_cost = estimate_action(&candidates, ctx.meta, ctx.df.num_rows(), model);
    let k = ctx.config.top_k;
    let total = candidates.len();
    if let Some(t) = trace {
        t.tag("candidates", total.to_string());
        t.tag("cost.estimated", format!("{estimated_cost:.0}"));
    }

    // The budget is proportional to how expensive the cost model predicts
    // this action to be — cheap actions get the base budget, heavyweight
    // ones up to the hard-cutoff multiple of it.
    let deadline = match ctx.config.action_budget {
        Some(base) => Deadline::after(model.time_budget(estimated_cost, base)),
        None => Deadline::none(),
    };

    // PRUNE gate: approximate only when the cost model predicts a win and a
    // genuinely smaller sample exists (paper: "apply prune for any action
    // where the number of visualizations exceeds k", subject to the model).
    // The sample is bound in the same match that decides to prune, so the
    // "prune without a sample" state is unrepresentable.
    let rep_class = candidates[0].spec.op_class();
    let (rep_rows, rep_groups) = estimate_spec(&candidates[0].spec, ctx.meta, ctx.df.num_rows());
    // Admission shed ladder: a pass admitted under pressure carries a
    // `Sampled` degradation floor — approximate scoring is then forced
    // whenever a sample exists, regardless of the cost model's verdict.
    let force_sampled = governor.is_some_and(|g| g.degrade_floor() >= DegradeLevel::Sampled);
    let prune_sample: Option<&DataFrame> = match sample {
        Some(s) if force_sampled => Some(s),
        Some(s)
            if ctx.config.prune
                && total > k
                && model.prune_worthwhile(
                    total,
                    k,
                    rep_class,
                    rep_rows,
                    s.num_rows(),
                    rep_groups,
                ) =>
        {
            Some(s)
        }
        _ => None,
    };
    // PRUNE observability: when approximation was a live question (PRUNE on
    // and a sample available), record whether the cost-model gate engaged.
    if (ctx.config.prune || force_sampled) && sample.is_some() {
        MetricsRegistry::global().incr(if prune_sample.is_some() {
            metric::PRUNE_ENGAGED
        } else {
            metric::PRUNE_SKIPPED
        });
    }
    if let Some(t) = trace {
        t.tag(
            "prune",
            match (
                force_sampled && prune_sample.is_some(),
                ctx.config.prune,
                prune_sample.is_some(),
            ) {
                (true, _, _) => "forced",
                (false, true, true) => "engaged",
                (false, true, false) => "skipped",
                (false, false, _) => "off",
            },
        );
        if deadline.is_bounded() {
            t.tag(
                "deadline.budget_ms",
                format!("{:.1}", deadline.budget().as_secs_f64() * 1e3),
            );
        }
    }

    // First pass: score every candidate (on the sample when PRUNE applies).
    // With `threads > 1` candidates score as pool tasks into per-index
    // slots; the slots are folded in candidate order, stopping at the first
    // deadline expiry, so a run that never hits its deadline produces
    // byte-identical output at every thread count (and `threads = 1` is the
    // old sequential loop exactly).
    let par = ctx.config.effective_threads();
    let score_span = trace.map(|t| t.child("score"));
    if let (Some(t), Some(id)) = (trace, score_span) {
        t.collector.tag(id, "par", par.to_string());
    }
    enum ScoreOutcome {
        Scored(Candidate, f64, bool),
        Expired,
        Panicked(ActionError),
    }
    let outcomes = lux_engine::parallel_map(par, candidates, |_, cand| {
        if deadline.expired() {
            return (ScoreOutcome::Expired, None);
        }
        // Per-candidate event sink: degradations recorded while scoring
        // buffer here and are replayed in candidate order by the fold below.
        let csink = governed.then(event_sink);
        let copts = match &csink {
            Some(s) => {
                let mut c = opts.clone();
                c.event_sink = Some(s.clone());
                c
            }
            None => opts.clone(),
        };
        // Candidates pinned to their own frame (history/structure actions)
        // are scored on that frame; others use the sample when pruning.
        let (frame, approx): (&DataFrame, bool) = match (&cand.frame, prune_sample) {
            (Some(f), _) => (f, false),
            (None, Some(s)) => (s, true),
            (None, None) => (ctx.df, false),
        };
        let outcome = match isolate(action.name(), || action.score(&cand.spec, frame, &copts)) {
            Ok(s) => ScoreOutcome::Scored(cand, s, approx),
            Err(e) => ScoreOutcome::Panicked(e),
        };
        (outcome, csink)
    });
    let mut scored: Vec<(Candidate, f64, bool)> = Vec::with_capacity(total);
    let mut degraded_reason: Option<String> = None;
    for (outcome, csink) in outcomes {
        // Replay this candidate's events before settling its outcome — the
        // order a sequential run would have recorded them in.
        if let Some(s) = &csink {
            degrade_events += emit(drain_sink(s));
        }
        match outcome {
            ScoreOutcome::Scored(cand, score, approx) => scored.push((cand, score, approx)),
            ScoreOutcome::Expired => {
                degraded_reason = Some(format!(
                    "budget {:?} exhausted after scoring {}/{} candidates",
                    deadline.budget(),
                    scored.len(),
                    total
                ));
                break;
            }
            ScoreOutcome::Panicked(e) => {
                if let (Some(t), Some(id)) = (trace, score_span) {
                    t.collector.tag(id, "panicked", "true");
                    t.collector.end(id);
                }
                return Err(e);
            }
        }
    }
    if let (Some(t), Some(id)) = (trace, score_span) {
        t.collector
            .tag(id, "scored", format!("{}/{total}", scored.len()));
        t.collector
            .tag(id, "approximate", prune_sample.is_some().to_string());
        t.collector.end(id);
    }
    if scored.is_empty() {
        // Deadline hit before anything was scored: nothing servable.
        return Err(ActionError::TimedOut {
            budget: deadline.budget(),
            completed: 0,
            total,
        });
    }
    // NaN scores sort last deterministically (an action whose statistic
    // degenerates must never float to the top of the ranking).
    scored.sort_by(|a, b| lux_engine::cmp_score_desc(a.1, b.1));
    scored.truncate(k);

    // Second pass: recompute approximate scores exactly and process the
    // top-k on the full frame — until the deadline expires, after which the
    // remaining survivors are served degraded: approximate score kept,
    // processed against the (cheap) sample so there is still data to draw.
    // Like scoring, survivors process as pool tasks into per-index slots;
    // each task re-checks the deadline itself, so without deadline pressure
    // every thread count takes the exact path on every survivor.
    let process_span = trace.map(|t| t.child("process"));
    if let (Some(t), Some(id)) = (trace, process_span) {
        t.collector.tag(id, "par", par.to_string());
    }
    enum ProcOutcome {
        Exact(Result<Vis>),
        Degraded(Vis),
        Panicked(ActionError),
    }
    let already_degraded = degraded_reason.is_some();
    let proc_outcomes = lux_engine::parallel_map(par, scored, |_, (cand, score, approx)| {
        let csink = governed.then(event_sink);
        let copts = match &csink {
            Some(s) => {
                let mut c = opts.clone();
                c.event_sink = Some(s.clone());
                c
            }
            None => opts.clone(),
        };
        let Candidate {
            spec,
            frame: pinned,
        } = cand;
        let outcome = if !already_degraded && !deadline.expired() {
            let frame: &DataFrame = pinned.as_deref().unwrap_or(ctx.df);
            match isolate(action.name(), || -> Result<Vis> {
                let exact = if approx {
                    action.score(&spec, frame, &copts)
                } else {
                    score
                };
                let mut vis = Vis::new(spec);
                vis.score = exact;
                vis.approximate = false;
                vis.process(frame, &copts)?;
                Ok(vis)
            }) {
                Ok(r) => ProcOutcome::Exact(r),
                Err(e) => ProcOutcome::Panicked(e),
            }
        } else {
            // Degraded path: best-effort processing against the pinned
            // frame or the sample; score-only (no data) when neither works.
            let mut vis = Vis::new(spec);
            vis.score = score;
            vis.approximate = true;
            if let Some(frame) = pinned.as_deref().or(sample) {
                let _ = isolate(action.name(), || vis.process(frame, &copts));
            }
            ProcOutcome::Degraded(vis)
        };
        (outcome, csink)
    });
    let mut visses: Vec<Vis> = Vec::with_capacity(proc_outcomes.len());
    let mut last_processing_error: Option<String> = None;
    let mut expired_during_processing = false;
    for (outcome, csink) in proc_outcomes {
        if let Some(s) = &csink {
            degrade_events += emit(drain_sink(s));
        }
        match outcome {
            ProcOutcome::Exact(Ok(vis)) => visses.push(vis),
            // fail-safe: drop the broken vis, keep the rest
            ProcOutcome::Exact(Err(e)) => last_processing_error = Some(e.to_string()),
            ProcOutcome::Degraded(vis) => {
                if !already_degraded {
                    expired_during_processing = true;
                }
                visses.push(vis);
            }
            ProcOutcome::Panicked(e) => {
                if let (Some(t), Some(id)) = (trace, process_span) {
                    t.collector.tag(id, "panicked", "true");
                    t.collector.end(id);
                }
                return Err(e);
            }
        }
    }
    if expired_during_processing && degraded_reason.is_none() {
        degraded_reason = Some(format!(
            "budget {:?} exhausted during exact processing; remaining results are sample-approximated",
            deadline.budget()
        ));
    }
    if let (Some(t), Some(id)) = (trace, process_span) {
        t.collector.tag(id, "processed", visses.len().to_string());
        t.collector
            .tag(id, "degraded", degraded_reason.is_some().to_string());
        t.collector.end(id);
    }
    if visses.is_empty() {
        return Err(ActionError::Processing(
            last_processing_error
                .unwrap_or_else(|| "every candidate failed processing".to_string()),
        ));
    }
    let mut vislist = VisList::new(visses);
    vislist.rank();

    // Governor degradations during scoring/processing (group caps, shrunk
    // scans, ...) surface on the result even though the deadline never
    // fired: the tab is marked degraded with the governor's reasons.
    if governed {
        if degrade_events > 0 {
            governor_notes.push(format!(
                "resource governor degraded {degrade_events} processing step(s)"
            ));
        }
        if let Some(t) = trace {
            t.tag("governor.events", degrade_events.to_string());
        }
    }
    // Surface transient SQL retries on the action span (satellite: the
    // retry-with-backoff wrapper counts attempts into this cell).
    if let (Some(t), Some(attempts)) = (trace, &sql_attempts) {
        let n = attempts.load(std::sync::atomic::Ordering::Relaxed);
        if n > 0 {
            t.tag("sql.retries", n.to_string());
        }
    }
    let degraded = degraded_reason.is_some() || !governor_notes.is_empty();
    let degraded_reason = match (degraded_reason, governor_notes.is_empty()) {
        (Some(r), true) => Some(r),
        (Some(r), false) => Some(format!("{r}; {}", governor_notes.join("; "))),
        (None, false) => Some(governor_notes.join("; ")),
        (None, true) => None,
    };

    Ok(Some(ActionResult {
        action: action.name().to_string(),
        class: action.class(),
        vislist,
        estimated_cost,
        elapsed: clock::elapsed(start).as_secs_f64(),
        degraded,
        degraded_reason,
    }))
}

/// Everything one recommendation pass reads, owned (`Arc`'d) so detached
/// workers can outlive the caller's borrows.
#[derive(Clone)]
pub struct PassCtx {
    pub df: Arc<DataFrame>,
    pub meta: Arc<FrameMeta>,
    pub intent: Arc<Vec<lux_intent::Clause>>,
    pub intent_specs: Arc<Vec<VisSpec>>,
    pub config: Arc<lux_engine::LuxConfig>,
    /// Cached sample for PRUNE's approximate first pass; `None` scores on
    /// the full frame.
    pub sample: Option<Arc<DataFrame>>,
    /// Trace attachment for the pass (the span is the parent under which
    /// per-action spans are recorded); `None` runs untraced.
    pub trace: Option<TraceCtx>,
    /// Per-pass resource governor shared by every action; `None` runs
    /// ungoverned (no budget enforcement).
    pub governor: Option<Arc<BudgetHandle>>,
    /// Admission slot held for the duration of the pass. The collector
    /// keeps it until every action has settled (or been abandoned), not
    /// until the caller's stack frame unwinds.
    pub permit: Option<Arc<lux_engine::AdmissionPermit>>,
}

impl PassCtx {
    /// The borrowed view the [`Action`] trait sees.
    pub fn action_context(&self) -> ActionContext<'_> {
        ActionContext {
            df: &self.df,
            meta: &self.meta,
            intent: &self.intent,
            intent_specs: &self.intent_specs,
            config: &self.config,
        }
    }
}

/// Execute one action end-to-end under the fault model: generate, score
/// (approximately when PRUNE applies), rank, keep top-k, and process the
/// survivors exactly. `Ok(None)` means the action generated no candidates
/// (an invisible empty tab, not a fault).
///
/// With a trace attached, the action's span gets the `sched.worker` that
/// ran it, a `generate` phase span, and the score/process spans and
/// decision tags of [`execute_prepared`]. Governor degradations are
/// buffered into `events`, never recorded on the handle directly: the
/// caller replays them in dispatch order.
pub fn execute_action(
    action: &dyn Action,
    ctx: &PassCtx,
    trace: Option<&TraceCtx>,
    events: &EventSink,
) -> std::result::Result<Option<ActionResult>, ActionError> {
    let actx = ctx.action_context();
    let candidates = match trace {
        Some(t) => {
            t.tag(
                "sched.worker",
                match lux_engine::worker_index() {
                    Some(w) => w.to_string(),
                    None => "caller".to_string(),
                },
            );
            let gen_span = t.child("generate");
            let generated = generate_isolated(action, &actx);
            match &generated {
                Ok(c) => t.collector.tag(gen_span, "candidates", c.len().to_string()),
                Err(_) => t.collector.tag(gen_span, "failed", "true"),
            }
            t.collector.end(gen_span);
            generated?
        }
        None => generate_isolated(action, &actx)?,
    };
    execute_prepared(action, ctx, candidates, trace, events)
}

/// Derive the health status for a delivered result.
fn delivery_status(result: &ActionResult) -> ActionStatus {
    match &result.degraded_reason {
        Some(reason) if result.degraded => ActionStatus::Degraded(reason.clone()),
        _ if result.degraded => ActionStatus::Degraded("partial results".to_string()),
        _ => ActionStatus::Ok,
    }
}

/// A recommendation pass streaming its results.
///
/// This is the ASYNC optimization as the user experiences it (paper §8.2):
/// "recommendation results can be streamed into the frontend widget as the
/// computation for each action completes ... instead of incurring a high
/// wait time". Results arrive in completion order; once every action has
/// settled (or the hard cutoff abandoned it) the collector hands over the
/// health ledger in dispatch order. Dropping the handle detaches
/// everything cleanly.
pub struct StreamingRun {
    results: mpsc::Receiver<ActionResult>,
    ledger: mpsc::Receiver<Vec<ActionHealth>>,
    expected: usize,
}

impl StreamingRun {
    /// Receive the next completed action (blocks). `None` once all done.
    pub fn next_result(&self) -> Option<ActionResult> {
        self.results.recv().ok()
    }

    /// How many actions were dispatched (disabled actions are not).
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Drain everything (blocks until every action settles or the hard
    /// cutoff abandons it) and return results plus the health ledger.
    /// Results are ordered cheapest first; equal estimates keep dispatch
    /// order, so the tab order never depends on completion order.
    pub fn collect_report(self) -> RunReport {
        let mut results: Vec<ActionResult> = self.results.iter().collect();
        let health = self.ledger.recv().unwrap_or_default();
        let dispatched = |r: &ActionResult| health.iter().position(|h| h.action == r.action);
        results.sort_by(|a, b| {
            lux_engine::cmp_cost_asc(a.estimated_cost, b.estimated_cost)
                .then_with(|| dispatched(a).cmp(&dispatched(b)))
        });
        RunReport { results, health }
    }

    /// Drain every remaining result (blocks until all actions settle).
    pub fn collect_all(self) -> Vec<ActionResult> {
        self.collect_report().results
    }

    /// A run that was refused admission: no actions dispatched, and a
    /// single health entry carrying the shed reason so report consumers
    /// see *why* nothing ran instead of an empty report that looks like
    /// success.
    pub fn shed(reason: &str) -> StreamingRun {
        let (_, results) = mpsc::channel();
        let (ledger_tx, ledger) = mpsc::channel();
        let _ = ledger_tx.send(vec![ActionHealth::new(
            "recommendations",
            ActionStatus::Failed(format!("shed by admission control: {reason}")),
        )]);
        StreamingRun {
            results,
            ledger,
            expected: 0,
        }
    }
}

type Outcome = std::result::Result<Option<ActionResult>, ActionError>;

/// One dispatched action as the collector tracks it.
struct Dispatched {
    name: String,
    span: Option<SpanId>,
    events: EventSink,
    settled: bool,
    /// Ledger entry once settled; empty actions have none.
    health: Option<ActionHealth>,
}

/// The pass's single settle point: breaker bookkeeping, always-on metrics,
/// closing span tags, result streaming, and the dispatch-ordered ledger and
/// governor replay. It owns the breaker so health stays correct even when
/// the consumer drops the [`StreamingRun`] without draining it.
struct Collector {
    ctx: Arc<PassCtx>,
    breaker: Arc<CircuitBreaker>,
    dispatched: Vec<Dispatched>,
    /// Disabled entries first; settled actions append in dispatch order.
    ledger: Vec<ActionHealth>,
    results: mpsc::Sender<ActionResult>,
    ledger_tx: mpsc::Sender<Vec<ActionHealth>>,
}

impl Collector {
    /// Queue `action` at the next dispatch index: open its span and its
    /// event sink.
    fn dispatch(&mut self, action: &dyn Action) -> (Option<TraceCtx>, EventSink) {
        let order = self.dispatched.len();
        let trace = self.ctx.trace.as_ref().map(|t| {
            let id = t
                .collector
                .begin(Some(t.span), format!("action:{}", action.name()));
            t.collector.tag(id, "sched.order", order.to_string());
            TraceCtx::new(Arc::clone(&t.collector), id)
        });
        let events = event_sink();
        self.dispatched.push(Dispatched {
            name: action.name().to_string(),
            span: trace.as_ref().map(|t| t.span),
            events: Arc::clone(&events),
            settled: false,
            health: None,
        });
        (trace, events)
    }

    /// Fold one action's outcome: breaker, metrics, span, and (for a
    /// delivered result) the stream.
    fn settle(&mut self, index: usize, outcome: Outcome) {
        let d = &mut self.dispatched[index];
        let tripped = match &outcome {
            // Degraded still counts as delivery for the breaker: the action
            // is healthy, the budget was just too tight for exact results.
            Ok(_) => {
                self.breaker.record_success(&d.name);
                false
            }
            Err(err) => self.breaker.record_failure(
                &d.name,
                &err.to_string(),
                self.ctx.config.breaker_threshold,
            ),
        };
        let metrics = MetricsRegistry::global();
        let span = self
            .ctx
            .trace
            .as_ref()
            .and_then(|t| d.span.map(|id| (t.collector.as_ref(), id)));
        d.settled = true;
        d.health = match outcome {
            Ok(Some(result)) => {
                metrics.incr(if result.degraded {
                    metric::ACTIONS_DEGRADED
                } else {
                    metric::ACTIONS_OK
                });
                metrics.observe(
                    metric::ACTION_LATENCY,
                    Duration::from_secs_f64(result.elapsed),
                );
                if let Some((collector, id)) = span {
                    collector.tag(
                        id,
                        "status",
                        if result.degraded { "degraded" } else { "ok" },
                    );
                    collector.tag(id, "cost.actual_ms", format!("{:.2}", result.elapsed * 1e3));
                    if let Some(reason) = &result.degraded_reason {
                        collector.tag(id, "degraded.reason", reason.clone());
                    }
                    collector.end(id);
                }
                let health = ActionHealth::new(&d.name, delivery_status(&result));
                let _ = self.results.send(result);
                Some(health)
            }
            // No candidates: not a fault, and not a visible tab either —
            // no health entry.
            Ok(None) => {
                metrics.incr(metric::ACTIONS_OK);
                if let Some((collector, id)) = span {
                    collector.tag(id, "status", "empty");
                    collector.end(id);
                }
                None
            }
            Err(err) => {
                metrics.incr(metric::ACTIONS_FAILED);
                if tripped {
                    metrics.incr(metric::BREAKER_TRIPS);
                }
                if let Some((collector, id)) = span {
                    collector.tag(id, "status", "failed");
                    collector.tag(id, "error", err.to_string());
                    collector.end(id);
                }
                Some(ActionHealth::new(
                    &d.name,
                    ActionStatus::Failed(err.to_string()),
                ))
            }
        };
    }

    /// Close the pass: abandon whatever is still outstanding, replay the
    /// settled actions' governor events and emit the ledger — both in
    /// dispatch order, so neither depends on completion order — then
    /// release the pass context (governor, admission slot) before handing
    /// the ledger over.
    fn finish(mut self, hard_budget: Option<Duration>) {
        let metrics = MetricsRegistry::global();
        let reason = match hard_budget {
            Some(b) => format!("exceeded hard deadline ({b:?}); worker abandoned"),
            None => "worker terminated without reporting".to_string(),
        };
        for d in self.dispatched.iter_mut().filter(|d| !d.settled) {
            let tripped =
                self.breaker
                    .record_failure(&d.name, &reason, self.ctx.config.breaker_threshold);
            metrics.incr(metric::ACTIONS_FAILED);
            if tripped {
                metrics.incr(metric::BREAKER_TRIPS);
            }
            if let (Some(t), Some(id)) = (&self.ctx.trace, d.span) {
                t.collector.tag(id, "status", "abandoned");
                t.collector.tag(id, "error", reason.clone());
                t.collector.end(id);
            }
            d.health = Some(ActionHealth::new(
                &d.name,
                ActionStatus::Failed(reason.clone()),
            ));
        }
        let Collector {
            ctx,
            dispatched,
            mut ledger,
            results,
            ledger_tx,
            ..
        } = self;
        for d in dispatched {
            if let (Some(g), true) = (&ctx.governor, d.settled) {
                g.absorb(drain_sink(&d.events));
            }
            ledger.extend(d.health);
        }
        drop(ctx);
        drop(results);
        let _ = ledger_tx.send(ledger);
    }
}

/// Run one recommendation pass: every applicable action the circuit
/// breaker admits, each through [`execute_action`], all settled by one
/// collector.
///
/// The breaker gate runs on the caller. Dispatch is the only fork: with
/// `config.async` each action is a detached-lane pool task and the call
/// returns immediately; a collector thread streams results as they
/// complete and enforces the hard cutoff at `action_budget ×
/// CostModel::HARD_CUTOFF_FACTOR` — actions still running then are
/// abandoned, reported as failed, and charged to their breaker. Otherwise
/// every action runs inline on the caller in registry order, under
/// cooperative deadlines only, and the run is complete on return.
pub fn run_pass(registry: &ActionRegistry, ctx: PassCtx) -> StreamingRun {
    let breaker = Arc::clone(registry.breaker());
    breaker.begin_frame();
    let ctx = Arc::new(ctx);
    let (results_tx, results) = mpsc::channel();
    let (ledger_tx, ledger) = mpsc::channel();
    let mut collector = Collector {
        ctx: Arc::clone(&ctx),
        breaker,
        dispatched: Vec::new(),
        ledger: Vec::new(),
        results: results_tx,
        ledger_tx,
    };

    // Applicability checks and the breaker gate are metadata-only (no user
    // compute) and must see the registry borrow.
    let mut runnable: Vec<Arc<dyn Action>> = Vec::new();
    for action in registry.applicable(&ctx.action_context()) {
        match collector
            .breaker
            .decision(action.name(), ctx.config.breaker_cooldown)
        {
            BreakerDecision::Skip(reason) => {
                MetricsRegistry::global().incr(metric::ACTIONS_DISABLED);
                if let Some(t) = &ctx.trace {
                    let id = t
                        .collector
                        .begin(Some(t.span), format!("action:{}", action.name()));
                    t.collector.tag(id, "status", "disabled");
                    t.collector.end(id);
                }
                collector.ledger.push(ActionHealth::new(
                    action.name(),
                    ActionStatus::Disabled(reason),
                ));
            }
            BreakerDecision::Run | BreakerDecision::Probe => runnable.push(action),
        }
    }
    let expected = runnable.len();

    if ctx.config.r#async {
        let (worker_tx, worker_rx) = mpsc::channel::<(usize, Outcome)>();
        for (index, action) in runnable.into_iter().enumerate() {
            let (trace, events) = collector.dispatch(action.as_ref());
            let ctx = Arc::clone(&ctx);
            let worker_tx = worker_tx.clone();
            // Detached-lane pool task rather than a dedicated thread: cheap
            // actions reuse warm threads instead of paying a spawn each,
            // while a task abandoned at the hard cutoff only parks its own
            // lane thread — it can never occupy the fixed work-stealing
            // workers that run the per-vis fan-out inside healthy actions.
            lux_engine::pool::global().spawn_detached(Box::new(move || {
                let outcome = execute_action(action.as_ref(), &ctx, trace.as_ref(), &events);
                // Release this task's context — and with it its governor/
                // ledger handle — *before* signaling completion, so the
                // caller's budget drop is the last one and the global
                // ledger reflects the pass's exit synchronously.
                drop(action);
                drop(ctx);
                let _ = worker_tx.send((index, outcome));
            }));
        }
        drop(worker_tx);
        let hard_budget = ctx
            .config
            .action_budget
            .map(|base| base * CostModel::HARD_CUTOFF_FACTOR);
        std::thread::spawn(move || {
            let cutoff = hard_budget.map(|b| clock::now() + b);
            for _ in 0..expected {
                let received = match cutoff {
                    Some(at) => at
                        .checked_duration_since(clock::now())
                        .filter(|d| !d.is_zero())
                        .and_then(|left| worker_rx.recv_timeout(left).ok()),
                    None => worker_rx.recv().ok(),
                };
                // Cutoff reached, or a worker died without reporting (should
                // be unreachable: all action code is isolated).
                let Some((index, outcome)) = received else {
                    break;
                };
                collector.settle(index, outcome);
            }
            collector.finish(hard_budget);
        });
    } else {
        for (index, action) in runnable.into_iter().enumerate() {
            let (trace, events) = collector.dispatch(action.as_ref());
            let outcome = execute_action(action.as_ref(), &ctx, trace.as_ref(), &events);
            collector.settle(index, outcome);
        }
        collector.finish(None);
    }
    StreamingRun {
        results,
        ledger,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionClass;
    use crate::fault::{ChaosAction, ChaosMode};
    use crate::metadata_actions::Correlation;
    use std::collections::HashMap;
    use std::time::Duration;

    fn frame(rows: usize) -> DataFrame {
        DataFrameBuilder::new()
            .float("a", (0..rows).map(|i| i as f64))
            .float("b", (0..rows).map(|i| (i * 2) as f64))
            .float("c", (0..rows).map(|i| ((i * 7919) % 100) as f64))
            .str(
                "dept",
                (0..rows).map(|i| if i % 2 == 0 { "S" } else { "E" }),
            )
            .build()
            .expect("fixture frame")
    }

    fn pass_ctx(df: DataFrame, config: LuxConfig) -> PassCtx {
        let meta = FrameMeta::compute(&df, &HashMap::new());
        PassCtx {
            df: Arc::new(df),
            meta: Arc::new(meta),
            intent: Arc::new(vec![]),
            intent_specs: Arc::new(vec![]),
            config: Arc::new(config),
            sample: None,
            trace: None,
            governor: None,
            permit: None,
        }
    }

    fn correlation(ctx: &PassCtx) -> ActionResult {
        execute_action(&Correlation, ctx, None, &event_sink())
            .expect("healthy action")
            .expect("candidates")
    }

    #[test]
    fn execute_correlation_ranks_by_r() {
        let r = correlation(&pass_ctx(frame(100), LuxConfig::default()));
        assert_eq!(r.action, "Correlation");
        // a-b are perfectly correlated; that pair must rank first.
        let top = &r.vislist.visualizations[0];
        let attrs = top.spec.attributes();
        assert!(attrs.contains(&"a") && attrs.contains(&"b"));
        assert!((top.score - 1.0).abs() < 1e-9);
        assert!(top.data.is_some());
        assert!(!r.degraded);
    }

    #[test]
    fn run_pass_returns_all_classes_on_plain_frame() {
        let registry = ActionRegistry::with_defaults();
        let results = run_pass(&registry, pass_ctx(frame(60), LuxConfig::default())).collect_all();
        let names: Vec<&str> = results.iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Correlation"));
        assert!(names.contains(&"Distribution"));
        assert!(names.contains(&"Occurrence"));
        // plain frame: no history/structure/intent actions fire
        assert!(results.iter().all(|r| r.class == ActionClass::Metadata));
    }

    #[test]
    fn async_and_sync_agree_on_content() {
        // Inline dispatch (async off) and detached dispatch (async on) must
        // serve the same tabs in the same order with the same specs.
        let registry = ActionRegistry::with_defaults();
        let run = |r#async: bool| {
            let config = LuxConfig {
                r#async,
                ..LuxConfig::default()
            };
            run_pass(&registry, pass_ctx(frame(80), config)).collect_all()
        };
        let sync = run(false);
        let asynced = run(true);
        let names = |rs: &[ActionResult]| rs.iter().map(|r| r.action.clone()).collect::<Vec<_>>();
        assert_eq!(names(&sync), names(&asynced));
        for (a, b) in sync.iter().zip(&asynced) {
            assert_eq!(a.vislist.len(), b.vislist.len());
            for (va, vb) in a.vislist.iter().zip(b.vislist.iter()) {
                assert_eq!(va.spec, vb.spec);
            }
        }
    }

    #[test]
    fn streaming_delivers_each_action_as_it_settles() {
        let registry = ActionRegistry::with_defaults();
        let run = run_pass(&registry, pass_ctx(frame(50), LuxConfig::default()));
        let mut seen = 0usize;
        while run.next_result().is_some() {
            seen += 1;
        }
        let report = run.collect_report();
        let delivered = report
            .health
            .iter()
            .filter(|h| matches!(h.status, ActionStatus::Ok | ActionStatus::Degraded(_)))
            .count();
        assert_eq!(seen, delivered);
        assert!(seen >= 3);
    }

    #[test]
    fn top_k_truncation() {
        let config = LuxConfig {
            top_k: 2,
            ..LuxConfig::default()
        };
        let r = correlation(&pass_ctx(frame(30), config));
        assert!(r.vislist.len() <= 2);
    }

    #[test]
    fn prune_with_sample_keeps_top_pair() {
        let config = LuxConfig {
            prune: true,
            top_k: 1,
            ..LuxConfig::default()
        };
        let df = frame(2000);
        let sample = df.sample(100, 7);
        let mut ctx = pass_ctx(df, config);
        ctx.sample = Some(Arc::new(sample));
        let r = correlation(&ctx);
        let attrs = r.vislist.visualizations[0].spec.attributes();
        assert!(attrs.contains(&"a") && attrs.contains(&"b"));
        // final scores are exact (recomputed), so the perfect pair scores 1
        assert!((r.vislist.visualizations[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn panicking_action_becomes_failed_health_not_a_crash() {
        let mut registry = ActionRegistry::with_defaults();
        registry.register(ChaosAction::new("Saboteur", ChaosMode::Panic));
        let report =
            run_pass(&registry, pass_ctx(frame(40), LuxConfig::default())).collect_report();
        assert!(report.results.iter().all(|r| r.action != "Saboteur"));
        assert!(report.results.iter().any(|r| r.action == "Correlation"));
        match report.status_of("Saboteur") {
            Some(ActionStatus::Failed(reason)) => {
                assert!(reason.contains("panicked"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // healthy actions report Ok
        assert!(matches!(
            report.status_of("Correlation"),
            Some(ActionStatus::Ok)
        ));
    }

    #[test]
    fn erroring_action_health_carries_generation_error() {
        let mut registry = ActionRegistry::new();
        registry.register(ChaosAction::new("Erratic", ChaosMode::Error));
        let report =
            run_pass(&registry, pass_ctx(frame(40), LuxConfig::default())).collect_report();
        assert!(report.results.is_empty());
        let status = report.status_of("Erratic").expect("health entry");
        assert_eq!(status.name(), "failed");
        assert!(status
            .reason()
            .is_some_and(|r| r.contains("generation failed")));
    }

    #[test]
    fn slow_action_times_out_degraded_with_partial_results() {
        let config = LuxConfig {
            action_budget: Some(Duration::from_millis(30)),
            r#async: false,
            ..LuxConfig::default()
        };
        let mut registry = ActionRegistry::new();
        registry.register(ChaosAction::new(
            "Molasses",
            ChaosMode::SlowScore {
                per_score: Duration::from_millis(10),
                candidates: 200,
            },
        ));
        let report = run_pass(&registry, pass_ctx(frame(40), config)).collect_report();
        let r = report
            .results
            .iter()
            .find(|r| r.action == "Molasses")
            .expect("partial results");
        assert!(r.degraded);
        assert!(r
            .degraded_reason
            .as_deref()
            .is_some_and(|r| r.contains("budget")));
        assert!(matches!(
            report.status_of("Molasses"),
            Some(ActionStatus::Degraded(_))
        ));
    }

    #[test]
    fn breaker_disables_repeat_offender_then_reprobes() {
        let config = LuxConfig {
            breaker_threshold: 2,
            breaker_cooldown: 2,
            r#async: false,
            ..LuxConfig::default()
        };
        let ctx = pass_ctx(frame(20), config);
        let mut registry = ActionRegistry::new();
        // fails twice (tripping the breaker), then recovers
        registry.register(ChaosAction::scripted(
            "Flaky",
            vec![ChaosMode::Panic, ChaosMode::Panic, ChaosMode::Healthy],
        ));
        let status = |report: &RunReport| {
            report
                .status_of("Flaky")
                .map(|s| s.name())
                .expect("Flaky always has a health entry")
        };
        // frames 1-2: failures
        for _ in 0..2 {
            let report = run_pass(&registry, ctx.clone()).collect_report();
            assert_eq!(status(&report), "failed");
        }
        // frame 3: breaker open -> disabled without running
        let report = run_pass(&registry, ctx.clone()).collect_report();
        assert_eq!(status(&report), "disabled");
        // frame 4: cooldown elapsed -> half-open probe runs and succeeds
        let report = run_pass(&registry, ctx).collect_report();
        assert_eq!(status(&report), "ok");
        assert!(report.results.iter().any(|r| r.action == "Flaky"));
    }

    #[test]
    fn streaming_delivers_all_actions() {
        let df = DataFrameBuilder::new()
            .float("a", (0..200).map(|i| i as f64))
            .float("b", (0..200).map(|i| (i * 3 % 17) as f64))
            .str("g", (0..200).map(|i| if i % 2 == 0 { "x" } else { "y" }))
            .build()
            .expect("frame");
        let registry = ActionRegistry::with_defaults();
        let run = run_pass(&registry, pass_ctx(df, LuxConfig::default()));
        let expected = run.expected();
        assert!(expected >= 3);
        let report = run.collect_report();
        assert_eq!(report.results.len(), expected);
        assert!(report.health.iter().all(|h| h.status.is_ok()));
        // ordered by estimated cost after collect
        for w in report.results.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
    }

    #[test]
    fn dropping_run_detaches_cleanly() {
        let df = DataFrameBuilder::new()
            .float("a", (0..50).map(|i| i as f64))
            .build()
            .expect("frame");
        let registry = ActionRegistry::with_defaults();
        let run = run_pass(&registry, pass_ctx(df, LuxConfig::default()));
        let _first = run.next_result();
        drop(run); // workers keep running; their sends fail silently
    }

    #[test]
    fn hung_action_is_abandoned_at_hard_cutoff() {
        let df = DataFrameBuilder::new()
            .float("a", (0..50).map(|i| i as f64))
            .build()
            .expect("frame");
        let config = LuxConfig {
            action_budget: Some(Duration::from_millis(40)),
            ..LuxConfig::default()
        };
        let mut registry = ActionRegistry::with_defaults();
        registry.register(ChaosAction::new(
            "Sleeper",
            ChaosMode::Hang(Duration::from_secs(30)),
        ));
        let start = clock::now();
        let report = run_pass(&registry, pass_ctx(df, config)).collect_report();
        // returned in ~hard-cutoff time, not the 30 s hang
        assert!(clock::elapsed(start) < Duration::from_secs(5));
        assert!(report.results.iter().all(|r| r.action != "Sleeper"));
        assert!(report.results.iter().any(|r| r.action == "Distribution"));
        let status = report
            .status_of("Sleeper")
            .expect("health entry for hung action");
        assert_eq!(status.name(), "failed");
        assert!(status.reason().is_some_and(|r| r.contains("hard deadline")));
    }
}
