//! The print path decomposed into the public calls of each layer, as the
//! traced phases run it. The untraced phases call `LuxDataFrame::print`
//! alone.

use lux_core::{LuxDataFrame, Widget, WireWidget};

use crate::record::{Boundary, Counters, Record};
use crate::trace::Tracer;

/// Charts per tab in every rendered or flattened view.
pub const PER_TAB: usize = 2;

/// `metadata → compiled_intent → recommendations → print`, each a child
/// span of the innermost open span. The memo outcome is read around the
/// first metadata and recommendation calls only: the calls after them
/// re-read the memo by design.
pub fn decomposed_print(t: &mut Tracer, ldf: &LuxDataFrame, b: &mut Boundary) -> Widget {
    let c0 = Counters::read();
    t.span("engine.metadata", || ldf.metadata());
    let meta = Counters::read().since(&c0);
    t.span("intent.compile", || ldf.compiled_intent());
    let c2 = Counters::read();
    t.span("recs.pass", || ldf.recommendations());
    let recs = Counters::read().since(&c2);
    let w = t.span("core.print", || ldf.print());
    b.meta_hit += meta.meta_memo_hit;
    b.meta_miss += meta.meta_memo_miss;
    b.recs_hit += recs.memo_hit;
    b.recs_miss += recs.memo_miss;
    w
}

/// The widget export layers, off the blocking path of an in-process
/// print: Vega-Lite re-invoked on the widget, the wire flatten (which
/// embeds that export) and the wire encode. Each is a root span of its
/// own under the request id `rid`.
pub fn export_layers(t: &mut Tracer, rid: u64, w: &Widget, rec: &mut Record) {
    let idx = t.request(rid, "core.vega_lite");
    std::hint::black_box(w.to_vega_lite());
    t.end(idx);
    let idx = t.request(rid, "core.wire_flatten");
    let ww = WireWidget::from_widget(w, PER_TAB);
    t.end(idx);
    let idx = t.request(rid, "core.wire_encode");
    let bytes = ww.encode();
    t.end(idx);
    rec.wire_bytes.push(bytes.len() as f64);
}
