//! The benchmark's own span recorder (traced runs only) and the self-time
//! accounting that turns a span log into a per-layer wall-clock split.
//!
//! Spans wrap the public library calls the benchmark makes; the library's
//! own telemetry stays off. Each span records its name, start, end, parent
//! span and op id. Spans live in memory until the run ends.
//!
//! **Self time** is wall-clock attribution: at every instant, the time is
//! shared equally among the active spans that have no active child (on any
//! thread). A parent waiting on children gets nothing while they run, and
//! two concurrent leaves each get half. The shares therefore partition the
//! root span's duration exactly, whatever the threading, so the per-layer
//! self times sum to the traced wall time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Dotted name; the text before the first `.` is the span's layer.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`None` while open).
    pub end_ns: Option<u64>,
    /// Index of the parent span, `None` for the root.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 for the harness's own spans).
    pub op: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in ns (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// Thread-safe in-memory span log. A disabled recorder records nothing, so
/// the untraced runs pay one branch per call site.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Open-span guard; closes the span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: Option<usize>,
}

impl Guard<'_> {
    /// The span's id, to pass as the parent of spans opened on other
    /// threads. `None` when tracing is off.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.rec.now_ns();
            self.rec.spans.lock().expect("span log")[id].end_ns = Some(now);
        }
    }
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn span(&self, name: impl Into<String>, parent: Option<usize>, op: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log");
        spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: None,
            parent,
            op,
        });
        Guard {
            rec: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Takes the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log"))
    }
}

/// Wall-clock self time per span, in ns (see the module docs). Spans that
/// never closed are ignored.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    // (time, is_start, span); ends sort before starts at equal times so
    // zero-length gaps never count a span that has already finished.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if let Some(end) = s.end_ns {
            events.push((s.start_ns, true, i));
            events.push((end.max(s.start_ns), false, i));
        }
    }
    events.sort_by_key(|&(t, start, i)| (t, start, i));
    let mut out = vec![0.0; spans.len()];
    let mut active_children = vec![0usize; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, is_start, i) in events {
        if t > last {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| active_children[a] == 0)
                .collect();
            let share = (t - last) as f64 / leaves.len().max(1) as f64;
            for a in leaves {
                out[a] += share;
            }
            last = t;
        }
        let parent = spans[i].parent.filter(|&p| p < spans.len());
        if is_start {
            active.push(i);
            if let Some(p) = parent {
                active_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != i);
            if let Some(p) = parent {
                active_children[p] = active_children[p].saturating_sub(1);
            }
        }
    }
    out
}

/// Whether span `i` lies in the tree rooted at `root`.
fn in_tree(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) if p < spans.len() && p != i => i = p,
            _ => return false,
        }
    }
}

/// Self time summed by layer over the tree rooted at span `root`, in
/// seconds. These partition the root's duration.
pub fn layer_self_seconds(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (i, ns) in self_times(spans).into_iter().enumerate() {
        if in_tree(spans, i, root) {
            *out.entry(spans[i].layer().to_string()).or_insert(0.0) += ns / 1e9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: Some(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // root 0..100 { a 10..40 { b 20..30 }, c 50..90 }
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("core.a", 10, 40, Some(0)),
            span("sat.b", 20, 30, Some(1)),
            span("verify.c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        let layers = layer_self_seconds(&spans, 0);
        let total: f64 = layers.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{layers:?}");
        assert!((layers["verify"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_outside_the_root_tree_are_not_counted() {
        // A second root after the first (e.g. an untimed probe).
        let spans = vec![
            span("bench.root", 0, 10, None),
            span("core.a", 2, 6, Some(0)),
            span("bench.probe", 20, 30, None),
            span("chisel.b", 21, 29, Some(2)),
        ];
        let layers = layer_self_seconds(&spans, 0);
        assert_eq!(layers.len(), 2, "{layers:?}");
        assert!((layers.values().sum::<f64>() - 10e-9).abs() < 1e-15);
        assert!(!layers.contains_key("chisel"));
    }

    #[test]
    fn concurrent_children_split_the_wall_clock() {
        // Two client threads under one root; the root waits from 10 to 90.
        // 10..30 only x runs, 30..60 both, 60..90 only y.
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("serve.x", 10, 60, Some(0)),
            span("serve.y", 30, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![20.0, 35.0, 45.0]);
        assert_eq!(st.iter().sum::<f64>(), 100.0, "shares partition the root");
    }

    #[test]
    fn open_spans_are_ignored_and_layers_come_from_names() {
        let mut spans = vec![
            span("bench.root", 0, 10, None),
            span("lowlevel.p", 2, 4, Some(0)),
        ];
        spans.push(Span {
            name: "sat.open".into(),
            start_ns: 3,
            end_ns: None,
            parent: Some(0),
            op: 1,
        });
        assert_eq!(self_times(&spans), vec![8.0, 2.0, 0.0]);
        assert_eq!(spans[1].layer(), "lowlevel");
    }

    #[test]
    fn recorder_links_parents_and_closes_on_drop() {
        let rec = Recorder::new(true);
        {
            let root = rec.span("bench.root", None, 0);
            let _child = rec.span("core.transform", root.id(), 7);
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans.iter().all(|s| s.end_ns.is_some()));
        let off = Recorder::new(false);
        assert_eq!(off.span("x.y", None, 0).id(), None);
        assert!(off.take().is_empty());
    }
}
