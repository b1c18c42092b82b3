//! The benchmark's own host-time spans.
//!
//! Spans are recorded only in the traced pass, around the benchmark's
//! calls into each crate's public functions. Each carries a `layer.call`
//! name, its start and end on the host clock, and its parent. They are
//! kept in memory and written out once, when the benchmark ends.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span; `SpanId::ROOT` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One finished span, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// 1-based id.
    pub id: u64,
    /// Parent id, 0 for a top-level span.
    pub parent: u64,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

/// A span recorder, cheap to clone into sweep cells. The disabled
/// recorder runs the timed closure and records nothing.
#[derive(Clone)]
pub struct Spans {
    inner: Option<Arc<Inner>>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { inner: None }
    }

    /// A recording recorder whose epoch is now.
    pub fn on() -> Spans {
        Spans {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next: AtomicU64::new(1),
                done: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own spans.
    pub fn time<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let Some(inner) = &self.inner else {
            return f(SpanId::ROOT);
        };
        let id = inner.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let out = f(SpanId(id));
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner
            .done
            .lock()
            .expect("span list poisoned")
            .push(SpanRec {
                id,
                parent: parent.0,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Nanoseconds since the epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// Every finished span, sorted by id.
    pub fn finished(&self) -> Vec<SpanRec> {
        let mut v = self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.done.lock().expect("span list poisoned").clone()
        });
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span, in ns, index-aligned with `spans`.
///
/// A span's self time is its duration minus the union of its children's
/// intervals. Where concurrent spans overlap (sweep cells on worker
/// threads), each instant is split evenly among the innermost spans
/// active at it, so the self times of all spans sum to the union of all
/// span intervals: nothing is counted twice, nothing is dropped.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // (time, 0 = end / 1 = start, span index): ends sort before starts
    // at equal times so touching spans never count as overlapping.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, 1, i));
        events.push((s.end_ns.max(s.start_ns), 0, i));
    }
    events.sort_unstable();

    let mut out = vec![0.0; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut active_children = vec![0u32; spans.len()];
    let mut counted_parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, kind, i) in events {
        if t > prev {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| active_children[a] == 0)
                .collect();
            let share = (t - prev) as f64 / leaves.len().max(1) as f64;
            for a in leaves {
                out[a] += share;
            }
            prev = t;
        }
        if kind == 1 {
            if let Some(&p) = index.get(&spans[i].parent) {
                if active.contains(&p) {
                    active_children[p] += 1;
                    counted_parent[i] = Some(p);
                }
            }
            active.push(i);
        } else {
            active.retain(|&a| a != i);
            if let Some(p) = counted_parent[i] {
                active_children[p] -= 1;
            }
        }
    }
    out
}

/// Self time per layer in ns, plus the union of all spans.
pub fn self_by_layer(spans: &[SpanRec]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut covered = 0.0;
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer()).or_default() += t;
        covered += t;
    }
    (by_layer, covered)
}

/// Renders the spans with their self times as a JSON array.
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (k, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {:.0}}}{}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            t,
            if k + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x.y",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap, 60..70 apart.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 30),
            rec(3, 1, 20, 50),
            rec(4, 1, 60, 70),
        ];
        let t = self_times(&spans);
        // Union of children = 20..50 + 10..20 + 60..70 = 50.
        assert_eq!(t[0], 50.0);
        // The overlap 20..30 is split evenly between the two children.
        assert_eq!(t[1], 15.0);
        assert_eq!(t[2], 25.0);
        assert_eq!(t[3], 10.0);
        assert_eq!(t.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn nested_self_times_partition_the_covered_time() {
        // Two top-level spans with a gap, one of them with a grandchild.
        let spans = vec![
            rec(1, 0, 0, 40),
            rec(2, 1, 5, 35),
            rec(3, 2, 10, 20),
            rec(4, 0, 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![10.0, 20.0, 10.0, 10.0]);
        let (by_layer, covered) = self_by_layer(&spans);
        assert_eq!(covered, 50.0);
        assert_eq!(by_layer["x"], 50.0);
    }

    #[test]
    fn touching_spans_do_not_overlap() {
        let spans = vec![rec(1, 0, 0, 10), rec(2, 0, 10, 20)];
        assert_eq!(self_times(&spans), vec![10.0, 10.0]);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let spans = Spans::on();
        spans.time("bench.outer", SpanId::ROOT, |outer| {
            spans.time("core.inner", outer, |_| ());
        });
        let done = spans.finished();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].name, "bench.outer");
        assert_eq!(done[1].parent, done[0].id);
        assert_eq!(done[1].layer(), "core");
        assert!(Spans::off().finished().is_empty());
    }
}
