//! Counts of modelled work, taken from the program's own `TraceData`
//! in the traced pass.

use faaspipe_trace::{critical_path, Category, TraceData, Value};

use crate::spans::{SpanId, Spans};

/// Modelled work summed over the traced simulations of a pass.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Traced simulations.
    pub sims: u64,
    /// Pipeline runs inside them.
    pub runs: u64,
    /// Trace spans recorded.
    pub spans: u64,
    /// Modelled network flows.
    pub flows: u64,
    /// Object-store requests, and those that failed.
    pub store_requests: u64,
    /// Object-store requests marked failed.
    pub store_failed: u64,
    /// Function invocations.
    pub invocations: u64,
    /// Cold and warm container starts.
    pub cold_starts: u64,
    /// Warm container pickups.
    pub warm_starts: u64,
    /// Virtual seconds invocations waited for platform capacity.
    pub queue_s: f64,
    /// Virtual seconds of VM tasks.
    pub vm_task_s: f64,
    /// Critical-path buckets summed over sims: compute, store I/O, cold
    /// start, queueing, other (virtual seconds).
    pub crit_s: [f64; 5],
}

impl Tally {
    /// Adds one traced simulation holding `runs` pipeline runs.
    pub fn add(&mut self, spans: &Spans, parent: SpanId, trace: &TraceData, runs: u64) {
        self.sims += 1;
        self.runs += runs;
        self.spans += trace.spans.len() as u64;
        let secs = |s: &faaspipe_trace::Span| s.duration().map_or(0.0, |d| d.as_secs_f64());
        for s in &trace.spans {
            match s.category {
                Category::Flow => self.flows += 1,
                Category::StoreRequest => {
                    self.store_requests += 1;
                    let failed = s
                        .attrs
                        .iter()
                        .any(|(k, v)| k == "failed" && *v == Value::Bool(true));
                    self.store_failed += u64::from(failed);
                }
                Category::Invocation => self.invocations += 1,
                Category::ColdStart => self.cold_starts += 1,
                Category::WarmStart => self.warm_starts += 1,
                Category::Queue => self.queue_s += secs(s),
                Category::VmTask => self.vm_task_s += secs(s),
                _ => {}
            }
        }
        if let Some(b) = spans.time("trace.critical_path", parent, |_| critical_path(trace)) {
            let buckets = [b.compute, b.store_io, b.cold_start, b.queueing, b.other];
            for (acc, d) in self.crit_s.iter_mut().zip(buckets) {
                *acc += d.as_secs_f64();
            }
        }
    }

    /// `x` per pipeline run (0 without runs).
    pub fn per_run(&self, x: f64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            x / self.runs as f64
        }
    }

    /// `x` per traced simulation (0 without sims).
    pub fn per_sim(&self, x: f64) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            x / self.sims as f64
        }
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
