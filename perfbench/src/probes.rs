//! Per-layer probes: host time of the benchmark calling one crate's
//! public functions on inputs shaped like the workload's (same seed,
//! record count and W). Every probe checks its own outputs.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::Bytes;
use faaspipe_core::pipeline::PipelineConfig;
use faaspipe_des::events::{EventQueue, Wake};
use faaspipe_des::flow::FlowNet;
use faaspipe_des::{Bandwidth, ByteSize, FlowSpec, SimTime};
use faaspipe_methcomp::codec as mc_codec;
use faaspipe_methcomp::synth::Synthesizer;
use faaspipe_methcomp::{Dataset, MethRecord};
use faaspipe_plan::Planner;
use faaspipe_shuffle::kernel::partition_sorted_run;
use faaspipe_shuffle::{sort_concat, streaming_merge, RangePartitioner, SortRecord};

use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::workloads::{default_params, plan_workload, splitmix64};

/// Splits `len` items into `parts` contiguous ranges whose sizes differ
/// by at most one (the first `len % parts` are one longer). Ranges are
/// empty where `parts > len`.
///
/// # Panics
/// Panics if `parts` is zero.
pub fn cut_even(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot cut into zero parts");
    let (base, extra) = (len / parts, len % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = start + base + usize::from(i < extra);
            let r = start..end;
            start = end;
            r
        })
        .collect()
}

/// Runs `rep` until it has run at least `MIN_REPS` times and for at
/// least `MIN_TOTAL`; returns the median ns per operation, where each
/// call of `rep` returns the operations it made.
fn ns_per_op(mut rep: impl FnMut() -> u64) -> f64 {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 10_000;
    const MIN_TOTAL: Duration = Duration::from_millis(30);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (start.elapsed() < MIN_TOTAL && samples.len() < MAX_REPS) {
        let t = Instant::now();
        let ops = rep().max(1);
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples).expect("at least one sample")
}

/// `EventQueue::schedule` + `pop` of `events` events at seeded times:
/// ns per schedule/pop pair.
pub fn event_queue(spans: &Spans, parent: SpanId, events: usize, seed: u64) -> f64 {
    let events = events.max(1);
    spans.time("des.event_queue", parent, |_| {
        ns_per_op(|| {
            let mut state = seed;
            let mut q = EventQueue::new();
            for i in 0..events {
                let t = SimTime::from_nanos(splitmix64(&mut state) % 1_000_000_000_000);
                black_box(q.schedule(t, Wake::Process(i as u32)));
            }
            let mut popped = 0u64;
            while let Some(e) = q.pop() {
                black_box(e);
                popped += 1;
            }
            assert_eq!(popped, events as u64, "every scheduled event pops once");
            popped
        })
    })
}

/// `FlowNet::start`/`tick`/`next_completion` with `w` flows of seeded
/// sizes sharing one link, run until every flow completed: ns per call.
pub fn flow_net(spans: &Spans, parent: SpanId, w: usize, seed: u64) -> Result<f64, String> {
    let mut stalled = None;
    let ns = spans.time("des.flow_net", parent, |_| {
        ns_per_op(|| {
            let mut state = seed;
            let mut net = FlowNet::new();
            let link = net.add_link(Bandwidth::gbit_per_sec(10.0));
            let mut ops = 0u64;
            for i in 0..w {
                let bytes = ByteSize::new(1_000_000 + splitmix64(&mut state) % 1_000_000);
                let spec = FlowSpec {
                    bytes,
                    links: vec![link],
                };
                black_box(net.start(SimTime::ZERO, spec, i as u32));
                ops += 1;
            }
            let mut now = SimTime::ZERO;
            let mut woken = Vec::new();
            let mut done = 0usize;
            while let Some(t) = net.next_completion(now) {
                now = t;
                net.tick(now, &mut woken);
                done += woken.len();
                ops += 2;
                if ops > 4 * w as u64 + 16 {
                    break;
                }
            }
            if done != w || net.active_flows() != 0 {
                stalled = Some(format!("{} of {} probe flows completed", done, w));
            }
            ops
        })
    });
    stalled.map_or(Ok(ns), Err)
}

/// The workload's dataset: `records` shuffled records from `seed`.
pub fn synth(spans: &Spans, parent: SpanId, seed: u64, records: usize) -> (Dataset, f64) {
    let t = Instant::now();
    let ds = spans.time("methcomp.synthesize", parent, |_| {
        Synthesizer::new(seed).generate_shuffled(records)
    });
    (ds, t.elapsed().as_secs_f64() * 1e3)
}

/// `SortRecord::write_all` then `read_all` over the dataset: ms.
pub fn wire(spans: &Spans, parent: SpanId, ds: &Dataset) -> Result<f64, String> {
    let t = Instant::now();
    let back = spans.time("shuffle.wire", parent, |_| {
        let bytes = SortRecord::write_all(&ds.records);
        MethRecord::read_all(&bytes)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match back {
        Ok(records) if records == ds.records => Ok(ms),
        Ok(_) => Err("wire round trip changed the records".into()),
        Err(e) => Err(format!("wire round trip failed: {}", e)),
    }
}

/// The shuffle kernels on `w` mapper chunks: each mapper sorts and
/// range-partitions its chunk (`partition_sorted_run`), each reducer
/// merges its partition's runs (`streaming_merge`), and the whole
/// dataset is sorted once more as the VM sort does (`sort_concat`).
/// Checks both sorted outputs agree. Returns ms.
pub fn kernels(spans: &Spans, parent: SpanId, ds: &Dataset, w: usize) -> Result<f64, String> {
    let chunks: Vec<Bytes> = cut_even(ds.records.len(), w)
        .into_iter()
        .map(|r| Bytes::from(SortRecord::write_all(&ds.records[r])))
        .collect();
    let stride = (ds.records.len() / 1024).max(1);
    let sample: Vec<_> = ds.records.iter().step_by(stride).map(|r| r.key()).collect();
    let part = RangePartitioner::from_sample(sample, w);
    let t = Instant::now();
    let (merged, whole) = spans.time("shuffle.kernels", parent, |_| {
        let mut per_part: Vec<Vec<Bytes>> = vec![Vec::new(); w];
        for chunk in &chunks {
            let (run, cuts) =
                partition_sorted_run::<MethRecord>(std::slice::from_ref(chunk), w, |k| {
                    part.part(k)
                })
                .map_err(|e| e.to_string())?;
            let run = Bytes::from(run);
            for (p, off, len) in cuts {
                per_part[p as usize].push(run.slice(off as usize..(off + len) as usize));
            }
        }
        let mut merged = Vec::new();
        for runs in &per_part {
            merged.extend(streaming_merge::<MethRecord>(runs).map_err(|e| e.to_string())?);
        }
        let whole = sort_concat::<MethRecord>(&chunks).map_err(|e| e.to_string())?;
        Ok::<_, String>((merged, whole))
    })?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if merged != whole {
        return Err("partitioned merge differs from the whole-dataset sort".into());
    }
    Ok(ms)
}

/// METHCOMP `compress` then `decompress` of the sorted dataset cut into
/// `w` chunks; checks the round trip. Returns (encode ms, decode ms).
pub fn codec(spans: &Spans, parent: SpanId, ds: &Dataset, w: usize) -> Result<(f64, f64), String> {
    let mut sorted = ds.clone();
    sorted.sort();
    let chunks: Vec<Dataset> = cut_even(sorted.records.len(), w)
        .into_iter()
        .map(|r| Dataset::new(sorted.records[r].to_vec()))
        .collect();
    let t = Instant::now();
    let archives: Vec<Vec<u8>> = spans.time("methcomp.compress", parent, |_| {
        chunks.iter().map(mc_codec::compress).collect()
    });
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let decoded = spans.time("methcomp.decompress", parent, |_| {
        archives
            .iter()
            .map(|a| mc_codec::decompress(a))
            .collect::<Result<Vec<Dataset>, _>>()
    });
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    match decoded {
        Ok(d) if d == chunks => Ok((encode_ms, decode_ms)),
        Ok(_) => Err("METHCOMP round trip changed the records".into()),
        Err(e) => Err(format!("METHCOMP decode failed: {}", e)),
    }
}

/// `Planner::plan` on the workload's sort stage with config-derived
/// parameters: (µs per call, pruned ÷ (evaluated + pruned)).
pub fn planner_search(spans: &Spans, parent: SpanId, cfg: &PipelineConfig) -> (f64, f64) {
    let planner = Planner::new(default_params(cfg));
    let wl = plan_workload(cfg);
    let plan = planner.plan(&wl);
    let ns = spans.time("plan.plan", parent, |_| {
        ns_per_op(|| {
            black_box(planner.plan(black_box(&wl)));
            1
        })
    });
    let considered = (plan.evaluated + plan.pruned).max(1);
    (ns / 1e3, plan.pruned as f64 / considered as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_even_covers_everything_in_balanced_ranges() {
        let r = cut_even(8_000, 1024);
        assert_eq!(r.len(), 1024);
        assert_eq!(r[0], 0..8);
        assert_eq!(r.last().unwrap().end, 8_000);
        assert!(r.windows(2).all(|p| p[0].end == p[1].start));
        let sizes: Vec<usize> = r.iter().map(|x| x.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8_000);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // 8000 = 1024 * 7 + 832: the first 832 ranges hold 8 records.
        assert_eq!(sizes.iter().filter(|&&s| s == 8).count(), 832);
    }

    #[test]
    fn cut_even_leaves_empty_ranges_when_parts_exceed_items() {
        let r = cut_even(3, 5);
        assert_eq!(r, vec![0..1, 1..2, 2..3, 3..3, 3..3]);
        assert_eq!(cut_even(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    fn probes_check_their_outputs_on_a_small_dataset() {
        let spans = Spans::off();
        let (ds, _) = synth(&spans, SpanId::ROOT, 3, 500);
        assert!(wire(&spans, SpanId::ROOT, &ds).is_ok());
        assert!(kernels(&spans, SpanId::ROOT, &ds, 16).is_ok());
        assert!(codec(&spans, SpanId::ROOT, &ds, 4).is_ok());
        assert!(flow_net(&spans, SpanId::ROOT, 32, 3).is_ok());
        assert!(event_queue(&spans, SpanId::ROOT, 100, 3) > 0.0);
    }
}
