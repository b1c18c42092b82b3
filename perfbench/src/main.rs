//! The faaspipe benchmark: four workloads, end-to-end host-time and
//! accuracy metrics, and a traced pass with per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|fanout|cluster|grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the traced pass: half the time untraced, half with the
//! benchmark's spans and the program's `TraceData` on, then the
//! per-layer probes; it reports the per-layer metrics and writes its
//! spans to `perfbench/out/`. Either way every sim runs with output
//! verification on, every iteration's virtual outputs must match the
//! first's, and the last line of stdout is one JSON object.

mod digest;
mod host;
mod probes;
mod spans;
mod stats;
mod tally;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{PipelineConfig, PipelineMode};
use faaspipe_plan::{calibrate, ProbeRun, ProbeSpec};
use faaspipe_trace::TraceData;

use crate::digest::SimDigest;
use crate::spans::{SpanId, Spans};
use crate::stats::{median, p90_if_supported};
use crate::tally::{share, Tally};
use crate::workloads::{
    default_params, fanout_config, input_seed, plan_workload, run_pipeline, Accuracy, Bench,
    Iteration, Kind, SimSample, VARIANTS,
};

const USAGE: &str =
    "usage: perfbench --workload <table1|fanout|cluster|grid> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up runs several times per invocation; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Repeats of each standalone sim in the verify and trace-sink probes.
const PROBE_REPEATS: usize = 3;
/// Widths of the `fanout` config for the µs/event curve.
const CURVE_WIDTHS: [usize; 4] = [256, 1024, 4096, 16384];
/// Layers whose self time the traced pass reports, by span-name prefix.
const LAYERS: [&str; 9] = [
    "bench", "core", "cluster", "sweep", "plan", "trace", "des", "shuffle", "methcomp",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {}", value))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {}", e))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {}", e))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {}", value));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {}", value)),
                })
            }
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line's contents plus the check failures behind it.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{} is not finite", name));
        }
        self.metrics.push((name, value, unit));
    }

    fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Counts a sim run outside the timed loops (warm-up, probes).
    fn count(&mut self, what: &str, s: &SimSample) {
        self.attempted += s.runs;
        self.failed += s.failed;
        if let Some(e) = &s.error {
            self.problem(format!("{}: {}", what, e));
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                name,
                v,
                unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            m
        )
    }
}

/// What a timed loop measured.
#[derive(Default)]
struct LoopStats {
    iterations: usize,
    runs: u64,
    failed: u64,
    sim_walls_ms: Vec<f64>,
    events: u64,
    peak_live: usize,
    offload_workers: usize,
    peak_concurrent_runs: usize,
    sweep_cells: usize,
    sweep_busy_ms: f64,
    sweep_capacity_ms: f64,
    calibrate_ms: Vec<f64>,
    /// Peak RSS of each iteration (`VmHWM` reset before it), KiB.
    rss_kib: Vec<f64>,
    elapsed_s: f64,
    cpu_ms: f64,
    tally: Tally,
    /// The first digest of each input set, by input-set index.
    digests: Vec<Vec<SimDigest>>,
    errors: Vec<String>,
}

impl LoopStats {
    /// Folds in one iteration of input set `set`: failures, the digest
    /// check against the set's first iteration, host samples.
    fn absorb(&mut self, mut it: Iteration, set: usize, spans: &Spans, parent: SpanId) {
        self.iterations += 1;
        let digests = it.digests();
        if self.digests.len() <= set {
            self.digests.resize(set + 1, Vec::new());
        }
        if self.digests[set].is_empty() {
            self.digests[set] = digests.clone();
        }
        let reference = &self.digests[set];
        let mismatch = digest::compare(reference, &digests).err();
        if let Some(m) = &mismatch {
            self.errors.push(format!(
                "iteration {} (input set {}): virtual outputs differ: {}",
                self.iterations, set, m
            ));
        }
        for (i, s) in it.sims.iter_mut().enumerate() {
            self.runs += s.runs;
            let digest_differs = mismatch.is_some() && reference.get(i) != Some(&s.digest);
            self.failed += if s.failed == 0 && digest_differs {
                s.runs
            } else {
                s.failed
            };
            if let Some(e) = &s.error {
                self.errors.push(e.clone());
            }
            self.sim_walls_ms.push(s.wall_ms);
            self.events += s.events;
            self.peak_live = self.peak_live.max(s.peak_live);
            self.offload_workers = self.offload_workers.max(s.offload_workers);
            self.peak_concurrent_runs = self.peak_concurrent_runs.max(s.peak_concurrent_runs);
            if let Some(trace) = s.trace.take() {
                self.tally.add(spans, parent, &trace, s.runs);
            }
        }
        if let Some(sw) = it.sweep {
            self.sweep_cells = sw.cells;
            self.sweep_busy_ms += sw.busy_ms;
            self.sweep_capacity_ms += sw.wall_ms * sw.jobs as f64;
        }
        self.calibrate_ms.extend(it.calibrate_ms);
    }

    fn sim_wall_p50(&self) -> f64 {
        median(&self.sim_walls_ms).unwrap_or(0.0)
    }
}

/// Runs the input sets in turn in a closed loop for `seconds`.
fn timed_loop(
    sets: &[Bench],
    spans: &Spans,
    parent: SpanId,
    traced: bool,
    seconds: f64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let budget = Duration::from_secs_f64(seconds);
    let cpu0 = host::cpu_ms();
    let start = Instant::now();
    for i in 0.. {
        let set = i % sets.len();
        let rss_reset = host::reset_peak_rss();
        let it = spans.time("bench.iteration", parent, |id| {
            sets[set].iterate(spans, id, traced)
        });
        if let (true, Some(kib)) = (rss_reset, host::peak_rss_kib()) {
            stats.rss_kib.push(kib as f64);
        }
        stats.absorb(it, set, spans, parent);
        if start.elapsed() >= budget {
            break;
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats.cpu_ms = host::cpu_ms() - cpu0;
    stats
}

/// Generates the input sets from the seed and warms up on the first
/// set's unit sims, `SETUP_REPEATS` times. Returns the input sets and
/// the median set-up seconds.
fn setup(args: &Args, spans: &Spans, report: &mut Report) -> (Vec<Bench>, f64) {
    let mut times = Vec::new();
    let mut sets = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let b = spans.time("bench.setup", SpanId::ROOT, |id| {
            let b: Vec<Bench> = (0..VARIANTS)
                .map(|k| Bench::new(args.kind, input_seed(args.seed, k), host::nproc()))
                .collect();
            for s in b[0].warm_up(spans, id) {
                report.count("set-up warm-up", &s);
            }
            b
        });
        times.push(start.elapsed().as_secs_f64());
        sets = Some(b);
    }
    (
        sets.expect("set-up ran"),
        median(&times).expect("set-up ran"),
    )
}

fn print_loop(kind: Kind, seed: u64, label: &str, l: &LoopStats) {
    println!(
        "{} {}: {} iterations, {} sims, {} runs in {:.2}s; sim wall p50 {:.2}ms over {} samples{}",
        kind.name(),
        label,
        l.iterations,
        l.sim_walls_ms.len(),
        l.runs,
        l.elapsed_s,
        l.sim_wall_p50(),
        l.sim_walls_ms.len(),
        p90_if_supported(&l.sim_walls_ms).map_or(String::new(), |p| format!(", p90 {:.2}ms", p))
    );
    for (set, d) in l.digests.iter().enumerate() {
        println!(
            "digest {} seed={} set={}: {:016x} ({})",
            kind.name(),
            seed,
            set,
            digest::fingerprint(d),
            d.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

fn absorb_loop(report: &mut Report, l: &LoopStats) {
    report.attempted += l.runs;
    report.failed += l.failed;
    for e in l.errors.iter().take(5) {
        report.problem(e.clone());
    }
}

/// The accuracy metrics, from one untimed iteration each of `table1`
/// and `grid` on the paper reproduction's inputs (input seed 0). They
/// are virtual and deterministic: the same on every run until a change
/// moves simulated behaviour.
fn reference_accuracy(report: &mut Report) -> Accuracy {
    let mut acc = Accuracy::default();
    for owner in [Kind::Table1, Kind::Grid] {
        let bench = Bench::new(owner, input_seed(0, 0), host::nproc());
        let mut l = LoopStats::default();
        let it = bench.iterate(&Spans::off(), SpanId::ROOT, false);
        acc = acc.or(it.accuracy);
        l.absorb(it, 0, &Spans::off(), SpanId::ROOT);
        absorb_loop(report, &l);
    }
    acc
}

fn untraced_pass(args: &Args) -> Report {
    let mut report = Report::default();
    let spans = Spans::off();
    let (sets, setup_s) = setup(args, &spans, &mut report);
    let l = timed_loop(&sets, &spans, SpanId::ROOT, false, args.seconds);
    absorb_loop(&mut report, &l);
    print_loop(args.kind, args.seed, "untraced", &l);
    let acc = reference_accuracy(&mut report);

    let runs = l.runs.max(1) as f64;
    report.metric("setup_s", setup_s, "s");
    report.metric("sim_wall_ms_p50", l.sim_wall_p50(), "ms");
    report.metric("runs_per_s", l.runs as f64 / l.elapsed_s, "1/s");
    report.metric("cpu_ms_per_run", l.cpu_ms / runs, "ms");
    // Every iteration's peak is its own; the median iteration's is the
    // figure, and the largest is printed beside it.
    match median(&l.rss_kib) {
        Some(kib) if l.rss_kib.len() == l.iterations => {
            report.metric("peak_rss_mib", kib / 1024.0, "MiB");
            println!(
                "peak RSS per iteration: median {:.1} MiB, max {:.1} MiB",
                kib / 1024.0,
                l.rss_kib.iter().cloned().fold(0.0, f64::max) / 1024.0
            );
        }
        _ => report.problem(
            "peak_rss_mib unavailable: VmHWM cannot be reset through /proc/self/clear_refs",
        ),
    }
    for (name, value, unit) in [
        ("table1_latency_err_pct", acc.table1_latency_err_pct, "%"),
        ("table1_cost_err_pct", acc.table1_cost_err_pct, "%"),
        ("plan_model_err_pct", acc.plan_model_err_pct, "%"),
        ("plan_pick_over_best", acc.plan_pick_over_best, "ratio"),
    ] {
        match value {
            Some(v) => report.metric(name, v, unit),
            None => report.problem(format!("{} was not computed", name)),
        }
    }
    println!(
        "failed_share {:.4} ({} of {} runs); plan_regret_pct {:+.2}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        (acc.plan_pick_over_best.unwrap_or(1.0) - 1.0) * 100.0
    );
    report
}

/// Standalone unit sims with verify on/off and traced/untraced:
/// (verify ms per run, trace-sink overhead %, calibrate ms).
fn unit_probes(
    bench: &Bench,
    spans: &Spans,
    parent: SpanId,
    report: &mut Report,
) -> (f64, f64, f64) {
    let (mut verify_ms, mut on_ms, mut traced_ms) = (0.0, 0.0, 0.0);
    let mut traced: Vec<(PipelineConfig, TraceData)> = Vec::new();
    for cfg in bench.unit_configs() {
        let mut timed = |verify: bool, trace: bool| {
            let mut c = cfg.clone();
            c.verify = verify;
            c.trace = trace;
            let mut walls = Vec::new();
            let mut last_trace = None;
            for _ in 0..PROBE_REPEATS {
                let s = run_pipeline(spans, parent, &c);
                report.count("unit probe", &s);
                walls.push(s.wall_ms);
                last_trace = s.trace;
            }
            (median(&walls).unwrap_or(0.0), last_trace)
        };
        let (on, _) = timed(true, false);
        let (off, _) = timed(false, false);
        let (with_trace, trace) = timed(true, true);
        verify_ms += on - off;
        on_ms += on;
        traced_ms += with_trace;
        if let Some(t) = trace {
            traced.push((cfg, t));
        }
    }
    let n = bench.unit_configs().len() as f64;
    // Calibrate from the traced serverless unit runs, as the planner's
    // calibration probes would be read.
    let specs: Vec<(ProbeSpec, &TraceData)> = traced
        .iter()
        .filter_map(|(cfg, trace)| {
            let WorkerChoice::Fixed(w) = cfg.workers else {
                return None;
            };
            (cfg.mode == PipelineMode::PureServerless).then(|| {
                let wl = plan_workload(cfg);
                (
                    ProbeSpec {
                        label: format!("unit W{}", w),
                        workers: w,
                        io_concurrency: cfg.io_concurrency,
                        data_bytes: wl.data_bytes,
                        input_chunks: wl.input_chunks,
                        sample_read_bytes: wl.sample_read_bytes,
                    },
                    trace,
                )
            })
        })
        .collect();
    let runs: Vec<ProbeRun<'_>> = specs
        .iter()
        .map(|(spec, trace)| ProbeRun { spec, trace })
        .collect();
    let defaults = default_params(&bench.unit_configs()[0]);
    let start = Instant::now();
    spans.time("plan.calibrate", parent, |_| calibrate(&runs, &defaults));
    let calibrate_ms = start.elapsed().as_secs_f64() * 1e3;
    (
        verify_ms / n,
        (traced_ms / on_ms - 1.0) * 100.0,
        calibrate_ms,
    )
}

fn traced_pass(args: &Args) -> Report {
    let mut report = Report::default();
    let spans = Spans::on();
    let (sets, _) = setup(args, &spans, &mut report);
    let bench = &sets[0];
    let half = args.seconds / 2.0;
    let u = spans.time("bench.untraced_half", SpanId::ROOT, |_| {
        timed_loop(&sets, &Spans::off(), SpanId::ROOT, false, half)
    });
    let t = timed_loop(&sets, &spans, SpanId::ROOT, true, half);
    absorb_loop(&mut report, &u);
    absorb_loop(&mut report, &t);
    print_loop(args.kind, args.seed, "untraced half", &u);
    print_loop(args.kind, args.seed, "traced half", &t);

    let (records, width) = args.kind.shape();
    let probe = spans.time("bench.probes", SpanId::ROOT, |p| {
        let check = |r: Result<f64, String>, report: &mut Report| {
            r.unwrap_or_else(|e| {
                report.problem(format!("probe: {}", e));
                0.0
            })
        };
        let (ds, synth_ms) = probes::synth(&spans, p, bench.dataset_seed, records);
        let wire_ms = check(probes::wire(&spans, p, &ds), &mut report);
        let kernel_ms = check(probes::kernels(&spans, p, &ds, width), &mut report);
        let (encode_ms, decode_ms) = probes::codec(&spans, p, &ds, width).unwrap_or_else(|e| {
            report.problem(format!("probe: {}", e));
            (0.0, 0.0)
        });
        let events_per_run = (u.events as f64 / u.runs.max(1) as f64).round() as usize;
        let queue_ns = probes::event_queue(&spans, p, events_per_run, args.seed);
        let flow_ns = check(probes::flow_net(&spans, p, width, args.seed), &mut report);
        let (search_us, prune_share) = probes::planner_search(&spans, p, &bench.unit_configs()[0]);
        let (verify_ms, sink_pct, calibrate_ms) = unit_probes(bench, &spans, p, &mut report);
        let curve: Vec<(usize, f64)> = CURVE_WIDTHS
            .iter()
            .map(|&w| {
                let s = run_pipeline(&spans, p, &fanout_config(bench.dataset_seed, w));
                report.count("fanout width probe", &s);
                (w, s.wall_ms * 1e6 / s.events.max(1) as f64)
            })
            .collect();
        (
            [synth_ms, wire_ms, kernel_ms, encode_ms, decode_ms],
            [queue_ns, flow_ns, search_us, prune_share],
            [verify_ms, sink_pct, calibrate_ms],
            curve,
        )
    });
    let wall_ns = spans.now_ns() as f64;
    let (
        [synth_ms, wire_ms, kernel_ms, encode_ms, decode_ms],
        [queue_ns, flow_ns, search_us, prune_share],
        [verify_ms, sink_pct, calibrate_ms],
        curve,
    ) = probe;

    let tl = &t.tally;
    let urun = u.runs.max(1) as f64;
    report.metric("des.events_per_run", u.events as f64 / urun, "count");
    report.metric(
        "des.host_ns_per_event",
        u.sim_walls_ms.iter().sum::<f64>() * 1e6 / u.events.max(1) as f64,
        "ns",
    );
    report.metric("des.peak_live_processes", u.peak_live as f64, "count");
    report.metric("des.offload_workers", u.offload_workers as f64, "count");
    report.metric("des.queue_ns_per_op", queue_ns, "ns");
    report.metric("des.flow_ns_per_op", flow_ns, "ns");
    report.metric("des.flows_per_run", tl.per_run(tl.flows as f64), "count");
    for (w, ns) in &curve {
        report.metric(format!("des.host_ns_per_event.w{}", w), *ns, "ns");
    }
    report.metric(
        "store.requests_per_run",
        tl.per_run(tl.store_requests as f64),
        "count",
    );
    report.metric(
        "store.error_share",
        share(tl.store_failed, tl.store_requests),
        "share",
    );
    report.metric(
        "faas.invocations_per_run",
        tl.per_run(tl.invocations as f64),
        "count",
    );
    report.metric(
        "faas.cold_start_share",
        share(tl.cold_starts, tl.cold_starts + tl.warm_starts),
        "share",
    );
    report.metric("faas.queue_s_per_run", tl.per_run(tl.queue_s), "s");
    report.metric("vm.task_s_per_run", tl.per_run(tl.vm_task_s), "s");
    // Each pipeline run moves one dataset of the probed shape, so one
    // probe pass is one run's worth of work.
    report.metric("shuffle.kernel_ms_per_run", kernel_ms, "ms");
    report.metric("shuffle.wire_ms_per_run", wire_ms, "ms");
    report.metric("methcomp.synth_ms_per_run", synth_ms, "ms");
    report.metric("methcomp.encode_ms_per_run", encode_ms, "ms");
    report.metric("methcomp.decode_ms_per_run", decode_ms, "ms");
    report.metric("core.verify_ms_per_run", verify_ms, "ms");
    for (name, v) in [
        "core.crit_compute_s",
        "core.crit_store_io_s",
        "core.crit_cold_start_s",
        "core.crit_queueing_s",
        "core.crit_other_s",
    ]
    .iter()
    .zip(tl.crit_s)
    {
        report.metric(*name, tl.per_sim(v), "s");
    }
    report.metric(
        "cluster.peak_concurrent_runs",
        u.peak_concurrent_runs as f64,
        "count",
    );
    report.metric(
        "cluster.host_ms_per_run",
        u.sim_walls_ms.iter().sum::<f64>() / urun,
        "ms",
    );
    report.metric(
        "plan.calibrate_ms",
        median(&u.calibrate_ms).unwrap_or(calibrate_ms),
        "ms",
    );
    report.metric("plan.search_us", search_us, "us");
    report.metric("plan.prune_share", prune_share, "share");
    report.metric(
        "sweep.busy_share",
        if u.sweep_capacity_ms > 0.0 {
            u.sweep_busy_ms / u.sweep_capacity_ms
        } else {
            0.0
        },
        "share",
    );
    report.metric("sweep.cells", u.sweep_cells as f64, "count");
    report.metric("trace.spans_per_run", tl.per_run(tl.spans as f64), "count");
    report.metric("trace.sink_overhead_pct", sink_pct, "%");
    report.metric(
        "bench.trace_overhead_pct",
        (t.sim_wall_p50() / u.sim_wall_p50() - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "bench.sims",
        (u.sim_walls_ms.len() + t.sim_walls_ms.len()) as f64,
        "count",
    );

    // Self time per layer; with the un-spanned remainder it sums to the
    // traced pass's wall time. The self times partition the union of the
    // spans, so a negative remainder would mean time counted twice.
    let finished = spans.finished();
    let (by_layer, covered) = spans::self_by_layer(&finished);
    let remainder = wall_ns - covered;
    println!("self time over {:.1}ms of traced wall:", wall_ns / 1e6);
    for (layer, ns) in &by_layer {
        if !LAYERS.contains(layer) {
            report.problem(format!("span layer {} is not a reported layer", layer));
        }
        println!("  {:<9} {:>10.2}ms", layer, ns / 1e6);
    }
    println!("  {:<9} {:>10.2}ms", "unspanned", remainder / 1e6);
    if remainder < -1e3 {
        report.problem("span self times exceed the traced wall time");
    }
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0.0);
        report.metric(format!("self_pct.{}", layer), ns / wall_ns * 100.0, "%");
    }
    report.metric(
        "self_pct.unspanned",
        remainder.max(0.0) / wall_ns * 100.0,
        "%",
    );

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, spans::to_json(&finished)))
    {
        Ok(()) => println!("wrote {} spans to {}", finished.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {}", path.display(), e),
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}\n{}", e, USAGE);
            std::process::exit(2);
        }
    };
    println!("{}", host::fingerprint());
    let report = if args.trace {
        traced_pass(&args)
    } else {
        untraced_pass(&args)
    };
    for (name, value, unit) in &report.metrics {
        println!("{:<32} {:>14.4} {}", name, value, unit);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {}", p);
    }
    println!("{}", report.json());
}
