//! The four workloads. Each is a closed loop driven from one process:
//! the next iteration starts only after the previous one completed.
//!
//! * `table1` — the paper's Table 1 at full scale: a pure-serverless sim
//!   (W=8, scatter) then a VM-hybrid sim, 150k records modelling 3.5 GB.
//!   Host time goes to the data plane; ~1k DES events per sim.
//! * `fanout` — one coalesced shuffle at W=1024 over 8000 records: ~111k
//!   events, at most 8 records per worker. The DES scheduler, the flow
//!   solver and exchange bookkeeping do the work.
//! * `cluster` — one multi-tenant `run_cluster` sim: 8 tenants, a seeded
//!   0.5 runs/s Poisson schedule over 600 s passed as an explicit trace,
//!   half scatter and half coalesced, one tenant admission-capped.
//! * `grid` — an E19-shaped planner-validation grid on the sweep engine
//!   at `jobs = nproc`: calibration probes, simulate-and-predict cells
//!   over backend x W, and `--exchange auto` runs.
//!
//! Every sim runs with output verification on.

use std::time::Instant;

use faaspipe_bench::{PAPER_TABLE1, REPRO_RECORDS, SWEEP_RECORDS};
use faaspipe_cluster::{
    run_cluster, AdmissionPolicy, Arrival, ArrivalProcess, ClusterConfig, ClusterReport,
    TenantSpec, TraceMode,
};
use faaspipe_core::dag::WorkerChoice;
use faaspipe_core::pipeline::{run_methcomp_pipeline, PipelineConfig, PipelineMode};
use faaspipe_des::SimTime;
use faaspipe_exchange::{DirectConfig, RelayConfig};
use faaspipe_plan::{calibrate, Candidate, ModelParams, ProbeRun, ProbeSpec, Workload};
use faaspipe_shuffle::ExchangeKind;
use faaspipe_sweep::Sweep;
use faaspipe_trace::{Category, TraceData};

use crate::digest::SimDigest;
use crate::spans::{SpanId, Spans};

/// The dataset seed of the default `--seed 0`, the one `results/table1.json`
/// was produced with.
const BASE_DATASET_SEED: u64 = 0xE0C0_FF88;
const GB_3_5: u64 = 3_500_000_000;

const FANOUT_WORKERS: usize = 1024;
const FANOUT_RECORDS: usize = 8_000;

const CLUSTER_TENANTS: usize = 8;
const CLUSTER_RECORDS: usize = 4_000;
const CLUSTER_RATE_PER_S: f64 = 0.5;
const CLUSTER_HORIZON_S: f64 = 600.0;

const GRID_WORKERS: [usize; 2] = [8, 32];
const GRID_IO: usize = 4;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper Table 1 at full scale.
    Table1,
    /// Pure-serverless coalesced shuffle at W=1024.
    Fanout,
    /// Multi-tenant cluster service.
    Cluster,
    /// Planner-validation grid on the sweep engine.
    Grid,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "table1" => Some(Kind::Table1),
            "fanout" => Some(Kind::Fanout),
            "cluster" => Some(Kind::Cluster),
            "grid" => Some(Kind::Grid),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1 => "table1",
            Kind::Fanout => "fanout",
            Kind::Cluster => "cluster",
            Kind::Grid => "grid",
        }
    }

    /// Record count and shuffle width of the workload's pipelines: the
    /// shape the per-layer probes are cut to.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Kind::Table1 => (REPRO_RECORDS, 8),
            Kind::Fanout => (FANOUT_RECORDS, FANOUT_WORKERS),
            Kind::Cluster => (CLUSTER_RECORDS, 8),
            Kind::Grid => (SWEEP_RECORDS, GRID_WORKERS[1]),
        }
    }
}

/// Input sets per run. Iteration `i` of a run uses input set `i %
/// VARIANTS`, so a run's host-time figures average over several inputs
/// drawn from its seed instead of hanging on one draw, and every input
/// set still repeats within the run for the digest check.
pub const VARIANTS: u64 = 4;

/// The input seed of input set `k` of benchmark seed `seed`. Seed 0's
/// first set is input seed 0, the paper reproduction's inputs.
pub fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(VARIANTS).wrapping_add(k)
}

/// The dataset seed of input seed `input`; input 0 keeps the paper
/// reproduction's default.
pub fn dataset_seed(input: u64) -> u64 {
    faaspipe_cluster::arrival::run_seed(BASE_DATASET_SEED, input as usize)
}

/// One simulation's host cost and virtual outputs.
#[derive(Debug, Clone)]
pub struct SimSample {
    /// Host ms of the run call.
    pub wall_ms: f64,
    /// DES events dispatched.
    pub events: u64,
    /// Peak live DES processes.
    pub peak_live: usize,
    /// CPU-offload threads the sim used.
    pub offload_workers: usize,
    /// Pipeline runs attempted inside the sim.
    pub runs: u64,
    /// Of those, runs that failed (error, failed verification).
    pub failed: u64,
    /// Most pipeline runs executing at one virtual instant.
    pub peak_concurrent_runs: usize,
    /// Virtual outputs.
    pub digest: SimDigest,
    /// The sim's trace, when traced.
    pub trace: Option<TraceData>,
    /// Why the sim failed, if it did.
    pub error: Option<String>,
}

impl SimSample {
    /// Simulated latency (makespan) in seconds.
    pub fn latency_s(&self) -> f64 {
        self.digest.latency_ns as f64 / 1e9
    }

    fn failed(wall_ms: f64, runs: u64, error: String) -> SimSample {
        SimSample {
            wall_ms,
            events: 0,
            peak_live: 0,
            offload_workers: 0,
            runs,
            failed: runs,
            peak_concurrent_runs: 0,
            digest: SimDigest {
                latency_ns: 0,
                cost_micros: 0,
                events: 0,
                runs: 0,
                trace_crc: None,
            },
            trace: None,
            error: Some(error),
        }
    }
}

/// Accuracy of the model at a seed: virtual, deterministic per seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// Mean |sim - paper| / paper over the two Table-1 latencies, %.
    pub table1_latency_err_pct: Option<f64>,
    /// The same over the two Table-1 costs, %.
    pub table1_cost_err_pct: Option<f64>,
    /// Mean relative error of the planner's makespan against the sim, %.
    pub plan_model_err_pct: Option<f64>,
    /// Auto pick's makespan over the best grid cell's.
    pub plan_pick_over_best: Option<f64>,
}

impl Accuracy {
    /// Each figure from `self`, or else from `other`.
    pub fn or(self, other: Accuracy) -> Accuracy {
        Accuracy {
            table1_latency_err_pct: self.table1_latency_err_pct.or(other.table1_latency_err_pct),
            table1_cost_err_pct: self.table1_cost_err_pct.or(other.table1_cost_err_pct),
            plan_model_err_pct: self.plan_model_err_pct.or(other.plan_model_err_pct),
            plan_pick_over_best: self.plan_pick_over_best.or(other.plan_pick_over_best),
        }
    }
}

/// Sweep-engine statistics of one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepUse {
    /// Cells run.
    pub cells: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Wall ms of the sweeps.
    pub wall_ms: f64,
    /// Sum of the cells' own wall ms.
    pub busy_ms: f64,
}

/// Everything one iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// One entry per simulation (per cell for `grid`).
    pub sims: Vec<SimSample>,
    /// What the iteration says about model accuracy.
    pub accuracy: Accuracy,
    /// Sweep-engine use, for `grid`.
    pub sweep: Option<SweepUse>,
    /// Host ms of `faaspipe_plan::calibrate`, for `grid`.
    pub calibrate_ms: Option<f64>,
}

impl Iteration {
    /// Virtual-output digests, one per sim.
    pub fn digests(&self) -> Vec<SimDigest> {
        self.sims.iter().map(|s| s.digest).collect()
    }
}

/// A workload with its inputs generated from the seed.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// Derived dataset seed.
    pub dataset_seed: u64,
    /// `table1`/`fanout`: the configs one iteration runs, in order.
    pipelines: Vec<PipelineConfig>,
    /// `cluster`: the cluster config with its explicit arrival trace.
    cluster: Option<ClusterConfig>,
    /// Sweep jobs for `grid`.
    jobs: usize,
}

impl Bench {
    /// Generates one input set of the workload from input seed `seed`.
    pub fn new(kind: Kind, seed: u64, jobs: usize) -> Bench {
        let ds = dataset_seed(seed);
        let mut pipelines = Vec::new();
        let mut cluster = None;
        match kind {
            Kind::Table1 => {
                let mut serverless = PipelineConfig::paper_table1();
                serverless.seed = ds;
                let mut hybrid = serverless.clone();
                hybrid.mode = PipelineMode::VmHybrid;
                pipelines = vec![serverless, hybrid];
            }
            Kind::Fanout => pipelines = vec![fanout_config(ds, FANOUT_WORKERS)],
            Kind::Cluster => cluster = Some(cluster_config(seed, ds)),
            Kind::Grid => {}
        }
        Bench {
            kind,
            dataset_seed: ds,
            pipelines,
            cluster,
            jobs,
        }
    }

    /// Standalone pipeline configs shaped like one unit of the workload:
    /// the warm-up of set-up and the inputs of the per-layer probes.
    pub fn unit_configs(&self) -> Vec<PipelineConfig> {
        match self.kind {
            Kind::Table1 | Kind::Fanout => self.pipelines.clone(),
            Kind::Cluster => {
                let cfg = self.cluster.as_ref().expect("cluster config");
                [0, 1]
                    .iter()
                    .map(|&i| {
                        let t = &cfg.tenants[i];
                        let mut p = PipelineConfig::paper_table1();
                        p.physical_records = cfg.physical_records;
                        p.modeled_bytes = cfg.modeled_bytes;
                        p.seed = self.dataset_seed;
                        p.parallelism = t.parallelism;
                        p.workers = t.workers;
                        p.exchange = t.exchange;
                        p
                    })
                    .collect()
            }
            Kind::Grid => vec![grid_config(
                self.dataset_seed,
                GB_3_5,
                8,
                GRID_IO,
                ExchangeKind::Scatter,
            )],
        }
    }

    /// The set-up warm-up: the unit sims, or for `cluster` a short
    /// `run_cluster` over the first two arrivals per tenant.
    pub fn warm_up(&self, spans: &Spans, parent: SpanId) -> Vec<SimSample> {
        match &self.cluster {
            Some(cfg) => {
                let mut cfg = cfg.clone();
                if let ArrivalProcess::Trace(rows) = &mut cfg.arrivals {
                    rows.truncate(2 * CLUSTER_TENANTS);
                }
                vec![run_cluster_sim(spans, parent, &cfg)]
            }
            None => self
                .unit_configs()
                .iter()
                .map(|cfg| run_pipeline(spans, parent, cfg))
                .collect(),
        }
    }

    /// Runs one iteration. `traced` turns on the program's `TraceData`
    /// in every sim; `spans` records the benchmark's own spans.
    pub fn iterate(&self, spans: &Spans, parent: SpanId, traced: bool) -> Iteration {
        match self.kind {
            Kind::Table1 => {
                let sims: Vec<SimSample> = self
                    .pipelines
                    .iter()
                    .map(|cfg| {
                        let mut cfg = cfg.clone();
                        cfg.trace = traced;
                        run_pipeline(spans, parent, &cfg)
                    })
                    .collect();
                let accuracy = table1_accuracy(&sims);
                Iteration {
                    sims,
                    accuracy,
                    ..Iteration::default()
                }
            }
            Kind::Fanout => {
                let mut cfg = self.pipelines[0].clone();
                cfg.trace = traced;
                Iteration {
                    sims: vec![run_pipeline(spans, parent, &cfg)],
                    ..Iteration::default()
                }
            }
            Kind::Cluster => {
                let mut cfg = self.cluster.clone().expect("cluster config");
                if traced {
                    cfg.trace = TraceMode::InMemory;
                }
                Iteration {
                    sims: vec![run_cluster_sim(spans, parent, &cfg)],
                    ..Iteration::default()
                }
            }
            Kind::Grid => grid_iteration(spans, parent, self.dataset_seed, self.jobs, traced),
        }
    }
}

/// The `fanout` config, at any width for the µs/event curve.
pub fn fanout_config(dataset_seed: u64, workers: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.seed = dataset_seed;
    cfg.physical_records = FANOUT_RECORDS;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.exchange = ExchangeKind::Coalesced;
    cfg
}

/// Splitmix64: the benchmark's own generator for its inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A Poisson arrival schedule of exactly `count` arrivals over
/// `horizon_s`, drawn from `seed`. Given its count, a Poisson process's
/// arrival times are independent uniforms over the horizon, so sorted
/// seeded uniforms are a Poisson schedule whose size does not vary with
/// the seed. Tenants take equal shares (within one) in seeded order.
pub fn poisson_trace(seed: u64, tenants: usize, count: usize, horizon_s: f64) -> Vec<Arrival> {
    let mut state = seed ^ 0x5EED_A771_BE11_0001;
    let mut times: Vec<u64> = (0..count)
        .map(|_| (uniform01(&mut state) * horizon_s * 1e9) as u64)
        .collect();
    times.sort_unstable();
    let mut who: Vec<usize> = (0..count).map(|i| i % tenants).collect();
    for i in (1..count).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        who.swap(i, j);
    }
    times
        .into_iter()
        .zip(who)
        .map(|(t, tenant)| Arrival {
            at: SimTime::from_nanos(t),
            tenant,
        })
        .collect()
}

fn cluster_config(seed: u64, dataset_seed: u64) -> ClusterConfig {
    let tenants: Vec<TenantSpec> = (0..CLUSTER_TENANTS)
        .map(|i| {
            let mut t = TenantSpec::new(format!("t{}", i));
            t.exchange = if i % 2 == 0 {
                ExchangeKind::Scatter
            } else {
                ExchangeKind::Coalesced
            };
            if i == CLUSTER_TENANTS - 1 {
                t.admission = AdmissionPolicy::unlimited().with_max_concurrent(1);
            }
            t
        })
        .collect();
    let arrivals = ArrivalProcess::Trace(poisson_trace(
        seed,
        CLUSTER_TENANTS,
        (CLUSTER_RATE_PER_S * CLUSTER_HORIZON_S) as usize,
        CLUSTER_HORIZON_S,
    ));
    let mut cfg = ClusterConfig::new(tenants, arrivals);
    cfg.physical_records = CLUSTER_RECORDS;
    cfg.seed = dataset_seed;
    cfg.verify = true;
    cfg
}

fn grid_config(
    dataset_seed: u64,
    modeled: u64,
    workers: usize,
    k: usize,
    exchange: ExchangeKind,
) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.seed = dataset_seed;
    cfg.physical_records = SWEEP_RECORDS;
    cfg.modeled_bytes = modeled;
    cfg.workers = WorkerChoice::Fixed(workers);
    cfg.io_concurrency = k;
    cfg.exchange = exchange;
    cfg
}

/// The CRC-32 of a trace's Chrome export: the trace's digest.
pub fn trace_crc(spans: &Spans, parent: SpanId, trace: &TraceData) -> u32 {
    spans.time("trace.chrome_trace_json", parent, |_| {
        faaspipe_codec::checksum::crc32(faaspipe_trace::chrome_trace_json(trace).as_bytes())
    })
}

/// Runs one standalone pipeline.
pub fn run_pipeline(spans: &Spans, parent: SpanId, cfg: &PipelineConfig) -> SimSample {
    let start = Instant::now();
    let result = spans.time("core.run_methcomp_pipeline", parent, |_| {
        run_methcomp_pipeline(cfg)
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let outcome = match result {
        Ok(o) if o.verified || !cfg.verify => o,
        Ok(_) => return SimSample::failed(wall_ms, 1, "not verified".into()),
        Err(e) => return SimSample::failed(wall_ms, 1, e.to_string()),
    };
    let trace = cfg.trace.then_some(outcome.trace);
    let digest = SimDigest {
        latency_ns: outcome.latency.as_nanos(),
        cost_micros: outcome.cost.total().as_micros(),
        events: outcome.sim.events,
        runs: 1,
        trace_crc: trace.as_ref().map(|t| trace_crc(spans, parent, t)),
    };
    SimSample {
        wall_ms,
        events: outcome.sim.events,
        peak_live: outcome.sim.peak_live_processes,
        offload_workers: outcome.sim.offload_workers,
        runs: 1,
        failed: 0,
        peak_concurrent_runs: 1,
        digest,
        trace,
        error: None,
    }
}

fn run_cluster_sim(spans: &Spans, parent: SpanId, cfg: &ClusterConfig) -> SimSample {
    let submitted = match &cfg.arrivals {
        ArrivalProcess::Trace(rows) => rows.len() as u64,
        ArrivalProcess::Poisson { .. } => 0,
    };
    let start = Instant::now();
    let result = spans.time("cluster.run_cluster", parent, |_| run_cluster(cfg));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report: ClusterReport = match result {
        Ok(r) => r,
        Err(e) => return SimSample::failed(wall_ms, submitted, e.to_string()),
    };
    let failed = (report.submitted - report.completed) as u64;
    let trace = (cfg.trace == TraceMode::InMemory).then_some(report.trace);
    SimSample {
        wall_ms,
        events: report.sim.events,
        peak_live: report.sim.peak_live_processes,
        offload_workers: report.sim.offload_workers,
        runs: report.submitted as u64,
        failed,
        peak_concurrent_runs: peak_overlap(
            report
                .runs
                .iter()
                .map(|r| (r.started.as_nanos(), r.finished.as_nanos())),
        ),
        digest: SimDigest {
            latency_ns: report.makespan.as_nanos(),
            cost_micros: report.cost.total().as_micros(),
            events: report.sim.events,
            runs: report.completed as u64,
            trace_crc: trace.as_ref().map(|t| trace_crc(spans, parent, t)),
        },
        trace,
        error: report
            .runs
            .iter()
            .find_map(|r| r.error.clone())
            .or_else(|| (failed > 0).then(|| format!("{} runs failed", failed))),
    }
}

/// Most half-open `[start, end)` intervals covering one instant.
pub fn peak_overlap(intervals: impl Iterator<Item = (u64, u64)>) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::new();
    for (s, e) in intervals {
        if e > s {
            edges.push((s, 1));
            edges.push((e, -1));
        }
    }
    // Ends sort before starts at equal times: back-to-back runs do not overlap.
    edges.sort_unstable();
    let (mut live, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

fn table1_accuracy(sims: &[SimSample]) -> Accuracy {
    if sims.len() != 2 || sims.iter().any(|s| s.error.is_some()) {
        return Accuracy::default();
    }
    let err = |f: &dyn Fn(&SimSample, usize) -> (f64, f64)| {
        sims.iter()
            .enumerate()
            .map(|(i, s)| {
                let (sim, paper) = f(s, i);
                (sim - paper).abs() / paper
            })
            .sum::<f64>()
            / 2.0
            * 100.0
    };
    Accuracy {
        table1_latency_err_pct: Some(err(&|s, i| {
            (s.digest.latency_ns as f64 / 1e9, PAPER_TABLE1[i].1)
        })),
        table1_cost_err_pct: Some(err(&|s, i| {
            (s.digest.cost_micros as f64 / 1e6, PAPER_TABLE1[i].2)
        })),
        ..Accuracy::default()
    }
}

/// The planner's view of a grid config's sort stage.
pub fn plan_workload(cfg: &PipelineConfig) -> Workload {
    let chunk_wire = cfg.modeled_bytes as f64 / cfg.parallelism as f64;
    Workload {
        data_bytes: cfg.modeled_bytes as f64,
        input_chunks: cfg.parallelism,
        sample_read_bytes: (64.0 * 1024.0 * cfg.size_scale()).min(chunk_wire),
        encode_workers: cfg.parallelism,
    }
}

/// Config-derived (uncalibrated) model parameters for `cfg`.
pub fn default_params(cfg: &PipelineConfig) -> ModelParams {
    ModelParams::from_configs(
        &cfg.store,
        &cfg.faas,
        &RelayConfig::default(),
        &DirectConfig::default(),
        &cfg.work,
    )
}

/// Runs `cfgs` as sweep cells at `jobs`; a panicking cell becomes a
/// failed sample. Returns the samples, the sweep's wall ms and the jobs
/// it ran with.
fn sweep_cells(
    spans: &Spans,
    parent: SpanId,
    label: &str,
    cfgs: Vec<PipelineConfig>,
    jobs: usize,
) -> (Vec<SimSample>, f64, usize) {
    let start = Instant::now();
    let outcome = spans.time("sweep.run", parent, |sweep_span| {
        let mut sweep: Sweep<SimSample> = Sweep::new();
        for (i, cfg) in cfgs.into_iter().enumerate() {
            let spans = spans.clone();
            sweep.push(format!("{} {}", label, i), move || {
                run_pipeline(&spans, sweep_span, &cfg)
            });
        }
        sweep.run(jobs)
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let jobs = outcome.stats.jobs;
    let rows = outcome
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|f| SimSample::failed(0.0, 1, f.to_string())))
        .collect();
    (rows, wall_ms, jobs)
}

fn grid_iteration(
    spans: &Spans,
    parent: SpanId,
    dataset_seed: u64,
    jobs: usize,
    traced: bool,
) -> Iteration {
    const GB_34: u64 = 34_000_000_000;
    // Calibration probes, as E19 runs them: they are traced whatever the
    // pass, because the calibrator reads their traces.
    let probe_grid: [(u64, usize, usize, ExchangeKind); 5] = [
        (GB_3_5, 4, 1, ExchangeKind::Scatter),
        (GB_3_5, 4, 4, ExchangeKind::Scatter),
        (GB_3_5, 4, 1, ExchangeKind::VmRelay),
        (GB_3_5, 4, 1, ExchangeKind::Direct),
        (GB_34, 32, 4, ExchangeKind::VmRelay),
    ];
    let probe_cfgs: Vec<PipelineConfig> = probe_grid
        .iter()
        .map(|&(modeled, w, k, x)| {
            let mut cfg = grid_config(dataset_seed, modeled, w, k, x);
            cfg.trace = true;
            cfg
        })
        .collect();
    let specs: Vec<ProbeSpec> = probe_grid
        .iter()
        .zip(&probe_cfgs)
        .map(|(&(modeled, w, k, x), cfg)| {
            let wl = plan_workload(cfg);
            ProbeSpec {
                label: format!("W{}-K{}-{}", w, k, x),
                workers: w,
                io_concurrency: k,
                data_bytes: modeled as f64,
                input_chunks: wl.input_chunks,
                sample_read_bytes: wl.sample_read_bytes,
            }
        })
        .collect();
    let defaults = default_params(&probe_cfgs[0]);
    let (probes, probe_wall, jobs) = sweep_cells(spans, parent, "probe", probe_cfgs, jobs);
    let mut it = Iteration::default();
    let mut busy_ms: f64 = probes.iter().map(|p| p.wall_ms).sum();
    let mut sweep_wall = probe_wall;
    if probes.iter().any(|p| p.error.is_some()) {
        it.sims = probes;
        return it;
    }
    let runs: Vec<ProbeRun<'_>> = specs
        .iter()
        .zip(&probes)
        .map(|(spec, p)| ProbeRun {
            spec,
            trace: p.trace.as_ref().expect("probe cells are traced"),
        })
        .collect();
    let cal_start = Instant::now();
    let calibration = spans.time("plan.calibrate", parent, |_| calibrate(&runs, &defaults));
    it.calibrate_ms = Some(cal_start.elapsed().as_secs_f64() * 1e3);
    let params = calibration.params;

    // Simulate-and-predict cells over backend x W, then auto runs.
    let mut cells: Vec<(usize, ExchangeKind)> = Vec::new();
    for w in GRID_WORKERS {
        for x in ExchangeKind::ALL {
            cells.push((w, x));
        }
        cells.push((
            w,
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true,
            },
        ));
    }
    let auto_sizes: [u64; 3] = [1_750_000_000, GB_3_5, 7_000_000_000];
    let mut cfgs: Vec<PipelineConfig> = cells
        .iter()
        .map(|&(w, x)| {
            let mut cfg = grid_config(dataset_seed, GB_3_5, w, GRID_IO, x);
            cfg.trace = traced;
            cfg
        })
        .collect();
    for modeled in auto_sizes {
        let mut cfg = grid_config(dataset_seed, modeled, 8, GRID_IO, ExchangeKind::Auto);
        cfg.workers = WorkerChoice::Auto;
        cfg.plan_params = Some(params.clone());
        // The pick is read back from the planner span.
        cfg.trace = true;
        cfgs.push(cfg);
    }
    let wl = plan_workload(&cfgs[0]);
    let (rows, wall, _) = sweep_cells(spans, parent, "cell", cfgs, jobs);
    busy_ms += rows.iter().map(|r| r.wall_ms).sum::<f64>();
    sweep_wall += wall;

    let mut errs = Vec::new();
    let mut best = f64::INFINITY;
    for (&(w, x), row) in cells.iter().zip(&rows) {
        if row.error.is_none() {
            let sim_s = row.latency_s();
            let est = spans.time("plan.estimate", parent, |_| {
                params.estimate(
                    &wl,
                    &Candidate {
                        workers: w,
                        io_concurrency: GRID_IO,
                        exchange: x,
                    },
                )
            });
            errs.push((est.makespan_s - sim_s).abs() / sim_s);
            best = best.min(sim_s);
        }
    }
    let auto_mid = &rows[cells.len() + 1];
    if errs.len() == cells.len() {
        it.accuracy.plan_model_err_pct = Some(errs.iter().sum::<f64>() / errs.len() as f64 * 100.0);
        it.accuracy.plan_pick_over_best = auto_mid
            .error
            .is_none()
            .then(|| auto_mid.latency_s() / best);
    }
    it.sims = probes.into_iter().chain(rows).collect();
    let first_auto = it.sims.len() - auto_sizes.len();
    for s in &mut it.sims[first_auto..] {
        let planned = s.trace.as_ref().is_some_and(|t| {
            t.spans
                .iter()
                .any(|span| span.category == Category::Planner)
        });
        if s.error.is_none() && !planned {
            s.failed = s.runs;
            s.error = Some("auto run recorded no planner decision".into());
        }
    }
    // Probe and auto runs are traced for the planner's sake; only the
    // traced pass analyses their traces.
    if !traced {
        for s in &mut it.sims {
            s.trace = None;
        }
    }
    it.sweep = Some(SweepUse {
        cells: it.sims.len(),
        jobs,
        wall_ms: sweep_wall,
        busy_ms,
    });
    it
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_seeded_sorted_and_balanced() {
        let a = poisson_trace(7, 8, 300, 600.0);
        assert_eq!(a, poisson_trace(7, 8, 300, 600.0));
        assert_ne!(a, poisson_trace(8, 8, 300, 600.0));
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .iter()
            .all(|x| x.at < SimTime::from_nanos(600_000_000_000)));
        for t in 0..8 {
            let n = a.iter().filter(|x| x.tenant == t).count();
            assert!(n == 37 || n == 38, "tenant {} has {} arrivals", t, n);
        }
    }

    #[test]
    fn peak_overlap_counts_concurrent_intervals() {
        assert_eq!(peak_overlap([(0, 10), (5, 15), (10, 20)].into_iter()), 2);
        assert_eq!(peak_overlap([(0, 10), (10, 20)].into_iter()), 1);
        assert_eq!(peak_overlap(std::iter::empty()), 0);
    }

    #[test]
    fn seed_zero_keeps_the_reproduction_dataset() {
        assert_eq!(dataset_seed(input_seed(0, 0)), BASE_DATASET_SEED);
        assert_ne!(dataset_seed(input_seed(0, 1)), BASE_DATASET_SEED);
        // Input sets of different seeds never coincide.
        let sets: std::collections::BTreeSet<u64> = (0..3)
            .flat_map(|s| (0..VARIANTS).map(move |k| input_seed(s, k)))
            .collect();
        assert_eq!(sets.len(), 3 * VARIANTS as usize);
    }
}
