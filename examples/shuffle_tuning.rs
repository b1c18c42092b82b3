//! Primula's question — how many functions should a shuffle use? — put
//! to the planner's analytic model: the modelled sort-stage makespan for
//! every worker count, and the regimes the paper's worker-count claim
//! rests on: too few functions are bandwidth-bound, too many
//! request-bound, and the optimum sits between.
//!
//! ```text
//! cargo run --release --example shuffle_tuning
//! ```

use faaspipe::core::pipeline::PipelineConfig;
use faaspipe::plan::{Candidate, ModelParams, Planner, SearchSpace};

fn main() {
    let cfg = PipelineConfig::paper_table1();
    let params = cfg.model_params();
    let wl = cfg.sort_workload();
    println!(
        "model: request latency {:.1} ms, per-function {:.0} MiB/s, {:.0} store ops/s",
        params.store_latency_s * 1e3,
        params.store_conn_bps.min(params.fn_nic_bps) / (1024.0 * 1024.0),
        params.store_ops_per_sec
    );

    // A stage's regime is the resource that, made twice as plentiful,
    // shortens it the most.
    let regimes = [
        (
            "bandwidth-bound",
            ModelParams {
                store_conn_bps: 2.0 * params.store_conn_bps,
                fn_nic_bps: 2.0 * params.fn_nic_bps,
                store_agg_bps: 2.0 * params.store_agg_bps,
                ..params.clone()
            },
        ),
        (
            "request-bound",
            ModelParams {
                store_latency_s: params.store_latency_s / 2.0,
                store_ops_per_sec: 2.0 * params.store_ops_per_sec,
                ..params.clone()
            },
        ),
        (
            "compute-bound",
            ModelParams {
                parse_bps: 2.0 * params.parse_bps,
                sort_bps: 2.0 * params.sort_bps,
                partition_bps: 2.0 * params.partition_bps,
                merge_bps: 2.0 * params.merge_bps,
                ..params.clone()
            },
        ),
    ];
    println!("\nworkers  total(s)  sample     map  reduce   regime");
    for workers in [2usize, 4, 8, 16, 32, 64, 128] {
        let cand = Candidate {
            workers,
            io_concurrency: cfg.io_concurrency,
            exchange: cfg.exchange,
        };
        let e = params.estimate(&wl, &cand);
        let (regime, _) = regimes
            .iter()
            .map(|(name, p)| (name, e.makespan_s - p.estimate(&wl, &cand).makespan_s))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three regimes");
        println!(
            "{:>7}  {:>8.1}  {:>6.1}  {:>6.1}  {:>6.1}   {}",
            workers, e.makespan_s, e.sample_s, e.map_s, e.reduce_s, regime
        );
    }

    let space = SearchSpace::default()
        .cap_workers(128)
        .pin_io(cfg.io_concurrency)
        .pin_exchange(cfg.exchange);
    let best = Planner::new(params).with_space(space).plan(&wl);
    println!(
        "\noptimal number of functions for this shuffle: {} ({:.1}s modelled)",
        best.workers, best.predicted.makespan_s
    );
    println!(
        "modelled cost at the optimum: ${:.4}",
        best.predicted.cost_dollars
    );
}
