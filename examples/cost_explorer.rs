//! Cost-aware tuning: the latency/cost Pareto frontier of the shuffle
//! stage, and what a dollar budget buys you.
//!
//! The paper "qualitatively evaluate[s] the pros and cons of each
//! strategy"; this example makes the trade-off quantitative — every
//! extra function shaves latency but burns GB-seconds and requests.
//! The planner's model prices every worker count of the Table-1 sort
//! stage (scatter exchange, default I/O window).
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use faaspipe::core::pipeline::PipelineConfig;
use faaspipe::plan::{Planner, SearchSpace};

fn main() {
    let cfg = PipelineConfig::paper_table1();
    let space = SearchSpace::default()
        .cap_workers(128)
        .pin_io(cfg.io_concurrency)
        .pin_exchange(cfg.exchange);
    let planner = Planner::new(cfg.model_params()).with_space(space);
    let wl = cfg.sort_workload();

    println!("Pareto frontier for the paper's 3.5 GB shuffle:");
    println!("workers  modelled latency(s)  modelled cost($)");
    for plan in planner.frontier(&wl) {
        println!(
            "{:>7}  {:>19.1}  {:>15.4}",
            plan.workers, plan.predicted.makespan_s, plan.predicted.cost_dollars
        );
    }

    println!("\nwhat a budget buys:");
    println!("budget($)   workers  latency(s)  cost($)");
    for budget in [0.005f64, 0.01, 0.02, 0.04, 0.10] {
        let plan = planner.plan_within(&wl, budget);
        println!(
            "{:>9.3}  {:>8}  {:>10.1}  {:>7.4}",
            budget, plan.workers, plan.predicted.makespan_s, plan.predicted.cost_dollars
        );
    }

    let fastest = planner.plan(&wl);
    println!(
        "\nlatency-optimal (no budget): {} workers, {:.1}s, ${:.4}",
        fastest.workers, fastest.predicted.makespan_s, fastest.predicted.cost_dollars
    );
}
