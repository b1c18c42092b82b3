//! Enumerating and pruning the (W, K, backend, shards) space.
//!
//! The planner walks a ladder of worker counts, a ladder of I/O
//! windows, and every exchange-backend family (scatter, coalesced,
//! direct, and the relay with each shard count × {cold, prewarm}),
//! asks the model ([`ModelParams::estimate`]) for each candidate, and
//! keeps the predicted-fastest configuration with a deterministic
//! tie-break (makespan, then bill, then fewer workers, then smaller
//! window, then enumeration order).
//!
//! Before expanding a worker count's (K, backend) sub-space, the
//! planner checks the model's cheap per-W lower bound
//! ([`ModelParams::lower_bound`]) against the best makespan found so
//! far and skips the whole sub-space when even the bound cannot win.
//! Pruning is *sound* for ranking — the bound never exceeds any real
//! estimate — so the pruned search returns exactly the exhaustive
//! search's pick (asserted by a test below), just after fewer model
//! evaluations. The whole search is closed-form arithmetic: the
//! Criterion bench (`benches/plan.rs`) keeps a full enumeration well
//! under a millisecond, which is what makes `--exchange auto` free at
//! stage-launch time.
//!
//! [`Planner::frontier`] walks the same grid for the latency/cost
//! trade-off instead: the Pareto-optimal plans, from which
//! [`Planner::plan_within`] reads the fastest plan a budget affords.

use faaspipe_exchange::ExchangeKind;

use crate::model::{Candidate, Estimate, ModelParams, Workload};

/// The candidate grid the planner enumerates. [`SearchSpace::default`]
/// covers the paper's experimental ranges; constraints narrow it when
/// the user pins a dimension (e.g. `--workers 16 --exchange auto` plans
/// only K, backend, and shards; `"workers": "auto"` with an explicit
/// backend plans only W).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Worker-count ladder (ascending).
    pub workers: Vec<usize>,
    /// I/O-window ladder (ascending).
    pub io_windows: Vec<usize>,
    /// Concrete backends to try, in enumeration order (the last
    /// tie-break).
    pub backends: Vec<ExchangeKind>,
}

impl Default for SearchSpace {
    /// The paper's ranges. The backends are scatter, coalesced, direct,
    /// then the relay at 1, 2, 4 and 8 shards, each cold and then
    /// pre-warmed. One cold shard is spelled [`ExchangeKind::VmRelay`]
    /// so explicit-backend runs and planned runs name identical
    /// configurations.
    fn default() -> SearchSpace {
        let mut backends = vec![
            ExchangeKind::Scatter,
            ExchangeKind::Coalesced,
            ExchangeKind::Direct,
        ];
        for shards in [1, 2, 4, 8] {
            for prewarm in [false, true] {
                backends.push(if shards == 1 && !prewarm {
                    ExchangeKind::VmRelay
                } else {
                    ExchangeKind::ShardedRelay { shards, prewarm }
                });
            }
        }
        SearchSpace {
            workers: vec![2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
            io_windows: vec![1, 2, 4, 8, 16],
            backends,
        }
    }
}

impl SearchSpace {
    /// Drops worker counts above `cap` (the platform's account limit or
    /// the executor's worker ceiling). Always keeps at least the
    /// smallest rung, clamped to the cap.
    pub fn cap_workers(mut self, cap: usize) -> SearchSpace {
        let cap = cap.max(1);
        self.workers.retain(|&w| w <= cap);
        if self.workers.is_empty() {
            self.workers.push(cap);
        }
        self
    }

    /// Pins the worker count (a `"workers": N` spec with
    /// `"exchange": "auto"` plans only the remaining dimensions).
    pub fn pin_workers(mut self, w: usize) -> SearchSpace {
        self.workers = vec![w.max(1)];
        self
    }

    /// Pins the I/O window.
    pub fn pin_io(mut self, k: usize) -> SearchSpace {
        self.io_windows = vec![k.max(1)];
        self
    }

    /// Pins the backend (a `"workers": "auto"` spec with an explicit
    /// `"exchange"` plans only W).
    ///
    /// # Panics
    /// Panics on [`ExchangeKind::Auto`]: the planner enumerates concrete
    /// backends only.
    pub fn pin_exchange(mut self, exchange: ExchangeKind) -> SearchSpace {
        assert!(
            exchange != ExchangeKind::Auto,
            "pin a concrete backend, not auto"
        );
        self.backends = vec![exchange];
        self
    }
}

/// The planner's pick: a fully concrete configuration, the model's
/// prediction for it, and search statistics for the trace span.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Chosen worker count W.
    pub workers: usize,
    /// Chosen I/O window K.
    pub io_concurrency: usize,
    /// Chosen backend — always concrete, never [`ExchangeKind::Auto`].
    pub exchange: ExchangeKind,
    /// The model's estimate for the chosen configuration.
    pub predicted: Estimate,
    /// Candidates the model evaluated.
    pub evaluated: usize,
    /// Candidates skipped by the per-W lower-bound prune.
    pub pruned: usize,
}

/// Searches a [`SearchSpace`] against a [`ModelParams`] fit.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Model parameters (calibrated or config-derived).
    pub params: ModelParams,
    /// Candidate grid.
    pub space: SearchSpace,
}

impl Planner {
    /// A planner over the default grid.
    pub fn new(params: ModelParams) -> Planner {
        Planner {
            params,
            space: SearchSpace::default(),
        }
    }

    /// Replaces the candidate grid.
    pub fn with_space(mut self, space: SearchSpace) -> Planner {
        self.space = space;
        self
    }

    /// Runs the pruned search and returns the predicted-optimal plan.
    ///
    /// Deterministic: the grid is walked in a fixed order and ties
    /// break on (makespan, bill, fewer workers, smaller window, first
    /// seen), so a given (params, space, workload) always yields the
    /// same plan.
    pub fn plan(&self, wl: &Workload) -> Plan {
        let cell = self.space.io_windows.len() * self.space.backends.len();
        let mut best: Option<Plan> = None;
        let mut evaluated = 0;
        let mut pruned = 0;
        // Walk the ladder top-down: wide fleets have small per-function
        // transfers, so a strong incumbent appears early and the
        // transfer-dominated small-W sub-spaces fail the bound.
        for &w in self.space.workers.iter().rev() {
            if let Some(b) = &best {
                if self.params.lower_bound(wl, w) >= b.predicted.makespan_s {
                    pruned += cell;
                    continue;
                }
            }
            for &k in &self.space.io_windows {
                for &exchange in &self.space.backends {
                    let cand = Candidate {
                        workers: w,
                        io_concurrency: k,
                        exchange,
                    };
                    let predicted = self.params.estimate(wl, &cand);
                    evaluated += 1;
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            let lhs = (predicted.makespan_s, predicted.cost_dollars, w, k);
                            let rhs = (
                                b.predicted.makespan_s,
                                b.predicted.cost_dollars,
                                b.workers,
                                b.io_concurrency,
                            );
                            lhs.partial_cmp(&rhs) == Some(std::cmp::Ordering::Less)
                        }
                    };
                    if better {
                        best = Some(Plan {
                            workers: w,
                            io_concurrency: k,
                            exchange,
                            predicted,
                            evaluated: 0,
                            pruned: 0,
                        });
                    }
                }
            }
        }
        let mut plan = best.expect("search space is never empty");
        plan.evaluated = evaluated;
        plan.pruned = pruned;
        plan
    }

    /// The latency/cost Pareto frontier: every plan that no other plan
    /// in the grid beats on both predicted makespan and bill, cheapest
    /// first, so the makespan falls along it. Ties break as in
    /// [`Planner::plan`], whose pick is the last plan here. Every
    /// candidate is evaluated (no pruning); each plan's `evaluated`
    /// counts them all.
    pub fn frontier(&self, wl: &Workload) -> Vec<Plan> {
        let mut all = Vec::new();
        for &workers in &self.space.workers {
            for &io_concurrency in &self.space.io_windows {
                for &exchange in &self.space.backends {
                    let cand = Candidate {
                        workers,
                        io_concurrency,
                        exchange,
                    };
                    all.push(Plan {
                        workers,
                        io_concurrency,
                        exchange,
                        predicted: self.params.estimate(wl, &cand),
                        evaluated: 0,
                        pruned: 0,
                    });
                }
            }
        }
        let evaluated = all.len();
        // Stable: equal (bill, makespan) keep the ascending (W, K,
        // backend) enumeration order.
        all.sort_by(|a, b| {
            let (a, b) = (&a.predicted, &b.predicted);
            a.cost_dollars
                .total_cmp(&b.cost_dollars)
                .then(a.makespan_s.total_cmp(&b.makespan_s))
        });
        let mut frontier: Vec<Plan> = Vec::new();
        for plan in all {
            if frontier
                .last()
                .is_none_or(|f| plan.predicted.makespan_s < f.predicted.makespan_s)
            {
                frontier.push(Plan { evaluated, ..plan });
            }
        }
        frontier
    }

    /// The fastest plan whose predicted bill fits `budget_dollars`, or
    /// the cheapest plan when none does. Read off
    /// [`Planner::frontier`]: the last frontier plan within budget, else
    /// its first.
    pub fn plan_within(&self, wl: &Workload, budget_dollars: f64) -> Plan {
        let mut frontier = self.frontier(wl);
        let fits = frontier
            .iter()
            .rposition(|p| p.predicted.cost_dollars <= budget_dollars)
            .unwrap_or(0);
        frontier.swap_remove(fits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_exchange::{DirectConfig, RelayConfig};
    use faaspipe_faas::FaasConfig;
    use faaspipe_shuffle::WorkModel;
    use faaspipe_store::StoreConfig;

    fn params() -> ModelParams {
        ModelParams::from_configs(
            &StoreConfig::default(),
            &FaasConfig::default(),
            &RelayConfig::default(),
            &DirectConfig::default(),
            &WorkModel::default(),
        )
    }

    fn workload() -> Workload {
        Workload {
            data_bytes: 3.5e9,
            input_chunks: 8,
            sample_read_bytes: 66.0e6,
            encode_workers: 8,
        }
    }

    #[test]
    fn plan_is_concrete_and_deterministic() {
        let planner = Planner::new(params());
        let wl = workload();
        let a = planner.plan(&wl);
        let b = planner.plan(&wl);
        assert_eq!(a, b);
        assert!(a.exchange != ExchangeKind::Auto);
        assert!(a.workers >= 2 && a.io_concurrency >= 1);
        assert!(a.evaluated > 0);
    }

    #[test]
    fn pruning_matches_the_exhaustive_search() {
        let p = params();
        let wl = workload();
        let pruned = Planner::new(p.clone()).plan(&wl);
        // Exhaustive reference: evaluate every candidate with no bound.
        let planner = Planner::new(p.clone());
        let mut best: Option<(f64, f64, usize, usize, ExchangeKind)> = None;
        for &w in &planner.space.workers {
            for &k in &planner.space.io_windows {
                for &exchange in &planner.space.backends {
                    let e = p.estimate(
                        &wl,
                        &Candidate {
                            workers: w,
                            io_concurrency: k,
                            exchange,
                        },
                    );
                    let key = (e.makespan_s, e.cost_dollars, w, k, exchange);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            (key.0, key.1, key.2, key.3).partial_cmp(&(b.0, b.1, b.2, b.3))
                                == Some(std::cmp::Ordering::Less)
                        }
                    };
                    if better {
                        best = Some(key);
                    }
                }
            }
        }
        let best = best.unwrap();
        assert_eq!(pruned.workers, best.2);
        assert_eq!(pruned.io_concurrency, best.3);
        assert_eq!(pruned.exchange, best.4);
        assert!(pruned.pruned > 0, "the bound should skip some sub-spaces");
    }

    #[test]
    fn pinned_dimensions_are_respected() {
        let plan = Planner::new(params())
            .with_space(
                SearchSpace::default()
                    .pin_workers(16)
                    .pin_io(4)
                    .pin_exchange(ExchangeKind::Direct),
            )
            .plan(&workload());
        assert_eq!(plan.workers, 16);
        assert_eq!(plan.io_concurrency, 4);
        assert_eq!(plan.exchange, ExchangeKind::Direct);
        assert_eq!(plan.evaluated, 1);
    }

    /// The sort stage of the paper's 3.5 GB shuffle on scatter at K = 4:
    /// the configuration `"workers": "auto"` tunes in E3, so only W is
    /// open.
    fn scatter_planner(p: ModelParams) -> Planner {
        Planner::new(p).with_space(
            SearchSpace::default()
                .pin_io(4)
                .pin_exchange(ExchangeKind::Scatter),
        )
    }

    fn sort_stage(data_bytes: f64) -> Workload {
        Workload {
            data_bytes,
            encode_workers: 0,
            ..workload()
        }
    }

    fn makespan(p: &ModelParams, wl: &Workload, workers: usize) -> f64 {
        p.estimate(
            wl,
            &Candidate {
                workers,
                io_concurrency: 4,
                exchange: ExchangeKind::Scatter,
            },
        )
        .makespan_s
    }

    #[test]
    fn interior_optimum_between_bandwidth_and_request_bound_extremes() {
        let p = params();
        let wl = sort_stage(3.5e9);
        let planner = scatter_planner(p.clone());
        let best = planner.plan(&wl);
        let (lo, hi) = (
            planner.space.workers[0],
            *planner.space.workers.last().unwrap(),
        );
        assert!(
            lo < best.workers && best.workers < hi,
            "picked {}",
            best.workers
        );
        assert!(best.predicted.makespan_s < makespan(&p, &wl, lo));
        assert!(best.predicted.makespan_s < makespan(&p, &wl, hi));
        // Too few workers are bandwidth-bound: twice the per-function
        // bandwidth helps a lot, a scarcer ops/s budget does not bite.
        let fast_bw = ModelParams {
            store_conn_bps: 2.0 * p.store_conn_bps,
            fn_nic_bps: 2.0 * p.fn_nic_bps,
            ..p.clone()
        };
        let slow_ops = ModelParams {
            store_ops_per_sec: p.store_ops_per_sec / 4.0,
            ..p.clone()
        };
        let base = makespan(&p, &wl, lo);
        assert!(makespan(&fast_bw, &wl, lo) < 0.8 * base);
        assert_eq!(makespan(&slow_ops, &wl, lo), base);
        // Too many workers are request-bound: the W² scatter requests
        // hit the ops/s throttle, and more bandwidth barely helps.
        let base = makespan(&p, &wl, hi);
        assert!(makespan(&slow_ops, &wl, hi) > 1.5 * base);
        assert!(makespan(&fast_bw, &wl, hi) > 0.9 * base);
    }

    #[test]
    fn cost_grows_with_workers_at_the_tail() {
        let p = params();
        let wl = sort_stage(3.5e9);
        let cost = |workers| {
            p.estimate(
                &wl,
                &Candidate {
                    workers,
                    io_concurrency: 4,
                    exchange: ExchangeKind::Scatter,
                },
            )
            .cost_dollars
        };
        assert!(cost(8) > 0.0);
        assert!(
            cost(256) > cost(8),
            "request costs must dominate eventually"
        );
    }

    #[test]
    fn more_data_wants_at_least_as_many_workers() {
        let planner = scatter_planner(params());
        let small = planner.plan(&sort_stage(100e6)).workers;
        let large = planner.plan(&sort_stage(10e9)).workers;
        assert!(small <= large, "small {} vs large {}", small, large);
    }

    #[test]
    fn scarcer_ops_budget_wants_at_most_as_many_workers() {
        let p = params();
        let wl = sort_stage(3.5e9);
        let with_ops = |ops: f64| {
            scatter_planner(ModelParams {
                store_ops_per_sec: ops,
                ..p.clone()
            })
            .plan(&wl)
            .workers
        };
        let (slow, fast) = (with_ops(300.0), with_ops(30_000.0));
        assert!(slow <= fast, "slow {} vs fast {}", slow, fast);
        assert!(slow < with_ops(p.store_ops_per_sec), "300 ops/s must bite");
    }

    /// The parts of a plan that describe the pick (search statistics
    /// differ between the pruned search and the frontier).
    fn pick(plan: &Plan) -> (usize, usize, ExchangeKind, Estimate) {
        (
            plan.workers,
            plan.io_concurrency,
            plan.exchange,
            plan.predicted,
        )
    }

    #[test]
    fn a_budget_trades_latency_for_cost() {
        let planner = scatter_planner(params());
        let wl = sort_stage(3.5e9);
        let fastest = planner.plan(&wl);
        let budget = fastest.predicted.cost_dollars / 2.0;
        let within = planner.plan_within(&wl, budget);
        assert!(within.workers < fastest.workers);
        assert!(within.predicted.cost_dollars <= budget);
        assert!(within.predicted.makespan_s > fastest.predicted.makespan_s);
        // An enormous budget reproduces the latency optimum; on the full
        // grid too.
        assert_eq!(pick(&planner.plan_within(&wl, 1e9)), pick(&fastest));
        let full = Planner::new(params());
        assert_eq!(
            pick(&full.plan_within(&workload(), 1e9)),
            pick(&full.plan(&workload()))
        );
    }

    #[test]
    fn an_impossible_budget_falls_back_to_the_cheapest_plan() {
        let p = params();
        let planner = Planner::new(p.clone());
        let wl = workload();
        let cheapest = planner.plan_within(&wl, 0.0);
        for &workers in &planner.space.workers {
            for &io_concurrency in &planner.space.io_windows {
                for &exchange in &planner.space.backends {
                    let e = p.estimate(
                        &wl,
                        &Candidate {
                            workers,
                            io_concurrency,
                            exchange,
                        },
                    );
                    assert!(cheapest.predicted.cost_dollars <= e.cost_dollars);
                }
            }
        }
    }

    #[test]
    fn frontier_is_monotone_and_ends_at_the_fastest_plan() {
        for planner in [scatter_planner(params()), Planner::new(params())] {
            let wl = sort_stage(3.5e9);
            let frontier = planner.frontier(&wl);
            assert!(frontier.len() > 1);
            for pair in frontier.windows(2) {
                let (a, b) = (&pair[0].predicted, &pair[1].predicted);
                assert!(a.cost_dollars <= b.cost_dollars, "cost must not fall");
                assert!(a.makespan_s > b.makespan_s, "makespan must fall");
            }
            let last = frontier.last().unwrap();
            assert_eq!(pick(last), pick(&planner.plan(&wl)));
        }
    }

    #[test]
    fn cap_keeps_at_least_one_rung() {
        let space = SearchSpace::default().cap_workers(1);
        assert_eq!(space.workers, vec![1]);
        let space = SearchSpace::default().cap_workers(64);
        assert!(space.workers.iter().all(|&w| w <= 64));
    }

    #[test]
    fn planner_beats_or_matches_the_naive_default() {
        // The pick must be at least as good as the untuned W=8, K=1
        // scatter configuration the paper starts from.
        let p = params();
        let wl = workload();
        let plan = Planner::new(p.clone()).plan(&wl);
        let naive = p.estimate(
            &wl,
            &Candidate {
                workers: 8,
                io_concurrency: 1,
                exchange: ExchangeKind::Scatter,
            },
        );
        assert!(plan.predicted.makespan_s <= naive.makespan_s);
    }

    #[test]
    fn relay_single_cold_shard_is_named_vm_relay() {
        let planner = Planner::new(params());
        let backends = &planner.space.backends;
        assert!(backends.contains(&ExchangeKind::VmRelay));
        assert!(!backends.contains(&ExchangeKind::ShardedRelay {
            shards: 1,
            prewarm: false
        }));
    }
}
