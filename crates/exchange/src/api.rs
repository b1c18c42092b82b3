//! The [`DataExchange`] trait and backend selection types.

use std::fmt;
use std::str::FromStr;

use bytes::Bytes;
use faaspipe_des::{Ctx, LinkId, LocalBoxFuture};

use crate::error::{ExchangeError, ExchangeParseError, ExchangeParseIssue};

/// How an object-store backend lays intermediates out across keys.
///
/// `Scatter` is the naive pattern: W² small objects. `Coalesced` is the
/// Primula-style I/O optimization: each mapper writes **one** object with
/// its partitions concatenated, and reducers issue byte-range GETs — the
/// same data volume with W× fewer class-A (write) requests and one
/// request-latency hit per mapper instead of W.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeStrategy {
    /// One object per (mapper, reducer) pair.
    #[default]
    Scatter,
    /// One object per mapper; reducers range-read their slice.
    Coalesced,
}

/// The full exchange-backend menu a pipeline stage can pick from: the
/// two object-store layouts plus the VM-relay and direct-streaming
/// backends. This is the value that flows through DAG specs, pipeline
/// configs, and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeKind {
    /// Object store, one object per (mapper, reducer) pair.
    #[default]
    Scatter,
    /// Object store, one coalesced object per mapper.
    Coalesced,
    /// Pocket-style in-memory relay on a provisioned VM: the relay
    /// fleet with one cold shard, under the paper's name.
    VmRelay,
    /// Direct function-to-function streaming (sender and receiver meet).
    Direct,
    /// A fleet of relay VMs with hashed partition routing; `prewarm`
    /// overlaps provisioning with the caller's next phase.
    ShardedRelay {
        /// Number of relay VMs (clamped to at least 1).
        shards: usize,
        /// Boot the shards in the background instead of blocking
        /// `prepare`.
        prewarm: bool,
    },
    /// Let the planner (`faaspipe-plan`) pick the backend — together
    /// with W, K, and shard count — from its calibrated cost/latency
    /// model. The executor resolves this to one of the concrete kinds
    /// before the stage launches; it never reaches a backend factory.
    Auto,
}

impl ExchangeKind {
    /// Every parameterless kind, in sweep order. `ShardedRelay` takes
    /// parameters and is swept explicitly where needed (E16).
    pub const ALL: [ExchangeKind; 4] = [
        ExchangeKind::Scatter,
        ExchangeKind::Coalesced,
        ExchangeKind::VmRelay,
        ExchangeKind::Direct,
    ];

    /// The base spec-file / CLI spelling, without parameters — see
    /// [`Display`](fmt::Display) for the full round-trippable form
    /// (`sharded_relay:4:prewarm`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExchangeKind::Scatter => "scatter",
            ExchangeKind::Coalesced => "coalesced",
            ExchangeKind::VmRelay => "vm_relay",
            ExchangeKind::Direct => "direct",
            ExchangeKind::ShardedRelay { .. } => "sharded_relay",
            ExchangeKind::Auto => "auto",
        }
    }

    /// The object-store layout this kind implies. Non-store backends
    /// report `Scatter` (the layout is then unused).
    pub fn layout(self) -> ExchangeStrategy {
        match self {
            ExchangeKind::Coalesced => ExchangeStrategy::Coalesced,
            _ => ExchangeStrategy::Scatter,
        }
    }

    /// The relay fleet a relay kind runs on, as `(shards, prewarm)`:
    /// [`VmRelay`](ExchangeKind::VmRelay) is one cold shard. `None` for
    /// every other kind.
    pub fn relay_fleet(self) -> Option<(usize, bool)> {
        match self {
            ExchangeKind::VmRelay => Some((1, false)),
            ExchangeKind::ShardedRelay { shards, prewarm } => Some((shards.max(1), prewarm)),
            _ => None,
        }
    }
}

impl fmt::Display for ExchangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExchangeKind::ShardedRelay { shards, prewarm } => {
                write!(f, "sharded_relay:{}", shards)?;
                if prewarm {
                    f.write_str(":prewarm")?;
                }
                Ok(())
            }
            kind => f.write_str(kind.as_str()),
        }
    }
}

impl FromStr for ExchangeKind {
    type Err = ExchangeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fail = |issue| {
            Err(ExchangeParseError {
                input: s.to_string(),
                issue,
            })
        };
        match s {
            "scatter" => Ok(ExchangeKind::Scatter),
            "coalesced" => Ok(ExchangeKind::Coalesced),
            "vm_relay" => Ok(ExchangeKind::VmRelay),
            "direct" => Ok(ExchangeKind::Direct),
            "auto" => Ok(ExchangeKind::Auto),
            other => {
                // `sharded_relay[:N][:prewarm]` — e.g. `sharded_relay`,
                // `sharded_relay:8`, `sharded_relay:4:prewarm`.
                let mut parts = other.split(':');
                if parts.next() == Some("sharded_relay") {
                    let mut shards = 4usize;
                    let mut prewarm = false;
                    for part in parts {
                        if part == "prewarm" {
                            prewarm = true;
                        } else if let Ok(n) = part.parse::<usize>() {
                            if n == 0 {
                                return fail(ExchangeParseIssue::ZeroShards);
                            }
                            shards = n;
                        } else {
                            return fail(ExchangeParseIssue::UnknownParameter {
                                parameter: part.to_string(),
                            });
                        }
                    }
                    return Ok(ExchangeKind::ShardedRelay { shards, prewarm });
                }
                fail(ExchangeParseIssue::UnknownKind)
            }
        }
    }
}

impl From<ExchangeStrategy> for ExchangeKind {
    fn from(s: ExchangeStrategy) -> Self {
        match s {
            ExchangeStrategy::Scatter => ExchangeKind::Scatter,
            ExchangeStrategy::Coalesced => ExchangeKind::Coalesced,
        }
    }
}

/// Per-caller context a backend needs to charge the right resources:
/// which NIC links the traffic traverses, how requests are tagged for
/// metrics/billing, and the retry budget.
#[derive(Debug, Clone)]
pub struct ExchangeEnv {
    /// Links on the caller's side of every transfer (e.g. the function
    /// container's NIC). Empty for driver-side calls.
    pub host_links: Vec<LinkId>,
    /// Metrics/billing tag, `"{sort-tag}/{phase}"` by convention.
    pub tag: String,
    /// Attempts per exchange request (fed to
    /// [`with_retry`](crate::with_retry)).
    pub retries: u32,
    /// Maximum concurrent in-flight requests of one batched exchange call
    /// ([`DataExchange::write_run`], [`DataExchange::read_gather`]). Every
    /// batch goes through the crate's one request funnel
    /// (`run_requests`), which fans out only when this exceeds `1`. At `1` (the historical behavior) the
    /// requests run strictly in sequence on the caller's process and no
    /// helper is spawned, so request order and rng draws are
    /// bit-identical to the pre-windowed code.
    pub io_window: usize,
}

impl ExchangeEnv {
    /// An env for driver-side calls (no NIC, a bare tag, `retries`
    /// attempts, sequential I/O).
    pub fn driver(tag: impl Into<String>, retries: u32) -> ExchangeEnv {
        ExchangeEnv {
            host_links: Vec::new(),
            tag: tag.into(),
            retries,
            io_window: 1,
        }
    }
}

/// An all-to-all intermediate data exchange between W mappers and W
/// reducers.
///
/// The shuffle calls [`prepare`](DataExchange::prepare) once from the
/// driver, then every mapper hands its sorted run to
/// [`write_run`](DataExchange::write_run), every reducer pulls its
/// column with [`read_gather`](DataExchange::read_gather), and the
/// driver ends with [`cleanup`](DataExchange::cleanup). All methods
/// charge virtual time (latency, bandwidth via the fluid-flow network,
/// provisioning where applicable) and record trace spans; all transient
/// faults are absorbed by the shared retry helper using `env.retries`.
///
/// Implementations must be idempotent under re-invocation: a crashed
/// mapper's re-run re-writes the same partitions, a reducer may read the
/// same column twice.
///
/// Methods return boxed local futures so the trait stays object-safe.
pub trait DataExchange: fmt::Debug + Send + Sync {
    /// Driver-side setup before the map phase: allocates bookkeeping for
    /// `maps` mappers and provisions backing resources (the relay
    /// backends pay their provisioning delay here).
    fn prepare<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        maps: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>>;

    /// Stores mapper `map`'s partitions given as one contiguous `run`
    /// buffer plus its sparse cut list: `cuts[i] = (part, offset, len)`
    /// says partition `part` is `run[offset..offset + len]`, the cuts
    /// are part-ascending and tile the run, and every partition in
    /// `0..parts_len` absent from `cuts` is empty. A backend that stores
    /// the concatenation anyway (the coalesced object-store layout) does
    /// O(cuts) host work; the others store all `parts_len` partitions,
    /// empty ones included. Returns the number of payload bytes written.
    fn write_run<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        run: Bytes,
        cuts: Vec<(u32, u64, u64)>,
        parts_len: usize,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>>;

    /// A reducer's whole-column gather: the non-empty runs of partition
    /// `part` from mappers `0..maps`, in ascending mapper order.
    ///
    /// Requests go out through the shared funnel, up to `env.io_window`
    /// in flight. Dropping empty runs is merge-neutral: a k-way merge's
    /// output never depends on the empty runs' positions.
    ///
    /// # Errors
    /// The backend's own error if any mapper in `0..maps` never wrote
    /// partition `part`: [`ExchangeError::MissingPartition`] from the
    /// coalesced and relay backends, a store `NoSuchKey` from the
    /// scatter layout, and [`ExchangeError::PeerTimeout`] from the
    /// direct backend once the rendezvous window runs out.
    fn read_gather<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        maps: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>>;

    /// Driver-side teardown after the reduce phase: releases backing
    /// resources (the relay backends stop their billing clocks here).
    fn cleanup<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>>;
}

/// The dense partition vector a [`DataExchange::write_run`] run stands
/// for: zero-copy slices of `run` at the cuts, empty everywhere else.
pub(crate) fn dense_parts(run: &Bytes, cuts: &[(u32, u64, u64)], parts_len: usize) -> Vec<Bytes> {
    let mut parts = vec![Bytes::new(); parts_len];
    for &(part, off, len) in cuts {
        parts[part as usize] = run.slice(off as usize..(off + len) as usize);
    }
    parts
}

/// Test helper: writes the dense partition vector `parts` through
/// [`DataExchange::write_run`], building the `(run, cuts)` pair the
/// shuffle's kernel would hand over.
#[cfg(test)]
pub(crate) async fn write_dense(
    ex: &dyn DataExchange,
    ctx: &mut Ctx,
    env: &ExchangeEnv,
    map: usize,
    parts: Vec<Bytes>,
) -> Result<u64, ExchangeError> {
    let mut run = Vec::new();
    let mut cuts = Vec::new();
    for (j, data) in parts.iter().enumerate() {
        if !data.is_empty() {
            cuts.push((j as u32, run.len() as u64, data.len() as u64));
            run.extend_from_slice(data);
        }
    }
    ex.write_run(ctx, env, map, Bytes::from(run), cuts, parts.len())
        .await
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::error::EXCHANGE_KIND_FORMS;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in ExchangeKind::ALL {
            assert_eq!(kind.to_string().parse::<ExchangeKind>().unwrap(), kind);
        }
        assert_eq!("auto".parse::<ExchangeKind>().unwrap(), ExchangeKind::Auto);
        assert_eq!(ExchangeKind::Auto.to_string(), "auto");
        assert!("quantum".parse::<ExchangeKind>().is_err());
    }

    #[test]
    fn parse_errors_list_the_valid_forms() {
        for bad in ["quantum", "sharded_relay:0", "sharded_relay:fast", ""] {
            let err = bad.parse::<ExchangeKind>().unwrap_err();
            assert_eq!(err.input, bad);
            let msg = err.to_string();
            assert!(
                msg.contains(EXCHANGE_KIND_FORMS),
                "error for '{}' must list the valid forms, got: {}",
                bad,
                msg
            );
        }
        assert!("sharded_relay:fast"
            .parse::<ExchangeKind>()
            .unwrap_err()
            .to_string()
            .contains("unknown parameter 'fast'"));
    }

    fn any_kind() -> impl Strategy<Value = ExchangeKind> {
        prop_oneof![
            Just(ExchangeKind::Scatter),
            Just(ExchangeKind::Coalesced),
            Just(ExchangeKind::VmRelay),
            Just(ExchangeKind::Direct),
            Just(ExchangeKind::Auto),
            (1usize..512, any::<bool>())
                .prop_map(|(shards, prewarm)| ExchangeKind::ShardedRelay { shards, prewarm }),
        ]
    }

    proptest! {
        #[test]
        fn display_from_str_round_trips(kind in any_kind()) {
            let text = kind.to_string();
            prop_assert_eq!(text.parse::<ExchangeKind>().unwrap(), kind);
        }

        #[test]
        fn junk_never_parses_and_always_names_the_grammar(
            text in proptest::collection::vec(0usize..38, 0..24).prop_map(|ix| {
                const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_:";
                ix.into_iter().map(|i| CHARS[i] as char).collect::<String>()
            }),
        ) {
            // Skip the strings that *are* in the grammar.
            if let Err(err) = text.parse::<ExchangeKind>() {
                prop_assert!(err.to_string().contains(EXCHANGE_KIND_FORMS));
                prop_assert_eq!(err.input, text);
            }
        }
    }

    #[test]
    fn sharded_kind_round_trips_with_parameters() {
        for (shards, prewarm) in [(1, false), (4, true), (8, false), (8, true)] {
            let kind = ExchangeKind::ShardedRelay { shards, prewarm };
            assert_eq!(kind.to_string().parse::<ExchangeKind>().unwrap(), kind);
        }
        assert_eq!(
            "sharded_relay:4:prewarm".to_string(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
            .to_string()
        );
        // Bare and partial spellings default to 4 shards, no prewarm.
        assert_eq!(
            "sharded_relay".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: false
            }
        );
        assert_eq!(
            "sharded_relay:prewarm".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
        );
        assert_eq!(
            "sharded_relay:2".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 2,
                prewarm: false
            }
        );
        assert!("sharded_relay:0".parse::<ExchangeKind>().is_err());
        assert!("sharded_relay:fast".parse::<ExchangeKind>().is_err());
    }

    #[test]
    fn kind_layouts() {
        assert_eq!(ExchangeKind::Scatter.layout(), ExchangeStrategy::Scatter);
        assert_eq!(
            ExchangeKind::Coalesced.layout(),
            ExchangeStrategy::Coalesced
        );
        assert_eq!(ExchangeKind::VmRelay.layout(), ExchangeStrategy::Scatter);
        assert_eq!(ExchangeKind::Direct.layout(), ExchangeStrategy::Scatter);
        assert_eq!(
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
            .layout(),
            ExchangeStrategy::Scatter
        );
    }

    #[test]
    fn vm_relay_is_the_one_cold_shard_fleet() {
        assert_eq!(ExchangeKind::VmRelay.relay_fleet(), Some((1, false)));
        assert_eq!(
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
            .relay_fleet(),
            Some((4, true))
        );
        assert_eq!(ExchangeKind::Coalesced.relay_fleet(), None);
        assert_eq!(ExchangeKind::Direct.relay_fleet(), None);
    }

    #[test]
    fn kind_from_strategy() {
        assert_eq!(
            ExchangeKind::from(ExchangeStrategy::Coalesced),
            ExchangeKind::Coalesced
        );
        assert_eq!(
            ExchangeKind::from(ExchangeStrategy::Scatter),
            ExchangeKind::Scatter
        );
    }

    #[test]
    fn driver_env_has_no_links() {
        let env = ExchangeEnv::driver("sort/driver", 3);
        assert!(env.host_links.is_empty());
        assert_eq!(env.tag, "sort/driver");
        assert_eq!(env.retries, 3);
        assert_eq!(env.io_window, 1, "driver calls stay sequential");
    }
}
