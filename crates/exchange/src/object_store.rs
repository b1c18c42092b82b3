//! The paper's serverless exchange: every byte through object storage.

use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Ctx, LocalBoxFuture};
use faaspipe_store::ObjectStore;
use parking_lot::Mutex;

use crate::api::{dense_parts, DataExchange, ExchangeEnv, ExchangeStrategy};
use crate::error::ExchangeError;
use crate::retry::run_requests;

/// Exchange through the simulated COS, in either the `Scatter` (W²
/// objects) or `Coalesced` (W objects + byte-range reads) layout.
///
/// Coalesced offset tables travel through the backend itself, modelling
/// the Lithops result objects that carry them back to the orchestrator.
/// [`cleanup`](DataExchange::cleanup) intentionally leaves the
/// intermediate objects in place — the paper's pipelines rely on bucket
/// lifecycle expiry, and keeping them lets experiments inspect the
/// layout after a run.
pub struct ObjectStoreExchange {
    store: Arc<ObjectStore>,
    bucket: String,
    prefix: String,
    layout: ExchangeStrategy,
    /// Sparse per-mapper offset tables for the coalesced layout.
    index: Mutex<CoalescedIndex>,
}

/// Sparse per-mapper offset index for the coalesced layout: only
/// non-empty partitions get `(part, offset, len)` entries, with a
/// per-mapper part count to tell "written but empty" apart from "never
/// written". The dense W×W table this replaces held 268M entries at
/// W=16384 — nearly all zero-length once records spread thin.
#[derive(Default)]
struct CoalescedIndex {
    /// Per mapper: how many partitions its write produced (0 = never
    /// written).
    parts_len: Vec<u32>,
    /// Per mapper: `(part, offset, len)` for non-empty partitions only,
    /// part-ascending (so lookups binary-search).
    tables: Vec<Vec<(u32, u64, u64)>>,
    /// Per *part*: `(map, offset, len)` for non-empty partitions only,
    /// map-ascending — the reducer-side view of `tables`, rebuilt lazily
    /// after writes so a whole-column gather is O(non-empty).
    by_part: Vec<Vec<(u32, u64, u64)>>,
    by_part_valid: bool,
    /// Mappers recorded so far (each counted once).
    recorded: usize,
    /// Minimum `parts_len` among recorded mappers (`u32::MAX` if none):
    /// the O(1) availability fast path for gathers.
    min_parts_len: u32,
}

impl CoalescedIndex {
    fn reset(&mut self, maps: usize) {
        self.parts_len.clear();
        self.parts_len.resize(maps, 0);
        self.tables.clear();
        self.tables.resize_with(maps, Vec::new);
        self.by_part.clear();
        self.by_part_valid = false;
        self.recorded = 0;
        self.min_parts_len = u32::MAX;
    }

    fn record(&mut self, map: usize, parts_len: usize, table: Vec<(u32, u64, u64)>) {
        if self.parts_len.len() <= map {
            self.parts_len.resize(map + 1, 0);
            self.tables.resize_with(map + 1, Vec::new);
        }
        if self.parts_len[map] == 0 {
            self.recorded += 1;
        }
        self.parts_len[map] = parts_len as u32;
        self.min_parts_len = self.min_parts_len.min(parts_len as u32);
        self.tables[map] = table;
        self.by_part_valid = false;
    }

    /// The non-empty `(map, offset, len)` entries of column `part` over
    /// mappers `0..maps`, map-ascending, after verifying every one of
    /// those mappers wrote the column (same first-failure the dense
    /// per-request lookups produced).
    fn gather(&mut self, maps: usize, part: usize) -> Result<Vec<(u32, u64, u64)>, ExchangeError> {
        let complete = self.recorded == self.parts_len.len()
            && maps <= self.parts_len.len()
            && (part as u32) < self.min_parts_len;
        if !complete {
            for map in 0..maps {
                let written = self.parts_len.get(map).copied().unwrap_or(0);
                if part >= written as usize {
                    return Err(ExchangeError::MissingPartition { map, part });
                }
            }
        }
        if !self.by_part_valid {
            let parts = self.parts_len.iter().copied().max().unwrap_or(0) as usize;
            self.by_part.clear();
            self.by_part.resize_with(parts, Vec::new);
            for (m, table) in self.tables.iter().enumerate() {
                for &(p, off, len) in table {
                    self.by_part[p as usize].push((m as u32, off, len));
                }
            }
            self.by_part_valid = true;
        }
        Ok(self
            .by_part
            .get(part)
            .map(|column| {
                column
                    .iter()
                    .copied()
                    .filter(|&(m, _, _)| (m as usize) < maps)
                    .collect()
            })
            .unwrap_or_default())
    }
}

impl std::fmt::Debug for ObjectStoreExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStoreExchange")
            .field("bucket", &self.bucket)
            .field("prefix", &self.prefix)
            .field("layout", &self.layout)
            .finish()
    }
}

impl ObjectStoreExchange {
    /// Creates a backend writing intermediates under
    /// `{prefix}{map:05}[/{part:05}]` in `bucket`.
    pub fn new(
        store: Arc<ObjectStore>,
        bucket: impl Into<String>,
        prefix: impl Into<String>,
        layout: ExchangeStrategy,
    ) -> ObjectStoreExchange {
        ObjectStoreExchange {
            store,
            bucket: bucket.into(),
            prefix: prefix.into(),
            layout,
            index: Mutex::new(CoalescedIndex::default()),
        }
    }

    fn scatter_key(&self, map: usize, part: usize) -> String {
        format!("{}{:05}/{:05}", self.prefix, map, part)
    }

    fn coalesced_key(&self, map: usize) -> String {
        format!("{}{:05}", self.prefix, map)
    }

    /// Sends `reqs` through the request funnel. A connection is a store
    /// client over the caller's links; a PUT answers with an empty
    /// payload.
    async fn send(
        &self,
        ctx: &mut Ctx,
        env: &ExchangeEnv,
        verb: &str,
        logical_total: usize,
        reqs: Vec<StoreRequest>,
    ) -> Result<Vec<Bytes>, ExchangeError> {
        let store = Arc::clone(&self.store);
        let bucket = self.bucket.clone();
        let connect = async move |c: &Ctx, env: &ExchangeEnv| {
            let client = store.connect_via(c, env.tag.clone(), &env.host_links).await;
            let bucket = bucket.clone();
            async move |c: &mut Ctx, _: &ExchangeEnv, req: &StoreRequest| {
                Ok(match req {
                    StoreRequest::Put(key, data) => {
                        client.put(c, &bucket, key, data.clone()).await?;
                        Bytes::new()
                    }
                    StoreRequest::Get(key) => client.get(c, &bucket, key).await?,
                    StoreRequest::Range(key, off, len) => {
                        client.get_range(c, &bucket, key, *off, *len).await?
                    }
                })
            }
        };
        let trace = self.store.trace_sink();
        run_requests(ctx, env, &trace, verb, logical_total, reqs, connect).await
    }
}

/// One store request of the exchange.
enum StoreRequest {
    /// Whole-object PUT.
    Put(String, Bytes),
    /// Whole-object GET (scatter layout).
    Get(String),
    /// Byte-range GET (coalesced layout).
    Range(String, u64, u64),
}

impl DataExchange for ObjectStoreExchange {
    fn prepare<'a>(
        &'a self,
        _ctx: &'a mut Ctx,
        maps: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        self.index.lock().reset(maps);
        Box::pin(async { Ok(()) })
    }

    fn write_run<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        run: Bytes,
        cuts: Vec<(u32, u64, u64)>,
        parts_len: usize,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>> {
        Box::pin(async move {
            let written = run.len() as u64;
            let puts: Vec<StoreRequest> = match self.layout {
                // The coalesced blob IS the run (partitions concatenated
                // in part order): one PUT, and the cut list goes straight
                // into the sparse index — O(cuts) host work.
                ExchangeStrategy::Coalesced => {
                    vec![StoreRequest::Put(self.coalesced_key(map), run)]
                }
                // Scatter stores one object per partition, empty ones
                // included.
                ExchangeStrategy::Scatter => dense_parts(&run, &cuts, parts_len)
                    .into_iter()
                    .enumerate()
                    .map(|(j, data)| StoreRequest::Put(self.scatter_key(map, j), data))
                    .collect(),
            };
            self.send(ctx, env, "put", puts.len(), puts).await?;
            if self.layout == ExchangeStrategy::Coalesced {
                self.index.lock().record(map, parts_len, cuts);
            }
            Ok(written)
        })
    }

    fn read_gather<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        maps: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>> {
        Box::pin(async move {
            let fetches: Vec<StoreRequest> = match self.layout {
                // Every scatter partition is a real object — empty ones
                // included — so the column costs `maps` real GETs.
                ExchangeStrategy::Scatter => (0..maps)
                    .map(|m| StoreRequest::Get(self.scatter_key(m, part)))
                    .collect(),
                // Coalesced: resolve the column straight from the by-part
                // index — one lock, O(non-empty) — before touching the
                // simulation. Empty partitions issue no request at all;
                // the funnel still sizes its workers for all `maps`.
                ExchangeStrategy::Coalesced => self
                    .index
                    .lock()
                    .gather(maps, part)?
                    .into_iter()
                    .map(|(m, off, len)| {
                        StoreRequest::Range(self.coalesced_key(m as usize), off, len)
                    })
                    .collect(),
            };
            let runs = self.send(ctx, env, "get", maps, fetches).await?;
            Ok(runs.into_iter().filter(|r| !r.is_empty()).collect())
        })
    }

    fn cleanup<'a>(
        &'a self,
        _ctx: &'a mut Ctx,
        _env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>> {
        // Intentionally retained: see the type-level docs.
        Box::pin(async { Ok(()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::write_dense;
    use crate::{
        DirectConfig, DirectExchange, ExchangeKind, ShardedRelayConfig, ShardedRelayExchange,
    };
    use faaspipe_des::{Sim, SimDuration};
    use faaspipe_store::{StoreConfig, StoreError};
    use faaspipe_vm::VmFleet;

    fn roundtrip(layout: ExchangeStrategy) -> (Arc<ObjectStore>, Vec<String>) {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            layout,
        ));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(&mut ctx, 2).await.expect("prepare");
            for m in 0..2usize {
                let parts = vec![
                    Bytes::from(format!("m{}p0", m)),
                    Bytes::from(format!("m{}p1", m)),
                ];
                let written = write_dense(&*ex2, &mut ctx, &env, m, parts)
                    .await
                    .expect("write");
                assert_eq!(written, 8);
            }
            for j in 0..2usize {
                let column = ex2.read_gather(&mut ctx, &env, 2, j).await.expect("read");
                let want: Vec<Bytes> = (0..2)
                    .map(|m| Bytes::from(format!("m{}p{}", m, j)))
                    .collect();
                assert_eq!(column, want);
            }
            ex2.cleanup(&mut ctx, &env).await.expect("cleanup");
        });
        sim.run().expect("sim ok");
        let keys = store.keys_untimed("data", "part/");
        (store, keys)
    }

    #[test]
    fn scatter_layout_writes_w_squared_objects() {
        let (_, keys) = roundtrip(ExchangeStrategy::Scatter);
        assert_eq!(
            keys,
            vec![
                "part/00000/00000",
                "part/00000/00001",
                "part/00001/00000",
                "part/00001/00001"
            ]
        );
    }

    #[test]
    fn coalesced_layout_writes_one_object_per_mapper() {
        let (store, keys) = roundtrip(ExchangeStrategy::Coalesced);
        assert_eq!(keys, vec!["part/00000", "part/00001"]);
        // Far fewer class-A requests than scatter: 2 PUTs, not 4.
        assert_eq!(store.metrics().total().class_a, 2);
    }

    #[test]
    fn coalesced_empty_partition_reads_skip_the_request() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        store.create_bucket("data").expect("bucket");
        let ex = Arc::new(ObjectStoreExchange::new(
            Arc::clone(&store),
            "data",
            "part/",
            ExchangeStrategy::Coalesced,
        ));
        let ex2 = Arc::clone(&ex);
        sim.spawn("driver", move |mut ctx| async move {
            let env = ExchangeEnv::driver("test", 3);
            ex2.prepare(&mut ctx, 1).await.expect("prepare");
            write_dense(
                &*ex2,
                &mut ctx,
                &env,
                0,
                vec![Bytes::from("xy"), Bytes::new()],
            )
            .await
            .expect("write");
            let before = store.metrics().total().class_b;
            let column = ex2
                .read_gather(&mut ctx, &env, 1, 1)
                .await
                .expect("read empty");
            assert!(column.is_empty());
            assert_eq!(store.metrics().total().class_b, before, "no GET issued");
        });
        sim.run().expect("sim ok");
    }

    /// A reducer's gather returns only the non-empty runs of its
    /// column, map-ascending, on every backend and both sides of the
    /// funnel's sequential/windowed split — and a never-written mapper
    /// fails with that backend's own error.
    #[test]
    fn read_gather_skips_empty_runs_and_flags_missing_mappers() {
        let kinds = [
            ExchangeKind::Scatter,
            ExchangeKind::Coalesced,
            ExchangeKind::VmRelay,
            ExchangeKind::ShardedRelay {
                shards: 3,
                prewarm: false,
            },
            ExchangeKind::Direct,
        ];
        for kind in kinds {
            for io_window in [1, 4] {
                let mut sim = Sim::new();
                let ex: Arc<dyn DataExchange> = if let Some((shards, prewarm)) = kind.relay_fleet()
                {
                    Arc::new(ShardedRelayExchange::new(
                        VmFleet::new(),
                        ShardedRelayConfig {
                            shards,
                            prewarm,
                            ..ShardedRelayConfig::default()
                        },
                    ))
                } else if kind == ExchangeKind::Direct {
                    Arc::new(DirectExchange::new(DirectConfig {
                        rendezvous_timeout: SimDuration::from_secs(1),
                        ..DirectConfig::default()
                    }))
                } else {
                    let store = ObjectStore::install(&mut sim, StoreConfig::default());
                    store.create_bucket("data").expect("bucket");
                    Arc::new(ObjectStoreExchange::new(
                        store,
                        "data",
                        "part/",
                        kind.layout(),
                    ))
                };
                let missing = match kind {
                    ExchangeKind::Scatter => ExchangeError::Store(StoreError::NoSuchKey {
                        bucket: "data".into(),
                        key: "part/00003/00000".into(),
                    }),
                    ExchangeKind::Direct => ExchangeError::PeerTimeout { map: 3, part: 0 },
                    _ => ExchangeError::MissingPartition { map: 3, part: 0 },
                };
                sim.spawn("driver", move |mut ctx| async move {
                    let env = ExchangeEnv {
                        io_window,
                        ..ExchangeEnv::driver("test", 3)
                    };
                    let case = format!("{} at io_window {}", kind, io_window);
                    ex.prepare(&mut ctx, 3).await.expect("prepare");
                    let columns = [
                        vec![Bytes::from("a0"), Bytes::new()],
                        vec![Bytes::new(), Bytes::from("b1")],
                        vec![Bytes::from("c0"), Bytes::from("c1")],
                    ];
                    for (m, parts) in columns.into_iter().enumerate() {
                        write_dense(&*ex, &mut ctx, &env, m, parts)
                            .await
                            .expect("write");
                    }
                    let col0 = ex
                        .read_gather(&mut ctx, &env, 3, 0)
                        .await
                        .expect("gather 0");
                    assert_eq!(col0, vec![Bytes::from("a0"), Bytes::from("c0")], "{}", case);
                    let col1 = ex
                        .read_gather(&mut ctx, &env, 3, 1)
                        .await
                        .expect("gather 1");
                    assert_eq!(col1, vec![Bytes::from("b1"), Bytes::from("c1")], "{}", case);
                    let err = ex
                        .read_gather(&mut ctx, &env, 4, 0)
                        .await
                        .expect_err("missing mapper");
                    assert_eq!(err, missing, "{}", case);
                    ex.cleanup(&mut ctx, &env).await.expect("cleanup");
                });
                sim.run().expect("sim ok");
            }
        }
    }
}
