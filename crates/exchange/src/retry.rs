//! The shared virtual-time retry helper, and the one funnel every
//! exchange backend sends its request batches through.

use faaspipe_des::{Ctx, SimDuration};
use faaspipe_store::StoreError;
use faaspipe_trace::TraceSink;
use rand::Rng;

use crate::api::ExchangeEnv;
use crate::error::ExchangeError;

/// Classifies an error as worth retrying (transient) or terminal.
pub trait Retryable {
    /// Whether a retry of the same operation can plausibly succeed.
    fn is_retryable(&self) -> bool;
}

impl Retryable for StoreError {
    fn is_retryable(&self) -> bool {
        matches!(self, StoreError::Injected { .. })
    }
}

/// First backoff step after a failed attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Backoff ceiling — later attempts never sleep longer than this (before
/// jitter).
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(5_000);

/// Retries the async closure `op` up to `attempts` times on
/// [retryable](Retryable) errors, re-invoking it per attempt and
/// sleeping an exponentially growing, jittered backoff in **virtual
/// time** between attempts. The jitter is drawn from the calling
/// process's deterministic DES rng, so same-seed runs retry identically.
/// Non-retryable errors surface immediately.
///
/// # Errors
/// The last retryable error if every attempt failed, or the first
/// non-retryable error.
pub async fn with_retry<T, E: Retryable, Op>(
    ctx: &mut Ctx,
    attempts: u32,
    mut op: Op,
) -> Result<T, E>
where
    Op: AsyncFnMut(&mut Ctx) -> Result<T, E>,
{
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match op(ctx).await {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                last = Some(e);
                if attempt + 1 < attempts {
                    let pause = backoff(ctx, attempt);
                    ctx.sleep(pause).await;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Backoff before retry number `attempt + 2`: `BASE * 2^attempt`,
/// capped, scaled by a jitter factor in `[0.5, 1.5)`.
fn backoff(ctx: &mut Ctx, attempt: u32) -> SimDuration {
    let exp = BACKOFF_BASE
        .saturating_mul(1u64 << attempt.min(16))
        .max(BACKOFF_BASE);
    let capped = if exp > BACKOFF_CAP { BACKOFF_CAP } else { exp };
    let jitter = 0.5 + ctx.rng().gen::<f64>();
    capped.mul_f64(jitter)
}

/// Runs a batch of retried exchange requests and returns their results
/// in request order. Every backend's request batches go through here.
///
/// `connect` opens a connection and returns the function that sends one
/// attempt of a request over it; each request runs under [`with_retry`]
/// with `env.retries` attempts.
///
/// With `env.io_window <= 1` or a `logical_total` of at most one, the
/// requests run one after another on the caller's process over a single
/// connection, and the first error ends the batch. Otherwise they fan
/// out through [`Ctx::fan_out_pinned`] to `min(io_window,
/// logical_total)` workers named `"{tag}-{verb}#i"`. Each request there
/// opens its own connection and parents its spans to the caller's
/// current span, and the first error in request order is returned once
/// every request has finished.
///
/// `logical_total` is the size of the batch before the caller elided the
/// requests that would never leave the host. Pinning the worker count to
/// it keeps pid order and the virtual-time schedule independent of how
/// many were elided.
pub(crate) async fn run_requests<Q, T, S, Connect>(
    ctx: &mut Ctx,
    env: &ExchangeEnv,
    trace: &TraceSink,
    verb: &str,
    logical_total: usize,
    reqs: Vec<Q>,
    connect: Connect,
) -> Result<Vec<T>, ExchangeError>
where
    Q: 'static,
    T: 'static,
    S: AsyncFn(&mut Ctx, &ExchangeEnv, &Q) -> Result<T, ExchangeError>,
    Connect: AsyncFn(&Ctx, &ExchangeEnv) -> S + Clone + 'static,
{
    if env.io_window <= 1 || logical_total <= 1 {
        let send = connect(ctx, env).await;
        let mut out = Vec::with_capacity(reqs.len());
        for req in &reqs {
            out.push(
                with_retry(ctx, env.retries, async |c: &mut Ctx| {
                    send(c, env, req).await
                })
                .await?,
            );
        }
        return Ok(out);
    }
    let parent = trace.current(ctx.pid());
    let jobs: Vec<_> = reqs
        .into_iter()
        .map(|req| {
            let env = env.clone();
            let trace = trace.clone();
            let connect = connect.clone();
            async move |cctx: &mut Ctx| {
                trace.enter(cctx.pid(), parent);
                let send = connect(cctx, &env).await;
                let res = with_retry(cctx, env.retries, async |c: &mut Ctx| {
                    send(c, &env, &req).await
                })
                .await;
                trace.exit(cctx.pid());
                res
            }
        })
        .collect();
    let name = format!("{}-{}", env.tag, verb);
    ctx.fan_out_pinned(&name, env.io_window, logical_total, jobs)
        .await
        .unwrap_or_else(|e| panic!("windowed exchange {} crashed: {}", verb, e))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;

    #[test]
    fn gives_up_after_attempts_and_sleeps_between_them() {
        let mut sim = Sim::new();
        sim.spawn("p", |mut ctx| async move {
            let mut calls = 0;
            let before = ctx.now();
            let result: Result<(), StoreError> = with_retry(&mut ctx, 3, async |_| {
                calls += 1;
                Err(StoreError::Injected { op: "GET" })
            })
            .await;
            assert!(result.is_err());
            assert_eq!(calls, 3);
            // Two backoff sleeps happened: at least BASE/2 each.
            let waited = ctx.now().saturating_duration_since(before);
            assert!(waited >= SimDuration::from_millis(10));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn non_retryable_errors_do_not_retry() {
        let mut sim = Sim::new();
        sim.spawn("p", |mut ctx| async move {
            let mut calls = 0;
            let before = ctx.now();
            let result: Result<(), StoreError> = with_retry(&mut ctx, 5, async |_| {
                calls += 1;
                Err(StoreError::NoSuchKey {
                    bucket: "b".into(),
                    key: "k".into(),
                })
            })
            .await;
            assert!(result.is_err());
            assert_eq!(calls, 1);
            assert_eq!(ctx.now(), before, "no backoff for terminal errors");
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn success_is_immediate_and_free() {
        let mut sim = Sim::new();
        sim.spawn("p", |mut ctx| async move {
            let before = ctx.now();
            let v: Result<u32, StoreError> = with_retry(&mut ctx, 3, async |_| Ok(42)).await;
            assert_eq!(v.unwrap(), 42);
            assert_eq!(ctx.now(), before);
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        let mut sim = Sim::new();
        sim.spawn("p", |mut ctx| async move {
            // Jitter is in [0.5, 1.5), so bounds are deterministic.
            let b0 = backoff(&mut ctx, 0);
            assert!(b0 >= SimDuration::from_millis(5) && b0 < SimDuration::from_millis(15));
            let b4 = backoff(&mut ctx, 4);
            assert!(b4 >= SimDuration::from_millis(80) && b4 < SimDuration::from_millis(240));
            let huge = backoff(&mut ctx, 40);
            assert!(huge < SimDuration::from_millis(7_500), "cap applies");
        });
        sim.run().expect("sim ok");
    }
}
