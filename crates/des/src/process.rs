//! Simulation processes and the [`Ctx`] handle they use to interact with
//! the simulation kernel.
//!
//! A process is a stackless task: its body is an `async` future that the
//! scheduler polls on its own thread. Every simulation operation
//! (`sleep`, `sem_acquire`, `transfer`, `spawn`, `join`, …) is a yield
//! point — the future deposits its request in a shared `OpCell` and
//! returns `Poll::Pending`; the scheduler services the request and
//! re-polls when the virtual-time condition is met. A suspended process
//! is a small heap-allocated state machine.
//!
//! The scheduler polls exactly one process at a time and only CPU kernels
//! handed to [`Ctx::offload`] run on other threads, so host thread
//! scheduling never influences simulation outcomes.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context as PollContext, Poll};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::flow::{FlowSpec, LinkId};
use crate::resources::{LimiterId, SemId};
use crate::units::{Bandwidth, ByteSize, SimDuration, SimTime};

/// Identifies a process within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// The dense index of this process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Error returned by [`Ctx::join`] when the joined process panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError {
    /// Name of the process that failed.
    pub process: String,
    /// Rendered panic payload.
    pub message: String,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "process '{}' panicked: {}", self.process, self.message)
    }
}

impl std::error::Error for JoinError {}

/// A boxed future pinned on the scheduler thread. Task futures are
/// created and polled only there, so they need not be `Send`.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// The body of a simulation process: receives its owned [`Ctx`] and
/// returns the process future.
pub(crate) type TaskFn = Box<dyn FnOnce(Ctx) -> LocalBoxFuture<'static, ()> + 'static>;

/// A CPU-heavy kernel dispatched to the offload pool, type-erased.
pub(crate) type OffloadJob = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send + 'static>;

/// Result of an offload job: the kernel's output, or its panic payload.
pub(crate) type OffloadOutcome = std::thread::Result<Box<dyn Any + Send>>;

/// Requests a process sends to the scheduler. Every request is acknowledged
/// before the process continues; "blocking" requests are acknowledged only
/// when the condition is met.
pub(crate) enum YieldMsg {
    Sleep(SimDuration),
    SemCreate(u64),
    SemAcquire(SemId, u64),
    SemRelease(SemId, u64),
    LimiterCreate { rate: f64, burst: f64 },
    LimiterAcquire(LimiterId, f64),
    LinkCreate(Bandwidth),
    Transfer(FlowSpec),
    Spawn { name: String, body: TaskFn },
    Join(ProcessId),
    Offload { d: SimDuration, job: OffloadJob },
}

/// Scheduler replies.
pub(crate) enum ResumeMsg {
    Go,
    Sem(SemId),
    Limiter(LimiterId),
    Link(LinkId),
    Pid(ProcessId),
    JoinResult(Result<(), JoinError>),
    /// Internal: the process sleeps until its offload deadline; the
    /// scheduler converts this to [`ResumeMsg::OffloadDone`] at wake,
    /// host-blocking for the kernel result only then.
    OffloadWait(u64),
    OffloadDone(OffloadOutcome),
}

impl std::fmt::Debug for ResumeMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeMsg::Go => write!(f, "Go"),
            ResumeMsg::Sem(id) => write!(f, "Sem({:?})", id),
            ResumeMsg::Limiter(id) => write!(f, "Limiter({:?})", id),
            ResumeMsg::Link(id) => write!(f, "Link({:?})", id),
            ResumeMsg::Pid(pid) => write!(f, "Pid({:?})", pid),
            ResumeMsg::JoinResult(r) => write!(f, "JoinResult({:?})", r),
            ResumeMsg::OffloadWait(t) => write!(f, "OffloadWait({})", t),
            ResumeMsg::OffloadDone(r) => {
                write!(
                    f,
                    "OffloadDone({})",
                    if r.is_ok() { "ok" } else { "panicked" }
                )
            }
        }
    }
}

/// The one-slot mailbox between a suspended task and the scheduler:
/// the task's pending operation goes in `request`, the scheduler's
/// answer comes back in `reply`. Single-threaded by construction (both
/// sides run on the scheduler thread), hence plain `RefCell`s.
#[derive(Default)]
pub(crate) struct OpCell {
    pub(crate) request: RefCell<Option<YieldMsg>>,
    pub(crate) reply: RefCell<Option<ResumeMsg>>,
}

/// Leaf future for one simulation operation of a process. First
/// poll deposits the request and suspends; the scheduler answers (now or
/// at the wake instant) and re-polls, completing the future.
struct OpFuture {
    cell: Rc<OpCell>,
    msg: Option<YieldMsg>,
}

impl Future for OpFuture {
    type Output = ResumeMsg;

    fn poll(self: Pin<&mut Self>, _cx: &mut PollContext<'_>) -> Poll<ResumeMsg> {
        let this = self.get_mut();
        if let Some(msg) = this.msg.take() {
            let prev = this.cell.request.borrow_mut().replace(msg);
            debug_assert!(
                prev.is_none(),
                "a task submitted a simulation op while another is pending"
            );
            return Poll::Pending;
        }
        match this.cell.reply.borrow_mut().take() {
            Some(reply) => Poll::Ready(reply),
            // Spurious poll before the scheduler answered; stay suspended.
            None => Poll::Pending,
        }
    }
}

/// Future adapter that converts a panic during `poll` into an `Err`,
/// allowing async process code to observe panics across `.await` points
/// (the async analogue of `std::panic::catch_unwind` around a closure).
pub struct CatchUnwind<F>(F);

impl<F: Future> Future for CatchUnwind<F> {
    type Output = std::thread::Result<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut PollContext<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of the only field; it is never moved.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.0) };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

/// Wraps `fut` so a panic in its body resolves to `Err(payload)` instead
/// of unwinding through the caller.
pub fn catch_unwind_future<F: Future>(fut: F) -> CatchUnwind<F> {
    CatchUnwind(fut)
}

/// Handle through which a process body interacts with the simulation.
///
/// Every method that models the passage of time or contention returns a
/// future that suspends the calling process until the scheduler reaches
/// the corresponding virtual instant; the others (`now`, `rng`, …) answer
/// immediately.
pub struct Ctx {
    pid: ProcessId,
    name: Rc<str>,
    clock: Rc<Cell<u64>>,
    cell: Rc<OpCell>,
    rng: SmallRng,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("now", &self.now())
            .finish()
    }
}

impl Ctx {
    pub(crate) fn new(
        pid: ProcessId,
        name: Rc<str>,
        clock: Rc<Cell<u64>>,
        cell: Rc<OpCell>,
        seed: u64,
    ) -> Self {
        let stream = seed ^ (pid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Ctx {
            pid,
            name,
            clock,
            cell,
            rng: SmallRng::seed_from_u64(stream),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's name (given at spawn time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.get())
    }

    /// A deterministic per-process random stream (seeded from the sim seed
    /// and the process id).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// One simulation op: deposit the request, suspend, and resume with
    /// the scheduler's answer.
    async fn call(&self, msg: YieldMsg) -> ResumeMsg {
        OpFuture {
            cell: Rc::clone(&self.cell),
            msg: Some(msg),
        }
        .await
    }

    /// Advances this process's virtual time by `d`.
    pub async fn sleep(&self, d: SimDuration) {
        match self.call(YieldMsg::Sleep(d)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sleep: {:?}", other),
        }
    }

    /// Charges `d` of virtual CPU time. Identical to [`Ctx::sleep`];
    /// the distinct name keeps call sites self-describing.
    pub async fn compute(&self, d: SimDuration) {
        self.sleep(d).await;
    }

    /// Charges `d` of virtual CPU time *and* runs `job`, a genuinely
    /// CPU-heavy host kernel, on the offload thread pool.
    ///
    /// The virtual-time schedule is byte-for-byte identical to
    /// `ctx.compute(d)` followed by running `job()` inline: the
    /// process wakes at `now + d` exactly as a sleep would, and the kernel
    /// result is collected (host-blocking if the kernel is still running)
    /// only at that wake.
    pub async fn offload<R, J>(&self, d: SimDuration, job: J) -> R
    where
        R: Send + 'static,
        J: FnOnce() -> R + Send + 'static,
    {
        let erased: OffloadJob = Box::new(move || Box::new(job()) as Box<dyn Any + Send>);
        match self.call(YieldMsg::Offload { d, job: erased }).await {
            ResumeMsg::OffloadDone(Ok(any)) => *any
                .downcast::<R>()
                .expect("offload job returned a value of the wrong type"),
            ResumeMsg::OffloadDone(Err(payload)) => std::panic::resume_unwind(payload),
            other => unreachable!("unexpected resume for offload: {:?}", other),
        }
    }

    /// Creates a counting semaphore with `permits` initial permits.
    pub async fn sem_create(&self, permits: u64) -> SemId {
        match self.call(YieldMsg::SemCreate(permits)).await {
            ResumeMsg::Sem(id) => id,
            other => unreachable!("unexpected resume for sem_create: {:?}", other),
        }
    }

    /// Acquires `n` permits, blocking in virtual time until granted (FIFO).
    pub async fn sem_acquire(&self, id: SemId, n: u64) {
        match self.call(YieldMsg::SemAcquire(id, n)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sem_acquire: {:?}", other),
        }
    }

    /// Releases `n` permits.
    pub async fn sem_release(&self, id: SemId, n: u64) {
        match self.call(YieldMsg::SemRelease(id, n)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for sem_release: {:?}", other),
        }
    }

    /// Creates a token-bucket rate limiter refilling at `rate` tokens/sec
    /// with capacity `burst`.
    pub async fn limiter_create(&self, rate: f64, burst: f64) -> LimiterId {
        match self.call(YieldMsg::LimiterCreate { rate, burst }).await {
            ResumeMsg::Limiter(id) => id,
            other => unreachable!("unexpected resume for limiter_create: {:?}", other),
        }
    }

    /// Takes `tokens` from the limiter, blocking in virtual time until they
    /// have accrued (FIFO).
    pub async fn limiter_acquire(&self, id: LimiterId, tokens: f64) {
        match self.call(YieldMsg::LimiterAcquire(id, tokens)).await {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for limiter_acquire: {:?}", other),
        }
    }

    /// Creates a bandwidth-constrained link in the fluid-flow network.
    pub async fn link_create(&self, capacity: Bandwidth) -> LinkId {
        match self.call(YieldMsg::LinkCreate(capacity)).await {
            ResumeMsg::Link(id) => id,
            other => unreachable!("unexpected resume for link_create: {:?}", other),
        }
    }

    /// Moves `bytes` across `links`, sharing each link's capacity max-min
    /// fairly with all concurrent transfers. Blocks in virtual time until
    /// the transfer completes.
    pub async fn transfer(&self, bytes: ByteSize, links: &[LinkId]) {
        match self
            .call(YieldMsg::Transfer(FlowSpec {
                bytes,
                links: links.to_vec(),
            }))
            .await
        {
            ResumeMsg::Go => {}
            other => unreachable!("unexpected resume for transfer: {:?}", other),
        }
    }

    /// Spawns a child process that starts at the current virtual time.
    /// `f` receives the child's owned [`Ctx`] and returns its future.
    pub async fn spawn<F, Fut>(&self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let body: TaskFn = Box::new(move |ctx| Box::pin(f(ctx)) as LocalBoxFuture<'static, ()>);
        match self
            .call(YieldMsg::Spawn {
                name: name.into(),
                body,
            })
            .await
        {
            ResumeMsg::Pid(pid) => pid,
            other => unreachable!("unexpected resume for spawn: {:?}", other),
        }
    }

    /// Blocks in virtual time until `pid` finishes.
    ///
    /// # Errors
    /// Returns [`JoinError`] if the joined process panicked.
    pub async fn join(&self, pid: ProcessId) -> Result<(), JoinError> {
        match self.call(YieldMsg::Join(pid)).await {
            ResumeMsg::JoinResult(res) => res,
            other => unreachable!("unexpected resume for join: {:?}", other),
        }
    }

    /// Joins every process in `pids`, returning the first error if any
    /// panicked (all are still awaited).
    ///
    /// # Errors
    /// Returns the first [`JoinError`] if any joined process panicked.
    pub async fn join_all(&self, pids: &[ProcessId]) -> Result<(), JoinError> {
        let mut first_err = None;
        for &pid in pids {
            if let Err(e) = self.join(pid).await {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Runs `jobs` with at most `window` of them in flight, then returns
    /// their results in job order.
    ///
    /// Spawns `min(window, jobs.len())` worker processes that greedily
    /// pull jobs off a shared queue in job order: the moment a worker
    /// finishes one job it starts the next, so the virtual-time schedule
    /// is the same greedy one a semaphore-per-job design yields. Workers
    /// are spawned in job-queue order (deterministic pid assignment) and
    /// named `"{name}#{w}"`. A thousand-job fan-out costs `window` small
    /// state machines, not threads.
    ///
    /// A window of `0` is treated as `1`.
    ///
    /// # Errors
    /// Returns the first [`JoinError`] if any job panicked. A panic
    /// kills the worker that ran the job — queued jobs that worker would
    /// have pulled later may never run — but sibling workers keep
    /// draining the queue and every worker is awaited, so the fan-out
    /// itself never deadlocks. A job whose result slot stayed empty
    /// (its worker died before running it) is also reported as a
    /// [`JoinError`], never as an internal panic.
    pub async fn fan_out<T, F>(
        &self,
        name: &str,
        window: usize,
        jobs: Vec<F>,
    ) -> Result<Vec<T>, JoinError>
    where
        T: 'static,
        F: AsyncFnOnce(&mut Ctx) -> T + 'static,
    {
        self.fan_out_pinned(name, window, jobs.len(), jobs).await
    }

    /// Worker-pinned fan-out: runs `jobs` with the worker processes a
    /// `logical_total`-job fan-out would spawn (`min(window.max(1),
    /// logical_total)`), even when `jobs` is shorter — or empty. Results
    /// come back in job order, one entry per job.
    ///
    /// Callers that elide jobs which touch no simulated resource use this
    /// to keep pid assignment and the virtual-time schedule identical to
    /// the full fan-out; a `logical_total` of `0` runs nothing.
    ///
    /// # Errors
    /// Same contract as [`Ctx::fan_out`].
    pub async fn fan_out_pinned<T, F>(
        &self,
        name: &str,
        window: usize,
        logical_total: usize,
        jobs: Vec<F>,
    ) -> Result<Vec<T>, JoinError>
    where
        T: 'static,
        F: AsyncFnOnce(&mut Ctx) -> T + 'static,
    {
        if logical_total == 0 {
            return Ok(Vec::new());
        }
        let workers = window.max(1).min(logical_total);
        let results: Rc<RefCell<Vec<Option<T>>>> =
            Rc::new(RefCell::new((0..jobs.len()).map(|_| None).collect()));
        let queue: Rc<RefCell<VecDeque<(usize, F)>>> =
            Rc::new(RefCell::new(jobs.into_iter().enumerate().collect()));
        let mut pids = Vec::with_capacity(workers);
        for w in 0..workers {
            let queue = Rc::clone(&queue);
            let slot = Rc::clone(&results);
            let pid = self
                .spawn(format!("{}#{}", name, w), move |mut cctx: Ctx| async move {
                    loop {
                        let next = queue.borrow_mut().pop_front();
                        let Some((i, job)) = next else { break };
                        let value = job(&mut cctx).await;
                        slot.borrow_mut()[i] = Some(value);
                    }
                })
                .await;
            pids.push(pid);
        }
        self.join_all(&pids).await?;
        let mut slots = results.borrow_mut();
        collect_fan_out(name, &mut slots)
    }
}

/// Collects fan-out results, turning any missing slot into a
/// [`JoinError`] (a worker died before running that job).
fn collect_fan_out<T>(name: &str, slots: &mut [Option<T>]) -> Result<Vec<T>, JoinError> {
    let mut out = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        match slot.take() {
            Some(v) => out.push(v),
            None => {
                return Err(JoinError {
                    process: name.to_string(),
                    message: format!(
                        "fan_out job {} never produced a result (its worker \
                         died before running it)",
                        i
                    ),
                })
            }
        }
    }
    Ok(out)
}

/// Renders a panic payload into a human-readable message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
