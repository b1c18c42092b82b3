//! The simulation scheduler: owns the clock, event queue, resources and
//! process table, and runs the event loop to completion.

use std::cell::Cell;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::task::{Context as PollContext, Poll, Waker};

use crate::events::{EventId, EventQueue, Seq, Wake};
use crate::flow::{FlowNet, LinkId};
use crate::pool::OffloadPool;
use crate::process::{
    panic_message, Ctx, JoinError, LocalBoxFuture, OpCell, ProcessId, ResumeMsg, TaskFn, YieldMsg,
};
use crate::resources::{LimiterId, RateLimiter, SemId, Semaphore};
use crate::units::{Bandwidth, SimTime};

/// Configuration for a [`Sim`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all per-process random streams.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0xFAA5_0001 }
    }
}

/// Error terminating a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A process panicked and nobody [`Ctx::join`]ed it to observe the
    /// failure.
    ProcessPanicked {
        /// Name of the failing process.
        process: String,
        /// Rendered panic payload.
        message: String,
    },
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
    /// A rate recompute left a transfer frozen at a non-positive rate
    /// with bytes still to move. Max-min filling cannot produce this
    /// from a well-formed topology, so it means a rate-computation bug
    /// (or float pathology) that would otherwise hang the run silently.
    FlowStalled {
        /// Name of the process whose transfer starved.
        process: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked { process, message } => {
                write!(f, "process '{}' panicked: {}", process, message)
            }
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked; blocked processes: {:?}", blocked)
            }
            SimError::FlowStalled { process } => {
                write!(
                    f,
                    "transfer by process '{}' stalled at a non-positive rate",
                    process
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary statistics of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time at which the last event fired.
    pub end_time: SimTime,
    /// Total number of processes that ran.
    pub processes: usize,
    /// Total number of events dispatched.
    pub events: u64,
    /// Most processes simultaneously created-but-not-finished at any
    /// instant of the run.
    pub peak_live_processes: usize,
    /// OS threads the CPU-offload pool created over the whole run
    /// (lazy, capped at `min(host cores, 8)`).
    pub offload_workers: usize,
    /// Max-min rate recomputes the flow network ran. Transfers that start
    /// or finish at one instant ahead of the same flow tick share one, so
    /// a burst of `N` starts costs one, not `N`. A host-cost gauge;
    /// virtual time does not depend on it.
    pub flow_recomputes: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PState {
    Ready,
    Blocked,
    Finished(Result<(), String>),
}

/// A started process: its suspended continuation plus the mailbox it
/// exchanges ops with the scheduler through.
struct TaskState {
    /// The process future; `None` only transiently while being polled.
    future: Option<LocalBoxFuture<'static, ()>>,
    cell: Rc<OpCell>,
}

struct Slot {
    name: Rc<str>,
    state: PState,
    /// What to send when this blocked process is next woken.
    resume_with: ResumeMsg,
    join_waiters: Vec<u32>,
    /// The body, until the process first wakes and creates its future.
    body: Option<TaskFn>,
    /// The continuation, from the first wake until the process finishes.
    task: Option<TaskState>,
    /// Whether a panic in this process has been delivered to a joiner.
    panic_observed: bool,
}

/// A deterministic discrete-event simulation.
///
/// See the [crate docs](crate) for the execution model and an example.
pub struct Sim {
    cfg: SimConfig,
    clock: Rc<Cell<u64>>,
    queue: EventQueue,
    procs: Vec<Slot>,
    sems: Vec<Semaphore>,
    limiters: Vec<RateLimiter>,
    limiter_events: Vec<Option<EventId>>,
    flownet: FlowNet,
    flow_event: Option<EventId>,
    /// The queue slot reserved for the next flow tick while the flow
    /// network has starts or finishes not yet refreshed; see
    /// [`Sim::flush_flow_tick`].
    flow_pending: Option<Seq>,
    /// Reusable buffer for flow/limiter tick wake lists, so steady-state
    /// ticks do no per-event allocation.
    tick_woken: Vec<u32>,
    /// First fatal condition observed while dispatching (e.g. a stalled
    /// flow); checked after every event and terminates the run loudly.
    fatal: Option<SimError>,
    offload: OffloadPool,
    events_dispatched: u64,
    live_now: usize,
    peak_live: usize,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("processes", &self.procs.len())
            .field("events_dispatched", &self.events_dispatched)
            .finish()
    }
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new()
    }
}

impl Sim {
    /// Creates a simulation with default configuration.
    pub fn new() -> Self {
        Sim::with_config(SimConfig::default())
    }

    /// Creates a simulation with the given configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Sim {
            cfg,
            clock: Rc::new(Cell::new(0)),
            queue: EventQueue::new(),
            procs: Vec::new(),
            sems: Vec::new(),
            limiters: Vec::new(),
            limiter_events: Vec::new(),
            flownet: FlowNet::new(),
            flow_event: None,
            flow_pending: None,
            tick_woken: Vec::new(),
            fatal: None,
            offload: OffloadPool::new(),
            events_dispatched: 0,
            live_now: 0,
            peak_live: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.get())
    }

    /// Creates a semaphore before the run starts (services use this during
    /// setup; processes use [`Ctx::sem_create`]).
    pub fn create_semaphore(&mut self, permits: u64) -> SemId {
        let id = SemId(self.sems.len() as u32);
        self.sems.push(Semaphore::new(permits));
        id
    }

    /// Creates a rate limiter before the run starts.
    pub fn create_limiter(&mut self, rate: f64, burst: f64) -> LimiterId {
        let id = LimiterId(self.limiters.len() as u32);
        self.limiters.push(RateLimiter::new(rate, burst));
        self.limiter_events.push(None);
        id
    }

    /// Creates a bandwidth link before the run starts.
    pub fn create_link(&mut self, capacity: Bandwidth) -> LinkId {
        self.flownet.add_link(capacity)
    }

    /// Spawns a root process that starts at the current virtual time. `f`
    /// receives the process's owned [`Ctx`] and returns its future; the
    /// future is created and polled on the scheduler thread and costs a
    /// small heap allocation while suspended.
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Ctx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let body: TaskFn = Box::new(move |ctx| Box::pin(f(ctx)) as LocalBoxFuture<'static, ()>);
        let pid = self.create_process(name.into(), body);
        self.queue.schedule(self.now(), Wake::Process(pid.0));
        pid
    }

    /// Registers a process slot. No future exists until the process first
    /// wakes — see [`Sim::run_process`].
    fn create_process(&mut self, name: String, body: TaskFn) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(Slot {
            name: name.into(),
            state: PState::Ready,
            resume_with: ResumeMsg::Go,
            join_waiters: Vec::new(),
            body: Some(body),
            task: None,
            panic_observed: false,
        });
        self.live_now += 1;
        self.peak_live = self.peak_live.max(self.live_now);
        pid
    }

    /// Runs the simulation until no events remain.
    ///
    /// # Errors
    /// Returns [`SimError::ProcessPanicked`] if any process panicked without
    /// a joiner observing it, and [`SimError::Deadlock`] if the event queue
    /// drained while processes were still blocked.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        while let Some((time, wake)) = self.queue.pop() {
            debug_assert!(time >= self.now(), "time must be monotone");
            self.clock.set(time.as_nanos());
            self.events_dispatched += 1;
            match wake {
                Wake::Process(pidx) => self.run_process(pidx),
                Wake::FlowTick => {
                    self.flow_event = None;
                    let mut woken = std::mem::take(&mut self.tick_woken);
                    self.flownet.tick(time, &mut woken);
                    for &pidx in &woken {
                        self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                        self.schedule_wake(pidx);
                    }
                    woken.clear();
                    self.tick_woken = woken;
                    self.reschedule_flow_tick();
                }
                Wake::LimiterTick(li) => {
                    self.limiter_events[li as usize] = None;
                    let mut woken = std::mem::take(&mut self.tick_woken);
                    self.limiters[li as usize].tick_into(time, &mut woken);
                    for &pidx in &woken {
                        self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                        self.schedule_wake(pidx);
                    }
                    woken.clear();
                    self.tick_woken = woken;
                    self.reschedule_limiter_tick(li);
                }
            }
            // Starts and finishes only reserved the flow tick's slot; its
            // deadline is due before the next pop can overtake that slot.
            self.flush_flow_tick();
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }
        let end_time = self.now();
        // Surface unobserved panics.
        for slot in &self.procs {
            if let PState::Finished(Err(message)) = &slot.state {
                if !slot.panic_observed {
                    let err = SimError::ProcessPanicked {
                        process: slot.name.to_string(),
                        message: message.clone(),
                    };
                    return Err(err);
                }
            }
        }
        // Detect deadlock: blocked processes with no pending events.
        let blocked: Vec<String> = self
            .procs
            .iter()
            .filter(|s| !matches!(s.state, PState::Finished(_)))
            .map(|s| s.name.to_string())
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        Ok(SimReport {
            end_time,
            processes: self.procs.len(),
            events: self.events_dispatched,
            peak_live_processes: self.peak_live,
            offload_workers: self.offload.worker_count(),
            flow_recomputes: self.flownet.recomputes(),
        })
    }

    fn schedule_wake(&mut self, pidx: u32) {
        self.procs[pidx as usize].state = PState::Ready;
        self.queue.schedule(self.now(), Wake::Process(pidx));
    }

    /// Called after every flow start and finish, where the flow tick has
    /// to move. The old tick is cancelled and the new one's queue slot is
    /// reserved now, so it lands exactly where scheduling it now would;
    /// its time waits for [`Sim::flush_flow_tick`].
    fn reschedule_flow_tick(&mut self) {
        if let Some(ev) = self.flow_event.take() {
            self.queue.cancel(ev);
        }
        self.flow_pending = Some(self.queue.reserve());
    }

    /// Refreshes the flow network and schedules the reserved tick, unless
    /// the next event is one that pops before the tick whatever its
    /// deadline: same instant, earlier slot. Such an event may start or
    /// finish more flows, and one refresh then covers them all. Every
    /// other event would be ordered after a tick due now, so the tick is
    /// in the queue before any of them pops and the event order is the
    /// one an eager refresh after every start and finish gives. Records a
    /// fatal error if the rates starve a flow; the run loop terminates
    /// with it.
    fn flush_flow_tick(&mut self) {
        let Some(seq) = self.flow_pending else {
            return;
        };
        let now = self.now();
        if matches!(self.queue.peek(), Some((t, s)) if t == now && s < seq) {
            return;
        }
        self.flow_pending = None;
        if let Some(waker) = self.flownet.take_stalled() {
            if self.fatal.is_none() {
                self.fatal = Some(SimError::FlowStalled {
                    process: self.procs[waker as usize].name.to_string(),
                });
            }
        }
        if let Some(at) = self.flownet.next_completion(now) {
            self.flow_event = Some(self.queue.schedule_at(at, seq, Wake::FlowTick));
        }
    }

    fn reschedule_limiter_tick(&mut self, li: u32) {
        if let Some(ev) = self.limiter_events[li as usize].take() {
            self.queue.cancel(ev);
        }
        let now = self.now();
        if let Some(at) = self.limiters[li as usize].next_ready(now) {
            self.limiter_events[li as usize] = Some(self.queue.schedule(at, Wake::LimiterTick(li)));
        }
    }

    /// Resumes process `pidx` and services its requests until it blocks or
    /// finishes.
    ///
    /// On a process's first wake its body creates the future, which is
    /// then polled in place. Creating futures lazily means processes that
    /// are spawned but never scheduled cost only their boxed body.
    fn run_process(&mut self, pidx: u32) {
        let pi = pidx as usize;
        if matches!(self.procs[pi].state, PState::Finished(_)) {
            return;
        }
        if self.procs[pi].task.is_none() {
            // First wake: create the future.
            debug_assert!(
                matches!(self.procs[pi].resume_with, ResumeMsg::Go),
                "first wake must be a plain Go"
            );
            let f = self.procs[pi]
                .body
                .take()
                .expect("unstarted process has no body");
            let cell = Rc::new(OpCell::default());
            let ctx = Ctx::new(
                ProcessId(pidx),
                Rc::clone(&self.procs[pi].name),
                Rc::clone(&self.clock),
                Rc::clone(&cell),
                self.cfg.seed,
            );
            // Creating the future runs no user code (that happens at first
            // poll, below).
            let future = f(ctx);
            self.procs[pi].task = Some(TaskState {
                future: Some(future),
                cell,
            });
            self.poll_task(pidx);
            return;
        }
        // A started, unfinished process is always suspended in exactly one
        // op; deliver the answer it is waiting for, then poll. Offload
        // results are collected here — at the virtual-time deadline — so
        // host completion order never reorders events.
        let msg = match std::mem::replace(&mut self.procs[pi].resume_with, ResumeMsg::Go) {
            ResumeMsg::OffloadWait(token) => ResumeMsg::OffloadDone(self.offload.wait(token)),
            m => m,
        };
        self.reply(pidx, msg);
        self.poll_task(pidx);
    }

    /// Polls a process's future, servicing the op it deposits on each
    /// suspension, until it blocks in virtual time, finishes, or panics.
    fn poll_task(&mut self, pidx: u32) {
        loop {
            let ts = self.procs[pidx as usize]
                .task
                .as_mut()
                .expect("poll_task on an unstarted process");
            let mut future = ts.future.take().expect("task future missing");
            let mut cx = PollContext::from_waker(Waker::noop());
            let polled =
                std::panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
            match polled {
                Ok(Poll::Pending) => {
                    let ts = self.procs[pidx as usize].task.as_mut().expect("task state");
                    ts.future = Some(future);
                    let Some(msg) = ts.cell.request.borrow_mut().take() else {
                        // The future suspended without a simulation op
                        // pending — it awaited something the scheduler
                        // cannot resolve. Fail the process rather than
                        // hang the simulation.
                        self.procs[pidx as usize].task = None;
                        self.finish_process(
                            pidx,
                            Err("process suspended outside a simulation op \
                                 (awaited a non-simulation future)"
                                .to_string()),
                        );
                        return;
                    };
                    if !self.handle_yield(pidx, msg) {
                        self.procs[pidx as usize].state = PState::Blocked;
                        return;
                    }
                }
                Ok(Poll::Ready(())) => {
                    drop(future);
                    self.procs[pidx as usize].task = None;
                    self.finish_process(pidx, Ok(()));
                    return;
                }
                Err(payload) => {
                    drop(future);
                    self.procs[pidx as usize].task = None;
                    self.finish_process(pidx, Err(panic_message(payload.as_ref())));
                    return;
                }
            }
        }
    }

    /// Delivers a scheduler reply into a started process's op mailbox,
    /// consumed on its next poll.
    fn reply(&self, pidx: u32, msg: ResumeMsg) {
        let ts = self.procs[pidx as usize]
            .task
            .as_ref()
            .expect("reply to a process that never ran");
        let prev = ts.cell.reply.borrow_mut().replace(msg);
        debug_assert!(prev.is_none(), "process replied to twice");
    }

    /// Services one op. Returns `true` if the process may continue at the
    /// current instant, `false` if it is now blocked in virtual time.
    fn handle_yield(&mut self, pidx: u32, msg: YieldMsg) -> bool {
        let now = self.now();
        match msg {
            YieldMsg::Sleep(d) => {
                self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                self.queue.schedule(now + d, Wake::Process(pidx));
                false
            }
            YieldMsg::SemCreate(permits) => {
                let id = SemId(self.sems.len() as u32);
                self.sems.push(Semaphore::new(permits));
                self.reply(pidx, ResumeMsg::Sem(id));
                true
            }
            YieldMsg::SemAcquire(id, n) => {
                if self.sems[id.0 as usize].acquire(pidx, n) {
                    self.reply(pidx, ResumeMsg::Go);
                    true
                } else {
                    self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                    false
                }
            }
            YieldMsg::SemRelease(id, n) => {
                let woken = self.sems[id.0 as usize].release(n);
                for w in woken {
                    self.procs[w as usize].resume_with = ResumeMsg::Go;
                    self.schedule_wake(w);
                }
                self.reply(pidx, ResumeMsg::Go);
                true
            }
            YieldMsg::LimiterCreate { rate, burst } => {
                let id = LimiterId(self.limiters.len() as u32);
                self.limiters.push(RateLimiter::new(rate, burst));
                self.limiter_events.push(None);
                self.reply(pidx, ResumeMsg::Limiter(id));
                true
            }
            YieldMsg::LimiterAcquire(id, tokens) => {
                if self.limiters[id.0 as usize].acquire(now, pidx, tokens) {
                    self.reply(pidx, ResumeMsg::Go);
                    true
                } else {
                    self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                    self.reschedule_limiter_tick(id.0);
                    false
                }
            }
            YieldMsg::LinkCreate(bw) => {
                let id = self.flownet.add_link(bw);
                self.reply(pidx, ResumeMsg::Link(id));
                true
            }
            YieldMsg::Transfer(spec) => {
                self.flownet.start(now, spec, pidx);
                self.procs[pidx as usize].resume_with = ResumeMsg::Go;
                self.reschedule_flow_tick();
                false
            }
            YieldMsg::Spawn { name, body } => {
                let pid = self.create_process(name, body);
                self.queue.schedule(now, Wake::Process(pid.0));
                self.reply(pidx, ResumeMsg::Pid(pid));
                true
            }
            YieldMsg::Join(target) => {
                assert!(
                    (target.0 as usize) < self.procs.len(),
                    "join on unknown process {:?}",
                    target
                );
                let result = match &self.procs[target.index()].state {
                    PState::Finished(res) => Some(res.clone()),
                    _ => None,
                };
                match result {
                    Some(res) => {
                        let jr = self.join_result(target, res);
                        self.reply(pidx, ResumeMsg::JoinResult(jr));
                        true
                    }
                    None => {
                        self.procs[target.index()].join_waiters.push(pidx);
                        false
                    }
                }
            }
            YieldMsg::Offload { d, job } => {
                // The kernel starts on the offload pool *now* (in host
                // time) but the process sleeps until `now + d` in virtual
                // time — the event this schedules is indistinguishable
                // from a plain `Sleep(d)`, so offloading a kernel can
                // never change the event schedule.
                let token = self.offload.submit(job);
                self.procs[pidx as usize].resume_with = ResumeMsg::OffloadWait(token);
                self.queue.schedule(now + d, Wake::Process(pidx));
                false
            }
        }
    }

    /// Marks `pidx` finished and wakes joiners. Its future was already
    /// dropped by the caller.
    fn finish_process(&mut self, pidx: u32, result: Result<(), String>) {
        let slot = &mut self.procs[pidx as usize];
        slot.state = PState::Finished(result.clone());
        self.live_now -= 1;
        let waiters = std::mem::take(&mut self.procs[pidx as usize].join_waiters);
        for w in waiters {
            let jr = self.join_result(ProcessId(pidx), result.clone());
            self.procs[w as usize].resume_with = ResumeMsg::JoinResult(jr);
            self.schedule_wake(w);
        }
    }

    fn join_result(&mut self, target: ProcessId, res: Result<(), String>) -> Result<(), JoinError> {
        match res {
            Ok(()) => Ok(()),
            Err(message) => {
                self.procs[target.index()].panic_observed = true;
                Err(JoinError {
                    process: self.procs[target.index()].name.to_string(),
                    message,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bandwidth, ByteSize, SimDuration};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::sync::Mutex;

    #[test]
    fn empty_sim_completes() {
        let report = Sim::new().run().expect("empty sim");
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.processes, 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Sim::new();
        sim.spawn("sleeper", |ctx| async move {
            ctx.sleep(SimDuration::from_secs(5)).await;
            ctx.sleep(SimDuration::from_millis(250)).await;
        });
        let report = sim.run().expect("run");
        assert_eq!(report.end_time.as_nanos(), 5_250_000_000);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for i in 0..3u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("p{}", i), move |ctx| async move {
                ctx.sleep(SimDuration::from_millis(10 * (3 - i))).await;
                log.lock().unwrap().push(i);
            });
        }
        sim.run().expect("run");
        assert_eq!(*log.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn spawn_and_join_child() {
        let out = Arc::new(Mutex::new(0u64));
        let mut sim = Sim::new();
        let out2 = Arc::clone(&out);
        sim.spawn("parent", move |ctx| async move {
            let out3 = Arc::clone(&out2);
            let child = ctx
                .spawn("child", move |cctx| async move {
                    cctx.sleep(SimDuration::from_secs(1)).await;
                    *out3.lock().unwrap() = 42;
                })
                .await;
            ctx.join(child).await.expect("child ok");
            assert_eq!(ctx.now().as_secs_f64(), 1.0);
            assert_eq!(*out2.lock().unwrap(), 42);
        });
        sim.run().expect("run");
        assert_eq!(*out.lock().unwrap(), 42);
    }

    #[test]
    fn join_already_finished_child() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx.spawn("quick", |_| async {}).await;
            ctx.sleep(SimDuration::from_secs(1)).await;
            ctx.join(child).await.expect("quick ok");
            assert_eq!(ctx.now().as_secs_f64(), 1.0, "join must not add time");
        });
        sim.run().expect("run");
    }

    #[test]
    fn join_observes_child_panic() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx.spawn("bad", |_c| async move { panic!("boom") }).await;
            let err = ctx.join(child).await.expect_err("child panicked");
            assert_eq!(err.process, "bad");
            assert!(err.message.contains("boom"));
        });
        sim.run().expect("observed panic is not a sim error");
    }

    #[test]
    fn unobserved_panic_fails_run() {
        let mut sim = Sim::new();
        sim.spawn("bad", |_ctx| async move { panic!("kaboom") });
        let err = sim.run().expect_err("must fail");
        match err {
            SimError::ProcessPanicked { process, message } => {
                assert_eq!(process, "bad");
                assert!(message.contains("kaboom"));
            }
            other => panic!("unexpected error {:?}", other),
        }
    }

    #[test]
    fn semaphore_serializes_critical_section() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(1);
        for i in 0..4u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("w{}", i), move |ctx| async move {
                ctx.sem_acquire(sem, 1).await;
                log.lock().unwrap().push((i, ctx.now()));
                ctx.sleep(SimDuration::from_secs(1)).await;
                ctx.sem_release(sem, 1).await;
            });
        }
        sim.run().expect("run");
        let log = log.lock().unwrap();
        // FIFO: worker i enters at t = i seconds.
        for (i, (w, at)) in log.iter().enumerate() {
            assert_eq!(*w, i as u64);
            assert_eq!(at.as_secs_f64(), i as f64);
        }
    }

    #[test]
    fn limiter_throttles_ops() {
        let mut sim = Sim::new();
        let lim = sim.create_limiter(10.0, 1.0); // 10 ops/s, burst 1
        sim.spawn("client", move |ctx| async move {
            for _ in 0..5 {
                ctx.limiter_acquire(lim, 1.0).await;
            }
            // First op free (full bucket), remaining 4 at 0.1 s apart.
            assert!((ctx.now().as_secs_f64() - 0.4).abs() < 1e-6);
        });
        sim.run().expect("run");
    }

    #[test]
    fn transfer_times_follow_fair_share() {
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        let done = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u64 {
            let done = Arc::clone(&done);
            sim.spawn(format!("t{}", i), move |ctx| async move {
                ctx.transfer(ByteSize::new(100), &[link]).await;
                done.lock().unwrap().push((i, ctx.now()));
            });
        }
        sim.run().expect("run");
        let done = done.lock().unwrap();
        // Two 100-byte flows share 100 B/s: both complete at t=2s.
        assert_eq!(done.len(), 2);
        for (_, at) in done.iter() {
            assert!((at.as_secs_f64() - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn transfer_rebalances_after_completion() {
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        let done = Arc::new(Mutex::new(HashMap::new()));
        let d1 = Arc::clone(&done);
        sim.spawn("small", move |ctx| async move {
            ctx.transfer(ByteSize::new(50), &[link]).await;
            d1.lock().unwrap().insert("small", ctx.now().as_secs_f64());
        });
        let d2 = Arc::clone(&done);
        sim.spawn("large", move |ctx| async move {
            ctx.transfer(ByteSize::new(500), &[link]).await;
            d2.lock().unwrap().insert("large", ctx.now().as_secs_f64());
        });
        sim.run().expect("run");
        let done = done.lock().unwrap();
        // Shared 50 B/s until small finishes at 1 s; large then runs at
        // 100 B/s for its remaining 450 B => 1 + 4.5 = 5.5 s.
        assert!((done["small"] - 1.0).abs() < 1e-6);
        assert!((done["large"] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(0);
        sim.spawn("stuck", move |ctx| async move {
            ctx.sem_acquire(sem, 1).await;
        });
        let err = sim.run().expect_err("deadlock");
        match err {
            SimError::Deadlock { blocked } => assert_eq!(blocked, vec!["stuck".to_string()]),
            other => panic!("unexpected error {:?}", other),
        }
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        fn draw() -> Vec<u64> {
            use rand::Rng;
            let out = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new();
            let out2 = Arc::clone(&out);
            sim.spawn("r", move |mut ctx| async move {
                let v: Vec<u64> = (0..8).map(|_| ctx.rng().gen()).collect();
                out2.lock().unwrap().extend(v);
            });
            sim.run().expect("run");
            let v = out.lock().unwrap().clone();
            v
        }
        assert_eq!(draw(), draw());
    }

    #[test]
    fn join_all_aggregates() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let mut kids = Vec::new();
            for i in 0..4 {
                let kid = ctx
                    .spawn(format!("k{}", i), move |c| async move {
                        c.sleep(SimDuration::from_secs(i + 1)).await;
                    })
                    .await;
                kids.push(kid);
            }
            ctx.join_all(&kids).await.expect("all ok");
            assert_eq!(ctx.now().as_secs_f64(), 4.0);
        });
        sim.run().expect("run");
    }

    #[test]
    fn different_sim_seeds_change_random_streams() {
        fn draw(seed: u64) -> u64 {
            use rand::Rng;
            let out = Arc::new(Mutex::new(0u64));
            let mut sim = Sim::with_config(SimConfig { seed });
            let out2 = Arc::clone(&out);
            sim.spawn("r", move |mut ctx| async move {
                *out2.lock().unwrap() = ctx.rng().gen();
            });
            sim.run().expect("run");
            let v = *out.lock().unwrap();
            v
        }
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn child_processes_draw_distinct_rng_streams() {
        // Two sequential children must draw from distinct, pid-seeded
        // random streams.
        use rand::Rng;
        let draws = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let d = Arc::clone(&draws);
        sim.spawn("root", move |ctx| async move {
            for i in 0..2 {
                let d = Arc::clone(&d);
                let child = ctx
                    .spawn(format!("c{}", i), move |mut c| async move {
                        d.lock().unwrap().push(c.rng().gen::<u64>());
                    })
                    .await;
                ctx.join(child).await.expect("child ok");
            }
        });
        sim.run().expect("run");
        let draws = draws.lock().unwrap();
        assert_ne!(draws[0], draws[1], "streams must differ across processes");
    }

    #[test]
    fn deep_spawn_trees_work() {
        // Each process spawns a child, 50 levels deep, each sleeping 1 ms.
        fn spawn_level(ctx: Ctx, level: u64) -> LocalBoxFuture<'static, ()> {
            Box::pin(async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                if level > 0 {
                    let child = ctx
                        .spawn(format!("level{}", level), move |c| {
                            spawn_level(c, level - 1)
                        })
                        .await;
                    ctx.join(child).await.expect("child ok");
                }
            })
        }
        let mut sim = Sim::new();
        sim.spawn("root", |ctx| spawn_level(ctx, 50));
        let report = sim.run().expect("run");
        assert_eq!(report.processes, 51);
        assert_eq!(report.end_time.as_nanos(), 51 * 1_000_000);
        // Every level blocks in a join while its child runs, so all 51
        // processes are live at the deepest point.
        assert_eq!(report.peak_live_processes, 51);
    }

    #[test]
    fn sleeping_zero_is_a_yield_not_a_noop() {
        // Two processes alternating zero-sleeps interleave fairly.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for who in 0..2u64 {
            let log = Arc::clone(&log);
            sim.spawn(format!("p{}", who), move |ctx| async move {
                for _ in 0..3 {
                    log.lock().unwrap().push(who);
                    ctx.sleep(SimDuration::ZERO).await;
                }
            });
        }
        sim.run().expect("run");
        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![0, 1, 0, 1, 0, 1],
            "zero-sleep yields round-robin"
        );
    }

    #[test]
    fn many_processes_scale() {
        let mut sim = Sim::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..2000u64 {
            let counter = Arc::clone(&counter);
            sim.spawn(format!("n{}", i), move |ctx| async move {
                ctx.sleep(SimDuration::from_millis(i % 50)).await;
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let report = sim.run().expect("run");
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
        assert_eq!(report.processes, 2000);
        assert_eq!(report.peak_live_processes, 2000);
    }

    #[test]
    fn peak_live_tracks_concurrency_not_total() {
        // Waves of 8 concurrent processes, 10 waves: 8 children + the root.
        let mut sim = Sim::new();
        sim.spawn("root", |ctx| async move {
            for _ in 0..10 {
                let mut kids = Vec::new();
                for i in 0..8 {
                    let kid = ctx
                        .spawn(format!("wave{}", i), |c| async move {
                            c.sleep(SimDuration::from_millis(3)).await;
                        })
                        .await;
                    kids.push(kid);
                }
                ctx.join_all(&kids).await.expect("wave ok");
            }
        });
        let report = sim.run().expect("run");
        assert_eq!(report.processes, 81);
        assert_eq!(report.peak_live_processes, 9);
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let jobs: Vec<_> = (0..6u64)
                .map(|i| {
                    async move |cctx: &mut Ctx| {
                        // Later jobs finish earlier; order must still hold.
                        cctx.sleep(SimDuration::from_millis(60 - 10 * i)).await;
                        i * 2
                    }
                })
                .collect();
            let out = ctx.fan_out("job", 6, jobs).await.expect("fan_out ok");
            assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        });
        sim.run().expect("run");
    }

    #[test]
    fn fan_out_pinned_spawns_the_logical_worker_count() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            // 3 jobs of a logical 8 at window 4: four workers, one idle.
            let jobs: Vec<_> = (0..3u64)
                .map(|i| {
                    async move |cctx: &mut Ctx| {
                        cctx.sleep(SimDuration::from_millis(30 - 10 * i)).await;
                        i + 1
                    }
                })
                .collect();
            let out = ctx
                .fan_out_pinned("pinned", 4, 8, jobs)
                .await
                .expect("fan_out_pinned ok");
            assert_eq!(out, vec![1, 2, 3]);
        });
        let report = sim.run().expect("run");
        assert_eq!(report.processes, 5, "the parent plus four workers");
    }

    #[test]
    fn fan_out_window_bounds_concurrency() {
        // 4 one-second jobs through a window of 2 take exactly 2 s, and
        // never more than 2 run at once.
        let inflight = Arc::new(Mutex::new((0u32, 0u32))); // (current, peak)
        let mut sim = Sim::new();
        let inflight2 = Arc::clone(&inflight);
        sim.spawn("parent", move |ctx| async move {
            let jobs: Vec<_> = (0..4)
                .map(|_| {
                    let inflight = Arc::clone(&inflight2);
                    async move |cctx: &mut Ctx| {
                        {
                            let mut g = inflight.lock().unwrap();
                            g.0 += 1;
                            g.1 = g.1.max(g.0);
                        }
                        cctx.sleep(SimDuration::from_secs(1)).await;
                        inflight.lock().unwrap().0 -= 1;
                    }
                })
                .collect();
            ctx.fan_out("bounded", 2, jobs).await.expect("ok");
            assert_eq!(ctx.now().as_secs_f64(), 2.0, "2 waves of 2 jobs");
        });
        sim.run().expect("run");
        assert_eq!(inflight.lock().unwrap().1, 2, "window caps concurrency");
    }

    #[test]
    fn fan_out_panic_surfaces_without_deadlocking_siblings() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            // Worker 0 pulls the panicking job and dies; worker 1 keeps
            // draining the queue, so the surviving job still runs and
            // the fan-out returns (first error) instead of hanging.
            let jobs: Vec<_> = (0..2u32)
                .map(|i| {
                    async move |cctx: &mut Ctx| {
                        if i == 0 {
                            panic!("job zero failed");
                        }
                        cctx.sleep(SimDuration::from_millis(5)).await;
                        7
                    }
                })
                .collect();
            let err = ctx
                .fan_out("mixed", 2, jobs)
                .await
                .expect_err("panic surfaces");
            assert_eq!(err.process, "mixed#0");
            assert!(err.message.contains("job zero failed"));
            assert!(
                ctx.now().as_secs_f64() >= 0.005,
                "sibling still ran to completion"
            );
        });
        sim.run().expect("observed panic is not a sim error");
    }

    #[test]
    fn fan_out_empty_and_zero_window() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let none: Vec<fn(&mut Ctx) -> std::future::Ready<u8>> = Vec::new();
            assert_eq!(
                ctx.fan_out("empty", 4, none).await.expect("empty ok"),
                Vec::<u8>::new()
            );
            // Window 0 is clamped to 1 rather than deadlocking.
            let jobs: Vec<_> = (0..2u8).map(|i| async move |_: &mut Ctx| i).collect();
            assert_eq!(
                ctx.fan_out("clamped", 0, jobs).await.expect("ok"),
                vec![0, 1]
            );
        });
        sim.run().expect("run");
    }

    #[test]
    fn offload_matches_compute_schedule_exactly() {
        // compute(d) + inline kernel and offload(d, kernel) must yield
        // identical end times and event counts.
        fn run_inline() -> (u64, u64, u64) {
            let out = Arc::new(AtomicU64::new(0));
            let mut sim = Sim::new();
            let out2 = Arc::clone(&out);
            sim.spawn("k", move |ctx| async move {
                ctx.compute(SimDuration::from_millis(7)).await;
                let v = (0..1000u64).sum::<u64>();
                ctx.sleep(SimDuration::from_millis(3)).await;
                out2.store(v, Ordering::SeqCst);
            });
            let report = sim.run().expect("run");
            (
                report.end_time.as_nanos(),
                report.events,
                out.load(Ordering::SeqCst),
            )
        }
        fn run_offloaded() -> (u64, u64, u64) {
            let out = Arc::new(AtomicU64::new(0));
            let mut sim = Sim::new();
            let out2 = Arc::clone(&out);
            sim.spawn("k", move |ctx| async move {
                let v = ctx
                    .offload(SimDuration::from_millis(7), || (0..1000u64).sum::<u64>())
                    .await;
                ctx.sleep(SimDuration::from_millis(3)).await;
                out2.store(v, Ordering::SeqCst);
            });
            let report = sim.run().expect("run");
            assert!(report.offload_workers >= 1);
            (
                report.end_time.as_nanos(),
                report.events,
                out.load(Ordering::SeqCst),
            )
        }
        assert_eq!(run_inline(), run_offloaded());
    }

    #[test]
    fn offload_panic_propagates_into_the_task() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx
                .spawn("kern", |cctx| async move {
                    let _: u64 = cctx
                        .offload(SimDuration::from_millis(1), || panic!("kernel died"))
                        .await;
                })
                .await;
            let err = ctx.join(child).await.expect_err("kernel panic");
            assert!(err.message.contains("kernel died"));
        });
        sim.run().expect("observed panic is fine");
    }
}
