//! Teardown: however a run ends, every process future and every
//! never-started process body is dropped exactly once, and the CPU-offload
//! threads are joined.
//!
//! One test in its own binary: the `/proc/self/status` thread count is
//! process-wide, so no other test may run concurrently with it.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::time::{Duration, Instant};

use faaspipe_des::{Bandwidth, ByteSize, Sim, SimDuration, SimError};

/// Drop counts per guard id, shared by every guard of one case.
#[derive(Clone, Default)]
struct Ledger(Rc<RefCell<Vec<u32>>>);

impl Ledger {
    fn guard(&self) -> Guard {
        let mut drops = self.0.borrow_mut();
        drops.push(0);
        Guard {
            id: drops.len() - 1,
            ledger: self.clone(),
        }
    }

    /// Asserts that all `created` guards were dropped exactly once.
    fn assert_all_dropped_once(&self, case: &str, created: usize) {
        let drops = self.0.borrow();
        assert_eq!(drops.len(), created, "{case}: guards created");
        for (id, &n) in drops.iter().enumerate() {
            assert_eq!(n, 1, "{case}: guard {id} dropped {n} times");
        }
    }
}

/// Captured by a process body; records its own drop.
struct Guard {
    id: usize,
    ledger: Ledger,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.ledger.0.borrow_mut()[self.id] += 1;
    }
}

/// Current `Threads:` count of this process (None off-Linux).
fn host_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Waits (briefly) for the thread count to return to `baseline`: a
/// joined thread can linger in `/proc` for a moment after `join`.
fn assert_threads_back_to(case: &str, baseline: Option<usize>) {
    let Some(baseline) = baseline else { return };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = host_threads().expect("thread count");
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{case}: {now} threads after the run, {baseline} before"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Adds a process that offloads a kernel, so the case has offload threads
/// to join, and keeps its guard across the offload.
fn spawn_offloader(sim: &mut Sim, ledger: &Ledger) {
    let g = ledger.guard();
    sim.spawn("offloader", move |ctx| async move {
        let _g = g;
        let v = ctx
            .offload(SimDuration::from_millis(1), || (0..1000u64).sum::<u64>())
            .await;
        assert_eq!(v, 499_500);
    });
}

/// Adds a process that blocks forever on a semaphore nobody releases, so
/// its suspended future is still alive when the run ends.
fn spawn_stuck(sim: &mut Sim, ledger: &Ledger) {
    let sem = sim.create_semaphore(0);
    let g = ledger.guard();
    sim.spawn("stuck", move |ctx| async move {
        let _g = g;
        ctx.sem_acquire(sem, 1).await;
    });
}

#[test]
fn every_body_and_future_is_dropped_once_and_offload_threads_join() {
    let baseline = host_threads();

    // A normal end: a parent that spawns and joins children, each holding
    // a guard in its body and one in its future.
    {
        let ledger = Ledger::default();
        let mut sim = Sim::new();
        spawn_offloader(&mut sim, &ledger);
        let (g, l) = (ledger.guard(), ledger.clone());
        sim.spawn("parent", move |ctx| async move {
            let _g = g;
            let mut kids = Vec::new();
            for i in 0..4u64 {
                let g = l.guard();
                let kid = ctx
                    .spawn(format!("kid{i}"), move |c| async move {
                        let _g = g;
                        c.sleep(SimDuration::from_millis(i)).await;
                    })
                    .await;
                kids.push(kid);
            }
            ctx.join_all(&kids).await.expect("kids ok");
        });
        let report = sim.run().expect("normal end");
        assert!(report.offload_workers >= 1);
        ledger.assert_all_dropped_once("normal end", 6);
        assert_threads_back_to("normal end", baseline);
    }

    // Deadlock: the stuck future is dropped with the sim.
    {
        let ledger = Ledger::default();
        let mut sim = Sim::new();
        spawn_offloader(&mut sim, &ledger);
        spawn_stuck(&mut sim, &ledger);
        let err = sim.run().expect_err("deadlock");
        assert_eq!(
            err,
            SimError::Deadlock {
                blocked: vec!["stuck".to_string()]
            }
        );
        ledger.assert_all_dropped_once("deadlock", 2);
        assert_threads_back_to("deadlock", baseline);
    }

    // An unobserved panic, with another process still suspended.
    {
        let ledger = Ledger::default();
        let mut sim = Sim::new();
        spawn_offloader(&mut sim, &ledger);
        spawn_stuck(&mut sim, &ledger);
        let g = ledger.guard();
        sim.spawn("bad", move |ctx| async move {
            let _g = g;
            ctx.sleep(SimDuration::from_millis(2)).await;
            panic!("kaboom");
        });
        let err = sim.run().expect_err("panic");
        assert!(matches!(err, SimError::ProcessPanicked { ref process, .. } if process == "bad"));
        ledger.assert_all_dropped_once("unobserved panic", 3);
        assert_threads_back_to("unobserved panic", baseline);
    }

    // A stalled flow ends the run at the instant it starts: the
    // offloader's kernel may still be running. The `late*` processes,
    // queued at that instant ahead of the flow tick's slot, run before
    // the stall is reported and the run ends. Debug builds trip the flow
    // network's invariant check (a panic out of `run`) before the typed
    // error; teardown must hold on that path too.
    {
        let ledger = Ledger::default();
        let mut sim = Sim::new();
        spawn_offloader(&mut sim, &ledger);
        let dead = sim.create_link(Bandwidth::bytes_per_sec(0.0));
        let g = ledger.guard();
        sim.spawn("starved", move |ctx| async move {
            let _g = g;
            ctx.transfer(ByteSize::new(100), &[dead]).await;
        });
        for i in 0..3 {
            let g = ledger.guard();
            sim.spawn(format!("late{i}"), move |_ctx| async move {
                let _g = g;
            });
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| sim.run())) {
            Ok(Err(SimError::FlowStalled { process })) => assert_eq!(process, "starved"),
            Err(_) if cfg!(debug_assertions) => {}
            other => panic!("expected a stalled flow, got {other:?}"),
        }
        ledger.assert_all_dropped_once("stalled flow", 5);
        assert_threads_back_to("stalled flow", baseline);
    }

    // A sim dropped without `run`: no body ever starts.
    {
        let ledger = Ledger::default();
        let mut sim = Sim::new();
        spawn_offloader(&mut sim, &ledger);
        spawn_stuck(&mut sim, &ledger);
        drop(sim);
        ledger.assert_all_dropped_once("dropped unrun", 2);
        assert_threads_back_to("dropped unrun", baseline);
    }
}
