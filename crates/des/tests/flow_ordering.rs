//! Where the flow tick lands among simultaneous events.
//!
//! The scheduler refreshes flow rates once per instant, not after every
//! start and finish, but the tick keeps the queue slot an eager refresh
//! would have given it. These tests pin that slot: zero-byte transfers
//! complete at the instant they start, so their wakes interleave with
//! other same-instant wakes, and any drift in the tick's place reorders
//! the log.

use std::cell::RefCell;
use std::rc::Rc;

use faaspipe_des::{Bandwidth, ByteSize, Ctx, Sim, SimDuration};

type Log = Rc<RefCell<Vec<String>>>;

fn note(log: &Log, ctx: &Ctx, what: &str) {
    log.borrow_mut()
        .push(format!("{what}@{}ns", ctx.now().as_nanos()));
}

#[test]
fn zero_byte_transfers_and_same_instant_wakes_interleave_in_a_pinned_order() {
    let log: Log = Rc::default();
    let mut sim = Sim::new();
    let link = sim.create_link(Bandwidth::bytes_per_sec(100.0));

    let l = Rc::clone(&log);
    sim.spawn("a", move |ctx| async move {
        ctx.transfer(ByteSize::ZERO, &[link]).await;
        note(&l, &ctx, "a:first");
        ctx.transfer(ByteSize::ZERO, &[link]).await;
        note(&l, &ctx, "a:second");
    });
    let l = Rc::clone(&log);
    sim.spawn("b", move |ctx| async move {
        note(&l, &ctx, "b:start");
        ctx.sleep(SimDuration::ZERO).await;
        note(&l, &ctx, "b:yield1");
        ctx.sleep(SimDuration::ZERO).await;
        note(&l, &ctx, "b:yield2");
        ctx.sleep(SimDuration::ZERO).await;
        note(&l, &ctx, "b:yield3");
    });
    let l = Rc::clone(&log);
    sim.spawn("c", move |ctx| async move {
        ctx.transfer(ByteSize::new(100), &[link]).await;
        note(&l, &ctx, "c:done");
    });
    let l = Rc::clone(&log);
    sim.spawn("d", move |ctx| async move {
        ctx.transfer(ByteSize::ZERO, &[link]).await;
        note(&l, &ctx, "d:done");
        // `a`'s second transfer has reserved the tick's slot by now, but
        // the tick's deadline is computed only once `b:yield3`, which is
        // ahead of that slot, has run. The child is queued behind the
        // slot, so the tick that wakes `a` still pops before it starts.
        let l2 = Rc::clone(&l);
        ctx.spawn("e", move |e| async move {
            note(&l2, &e, "e:start");
            e.transfer(ByteSize::ZERO, &[link]).await;
            note(&l2, &e, "e:done");
        })
        .await;
        ctx.sleep(SimDuration::ZERO).await;
        note(&l, &ctx, "d:yield");
    });

    // The order a refresh after every start and finish gives: each
    // zero-byte wake follows the same-instant events queued before the
    // last transfer that preceded its tick, and precedes those after it.
    let report = sim.run().expect("run");
    assert_eq!(
        *log.borrow(),
        [
            "b:start@0ns",
            "b:yield1@0ns",
            "b:yield2@0ns",
            "a:first@0ns",
            "d:done@0ns",
            "b:yield3@0ns",
            "e:start@0ns",
            "d:yield@0ns",
            "a:second@0ns",
            "e:done@0ns",
            "c:done@1000000001ns",
        ]
    );
    assert_eq!(report.events, 18);
    assert_eq!(report.end_time.as_nanos(), 1_000_000_001);
}

#[test]
fn transfers_started_at_one_instant_cost_one_recompute() {
    const N: u64 = 64;
    let mut sim = Sim::new();
    let backbone = sim.create_link(Bandwidth::bytes_per_sec(1000.0));
    for i in 0..N {
        let nic = sim.create_link(Bandwidth::bytes_per_sec(100.0));
        sim.spawn(format!("t{i}"), move |ctx| async move {
            ctx.transfer(ByteSize::new(1000), &[nic, backbone]).await;
        });
    }
    let report = sim.run().expect("run");
    // The backbone's fair share is 1000/64 B/s, so all 64 flows finish
    // together after 64 s: one recompute for the starts and one for the
    // finishes, where refreshing after each start would take N + 1.
    assert_eq!(report.end_time.as_nanos(), 64_000_000_001);
    assert_eq!(report.flow_recomputes, 2);
}
