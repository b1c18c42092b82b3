//! Criterion micro-benchmarks of the simulation kernel: event queue
//! throughput, process churn, and fluid-flow rate recomputation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use faaspipe_des::events::{EventQueue, Wake};
use faaspipe_des::flow::{FlowNet, FlowSpec, LinkId};
use faaspipe_des::{Bandwidth, ByteSize, Sim, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(
                    SimTime::from_nanos((i * 48_271) % 1_000_000),
                    Wake::Process((i % 64) as u32),
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_process_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("spawn_sleep_join_200", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            for i in 0..200u64 {
                sim.spawn(format!("p{}", i), move |ctx| async move {
                    ctx.sleep(SimDuration::from_millis(i)).await;
                });
            }
            sim.run().expect("sim ok")
        })
    });
    g.finish();
}

fn bench_flow_recompute(c: &mut Criterion) {
    // 64 NIC-limited flows over one backbone, started at one instant; the
    // completion query runs one max-min recomputation over all of them.
    c.bench_function("flow/start_64_shared_backbone", |b| {
        b.iter(|| {
            let mut net = FlowNet::new();
            let backbone = net.add_link(Bandwidth::mib_per_sec(10_000.0));
            for i in 0..64u32 {
                let nic = net.add_link(Bandwidth::mib_per_sec(100.0));
                net.start(
                    SimTime::ZERO,
                    FlowSpec {
                        bytes: ByteSize::mib(64),
                        links: vec![nic, backbone],
                    },
                    i,
                );
            }
            black_box(net.next_completion(SimTime::ZERO))
        })
    });
}

/// Starts `n` flows at once, each over the links `links_for` picks or
/// adds, then runs a scheduler-style drain loop (advance to the next
/// completion, tick, repeat) that retires every flow. The starts share
/// one rate recompute; each tick then triggers one over every active
/// flow, so the drain costs O(n²) flow freezes; what the flow network
/// keeps small is the constant per freeze (no dense scan over slots or
/// links, and heap traffic only when a link's lower-bound key goes
/// stale).
fn start_then_drain(
    mut net: FlowNet,
    n: u32,
    mut links_for: impl FnMut(&mut FlowNet, u32) -> Vec<LinkId>,
) {
    let mut now = SimTime::ZERO;
    for i in 0..n {
        let links = links_for(&mut net, i);
        // Staggered sizes so completions spread out instead of
        // coalescing into one tick.
        net.start(
            now,
            FlowSpec {
                bytes: ByteSize::kib(64 + (i as u64 % 97) * 16),
                links,
            },
            i,
        );
    }
    let mut woken = Vec::new();
    while let Some(t) = net.next_completion(now) {
        now = t;
        net.tick(now, &mut woken);
    }
    assert_eq!(net.active_flows(), 0);
}

/// Sustained churn at high concurrency: `n` flows, each over its own
/// 100 MiB/s NIC and one shared 10 000 MiB/s backbone.
fn flow_stress(n: u32) {
    let mut net = FlowNet::new();
    let backbone = net.add_link(Bandwidth::mib_per_sec(10_000.0));
    start_then_drain(net, n, |net, _| {
        vec![net.add_link(Bandwidth::mib_per_sec(100.0)), backbone]
    });
}

/// Function NICs per store-shaped stress case are shared by this many
/// concurrent flows (a worker's parallel I/O window).
const STORE_FLOWS_PER_NIC: u32 = 4;

/// The same churn on the topology `StoreClient` builds: every flow
/// crosses its own per-connection link, the store's shared backbone, and
/// a function NIC shared by [`STORE_FLOWS_PER_NIC`] flows. The backbone
/// binds while more than ~500 flows are active and the NICs bind after
/// that, so the drain crosses both regimes.
fn flow_stress_store(n: u32) {
    let mut net = FlowNet::new();
    let backbone = net.add_link(Bandwidth::mib_per_sec(10_000.0));
    let mut nic = backbone;
    start_then_drain(net, n, |net, i| {
        if i % STORE_FLOWS_PER_NIC == 0 {
            nic = net.add_link(Bandwidth::mib_per_sec(80.0));
        }
        vec![net.add_link(Bandwidth::mib_per_sec(95.0)), backbone, nic]
    });
}

/// `n` processes in a `Sim` that each start one equal-sized transfer on
/// the [`flow_stress_store`] topology at the same instant. The backbone
/// binds, so every flow finishes at one tick too: the run is one
/// recompute for the burst and one for the finishes, and what remains
/// is scheduler work linear in `n`.
fn same_instant_burst(n: u32) -> u64 {
    let mut sim = Sim::new();
    let backbone = sim.create_link(Bandwidth::mib_per_sec(10_000.0));
    let mut nic = backbone;
    for i in 0..n {
        if i % STORE_FLOWS_PER_NIC == 0 {
            nic = sim.create_link(Bandwidth::mib_per_sec(80.0));
        }
        let conn = sim.create_link(Bandwidth::mib_per_sec(95.0));
        sim.spawn(format!("burst{}", i), move |ctx| async move {
            ctx.transfer(ByteSize::kib(256), &[conn, backbone, nic])
                .await;
        });
    }
    let report = sim.run().expect("burst sim");
    assert_eq!(report.flow_recomputes, 2);
    report.events
}

fn bench_flow_stress(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_stress");
    g.sample_size(10);
    for n in [1_000u32, 10_000] {
        g.throughput(Throughput::Elements(n as u64));
        let name = format!("start_drain_{}_concurrent", n);
        g.bench_function(&name, |b| b.iter(|| flow_stress(black_box(n))));
        let name = format!("store_drain_{}_concurrent", n);
        g.bench_function(&name, |b| b.iter(|| flow_stress_store(black_box(n))));
        let name = format!("same_instant_burst_{}", n);
        g.bench_function(&name, |b| b.iter(|| same_instant_burst(black_box(n))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_process_churn,
    bench_flow_recompute,
    bench_flow_stress
);
criterion_main!(benches);
