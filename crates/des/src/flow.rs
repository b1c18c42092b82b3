//! Max-min fair fluid-flow network.
//!
//! Data transfers in the simulated cloud are modelled as *fluid flows*: a
//! flow has a byte count and traverses a set of capacity-constrained links
//! (e.g. a function's NIC, the object store's per-connection cap, the
//! store's aggregate backbone). At any instant each flow progresses at its
//! **max-min fair** rate given all concurrently active flows; rates are
//! recomputed after flows start or finish, once for all the starts and
//! finishes at one virtual instant ahead of the next completion check
//! (progressive filling / water-filling algorithm).
//!
//! This is what makes "the huge aggregated bandwidth of object storage" —
//! the paper's central performance argument — an emergent, measurable
//! property of the simulation: adding more functions adds more NIC links,
//! and aggregate throughput grows until the store's backbone saturates.
//!
//! # Scaling discipline
//!
//! A flow start or finish only updates membership and marks the network
//! dirty. Rates are recomputed by [`FlowNet::refresh`], which runs when
//! something reads them: a settle that moves bytes forward, a tick, or a
//! [`FlowNet::next_completion`] query. The scheduler refreshes only
//! before it pops an event that could be ordered after the flow tick, so
//! a burst of `N` starts at one instant costs one recompute instead of
//! `N`. Each recompute still re-freezes *all* `A` active flows, so its
//! cost is `O(A·ℓ + T)` for ℓ links per flow (a small constant; store
//! flows cross three) and `T` links carrying traffic. What matters is
//! the constant per freeze, and that nothing scans every slot or link
//! ever allocated:
//!
//! * per-link **membership lists** (`members`) let each progressive-filling
//!   round freeze exactly the flows crossing the bottleneck instead of
//!   re-scanning every unfrozen flow;
//! * the bottleneck itself comes from a **min-heap** of `(fair share,
//!   link id)` keys holding one *lower-bound* key per link (below), not
//!   from a scan over every touched link per round;
//! * per-flow **completion deadlines** are folded into `recompute` the
//!   moment a rate freezes, so the scheduler's `next_completion` query is
//!   O(1) instead of a scan over all flows after every refresh;
//! * `settle`, `tick` and `link_rate` walk the active-flow / member lists,
//!   not every slot ever allocated.
//!
//! # Lower-bound heap keys
//!
//! `key_of[l]` is the share of link `l`'s newest heap key. The invariant:
//! every live link (count > 0, finite capacity) has a key in the heap,
//! and `key_of[l]` is no greater than its current `residual/count`.
//!
//! * A freeze at the minimum share cannot lower another link's share in
//!   exact arithmetic (`r/c ≥ s` implies `(r − s)/(c − 1) ≥ r/c`). So a
//!   decrement pushes a key only when rounding takes the new share below
//!   `key_of[l]`. When one backbone binds every flow, one pop freezes all.
//! * A popped key whose link has drained (count 0) is discarded. A key
//!   equal to the live share selects its link as the bottleneck. The
//!   link's newest key with the share since risen is re-pushed at the
//!   live share. Any other key is superseded and discarded.
//!
//! The bottleneck sequence is the dense scan's: when a popped key equals
//! its link's share, every other live link has a key ordered after it and
//! a share no smaller than that key, so the popped link is the argmin of
//! `(share, link id)` — the scan's ascending-id tie-break. Freezing walks
//! members in ascending slot order (the scan's flow order), and the
//! accepted share is the live `residual/count`, so `residual`, `counts`
//! and the completion deadlines see the same floating-point operations on
//! the same operands in the same order, and rates are bit-identical. A
//! dense reference in the tests checks this after every start, burst of
//! starts and tick.
//!
//! Deferring the recompute changes no rate either: within one instant no
//! bytes move, so the rates after the last start are the same function of
//! the active set whether or not a recompute ran after each earlier one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::{Bandwidth, ByteSize, SimDuration, SimTime};

/// Identifies a capacity-constrained link in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) u32);

/// Identifies an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(usize);

/// Description of a transfer: how many bytes, across which links.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Total bytes the flow must move.
    pub bytes: ByteSize,
    /// Every link the flow traverses; its rate is bounded by each of them.
    pub links: Vec<LinkId>,
}

#[derive(Debug)]
struct Link {
    capacity: f64, // bytes/sec, may be infinite
}

#[derive(Debug)]
struct Flow {
    remaining: f64, // bytes
    links: Vec<LinkId>,
    waker: u32, // process index to resume on completion
    rate: f64,  // current fair-share rate, bytes/sec
}

/// Bytes of slack under which a flow counts as complete (guards float
/// round-off in settle arithmetic).
const EPSILON_BYTES: f64 = 1e-6;

/// Min-heap key for the bottleneck search. Orders by fair share first and
/// ascending link id second, which is exactly the dense scan's tie-break
/// (`s <= share` kept the incumbent, and the incumbent had the lowest id
/// because the scan ran in ascending id order). Shares are never NaN —
/// residuals are clamped non-negative and counts are positive — so the
/// partial order is total here.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareKey {
    share: f64,
    li: u32,
}

impl Eq for ShareKey {}

impl PartialOrd for ShareKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShareKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.share
            .partial_cmp(&other.share)
            .expect("fair shares are never NaN")
            .then(self.li.cmp(&other.li))
    }
}

/// The fluid-flow network. Owned by the simulation scheduler; processes
/// interact with it through [`Ctx::transfer`](crate::Ctx::transfer).
#[derive(Debug, Default)]
pub struct FlowNet {
    links: Vec<Link>,
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
    last_settle: SimTime,
    /// Occupied flow slots, ascending. Settle/tick/recompute walk this
    /// instead of every slot ever allocated.
    active: Vec<u32>,
    /// Per-link membership: active flow slots crossing the link, ascending
    /// (one entry per occurrence in the flow's link list, mirroring the
    /// dense scan's per-occurrence counts).
    members: Vec<Vec<u32>>,
    /// Links with at least one active flow, ascending. This is the
    /// `touched` set `recompute` used to rebuild from a full flow scan.
    touched: Vec<u32>,
    /// Earliest completion delay among active flows, measured from
    /// `last_settle`; valid only while `earliest_fresh` (i.e. a recompute
    /// ran after the last settling advance). Stalled flows (rate ≤ 0) are
    /// excluded, exactly as the reference scan excludes them.
    earliest: Option<SimDuration>,
    earliest_fresh: bool,
    /// Wakers of flows frozen at a non-positive rate with bytes still
    /// remaining during the last recompute. A non-empty list means the
    /// rate computation starved a flow that can never finish.
    stalled: Vec<u32>,
    /// Flows started or finished since the last recompute; rates, the
    /// completion index and `stalled` are out of date until `refresh`.
    dirty: bool,
    /// Recomputes run so far (see [`FlowNet::recomputes`]).
    recomputes: u64,
    scratch: RecomputeScratch,
}

/// Scratch reused across calls so the hot path does no per-event
/// allocation. `counts`, `residual` and `key_of` are link-indexed and
/// only the entries named by `touched` are ever initialised or read
/// before being written; `frozen_at` is slot-indexed and compared
/// against `epoch`.
#[derive(Debug, Default)]
struct RecomputeScratch {
    counts: Vec<u32>,
    residual: Vec<f64>,
    /// Per live finite link, the share of its newest heap key: a lower
    /// bound on the link's current `residual/count`.
    key_of: Vec<f64>,
    heap: BinaryHeap<Reverse<ShareKey>>,
    frozen_at: Vec<u64>,
    epoch: u64,
    done: Vec<usize>,
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Adds a link with the given capacity and returns its id.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            capacity: capacity.as_bytes_per_sec(),
        });
        self.members.push(Vec::new());
        id
    }

    /// Number of flows currently in progress.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Rate recomputes run so far: at most one per [`FlowNet::refresh`]
    /// after a start or finish.
    pub(crate) fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// The instantaneous aggregate rate through `link`, in bytes/sec, as
    /// of the last [`FlowNet::refresh`]. Useful for instrumentation (e.g.
    /// the aggregate-bandwidth experiment).
    pub fn link_rate(&self, link: LinkId) -> f64 {
        debug_assert!(!self.dirty, "link_rate read before refresh");
        let Some(members) = self.members.get(link.0 as usize) else {
            return 0.0;
        };
        // A flow listing the link twice appears twice in `members`
        // (adjacent, since the list is slot-sorted) but must count once.
        let mut sum = 0.0;
        let mut last = None;
        for &fi in members {
            if last == Some(fi) {
                continue;
            }
            last = Some(fi);
            sum += self.flows[fi as usize]
                .as_ref()
                .expect("member flow is active")
                .rate;
        }
        sum
    }

    /// Wakers of flows starved by the current rates (frozen at a
    /// non-positive rate with bytes still to move). Such a flow can never
    /// complete unless a competing flow finishes first; the scheduler
    /// surfaces it as a loud error instead of deadlocking silently.
    pub fn take_stalled(&mut self) -> Option<u32> {
        self.refresh();
        self.stalled.pop()
    }

    /// Brings rates, the completion index and the stalled list up to date
    /// with the flows started and finished since the last refresh: one
    /// recompute if any were, nothing otherwise.
    pub fn refresh(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.recompute();
        }
    }

    /// Starts a new flow owned by process `waker`. Rates are not
    /// recomputed until the next [`FlowNet::refresh`], so starting many
    /// flows at one instant costs one recompute. Call
    /// [`FlowNet::next_completion`] afterwards to reschedule the tick.
    ///
    /// # Panics
    /// Panics if the spec references an unknown link.
    pub fn start(&mut self, now: SimTime, spec: FlowSpec, waker: u32) -> FlowKey {
        for l in &spec.links {
            assert!(
                (l.0 as usize) < self.links.len(),
                "flow references unknown link {:?}",
                l
            );
        }
        self.settle(now);
        let flow = Flow {
            remaining: spec.bytes.as_f64(),
            links: spec.links,
            waker,
            rate: 0.0,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.flows[i] = Some(flow);
                i
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        let slot = i as u32;
        let pos = self.active.partition_point(|&a| a < slot);
        self.active.insert(pos, slot);
        let FlowNet {
            flows,
            members,
            touched,
            ..
        } = self;
        for l in &flows[i].as_ref().expect("just inserted").links {
            let li = l.0 as usize;
            if members[li].is_empty() {
                let tpos = touched.partition_point(|&t| t < l.0);
                touched.insert(tpos, l.0);
            }
            let mpos = members[li].partition_point(|&m| m < slot);
            members[li].insert(mpos, slot);
        }
        self.dirty = true;
        FlowKey(i)
    }

    /// Advances flow progress to `now`, removes completed flows, and
    /// appends the process indices to resume to `woken` (cleared first,
    /// in deterministic flow order). The caller owns the buffer so the
    /// per-tick allocation can be amortised away. Like [`FlowNet::start`],
    /// a finish leaves the recompute to the next refresh.
    pub fn tick(&mut self, now: SimTime, woken: &mut Vec<u32>) {
        self.settle(now);
        // Completion is judged on current rates (an infinite rate is
        // done), so flows started at this instant must be rated first.
        self.refresh();
        woken.clear();
        let done = &mut self.scratch.done;
        done.clear();
        for &fi in &self.active {
            let f = self.flows[fi as usize].as_ref().expect("active flow");
            if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                done.push(fi as usize);
            }
        }
        if done.is_empty() {
            return;
        }
        // `done` is ascending, so wakers and the free list fill in the
        // same order the dense slot scan produced.
        for k in 0..self.scratch.done.len() {
            let i = self.scratch.done[k];
            let f = self.flows[i].take().expect("completed flow");
            woken.push(f.waker);
            for l in &f.links {
                let li = l.0 as usize;
                // Both lists are sorted. A flow listing a link twice has
                // two equal adjacent entries; removing either one leaves
                // the same list.
                let mpos = self.members[li]
                    .binary_search(&(i as u32))
                    .expect("completed flow is a member");
                self.members[li].remove(mpos);
                if self.members[li].is_empty() {
                    let tpos = self
                        .touched
                        .binary_search(&l.0)
                        .expect("member link is touched");
                    self.touched.remove(tpos);
                }
            }
            self.free.push(i);
        }
        self.active.retain(|&fi| self.flows[fi as usize].is_some());
        self.dirty = true;
    }

    /// When the earliest active flow will complete, if any. Refreshes
    /// rates first.
    ///
    /// O(1) after the refresh: rates only change inside
    /// `FlowNet::recompute`, which folds each flow's completion deadline
    /// into a maintained minimum the moment the rate freezes. The cached
    /// value is relative to the last settle instant; every scheduler
    /// query happens right after a settle+refresh at the same timestamp,
    /// so the fast path always applies there. Any other call pattern
    /// (e.g. a probe at an arbitrary time) falls back to the reference
    /// scan.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.refresh();
        if self.earliest_fresh && now == self.last_settle {
            return self.earliest.map(|d| now.saturating_add(d));
        }
        self.next_completion_reference(now)
    }

    /// Reference implementation of [`FlowNet::next_completion`]: a full
    /// scan over every flow slot, at the rates of the last refresh. Kept
    /// as the oracle the incremental completion index is property-tested
    /// against.
    pub fn next_completion_reference(&self, now: SimTime) -> Option<SimTime> {
        debug_assert!(!self.dirty, "completion reference read before refresh");
        let mut best: Option<SimDuration> = None;
        for f in self.flows.iter().flatten() {
            let d = if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                SimDuration::ZERO
            } else if f.rate <= 0.0 {
                continue; // starved; cannot complete until rates change
            } else {
                Self::completion_delay(f.remaining, f.rate)
            };
            best = Some(match best {
                Some(b) if b <= d => b,
                _ => d,
            });
        }
        best.map(|d| now.saturating_add(d))
    }

    /// How long a flow with `remaining` bytes at `rate` B/s needs to
    /// finish. Rounds *up* and pads by 1 ns so the settle at the
    /// scheduled instant always clears the flow; rounding down can strand
    /// a sub-nanosecond sliver of bytes and loop forever at one
    /// timestamp.
    #[inline]
    fn completion_delay(remaining: f64, rate: f64) -> SimDuration {
        let ns = (remaining / rate * 1e9).ceil();
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos((ns as u64).saturating_add(1))
        }
    }

    /// Advances all remaining-byte counters to `now` at current rates.
    /// Bytes move only when time does, so only then must the rates be
    /// refreshed first; starts within one instant leave it pending.
    fn settle(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.last_settle)
            .as_secs_f64();
        if dt <= 0.0 {
            self.last_settle = now;
            return;
        }
        self.refresh();
        self.last_settle = now;
        // Remaining-byte counters moved; cached deadlines are measured
        // from the old settle instant and must be re-derived.
        self.earliest_fresh = false;
        for &fi in &self.active {
            let f = self.flows[fi as usize].as_mut().expect("active flow");
            if f.rate.is_infinite() {
                f.remaining = 0.0;
            } else {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
    }

    /// Recomputes max-min fair rates with progressive filling, and the
    /// completion deadlines that follow from them.
    ///
    /// Counts and residuals come from the per-link membership lists, the
    /// bottleneck of each filling round comes from a min-heap holding a
    /// lower-bound key per link (see the module docs), and each round
    /// freezes only the members of the bottleneck link. Tie-breaking and
    /// floating-point evaluation order are kept exactly as the dense scan
    /// had them (ascending link id, ascending flow slot, shares derived
    /// from the live residual/count at selection time), so computed
    /// rates — and therefore virtual time — are bit-identical. The work
    /// is still proportional to the active flows: every refresh after a
    /// start or finish re-freezes all of them.
    fn recompute(&mut self) {
        self.recomputes += 1;
        let FlowNet {
            links,
            flows,
            active,
            members,
            touched,
            earliest,
            earliest_fresh,
            stalled,
            scratch,
            ..
        } = self;
        let RecomputeScratch {
            counts,
            residual,
            key_of,
            heap,
            frozen_at,
            epoch,
            ..
        } = scratch;
        *epoch += 1;
        let epoch = *epoch;
        counts.resize(links.len(), 0);
        residual.resize(links.len(), 0.0);
        key_of.resize(links.len(), 0.0);
        frozen_at.resize(flows.len(), 0);
        stalled.clear();
        *earliest = None;
        *earliest_fresh = true;
        let mut unfrozen = active.len();
        // Heapify the initial keys in one O(T) pass, reusing the heap's
        // allocation.
        let mut keys = std::mem::take(heap).into_vec();
        keys.clear();
        for &li in touched.iter() {
            let l = li as usize;
            counts[l] = members[l].len() as u32;
            residual[l] = links[l].capacity;
            if !links[l].capacity.is_infinite() {
                let share = residual[l] / counts[l] as f64;
                key_of[l] = share;
                keys.push(Reverse(ShareKey { share, li }));
            }
        }
        *heap = BinaryHeap::from(keys);
        while unfrozen > 0 {
            // Pop keys until one equals the live share of its link. Every
            // live link keeps a key no greater than its share, so the
            // first exact match is the argmin of (share, link id).
            let mut bottleneck = None;
            while let Some(Reverse(key)) = heap.pop() {
                let l = key.li as usize;
                if counts[l] == 0 {
                    continue;
                }
                let share = residual[l] / counts[l] as f64;
                if share == key.share {
                    bottleneck = Some((l, share));
                    break;
                }
                if key.share == key_of[l] {
                    // The link's lower bound was stale: its share rose
                    // since the key was pushed. Re-key at the live share.
                    debug_assert!(share > key.share, "heap key above live share");
                    key_of[l] = share;
                    heap.push(Reverse(ShareKey { share, li: key.li }));
                }
                // Otherwise a superseded key; the link's newest is queued.
            }
            match bottleneck {
                None => {
                    // Remaining flows cross only infinite-capacity links.
                    for &fi in active.iter() {
                        let i = fi as usize;
                        if frozen_at[i] == epoch {
                            continue;
                        }
                        flows[i].as_mut().expect("active flow").rate = f64::INFINITY;
                        // Infinite rate completes at the next tick.
                        fold_deadline(earliest, SimDuration::ZERO);
                    }
                    break;
                }
                Some((bli, share)) => {
                    let share = share.max(0.0);
                    // Freeze all unfrozen flows crossing the bottleneck in
                    // ascending slot order (the dense scan's flow order).
                    for &m in &members[bli] {
                        let i = m as usize;
                        if frozen_at[i] == epoch {
                            continue;
                        }
                        frozen_at[i] = epoch;
                        unfrozen -= 1;
                        let f = flows[i].as_mut().expect("member flow is active");
                        f.rate = share;
                        for l in &f.links {
                            let li = l.0 as usize;
                            residual[li] = (residual[li] - share).max(0.0);
                            counts[li] -= 1;
                            if counts[li] > 0 && !links[li].capacity.is_infinite() {
                                // Freezing at the minimum share never lowers
                                // another link's share in exact arithmetic;
                                // only rounding can, and then the bound must
                                // follow it down.
                                let s = residual[li] / counts[li] as f64;
                                if s < key_of[li] {
                                    key_of[li] = s;
                                    heap.push(Reverse(ShareKey { share: s, li: l.0 }));
                                }
                            }
                        }
                        if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                            fold_deadline(earliest, SimDuration::ZERO);
                        } else if f.rate <= 0.0 {
                            // The fair share came out non-positive: the
                            // links this flow crosses were fully consumed
                            // by earlier-frozen flows, so it can never
                            // finish at current rates. Surface it loudly
                            // instead of letting the run hang.
                            debug_assert!(
                                false,
                                "flow for process {} starved at rate {} with {} bytes left",
                                f.waker, f.rate, f.remaining
                            );
                            stalled.push(f.waker);
                        } else {
                            fold_deadline(earliest, Self::completion_delay(f.remaining, f.rate));
                        }
                    }
                }
            }
        }
    }
}

/// Folds one completion delay into the maintained minimum, keeping the
/// incumbent on ties exactly as the reference scan does.
#[inline]
fn fold_deadline(earliest: &mut Option<SimDuration>, d: SimDuration) {
    *earliest = Some(match *earliest {
        Some(b) if b <= d => b,
        _ => d,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn rates(net: &mut FlowNet) -> Vec<f64> {
        net.refresh();
        net.flows.iter().flatten().map(|f| f.rate).collect()
    }

    fn tick(net: &mut FlowNet, now: SimTime) -> Vec<u32> {
        let mut woken = Vec::new();
        net.tick(now, &mut woken);
        woken
    }

    /// Dense progressive-filling reference for [`FlowNet::recompute`]:
    /// every round scans the touched links in ascending id for the
    /// minimum `residual/count` (keeping the incumbent on ties), then
    /// freezes the bottleneck's unfrozen flows in ascending slot order.
    /// Returns `(slot, rate)` for every active flow, ascending by slot.
    fn reference_rates(net: &FlowNet) -> Vec<(usize, f64)> {
        let mut counts = vec![0u32; net.links.len()];
        let mut residual = vec![0.0f64; net.links.len()];
        let slots: Vec<usize> = (0..net.flows.len())
            .filter(|&i| net.flows[i].is_some())
            .collect();
        let flow = |i: usize| net.flows[i].as_ref().expect("active slot");
        for &i in &slots {
            for l in &flow(i).links {
                counts[l.0 as usize] += 1;
            }
        }
        let touched: Vec<usize> = (0..net.links.len()).filter(|&l| counts[l] > 0).collect();
        for &l in &touched {
            residual[l] = net.links[l].capacity;
        }
        let mut rate: Vec<Option<f64>> = vec![None; net.flows.len()];
        let mut unfrozen = slots.len();
        while unfrozen > 0 {
            let mut best: Option<(usize, f64)> = None;
            for &l in &touched {
                if counts[l] == 0 || net.links[l].capacity.is_infinite() {
                    continue;
                }
                let s = residual[l] / counts[l] as f64;
                match best {
                    Some((_, b)) if b <= s => {}
                    _ => best = Some((l, s)),
                }
            }
            let Some((bl, share)) = best else {
                for &i in &slots {
                    rate[i].get_or_insert(f64::INFINITY);
                }
                break;
            };
            let share = share.max(0.0);
            for &i in &slots {
                let f = flow(i);
                if rate[i].is_some() || !f.links.iter().any(|l| l.0 as usize == bl) {
                    continue;
                }
                rate[i] = Some(share);
                unfrozen -= 1;
                for l in &f.links {
                    let li = l.0 as usize;
                    residual[li] = (residual[li] - share).max(0.0);
                    counts[li] -= 1;
                }
            }
        }
        slots
            .into_iter()
            .map(|i| (i, rate[i].expect("every flow frozen")))
            .collect()
    }

    /// Checks every active flow's rate against [`reference_rates`] to
    /// the bit.
    fn check_rates(net: &FlowNet, after: &str) -> Result<(), TestCaseError> {
        for (i, want) in reference_rates(net) {
            let got = net.flows[i].as_ref().expect("active slot").rate;
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "slot {} rate {} vs reference {} after {}",
                i,
                got,
                want,
                after
            );
        }
        Ok(())
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(200),
                links: vec![l],
            },
            0,
        );
        assert_eq!(rates(&mut net), vec![100.0]);
        let done_at = net.next_completion(t(0)).expect("one active flow");
        assert!(done_at.as_nanos().abs_diff(t(2000).as_nanos()) <= 2);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        let spec = |b| FlowSpec {
            bytes: ByteSize::new(b),
            links: vec![l],
        };
        net.start(t(0), spec(100), 0);
        net.start(t(0), spec(100), 1);
        assert_eq!(rates(&mut net), vec![50.0, 50.0]);
    }

    #[test]
    fn bottleneck_elsewhere_frees_capacity() {
        // Flow A limited by its private 10 B/s NIC; flow B shares the
        // 100 B/s backbone with A and should get the residual 90 B/s.
        let mut net = FlowNet::new();
        let nic = net.add_link(Bandwidth::bytes_per_sec(10.0));
        let backbone = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(1000),
                links: vec![nic, backbone],
            },
            0,
        );
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(1000),
                links: vec![backbone],
            },
            1,
        );
        let r = rates(&mut net);
        assert_eq!(r[0], 10.0);
        assert_eq!(r[1], 90.0);
    }

    #[test]
    fn rates_rebalance_when_a_flow_finishes() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(50),
                links: vec![l],
            },
            0,
        );
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(500),
                links: vec![l],
            },
            1,
        );
        // Both at 50 B/s; flow 0 finishes at t=1s.
        let first = net.next_completion(t(0)).expect("two active flows");
        assert!(first.as_nanos().abs_diff(t(1000).as_nanos()) <= 2);
        let woken = tick(&mut net, first);
        assert_eq!(woken, vec![0]);
        // Flow 1 had 500-50=450 left, now at full 100 B/s.
        assert_eq!(rates(&mut net), vec![100.0]);
        let second = net.next_completion(first).expect("one active flow");
        assert!(second.as_nanos().abs_diff(t(1000 + 4500).as_nanos()) <= 4);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(
            t(5),
            FlowSpec {
                bytes: ByteSize::ZERO,
                links: vec![l],
            },
            7,
        );
        assert_eq!(net.next_completion(t(5)), Some(t(5)));
        assert_eq!(tick(&mut net, t(5)), vec![7]);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn unconstrained_flow_is_instantaneous() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::UNLIMITED);
        net.start(
            t(1),
            FlowSpec {
                bytes: ByteSize::gib(10),
                links: vec![l],
            },
            3,
        );
        assert_eq!(net.next_completion(t(1)), Some(t(1)));
        assert_eq!(tick(&mut net, t(1)), vec![3]);
    }

    #[test]
    fn aggregate_link_rate_reports_sum() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        for i in 0..4 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec {
                    bytes: ByteSize::new(10_000),
                    links: vec![nic, backbone],
                },
                i,
            );
        }
        // 4 NIC-limited flows at 100 B/s each => 400 B/s on the backbone.
        net.refresh();
        assert!((net.link_rate(backbone) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn backbone_saturation_caps_aggregate() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(250.0));
        for i in 0..4 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec {
                    bytes: ByteSize::new(10_000),
                    links: vec![nic, backbone],
                },
                i,
            );
        }
        // Fair share on the backbone is 62.5 B/s < NIC cap.
        for r in rates(&mut net) {
            assert!((r - 62.5).abs() < 1e-9);
        }
        assert!((net.link_rate(backbone) - 250.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn unknown_link_panics() {
        let mut net = FlowNet::new();
        net.start(
            t(0),
            FlowSpec {
                bytes: ByteSize::new(1),
                links: vec![LinkId(9)],
            },
            0,
        );
    }

    #[test]
    fn flow_slots_are_reused() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        let spec = FlowSpec {
            bytes: ByteSize::new(100),
            links: vec![l],
        };
        net.start(t(0), spec.clone(), 0);
        let done = net.next_completion(t(0)).expect("one flow");
        tick(&mut net, done);
        net.start(done, spec, 1);
        assert_eq!(net.flows.len(), 1, "slot should be recycled");
    }

    #[test]
    fn starts_at_one_instant_share_one_recompute() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(250.0));
        for i in 0..8 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            let spec = FlowSpec {
                bytes: ByteSize::new(1000 + i as u64),
                links: vec![nic, backbone],
            };
            net.start(t(3), spec, i);
        }
        assert_eq!(net.recomputes(), 0, "starts only mark the net dirty");
        let first = net.next_completion(t(3)).expect("eight active flows");
        assert_eq!(net.recomputes(), 1);
        assert_eq!(
            net.next_completion(t(3)),
            Some(first),
            "a clean net is not recomputed"
        );
        assert_eq!(net.recomputes(), 1);
        // A finish is deferred the same way, and the first flow to finish
        // is the smallest one at the common backbone share.
        assert_eq!(tick(&mut net, first), vec![0]);
        assert_eq!(net.recomputes(), 1);
        assert!(net.next_completion(first).is_some());
        assert_eq!(net.recomputes(), 2);
    }

    #[test]
    fn a_tick_at_the_start_instant_rates_the_new_flows_first() {
        // An unconstrained flow completes at the instant it starts, even
        // when nothing refreshed the net between its start and the tick.
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::UNLIMITED);
        let spec = FlowSpec {
            bytes: ByteSize::gib(1),
            links: vec![l],
        };
        net.start(t(1), spec, 3);
        assert_eq!(tick(&mut net, t(1)), vec![3]);
    }

    #[test]
    fn time_advancing_past_unrefreshed_starts_moves_bytes_at_their_rates() {
        // No query between the starts and a later tick: the settle must
        // rate the new flows before it moves their bytes.
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        let spec = |b| FlowSpec {
            bytes: ByteSize::new(b),
            links: vec![l],
        };
        net.start(t(0), spec(100), 0);
        net.start(t(0), spec(300), 1);
        // 50 B/s each for 1 s: 50 and 250 bytes left.
        assert_eq!(tick(&mut net, t(1000)), Vec::<u32>::new());
        let done = net.next_completion(t(1000)).expect("two active flows");
        assert!(done.as_nanos().abs_diff(t(2000).as_nanos()) <= 2);
    }

    #[test]
    fn cached_next_completion_matches_reference_after_churn() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        let mut now = t(0);
        for i in 0..32u32 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(64.0 + i as f64));
            net.start(
                now,
                FlowSpec {
                    bytes: ByteSize::new(1000 + 37 * i as u64),
                    links: vec![nic, backbone],
                },
                i,
            );
            assert_eq!(
                net.next_completion(now),
                net.next_completion_reference(now),
                "after start {}",
                i
            );
            now = now.saturating_add(SimDuration::from_nanos(1_000_000 * (i as u64 % 3)));
        }
        while net.active_flows() > 0 {
            let at = net.next_completion(now).expect("active flows remain");
            assert_eq!(net.next_completion(now), net.next_completion_reference(now));
            let woken = tick(&mut net, at);
            assert!(!woken.is_empty(), "tick at next_completion completes");
            now = at;
            assert_eq!(net.next_completion(now), net.next_completion_reference(now));
        }
    }

    #[test]
    fn healthy_topologies_never_report_stalls() {
        // With exact arithmetic progressive filling cannot starve a flow
        // (each round's bottleneck share is non-decreasing), so the stall
        // channel only trips on a rate-computation bug or float
        // pathology. A saturated mixed topology must stay clean.
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(250.0));
        for i in 0..8 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec {
                    bytes: ByteSize::new(1000 + i as u64),
                    links: vec![nic, backbone],
                },
                i,
            );
            assert_eq!(net.take_stalled(), None, "after start {}", i);
        }
        while net.active_flows() > 0 {
            let at = net
                .next_completion(net.last_settle)
                .expect("active flows remain");
            tick(&mut net, at);
            assert_eq!(net.take_stalled(), None);
        }
    }

    // Ops are `(kind, bytes, nic, shape, dt)`: kinds 0–2 start a
    // store-shaped flow (fresh per-connection link, the shared backbone,
    // one of the function NICs), kind 3 advances `dt` and ticks, kind 4
    // advances to the predicted completion and ticks (the scheduler's
    // own pattern), and kind 5 starts a burst of 2–8 such flows at one
    // instant with no refresh between them (the scheduler's pattern when
    // many processes transfer at once). `shape` bits vary the flow: bit 0
    // adds the infinite link, bit 1 lists the NIC twice, bit 2 skips the
    // backbone, bit 3 gives the connection its NIC's capacity (an
    // equal-capacity tie). Every op ends with one refresh, as the
    // scheduler does before it reads rates.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every start, burst of starts and tick, and through a
        /// drain to quiescence, every active flow's rate equals the dense
        /// reference's bit for bit, and so does the completion deadline.
        #[test]
        fn rates_match_dense_reference_bit_for_bit(
            caps in (1u64..=400, 1u64..=100, 1u64..=100),
            nic_class in vec(0u8..3, 1..8),
            ops in vec((0u8..6, 1u64..=1 << 30, any::<u8>(), any::<u8>(), 1u64..500_000_000), 1..120),
        ) {
            // Capacities in sevenths of a MiB/s so shares round. The
            // backbone (up to ~57 MiB/s) binds against a few connections
            // (up to ~14 MiB/s); NIC classes 0 and 1 share a capacity.
            let (backbone_cap, conn_cap, nic_cap) = caps;
            let bw = |sevenths: u64| Bandwidth::mib_per_sec(sevenths as f64 / 7.0);
            let nic_bw = |class: u8| bw(if class == 2 { nic_cap + 3 } else { nic_cap });
            let mut net = FlowNet::new();
            let backbone = net.add_link(bw(backbone_cap));
            let unlimited = net.add_link(Bandwidth::UNLIMITED);
            let nics: Vec<(LinkId, u8)> = nic_class
                .iter()
                .map(|&c| (net.add_link(nic_bw(c)), c))
                .collect();
            let mut now = SimTime::ZERO;
            let mut woken = Vec::new();
            let mut waker = 0u32;
            let mut start = |net: &mut FlowNet, now: SimTime, bytes: u64, nic: u8, shape: u8| {
                let (nic, class) = nics[nic as usize % nics.len()];
                let conn = if shape & 8 != 0 { nic_bw(class) } else { bw(conn_cap) };
                let mut links = vec![net.add_link(conn)];
                if shape & 4 == 0 {
                    links.push(backbone);
                }
                links.push(nic);
                if shape & 2 != 0 {
                    links.push(nic);
                }
                if shape & 1 != 0 {
                    links.push(unlimited);
                }
                let spec = FlowSpec { bytes: ByteSize::new(bytes), links };
                net.start(now, spec, waker);
                waker += 1;
            };
            for &(kind, bytes, nic, shape, dt) in &ops {
                let recomputes = net.recomputes();
                match kind {
                    0..=2 => start(&mut net, now, bytes, nic, shape),
                    5 => {
                        for j in 0..2 + dt % 7 {
                            let j8 = j as u8;
                            let bytes = bytes.rotate_left(7 * j as u32) % (1 << 30) + 1;
                            start(&mut net, now, bytes, nic.wrapping_add(j8), shape.rotate_left(j as u32));
                        }
                    }
                    3 => {
                        now = now.saturating_add(SimDuration::from_nanos(dt));
                        net.tick(now, &mut woken);
                    }
                    _ => {
                        if let Some(t) = net.next_completion(now) {
                            now = t;
                            net.tick(now, &mut woken);
                        }
                    }
                }
                net.refresh();
                if kind == 5 {
                    prop_assert_eq!(net.recomputes(), recomputes + 1, "a burst costs one recompute");
                }
                let after = format!("op ({}, {}, {}, {}, {})", kind, bytes, nic, shape, dt);
                check_rates(&net, &after)?;
                prop_assert_eq!(
                    net.next_completion(now),
                    net.next_completion_reference(now),
                    "completion after {}",
                    after
                );
            }
            let mut rounds = 0usize;
            while let Some(t) = net.next_completion(now) {
                now = t;
                net.tick(now, &mut woken);
                net.refresh();
                check_rates(&net, "a drain tick")?;
                rounds += 1;
                prop_assert!(rounds < 10_000, "drain did not converge");
            }
            prop_assert_eq!(net.active_flows(), 0);
        }
    }
}
