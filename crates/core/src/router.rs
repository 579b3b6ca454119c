//! Indexed deficit router: the request hot path.
//!
//! The dispatcher (§3.2 ❷) routes every arrival to the dispatch-set
//! instance whose target rate is least satisfied — the instance with
//! the lowest *credit* `sent / rate`. The original implementation
//! rebuilt and sorted a candidate `Vec` per request, an O(n log n)
//! allocation on the hottest path in the simulator. [`DeficitRouter`]
//! replaces it with a keyed binary min-heap over the same credits:
//!
//! * **Allocation-free in steady state.** The heap, its position
//!   index and the retry scratch buffer are reused across dispatches;
//!   after warm-up a dispatch performs no allocation.
//! * **O(log n) per dispatch.** One pop + one reinsert when the best
//!   instance accepts; instances whose pending batch is full are set
//!   aside in a scratch buffer and reinserted after the decision.
//! * **Identical routing order.** The heap orders by
//!   `(credit, insertion index)`, exactly the order a stable sort by
//!   credit produces, so routing decisions match the straightforward
//!   reference implementation request for request (pinned by a
//!   property test below).
//!
//! * **Generation-stamped.** [`DeficitRouter::generation`] moves on
//!   every change that could turn a refused dispatch into an accepted
//!   one (membership, rates, credits), so a caller can remember "every
//!   entry refused at generation `g`" and skip the heap entirely while
//!   nothing has moved.
//!
//! Credit staleness fix: credits are *relative* — an entry added to a
//! set whose veterans carry large `sent` counters would have credit 0
//! and absorb nearly all traffic until it "caught up". The router
//! therefore resets every credit to zero whenever the dispatch-set
//! membership changes (push, removal, restore), so routing always
//! tracks the *current* target rates rather than stale history.

use infless_cluster::InstanceId;
use infless_sim::SimDuration;

use crate::batching::RpsWindow;

/// An instance in the dispatch set with its controller state.
#[derive(Debug, Clone, Copy)]
pub struct RouterEntry {
    /// The engine instance this entry routes to.
    pub id: InstanceId,
    /// The instance's feasible-rate window (Eq. 6).
    pub window: RpsWindow,
    /// Target dispatch rate from the three-case controller; entries
    /// with a non-positive rate are excluded from routing.
    pub rate: f64,
    /// Requests sent since the last credit reset (deficit counter).
    pub sent: u64,
    /// The COP-predicted execution latency of this instance's
    /// configuration — carried so fault recovery can tell a hopeless
    /// retry (budget < fastest instance) from a viable one.
    pub predicted_exec: SimDuration,
}

impl RouterEntry {
    fn credit(&self) -> f64 {
        self.sent as f64 / self.rate
    }
}

/// Marker for "not in the heap" in the position index.
const ABSENT: u32 = u32::MAX;

/// Keyed min-heap over dispatch-set credits. See the module docs.
#[derive(Debug, Default)]
pub struct DeficitRouter {
    /// Entries in insertion order (the tie-break order).
    entries: Vec<RouterEntry>,
    /// Binary min-heap of indices into `entries`, keyed by
    /// `(credit, index)`.
    heap: Vec<u32>,
    /// `pos[i]` = slot of entry `i` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Entries popped as full during the current dispatch, awaiting
    /// reinsertion. Reused across calls.
    scratch: Vec<u32>,
    /// When set, the heap is rebuilt lazily before the next dispatch
    /// (membership or rate changes invalidate it wholesale).
    dirty: bool,
    /// Bumped wherever `dirty` is set; see [`Self::generation`].
    generation: u64,
}

impl DeficitRouter {
    /// An empty router.
    pub fn new() -> Self {
        DeficitRouter::default()
    }

    /// Number of entries in the dispatch set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dispatch set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A counter that moves on every push, removal, retune, credit
    /// reset and [`Self::take_entries`] — every change to which
    /// entries are offered, in what order. A dispatch never moves it,
    /// and a refused one changes no entry.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &RouterEntry> {
        self.entries.iter()
    }

    /// Adds an instance to the dispatch set. Membership changed, so
    /// every credit resets — see the module docs.
    pub fn push(&mut self, entry: RouterEntry) {
        self.entries.push(entry);
        self.reset_credits();
    }

    /// Removes and returns the entry at `index` (insertion order).
    /// Remaining credits reset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_at(&mut self, index: usize) -> RouterEntry {
        let e = self.entries.remove(index);
        self.reset_credits();
        e
    }

    /// Removes the entry for `id`, if present. Credits reset on
    /// removal.
    pub fn remove_by_id(&mut self, id: InstanceId) -> Option<RouterEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.remove_at(pos))
    }

    /// Keeps only the entries matching `pred` (insertion order
    /// preserved). Credits reset if anything was dropped.
    pub fn retain(&mut self, pred: impl FnMut(&RouterEntry) -> bool) {
        let before = self.entries.len();
        self.entries.retain(pred);
        if self.entries.len() != before {
            self.reset_credits();
        }
    }

    /// Takes the whole dispatch set out (consolidation), leaving the
    /// router empty but with its buffers intact.
    pub fn take_entries(&mut self) -> Vec<RouterEntry> {
        self.invalidate();
        std::mem::take(&mut self.entries)
    }

    /// Applies controller re-tuning (rates, credit zeroing) to the
    /// entries in insertion order, then re-indexes.
    pub fn retune(&mut self, f: impl FnOnce(&mut [RouterEntry])) {
        f(&mut self.entries);
        self.invalidate();
    }

    /// Zeroes every deficit counter and re-indexes.
    pub fn reset_credits(&mut self) {
        for e in &mut self.entries {
            e.sent = 0;
        }
        self.invalidate();
    }

    /// Marks the heap for a rebuild and moves the generation.
    fn invalidate(&mut self) {
        self.dirty = true;
        self.generation += 1;
    }

    /// Routes one request: offers instances in ascending credit order
    /// (ties: insertion order) until `try_enqueue` accepts one, charges
    /// that instance's deficit counter, and returns its id. Returns
    /// `None` when every positive-rate instance refuses (pending batch
    /// full).
    pub fn dispatch(
        &mut self,
        mut try_enqueue: impl FnMut(InstanceId) -> bool,
    ) -> Option<InstanceId> {
        if self.dirty {
            self.rebuild();
        }
        debug_assert!(self.scratch.is_empty());
        let mut hit = None;
        while let Some(idx) = self.pop_min() {
            if try_enqueue(self.entries[idx as usize].id) {
                self.entries[idx as usize].sent += 1;
                hit = Some(self.entries[idx as usize].id);
                self.insert(idx);
                break;
            }
            self.scratch.push(idx);
        }
        while let Some(idx) = self.scratch.pop() {
            self.insert(idx);
        }
        hit
    }

    // --- heap internals ----------------------------------------------------

    fn rebuild(&mut self) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(self.entries.len(), ABSENT);
        for i in 0..self.entries.len() {
            if self.entries[i].rate > 0.0 {
                self.insert(i as u32);
            }
        }
        self.dirty = false;
    }

    /// `(credit, index)` strict ordering; finite because `rate > 0`.
    fn less(&self, a: u32, b: u32) -> bool {
        let ca = self.entries[a as usize].credit();
        let cb = self.entries[b as usize].credit();
        match ca.partial_cmp(&cb).expect("credits are finite") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b,
        }
    }

    fn insert(&mut self, idx: u32) {
        let slot = self.heap.len();
        self.heap.push(idx);
        self.pos[idx as usize] = slot as u32;
        self.sift_up(slot);
    }

    fn pop_min(&mut self) -> Option<u32> {
        let min = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[min as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(min)
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.less(self.heap[slot], self.heap[parent]) {
                self.swap_slots(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let left = 2 * slot + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len() && self.less(self.heap[right], self.heap[left]) {
                best = right;
            }
            if self.less(self.heap[best], self.heap[slot]) {
                self.swap_slots(slot, best);
                slot = best;
            } else {
                break;
            }
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

/// Reusable least-loaded ordering scratch for the baseline routers.
///
/// OpenFaaS+ (fallback path) and BATCH both route by ascending queue
/// length; each previously collected and sorted a fresh `Vec` per
/// request/pump. This helper reuses one buffer and keeps the exact
/// stable-sort semantics (ties preserve the input order).
#[derive(Debug, Default)]
pub struct LeastLoadedScratch {
    ids: Vec<InstanceId>,
}

impl LeastLoadedScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        LeastLoadedScratch::default()
    }

    /// Copies `ids` into the scratch, stable-sorts by `load` ascending,
    /// and returns the ordered slice (valid until the next call).
    pub fn order(
        &mut self,
        ids: &[InstanceId],
        mut load: impl FnMut(InstanceId) -> usize,
    ) -> &[InstanceId] {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.ids.sort_by_key(|&id| load(id));
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_sim::SimDuration;
    use proptest::prelude::*;

    fn entry(id: u64, rate: f64) -> RouterEntry {
        RouterEntry {
            id: InstanceId::new(id),
            window: RpsWindow::for_instance(
                SimDuration::from_millis(10),
                SimDuration::from_millis(100),
                1,
            )
            .expect("feasible window"),
            rate,
            sent: 0,
            predicted_exec: SimDuration::from_millis(10),
        }
    }

    /// The straightforward reference: filter positive rates, stable
    /// sort by credit, first acceptor wins — with the same
    /// reset-credits-on-membership-change rule as the indexed router.
    #[derive(Default)]
    struct ReferenceRouter {
        entries: Vec<RouterEntry>,
    }

    impl ReferenceRouter {
        fn push(&mut self, e: RouterEntry) {
            self.entries.push(e);
            self.reset();
        }

        fn remove_at(&mut self, i: usize) -> RouterEntry {
            let e = self.entries.remove(i);
            self.reset();
            e
        }

        fn reset(&mut self) {
            for e in &mut self.entries {
                e.sent = 0;
            }
        }

        fn dispatch(
            &mut self,
            mut try_enqueue: impl FnMut(InstanceId) -> bool,
        ) -> Option<InstanceId> {
            let mut order: Vec<usize> = (0..self.entries.len())
                .filter(|&i| self.entries[i].rate > 0.0)
                .collect();
            order.sort_by(|&a, &b| {
                let ka = self.entries[a].credit();
                let kb = self.entries[b].credit();
                ka.partial_cmp(&kb).expect("finite")
            });
            for i in order {
                if try_enqueue(self.entries[i].id) {
                    self.entries[i].sent += 1;
                    return Some(self.entries[i].id);
                }
            }
            None
        }
    }

    #[test]
    fn routes_to_lowest_credit_first() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 10.0));
        r.push(entry(1, 10.0));
        // Equal credits: insertion order breaks the tie.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
        // 0 now has credit 1/10; 1 still 0.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(1)));
        // Both at 1/10 — back to insertion order.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    #[test]
    fn rate_proportional_sharing() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 30.0));
        r.push(entry(1, 10.0));
        let mut counts = [0u64; 2];
        for _ in 0..400 {
            let id = r.dispatch(|_| true).unwrap();
            counts[id.raw() as usize] += 1;
        }
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn full_instances_fall_through() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 100.0));
        r.push(entry(1, 1.0));
        // Instance 0 (lowest credit) refuses; 1 takes it.
        assert_eq!(
            r.dispatch(|id| id != InstanceId::new(0)),
            Some(InstanceId::new(1))
        );
        // Everyone refuses.
        assert_eq!(r.dispatch(|_| false), None);
        // Refused entries were reinserted: a normal dispatch still works.
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    #[test]
    fn zero_rate_entries_are_skipped() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 0.0));
        assert_eq!(r.dispatch(|_| true), None);
        r.retune(|es| es[0].rate = 5.0);
        assert_eq!(r.dispatch(|_| true), Some(InstanceId::new(0)));
    }

    /// Satellite bugfix pin: a newcomer joining veterans with large
    /// deficit counters must NOT absorb a flood of requests while it
    /// "catches up" — membership change resets every credit.
    #[test]
    fn late_instance_is_not_flooded() {
        let mut r = DeficitRouter::new();
        r.push(entry(0, 10.0));
        r.push(entry(1, 10.0));
        // Steady load: veterans accumulate large sent counters.
        for _ in 0..10_000 {
            r.dispatch(|_| true).unwrap();
        }
        // A third instance joins late with the same target rate.
        r.push(entry(2, 10.0));
        let mut counts = [0u64; 3];
        for _ in 0..300 {
            let id = r.dispatch(|_| true).unwrap();
            counts[id.raw() as usize] += 1;
        }
        // Fair three-way split from the moment it joined — not ~300
        // requests in a row to the newcomer (the stale-credit bug).
        assert_eq!(counts, [100, 100, 100]);
    }

    /// `true` if `op` moved the router's generation.
    fn moves_generation(r: &mut DeficitRouter, op: impl FnOnce(&mut DeficitRouter)) -> bool {
        let before = r.generation();
        op(r);
        r.generation() != before
    }

    #[test]
    fn generation_moves_on_every_change_but_dispatch() {
        let mut r = DeficitRouter::new();
        assert!(moves_generation(&mut r, |r| r.push(entry(0, 10.0))));
        r.push(entry(1, 10.0));
        r.push(entry(2, 10.0));
        assert!(!moves_generation(&mut r, |r| {
            assert!(r.dispatch(|_| true).is_some());
            assert!(r.dispatch(|_| false).is_none());
            r.retain(|_| true);
        }));
        assert!(moves_generation(&mut r, |r| r.retain(|e| e.id.raw() != 2)));
        assert!(moves_generation(&mut r, |r| {
            r.remove_by_id(InstanceId::new(1));
        }));
        assert!(moves_generation(&mut r, |r| r.retune(|es| es[0].rate = 5.0)));
        assert!(moves_generation(&mut r, DeficitRouter::reset_credits));
        assert!(moves_generation(&mut r, |r| {
            r.take_entries();
        }));
    }

    #[test]
    fn least_loaded_scratch_matches_stable_sort() {
        let ids: Vec<InstanceId> = (0..6).map(InstanceId::new).collect();
        let load = |id: InstanceId| [3usize, 1, 2, 1, 0, 1][id.raw() as usize];
        let mut scratch = LeastLoadedScratch::new();
        let got: Vec<u64> = scratch.order(&ids, load).iter().map(|i| i.raw()).collect();
        // Stable: the three load-1 instances keep their input order.
        assert_eq!(got, vec![4, 1, 3, 5, 2, 0]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push { rate: f64 },
        RemoveAt(usize),
        Retune { rates: Vec<f64> },
        ResetCredits,
        Dispatch { salt: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..200).prop_map(|r| Op::Push { rate: r as f64 }),
            (0usize..8).prop_map(Op::RemoveAt),
            prop::collection::vec(0u64..50, 0..8).prop_map(|rs| Op::Retune {
                rates: rs.iter().map(|&r| r as f64).collect()
            }),
            Just(Op::ResetCredits),
            (0u64..20).prop_map(|salt| Op::Dispatch { salt }),
        ]
    }

    proptest! {
        /// Tentpole pin: over random dispatch-set churn the indexed
        /// router emits the identical request→instance sequence as the
        /// reference implementation, and both end in the same state.
        #[test]
        fn prop_router_matches_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let mut indexed = DeficitRouter::new();
            let mut reference = ReferenceRouter::default();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Op::Push { rate } => {
                        indexed.push(entry(next_id, rate));
                        reference.push(entry(next_id, rate));
                        next_id += 1;
                    }
                    Op::RemoveAt(i) => {
                        if i < indexed.len() {
                            let a = indexed.remove_at(i);
                            let b = reference.remove_at(i);
                            prop_assert_eq!(a.id, b.id);
                        }
                    }
                    Op::Retune { rates } => {
                        let apply = |es: &mut [RouterEntry]| {
                            for (e, r) in es.iter_mut().zip(&rates) {
                                e.rate = *r;
                            }
                        };
                        indexed.retune(apply);
                        apply(&mut reference.entries);
                    }
                    Op::ResetCredits => {
                        indexed.reset_credits();
                        reference.reset();
                    }
                    Op::Dispatch { salt } => {
                        // Acceptance must be a pure function of the
                        // instance id so both routers see the same
                        // "queue full" answers.
                        let accept = |id: InstanceId| !(id.raw() + salt).is_multiple_of(4);
                        let a = indexed.dispatch(accept);
                        let b = reference.dispatch(accept);
                        prop_assert_eq!(a, b);
                    }
                }
                // State equivalence after every op.
                prop_assert_eq!(indexed.len(), reference.entries.len());
                for (x, y) in indexed.iter().zip(&reference.entries) {
                    prop_assert_eq!(x.id, y.id);
                    prop_assert_eq!(x.sent, y.sent);
                    prop_assert_eq!(x.rate, y.rate);
                }
            }
        }
    }
}
