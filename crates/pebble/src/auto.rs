//! The automatic scheduler: compute order + replacement policy → valid
//! schedule + exact I/O count.
//!
//! Given the order in which a program computes the CDAG's vertices, the only
//! remaining freedom in the machine model is *what to keep in cache*. This
//! scheduler makes those decisions with a pluggable [`ReplacementPolicy`],
//! maintaining the invariants the model demands:
//!
//! - a live value (one with uncomputed successors, or an unstored output)
//!   that is evicted while *dirty* (never stored) is stored first — it will
//!   be needed again and the model forbids recomputation;
//! - dead values are evicted first, for free;
//! - outputs are stored the moment they are computed (each output costs
//!   exactly one store in any schedule, so this is never worse).
//!
//! # The fast engine
//!
//! This module is the amortized-O(log M) engine; the original O(M)-per-miss
//! scan engine survives as [`reference::ReferenceScheduler`] and defines the
//! behavior this engine must reproduce exactly (same [`IoStats`], same
//! recorded [`Schedule`], same eviction sequence, for every policy). Three
//! structures replace the per-miss scans:
//!
//! - **Bounded lazy-invalidation policy heaps.** For [`PolicyKind::Belady`]
//!   a max-heap keyed `(next_use, Reverse(id))`; for [`PolicyKind::Lru`] a
//!   min-heap keyed `(last_touch, id)`. Entries are pushed on every key
//!   change and never removed in place; a popped entry is *stale* (its key
//!   no longer matches the vertex's current key, or the vertex left the
//!   cache) and discarded, or *pinned* (an operand of the current step) and
//!   stashed + re-pushed after the victim is found. Once a heap holds more
//!   than `2·|cache| + HEAP_SLACK` entries it is rebuilt from the cache at
//!   the next step boundary (one valid entry per cached vertex), so it never
//!   outgrows `O(M)` and each push pays O(1) amortized for the rebuilds.
//!   The VertexId tie-break makes the victim identical to the reference
//!   scan regardless of heap internals or rebuilds. [`PolicyKind::Other`]
//!   policies fall back to a candidate scan over the cache in insertion
//!   order, so stateful policies (random) observe the exact call sequence
//!   the reference makes.
//! - **Dead-value free-list.** A value that is dead the moment it is
//!   computed (a non-output with zero uses under this order) is pushed onto
//!   a min-heap by id; free evictions pop it in O(log M). All other values
//!   die while pinned as operands (or as just-stored outputs) and are
//!   dropped eagerly at that point, so the free-list is exactly the set of
//!   dead values in cache — no lazy validation needed.
//! - **Flat CSR use-lists.** Per-vertex sorted `u32` use positions live in
//!   one [`Csr`] built once per `(graph, order)` by [`SchedScratch::prepare`]
//!   and reused across every `(policy, M)` run of a sweep; a per-vertex use
//!   cursor advances eagerly as uses are consumed, so "next use" and "uses
//!   left" are O(1) lookups and need no state of their own.
//!
//! Per vertex, a run keeps an 8-byte `Slot` (cache position + use
//! cursor), one `stored` byte, and for LRU an 8-byte touch stamp; the
//! prepared CSR adds 4 bytes per vertex plus 4 per use.

pub mod reference;

use crate::graph::PebbleGraph;
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::schedule::{Action, Schedule};
use crate::stats::{EngineCounters, IoStats};
use mmio_cdag::{Cdag, Csr, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Slack of the policy-heap compaction rule: a heap holding more than
/// `2·|cache| + HEAP_SLACK` entries is rebuilt from the cache, so it never
/// exceeds that length at a step boundary (plus one step's pushes within
/// it). The slack keeps tiny caches from rebuilding every step.
const HEAP_SLACK: usize = 16;

/// `Slot::cache_pos` of a vertex that is not in cache.
const NOT_CACHED: u32 = u32::MAX;

/// Next-use key of a vertex with no uses left.
const NO_USE: u32 = u32::MAX;

/// Error: the cache cannot hold even one operand set plus its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheTooSmall {
    /// The requested cache size.
    pub m: usize,
    /// The minimum feasible cache size (`max_indegree + 1`).
    pub need: usize,
}

impl fmt::Display for CacheTooSmall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache size {} cannot hold an operand set ({} needed)",
            self.m, self.need
        )
    }
}

impl std::error::Error for CacheTooSmall {}

/// What [`AutoScheduler::run_prepared`] should collect beyond [`IoStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Record the full action sequence as a [`Schedule`].
    pub record_schedule: bool,
    /// Record every vertex evicted on a miss (free and policy evictions).
    pub record_victims: bool,
}

/// Everything a scheduler run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Exact I/O statistics.
    pub stats: IoStats,
    /// The schedule, if [`RunOptions::record_schedule`] was set.
    pub schedule: Option<Schedule>,
    /// The eviction sequence, if [`RunOptions::record_victims`] was set.
    pub victims: Option<Vec<VertexId>>,
    /// Engine-internal event counts (heap traffic, eviction kinds).
    pub counters: EngineCounters,
}

/// The hot per-vertex record of a run: both fields are read for every
/// operand of every step, so they share a cache line.
#[derive(Clone, Copy)]
struct Slot {
    /// Index in the cache list, or [`NOT_CACHED`].
    cache_pos: u32,
    /// Uses consumed so far: the index of the next use in the vertex's row.
    use_ptr: u32,
}

/// Reusable scheduler state: the per-(graph, order) CSR use-lists plus every
/// per-run vector and heap, so a sweep over a (policy, M) grid allocates
/// once per worker instead of once per run.
#[derive(Default)]
pub struct SchedScratch {
    // Built by `prepare`, immutable during runs.
    uses: Csr,
    // Per-run state, reset by `run_prepared`.
    slots: Vec<Slot>,
    stored: Vec<bool>,
    /// LRU only: the stamp of each vertex's latest touch.
    last_touch: Vec<u64>,
    cache_list: Vec<VertexId>,
    belady_heap: BinaryHeap<(u32, Reverse<VertexId>)>,
    lru_heap: BinaryHeap<Reverse<(u64, VertexId)>>,
    dead_heap: BinaryHeap<Reverse<VertexId>>,
    stash: Vec<VertexId>,
    candidates: Vec<VertexId>,
    next_use_buf: Vec<u64>,
}

impl SchedScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SchedScratch {
        SchedScratch::default()
    }

    /// Builds the flat CSR use-lists for `(g, order)`, reusing existing
    /// allocations. Must be called before [`AutoScheduler::run_prepared`]
    /// with the same graph and order.
    ///
    /// # Panics
    /// Panics if `order` has more than `u32::MAX` steps (positions are
    /// stored as `u32`; a [`VertexId`] space never needs more).
    pub fn prepare<G: PebbleGraph>(&mut self, g: &G, order: &[VertexId]) {
        assert!(
            order.len() <= u32::MAX as usize,
            "order too long for u32 positions"
        );
        // Emitting in ascending order position keeps every row sorted.
        self.uses.rebuild(g.n_vertices(), |sink| {
            for (pos, &v) in order.iter().enumerate() {
                for &p in g.preds(v) {
                    sink(p.0, pos as u32);
                }
            }
        });
    }
}

/// Scheduler for one CDAG under a fixed cache size. Generic over the
/// graph's representation: the full [`Cdag`] (the default) or any other
/// [`PebbleGraph`], e.g. a [`crate::ViewGraph`] materialized from a
/// closed-form view.
pub struct AutoScheduler<'g, G: PebbleGraph = Cdag> {
    g: &'g G,
    m: usize,
}

impl<'g, G: PebbleGraph> AutoScheduler<'g, G> {
    /// Creates a scheduler with cache size `m`, or reports why it cannot
    /// schedule anything (`m < max_indegree + 1`).
    pub fn try_new(g: &'g G, m: usize) -> Result<AutoScheduler<'g, G>, CacheTooSmall> {
        let need = g.max_indegree() + 1;
        if m < need {
            return Err(CacheTooSmall { m, need });
        }
        Ok(AutoScheduler { g, m })
    }

    /// Creates a scheduler with cache size `m`.
    ///
    /// # Panics
    /// Panics if `m` is too small to compute some vertex at all
    /// (`m < max_indegree + 1`).
    pub fn new(g: &'g G, m: usize) -> AutoScheduler<'g, G> {
        match AutoScheduler::try_new(g, m) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `order` (all non-input vertices, topologically sorted) under
    /// `policy` and returns the I/O statistics.
    pub fn run(&self, order: &[VertexId], policy: &mut dyn ReplacementPolicy) -> IoStats {
        let mut scratch = SchedScratch::new();
        scratch.prepare(self.g, order);
        self.run_prepared(order, &mut scratch, policy, RunOptions::default())
            .stats
    }

    /// Like [`AutoScheduler::run`], additionally returning the explicit
    /// schedule (for validation against [`crate::sim::simulate`]).
    pub fn run_recorded(
        &self,
        order: &[VertexId],
        policy: &mut dyn ReplacementPolicy,
    ) -> (IoStats, Schedule) {
        let mut scratch = SchedScratch::new();
        scratch.prepare(self.g, order);
        let out = self.run_prepared(
            order,
            &mut scratch,
            policy,
            RunOptions {
                record_schedule: true,
                record_victims: false,
            },
        );
        (out.stats, out.schedule.expect("recording was requested"))
    }

    /// The full-detail entry point: runs `order` under `policy` using
    /// `scratch`, which must have been [`SchedScratch::prepare`]d for this
    /// scheduler's graph and the same `order`.
    pub fn run_prepared(
        &self,
        order: &[VertexId],
        scratch: &mut SchedScratch,
        policy: &mut dyn ReplacementPolicy,
        opts: RunOptions,
    ) -> RunOutput {
        let g = self.g;
        let m = self.m;
        let n = g.n_vertices();
        debug_assert_eq!(
            order.len(),
            (0..n as u32).filter(|&i| !g.is_input(VertexId(i))).count(),
            "order must cover every non-input vertex exactly once"
        );
        debug_assert_eq!(
            scratch.uses.n_keys(),
            n,
            "scratch must be prepared for this graph and order"
        );

        let SchedScratch {
            uses,
            slots,
            stored,
            last_touch,
            cache_list,
            belady_heap,
            lru_heap,
            dead_heap,
            stash,
            candidates,
            next_use_buf,
        } = scratch;

        let pk = policy.kind();
        slots.clear();
        slots.resize(
            n,
            Slot {
                cache_pos: NOT_CACHED,
                use_ptr: 0,
            },
        );
        stored.clear();
        stored.resize(n, false);
        last_touch.clear();
        if pk == PolicyKind::Lru {
            last_touch.resize(n, 0);
        }
        cache_list.clear();
        cache_list.reserve(m);
        belady_heap.clear();
        lru_heap.clear();
        dead_heap.clear();
        stash.clear();

        let record = opts.record_schedule;
        let mut stats = IoStats::default();
        let mut counters = EngineCounters::default();
        let mut actions: Vec<Action> = Vec::new();
        let mut victims: Vec<VertexId> = Vec::new();
        let mut time: u64 = 0;

        macro_rules! in_cache {
            ($w:expr) => {
                slots[$w.idx()].cache_pos != NOT_CACHED
            };
        }
        // Compute-order position of the vertex's next use, `NO_USE` if
        // none: the Belady key, derived from the use cursor. A cached
        // vertex's heap entry is valid iff its key equals this.
        macro_rules! next_use {
            ($w:expr) => {{
                let w: VertexId = $w;
                uses.row(w.idx())
                    .get(slots[w.idx()].use_ptr as usize)
                    .copied()
                    .unwrap_or(NO_USE)
            }};
        }
        macro_rules! uses_left {
            ($w:expr) => {{
                let w: VertexId = $w;
                uses.row(w.idx()).len() - slots[w.idx()].use_ptr as usize
            }};
        }
        macro_rules! cache_insert {
            ($v:expr) => {{
                let v: VertexId = $v;
                slots[v.idx()].cache_pos = cache_list.len() as u32;
                cache_list.push(v);
            }};
        }
        macro_rules! cache_remove {
            ($v:expr) => {{
                let v: VertexId = $v;
                let pos = slots[v.idx()].cache_pos as usize;
                let last = *cache_list.last().unwrap();
                cache_list.swap_remove(pos);
                if last != v {
                    slots[last.idx()].cache_pos = pos as u32;
                }
                slots[v.idx()].cache_pos = NOT_CACHED;
            }};
        }
        macro_rules! count_push {
            ($len:expr) => {{
                counters.heap_pushes += 1;
                counters.peak_heap_len = counters.peak_heap_len.max($len as u64);
            }};
        }
        // Mirrors the reference's `policy.on_touch` call sites; for LRU the
        // engine also maintains its own stamp + heap entry.
        macro_rules! touch {
            ($w:expr) => {{
                let w: VertexId = $w;
                policy.on_touch(w, time);
                if pk == PolicyKind::Lru {
                    last_touch[w.idx()] = time;
                    lru_heap.push(Reverse((time, w)));
                    count_push!(lru_heap.len());
                }
                time += 1;
            }};
        }
        // Publishes a vertex's current next-use key to the Belady heap; the
        // previous entry (if any) becomes stale and is discarded at pop.
        macro_rules! refresh_next_use {
            ($w:expr) => {{
                if pk == PolicyKind::Belady {
                    let w: VertexId = $w;
                    belady_heap.push((next_use!(w), Reverse(w)));
                    count_push!(belady_heap.len());
                }
            }};
        }

        for &v in order {
            // Compaction, at a step boundary (nothing stashed): every cached
            // vertex has a valid entry (duplicates are possible), so a heap
            // rebuilt with one entry per cached vertex pops the same valid
            // keys in the same order, and every later victim is unchanged.
            let live_cap = 2 * cache_list.len() + HEAP_SLACK;
            match pk {
                PolicyKind::Belady if belady_heap.len() > live_cap => {
                    let live = cache_list.iter().map(|&w| (next_use!(w), Reverse(w)));
                    rebuild_heap(belady_heap, live);
                    counters.heap_compactions += 1;
                }
                PolicyKind::Lru if lru_heap.len() > live_cap => {
                    let live = cache_list
                        .iter()
                        .map(|&w| Reverse((last_touch[w.idx()], w)));
                    rebuild_heap(lru_heap, live);
                    counters.heap_compactions += 1;
                }
                _ => {}
            }

            // The operands are pinned for the whole step (`v` itself enters
            // the cache only after its last eviction of the step).
            let operands = g.preds(v);

            macro_rules! ensure_slot {
                () => {{
                    if cache_list.len() >= m {
                        if let Some(Reverse(w)) = dead_heap.pop() {
                            // 1) O(1) free eviction off the dead free-list.
                            //    Dead values are never pinned: a dead-at-birth
                            //    vertex has no successors to be an operand of.
                            debug_assert!(in_cache!(w));
                            debug_assert!(!operands.contains(&w));
                            cache_remove!(w);
                            counters.dead_drops += 1;
                            if opts.record_victims {
                                victims.push(w);
                            }
                            if record {
                                actions.push(Action::Drop(w));
                            }
                        } else {
                            // 2) Live eviction chosen by the policy.
                            let victim: VertexId = match pk {
                                PolicyKind::Belady => {
                                    let victim;
                                    loop {
                                        let (key, Reverse(c)) = belady_heap
                                            .pop()
                                            .expect("a live unpinned candidate must exist");
                                        if !in_cache!(c) || key != next_use!(c) {
                                            counters.stale_pops += 1;
                                            continue;
                                        }
                                        if operands.contains(&c) {
                                            stash.push(c);
                                            counters.pinned_stashes += 1;
                                            continue;
                                        }
                                        victim = c;
                                        break;
                                    }
                                    for &c in stash.iter() {
                                        belady_heap.push((next_use!(c), Reverse(c)));
                                    }
                                    stash.clear();
                                    victim
                                }
                                PolicyKind::Lru => {
                                    let victim;
                                    loop {
                                        let Reverse((stamp, c)) = lru_heap
                                            .pop()
                                            .expect("a live unpinned candidate must exist");
                                        if !in_cache!(c) || stamp != last_touch[c.idx()] {
                                            counters.stale_pops += 1;
                                            continue;
                                        }
                                        if operands.contains(&c) {
                                            stash.push(c);
                                            counters.pinned_stashes += 1;
                                            continue;
                                        }
                                        victim = c;
                                        break;
                                    }
                                    for &c in stash.iter() {
                                        lru_heap.push(Reverse((last_touch[c.idx()], c)));
                                    }
                                    stash.clear();
                                    victim
                                }
                                PolicyKind::Other => {
                                    // Candidates in cache-insertion order, as
                                    // the reference engine presents them.
                                    candidates.clear();
                                    next_use_buf.clear();
                                    for &w in cache_list.iter() {
                                        if !operands.contains(&w) {
                                            candidates.push(w);
                                            next_use_buf.push(match next_use!(w) {
                                                NO_USE => u64::MAX,
                                                pos => pos as u64,
                                            });
                                        }
                                    }
                                    let i = policy.choose_victim(candidates, next_use_buf);
                                    candidates[i]
                                }
                            };
                            counters.policy_evictions += 1;
                            // Dirty = computed and never stored: a non-input
                            // re-enters the cache only by a load after its
                            // store.
                            if !stored[victim.idx()] && !g.is_input(victim) {
                                stats.stores += 1;
                                stored[victim.idx()] = true;
                                if record {
                                    actions.push(Action::Store(victim));
                                }
                            }
                            cache_remove!(victim);
                            if opts.record_victims {
                                victims.push(victim);
                            }
                            if record {
                                actions.push(Action::Drop(victim));
                            }
                        }
                    }
                }};
            }

            // Load missing operands.
            for &p in operands {
                if in_cache!(p) {
                    touch!(p);
                    continue;
                }
                debug_assert!(
                    g.is_input(p) || stored[p.idx()],
                    "invariant violated: evicted live value {p:?} was not stored"
                );
                ensure_slot!();
                cache_insert!(p);
                stats.loads += 1;
                if record {
                    actions.push(Action::Load(p));
                }
                refresh_next_use!(p);
                touch!(p);
            }

            // Compute v.
            ensure_slot!();
            cache_insert!(v);
            stats.computes += 1;
            if record {
                actions.push(Action::Compute(v));
            }
            refresh_next_use!(v);
            touch!(v);
            if !g.is_output(v) && uses_left!(v) == 0 {
                // Dead at birth: the only way a dead value stays in cache.
                dead_heap.push(Reverse(v));
            }

            // Consume one use of each operand; drop operands that died.
            // (`v` is never its own operand, and every operand is cached:
            // it was loaded or touched above and pinned since.)
            for &p in operands {
                debug_assert!(in_cache!(p));
                slots[p.idx()].use_ptr += 1;
                if uses_left!(p) == 0 && (!g.is_output(p) || stored[p.idx()]) {
                    cache_remove!(p);
                    if record {
                        actions.push(Action::Drop(p));
                    }
                } else {
                    refresh_next_use!(p);
                }
            }

            // Outputs are stored (and dropped) immediately.
            if g.is_output(v) {
                stats.stores += 1;
                stored[v.idx()] = true;
                if record {
                    actions.push(Action::Store(v));
                }
                if uses_left!(v) == 0 {
                    cache_remove!(v);
                    if record {
                        actions.push(Action::Drop(v));
                    }
                }
            }
        }

        RunOutput {
            stats,
            schedule: record.then_some(Schedule { actions }),
            victims: opts.record_victims.then_some(victims),
            counters,
        }
    }
}

/// Replaces `heap`'s entries with `live` in one `O(len)` heapify, reusing
/// its allocation.
fn rebuild_heap<T: Ord>(heap: &mut BinaryHeap<T>, live: impl Iterator<Item = T>) {
    let mut entries = std::mem::take(heap).into_vec();
    entries.clear();
    entries.extend(live);
    *heap = BinaryHeap::from(entries);
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceScheduler;
    use super::*;
    use crate::orders;
    use crate::policy::{Belady, Lru, RandomEvict, ReplacementPolicy};
    use crate::sim::simulate;
    use mmio_cdag::build::build_cdag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::testutil::classical2_base;

    #[test]
    fn recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        for m in [8usize, 16, 64] {
            let sched = AutoScheduler::new(&g, m);
            let (stats, schedule) = sched.run_recorded(&order, &mut Lru::new(g.n_vertices()));
            let replayed = simulate(&g, &schedule, m).expect("schedule must be valid");
            assert_eq!(replayed, stats, "m={m}");
        }
    }

    #[test]
    fn recursive_order_recorded_schedule_is_valid() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let sched = AutoScheduler::new(&g, 10);
        let (stats, schedule) = sched.run_recorded(&order, &mut Belady);
        let replayed = simulate(&g, &schedule, 10).expect("schedule must be valid");
        assert_eq!(replayed, stats);
    }

    #[test]
    fn huge_cache_needs_only_compulsory_io() {
        // With cache larger than the whole graph: loads = touched inputs,
        // stores = outputs.
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::rank_order(&g);
        let sched = AutoScheduler::new(&g, g.n_vertices() + 1);
        let stats = sched.run(&order, &mut Lru::new(g.n_vertices()));
        assert_eq!(stats.loads, 2 * 16); // every input touched once
        assert_eq!(stats.stores, 16); // every output stored once
    }

    #[test]
    fn smaller_cache_never_reduces_io() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut last = None;
        for m in [64usize, 32, 16, 8] {
            let stats = AutoScheduler::new(&g, m).run(&order, &mut Belady);
            if let Some(prev) = last {
                assert!(stats.io() >= prev, "m={m}: {} < {prev}", stats.io());
            }
            last = Some(stats.io());
        }
    }

    #[test]
    fn belady_never_worse_than_lru() {
        let g = build_cdag(&classical2_base(), 2);
        for order in [orders::rank_order(&g), orders::recursive_order(&g)] {
            for m in [8usize, 12, 24, 48] {
                let b = AutoScheduler::new(&g, m).run(&order, &mut Belady);
                let l = AutoScheduler::new(&g, m).run(&order, &mut Lru::new(g.n_vertices()));
                assert!(
                    b.io() <= l.io(),
                    "belady {} > lru {} at m={m}",
                    b.io(),
                    l.io()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold an operand set")]
    fn cache_too_small_panics() {
        let g = build_cdag(&classical2_base(), 1);
        let _ = AutoScheduler::new(&g, 2);
    }

    #[test]
    fn try_new_reports_need() {
        let g = build_cdag(&classical2_base(), 1);
        let err = AutoScheduler::try_new(&g, 2).err().unwrap();
        assert_eq!(err.m, 2);
        assert!(err.need > 2);
        assert_eq!(
            err.to_string(),
            format!(
                "cache size 2 cannot hold an operand set ({} needed)",
                err.need
            )
        );
        assert!(AutoScheduler::try_new(&g, err.need).is_ok());
    }

    /// The equivalence contract: identical stats, schedule, and eviction
    /// sequence vs the reference scan engine, for every policy kind.
    #[test]
    fn fast_engine_matches_reference_exactly() {
        let g = build_cdag(&classical2_base(), 2);
        let opts = RunOptions {
            record_schedule: true,
            record_victims: true,
        };
        for order in [orders::rank_order(&g), orders::recursive_order(&g)] {
            for m in [8usize, 10, 16, 32, 64] {
                for which in ["lru", "belady", "random"] {
                    let mut fast_policy: Box<dyn crate::policy::ReplacementPolicy> = match which {
                        "lru" => Box::new(Lru::new(g.n_vertices())),
                        "belady" => Box::new(Belady),
                        _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(42))),
                    };
                    let mut ref_policy: Box<dyn crate::policy::ReplacementPolicy> = match which {
                        "lru" => Box::new(Lru::new(g.n_vertices())),
                        "belady" => Box::new(Belady),
                        _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(42))),
                    };
                    let mut scratch = SchedScratch::new();
                    scratch.prepare(&g, &order);
                    let fast = AutoScheduler::new(&g, m).run_prepared(
                        &order,
                        &mut scratch,
                        fast_policy.as_mut(),
                        opts,
                    );
                    let (rs, rsched, rvictims) =
                        ReferenceScheduler::new(&g, m).run_traced(&order, ref_policy.as_mut());
                    assert_eq!(fast.stats, rs, "{which} m={m}: stats diverge");
                    assert_eq!(
                        fast.schedule.as_ref().unwrap(),
                        &rsched,
                        "{which} m={m}: schedules diverge"
                    );
                    assert_eq!(
                        fast.victims.as_ref().unwrap(),
                        &rvictims,
                        "{which} m={m}: victim sequences diverge"
                    );
                }
            }
        }
    }

    /// The equivalence contract on instances large enough that the policy
    /// heaps are compacted many times per run, with one scratch reused
    /// across every run of a graph (so runs start on heaps whose allocation
    /// a compaction replaced), and the compaction bound on heap length.
    #[test]
    fn compacting_engine_matches_reference_exactly() {
        use mmio_algos::classical::classical;
        use mmio_algos::strassen::strassen;
        let opts = RunOptions {
            record_schedule: true,
            record_victims: true,
        };
        for base in [strassen(), classical(2)] {
            let g = build_cdag(&base, 3);
            let need = g.max_indegree() + 1;
            for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
                let mut scratch = SchedScratch::new();
                scratch.prepare(&g, &order);
                // Twice over the grid: the second pass must repeat the first
                // bit for bit on the reused scratch.
                let mut first_pass = Vec::new();
                for pass in 0..2 {
                    for m in [need, need + 4, 32] {
                        for which in ["lru", "belady", "random"] {
                            let policy = || -> Box<dyn ReplacementPolicy> {
                                match which {
                                    "lru" => Box::new(Lru::new(g.n_vertices())),
                                    "belady" => Box::new(Belady),
                                    _ => Box::new(RandomEvict::new(StdRng::seed_from_u64(7))),
                                }
                            };
                            let ctx = format!("{} {which} m={m} pass={pass}", base.name());
                            let fast = AutoScheduler::new(&g, m).run_prepared(
                                &order,
                                &mut scratch,
                                policy().as_mut(),
                                opts,
                            );
                            let (rs, rsched, rvictims) = ReferenceScheduler::new(&g, m)
                                .run_traced(&order, policy().as_mut());
                            assert_eq!(fast.stats, rs, "{ctx}: stats diverge");
                            assert_eq!(fast.schedule.as_ref(), Some(&rsched), "{ctx}: schedule");
                            assert_eq!(fast.victims.as_ref(), Some(&rvictims), "{ctx}: victims");
                            let c = fast.counters;
                            if which == "random" {
                                assert_eq!((c.heap_pushes, c.heap_compactions), (0, 0), "{ctx}");
                            } else {
                                assert!(c.heap_compactions > 0, "{ctx}: no compaction");
                                // One step pushes at most 2·indegree + 1 entries.
                                let bound = 2 * m + HEAP_SLACK + 2 * need;
                                assert!(
                                    c.peak_heap_len as usize <= bound,
                                    "{ctx}: heap reached {} > {bound}",
                                    c.peak_heap_len
                                );
                            }
                            if pass == 0 {
                                first_pass.push((fast.stats, c));
                            } else {
                                assert_eq!(first_pass.remove(0), (fast.stats, c), "{ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scratch reuse across runs with different policies and cache sizes
    /// must not leak state between runs.
    #[test]
    fn scratch_reuse_is_clean() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut scratch = SchedScratch::new();
        scratch.prepare(&g, &order);
        let opts = RunOptions::default();
        let mut io = Vec::new();
        for _ in 0..2 {
            for m in [8usize, 32] {
                let a = AutoScheduler::new(&g, m)
                    .run_prepared(&order, &mut scratch, &mut Belady, opts)
                    .stats;
                let b = AutoScheduler::new(&g, m)
                    .run_prepared(&order, &mut scratch, &mut Lru::new(g.n_vertices()), opts)
                    .stats;
                io.push((a, b));
            }
        }
        assert_eq!(io[0], io[2]);
        assert_eq!(io[1], io[3]);
    }

    #[test]
    fn counters_report_engine_activity() {
        let g = build_cdag(&classical2_base(), 2);
        let order = orders::recursive_order(&g);
        let mut scratch = SchedScratch::new();
        scratch.prepare(&g, &order);
        let out = AutoScheduler::new(&g, 8).run_prepared(
            &order,
            &mut scratch,
            &mut Belady,
            RunOptions::default(),
        );
        assert!(out.counters.policy_evictions > 0);
        assert!(out.counters.heap_pushes > 0);
    }
}
