//! The flat structure-of-arrays distributed simulator.
//!
//! Why it is exactly equivalent to [`super::reference`]:
//!
//! - **Per-rank decomposability.** A rank's cache is touched only by the
//!   steps it owns (every `touch` in the reference targets the step's
//!   owner), and its counters are only incremented by its own touches
//!   plus the (additive) `sent` counter charged by other ranks' misses.
//!   So stepping each rank through its own sub-sequence of the global
//!   order — in any rank order, on any thread — reproduces the exact
//!   per-rank state trajectory of the interleaved reference run.
//! - **LRU without stamps.** The reference evicts the minimum-stamp
//!   cache member, and stamps come from a strictly increasing global
//!   clock, so within one rank's cache stamps are unique and their
//!   order is exactly recency order. An intrusive doubly-linked LRU
//!   list (move-to-front on hit, evict tail) therefore selects the
//!   identical victim every time — no stamps, no O(M) scan.
//! - **Event stream reconstruction.** Every event of a step (operand
//!   evicts/sends/recvs/inserts, the exec, the result insert) is
//!   emitted by the step's owner, contiguously. Each shard records its
//!   ranks' events plus a per-step event count; a serial merge walks
//!   the global order with one cursor per rank and splices each step's
//!   events back — byte-identical to the reference's interleaved
//!   stream, independent of sharding and thread count.
//!
//! State is O(threads·min(M, work) + V): shards process their ranks
//! sequentially, reusing one slot arena (one [`Slot`] record per slot,
//! sized by the shard's largest per-rank touch bound, never more than
//! M) and one chained-hash residency table (cleared per rank).

use super::topo::{ContAcc, ContentionReport, MachineModel};
use super::{DistEvent, DistOutcome, DistRun, DistTrace};
use crate::assign::Assignment;
use crate::pool::Pool;
use mmio_cdag::{CdagView, VertexId};

const NONE: u32 = u32::MAX;

/// One cache slot: the vertex it holds, its LRU links and its hash chain
/// link, side by side so a touch reads one record.
#[derive(Clone, Copy)]
struct Slot {
    vertex: u32,
    /// LRU list: towards most-recent.
    prev: u32,
    /// LRU list: towards least-recent.
    next: u32,
    /// Hash chain successor.
    chain: u32,
}

/// One rank's cache: a fixed slot arena threaded by an intrusive LRU
/// list, with a chained hash table for O(1) residency lookup. Reused
/// across ranks within a shard via [`RankCache::reset`].
struct RankCache {
    /// Semantic capacity (the model's M): evict when `len` reaches it.
    limit: usize,
    slots: Vec<Slot>,
    /// Hash bucket heads (power-of-two length).
    buckets: Vec<u32>,
    /// `32 - log2(buckets.len())`, for Fibonacci bucket hashing.
    shift: u32,
    head: u32,
    tail: u32,
    len: u32,
}

impl RankCache {
    /// `limit` is the model's M; `slots` bounds how many can ever be
    /// resident at once (≤ limit, and ≤ the rank's distinct touches).
    fn new(limit: usize, slots: usize) -> RankCache {
        let slots = slots.max(1);
        let nbuckets = (2 * slots).next_power_of_two();
        RankCache {
            limit,
            slots: vec![
                Slot {
                    vertex: 0,
                    prev: NONE,
                    next: NONE,
                    chain: NONE,
                };
                slots
            ],
            buckets: vec![NONE; nbuckets],
            shift: 32 - nbuckets.trailing_zeros(),
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    fn reset(&mut self) {
        self.buckets.fill(NONE);
        self.head = NONE;
        self.tail = NONE;
        self.len = 0;
    }

    #[inline]
    fn bucket(&self, v: u32) -> usize {
        (v.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    #[inline]
    fn lookup(&self, v: u32) -> Option<u32> {
        let mut s = self.buckets[self.bucket(v)];
        while s != NONE {
            if self.slots[s as usize].vertex == v {
                return Some(s);
            }
            s = self.slots[s as usize].chain;
        }
        None
    }

    /// Unlinks `slot` from the LRU list (it must be linked).
    fn detach(&mut self, slot: u32) {
        let (p, n) = (
            self.slots[slot as usize].prev,
            self.slots[slot as usize].next,
        );
        if p == NONE {
            self.head = n;
        } else {
            self.slots[p as usize].next = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.slots[n as usize].prev = p;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NONE;
        self.slots[slot as usize].next = self.head;
        if self.head != NONE {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    fn touch_hit(&mut self, slot: u32) {
        if self.head != slot {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Frees the LRU tail slot and returns its (slot, vertex).
    fn evict_tail(&mut self) -> (u32, u32) {
        let slot = self.tail;
        debug_assert!(slot != NONE);
        self.detach(slot);
        let v = self.slots[slot as usize].vertex;
        // Unlink from its hash chain.
        let b = self.bucket(v);
        let mut s = self.buckets[b];
        if s == slot {
            self.buckets[b] = self.slots[slot as usize].chain;
        } else {
            while self.slots[s as usize].chain != slot {
                s = self.slots[s as usize].chain;
            }
            self.slots[s as usize].chain = self.slots[slot as usize].chain;
        }
        self.len -= 1;
        (slot, v)
    }

    /// Inserts `v` into `slot` (slot is free) as most-recent.
    fn insert(&mut self, slot: u32, v: u32) {
        self.slots[slot as usize].vertex = v;
        let b = self.bucket(v);
        self.slots[slot as usize].chain = self.buckets[b];
        self.buckets[b] = slot;
        self.push_front(slot);
        self.len += 1;
    }
}

/// What one shard (a contiguous rank range) reports back.
struct ShardOut {
    /// Words sent, full width `p` — a rank's sends are charged by the
    /// *receiving* rank's shard, so the owner may be outside the shard.
    sent: Vec<u64>,
    /// Words received, per shard-local rank.
    received: Vec<u64>,
    /// Local I/O, per shard-local rank.
    local_io: Vec<u64>,
    total_words: u64,
    /// Contended load accumulators, when a machine model is attached.
    cont: Option<ContAcc>,
    /// Traced mode: the shard's events (ranks ascending, steps in
    /// order) plus one event count per owned step, same layout.
    events: Option<(Vec<DistEvent>, Vec<u32>)>,
}

/// Steps grouped by rank: `steps[start[r]..start[r] + count[r]]` are the
/// vertices rank `r` owns, preserving global order.
struct RankSteps {
    start: Vec<usize>,
    count: Vec<u32>,
    steps: Vec<u32>,
}

fn bucket_by_rank(a: &Assignment, order: &[VertexId]) -> RankSteps {
    let p = a.p as usize;
    let mut count = vec![0u32; p];
    for &v in order {
        count[a.of(v) as usize] += 1;
    }
    let mut start = Vec::with_capacity(p + 1);
    let mut acc = 0usize;
    for &c in &count {
        start.push(acc);
        acc += c as usize;
    }
    start.push(acc);
    let mut cursor: Vec<usize> = start[..p].to_vec();
    let mut steps = vec![0u32; order.len()];
    for &v in order {
        let r = a.of(v) as usize;
        steps[cursor[r]] = v.0;
        cursor[r] += 1;
    }
    RankSteps {
        start,
        count,
        steps,
    }
}

/// Number of shards: a fixed function of `p` only, so the work split —
/// and hence every merged artifact — is independent of thread count.
fn shard_count(p: usize) -> usize {
    p.clamp(1, 64)
}

#[allow(clippy::too_many_arguments)]
fn run_shard<V: CdagView>(
    g: &V,
    a: &Assignment,
    rs: &RankSteps,
    lo: usize,
    hi: usize,
    m: usize,
    maxdeg: usize,
    machine: Option<&MachineModel>,
    rounds: usize,
    traced: bool,
) -> ShardOut {
    let p = a.p as usize;
    let mut out = ShardOut {
        sent: vec![0; p],
        received: vec![0; hi - lo],
        local_io: vec![0; hi - lo],
        total_words: 0,
        cont: machine.map(|mm| ContAcc::new(mm, p, rounds)),
        events: traced.then(|| (Vec::new(), Vec::new())),
    };
    // Residency can never exceed the rank's distinct touches, bounded by
    // steps·(maxdeg+1); sizing the arena by the shard's largest rank
    // keeps scratch proportional to actual work even when M is huge.
    let max_steps = (lo..hi).map(|r| rs.count[r] as usize).max().unwrap_or(0);
    let slots = m.min(max_steps.saturating_mul(maxdeg + 1));
    let mut cache = RankCache::new(m, slots);
    let mut preds: Vec<VertexId> = Vec::with_capacity(maxdeg);

    for r in lo..hi {
        let steps = &rs.steps[rs.start[r]..rs.start[r] + rs.count[r] as usize];
        if steps.is_empty() {
            continue;
        }
        cache.reset();
        let me = r as u32;
        for &vu in steps {
            let v = VertexId(vu);
            let events_before = out.events.as_ref().map_or(0, |(ev, _)| ev.len());
            preds.clear();
            g.preds_into(v, &mut preds);
            for &op in &preds {
                touch(
                    g,
                    &mut cache,
                    &mut out,
                    machine,
                    lo,
                    me,
                    op.0,
                    true,
                    Some(a),
                );
            }
            if !preds.is_empty() {
                if let Some((ev, _)) = &mut out.events {
                    ev.push(DistEvent::Exec { proc: me, v: vu });
                }
                if let Some(c) = &mut out.cont {
                    c.record_exec(round_of(g, vu), me);
                }
            }
            // The result occupies a slot; computing into cache is free.
            touch(g, &mut cache, &mut out, machine, lo, me, vu, false, None);
            if let Some((ev, counts)) = &mut out.events {
                counts.push((ev.len() - events_before) as u32);
            }
        }
    }
    out
}

#[inline]
fn round_of<V: CdagView>(g: &V, v: u32) -> usize {
    g.rank_of(VertexId(v)).expect("vertex has a rank") as usize
}

/// The SoA counterpart of the reference engine's `touch`, operating on
/// rank `me`'s (shard-local) cache. Same event order on a miss:
/// `Evict?`, `Send`+`Recv` (remote only), `Insert`. `from` is set for an
/// operand touch; its owner is looked up only on a miss.
#[allow(clippy::too_many_arguments)]
#[inline]
fn touch<V: CdagView>(
    g: &V,
    cache: &mut RankCache,
    out: &mut ShardOut,
    machine: Option<&MachineModel>,
    lo: usize,
    me: u32,
    v: u32,
    charge: bool,
    from: Option<&Assignment>,
) {
    if let Some(slot) = cache.lookup(v) {
        cache.touch_hit(slot);
        return; // hit
    }
    // Miss: evict LRU if full.
    let slot = if cache.len as usize >= cache.limit {
        let (slot, victim) = cache.evict_tail();
        if let Some((ev, _)) = &mut out.events {
            ev.push(DistEvent::Evict {
                proc: me,
                v: victim,
            });
        }
        slot
    } else {
        cache.len // bump allocation: slots 0..len are live
    };
    if let Some(a) = from {
        let owner = a.of(VertexId(v));
        if owner != me {
            // The word came over the network.
            out.sent[owner as usize] += 1;
            out.received[me as usize - lo] += 1;
            out.total_words += 1;
            if let Some((ev, _)) = &mut out.events {
                ev.push(DistEvent::Send {
                    from: owner,
                    to: me,
                    v,
                });
                ev.push(DistEvent::Recv {
                    to: me,
                    from: owner,
                    v,
                });
            }
            if let (Some(c), Some(mm)) = (&mut out.cont, machine) {
                c.record_send(mm, round_of(g, v), owner, me);
            }
        }
    }
    cache.insert(slot, v);
    if charge {
        out.local_io[me as usize - lo] += 1;
    }
    if let Some((ev, _)) = &mut out.events {
        ev.push(DistEvent::Insert {
            proc: me,
            v,
            charged: charge,
        });
    }
}

/// Runs the SoA engine and merges the shards. The single entry point
/// behind every public `simulate*` wrapper in [`super`].
pub(super) fn run_soa<V: CdagView + Sync>(
    g: &V,
    a: &Assignment,
    order: &[VertexId],
    m: usize,
    machine: Option<MachineModel>,
    traced: bool,
    pool: &Pool,
) -> (DistOutcome, Option<DistTrace>) {
    // `max_indegree` is an O(V) scan on a materialized `Cdag`: take it
    // once here, not once per shard.
    let maxdeg = g.max_indegree();
    let need = maxdeg + 1;
    assert!(m >= need, "local cache {m} cannot hold operands ({need})");
    if let Some(mm) = &machine {
        mm.topo.validate(a.p).expect("topology fits rank count");
    }
    let p = a.p as usize;
    let rounds = 2 * g.r() as usize + 2;
    let rs = bucket_by_rank(a, order);
    let shards = shard_count(p);
    let bounds: Vec<(usize, usize)> = (0..shards)
        .map(|s| (p * s / shards, p * (s + 1) / shards))
        .collect();

    let outs: Vec<ShardOut> = pool.map(shards, |s| {
        let (lo, hi) = bounds[s];
        run_shard(
            g,
            a,
            &rs,
            lo,
            hi,
            m,
            maxdeg,
            machine.as_ref(),
            rounds,
            traced,
        )
    });

    // Merge counters (index-ordered, shard-count-independent: sums and
    // maxima over disjoint or additive contributions).
    let mut sent = vec![0u64; p];
    let mut received = vec![0u64; p];
    let mut local_io = vec![0u64; p];
    let mut total_words = 0u64;
    let mut cont = machine.as_ref().map(|mm| ContAcc::new(mm, p, rounds));
    for (s, o) in outs.iter().enumerate() {
        let (lo, hi) = bounds[s];
        for (dst, &src) in sent.iter_mut().zip(&o.sent) {
            *dst += src;
        }
        received[lo..hi].copy_from_slice(&o.received);
        local_io[lo..hi].copy_from_slice(&o.local_io);
        total_words += o.total_words;
        if let (Some(acc), Some(oc)) = (&mut cont, &o.cont) {
            acc.merge(oc);
        }
    }
    let run = DistRun {
        total_words,
        critical_path_words: sent
            .iter()
            .zip(&received)
            .map(|(&s, &r)| s + r)
            .max()
            .unwrap_or(0),
        max_local_io: local_io.iter().copied().max().unwrap_or(0),
        total_local_io: local_io.iter().sum(),
    };
    let contention: Option<ContentionReport> = cont.zip(machine).map(|(acc, mm)| acc.report(mm));
    let outcome = DistOutcome {
        run: run.clone(),
        contention: contention.clone(),
    };

    if !traced {
        return (outcome, None);
    }

    // Splice the global event stream back together: one cursor per rank
    // into its shard's (events, per-step counts).
    struct Cursor {
        shard: usize,
        cnt: usize,
        ev: usize,
    }
    let mut cursors: Vec<Cursor> = (0..p)
        .map(|_| Cursor {
            shard: 0,
            cnt: 0,
            ev: 0,
        })
        .collect();
    let mut total_events = 0usize;
    for (s, o) in outs.iter().enumerate() {
        let (lo, hi) = bounds[s];
        let (ev, counts) = o.events.as_ref().expect("traced shard");
        total_events += ev.len();
        let mut cnt_off = 0usize;
        let mut ev_off = 0usize;
        for (r, cursor) in cursors.iter_mut().enumerate().take(hi).skip(lo) {
            *cursor = Cursor {
                shard: s,
                cnt: cnt_off,
                ev: ev_off,
            };
            let c = rs.count[r] as usize;
            ev_off += counts[cnt_off..cnt_off + c]
                .iter()
                .map(|&k| k as usize)
                .sum::<usize>();
            cnt_off += c;
        }
    }
    let mut events = Vec::with_capacity(total_events);
    for &v in order {
        let cur = &mut cursors[a.of(v) as usize];
        let (ev, counts) = outs[cur.shard].events.as_ref().expect("traced shard");
        let k = counts[cur.cnt] as usize;
        events.extend_from_slice(&ev[cur.ev..cur.ev + k]);
        cur.cnt += 1;
        cur.ev += k;
    }
    let trace = DistTrace {
        p: a.p,
        m,
        claimed: run,
        sent,
        received,
        events,
        contention,
    };
    (outcome, Some(trace))
}
