//! Certificate emission for the pebble layer: schedule-legality witnesses
//! and sweep I/O witnesses in the `mmio-cert` format.
//!
//! The emitter derives every claim (counters, peak occupancy, residency
//! intervals) by a mechanical replay of the action trace it is about to
//! serialize — never from the scheduler's internal accounting — so the
//! certificate is self-consistent by construction and the standalone
//! verifier's own replay is an independent re-derivation, not a comparison
//! of two copies of the same variable.

use crate::schedule::{Action, Schedule};
use crate::sweep::{PolicySpec, SweepPoint};
use mmio_cdag::Cdag;
use mmio_cert::format::{BaseSpec, Payload, SchedulePayload, SweepPayload};
use mmio_cert::Certificate;

/// Emits a schedule-legality certificate for `schedule` run on `g` under
/// cache size `m`. The schedule is assumed legal (engine-produced); claims
/// are derived by replaying the emitted action list.
pub fn emit_schedule_certificate(g: &Cdag, m: usize, schedule: &Schedule) -> Certificate {
    #[allow(unused_mut)]
    let mut actions: Vec<Action> = schedule.actions.clone();
    #[cfg(feature = "mutate")]
    {
        use std::sync::atomic::Ordering::SeqCst;
        if crate::mutate::ELIDE_FIRST_STORE.load(SeqCst) {
            if let Some(i) = actions.iter().position(|a| matches!(a, Action::Store(_))) {
                actions.remove(i);
            }
        }
    }

    let n = g.n_vertices();
    let mut ops = String::with_capacity(actions.len());
    let mut vertices = Vec::with_capacity(actions.len());
    let mut in_cache = vec![false; n];
    let mut open = vec![0u64; n];
    let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
    let (mut loads, mut stores, mut computes) = (0u64, 0u64, 0u64);
    let mut occupancy: u64 = 0;
    let mut peak: u64 = 0;
    for (i, &action) in actions.iter().enumerate() {
        match action {
            Action::Load(v) => {
                ops.push('L');
                vertices.push(v.0);
                in_cache[v.idx()] = true;
                open[v.idx()] = i as u64;
                occupancy += 1;
                loads += 1;
            }
            Action::Store(v) => {
                ops.push('S');
                vertices.push(v.0);
                stores += 1;
            }
            Action::Compute(v) => {
                ops.push('C');
                vertices.push(v.0);
                in_cache[v.idx()] = true;
                open[v.idx()] = i as u64;
                occupancy += 1;
                computes += 1;
            }
            Action::Drop(v) => {
                ops.push('D');
                vertices.push(v.0);
                in_cache[v.idx()] = false;
                intervals.push((v.0, open[v.idx()], i as u64));
                occupancy -= 1;
            }
        }
        peak = peak.max(occupancy);
    }
    let len = actions.len() as u64;
    for v in 0..n {
        if in_cache[v] {
            intervals.push((v as u32, open[v], len));
        }
    }

    #[cfg(feature = "mutate")]
    {
        use std::sync::atomic::Ordering::SeqCst;
        if crate::mutate::UNDERSTATE_PEAK.load(SeqCst) {
            peak = peak.saturating_sub(1);
        }
    }

    // Sorted by (vertex, start): each vertex's intervals were opened in
    // time order, so a stable counting sort on the vertex suffices.
    let mut next = vec![0usize; n + 1];
    for &(v, _, _) in &intervals {
        next[v as usize + 1] += 1;
    }
    for v in 0..n {
        next[v + 1] += next[v];
    }
    let mut res_vertex = vec![0u32; intervals.len()];
    let mut res_start = vec![0u64; intervals.len()];
    let mut res_end = vec![0u64; intervals.len()];
    for &(v, s, e) in &intervals {
        let k = next[v as usize];
        next[v as usize] += 1;
        (res_vertex[k], res_start[k], res_end[k]) = (v, s, e);
    }
    Certificate::new(
        BaseSpec::from_base(g.base()),
        Payload::Schedule(SchedulePayload {
            r: g.r(),
            m: m as u64,
            ops,
            vertices,
            loads,
            stores,
            computes,
            peak_occupancy: peak,
            res_vertex,
            res_start,
            res_end,
        }),
    )
}

/// Emits a sweep I/O certificate from the grid points of one policy over
/// `g`. Infeasible points (cache below `max_indegree + 1`) carry zeroed
/// counters, which the verifier requires.
///
/// # Panics
/// Panics if `points` is empty or mixes policies.
pub fn emit_sweep_certificate(g: &Cdag, policy: &PolicySpec, points: &[SweepPoint]) -> Certificate {
    assert!(
        !points.is_empty(),
        "sweep certificate needs at least one point"
    );
    let mut ms = Vec::with_capacity(points.len());
    let mut feasible = Vec::with_capacity(points.len());
    let mut loads = Vec::with_capacity(points.len());
    let mut stores = Vec::with_capacity(points.len());
    let mut computes = Vec::with_capacity(points.len());
    for p in points {
        assert_eq!(
            p.point.policy.name(),
            policy.name(),
            "sweep certificate mixes policies"
        );
        ms.push(p.point.m as u64);
        match &p.result {
            Ok(run) => {
                feasible.push(true);
                loads.push(run.stats.loads);
                stores.push(run.stats.stores);
                computes.push(run.stats.computes);
            }
            Err(_) => {
                feasible.push(false);
                loads.push(0);
                stores.push(0);
                computes.push(0);
            }
        }
    }
    Certificate::new(
        BaseSpec::from_base(g.base()),
        Payload::Sweep(SweepPayload {
            r: g.r(),
            policy: policy.name().to_string(),
            ms,
            feasible,
            loads,
            stores,
            computes,
        }),
    )
}
