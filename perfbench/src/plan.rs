//! Everything the workload seed decides: the algorithm, the command order
//! of each pass, and the serve request stream.

use mmio_serve::Op;

/// SplitMix64: a small, fixed generator, so a seed means the same inputs on
/// every platform and at every commit.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (independent sub-sequences).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The two algorithms a seed chooses between. Both have a = 4 and b = 7,
/// so every instance has the same vertex count whichever is drawn.
pub const ALGOS: [&str; 2] = ["strassen", "winograd"];

/// The algorithm `A` for `seed`, then the other one. A batch pass runs
/// both, `A`'s commands and the other's interleaved in the seeded order,
/// so every seed measures the same work.
pub fn algos(seed: u64) -> [&'static str; 2] {
    let i = Rng::new(seed, 1).below(ALGOS.len());
    [ALGOS[i], ALGOS[1 - i]]
}

/// The order in which a pass runs its `units` (indices into the workload's
/// unit list), for pass number `pass`.
pub fn pass_order(seed: u64, pass: u64, units: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..units).collect();
    Rng::new(seed, 100 + pass).shuffle(&mut order);
    order
}

/// Share of serve requests that repeat a key from the hot set.
pub const HOT_FRAC: f64 = 0.75;
/// Keys in the hot set (all preloaded into the memo).
pub const HOT_KEYS: usize = 18;
/// Further preloaded keys drawn from the cold space.
pub const EXTRA_PRELOAD: usize = 48;

/// The serve key space, split into the hot set, the rest of the preloaded
/// keys, and the cold keys fresh draws come from.
pub struct KeySpace {
    /// Every key; the hot set and the preloaded keys index into this.
    pub keys: Vec<Op>,
    /// Indices of the hot keys.
    pub hot: Vec<usize>,
    /// Indices of every preloaded key (the hot set included).
    pub preloaded: Vec<usize>,
}

/// Depth ranges of the serve key space.
pub struct Limits {
    /// Certify depths.
    pub certify_r: (u32, u32),
    /// Largest analyze depth.
    pub analyze_r: u32,
    /// Sweep depths.
    pub sweep_r: (u32, u32),
    /// Largest routing_cert transport depth (`k ≤ 2` always).
    pub routing_r: u32,
}

/// The workload's key space: certify (r ≤ 5), analyze (r ≤ 2, b ≤ 30),
/// sweep (r ≤ 4) and routing_cert (k ≤ 2, r ≤ 4).
pub const FULL: Limits = Limits {
    certify_r: (3, 5),
    analyze_r: 2,
    sweep_r: (2, 4),
    routing_r: 4,
};

/// A key space of small instances, for the benchmark's own tests.
pub const TINY: Limits = Limits {
    certify_r: (2, 3),
    analyze_r: 1,
    sweep_r: (1, 2),
    routing_r: 2,
};

/// Every well-formed request the stream may draw: certify, sweep and
/// routing_cert of both `algos`, analyze of every `analyze_algos` entry.
pub fn all_keys(algos: [&str; 2], analyze_algos: &[String], lim: &Limits) -> Vec<Op> {
    let mut keys = Vec::new();
    let grid = [8usize, 12, 16, 24, 32, 48, 64, 96, 128];
    for a in algos {
        for r in lim.certify_r.0..=lim.certify_r.1 {
            for m in (8..=200).step_by(4) {
                keys.push(Op::Certify {
                    algo: a.into(),
                    r,
                    m,
                });
            }
        }
        for r in lim.sweep_r.0..=lim.sweep_r.1 {
            for i in 0..grid.len() {
                for j in i + 1..grid.len() {
                    for l in j + 1..grid.len() {
                        keys.push(Op::Sweep {
                            algo: a.into(),
                            r,
                            ms: vec![grid[i], grid[j], grid[l]],
                        });
                    }
                }
            }
        }
        for k in 1..=2 {
            for r in k..=lim.routing_r {
                keys.push(Op::RoutingCert {
                    algo: a.into(),
                    k,
                    r,
                });
            }
        }
    }
    for algo in analyze_algos {
        for r in 1..=lim.analyze_r {
            keys.push(Op::Analyze {
                algo: algo.clone(),
                r,
            });
        }
    }
    keys
}

/// Picks the hot set and the preloaded keys for `seed`. The hot set has a
/// fixed shape — for each of the two algorithms, the same number of keys
/// of each kind at the same depths — and the seed only picks among keys of
/// equal cost (the `M` of a certify, the grid of a sweep), so every seed
/// loads the server alike. Every kind is in it, so every serve layer has
/// work.
pub fn key_space(seed: u64, algos: [&str; 2], analyze_algos: &[String], lim: &Limits) -> KeySpace {
    let keys = all_keys(algos, analyze_algos, lim);
    let mut rng = Rng::new(seed, 2);
    let (c, s) = (lim.certify_r, lim.sweep_r);
    let mut shape: Vec<(&str, &str, u32)> = Vec::new();
    for a in algos {
        shape.extend([
            (a, "certify", c.0),
            (a, "certify", c.0 + 1),
            (a, "certify", c.1),
            (a, "sweep", s.0),
            (a, "sweep", s.0 + 1),
            (a, "sweep", s.1),
            (a, "routing_cert", lim.routing_r),
            (a, "routing_cert", lim.routing_r),
        ]);
    }
    shape.push((algos[0], "analyze", 1));
    shape.push((algos[1], "analyze", lim.analyze_r));
    let mut hot: Vec<usize> = Vec::new();
    for (a, kind, r) in shape {
        let fits: Vec<usize> = (0..keys.len())
            .filter(|&i| {
                let (algo, depth) = match &keys[i] {
                    Op::Certify { algo, r, .. }
                    | Op::Analyze { algo, r }
                    | Op::Sweep { algo, r, .. }
                    | Op::RoutingCert { algo, r, .. } => (algo.as_str(), *r),
                    Op::Stats | Op::Shutdown => ("", 0),
                };
                keys[i].kind() == kind && algo == a && depth == r && !hot.contains(&i)
            })
            .collect();
        hot.push(fits[rng.below(fits.len())]);
    }
    let mut preloaded = hot.clone();
    while preloaded.len() < HOT_KEYS + EXTRA_PRELOAD {
        let i = rng.below(keys.len());
        if !preloaded.contains(&i) {
            preloaded.push(i);
        }
    }
    KeySpace {
        keys,
        hot,
        preloaded,
    }
}

/// Request `i` of the stream for `seed`: a key index. The stream is a pure
/// function of `(seed, i)`, so it is identical however many requests a run
/// gets through, and connection `c` of `n` plays indices `c, c + n, …`.
pub fn request(seed: u64, space: &KeySpace, i: u64) -> usize {
    let mut rng = Rng::new(seed, 1_000_000 + i);
    if rng.unit() < HOT_FRAC {
        space.hot[rng.below(space.hot.len())]
    } else {
        rng.below(space.keys.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_algos() -> Vec<String> {
        vec!["strassen".into(), "winograd".into()]
    }

    fn stream(seed: u64) -> Vec<usize> {
        let space = key_space(seed, algos(seed), &analyze_algos(), &FULL);
        (0..200).map(|i| request(seed, &space, i)).collect()
    }

    #[test]
    fn same_seed_same_order_and_stream_other_seed_differs() {
        assert_eq!(pass_order(7, 0, 6), pass_order(7, 0, 6));
        assert_eq!(stream(7), stream(7));
        assert_eq!(algos(7), algos(7));
        assert_ne!(stream(7), stream(8));
        assert!((1..20).any(|s| pass_order(s, 0, 6) != pass_order(7, 0, 6)));
        let mut sorted = pass_order(7, 3, 6);
        sorted.sort();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_cover_both_algorithms() {
        let picks: Vec<&str> = (0..32).map(|s| algos(s)[0]).collect();
        assert!(ALGOS.iter().all(|a| picks.contains(a)));
    }

    #[test]
    fn hot_set_covers_every_kind_and_is_preloaded() {
        for lim in [&FULL, &TINY] {
            let space = key_space(3, ALGOS, &analyze_algos(), lim);
            for kind in ["certify", "analyze", "sweep", "routing_cert"] {
                assert!(space.hot.iter().any(|&i| space.keys[i].kind() == kind));
            }
            let mut distinct = space.hot.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), HOT_KEYS);
        }
        let space = key_space(3, ALGOS, &analyze_algos(), &TINY);
        assert!(space.hot.iter().all(|i| space.preloaded.contains(i)));
        assert_eq!(space.preloaded.len(), HOT_KEYS + EXTRA_PRELOAD);
    }
}
