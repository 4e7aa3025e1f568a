//! Reusable flat CSR (compressed sparse row) adjacency-style storage.
//!
//! The pebble scheduler's hot path needs, for every vertex, the sorted list
//! of compute-order positions at which the vertex is used. Building that as
//! `Vec<Vec<u64>>` costs one heap allocation per vertex per run; [`Csr`]
//! stores the same data as two flat `u32` arrays (`offsets` + `items`) built
//! by a two-pass counting sort, and `rebuild` reuses the allocations across
//! builds — the "build once per (graph, order), reuse across the (policy, M)
//! grid" pattern of `mmio_pebble::sweep`.

/// Flat CSR storage: `items[offsets[k]..offsets[k + 1]]` is row `k`.
///
/// Rows preserve emission order, so emitting items in ascending order per
/// key yields sorted rows without a sort pass.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// An empty CSR (no keys, no items).
    pub fn new() -> Csr {
        Csr::default()
    }

    /// Rebuilds the CSR for `n_keys` rows from scratch, reusing existing
    /// allocations. `emit` is called exactly twice with a sink closure and
    /// must produce the same `(key, item)` sequence both times (first pass
    /// counts, second pass fills).
    ///
    /// The fill pass uses `offsets` itself as the per-row cursors (each
    /// `offsets[k]` advances from the start of row `k` to its end, which is
    /// the start of row `k + 1`), then shifts them back by one row, so no
    /// cursor array outlives the call.
    ///
    /// # Panics
    /// Panics if `emit` produces a key `>= n_keys` or more than `u32::MAX`
    /// items. Debug builds also check that the fill pass ends the last row
    /// where the count pass did.
    pub fn rebuild(&mut self, n_keys: usize, emit: impl Fn(&mut dyn FnMut(u32, u32))) {
        self.offsets.clear();
        self.offsets.resize(n_keys + 1, 0);
        emit(&mut |key, _item| {
            self.offsets[key as usize + 1] += 1;
        });
        for k in 0..n_keys {
            self.offsets[k + 1] = self.offsets[k + 1]
                .checked_add(self.offsets[k])
                .expect("CSR item count exceeds u32::MAX");
        }
        let total = self.offsets[n_keys] as usize;
        self.items.clear();
        self.items.resize(total, 0);
        emit(&mut |key, item| {
            let cur = &mut self.offsets[key as usize];
            self.items[*cur as usize] = item;
            *cur += 1;
        });
        debug_assert!(
            n_keys == 0 || self.offsets[n_keys - 1] as usize == total,
            "emit produced a different sequence on the fill pass than on the count pass"
        );
        self.offsets.copy_within(0..n_keys, 1);
        self.offsets[0] = 0;
    }

    /// Number of rows.
    pub fn n_keys(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Row `key` as a slice (empty slice for keys with no items).
    #[inline]
    pub fn row(&self, key: usize) -> &[u32] {
        &self.items[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_rows_in_emission_order() {
        let mut csr = Csr::new();
        let pairs = [(2u32, 10u32), (0, 5), (2, 11), (1, 7), (2, 12)];
        csr.rebuild(4, |sink| {
            for &(k, v) in &pairs {
                sink(k, v);
            }
        });
        assert_eq!(csr.n_keys(), 4);
        assert_eq!(csr.n_items(), 5);
        assert_eq!(csr.row(0), &[5]);
        assert_eq!(csr.row(1), &[7]);
        assert_eq!(csr.row(2), &[10, 11, 12]);
        assert_eq!(csr.row(3), &[] as &[u32]);
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let mut csr = Csr::new();
        csr.rebuild(2, |sink| {
            sink(0, 1);
            sink(1, 2);
        });
        csr.rebuild(3, |sink| {
            sink(2, 9);
        });
        assert_eq!(csr.n_keys(), 3);
        assert_eq!(csr.row(0), &[] as &[u32]);
        assert_eq!(csr.row(2), &[9]);
    }

    #[test]
    fn empty_is_fine() {
        let mut csr = Csr::new();
        csr.rebuild(0, |_sink| {});
        assert_eq!(csr.n_keys(), 0);
        assert_eq!(csr.n_items(), 0);
    }
}
