//! The verifier's closed-form model of `G_r` — a thin re-export of the
//! shared [`mmio_cdag::view`] module.
//!
//! The implementation originated here (PR 5) and was promoted into
//! `mmio-cdag` so the engines can be generic over the same audited
//! [`IndexView`]. The verifier's trust base is unchanged: `mmio-cdag` was
//! already trusted (for `hits` and `index`), `mmio-core`/`mmio-pebble`
//! still are not, and this module pins the exact surface the verifier
//! consumes. The adapters below bind the crate's untrusted [`BaseSpec`]
//! wire format to the shared constructors.

use crate::format::BaseSpec;
pub use mmio_cdag::view::{checked_pow, IndexView, ViewError};

/// Builds the closed-form view of `G_r` from an untrusted certificate
/// [`BaseSpec`], validating shapes and the id space (never panics). A
/// certificate needs `r ≥ 1`: the degenerate `G_0` is a `Params` reject,
/// checked after the shapes so a malformed base still reports as one.
pub fn view_of(spec: &BaseSpec, r: u32) -> Result<IndexView, ViewError> {
    let view = IndexView::new(spec.n0, &spec.enc_a, &spec.enc_b, &spec.dec, r)?;
    if r == 0 {
        return Err(ViewError::Params(
            "recursion depth r must be at least 1".into(),
        ));
    }
    Ok(view)
}

/// Re-checks the matrix-multiplication tensor identity
/// `Σ_m dec[y][m]·enc_a[m][x]·enc_b[m][z] = T(x, z, y)` directly on the
/// embedded coefficients (shapes must already be consistent — build the
/// [`IndexView`] first). Returns the first violated triple.
pub fn check_tensor(spec: &BaseSpec) -> Result<(), String> {
    mmio_cdag::view::check_tensor(spec.n0, &spec.enc_a, &spec.enc_b, &spec.dec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_cdag::BaseGraph;
    use mmio_matrix::Rational;

    fn spec_of(g: &BaseGraph) -> BaseSpec {
        BaseSpec::from_base(g)
    }

    /// The registry-scale equivalence suite lives in `mmio-cdag` (unit
    /// tests) and `mmio-integration` (property tests); this spot-check
    /// pins the BaseSpec adapter itself against the builder.
    #[test]
    fn spec_adapter_matches_builder() {
        let g = strassen();
        for r in [1u32, 2, 3] {
            let view = view_of(&spec_of(&g), r).unwrap();
            let cdag = build_cdag(&g, r);
            assert_eq!(view.n_vertices() as usize, cdag.n_vertices());
            let mut preds = Vec::new();
            for v in cdag.vertices() {
                preds.clear();
                assert!(view.preds_into(v.0, &mut preds));
                let want: Vec<u32> = cdag.preds(v).iter().map(|p| p.0).collect();
                assert_eq!(preds, want, "preds of {} at r={r}", v.0);
            }
        }
    }

    #[test]
    fn tensor_check_accepts_real_and_rejects_corrupt() {
        let g = strassen();
        let mut spec = spec_of(&g);
        assert!(check_tensor(&spec).is_ok());
        let flipped = if spec.dec[(0, 0)].is_zero() {
            Rational::ONE
        } else {
            Rational::ZERO
        };
        spec.dec[(0, 0)] = flipped;
        assert!(check_tensor(&spec).is_err());
    }

    #[test]
    fn bad_specs_rejected() {
        let g = strassen();
        assert!(view_of(&spec_of(&g), 0).is_err());
        let mut bad = spec_of(&g);
        bad.n0 = 3; // enc shapes no longer match n0²
        assert!(view_of(&bad, 2).is_err());
    }
}
