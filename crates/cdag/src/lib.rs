//! # mmio-cdag
//!
//! Computation DAGs (CDAGs) of Strassen-like matrix multiplication
//! algorithms, following the definitions of *Matrix Multiplication
//! I/O-Complexity by Path Routing* (Scott, Holtz, Schwartz; SPAA 2015),
//! Section 3.
//!
//! A *Strassen-like algorithm* for `n₀×n₀` matrices is given by a
//! [`BaseGraph`]: two encoding maps (linear combinations of the entries of
//! `A` and of `B`), a multiplication layer with `b` product vertices, and a
//! decoding map producing the entries of `C`. For `n₀^r`-sided inputs the
//! algorithm recurses on blocks; the resulting CDAG `G_r` is a *ranked*
//! graph ([`Cdag`]) with
//!
//! - encoding ranks `0..=r` per side (`Σ_t b^t·a^{r-t}` vertices each,
//!   `a = n₀²`),
//! - the multiplication layer between encoding rank `r` and decoding rank 0
//!   (`b^r` product vertices), and
//! - decoding ranks `0..=r` (`Σ_k b^{r-k}·a^k` vertices), outputs on
//!   decoding rank `r`.
//!
//! The crate implements the structural facts the paper's proof rests on:
//!
//! - **Fact 1** ([`fact1`]): the middle `2(k+1)` ranks of `G_r` decompose
//!   into `b^{r-k}` vertex-disjoint copies of `G_k`.
//! - **Meta-vertices** ([`meta`]): maximal groups of vertices holding the
//!   same value, arising from copying (trivial linear combinations); chains
//!   under single copying, upward-branching trees under multiple copying
//!   (paper Figure 2).
//! - **Connectivity** ([`connectivity`]): whether the base graph's encoding
//!   and decoding graphs are individually connected — the property that
//!   breaks the earlier edge-expansion proof and motivates path routing.
//!
//! ```
//! use mmio_cdag::{BaseGraph, build::build_cdag};
//! use mmio_matrix::{Matrix, Rational};
//!
//! // The trivial 1×1 algorithm c = a·b, recursed twice.
//! let one = Matrix::from_vec(1, 1, vec![Rational::ONE]);
//! let base = BaseGraph::new("unit", 1, one.clone(), one.clone(), one);
//! assert!(base.verify_correctness().is_ok());
//! let g = build_cdag(&base, 2);
//! assert_eq!(g.n_vertices(), 9); // 3 per encoding side + product chain
//! assert_eq!(g.outputs().count(), 1);
//! ```

// Index arithmetic and adjacency access sit on every hot path of the
// routing engine; performance lints are errors here, not suggestions.
#![deny(clippy::perf)]
#![forbid(unsafe_code)]

pub mod base;
pub mod build;
pub mod connectivity;
pub mod csr;
pub mod dot;
pub mod fact1;
pub mod graph;
pub mod hits;
pub mod index;
pub mod iso;
pub mod meta;
pub mod serialize;
pub mod stats;
pub mod traversal;
pub mod values;
pub mod view;

pub use base::BaseGraph;
pub use csr::Csr;
pub use graph::{Cdag, Layer, VertexId, VertexRef};
pub use meta::MetaVertices;
pub use view::{CdagView, IndexView, ViewError};
