//! # diffserve-linalg
//!
//! Small dense linear algebra for the DiffServe reproduction.
//!
//! The paper's evaluation metric (Fréchet Inception Distance) needs means,
//! covariances, and a positive-semi-definite matrix square root, and the
//! discriminator substrate needs matrix products. This crate implements
//! exactly that surface from
//! scratch — [`Mat`] plus [`sym_eigen`] and its values-only form
//! [`sym_eigenvalues`] and [`sqrtm_psd`] — because no external
//! linear-algebra crate is sanctioned for this workspace. Both
//! eigen-solvers share one Householder tridiagonalization, which keeps the
//! full symmetric block so that every loop runs along a row; `sym_eigen`
//! then runs implicit-shift QL with plane rotations, which `sqrtm_psd`
//! roots with, and `sym_eigenvalues` a rational QL on the squared
//! couplings, with no square root per rotation.
//!
//! The Fréchet distances of a report are values-only solves of sandwiches
//! `S·Σ·S` around one reference root `S`. [`SandwichEigenvalues`] forms and
//! solves up to [`LANES`] of them per call in buffers it keeps, its rational
//! QLs advancing a rotation each in turn so that their chains of divides
//! overlap; each lane's values are the bits `sym_eigenvalues` gives for the
//! symmetrized product.
//!
//! # Examples
//!
//! ```
//! use diffserve_linalg::{sqrtm_psd, Mat};
//!
//! let a = Mat::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
//! let s = sqrtm_psd(&a)?;
//! assert!((s[(0, 0)] - 2.0).abs() < 1e-10);
//! assert!((s[(1, 1)] - 3.0).abs() < 1e-10);
//! # Ok::<(), diffserve_linalg::DecompError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod decomp;
pub mod matrix;

pub use decomp::{
    sqrtm_psd, sym_eigen, sym_eigenvalues, DecompError, SandwichEigenvalues, SymEigen, LANES,
};
pub use matrix::Mat;
