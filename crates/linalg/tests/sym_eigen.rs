//! The symmetric eigen-solvers over the inputs the FID path feeds them and
//! the ones they must survive: Gram matrices of every rank, diagonal,
//! repeated and indefinite spectra, and spectra scaled far from 1.
//! `sym_eigenvalues` (rational QL) must agree with `sym_eigen(..).values`
//! (rotation QL) to `1e-12 · ‖A‖ · n`, and the decomposition is checked
//! against the matrix itself (`A V = V Λ`, `VᵀV = I`), not against another
//! solver.

use diffserve_linalg::{sym_eigen, sym_eigenvalues, DecompError, Mat};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// `Q diag(spectrum) Qᵀ` for a random Householder reflection `Q`.
fn with_spectrum(spectrum: &[f64], rng: &mut impl Rng) -> Mat {
    let n = spectrum.len();
    let u: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let uu: f64 = u.iter().map(|x| x * x).sum();
    let q = Mat::from_fn(n, n, |i, j| {
        f64::from(u8::from(i == j)) - 2.0 * u[i] * u[j] / uu
    });
    let mut a = q.matmul(&Mat::from_diag(spectrum)).matmul(&q.transpose());
    a.symmetrize();
    a
}

/// `‖A‖_F`, computed over `A / max |a_ij|` so that it neither overflows
/// nor underflows at any scale.
fn norm(a: &Mat) -> f64 {
    let largest = a.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    if largest == 0.0 {
        return 0.0;
    }
    largest * a.scale(1.0 / largest).frobenius_norm()
}

/// Both entry points on `a`: the same ascending values, and a
/// decomposition that holds against `a` to `1e-12 · ‖A‖` per unit of
/// dimension.
fn check(a: &Mat) -> Result<(), String> {
    let n = a.rows();
    let norm = norm(a).max(f64::MIN_POSITIVE);
    let values = sym_eigenvalues(a).map_err(|e| format!("values-only: {e}"))?;
    let eig = sym_eigen(a).map_err(|e| format!("with vectors: {e}"))?;
    if values.len() != n || eig.values.len() != n {
        return Err(format!(
            "{} and {} values for n = {n}",
            values.len(),
            eig.values.len()
        ));
    }
    // The two paths share the reduction but not the iteration.
    let tol = 1e-12 * norm * n as f64;
    for (i, (v, w)) in values.iter().zip(&eig.values).enumerate() {
        if (v - w).abs() > tol {
            return Err(format!("value {i}: {v} values-only, {w} with vectors"));
        }
    }
    if values.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("not ascending: {values:?}"));
    }
    let residual = a
        .matmul(&eig.vectors)
        .max_abs_diff(&eig.vectors.matmul(&Mat::from_diag(&eig.values)));
    if residual > tol {
        return Err(format!("A V - V Λ = {residual:e} > {tol:e}"));
    }
    let gram = eig.vectors.transpose().matmul(&eig.vectors);
    let skew = gram.max_abs_diff(&Mat::identity(n));
    if skew > 1e-12 * n as f64 {
        return Err(format!("VᵀV - I = {skew:e}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `XᵀX` for `X` with fewer rows than, as many rows as and more rows
    /// than `d` columns (rank below, at and "above" `d`), bare and with the
    /// window ridge the report adds.
    #[test]
    fn gram_matrices_of_every_rank(
        d in 1usize..33,
        shape in 0usize..3,
        ridge in 0usize..2,
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows = match shape {
            0 => rng.gen_range(1..d.max(2)),
            1 => d,
            _ => d + rng.gen_range(1..3 * d + 1),
        };
        let x = random(rows, d, &mut rng);
        let mut a = x.transpose().matmul(&x);
        a.symmetrize();
        if ridge == 1 {
            for i in 0..d {
                a[(i, i)] += 1e-3;
            }
        }
        let verdict = check(&a);
        prop_assert!(verdict.is_ok(), "d={} rows={}: {:?}", d, rows, verdict);
        let floor = if ridge == 1 { 1e-3 } else { 0.0 };
        let least = sym_eigenvalues(&a).unwrap()[0];
        prop_assert!(least > floor - 1e-12 * a.frobenius_norm().max(1.0), "least {}", least);
    }

    /// Diagonal, repeated-eigenvalue and indefinite inputs.
    #[test]
    fn structured_spectra(d in 1usize..33, kind in 0usize..3, seed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (a, spectrum) = match kind {
            0 => {
                let diag: Vec<f64> = (0..d).map(|_| rng.gen_range(-4.0..4.0)).collect();
                (Mat::from_diag(&diag), Some(diag))
            }
            1 => {
                // Two or three distinct values, each repeated.
                let levels = [rng.gen_range(0.5..1.5), rng.gen_range(2.0..3.0), 0.0];
                let spectrum: Vec<f64> = (0..d).map(|i| levels[i % 3]).collect();
                (with_spectrum(&spectrum, &mut rng), Some(spectrum))
            }
            _ => {
                let b = random(d, d, &mut rng);
                (&b + &b.transpose(), None)
            }
        };
        let verdict = check(&a);
        prop_assert!(verdict.is_ok(), "d={} kind={}: {:?}", d, kind, verdict);
        if let Some(mut spectrum) = spectrum {
            spectrum.sort_by(f64::total_cmp);
            let norm = a.frobenius_norm().max(1.0);
            for (got, want) in sym_eigenvalues(&a).unwrap().iter().zip(&spectrum) {
                prop_assert!((got - want).abs() <= 1e-12 * norm * d as f64, "{} vs {}", got, want);
            }
        }
    }

    /// Inputs that are not symmetric matrices are rejected by both entry
    /// points with the error the check names.
    #[test]
    fn bad_shapes_are_rejected(d in 2usize..33, seed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = random(d, d, &mut rng);
        let mut a = &b + &b.transpose();
        a[(0, d - 1)] += 1e-3 * a.frobenius_norm().max(1.0);
        prop_assert_eq!(sym_eigenvalues(&a).unwrap_err(), DecompError::NotSymmetric);
        prop_assert_eq!(sym_eigen(&a).unwrap_err(), DecompError::NotSymmetric);
        let wide = random(d, d + 1, &mut rng);
        prop_assert_eq!(sym_eigenvalues(&wide).unwrap_err(), DecompError::NotSquare);
        prop_assert_eq!(sym_eigen(&wide).unwrap_err(), DecompError::NotSquare);
    }

    /// Known spectra at magnitudes from 1e-300 to 1e300: the values-only
    /// path scales by a power of two before it squares the couplings, so
    /// neither overflow nor underflow costs it accuracy relative to `‖A‖`.
    #[test]
    fn known_spectra_far_from_one(
        d in 1usize..33,
        pick in 0usize..5,
        signed in 0usize..2,
        seed in 0u64..100_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let exponent = [-300, -150, 0, 150, 300][pick];
        let unit = 10f64.powi(exponent);
        let mut spectrum: Vec<f64> = (0..d)
            .map(|_| {
                let x = rng.gen_range(0.5..4.0_f64) * unit;
                if signed == 1 && rng.gen_bool(0.5) { -x } else { x }
            })
            .collect();
        let a = with_spectrum(&spectrum, &mut rng);
        let verdict = check(&a);
        prop_assert!(verdict.is_ok(), "d={} 1e{}: {:?}", d, exponent, verdict);
        spectrum.sort_by(f64::total_cmp);
        let tol = 1e-12 * norm(&a) * d as f64;
        for (got, want) in sym_eigenvalues(&a).unwrap().iter().zip(&spectrum) {
            prop_assert!((got - want).abs() <= tol, "{:e} vs {:e}", got, want);
        }
    }
}

#[test]
fn non_finite_input_is_no_convergence_not_a_panic() {
    for (at, bad) in [
        ((1, 1), f64::NAN),
        ((2, 2), f64::INFINITY),
        ((0, 0), f64::NEG_INFINITY),
    ] {
        let mut a = Mat::identity(3);
        a[at] = bad;
        assert_eq!(sym_eigenvalues(&a).unwrap_err(), DecompError::NoConvergence);
        assert_eq!(sym_eigen(&a).unwrap_err(), DecompError::NoConvergence);
    }
    // A symmetric pair of NaNs passes the symmetry check (NaN compares
    // false) and must still end in the error.
    let mut a = Mat::identity(3);
    a[(0, 2)] = f64::NAN;
    a[(2, 0)] = f64::NAN;
    assert_eq!(sym_eigenvalues(&a).unwrap_err(), DecompError::NoConvergence);
    assert_eq!(sym_eigen(&a).unwrap_err(), DecompError::NoConvergence);
}

/// A spectrum at the smallest normal scale, whose entries the scaling
/// lifts by nearly its largest power of two, and the zero matrix, which
/// it leaves unscaled.
#[test]
fn spectra_at_the_bottom_of_the_range_and_zero() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let unit = f64::MIN_POSITIVE;
    let a = with_spectrum(&[unit, 2.0 * unit, 3.0 * unit, -unit], &mut rng);
    let got = sym_eigenvalues(&a).unwrap();
    let tol = 1e-12 * norm(&a) * 4.0;
    for (g, w) in got.iter().zip([-unit, unit, 2.0 * unit, 3.0 * unit]) {
        assert!((g - w).abs() <= tol, "{g:e} vs {w:e}");
    }
    assert_eq!(sym_eigenvalues(&Mat::zeros(5, 5)).unwrap(), vec![0.0; 5]);
}
