//! Rational-polynomial approximation of expensive math functions.
//!
//! The Cardioid team "found that replacing expensive functions with
//! run-time rational polynomials was essential for top performance". The
//! fitter here solves the linearised least-squares problem
//! `min sum_i w_i (p(t_i) - f(x_i) q(t_i))^2` on Chebyshev nodes, with `q`
//! normalised to `q(0) = 1` — the same construction Melodee automates.
//! Fitting happens in the normalised coordinate `t = (x - c) / s` mapped to
//! `[-1, 1]`, which keeps the monomial normal equations well conditioned,
//! and rows are weighted by `1/|f|` so the *relative* error is minimised.

use linalg::DenseMatrix;

/// A rational approximation `p(t) / q(t)`, `t = (x - centre) / scale`,
/// valid on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RationalApprox {
    /// Numerator coefficients in `t`, low degree first.
    pub p: Vec<f64>,
    /// Denominator coefficients in `t`, low degree first; `q[0] == 1`.
    pub q: Vec<f64>,
    pub lo: f64,
    pub hi: f64,
    centre: f64,
    scale: f64,
}

/// Evaluate a polynomial (low-degree-first coefficients) by Horner.
#[inline]
pub fn horner(coeffs: &[f64], x: f64) -> f64 {
    let mut acc = 0.0;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

impl RationalApprox {
    /// Fit `f` on `[lo, hi]` with numerator degree `m` and denominator
    /// degree `k`, sampling on `samples` Chebyshev nodes.
    pub fn fit(
        f: impl Fn(f64) -> f64,
        lo: f64,
        hi: f64,
        m: usize,
        k: usize,
        samples: usize,
    ) -> RationalApprox {
        assert!(hi > lo);
        let centre = 0.5 * (lo + hi);
        let scale = 0.5 * (hi - lo);
        let n_unknowns = (m + 1) + k; // q0 fixed to 1
        let ns = samples.max(2 * n_unknowns);
        // Chebyshev nodes in t in [-1, 1].
        let ts: Vec<f64> = (0..ns)
            .map(|i| (((2 * i + 1) as f64) * std::f64::consts::PI / (2.0 * ns as f64)).cos())
            .collect();
        let fxs: Vec<f64> = ts.iter().map(|&t| f(centre + scale * t)).collect();
        let fmax = fxs
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-300);
        // Sanathanan-Koerner iteration: weighted rows
        // w * (p(t) - f(x) (q(t) - 1)) = w * f(x), with w refined by the
        // previous denominator so the *true* rational residual is minimised.
        let mut q_prev = vec![1.0f64];
        let mut best: Option<(Vec<f64>, Vec<f64>)> = None;
        for _sk in 0..4 {
            let mut a = DenseMatrix::zeros(ns, n_unknowns);
            let mut b = vec![0.0; ns];
            for (r, &t) in ts.iter().enumerate() {
                let fx = fxs[r];
                let w = 1.0 / (fx.abs().max(1e-3 * fmax) * horner(&q_prev, t).abs().max(1e-3));
                let mut pw = 1.0;
                for c in 0..=m {
                    a[(r, c)] = w * pw;
                    pw *= t;
                }
                let mut qw = t;
                for c in 0..k {
                    a[(r, m + 1 + c)] = -w * fx * qw;
                    qw *= t;
                }
                b[r] = w * fx;
            }
            // Normal equations A^T A c = A^T b, lightly regularised.
            let at = transpose(&a);
            let mut ata = at.matmul(&a);
            let mut atb = vec![0.0; n_unknowns];
            at.matvec(&b, &mut atb);
            for i in 0..n_unknowns {
                ata[(i, i)] *= 1.0 + 1e-13;
            }
            let Some(c) = ata.solve(&atb) else { break };
            let p = c[..=m].to_vec();
            let mut q = vec![1.0];
            q.extend_from_slice(&c[m + 1..]);
            q_prev = q.clone();
            best = Some((p, q));
        }
        let (p, q) = best.expect("at least one SK iteration succeeded");
        RationalApprox {
            p,
            q,
            lo,
            hi,
            centre,
            scale,
        }
    }

    /// Evaluate the approximation.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let t = (x - self.centre) / self.scale;
        horner(&self.p, t) / horner(&self.q, t)
    }

    /// Maximum relative error against `f` on a dense sample of the fit
    /// interval.
    pub fn max_rel_error(&self, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..samples {
            let x = self.lo + (self.hi - self.lo) * i as f64 / (samples - 1) as f64;
            let exact = f(x);
            let approx = self.eval(x);
            let denom = exact.abs().max(1e-12);
            worst = worst.max((approx - exact).abs() / denom);
        }
        worst
    }

    /// Flop count of one evaluation (2 Horner chains + normalise + divide).
    pub fn flops(&self) -> f64 {
        2.0 * (self.p.len() as f64 - 1.0) + 2.0 * (self.q.len() as f64 - 1.0) + 3.0
    }
}

fn transpose(a: &DenseMatrix) -> DenseMatrix {
    let mut t = DenseMatrix::zeros(a.cols, a.rows);
    for i in 0..a.rows {
        for j in 0..a.cols {
            t[(j, i)] = a[(i, j)];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horner_matches_naive() {
        let c = [1.0, -2.0, 0.5, 3.0];
        let x = 1.7;
        let naive = 1.0 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
        assert!((horner(&c, x) - naive).abs() < 1e-12);
    }

    #[test]
    fn fits_exp_to_high_accuracy() {
        let r = RationalApprox::fit(f64::exp, -5.0, 5.0, 6, 6, 240);
        let err = r.max_rel_error(f64::exp, 1000);
        assert!(err < 1e-3, "max rel error {err}");
    }

    #[test]
    fn fits_sigmoid_gate_function() {
        // Typical gating steady-state: 1 / (1 + exp((v + 20) / 7)).
        let f = |v: f64| 1.0 / (1.0 + ((v + 20.0) / 7.0).exp());
        let r = RationalApprox::fit(f, -90.0, 50.0, 8, 8, 400);
        let err = r.max_rel_error(f, 2000);
        assert!(err < 1e-3, "max rel error {err}");
    }

    #[test]
    fn exact_for_rational_inputs() {
        // f = (1 + 2x) / (1 + 0.5 x) is itself rational: fit is ~exact.
        let f = |x: f64| (1.0 + 2.0 * x) / (1.0 + 0.5 * x);
        let r = RationalApprox::fit(f, 0.0, 1.0, 1, 1, 50);
        assert!(r.max_rel_error(f, 100) < 1e-9);
    }

    #[test]
    fn flop_count_reflects_degrees() {
        let r = RationalApprox {
            p: vec![0.0; 7],
            q: vec![0.0; 7],
            lo: 0.0,
            hi: 1.0,
            centre: 0.5,
            scale: 0.5,
        };
        assert_eq!(r.flops(), 27.0);
    }

    #[test]
    fn error_grows_outside_interval() {
        let r = RationalApprox::fit(f64::exp, -1.0, 1.0, 4, 4, 100);
        let inside = (r.eval(0.5) - 0.5f64.exp()).abs();
        let outside = (r.eval(4.0) - 4.0f64.exp()).abs();
        assert!(outside > 10.0 * inside.max(1e-15));
    }

    #[test]
    fn wide_interval_stays_well_conditioned() {
        // The normalisation to [-1, 1] is what makes this work.
        let f = |v: f64| 1.0 / (1.0 + ((v + 20.0) / 7.0).exp());
        let r = RationalApprox::fit(f, -200.0, 200.0, 10, 10, 600);
        // Use absolute error: the function underflows to ~0 on one side,
        // where relative error is meaningless.
        let mut worst = 0.0f64;
        for i in 0..500 {
            let x = -200.0 + 400.0 * i as f64 / 499.0;
            worst = worst.max((r.eval(x) - f(x)).abs());
        }
        assert!(worst < 0.05, "{worst}");
    }
}

/// Fixed-degree rational evaluator with compile-time coefficient counts —
/// the §4.1 observation that "changing run-time polynomial coefficients
/// into compile-time constants could yield significant performance".
/// Monomorphisation gives the compiler fixed trip counts and stack arrays
/// (what Melodee's NVRTC pass achieves on the GPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RationalConst<const M: usize, const K: usize> {
    pub p: [f64; M],
    pub q: [f64; K],
    centre: f64,
    scale: f64,
}

impl<const M: usize, const K: usize> RationalConst<M, K> {
    /// Freeze a fitted approximation into fixed-size arrays. Panics if the
    /// degrees do not match.
    pub fn freeze(r: &RationalApprox) -> RationalConst<M, K> {
        assert_eq!(r.p.len(), M, "numerator degree mismatch");
        assert_eq!(r.q.len(), K, "denominator degree mismatch");
        let mut p = [0.0; M];
        let mut q = [0.0; K];
        p.copy_from_slice(&r.p);
        q.copy_from_slice(&r.q);
        RationalConst {
            p,
            q,
            centre: r.centre,
            scale: r.scale,
        }
    }

    /// Evaluate (fully unrollable Horner chains).
    #[inline(always)]
    pub fn eval(&self, x: f64) -> f64 {
        let t = (x - self.centre) / self.scale;
        let mut num = 0.0;
        let mut i = M;
        while i > 0 {
            i -= 1;
            num = num * t + self.p[i];
        }
        let mut den = 0.0;
        let mut j = K;
        while j > 0 {
            j -= 1;
            den = den * t + self.q[j];
        }
        num / den
    }
}

#[cfg(test)]
mod const_tests {
    use super::*;

    #[test]
    fn frozen_evaluator_matches_dynamic() {
        let r = RationalApprox::fit(f64::exp, -3.0, 3.0, 6, 6, 200);
        let frozen: RationalConst<7, 7> = RationalConst::freeze(&r);
        for i in 0..200 {
            let x = -3.0 + 6.0 * i as f64 / 199.0;
            assert!((frozen.eval(x) - r.eval(x)).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "degree mismatch")]
    fn degree_mismatch_panics() {
        let r = RationalApprox::fit(f64::exp, -1.0, 1.0, 4, 4, 100);
        let _: RationalConst<7, 7> = RationalConst::freeze(&r);
    }

    #[test]
    fn frozen_evaluator_is_accurate_on_gate_functions() {
        let f = |v: f64| 1.0 / (1.0 + ((v + 20.0) / 7.0).exp());
        let r = RationalApprox::fit(f, -90.0, 50.0, 8, 8, 400);
        let frozen: RationalConst<9, 9> = RationalConst::freeze(&r);
        let mut worst = 0.0f64;
        for i in 0..500 {
            let v = -90.0 + 140.0 * i as f64 / 499.0;
            worst = worst.max((frozen.eval(v) - f(v)).abs());
        }
        assert!(worst < 1e-3, "{worst}");
    }
}
