//! The split-step Fourier propagator.
//!
//! One step of distance `dz`: half a diffraction step in Fourier space
//! (multiply by `exp(-i (kx^2 + ky^2) dz / (2 k0))`), then the real-space
//! physics (amplifier gain, phase plates, Kerr-like nonlinear phase), then
//! the second half of the diffraction. The Fig 9 experiment — two small
//! phase defects imprinting fluence ripples after 10 m of propagation —
//! is a direct consequence.

use crate::cplx::C64;
use crate::fft::fft2d;

/// A fluence (|E|^2) map.
#[derive(Debug, Clone, PartialEq)]
pub struct Fluence {
    pub n: usize,
    pub data: Vec<f64>,
}

impl Fluence {
    pub fn peak(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Ripple contrast: rms deviation from the mean over the beam core
    /// (cells above 10 % of peak), normalised by the mean. Note that a
    /// smooth Gaussian already has nonzero contrast by this measure; use
    /// [`Fluence::ripple_vs`] to isolate defect-induced structure.
    pub fn ripple_contrast(&self) -> f64 {
        let peak = self.peak();
        let core: Vec<f64> = self
            .data
            .iter()
            .copied()
            .filter(|&v| v > 0.1 * peak)
            .collect();
        if core.is_empty() {
            return 0.0;
        }
        let mean = core.iter().sum::<f64>() / core.len() as f64;
        let var = core.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / core.len() as f64;
        var.sqrt() / mean.max(1e-300)
    }

    /// Defect-induced ripple: rms of the relative fluence deviation from a
    /// defect-free reference propagation, over the reference beam core.
    pub fn ripple_vs(&self, reference: &Fluence) -> f64 {
        assert_eq!(self.n, reference.n);
        let peak = reference.peak();
        let mut acc = 0.0;
        let mut count = 0usize;
        for (d, c) in self.data.iter().zip(&reference.data) {
            if *c > 0.1 * peak {
                let rel = d / c - 1.0;
                acc += rel * rel;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            (acc / count as f64).sqrt()
        }
    }
}

/// The beamline state: an `n x n` complex field on a grid of extent
/// `width` (metres), wavelength-derived wavenumber `k0`.
pub struct Beamline {
    pub n: usize,
    pub width: f64,
    pub k0: f64,
    pub field: Vec<C64>,
    /// Kerr coefficient (nonlinear phase per unit |E|^2 per metre).
    pub kerr: f64,
    /// Amplifier gain per metre (applied to the amplitude).
    pub gain_per_m: f64,
}

impl Beamline {
    /// Gaussian beam of waist `w0` centred on the grid.
    pub fn gaussian(n: usize, width: f64, wavelength: f64, w0: f64) -> Beamline {
        assert!(n.is_power_of_two());
        let k0 = std::f64::consts::TAU / wavelength;
        let mut field = vec![C64::ZERO; n * n];
        let h = width / n as f64;
        for i in 0..n {
            for j in 0..n {
                let x = (i as f64 - n as f64 / 2.0) * h;
                let y = (j as f64 - n as f64 / 2.0) * h;
                let r2 = x * x + y * y;
                field[i * n + j] = C64::new((-r2 / (w0 * w0)).exp(), 0.0);
            }
        }
        Beamline {
            n,
            width,
            k0,
            field,
            kerr: 0.0,
            gain_per_m: 0.0,
        }
    }

    /// Apply a circular phase defect of radius `r` (grid cells) and depth
    /// `phase` radians centred at `(ci, cj)` — Fig 9's 150 um defects.
    pub fn add_phase_defect(&mut self, ci: usize, cj: usize, r: usize, phase: f64) {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let d2 = (i as isize - ci as isize).pow(2) + (j as isize - cj as isize).pow(2);
                if d2 <= (r * r) as isize {
                    self.field[i * n + j] *= C64::cis(phase);
                }
            }
        }
    }

    /// Spatial frequency of FFT bin `k` for grid size `n`, extent `width`.
    fn kfreq(&self, k: usize) -> f64 {
        let n = self.n;
        let idx = if k <= n / 2 {
            k as f64
        } else {
            k as f64 - n as f64
        };
        std::f64::consts::TAU * idx / self.width
    }

    /// Propagate a distance `dz` with one split step.
    pub fn step(&mut self, dz: f64) {
        let n = self.n;
        // Half nonlinear/gain step in real space.
        self.real_space_half_step(dz / 2.0);
        // Full diffraction step in Fourier space.
        fft2d(&mut self.field, n, false);
        for i in 0..n {
            let kx = self.kfreq(i);
            for j in 0..n {
                let ky = self.kfreq(j);
                let phase = -(kx * kx + ky * ky) * dz / (2.0 * self.k0);
                self.field[i * n + j] *= C64::cis(phase);
            }
        }
        fft2d(&mut self.field, n, true);
        self.real_space_half_step(dz / 2.0);
    }

    fn real_space_half_step(&mut self, dz: f64) {
        if self.kerr == 0.0 && self.gain_per_m == 0.0 {
            return;
        }
        let g = (self.gain_per_m * dz).exp();
        for z in self.field.iter_mut() {
            let intensity = z.norm_sqr();
            *z = z.scale(g) * C64::cis(self.kerr * intensity * dz);
        }
    }

    /// Propagate `distance` in `steps` split steps.
    pub fn propagate(&mut self, distance: f64, steps: usize) {
        let dz = distance / steps.max(1) as f64;
        for _ in 0..steps.max(1) {
            self.step(dz);
        }
    }

    pub fn fluence(&self) -> Fluence {
        Fluence {
            n: self.n,
            data: self.field.iter().map(|z| z.norm_sqr()).collect(),
        }
    }

    /// Beam second-moment width along x.
    pub fn rms_width(&self) -> f64 {
        let n = self.n;
        let h = self.width / n as f64;
        let mut total = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let x = (i as f64 - n as f64 / 2.0) * h;
            for j in 0..n {
                let w = self.field[i * n + j].norm_sqr();
                total += w;
                m2 += w * x * x;
            }
        }
        (m2 / total.max(1e-300)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam() -> Beamline {
        // 64x64, 10 mm extent, 1 um wavelength, 1.5 mm waist.
        Beamline::gaussian(64, 0.01, 1e-6, 1.5e-3)
    }

    #[test]
    fn free_space_propagation_conserves_power() {
        let mut b = beam();
        let p0 = b.fluence().total();
        b.propagate(5.0, 10);
        let p1 = b.fluence().total();
        assert!((p1 - p0).abs() / p0 < 1e-9, "{p0} -> {p1}");
    }

    #[test]
    fn gaussian_beam_diffracts_and_spreads() {
        let mut b = beam();
        let w0 = b.rms_width();
        // Rayleigh range ~ pi w0^2 / lambda ~ 7 m for these parameters;
        // propagate past it.
        b.propagate(20.0, 20);
        let w1 = b.rms_width();
        assert!(w1 > 1.2 * w0, "no diffraction spread: {w0} -> {w1}");
    }

    #[test]
    fn gain_amplifies_power() {
        let mut b = beam();
        b.gain_per_m = 0.1;
        let p0 = b.fluence().total();
        b.propagate(2.0, 4);
        let p1 = b.fluence().total();
        // Amplitude gain 0.1/m over 2 m: power gain ~ exp(0.4).
        let expect = (0.4f64).exp() * p0;
        assert!((p1 / expect - 1.0).abs() < 0.05, "{p1} vs {expect}");
    }

    #[test]
    fn phase_defects_imprint_fluence_ripples() {
        // The Fig 9 experiment: two small phase defects cause ripples in
        // the fluence after propagation.
        let mut clean = beam();
        let mut dirty = beam();
        dirty.add_phase_defect(26, 26, 3, 1.0);
        dirty.add_phase_defect(38, 30, 3, 1.0);
        // Before propagation, a pure phase defect is invisible in fluence.
        let r0 = dirty.fluence().ripple_vs(&clean.fluence());
        assert!(r0 < 1e-9, "phase defect already visible: {r0}");
        clean.propagate(2.0, 8);
        dirty.propagate(2.0, 8);
        let r1 = dirty.fluence().ripple_vs(&clean.fluence());
        assert!(r1 > 0.05, "defects did not imprint ripples: {r1}");
    }

    #[test]
    fn ripples_grow_with_distance() {
        let run = |dist: f64| {
            let mut clean = beam();
            let mut dirty = beam();
            dirty.add_phase_defect(32, 32, 3, 1.0);
            clean.propagate(dist, 8);
            dirty.propagate(dist, 8);
            dirty.fluence().ripple_vs(&clean.fluence())
        };
        let near = run(0.25);
        let far = run(1.5);
        assert!(far > near, "{near} -> {far}");
    }

    #[test]
    fn kerr_phase_preserves_power_but_changes_spectrum() {
        let mut b = beam();
        b.kerr = 5.0;
        let p0 = b.fluence().total();
        b.propagate(1.0, 4);
        assert!((b.fluence().total() - p0).abs() / p0 < 1e-9);
    }
}
