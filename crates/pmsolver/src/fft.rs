//! A from-scratch complex FFT (iterative radix-2 Cooley-Tukey) — the
//! transform kernel of the particle-mesh far field. No external FFT crate is
//! used; mesh extents are required to be powers of two.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number (the crate avoids external dependencies for this).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i theta}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = sum_n x_n e^{-2 pi i n k / N}` (no normalization).
    Forward,
    /// `x_n = sum_k X_k e^{+2 pi i n k / N}` (no normalization; a
    /// forward-then-inverse round trip scales by `N`).
    Inverse,
}

/// In-place 1D FFT of a power-of-two-length buffer. Returns the number of
/// butterfly operations performed (for work accounting).
pub fn fft_in_place(data: &mut [Complex], dir: Direction) -> u64 {
    FftPlan::new(data.len(), dir).run(data)
}

/// The twiddle factors of one transform length and direction, computed once
/// and reused by every transform of that shape.
///
/// Stage `len` (2, 4, ..., n) multiplies by `w_j = wlen^j`, `j < len / 2`,
/// generated by the recurrence `w_0 = 1`, `w_{j+1} = w_j * wlen` with
/// `wlen = cis(±2π / len)` — exactly the running product a textbook
/// iterative Cooley-Tukey loop forms per butterfly group, so a planned
/// transform is bitwise that loop's result without the per-butterfly twiddle
/// update and the per-stage `sin_cos`.
#[derive(Clone, Debug)]
pub(crate) struct FftPlan {
    n: usize,
    /// Stage `len`'s factors at `twiddles[len / 2 - 1..len - 1]`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plan transforms of length `n` (a power of two) in direction `dir`.
    pub(crate) fn new(n: usize, dir: Direction) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        FftPlan { n, twiddles }
    }

    /// The planned transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place transform of `data` (of the planned length). Returns the
    /// number of butterfly operations performed (for work accounting).
    pub(crate) fn run(&self, data: &mut [Complex]) -> u64 {
        let n = data.len();
        assert_eq!(n, self.n, "FFT plan length mismatch");
        if n <= 1 {
            return 0;
        }
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let w = &self.twiddles[half - 1..len - 1];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &wj) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                    let u = *a;
                    let v = *b * wj;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
        (n / 2 * bits as usize) as u64
    }
}

/// FFT each length-`n` row of a contiguous buffer of `rows * n` values.
pub fn fft_rows(data: &mut [Complex], n: usize, dir: Direction) -> u64 {
    assert_eq!(data.len() % n, 0);
    let plan = FftPlan::new(n, dir);
    data.chunks_exact_mut(n).map(|row| plan.run(row)).sum()
}

/// Naive DFT for testing.
pub fn dft_reference(data: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = data.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut h = seed;
        (0..n)
            .map(|_| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                Complex::new(a, b)
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x = test_signal(n, 42);
            let mut fast = x.clone();
            fft_in_place(&mut fast, Direction::Forward);
            let slow = dft_reference(&x, Direction::Forward);
            for (f, s) in fast.iter().zip(&slow) {
                assert!((*f - *s).norm2().sqrt() < 1e-9 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let n = 64;
        let x = test_signal(n, 7);
        let mut y = x.clone();
        fft_in_place(&mut y, Direction::Forward);
        fft_in_place(&mut y, Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            let back = b.scale(1.0 / n as f64);
            assert!((*a - back).norm2().sqrt() < 1e-12);
        }
    }

    #[test]
    fn parseval_identity() {
        let n = 256;
        let x = test_signal(n, 3);
        let time_energy: f64 = x.iter().map(|c| c.norm2()).sum();
        let mut y = x;
        fft_in_place(&mut y, Direction::Forward);
        let freq_energy: f64 = y.iter().map(|c| c.norm2()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-10 * time_energy);
    }

    #[test]
    fn impulse_becomes_flat_spectrum() {
        let n = 16;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut x, Direction::Forward);
        for c in &x {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_has_single_bin() {
        let n = 32;
        let freq = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (freq * j) as f64 / n as f64))
            .collect();
        let mut y = x;
        fft_in_place(&mut y, Direction::Forward);
        for (k, c) in y.iter().enumerate() {
            let mag = c.norm2().sqrt();
            if k == freq {
                assert!((mag - n as f64).abs() < 1e-9);
            } else {
                assert!(mag < 1e-9, "leakage at bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = test_signal(n, 1);
        let b = test_signal(n, 2);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a;
        let mut fb = b;
        let mut fs = sum;
        fft_in_place(&mut fa, Direction::Forward);
        fft_in_place(&mut fb, Direction::Forward);
        fft_in_place(&mut fs, Direction::Forward);
        for i in 0..n {
            assert!(((fa[i] + fb[i]) - fs[i]).norm2().sqrt() < 1e-10);
        }
    }

    #[test]
    fn rows_transform_independently() {
        let n = 8;
        let rows = 3;
        let mut data = test_signal(n * rows, 9);
        let expect: Vec<Complex> =
            data.chunks_exact(n).flat_map(|row| dft_reference(row, Direction::Forward)).collect();
        fft_rows(&mut data, n, Direction::Forward);
        for (a, b) in data.iter().zip(&expect) {
            assert!((*a - *b).norm2().sqrt() < 1e-9);
        }
    }

    #[test]
    fn butterfly_count_is_n_log_n() {
        let mut x = test_signal(64, 4);
        let ops = fft_in_place(&mut x, Direction::Forward);
        assert_eq!(ops, 64 / 2 * 6); // (n/2) log2(n)
    }
}
