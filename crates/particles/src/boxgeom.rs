//! Periodic system-box geometry.
//!
//! The paper's library interface (`fcs_set_common`) describes the system box
//! by an offset vector and three base vectors plus per-dimension periodicity.
//! This implementation supports orthogonal (axis-aligned) boxes, which covers
//! the paper's cubic 248x248x248 benchmark system; the offset is retained so
//! boxes need not start at the origin.

use crate::vec3::Vec3;

/// An axis-aligned, optionally periodic system box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemBox {
    /// Lower corner of the box.
    pub offset: Vec3,
    /// Edge lengths (all > 0).
    pub lengths: Vec3,
    /// Per-dimension periodicity flags.
    pub periodic: [bool; 3],
}

impl SystemBox {
    /// A cube of edge `l` at the origin, periodic in all dimensions.
    pub fn cubic(l: f64) -> Self {
        assert!(l > 0.0, "box edge must be positive");
        SystemBox { offset: Vec3::ZERO, lengths: Vec3::splat(l), periodic: [true; 3] }
    }

    /// An axis-aligned box with explicit offset, lengths and periodicity.
    pub fn new(offset: Vec3, lengths: Vec3, periodic: [bool; 3]) -> Self {
        assert!(lengths.0.iter().all(|&l| l > 0.0), "box edges must be positive");
        SystemBox { offset, lengths, periodic }
    }

    /// Box volume.
    pub fn volume(&self) -> f64 {
        self.lengths.x() * self.lengths.y() * self.lengths.z()
    }

    /// Is the box periodic in every dimension?
    pub fn fully_periodic(&self) -> bool {
        self.periodic.iter().all(|&p| p)
    }

    /// Wrap a position into the box along the periodic dimensions.
    /// Non-periodic coordinates are returned unchanged.
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let mut out = p;
        for d in 0..3 {
            if self.periodic[d] {
                let l = self.lengths[d];
                let rel = (p[d] - self.offset[d]).rem_euclid(l);
                out[d] = self.offset[d] + rel;
            }
        }
        out
    }

    /// Is `p` inside the box (half-open `[offset, offset + lengths)`)?
    pub fn contains(&self, p: Vec3) -> bool {
        (0..3).all(|d| p[d] >= self.offset[d] && p[d] < self.offset[d] + self.lengths[d])
    }

    /// Minimum-image displacement `a - b` under the box's periodicity.
    ///
    /// Per periodic axis of finite length `L` the result is bitwise equal to
    /// `d - L * (d / L).round()`, computed without the division and the
    /// `round` call wherever the rounded quotient is certain:
    /// * `|d| < 0.49 L`: the quotient rounds to `±0`, so the result is
    ///   `d + 0.0` (which keeps the formula's `-0.0 → +0.0`);
    /// * `0.51 L < |d| < 1.49 L`: the quotient rounds to `±1`, so the result
    ///   is `d ∓ L`;
    /// * the bands around `0.5 L` and `1.5 L`, larger `|d|`, NaN and infinite
    ///   inputs, and infinite `L` take the formula itself.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        for k in 0..3 {
            if self.periodic[k] {
                d[k] = min_image_axis(d[k], self.lengths[k]);
            }
        }
        d
    }

    /// Minimum-image distance between `a` and `b`.
    pub fn distance(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm()
    }

    /// Normalized coordinates of `p` in `[0, 1)^3` relative to the box
    /// (after periodic wrapping; non-periodic coordinates are clamped).
    pub fn normalized(&self, p: Vec3) -> Vec3 {
        let w = self.wrap(p);
        let mut out = Vec3::ZERO;
        for d in 0..3 {
            let t = (w[d] - self.offset[d]) / self.lengths[d];
            out[d] = t.clamp(0.0, 1.0 - f64::EPSILON);
        }
        out
    }

    /// Side length of the cube a process would own if the box volume were
    /// divided evenly among `nprocs` processes.
    ///
    /// This is the quantity in the paper's sort-switch heuristic
    /// (Sect. III-B): "The total volume of the particle system is divided by
    /// the number of parallel processes and it is assumed that the resulting
    /// volume per process represents a cube shaped subdomain […] If the
    /// maximum movement of the particles is less than the side length of such
    /// a cube, then the merge-based parallel sorting method is used."
    pub fn per_process_cube_side(&self, nprocs: usize) -> f64 {
        assert!(nprocs >= 1);
        (self.volume() / nprocs as f64).cbrt()
    }
}

/// One periodic axis of [`SystemBox::min_image`]: `x - l * (x / l).round()`,
/// with the certain-quotient intervals answered without a division.
#[inline]
fn min_image_axis(x: f64, l: f64) -> f64 {
    let a = x.abs();
    if l < f64::INFINITY {
        if a < 0.49 * l {
            return x + 0.0;
        }
        if a > 0.51 * l && a < 1.49 * l {
            return if x > 0.0 { x - l } else { x + l };
        }
    }
    x - l * (x / l).round()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_into_box() {
        let b = SystemBox::cubic(10.0);
        assert_eq!(b.wrap(Vec3::new(11.0, -1.0, 25.0)), Vec3::new(1.0, 9.0, 5.0));
        assert_eq!(b.wrap(Vec3::new(3.0, 0.0, 9.999)), Vec3::new(3.0, 0.0, 9.999));
    }

    #[test]
    fn wrap_with_offset() {
        let b = SystemBox::new(Vec3::splat(-5.0), Vec3::splat(10.0), [true; 3]);
        assert_eq!(b.wrap(Vec3::new(6.0, -6.0, 0.0)), Vec3::new(-4.0, 4.0, 0.0));
        assert!(b.contains(Vec3::ZERO));
        assert!(!b.contains(Vec3::splat(5.0)));
    }

    #[test]
    fn non_periodic_dimensions_unwrapped() {
        let b = SystemBox::new(Vec3::ZERO, Vec3::splat(10.0), [true, false, true]);
        let w = b.wrap(Vec3::new(12.0, 12.0, 12.0));
        assert_eq!(w, Vec3::new(2.0, 12.0, 2.0));
    }

    #[test]
    fn min_image_shorter_across_boundary() {
        let b = SystemBox::cubic(10.0);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert!((d.x() - -1.0).abs() < 1e-12, "wraps to -1, got {}", d.x());
        assert!(
            (b.distance(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0)) - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn min_image_respects_non_periodicity() {
        let b = SystemBox::new(Vec3::ZERO, Vec3::splat(10.0), [false; 3]);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(d.x(), 9.0);
    }

    #[test]
    fn normalized_in_unit_cube() {
        let b = SystemBox::new(Vec3::splat(2.0), Vec3::splat(4.0), [true; 3]);
        let n = b.normalized(Vec3::new(2.0, 4.0, 7.0));
        assert!((n.x() - 0.0).abs() < 1e-12);
        assert!((n.y() - 0.5).abs() < 1e-12);
        assert!((n.z() - 0.25).abs() < 1e-12);
        assert!(n.z() < 1.0);
    }

    #[test]
    fn volume_and_cube_side() {
        let b = SystemBox::cubic(248.0);
        assert!((b.volume() - 248.0f64.powi(3)).abs() < 1e-6);
        let side = b.per_process_cube_side(256);
        assert!((side - (248.0f64.powi(3) / 256.0).cbrt()).abs() < 1e-9);
    }
}
