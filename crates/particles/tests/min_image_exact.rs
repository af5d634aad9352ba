//! `SystemBox::min_image` answers most displacements without a division;
//! this property test pins it bitwise to the textbook formula
//! `d - L * (d / L).round()` on every periodic axis, and to `d` itself on a
//! non-periodic one, including the sign of zero. Displacements are drawn
//! from a splitmix64 stream and from the band edges the fast path keys on:
//! exactly ±0.49, ±0.5, ±0.51, ±1.49 and ±1.5 box lengths and their
//! floating-point neighbours, ±0.0, subnormals, NaN and ±infinity.

use particles::systems::splitmix64;
use particles::{SystemBox, Vec3};

/// The minimum-image formula the fast path must reproduce.
fn reference(bbox: &SystemBox, a: Vec3, b: Vec3) -> Vec3 {
    let mut d = a - b;
    for k in 0..3 {
        if bbox.periodic[k] {
            let l = bbox.lengths[k];
            d[k] -= l * (d[k] / l).round();
        }
    }
    d
}

fn assert_same(bbox: &SystemBox, a: Vec3, b: Vec3) {
    let got = bbox.min_image(a, b);
    let want = reference(bbox, a, b);
    for k in 0..3 {
        let same = got[k].to_bits() == want[k].to_bits() || (got[k].is_nan() && want[k].is_nan());
        assert!(
            same,
            "axis {k}: min_image({a:?}, {b:?}) in {bbox:?} = {} ({:#x}), formula {} ({:#x})",
            got[k],
            got[k].to_bits(),
            want[k],
            want[k].to_bits()
        );
    }
}

/// The next representable values below and above `x`.
fn neighbours(x: f64) -> [f64; 2] {
    [x.next_down(), x.next_up()]
}

/// Displacements on and next to every band edge of a box of length `l`.
fn edge_displacements(l: f64) -> Vec<f64> {
    let mut out = vec![0.0, -0.0, f64::MIN_POSITIVE, 5e-324, -5e-324, 1e-310, -1e-310];
    out.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]);
    for f in [0.49, 0.5, 0.51, 1.49, 1.5, 1.0, 2.0, 2.5, 3.7] {
        for x in [f * l, -(f * l)] {
            out.push(x);
            out.extend(neighbours(x));
        }
    }
    out
}

#[test]
fn min_image_matches_round_formula_on_band_edges() {
    let lengths = [1.0, 10.0, 248.0, 0.3, 1e-300, 3e300, 7.0e-310, 5e-324, f64::INFINITY];
    for &l in &lengths {
        for periodic in [[true, true, true], [false, true, false]] {
            let bbox = SystemBox { offset: Vec3::ZERO, lengths: Vec3::splat(l), periodic };
            for &d in &edge_displacements(l) {
                // `d - 0.0` is `d` for every d, -0.0 included.
                assert_same(&bbox, Vec3::new(d, -d, d), Vec3::ZERO);
                // The same displacement between offset positions.
                let b = Vec3::splat(0.25 * l);
                assert_same(&bbox, b + Vec3::splat(d), b);
            }
        }
    }
}

#[test]
fn min_image_matches_round_formula_on_random_displacements() {
    let mut state = 17u64;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    for _ in 0..20_000 {
        let l = 0.1 + 500.0 * ((next() >> 11) as f64 / (1u64 << 53) as f64);
        let periodic = [next() % 4 != 0, next() % 4 != 0, next() % 4 != 0];
        let bbox =
            SystemBox { offset: Vec3::ZERO, lengths: Vec3::new(l, 0.7 * l, 1.3 * l), periodic };
        let mut a = Vec3::ZERO;
        let mut b = Vec3::ZERO;
        for k in 0..3 {
            // Positions anywhere in (-2L, 2L): covers both bands and both
            // slow-path windows; a random bit pattern now and then covers
            // the extremes.
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let v = (next() >> 11) as f64 / (1u64 << 53) as f64;
            a[k] = (4.0 * u - 2.0) * bbox.lengths[k];
            b[k] = (4.0 * v - 2.0) * bbox.lengths[k];
            if next() % 64 == 0 {
                a[k] = f64::from_bits(next());
            }
        }
        assert_same(&bbox, a, b);
    }
}
