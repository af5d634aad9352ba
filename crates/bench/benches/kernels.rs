//! Micro-benchmarks of the computational kernels (real wall time, as opposed
//! to the figure harnesses' virtual time): local sorting, Morton encoding,
//! FFT, B-spline stencils, FMM expansion operators, special functions and the
//! linked-cell near field.
//!
//! Plain binary (`harness = false`); run with `cargo bench -p bench`.

use bench::microbench::bench_case;
use std::hint::black_box;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn bench_local_sort() {
    for n in [1_000usize, 100_000] {
        let keys: Vec<u64> = (0..n as u64).map(splitmix).collect();
        let vals: Vec<u64> = keys.clone();
        bench_case("local_sort", &format!("radix_u64/{n}"), || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            psort::radix_sort_by_key(&mut k, &mut v);
            k.len()
        });
        bench_case("local_sort", &format!("std_sort_by_key/{n}"), || {
            let mut pairs: Vec<(u64, u64)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            pairs.len()
        });
        // Almost sorted input: the radix early-exit pass skip.
        let sorted_keys: Vec<u64> = (0..n as u64).collect();
        bench_case("local_sort", &format!("radix_sorted_input/{n}"), || {
            let mut k = sorted_keys.clone();
            let mut v = vals.clone();
            psort::radix_sort_by_key(&mut k, &mut v);
            k.len()
        });
    }
}

fn bench_zorder() {
    let coords: Vec<(u32, u32, u32)> = (0..4096u64)
        .map(|i| {
            let h = splitmix(i);
            ((h & 0x1fffff) as u32, ((h >> 21) & 0x1fffff) as u32, ((h >> 42) & 0x1fffff) as u32)
        })
        .collect();
    bench_case("zorder", "encode_4096", || {
        let mut acc = 0u64;
        for &(x, y, z) in &coords {
            acc ^= particles::zorder::encode(x, y, z);
        }
        acc
    });
    let keys: Vec<u64> =
        coords.iter().map(|&(x, y, z)| particles::zorder::encode(x, y, z)).collect();
    bench_case("zorder", "decode_4096", || {
        let mut acc = 0u32;
        for &k in &keys {
            let (x, y, z) = particles::zorder::decode(k);
            acc ^= x ^ y ^ z;
        }
        acc
    });
}

fn bench_fft() {
    for n in [256usize, 4096] {
        let data: Vec<pmsolver::Complex> = (0..n as u64)
            .map(|i| {
                let h = splitmix(i);
                pmsolver::Complex::new(
                    (h & 0xffff) as f64 / 65536.0,
                    ((h >> 16) & 0xffff) as f64 / 65536.0,
                )
            })
            .collect();
        bench_case("fft", &format!("complex_1d/{n}"), || {
            let mut x = data.clone();
            pmsolver::fft_in_place(&mut x, pmsolver::Direction::Forward);
            x[0].re
        });
    }
}

fn bench_bspline() {
    for order in [2usize, 3, 4] {
        bench_case("bspline", &format!("stencil/{order}"), || {
            let mut w = vec![0.0; order];
            let mut acc = 0.0;
            for i in 0..1000 {
                let u = 5.0 + i as f64 * 0.137;
                pmsolver::stencil(order, u, &mut w);
                acc += w[0];
            }
            acc
        });
    }
}

fn bench_expansion_ops() {
    for order in [2usize, 4, 6] {
        let ops = fmm::ExpansionOps::new(order);
        let nc = ops.len();
        let z = particles::Vec3::new(0.5, 0.5, 0.5);
        let w = particles::Vec3::new(3.5, 0.5, 0.5);
        let mut m = vec![0.0; nc];
        ops.p2m(&mut m, z, particles::Vec3::new(0.4, 0.6, 0.5), 1.0);
        let t = ops.derivative_tensor(w - z);
        bench_case("fmm_expansion", &format!("m2l/{order}"), || {
            let mut l = vec![0.0; nc];
            ops.m2l_with_tensor(&mut l, &m, &t);
            l[0]
        });
        bench_case("fmm_expansion", &format!("derivative_tensor/{order}"), || {
            ops.derivative_tensor(w - z)[0]
        });
        bench_case("fmm_expansion", &format!("p2m/{order}"), || {
            let mut mm = vec![0.0; nc];
            for i in 0..100 {
                ops.p2m(&mut mm, z, particles::Vec3::new(0.4, 0.5 + i as f64 * 1e-3, 0.5), 1.0);
            }
            mm[0]
        });
    }
}

fn bench_special_functions() {
    bench_case("special", "erfc_1000", || {
        let mut acc = 0.0;
        for i in 0..1000 {
            acc += particles::math::erfc(i as f64 * 0.003);
        }
        acc
    });
}

/// The near field of one rank of the `md-p2nfft-bm` workload: the
/// 16-cell paper-like crystal (L = 248, 4096 ions) on a 4x4x4 grid, rank 0's
/// 62-wide subdomain with its 64 owned ions, every ion within the cutoff
/// (43.4) of it as a ghost — 670, most of them reached through the periodic
/// boundary and stored as in-box coordinates — and the soft core on. The
/// solver's ghost plan adds a thin skin on top (about 740 ghosts per rank in
/// the MD run).
fn bench_near_field() {
    use particles::{IonicCrystal, SoftCore, Vec3};
    let crystal = IonicCrystal::paper_like(16, 1);
    let bbox = crystal.system_box();
    let cfg = pmsolver::PmConfig::tuned(&bbox, 1e-2, 43.4);
    let rcut = cfg.rcut;
    let (lo, hi) = (Vec3::ZERO, Vec3::splat(62.0));
    let center = (lo + hi) * 0.5;
    let (mut pos, mut charge, mut gpos, mut gcharge) = (vec![], vec![], vec![], vec![]);
    for id in 0..crystal.n() as u64 {
        let (x, q) = crystal.particle(id);
        if (0..3).all(|d| x[d] >= lo[d] && x[d] < hi[d]) {
            pos.push(x);
            charge.push(q);
            continue;
        }
        let rel = bbox.min_image(x, center);
        let out2: f64 = (0..3).map(|d| (rel[d].abs() - 31.0).max(0.0).powi(2)).sum();
        if out2 <= rcut * rcut {
            gpos.push(x);
            gcharge.push(q);
        }
    }
    let soft_core = Some(SoftCore::for_spacing(crystal.spacing));
    let case = format!("p2nfft_bm_rank0/{}owned_{}ghosts", pos.len(), gpos.len());
    bench_case("near_field", &case, || {
        let (p, _, pairs) = pmsolver::near_field(
            &bbox,
            cfg.alpha,
            rcut,
            soft_core,
            (lo, hi),
            &pos,
            &charge,
            &gpos,
            &gcharge,
        );
        black_box((p[0], pairs))
    });
}

fn main() {
    bench_local_sort();
    bench_zorder();
    bench_fft();
    bench_bspline();
    bench_expansion_ops();
    bench_special_functions();
    bench_near_field();
}
