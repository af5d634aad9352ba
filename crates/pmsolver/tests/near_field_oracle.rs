//! Oracle tests for the cell-ordered near-field kernel.
//!
//! `linked_list_near_field` below is the textbook head/next linked-cell
//! kernel the production [`pmsolver::near_field`] replaced. It is kept here,
//! outside the library, as the reference: the production kernel must return
//! bitwise the same potentials, fields and pair counts on every input, which
//! the splitmix64 property tests check over random boxes, regions, wrapped
//! ghosts, whole-box (wrapping) regions, tiny aliasing cell grids and with
//! the soft core on and off.

use particles::math::{erfc, M_2_SQRTPI};
use particles::systems::splitmix64;
use particles::{SoftCore, SystemBox, Vec3};
use pmsolver::near_field;

/// The linked-list near-field kernel (reference implementation).
#[allow(clippy::too_many_arguments)]
fn linked_list_near_field(
    bbox: &SystemBox,
    alpha: f64,
    rcut: f64,
    soft_core: Option<particles::SoftCore>,
    region: (Vec3, Vec3),
    owned_pos: &[Vec3],
    owned_charge: &[f64],
    ghost_pos: &[Vec3],
    ghost_charge: &[f64],
) -> (Vec<f64>, Vec<Vec3>, u64) {
    let l = bbox.lengths;
    assert!(
        rcut <= 0.5 * l.x().min(l.y()).min(l.z()) + 1e-12,
        "near-field cutoff must satisfy the minimum-image condition"
    );
    let n_owned = owned_pos.len();
    let n_all = n_owned + ghost_pos.len();
    let (lo, hi) = region;
    let center = (lo + hi) * 0.5;

    // Linked cells. Along dimensions where the region covers the whole
    // (periodic) box there are no ghosts, so the cell grid itself wraps;
    // otherwise the region is expanded by rcut to hold the ghosts.
    let mut ncell = [0usize; 3];
    let mut cell_w = [0.0f64; 3];
    let mut origin = Vec3::ZERO;
    let mut wraps = [false; 3];
    for d in 0..3 {
        wraps[d] = bbox.periodic[d] && (hi[d] - lo[d]) >= l[d] - 1e-9;
        let span = if wraps[d] { hi[d] - lo[d] } else { (hi[d] - lo[d]) + 2.0 * rcut };
        ncell[d] = ((span / rcut).floor() as usize).max(1);
        cell_w[d] = span / ncell[d] as f64;
        origin[d] = if wraps[d] { lo[d] } else { lo[d] - rcut };
    }
    let cell_coords = |p: Vec3| -> [usize; 3] {
        // Localize the (possibly wrapped) position relative to the region.
        let rel = center + bbox.min_image(p, center);
        let mut c = [0usize; 3];
        for d in 0..3 {
            let x = ((rel[d] - origin[d]) / cell_w[d]).floor();
            c[d] = (x.max(0.0) as usize).min(ncell[d] - 1);
        }
        c
    };
    let cell_of = |p: Vec3| -> usize {
        let c = cell_coords(p);
        (c[0] * ncell[1] + c[1]) * ncell[2] + c[2]
    };

    // Head/next linked lists over the combined particle set. Positions and
    // charges are concatenated up front so the hot pair loop indexes flat
    // slices instead of branching between the owned and ghost halves.
    let total_cells = ncell[0] * ncell[1] * ncell[2];
    let mut head = vec![usize::MAX; total_cells];
    let mut next = vec![usize::MAX; n_all];
    let mut all_pos = Vec::with_capacity(n_all);
    all_pos.extend_from_slice(owned_pos);
    all_pos.extend_from_slice(ghost_pos);
    let mut all_charge = Vec::with_capacity(n_all);
    all_charge.extend_from_slice(owned_charge);
    all_charge.extend_from_slice(ghost_charge);
    // Cell of every owned particle, remembered from the list build so the
    // interaction loop does not recompute `cell_coords` (a min-image call).
    let mut owned_cell = vec![0usize; n_owned];
    for (i, nx) in next.iter_mut().enumerate() {
        let c = cell_of(all_pos[i]);
        if i < n_owned {
            owned_cell[i] = c;
        }
        *nx = head[c];
        head[c] = i;
    }

    // Neighbour stencil per *cell*, not per particle: every particle in a
    // cell visits the same distinct neighbouring cells (wrapped dimensions
    // may alias several offsets onto the same cell on tiny grids), so the
    // sorted, deduplicated visit lists are built once for each cell. Flat
    // arena + offsets; `visits[c]` is `arena[offs[c]..offs[c + 1]]`.
    let mut visit_arena: Vec<usize> = Vec::with_capacity(total_cells * 27);
    let mut visit_offs: Vec<usize> = Vec::with_capacity(total_cells + 1);
    visit_offs.push(0);
    for c0 in 0..ncell[0] {
        for c1 in 0..ncell[1] {
            for c2 in 0..ncell[2] {
                let ci = [c0, c1, c2];
                let start = visit_arena.len();
                for dx in -1..=1i64 {
                    for dy in -1..=1i64 {
                        for dz in -1..=1i64 {
                            let mut c = [0usize; 3];
                            let mut ok = true;
                            for (d, dd) in [dx, dy, dz].into_iter().enumerate() {
                                let raw = ci[d] as i64 + dd;
                                if wraps[d] {
                                    c[d] = raw.rem_euclid(ncell[d] as i64) as usize;
                                } else if raw < 0 || raw >= ncell[d] as i64 {
                                    ok = false;
                                    break;
                                } else {
                                    c[d] = raw as usize;
                                }
                            }
                            if ok {
                                visit_arena.push((c[0] * ncell[1] + c[1]) * ncell[2] + c[2]);
                            }
                        }
                    }
                }
                visit_arena[start..].sort_unstable();
                let mut w = start;
                for r in start..visit_arena.len() {
                    if r == start || visit_arena[r] != visit_arena[w - 1] {
                        visit_arena[w] = visit_arena[r];
                        w += 1;
                    }
                }
                visit_arena.truncate(w);
                visit_offs.push(w);
            }
        }
    }

    let rcut2 = rcut * rcut;
    let mut potential = vec![0.0; n_owned];
    let mut field = vec![Vec3::ZERO; n_owned];
    let mut pairs = 0u64;
    for i in 0..n_owned {
        let pi = owned_pos[i];
        let ci = owned_cell[i];
        // One reciprocal per receiver instead of two divides per pair in the
        // soft-core branch below.
        let inv_qi = soft_core.as_ref().map(|core| (core.epsilon / owned_charge[i], core.sigma));
        for &cell in &visit_arena[visit_offs[ci]..visit_offs[ci + 1]] {
            let mut j = head[cell];
            while j != usize::MAX {
                if j != i {
                    let d = bbox.min_image(pi, all_pos[j]);
                    let r2 = d.norm2();
                    if r2 <= rcut2 && r2 > 0.0 {
                        let r = r2.sqrt();
                        let inv_r = 1.0 / r;
                        let inv_r2 = inv_r * inv_r;
                        let qj = all_charge[j];
                        let e = erfc(alpha * r) * inv_r;
                        let de = (e + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp()) * inv_r2;
                        potential[i] += qj * e;
                        field[i] += d * (qj * de);
                        if let Some((eps_qi, sigma)) = inv_qi {
                            // Pair repulsion folded into the potential/field
                            // channels (divided by the receiving charge so
                            // 0.5*q*phi and q*E give pair energy and force).
                            let s2 = (sigma * inv_r) * (sigma * inv_r);
                            let s6 = s2 * s2 * s2;
                            let u = eps_qi * s6 * s6;
                            potential[i] += u;
                            field[i] += d * (12.0 * u * inv_r2);
                        }
                        pairs += 1;
                    }
                }
                j = next[j];
            }
        }
    }
    (potential, field, pairs)
}

/// Deterministic generator for test case construction.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n.max(1)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One near-field input: box, cutoff, region and the owned/ghost sets.
struct Case {
    bbox: SystemBox,
    alpha: f64,
    rcut: f64,
    soft_core: Option<SoftCore>,
    region: (Vec3, Vec3),
    owned_pos: Vec<Vec3>,
    owned_charge: Vec<f64>,
    ghost_pos: Vec<Vec3>,
    ghost_charge: Vec<f64>,
}

impl Case {
    /// A random case: a rank's cell of a random process grid over a random
    /// box, its owned particles, and ghosts from a skin around it, stored
    /// either as in-box (wrapped) coordinates or as periodic images.
    /// `tight` pushes the cutoff to the minimum-image limit, where the
    /// wrapping cell grids shrink to one or two cells and alias.
    fn random(g: &mut Gen, tight: bool) -> Case {
        let periodic = [true, true, g.below(4) != 0];
        let l0 = 4.0 + 8.0 * g.unit();
        let lengths = Vec3::new(l0, l0 * (0.8 + 0.4 * g.unit()), l0 * (0.8 + 0.4 * g.unit()));
        let offset = if g.below(2) == 0 { Vec3::ZERO } else { Vec3::splat(-0.5 * l0) };
        let bbox = SystemBox::new(offset, lengths, periodic);
        let lmin = lengths.x().min(lengths.y()).min(lengths.z());
        let mut dims = [0usize; 3];
        for (d, dim) in dims.iter_mut().enumerate() {
            // One rank along an axis makes the region cover the whole box
            // (a wrapping cell grid when the axis is periodic).
            *dim = if periodic[d] { 1 + g.below(4) as usize } else { 1 };
        }
        let width = (0..3).map(|d| lengths[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
        let rcut = if tight {
            0.5 * lmin * (1.0 + 1e-13)
        } else {
            (0.5 * lmin).min(width) * (0.3 + 0.7 * g.unit())
        };
        let me: Vec<usize> = dims.iter().map(|&n| g.below(n as u64) as usize).collect();
        let mut lo = Vec3::ZERO;
        let mut hi = Vec3::ZERO;
        for d in 0..3 {
            let w = lengths[d] / dims[d] as f64;
            lo[d] = offset[d] + me[d] as f64 * w;
            hi[d] = if me[d] + 1 == dims[d] { offset[d] + lengths[d] } else { lo[d] + w };
        }
        let skin = rcut * 0.3 * g.unit();
        let soft_core =
            (g.below(2) == 0).then(|| SoftCore { epsilon: 0.5 + g.unit(), sigma: 0.2 * rcut });
        let n = 40 + g.below(260) as usize;
        let mut owned_pos = Vec::new();
        let mut owned_charge = Vec::new();
        let mut ghost_pos = Vec::new();
        let mut ghost_charge = Vec::new();
        let wrapped_images = g.below(2) == 0;
        let mut prev = Vec3::ZERO;
        for k in 0..n {
            let mut p = Vec3::ZERO;
            for d in 0..3 {
                p[d] = offset[d] + lengths[d] * g.unit();
            }
            // Occasional exact duplicates (r = 0 pairs) and points exactly
            // on the region boundary.
            match g.below(16) {
                0 if k > 0 => p = prev,
                1 => p[0] = lo[0],
                2 => p[1] = hi[1] - 1e-15 * lengths[1],
                _ => {}
            }
            prev = p;
            let q = if g.below(2) == 0 { 1.0 } else { -1.0 } * (0.5 + g.unit());
            if (0..3).all(|d| p[d] >= lo[d] && p[d] < hi[d]) {
                owned_pos.push(p);
                owned_charge.push(q);
                continue;
            }
            // Ghost if within rcut + skin of the region under minimum image.
            let c = (lo + hi) * 0.5;
            let rel = bbox.min_image(p, c);
            let mut dist2 = 0.0;
            for d in 0..3 {
                let half = 0.5 * (hi[d] - lo[d]);
                let out = (rel[d].abs() - half).max(0.0);
                dist2 += out * out;
            }
            if dist2 <= (rcut + skin) * (rcut + skin) {
                ghost_pos.push(if wrapped_images { c + rel } else { p });
                ghost_charge.push(q);
            }
        }
        Case {
            bbox,
            alpha: (1.0 + 2.0 * g.unit()) / rcut,
            rcut,
            soft_core,
            region: (lo, hi),
            owned_pos,
            owned_charge,
            ghost_pos,
            ghost_charge,
        }
    }

    /// Run both kernels and require bitwise-equal results; returns the pair
    /// count.
    fn check(&self, what: &str) -> u64 {
        let (pot, field, pairs) = near_field(
            &self.bbox,
            self.alpha,
            self.rcut,
            self.soft_core,
            self.region,
            &self.owned_pos,
            &self.owned_charge,
            &self.ghost_pos,
            &self.ghost_charge,
        );
        let (wpot, wfield, wpairs) = linked_list_near_field(
            &self.bbox,
            self.alpha,
            self.rcut,
            self.soft_core,
            self.region,
            &self.owned_pos,
            &self.owned_charge,
            &self.ghost_pos,
            &self.ghost_charge,
        );
        assert_eq!(pairs, wpairs, "{what}: pair count");
        assert_eq!(pot.len(), wpot.len(), "{what}: receivers");
        for i in 0..pot.len() {
            assert_eq!(pot[i].to_bits(), wpot[i].to_bits(), "{what}: potential of owned {i}");
            for d in 0..3 {
                assert_eq!(
                    field[i][d].to_bits(),
                    wfield[i][d].to_bits(),
                    "{what}: field[{d}] of owned {i}"
                );
            }
        }
        pairs
    }
}

#[test]
fn cell_ordered_kernel_matches_linked_list_bitwise() {
    let mut total_pairs = 0;
    for seed in 0..200u64 {
        let mut g = Gen::new(seed);
        total_pairs += Case::random(&mut g, false).check(&format!("seed {seed}"));
    }
    assert!(total_pairs > 10_000, "cases too sparse to exercise the kernel: {total_pairs}");
}

#[test]
fn aliasing_cell_grids_match_linked_list_bitwise() {
    // Cutoff at the minimum-image limit: wrapping axes get one or two cells,
    // so the 27 stencil offsets alias onto few cells.
    for seed in 0..60u64 {
        let mut g = Gen::new(1000 + seed);
        Case::random(&mut g, true).check(&format!("tight seed {seed}"));
    }
}

#[test]
fn whole_box_region_without_ghosts_matches_linked_list_bitwise() {
    for seed in 0..40u64 {
        let mut g = Gen::new(5000 + seed);
        let l = 3.0 + 6.0 * g.unit();
        let n = 20 + g.below(200) as usize;
        let pos: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(l * g.unit(), l * g.unit(), l * g.unit())).collect();
        let charge: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let rcut = 0.5 * l * (0.2 + 0.8 * g.unit());
        Case {
            bbox: SystemBox::cubic(l),
            alpha: 2.0 / rcut,
            rcut,
            soft_core: (seed % 2 == 0).then(|| SoftCore::for_spacing(l / (n as f64).cbrt())),
            region: (Vec3::ZERO, Vec3::splat(l)),
            owned_pos: pos,
            owned_charge: charge,
            ghost_pos: Vec::new(),
            ghost_charge: Vec::new(),
        }
        .check(&format!("whole box seed {seed}"));
    }
}
