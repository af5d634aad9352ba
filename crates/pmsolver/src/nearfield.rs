//! Real-space (near-field) part of the particle-mesh Ewald solver: the
//! erfc-screened Coulomb interactions of all pairs within the cutoff radius,
//! evaluated with a linked-cell algorithm over the local subdomain plus ghost
//! particles (paper Sect. II-C: "computations are performed with a linked
//! cell algorithm that sorts all particles into boxes of size of the cutoff
//! radius").

use particles::math::{erfc, M_2_SQRTPI};
use particles::{SystemBox, Vec3};

/// Compute near-field potentials and fields for `owned` particles; `ghosts`
/// contribute as sources only. Returns per-owned-particle `(potential,
/// field)` plus the number of pair interactions evaluated (for work
/// accounting).
///
/// Positions may be periodic images; all displacements go through the
/// minimum-image convention, which is exact as long as `rcut` is at most half
/// the shortest box edge.
///
/// Layout: owned and ghost particles are binned into linked cells of at least
/// `rcut` and copied once into cell-ordered contiguous arrays. Within a cell
/// the particles sit in descending combined index (owned particles are
/// numbered first, ghosts after them), which is the visit order of a
/// head/next linked list built by ascending insertion. Every receiver walks its cell's sorted,
/// deduplicated neighbour-cell list, so its pairs are accumulated in exactly
/// the linked-list order and the results are bitwise those of the textbook
/// kernel. Each cell is cut into chunks of consecutive slots; a chunk
/// whose members all share one minimum-image band per axis is handled with
/// one precomputed image shift, and skipped whole when its bounds lie beyond
/// the cutoff (see `Images::shift`); any other chunk takes `min_image` per
/// member.
#[allow(clippy::too_many_arguments)]
pub fn near_field(
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
    let total_cells = ncell[0] * ncell[1] * ncell[2];
    let pos_at = |i: usize| if i < n_owned { owned_pos[i] } else { ghost_pos[i - n_owned] };
    let charge_at =
        |i: usize| if i < n_owned { owned_charge[i] } else { ghost_charge[i - n_owned] };

    // Cell of every particle (from its position localized to the region),
    // then a counting sort into cell-ordered slots, descending combined
    // index within a cell.
    let mut cell_of = Vec::with_capacity(n_all);
    let mut cell_start = vec![0usize; total_cells + 1];
    for i in 0..n_all {
        let rel = center + bbox.min_image(pos_at(i), center);
        let mut c = [0usize; 3];
        for d in 0..3 {
            let x = ((rel[d] - origin[d]) / cell_w[d]).floor();
            c[d] = (x.max(0.0) as usize).min(ncell[d] - 1);
        }
        let cell = (c[0] * ncell[1] + c[1]) * ncell[2] + c[2];
        cell_of.push(cell);
        cell_start[cell + 1] += 1;
    }
    for c in 0..total_cells {
        cell_start[c + 1] += cell_start[c];
    }
    let mut fill = cell_start[..total_cells].to_vec();
    let mut pos = vec![Vec3::ZERO; n_all];
    let mut charge = vec![0.0f64; n_all];
    for i in (0..n_all).rev() {
        let s = &mut fill[cell_of[i]];
        pos[*s] = pos_at(i);
        charge[*s] = charge_at(i);
        *s += 1;
    }
    // Chunks of consecutive slots within a cell with the bounds of their
    // raw positions; `chunks[chunk_off[c]..chunk_off[c + 1]]` tile cell c.
    let mut chunks: Vec<Chunk> = Vec::with_capacity(n_all / CHUNK + total_cells);
    let mut chunk_off = Vec::with_capacity(total_cells + 1);
    chunk_off.push(0);
    for c in 0..total_cells {
        let mut start = cell_start[c];
        while start < cell_start[c + 1] {
            let end = (start + CHUNK).min(cell_start[c + 1]);
            let mut lo = pos[start];
            let mut hi = pos[start];
            for p in &pos[start + 1..end] {
                for d in 0..3 {
                    lo[d] = lo[d].min(p[d]);
                    hi[d] = hi[d].max(p[d]);
                }
            }
            chunks.push(Chunk { start, end, lo, hi });
            start = end;
        }
        chunk_off.push(chunks.len());
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

    let images = Images::new(bbox);
    let rcut2 = rcut * rcut;
    let mut potential = vec![0.0; n_owned];
    let mut field = vec![Vec3::ZERO; n_owned];
    let mut pairs = 0u64;
    let mut within: Vec<(Vec3, f64, f64)> = Vec::with_capacity(n_all);
    for i in 0..n_owned {
        let pi = owned_pos[i];
        // One reciprocal per receiver instead of two divides per pair in the
        // soft-core branch below.
        let inv_qi = soft_core.as_ref().map(|core| (core.epsilon / owned_charge[i], core.sigma));
        // Two passes per receiver: collect the pairs within the cutoff, in
        // visit order, then evaluate them. The evaluation loop has no
        // data-dependent branch, so the CPU overlaps consecutive pairs'
        // `erfc`/`exp` chains; the accumulation order is the visit order
        // either way.
        within.clear();
        let mut keep = |d: Vec3, qj: f64| {
            let r2 = d.norm2();
            if r2 <= rcut2 && r2 > 0.0 {
                within.push((d, r2, qj));
            }
        };
        // The receiver itself is visited too: its displacement is zero (or
        // NaN), which the `r2 > 0` test rejects exactly as the linked-list
        // kernel's explicit self check did.
        let ci = cell_of[i];
        for &cell in &visit_arena[visit_offs[ci]..visit_offs[ci + 1]] {
            for ch in &chunks[chunk_off[cell]..chunk_off[cell + 1]] {
                let slots = ch.start..ch.end;
                match images.shift(pi, ch) {
                    Some((t, gap2)) => {
                        if gap2 > rcut2 {
                            continue;
                        }
                        for (pj, &qj) in pos[slots.clone()].iter().zip(&charge[slots]) {
                            keep((pi - *pj) + t, qj);
                        }
                    }
                    None => {
                        for (pj, &qj) in pos[slots.clone()].iter().zip(&charge[slots]) {
                            keep(bbox.min_image(pi, *pj), qj);
                        }
                    }
                }
            }
        }
        let mut pot_i = 0.0;
        let mut field_i = Vec3::ZERO;
        for &(d, r2, qj) in &within {
            let r = r2.sqrt();
            let inv_r = 1.0 / r;
            let inv_r2 = inv_r * inv_r;
            let e = erfc(alpha * r) * inv_r;
            let de = (e + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp()) * inv_r2;
            pot_i += qj * e;
            field_i += d * (qj * de);
            if let Some((eps_qi, sigma)) = inv_qi {
                // Pair repulsion folded into the potential/field channels
                // (divided by the receiving charge so 0.5*q*phi and q*E give
                // pair energy and force).
                let s2 = (sigma * inv_r) * (sigma * inv_r);
                let s6 = s2 * s2 * s2;
                let u = eps_qi * s6 * s6;
                pot_i += u;
                field_i += d * (12.0 * u * inv_r2);
            }
        }
        pairs += within.len() as u64;
        potential[i] = pot_i;
        field[i] = field_i;
    }
    (potential, field, pairs)
}

/// Consecutive cell slots per [`Chunk`]: the unit of the receiver-side
/// image classification and skip test.
const CHUNK: usize = 8;

/// A run of consecutive slots of one cell with the bounds of their raw
/// (unwrapped, as passed in) positions.
struct Chunk {
    start: usize,
    end: usize,
    lo: Vec3,
    hi: Vec3,
}

/// One axis of [`SystemBox::min_image`], as [`Images::shift`] sees it.
#[derive(Clone, Copy)]
enum Axis {
    /// Non-periodic: the displacement is used as is.
    Open,
    /// Periodic with finite length `l`; the band edges `0.49 l`, `0.51 l`
    /// and `1.49 l` exactly as `min_image` computes them.
    Periodic { l: f64, near: f64, mid_lo: f64, mid_hi: f64 },
    /// Periodic with an infinite or NaN length: never classified.
    Unbounded,
}

/// The three axes of the box, for chunk-wise image classification.
struct Images([Axis; 3]);

impl Images {
    fn new(bbox: &SystemBox) -> Images {
        Images(std::array::from_fn(|d| {
            let l = bbox.lengths[d];
            if !bbox.periodic[d] {
                Axis::Open
            } else if l < f64::INFINITY {
                Axis::Periodic { l, near: 0.49 * l, mid_lo: 0.51 * l, mid_hi: 1.49 * l }
            } else {
                Axis::Unbounded
            }
        }))
    }

    /// The image shift `t` for which `(pi - pj) + t` is bitwise
    /// `min_image(pi, pj)` for *every* `pj` in the chunk, plus a lower bound
    /// of the squared distance over the chunk; `None` when some axis's
    /// minimum-image band is not the same for the whole chunk.
    ///
    /// Rounding is monotone, so `fl(pi - pj)` lies in `[fl(pi - hi),
    /// fl(pi - lo)]`. When that interval sits strictly inside one band of
    /// [`SystemBox::min_image`] — `|d| < 0.49 L` (shift `+0.0`), `0.51 L < d
    /// < 1.49 L` (shift `-L`) or its mirror (shift `+L`) — the fast path of
    /// `min_image` takes that branch for every member. A non-periodic axis
    /// adds `-0.0`, which leaves every value unchanged. The bound is the
    /// shifted interval's distance from zero, squared and summed in
    /// `norm2`'s order, so `bound > rcut²` implies `r2 > rcut²` for every
    /// member exactly, with no margin.
    #[inline]
    fn shift(&self, pi: Vec3, ch: &Chunk) -> Option<(Vec3, f64)> {
        let mut t = Vec3::ZERO;
        let mut gap = Vec3::ZERO;
        for d in 0..3 {
            let dlo = pi[d] - ch.hi[d];
            let dhi = pi[d] - ch.lo[d];
            t[d] = match self.0[d] {
                Axis::Open => -0.0,
                Axis::Periodic { l, near, mid_lo, mid_hi } => {
                    if dlo > -near && dhi < near {
                        0.0
                    } else if dlo > mid_lo && dhi < mid_hi {
                        -l
                    } else if dlo > -mid_hi && dhi < -mid_lo {
                        l
                    } else {
                        return None;
                    }
                }
                Axis::Unbounded => return None,
            };
            gap[d] = (dlo + t[d]).max(-(dhi + t[d])).max(0.0);
        }
        Some((t, gap.norm2()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(
        bbox: &SystemBox,
        alpha: f64,
        rcut: f64,
        owned: &[(Vec3, f64)],
        all: &[(Vec3, f64)],
    ) -> (Vec<f64>, Vec<Vec3>) {
        let mut pot = vec![0.0; owned.len()];
        let mut field = vec![Vec3::ZERO; owned.len()];
        for (i, &(pi, _)) in owned.iter().enumerate() {
            for &(pj, qj) in all {
                let d = bbox.min_image(pi, pj);
                let r2 = d.norm2();
                if r2 == 0.0 || r2 > rcut * rcut {
                    continue;
                }
                let r = r2.sqrt();
                let e = erfc(alpha * r) / r;
                let de = e / r2 + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp() / r2;
                pot[i] += qj * e;
                field[i] += d * (qj * de);
            }
        }
        (pot, field)
    }

    fn hash_pos(i: u64, l: f64) -> Vec3 {
        let h = |x: u64| -> f64 {
            let mut v = x.wrapping_mul(0x9e3779b97f4a7c15);
            v ^= v >> 29;
            v = v.wrapping_mul(0xbf58476d1ce4e5b9);
            (v >> 11) as f64 / (1u64 << 53) as f64 * l
        };
        Vec3::new(h(i * 3 + 1), h(i * 3 + 2), h(i * 3 + 3))
    }

    #[test]
    fn linked_cells_match_brute_force() {
        let bbox = SystemBox::cubic(10.0);
        let alpha = 0.8;
        let rcut = 2.5;
        // Owned region: half the box; ghosts everywhere else (as sources).
        let region = (Vec3::ZERO, Vec3::new(5.0, 10.0, 10.0));
        let mut owned = Vec::new();
        let mut ghosts = Vec::new();
        for i in 0..300u64 {
            let p = hash_pos(i, 10.0);
            let q = if i % 2 == 0 { 1.0 } else { -1.0 };
            if p.x() < 5.0 {
                owned.push((p, q));
            } else {
                ghosts.push((p, q));
            }
        }
        let (op, oq): (Vec<Vec3>, Vec<f64>) = owned.iter().cloned().unzip();
        let (gp, gq): (Vec<Vec3>, Vec<f64>) = ghosts.iter().cloned().unzip();
        let (pot, field, pairs) = near_field(&bbox, alpha, rcut, None, region, &op, &oq, &gp, &gq);
        let all: Vec<(Vec3, f64)> = owned.iter().chain(&ghosts).cloned().collect();
        let (wpot, wfield) = brute_force(&bbox, alpha, rcut, &owned, &all);
        assert!(pairs > 0);
        for i in 0..owned.len() {
            assert!(
                (pot[i] - wpot[i]).abs() < 1e-12 * wpot[i].abs().max(1.0),
                "i={i}: {a} vs {b}",
                a = pot[i],
                b = wpot[i]
            );
            assert!((field[i] - wfield[i]).norm() < 1e-12);
        }
    }

    #[test]
    fn wrapped_pairs_are_found() {
        // Two particles across the periodic boundary, within rcut.
        let bbox = SystemBox::cubic(10.0);
        let region = (Vec3::ZERO, Vec3::splat(10.0));
        let pos = vec![Vec3::new(0.2, 5.0, 5.0), Vec3::new(9.9, 5.0, 5.0)];
        let charge = vec![1.0, 1.0];
        let (pot, _, pairs) = near_field(&bbox, 0.5, 2.0, None, region, &pos, &charge, &[], &[]);
        assert_eq!(pairs, 2);
        let r = 0.3;
        let want = erfc(0.5 * r) / r;
        assert!((pot[0] - want).abs() < 1e-12);
        assert!((pot[1] - want).abs() < 1e-12);
    }

    #[test]
    fn pairs_beyond_cutoff_ignored() {
        let bbox = SystemBox::cubic(20.0);
        let region = (Vec3::ZERO, Vec3::splat(20.0));
        let pos = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(9.0, 9.0, 9.0)];
        let charge = vec![1.0, -1.0];
        let (pot, field, pairs) =
            near_field(&bbox, 0.5, 3.0, None, region, &pos, &charge, &[], &[]);
        assert_eq!(pairs, 0);
        assert!(pot.iter().all(|&p| p == 0.0));
        assert!(field.iter().all(|f| f.norm() == 0.0));
    }

    #[test]
    fn ghost_only_sources_do_not_receive() {
        let bbox = SystemBox::cubic(10.0);
        let region = (Vec3::ZERO, Vec3::splat(5.0));
        let op = vec![Vec3::new(2.0, 2.0, 2.0)];
        let oq = vec![1.0];
        let gp = vec![Vec3::new(2.5, 2.0, 2.0)];
        let gq = vec![-1.0];
        let (pot, _, pairs) = near_field(&bbox, 1.0, 2.0, None, region, &op, &oq, &gp, &gq);
        assert_eq!(pot.len(), 1, "ghosts must not receive results");
        assert_eq!(pairs, 1);
        assert!(pot[0] < 0.0);
    }
}
