//! Pinned-bits regression tests: the particle-mesh solver's host kernels are
//! bitwise-frozen. Every potential, field, pair count, final virtual clock,
//! message and byte count of a seeded solver world, and every per-step energy
//! and clock of a short MD world, is folded into a 64-bit FNV-1a hash and
//! compared against a committed constant. A host-side rewrite of the near
//! field, the minimum-image convention or the far-field data motion must leave
//! these hashes unchanged; a change that moves a single bit fails here.

use fcs::SolverKind;
use mdsim::{simulate, SimConfig};
use particles::systems::splitmix64;
use particles::Vec3;
use particles::{local_set, InitialDistribution, IonicCrystal, RedistMethod, SoftCore, SystemBox};
use pmsolver::{FarFieldPlan, MeshDecomp, PmConfig, PmSolver};
use simcomm::{run, CartGrid, MachineModel, RunOutput};

/// Hash of [`solver_world_hash`] with the slab FFT decomposition.
const PM_SLAB_BITS: u64 = 10450588251474724633;
/// Hash of [`solver_world_hash`] with the pencil FFT decomposition.
const PM_PENCIL_BITS: u64 = 15090170848987186556;
/// Hash of the far-field worlds in [`far_field_bits_are_pinned`].
const FAR_FIELD_BITS: u64 = 10942808430982155255;
/// Hash of the MD world in [`p2nfft_md_bits_are_pinned`].
const MD_P2NFFT_BITS: u64 = 8635135164429285551;

/// 64-bit FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn vec3(&mut self, v: Vec3) {
        (0..3).for_each(|d| self.f64(v[d]));
    }
}

/// Fold the world-level virtual numbers: final clocks and per-rank traffic.
fn hash_world<R>(h: &mut Fnv, out: &RunOutput<R>) {
    for (clock, s) in out.clocks.iter().zip(&out.stats) {
        h.f64(*clock);
        for w in [
            s.p2p_sent_msgs,
            s.p2p_sent_bytes,
            s.p2p_recv_msgs,
            s.p2p_recv_bytes,
            s.coll_ops,
            s.coll_bytes,
        ] {
            h.word(w);
        }
    }
}

/// A seeded 8-rank `PmSolver::run` world (2x2x2 grid, so every rank's ghost
/// layer wraps through the periodic boundary and its 26 neighbours alias onto
/// 7 partners), soft-core on, three runs per rank: Method A, then Method B
/// with a movement hint twice (fresh ghost plan, then a cached-plan hit).
fn solver_world_hash(pencil: bool) -> u64 {
    let p = 8;
    let l = 12.0;
    let n = 480u64;
    let bbox = SystemBox::cubic(l);
    let mut cfg = PmConfig::tuned(&bbox, 1e-3, 4.0);
    cfg.soft_core = Some(SoftCore::for_spacing(l / (n as f64).cbrt()));
    cfg.pencil = pencil;
    let out = run(p, MachineModel::juqueen_like(), move |comm| {
        let me = comm.rank() as u64;
        let mut pos = Vec::new();
        let mut charge = Vec::new();
        let mut id = Vec::new();
        for g in (me..n).step_by(p) {
            let u = |k: u64| (splitmix64(g * 3 + k + 17) >> 11) as f64 / (1u64 << 53) as f64;
            pos.push(Vec3::new(u(0) * l, u(1) * l, u(2) * l));
            charge.push(if g % 2 == 0 { 1.0 } else { -1.0 });
            id.push(g);
        }
        let mut solver = PmSolver::new(bbox, cfg.clone(), p);
        let mut words = Vec::new();
        for (method, movement) in [
            (RedistMethod::RestoreOriginal, None),
            (RedistMethod::UseChanged, Some(0.05)),
            (RedistMethod::UseChanged, Some(0.05)),
        ] {
            let o = solver.run(comm, &pos, &charge, &id, method, movement, usize::MAX);
            let mut h = Fnv::new();
            o.potential.iter().for_each(|&x| h.f64(x));
            o.field.iter().for_each(|&v| h.vec3(v));
            o.pos.iter().for_each(|&v| h.vec3(v));
            o.id.iter().for_each(|&x| h.word(x));
            o.resort_indices.iter().for_each(|&x| h.word(x));
            h.f64(o.timings.total);
            h.word(solver.last_report.near_pairs);
            h.word(solver.last_report.ghosts_received);
            words.push(h.0);
        }
        words
    });
    let mut h = Fnv::new();
    out.results.iter().flatten().for_each(|&w| h.word(w));
    hash_world(&mut h, &out);
    h.0
}

#[test]
fn pm_solver_run_bits_are_pinned() {
    assert_eq!(solver_world_hash(false), PM_SLAB_BITS, "slab decomposition");
    assert_eq!(solver_world_hash(true), PM_PENCIL_BITS, "pencil decomposition");
}

/// The far field alone at process counts with uneven mesh ranges, ranks
/// without mesh planes (slab at `P > mesh`) and windows that wrap the whole
/// mesh, in both FFT decompositions, run twice through one cache.
#[test]
fn far_field_bits_are_pinned() {
    let crystal = IonicCrystal::cubic(6, 1.0, 0.2, 9);
    let bbox = crystal.system_box();
    let mut h = Fnv::new();
    for p in [1usize, 3, 6, 12] {
        for decomp in [MeshDecomp::Slab, MeshDecomp::Pencil] {
            let crystal = crystal.clone();
            let out = run(p, MachineModel::juqueen_like(), move |comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
                let plan = FarFieldPlan {
                    mesh: 8,
                    assign_order: 3 + comm.size() % 2,
                    alpha: 6.0 / bbox.lengths.x(),
                    dims,
                    bbox,
                    decomp,
                };
                let mut cache = None;
                let mut h = Fnv::new();
                for _ in 0..2 {
                    let (phi, field) =
                        plan.execute_cached(comm, set.pos(), set.charge(), &mut cache);
                    phi.iter().for_each(|&x| h.f64(x));
                    field.iter().for_each(|&v| h.vec3(v));
                }
                h.0
            });
            out.results.iter().for_each(|&w| h.word(w));
            hash_world(&mut h, &out);
        }
    }
    assert_eq!(h.0, FAR_FIELD_BITS);
}

/// A short plancache-style MD world: P2NFFT, Method B with movement
/// exploitation and the plan cache, soft-core on, juqueen-like torus.
#[test]
fn p2nfft_md_bits_are_pinned() {
    let p = 8;
    let crystal = IonicCrystal::paper_like(8, 1);
    let bbox = crystal.system_box();
    let cfg = SimConfig {
        solver: SolverKind::P2Nfft,
        resort: true,
        exploit_movement: true,
        steps: 4,
        tolerance: 1e-2,
        dt: mdsim::suggested_dt(crystal.spacing, 1.0),
        plan_cache: true,
        ..SimConfig::default()
    };
    let out = run(p, MachineModel::juqueen_like(), move |comm| {
        let dims = CartGrid::balanced(p).dims();
        let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
        let res = simulate(comm, bbox, set, &cfg);
        let mut h = Fnv::new();
        for r in &res.records {
            for x in [r.sort, r.restore, r.resort, r.total, r.max_move, r.energy] {
                h.f64(x);
            }
        }
        h.f64(res.final_clock);
        res.final_state.pos.iter().for_each(|&v| h.vec3(v));
        h.0
    });
    let mut h = Fnv::new();
    out.results.iter().for_each(|&w| h.word(w));
    hash_world(&mut h, &out);
    assert_eq!(h.0, MD_P2NFFT_BITS);
}
