//! Per-layer host probes for the traced mode.
//!
//! A probe calls one layer's public entry point on the workload's own step-0
//! inputs, world size and machine model, inside a probe world of its own.
//! Each call is bracketed by barriers, so rank 0's host interval covers the
//! call on every rank; the allocation count over that interval covers all
//! rank threads.
//!
//! The FMM, `psort`'s partition sort and the `atasp` restore direction
//! (Method A) do not run in the timed MD world; they are probed here so that
//! every layer is measured. The FMM runs in a second probe world of its own,
//! whose phase table then holds only its phases.

use std::time::{Duration, Instant};

use fcs::{Fcs, SolverKind};
use fmm::{FmmConfig, FmmSolver};
use particles::{zorder, PlaneSet, RedistMethod, SoftCore, Vec3};
use pmsolver::{PmConfig, PmSolver};
use simcomm::{CartGrid, Comm, Engine, MachineModel, Runner, WorldError};

use crate::md::{MdInputs, TOLERANCE};
use crate::world::Virtual;

/// Calls per probe; the median is reported.
const REPS: usize = 3;

/// Host samples of one probed entry point, as seen from rank 0.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Metric stem, e.g. `psort.sort`.
    pub name: &'static str,
    /// Host seconds of each call.
    pub secs: Vec<f64>,
    /// Heap allocations of each call, all threads.
    pub allocs: Vec<u64>,
    /// Host interval of each call.
    pub intervals: Vec<(Instant, Instant)>,
}

/// Everything the probe worlds report.
pub struct ProbeOut {
    /// Rank 0's probes of both worlds.
    pub probes: Vec<Probe>,
    /// The FMM probe world's virtual figures, per `FmmSolver::run` call.
    pub fmm: Virtual,
}

/// Per-rank probe recorder: `call` runs `f` once between barriers and keeps
/// rank 0's interval and allocation count.
struct Recorder {
    rank0: bool,
    probes: Vec<Probe>,
}

impl Recorder {
    fn call<R>(
        &mut self,
        comm: &mut Comm,
        name: &'static str,
        f: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        comm.barrier();
        let a0 = crate::alloc::allocs();
        let t0 = Instant::now();
        let out = std::hint::black_box(f(comm));
        comm.barrier();
        let t1 = Instant::now();
        let allocs = crate::alloc::allocs() - a0;
        if self.rank0 {
            let i = match self.probes.iter().position(|p| p.name == name) {
                Some(i) => i,
                None => {
                    let p = Probe { name, secs: vec![], allocs: vec![], intervals: vec![] };
                    self.probes.push(p);
                    self.probes.len() - 1
                }
            };
            let p = &mut self.probes[i];
            p.secs.push((t1 - t0).as_secs_f64());
            p.allocs.push(allocs);
            p.intervals.push((t0, t1));
        }
        out
    }
}

/// Run every probe of the MD workload, in two probe worlds.
pub fn md_probes(inputs: &MdInputs, deadline: Duration) -> Result<ProbeOut, WorldError> {
    let runner = Runner::new(Engine::default()).deadline(Some(deadline));
    let p = inputs.ranks.len();
    let n_total: usize = inputs.ranks.iter().map(|s| s.pos.len()).sum();
    let bbox = inputs.bbox;
    let spacing = (bbox.volume() / n_total as f64).cbrt();
    let core = SoftCore::for_spacing(spacing);
    let max_local = ((inputs.cfg.capacity_factor * n_total as f64 / p as f64) as usize).max(64);
    let fmm_cfg =
        FmmConfig { soft_core: Some(core), ..FmmConfig::tuned(n_total as u64, TOLERANCE) };
    let out = runner.try_run(p, MachineModel::juqueen_like(), |comm| {
        let st = &inputs.ranks[comm.rank()];
        let mut rec = Recorder { rank0: comm.rank() == 0, probes: Vec::new() };

        // psort: both parallel sorts over Z-order keys of the step-0
        // positions, at the level the FMM tunes for this system.
        let level = fmm_cfg.level;
        let keys: Vec<u64> = st
            .pos
            .iter()
            .map(|x| {
                let t: [f64; 3] =
                    std::array::from_fn(|d| (x[d] - bbox.offset[d]) / bbox.lengths[d]);
                zorder::key_of_normalized(t, level)
            })
            .collect();
        for _ in 0..REPS {
            let (k, v) = (keys.clone(), st.id.clone());
            rec.call(comm, "psort.sort", |c| psort::merge_exchange_sort_by_key(c, k, v).0.len());
        }
        for _ in 0..REPS {
            let (k, v) = (keys.clone(), st.id.clone());
            rec.call(comm, "psort.partition", |c| psort::partition_sort_by_key(c, k, v).0.len());
        }

        // The solver itself, configured as `Fcs::tune` configures it.
        let l = bbox.lengths;
        let dims = CartGrid::balanced(p).dims();
        let min_width = (0..3).map(|d| l[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
        let rcut = (2.8 * spacing).min(0.49 * l.x().min(l.y()).min(l.z())).min(min_width);
        let mut cfg = PmConfig::tuned(&bbox, TOLERANCE, rcut);
        cfg.soft_core = Some(core);
        let mut s = PmSolver::new(bbox, cfg, p);
        for _ in 0..REPS {
            rec.call(comm, "pmsolver.run", |c| {
                s.run(c, &st.pos, &st.charge, &st.id, RedistMethod::UseChanged, None, max_local)
                    .pos
                    .len()
            });
        }

        // The coupling interface: tune, run, and the Method B resort of the
        // application's velocities and accelerations.
        let mut h = Fcs::init(SolverKind::P2Nfft, p);
        h.set_common(bbox);
        h.set_tolerance(TOLERANCE);
        h.set_resort(true);
        h.set_soft_core(Some(core));
        for _ in 0..REPS {
            rec.call(comm, "fcs.tune", |c| h.tune(c, &st.pos, &st.charge));
        }
        for _ in 0..REPS {
            rec.call(comm, "fcs.run", |c| {
                h.run(c, &st.pos, &st.charge, &st.id, max_local).pos.len()
            });
        }
        if h.resorted() {
            for _ in 0..REPS {
                let mut set = PlaneSet::new();
                let vel = set.register::<Vec3>("vel");
                let accel = set.register::<Vec3>("accel");
                set.resize(st.vel.len());
                set.plane_mut::<Vec3>(vel).copy_from_slice(&st.vel);
                set.plane_mut::<Vec3>(accel).copy_from_slice(&st.accel);
                rec.call(comm, "atasp.resort", |c| h.resort_planes(c, &mut set));
            }
        }
        rec.probes
    })?;
    let mut probes = out.results.into_iter().next().unwrap_or_default();

    // The FMM with Method A: partition sort, near and far field, and the
    // `atasp` restore of the results to their original owners.
    let out = runner.try_run(p, MachineModel::juqueen_like(), |comm| {
        let st = &inputs.ranks[comm.rank()];
        let mut rec = Recorder { rank0: comm.rank() == 0, probes: Vec::new() };
        let mut s = FmmSolver::new(bbox, fmm_cfg.clone());
        for _ in 0..REPS {
            rec.call(comm, "fmm.run", |c| {
                let method = RedistMethod::RestoreOriginal;
                s.run(c, &st.pos, &st.charge, &st.id, method, None, max_local).pos.len()
            });
        }
        rec.probes
    })?;
    let fmm = Virtual::of(&out, REPS);
    probes.extend(out.results.into_iter().next().unwrap_or_default());
    Ok(ProbeOut { probes, fmm })
}
