//! The MD workload: inputs, world runs and output checks.

use std::time::{Duration, Instant};

use fcs::SolverKind;
use mdsim::io::Snapshot;
use mdsim::SimConfig;
use particles::reference::{ewald, EwaldParams};
use particles::systems::splitmix64;
use particles::{InitialDistribution, IonicCrystal, SoftCore, SystemBox, Vec3};
use simcomm::{CartGrid, Engine, MachineModel, Runner, Trace, WorldError};

use crate::world::{check_clock_decomposition, Virtual};

/// The MD workload: the plancache MD configuration (P2NFFT, Method B with
/// movement exploitation, plan cache on, grid initial distribution) on the
/// juqueen-like torus model.
#[derive(Clone, Debug)]
pub struct MdSpec {
    /// Simulated ranks.
    pub procs: usize,
    /// Crystal cells per dimension (`cells^3` particles).
    pub cells: usize,
    /// Timesteps `T` (the solver runs `T + 1` times).
    pub steps: usize,
}

/// Solver tolerance; also the allowed relative step-0 potential error.
pub const TOLERANCE: f64 = 1e-2;
/// Allowed relative total-energy drift over the run.
pub const DRIFT_BOUND: f64 = 2e-3;

/// Typical per-step movement as a fraction of the mean spacing, the same
/// melting-crystal drift `SimConfig::thermal_move_fraction` defaults to.
const THERMAL_MOVE_FRACTION: f64 = 0.004;

/// The generated inputs of one MD world: every rank's initial local state.
pub struct MdInputs {
    /// The periodic system box.
    pub bbox: SystemBox,
    /// Rank `r`'s initial state (positions, charges, ids, velocities, zero
    /// accelerations), grid-distributed.
    pub ranks: Vec<Snapshot>,
    /// Global kinetic energy of the initial velocities.
    pub kinetic0: f64,
    /// The simulation configuration all ranks run.
    pub cfg: SimConfig,
}

impl MdSpec {
    /// Generate the world's inputs from `seed`: a jittered rock-salt crystal
    /// (the seed drives the jitter), distributed over the process grid, with
    /// seeded thermal velocities.
    pub fn inputs(&self, seed: u64) -> MdInputs {
        let crystal = IonicCrystal::paper_like(self.cells, seed);
        let bbox = crystal.system_box();
        let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
        let vt = THERMAL_MOVE_FRACTION * crystal.spacing / dt;
        let dims = CartGrid::balanced(self.procs).dims();
        let mut kinetic0 = 0.0;
        let ranks: Vec<Snapshot> = (0..self.procs)
            .map(|r| {
                let set =
                    particles::local_set(&crystal, InitialDistribution::Grid, r, self.procs, dims);
                let (pos, charge, id) = set.into_parts();
                let vel: Vec<Vec3> = id.iter().map(|&i| thermal_velocity(seed, i, vt)).collect();
                kinetic0 += 0.5 * vel.iter().map(|v| v.norm2()).sum::<f64>();
                let accel = vec![Vec3::ZERO; pos.len()];
                Snapshot { bbox, step: 0, pos, charge, id, vel, accel }
            })
            .collect();
        let cfg = SimConfig {
            solver: SolverKind::P2Nfft,
            resort: true,
            exploit_movement: true,
            steps: self.steps,
            tolerance: TOLERANCE,
            dt,
            plan_cache: true,
            ..SimConfig::default()
        };
        MdInputs { bbox, ranks, kinetic0, cfg }
    }
}

/// Seeded, approximately Gaussian thermal velocity of particle `id` with
/// per-component standard deviation `vt`.
fn thermal_velocity(seed: u64, id: u64, vt: f64) -> Vec3 {
    let mut h = splitmix64(seed ^ id.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x7665_6c6f);
    let mut gauss = || {
        let mut acc = 0.0;
        for _ in 0..4 {
            h = splitmix64(h);
            acc += (h >> 11) as f64 / (1u64 << 53) as f64;
        }
        (acc - 2.0) * 3.0f64.sqrt()
    };
    Vec3::new(gauss() * vt, gauss() * vt, gauss() * vt)
}

/// Reference potential energy of the initial state: the serial Ewald sum of
/// the Coulomb interactions plus the soft-core repulsion over all pairs.
pub fn reference_potential(inputs: &MdInputs) -> f64 {
    let pos: Vec<Vec3> = inputs.ranks.iter().flat_map(|s| s.pos.iter().copied()).collect();
    let charge: Vec<f64> = inputs.ranks.iter().flat_map(|s| s.charge.iter().copied()).collect();
    let bbox = &inputs.bbox;
    let l = bbox.lengths.x().min(bbox.lengths.y()).min(bbox.lengths.z());
    // erfc(2.8) and the reciprocal truncation are both near 1e-4: two orders
    // of magnitude below the solver tolerance the result is compared at.
    let rcut = 0.45 * l;
    let alpha = 2.8 / rcut;
    let kmax = (alpha * l * 2.8 / std::f64::consts::PI).ceil() as i32;
    let coulomb = ewald(&pos, &charge, bbox, EwaldParams { alpha, rcut, kmax }).energy;
    // The repulsion beyond 2.5 sigma is below 2e-5 of its contact value.
    let spacing = (bbox.volume() / pos.len() as f64).cbrt();
    let core = SoftCore::for_spacing(spacing);
    let reach2 = (2.5 * core.sigma).powi(2);
    let mut repulsion = 0.0;
    for i in 0..pos.len() {
        for j in i + 1..pos.len() {
            let r2 = bbox.min_image(pos[i], pos[j]).norm2();
            if r2 < reach2 {
                repulsion += core.energy(r2.sqrt());
            }
        }
    }
    coulomb + repulsion
}

/// What one MD world run yields to the benchmark.
pub struct MdRun {
    /// Host seconds from the start of the last rank to start to the end of
    /// the last rank to end, so the spawn and join of the rank threads are
    /// not counted.
    pub host_s: f64,
    /// Heap allocations during the run, all threads.
    pub allocs: u64,
    /// Total energy after each solver execution (index 0 = initial state).
    pub energies: Vec<f64>,
    /// Whether every rank reported the same energies, bit for bit.
    pub ranks_agree: bool,
    /// Final virtual clocks.
    pub clocks: Vec<f64>,
    /// Per-rank statistics.
    pub stats: Vec<simcomm::RankStats>,
    /// Virtual and traffic figures.
    pub virt: Virtual,
    /// Communication traces (traced runs only).
    pub traces: Vec<Trace>,
}

/// Run one MD world on `inputs` through the default engine, with a
/// wall-clock deadline.
pub fn run_world(inputs: &MdInputs, traced: bool, deadline: Duration) -> Result<MdRun, WorldError> {
    let runner = Runner::new(Engine::default()).traced(traced).deadline(Some(deadline));
    let a0 = crate::alloc::allocs();
    let out = runner.try_run(inputs.ranks.len(), MachineModel::juqueen_like(), |comm| {
        let state = inputs.ranks[comm.rank()].clone();
        let start = Instant::now();
        let res = mdsim::simulate_from(comm, state, &inputs.cfg);
        let energies: Vec<f64> = res.records.iter().map(|r| r.energy).collect();
        (energies, start, Instant::now())
    })?;
    let allocs = crate::alloc::allocs() - a0;
    let host_s = crate::world::busy_s(out.results.iter().map(|r| (r.1, r.2)));
    let results: Vec<Vec<f64>> = out.results.iter().map(|r| r.0.clone()).collect();
    let energies = results[0].clone();
    let ranks_agree = results.iter().all(|e| {
        e.len() == energies.len()
            && e.iter().zip(&energies).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    let virt = Virtual::of(&out, inputs.cfg.steps);
    Ok(MdRun {
        host_s,
        allocs,
        energies,
        ranks_agree,
        clocks: out.clocks,
        stats: out.stats,
        virt,
        traces: out.traces,
    })
}

/// What the output checks compare an MD run against.
#[derive(Clone, Copy, Debug)]
pub struct MdExpect {
    /// Reference potential energy of the initial state.
    pub potential0: f64,
    /// Kinetic energy of the initial state.
    pub kinetic0: f64,
    /// Timesteps the run must have completed.
    pub steps: usize,
}

/// The output checks of one MD run: step-0 potential energy against the
/// reference, total-energy drift, agreement of all ranks, and the clock
/// decomposition on every rank. Returns every failed check.
pub fn check(run: &MdRun, expect: &MdExpect) -> Vec<String> {
    let mut failures = Vec::new();
    if run.energies.len() != expect.steps + 1 {
        failures.push(format!("{} energy records for {} steps", run.energies.len(), expect.steps));
        return failures;
    }
    if !run.ranks_agree {
        failures.push("ranks disagree on the total energy".into());
    }
    let potential0 = run.energies[0] - expect.kinetic0;
    let err = (potential0 - expect.potential0).abs() / expect.potential0.abs();
    if err.is_nan() || err > TOLERANCE {
        failures.push(format!(
            "step-0 potential energy {potential0} is off the reference {} by {err:.3e} \
             (allowed {TOLERANCE:.1e})",
            expect.potential0
        ));
    }
    let e0 = run.energies[0];
    let drift = run.energies.iter().map(|e| (e - e0).abs()).fold(0.0, f64::max) / e0.abs();
    if drift.is_nan() || drift > DRIFT_BOUND {
        failures.push(format!("total energy drifted by {drift:.3e} (allowed {DRIFT_BOUND:.1e})"));
    }
    if let Err(e) = check_clock_decomposition(&run.clocks, &run.stats) {
        failures.push(e);
    }
    failures
}
