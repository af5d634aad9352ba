//! The parallel FMM solver: Z-order domain decomposition by parallel sorting,
//! distributed tree construction with a locally essential set of multipoles,
//! near/far field evaluation, and the paper's two data redistribution paths
//! (restore-original vs. use-changed-with-resort-indices).

use std::collections::{HashMap, HashSet};

use atasp::{alltoall_specific, build_resort_indices, encode_index, ExchangeMode};
use particles::{MovementHint, RedistMethod, SolverOutput, SolverTimings, SystemBox, Vec3};
use psort::{
    merge_exchange_sort_by_key_capped, merge_exchange_sort_by_key_planned, partition_sort_by_key,
    SortPlan,
};
use simcomm::{Comm, Work};

use crate::expansion::ExpansionOps;
use crate::tree::{
    cell_center, cell_offset, cells_from_sorted, effective_source_center, interaction_list,
    leaf_key, neighbor_keys,
};

/// One particle as transported between ranks by the FMM solver: position,
/// charge, the application's global id, and the origin code
/// (`origin rank << 32 | origin position`) used to restore the original order
/// or to create resort indices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FmmParticle {
    /// Particle position.
    pub pos: Vec3,
    /// Particle charge.
    pub charge: f64,
    /// Application-level global particle id.
    pub id: u64,
    /// Origin code: `encode_index(origin_rank, origin_pos)`.
    pub origin: u64,
}

/// A computed particle traveling back to its origin (Method A).
#[derive(Clone, Copy, Debug)]
struct ResultParticle {
    pos: Vec3,
    charge: f64,
    id: u64,
    origin: u64,
    potential: f64,
    field: Vec3,
}

/// Static configuration of the FMM solver.
#[derive(Clone, Debug, PartialEq)]
pub struct FmmConfig {
    /// Expansion order (total degree of the Cartesian Taylor expansions).
    pub order: usize,
    /// Octree depth: `8^level` leaf cells.
    pub level: u32,
    /// Optional short-range repulsive core evaluated in the near field
    /// (see [`particles::coupling::SoftCore`]). `None` = pure Coulomb.
    pub soft_core: Option<particles::SoftCore>,
}

impl FmmConfig {
    /// Choose level and order for a given system size and target relative
    /// potential accuracy — the solver's tuning step (`fcs_tune`). The level
    /// aims at a mean leaf occupancy of ~16 particles (balancing the P2P and
    /// M2L work); the order is calibrated against direct summation in this
    /// crate's tests.
    pub fn tuned(n_total: u64, accuracy: f64) -> Self {
        let target_cells = (n_total as f64 / 16.0).max(1.0);
        let level = ((target_cells.ln() / 8.0f64.ln()).round() as u32).clamp(1, 20);
        let order = if accuracy >= 1e-2 {
            2
        } else if accuracy >= 1e-3 {
            4
        } else if accuracy >= 1e-4 {
            6
        } else {
            8
        };
        FmmConfig { order, level, soft_core: None }
    }
}

/// Report of one FMM execution (in addition to the generic [`SolverOutput`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FmmRunReport {
    /// Whether the merge-based parallel sort was used (Method B + movement).
    pub used_merge_sort: bool,
    /// Near-field pair interactions evaluated.
    pub p2p_pairs: u64,
    /// M2L translations evaluated.
    pub m2l_count: u64,
    /// Particles exchanged by the parallel sort (sent from this rank).
    pub sort_sent: u64,
    /// Merge-network rounds skipped outright via the cached [`SortPlan`].
    pub sort_rounds_plan_skipped: u64,
    /// Whether the movement-bound guard abandoned a capped merge sort (the
    /// hint under-reported the real displacement) and fell back to the
    /// general partition sort this run. Only ever set on fault-injected
    /// worlds; see [`FmmSolver::run`].
    pub movement_guard_fallback: bool,
}

/// The parallel Fast Multipole Method solver.
///
/// One instance lives on every rank; all methods that take a [`Comm`] are
/// collective (every rank of the world must call them in the same order).
pub struct FmmSolver {
    cfg: FmmConfig,
    bbox: SystemBox,
    periodic: bool,
    ops: ExpansionOps,
    /// Cache of M2L derivative tensors keyed by (level, relative cell offset).
    tensor_cache: HashMap<(u32, [i64; 3]), Vec<f64>>,
    /// Enable caching of the merge-sort probe schedule across timesteps.
    plan_cache: bool,
    /// Override for the movement-bound guard's cleanup-round cap
    /// (`None` = `2 + ceil(log2 p)` at run time).
    guard_cleanup_cap: Option<u64>,
    /// Probe schedule recorded by the previous merge-based sort, if clean.
    sort_plan: Option<SortPlan>,
    /// Sort plans recorded over the solver lifetime.
    pub plan_builds: u64,
    /// Runs that consumed a previously recorded sort plan.
    pub plan_hits: u64,
    /// Movement-bound guard fallbacks over the solver lifetime (capped merge
    /// sorts abandoned for the general partition sort).
    pub guard_fallbacks: u64,
    /// Report of the most recent run.
    pub last_report: FmmRunReport,
}

impl FmmSolver {
    /// Create a solver for the given box and configuration. The box must be
    /// either fully periodic or fully open.
    pub fn new(bbox: SystemBox, cfg: FmmConfig) -> Self {
        let periodic = bbox.fully_periodic();
        assert!(
            periodic || bbox.periodic.iter().all(|&p| !p),
            "mixed periodicity is not supported"
        );
        let ops = ExpansionOps::new(cfg.order);
        FmmSolver {
            cfg,
            bbox,
            periodic,
            ops,
            tensor_cache: HashMap::new(),
            plan_cache: true,
            guard_cleanup_cap: None,
            sort_plan: None,
            plan_builds: 0,
            plan_hits: 0,
            guard_fallbacks: 0,
            last_report: FmmRunReport::default(),
        }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    /// Enable or disable cross-timestep caching of the merge-sort probe
    /// schedule (on by default). Disabling drops the cached plan, restoring
    /// the pre-plan behaviour of probing every network round afresh. Must be
    /// set identically on all ranks (the plan gate is collective).
    pub fn set_plan_cache(&mut self, enabled: bool) {
        self.plan_cache = enabled;
        if !enabled {
            self.sort_plan = None;
        }
    }

    /// Override the movement-bound guard's cleanup-round cap (`None`, the
    /// default, uses `2 + ceil(log2 p)`). A tighter cap makes the guard more
    /// eager to abandon a degenerating merge sort for the general partition
    /// sort; `Some(0)` falls back on *any* input the merge network leaves
    /// globally unsorted. Only consulted on fault-injected worlds, and must
    /// be set identically on every rank (the cap decision is collective).
    pub fn set_guard_cleanup_cap(&mut self, cap: Option<u64>) {
        self.guard_cleanup_cap = cap;
    }

    /// Drop all cached cross-timestep planning state (the recorded merge-sort
    /// probe schedule). Recovery paths that rewind the simulation call this
    /// on every rank before replaying: a schedule recorded past the rollback
    /// point describes executions that are about to be repeated, and plan
    /// state is bitwise invisible to the physics, so dropping it is always
    /// safe.
    pub fn invalidate_plans(&mut self) {
        self.sort_plan = None;
    }

    /// Execute the solver: compute potentials and field values for the given
    /// local particles, redistributing particle data according to `method`.
    ///
    /// * `method` = [`RedistMethod::RestoreOriginal`]: output arrays are in
    ///   the exact order and distribution of the input (Method A).
    /// * `method` = [`RedistMethod::UseChanged`]: output arrays are in the
    ///   solver's Z-order distribution, with resort indices for the
    ///   application's additional data (Method B). Falls back to restoring if
    ///   any rank would exceed `max_local` particles.
    ///
    /// `movement` enables the merge-based parallel sort when the maximum
    /// particle movement is below the per-process cube side (paper heuristic,
    /// Sect. III-B); it is only honoured for [`RedistMethod::UseChanged`].
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        id: &[u64],
        method: RedistMethod,
        movement: MovementHint,
        max_local: usize,
    ) -> SolverOutput {
        let n_in = pos.len();
        assert_eq!(charge.len(), n_in);
        assert_eq!(id.len(), n_in);
        let me = comm.rank();
        let p = comm.size();
        self.last_report = FmmRunReport::default();
        let t_start = comm.clock();
        comm.enter_phase("sort");

        // --- Keys and records ---
        let mut keys: Vec<u64> = Vec::with_capacity(n_in);
        let mut recs: Vec<FmmParticle> = Vec::with_capacity(n_in);
        for i in 0..n_in {
            keys.push(leaf_key(&self.bbox, pos[i], self.cfg.level));
            recs.push(FmmParticle {
                pos: pos[i],
                charge: charge[i],
                id: id[i],
                origin: encode_index(me, i),
            });
        }
        comm.compute(Work::ParticleOp, n_in as f64);

        // --- Parallel sort (paper heuristic: merge-based iff the maximum
        // movement is below the per-process cube side) ---
        let use_merge = method == RedistMethod::UseChanged
            && movement.is_some_and(|m| m < self.bbox.per_process_cube_side(p));
        self.last_report.used_merge_sort = use_merge;
        let (mut keys, mut recs) = if use_merge {
            // Consume the probe schedule the previous merge sort recorded (if
            // caching is on); record this sort's schedule for the next step.
            // `use_merge` and the plan's presence are globally consistent, so
            // all ranks pass a plan from the same previous execution.
            let prior = if self.plan_cache { self.sort_plan.take() } else { None };
            let had_prior = prior.is_some();
            // Movement-bound guard (fault-injected worlds only): if the hint
            // under-reported the real displacement, merge-exchange cleanup can
            // degenerate into a full O(p)-round transposition. Cap it and keep
            // a pristine copy of the input so a capped-out sort falls back to
            // the general partition sort below. `fault_active` and `p` are
            // global, so the guard engages collectively; inert fault plans
            // take the uncapped path with no backup — bit-for-bit the
            // unguarded behaviour.
            let guarded = comm.fault_active();
            let backup = guarded.then(|| (keys.clone(), recs.clone()));
            let (k, r, rep, next) = if guarded {
                let cap = self.guard_cleanup_cap.unwrap_or(2 + (p as f64).log2().ceil() as u64);
                merge_exchange_sort_by_key_capped(comm, keys, recs, prior.as_ref(), cap)
            } else {
                merge_exchange_sort_by_key_planned(comm, keys, recs, prior.as_ref())
            };
            if rep.cleanup_cap_hit {
                // The movement bound was violated: the data was not almost
                // sorted and the merge network capped out before reaching
                // global order. Abandon its result, invalidate the cached
                // schedule, and run the general sort on the pristine input
                // (identical input → identical output to a run that chose
                // the partition sort up front).
                let (bk, br) = backup.expect("cap can only be hit on guarded runs");
                self.last_report.movement_guard_fallback = true;
                self.guard_fallbacks += 1;
                self.sort_plan = None;
                let (k, r, rep2) = partition_sort_by_key(comm, bk, br);
                self.last_report.sort_sent = rep.sent_elems + rep2.sent_elems;
                (k, r)
            } else {
                self.last_report.sort_sent = rep.sent_elems;
                self.last_report.sort_rounds_plan_skipped = rep.rounds_plan_skipped;
                if had_prior {
                    self.plan_hits += 1;
                } else if next.is_some() {
                    self.plan_builds += 1;
                }
                if self.plan_cache {
                    self.sort_plan = next;
                }
                (k, r)
            }
        } else {
            // A partition sort rebalances the whole distribution; any recorded
            // probe schedule is stale afterwards (dropped on every rank —
            // `use_merge` is a collective decision).
            self.sort_plan = None;
            let (k, r, rep) = partition_sort_by_key(comm, keys, recs);
            self.last_report.sort_sent = rep.sent_elems;
            (k, r)
        };

        // --- Align cells to rank boundaries (each leaf cell wholly owned by
        // the lowest rank holding any of its particles) ---
        self.align_cells(comm, &mut keys, &mut recs);
        comm.exit_phase();
        let t_sorted = comm.clock();

        // --- Compute near + far field on the sorted particles ---
        let (potential, field) = self.compute_fields(comm, &keys, &recs);
        // Synchronize before the redistribution phase so that compute load
        // imbalance is attributed to the computation, not to the timing of
        // the redistribution that happens to follow it.
        comm.barrier();
        let t_computed = comm.clock();

        // --- Redistribution back to the application ---
        let original_len = n_in;
        match method {
            RedistMethod::RestoreOriginal => {
                comm.enter_phase("restore");
                let mut out = self.restore_original(comm, &recs, &potential, &field, original_len);
                comm.exit_phase();
                out.timings = SolverTimings {
                    sort: t_sorted - t_start,
                    compute: t_computed - t_sorted,
                    restore: comm.clock() - t_computed,
                    resort_create: 0.0,
                    total: comm.clock() - t_start,
                };
                out
            }
            RedistMethod::UseChanged => {
                // Capacity check across all ranks (paper: "the redistributed
                // particles of a solver can only be returned … if the given
                // local particle data arrays are large enough").
                let fits = recs.len() <= max_local;
                let all_fit = comm.allreduce(fits, |a, b| a && b);
                if !all_fit {
                    comm.enter_phase("restore");
                    let mut out =
                        self.restore_original(comm, &recs, &potential, &field, original_len);
                    comm.exit_phase();
                    out.timings = SolverTimings {
                        sort: t_sorted - t_start,
                        compute: t_computed - t_sorted,
                        restore: comm.clock() - t_computed,
                        resort_create: 0.0,
                        total: comm.clock() - t_start,
                    };
                    return out;
                }
                let origin: Vec<u64> = recs.iter().map(|r| r.origin).collect();
                comm.enter_phase("resort");
                let resort_indices = build_resort_indices(comm, &origin, original_len);
                comm.exit_phase();
                let t_resort = comm.clock();
                let out = SolverOutput {
                    pos: recs.iter().map(|r| r.pos).collect(),
                    charge: recs.iter().map(|r| r.charge).collect(),
                    id: recs.iter().map(|r| r.id).collect(),
                    potential,
                    field,
                    resorted: true,
                    resort_indices,
                    timings: SolverTimings {
                        sort: t_sorted - t_start,
                        compute: t_computed - t_sorted,
                        restore: 0.0,
                        resort_create: t_resort - t_computed,
                        total: comm.clock() - t_start,
                    },
                };
                out
            }
        }
    }

    /// Route every computed particle back to its origin rank and position
    /// (paper Fig. 4).
    fn restore_original(
        &self,
        comm: &mut Comm,
        recs: &[FmmParticle],
        potential: &[f64],
        field: &[Vec3],
        original_len: usize,
    ) -> SolverOutput {
        let results: Vec<ResultParticle> = recs
            .iter()
            .enumerate()
            .map(|(i, r)| ResultParticle {
                pos: r.pos,
                charge: r.charge,
                id: r.id,
                origin: r.origin,
                potential: potential[i],
                field: field[i],
            })
            .collect();
        let targets: Vec<usize> = recs.iter().map(|r| atasp::decode_index(r.origin).0).collect();
        let received = alltoall_specific(comm, &results, &targets, &ExchangeMode::Collective);
        assert_eq!(received.len(), original_len);
        let mut out = SolverOutput {
            pos: vec![Vec3::ZERO; original_len],
            charge: vec![0.0; original_len],
            id: vec![0; original_len],
            potential: vec![0.0; original_len],
            field: vec![Vec3::ZERO; original_len],
            resorted: false,
            resort_indices: Vec::new(),
            timings: SolverTimings::default(),
        };
        for r in received {
            let (_, pos_ix) = atasp::decode_index(r.origin);
            out.pos[pos_ix] = r.pos;
            out.charge[pos_ix] = r.charge;
            out.id[pos_ix] = r.id;
            out.potential[pos_ix] = r.potential;
            out.field[pos_ix] = r.field;
        }
        comm.compute(Work::ByteCopy, (original_len * std::mem::size_of::<ResultParticle>()) as f64);
        out
    }

    /// Move leading particles of shared boundary cells to the lowest rank
    /// holding the cell, so every leaf cell is wholly owned afterwards.
    fn align_cells(&self, comm: &mut Comm, keys: &mut Vec<u64>, recs: &mut Vec<FmmParticle>) {
        let p = comm.size();
        if p == 1 {
            return;
        }
        let me = comm.rank();
        let ranges = comm.allgather((keys.first().copied(), keys.last().copied()));
        // Owner of key k: the lowest rank whose range contains k.
        let owner = |k: u64| -> usize {
            for (r, &(f, l)) in ranges.iter().enumerate() {
                if let (Some(f), Some(l)) = (f, l) {
                    if f <= k && k <= l {
                        return r;
                    }
                }
            }
            unreachable!("key {k} not in any range")
        };
        let mut to_send: Vec<(usize, Vec<FmmParticle>)> = Vec::new();
        let mut cut = 0usize;
        if let Some(&first) = keys.first() {
            let own = owner(first);
            if own != me {
                // My whole leading run of `first` (possibly the entire array)
                // belongs to `own`.
                cut = keys.iter().take_while(|&&k| k == first).count();
                to_send.push((own, recs[..cut].to_vec()));
            }
        }
        let sends: Vec<(usize, Vec<FmmParticle>)> = to_send;
        let received = comm.alltoallv(sends);
        if cut > 0 {
            keys.drain(..cut);
            recs.drain(..cut);
        }
        // Received particles all carry my last key (they continue my run);
        // append in source-rank order.
        for (_src, buf) in received {
            for r in buf {
                let k = leaf_key(&self.bbox, r.pos, self.cfg.level);
                debug_assert!(keys.last().is_none_or(|&l| l <= k));
                keys.push(k);
                recs.push(r);
            }
        }
    }

    /// Full near + far field evaluation on the (sorted, aligned) particles.
    fn compute_fields(
        &mut self,
        comm: &mut Comm,
        keys: &[u64],
        recs: &[FmmParticle],
    ) -> (Vec<f64>, Vec<Vec3>) {
        let n = keys.len();
        let nc = self.ops.len();
        let leaf_level = self.cfg.level;
        let periodic = self.periodic;
        let me = comm.rank();

        let leaf_cells = cells_from_sorted(keys);
        let cell_index: HashMap<u64, usize> =
            leaf_cells.iter().enumerate().map(|(i, (k, _))| (*k, i)).collect();

        // Rank ranges at leaf level for ownership lookups.
        let ranges = comm.allgather((keys.first().copied(), keys.last().copied()));
        let owner_of = |k: u64| -> Option<usize> {
            ranges
                .iter()
                .position(|&(f, l)| matches!((f, l), (Some(f), Some(l)) if f <= k && k <= l))
        };

        // ---- Ghost exchange for the near field ----
        // For each local cell, ranks owning (wrapped) neighbour keys receive a
        // copy of the cell's particles.
        comm.enter_phase("near");
        let mut ghost_sends: HashMap<usize, Vec<FmmParticle>> = HashMap::new();
        for (k, range) in &leaf_cells {
            let mut dests: HashSet<usize> = HashSet::new();
            for nk in neighbor_keys(*k, leaf_level, periodic) {
                if let Some(o) = owner_of(nk) {
                    if o != me {
                        dests.insert(o);
                    }
                }
            }
            for d in dests {
                ghost_sends.entry(d).or_default().extend_from_slice(&recs[range.clone()]);
            }
        }
        let sends: Vec<(usize, Vec<FmmParticle>)> = ghost_sends.into_iter().collect();
        let received_ghosts = comm.alltoallv(sends);
        let mut ghost_cells: HashMap<u64, Vec<FmmParticle>> = HashMap::new();
        let mut ghost_count = 0u64;
        for (_src, buf) in received_ghosts {
            ghost_count += buf.len() as u64;
            for g in buf {
                let k = leaf_key(&self.bbox, g.pos, leaf_level);
                ghost_cells.entry(k).or_default().push(g);
            }
        }
        comm.compute(
            Work::ByteCopy,
            (ghost_count as usize * std::mem::size_of::<FmmParticle>()) as f64,
        );
        comm.exit_phase();

        // ---- Upward pass: P2M + M2M (partial multipoles per level) ----
        comm.enter_phase("tree");
        // levels: index l in 0..=leaf_level; multipoles[l]: key -> coeffs.
        let mut multipoles: Vec<HashMap<u64, Vec<f64>>> =
            (0..=leaf_level).map(|_| HashMap::new()).collect();
        for (k, range) in &leaf_cells {
            let z = cell_center(&self.bbox, *k, leaf_level);
            let m = multipoles[leaf_level as usize].entry(*k).or_insert_with(|| vec![0.0; nc]);
            for r in &recs[range.clone()] {
                self.ops.p2m(m, z, r.pos, r.charge);
            }
            comm.compute(Work::ExpansionTerm, (range.len() * nc) as f64);
        }
        for l in (1..=leaf_level).rev() {
            let (coarse, fine) = {
                let (a, b) = multipoles.split_at_mut(l as usize);
                (&mut a[l as usize - 1], &b[0])
            };
            // Children are added to their parent in ascending key order:
            // hash-map iteration order is seeded per map, and summing in it
            // made the parent multipoles (and every energy) differ in the
            // low bits from run to run.
            let mut children: Vec<u64> = fine.keys().copied().collect();
            children.sort_unstable();
            for &k in &children {
                let parent = particles::zorder::parent(k);
                let zp = cell_center(&self.bbox, parent, l - 1);
                let zc = cell_center(&self.bbox, k, l);
                let pm = coarse.entry(parent).or_insert_with(|| vec![0.0; nc]);
                self.ops.m2m(pm, &fine[&k], zc, zp);
            }
            let ops_count = children.len();
            comm.compute(Work::ExpansionTerm, (ops_count * nc * nc / 4) as f64);
        }

        // ---- Target cells: ancestors of local leaves, per level ----
        let mut targets: Vec<Vec<u64>> = (0..=leaf_level).map(|_| Vec::new()).collect();
        targets[leaf_level as usize] = leaf_cells.iter().map(|(k, _)| *k).collect();
        for l in (1..=leaf_level).rev() {
            let mut up: Vec<u64> =
                targets[l as usize].iter().map(|&k| particles::zorder::parent(k)).collect();
            up.sort_unstable();
            up.dedup();
            targets[l as usize - 1] = up;
        }

        comm.exit_phase();

        // ---- Locally essential multipoles: request remote (partial)
        comm.enter_phase("far");
        // multipoles for all interaction-list source cells ----
        // A cell (l, k) spans leaf keys [k << s, (k+1) << s) with s = 3*(L-l);
        // every rank whose range intersects that interval may hold a partial.
        let mut needed: HashSet<(u32, u64)> = HashSet::new();
        for l in 1..=leaf_level {
            for &t in &targets[l as usize] {
                for s in interaction_list(t, l, periodic) {
                    needed.insert((l, s));
                }
            }
        }
        let mut requests: HashMap<usize, Vec<(u32, u64)>> = HashMap::new();
        for &(l, k) in &needed {
            let shift = 3 * (leaf_level - l);
            let lo = k << shift;
            let hi = ((k + 1) << shift) - 1;
            for (r, &(f, last)) in ranges.iter().enumerate() {
                if r == me {
                    continue;
                }
                if let (Some(f), Some(last)) = (f, last) {
                    if f <= hi && lo <= last {
                        requests.entry(r).or_default().push((l, k));
                    }
                }
            }
        }
        let req_sends: Vec<(usize, Vec<(u32, u64)>)> = requests.into_iter().collect();
        let req_recv = comm.alltoallv(req_sends);
        // Respond with (meta, coeffs) pairs; coeffs flattened with stride nc.
        let mut resp_meta: Vec<(usize, Vec<(u32, u64)>)> = Vec::new();
        let mut resp_coef: Vec<(usize, Vec<f64>)> = Vec::new();
        for (src, reqs) in req_recv {
            let mut meta = Vec::new();
            let mut coef = Vec::new();
            for (l, k) in reqs {
                if let Some(m) = multipoles[l as usize].get(&k) {
                    meta.push((l, k));
                    coef.extend_from_slice(m);
                }
            }
            comm.compute(Work::ByteCopy, (coef.len() * 8) as f64);
            resp_meta.push((src, meta));
            resp_coef.push((src, coef));
        }
        let meta_recv = comm.alltoallv(resp_meta);
        let coef_recv = comm.alltoallv(resp_coef);
        let coef_by_src: HashMap<usize, Vec<f64>> = coef_recv.into_iter().collect();
        // Partials of one cell are summed in source-rank order (`alltoallv`
        // delivers by source, and a cell appears at most once per message),
        // so the request order inside a message — hash-set order — never
        // reaches a sum. The downward pass below only looks entries up.
        let mut remote_m: HashMap<(u32, u64), Vec<f64>> = HashMap::new();
        for (src, meta) in meta_recv {
            let coefs = &coef_by_src[&src];
            for (i, (l, k)) in meta.into_iter().enumerate() {
                let slice = &coefs[i * nc..(i + 1) * nc];
                let entry = remote_m.entry((l, k)).or_insert_with(|| vec![0.0; nc]);
                for (e, &c) in entry.iter_mut().zip(slice) {
                    *e += c;
                }
            }
        }

        // ---- Downward pass: M2L + L2L ----
        let mut locals: Vec<HashMap<u64, Vec<f64>>> =
            (0..=leaf_level).map(|_| HashMap::new()).collect();
        let mut m2l_count = 0u64;
        for l in 1..=leaf_level {
            let target_keys: Vec<u64> = targets[l as usize].clone();
            for &t in &target_keys {
                let mut acc = vec![0.0; nc];
                // L2L from the parent's local expansion.
                if l >= 1 {
                    let parent = particles::zorder::parent(t);
                    if let Some(pl) = locals[l as usize - 1].get(&parent) {
                        let wp = cell_center(&self.bbox, parent, l - 1);
                        let wc = cell_center(&self.bbox, t, l);
                        self.ops.l2l(&mut acc, pl, wp, wc);
                    }
                }
                // M2L from the interaction list.
                let w = cell_center(&self.bbox, t, l);
                for s in interaction_list(t, l, periodic) {
                    // Combine local partial and fetched remote partials.
                    let local_part = multipoles[l as usize].get(&s);
                    let remote_part = remote_m.get(&(l, s));
                    if local_part.is_none() && remote_part.is_none() {
                        continue; // empty cell
                    }
                    let off = cell_offset(t, s, l, periodic);
                    let zs = effective_source_center(&self.bbox, t, s, l, periodic);
                    let cache_key = (l, [off[0], off[1], off[2]]);
                    let tensor = match self.tensor_cache.get(&cache_key) {
                        Some(t) => t.clone(),
                        None => {
                            let t = self.ops.derivative_tensor(w - zs);
                            self.tensor_cache.insert(cache_key, t.clone());
                            t
                        }
                    };
                    if let Some(m) = local_part {
                        self.ops.m2l_with_tensor(&mut acc, m, &tensor);
                        m2l_count += 1;
                    }
                    if let Some(m) = remote_part {
                        self.ops.m2l_with_tensor(&mut acc, m, &tensor);
                        m2l_count += 1;
                    }
                }
                locals[l as usize].insert(t, acc);
            }
            comm.compute(Work::ExpansionTerm, (target_keys.len().max(1) * nc * nc / 8) as f64);
        }
        comm.compute(Work::ExpansionTerm, (m2l_count as usize * nc * nc) as f64);
        comm.exit_phase();
        self.last_report.m2l_count = m2l_count;

        // ---- Evaluation: L2P + near-field P2P ----
        let mut potential = vec![0.0; n];
        let mut field = vec![Vec3::ZERO; n];
        let mut p2p_pairs = 0u64;
        for (k, range) in &leaf_cells {
            let w = cell_center(&self.bbox, *k, leaf_level);
            if let Some(loc) = locals[leaf_level as usize].get(k) {
                for i in range.clone() {
                    let (phi, e) = self.ops.l2p(loc, w, recs[i].pos);
                    potential[i] += phi;
                    field[i] += e;
                }
            }
            // P2P within the cell.
            for i in range.clone() {
                for j in (i + 1)..range.end {
                    let d = recs[i].pos - recs[j].pos;
                    let r2 = d.norm2();
                    if r2 == 0.0 {
                        continue;
                    }
                    let inv_r = 1.0 / r2.sqrt();
                    let inv_r3 = inv_r / r2;
                    potential[i] += recs[j].charge * inv_r;
                    potential[j] += recs[i].charge * inv_r;
                    field[i] += d * (recs[j].charge * inv_r3);
                    field[j] -= d * (recs[i].charge * inv_r3);
                    if let Some(core) = &self.cfg.soft_core {
                        // Pair repulsion folded into the potential/field
                        // channels (divide by the receiving charge so that
                        // 0.5*q*phi and q*E reproduce pair energy and force).
                        let r = r2.sqrt();
                        let u = core.energy(r);
                        let fmag = core.force(r);
                        potential[i] += u / recs[i].charge;
                        potential[j] += u / recs[j].charge;
                        field[i] += d * (fmag / (r * recs[i].charge));
                        field[j] -= d * (fmag / (r * recs[j].charge));
                    }
                    p2p_pairs += 1;
                }
            }
            // P2P with neighbour cells (local or ghost).
            for nk in neighbor_keys(*k, leaf_level, periodic) {
                let neigh: Option<&[FmmParticle]> = if let Some(&ci) = cell_index.get(&nk) {
                    Some(&recs[leaf_cells[ci].1.clone()])
                } else {
                    ghost_cells.get(&nk).map(|v| v.as_slice())
                };
                let Some(neigh) = neigh else { continue };
                for i in range.clone() {
                    for g in neigh {
                        let d = if periodic {
                            self.bbox.min_image(recs[i].pos, g.pos)
                        } else {
                            recs[i].pos - g.pos
                        };
                        let r2 = d.norm2();
                        if r2 == 0.0 {
                            continue;
                        }
                        let inv_r = 1.0 / r2.sqrt();
                        let inv_r3 = inv_r / r2;
                        potential[i] += g.charge * inv_r;
                        field[i] += d * (g.charge * inv_r3);
                        if let Some(core) = &self.cfg.soft_core {
                            let r = r2.sqrt();
                            let u = core.energy(r);
                            let fmag = core.force(r);
                            potential[i] += u / recs[i].charge;
                            field[i] += d * (fmag / (r * recs[i].charge));
                        }
                        p2p_pairs += 1;
                    }
                }
            }
        }
        comm.with_phase("near", |c| c.compute(Work::Interaction, p2p_pairs as f64));
        comm.with_phase("far", |c| c.compute(Work::ExpansionTerm, (n * nc * 4) as f64));
        self.last_report.p2p_pairs = p2p_pairs;

        (potential, field)
    }
}
