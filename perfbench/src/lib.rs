//! # perfbench — the repository benchmark
//!
//! Drives the workspace's library crates directly on two redistribution
//! workloads (see `README.md` in this directory for why each was chosen and
//! which layer metric should move which end-to-end metric). One call of
//! [`run`] executes a named workload for a given seed and run length,
//! checks every output, and returns the end-to-end metrics (untraced mode)
//! or the per-layer metrics (traced mode).
//!
//! Load is closed-loop: one world at a time from the calling thread; the
//! only other threads are the simulated ranks the program spawns. Every
//! world runs through `simcomm::Runner::new(Engine::default())` and
//! `Runner::try_run` with a wall-clock deadline; any `WorldError`, missed
//! deadline or failed output check counts as a failed run. There is no
//! retry and no fallback engine. Layers the workloads do not run (the FMM,
//! `psort`'s sorts and the `atasp` restore) are measured by probes in traced
//! mode; see [`probes`].

pub mod alloc;
pub mod md;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod stencil;
pub mod world;

use std::time::{Duration, Instant};

use simcomm::{Engine, MachineModel, Runner};

use crate::md::MdSpec;
use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::stencil::StencilSpec;
use crate::world::Virtual;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["md-p2nfft-bm", "stencil-512"];

/// End-to-end metrics `(name, unit)`, reported in untraced mode.
pub const END_TO_END: [(&str, &str); 6] = [
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("virtual_step_s", "s"),
    ("allocs_per_step", "count"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported in traced mode. A layer the
/// workload does not run reads 0. `_vs` metrics are virtual seconds per
/// timestep; `_s` metrics are host seconds per call.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("particles.setup_s", "s"),
    ("simcomm.spawn_s", "s"),
    ("simcomm.exchange_s", "s"),
    ("simcomm.exchange_max_s", "s"),
    ("simcomm.msgs_per_step", "count"),
    ("simcomm.bytes_per_step", "B"),
    ("simcomm.coll_ops_per_step", "count"),
    ("simcomm.wait_share", "ratio"),
    ("simcomm.critpath_comm_vs", "s"),
    ("simcomm.critpath_wait_vs", "s"),
    ("simcomm.plan_reuse", "ratio"),
    ("simcomm.pool_reuse", "ratio"),
    ("psort.sort_s", "s"),
    ("psort.sort_allocs", "count"),
    ("psort.partition_s", "s"),
    ("psort.partition_allocs", "count"),
    ("psort.sort_vs", "s"),
    ("atasp.restore_vs", "s"),
    ("atasp.resort_vs", "s"),
    ("atasp.resort_s", "s"),
    ("atasp.resort_allocs", "count"),
    ("fmm.run_s", "s"),
    ("fmm.run_allocs", "count"),
    ("fmm.near_vs", "s"),
    ("fmm.far_vs", "s"),
    ("pmsolver.run_s", "s"),
    ("pmsolver.run_allocs", "count"),
    ("pmsolver.ghosts_vs", "s"),
    ("pmsolver.near_vs", "s"),
    ("pmsolver.far_vs", "s"),
    ("fcs.tune_s", "s"),
    ("fcs.run_s", "s"),
    ("mdsim.integrate_vs", "s"),
    ("mdsim.self_s", "s"),
    ("simtrace.analyze_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Wall-clock deadline of every world run.
const DEADLINE: Duration = Duration::from_secs(40);
/// Set-ups per timed world; `setup_s` is the median over all of them.
const SETUPS_PER_WORLD: usize = 3;
/// Worlds per run at least, whatever the run length: two, so every run
/// compares two worlds of one seed bit for bit.
const MIN_WORLDS: usize = 2;

/// Problem size: the measured workload, or the reduced one of the
/// benchmark's own smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The workload as `BENCHMARK.json` defines it.
    Full,
    /// A small world of the same kind, for tests.
    Smoke,
}

/// A workload's configuration.
#[derive(Clone, Debug)]
pub enum Spec {
    /// An MD simulation world.
    Md(MdSpec),
    /// The stencil exchange world.
    Stencil(StencilSpec),
}

/// The configuration of a named workload at the given size.
pub fn spec(workload: &str, size: Size) -> Option<Spec> {
    let smoke = size == Size::Smoke;
    Some(match workload {
        "md-p2nfft-bm" => Spec::Md(MdSpec {
            procs: if smoke { 8 } else { 64 },
            cells: if smoke { 8 } else { 16 },
            steps: if smoke { 3 } else { 30 },
        }),
        "stencil-512" => Spec::Stencil(StencilSpec {
            procs: if smoke { 27 } else { 512 },
            steps: if smoke { 2 } else { 8 },
        }),
        _ => return None,
    })
}

/// The seed whose world every run also checks: held out from tuning, for
/// future gain claims.
pub fn held_out_seed(seed: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep starting worlds for.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Corrupt the first world's output before checking it (tests only).
    pub corrupt: bool,
}

/// The result of one run.
pub struct Outcome {
    /// World runs attempted: the timed worlds (each with its set-up), the
    /// held-out world and the probe worlds.
    pub attempted: u64,
    /// World runs that failed (world error, failed set-up or failed output
    /// check).
    pub failed: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// `(name, value, unit)` of every metric of the mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the traced mode.
    pub spans: Spans,
}

impl Outcome {
    /// Every output check passed and every world completed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.failures.is_empty()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Attempt and failure accounting of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one world run; `failures` empty means it passed.
    fn world(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

/// Set-up samples, taken [`SETUPS_PER_WORLD`] times before every timed
/// world, so that they span the same stretch of the run as the worlds do.
#[derive(Default)]
struct Setups {
    /// Host seconds of each input generation.
    inputs_s: Vec<f64>,
    /// Host seconds of each empty world of the workload's size (spawn and
    /// join only).
    spawn_s: Vec<f64>,
}

impl Setups {
    /// Set up [`SETUPS_PER_WORLD`] times: generate the inputs with `make`,
    /// then spawn and time an empty world of `p` ranks. Returns the last
    /// inputs and the empty worlds' failures, which count against the timed
    /// world the set-up is for.
    fn run<T>(
        &mut self,
        p: usize,
        spans: &mut Spans,
        mut make: impl FnMut(&mut Spans) -> T,
    ) -> (T, Vec<String>) {
        let runner = Runner::new(Engine::default()).deadline(Some(DEADLINE));
        let mut failures = Vec::new();
        let mut inputs = None;
        for _ in 0..SETUPS_PER_WORLD {
            let t = Instant::now();
            inputs = Some(make(spans));
            self.inputs_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let res = spans
                .span("simcomm.spawn", |_| runner.try_run(p, MachineModel::juqueen_like(), |_| ()));
            self.spawn_s.push(t.elapsed().as_secs_f64());
            failures.extend(res.err().map(|e| format!("set-up: {e}")));
        }
        (inputs.expect("at least one set-up"), failures)
    }

    /// Median host seconds of one whole set-up.
    fn setup_s(&self) -> f64 {
        let total: Vec<f64> = self.inputs_s.iter().zip(&self.spawn_s).map(|(a, b)| a + b).collect();
        median(&total)
    }
}

/// Per-run samples shared by both workload kinds.
#[derive(Default)]
struct Samples {
    /// Host seconds of each untraced, passing world.
    host_s: Vec<f64>,
    /// Host seconds of each traced, passing world.
    traced_host_s: Vec<f64>,
    /// Heap allocations of each untraced, passing world.
    allocs: Vec<f64>,
    /// Figures of the first passing world.
    virt: Option<Virtual>,
    /// Traces of the first traced, passing world.
    traces: Vec<simcomm::Trace>,
    /// Bit pattern of the first passing world's deterministic outputs.
    fingerprint: Option<Vec<u64>>,
}

impl Samples {
    /// Compare a passing world's deterministic outputs to the first passing
    /// world's, bit for bit.
    fn same_as_first(&mut self, fp: Vec<u64>) -> Result<(), String> {
        match &self.fingerprint {
            None => {
                self.fingerprint = Some(fp);
                Ok(())
            }
            Some(first) if *first == fp => Ok(()),
            Some(_) => {
                Err("virtual step time or energies differ from an earlier world of the same seed"
                    .into())
            }
        }
    }

    fn add(
        &mut self,
        traced: bool,
        host_s: f64,
        allocs: u64,
        virt: Virtual,
        traces: Vec<simcomm::Trace>,
    ) {
        if traced {
            self.traced_host_s.push(host_s);
            if self.traces.is_empty() {
                self.traces = traces;
            }
        } else {
            self.host_s.push(host_s);
            self.allocs.push(allocs as f64);
        }
        self.virt.get_or_insert(virt);
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let spec = spec(&opts.workload, opts.size)
        .ok_or_else(|| format!("unknown workload '{}' (one of {WORKLOADS:?})", opts.workload))?;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = format!("{}-seed{}-{nanos}", opts.workload, opts.seed);
    let mut spans = Spans::new(run_id, opts.trace);
    let mut tally = Tally::default();
    let mut metrics = spans.span("run", |sp| match &spec {
        Spec::Md(s) => run_md(s, opts, sp, &mut tally),
        Spec::Stencil(s) => run_stencil(s, opts, sp, &mut tally),
    })?;
    // A metric that could not be measured (no world passed) reads 0 and
    // makes the run incorrect.
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            tally.failures.push(format!("{name} could not be measured"));
            *value = 0.0;
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        spans,
    })
}

/// Keep starting worlds until `seconds` have passed (and at least
/// [`MIN_WORLDS`] ran). In traced mode every second world is traced.
fn world_loop(opts: &Opts, mut world: impl FnMut(usize, bool)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_WORLDS || start.elapsed().as_secs_f64() < opts.seconds {
        world(i, opts.trace && i % 2 == 1);
        i += 1;
    }
}

fn run_md(
    s: &MdSpec,
    opts: &Opts,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    // Set-up: input generation plus an empty world's spawn.
    let mut setups = Setups::default();
    let mut setup = |spans: &mut Spans| {
        setups.run(s.procs, spans, |sp| sp.span("particles.setup", |_| s.inputs(opts.seed)))
    };
    let (inputs, mut first_setup) = setup(spans);
    let expect_for = |inputs: &md::MdInputs, sp: &mut Spans| md::MdExpect {
        potential0: sp.span("check.reference", |_| md::reference_potential(inputs)),
        kinetic0: inputs.kinetic0,
        steps: s.steps,
    };
    let expect = expect_for(&inputs, spans);

    let mut samples = Samples::default();
    world_loop(opts, |i, traced| {
        let mut failures = if i == 0 { std::mem::take(&mut first_setup) } else { setup(spans).1 };
        let name = if traced { "world.traced" } else { "world" };
        match spans.span(name, |_| md::run_world(&inputs, traced, DEADLINE)) {
            Err(e) => failures.push(e.to_string()),
            Ok(mut run) => {
                if opts.corrupt && i == 0 {
                    run.energies[0] = f64::from_bits(run.energies[0].to_bits() ^ 1 << 51);
                }
                let mut f = md::check(&run, &expect);
                let mut fp = vec![run.virt.step_s.to_bits()];
                fp.extend(run.energies.iter().map(|e| e.to_bits()));
                if f.is_empty() {
                    f.extend(samples.same_as_first(fp).err());
                }
                if f.is_empty() && failures.is_empty() {
                    samples.add(traced, run.host_s, run.allocs, run.virt, run.traces);
                }
                failures.extend(f);
            }
        }
        tally.world(&format!("world {i}"), failures);
    });

    // The held-out seed must pass every output check too.
    spans.span("held-out", |sp| {
        let ho = s.inputs(held_out_seed(opts.seed));
        let expect = expect_for(&ho, sp);
        let failures = match md::run_world(&ho, false, DEADLINE) {
            Err(e) => vec![e.to_string()],
            Ok(run) => md::check(&run, &expect),
        };
        tally.world("held-out seed", failures);
    });

    let steps = s.steps as f64;
    if !opts.trace {
        let per_world: Vec<f64> = samples.host_s.iter().map(|h| steps / h).collect();
        return end_to_end(
            median(&per_world),
            setups.setup_s(),
            samples.virt.as_ref().map_or(f64::NAN, |v| v.step_s),
            median(&samples.allocs) / steps,
            tally,
        );
    }

    let probes = spans.span("probes", |sp| {
        let res = probes::md_probes(&inputs, DEADLINE);
        if let Ok(out) = &res {
            for p in &out.probes {
                for &(a, b) in &p.intervals {
                    sp.record(p.name, a, b);
                }
            }
        }
        res
    });
    tally.world("probe worlds", probes.as_ref().err().map(|e| e.to_string()).into_iter().collect());
    let probes = probes.unwrap_or(probes::ProbeOut { probes: vec![], fmm: Virtual::default() });
    let probe = |name: &str| probes.probes.iter().find(|p| p.name == name);
    let secs = |name: &str| probe(name).map_or(0.0, |p| median(&p.secs));
    let allocs = |name: &str| {
        probe(name).map_or(0.0, |p| median(&p.allocs.iter().map(|&a| a as f64).collect::<Vec<_>>()))
    };
    let virt = samples.virt.clone().unwrap_or_default();
    let mut m = layer_common(
        &virt,
        &mut samples,
        median(&setups.inputs_s),
        median(&setups.spawn_s),
        steps,
        spans,
    );
    let fcs_run = secs("fcs.run");
    let self_s = (median(&samples.host_s) - secs("fcs.tune") - (steps + 1.0) * fcs_run) / steps;
    let fmm = &probes.fmm;
    m.extend([
        ("psort.sort_s", secs("psort.sort")),
        ("psort.sort_allocs", allocs("psort.sort")),
        ("psort.partition_s", secs("psort.partition")),
        ("psort.partition_allocs", allocs("psort.partition")),
        // psort does not run in the timed world; its virtual time is that of
        // the partition sort inside the FMM probe's Method A runs.
        ("psort.sort_vs", fmm.phase_s("sort:")),
        ("atasp.restore_vs", fmm.phase_s("restore")),
        // `Fcs::resort_planes` runs the `atasp` resort plan, whose phases
        // are "redistribute" and "place".
        ("atasp.resort_vs", virt.phase_s("redistribute") + virt.phase_s("place")),
        ("atasp.resort_s", secs("atasp.resort")),
        ("atasp.resort_allocs", allocs("atasp.resort")),
        ("fmm.run_s", secs("fmm.run")),
        ("fmm.run_allocs", allocs("fmm.run")),
        ("fmm.near_vs", fmm.phase_s("near")),
        ("fmm.far_vs", fmm.phase_s("far")),
        ("pmsolver.run_s", secs("pmsolver.run")),
        ("pmsolver.run_allocs", allocs("pmsolver.run")),
        ("pmsolver.ghosts_vs", virt.phase_s("ghosts")),
        ("pmsolver.near_vs", virt.phase_s("near")),
        ("pmsolver.far_vs", virt.phase_s("far")),
        ("fcs.tune_s", secs("fcs.tune")),
        ("fcs.run_s", fcs_run),
        ("mdsim.integrate_vs", virt.phase_s("integrate")),
        ("mdsim.self_s", self_s),
    ]);
    Ok(per_layer(m))
}

fn run_stencil(
    s: &StencilSpec,
    opts: &Opts,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    // Set-up: the stencil's inputs are the seed alone; set-up is the spawn.
    let mut setups = Setups::default();
    let mut first_setup = setups.run(s.procs, spans, |_| ()).1;

    let mut samples = Samples::default();
    let mut exchange = vec![];
    world_loop(opts, |i, traced| {
        let mut failures = if i == 0 {
            std::mem::take(&mut first_setup)
        } else {
            setups.run(s.procs, spans, |_| ()).1
        };
        let name = if traced { "world.traced" } else { "world" };
        let corrupt = opts.corrupt && i == 0;
        match spans.span(name, |_| stencil::run_world(s, opts.seed, traced, corrupt, DEADLINE)) {
            Err(e) => failures.push(e.to_string()),
            Ok(run) => {
                let mut f = stencil::check(s, &run);
                let fp = vec![run.virt.step_s.to_bits(), run.virt.bytes_per_step.to_bits()];
                if f.is_empty() {
                    f.extend(samples.same_as_first(fp).err());
                }
                if f.is_empty() && failures.is_empty() {
                    if !traced {
                        exchange.extend(stencil::exchange_pairs(&run.ranks));
                    }
                    samples.add(traced, run.host_s, run.allocs, run.virt, run.traces);
                }
                failures.extend(f);
            }
        }
        tally.world(&format!("world {i}"), failures);
    });

    spans.span("held-out", |_| {
        let seed = held_out_seed(opts.seed);
        let failures = match stencil::run_world(s, seed, false, false, DEADLINE) {
            Err(e) => vec![e.to_string()],
            Ok(run) => stencil::check(s, &run),
        };
        tally.world("held-out seed", failures);
    });

    let steps = s.steps as f64;
    if !opts.trace {
        let per_world: Vec<f64> = samples.host_s.iter().map(|h| steps / h).collect();
        return end_to_end(
            median(&per_world),
            setups.setup_s(),
            samples.virt.as_ref().map_or(f64::NAN, |v| v.step_s),
            median(&samples.allocs) / steps,
            tally,
        );
    }
    let virt = samples.virt.clone().unwrap_or_default();
    let mut m = layer_common(&virt, &mut samples, 0.0, median(&setups.spawn_s), steps, spans);
    let rank0: Vec<f64> = exchange.iter().map(|e| e.0).collect();
    let max: Vec<f64> = exchange.iter().map(|e| e.1).collect();
    m.extend([("simcomm.exchange_s", median(&rank0)), ("simcomm.exchange_max_s", median(&max))]);
    Ok(per_layer(m))
}

/// The end-to-end metrics, in [`END_TO_END`] order.
fn end_to_end(
    steps_per_s: f64,
    setup_s: f64,
    virtual_step_s: f64,
    allocs_per_step: f64,
    tally: &Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let values = [
        steps_per_s,
        setup_s,
        virtual_step_s,
        allocs_per_step,
        alloc::peak_rss_mib()?,
        ratio((tally.attempted - tally.failed) as f64, tally.attempted as f64),
    ];
    Ok(END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect())
}

/// The per-layer metrics every workload reports: set-up, `simcomm` traffic
/// and time shares, the critical path, and the tracing cost.
fn layer_common(
    virt: &Virtual,
    samples: &mut Samples,
    inputs_s: f64,
    spawn_s: f64,
    steps: f64,
    spans: &mut Spans,
) -> Vec<(&'static str, f64)> {
    let traces = std::mem::take(&mut samples.traces);
    let t = Instant::now();
    let analysis = (!traces.is_empty())
        .then(|| spans.span("simtrace.analyze", |_| simtrace::analyze(&traces)));
    let analyze_s = t.elapsed().as_secs_f64();
    let (cp_comm, cp_wait) = analysis.map_or((0.0, 0.0), |a| (a.critpath_comm, a.critpath_wait));
    vec![
        ("particles.setup_s", inputs_s),
        ("simcomm.spawn_s", spawn_s),
        ("simcomm.msgs_per_step", virt.msgs_per_step),
        ("simcomm.bytes_per_step", virt.bytes_per_step),
        ("simcomm.coll_ops_per_step", virt.coll_ops_per_step),
        ("simcomm.wait_share", virt.wait_share),
        ("simcomm.critpath_comm_vs", cp_comm / steps),
        ("simcomm.critpath_wait_vs", cp_wait / steps),
        ("simcomm.plan_reuse", virt.plan_reuse),
        ("simcomm.pool_reuse", virt.pool_reuse),
        ("simtrace.analyze_s", analyze_s),
        ("trace.overhead", median(&samples.traced_host_s) / median(&samples.host_s)),
    ]
}

/// Order named per-layer values as [`PER_LAYER`] lists them; a layer the
/// workload does not run reads 0.
fn per_layer(values: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        // `+ 0.0` turns a negative zero (an empty sum) into a plain 0.
        .map(|&(n, u)| (n, values.iter().find(|(k, _)| *k == n).map_or(0.0, |v| v.1 + 0.0), u))
        .collect()
}
