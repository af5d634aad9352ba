//! # bench — harnesses reproducing the paper's evaluation
//!
//! One binary per figure of the paper's Sect. IV (`fig6`, `fig7`, `fig8`,
//! `fig9`), an `ablation` binary for the design-choice comparisons, and
//! Criterion micro-benchmarks for the computational kernels.
//!
//! The figure binaries print the same rows/series the paper plots and write
//! CSV files. Runtimes are **virtual seconds** of the simulated machine
//! models (`juropa_like`, `juqueen_like`); see `DESIGN.md` for the
//! substitution rationale. Default workload sizes are scaled down from the
//! paper's 829 440-particle system so every figure regenerates on a laptop in
//! minutes; `--cells`/`--steps`/`--procs` restore paper scale.

#![warn(missing_docs)]

pub mod cli;
pub mod gate;
pub mod json;
pub mod microbench;
pub mod report;
pub mod selftime;

use std::collections::HashMap;
use std::io::Write;

use mdsim::StepRecord;
pub use report::{
    format_phase_table, BlameRow, CritPath, PhaseRow, RankRow, RunEntry, RunReport, SelftimeRow,
};
pub use selftime::{alloc_counters, CountingAlloc, Selftime};

/// Every binary of this crate counts its heap allocations (see
/// [`selftime`]): the `harness_selftime` report section is how the CI
/// perf-smoke job catches per-step allocation regressions.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// A tiny command-line flag parser: `--key value` pairs plus `--flag`
/// booleans. Unknown keys panic with a usage hint.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    allowed: Vec<&'static str>,
}

impl Args {
    /// Parse `std::env::args`, allowing only the given keys.
    pub fn parse(allowed: &[&'static str]) -> Args {
        Self::try_parse(allowed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse `std::env::args`, returning a usage error instead of panicking
    /// on an unknown or malformed option. Binaries with a real `--help` (like
    /// `commstats`) use this to print usage and exit nonzero gracefully.
    pub fn try_parse(allowed: &[&'static str]) -> Result<Args, String> {
        Self::try_parse_from(std::env::args().skip(1).collect(), allowed)
    }

    /// [`Args::try_parse`] over an explicit argument vector (testable form).
    pub fn try_parse_from(argv: Vec<String>, allowed: &[&'static str]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{a}' (allowed: {allowed:?})"))?;
            if !allowed.contains(&key) {
                return Err(format!("unknown option '--{key}' (allowed: {allowed:?})"));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Args { values, flags, allowed: allowed.to_vec() })
    }

    /// Get a typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.try_get(key, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Args::get`], returning a usage error instead of panicking on an
    /// unparsable value (the `cli` wrapper turns this into exit code 2).
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Debug,
    {
        assert!(self.allowed.contains(&key), "option '{key}' not declared");
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{key}: {e:?}")),
        }
    }

    /// Was a boolean flag given?
    pub fn flag(&self, key: &str) -> bool {
        assert!(self.allowed.contains(&key), "flag '{key}' not declared");
        self.flags.iter().any(|f| f == key)
    }

    /// Comma-separated list of usizes.
    pub fn list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.try_list(key, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Args::list`], returning a usage error instead of panicking on an
    /// unparsable entry.
    pub fn try_list(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        assert!(self.allowed.contains(&key), "option '{key}' not declared");
        match self.values.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse().map_err(|e| format!("bad entry '{x}' for --{key}: {e:?}"))
                })
                .collect(),
        }
    }

    /// The `--engine` selection every harness accepts:
    /// `threaded` (one OS thread per rank, the historical default) or
    /// `discrete` (the cooperative discrete-event scheduler for paper-scale
    /// rank counts). Both produce bitwise-identical results, clocks and
    /// reports; see `docs/ARCHITECTURE.md`.
    pub fn engine(&self, default: simcomm::Engine) -> simcomm::Engine {
        self.try_engine(default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Args::engine`], returning a usage error instead of panicking on an
    /// unknown engine name.
    pub fn try_engine(&self, default: simcomm::Engine) -> Result<simcomm::Engine, String> {
        assert!(self.allowed.contains(&"engine"), "option 'engine' not declared");
        match self.values.get("engine") {
            None => Ok(default),
            Some(v) => simcomm::Engine::from_name(v).ok_or_else(|| {
                format!("bad value for --engine: '{v}' (use 'threaded' or 'discrete')")
            }),
        }
    }
}

/// Run a full MD simulation world and return the per-step records aggregated
/// over ranks (component-wise maxima), the global RMS drift, and a report
/// entry (makespan, per-phase and per-rank aggregates — see [`RunEntry`])
/// ready to be pushed into a [`RunReport`].
pub fn run_md_world(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
) -> (Vec<StepRecord>, f64, RunEntry) {
    let (agg, rms, _, entry, _) =
        run_md_world_inner(model, engine, p, crystal, dist, cfg, None, false);
    (agg, rms, entry)
}

/// Analyzed variant of [`run_md_world`]: when `analyze` is set the world runs
/// traced, the entry's [`RunEntry::critpath`] is filled from the
/// happens-before analysis, and the per-rank traces are returned (e.g. for a
/// [`TimelineSink`]). With `analyze == false` this is exactly
/// [`run_md_world`] (traces empty, `critpath` `None`) — harnesses call this
/// unconditionally and let the flag decide.
pub fn run_md_world_analyzed(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    analyze: bool,
) -> (Vec<StepRecord>, f64, RunEntry, Vec<simcomm::Trace>) {
    let (agg, rms, _, entry, traces) =
        run_md_world_inner(model, engine, p, crystal, dist, cfg, None, analyze);
    (agg, rms, entry, traces)
}

/// Faulted variant of [`run_md_world`]: the same MD workload executed under
/// a [`simcomm::FaultPlan`]. Additionally returns the number of
/// rollback-and-replay recoveries the driver performed (collective —
/// identical on every rank).
pub fn run_md_world_faulted(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    fault: simcomm::FaultPlan,
) -> (Vec<StepRecord>, u64, RunEntry) {
    let (agg, _, recoveries, entry, _) =
        run_md_world_inner(model, engine, p, crystal, dist, cfg, Some(fault), false);
    (agg, recoveries, entry)
}

/// Faulted **and** analyzed variant of [`run_md_world`] (see
/// [`run_md_world_analyzed`] for the `analyze` contract).
#[allow(clippy::too_many_arguments)]
pub fn run_md_world_faulted_analyzed(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    fault: simcomm::FaultPlan,
    analyze: bool,
) -> (Vec<StepRecord>, u64, RunEntry, Vec<simcomm::Trace>) {
    let (agg, _, recoveries, entry, traces) =
        run_md_world_inner(model, engine, p, crystal, dist, cfg, Some(fault), analyze);
    (agg, recoveries, entry, traces)
}

/// Supervised variant of the `run_md_world*` family: the typed-error entry
/// point campaign runs use. Failures (a rank panic, a virtual deadlock, a
/// refused thread spawn, or an elapsed `deadline`) come back as a
/// [`simcomm::WorldError`] value instead of a panic, so a supervisor can
/// classify, journal and retry the run.
#[allow(clippy::too_many_arguments)]
pub fn try_run_md_world(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    fault: Option<simcomm::FaultPlan>,
    deadline: Option<std::time::Duration>,
) -> Result<(Vec<StepRecord>, f64, u64, RunEntry), simcomm::WorldError> {
    let (agg, rms, recoveries, entry, _) =
        try_run_md_world_inner(model, engine, p, crystal, dist, cfg, fault, false, deadline)?;
    Ok((agg, rms, recoveries, entry))
}

/// Shared core of the `run_md_world*` family. Tracing is clock-invisible, so
/// the records, clocks and report entry are bitwise-identical whether or not
/// `traced` is set — the traced run merely also yields the event streams.
#[allow(clippy::too_many_arguments)]
fn run_md_world_inner(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    fault: Option<simcomm::FaultPlan>,
    traced: bool,
) -> (Vec<StepRecord>, f64, u64, RunEntry, Vec<simcomm::Trace>) {
    try_run_md_world_inner(model, engine, p, crystal, dist, cfg, fault, traced, None)
        .unwrap_or_else(|e| panic!("simcomm world failed: {e}"))
}

/// Everything an MD world run yields: aggregated step records, the RMS
/// displacement, the recovery count, the report entry, and (when traced)
/// the event streams.
type MdWorldOutput = (Vec<StepRecord>, f64, u64, RunEntry, Vec<simcomm::Trace>);

/// Result-returning core: build the world, run it (optionally supervised by
/// a wall-clock deadline), and condense the output into step records and a
/// report entry.
#[allow(clippy::too_many_arguments)]
fn try_run_md_world_inner(
    model: simcomm::MachineModel,
    engine: simcomm::Engine,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
    fault: Option<simcomm::FaultPlan>,
    traced: bool,
    deadline: Option<std::time::Duration>,
) -> Result<MdWorldOutput, simcomm::WorldError> {
    let bbox = particles::ParticleSource::system_box(crystal);
    let crystal = crystal.clone();
    let cfg = cfg.clone();
    let mut runner = simcomm::Runner::new(engine).traced(traced).deadline(deadline);
    if let Some(fault) = fault {
        runner = runner.faulted(fault);
    }
    let out = runner.try_run(p, model, move |comm| {
        let dims = simcomm::CartGrid::balanced(p).dims();
        let set = particles::local_set(&crystal, dist, comm.rank(), p, dims);
        mdsim::simulate(comm, bbox, set, &cfg)
    })?;
    let per_rank: Vec<Vec<StepRecord>> = out.results.iter().map(|r| r.records.clone()).collect();
    let agg = aggregate_steps(&per_rank);
    let rms = out.results[0].rms_displacement;
    let recoveries = out.results[0].recoveries;
    let mut entry = RunEntry::from_run(&out);
    let traces = out.traces;
    if traced {
        attach_analysis(&mut entry, &traces);
    }
    Ok((agg, rms, recoveries, entry, traces))
}

/// Run the happens-before trace analysis and record its condensed form
/// (critical-path split + top blame rows) on the report entry. Returns the
/// full [`simtrace::Analysis`] for harnesses that print more detail.
pub fn attach_analysis(entry: &mut RunEntry, traces: &[simcomm::Trace]) -> simtrace::Analysis {
    let analysis = simtrace::analyze(traces);
    entry.critpath = Some(CritPath::from_analysis(&analysis));
    analysis
}

/// Finish one raw [`simcomm::Runner`] run: build its report entry, attach the
/// critical-path analysis when the run was traced, feed the timeline sink,
/// and push the entry under `label`. The shared tail of every run site in the
/// harnesses that drive worlds directly (ablation, redistribution, plancache,
/// scale).
pub fn record_run<R>(
    label: String,
    out: simcomm::RunOutput<R>,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) {
    let mut entry = RunEntry::from_run(&out);
    // An untraced world still returns one (empty) trace per rank; only a
    // traced one has a critical path to attach.
    if out.traces.iter().any(|t| !t.spans.is_empty()) {
        attach_analysis(&mut entry, &out.traces);
    }
    timeline.push(label.clone(), out.traces);
    report.push(label, entry);
}

/// Accumulates the labelled traces of a harness's runs and writes them as a
/// single Chrome/Perfetto timeline on [`TimelineSink::finish`] — the
/// `--perfetto <path>` behaviour every figure binary shares. Inactive (all
/// methods no-ops) when the flag was not given.
pub struct TimelineSink {
    path: Option<std::path::PathBuf>,
    runs: Vec<(String, Vec<simcomm::Trace>)>,
}

impl TimelineSink {
    /// Build from the harness arguments (`--perfetto <path>`; the key must be
    /// in the allowed set).
    pub fn from_args(args: &Args) -> TimelineSink {
        let path: String = args.get("perfetto", String::new());
        Self::from_path(path)
    }

    /// Build from an explicit `--perfetto` value (empty = inactive) — the
    /// [`cli`] module's construction path.
    pub fn from_path(path: String) -> TimelineSink {
        TimelineSink { path: (!path.is_empty()).then(|| path.into()), runs: Vec::new() }
    }

    /// Is a timeline being collected? (Harnesses fold this into their
    /// `--analyze` decision: `--perfetto` implies tracing.)
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Record one run's traces under a timeline label (one Perfetto process
    /// per pushed run). Drops the traces when inactive.
    pub fn push(&mut self, label: impl Into<String>, traces: Vec<simcomm::Trace>) {
        if self.active() {
            self.runs.push((label.into(), traces));
        }
    }

    /// Write the collected timeline (no-op when inactive).
    pub fn finish(self) {
        let Some(path) = self.path else { return };
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        let runs: Vec<(&str, &[simcomm::Trace])> =
            self.runs.iter().map(|(l, t)| (l.as_str(), t.as_slice())).collect();
        simtrace::write_perfetto(std::io::BufWriter::new(file), &runs)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let events: usize = self.runs.iter().flat_map(|(_, t)| t).map(|t| t.events.len()).sum();
        println!(
            "wrote Perfetto timeline {} ({} runs, {events} events) — open at \
             https://ui.perfetto.dev",
            path.display(),
            self.runs.len()
        );
    }
}

/// Print the one-line report summary every harness emits after writing its
/// JSON report: path, entry count, and the worst accounting error (see
/// [`RunEntry::decomposition_error`]).
pub fn report_summary(path: &std::path::Path, report: &RunReport) {
    println!(
        "wrote {} ({} runs; phase times sum to rank clocks within {:.1e} s)",
        path.display(),
        report.runs.len(),
        report.decomposition_error().max(1e-15)
    );
}

/// Aggregate per-rank step records into per-step maxima (the slowest rank
/// determines the parallel runtime of each component).
pub fn aggregate_steps(per_rank: &[Vec<StepRecord>]) -> Vec<StepRecord> {
    assert!(!per_rank.is_empty());
    let steps = per_rank[0].len();
    (0..steps)
        .map(|s| {
            let mut agg = StepRecord { step: per_rank[0][s].step, ..StepRecord::default() };
            for r in per_rank {
                agg.sort = agg.sort.max(r[s].sort);
                agg.restore = agg.restore.max(r[s].restore);
                agg.resort = agg.resort.max(r[s].resort);
                agg.total = agg.total.max(r[s].total);
                agg.max_move = agg.max_move.max(r[s].max_move);
                agg.energy = r[s].energy; // identical on every rank
                agg.resorted = r[s].resorted;
            }
            agg
        })
        .collect()
}

/// Sum of a field over records `from..` (skipping warm-up entries).
pub fn sum_from(records: &[StepRecord], from: usize, f: impl Fn(&StepRecord) -> f64) -> f64 {
    records[from.min(records.len())..].iter().map(f).sum()
}

/// Write CSV rows to `results/<name>.csv` (header + rows of f64 columns).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
    path
}

/// Format a duration in seconds with engineering-style precision.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s >= 0.1 {
        format!("{s:.3}")
    } else if s >= 1e-4 {
        format!("{:.3}m", s * 1e3)
    } else {
        format!("{:.3}u", s * 1e6)
    }
}

/// Print a header banner for a figure harness.
pub fn banner(title: &str, detail: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("{detail}");
    println!("(virtual seconds on the simulated machine model; shapes, not");
    println!(" absolute values, are comparable to the paper — see DESIGN.md)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_takes_maxima() {
        let r1 = vec![StepRecord { step: 0, sort: 1.0, total: 5.0, ..Default::default() }];
        let r2 = vec![StepRecord { step: 0, sort: 2.0, total: 4.0, ..Default::default() }];
        let agg = aggregate_steps(&[r1, r2]);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].sort, 2.0);
        assert_eq!(agg[0].total, 5.0);
    }

    #[test]
    fn sum_from_skips_prefix() {
        let recs = vec![
            StepRecord { total: 1.0, ..Default::default() },
            StepRecord { total: 2.0, ..Default::default() },
            StepRecord { total: 4.0, ..Default::default() },
        ];
        assert_eq!(sum_from(&recs, 1, |r| r.total), 6.0);
        assert_eq!(sum_from(&recs, 0, |r| r.total), 7.0);
        assert_eq!(sum_from(&recs, 10, |r| r.total), 0.0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0), "0");
        assert_eq!(fmt_secs(1.5), "1.500");
        assert!(fmt_secs(0.0015).ends_with('m'));
        assert!(fmt_secs(1.5e-6).ends_with('u'));
    }
}
