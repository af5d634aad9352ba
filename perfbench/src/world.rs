//! What the benchmark reads from one world's public `RunOutput`: the exact
//! virtual-time and traffic numbers, and the clock-decomposition check.

use std::time::Instant;

use simcomm::{RankStats, RunOutput};

/// Per-step virtual and traffic figures of one world run.
#[derive(Clone, Debug, Default)]
pub struct Virtual {
    /// Virtual makespan divided by the workload's timesteps.
    pub step_s: f64,
    /// Point-to-point messages sent per step, summed over ranks.
    pub msgs_per_step: f64,
    /// Point-to-point bytes sent per step, summed over ranks.
    pub bytes_per_step: f64,
    /// Collective operations entered per step, summed over ranks.
    pub coll_ops_per_step: f64,
    /// Rendezvous wait over all ranks' clocks.
    pub wait_share: f64,
    /// Plan executions over plan builds plus executions.
    pub plan_reuse: f64,
    /// Pooled buffer bytes reused over reused plus newly allocated.
    pub pool_reuse: f64,
    /// Per-step virtual seconds of each phase (maximum over ranks).
    pub phases: Vec<(&'static str, f64)>,
}

impl Virtual {
    /// Read the figures of `out`, a world that ran `steps` timesteps.
    pub fn of<R>(out: &RunOutput<R>, steps: usize) -> Virtual {
        let steps = steps as f64;
        let sum = |f: fn(&RankStats) -> u64| out.stats.iter().map(f).sum::<u64>() as f64;
        let wait: f64 = out.stats.iter().map(|s| s.wait_seconds).sum();
        let clock: f64 = out.clocks.iter().sum();
        let builds = sum(|s| s.plan_builds);
        let execs = sum(|s| s.plan_execs);
        let reused = sum(|s| s.bytes_reused);
        let grown = sum(|s| s.bytes_grown);
        Virtual {
            step_s: out.makespan() / steps,
            msgs_per_step: sum(|s| s.p2p_sent_msgs) / steps,
            bytes_per_step: sum(|s| s.p2p_sent_bytes) / steps,
            coll_ops_per_step: sum(|s| s.coll_ops) / steps,
            wait_share: crate::stats::ratio(wait, clock),
            plan_reuse: crate::stats::ratio(execs, builds + execs),
            pool_reuse: crate::stats::ratio(reused, reused + grown),
            phases: out.phase_table().iter().map(|p| (p.name, p.max_seconds / steps)).collect(),
        }
    }

    /// Per-step seconds of the phases whose name starts with `prefix`
    /// (0 when the workload has no such phase).
    pub fn phase_s(&self, prefix: &str) -> f64 {
        self.phases.iter().filter(|(n, _)| n.starts_with(prefix)).fold(0.0, |acc, (_, s)| acc + s)
    }
}

/// Host seconds from the latest rank start to the latest rank end, given
/// every rank's `(start, end)`: the world's work once all rank threads run,
/// without their spawn and join. `NaN` for an empty world.
pub fn busy_s(intervals: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let (mut start, mut end) = (None, None);
    for (s, e) in intervals {
        start = start.max(Some(s));
        end = end.max(Some(e));
    }
    match (start, end) {
        (Some(s), Some(e)) => e.saturating_duration_since(s).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// The accounting invariant `comm + wait + compute == clock` on every rank,
/// within `1e-6` of the makespan. Returns a description of the first
/// violation.
pub fn check_clock_decomposition(clocks: &[f64], stats: &[RankStats]) -> Result<(), String> {
    let makespan = clocks.iter().copied().fold(0.0, f64::max);
    for (rank, (clock, s)) in clocks.iter().zip(stats).enumerate() {
        let err = (clock - s.total_seconds()).abs();
        if err.is_nan() || err > 1e-6 * makespan.max(1e-9) {
            return Err(format!(
                "rank {rank}: comm + wait + compute = {} s but the clock reads {clock} s",
                s.total_seconds()
            ));
        }
    }
    Ok(())
}
