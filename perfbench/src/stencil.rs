//! The Fig. 9 stencil workload: every step, each rank ships a boundary
//! payload to its 26 grid neighbours once through `Comm::alltoallv_bytes` and
//! once through `Comm::neighbor_exchange_bytes`, from pooled buffers.

use std::time::{Duration, Instant};

use particles::systems::splitmix64;
use simcomm::{CartGrid, Comm, Engine, MachineModel, PooledBuf, Runner, Trace, Work, WorldError};

use crate::world::{check_clock_decomposition, Virtual};

const TAG: u64 = 0x7065_7266;
/// Smallest payload per rank pair, in bytes.
const MIN_BYTES: usize = 1024;
/// Largest payload per rank pair, in bytes.
const MAX_BYTES: usize = 1536;

/// One stencil workload configuration, on the juqueen-like torus model.
#[derive(Clone, Debug)]
pub struct StencilSpec {
    /// Simulated ranks (a balanced 3-D grid with 26 distinct neighbours).
    pub procs: usize,
    /// Exchange steps per world.
    pub steps: usize,
}

/// Payload length from `src` to `dst`, drawn from the seed.
fn payload_len(seed: u64, src: usize, dst: usize) -> usize {
    let h = splitmix64(seed ^ ((src as u64) << 32 | dst as u64));
    MIN_BYTES + (h % (MAX_BYTES - MIN_BYTES + 1) as u64) as usize
}

/// First byte and stride of the payload `src` sends `dst` in `step`.
fn pattern(seed: u64, src: usize, dst: usize, step: usize) -> (u8, u8) {
    let h = splitmix64(seed ^ splitmix64((src * 1_000_003 + dst) as u64 ^ (step as u64) << 48));
    (h as u8, (h >> 8) as u8 | 1)
}

/// What one rank reports back.
#[derive(Clone, Debug, Default)]
pub struct RankOut {
    /// Payloads that arrived with the right sender, size and content through
    /// both exchanges.
    pub good: u64,
    /// Description of the first bad payload, if any.
    pub error: Option<String>,
    /// Host seconds of each exchange call on this rank.
    pub exchange_s: Vec<f64>,
    /// When this rank started and ended its steps.
    pub busy: Option<(Instant, Instant)>,
}

/// What one stencil world run yields to the benchmark.
pub struct StencilRun {
    /// Host seconds from the start of the last rank to start to the end of
    /// the last rank to end, so the spawn and join of the rank threads are
    /// not counted.
    pub host_s: f64,
    /// Heap allocations during the run, all threads.
    pub allocs: u64,
    /// Per-rank reports.
    pub ranks: Vec<RankOut>,
    /// Final virtual clocks.
    pub clocks: Vec<f64>,
    /// Per-rank statistics.
    pub stats: Vec<simcomm::RankStats>,
    /// Virtual and traffic figures.
    pub virt: Virtual,
    /// Communication traces (traced runs only).
    pub traces: Vec<Trace>,
}

/// Fill `sends` with this rank's payloads for `step`, one per partner.
fn fill(
    comm: &mut Comm,
    seed: u64,
    step: usize,
    partners: &[usize],
    sends: &mut Vec<(usize, PooledBuf)>,
) -> usize {
    let me = comm.rank();
    let mut total = 0;
    for &q in partners {
        let len = payload_len(seed, me, q);
        let (first, stride) = pattern(seed, me, q, step);
        let mut buf = comm.buf_acquire(q, len);
        buf.extend((0..len).map(|i| first.wrapping_add(stride.wrapping_mul(i as u8))));
        sends.push((q, buf));
        total += len;
    }
    total
}

/// Check what arrived: one payload per partner, in partner order, each of
/// the right size and content.
fn verify(
    seed: u64,
    step: usize,
    me: usize,
    partners: &[usize],
    got: &[(usize, PooledBuf)],
) -> Result<(), String> {
    if got.len() != partners.len() {
        return Err(format!("rank {me}: {} payloads for {} partners", got.len(), partners.len()));
    }
    for (&q, (src, buf)) in partners.iter().zip(got) {
        if *src != q {
            return Err(format!("rank {me}: payload from {src} where {q} was expected"));
        }
        let len = payload_len(seed, q, me);
        let (first, stride) = pattern(seed, q, me, step);
        let ok = buf.len() == len
            && buf
                .iter()
                .enumerate()
                .all(|(i, &b)| b == first.wrapping_add(stride.wrapping_mul(i as u8)));
        if !ok {
            return Err(format!("rank {me}: step {step} payload from {q} is corrupt"));
        }
    }
    Ok(())
}

/// Run one stencil world. With `corrupt`, rank 0 flips one received byte in
/// the first step before checking it (the checks' own test).
pub fn run_world(
    spec: &StencilSpec,
    seed: u64,
    traced: bool,
    corrupt: bool,
    deadline: Duration,
) -> Result<StencilRun, WorldError> {
    let runner = Runner::new(Engine::default()).traced(traced).deadline(Some(deadline));
    let p = spec.procs;
    let a0 = crate::alloc::allocs();
    let out = runner.try_run(p, MachineModel::juqueen_like(), |comm| {
        let start = Instant::now();
        let me = comm.rank();
        let partners = CartGrid::balanced(p).neighbors26(me);
        let mut out =
            RankOut { exchange_s: Vec::with_capacity(2 * spec.steps), ..Default::default() };
        let (mut sends, mut via_coll) = comm.take_byte_pairs();
        let mut via_p2p = Vec::with_capacity(partners.len());
        for step in 0..spec.steps {
            let bytes = fill(comm, seed, step, &partners, &mut sends);
            comm.compute(Work::ByteCopy, bytes as f64);
            let t = Instant::now();
            comm.alltoallv_bytes(&mut sends, &mut via_coll);
            out.exchange_s.push(t.elapsed().as_secs_f64());

            fill(comm, seed, step, &partners, &mut sends);
            comm.compute(Work::ByteCopy, bytes as f64);
            let t = Instant::now();
            comm.neighbor_exchange_bytes(&partners, &mut sends, TAG, &mut via_p2p);
            out.exchange_s.push(t.elapsed().as_secs_f64());

            if corrupt && me == 0 && step == 0 {
                if let Some(b) = via_coll.first_mut().and_then(|(_, buf)| buf.first_mut()) {
                    *b ^= 1;
                }
            }
            let same = via_coll.iter().zip(&via_p2p).all(|(a, b)| a.0 == b.0 && a.1[..] == b.1[..]);
            let checked = verify(seed, step, me, &partners, &via_coll)
                .and_then(|()| verify(seed, step, me, &partners, &via_p2p))
                .and_then(|()| {
                    same.then_some(()).ok_or_else(|| {
                        format!(
                            "rank {me}: step {step}: the two exchanges delivered different data"
                        )
                    })
                });
            match checked {
                Ok(()) => out.good += partners.len() as u64,
                Err(e) => {
                    out.error.get_or_insert(e);
                }
            }
            for (src, buf) in via_coll.drain(..).chain(via_p2p.drain(..)) {
                comm.buf_release(src, buf);
            }
        }
        comm.put_byte_pairs(sends, via_coll);
        out.busy = Some((start, Instant::now()));
        out
    })?;
    let allocs = crate::alloc::allocs() - a0;
    let host_s = crate::world::busy_s(out.results.iter().filter_map(|r| r.busy));
    let virt = Virtual::of(&out, spec.steps);
    Ok(StencilRun {
        host_s,
        allocs,
        ranks: out.results,
        clocks: out.clocks,
        stats: out.stats,
        virt,
        traces: out.traces,
    })
}

/// Combine per-rank exchange times into (rank 0, maximum over ranks) per call.
pub fn exchange_pairs(ranks: &[RankOut]) -> Vec<(f64, f64)> {
    let calls = ranks.first().map_or(0, |r| r.exchange_s.len());
    (0..calls)
        .map(|c| {
            let max = ranks.iter().map(|r| r.exchange_s[c]).fold(0.0, f64::max);
            (ranks[0].exchange_s[c], max)
        })
        .collect()
}

/// The output checks of one stencil run: every rank received 26 correct
/// payloads per step through each exchange, and the clock decomposition
/// holds on every rank. Returns every failed check.
pub fn check(spec: &StencilSpec, run: &StencilRun) -> Vec<String> {
    let mut failures: Vec<String> = run.ranks.iter().filter_map(|r| r.error.clone()).collect();
    let want = 26 * spec.steps as u64;
    if let Some((rank, r)) = run.ranks.iter().enumerate().find(|(_, r)| r.good != want) {
        failures.push(format!("rank {rank}: {} good payloads of {want}", r.good));
    }
    if let Err(e) = check_clock_decomposition(&run.clocks, &run.stats) {
        failures.push(e);
    }
    failures
}
