//! Shared pieces of the workloads: the tenant roster, seeded inputs,
//! exact-sample statistics, backend digests and the result record.

use crate::probe::{TracedScheme, TracedStore};
use crate::trace;
use ae_api::{BlockRepo, RedundancyScheme};
use ae_baselines::{ReedSolomon, Replication};
use ae_blocks::crc32;
use ae_core::Code;
use ae_lattice::Config;
use ae_service::SplitMix64;
use ae_store::MemStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Block size every workload archives with.
pub const BLOCK: usize = 4096;

/// Scheme family of a tenant; the index into [`trace::FAMILIES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// AE(3,2,5).
    Ae = 0,
    /// RS(10,4).
    Rs = 1,
    /// 3-way replication.
    Rep = 2,
}

/// The eight-tenant roster of `ingest` and `serve`: four AE(3,2,5), two
/// RS(10,4), two 3-way replication. Even and odd tenants hold the same
/// mix, so each of the two ingest clients (and each of the two service
/// shards, `tenant % 2`) owns one tenant of each kind plus a second AE.
pub const ROSTER: [Family; 8] = [
    Family::Ae,
    Family::Ae,
    Family::Rs,
    Family::Rs,
    Family::Rep,
    Family::Rep,
    Family::Ae,
    Family::Ae,
];

/// A fresh scheme instance, plus the concrete RS handle for its decode
/// cache counters.
pub fn new_scheme(fam: Family) -> (Arc<dyn RedundancyScheme>, Option<Arc<ReedSolomon>>) {
    match fam {
        Family::Ae => (
            Arc::new(Code::new(
                Config::new(3, 2, 5).expect("AE(3,2,5) is valid"),
                BLOCK,
            )),
            None,
        ),
        Family::Rs => {
            let rs = Arc::new(ReedSolomon::new(10, 4).expect("RS(10,4) is valid"));
            (rs.clone(), Some(rs))
        }
        Family::Rep => (Arc::new(Replication::new(3)), None),
    }
}

/// `scheme`, behind a span probe when tracing is on.
pub fn probe_scheme(scheme: Arc<dyn RedundancyScheme>, fam: Family) -> Arc<dyn RedundancyScheme> {
    if trace::enabled() {
        Arc::new(TracedScheme::new(scheme, fam as usize))
    } else {
        scheme
    }
}

/// The backend every archive of a workload writes through, behind a span
/// probe when tracing is on.
pub fn probe_store(mem: &Arc<MemStore>) -> Arc<dyn BlockRepo + Send + Sync> {
    if trace::enabled() {
        Arc::new(TracedStore::new(Arc::clone(mem)))
    } else {
        Arc::clone(mem) as Arc<dyn BlockRepo + Send + Sync>
    }
}

/// `n` file sizes evenly spaced over `lo..=hi`, smallest first: a size
/// mix that does not depend on the seed.
pub fn spaced_sizes(n: u64, lo: usize, hi: usize) -> Vec<usize> {
    let (lo, hi) = (lo as u64, hi as u64);
    (0..n)
        .map(|k| (lo + (hi - lo) * (2 * k + 1) / (2 * n)) as usize)
        .collect()
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.below(k as u64 + 1) as usize);
    }
}

/// `len` seeded bytes.
pub fn payload(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

/// Exact-sample latency statistics, in milliseconds.
#[derive(Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    /// Records one latency.
    pub fn push_s(&mut self, seconds: f64) {
        self.ms.push(seconds * 1e3);
    }

    /// Appends another sample set.
    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Median and 99th percentile, each taken per window of [`WINDOW`]
    /// consecutive samples (a short tail joins the last window) and
    /// reported as the lower quartile over windows ([`best_quartile`]).
    /// With fewer than `WINDOW` samples there is one window.
    pub fn windowed_p50_p99(&self) -> (f64, f64) {
        let n = (self.ms.len() / WINDOW).max(1);
        let (mut p50, mut p99) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for w in 0..n {
            let end = if w + 1 == n {
                self.ms.len()
            } else {
                (w + 1) * WINDOW
            };
            let chunk = &self.ms[w * WINDOW..end];
            p50.push(quantile(chunk, 0.5));
            p99.push(quantile(chunk, 0.99));
        }
        (best_quartile(&p50, true), best_quartile(&p99, true))
    }
}

/// The better quartile of repeated measurements of one quantity: the
/// lower quartile of times, the upper quartile of rates. The benchmark
/// shares its host with other tenants, whose interference only ever adds
/// time; the better quartile keeps the spread between runs small without
/// resting on the single luckiest measurement.
pub fn best_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    quantile(values, if lower_is_better { 0.25 } else { 0.75 })
}

/// Samples per latency window: the least that gives a 99th percentile
/// ten samples beyond it.
pub const WINDOW: usize = 1000;

/// Nearest-rank `q`-quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `setup` `reps` times, timing each, and keeps the last result;
/// returns it with the median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Order-independent digest of a backend's full contents: every id with
/// the CRC of its bytes, folded in id order.
pub fn store_digest(mem: &MemStore) -> u64 {
    let mut ids = mem.ids();
    ids.sort();
    let mut h = FNV_OFFSET;
    let mut buf = Vec::new();
    for id in ids {
        buf.clear();
        ae_store::meta::encode_block_id(&mut buf, id);
        let block = mem.get(id).expect("listed ids are present and verify");
        buf.extend_from_slice(&crc32(block.as_slice()).to_le_bytes());
        buf.extend_from_slice(&(block.len() as u64).to_le_bytes());
        h = fnv(h, &buf);
    }
    h
}

/// Bytes held by a backend, every block kind included.
pub fn stored_bytes(mem: &MemStore) -> u64 {
    mem.ids()
        .into_iter()
        .filter_map(|id| mem.get(id).ok())
        .map(|b| b.len() as u64)
        .sum()
}

/// FNV-1a's starting state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The generic end-to-end metrics every workload reports.
#[derive(Clone, Copy, Default, Debug)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median latency of the workload's measured operation, ms (see
    /// [`Samples::windowed_p50_p99`]).
    pub op_p50_ms: f64,
    /// 99th-percentile latency of the same operation, ms.
    pub op_p99_ms: f64,
    /// Work completed per second, in the workload's unit of work: MB of
    /// user data acknowledged (`ingest`), ops within the latency limit
    /// (`serve`), blocks restored by scrub (`repair`), sweep cells
    /// (`frontier`).
    pub work_per_s: f64,
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Generic end-to-end metrics.
    pub e2e: EndToEnd,
    /// Latency samples behind `op_p50_ms`/`op_p99_ms`, in time order.
    pub samples: usize,
    /// The workload's own named end-to-end metrics: `(name, unit, value)`.
    pub named: Vec<(&'static str, &'static str, f64)>,
    /// Operations attempted and failed (wrong bytes, errors, refusals and
    /// failed output checks all count as failed).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Digest of the outputs: backend contents, or the sweep CSV.
    pub digest: u64,
    /// Workload-specific per-layer values (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    /// User bytes the measured phase wrote (for per-user-byte ratios).
    pub user_bytes: u64,
    /// Attribution lines for the traced pass's summary.
    pub attribution: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
    }
}
