//! Systematic Reed-Solomon codes over GF(2^8).
//!
//! RS(k, m) encodes `k` data shards into `k + m` total shards such that any
//! `k` suffice to reconstruct everything (maximum distance separable). The
//! generator is `[I_k; C]` with `C` an m×k Cauchy matrix, whose every square
//! submatrix is invertible — the textbook construction used by storage
//! systems (Plank's tutorial, reference \[2\] of the paper; Backblaze's
//! open-source encoder, reference \[32\]).
//!
//! The paper's cost model (§I, Table IV): repairing a single lost shard
//! requires reading `k` surviving shards and moving `k · B` bytes — this is
//! what AE codes beat with their fixed two-block repairs.

use ae_gf::{field, Gf256, Matrix};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default cap on memoized decode matrices; when full the cache is reset.
/// Override per instance with [`ReedSolomon::with_decode_cache_cap`].
///
/// The bound only matters under adversarial erasure-pattern churn: one
/// entry costs k·k bytes plus the key, and a (k, m) code has at most
/// C(k+m, k) distinct patterns. A reset (rather than LRU bookkeeping) keeps
/// the lock hold time constant.
pub const DEFAULT_DECODE_CACHE_MAX: usize = 128;

/// Errors from Reed-Solomon operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// k and m must be positive and k + m ≤ 256 (GF(2^8) field size).
    InvalidParameters {
        /// Requested data shards.
        k: usize,
        /// Requested parity shards.
        m: usize,
    },
    /// The caller passed a shard set of the wrong length.
    WrongShardCount {
        /// Expected k + m.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// Shards present disagree on length, or a data shard list had
    /// mismatched sizes.
    ShardSizeMismatch,
    /// Fewer than k shards survive: the stripe is damaged beyond repair.
    TooFewShards {
        /// Shards still available.
        available: usize,
        /// Shards required (k).
        required: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidParameters { k, m } => {
                write!(
                    f,
                    "invalid RS parameters k={k}, m={m} (need k,m >= 1, k+m <= 256)"
                )
            }
            RsError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            RsError::ShardSizeMismatch => write!(f, "shards have mismatched sizes"),
            RsError::TooFewShards {
                available,
                required,
            } => write!(
                f,
                "stripe unrecoverable: {available} shards available, {required} required"
            ),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic RS(k, m) erasure code.
///
/// # Examples
///
/// ```
/// use ae_baselines::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
/// let parity = rs.encode(&data).unwrap();
///
/// // Lose any two shards; reconstruction recovers them.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().chain(&parity).cloned().map(Some).collect();
/// shards[1] = None;
/// shards[5] = None;
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
/// ```
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// Full generator `[I_k; C]`, (k+m) × k.
    generator: Matrix,
    /// Streaming-encoder state — the write counter and the buffered
    /// partial stripe — behind one lock, so an instance can be shared
    /// (`Arc<dyn RedundancyScheme>`) between writers and repair workers.
    pub(crate) enc: Mutex<RsEncoderState>,
    /// Inverted decode submatrices memoized per erasure pattern (keyed by
    /// the k surviving generator rows selected for the solve). Steady-state
    /// repair traffic repeats a handful of patterns — a single lost shard
    /// in particular always selects the same rows — so repairs after the
    /// first skip the O(k³) Gauss-Jordan inversion entirely.
    decode_cache: Mutex<HashMap<Vec<usize>, Arc<Matrix>>>,
    /// Per-instance cap on `decode_cache`; 0 disables memoization.
    decode_cache_cap: usize,
    /// Lookups served from `decode_cache`.
    cache_hits: AtomicU64,
    /// Lookups that had to run the O(k³) inversion.
    cache_misses: AtomicU64,
}

/// The mutable half of a streaming [`ReedSolomon`] encoder.
#[derive(Debug, Clone, Default)]
pub(crate) struct RsEncoderState {
    /// Data blocks written through the scheme API.
    pub(crate) written: u64,
    /// Buffered data blocks of the current (incomplete) stripe.
    pub(crate) pending: Vec<ae_blocks::Block>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> Self {
        ReedSolomon {
            k: self.k,
            m: self.m,
            generator: self.generator.clone(),
            enc: Mutex::new(self.enc.lock().clone()),
            decode_cache: Mutex::new(self.decode_cache.lock().clone()),
            decode_cache_cap: self.decode_cache_cap,
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
            cache_misses: AtomicU64::new(self.cache_misses.load(Ordering::Relaxed)),
        }
    }
}

impl ReedSolomon {
    /// Builds an RS(k, m) code.
    ///
    /// # Errors
    ///
    /// Fails unless `k ≥ 1`, `m ≥ 1` and `k + m ≤ 256`.
    pub fn new(k: usize, m: usize) -> Result<Self, RsError> {
        if k == 0 || m == 0 || k + m > 256 {
            return Err(RsError::InvalidParameters { k, m });
        }
        let generator = Matrix::identity(k)
            .stack(&Matrix::cauchy(m, k))
            .expect("identity and Cauchy share k columns");
        Ok(ReedSolomon {
            k,
            m,
            generator,
            enc: Mutex::new(RsEncoderState::default()),
            decode_cache: Mutex::new(HashMap::new()),
            decode_cache_cap: DEFAULT_DECODE_CACHE_MAX,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    /// Sets the decode-matrix memoization cap for this instance.
    ///
    /// `0` disables memoization: every repair pays the O(k³) inversion,
    /// which is the right trade when erasure patterns never repeat (e.g.
    /// one-shot disaster sweeps) and the k·k-byte entries would only
    /// accumulate. The existing cache is trimmed to fit immediately.
    #[must_use]
    pub fn with_decode_cache_cap(self, cap: usize) -> Self {
        if self.decode_cache.lock().len() > cap {
            self.decode_cache.lock().clear();
        }
        ReedSolomon {
            decode_cache_cap: cap,
            ..self
        }
    }

    /// The decode-matrix memoization cap currently in force.
    pub fn decode_cache_cap(&self) -> usize {
        self.decode_cache_cap
    }

    /// Decode-cache effectiveness counters as `(hits, misses)`.
    ///
    /// Hits served the inverted decode matrix from the per-pattern memo;
    /// misses ran the O(k³) Gauss-Jordan inversion. Counters are
    /// monotonic over the instance's lifetime (clones inherit a snapshot)
    /// and count lookups even when the cap is 0.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The inverted k×k decode submatrix for the given surviving rows,
    /// memoized per erasure pattern.
    ///
    /// The inversion runs outside the lock: a concurrent miss on the same
    /// pattern duplicates the work once but never serializes repairs
    /// behind an O(k³) critical section.
    fn cached_decode_matrix(&self, rows: &[usize]) -> Arc<Matrix> {
        if let Some(inv) = self.decode_cache.lock().get(rows) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(inv);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let sub = self.generator.select_rows(rows);
        let inv = Arc::new(
            sub.inverse()
                .expect("every k x k generator submatrix is invertible"),
        );
        if self.decode_cache_cap > 0 {
            let mut cache = self.decode_cache.lock();
            if cache.len() >= self.decode_cache_cap {
                cache.clear();
            }
            cache.insert(rows.to_vec(), Arc::clone(&inv));
        }
        inv
    }

    /// Memoized decode matrices currently cached (exposed for tests).
    #[cfg(test)]
    fn decode_cache_len(&self) -> usize {
        self.decode_cache.lock().len()
    }

    /// Data shards per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity shards per stripe.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total shards per stripe.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Additional storage as a percentage of the original data:
    /// `m/k · 100` (Table IV).
    pub fn storage_overhead_pct(&self) -> f64 {
        self.m as f64 / self.k as f64 * 100.0
    }

    /// Shards read to repair a single lost shard (Table IV's "SF" row).
    pub fn single_failure_reads(&self) -> usize {
        self.k
    }

    /// Encodes `k` equal-length data shards into `m` parity shards.
    ///
    /// # Errors
    ///
    /// Fails if the shard count or sizes are wrong.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongShardCount {
                expected: self.k,
                actual: data.len(),
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (r, out) in parity.iter_mut().enumerate() {
            let row = self.generator.row(self.k + r);
            for (c, shard) in data.iter().enumerate() {
                field::mul_slice_acc(row[c], shard, out);
            }
        }
        Ok(parity)
    }

    /// Reconstructs all missing shards in place. `shards[i] = None` marks an
    /// erasure; indices `0..k` are data, `k..k+m` parity.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `k` shards are present, the vector has the wrong
    /// length, or present shards disagree on size.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                available: present.len(),
                required: self.k,
            });
        }
        if present
            .iter()
            .map(|&i| shards[i].as_ref().expect("present").len())
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
        {
            return Err(RsError::ShardSizeMismatch);
        }
        if present.len() == shards.len() {
            return Ok(()); // nothing missing
        }
        let len = shards[present[0]].as_ref().expect("present").len();

        // Invert the k×k submatrix of the generator for k surviving shards
        // (memoized per erasure pattern); its product with those shards
        // yields the missing data shards. Every present data shard is
        // among those rows, so its own decode is itself and is skipped.
        let rows: Vec<usize> = present.iter().take(self.k).copied().collect();
        let inv = self.cached_decode_matrix(&rows);
        for r in 0..self.k {
            if shards[r].is_some() {
                continue;
            }
            let mut out = vec![0u8; len];
            for (c, &src_row) in rows.iter().enumerate() {
                let coeff = inv[(r, c)];
                let shard = shards[src_row].as_ref().expect("selected rows are present");
                field::mul_slice_acc(coeff, shard, &mut out);
            }
            shards[r] = Some(out);
        }

        // Recompute missing parities from the now-complete data shards.
        for r in 0..self.m {
            if shards[self.k + r].is_none() {
                let row = self.generator.row(self.k + r);
                let mut out = vec![0u8; len];
                for (c, d) in shards[..self.k].iter().enumerate() {
                    let d = d.as_ref().expect("data shards are complete");
                    field::mul_slice_acc(row[c], d, &mut out);
                }
                shards[self.k + r] = Some(out);
            }
        }
        Ok(())
    }

    /// Convenience check used by the availability-plane simulator: a stripe
    /// with `available` of `k + m` shards survives iff `available ≥ k`.
    pub fn stripe_recoverable(&self, available: usize) -> bool {
        available >= self.k
    }

    /// The generator coefficient for parity row `r` and data column `c`
    /// (exposed for tests certifying the MDS property).
    pub fn parity_coefficient(&self, r: usize, c: usize) -> Gf256 {
        self.generator[(self.k + r, c)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 37 + b * 11 + 5) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    fn roundtrip(k: usize, m: usize, erase: &[usize]) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data = sample_data(k, 64);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &e in erase {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_ref().unwrap(), &full[i], "shard {i} of RS({k},{m})");
        }
    }

    #[test]
    fn paper_settings_roundtrip() {
        // All four settings from Table IV, erasing a mix of data + parity.
        roundtrip(10, 4, &[0, 3, 11, 13]);
        roundtrip(8, 2, &[7, 9]);
        roundtrip(5, 5, &[0, 1, 2, 3, 4]); // all data lost, parity survives
        roundtrip(4, 12, &[0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]); // m losses
    }

    #[test]
    fn tolerates_any_m_erasures_exhaustively_small() {
        // RS(3,2): all C(5,2)=10 double-erasure patterns.
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(3, 16);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().unwrap(), &full[i], "erasures ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn more_than_m_erasures_fail() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::TooFewShards {
                available: 3,
                required: 4
            })
        );
        assert!(!rs.stripe_recoverable(3));
        assert!(rs.stripe_recoverable(4));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 57).is_err());
        assert!(ReedSolomon::new(200, 56).is_ok());
    }

    #[test]
    fn encode_validates_inputs() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        assert!(matches!(
            rs.encode(&sample_data(2, 8)),
            Err(RsError::WrongShardCount {
                expected: 3,
                actual: 2
            })
        ));
        let mut ragged = sample_data(3, 8);
        ragged[2].pop();
        assert_eq!(rs.encode(&ragged), Err(RsError::ShardSizeMismatch));
    }

    #[test]
    fn reconstruct_validates_inputs() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut wrong_len: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 4]); 2];
        assert!(matches!(
            rs.reconstruct(&mut wrong_len),
            Err(RsError::WrongShardCount { .. })
        ));
        let mut ragged: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 4]), Some(vec![0; 5]), None];
        assert_eq!(rs.reconstruct(&mut ragged), Err(RsError::ShardSizeMismatch));
    }

    #[test]
    fn nothing_missing_is_a_noop() {
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = sample_data(2, 8);
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity).cloned().map(Some).collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn costs_match_table_iv() {
        for (k, m, overhead) in [(10, 4, 40.0), (8, 2, 25.0), (5, 5, 100.0), (4, 12, 300.0)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            assert!(
                (rs.storage_overhead_pct() - overhead).abs() < 1e-9,
                "RS({k},{m})"
            );
            assert_eq!(rs.single_failure_reads(), k, "SF cost of RS({k},{m})");
        }
    }

    #[test]
    fn decode_matrix_is_memoized_per_erasure_pattern() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 32);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
        assert_eq!(rs.decode_cache_len(), 0);

        // Same erasure pattern twice: one cache entry, correct repairs.
        for _ in 0..2 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[1] = None;
            rs.reconstruct(&mut shards).unwrap();
            assert_eq!(shards[1].as_ref().unwrap(), &full[1]);
            assert_eq!(rs.decode_cache_len(), 1);
        }

        // A different pattern adds a second entry and still repairs.
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[5] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_ref().unwrap(), &full[0]);
        assert_eq!(shards[5].as_ref().unwrap(), &full[5]);
        assert_eq!(rs.decode_cache_len(), 2);
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert_eq!(rs.decode_cache_cap(), DEFAULT_DECODE_CACHE_MAX);
        let data = sample_data(4, 32);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();

        let lose = |idx: usize| {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[idx] = None;
            rs.reconstruct(&mut shards).unwrap();
            assert_eq!(shards[idx].as_ref().unwrap(), &full[idx]);
        };
        lose(1);
        lose(1);
        lose(1);
        lose(2);
        // Pattern {1} misses once then hits twice; pattern {2} misses once.
        assert_eq!(rs.decode_cache_stats(), (2, 2));
        // Clones inherit a snapshot and count independently from there.
        let twin = rs.clone();
        assert_eq!(twin.decode_cache_stats(), (2, 2));
        lose(2);
        assert_eq!(rs.decode_cache_stats(), (3, 2));
        assert_eq!(twin.decode_cache_stats(), (2, 2));
    }

    #[test]
    fn cache_cap_bounds_the_memo_and_zero_disables_it() {
        let rs = ReedSolomon::new(4, 2).unwrap().with_decode_cache_cap(2);
        assert_eq!(rs.decode_cache_cap(), 2);
        let data = sample_data(4, 32);
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();

        let lose = |code: &ReedSolomon, idx: usize| {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[idx] = None;
            code.reconstruct(&mut shards).unwrap();
            assert_eq!(shards[idx].as_ref().unwrap(), &full[idx]);
        };
        // Three distinct patterns against cap 2: the cache resets when
        // full, so it never exceeds the cap, and repairs stay correct.
        lose(&rs, 0);
        lose(&rs, 1);
        assert_eq!(rs.decode_cache_len(), 2);
        lose(&rs, 2);
        assert!(rs.decode_cache_len() <= 2);

        // Cap 0 never memoizes: every repair is a miss, zero entries.
        let cold = ReedSolomon::new(4, 2).unwrap().with_decode_cache_cap(0);
        lose(&cold, 1);
        lose(&cold, 1);
        assert_eq!(cold.decode_cache_len(), 0);
        assert_eq!(cold.decode_cache_stats(), (0, 2));

        // Lowering the cap trims an over-full cache immediately.
        let shrunk = rs.with_decode_cache_cap(1);
        assert!(shrunk.decode_cache_len() <= 1);
    }

    #[test]
    fn xor_parity_structure_for_m1() {
        // With one parity row of a Cauchy matrix, coefficients are nonzero.
        let rs = ReedSolomon::new(4, 1).unwrap();
        for c in 0..4 {
            assert!(!rs.parity_coefficient(0, c).is_zero());
        }
    }
}
