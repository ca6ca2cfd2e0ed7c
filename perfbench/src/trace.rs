//! In-memory span tracing for the traced run.
//!
//! A span is opened around every call the benchmark makes into a layer
//! (the archive calls it makes, and the scheme and backend calls its
//! pass-through probes forward). Each thread keeps a stack of open spans;
//! when a span closes, its duration is charged to its parent's child time,
//! and its count, total time and self time (duration minus the time its
//! children covered) are added to a process-wide table keyed by
//! `(root kind, kind)`, where the root is the outermost span open on the
//! thread. The table stays in memory and is read once, when the run ends.
//!
//! Tracing is off unless [`enable`] was called: [`span`] then only runs
//! its closure, so the untraced run pays one relaxed load per call site.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Scheme families the roster uses, in metric-name order.
pub const FAMILIES: [&str; 3] = ["ae", "rs", "rep"];

/// Span kinds. Archive operations come first (they are the roots the
/// benchmark opens), then backend operations, then per-family scheme
/// operations at [`scheme_kind`].
pub mod kind {
    /// `Archive::put`.
    pub const PUT: usize = 0;
    /// `Archive::get`.
    pub const GET: usize = 1;
    /// `Archive::scrub`.
    pub const SCRUB: usize = 2;
    /// `Archive::open`.
    pub const OPEN: usize = 3;
    /// One frontier sweep cell.
    pub const CELL: usize = 4;
    /// Backend store of a scheme block.
    pub const STORE: usize = 5;
    /// Backend fetch/read/has of a scheme block.
    pub const FETCH: usize = 6;
    /// Backend remove.
    pub const REMOVE: usize = 7;
    /// Backend store of a metadata (`BlockId::Meta`) block.
    pub const META_STORE: usize = 8;
    /// Backend fetch/read/has of a metadata block.
    pub const META_FETCH: usize = 9;
    /// First scheme kind; see [`super::scheme_kind`].
    pub const SCHEME_BASE: usize = 10;
}

/// Scheme operations traced per family.
pub mod op {
    /// `encode_batch`.
    pub const ENCODE: usize = 0;
    /// `seal`.
    pub const SEAL: usize = 1;
    /// `frontier_snapshot`.
    pub const SNAPSHOT: usize = 2;
    /// `restore_frontier`.
    pub const RESTORE: usize = 3;
    /// `repair_block`.
    pub const REPAIR_BLOCK: usize = 4;
    /// `repair_missing`.
    pub const REPAIR_MISSING: usize = 5;
    /// Operations per family.
    pub const COUNT: usize = 6;
}

/// Number of span kinds.
pub const KINDS: usize = kind::SCHEME_BASE + FAMILIES.len() * op::COUNT;

/// The span kind of scheme operation `op` for family `fam`.
pub fn scheme_kind(fam: usize, op: usize) -> usize {
    kind::SCHEME_BASE + fam * op::COUNT + op
}

/// Whether `k` is a backend kind.
pub fn is_backend(k: usize) -> bool {
    (kind::STORE..=kind::META_FETCH).contains(&k)
}

/// Whether `k` is a scheme kind.
pub fn is_scheme(k: usize) -> bool {
    k >= kind::SCHEME_BASE
}

/// Plain event counters the probes keep beside the spans.
pub mod ctr {
    /// Fetches/reads that found nothing (or a corrupted block).
    pub const FETCH_MISS: usize = 0;
    /// Bytes of scheme blocks stored.
    pub const BYTES_STORED: usize = 1;
    /// Bytes of metadata blocks stored.
    pub const META_BYTES: usize = 2;
    /// Checkpoint-pointer cell writes (one per copy per checkpoint).
    pub const POINTER_WRITES: usize = 3;
    /// Backend operations on data ids (the fast link under a latency store).
    pub const DATA_OPS: usize = 4;
    /// Backend operations on every other id (the remote link).
    pub const OTHER_OPS: usize = 5;
    /// Bytes moved over the remote link (redundancy and metadata).
    pub const OTHER_BYTES: usize = 6;
    /// First per-family counter; see [`super::family_ctr`].
    pub const FAMILY_BASE: usize = 7;
    /// `repair_block` calls that returned an error.
    pub const REPAIR_FAILED: usize = 0;
    /// Rounds reported by `repair_missing`.
    pub const REPAIR_ROUNDS: usize = 1;
    /// Blocks read by `repair_missing` (its own traffic accounting).
    pub const REPAIR_READS: usize = 2;
    /// Blocks repaired by `repair_missing`.
    pub const REPAIRED: usize = 3;
    /// Per-family counters.
    pub const FAMILY_COUNT: usize = 4;
}

/// Number of counters.
pub const COUNTERS: usize = ctr::FAMILY_BASE + FAMILIES.len() * ctr::FAMILY_COUNT;

/// The counter index of per-family counter `c` for family `fam`.
pub fn family_ctr(fam: usize, c: usize) -> usize {
    ctr::FAMILY_BASE + fam * ctr::FAMILY_COUNT + c
}

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Cell3 {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CELL: Cell3 = Cell3 {
    count: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    self_ns: AtomicU64::new(0),
};
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [Cell3; KINDS] = [ZERO_CELL; KINDS];
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// `TABLE[root][kind]`.
static TABLE: [[Cell3; KINDS]; KINDS] = [ZERO_ROW; KINDS];
static COUNTS: [AtomicU64; COUNTERS] = [ZERO; COUNTERS];

struct Frame {
    kind: usize,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether span recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with span recording switched off (output checks that should
/// not count as measured work), then restores the previous state.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// Clears every span total and counter (e.g. to drop set-up work).
pub fn reset() {
    for row in &TABLE {
        for c in row {
            c.count.store(0, Ordering::Relaxed);
            c.total_ns.store(0, Ordering::Relaxed);
            c.self_ns.store(0, Ordering::Relaxed);
        }
    }
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Runs `f` inside a span of kind `k` when tracing is on.
pub fn span<R>(k: usize, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            kind: k,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let frame = stack.pop().expect("span stack underflow");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let root = stack.first().map_or(frame.kind, |f| f.kind);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        let cell = &TABLE[root][frame.kind];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(dur, Ordering::Relaxed);
        cell.self_ns
            .fetch_add(dur.saturating_sub(frame.child_ns), Ordering::Relaxed);
    });
    out
}

/// Adds `n` to counter `c` when tracing is on.
pub fn count(c: usize, n: u64) {
    if enabled() {
        COUNTS[c].fetch_add(n, Ordering::Relaxed);
    }
}

/// A snapshot of the span table and counters.
#[derive(Clone)]
pub struct Snapshot {
    /// `[root][kind] = (count, total_ns, self_ns)`.
    pub table: Vec<Vec<(u64, u64, u64)>>,
    /// Counter values.
    pub counters: Vec<u64>,
}

/// Reads the span table and counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        table: TABLE
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| {
                        (
                            c.count.load(Ordering::Relaxed),
                            c.total_ns.load(Ordering::Relaxed),
                            c.self_ns.load(Ordering::Relaxed),
                        )
                    })
                    .collect()
            })
            .collect(),
        counters: COUNTS.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
    }
}

impl Snapshot {
    /// Spans of kind `k` under any root.
    pub fn calls(&self, k: usize) -> u64 {
        self.table.iter().map(|row| row[k].0).sum()
    }

    /// Total seconds in spans of kind `k` under any root.
    pub fn total_s(&self, k: usize) -> f64 {
        self.table.iter().map(|row| row[k].1).sum::<u64>() as f64 / 1e9
    }

    /// Self seconds of kind `k` under any root.
    pub fn self_s(&self, k: usize) -> f64 {
        self.table.iter().map(|row| row[k].2).sum::<u64>() as f64 / 1e9
    }

    /// Spans of kind `k` under root `root`.
    pub fn calls_under(&self, root: usize, k: usize) -> u64 {
        self.table[root][k].0
    }

    /// Counter `c`.
    pub fn counter(&self, c: usize) -> u64 {
        self.counters[c]
    }
}

/// Human-readable label of span kind `k`, for the attribution summary.
pub fn label(k: usize) -> String {
    match k {
        kind::PUT => "archive.put".into(),
        kind::GET => "archive.get".into(),
        kind::SCRUB => "archive.scrub".into(),
        kind::OPEN => "archive.open".into(),
        kind::CELL => "sweep.cell".into(),
        kind::STORE => "backend.store".into(),
        kind::FETCH => "backend.fetch".into(),
        kind::REMOVE => "backend.remove".into(),
        kind::META_STORE => "backend.meta_store".into(),
        kind::META_FETCH => "backend.meta_fetch".into(),
        _ => {
            let i = k - kind::SCHEME_BASE;
            let ops = [
                "encode_batch",
                "seal",
                "frontier_snapshot",
                "restore_frontier",
                "repair_block",
                "repair_missing",
            ];
            format!("scheme.{}.{}", FAMILIES[i / op::COUNT], ops[i % op::COUNT])
        }
    }
}
