//! `serve`: open-loop, read-mostly multi-tenant serving.
//!
//! The eight-tenant roster runs behind an `ArchiveService` with two
//! shards. Set-up fills a corpus of small (8–24 KiB) files, past a 300 MiB
//! L3 once stored, and then removes a seeded, uniformly random 5% of the
//! stored scheme blocks (sparing the few lost data blocks that single-block
//! repair could not rebuild). Random loss, unlike a stride, gives RS stripes more distinct
//! erasure patterns than `ReedSolomon`'s 128-entry decode-matrix cache
//! holds. The measured schedule (from `Workload::generate_phased`) is 90%
//! gets and 10% puts, no scrubs, Zipf(0.99) over tenants and files, at a
//! fixed offered rate that is a constant of the workload: a faster commit
//! gets the same load, not more. Degraded reads never write back, so the
//! degraded share stays stationary.
//!
//! Every op is timed from its due time to its completion; two load
//! threads collect completions, one per shard (shards are FIFO, so each
//! collector sees its shard's completions in submission order).

use crate::common::{
    new_scheme, probe_scheme, probe_store, quantile, store_digest, timed_setup, Outcome, Samples,
    BLOCK, ROSTER,
};
use crate::trace::{self, kind};
use ae_api::mix64;
use ae_baselines::ReedSolomon;
use ae_blocks::{crc32, BlockId};
use ae_service::{
    ArchiveService, OpMix, Phase, ScheduledOp, ServiceClient, ServiceConfig, ServiceError,
    TenantId, TenantStore, Ticket, Workload, WorkloadConfig, WorkloadOp,
};
use ae_store::archive::Entry;
use ae_store::MemStore;
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes and rates of the workload.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Files the set-up phase archives.
    pub corpus_files: usize,
    /// Inclusive file size range, bytes.
    pub payload: (usize, usize),
    /// Offered load, operations per second.
    pub rate: u32,
    /// Latency limit for goodput, measured from each op's due time. At
    /// 1 ms about 1% of ops miss it, so goodput moves with the tail
    /// without resting on a handful of samples.
    pub slo: Duration,
}

impl Scale {
    /// The benchmark's sizes.
    pub const BENCH: Scale = Scale {
        corpus_files: 6000,
        payload: (8 << 10, 24 << 10),
        rate: 2000,
        slo: Duration::from_millis(1),
    };
}

/// Service worker shards: the pool width the workload is defined with.
const SHARDS: usize = 2;

/// One in 20 stored scheme blocks is lost.
const LOSS_ONE_IN: u64 = 20;

fn config(seed_ops: usize, scale: Scale, seconds: f64) -> WorkloadConfig {
    let serve_ops = (scale.rate as f64 * seconds).round() as usize;
    WorkloadConfig {
        tenants: ROSTER.len() as u16,
        phases: vec![
            Phase {
                ops: seed_ops,
                mix: OpMix::write_only(),
                interarrival: Duration::ZERO,
            },
            Phase {
                ops: serve_ops.max(1),
                mix: OpMix {
                    put: 10,
                    get: 90,
                    scrub: 0,
                },
                interarrival: Duration::from_secs_f64(1.0 / scale.rate as f64),
            },
        ],
        tenant_skew: Some(0.99),
        file_skew: Some(0.99),
        payload: scale.payload,
        scrub_tenant: None,
        seal_tail: false,
    }
}

/// Removes a seeded random 5% of every tenant's stored scheme blocks from
/// `mem`, then puts back each lost data block that is no longer repairable
/// in one step (an RS stripe past 4 losses, a replica set with no copy
/// left, an AE block with every repair tuple broken): gets never fail and
/// never fall to the multi-round path, so the tail does not hinge on which
/// hot file the seed happens to break. Returns how many blocks stay lost.
fn lose_blocks(svc: &ArchiveService, mem: &MemStore, seed: u64) -> u64 {
    let mut lost_total = 0;
    for t in 0..ROSTER.len() {
        let ar = svc.archive(TenantId(t as u16));
        let view = TenantStore::new(Arc::clone(svc.backend()), TenantId(t as u16));
        let lost: HashSet<BlockId> = ar
            .stored_ids()
            .iter()
            .copied()
            .filter(|id| {
                let global = view.global(*id);
                mix64(crc32(format!("{global:?}").as_bytes()) as u64, seed)
                    .is_multiple_of(LOSS_ONE_IN)
            })
            .collect();
        let scheme = ar.scheme();
        let written = scheme.data_written();
        let mut spared: HashSet<BlockId> = HashSet::new();
        let mut ids: Vec<BlockId> = lost.iter().copied().filter(|id| id.is_data()).collect();
        ids.sort();
        for id in ids {
            let avail = |b: BlockId| !lost.contains(&b) || spared.contains(&b);
            if !scheme.is_single_failure(id, written, &avail) {
                spared.insert(id);
            }
        }
        for &id in lost.difference(&spared) {
            if mem.remove(view.global(id)) {
                lost_total += 1;
            }
        }
    }
    lost_total
}

/// A submitted op awaiting completion.
enum Pending {
    Put(Ticket<Entry>),
    Get(Ticket<Vec<u8>>, u32),
}

/// A completed op: latency from due time, whether it was a get, and
/// whether it succeeded with the right bytes.
struct Done {
    due: Instant,
    latency: Duration,
    get: bool,
    ok: bool,
}

impl Pending {
    fn is_get(&self) -> bool {
        matches!(self, Pending::Get(..))
    }

    /// Waits up to `timeout`; `Err(self)` if still running.
    fn wait_timeout(self, timeout: Duration) -> Result<bool, Pending> {
        match self {
            Pending::Put(t) => match t.wait_timeout(timeout) {
                Ok(r) => Ok(report(r.map(|_| ()).map_err(|e| e.to_string()))),
                Err(t) => Err(Pending::Put(t)),
            },
            Pending::Get(t, crc) => match t.wait_timeout(timeout) {
                Ok(r) => Ok(report(match r {
                    Ok(bytes) if crc32(&bytes) == crc => Ok(()),
                    Ok(_) => Err("get returned bytes that fail the generation-time CRC".into()),
                    Err(e) => Err(e.to_string()),
                })),
                Err(t) => Err(Pending::Get(t, crc)),
            },
        }
    }

    fn wait(self) -> bool {
        let mut p = self;
        loop {
            match p.wait_timeout(Duration::from_secs(3600)) {
                Ok(ok) => return ok,
                Err(again) => p = again,
            }
        }
    }
}

fn report(r: Result<(), String>) -> bool {
    if let Err(e) = &r {
        eprintln!("perfbench: serve op failed: {e}");
    }
    r.is_ok()
}

/// What the load threads measured.
struct Drive {
    done: Vec<Done>,
    lateness: Vec<f64>,
    wall: Duration,
}

/// Drives the measured schedule open-loop: each op is submitted at its
/// due time; the submitting thread collects shard 0's completions while
/// it waits for the next due time, a second thread collects shard 1's.
fn drive(ops: &[ScheduledOp], client: &ServiceClient<'_>) -> Drive {
    let (tx, rx) = mpsc::channel::<(Pending, Instant)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            while let Ok((p, due)) = rx.recv() {
                let get = p.is_get();
                let ok = p.wait();
                done.push(Done {
                    due,
                    latency: Instant::now().saturating_duration_since(due),
                    get,
                    ok,
                });
            }
            done
        });
        let mut done = Vec::with_capacity(ops.len());
        let mut lateness = Vec::with_capacity(ops.len());
        let mut mine: VecDeque<(Pending, Instant)> = VecDeque::new();
        let collect_until =
            |mine: &mut VecDeque<(Pending, Instant)>, done: &mut Vec<Done>, deadline: Instant| {
                while let Some((p, due)) = mine.pop_front() {
                    let get = p.is_get();
                    match p.wait_timeout(deadline.saturating_duration_since(Instant::now())) {
                        Ok(ok) => done.push(Done {
                            due,
                            latency: Instant::now().saturating_duration_since(due),
                            get,
                            ok,
                        }),
                        Err(p) => {
                            mine.push_front((p, due));
                            return;
                        }
                    }
                }
                let now = Instant::now();
                if now < deadline {
                    std::thread::sleep(deadline - now);
                }
            };
        for sop in ops {
            let due = start + sop.at;
            while Instant::now() < due {
                collect_until(&mut mine, &mut done, due);
            }
            let pending = loop {
                let submitted = match &sop.op {
                    WorkloadOp::Put { name, contents } => {
                        client.put(sop.tenant, name, contents).map(Pending::Put)
                    }
                    WorkloadOp::Get { name, expect_crc } => client
                        .get(sop.tenant, name)
                        .map(|t| Pending::Get(t, *expect_crc)),
                    other => unreachable!("the serve mix has only puts and gets: {other:?}"),
                };
                match submitted {
                    Ok(p) => break p,
                    // Backpressure: the service counts the refusal; retry.
                    Err(ServiceError::Saturated { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("serve submission refused: {e}"),
                }
            };
            lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if (sop.tenant.0 as usize).is_multiple_of(SHARDS) {
                mine.push_back((pending, due));
            } else {
                tx.send((pending, due)).expect("collector is alive");
            }
        }
        drop(tx);
        for (p, due) in mine {
            let get = p.is_get();
            let ok = p.wait();
            done.push(Done {
                due,
                latency: Instant::now().saturating_duration_since(due),
                get,
                ok,
            });
        }
        done.extend(collector.join().expect("collector panicked"));
        done.sort_by_key(|d| d.due);
        Drive {
            done,
            lateness,
            wall: start.elapsed(),
        }
    })
}

/// Everything set-up leaves for the measured phase.
struct Ready {
    mem: Arc<MemStore>,
    svc: ArchiveService,
    serve: Workload,
    rs: Vec<Arc<ReedSolomon>>,
    corpus_ok: bool,
}

fn setup(seed: u64, scale: Scale, seconds: f64) -> Ready {
    let mem = Arc::new(MemStore::new());
    let mut svc = ArchiveService::new(probe_store(&mem), ServiceConfig::with_shards(SHARDS));
    let mut rs = Vec::new();
    for &fam in &ROSTER {
        let (scheme, handle) = new_scheme(fam);
        rs.extend(handle);
        svc.add_tenant(probe_scheme(scheme, fam), BLOCK);
    }
    let mut phases =
        Workload::generate_phased(seed, config(scale.corpus_files, scale, seconds)).into_iter();
    let corpus = phases.next().expect("corpus phase");
    let serve = phases.next().expect("serving phase");
    let (fill, _) = svc.run(|c| corpus.drive(c));
    let corpus_ok = fill.clean();
    lose_blocks(&svc, &mem, seed);
    Ready {
        mem,
        svc,
        serve,
        rs,
        corpus_ok,
    }
}

/// Runs `serve`: set-up, then `seconds` of scheduled load.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let (ready, setup_s) = timed_setup(3, || setup(seed, scale, seconds));
    out.e2e.setup_s = setup_s;
    let Ready {
        mem,
        mut svc,
        serve,
        rs,
        corpus_ok,
    } = ready;
    if !corpus_ok {
        out.fail("serve corpus fill did not complete cleanly");
    }
    trace::reset();
    let cache0: Vec<(u64, u64)> = rs.iter().map(|r| r.decode_cache_stats()).collect();
    let (d, report) = svc.run(|client| drive(&serve.ops, client));
    let snap = trace::snapshot();

    let mut gets = Samples::default();
    let mut puts = Samples::default();
    let mut good = 0u64;
    let mut total_latency = 0.0;
    for op in &d.done {
        out.attempted += 1;
        if !op.ok {
            out.failed += 1;
            continue;
        }
        let s = op.latency.as_secs_f64();
        total_latency += s;
        if op.get {
            gets.push_s(s);
        } else {
            puts.push_s(s);
        }
        if op.latency <= scale.slo {
            good += 1;
        }
    }
    if d.done.len() != serve.ops.len() {
        out.fail(format_args!(
            "{} ops completed of {} scheduled",
            d.done.len(),
            serve.ops.len()
        ));
    }
    let wall = d.wall.as_secs_f64();
    out.samples = gets.len();
    (out.e2e.op_p50_ms, out.e2e.op_p99_ms) = gets.windowed_p50_p99();
    out.e2e.work_per_s = good as f64 / wall;
    out.user_bytes = serve
        .ops
        .iter()
        .map(|o| match &o.op {
            WorkloadOp::Put { contents, .. } => contents.len() as u64,
            _ => 0,
        })
        .sum();
    out.named = vec![
        ("get_p50_ms", "ms", out.e2e.op_p50_ms),
        ("get_p99_ms", "ms", out.e2e.op_p99_ms),
        ("put_p50_ms", "ms", puts.windowed_p50_p99().0),
        ("put_p99_ms", "ms", puts.windowed_p50_p99().1),
        ("goodput_ops", "op/s", good as f64 / wall),
    ];

    // Layer values: queue pressure and generator lateness from the
    // load threads, decode-cache hits over the measured phase, and the share of
    // op time no scheme or backend span covers (service queues, archive
    // logic, waiting for a worker).
    let (mut hits, mut misses) = (0, 0);
    for (r, (h0, m0)) in rs.iter().zip(cache0) {
        let (h, m) = r.decode_cache_stats();
        hits += h - h0;
        misses += m - m0;
    }
    let layer_s: f64 = (0..trace::KINDS)
        .filter(|&k| trace::is_scheme(k) || trace::is_backend(k))
        .map(|k| snap.self_s(k))
        .sum();
    let completed = &report.shard_completed;
    let mean = completed.iter().sum::<u64>() as f64 / completed.len().max(1) as f64;
    let l = &mut out.layers;
    l.insert(
        "scheme.rs.decode_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert(
        "service.queue_highwater",
        report.queue_highwater.iter().copied().max().unwrap_or(0) as f64,
    );
    l.insert("service.saturated", report.saturated as f64);
    l.insert("service.gen_lateness_p99_ms", quantile(&d.lateness, 0.99));
    l.insert("service.unattributed_s", total_latency - layer_s);
    l.insert(
        "service.shard_imbalance",
        completed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    l.insert(
        "trace.unattributed_frac",
        (total_latency - layer_s) / total_latency.max(f64::MIN_POSITIVE),
    );
    if trace::enabled() {
        out.attribution = attribution(&snap, &d.done);
    }
    out.digest = trace::paused(|| store_digest(&mem));
    eprintln!(
        "perfbench: serve ops={} gets={} puts={} lateness_p99_ms={:.3}",
        d.done.len(),
        gets.len(),
        puts.len(),
        quantile(&d.lateness, 0.99)
    );
    out
}

/// Serve attribution: worker-side spans are not tied to one request, so
/// layer self time is split by op type through the ops that cause it —
/// stores, encodes and snapshots come from puts, fetches and single-block
/// repairs from gets — against each type's summed latency from due time.
fn attribution(snap: &trace::Snapshot, done: &[Done]) -> Vec<String> {
    let mut lines = Vec::new();
    for get in [false, true] {
        let total: f64 = done
            .iter()
            .filter(|d| d.ok && d.get == get)
            .map(|d| d.latency.as_secs_f64())
            .sum();
        if total <= 0.0 {
            continue;
        }
        let mut kinds: Vec<usize> = if get {
            vec![kind::FETCH, kind::META_FETCH]
        } else {
            vec![kind::STORE, kind::META_STORE, kind::REMOVE]
        };
        for fam in 0..trace::FAMILIES.len() {
            if get {
                kinds.push(trace::scheme_kind(fam, trace::op::REPAIR_BLOCK));
                kinds.push(trace::scheme_kind(fam, trace::op::REPAIR_MISSING));
            } else {
                kinds.push(trace::scheme_kind(fam, trace::op::ENCODE));
                kinds.push(trace::scheme_kind(fam, trace::op::SNAPSHOT));
            }
        }
        let mut line = format!(
            "service.{} ops={} latency_s={total:.4}:",
            if get { "get" } else { "put" },
            done.iter().filter(|d| d.ok && d.get == get).count()
        );
        let mut covered = 0.0;
        for k in kinds {
            let s = snap.self_s(k);
            if s > 0.0 {
                covered += s;
                line.push_str(&format!(" {}={:.1}%", trace::label(k), 100.0 * s / total));
            }
        }
        line.push_str(&format!(
            " unattributed={:.1}%",
            100.0 * (total - covered) / total
        ));
        lines.push(line);
    }
    lines
}
