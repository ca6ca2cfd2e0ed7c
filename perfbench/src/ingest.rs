//! `ingest`: closed-loop archival upload, no reads.
//!
//! Eight tenants ([`crate::common::ROSTER`]) share one `MemStore` through
//! `TenantStore` views, with the default `MetaConfig`. Two client threads
//! each own four tenants and put seeded 64 KiB–1 MiB files, chunked into
//! 4 KiB blocks, straight into `Archive::put` until a fixed number of user
//! bytes is acknowledged. The byte budget is sized so the stored bytes
//! (about 3.2× the user bytes, metadata included) outgrow a 300 MiB L3,
//! so the archives grow past the caches. At this size a tenant takes
//! about 26 puts a round, below the default 64-record checkpoint cadence,
//! so no checkpoint fold runs inside a round. Each round ends by dropping
//! every archive and reopening it with `Archive::open` on a fresh scheme
//! instance, which reads back the metadata the puts wrote. Rounds repeat
//! on fresh stores until the run's time is up; every round uses the same
//! inputs, and throughput is the better quartile of the per-round figures.

use crate::common::{
    best_quartile, new_scheme, payload, probe_scheme, probe_store, shuffle, spaced_sizes,
    store_digest, stored_bytes, timed_setup, Outcome, Samples, BLOCK, ROSTER,
};
use crate::trace::{self, kind};
use ae_api::BlockRepo;
use ae_service::{SplitMix64, TenantId, TenantStore};
use ae_store::archive::{Archive, Entry};
use ae_store::MemStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input sizes of one round.
#[derive(Clone, Copy)]
pub struct Scale {
    /// User bytes one round archives.
    pub user_bytes: u64,
    /// Smallest file, bytes.
    pub file_min: usize,
    /// Largest file, bytes.
    pub file_max: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const BENCH: Scale = Scale {
        user_bytes: 112 << 20,
        file_min: 64 << 10,
        file_max: 1 << 20,
    };
}

/// One file of a client's upload list.
struct File {
    tenant: usize,
    name: String,
    contents: Vec<u8>,
}

/// The two clients' upload lists. File sizes are evenly spaced over the
/// size range and dealt in size order to the clients (alternately) and
/// to each client's four tenants (`c`, `c + 2`, `c + 4`, `c + 6`, in
/// turn), so every seed gives each client and tenant the same bytes to
/// store; the seed decides each client's upload order and the contents.
fn inputs(seed: u64, scale: Scale) -> [Vec<File>; 2] {
    let mut rng = SplitMix64::new(seed);
    let (lo, hi) = (scale.file_min, scale.file_max);
    let n = scale.user_bytes.div_ceil((lo + hi) as u64 / 2);
    let mut dealt: [Vec<(usize, usize, usize)>; 2] = [Vec::new(), Vec::new()];
    for (k, len) in spaced_sizes(n, lo, hi).into_iter().enumerate() {
        let c = k % 2;
        let tenant = c + 2 * (dealt[c].len() % 4);
        dealt[c].push((tenant, k, len));
    }
    dealt.map(|mut list| {
        shuffle(&mut rng, &mut list);
        list.into_iter()
            .map(|(tenant, k, len)| File {
                tenant,
                name: format!("f{k:06}"),
                contents: payload(&mut rng, len),
            })
            .collect()
    })
}

type Tenant = Archive<TenantStore>;

/// Acknowledged puts: `(tenant, name, manifest entry)`.
type Acked = Vec<(usize, String, Entry)>;

fn roster(backend: &Arc<dyn BlockRepo + Send + Sync>) -> Vec<Tenant> {
    ROSTER
        .iter()
        .enumerate()
        .map(|(t, &fam)| {
            let view = Arc::new(TenantStore::new(Arc::clone(backend), TenantId(t as u16)));
            Archive::with_scheme(probe_scheme(new_scheme(fam).0, fam), BLOCK, view)
        })
        .collect()
}

/// What one round measured.
struct Round {
    samples: Samples,
    wall_s: f64,
    reopen_s: f64,
    puts: u64,
    failed: u64,
}

/// One round: fresh store, both clients upload, reopen every tenant,
/// check the reopened manifests and a seeded sample of files.
fn round(files: &[Vec<File>; 2], seed: u64, first: bool, out: &mut Outcome) -> Round {
    let mem = Arc::new(MemStore::new());
    let backend = probe_store(&mem);
    // Each client takes its four tenants; archives drop with their client.
    let mut owned: [Vec<(usize, Tenant)>; 2] = [Vec::new(), Vec::new()];
    for (t, ar) in roster(&backend).into_iter().enumerate() {
        owned[t % 2].push((t, ar));
    }
    let start = Instant::now();
    let results: Vec<(Samples, Acked, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .zip(files.iter())
            .map(|(mut mine, list)| {
                scope.spawn(move || {
                    let mut samples = Samples::default();
                    let mut acked = Vec::with_capacity(list.len());
                    let mut failed = 0;
                    for f in list {
                        let ar = &mut mine
                            .iter_mut()
                            .find(|(t, _)| *t == f.tenant)
                            .expect("client owns its tenants")
                            .1;
                        let t0 = Instant::now();
                        let res = trace::span(kind::PUT, || ar.put(&f.name, &f.contents));
                        samples.push_s(t0.elapsed().as_secs_f64());
                        match res {
                            Ok(entry) => acked.push((f.tenant, f.name.clone(), entry)),
                            Err(e) => {
                                eprintln!("perfbench: ingest put {} failed: {e}", f.name);
                                failed += 1;
                            }
                        }
                    }
                    (samples, acked, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = Samples::default();
    let mut acked = Vec::new();
    let mut failed = 0;
    let mut puts = 0;
    for (s, a, f) in results {
        puts += s.len() as u64;
        samples.extend(&s);
        acked.extend(a);
        failed += f;
    }

    // Reopen every tenant from the backend alone.
    let t0 = Instant::now();
    let reopened: Vec<_> = ROSTER
        .iter()
        .enumerate()
        .map(|(t, &fam)| {
            let view = Arc::new(TenantStore::new(Arc::clone(&backend), TenantId(t as u16)));
            trace::span(kind::OPEN, || {
                Archive::open(probe_scheme(new_scheme(fam).0, fam), view)
            })
        })
        .collect();
    let reopen_s = t0.elapsed().as_secs_f64();

    // Checks (untimed): manifests survive the reopen exactly, and a
    // seeded sample of files reads back CRC-exact.
    trace::paused(|| check(&reopened, &acked, seed, out));
    if first {
        out.digest = store_digest(&mem);
        let user: u64 = files
            .iter()
            .flatten()
            .map(|f| f.contents.len() as u64)
            .sum();
        out.named.push((
            "storage_overhead",
            "ratio",
            stored_bytes(&mem) as f64 / user as f64,
        ));
    }
    Round {
        samples,
        wall_s,
        reopen_s,
        puts,
        failed,
    }
}

/// The round's output checks: every tenant reopened with exactly the
/// acknowledged manifest, and one seeded file per tenant reads back
/// CRC-exact.
fn check(
    reopened: &[Result<Tenant, ae_store::archive::RecoveryError>],
    acked: &Acked,
    seed: u64,
    out: &mut Outcome,
) {
    let mut rng = SplitMix64::new(seed ^ 0x1265);
    for (t, ar) in reopened.iter().enumerate() {
        let ar = match ar {
            Ok(ar) => ar,
            Err(e) => {
                out.fail(format_args!("ingest reopen of tenant {t}: {e}"));
                continue;
            }
        };
        let mine: Vec<_> = acked.iter().filter(|(at, _, _)| *at == t).collect();
        if ar.file_count() != mine.len() {
            out.fail(format_args!(
                "tenant {t} reopened with {} files, {} acknowledged",
                ar.file_count(),
                mine.len()
            ));
        }
        for (_, name, entry) in &mine {
            if ar.entry(name) != Some(entry) {
                out.fail(format_args!(
                    "tenant {t} manifest entry {name} changed on reopen"
                ));
            }
        }
        if let Some((_, name, entry)) =
            (!mine.is_empty()).then(|| mine[rng.below(mine.len() as u64) as usize])
        {
            match ar.get(name) {
                Ok(bytes) if ae_blocks::crc32(&bytes) == entry.crc => {}
                Ok(_) => out.fail(format_args!("tenant {t} file {name} read back wrong bytes")),
                Err(e) => out.fail(format_args!("tenant {t} file {name} unreadable: {e}")),
            }
        }
    }
}

/// Runs `ingest` for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let (files, setup_s) = timed_setup(3, || {
        let files = inputs(seed, scale);
        // A roster on a scratch store: the set-up cost a round pays
        // before its first put.
        drop(roster(&probe_store(&Arc::new(MemStore::new()))));
        files
    });
    out.e2e.setup_s = setup_s;
    // One untimed round first: the allocator's first touch of a round's
    // worth of memory is a one-off cost, not ingest speed.
    let warm = round(&files, seed, true, &mut out);
    out.attempted += warm.puts;
    out.failed += warm.failed;
    trace::reset();
    let round_bytes: u64 = files
        .iter()
        .flatten()
        .map(|f| f.contents.len() as u64)
        .sum();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples = Samples::default();
    let (mut mbps, mut reopen_ms, mut rounds) = (Vec::new(), Vec::new(), 0u64);
    while rounds == 0 || start.elapsed() < budget {
        let r = round(&files, seed, false, &mut out);
        samples.extend(&r.samples);
        mbps.push(round_bytes as f64 / 1e6 / r.wall_s);
        reopen_ms.push(r.reopen_s * 1e3);
        out.attempted += r.puts;
        out.failed += r.failed;
        rounds += 1;
    }
    out.user_bytes = round_bytes * rounds;
    out.samples = samples.len();
    (out.e2e.op_p50_ms, out.e2e.op_p99_ms) = samples.windowed_p50_p99();
    out.e2e.work_per_s = best_quartile(&mbps, false);
    let mut named = vec![
        ("ingest_MBps", "MB/s", out.e2e.work_per_s),
        ("put_p50_ms", "ms", out.e2e.op_p50_ms),
        ("put_p99_ms", "ms", out.e2e.op_p99_ms),
        ("reopen_ms", "ms", best_quartile(&reopen_ms, true)),
    ];
    named.append(&mut out.named);
    out.named = named;
    eprintln!(
        "perfbench: ingest rounds={rounds} round_user_MiB={}",
        round_bytes >> 20
    );
    out
}
