//! `repair`: a catastrophe over a distant backend.
//!
//! Three single-tenant archives (AE(3,2,5), RS(10,4), 3-way replication)
//! each sit on a `LatencyStore` over a `MemStore`, driven by a real-clock
//! runtime and exposed to the archive through its sync adapter, so the
//! archive takes its pipelined read and scrub paths at the default
//! in-flight window. Data blocks ride a fast link; redundancy and
//! metadata ride a remote link with about 1 ms RTT, seeded jitter and a
//! bandwidth cap. Each archive is filled at zero RTT, then the links are
//! raised. A disaster removes every 20th stored block from an offset (5%
//! loss, at most one shard per RS stripe) from the inner store; then every
//! file is read degraded and each archive is scrubbed. A run cycles through
//! all 20 offsets in seeded order (which block kinds a stride hits depends
//! on its offset), giving at least 1,000 degraded-get samples. Under the cap, AE's 2-block repairs against
//! RS's 10 become wall time, which is the paper's locality claim; the
//! working set fits the RS decode cache and the CPU kernels are nearly
//! idle, so a kernel speedup should leave this workload unchanged.

use crate::common::{
    fnv, median, new_scheme, payload, probe_scheme, probe_store, shuffle, spaced_sizes,
    store_digest, timed_setup, Family, Outcome, Samples, BLOCK, FNV_OFFSET,
};
use crate::trace::{self, ctr, kind};
use ae_aio::{BlockOn, Clock, LatencyStore, LinkSpec, Runtime, Tier, Tiering};
use ae_api::BlockRepo;
use ae_baselines::ReedSolomon;
use ae_blocks::crc32;
use ae_service::SplitMix64;
use ae_store::archive::Archive;
use ae_store::MemStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of the workload.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Files per archive: 17 files × 3 archives × 20 disasters gives
    /// 1,020 degraded-get samples per cycle of disasters.
    pub files: usize,
    /// Inclusive file size range, bytes.
    pub file_bytes: (usize, usize),
}

impl Scale {
    /// The benchmark's sizes.
    pub const BENCH: Scale = Scale {
        files: 17,
        file_bytes: (4 << 10, 32 << 10),
    };
}

/// The fast data link.
const LOCAL: LinkSpec = LinkSpec {
    rtt: Duration::from_micros(100),
    jitter: Duration::ZERO,
    bytes_per_sec: None,
};

/// The distant redundancy link: ~1 ms RTT, seeded jitter, 32 MB/s.
const REMOTE: LinkSpec = LinkSpec {
    rtt: Duration::from_millis(1),
    jitter: Duration::from_micros(200),
    bytes_per_sec: Some(32_000_000),
};

const FAMILIES: [Family; 3] = [Family::Ae, Family::Rs, Family::Rep];

/// A disaster removes every `STRIDE`-th stored block: 5% loss, and never
/// two members of one 14-block RS stripe.
const STRIDE: usize = 20;

type Net = BlockOn<LatencyStore<dyn BlockRepo + Send + Sync>>;

/// One archive behind its latency store.
struct Site {
    archive: Archive<Net>,
    net: Arc<Net>,
    mem: Arc<MemStore>,
    names: Vec<(String, u32)>,
    /// The RS scheme's handle, for its decode-cache counters.
    rs: Option<Arc<ReedSolomon>>,
}

fn setup_site(fam: Family, seed: u64, scale: Scale) -> Site {
    let mem = Arc::new(MemStore::new());
    let rt = Runtime::new(Clock::real());
    let zero = LinkSpec::rtt(Duration::ZERO);
    let latency = LatencyStore::new(
        probe_store(&mem),
        rt.clone(),
        Tiering::DataLocal {
            local: zero,
            remote: zero,
        },
        seed ^ fam as u64,
    );
    let net = Arc::new(BlockOn::new(latency, rt));
    let (scheme, rs) = new_scheme(fam);
    let mut archive = Archive::with_scheme(probe_scheme(scheme, fam), BLOCK, Arc::clone(&net));
    let mut rng = SplitMix64::new(seed.wrapping_add(fam as u64 * 0x9e37));
    let (lo, hi) = scale.file_bytes;
    let mut names = Vec::with_capacity(scale.files);
    let mut sizes = spaced_sizes(scale.files as u64, lo, hi);
    shuffle(&mut rng, &mut sizes);
    for (i, len) in sizes.into_iter().enumerate() {
        let bytes = payload(&mut rng, len);
        let name = format!("f{i:04}");
        archive
            .put(&name, &bytes)
            .expect("fresh archive accepts puts");
        names.push((name, crc32(&bytes)));
    }
    archive.seal().expect("seal flushes buffered redundancy");
    net.inner().set_link(Tier::Local, LOCAL);
    net.inner().set_link(Tier::Remote, REMOTE);
    Site {
        archive,
        net,
        mem,
        names,
        rs,
    }
}

/// After a scrub, at zero RTT: every file reads back CRC-exact and the
/// inner store holds every stored id. The links are raised again after.
fn check_site(site: &Site, out: &mut Outcome) {
    let zero = LinkSpec::rtt(Duration::ZERO);
    site.net.inner().set_link(Tier::Local, zero);
    site.net.inner().set_link(Tier::Remote, zero);
    for (name, crc) in &site.names {
        out.attempted += 1;
        match site.archive.get(name) {
            Ok(bytes) if crc32(&bytes) == *crc => {}
            Ok(_) => out.fail(format_args!("after scrub {name} reads wrong bytes")),
            Err(e) => out.fail(format_args!("after scrub {name} unreadable: {e}")),
        }
    }
    let missing = site
        .archive
        .stored_ids()
        .iter()
        .filter(|&&id| !site.mem.contains(id))
        .count();
    if missing > 0 {
        out.fail(format_args!(
            "{}: {missing} stored ids missing after scrub",
            site.archive.scheme().scheme_name()
        ));
    }
    site.net.inner().set_link(Tier::Local, LOCAL);
    site.net.inner().set_link(Tier::Remote, REMOTE);
}

/// Runs `repair` for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let (mut sites, setup_s) = timed_setup(9, || {
        FAMILIES
            .iter()
            .map(|&fam| setup_site(fam, seed, scale))
            .collect::<Vec<Site>>()
    });
    out.e2e.setup_s = setup_s;
    let rs = sites
        .iter()
        .find_map(|s| s.rs.clone())
        .expect("the roster has an RS archive");
    trace::reset();
    let cache0 = rs.decode_cache_stats();

    // Disasters at every offset, in seeded order: each removes every
    // 20th stored block from its offset, then every file of every archive
    // is read degraded, then each archive is scrubbed back to full
    // redundancy. Which block kinds a stride hits depends on its offset,
    // so every run cycles through all of them.
    let mut order: Vec<usize> = (0..STRIDE).collect();
    shuffle(&mut SplitMix64::new(seed), &mut order);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds * 0.5);
    let mut gets = Samples::default();
    let mut scrubs: Vec<f64> = Vec::new();
    let (mut restored, mut scrub_total, mut busy) = (0u64, 0.0, 0.0);
    let mut cycles = 0;
    while cycles == 0 || start.elapsed() < budget {
        for &offset in &order {
            for site in &sites {
                for &id in site
                    .archive
                    .stored_ids()
                    .iter()
                    .skip(offset)
                    .step_by(STRIDE)
                {
                    site.mem.remove(id);
                }
            }
            for k in 0..scale.files {
                for site in &sites {
                    let (name, crc) = &site.names[k];
                    let t0 = Instant::now();
                    let res = trace::span(kind::GET, || site.archive.get(name));
                    let dt = t0.elapsed().as_secs_f64();
                    gets.push_s(dt);
                    busy += dt;
                    out.attempted += 1;
                    match res {
                        Ok(bytes) if crc32(&bytes) == *crc => {}
                        Ok(_) => {
                            out.fail(format_args!("degraded get of {name} returned wrong bytes"))
                        }
                        Err(e) => out.fail(format_args!("degraded get of {name} failed: {e}")),
                    }
                }
            }
            let t0 = Instant::now();
            let mut n = 0;
            for site in &mut sites {
                n += trace::span(kind::SCRUB, || site.archive.scrub());
                out.attempted += 1;
            }
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            scrubs.push(dt);
            scrub_total += dt;
            restored += n;
            if n == 0 {
                out.fail(format_args!(
                    "scrub after the offset-{offset} disaster restored nothing"
                ));
            }
            for site in &sites {
                trace::paused(|| check_site(site, &mut out));
            }
        }
        cycles += 1;
    }
    let snap = trace::snapshot();
    let (h, m) = rs.decode_cache_stats();

    out.digest = sites.iter().fold(FNV_OFFSET, |h, site| {
        fnv(h, &store_digest(&site.mem).to_le_bytes())
    });

    out.samples = gets.len();
    (out.e2e.op_p50_ms, out.e2e.op_p99_ms) = gets.windowed_p50_p99();
    out.e2e.work_per_s = restored as f64 / scrub_total;
    out.named = vec![
        ("get_p50_ms", "ms", out.e2e.op_p50_ms),
        ("get_p99_ms", "ms", out.e2e.op_p99_ms),
        ("scrub_s", "s", median(&scrubs)),
    ];

    // aio: every inner op pays its link's RTT; their sum over the time
    // spent in gets and scrubs is the average number of ops in flight.
    let data_ops = snap.counter(ctr::DATA_OPS) as f64;
    let other_ops = snap.counter(ctr::OTHER_OPS) as f64;
    let rtt_s = data_ops * LOCAL.rtt.as_secs_f64() + other_ops * REMOTE.rtt.as_secs_f64();
    let cap = REMOTE.bytes_per_sec.expect("the remote link is capped") as f64;
    let l = &mut out.layers;
    l.insert("aio.inner_ops", data_ops + other_ops);
    l.insert("aio.effective_window", rtt_s / busy);
    l.insert(
        "aio.link_busy_frac",
        snap.counter(ctr::OTHER_BYTES) as f64 / cap / busy,
    );
    l.insert(
        "scheme.rs.decode_cache_hit_ratio",
        (h - cache0.0) as f64 / ((h - cache0.0) + (m - cache0.1)).max(1) as f64,
    );
    if trace::enabled() && rtt_s / busy <= 1.0 {
        out.fail(format_args!(
            "aio.effective_window = {:.3}: the pipelined path was not used",
            rtt_s / busy
        ));
    }
    eprintln!(
        "perfbench: repair cycles={cycles} gets={} restored={restored} scrub_total_s={scrub_total:.3}",
        gets.len()
    );
    out
}
