//! Network cost of the pipelined archive paths: over a remote backend,
//! scrub and degraded-read traffic must scale with damage × code
//! locality, not with the size of the archive.
//!
//! Every test runs on a virtual clock, so elapsed time is an exact count
//! of simulated round trips. The archives are AE(3,2,5), RS(10,4) and
//! 3-way replication at two sizes; a path whose cost depended on
//! `stored_ids().len()` would show it as the larger archive taking
//! longer. The `verify_batch_async` tests pin the batch verification's
//! semantics: the blanket adapter answers exactly as `read_async` does,
//! and the latency model's dead-tier and revival behaviour stay typed.

use aecodes::aio::{
    in_flight_window, BlockOn, Clock, LatencyStore, LinkSpec, RetryPolicy, Runtime, Tier, Tiering,
};
use aecodes::api::{
    AsyncBlockSource, BlockRepo, BlockSink, BlockSource, BoxFuture, RedundancyScheme, StoreError,
};
use aecodes::blocks::{Block, BlockId, MetaId, NodeId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::{FaultyStore, MemStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

const BLOCK: usize = 32;
const BLOCKS_PER_FILE: usize = 4;
const RTT: Duration = Duration::from_millis(10);
/// Two archive sizes, in files: the costs below must not grow with it.
const SIZES: [usize; 2] = [8, 64];

/// The schemes under test, each with the most blocks one `repair_block`
/// of a data block can fetch: every option's members for AE (α pairs),
/// the rest of the stripe for RS, the other copies for replication.
fn roster() -> [(Scheme, usize); 3] {
    [
        (
            Scheme::Ae(Config::new(3, 2, 5).expect("valid AE setting")),
            6,
        ),
        (Scheme::Rs { k: 10, m: 4 }, 13),
        (Scheme::Replication { n: 3 }, 2),
    ]
}

/// A backend that counts the reads (`fetch`, `has`, `read`) reaching it.
#[derive(Default)]
struct Counting {
    inner: MemStore,
    reads: AtomicU64,
}

impl Counting {
    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl BlockSource for Counting {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(id)
    }
}

impl BlockSink for Counting {
    fn store(&self, id: BlockId, block: Block) {
        self.inner.store(id, block);
    }

    fn remove(&self, id: BlockId) -> bool {
        self.inner.remove(id)
    }
}

type Net = BlockOn<LatencyStore<Counting>>;

/// An archive of `files` files, `BLOCKS_PER_FILE` blocks each, behind a
/// uniform 10 ms link on a virtual clock.
fn remote_archive(scheme: &Scheme, files: usize) -> (Archive<Net>, Arc<Net>) {
    let rt = Runtime::new(Clock::virtual_time());
    let net = Arc::new(
        LatencyStore::uniform(Arc::new(Counting::default()), rt, LinkSpec::rtt(RTT), 3).into_sync(),
    );
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, Arc::clone(&net));
    for f in 0..files {
        let bytes: Vec<u8> = (0..BLOCK * BLOCKS_PER_FILE)
            .map(|i| (i as u8) ^ (f as u8).wrapping_mul(31))
            .collect();
        ar.put(&format!("f{f:03}"), &bytes).expect("fresh name");
    }
    ar.seal().expect("flush buffered redundancy");
    (ar, net)
}

/// Elapsed virtual time of `f`, in round trips (rounded up).
fn rtts<T>(net: &Net, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = net.runtime().now();
    let out = f();
    let elapsed = net.runtime().now() - t0;
    (out, elapsed.div_ceil(RTT.as_nanos() as u64))
}

/// Round trips `ops` independent operations take through the archive's
/// in-flight window.
fn windows(ops: usize) -> u64 {
    ops.div_ceil(in_flight_window()) as u64
}

/// Scrubbing an undamaged archive costs a constant number of round trips:
/// one window carrying the in-place verification batch, the metadata
/// probes (their number bounded by the checkpoint, not by the stored ids)
/// and the stale pointer-cell clears. Before in-place verification the
/// sweep read every stored block, so the cost grew as stored ids ÷ window.
#[test]
fn pipelined_scrub_of_a_healthy_archive_costs_constant_round_trips() {
    for (scheme, _) in roster() {
        for files in SIZES {
            let (mut ar, net) = remote_archive(&scheme, files);
            let name = ar.scheme().scheme_name();
            let meta = ar.live_meta_ids().len();
            let clears = 2 * usize::from(ar.meta_config().copies);
            let (restored, cost) = rtts(&net, || ar.scrub());
            assert_eq!(restored, 0, "{name}: nothing to restore");
            let bound = windows(1 + meta + clears);
            assert!(
                cost <= bound,
                "{name} at {files} files ({} stored ids): scrub took {cost} round trips, \
                 bound {bound}",
                ar.stored_ids().len()
            );
        }
    }
}

/// A degraded read of a file missing one data block fetches the file and
/// the block's repair tuple, never the archive: at any archive size it
/// costs one window pass over each, and its inner-store reads are at most
/// the file's blocks plus the tuple.
#[test]
fn pipelined_degraded_get_fetches_its_tuple_not_the_archive() {
    for (scheme, tuple) in roster() {
        for files in SIZES {
            let (ar, net) = remote_archive(&scheme, files);
            let name = ar.scheme().scheme_name();
            let file = format!("f{:03}", files / 2);
            let entry = ar.entry(&file).expect("archived file");
            let victim = ar.data_ids()[entry.first_block as usize + 1];
            assert!(net.inner().inner().inner.remove(victim));
            let reads0 = net.inner().inner().reads();
            let (got, cost) = rtts(&net, || ar.get(&file));
            let reads = net.inner().inner().reads() - reads0;
            assert_eq!(
                got.expect("one lost block is repairable").len(),
                BLOCK * BLOCKS_PER_FILE
            );
            assert!(
                reads <= (BLOCKS_PER_FILE + tuple) as u64,
                "{name} at {files} files: {reads} inner reads for one lost block"
            );
            let bound = windows(BLOCKS_PER_FILE) + windows(tuple);
            assert!(
                cost <= bound,
                "{name} at {files} files: degraded get took {cost} round trips, bound {bound}"
            );
        }
    }
}

/// A scrub of an archive missing one data block reads, beyond the
/// verification sweep (one inner read per stored id, done where the
/// blocks live) and the metadata probes, only one repair tuple: the
/// scheme's single-failure cost (2 for AE, k for RS, 1 for replication),
/// not every option the planner could have tried.
#[test]
fn pipelined_scrub_fetches_one_tuple_per_lost_block() {
    for (scheme, _) in roster() {
        for files in SIZES {
            let (mut ar, net) = remote_archive(&scheme, files);
            let name = ar.scheme().scheme_name();
            let file = format!("f{:03}", files / 2);
            let entry = ar.entry(&file).expect("archived file");
            let victim = ar.data_ids()[entry.first_block as usize + 1];
            assert!(net.inner().inner().inner.remove(victim));
            let reads0 = net.inner().inner().reads();
            assert_eq!(ar.scrub(), 1, "{name} at {files} files");
            let reads = net.inner().inner().reads() - reads0;
            let repair_reads = reads - (ar.stored_ids().len() + ar.live_meta_ids().len()) as u64;
            let tuple = u64::from(ar.scheme().repair_cost().single_failure_reads);
            assert!(
                repair_reads <= tuple,
                "{name} at {files} files: the scrub read {repair_reads} blocks to repair one, \
                 tuple is {tuple}"
            );
            assert!(net.inner().inner().inner.contains(victim), "{name}");
        }
    }
}

/// Polls a future the blanket adapter must have made ready.
fn now_or_never<T>(mut fut: BoxFuture<'_, T>) -> T {
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("blanket adapter futures are ready-immediate"),
    }
}

/// The default `verify_batch_async`, through the blanket sync→async
/// adapter, answers every id exactly as `read_async` does: present,
/// blackholed (`NotFound`), garbled (`Corrupted`) or never stored.
#[test]
fn blanket_verify_batch_answers_as_read_async_does() {
    let faulty = FaultyStore::new(Arc::new(MemStore::new()));
    let ids: Vec<BlockId> = (0..6).map(|i| BlockId::Data(NodeId(i))).collect();
    for (i, &id) in ids[..5].iter().enumerate() {
        faulty.store(id, Block::from_vec(vec![i as u8; 8]));
    }
    faulty.fail(ids[1]);
    faulty.corrupt(ids[2]);
    faulty.corrupt(ids[4]);
    let src = &faulty;
    let verdicts = now_or_never(src.verify_batch_async(ids.clone()));
    assert_eq!(verdicts.len(), ids.len());
    for (&id, verdict) in ids.iter().zip(&verdicts) {
        let read = now_or_never(src.read_async(id)).map(drop);
        assert_eq!(*verdict, read, "{id}");
    }
    assert_eq!(verdicts[0], Ok(()));
    assert_eq!(verdicts[1], Err(StoreError::NotFound(ids[1])));
    assert_eq!(verdicts[2], Err(StoreError::Corrupted(ids[2])));
    assert_eq!(verdicts[5], Err(StoreError::NotFound(ids[5])));
}

/// A two-tier store over `inner`: data local at 1 ms, the rest remote at
/// 10 ms, with a retry policy a dead tier exhausts at 75 ms (attempts
/// start at 0, 25 and 55 ms and time out after 20 ms each).
fn two_tier<S: BlockRepo + Send + Sync>(inner: Arc<S>) -> LatencyStore<S> {
    let rt = Runtime::new(Clock::virtual_time());
    LatencyStore::new(
        inner,
        rt,
        Tiering::DataLocal {
            local: LinkSpec::rtt(Duration::from_millis(1)),
            remote: LinkSpec::rtt(RTT),
        },
        11,
    )
    .with_retry(RETRY)
}

/// Three attempts, each timing out after 20 ms, 5 ms initial backoff.
const RETRY: RetryPolicy = RetryPolicy {
    attempts: 3,
    timeout: Duration::from_millis(20),
    backoff: Duration::from_millis(5),
    multiplier: 2,
};

/// Over the latency model, a dead tier answers `TimedOut` for exactly the
/// ids routed to it while the live tier's verdicts stand; reviving the
/// tier mid-backoff heals the in-flight batch.
#[test]
fn latency_verify_batch_times_out_exactly_the_dead_tier() {
    let inner = Arc::new(MemStore::new());
    let net = Arc::new(two_tier(Arc::clone(&inner)));
    let data = BlockId::Data(NodeId(1));
    let parity = BlockId::Meta(MetaId(0));
    let lost = BlockId::Data(NodeId(2));
    inner.store(data, Block::from_vec(vec![1; 8]));
    inner.store(parity, Block::from_vec(vec![2; 8]));
    let ids = vec![parity, data, lost];
    let rt = net.runtime().clone();

    net.set_dead(Tier::Remote, true);
    let verdicts = rt.block_on(net.verify_batch_async(ids.clone()));
    assert_eq!(
        verdicts,
        vec![
            Err(StoreError::TimedOut(parity)),
            Ok(()),
            Err(StoreError::NotFound(lost)),
        ]
    );

    // The first attempt dies at its 20 ms deadline; the reviver fires
    // during the 5 ms backoff, so the second attempt finds the link up.
    let reviver = Arc::clone(&net);
    let rt2 = rt.clone();
    let t0 = rt.now();
    rt.spawn(async move {
        rt2.sleep(Duration::from_millis(22)).await;
        reviver.set_dead(Tier::Remote, false);
    });
    let verdicts = rt.block_on(net.verify_batch_async(ids));
    assert_eq!(
        verdicts,
        vec![Ok(()), Ok(()), Err(StoreError::NotFound(lost))]
    );
    let healed = rt.now() - t0;
    assert!(
        (25_000_000..45_000_000).contains(&healed),
        "healed on the second attempt (t={healed})"
    );
}

type Linked = BlockOn<LatencyStore<MemStore>>;

/// An eight-file archive over `store`.
fn linked_archive(
    scheme: &Scheme,
    store: LatencyStore<MemStore>,
) -> (Archive<Linked>, Arc<Linked>) {
    let net = Arc::new(store.into_sync());
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, Arc::clone(&net));
    for f in 0..8u8 {
        let bytes = vec![f; BLOCK * BLOCKS_PER_FILE];
        ar.put(&format!("f{f}"), &bytes).expect("fresh name");
    }
    ar.seal().expect("flush buffered redundancy");
    (ar, net)
}

/// A pipelined scrub of an undamaged archive whose one remote link stays
/// dead throughout restores nothing: a metadata copy whose probe timed
/// out is neither healthy nor healed, so it is not counted as restored.
#[test]
fn scrub_of_an_undamaged_archive_over_a_dead_remote_restores_nothing() {
    for (scheme, _) in roster() {
        let rt = Runtime::new(Clock::virtual_time());
        let link = LatencyStore::uniform(Arc::new(MemStore::new()), rt, LinkSpec::rtt(RTT), 5);
        let (mut ar, net) = linked_archive(&scheme, link.with_retry(RETRY));
        let name = ar.scheme().scheme_name();
        net.inner().set_dead(Tier::Remote, true);
        assert_eq!(ar.scrub(), 0, "{name}: dead remote");
        net.inner().set_dead(Tier::Remote, false);
        assert_eq!(ar.scrub(), 0, "{name}: revived remote");
        assert!(ar.verify_all().is_empty(), "{name}");
    }
}

/// A pipelined scrub while the remote tier is dead quarantines nothing:
/// a timed-out block is not a corrupt one. That holds even when the tier
/// revives right after the verification batch gave up, so the quarantine
/// could reach it: the scrub then restores exactly the lost blocks, and
/// full redundancy is back.
#[test]
fn scrub_over_a_dead_remote_never_quarantines_and_heals_after_revival() {
    for (scheme, _) in roster() {
        let inner = Arc::new(MemStore::new());
        let (mut ar, net) = linked_archive(&scheme, two_tier(Arc::clone(&inner)));
        let name = ar.scheme().scheme_name();
        let victims: Vec<BlockId> = ar.stored_ids().iter().copied().step_by(9).collect();
        for v in &victims {
            assert!(inner.remove(*v), "{name}: {v}");
        }
        let present = |ar: &Archive<_>| {
            ar.stored_ids()
                .iter()
                .filter(|&&id| inner.contains(id))
                .count()
        };
        let before = present(&ar);

        // Dead for the whole scrub.
        net.inner().set_dead(Tier::Remote, true);
        ar.scrub();
        let after = present(&ar);
        assert!(
            after >= before,
            "{name}: a scrub over a dead remote removed blocks ({before} -> {after})"
        );

        // Dead through the verification batch only: its three attempts
        // give up at 75 ms, and the link is back at 80 ms, before any
        // removal's retry.
        let missing = (ar.stored_ids().len() - after) as u64;
        let rt = net.runtime().clone();
        let reviver = Arc::clone(&net);
        let rt2 = rt.clone();
        rt.spawn(async move {
            rt2.sleep(Duration::from_millis(80)).await;
            reviver.inner().set_dead(Tier::Remote, false);
        });
        assert_eq!(
            ar.scrub(),
            missing,
            "{name}: the scrub restores exactly the lost blocks"
        );
        assert!(!net.inner().is_dead(Tier::Remote));
        assert_eq!(
            present(&ar),
            ar.stored_ids().len(),
            "{name}: scrub after revival restores full redundancy"
        );
        assert_eq!(ar.scrub(), 0, "{name}");
        assert!(ar.verify_all().is_empty(), "{name}");
    }
}
