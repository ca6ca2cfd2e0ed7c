//! Pass-through layer probes for the traced run.
//!
//! [`TracedScheme`] wraps a redundancy scheme and [`TracedStore`] wraps a
//! backend. Both forward **every** trait method to the wrapped value,
//! defaulted ones included, so installing them changes no behaviour: the
//! archive sees the same answers, the backend receives the same writes,
//! and `as_async` still exposes the same native async interior. They only
//! open a [`crate::trace`] span around each call and count what passes.

use crate::trace::{self, ctr, kind, op};
use ae_api::{
    AeError, AsyncHandle, BlockRepo, BlockSink, BlockSource, EncodeReport, RedundancyScheme,
    RepairCost, RepairError, RepairSummary, StoreError,
};
use ae_blocks::{Block, BlockId};
use std::sync::Arc;

/// A redundancy scheme that records a span around each call.
pub struct TracedScheme {
    inner: Arc<dyn RedundancyScheme>,
    fam: usize,
}

impl TracedScheme {
    /// Wraps `inner`, charging its spans to scheme family `fam`
    /// (an index into [`trace::FAMILIES`]).
    pub fn new(inner: Arc<dyn RedundancyScheme>, fam: usize) -> Self {
        TracedScheme { inner, fam }
    }

    fn span<R>(&self, o: usize, f: impl FnOnce() -> R) -> R {
        trace::span(trace::scheme_kind(self.fam, o), f)
    }

    fn count_summary(&self, summary: &RepairSummary) {
        let c = |i| trace::family_ctr(self.fam, i);
        trace::count(c(ctr::REPAIR_ROUNDS), summary.rounds.len() as u64);
        trace::count(c(ctr::REPAIR_READS), summary.blocks_read);
        trace::count(c(ctr::REPAIRED), summary.total_repaired() as u64);
    }
}

impl RedundancyScheme for TracedScheme {
    fn scheme_name(&self) -> String {
        self.inner.scheme_name()
    }

    fn data_written(&self) -> u64 {
        self.inner.data_written()
    }

    fn repair_cost(&self) -> RepairCost {
        self.inner.repair_cost()
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        self.span(op::ENCODE, || self.inner.encode_batch(blocks, sink))
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        self.span(op::SEAL, || self.inner.seal(sink))
    }

    fn frontier_snapshot(&self) -> Vec<u8> {
        self.span(op::SNAPSHOT, || self.inner.frontier_snapshot())
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        self.span(op::RESTORE, || {
            self.inner.restore_frontier(snapshot, source)
        })
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let out = self.span(op::REPAIR_BLOCK, || {
            self.inner.repair_block(source, id, data_blocks)
        });
        if out.is_err() {
            trace::count(trace::family_ctr(self.fam, ctr::REPAIR_FAILED), 1);
        }
        out
    }

    fn repair_missing(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        let summary = self.span(op::REPAIR_MISSING, || {
            self.inner.repair_missing(repo, targets, data_blocks)
        });
        self.count_summary(&summary);
        summary
    }

    fn repair_missing_serial(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        let summary = self.span(op::REPAIR_MISSING, || {
            self.inner.repair_missing_serial(repo, targets, data_blocks)
        });
        self.count_summary(&summary);
        summary
    }

    fn repair_traffic(&self, repaired: &[BlockId]) -> u64 {
        self.inner.repair_traffic(repaired)
    }

    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        self.inner.block_ids(data_blocks)
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_repairable(id, data_blocks, avail)
    }

    fn is_single_failure(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_single_failure(id, data_blocks, avail)
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        self.inner.maintenance_targets(missing_data, data_blocks)
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.inner.universe_len(data_blocks)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.inner.dense_index(id, data_blocks)
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        self.inner.block_at(k, data_blocks)
    }

    fn supports_dense_index(&self) -> bool {
        self.inner.supports_dense_index()
    }
}

/// A backend that records a span around each call and counts traffic.
pub struct TracedStore<S: ?Sized> {
    inner: Arc<S>,
}

impl<S: ?Sized> TracedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<S>) -> Self {
        TracedStore { inner }
    }
}

fn fetch_kind(id: BlockId) -> usize {
    if id.is_meta() {
        kind::META_FETCH
    } else {
        kind::FETCH
    }
}

/// Counts one backend operation on `id` moving `bytes` (link accounting:
/// data ids ride the fast link, everything else the remote one).
fn count_link(id: BlockId, bytes: u64) {
    if id.is_data() {
        trace::count(ctr::DATA_OPS, 1);
    } else {
        trace::count(ctr::OTHER_OPS, 1);
        trace::count(ctr::OTHER_BYTES, bytes);
    }
}

impl<S: BlockSource + ?Sized + Send> BlockSource for TracedStore<S> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        let out = trace::span(fetch_kind(id), || self.inner.fetch(id));
        count_link(id, out.as_ref().map_or(0, |b| b.len() as u64));
        if out.is_none() {
            trace::count(ctr::FETCH_MISS, 1);
        }
        out
    }

    fn has(&self, id: BlockId) -> bool {
        let out = trace::span(fetch_kind(id), || self.inner.has(id));
        count_link(id, 0);
        if !out {
            trace::count(ctr::FETCH_MISS, 1);
        }
        out
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        let out = trace::span(fetch_kind(id), || self.inner.read(id));
        count_link(id, out.as_ref().map_or(0, |b| b.len() as u64));
        if out.is_err() {
            trace::count(ctr::FETCH_MISS, 1);
        }
        out
    }

    fn as_async(&self) -> Option<AsyncHandle<'_>> {
        self.inner.as_async()
    }
}

impl<S: BlockSink + ?Sized> BlockSink for TracedStore<S> {
    fn store(&self, id: BlockId, block: Block) {
        let bytes = block.len() as u64;
        count_link(id, bytes);
        if let BlockId::Meta(m) = id {
            trace::count(ctr::META_BYTES, bytes);
            if m.is_pointer() {
                trace::count(ctr::POINTER_WRITES, 1);
            }
            trace::span(kind::META_STORE, || self.inner.store(id, block));
        } else {
            trace::count(ctr::BYTES_STORED, bytes);
            trace::span(kind::STORE, || self.inner.store(id, block));
        }
    }

    fn remove(&self, id: BlockId) -> bool {
        count_link(id, 0);
        trace::span(kind::REMOVE, || self.inner.remove(id))
    }
}
