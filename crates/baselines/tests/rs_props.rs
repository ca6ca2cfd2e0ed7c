//! Property tests of Reed-Solomon single-block repair: the stripe decode
//! stops fetching once `k` members are in hand, and that must change
//! neither the repaired bytes nor which members a failure names.

use ae_api::{BlockMap, BlockSource, RedundancyScheme, RepairError};
use ae_baselines::ReedSolomon;
use ae_blocks::{Block, BlockId, NodeId, ShardId};
use parking_lot::Mutex;
use proptest::prelude::*;

const K: usize = 5;
const M: usize = 3;
const LEN: usize = 16;

/// A source that logs every id fetched from it, in order.
struct Counting<'a> {
    inner: &'a BlockMap,
    fetched: Mutex<Vec<BlockId>>,
}

impl BlockSource for Counting<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.fetched.lock().push(id);
        self.inner.fetch(id)
    }
}

/// Stripe `t`'s members in decode order: `k` data positions, then the
/// `m` parity shards.
fn members(t: u64) -> Vec<BlockId> {
    let k = K as u64;
    let mut out: Vec<BlockId> = (t * k + 1..=t * k + k)
        .map(|i| BlockId::Data(NodeId(i)))
        .collect();
    out.extend((0..M as u16).map(|index| BlockId::Shard(ShardId { stripe: t, index })));
    out
}

fn is_virtual(id: BlockId, written: u64) -> bool {
    matches!(id, BlockId::Data(NodeId(i)) if i > written)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over random erasure patterns — up to `m`, where every repair
    /// succeeds, and a little past it, where repairs fail typed —
    /// `repair_block` agrees with a decode from every surviving shard and
    /// fetches exactly the members up to the `k`-th one in hand.
    #[test]
    fn stripe_repair_stops_at_k_shards_without_changing_outcomes(
        seed: u64,
        written in 1u64..=3 * K as u64,
        stripe in 0u64..64,
        pos in 0usize..K + M,
        erased in proptest::collection::btree_set(0usize..K + M, 0..M + 3),
    ) {
        let rs = ReedSolomon::new(K, M).expect("valid RS parameters");
        let store = BlockMap::new();
        let mut state = seed | 1;
        let blocks: Vec<Block> = (0..written)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Block::from_vec((0..LEN).map(|b| (state >> (b * 3 % 61)) as u8).collect())
            })
            .collect();
        rs.encode_batch(&blocks, &store).expect("equal-sized blocks");
        rs.seal(&store).expect("seal the final stripe");

        let t = stripe % written.div_ceil(K as u64);
        let members = members(t);
        // The target is a stored member: a virtual position maps onto a
        // parity shard.
        let target = if is_virtual(members[pos], written) {
            members[K + pos % M]
        } else {
            members[pos]
        };
        let original = store.fetch(target).expect("every real member is stored");
        let mut lost: Vec<BlockId> = erased
            .iter()
            .map(|&i| members[i])
            .filter(|&id| !is_virtual(id, written))
            .collect();
        if !lost.contains(&target) {
            lost.push(target);
        }
        for &id in &lost {
            store.remove(&id);
        }

        // The reference: decode from every surviving shard.
        let mut shards: Vec<Option<Vec<u8>>> = members
            .iter()
            .map(|&id| {
                if is_virtual(id, written) {
                    Some(vec![0; LEN])
                } else {
                    store.fetch(id).map(|b| b.as_slice().to_vec())
                }
            })
            .collect();
        let reference = rs.reconstruct(&mut shards).map(|()| {
            let index = members.iter().position(|&id| id == target).expect("member");
            Block::from_vec(shards[index].take().expect("reconstructed"))
        });

        let source = Counting { inner: &store, fetched: Mutex::new(Vec::new()) };
        let repaired = rs.repair_block(&source, target, written);
        match (repaired, reference) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(&got, &original);
            }
            (Err(RepairError::NoCompleteTuple { target: named, missing }), Err(_)) => {
                prop_assert_eq!(named, target);
                let mut expected: Vec<BlockId> =
                    members.iter().copied().filter(|&id| id != target && lost.contains(&id)).collect();
                expected.sort();
                let mut missing = missing;
                missing.sort();
                prop_assert_eq!(missing, expected);
            }
            (got, want) => {
                return Err(format!("repair {got:?} disagrees with the full decode {want:?}"));
            }
        }

        // Fetched: members in order, virtual ones skipped, through the
        // k-th member in hand (or all of them when fewer than k are).
        let mut expected_fetches = Vec::new();
        let mut in_hand = 0;
        for &id in &members {
            if in_hand == K {
                break;
            }
            if is_virtual(id, written) {
                in_hand += 1;
                continue;
            }
            expected_fetches.push(id);
            if !lost.contains(&id) {
                in_hand += 1;
            }
        }
        prop_assert_eq!(source.fetched.lock().clone(), expected_fetches);
    }
}
