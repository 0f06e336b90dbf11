//! Property tests pinning the SoA tree to its observable contract: random
//! join/leave churn must satisfy the brute-force marking oracle
//! ([`crate::sanitize::verify_marking`]), the non-allocating iterator
//! accessors must agree with their collecting counterparts, and snapshots
//! must round-trip — so the storage layout stays invisible to every
//! consumer of the tree API.

use proptest::prelude::*;
use wirecrypto::{KeyGen, SymKey};

use crate::marking::{Batch, CompactionPolicy, MarkScratch};
use crate::node::MemberId;
use crate::sanitize::verify_marking;
use crate::tree::KeyTree;

fn arbitrary_churn() -> impl Strategy<Value = (u32, u32, Vec<(usize, usize)>)> {
    // (initial users, degree, per-round (joins, leaves))
    (
        0u32..150,
        prop::sample::select(vec![2u32, 3, 4, 8]),
        proptest::collection::vec((0usize..30, 0usize..30), 1..5),
    )
}

/// Checks that every allocation-free accessor matches its `Vec`-returning
/// counterpart on the current tree.
fn assert_iterators_agree(tree: &KeyTree) -> Result<(), TestCaseError> {
    let user_ids: Vec<_> = tree.user_ids_iter().collect();
    prop_assert_eq!(user_ids, tree.user_ids());
    let member_ids: Vec<_> = tree.member_ids_iter().collect();
    prop_assert_eq!(member_ids, tree.member_ids());
    for m in tree.member_ids() {
        let via_iter: Option<Vec<_>> = tree
            .keys_for_member_iter(m)
            .and_then(|it| it.map(|(id, k)| Some((id, k?))).collect());
        prop_assert_eq!(via_iter, tree.keys_for_member(m), "member {}", m);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random churn through the scratch-reusing entry point passes the
    /// brute-force oracle every round, with iterator/Vec agreement and a
    /// snapshot round-trip after each batch.
    #[test]
    fn soa_tree_is_observationally_sound(
        (n0, d, rounds) in arbitrary_churn(),
        seed in any::<u64>(),
    ) {
        let mut kg = KeyGen::from_seed(seed);
        let mut tree = KeyTree::balanced(n0, d, &mut kg);
        let mut scratch = MarkScratch::new();
        let mut next_member = n0;
        let mut rng_state = seed | 1;

        for (j, l) in rounds {
            let mut pool = tree.member_ids();
            let l = l.min(pool.len());
            let mut leavers: Vec<MemberId> = Vec::new();
            for _ in 0..l {
                rng_state = rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (rng_state >> 33) as usize % pool.len();
                leavers.push(pool.swap_remove(idx));
            }
            let joins: Vec<(MemberId, SymKey)> = (0..j)
                .map(|_| {
                    let m = next_member;
                    next_member += 1;
                    (m, kg.next_key())
                })
                .collect();

            let batch = Batch::new(joins, leavers);
            let before = tree.clone();
            let outcome = tree.process_batch_compacting_in(batch.clone(), &mut kg, &mut scratch, &CompactionPolicy::DISABLED);

            let oracle = verify_marking(&before, &tree, &batch, &outcome);
            prop_assert_eq!(&oracle, &Ok(()), "oracle rejected the batch");
            assert_iterators_agree(&tree)?;

            let snap = tree.snapshot();
            let restored = match KeyTree::restore(&snap) {
                Ok(t) => t,
                Err(e) => return Err(TestCaseError::Fail(format!("restore failed: {e:?}"))),
            };
            prop_assert_eq!(restored.snapshot(), snap, "snapshot round-trip");
            prop_assert_eq!(restored.member_ids(), tree.member_ids());
            for m in tree.member_ids() {
                prop_assert_eq!(restored.keys_for_member(m), tree.keys_for_member(m));
            }
        }
    }
}
