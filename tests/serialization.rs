//! Serialization round-trips across the crate boundary: the compact binary
//! format and (feature-gated in req-core, always on for this harness build)
//! serde, including sketches with merge history and growth events.

use req_core::{
    OrdF64, ParamPolicy, QuantileSketch, RankAccuracy, ReqError, ReqSketch, SpaceUsage,
};
use streams::{geometric_ranks, SortOracle, Workload};

fn loaded_equals_original(mut original: ReqSketch<u64>, items: &[u64]) {
    let oracle = SortOracle::new(items);
    let bytes = original.to_bytes();
    let loaded = ReqSketch::<u64>::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(loaded.len(), original.len());
    assert_eq!(loaded.retained(), original.retained());
    assert_eq!(loaded.total_weight(), original.total_weight());
    assert_eq!(loaded.max_n(), original.max_n());
    for r in geometric_ranks(oracle.n(), 2.0) {
        let item = oracle.item_at_rank(r).unwrap();
        assert_eq!(loaded.rank(&item), original.rank(&item), "rank({item})");
    }
}

#[test]
fn binary_roundtrip_after_streaming() {
    let items = Workload::uniform(1 << 48).generate(1 << 16, 1);
    let mut s = ReqSketch::<u64>::builder().k(24).seed(1).build().unwrap();
    for &x in &items {
        s.update(x);
    }
    loaded_equals_original(s, &items);
}

#[test]
fn binary_roundtrip_after_merges_and_growth() {
    let items = Workload::uniform(1 << 48).generate(1 << 16, 2);
    let mut a = ReqSketch::<u64>::builder().k(16).seed(2).build().unwrap();
    let mut b = ReqSketch::<u64>::builder().k(16).seed(3).build().unwrap();
    for (i, &x) in items.iter().enumerate() {
        if i % 2 == 0 {
            a.update(x);
        } else {
            b.update(x);
        }
    }
    a.try_merge(b).unwrap();
    loaded_equals_original(a, &items);
}

#[test]
fn binary_roundtrip_continues_correctly() {
    // serialize mid-stream, deserialize, finish the stream, verify accuracy
    let n = 1u64 << 16;
    let items = Workload::uniform(1 << 40).generate(n as usize, 3);
    // low-rank orientation: the assertions below probe low-rank relative
    // error, which the default (high-rank) orientation does not promise.
    let mut s = ReqSketch::<u64>::builder()
        .k(32)
        .high_rank_accuracy(false)
        .seed(4)
        .build()
        .unwrap();
    let half = n as usize / 2;
    for &x in &items[..half] {
        s.update(x);
    }
    let bytes = s.to_bytes();
    let mut resumed = ReqSketch::<u64>::from_bytes(&bytes).unwrap();
    for &x in &items[half..] {
        resumed.update(x);
    }
    assert_eq!(resumed.len(), n);
    let oracle = SortOracle::new(&items);
    for r in geometric_ranks(n, 4.0) {
        let item = oracle.item_at_rank(r).unwrap();
        let truth = oracle.rank(item);
        let rel = resumed.rank(&item).abs_diff(truth) as f64 / truth as f64;
        assert!(rel < 0.06, "rank {truth}: rel {rel}");
    }
}

#[test]
fn binary_f64_sketch_roundtrip() {
    let mut s = ReqSketch::<OrdF64>::builder()
        .k(16)
        .seed(5)
        .build_f64()
        .unwrap();
    for i in 0..20_000 {
        s.update_f64((i as f64).sin() * 1000.0);
    }
    let bytes = s.to_bytes();
    let loaded = ReqSketch::<OrdF64>::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.len(), 20_000);
    assert_eq!(loaded.rank_f64(0.0), s.rank_f64(0.0));
    assert_eq!(loaded.quantile_f64(0.99), s.quantile_f64(0.99));
}

#[test]
fn serde_impls_exist_for_item_types() {
    // The serde feature is enabled through the harness dependency; no JSON
    // crate is sanctioned, so this asserts the trait bounds (the actual
    // value-level roundtrip is covered by req-core's binary format above and
    // by unit tests of the serde repr inside req-core).
    fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
    assert_serde::<ReqSketch<u64>>();
    assert_serde::<ReqSketch<OrdF64>>();
}

#[test]
fn corrupt_bytes_never_panic() {
    let items = Workload::uniform(1 << 20).generate(1 << 12, 7);
    let mut s = ReqSketch::<u64>::builder().k(12).seed(8).build().unwrap();
    for &x in &items {
        s.update(x);
    }
    let good = s.to_bytes().to_vec();
    // flip each byte in a sample of positions; must never panic
    for pos in (0..good.len()).step_by(13) {
        let mut bad = good.clone();
        bad[pos] ^= 0xFF;
        let _ = ReqSketch::<u64>::from_bytes(&bad); // Ok or Err, no panic
    }
    // random truncations
    for cut in (0..good.len()).step_by(17) {
        assert!(ReqSketch::<u64>::from_bytes(&good[..cut]).is_err());
    }
    // Hostile geometry: each mutation alone used to make the decoder
    // reserve gigabytes for the level buffers and abort the process. Fixed
    // header of a FixedK u64 image: magic(4) version(1) flags(1) policy
    // tag(1)+k(4) n(8) max_n(8), then k at 27..31; min/max are both
    // present (1+8 bytes each) and num_levels sits at 61..65, so level 0's
    // state/compactions/special put its section count at 89..93.
    let u32_at = |off: usize| u32::from_le_bytes(good[off..off + 4].try_into().unwrap());
    assert_eq!(u32_at(27), 12, "header k offset");
    assert_eq!(
        u32_at(89),
        s.stats().levels[0].num_sections,
        "level-0 sections offset"
    );
    for (off, value) in [(27, 1u32 << 24), (89, 1 << 26), (89, 0)] {
        let mut bad = good.clone();
        bad[off..off + 4].copy_from_slice(&value.to_le_bytes());
        assert!(
            matches!(
                ReqSketch::<u64>::from_bytes(&bad),
                Err(ReqError::CorruptBytes(_))
            ),
            "field at {off} = {value} accepted"
        );
    }
}

#[test]
fn every_policy_roundtrips_with_data() {
    let policies = [
        ParamPolicy::mergeable(0.1, 0.1).unwrap(),
        ParamPolicy::mergeable_scaled(0.1, 0.1, 0.5).unwrap(),
        ParamPolicy::streaming(0.1, 0.05, 1 << 16).unwrap(),
        ParamPolicy::small_delta(0.1, 1e-9, 1 << 16).unwrap(),
        ParamPolicy::deterministic(0.2, 1 << 16).unwrap(),
        ParamPolicy::fixed_k(48).unwrap(),
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        let mut s = ReqSketch::<u64>::with_policy(policy, RankAccuracy::HighRank, i as u64);
        for j in 0..10_000u64 {
            s.update(j * 31 % 10_007);
        }
        let loaded = ReqSketch::<u64>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(loaded.policy(), policy);
        assert_eq!(loaded.rank_accuracy(), RankAccuracy::HighRank);
        assert_eq!(loaded.rank(&5_000), s.rank(&5_000));
    }
}
