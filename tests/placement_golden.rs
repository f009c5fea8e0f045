//! Golden test pinning the partial-replication plan and the certifier
//! group map for the two TPC-W configurations the suites and the benchmark
//! run: TPC-W Mid on 16 replicas at `min_copies` 2 with 4 certifier groups
//! (the `partial-faults` benchmark workload), and TPC-W Small on 8 replicas
//! at `min_copies` 2 (the partial-replication tests' default).
//!
//! The values below were recorded from the `BTreeSet`-based planner and
//! certifier map, before relation sets became bitmaps. The benchmark's
//! fingerprint covers only one seed's outcome; this test pins the plan
//! itself: every group's relations, types, holders and size, which
//! replicas each type is eligible on, each replica's update filter and
//! held pages, and the owning certifier group of every catalog relation.

use tashkent::certifier::CertMap;
use tashkent::cluster::{PlacementMap, ReplicationPlanner, TypeGroups};
use tashkent::engine::TxnTypeId;
use tashkent::replica::UpdateFilter;
use tashkent::storage::RelationId;
use tashkent::workloads::tpcw::{self, TpcwScale};
use tashkent::workloads::Workload;

/// One relation group: relation ids, transaction type ids, holder
/// replicas and size in pages.
type GroupRow = (&'static [u32], &'static [u32], &'static [u32], u64);

/// One recorded configuration.
struct Golden {
    /// Per group, in group order.
    groups: &'static [GroupRow],
    /// Per transaction type: one character per replica, `1` when eligible.
    eligible: &'static [&'static str],
    /// Per replica: `None` for the pass-through filter, otherwise the
    /// accepted relation ids.
    filters: &'static [Option<&'static [u32]>],
    /// Per replica: pages held under the plan.
    held_pages: &'static [u32],
    /// Per `max_groups` asked for: the certifier group count and the owner
    /// of every catalog relation, by relation id.
    cert_maps: &'static [(usize, usize, &'static [u32])],
}

#[rustfmt::skip]
const MID_16X2: Golden = Golden {
    groups: &[
        (&[0, 1, 2, 13, 14, 15, 16], &[0], &[10, 11], 33730),
        (&[13, 14, 15, 16, 17, 18], &[1, 3, 5, 11], &[14, 15], 1734),
        (&[6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18], &[2], &[4, 5], 134626),
        (&[13, 14, 15, 16], &[4], &[14, 15], 1467),
        (&[13, 14, 15, 16, 19, 20, 21, 22], &[6], &[14, 15], 11643),
        (&[0, 1, 2, 3, 4, 5, 19, 20], &[7], &[8, 9], 48149),
        (&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], &[8], &[2, 3], 205834),
        (&[0, 1, 2], &[9], &[12, 13], 32263),
        (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], &[10], &[0, 1], 207821),
        (&[6, 7, 8, 9, 10, 13, 14, 15, 16], &[12], &[6, 7], 134359),
    ],
    eligible: &[
        "1111000000110000",
        "0000110000000011",
        "0000110000000000",
        "0000110000000011",
        "1111111100110011",
        "0000110000000011",
        "0011000000000011",
        "0000000011000000",
        "0011000000000000",
        "1111000011111100",
        "1100000000000000",
        "0000110000000011",
        "1111111100000000",
    ],
    filters: &[
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22]),
        Some(&[6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18]),
        Some(&[6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18]),
        Some(&[6, 7, 8, 9, 10, 13, 14, 15, 16]),
        Some(&[6, 7, 8, 9, 10, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 3, 4, 5, 19, 20]),
        Some(&[0, 1, 2, 3, 4, 5, 19, 20]),
        Some(&[0, 1, 2, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 13, 14, 15, 16]),
        Some(&[0, 1, 2]),
        Some(&[0, 1, 2]),
        Some(&[13, 14, 15, 16, 17, 18, 19, 20, 21, 22]),
        Some(&[13, 14, 15, 16, 17, 18, 19, 20, 21, 22]),
    ],
    held_pages: &[207821, 207821, 205834, 205834, 134626, 134626, 134359, 134359, 48149, 48149, 33730, 33730, 32263, 32263, 11910, 11910],
    cert_maps: &[
        (4, 3, &[0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
        (64, 6, &[0, 0, 0, 4, 4, 4, 2, 2, 2, 2, 2, 5, 5, 0, 0, 0, 0, 1, 1, 3, 3, 3, 3]),
    ],
};

#[rustfmt::skip]
const SMALL_8X2: Golden = Golden {
    groups: &[
        (&[0, 1, 2, 13, 14, 15, 16], &[0], &[4, 5], 12222),
        (&[13, 14, 15, 16, 17, 18], &[1, 3, 5, 11], &[4, 5], 1734),
        (&[6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18], &[2], &[4, 5], 46032),
        (&[13, 14, 15, 16], &[4], &[4, 5], 1467),
        (&[13, 14, 15, 16, 19, 20, 21, 22], &[6], &[4, 5], 4860),
        (&[0, 1, 2, 3, 4, 5, 19, 20], &[7], &[6, 7], 16054),
        (&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], &[8], &[2, 3], 69592),
        (&[0, 1, 2], &[9], &[4, 5], 10755),
        (&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], &[10], &[0, 1], 70256),
        (&[6, 7, 8, 9, 10, 13, 14, 15, 16], &[12], &[6, 7], 45765),
    ],
    eligible: &[
        "11111111",
        "00001100",
        "00001100",
        "00001100",
        "11111111",
        "00001100",
        "00111100",
        "00000011",
        "00110000",
        "11111111",
        "11000000",
        "00001100",
        "11111111",
    ],
    filters: &[
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22]),
        Some(&[0, 1, 2, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22]),
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 19, 20]),
        Some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 19, 20]),
    ],
    held_pages: &[70256, 70256, 69592, 69592, 60180, 60180, 61819, 61819],
    cert_maps: &[
        (4, 3, &[0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]),
        (64, 6, &[0, 0, 0, 4, 4, 4, 2, 2, 2, 2, 2, 5, 5, 0, 0, 0, 0, 1, 1, 3, 3, 3, 3]),
    ],
};

fn plan(scale: TpcwScale, replicas: usize, min_copies: usize) -> (Workload, PlacementMap) {
    let (workload, _) = tpcw::workload_with_mix(scale, "ordering");
    let groups = TypeGroups::derive(&workload);
    let map = ReplicationPlanner::new(min_copies).plan(&workload.catalog, &groups, replicas);
    (workload, map)
}

fn cert_map(workload: &Workload, max_groups: usize) -> CertMap {
    TypeGroups::derive(workload).cert_map(max_groups)
}

fn check(golden: &Golden, scale: TpcwScale, replicas: usize, min_copies: usize) {
    let (workload, map) = plan(scale, replicas, min_copies);
    assert!(!map.is_full());
    assert_eq!(map.min_copies(), min_copies);
    assert_eq!(map.group_count(), golden.groups.len(), "group count");
    for (g, (group, want)) in map.groups().iter().zip(golden.groups).enumerate() {
        let rels: Vec<u32> = group.relations.iter().map(|r| r.0).collect();
        let types: Vec<u32> = group.types.iter().map(|t| t.0).collect();
        let holders: Vec<u32> = map.holders(g).iter().map(|r| *r as u32).collect();
        assert_eq!(rels, want.0, "group {g} relations");
        assert_eq!(types, want.1, "group {g} types");
        assert_eq!(holders, want.2, "group {g} holders");
        assert_eq!(group.pages, want.3, "group {g} pages");
        for t in &group.types {
            assert_eq!(map.group_of_type(*t), Some(g), "type {t} group");
        }
    }
    assert_eq!(
        workload.types.len(),
        golden.eligible.len(),
        "one row per type"
    );
    for (t, want) in golden.eligible.iter().enumerate() {
        let got: String = (0..replicas)
            .map(|r| {
                if map.eligible(TxnTypeId(t as u32), r) {
                    '1'
                } else {
                    '0'
                }
            })
            .collect();
        assert_eq!(got, *want, "type {t} eligibility");
    }
    for r in 0..replicas {
        let want = match golden.filters[r] {
            None => UpdateFilter::all(),
            Some(ids) => UpdateFilter::only(ids.iter().map(|id| RelationId(*id))),
        };
        assert_eq!(map.filter_for(r), want, "replica {r} filter");
        assert_eq!(
            map.held_pages(r),
            golden.held_pages[r] as u64,
            "replica {r} pages"
        );
    }
    for &(max_groups, count, owners) in golden.cert_maps {
        let cert = cert_map(&workload, max_groups);
        assert_eq!(cert.group_count(), count, "max_groups {max_groups}: count");
        assert_eq!(owners.len(), workload.catalog.len());
        for (rel, want) in owners.iter().enumerate() {
            let got = cert.group_of_rel(RelationId(rel as u32));
            assert_eq!(
                got as u32, *want,
                "max_groups {max_groups}: owner of rel{rel}"
            );
        }
    }
}

#[test]
fn tpcw_mid_16_replicas_2_copies_matches_recorded_plan() {
    check(&MID_16X2, TpcwScale::Mid, 16, 2);
}

#[test]
fn tpcw_small_8_replicas_2_copies_matches_recorded_plan() {
    check(&SMALL_8X2, TpcwScale::Small, 8, 2);
}
