//! Golden test pinning MALB's packing on the paper's workloads: TPC-W MidDB
//! at 512 MB on 16 replicas (the paper's testbed, §5) in the ordering,
//! shopping and browsing mixes under MALB-S, MALB-SC and MALB-SCAP, and
//! RUBiS bidding under MALB-SC.
//!
//! The cluster estimates every transaction type's working set from its
//! `EXPLAIN` plan and the catalog's `relpages`, packs the first mix's
//! active types by Best-Fit-Decreasing (§2.3) and spreads the replicas over
//! the groups. For each configuration this test pins every group's types
//! (in packing order), relations, estimate in pages and overflow flag; the
//! initial `assignments()`; and the update-filter table list `filter_lists`
//! computes for each replica from that assignment (§3, at the config's
//! `min_copies` of 2).
//!
//! The values were recorded from the packer that kept each group's
//! relations in a `BTreeMap` of relation → pages, before working sets
//! became relation bitmaps.

use tashkent::cluster::{ClusterConfig, ClusterState, PolicySpec};
use tashkent::core::{filter_lists, EstimationMode, ReplicaId, TxnGroup, WorkingSetEstimator};
use tashkent::workloads::tpcw::{self, TpcwScale};
use tashkent::workloads::{rubis, Mix, Workload};

/// One group: type ids in packing order, relation ids, estimate in pages,
/// overflow flag.
type GroupRow = (&'static [u32], &'static [u32], u64, bool);

/// One allocation unit: type ids (ascending) and replica ids.
type UnitRow = (&'static [u32], &'static [u32]);

/// One recorded configuration.
struct Golden {
    /// Per group, in group order.
    groups: &'static [GroupRow],
    /// The initial assignment, per unit.
    units: &'static [UnitRow],
    /// Per replica: the relation ids its update filter keeps current.
    filters: &'static [&'static [u32]],
}

#[rustfmt::skip]
const MID_ORDERING_S: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20], 55841, false),
        (&[0, 9], &[0, 1, 2, 13, 14], 55949, false),
        (&[6], &[13, 14, 19, 20, 21, 22], 11527, false),
    ],
    units: &[
        (&[8], &[0, 4, 11]),
        (&[10], &[1, 5, 12]),
        (&[2], &[2, 6, 13]),
        (&[12], &[3, 7, 14]),
        (&[1, 3, 4, 5, 7, 11], &[8, 15]),
        (&[0, 9], &[9]),
        (&[6], &[10]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
        &[0, 1, 2, 13, 14],
        &[13, 14, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
    ],
};

#[rustfmt::skip]
const MID_ORDERING_SC: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 0, 9, 6, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22], 56220, false),
    ],
    units: &[
        (&[8], &[0, 4, 9, 14]),
        (&[10], &[1, 5, 10, 15]),
        (&[2], &[2, 6, 11]),
        (&[12], &[3, 7, 12]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 11], &[8, 13]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
    ],
};

#[rustfmt::skip]
const MID_ORDERING_SCAP: Golden = Golden {
    groups: &[
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13], 111850, true),
        (&[8], &[9], 70354, true),
        (&[5, 1, 7, 10, 0, 3, 4, 6, 9, 11], &[5, 13, 17], 1547, false),
    ],
    units: &[
        (&[2], &[0, 3, 7, 11, 15]),
        (&[12], &[1, 4, 8, 12]),
        (&[8], &[2, 5, 9, 13]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 10, 11], &[6, 10, 14]),
    ],
    filters: &[
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
    ],
};

#[rustfmt::skip]
const MID_SHOPPING_S: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20], 55841, false),
        (&[0, 9], &[0, 1, 2, 13, 14], 55949, false),
        (&[6], &[13, 14, 19, 20, 21, 22], 11527, false),
    ],
    units: &[
        (&[8], &[0, 4, 11]),
        (&[10], &[1, 5, 12]),
        (&[2], &[2, 6, 13]),
        (&[12], &[3, 7, 14]),
        (&[1, 3, 4, 5, 7, 11], &[8, 15]),
        (&[0, 9], &[9]),
        (&[6], &[10]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
        &[0, 1, 2, 13, 14],
        &[13, 14, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
    ],
};

#[rustfmt::skip]
const MID_SHOPPING_SC: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 0, 9, 6, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22], 56220, false),
    ],
    units: &[
        (&[8], &[0, 4, 9, 14]),
        (&[10], &[1, 5, 10, 15]),
        (&[2], &[2, 6, 11]),
        (&[12], &[3, 7, 12]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 11], &[8, 13]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
    ],
};

#[rustfmt::skip]
const MID_SHOPPING_SCAP: Golden = Golden {
    groups: &[
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13], 111850, true),
        (&[8], &[9], 70354, true),
        (&[5, 1, 7, 10, 0, 3, 4, 6, 9, 11], &[5, 13, 17], 1547, false),
    ],
    units: &[
        (&[2], &[0, 3, 7, 11, 15]),
        (&[12], &[1, 4, 8, 12]),
        (&[8], &[2, 5, 9, 13]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 10, 11], &[6, 10, 14]),
    ],
    filters: &[
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
    ],
};

#[rustfmt::skip]
const MID_BROWSING_S: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20], 55841, false),
        (&[0, 9], &[0, 1, 2, 13, 14], 55949, false),
        (&[6], &[13, 14, 19, 20, 21, 22], 11527, false),
    ],
    units: &[
        (&[8], &[0, 4, 11]),
        (&[10], &[1, 5, 12]),
        (&[2], &[2, 6, 13]),
        (&[12], &[3, 7, 14]),
        (&[1, 3, 4, 5, 7, 11], &[8, 15]),
        (&[0, 9], &[9]),
        (&[6], &[10]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
        &[0, 1, 2, 13, 14],
        &[13, 14, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20],
    ],
};

#[rustfmt::skip]
const MID_BROWSING_SC: Golden = Golden {
    groups: &[
        (&[8], &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22], 205834, true),
        (&[10], &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14], 198274, true),
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13, 14, 15, 16], 112024, true),
        (&[7, 0, 9, 6, 3, 11, 1, 5, 4], &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22], 56220, false),
    ],
    units: &[
        (&[8], &[0, 4, 9, 14]),
        (&[10], &[1, 5, 10, 15]),
        (&[2], &[2, 6, 11]),
        (&[12], &[3, 7, 12]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 11], &[8, 13]),
    ],
    filters: &[
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 3, 4, 5, 13, 14, 17, 18, 19, 20, 21, 22],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14],
    ],
};

#[rustfmt::skip]
const MID_BROWSING_SCAP: Golden = Golden {
    groups: &[
        (&[2], &[6, 9, 13, 17], 112102, true),
        (&[12], &[6, 9, 13], 111850, true),
        (&[8], &[9], 70354, true),
        (&[5, 1, 7, 10, 0, 3, 4, 6, 9, 11], &[5, 13, 17], 1547, false),
    ],
    units: &[
        (&[2], &[0, 3, 7, 11, 15]),
        (&[12], &[1, 4, 8, 12]),
        (&[8], &[2, 5, 9, 13]),
        (&[0, 1, 3, 4, 5, 6, 7, 9, 10, 11], &[6, 10, 14]),
    ],
    filters: &[
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
        &[6, 9, 13, 14, 15, 16],
        &[0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22],
        &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22],
        &[6, 9, 13, 17],
    ],
};

#[rustfmt::skip]
const RUBIS_BIDDING_SC: Golden = Golden {
    groups: &[
        (&[0], &[0, 1, 3, 5, 6, 7, 9, 10, 11, 12, 13], 246875, true),
        (&[1], &[0, 1, 3, 4, 7, 8], 168948, true),
        (&[3], &[0, 1, 3, 4, 7, 8], 168948, true),
        (&[4], &[0, 1, 5, 6, 10, 11], 142754, true),
        (&[15], &[3, 4, 7, 8, 9], 121555, true),
        (&[2], &[0, 1, 2, 10, 11], 109722, true),
        (&[16], &[3, 4, 7, 8], 98577, true),
        (&[8], &[0, 1, 3, 4, 12, 13], 76893, true),
        (&[10], &[0, 1, 2], 76116, true),
        (&[9], &[0, 1, 3, 4], 71291, true),
        (&[13], &[0, 1, 3, 4], 71291, true),
        (&[11], &[0, 1, 3, 15], 71234, true),
        (&[5], &[0, 2], 70371, true),
        (&[12, 14, 6, 7], &[3, 4, 12, 13, 14, 15], 6524, false),
    ],
    units: &[
        (&[0], &[0, 14]),
        (&[1], &[1, 15]),
        (&[3], &[2]),
        (&[4], &[3]),
        (&[15], &[4]),
        (&[2], &[5]),
        (&[16], &[6]),
        (&[8], &[7]),
        (&[10], &[8]),
        (&[9], &[9]),
        (&[13], &[10]),
        (&[11], &[11]),
        (&[5], &[12]),
        (&[6, 7, 12, 14], &[13]),
    ],
    filters: &[
        &[0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15],
        &[0, 1, 3, 4, 7, 8, 9],
        &[0, 1, 3, 4, 7, 8],
        &[0, 1, 5, 6, 10, 11],
        &[3, 4, 7, 8, 9],
        &[0, 1, 2, 10, 11],
        &[3, 4, 7, 8],
        &[0, 1, 3, 4, 12, 13],
        &[0, 1, 2],
        &[0, 1, 3, 4],
        &[0, 1, 3, 4],
        &[0, 1, 3, 15],
        &[0, 2],
        &[3, 4, 12, 13, 14, 15],
        &[0, 1, 3, 5, 6, 7, 9, 10, 11, 12, 13],
        &[0, 1, 3, 4, 7, 8],
    ],
};

/// A group's relation ids, ascending.
fn relation_ids(g: &TxnGroup) -> Vec<u32> {
    g.relations.iter().map(|r| r.0).collect()
}

fn check(golden: &Golden, workload: Workload, mix: Mix, mode: EstimationMode) {
    let config = ClusterConfig::paper_default()
        .with_ram_mb(512)
        .with_policy(PolicySpec::Malb {
            mode,
            update_filtering: true,
        });
    assert_eq!(config.replicas, 16);
    let state = ClusterState::new(config.clone(), workload.clone(), vec![mix.clone()]);
    let lb = state.balancer();

    let groups = lb.groups();
    assert_eq!(groups.len(), golden.groups.len(), "group count");
    for (g, (group, want)) in groups.iter().zip(golden.groups).enumerate() {
        let types: Vec<u32> = group.types.iter().map(|t| t.0).collect();
        assert_eq!(types, want.0, "group {g} types");
        assert_eq!(relation_ids(group), want.1, "group {g} relations");
        assert_eq!(group.estimate_pages, want.2, "group {g} estimate");
        assert_eq!(group.overflow, want.3, "group {g} overflow");
    }

    let units = lb.assignments();
    assert_eq!(units.len(), golden.units.len(), "unit count");
    for (u, ((types, replicas), want)) in units.iter().zip(golden.units).enumerate() {
        let types: Vec<u32> = types.iter().map(|t| t.0).collect();
        let replicas: Vec<u32> = replicas.iter().map(|r| r.0 as u32).collect();
        assert_eq!(types, want.0, "unit {u} types");
        assert_eq!(replicas, want.1, "unit {u} replicas");
    }

    // Each group is served by the replicas of the unit holding its types.
    let per_group: Vec<Vec<ReplicaId>> = groups
        .iter()
        .map(|g| {
            let unit = units.iter().find(|(types, _)| types.contains(&g.types[0]));
            unit.expect("every group has a unit").1.clone()
        })
        .collect();
    let estimator = WorkingSetEstimator::new(&workload.catalog);
    let sets: Vec<_> = mix
        .active_types()
        .iter()
        .map(|t| estimator.estimate(*t, &workload.explain(*t)))
        .collect();
    let all: Vec<ReplicaId> = (0..config.replicas).map(ReplicaId).collect();
    let min_copies = config.malb_config().expect("policy is MALB").min_copies;
    let plans = filter_lists(&groups, &sets, &per_group, &all, min_copies);
    assert_eq!(plans.len(), golden.filters.len(), "one filter per replica");
    for (r, (plan, want)) in plans.iter().zip(golden.filters).enumerate() {
        assert_eq!(plan.replica, ReplicaId(r));
        let tables = plan
            .tables
            .as_ref()
            .expect("filter lists name their tables");
        let tables: Vec<u32> = tables.iter().map(|rel| rel.0).collect();
        assert_eq!(tables, *want, "replica {r} filter");
    }
}

fn tpcw_mid(mix: &str, mode: EstimationMode, golden: &Golden) {
    let (workload, mix) = tpcw::workload_with_mix(TpcwScale::Mid, mix);
    check(golden, workload, mix, mode);
}

#[test]
fn tpcw_mid_ordering_s() {
    tpcw_mid("ordering", EstimationMode::Size, &MID_ORDERING_S);
}

#[test]
fn tpcw_mid_ordering_sc() {
    tpcw_mid("ordering", EstimationMode::SizeContent, &MID_ORDERING_SC);
}

#[test]
fn tpcw_mid_ordering_scap() {
    tpcw_mid(
        "ordering",
        EstimationMode::SizeContentAccessPattern,
        &MID_ORDERING_SCAP,
    );
}

#[test]
fn tpcw_mid_shopping_s() {
    tpcw_mid("shopping", EstimationMode::Size, &MID_SHOPPING_S);
}

#[test]
fn tpcw_mid_shopping_sc() {
    tpcw_mid("shopping", EstimationMode::SizeContent, &MID_SHOPPING_SC);
}

#[test]
fn tpcw_mid_shopping_scap() {
    tpcw_mid(
        "shopping",
        EstimationMode::SizeContentAccessPattern,
        &MID_SHOPPING_SCAP,
    );
}

#[test]
fn tpcw_mid_browsing_s() {
    tpcw_mid("browsing", EstimationMode::Size, &MID_BROWSING_S);
}

#[test]
fn tpcw_mid_browsing_sc() {
    tpcw_mid("browsing", EstimationMode::SizeContent, &MID_BROWSING_SC);
}

#[test]
fn tpcw_mid_browsing_scap() {
    tpcw_mid(
        "browsing",
        EstimationMode::SizeContentAccessPattern,
        &MID_BROWSING_SCAP,
    );
}

#[test]
fn rubis_bidding_sc() {
    let (workload, mix) = rubis::workload_with_mix("bidding");
    check(
        &RUBIS_BIDDING_SC,
        workload,
        mix,
        EstimationMode::SizeContent,
    );
}
