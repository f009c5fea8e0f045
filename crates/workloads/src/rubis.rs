//! RUBiS: the auction-site benchmark (§4.4).
//!
//! The paper's RUBiS database holds 10,000 active items, 1 M users and
//! 500,000 old items, totalling 2.2 GB. It exposes 17 transaction types
//! (Table 4) over two mixes: browsing (read-only) and bidding (15 %
//! updates). The paper's implementation is transactional with primary-key
//! indices; `AboutMe` is the "large, frequent transaction that reads from
//! almost all the tables in the database".

use tashkent_engine::{Access, CpuCosts, TxnPlan, TxnType, TxnTypeId};
use tashkent_storage::{Catalog, RelationId};

use crate::spec::{insert, lookups, pages, read, update, Mix, Workload};

/// Relation ids of the RUBiS schema.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct RubisRels {
    pub users: RelationId,
    pub users_pk: RelationId,
    pub users_nick: RelationId,
    pub items: RelationId,
    pub items_pk: RelationId,
    pub old_items: RelationId,
    pub old_items_pk: RelationId,
    pub bids: RelationId,
    pub bids_item: RelationId,
    pub bids_user: RelationId,
    pub comments: RelationId,
    pub comments_to: RelationId,
    pub buy_now: RelationId,
    pub buy_now_pk: RelationId,
    pub categories: RelationId,
    pub regions: RelationId,
}

/// Builds the RUBiS schema (paper scale: 1 M users, 10 k active items,
/// 500 k old items, ≈ 2.2 GB).
pub fn schema() -> (Catalog, RubisRels) {
    let mut c = Catalog::new();
    let n_users: u64 = 1_000_000;
    let n_items: u64 = 10_000;
    let n_old: u64 = 500_000;
    let n_bids: u64 = 4_000_000;
    let n_comments: u64 = 600_000;
    let n_buy_now: u64 = 300_000;

    let users = c.add_table("users", pages(n_users, 450), n_users);
    let users_pk = c.add_index("users_pk", users, pages(n_users, 40), n_users);
    let users_nick = c.add_index("users_nick", users, pages(n_users, 40), n_users);
    let items = c.add_table("items", pages(n_items, 600), n_items);
    let items_pk = c.add_index("items_pk", items, pages(n_items, 40), n_items);
    let old_items = c.add_table("old_items", pages(n_old, 500), n_old);
    let old_items_pk = c.add_index("old_items_pk", old_items, pages(n_old, 40), n_old);
    let bids = c.add_table("bids", pages(n_bids, 130), n_bids);
    let bids_item = c.add_index("bids_item", bids, pages(n_bids, 40), n_bids);
    let bids_user = c.add_index("bids_user", bids, pages(n_bids, 40), n_bids);
    let comments = c.add_table("comments", pages(n_comments, 350), n_comments);
    let comments_to = c.add_index("comments_to", comments, pages(n_comments, 40), n_comments);
    let buy_now = c.add_table("buy_now", pages(n_buy_now, 90), n_buy_now);
    let buy_now_pk = c.add_index("buy_now_pk", buy_now, pages(n_buy_now, 40), n_buy_now);
    let categories = c.add_table("categories", 1, 20);
    let regions = c.add_table("regions", 1, 62);

    let rels = RubisRels {
        users,
        users_pk,
        users_nick,
        items,
        items_pk,
        old_items,
        old_items_pk,
        bids,
        bids_item,
        bids_user,
        comments,
        comments_to,
        buy_now,
        buy_now_pk,
        categories,
        regions,
    };
    (c, rels)
}

const OLTP_CPU: CpuCosts = CpuCosts {
    base_us: 1_500,
    per_page_us: 25,
    per_write_us: 250,
};

/// AboutMe assembles a user's full history: heavier fixed cost.
const ABOUTME_CPU: CpuCosts = CpuCosts {
    base_us: 30_000,
    per_page_us: 25,
    per_write_us: 250,
};

/// Builds the 17 RUBiS transaction types (Table 4 names).
pub fn transaction_types(r: &RubisRels) -> Vec<TxnType> {
    let mut types = Vec::new();
    let mut add = |name: &str, plan: TxnPlan| {
        let id = TxnTypeId(types.len() as u32);
        types.push(TxnType::new(id, name, plan));
    };

    // AboutMe: the user's bids, sales, purchases and comments — random
    // access across nearly every table.
    add(
        "AboutMe",
        TxnPlan::new(vec![
            lookups(r.users_pk, 1, 0.0),
            lookups(r.bids_user, 80, 0.3),
            lookups(r.comments_to, 25, 0.3),
            lookups(r.old_items_pk, 30, 0.3),
            lookups(r.buy_now_pk, 5, 0.3),
            read(r.items, Access::SeqScan),
        ])
        .with_cpu(ABOUTME_CPU),
    );
    add(
        "PutBid",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            lookups(r.bids_item, 5, 0.6),
            lookups(r.users_pk, 1, 0.2),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "StoreComment",
        TxnPlan::new(vec![
            lookups(r.users_pk, 1, 0.2),
            insert(r.comments, 1),
            update(r.users, 1, 0.3),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "ViewBidHistory",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            lookups(r.bids_item, 15, 0.4),
            lookups(r.users_pk, 5, 0.2),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "ViewUserInfo",
        TxnPlan::new(vec![
            lookups(r.users_pk, 1, 0.2),
            lookups(r.comments_to, 10, 0.4),
            lookups(r.old_items_pk, 5, 0.4),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "Auth",
        TxnPlan::new(vec![lookups(r.users_nick, 1, 0.2)]).with_cpu(OLTP_CPU),
    );
    add(
        "BrowseCategories",
        TxnPlan::new(vec![read(r.categories, Access::SeqScan)]).with_cpu(OLTP_CPU),
    );
    add(
        "BrowseRegions",
        TxnPlan::new(vec![read(r.regions, Access::SeqScan)]).with_cpu(OLTP_CPU),
    );
    add(
        "BuyNow",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            lookups(r.users_pk, 1, 0.2),
            lookups(r.buy_now_pk, 2, 0.3),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "PutComment",
        TxnPlan::new(vec![
            lookups(r.users_pk, 2, 0.2),
            lookups(r.items_pk, 1, 0.6),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "RegisterUser",
        TxnPlan::new(vec![lookups(r.users_nick, 1, 0.0), insert(r.users, 1)]).with_cpu(OLTP_CPU),
    );
    add(
        "SearchItemsByRegion",
        TxnPlan::new(vec![
            read(r.regions, Access::SeqScan),
            read(r.items, Access::SeqScan),
            lookups(r.users_pk, 3, 0.2),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "StoreBuyNow",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            insert(r.buy_now, 1),
            update(r.items, 1, 0.5),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "RegisterItem",
        TxnPlan::new(vec![lookups(r.users_pk, 1, 0.2), insert(r.items, 1)]).with_cpu(OLTP_CPU),
    );
    add(
        "SearchItemsByCategory",
        TxnPlan::new(vec![
            read(r.categories, Access::SeqScan),
            read(r.items, Access::SeqScan),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "StoreBid",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            lookups(r.bids_item, 3, 0.6),
            insert(r.bids, 1),
            update(r.items, 1, 0.6),
        ])
        .with_cpu(OLTP_CPU),
    );
    add(
        "ViewItem",
        TxnPlan::new(vec![
            lookups(r.items_pk, 1, 0.6),
            lookups(r.bids_item, 5, 0.6),
        ])
        .with_cpu(OLTP_CPU),
    );

    types
}

/// Builds the full RUBiS workload.
pub fn workload() -> Workload {
    let (catalog, rels) = schema();
    Workload {
        name: "rubis".to_string(),
        catalog,
        types: transaction_types(&rels),
    }
}

/// One of the two RUBiS mixes over a workload, by name: `"bidding"` (15 %
/// updates, the main mix) or `"browsing"` (read-only). Only the named mix
/// is built.
///
/// # Panics
///
/// Panics on any other mix name, or (through [`Mix::from_pairs`]) if the
/// workload lacks one of the mix's transaction types.
pub fn mix(w: &Workload, name: &str) -> Mix {
    let pairs: &[(&str, f64)] = match name {
        "bidding" => &[
            ("AboutMe", 8.0),
            ("ViewItem", 17.0),
            ("SearchItemsByCategory", 18.0),
            ("SearchItemsByRegion", 7.0),
            ("BrowseCategories", 8.0),
            ("BrowseRegions", 3.0),
            ("ViewUserInfo", 5.0),
            ("ViewBidHistory", 5.0),
            ("Auth", 6.0),
            ("BuyNow", 2.0),
            ("PutBid", 5.0),
            ("PutComment", 1.0),
            ("StoreBid", 10.0),
            ("StoreComment", 2.0),
            ("StoreBuyNow", 1.0),
            ("RegisterUser", 0.8),
            ("RegisterItem", 1.2),
        ],
        "browsing" => &[
            ("AboutMe", 5.0),
            ("ViewItem", 22.0),
            ("SearchItemsByCategory", 25.0),
            ("SearchItemsByRegion", 8.0),
            ("BrowseCategories", 12.0),
            ("BrowseRegions", 5.0),
            ("ViewUserInfo", 8.0),
            ("ViewBidHistory", 8.0),
            ("Auth", 4.0),
            ("PutBid", 2.0),
            ("PutComment", 1.0),
        ],
        other => panic!("unknown RUBiS mix {other:?}"),
    };
    Mix::from_pairs(name, w, pairs)
}

/// Convenience: workload plus a mix by name (see [`mix`]).
pub fn workload_with_mix(name: &str) -> (Workload, Mix) {
    let w = workload();
    let m = mix(&w, name);
    (w, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn db_size_matches_paper() {
        let size = workload().db_bytes() as f64 / GB;
        assert!(
            (2.0..2.45).contains(&size),
            "RUBiS {size:.2} GB (paper 2.2)"
        );
    }

    #[test]
    fn has_seventeen_types_matching_table4() {
        let w = workload();
        assert_eq!(w.types.len(), 17);
        for name in [
            "AboutMe",
            "PutBid",
            "StoreComment",
            "ViewBidHistory",
            "ViewUserInfo",
            "Auth",
            "BrowseCategories",
            "BrowseRegions",
            "BuyNow",
            "PutComment",
            "RegisterUser",
            "SearchItemsByRegion",
            "StoreBuyNow",
            "RegisterItem",
            "SearchItemsByCategory",
            "StoreBid",
            "ViewItem",
        ] {
            assert!(w.type_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn bidding_has_fifteen_percent_updates_browsing_none() {
        let w = workload();
        let bf = mix(&w, "bidding").update_fraction(&w);
        assert!((0.13..0.17).contains(&bf), "bidding {bf:.3} (paper 0.15)");
        assert_eq!(
            mix(&w, "browsing").update_fraction(&w),
            0.0,
            "browsing is read-only"
        );
    }

    #[test]
    fn aboutme_references_almost_all_tables() {
        use tashkent_core::WorkingSetEstimator;
        let w = workload();
        let t = w.type_by_name("AboutMe").unwrap();
        let est = WorkingSetEstimator::new(&w.catalog);
        let ws = est.estimate(t.id, &w.explain(t.id));
        // Touches ≥ 10 of the 16 relations (tables + indices).
        assert!(
            ws.relations.len() >= 10,
            "AboutMe references only {} relations",
            ws.relations.len()
        );
        // And its footprint dominates a 442 MB replica.
        let mb = ws.size_bytes(est.pages()) / (1024 * 1024);
        assert!(mb > 442, "AboutMe SC = {mb} MB");
    }

    #[test]
    fn writes_match_table4_update_types() {
        let w = workload();
        for name in [
            "StoreBid",
            "StoreComment",
            "StoreBuyNow",
            "RegisterUser",
            "RegisterItem",
        ] {
            assert!(w.type_by_name(name).unwrap().plan.is_update(), "{name}");
        }
        for name in ["AboutMe", "PutBid", "ViewItem", "PutComment"] {
            assert!(!w.type_by_name(name).unwrap().plan.is_update(), "{name}");
        }
    }

    #[test]
    fn browsing_mix_omits_write_types() {
        let w = workload();
        for t in mix(&w, "browsing").active_types() {
            assert!(!w.types[t.0 as usize].plan.is_update());
        }
    }

    #[test]
    #[should_panic(expected = "unknown RUBiS mix")]
    fn unknown_mix_panics() {
        workload_with_mix("ordering");
    }
}
