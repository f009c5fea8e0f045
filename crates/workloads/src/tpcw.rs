//! TPC-W: the online-bookstore benchmark (§4.4).
//!
//! The schema and cardinalities follow the TPC-W specification scaled by the
//! EBS parameter (customers = 2880 × EBS, orders = 0.9 × customers, three
//! order lines per order, …) with row widths calibrated so the database
//! sizes match the paper's configurations: ~0.7 GB at 100 EBS (SmallDB),
//! ~1.8 GB at 300 EBS (MidDB), ~2.9 GB at 500 EBS (LargeDB).
//!
//! The paper's implementation exposes 13 transaction types (Table 2);
//! customer registration is folded into `BuyRequest`. The three mixes use
//! the TPC-W interaction frequencies: ordering ≈ 50 % updates, shopping
//! ≈ 20 %, browsing ≈ 5 %.

use tashkent_engine::{
    Access, CpuCosts, PlanStep, TxnPlan, TxnType, TxnTypeId, WriteKind, WriteSpec,
};
use tashkent_storage::{Catalog, RelationId};

use crate::spec::{insert, lookups, pages, read, update, Mix, Workload};

/// Database scale presets used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcwScale {
    /// 100 EBS ≈ 0.7 GB ("SmallDB").
    Small,
    /// 300 EBS ≈ 1.8 GB ("MidDB").
    Mid,
    /// 500 EBS ≈ 2.9 GB ("LargeDB").
    Large,
}

impl TpcwScale {
    /// The EBS value of this preset.
    pub fn ebs(self) -> u64 {
        match self {
            TpcwScale::Small => 100,
            TpcwScale::Mid => 300,
            TpcwScale::Large => 500,
        }
    }

    /// The paper's label for this preset.
    pub fn label(self) -> &'static str {
        match self {
            TpcwScale::Small => "SmallDB",
            TpcwScale::Mid => "MidDB",
            TpcwScale::Large => "LargeDB",
        }
    }
}

/// Names of the three TPC-W mixes.
pub const TPCW_MIXES: [&str; 3] = ["ordering", "shopping", "browsing"];

/// Relation ids of the TPC-W schema, for plan construction.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct TpcwRels {
    pub customer: RelationId,
    pub customer_pk: RelationId,
    pub customer_uname: RelationId,
    pub address: RelationId,
    pub address_pk: RelationId,
    pub country: RelationId,
    pub orders: RelationId,
    pub orders_pk: RelationId,
    pub orders_cust: RelationId,
    pub order_line: RelationId,
    pub order_line_pk: RelationId,
    pub cc_xacts: RelationId,
    pub cc_xacts_pk: RelationId,
    pub item: RelationId,
    pub item_pk: RelationId,
    pub item_title: RelationId,
    pub item_subject: RelationId,
    pub author: RelationId,
    pub author_pk: RelationId,
    pub shopping_cart: RelationId,
    pub shopping_cart_pk: RelationId,
    pub shopping_cart_line: RelationId,
    pub shopping_cart_line_pk: RelationId,
}

/// Builds the TPC-W schema at `ebs` emulated browsers.
pub fn schema(ebs: u64) -> (Catalog, TpcwRels) {
    let mut c = Catalog::new();
    let customers = 2_880 * ebs;
    let addresses = 2 * customers;
    let orders = customers * 9 / 10;
    let order_lines = 3 * orders;
    let items: u64 = 10_000;
    let authors: u64 = 2_500;
    let carts = 720 * ebs;
    let cart_lines = 1_152 * ebs;

    let customer = c.add_table("customer", pages(customers, 180), customers);
    let customer_pk = c.add_index("customer_pk", customer, pages(customers, 40), customers);
    let customer_uname = c.add_index("customer_uname", customer, pages(customers, 40), customers);
    let address = c.add_table("address", pages(addresses, 25), addresses);
    let address_pk = c.add_index("address_pk", address, pages(addresses, 24), addresses);
    let country = c.add_table("country", 2, 92);
    let orders_t = c.add_table("orders", pages(orders, 360), orders);
    let orders_pk = c.add_index("orders_pk", orders_t, pages(orders, 40), orders);
    let orders_cust = c.add_index("orders_cust", orders_t, pages(orders, 40), orders);
    let order_line = c.add_table("order_line", pages(order_lines, 210), order_lines);
    let order_line_pk = c.add_index(
        "order_line_pk",
        order_line,
        pages(order_lines, 40),
        order_lines,
    );
    let cc_xacts = c.add_table("cc_xacts", pages(orders, 220), orders);
    let cc_xacts_pk = c.add_index("cc_xacts_pk", cc_xacts, pages(orders, 40), orders);
    let item = c.add_table("item", pages(items, 900), items);
    let item_pk = c.add_index("item_pk", item, pages(items, 40), items);
    let item_title = c.add_index("item_title", item, pages(items, 40), items);
    let item_subject = c.add_index("item_subject", item, pages(items, 40), items);
    let author = c.add_table("author", pages(authors, 700), authors);
    let author_pk = c.add_index("author_pk", author, pages(authors, 40), authors);
    let shopping_cart = c.add_table("shopping_cart", pages(carts, 80), carts);
    let shopping_cart_pk = c.add_index("shopping_cart_pk", shopping_cart, pages(carts, 40), carts);
    let shopping_cart_line = c.add_table("shopping_cart_line", pages(cart_lines, 90), cart_lines);
    let shopping_cart_line_pk = c.add_index(
        "shopping_cart_line_pk",
        shopping_cart_line,
        pages(cart_lines, 40),
        cart_lines,
    );

    let rels = TpcwRels {
        customer,
        customer_pk,
        customer_uname,
        address,
        address_pk,
        country,
        orders: orders_t,
        orders_pk,
        orders_cust,
        order_line,
        order_line_pk,
        cc_xacts,
        cc_xacts_pk,
        item,
        item_pk,
        item_title,
        item_subject,
        author,
        author_pk,
        shopping_cart,
        shopping_cart_pk,
        shopping_cart_line,
        shopping_cart_line_pk,
    };
    (c, rels)
}

/// Session-local update: a client writing its own recent row (cart,
/// customer record) — uniform over the relation's active tail.
fn update_tail(rel: RelationId, rows: u32, window: u64) -> PlanStep {
    PlanStep::Write(WriteSpec {
        rel,
        rows,
        kind: WriteKind::UpdateTail { window },
        theta: 0.0,
    })
}

/// CPU model for interactive (index-driven) transactions.
const OLTP_CPU: CpuCosts = CpuCosts {
    base_us: 2_000,
    per_page_us: 25,
    per_write_us: 250,
};

/// CPU model for the heavy analytical transactions (BestSeller,
/// AdminResponse): more per-page work (joins, aggregation, sorting).
const HEAVY_CPU: CpuCosts = CpuCosts {
    base_us: 20_000,
    per_page_us: 24,
    per_write_us: 250,
};

/// CPU model for BuyConfirm: checkout performs payment authorization and
/// order-processing logic beyond its page accesses.
const BUYCONFIRM_CPU: CpuCosts = CpuCosts {
    base_us: 80_000,
    per_page_us: 25,
    per_write_us: 400,
};

/// Builds the 13 TPC-W transaction types over a schema.
pub fn transaction_types(r: &TpcwRels) -> Vec<TxnType> {
    let mut types = Vec::new();
    let mut add = |name: &str, plan: TxnPlan| {
        let id = TxnTypeId(types.len() as u32);
        types.push(TxnType::new(id, name, plan));
    };

    // HomeAction: customer greeting + promotional items.
    add(
        "HomeAction",
        TxnPlan::new(vec![
            lookups(r.customer_pk, 1, 0.0),
            lookups(r.item_pk, 5, 0.2),
        ])
        .with_cpu(OLTP_CPU),
    );
    // NewProduct: newest items in a subject, with authors.
    add(
        "NewProduct",
        TxnPlan::new(vec![
            read(
                r.item,
                Access::RangeScan {
                    fraction: 0.5,
                    recent: true,
                },
            ),
            lookups(r.author_pk, 10, 0.0),
        ])
        .with_cpu(OLTP_CPU),
    );
    // BestSeller: aggregate over the most recent orders' lines joined with
    // item/author — the big analytical read (measured WS ≈ 600 MB in the
    // paper).
    add(
        "BestSeller",
        TxnPlan::new(vec![
            read(
                r.order_line,
                Access::RangeScan {
                    fraction: 0.50,
                    recent: true,
                },
            ),
            read(
                r.orders,
                Access::RangeScan {
                    fraction: 0.20,
                    recent: true,
                },
            ),
            read(r.item, Access::SeqScan),
            read(r.author, Access::SeqScan),
        ])
        .with_cpu(HEAVY_CPU),
    );
    // ProductDetail: one item with its author.
    add(
        "ProducDet",
        TxnPlan::new(vec![
            lookups(r.item_pk, 1, 0.2),
            lookups(r.author_pk, 1, 0.0),
        ])
        .with_cpu(OLTP_CPU),
    );
    // SearchRequest: the search form (a few lookups for defaults).
    add(
        "SearchRequ",
        TxnPlan::new(vec![lookups(r.item_pk, 3, 0.2)]).with_cpu(OLTP_CPU),
    );
    // ExecSearch: title/author/subject search — scans the item table.
    add(
        "ExecSearch",
        TxnPlan::new(vec![
            read(r.item, Access::SeqScan),
            read(r.author, Access::SeqScan),
        ])
        .with_cpu(OLTP_CPU),
    );
    // ShoppingCart: display/update the cart.
    add(
        "ShopinCart",
        TxnPlan::new(vec![
            lookups(r.shopping_cart_pk, 1, 0.0),
            lookups(r.shopping_cart_line_pk, 3, 0.0),
            lookups(r.item_pk, 3, 0.2),
            update_tail(r.shopping_cart, 1, 8_000),
            insert(r.shopping_cart_line, 1),
        ])
        .with_cpu(OLTP_CPU),
    );
    // BuyRequest (includes customer registration): customer + address work.
    add(
        "BuyRequest",
        TxnPlan::new(vec![
            lookups(r.customer_pk, 2, 0.0),
            lookups(r.address_pk, 2, 0.0),
            read(r.country, Access::SeqScan),
            lookups(r.shopping_cart_pk, 1, 0.0),
            update_tail(r.customer, 1, 10_000),
            insert(r.address, 1),
        ])
        .with_cpu(OLTP_CPU),
    );
    // BuyConfirm: checkout — order/cc inserts, stock updates, and a recent
    // purchase-history verification pass.
    add(
        "BuyConfirm",
        TxnPlan::new(vec![
            lookups(r.shopping_cart_pk, 1, 0.0),
            lookups(r.shopping_cart_line_pk, 3, 0.0),
            lookups(r.customer_pk, 1, 0.0),
            lookups(r.item_pk, 3, 0.2),
            read(
                r.order_line,
                Access::RangeScan {
                    fraction: 0.005,
                    recent: true,
                },
            ),
            insert(r.orders, 1),
            insert(r.order_line, 2),
            insert(r.cc_xacts, 1),
            update(r.item, 1, 0.2),
            update_tail(r.customer, 1, 10_000),
        ])
        .with_cpu(BUYCONFIRM_CPU),
    );
    // OrderInquiry: login form for order status.
    add(
        "OrderInqur",
        TxnPlan::new(vec![lookups(r.customer_uname, 1, 0.0)]).with_cpu(OLTP_CPU),
    );
    // OrderDisplay: most recent order with lines, items, addresses, payment
    // — random access to nearly every table (SC estimate ≈ 1.6 GB in the
    // paper, SCAP ≈ 1 MB, true ≈ 400-450 MB).
    add(
        "OrderDispl",
        TxnPlan::new(vec![
            lookups(r.customer_uname, 1, 0.0),
            lookups(r.orders_cust, 2, 0.6),
            lookups(r.order_line_pk, 8, 0.6),
            lookups(r.item_pk, 5, 0.2),
            lookups(r.address_pk, 2, 0.6),
            lookups(r.cc_xacts_pk, 2, 0.6),
            read(r.country, Access::SeqScan),
        ])
        .with_cpu(OLTP_CPU),
    );
    // AdminRequest: item edit form.
    add(
        "AdmiRqust",
        TxnPlan::new(vec![
            lookups(r.item_pk, 1, 0.2),
            lookups(r.author_pk, 1, 0.0),
        ])
        .with_cpu(OLTP_CPU),
    );
    // AdminResponse: item update plus related-items recomputation over the
    // order history — the heaviest transaction in the workload.
    add(
        "AdminRespo",
        TxnPlan::new(vec![
            read(
                r.order_line,
                Access::RangeScan {
                    fraction: 0.45,
                    recent: true,
                },
            ),
            read(
                r.orders,
                Access::RangeScan {
                    fraction: 0.35,
                    recent: true,
                },
            ),
            read(r.item, Access::SeqScan),
            update(r.item, 1, 0.2),
        ])
        .with_cpu(HEAVY_CPU),
    );

    types
}

/// Builds the full TPC-W workload at a scale preset.
pub fn workload(scale: TpcwScale) -> Workload {
    let (catalog, rels) = schema(scale.ebs());
    Workload {
        name: format!("tpcw-{}", scale.label()),
        catalog,
        types: transaction_types(&rels),
    }
}

/// One of the three TPC-W mixes over a workload, by name: `"ordering"`,
/// `"shopping"` or `"browsing"` (interaction frequencies from the TPC-W
/// specification; customer registration folded into BuyRequest). Only the
/// named mix is built.
///
/// # Panics
///
/// Panics on any other mix name, or (through [`Mix::from_pairs`]) if the
/// workload lacks one of the mix's transaction types.
pub fn mix(w: &Workload, name: &str) -> Mix {
    let pairs: &[(&str, f64)] = match name {
        "ordering" => &[
            ("HomeAction", 9.12),
            ("NewProduct", 0.46),
            ("BestSeller", 0.46),
            ("ProducDet", 12.35),
            ("SearchRequ", 14.53),
            ("ExecSearch", 13.08),
            ("ShopinCart", 13.53),
            ("BuyRequest", 25.59),
            ("BuyConfirm", 10.18),
            ("OrderInqur", 0.25),
            ("OrderDispl", 0.22),
            ("AdmiRqust", 0.12),
            ("AdminRespo", 0.11),
        ],
        "shopping" => &[
            ("HomeAction", 16.00),
            ("NewProduct", 5.00),
            ("BestSeller", 5.00),
            ("ProducDet", 17.00),
            ("SearchRequ", 20.00),
            ("ExecSearch", 17.00),
            ("ShopinCart", 11.60),
            ("BuyRequest", 5.60),
            ("BuyConfirm", 1.20),
            ("OrderInqur", 0.75),
            ("OrderDispl", 0.66),
            ("AdmiRqust", 0.10),
            ("AdminRespo", 0.09),
        ],
        "browsing" => &[
            ("HomeAction", 29.00),
            ("NewProduct", 11.00),
            ("BestSeller", 11.00),
            ("ProducDet", 21.00),
            ("SearchRequ", 12.00),
            ("ExecSearch", 11.00),
            ("ShopinCart", 2.00),
            ("BuyRequest", 1.57),
            ("BuyConfirm", 0.69),
            ("OrderInqur", 0.30),
            ("OrderDispl", 0.25),
            ("AdmiRqust", 0.10),
            ("AdminRespo", 0.09),
        ],
        other => panic!("unknown TPC-W mix {other:?}"),
    };
    Mix::from_pairs(name, w, pairs)
}

/// Convenience: workload plus a mix by name (see [`mix`]).
pub fn workload_with_mix(scale: TpcwScale, name: &str) -> (Workload, Mix) {
    let w = workload(scale);
    let m = mix(&w, name);
    (w, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::PAGE_SIZE;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn db_sizes_match_paper_configurations() {
        let small = workload(TpcwScale::Small).db_bytes() as f64 / GB;
        let mid = workload(TpcwScale::Mid).db_bytes() as f64 / GB;
        let large = workload(TpcwScale::Large).db_bytes() as f64 / GB;
        assert!(
            (0.45..0.9).contains(&small),
            "SmallDB {small:.2} GB (paper 0.7)"
        );
        assert!((1.55..2.05).contains(&mid), "MidDB {mid:.2} GB (paper 1.8)");
        assert!(
            (2.55..3.25).contains(&large),
            "LargeDB {large:.2} GB (paper 2.9)"
        );
    }

    #[test]
    fn has_thirteen_types_matching_table2_names() {
        let w = workload(TpcwScale::Mid);
        assert_eq!(w.types.len(), 13);
        for name in [
            "BestSeller",
            "AdminRespo",
            "BuyConfirm",
            "BuyRequest",
            "ShopinCart",
            "ExecSearch",
            "OrderDispl",
            "OrderInqur",
            "ProducDet",
            "HomeAction",
            "NewProduct",
            "SearchRequ",
            "AdmiRqust",
        ] {
            assert!(w.type_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn mix_update_fractions_match_paper() {
        let w = workload(TpcwScale::Mid);
        let of = mix(&w, "ordering").update_fraction(&w);
        let sf = mix(&w, "shopping").update_fraction(&w);
        let bf = mix(&w, "browsing").update_fraction(&w);
        assert!((0.45..0.55).contains(&of), "ordering {of:.3} (paper 0.50)");
        assert!((0.15..0.25).contains(&sf), "shopping {sf:.3} (paper 0.20)");
        assert!((0.02..0.08).contains(&bf), "browsing {bf:.3} (paper 0.05)");
    }

    #[test]
    fn mix_weights_sum_to_hundred() {
        let w = workload(TpcwScale::Mid);
        for m in TPCW_MIXES.map(|name| mix(&w, name)) {
            let sum: f64 = m.weights.iter().sum();
            assert!((sum - 100.0).abs() < 0.2, "{} sums to {sum}", m.name);
        }
    }

    #[test]
    fn updates_are_update_plans() {
        let w = workload(TpcwScale::Mid);
        for name in ["ShopinCart", "BuyRequest", "BuyConfirm", "AdminRespo"] {
            assert!(w.type_by_name(name).unwrap().plan.is_update(), "{name}");
        }
        for name in ["HomeAction", "BestSeller", "ExecSearch", "OrderDispl"] {
            assert!(!w.type_by_name(name).unwrap().plan.is_update(), "{name}");
        }
    }

    #[test]
    fn key_types_overflow_at_512mb_capacity() {
        // With 512 MB RAM minus 70 MB overhead the paper's capacity is
        // ~442 MB ≈ 56,576 pages; the four big types must individually
        // exceed it (they all get dedicated groups in Table 2).
        use tashkent_core::{EstimationMode, WorkingSetEstimator};
        let w = workload(TpcwScale::Mid);
        let est = WorkingSetEstimator::new(&w.catalog);
        let capacity = (442u64 * 1024 * 1024) / PAGE_SIZE;
        for name in ["BestSeller", "OrderDispl", "BuyConfirm", "AdminRespo"] {
            let t = w.type_by_name(name).unwrap();
            let ws = est.estimate(t.id, &w.explain(t.id));
            let pages = ws.pages_for(EstimationMode::SizeContent, est.pages());
            assert!(
                pages > capacity,
                "{name}: {pages} pages ≤ capacity {capacity}"
            );
        }
    }

    #[test]
    fn light_groups_fit_together_at_512mb() {
        use tashkent_core::{combined_pages, EstimationMode, WorkingSetEstimator};
        let w = workload(TpcwScale::Mid);
        let est = WorkingSetEstimator::new(&w.catalog);
        let capacity = (442u64 * 1024 * 1024) / PAGE_SIZE;
        let ws_of = |name: &str| {
            let t = w.type_by_name(name).unwrap();
            est.estimate(t.id, &w.explain(t.id))
        };
        // Table 2: [BuyRequest, ShopinCart] share one replica.
        let pair = combined_pages(
            &[ws_of("BuyRequest"), ws_of("ShopinCart")],
            est.pages(),
            EstimationMode::SizeContent,
        );
        assert!(pair <= capacity, "BuyRequest+ShopinCart = {pair} pages");
        // Table 2: [HomeAction, NewProduct, SearchRequ, AdmiRqust] share one.
        let quad = combined_pages(
            &[
                ws_of("HomeAction"),
                ws_of("NewProduct"),
                ws_of("SearchRequ"),
                ws_of("AdmiRqust"),
            ],
            est.pages(),
            EstimationMode::SizeContent,
        );
        assert!(quad <= capacity, "light quad = {quad} pages");
    }

    #[test]
    fn orderdisplay_scap_estimate_is_tiny() {
        // The paper: MALB-SCAP estimates OrderDisplay at ~1 MB because it
        // scans only one small table (country) while probing everything else.
        use tashkent_core::{EstimationMode, WorkingSetEstimator};
        let w = workload(TpcwScale::Mid);
        let est = WorkingSetEstimator::new(&w.catalog);
        let t = w.type_by_name("OrderDispl").unwrap();
        let ws = est.estimate(t.id, &w.explain(t.id));
        let mb = |mode| ws.pages_for(mode, est.pages()) * PAGE_SIZE / (1024 * 1024);
        let scap_mb = mb(EstimationMode::SizeContentAccessPattern);
        assert!(scap_mb < 5, "OrderDispl SCAP = {scap_mb} MB (paper ~1 MB)");
        let sc_mb = mb(EstimationMode::SizeContent);
        assert!(
            (1_000..2_000).contains(&sc_mb),
            "OrderDispl SC = {sc_mb} MB (paper ~1600 MB)"
        );
    }

    #[test]
    #[should_panic(expected = "unknown TPC-W mix")]
    fn unknown_mix_panics() {
        workload_with_mix(TpcwScale::Mid, "nope");
    }
}
