//! The optimizer's answers, pinned: for a fixed corpus of SDSS and TPC-H
//! statements under the empty design and one indexed design, the cost of
//! `Optimizer::optimize`'s plan (its bits) and the FNV-64 of its `explain`
//! text, and per statement the internal costs of the INUM skeletons of
//! every interesting-order combination, equal constants taken before plan
//! subtrees became shared handles and the abstract leaves were built once
//! per query. A changed constant is a changed plan or cost. Public API
//! only, so the same file runs at any commit.

use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign_catalog::Catalog;
use pgdesign_optimizer::optimizer::interesting_slot_orders;
use pgdesign_optimizer::{JoinPlanner, Optimizer};
use pgdesign_query::generators::{sdss_workload, tpch_workload};
use pgdesign_query::Workload;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn index(catalog: &Catalog, table: &str, columns: &[&str]) -> Index {
    let t = catalog.schema.table_by_name(table).expect("sample table");
    let cols = columns
        .iter()
        .map(|c| t.column_by_name(c).expect("sample column"))
        .collect();
    Index::new(t.id, cols)
}

/// `(cost bits, explain hash)` per statement, empty design first, then the
/// indexed design; then per statement `(hash of the skeleton internal-cost
/// bits, combination count)` over the cartesian product of `None` and each
/// slot's interesting orders.
fn pins(catalog: &Catalog, workload: &Workload, indexed: &PhysicalDesign) -> Vec<(u64, u64)> {
    let opt = &Optimizer::new();
    let plans = [PhysicalDesign::empty(), indexed.clone()]
        .iter()
        .flat_map(|design| {
            workload.iter().map(move |(q, _)| {
                let plan = opt.optimize(catalog, design, q);
                (
                    plan.cost.to_bits(),
                    fnv64(plan.explain(&catalog.schema, q).as_bytes()),
                )
            })
        })
        .collect::<Vec<_>>();
    let skeletons = workload.iter().map(|(q, _)| {
        let mut combos: Vec<Vec<Option<Vec<u16>>>> = vec![Vec::new()];
        for slot in 0..q.slot_count() {
            let orders = interesting_slot_orders(q, slot);
            combos = combos
                .iter()
                .flat_map(|prefix| {
                    std::iter::once(None)
                        .chain(orders.iter().cloned().map(Some))
                        .map(move |o| {
                            let mut combo = prefix.clone();
                            combo.push(o);
                            combo
                        })
                })
                .collect();
        }
        let n = combos.len() as u64;
        let bits: Vec<u8> = opt
            .optimize_skeletons(&mut JoinPlanner::default(), catalog, q, combos)
            .iter()
            .flat_map(|sk| sk.internal_cost.to_bits().to_le_bytes())
            .collect();
        (fnv64(&bits), n)
    });
    plans.into_iter().chain(skeletons).collect()
}

fn assert_pinned(actual: &[(u64, u64)], expected: &[(u64, u64)]) {
    let table: String = actual
        .iter()
        .map(|(c, e)| format!("        (0x{c:016x}, 0x{e:016x}),\n"))
        .collect();
    assert_eq!(actual, expected, "actual pins:\n{table}");
}

#[test]
fn sdss_plans_match_the_recorded_costs_and_explain_text() {
    let c = sdss_catalog(0.01);
    let w = sdss_workload(&c, 12, 5);
    let indexed = PhysicalDesign::with_indexes([
        index(&c, "photoobj", &["objid"]),
        index(&c, "photoobj", &["ra", "dec"]),
        index(&c, "photoobj", &["type", "r"]),
        index(&c, "specobj", &["bestobjid"]),
    ]);
    assert_pinned(&pins(&c, &w, &indexed), SDSS);
}

#[test]
fn tpch_plans_match_the_recorded_costs_and_explain_text() {
    let c = tpch_catalog(0.01);
    // Two of each of the six templates, the three-way join included.
    let w = tpch_workload(&c, 12, 5);
    let indexed = PhysicalDesign::with_indexes([
        index(&c, "orders", &["o_custkey"]),
        index(&c, "orders", &["o_orderkey"]),
        index(&c, "lineitem", &["l_orderkey"]),
        index(&c, "lineitem", &["l_shipdate"]),
        index(&c, "customer", &["c_mktsegment"]),
    ]);
    assert_pinned(&pins(&c, &w, &indexed), TPCH);
}

const SDSS: &[(u64, u64)] = &[
    (0x40ab260000000000, 0x545c7c323f438dac),
    (0x40a745de476a60e4, 0x7ae3a7e332d65773),
    (0x40ab3a51fbee5950, 0x03853b776a3a53e9),
    (0x40aa7f369e5ad72c, 0x47290009d8da48c5),
    (0x406637b06fe6fd35, 0xd440f99ab941538f),
    (0x40c1ede689423971, 0x532c85580e0b0bd5),
    (0x40a758d1a258755f, 0xcb56ba638e48dca6),
    (0x40a9320000000000, 0x4d36c06d67a34786),
    (0x40aa725df09fbcfa, 0xb6b665f1687cc58b),
    (0x40ab260000000000, 0x02882bc008c26b01),
    (0x40a746627e8a3c10, 0x55b6aac5e23bbf82),
    (0x40acc08938a2ceb3, 0x4f475015e0862f4a),
    (0x409306518aa253ef, 0x208d70f59f2f7ca1),
    (0x409b97540609ec1a, 0xb6d175a29bc13276),
    (0x409d3dab8f2287d8, 0xb298495b6573c03e),
    (0x40a3e461619c430b, 0xa2f759f762b50254),
    (0x406637b06fe6fd35, 0xd440f99ab941538f),
    (0x40bfeebb9291fdef, 0x7f74ae66d82625f0),
    (0x40a758d1a258755f, 0xcb56ba638e48dca6),
    (0x40a9320000000000, 0x4d36c06d67a34786),
    (0x40aa725df09fbcfa, 0xb6b665f1687cc58b),
    (0x409d5415448198e1, 0x8ef00a1545fc610b),
    (0x409bf6b55db9d44a, 0x53e7987f309546dc),
    (0x40a0f684de52ddb5, 0xb23ba3479379ebad),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0xfe0fdd46185d53ed, 0x0000000000000002),
    (0xbf0dfbac4ca006c1, 0x0000000000000002),
    (0xfb637d7aca7eb997, 0x0000000000000004),
    (0x6d2ee1b269305d8e, 0x0000000000000002),
    (0xb09bbdfdffe544ae, 0x0000000000000004),
    (0x48b120b1c87d941b, 0x0000000000000009),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0x5583c42afb99578c, 0x0000000000000002),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0x809748dd3d845e35, 0x0000000000000002),
    (0xa1fd420f90ab7922, 0x0000000000000002),
];

const TPCH: &[(u64, u64)] = &[
    (0x409ee0247165eeab, 0x12741b06e3f3b51a),
    (0x409d3b22ee7e2ee8, 0x673bdc557f407ab3),
    (0x40a679d943ee653e, 0xc5083a52835c9470),
    (0x4046800000000000, 0x337c0d37dbc89bbf),
    (0x4076e00000000000, 0x646b14878c0c7d5e),
    (0x40a093f333333333, 0x9bb54491c98cf60a),
    (0x409edad231bf4ebd, 0x251019197140ae3b),
    (0x409aa2147ae147ae, 0x2807729354a0fa5e),
    (0x40a04f23e21be171, 0xfac79a6ec8639a3a),
    (0x4046800000000000, 0x337c0d37dbc89bbf),
    (0x4076e00000000000, 0x646b14878c0c7d5e),
    (0x40a21fc606060606, 0x47d3b7560567def8),
    (0x40903f2f7f631bb7, 0x5e26b41ce0d9f4b3),
    (0x409d3b22ee7e2ee8, 0x673bdc557f407ab3),
    (0x40a6639943ee653e, 0x32cc940dacfb4793),
    (0x4046800000000000, 0x337c0d37dbc89bbf),
    (0x404104f37bacf171, 0x0086067cbb975ca4),
    (0x409ecd333333334e, 0xe42bfe1445b9e1ad),
    (0x408fc1aa2146ec6b, 0xac146b1697626c4c),
    (0x4090e0e79f783fc6, 0x787d693ae8ae16cf),
    (0x408e59c597a88046, 0x0783e8b44b1ec695),
    (0x4046800000000000, 0x337c0d37dbc89bbf),
    (0x404104f37bacf171, 0x0086067cbb975ca4),
    (0x40a21fc606060606, 0x47d3b7560567def8),
    (0x714c410b89e04692, 0x0000000000000001),
    (0xd066fa64320f3e83, 0x0000000000000002),
    (0xb2184e5f53e47d25, 0x0000000000000010),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0xf17c3ac86c503a1b, 0x0000000000000004),
    (0xfc2ddae80ed5a3c0, 0x0000000000000001),
    (0x4034b4715ae5a7a6, 0x0000000000000002),
    (0x3053eaae3c231365, 0x0000000000000010),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0xa8c7f832281a39c5, 0x0000000000000001),
    (0x70e9dbad2b03025e, 0x0000000000000004),
];
