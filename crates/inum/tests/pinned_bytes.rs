//! The durable format, pinned: the bytes `encode_published` and
//! `encode_edit` produce for a fixed fixture hash to recorded constants.
//! The edit-record constants date from before the layouts moved onto
//! `Wire` declarations; the snapshot constant is format version 2's,
//! whose records store each fact once. Format version 3 added one record
//! kind, the owner's payload (the online tuner's state), and changed none
//! of the others, so every version-2 constant stands. A changed constant
//! is a changed on-disk format — bump `pgdesign_durability::FORMAT_VERSION`
//! and re-take it on purpose, or fix the layout. Public API only.

use pgdesign_catalog::design::{HorizontalPartitioning, Index};
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_catalog::schema::TableId;
use pgdesign_inum::{encode_edit, encode_published, CostMatrix, Inum, MatrixEdit};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::Optimizer;
use pgdesign_query::generators::sdss_workload;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn snapshot_and_edit_bytes_match_the_recorded_format() {
    assert_eq!(pgdesign_durability::FORMAT_VERSION, 3);

    // 3 queries over enumerated candidates, one fragment, one split, one
    // retired slot.
    let c = sdss_catalog(0.01);
    let opt = Optimizer::new();
    let inum = Inum::new(&c, &opt);
    let w = sdss_workload(&c, 3, 101);
    let cands = workload_candidates(&c, &w, &CandidateConfig::default());
    let mut m = CostMatrix::build(&inum, &w, &cands.indexes);
    m.register_fragment(TableId(0), &[0, 1]);
    let hp = HorizontalPartitioning {
        table: TableId(0),
        column: 0,
        bounds: vec![0.25, 0.5],
    };
    m.register_split(hp.clone());
    m.retire_query(1);
    m.publish();
    let records = encode_published(&m);
    assert_eq!(records.len(), 7);
    // Hashed as one stream, each record behind its length.
    let stream: Vec<u8> = records
        .iter()
        .flat_map(|r| {
            (r.len() as u64)
                .to_le_bytes()
                .into_iter()
                .chain(r.iter().copied())
        })
        .collect();
    assert_eq!(fnv64(&stream), 0x2a5e_181c_1bf7_94ed, "snapshot records");

    let edits = [
        (
            MatrixEdit::AddCandidates(vec![
                Index {
                    table: TableId(1),
                    columns: vec![2, 0],
                    unique: false,
                },
                Index {
                    table: TableId(0),
                    columns: vec![5],
                    unique: true,
                },
            ]),
            0xcf0c_9df9_fc9a_a623,
        ),
        (MatrixEdit::RemoveCandidate(3), 0xaf8a_81f7_b0c3_120f),
        (
            MatrixEdit::AddQueries(w.iter().map(|(q, wt)| (q.clone(), wt * 2.0)).collect()),
            0x4ba3_593b_39d2_4874,
        ),
        (MatrixEdit::RetireQuery(1), 0x9869_9ea0_c41a_69f3),
        (MatrixEdit::SetQueryWeight(2, 3.5), 0x7493_b98d_f861_6d6d),
        (
            MatrixEdit::RegisterFragment(TableId(2), vec![0, 3]),
            0x7745_4f75_2254_effb,
        ),
        (MatrixEdit::RegisterSplit(hp), 0x7726_54ba_5241_4dc3),
        (MatrixEdit::Publish, 0xaf63_ba4c_8601_b2c6),
        // Format version 3.
        (
            MatrixEdit::Payload(vec![3, 0, 0, 0, 0xfe]),
            0xbd1a_2fc5_c408_398d,
        ),
    ];
    for (edit, pinned) in &edits {
        assert_eq!(fnv64(&encode_edit(edit)), *pinned, "{edit:?}");
    }
}
