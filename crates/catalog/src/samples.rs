//! Ready-made catalogs: an SDSS-like scientific schema (the dataset the
//! paper demonstrates on) and a TPC-H-like schema for broader workloads.
//!
//! Row counts are logical and scale with the `scale` parameter; statistics
//! are computed from a fixed-size generated sample and scaled up, the same
//! way `ANALYZE` samples a large table.

use crate::catalog::Catalog;
use crate::datagen::{analyze, generate, ColumnGen};
use crate::schema::{Schema, SchemaBuilder};
use crate::stats::TableStats;
use crate::types::DataType;

/// Rows generated per table to compute statistics from.
const SAMPLE_ROWS: u64 = 2000;

/// Build stats for one table from generators, fixing average widths from
/// the schema (the generators don't know declared types).
fn stats_for(
    schema: &Schema,
    table: &str,
    specs: &[ColumnGen],
    logical_rows: u64,
    seed: u64,
) -> TableStats {
    let data = generate(specs, SAMPLE_ROWS.min(logical_rows.max(1)), seed);
    let mut stats = analyze(&data, logical_rows);
    let t = schema.table_by_name(table).expect("table exists");
    for (i, c) in stats.columns.iter_mut().enumerate() {
        c.avg_width = f64::from(t.column(i as u16).dtype.byte_width());
    }
    stats
}

/// The SDSS-like catalog.
///
/// Four tables modelled on the Sloan Digital Sky Survey's `BestDR7`-era
/// layout, reduced to the columns the demo workload touches:
///
/// * `photoobj` — photometric objects (the big fact table): sky position
///   (`ra`, `dec`), magnitudes (`u..z`), object `type`, processing flags,
///   `run`/`camcol`/`field` observation coordinates;
/// * `specobj` — spectroscopic objects with redshift `z`, class, and a
///   foreign key `bestobjid` to `photoobj`;
/// * `neighbors` — object-pair proximity (self-join helper);
/// * `field` — per-field observation metadata.
///
/// `scale = 1.0` gives a 10M-row `photoobj`, matching the "large real-world
/// scientific dataset" framing at laptop-simulation scale.
pub fn sdss_catalog(scale: f64) -> Catalog {
    let scale = scale.max(1e-3);
    let photo_rows = (10_000_000.0 * scale) as u64;
    let spec_rows = (800_000.0 * scale) as u64;
    let neigh_rows = (30_000_000.0 * scale) as u64;
    let field_rows = (60_000.0 * scale).max(10.0) as u64;

    let schema = SchemaBuilder::new()
        .table("photoobj")
        .column("objid", DataType::BigInt)
        .column("ra", DataType::Float)
        .column("dec", DataType::Float)
        .column("type", DataType::Int)
        .column("u", DataType::Float)
        .column("g", DataType::Float)
        .column("r", DataType::Float)
        .column("i", DataType::Float)
        .column("z", DataType::Float)
        .column("run", DataType::Int)
        .column("camcol", DataType::Int)
        .column("field", DataType::Int)
        .column("flags", DataType::BigInt)
        .column("status", DataType::Int)
        .column("rowc", DataType::Float)
        .column("colc", DataType::Float)
        .table("specobj")
        .column("specobjid", DataType::BigInt)
        .column("bestobjid", DataType::BigInt)
        .column("class", DataType::Int)
        .column("zredshift", DataType::Float)
        .column("zerr", DataType::Float)
        .column("plate", DataType::Int)
        .column("mjd", DataType::Int)
        .column("fiberid", DataType::Int)
        .table("neighbors")
        .column("objid", DataType::BigInt)
        .column("neighborobjid", DataType::BigInt)
        .column("distance", DataType::Float)
        .column("ntype", DataType::Int)
        .table("field")
        .column("fieldid", DataType::BigInt)
        .column("run", DataType::Int)
        .column("camcol", DataType::Int)
        .column("fieldnum", DataType::Int)
        .column("quality", DataType::Int)
        .column("mjd", DataType::Int)
        .build()
        .expect("sdss schema is well formed");

    let photo = stats_for(
        &schema,
        "photoobj",
        &[
            ColumnGen::Sequential,                          // objid
            ColumnGen::UniformFloat { lo: 0.0, hi: 360.0 }, // ra
            ColumnGen::Normal {
                mean: 20.0,
                std: 25.0,
            }, // dec
            ColumnGen::Zipf { n: 6, s: 0.8 },               // type (skewed: star/galaxy)
            ColumnGen::Normal {
                mean: 21.0,
                std: 2.0,
            }, // u
            ColumnGen::Normal {
                mean: 20.0,
                std: 2.0,
            }, // g
            ColumnGen::Normal {
                mean: 19.5,
                std: 2.0,
            }, // r
            ColumnGen::Normal {
                mean: 19.0,
                std: 2.0,
            }, // i
            ColumnGen::Normal {
                mean: 18.8,
                std: 2.0,
            }, // z
            ColumnGen::UniformInt { lo: 94, hi: 8162 },     // run
            ColumnGen::UniformInt { lo: 1, hi: 6 },         // camcol
            ColumnGen::UniformInt { lo: 11, hi: 1000 },     // field
            ColumnGen::UniformInt { lo: 0, hi: 1 << 30 },   // flags
            ColumnGen::Zipf { n: 8, s: 1.0 },               // status
            ColumnGen::UniformFloat {
                lo: 0.0,
                hi: 1489.0,
            }, // rowc
            ColumnGen::UniformFloat {
                lo: 0.0,
                hi: 2048.0,
            }, // colc
        ],
        photo_rows,
        0xDEC0,
    );
    let spec = stats_for(
        &schema,
        "specobj",
        &[
            ColumnGen::Sequential, // specobjid
            ColumnGen::ForeignKey {
                parent_rows: photo_rows.max(1),
            }, // bestobjid
            ColumnGen::Zipf { n: 4, s: 0.9 }, // class
            ColumnGen::Normal {
                mean: 0.15,
                std: 0.12,
            }, // zredshift
            ColumnGen::UniformFloat { lo: 0.0, hi: 0.01 }, // zerr
            ColumnGen::UniformInt { lo: 266, hi: 2974 }, // plate
            ColumnGen::UniformInt {
                lo: 51578,
                hi: 54663,
            }, // mjd
            ColumnGen::UniformInt { lo: 1, hi: 640 }, // fiberid
        ],
        spec_rows,
        0xDEC1,
    );
    let neigh = stats_for(
        &schema,
        "neighbors",
        &[
            ColumnGen::ForeignKey {
                parent_rows: photo_rows.max(1),
            },
            ColumnGen::ForeignKey {
                parent_rows: photo_rows.max(1),
            },
            ColumnGen::UniformFloat { lo: 0.0, hi: 0.5 },
            ColumnGen::Zipf { n: 6, s: 0.8 },
        ],
        neigh_rows,
        0xDEC2,
    );
    let field = stats_for(
        &schema,
        "field",
        &[
            ColumnGen::Sequential,
            ColumnGen::UniformInt { lo: 94, hi: 8162 },
            ColumnGen::UniformInt { lo: 1, hi: 6 },
            ColumnGen::UniformInt { lo: 11, hi: 1000 },
            ColumnGen::Zipf { n: 3, s: 0.5 },
            ColumnGen::UniformInt {
                lo: 51075,
                hi: 54663,
            },
        ],
        field_rows,
        0xDEC3,
    );

    Catalog::new(schema, vec![photo, spec, neigh, field])
}

/// A TPC-H-like catalog (lineitem/orders/customer/part/supplier), used by
/// tests and the broader workload generators. `scale = 1.0` ≈ SF1 row
/// counts.
pub fn tpch_catalog(scale: f64) -> Catalog {
    let scale = scale.max(1e-3);
    let li_rows = (6_000_000.0 * scale) as u64;
    let ord_rows = (1_500_000.0 * scale) as u64;
    let cust_rows = (150_000.0 * scale).max(10.0) as u64;
    let part_rows = (200_000.0 * scale).max(10.0) as u64;
    let supp_rows = (10_000.0 * scale).max(10.0) as u64;

    let schema = SchemaBuilder::new()
        .table("lineitem")
        .column("l_orderkey", DataType::BigInt)
        .column("l_partkey", DataType::BigInt)
        .column("l_suppkey", DataType::BigInt)
        .column("l_linenumber", DataType::Int)
        .column("l_quantity", DataType::Float)
        .column("l_extendedprice", DataType::Float)
        .column("l_discount", DataType::Float)
        .column("l_tax", DataType::Float)
        .column("l_shipdate", DataType::Timestamp)
        .column("l_commitdate", DataType::Timestamp)
        .column("l_receiptdate", DataType::Timestamp)
        .column("l_returnflag", DataType::Int)
        .column("l_linestatus", DataType::Int)
        .table("orders")
        .column("o_orderkey", DataType::BigInt)
        .column("o_custkey", DataType::BigInt)
        .column("o_orderstatus", DataType::Int)
        .column("o_totalprice", DataType::Float)
        .column("o_orderdate", DataType::Timestamp)
        .column("o_orderpriority", DataType::Int)
        .column("o_shippriority", DataType::Int)
        .table("customer")
        .column("c_custkey", DataType::BigInt)
        .column("c_nationkey", DataType::Int)
        .column("c_acctbal", DataType::Float)
        .column("c_mktsegment", DataType::Int)
        .table("part")
        .column("p_partkey", DataType::BigInt)
        .column("p_brand", DataType::Int)
        .column("p_type", DataType::Int)
        .column("p_size", DataType::Int)
        .column("p_retailprice", DataType::Float)
        .table("supplier")
        .column("s_suppkey", DataType::BigInt)
        .column("s_nationkey", DataType::Int)
        .column("s_acctbal", DataType::Float)
        .build()
        .expect("tpch schema is well formed");

    let day0 = 8766i64; // days: domain stand-in for dates
    let li = stats_for(
        &schema,
        "lineitem",
        &[
            ColumnGen::ForeignKey {
                parent_rows: ord_rows.max(1),
            },
            ColumnGen::ForeignKey {
                parent_rows: part_rows.max(1),
            },
            ColumnGen::ForeignKey {
                parent_rows: supp_rows.max(1),
            },
            ColumnGen::UniformInt { lo: 1, hi: 7 },
            ColumnGen::UniformInt { lo: 1, hi: 50 },
            ColumnGen::UniformFloat {
                lo: 900.0,
                hi: 105_000.0,
            },
            ColumnGen::UniformFloat { lo: 0.0, hi: 0.10 },
            ColumnGen::UniformFloat { lo: 0.0, hi: 0.08 },
            ColumnGen::UniformInt {
                lo: day0,
                hi: day0 + 2526,
            },
            ColumnGen::UniformInt {
                lo: day0,
                hi: day0 + 2526,
            },
            ColumnGen::UniformInt {
                lo: day0,
                hi: day0 + 2526,
            },
            ColumnGen::Zipf { n: 3, s: 0.3 },
            ColumnGen::Zipf { n: 2, s: 0.2 },
        ],
        li_rows,
        0x7C01,
    );
    let ord = stats_for(
        &schema,
        "orders",
        &[
            ColumnGen::Sequential,
            ColumnGen::ForeignKey {
                parent_rows: cust_rows.max(1),
            },
            ColumnGen::Zipf { n: 3, s: 0.5 },
            ColumnGen::UniformFloat {
                lo: 850.0,
                hi: 560_000.0,
            },
            ColumnGen::UniformInt {
                lo: day0,
                hi: day0 + 2405,
            },
            ColumnGen::UniformInt { lo: 1, hi: 5 },
            ColumnGen::UniformInt { lo: 0, hi: 0 },
        ],
        ord_rows,
        0x7C02,
    );
    let cust = stats_for(
        &schema,
        "customer",
        &[
            ColumnGen::Sequential,
            ColumnGen::UniformInt { lo: 0, hi: 24 },
            ColumnGen::UniformFloat {
                lo: -999.0,
                hi: 9999.0,
            },
            ColumnGen::UniformInt { lo: 0, hi: 4 },
        ],
        cust_rows,
        0x7C03,
    );
    let part = stats_for(
        &schema,
        "part",
        &[
            ColumnGen::Sequential,
            ColumnGen::UniformInt { lo: 0, hi: 24 },
            ColumnGen::UniformInt { lo: 0, hi: 149 },
            ColumnGen::UniformInt { lo: 1, hi: 50 },
            ColumnGen::UniformFloat {
                lo: 900.0,
                hi: 2100.0,
            },
        ],
        part_rows,
        0x7C04,
    );
    let supp = stats_for(
        &schema,
        "supplier",
        &[
            ColumnGen::Sequential,
            ColumnGen::UniformInt { lo: 0, hi: 24 },
            ColumnGen::UniformFloat {
                lo: -999.0,
                hi: 9999.0,
            },
        ],
        supp_rows,
        0x7C05,
    );

    Catalog::new(schema, vec![li, ord, cust, part, supp])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdss_catalog_builds_and_has_expected_shape() {
        let c = sdss_catalog(0.01);
        assert_eq!(c.schema.len(), 4);
        assert_eq!(
            c.row_count(c.schema.table_by_name("photoobj").unwrap().id),
            100_000
        );
        let objid = c.schema.resolve("photoobj", "objid").unwrap();
        let stats = c.table_stats(objid.table).column(objid.column);
        assert!(stats.ndv > 50_000.0, "objid is a key");
    }

    #[test]
    fn sdss_type_column_is_skewed() {
        let c = sdss_catalog(0.01);
        let ty = c.schema.resolve("photoobj", "type").unwrap();
        assert!(!c.table_stats(ty.table).column(ty.column).mcv.is_empty());
    }

    #[test]
    fn tpch_catalog_builds() {
        let c = tpch_catalog(0.01);
        assert_eq!(c.schema.len(), 5);
        let sd = c.schema.resolve("lineitem", "l_shipdate").unwrap();
        let s = c.table_stats(sd.table).column(sd.column);
        assert!(s.max > s.min);
    }

    #[test]
    fn scale_changes_row_counts_not_schema() {
        let small = sdss_catalog(0.01);
        let big = sdss_catalog(0.1);
        let t = small.schema.table_by_name("photoobj").unwrap().id;
        assert_eq!(big.row_count(t), 10 * small.row_count(t));
        assert_eq!(small.schema.len(), big.schema.len());
    }

    #[test]
    fn data_bytes_scale_with_rows() {
        let small = sdss_catalog(0.01);
        let big = sdss_catalog(0.02);
        assert!(big.data_bytes() > small.data_bytes());
    }

    #[test]
    fn stats_widths_match_schema() {
        let c = sdss_catalog(0.01);
        let ra = c.schema.resolve("photoobj", "ra").unwrap();
        assert_eq!(c.table_stats(ra.table).column(ra.column).avg_width, 8.0);
    }
}
