//! Workload generators.
//!
//! The demo uses "a real-world SDSS dataset and query workload". The
//! generators here produce the synthetic equivalent: parameterised query
//! templates modelled on the public SkyServer sample queries (cone/box
//! searches, magnitude cuts, photo–spec joins, neighbour self-joins), with
//! literals drawn from the column domains so selectivities vary per
//! instance. Templates are written in SQL and parsed, which exercises the
//! same path a DBA's workload file would take.

use crate::ast::Query;
use crate::parser::parse_query;
use crate::workload::Workload;
use pgdesign_catalog::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate an SDSS-style offline workload of `n` queries.
pub fn sdss_workload(catalog: &Catalog, n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new();
    for i in 0..n {
        let template = i % SDSS_TEMPLATE_COUNT;
        let q = sdss_template(catalog, template, &mut rng);
        w.push(q, 1.0);
    }
    w
}

/// Number of distinct SDSS templates.
pub const SDSS_TEMPLATE_COUNT: usize = 9;

/// Instantiate SDSS template `k` with random literals.
pub fn sdss_template(catalog: &Catalog, k: usize, rng: &mut StdRng) -> Query {
    let ra = rng.random_range(0.0..350.0);
    let dec = rng.random_range(-20.0..60.0);
    let ra_w = rng.random_range(0.5..8.0);
    let dec_w = rng.random_range(0.5..5.0);
    let rmag = rng.random_range(17.0..22.0);
    let ty = rng.random_range(0..6);
    let run = rng.random_range(94..8000);
    let zlo = rng.random_range(0.0..0.3);
    let zw = rng.random_range(0.02..0.2);
    let dist = rng.random_range(0.01..0.2);
    let sql = match k % SDSS_TEMPLATE_COUNT {
        // Box search: positional range + magnitude cut.
        0 => format!(
            "SELECT objid, ra, dec, r FROM photoobj \
             WHERE ra BETWEEN {ra:.3} AND {:.3} AND dec BETWEEN {dec:.3} AND {:.3} AND r < {rmag:.2}",
            ra + ra_w,
            dec + dec_w
        ),
        // Type census in a stripe, grouped.
        1 => format!(
            "SELECT type, count(*) FROM photoobj \
             WHERE ra BETWEEN {ra:.3} AND {:.3} GROUP BY type",
            ra + ra_w
        ),
        // Colour selection on magnitudes.
        2 => format!(
            "SELECT objid, u, g, r FROM photoobj \
             WHERE g BETWEEN {:.2} AND {:.2} AND r < {rmag:.2} AND type = {ty} ORDER BY r",
            rmag - 2.0,
            rmag
        ),
        // Photo–spec join with redshift window.
        3 => format!(
            "SELECT p.objid, p.ra, p.dec, s.zredshift FROM photoobj p, specobj s \
             WHERE p.objid = s.bestobjid AND s.zredshift BETWEEN {zlo:.3} AND {:.3} AND p.r < {rmag:.2}",
            zlo + zw
        ),
        // Spectro census by class.
        4 => format!(
            "SELECT class, count(*), avg(zredshift) FROM specobj \
             WHERE zredshift BETWEEN {zlo:.3} AND {:.3} GROUP BY class",
            zlo + zw
        ),
        // Neighbour self-join through photoobj.
        5 => format!(
            "SELECT n.objid, n.neighborobjid, n.distance FROM neighbors n, photoobj p \
             WHERE n.objid = p.objid AND n.distance < {dist:.3} AND p.type = {ty}",
        ),
        // Observation-run drill-down joining field metadata.
        6 => format!(
            "SELECT p.objid, f.quality FROM photoobj p, field f \
             WHERE p.run = f.run AND p.camcol = f.camcol AND p.run = {run} AND f.quality = 1",
        ),
        // Flag scan: narrow status filter, wide projection.
        7 => format!(
            "SELECT * FROM photoobj WHERE status = {} AND r < {rmag:.2} LIMIT 1000",
            rng.random_range(0..8)
        ),
        // Bright-object ordering within a camcol.
        _ => format!(
            "SELECT objid, ra, dec FROM photoobj \
             WHERE camcol = {} AND r < {rmag:.2} ORDER BY r LIMIT 500",
            rng.random_range(1..7)
        ),
    };
    parse_query(&catalog.schema, &sql).expect("template SQL must parse")
}

/// Number of distinct TPC-H-style templates.
pub const TPCH_TEMPLATE_COUNT: usize = 6;

/// Generate a TPC-H-style workload of `n` queries.
pub fn tpch_workload(catalog: &Catalog, n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new();
    for i in 0..n {
        let q = tpch_template(catalog, i % TPCH_TEMPLATE_COUNT, &mut rng);
        w.push(q, 1.0);
    }
    w
}

/// Instantiate TPC-H-style template `k` with random literals.
pub fn tpch_template(catalog: &Catalog, k: usize, rng: &mut StdRng) -> Query {
    let day0 = 8766;
    let d = rng.random_range(day0..day0 + 2300);
    let dw = rng.random_range(30..200);
    let qty = rng.random_range(10..45);
    let seg = rng.random_range(0..5);
    let brand = rng.random_range(0..25);
    let sql = match k % TPCH_TEMPLATE_COUNT {
        // Q6-style revenue scan.
        0 => format!(
            "SELECT sum(l_extendedprice) FROM lineitem \
             WHERE l_shipdate BETWEEN {d} AND {} AND l_quantity < {qty} AND l_discount BETWEEN 0.02 AND 0.05",
            d + dw
        ),
        // Q1-style pricing summary.
        1 => format!(
            "SELECT l_returnflag, l_linestatus, count(*), sum(l_quantity) FROM lineitem \
             WHERE l_shipdate <= {d} GROUP BY l_returnflag, l_linestatus",
        ),
        // Q3-style shipping priority join.
        2 => format!(
            "SELECT o.o_orderkey, o.o_orderdate FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
             AND c.c_mktsegment = {seg} AND o.o_orderdate < {d} ORDER BY o_orderdate LIMIT 10",
        ),
        // Part availability probe.
        3 => format!(
            "SELECT p_partkey, p_retailprice FROM part \
             WHERE p_brand = {brand} AND p_size BETWEEN {} AND {}",
            qty / 5,
            qty / 5 + 8
        ),
        // Order status lookup.
        4 => format!(
            "SELECT o_orderkey, o_totalprice FROM orders \
             WHERE o_custkey = {} AND o_orderstatus = 1",
            rng.random_range(0..100_000)
        ),
        // Supplier-lineitem join.
        _ => format!(
            "SELECT s.s_suppkey, count(*) FROM supplier s, lineitem l \
             WHERE s.s_suppkey = l.l_suppkey AND l.l_shipdate > {d} GROUP BY s_suppkey",
        ),
    };
    parse_query(&catalog.schema, &sql).expect("template SQL must parse")
}

/// A phased online stream for the continuous-tuning scenario: the template
/// mix shifts every `phase_len` queries, so the best index set changes over
/// time — the situation COLT exists for.
#[derive(Debug)]
pub struct DriftingStream {
    catalog: Catalog,
    rng: StdRng,
    /// Queries emitted so far.
    emitted: usize,
    /// Queries per phase.
    pub phase_len: usize,
    /// Template subsets per phase (cycled).
    pub phases: Vec<Vec<usize>>,
    /// Instantiates a template of the stream's catalog.
    template: fn(&Catalog, usize, &mut StdRng) -> Query,
}

impl DriftingStream {
    /// A default 4-phase SDSS drift: positional → photometric →
    /// spectro-join → operational templates.
    pub fn sdss_default(catalog: Catalog, phase_len: usize, seed: u64) -> Self {
        DriftingStream {
            catalog,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
            phase_len: phase_len.max(1),
            phases: vec![vec![0, 1], vec![2, 7], vec![3, 4, 5], vec![6, 8]],
            template: sdss_template,
        }
    }

    /// A 3-phase TPC-H drift over the six templates, two per phase.
    pub fn tpch_default(catalog: Catalog, phase_len: usize, seed: u64) -> Self {
        DriftingStream {
            catalog,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
            phase_len: phase_len.max(1),
            phases: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            template: tpch_template,
        }
    }

    /// Index of the phase the next query belongs to.
    pub fn current_phase(&self) -> usize {
        (self.emitted / self.phase_len) % self.phases.len()
    }

    /// Emit the next query.
    pub fn next_query(&mut self) -> Query {
        let phase = &self.phases[self.current_phase()];
        let template = phase[self.rng.random_range(0..phase.len())];
        self.emitted += 1;
        (self.template)(&self.catalog, template, &mut self.rng)
    }

    /// Emit a batch of `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};

    #[test]
    fn sdss_workload_parses_all_templates() {
        let c = sdss_catalog(0.01);
        let w = sdss_workload(&c, 2 * SDSS_TEMPLATE_COUNT, 42);
        assert_eq!(w.len(), 2 * SDSS_TEMPLATE_COUNT);
        // Every template occurs; joins appear in some queries.
        assert!(w.iter().any(|(q, _)| !q.joins.is_empty()));
        assert!(w.iter().any(|(q, _)| !q.group_by.is_empty()));
        assert!(w.iter().any(|(q, _)| !q.order_by.is_empty()));
    }

    #[test]
    fn tpch_workload_parses_all_templates() {
        let c = tpch_catalog(0.01);
        let w = tpch_workload(&c, TPCH_TEMPLATE_COUNT, 1);
        assert_eq!(w.len(), TPCH_TEMPLATE_COUNT);
        assert!(w.iter().any(|(q, _)| q.tables.len() == 3));
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let c = sdss_catalog(0.01);
        let a = sdss_workload(&c, 10, 7);
        let b = sdss_workload(&c, 10, 7);
        assert_eq!(a, b);
        let c2 = sdss_workload(&c, 10, 8);
        assert_ne!(a, c2);
    }

    #[test]
    fn drifting_stream_changes_phase() {
        let c = sdss_catalog(0.01);
        let mut s = DriftingStream::sdss_default(c, 5, 3);
        assert_eq!(s.current_phase(), 0);
        s.batch(5);
        assert_eq!(s.current_phase(), 1);
        s.batch(15);
        assert_eq!(s.current_phase(), 0); // wrapped around 4 phases
    }

    #[test]
    fn drifting_stream_emits_phase_templates() {
        let c = sdss_catalog(0.01);
        let mut s = DriftingStream::sdss_default(c, 100, 3);
        // Phase 0 uses templates {0,1}: single-table photoobj queries.
        for q in s.batch(20) {
            assert_eq!(q.tables.len(), 1);
        }
    }
}
