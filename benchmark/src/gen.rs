//! The benchmark's own seeded input generator.
//!
//! Everything the program under test sees is text produced here from
//! `--seed`: SQL statements (the 9 SkyServer-style and 6 TPC-H-style
//! templates, the 4-phase drifting stream) and the interactive workload's
//! DBA script, written in the CLI's own flag syntax. The generator owns
//! its random numbers (SplitMix64) and its templates, so neither
//! `vendor/rand` nor `pgdesign_query::generators` can shift the inputs
//! under a later change.

use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, well mixed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A subset of `items`, each kept with probability 1/4: how the
    /// benchmark draws index configurations from a matrix's candidates.
    pub fn subset(&mut self, items: &[usize]) -> Vec<usize> {
        items
            .iter()
            .copied()
            .filter(|_| self.int(0, 4) == 0)
            .collect()
    }

    /// An independent stream for sub-input `k` of this seed.
    pub fn fork(seed: u64, k: u64) -> Self {
        let mut mix = SplitMix64(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(mix.next_u64())
    }
}

pub const SDSS_TEMPLATES: usize = 9;
pub const TPCH_TEMPLATES: usize = 6;

/// One statement of SkyServer-style template `k`, literals drawn from the
/// column domains of the SDSS sample catalog.
pub fn sdss_statement(k: usize, rng: &mut SplitMix64) -> String {
    let ra = rng.float(0.0, 350.0);
    let dec = rng.float(-20.0, 60.0);
    let ra_w = rng.float(0.5, 8.0);
    let dec_w = rng.float(0.5, 5.0);
    let rmag = rng.float(17.0, 22.0);
    let ty = rng.int(0, 6);
    let run = rng.int(94, 8000);
    let zlo = rng.float(0.0, 0.3);
    let zw = rng.float(0.02, 0.2);
    let dist = rng.float(0.01, 0.2);
    let small = rng.int(0, 8);
    match k % SDSS_TEMPLATES {
        // Box search: positional range + magnitude cut.
        0 => format!(
            "SELECT objid, ra, dec, r FROM photoobj WHERE ra BETWEEN {ra:.3} AND {:.3} \
             AND dec BETWEEN {dec:.3} AND {:.3} AND r < {rmag:.2}",
            ra + ra_w,
            dec + dec_w
        ),
        // Type census in a stripe, grouped.
        1 => format!(
            "SELECT type, count(*) FROM photoobj WHERE ra BETWEEN {ra:.3} AND {:.3} GROUP BY type",
            ra + ra_w
        ),
        // Colour selection on magnitudes.
        2 => format!(
            "SELECT objid, u, g, r FROM photoobj WHERE g BETWEEN {:.2} AND {rmag:.2} \
             AND r < {rmag:.2} AND type = {ty} ORDER BY r",
            rmag - 2.0
        ),
        // Photo-spec join with a redshift window.
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
        // Neighbour join through photoobj.
        5 => format!(
            "SELECT n.objid, n.neighborobjid, n.distance FROM neighbors n, photoobj p \
             WHERE n.objid = p.objid AND n.distance < {dist:.3} AND p.type = {ty}"
        ),
        // Observation-run drill-down joining field metadata.
        6 => format!(
            "SELECT p.objid, f.quality FROM photoobj p, field f \
             WHERE p.run = f.run AND p.camcol = f.camcol AND p.run = {run} AND f.quality = 1"
        ),
        // Flag scan: narrow status filter, wide projection.
        7 => format!("SELECT * FROM photoobj WHERE status = {small} AND r < {rmag:.2} LIMIT 1000"),
        // Bright-object ordering within a camcol.
        _ => format!(
            "SELECT objid, ra, dec FROM photoobj WHERE camcol = {} AND r < {rmag:.2} \
             ORDER BY r LIMIT 500",
            1 + small % 6
        ),
    }
}

/// One statement of TPC-H-style template `k`.
pub fn tpch_statement(k: usize, rng: &mut SplitMix64) -> String {
    let d = rng.int(8766, 8766 + 2300);
    let dw = rng.int(30, 200);
    let qty = rng.int(10, 45);
    let seg = rng.int(0, 5);
    let brand = rng.int(0, 25);
    let cust = rng.int(0, 100_000);
    match k % TPCH_TEMPLATES {
        // Q6-style revenue scan.
        0 => format!(
            "SELECT sum(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN {d} AND {} \
             AND l_quantity < {qty} AND l_discount BETWEEN 0.02 AND 0.05",
            d + dw
        ),
        // Q1-style pricing summary.
        1 => format!(
            "SELECT l_returnflag, l_linestatus, count(*), sum(l_quantity) FROM lineitem \
             WHERE l_shipdate <= {d} GROUP BY l_returnflag, l_linestatus"
        ),
        // Q3-style shipping priority join.
        2 => format!(
            "SELECT o.o_orderkey, o.o_orderdate FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
             AND c.c_mktsegment = {seg} AND o.o_orderdate < {d} ORDER BY o_orderdate LIMIT 10"
        ),
        // Part availability probe.
        3 => format!(
            "SELECT p_partkey, p_retailprice FROM part WHERE p_brand = {brand} \
             AND p_size BETWEEN {} AND {}",
            qty / 5,
            qty / 5 + 8
        ),
        // Order status lookup.
        4 => format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {cust} AND o_orderstatus = 1"
        ),
        // Supplier-lineitem join.
        _ => format!(
            "SELECT s.s_suppkey, count(*) FROM supplier s, lineitem l \
             WHERE s.s_suppkey = l.l_suppkey AND l.l_shipdate > {d} GROUP BY s_suppkey"
        ),
    }
}

/// An offline workload of `n` statements cycling through the templates.
pub fn offline_workload(tpch: bool, n: usize, rng: &mut SplitMix64) -> Vec<String> {
    (0..n)
        .map(|i| {
            if tpch {
                tpch_statement(i, rng)
            } else {
                sdss_statement(i, rng)
            }
        })
        .collect()
}

/// Template subsets of the drifting stream's phases: positional,
/// photometric, spectro-join, operational.
const PHASES: [&[usize]; 4] = [&[0, 1], &[2, 7], &[3, 4, 5], &[6, 8]];

/// A drifting SDSS stream: the template mix shifts every `phase_len`
/// statements, so the best index set changes over time.
pub fn drifting_stream(n: usize, phase_len: usize, rng: &mut SplitMix64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let phase = PHASES[(i / phase_len) % PHASES.len()];
            let template = phase[rng.int(0, phase.len() as u64) as usize];
            sdss_statement(template, rng)
        })
        .collect()
}

/// The indexes the scripted DBA toggles, as `table:col,col`.
pub const INDEX_POOL: [&str; 24] = [
    "photoobj:objid",
    "photoobj:ra",
    "photoobj:dec",
    "photoobj:ra,dec",
    "photoobj:type",
    "photoobj:type,r",
    "photoobj:r",
    "photoobj:g,r",
    "photoobj:r,type",
    "photoobj:run",
    "photoobj:run,camcol",
    "photoobj:camcol,r",
    "photoobj:status",
    "photoobj:status,r",
    "photoobj:ra,r",
    "photoobj:g",
    "specobj:bestobjid",
    "specobj:zredshift",
    "specobj:class",
    "specobj:zredshift,bestobjid",
    "neighbors:objid",
    "neighbors:distance",
    "field:run,camcol",
    "field:quality",
];

/// Most indexes the scripted DBA keeps selected at once: the interaction
/// sweep is `2^k`, so this sets the tail of the step latency.
pub const MAX_SELECTED: usize = 8;

const PHOTOOBJ_COLUMNS: [&str; 16] = [
    "objid", "ra", "dec", "type", "u", "g", "r", "i", "z", "run", "camcol", "field", "flags",
    "status", "rowc", "colc",
];

/// A DBA script of `steps` lines in the CLI's flag syntax, one what-if
/// edit per line (`+index t:c1,c2`, `-index t:c1,c2`, `+vertical
/// t:c1,c2|c3`, `-vertical t`, `+horizontal t:col:N`, `-horizontal t`),
/// drawn 70/20/10 from index / vertical / horizontal edits.
///
/// The number of selected indexes follows a fixed sawtooth 0..=8..=0
/// whatever the seed — only *which* index is added or removed, and where
/// the partition edits fall, is drawn — because a step costs `2^k`: a
/// random walk over `k` would make two seeds two different workloads.
pub fn dba_script(steps: usize, rng: &mut SplitMix64) -> Vec<String> {
    let mut selected: Vec<usize> = Vec::new();
    let mut rising = true;
    let mut vertical = false;
    let mut horizontal = false;
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let kind = rng.int(0, 10);
        let line = if kind < 7 {
            if selected.len() == MAX_SELECTED {
                rising = false;
            } else if selected.is_empty() {
                rising = true;
            }
            if rising {
                let absent: Vec<usize> = (0..INDEX_POOL.len())
                    .filter(|i| !selected.contains(i))
                    .collect();
                let pick = absent[rng.int(0, absent.len() as u64) as usize];
                selected.push(pick);
                format!("+index {}", INDEX_POOL[pick])
            } else {
                let pick = selected.swap_remove(rng.int(0, selected.len() as u64) as usize);
                format!("-index {}", INDEX_POOL[pick])
            }
        } else if kind < 9 {
            vertical = !vertical;
            if vertical {
                let cut = rng.int(2, 15) as usize;
                format!(
                    "+vertical photoobj:{}|{}",
                    PHOTOOBJ_COLUMNS[..cut].join(","),
                    PHOTOOBJ_COLUMNS[cut..].join(",")
                )
            } else {
                "-vertical photoobj".to_string()
            }
        } else {
            horizontal = !horizontal;
            if horizontal {
                format!("+horizontal photoobj:ra:{}", rng.int(2, 9))
            } else {
                "-horizontal photoobj".to_string()
            }
        };
        out.push(line);
    }
    out
}

/// Lines joined for a workload file (one statement per line).
pub fn to_file_text(lines: &[String]) -> String {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        let _ = writeln!(text, "{line}");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_query::parse_query;

    #[test]
    fn same_seed_same_bytes_other_seed_other_literals() {
        let text = |seed| {
            let mut rng = SplitMix64::fork(seed, 0);
            to_file_text(&offline_workload(false, 27, &mut rng))
                + &to_file_text(&offline_workload(true, 12, &mut rng))
                + &to_file_text(&drifting_stream(400, 50, &mut rng))
                + &to_file_text(&dba_script(100, &mut rng))
        };
        assert_eq!(text(2010), text(2010));
        assert_ne!(text(2010), text(7));
    }

    #[test]
    fn every_statement_parses_on_its_catalog() {
        let sdss = sdss_catalog(0.01);
        let tpch = tpch_catalog(0.01);
        let mut rng = SplitMix64::new(3);
        for sql in offline_workload(false, 90, &mut rng) {
            parse_query(&sdss.schema, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        for sql in offline_workload(true, 60, &mut rng) {
            parse_query(&tpch.schema, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        for sql in drifting_stream(800, 50, &mut rng) {
            parse_query(&sdss.schema, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn drift_visits_every_phase_in_order() {
        let mut rng = SplitMix64::new(5);
        let stream = drifting_stream(40, 10, &mut rng);
        assert!(stream[..10]
            .iter()
            .all(|s| s.contains("FROM photoobj WHERE ra")));
        assert!(stream[20..30]
            .iter()
            .all(|s| !s.contains("FROM photoobj WHERE")));
    }

    #[test]
    fn script_follows_the_sawtooth_and_stays_within_the_cap() {
        for seed in [1, 2, 3] {
            let mut rng = SplitMix64::new(seed);
            let mut k = 0usize;
            let mut peak = 0;
            for line in dba_script(400, &mut rng) {
                if line.starts_with("+index") {
                    k += 1;
                } else if line.starts_with("-index") {
                    k -= 1;
                }
                peak = peak.max(k);
                assert!(k <= MAX_SELECTED);
            }
            assert_eq!(peak, MAX_SELECTED);
        }
    }
}
