//! Weighted workloads and online query streams.

use crate::ast::Query;

/// One workload member: a query with a relative weight (frequency).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// The query.
    pub query: Query,
    /// Relative weight; the designer minimises Σ weight × cost.
    pub weight: f64,
}

/// A weighted set of queries — the offline tuning input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    /// The entries in submission order.
    pub entries: Vec<WorkloadEntry>,
}

impl Workload {
    /// Empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unweighted queries (weight 1 each).
    pub fn from_queries<I: IntoIterator<Item = Query>>(queries: I) -> Self {
        Workload {
            entries: queries
                .into_iter()
                .map(|query| WorkloadEntry { query, weight: 1.0 })
                .collect(),
        }
    }

    /// Append a weighted query.
    pub fn push(&mut self, query: Query, weight: f64) {
        self.entries.push(WorkloadEntry { query, weight });
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of weights.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|e| e.weight).sum()
    }

    /// Iterate over `(query, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Query, f64)> {
        self.entries.iter().map(|e| (&e.query, e.weight))
    }

    /// The i-th query.
    pub fn query(&self, i: usize) -> &Query {
        &self.entries[i].query
    }
}

impl FromIterator<Query> for Workload {
    fn from_iter<T: IntoIterator<Item = Query>>(iter: T) -> Self {
        Workload::from_queries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use pgdesign_catalog::schema::TableId;

    fn q() -> Query {
        QueryBuilder::new().table(TableId(0)).star().build()
    }

    #[test]
    fn weights_accumulate() {
        let mut w = Workload::new();
        w.push(q(), 2.0);
        w.push(q(), 3.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_weight(), 5.0);
    }

    #[test]
    fn from_queries_defaults_to_unit_weight() {
        let w = Workload::from_queries([q(), q(), q()]);
        assert_eq!(w.total_weight(), 3.0);
        assert!(!w.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let w: Workload = std::iter::repeat_with(q).take(4).collect();
        assert_eq!(w.len(), 4);
    }
}
