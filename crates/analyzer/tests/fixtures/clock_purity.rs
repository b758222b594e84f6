//! Seeded clock-purity violation: a search loop that reads the wall clock
//! directly instead of through the `Clock` trait, so how far it gets depends
//! on machine speed. Not compiled — lexed by the golden test.

use std::time::Instant;

pub fn search_until(deadline_ms: u128) -> u64 {
    let start = Instant::now();
    let mut nodes = 0;
    while start.elapsed().as_millis() < deadline_ms {
        nodes += 1;
    }
    nodes
}

pub fn search_within(budget: &WorkBudget) -> u64 {
    let mut nodes = 0;
    while !budget.exhausted() {
        nodes += 1;
    }
    nodes
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_a_test_is_fine() {
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_secs() < 60);
    }
}
