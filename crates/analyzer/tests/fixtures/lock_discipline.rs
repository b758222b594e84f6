//! Seeded lock-order write-guard violations: costing and publishing while a
//! publish-slot write guard is live. Not compiled — lexed by the golden test.

pub fn publish_under_guard(slot: &PublishSlot, matrix: &CostMatrix<'_>) {
    let guard = slot.write();
    matrix.publish();
    drop(guard);
}

pub fn cost_under_guard(slot: &PublishSlot, m: &M, q: &Query) -> f64 {
    let guard = slot.write();
    let c = m.inum().cost(q);
    drop(guard);
    c
}

pub fn compute_then_swap(slot: &PublishSlot, next: Snapshot) {
    let prepared = expensive_compute(next);
    let guard = slot.write();
    guard.swap(prepared);
}
