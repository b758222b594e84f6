//! Seeded cost-purity violations: read paths reaching for the optimizer
//! instead of cost-matrix lookups. Not compiled — lexed by the golden test.

pub fn sneaky(m: &M, q: &Query) -> f64 {
    let inum = m.inum();
    inum.cost(q)
}

pub fn also_sneaky(handle: &Inum<'_>, q: &Query) -> f64 {
    Inum::cost(handle, q)
}

pub fn worst(session: &TuningSession<'_>) -> f64 {
    let h = session.inum().clone();
    h.total()
}

pub fn waived(m: &M, q: &Query) -> f64 {
    // analyzer:allow(cost-purity): fixture demonstrating a reasoned waiver.
    let inum = m.inum();
    inum.read_only_metadata(q)
}
