//! One query's cached skeletons, packed into a single shared allocation.

use pgdesign_optimizer::Skeleton;
use std::sync::Arc;

/// Words an internal cost takes (its bits, low word first).
const COST_WORDS: usize = 4;

/// What the skeleton cache keeps for one query: the query's canonical
/// bytes (what a key match is confirmed against) and its kept skeletons,
/// in one reference-counted block of `u16` words. Each distinct order is
/// stored once and skeletons refer to it by id, so a cached query is one
/// allocation however many skeletons and orders it has — a long stream's
/// cache is one block per query rather than a dozen small ones to keep,
/// and to free when the cache goes — and a clone is a count bump.
///
/// ```text
/// query length in bytes (2 words, low first) | the bytes, two per word
/// slots S | skeletons K
/// K × [internal-cost bits (4 words, low first) | S order ids]
/// S × [orders n | n × [length | columns]]
/// ```
///
/// An order id is 0 where the slot may deliver any order and `i + 1` for
/// the slot's `i`-th order. A slot's orders are distinct and listed in the
/// order the skeletons first use them, which is how a cost-matrix row
/// numbers them. Every count fits a word: skeletons are capped at 64 per
/// query, and a slot, an order or a column is at most the query's or the
/// table's width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkeletonSet(Arc<[u16]>);

impl SkeletonSet {
    /// Pack `skeletons`, each over `slots` slots, for the query whose
    /// canonical bytes are `query`.
    pub(crate) fn pack(query: &[u8], slots: usize, skeletons: &[Skeleton]) -> Self {
        let mut words = Vec::new();
        let len = query.len() as u32;
        words.extend([len as u16, (len >> 16) as u16]);
        words.extend(query.chunks(2).map(byte_pair));
        words.extend([slots as u16, skeletons.len() as u16]);
        let mut orders: Vec<Vec<&[u16]>> = vec![Vec::new(); slots];
        for sk in skeletons {
            let bits = sk.internal_cost.to_bits();
            words.extend((0..COST_WORDS).map(|i| (bits >> (16 * i)) as u16));
            for (known, order) in orders.iter_mut().zip(&sk.slot_orders) {
                let id = order.as_deref().map_or(0, |o| {
                    1 + known.iter().position(|k| *k == o).unwrap_or_else(|| {
                        known.push(o);
                        known.len() - 1
                    })
                });
                words.push(id as u16);
            }
        }
        for known in &orders {
            words.push(known.len() as u16);
            for o in known {
                words.push(o.len() as u16);
                words.extend_from_slice(o);
            }
        }
        SkeletonSet(words.into())
    }

    /// Whether the set was packed for the query whose canonical bytes are
    /// `query`.
    pub(crate) fn is_for(&self, query: &[u8]) -> bool {
        self.query_len() == query.len()
            && query
                .chunks(2)
                .map(byte_pair)
                .eq(self.0[2..self.head()].iter().copied())
    }

    fn query_len(&self) -> usize {
        self.0[0] as usize | (self.0[1] as usize) << 16
    }

    /// Where the slot count is: just past the query.
    fn head(&self) -> usize {
        2 + self.query_len().div_ceil(2)
    }

    /// Table slots of the query.
    pub fn slot_count(&self) -> usize {
        self.0[self.head()] as usize
    }

    /// Skeletons in the set.
    pub fn len(&self) -> usize {
        self.0[self.head() + 1] as usize
    }

    /// Whether the set has no skeleton (it always has one — the all-`None`
    /// skeleton — once the cache planned the query).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Skeleton `k`'s words: its cost bits, then its order ids.
    fn skeleton(&self, k: usize) -> &[u16] {
        let width = COST_WORDS + self.slot_count();
        let at = self.head() + 2 + k * width;
        &self.0[at..at + width]
    }

    /// Skeleton `k`'s internal cost.
    pub fn internal_cost(&self, k: usize) -> f64 {
        let bits = self.skeleton(k)[..COST_WORDS]
            .iter()
            .rev()
            .fold(0u64, |bits, &w| bits << 16 | u64::from(w));
        f64::from_bits(bits)
    }

    /// The id, in [`Self::orders`], of the order skeleton `k` needs from
    /// `slot`; `None` when any order will do.
    pub fn order_id(&self, k: usize, slot: usize) -> Option<usize> {
        (self.order_ids(k)[slot] as usize).checked_sub(1)
    }

    /// Skeleton `k`'s order per slot as stored: 0 where any order will do,
    /// `i + 1` for the slot's `i`-th order — a cost-matrix column.
    pub fn order_ids(&self, k: usize) -> &[u16] {
        &self.skeleton(k)[COST_WORDS..]
    }

    /// Each slot's distinct required orders, indexed by order id.
    pub fn orders(&self) -> Vec<Vec<&[u16]>> {
        let mut at = self.head() + 2 + self.len() * (COST_WORDS + self.slot_count());
        (0..self.slot_count())
            .map(|_| {
                let n = self.0[at] as usize;
                at += 1;
                (0..n)
                    .map(|_| {
                        let len = self.0[at] as usize;
                        at += 1 + len;
                        &self.0[at - len..at]
                    })
                    .collect()
            })
            .collect()
    }

    /// The skeletons unpacked, in set order.
    #[cfg(test)]
    pub(crate) fn to_skeletons(&self) -> Vec<Skeleton> {
        let orders = self.orders();
        (0..self.len())
            .map(|k| Skeleton {
                internal_cost: self.internal_cost(k),
                slot_orders: (0..self.slot_count())
                    .map(|s| self.order_id(k, s).map(|id| orders[s][id].to_vec()))
                    .collect(),
            })
            .collect()
    }
}

/// Two bytes as one word (a lone last byte padded with zero).
fn byte_pair(pair: &[u8]) -> u16 {
    u16::from_le_bytes([pair[0], pair.get(1).copied().unwrap_or(0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skeleton(internal_cost: f64, slot_orders: &[Option<&[u16]>]) -> Skeleton {
        Skeleton {
            internal_cost,
            slot_orders: slot_orders.iter().map(|o| o.map(<[u16]>::to_vec)).collect(),
        }
    }

    #[test]
    fn a_packed_set_unpacks_to_its_skeletons_with_orders_in_first_use_order() {
        let skeletons = vec![
            skeleton(12.5, &[None, None]),
            skeleton(9.25, &[Some(&[3, 1]), None]),
            skeleton(-0.0, &[Some(&[2]), Some(&[0])]),
            skeleton(f64::MAX, &[Some(&[3, 1]), Some(&[0])]),
        ];
        for query in [&b"odd"[..], b"even", b""] {
            let set = SkeletonSet::pack(query, 2, &skeletons);
            assert_eq!(set.to_skeletons(), skeletons);
            assert_eq!((set.len(), set.slot_count()), (4, 2));
            assert_eq!(set.orders(), vec![vec![&[3, 1][..], &[2]], vec![&[0][..]]]);
            assert_eq!(set.order_id(3, 0), Some(0));
            assert_eq!(set.order_id(0, 1), None);
            assert_eq!(set.internal_cost(2).to_bits(), (-0.0f64).to_bits());
            assert!(set.is_for(query));
            assert!(!set.is_for(b"odd\0") && !set.is_for(b"eve"));
        }
        let empty = SkeletonSet::pack(b"q", 3, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.orders(), vec![Vec::<&[u16]>::new(); 3]);
    }
}
