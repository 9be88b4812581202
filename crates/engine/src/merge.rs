//! The fold contract of the sharded runner.

use std::collections::BTreeMap;

/// A partial result that can absorb another partial result.
///
/// [`crate::shard::run_sharded`] folds shard outputs left-to-right in
/// **shard order**, so implementations only need `a.merge(b)` to behave as
/// "extend `a` with `b`'s observations". Count- and integer-based
/// implementations in this crate are exactly associative and commutative,
/// which is why the exhibit pipelines use them.
pub trait Mergeable {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Vectors merge by concatenation (shard-ordered record collection).
impl<T> Mergeable for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Maps merge key-wise.
impl<K: Ord, V: Mergeable> Mergeable for BTreeMap<K, V> {
    fn merge(&mut self, other: Self) {
        for (key, value) in other {
            match self.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().merge(value);
                }
            }
        }
    }
}

/// Log₂ histograms merge by adding bucket counts (exact; see `bb-trace`).
impl Mergeable for bb_trace::Log2Histogram {
    fn merge(&mut self, other: Self) {
        bb_trace::Log2Histogram::merge(self, other);
    }
}

/// Metric registries merge by adding counters and histogram buckets, so a
/// per-shard [`bb_trace::Registry`] can ride along in any accumulator
/// tuple and still fold shard-order-deterministically.
impl Mergeable for bb_trace::Registry {
    fn merge(&mut self, other: Self) {
        bb_trace::Registry::merge(self, other);
    }
}

impl<T: Mergeable> Mergeable for Option<T> {
    fn merge(&mut self, other: Self) {
        match (self.as_mut(), other) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => *self = Some(b),
            (_, None) => {}
        }
    }
}

macro_rules! impl_mergeable_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Mergeable),+> Mergeable for ($($name,)+) {
            fn merge(&mut self, other: Self) {
                $( self.$idx.merge(other.$idx); )+
            }
        }
    )+};
}

impl_mergeable_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_merge_concatenates_in_order() {
        let mut a = vec![1, 2];
        a.merge(vec![3, 4]);
        assert_eq!(a, vec![1, 2, 3, 4]);
    }

    #[test]
    fn map_merge_folds_values() {
        let mut a = BTreeMap::from([(1, vec!["x"]), (2, vec!["y"])]);
        Mergeable::merge(&mut a, BTreeMap::from([(2, vec!["z"]), (3, vec!["w"])]));
        assert_eq!(a[&1], vec!["x"]);
        assert_eq!(a[&2], vec!["y", "z"]);
        assert_eq!(a[&3], vec!["w"]);
    }
}
