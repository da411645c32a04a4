//! Sorted dictionaries for dictionary encoding.
//!
//! The dictionary stores the sorted distinct values of a column. The position
//! of a value inside the dictionary is its *value identifier* (vid); because
//! the dictionary is sorted, order-based predicates (`<`, `<=`, `BETWEEN`…)
//! can be evaluated directly on vids without touching the real values.

use crate::predicate::VidRange;
use crate::value::DictValue;

/// A sorted dictionary of distinct values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary<T: DictValue> {
    values: Vec<T>,
}

impl<T: DictValue> Dictionary<T> {
    /// Builds a dictionary from arbitrary (possibly duplicated, unsorted)
    /// values.
    pub fn from_values(mut values: Vec<T>) -> Self {
        values.sort();
        values.dedup();
        // The input holds one value per row; keep only the distinct ones.
        values.shrink_to_fit();
        Dictionary { values }
    }

    /// Builds a dictionary from values that are already sorted and distinct.
    ///
    /// # Panics
    /// Panics in debug builds if the input is not strictly increasing.
    pub fn from_sorted_distinct(values: Vec<T>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must be sorted and distinct");
        Dictionary { values }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The smallest number of bits (the *bitcase*) needed to store any vid of
    /// this dictionary.
    pub fn bitcase(&self) -> u8 {
        crate::bitpack::bits_for_max_value(self.len().saturating_sub(1) as u64)
    }

    /// The value for a vid.
    ///
    /// # Panics
    /// Panics if `vid` is out of range.
    pub fn value(&self, vid: u32) -> &T {
        &self.values[vid as usize]
    }

    /// The value for a vid, if in range.
    pub fn get(&self, vid: u32) -> Option<&T> {
        self.values.get(vid as usize)
    }

    /// Binary-searches a value, returning its vid if present.
    pub fn lookup(&self, value: &T) -> Option<u32> {
        self.values.binary_search(value).ok().map(|i| i as u32)
    }

    /// The vid of the first value `>= value` (i.e. the lower bound).
    pub fn lower_bound(&self, value: &T) -> u32 {
        self.values.partition_point(|v| v < value) as u32
    }

    /// The vid of the first value `> value` (i.e. the upper bound).
    pub fn upper_bound(&self, value: &T) -> u32 {
        self.values.partition_point(|v| v <= value) as u32
    }

    /// Translates an inclusive value range `[lo, hi]` into an inclusive vid
    /// range, or `None` if no stored value falls inside it.
    pub fn encode_range(&self, lo: &T, hi: &T) -> Option<VidRange> {
        if lo > hi || self.values.is_empty() {
            return None;
        }
        let first = self.lower_bound(lo);
        let last = self.upper_bound(hi);
        if first >= last {
            None
        } else {
            Some(VidRange { first, last: last - 1 })
        }
    }

    /// Iterates over the sorted values.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }

    /// Approximate memory footprint of the dictionary in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.values.iter().map(|v| v.value_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Dictionary<i64> {
        Dictionary::from_values(vec![30, 10, 20, 10, 40, 30])
    }

    #[test]
    fn from_values_sorts_and_dedups() {
        let d = dict();
        assert_eq!(d.len(), 4);
        let vals: Vec<i64> = d.iter().copied().collect();
        assert_eq!(vals, vec![10, 20, 30, 40]);
        // One value per row goes in; only the distinct ones stay allocated.
        let d = Dictionary::from_values((0..100_000i64).map(|i| i % 7).collect());
        assert!(d.values.capacity() < 100, "capacity {}", d.values.capacity());
    }

    #[test]
    fn lookup_returns_vid_of_existing_value() {
        let d = dict();
        assert_eq!(d.lookup(&10), Some(0));
        assert_eq!(d.lookup(&40), Some(3));
        assert_eq!(d.lookup(&25), None);
    }

    #[test]
    fn value_roundtrips_lookup() {
        let d = dict();
        for vid in 0..d.len() as u32 {
            assert_eq!(d.lookup(d.value(vid)), Some(vid));
        }
    }

    #[test]
    fn encode_range_clamps_to_existing_values() {
        let d = dict();
        assert_eq!(d.encode_range(&15, &35), Some(VidRange { first: 1, last: 2 }));
        assert_eq!(d.encode_range(&10, &10), Some(VidRange { first: 0, last: 0 }));
        assert_eq!(d.encode_range(&0, &100), Some(VidRange { first: 0, last: 3 }));
        assert_eq!(d.encode_range(&21, &29), None);
        assert_eq!(d.encode_range(&50, &60), None);
        assert_eq!(d.encode_range(&35, &15), None, "inverted bounds select nothing");
    }

    #[test]
    fn bitcase_covers_all_vids() {
        let d = Dictionary::from_values((0..100i64).collect());
        assert_eq!(d.bitcase(), 7); // 100 values -> vids 0..=99 -> 7 bits
        let d1 = Dictionary::from_values(vec![42i64]);
        assert_eq!(d1.bitcase(), 1);
    }

    #[test]
    fn string_dictionary_orders_lexicographically() {
        let d = Dictionary::from_values(vec![
            "Carl".to_string(),
            "Anna".to_string(),
            "Emma".to_string(),
            "Bree".to_string(),
            "Evie".to_string(),
        ]);
        assert_eq!(d.value(0), "Anna");
        assert_eq!(d.value(4), "Evie");
        assert_eq!(
            d.encode_range(&"B".to_string(), &"D".to_string()),
            Some(VidRange { first: 1, last: 2 })
        );
        assert!(d.memory_bytes() > 5 * std::mem::size_of::<String>());
    }

    #[test]
    fn empty_dictionary_behaves() {
        let d: Dictionary<i64> = Dictionary::from_values(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.encode_range(&0, &10), None);
        assert_eq!(d.lookup(&0), None);
    }
}
