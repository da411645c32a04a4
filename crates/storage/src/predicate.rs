//! Predicates over dictionary-encoded columns.
//!
//! Before a scan or an index lookup starts, the query's predicate is encoded
//! with vids (Section 5.2): for a range predicate the value boundaries are
//! replaced by a vid range through the dictionary; for more complex
//! predicates a list of qualifying vids is built — here compiled into sorted
//! runs of consecutive vids ([`VidRuns`]), the form the mask kernels take.

use crate::bitpack::low_mask;
use crate::dictionary::Dictionary;
use crate::value::DictValue;

/// An inclusive range of vids `[first, last]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VidRange {
    /// First qualifying vid.
    pub first: u32,
    /// Last qualifying vid (inclusive).
    pub last: u32,
}

impl VidRange {
    /// Number of vids in the range.
    pub fn count(&self) -> u64 {
        u64::from(self.last) - u64::from(self.first) + 1
    }

    /// Whether a vid falls in the range.
    pub fn contains(&self, vid: u32) -> bool {
        vid >= self.first && vid <= self.last
    }
}

/// A predicate over the values of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate<T: DictValue> {
    /// `value BETWEEN lo AND hi` (both inclusive), the shape used by every
    /// experiment in the paper (`COLx >= ? AND COLx <= ?`).
    Between {
        /// Inclusive lower bound.
        lo: T,
        /// Inclusive upper bound.
        hi: T,
    },
    /// `value = x`.
    Equals(T),
    /// `value IN (…)`.
    InList(Vec<T>),
}

/// The vid-encoded form of a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedPredicate {
    /// A contiguous vid range (fast path for scans).
    Range(VidRange),
    /// Qualifying vids spread over two or more runs, compiled once for the
    /// mask kernels (a list whose vids coalesce into one run is a `Range`).
    VidList(VidRuns),
    /// The predicate cannot match anything in this column.
    Empty,
}

/// Widest span (`last - first + 1` vids) of a [`VidRuns`] that carries a
/// membership bitmap: 8 KiB, cheap to build once per encode. Wider lists
/// answer probes by binary search over their runs instead.
pub const VID_BITMAP_MAX_SPAN: u64 = 1 << 16;

/// The qualifying vids of an `IN` list, compiled once at encode time: sorted,
/// disjoint runs of consecutive vids (adjacent vids coalesce), plus a
/// membership bitmap relative to the list's first vid when the span is at
/// most [`VID_BITMAP_MAX_SPAN`] vids.
///
/// The mask kernels decide membership of a window's lanes from this: they OR
/// one lane test per run when the runs are few, and otherwise probe each
/// lane's code against the bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VidRuns {
    /// Ascending, disjoint and non-adjacent.
    runs: Vec<VidRange>,
    /// Vids the runs cover.
    count: u64,
    /// Bit `vid - runs[0].first` is set iff `vid` qualifies. Only built for
    /// lists of three or more runs: the kernels OR the run tests of anything
    /// up to the two lanes of the widest bitcase, so smaller lists never
    /// probe.
    bitmap: Option<Vec<u64>>,
}

impl VidRuns {
    /// Compiles a list of vids (any order, duplicates allowed).
    pub fn from_vids(vids: impl IntoIterator<Item = u32>) -> VidRuns {
        let mut vids: Vec<u32> = vids.into_iter().collect();
        vids.sort_unstable();
        vids.dedup();
        let mut runs: Vec<VidRange> = Vec::new();
        for vid in vids {
            match runs.last_mut() {
                // Sorted and distinct, so `vid > run.last` and the difference
                // cannot overflow, even at `u32::MAX`.
                Some(run) if vid - run.last == 1 => run.last = vid,
                _ => runs.push(VidRange { first: vid, last: vid }),
            }
        }
        let count = runs.iter().map(VidRange::count).sum();
        let bitmap = match (runs.first(), runs.last()) {
            (Some(first), Some(last))
                if runs.len() > 2
                    && VidRange { first: first.first, last: last.last }.count()
                        <= VID_BITMAP_MAX_SPAN =>
            {
                let base = first.first;
                // One zero word past the span: the kernels clamp codes
                // outside the span onto it.
                let mut words = vec![0u64; ((last.last - base) as usize >> 6) + 2];
                for run in &runs {
                    let (mut lo, hi) = ((run.first - base) as usize, (run.last - base) as usize);
                    while lo <= hi {
                        let word_end = (lo | 63).min(hi);
                        words[lo >> 6] |= low_mask((word_end - lo + 1) as u32) << (lo & 63);
                        lo = word_end + 1;
                    }
                }
                Some(words)
            }
            _ => None,
        };
        VidRuns { runs, count, bitmap }
    }

    /// The runs, ascending.
    pub(crate) fn runs(&self) -> &[VidRange] {
        &self.runs
    }

    /// Number of qualifying vids.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The tightest vid range covering every qualifying vid, if any.
    pub(crate) fn bounds(&self) -> Option<VidRange> {
        Some(VidRange { first: self.runs.first()?.first, last: self.runs.last()?.last })
    }

    /// Whether a vid qualifies: one bitmap probe, or a binary search over the
    /// runs when the list is too wide for a bitmap.
    #[inline]
    pub(crate) fn contains(&self, vid: u32) -> bool {
        if !self.bounds().is_some_and(|b| b.contains(vid)) {
            return false;
        }
        match &self.bitmap {
            Some(words) => {
                let offset = (vid - self.runs[0].first) as usize;
                words[offset >> 6] >> (offset & 63) & 1 == 1
            }
            None => self.runs[self.runs.partition_point(|r| r.last < vid)].first <= vid,
        }
    }

    /// The membership bitmap and the vid its bit 0 stands for, if built.
    pub(crate) fn span_bitmap(&self) -> Option<(u32, &[u64])> {
        Some((self.runs.first()?.first, self.bitmap.as_deref()?))
    }

    /// Number of qualifying vids inside `[min, max]`.
    pub(crate) fn count_within(&self, min: u32, max: u32) -> u64 {
        let first = self.runs.partition_point(|r| r.last < min);
        self.runs[first..]
            .iter()
            .take_while(|r| r.first <= max)
            .map(|r| u64::from(r.last.min(max)) - u64::from(r.first.max(min)) + 1)
            .sum()
    }
}

impl EncodedPredicate {
    /// The encoded form of a vid list: `Empty` when it names no vid, a
    /// `Range` when its vids coalesce into one run, compiled runs otherwise.
    pub fn from_vids(vids: impl IntoIterator<Item = u32>) -> EncodedPredicate {
        let runs = VidRuns::from_vids(vids);
        match runs.runs() {
            [] => EncodedPredicate::Empty,
            [run] => EncodedPredicate::Range(*run),
            _ => EncodedPredicate::VidList(runs),
        }
    }

    /// Number of distinct qualifying vids.
    pub fn vid_count(&self) -> u64 {
        match self {
            EncodedPredicate::Range(r) => r.count(),
            EncodedPredicate::VidList(v) => v.count(),
            EncodedPredicate::Empty => 0,
        }
    }

    /// Whether a vid qualifies.
    pub fn matches(&self, vid: u32) -> bool {
        match self {
            EncodedPredicate::Range(r) => r.contains(vid),
            EncodedPredicate::VidList(v) => v.contains(vid),
            EncodedPredicate::Empty => false,
        }
    }

    /// The tightest vid range covering every qualifying vid, if any.
    pub fn bounding_range(&self) -> Option<VidRange> {
        match self {
            EncodedPredicate::Range(r) => Some(*r),
            EncodedPredicate::VidList(v) => v.bounds(),
            EncodedPredicate::Empty => None,
        }
    }

    /// The bounding range clipped to the codes a `bits`-bit lane can hold;
    /// `None` when no such code qualifies (an inverted range, or every vid
    /// beyond the bitcase). The kernels' shared short-circuit.
    pub(crate) fn lane_bounds(&self, bits: u8) -> Option<VidRange> {
        let lane_max = low_mask(u32::from(bits)) as u32;
        let r = self.bounding_range()?;
        (r.first <= r.last && r.first <= lane_max)
            .then(|| VidRange { first: r.first, last: r.last.min(lane_max) })
    }
}

impl<T: DictValue> Predicate<T> {
    /// Encodes the predicate against a dictionary.
    pub fn encode(&self, dict: &Dictionary<T>) -> EncodedPredicate {
        match self {
            Predicate::Between { lo, hi } => match dict.encode_range(lo, hi) {
                Some(r) => EncodedPredicate::Range(r),
                None => EncodedPredicate::Empty,
            },
            Predicate::Equals(v) => match dict.lookup(v) {
                Some(vid) => EncodedPredicate::Range(VidRange { first: vid, last: vid }),
                None => EncodedPredicate::Empty,
            },
            Predicate::InList(values) => {
                EncodedPredicate::from_vids(values.iter().filter_map(|v| dict.lookup(v)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Dictionary<i64> {
        Dictionary::from_values((0..1000).collect())
    }

    #[test]
    fn between_encodes_to_vid_range() {
        let d = dict();
        let p = Predicate::Between { lo: 100, hi: 199 };
        match p.encode(&d) {
            EncodedPredicate::Range(r) => {
                assert_eq!(r.first, 100);
                assert_eq!(r.last, 199);
                assert_eq!(r.count(), 100);
            }
            other => panic!("expected a range, got {other:?}"),
        }
    }

    #[test]
    fn equals_encodes_to_single_vid() {
        let d = dict();
        let p = Predicate::Equals(42);
        assert_eq!(p.encode(&d).vid_count(), 1);
        let missing = Predicate::Equals(5000);
        assert_eq!(missing.encode(&d), EncodedPredicate::Empty);
    }

    #[test]
    fn in_list_encodes_sorted_coalesced_runs() {
        let d = dict();
        let p = Predicate::InList(vec![7, 3, 7, 9999, 8, 4, 20]);
        match p.encode(&d) {
            EncodedPredicate::VidList(v) => {
                let runs: Vec<(u32, u32)> = v.runs().iter().map(|r| (r.first, r.last)).collect();
                assert_eq!(runs, vec![(3, 4), (7, 8), (20, 20)]);
                assert_eq!(v.count(), 5);
            }
            other => panic!("expected a vid list, got {other:?}"),
        }
        // Vids that coalesce into one run are a range.
        let p = Predicate::InList(vec![12, 10, 11, 11]);
        assert_eq!(p.encode(&d), EncodedPredicate::Range(VidRange { first: 10, last: 12 }));
        assert_eq!(Predicate::InList(vec![5000]).encode(&d), EncodedPredicate::Empty);
    }

    #[test]
    fn encoded_predicate_matches_and_bounds() {
        let r = EncodedPredicate::Range(VidRange { first: 5, last: 9 });
        assert!(r.matches(5) && r.matches(9) && !r.matches(10));
        assert_eq!(r.bounding_range().unwrap().count(), 5);

        let l = EncodedPredicate::from_vids([2, 8]);
        assert!(l.matches(8) && !l.matches(5));
        assert_eq!(l.bounding_range(), Some(VidRange { first: 2, last: 8 }));

        assert_eq!(EncodedPredicate::Empty.bounding_range(), None);
        assert!(!EncodedPredicate::Empty.matches(0));
    }

    #[test]
    fn vid_runs_probe_a_bitmap_only_below_the_span_bound() {
        let narrow = VidRuns::from_vids([3, 7, 500, 501, 502, 6399]);
        assert!(narrow.bitmap.is_some());
        let wide = VidRuns::from_vids([1, 2, 9, VID_BITMAP_MAX_SPAN as u32 + 9]);
        assert!(wide.bitmap.is_none());
        // Two runs never probe (every bitcase has at least two lanes to OR).
        assert!(VidRuns::from_vids([3, 6399]).bitmap.is_none());
        let at_top = VidRuns::from_vids([u32::MAX - 64, u32::MAX - 3, u32::MAX - 1, u32::MAX]);
        assert!(at_top.bitmap.is_some());
        assert_eq!(at_top.count(), 4);
        for runs in [&narrow, &wide, &at_top] {
            let bounds = runs.bounds().unwrap();
            let near = |v: u32| [v.saturating_sub(1), v, v.saturating_add(1)];
            let probes = [0, 1, 2, 3, 7, 8, 63, 64, 499, 503, 6398, 6399, 6400]
                .into_iter()
                .chain(near(bounds.first))
                .chain(near(bounds.last))
                .chain(near(VID_BITMAP_MAX_SPAN as u32 + 9))
                .chain([u32::MAX - 65, u32::MAX - 64, u32::MAX - 2]);
            for vid in probes {
                let expected = runs.runs().iter().any(|r| r.contains(vid));
                assert_eq!(runs.contains(vid), expected, "{runs:?} vid {vid}");
            }
        }
    }

    #[test]
    fn counts_within_bounds_clip_runs() {
        let runs = VidRuns::from_vids([0, 1, 2, 10, 20, 21, u32::MAX]);
        assert_eq!(runs.count(), 7);
        assert_eq!(runs.count_within(1, 20), 4);
        assert_eq!(runs.count_within(3, 9), 0);
        assert_eq!(runs.count_within(0, u32::MAX), 7);
        assert_eq!(runs.count_within(u32::MAX, u32::MAX), 1);
        assert_eq!(VidRuns::from_vids([]).count_within(0, u32::MAX), 0);
    }

    #[test]
    fn lane_bounds_clip_to_the_bitcase() {
        let list = EncodedPredicate::from_vids([3, 200, 300]);
        assert_eq!(list.lane_bounds(8), Some(VidRange { first: 3, last: 255 }));
        assert_eq!(list.lane_bounds(1), None);
        let inverted = EncodedPredicate::Range(VidRange { first: 9, last: 2 });
        assert_eq!(inverted.lane_bounds(32), None);
        assert_eq!(EncodedPredicate::Empty.lane_bounds(32), None);
    }
}
