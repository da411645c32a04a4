//! Per-zone small materialized aggregates over an index vector.
//!
//! A [`ZoneMap`] divides a column's rows into fixed-size zones and records,
//! per zone, the minimum and maximum vid plus the number of value runs. Scans
//! consult it before touching the index vector: a `Between` predicate whose
//! vid range misses a row range's [`VidBounds`] entirely can skip that range —
//! whole physical partitions, in the engine — without reading a single code.
//! The run counts feed the layout advisor (run fraction ≈ how well RLE would
//! compress) and the bounds sharpen selectivity estimates for output
//! pre-sizing.
//!
//! Bounds returned for a row range are *conservative supersets*: zones are
//! folded at zone granularity, so a range overlapping a zone inherits the
//! whole zone's bounds. Pruning on a superset is always sound.

use crate::predicate::EncodedPredicate;

/// Rows per zone. Small enough that partition-granularity queries (the
/// engine's parts are tens of thousands of rows) see tight bounds, large
/// enough that the map stays a negligible fraction of the column.
pub const ZONE_ROWS: usize = 4096;

/// Inclusive vid bounds of a row range, folded from the zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VidBounds {
    /// Smallest vid occurring in the covered rows (conservative).
    pub min: u32,
    /// Largest vid occurring in the covered rows (conservative).
    pub max: u32,
}

impl VidBounds {
    /// Number of vids the bounds span.
    pub fn width(&self) -> u64 {
        u64::from(self.max) - u64::from(self.min) + 1
    }

    /// Whether any vid the predicate can match falls inside the bounds.
    /// `false` means a scan of the covered rows is guaranteed empty.
    pub fn overlaps(&self, predicate: &EncodedPredicate) -> bool {
        match predicate {
            EncodedPredicate::Empty => false,
            EncodedPredicate::Range(r) => r.first <= self.max && r.last >= self.min,
            EncodedPredicate::VidList(vids) => vids.count_within(self.min, self.max) > 0,
        }
    }

    /// Number of the predicate's qualifying vids that fall inside the bounds.
    pub fn qualifying_vids(&self, predicate: &EncodedPredicate) -> u64 {
        match predicate {
            EncodedPredicate::Empty => 0,
            EncodedPredicate::Range(r) => {
                if r.first > self.max || r.last < self.min {
                    0
                } else {
                    u64::from(r.last.min(self.max)) - u64::from(r.first.max(self.min)) + 1
                }
            }
            EncodedPredicate::VidList(vids) => vids.count_within(self.min, self.max),
        }
    }
}

/// Per-zone aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Zone {
    min_vid: u32,
    max_vid: u32,
    /// Number of equal-value runs inside the zone (>= 1 when non-empty).
    runs: u32,
    /// Rows in the zone (== [`ZONE_ROWS`] except possibly the last).
    rows: u32,
}

/// Min/max-vid and run-count aggregates per fixed-size zone of rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneMap {
    zones: Vec<Zone>,
    rows: usize,
}

impl ZoneMap {
    /// Builds the map in one pass over the column's codes.
    pub fn from_codes(codes: impl Iterator<Item = u32>) -> Self {
        let mut b = ZoneMapBuilder::new();
        for vid in codes {
            b.push(vid);
        }
        b.finish()
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Total rows covered.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Memory footprint of the zone table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.zones.len() * std::mem::size_of::<Zone>()
    }

    /// Zones overlapping a clamped row range, as an index range.
    fn zone_span(&self, rows: &std::ops::Range<usize>) -> std::ops::Range<usize> {
        let first = rows.start / ZONE_ROWS;
        let last = rows.end.div_ceil(ZONE_ROWS).min(self.zones.len());
        first.min(last)..last
    }

    /// Conservative vid bounds of a row range (`None` when the clamped range
    /// is empty). Folded at zone granularity: always a superset of the true
    /// bounds, so pruning against the result is sound.
    pub fn bounds(&self, rows: std::ops::Range<usize>) -> Option<VidBounds> {
        let end = rows.end.min(self.rows);
        let start = rows.start.min(end);
        if start == end {
            return None;
        }
        let mut out: Option<VidBounds> = None;
        for z in &self.zones[self.zone_span(&(start..end))] {
            out = Some(match out {
                None => VidBounds { min: z.min_vid, max: z.max_vid },
                Some(b) => VidBounds { min: b.min.min(z.min_vid), max: b.max.max(z.max_vid) },
            });
        }
        out
    }

    /// Fraction of rows starting a new equal-value run over the zones
    /// overlapping the row range — ~1.0 for random data (RLE would explode),
    /// near 0 for sorted/clustered data (RLE compresses well). Returns 1.0
    /// for an empty range (the conservative "do not compress" answer).
    pub fn run_fraction(&self, rows: std::ops::Range<usize>) -> f64 {
        let end = rows.end.min(self.rows);
        let start = rows.start.min(end);
        if start == end {
            return 1.0;
        }
        let mut runs = 0u64;
        let mut covered = 0u64;
        for z in &self.zones[self.zone_span(&(start..end))] {
            runs += u64::from(z.runs);
            covered += u64::from(z.rows);
        }
        if covered == 0 {
            1.0
        } else {
            runs as f64 / covered as f64
        }
    }

    /// Zone-informed selectivity estimate for a predicate over a row range:
    /// the predicate's qualifying vids clipped to the range's bounds, over
    /// the width of those bounds. Much sharper than the uniform
    /// whole-dictionary default on partitioned or clustered data, where a
    /// row range sees only a narrow vid band. `None` when the map is empty
    /// or the range holds no rows.
    pub fn estimate_selectivity(
        &self,
        rows: std::ops::Range<usize>,
        predicate: &EncodedPredicate,
    ) -> Option<f64> {
        let bounds = self.bounds(rows)?;
        Some(bounds.qualifying_vids(predicate) as f64 / bounds.width() as f64)
    }
}

/// Incremental [`ZoneMap`] builder: push vids in row order, then `finish`.
#[derive(Debug, Clone, Default)]
pub struct ZoneMapBuilder {
    zones: Vec<Zone>,
    current: Option<Zone>,
    last_vid: u32,
    rows: usize,
}

impl ZoneMapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the vid of the next row.
    pub fn push(&mut self, vid: u32) {
        let new_run = match &self.current {
            Some(_) => self.last_vid != vid,
            None => true,
        };
        let zone =
            self.current.get_or_insert(Zone { min_vid: vid, max_vid: vid, runs: 0, rows: 0 });
        zone.min_vid = zone.min_vid.min(vid);
        zone.max_vid = zone.max_vid.max(vid);
        zone.runs += u32::from(new_run);
        zone.rows += 1;
        self.last_vid = vid;
        self.rows += 1;
        if zone.rows as usize == ZONE_ROWS {
            self.zones.push(self.current.take().expect("zone in progress"));
        }
    }

    /// Seals the map.
    pub fn finish(mut self) -> ZoneMap {
        if let Some(zone) = self.current.take() {
            self.zones.push(zone);
        }
        ZoneMap { zones: self.zones, rows: self.rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::VidRange;

    fn range(first: u32, last: u32) -> EncodedPredicate {
        EncodedPredicate::Range(VidRange { first, last })
    }

    #[test]
    fn bounds_are_exact_per_zone_and_conservative_across_zones() {
        // Sorted codes: zone z holds vids [z * ZONE_ROWS, ...].
        let n = 3 * ZONE_ROWS + 100;
        let map = ZoneMap::from_codes((0..n).map(|i| i as u32));
        assert_eq!(map.zone_count(), 4);
        assert_eq!(map.row_count(), n);
        let b = map.bounds(0..ZONE_ROWS).unwrap();
        assert_eq!((b.min, b.max), (0, ZONE_ROWS as u32 - 1));
        // A range clipped inside one zone still reports the whole zone.
        let b = map.bounds(10..20).unwrap();
        assert_eq!((b.min, b.max), (0, ZONE_ROWS as u32 - 1));
        // Folding across zones widens.
        let b = map.bounds(0..2 * ZONE_ROWS).unwrap();
        assert_eq!((b.min, b.max), (0, 2 * ZONE_ROWS as u32 - 1));
        assert!(map.bounds(5..5).is_none());
        assert!(map.bounds(n..n + 50).is_none());
    }

    #[test]
    fn overlap_decides_pruning_for_every_predicate_shape() {
        let map = ZoneMap::from_codes((0..2 * ZONE_ROWS).map(|i| (i / ZONE_ROWS) as u32 * 1000));
        let zone0 = map.bounds(0..ZONE_ROWS).unwrap(); // vids {0}
        let zone1 = map.bounds(ZONE_ROWS..2 * ZONE_ROWS).unwrap(); // vids {1000}
        assert!(zone0.overlaps(&range(0, 5)));
        assert!(!zone1.overlaps(&range(0, 5)));
        assert!(zone1.overlaps(&range(500, 2000)));
        let list = EncodedPredicate::from_vids([3, 999, 1001]);
        assert!(!zone1.overlaps(&list), "no listed vid hits [1000, 1000]");
        assert!(zone0.overlaps(&EncodedPredicate::from_vids([0, 7])));
        assert!(!zone0.overlaps(&EncodedPredicate::Empty));
    }

    #[test]
    fn run_fraction_separates_sorted_from_random_data() {
        let sorted = ZoneMap::from_codes((0..20_000).map(|i| (i / 500) as u32));
        assert!(sorted.run_fraction(0..20_000) < 0.01);
        let random = ZoneMap::from_codes(
            (0..20_000u32).map(|i| i.wrapping_mul(2654435761).rotate_left(7) & 0xff),
        );
        assert!(random.run_fraction(0..20_000) > 0.9);
        assert_eq!(sorted.run_fraction(7..7), 1.0, "empty range is conservative");
    }

    #[test]
    fn selectivity_estimates_use_local_bounds_not_the_whole_domain() {
        // Sorted column split notionally in 4: each quarter sees 1/4 of vids.
        let n = 4 * ZONE_ROWS;
        let map = ZoneMap::from_codes((0..n).map(|i| i as u32));
        // A predicate covering exactly the first quarter: local selectivity 1.
        let est = map.estimate_selectivity(0..ZONE_ROWS, &range(0, ZONE_ROWS as u32 - 1)).unwrap();
        assert!((est - 1.0).abs() < 1e-9);
        // The same predicate against the last quarter: nothing qualifies.
        let est =
            map.estimate_selectivity(3 * ZONE_ROWS..n, &range(0, ZONE_ROWS as u32 - 1)).unwrap();
        assert_eq!(est, 0.0);
        assert!(map.estimate_selectivity(5..5, &range(0, 10)).is_none());
        // Vid lists count only the vids inside the local bounds.
        let list = EncodedPredicate::from_vids([1, 2, 100_000]);
        let est = map.estimate_selectivity(0..ZONE_ROWS, &list).unwrap();
        assert!((est - 2.0 / ZONE_ROWS as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_map_answers_safely() {
        let map = ZoneMap::from_codes(std::iter::empty());
        assert_eq!(map.zone_count(), 0);
        assert!(map.bounds(0..100).is_none());
        assert_eq!(map.run_fraction(0..100), 1.0);
        assert!(map.estimate_selectivity(0..100, &range(0, 10)).is_none());
    }

    #[test]
    fn bitcase_32_bounds_do_not_overflow() {
        // The estimate path feeds group-table and position pre-sizing, so
        // its arithmetic must survive the full u32 vid domain: with 32-bit
        // math, `width()` of [0, u32::MAX] wraps to 0 and the estimate
        // divides by zero. Everything widens to u64 instead.
        let full = VidBounds { min: 0, max: u32::MAX };
        assert_eq!(full.width(), 1 << 32);
        assert_eq!(full.qualifying_vids(&range(0, u32::MAX)), 1 << 32);
        assert!(full.overlaps(&range(u32::MAX, u32::MAX)));
        assert_eq!(VidRange { first: 0, last: u32::MAX }.count(), 1 << 32);

        // A zone map whose codes span the whole domain estimates exactly
        // 1.0 for the all-covering predicate — not NaN, not a panic.
        let map = ZoneMap::from_codes([0u32, u32::MAX].into_iter());
        let est = map.estimate_selectivity(0..2, &range(0, u32::MAX)).unwrap();
        assert_eq!(est, 1.0);
        // And the one-past-the-end vid of a single-value bound stays exact.
        let point = VidBounds { min: u32::MAX, max: u32::MAX };
        assert_eq!(point.width(), 1);
        assert_eq!(point.qualifying_vids(&range(0, u32::MAX)), 1);
    }
}
