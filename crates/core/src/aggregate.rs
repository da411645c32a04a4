//! NUMA-aware aggregation pipelines fused with the scan kernels (the "from
//! scans to OLAP" step: TPC-H Q1/Q6-class queries on the paper's engine).
//!
//! The design follows the coordinator-merge pattern of the compiled-query
//! cluster OLAP line of work referenced in PAPERS.md: every scan task
//! accumulates qualifying rows into a **private, dense partial table** on the
//! socket where its part lives, and the partials are merged in a
//! deterministic part-order reduce by the statement's issuing thread (or, one
//! tier up, per-shard partials are merged by the cluster coordinator).
//!
//! Fusion is the point. The accumulators consume the SWAR kernels'
//! *mask-stream* contract ([`accumulate_filtered`] drives
//! `IndexVector::scan_masks` directly) — no position list is materialized
//! and no value vector is built. The shared scan path reuses the same
//! machinery over the sweep's chunk match lists ([`accumulate_positions`]),
//! so one cooperative sweep serves scan and aggregate waiters from the same
//! mask stream.
//!
//! **One window fold.** Both entry points hand their matches over in 64-row
//! windows, one match word each. A window with at least a quarter of its
//! rows matched decodes the rows from its first match to its last
//! contiguously from the value and group columns (`RowDecoder`: on the
//! `avx512` tier 16 codes per 64-byte load and shift, a run cursor on the
//! run-length layout); a sparser window's matches are gathered a batch at a
//! time (`IndexVector::gather`). The codes then go one of two ways:
//!
//! * **Folding rows.** A match's value is looked up in the dictionary and
//!   folded into its group slot (an ungrouped batch reduces in registers
//!   first). Every call starts here, and ungrouped calls (Q6) and domains of
//!   more than [`COUNT_CELL_LIMIT`] cells stay here.
//! * **Counting cells.** Once a grouped call has folded as many matches as
//!   the value dictionary's cardinality times the group slots (at most
//!   [`COUNT_CELL_LIMIT`]), a match costs one increment of its (group vid,
//!   value vid) cell — no dictionary lookup, no compare. The cells flush
//!   into the accumulator once per call: `count += c`, `sum += c × value`
//!   (exact under the pinned wrapping sum), min and max from the smallest
//!   and largest counted vid (the dictionary is sorted). TPC-H Q1's 3 ×
//!   50 cells switch after its first 150 matches.
//!
//! The switch reads the two dictionary cardinalities and the matches folded
//! so far, never an estimate, and it bounds the flush by the matches: a
//! selective call over a few thousand values never allocates cells it
//! would barely fill.
//!
//! **Sizing.** The dense partial table is indexed by the group column's
//! *vid*, so its capacity is clamped by the group dictionary's cardinality —
//! never derived from a selectivity estimate (whose empty-domain and
//! bitcase-32 edges are exactly the kind of input that must not size an
//! allocation).
//!
//! **Overflow semantics (pinned).** `Sum` and the sum half of `Avg` use
//! `i64::wrapping_add` — two's-complement wrapping, the same result in any
//! accumulation order, which keeps partial merges associative and replays
//! byte-identical. This is pinned by tests; checked/saturating variants were
//! rejected because they make the merged result depend on partial boundaries.

use std::collections::BTreeMap;
use std::ops::Range;

use numascan_storage::{DictColumn, EncodedPredicate, Predicate, RowDecoder, Table};

/// One aggregate function over the value column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` of the qualifying rows (per group).
    Count,
    /// `SUM(value)` with pinned wrapping i64 semantics.
    Sum,
    /// `MIN(value)`; `NULL` for an empty group.
    Min,
    /// `MAX(value)`; `NULL` for an empty group.
    Max,
    /// `AVG(value)`, carried as a mergeable `(sum, count)` partial and only
    /// divided down at [`AggTable::finalize`].
    Avg,
}

/// The aggregation half of a statement: which column to aggregate, the
/// functions to compute, and an optional low-cardinality group-by column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    /// The column whose values feed the aggregate functions.
    pub value_column: String,
    /// Dictionary-encoded column to group by (`None` = one global group).
    pub group_by: Option<String>,
    /// The functions to compute, in output order.
    pub funcs: Vec<AggFunc>,
}

impl AggSpec {
    /// Aggregates `value_column` with `funcs` over all qualifying rows.
    pub fn new(value_column: impl Into<String>, funcs: Vec<AggFunc>) -> Self {
        AggSpec { value_column: value_column.into(), group_by: None, funcs }
    }

    /// Groups the aggregation by a (low-cardinality) dictionary column.
    pub fn with_group_by(mut self, column: impl Into<String>) -> Self {
        self.group_by = Some(column.into());
        self
    }
}

/// A typed merge failure: the partials cannot be combined without producing
/// a wrong number, so no number is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggError {
    /// The two partials carry incompatible states — most importantly an
    /// average that was already finalized (divided down, its count gone):
    /// merging it with anything would silently mis-weight the result.
    NotMergeable(&'static str),
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::NotMergeable(why) => write!(f, "partial aggregates not mergeable: {why}"),
        }
    }
}

impl std::error::Error for AggError {}

/// One aggregate state cell: the *partial* (mergeable) forms plus the
/// finalized average. Integer-only so partial tables stay `Eq`/hashable on
/// the cluster wire; the finalized average stores `f64` bits for the same
/// reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggState {
    /// Qualifying row count.
    Count(u64),
    /// Wrapping i64 sum.
    Sum(i64),
    /// Minimum (`None` = empty group).
    Min(Option<i64>),
    /// Maximum (`None` = empty group).
    Max(Option<i64>),
    /// Mergeable average partial: the sum and the count it covers.
    Avg {
        /// Wrapping i64 sum of the group's values.
        sum: i64,
        /// Rows the sum covers.
        count: u64,
    },
    /// A finalized average (`sum / count` already divided; stored as the
    /// `f64`'s bits, `None` = empty group). **Not mergeable**: its count is
    /// gone, so combining it with any other partial would mis-weight the
    /// result — [`AggState::merge`] returns [`AggError::NotMergeable`].
    AvgFinal(Option<u64>),
}

impl AggState {
    /// The identity (empty-group) state of a function.
    pub fn identity(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0, count: 0 },
        }
    }

    /// A finalized average from its float value.
    pub fn avg_final(value: Option<f64>) -> Self {
        AggState::AvgFinal(value.map(f64::to_bits))
    }

    /// Merges another partial of the same function into this one.
    pub fn merge(&mut self, other: &AggState) -> Result<(), AggError> {
        match (&mut *self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a = a.wrapping_add(*b),
            (AggState::Min(a), AggState::Min(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s, count: c }) => {
                *sum = sum.wrapping_add(*s);
                *count += c;
            }
            (AggState::AvgFinal(_), _) | (_, AggState::AvgFinal(_)) => {
                return Err(AggError::NotMergeable("an average without its count"));
            }
            _ => return Err(AggError::NotMergeable("mismatched aggregate states")),
        }
        Ok(())
    }

    /// The finalized output cell of this state.
    pub fn value(&self) -> AggValue {
        match self {
            AggState::Count(n) => AggValue::Int(*n as i64),
            AggState::Sum(s) => AggValue::Int(*s),
            AggState::Min(v) | AggState::Max(v) => v.map_or(AggValue::Null, AggValue::Int),
            AggState::Avg { count: 0, .. } => AggValue::Null,
            AggState::Avg { sum, count } => AggValue::Float(*sum as f64 / *count as f64),
            AggState::AvgFinal(bits) => {
                bits.map_or(AggValue::Null, |b| AggValue::Float(f64::from_bits(b)))
            }
        }
    }
}

/// A finalized output cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// An integer result (count, sum, min, max).
    Int(i64),
    /// A float result (avg).
    Float(f64),
    /// An empty group's min/max/avg.
    Null,
}

/// An aggregate result table — the same type serves as the *partial* a task,
/// socket or shard produces and as the merged final result.
///
/// Groups are keyed by the group column's **value** (not its vid): cluster
/// shards rebuild their tables with shard-local dictionaries, so vids are not
/// comparable across shards while values are. Rows are sorted by key
/// (`None`, the global group, sorts first and only appears without a
/// group-by), which makes merging a linear sorted-merge and the output order
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggTable {
    /// Whether the table is grouped (false = exactly one `None`-keyed row).
    pub grouped: bool,
    /// The function schema, in output order.
    pub funcs: Vec<AggFunc>,
    /// `(group value, states)` rows, sorted ascending by group value.
    pub groups: Vec<(Option<i64>, Vec<AggState>)>,
}

impl AggTable {
    /// The empty table of a spec: no rows when grouped, one identity row for
    /// the global group otherwise (SQL aggregates without GROUP BY always
    /// return one row).
    pub fn empty(spec: &AggSpec) -> Self {
        let grouped = spec.group_by.is_some();
        let groups = if grouped {
            Vec::new()
        } else {
            vec![(None, spec.funcs.iter().map(|f| AggState::identity(*f)).collect())]
        };
        AggTable { grouped, funcs: spec.funcs.clone(), groups }
    }

    /// Merges another partial into this one (sorted merge by group key).
    /// Fails typed — never with a wrong number — when the schemas differ or
    /// a state is no longer mergeable.
    pub fn merge(&mut self, other: &AggTable) -> Result<(), AggError> {
        if self.funcs != other.funcs || self.grouped != other.grouped {
            return Err(AggError::NotMergeable("aggregate schemas differ"));
        }
        let mut merged: Vec<(Option<i64>, Vec<AggState>)> =
            Vec::with_capacity(self.groups.len().max(other.groups.len()));
        let mut mine = std::mem::take(&mut self.groups).into_iter().peekable();
        let mut theirs = other.groups.iter().peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (None, None) => break,
                (Some(_), None) => merged.push(mine.next().expect("peeked")),
                (None, Some(_)) => merged.push(theirs.next().expect("peeked").clone()),
                (Some((a, _)), Some((b, _))) => {
                    if a < b {
                        merged.push(mine.next().expect("peeked"));
                    } else if b < a {
                        merged.push(theirs.next().expect("peeked").clone());
                    } else {
                        let (key, mut states) = mine.next().expect("peeked");
                        let (_, other_states) = theirs.next().expect("peeked");
                        for (s, o) in states.iter_mut().zip(other_states) {
                            s.merge(o)?;
                        }
                        merged.push((key, states));
                    }
                }
            }
        }
        self.groups = merged;
        Ok(())
    }

    /// Divides the mergeable average partials down to their final floats.
    /// The result is terminal: merging it again is `NotMergeable`.
    pub fn finalize(mut self) -> AggTable {
        for (_, states) in &mut self.groups {
            for state in states {
                if let AggState::Avg { sum, count } = *state {
                    *state = AggState::avg_final(if count == 0 {
                        None
                    } else {
                        Some(sum as f64 / count as f64)
                    });
                }
            }
        }
        self
    }

    /// The finalized output rows: `(group value, cells)` in key order.
    pub fn rows(&self) -> Vec<(Option<i64>, Vec<AggValue>)> {
        self.groups
            .iter()
            .map(|(key, states)| (*key, states.iter().map(AggState::value).collect()))
            .collect()
    }

    /// The single row of an ungrouped table.
    ///
    /// # Panics
    /// Panics if the table is grouped.
    pub fn global_row(&self) -> Vec<AggValue> {
        assert!(!self.grouped, "global_row on a grouped table");
        self.rows().remove(0).1
    }
}

/// The dense per-task accumulator behind the fused kernels: one slot per
/// group-dictionary vid, updated per qualifying row with no branching on the
/// function list (all four statistics are a handful of ALU ops; the spec's
/// functions select among them at [`GroupAccumulator::into_table`] time).
#[derive(Debug, Clone)]
pub struct GroupAccumulator {
    count: Vec<u64>,
    sum: Vec<i64>,
    min: Vec<i64>,
    max: Vec<i64>,
}

impl GroupAccumulator {
    /// An accumulator with `groups` dense slots (clamped to at least one:
    /// the global group). Callers size this from the group dictionary's
    /// cardinality via [`dense_group_capacity`] — never from a row or
    /// selectivity estimate.
    pub fn new(groups: usize) -> Self {
        let groups = groups.max(1);
        GroupAccumulator {
            count: vec![0; groups],
            sum: vec![0; groups],
            min: vec![i64::MAX; groups],
            max: vec![i64::MIN; groups],
        }
    }

    /// Number of dense slots.
    pub fn capacity(&self) -> usize {
        self.count.len()
    }

    /// Folds one qualifying row into the table. `group` is the group
    /// column's vid (0 when there is no group-by).
    #[inline]
    pub fn update(&mut self, group: usize, value: i64) {
        self.count[group] += 1;
        // Pinned overflow semantics: wrapping, so merges stay associative.
        self.sum[group] = self.sum[group].wrapping_add(value);
        if value < self.min[group] {
            self.min[group] = value;
        }
        if value > self.max[group] {
            self.max[group] = value;
        }
    }

    /// Folds `count` qualifying rows, already reduced to their wrapping
    /// `sum`, `min` and `max`, into slot `group`.
    #[inline]
    fn update_reduced(&mut self, group: usize, count: u64, sum: i64, min: i64, max: i64) {
        self.count[group] += count;
        self.sum[group] = self.sum[group].wrapping_add(sum);
        self.min[group] = self.min[group].min(min);
        self.max[group] = self.max[group].max(max);
    }

    /// Element-wise merge of another accumulator over the same group domain
    /// (the deterministic part-order reduce runs over these).
    ///
    /// # Panics
    /// Panics if the capacities differ — partials of one statement always
    /// share the group dictionary, so a mismatch is a logic error.
    pub fn merge(&mut self, other: &GroupAccumulator) {
        assert_eq!(self.capacity(), other.capacity(), "partials must share the group domain");
        for g in 0..self.count.len() {
            self.count[g] += other.count[g];
            self.sum[g] = self.sum[g].wrapping_add(other.sum[g]);
            self.min[g] = self.min[g].min(other.min[g]);
            self.max[g] = self.max[g].max(other.max[g]);
        }
    }

    /// Total qualifying rows folded in (the telemetry the adaptive placer's
    /// aggregation-bytes signal is derived from).
    pub fn matched_rows(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Converts the dense slots into a value-keyed [`AggTable`] partial.
    /// With a group dictionary, slot `g` is keyed by `dict.value(g)` and
    /// empty slots are dropped (standard group-by semantics); without one,
    /// the single global row is always emitted, empty or not.
    pub fn into_table(self, spec: &AggSpec, group_values: Option<&DictColumn<i64>>) -> AggTable {
        let state_of = |func: AggFunc, g: usize| -> AggState {
            match func {
                AggFunc::Count => AggState::Count(self.count[g]),
                AggFunc::Sum => AggState::Sum(self.sum[g]),
                AggFunc::Min => AggState::Min((self.count[g] > 0).then_some(self.min[g])),
                AggFunc::Max => AggState::Max((self.count[g] > 0).then_some(self.max[g])),
                AggFunc::Avg => AggState::Avg { sum: self.sum[g], count: self.count[g] },
            }
        };
        let groups = match group_values {
            None => vec![(None, spec.funcs.iter().map(|f| state_of(*f, 0)).collect())],
            Some(column) => (0..self.count.len())
                .filter(|g| self.count[*g] > 0)
                .map(|g| {
                    // The dictionary is sorted, so ascending vids yield
                    // ascending keys — already in AggTable order.
                    let key = Some(*column.dictionary().value(g as u32));
                    (key, spec.funcs.iter().map(|f| state_of(*f, g)).collect())
                })
                .collect(),
        };
        AggTable { grouped: group_values.is_some(), funcs: spec.funcs.clone(), groups }
    }
}

/// The dense group-table capacity for a group dictionary of `cardinality`
/// distinct values: the cardinality itself (one slot per possible vid),
/// clamped to at least one slot. Deliberately **not** a function of any row
/// count or selectivity estimate — the estimate path's empty-domain and
/// bitcase-32 edges must never size an allocation.
pub fn dense_group_capacity(cardinality: usize) -> usize {
    cardinality.max(1)
}

/// The most (group vid, value vid) cells a fold counts matches in: 2^16
/// `u32` counters, so a counting fold allocates at most 256 KiB, whatever the
/// dictionaries. Like [`dense_group_capacity`], the bound is a function of
/// dictionary cardinalities alone, never of an estimate.
pub const COUNT_CELL_LIMIT: usize = 1 << 16;

/// Rows per fold window: one 64-bit match word.
const WINDOW: usize = 64;

/// A window with at least this many matches (a quarter of its rows) decodes
/// its rows contiguously; a sparser one gathers only its matches.
const DENSE_MATCHES: u32 = WINDOW as u32 / 4;

/// Sparse matches gathered per batch.
const BATCH: usize = 256;

/// Reads the value (and group vid) of a base-table row for the fused
/// kernels. Positions handed to the reader are in the *filter* column's
/// local coordinate space; `offset` maps them to global base-table rows
/// (non-zero exactly for physically partitioned filter parts, whose rebuilt
/// columns are scanned with part-local positions).
pub struct RowReader<'a> {
    value: &'a DictColumn<i64>,
    group: Option<&'a DictColumn<i64>>,
    offset: usize,
}

impl<'a> RowReader<'a> {
    /// A reader gathering from `value` (and `group`), shifting filter-local
    /// positions by `offset` to reach global rows.
    pub fn new(
        value: &'a DictColumn<i64>,
        group: Option<&'a DictColumn<i64>>,
        offset: usize,
    ) -> Self {
        RowReader { value, group, offset }
    }
}

/// One call's fold of 64-row match windows into a [`GroupAccumulator`].
///
/// A window with at least [`DENSE_MATCHES`] matches decodes the rows from
/// its first match to its last contiguously from the value and group
/// columns ([`RowDecoder`]s, built at the call's first dense window); a
/// sparser one has its matches gathered, a batch at a time. What the codes
/// feed depends on the domain and the matches so far. A fold starts by
/// folding every match's value into its group slot. A grouped fold whose
/// value dictionary's cardinality times the group slots is at most
/// [`COUNT_CELL_LIMIT`] switches, once it has folded as many matches as
/// there are cells, to counting matches per (group vid, value vid) cell, and
/// flushes the counts into the accumulator once, at [`WindowFold::finish`].
/// So a call counts cells only when its matches outnumber them, and the
/// flush never costs more than the matches did. An ungrouped fold never
/// counts: it already reduces a batch in registers, with no store per match
/// (and no chain of stores into one cell when the value column has runs).
struct WindowFold<'r, 'a> {
    reader: &'r RowReader<'a>,
    /// The value and group columns' row decoders.
    decoders: Option<(RowDecoder<'a>, Option<RowDecoder<'a>>)>,
    /// Match counts, group-major: cell `group * stride + vid`. Empty while
    /// the fold adds rows to the accumulator.
    cells: Vec<u32>,
    /// Value-dictionary cardinality: the cells of one group.
    stride: usize,
    /// Matches still to fold row by row before counting cells starts; `None`
    /// when the fold never counts cells (or already does).
    until_cells: Option<usize>,
    /// Decoded value and group vids of a window or a batch (the group vids
    /// stay 0 without a group column).
    vids: [u32; BATCH],
    gids: [u32; BATCH],
    acc: &'r mut GroupAccumulator,
}

impl<'r, 'a> WindowFold<'r, 'a> {
    /// A fold of at most `rows` matches into `acc`. Cell counts cannot
    /// overflow: no call counts more than `rows` matches, and counting
    /// requires `rows <= u32::MAX`.
    fn new(reader: &'r RowReader<'a>, acc: &'r mut GroupAccumulator, rows: usize) -> Self {
        let stride = reader.value.dictionary().len();
        let cells = stride.saturating_mul(acc.capacity());
        let counts = reader.group.is_some()
            && (1..=COUNT_CELL_LIMIT.min(rows)).contains(&cells)
            && u32::try_from(rows).is_ok();
        WindowFold {
            reader,
            decoders: None,
            cells: Vec::new(),
            stride,
            until_cells: counts.then_some(cells),
            vids: [0; BATCH],
            gids: [0; BATCH],
            acc,
        }
    }

    /// Decodes the rows of the dense window `base..base + 64` (filter-local;
    /// bit `i` of `mask` is row `base + i`) from its first match to its last
    /// and folds the matched ones.
    #[inline(never)]
    fn dense(&mut self, base: usize, mask: u64) {
        let first = mask.trailing_zeros() as usize;
        let rows = WINDOW - mask.leading_zeros() as usize - first;
        let (mask, start) = (mask >> first, base + first + self.reader.offset);
        let (vids, gids) = (&mut self.vids[..rows], &mut self.gids[..rows]);
        let reader = self.reader;
        let (values, groups) = self.decoders.get_or_insert_with(|| {
            let group = reader.group.map(|g| g.index_vector().row_decoder());
            (reader.value.index_vector().row_decoder(), group)
        });
        values.decode_rows(start, vids);
        if let Some(groups) = groups {
            groups.decode_rows(start, gids);
        }
        if !self.cells.is_empty() {
            // Branch-free: an unmatched row adds 0 to its cell.
            let stride = self.stride;
            for (i, (&group, &vid)) in gids.iter().zip(vids.iter()).enumerate() {
                self.cells[group as usize * stride + vid as usize] += (mask >> i) as u32 & 1;
            }
            return;
        }
        let mut rest = mask;
        let matched = std::iter::from_fn(|| {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                (gids[i], vids[i])
            })
        });
        fold_rows(self.reader, matched, self.acc);
        self.folded_rows(mask.count_ones() as usize);
    }

    /// Counts `matches` folded row by row toward counting cells, and starts
    /// counting when the matches have caught up with the cells.
    #[inline]
    fn folded_rows(&mut self, matches: usize) {
        if let Some(left) = &mut self.until_cells {
            *left = left.saturating_sub(matches);
            if *left == 0 {
                self.cells = vec![0; self.stride * self.acc.capacity()];
                self.until_cells = None;
            }
        }
    }

    /// Gathers the codes of at most [`BATCH`] ascending sparse matches
    /// (filter-local) and folds them.
    #[inline(never)]
    fn sparse(&mut self, positions: &[u32]) {
        let (vids, gids) = (&mut self.vids[..positions.len()], &mut self.gids[..positions.len()]);
        let offset = self.reader.offset;
        self.reader.value.index_vector().gather(positions, offset, vids);
        if let Some(group) = self.reader.group {
            group.index_vector().gather(positions, offset, gids);
        }
        if self.cells.is_empty() {
            fold_rows(self.reader, gids.iter().copied().zip(vids.iter().copied()), self.acc);
            self.folded_rows(positions.len());
        } else {
            for (&group, &vid) in gids.iter().zip(vids.iter()) {
                self.cells[group as usize * self.stride + vid as usize] += 1;
            }
        }
    }

    /// Flushes the cell counts: per group, count += c and sum += c × value
    /// over its cells, min and max from its smallest and largest counted vid
    /// (the dictionary is sorted).
    fn finish(self) {
        let values = self.reader.value.dictionary();
        for (group, cells) in self.cells.chunks_exact(self.stride.max(1)).enumerate() {
            let (mut count, mut sum, mut first, mut last) = (0u64, 0i64, None, 0);
            for (vid, &c) in cells.iter().enumerate().filter(|(_, &c)| c > 0) {
                count += u64::from(c);
                // Exact under the pinned wrapping sum: c additions of the
                // value wrap to c × value mod 2^64.
                sum = sum.wrapping_add(i64::from(c).wrapping_mul(*values.value(vid as u32)));
                first.get_or_insert(vid);
                last = vid;
            }
            if let Some(first) = first {
                let (min, max) = (*values.value(first as u32), *values.value(last as u32));
                self.acc.update_reduced(group, count, sum, min, max);
            }
        }
    }
}

/// Folds `(group vid, value vid)` matches into `acc` one by one; without a
/// group column they reduce in registers and update the global slot once.
#[inline(always)]
fn fold_rows(
    reader: &RowReader<'_>,
    matched: impl Iterator<Item = (u32, u32)>,
    acc: &mut GroupAccumulator,
) {
    let values = reader.value.dictionary();
    if reader.group.is_some() {
        for (group, vid) in matched {
            acc.update(group as usize, *values.value(vid));
        }
        return;
    }
    let (mut count, mut sum, mut min, mut max) = (0u64, 0i64, i64::MAX, i64::MIN);
    for (_, vid) in matched {
        let value = *values.value(vid);
        count += 1;
        sum = sum.wrapping_add(value);
        min = min.min(value);
        max = max.max(value);
    }
    if count > 0 {
        acc.update_reduced(0, count, sum, min, max);
    }
}

/// The mask stream of [`accumulate_filtered`], regrouped into 64-row match
/// words for a [`WindowFold`]: a dense word is folded at once, a sparse
/// word's matches queue for a batch gather.
struct MatchWords<'r, 'a> {
    fold: WindowFold<'r, 'a>,
    /// First row of the word being assembled, and its matches.
    word: usize,
    matches: u64,
    queued: [u32; BATCH],
    len: usize,
}

impl MatchWords<'_, '_> {
    /// Adds a mask-stream window: bit `i < n` of `mask` is row `base + i`.
    #[inline(always)]
    fn add(&mut self, base: usize, n: u32, mask: u64) {
        // A selective scan's windows are mostly empty: they add nothing.
        if mask == 0 {
            return;
        }
        let (at, shift) = (base & !(WINDOW - 1), base % WINDOW);
        if at != self.word {
            self.flush();
            self.word = at;
        }
        self.matches |= mask << shift;
        // A window that crosses into the next word.
        if shift + n as usize > WINDOW {
            self.flush();
            (self.word, self.matches) = (at + WINDOW, mask >> (WINDOW - shift));
        }
    }

    /// Folds or queues the assembled word.
    #[inline(always)]
    fn flush(&mut self) {
        let mut mask = std::mem::take(&mut self.matches);
        if mask.count_ones() >= DENSE_MATCHES {
            return self.fold.dense(self.word, mask);
        }
        while mask != 0 {
            self.queued[self.len] = (self.word + mask.trailing_zeros() as usize) as u32;
            self.len += 1;
            mask &= mask - 1;
        }
        // A sparse word queues fewer than `WINDOW` matches.
        if self.len > BATCH - WINDOW {
            self.fold.sparse(&self.queued[..self.len]);
            self.len = 0;
        }
    }

    /// Folds the last word and whatever is still queued, then the cells.
    fn finish(mut self) {
        self.flush();
        self.fold.sparse(&self.queued[..self.len]);
        self.fold.finish();
    }
}

/// The fused scan→aggregate kernel: evaluates `predicate` over `positions`
/// of the filter column and folds every qualifying row into `acc` — no
/// position list is materialized. Every predicate shape, range or `IN` list,
/// rides the layout's mask stream (`IndexVector::scan_masks`, both layouts),
/// whose windows are regrouped into 64-row match words for the same window
/// fold as [`accumulate_positions`] (which says what a window costs).
pub fn accumulate_filtered(
    filter: &DictColumn<i64>,
    positions: Range<usize>,
    predicate: &EncodedPredicate,
    reader: &RowReader<'_>,
    acc: &mut GroupAccumulator,
) {
    let end = positions.end.min(filter.row_count());
    let start = positions.start.min(end);
    let mut words = MatchWords {
        fold: WindowFold::new(reader, acc, end - start),
        word: start & !(WINDOW - 1),
        matches: 0,
        queued: [0; BATCH],
        len: 0,
    };
    filter.index_vector().scan_masks(
        start..end,
        predicate,
        #[inline(always)]
        |base, n, mask| words.add(base, n, mask),
    );
    words.finish();
}

/// The shared-path accumulate: folds a sweep chunk's (filter-local,
/// ascending) match positions into `acc`, regrouped into 64-row windows for
/// the same window fold as [`accumulate_filtered`]. One cooperative sweep's
/// mask stream thereby serves scan waiters (which materialize) and
/// aggregate waiters (which fold) alike.
///
/// A window with at least a quarter of its rows matched decodes its rows
/// contiguously from the value and group columns; the matches between such
/// windows are gathered straight from `positions`, a batch at a time. Each
/// match's value is folded into its group slot; a grouped call whose value
/// dictionary's cardinality times the group slots is at most
/// [`COUNT_CELL_LIMIT`] switches, once it has folded that many matches, to
/// counting matches per (group vid, value vid) cell and flushes the counts
/// into `acc` once per call.
pub fn accumulate_positions(positions: &[u32], reader: &RowReader<'_>, acc: &mut GroupAccumulator) {
    let mut fold = WindowFold::new(reader, acc, positions.len());
    let dense = DENSE_MATCHES as usize;
    // The sparse matches since the last dense window.
    let (mut sparse, mut i) = (0, 0);
    while let Some(&last) = positions.get(i + dense - 1) {
        // A window can hold `dense` positions from `i` on only if they span
        // fewer than 64 rows: a branch-free test of 16 starts at a time
        // skips a sparse stretch without judging each position.
        if let Some(ahead) = positions.get(i..i + 2 * dense - 1) {
            let spans = ahead.iter().zip(&ahead[dense - 1..]);
            if spans.fold(true, |sparse, (&a, &b)| sparse & (b.wrapping_sub(a) >= WINDOW as u32)) {
                i += dense;
                continue;
            }
        }
        // Positions ascend, so the window of `positions[i]` holds at least
        // `dense` of them from `i` on iff the `dense`-th is still in it. That
        // can first hold at the window's first position, and a window for
        // which it fails there fails at every later position too.
        let end = (positions[i] as usize | (WINDOW - 1)) + 1;
        if last as usize >= end {
            i += 1;
            continue;
        }
        for batch in positions[sparse..i].chunks(BATCH) {
            fold.sparse(batch);
        }
        let base = end - WINDOW;
        let mut matches = 0u64;
        while let Some(&p) = positions.get(i).filter(|&&p| (p as usize) < end) {
            matches |= 1 << (p as usize - base);
            i += 1;
        }
        fold.dense(base, matches);
        sparse = i;
    }
    for batch in positions[sparse..].chunks(BATCH) {
        fold.sparse(batch);
    }
    fold.finish();
}

/// The naive scalar oracle the fused path is tested against: a plain row
/// loop over the base table, value-level predicate evaluation, BTreeMap
/// group-by, identical pinned wrapping-sum semantics.
///
/// # Panics
/// Panics on unknown columns — it is a test oracle, not an engine API.
pub fn oracle_aggregate(
    table: &Table,
    filter_column: &str,
    predicate: &Predicate<i64>,
    spec: &AggSpec,
) -> AggTable {
    let (_, filter) = table.column_by_name(filter_column).expect("oracle: unknown filter column");
    let (_, value) =
        table.column_by_name(&spec.value_column).expect("oracle: unknown value column");
    let group = spec
        .group_by
        .as_deref()
        .map(|name| table.column_by_name(name).expect("oracle: unknown group column").1);
    let matches = |v: i64| -> bool {
        match predicate {
            Predicate::Between { lo, hi } => (*lo..=*hi).contains(&v),
            Predicate::Equals(x) => v == *x,
            Predicate::InList(xs) => xs.contains(&v),
        }
    };
    #[derive(Clone, Copy)]
    struct Acc {
        count: u64,
        sum: i64,
        min: i64,
        max: i64,
    }
    let mut groups: BTreeMap<Option<i64>, Acc> = BTreeMap::new();
    if group.is_none() {
        groups.insert(None, Acc { count: 0, sum: 0, min: i64::MAX, max: i64::MIN });
    }
    for row in 0..table.row_count() {
        if !matches(*filter.value_at(row)) {
            continue;
        }
        let v = *value.value_at(row);
        let key = group.map(|g| *g.value_at(row));
        let acc =
            groups.entry(key).or_insert(Acc { count: 0, sum: 0, min: i64::MAX, max: i64::MIN });
        acc.count += 1;
        acc.sum = acc.sum.wrapping_add(v);
        acc.min = acc.min.min(v);
        acc.max = acc.max.max(v);
    }
    let rows = groups
        .into_iter()
        .map(|(key, acc)| {
            let states = spec
                .funcs
                .iter()
                .map(|func| match func {
                    AggFunc::Count => AggState::Count(acc.count),
                    AggFunc::Sum => AggState::Sum(acc.sum),
                    AggFunc::Min => AggState::Min((acc.count > 0).then_some(acc.min)),
                    AggFunc::Max => AggState::Max((acc.count > 0).then_some(acc.max)),
                    AggFunc::Avg => AggState::Avg { sum: acc.sum, count: acc.count },
                })
                .collect();
            (key, states)
        })
        .collect();
    AggTable { grouped: group.is_some(), funcs: spec.funcs.clone(), groups: rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numascan_storage::TableBuilder;

    fn spec_all(group: Option<&str>) -> AggSpec {
        let spec = AggSpec::new(
            "v",
            vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg],
        );
        match group {
            Some(g) => spec.with_group_by(g),
            None => spec,
        }
    }

    fn test_table(rows: usize) -> Table {
        let filter: Vec<i64> = (0..rows as i64).map(|i| (i * 13) % 100).collect();
        let value: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % 1000 - 500).collect();
        let group: Vec<i64> = (0..rows as i64).map(|i| i % 5).collect();
        TableBuilder::new("t")
            .add_values("f", &filter, false)
            .add_values("v", &value, false)
            .add_values("g", &group, false)
            .build()
    }

    fn fused(table: &Table, predicate: &Predicate<i64>, spec: &AggSpec) -> AggTable {
        let (_, filter) = table.column_by_name("f").unwrap();
        let (_, value) = table.column_by_name(&spec.value_column).unwrap();
        let group = spec.group_by.as_deref().map(|n| table.column_by_name(n).unwrap().1);
        let cap = group.map_or(1, |g| dense_group_capacity(g.dictionary().len()));
        let mut acc = GroupAccumulator::new(cap);
        let encoded = predicate.encode(filter.dictionary());
        let reader = RowReader::new(value, group, 0);
        accumulate_filtered(filter, 0..filter.row_count(), &encoded, &reader, &mut acc);
        acc.into_table(spec, group)
    }

    #[test]
    fn fused_mask_stream_matches_the_oracle_grouped_and_global() {
        let table = test_table(10_000);
        let predicate = Predicate::Between { lo: 10, hi: 60 };
        for group in [None, Some("g")] {
            let spec = spec_all(group);
            assert_eq!(
                fused(&table, &predicate, &spec),
                oracle_aggregate(&table, "f", &predicate, &spec),
                "group={group:?}"
            );
        }
    }

    #[test]
    fn vid_list_predicates_ride_the_mask_stream_and_agree() {
        let table = test_table(8_000);
        let predicate = Predicate::InList(vec![3, 17, 55, 99]);
        let spec = spec_all(Some("g"));
        assert_eq!(
            fused(&table, &predicate, &spec),
            oracle_aggregate(&table, "f", &predicate, &spec)
        );
    }

    #[test]
    fn empty_predicates_yield_the_identity_table() {
        let table = test_table(1_000);
        let predicate = Predicate::Between { lo: 5_000, hi: 6_000 };
        let global = fused(&table, &predicate, &spec_all(None));
        assert_eq!(global.groups.len(), 1, "no GROUP BY always returns one row");
        assert_eq!(
            global.global_row(),
            vec![
                AggValue::Int(0),
                AggValue::Int(0),
                AggValue::Null,
                AggValue::Null,
                AggValue::Null
            ]
        );
        let grouped = fused(&table, &predicate, &spec_all(Some("g")));
        assert!(grouped.groups.is_empty(), "grouped tables drop empty groups");
    }

    #[test]
    fn sum_overflow_semantics_are_pinned_to_wrapping() {
        let values = vec![i64::MAX, 1, 5];
        let table = TableBuilder::new("t")
            .add_values("f", &[1, 1, 99], false)
            .add_values("v", &values, false)
            .build();
        let spec = AggSpec::new("v", vec![AggFunc::Sum, AggFunc::Avg]);
        let predicate = Predicate::Equals(1);
        let got = fused(&table, &predicate, &spec);
        // i64::MAX + 1 wraps to i64::MIN — identical in the oracle, in the
        // fused path, and across any partial split.
        assert_eq!(got.groups[0].1[0], AggState::Sum(i64::MIN));
        assert_eq!(got, oracle_aggregate(&table, "f", &predicate, &spec));
    }

    #[test]
    fn partial_merges_are_order_insensitive_and_match_one_shot() {
        let table = test_table(9_999);
        let spec = spec_all(Some("g"));
        let predicate = Predicate::Between { lo: 0, hi: 49 };
        let (_, filter) = table.column_by_name("f").unwrap();
        let (_, value) = table.column_by_name("v").unwrap();
        let (_, group) = table.column_by_name("g").unwrap();
        let cap = dense_group_capacity(group.dictionary().len());
        let encoded = predicate.encode(filter.dictionary());
        let reader = RowReader::new(value, Some(group), 0);
        // Three partials over disjoint ranges, merged in part order.
        let mut partials: Vec<GroupAccumulator> = Vec::new();
        for range in [0..3_000, 3_000..7_000, 7_000..9_999] {
            let mut acc = GroupAccumulator::new(cap);
            accumulate_filtered(filter, range, &encoded, &reader, &mut acc);
            partials.push(acc);
        }
        let mut reduced = GroupAccumulator::new(cap);
        for partial in &partials {
            reduced.merge(partial);
        }
        let merged = reduced.into_table(&spec, Some(group));
        assert_eq!(merged, fused(&table, &predicate, &spec));
        // The same holds for AggTable-level (cluster-style) merging.
        let mut table_merge = AggTable::empty(&spec);
        for partial in partials {
            table_merge.merge(&partial.clone().into_table(&spec, Some(group))).unwrap();
        }
        assert_eq!(table_merge, merged);
    }

    #[test]
    fn finalized_averages_refuse_to_merge() {
        let spec = AggSpec::new("v", vec![AggFunc::Avg]);
        let mut a = AggTable {
            grouped: false,
            funcs: vec![AggFunc::Avg],
            groups: vec![(None, vec![AggState::Avg { sum: 10, count: 2 }])],
        };
        let finalized = a.clone().finalize();
        assert_eq!(finalized.global_row(), vec![AggValue::Float(5.0)]);
        assert_eq!(
            a.merge(&finalized),
            Err(AggError::NotMergeable("an average without its count")),
            "an avg without its count must never silently merge"
        );
        // Schema mismatches are typed too.
        let other = AggTable::empty(&AggSpec::new("v", vec![AggFunc::Sum]));
        assert_eq!(a.merge(&other), Err(AggError::NotMergeable("aggregate schemas differ")));
        let _ = spec;
    }

    #[test]
    fn group_capacity_is_clamped_by_dictionary_cardinality() {
        // The dense table is sized by the dictionary, never by estimates:
        // 1M rows over 5 distinct group values get 5 slots.
        assert_eq!(dense_group_capacity(5), 5);
        // The empty-domain edge clamps up to one slot instead of allocating
        // (or dividing by) zero.
        assert_eq!(dense_group_capacity(0), 1);
        let acc = GroupAccumulator::new(0);
        assert_eq!(acc.capacity(), 1);
    }

    #[test]
    fn pp_style_offsets_map_local_positions_to_global_rows() {
        let table = test_table(4_000);
        let (_, filter) = table.column_by_name("f").unwrap();
        let (_, value) = table.column_by_name("v").unwrap();
        let (_, group) = table.column_by_name("g").unwrap();
        let spec = spec_all(Some("g"));
        let predicate = Predicate::Between { lo: 20, hi: 40 };
        let cap = dense_group_capacity(group.dictionary().len());
        // Rebuild rows 1_000..4_000 as a self-contained part (its own
        // dictionary, part-local positions) and aggregate it with the
        // matching offset plus the prefix scanned from the base column.
        let part = filter.rebuild_range("f#part".to_string(), 1_000..4_000, false);
        let part_encoded = predicate.encode(part.dictionary());
        let base_encoded = predicate.encode(filter.dictionary());
        let mut acc = GroupAccumulator::new(cap);
        let base_reader = RowReader::new(value, Some(group), 0);
        accumulate_filtered(filter, 0..1_000, &base_encoded, &base_reader, &mut acc);
        let part_reader = RowReader::new(value, Some(group), 1_000);
        accumulate_filtered(&part, 0..part.row_count(), &part_encoded, &part_reader, &mut acc);
        let got = acc.into_table(&spec, Some(group));
        assert_eq!(got, oracle_aggregate(&table, "f", &predicate, &spec));
    }
}
