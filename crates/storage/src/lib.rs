//! # numascan-storage
//!
//! The storage layer of a main-memory column-store, as described in Section 4.1
//! of *"Scaling Up Concurrent Main-Memory Column-Store Scans"* (Psaroudakis et
//! al., VLDB 2015).
//!
//! A column is stored dictionary-encoded (Figure 3 of the paper):
//!
//! * the **dictionary** holds the sorted distinct values; the position of a
//!   value in the dictionary is its *value identifier* (vid),
//! * the **index vector** (IV) holds one bit-compressed vid per row, using the
//!   smallest number of bits that can represent every vid (the *bitcase*).
//!
//! The paper's third component, an inverted index for low-selectivity
//! lookups, is not stored here: the engine answers every predicate by
//! scanning, and the index survives only as a size and a cost in the
//! simulator's column model (`ColumnSpec::with_index`, `CostModel`).
//!
//! There is one way to ask a column a question: an encoded predicate (its
//! boundaries translated into vids through the dictionary) evaluated on the
//! IV by the layout's mask kernel ([`IndexVector::scan_masks`]). The SWAR
//! kernels of [`bitpack`] compare every code lane of a packed `u64` at once
//! and emit per-row match masks, which fused aggregates consume directly and
//! the [`scan`] functions expand into position lists (one predicate, or a
//! whole shared-sweep batch in one pass) or OR into a [`BitVector`]. A
//! separate materialization step converts qualifying vids back into real
//! values through the dictionary.
//!
//! The module layout mirrors those concepts: [`dictionary`], [`bitpack`],
//! [`rle`] (the run-length-encoded hybrid layout), [`zonemap`] (per-zone
//! min/max-vid aggregates for partition pruning), [`column`](mod@column),
//! [`predicate`], [`scan`], [`materialize`], [`bitvector`], [`partition`]
//! (IVP split points and PP physical repartitioning) and [`table`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitpack;
pub mod bitvector;
pub mod column;
pub mod dictionary;
pub mod materialize;
pub mod partition;
pub mod predicate;
pub mod rle;
pub mod scan;
pub mod table;
pub mod value;
pub mod zonemap;

pub use bitpack::{BitPackedIter, BitPackedVec, KernelTier};
pub use bitvector::BitVector;
pub use column::{DictColumn, IndexVector, IvIter, IvLayoutKind, RowDecoder};
pub use dictionary::Dictionary;
pub use materialize::materialize_positions;
pub use partition::{ivp_ranges, PhysicalPartition, PhysicalPartitioning};
pub use predicate::{EncodedPredicate, Predicate, VidRange, VidRuns};
pub use rle::{RleIter, RleVec};
pub use scan::{scan_bitvector, scan_positions, scan_positions_batch};
pub use table::{ColumnId, Table, TableBuilder};
pub use value::DictValue;
pub use zonemap::{VidBounds, ZoneMap, ZoneMapBuilder, ZONE_ROWS};
