//! Interval primitives for the compressed transitive closure.
//!
//! The paper's "range compression" (§3) stores, at each node, a *set of
//! closed numeric intervals* over postorder numbers instead of an explicit
//! successor list. This crate provides the three pieces that scheme is built
//! from:
//!
//! * [`Interval`] — a closed interval `[lo, hi]` over `u64` postorder
//!   numbers, with the paper's *subsumption*, *adjacency*, and *overlap*
//!   relations.
//! * [`IntervalSet`] — a sorted set of intervals that discards subsumed
//!   intervals on insertion (§3.2: "if one interval is subsumed by another,
//!   discard the subsumed interval") and can optionally merge adjacent or
//!   overlapping intervals (§3.2 "Improvements").
//! * [`NumberLine`] — the sorted list *L* of postorder numbers currently in
//!   use (§4), supporting the gap queries the incremental update algorithms
//!   need: predecessor/successor lookup, largest-gap search, midpoint
//!   allocation, and renumbering plans for when gaps run out.
//! * [`RankIndex`] / [`merged_row_into`] — rank flattening for the
//!   read-optimized *frozen query plane*: the bucketed map from postorder
//!   numbers to live-number ranks, and a label set as merged intervals over
//!   those ranks.
//! * [`BitRows`] — word-aligned bitset successor rows for the *hybrid*
//!   plane: nodes whose merged rank-interval count crosses the configured
//!   threshold trade their interval row for one bit per live rank, making
//!   the probe a single word test however fragmented the set is.
//! * [`paged`] — the frozen plane's fenced boundary-array row layout as
//!   raw bytes: the one row codec and probe kernel shared by the freeze
//!   writer and the plane reader in `tc-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bitrow;
mod flat;
mod interval;
mod numberline;
pub mod paged;
mod set;

pub use bitrow::{BitRows, BitRowsBuilder, NO_ROW};
pub use flat::{merged_row_into, RankIndex};
pub use interval::Interval;
pub use numberline::{CapacityError, NumberLine, RenumberPlan, DEFAULT_LINE_CAPACITY};
pub use set::IntervalSet;
