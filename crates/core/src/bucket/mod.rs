//! The bucketing interface (Section 3.1) and its implementations.
//!
//! ## Interface
//!
//! A bucket structure over `n` identifiers is created with a function
//! `D : identifier → bucket_id` (the *current* logical bucket of each
//! identifier, re-evaluated lazily by the structure) and a traversal
//! [`Order`]. The core loop of every bucketing-based algorithm is:
//!
//! ```text
//! while let Some((bkt, ids)) = B.next_bucket() {
//!     …process ids, mutating the state D reads…
//!     let moved = …(id, B.get_bucket(id, prev, next)) for affected ids…;
//!     B.update_buckets(&moved);
//! }
//! ```
//!
//! A complete example — drain identifiers in increasing bucket order,
//! moving one forward mid-stream. All implementations are used through the
//! [`Bucketing`] trait and built by [`BucketsBuilder`] (`build` for the
//! parallel structure, `build_seq`/`build_mapped` for the sequential and
//! internal-map variants):
//!
//! ```
//! use julienne::bucket::{Bucketing, BucketsBuilder, Order, NULL_BKT};
//! use std::sync::atomic::{AtomicU32, Ordering};
//!
//! // D: identifier -> bucket (shared state the algorithm mutates).
//! let d: Vec<AtomicU32> = [2u32, 0, 2].into_iter().map(AtomicU32::new).collect();
//! let mut b = BucketsBuilder::new(3, |i: u32| d[i as usize].load(Ordering::SeqCst),
//!                                 Order::Increasing)
//!     .build();
//!
//! assert_eq!(b.next_bucket(), Some((0, vec![1])));
//! // Move identifier 0 from bucket 2 to bucket 1.
//! d[0].store(1, Ordering::SeqCst);
//! let dest = b.get_bucket(0, 2, 1);
//! b.update_buckets(&[(0, dest)]);
//! assert_eq!(b.next_bucket(), Some((1, vec![0])));
//! assert_eq!(b.next_bucket(), Some((2, vec![2])));
//! assert_eq!(b.next_bucket(), None);
//! ```
//!
//! ## Contract
//!
//! * `D` must reflect all state mutations *before* the corresponding
//!   `get_bucket`/`update_buckets`/`next_bucket` calls.
//! * Per identifier, logical bucket ids must move monotonically in the
//!   traversal direction (never behind the current bucket) — true of every
//!   algorithm in the paper, enforced where cheap by `debug_assert!`.
//! * With [`Order::Decreasing`], no bucket id may ever exceed the maximum
//!   present at creation (set-cover degrees only shrink, so this holds).
//! * An identifier may appear at most once per `update_buckets` call.

mod mapped;
mod par;
mod seq;
mod traits;

pub use mapped::MappedBuckets;
pub use par::{Buckets, BucketsBuilder, DEFAULT_OPEN_BUCKETS};
pub use seq::SeqBuckets;
pub use traits::{BucketStats, Bucketing};

/// A bucketed object's unique integer id (the paper's `identifier`).
pub type Identifier = u32;

/// A bucket's integer id (the paper's `bucket_id`).
pub type BucketId = u32;

/// The distinguished "no bucket" id (the paper's `nullbkt`): identifiers
/// mapped here are not in the structure (or are leaving it).
pub const NULL_BKT: BucketId = u32::MAX;

/// Traversal order over buckets (the paper's `bucket_order`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Lowest bucket first (k-core, wBFS, Δ-stepping).
    Increasing,
    /// Highest bucket first (approximate set cover).
    Decreasing,
}

/// Opaque destination of a moving identifier (the paper's `bucket_dest`),
/// produced by `get_bucket` and consumed by `update_buckets`.
///
/// Internally a slot index into the open-bucket window (or the overflow
/// bucket); `NULL` means "no physical move required".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketDest(pub(crate) u32);

impl BucketDest {
    pub(crate) const NULL_SLOT: u32 = u32::MAX;

    /// The "no move needed" destination.
    pub const NULL: BucketDest = BucketDest(Self::NULL_SLOT);

    /// Whether this destination requires no physical move.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == Self::NULL_SLOT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_dest_is_null() {
        assert!(BucketDest::NULL.is_null());
        assert!(!BucketDest(0).is_null());
    }
}
