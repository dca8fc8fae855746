//! The unified bucketing trait (Section 3.1's interface, one surface for
//! all three physical representations).
//!
//! Historically each backend grew its own inherent methods and the
//! `get_bucket` signatures drifted: `seq`/`par` took `(prev, next)` while
//! `mapped` took `(i, next)` (its internal identifier→slot map supplies
//! `prev`). [`Bucketing`] reconciles them behind one three-argument
//! primitive `get_bucket(i, prev, next)` — every backend receives all the
//! information any backend needs and ignores what it does not use — and
//! lifts the par-only extras (`try_next_in_current`,
//! `update_buckets_semisort`, `stats`) into the trait with documented
//! defaults, so algorithms are generic over the representation.

use super::{BucketDest, BucketId, Identifier};

/// Operation counters, used by the Figure 1 microbenchmark and the
/// work-efficiency checks of EXPERIMENTS.md.
///
/// The first four counters (`identifiers_extracted`, `identifiers_moved`,
/// `null_requests`, `buckets_extracted`) are *semantic*: every backend must
/// report identical values for the same workload (pinned by the
/// cross-backend counter-equivalence test). The overflow counters are
/// physical-representation detail — a backend without an overflow bucket
/// (e.g. [`super::SeqBuckets`]) legitimately reports zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct BucketStats {
    /// Identifiers returned by `next_bucket`.
    pub identifiers_extracted: u64,
    /// Non-null destinations processed by `update_buckets` (the paper's
    /// throughput metric counts these plus extractions; null requests are
    /// excluded because they are handled without random accesses).
    pub identifiers_moved: u64,
    /// Null destinations received (ignored cheaply).
    pub null_requests: u64,
    /// Non-empty buckets returned.
    pub buckets_extracted: u64,
    /// Times the overflow bucket was redistributed (0 on backends with an
    /// exact representation).
    pub overflow_redistributions: u64,
    /// Identifiers reinserted during overflow redistribution (0 on backends
    /// with an exact representation).
    pub identifiers_redistributed: u64,
}

/// The bucketing interface (the paper's `buckets` object), implemented by
/// the parallel open-window structure ([`super::Buckets`]), the sequential
/// exact structure ([`super::SeqBuckets`]), and the internal-map ablation
/// variant ([`super::MappedBuckets`]).
///
/// Construct any of them through [`super::BucketsBuilder`] (`build`,
/// `build_seq`, `build_mapped`).
pub trait Bucketing {
    /// `getBucket(i, prev, next)`: the physical destination for identifier
    /// `i` whose logical bucket changes from `prev` (`NULL_BKT` if not yet
    /// bucketed) to `next`. Returns [`BucketDest::NULL`] when no physical
    /// move is required.
    ///
    /// The two-argument backends (`seq`, `par`) ignore `i`; the
    /// internal-map backend (`mapped`) ignores `prev` — passing both lets
    /// every call site drive every backend.
    fn get_bucket(&self, i: Identifier, prev: BucketId, next: BucketId) -> BucketDest;

    /// `updateBuckets`: moves each identifier to its destination. Null
    /// destinations are counted but incur no random accesses. An identifier
    /// may appear at most once per call.
    fn update_buckets(&mut self, moves: &[(Identifier, BucketDest)]);

    /// Semisort-based `updateBuckets` (Section 3.2) — semantically
    /// identical to [`Bucketing::update_buckets`], kept for the A1
    /// ablation.
    ///
    /// Default: delegates to `update_buckets`. Only the parallel backend
    /// has a genuinely distinct semisort insertion path; on every other
    /// backend the two spellings are the same algorithm, so the delegate
    /// *is* the specified behavior, not an approximation.
    fn update_buckets_semisort(&mut self, moves: &[(Identifier, BucketDest)]) {
        self.update_buckets(moves);
    }

    /// `nextBucket`: the id and live identifiers of the next non-empty
    /// bucket, or `None` when the structure is exhausted. The same bucket
    /// id can be returned again if identifiers were reinserted into `cur`.
    fn next_bucket(&mut self) -> Option<(BucketId, Vec<Identifier>)>;

    /// Re-examines the **current** bucket only: if identifiers were
    /// reinserted into it since the last extraction, returns them without
    /// advancing the cursor; otherwise returns `None` (cursor unchanged).
    ///
    /// Used by the light/heavy edge optimization of Δ-stepping (Section
    /// 4.2). Default: `None`
    /// (a backend without an addressable current bucket never has a
    /// specialized fast path; callers must treat `None` as "fall through to
    /// `next_bucket`", which is always correct). All in-tree backends
    /// override this.
    fn try_next_in_current(&mut self) -> Option<Vec<Identifier>> {
        None
    }

    /// The operation counters accumulated so far. The semantic counters
    /// (see [`BucketStats`]) must agree across backends for the same
    /// workload.
    fn stats(&self) -> BucketStats;

    /// The bucket id at the structure's current position.
    fn current_bucket(&self) -> BucketId;

    /// Total identifiers extracted so far.
    ///
    /// Default: reads `stats().identifiers_extracted` — definitionally the
    /// same quantity; a backend only overrides this to skip building the
    /// full stats struct.
    fn total_extracted(&self) -> u64 {
        self.stats().identifiers_extracted
    }
}
