//! Keyword-pair co-occurrence counting.
//!
//! Section 3 of the paper: for every document `D` and every pair of keywords
//! `u, v ∈ D`, `A_D(u,v) = 1`; summing over all documents of the interval
//! gives `A(u,v)`, the number of documents containing both keywords. The
//! per-keyword document frequency `A(u)` is obtained by also emitting the
//! self pair `(u,u)`. Both implementations count the paper's way — sort the
//! pair occurrences so identical pairs become adjacent, then count the runs:
//!
//! * [`PairCounter::in_memory`] — a two-pass counting sort keyed on `u`
//!   (count each keyword's partners, then scatter every partner `v > u` into
//!   its keyword's bucket), then a sort of each bucket and a run-length count.
//!   Used when the interval's pair multiset fits in memory.
//! * [`PairCounter::external`] — the paper's approach verbatim: emit every
//!   pair occurrence to a spill file, sort it with the external merge sort of
//!   [`bsc_storage::external_sort`] and count in one pass over the sorted
//!   output.
//!
//! Both produce the same [`PairCounts`]: `A(u,v)` as one `(u, v)`-sorted
//! array of [`KeywordPair`]s and `A(u)` as one `u`-sorted array, so every
//! iteration order is deterministic by construction and a keyword graph can
//! share the pair array instead of copying it. A property test asserts the
//! two paths agree element for element.

use std::sync::Arc;

use bsc_storage::external_sort::{sort_and_count, ExternalSorter, SortConfig};

use crate::document::Document;
use crate::vocabulary::KeywordId;

/// Strategy and tuning for pair counting.
#[derive(Debug, Clone, Default)]
pub struct PairCountConfig {
    /// Use the external-sort implementation instead of the in-memory
    /// counting sort.
    pub external: bool,
    /// Spill configuration for the external implementation.
    pub sort: SortConfig,
}

impl PairCountConfig {
    /// The paper's secondary-storage pipeline (external sort of the pair
    /// file).
    pub fn external() -> Self {
        PairCountConfig {
            external: true,
            sort: SortConfig::default(),
        }
    }
}

/// One aggregated co-occurrence of two distinct keywords, with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeywordPair {
    /// First keyword (smaller id).
    pub u: KeywordId,
    /// Second keyword (larger id).
    pub v: KeywordId,
    /// `A(u,v)`: number of documents containing both keywords.
    pub count: u64,
}

/// Aggregated co-occurrence statistics for one temporal interval.
#[derive(Debug, Clone, Default)]
pub struct PairCounts {
    /// `A(u,v)` for `u < v`, sorted by `(u, v)`. Shared, not copied, with
    /// the keyword graphs built from these counts.
    pairs: Arc<Vec<KeywordPair>>,
    /// `(u, A(u))`, sorted by `u`.
    keywords: Vec<(KeywordId, u64)>,
    /// `n = |D|`: total number of documents in the interval.
    num_documents: u64,
}

impl PairCounts {
    /// `A(u,v)`: the number of documents containing both `u` and `v`.
    pub fn pair_count(&self, u: KeywordId, v: KeywordId) -> u64 {
        if u == v {
            return self.keyword_count(u);
        }
        let key = if u < v { (u, v) } else { (v, u) };
        match self.pairs.binary_search_by_key(&key, |p| (p.u, p.v)) {
            Ok(at) => self.pairs[at].count,
            Err(_) => 0,
        }
    }

    /// `A(u)`: the number of documents containing `u`.
    pub fn keyword_count(&self, u: KeywordId) -> u64 {
        match self.keywords.binary_search_by_key(&u, |&(k, _)| k) {
            Ok(at) => self.keywords[at].1,
            Err(_) => 0,
        }
    }

    /// `n`: the number of documents in the interval.
    pub fn num_documents(&self) -> u64 {
        self.num_documents
    }

    /// Number of distinct keywords observed.
    pub fn num_keywords(&self) -> usize {
        self.keywords.len()
    }

    /// Number of distinct co-occurring keyword pairs (graph edges before
    /// pruning).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Iterate over `(u, v, A(u,v))` triplets with `u < v`, in ascending
    /// `(u, v)` order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (KeywordId, KeywordId, u64)> + '_ {
        self.pairs.iter().map(|p| (p.u, p.v, p.count))
    }

    /// Iterate over `(u, A(u))` entries, in ascending keyword order.
    pub fn iter_keywords(&self) -> impl Iterator<Item = (KeywordId, u64)> + '_ {
        self.keywords.iter().copied()
    }

    /// The `(u, v)`-sorted pair array itself, shared rather than copied.
    pub fn shared_pairs(&self) -> Arc<Vec<KeywordPair>> {
        Arc::clone(&self.pairs)
    }
}

/// Counts keyword pairs over a collection of documents.
#[derive(Debug, Clone, Default)]
pub struct PairCounter {
    config: PairCountConfig,
}

impl PairCounter {
    /// A counter using the in-memory strategy.
    pub fn in_memory() -> Self {
        PairCounter {
            config: PairCountConfig::default(),
        }
    }

    /// A counter using the external-sort strategy.
    pub fn external() -> Self {
        PairCounter {
            config: PairCountConfig::external(),
        }
    }

    /// A counter with an explicit configuration.
    pub fn with_config(config: PairCountConfig) -> Self {
        PairCounter { config }
    }

    /// Count all keyword pairs over `documents`.
    pub fn count(&self, documents: &[Document]) -> std::io::Result<PairCounts> {
        if self.config.external {
            self.count_external(documents)
        } else {
            Ok(count_in_memory(documents))
        }
    }

    fn count_external(&self, documents: &[Document]) -> std::io::Result<PairCounts> {
        let mut sorter: ExternalSorter<(u32, u32)> = ExternalSorter::new(self.config.sort.clone())?;
        for doc in documents {
            let keywords = doc.keywords();
            for (i, &u) in keywords.iter().enumerate() {
                // The (u,u) self pair carries A(u), exactly as in the paper.
                sorter.push((u.0, u.0))?;
                for &v in &keywords[i + 1..] {
                    sorter.push((u.0, v.0))?;
                }
            }
        }
        // The sorted output arrives in `(u, v)` order, and `(u,u)` sorts
        // before every `(u,v)` with `v > u`, so both arrays fill in order.
        let mut pairs = Vec::new();
        let mut keywords = Vec::new();
        sort_and_count(sorter, |(u, v), count| {
            if u == v {
                keywords.push((KeywordId(u), count));
            } else {
                pairs.push(KeywordPair {
                    u: KeywordId(u),
                    v: KeywordId(v),
                    count,
                });
            }
        })?;
        pairs.shrink_to_fit();
        keywords.shrink_to_fit();
        Ok(PairCounts {
            pairs: Arc::new(pairs),
            keywords,
            num_documents: documents.len() as u64,
        })
    }
}

/// Sort-and-count in memory. Keyword ids are dense vocabulary indices, so
/// per-keyword state lives in arrays indexed by id:
///
/// 1. count `A(u)` and the number of partners `v > u` of every `u`;
/// 2. lay the buckets out back to back and scatter each document's partners
///    into them (a counting sort of the pair occurrences on `u`);
/// 3. sort each bucket, so identical pairs become adjacent, and count the
///    runs into the pair array, which ends with exact capacity.
fn count_in_memory(documents: &[Document]) -> PairCounts {
    let universe = documents
        .iter()
        .filter_map(|doc| doc.keywords().last())
        .map(|k| k.index() + 1)
        .max()
        .unwrap_or(0);
    let mut keyword_counts = vec![0u64; universe];
    // `ends[u]` is first the end of `u`'s bucket; scattering moves it down
    // to the bucket's start. `ends[universe]` stays the total.
    let mut ends = vec![0usize; universe + 1];
    for doc in documents {
        let keywords = doc.keywords();
        for (i, u) in keywords.iter().enumerate() {
            keyword_counts[u.index()] += 1;
            ends[u.index()] += keywords.len() - 1 - i;
        }
    }
    let mut total = 0;
    for end in &mut ends[..universe] {
        total += *end;
        *end = total;
    }
    ends[universe] = total;

    let mut partners = vec![0u32; total];
    for doc in documents {
        let keywords = doc.keywords();
        for (i, u) in keywords.iter().enumerate() {
            let tail = &keywords[i + 1..];
            let start = ends[u.index()] - tail.len();
            ends[u.index()] = start;
            for (slot, v) in partners[start..].iter_mut().zip(tail) {
                *slot = v.0;
            }
        }
    }

    // Reserve the occurrence count, an upper bound on the distinct pairs,
    // and shrink once filled. A large reservation is mapped rather than
    // carved from the heap, only the pages written become resident, and the
    // shrink hands the tail back without a copy; sizing the array exactly up
    // front instead lets the allocator leave freed arrays of earlier
    // intervals resident as heap holes (docs/performance.md).
    let mut pairs = Vec::with_capacity(total);
    for (u, bucket) in ends.windows(2).enumerate() {
        let u = KeywordId(u as u32);
        let bucket = &mut partners[bucket[0]..bucket[1]];
        bucket.sort_unstable();
        for run in bucket.chunk_by(|a, b| a == b) {
            pairs.push(KeywordPair {
                u,
                v: KeywordId(run[0]),
                count: run.len() as u64,
            });
        }
    }
    pairs.shrink_to_fit();

    let mut keywords = Vec::with_capacity(keyword_counts.iter().filter(|&&c| c > 0).count());
    for (u, &count) in keyword_counts.iter().enumerate() {
        if count > 0 {
            keywords.push((KeywordId(u as u32), count));
        }
    }
    PairCounts {
        pairs: Arc::new(pairs),
        keywords,
        num_documents: documents.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocumentId;
    use crate::timeline::IntervalId;
    use bsc_util::DetRng;

    fn doc(id: u64, keywords: &[u32]) -> Document {
        Document::new(
            DocumentId(id),
            IntervalId(0),
            keywords.iter().map(|&k| KeywordId(k)),
        )
    }

    #[test]
    fn counts_simple_corpus() {
        let docs = vec![
            doc(1, &[1, 2, 3]),
            doc(2, &[1, 2]),
            doc(3, &[2, 3]),
            doc(4, &[4]),
        ];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        assert_eq!(counts.num_documents(), 4);
        assert_eq!(counts.keyword_count(KeywordId(1)), 2);
        assert_eq!(counts.keyword_count(KeywordId(2)), 3);
        assert_eq!(counts.keyword_count(KeywordId(3)), 2);
        assert_eq!(counts.keyword_count(KeywordId(4)), 1);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(2)), 2);
        assert_eq!(counts.pair_count(KeywordId(2), KeywordId(1)), 2);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(3)), 1);
        assert_eq!(counts.pair_count(KeywordId(2), KeywordId(3)), 2);
        assert_eq!(counts.pair_count(KeywordId(1), KeywordId(4)), 0);
        assert_eq!(counts.num_keywords(), 4);
        assert_eq!(counts.num_pairs(), 3);
    }

    #[test]
    fn self_pair_count_equals_keyword_count() {
        let docs = vec![doc(1, &[7, 8]), doc(2, &[7])];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        assert_eq!(counts.pair_count(KeywordId(7), KeywordId(7)), 2);
    }

    #[test]
    fn external_matches_in_memory_on_fixed_corpus() {
        let docs = vec![
            doc(1, &[1, 2, 3, 4]),
            doc(2, &[2, 3]),
            doc(3, &[1, 4, 5]),
            doc(4, &[5]),
            doc(5, &[1, 2, 3, 4, 5]),
        ];
        let a = PairCounter::in_memory().count(&docs).unwrap();
        let config = PairCountConfig {
            external: true,
            sort: SortConfig::tiny(),
        };
        let b = PairCounter::with_config(config).count(&docs).unwrap();
        assert_eq!(a.num_documents(), b.num_documents());
        for u in 1..=5u32 {
            assert_eq!(a.keyword_count(KeywordId(u)), b.keyword_count(KeywordId(u)));
            for v in 1..=5u32 {
                assert_eq!(
                    a.pair_count(KeywordId(u), KeywordId(v)),
                    b.pair_count(KeywordId(u), KeywordId(v)),
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn empty_corpus() {
        let counts = PairCounter::in_memory().count(&[]).unwrap();
        assert_eq!(counts.num_documents(), 0);
        assert_eq!(counts.num_keywords(), 0);
        assert_eq!(counts.num_pairs(), 0);
    }

    /// Generate a random corpus: `num_docs` documents, each a random subset
    /// of the keyword universe `[0, universe)`.
    fn random_docs(
        rng: &mut DetRng,
        num_docs: usize,
        universe: u32,
        max_words: usize,
    ) -> Vec<Document> {
        (0..num_docs)
            .map(|i| {
                let mut words: Vec<u32> = (0..rng.index(max_words + 1))
                    .map(|_| rng.below(universe as u64) as u32)
                    .collect();
                words.sort_unstable();
                words.dedup();
                doc(i as u64, &words)
            })
            .collect()
    }

    #[test]
    fn randomized_external_equals_in_memory() {
        let mut rng = DetRng::seed_from_u64(400);
        for _ in 0..16 {
            let n = rng.index(30);
            let docs = random_docs(&mut rng, n, 20, 7);
            let a = PairCounter::in_memory().count(&docs).unwrap();
            let config = PairCountConfig {
                external: true,
                sort: SortConfig::tiny(),
            };
            let b = PairCounter::with_config(config).count(&docs).unwrap();
            assert_eq!(a.num_documents(), b.num_documents());
            for u in 0..20u32 {
                assert_eq!(a.keyword_count(KeywordId(u)), b.keyword_count(KeywordId(u)));
                for v in (u + 1)..20u32 {
                    assert_eq!(
                        a.pair_count(KeywordId(u), KeywordId(v)),
                        b.pair_count(KeywordId(u), KeywordId(v))
                    );
                }
            }
        }
    }

    #[test]
    fn randomized_pair_count_bounded_by_keyword_counts() {
        let mut rng = DetRng::seed_from_u64(401);
        for _ in 0..16 {
            let n = 1 + rng.index(19);
            let docs = random_docs(&mut rng, n, 10, 5);
            let counts = PairCounter::in_memory().count(&docs).unwrap();
            for (u, v, c) in counts.iter_pairs() {
                assert!(c <= counts.keyword_count(u));
                assert!(c <= counts.keyword_count(v));
                assert!(counts.keyword_count(u) <= counts.num_documents());
            }
        }
    }
}
