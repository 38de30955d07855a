//! The keyword co-occurrence graph `G`.
//!
//! Vertices are keywords; an edge `(u, v)` with weight `A(u,v)` exists when
//! at least one document of the interval contains both keywords. The graph
//! also carries the per-keyword document counts `A(u)` and the interval's
//! document count `n`, which the χ²/ρ statistics need.
//!
//! The edges are the `(u, v)`-sorted pair array of the [`PairCounts`] the
//! graph was built from, shared rather than copied. `A(u)` is a dense array
//! indexed by [`KeywordId`]: vocabulary ids are dense, so it costs one slot
//! per vocabulary word and is read in ascending id order without a sort.

use std::sync::Arc;

use bsc_corpus::pairs::PairCounts;
use bsc_corpus::vocabulary::KeywordId;

/// An edge of the keyword graph, with `u < v`.
pub use bsc_corpus::pairs::KeywordPair as KeywordEdge;

/// The keyword graph `G` for one temporal interval.
#[derive(Debug, Clone, Default)]
pub struct KeywordGraph {
    num_documents: u64,
    /// `A(u)` by keyword id; `None` for an id with no recorded count.
    keyword_counts: Vec<Option<u64>>,
    /// Sorted by `(u, v)`, without duplicates.
    edges: Arc<Vec<KeywordEdge>>,
}

impl KeywordGraph {
    /// `n`: the number of documents of the interval.
    pub fn num_documents(&self) -> u64 {
        self.num_documents
    }

    /// Number of distinct keywords (vertices).
    pub fn num_keywords(&self) -> usize {
        self.keyword_counts.iter().filter(|c| c.is_some()).count()
    }

    /// Number of co-occurrence edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `A(u)`: number of documents containing keyword `u`.
    pub fn keyword_count(&self, u: KeywordId) -> u64 {
        self.keyword_counts
            .get(u.index())
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// The edges of the graph, sorted by `(u, v)`.
    pub fn edges(&self) -> &[KeywordEdge] {
        &self.edges
    }

    /// Iterate over `(u, A(u))`, in ascending keyword order.
    pub fn keywords(&self) -> impl Iterator<Item = (KeywordId, u64)> + '_ {
        self.keyword_counts
            .iter()
            .enumerate()
            .filter_map(|(u, count)| count.map(|count| (KeywordId(u as u32), count)))
    }
}

/// Builder for [`KeywordGraph`].
#[derive(Debug, Clone, Default)]
pub struct KeywordGraphBuilder {
    graph: KeywordGraph,
}

impl From<KeywordGraph> for KeywordGraphBuilder {
    /// Continue building from an existing graph. The first [`edge`] copies
    /// an edge array the graph still shares; until then nothing is copied.
    ///
    /// [`edge`]: KeywordGraphBuilder::edge
    fn from(graph: KeywordGraph) -> Self {
        KeywordGraphBuilder { graph }
    }
}

impl KeywordGraphBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the interval document count `n`.
    pub fn num_documents(mut self, n: u64) -> Self {
        self.graph.num_documents = n;
        self
    }

    /// Record the per-keyword document count `A(u)`, replacing an earlier
    /// count for `u`.
    pub fn keyword(mut self, u: KeywordId, count: u64) -> Self {
        let counts = &mut self.graph.keyword_counts;
        if counts.len() <= u.index() {
            counts.resize(u.index() + 1, None);
        }
        counts[u.index()] = Some(count);
        self
    }

    /// Add a co-occurrence edge with count `A(u,v)`, replacing the count of
    /// an edge already present. Endpoints are normalized so that the stored
    /// edge has `u < v`; self loops are ignored. An edge array shared with
    /// a [`PairCounts`] or another graph is copied first, never mutated.
    pub fn edge(mut self, u: KeywordId, v: KeywordId, count: u64) -> Self {
        if u == v {
            return self;
        }
        let (u, v) = if u < v { (u, v) } else { (v, u) };
        let edges = Arc::make_mut(&mut self.graph.edges);
        match edges.binary_search_by_key(&(u, v), |e| (e.u, e.v)) {
            Ok(at) => edges[at].count = count,
            Err(at) => edges.insert(at, KeywordEdge { u, v, count }),
        }
        self
    }

    /// Finish building.
    pub fn build(self) -> KeywordGraph {
        self.graph
    }

    /// Build a keyword graph directly from aggregated pair counts. The
    /// graph shares the counts' `(u, v)`-sorted pair array as its edge
    /// list, so nothing is copied or re-sorted.
    pub fn from_pair_counts(counts: &PairCounts) -> KeywordGraph {
        let universe = counts
            .iter_keywords()
            .last()
            .map_or(0, |(u, _)| u.index() + 1);
        let mut keyword_counts = vec![None; universe];
        for (u, count) in counts.iter_keywords() {
            keyword_counts[u.index()] = Some(count);
        }
        KeywordGraph {
            num_documents: counts.num_documents(),
            keyword_counts,
            edges: counts.shared_pairs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_corpus::document::{Document, DocumentId};
    use bsc_corpus::pairs::PairCounter;
    use bsc_corpus::timeline::IntervalId;

    fn kw(id: u32) -> KeywordId {
        KeywordId(id)
    }

    #[test]
    fn builder_normalizes_edges_and_skips_self_loops() {
        let graph = KeywordGraphBuilder::new()
            .num_documents(10)
            .keyword(kw(1), 4)
            .keyword(kw(2), 5)
            .edge(kw(2), kw(1), 3)
            .edge(kw(1), kw(1), 9)
            .build();
        assert_eq!(graph.num_edges(), 1);
        let edge = graph.edges()[0];
        assert_eq!((edge.u, edge.v, edge.count), (kw(1), kw(2), 3));
        assert_eq!(graph.num_keywords(), 2);
        assert_eq!(graph.keyword_count(kw(2)), 5);
        assert_eq!(graph.keyword_count(kw(9)), 0);
        assert_eq!(graph.num_documents(), 10);
    }

    #[test]
    fn from_pair_counts_matches_manual_construction() {
        let docs = vec![
            Document::new(DocumentId(1), IntervalId(0), [kw(1), kw(2), kw(3)]),
            Document::new(DocumentId(2), IntervalId(0), [kw(1), kw(2)]),
            Document::new(DocumentId(3), IntervalId(0), [kw(3)]),
        ];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        let graph = KeywordGraphBuilder::from_pair_counts(&counts);
        assert_eq!(graph.num_documents(), 3);
        assert_eq!(graph.num_keywords(), 3);
        assert_eq!(graph.num_edges(), 3);
        let edge_12 = graph
            .edges()
            .iter()
            .find(|e| e.u == kw(1) && e.v == kw(2))
            .unwrap();
        assert_eq!(edge_12.count, 2);
    }

    #[test]
    fn keyword_recorded_twice_keeps_the_last_count() {
        let graph = KeywordGraphBuilder::new()
            .keyword(kw(3), 4)
            .keyword(kw(3), 9)
            .build();
        assert_eq!(graph.keyword_count(kw(3)), 9);
        assert_eq!(graph.num_keywords(), 1);
        assert_eq!(graph.keywords().collect::<Vec<_>>(), vec![(kw(3), 9)]);
    }

    #[test]
    fn keyword_recorded_with_count_zero_is_still_a_vertex() {
        let graph = KeywordGraphBuilder::new()
            .keyword(kw(5), 0)
            .keyword(kw(2), 1)
            .build();
        assert_eq!(graph.num_keywords(), 2);
        assert_eq!(graph.keyword_count(kw(5)), 0);
        assert_eq!(
            graph.keywords().collect::<Vec<_>>(),
            vec![(kw(2), 1), (kw(5), 0)]
        );
    }

    #[test]
    fn edges_stay_sorted_and_unique_in_any_insertion_order() {
        let graph = KeywordGraphBuilder::new()
            .edge(kw(3), kw(4), 1)
            .edge(kw(2), kw(1), 2)
            .edge(kw(1), kw(5), 3)
            .edge(kw(4), kw(3), 7)
            .build();
        let edges: Vec<_> = graph.edges().iter().map(|e| (e.u, e.v, e.count)).collect();
        assert_eq!(
            edges,
            vec![(kw(1), kw(2), 2), (kw(1), kw(5), 3), (kw(3), kw(4), 7)]
        );
    }

    #[test]
    fn editing_a_graph_built_from_counts_never_touches_the_counts() {
        let docs = vec![
            Document::new(DocumentId(1), IntervalId(0), [kw(1), kw(2), kw(3)]),
            Document::new(DocumentId(2), IntervalId(0), [kw(1), kw(2)]),
        ];
        let counts = PairCounter::in_memory().count(&docs).unwrap();
        let before: Vec<_> = counts.iter_pairs().collect();
        let shared = KeywordGraphBuilder::from_pair_counts(&counts);
        let edited = KeywordGraphBuilder::from(shared.clone())
            .edge(kw(1), kw(2), 100)
            .edge(kw(0), kw(9), 7)
            .build();

        assert_eq!(counts.iter_pairs().collect::<Vec<_>>(), before);
        assert_eq!(counts.pair_count(kw(1), kw(2)), 2);
        let unedited: Vec<_> = shared.edges().iter().map(|e| (e.u, e.v, e.count)).collect();
        assert_eq!(unedited, before);
        let edges: Vec<_> = edited.edges().iter().map(|e| (e.u, e.v, e.count)).collect();
        assert_eq!(
            edges,
            vec![
                (kw(0), kw(9), 7),
                (kw(1), kw(2), 100),
                (kw(1), kw(3), 1),
                (kw(2), kw(3), 1)
            ]
        );
    }

    #[test]
    fn empty_corpus_gives_an_empty_graph() {
        let counts = PairCounter::in_memory().count(&[]).unwrap();
        let graph = KeywordGraphBuilder::from_pair_counts(&counts);
        assert_eq!(graph.num_documents(), 0);
        assert_eq!(graph.num_keywords(), 0);
        assert_eq!(graph.num_edges(), 0);
        assert!(graph.edges().is_empty());
        assert_eq!(graph.keywords().count(), 0);
        assert_eq!(graph.keyword_count(kw(0)), 0);
    }
}
