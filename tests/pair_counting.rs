//! Whole-structure equivalence of the two pair counters.
//!
//! On random corpora the in-memory counting sort, the external merge sort
//! (spilling at every 16 records) and a naive `BTreeMap` reference must give
//! element-for-element equal `iter_pairs()` / `iter_keywords()` sequences,
//! and equal point lookups in both argument orders, absent ids included.
//! The sequences, and the edges and keywords of the keyword graph built from
//! them, must be strictly ascending: every consumer downstream relies on that
//! order for byte-identical answers.

use std::collections::BTreeMap;

use blogstable::corpus::pairs::{PairCountConfig, PairCounter, PairCounts};
use blogstable::graph::keyword_graph::KeywordGraphBuilder;
use blogstable::prelude::*;
use blogstable::storage::external_sort::SortConfig;
use bsc_util::DetRng;

type Pairs = Vec<(KeywordId, KeywordId, u64)>;
type Keywords = Vec<(KeywordId, u64)>;

/// `num_docs` documents over the keyword ids `[0, universe)`, each with up
/// to `max_words` words (some empty, some with repeats `Document::new`
/// removes).
fn random_corpus(
    rng: &mut DetRng,
    num_docs: usize,
    universe: u64,
    max_words: usize,
) -> Vec<Document> {
    (0..num_docs)
        .map(|i| {
            let words: Vec<KeywordId> = (0..rng.index(max_words + 1))
                .map(|_| KeywordId(rng.below(universe) as u32))
                .collect();
            Document::new(DocumentId(i as u64), IntervalId(0), words)
        })
        .collect()
}

/// Count every pair and keyword occurrence into ordered maps.
fn reference(documents: &[Document]) -> (Pairs, Keywords) {
    let mut pairs = BTreeMap::new();
    let mut keywords = BTreeMap::new();
    for doc in documents {
        let words = doc.keywords();
        for (i, &u) in words.iter().enumerate() {
            *keywords.entry(u).or_insert(0) += 1;
            for &v in &words[i + 1..] {
                *pairs.entry((u, v)).or_insert(0) += 1;
            }
        }
    }
    (
        pairs.into_iter().map(|((u, v), c)| (u, v, c)).collect(),
        keywords.into_iter().collect(),
    )
}

fn sequences(counts: &PairCounts) -> (Pairs, Keywords) {
    (
        counts.iter_pairs().collect(),
        counts.iter_keywords().collect(),
    )
}

/// Every point lookup over the universe plus two ids past it, in both
/// argument orders: present pairs give their count, absent ones 0, and
/// `pair_count(u, u)` gives `A(u)`.
fn assert_lookups_match(
    counts: &PairCounts,
    pairs: &Pairs,
    keywords: &Keywords,
    universe: u64,
    round: usize,
    name: &str,
) {
    let pair_map: BTreeMap<_, _> = pairs.iter().map(|&(u, v, c)| ((u, v), c)).collect();
    let keyword_map: BTreeMap<_, _> = keywords.iter().copied().collect();
    let ids = (0..universe as u32 + 2).map(KeywordId);
    for u in ids.clone() {
        let a_u = keyword_map.get(&u).copied().unwrap_or(0);
        assert_eq!(
            counts.keyword_count(u),
            a_u,
            "round {round}: {name} A({u:?})"
        );
        for v in ids.clone() {
            let expected = if u == v {
                a_u
            } else {
                pair_map.get(&(u.min(v), u.max(v))).copied().unwrap_or(0)
            };
            assert_eq!(
                counts.pair_count(u, v),
                expected,
                "round {round}: {name} A({u:?}, {v:?})"
            );
        }
    }
}

fn strictly_ascending<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

#[test]
fn both_counters_equal_the_reference_element_for_element() {
    let external = PairCounter::with_config(PairCountConfig {
        external: true,
        sort: SortConfig::tiny(),
    });
    let mut rng = DetRng::seed_from_u64(0x5041_4952);
    for round in 0..40 {
        let num_docs = rng.index(40);
        let universe = 1 + rng.below(if round % 4 == 0 { 400 } else { 30 });
        let max_words = rng.index(12);
        let documents = random_corpus(&mut rng, num_docs, universe, max_words);

        let (pairs, keywords) = reference(&documents);
        let in_memory = PairCounter::in_memory().count(&documents).unwrap();
        let spilled = external.count(&documents).unwrap();
        for (name, counts) in [("in-memory", &in_memory), ("external", &spilled)] {
            assert_eq!(
                sequences(counts),
                (pairs.clone(), keywords.clone()),
                "round {round}: {name}"
            );
            assert_eq!(counts.num_documents(), num_docs as u64);
            assert_eq!(counts.num_pairs(), pairs.len());
            assert_eq!(counts.num_keywords(), keywords.len());
            assert_lookups_match(counts, &pairs, &keywords, universe, round, name);
        }
        let uv: Vec<_> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();
        assert!(strictly_ascending(&uv), "round {round}: iter_pairs order");
        assert!(pairs.iter().all(|&(u, v, _)| u < v));
        let ids: Vec<_> = keywords.iter().map(|&(u, _)| u).collect();
        assert!(
            strictly_ascending(&ids),
            "round {round}: iter_keywords order"
        );

        let graph = KeywordGraphBuilder::from_pair_counts(&in_memory);
        let edges: Vec<_> = graph.edges().iter().map(|e| (e.u, e.v, e.count)).collect();
        assert_eq!(edges, pairs, "round {round}: graph edges");
        assert_eq!(graph.keywords().collect::<Keywords>(), keywords);
        assert_eq!(graph.num_keywords(), keywords.len());
        assert_eq!(graph.num_documents(), num_docs as u64);
        for &(u, count) in &keywords {
            assert_eq!(graph.keyword_count(u), count);
        }
    }
}

#[test]
fn counters_agree_on_a_synthetic_week() {
    let corpus =
        SyntheticBlogosphere::new(SyntheticConfig::small().with_posts_per_interval(120)).generate();
    let external = PairCounter::with_config(PairCountConfig {
        external: true,
        sort: SortConfig {
            max_records_in_memory: 512,
            merge_fan_in: 4,
        },
    });
    for (interval, documents) in corpus.timeline.iter() {
        let expected = reference(documents);
        let in_memory = PairCounter::in_memory().count(documents).unwrap();
        let spilled = external.count(documents).unwrap();
        assert_eq!(sequences(&in_memory), expected, "{interval:?}: in-memory");
        assert_eq!(sequences(&spilled), expected, "{interval:?}: external");
    }
}
