//! # bsc-corpus
//!
//! Text substrate for the blogstable workspace.
//!
//! The paper's cluster-generation stage (Section 3) consumes a collection of
//! blog posts per temporal interval: each post is reduced to a bag of
//! keywords after stemming and stop-word removal, every pair of keywords
//! co-occurring in a post is emitted (including the `(u,u)` self pair used to
//! count per-keyword document frequency `A(u)`), and the pairs are aggregated
//! into co-occurrence counts `A(u,v)`.
//!
//! The original evaluation uses the BlogScope crawl (75M posts); that data is
//! proprietary, so this crate also ships a **synthetic blogosphere
//! generator** ([`synthetic`]) that produces posts with the same statistical
//! structure the algorithms exploit: a background vocabulary with roughly
//! Zipfian usage, plus timed *events* whose topic keywords co-occur heavily
//! for a few intervals, drift, disappear and reappear. A library of scripted
//! January-2007-style events ([`events`]) mirrors the qualitative figures of
//! the paper (stem-cell announcement, Beckham's MLS move, the iPhone launch
//! and Cisco lawsuit, the battle of Ras Kamboni, the FA-cup replay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod events;
pub mod pairs;
pub mod stemmer;
pub mod stopwords;
pub mod synthetic;
pub mod timeline;
pub mod tokenizer;
pub mod vocabulary;

pub use document::{Document, DocumentId};
pub use pairs::{KeywordPair, PairCountConfig, PairCounter, PairCounts};
pub use stemmer::porter_stem;
pub use synthetic::{SyntheticBlogosphere, SyntheticConfig, ZipfSampler};
pub use timeline::{IntervalId, Timeline};
pub use tokenizer::Tokenizer;
pub use vocabulary::{KeywordId, Vocabulary};
