//! Byte-identity across commits: the cluster graph (every edge and every
//! weight bit) and the top-k answer of `Pipeline::run` on the small
//! synthetic corpus are pinned as FNV-1a digests for three seeds.
//!
//! Every other byte-identity suite compares two executions of the same
//! build. These digests were captured once and are checked into the test,
//! so a change to pair counting, keyword-graph construction, pruning or
//! cluster extraction that moves a single bit of the answer fails here. If
//! a digest changes on purpose (a deliberate change of the answer), say so
//! in the change log next to the new value.

use blogstable::corpus::pairs::PairCountConfig;
use blogstable::prelude::*;
use blogstable::storage::external_sort::SortConfig;

/// `(seed, cluster-graph digest, top-k digest)` for `SyntheticConfig::small()`
/// under the default `PipelineParams`.
const GOLDEN: [(u64, u64, u64); 3] = [
    (1, 0x6d41_599d_56cf_05eb, 0xd559_810a_0266_a33a),
    (2, 0x460f_3ed1_0e68_a10f, 0x3e4f_a7c0_03f9_e405),
    (7, 0x63b7_1bd5_0206_6e31, 0x9cb6_69ba_08ad_870d),
];

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Shape, every edge and every weight bit of the cluster graph.
fn graph_digest(graph: &ClusterGraph) -> u64 {
    let mut hash = Fnv::new();
    hash.mix(graph.num_intervals() as u64);
    hash.mix(u64::from(graph.gap()));
    for interval in 0..graph.num_intervals() as u32 {
        hash.mix(u64::from(graph.nodes_in_interval(interval)));
    }
    for (from, to, weight) in graph.edges() {
        hash.mix(from.to_u64());
        hash.mix(to.to_u64());
        hash.mix(weight.to_bits());
    }
    hash.0
}

/// Node ids and exact weight bits of a top-k answer.
fn paths_digest(paths: &[ClusterPath]) -> u64 {
    let mut hash = Fnv::new();
    hash.mix(paths.len() as u64);
    for path in paths {
        hash.mix(path.nodes().len() as u64);
        for node in path.nodes() {
            hash.mix(node.to_u64());
        }
        hash.mix(path.weight().to_bits());
    }
    hash.0
}

fn digests(seed: u64, params: PipelineParams) -> (u64, u64) {
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small().with_seed(seed)).generate();
    let outcome = Pipeline::new(params)
        .expect("valid parameters")
        .run(&corpus)
        .expect("pipeline runs");
    (
        graph_digest(&outcome.cluster_graph),
        paths_digest(&outcome.stable_paths),
    )
}

#[test]
fn pipeline_digests_match_the_pinned_values() {
    for (seed, graph, paths) in GOLDEN {
        let got = digests(seed, PipelineParams::default());
        assert_eq!(
            got,
            (graph, paths),
            "seed {seed}: got ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn external_pair_counting_reproduces_the_pinned_values() {
    let params = PipelineParams {
        pair_counting: PairCountConfig {
            external: true,
            sort: SortConfig {
                max_records_in_memory: 4096,
                merge_fan_in: 4,
            },
        },
        ..PipelineParams::default()
    };
    for (seed, graph, paths) in GOLDEN {
        assert_eq!(digests(seed, params.clone()), (graph, paths), "seed {seed}");
    }
}
