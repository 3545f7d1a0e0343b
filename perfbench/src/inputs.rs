//! Seeded inputs: repositories, the query stream and mutation batches.
//!
//! Everything here is a pure function of the run's `--seed`; the program
//! under test only ever sees the generated values.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder};
use xsm_service::{MatchQuery, QueryStrategy};

/// Share of query names perturbed into near-misses (one character edit).
pub const NEAR_MISS_SHARE: f64 = 0.25;
/// Mappings returned per query.
pub const TOP_K: usize = 10;
/// The paper's threshold δ on Δ(s, t).
pub const DELTA: f64 = 0.75;

/// Derive an independent sub-seed (splitmix64 of `seed` and a stream tag), so
/// the repository, the query draw and every mutation batch use unrelated
/// random streams of one run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator configuration of every repository the benchmark builds:
/// the paper-scale defaults (mean tree size ≈ 37, 10% large trees, 35% name
/// mutations) at `elements` elements.
pub fn repository_config(seed: u64, elements: usize) -> GeneratorConfig {
    GeneratorConfig::paper_default()
        .with_seed(seed)
        .with_target_elements(elements)
}

/// Generate the workload repository of a run.
pub fn repository(seed: u64, elements: usize) -> SchemaRepository {
    RepositoryGenerator::new(repository_config(sub_seed(seed, 1), elements)).generate()
}

/// Fresh trees for mutation batch `batch`: the first `trees` trees of a
/// repository generated from the batch's own sub-seed.
pub fn batch_trees(seed: u64, batch: u64, trees: usize, elements_hint: usize) -> Vec<SchemaTree> {
    let mut target = elements_hint.max(64);
    loop {
        let repo =
            RepositoryGenerator::new(repository_config(sub_seed(seed, 1_000 + batch), target))
                .generate();
        if repo.tree_count() >= trees {
            return repo.trees().take(trees).map(|(_, t)| t.clone()).collect();
        }
        target *= 2;
    }
}

/// An endless stream of distinct `Auto` queries over one repository's own
/// vocabulary. Each query is a three-node personal schema (a root with two
/// children) whose names are drawn uniformly from the repository's distinct
/// names; a quarter of them become near-misses. No fingerprint repeats, so
/// neither the result cache nor singleflight can answer for the pipeline.
pub struct QueryStream {
    rng: StdRng,
    names: Vec<String>,
    seen: HashSet<String>,
}

impl QueryStream {
    pub fn new(repo: &SchemaRepository, seed: u64) -> Self {
        let names: Vec<String> = repo
            .nodes()
            .map(|(_, node)| node.name.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(
            !names.is_empty(),
            "the repository has no names to draw from"
        );
        QueryStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, 2)),
            names,
            seen: HashSet::new(),
        }
    }

    /// The next query of the stream.
    pub fn next_query(&mut self) -> MatchQuery {
        loop {
            let query = self.draw();
            if self.seen.insert(query.fingerprint()) {
                return query;
            }
        }
    }

    fn draw(&mut self) -> MatchQuery {
        let [root, a, b] = [(); 3].map(|_| {
            let name = self.names[self.rng.gen_range(0..self.names.len())].clone();
            self.maybe_near_miss(name)
        });
        let personal = TreeBuilder::new("personal")
            .root(SchemaNode::element(root))
            .child(SchemaNode::element(a))
            .sibling(SchemaNode::element(b))
            .build();
        MatchQuery::new(personal)
            .with_top_k(TOP_K)
            .with_threshold(DELTA)
            .with_strategy(QueryStrategy::Auto)
    }

    /// With probability [`NEAR_MISS_SHARE`], one character edit: substitute,
    /// delete, insert or transpose at a random position.
    fn maybe_near_miss(&mut self, name: String) -> String {
        if !self.rng.gen_bool(NEAR_MISS_SHARE) {
            return name;
        }
        let mut chars: Vec<char> = name.chars().collect();
        let letter = (b'a' + self.rng.gen_range(0..26u8)) as char;
        let at = self.rng.gen_range(0..chars.len().max(1));
        match self.rng.gen_range(0..4u8) {
            0 if !chars.is_empty() => chars[at] = letter,
            1 if chars.len() > 3 => {
                chars.remove(at);
            }
            3 if chars.len() > 1 && at + 1 < chars.len() => chars.swap(at, at + 1),
            _ => chars.insert(at, letter),
        }
        chars.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_distinct_and_perturbed() {
        let repo = repository(3, 1_500);
        let draw = |seed| {
            let mut s = QueryStream::new(&repo, seed);
            (0..300)
                .map(|_| s.next_query().fingerprint())
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same queries");
        assert_ne!(a, draw(8), "another seed, other queries");
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "no fingerprint repeats");
        let vocabulary: HashSet<String> = repo.nodes().map(|(_, n)| n.name.clone()).collect();
        let mut s = QueryStream::new(&repo, 7);
        let (mut names, mut misses) = (0, 0);
        for _ in 0..300 {
            let q = s.next_query();
            for id in q.personal.preorder() {
                names += 1;
                if !vocabulary.contains(q.personal.name_of(id)) {
                    misses += 1;
                }
            }
        }
        let share = misses as f64 / names as f64;
        assert!((0.15..0.3).contains(&share), "near-miss share {share}");
    }
}
