//! Correctness checks on the program's answers.
//!
//! Each check derives what it expects from an independent computation (Δ
//! recomputed over the repository labeling, another engine, an exhaustive
//! generator) or from a property the method must have — never from a stored
//! copy of an earlier output. The tests at the bottom feed every check a
//! corrupted answer and confirm it fails.

use std::collections::{BTreeSet, HashSet};

use xsm_matcher::{Objective, ObjectiveConfig, SchemaMapping};
use xsm_repo::SchemaRepository;
use xsm_schema::{NodeId, SchemaTree, TreeId};
use xsm_service::{MatchQuery, MatchResponse};

pub type Check = Result<(), String>;

/// At most `top_k` mappings, best first.
pub fn top_k_sorted(query: &MatchQuery, response: &MatchResponse) -> Check {
    if response.mappings.len() > query.top_k {
        return Err(format!(
            "{} mappings exceed top_k = {}",
            response.mappings.len(),
            query.top_k
        ));
    }
    for pair in response.mappings.windows(2) {
        if pair[1].score > pair[0].score {
            return Err(format!(
                "mappings not sorted by score: {} before {}",
                pair[0].score, pair[1].score
            ));
        }
    }
    Ok(())
}

/// Every mapping's Δ, recomputed with [`Objective::delta`] over its
/// repository tree's labeling, equals the reported score bit for bit and
/// reaches the query's δ.
pub fn scores_recompute(
    query: &MatchQuery,
    response: &MatchResponse,
    repo: &SchemaRepository,
) -> Check {
    let objective = objective_for(&query.personal);
    for mapping in &response.mappings {
        check_delta(&objective, mapping, repo, query.threshold)?;
    }
    Ok(())
}

/// The objective the engines score with (default α and path norm) for a
/// personal schema.
pub fn objective_for(personal: &SchemaTree) -> Objective {
    Objective::new(
        ObjectiveConfig::default(),
        personal.len(),
        personal.edge_count(),
    )
}

/// One mapping: recomputed Δ equals its score exactly and is at least δ.
pub fn check_delta(
    objective: &Objective,
    mapping: &SchemaMapping,
    repo: &SchemaRepository,
    delta: f64,
) -> Check {
    let tree = mapping
        .repo_tree()
        .ok_or_else(|| "an empty mapping was returned".to_string())?;
    let labeling = repo
        .labeling(tree)
        .ok_or_else(|| format!("mapping into unknown tree {tree:?}"))?;
    let recomputed = objective.delta(mapping, labeling);
    if recomputed.to_bits() != mapping.score.to_bits() {
        return Err(format!(
            "reported score {} but Δ recomputes to {recomputed} (tree {tree:?})",
            mapping.score
        ));
    }
    if recomputed < delta {
        return Err(format!(
            "retained mapping has Δ = {recomputed} < δ = {delta}"
        ));
    }
    Ok(())
}

/// No mapping touches a tree in `tombstoned`.
pub fn no_tombstoned(response: &MatchResponse, tombstoned: &HashSet<TreeId>) -> Check {
    for mapping in &response.mappings {
        for node in mapping.repo_nodes() {
            if tombstoned.contains(&node.tree) {
                return Err(format!("answer holds {node}, whose tree was deleted"));
            }
        }
    }
    Ok(())
}

/// A fleet answer covers every shard.
pub fn complete(response: &MatchResponse) -> Check {
    if response.incomplete || !response.failed_shards.is_empty() {
        return Err(format!(
            "incomplete answer, failed shards {:?}",
            response.failed_shards
        ));
    }
    Ok(())
}

/// Two answers to the same query agree in their result content.
pub fn same_digest(what: &str, got: &MatchResponse, expected: &MatchResponse) -> Check {
    if got.result_digest() != expected.result_digest() {
        return Err(format!(
            "{what}: {} differs from {}",
            got.result_digest(),
            expected.result_digest()
        ));
    }
    Ok(())
}

/// A mapping as the set of its (personal node, repository node) pairs,
/// sorted: the order of pairs inside a mapping is not canonical.
pub type PairSet = Vec<(NodeId, u32, u32)>;

pub fn pair_set(mapping: &SchemaMapping) -> PairSet {
    let mut pairs: PairSet = mapping
        .pairs()
        .iter()
        .map(|p| (p.personal, p.repo.tree.0, p.repo.node.0))
        .collect();
    pairs.sort();
    pairs
}

pub fn mapping_sets(mappings: &[SchemaMapping]) -> BTreeSet<PairSet> {
    mappings.iter().map(pair_set).collect()
}

/// Two generators retained exactly the same mappings.
pub fn same_mappings(what: &str, got: &[SchemaMapping], expected: &[SchemaMapping]) -> Check {
    let (got, expected) = (mapping_sets(got), mapping_sets(expected));
    if got != expected {
        let missing = expected.difference(&got).count();
        let extra = got.difference(&expected).count();
        return Err(format!(
            "{what}: {missing} expected mappings missing, {extra} unexpected"
        ));
    }
    Ok(())
}

/// Every mapping of `subset` is also in `superset`.
pub fn subset_of(what: &str, subset: &[SchemaMapping], superset: &[SchemaMapping]) -> Check {
    let sup = mapping_sets(superset);
    let outside = mapping_sets(subset).difference(&sup).count();
    if outside > 0 {
        return Err(format!(
            "{what}: {outside} mappings not retained by the baseline"
        ));
    }
    Ok(())
}

/// A clustered search space is no larger than the baseline's.
pub fn no_larger(what: &str, clustered: u128, baseline: u128) -> Check {
    if clustered > baseline {
        return Err(format!(
            "{what}: search space {clustered} exceeds the baseline's {baseline}"
        ));
    }
    Ok(())
}

/// Fold many outcomes of one check into its first failure (and how many
/// cases it covered).
pub fn all(outcomes: impl IntoIterator<Item = Check>) -> Check {
    let mut n = 0usize;
    let mut failures = 0usize;
    let mut first: Option<String> = None;
    for outcome in outcomes {
        n += 1;
        if let Err(e) = outcome {
            failures += 1;
            first.get_or_insert(e);
        }
    }
    match first {
        None if n == 0 => Err("the check covered no case".to_string()),
        None => Ok(()),
        Some(e) => Err(format!("{failures} of {n} failed; first: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_core::{ClusteredMatcher, ClusteringVariant};
    use xsm_matcher::element::{match_elements_features, ElementMatchConfig};
    use xsm_matcher::generator::exhaustive::ExhaustiveGenerator;
    use xsm_matcher::{BranchAndBoundGenerator, MatchingProblem};
    use xsm_repo::NameIndex;
    use xsm_service::{EngineConfig, MatchEngine};

    use crate::inputs;

    /// A small engine and the first answers that hold mappings.
    fn answered() -> (SchemaRepository, Vec<(MatchQuery, MatchResponse)>) {
        let repo = inputs::repository(11, 2_000);
        let engine = MatchEngine::new(repo.clone(), EngineConfig::default().with_workers(1));
        let mut stream = inputs::QueryStream::new(&repo, 11);
        let mut out = Vec::new();
        while out.len() < 2 {
            let query = stream.next_query();
            let response = engine.query(query.clone());
            if response.mappings.len() >= 2 {
                out.push((query, response));
            }
        }
        (repo, out)
    }

    #[test]
    fn a_perturbed_score_fails_the_recompute_check() {
        let (repo, answers) = answered();
        let (query, mut response) = answers[0].clone();
        top_k_sorted(&query, &response).unwrap();
        scores_recompute(&query, &response, &repo).unwrap();
        response.mappings[0].score = f64::from_bits(response.mappings[0].score.to_bits() + 1);
        assert!(scores_recompute(&query, &response, &repo).is_err());
        let (query, mut response) = answers[0].clone();
        response.mappings.swap(0, 1);
        if response.mappings[0].score != response.mappings[1].score {
            assert!(top_k_sorted(&query, &response).is_err());
        }
        let mut short = query.clone();
        short.top_k = 1;
        assert!(top_k_sorted(&short, &answers[0].1).is_err());
    }

    #[test]
    fn a_node_from_a_tombstoned_tree_fails() {
        let (_, answers) = answered();
        let response = &answers[0].1;
        no_tombstoned(response, &HashSet::new()).unwrap();
        let dead: HashSet<TreeId> = [response.mappings[0].repo_tree().unwrap()].into();
        assert!(no_tombstoned(response, &dead).is_err());
    }

    #[test]
    fn a_swapped_shard_answer_fails_the_digest_check() {
        let (_, answers) = answered();
        let (a, b) = (&answers[0].1, &answers[1].1);
        same_digest("self", a, a).unwrap();
        assert!(same_digest("swapped", a, b).is_err());
        let mut degraded = a.clone();
        complete(&degraded).unwrap();
        degraded.incomplete = true;
        degraded.failed_shards = vec![1];
        assert!(complete(&degraded).is_err());
    }

    #[test]
    fn a_dropped_retained_mapping_fails_the_generator_checks() {
        let repo = inputs::repository(5, 1_500);
        let index = NameIndex::build(&repo);
        let problem = MatchingProblem::paper_experiment();
        let candidates = match_elements_features(
            &problem.personal,
            index.features(),
            &ElementMatchConfig::default(),
            &mut Default::default(),
        );
        let tree = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
            .run_on_candidates(
                &problem,
                &repo,
                &candidates,
                &BranchAndBoundGenerator::new(),
            );
        let exhaustive = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
            .run_on_candidates(&problem, &repo, &candidates, &ExhaustiveGenerator::new());
        assert!(!tree.mappings.is_empty());
        same_mappings("b&b", &tree.mappings, &exhaustive.mappings).unwrap();
        let mut reversed: Vec<SchemaMapping> = tree
            .mappings
            .iter()
            .map(|m| {
                let mut pairs = m.pairs().to_vec();
                pairs.reverse();
                SchemaMapping::with_score(pairs, m.score)
            })
            .collect();
        same_mappings("pair order", &reversed, &exhaustive.mappings).unwrap();
        reversed.pop();
        assert!(same_mappings("dropped", &reversed, &exhaustive.mappings).is_err());
        subset_of("dropped", &reversed, &tree.mappings).unwrap();
        assert!(subset_of("extra", &tree.mappings, &reversed).is_err());
        let objective = objective_for(&problem.personal);
        for m in &tree.mappings {
            check_delta(&objective, m, &repo, problem.threshold).unwrap();
        }
        let low = SchemaMapping::with_score(tree.mappings[0].pairs().to_vec(), 0.1);
        assert!(check_delta(&objective, &low, &repo, problem.threshold).is_err());
        assert!(no_larger("space", 10, 9).is_err());
        no_larger("space", 9, 9).unwrap();
    }

    #[test]
    fn folding_reports_the_first_failure_and_refuses_an_empty_check() {
        all([Ok(()), Ok(())]).unwrap();
        let err = all([Ok(()), Err("a".into()), Err("b".into())]).unwrap_err();
        assert!(err.contains("2 of 3") && err.contains("first: a"));
        assert!(all(std::iter::empty()).is_err());
    }
}
