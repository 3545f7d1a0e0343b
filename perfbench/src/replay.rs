//! The serving pipeline replayed from its public calls, with a span around
//! each layer: resolve → plan → filter/verify → cluster → B&B → top-k.
//!
//! This composes the calls exactly as `MatchEngine` does per query, so the
//! replay's answer must equal the engine's — every traced run checks that,
//! which keeps the per-layer numbers tied to the code that actually serves.

use xsm_core::{ClusteringConfig, ClusteringVariant, KMeansClusterer};
use xsm_matcher::element::{match_elements_features, resolve_personal_queries, ElementMatchConfig};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
use xsm_matcher::generator::{sort_mappings, MappingGenerator};
use xsm_matcher::{
    CandidateSet, GeneratorCounters, MappingElement, MatchingProblem, SchemaMapping,
};
use xsm_repo::{CandidateScratch, LengthWindow, MergePolicy, NameIndex, SchemaRepository};
use xsm_service::{MatchQuery, MatchResponse, PlannedStrategy, PlannerConfig, QueryPlanner};
use xsm_similarity::features::fuzzy_features;
use xsm_similarity::SimScratch;

use crate::trace::{SpanId, Tracer};

/// The engine configuration the replay mirrors (the benchmark's engines all
/// run the defaults: floor 0.5, medium clustering, default planner and
/// objective).
pub struct Pipeline {
    pub element: ElementMatchConfig,
    pub planner: QueryPlanner,
    pub clustering: Option<ClusteringConfig>,
    pub generator: BranchAndBoundGenerator,
}

impl Pipeline {
    pub fn engine_default() -> Self {
        Pipeline {
            element: ElementMatchConfig::default(),
            planner: QueryPlanner::new(PlannerConfig::default()),
            clustering: ClusteringVariant::Medium.config(),
            generator: BranchAndBoundGenerator::new(),
        }
    }
}

/// Per-worker scratch, as each engine worker owns one.
#[derive(Default)]
pub struct Scratch {
    pub sim: SimScratch,
    pub candidates: CandidateScratch,
}

/// Replay one query against `index`/`repo` under span `parent`; returns the
/// response the engine would have produced.
pub fn replay_query(
    pipeline: &Pipeline,
    index: &NameIndex,
    repo: &SchemaRepository,
    query: &MatchQuery,
    scratch: &mut Scratch,
    tr: &mut Tracer,
    parent: SpanId,
) -> MatchResponse {
    let floor = pipeline.element.min_similarity;
    let resolved = tr.span("index.resolve", parent, || {
        resolve_personal_queries(&query.personal, index)
    });
    let plan = tr.span("planner.plan", parent, || {
        pipeline
            .planner
            .plan_resolved(&query.personal, query.strategy, index, floor, &resolved)
    });
    let threshold = if query.threshold.is_nan() {
        1.0
    } else {
        query.threshold.clamp(0.0, 1.0)
    };
    let problem = MatchingProblem::new(
        query.personal.clone(),
        xsm_matcher::ObjectiveConfig::default(),
        threshold,
    );
    let candidates = match plan.strategy {
        PlannedStrategy::IndexPruned => {
            filter_verify(pipeline, index, &problem, &resolved, scratch, tr, parent)
        }
        PlannedStrategy::Exhaustive => {
            tr.count("planner.exhaustive_plans", 1.0);
            let store = index.features();
            tr.count(
                "element.kernel_calls",
                (problem.personal.len() * store.alive_len()) as f64,
            );
            tr.span("element.verify", parent, || {
                match_elements_features(
                    &problem.personal,
                    store,
                    &pipeline.element,
                    &mut scratch.sim,
                )
            })
        }
    };
    tr.count(
        "element.mapping_elements",
        candidates.total_candidates() as f64,
    );
    let (mut mappings, _) = cluster_and_generate(
        pipeline.clustering,
        &pipeline.generator,
        &problem,
        repo,
        &candidates,
        tr,
        parent,
    );
    let topk = tr.begin("engine.topk", parent);
    let total_matches = mappings.len();
    mappings.truncate(query.top_k);
    tr.end(topk);
    MatchResponse {
        fingerprint: query.fingerprint(),
        strategy: plan.strategy,
        cache_hit: false,
        mappings,
        candidate_count: candidates.total_candidates(),
        total_matches,
        incomplete: false,
        failed_shards: Vec::new(),
        generation: 0,
        latency: std::time::Duration::ZERO,
    }
}

/// Index-pruned element matching, one filter span and one verify span per
/// personal node (the composition of
/// `match_elements_with_index_features_resolved`).
fn filter_verify(
    pipeline: &Pipeline,
    index: &NameIndex,
    problem: &MatchingProblem,
    resolved: &[xsm_repo::ResolvedQuery],
    scratch: &mut Scratch,
    tr: &mut Tracer,
    parent: SpanId,
) -> CandidateSet {
    let store = index.features();
    let window = LengthWindow::fuzzy_floor(pipeline.element.min_similarity);
    let min_overlap = pipeline.planner.config().min_overlap;
    let personal = &problem.personal;
    let nodes = personal.preorder();
    let mut set = CandidateSet::new(nodes.clone());
    for (&pnode, presolved) in nodes.iter().zip(resolved) {
        let name = personal.name_of(pnode);
        let filter = tr.begin("index.filter", parent);
        let (mut survivors, stats) = index.lookup_candidates_resolved(
            presolved,
            min_overlap,
            window,
            MergePolicy::Auto,
            &mut scratch.candidates,
        );
        survivors.extend_from_slice(index.lookup_exact(name));
        survivors.sort();
        survivors.dedup();
        tr.end(filter);
        tr.count(
            "index.candidates_examined",
            stats.candidates_examined as f64,
        );
        tr.count(
            "index.positional_rejections",
            stats.positional_rejections as f64,
        );
        tr.count("index.survivors", survivors.len() as f64);
        tr.count("element.kernel_calls", survivors.len() as f64);
        let verify = tr.begin("element.verify", parent);
        let pfeatures = store.query_features(name);
        for rid in survivors {
            let rfeatures = store.features_of(rid).expect("index ids are valid");
            let sim = fuzzy_features(&pfeatures, rfeatures, &mut scratch.sim);
            if sim >= pipeline.element.min_similarity && sim > 0.0 {
                set.push(MappingElement::new(pnode, rid, sim));
            }
        }
        tr.end(verify);
    }
    tr.span("element.verify", parent, || set.sort());
    tr.count(
        "index.pruned_mapping_elements",
        set.total_candidates() as f64,
    );
    set
}

/// Clustering (or per-tree scoping for the baseline) and B&B over the useful
/// scopes — the composition of `ClusteredMatcher::run_on_candidates`.
/// Returns the retained mappings (best first) and the summed counters.
pub fn cluster_and_generate(
    clustering: Option<ClusteringConfig>,
    generator: &BranchAndBoundGenerator,
    problem: &MatchingProblem,
    repo: &SchemaRepository,
    candidates: &CandidateSet,
    tr: &mut Tracer,
    parent: SpanId,
) -> (Vec<SchemaMapping>, GeneratorCounters) {
    let scopes: Vec<CandidateSet> = match clustering {
        Some(config) => {
            let (set, stats) = tr.span("kmeans.cluster", parent, || {
                KMeansClusterer::new(config).cluster(repo, candidates)
            });
            tr.count("kmeans.iterations", stats.iterations as f64);
            tr.count("kmeans.final_clusters", stats.final_clusters as f64);
            tr.count("kmeans.runs", 1.0);
            tr.span("clustering.scopes", parent, || {
                set.clusters.iter().map(|c| c.scope(candidates)).collect()
            })
        }
        None => tr.span("clustering.scopes", parent, || {
            candidates
                .trees()
                .into_iter()
                .map(|tree| candidates.restrict_to_tree(tree))
                .collect()
        }),
    };
    let bnb = tr.begin("bnb.generate", parent);
    let mut counters = GeneratorCounters::default();
    let mut mappings = Vec::new();
    let mut useful = 0usize;
    for scope in &scopes {
        if !scope.is_useful() {
            continue;
        }
        useful += 1;
        let outcome = generator.generate(problem, repo, scope);
        counters = counters.merge(&outcome.counters);
        mappings.extend(outcome.mappings);
    }
    sort_mappings(&mut mappings);
    tr.end(bnb);
    tr.count("clustering.useful_clusters", useful as f64);
    tr.count("bnb.partial_mappings", counters.partial_mappings as f64);
    tr.count("bnb.pruned_branches", counters.pruned_branches as f64);
    tr.count("bnb.search_space", counters.search_space as f64);
    tr.count("bnb.retained", counters.retained_mappings as f64);
    (mappings, counters)
}
