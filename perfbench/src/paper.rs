//! `paper-sec5`: the paper's Sec. 5 experiment as a batch over seeded
//! 9 759-element repositories. The `name/address/email` personal schema,
//! δ = 0.75, α = 0.5; exhaustive element matching through the feature store,
//! then the small, medium, large and tree variants with B&B on the shared
//! mapping elements.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xsm_core::{ClusteredMatchReport, ClusteredMatcher, ClusteringVariant};
use xsm_matcher::element::{match_elements_features, ElementMatchConfig};
use xsm_matcher::generator::exhaustive::ExhaustiveGenerator;
use xsm_matcher::{BranchAndBoundGenerator, CandidateSet, MatchingProblem};
use xsm_repo::{NameIndex, RepositoryGenerator, SchemaRepository};
use xsm_similarity::SimScratch;

use crate::checks::{self, Check};
use crate::inputs;
use crate::replay;
use crate::report::{self, Report};
use crate::trace::{Trace, Tracer, NO_PARENT};
use crate::{layers, stats, Ctx};

/// Generator seed of the first Sec. 5 repository; repository `i` uses
/// `PAPER_SEED + i`.
pub const PAPER_SEED: u64 = 2006;

/// The Sec. 5 batch. It does not depend on the run seed: the batch is the
/// experiment (the paper reports one fixed repository), and its quality
/// column must be a property of the program, not of the draw. The run seed
/// orders the batch and picks the repositories cross-checked exhaustively.
pub fn pool(repositories: usize, elements: usize) -> Vec<SchemaRepository> {
    (0..repositories as u64)
        .map(|i| {
            RepositoryGenerator::new(inputs::repository_config(PAPER_SEED + i, elements)).generate()
        })
        .collect()
}

struct Experiment {
    candidates: CandidateSet,
    /// Reports in `ClusteringVariant::all()` order: small, medium, large, tree.
    reports: Vec<ClusteredMatchReport>,
}

fn experiment(
    problem: &MatchingProblem,
    repo: &SchemaRepository,
    index: &NameIndex,
    matchers: &[ClusteredMatcher],
    bnb: &BranchAndBoundGenerator,
    scratch: &mut SimScratch,
) -> Experiment {
    let candidates = match_elements_features(
        &problem.personal,
        index.features(),
        &ElementMatchConfig::default(),
        scratch,
    );
    let reports = matchers
        .iter()
        .map(|m| m.run_on_candidates(problem, repo, &candidates, bnb))
        .collect();
    Experiment {
        candidates,
        reports,
    }
}

/// Δ ≥ δ mappings the three clustered variants retained.
fn preserved(reports: &[ClusteredMatchReport]) -> usize {
    reports[..3].iter().map(|r| r.mappings.len()).sum()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repos = pool(ctx.scale.paper_pool, ctx.scale.paper_elements);
    let mut order: Vec<usize> = (0..repos.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(inputs::sub_seed(ctx.seed, 4)));
    let (indexes, setup_s) = crate::repeated_setup(ctx.scale.setups, || {
        let start = Instant::now();
        let indexes: Vec<NameIndex> = repos.iter().map(NameIndex::build).collect();
        Ok((indexes, start.elapsed().as_secs_f64()))
    })?;
    let problem = MatchingProblem::paper_experiment();
    let matchers: Vec<ClusteredMatcher> = ClusteringVariant::all()
        .into_iter()
        .map(ClusteredMatcher::for_variant)
        .collect();
    let bnb = BranchAndBoundGenerator::new();
    let mut scratch = SimScratch::default();
    let mut report = Report::default();

    // One untimed pass over the batch: the quality column and every check.
    let mut expected: Vec<Vec<usize>> = vec![Vec::new(); repos.len()];
    let mut preserved_total = 0usize;
    let mut outcomes: Vec<Check> = Vec::new();
    for (i, &r) in order.iter().enumerate() {
        let ex = experiment(
            &problem,
            &repos[r],
            &indexes[r],
            &matchers,
            &bnb,
            &mut scratch,
        );
        preserved_total += preserved(&ex.reports);
        expected[r] = ex.reports.iter().map(|r| r.mappings.len()).collect();
        outcomes.push(check_experiment(
            &problem,
            &repos[r],
            &ex,
            i < ctx.scale.exhaustive_checks,
        ));
    }
    report.check(
        "Sec. 5 retained sets (B&B = exhaustive on tree; clustered ⊆ tree; Δ ≥ δ)",
        checks::all(outcomes),
    );

    // Peak RSS of the built, warmed system: what serving needs, apart from
    // how much the loop gets done (the benchmark's record of every answer
    // grows with it).
    let rss = stats::peak_rss_mib().ok_or("peak RSS unavailable")?;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let mut tracer = Tracer::new(epoch);
    let mut done = 0usize;
    let mut drift: Vec<Check> = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut completions: Vec<(f64, f64)> = Vec::new();
    while Instant::now() < deadline {
        let r = order[done % order.len()];
        let start = Instant::now();
        let ex = experiment(
            &problem,
            &repos[r],
            &indexes[r],
            &matchers,
            &bnb,
            &mut scratch,
        );
        let took = start.elapsed().as_secs_f64();
        untraced_s.push(took);
        completions.push((epoch.elapsed().as_secs_f64(), took * 1e3));
        let counts: Vec<usize> = ex.reports.iter().map(|r| r.mappings.len()).collect();
        drift.push(if counts == expected[r] {
            Ok(())
        } else {
            Err(format!(
                "repository {r}: retained {counts:?}, first pass {:?}",
                expected[r]
            ))
        });
        if ctx.trace {
            tracer.set_op(done as u64);
            let (took, agrees) = traced_experiment(
                &problem,
                &repos[r],
                &indexes[r],
                &bnb,
                &ex,
                &mut scratch,
                &mut tracer,
            );
            traced_s.push(took);
            drift.push(agrees);
        }
        done += 1;
    }
    let elapsed_s = epoch.elapsed().as_secs_f64();

    if ctx.trace {
        let mut trace = Trace::default();
        trace.absorb(tracer);
        report.samples("traced experiments", traced_s.len());
        layers::pipeline(&mut report, &trace, done as f64, false);
        layers::self_times(&mut report, &trace, done as f64);
        layers::overhead(&mut report, &traced_s, &untraced_s)?;
        layers::write_spans(&mut report, &trace, &ctx.trace_path("paper-sec5"));
    } else {
        report::end_to_end(&mut report, setup_s, &completions, elapsed_s, rss)?;
    }
    // The paper's quality column: fixed by the seed-independent batch, so it
    // is a property of the program and goes to the account.
    report.note(format!(
        "preserved mappings {preserved_total} (Δ ≥ δ, three clustered variants, one pass of {} repositories)",
        repos.len()
    ));
    report.ops("experiments", done as u64, 0);
    report.check(
        "every timed experiment retains what the checked pass retained",
        checks::all(drift),
    );
    Ok(report)
}

/// The checks of one experiment: the tree variant's B&B against the
/// exhaustive generator (when `exhaustive`), every clustered variant against
/// the tree variant, and every retained Δ against δ.
fn check_experiment(
    problem: &MatchingProblem,
    repo: &SchemaRepository,
    ex: &Experiment,
    exhaustive: bool,
) -> Check {
    let tree = &ex.reports[3];
    if tree.mappings.is_empty() {
        return Err("the tree variant retained nothing; the check would prove nothing".into());
    }
    if exhaustive {
        let reference = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
            .run_on_candidates(problem, repo, &ex.candidates, &ExhaustiveGenerator::new());
        checks::same_mappings(
            "tree variant: B&B vs exhaustive",
            &tree.mappings,
            &reference.mappings,
        )?;
    }
    let objective = checks::objective_for(&problem.personal);
    for report in &ex.reports {
        for mapping in &report.mappings {
            checks::check_delta(&objective, mapping, repo, problem.threshold)?;
        }
    }
    for report in &ex.reports[..3] {
        checks::subset_of(&report.label, &report.mappings, &tree.mappings)?;
        checks::no_larger(
            &report.label,
            report.cluster_stats.total_search_space,
            tree.cluster_stats.total_search_space,
        )?;
    }
    Ok(())
}

/// One experiment replayed from its public calls with spans; returns its
/// duration and whether it retained what the untraced run retained.
fn traced_experiment(
    problem: &MatchingProblem,
    repo: &SchemaRepository,
    index: &NameIndex,
    bnb: &BranchAndBoundGenerator,
    untraced: &Experiment,
    scratch: &mut SimScratch,
    tr: &mut Tracer,
) -> (f64, Check) {
    let root = tr.begin("core.pipeline", NO_PARENT);
    let store = index.features();
    tr.count(
        "element.kernel_calls",
        (problem.personal.len() * store.alive_len()) as f64,
    );
    let candidates = tr.span("element.verify", root, || {
        match_elements_features(
            &problem.personal,
            store,
            &ElementMatchConfig::default(),
            scratch,
        )
    });
    tr.count(
        "element.mapping_elements",
        candidates.total_candidates() as f64,
    );
    let mut agrees = Ok(());
    for (variant, expected) in ClusteringVariant::all().into_iter().zip(&untraced.reports) {
        let (mappings, _) = replay::cluster_and_generate(
            variant.config(),
            bnb,
            problem,
            repo,
            &candidates,
            tr,
            root,
        );
        if agrees.is_ok() {
            agrees = checks::same_mappings(variant.label(), &mappings, &expected.mappings);
        }
    }
    tr.end(root);
    (tr.micros(root) / 1e6, agrees)
}
