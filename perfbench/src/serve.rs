//! `serve-100k`: one `MatchEngine` (one worker per core) over ≈100k elements,
//! `Auto` queries from one closed-loop client per core.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use xsm_core::{ClusteredMatcher, ClusteringVariant};
use xsm_matcher::element::{match_elements, match_elements_with_index, NameElementMatcher};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
use xsm_matcher::{MatchingProblem, ObjectiveConfig};
use xsm_repo::{NameIndex, SchemaRepository};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, PlannedStrategy, PlannerConfig,
    QueryPlanner,
};

use crate::inputs::{self, QueryStream};
use crate::replay::{self, Pipeline, Scratch};
use crate::report::{self, Report};
use crate::trace::{Trace, Tracer, NO_PARENT};
use crate::{checks, layers, stats, Ctx};

/// One answered query of the measured loop.
pub struct Answered {
    pub query: MatchQuery,
    pub response: Result<MatchResponse, String>,
    pub latency_s: f64,
    /// Completion time, seconds since measuring started.
    pub done_s: f64,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repo = inputs::repository(ctx.seed, ctx.scale.elements);
    let stream = Mutex::new(QueryStream::new(&repo, ctx.seed));
    let config = EngineConfig::default().with_workers(ctx.cores);
    let (engine, setup_s) = crate::repeated_setup(ctx.scale.setups, || {
        let input = repo.clone();
        let start = Instant::now();
        let engine = MatchEngine::new(input, config.clone());
        Ok((engine, start.elapsed().as_secs_f64()))
    })?;
    let warm: Vec<MatchQuery> = (0..ctx.scale.warmup)
        .map(|_| stream.lock().expect("query stream").next_query())
        .collect();
    engine
        .submit_batch(warm)
        .map_err(|e| format!("warm-up failed: {e}"))?;

    let mut report = Report::default();
    let pipeline = Pipeline::engine_default();
    // Peak RSS of the built, warmed system: what serving needs, apart from
    // how much the loop gets done (the benchmark's record of every answer
    // grows with it).
    let rss = stats::peak_rss_mib().ok_or("peak RSS unavailable")?;
    let (answered, elapsed_s, trace, replays) = closed_loop(
        ctx,
        &stream,
        ctx.cores,
        |query| {
            engine
                .submit(query)
                .and_then(|p| p.wait())
                .map_err(|e| e.to_string())
        },
        |query, response, latency_s, scratch, tracer| {
            replay_one(
                &engine, &pipeline, query, response, latency_s, scratch, tracer,
            )
        },
    );

    if ctx.trace {
        traced_metrics(&mut report, &trace, &replays)?;
        layers::write_spans(&mut report, &trace, &ctx.trace_path("serve-100k"));
    } else {
        query_metrics(&mut report, setup_s, &answered, elapsed_s, rss)?;
    }
    report.ops(
        "queries",
        answered.len() as u64,
        answered.iter().filter(|a| a.response.is_err()).count() as u64,
    );

    check_answers(&mut report, &answered, &engine.repository());
    report.check(
        "string-path replay equals the engine (sample)",
        string_path_sample(&answered, &engine, ctx.scale.string_replays),
    );
    let metrics = engine.metrics();
    report.check(
        "result cache and singleflight never answered",
        if metrics.result_cache_hits == 0 && metrics.coalesced_queries == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} cache hits, {} coalesced",
                metrics.result_cache_hits, metrics.coalesced_queries
            ))
        },
    );
    Ok(report)
}

/// What a traced replay measured for one query.
pub struct Replayed {
    /// End-to-end latency minus the replay's stage sum.
    pub unattributed_s: f64,
    /// Duration of the traced replay.
    pub traced_s: f64,
    /// The engine's own serving time of the same query (untraced).
    pub untraced_s: f64,
    pub agrees: Result<(), String>,
}

/// Closed loop of `clients` clients for `ctx.seconds`, each sending the
/// stream's next query through `submit` once its previous one is answered.
/// In a traced run each client hands every answered query to `replay`
/// (with its latency, a scratch and the client's tracer) right after the
/// answer arrived.
pub fn closed_loop<R: Send>(
    ctx: &Ctx,
    stream: &Mutex<QueryStream>,
    clients: usize,
    submit: impl Fn(MatchQuery) -> Result<MatchResponse, String> + Sync,
    replay: impl Fn(&MatchQuery, &MatchResponse, f64, &mut Scratch, &mut Tracer) -> R + Sync,
) -> (Vec<Answered>, f64, Trace, Vec<R>) {
    let (submit, replay) = (&submit, &replay);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut scratch = Scratch::default();
                    let mut answered = Vec::new();
                    let mut replays = Vec::new();
                    let mut op = (client as u64) << 40;
                    while Instant::now() < deadline {
                        let query = stream.lock().expect("query stream").next_query();
                        let start = Instant::now();
                        let response = submit(query.clone());
                        let latency_s = start.elapsed().as_secs_f64();
                        if ctx.trace {
                            if let Ok(response) = &response {
                                op += 1;
                                tracer.set_op(op);
                                replays.push(replay(
                                    &query,
                                    response,
                                    latency_s,
                                    &mut scratch,
                                    &mut tracer,
                                ));
                            }
                        }
                        answered.push(Answered {
                            query,
                            response,
                            latency_s,
                            done_s: epoch.elapsed().as_secs_f64(),
                        });
                    }
                    (answered, tracer, replays)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed_s = epoch.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut trace = Trace::default();
    let mut replays = Vec::new();
    for (answered, tracer, r) in outcomes {
        all.extend(answered);
        trace.absorb(tracer);
        replays.extend(r);
    }
    (all, elapsed_s, trace, replays)
}

/// Replay one answered query with spans and compare it to the engine.
pub fn replay_one(
    engine: &MatchEngine,
    pipeline: &Pipeline,
    query: &MatchQuery,
    response: &MatchResponse,
    latency_s: f64,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> Replayed {
    let index = engine.index();
    let repo = engine.repository();
    let root = tracer.begin("engine.pipeline", NO_PARENT);
    let replayed = replay::replay_query(pipeline, &index, &repo, query, scratch, tracer, root);
    tracer.end(root);
    let traced_s = tracer.micros(root) / 1e6;
    Replayed {
        unattributed_s: latency_s - traced_s,
        traced_s,
        untraced_s: response.latency.as_secs_f64(),
        agrees: checks::same_digest("traced replay", &replayed, response),
    }
}

/// The end-to-end metrics of a measured query loop of `span_s` seconds (see
/// [`report::end_to_end`]). The query p99 (the median of the p99s of
/// consecutive chunks of at least 1 000 answers) goes to the account only:
/// on the one-client workloads it spread between runs by more than any
/// bound allows.
pub fn query_metrics(
    report: &mut Report,
    setup_s: f64,
    answered: &[Answered],
    span_s: f64,
    peak_rss_mb: f64,
) -> Result<(), String> {
    let mut points: Vec<(f64, f64)> = answered
        .iter()
        .filter(|a| a.response.is_ok())
        .map(|a| (a.done_s, a.latency_s * 1e3))
        .collect();
    report::end_to_end(report, setup_s, &points, span_s, peak_rss_mb)?;
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let latencies: Vec<f64> = points.iter().map(|p| p.1).collect();
    report.note(format!(
        "query p99 {} over {} answers (account only)",
        report::account_ms(stats::chunked_percentile(&latencies, 0.99, "query latency")),
        latencies.len()
    ));
    Ok(())
}

/// Per-layer metrics of a traced serving loop.
fn traced_metrics(report: &mut Report, trace: &Trace, replays: &[Replayed]) -> Result<(), String> {
    let n = replays.len() as f64;
    report.samples("replayed queries", replays.len());
    report.metric(
        "engine.unattributed_us",
        replays.iter().map(|r| r.unattributed_s).sum::<f64>() * 1e6 / n.max(1.0),
        "us",
    );
    layers::pipeline(report, trace, n, true);
    layers::self_times(report, trace, n);
    let traced: Vec<f64> = replays.iter().map(|r| r.traced_s).collect();
    let untraced: Vec<f64> = replays.iter().map(|r| r.untraced_s).collect();
    layers::overhead(report, &traced, &untraced)?;
    report.check(
        "traced replay equals the engine's answer",
        checks::all(replays.iter().map(|r| r.agrees.clone())),
    );
    Ok(())
}

/// Shape and score checks over every answered query.
pub fn check_answers(report: &mut Report, answered: &[Answered], repo: &SchemaRepository) {
    report.check(
        "every query answered",
        checks::all(
            answered
                .iter()
                .map(|a| a.response.as_ref().map(|_| ()).map_err(Clone::clone)),
        ),
    );
    let ok: Vec<(&MatchQuery, &MatchResponse)> = answered
        .iter()
        .filter_map(|a| a.response.as_ref().ok().map(|r| (&a.query, r)))
        .collect();
    report.check(
        "at most top_k mappings, sorted by score",
        checks::all(ok.iter().map(|(q, r)| checks::top_k_sorted(q, r))),
    );
    report.check(
        "recomputed Δ equals the score and is ≥ δ",
        checks::all(ok.iter().map(|(q, r)| checks::scores_recompute(q, r, repo))),
    );
    let with_mappings = ok.iter().filter(|(_, r)| !r.mappings.is_empty()).count();
    report.note(format!(
        "{with_mappings} of {} answers hold mappings",
        ok.len()
    ));
}

/// Replay a sample of the answered queries through the string-path element
/// matcher (`compare_string_fuzzy` per pair) and compare digests.
fn string_path_sample(answered: &[Answered], engine: &MatchEngine, n: usize) -> checks::Check {
    let repo = engine.repository();
    let index = engine.index();
    let matcher = ClusteredMatcher::for_variant(ClusteringVariant::Medium);
    let step = (answered.len() / n.max(1)).max(1);
    checks::all(
        answered
            .iter()
            .step_by(step)
            .take(n)
            .filter_map(|a| a.response.as_ref().ok().map(|r| (&a.query, r)))
            .map(|(query, response)| {
                let expected = string_path_digest(query, &repo, &index, &matcher);
                if expected == response.result_digest() {
                    Ok(())
                } else {
                    Err(format!(
                        "engine {} vs string path {expected}",
                        response.result_digest()
                    ))
                }
            }),
    )
}

/// The serving pipeline with the string-path element matcher, reduced to
/// the digest `MatchResponse::result_digest` produces.
pub fn string_path_digest(
    query: &MatchQuery,
    repo: &SchemaRepository,
    index: &NameIndex,
    matcher: &ClusteredMatcher,
) -> String {
    let planner = QueryPlanner::new(PlannerConfig::default());
    let floor = matcher.element_config().min_similarity;
    let plan = planner.plan(&query.personal, query.strategy, index, floor);
    let problem = MatchingProblem::new(
        query.personal.clone(),
        ObjectiveConfig::default(),
        query.threshold,
    );
    let candidates = match plan.strategy {
        PlannedStrategy::IndexPruned => match_elements_with_index(
            &problem.personal,
            repo,
            index,
            &NameElementMatcher,
            matcher.element_config(),
            planner.config().min_overlap,
        ),
        PlannedStrategy::Exhaustive => match_elements(
            &problem.personal,
            repo,
            &NameElementMatcher,
            matcher.element_config(),
        ),
    };
    let report =
        matcher.run_on_candidates(&problem, repo, &candidates, &BranchAndBoundGenerator::new());
    let mut response = MatchResponse {
        fingerprint: String::new(),
        strategy: plan.strategy,
        cache_hit: false,
        candidate_count: candidates.total_candidates(),
        total_matches: report.mappings.len(),
        mappings: report.mappings,
        incomplete: false,
        failed_shards: Vec::new(),
        generation: 0,
        latency: Duration::ZERO,
    };
    response.mappings.truncate(query.top_k);
    response.result_digest()
}
