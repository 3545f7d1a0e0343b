//! `churn-100k`: one engine over ≈100k elements; one client applies a
//! mutation batch (append ≈1% fresh trees, delete as many live ones; the
//! engine compacts when a tenth of the postings are dead) every 200 ms and
//! answers `Auto` queries on its own thread in between. Writes and reads are
//! serialised on purpose, so query latency reflects the index state the
//! writes leave behind.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsm_repo::SchemaRepository;
use xsm_schema::{SchemaTree, TreeId};
use xsm_service::{EngineConfig, MatchEngine};

use crate::inputs::{self, QueryStream};
use crate::replay::{Pipeline, Scratch};
use crate::report::{self, Report};
use crate::serve::{self, Answered, Replayed};
use crate::trace::{Trace, Tracer, NO_PARENT};
use crate::{checks, layers, stats, Ctx};

/// The compaction threshold (dead posting fraction) the engine runs with;
/// the traced run applies it from outside (see [`run`]). Below the engine's
/// default of 0.3 on purpose: reads slow down as tombstoned postings pile
/// up, and at 0.3 one cycle from compaction to compaction took 3–6 s, so
/// where a 10-second run cut the cycle moved its median query latency by
/// up to 30% from seed to seed. At 0.1 a cycle is about a dozen batches,
/// four to a 10-second run.
const COMPACTION_THRESHOLD: f64 = 0.1;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repo = inputs::repository(ctx.seed, ctx.scale.elements);
    let mut stream = QueryStream::new(&repo, ctx.seed);
    let batch_trees = (repo.tree_count() / 100).max(1);
    let batch_elements = ctx.scale.elements / 100 * 2;
    // The traced run compacts from outside at the same threshold, so that
    // the compaction gets a span of its own; the untraced run leaves it to
    // the engine.
    let threshold = if ctx.trace { 1.0 } else { COMPACTION_THRESHOLD };
    let config = EngineConfig::default()
        .with_workers(ctx.cores)
        .with_compaction_threshold(threshold);
    let (engine, setup_s) = crate::repeated_setup(ctx.scale.setups, || {
        let input = repo.clone();
        let start = Instant::now();
        let engine = MatchEngine::new(input, config.clone());
        Ok((engine, start.elapsed().as_secs_f64()))
    })?;
    let warm: Vec<_> = (0..ctx.scale.warmup).map(|_| stream.next_query()).collect();
    engine
        .submit_batch(warm)
        .map_err(|e| format!("warm-up failed: {e}"))?;

    // The logical content: every tree ever added in id order, deleted ones
    // as empty placeholders (what a from-scratch rebuild must equal).
    let mut logical: Vec<SchemaTree> = repo.trees().map(|(_, t)| t.clone()).collect();
    let mut alive: Vec<TreeId> = (0..repo.tree_count() as u32).map(TreeId).collect();
    let mut tombstoned: HashSet<TreeId> = HashSet::new();
    let mut rng = StdRng::seed_from_u64(inputs::sub_seed(ctx.seed, 3));
    let pipeline = Pipeline::engine_default();
    let mut scratch = Scratch::default();

    // Peak RSS of the built, warmed system: what serving needs, apart from
    // how much the loop gets done (the benchmark's record of every answer
    // grows with it).
    let rss = stats::peak_rss_mib().ok_or("peak RSS unavailable")?;
    // Every batch's fresh trees, generated before measuring starts (the
    // schedule fixes how many batches a run applies).
    let interval = Duration::from_millis(ctx.scale.churn_interval_ms);
    let scheduled = (ctx.seconds / interval.as_secs_f64()).ceil() as u64 + 1;
    let mut batches: std::collections::VecDeque<Vec<SchemaTree>> = (0..scheduled)
        .map(|b| inputs::batch_trees(ctx.seed, b, batch_trees, batch_elements))
        .collect();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let mut tracer = Tracer::new(epoch);
    let mut mutation_s = Vec::new();
    let mut mutated_trees = 0usize;
    let mut compactions = 0usize;
    let mut answered: Vec<Answered> = Vec::new();
    let mut replays: Vec<Replayed> = Vec::new();
    let mut leaks: Vec<checks::Check> = Vec::new();
    let mut batch = 0u64;
    // Batches arrive on a fixed schedule, one every `churn_interval_ms`;
    // between them the client answers queries closed-loop. The writes a run
    // applies then do not depend on how fast it answers reads, and neither
    // does the index state (tombstones, tail appends, compactions) the
    // reads see. Queries run on this thread (`answer_inline`: the engine's
    // pipeline, caches and planner without the hand-off to a pooled
    // worker, which varied more from run to run than the reads did).
    let mut due = epoch;
    while Instant::now() < deadline {
        if Instant::now() < due || batches.is_empty() {
            let query = stream.next_query();
            let start = Instant::now();
            let response: Result<_, String> = Ok(engine.answer_inline(&query));
            let latency_s = start.elapsed().as_secs_f64();
            if let Ok(response) = &response {
                leaks.push(checks::no_tombstoned(response, &tombstoned));
                if ctx.trace {
                    tracer.set_op((batch << 32) | answered.len() as u64);
                    replays.push(serve::replay_one(
                        &engine,
                        &pipeline,
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
            continue;
        }
        due += interval;
        // Mutation batch (victims drawn outside the timed span).
        let fresh = batches.pop_front().expect("a scheduled batch");
        let victims: Vec<TreeId> = (0..batch_trees)
            .map(|_| alive.swap_remove(rng.gen_range(0..alive.len())))
            .collect();
        tracer.set_op(batch << 32);
        let root = tracer.begin("live.mutation", NO_PARENT);
        let start = Instant::now();
        let appended = tracer.span("live.append", root, || engine.append_trees(fresh.clone()));
        let deleted = tracer.span("live.delete", root, || engine.delete_trees(&victims));
        if ctx.trace && engine.dead_posting_fraction() >= COMPACTION_THRESHOLD {
            tracer.span("live.compact", root, || engine.compact());
            compactions += 1;
        }
        let took = start.elapsed().as_secs_f64();
        tracer.end(root);
        match (appended, deleted) {
            (Ok(ids), Ok(_)) => {
                mutation_s.push(took);
                mutated_trees += ids.len() + victims.len();
                alive.extend(&ids);
                logical.extend(fresh);
                for &victim in &victims {
                    logical[victim.index()] = SchemaTree::new(logical[victim.index()].name());
                    tombstoned.insert(victim);
                }
            }
            (a, d) => {
                return Err(format!(
                    "mutation batch {batch} failed: append {:?}, delete {:?}",
                    a.err(),
                    d.err()
                ));
            }
        }
        if !ctx.trace && engine.dead_posting_fraction() == 0.0 {
            compactions += 1;
        }
        if ctx.trace {
            tracer.count("live.dead_posting_fraction", engine.dead_posting_fraction());
        }
        batch += 1;
    }
    let elapsed_s = epoch.elapsed().as_secs_f64();

    let mut report = Report::default();
    report.note(format!(
        "{batch} mutation batches of {batch_trees}+{batch_trees} trees, {compactions} compactions"
    ));
    if ctx.trace {
        let mut trace = Trace::default();
        trace.absorb(tracer);
        traced_metrics(&mut report, &trace, &replays, batch as f64, compactions)?;
        layers::write_spans(&mut report, &trace, &ctx.trace_path("churn-100k"));
    } else {
        serve::query_metrics(&mut report, setup_s, &answered, elapsed_s, rss)?;
        // The batches' own latency goes to the account; the gated figures
        // see it through `ops_per_s`, whose windows hold the batches too.
        let ms: Vec<f64> = mutation_s.iter().map(|s| s * 1e3).collect();
        report.samples("mutation latency", ms.len());
        report.note(format!(
            "mutation p50 {}, p90 {}, {:.1} trees/s of mutation time (account only)",
            report::account_ms(stats::median(&ms, "mutation latency")),
            report::account_ms(stats::percentile(&ms, 0.9, "mutation latency")),
            mutated_trees as f64 / mutation_s.iter().sum::<f64>(),
        ));
    }
    report.ops("mutation batches", batch, 0);
    report.ops(
        "queries",
        answered.len() as u64,
        answered.iter().filter(|a| a.response.is_err()).count() as u64,
    );

    serve::check_answers(&mut report, &answered, &engine.repository());
    report.check(
        "no answer holds a node of a tree deleted before it was sent",
        checks::all(leaks),
    );
    report.check(
        "probe answers equal an engine rebuilt from the final content",
        rebuilt_probes(&engine, logical, &mut stream, ctx.scale.probes),
    );
    Ok(report)
}

/// Compare probe answers of the live engine with a from-scratch engine over
/// the final logical content (stepped to the same generation).
fn rebuilt_probes(
    engine: &MatchEngine,
    logical: Vec<SchemaTree>,
    stream: &mut QueryStream,
    probes: usize,
) -> checks::Check {
    let rebuilt = MatchEngine::new(
        SchemaRepository::from_trees(logical),
        EngineConfig::default().with_workers(1),
    );
    if engine.generation() > 0 {
        rebuilt
            .advance_generation(engine.generation())
            .map_err(|e| format!("advance generation: {e}"))?;
    }
    checks::all((0..probes).map(|_| {
        let query = stream.next_query();
        let live = engine.answer_inline(&query);
        let fresh = rebuilt.answer_inline(&query);
        checks::same_digest("live vs rebuilt", &live, &fresh).and_then(|()| {
            if live.generation == fresh.generation {
                Ok(())
            } else {
                Err(format!(
                    "generation {} vs {}",
                    live.generation, fresh.generation
                ))
            }
        })
    }))
}

fn traced_metrics(
    report: &mut Report,
    trace: &Trace,
    replays: &[Replayed],
    batches: f64,
    compactions: usize,
) -> Result<(), String> {
    let per_batch = |v: f64| v / batches.max(1.0);
    report.metric(
        "live.append_us",
        per_batch(trace.total_us("live.append")),
        "us",
    );
    report.metric(
        "live.delete_us",
        per_batch(trace.total_us("live.delete")),
        "us",
    );
    report.metric(
        "live.compact_us",
        trace.total_us("live.compact") / (compactions.max(1) as f64),
        "us",
    );
    report.metric("live.compactions", compactions as f64, "count");
    report.metric(
        "live.dead_posting_fraction",
        per_batch(trace.counter("live.dead_posting_fraction")),
        "ratio",
    );
    let n = replays.len() as f64;
    report.samples("replayed queries", replays.len());
    report.metric(
        "engine.unattributed_us",
        replays.iter().map(|r| r.unattributed_s).sum::<f64>() * 1e6 / n.max(1.0),
        "us",
    );
    layers::pipeline(report, trace, n, true);
    layers::self_times(report, trace, n + batches);
    let traced: Vec<f64> = replays.iter().map(|r| r.traced_s).collect();
    let untraced: Vec<f64> = replays.iter().map(|r| r.untraced_s).collect();
    layers::overhead(report, &traced, &untraced)?;
    report.check(
        "traced replay equals the engine's answer",
        checks::all(replays.iter().map(|r| r.agrees.clone())),
    );
    Ok(())
}
