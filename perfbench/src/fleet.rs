//! `fleet-tcp-100k`: the repository split into one shard per core, each shard
//! a one-worker `MatchEngine` behind a loopback `ShardServer`, routed by
//! `ShardedEngine::from_services` over `RemoteEngine` clients; one client.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xsm_matcher::generator::sort_mappings;
use xsm_matcher::{MappingElement, SchemaMapping};
use xsm_repo::{RepositoryPartition, SchemaRepository, ShardPlacement};
use xsm_schema::{GlobalNodeId, TreeId};
use xsm_service::net::proto::{decode, encode};
use xsm_service::net::{WireRequest, WireResponse};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, MatchService, PlanStats, PlannedStrategy,
    PlannerConfig, QueryPlanner, QueryStrategy, RemoteEngine, RemoteEngineConfig, ShardServer,
    ShardedEngine, ShardedEngineConfig,
};

use crate::inputs::{self, QueryStream};
use crate::report::Report;
use crate::serve;
use crate::trace::{Trace, Tracer, NO_PARENT};
use crate::{checks, layers, stats, Ctx};

/// A running TCP fleet. Field order is drop order: the router stops before
/// the servers, the servers before their engines.
struct Fleet {
    router: ShardedEngine,
    /// Clones of the router's shard clients (they share its connection
    /// pools), used by the traced replay.
    clients: Vec<RemoteEngine>,
    /// Held, not read: the servers run as long as the fleet does.
    _servers: Vec<ShardServer>,
    engines: Vec<Arc<MatchEngine>>,
    tree_maps: Vec<Vec<TreeId>>,
}

fn build_fleet(repo: SchemaRepository, shards: usize) -> Result<Fleet, String> {
    let engine_config = EngineConfig::default().with_workers(1);
    let router_config = ShardedEngineConfig::builder()
        .shards(shards)
        .placement(ShardPlacement::Contiguous)
        .router_workers(1)
        .engine(engine_config.clone())
        .build()
        .map_err(|e| format!("router config: {e}"))?;
    let client_config = RemoteEngineConfig::default()
        .with_request_deadline(Duration::from_secs(120))
        .with_io_timeout(Duration::from_secs(30));
    let (parts, tree_maps) =
        RepositoryPartition::build(&repo, shards, ShardPlacement::Contiguous).into_parts();
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for part in parts {
        let engine = Arc::new(MatchEngine::new(part, engine_config.clone()));
        let backend: Arc<dyn MatchService> = engine.clone();
        let server = ShardServer::bind("127.0.0.1:0", backend).map_err(|e| format!("bind: {e}"))?;
        let client = RemoteEngine::connect(server.local_addr().to_string(), client_config.clone())
            .map_err(|e| format!("handshake: {e}"))?;
        engines.push(engine);
        servers.push(server);
        clients.push(client);
    }
    let services: Vec<Box<dyn MatchService>> = clients
        .iter()
        .map(|c| Box::new(c.clone()) as Box<dyn MatchService>)
        .collect();
    let router = ShardedEngine::from_services(services, tree_maps.clone(), router_config)
        .map_err(|e| format!("router: {e}"))?;
    Ok(Fleet {
        router,
        clients,
        _servers: servers,
        engines,
        tree_maps,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let repo = inputs::repository(ctx.seed, ctx.scale.elements);
    let stream = Mutex::new(QueryStream::new(&repo, ctx.seed));
    let shards = ctx.cores.max(2);
    let (fleet, setup_s) = crate::repeated_setup(ctx.scale.setups, || {
        let input = repo.clone();
        let start = Instant::now();
        let fleet = build_fleet(input, shards)?;
        Ok((fleet, start.elapsed().as_secs_f64()))
    })?;
    for _ in 0..ctx.scale.warmup {
        fleet
            .router
            .submit(stream.lock().expect("query stream").next_query())
            .and_then(|p| p.wait())
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }

    // Peak RSS of the built, warmed system: what serving needs, apart from
    // how much the loop gets done (the benchmark's record of every answer
    // grows with it).
    let rss = stats::peak_rss_mib().ok_or("peak RSS unavailable")?;
    // One client: the router has one worker, so a second client only
    // queues behind the first (p50 doubled at the same rate when tried).
    let (answered, elapsed_s, trace, replays) = serve::closed_loop(
        ctx,
        &stream,
        1,
        |query| {
            fleet
                .router
                .submit(query)
                .and_then(|p| p.wait())
                .map_err(|e| e.to_string())
        },
        |query, response, _, _, tracer| replay_fleet(&fleet, query, response, tracer),
    );

    let mut report = Report::default();
    if ctx.trace {
        traced_metrics(&mut report, &trace, &replays)?;
        layers::write_spans(&mut report, &trace, &ctx.trace_path("fleet-tcp-100k"));
    } else {
        serve::query_metrics(&mut report, setup_s, &answered, elapsed_s, rss)?;
    }
    report.ops(
        "queries",
        answered.len() as u64,
        answered.iter().filter(|a| a.response.is_err()).count() as u64,
    );
    drop(fleet);

    serve::check_answers(&mut report, &answered, &repo);
    report.check(
        "every fleet answer is complete",
        checks::all(
            answered
                .iter()
                .filter_map(|a| a.response.as_ref().ok())
                .map(checks::complete),
        ),
    );
    let single = MatchEngine::new(repo, EngineConfig::default().with_workers(ctx.cores));
    let queries: Vec<MatchQuery> = answered.iter().map(|a| a.query.clone()).collect();
    let reference = single
        .submit_batch(queries)
        .map_err(|e| format!("reference engine: {e}"))?;
    report.check(
        "fleet answer equals the single engine over the whole repository",
        checks::all(answered.iter().zip(&reference).filter_map(|(a, expected)| {
            a.response
                .as_ref()
                .ok()
                .map(|got| checks::same_digest("fleet vs single", got, expected))
        })),
    );
    Ok(report)
}

/// What the traced replay of one fleet query measured.
struct FleetReplay {
    traced_s: f64,
    untraced_s: f64,
    agrees: checks::Check,
}

/// Replay the router's scatter/gather from the shard clients with spans,
/// then probe each shard for the wire's share and the codec cost. Shard
/// result caches are cleared before each call so no shard answers from the
/// cache the router's own call just filled.
fn replay_fleet(
    fleet: &Fleet,
    query: &MatchQuery,
    response: &MatchResponse,
    tr: &mut Tracer,
) -> FleetReplay {
    let floor = xsm_matcher::element::ElementMatchConfig::default().min_similarity;
    let planner = QueryPlanner::new(PlannerConfig::default());
    let forget = |fleet: &Fleet| fleet.engines.iter().for_each(|e| e.invalidate_results());
    forget(fleet);
    let root = tr.begin("router.scatter_gather", NO_PARENT);
    let mut stats = PlanStats::default();
    let mut failures = Vec::new();
    for client in &fleet.clients {
        match tr.span("router.plan_stats", root, || {
            client.plan_stats(&query.personal, floor)
        }) {
            Ok(s) => stats = stats.merge(s),
            Err(e) => failures.push(e.to_string()),
        }
    }
    let plan = tr.span("planner.plan", root, || {
        planner.plan_from_stats(&query.personal, query.strategy, stats)
    });
    if plan.strategy == PlannedStrategy::Exhaustive {
        tr.count("planner.exhaustive_plans", 1.0);
    }
    let sub = MatchQuery {
        personal: query.personal.clone(),
        top_k: query.top_k,
        strategy: match plan.strategy {
            PlannedStrategy::IndexPruned => QueryStrategy::IndexPruned,
            PlannedStrategy::Exhaustive => QueryStrategy::Exhaustive,
        },
        threshold: query.threshold,
    };
    let pending: Vec<_> = tr.span("router.scatter", root, || {
        fleet
            .clients
            .iter()
            .map(|c| c.submit(sub.clone()))
            .collect()
    });
    let answers: Vec<Result<MatchResponse, String>> = tr.span("router.shard_wait", root, || {
        pending
            .into_iter()
            .map(|p| p.and_then(|p| p.wait()).map_err(|e| e.to_string()))
            .collect()
    });
    let merge = tr.begin("router.merge", root);
    let mut merged = MatchResponse {
        fingerprint: query.fingerprint(),
        strategy: plan.strategy,
        cache_hit: false,
        mappings: Vec::new(),
        candidate_count: 0,
        total_matches: 0,
        incomplete: false,
        failed_shards: Vec::new(),
        generation: 0,
        latency: Duration::ZERO,
    };
    for (answer, map) in answers.iter().zip(&fleet.tree_maps) {
        match answer {
            Ok(r) => {
                merged.candidate_count += r.candidate_count;
                merged.total_matches += r.total_matches;
                merged
                    .mappings
                    .extend(r.mappings.iter().map(|m| globalize(m, map)));
            }
            Err(e) => failures.push(e.clone()),
        }
    }
    sort_mappings(&mut merged.mappings);
    merged.mappings.truncate(query.top_k);
    tr.end(merge);
    tr.end(root);
    let traced_s = tr.micros(root) / 1e6;

    // Per-shard probes: the same sub-query over the wire and in process.
    let mut slowest_s: f64 = 0.0;
    for (client, engine) in fleet.clients.iter().zip(&fleet.engines) {
        forget(fleet);
        let start = Instant::now();
        let remote = client.submit(sub.clone()).and_then(|p| p.wait());
        let remote_s = start.elapsed().as_secs_f64();
        forget(fleet);
        let start = Instant::now();
        let local = engine.answer_inline(&sub);
        let local_s = start.elapsed().as_secs_f64();
        slowest_s = slowest_s.max(local_s);
        tr.count("net.roundtrip_overhead_us", (remote_s - local_s) * 1e6);
        tr.count("net.calls", 1.0);
        match remote {
            Ok(remote) => {
                let request = WireRequest::Query(sub.clone());
                let reply = WireResponse::Response(remote);
                let bytes = tr.span("net.encode", NO_PARENT, || {
                    encode(&request).and_then(|req| encode(&reply).map(|rep| (req, rep)))
                });
                match bytes {
                    Ok((req, rep)) => {
                        tr.count("net.response_bytes", rep.len() as f64);
                        let decoded = tr.span("net.decode", NO_PARENT, || {
                            decode::<WireRequest>(&req).and_then(|_| decode::<WireResponse>(&rep))
                        });
                        if let Err(e) = decoded {
                            failures.push(format!("decode: {e}"));
                        }
                    }
                    Err(e) => failures.push(format!("encode: {e}")),
                }
                if let WireResponse::Response(remote) = reply {
                    if let Err(e) =
                        checks::same_digest("remote vs in-process shard", &remote, &local)
                    {
                        failures.push(e);
                    }
                }
            }
            Err(e) => failures.push(format!("probe: {e}")),
        }
    }
    tr.count("router.slowest_shard_us", slowest_s * 1e6);
    let agrees = if failures.is_empty() {
        checks::same_digest("traced scatter/gather", &merged, response)
    } else {
        Err(failures.join("; "))
    };
    FleetReplay {
        traced_s,
        untraced_s: response.latency.as_secs_f64(),
        agrees,
    }
}

/// A shard-local mapping in global tree ids (the router's translation).
fn globalize(mapping: &SchemaMapping, tree_map: &[TreeId]) -> SchemaMapping {
    let pairs = mapping
        .pairs()
        .iter()
        .map(|p| {
            MappingElement::new(
                p.personal,
                GlobalNodeId::new(tree_map[p.repo.tree.index()], p.repo.node),
                p.similarity,
            )
        })
        .collect();
    SchemaMapping::with_score(pairs, mapping.score)
}

fn traced_metrics(
    report: &mut Report,
    trace: &Trace,
    replays: &[FleetReplay],
) -> Result<(), String> {
    let n = replays.len() as f64;
    let calls = trace.counter("net.calls").max(1.0);
    let per = |v: f64| v / n.max(1.0);
    report.samples("replayed queries", replays.len());
    report.metric("planner.plan_us", per(trace.total_us("planner.plan")), "us");
    report.metric(
        "planner.exhaustive_plans",
        trace.counter("planner.exhaustive_plans"),
        "count",
    );
    report.metric(
        "router.plan_stats_us",
        per(trace.total_us("router.plan_stats")),
        "us",
    );
    report.metric(
        "router.shard_wait_us",
        per(trace.total_us("router.shard_wait")),
        "us",
    );
    report.metric(
        "router.slowest_shard_us",
        per(trace.counter("router.slowest_shard_us")),
        "us",
    );
    report.metric("router.merge_us", per(trace.total_us("router.merge")), "us");
    report.metric(
        "net.roundtrip_overhead_us",
        trace.counter("net.roundtrip_overhead_us") / calls,
        "us",
    );
    report.metric("net.encode_us", trace.total_us("net.encode") / calls, "us");
    report.metric("net.decode_us", trace.total_us("net.decode") / calls, "us");
    report.metric(
        "net.response_bytes",
        trace.counter("net.response_bytes") / calls,
        "bytes",
    );
    layers::self_times(report, trace, n);
    let traced: Vec<f64> = replays.iter().map(|r| r.traced_s).collect();
    let untraced: Vec<f64> = replays.iter().map(|r| r.untraced_s).collect();
    layers::overhead(report, &traced, &untraced)?;
    report.check(
        "traced scatter/gather equals the router's answer",
        checks::all(replays.iter().map(|r| r.agrees.clone())),
    );
    Ok(())
}
