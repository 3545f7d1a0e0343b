//! Per-layer metrics derived from a traced run's spans and counters.

use crate::report::Report;
use crate::trace::Trace;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A traced
/// run prints all of them on every workload; a layer the workload never
/// calls (the router on serve, the live repository on paper) reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("engine.unattributed_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.exhaustive_plans", "count"),
    ("index.resolve_us", "us"),
    ("index.filter_us", "us"),
    ("index.candidates_examined", "count"),
    ("index.survivors", "count"),
    ("index.positional_rejections", "count"),
    ("index.useful_ratio", "ratio"),
    ("element.verify_us", "us"),
    ("element.kernel_calls", "count"),
    ("element.ns_per_kernel_call", "ns"),
    ("element.mapping_elements", "count"),
    ("kmeans.cluster_us", "us"),
    ("clustering.total_us", "us"),
    ("kmeans.iterations", "count"),
    ("kmeans.final_clusters", "count"),
    ("clustering.useful_clusters", "count"),
    ("bnb.generate_us", "us"),
    ("bnb.partial_mappings", "count"),
    ("bnb.pruned_branches", "count"),
    ("bnb.search_space", "count"),
    ("bnb.retained", "count"),
    ("router.plan_stats_us", "us"),
    ("router.shard_wait_us", "us"),
    ("router.slowest_shard_us", "us"),
    ("router.merge_us", "us"),
    ("net.roundtrip_overhead_us", "us"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.response_bytes", "bytes"),
    ("live.append_us", "us"),
    ("live.delete_us", "us"),
    ("live.compact_us", "us"),
    ("live.compactions", "count"),
    ("live.dead_posting_fraction", "ratio"),
    ("self.engine_us", "us"),
    ("self.planner_us", "us"),
    ("self.index_us", "us"),
    ("self.element_us", "us"),
    ("self.kmeans_us", "us"),
    ("self.clustering_us", "us"),
    ("self.bnb_us", "us"),
    ("self.router_us", "us"),
    ("self.net_us", "us"),
    ("self.live_us", "us"),
    ("self.core_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Add every declared per-layer metric the workload did not record, as 0:
/// the layer was not called.
pub fn complete(report: &mut Report) {
    for (name, unit) in PER_LAYER {
        if !report.has_metric(name) {
            report.metric(name, 0.0, unit);
        }
    }
}

/// Per-operation means of the query pipeline's layers (index, element
/// verification, clustering, B&B, planner) over `queries` replayed queries.
pub fn pipeline(report: &mut Report, trace: &Trace, queries: f64, with_index: bool) {
    let per = |v: f64| v / queries.max(1.0);
    if with_index {
        report.metric("planner.plan_us", per(trace.total_us("planner.plan")), "us");
        report.metric(
            "planner.exhaustive_plans",
            trace.counter("planner.exhaustive_plans"),
            "count",
        );
        report.metric(
            "index.resolve_us",
            per(trace.total_us("index.resolve")),
            "us",
        );
        report.metric("index.filter_us", per(trace.total_us("index.filter")), "us");
        for name in [
            "index.candidates_examined",
            "index.survivors",
            "index.positional_rejections",
        ] {
            report.metric(name, per(trace.counter(name)), "count");
        }
        let survivors = trace.counter("index.survivors");
        report.metric(
            "index.useful_ratio",
            if survivors > 0.0 {
                trace.counter("index.pruned_mapping_elements") / survivors
            } else {
                0.0
            },
            "ratio",
        );
    }
    let verify_us = trace.total_us("element.verify");
    let kernel_calls = trace.counter("element.kernel_calls");
    report.metric("element.verify_us", per(verify_us), "us");
    report.metric("element.kernel_calls", per(kernel_calls), "count");
    report.metric(
        "element.ns_per_kernel_call",
        if kernel_calls > 0.0 {
            verify_us * 1e3 / kernel_calls
        } else {
            0.0
        },
        "ns",
    );
    report.metric(
        "element.mapping_elements",
        per(trace.counter("element.mapping_elements")),
        "count",
    );
    let kmeans_us = trace.total_us("kmeans.cluster");
    report.metric("kmeans.cluster_us", per(kmeans_us), "us");
    report.metric(
        "clustering.total_us",
        per(kmeans_us + trace.total_us("clustering.scopes")),
        "us",
    );
    let runs = trace.counter("kmeans.runs").max(1.0);
    report.metric(
        "kmeans.iterations",
        trace.counter("kmeans.iterations") / runs,
        "count",
    );
    report.metric(
        "kmeans.final_clusters",
        trace.counter("kmeans.final_clusters") / runs,
        "count",
    );
    report.metric(
        "clustering.useful_clusters",
        per(trace.counter("clustering.useful_clusters")),
        "count",
    );
    report.metric("bnb.generate_us", per(trace.total_us("bnb.generate")), "us");
    for name in [
        "bnb.partial_mappings",
        "bnb.pruned_branches",
        "bnb.search_space",
        "bnb.retained",
    ] {
        report.metric(name, per(trace.counter(name)), "count");
    }
}

/// Self time of every layer seen in the trace, per operation.
pub fn self_times(report: &mut Report, trace: &Trace, ops: f64) {
    for (layer, us) in trace.self_time_us() {
        report.metric(&format!("self.{layer}_us"), us / ops.max(1.0), "us");
    }
}

/// Tracing overhead: how much longer the traced replays took than the
/// untraced executions of the same operations, in percent of the latter.
pub fn overhead(report: &mut Report, traced_s: &[f64], untraced_s: &[f64]) -> Result<(), String> {
    let traced = crate::stats::median(traced_s, "traced replays")?;
    let untraced = crate::stats::median(untraced_s, "untraced executions")?;
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    Ok(())
}

/// Write the spans out and note where they went.
pub fn write_spans(report: &mut Report, trace: &Trace, path: &std::path::Path) {
    match trace.write_tsv(path) {
        Ok(n) => report.note(format!("{n} spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}
