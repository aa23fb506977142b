//! The metric catalogue (what `BENCHMARK.json` lists) and the result
//! line every run prints last.

use crate::Checks;
use mosaic_sim::json::Json;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Unique name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: &[MetricDef] = &[
    lower("cpu_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, measured by the traced run. A layer the workload
/// never enters reports `0`.
pub const PER_LAYER: &[MetricDef] = &[
    lower("traffic.step_ns_p50", "ns/step"),
    lower("traffic.step_ns_tail", "ns/step"),
    lower("traffic.epochs", "count"),
    lower("traffic.step_ns_per_frame", "ns/frame"),
    lower("traffic.setup_us_per_run", "us/run"),
    lower("traffic.emit_ns_per_frame", "ns/frame"),
    lower("traffic.self_ns_per_frame", "ns/frame"),
    higher("traffic.useful_frac", "ratio"),
    higher("traffic.replay_cover_frac", "ratio"),
    lower("link.transmit_ns_per_frame", "ns/frame"),
    lower("link.receive_ns_per_frame", "ns/frame"),
    lower("link.degrade_ns_per_epoch", "ns/epoch"),
    lower("link.degrade_replay_ns_per_window", "ns/window"),
    lower("link.transitions", "count"),
    lower("link.spares_activated", "count"),
    lower("link.deskew_fail_epochs", "count"),
    lower("sim.campaign_generate_ns", "ns/campaign"),
    lower("sim.campaign_events_per_link", "events/link"),
    lower("netsim.ns_per_es_link", "ns/link"),
    lower("netsim.self_ns_per_es_link", "ns/link"),
    lower("core.budget_build_us", "us/call"),
    lower("core.evaluate_us", "us/call"),
    lower("bench.f1_s", "s/pass"),
    lower("bench.f2_s", "s/pass"),
    lower("bench.t1_s", "s/pass"),
    lower("bench.f3_s", "s/pass"),
    lower("bench.f4_s", "s/pass"),
    lower("bench.f5_s", "s/pass"),
    lower("bench.f6_s", "s/pass"),
    lower("bench.f7_s", "s/pass"),
    lower("bench.f8_s", "s/pass"),
    lower("bench.f9_s", "s/pass"),
    lower("bench.f10_s", "s/pass"),
    lower("bench.f11_s", "s/pass"),
    lower("bench.f12_s", "s/pass"),
    lower("bench.f13_s", "s/pass"),
    lower("bench.f14_s", "s/pass"),
    lower("bench.f15_s", "s/pass"),
    lower("bench.f16_s", "s/pass"),
    lower("bench.f17_s", "s/pass"),
    lower("bench.f18_s", "s/pass"),
    lower("bench.f19_s", "s/pass"),
    lower("bench.t2_s", "s/pass"),
    lower("bench.t3_s", "s/pass"),
    lower("trace_overhead_frac", "ratio"),
];

/// The value of metric `name` in `values`; `0` for a layer the workload
/// never entered.
pub fn value(values: &[(&str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue`, each with its unit.
pub fn result_json(checks: &Checks, catalogue: &[MetricDef], values: &[(&str, f64)]) -> Json {
    let mut metrics = Json::object();
    for m in catalogue {
        metrics.set(
            m.name,
            Json::object()
                .with("value", value(values, m.name))
                .with("unit", m.unit),
        );
    }
    Json::object()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", metrics)
}
