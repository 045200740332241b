//! Per-layer figures of one traced pass, from the benchmark's own spans
//! and from the fleet's existing telemetry registry.

use crate::stats::{self_time, union_length};
use crate::trace::{name, Span};
use rankmap_telemetry::Registry;
use std::collections::HashMap;

/// `(span name, calls metric, mappings metric, busy metric)` per oracle
/// entry point.
const ORACLE: [(&str, &str, &str, &str); 3] = [
    (
        name::PREDICT,
        "oracle.predict.calls",
        "oracle.predict.mappings",
        "oracle.predict.busy_s",
    ),
    (
        name::PREDICT_BATCH,
        "oracle.predict_batch.calls",
        "oracle.predict_batch.mappings",
        "oracle.predict_batch.busy_s",
    ),
    (
        name::PREDICT_GROUPED,
        "oracle.predict_grouped.calls",
        "oracle.predict_grouped.mappings",
        "oracle.predict_grouped.busy_s",
    ),
];

/// `(executor stage, busy metric, calls metric)` per fleet stage.
const STAGES: [(&str, &str, &str); 7] = [
    (
        "probe_build",
        "fleet.probe_build.busy_s",
        "fleet.probe_build.calls",
    ),
    (
        "fused_scoring",
        "fleet.fused_scoring.busy_s",
        "fleet.fused_scoring.calls",
    ),
    ("apply", "fleet.apply.busy_s", "fleet.apply.calls"),
    ("remap", "fleet.remap.busy_s", "fleet.remap.calls"),
    (
        "rebalance_scan",
        "fleet.rebalance_scan.busy_s",
        "fleet.rebalance_scan.calls",
    ),
    (
        "evacuation",
        "fleet.evacuation.busy_s",
        "fleet.evacuation.calls",
    ),
    (
        "index_refile",
        "fleet.index_refile.busy_s",
        "fleet.index_refile.calls",
    ),
];

const NS: f64 = 1e-9;

/// Oracle, search and load figures of a pass that ran `ops` operations in
/// `wall_s` seconds.
pub fn from_spans(spans: &[Span], wall_s: f64, ops: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut mappings_total = 0;
    for (span, calls, mappings, busy) in ORACLE {
        let of_kind = spans.iter().filter(|s| s.name == span);
        let (n, items, dur) = of_kind.fold((0u64, 0u64, 0u64), |(n, i, d), s| {
            (n + 1, i + s.items, d + s.duration())
        });
        mappings_total += items;
        out.extend([
            (calls, n as f64),
            (mappings, items as f64),
            (busy, dur as f64 * NS),
        ]);
    }
    let oracle: Vec<&Span> = spans
        .iter()
        .filter(|s| name::ORACLE.contains(&s.name))
        .collect();
    let intervals: Vec<(u64, u64)> = oracle.iter().map(|s| s.interval()).collect();
    out.push((
        "oracle.mappings_per_op",
        mappings_total as f64 / ops.max(1) as f64,
    ));
    out.push((
        "oracle.wall_share",
        union_length(&intervals) as f64 * NS / wall_s,
    ));

    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &oracle {
        children.entry(s.parent).or_default().push(s.interval());
    }
    let (mut map_busy, mut search_self) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name::MAP) {
        map_busy += s.duration();
        search_self += self_time(s.interval(), children.get(&s.id).map_or(&[], Vec::as_slice));
    }
    out.push(("manager.map.busy_s", map_busy as f64 * NS));
    out.push(("search.self_s", search_self as f64 * NS));

    let next: u64 = spans
        .iter()
        .filter(|s| s.name == name::LOAD_NEXT)
        .map(Span::duration)
        .sum();
    out.push(("load.next_s", next as f64 * NS));
    out.push((
        "load.events",
        spans.iter().filter(|s| s.name == name::EVENT).count() as f64,
    ));
    out
}

/// Fleet stage, plan-cache and probe-memo figures from a run's telemetry
/// registry (wall-clock stage timing on). Stages nest — index refiles run
/// inside the rebalance scan, placement stages inside an evacuation — so
/// `fleet.unstaged_s`, the pass wall time minus all stage time, is a lower
/// bound on the time no stage covers.
pub fn from_telemetry(registry: &Registry, wall_s: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut staged = 0.0;
    for (stage, busy, calls) in STAGES {
        let key = |family: &str| format!("{family}{{stage=\"{stage}\"}}");
        let seconds = registry
            .histogram(&key("stage_wall_seconds"))
            .map_or(0.0, |h| h.approx_sum());
        staged += seconds;
        out.push((busy, seconds));
        out.push((
            calls,
            registry.counter(&key("fleet_stage_entered_total")) as f64,
        ));
    }
    out.push(("fleet.unstaged_s", (wall_s - staged).max(0.0)));
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (
            registry.counter(hits) as f64,
            registry.counter(misses) as f64,
        );
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    out.push((
        "core.plan_cache.hit_ratio",
        ratio(
            "fleet_plan_cache_hits_total",
            "fleet_plan_cache_misses_total",
        ),
    ));
    out.push((
        "fleet.probe_memo.hit_ratio",
        ratio(
            "fleet_probe_memo_hits_total",
            "fleet_probe_memo_misses_total",
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, items: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 0,
            start,
            end,
            items,
        }
    }

    fn get(figures: &[(&str, f64)], key: &str) -> f64 {
        figures
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .expect(key)
    }

    #[test]
    fn search_self_time_excludes_oracle_children() {
        let spans = [
            span(1, 0, name::MAP, 0, 1_000, 1),
            span(2, 1, name::PREDICT_BATCH, 100, 300, 8),
            span(3, 1, name::PREDICT_BATCH, 250, 400, 8),
            span(4, 1, name::PREDICT, 900, 950, 1),
            span(5, 0, name::MAP, 2_000, 2_500, 1),
        ];
        let f = from_spans(&spans, 4_000.0 * NS, 2);
        assert_eq!(get(&f, "manager.map.busy_s"), 1_500.0 * NS);
        assert_eq!(get(&f, "search.self_s"), (650.0 + 500.0) * NS);
        assert_eq!(get(&f, "oracle.predict_batch.calls"), 2.0);
        assert_eq!(get(&f, "oracle.predict_batch.mappings"), 16.0);
        assert_eq!(get(&f, "oracle.predict.busy_s"), 50.0 * NS);
        assert_eq!(get(&f, "oracle.mappings_per_op"), 8.5);
        // Oracle calls cover 100..400 and 900..950 of a 4000 ns pass.
        assert!((get(&f, "oracle.wall_share") - 350.0 / 4_000.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_figures_read_stage_histograms_and_counters() {
        let mut r = Registry::new();
        r.histogram_record("stage_wall_seconds{stage=\"apply\"}", 0.5);
        r.counter_add("fleet_stage_entered_total{stage=\"apply\"}", 3);
        r.counter_add("fleet_probe_memo_hits_total", 3);
        r.counter_add("fleet_probe_memo_misses_total", 1);
        let f = from_telemetry(&r, 2.0);
        assert!((get(&f, "fleet.apply.busy_s") - 0.5).abs() < 0.03);
        assert_eq!(get(&f, "fleet.apply.calls"), 3.0);
        assert_eq!(get(&f, "fleet.remap.calls"), 0.0);
        assert!((get(&f, "fleet.unstaged_s") - 1.5).abs() < 0.03);
        assert_eq!(get(&f, "fleet.probe_memo.hit_ratio"), 0.75);
        assert_eq!(get(&f, "core.plan_cache.hit_ratio"), 0.0);
    }
}
