//! One benchmark run: repeated passes over a workload's seeded inputs
//! until the time budget is spent, then the end-to-end or per-layer
//! figures and the correctness verdict.

use crate::board::BoardMap;
use crate::fleet::FleetBench;
use crate::proc_stats::{OpTimes, ProcSample, Stamp};
use crate::stats::{percentile, samples_beyond, valid_metric_name};
use crate::trace::{Span, Tracer};
use rankmap_core::metrics::quartiles;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics, `(name, unit)`: what `--trace 0` reports.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("potential_mean", "ratio"),
    ("unstarved_ratio", "ratio"),
];

/// End-to-end figures printed as text only. The wall-clock timings move
/// with the CPU time the hypervisor steals on a shared host. The peak
/// resident set moves by up to a quarter between runs of one seed, with
/// the scheduling of the threads that allocate.
const TEXT_ONLY: [(&str, &str); 5] = [
    ("setup_wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`: what `--trace 1` reports. Work
/// counts and busy times are per pass; a layer a workload does not use
/// reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("oracle.predict.calls", "count"),
    ("oracle.predict.mappings", "count"),
    ("oracle.predict.busy_s", "s"),
    ("oracle.predict_batch.calls", "count"),
    ("oracle.predict_batch.mappings", "count"),
    ("oracle.predict_batch.busy_s", "s"),
    ("oracle.predict_grouped.calls", "count"),
    ("oracle.predict_grouped.mappings", "count"),
    ("oracle.predict_grouped.busy_s", "s"),
    ("oracle.mappings_per_op", "count/op"),
    ("oracle.wall_share", "ratio"),
    ("manager.map.busy_s", "s"),
    ("search.self_s", "s"),
    ("search.evaluations_per_op", "count/op"),
    ("fleet.probe_build.busy_s", "s"),
    ("fleet.probe_build.calls", "count"),
    ("fleet.fused_scoring.busy_s", "s"),
    ("fleet.fused_scoring.calls", "count"),
    ("fleet.apply.busy_s", "s"),
    ("fleet.apply.calls", "count"),
    ("fleet.remap.busy_s", "s"),
    ("fleet.remap.calls", "count"),
    ("fleet.rebalance_scan.busy_s", "s"),
    ("fleet.rebalance_scan.calls", "count"),
    ("fleet.evacuation.busy_s", "s"),
    ("fleet.evacuation.calls", "count"),
    ("fleet.index_refile.busy_s", "s"),
    ("fleet.index_refile.calls", "count"),
    ("fleet.unstaged_s", "s"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("fleet.probe_memo.hit_ratio", "ratio"),
    ("load.next_s", "s"),
    ("load.events", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cores_used", "cores"),
    ("proc.ctx_switches", "count"),
    ("proc.host_threads", "count"),
    ("trace.overhead", "ratio"),
];

/// Set-ups timed per round of passes; `setup_s` is their median.
const SETUP_SAMPLES: usize = 20;

/// A named correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

impl Check {
    pub fn new(what: impl Into<String>, ok: bool) -> Self {
        Self {
            what: what.into(),
            ok,
        }
    }
}

/// Deterministic decision quality of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Unqualified plans per map, or refused (rejected + shed) requests
    /// per offered request.
    pub fail_ratio: f64,
    /// Mean throughput as a share of each DNN's ideal rate.
    pub potential_mean: f64,
    /// Share of DNN-time below the starvation floor.
    pub starved_ratio: f64,
    /// Workload-specific figures: `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed region (all operations, back to back).
    pub wall_s: f64,
    /// Per-operation wall and CPU times.
    pub ops: OpTimes,
    pub digest: u64,
    pub failed_ops: u64,
    pub checks: Vec<Check>,
    pub quality: Option<Quality>,
    /// Per-layer figures (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn new(wall_s: f64, ops: OpTimes, digest: u64, failed_ops: u64) -> Self {
        Self {
            wall_s,
            ops,
            digest,
            failed_ops,
            ..Default::default()
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s
    }
}

fn median(samples: &[f64]) -> f64 {
    quartiles(samples).2
}

/// Each operation's least time over `passes`, on the clock `times` reads.
/// Every pass makes the same operations, so an operation slowed in one
/// pass by outside load on the host counts at its speed in another.
fn fastest(passes: &[Pass], times: fn(&OpTimes) -> &[f64]) -> Vec<f64> {
    let mut passes = passes.iter();
    let mut best = passes
        .next()
        .map_or_else(Vec::new, |p| times(&p.ops).to_vec());
    for pass in passes {
        for (b, t) in best.iter_mut().zip(times(&pass.ops)) {
            *b = b.min(*t);
        }
    }
    best
}

/// Operations per second of back-to-back operations taking `op_s` each.
fn ops_per_s(op_s: &[f64]) -> f64 {
    op_s.len() as f64 / op_s.iter().sum::<f64>()
}

fn cpu(t: &OpTimes) -> &[f64] {
    &t.cpu_s
}

fn wall(t: &OpTimes) -> &[f64] {
    &t.wall_s
}

/// A benchmark workload.
pub enum Bench {
    Board(BoardMap),
    Fleet(Box<FleetBench>),
}

impl Bench {
    pub const NAMES: [&'static str; 3] = ["board_map", "fleet_wide", "fleet_faults"];

    pub fn named(name: &str) -> Option<Self> {
        match name {
            "board_map" => Some(Bench::Board(BoardMap { maps: 100 })),
            "fleet_wide" => Some(Bench::Fleet(Box::new(FleetBench::wide(200.0)))),
            "fleet_faults" => Some(Bench::Fleet(Box::new(FleetBench::faults(1_200.0)))),
            _ => None,
        }
    }

    fn setup(&self, seed: u64) {
        match self {
            Bench::Board(b) => b.setup(seed),
            Bench::Fleet(f) => f.setup(seed),
        }
    }

    fn pass(&self, seed: u64, tracer: Option<&Tracer>, first: bool) -> Pass {
        match self {
            Bench::Board(b) => b.pass(seed, tracer, first),
            Bench::Fleet(f) => f.pass(seed, tracer),
        }
    }
}

/// The outcome of a run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON result line: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Spans of every traced pass.
    pub spans: Vec<Vec<Span>>,
}

/// Everything the rounds of one run measured.
struct Rounds {
    setups: OpTimes,
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    /// Process counters over the untraced passes.
    cpu_s: f64,
    ctx_switches: u64,
    proc_wall_s: f64,
    peak_rss_mb: Vec<f64>,
    /// Share of host CPU time the hypervisor stole during each untraced
    /// pass.
    steal_share: Vec<f64>,
}

impl Rounds {
    /// Runs rounds of passes — untraced, plus a traced one each round when
    /// `traced` — while the next round is expected to end within `seconds`.
    fn measure(bench: &Bench, seed: u64, seconds: f64, traced: bool) -> Result<Self, String> {
        let started = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut r = Rounds {
            setups: OpTimes::default(),
            plain: Vec::new(),
            traced: Vec::new(),
            cpu_s: 0.0,
            ctx_switches: 0,
            proc_wall_s: 0.0,
            peak_rss_mb: Vec::new(),
            steal_share: Vec::new(),
        };
        loop {
            let round = Instant::now();
            for _ in 0..SETUP_SAMPLES {
                let t = Stamp::now();
                bench.setup(seed);
                r.setups.push(&t, &Stamp::now());
            }
            ProcSample::reset_peak_rss()?;
            let before = ProcSample::read()?;
            let t = Instant::now();
            r.plain.push(bench.pass(seed, None, r.plain.is_empty()));
            r.proc_wall_s += t.elapsed().as_secs_f64();
            let after = ProcSample::read()?;
            r.cpu_s += after.cpu_s - before.cpu_s;
            r.ctx_switches += after.ctx_switches - before.ctx_switches;
            r.peak_rss_mb.push(after.peak_rss_kb as f64 / 1024.0);
            let ticks = after.host_ticks - before.host_ticks;
            let stolen = after.host_steal_ticks - before.host_steal_ticks;
            r.steal_share.push(stolen as f64 / ticks.max(1) as f64);
            if traced {
                r.traced.push(bench.pass(seed, Some(&Tracer::new()), false));
            }
            if started.elapsed() + round.elapsed() > budget {
                return Ok(r);
            }
        }
    }

    fn all(&self) -> impl Iterator<Item = &Pass> {
        self.plain.iter().chain(&self.traced)
    }

    /// Run-level checks, then each pass-level check (failed if it failed
    /// in any pass).
    fn checks(&self, quality: &Quality) -> Vec<Check> {
        let reference = self.plain[0].digest;
        let mut checks = vec![Check::new(
            "decision digest equal across untraced passes",
            self.plain.iter().all(|p| p.digest == reference),
        )];
        if !self.traced.is_empty() {
            checks.push(Check::new(
                "traced digest equals untraced digest (decorator is bit-identical)",
                self.traced.iter().all(|p| p.digest == reference),
            ));
        }
        checks.push(Check::new(
            "deterministic figures equal across passes",
            self.all()
                .all(|p| p.quality.as_ref().is_none_or(|q| q == quality)),
        ));
        let mut by_name: BTreeMap<&str, bool> = BTreeMap::new();
        for c in self.all().flat_map(|p| &p.checks) {
            *by_name.entry(&c.what).or_insert(true) &= c.ok;
        }
        checks.extend(by_name.into_iter().map(|(what, ok)| Check::new(what, ok)));
        checks
    }

    /// End-to-end figures, the text-only ones included.
    fn end_to_end(&self, quality: &Quality) -> BTreeMap<&'static str, f64> {
        let on_cpu = fastest(&self.plain, cpu);
        let on_wall = fastest(&self.plain, wall);
        let ms = |times: &[f64], p: f64| percentile(times, p).unwrap_or(f64::NAN) * 1e3;
        BTreeMap::from([
            ("setup_s", median(&self.setups.cpu_s)),
            ("ops_per_cpu_s", ops_per_s(&on_cpu)),
            ("op_cpu_p50_ms", ms(&on_cpu, 50.0)),
            ("op_cpu_p90_ms", ms(&on_cpu, 90.0)),
            ("success_ratio", 1.0 - quality.fail_ratio),
            ("potential_mean", quality.potential_mean),
            ("unstarved_ratio", 1.0 - quality.starved_ratio),
            ("setup_wall_s", median(&self.setups.wall_s)),
            ("peak_rss_mb", median(&self.peak_rss_mb)),
            ("ops_per_s", ops_per_s(&on_wall)),
            ("op_p50_ms", ms(&on_wall, 50.0)),
            ("op_p90_ms", ms(&on_wall, 90.0)),
        ])
    }

    /// Per-layer figures: the mean over the traced passes, plus the
    /// process counters of the untraced passes and the tracing overhead.
    fn per_layer(&self, host_threads: usize) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut layer: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        let n = self.traced.len() as f64;
        for (name, value) in self.traced.iter().flat_map(|p| &p.layers) {
            *layer
                .get_mut(name)
                .ok_or_else(|| format!("unlisted layer metric {name}"))? += value / n;
        }
        let passes = self.plain.len() as f64;
        layer.insert("proc.cpu_s", self.cpu_s / passes);
        layer.insert("proc.cores_used", self.cpu_s / self.proc_wall_s);
        layer.insert("proc.ctx_switches", self.ctx_switches as f64 / passes);
        layer.insert("proc.host_threads", host_threads as f64);
        layer.insert(
            "trace.overhead",
            ops_per_s(&fastest(&self.plain, cpu)) / ops_per_s(&fastest(&self.traced, cpu)) - 1.0,
        );
        Ok(layer)
    }
}

/// Runs one workload for about `seconds` and reports its end-to-end
/// metrics, or with `traced` its per-layer metrics.
pub fn run(bench: &Bench, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let r = Rounds::measure(bench, seed, seconds, traced)?;
    let quality = r.plain[0]
        .quality
        .clone()
        .ok_or("the first pass has no quality figures")?;
    let mut checks = r.checks(&quality);
    let e2e = r.end_to_end(&quality);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let on_cpu = fastest(&r.plain, cpu);
    let ops = on_cpu.len();
    let deciles: Vec<f64> = (1..10)
        .map(|d| percentile(&on_cpu, f64::from(d) * 10.0).unwrap_or(f64::NAN) * 1e3)
        .collect();
    let mut lines = vec![
        format!(
            "passes: {} untraced, {} traced; host_threads {host_threads}; {} set-ups timed",
            r.plain.len(),
            r.traced.len(),
            r.setups.len()
        ),
        format!(
            "ops per pass: {ops}; p50 has {} and p90 has {} samples beyond it",
            samples_beyond(ops, 50.0),
            samples_beyond(ops, 90.0)
        ),
        format!("op CPU time deciles (ms): {deciles:.3?}"),
        format!("decision digest: {:016x}", r.plain[0].digest),
        format!(
            "untraced passes as (ops_per_s, % of host CPU time stolen by the hypervisor, peak_rss_mb): {:.1?}",
            r.plain
                .iter()
                .zip(&r.steal_share)
                .zip(&r.peak_rss_mb)
                .map(|((p, s), m)| (p.ops_per_s(), 100.0 * s, m))
                .collect::<Vec<_>>()
        ),
    ];
    for (name, unit) in END_TO_END.iter().chain(&TEXT_ONLY) {
        lines.push(format!("end_to_end {name} = {} {unit}", e2e[name]));
    }
    let ratios = [
        ("fail_ratio", quality.fail_ratio, "ratio"),
        ("starved_ratio", quality.starved_ratio, "ratio"),
    ];
    for (name, value, unit) in ratios.iter().chain(&quality.extra) {
        lines.push(format!("end_to_end {name} = {value} {unit}"));
    }
    let (table, values) = if traced {
        let layer = r.per_layer(host_threads)?;
        for (name, unit) in PER_LAYER {
            lines.push(format!("per_layer {name} = {} {unit}", layer[name]));
        }
        (&PER_LAYER[..], layer)
    } else {
        (&END_TO_END[..], e2e)
    };
    let metrics: Vec<(&'static str, f64, &'static str)> =
        table.iter().map(|&(n, u)| (n, values[n], u)).collect();
    checks.push(Check::new(
        "every reported metric has a valid name and a finite value",
        metrics
            .iter()
            .all(|(n, v, _)| valid_metric_name(n) && v.is_finite()),
    ));
    for c in &checks {
        lines.push(format!(
            "check {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.what
        ));
    }
    let failed = r.all().map(|p| p.failed_ops).sum();
    Ok(Report {
        correct: failed == 0 && checks.iter().all(|c| c.ok),
        attempted: r.all().map(|p| p.ops.len() as u64).sum(),
        failed,
        metrics,
        lines,
        spans: r.traced.into_iter().map(|p| p.spans).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_core::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Bench::NAMES);
    }

    #[test]
    fn timings_take_each_operations_fastest_pass() {
        let pass = |wall_s: &[f64], cpu_s: &[f64]| {
            let ops = OpTimes {
                wall_s: wall_s.to_vec(),
                cpu_s: cpu_s.to_vec(),
            };
            Pass::new(1.0, ops, 0, 0)
        };
        let passes = [
            pass(&[3.0, 1.0, 5.0], &[6.0, 2.0, 9.0]),
            pass(&[2.0, 4.0, 6.0], &[7.0, 1.0, 9.0]),
            pass(&[9.0, 2.0, 4.0], &[5.0, 3.0, 8.0]),
        ];
        assert_eq!(fastest(&passes, wall), [2.0, 1.0, 4.0]);
        assert_eq!(fastest(&passes, cpu), [5.0, 1.0, 8.0]);
        assert_eq!(fastest(&passes[..1], wall), [3.0, 1.0, 5.0]);
        assert_eq!(ops_per_s(&[0.25, 0.5, 0.25]), 3.0);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_metric_name(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(Bench::NAMES
            .iter()
            .all(|n| valid_metric_name(n) && Bench::named(n).is_some()));
    }
}
