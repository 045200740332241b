//! The fleet workloads: a seeded `LoadStream` pulled by
//! `FleetRuntime::execute_stream`, one event at a time.

use crate::board::STARVE_FLOOR;
use crate::layers;
use crate::proc_stats::OpTimes;
use crate::run::{Check, Pass, Quality};
use crate::stats::Digest;
use crate::trace::{Feed, TracedOracle, Tracer};
use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::{AnalyticalOracle, ThroughputOracle};
use rankmap_fleet::{
    ArrivalProcess, FaultSpec, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, LoadStream,
    Popularity, TelemetrySpec,
};
use rankmap_platform::Platform;
use std::hint::black_box;
use std::time::Instant;

pub struct FleetBench {
    shards: usize,
    config: FleetConfig,
    load: LoadSpec,
    /// Whether the load carries a fault stream (reports tier availability).
    faults: bool,
}

impl FleetBench {
    /// 128 shards under Zipf-skewed traffic with small search budgets:
    /// placement, not search, dominates.
    pub fn wide(horizon: f64) -> Self {
        Self {
            shards: 128,
            config: FleetConfig {
                manager: ManagerConfig {
                    mcts_iterations: 16,
                    warm_iterations: 8,
                    plan_cache_capacity: 512,
                    ..Default::default()
                },
                max_per_shard: 3,
                sample_dt: 250.0,
                ..Default::default()
            },
            load: LoadSpec {
                horizon,
                process: ArrivalProcess::Poisson { rate: 5.0 },
                mean_lifetime: 40.0,
                priority_churn_rate: 1.0 / 1_500.0,
                popularity: Popularity::Zipf { exponent: 1.05 },
                ..Default::default()
            },
            faults: false,
        }
    }

    /// 16 overloaded shards under outages, throttling and frequent
    /// priority changes: rejections, retries, evacuations and all-shard
    /// remaps.
    pub fn faults(horizon: f64) -> Self {
        Self {
            shards: 16,
            config: FleetConfig {
                manager: ManagerConfig {
                    mcts_iterations: 150,
                    warm_iterations: 75,
                    ..Default::default()
                },
                retry_limit: 2,
                ..Default::default()
            },
            load: LoadSpec {
                horizon,
                process: ArrivalProcess::Poisson { rate: 0.6 },
                // About a fifth of the requests are refused. With 300 s
                // lifetimes over half were, and the median event fell on
                // the edge between cheap refusals and remaps, so it moved
                // by a third from seed to seed.
                mean_lifetime: 150.0,
                priority_churn_rate: 1.0 / 60.0,
                faults: Some(FaultSpec {
                    shards: 16,
                    mtbf: 400.0,
                    mttr: 60.0,
                    throttle_rate: 1.0 / 150.0,
                    ..Default::default()
                }),
                ..Default::default()
            },
            faults: true,
        }
    }

    fn load(&self, seed: u64) -> LoadSpec {
        let mut load = self.load.clone();
        load.seed = seed;
        if let Some(f) = load.faults.as_mut() {
            f.seed = seed ^ 0x5eed_fa17;
        }
        load
    }

    fn config(&self, traced: bool) -> FleetConfig {
        let mut config = self.config.clone();
        if traced {
            config.telemetry = TelemetrySpec::on().with_wall_clock();
        }
        config
    }

    /// One set-up: platform, oracle, fleet and event stream.
    pub fn setup(&self, seed: u64) {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let fleet = FleetRuntime::homogeneous(&platform, &oracle, self.shards, self.config(false));
        let stream = LoadStream::new(&self.load(seed));
        black_box((&fleet, &stream));
    }

    /// One run of the seed's event stream on a fresh fleet. When traced,
    /// the oracle is wrapped in the span decorator and the fleet's own
    /// telemetry (wall-clock stages included) is switched on.
    pub fn pass(&self, seed: u64, tracer: Option<&Tracer>) -> Pass {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        match tracer {
            None => self.drive(&platform, &oracle, seed, None),
            Some(t) => self.drive(&platform, &TracedOracle::new(&oracle, t), seed, Some(t)),
        }
    }

    fn drive<O: ThroughputOracle>(
        &self,
        platform: &Platform,
        oracle: &O,
        seed: u64,
        tracer: Option<&Tracer>,
    ) -> Pass {
        let load = self.load(seed);
        let fleet =
            FleetRuntime::homogeneous(platform, oracle, self.shards, self.config(tracer.is_some()));
        let mut stalls = OpTimes::default();
        let feed = Feed::new(LoadStream::new(&load), &mut stalls, tracer);
        let started = Instant::now();
        let outcome = fleet.execute_stream(feed, load.horizon);
        let wall_s = started.elapsed().as_secs_f64();
        let events = stalls.len();

        let mut pass = Pass::new(wall_s, stalls, digest(&outcome), 0);
        let balanced = outcome.metrics.accounting_balances();
        pass.checks
            .push(Check::new("FleetMetrics::accounting_balances()", balanced));
        if !balanced {
            pass.failed_ops = events as u64;
        }
        pass.quality = Some(self.quality(&outcome));
        if let Some(t) = tracer {
            let spans = t.spans();
            pass.layers = layers::from_spans(&spans, wall_s, events);
            let snapshot = outcome
                .telemetry
                .as_ref()
                .expect("traced fleets run with telemetry");
            pass.layers
                .extend(layers::from_telemetry(&snapshot.registry, wall_s));
            pass.spans = spans;
        }
        pass
    }

    /// Deterministic decision quality from the outcome: refusals, and
    /// potential and starvation per unit of DNN-time on the timelines
    /// (migration-stall points excluded).
    fn quality(&self, outcome: &FleetOutcome) -> Quality {
        let m = &outcome.metrics;
        let (mut pot_time, mut dnn_time, mut starved_time) = (0.0, 0.0, 0.0);
        for point in outcome.timelines.iter().flatten() {
            if point.migration_stall > 0.0 {
                continue;
            }
            for &p in &point.potentials {
                pot_time += p * point.span;
                dnn_time += point.span;
                if p < STARVE_FLOOR {
                    starved_time += point.span;
                }
            }
        }
        let mut extra = Vec::new();
        if self.faults {
            extra.push(("high_tier_availability", m.tier_availability()[0], "ratio"));
        }
        Quality {
            fail_ratio: (m.rejected + m.shed) as f64 / m.offered.max(1) as f64,
            potential_mean: pot_time / dnn_time.max(f64::MIN_POSITIVE),
            starved_ratio: starved_time / dnn_time.max(f64::MIN_POSITIVE),
            extra,
        }
    }
}

/// Placements, metrics and timelines: every decision a fleet run makes.
fn digest(outcome: &FleetOutcome) -> u64 {
    let mut d = Digest::new();
    d.feed_debug(&outcome.metrics);
    d.feed_debug(&outcome.placements);
    d.feed_debug(&outcome.timelines);
    d.value()
}
