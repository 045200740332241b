//! `board_map`: the paper's single-board problem. Cold
//! `RankMapManager::map` calls, one at a time, each mapping a seeded mix
//! of 3–5 distinct models under alternating dynamic and critical
//! priorities.

use crate::layers;
use crate::proc_stats::{OpTimes, Stamp};
use crate::run::{Check, Pass, Quality};
use crate::stats::Digest;
use crate::trace::{name, TracedOracle, Tracer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rankmap_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// A pass's share of DNN-time below this fraction of its ideal rate
/// counts as starved (the fleet's admission floor).
pub const STARVE_FLOOR: f64 = 0.05;

/// One seeded map request.
struct Mix {
    workload: Workload,
    mode: PriorityMode,
    /// The favoured DNN under static priorities.
    critical: Option<usize>,
}

pub struct BoardMap {
    /// `map` calls per pass.
    pub maps: usize,
}

impl BoardMap {
    /// The seed's mixes. Sizes cycle 3, 4, 5 and models are dealt from
    /// repeatedly shuffled decks of the pool, so every seed sees each size
    /// and each model equally often and only the combinations differ.
    fn mixes(&self, seed: u64) -> Vec<Mix> {
        let pool = ModelId::paper_pool();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deck: Vec<ModelId> = Vec::new();
        (0..self.maps)
            .map(|i| {
                let n = 3 + i % 3;
                let mut ids: Vec<ModelId> = Vec::with_capacity(n);
                while ids.len() < n {
                    if deck.iter().all(|m| ids.contains(m)) {
                        let mut fresh = pool.clone();
                        fresh.shuffle(&mut rng);
                        deck.extend(fresh);
                    }
                    // Deal the first card this mix does not hold yet.
                    let k = deck
                        .iter()
                        .position(|m| !ids.contains(m))
                        .expect("a fresh deck");
                    ids.push(deck.remove(k));
                }
                let critical = (i % 2 == 1).then(|| rng.gen_range(0..n));
                let mode = critical.map_or(PriorityMode::Dynamic, |c| PriorityMode::critical(n, c));
                Mix {
                    workload: Workload::from_ids(ids),
                    mode,
                    critical,
                }
            })
            .collect()
    }

    /// The manager of one pass, with the lazy per-model ideal rates
    /// measured up front for the whole model pool.
    fn manager<'p, O: ThroughputOracle>(
        platform: &'p Platform,
        oracle: &'p O,
    ) -> RankMapManager<'p, O> {
        let manager = RankMapManager::new(platform, oracle, ManagerConfig::default());
        manager.ideal_rates(&Workload::from_ids(ModelId::paper_pool()));
        manager
    }

    /// One set-up: platform, oracle, inputs and manager.
    pub fn setup(&self, seed: u64) {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mixes = self.mixes(seed);
        let manager = Self::manager(&platform, &oracle);
        black_box((&manager, &mixes));
    }

    /// One pass over the seed's inputs on fresh state. The referee's
    /// quality figures are computed, outside the timed region, only when
    /// `judge` is set.
    pub fn pass(&self, seed: u64, tracer: Option<&Tracer>, judge: bool) -> Pass {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mixes = self.mixes(seed);
        match tracer {
            None => self.drive(&platform, &oracle, &mixes, None, judge),
            Some(t) => self.drive(
                &platform,
                &TracedOracle::new(&oracle, t),
                &mixes,
                Some(t),
                judge,
            ),
        }
    }

    fn drive<O: ThroughputOracle>(
        &self,
        platform: &Platform,
        oracle: &O,
        mixes: &[Mix],
        tracer: Option<&Tracer>,
        judge: bool,
    ) -> Pass {
        let manager = Self::manager(platform, oracle);
        let mut ops = OpTimes::default();
        let mut plans = Vec::with_capacity(mixes.len());
        let started = Instant::now();
        for mix in mixes {
            let t = Stamp::now();
            let plan = match tracer {
                None => manager.map(&mix.workload, &mix.mode),
                Some(tr) => tr.op(name::MAP, || manager.map(&mix.workload, &mix.mode)),
            };
            ops.push(&t, &Stamp::now());
            plans.push(plan);
        }
        let wall_s = started.elapsed().as_secs_f64();

        let components = platform.component_count();
        let mut digest = Digest::new();
        let mut failed_ops = 0;
        for (mix, plan) in mixes.iter().zip(&plans) {
            digest.feed_debug(&(
                &plan.mapping,
                &plan.predicted,
                plan.reward,
                plan.evaluations,
            ));
            let valid = plan.mapping.validate(&mix.workload, components).is_ok()
                && plan.predicted.len() == mix.workload.len()
                && plan.predicted.iter().all(|t| t.is_finite() && *t >= 0.0);
            failed_ops += u64::from(!valid);
        }
        let mut pass = Pass::new(wall_s, ops, digest.value(), failed_ops);
        pass.checks.push(Check::new(
            "every plan assigns one component per unit",
            failed_ops == 0,
        ));
        if judge {
            pass.quality = Some(referee(platform, &manager, mixes, &plans, &mut pass.checks));
        }
        if let Some(t) = tracer {
            let evaluations: usize = plans.iter().map(|p| p.evaluations).sum();
            let spans = t.spans();
            pass.layers = layers::from_spans(&spans, wall_s, mixes.len());
            pass.layers.push((
                "search.evaluations_per_op",
                evaluations as f64 / mixes.len() as f64,
            ));
            pass.spans = spans;
        }
        pass
    }
}

/// Judges every chosen mapping on the discrete-event simulator: the
/// throughput each DNN actually gets, as a share of its ideal rate.
fn referee<O: ThroughputOracle>(
    platform: &Platform,
    manager: &RankMapManager<'_, O>,
    mixes: &[Mix],
    plans: &[MappingPlan],
    checks: &mut Vec<Check>,
) -> Quality {
    let engine = EventEngine::quick(platform);
    let (mut pot_sum, mut dnns, mut starved, mut unqualified) = (0.0, 0usize, 0usize, 0usize);
    let (mut critical_sum, mut critical_maps) = (0.0, 0usize);
    let mut finite = true;
    for (mix, plan) in mixes.iter().zip(plans) {
        let report = engine.evaluate(&mix.workload, &plan.mapping);
        let potentials = report.potentials(&manager.ideal_rates(&mix.workload));
        finite &= report
            .per_dnn
            .iter()
            .chain(&potentials)
            .all(|v| v.is_finite());
        pot_sum += potentials.iter().sum::<f64>();
        dnns += potentials.len();
        starved += potentials.iter().filter(|&&p| p < STARVE_FLOOR).count();
        unqualified += usize::from(!plan.qualified());
        if let Some(c) = mix.critical {
            critical_sum += potentials[c];
            critical_maps += 1;
        }
    }
    checks.push(Check::new("referee throughputs are finite", finite));
    Quality {
        fail_ratio: unqualified as f64 / plans.len() as f64,
        potential_mean: pot_sum / dnns as f64,
        starved_ratio: starved as f64 / dnns as f64,
        extra: vec![(
            "critical_potential",
            critical_sum / critical_maps.max(1) as f64,
            "ratio",
        )],
    }
}
