//! Property-based tests on the simulator's core invariants.

use proptest::prelude::*;
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_sim::analytical::weighted_max_min_fair;
use rankmap_sim::{
    AnalyticalEngine, CompiledWorkload, ContentionParams, EventEngine, Mapping, Workload,
};

fn small_pool() -> Vec<ModelId> {
    vec![
        ModelId::AlexNet,
        ModelId::SqueezeNetV2,
        ModelId::MobileNet,
        ModelId::ResNet12,
        ModelId::GoogleNet,
    ]
}

prop_compose! {
    /// A workload of 1..=3 models from the small pool plus a random
    /// assignment vector for it.
    fn workload_and_mapping()(
        picks in prop::collection::vec(0usize..5, 1..=3),
        assign_seed in any::<u64>(),
    ) -> (Workload, Mapping) {
        let pool = small_pool();
        let ids: Vec<ModelId> = picks.iter().map(|&i| pool[i]).collect();
        let w = Workload::from_ids(ids);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(assign_seed);
        let m = Mapping::random(&w, 3, &mut rng);
        (w, m)
    }
}

/// The partition-based fair share the analytical solver first shipped
/// with: fresh `unsat`, `sat` and `still` vectors every round. Kept here
/// as the reference the allocation-free kernel must match bit for bit.
fn reference_fair_share(demands: &[f64], weights: &[f64], capacity: f64) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len(), "demands/weights length mismatch");
    let n = demands.len();
    let mut alloc = vec![0.0; n];
    if n == 0 {
        return alloc;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        alloc.copy_from_slice(demands);
        return alloc;
    }
    let mut remaining = capacity;
    let mut unsat: Vec<usize> = (0..n).collect();
    loop {
        let weight_sum: f64 = unsat.iter().map(|&i| weights[i].max(1e-12)).sum();
        let level = remaining / weight_sum;
        let (sat, still): (Vec<usize>, Vec<usize>) = unsat
            .iter()
            .partition(|&&i| demands[i] <= level * weights[i].max(1e-12));
        if sat.is_empty() {
            for &i in &still {
                alloc[i] = level * weights[i].max(1e-12);
            }
            break;
        }
        for &i in &sat {
            alloc[i] = demands[i];
            remaining -= demands[i];
        }
        unsat = still;
        if unsat.is_empty() {
            break;
        }
    }
    alloc
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_fair_share_matches(demands: &[f64], weights: &[f64], capacity: f64) {
    assert_eq!(
        bits(&weighted_max_min_fair(demands, weights, capacity)),
        bits(&reference_fair_share(demands, weights, capacity)),
        "fair share diverged for demands {demands:?}, weights {weights:?}, capacity {capacity}"
    );
}

prop_compose! {
    /// Demands, weights and a capacity mixing the shapes the solver meets:
    /// zero, tiny and heavy demands; unit, spread, sub-`1e-12` and zero
    /// weights; capacities below and above the total demand.
    fn fair_share_case()(
        n in 0usize..10,
        seed in any::<u64>(),
    ) -> (Vec<f64>, Vec<f64>, f64) {
        use rand::Rng;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let demands = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0.0..0.3),
                2 => rng.gen_range(0.0..2.0),
                _ => 1e-14,
            })
            .collect();
        let weights = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => 1.0,
                1 => rng.gen_range(0.01..10.0),
                2 => 1e-15,
                _ => 0.0,
            })
            .collect();
        let capacity = if rng.gen_bool(0.5) { 1.0 } else { rng.gen_range(0.05..3.0) };
        (demands, weights, capacity)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shipped fair share is bit-identical to the partition-based
    /// reference on random demands, weights and capacities.
    #[test]
    fn fair_share_matches_reference((demands, weights, capacity) in fair_share_case()) {
        prop_assert_eq!(
            bits(&weighted_max_min_fair(&demands, &weights, capacity)),
            bits(&reference_fair_share(&demands, &weights, capacity))
        );
    }

    /// Every random mapping fuses into stages that exactly cover the units
    /// in order, with no empty stage.
    #[test]
    fn stages_partition_units((w, m) in workload_and_mapping()) {
        for d in 0..w.len() {
            let stages = m.stages(d);
            prop_assert!(!stages.is_empty());
            prop_assert_eq!(stages[0].unit_range.start, 0);
            prop_assert_eq!(
                stages.last().unwrap().unit_range.end,
                w.models()[d].unit_count()
            );
            for pair in stages.windows(2) {
                prop_assert_eq!(pair[0].unit_range.end, pair[1].unit_range.start);
                prop_assert!(!pair[0].unit_range.is_empty());
                // Adjacent stages sit on different components, otherwise
                // they would have fused.
                prop_assert_ne!(pair[0].component, pair[1].component);
            }
        }
    }

    /// The analytical engine produces finite, non-negative rates and never
    /// over-commits a component.
    #[test]
    fn analytical_rates_feasible((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let engine = AnalyticalEngine::new(&platform);
        let compiled =
            CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        let r = engine.solve(&compiled);
        for &x in &r.per_dnn {
            prop_assert!(x.is_finite() && x >= 0.0);
        }
        for stages in compiled.stages_by_component() {
            let util: f64 = stages
                .iter()
                .map(|&(d, k)| r.per_dnn[d] * compiled.stages[d][k].inflated_seconds)
                .sum();
            prop_assert!(util <= 1.06, "component over-committed: {}", util);
        }
    }

    /// Inflation never makes a stage faster than its isolated cost.
    #[test]
    fn inflation_is_at_least_one((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let compiled =
            CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        for dnn in &compiled.stages {
            for s in dnn {
                prop_assert!(s.inflated_seconds >= s.base_seconds * 0.999);
            }
        }
    }

    /// The event engine is deterministic and bounded by (a small multiple
    /// of) the analytical estimate.
    #[test]
    fn event_engine_sane((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let engine = EventEngine::quick(&platform);
        let a = engine.evaluate(&w, &m);
        let b = engine.evaluate(&w, &m);
        prop_assert_eq!(&a, &b);
        for &x in &a.per_dnn {
            prop_assert!(x.is_finite() && (0.0..500.0).contains(&x));
        }
    }

    /// Flat encoding round-trips.
    #[test]
    fn flat_roundtrip((w, m) in workload_and_mapping()) {
        let flat = m.to_flat();
        prop_assert_eq!(Mapping::from_flat(&w, &flat), m);
    }
}

#[test]
fn fair_share_matches_reference_on_edge_cases() {
    // Empty.
    assert_fair_share_matches(&[], &[], 1.0);
    // Under capacity: everyone is satisfied as asked.
    assert_fair_share_matches(&[0.2, 0.3, 0.1], &[1.0, 2.0, 0.5], 1.0);
    // Exactly at capacity.
    assert_fair_share_matches(&[0.25, 0.75], &[1.0, 1.0], 1.0);
    // No stage saturated in the first round: every demand exceeds its
    // first fair level, so the first round caps them all.
    assert_fair_share_matches(&[0.9, 0.8, 0.7], &[1.0, 1.0, 1.0], 1.0);
    assert_fair_share_matches(&[2.0, 1.5, 3.0, 0.9], &[0.3, 4.0, 1.0, 2.5], 1.0);
    // Several rounds before the rest is capped.
    assert_fair_share_matches(&[0.05, 0.1, 0.9, 0.2, 1.4], &[1.0, 1.0, 1.0, 1.0, 1.0], 1.0);
    // Zero demands: satisfied in the first round at no cost.
    assert_fair_share_matches(&[0.0, 0.0, 1.5], &[1.0, 1.0, 1.0], 1.0);
    assert_fair_share_matches(&[0.0, 2.0, 0.0, 3.0], &[0.5, 1.0, 2.0, 1.0], 1.0);
    // Weights below 1e-12 (and zero) are clamped to 1e-12.
    assert_fair_share_matches(&[0.6, 0.7, 0.2], &[1e-15, 0.0, 1.0], 1.0);
    assert_fair_share_matches(&[0.6, 0.7], &[1e-13, 1e-20], 1.0);
    // The others are satisfied first; the clamped stage is capped last.
    assert_fair_share_matches(&[0.3, 0.3, 0.3, 0.3], &[1.0, 1.0, 1.0, 1e-12], 1.0);
}

#[test]
fn uniform_gpu_is_single_stage_always() {
    let pool = small_pool();
    for &id in &pool {
        let w = Workload::from_ids([id]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        assert_eq!(m.stages(0).len(), 1);
    }
}
