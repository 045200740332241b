//! Cross-crate integration tests: the paper's headline properties checked
//! end to end on the simulated board.

use rankmap::baselines::{BaselineGpu, Mosaic, Odmdef, OmniBoost};
use rankmap::core::manager::{ManagerConfig, RankMapManager};
use rankmap::core::metrics;
use rankmap::core::runtime::WorkloadMapper;
use rankmap::prelude::*;

fn quick_manager_cfg() -> ManagerConfig {
    ManagerConfig { mcts_iterations: 600, ..Default::default() }
}

#[test]
fn rankmap_beats_baseline_on_average_throughput() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([
        ModelId::SqueezeNetV2,
        ModelId::ResNet50,
        ModelId::MobileNet,
        ModelId::AlexNet,
    ]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    let ours = board.evaluate(&workload, &plan.mapping).average();
    let base = board
        .evaluate(&workload, &Mapping::uniform(&workload, ComponentId::new(0)))
        .average();
    assert!(ours > base * 1.5, "RankMapD should clearly beat all-GPU: {ours} vs {base}");
}

#[test]
fn rankmap_never_starves_what_it_qualifies() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([
        ModelId::GoogleNet,
        ModelId::MobileNetV2,
        ModelId::SqueezeNet,
    ]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    assert!(plan.qualified(), "a 3-DNN mix must have qualifying mappings");
    let ideals: Vec<f64> = workload
        .models()
        .iter()
        .map(|m| board.ideal_rate(m.id(), ComponentId::new(0)))
        .collect();
    let pots = board.evaluate(&workload, &plan.mapping).potentials(&ideals);
    assert_eq!(
        metrics::starved_count(&pots),
        0,
        "RankMap must not starve any DNN: {pots:?}"
    );
}

#[test]
fn priority_shifts_move_potential() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([ModelId::InceptionV3, ModelId::ResNet50, ModelId::Vgg16]);
    let ideals: Vec<f64> = workload
        .models()
        .iter()
        .map(|m| board.ideal_rate(m.id(), ComponentId::new(0)))
        .collect();
    // Average over the three possible critical choices: the critical DNN's
    // potential should be at least the mean of its potential when others
    // are critical.
    let mut gain = 0.0;
    for critical in 0..3 {
        let plan = manager.map(&workload, &PriorityMode::critical(3, critical));
        let pots = board.evaluate(&workload, &plan.mapping).potentials(&ideals);
        let others: f64 = (0..3).filter(|&i| i != critical).map(|i| pots[i]).sum::<f64>() / 2.0;
        gain += pots[critical] - others * 0.0; // track absolute potential
        assert!(
            pots[critical] > STARVATION_POTENTIAL,
            "critical DNN must not starve"
        );
    }
    assert!(gain > 0.0);
}

#[test]
fn all_managers_produce_valid_mappings() {
    let platform = Platform::orange_pi_5();
    let pool = vec![
        ModelId::AlexNet,
        ModelId::MobileNet,
        ModelId::ResNet50,
        ModelId::SqueezeNetV2,
    ];
    let workload = Workload::from_ids(pool.iter().copied());
    let oracle = AnalyticalOracle::new(&platform);
    let mut mappers: Vec<Box<dyn WorkloadMapper>> = vec![
        Box::new(BaselineGpu::new(&platform)),
        Box::new(Mosaic::new(&platform, &pool)),
        Box::new(Odmdef::new(&platform, &pool, 40, 3)),
        Box::new(OmniBoost::new(&platform, &oracle, 200, 0)),
    ];
    for mapper in &mut mappers {
        let m = mapper.remap(&workload);
        assert!(
            m.validate(&workload, platform.component_count()).is_ok(),
            "{} produced an invalid mapping",
            mapper.name()
        );
    }
}

#[test]
fn learned_pipeline_end_to_end_smoke() {
    // A miniature version of the full learned path: tiny dataset, tiny
    // training, then a search with the learned oracle.
    use rankmap::core::dataset::{self, DatasetConfig};
    use rankmap::core::oracle::LearnedOracle;
    use rankmap::estimator::{
        EmbeddingTable, Estimator, EstimatorConfig, QTensorSpec, Trainer, TrainerConfig, VqVae,
        VqVaeConfig,
    };

    let platform = Platform::orange_pi_5();
    let pool = vec![ModelId::AlexNet, ModelId::SqueezeNetV2, ModelId::MobileNet];
    let labelled = dataset::generate(
        &platform,
        &DatasetConfig { samples: 24, max_dnns: 3, pool: pool.clone(), seed: 5 },
    );
    let mut vqvae = VqVae::new(VqVaeConfig::default(), 5);
    let built: Vec<_> = pool.iter().map(|id| id.build()).collect();
    rankmap::estimator::vqvae::train_on_pool(&mut vqvae, &built, 4);
    let spec = QTensorSpec::default();
    let mut table = EmbeddingTable::build(&mut vqvae, &built);
    let samples = dataset::to_samples(&labelled, &mut vqvae, &mut table, &spec);
    let mut est = Estimator::new(EstimatorConfig::quick(), 5);
    Trainer::new(TrainerConfig { epochs: 2, ..Default::default() })
        .train(&mut est, &samples, &[]);
    let ideals = dataset::ideal_rates(&platform, &pool);
    let oracle = LearnedOracle::new(
        vqvae,
        table,
        est,
        Box::new(move |id| ideals.get(&id).copied().unwrap_or(1.0)),
    );
    let manager = RankMapManager::new(
        &platform,
        &oracle,
        ManagerConfig { mcts_iterations: 150, ..Default::default() },
    );
    let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    assert!(plan.mapping.validate(&workload, 3).is_ok());
}

#[test]
fn analytical_and_event_agree_on_baseline_collapse() {
    let platform = Platform::orange_pi_5();
    let workload = Workload::from_ids([
        ModelId::SqueezeNetV2,
        ModelId::InceptionV4,
        ModelId::ResNet50,
        ModelId::Vgg16,
    ]);
    let uniform = Mapping::uniform(&workload, ComponentId::new(0));
    let a = AnalyticalEngine::new(&platform).evaluate(&workload, &uniform).average();
    let e = EventEngine::quick(&platform).evaluate(&workload, &uniform).average();
    // Both engines agree the GPU pileup is bad (≤ a few inf/s on average).
    assert!(a < 3.0, "analytical baseline too optimistic: {a}");
    assert!(e < 3.0, "event baseline too optimistic: {e}");
}

/// A 4-shard fleet run under the serial reference, the shard-parallel
/// barrier and the epoch log must agree bit for bit. Threaded runs fan
/// shards across the thread pool while each shard's search fans its
/// oracle batches inside them, so this also drives the pool's nested
/// path.
#[test]
fn fleet_executors_agree_bit_for_bit() {
    use rankmap::fleet::{
        generate, ArrivalProcess, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, Parallelism,
    };
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let spec = LoadSpec {
        horizon: 180.0,
        process: ArrivalProcess::Poisson { rate: 1.0 / 6.0 },
        mean_lifetime: 90.0,
        priority_churn_rate: 1.0 / 60.0,
        seed: 11,
        ..Default::default()
    };
    let events = generate(&spec);
    let run = |parallelism| -> FleetOutcome {
        let config = FleetConfig {
            manager: ManagerConfig {
                mcts_iterations: 40,
                warm_iterations: 20,
                ..Default::default()
            },
            max_per_shard: 3,
            rebalance_threshold: 0.6,
            rebalance_margin: 0.02,
            parallelism,
            ..Default::default()
        };
        FleetRuntime::homogeneous(&platform, &oracle, 4, config).execute(&events, spec.horizon)
    };
    let reference = run(Parallelism::Sequential);
    assert!(
        reference.metrics.admitted > 0,
        "the stream admitted something"
    );
    assert!(
        reference.metrics.migrations > 0,
        "rebalancing migrated an instance"
    );
    // `Debug` prints every float's shortest round-trip form, so equal
    // strings mean equal bits.
    fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }
    for parallelism in [
        Parallelism::Threads(2),
        Parallelism::Async {
            workers: 2,
            max_epoch_lag: 1,
            apply_lanes: true,
        },
    ] {
        let outcome = run(parallelism);
        let label = format!("{parallelism:?} diverged from Sequential");
        assert!(
            same_bits(&reference.placements, &outcome.placements),
            "{label}: placements"
        );
        assert!(
            same_bits(&reference.metrics, &outcome.metrics),
            "{label}: metrics"
        );
        assert!(
            same_bits(&reference.timelines, &outcome.timelines),
            "{label}: timelines"
        );
    }
}

/// FNV-1a over the bit patterns of every rate the contention kernel
/// returns for a fixed, seeded set of queries. Any change to the kernel's
/// arithmetic (operation order, a hoisted invariant that is not exactly
/// the same value, a different fair-share round) moves this hash, so a
/// rewrite that claims bit-identical output is checked here rather than
/// by tolerance.
///
/// The queries are seeded 3–5-model mixes drawn from
/// `ModelId::paper_pool()`, each priced by `AnalyticalEngine::evaluate_with`
/// (cost table) and `AnalyticalEngine::evaluate` (direct compile) over
/// random mappings plus one uniform mapping per component, and by
/// `EventEngine::quick` on a few of them. The constant was captured with
/// the fixed-point solver that allocated its per-component demand and
/// weight vectors on every iteration and partitioned the unsatisfied set
/// into fresh vectors per fair-share round; the allocation-free kernel
/// must reproduce it exactly.
#[test]
fn contention_kernel_golden_bits() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rankmap::sim::WorkloadCosts;

    const GOLDEN: u64 = 0xda63_b091_b467_092b;

    fn fnv(hash: &mut u64, rates: &[f64]) {
        for bits in std::iter::once(rates.len() as u64).chain(rates.iter().map(|r| r.to_bits())) {
            for byte in bits.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    let platform = Platform::orange_pi_5();
    let comps = platform.component_count();
    let pool = ModelId::paper_pool();
    let analytical = AnalyticalEngine::new(&platform);
    let event = EventEngine::quick(&platform);
    let mut rng = StdRng::seed_from_u64(0x601D_B175);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for mix in 0..20 {
        let size = rng.gen_range(3..=5);
        let ids: Vec<ModelId> = (0..size).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let workload = Workload::from_ids(ids);
        let costs = WorkloadCosts::new(&platform, &workload);
        let mut mappings: Vec<Mapping> =
            (0..20).map(|_| Mapping::random(&workload, comps, &mut rng)).collect();
        mappings.extend((0..comps).map(|c| Mapping::uniform(&workload, ComponentId::new(c))));
        for (i, mapping) in mappings.iter().enumerate() {
            fnv(&mut hash, &analytical.evaluate_with(&costs, &workload, mapping).per_dnn);
            fnv(&mut hash, &analytical.evaluate(&workload, mapping).per_dnn);
            if mix % 4 == 0 && i == 0 {
                fnv(&mut hash, &event.evaluate(&workload, mapping).per_dnn);
            }
        }
    }
    assert_eq!(hash, GOLDEN, "contention kernel output drifted: {hash:#018x}");
}
