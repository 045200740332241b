//! Fixed-point contention solver with kernel-granularity fair sharing.

use crate::contention::{CompiledWorkload, ContentionParams};
use crate::report::ThroughputReport;
use crate::workload::{Mapping, Workload};
use rankmap_platform::Platform;

/// Analytical multi-DNN throughput model.
///
/// Each component is a unit-capacity server shared by the pipeline stages
/// mapped to it. Sharing is **kernel-granularity round-robin** — an OpenCL
/// command queue interleaves kernels from co-resident stages — which in
/// fluid terms is weighted fair sharing with weight equal to the stage's
/// *mean kernel duration*: when everyone is backlogged, a stage with `k`
/// kernels of mean duration `m` completes a frame every `k · Σ_j m_j`
/// seconds. This is what makes a saturated GPU catastrophic for every
/// co-resident DNN (many small kernels each wait a full round), matching
/// the paper's observation that 91% of random partitioned mappings beat
/// the all-on-GPU baseline.
///
/// The solver iterates: rates → per-component weighted max–min allocations
/// → per-DNN bottleneck rates, with geometric damping, until fixed point.
///
/// Orders of magnitude faster than the [`crate::EventEngine`], at the cost
/// of ignoring queueing transients; agreement between the two is checked in
/// tests.
///
/// This is the kernel behind `AnalyticalOracle`, so the search pays it once
/// per scored mapping. [`AnalyticalEngine::evaluate_with`] is its hot path:
/// [`WorkloadCosts::compile`](crate::WorkloadCosts::compile) then
/// [`AnalyticalEngine::solve`]. A typical 3–5-DNN query has about 45 stages
/// on 3 components and converges in about 7 iterations (never near the
/// 160-iteration cap). `solve` lays the per-component stage groups out once
/// and its iterations allocate nothing, so a query costs about 11 µs on a
/// 2-vCPU x86-64 VM (docs/performance.md, "The contention kernel"). The
/// output is pinned bit for bit by the `contention_kernel_golden_bits`
/// integration test.
#[derive(Debug, Clone)]
pub struct AnalyticalEngine<'p> {
    platform: &'p Platform,
    params: ContentionParams,
    iterations: usize,
}

impl<'p> AnalyticalEngine<'p> {
    /// Creates a solver with default contention parameters.
    pub fn new(platform: &'p Platform) -> Self {
        Self { platform, params: ContentionParams::default(), iterations: 160 }
    }

    /// Overrides the contention parameters.
    #[must_use]
    pub fn with_params(mut self, params: ContentionParams) -> Self {
        self.params = params;
        self
    }

    /// Evaluates a mapping, returning per-DNN steady-state throughput.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for this workload/platform.
    pub fn evaluate(&self, workload: &Workload, mapping: &Mapping) -> ThroughputReport {
        let compiled = CompiledWorkload::compile(self.platform, workload, mapping, self.params);
        self.solve(&compiled)
    }

    /// Evaluates a mapping against pre-priced workload costs (the hot-loop
    /// path: no per-query roofline walk). Produces exactly what
    /// [`AnalyticalEngine::evaluate`] would.
    pub fn evaluate_with(
        &self,
        costs: &crate::contention::WorkloadCosts,
        workload: &Workload,
        mapping: &Mapping,
    ) -> ThroughputReport {
        self.solve(&costs.compile(workload, mapping, self.params))
    }

    /// Solves an already compiled workload.
    ///
    /// Everything that does not change between fixed-point iterations is
    /// laid out once: the stages grouped per component into flat owner,
    /// time and clamped-weight arrays. Each iteration then reuses the same
    /// `limit`, `demands`, `alloc` and fair-share index buffers, so the loop
    /// allocates nothing.
    pub fn solve(&self, compiled: &CompiledWorkload) -> ThroughputReport {
        let n = compiled.dnn_count();
        let comps = compiled.component_count;
        // Counting sort of the stages by component. Within a component the
        // stages keep `(dnn, stage)` order: the fair share sums demands and
        // weights in that order, so the output bits depend on it.
        let mut offsets = vec![0usize; comps + 1];
        for s in compiled.stages.iter().flatten() {
            offsets[s.component.index() + 1] += 1;
        }
        for c in 0..comps {
            offsets[c + 1] += offsets[c];
        }
        let total = offsets[comps];
        let mut owner = vec![0usize; total];
        let mut seconds = vec![0.0f64; total];
        let mut weights = vec![0.0f64; total];
        let mut fill = offsets.clone();
        for (d, dnn) in compiled.stages.iter().enumerate() {
            for s in dnn {
                let slot = &mut fill[s.component.index()];
                owner[*slot] = d;
                seconds[*slot] = s.inflated_seconds;
                // Preemptive components (CPU clusters) share time equally
                // per stage; non-preemptive queues (GPU) serve whole kernels
                // round-robin, i.e. weight = mean kernel duration.
                let weight = if s.preemptive { 1.0 } else { s.mean_kernel_seconds() * 1e3 };
                weights[*slot] = weight.max(MIN_WEIGHT);
                *slot += 1;
            }
        }
        // Start at the (inflated) isolated pipeline bound.
        let bounds: Vec<f64> = (0..n).map(|d| compiled.pipeline_bound(d)).collect();
        let mut x: Vec<f64> = bounds.clone();
        let mut limit = vec![f64::INFINITY; n];
        let mut demands = vec![0.0f64; total];
        let mut alloc = vec![0.0f64; total];
        let mut unsat = Vec::with_capacity(total);
        for _ in 0..self.iterations {
            limit.fill(f64::INFINITY);
            for (demand, (&d, &t)) in demands.iter_mut().zip(owner.iter().zip(&seconds)) {
                *demand = x[d] * t;
            }
            for c in 0..comps {
                let group = offsets[c]..offsets[c + 1];
                fair_share_clamped(
                    &demands[group.clone()],
                    &weights[group.clone()],
                    1.0,
                    &mut alloc[group.clone()],
                    &mut unsat,
                );
                for j in group {
                    let t = seconds[j];
                    if t > 0.0 {
                        let d = owner[j];
                        limit[d] = limit[d].min(alloc[j] / t);
                    }
                }
            }
            let mut max_delta = 0.0f64;
            for d in 0..n {
                let target = limit[d].min(bounds[d]).max(1e-9);
                let next = (x[d] * target).sqrt(); // geometric damping
                max_delta = max_delta.max((next - x[d]).abs() / x[d].max(1e-12));
                x[d] = next;
            }
            if max_delta < 1e-6 {
                break;
            }
        }
        ThroughputReport::new(x)
    }
}

/// Floor on a fair-share weight, so a zero-duration stage still holds a
/// (vanishing) share instead of dividing by zero.
const MIN_WEIGHT: f64 = 1e-12;

/// Weighted max–min fair allocation of `capacity` across `demands`: every
/// demand is either fully satisfied or capped at a level proportional to
/// its weight; leftover capacity from small demands is redistributed.
/// Weights below `1e-12` count as `1e-12`.
///
/// With equal weights this reduces to classic max–min fairness. Weight here
/// is the mean kernel duration: coarse-kernel stages hold the server longer
/// per round, exactly like a non-preemptive round-robin queue.
pub fn weighted_max_min_fair(demands: &[f64], weights: &[f64], capacity: f64) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len(), "demands/weights length mismatch");
    let clamped: Vec<f64> = weights.iter().map(|w| w.max(MIN_WEIGHT)).collect();
    let mut alloc = vec![0.0; demands.len()];
    fair_share_clamped(demands, &clamped, capacity, &mut alloc, &mut Vec::new());
    alloc
}

/// The allocation-free core of [`weighted_max_min_fair`]: writes every
/// entry of `alloc`, given weights already clamped to at least
/// [`MIN_WEIGHT`], using `unsat` as its working buffer.
///
/// Each round computes the fair level over the still-unsatisfied stages,
/// satisfies (in index order) every stage whose demand fits under it, and
/// compacts the rest to the front of `unsat` in place, keeping their order.
/// A round that satisfies nobody caps everyone left at the level.
fn fair_share_clamped(
    demands: &[f64],
    weights: &[f64],
    capacity: f64,
    alloc: &mut [f64],
    unsat: &mut Vec<usize>,
) {
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        alloc.copy_from_slice(demands);
        return;
    }
    let mut remaining = capacity;
    unsat.clear();
    unsat.extend(0..demands.len());
    loop {
        let weight_sum: f64 = unsat.iter().map(|&i| weights[i]).sum();
        // Fair level λ such that each unsatisfied i would get λ·w_i.
        let level = remaining / weight_sum;
        let mut kept = 0;
        for r in 0..unsat.len() {
            let i = unsat[r];
            if demands[i] <= level * weights[i] {
                alloc[i] = demands[i];
                remaining -= demands[i];
            } else {
                unsat[kept] = i;
                kept += 1;
            }
        }
        if kept == unsat.len() {
            for &i in unsat.iter() {
                alloc[i] = level * weights[i];
            }
            return;
        }
        unsat.truncate(kept);
        if unsat.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_models::ModelId;
    use rankmap_platform::ComponentId;

    #[test]
    fn fair_under_capacity_satisfies_all() {
        let a = weighted_max_min_fair(&[0.2, 0.3], &[1.0, 1.0], 1.0);
        assert_eq!(a, vec![0.2, 0.3]);
    }

    #[test]
    fn fair_over_capacity_caps_equally_for_equal_weights() {
        let a = weighted_max_min_fair(&[0.9, 0.9], &[1.0, 1.0], 1.0);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fair_redistributes_leftover() {
        let a = weighted_max_min_fair(&[0.1, 0.9, 0.9], &[1.0, 1.0, 1.0], 1.0);
        assert!((a[0] - 0.1).abs() < 1e-12);
        assert!((a[1] - 0.45).abs() < 1e-12);
        assert!((a[2] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn fair_conserves_capacity() {
        let a = weighted_max_min_fair(&[0.5, 0.7, 0.2, 1.4], &[1.0, 2.0, 0.5, 4.0], 1.0);
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "over-capacity case should use all capacity");
    }

    #[test]
    fn heavier_kernels_get_bigger_share() {
        let a = weighted_max_min_fair(&[1.0, 1.0], &[3.0, 1.0], 1.0);
        assert!((a[0] - 0.75).abs() < 1e-12);
        assert!((a[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_dnn_hits_pipeline_bound() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let eng = AnalyticalEngine::new(&p);
        let r = eng.evaluate(&w, &m);
        let compiled = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
        let bound = compiled.pipeline_bound(0);
        assert!(
            (r.per_dnn[0] - bound).abs() / bound < 0.02,
            "alone, the solver should sit at the pipeline bound"
        );
    }

    #[test]
    fn adding_dnns_never_helps_existing_ones() {
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let w1 = Workload::from_ids([ModelId::ResNet50]);
        let m1 = Mapping::uniform(&w1, ComponentId::new(0));
        let alone = eng.evaluate(&w1, &m1).per_dnn[0];
        let w2 = Workload::from_ids([ModelId::ResNet50, ModelId::Vgg16]);
        let m2 = Mapping::uniform(&w2, ComponentId::new(0));
        let shared = eng.evaluate(&w2, &m2).per_dnn[0];
        assert!(shared < alone, "co-running VGG-16 must cost ResNet-50 throughput");
    }

    #[test]
    fn utilization_conserved_per_component() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::MobileNet,
            ModelId::SqueezeNetV2,
        ]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for _ in 0..10 {
            let m = Mapping::random(&w, 3, &mut rng);
            let compiled = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
            let eng = AnalyticalEngine::new(&p);
            let r = eng.solve(&compiled);
            for stages in compiled.stages_by_component() {
                let util: f64 = stages
                    .iter()
                    .map(|&(d, k)| r.per_dnn[d] * compiled.stages[d][k].inflated_seconds)
                    .sum();
                assert!(util <= 1.05, "component over-committed: {util}");
            }
        }
    }

    #[test]
    fn gpu_pileup_collapses_everyone() {
        // Kernel-granularity sharing: even the light DNN is dragged down by
        // heavyweights' kernels on a saturated GPU.
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let alone = {
            let w = Workload::from_ids([ModelId::SqueezeNetV2]);
            eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).per_dnn[0]
        };
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let shared =
            eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).per_dnn[0];
        assert!(
            shared < alone * 0.15,
            "SqueezeNet should collapse in a 4-DNN GPU pileup: {shared} vs {alone}"
        );
    }

    #[test]
    fn spreading_beats_gpu_pileup_for_4dnns() {
        // The motivation experiment's core claim: distributing a 4-DNN
        // workload usually beats all-on-GPU.
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let baseline = eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).average();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let better = (0..60)
            .filter(|_| {
                let m = Mapping::random(&w, 3, &mut rng);
                eng.evaluate(&w, &m).average() > baseline
            })
            .count();
        assert!(
            better > 45,
            "most random mappings should beat the all-GPU baseline, got {better}/60"
        );
    }
}
