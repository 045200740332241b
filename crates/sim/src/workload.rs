//! Workloads (sets of concurrently executing DNNs) and mappings
//! (partition + placement decisions).

use rand::Rng;
use rankmap_models::{DnnModel, ModelId};
use rankmap_platform::ComponentId;
use std::fmt;
use std::ops::Range;

/// A multi-DNN workload: the set of networks that must run concurrently.
///
/// Owns fully built [`DnnModel`] descriptions so that downstream consumers
/// (cost model, estimator featurization) can borrow layer data freely.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    models: Vec<DnnModel>,
}

impl Workload {
    /// Creates a workload from already-built models.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<DnnModel>) -> Self {
        assert!(!models.is_empty(), "a workload needs at least one DNN");
        Self { models }
    }

    /// Builds a workload from registry ids.
    pub fn from_ids(ids: impl IntoIterator<Item = ModelId>) -> Self {
        let models: Vec<DnnModel> = ids.into_iter().map(ModelId::build).collect();
        Self::new(models)
    }

    /// The DNNs in this workload, in submission order.
    pub fn models(&self) -> &[DnnModel] {
        &self.models
    }

    /// Number of concurrent DNNs (`N` in the paper).
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the workload is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Unit counts per DNN — the decision-space dimensions.
    pub fn unit_counts(&self) -> Vec<usize> {
        self.models.iter().map(|m| m.unit_count()).collect()
    }

    /// Total number of schedulable units across all DNNs.
    pub fn total_units(&self) -> usize {
        self.models.iter().map(|m| m.unit_count()).sum()
    }

    /// Size of the mapping space, `d^total_units`, as an `f64` (the paper's
    /// `3^(8+20+18+18) ≈ 4e10` style count).
    pub fn mapping_space(&self, component_count: usize) -> f64 {
        (component_count as f64).powi(self.total_units() as i32)
    }
}

/// Error produced when a mapping does not fit a workload/platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The mapping has assignments for a different number of DNNs.
    DnnCountMismatch {
        /// DNNs in the mapping.
        mapping: usize,
        /// DNNs in the workload.
        workload: usize,
    },
    /// One DNN's assignment vector has the wrong number of units.
    UnitCountMismatch {
        /// Index of the offending DNN.
        dnn: usize,
        /// Units in the mapping.
        mapping: usize,
        /// Units in the model.
        model: usize,
    },
    /// An assignment references a component the platform does not have.
    UnknownComponent {
        /// Index of the offending DNN.
        dnn: usize,
        /// Index of the offending unit.
        unit: usize,
        /// The out-of-range component.
        component: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::DnnCountMismatch { mapping, workload } => write!(
                f,
                "mapping covers {mapping} DNNs but the workload has {workload}"
            ),
            MappingError::UnitCountMismatch { dnn, mapping, model } => write!(
                f,
                "DNN {dnn}: mapping has {mapping} unit assignments, model has {model} units"
            ),
            MappingError::UnknownComponent { dnn, unit, component } => write!(
                f,
                "DNN {dnn} unit {unit}: component {component} does not exist on this platform"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// One pipeline stage of a mapped DNN: a contiguous run of units bound to a
/// single component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Half-open range of unit indices fused into this stage.
    pub unit_range: Range<usize>,
    /// The component executing the stage.
    pub component: ComponentId,
}

/// A complete mapping `M`: for every DNN, one component per schedulable
/// unit. Contiguous equal-component runs fuse into pipeline stages, so this
/// encoding covers exactly the paper's `d^units` solution space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    per_dnn: Vec<Vec<ComponentId>>,
}

impl Mapping {
    /// Creates a mapping from raw per-DNN unit assignments.
    pub fn new(per_dnn: Vec<Vec<ComponentId>>) -> Self {
        Self { per_dnn }
    }

    /// Maps every unit of every DNN onto a single component (the paper's
    /// baseline is `Mapping::uniform(w, gpu)`).
    pub fn uniform(workload: &Workload, component: ComponentId) -> Self {
        Self {
            per_dnn: workload
                .models()
                .iter()
                .map(|m| vec![component; m.unit_count()])
                .collect(),
        }
    }

    /// Draws a uniformly random mapping over `component_count` components.
    pub fn random<R: Rng + ?Sized>(
        workload: &Workload,
        component_count: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            per_dnn: workload
                .models()
                .iter()
                .map(|m| {
                    (0..m.unit_count())
                        .map(|_| ComponentId::new(rng.gen_range(0..component_count)))
                        .collect()
                })
                .collect(),
        }
    }

    /// Builds a mapping from a flat assignment vector laid out DNN-major
    /// (all of DNN 0's units, then DNN 1's, …) — the encoding used by the
    /// search tree.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != workload.total_units()`.
    pub fn from_flat(workload: &Workload, flat: &[ComponentId]) -> Self {
        assert_eq!(flat.len(), workload.total_units(), "flat assignment length mismatch");
        let mut per_dnn = Vec::with_capacity(workload.len());
        let mut off = 0;
        for m in workload.models() {
            let n = m.unit_count();
            per_dnn.push(flat[off..off + n].to_vec());
            off += n;
        }
        Self { per_dnn }
    }

    /// Flattens to the DNN-major vector (inverse of [`Mapping::from_flat`]).
    pub fn to_flat(&self) -> Vec<ComponentId> {
        self.per_dnn.iter().flatten().copied().collect()
    }

    /// Per-DNN unit assignments.
    pub fn per_dnn(&self) -> &[Vec<ComponentId>] {
        &self.per_dnn
    }

    /// Assignment vector of one DNN.
    ///
    /// # Panics
    ///
    /// Panics if `dnn` is out of range.
    pub fn assignment(&self, dnn: usize) -> &[ComponentId] {
        &self.per_dnn[dnn]
    }

    /// Checks this mapping against a workload and component count.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] encountered.
    pub fn validate(
        &self,
        workload: &Workload,
        component_count: usize,
    ) -> Result<(), MappingError> {
        if self.per_dnn.len() != workload.len() {
            return Err(MappingError::DnnCountMismatch {
                mapping: self.per_dnn.len(),
                workload: workload.len(),
            });
        }
        for (d, (assign, model)) in self.per_dnn.iter().zip(workload.models()).enumerate() {
            if assign.len() != model.unit_count() {
                return Err(MappingError::UnitCountMismatch {
                    dnn: d,
                    mapping: assign.len(),
                    model: model.unit_count(),
                });
            }
            for (u, c) in assign.iter().enumerate() {
                if c.index() >= component_count {
                    return Err(MappingError::UnknownComponent {
                        dnn: d,
                        unit: u,
                        component: c.index(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Fuses one DNN's assignment into pipeline stages (maximal contiguous
    /// runs on the same component), collected into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `dnn` is out of range.
    pub fn stages(&self, dnn: usize) -> Vec<StageSpec> {
        self.stage_runs(dnn).collect()
    }

    /// The pipeline stages of one DNN, in order, without allocating: the
    /// one run scan that [`Mapping::stages`], [`Mapping::stage_count`] and
    /// both compile paths share.
    ///
    /// # Panics
    ///
    /// Panics if `dnn` is out of range.
    pub fn stage_runs(&self, dnn: usize) -> impl Iterator<Item = StageSpec> + '_ {
        let assign = &self.per_dnn[dnn];
        let mut start = 0;
        std::iter::from_fn(move || {
            let component = *assign.get(start)?;
            let len = assign[start..].iter().take_while(|&&c| c == component).count();
            let spec = StageSpec { unit_range: start..start + len, component };
            start += len;
            Some(spec)
        })
    }

    /// Total number of pipeline stages across all DNNs.
    pub fn stage_count(&self) -> usize {
        (0..self.per_dnn.len()).map(|d| self.stage_runs(d).count()).sum()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, assign) in self.per_dnn.iter().enumerate() {
            write!(f, "dnn{}: ", d)?;
            for c in assign {
                write!(f, "{}", c.index())?;
            }
            if d + 1 < self.per_dnn.len() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_workload() -> Workload {
        Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNetV2])
    }

    #[test]
    fn workload_counts() {
        let w = toy_workload();
        assert_eq!(w.len(), 2);
        assert_eq!(w.unit_counts(), vec![8, 10]);
        assert_eq!(w.total_units(), 18);
    }

    #[test]
    fn mapping_space_matches_paper_example() {
        // AlexNet + MobileNet + ResNet-50 + ShuffleNet: 3^(8+20+18+18) ≈ 4e10;
        // the paper's partition-point counts equal our unit counts.
        let w = Workload::from_ids([
            ModelId::AlexNet,
            ModelId::MobileNet,
            ModelId::ResNet50,
            ModelId::ShuffleNet,
        ]);
        assert_eq!(w.total_units(), 8 + 20 + 18 + 18);
        let space = w.mapping_space(3);
        assert!((space.log(3.0) - w.total_units() as f64).abs() < 1e-6);
    }

    #[test]
    fn uniform_mapping_single_stage_per_dnn() {
        let w = toy_workload();
        let m = Mapping::uniform(&w, ComponentId::new(0));
        assert!(m.validate(&w, 3).is_ok());
        for d in 0..w.len() {
            assert_eq!(m.stages(d).len(), 1);
            assert_eq!(m.stages(d)[0].unit_range, 0..w.models()[d].unit_count());
        }
    }

    #[test]
    fn random_mapping_is_valid() {
        let w = toy_workload();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let m = Mapping::random(&w, 3, &mut rng);
            assert!(m.validate(&w, 3).is_ok());
        }
    }

    #[test]
    fn stages_fuse_contiguous_runs() {
        let w = Workload::from_ids([ModelId::AlexNet]);
        assert_eq!(w.unit_counts(), vec![8]);
        let c = |i| ComponentId::new(i);
        let m = Mapping::new(vec![vec![
            c(0),
            c(0),
            c(1),
            c(1),
            c(1),
            c(0),
            c(2),
            c(2),
        ]]);
        let stages = m.stages(0);
        assert_eq!(stages.len(), 4);
        assert_eq!(stages[0].unit_range, 0..2);
        assert_eq!(stages[1].unit_range, 2..5);
        assert_eq!(stages[2].unit_range, 5..6);
        assert_eq!(stages[3].unit_range, 6..8);
        assert_eq!(m.stage_count(), 4);
    }

    #[test]
    fn flat_roundtrip() {
        let w = toy_workload();
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mapping::random(&w, 3, &mut rng);
        let flat = m.to_flat();
        assert_eq!(Mapping::from_flat(&w, &flat), m);
    }

    #[test]
    fn validation_catches_unit_mismatch() {
        let w = toy_workload();
        let m = Mapping::new(vec![vec![ComponentId::new(0); 8], vec![ComponentId::new(0); 9]]);
        match m.validate(&w, 3) {
            Err(MappingError::UnitCountMismatch { dnn: 1, mapping: 9, model: 10 }) => {}
            other => panic!("expected unit mismatch, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_bad_component() {
        let w = toy_workload();
        let mut per = Mapping::uniform(&w, ComponentId::new(0)).per_dnn().to_vec();
        per[0][3] = ComponentId::new(9);
        let m = Mapping::new(per);
        assert!(matches!(
            m.validate(&w, 3),
            Err(MappingError::UnknownComponent { dnn: 0, unit: 3, component: 9 })
        ));
    }

    #[test]
    fn display_is_compact() {
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(2));
        assert_eq!(m.to_string(), "dnn0: 22222222");
    }
}
