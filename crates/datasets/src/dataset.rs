//! The synthetic vision dataset: rendering API, labeled subsets, test sets.

use deco_tensor::{Rng, Tensor};

use crate::render::ClassModel;
use crate::spec::DatasetSpec;

/// A labeled image batch: `[n, c, h, w]` images plus class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSet {
    /// Stacked images.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
}

impl LabeledSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The subset at the given indices.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select(&self, indices: &[usize]) -> LabeledSet {
        LabeledSet {
            images: self.images.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Indices of all samples with the given label.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &y)| (y == class).then_some(i))
            .collect()
    }
}

/// A deterministic, procedurally generated image-classification dataset
/// with instances, environments and viewpoints (see [`DatasetSpec`] and
/// its presets, such as [`core50`], mirroring the paper's benchmarks).
///
/// [`DatasetSpec`]: crate::DatasetSpec
/// [`core50`]: crate::core50
///
/// ```
/// use deco_datasets::{core50, SyntheticVision};
/// use deco_tensor::Rng;
///
/// let data = SyntheticVision::new(core50());
/// let mut rng = Rng::new(0);
/// let frame = data.random_frame(3, &mut rng);
/// assert_eq!(frame.shape().dims(), &[3, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    spec: DatasetSpec,
    models: Vec<ClassModel>,
}

impl SyntheticVision {
    /// Builds the dataset's class models from its spec.
    ///
    /// # Panics
    /// Panics if the spec is invalid.
    pub fn new(spec: DatasetSpec) -> Self {
        spec.validate();
        let models = ClassModel::build_all(&spec);
        SyntheticVision { spec, models }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Flat pixel count of one frame (`c·h·w`).
    pub fn frame_numel(&self) -> usize {
        self.spec.channels * self.spec.image_side * self.spec.image_side
    }

    /// Renders one frame of `(class, instance, environment)` at pose
    /// `view ∈ [0,1)`, with noise drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `class`, `instance` or `environment` is out of range.
    pub fn render(
        &self,
        class: usize,
        instance: usize,
        environment: usize,
        view: f32,
        rng: &mut Rng,
    ) -> Tensor {
        assert!(class < self.spec.num_classes, "class {class} out of range");
        assert!(
            instance < self.spec.instances_per_class,
            "instance {instance} out of range"
        );
        assert!(
            environment < self.spec.num_environments,
            "environment {environment} out of range"
        );
        let mut out = vec![0.0f32; self.frame_numel()];
        self.models[class].render_into(
            &self.spec,
            class,
            instance,
            environment,
            view,
            rng,
            &mut out,
        );
        Tensor::from_vec(
            out,
            [
                self.spec.channels,
                self.spec.image_side,
                self.spec.image_side,
            ],
        )
    }

    /// A frame of `class` with random instance, environment and view.
    pub fn random_frame(&self, class: usize, rng: &mut Rng) -> Tensor {
        let instance = rng.below(self.spec.instances_per_class);
        let environment = rng.below(self.spec.num_environments);
        let view = rng.next_f32();
        self.render(class, instance, environment, view, rng)
    }

    /// A class-balanced labeled set with `per_class` random frames of every
    /// class. Deterministic in `seed`.
    pub fn balanced_set(&self, per_class: usize, seed: u64) -> LabeledSet {
        let mut rng = Rng::new(self.spec.seed ^ seed);
        let n = per_class * self.spec.num_classes;
        let mut data = Vec::with_capacity(n * self.frame_numel());
        let mut labels = Vec::with_capacity(n);
        for class in 0..self.spec.num_classes {
            for _ in 0..per_class {
                let frame = self.random_frame(class, &mut rng);
                data.extend_from_slice(frame.data());
                labels.push(class);
            }
        }
        LabeledSet {
            images: Tensor::from_vec(
                data,
                [
                    n,
                    self.spec.channels,
                    self.spec.image_side,
                    self.spec.image_side,
                ],
            ),
            labels,
        }
    }

    /// The held-out test set (fixed seed, disjoint from training draws in
    /// expectation — views/instances/noise are freshly sampled).
    pub fn test_set(&self, per_class: usize) -> LabeledSet {
        self.balanced_set(per_class, 0x7E57_5E7D)
    }

    /// The small labeled set used to pre-train the model before deployment
    /// (the paper uses 1 % labels, 10 % for CIFAR-100).
    pub fn pretrain_set(&self, per_class: usize) -> LabeledSet {
        self.balanced_set(per_class, 0x11AB_E75E)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{cifar100, core50};

    #[test]
    fn balanced_set_is_class_balanced() {
        let data = SyntheticVision::new(core50());
        let set = data.balanced_set(3, 7);
        assert_eq!(set.len(), 30);
        for c in 0..10 {
            assert_eq!(set.indices_of_class(c).len(), 3);
        }
    }

    #[test]
    fn balanced_set_deterministic_in_seed() {
        let data = SyntheticVision::new(core50());
        assert_eq!(data.balanced_set(2, 3), data.balanced_set(2, 3));
        assert_ne!(data.balanced_set(2, 3), data.balanced_set(2, 4));
    }

    #[test]
    fn test_and_pretrain_sets_differ() {
        let data = SyntheticVision::new(core50());
        assert_ne!(data.test_set(2), data.pretrain_set(2));
    }

    #[test]
    fn select_subsets_correctly() {
        let data = SyntheticVision::new(core50());
        let set = data.balanced_set(2, 1);
        let sub = set.select(&[0, 19]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels, vec![0, 9]);
    }

    #[test]
    fn cifar100_has_100_class_batches() {
        let data = SyntheticVision::new(cifar100());
        let set = data.balanced_set(1, 2);
        assert_eq!(set.len(), 100);
        assert_eq!(set.images.shape().dims()[0], 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn render_rejects_bad_class() {
        let data = SyntheticVision::new(core50());
        let mut rng = Rng::new(0);
        let _ = data.render(10, 0, 0, 0.0, &mut rng);
    }
}
