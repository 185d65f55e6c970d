//! Exact distributed training: shard-local bundling + associative merge.
//!
//! Algorithm 1's adaptive refinement is inherently *sequential* — each
//! update depends on the model produced by the previous sample — so it
//! cannot be distributed with exact equality.  The **bundling** half of
//! DistHD training (the one-pass class-hypervector accumulation that
//! `bundle_init` performs, and that classic HDC uses as its entire
//! training rule) is a sum over samples, and sums *are* associative and
//! commutative — but not in `f32`, where `(a + b) + c ≠ a + (b + c)`.
//!
//! This module therefore accumulates in **fixed-point integers**: every
//! encoded component is rounded once, deterministically, to a 2⁻³²-scaled
//! `i128`, and everything downstream of that rounding is exact integer
//! arithmetic.  The result (see `DESIGN.md` §11):
//!
//! * [`DistHd::fit_shard`] — absorb a labelled batch into the
//!   accumulator, in any order, on any shard;
//! * [`DistHd::merge`] — combine two shard-trained models by integer
//!   addition, plus their mistake statistics and scored windows;
//! * any partition of the data over any number of shards, merged in any
//!   order or tree shape, yields **bit-identical** class memory and
//!   predictions to a single node absorbing the concatenated stream.
//!
//! Shard mode never regenerates dimensions (every shard must keep the
//! identical seeded encoder for encoded rows to be commensurable), and it
//! is mutually exclusive with both [`Classifier::fit`] and
//! [`DistHd::partial_fit`] on the same model instance: those paths mutate
//! the encoder and the model in order-dependent ways that would silently
//! break merge exactness, so mixing them fails closed.  After merging,
//! [`DistHd::refine_merged`] can run Algorithm 1 epochs over the combined
//! scored window — an optional, explicitly *non-mergeable* refinement.
//!
//! [`Classifier::fit`]: disthd_eval::Classifier::fit

use crate::trainer::DistHd;
use disthd_datasets::Dataset;
use disthd_eval::ModelError;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::Encoder;
use disthd_hd::learn::adaptive_epoch;
use disthd_hd::ClassModel;
use disthd_linalg::Matrix;
use std::collections::VecDeque;

/// Fixed-point scale: encoded `f32` components are rounded to multiples
/// of 2⁻³².  One rounding per (sample, dimension); exact integer
/// arithmetic afterwards.
const FIXED_SCALE: f64 = 4_294_967_296.0;

/// Most recent samples retained per shard for post-merge refinement.
const SHARD_WINDOW: usize = 1024;

/// Rounds one encoded component to the shared fixed-point grid.
///
/// `f32 → f64` is exact and `* 2³²` is a power-of-two scaling, so the
/// only rounding is the final `.round()` — identical on every shard.
fn to_fixed(v: f32) -> i128 {
    (v as f64 * FIXED_SCALE).round() as i128
}

/// Integer accumulator state of shard-mode training.
///
/// The class memory and encoding center are *derived* from this state
/// (see [`DistHd::fit_shard`]); the state itself is the mergeable value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardState {
    /// Per-class, per-dimension fixed-point sums of encoded samples
    /// (`class_count × dim`, row-major).
    class_sums: Vec<i128>,
    /// Samples absorbed per class.
    class_counts: Vec<u64>,
    /// Per-dimension fixed-point sums over *all* absorbed samples
    /// (numerator of the deferred encoding center).
    dim_sums: Vec<i128>,
    /// Total samples absorbed.
    total: u64,
    /// Prequential mistakes across all absorbed batches.
    mistakes: u64,
    /// Most recent raw feature rows (for post-merge refinement).
    window_features: VecDeque<Vec<f32>>,
    /// Labels aligned with `window_features`.
    window_labels: VecDeque<usize>,
}

impl ShardState {
    fn new(class_count: usize, dim: usize) -> Self {
        Self {
            class_sums: vec![0; class_count * dim],
            class_counts: vec![0; class_count],
            dim_sums: vec![0; dim],
            total: 0,
            mistakes: 0,
            window_features: VecDeque::new(),
            window_labels: VecDeque::new(),
        }
    }
}

/// Combined statistics of a shard-mode model (see [`DistHd::shard_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Samples absorbed across all shards merged into this model.
    pub samples: u64,
    /// Prequential mistakes accumulated across all merged shards (each
    /// batch scored by its shard's model as it stood before absorbing it).
    pub mistakes: u64,
    /// Samples currently held in the combined scored window.
    pub window_len: usize,
}

impl MergeStats {
    /// Prequential accuracy over all merged shards (`0.0` before any
    /// sample).
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        1.0 - self.mistakes as f64 / self.samples as f64
    }
}

impl DistHd {
    /// Absorbs one labelled batch into this model's shard accumulator and
    /// refreshes the derived class memory + encoding center.
    ///
    /// The class memory after any sequence of `fit_shard` /
    /// [`DistHd::merge`] calls is a pure function of the *multiset* of
    /// absorbed samples — order, batching and sharding cannot change a
    /// bit of it.  Prequential mistake counts (each batch scored before
    /// being absorbed) are shard-local diagnostics and do not feed back
    /// into the model.
    ///
    /// # Errors
    ///
    /// [`ModelError::Incompatible`] when the batch shape disagrees with
    /// the model, a feature is NaN or infinite, or when this model has
    /// already been trained through the non-mergeable
    /// [`fit`](disthd_eval::Classifier::fit) / [`DistHd::partial_fit`]
    /// paths.
    pub fn fit_shard(&mut self, batch: &Dataset) -> Result<MergeStats, ModelError> {
        self.validate_batch(batch, "shard batch")?;
        if self.stream.is_some() {
            return Err(ModelError::Incompatible(
                "model has partial_fit stream state; shard training would break \
                 merge exactness"
                    .into(),
            ));
        }
        if self.model.is_some() && self.shard.is_none() {
            return Err(ModelError::Incompatible(
                "model was trained with the non-mergeable fit path; shard \
                 training cannot extend it"
                    .into(),
            ));
        }

        let dim = self.config.dim;
        let mut state = self
            .shard
            .take()
            .unwrap_or_else(|| ShardState::new(self.class_count, dim));

        if !batch.is_empty() {
            let encoded = self.encoder.encode_batch(batch.features())?;

            // Prequential scoring against the model derived from previous
            // absorptions (no model yet on the very first batch: those
            // samples are scored as unscorable, not as mistakes).
            if state.total > 0 {
                let center = self.center.as_ref().expect("derived with the model");
                let model = self.model.as_mut().expect("total > 0 implies a model");
                let mut centered = encoded.clone();
                center.apply_batch(&mut centered);
                let predictions = model.predict_batch(&centered)?;
                state.mistakes += predictions
                    .iter()
                    .zip(batch.labels())
                    .filter(|(p, l)| p != l)
                    .count() as u64;
            }

            // Exact accumulation: one deterministic rounding per value,
            // integer sums afterwards.
            for i in 0..batch.len() {
                let class = batch.label(i);
                let row = encoded.row(i);
                let sums = &mut state.class_sums[class * dim..(class + 1) * dim];
                for (d, &v) in row.iter().enumerate() {
                    let q = to_fixed(v);
                    sums[d] += q;
                    state.dim_sums[d] += q;
                }
                state.class_counts[class] += 1;

                state.window_features.push_back(batch.sample(i).to_vec());
                state.window_labels.push_back(class);
            }
            while state.window_features.len() > SHARD_WINDOW {
                state.window_features.pop_front();
                state.window_labels.pop_front();
            }
            state.total += batch.len() as u64;
        }

        let stats = MergeStats {
            samples: state.total,
            mistakes: state.mistakes,
            window_len: state.window_features.len(),
        };
        self.shard = Some(state);
        self.rebuild_from_shard();
        Ok(stats)
    }

    /// Merges another shard-trained model into this one.
    ///
    /// Class memories are combined by exact integer addition of the
    /// fixed-point accumulators; mistake statistics add; the scored
    /// windows are concatenated (other's samples treated as newer) and
    /// re-bounded.  Merging is associative and commutative in the derived
    /// class memory and predictions — see the property tests.
    ///
    /// # Errors
    ///
    /// [`ModelError::Incompatible`] when either side lacks shard state
    /// (trained through `fit`/`partial_fit`, or untouched and unfitted is
    /// fine — an empty accumulator is the identity) or the configurations
    /// differ (dimensionality, seed, encoder backend, learning knobs).
    pub fn merge(&mut self, other: &DistHd) -> Result<MergeStats, ModelError> {
        if self.config != other.config {
            return Err(ModelError::Incompatible(
                "cannot merge shards trained under different configurations".into(),
            ));
        }
        if self.class_count != other.class_count
            || self.encoder.input_dim() != other.encoder.input_dim()
        {
            return Err(ModelError::Incompatible(
                "cannot merge shards with different model shapes".into(),
            ));
        }
        if self.stream.is_some() || other.stream.is_some() {
            return Err(ModelError::Incompatible(
                "cannot merge models carrying partial_fit stream state".into(),
            ));
        }
        if (self.model.is_some() && self.shard.is_none())
            || (other.model.is_some() && other.shard.is_none())
        {
            return Err(ModelError::Incompatible(
                "cannot merge a model trained with the non-mergeable fit path".into(),
            ));
        }

        let dim = self.config.dim;
        let mut state = self
            .shard
            .take()
            .unwrap_or_else(|| ShardState::new(self.class_count, dim));
        if let Some(other_state) = other.shard.as_ref() {
            for (acc, &v) in state.class_sums.iter_mut().zip(&other_state.class_sums) {
                *acc += v;
            }
            for (acc, &v) in state.class_counts.iter_mut().zip(&other_state.class_counts) {
                *acc += v;
            }
            for (acc, &v) in state.dim_sums.iter_mut().zip(&other_state.dim_sums) {
                *acc += v;
            }
            state.total += other_state.total;
            state.mistakes += other_state.mistakes;
            state
                .window_features
                .extend(other_state.window_features.iter().cloned());
            state
                .window_labels
                .extend(other_state.window_labels.iter().copied());
            while state.window_features.len() > SHARD_WINDOW {
                state.window_features.pop_front();
                state.window_labels.pop_front();
            }
        }

        let stats = MergeStats {
            samples: state.total,
            mistakes: state.mistakes,
            window_len: state.window_features.len(),
        };
        self.shard = Some(state);
        self.rebuild_from_shard();
        Ok(stats)
    }

    /// Combined statistics of the shard accumulator, if this model is in
    /// shard mode.
    pub fn shard_report(&self) -> Option<MergeStats> {
        self.shard.as_ref().map(|s| MergeStats {
            samples: s.total,
            mistakes: s.mistakes,
            window_len: s.window_features.len(),
        })
    }

    /// Runs `epochs` Algorithm 1 adaptive passes over the merged scored
    /// window and returns the final pass's training accuracy.
    ///
    /// This is the optional *non-mergeable* refinement step after a
    /// shard merge: it leaves the exact-merge regime (the refined model
    /// depends on window order), so the accumulator is dropped and
    /// further [`DistHd::fit_shard`] / [`DistHd::merge`] calls fail
    /// closed.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotFitted`] when the model has no shard state or an
    /// empty window.
    pub fn refine_merged(&mut self, epochs: usize) -> Result<f64, ModelError> {
        let state = self.shard.take().ok_or(ModelError::NotFitted)?;
        if state.window_features.is_empty() {
            self.shard = Some(state);
            return Err(ModelError::NotFitted);
        }
        let refs: Vec<&[f32]> = state.window_features.iter().map(Vec::as_slice).collect();
        let window = Matrix::from_row_slices(self.encoder.input_dim(), &refs)?;
        let labels: Vec<usize> = state.window_labels.iter().copied().collect();

        let mut encoded = self.encoder.encode_batch(&window)?;
        let center = self.center.as_ref().expect("shard state implies a center");
        center.apply_batch(&mut encoded);
        let model = self.model.as_mut().expect("shard state implies a model");

        let mut accuracy = 0.0;
        for _ in 0..epochs {
            let stats = adaptive_epoch(model, &encoded, &labels, self.config.learning_rate)?;
            accuracy = stats.accuracy();
        }
        Ok(accuracy)
    }

    /// Derives the encoding center and class memory from the integer
    /// accumulators — a pure function of the merged state, evaluated in
    /// `f64` with one final rounding to `f32` per value.
    fn rebuild_from_shard(&mut self) {
        let state = self.shard.as_ref().expect("caller just stored the state");
        if state.total == 0 {
            return;
        }
        let dim = self.config.dim;
        let total = state.total as f64;
        let means_f64: Vec<f64> = state
            .dim_sums
            .iter()
            .map(|&s| (s as f64 / FIXED_SCALE) / total)
            .collect();
        let classes = Matrix::from_fn(self.class_count, dim, |c, d| {
            let sum = state.class_sums[c * dim + d] as f64 / FIXED_SCALE;
            (sum - state.class_counts[c] as f64 * means_f64[d]) as f32
        });
        self.center = Some(EncodingCenter::from_means(
            means_f64.iter().map(|&m| m as f32).collect(),
        ));
        self.model = Some(ClassModel::from_matrix(classes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistHdConfig;
    use disthd_eval::Classifier;
    use disthd_hd::encoder::EncoderBackend;

    fn small_data() -> disthd_datasets::TrainTest {
        disthd_datasets::suite::PaperDataset::Diabetes
            .generate(&disthd_datasets::suite::SuiteConfig::at_scale(0.001))
            .unwrap()
    }

    fn config(backend: EncoderBackend) -> DistHdConfig {
        DistHdConfig {
            dim: 256,
            encoder_backend: backend,
            ..Default::default()
        }
    }

    fn chunks(data: &Dataset, shards: usize) -> Vec<Dataset> {
        let per = data.len().div_ceil(shards);
        (0..shards)
            .map(|s| {
                let lo = (s * per).min(data.len());
                let hi = ((s + 1) * per).min(data.len());
                data.select(&(lo..hi).collect::<Vec<_>>())
            })
            .collect()
    }

    /// FNV-1a over a prediction vector — the hash the CI merge gate
    /// compares across shard counts.
    fn fnv1a(predictions: &[usize]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &p in predictions {
            for byte in (p as u64).to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// DISTHD_THREADS pins the sweep to one thread count (the CI scenario
    /// job runs the gate once per setting); unset, both are covered.
    fn thread_counts() -> Vec<usize> {
        match std::env::var("DISTHD_THREADS") {
            Ok(v) => vec![v.parse().expect("DISTHD_THREADS must be an integer")],
            Err(_) => vec![1, 4],
        }
    }

    fn train_sharded(data: &Dataset, backend: EncoderBackend, shards: usize) -> DistHd {
        let parts = chunks(data, shards);
        let mut trained: Vec<DistHd> = parts
            .iter()
            .map(|part| {
                let mut shard =
                    DistHd::new(config(backend), data.feature_dim(), data.class_count());
                shard.fit_shard(part).unwrap();
                shard
            })
            .collect();
        let mut merged = trained.remove(0);
        for other in &trained {
            merged.merge(other).unwrap();
        }
        merged
    }

    #[test]
    fn shard_train_then_merge_is_bit_identical_to_single_node() {
        // The acceptance gate: shard counts 1/2/4/8 × both encoder
        // backends × both thread counts must produce identical class
        // memory bits and identical prediction hashes.
        let data = small_data();
        for backend in [EncoderBackend::Dense, EncoderBackend::Structured] {
            for threads in thread_counts() {
                disthd_linalg::parallel::with_thread_count(threads, || {
                    let mut single = train_sharded(&data.train, backend, 1);
                    let single_classes =
                        single.class_model().unwrap().classes().as_slice().to_vec();
                    let single_hash = fnv1a(&single.predict(&data.test).unwrap());
                    for shards in [2usize, 4, 8] {
                        let mut merged = train_sharded(&data.train, backend, shards);
                        assert_eq!(
                            merged.class_model().unwrap().classes().as_slice(),
                            single_classes.as_slice(),
                            "{backend:?}: class memory diverged at {shards} shards, \
                             {threads} threads"
                        );
                        let hash = fnv1a(&merged.predict(&data.test).unwrap());
                        assert_eq!(
                            hash, single_hash,
                            "{backend:?}: prediction hash diverged at {shards} shards, \
                             {threads} threads"
                        );
                        let report = merged.shard_report().unwrap();
                        assert_eq!(report.samples as usize, data.train.len());
                    }
                });
            }
        }
    }

    #[test]
    fn merge_order_does_not_change_the_model() {
        let data = small_data();
        let parts = chunks(&data.train, 4);
        let shard = |part: &Dataset| {
            let mut m = DistHd::new(
                config(EncoderBackend::Dense),
                data.train.feature_dim(),
                data.train.class_count(),
            );
            m.fit_shard(part).unwrap();
            m
        };
        let trained: Vec<DistHd> = parts.iter().map(shard).collect();

        // Left fold: ((0 + 1) + 2) + 3.
        let mut forward = trained[0].clone();
        for other in &trained[1..] {
            forward.merge(other).unwrap();
        }
        // Reverse fold: ((3 + 2) + 1) + 0.
        let mut backward = trained[3].clone();
        for other in trained[..3].iter().rev() {
            backward.merge(other).unwrap();
        }
        // Balanced tree: (0 + 1) + (2 + 3).
        let mut left = trained[0].clone();
        left.merge(&trained[1]).unwrap();
        let mut right = trained[2].clone();
        right.merge(&trained[3]).unwrap();
        left.merge(&right).unwrap();

        let reference = forward.class_model().unwrap().classes().as_slice();
        assert_eq!(
            backward.class_model().unwrap().classes().as_slice(),
            reference
        );
        assert_eq!(left.class_model().unwrap().classes().as_slice(), reference);
    }

    #[test]
    fn merged_bundling_model_beats_chance() {
        let data = small_data();
        let mut merged = train_sharded(&data.train, EncoderBackend::Dense, 4);
        let accuracy = merged.accuracy(&data.test).unwrap();
        assert!(accuracy > 0.4, "merged bundling accuracy {accuracy}");
        let report = merged.shard_report().unwrap();
        assert!(report.accuracy() > 0.0);
        assert!(report.window_len > 0);
    }

    #[test]
    fn refine_merged_runs_adaptive_epochs_and_leaves_shard_mode() {
        let data = small_data();
        let mut merged = train_sharded(&data.train, EncoderBackend::Dense, 2);
        let before = merged.accuracy(&data.test).unwrap();
        let train_acc = merged.refine_merged(4).unwrap();
        assert!(train_acc > 0.0);
        let after = merged.accuracy(&data.test).unwrap();
        assert!(
            after >= before - 0.05,
            "refinement degraded accuracy {before} -> {after}"
        );
        // Refinement leaves the exact-merge regime.
        assert!(merged.shard_report().is_none());
        assert!(merged.fit_shard(&data.train).is_err());
    }

    #[test]
    fn shard_mode_is_mutually_exclusive_with_fit_and_partial_fit() {
        let data = small_data();
        let fresh = || {
            DistHd::new(
                config(EncoderBackend::Dense),
                data.train.feature_dim(),
                data.train.class_count(),
            )
        };

        // fit → fit_shard fails closed.
        let mut fitted = fresh();
        fitted.fit(&data.train, None).unwrap();
        assert!(fitted.fit_shard(&data.train).is_err());

        // partial_fit → fit_shard fails closed.
        let mut streamed = fresh();
        streamed.partial_fit(&data.train).unwrap();
        assert!(streamed.fit_shard(&data.train).is_err());

        // fit_shard → partial_fit fails closed.
        let mut sharded = fresh();
        sharded.fit_shard(&data.train).unwrap();
        assert!(sharded.partial_fit(&data.train).is_err());

        // Merging a fit-trained or stream-trained model fails closed.
        let mut target = fresh();
        target.fit_shard(&data.train).unwrap();
        assert!(target.merge(&fitted).is_err());
        assert!(target.merge(&streamed).is_err());

        // fit clears shard state (full batch retrain supersedes it).
        let mut retrained = fresh();
        retrained.fit_shard(&data.train).unwrap();
        assert!(retrained.shard_report().is_some());
        retrained.fit(&data.train, None).unwrap();
        assert!(retrained.shard_report().is_none());
    }

    #[test]
    fn merge_validates_compatibility() {
        let data = small_data();
        let mut a = DistHd::new(
            config(EncoderBackend::Dense),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        a.fit_shard(&data.train).unwrap();

        // Different dimensionality.
        let mut cfg = config(EncoderBackend::Dense);
        cfg.dim = 128;
        let b = DistHd::new(cfg, data.train.feature_dim(), data.train.class_count());
        assert!(a.merge(&b).is_err());

        // Different backend.
        let c = DistHd::new(
            config(EncoderBackend::Structured),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        assert!(a.merge(&c).is_err());

        // An untouched same-config model is the merge identity.
        let identity = DistHd::new(
            config(EncoderBackend::Dense),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let before = a.class_model().unwrap().classes().as_slice().to_vec();
        a.merge(&identity).unwrap();
        assert_eq!(
            a.class_model().unwrap().classes().as_slice(),
            before.as_slice()
        );

        // Shape mismatch (different feature arity, same config).
        let mut d = DistHd::new(config(EncoderBackend::Dense), 7, data.train.class_count());
        assert!(d.merge(&a).is_err());
    }

    #[test]
    fn fit_shard_validates_input_and_tolerates_empty_batches() {
        let data = small_data();
        let mut model = DistHd::new(
            config(EncoderBackend::Dense),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let wrong = DistHd::new(config(EncoderBackend::Dense), 7, 3);
        let mut wrong = wrong;
        assert!(wrong.fit_shard(&data.train).is_err());

        let empty = data.train.select(&[]);
        let stats = model.fit_shard(&empty).unwrap();
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.accuracy(), 0.0);
        // Empty absorption leaves no derived model.
        assert!(model.class_model().is_none());

        model.fit_shard(&data.train).unwrap();
        let stats = model.fit_shard(&data.train).unwrap();
        assert_eq!(stats.samples as usize, 2 * data.train.len());
        // The second pass was scored prequentially against the first.
        assert!(stats.accuracy() > 0.0);
    }
}
