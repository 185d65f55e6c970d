//! # disthd
//!
//! Reproduction of **DistHD: A Learner-Aware Dynamic Encoding Method for
//! Hyperdimensional Classification** (Wang, Huang, Imani — DAC 2023).
//!
//! DistHD trains a hyperdimensional classifier whose *encoder changes as it
//! learns*.  Each retraining iteration:
//!
//! 1. **Adaptive learning** (Algorithm 1) — similarity-weighted updates of
//!    the class hypervectors over the encoded batch;
//! 2. **Top-2 classification** (§III-B) — every sample is scored against
//!    all classes and categorized *correct* / *partially correct* (true
//!    label ranked 2nd) / *incorrect*;
//! 3. **Undesired-dimension identification** (Algorithm 2) — distance
//!    matrices `M` (partial) and `N` (incorrect) score each dimension by
//!    how strongly it pulls samples toward wrong classes and away from true
//!    ones; the dimensions ranking in the top `R%` of **both** reductions
//!    are selected;
//! 4. **Dimension regeneration** (§III-C) — selected dimensions get fresh
//!    random base vectors, their model entries are zeroed, and only those
//!    columns of the encoded batch are recomputed.
//!
//! ## Quickstart
//!
//! ```
//! use disthd::{DistHd, DistHdConfig};
//! use disthd_datasets::suite::{PaperDataset, SuiteConfig};
//! use disthd_eval::Classifier;
//!
//! let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
//! let config = DistHdConfig {
//!     dim: 256,
//!     epochs: 8,
//!     ..DistHdConfig::default()
//! };
//! let mut model = DistHd::new(config, data.train.feature_dim(), data.train.class_count());
//! model.fit(&data.train, None)?;
//! let accuracy = model.accuracy(&data.test)?;
//! assert!(accuracy > 1.0 / 3.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Beyond offline training, the crate covers the full model lifecycle:
//! [`stream`] adds online learning over streaming mini-batches
//! ([`DistHd::partial_fit`]), [`DeployedModel`] freezes a trained model at
//! low precision for the edge, and [`io`] persists deployments in the
//! versioned `DHD1` binary format that the `disthd_serve` crate loads and
//! serves.

#![deny(missing_docs)]

mod config;
mod deploy;
mod distance;
pub mod io;
pub mod merge;
pub mod stream;
mod top2;
mod trainer;

pub use config::{DistHdConfig, WeightParams};
pub use deploy::{DeployedModel, Precision, Scores, ServingTasks};
pub use distance::{select_undesired_dims, DimensionScores};
pub use disthd_hd::encoder::EncoderBackend;
pub use merge::MergeStats;
pub use stream::{ErrorFeedbackQuantizer, StreamConfig, StreamStats};
pub use top2::{categorize, categorize_batch, Top2Outcome};
pub use trainer::{DistHd, FitReport};
