//! # disthd-hd
//!
//! Hyperdimensional-computing substrate for the DistHD reproduction.
//!
//! This crate provides everything §III-A of the paper assumes as background:
//!
//! * [`encoder`] — the RBF nonlinear encoder `h_i = cos(B_i·F + c_i)·sin(B_i·F)`
//!   used by DistHD (§III-C), in a dense and a structured (FHT) backend, both
//!   behind the [`encoder::Encoder`] trait, with per-dimension
//!   **regeneration** support;
//! * [`ClassModel`] — the trained set of class hypervectors with normalized
//!   cosine-similarity search (eq. 1) and top-k queries;
//! * [`quantize`] — 1/2/4/8-bit model quantization for the Fig. 8 robustness
//!   study;
//! * [`noise`] — random bit-flip fault injection on stored model memory.
//!
//! ## Example
//!
//! ```
//! use disthd_hd::encoder::{Encoder, RbfEncoder};
//! use disthd_hd::ClassModel;
//! use disthd_linalg::{Matrix, RngSeed};
//!
//! // Encode two 4-feature samples into a 64-dimensional space.
//! let encoder = RbfEncoder::new(4, 64, RngSeed(1));
//! let batch = Matrix::from_rows(&[vec![0.1, 0.4, 0.2, 0.9], vec![0.8, 0.1, 0.3, 0.2]])?;
//! let encoded = encoder.encode_batch(&batch)?;
//!
//! // Bundle each into its own class and query.
//! let mut model = disthd_hd::ClassModel::new(2, 64);
//! model.bundle_into(0, encoded.row(0));
//! model.bundle_into(1, encoded.row(1));
//! assert_eq!(model.predict(encoded.row(0)), 0);
//! # Ok::<(), disthd_linalg::ShapeError>(())
//! ```

#![deny(missing_docs)]

pub mod center;
pub mod encoder;
pub mod learn;
mod model;
pub mod noise;
pub mod quantize;
mod similarity;

pub use model::{ClassModel, Prediction, TopK};
pub use similarity::{
    cosine_similarity_matrix, exact_cosine_to_all, packed_cosine_matrix, packed_dot_matrix,
    packed_predict_batch, packed_similarity_to_all, quantized_similarity_matrix,
    quantized_similarity_to_all, similarity_to_all,
};

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared deterministic inputs for kernel-equivalence tests.
    use disthd_linalg::Matrix;

    /// Deterministic continuous values in `[-0.5, 0.5)` from a 64-bit LCG;
    /// pick a `cols` that is not a multiple of `64 / bits` so quantized
    /// rows start mid-word.
    pub(crate) fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }
}
