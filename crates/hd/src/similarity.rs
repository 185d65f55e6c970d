//! Similarity kernels (eq. 1 of the paper).
//!
//! For real hypervectors the paper's cosine similarity against every class is
//! computed as one matrix–vector product with *pre-normalized* class rows:
//! `δ(H, C_l) ∝ H · N_l` where `N_l = C_l / ‖C_l‖` — the `‖H‖` factor is
//! common to all classes and dropped.  Quantized class memories are scored
//! straight off their packed codes: against an `f32` query, or against a
//! quantized query of the same width (XOR + popcount at 1 bit, exact
//! widening integer dots at 2/4/8 bits).

use crate::quantize::QuantizedMatrix;
use disthd_linalg::{dot, normalize_l2, Matrix, PackedRhs, ShapeError};

/// Dot-product similarity of a query against every row of `normalized_rows`.
///
/// The rows are expected to be pre-normalized (see
/// [`cosine_similarity_matrix`]); the result then ranks classes identically
/// to full cosine similarity.
///
/// # Errors
///
/// Returns [`ShapeError`] if `query.len() != normalized_rows.cols()`.
pub fn similarity_to_all(query: &[f32], normalized_rows: &Matrix) -> Result<Vec<f32>, ShapeError> {
    normalized_rows.matvec(query)
}

/// L2-normalizes every row of `rows`, producing the `N_l` matrix of eq. 1.
///
/// Zero rows (untrained classes) stay zero, which ranks them below any class
/// with signal.
pub fn cosine_similarity_matrix(rows: &Matrix) -> Matrix {
    let mut out = rows.clone();
    for r in 0..out.rows() {
        let normalized = normalize_l2(out.row(r));
        out.row_mut(r).copy_from_slice(&normalized);
    }
    out
}

/// Similarity of an `f32` query against every row of a quantized class
/// memory, read **directly off the packed words** — the zero-dequantize
/// serving kernel.
///
/// `inv_norms` must hold one reciprocal code norm per row (from
/// [`QuantizedMatrix::code_inv_norms_into`]).  The score for row `l` is
/// `dot(query, codes_l) · inv_norms[l]`, which ranks classes identically to
/// dequantize-then-[`similarity_to_all`]: the per-row quantization scale
/// cancels between the dequantized dot and the dequantized norm, so only
/// f32 rounding (≈ 1 ulp per accumulation) separates the two paths.
/// All-zero rows score exactly `0.0`, matching
/// [`cosine_similarity_matrix`]'s zero-row convention.
///
/// # Errors
///
/// Returns [`ShapeError`] if `query.len() != classes.shape().1` or
/// `inv_norms.len() != classes.shape().0`.
pub fn quantized_similarity_to_all(
    query: &[f32],
    classes: &QuantizedMatrix,
    inv_norms: &[f32],
) -> Result<Vec<f32>, ShapeError> {
    let (rows, cols) = classes.shape();
    if query.len() != cols || inv_norms.len() != rows {
        return Err(ShapeError::new(
            "quantized_similarity",
            (1, query.len()),
            (rows, cols),
        ));
    }
    Ok((0..rows)
        .map(|l| classes.row_dot_f32(l, query) * inv_norms[l])
        .collect())
}

/// Batched [`quantized_similarity_to_all`]: the `samples × classes` score
/// matrix of every encoded row against a quantized class memory.
///
/// The class codes run through the full 4×16 register-tiled GEMM
/// micro-kernel ([`Matrix::matmul_prepacked_map`]): the packed words are
/// decoded **once** into a tile-major [`PackedRhs`] panel of scale-free
/// integer codes (saturating faulted codes exactly like `dequantize`), and
/// the whole batch multiplies against that panel with the per-class
/// `inv_norms` scaling fused into the store epilogue.  Per `(sample,
/// class)` the accumulation is the GEMM's single ascending chain — exactly
/// what [`quantized_similarity_to_all`] computes via
/// [`disthd_linalg::dot_gemm_order_from`] — so batch composition and
/// thread count never change a bit of the result.
///
/// The panel is decoded per call — written immediately before the GEMM
/// reads it back out of cache, which measures *faster* than keeping a
/// long-lived panel that starts every call cold (and it keeps the packed
/// words the only state).  Batches too small to amortize the decode
/// (fewer than `QSIM_GEMM_MIN_ROWS` rows — e.g. one-at-a-time serving)
/// skip the panel entirely and score row by row through the single-query
/// kernel, which is bit-identical by the shared accumulation chain.  A
/// caller that genuinely reuses one panel across many products can decode
/// it once ([`QuantizedMatrix::pack_codes_into`]) and call
/// [`quantized_similarity_prepacked`] per batch.
///
/// # Errors
///
/// Returns [`ShapeError`] if `encoded.cols() != classes.shape().1` or
/// `inv_norms.len() != classes.shape().0`.
pub fn quantized_similarity_matrix(
    encoded: &Matrix,
    classes: &QuantizedMatrix,
    inv_norms: &[f32],
) -> Result<Matrix, ShapeError> {
    let (class_count, dim) = classes.shape();
    if encoded.cols() != dim || inv_norms.len() != class_count {
        return Err(ShapeError::new(
            "quantized_similarity",
            encoded.shape(),
            (class_count, dim),
        ));
    }
    if encoded.rows() < QSIM_GEMM_MIN_ROWS {
        let mut scores = Matrix::zeros(encoded.rows(), class_count);
        for r in 0..encoded.rows() {
            let row = quantized_similarity_to_all(encoded.row(r), classes, inv_norms)?;
            scores.row_mut(r).copy_from_slice(&row);
        }
        return Ok(scores);
    }
    let mut panel = PackedRhs::new(dim, class_count);
    classes.pack_codes_into(&mut panel);
    quantized_similarity_prepacked(encoded, &panel, inv_norms)
}

/// Below this many query rows the batched kernel scores row by row instead
/// of decoding the full GEMM panel: decoding all `k·D` codes (plus the
/// panel allocation) costs more than a couple of latency-bound single-query
/// passes.  Both paths accumulate in the identical per-element chain, so
/// the crossover affects speed only — never a result bit.
const QSIM_GEMM_MIN_ROWS: usize = 4;

/// [`quantized_similarity_matrix`] against an already-decoded code panel,
/// for callers that score many batches against one class memory and keep
/// the panel hot themselves (the bundled deployment deliberately does
/// *not* — see [`quantized_similarity_matrix`]).
///
/// # Errors
///
/// Returns [`ShapeError`] if `encoded.cols() != codes_panel.inner()` or
/// `inv_norms.len() != codes_panel.cols()`.
pub fn quantized_similarity_prepacked(
    encoded: &Matrix,
    codes_panel: &PackedRhs,
    inv_norms: &[f32],
) -> Result<Matrix, ShapeError> {
    if encoded.cols() != codes_panel.inner() || inv_norms.len() != codes_panel.cols() {
        return Err(ShapeError::new(
            "quantized_similarity",
            encoded.shape(),
            (codes_panel.cols(), codes_panel.inner()),
        ));
    }
    encoded.matmul_prepacked_map(codes_panel, |l, v| v * inv_norms[l])
}

/// Fully-integer similarity of a quantized query (a `1 × D`
/// [`QuantizedMatrix`]) against every row of a quantized class memory:
/// widening i8/i4/i2 dot products — or XOR+popcount for 1-bit — over the
/// packed words, normalized by the exact integer code norms on both sides.
///
/// `class_inv_norms` must hold one reciprocal code norm per class row
/// (from [`QuantizedMatrix::code_inv_norms_into`]) — the norms are
/// query-independent, so a serving loop computes them once per class
/// memory instead of re-decoding every class row per request.  Only the
/// query's own norm is computed here (one `O(D)` pass over the query it
/// already dots).
///
/// The returned scores are cosine similarities of the *dequantized* values
/// (the scales cancel), so argmax and top-2 agree with
/// dequantize-then-[`exact_cosine_to_all`] — the equivalence the
/// exhaustive kernel tests pin at every width.
///
/// # Errors
///
/// Returns [`ShapeError`] if `query` is not a single row, the widths or
/// column counts differ, or `class_inv_norms` has the wrong length.
pub fn packed_similarity_to_all(
    query: &QuantizedMatrix,
    classes: &QuantizedMatrix,
    class_inv_norms: &[f32],
) -> Result<Vec<f32>, ShapeError> {
    let (query_rows, query_cols) = query.shape();
    let (class_rows, class_cols) = classes.shape();
    if query_rows != 1
        || query_cols != class_cols
        || query.width() != classes.width()
        || class_inv_norms.len() != class_rows
    {
        return Err(ShapeError::new(
            "packed_similarity",
            query.shape(),
            classes.shape(),
        ));
    }
    let mut query_inv = Vec::with_capacity(1);
    query.code_inv_norms_into(&mut query_inv);
    Ok((0..class_rows)
        .map(|l| query.row_dot_widening(0, classes, l) as f32 * query_inv[0] * class_inv_norms[l])
        .collect())
}

/// Fully-integer batch prediction: the argmax class of every row of a
/// quantized query batch against a quantized class memory, straight off the
/// packed words — XOR+popcount at 1 bit, widening i2/i4/i8 dot products
/// otherwise.  **No f32 similarity work**: the only float arithmetic is the
/// final per-class `dot × inv_norm` scaling of an integer dot.
///
/// The per-query reciprocal code norm of [`packed_similarity_to_all`] is
/// skipped: it is one positive constant per query, so it scales every
/// class score identically and cannot move the argmax.  Ties (equal scaled
/// scores) resolve to the lower class index, matching the f32 pipeline's
/// argmax convention.
///
/// # Errors
///
/// Returns [`ShapeError`] if the widths or column counts differ, or
/// `class_inv_norms` is not one entry per class row.
pub fn packed_predict_batch(
    queries: &QuantizedMatrix,
    classes: &QuantizedMatrix,
    class_inv_norms: &[f32],
) -> Result<Vec<usize>, ShapeError> {
    let (query_rows, query_cols) = queries.shape();
    let (class_rows, class_cols) = classes.shape();
    if query_cols != class_cols
        || queries.width() != classes.width()
        || class_inv_norms.len() != class_rows
    {
        return Err(ShapeError::new(
            "packed_predict",
            queries.shape(),
            classes.shape(),
        ));
    }
    let mut out = Vec::with_capacity(query_rows);
    for r in 0..query_rows {
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (l, &inv_norm) in class_inv_norms.iter().enumerate() {
            let score = queries.row_dot_widening(r, classes, l) as f32 * inv_norm;
            if score > best_score {
                best = l;
                best_score = score;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Batched fully-integer **true-cosine** scores: the `samples × classes`
/// matrix of every row of a quantized query batch against a quantized
/// class memory, with the per-query reciprocal code norm applied.
///
/// [`packed_predict_batch`] deliberately skips the per-query norm — it is
/// a positive constant per query, so it cannot move an argmax — but a
/// serving task that **compares scores across queries** (one-class anomaly
/// detection thresholds a query's best similarity) needs the real cosine:
/// without the query norm, a long query outscores a short one at the same
/// angle and the threshold stops meaning anything.  Row `s` here is
/// bit-identical to [`packed_similarity_to_all`] on query `s` alone (same
/// integer dots, same two scalar multiplies in the same order), so a
/// batched anomaly/top-k pass scores exactly like one-at-a-time serving.
///
/// All query inverse norms are computed in one integer pass up front
/// ([`QuantizedMatrix::code_inv_norms_into`]); an all-zero query row
/// scores `0.0` against every class, matching the zero-row convention.
///
/// # Errors
///
/// Returns [`ShapeError`] if the widths or column counts differ, or
/// `class_inv_norms` is not one entry per class row.
pub fn packed_cosine_matrix(
    queries: &QuantizedMatrix,
    classes: &QuantizedMatrix,
    class_inv_norms: &[f32],
) -> Result<Matrix, ShapeError> {
    let (query_rows, query_cols) = queries.shape();
    let (class_rows, class_cols) = classes.shape();
    if query_cols != class_cols
        || queries.width() != classes.width()
        || class_inv_norms.len() != class_rows
    {
        return Err(ShapeError::new(
            "packed_cosine",
            queries.shape(),
            classes.shape(),
        ));
    }
    let mut query_inv = Vec::new();
    queries.code_inv_norms_into(&mut query_inv);
    let mut scores = Matrix::zeros(query_rows, class_rows);
    for (r, &q_inv) in query_inv.iter().enumerate() {
        let row = scores.row_mut(r);
        for (l, &inv_norm) in class_inv_norms.iter().enumerate() {
            row[l] = queries.row_dot_widening(r, classes, l) as f32 * q_inv * inv_norm;
        }
    }
    Ok(scores)
}

/// Full cosine similarity of `query` against each (unnormalized) row.
///
/// Slower than [`similarity_to_all`]; used by tests and diagnostics where the
/// true cosine value (not just the ranking) matters.
///
/// # Errors
///
/// Returns [`ShapeError`] if `query.len() != rows.cols()`.
pub fn exact_cosine_to_all(query: &[f32], rows: &Matrix) -> Result<Vec<f32>, ShapeError> {
    if query.len() != rows.cols() {
        return Err(ShapeError::new(
            "exact_cosine",
            (1, query.len()),
            rows.shape(),
        ));
    }
    let qn = disthd_linalg::l2_norm(query);
    Ok(rows
        .iter_rows()
        .map(|row| {
            let rn = disthd_linalg::l2_norm(row);
            if qn == 0.0 || rn == 0.0 {
                0.0
            } else {
                dot(query, row) / (qn * rn)
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_rows_rank_like_cosine() {
        let rows = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 0.5], vec![3.0, 3.0]]).unwrap();
        let normalized = cosine_similarity_matrix(&rows);
        let query = [1.0, 0.2];
        let fast = similarity_to_all(&query, &normalized).unwrap();
        let exact = exact_cosine_to_all(&query, &rows).unwrap();
        // Same argmax and same ordering.
        let rank = |v: &[f32]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
            idx
        };
        assert_eq!(rank(&fast), rank(&exact));
    }

    #[test]
    fn zero_rows_stay_zero_after_normalization() {
        let rows = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let normalized = cosine_similarity_matrix(&rows);
        assert_eq!(normalized.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn similarity_shape_checked() {
        let rows = Matrix::zeros(2, 4);
        assert!(similarity_to_all(&[1.0, 2.0], &rows).is_err());
        assert!(exact_cosine_to_all(&[1.0, 2.0], &rows).is_err());
    }

    use crate::quantize::BitWidth;
    use crate::test_util::lcg_matrix;
    use crate::TopK;

    #[test]
    fn quantized_similarity_ranks_like_dequantized_snapshot() {
        // The serving contract: reading the packed words must produce the
        // same argmax and top-2 classes as the dequantize-then-f32 snapshot
        // path, at every width.
        let classes = lcg_matrix(5, 37, 0x91);
        let queries = lcg_matrix(7, 37, 0x92);
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&classes, w);
            let snapshot = cosine_similarity_matrix(&q.dequantize());
            let mut inv_norms = Vec::new();
            q.code_inv_norms_into(&mut inv_norms);
            for s in 0..queries.rows() {
                let query = queries.row(s);
                let fast = quantized_similarity_to_all(query, &q, &inv_norms).unwrap();
                let reference = similarity_to_all(query, &snapshot).unwrap();
                let fast_top = TopK::from_scores(&fast);
                let reference_top = TopK::from_scores(&reference);
                assert_eq!(
                    fast_top.first.class, reference_top.first.class,
                    "{w}, query {s}: argmax"
                );
                assert_eq!(
                    fast_top.second.class, reference_top.second.class,
                    "{w}, query {s}: runner-up"
                );
                for (l, (&a, &b)) in fast.iter().zip(reference.iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4 * b.abs().max(1.0),
                        "{w}, query {s}, class {l}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_similarity_matrix_matches_per_query_and_threads() {
        let classes = lcg_matrix(4, 50, 0xA1);
        let queries = lcg_matrix(19, 50, 0xA2);
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&classes, w);
            let mut inv_norms = Vec::new();
            q.code_inv_norms_into(&mut inv_norms);
            let serial = disthd_linalg::parallel::with_thread_count(1, || {
                quantized_similarity_matrix(&queries, &q, &inv_norms).unwrap()
            });
            for s in 0..queries.rows() {
                let single = quantized_similarity_to_all(queries.row(s), &q, &inv_norms).unwrap();
                assert_eq!(serial.row(s), single.as_slice(), "{w}, row {s}");
            }
            for threads in [2usize, 8] {
                let parallel = disthd_linalg::parallel::with_thread_count(threads, || {
                    quantized_similarity_matrix(&queries, &q, &inv_norms).unwrap()
                });
                assert_eq!(
                    serial.as_slice(),
                    parallel.as_slice(),
                    "{w}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn small_batches_row_path_matches_the_gemm_path_bitwise() {
        // Batches under QSIM_GEMM_MIN_ROWS rows skip the panel and score
        // through the single-query kernel; the shared accumulation chain
        // makes that a pure speed decision — every score must equal the
        // GEMM path's bit for bit.
        let classes = lcg_matrix(4, 50, 0xC1);
        let queries = lcg_matrix(9, 50, 0xC2);
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&classes, w);
            let mut inv_norms = Vec::new();
            q.code_inv_norms_into(&mut inv_norms);
            let full = quantized_similarity_matrix(&queries, &q, &inv_norms).unwrap();
            for rows in [1usize, 2, 3] {
                let subset: Vec<usize> = (0..rows).collect();
                let small =
                    quantized_similarity_matrix(&queries.select_rows(&subset), &q, &inv_norms)
                        .unwrap();
                for r in 0..rows {
                    assert_eq!(small.row(r), full.row(r), "{w}, {rows} rows, row {r}");
                }
            }
        }
    }

    #[test]
    fn quantized_similarity_shapes_are_checked() {
        let q = QuantizedMatrix::quantize(&lcg_matrix(2, 8, 1), BitWidth::B4);
        let inv = vec![1.0; 2];
        assert!(quantized_similarity_to_all(&[0.0; 7], &q, &inv).is_err());
        assert!(quantized_similarity_to_all(&[0.0; 8], &q, &[1.0]).is_err());
        assert!(quantized_similarity_matrix(&Matrix::zeros(3, 7), &q, &inv).is_err());
        let other = QuantizedMatrix::quantize(&lcg_matrix(1, 8, 2), BitWidth::B8);
        assert!(packed_similarity_to_all(&other, &q, &inv).is_err());
        let two_rows = QuantizedMatrix::quantize(&lcg_matrix(2, 8, 3), BitWidth::B4);
        assert!(packed_similarity_to_all(&two_rows, &q, &inv).is_err());
        let one_row = QuantizedMatrix::quantize(&lcg_matrix(1, 8, 4), BitWidth::B4);
        assert!(packed_similarity_to_all(&one_row, &q, &[1.0]).is_err());
    }

    /// f64 ground-truth cosine of two quantized rows, from exact integer
    /// dots and norms — the adjudicator for mathematical ties in the
    /// exhaustive sweeps below.
    fn exact_cosine64(query: &QuantizedMatrix, classes: &QuantizedMatrix, l: usize) -> f64 {
        let dot = query.row_dot_widening(0, classes, l) as f64;
        let norm = |m: &QuantizedMatrix, r: usize| {
            let mut inv = Vec::new();
            m.code_inv_norms_into(&mut inv);
            if inv[r] == 0.0 {
                0.0
            } else {
                1.0 / f64::from(inv[r])
            }
        };
        let nq = norm(query, 0);
        let nl = norm(classes, l);
        if nq == 0.0 || nl == 0.0 {
            0.0
        } else {
            dot / (nq * nl)
        }
    }

    /// Asserts that the packed integer kernels and the dequantize-then-f32
    /// path agree on argmax and the top-2 classes for one query, allowing a
    /// divergence only where the mathematical scores actually tie.
    fn assert_packed_matches_f32(query: &QuantizedMatrix, classes: &QuantizedMatrix) {
        let mut class_inv_norms = Vec::new();
        classes.code_inv_norms_into(&mut class_inv_norms);
        let packed = packed_similarity_to_all(query, classes, &class_inv_norms).unwrap();
        let deq_query = query.dequantize();
        let f32_path = exact_cosine_to_all(deq_query.row(0), &classes.dequantize()).unwrap();
        let packed_top = TopK::from_scores(&packed);
        let f32_top = TopK::from_scores(&f32_path);
        for (which, a, b) in [
            ("argmax", packed_top.first.class, f32_top.first.class),
            ("runner-up", packed_top.second.class, f32_top.second.class),
        ] {
            if a != b {
                // Divergence is only legal on an exact mathematical tie
                // (e.g. two class rows that are scalar multiples), where
                // f32 rounding may order the equal scores either way.
                let sa = exact_cosine64(query, classes, a);
                let sb = exact_cosine64(query, classes, b);
                assert!(
                    (sa - sb).abs() <= 1e-9 * sa.abs().max(1.0),
                    "{}: packed chose {a} ({sa}), f32 chose {b} ({sb})",
                    which
                );
            }
        }
    }

    #[test]
    fn packed_one_bit_similarity_exhaustive() {
        // Every 6-bit sign pattern as a class row, queried by every 6-bit
        // sign pattern: 64 × 64 popcount-kernel rankings checked against
        // the dequantize-then-f32 path.
        let rows: Vec<Vec<f32>> = (0u32..64)
            .map(|p| {
                (0..6)
                    .map(|b| if (p >> b) & 1 == 1 { 0.5 } else { -0.5 })
                    .collect()
            })
            .collect();
        let classes = QuantizedMatrix::quantize(&Matrix::from_rows(&rows).unwrap(), BitWidth::B1);
        for pattern in &rows {
            let query = QuantizedMatrix::quantize(
                &Matrix::from_rows(std::slice::from_ref(pattern)).unwrap(),
                BitWidth::B1,
            );
            assert_packed_matches_f32(&query, &classes);
        }
    }

    #[test]
    fn packed_integer_similarity_exhaustive_grid() {
        // Exhaustive 2-D value grid per width (every pair of grid levels is
        // a class row, every pair is also a query): the widening i8/i4/i2
        // dots must rank exactly like dequantize-then-f32 wherever the
        // mathematical ordering is determined.
        for (width, levels) in [
            (BitWidth::B2, vec![-1.0f32, 0.0, 1.0]),
            (BitWidth::B4, vec![-7.0, -4.0, -1.0, 0.0, 2.0, 5.0, 7.0]),
            (
                BitWidth::B8,
                vec![-127.0, -80.0, -33.0, 0.0, 15.0, 64.0, 127.0],
            ),
        ] {
            let mut rows = Vec::new();
            for &a in &levels {
                for &b in &levels {
                    if a != 0.0 || b != 0.0 {
                        rows.push(vec![a, b]);
                    }
                }
            }
            let classes = QuantizedMatrix::quantize(&Matrix::from_rows(&rows).unwrap(), width);
            for row in &rows {
                let query = QuantizedMatrix::quantize(
                    &Matrix::from_rows(std::slice::from_ref(row)).unwrap(),
                    width,
                );
                assert_packed_matches_f32(&query, &classes);
            }
            let _ = width; // silence per-iteration shadowing lints
        }
    }

    #[test]
    fn packed_predict_batch_matches_single_query_argmax() {
        // The batch predictor must pick the same class as the single-query
        // packed scorer's argmax; its skipped per-query norm is a positive
        // constant, so any divergence is only legal on an exact
        // mathematical tie.
        let classes_f32 = lcg_matrix(5, 37, 0xD1);
        let queries_f32 = lcg_matrix(11, 37, 0xD2);
        for w in BitWidth::all() {
            let classes = QuantizedMatrix::quantize(&classes_f32, w);
            let queries = QuantizedMatrix::quantize(&queries_f32, w);
            let mut inv_norms = Vec::new();
            classes.code_inv_norms_into(&mut inv_norms);
            let preds = packed_predict_batch(&queries, &classes, &inv_norms).unwrap();
            assert_eq!(preds.len(), queries_f32.rows());
            for (s, &pred) in preds.iter().enumerate() {
                let single = QuantizedMatrix::quantize(
                    &Matrix::from_rows(std::slice::from_ref(&queries_f32.row(s).to_vec())).unwrap(),
                    w,
                );
                let scores = packed_similarity_to_all(&single, &classes, &inv_norms).unwrap();
                let want = TopK::from_scores(&scores).first.class;
                if pred != want {
                    let sa = exact_cosine64(&single, &classes, pred);
                    let sb = exact_cosine64(&single, &classes, want);
                    assert!(
                        (sa - sb).abs() <= 1e-9 * sa.abs().max(1.0),
                        "{w}, query {s}: batch chose {pred} ({sa}), single chose {want} ({sb})"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_predict_batch_checks_shapes_and_breaks_ties_low() {
        let classes = QuantizedMatrix::quantize(&lcg_matrix(3, 16, 0xE1), BitWidth::B4);
        let mut inv_norms = Vec::new();
        classes.code_inv_norms_into(&mut inv_norms);
        let narrow = QuantizedMatrix::quantize(&lcg_matrix(2, 8, 0xE2), BitWidth::B4);
        assert!(packed_predict_batch(&narrow, &classes, &inv_norms).is_err());
        let wrong_width = QuantizedMatrix::quantize(&lcg_matrix(2, 16, 0xE3), BitWidth::B8);
        assert!(packed_predict_batch(&wrong_width, &classes, &inv_norms).is_err());
        let queries = QuantizedMatrix::quantize(&lcg_matrix(2, 16, 0xE4), BitWidth::B4);
        assert!(packed_predict_batch(&queries, &classes, &inv_norms[..2]).is_err());
        // Identical class rows score identically — the lower index wins.
        let same = Matrix::from_rows(&[vec![1.0f32; 16], vec![1.0; 16]]).unwrap();
        let dup = QuantizedMatrix::quantize(&same, BitWidth::B4);
        let mut dup_inv = Vec::new();
        dup.code_inv_norms_into(&mut dup_inv);
        let preds = packed_predict_batch(&queries, &dup, &dup_inv).unwrap();
        assert!(preds.iter().all(|&p| p == 0));
    }

    #[test]
    fn packed_cosine_matrix_rows_match_the_single_query_kernel_bitwise() {
        // The anomaly/top-k serving contract: batching must not change a
        // score bit, so every row of the batched cosine matrix equals the
        // single-query packed scorer's output exactly — at every width.
        let classes_f32 = lcg_matrix(5, 37, 0xF1);
        let queries_f32 = lcg_matrix(9, 37, 0xF2);
        for w in BitWidth::all() {
            let classes = QuantizedMatrix::quantize(&classes_f32, w);
            let queries = QuantizedMatrix::quantize(&queries_f32, w);
            let mut inv_norms = Vec::new();
            classes.code_inv_norms_into(&mut inv_norms);
            let scores = packed_cosine_matrix(&queries, &classes, &inv_norms).unwrap();
            assert_eq!(scores.shape(), (9, 5));
            for s in 0..queries_f32.rows() {
                let single = QuantizedMatrix::quantize(
                    &Matrix::from_rows(std::slice::from_ref(&queries_f32.row(s).to_vec())).unwrap(),
                    w,
                );
                let expected = packed_similarity_to_all(&single, &classes, &inv_norms).unwrap();
                assert_eq!(scores.row(s), expected.as_slice(), "{w}, query {s}");
            }
        }
    }

    #[test]
    fn packed_cosine_matrix_scores_are_true_cosines() {
        // Unlike the argmax-only batch predictor, the cosine matrix must be
        // comparable ACROSS queries: every value agrees with the f64
        // integer ground truth and lives in [-1, 1].
        let classes_f32 = lcg_matrix(4, 20, 0xF3);
        let queries_f32 = lcg_matrix(6, 20, 0xF4);
        for w in BitWidth::all() {
            let classes = QuantizedMatrix::quantize(&classes_f32, w);
            let queries = QuantizedMatrix::quantize(&queries_f32, w);
            let mut inv_norms = Vec::new();
            classes.code_inv_norms_into(&mut inv_norms);
            let scores = packed_cosine_matrix(&queries, &classes, &inv_norms).unwrap();
            for s in 0..queries_f32.rows() {
                let single = QuantizedMatrix::quantize(
                    &Matrix::from_rows(std::slice::from_ref(&queries_f32.row(s).to_vec())).unwrap(),
                    w,
                );
                for l in 0..classes_f32.rows() {
                    let truth = exact_cosine64(&single, &classes, l) as f32;
                    let got = scores.row(s)[l];
                    assert!(
                        (got - truth).abs() < 1e-4,
                        "{w}, query {s}, class {l}: {got} vs {truth}"
                    );
                    assert!((-1.0001..=1.0001).contains(&got), "{w}: cosine {got}");
                }
            }
        }
    }

    #[test]
    fn packed_cosine_matrix_checks_shapes_and_zero_rows() {
        let classes = QuantizedMatrix::quantize(&lcg_matrix(3, 16, 0xF5), BitWidth::B4);
        let mut inv_norms = Vec::new();
        classes.code_inv_norms_into(&mut inv_norms);
        let narrow = QuantizedMatrix::quantize(&lcg_matrix(2, 8, 0xF6), BitWidth::B4);
        assert!(packed_cosine_matrix(&narrow, &classes, &inv_norms).is_err());
        let wrong_width = QuantizedMatrix::quantize(&lcg_matrix(2, 16, 0xF7), BitWidth::B8);
        assert!(packed_cosine_matrix(&wrong_width, &classes, &inv_norms).is_err());
        let queries = QuantizedMatrix::quantize(&lcg_matrix(2, 16, 0xF8), BitWidth::B4);
        assert!(packed_cosine_matrix(&queries, &classes, &inv_norms[..2]).is_err());
        // An all-zero query row has no direction: it scores 0 everywhere.
        let zero = QuantizedMatrix::quantize(&Matrix::zeros(1, 16), BitWidth::B4);
        let scores = packed_cosine_matrix(&zero, &classes, &inv_norms).unwrap();
        assert!(scores.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_similarity_matches_f32_on_dense_random_rows() {
        // Dense random rows at every width and a misaligned column count.
        // Quantization collapses continuous values onto few levels (1-bit
        // keeps only signs), so genuine score ties still occur — the
        // adjudicator demands exact agreement except on such mathematical
        // ties.
        let classes_f32 = lcg_matrix(6, 37, 0xB1);
        let queries_f32 = lcg_matrix(10, 37, 0xB2);
        for w in BitWidth::all() {
            let classes = QuantizedMatrix::quantize(&classes_f32, w);
            for s in 0..queries_f32.rows() {
                let query = QuantizedMatrix::quantize(
                    &Matrix::from_rows(std::slice::from_ref(&queries_f32.row(s).to_vec())).unwrap(),
                    w,
                );
                assert_packed_matches_f32(&query, &classes);
            }
        }
    }
}
