//! Small dense linear algebra: Gaussian elimination and least squares.
//!
//! The paper solves a 3×3 system (Eq. 5) with "a linear solver" and notes
//! that "regression techniques may be used" with more data; both live here.

/// Errors from the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (to working precision).
    Singular,
    /// Dimensions do not line up.
    DimensionMismatch,
    /// Fewer rows than unknowns.
    Underdetermined,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "singular matrix"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinalgError::Underdetermined => write!(f, "underdetermined system"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solve `A x = b` for square `A` (row-major, `n × n`) by Gaussian
/// elimination with partial pivoting. `A` and `b` are consumed as copies.
pub(crate) fn solve(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.len();
    if b.len() != n || a.iter().any(|row| row.len() != n) {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut m: Vec<Vec<f64>> = a.to_vec();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                m[i][col]
                    .abs()
                    .partial_cmp(&m[j][col].abs())
                    .expect("finite entries")
            })
            .expect("non-empty range");
        if m[pivot][col].abs() < 1e-12 {
            return Err(LinalgError::Singular);
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for row in col + 1..n {
            let factor = m[row][col] / m[col][col];
            if factor == 0.0 {
                continue;
            }
            // Two rows of `m` are read/written together; split the borrow.
            let (head, tail) = m.split_at_mut(row);
            let pivot_row = &head[col];
            for (k, cell) in tail[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row[k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in row + 1..n {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Ok(x)
}

/// Least squares `min ‖A x − b‖₂` via the normal equations `AᵀA x = Aᵀb`.
/// `A` is `m × n` with `m ≥ n`.
pub(crate) fn least_squares(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let m = a.len();
    if m == 0 || b.len() != m {
        return Err(LinalgError::DimensionMismatch);
    }
    let n = a[0].len();
    if a.iter().any(|row| row.len() != n) {
        return Err(LinalgError::DimensionMismatch);
    }
    if m < n {
        return Err(LinalgError::Underdetermined);
    }
    let mut ata = vec![vec![0.0; n]; n];
    let mut atb = vec![0.0; n];
    for row in 0..m {
        for i in 0..n {
            atb[i] += a[row][i] * b[row];
            for j in 0..n {
                ata[i][j] += a[row][i] * a[row][j];
            }
        }
    }
    solve(&ata, &atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_paper_eq5() {
        // t_sim + 0.1α + 60β = 676
        // t_sim + 0.6α + 540β = 1261
        // t_sim + 80α + 180β = 1322
        let a = vec![
            vec![1.0, 0.1, 60.0],
            vec![1.0, 0.6, 540.0],
            vec![1.0, 80.0, 180.0],
        ];
        let x = solve(&a, &[676.0, 1261.0, 1322.0]).unwrap();
        // The paper's stated solution (with α/β as its symbol table defines
        // them): t_sim ≈ 603, α ≈ 6.3 s/GB, β ≈ 1.2 s/image.
        assert!((x[0] - 603.0).abs() < 2.0, "t_sim = {}", x[0]);
        assert!((x[1] - 6.3).abs() < 0.15, "alpha = {}", x[1]);
        assert!((x[2] - 1.2).abs() < 0.05, "beta = {}", x[2]);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(&a, &[2.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = vec![vec![1.0, 2.0]];
        assert_eq!(solve(&a, &[1.0]), Err(LinalgError::DimensionMismatch));
    }

    #[test]
    fn least_squares_recovers_exact_fit() {
        // y = 2 + 3x sampled exactly.
        let a: Vec<Vec<f64>> = (0..5).map(|i| vec![1.0, i as f64]).collect();
        let b: Vec<f64> = (0..5).map(|i| 2.0 + 3.0 * i as f64).collect();
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_averages_noise() {
        // y = 10 with symmetric noise: fit must be ~10.
        let a: Vec<Vec<f64>> = (0..6).map(|_| vec![1.0]).collect();
        let b = vec![9.0, 11.0, 9.5, 10.5, 9.8, 10.2];
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let a = vec![vec![1.0, 2.0]];
        assert_eq!(least_squares(&a, &[1.0]), Err(LinalgError::Underdetermined));
    }

    #[test]
    fn solve_3x3_matches_substitution() {
        let a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let x = solve(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }
}
