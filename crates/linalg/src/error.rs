//! Error type shared by all decompositions and solvers in this crate.

use std::fmt;

/// Errors produced by `hsi-linalg` operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinAlgError {
    /// Two operands had incompatible shapes. Carries `(expected, found)`
    /// descriptions of the offending dimensions.
    ShapeMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape actually supplied.
        found: String,
    },
    /// The matrix is singular (or numerically so) to working precision.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The operation requires a non-empty input.
    Empty,
    /// The input holds a NaN or an infinity.
    NonFinite,
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinAlgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinAlgError::Singular => write!(f, "matrix is singular to working precision"),
            LinAlgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinAlgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinAlgError::Empty => write!(f, "operation requires a non-empty input"),
            LinAlgError::NonFinite => write!(f, "input holds a non-finite value"),
        }
    }
}

impl std::error::Error for LinAlgError {}

/// Builds a [`LinAlgError::ShapeMismatch`] from two formatted shapes.
pub(crate) fn shape_mismatch(expected: impl Into<String>, found: impl Into<String>) -> LinAlgError {
    LinAlgError::ShapeMismatch {
        expected: expected.into(),
        found: found.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = shape_mismatch("2x2", "3x3");
        assert_eq!(e.to_string(), "shape mismatch: expected 2x2, found 3x3");
        assert!(LinAlgError::Singular.to_string().contains("singular"));
        assert!(LinAlgError::NotPositiveDefinite
            .to_string()
            .contains("positive definite"));
        assert!(LinAlgError::NoConvergence { iterations: 7 }
            .to_string()
            .contains('7'));
        assert!(LinAlgError::Empty.to_string().contains("non-empty"));
        assert!(LinAlgError::NonFinite.to_string().contains("non-finite"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(LinAlgError::Singular);
        assert!(!e.to_string().is_empty());
    }
}
