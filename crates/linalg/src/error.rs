use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        operation: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// An operation required a square matrix but the input was rectangular.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// A matrix or vector with zero rows or columns was supplied.
    Empty,
    /// The matrix is singular (or numerically singular) at the given pivot.
    Singular {
        /// Pivot column at which elimination broke down.
        pivot: usize,
    },
    /// A non-finite (NaN or infinite) entry was encountered.
    NonFiniteEntry {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "dimension mismatch in {operation}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix of shape {}x{} is not square", shape.0, shape.1)
            }
            LinalgError::Empty => write!(f, "empty matrix or vector"),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            LinalgError::NonFiniteEntry { row, col } => {
                write!(f, "non-finite entry at ({row}, {col})")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            operation: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_singular_names_pivot() {
        let err = LinalgError::Singular { pivot: 3 };
        assert!(err.to_string().contains("pivot column 3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn Error> = Box::new(LinalgError::Empty);
        assert_eq!(err.to_string(), "empty matrix or vector");
    }
}
