//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Result alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor construction and tensor operations.
///
/// All shape-sensitive operations validate their arguments and return a
/// variant of this enum rather than panicking, so callers can surface
/// configuration mistakes (wrong layer sizes, mismatched batches) cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// The number of data elements does not match the product of dimensions.
    DataLength {
        /// Expected number of elements (product of the shape's dims).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes that had to match (element-wise op, reshape target) differ.
    ShapeMismatch {
        /// Left-hand / expected shape.
        left: Vec<usize>,
        /// Right-hand / actual shape.
        right: Vec<usize>,
    },
    /// Two shapes cannot be broadcast together.
    BroadcastMismatch {
        /// Left-hand shape.
        left: Vec<usize>,
        /// Right-hand shape.
        right: Vec<usize>,
    },
    /// An index is out of range along some axis.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Size of the dimension being indexed.
        size: usize,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Inner dimensions of a matrix product disagree.
    MatmulDims {
        /// Columns of the left operand.
        left_cols: usize,
        /// Rows of the right operand.
        right_rows: usize,
    },
    /// A convolution / pooling geometry is invalid (e.g. kernel larger than
    /// the padded input, zero stride).
    InvalidGeometry(String),
    /// A generic invalid-argument error with context.
    InvalidArgument(String),
    /// A training step produced a non-finite loss; training stopped
    /// instead of carrying NaN/Inf into the weights.
    Diverged {
        /// Epoch of the offending step.
        epoch: usize,
        /// Global step index of the offending step.
        step: usize,
        /// The offending value (NaN or ±Inf).
        loss: f32,
    },
    /// A stored model was trained under another recipe than the one
    /// requested; it is neither reused nor retrained over.
    RecipeMismatch {
        /// The stored model's file.
        path: String,
        /// The first differing recipe field (an artifact meta key).
        field: String,
        /// Its stored value.
        cached: String,
        /// Its requested value.
        requested: String,
    },
    /// A run was given a checkpoint file that its cadence would never
    /// write: checkpoints come after every `every`-th epoch but the last,
    /// and none falls in the epochs the run executes.
    NoCheckpoint {
        /// The checkpoint file.
        path: String,
        /// First epoch the run executes (nonzero on resume).
        first_epoch: usize,
        /// Epoch count of the run.
        epochs: usize,
        /// The checkpoint cadence in epochs.
        every: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::DataLength { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::BroadcastMismatch { left, right } => {
                write!(
                    f,
                    "shapes {left:?} and {right:?} cannot be broadcast together"
                )
            }
            TensorError::IndexOutOfRange { index, size } => {
                write!(f, "index {index} out of range for dimension of size {size}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, found rank {actual}")
            }
            TensorError::MatmulDims {
                left_cols,
                right_rows,
            } => {
                write!(
                    f,
                    "matmul inner dimensions disagree: {left_cols} vs {right_rows}"
                )
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TensorError::Diverged { epoch, step, loss } => {
                write!(
                    f,
                    "training diverged: loss {loss} at epoch {epoch}, step {step}"
                )
            }
            TensorError::RecipeMismatch {
                path,
                field,
                cached,
                requested,
            } => {
                write!(
                    f,
                    "{path} was trained under another recipe: \
                     {field}: cached {cached}, requested {requested}"
                )
            }
            TensorError::NoCheckpoint {
                path,
                first_epoch,
                epochs,
                every,
            } => {
                write!(
                    f,
                    "no checkpoint would be written to {path}: training epochs \
                     {first_epoch}..{epochs} with a checkpoint every {every} epochs puts \
                     none before the last epoch"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TensorError::DataLength {
            expected: 6,
            actual: 5,
        };
        assert_eq!(e.to_string(), "data length 5 does not match shape volume 6");
        let e = TensorError::MatmulDims {
            left_cols: 3,
            right_rows: 4,
        };
        assert!(e.to_string().contains("3 vs 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
