//! Tensor shapes: dimension lists, volumes and row-major strides.

use crate::error::{Result, TensorError};
use std::fmt;

/// The shape of a tensor: an ordered list of dimension sizes.
///
/// Shapes are stored densely and interpreted in row-major (C) order; the last
/// axis is contiguous in memory. A rank-0 shape (no dims) denotes a scalar
/// with volume 1.
///
/// # Examples
///
/// ```
/// use hero_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a list of dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a flat row-major offset back to a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= numel()` for non-empty shapes (debug assertion).
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        debug_assert!(offset < self.numel().max(1));
        let mut index = vec![0; self.rank()];
        for (i, &s) in self.strides().iter().enumerate() {
            index[i] = offset / s;
            offset %= s;
        }
        index
    }

    /// The shape that results from broadcasting `self` with `other` under
    /// NumPy semantics (align trailing axes; a dim of 1 stretches).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if any aligned pair of
    /// dimensions differs with neither equal to 1.
    pub fn broadcast_with(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            *dim = match (a, b) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => {
                    return Err(TensorError::BroadcastMismatch {
                        left: self.0.clone(),
                        right: other.0.clone(),
                    })
                }
            };
        }
        Ok(Shape(dims))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn offset_round_trips_with_unravel() {
        let s = Shape::from([3, 4, 5]);
        for flat in 0..s.numel() {
            let idx = s.unravel(flat);
            let offset: usize = idx.iter().zip(s.strides()).map(|(i, st)| i * st).sum();
            assert_eq!(offset, flat);
        }
    }

    #[test]
    fn broadcast_follows_numpy_rules() {
        let a = Shape::from([3, 1, 5]);
        let b = Shape::from([4, 5]);
        assert_eq!(a.broadcast_with(&b).unwrap(), Shape::from([3, 4, 5]));
        let scalar = Shape::scalar();
        assert_eq!(a.broadcast_with(&scalar).unwrap(), a);
        let bad = Shape::from([2, 1, 5]);
        assert!(a.broadcast_with(&bad).is_err()); // leading 3-vs-2 clash
        let stretched = Shape::from([3, 2, 5]);
        assert_eq!(a.broadcast_with(&stretched).unwrap(), stretched); // 1 stretches to 2
    }

    #[test]
    fn display_renders_as_tuple() {
        assert_eq!(Shape::from([2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }
}
