//! The dense, contiguous, row-major `f32` tensor.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use std::fmt;

/// A dense n-dimensional array of `f32` values in row-major order.
///
/// `Tensor` owns its storage and is always contiguous; transposes and
/// reshapes either copy or reinterpret the buffer. This keeps the substrate
/// simple and predictable for the single-threaded CPU training workloads the
/// HERO reproduction runs.
///
/// # Examples
///
/// ```
/// use hero_tensor::Tensor;
///
/// # fn main() -> Result<(), hero_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// assert_eq!(t.data()[2], 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    /// Thread the storage was obtained on. Recycling is keyed to it: a
    /// tensor dropped on any other thread releases its buffer to the
    /// allocator instead of donating it to that thread's pool, so scratch
    /// pools never exchange buffers across worker threads.
    home: std::thread::ThreadId,
}

/// Clones lease their storage from the *current* thread's scratch pool (and
/// are tagged with it), so a clone of a worker-produced tensor recycles
/// locally.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::assemble(self.shape.clone(), crate::pool::lease_copy(&self.data))
    }
}

/// Equality is shape + contents; the home thread is bookkeeping, not value.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

/// Dropping a tensor donates its storage to the thread-local scratch pool,
/// so temporaries produced on the training hot path (op outputs, graph
/// values, gradients) recycle instead of round-tripping the allocator. The
/// pool's free list is capped, so this cannot grow memory without bound.
/// Storage is only donated on the tensor's home thread (see
/// [`ScratchPool`](crate::pool::ScratchPool)); elsewhere it is freed.
impl Drop for Tensor {
    fn drop(&mut self) {
        crate::pool::recycle_from(self.home, std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Builds a tensor around `data`, tagging it with the current thread as
    /// the storage's recycling home. All construction funnels through here.
    #[inline]
    pub(crate) fn assemble(shape: Shape, data: Vec<f32>) -> Self {
        Tensor {
            shape,
            data,
            home: crate::pool::current_thread(),
        }
    }
    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` differs from the
    /// shape's volume.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataLength {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor::assemble(shape, data))
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::assemble(Shape::scalar(), crate::pool::lease_copy(&[value]))
    }

    /// Creates a tensor filled with zeros (storage leased from the scratch
    /// pool, so hot-path zero tensors recycle instead of reallocating).
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = crate::pool::lease(n);
        Tensor::assemble(shape, data)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = crate::pool::lease_raw(shape.numel());
        data.resize(shape.numel(), value);
        Tensor::assemble(shape, data)
    }

    /// Creates a tensor whose element at multi-index `idx` is `f(idx)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        for flat in 0..n {
            let idx = shape.unravel(flat);
            data.push(f(&idx));
        }
        Tensor::assemble(shape, data)
    }

    /// Thread that owns this tensor's storage for recycling purposes.
    pub(crate) fn home(&self) -> std::thread::ThreadId {
        self.home
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat storage (bypassing the
    /// recycling `Drop`).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Copies `src`'s contents into this tensor without reallocating — the
    /// in-place building block of the zero-allocation training hot path.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless the shapes match exactly.
    pub fn copy_from(&mut self, src: &Tensor) -> Result<()> {
        if self.shape != src.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: src.dims().to_vec(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor holds more
    /// than one element.
    pub fn item(&self) -> Result<f32> {
        if self.numel() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "item() requires exactly one element, tensor has {}",
                self.numel()
            )));
        }
        Ok(self.data[0])
    }

    /// Returns a tensor with the same data and a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::DataLength {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor::assemble(shape, crate::pool::lease_copy(&self.data)))
    }

    /// Flattens to a 1-D tensor without copying semantics changes.
    pub fn flatten(&self) -> Tensor {
        Tensor::assemble(
            Shape::from([self.numel()]),
            crate::pool::lease_copy(&self.data),
        )
    }

    /// Transposes a 2-D tensor (copies).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the rank is 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = crate::pool::lease(r * c);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, [c, r])
    }

    /// Returns the contiguous sub-tensor `[start, start+len)` along axis 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the range exceeds the first dimension.
    pub fn narrow(&self, start: usize, len: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let d0 = self.dims()[0];
        if start + len > d0 {
            return Err(TensorError::IndexOutOfRange {
                index: start + len,
                size: d0,
            });
        }
        let row = self.numel() / d0.max(1);
        let mut dims = self.dims().to_vec();
        dims[0] = len;
        Tensor::from_vec(
            crate::pool::lease_copy(&self.data[start * row..(start + len) * row]),
            dims,
        )
    }

    /// True when every element is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    /// The default tensor is the scalar `0.0`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data[..8], self.numel())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `[0, 1, 2, ...]` in row-major order over `dims`; the unit tests of
    /// every op module build their inputs from it.
    pub(crate) fn ramp(dims: &[usize]) -> Tensor {
        let n = dims.iter().product::<usize>();
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], [2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], [2, 3]),
            Err(TensorError::DataLength {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros([3, 3]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones([2]).data().iter().all(|&v| v == 1.0));
        assert_eq!(Tensor::full([2], 7.5).data(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(2.0).item().unwrap(), 2.0);
    }

    #[test]
    fn from_fn_uses_multi_index() {
        let t = Tensor::from_fn([2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.data()[5], 12.0);
        assert_eq!(t.data()[0], 0.0);
    }

    #[test]
    fn item_rejects_multielement() {
        assert!(Tensor::zeros([2]).item().is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = ramp(&[2, 3]);
        assert_eq!(t.data()[3], 3.0);
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let t = ramp(&[2, 3]);
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data()[2 * 2 + 1], t.data()[3 + 2]);
        assert_eq!(tt.transpose().unwrap(), t);
        assert!(ramp(&[3]).transpose().is_err());
    }

    #[test]
    fn narrow_takes_row_ranges() {
        let t = ramp(&[3, 2]);
        let mid = t.narrow(1, 2).unwrap();
        assert_eq!(mid.dims(), &[2, 2]);
        assert_eq!(mid.data(), &[2.0, 3.0, 4.0, 5.0]);
        assert!(t.narrow(2, 2).is_err());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros([2]);
        assert!(t.is_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tensor::zeros([2, 2]).to_string().is_empty());
        assert!(Tensor::zeros([100]).to_string().contains("100 elements"));
    }
}
