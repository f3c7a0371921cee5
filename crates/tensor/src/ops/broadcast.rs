//! NumPy-style broadcasting for binary operations.

use crate::error::Result;
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Combines two tensors element-wise under NumPy broadcasting rules.
    ///
    /// Trailing axes are aligned; an axis of size 1 stretches to match its
    /// counterpart. The output has the broadcast shape.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::BroadcastMismatch`] if the shapes are
    /// incompatible.
    ///
    /// # Examples
    ///
    /// ```
    /// use hero_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), hero_tensor::TensorError> {
    /// let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let row = Tensor::from_vec(vec![10.0, 20.0], [2])?;
    /// let out = m.broadcast_op(&row, |a, b| a + b)?;
    /// assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn broadcast_op(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            return self.zip(other, f);
        }
        let out_shape = self.shape().broadcast_with(other.shape())?;
        let mut out = pool::lease_raw(out_shape.numel());
        if out_shape.numel() > 0 {
            let walk = RunWalk::new(out_shape.dims(), self.dims(), other.dims());
            let (n, a_step, b_step) = walk.run();
            let (a, b) = (self.data(), other.data());
            // One monomorphized slice loop per run form; each visits its run's
            // elements in order, so `out` fills in row-major order.
            match (a_step != 0, b_step != 0) {
                (true, true) => walk.for_each(|i, j| {
                    out.extend(a[i..i + n].iter().zip(&b[j..j + n]).map(|(&x, &y)| f(x, y)));
                }),
                (true, false) => walk.for_each(|i, j| {
                    let y = b[j];
                    out.extend(a[i..i + n].iter().map(|&x| f(x, y)));
                }),
                (false, true) => walk.for_each(|i, j| {
                    let x = a[i];
                    out.extend(b[j..j + n].iter().map(|&y| f(x, y)));
                }),
                (false, false) => walk.for_each(|i, j| {
                    let (x, y) = (a[i], b[j]);
                    out.extend((0..n).map(|_| f(x, y)));
                }),
            }
        }
        Tensor::from_vec(out, out_shape)
    }

    /// Broadcast addition.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn badd(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a + b)
    }

    /// Broadcast subtraction.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn bsub(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a - b)
    }

    /// Broadcast multiplication.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn bmul(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a * b)
    }

    /// Reduces (sums) a broadcast-shaped gradient back down to `target`,
    /// the adjoint of broadcasting. Axes that were stretched from size 1
    /// are summed; leading axes that were added are summed away.
    ///
    /// # Errors
    ///
    /// Returns an error if `self`'s shape is not a valid broadcast of
    /// `target`.
    pub fn reduce_to_shape(&self, target: &Shape) -> Result<Tensor> {
        if self.shape() == target {
            return Ok(self.clone());
        }
        // Verify compatibility (target must broadcast to self's shape).
        let check = target.broadcast_with(self.shape())?;
        if &check != self.shape() {
            return Err(crate::TensorError::BroadcastMismatch {
                left: self.dims().to_vec(),
                right: target.dims().to_vec(),
            });
        }
        let mut out = pool::lease(target.numel());
        if self.numel() > 0 {
            let walk = RunWalk::new(self.dims(), self.dims(), target.dims());
            let (n, _, target_step) = walk.run();
            let src = self.data();
            // Runs arrive in row-major order and each is summed front to
            // back, so every output accumulates its inputs in ascending flat
            // order: the same sums, bit for bit, as an element-by-element walk.
            if target_step != 0 {
                walk.for_each(|i, j| {
                    for (o, &x) in out[j..j + n].iter_mut().zip(&src[i..i + n]) {
                        *o += x;
                    }
                });
            } else {
                walk.for_each(|i, j| out[j] = src[i..i + n].iter().fold(out[j], |acc, &x| acc + x));
            }
        }
        Tensor::from_vec(out, target.clone())
    }
}

/// A row-major walk of a shape with two operands broadcast to it,
/// coalesced into contiguous runs.
///
/// Size-1 axes are dropped and adjacent axes merge wherever both operands'
/// strides agree, so the walk is a few outer axes plus one innermost run.
/// Along the run each operand either advances by one element (stride 1) or
/// stays on one element (stride 0): the innermost kept axis has only size-1
/// axes after it, so an operand not stretched there is contiguous.
struct RunWalk {
    /// Coalesced axes, innermost first, as `(size, a_stride, b_stride)`;
    /// axis 0 is the run. Never empty.
    axes: Vec<(usize, usize, usize)>,
}

impl RunWalk {
    /// Walks `dims` with operands of shapes `a` and `b` (trailing axes
    /// aligned, each broadcastable to `dims`).
    fn new(dims: &[usize], a: &[usize], b: &[usize]) -> Self {
        let mut axes: Vec<(usize, usize, usize)> = Vec::with_capacity(dims.len().max(1));
        // Row-major strides of `a` and `b` at the current axis.
        let (mut ca, mut cb) = (1, 1);
        for (i, &n) in dims.iter().enumerate().rev() {
            let from_end = dims.len() - i;
            let da = a.len().checked_sub(from_end).map_or(1, |j| a[j]);
            let db = b.len().checked_sub(from_end).map_or(1, |j| b[j]);
            let (sa, sb) = (if da == 1 { 0 } else { ca }, if db == 1 { 0 } else { cb });
            (ca, cb) = (ca * da, cb * db);
            if n == 1 {
                continue;
            }
            // A merged axis keeps the strides of its inner part.
            match axes.last_mut() {
                Some((m, ia, ib)) if sa == *ia * *m && sb == *ib * *m => *m *= n,
                _ => axes.push((n, sa, sb)),
            }
        }
        if axes.is_empty() {
            axes.push((1, 0, 0));
        }
        debug_assert!(
            axes[0].1 <= 1 && axes[0].2 <= 1,
            "innermost run is not contiguous"
        );
        RunWalk { axes }
    }

    /// The run: `(length, a_stride, b_stride)`, strides 0 or 1.
    fn run(&self) -> (usize, usize, usize) {
        self.axes[0]
    }

    /// Calls `visit(a_offset, b_offset)` at the start of every run, in
    /// row-major order.
    fn for_each(&self, mut visit: impl FnMut(usize, usize)) {
        self.walk(self.axes.len() - 1, 0, 0, &mut visit);
    }

    /// Plain nested loops over the outer axes `axis..=1`.
    fn walk(&self, axis: usize, a: usize, b: usize, visit: &mut impl FnMut(usize, usize)) {
        if axis == 0 {
            return visit(a, b);
        }
        let (n, sa, sb) = self.axes[axis];
        for i in 0..n {
            // The innermost outer axis visits directly, keeping per-run
            // overhead to one call for short runs.
            if axis == 1 {
                visit(a + i * sa, b + i * sb);
            } else {
                self.walk(axis - 1, a + i * sa, b + i * sb, visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::tests::ramp;

    #[test]
    fn broadcast_row_over_matrix() {
        let m = ramp(&[2, 3]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3]).unwrap();
        let out = m.badd(&row).unwrap();
        assert_eq!(out.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcast_column_over_matrix() {
        let m = ramp(&[2, 3]);
        let col = Tensor::from_vec(vec![100.0, 200.0], [2, 1]).unwrap();
        let out = m.badd(&col).unwrap();
        assert_eq!(out.data(), &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let m = ramp(&[2, 2]);
        let s = Tensor::scalar(2.0);
        assert_eq!(m.bmul(&s).unwrap().data(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(m.bsub(&s).unwrap().data(), &[-2.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 2]);
        assert!(a.badd(&b).is_err());
    }

    #[test]
    fn reduce_to_shape_sums_stretched_axes() {
        let g = Tensor::ones([2, 3]);
        let red = g.reduce_to_shape(&Shape::from([3])).unwrap();
        assert_eq!(red.data(), &[2.0, 2.0, 2.0]);
        let red = g.reduce_to_shape(&Shape::from([2, 1])).unwrap();
        assert_eq!(red.data(), &[3.0, 3.0]);
        let red = g.reduce_to_shape(&Shape::scalar()).unwrap();
        assert_eq!(red.item().unwrap(), 6.0);
    }

    #[test]
    fn reduce_to_shape_is_identity_when_equal() {
        let g = ramp(&[2, 2]);
        assert_eq!(g.reduce_to_shape(g.shape()).unwrap(), g);
    }

    #[test]
    fn reduce_to_shape_rejects_incompatible() {
        let g = Tensor::ones([2, 3]);
        assert!(g.reduce_to_shape(&Shape::from([4])).is_err());
    }

    #[test]
    fn broadcast_then_reduce_is_adjoint() {
        // <broadcast(x), y> == <x, reduce(y)> for the sum-broadcast pair.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let y = ramp(&[2, 3]);
        let broadcast_x = Tensor::zeros([2, 3]).badd(&x).unwrap();
        let lhs = broadcast_x.dot(&y).unwrap();
        let rhs = x.dot(&y.reduce_to_shape(x.shape()).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-5);
    }
}
