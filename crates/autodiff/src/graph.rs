//! Define-by-run computation graph with reverse-mode differentiation.

use hero_tensor::{pool, Result, Shape, Tensor, TensorError};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node's index within its graph (stable for the graph's lifetime).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One recorded operation. Parents are stored as graph indices; any context
/// the backward pass needs (argmax indices, saved activations) lives in the
/// variant.
#[derive(Debug)]
pub(crate) enum Op {
    /// Leaf node: an input or parameter.
    Input,
    /// Broadcast addition.
    Add(usize, usize),
    /// Broadcast subtraction.
    Sub(usize, usize),
    /// Broadcast (Hadamard) multiplication.
    Mul(usize, usize),
    /// Multiplication by a constant.
    Scale(usize, f32),
    /// Addition of a constant.
    AddScalar(usize, f32),
    /// Matrix product `(m,k) x (k,n)`.
    Matmul(usize, usize),
    /// Rectified linear unit.
    Relu(usize),
    /// ReLU clipped at 6 (MobileNet's activation).
    Relu6(usize),
    /// Element-wise square.
    Square(usize),
    /// Reshape (metadata only); stores the parent's shape.
    Reshape(usize, Shape),
    /// Sum of all elements to a scalar.
    Sum(usize),
    /// Mean of all elements to a scalar.
    Mean(usize),
    /// 2-D convolution via the direct conv kernels. Nothing beyond the
    /// input and weight nodes is saved: backward runs the dW and dX
    /// kernels from their values.
    Conv2d {
        /// Input node (NCHW).
        x: usize,
        /// Weight node `(out_c, in_c*k*k)`.
        w: usize,
        /// Window geometry.
        geom: hero_tensor::ConvGeometry,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv2d {
        /// Input node (NCHW).
        x: usize,
        /// Weight node `(c, k, k)`.
        w: usize,
        /// Window geometry.
        geom: hero_tensor::ConvGeometry,
    },
    /// Batch normalization over (N, H, W) per channel; saves normalization
    /// context for backward.
    BatchNorm {
        /// Input node (NCHW).
        x: usize,
        /// Per-channel scale node `(c,)`.
        gamma: usize,
        /// Per-channel shift node `(c,)`.
        beta: usize,
        /// Saved normalized activations.
        xhat: Tensor,
        /// Saved per-channel `1/sqrt(var + eps)`.
        inv_std: Vec<f32>,
    },
    /// Non-overlapping max pooling; saves argmax routing.
    MaxPool {
        /// Input node (NCHW).
        x: usize,
        /// Saved flat source index per output element.
        arg: Vec<usize>,
    },
    /// Global average pooling `(n,c,h,w) -> (n,c)`.
    GlobalAvgPool(usize),
    /// Softmax cross-entropy against integer labels, averaged over the batch.
    CrossEntropy {
        /// Logits node `(batch, classes)`.
        logits: usize,
        /// Saved softmax probabilities.
        softmax: Tensor,
        /// Target class per row.
        labels: Vec<usize>,
    },
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// A define-by-run computation graph.
///
/// Operations append nodes in topological order; [`Graph::backward`] then
/// walks the tape in reverse, accumulating adjoints for the nodes it is
/// asked about. The graph is intended to be rebuilt every training step
/// (like eager-mode frameworks).
///
/// # Examples
///
/// ```
/// use hero_autodiff::Graph;
/// use hero_tensor::Tensor;
///
/// # fn main() -> Result<(), hero_tensor::TensorError> {
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_vec(vec![2.0, 3.0], [2])?);
/// let y = g.square(x);           // y = x^2
/// let loss = g.sum(y);           // loss = sum(x^2)
/// let grads = g.backward(loss, &[x])?;
/// assert_eq!(grads.get(x).unwrap().data(), &[4.0, 6.0]); // d/dx = 2x
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

/// Gradients produced by [`Graph::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss with respect to `v`, if `v` lies on a path
    /// from a node of the backward pass's `wrt` to the loss.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Removes and returns the gradient for `v`, avoiding a clone.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.0).and_then(Option::take)
    }

    /// Recycles every remaining gradient buffer into the thread-local
    /// scratch pool. Call after [`Gradients::take`]-ing the gradients you
    /// keep, so intermediate adjoints feed the next step's leases instead
    /// of being freed.
    pub fn recycle(self) {
        for g in self.grads.into_iter().flatten() {
            pool::recycle_tensor(g);
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a leaf tensor (input or parameter) and returns its handle.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// Clears the tape, recycling every node's forward value and the
    /// op-saved context tensors (batch-norm `x̂`, softmax) into the
    /// thread-local scratch pool so the next step's forward pass
    /// re-leases the same buffers.
    ///
    /// Invalidates every [`Var`] previously issued by this graph.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            pool::recycle_tensor(node.value);
            match node.op {
                Op::BatchNorm { xhat, .. } => pool::recycle_tensor(xhat),
                Op::CrossEntropy { softmax, .. } => pool::recycle_tensor(softmax),
                _ => {}
            }
        }
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        #[cfg(feature = "sanitize")]
        self.taint_check(&value, &op);
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// NaN/Inf taint checker (sanitize builds only): every recorded forward
    /// value must be finite. Because the check runs at push time, the first
    /// node to fail *is* the origin of the taint — its parents were all
    /// validated when they were pushed — so the panic message pins the
    /// defect to one op and its provenance chain.
    #[cfg(feature = "sanitize")]
    fn taint_check(&self, value: &Tensor, op: &Op) {
        if value.data().iter().all(|v| v.is_finite()) {
            return;
        }
        hero_obs::counters::NAN_TAINT_TRIPS.incr();
        let bad = value
            .data()
            .iter()
            .position(|v| !v.is_finite())
            .unwrap_or(0);
        let mut chain = Vec::new();
        let mut next = op.parents().first().copied();
        while let Some(i) = next {
            let node = &self.nodes[i];
            chain.push(format!("#{i} {} {:?}", node.op.lower(), node.value.dims()));
            next = node.op.parents().first().copied();
            if chain.len() >= 8 {
                chain.push("…".to_string());
                break;
            }
        }
        panic!(
            "hero-autodiff sanitize: non-finite value {} at flat index {bad} produced by \
             op `{}` (would be tape node #{}); provenance: [{}]",
            value.data()[bad],
            op.lower(),
            self.nodes.len(),
            chain.join(" <- ")
        );
    }

    /// Broadcast element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns a broadcast error if the operand shapes are incompatible.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let value = self.value(a).badd(self.value(b))?;
        Ok(self.push(value, Op::Add(a.0, b.0)))
    }

    /// Broadcast element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns a broadcast error if the operand shapes are incompatible.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        let value = self.value(a).bsub(self.value(b))?;
        Ok(self.push(value, Op::Sub(a.0, b.0)))
    }

    /// Broadcast element-wise product.
    ///
    /// # Errors
    ///
    /// Returns a broadcast error if the operand shapes are incompatible.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        let value = self.value(a).bmul(self.value(b))?;
        Ok(self.push(value, Op::Mul(a.0, b.0)))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).scale(c);
        self.push(value, Op::Scale(a.0, c))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).add_scalar(c);
        self.push(value, Op::AddScalar(a.0, c))
    }

    /// Matrix product of two rank-2 nodes.
    ///
    /// # Errors
    ///
    /// Returns rank/dimension errors from [`Tensor::matmul`].
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let value = self.value(a).matmul(self.value(b))?;
        Ok(self.push(value, Op::Matmul(a.0, b.0)))
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).clamp_min(0.0);
        self.push(value, Op::Relu(a.0))
    }

    /// ReLU clipped at 6: `min(max(x, 0), 6)`.
    pub fn relu6(&mut self, a: Var) -> Var {
        let value = self.value(a).clamp(0.0, 6.0);
        self.push(value, Op::Relu6(a.0))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let value = self.value(a).square();
        self.push(value, Op::Square(a.0))
    }

    /// Reshapes to a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the volumes differ.
    pub fn reshape(&mut self, a: Var, shape: impl Into<Shape>) -> Result<Var> {
        let old_shape = self.value(a).shape().clone();
        let value = self.value(a).reshape(shape)?;
        Ok(self.push(value, Op::Reshape(a.0, old_shape)))
    }

    /// Sums all elements to a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        self.push(value, Op::Sum(a.0))
    }

    /// Averages all elements to a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).mean());
        self.push(value, Op::Mean(a.0))
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`,
    /// computing adjoints only where a caller can read them: for the
    /// nodes on a path from a node of `wrt` to `loss`.
    ///
    /// A node off every such path gets no gradient ([`Gradients::get`]
    /// returns `None`), and no backward rule computes a contribution to it:
    /// passing a network's parameters skips the input batch's gradient,
    /// the first conv's dX. The adjoints that are computed are bitwise the
    /// same whatever else `wrt` holds, since each receives the same
    /// contributions in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `loss` is not a scalar
    /// (one-element) node.
    pub fn backward(&mut self, loss: Var, wrt: &[Var]) -> Result<Gradients> {
        if self.nodes[loss.0].value.numel() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "backward requires a scalar loss, got {} elements",
                self.nodes[loss.0].value.numel()
            )));
        }
        // Parents precede their children on the tape, so one forward sweep
        // marks every node that a node of `wrt` reaches (`needed`) and the
        // nodes with a parent that does (`routes`; a node of `wrt` may have
        // none).
        let mut needed = vec![false; loss.0 + 1];
        for v in wrt.iter().filter(|v| v.0 <= loss.0) {
            needed[v.0] = true;
        }
        let mut routes = vec![false; loss.0 + 1];
        for i in 0..=loss.0 {
            routes[i] = self.nodes[i].op.parents().iter().any(|&p| needed[p]);
            needed[i] |= routes[i];
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        if needed[loss.0] {
            grads[loss.0] = Some(Tensor::full(self.nodes[loss.0].value.shape().clone(), 1.0));
        }
        for i in (0..=loss.0).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            if routes[i] {
                let mut adj = Adjoints {
                    grads: &mut grads,
                    needed: &needed,
                };
                self.accumulate_parents(i, &grad, &mut adj)?;
            }
            grads[i] = Some(grad);
        }
        Ok(Gradients { grads })
    }

    /// Routes `grad` (the adjoint of node `i`) to node `i`'s parents.
    fn accumulate_parents(&self, i: usize, grad: &Tensor, adj: &mut Adjoints) -> Result<()> {
        let value = |idx: usize| &self.nodes[idx].value;
        match &self.nodes[i].op {
            Op::Input => {}
            Op::Add(a, b) => {
                adj.add(*a, || grad.reduce_to_shape(value(*a).shape()))?;
                adj.add(*b, || grad.reduce_to_shape(value(*b).shape()))?;
            }
            Op::Sub(a, b) => {
                adj.add(*a, || grad.reduce_to_shape(value(*a).shape()))?;
                adj.add(*b, || grad.neg().reduce_to_shape(value(*b).shape()))?;
            }
            Op::Mul(a, b) => {
                adj.add(*a, || {
                    grad.bmul(value(*b))?.reduce_to_shape(value(*a).shape())
                })?;
                adj.add(*b, || {
                    grad.bmul(value(*a))?.reduce_to_shape(value(*b).shape())
                })?;
            }
            Op::Scale(a, c) => adj.add(*a, || Ok(grad.scale(*c)))?,
            Op::AddScalar(a, _) => adj.add(*a, || Ok(grad.clone()))?,
            Op::Matmul(a, b) => {
                // dA = dC B^T ; dB = A^T dC
                adj.add(*a, || grad.matmul_nt(value(*b)))?;
                adj.add(*b, || value(*a).matmul_tn(grad))?;
            }
            // `g · 1` and `g · 0` per element, as a product with a 0/1 mask
            // rounds, without building the mask.
            Op::Relu(a) => adj.add(*a, || {
                grad.zip(value(*a), |g, v| g * if v > 0.0 { 1.0 } else { 0.0 })
            })?,
            Op::Relu6(a) => adj.add(*a, || {
                grad.zip(value(*a), |g, v| {
                    g * if v > 0.0 && v < 6.0 { 1.0 } else { 0.0 }
                })
            })?,
            Op::Square(a) => adj.add(*a, || grad.mul(&value(*a).scale(2.0)))?,
            Op::Reshape(a, old_shape) => adj.add(*a, || grad.reshape(old_shape.clone()))?,
            Op::Sum(a) => adj.add(*a, || {
                Ok(Tensor::full(value(*a).shape().clone(), grad.data()[0]))
            })?,
            Op::Mean(a) => adj.add(*a, || {
                let n = value(*a).numel() as f32;
                Ok(Tensor::full(value(*a).shape().clone(), grad.data()[0] / n))
            })?,
            // Ops with bespoke backward rules live in ops_nn.rs.
            other => self.accumulate_nn_parents(other, grad, adj)?,
        }
        Ok(())
    }
}

/// The adjoints a backward pass accumulates, and which nodes need one.
pub(crate) struct Adjoints<'a> {
    grads: &'a mut [Option<Tensor>],
    needed: &'a [bool],
}

impl Adjoints<'_> {
    /// Adds the contribution `g()` into node `idx`'s adjoint. For a node
    /// that needs none, `g` is not run.
    pub(crate) fn add(&mut self, idx: usize, g: impl FnOnce() -> Result<Tensor>) -> Result<()> {
        if !self.needed[idx] {
            return Ok(());
        }
        let g = g()?;
        match &mut self.grads[idx] {
            Some(acc) => acc.axpy(1.0, &g)?,
            slot @ None => *slot = Some(g),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_value_round_trips() {
        let mut g = Graph::new();
        let t = Tensor::from_fn([3], |i| i[0] as f32);
        let x = g.input(t.clone());
        assert_eq!(g.value(x), &t);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([3], |i| i[0] as f32));
        assert!(g.backward(x, &[x]).is_err());
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let s = g.sum(x);
        let grads = g.backward(s, &[x]).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn grad_of_mean_is_inverse_count() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([4], |i| i[0] as f32));
        let s = g.mean(x);
        let grads = g.backward(s, &[x]).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x + x) -> dx = 2
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([3], |i| i[0] as f32));
        let y = g.add(x, x).unwrap();
        let s = g.sum(y);
        let grads = g.backward(s, &[x]).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[2.0; 3]);
    }

    #[test]
    fn unused_inputs_have_no_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([3], |i| i[0] as f32));
        let unused = g.input(Tensor::from_fn([2], |i| i[0] as f32));
        let s = g.sum(x);
        let mut grads = g.backward(s, &[unused, x]).unwrap();
        assert!(grads.get(unused).is_none());
        assert!(grads.take(x).is_some());
        assert!(grads.take(x).is_none()); // second take is empty
    }

    #[test]
    fn backward_computes_only_what_wrt_reaches() {
        // loss = sum(relu(a·b) ⊙ c) + sum(d)
        let mut g = Graph::new();
        let a = g.input(Tensor::from_fn([2, 3], |i| {
            0.3 * i[1] as f32 - 0.2 * i[0] as f32
        }));
        let b = g.input(Tensor::from_fn([3, 2], |i| {
            0.1 * i[0] as f32 - 0.25 * i[1] as f32
        }));
        let c = g.input(Tensor::from_fn([2, 2], |i| {
            1.0 + i[0] as f32 - 0.5 * i[1] as f32
        }));
        let d = g.input(Tensor::from_fn([2], |i| i[0] as f32));
        let p = g.matmul(a, b).unwrap();
        let r = g.relu(p);
        let m = g.mul(r, c).unwrap();
        let s1 = g.sum(m);
        let s2 = g.sum(d);
        let loss = g.add(s1, s2).unwrap();
        let full = g.backward(loss, &[a, b, c, d]).unwrap();
        let part = g.backward(loss, &[a]).unwrap();
        // Adjoints on the path from `a` are bitwise those of a full pass;
        // the other leaves and the nodes only they reach get none.
        for v in [a, p, r, m, s1, loss] {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(part.get(v).unwrap()), bits(full.get(v).unwrap()));
        }
        for v in [b, c, d, s2] {
            assert!(full.get(v).is_some());
            assert!(part.get(v).is_none());
        }
        // An intermediate node alone gets its own adjoint and routes
        // nothing further.
        let mid = g.backward(loss, &[m]).unwrap();
        assert_eq!(mid.get(m).unwrap().data(), &[1.0; 4]);
        assert!(mid.get(r).is_none() && mid.get(a).is_none());
        // No path from `wrt` to the loss: no gradients at all.
        let e = g.input(Tensor::from_fn([2], |i| i[0] as f32));
        assert!(g.backward(loss, &[e]).unwrap().get(loss).is_none());
    }

    #[test]
    fn relu6_clips_forward() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![-1.0, 3.0, 8.0], [3]).unwrap());
        let y = g.relu6(x);
        assert_eq!(g.value(y).data(), &[0.0, 3.0, 6.0]);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "non-finite value NaN at flat index 0 produced by op `scale`")]
    fn taint_checker_pins_nan_to_originating_op() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![0.0, 2.0], [2]).unwrap());
        let _ = g.scale(x, f32::INFINITY); // 0 · inf = NaN — flagged at push time
    }

    #[test]
    fn reshape_routes_gradients() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_fn([6], |i| i[0] as f32));
        let m = g.reshape(x, [2, 3]).unwrap();
        let sq = g.square(m);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[x]).unwrap();
        let gx = grads.get(x).unwrap();
        assert_eq!(gx.dims(), &[6]);
        assert_eq!(gx.data(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }
}
