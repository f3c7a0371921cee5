//! The [`Layer`] abstraction, parameter metadata and [`Sequential`]
//! composition.

use hero_autodiff::{Graph, Var};
use hero_tensor::{Result, Tensor, TensorError};

/// What role a parameter tensor plays in its layer.
///
/// HERO's components treat kinds differently: weight decay and post-training
/// quantization apply to `Weight` tensors, while biases and batch-norm
/// affine parameters stay full precision (the setting of the paper, which
/// quantizes weights only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Dense or convolutional weight matrix/kernel.
    Weight,
    /// Additive bias.
    Bias,
    /// Batch-norm scale (γ).
    BnGamma,
    /// Batch-norm shift (β).
    BnBeta,
}

impl ParamKind {
    /// True for tensors that linear uniform quantization applies to.
    pub fn is_quantizable(self) -> bool {
        matches!(self, ParamKind::Weight)
    }

    /// True for tensors that weight decay applies to (standard practice:
    /// decay weights, not biases or norm parameters).
    pub fn is_decayed(self) -> bool {
        matches!(self, ParamKind::Weight)
    }
}

/// Metadata describing one parameter tensor in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamInfo {
    /// Dotted path such as `"stage1.block0.conv1.weight"`.
    pub name: String,
    /// Role of the tensor.
    pub kind: ParamKind,
}

/// A neural-network building block with owned parameters.
///
/// A layer contributes its parameters to a fresh [`Graph`] on every forward
/// call (define-by-run); the `vars` list receives the graph handle of each
/// parameter in the same canonical order that [`Layer::collect_params`]
/// emits tensors, which is what lets optimizers map gradients back onto
/// parameters.
///
/// Layers are `Send` and cloneable through [`Layer::clone_box`] so a
/// [`Network`] can be replicated into per-thread workers by the
/// data-parallel executor (`hero-parallel`).
pub trait Layer: std::fmt::Debug + Send {
    /// Builds this layer's forward computation.
    ///
    /// `train` selects training behaviour (e.g. batch-norm batch
    /// statistics); parameter graph handles are appended to `vars`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` is incompatible with the layer.
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool, vars: &mut Vec<Var>) -> Result<Var>;

    /// Appends snapshot clones of the parameter tensors in canonical order.
    fn collect_params(&self, out: &mut Vec<Tensor>);

    /// Overwrites parameters from `src` in canonical order.
    ///
    /// # Errors
    ///
    /// Returns an error if `src` runs dry or a tensor has the wrong shape.
    fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()>;

    /// Appends metadata for each parameter; `prefix` is the dotted path of
    /// the enclosing scope.
    fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>);

    /// Deep-copies this layer behind a fresh box (object-safe `Clone`).
    ///
    /// Replicas carry independent parameter storage and layer state
    /// (batch-norm running statistics), which is what per-worker model
    /// replicas need. Layers whose state includes a forward-advancing RNG
    /// (see [`Layer::rng_stateful`]) are rejected by the data-parallel
    /// executor: each replica's RNG copy would advance on whichever worker
    /// happens to run it, making results scheduling-dependent.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// True when this layer (or any child) owns RNG state that advances
    /// during training-mode forward passes — e.g. [`crate::Dropout`].
    /// Such layers break the data-parallel executor's bitwise-determinism
    /// contract, so `hero-parallel` refuses to replicate networks
    /// containing them. Defaults to `false`.
    fn rng_stateful(&self) -> bool {
        false
    }

    /// Appends named non-parameter state buffers (batch-norm running
    /// statistics) as `(dotted_path, values)` pairs. `prefix` is the
    /// dotted path of the enclosing scope, exactly as in
    /// [`Layer::param_infos`]. Stateless layers keep the default no-op.
    fn collect_state(&self, _prefix: &str, _out: &mut Vec<(String, Vec<f32>)>) {}

    /// Overwrites non-parameter state buffers from `src` in the same
    /// canonical order that [`Layer::collect_state`] emits them.
    ///
    /// # Errors
    ///
    /// Returns an error if `src` runs dry or a buffer length differs.
    fn assign_state(&mut self, _src: &mut StateSource<'_>) -> Result<()> {
        Ok(())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

/// Cursor over a flat list of replacement parameter tensors.
#[derive(Debug)]
pub struct ParamSource<'a> {
    tensors: &'a [Tensor],
    cursor: usize,
}

impl<'a> ParamSource<'a> {
    /// Creates a source reading `tensors` front to back.
    pub fn new(tensors: &'a [Tensor]) -> Self {
        ParamSource { tensors, cursor: 0 }
    }

    /// Takes the next tensor, checking it matches `expected`'s shape.
    ///
    /// # Errors
    ///
    /// Returns an error when exhausted or on a shape mismatch.
    pub fn next_like(&mut self, expected: &Tensor) -> Result<Tensor> {
        let t = self.tensors.get(self.cursor).ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "parameter source exhausted at index {}",
                self.cursor
            ))
        })?;
        if t.shape() != expected.shape() {
            return Err(TensorError::ShapeMismatch {
                left: expected.dims().to_vec(),
                right: t.dims().to_vec(),
            });
        }
        self.cursor += 1;
        Ok(t.clone())
    }

    /// Copies the next tensor into `dst` in place (no allocation) — the
    /// hot-path counterpart of [`ParamSource::next_like`], used so
    /// `set_params` inside the training loop reuses layer storage.
    ///
    /// # Errors
    ///
    /// Returns an error when exhausted or on a shape mismatch.
    pub fn copy_into(&mut self, dst: &mut Tensor) -> Result<()> {
        let t = self.tensors.get(self.cursor).ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "parameter source exhausted at index {}",
                self.cursor
            ))
        })?;
        dst.copy_from(t)?;
        self.cursor += 1;
        Ok(())
    }

    /// Number of tensors consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// True when every tensor has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.cursor == self.tensors.len()
    }
}

/// Cursor over a flat list of replacement state buffers, the
/// [`ParamSource`] counterpart for [`Layer::assign_state`].
#[derive(Debug)]
pub struct StateSource<'a> {
    buffers: &'a [(String, Vec<f32>)],
    cursor: usize,
}

impl<'a> StateSource<'a> {
    /// Creates a source reading `buffers` front to back.
    pub fn new(buffers: &'a [(String, Vec<f32>)]) -> Self {
        StateSource { buffers, cursor: 0 }
    }

    /// Takes the next buffer, checking its length matches `expected_len`.
    ///
    /// # Errors
    ///
    /// Returns an error when exhausted or on a length mismatch.
    pub fn next_buffer(&mut self, expected_len: usize) -> Result<&'a [f32]> {
        let (name, data) = self.buffers.get(self.cursor).ok_or_else(|| {
            TensorError::InvalidArgument(format!("state source exhausted at index {}", self.cursor))
        })?;
        if data.len() != expected_len {
            return Err(TensorError::InvalidArgument(format!(
                "state buffer `{name}` has {} values, layer expects {expected_len}",
                data.len()
            )));
        }
        self.cursor += 1;
        Ok(data)
    }

    /// Number of buffers consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// True when every buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.cursor == self.buffers.len()
    }
}

/// Runs layers one after another, composing their forward passes.
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Name of each child (used for parameter paths).
    names: Vec<String>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a named child layer (builder style).
    #[must_use]
    pub fn push(mut self, name: impl Into<String>, layer: impl Layer + 'static) -> Self {
        self.add(name, layer);
        self
    }

    /// Appends a named child layer.
    pub fn add(&mut self, name: impl Into<String>, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
        self.names.push(name.into());
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if there are no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool, vars: &mut Vec<Var>) -> Result<Var> {
        let mut cur = x;
        for layer in &mut self.layers {
            cur = layer.forward(g, cur, train, vars)?;
        }
        Ok(cur)
    }

    fn collect_params(&self, out: &mut Vec<Tensor>) {
        for layer in &self.layers {
            layer.collect_params(out);
        }
    }

    fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()> {
        for layer in &mut self.layers {
            layer.assign_params(src)?;
        }
        Ok(())
    }

    fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>) {
        for (layer, name) in self.layers.iter().zip(&self.names) {
            let child = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            layer.param_infos(&child, out);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn rng_stateful(&self) -> bool {
        self.layers.iter().any(|l| l.rng_stateful())
    }

    fn collect_state(&self, prefix: &str, out: &mut Vec<(String, Vec<f32>)>) {
        for (layer, name) in self.layers.iter().zip(&self.names) {
            let child = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            layer.collect_state(&child, out);
        }
    }

    fn assign_state(&mut self, src: &mut StateSource<'_>) -> Result<()> {
        for layer in &mut self.layers {
            layer.assign_state(src)?;
        }
        Ok(())
    }
}

/// A complete trainable network: a [`Sequential`] body whose output is the
/// logits tensor `(batch, classes)`.
///
/// `Network` provides the flat-parameter view the optimizers and the HERO
/// method operate on: [`Network::params`] / [`Network::set_params`]
/// round-trip all parameters in canonical order.
///
/// Cloning a network deep-copies every layer, producing an independent
/// replica — the unit the data-parallel shard workers operate on.
#[derive(Debug, Clone)]
pub struct Network {
    body: Sequential,
    name: String,
}

impl Network {
    /// Wraps a sequential body as a named network.
    pub fn new(name: impl Into<String>, body: Sequential) -> Self {
        Network {
            body,
            name: name.into(),
        }
    }

    /// The network's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the forward graph. Returns the logits node and the graph
    /// handles of every parameter (canonical order).
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x` is incompatible with the first layer.
    pub fn forward(&mut self, g: &mut Graph, x: &Tensor, train: bool) -> Result<(Var, Vec<Var>)> {
        let input = g.input(x.clone());
        let mut vars = Vec::new();
        let logits = self.body.forward(g, input, train, &mut vars)?;
        Ok((logits, vars))
    }

    /// Snapshot clones of all parameters in canonical order.
    pub fn params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.body.collect_params(&mut out);
        out
    }

    /// Overwrites all parameters from a canonical-order list.
    ///
    /// # Errors
    ///
    /// Returns an error if the count or any shape differs.
    pub fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        let mut src = ParamSource::new(params);
        self.body.assign_params(&mut src)?;
        if !src.is_exhausted() {
            return Err(TensorError::InvalidArgument(format!(
                "{} parameter tensors supplied, {} consumed",
                params.len(),
                src.consumed()
            )));
        }
        Ok(())
    }

    /// Metadata for every parameter, aligned with [`Network::params`].
    pub fn param_infos(&self) -> Vec<ParamInfo> {
        let mut out = Vec::new();
        self.body.param_infos("", &mut out);
        out
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.params().iter().map(Tensor::numel).sum()
    }

    /// True when any layer owns RNG state that advances during training
    /// forwards (see [`Layer::rng_stateful`]); such networks cannot be
    /// replicated by the data-parallel executor.
    pub fn rng_stateful(&self) -> bool {
        self.body.rng_stateful()
    }

    /// Named non-parameter state buffers (batch-norm running statistics)
    /// in canonical order — the complement of [`Network::params`] that a
    /// serialized model needs for exact inference reconstruction.
    pub fn state(&self) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        self.body.collect_state("", &mut out);
        out
    }

    /// Overwrites all state buffers from a canonical-order list.
    ///
    /// # Errors
    ///
    /// Returns an error if the count or any buffer length differs.
    pub fn set_state(&mut self, state: &[(String, Vec<f32>)]) -> Result<()> {
        let mut src = StateSource::new(state);
        self.body.assign_state(&mut src)?;
        if !src.is_exhausted() {
            return Err(TensorError::InvalidArgument(format!(
                "{} state buffers supplied, {} consumed",
                state.len(),
                src.consumed()
            )));
        }
        Ok(())
    }

    /// Computes logits for `x` without recording gradients (eval mode).
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x` is incompatible with the network.
    pub fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut g = Graph::new();
        let (logits, _) = self.forward(&mut g, x, false)?;
        let out = g.value(logits).clone();
        g.reset();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test layer: multiplies by a learned scalar-ish vector.
    #[derive(Debug, Clone)]
    struct ScaleLayer {
        w: Tensor,
    }

    impl Layer for ScaleLayer {
        fn forward(
            &mut self,
            g: &mut Graph,
            x: Var,
            _train: bool,
            vars: &mut Vec<Var>,
        ) -> Result<Var> {
            let w = g.input(self.w.clone());
            vars.push(w);
            g.mul(x, w)
        }

        fn collect_params(&self, out: &mut Vec<Tensor>) {
            out.push(self.w.clone());
        }

        fn assign_params(&mut self, src: &mut ParamSource<'_>) -> Result<()> {
            self.w = src.next_like(&self.w)?;
            Ok(())
        }

        fn param_infos(&self, prefix: &str, out: &mut Vec<ParamInfo>) {
            out.push(ParamInfo {
                name: format!("{prefix}.weight"),
                kind: ParamKind::Weight,
            });
        }

        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    fn two_layer_network() -> Network {
        let body = Sequential::new()
            .push(
                "a",
                ScaleLayer {
                    w: Tensor::full([3], 2.0),
                },
            )
            .push(
                "b",
                ScaleLayer {
                    w: Tensor::full([3], 0.5),
                },
            );
        Network::new("test", body)
    }

    #[test]
    fn sequential_composes_forwards() {
        let mut net = two_layer_network();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let mut g = Graph::new();
        let (out, vars) = net.forward(&mut g, &x, true).unwrap();
        assert_eq!(g.value(out).data(), &[1.0, 2.0, 3.0]); // x * 2 * 0.5
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn params_round_trip() {
        let mut net = two_layer_network();
        let mut ps = net.params();
        assert_eq!(ps.len(), 2);
        ps[0] = Tensor::full([3], 4.0);
        net.set_params(&ps).unwrap();
        assert_eq!(net.params()[0].data(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn set_params_validates_count_and_shape() {
        let mut net = two_layer_network();
        let ps = net.params();
        assert!(net.set_params(&ps[..1]).is_err());
        let mut extra = ps.clone();
        extra.push(Tensor::zeros([1]));
        assert!(net.set_params(&extra).is_err());
        let bad = vec![Tensor::zeros([4]), Tensor::zeros([3])];
        assert!(net.set_params(&bad).is_err());
    }

    #[test]
    fn param_infos_have_dotted_paths() {
        let net = two_layer_network();
        let infos = net.param_infos();
        assert_eq!(infos[0].name, "a.weight");
        assert_eq!(infos[1].name, "b.weight");
        assert!(infos.iter().all(|i| i.kind == ParamKind::Weight));
    }

    #[test]
    fn gradients_flow_through_sequential() {
        let mut net = two_layer_network();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let mut g = Graph::new();
        let (out, vars) = net.forward(&mut g, &x, true).unwrap();
        let loss = g.sum(out);
        let grads = g.backward(loss, &vars).unwrap();
        // d loss / d w_a = x * w_b = [0.5, 1.0, 1.5]
        assert_eq!(grads.get(vars[0]).unwrap().data(), &[0.5, 1.0, 1.5]);
        // d loss / d w_b = x * w_a = [2, 4, 6]
        assert_eq!(grads.get(vars[1]).unwrap().data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn param_kind_policies() {
        assert!(ParamKind::Weight.is_quantizable());
        assert!(!ParamKind::Bias.is_quantizable());
        assert!(!ParamKind::BnGamma.is_quantizable());
        assert!(ParamKind::Weight.is_decayed());
        assert!(!ParamKind::BnBeta.is_decayed());
    }

    #[test]
    fn num_scalars_counts_elements() {
        let net = two_layer_network();
        assert_eq!(net.num_scalars(), 6);
        assert_eq!(net.name(), "test");
    }
}
