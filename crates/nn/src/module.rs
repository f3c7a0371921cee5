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

/// A parameter tensor or state buffer, as [`Layer::walk`] reports it.
#[derive(Debug)]
enum Entry<'a> {
    /// A trainable parameter and its role.
    Param(ParamKind, &'a Tensor),
    /// A non-parameter state buffer (batch-norm running statistics).
    State(&'a [f32]),
}

/// A parameter tensor or state buffer, as [`Layer::walk_mut`] reports it.
#[derive(Debug)]
pub enum EntryMut<'a> {
    /// A trainable parameter.
    Param(&'a mut Tensor),
    /// A non-parameter state buffer.
    State(&'a mut [f32]),
}

/// A shared-reference walk over a layer tree in canonical order. It keeps
/// the dotted path of the current scope and hands each entry to a sink
/// with that path and the entry's name suffix; only sinks that need names
/// join them.
pub struct Walk<'s> {
    path: String,
    sink: &'s mut dyn FnMut(&str, &str, Entry<'_>),
}

impl Walk<'_> {
    /// Walks `layer` from the root scope, handing every entry to `sink`.
    fn run(layer: &dyn Layer, sink: &mut dyn FnMut(&str, &str, Entry<'_>)) {
        layer.walk(&mut Walk {
            path: String::new(),
            sink,
        });
    }

    /// Reports parameter `t` under name suffix `suffix`.
    pub fn param(&mut self, suffix: &str, kind: ParamKind, t: &Tensor) {
        (self.sink)(&self.path, suffix, Entry::Param(kind, t));
    }

    /// Reports state buffer `buf` under name suffix `suffix`.
    pub fn state(&mut self, suffix: &str, buf: &[f32]) {
        (self.sink)(&self.path, suffix, Entry::State(buf));
    }

    /// Walks child `layer` in the scope `name` below the current one.
    pub fn child(&mut self, name: &str, layer: &dyn Layer) {
        let len = self.path.len();
        if len > 0 {
            self.path.push('.');
        }
        self.path.push_str(name);
        layer.walk(self);
        self.path.truncate(len);
    }
}

/// A neural-network building block with owned parameters.
///
/// A layer has two forwards. [`Layer::forward`] is the train-mode pass: it
/// contributes its parameters to a fresh [`Graph`] on every call
/// (define-by-run), and the `vars` list receives the graph handle of each
/// parameter in canonical order. [`Layer::infer`] is the eval-mode pass on
/// owned tensors: it records no tape, and element-wise layers overwrite
/// the tensor they receive. The two walks report the same order, once
/// by shared reference with names and kinds ([`Layer::walk`]) and once
/// mutably without names ([`Layer::walk_mut`]); that order is what lets
/// optimizers map gradients back onto parameters and [`Network`] derive
/// its flat parameter and state views.
///
/// Layers are `Send` and cloneable through [`LayerClone`] so a
/// [`Network`] can be replicated into per-thread workers by the
/// data-parallel executor (`hero-parallel`).
pub trait Layer: std::fmt::Debug + Send + LayerClone {
    /// Builds this layer's train-mode forward computation (batch norm
    /// normalizes by batch statistics and updates its running estimates);
    /// parameter graph handles are appended to `vars`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` is incompatible with the layer.
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var>;

    /// The eval-mode forward of `x`, with no graph: batch norm applies its
    /// running statistics. It runs the `hero-tensor` kernels the graph ops
    /// run, so each value rounds as the matching tape op would.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` is incompatible with the layer.
    fn infer(&self, x: Tensor) -> Result<Tensor>;

    /// Reports each parameter (name suffix, kind, tensor) and state buffer
    /// in canonical order, and walks children through [`Walk::child`].
    /// Layers without parameters or state keep the empty default.
    fn walk(&self, _w: &mut Walk<'_>) {}

    /// Reports the entries of [`Layer::walk`] in the same order, mutably
    /// and without names.
    fn walk_mut(&mut self, _f: &mut dyn FnMut(EntryMut<'_>)) {}
}

/// Object-safe `Clone` for layers, implemented for every `Layer + Clone`.
pub trait LayerClone {
    /// Deep-copies this layer behind a fresh box.
    ///
    /// Replicas carry independent parameter storage and layer state
    /// (batch-norm running statistics), which is what per-worker model
    /// replicas need.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
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
    fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
        let mut cur = x;
        for layer in &mut self.layers {
            cur = layer.forward(g, cur, vars)?;
        }
        Ok(cur)
    }

    fn infer(&self, x: Tensor) -> Result<Tensor> {
        self.layers
            .iter()
            .try_fold(x, |cur, layer| layer.infer(cur))
    }

    fn walk(&self, w: &mut Walk<'_>) {
        for (layer, name) in self.layers.iter().zip(&self.names) {
            w.child(name, layer.as_ref());
        }
    }

    fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
        for layer in &mut self.layers {
            layer.walk_mut(f);
        }
    }
}

/// The error for a walk that finds more entries than were supplied.
fn exhausted(what: &str, index: usize) -> TensorError {
    TensorError::InvalidArgument(format!("{what} source exhausted at index {index}"))
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

    /// Builds the train-mode forward graph. Returns the logits node and the
    /// graph handles of every parameter (canonical order).
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x` is incompatible with the first layer.
    pub fn forward(&mut self, g: &mut Graph, x: &Tensor) -> Result<(Var, Vec<Var>)> {
        self.forward_from(g, 0, x, 0, &mut Vec::new())
    }

    /// [`Network::forward`] from top-level layer `start`, whose input is
    /// `x` (the batch when `start` is 0): the layers below it do not run.
    /// The input of each layer in `start + 1..=keep_to` is cloned onto
    /// `kept` as the pass reaches it. The handles are those of the
    /// parameters of layers `start..`, the first being canonical index
    /// [`Network::layer_param_starts`]`[start]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x` is incompatible with layer `start`.
    pub fn forward_from(
        &mut self,
        g: &mut Graph,
        start: usize,
        x: &Tensor,
        keep_to: usize,
        kept: &mut Vec<Tensor>,
    ) -> Result<(Var, Vec<Var>)> {
        let mut cur = g.input(x.clone());
        let mut vars = Vec::new();
        for (j, layer) in self.body.layers.iter_mut().enumerate().skip(start) {
            if j > start && j <= keep_to {
                kept.push(g.value(cur).clone());
            }
            cur = layer.forward(g, cur, &mut vars)?;
        }
        Ok((cur, vars))
    }

    /// The canonical index of each top-level layer's first parameter
    /// tensor: layer `j` owns tensors `starts[j]..starts[j + 1]` (the last
    /// layer, the rest). A layer without parameters owns none.
    pub fn layer_param_starts(&self) -> Vec<usize> {
        let mut next = 0;
        self.body
            .layers
            .iter()
            .map(|layer| {
                let start = next;
                Walk::run(layer.as_ref(), &mut |_, _, e| {
                    if let Entry::Param(..) = e {
                        next += 1;
                    }
                });
                start
            })
            .collect()
    }

    /// Snapshot clones of all parameters in canonical order.
    pub fn params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        Walk::run(&self.body, &mut |_, _, e| {
            if let Entry::Param(_, t) = e {
                out.push(t.clone());
            }
        });
        out
    }

    /// Overwrites all parameters from a canonical-order list.
    ///
    /// # Errors
    ///
    /// Returns an error if the count or any shape differs.
    pub fn set_params(&mut self, params: &[Tensor]) -> Result<()> {
        self.assign("parameter tensors", params.len(), |e, i| match e {
            EntryMut::Param(dst) => Some(match params.get(i) {
                Some(t) => dst.copy_from(t),
                None => Err(exhausted("parameter", i)),
            }),
            EntryMut::State(_) => None,
        })
    }

    /// Metadata for every parameter, aligned with [`Network::params`].
    pub fn param_infos(&self) -> Vec<ParamInfo> {
        let mut out = Vec::new();
        Walk::run(&self.body, &mut |path, suffix, e| {
            if let Entry::Param(kind, _) = e {
                let name = format!("{path}.{suffix}");
                out.push(ParamInfo { name, kind });
            }
        });
        out
    }

    /// Named non-parameter state buffers (batch-norm running statistics)
    /// in canonical order — the complement of [`Network::params`] that a
    /// serialized model needs for exact inference reconstruction.
    pub fn state(&self) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        Walk::run(&self.body, &mut |path, suffix, e| {
            if let Entry::State(buf) = e {
                out.push((format!("{path}.{suffix}"), buf.to_vec()));
            }
        });
        out
    }

    /// Overwrites all state buffers from a canonical-order list.
    ///
    /// # Errors
    ///
    /// Returns an error if the count or any buffer length differs.
    pub fn set_state(&mut self, state: &[(String, Vec<f32>)]) -> Result<()> {
        self.assign("state buffers", state.len(), |e, i| match e {
            EntryMut::State(dst) => Some(match state.get(i) {
                Some((_, data)) if data.len() == dst.len() => {
                    dst.copy_from_slice(data);
                    Ok(())
                }
                Some((name, data)) => Err(TensorError::InvalidArgument(format!(
                    "state buffer `{name}` has {} values, layer expects {}",
                    data.len(),
                    dst.len()
                ))),
                None => Err(exhausted("state", i)),
            }),
            EntryMut::Param(_) => None,
        })
    }

    /// Feeds the mutable walk's entries to `copy` with the index of the
    /// next supplied item; `copy` returns `None` for entries of the other
    /// kind. Stops copying at the first error and checks that all
    /// `supplied` items were used.
    fn assign(
        &mut self,
        what: &str,
        supplied: usize,
        mut copy: impl FnMut(EntryMut<'_>, usize) -> Option<Result<()>>,
    ) -> Result<()> {
        let (mut used, mut res) = (0, Ok(()));
        self.body.walk_mut(&mut |e| {
            if res.is_ok() {
                if let Some(r) = copy(e, used) {
                    (used, res) = (used + 1, r);
                }
            }
        });
        res?;
        if used != supplied {
            return Err(TensorError::InvalidArgument(format!(
                "{supplied} {what} supplied, {used} consumed"
            )));
        }
        Ok(())
    }

    /// Computes the eval-mode logits of `x` through [`Layer::infer`]: no
    /// tape is recorded.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x` is incompatible with the network.
    pub fn predict(&self, x: &Tensor) -> Result<Tensor> {
        self.body.infer(x.clone())
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
        fn forward(&mut self, g: &mut Graph, x: Var, vars: &mut Vec<Var>) -> Result<Var> {
            let w = g.input(self.w.clone());
            vars.push(w);
            g.mul(x, w)
        }

        fn infer(&self, x: Tensor) -> Result<Tensor> {
            x.bmul(&self.w)
        }

        fn walk(&self, w: &mut Walk<'_>) {
            w.param("weight", ParamKind::Weight, &self.w);
        }

        fn walk_mut(&mut self, f: &mut dyn FnMut(EntryMut<'_>)) {
            f(EntryMut::Param(&mut self.w));
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
        let (out, vars) = net.forward(&mut g, &x).unwrap();
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
        let (out, vars) = net.forward(&mut g, &x).unwrap();
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
        assert_eq!(net.params().iter().map(Tensor::numel).sum::<usize>(), 6);
        assert_eq!(net.name(), "test");
    }
}
