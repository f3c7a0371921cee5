//! Operation modules implementing `Tensor` methods.

pub(crate) mod batch_norm;
pub(crate) mod broadcast;
pub(crate) mod conv;
pub(crate) mod depthwise;
pub(crate) mod elementwise;
pub(crate) mod gemm;
pub(crate) mod lanes;
pub(crate) mod matmul;
pub(crate) mod norm;
pub(crate) mod pad;
pub(crate) mod pool;
pub(crate) mod reduce;
