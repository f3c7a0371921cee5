//! The im2col/col2im lowering of `hero-testkit`, which the conv and
//! depthwise kernel corpora hold the direct kernels against: its layout,
//! its padding, its agreement with a direct convolution and the adjoint
//! property that makes col2im the reference for dX.

use hero_tensor::{ConvGeometry, Tensor};
use hero_testkit::{col2im, im2col};

/// `[0, 1, ..., n-1]` reshaped to `dims`.
fn ramp(dims: &[usize]) -> Tensor {
    let n = dims.iter().product::<usize>();
    Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims.to_vec()).unwrap()
}

/// Element `[row, col]` of a matrix.
fn at(t: &Tensor, row: usize, col: usize) -> f32 {
    t.data()[row * t.dims()[1] + col]
}

#[test]
fn im2col_1x1_kernel_is_reshape() {
    let t = ramp(&[1, 2, 2, 2]);
    let geom = ConvGeometry::new(2, 2, 1, 1, 0).unwrap();
    let cols = im2col(&t, &geom).unwrap();
    assert_eq!(cols.dims(), &[2, 4]);
    assert_eq!(cols.data(), t.data());
}

#[test]
fn im2col_extracts_receptive_fields() {
    // 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 4 windows of 4 values.
    let t = ramp(&[1, 1, 3, 3]);
    let geom = ConvGeometry::new(3, 3, 2, 1, 0).unwrap();
    let cols = im2col(&t, &geom).unwrap();
    assert_eq!(cols.dims(), &[4, 4]);
    // First column: window at (0,0) = [0,1,3,4]
    let col0: Vec<f32> = (0..4).map(|r| at(&cols, r, 0)).collect();
    assert_eq!(col0, vec![0.0, 1.0, 3.0, 4.0]);
    // Last column: window at (1,1) = [4,5,7,8]
    let col3: Vec<f32> = (0..4).map(|r| at(&cols, r, 3)).collect();
    assert_eq!(col3, vec![4.0, 5.0, 7.0, 8.0]);
}

#[test]
fn im2col_padding_produces_zero_border() {
    let t = Tensor::ones([1, 1, 2, 2]);
    let geom = ConvGeometry::new(2, 2, 3, 1, 1).unwrap();
    let cols = im2col(&t, &geom).unwrap();
    assert_eq!(cols.dims(), &[9, 4]);
    // Window centered at (0,0): top-left entries fall in padding.
    assert_eq!(at(&cols, 0, 0), 0.0);
    assert_eq!(at(&cols, 4, 0), 1.0); // center hits the image
}

#[test]
fn conv_via_matmul_matches_direct_convolution() {
    // 2-channel input, 3 output channels, 3x3 kernel, stride 1, pad 1.
    let x = Tensor::from_fn([2, 2, 4, 4], |i| {
        ((i[0] + 2 * i[1] + i[2] * 3 + i[3]) % 7) as f32
    });
    let wgt = Tensor::from_fn([3, 2 * 3 * 3], |i| ((i[0] * 5 + i[1]) % 5) as f32 - 2.0);
    let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
    let cols = im2col(&x, &geom).unwrap();
    let out = wgt.matmul(&cols).unwrap(); // (3, N*oh*ow)
    let (oh, ow) = geom.out_hw();
    // Direct reference at a few positions.
    for (n_i, oc, oy, ox) in [(0usize, 0usize, 0usize, 0usize), (1, 2, 3, 1), (0, 1, 2, 2)] {
        let mut acc = 0.0;
        for ic in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let y = oy as isize + ky as isize - 1;
                    let xx = ox as isize + kx as isize - 1;
                    if !(0..4).contains(&y) || !(0..4).contains(&xx) {
                        continue;
                    }
                    let xv = x.data()[((n_i * 2 + ic) * 4 + y as usize) * 4 + xx as usize];
                    let wv = at(&wgt, oc, (ic * 3 + ky) * 3 + kx);
                    acc += xv * wv;
                }
            }
        }
        let col = (n_i * oh + oy) * ow + ox;
        assert!((at(&out, oc, col) - acc).abs() < 1e-4);
    }
}

#[test]
fn col2im_is_adjoint_of_im2col() {
    // <im2col(x), y> == <x, col2im(y)> -- the defining adjoint property.
    let x = Tensor::from_fn([2, 3, 5, 5], |i| (i.iter().sum::<usize>() % 5) as f32 - 2.0);
    let geom = ConvGeometry::new(5, 5, 3, 2, 1).unwrap();
    let cols = im2col(&x, &geom).unwrap();
    let y = Tensor::from_fn([cols.dims()[0], cols.dims()[1]], |i| {
        ((i[0] * 3 + i[1]) % 7) as f32 - 3.0
    });
    let lhs = cols.dot(&y).unwrap();
    let back = col2im(&y, &geom, 2, 3).unwrap();
    let rhs = x.dot(&back).unwrap();
    assert!((lhs - rhs).abs() < 1e-2, "lhs={lhs} rhs={rhs}");
}

#[test]
fn col2im_validates_shape() {
    let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
    assert!(col2im(&Tensor::zeros([5, 5]), &geom, 1, 1).is_err());
    assert!(col2im(&Tensor::zeros([9]), &geom, 1, 1).is_err());
}
