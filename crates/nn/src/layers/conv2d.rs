//! 2-D convolution implemented by `im2col` lowering — the same unrolling the
//! paper's hardware framework applies before crossbar mapping. A batch is
//! lowered a group of whole images at a time, and each group's forward,
//! input-gradient and weight-gradient products are one kernel call each.

use crate::param::{Param, ParamKind};
use crate::Mode;
use xbar_tensor::conv::{col2im, im2col, ConvGeom, Lowering};
use xbar_tensor::init::Init;
use xbar_tensor::{ShapeError, Tensor};

/// A 2-D convolution layer over `[N, C, H, W]` activations.
///
/// The kernel is stored as a 2-D tensor of shape `[out_c, in_c·kh·kw]`; its
/// transpose is precisely the `fan_in × fan_out` weight matrix that the
/// crossbar-mapping pipeline partitions into tiles (columns = filters, as in
/// the paper's C/F-pruning description).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        let weight = Param::new(
            Init::KaimingNormal.sample(&[out_c, fan_in], fan_in, out_c, seed),
            ParamKind::ConvWeight,
        );
        let bias = Param::new(Tensor::zeros(&[out_c]), ParamKind::Bias);
        Self {
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output channel (filter) count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Stride in both spatial dimensions.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero-padding in both spatial dimensions.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// Kernel side length.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// The `[out_c, in_c·kh·kw]` weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The `[out_c]` bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Mutable access to the bias parameter.
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }

    /// Learnable parameters (weight, bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c,
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Forward pass over a `[N, in_c, H, W]` batch.
    ///
    /// The batch is lowered a group of whole images at a time, as many as
    /// fit a fixed patch-matrix budget, and each group runs as one matrix
    /// product. Every output is the same sum it would be for its image
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input shape disagrees with the layer.
    pub fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor, ShapeError> {
        if x.ndim() != 4 || x.shape()[1] != self.in_c {
            return Err(ShapeError::new(format!(
                "conv2d expects [N, {}, H, W], got {:?}",
                self.in_c,
                x.shape()
            )));
        }
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = self.geom(h, w);
        geom.validate()?;
        let patches = geom.n_patches();
        let (image_len, out_image_len) = (geom.image_len(), self.out_c * patches);
        let mut out = vec![0.0f32; n * out_image_len];
        let bias = self.bias.value.as_slice();
        let group = images_per_group(&geom);
        for g0 in (0..n).step_by(group) {
            let g1 = n.min(g0 + group);
            let cols = im2col(
                &x.as_slice()[g0 * image_len..g1 * image_len],
                &geom,
                Lowering::FanInMajor,
            )?;
            let y = self.weight.value.matmul(&cols)?; // [out_c, images·patches]
            for i in 0..g1 - g0 {
                let dst_image = &mut out[(g0 + i) * out_image_len..][..out_image_len];
                for (c, (drow, &b)) in dst_image.chunks_exact_mut(patches).zip(bias).enumerate() {
                    let yrow = &y.row(c)[i * patches..(i + 1) * patches];
                    for (d, &v) in drow.iter_mut().zip(yrow) {
                        *d = v + b;
                    }
                }
            }
        }
        self.cached_input = Some(x.clone());
        Tensor::from_vec(out, &[n, self.out_c, geom.out_h(), geom.out_w()])
    }

    /// Backward pass; accumulates weight/bias gradients and returns `dL/dx`.
    ///
    /// The weight gradient is still a per-image sum: each image's
    /// `dY·patchesᵀ` is summed over ascending patch index from +0.0 and then
    /// added to the gradient, in image order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `forward` was not called first or shapes
    /// disagree.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, ShapeError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| ShapeError::new("conv2d backward called before forward"))?;
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = self.geom(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let patches = geom.n_patches();
        if grad_out.shape() != [n, self.out_c, oh, ow] {
            return Err(ShapeError::mismatch(
                "conv2d backward",
                &[n, self.out_c, oh, ow],
                grad_out.shape(),
            ));
        }
        let (image_len, out_image_len) = (geom.image_len(), self.out_c * patches);
        let mut dx = vec![0.0f32; n * image_len];
        let group = images_per_group(&geom);
        for g0 in (0..n).step_by(group) {
            let g1 = n.min(g0 + group);
            let images = &x.as_slice()[g0 * image_len..g1 * image_len];
            let dy = &grad_out.as_slice()[g0 * out_image_len..g1 * out_image_len];
            // dW += dYᵢ · rowsᵢ for each image i in order — [out_c, patches]·[patches, fan_in]
            let rows = im2col(images, &geom, Lowering::PatchMajor)?;
            self.weight
                .grad
                .add_matmuls(dy, rows.as_slice(), patches, g1 - g0)?;
            drop(rows);
            // db += row sums of each image's dY; dY is also gathered to
            // [out_c, images·patches] for the input gradient.
            let span = (g1 - g0) * patches;
            let mut dy_cols = vec![0.0f32; self.out_c * span];
            for i in 0..g1 - g0 {
                let dy_rows = dy[i * out_image_len..][..out_image_len].chunks_exact(patches);
                let db = self.bias.grad.as_mut_slice();
                for (c, (gb, dy_row)) in db.iter_mut().zip(dy_rows).enumerate() {
                    let s: f32 = dy_row.iter().sum();
                    *gb += s;
                    dy_cols[c * span + i * patches..][..patches].copy_from_slice(dy_row);
                }
            }
            // dcols = Wᵀ · dY over the group's columns — [fan_in, images·patches]
            let dy_cols = Tensor::from_vec(dy_cols, &[self.out_c, span])?;
            let dcols = self.weight.value.matmul_at_b(&dy_cols)?;
            col2im(&dcols, &geom, &mut dx[g0 * image_len..g1 * image_len])?;
        }
        Tensor::from_vec(dx, x.shape())
    }
}

/// Patch-matrix elements one lowering may hold (1 MiB of `f32`). A batch is
/// lowered in groups of as many whole images as fit, and at least one, so a
/// convolution's scratch memory stays bounded whatever the batch size — the
/// serving batch size is user-set. At width 0.25 a 32-image VGG11 batch
/// needs 4–5 groups in the early layers and one in the last two.
const LOWERING_BUDGET: usize = 1 << 18;

/// Whole images per lowering group: as many as fit [`LOWERING_BUDGET`],
/// and at least one.
fn images_per_group(geom: &ConvGeom) -> usize {
    (LOWERING_BUDGET / (geom.patch_len() * geom.n_patches()).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::{check_grad, probe_loss, rand_tensor};
    use proptest::prelude::*;

    fn tiny() -> Conv2d {
        Conv2d::new(2, 3, 3, 1, 1, 7)
    }

    #[test]
    fn forward_shape() {
        let mut c = tiny();
        let x = rand_tensor(&[2, 2, 5, 5], 1);
        let y = c.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 3, 5, 5]);
    }

    #[test]
    fn forward_stride_two() {
        let mut c = Conv2d::new(1, 1, 3, 2, 1, 3);
        let x = rand_tensor(&[1, 1, 8, 8], 2);
        let y = c.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut c = tiny();
        let x = rand_tensor(&[1, 3, 5, 5], 3);
        assert!(c.forward(&x, Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut c = tiny();
        assert!(c.backward(&Tensor::zeros(&[1, 3, 5, 5])).is_err());
    }

    #[test]
    fn bias_shifts_every_output() {
        let mut c = Conv2d::new(1, 1, 1, 1, 0, 11);
        c.weight.value.as_mut_slice()[0] = 0.0;
        c.bias.value.as_mut_slice()[0] = 2.5;
        let y = c
            .forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval)
            .unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn known_convolution_value() {
        // 1x1 input channel, 2x2 image, 3x3 kernel of ones, pad 1:
        // centre output = sum of all inputs under the kernel.
        let mut c = Conv2d::new(1, 1, 3, 1, 1, 5);
        c.weight.value.as_mut_slice().fill(1.0);
        c.bias.value.as_mut_slice().fill(0.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = c.forward(&x, Mode::Eval).unwrap();
        // Output (0,0) covers the 2x2 image entirely minus nothing: taps at
        // (0,0) position see pixels 1,2,3,4 => 10 (padding contributes 0).
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 10.0);
    }

    #[test]
    fn weight_gradient_matches_numeric() {
        let mut layer = tiny();
        let x = rand_tensor(&[1, 2, 4, 4], 21);
        let probe = rand_tensor(&[1, 3, 4, 4], 22);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&probe).unwrap();
        let _ = y;
        let w0 = layer.weight.value.as_slice().to_vec();
        let analytic = layer.weight.grad.as_slice().to_vec();
        let mut eval = |vals: &[f32]| {
            let mut l = tiny();
            l.weight.value.as_mut_slice().copy_from_slice(vals);
            let out = l.forward(&x, Mode::Train).unwrap();
            probe_loss(&out, &probe)
        };
        check_grad(&mut eval, &w0, &analytic, 1e-3, 2e-2);
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut layer = tiny();
        let x = rand_tensor(&[1, 2, 4, 4], 31);
        let probe = rand_tensor(&[1, 3, 4, 4], 32);
        layer.forward(&x, Mode::Train).unwrap();
        let dx = layer.backward(&probe).unwrap();
        let x0 = x.as_slice().to_vec();
        let mut eval = |vals: &[f32]| {
            let mut l = tiny();
            let xi = Tensor::from_vec(vals.to_vec(), &[1, 2, 4, 4]).unwrap();
            let out = l.forward(&xi, Mode::Train).unwrap();
            probe_loss(&out, &probe)
        };
        check_grad(&mut eval, &x0, dx.as_slice(), 1e-3, 2e-2);
    }

    #[test]
    fn bias_gradient_matches_numeric() {
        let mut layer = tiny();
        let x = rand_tensor(&[2, 2, 4, 4], 41);
        let probe = rand_tensor(&[2, 3, 4, 4], 42);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&probe).unwrap();
        let b0 = layer.bias.value.as_slice().to_vec();
        let analytic = layer.bias.grad.as_slice().to_vec();
        let mut eval = |vals: &[f32]| {
            let mut l = tiny();
            l.bias.value.as_mut_slice().copy_from_slice(vals);
            let out = l.forward(&x, Mode::Train).unwrap();
            probe_loss(&out, &probe)
        };
        check_grad(&mut eval, &b0, &analytic, 1e-3, 2e-2);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut layer = tiny();
        let x = rand_tensor(&[1, 2, 4, 4], 51);
        let probe = rand_tensor(&[1, 3, 4, 4], 52);
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&probe).unwrap();
        let once = layer.weight.grad.clone();
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&probe).unwrap();
        let twice = layer.weight.grad.clone();
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-4);
        }
    }

    /// Test-only reference: the naive GEMM, each element summed in
    /// ascending `k` from +0.0, skipping zero `a` when `skip_zero_a`.
    fn naive(
        (m, n, k): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        skip_zero_a: bool,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = a(i, p);
                    if !(skip_zero_a && av == 0.0) {
                        acc += av * b(p, j);
                    }
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Test-only reference for one forward and backward: the per-image
    /// algorithm — one image's `im2col`, the naive GEMM with the zero-skip
    /// rule of the product it replaces (forward and dX skip zero weights,
    /// dW skips nothing), and `col2im` — accumulating into `dw` and `db`.
    /// Returns the output and `dL/dx`.
    fn reference_step(
        layer: &Conv2d,
        x: &Tensor,
        dy: &Tensor,
        dw: &mut [f32],
        db: &mut [f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let geom = layer.geom(x.shape()[2], x.shape()[3]);
        let (fan_in, p, len, out_c) = (
            geom.patch_len(),
            geom.n_patches(),
            geom.image_len(),
            layer.out_c,
        );
        let (w, bias) = (layer.weight.value.as_slice(), layer.bias.value.as_slice());
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        for (img, dyi) in x
            .as_slice()
            .chunks_exact(len)
            .zip(dy.as_slice().chunks_exact(out_c * p))
        {
            let cols = im2col(img, &geom, Lowering::FanInMajor).unwrap();
            let cols = cols.as_slice();
            let yi = naive(
                (out_c, p, fan_in),
                |c, f| w[c * fan_in + f],
                |f, q| cols[f * p + q],
                true,
            );
            for (c, &b) in bias.iter().enumerate() {
                y.extend(yi[c * p..(c + 1) * p].iter().map(|&v| v + b));
            }
            let dwi = naive(
                (out_c, fan_in, p),
                |c, q| dyi[c * p + q],
                |q, f| cols[f * p + q],
                false,
            );
            for (g, d) in dw.iter_mut().zip(dwi) {
                *g += d;
            }
            for (c, g) in db.iter_mut().enumerate() {
                let s: f32 = dyi[c * p..(c + 1) * p].iter().sum();
                *g += s;
            }
            let dcols = naive(
                (fan_in, p, out_c),
                |f, c| w[c * fan_in + f],
                |c, q| dyi[c * p + q],
                true,
            );
            let mut dxi = vec![0.0f32; len];
            col2im(
                &Tensor::from_vec(dcols, &[fan_in, p]).unwrap(),
                &geom,
                &mut dxi,
            )
            .unwrap();
            dx.extend(dxi);
        }
        (y, dx)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A layer with whole filters and input channels zeroed — the pattern
    /// C/F pruning leaves — and a non-zero bias.
    fn pruned_layer(
        (in_c, out_c, kernel, stride, pad): (usize, usize, usize, usize, usize),
        seed: u64,
    ) -> Conv2d {
        let mut layer = Conv2d::new(in_c, out_c, kernel, stride, pad, seed);
        let fan_in = in_c * kernel * kernel;
        let w = layer.weight.value.as_mut_slice();
        for (f, filter) in w.chunks_exact_mut(fan_in).enumerate() {
            if (seed as usize + f).is_multiple_of(3) {
                filter.fill(0.0);
            }
            for (ch, taps) in filter.chunks_exact_mut(kernel * kernel).enumerate() {
                if (seed as usize + ch) % 4 == 1 {
                    taps.fill(0.0);
                }
            }
        }
        layer.bias.value = rand_tensor(&[out_c], seed ^ 0xB1A5);
        layer
    }

    /// Two forward/backward steps of the batched layer against the
    /// per-image reference, bit for bit: outputs, input gradients, and the
    /// weight and bias gradients accumulated over both backward calls.
    fn check_against_reference(mut layer: Conv2d, n: usize, h: usize, w: usize, seed: u64) {
        let reference = layer.clone();
        let mut dw = vec![0.0f32; layer.weight.value.len()];
        let mut db = vec![0.0f32; layer.out_c];
        for step in 0..2u64 {
            let mut x = rand_tensor(&[n, layer.in_c, h, w], seed + 10 * step);
            // A zeroed input channel in the first image.
            x.as_mut_slice()[..h * w].fill(0.0);
            let y = layer.forward(&x, Mode::Train).unwrap();
            let dy = rand_tensor(y.shape(), seed + 10 * step + 1);
            let dx = layer.backward(&dy).unwrap();
            let (want_y, want_dx) = reference_step(&reference, &x, &dy, &mut dw, &mut db);
            let geom = layer.geom(h, w);
            assert_eq!(y.shape(), &[n, layer.out_c, geom.out_h(), geom.out_w()]);
            assert_eq!(dx.shape(), x.shape());
            assert_eq!(bits(y.as_slice()), bits(&want_y), "forward, step {step}");
            assert_eq!(bits(dx.as_slice()), bits(&want_dx), "dX, step {step}");
            assert_eq!(
                bits(layer.weight.grad.as_slice()),
                bits(&dw),
                "dW, step {step}"
            );
            assert_eq!(
                bits(layer.bias.grad.as_slice()),
                bits(&db),
                "db, step {step}"
            );
        }
    }

    #[test]
    fn batches_spanning_several_lowering_groups_match_the_reference() {
        let dims = (16, 8, 3, 1, 1);
        let (h, w) = (20, 18);
        let layer = pruned_layer(dims, 3);
        // Two full groups and a one-image tail.
        let n = 2 * images_per_group(&layer.geom(h, w)) + 1;
        check_against_reference(layer, n, h, w, 61);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batched layer equals the per-image reference bit for bit.
        #[test]
        fn batched_conv_matches_the_per_image_reference(
            (in_c, out_c, n) in (1usize..5, 1usize..7, 1usize..=5),
            (kernel, stride, pad) in (prop_oneof![Just(1usize), Just(3)], 1usize..=2, 0usize..=1),
            (h, dw) in (3usize..10, 1usize..4),
            seed in 0u64..1_000,
        ) {
            // h ≠ w, and both at least the kernel.
            let w = h + dw;
            let layer = pruned_layer((in_c, out_c, kernel, stride, pad), seed);
            check_against_reference(layer, n, h, w, seed);
        }
    }
}
