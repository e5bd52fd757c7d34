//! Convolution lowering: `im2col` and its adjoint `col2im`.
//!
//! The paper's hardware evaluation framework "unrolls each and every
//! convolution operation in the software DNN into MAC operations" — that is
//! exactly what `im2col` does. A convolution with weight `(out_c, in_c, kh,
//! kw)` becomes a matrix product between the `out_c × (in_c·kh·kw)` reshaped
//! weight and the `(in_c·kh·kw) × (out_h·out_w)` patch matrix produced here.
//! Both functions work on a group of images at once, so that one matrix
//! product covers the whole group.

use crate::shape::ShapeError;
use crate::Tensor;
use std::ops::Range;

/// Geometry of a 2-D convolution over a single `(in_c, h, w)` image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height of the convolution.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width of the convolution.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the patch matrix: `in_c * kh * kw` (the fan-in of one output
    /// pixel, and the row count of the unrolled crossbar weight matrix).
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Columns of the patch matrix: `out_h * out_w`.
    pub fn n_patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Values in one `(in_c, h, w)` input image.
    pub fn image_len(&self) -> usize {
        self.in_c * self.h * self.w
    }

    /// Validates that the geometry is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the image is empty, the kernel (plus
    /// padding) does not fit the image or stride is zero.
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.stride == 0 {
            return Err(ShapeError::new("convolution stride must be non-zero"));
        }
        if self.image_len() == 0 {
            return Err(ShapeError::new(format!(
                "convolution input {}x{}x{} is empty",
                self.in_c, self.h, self.w
            )));
        }
        if self.h + 2 * self.pad < self.kh || self.w + 2 * self.pad < self.kw {
            return Err(ShapeError::new(format!(
                "kernel {}x{} does not fit padded image {}x{}",
                self.kh,
                self.kw,
                self.h + 2 * self.pad,
                self.w + 2 * self.pad
            )));
        }
        Ok(())
    }
}

/// Layout of a lowered patch matrix for a group of images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// `[patch_len, images·n_patches]`: one column per output pixel, the
    /// images side by side. The `B` operand of a convolution's forward and
    /// input-gradient products: appending an image appends columns, which
    /// changes no other column's sums.
    FanInMajor,
    /// `[images·n_patches, patch_len]`: one row per output pixel, so each
    /// image's rows form a contiguous row-major block — the `Bᵢ` operands
    /// of the per-image weight-gradient products.
    PatchMajor,
}

/// Lowers a group of `(in_c, h, w)` images, stored back to back in
/// `images`, to one patch matrix laid out as `layout` says.
///
/// # Errors
///
/// Returns [`ShapeError`] if the geometry is invalid or `images` does not
/// hold a whole number of images.
pub fn im2col(images: &[f32], geom: &ConvGeom, layout: Lowering) -> Result<Tensor, ShapeError> {
    let count = image_count("im2col", images.len(), geom)?;
    let (ow, n_patches, patch_len) = (geom.out_w(), geom.n_patches(), geom.patch_len());
    let total = count * n_patches;
    let mut out = vec![0.0f32; patch_len * total];
    for (g, src) in images.chunks_exact(geom.image_len()).enumerate() {
        for_each_row_segment(geom, |row, oy, oxs, pixels| {
            let first = g * n_patches + oy * ow;
            match layout {
                Lowering::FanInMajor => {
                    let dst = &mut out[row * total + first..][..ow][oxs];
                    for (d, &v) in dst.iter_mut().zip(src[pixels].iter().step_by(geom.stride)) {
                        *d = v;
                    }
                }
                Lowering::PatchMajor => {
                    let values = src[pixels].iter().step_by(geom.stride);
                    for (ox, &v) in oxs.zip(values) {
                        out[(first + ox) * patch_len + row] = v;
                    }
                }
            }
        });
    }
    let shape = match layout {
        Lowering::FanInMajor => [patch_len, total],
        Lowering::PatchMajor => [total, patch_len],
    };
    Tensor::from_vec(out, &shape)
}

/// Adjoint of [`im2col`] with [`Lowering::FanInMajor`]: scatters a group's
/// patch-matrix gradient back onto its images, adding every contribution
/// into `images` (pass zeros for a fresh gradient). Each pixel receives its
/// contributions in patch-matrix row order, then output-pixel order.
///
/// # Errors
///
/// Returns [`ShapeError`] if the geometry is invalid, `images` does not hold
/// a whole number of images, or `cols` is not
/// `[patch_len, images·n_patches]`.
pub fn col2im(cols: &Tensor, geom: &ConvGeom, images: &mut [f32]) -> Result<(), ShapeError> {
    let count = image_count("col2im", images.len(), geom)?;
    let ow = geom.out_w();
    let n_patches = geom.n_patches();
    let total = count * n_patches;
    if cols.shape() != [geom.patch_len(), total] {
        return Err(ShapeError::mismatch(
            "col2im",
            &[geom.patch_len(), total],
            cols.shape(),
        ));
    }
    let src = cols.as_slice();
    for (g, dst) in images.chunks_exact_mut(geom.image_len()).enumerate() {
        for_each_row_segment(geom, |row, oy, oxs, pixels| {
            let values = &src[row * total + g * n_patches + oy * ow..][..ow][oxs];
            for (d, &v) in dst[pixels].iter_mut().step_by(geom.stride).zip(values) {
                *d += v;
            }
        });
    }
    Ok(())
}

/// Validates `geom` and counts the whole images in `len` values.
fn image_count(op: &str, len: usize, geom: &ConvGeom) -> Result<usize, ShapeError> {
    geom.validate()?;
    let image_len = geom.image_len();
    if !len.is_multiple_of(image_len) {
        return Err(ShapeError::new(format!(
            "{op}: {len} values is not a whole number of {}x{}x{} images",
            geom.in_c, geom.h, geom.w
        )));
    }
    Ok(len / image_len)
}

/// The outputs `o < out_len` whose tap `o·stride + offset` lands inside
/// `0..in_len`.
fn inside(out_len: usize, stride: usize, offset: isize, in_len: usize) -> Range<usize> {
    let s = stride as isize;
    let hi = ((in_len as isize - offset).max(0) + s - 1) / s;
    let lo = ((-offset).max(0) + s - 1) / s;
    let hi = (hi as usize).min(out_len);
    (lo as usize).min(hi)..hi
}

/// Walks one image's patch matrix row by row — `row = (c·kh + ky)·kw + kx`,
/// then output row `oy` — calling `f(row, oy, oxs, pixels)` for the output
/// columns `oxs` whose taps land inside the image; `pixels` is the input
/// span they read, every `stride`-th value. Taps in the padding are skipped:
/// their patch entries are zero.
#[inline(always)]
fn for_each_row_segment(
    geom: &ConvGeom,
    mut f: impl FnMut(usize, usize, Range<usize>, Range<usize>),
) {
    let (oh, ow, pad) = (geom.out_h(), geom.out_w(), geom.pad as isize);
    for c in 0..geom.in_c {
        for ky in 0..geom.kh {
            let oys = inside(oh, geom.stride, ky as isize - pad, geom.h);
            for kx in 0..geom.kw {
                let row = (c * geom.kh + ky) * geom.kw + kx;
                let oxs = inside(ow, geom.stride, kx as isize - pad, geom.w);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = (oxs.start * geom.stride + kx) - geom.pad;
                let span = (oxs.len() - 1) * geom.stride + 1;
                for oy in oys.clone() {
                    let iy = oy * geom.stride + ky - geom.pad;
                    let first = (c * geom.h + iy) * geom.w + ix0;
                    f(row, oy, oxs.clone(), first..first + span);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom(in_c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> ConvGeom {
        ConvGeom {
            in_c,
            h,
            w,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(1, 5, 5, 3, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
    }

    #[test]
    fn validate_catches_bad_geometry() {
        assert!(geom(1, 2, 2, 5, 1, 0).validate().is_err());
        let mut g = geom(1, 4, 4, 3, 1, 0);
        g.stride = 0;
        assert!(g.validate().is_err());
        assert!(geom(0, 4, 4, 1, 1, 0).validate().is_err());
        assert!(geom(1, 0, 4, 1, 1, 1).validate().is_err());
    }

    fn lower(img: &Tensor, g: &ConvGeom) -> Tensor {
        im2col(img.as_slice(), g, Lowering::FanInMajor).unwrap()
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: patch matrix equals flattened image.
        let img = Tensor::from_fn(&[2, 3, 3], |i| i as f32);
        let g = ConvGeom {
            in_c: 2,
            h: 3,
            w: 3,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let cols = lower(&img, &g);
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        let img = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 3, 3]).unwrap();
        let g = geom(1, 3, 3, 2, 1, 0);
        let cols = lower(&img, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        // First patch (top-left): rows are kernel positions, column 0.
        assert_eq!(cols.col(0), vec![1.0, 2.0, 4.0, 5.0]);
        // Last patch (bottom-right).
        assert_eq!(cols.col(3), vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let img = Tensor::ones(&[1, 2, 2]);
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = lower(&img, &g);
        // Centre kernel tap always hits the image; corner taps hit padding at
        // corner patches.
        assert_eq!(cols.shape(), &[9, 4]);
        assert_eq!(cols.get(&[4, 0]).unwrap(), 1.0);
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
    }

    /// `col2im` is the adjoint of `im2col`: for any `x`, `y`,
    /// `<im2col(x), y> == <x, col2im(y)>`. This is the property the conv
    /// backward pass relies on.
    #[test]
    fn col2im_is_adjoint_of_im2col() {
        let g = geom(2, 6, 5, 3, 2, 1);
        let mut s = 12345u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f32 - 500.0) / 250.0
        };
        let x = Tensor::from_fn(&[g.in_c, g.h, g.w], |_| rnd());
        let y = Tensor::from_fn(&[g.patch_len(), g.n_patches()], |_| rnd());
        let ax = lower(&x, &g);
        let mut aty = vec![0.0f32; g.image_len()];
        col2im(&y, &g, &mut aty).unwrap();
        let lhs: f64 = ax
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(&aty)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn shape_errors() {
        let img = Tensor::ones(&[1, 3, 3]);
        let g = geom(2, 3, 3, 2, 1, 0);
        assert!(im2col(img.as_slice(), &g, Lowering::FanInMajor).is_err());
        let cols = Tensor::ones(&[3, 3]);
        let mut out = vec![0.0f32; g.image_len()];
        assert!(col2im(&cols, &g, &mut out).is_err());
        assert!(col2im(&cols, &g, &mut out[1..]).is_err());
    }

    /// Test-only reference: the per-tap loop, one image at a time.
    fn naive_im2col(image: &[f32], g: &ConvGeom) -> Vec<f32> {
        let (oh, ow, p) = (g.out_h(), g.out_w(), g.n_patches());
        let mut out = vec![0.0f32; g.patch_len() * p];
        for c in 0..g.in_c {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let row = (c * g.kh + ky) * g.kw + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize {
                                out[row * p + oy * ow + ox] =
                                    image[(c * g.h + iy as usize) * g.w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Test-only reference adjoint, accumulating in the same tap order.
    fn naive_col2im(cols: &[f32], g: &ConvGeom) -> Vec<f32> {
        let (oh, ow, p) = (g.out_h(), g.out_w(), g.n_patches());
        let mut out = vec![0.0f32; g.image_len()];
        for c in 0..g.in_c {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let row = (c * g.kh + ky) * g.kw + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize {
                                out[(c * g.h + iy as usize) * g.w + ix as usize] +=
                                    cols[row * p + oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn geometry() -> impl Strategy<Value = (ConvGeom, usize)> {
        (
            (1usize..4, 1usize..10, 1usize..10),
            (1usize..5, 1usize..5, 1usize..4, 0usize..3),
            1usize..4,
        )
            .prop_map(|((in_c, h, w), (kh, kw, stride, pad), images)| {
                let g = ConvGeom {
                    in_c,
                    h: h.max(kh),
                    w: w.max(kw),
                    kh,
                    kw,
                    stride,
                    pad,
                };
                (g, images)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both layouts hold exactly the per-tap reference's entries, image
        /// by image, and `col2im` adds each pixel's contributions in the
        /// reference's order, bit for bit.
        #[test]
        fn lowering_matches_the_per_tap_reference((g, images) in geometry(), seed in 0u64..1000) {
            let (len, p, k) = (g.image_len(), g.n_patches(), g.patch_len());
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2001) as f32 - 1000.0) / 300.0
            };
            let x: Vec<f32> = (0..images * len).map(|_| rnd()).collect();
            let y: Vec<f32> = (0..k * images * p).map(|_| rnd()).collect();
            let fan_in = im2col(&x, &g, Lowering::FanInMajor).unwrap();
            let rows = im2col(&x, &g, Lowering::PatchMajor).unwrap();
            prop_assert_eq!(fan_in.shape(), &[k, images * p]);
            prop_assert_eq!(rows.shape(), &[images * p, k]);
            let mut back = vec![0.0f32; images * len];
            col2im(&Tensor::from_vec(y.clone(), &[k, images * p]).unwrap(), &g, &mut back).unwrap();
            for i in 0..images {
                let want = naive_im2col(&x[i * len..(i + 1) * len], &g);
                let one_y: Vec<f32> = (0..k * p)
                    .map(|idx| y[(idx / p) * images * p + i * p + idx % p])
                    .collect();
                let want_back = naive_col2im(&one_y, &g);
                for r in 0..k {
                    for c in 0..p {
                        prop_assert_eq!(fan_in.at2(r, i * p + c).to_bits(), want[r * p + c].to_bits());
                        prop_assert_eq!(rows.at2(i * p + c, r).to_bits(), want[r * p + c].to_bits());
                    }
                }
                let got_back: Vec<u32> = back[i * len..(i + 1) * len].iter().map(|v| v.to_bits()).collect();
                let want_back: Vec<u32> = want_back.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_back, want_back);
            }
        }
    }
}
