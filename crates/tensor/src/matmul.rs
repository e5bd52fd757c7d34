//! Matrix multiplication: one register-blocked GEMM kernel behind every
//! matrix product in the workspace.
//!
//! Four entry points share the kernel:
//!
//! * [`Tensor::matmul`]      — `C = A · B`
//! * [`Tensor::matmul_at_b`] — `C = Aᵀ · B`
//! * [`Tensor::matmul_a_bt`] — `C = A · Bᵀ`
//! * [`Tensor::add_matmuls`] — `C += A₀·B₀`, then `C += A₁·B₁`, … (the
//!   convolution weight gradient, one image at a time)
//!
//! # Summation contract
//!
//! Every output element is its products `a·b` summed in ascending `k`,
//! starting from +0.0; [`Tensor::add_matmuls`] forms each product's sum that
//! way and then adds it to `C`, in batch order. `matmul` and `matmul_at_b`
//! skip the products whose `a` is zero, so a zero weight never turns an
//! infinite or NaN input into NaN; `matmul_a_bt` and `add_matmuls` do not.
//! Nothing else about a call changes a sum: not the shapes, not the other
//! rows and columns computed alongside it, not the thread count and not the
//! SIMD instantiation. Every non-NaN result is therefore bit-identical to
//! the naive triple loop, and every NaN sits where it would (LLVM treats
//! `fmul`/`fadd` as commutative, so NaN payloads may differ). Appending
//! columns to `B` — more images in a convolution's patch matrix — changes
//! no existing element.
//!
//! # Kernel
//!
//! Each thread owns a contiguous block of `C`'s rows. It packs its rows of
//! `A` into `MR`-row slivers and, one at a time, each `NR`-column sliver of
//! `B`; an `MR×NR` micro-tile then runs the `k` loop in registers, one
//! multiply and one add per product (never a fused multiply-add). A fresh
//! product runs `k` in blocks of `KC` steps, carrying each running sum
//! through `C` between blocks (load, continue adding, store);
//! [`Tensor::add_matmuls`] runs each product's whole `k` in registers and
//! then adds the sum to `C`. Packing through strides lets one kernel read
//! row-major and transposed operands alike. The zero skip costs a
//! branch only on a `B` sliver that holds an infinity or NaN: for finite
//! `b`, `0·b` is ±0, and adding ±0 to a sum that started at +0.0 leaves it
//! unchanged, because a round-to-nearest sum starting at +0.0 is never −0.
//!
//! On x86-64 the kernel is compiled three times — for AVX-512F, for AVX2
//! and portably — and dispatched at runtime in that order. FMA is never
//! enabled: contraction would change roundings.

use crate::shape::ShapeError;
use crate::Tensor;

/// Rows of `C` in one register micro-tile. With [`NR`] this keeps 64
/// accumulators live: four AVX-512 or eight AVX2 registers, enough
/// independent add chains to hide the add latency. Six- and eight-row
/// tiles measured many times slower: the accumulators no longer stayed in
/// registers.
const MR: usize = 4;

/// Columns of `C` in one register micro-tile: one 16-lane AVX-512 register
/// per row, two AVX2 ones.
const NR: usize = 16;

/// Steps of `k` per packed block when sums are carried through `C`: a
/// `KC×NR` sliver of `B` is 16 KiB and stays in L1 while every row sliver
/// of `A` streams past it, and a thread's packed `A` block stays small
/// whatever `k` is.
const KC: usize = 256;

/// Products with at least this many multiply-accumulates split `C`'s rows
/// over threads; smaller ones run on the calling thread, where spawning
/// would cost more than it saves.
const PARALLEL_THRESHOLD: usize = 1 << 20;

impl Tensor {
    /// Matrix product `C = A · B` for 2-D tensors.
    ///
    /// Each element sums its products in ascending `k` from +0.0, skipping
    /// those whose `A` entry is zero (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `A` is `m×k` and `B` is `k×n`.
    ///
    /// # Example
    ///
    /// ```
    /// use xbar_tensor::Tensor;
    /// # fn main() -> Result<(), xbar_tensor::ShapeError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul", self, other)?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul: inner dimensions differ ({k} vs {k2})"
            )));
        }
        product(Gemm {
            m,
            n,
            k,
            batch: 1,
            a: Strided::row_major(self.as_slice(), k),
            b: Strided::row_major(other.as_slice(), n),
            skip_zero_a: true,
            fresh: true,
        })
    }

    /// Matrix product `C = Aᵀ · B` without materialising `Aᵀ`.
    ///
    /// For `A` of shape `k×m` and `B` of shape `k×n`, produces `m×n`. Each
    /// element sums its products in ascending `k` from +0.0, skipping those
    /// whose `A` entry is zero.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either operand is not 2-D or the shared
    /// dimension differs.
    pub fn matmul_at_b(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul_at_b", self, other)?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_at_b: leading dimensions differ ({k} vs {k2})"
            )));
        }
        product(Gemm {
            m,
            n,
            k,
            batch: 1,
            a: Strided::transposed(self.as_slice(), m),
            b: Strided::row_major(other.as_slice(), n),
            skip_zero_a: true,
            fresh: true,
        })
    }

    /// Matrix product `C = A · Bᵀ` without materialising `Bᵀ`.
    ///
    /// For `A` of shape `m×k` and `B` of shape `n×k`, produces `m×n`. Each
    /// element sums all its products in ascending `k` from +0.0, zeros
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either operand is not 2-D or the shared
    /// dimension differs.
    pub fn matmul_a_bt(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        check_2d("matmul_a_bt", self, other)?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_a_bt: trailing dimensions differ ({k} vs {k2})"
            )));
        }
        product(Gemm {
            m,
            n,
            k,
            batch: 1,
            a: Strided::row_major(self.as_slice(), k),
            b: Strided::transposed(other.as_slice(), k),
            skip_zero_a: false,
            fresh: true,
        })
    }

    /// Adds `batch` matrix products to this `m×n` matrix, one after another:
    /// for `i` in `0..batch`, `C += Aᵢ · Bᵢ`, where `Aᵢ` is the `i`-th
    /// row-major `m×k` block of `a` and `Bᵢ` the `i`-th row-major `k×n`
    /// block of `b`.
    ///
    /// Each product is summed in ascending `k` from +0.0, zeros included,
    /// before it is added, so the result equals `batch` separate
    /// [`Tensor::matmul_a_bt`]-style products added in order — the
    /// per-image accumulation of a convolution's weight gradient.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `self` is 2-D, `a` holds `batch·m·k`
    /// values and `b` holds `batch·k·n`.
    pub fn add_matmuls(
        &mut self,
        a: &[f32],
        b: &[f32],
        k: usize,
        batch: usize,
    ) -> Result<(), ShapeError> {
        if self.ndim() != 2 {
            return Err(ShapeError::new(format!(
                "add_matmuls requires a 2-D accumulator, got rank {}",
                self.ndim()
            )));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if a.len() != batch * m * k || b.len() != batch * k * n {
            return Err(ShapeError::new(format!(
                "add_matmuls: {batch} products of {m}x{k} by {k}x{n} need {} and {} values, got {} and {}",
                batch * m * k,
                batch * k * n,
                a.len(),
                b.len()
            )));
        }
        let gemm = Gemm {
            m,
            n,
            k,
            batch,
            a: Strided {
                batch: m * k,
                ..Strided::row_major(a, k)
            },
            b: Strided {
                batch: k * n,
                ..Strided::row_major(b, n)
            },
            skip_zero_a: false,
            fresh: false,
        };
        gemm.run(self.as_mut_slice());
        Ok(())
    }

    /// Matrix–vector product `y = A · x` for a 2-D `A` and 1-D `x`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank or dimension mismatch.
    pub fn matvec(&self, x: &Tensor) -> Result<Tensor, ShapeError> {
        if self.ndim() != 2 || x.ndim() != 1 {
            return Err(ShapeError::new(
                "matvec requires a 2-D matrix and 1-D vector",
            ));
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        if x.len() != k {
            return Err(ShapeError::new(format!(
                "matvec: matrix has {k} columns but vector has {} elements",
                x.len()
            )));
        }
        let a = self.as_slice();
        let xv = x.as_slice();
        let out: Vec<f32> = (0..m)
            .map(|i| {
                a[i * k..(i + 1) * k]
                    .iter()
                    .zip(xv)
                    .map(|(&av, &xvv)| av * xvv)
                    .sum()
            })
            .collect();
        Tensor::from_vec(out, &[m])
    }
}

fn check_2d(op: &str, a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    if a.ndim() != 2 || b.ndim() != 2 {
        return Err(ShapeError::new(format!(
            "{op} requires 2-D operands, got ranks {} and {}",
            a.ndim(),
            b.ndim()
        )));
    }
    Ok(())
}

/// Runs a single product into a fresh zero matrix.
fn product(gemm: Gemm<'_>) -> Result<Tensor, ShapeError> {
    let mut out = vec![0.0f32; gemm.m * gemm.n];
    gemm.run(&mut out);
    Tensor::from_vec(out, &[gemm.m, gemm.n])
}

/// A matrix operand read through strides, so that one packing routine
/// serves row-major and transposed storage alike: element `(r, c)` of the
/// `i`-th matrix of a batch is `data[i·batch + r·row + c·col]`.
#[derive(Debug, Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    batch: usize,
    row: usize,
    col: usize,
}

impl<'a> Strided<'a> {
    /// A row-major matrix with `cols` columns.
    fn row_major(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            batch: 0,
            row: cols,
            col: 1,
        }
    }

    /// The transpose of a row-major matrix with `stored_cols` columns.
    fn transposed(data: &'a [f32], stored_cols: usize) -> Self {
        Self {
            data,
            batch: 0,
            row: 1,
            col: stored_cols,
        }
    }
}

/// One kernel call: `C[m×n] += Σᵢ Aᵢ[m×k] · Bᵢ[k×n]` over `i < batch`, in
/// order, each product summed from +0.0 before it is added.
#[derive(Debug, Clone, Copy)]
struct Gemm<'a> {
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    a: Strided<'a>,
    b: Strided<'a>,
    /// Skip the products whose `A` entry is zero.
    skip_zero_a: bool,
    /// `C` is zero on entry and `batch` is 1, so each sum may be carried
    /// through `C` between blocks of `k`. Otherwise every sum runs over the
    /// whole of `k` in registers before it is added to `C`.
    fresh: bool,
}

impl Gemm<'_> {
    /// Runs the call on the row-major `m×n` matrix `c`, splitting its rows
    /// over the thread budget when the call is large enough.
    fn run(&self, c: &mut [f32]) {
        let macs = self.m * self.n * self.k * self.batch;
        let workers = if macs < PARALLEL_THRESHOLD {
            1
        } else {
            crate::threads::max_threads()
        };
        self.run_on(c, workers);
    }

    /// [`Gemm::run`] on at most `workers` threads. Threads never split `k`
    /// or the batch: each one runs every sum of its rows to the end, so the
    /// result is the same bits whatever the worker count.
    fn run_on(&self, c: &mut [f32], workers: usize) {
        debug_assert_eq!(c.len(), self.m * self.n);
        if self.m == 0 || self.n == 0 {
            return;
        }
        let slivers = self.m.div_ceil(MR);
        let workers = workers.min(slivers);
        if workers <= 1 {
            gemm_rows(self, 0, c);
            return;
        }
        let rows_per = slivers.div_ceil(workers) * MR;
        std::thread::scope(|scope| {
            let mut chunks = c.chunks_mut(rows_per * self.n);
            let first = chunks.next();
            for (t, chunk) in chunks.enumerate() {
                scope.spawn(move || gemm_rows(self, (t + 1) * rows_per, chunk));
            }
            if let Some(chunk) = first {
                gemm_rows(self, 0, chunk);
            }
        });
    }
}

/// Runtime-dispatched kernel over the block of `C` rows starting at `row0`
/// (`c` holds whole rows): AVX-512F, then AVX2, then portable. All three
/// compile the identical IEEE multiply/add sequence, so results are
/// bit-identical across dispatch targets.
fn gemm_rows(gemm: &Gemm<'_>, row0: usize, c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was verified at runtime just above.
            return unsafe { gemm_rows_avx512(gemm, row0, c) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was verified at runtime just above.
            return unsafe { gemm_rows_avx2(gemm, row0, c) };
        }
    }
    gemm_rows_impl(gemm, row0, c)
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_rows_avx512(gemm: &Gemm<'_>, row0: usize, c: &mut [f32]) {
    gemm_rows_impl(gemm, row0, c)
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2(gemm: &Gemm<'_>, row0: usize, c: &mut [f32]) {
    gemm_rows_impl(gemm, row0, c)
}

/// The kernel body every instantiation compiles. For each `Aᵢ·Bᵢ` and each
/// block of at most [`KC`] steps of `k` (one block when sums are added, not
/// carried), it packs this thread's rows of `Aᵢ` once and each
/// `NR`-column sliver of `Bᵢ` in turn, and runs every `MR×NR` micro-tile
/// over the block.
#[inline(always)]
fn gemm_rows_impl(gemm: &Gemm<'_>, row0: usize, c: &mut [f32]) {
    let (n, k) = (gemm.n, gemm.k);
    let rows = c.len() / n;
    let kc_max = if gemm.fresh { KC } else { k.max(1) };
    let mut a_pack = vec![0.0f32; rows.div_ceil(MR) * MR * kc_max.min(k)];
    let mut b_pack = vec![0.0f32; kc_max.min(k) * NR];
    for i in 0..gemm.batch {
        // `k == 0` still runs one empty block, so every sum is added.
        for k0 in (0..k.max(1)).step_by(kc_max) {
            let kc = kc_max.min(k - k0);
            let a_pack = &mut a_pack[..rows.div_ceil(MR) * MR * kc];
            let b_pack = &mut b_pack[..kc * NR];
            pack_a(&gemm.a, i, row0, rows, k0, kc, a_pack);
            for j0 in (0..n).step_by(NR) {
                let cols = NR.min(n - j0);
                pack_b(&gemm.b, i, j0, cols, k0, b_pack);
                let skip = gemm.skip_zero_a && !all_finite(b_pack);
                for (s, r0) in (0..rows).step_by(MR).enumerate() {
                    let a_sliver = &a_pack[s * MR * kc..(s + 1) * MR * kc];
                    let tile = (r0, rows.min(r0 + MR), j0, j0 + cols);
                    let mut acc = [[0.0f32; NR]; MR];
                    if gemm.fresh {
                        // Carry the running sums through C: load, continue, store.
                        zip_tile(c, n, tile, &mut acc, |cv, x| *x = *cv);
                    }
                    acc = if skip {
                        micro_tile::<true>(acc, a_sliver, b_pack)
                    } else {
                        micro_tile::<false>(acc, a_sliver, b_pack)
                    };
                    if gemm.fresh {
                        zip_tile(c, n, tile, &mut acc, |cv, x| *cv = *x);
                    } else {
                        zip_tile(c, n, tile, &mut acc, |cv, x| *cv += *x);
                    }
                }
            }
        }
    }
}

/// Calls `f(c_value, acc_value)` over the tile `(r0, r1, j0, j1)` of the
/// row-major `C` with `n` columns, paired with the matching corner of
/// `acc`.
#[inline(always)]
fn zip_tile(
    c: &mut [f32],
    n: usize,
    (r0, r1, j0, j1): (usize, usize, usize, usize),
    acc: &mut [[f32; NR]; MR],
    f: impl Fn(&mut f32, &mut f32),
) {
    for (r, acc_row) in (r0..r1).zip(acc.iter_mut()) {
        for (cv, x) in c[r * n + j0..r * n + j1].iter_mut().zip(acc_row.iter_mut()) {
            f(cv, x);
        }
    }
}

/// Continues the `MR×NR` block of sums `acc` over one block of `k`: `a` is
/// an `MR`-row sliver packed `[k][MR]`, `b` an `NR`-column sliver packed
/// `[k][NR]`.
#[inline(always)]
fn micro_tile<const SKIP_ZERO_A: bool>(
    mut acc: [[f32; NR]; MR],
    a: &[f32],
    b: &[f32],
) -> [[f32; NR]; MR] {
    let (a, _) = a.as_chunks::<MR>();
    let (b, _) = b.as_chunks::<NR>();
    for (ap, bp) in a.iter().zip(b) {
        for (acc_row, &av) in acc.iter_mut().zip(ap) {
            if SKIP_ZERO_A && av == 0.0 {
                continue;
            }
            for (x, &bv) in acc_row.iter_mut().zip(bp) {
                *x += av * bv;
            }
        }
    }
    acc
}

/// Packs rows `row0..row0 + rows`, steps `k0..k0 + kc` of `Aᵢ` as
/// `MR`-row slivers, each laid out `[kc][MR]`; rows past the block are zero.
#[inline(always)]
fn pack_a(
    a: &Strided<'_>,
    i: usize,
    row0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    out: &mut [f32],
) {
    let base = i * a.batch + row0 * a.row + k0 * a.col;
    for s in 0..rows.div_ceil(MR) {
        for p in 0..kc {
            for r in 0..MR {
                let row = s * MR + r;
                out[(s * kc + p) * MR + r] = if row < rows {
                    a.data[base + row * a.row + p * a.col]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs columns `j0..j0 + cols` of `Bᵢ`, from step `k0` on, as one sliver
/// laid out `[kc][NR]` (`out` holds `kc·NR` values); columns past `cols`
/// are zero.
#[inline(always)]
fn pack_b(b: &Strided<'_>, i: usize, j0: usize, cols: usize, k0: usize, out: &mut [f32]) {
    let base = i * b.batch + k0 * b.row + j0 * b.col;
    for (p, lanes) in out.chunks_exact_mut(NR).enumerate() {
        let start = base + p * b.row;
        if b.col == 1 && cols == NR {
            // A fixed-width copy compiles to vector moves, not a call.
            lanes.copy_from_slice(&b.data[start..start + NR]);
        } else if b.col == 1 {
            lanes[..cols].copy_from_slice(&b.data[start..start + cols]);
        } else {
            for (jj, x) in lanes[..cols].iter_mut().enumerate() {
                *x = b.data[start + jj * b.col];
            }
        }
        lanes[cols..].fill(0.0);
    }
}

/// Whether every value is finite (branch-free, so it vectorises).
#[inline(always)]
fn all_finite(values: &[f32]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test-only reference: the naive triple loop, every element of the
    /// `m×n` result summed in ascending `k` from +0.0, skipping zero `a`
    /// when `skip_zero_a`.
    fn naive(
        (m, n, k): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        skip_zero_a: bool,
    ) -> Tensor {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = a(i, p);
                    if skip_zero_a && av == 0.0 {
                        continue;
                    }
                    acc += av * b(p, j);
                }
                c[i * n + j] = acc;
            }
        }
        Tensor::from_vec(c, &[m, n]).unwrap()
    }

    /// Identical bits for every non-NaN value, NaN in the same positions.
    fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
        if got.len() != want.len() {
            return Err(format!("length {} vs {}", got.len(), want.len()));
        }
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                g.to_bits() == w.to_bits()
            };
            if !same {
                return Err(format!("element {idx}: {g:?} vs {w:?}"));
            }
        }
        Ok(())
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape());
        if let Err(e) = same_bits(got.as_slice(), want.as_slice()) {
            panic!("{e}");
        }
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        // Simple xorshift so the test has no RNG dependency.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_fn(shape, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 500.0
        })
    }

    /// Reference for [`Tensor::matmul`].
    fn naive_ab(a: &Tensor, b: &Tensor) -> Tensor {
        let dims = (a.rows(), b.cols(), a.cols());
        naive(dims, |i, p| a.at2(i, p), |p, j| b.at2(p, j), true)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_tensor(&[7, 11], 1);
        let b = rand_tensor(&[11, 5], 2);
        assert_same_bits(&a.matmul(&b).unwrap(), &naive_ab(&a, &b));
    }

    #[test]
    fn matmul_large_parallel_matches_naive() {
        // 130·90·117 multiply-accumulates: above the threshold, so the rows
        // split over threads.
        let a = rand_tensor(&[130, 90], 3);
        let b = rand_tensor(&[90, 117], 4);
        const { assert!(130 * 90 * 117 >= PARALLEL_THRESHOLD) };
        assert_same_bits(&a.matmul(&b).unwrap(), &naive_ab(&a, &b));
        let at = a.transpose();
        assert_same_bits(&at.matmul_at_b(&b).unwrap(), &naive_ab(&a, &b));
        let bt = b.transpose();
        let want = naive(
            (130, 117, 90),
            |i, p| a.at2(i, p),
            |p, j| b.at2(p, j),
            false,
        );
        assert_same_bits(&a.matmul_a_bt(&bt).unwrap(), &want);
    }

    #[test]
    fn every_worker_count_gives_the_same_bits() {
        // 37 rows are 10 register slivers, so 1..=5 workers each get a
        // different split with a ragged last block; k crosses a KC block.
        let (m, n, k, batch) = (37, 29, KC + 45, 2);
        let mut a = rand_tensor(&[batch * m, k], 41);
        let b = rand_tensor(&[batch * k, n], 42);
        a.as_mut_slice()[3 * k..4 * k].fill(0.0);
        let (av, bv) = (a.as_slice(), b.as_slice());
        let calls = [
            // A fresh product whose sums carry through C between k blocks.
            Gemm {
                m,
                n,
                k,
                batch: 1,
                a: Strided::row_major(av, k),
                b: Strided::row_major(bv, n),
                skip_zero_a: true,
                fresh: true,
            },
            // A batch of products added in order (the dW accumulation).
            Gemm {
                m,
                n,
                k,
                batch,
                a: Strided {
                    batch: m * k,
                    ..Strided::row_major(av, k)
                },
                b: Strided {
                    batch: k * n,
                    ..Strided::row_major(bv, n)
                },
                skip_zero_a: false,
                fresh: false,
            },
        ];
        for (call, gemm) in calls.iter().enumerate() {
            let mut one = vec![0.0f32; m * n];
            gemm.run_on(&mut one, 1);
            for workers in 2..=5 {
                let mut c = vec![0.0f32; m * n];
                gemm.run_on(&mut c, workers);
                if let Err(e) = same_bits(&c, &one) {
                    panic!("call {call}, {workers} workers: {e}");
                }
            }
        }
        let want = naive((m, n, k), |i, p| av[i * k + p], |p, j| bv[p * n + j], true);
        let mut c = vec![0.0f32; m * n];
        calls[0].run_on(&mut c, 3);
        if let Err(e) = same_bits(&c, want.as_slice()) {
            panic!("3 workers vs the oracle: {e}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = rand_tensor(&[6, 6], 5);
        assert_eq!(a.matmul(&Tensor::eye(6)).unwrap(), a);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = rand_tensor(&[9, 4], 6);
        let b = rand_tensor(&[9, 7], 7);
        let want = naive((4, 7, 9), |i, p| a.at2(p, i), |p, j| b.at2(p, j), true);
        let got = a.matmul_at_b(&b).unwrap();
        assert_same_bits(&got, &want);
        assert_same_bits(&got, &a.transpose().matmul(&b).unwrap());
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = rand_tensor(&[5, 8], 8);
        let b = rand_tensor(&[6, 8], 9);
        let want = naive((5, 6, 8), |i, p| a.at2(i, p), |p, j| b.at2(j, p), false);
        let got = a.matmul_a_bt(&b).unwrap();
        assert_same_bits(&got, &want);
        assert_same_bits(&got, &a.matmul(&b.transpose()).unwrap());
    }

    #[test]
    fn k_blocks_carry_each_sum_through_c() {
        // k spans three KC blocks; A has zeros and B an infinity, so the
        // skip rule applies inside a block too.
        let (m, n, k) = (9, 21, 2 * KC + 37);
        let mut a = rand_tensor(&[m, k], 31);
        let mut b = rand_tensor(&[k, n], 32);
        a.as_mut_slice()[KC + 5] = 0.0;
        b.as_mut_slice()[(KC + 5) * n] = f32::INFINITY;
        let (av, bv) = (a.as_slice(), b.as_slice());
        for (name, kernel) in instantiations() {
            for skip_zero_a in [true, false] {
                let want = naive(
                    (m, n, k),
                    |i, p| av[i * k + p],
                    |p, j| bv[p * n + j],
                    skip_zero_a,
                );
                let gemm = Gemm {
                    m,
                    n,
                    k,
                    batch: 1,
                    a: Strided::row_major(av, k),
                    b: Strided::row_major(bv, n),
                    skip_zero_a,
                    fresh: true,
                };
                let mut c = vec![0.0f32; m * n];
                kernel(&gemm, 0, &mut c);
                if let Err(e) = same_bits(&c, want.as_slice()) {
                    panic!("{name} skip={skip_zero_a}: {e}");
                }
            }
        }
        let want = naive((m, n, k), |i, p| av[i * k + p], |p, j| bv[p * n + j], true);
        assert_same_bits(&a.matmul(&b).unwrap(), &want);
    }

    #[test]
    fn add_matmuls_adds_each_product_in_order() {
        let (m, n, k, batch) = (6, 19, 5, 3);
        let a = rand_tensor(&[batch, m, k], 21);
        let b = rand_tensor(&[batch, k, n], 22);
        let mut c = rand_tensor(&[m, n], 23);
        let mut want = c.clone();
        for i in 0..batch {
            let part = naive(
                (m, n, k),
                |r, p| a.as_slice()[(i * m + r) * k + p],
                |p, j| b.as_slice()[(i * k + p) * n + j],
                false,
            );
            for (w, v) in want.as_mut_slice().iter_mut().zip(part.as_slice()) {
                *w += v;
            }
        }
        c.add_matmuls(a.as_slice(), b.as_slice(), k, batch).unwrap();
        assert_same_bits(&c, &want);
        assert!(c.add_matmuls(a.as_slice(), b.as_slice(), k, 2).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = rand_tensor(&[5, 3], 10);
        let x = rand_tensor(&[3], 11);
        let xm = x.reshape(&[3, 1]).unwrap();
        let want = a.matmul(&xm).unwrap();
        let got = a.matvec(&x).unwrap().reshape(&[5, 1]).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn dimension_errors() {
        let a = rand_tensor(&[2, 3], 12);
        let b = rand_tensor(&[4, 2], 13);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_at_b(&b).is_err());
        assert!(a.matmul_a_bt(&b).is_err());
        let v = rand_tensor(&[5], 14);
        assert!(a.matvec(&v).is_err());
    }

    #[test]
    fn degenerate_shapes_multiply() {
        let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let col = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3, 1]).unwrap();
        let dot = row.matmul(&col).unwrap();
        assert_eq!(dot.shape(), &[1, 1]);
        assert_eq!(dot.as_slice(), &[32.0]);
        let outer = col.matmul(&row).unwrap();
        assert_eq!(outer.shape(), &[3, 3]);
        assert_eq!(outer.at2(2, 0), 6.0);
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.as_slice().iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn rank_errors() {
        let a = rand_tensor(&[2, 3, 4], 15);
        let b = rand_tensor(&[3, 4], 16);
        assert!(a.matmul(&b).is_err());
    }

    type Instantiation = fn(&Gemm<'_>, usize, &mut [f32]);

    /// The portable kernel and every SIMD instantiation this CPU can run.
    fn instantiations() -> Vec<(&'static str, Instantiation)> {
        let mut paths: Vec<(&'static str, Instantiation)> = vec![("portable", gemm_rows_impl)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                paths.push(("avx2", |g, row0, c| {
                    // SAFETY: AVX2 support was verified at runtime above.
                    unsafe { gemm_rows_avx2(g, row0, c) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(("avx512f", |g, row0, c| {
                    // SAFETY: AVX-512F support was verified at runtime above.
                    unsafe { gemm_rows_avx512(g, row0, c) }
                }));
            }
        }
        paths
    }

    /// A entries: zero rows, scattered zeros, and finite values.
    fn a_values(len: usize, cols: usize) -> impl Strategy<Value = Vec<f32>> {
        (
            proptest::collection::vec(prop_oneof![1 => Just(0.0f32), 3 => -4.0f32..4.0], len),
            proptest::collection::vec(0u8..6, len.div_ceil(cols.max(1))),
        )
            .prop_map(move |(mut values, zero_rows)| {
                for (row, &z) in values.chunks_mut(cols.max(1)).zip(&zero_rows) {
                    if z == 0 {
                        row.fill(0.0);
                    }
                }
                values
            })
    }

    /// B entries: finite values with ±inf and NaN mixed in.
    fn b_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(
            prop_oneof![
                16 => -4.0f32..4.0,
                1 => Just(f32::INFINITY),
                1 => Just(f32::NEG_INFINITY),
                1 => Just(f32::NAN),
            ],
            len,
        )
    }

    fn shapes_and_values() -> impl Strategy<Value = ((usize, usize, usize), Vec<f32>, Vec<f32>)> {
        (0usize..=70, 0usize..=70, 0usize..=70)
            .prop_flat_map(|(m, n, k)| (Just((m, n, k)), a_values(m * k, k), b_values(k * n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every entry point, and every kernel instantiation behind them,
        /// equals the naive oracle bit for bit (NaN positions included) on
        /// shapes that cross every register-tile edge.
        #[test]
        fn every_entry_point_and_instantiation_matches_the_oracle(
            ((m, n, k), a, b) in shapes_and_values()
        ) {
            // A is m×k and B is k×n, both row-major.
            let at = |i: usize, p: usize| a[i * k + p];
            let bt = |p: usize, j: usize| b[p * n + j];
            let skip = naive((m, n, k), at, bt, true);
            let no_skip = naive((m, n, k), at, bt, false);
            let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
            let tb = Tensor::from_vec(b.clone(), &[k, n]).unwrap();

            let check = |got: &Tensor, want: &Tensor, what: &str| {
                let (gs, ws) = (got.shape(), want.shape());
                prop_assert_eq!(gs, ws, "{what} {m}x{n}x{k}: shape {gs:?} vs {ws:?}");
                same_bits(got.as_slice(), want.as_slice())
                    .map_err(|e| TestCaseError::fail(format!("{what} {m}x{n}x{k}: {e}")))
            };
            check(&ta.matmul(&tb).unwrap(), &skip, "matmul")?;
            check(&ta.transpose().matmul_at_b(&tb).unwrap(), &skip, "matmul_at_b")?;
            check(&ta.matmul_a_bt(&tb.transpose()).unwrap(), &no_skip, "matmul_a_bt")?;
            let mut acc = Tensor::zeros(&[m, n]);
            acc.add_matmuls(&a, &b, k, 1).unwrap();
            check(&acc, &no_skip, "add_matmuls")?;

            for (name, kernel) in instantiations() {
                for (skip_zero_a, want) in [(true, &skip), (false, &no_skip)] {
                    let gemm = Gemm {
                        m,
                        n,
                        k,
                        batch: 1,
                        a: Strided::row_major(&a, k),
                        b: Strided::row_major(&b, n),
                        skip_zero_a,
                        fresh: true,
                    };
                    let mut c = vec![0.0f32; m * n];
                    if n > 0 {
                        kernel(&gemm, 0, &mut c);
                    }
                    let c = Tensor::from_vec(c, &[m, n]).unwrap();
                    check(&c, want, &format!("{name} skip={skip_zero_a}"))?;
                }
            }
        }
    }
}
