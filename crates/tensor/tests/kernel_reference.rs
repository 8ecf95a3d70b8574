//! Every dense training kernel against a naive reference, bit for bit.
//!
//! The references are the plain loops the kernels replace: each matmul
//! output starts at +0 and adds its products in ascending `kk` order; each
//! conv1d output starts at its bias and adds its in-range taps in
//! `(ic, kk)` order, and its backward pass visits `(row, oc, pos)` in
//! ascending order with weight/bias partials per 16-row chunk. The shape
//! sweep covers every register-tile tail (rows around the 4-row tile and
//! the 16-row chunk, columns around the 8-column tile) and the rows on
//! either side of the `matmul_nt` pack switch.
//!
//! A second group checks IEEE semantics: a NaN or ±inf in one operand,
//! multiplied by a zero in the other, must reach the output.

use retia_tensor::{parallel, Graph, ParamStore, Tensor};

/// Rows 3 and 4 sit either side of `matmul_nt`'s pack switch.
const MS: [usize; 8] = [0, 1, 3, 4, 15, 16, 17, 33];
const KS: [usize; 5] = [0, 1, 7, 32, 512];
const NS: [usize; 5] = [1, 7, 8, 9, 200];

/// Deterministic pseudo-random tensor (SplitMix64) with exact zeros mixed
/// in, so a kernel that skipped zero operands would be noticed.
fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed;
    Tensor::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z.is_multiple_of(5) {
            0.0
        } else {
            ((z >> 40) as f32) / (1u64 << 24) as f32 - 0.5
        }
    })
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {idx}: got {x}, want {y}");
    }
}

/// `out[i, j] = Σ_kk a(i, kk) · b(kk, j)`, kk ascending from +0.
fn reference(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Tensor {
    Tensor::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..k {
            acc += a(i, kk) * b(kk, j);
        }
        acc
    })
}

fn for_each_shape(mut f: impl FnMut(usize, usize, usize, u64)) {
    let mut seed = 1;
    for &m in &MS {
        for &k in &KS {
            for &n in &NS {
                f(m, k, n, seed);
                seed += 2;
            }
        }
    }
}

#[test]
fn matmul_matches_naive_reference() {
    for_each_shape(|m, k, n, seed| {
        let a = rand_tensor(m, k, seed);
        let b = rand_tensor(k, n, seed + 1);
        let want = reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j));
        assert_bits_eq(&a.matmul(&b), &want, &format!("matmul [{m},{k}]x[{k},{n}]"));
    });
}

#[test]
fn matmul_nt_matches_naive_reference() {
    for_each_shape(|m, k, n, seed| {
        let a = rand_tensor(m, k, seed);
        let b = rand_tensor(n, k, seed + 1);
        let want = reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(j, kk));
        assert_bits_eq(&a.matmul_nt(&b), &want, &format!("matmul_nt [{m},{k}]x[{n},{k}]^T"));
    });
}

#[test]
fn matmul_nt_range_matches_naive_reference() {
    for_each_shape(|m, k, n, seed| {
        let a = rand_tensor(m, k, seed);
        let b = rand_tensor(n, k, seed + 1);
        for (lo, hi) in [(0, n), (0, n / 2), (n / 2, n), (n / 3, n - n / 3), (n, n)] {
            let want = reference(m, k, hi - lo, |i, kk| a.get(i, kk), |kk, j| b.get(lo + j, kk));
            let what = format!("matmul_nt_range [{m},{k}]x[{n},{k}][{lo}..{hi}]^T");
            assert_bits_eq(&a.matmul_nt_range(&b, lo, hi), &want, &what);
        }
    });
}

#[test]
fn matmul_tn_matches_naive_reference() {
    for_each_shape(|m, k, n, seed| {
        let a = rand_tensor(k, m, seed);
        let b = rand_tensor(k, n, seed + 1);
        let want = reference(m, k, n, |i, kk| a.get(kk, i), |kk, j| b.get(kk, j));
        assert_bits_eq(&a.matmul_tn(&b), &want, &format!("matmul_tn [{k},{m}]^Tx[{k},{n}]"));
    });
}

/// The conv1d geometry: `x` is `[batch, in_ch * width]`, `w` is
/// `[out_ch, in_ch * ksize]`, 'same' zero padding of `ksize / 2`.
#[derive(Clone, Copy, Debug)]
struct Conv {
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    width: usize,
    ksize: usize,
}

impl Conv {
    /// Input position tap `kk` reads for output position `pos`, if inside.
    fn src(&self, pos: usize, kk: usize) -> Option<usize> {
        (pos + kk).checked_sub(self.ksize / 2).filter(|&s| s < self.width)
    }

    fn forward(&self, x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let Conv { batch, in_ch, out_ch, width, ksize } = *self;
        Tensor::from_fn(batch, out_ch * width, |bi, col| {
            let (oc, pos) = (col / width, col % width);
            let mut acc = b.get(0, oc);
            for ic in 0..in_ch {
                for kk in 0..ksize {
                    if let Some(s) = self.src(pos, kk) {
                        acc += x.get(bi, ic * width + s) * w.get(oc, ic * ksize + kk);
                    }
                }
            }
            acc
        })
    }

    /// `(gx, gw, gb)` for upstream gradient `g`, in the kernel's order.
    fn backward(&self, x: &Tensor, w: &Tensor, g: &Tensor) -> (Tensor, Tensor, Tensor) {
        let Conv { batch, in_ch, out_ch, width, ksize } = *self;
        let mut gx = Tensor::zeros(batch, in_ch * width);
        let mut gw = Tensor::zeros(out_ch, in_ch * ksize);
        let mut gb = Tensor::zeros(1, out_ch);
        for chunk in parallel::row_chunks(batch) {
            let mut pw = Tensor::zeros(out_ch, in_ch * ksize);
            let mut pb = Tensor::zeros(1, out_ch);
            for bi in chunk {
                for oc in 0..out_ch {
                    for pos in 0..width {
                        let go = g.get(bi, oc * width + pos);
                        pb.set(0, oc, pb.get(0, oc) + go);
                        for ic in 0..in_ch {
                            for kk in 0..ksize {
                                let Some(s) = self.src(pos, kk) else { continue };
                                let (xi, wi) = (ic * width + s, ic * ksize + kk);
                                gx.set(bi, xi, gx.get(bi, xi) + go * w.get(oc, wi));
                                pw.set(oc, wi, pw.get(oc, wi) + go * x.get(bi, xi));
                            }
                        }
                    }
                }
            }
            gw.add_assign(&pw);
            gb.add_assign(&pb);
        }
        (gx, gw, gb)
    }

    /// Runs the graph op: forward value and the gradients for upstream
    /// gradient `up` (injected as `d/dy Σ (y ⊙ up)`).
    fn run(&self, x: &Tensor, w: &Tensor, b: &Tensor, up: &Tensor) -> [Tensor; 4] {
        let mut store = ParamStore::new(0);
        store.register("x", x.clone());
        store.register("w", w.clone());
        store.register("b", b.clone());
        let mut g = Graph::new(true, 0);
        let (xn, wn, bn) = (g.param(&store, "x"), g.param(&store, "w"), g.param(&store, "b"));
        let y = g.conv1d(xn, wn, bn, self.in_ch, self.out_ch, self.ksize);
        let upn = g.constant(up.clone());
        let weighted = g.mul(y, upn);
        let loss = g.sum_all(weighted);
        let out = g.value(y).clone();
        g.backward(loss, &mut store);
        [out, store.grad("x").clone(), store.grad("w").clone(), store.grad("b").clone()]
    }
}

#[test]
fn conv1d_forward_and_backward_match_naive_reference() {
    let mut seed = 100;
    for batch in [1usize, 17, 40] {
        for (in_ch, out_ch) in [(1usize, 1usize), (2, 3), (2, 16), (2, 0)] {
            for width in [0usize, 1, 2, 5, 32] {
                for ksize in [0usize, 1, 2, 3, 5] {
                    let c = Conv { batch, in_ch, out_ch, width, ksize };
                    let x = rand_tensor(batch, in_ch * width, seed);
                    let w = rand_tensor(out_ch, in_ch * ksize, seed + 1);
                    let b = rand_tensor(1, out_ch, seed + 2);
                    let up = rand_tensor(batch, out_ch * width, seed + 3);
                    seed += 4;
                    let [y, gx, gw, gb] = c.run(&x, &w, &b, &up);
                    let (rgx, rgw, rgb) = c.backward(&x, &w, &up);
                    assert_bits_eq(&y, &c.forward(&x, &w, &b), &format!("{c:?} forward"));
                    assert_bits_eq(&gx, &rgx, &format!("{c:?} grad x"));
                    assert_bits_eq(&gw, &rgw, &format!("{c:?} grad w"));
                    assert_bits_eq(&gb, &rgb, &format!("{c:?} grad b"));
                }
            }
        }
    }
}

// ---- IEEE semantics --------------------------------------------------------

const POISONS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// A `rows x cols` zero tensor with `v` at `(i, j)`.
fn one_hot(rows: usize, cols: usize, (i, j): (usize, usize), v: f32) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    t.set(i, j, v);
    t
}

fn assert_nan(t: &Tensor, i: usize, j: usize, what: &str) {
    assert!(t.get(i, j).is_nan(), "{what}: ({i},{j}) = {} but 0·poison must be NaN", t.get(i, j));
}

#[test]
fn matmul_family_propagates_poison_behind_zeros() {
    let (m, k, n) = (17, 9, 11);
    let (i, kk, j) = (5, 4, 9);
    for p in POISONS {
        // Poison in the right operand, zeros in the left: every row sees it.
        let zeros_mk = Tensor::zeros(m, k);
        let out = zeros_mk.matmul(&one_hot(k, n, (kk, j), p));
        assert_nan(&out, i, j, "matmul, poison in b");
        let out = zeros_mk.matmul_nt(&one_hot(n, k, (j, kk), p));
        assert_nan(&out, i, j, "matmul_nt, poison in b");
        let out = zeros_mk.matmul_nt_range(&one_hot(n, k, (j, kk), p), j, n);
        assert_nan(&out, i, 0, "matmul_nt_range, poison in b");
        let out = Tensor::zeros(k, m).matmul_tn(&one_hot(k, n, (kk, j), p));
        assert_nan(&out, i, j, "matmul_tn, poison in b");
        // Poison in the left operand, zeros in the right: every column.
        let out = one_hot(m, k, (i, kk), p).matmul(&Tensor::zeros(k, n));
        assert_nan(&out, i, j, "matmul, poison in a");
        let out = one_hot(m, k, (i, kk), p).matmul_nt(&Tensor::zeros(n, k));
        assert_nan(&out, i, j, "matmul_nt, poison in a");
        let out = one_hot(1, k, (0, kk), p).matmul_nt(&Tensor::zeros(n, k));
        assert_nan(&out, 0, j, "matmul_nt unpacked path, poison in a");
        let out = one_hot(k, m, (kk, i), p).matmul_tn(&Tensor::zeros(k, n));
        assert_nan(&out, i, j, "matmul_tn, poison in a");
    }
}

#[test]
fn conv1d_propagates_poison_behind_zeros() {
    let c = Conv { batch: 3, in_ch: 2, out_ch: 4, width: 8, ksize: 3 };
    let (bi, ic, oc, kk, pos) = (1, 1, 2, 0, 5);
    let s = c.src(pos, kk).expect("interior tap");
    let (xcols, wcols, ycols) = (c.in_ch * c.width, c.in_ch * c.ksize, c.out_ch * c.width);
    let (x_at, w_at, y_at) =
        ((bi, ic * c.width + s), (oc, ic * c.ksize + kk), (bi, oc * c.width + pos));
    let zero_x = Tensor::zeros(c.batch, xcols);
    let zero_w = Tensor::zeros(c.out_ch, wcols);
    let zero_b = Tensor::zeros(1, c.out_ch);
    let zero_up = Tensor::zeros(c.batch, ycols);
    for p in POISONS {
        let poison_x = one_hot(c.batch, xcols, x_at, p);
        let poison_w = one_hot(c.out_ch, wcols, w_at, p);
        let poison_up = one_hot(c.batch, ycols, y_at, p);
        // Forward: x · w with one side zero.
        let [y, ..] = c.run(&poison_x, &zero_w, &zero_b, &zero_up);
        assert_nan(&y, y_at.0, y_at.1, "conv1d forward, poison in x");
        let [y, ..] = c.run(&zero_x, &poison_w, &zero_b, &zero_up);
        assert_nan(&y, y_at.0, y_at.1, "conv1d forward, poison in w");
        // Input gradient: upstream · w with one side zero.
        let [_, gx, ..] = c.run(&zero_x, &poison_w, &zero_b, &zero_up);
        assert_nan(&gx, x_at.0, x_at.1, "conv1d grad x, poison in w");
        let [_, gx, ..] = c.run(&zero_x, &zero_w, &zero_b, &poison_up);
        assert_nan(&gx, x_at.0, x_at.1, "conv1d grad x, poison upstream");
        // Weight gradient: upstream · x with one side zero.
        let [_, _, gw, _] = c.run(&poison_x, &zero_w, &zero_b, &zero_up);
        assert_nan(&gw, w_at.0, w_at.1, "conv1d grad w, poison in x");
        let [_, _, gw, _] = c.run(&zero_x, &zero_w, &zero_b, &poison_up);
        assert_nan(&gw, w_at.0, w_at.1, "conv1d grad w, poison upstream");
    }
}

#[test]
fn bit_identity_holds_across_thread_counts_on_the_sweep() {
    // The largest sweep shapes spread over worker threads; the reference
    // comparison above ran at the default count, this one pins 1 vs 3.
    let a = rand_tensor(33, 512, 7);
    let b = rand_tensor(512, 200, 8);
    let bt = rand_tensor(200, 512, 9);
    let at = rand_tensor(512, 33, 10);
    let run = |threads: usize| {
        parallel::set_num_threads(threads);
        let out = [a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b)];
        parallel::set_num_threads(0);
        out
    };
    assert!(parallel::should_par(33, 2 * 512 * 200));
    for (one, many) in run(1).iter().zip(run(3).iter()) {
        assert_bits_eq(many, one, "1 vs 3 threads");
    }
}
