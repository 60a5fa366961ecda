//! The shared serving/evaluation scorer: split-layer NCF.
//!
//! Offline evaluation and online serving must rank identically, so both
//! go through this one scorer instead of each hand-rolling the forward
//! pass. The NCF logit is `FFN([u, v])`; because the first layer is
//! linear in its input, it decomposes exactly into a **user half** and an
//! **item half**:
//!
//! ```text
//! pre₁[o] = (W₁ᵘ·u + b₁)[o]  +  (v · W₁ᵛᵀ)[o]
//!           └── user half ──┘    └─ item half ─┘
//! ```
//!
//! The item half depends only on the item row and the predictor, so a
//! serving batch computes it once per item *panel* as a blocked
//! [`Matrix::matmul_rows`] product and shares it across every user in the
//! batch; the user half is computed once per request instead of once per
//! `(user, item)` pair. The rest of the predictor — `relu(user half +
//! item half)` and every later layer — runs as one **panel pass**
//! ([`SplitNcf::score_panel`]): one user half against a whole panel of
//! item halves, 16 items at a time, with the items as the lanes of
//! each layer's accumulators. The pass stores no activations (scoring
//! never runs a backward pass), and its only scratch is one reusable
//! [`SplitWorkspace`] of lane buffers.
//!
//! **Determinism contract.** [`SplitNcf::item_half_into`] accumulates each
//! output lane over `k` in ascending order — exactly the per-element
//! summation chain of [`Matrix::matmul_rows`] — so the scalar path (used
//! for standalone-overlay corrections) and the blocked path produce
//! **bit-identical** item halves. Each lane of the panel pass reproduces
//! [`Ffn::forward`]'s chain for one pair: products over `k` ascending,
//! unfused, into an accumulator seeded with **−0.0** (the start value of
//! `f32`'s `Sum`, which [`hf_tensor::ops::dot`] uses; a +0.0 seed differs
//! when every product and the bias are −0.0), then the bias. A logit
//! therefore does not depend on the panel it sits in, its lane, or the
//! panel length, which is what lets `hetefedrec_core::eval` and `hf_serve`
//! share one scorer while batching however they like.
//!
//! Note the split logit is *not* bit-identical to the historical
//! monolithic [`crate::ncf::NcfEngine::forward`] chain (float addition is
//! not associative); the split form is the canonical scoring path — local
//! *training* keeps the monolithic engine, whose backward pass matches its
//! own forward.

use crate::ffn::Ffn;
use hf_tensor::ops::{dot, relu};
use hf_tensor::Matrix;

/// Items scored side by side in one step of [`SplitNcf::score_panel`]:
/// each layer keeps one `LANES`-wide accumulator per output unit.
const LANES: usize = 16;

/// One predictor layer after the first: `out x in` weights and the bias.
#[derive(Clone, Debug)]
struct Layer {
    weights: Matrix,
    bias: Vec<f32>,
}

/// Split-layer NCF scorer for one predictor at one embedding width.
#[derive(Clone, Debug)]
pub struct SplitNcf {
    dim: usize,
    h1: usize,
    /// First-layer weights over the user half, `h1 x dim` (row-major, as
    /// stored in the [`Ffn`]).
    w_user: Matrix,
    /// First-layer weights over the item half, **transposed** to
    /// `dim x h1` so an item panel `P (p x dim)` scores as `P · w_item`.
    w_item: Matrix,
    /// First-layer bias (folded into the user half).
    b1: Vec<f32>,
    /// Layers after the first (empty for a single linear layer `[2n, 1]`,
    /// where the logit is just the sum of halves).
    tail: Vec<Layer>,
    /// Widest layer input or output after the first layer.
    max_width: usize,
}

/// Reusable scratch for [`SplitNcf::score_panel`] and
/// [`SplitNcf::finish`]: two sets of lane buffers, one layer's input and
/// its output, each as wide as the predictor's widest hidden layer.
#[derive(Clone, Debug)]
pub struct SplitWorkspace {
    lanes: Vec<f32>,
}

impl SplitNcf {
    /// Builds the scorer from a predictor whose input width is `2 * dim`.
    ///
    /// # Panics
    /// Panics if `ffn.input_dim() != 2 * dim`.
    pub fn from_ffn(dim: usize, ffn: &Ffn) -> Self {
        let dims = ffn.dims();
        assert_eq!(dims[0], 2 * dim, "predictor width must be 2*dim");
        let h1 = dims[1];
        let flat = ffn.to_flat();
        let w0 = &flat[..h1 * 2 * dim]; // h1 x 2dim, row-major
        let b1 = flat[h1 * 2 * dim..h1 * 2 * dim + h1].to_vec();
        let w_user = Matrix::from_fn(h1, dim, |o, j| w0[o * 2 * dim + j]);
        let w_item = Matrix::from_fn(dim, h1, |k, o| w0[o * 2 * dim + dim + k]);
        // Later layers in the `Ffn::to_flat` layout: per layer, row-major
        // `out x in` weights, then the bias.
        let mut offset = h1 * 2 * dim + h1;
        let tail: Vec<Layer> = dims[1..]
            .windows(2)
            .map(|w| {
                let (inputs, outputs) = (w[0], w[1]);
                let weights = &flat[offset..offset + outputs * inputs];
                let bias = &flat[offset + outputs * inputs..offset + outputs * (inputs + 1)];
                offset += outputs * (inputs + 1);
                Layer {
                    weights: Matrix::from_vec(outputs, inputs, weights.to_vec()),
                    bias: bias.to_vec(),
                }
            })
            .collect();
        let max_width = dims[1..].iter().copied().max().unwrap_or(0);
        Self {
            dim,
            h1,
            w_user,
            w_item,
            b1,
            tail,
            max_width,
        }
    }

    /// Embedding width this scorer consumes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Width of the first hidden layer (= item-half width).
    pub fn hidden_width(&self) -> usize {
        self.h1
    }

    /// Scratch for [`SplitNcf::score_panel`] and [`SplitNcf::finish`];
    /// make one per scoring unit or thread and reuse it across panels.
    pub fn workspace(&self) -> SplitWorkspace {
        SplitWorkspace {
            lanes: vec![0.0; 2 * LANES * self.max_width],
        }
    }

    /// The user half `W₁ᵘ·u + b₁`, computed once per request.
    ///
    /// # Panics
    /// Panics (debug) if `user.len() != dim`.
    pub fn user_half(&self, user: &[f32]) -> Vec<f32> {
        debug_assert_eq!(user.len(), self.dim, "user embedding width");
        (0..self.h1)
            .map(|o| dot(self.w_user.row(o), user) + self.b1[o])
            .collect()
    }

    /// The item half of one row, written into `out` (`hidden_width` wide).
    ///
    /// Each lane accumulates over `k` ascending — the same summation chain
    /// as one output element of [`SplitNcf::item_half_block`], so the two
    /// paths are bit-identical.
    pub fn item_half_into(&self, item: &[f32], out: &mut [f32]) {
        debug_assert_eq!(item.len(), self.dim, "item embedding width");
        debug_assert_eq!(out.len(), self.h1);
        out.iter_mut().for_each(|x| *x = 0.0);
        for (k, &x) in item.iter().enumerate() {
            let w_row = self.w_item.row(k);
            for (o, &w) in out.iter_mut().zip(w_row) {
                *o += x * w;
            }
        }
    }

    /// Item halves of the table rows `row_start..row_end` as a
    /// `(row_end - row_start) x hidden_width` panel — one blocked
    /// [`Matrix::matmul_rows`] product shared by every user in a batch.
    ///
    /// # Panics
    /// Panics if `table.cols() != dim` or the row range is out of bounds.
    pub fn item_half_block(&self, table: &Matrix, row_start: usize, row_end: usize) -> Matrix {
        table.matmul_rows(&self.w_item, row_start, row_end)
    }

    /// [`SplitNcf::item_half_block`] with a standalone user's privately
    /// trained rows patched in: each `(item, row)` of `overlay` inside the
    /// range replaces that item's half with [`SplitNcf::item_half_into`]
    /// of `row` (bit-identical to a blocked row by the contract above).
    pub fn item_half_block_patched<'a>(
        &self,
        table: &Matrix,
        row_start: usize,
        row_end: usize,
        overlay: impl IntoIterator<Item = (&'a u32, &'a Vec<f32>)>,
    ) -> Matrix {
        let mut block = self.item_half_block(table, row_start, row_end);
        for (&item, row) in overlay {
            let i = item as usize;
            if (row_start..row_end).contains(&i) {
                self.item_half_into(row, block.row_mut(i - row_start));
            }
        }
        block
    }

    /// Logits of one user against a panel of item halves: `item_halves`
    /// holds `out.len()` rows of `hidden_width` floats, row-major (a
    /// slice of an [`SplitNcf::item_half_block`] panel), and `out[r]`
    /// receives the logit of row `r`.
    ///
    /// Rows go through the rest of the predictor 16 at a time; the last
    /// `out.len() % 16` rows go one at a time through the same code. Every
    /// logit is bit-identical to the one-pair chain (see the module docs),
    /// whatever the panel length or the row's position in it.
    ///
    /// # Panics
    /// Panics (debug) if `user_half` or `item_halves` has the wrong width.
    pub fn score_panel(
        &self,
        user_half: &[f32],
        item_halves: &[f32],
        out: &mut [f32],
        ws: &mut SplitWorkspace,
    ) {
        let h1 = self.h1;
        debug_assert_eq!(user_half.len(), h1);
        debug_assert_eq!(item_halves.len(), out.len() * h1);
        if self.tail.is_empty() {
            for (logit, &v) in out.iter_mut().zip(item_halves) {
                *logit = user_half[0] + v;
            }
            return;
        }
        let mut rows = item_halves.chunks_exact(LANES * h1);
        let mut logits = out.chunks_exact_mut(LANES);
        for (rows, logits) in (&mut rows).zip(&mut logits) {
            self.tail_lanes::<LANES>(user_half, rows, logits, &mut ws.lanes);
        }
        let rest = rows.remainder().chunks_exact(h1);
        for (row, logit) in rest.zip(logits.into_remainder()) {
            self.tail_lanes::<1>(user_half, row, std::slice::from_mut(logit), &mut ws.lanes);
        }
    }

    /// The rest of the predictor for exactly `L` rows, the rows as the
    /// lanes of every layer's accumulators. `lanes` holds two sets of
    /// `max_width` lane buffers: one layer's input and its output.
    fn tail_lanes<const L: usize>(
        &self,
        user_half: &[f32],
        rows: &[f32],
        logits: &mut [f32],
        lanes: &mut [f32],
    ) {
        let (cur, next) = lanes[..2 * L * self.max_width].split_at_mut(L * self.max_width);
        let (mut cur, mut next) = (cur.as_chunks_mut::<L>().0, next.as_chunks_mut::<L>().0);
        // Layer 1 finished per pair, transposed so the rows are lanes.
        for (j, lane) in cur[..self.h1].iter_mut().enumerate() {
            for (x, row) in lane.iter_mut().zip(rows.chunks_exact(self.h1)) {
                *x = row[j];
            }
            let u = user_half[j];
            for x in lane.iter_mut() {
                *x = relu(u + *x);
            }
        }
        let last = self.tail.len() - 1;
        for (l, layer) in self.tail.iter().enumerate() {
            let inputs = &cur[..layer.weights.cols()];
            for (o, dst) in next[..layer.bias.len()].iter_mut().enumerate() {
                // `hf_tensor::ops::dot` sums from -0.0, products over `k`
                // ascending; the bias comes last.
                let mut acc = [-0.0f32; L];
                for (&w, src) in layer.weights.row(o).iter().zip(inputs) {
                    for (a, &x) in acc.iter_mut().zip(src) {
                        *a += w * x;
                    }
                }
                let b = layer.bias[o];
                for (d, &a) in dst.iter_mut().zip(&acc) {
                    *d = a + b;
                }
                if l != last {
                    dst.iter_mut().for_each(|d| *d = relu(*d));
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        logits.copy_from_slice(&cur[0]);
    }

    /// Final logit from a user half and an item half: the one-row case of
    /// [`SplitNcf::score_panel`].
    pub fn finish(&self, user_half: &[f32], item_half: &[f32], ws: &mut SplitWorkspace) -> f32 {
        let mut logit = [0.0];
        self.score_panel(user_half, item_half, &mut logit, ws);
        logit[0]
    }
}

/// One-layer LightGCN propagation of a user embedding over its local
/// interaction graph (paper Eq. 4 with the client-local privacy
/// constraint): `u' = (u + deg^{-1/2} Σ v_g) / 2`.
///
/// `degree` is the number of graph rows (the user's training positives);
/// `rows` must yield exactly the item rows in a **fixed order** — the
/// accumulation order is part of the determinism contract shared by
/// evaluation and serving.
pub fn propagate_lightgcn<'a>(
    emb: &[f32],
    degree: usize,
    rows: impl Iterator<Item = &'a [f32]>,
) -> Vec<f32> {
    let coeff = if degree == 0 {
        0.0
    } else {
        1.0 / (degree as f32).sqrt()
    };
    let mut prop = emb.to_vec();
    for row in rows {
        hf_tensor::ops::axpy_slice(&mut prop, coeff, &row[..emb.len()]);
    }
    prop.iter_mut().for_each(|x| *x *= 0.5);
    prop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffn::FfnCache;
    use hf_tensor::rng::{stream, SeedStream};

    fn scorer(dim: usize, seed: u64) -> (SplitNcf, Ffn) {
        let mut rng = stream(seed, SeedStream::ParamInit);
        let ffn = Ffn::new(&crate::paper_predictor_dims(dim), &mut rng);
        (SplitNcf::from_ffn(dim, &ffn), ffn)
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = stream(seed, SeedStream::Custom(11));
        hf_tensor::init::normal_vec(n, 1.0, &mut rng)
    }

    #[test]
    fn split_score_matches_monolithic_forward_closely() {
        // The split chain reassociates layer-1 sums, so agreement is
        // numerical (1e-5 relative), not bitwise — the bitwise contract
        // is *within* the split paths, tested below.
        let dim = 16;
        let (s, ffn) = scorer(dim, 3);
        let engine = crate::ncf::NcfEngine::from_ffn(dim, ffn);
        let mut ews = engine.workspace();
        let mut ws = s.workspace();
        let mut ih = vec![0.0; s.hidden_width()];
        for case in 0..32u64 {
            let u = random_vec(dim, 100 + case);
            let v = random_vec(dim, 200 + case);
            let uh = s.user_half(&u);
            s.item_half_into(&v, &mut ih);
            let got = s.finish(&uh, &ih, &mut ws);
            let want = engine.forward(&u, &v, &mut ews);
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                "case {case}: split {got} vs monolithic {want}"
            );
        }
    }

    #[test]
    fn scalar_and_panel_item_halves_are_bit_identical() {
        let dim = 16;
        let (s, _) = scorer(dim, 4);
        let table = Matrix::from_fn(137, dim, |r, c| ((r * dim + c) as f32 * 0.173).sin());
        let mut ih = vec![0.0; s.hidden_width()];
        // Whole-table panel and several sub-panels must all agree with the
        // scalar path, bit for bit.
        for (start, end) in [(0usize, 137usize), (0, 64), (64, 137), (17, 23)] {
            let block = s.item_half_block(&table, start, end);
            for r in start..end {
                s.item_half_into(table.row(r), &mut ih);
                for (o, (&a, &b)) in ih.iter().zip(block.row(r - start)).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row {r} lane {o} panel {start}..{end}"
                    );
                }
            }
        }
    }

    /// A predictor of shape `dims` with Glorot weights and every bias set
    /// by `bias` (`None` keeps random biases). With a −0.0 bias the last
    /// layer's weights turn negative, so an all-zero hidden row makes every
    /// product of the logit's chain −0.0: only a −0.0 accumulator seed then
    /// keeps the logit's sign.
    fn hostile_ffn(dims: &[usize], bias: Option<f32>, seed: u64) -> Ffn {
        let mut rng = stream(seed, SeedStream::ParamInit);
        let mut flat = Ffn::new(dims, &mut rng).to_flat();
        let random_bias = random_vec(flat.len(), seed + 1);
        let mut offset = 0;
        for (l, w) in dims.windows(2).enumerate() {
            let weights = offset..offset + w[0] * w[1];
            let biases = weights.end..weights.end + w[1];
            if bias.is_some_and(|b| b.is_sign_negative()) && l == dims.len() - 2 {
                flat[weights.clone()].iter_mut().for_each(|x| *x = -x.abs());
            }
            for i in biases.clone() {
                flat[i] = bias.unwrap_or(random_bias[i]);
            }
            offset = biases.end;
        }
        Ffn::from_flat(dims, &flat)
    }

    /// Item-half row `r` of a hostile panel for `user_half`: exact
    /// cancellation, all-zero hidden rows (from below and from −0.0),
    /// NaN and ±inf lanes, and plain random rows.
    fn hostile_row(user_half: &[f32], r: usize) -> Vec<f32> {
        let h1 = user_half.len();
        let random = random_vec(h1, 500 + r as u64);
        (0..h1)
            .map(|j| match r % 8 {
                0 => -user_half[j],
                1 => -user_half[j].abs() - 1e3,
                2 => -0.0,
                3 if j % 2 == 0 => f32::NAN,
                4 if j % 3 == 0 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                _ => random[j],
            })
            .collect()
    }

    #[test]
    fn panel_tail_is_bit_identical_to_ffn_forward_on_hostile_inputs() {
        let n = 4;
        let tails: [&[usize]; 4] = [
            &[2 * n, 1],
            &[2 * n, 8, 1],
            &[2 * n, 8, 8, 1],
            &[2 * n, 16, 8, 4, 1],
        ];
        let mut checked_negative_zero = false;
        for (t, dims) in tails.iter().enumerate() {
            for (b, bias) in [Some(0.0f32), Some(-0.0), None].into_iter().enumerate() {
                let ffn = hostile_ffn(dims, bias, 40 + (t * 3 + b) as u64);
                let s = SplitNcf::from_ffn(n, &ffn);
                let h1 = s.hidden_width();
                // The reference: the training forward pass over the rest of
                // the predictor, fed the same relu'd hidden vector.
                let flat = ffn.to_flat();
                let reference =
                    (dims.len() > 2).then(|| Ffn::from_flat(&dims[1..], &flat[h1 * (2 * n + 1)..]));
                let mut cache = reference.as_ref().map(FfnCache::for_ffn);
                let mut ws = s.workspace();
                let user_halves = [random_vec(h1, 70 + t as u64), vec![-0.0; h1]];
                for user_half in &user_halves {
                    for len in [1usize, 15, 16, 17, 512, 513] {
                        let rows: Vec<Vec<f32>> =
                            (0..len).map(|r| hostile_row(user_half, r)).collect();
                        let panel: Vec<f32> = rows.concat();
                        let mut got = vec![f32::NAN; len];
                        s.score_panel(user_half, &panel, &mut got, &mut ws);
                        for (r, row) in rows.iter().enumerate() {
                            let want = match (&reference, &mut cache) {
                                (Some(tail), Some(cache)) => {
                                    let hidden: Vec<f32> = user_half
                                        .iter()
                                        .zip(row)
                                        .map(|(&u, &v)| relu(u + v))
                                        .collect();
                                    tail.forward(&hidden, cache)
                                }
                                _ => user_half[0] + row[0],
                            };
                            assert_eq!(
                                got[r].to_bits(),
                                want.to_bits(),
                                "tail {dims:?} bias {bias:?} len {len} row {r}: {} vs {want}",
                                got[r]
                            );
                            checked_negative_zero |=
                                dims.len() > 2 && want == 0.0 && want.is_sign_negative();
                        }
                        // The one-row path is the same kernel.
                        let last = rows.last().expect("non-empty panel");
                        assert_eq!(
                            s.finish(user_half, last, &mut ws).to_bits(),
                            got[len - 1].to_bits()
                        );
                    }
                }
            }
        }
        assert!(checked_negative_zero, "no logit exercised the -0.0 seed");
    }

    #[test]
    fn single_linear_layer_predictor_scores_as_sum_of_halves() {
        let dim = 4;
        let mut rng = stream(5, SeedStream::ParamInit);
        let ffn = Ffn::new(&[2 * dim, 1], &mut rng);
        let s = SplitNcf::from_ffn(dim, &ffn);
        assert_eq!(s.hidden_width(), 1);
        let u = random_vec(dim, 6);
        let v = random_vec(dim, 7);
        let uh = s.user_half(&u);
        let mut ih = vec![0.0; 1];
        s.item_half_into(&v, &mut ih);
        let mut ws = s.workspace();
        assert_eq!(s.finish(&uh, &ih, &mut ws), uh[0] + ih[0]);
    }

    #[test]
    #[should_panic(expected = "predictor width")]
    fn rejects_mismatched_width() {
        let mut rng = stream(8, SeedStream::ParamInit);
        let ffn = Ffn::new(&[10, 8, 1], &mut rng);
        let _ = SplitNcf::from_ffn(4, &ffn);
    }

    #[test]
    fn propagation_matches_manual_computation() {
        let emb = vec![1.0f32, -2.0];
        let rows: Vec<Vec<f32>> = vec![vec![2.0, 0.0], vec![0.0, 4.0]];
        let got = propagate_lightgcn(&emb, 2, rows.iter().map(|r| r.as_slice()));
        let coeff = 1.0 / 2.0f32.sqrt();
        let want = [(1.0 + coeff * 2.0) * 0.5, (-2.0 + coeff * 4.0) * 0.5];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "{g} vs {w}");
        }
        // Degree zero: pure halving of the embedding.
        let cold = propagate_lightgcn(&emb, 0, std::iter::empty());
        assert_eq!(cold, vec![0.5, -1.0]);
    }
}
