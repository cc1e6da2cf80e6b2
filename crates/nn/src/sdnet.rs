//! SDNet: the physics-informed subdomain neural PDE solver (Fig. 3).

use crate::conv::CircularConv1d;
use crate::linear::{uniform_init, xavier_bound, Linear};
use crate::params::{Bound, ParamId, Params};
use mf_autodiff::{Graph, Var};
use mf_tensor::{Layout, Tensor};
use rand::Rng;

/// How the boundary embedding and the query coordinates enter the first
/// dense layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmbeddingKind {
    /// The paper's optimized *input-split* (§3.2, eq. 8): the boundary
    /// embedding is projected once per boundary and broadcast over its
    /// query points. First-layer cost O(Nd + qd), input memory 4N + 2q.
    Split,
    /// The *input-concat* baseline (eq. 5/6): the boundary embedding is
    /// replicated for every query point and concatenated with the
    /// coordinates. Cost O(qNd), memory q(4N + 2). Kept for the Fig.-5
    /// comparison; mathematically identical output.
    Concat,
}

/// Architecture hyperparameters for [`SdNet`].
#[derive(Clone, Debug)]
pub struct SdNetConfig {
    /// Length of the discretized boundary walk (4(m−1) for an m×m grid).
    pub boundary_len: usize,
    /// Output channels of each circular-conv embedding layer (empty for no
    /// convolutional embedding — the ablation baseline).
    pub conv_channels: Vec<usize>,
    /// Odd kernel width of the conv layers.
    pub conv_kernel: usize,
    /// Widths of the dense trunk (first entry is the split-layer output).
    pub hidden: Vec<usize>,
    /// Input embedding strategy.
    pub embedding: EmbeddingKind,
    /// Physical edge length of the training subdomain; query coordinates in
    /// `[0, coord_extent]` are affinely mapped to `[-1, 1]` before the
    /// first layer so the coordinate signal is not drowned out by the
    /// high-dimensional boundary embedding.
    pub coord_extent: f64,
    /// Number of Fourier feature frequencies for the coordinates: each
    /// normalized coordinate `x'` is augmented with
    /// `sin(2^j π x'), cos(2^j π x')` for `j = 0..k`. Zero disables the
    /// encoding. Fourier features are the standard remedy for the
    /// spectral bias of coordinate MLPs in PINNs; their derivatives have
    /// closed forms, which [`SdNet::forward_laplacian`] carries.
    pub coord_fourier: usize,
}

impl SdNetConfig {
    /// A laptop-scale default for an `m×m` subdomain grid (boundary walk of
    /// `4(m-1)` points): two 4-channel convs and a 3×64 GELU trunk.
    pub fn small(boundary_len: usize) -> Self {
        Self {
            boundary_len,
            conv_channels: vec![4, 4],
            conv_kernel: 5,
            hidden: vec![64, 64, 64],
            embedding: EmbeddingKind::Split,
            coord_extent: 0.5,
            coord_fourier: 0,
        }
    }

    /// Width of the coordinate feature block fed to the split layer:
    /// the 2 normalized coordinates plus `4·coord_fourier` Fourier
    /// features.
    pub fn coord_features(&self) -> usize {
        2 + 4 * self.coord_fourier
    }

    /// Embedding dimension after the conv stack.
    pub fn embedded_len(&self) -> usize {
        self.boundary_len * self.conv_channels.last().copied().unwrap_or(1)
    }
}

/// A block's coordinate derivatives `([∂/∂x, ∂/∂y], Δ)`, with `None` for a
/// Laplacian that is zero.
type Jet = ([Var; 2], Option<Var>);

/// The subdomain solver network: boundary embedding → input-split layer →
/// GELU MLP → scalar solution value.
#[derive(Clone, Debug)]
pub struct SdNet {
    config: SdNetConfig,
    /// Parameter store; bind it to a graph before calling
    /// [`SdNet::forward`].
    pub params: Params,
    convs: Vec<CircularConv1d>,
    w_g: ParamId,
    w_x: ParamId,
    b0: ParamId,
    trunk: Vec<Linear>,
    head: Linear,
}

impl SdNet {
    /// Build a network with freshly initialized parameters.
    pub fn new(config: SdNetConfig, rng: &mut impl Rng) -> Self {
        assert!(
            !config.hidden.is_empty(),
            "SdNet needs at least one hidden layer"
        );
        let mut params = Params::new();

        let mut convs = Vec::new();
        let mut in_ch = 1;
        for (i, &out_ch) in config.conv_channels.iter().enumerate() {
            convs.push(CircularConv1d::new(
                &mut params,
                rng,
                &format!("conv{i}"),
                in_ch,
                out_ch,
                config.conv_kernel,
                true,
            ));
            in_ch = out_ch;
        }

        let emb = config.embedded_len();
        let d0 = config.hidden[0];
        // Per-block fan-in (DeepONet-style): the 2-wide coordinate block
        // must not be initialized as if it shared the boundary block's
        // huge fan-in, or the network starts out ignoring the coordinates.
        let w_g = params.add(
            "split.wg",
            uniform_init(rng, d0, emb, xavier_bound(emb, d0)),
        );
        let cf = config.coord_features();
        let w_x = params.add("split.wx", uniform_init(rng, d0, cf, xavier_bound(cf, d0)));
        let b0 = params.add("split.b", Tensor::zeros(1, d0));

        let mut trunk = Vec::new();
        for i in 1..config.hidden.len() {
            trunk.push(Linear::new(
                &mut params,
                rng,
                &format!("trunk{i}"),
                config.hidden[i - 1],
                config.hidden[i],
                true,
            ));
        }
        let head = Linear::new(
            &mut params,
            rng,
            "head",
            *config.hidden.last().unwrap(),
            1,
            true,
        );

        Self {
            config,
            params,
            convs,
            w_g,
            w_x,
            b0,
            trunk,
            head,
        }
    }

    /// Architecture description.
    pub fn config(&self) -> &SdNetConfig {
        &self.config
    }

    /// Mutable architecture access — used to flip a cloned network between
    /// the split and concat embeddings for apples-to-apples benchmarks
    /// (the two are mathematically identical, see the module tests).
    pub fn config_mut(&mut self) -> &mut SdNetConfig {
        &mut self.config
    }

    /// Total scalar parameter count.
    pub fn count_params(&self) -> usize {
        self.params.numel()
    }

    /// The convolutional boundary-embedding layers, in application order.
    pub fn convs(&self) -> &[CircularConv1d] {
        &self.convs
    }

    /// The dense trunk layers after the split layer, in application order.
    pub fn trunk(&self) -> &[Linear] {
        &self.trunk
    }

    /// The scalar output head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Parameter ids of the input-split layer: `(W_g, W_x, b)` — the
    /// boundary-embedding projection, the coordinate projection, and the
    /// shared bias (eq. 8 of the paper).
    pub fn split_params(&self) -> (ParamId, ParamId, ParamId) {
        (self.w_g, self.w_x, self.b0)
    }

    /// Run the convolutional boundary embedding: `[B, L] → [B, L·C]`.
    pub fn embed_boundary(&self, g: &mut Graph, bound: &Bound, gb: Var) -> Var {
        assert_eq!(
            g.value(gb).cols(),
            self.config.boundary_len,
            "SdNet: boundary length mismatch (expected {}, got {})",
            self.config.boundary_len,
            g.value(gb).cols()
        );
        let mut h = gb;
        for (i, conv) in self.convs.iter().enumerate() {
            h = conv.forward(g, bound, h);
            // Nonlinearity between conv layers, but keep the final
            // embedding linear so split == concat algebra holds exactly.
            if i + 1 < self.convs.len() {
                h = g.gelu(h);
            }
        }
        h
    }

    /// Full forward pass.
    ///
    /// * `gb` — `[B, L]` batch of discretized boundary conditions,
    /// * `x` — `[B·q, 2]` query coordinates, grouped so rows
    ///   `[b·q, (b+1)·q)` belong to boundary `b`,
    /// * `q` — points per boundary.
    ///
    /// Returns `[B·q, 1]` predicted solution values.
    pub fn forward(&self, g: &mut Graph, bound: &Bound, gb: Var, x: Var, q: usize) -> Var {
        let (mut h, _) = self.split_layer(g, bound, gb, x, q, false);
        h = g.gelu(h);

        for lin in &self.trunk {
            h = lin.forward(g, bound, h);
            h = g.gelu(h);
        }
        self.head.forward(g, bound, h)
    }

    /// The Laplacian `Δu = ∂²u/∂x² + ∂²u/∂y²` of [`SdNet::forward`]'s output
    /// with respect to the physical coordinates, `[B·q, 1]`, in one forward
    /// pass (the "forward Laplacian" of Li et al., 2023).
    ///
    /// Each layer carries four blocks: the pre-activation `h`, its
    /// coordinate derivatives `J_x`, `J_y` and its Laplacian `Λ`. A linear
    /// layer maps all four with the same `W` and adds its bias to `h` only;
    /// the GELU maps `h → σ(h)`, `J → σ'(h)⊙J` and
    /// `Λ → σ'(h)⊙Λ + σ''(h)⊙(J_x² + J_y²)`. The boundary branch does not
    /// depend on the coordinates, so the blocks start at the split layer as
    /// `(∂φ/∂x)·W_xᵀ`, `(∂φ/∂y)·W_xᵀ` and `(Δφ)·W_xᵀ`, with `φ` the
    /// coordinate features. The blocks are ordinary graph nodes, so one
    /// backward from a loss on `Δu` reaches every weight: `x` may be a
    /// constant, and no inner backward pass runs.
    ///
    /// `σ'` and `σ''` are one [`Graph::gelu_deriv`] node each — with
    /// `u = √(2/π)(x + c x³)` and `t = tanh u`,
    /// `σ' = ½(1 + t) + ½x(1 − t²)u'` and
    /// `σ'' = (1 − t²)(u' − x t u'² + ½x u'')`, where
    /// `u' = √(2/π)(1 + 3c x²)` and `½x u'' = 3c√(2/π) x²` — whose VJPs are
    /// `g·σ''` and `g·σ'''`, the analytic third derivative. That is as far
    /// as the GELU's derivatives go: the weight gradient of a loss on `σ''`
    /// cannot be differentiated again (it would need `σ⁗`).
    pub fn forward_laplacian(
        &self,
        g: &mut Graph,
        bound: &Bound,
        gb: Var,
        x: Var,
        q: usize,
    ) -> Var {
        let (mut h, jet) = self.split_layer(g, bound, gb, x, q, true);
        let (mut jac, mut lap) = jet.expect("split_layer returns a jet when asked");
        let last = self.trunk.len();
        for (i, lin) in self.trunk.iter().chain([&self.head]).enumerate() {
            // Only the Laplacian leaves the last activation: the head has
            // no nonlinearity after it, and its bias does not reach Δu.
            let (d1, d2) = (g.gelu_deriv(h, 1), g.gelu_deriv(h, 2));
            let jx2 = g.mul(jac[0], jac[0]);
            let jy2 = g.mul(jac[1], jac[1]);
            let grad2 = g.add(jx2, jy2);
            let curvature = g.mul(d2, grad2);
            let l = match lap {
                Some(l) => {
                    let slope = g.mul(d1, l);
                    g.add(slope, curvature)
                }
                None => curvature,
            };
            if i == last {
                return lin.tangent(g, bound, l);
            }
            jac = jac.map(|j| g.mul(d1, j));
            let a = g.gelu(h);
            h = lin.forward(g, bound, a);
            jac = jac.map(|j| lin.tangent(g, bound, j));
            lap = Some(lin.tangent(g, bound, l));
        }
        unreachable!("the head is the last layer")
    }

    /// The coordinate block `φ` the split layer reads, and with `jet` its
    /// derivatives `([∂φ/∂x, ∂φ/∂y], Δφ)` with respect to the physical
    /// coordinates (`Δφ` is `None` where it is zero: without Fourier
    /// features). `x` is `[B·q, 2]`, grouped by boundary as `gb`'s rows.
    fn coord_features(
        &self,
        g: &mut Graph,
        gb: Var,
        x: Var,
        q: usize,
        jet: bool,
    ) -> (Var, Option<Jet>) {
        let batch = g.shape_of(gb).0;
        assert_eq!(
            g.shape_of(x),
            (batch * q, 2),
            "SdNet: expected {}x2 coordinates, got {:?}",
            batch * q,
            g.shape_of(x)
        );
        // Map physical coordinates [0, extent] → [-1, 1]. Differentiation
        // with respect to the *physical* coordinates still works: the
        // affine map participates in the graph, so the chain rule applies.
        let extent = self.config.coord_extent;
        let x = {
            let centered = g.add_scalar(x, -0.5 * extent);
            g.scale(centered, 2.0 / extent)
        };
        // ∂x'/∂x = [s, 0] and ∂x'/∂y = [0, s] on every row, s = 2/extent.
        let dx = jet.then(|| {
            let s = g.constant_scalar(2.0 / extent);
            let col = g.broadcast_scalar(s, batch * q, 1);
            [g.pad_cols(col, 0, 2), g.pad_cols(col, 1, 2)]
        });
        let (mut jac, mut lap) = (dx, None);
        // Optional Fourier encoding of the normalized coordinates: each
        // feature is a function of one coordinate, so its Laplacian is its
        // own second derivative, −(2^j π s)² times itself.
        let mut feats = x;
        for j in 0..self.config.coord_fourier {
            let freq = std::f64::consts::PI * (1 << j) as f64;
            let scaled = g.scale(x, freq);
            let s = g.sin(scaled);
            let c = g.cos(scaled);
            feats = g.concat_cols(feats, s);
            feats = g.concat_cols(feats, c);
            if let (Some(dx), Some(jac)) = (dx, jac.as_mut()) {
                let ds = g.scale(c, freq);
                let dc = g.scale(s, -freq);
                for (acc, dx) in jac.iter_mut().zip(dx) {
                    let ds = g.mul(ds, dx);
                    let dc = g.mul(dc, dx);
                    *acc = g.concat_cols(*acc, ds);
                    *acc = g.concat_cols(*acc, dc);
                }
                let k = -(freq * 2.0 / extent).powi(2);
                let ls = g.scale(s, k);
                let lc = g.scale(c, k);
                let block = g.concat_cols(ls, lc);
                lap = Some(match lap {
                    Some(l) => g.concat_cols(l, block),
                    None => block,
                });
            }
        }
        let cols = self.config.coord_features();
        let jet = jac.map(|jac| (jac, lap.map(|l| g.pad_cols(l, 2, cols))));
        (feats, jet)
    }

    /// The split layer's pre-activation `h`, `[B·q, d0]`: the boundary
    /// embedding and the coordinate features of `x` through the input
    /// split (or concat), plus the bias; with `jet`, also `h`'s coordinate
    /// derivatives `([∂h/∂x, ∂h/∂y], Δh)` as [`SdNet::coord_features`]
    /// gives them for the features.
    fn split_layer(
        &self,
        g: &mut Graph,
        bound: &Bound,
        gb: Var,
        x: Var,
        q: usize,
        jet: bool,
    ) -> (Var, Option<Jet>) {
        let emb = self.embed_boundary(g, bound, gb);
        let wg = bound.var(self.w_g);
        let wx = bound.var(self.w_x);
        let (x, jet) = self.coord_features(g, gb, x, q, jet);
        let h = match self.config.embedding {
            EmbeddingKind::Split => {
                // ĝW₁ᵀ computed once per boundary, broadcast over points.
                let hg = g.matmul_layout(emb, Layout::Normal, wg, Layout::Transposed); // [B, d0]
                let hx = g.matmul_layout(x, Layout::Normal, wx, Layout::Transposed); // [B·q, d0]
                let hg_rep = g.repeat_rows(hg, q);
                g.add(hg_rep, hx)
            }
            EmbeddingKind::Concat => {
                // Replicate the embedding per point (the expensive way).
                let emb_rep = g.repeat_rows(emb, q); // [B·q, emb]
                let inp = g.concat_cols(emb_rep, x); // [B·q, emb+2]
                let w = g.concat_cols(wg, wx); // [d0, emb+2]
                g.matmul_layout(inp, Layout::Normal, w, Layout::Transposed)
            }
        };
        let h = g.add_bias(h, bound.var(self.b0));
        // The boundary branch is constant in x, so the derivatives of `h`
        // are those of the coordinate features through W_x, in both the
        // split and the concat form (whose coordinate columns are W_x).
        let jet = jet.map(|(jac, lap)| {
            let mut through_wx = |d| g.matmul_layout(d, Layout::Normal, wx, Layout::Transposed);
            (jac.map(&mut through_wx), lap.map(through_wx))
        });
        (h, jet)
    }

    /// Inference convenience: run a forward pass on a reusable per-thread
    /// graph and return the predictions as a tensor. `points` is `[B·q, 2]`.
    ///
    /// The graph is cleared (not dropped) between calls, so repeated
    /// predictions recycle tape storage through the graph's buffer pool
    /// instead of re-allocating it — the same idiom `mf-train::step` uses
    /// for the training hot path. For the graph-free fast path see
    /// `mf-infer`'s `InferencePlan`; this is the fallback that any network
    /// configuration can take.
    pub fn predict(&self, boundaries: &Tensor, points: &Tensor, q: usize) -> Tensor {
        thread_local! {
            static PREDICT_GRAPH: std::cell::RefCell<Graph> =
                std::cell::RefCell::new(Graph::new());
        }
        PREDICT_GRAPH.with(|cell| {
            let mut g = cell.borrow_mut();
            g.clear();
            let bound = self.params.bind(&mut g);
            let gb = g.constant_from(boundaries);
            let x = g.constant_from(points);
            let out = self.forward(&mut g, &bound, gb, x, q);
            g.value(out).clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_config(embedding: EmbeddingKind) -> SdNetConfig {
        SdNetConfig {
            boundary_len: 12,
            conv_channels: vec![2],
            conv_kernel: 3,
            hidden: vec![8, 8],
            embedding,
            coord_extent: 0.5,
            coord_fourier: 0,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let mut g = Graph::new();
        let b = net.params.bind(&mut g);
        let gb = g.constant(Tensor::ones(3, 12));
        let x = g.constant(Tensor::ones(3 * 5, 2));
        let y = net.forward(&mut g, &b, gb, x, 5);
        assert_eq!(g.value(y).shape(), (15, 1));
    }

    #[test]
    fn split_and_concat_are_mathematically_identical() {
        // Eq. 7/8 of the paper: same weights ⇒ same output, different cost.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let split = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let mut concat = split.clone();
        concat.config.embedding = EmbeddingKind::Concat;

        let mut rng2 = ChaCha8Rng::seed_from_u64(2);
        let gb = Tensor::from_fn(2, 12, |_, _| rng2.gen_range(-1.0..1.0));
        let x = Tensor::from_fn(2 * 7, 2, |_, _| rng2.gen_range(0.0..0.5));

        let ys = split.predict(&gb, &x, 7);
        let yc = concat.predict(&gb, &x, 7);
        assert!(
            ys.allclose(&yc, 1e-10),
            "split vs concat max diff {}",
            ys.max_abs_diff(&yc)
        );
    }

    #[test]
    fn split_graph_is_smaller_than_concat_graph() {
        // The optimization's point: concat materializes the replicated
        // boundary matrix, split does not.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let split = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let mut concat = split.clone();
        concat.config.embedding = EmbeddingKind::Concat;

        let gb = Tensor::ones(1, 12);
        let q = 200;
        let x = Tensor::ones(q, 2);

        let bytes = |net: &SdNet| {
            let mut g = Graph::new();
            let b = net.params.bind(&mut g);
            let gbv = g.constant(gb.clone());
            let xv = g.constant(x.clone());
            let _ = net.forward(&mut g, &b, gbv, xv, q);
            g.bytes_allocated()
        };
        let bs = bytes(&split);
        let bc = bytes(&concat);
        assert!(
            bs < bc,
            "split bytes {bs} should be below concat bytes {bc}"
        );
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let mut g = Graph::new();
        let b = net.params.bind(&mut g);
        let gb = g.constant(Tensor::from_fn(2, 12, |r, c| {
            ((r * 12 + c) as f64 * 0.3).sin()
        }));
        let x = g.constant(Tensor::from_fn(6, 2, |r, c| (r + c) as f64 * 0.05));
        let y = net.forward(&mut g, &b, gb, x, 3);
        let sq = g.mul(y, y);
        let loss = g.mean(sq);
        let grads = g.grad(loss, b.all_vars());
        for (i, gr) in grads.iter().enumerate() {
            let n = g.value(*gr).norm_l2();
            assert!(n.is_finite(), "param {i} gradient not finite");
            assert!(
                n > 0.0,
                "param {i} ({}) has zero gradient",
                net.params.name(crate::params::ParamId(i))
            );
        }
    }

    #[test]
    fn input_gradients_support_laplacian() {
        // The PDE-loss pattern: second derivatives w.r.t. coordinates exist
        // and are finite.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let mut g = Graph::new();
        let b = net.params.bind(&mut g);
        let gb = g.constant(Tensor::ones(1, 12));
        let x = g.leaf(Tensor::from_fn(4, 2, |r, c| {
            0.1 * (r as f64) + 0.05 * c as f64
        }));
        let u = net.forward(&mut g, &b, gb, x, 4);
        let su = g.sum(u);
        let du = g.grad(su, &[x])[0];
        let ux = g.slice_cols(du, 0, 1);
        let sux = g.sum(ux);
        let duxx = g.grad(sux, &[x])[0];
        let uxx = g.slice_cols(duxx, 0, 1);
        assert!(g.value(uxx).as_slice().iter().all(|v| v.is_finite()));
        assert!(
            g.value(uxx).norm_l2() > 0.0,
            "second derivative identically zero"
        );
    }

    #[test]
    fn predict_matches_manual_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        let gb = Tensor::from_fn(1, 12, |_, c| (c as f64 * 0.5).cos());
        let x = Tensor::from_fn(3, 2, |r, c| 0.1 * (r * 2 + c) as f64);
        let direct = net.predict(&gb, &x, 3);
        let mut g = Graph::new();
        let b = net.params.bind(&mut g);
        let gbv = g.constant(gb);
        let xv = g.constant(x);
        let y = net.forward(&mut g, &b, gbv, xv, 3);
        assert!(direct.allclose(g.value(y), 1e-14));
    }

    #[test]
    fn no_conv_config_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg = SdNetConfig {
            boundary_len: 8,
            conv_channels: vec![],
            conv_kernel: 3,
            hidden: vec![6],
            embedding: EmbeddingKind::Split,
            coord_extent: 1.0,
            coord_fourier: 0,
        };
        let net = SdNet::new(cfg, &mut rng);
        let y = net.predict(&Tensor::ones(1, 8), &Tensor::ones(2, 2), 2);
        assert_eq!(y.shape(), (2, 1));
    }

    #[test]
    fn fourier_features_forward_and_laplacian() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut cfg = tiny_config(EmbeddingKind::Split);
        cfg.coord_fourier = 3;
        assert_eq!(cfg.coord_features(), 14);
        let net = SdNet::new(cfg, &mut rng);
        let mut g = Graph::new();
        let b = net.params.bind(&mut g);
        let gb = g.constant(Tensor::ones(1, 12));
        let x = g.leaf(Tensor::from_fn(4, 2, |r, c| {
            0.07 * (r as f64) + 0.03 * c as f64
        }));
        let u = net.forward(&mut g, &b, gb, x, 4);
        assert_eq!(g.value(u).shape(), (4, 1));
        // Second derivatives through sin/cos features are finite.
        let su = g.sum(u);
        let du = g.grad(su, &[x])[0];
        let ux = g.slice_cols(du, 0, 1);
        let sux = g.sum(ux);
        let duxx = g.grad(sux, &[x])[0];
        assert!(g.value(duxx).as_slice().iter().all(|v| v.is_finite()));
        assert!(g.value(duxx).norm_l2() > 0.0);
    }

    #[test]
    fn fourier_split_still_equals_concat() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut cfg = tiny_config(EmbeddingKind::Split);
        cfg.coord_fourier = 2;
        let split = SdNet::new(cfg, &mut rng);
        let mut concat = split.clone();
        concat.config_mut().embedding = EmbeddingKind::Concat;
        let gb = Tensor::from_fn(2, 12, |r, c| ((r + c) as f64 * 0.2).sin());
        let x = Tensor::from_fn(2 * 3, 2, |r, c| 0.05 * (r * 2 + c) as f64);
        let a = split.predict(&gb, &x, 3);
        let b = concat.predict(&gb, &x, 3);
        assert!(a.allclose(&b, 1e-10));
    }

    #[test]
    fn count_params_matches_store() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = SdNet::new(tiny_config(EmbeddingKind::Split), &mut rng);
        assert_eq!(net.count_params(), net.params.numel());
        assert!(net.count_params() > 100);
    }
}
