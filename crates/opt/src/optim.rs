//! First-order optimizers.
//!
//! [`Sgd`] stands alone. [`Adam`], [`AdamW`] and [`Lamb`] are one moment
//! core plus one rule each: the private `Moments` owns everything the three
//! share — β₁, β₂, ε, the step counter, the per-parameter first and second
//! moments, the bias-corrected direction `m̂ / (√v̂ + ε)`, the walk over
//! `(parameter, gradient)` pairs, and the checkpoint layout — and each
//! public type adds only what it does with a parameter and its direction:
//! plain `axpy` (Adam); decoupled decay, then `axpy` (AdamW); decay folded
//! into the direction, per-tensor trust ratio, clamp (LAMB).
//!
//! The checkpoint layout is part of the bitwise kill-restart guarantee and
//! is written once, in `Moments::export` / `Moments::import`: scalars
//! `[β₁, β₂, ε]` followed by the kind's own (`λ` for AdamW; `λ, max_trust`
//! for LAMB), tensors interleaved `[m₀, v₀, m₁, v₁, …]`. The tests
//! `exported_state_carries_kind_and_hyperparameters` and
//! `five_steps_match_golden_bits` pin that layout and the operation order.

use mf_tensor::Tensor;

/// A stateful first-order optimizer.
///
/// `step` consumes one gradient per parameter tensor (same order and
/// shapes) and updates the parameters in place with the given learning
/// rate. The schedule is kept outside the optimizer so the distributed
/// trainer can apply the paper's batch-size scaling rules.
pub trait Optimizer {
    /// Apply one update.
    fn step<'a>(&mut self, params: impl Iterator<Item = &'a mut Tensor>, grads: &[Tensor], lr: f64);

    /// Number of updates applied so far.
    fn steps(&self) -> usize;

    /// Snapshot the full optimizer state for checkpointing. Importing the
    /// snapshot into a freshly constructed optimizer of the same kind
    /// resumes the update sequence bitwise-identically.
    fn export_state(&self) -> OptimizerState;

    /// Restore a snapshot taken by [`Optimizer::export_state`].
    ///
    /// Panics if `state.kind` does not match this optimizer.
    fn import_state(&mut self, state: &OptimizerState);
}

/// A serializable snapshot of an optimizer: its kind tag, step counter,
/// hyperparameter scalars, and per-parameter state tensors (momentum /
/// moment buffers). The layout of `scalars` and `tensors` is private to
/// each optimizer kind; treat the struct as an opaque blob keyed by
/// `kind`.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizerState {
    /// Optimizer kind tag: `"sgd"`, `"adam"`, `"adamw"`, or `"lamb"`.
    pub kind: String,
    /// Updates applied so far (drives Adam-family bias correction).
    pub t: usize,
    /// Hyperparameter scalars, kind-specific order.
    pub scalars: Vec<f64>,
    /// Per-parameter state tensors, kind-specific order.
    pub tensors: Vec<Tensor>,
}

impl OptimizerState {
    fn expect_kind(&self, kind: &str) {
        assert_eq!(
            self.kind, kind,
            "optimizer state kind mismatch: snapshot is '{}', optimizer is '{kind}'",
            self.kind
        );
    }
}

/// Scale all gradients in place so their joint L2 norm is at most
/// `max_norm`; returns the pre-clip norm. Gradient clipping is the
/// standard guard against the loss spikes of physics-informed training
/// (the PDE term can produce very large residual gradients early on).
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
    let total: f64 = grads
        .iter()
        .map(|g| g.norm_l2().powi(2))
        .sum::<f64>()
        .sqrt();
    if total > max_norm {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            g.map_in_place(|v| v * scale);
        }
    }
    total
}

fn check_shapes(param: &Tensor, grad: &Tensor, idx: usize) {
    assert_eq!(
        param.shape(),
        grad.shape(),
        "optimizer: parameter {idx} shape {:?} does not match gradient {:?}",
        param.shape(),
        grad.shape()
    );
}

/// Stochastic gradient descent with classical momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    momentum: f64,
    velocity: Vec<Tensor>,
    t: usize,
}

impl Sgd {
    /// Plain SGD (`momentum = 0`) or heavy-ball SGD.
    pub fn new(momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            momentum,
            velocity: Vec::new(),
            t: 0,
        }
    }
}

impl Optimizer for Sgd {
    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
        lr: f64,
    ) {
        self.t += 1;
        for (i, (p, g)) in params.zip(grads).enumerate() {
            check_shapes(p, g, i);
            if self.momentum == 0.0 {
                p.axpy(-lr, g);
            } else {
                if self.velocity.len() <= i {
                    self.velocity.push(Tensor::zeros(g.rows(), g.cols()));
                }
                let v = &mut self.velocity[i];
                for (vv, gg) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *vv = self.momentum * *vv + gg;
                }
                p.axpy(-lr, v);
            }
        }
    }

    fn steps(&self) -> usize {
        self.t
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            kind: "sgd".into(),
            t: self.t,
            scalars: vec![self.momentum],
            tensors: self.velocity.clone(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState) {
        state.expect_kind("sgd");
        self.t = state.t;
        self.momentum = state.scalars[0];
        self.velocity = state.tensors.clone();
    }
}

/// What Adam, AdamW and LAMB share: hyperparameters, step counter,
/// per-parameter moments, and the code that walks, updates and
/// checkpoints them.
#[derive(Clone, Debug)]
struct Moments {
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: usize,
}

impl Moments {
    fn new(beta1: f64, beta2: f64, eps: f64) -> Self {
        Self {
            beta1,
            beta2,
            eps,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// One update: advance the step counter, then hand every parameter and
    /// its Adam direction to `apply`, the one thing the optimizers differ in.
    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
        mut apply: impl FnMut(&mut Tensor, Tensor),
    ) {
        self.t += 1;
        for (i, (p, g)) in params.zip(grads).enumerate() {
            check_shapes(p, g, i);
            let dir = self.direction(i, g);
            apply(p, dir);
        }
    }

    /// Update the moments for parameter `i` and return the bias-corrected
    /// Adam direction `m̂ / (√v̂ + ε)` as a tensor.
    fn direction(&mut self, i: usize, g: &Tensor) -> Tensor {
        while self.m.len() <= i {
            self.m.push(Tensor::zeros(g.rows(), g.cols()));
            self.v.push(Tensor::zeros(g.rows(), g.cols()));
        }
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let m = &mut self.m[i];
        let v = &mut self.v[i];
        for ((mm, vv), gg) in m
            .as_mut_slice()
            .iter_mut()
            .zip(v.as_mut_slice().iter_mut())
            .zip(g.as_slice())
        {
            *mm = beta1 * *mm + (1.0 - beta1) * gg;
            *vv = beta2 * *vv + (1.0 - beta2) * gg * gg;
        }
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        let mut dir = Tensor::zeros(g.rows(), g.cols());
        for ((d, mm), vv) in dir
            .as_mut_slice()
            .iter_mut()
            .zip(m.as_slice())
            .zip(v.as_slice())
        {
            let mhat = mm / bc1;
            let vhat = vv / bc2;
            *d = mhat / (vhat.sqrt() + eps);
        }
        dir
    }

    /// Snapshot as `kind`: scalars `[β₁, β₂, ε]` then `extra`, tensors
    /// interleaved `[m₀, v₀, m₁, v₁, …]`.
    fn export(&self, kind: &str, extra: &[f64]) -> OptimizerState {
        let mut scalars = vec![self.beta1, self.beta2, self.eps];
        scalars.extend_from_slice(extra);
        let pairs = self.m.iter().zip(&self.v);
        OptimizerState {
            kind: kind.into(),
            t: self.t,
            scalars,
            tensors: pairs.flat_map(|(m, v)| [m.clone(), v.clone()]).collect(),
        }
    }

    /// Restore a snapshot of `kind` and return its `extra` scalars.
    fn import<'s>(&mut self, kind: &str, state: &'s OptimizerState) -> &'s [f64] {
        state.expect_kind(kind);
        assert!(
            state.tensors.len().is_multiple_of(2),
            "optimizer state: moment tensor count {} is odd",
            state.tensors.len()
        );
        self.t = state.t;
        self.beta1 = state.scalars[0];
        self.beta2 = state.scalars[1];
        self.eps = state.scalars[2];
        self.m = state.tensors.iter().step_by(2).cloned().collect();
        self.v = state.tensors.iter().skip(1).step_by(2).cloned().collect();
        &state.scalars[3..]
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    moments: Moments,
}

impl Adam {
    /// Standard hyperparameters: β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new() -> Self {
        Self::with_betas(0.9, 0.999, 1e-8)
    }

    /// Custom betas and epsilon.
    pub fn with_betas(beta1: f64, beta2: f64, eps: f64) -> Self {
        Self {
            moments: Moments::new(beta1, beta2, eps),
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Adam {
    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
        lr: f64,
    ) {
        self.moments.step(params, grads, |p, dir| p.axpy(-lr, &dir));
    }

    fn steps(&self) -> usize {
        self.moments.t
    }

    fn export_state(&self) -> OptimizerState {
        self.moments.export("adam", &[])
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.moments.import("adam", state);
    }
}

/// AdamW (Loshchilov & Hutter): Adam with *decoupled* weight decay.
#[derive(Clone, Debug)]
pub struct AdamW {
    /// Decoupled weight-decay coefficient λ.
    pub weight_decay: f64,
    moments: Moments,
}

impl AdamW {
    /// Standard betas with the given decay coefficient.
    pub fn new(weight_decay: f64) -> Self {
        Self {
            weight_decay,
            moments: Moments::new(0.9, 0.999, 1e-8),
        }
    }
}

impl Optimizer for AdamW {
    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
        lr: f64,
    ) {
        let wd = self.weight_decay;
        self.moments.step(params, grads, |p, dir| {
            // Decoupled decay: w ← w − lr·λ·w, independent of the gradient.
            if wd != 0.0 {
                p.map_in_place(|w| w * (1.0 - lr * wd));
            }
            p.axpy(-lr, &dir);
        });
    }

    fn steps(&self) -> usize {
        self.moments.t
    }

    fn export_state(&self) -> OptimizerState {
        self.moments.export("adamw", &[self.weight_decay])
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.weight_decay = self.moments.import("adamw", state)[0];
    }
}

/// LAMB (You et al.): AdamW direction rescaled per layer by the trust
/// ratio `‖w‖ / ‖r‖`, enabling the very large batch sizes of multi-GPU
/// data-parallel training (§5.2 of the paper uses NVIDIA's FusedLAMB).
#[derive(Clone, Debug)]
pub struct Lamb {
    /// Weight-decay coefficient λ added to the update direction.
    pub weight_decay: f64,
    /// Upper clamp on the trust ratio (10 in the reference implementation).
    pub max_trust: f64,
    moments: Moments,
}

impl Lamb {
    /// Standard betas with the given decay coefficient.
    pub fn new(weight_decay: f64) -> Self {
        Self {
            weight_decay,
            max_trust: 10.0,
            moments: Moments::new(0.9, 0.999, 1e-6),
        }
    }
}

impl Optimizer for Lamb {
    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut Tensor>,
        grads: &[Tensor],
        lr: f64,
    ) {
        let (wd, max_trust) = (self.weight_decay, self.max_trust);
        self.moments.step(params, grads, |p, mut r| {
            if wd != 0.0 {
                r.axpy(wd, p);
            }
            let w_norm = p.norm_l2();
            let r_norm = r.norm_l2();
            let trust = if w_norm > 0.0 && r_norm > 0.0 {
                (w_norm / r_norm).min(max_trust)
            } else {
                1.0
            };
            p.axpy(-lr * trust, &r);
        });
    }

    fn steps(&self) -> usize {
        self.moments.t
    }

    fn export_state(&self) -> OptimizerState {
        self.moments
            .export("lamb", &[self.weight_decay, self.max_trust])
    }

    fn import_state(&mut self, state: &OptimizerState) {
        let extra = self.moments.import("lamb", state);
        (self.weight_decay, self.max_trust) = (extra[0], extra[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = ½‖w − target‖² with the given optimizer.
    fn converges_on_quadratic(opt: &mut dyn FnMut(&mut Vec<Tensor>, &[Tensor])) -> f64 {
        let target = Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let mut params = vec![Tensor::zeros(1, 3)];
        for _ in 0..400 {
            let grad = params[0].sub(&target);
            opt(&mut params, &[grad]);
        }
        params[0].max_abs_diff(&target)
    }

    #[test]
    fn sgd_converges() {
        let mut o = Sgd::new(0.0);
        let err = converges_on_quadratic(&mut |p, g| o.step(p.iter_mut(), g, 0.1));
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut o = Sgd::new(0.9);
        let err = converges_on_quadratic(&mut |p, g| o.step(p.iter_mut(), g, 0.02));
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn adam_converges() {
        let mut o = Adam::new();
        let err = converges_on_quadratic(&mut |p, g| o.step(p.iter_mut(), g, 0.05));
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn adamw_converges() {
        let mut o = AdamW::new(0.0);
        let err = converges_on_quadratic(&mut |p, g| o.step(p.iter_mut(), g, 0.05));
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn lamb_converges() {
        let mut o = Lamb::new(0.0);
        let err = converges_on_quadratic(&mut |p, g| o.step(p.iter_mut(), g, 0.05));
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        for &scale in &[1e-4, 1.0, 1e4] {
            let mut o = Adam::new();
            let mut p = [Tensor::zeros(1, 1)];
            let g = vec![Tensor::scalar(scale)];
            o.step(p.iter_mut(), &g, 0.01);
            assert!(
                (p[0].item().abs() - 0.01).abs() < 1e-5,
                "scale {scale}: step {}",
                p[0].item()
            );
        }
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // Zero gradient: AdamW still shrinks weights, Adam does not.
        let mut aw = AdamW::new(0.1);
        let mut p = [Tensor::scalar(1.0)];
        let g = vec![Tensor::scalar(0.0)];
        aw.step(p.iter_mut(), &g, 0.5);
        assert!((p[0].item() - 0.95).abs() < 1e-12);

        let mut a = Adam::new();
        let mut p2 = [Tensor::scalar(1.0)];
        a.step(p2.iter_mut(), &g, 0.5);
        assert_eq!(p2[0].item(), 1.0);
    }

    #[test]
    fn lamb_update_is_invariant_to_gradient_scale() {
        // The trust ratio normalizes the direction by its own norm, so
        // scaling all gradients leaves the step (nearly) unchanged.
        let run = |gscale: f64| {
            let mut o = Lamb::new(0.0);
            let mut p = [Tensor::from_vec(1, 2, vec![3.0, 4.0])];
            let g = vec![Tensor::from_vec(1, 2, vec![1.0 * gscale, 2.0 * gscale])];
            o.step(p.iter_mut(), &g, 0.1);
            p[0].clone()
        };
        let a = run(1.0);
        let b = run(1000.0);
        assert!(
            a.allclose(&b, 1e-6),
            "LAMB not scale invariant: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn lamb_trust_ratio_is_clamped() {
        // Tiny direction norm would give a huge trust ratio; the clamp
        // bounds the step size.
        let mut o = Lamb::new(0.0);
        let mut p = [Tensor::from_vec(1, 2, vec![1e6, 1e6])];
        let g = vec![Tensor::from_vec(1, 2, vec![1e-12, 1e-12])];
        let before = p[0].clone();
        o.step(p.iter_mut(), &g, 0.1);
        let moved = p[0].max_abs_diff(&before);
        // Step ≤ lr · max_trust · ‖direction‖∞ and direction ≤ ~1.
        assert!(moved <= 0.1 * 10.0 * 1.5, "moved {moved}");
    }

    #[test]
    fn clip_grad_norm_rescales_only_when_needed() {
        let mut grads = vec![Tensor::from_vec(1, 2, vec![3.0, 4.0])]; // norm 5
        let pre = clip_grad_norm(&mut grads, 2.5);
        assert!((pre - 5.0).abs() < 1e-12);
        assert!((grads[0].norm_l2() - 2.5).abs() < 1e-12);
        // Direction preserved.
        assert!((grads[0].get(0, 0) / grads[0].get(0, 1) - 0.75).abs() < 1e-12);
        // Below the limit: untouched.
        let mut small = vec![Tensor::from_vec(1, 2, vec![0.3, 0.4])];
        let pre = clip_grad_norm(&mut small, 2.5);
        assert!((pre - 0.5).abs() < 1e-12);
        assert_eq!(small[0].as_slice(), &[0.3, 0.4]);
    }

    #[test]
    fn clip_grad_norm_spans_multiple_tensors() {
        let mut grads = vec![Tensor::full(1, 1, 3.0), Tensor::full(1, 1, 4.0)];
        clip_grad_norm(&mut grads, 1.0);
        let joint = (grads[0].item().powi(2) + grads[1].item().powi(2)).sqrt();
        assert!((joint - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steps_counter_advances() {
        let mut o = Adam::new();
        let mut p = [Tensor::scalar(0.0)];
        for i in 1..=5 {
            o.step(p.iter_mut(), &[Tensor::scalar(1.0)], 0.01);
            assert_eq!(o.steps(), i);
        }
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn mismatched_gradient_shape_panics() {
        let mut o = Sgd::new(0.0);
        let mut p = [Tensor::zeros(2, 2)];
        o.step(p.iter_mut(), &[Tensor::zeros(1, 4)], 0.1);
    }

    /// Run `k` noisy steps, snapshot, run `k` more; then restore the
    /// snapshot into a *fresh* optimizer and replay the last `k` steps.
    /// Both trajectories must agree bitwise.
    fn roundtrip_resumes_bitwise<O: Optimizer + Clone>(make: impl Fn() -> O) {
        let grads: Vec<Tensor> = (0..20)
            .map(|i| Tensor::from_vec(1, 3, vec![(i as f64).sin(), 0.3 - i as f64 * 0.05, 1.0]))
            .collect();
        let mut p = vec![Tensor::from_vec(1, 3, vec![0.5, -0.5, 2.0])];
        let mut opt = make();
        for g in &grads[..10] {
            opt.step(p.iter_mut(), std::slice::from_ref(g), 0.02);
        }
        let snap_params = p.clone();
        let snap = opt.export_state();
        // Continue the original.
        for g in &grads[10..] {
            opt.step(p.iter_mut(), std::slice::from_ref(g), 0.02);
        }
        // Resume a fresh optimizer from the snapshot.
        let mut opt2 = make();
        opt2.import_state(&snap);
        assert_eq!(opt2.steps(), 10);
        let mut p2 = snap_params;
        for g in &grads[10..] {
            opt2.step(p2.iter_mut(), std::slice::from_ref(g), 0.02);
        }
        assert_eq!(
            p[0].as_slice(),
            p2[0].as_slice(),
            "resumed trajectory diverged"
        );
    }

    #[test]
    fn state_roundtrip_is_bitwise_for_all_optimizers() {
        roundtrip_resumes_bitwise(|| Sgd::new(0.9));
        roundtrip_resumes_bitwise(Adam::new);
        roundtrip_resumes_bitwise(|| AdamW::new(0.01));
        roundtrip_resumes_bitwise(|| Lamb::new(0.01));
    }

    #[test]
    fn exported_state_carries_kind_and_hyperparameters() {
        let mut o = Lamb::new(0.02);
        let mut p = [Tensor::scalar(1.0)];
        o.step(p.iter_mut(), &[Tensor::scalar(0.5)], 0.1);
        let s = o.export_state();
        assert_eq!(s.kind, "lamb");
        assert_eq!(s.t, 1);
        assert_eq!(s.scalars, vec![0.9, 0.999, 1e-6, 0.02, 10.0]);
        assert_eq!(s.tensors.len(), 2); // one parameter → m + v
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn importing_wrong_kind_panics() {
        let snap = Adam::new().export_state();
        Sgd::new(0.0).import_state(&snap);
    }

    /// Five steps on two parameter tensors (1×3 and 2×2) with gradients
    /// that change every step, as bits.
    fn five_step_bits<O: Optimizer>(mut opt: O) -> Vec<u64> {
        let mut p = [
            Tensor::from_vec(1, 3, vec![0.5, -0.25, 2.0]),
            Tensor::from_vec(2, 2, vec![1.5, -3.0, 0.125, 0.75]),
        ];
        for step in 0..5 {
            let k = step as f64;
            let g = [
                Tensor::from_vec(1, 3, vec![0.3 - 0.2 * k, 1.0 + 0.5 * k, -0.7]),
                Tensor::from_vec(2, 2, vec![-1.25, 0.1 * k, 2.0 - k, 0.05]),
            ];
            opt.step(p.iter_mut(), &g, 0.02);
        }
        p.iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// The update rules, to the bit. The literals were captured at commit
    /// a41edeb, before the three optimizers shared one moment core, and pin
    /// the order of every floating-point operation in `direction` and in
    /// each rule — which the fixtures and the kill-restart tests only see
    /// through LAMB.
    #[test]
    fn five_steps_match_golden_bits() {
        assert_eq!(
            five_step_bits(Adam::new()),
            [
                0x3fddc927d0cdcf18,
                0xbfd658960d2d8045,
                0x4000cccccc9bb6f4,
                0x3ff9999999629fd9,
                0xc008890a584bd616,
                0x3fb1a295ed4e29d9,
                0x3fe4ccccd789941c
            ],
            "adam"
        );
        assert_eq!(
            five_step_bits(AdamW::new(0.01)),
            [
                0x3fddc173863b6be6,
                0xbfd653d73f879695,
                0x4000c89facde9b91,
                0x3ff9934b6df59d44,
                0xc00882dc2066cc99,
                0x3fb19ca28518b041,
                0x3fe4c6fc79eb8d92
            ],
            "adamw"
        );
        assert_eq!(
            five_step_bits(Lamb::new(0.01)),
            [
                0x3fdd4a9c4d3c4aca,
                0xbfd8ce2589a4f206,
                0x40011746ad05f094,
                0x3ffb2cc9b96ed0bd,
                0xc00909aebba595b0,
                0x3f8f9eb8f5939575,
                0x3fe18152bfba9c00
            ],
            "lamb"
        );
    }
}
