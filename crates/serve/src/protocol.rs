//! Line-delimited JSON wire protocol for the solve service.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! → {"id":1,"domain":"2x2","bc":"sin","max_iters":100,"tol":1e-4,"want_grid":false}
//! ← {"id":1,"status":"ok","iterations":17,"converged":true,"mean":0.0132,"latency_ms":4.1}
//! ← {"id":2,"status":"busy","retry_after_ms":2}
//! ← {"id":3,"status":"error","message":"boundary length 12 does not match ..."}
//! ```
//!
//! `bc` is either an explicit array of boundary-walk values, `"sin"` /
//! `"sin:F"` (a sine of `F` periods along the walk), `"gp:SEED"` (a
//! Gaussian-process sample, the paper's training distribution), or
//! `"rand:SEED"` (uniform noise). Generators are deterministic in their
//! seed and the domain size, so a load generator and the server agree on
//! the problem without shipping the walk.
//!
//! Parsing uses `mf-telemetry`'s dependency-free [`JsonValue`]; rendering
//! is plain `format!`.

use crate::service::{ServeError, SolveRequest, SolveResponse};
use mf_telemetry::{escape_json, JsonValue};
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Boundary-condition spec as it appears on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum BcSpec {
    /// Explicit boundary-walk values.
    Values(Vec<f64>),
    /// `sin:F` — `sin(2π·F·t)` along the normalized walk parameter.
    Sin {
        /// Periods along the walk.
        freq: f64,
    },
    /// `gp:SEED` — Gaussian-process boundary sample.
    Gp {
        /// RNG seed.
        seed: u64,
    },
    /// `rand:SEED` — uniform noise in `[-1, 1)`.
    Rand {
        /// RNG seed.
        seed: u64,
    },
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on the response line.
    pub id: u64,
    /// Subdomains along x.
    pub sx: usize,
    /// Subdomains along y.
    pub sy: usize,
    /// Boundary condition.
    pub bc: BcSpec,
    /// Schwarz iteration cap.
    pub max_iters: usize,
    /// Convergence threshold.
    pub tol: f64,
    /// Whether to return the dense grid.
    pub want_grid: bool,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let v = JsonValue::parse(line)?;
    let id = v.get("id").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    let domain = v
        .get("domain")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"domain\" (e.g. \"2x2\")")?;
    let (sx, sy) = domain
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
        .ok_or_else(|| format!("bad domain {domain:?}, expected \"SXxSY\""))?;
    let bc = match v.get("bc") {
        None => BcSpec::Sin { freq: 1.0 },
        Some(JsonValue::Arr(arr)) => {
            let vals: Option<Vec<f64>> = arr.iter().map(JsonValue::as_f64).collect();
            BcSpec::Values(vals.ok_or("non-numeric value in \"bc\" array")?)
        }
        Some(s) => {
            let s = s.as_str().ok_or("\"bc\" must be an array or a string")?;
            parse_bc_str(s)?
        }
    };
    Ok(WireRequest {
        id,
        sx,
        sy,
        bc,
        max_iters: v
            .get("max_iters")
            .and_then(JsonValue::as_f64)
            .unwrap_or(100.0) as usize,
        tol: v.get("tol").and_then(JsonValue::as_f64).unwrap_or(1e-4),
        want_grid: matches!(v.get("want_grid"), Some(JsonValue::Bool(true))),
    })
}

fn parse_bc_str(s: &str) -> Result<BcSpec, String> {
    if s == "sin" {
        return Ok(BcSpec::Sin { freq: 1.0 });
    }
    if let Some(f) = s.strip_prefix("sin:") {
        let freq: f64 = f.parse().map_err(|_| format!("bad sin freq {f:?}"))?;
        return Ok(BcSpec::Sin { freq });
    }
    if let Some(seed) = s.strip_prefix("gp:") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad gp seed {seed:?}"))?;
        return Ok(BcSpec::Gp { seed });
    }
    if let Some(seed) = s.strip_prefix("rand:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("bad rand seed {seed:?}"))?;
        return Ok(BcSpec::Rand { seed });
    }
    Err(format!(
        "unknown bc {s:?} (expected \"sin[:F]\", \"gp:SEED\", \"rand:SEED\", or an array)"
    ))
}

/// Materialize the boundary walk for a `ny × nx` grid.
pub fn resolve_bc(bc: &BcSpec, ny: usize, nx: usize, boundary_len: usize) -> Tensor {
    match bc {
        BcSpec::Values(vals) => Tensor::from_vec(1, vals.len(), vals.clone()),
        BcSpec::Sin { freq } => mf_numerics::boundary::boundary_from_fn(ny, nx, |t| {
            (2.0 * std::f64::consts::PI * freq * t).sin()
        }),
        BcSpec::Gp { seed } => {
            let mut sampler =
                mf_gp::BoundarySampler::new(boundary_len, (0.4, 0.8), (0.5, 1.0), true);
            sampler.sample(&mut ChaCha8Rng::seed_from_u64(*seed))
        }
        BcSpec::Rand { seed } => {
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            Tensor::from_fn(1, boundary_len, |_, _| rng.gen_range(-1.0..1.0))
        }
    }
}

/// Build the service-level request from a parsed line (resolving the
/// boundary generator against the domain geometry).
pub fn to_solve_request(w: &WireRequest, spec: mf_data::SubdomainSpec) -> SolveRequest {
    let d = mf_mfp::DomainSpec::new(spec, w.sx.max(1), w.sy.max(1));
    SolveRequest {
        sx: w.sx,
        sy: w.sy,
        bc: resolve_bc(&w.bc, d.ny(), d.nx(), d.boundary_len()),
        max_iters: w.max_iters,
        tol: w.tol,
        want_grid: w.want_grid,
    }
}

/// Render a success response line (newline included).
pub fn render_ok(id: u64, r: &SolveResponse) -> String {
    let mut s = format!(
        "{{\"id\":{id},\"status\":\"ok\",\"iterations\":{},\"converged\":{},\"mean\":{:.12e},\"latency_ms\":{:.3}",
        r.iterations, r.converged, r.mean, r.latency_ms
    );
    if let Some(grid) = &r.grid {
        s.push_str(&format!(
            ",\"ny\":{},\"nx\":{},\"grid\":[",
            grid.rows(),
            grid.cols()
        ));
        for (i, v) in grid.as_slice().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{v:.17e}"));
        }
        s.push(']');
    }
    s.push_str("}\n");
    s
}

/// Render an error/busy response line (newline included).
pub fn render_err(id: u64, e: &ServeError) -> String {
    match e {
        ServeError::Busy { retry_after_ms } => {
            format!("{{\"id\":{id},\"status\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}\n")
        }
        ServeError::BadRequest(m) => format!(
            "{{\"id\":{id},\"status\":\"error\",\"message\":\"{}\"}}\n",
            escape_json(m)
        ),
        ServeError::Shutdown => {
            format!("{{\"id\":{id},\"status\":\"error\",\"message\":\"shutting down\"}}\n")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let w = parse_request(
            r#"{"id":7,"domain":"3x2","bc":"gp:42","max_iters":50,"tol":1e-5,"want_grid":true}"#,
        )
        .unwrap();
        assert_eq!(w.id, 7);
        assert_eq!((w.sx, w.sy), (3, 2));
        assert_eq!(w.bc, BcSpec::Gp { seed: 42 });
        assert_eq!(w.max_iters, 50);
        assert!(w.want_grid);
    }

    #[test]
    fn defaults_fill_in_missing_fields() {
        let w = parse_request(r#"{"domain":"1x1"}"#).unwrap();
        assert_eq!(w.id, 0);
        assert_eq!(w.bc, BcSpec::Sin { freq: 1.0 });
        assert_eq!(w.max_iters, 100);
        assert!(!w.want_grid);
    }

    #[test]
    fn explicit_bc_array_round_trips() {
        let w = parse_request(r#"{"domain":"1x1","bc":[0.5,-1.25,3.0]}"#).unwrap();
        assert_eq!(w.bc, BcSpec::Values(vec![0.5, -1.25, 3.0]));
        let t = resolve_bc(&w.bc, 9, 9, 32);
        assert_eq!(t.shape(), (1, 3));
    }

    #[test]
    fn generators_are_deterministic_and_correctly_sized() {
        for bc in [
            BcSpec::Sin { freq: 2.0 },
            BcSpec::Gp { seed: 3 },
            BcSpec::Rand { seed: 3 },
        ] {
            let a = resolve_bc(&bc, 13, 13, 48);
            let b = resolve_bc(&bc, 13, 13, 48);
            assert_eq!(a.numel(), 48, "{bc:?}");
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{bc:?} not deterministic");
            }
        }
    }

    #[test]
    fn bad_lines_produce_errors_not_panics() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"domain":"x"}"#,
            r#"{"domain":"2x2","bc":"nope"}"#,
            r#"{"domain":"2x2","bc":{"a":1}}"#,
            r#"{"domain":"2x2","bc":[1,"x"]}"#,
        ] {
            assert!(parse_request(line).is_err(), "line {line:?} should fail");
        }
    }

    #[test]
    fn response_rendering_is_valid_json() {
        let resp = SolveResponse {
            iterations: 12,
            converged: true,
            mean: 0.5,
            grid: Some(Tensor::from_vec(1, 2, vec![1.0, -2.0])),
            latency_ms: 3.25,
        };
        let line = render_ok(9, &resp);
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(v.get("iterations").and_then(JsonValue::as_f64), Some(12.0));
        assert_eq!(v.get("grid").and_then(JsonValue::as_arr).unwrap().len(), 2);

        let busy = render_err(1, &ServeError::Busy { retry_after_ms: 4 });
        let v = JsonValue::parse(busy.trim()).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("busy"));
        assert_eq!(
            v.get("retry_after_ms").and_then(JsonValue::as_f64),
            Some(4.0)
        );

        let err = render_err(2, &ServeError::BadRequest("quote \" here".into()));
        assert!(JsonValue::parse(err.trim()).is_ok());
    }

    #[test]
    fn an_error_message_with_control_characters_stays_one_valid_line() {
        let msg = "quote \" backslash \\ newline \n tab \t ctrl \u{1} end";
        let line = render_err(3, &ServeError::BadRequest(msg.into()));
        assert_eq!(
            line.matches('\n').count(),
            1,
            "one reply, one line: {line:?}"
        );
        assert!(line.ends_with('\n'));
        let v = JsonValue::parse(line.trim_end()).expect("the reply line is valid JSON");
        assert_eq!(v.get("message").and_then(JsonValue::as_str), Some(msg));
    }
}
