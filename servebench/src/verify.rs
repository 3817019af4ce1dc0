//! Post-window reply checks against the benchmark's own Laplacian.

use hicond::graph::Graph;

/// Replies whose recomputed relative residual exceeds this fail. The
/// solver stops at 1e-8 on the mean-projected system and prints `x` with
/// 17 significant digits, so a correct reply lands far below it.
const MAX_REL_RESIDUAL: f64 = 1e-6;

/// `y = L x` for the graph Laplacian, accumulated edge by edge straight
/// from the generated graph (independent of `hicond::graph::laplacian`).
fn laplacian_apply(g: &Graph, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; x.len()];
    for e in g.edges() {
        let (u, v) = (e.u as usize, e.v as usize);
        let d = e.w * (x[u] - x[v]);
        y[u] += d;
        y[v] -= d;
    }
    y
}

/// Checks one `ok` reply to right-hand side `b`: the prefix, `n` finite
/// values, and `‖Lx − b‖ / ‖b‖` recomputed here. Returns the reported
/// iteration count.
pub fn check_reply(g: &Graph, b: &[f64], reply: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    let mut tok = text.split_ascii_whitespace();
    if tok.next() != Some("ok") {
        let head: String = text.chars().take(80).collect();
        return Err(format!("not an ok reply: {head}"));
    }
    let iterations: usize = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("missing iteration count")?;
    let _reported: f64 = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("missing residual")?;
    let x: Vec<f64> = tok
        .map(|t| t.parse::<f64>().map_err(|e| format!("bad value {t}: {e}")))
        .collect::<Result<_, _>>()?;
    if x.len() != b.len() {
        return Err(format!("{} values, expected {}", x.len(), b.len()));
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err("non-finite value".into());
    }
    let lx = laplacian_apply(g, &x);
    let num: f64 = lx
        .iter()
        .zip(b)
        .map(|(a, c)| (a - c) * (a - c))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|c| c * c).sum::<f64>().sqrt();
    let rel = num / den.max(f64::MIN_POSITIVE);
    if rel > MAX_REL_RESIDUAL {
        return Err(format!(
            "relative residual {rel:e} above {MAX_REL_RESIDUAL:e}"
        ));
    }
    Ok(iterations)
}
