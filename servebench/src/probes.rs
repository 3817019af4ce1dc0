//! The traced run: per-layer numbers for one workload and seed.
//!
//! It first runs the gated run as a child process, whose p50 is the
//! untraced reference. It then serves one traced window: the program's
//! instrumentation is on, every round trip is split into client-side
//! spans, and a `metrics` delta over the window gives the server's own
//! spans. Last, it times each layer from outside through its public
//! functions, on the same graph and right-hand sides. Every span goes
//! to memory and is written to `.servebench/trace/` when the run ends.

use crate::util::{interleaved, mean, median, quantile, time_median, Rng, SpanLog};
use crate::{result_json, serve_window, Args, Metrics, Served};
use hicond::artifact::{kinds, Cache};
use hicond::core::{build_hierarchy, Hierarchy};
use hicond::graph::{laplacian, Graph};
use hicond::linalg::{Parallelism, Preconditioner};
use hicond::obs::json::{self, Value};
use hicond::precond::{
    decode_solver, encode_solver, solver_cache_key, LaplacianSolver, MultilevelSteiner,
    SolverOptions,
};
use hicond::serve::{respond, Action, ServeStats};
use std::time::{Duration, Instant};

/// Per-level rows in the output: levels 0, 1, 2, then "3" for level 3
/// together with every deeper non-coarse level, then the coarse solve.
const LEVEL_ROWS: usize = 4;

/// A round trip at least this much slower than the window's fastest
/// counts as a slow reply (the delayed-ACK stall is about 40 ms).
const SLOW_REPLY_MS: f64 = 30.0;

/// Per-level self times may differ from the separately timed full
/// apply by at most this share before the run is marked incorrect.
const APPLY_SUM_TOLERANCE: f64 = 0.2;

/// The layers must explain all but this share of the client's mean
/// round trip; more unexplained time is a measurement bug and marks the
/// run incorrect.
const MAX_UNEXPLAINED: f64 = 0.05;

fn ms(d: f64) -> f64 {
    d * 1e3
}

fn budget(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

pub fn traced(args: &Args) -> Result<String, String> {
    let untraced_p50 = run_untraced_child(args)?;
    let mut log = SpanLog::new(Instant::now());
    let started = Instant::now();
    let s = serve_window(args, Some(&mut log))?;
    log.push("serve_window".into(), None, started, Instant::now());
    let mut errors: Vec<String> = s.checked.errors.clone();
    let mut m = Metrics::default();
    let opts = SolverOptions::default();

    // --- serve: client-side phases of every round trip ---
    let ph = |f: &dyn Fn(&crate::load::Sample) -> u64| -> Vec<f64> {
        s.window.samples.iter().map(|x| f(x) as f64 / 1e6).collect()
    };
    let client = ph(&|x| x.end - x.start);
    let send = ph(&|x| x.sent - x.start);
    let wait = ph(&|x| x.first - x.sent);
    let recv = ph(&|x| x.end - x.first);
    let client_p50 = median(&client);
    let fastest = client.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = client
        .iter()
        .filter(|&&c| c >= fastest + SLOW_REPLY_MS)
        .count();
    let (stats_line, delta) = s.traced.clone().ok_or("traced window missing")?;
    let server_p50 = stats_field(&stats_line, "p50_us=")? / 1e3;
    let delta = json::parse(&delta).map_err(|e| format!("metrics delta: {e}"))?;
    let server_mean = span_mean_ms(&delta, "serve_request")?;
    let batch_mean = hist_mean(&delta, "serve/batch_size")?;
    m.put("serve.client_p50_ms", client_p50, "ms");
    m.put("serve.client_p99_ms", quantile(&client, 0.99), "ms");
    m.put("serve.client_mean_ms", mean(&client), "ms");
    m.put("serve.send_ms", mean(&send), "ms");
    m.put("serve.await_first_byte_ms", mean(&wait), "ms");
    m.put("serve.recv_ms", mean(&recv), "ms");
    let transport = mean(&send) + mean(&recv);
    m.put("serve.transport_ms", transport, "ms");
    m.put(
        "serve.slow_reply_fraction",
        slow as f64 / client.len().max(1) as f64,
        "fraction",
    );
    m.put("serve.server_p50_ms", server_p50, "ms");
    m.put("serve.outside_server_p50_ms", client_p50 - server_p50, "ms");
    m.put("serve.server_mean_ms", server_mean, "ms");
    m.put("serve.batch_size_mean", batch_mean, "count");

    // --- layer probes, each timed through its public entry point ---
    let g = &s.inputs.graph;
    let solver: &LaplacianSolver = &s.solver;
    let work = crate::work_dir();
    let build = log.time("probe.build", || probe_build(g, &opts, &work));
    let _ = crate::workload::remove_dir(&work);
    let build = build?;
    let solve = log.time("probe.solve", || probe_solve(solver, &s, batch_mean));
    let applies = log.time("probe.apply", || probe_apply(g, &build.hierarchy, &opts));
    let spmv = log.time("probe.spmv", || probe_spmv(&build.hierarchy));
    let pool = log.time("probe.pool", || probe_pool(solver, &s.inputs.rhs[0]));
    let obs = log.time("probe.obs", || probe_obs(solver, &s.inputs.rhs[0]));

    m.put("serve.protocol_ms", solve.protocol_ms, "ms");
    let queue_wait = server_mean - solve.protocol_ms - solve.block_ms_per_col;
    m.put("serve.queue_wait_ms", queue_wait, "ms");

    m.put("precond.iterations_mean", solve.iterations_mean, "count");
    m.put("precond.solve_ms", solve.solve_ms, "ms");
    m.put(
        "precond.solve_block_ms_per_col",
        solve.block_ms_per_col,
        "ms",
    );
    m.put("precond.apply_us", applies.full_us, "us");
    for (k, v) in applies.self_us.iter().enumerate() {
        m.put(format!("precond.level{k}.self_us"), *v, "us");
    }
    m.put("precond.coarse.self_us", applies.coarse_us, "us");

    m.put("linalg.spmv_ns_per_nnz", spmv.all_ns_per_nnz, "ns/nnz");
    for (k, v) in spmv.level_ns_per_nnz.iter().enumerate() {
        m.put(format!("linalg.level{k}.spmv_ns_per_nnz"), *v, "ns/nnz");
    }
    m.put("linalg.spmv_bytes_per_nnz", spmv.bytes_per_nnz_l0, "B/nnz");
    let per_iter_ms = (applies.full_us + spmv.l0_us) / 1e3;
    m.put(
        "linalg.pcg_rest_ms",
        solve.solve_ms - solve.iterations_mean * per_iter_ms,
        "ms",
    );

    m.put("graph.laplacian_ms", build.laplacian_ms, "ms");
    m.put("core.hierarchy_ms", build.hierarchy_ms, "ms");
    m.put("core.levels", build.hierarchy.num_levels() as f64, "count");
    let sizes = build.hierarchy.level_sizes();
    m.put(
        "core.reduction_l0",
        sizes[0] as f64 / *sizes.get(1).unwrap_or(&sizes[0]) as f64,
        "ratio",
    );
    m.put("precond.assemble_ms", build.assemble_ms, "ms");
    m.put("artifact.encode_ms", build.encode_ms, "ms");
    m.put("artifact.store_ms", build.store_ms, "ms");
    m.put("artifact.load_ms", build.load_ms, "ms");
    m.put("artifact.decode_ms", build.decode_ms, "ms");
    m.put("artifact.bytes", build.bytes as f64, "bytes");

    m.put("pool.width", rayon::pool::default_threads() as f64, "count");
    m.put("pool.solve_speedup_2t", pool, "ratio");
    m.put("obs.overhead_pct", obs, "%");

    // --- reconciliation ---
    // The client's mean round trip against what the layers account for:
    // client-side transport (write + reply read, which holds any stall)
    // plus the server's own `serve_request` span, which itself splits
    // into protocol + queue wait + solve per column.
    let explained = transport + solve.protocol_ms + queue_wait + solve.block_ms_per_col;
    let unexplained = 1.0 - explained / mean(&client);
    m.put(
        "trace.overhead_pct",
        100.0 * (client_p50 - untraced_p50) / untraced_p50,
        "%",
    );
    m.put("trace.unexplained_frac", unexplained, "fraction");

    // --- self-checks ---
    if build.hierarchy.num_levels() != s.levels {
        errors.push(format!(
            "core.levels: probe built {} levels, set-up {}",
            build.hierarchy.num_levels(),
            s.levels
        ));
    }
    if build.bytes as u64 != s.artifact_bytes {
        errors.push(format!(
            "artifact.bytes: probe encoded {}, set-up stored {}",
            build.bytes, s.artifact_bytes
        ));
    }
    if solve.iterations != s.checked.iterations {
        errors.push(format!(
            "iterations: direct solves {:?}, served replies {:?}",
            solve.iterations, s.checked.iterations
        ));
    }
    errors.extend(applies.errors);
    if unexplained.abs() > MAX_UNEXPLAINED {
        errors.push(format!(
            "trace.unexplained_frac {unexplained:.3} is outside ±{MAX_UNEXPLAINED}"
        ));
    }

    let path = std::path::PathBuf::from(".servebench")
        .join("trace")
        .join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    log.flush(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for e in &errors {
        eprintln!("servebench: {e}");
    }
    println!(
        "servebench: traced workload={} seed={} pool_width={} untraced_p50_ms={untraced_p50:.3} solve_block_width={} spans={} in {}",
        args.workload.name,
        args.seed,
        rayon::pool::default_threads(),
        solve.width,
        log.len(),
        path.display()
    );
    let attempted = s.window.samples.len();
    let failed = s.checked.ok.iter().filter(|&&o| !o).count();
    result_json(
        errors.is_empty() && failed == 0,
        attempted.max(1),
        failed,
        &m,
    )
}

/// Runs this binary's gated run (`--trace 0`) as its own process and
/// returns its `latency_p50_ms`.
fn run_untraced_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("untraced run printed nothing")?;
    let v = json::parse(last).map_err(|e| format!("untraced result: {e}"))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err("untraced run reported incorrect output".into());
    }
    v.get("metrics")
        .and_then(|m| m.get("latency_p50_ms"))
        .and_then(|l| l.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "untraced result has no latency_p50_ms".to_string())
}

/// `key=<number>` from a `stats` verb reply.
fn stats_field(line: &str, key: &str) -> Result<f64, String> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("stats reply has no {key}: {line}"))
}

fn span_mean_ms(delta: &Value, name: &str) -> Result<f64, String> {
    let s = delta
        .get("delta")
        .and_then(|d| d.get("spans"))
        .and_then(|d| d.get(name))
        .ok_or_else(|| format!("metrics delta has no span {name}"))?;
    let count = s.get("count").and_then(Value::as_f64).unwrap_or(0.0);
    let total = s.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0);
    Ok(total / count.max(1.0) / 1e6)
}

fn hist_mean(delta: &Value, name: &str) -> Result<f64, String> {
    delta
        .get("delta")
        .and_then(|d| d.get("histograms"))
        .and_then(|d| d.get(name))
        .and_then(|h| h.get("mean"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metrics delta has no histogram {name}"))
}

struct Build {
    hierarchy: Hierarchy,
    laplacian_ms: f64,
    hierarchy_ms: f64,
    assemble_ms: f64,
    encode_ms: f64,
    store_ms: f64,
    load_ms: f64,
    decode_ms: f64,
    bytes: usize,
}

/// The set-up layers one by one: Laplacian, hierarchy, assembly, then
/// the artifact encode / store / load / decode round trip.
fn probe_build(g: &Graph, opts: &SolverOptions, work: &std::path::Path) -> Result<Build, String> {
    let b = budget(0.25);
    let laplacian_ms = ms(time_median(3, b, || {
        std::hint::black_box(laplacian(g));
    }));
    let mut hierarchy = None;
    let hierarchy_ms = ms(time_median(3, b, || {
        hierarchy = Some(build_hierarchy(g, &opts.multilevel.hierarchy));
    }));
    let hierarchy = hierarchy.ok_or("no hierarchy built")?;
    let assemble_ms = ms(time_median(3, b, || {
        std::hint::black_box(MultilevelSteiner::from_hierarchy(
            g,
            &hierarchy,
            &opts.multilevel,
        ));
    }));
    let solver = LaplacianSolver::new(g, opts);
    let mut bytes = Vec::new();
    let encode_ms = ms(time_median(3, b, || bytes = encode_solver(&solver)));
    let cache = Cache::at(work.join("probe-cache"));
    let key = solver_cache_key(g, opts);
    let mut store_err = None;
    let store_ms = ms(time_median(3, b, || {
        if let Err(e) = cache.store(kinds::SOLVER, key, &bytes) {
            store_err = Some(e.to_string());
        }
    }));
    if let Some(e) = store_err {
        return Err(format!("artifact store: {e}"));
    }
    let mut loaded = Ok(None);
    let load_ms = ms(time_median(3, b, || {
        loaded = cache.load(kinds::SOLVER, key)
    }));
    let loaded = loaded
        .map_err(|e| e.to_string())?
        .ok_or("stored entry missing")?;
    if loaded != bytes {
        return Err("cache load returned different bytes".into());
    }
    let mut decoded = true;
    let decode_ms = ms(time_median(3, b, || {
        decoded &= decode_solver(&loaded).is_ok()
    }));
    if !decoded {
        return Err("stored solver does not decode".into());
    }
    Ok(Build {
        hierarchy,
        laplacian_ms,
        hierarchy_ms,
        assemble_ms,
        encode_ms,
        store_ms,
        load_ms,
        decode_ms,
        bytes: bytes.len(),
    })
}

struct Solve {
    iterations: Vec<usize>,
    iterations_mean: f64,
    solve_ms: f64,
    width: usize,
    block_ms_per_col: f64,
    protocol_ms: f64,
}

/// Direct solves of the served right-hand sides: iterations per line,
/// solo solve time, `solve_block` per column at the window's observed
/// batch width, and `respond` against `solve` on the same line.
fn probe_solve(solver: &LaplacianSolver, s: &Served, batch_mean: f64) -> Solve {
    let rhs = &s.inputs.rhs;
    let iterations: Vec<usize> = rhs
        .iter()
        .map(|b| solver.solve(b).map_or(0, |x| x.iterations))
        .collect();
    let iterations_mean = iterations.iter().sum::<usize>() as f64 / iterations.len() as f64;
    let mut k = 0;
    let solve_ms = ms(time_median(5, budget(0.6), || {
        std::hint::black_box(solver.solve(&rhs[k % rhs.len()]).ok());
        k += 1;
    }));
    let width = (batch_mean.round() as usize).clamp(1, rhs.len());
    let mut k = 0;
    let block_ms = ms(time_median(5, budget(0.6), || {
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|j| rhs[(k + j) % rhs.len()].clone())
            .collect();
        std::hint::black_box(solver.solve_block(&cols));
        k += width;
    }));
    // `respond` parses the line, solves, and formats the `ok` reply; the
    // same solve timed alone leaves parse + format.
    let n = solver.dim();
    let line = std::str::from_utf8(&s.inputs.lines[0])
        .unwrap_or("")
        .trim_end();
    let stats = ServeStats::new();
    let t = interleaved(2, 5, 10_000, budget(1.2), |v| {
        if v == 0 {
            let reply = respond(solver, n, line, &stats);
            std::hint::black_box(matches!(reply, Action::Reply(_)));
        } else {
            std::hint::black_box(solver.solve(&rhs[0]).ok());
        }
    });
    Solve {
        iterations,
        iterations_mean,
        solve_ms,
        width,
        block_ms_per_col: block_ms / width as f64,
        protocol_ms: ms(median(&t[0]) - median(&t[1])),
    }
}

struct Applies {
    full_us: f64,
    self_us: [f64; LEVEL_ROWS],
    coarse_us: f64,
    errors: Vec<String>,
}

/// One preconditioner apply timed for the full hierarchy and for every
/// suffix `levels[k..]` (built with `MultilevelSteiner::from_hierarchy`
/// on that suffix). Level `k`'s self time is suffix `k` minus suffix
/// `k + 1`; the coarse row is the last suffix, the coarse solve alone.
fn probe_apply(g: &Graph, h: &Hierarchy, opts: &SolverOptions) -> Applies {
    let mut errors = Vec::new();
    let full = MultilevelSteiner::new(g, &opts.multilevel);
    let depth = h.num_levels();
    let suffixes: Vec<MultilevelSteiner> = (0..depth)
        .map(|k| {
            let sub = Hierarchy {
                levels: h.levels[k..].to_vec(),
            };
            MultilevelSteiner::from_hierarchy(&h.levels[k].graph, &sub, &opts.multilevel)
        })
        .collect();
    let mut rng = Rng::new(depth as u64);
    let inputs: Vec<Vec<f64>> = h
        .levels
        .iter()
        .map(|l| {
            let n = l.graph.num_vertices();
            let mut r: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
            let mean = r.iter().sum::<f64>() / n as f64;
            r.iter_mut().for_each(|v| *v -= mean);
            r
        })
        .collect();
    let mut outs: Vec<Vec<f64>> = inputs.iter().map(|r| vec![0.0; r.len()]).collect();
    let mut z_full = vec![0.0; inputs[0].len()];
    full.apply_into(&inputs[0], &mut z_full);
    suffixes[0].apply_into(&inputs[0], &mut outs[0]);
    if z_full
        .iter()
        .zip(&outs[0])
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        errors.push("suffix-0 apply is not bitwise equal to the full apply".into());
    }
    // Variant 0 is the full preconditioner, variant k + 1 is suffix k.
    let t = interleaved(depth + 1, 10, 100_000, budget(1.2), |v| {
        if v == 0 {
            full.apply_into(&inputs[0], &mut z_full);
        } else {
            suffixes[v - 1].apply_into(&inputs[v - 1], &mut outs[v - 1]);
        }
    });
    let us: Vec<f64> = t.iter().map(|x| median(x) * 1e6).collect();
    let (full_us, suffix_us) = (us[0], &us[1..]);
    let coarse_us = suffix_us[depth - 1];
    let mut self_us = [0.0; LEVEL_ROWS];
    for k in 0..depth - 1 {
        let next = if k + 1 < LEVEL_ROWS { k + 1 } else { depth - 1 };
        if k < LEVEL_ROWS {
            self_us[k] = suffix_us[k] - suffix_us[next];
        }
    }
    let total: f64 = self_us.iter().sum::<f64>() + coarse_us;
    if ((total - full_us) / full_us).abs() > APPLY_SUM_TOLERANCE {
        errors.push(format!(
            "per-level self times sum to {total:.1} us, full apply {full_us:.1} us"
        ));
    }
    Applies {
        full_us,
        self_us,
        coarse_us,
        errors,
    }
}

struct Spmv {
    all_ns_per_nnz: f64,
    level_ns_per_nnz: [f64; LEVEL_ROWS],
    l0_us: f64,
    bytes_per_nnz_l0: f64,
}

/// `y = L x` on every non-coarse level's Laplacian (the products a
/// V-cycle makes), with the default parallel policy.
fn probe_spmv(h: &Hierarchy) -> Spmv {
    let depth = h.num_levels();
    let laps: Vec<_> = h.levels[..depth - 1]
        .iter()
        .map(|l| laplacian(&l.graph))
        .collect();
    let xs: Vec<Vec<f64>> = laps.iter().map(|a| vec![1.0; a.ncols()]).collect();
    let mut ys: Vec<Vec<f64>> = laps.iter().map(|a| vec![0.0; a.nrows()]).collect();
    let t = interleaved(laps.len(), 10, 100_000, budget(0.6), |k| {
        laps[k].mul_into_with(&xs[k], &mut ys[k], Parallelism::default());
    });
    let ns: Vec<f64> = t.iter().map(|x| median(x) * 1e9).collect();
    let nnz: Vec<f64> = laps.iter().map(|a| a.nnz() as f64).collect();
    let mut rows = [(0.0, 0.0); LEVEL_ROWS];
    for k in 0..laps.len() {
        let r = &mut rows[k.min(LEVEL_ROWS - 1)];
        r.0 += ns[k];
        r.1 += nnz[k];
    }
    let (n0, z0) = (laps[0].nrows() as f64, nnz[0]);
    Spmv {
        all_ns_per_nnz: ns.iter().sum::<f64>() / nnz.iter().sum::<f64>(),
        level_ns_per_nnz: rows.map(|(t, z)| if z > 0.0 { t / z } else { 0.0 }),
        l0_us: ns[0] / 1e3,
        // Computed from array sizes, not measured: 8-byte value + 4-byte
        // column per nonzero, 8-byte row pointers, x read and y written.
        bytes_per_nnz_l0: (12.0 * z0 + 8.0 * (n0 + 1.0) + 16.0 * n0) / z0,
    }
}

/// Solve time at one thread over solve time at the pool's default width.
fn probe_pool(solver: &LaplacianSolver, b: &[f64]) -> f64 {
    let t = interleaved(2, 5, 10_000, budget(1.0), |v| {
        if v == 0 {
            rayon::pool::with_thread_cap(1, || std::hint::black_box(solver.solve(b).ok()));
        } else {
            std::hint::black_box(solver.solve(b).ok());
        }
    });
    median(&t[0]) / median(&t[1])
}

/// Solve time with the program's instrumentation on (json) over off, in
/// percent above off. Leaves it off.
fn probe_obs(solver: &LaplacianSolver, b: &[f64]) -> f64 {
    use hicond::obs::{set_mode, Mode};
    let t = interleaved(2, 5, 10_000, budget(1.0), |v| {
        set_mode(if v == 0 { Mode::Off } else { Mode::Json });
        std::hint::black_box(solver.solve(b).ok());
    });
    set_mode(Mode::Off);
    100.0 * (median(&t[1]) - median(&t[0])) / median(&t[0])
}
