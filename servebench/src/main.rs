//! `servebench`: the end-to-end benchmark of `hicond serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload grid96-warm-2c --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` is the gated run: set-up, warm-up, then a closed-loop
//! window against the in-process TCP server with the program's
//! instrumentation off; it prints the end-to-end metrics. `--trace 1`
//! first runs `--trace 0` as a child process (its p50 is the untraced
//! reference), then repeats the window with spans recorded and times
//! every layer through its public functions; it prints the per-layer
//! metrics. Either way the last stdout line is one JSON object. See
//! `servebench/README.md` for the workloads and the metric definitions.

mod load;
mod probes;
mod util;
mod verify;
mod workload;

use load::{Conn, Server, Status, Window};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use util::{median, quantile, SpanLog};
use workload::{Inputs, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    m: &Metrics,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Scratch space of this process under the checkout: cache directories
/// live here while the run lasts.
fn work_dir() -> PathBuf {
    PathBuf::from(".servebench").join(format!("run-{}", std::process::id()))
}

/// Outcome of checking every reply of a window.
struct Checked {
    /// Whether each timed reply (by sample index) checked out.
    ok: Vec<bool>,
    /// Iterations the server reported for each line (from its warm-up reply).
    iterations: Vec<usize>,
    /// Problems outside the counted samples (a warm-up reply that failed).
    errors: Vec<String>,
}

/// Verifies each line's warm-up reply and every stashed reply; a timed
/// reply is ok when it repeats a verified warm-up reply byte for byte or
/// was stashed and verified on its own.
fn check_window(inputs: &Inputs, win: &Window) -> Checked {
    let mut errors = Vec::new();
    let mut iterations = vec![0; win.warm.len()];
    let warm_ok: Vec<bool> = win
        .warm
        .iter()
        .enumerate()
        .map(
            |(i, r)| match verify::check_reply(&inputs.graph, &inputs.rhs[i], r) {
                Ok(it) => {
                    iterations[i] = it;
                    true
                }
                Err(e) => {
                    errors.push(format!("line {i} warm-up reply: {e}"));
                    false
                }
            },
        )
        .collect();
    let stash_ok: Vec<bool> = win
        .stashed
        .iter()
        .map(
            |(i, r)| match verify::check_reply(&inputs.graph, &inputs.rhs[*i], r) {
                Ok(_) => true,
                Err(e) => {
                    errors.push(format!("line {i} reply differing from warm-up: {e}"));
                    false
                }
            },
        )
        .collect();
    let ok = win
        .samples
        .iter()
        .map(|s| match s.status {
            Status::SameAsWarmup => warm_ok[s.line],
            Status::Stashed(j) => stash_ok[j],
            Status::Failed => false,
        })
        .collect();
    Checked {
        ok,
        iterations,
        errors,
    }
}

/// One served window: set-up, server, connections, warm-up, closed loop,
/// shutdown, checks. Shared by the gated and the traced run.
struct Served {
    inputs: Inputs,
    setup_times: Vec<f64>,
    artifact_bytes: u64,
    levels: usize,
    solver: Arc<hicond::precond::LaplacianSolver>,
    window: Window,
    checked: Checked,
    /// Traced runs only: the `stats` verb reply after the window and the
    /// `metrics` delta over the window.
    traced: Option<(String, String)>,
}

fn serve_window(args: &Args, spans: Option<&mut SpanLog>) -> Result<Served, String> {
    let w = args.workload;
    let opts = hicond::precond::SolverOptions::default();
    let inputs = w.inputs(args.seed);
    let work = work_dir();
    let setup = workload::setup(w, &inputs.graph, &opts, &work);
    let _ = workload::remove_dir(&work);
    let setup = setup?;
    let solver = Arc::new(setup.solver);
    let server = Server::start(Arc::clone(&solver))?;
    let reply_cap = inputs.graph.num_vertices() * 26 + 4096;
    let mut traced = None;
    let mut conns = (0..w.conns)
        .map(|_| Conn::connect(server.addr, reply_cap))
        .collect::<Result<Vec<_>, _>>()?;
    let window = load::warm_up(&mut conns, &inputs.lines).and_then(|warm| {
        if spans.is_none() {
            return load::run_window(&mut conns, &inputs.lines, args.seconds, warm, None);
        }
        // The traced window runs with the program's own instrumentation
        // on; the `metrics` deltas around it are the server-side spans.
        hicond::obs::set_mode(hicond::obs::Mode::Json);
        conns[0].verb("metrics")?;
        let win = load::run_window(&mut conns, &inputs.lines, args.seconds, warm, spans);
        let delta = conns[0].verb("metrics")?;
        hicond::obs::set_mode(hicond::obs::Mode::Off);
        traced = Some((conns[0].verb("stats")?, delta));
        win
    });
    drop(conns);
    server.stop()?;
    let window = window?;
    let checked = check_window(&inputs, &window);
    Ok(Served {
        inputs,
        setup_times: setup.times,
        artifact_bytes: setup.artifact_bytes,
        levels: setup.levels,
        solver,
        window,
        checked,
        traced,
    })
}

fn gated(args: &Args) -> Result<String, String> {
    let s = serve_window(args, None)?;
    let lat = s.window.latencies_ms();
    let attempted = s.window.samples.len();
    let ok = s.checked.ok.iter().filter(|&&o| o).count();
    let mut m = Metrics::default();
    m.put("setup_s", median(&s.setup_times), "s");
    m.put("latency_p50_ms", median(&lat), "ms");
    m.put("throughput_rps", s.window.steady_rate(&s.checked.ok), "1/s");
    m.put(
        "ok_fraction",
        ok as f64 / attempted.max(1) as f64,
        "fraction",
    );
    m.put(
        "peak_rss_mb",
        util::peak_rss_mb().ok_or("no /proc/self/status")?,
        "MiB",
    );
    for e in &s.checked.errors {
        eprintln!("servebench: {e}");
    }
    let correct = s.checked.errors.is_empty() && ok == attempted && attempted > 0;
    println!(
        "servebench: workload={} seed={} pool_width={} conns={} requests={} p99_ms={:.3} set-ups={}",
        args.workload.name,
        args.seed,
        rayon::pool::default_threads(),
        args.workload.conns,
        attempted,
        quantile(&lat, 0.99),
        s.setup_times.len(),
    );
    result_json(correct, attempted.max(1), attempted - ok, &m)
}

/// Limits glibc's malloc to one arena. With one arena per thread (the
/// default), which arena a connection or pool thread lands in, and so
/// how much freed memory stays resident, depends on thread timing: peak
/// RSS of the same run then moves by about 15%. With one arena it moves
/// by about 2%. Must run before this process starts a second thread.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas() -> bool {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` is glibc's allocator tuning entry point; it takes
    // two integers by value and changes only allocator settings, and it is
    // called before any other thread of this process exists.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas() -> bool {
    false
}

fn main() {
    let arenas_pinned = pin_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if !arenas_pinned {
        eprintln!("servebench: could not limit malloc to one arena; peak_rss_mb will be noisier");
    }
    // Gated conditions regardless of the caller's environment: the
    // program's instrumentation off and no scheduler jitter.
    hicond::obs::set_mode(hicond::obs::Mode::Off);
    rayon::pool::set_sched_jitter(None);
    let result = if args.trace {
        probes::traced(&args)
    } else {
        gated(&args)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
