//! End-to-end telemetry contract for the solve service (DESIGN.md §13).
//!
//! Two guarantees the flight recorder exists to provide are pinned here,
//! above the unit level:
//!
//! 1. **Span-tree reassembly.** One request's events — request open/close,
//!    every span it opened on the serving thread, and the PCG milestones —
//!    all carry the same nonzero trace id in a `metrics` scrape, and the
//!    span enter/exit events within that trace are balanced, so an
//!    operator (or `hicond top`) can rebuild the request's full span tree
//!    from a single drained window.
//! 2. **Convergence telemetry on the batched path.** A block solve
//!    records one residual-decade milestone per decade each column
//!    crosses — the same events its columns would record as solo solves.
//! 3. **Black-box on crash.** A panicking process ships a one-line
//!    `{"flight_recorder": …}` JSON dump on stderr that the crate's own
//!    parser accepts, with the trailing events intact (exercised against
//!    the real binary via the hidden `flight-panic` verb).

use hicond::obs::{self, json, Mode};
use hicond::precond::{LaplacianSolver, SolverOptions};
use hicond::serve::{respond, Action, ServeStats};
use hicond_graph::generators;
use std::collections::BTreeMap;

fn tiny_solver() -> (LaplacianSolver, usize) {
    let g = generators::path(8, |_| 1.0);
    let n = g.num_vertices();
    (LaplacianSolver::new(&g, &SolverOptions::default()), n)
}

fn reply(solver: &LaplacianSolver, n: usize, line: &str, stats: &ServeStats) -> String {
    match respond(solver, n, line, stats) {
        Action::Reply(r) => r,
        other => panic!("expected a reply to {line:?}, got {other:?}"),
    }
}

#[test]
fn metrics_scrape_reassembles_one_request_span_tree_by_trace_id() {
    // This test binary is its own process, so flipping the global mode
    // races nothing (each integration test file runs isolated).
    obs::set_mode(Mode::Json);
    let (solver, n) = tiny_solver();
    let stats = ServeStats::new();
    // Prime the delta baseline so the next scrape covers only the request
    // issued between the two.
    reply(&solver, n, "metrics", &stats);

    let mut b = vec![1.0; n];
    b[0] = -(n as f64 - 1.0); // orthogonal to the constant vector
    let line: Vec<String> = b.iter().map(|v| v.to_string()).collect();
    assert!(reply(&solver, n, &line.join(" "), &stats).starts_with("ok "));

    let scrape = reply(&solver, n, "metrics", &stats);
    let v = json::parse(&scrape).expect("metrics scrape must parse");
    let events = v
        .get("flight")
        .and_then(|f| f.get("events"))
        .and_then(|e| e.as_array())
        .expect("scrape carries a flight.events array");

    // The one solve request in the window: exactly one req_open, and its
    // trace id is nonzero.
    let str_field = |e: &json::Value, k: &str| {
        e.get(k)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .unwrap_or_default()
    };
    let num_field =
        |e: &json::Value, k: &str| e.get(k).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
    let opens: Vec<_> = events
        .iter()
        .filter(|e| str_field(e, "kind") == "req_open")
        .collect();
    assert_eq!(opens.len(), 1, "one solve request, one req_open");
    let trace = num_field(opens[0], "trace");
    assert!(trace > 0.0, "requests get a fresh nonzero trace id");

    // Everything the request did carries that id: collect its events and
    // rebuild the span tree.
    let ours: Vec<_> = events
        .iter()
        .filter(|e| num_field(e, "trace") == trace)
        .collect();
    let kinds: Vec<String> = ours.iter().map(|e| str_field(e, "kind")).collect();
    assert_eq!(kinds.first().map(String::as_str), Some("req_open"));
    // req_close fires just before the request's root span closes, so it
    // sits at the tail of the trace (followed only by that span_exit).
    let closes: Vec<_> = ours
        .iter()
        .filter(|e| str_field(e, "kind") == "req_close")
        .collect();
    assert_eq!(closes.len(), 1, "one solve request, one req_close");
    assert_eq!(num_field(closes[0], "err"), 0.0, "the solve succeeded");
    assert!(
        num_field(closes[0], "latency_us") > 0.0,
        "req_close carries the solve latency"
    );

    // Span enters and exits within the trace are balanced per name and
    // the running depth never goes negative — the reassembly invariant
    // `hicond top` renders from.
    let mut depth = 0i64;
    let mut by_name: BTreeMap<String, i64> = BTreeMap::new();
    for e in &ours {
        match str_field(e, "kind").as_str() {
            "span_enter" => {
                depth += 1;
                *by_name.entry(str_field(e, "name")).or_insert(0) += 1;
            }
            "span_exit" => {
                depth -= 1;
                assert!(depth >= 0, "span exit without a matching enter");
                *by_name.entry(str_field(e, "name")).or_insert(0) -= 1;
                assert!(num_field(e, "dur_ns") >= 0.0, "span exits carry a duration");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "span tree must close back to the root");
    assert!(by_name.values().all(|&v| v == 0), "unbalanced span names");
    // The request's actual phases are present under its trace.
    for want in ["serve_request", "serve_request/solve"] {
        assert!(
            by_name.contains_key(want),
            "span {want:?} missing from the trace (got {by_name:?})"
        );
    }
}

#[test]
fn block_solve_records_residual_milestones_for_every_column() {
    obs::set_mode(Mode::Json);
    let g = generators::grid2d(24, 24, |u, v| 1.0 + ((u + 2 * v) % 3) as f64);
    let n = g.num_vertices();
    let solver = LaplacianSolver::new(&g, &SolverOptions::default());
    let cols: Vec<Vec<f64>> = (0..2)
        .map(|s| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| (((i + 5 * s) * 37 + 11) % 23) as f64 - 11.0)
                .collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            b.iter_mut().for_each(|v| *v -= mean);
            b
        })
        .collect();
    // The milestone rule applied to a residual trajectory: one event per
    // iteration whose relative residual enters a new decade below 1e-1.
    let decades = |hist: &[f64]| {
        let mut next = 0.1f64;
        let mut count = 0;
        for &r in &hist[1..] {
            let rel = r / hist[0];
            if rel > 0.0 && rel.is_finite() && rel < next {
                count += 1;
                while next > rel {
                    next /= 10.0;
                }
            }
        }
        count
    };
    let expected: usize = cols
        .iter()
        .map(|b| decades(&solver.solve_recording(b).expect("solo solves").1))
        .sum();
    assert!(
        expected >= 8,
        "each column crosses several decades ({expected})"
    );
    // Milestone events recorded under a fresh trace id while `f` runs;
    // filtering by the id keeps concurrent tests out of the count.
    let milestones = |f: &dyn Fn()| {
        let trace = obs::flight::next_trace_id();
        let since = obs::flight::recorder().head();
        {
            let _scope = obs::flight::trace_scope(trace);
            f();
        }
        obs::flight::recorder()
            .drain_since(since)
            .iter()
            .filter(|e| e.trace == trace && e.kind == obs::flight::EventKind::ResidualMilestone)
            .count()
    };
    let solo = milestones(&|| {
        for b in &cols {
            solver.solve(b).expect("solo solves");
        }
    });
    let block = milestones(&|| {
        for r in solver.solve_block(&cols) {
            r.expect("block column solves");
        }
    });
    assert_eq!(solo, expected, "solo solves: one milestone per decade");
    assert_eq!(
        block, expected,
        "block solve: one milestone per decade per column"
    );
}

#[test]
fn forced_panic_ships_a_parseable_flight_dump() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hicond"))
        .arg("flight-panic")
        .env("HICOND_OBS", "json")
        .output()
        .expect("spawn hicond flight-panic");
    assert!(!out.status.success(), "flight-panic must panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let dump = stderr
        .lines()
        .find(|l| l.starts_with("{\"flight_recorder\""))
        .unwrap_or_else(|| panic!("no flight dump on stderr:\n{stderr}"));
    let v = json::parse(dump).expect("panic dump must be valid JSON");
    let rec = v.get("flight_recorder").expect("dump root key");
    let head = rec
        .get("head")
        .and_then(|h| h.as_f64())
        .expect("dump carries head");
    assert!(head >= 1.0, "something was recorded before the panic");
    let events = rec
        .get("events")
        .and_then(|e| e.as_array())
        .expect("dump carries events");
    assert!(!events.is_empty(), "dump must include trailing events");
    for e in events {
        assert!(e.get("seq").is_some() && e.get("kind").is_some() && e.get("name").is_some());
    }
    // The verb's own breadcrumbs made it into the black box.
    assert!(
        dump.contains("flight_panic"),
        "pre-panic events missing from the dump: {dump}"
    );
}
