//! The three workloads, their seeded inputs, and the timed set-up that
//! produces the solver a run serves.

use crate::util::{secs, Rng};
use hicond::artifact::Cache;
use hicond::graph::{generators, Graph};
use hicond::precond::{load_or_build, LaplacianSolver, SolverOptions, SolverSource};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Right-hand sides generated per run; every connection cycles through
/// all of them, so each line is sent many times in one window.
const DISTINCT_LINES: usize = 16;

pub struct Workload {
    pub name: &'static str,
    /// Closed-loop connections (= load-generator threads).
    pub conns: usize,
    /// Cold: every set-up builds into a fresh empty cache. Warm: every
    /// set-up loads from a cache filled once beforehand.
    pub cold: bool,
    graph: fn(u64) -> Graph,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "grid32-warm-1c",
        conns: 1,
        cold: false,
        graph: |_| generators::grid2d(32, 32, |_, _| 1.0),
    },
    Workload {
        name: "grid96-warm-2c",
        conns: 2,
        cold: false,
        graph: |_| generators::grid2d(96, 96, |_, _| 1.0),
    },
    Workload {
        name: "oct32-cold-2c",
        conns: 2,
        cold: true,
        graph: |seed| generators::oct_like_grid3d(32, 32, 32, seed, Default::default()),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything generated from `--seed` before anything is timed.
pub struct Inputs {
    pub graph: Graph,
    /// Right-hand sides, each summing to zero (consistent systems).
    pub rhs: Vec<Vec<f64>>,
    /// The same right-hand sides as protocol lines, newline included,
    /// encoded once so the timed loop only writes bytes.
    pub lines: Vec<Vec<u8>>,
}

impl Workload {
    pub fn inputs(&self, seed: u64) -> Inputs {
        let graph = (self.graph)(seed);
        let n = graph.num_vertices();
        let mut rng = Rng::new(seed);
        let rhs: Vec<Vec<f64>> = (0..DISTINCT_LINES)
            .map(|_| {
                let mut b: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
                let mean = b.iter().sum::<f64>() / n as f64;
                b.iter_mut().for_each(|v| *v -= mean);
                b
            })
            .collect();
        let lines = rhs
            .iter()
            .map(|b| {
                let mut s = String::with_capacity(n * 24);
                for (i, v) in b.iter().enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    // `{:e}` prints the shortest string that parses back
                    // to the same f64, so the server sees exactly `b`.
                    s.push_str(&format!("{v:e}"));
                }
                s.push('\n');
                s.into_bytes()
            })
            .collect();
        Inputs { graph, rhs, lines }
    }
}

/// The set-up measurement of one run.
pub struct Setup {
    pub solver: LaplacianSolver,
    /// Seconds of each repeated set-up.
    pub times: Vec<f64>,
    /// Artifact size, identical on every repeat (checked).
    pub artifact_bytes: u64,
    pub levels: usize,
}

/// Minimum repeats, and the time after which no new repeat starts.
const SETUP_MIN_REPS: usize = 7;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// Repeats the workload's set-up (`load_or_build` on a fresh empty cache
/// when cold, on a cache filled once beforehand when warm) and keeps the
/// last solver. Every cache directory lives under `work` and is removed
/// before returning.
pub fn setup(w: &Workload, g: &Graph, opts: &SolverOptions, work: &Path) -> Result<Setup, String> {
    let warm_dir = work.join("cache-warm");
    if !w.cold {
        // Fill once (untimed): the warm set-ups below must all hit.
        let (_, src) = load_or_build(&Cache::at(&warm_dir), g, opts).map_err(|e| e.to_string())?;
        if src != SolverSource::Built {
            return Err("warm fill found a stale cache entry".into());
        }
    }
    let mut times = Vec::new();
    let mut last: Option<(LaplacianSolver, u64)> = None;
    let started = Instant::now();
    let mut rep = 0usize;
    while rep < SETUP_MIN_REPS || (secs(started) < SETUP_BUDGET_S && rep < SETUP_MAX_REPS) {
        let dir: PathBuf = if w.cold {
            work.join(format!("cache-cold-{rep}"))
        } else {
            warm_dir.clone()
        };
        let cache = Cache::at(&dir);
        let t = Instant::now();
        let (solver, src) = load_or_build(&cache, g, opts).map_err(|e| e.to_string())?;
        times.push(secs(t));
        let want = if w.cold {
            SolverSource::Built
        } else {
            SolverSource::Loaded
        };
        if src != want {
            return Err(format!("set-up {rep}: expected {want:?}, got {src:?}"));
        }
        let bytes = entry_bytes(&dir)?;
        if let Some((prev, prev_bytes)) = &last {
            if bytes != *prev_bytes || solver.num_levels() != prev.num_levels() {
                return Err(format!("set-up {rep} differs from the previous one"));
            }
        }
        if w.cold {
            remove_dir(&dir)?;
        }
        last = Some((solver, bytes));
        rep += 1;
    }
    remove_dir(&warm_dir)?;
    let (solver, artifact_bytes) = last.ok_or("no set-up ran")?;
    Ok(Setup {
        levels: solver.num_levels(),
        solver,
        times,
        artifact_bytes,
    })
}

/// Total size of the cache entries in `dir`.
fn entry_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for e in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        total += e.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}
