//! Request coalescing for the concurrent serve front end: a bounded
//! queue of parsed right-hand sides plus one dispatcher thread per pool
//! thread, each folding whatever is pending into a single block solve
//! ([`hicond_precond::LaplacianSolver::solve_block`]).
//!
//! ## Dispatch policy
//!
//! [`BatchQueue::start`] spawns `rayon::current_num_threads()`
//! dispatchers — the pool width — all draining the same queue, so a
//! caller's request is solved on an idle core instead of queueing
//! behind another caller's solve. Every batch solves on its own
//! dispatcher thread under `rayon::pool::with_thread_cap(1, ..)`: the
//! parallelism is across requests, not inside one solve, so concurrent
//! batches run on separate cores without sharing pool workers. Solves
//! are bitwise identical at every thread cap, so the cap changes timing,
//! never replies.
//!
//! A batch closes on whichever trigger fires first:
//!
//! - **size** — `HICOND_SERVE_BATCH` right-hand sides are pending
//!   (default 8), or
//! - **time** — `HICOND_SERVE_BATCH_WINDOW_MS` elapsed since the
//!   dispatcher first saw the oldest pending request. The default is 0:
//!   dispatch is work-conserving, and an idle dispatcher takes whatever
//!   is pending at once. A nonzero window trades that much added
//!   latency for larger block solves when many callers arrive together.
//!
//! Admission control is a hard cap, not a queue: when
//! `HICOND_SERVE_MAX_INFLIGHT` right-hand sides are already pending or
//! inside a block solve (default 4× the batch size), [`BatchQueue::submit`]
//! refuses with [`SubmitError::Busy`] and the connection replies a
//! structured `ERR busy` — bounded memory under any client behavior.
//!
//! ## Tracing through the block
//!
//! Each request keeps its own trace id across the shared solve: the
//! dispatcher mints one *batch* trace, emits a `batch_join` flight event
//! under every member's request trace pointing at the batch trace (and
//! the member's slot), then runs the block solve under the batch trace.
//! A `metrics` scrape can therefore reassemble per-request timelines:
//! request events under the request trace, shared solve spans under the
//! batch trace, joined by the `batch_join` edges.
//!
//! ## Shutdown
//!
//! [`BatchQueue::shutdown`] flips the queue into drain mode and wakes
//! every dispatcher: new submits are refused, everything already
//! admitted is still solved and answered, and the final [`DrainReport`]
//! says how deep the queue was when the drain began.

use super::ServeStats;
use hicond_precond::{LaplacianSolver, Solution, SolveError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Dispatch-policy knobs, normally read from the environment once at
/// startup ([`BatchConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum right-hand sides folded into one block solve
    /// (`HICOND_SERVE_BATCH`, default 8, minimum 1).
    pub max_batch: usize,
    /// How long a dispatcher holds an underfull batch open waiting for
    /// company (`HICOND_SERVE_BATCH_WINDOW_MS`, default 0: dispatch at
    /// once).
    pub window: Duration,
    /// Admission cap across queued + solving right-hand sides
    /// (`HICOND_SERVE_MAX_INFLIGHT`, default `4 * max_batch`).
    pub max_inflight: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        let max_batch = 8;
        BatchConfig {
            max_batch,
            window: Duration::ZERO,
            max_inflight: 4 * max_batch,
        }
    }
}

impl BatchConfig {
    /// Reads the three knobs from the environment, failing fast (like
    /// `rayon::pool::validate_env`) on set-but-garbled values: an
    /// operator typo must be a startup error, never a silent default.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = BatchConfig::default();
        if let Some(v) = read_env_usize("HICOND_SERVE_BATCH", 1)? {
            cfg.max_batch = v;
            cfg.max_inflight = 4 * v;
        }
        if let Some(v) = read_env_usize("HICOND_SERVE_BATCH_WINDOW_MS", 0)? {
            cfg.window = Duration::from_millis(v as u64);
        }
        if let Some(v) = read_env_usize("HICOND_SERVE_MAX_INFLIGHT", 1)? {
            cfg.max_inflight = v;
        }
        if cfg.max_inflight < cfg.max_batch {
            return Err(format!(
                "HICOND_SERVE_MAX_INFLIGHT ({}) must be at least HICOND_SERVE_BATCH ({})",
                cfg.max_inflight, cfg.max_batch
            ));
        }
        Ok(cfg)
    }
}

fn read_env_usize(name: &str, min: usize) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v >= min => Ok(Some(v)),
            Ok(v) => Err(format!("{name}={v} is below the minimum of {min}")),
            Err(_) => Err(format!("{name}={raw:?} is not a non-negative integer")),
        },
        Err(_) => Ok(None),
    }
}

/// Why [`BatchQueue::submit`] refused a right-hand side.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: `depth` right-hand sides are already pending
    /// or solving against a cap of `limit`.
    Busy { depth: usize, limit: usize },
    /// The queue is draining; no new work is admitted.
    ShuttingDown,
}

/// What [`BatchQueue::shutdown`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queue depth (pending, not yet solving) when the drain began.
    pub queued_at_shutdown: usize,
    /// Right-hand sides answered over the queue's whole lifetime.
    pub completed: u64,
}

/// One admitted solve request parked on the queue.
struct Pending {
    rhs: Vec<f64>,
    /// The request's own flight-recorder trace id (survives batching).
    trace: u64,
    tx: mpsc::SyncSender<Result<Solution, SolveError>>,
}

struct QueueState {
    pending: VecDeque<Pending>,
    /// Right-hand sides checked out by dispatchers, not yet answered.
    solving: usize,
    shutdown: bool,
    completed: u64,
}

/// The shared coalescing queue. Connections [`submit`](BatchQueue::submit)
/// parsed right-hand sides; the dispatcher threads (started by
/// [`BatchQueue::start`]) form batches and answer through per-request
/// channels. Plain `Mutex` + `Condvar`: the queue is a control-plane
/// structure — the data plane (the block solve) runs outside the lock.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signals the dispatchers: work arrived or shutdown was requested.
    work: Condvar,
    cfg: BatchConfig,
}

/// Recovers the guard from a poisoned queue lock: the state is a plain
/// collection with no invariant a panicking dispatcher could half-apply
/// (drain pops are single calls), so continuing is sound and keeps the
/// serve surface panic-free.
fn lock_state<'a>(m: &'a Mutex<QueueState>) -> MutexGuard<'a, QueueState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl BatchQueue {
    /// Creates an idle queue; call [`start`](BatchQueue::start) to spawn
    /// the dispatchers that actually solve.
    pub fn new(cfg: BatchConfig) -> Arc<BatchQueue> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                solving: 0,
                shutdown: false,
                completed: 0,
            }),
            work: Condvar::new(),
            cfg,
        })
    }

    /// The dispatch policy this queue was built with.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Spawns one dispatcher thread per pool thread
    /// (`rayon::current_num_threads()` on the calling thread). Returns a
    /// handle whose [`Dispatcher::join`] blocks until
    /// [`shutdown`](BatchQueue::shutdown) has been called and the drain
    /// finished.
    pub fn start(
        self: &Arc<BatchQueue>,
        solver: Arc<LaplacianSolver>,
        stats: Arc<ServeStats>,
    ) -> Dispatcher {
        let handles = (0..rayon::current_num_threads())
            .filter_map(|i| {
                let queue = Arc::clone(self);
                let solver = Arc::clone(&solver);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("serve-batch-dispatcher-{i}"))
                    .spawn(move || queue.dispatch_loop(&solver, &stats))
                    .ok()
            })
            .collect();
        Dispatcher { handles }
    }

    /// Admits one parsed right-hand side, returning the channel its
    /// solution will arrive on, or a structured refusal. Never blocks
    /// beyond the mutex.
    pub fn submit(
        &self,
        rhs: Vec<f64>,
        trace: u64,
    ) -> Result<mpsc::Receiver<Result<Solution, SolveError>>, SubmitError> {
        let mut st = lock_state(&self.state);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let depth = st.pending.len() + st.solving;
        if depth >= self.cfg.max_inflight {
            return Err(SubmitError::Busy {
                depth,
                limit: self.cfg.max_inflight,
            });
        }
        // Rendezvous-with-buffer-1: the dispatcher's send never blocks,
        // even if the submitting connection died before receiving.
        let (tx, rx) = mpsc::sync_channel(1);
        st.pending.push_back(Pending { rhs, trace, tx });
        self.work.notify_one();
        Ok(rx)
    }

    /// Current queue depth (pending + solving); used by shed messages
    /// and the drain report.
    pub fn depth(&self) -> usize {
        let st = lock_state(&self.state);
        st.pending.len() + st.solving
    }

    /// Flips the queue into drain mode and reports the depth at that
    /// instant. Admitted requests are still solved and answered; the
    /// dispatchers exit once the queue is empty (wait on
    /// [`Dispatcher::join`] for that). Idempotent.
    pub fn shutdown(&self) -> DrainReport {
        let mut st = lock_state(&self.state);
        st.shutdown = true;
        let report = DrainReport {
            queued_at_shutdown: st.pending.len(),
            completed: st.completed,
        };
        // Every dispatcher must see the flag: an idle one woken by
        // nobody would never exit and `Dispatcher::join` would hang.
        self.work.notify_all();
        report
    }

    /// Dispatcher body: collect → solve → answer, until shutdown drains
    /// the queue dry.
    fn dispatch_loop(&self, solver: &LaplacianSolver, stats: &ServeStats) {
        loop {
            let batch = match self.collect_batch(stats) {
                Some(batch) => batch,
                None => return, // shutdown and nothing left to drain
            };
            let k = batch.len();
            // Parallelism comes from the other dispatchers, one per pool
            // thread, not from the pool inside this solve.
            rayon::pool::with_thread_cap(1, || self.solve_batch(batch, solver, stats));
            let mut st = lock_state(&self.state);
            st.solving -= k;
            st.completed += k as u64;
            stats.set_queue_gauges(st.pending.len() as u64, st.solving as u64);
        }
    }

    /// Blocks until a batch is ready per the size/time triggers (or the
    /// queue is shut down and drained). Checked-out requests are counted
    /// in `solving` until `dispatch_loop` returns them.
    fn collect_batch(&self, stats: &ServeStats) -> Option<Vec<Pending>> {
        let mut st = lock_state(&self.state);
        loop {
            // Phase 1: wait for any work at all.
            while st.pending.is_empty() {
                if st.shutdown {
                    return None;
                }
                st = match self.work.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            // Phase 2: hold the batch open for the time window unless
            // the size trigger (or shutdown, which drains immediately)
            // fires first. The window measures from when this
            // dispatcher saw the batch's first member — one lone request
            // waits at most one window.
            //
            // audit: allow(instant-now) — dispatch-deadline bookkeeping;
            // wall time never reaches the solver numerics.
            let deadline = Instant::now() + self.cfg.window;
            while !st.pending.is_empty() && st.pending.len() < self.cfg.max_batch && !st.shutdown {
                // audit: allow(instant-now) — see the deadline note above.
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _timeout) = match self.work.wait_timeout(st, deadline - now) {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                st = guard;
            }
            if st.pending.is_empty() {
                // Another dispatcher took the requests this one was
                // holding open: wait for new work, never solve nothing.
                continue;
            }
            let k = st.pending.len().min(self.cfg.max_batch);
            let batch: Vec<Pending> = st.pending.drain(..k).collect();
            if !st.pending.is_empty() {
                // The submits' wake-ups may all have landed on this
                // dispatcher; hand the leftovers to an idle one.
                self.work.notify_one();
            }
            st.solving += k;
            stats.set_queue_gauges(st.pending.len() as u64, st.solving as u64);
            return Some(batch);
        }
    }

    /// Runs one block solve outside the lock and answers every member.
    fn solve_batch(&self, batch: Vec<Pending>, solver: &LaplacianSolver, stats: &ServeStats) {
        let k = batch.len() as u64;
        stats.record_batch(k);
        hicond_obs::counter_add("serve/batches", 1);
        // One trace for the shared solve; every member's own trace gets
        // a `batch_join` edge pointing at it (and the member's slot), so
        // scrapes can walk request → batch → solve spans.
        let batch_trace = hicond_obs::next_trace_id();
        for (slot, p) in batch.iter().enumerate() {
            let _member = hicond_obs::trace_scope(p.trace);
            hicond_obs::flight::event_named(
                hicond_obs::flight::EventKind::BatchJoin,
                "serve/batch_join",
                batch_trace,
                slot as u64,
            );
        }
        let _trace = hicond_obs::trace_scope(batch_trace);
        hicond_obs::flight::event_named(
            hicond_obs::flight::EventKind::BatchOpen,
            "serve/batch",
            k,
            0,
        );
        let mut rhss: Vec<Vec<f64>> = Vec::with_capacity(batch.len());
        let mut txs = Vec::with_capacity(batch.len());
        for p in batch {
            rhss.push(p.rhs);
            txs.push(p.tx);
        }
        let results = solver.solve_block(&rhss);
        for (tx, res) in txs.into_iter().zip(results) {
            // A member whose connection died mid-solve has dropped its
            // receiver; that is its problem, not the batch's.
            let _ = tx.send(res);
        }
    }
}

/// Join handle for the dispatcher threads.
pub struct Dispatcher {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Number of dispatcher threads running.
    pub fn count(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every dispatcher to finish draining (call
    /// [`BatchQueue::shutdown`] first or this blocks forever).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_graph::generators;
    use hicond_precond::SolverOptions;

    fn solver_and_rhs() -> (Arc<LaplacianSolver>, Vec<f64>) {
        let g = generators::path(8, |_| 1.0);
        let n = g.num_vertices();
        let solver = Arc::new(LaplacianSolver::new(&g, &SolverOptions::default()));
        let mut b = vec![1.0; n];
        b[0] = -(n as f64 - 1.0);
        (solver, b)
    }

    #[test]
    fn size_trigger_forms_one_batch_of_k() {
        let (solver, b) = solver_and_rhs();
        // One dispatcher, then two competing for the same requests.
        for dispatchers in [1, 2] {
            let stats = Arc::new(ServeStats::new());
            // Huge window: only the size trigger can close the batch, so
            // the coalescing below is deterministic, not timing-lucky.
            let cfg = BatchConfig {
                max_batch: 3,
                window: Duration::from_secs(600),
                max_inflight: 12,
            };
            let queue = BatchQueue::new(cfg);
            let dispatcher = rayon::pool::with_thread_cap(dispatchers, || {
                queue.start(Arc::clone(&solver), Arc::clone(&stats))
            });
            assert_eq!(dispatcher.count(), dispatchers);
            let rxs: Vec<_> = (0..3)
                .map(|i| queue.submit(b.clone(), 100 + i).expect("admitted"))
                .collect();
            for rx in rxs {
                let sol = rx.recv().expect("answered").expect("converged");
                let solo = solver.solve(&b).expect("solo converges");
                assert_eq!(
                    sol.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    solo.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batched member bitwise equals the solo solve"
                );
            }
            assert_eq!(stats.batch_size.count(), 1, "one batch formed");
            assert_eq!(
                stats
                    .batch_size
                    .quantile_interpolated(0.5)
                    .map(|v| v.round()),
                Some(3.0),
                "the batch held all three members"
            );
            let report = queue.shutdown();
            dispatcher.join();
            assert_eq!(report.queued_at_shutdown, 0);
            assert_eq!(queue.depth(), 0);
            assert_eq!(
                stats.batch_size.count(),
                1,
                "an idle dispatcher formed none"
            );
        }
    }

    #[test]
    fn window_trigger_answers_a_lone_request() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 8,
            window: Duration::from_millis(1),
            max_inflight: 32,
        };
        let queue = BatchQueue::new(cfg);
        let dispatcher = queue.start(solver, Arc::clone(&stats));
        let rx = queue.submit(b, 7).expect("admitted");
        let sol = rx.recv().expect("answered");
        assert!(sol.is_ok(), "lone request solved after the window");
        queue.shutdown();
        dispatcher.join();
    }

    #[test]
    fn admission_cap_sheds_with_busy() {
        let (_, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 2,
            window: Duration::from_secs(600),
            max_inflight: 2,
        };
        // No dispatcher: submissions pile up against the cap.
        let queue = BatchQueue::new(cfg);
        let _rx0 = queue.submit(b.clone(), 0).expect("first admitted");
        let _rx1 = queue.submit(b.clone(), 1).expect("second admitted");
        match queue.submit(b.clone(), 2) {
            Err(SubmitError::Busy { depth, limit }) => {
                assert_eq!((depth, limit), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(queue.depth(), 2);
        let _ = stats;
    }

    #[test]
    fn shutdown_drains_admitted_work_and_refuses_new() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 2,
            window: Duration::from_secs(600),
            max_inflight: 8,
        };
        let queue = BatchQueue::new(cfg);
        // Submit BEFORE starting the dispatcher, then shut down: the
        // drain must still answer all three pending requests.
        let rxs: Vec<_> = (0..3)
            .map(|i| queue.submit(b.clone(), i).expect("admitted"))
            .collect();
        let report = queue.shutdown();
        assert_eq!(report.queued_at_shutdown, 3);
        match queue.submit(b.clone(), 9) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| "rx")),
        }
        let dispatcher = queue.start(solver, stats);
        for rx in rxs {
            assert!(rx.recv().expect("drained").is_ok(), "drain answers");
        }
        dispatcher.join();
        assert_eq!(queue.depth(), 0, "drain left nothing behind");
    }

    #[test]
    fn two_dispatchers_drain_answers_each_request_once() {
        let (solver, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 2,
            window: Duration::from_secs(600),
            max_inflight: 16,
        };
        let queue = BatchQueue::new(cfg);
        let dispatcher =
            rayon::pool::with_thread_cap(2, || queue.start(solver, Arc::clone(&stats)));
        let rxs: Vec<_> = (0..7)
            .map(|i| queue.submit(b.clone(), i).expect("admitted"))
            .collect();
        // Shutdown wakes both dispatchers; between them they answer
        // everything, and `join` returns.
        queue.shutdown();
        dispatcher.join();
        for rx in rxs {
            assert!(rx.recv().expect("answered").is_ok(), "drain answers");
            assert!(
                matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)),
                "answered exactly once"
            );
        }
        assert_eq!(queue.shutdown().completed, 7);
        assert_eq!(queue.depth(), 0);
        assert_eq!(stats.batch_size.bucket_counts()[0], 0, "no empty batch");
    }

    #[test]
    fn two_dispatchers_never_record_an_empty_batch() {
        // Both dispatchers hold the same pending requests open under a
        // long window; shutdown drains them through one, and the other
        // must go back to waiting instead of solving nothing.
        let (solver, b) = solver_and_rhs();
        for round in 0..5 {
            let stats = Arc::new(ServeStats::new());
            let cfg = BatchConfig {
                max_batch: 8,
                window: Duration::from_secs(600),
                max_inflight: 32,
            };
            let queue = BatchQueue::new(cfg);
            let dispatcher = rayon::pool::with_thread_cap(2, || {
                queue.start(Arc::clone(&solver), Arc::clone(&stats))
            });
            let mut rxs = Vec::new();
            for i in 0..3 {
                rxs.push(queue.submit(b.clone(), i).expect("admitted"));
                std::thread::sleep(Duration::from_millis(2));
            }
            queue.shutdown();
            dispatcher.join();
            for rx in rxs {
                assert!(rx.recv().expect("answered").is_ok());
            }
            assert!(stats.batch_size.count() >= 1, "round {round}: drained");
            assert_eq!(
                stats.batch_size.bucket_counts()[0],
                0,
                "round {round}: a zero-size batch was recorded"
            );
        }
    }

    #[test]
    fn leftover_requests_wake_an_idle_dispatcher() {
        let (_, b) = solver_and_rhs();
        let stats = Arc::new(ServeStats::new());
        let cfg = BatchConfig {
            max_batch: 3,
            window: Duration::ZERO,
            max_inflight: 12,
        };
        let queue = BatchQueue::new(cfg);
        // An idle dispatcher parks in its wait for work.
        let (done_tx, done_rx) = mpsc::channel();
        let idle = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let batch = queue.collect_batch(&stats).map(|b| b.len());
                let _ = done_tx.send(batch);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // max_batch + 1 requests arrive, and their wake-ups all go to the
        // busy dispatcher below (pushed without a notify).
        let mut rxs = Vec::new();
        {
            let mut st = lock_state(&queue.state);
            for i in 0..4 {
                let (tx, rx) = mpsc::sync_channel(1);
                st.pending.push_back(Pending {
                    rhs: b.clone(),
                    trace: i,
                    tx,
                });
                rxs.push(rx);
            }
        }
        let first = queue.collect_batch(&stats).expect("a batch");
        assert_eq!(first.len(), 3, "the size trigger closes the first batch");
        // The first batch is still checked out (never solved here), so
        // the leftover request is taken by the idle dispatcher, not by
        // the busy one after its solve.
        let second = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the idle dispatcher was woken for the leftover request");
        assert_eq!(second, Some(1));
        idle.join().expect("idle dispatcher exits");
        assert_eq!(queue.depth(), 4, "all four requests are checked out");
    }

    #[test]
    fn batch_config_env_defaults_and_bounds() {
        let cfg = BatchConfig::default();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.max_inflight, 32);
        assert_eq!(cfg.window, Duration::ZERO, "work-conserving by default");
        assert!(read_env_usize("HICOND_NO_SUCH_VAR_XYZ", 1)
            .expect("unset is None")
            .is_none());
    }
}
