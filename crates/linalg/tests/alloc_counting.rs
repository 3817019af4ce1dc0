//! Proves the PCG iteration loop is allocation-free: all scratch (r, z,
//! p, ap, chunk partials, residual history, active-column index buffers)
//! is preallocated before the loop, so the *number of heap allocations is
//! independent of the iteration count*. A counting global allocator runs
//! the same system for 30 and for 60 fixed iterations and asserts the
//! totals are equal — any per-iteration allocation would show up as a
//! nonzero difference. Both the one-column solve and a three-column
//! block solve are checked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a zero-sized pass-through wrapper (no fields) — every method
// delegates to `System` verbatim, so `System`'s GlobalAlloc contract
// (layout fitting, pointer validity) is preserved unchanged; the counter
// bump has no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` pair is the caller's live allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use hicond_linalg::cg::{pcg_solve, CgOptions, JacobiPreconditioner};
use hicond_linalg::csr::{CooBuilder, CsrMatrix};
use hicond_linalg::{block_pcg_solve, DenseBlock};

fn spd_tridiag(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 4.0);
        if i + 1 < n {
            b.push_sym(i, i + 1, -1.0);
        }
    }
    b.build()
}

/// The allocation counter is process-wide, so the tests in this binary
/// take turns: a concurrent test's allocations would land in the other's
/// window.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (out, after - before)
}

#[test]
fn pcg_iteration_loop_is_allocation_free() {
    let _serial = serial();
    // Above the 2^14 BLAS-1 chunk crossover so every parallel kernel
    // (dot_with_scratch, fused_axpy_dot_self, xpby, par_axpy, par SpMV)
    // takes its dispatching path.
    let n = 20_000;
    let a = spd_tridiag(n);
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = |iters: usize| CgOptions {
        rel_tol: 0.0, // never met: run exactly `iters` iterations
        max_iter: iters,
        record_residuals: true,
    };

    // Exercise under a real multi-thread cap so pool dispatch runs; the
    // warmup spawns the workers and pays all one-time setup allocations.
    rayon::pool::with_thread_cap(4, || {
        let _warmup = pcg_solve(&a, &m, &b, &opts(5));

        let (r30, a30) = allocs_during(|| pcg_solve(&a, &m, &b, &opts(30)));
        let (r60, a60) = allocs_during(|| pcg_solve(&a, &m, &b, &opts(60)));
        assert_eq!(r30.iterations, 30);
        assert_eq!(r60.iterations, 60);
        assert_eq!(
            a30, a60,
            "doubling the iteration count changed the allocation count: \
             the PCG loop allocated per iteration ({a30} vs {a60})"
        );
    });
}

#[test]
fn block_pcg_iteration_loop_is_allocation_free() {
    let _serial = serial();
    // Three columns of the same system as above, so the block SpMV and
    // the per-iteration active-set bookkeeping run with k > 1.
    let n = 20_000;
    let a = spd_tridiag(n);
    let cols: Vec<Vec<f64>> = (0..3)
        .map(|s| (0..n).map(|i| (((i + 7 * s) % 23) as f64) - 11.0).collect())
        .collect();
    let b = DenseBlock::from_columns(&cols);
    let m = JacobiPreconditioner::from_diagonal(&a.diagonal());
    let opts = |iters: usize| CgOptions {
        rel_tol: 0.0, // never met: run exactly `iters` iterations
        max_iter: iters,
        record_residuals: true,
    };

    // Also with recording on: the watchdog, milestone events, and the
    // residual trace must not allocate per iteration either. The warmup
    // runs the longer solve so one-time registrations (trace capacity,
    // anomaly counters) happen before the measured windows.
    for mode in [hicond_obs::Mode::Off, hicond_obs::Mode::Json] {
        hicond_obs::set_mode(mode);
        rayon::pool::with_thread_cap(4, || {
            let _warmup = block_pcg_solve(&a, &m, &b, &opts(60));

            let (r30, a30) = allocs_during(|| block_pcg_solve(&a, &m, &b, &opts(30)));
            let (r60, a60) = allocs_during(|| block_pcg_solve(&a, &m, &b, &opts(60)));
            assert!(r30.iter().all(|r| r.iterations == 30));
            assert!(r60.iter().all(|r| r.iterations == 60));
            assert_eq!(
                a30, a60,
                "{mode:?}: doubling the iteration count changed the allocation count: \
                 the block PCG loop allocated per iteration ({a30} vs {a60})"
            );
        });
    }
    hicond_obs::set_mode(hicond_obs::Mode::Off);
}
