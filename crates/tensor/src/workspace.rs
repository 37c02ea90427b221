//! Thread-local reusable scratch buffers for the conv/GEMM drivers.
//!
//! The kernel-backed conv directions need multi-megabyte intermediates
//! (the `[o, n·oh·ow]` product, the `[c·kh·kw, n·oh·ow]` column
//! gradient, padded and phase-split input copies). Allocations that size
//! bypass malloc free lists and go straight to `mmap`, so a fresh `Vec`
//! per call re-pays soft page faults on every conv — a real cost next to
//! microkernels that finish in microseconds. The pool below hands out
//! grow-only buffers that stay warm across calls on the same thread.
//!
//! Buffers are plain `Vec<f32>` kept initialized at all times, so there
//! is no `unsafe` and no uninitialized memory — only *stale* values
//! from a previous borrow (see [`with_scratch`]).

use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

fn with_pooled<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    let r = f(&mut buf);
    POOL.with(|p| p.borrow_mut().push(buf));
    r
}

/// Runs `f` with a pooled `Vec<f32>` of unspecified length and contents
/// — for callers that manage sizing themselves (the GEMM pack buffers,
/// which `clear` + `resize` per panel). The vector's capacity survives
/// across borrows, so per-call panel packing stops re-faulting pages.
pub(crate) fn with_pooled_vec<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    with_pooled(f)
}

/// Runs `f` with a `len`-element scratch slice whose **contents are
/// unspecified** (stale data from earlier borrows). The caller must
/// fully overwrite every element it reads — GEMM output buffers qualify,
/// since the driver stores every `C` element exactly once.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_pooled(|buf| {
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reuses_buffers() {
        with_scratch(8, |s| s.fill(7.0));
        // Same thread: the pooled buffer comes back with stale contents.
        with_scratch(4, |s| assert_eq!(s, [7.0; 4]));
    }

    #[test]
    fn nested_borrows_get_distinct_buffers() {
        with_scratch(4, |a| {
            a.fill(1.0);
            with_scratch(4, |b| {
                b.fill(2.0);
                assert_eq!(b, [2.0; 4]);
            });
            assert_eq!(a, [1.0; 4]);
        });
    }
}
