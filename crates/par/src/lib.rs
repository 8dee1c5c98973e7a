#![warn(missing_docs)]

//! Deterministic parallel-for runtime for the diffusion hot loops.
//!
//! The paper's kernels — FTCS density step (Eq. 4), velocity field
//! (Eq. 5), cell advection (Eq. 7), density splatting — are each a map
//! over fixed chunks of bins or cells with at most one ordered
//! reduction. This crate is the one threading idiom the workspace uses
//! for them: a scoped worker pool ([`ThreadPool`]) whose one fan-out,
//! [`ThreadPool::for_each`], runs a closure over a sized iterator of
//! work items, plus [`parallel_for_chunks`] over a mutable slice and a
//! fixed-shape [`tree_reduce`], designed so that **results are
//! bit-identical at every thread count**.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so naive parallel
//! reductions give different results run-to-run. Callers avoid that by
//! construction:
//!
//! 1. work is split into **fixed chunks** whose boundaries depend only on
//!    the problem size (never on the thread count or scheduling);
//! 2. each chunk is computed sequentially, by exactly one worker, into
//!    its own output slot (a disjoint `&mut` zipped with the chunk);
//! 3. partial results are combined by a **fixed-shape tree reduction**
//!    ([`tree_reduce`]) in chunk order.
//!
//! A pool with 1 thread executes the *same* chunked computation inline,
//! so `ThreadPool::new(1)` and `ThreadPool::new(8)` produce bit-identical
//! `f64` outputs — the property the diffusion engine's regression tests
//! assert.
//!
//! # Examples
//!
//! ```
//! use dpm_par::{tree_reduce, ThreadPool};
//!
//! let data: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.1).collect();
//! let sum_at = |threads: usize| {
//!     let mut partials = vec![0.0; data.len().div_ceil(1024)];
//!     ThreadPool::new(threads).for_each(
//!         data.chunks(1024).zip(&mut partials),
//!         |(chunk, slot)| *slot = chunk.iter().sum::<f64>(),
//!     );
//!     tree_reduce(partials, |a, b| a + b).unwrap_or(0.0)
//! };
//! // Bit-identical across thread counts.
//! assert_eq!(sum_at(1).to_bits(), sum_at(4).to_bits());
//! ```

use std::ops::Range;
use std::sync::Mutex;

/// Target working-set size of one cache-blocked kernel chunk, in bytes.
///
/// Sized to sit comfortably inside a per-core L2 slice: big enough that a
/// chunk amortizes pool dispatch, small enough that a chunk's input
/// lines, output lines and one-line halo stay cache-resident while the
/// stencil sweeps them.
pub const CACHE_BLOCK_BYTES: usize = 256 * 1024;

/// Lines per cache-blocked chunk for x-major line kernels.
///
/// `line_bytes` is the byte length of one grid line (`nx · elem_size`).
/// The working set of a stencil chunk is roughly three buffers' worth of
/// its lines (input, output, halo), so the chunk gets
/// `target_bytes / (3 · line_bytes)` lines, clamped to `[4, 64]` — the
/// floor keeps tiny grids from degenerating into per-line dispatch, the
/// ceiling keeps huge lines from serializing the whole grid into one
/// chunk.
///
/// The result depends only on the two arguments — never on the thread
/// count — so chunk boundaries stay deterministic and every result
/// remains bit-identical at any parallelism (chunks partition disjoint
/// output lines; per-element arithmetic does not depend on the split).
///
/// # Examples
///
/// ```
/// use dpm_par::{blocked_lines, CACHE_BLOCK_BYTES};
/// // 256-wide f64 lines: 2 KiB each → 42 lines per block.
/// assert_eq!(blocked_lines(256 * 8, CACHE_BLOCK_BYTES), 42);
/// // Tiny lines clamp up to 64, huge lines clamp down to 4.
/// assert_eq!(blocked_lines(8, CACHE_BLOCK_BYTES), 64);
/// assert_eq!(blocked_lines(1 << 20, CACHE_BLOCK_BYTES), 4);
/// ```
pub fn blocked_lines(line_bytes: usize, target_bytes: usize) -> usize {
    (target_bytes / (3 * line_bytes.max(1))).clamp(4, 64)
}

/// A reusable scoped worker pool with a fixed thread count.
///
/// The pool is a plain value (cheap to clone and store in configs or
/// engines); threads are spawned scoped per call, so no worker outlives a
/// borrow and no `'static` bounds infect the closures. Workers pull items
/// from one shared queue — scheduling is dynamic, but because every item
/// is computed independently and combined in fixed order, scheduling
/// never affects results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool that uses up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The serial pool: everything runs inline on the calling thread.
    pub fn single() -> Self {
        Self::new(1)
    }

    /// Number of worker threads this pool may use.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Calls `f` once on every item of `items`, distributed over the
    /// pool's workers.
    ///
    /// With one thread (or one item) everything runs inline in item
    /// order. Otherwise `min(threads, items.len())` scoped workers pull
    /// items from one queue until it is empty; the queue is locked only
    /// while an item is taken, never while `f` runs. To get results back,
    /// zip each item with its own output slot.
    ///
    /// # Panics
    ///
    /// Panics if `f` does: inline, with `f`'s own payload; otherwise
    /// once every worker has stopped, as `std::thread::scope` does.
    pub fn for_each<I, F>(&self, items: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        F: Fn(I::Item) + Sync,
    {
        let items = items.into_iter();
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            items.for_each(f);
            return;
        }
        let queue = Mutex::new(items);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Its own statement, so the guard drops before `f` runs.
                    let item = queue
                        .lock()
                        .expect("a work item's iterator panicked")
                        .next();
                    match item {
                        Some(item) => f(item),
                        None => break,
                    }
                });
            }
        });
    }
}

/// Runs `f(global_range, chunk)` over fixed chunks of a mutable slice,
/// in parallel.
///
/// Each chunk is a disjoint `&mut` view, so workers never alias; writes
/// are race-free by construction. `global_range` is the element range the
/// chunk covers within `data`. Chunk boundaries depend only on
/// `(data.len(), chunk_len)`, never on the thread count.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
///
/// # Examples
///
/// ```
/// use dpm_par::{parallel_for_chunks, ThreadPool};
///
/// let pool = ThreadPool::new(4);
/// let mut v = vec![0usize; 1000];
/// parallel_for_chunks(&pool, &mut v, 128, |range, chunk| {
///     for (off, x) in chunk.iter_mut().enumerate() {
///         *x = range.start + off;
///     }
/// });
/// assert!(v.iter().enumerate().all(|(i, &x)| i == x));
/// ```
pub fn parallel_for_chunks<T, F>(pool: &ThreadPool, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    pool.for_each(data.chunks_mut(chunk_len).enumerate(), |(i, chunk)| {
        let start = i * chunk_len;
        f(start..start + chunk.len(), chunk);
    });
}

/// Combines `items` in a fixed binary tree: pairwise — `(0,1), (2,3), …`
/// — level by level until one value remains, an odd item out passing up
/// a level unchanged. The tree's shape depends only on the item count,
/// so the combination order (and therefore any floating-point result) is
/// reproducible. The items are combined depth first, in place of a
/// buffer per level, so the fold allocates nothing.
///
/// # Examples
///
/// ```
/// use dpm_par::tree_reduce;
/// assert_eq!(tree_reduce(vec![1, 2, 3, 4, 5], |a, b| a + b), Some(15));
/// assert_eq!(tree_reduce(Vec::<i32>::new(), |a, b| a + b), None);
/// ```
pub fn tree_reduce<T>(items: Vec<T>, mut reduce: impl FnMut(T, T) -> T) -> Option<T> {
    // The first `2^⌊log2(n−1)⌋` items fill the left subtree: the same
    // tree the level-by-level pairing builds.
    fn fold<T>(
        items: &mut std::vec::IntoIter<T>,
        n: usize,
        reduce: &mut impl FnMut(T, T) -> T,
    ) -> T {
        if n == 1 {
            return items.next().expect("n never exceeds the items left");
        }
        let left = 1 << (n - 1).ilog2();
        let a = fold(items, left, reduce);
        let b = fold(items, n - left, reduce);
        reduce(a, b)
    }
    let n = items.len();
    (n > 0).then(|| fold(&mut items.into_iter(), n, &mut reduce))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn for_each_runs_each_item_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each(0..100, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_never_runs_on_more_threads_than_the_pool_or_items() {
        for threads in [1, 2, 4, 8] {
            for items in [1, 3, 5, 64] {
                let seen = Mutex::new(HashSet::new());
                ThreadPool::new(threads).for_each(0..items, |_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // Lets every worker started take an item.
                    std::thread::yield_now();
                });
                let seen = seen.into_inner().unwrap().len();
                assert!(
                    (1..=threads.min(items)).contains(&seen),
                    "{threads} threads, {items} items: ran on {seen} threads"
                );
            }
        }
    }

    #[test]
    fn for_each_panic_reaches_the_caller_and_the_pool_runs_on() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.for_each(0..16, |i| {
                    assert_ne!(i, 5, "item five fails");
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(caught.is_err(), "{threads} threads: panic lost");
            let after = AtomicUsize::new(0);
            pool.for_each(0..16, |_| {
                after.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(after.into_inner(), 16, "{threads} threads");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        // A map is a `for_each` over items zipped with their output slots.
        for threads in [1, 3, 8] {
            let mut out = vec![0; 257];
            ThreadPool::new(threads).for_each((0..257).zip(&mut out), |(x, slot)| *slot = x * 2);
            assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        let ranges = |threads: usize, len: usize, chunk: usize| {
            let mut data = vec![0u8; len];
            let seen = Mutex::new(Vec::new());
            parallel_for_chunks(&ThreadPool::new(threads), &mut data, chunk, |r, _| {
                seen.lock().unwrap().push(r);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|r| r.start);
            seen
        };
        for threads in [1, 4] {
            assert_eq!(ranges(threads, 10, 3), vec![0..3, 3..6, 6..9, 9..10]);
            assert_eq!(ranges(threads, 9, 3), vec![0..3, 3..6, 6..9]);
            assert_eq!(ranges(threads, 1, 100), vec![0..1]);
            assert!(ranges(threads, 0, 4).is_empty());
        }
    }

    #[test]
    fn float_sum_bit_identical_across_thread_counts() {
        // A sum that is NOT associative-friendly: wildly mixed magnitudes.
        let data: Vec<f64> = (0..40_000)
            .map(|i| {
                let m = (i * 2654435761usize) % 1000;
                (m as f64 - 500.0) * 10f64.powi((m % 17) as i32 - 8)
            })
            .collect();
        let sum = |threads: usize| {
            let mut partials = vec![0.0; data.len().div_ceil(1024)];
            ThreadPool::new(threads).for_each(data.chunks(1024).zip(&mut partials), |(c, slot)| {
                *slot = c.iter().sum::<f64>();
            });
            tree_reduce(partials, |a, b| a + b).expect("non-empty")
        };
        let reference = sum(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                reference.to_bits(),
                sum(threads).to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn for_chunks_covers_every_element_disjointly() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let mut v = vec![0u32; 1013];
            parallel_for_chunks(&pool, &mut v, 97, |range, chunk| {
                assert_eq!(range.len(), chunk.len());
                for x in chunk.iter_mut() {
                    *x += 1;
                }
            });
            assert!(v.iter().all(|&x| x == 1), "some element missed or doubled");
        }
    }

    #[test]
    fn for_chunks2_zips_consistently() {
        // Two slices chunked identically: the planar velocity kernel's shape.
        let (mut a, mut b) = (vec![0usize; 500], vec![0usize; 500]);
        let chunks = a.chunks_mut(64).zip(b.chunks_mut(64)).enumerate();
        ThreadPool::new(4).for_each(chunks, |(ci, (ca, cb))| {
            for (off, (x, y)) in ca.iter_mut().zip(cb).enumerate() {
                *x = ci * 64 + off;
                *y = ci;
            }
        });
        assert!(a.iter().enumerate().all(|(i, &x)| i == x));
        assert!(b.iter().enumerate().all(|(i, &c)| c == i / 64));
    }

    #[test]
    fn for_chunks3_zips_consistently() {
        // Three slices chunked identically: the volumetric velocity kernel's.
        let (mut a, mut b, mut c) = (vec![0usize; 500], vec![0usize; 500], vec![0usize; 500]);
        let chunks = a
            .chunks_mut(64)
            .zip(b.chunks_mut(64))
            .zip(c.chunks_mut(64))
            .enumerate();
        ThreadPool::new(4).for_each(chunks, |(ci, ((ca, cb), cc))| {
            let len = ca.len();
            for (off, ((x, y), z)) in ca.iter_mut().zip(cb).zip(cc).enumerate() {
                *x = ci * 64 + off;
                *y = ci;
                *z = len;
            }
        });
        assert!(a.iter().enumerate().all(|(i, &x)| i == x));
        assert!(b.iter().enumerate().all(|(i, &x)| x == i / 64));
        assert!(c.iter().take(448).all(|&x| x == 64));
        assert!(c.iter().skip(448).all(|&x| x == 500 - 448));
    }

    #[test]
    fn tree_reduce_shapes() {
        assert_eq!(tree_reduce(vec![1], |a, b| a + b), Some(1));
        assert_eq!(tree_reduce(vec![1, 2], |a, b| a + b), Some(3));
        // Shape for 3 leaves: (0+1) then (+2).
        let trace = std::cell::RefCell::new(Vec::new());
        let r = tree_reduce(vec!["a".to_string(), "b".into(), "c".into()], |a, b| {
            trace.borrow_mut().push(format!("{a}+{b}"));
            format!("({a}{b})")
        });
        assert_eq!(r.as_deref(), Some("((ab)c)"));
        assert_eq!(*trace.borrow(), vec!["a+b", "(ab)+c"]);
        // Level-by-level pairing, an odd item out passing up unchanged.
        let leaves = |n: u8| {
            (b'a'..b'a' + n)
                .map(|c| (c as char).to_string())
                .collect::<Vec<_>>()
        };
        let tree = |n| tree_reduce(leaves(n), |a, b| format!("({a}{b})")).unwrap();
        assert_eq!(tree(5), "(((ab)(cd))e)");
        assert_eq!(tree(6), "(((ab)(cd))(ef))");
        assert_eq!(tree(7), "(((ab)(cd))((ef)g))");
        assert_eq!(tree(8), "(((ab)(cd))((ef)(gh)))");
        assert_eq!(tree(9), "((((ab)(cd))((ef)(gh)))i)");
    }

    #[test]
    fn pool_is_reusable_and_cloneable() {
        let pool = ThreadPool::new(4);
        let again = pool.clone();
        let total = AtomicU64::new(0);
        for _ in 0..3 {
            pool.for_each(0..10u32, |i| {
                total.fetch_add(u64::from(i), Ordering::Relaxed);
            });
        }
        again.for_each(0..10u32, |i| {
            total.fetch_add(u64::from(i), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 45 * 4);
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_rejected() {
        parallel_for_chunks(&ThreadPool::single(), &mut [0u8; 10], 0, |_, _| {});
    }

    #[test]
    fn blocked_lines_is_clamped_and_monotone() {
        // Thread-independent by construction (no pool argument); pin the
        // clamp band and that wider lines never get more lines per chunk.
        assert_eq!(blocked_lines(0, CACHE_BLOCK_BYTES), 64);
        assert_eq!(blocked_lines(usize::MAX / 4, CACHE_BLOCK_BYTES), 4);
        let mut prev = usize::MAX;
        for nx in [16usize, 64, 256, 1024, 4096] {
            let lines = blocked_lines(nx * 8, CACHE_BLOCK_BYTES);
            assert!((4..=64).contains(&lines), "nx = {nx}: {lines}");
            assert!(lines <= prev, "not monotone at nx = {nx}");
            prev = lines;
        }
        // f32 lines are half the bytes, so never fewer lines per chunk.
        for nx in [64usize, 256, 1024] {
            assert!(
                blocked_lines(nx * 4, CACHE_BLOCK_BYTES)
                    >= blocked_lines(nx * 8, CACHE_BLOCK_BYTES)
            );
        }
    }
}
