//! Scoped-thread fan-out used by the batch reads
//! ([`crate::CompressedClosure::reaches_batch`] and
//! [`crate::CompressedClosure::stats`]).
//!
//! The workspace has a zero-dependency policy for the library crates, so
//! parallelism is plain `std::thread::scope`: split a slice into one
//! contiguous chunk per worker, run a chunk-mapping closure on each, and
//! stitch the outputs back together in input order. Workers only ever read
//! shared state and either return owned results or fill disjoint chunks of
//! a pre-sized output, which keeps `tc-core` free of `unsafe` and makes
//! parallel results bit-identical to serial ones by construction.

/// Resolves a user-facing thread-count knob: `0` means "one worker per
/// available CPU", anything else is taken literally.
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Work items per worker below which fan-out is not worth a thread spawn;
/// small inputs fall back to running the closure inline.
const MIN_ITEMS_PER_WORKER: usize = 16;

/// Applies `chunk_map` over `items` split into at most `threads` contiguous
/// chunks, concatenating the per-chunk outputs in input order. `chunk_map`
/// must produce exactly one output per input item, in item order — the
/// caller relies on `zip`-alignment of inputs and outputs.
///
/// With `threads <= 1` (or too few items to be worth spawning) the closure
/// runs inline on the whole slice, so the serial path stays allocation- and
/// synchronization-free.
pub(crate) fn map_chunks<T, U, F>(items: &[T], threads: usize, chunk_map: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> Vec<U> + Sync,
{
    let workers = threads
        .min(items.len() / MIN_ITEMS_PER_WORKER)
        .clamp(1, items.len().max(1));
    if workers == 1 {
        return chunk_map(items);
    }
    let chunk_size = items.len().div_ceil(workers);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let f = &chunk_map;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
    });
    out
}

/// Fills a pre-sized output slice from `items` split into at most `threads`
/// contiguous chunks: worker `i` receives the `i`-th input chunk and the
/// matching `&mut` output chunk and writes results in place. Unlike
/// [`map_chunks`] there is no per-chunk `Vec` allocation and no
/// re-concatenation — the caller allocates once and the workers never touch
/// overlapping memory (disjoint `chunks_mut`), keeping the fan-out free of
/// `unsafe`.
///
/// # Panics
///
/// Panics if `items` and `out` differ in length.
pub(crate) fn map_chunks_into<T, U, F>(items: &[T], out: &mut [U], threads: usize, fill: F)
where
    T: Sync,
    U: Send,
    F: Fn(&[T], &mut [U]) + Sync,
{
    assert_eq!(items.len(), out.len(), "output must be pre-sized to the input");
    let workers = threads
        .min(items.len() / MIN_ITEMS_PER_WORKER)
        .clamp(1, items.len().max(1));
    if workers == 1 {
        fill(items, out);
        return;
    }
    let chunk_size = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &fill;
        for (chunk, slots) in items.chunks(chunk_size).zip(out.chunks_mut(chunk_size)) {
            scope.spawn(move || f(chunk, slots));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn outputs_keep_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = map_chunks(&items, threads, |chunk| {
                chunk.iter().map(|&x| x * 2).collect()
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_chunks(&empty, 4, |c| c.to_vec()).is_empty());
        let one = [42u32];
        assert_eq!(map_chunks(&one, 4, |c| c.to_vec()), vec![42]);
    }
}
