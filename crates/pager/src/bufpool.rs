//! An exact-LRU buffer pool over the [`Pager`], O(1) per fetch.
//!
//! A dense page table maps each page id to the frame holding it, and an
//! intrusive doubly linked list threads the frames in recency order. A hit
//! is one table load and a splice to the front of the list; a miss on a
//! full pool evicts the list's tail and reads the new page straight into
//! the victim's buffer, so after warm-up a miss allocates nothing. The
//! replacement decisions are exactly those of a textbook LRU: the victim
//! is always the resident page whose last fetch is oldest.
//!
//! Fetched bytes borrow the pool, so they cannot outlive the next fetch;
//! a caller that needs two pages at once copies the first.

use crate::{PageId, Pager};

/// Marks "no frame" in the page table and the ends of the recency list.
const NONE: u32 = u32::MAX;

/// Hit/miss statistics of a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from the pool.
    pub hits: u64,
    /// Fetches that had to go to the pager (disk reads).
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]` (`NaN` with no fetches).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        self.hits as f64 / total as f64
    }
}

/// One cached page image and its links in the recency list.
#[derive(Debug)]
struct Frame {
    page: PageId,
    /// The next more recently used frame (`NONE` at the head).
    prev: u32,
    /// The next less recently used frame (`NONE` at the tail).
    next: u32,
    data: Box<[u8]>,
}

/// A fixed-capacity LRU cache of page images.
///
/// Read-only (the stores in this crate are build-once/query-many, like the
/// paper's materialized closure), so eviction never writes back.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// `table[page]` is the frame holding `page`, or `NONE`.
    table: Vec<u32>,
    frames: Vec<Frame>,
    /// Most recently used frame.
    head: u32,
    /// Least recently used frame: the next victim.
    tail: u32,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!(capacity < NONE as usize, "buffer pool capacity {capacity} too large");
        BufferPool {
            capacity,
            table: Vec::new(),
            frames: Vec::new(),
            head: NONE,
            tail: NONE,
            stats: PoolStats::default(),
        }
    }

    /// Fetches a page through the pool, touching the pager only on a miss.
    pub fn fetch<'a>(&'a mut self, pager: &Pager, id: PageId) -> &'a [u8] {
        let f = match self.table.get(id.0 as usize) {
            Some(&f) if f != NONE => {
                self.stats.hits += 1;
                if f != self.head {
                    self.unlink(f);
                    self.push_front(f);
                }
                f
            }
            _ => {
                self.stats.misses += 1;
                self.load(pager, id)
            }
        };
        &self.frames[f as usize].data
    }

    /// Reads a missing page into a frame — a fresh one while the pool has
    /// room, else the least recently used — and makes it the most recent.
    fn load(&mut self, pager: &Pager, id: PageId) -> u32 {
        let page = id.0 as usize;
        if page >= self.table.len() {
            self.table.resize(pager.page_count().max(page + 1), NONE);
        }
        let f = if self.frames.len() < self.capacity {
            let data = pager.read_page(id);
            self.frames.push(Frame { page: id, prev: NONE, next: NONE, data });
            self.frames.len() as u32 - 1
        } else {
            let f = self.tail;
            let victim = &mut self.frames[f as usize];
            self.table[victim.page.0 as usize] = NONE;
            self.stats.evictions += 1;
            // The victim stays at the tail, unmapped, until the read lands:
            // a read that panics leaves it there for the next miss to reuse,
            // and no page ever maps to torn bytes.
            pager.read_into(id, &mut victim.data);
            victim.page = id;
            self.unlink(f);
            f
        };
        self.table[page] = f;
        self.push_front(f);
        f
    }

    fn unlink(&mut self, f: u32) {
        let Frame { prev, next, .. } = self.frames[f as usize];
        match prev {
            NONE => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, f: u32) {
        let old = self.head;
        let frame = &mut self.frames[f as usize];
        frame.prev = NONE;
        frame.next = old;
        match old {
            NONE => self.tail = f,
            h => self.frames[h as usize].prev = f,
        }
        self.head = f;
    }

    /// Access statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Clears cached pages and statistics (for cold-cache measurements).
    pub fn clear(&mut self) {
        self.table.fill(NONE);
        self.frames.clear();
        self.head = NONE;
        self.tail = NONE;
        self.stats = PoolStats::default();
    }

    /// Number of resident pages (never more than the capacity).
    pub fn resident(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn disk_with(n: usize) -> Pager {
        let mut pager = Pager::with_page_size(64);
        for i in 0..n {
            let id = pager.alloc();
            let mut img = vec![0u8; 64];
            img[0] = i as u8;
            pager.write(id, &img);
        }
        pager.reset_counters();
        pager
    }

    #[test]
    fn hits_avoid_disk() {
        let pager = disk_with(2);
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.fetch(&pager, PageId(0))[0], 0);
        assert_eq!(pool.fetch(&pager, PageId(0))[0], 0);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(pager.reads(), 1, "second fetch never touched the pager");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pager = disk_with(3);
        let mut pool = BufferPool::new(2);
        pool.fetch(&pager, PageId(0));
        pool.fetch(&pager, PageId(1));
        pool.fetch(&pager, PageId(0)); // 1 is now LRU
        pool.fetch(&pager, PageId(2)); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        // 0 must still be resident.
        let before = pager.reads();
        pool.fetch(&pager, PageId(0));
        assert_eq!(pager.reads(), before, "page 0 survived eviction");
        // 1 must not be.
        pool.fetch(&pager, PageId(1));
        assert_eq!(pager.reads(), before + 1);
    }

    #[test]
    fn clear_resets_everything() {
        let pager = disk_with(1);
        let mut pool = BufferPool::new(4);
        pool.fetch(&pager, PageId(0));
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.fetch(&pager, PageId(0));
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn hit_ratio() {
        let pager = disk_with(1);
        let mut pool = BufferPool::new(1);
        pool.fetch(&pager, PageId(0));
        pool.fetch(&pager, PageId(0));
        pool.fetch(&pager, PageId(0));
        assert!((pool.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The textbook LRU the pool must agree with, decision for decision:
    /// a recency queue, most recent at the front, scanned linearly.
    struct ReferenceLru {
        capacity: usize,
        queue: VecDeque<u32>,
        stats: PoolStats,
    }

    impl ReferenceLru {
        fn fetch(&mut self, page: u32) {
            if let Some(at) = self.queue.iter().position(|&p| p == page) {
                self.stats.hits += 1;
                self.queue.remove(at);
            } else {
                self.stats.misses += 1;
                if self.queue.len() == self.capacity {
                    self.queue.pop_back();
                    self.stats.evictions += 1;
                }
            }
            self.queue.push_front(page);
        }
    }

    #[test]
    fn pool_decides_exactly_like_a_reference_lru() {
        const PAGES: usize = 64;
        let mut pager = Pager::with_page_size(64);
        let mut images = Vec::new();
        for i in 0..PAGES {
            let id = pager.alloc();
            let img: Vec<u8> = (0..64).map(|b| (i * 7 + b) as u8).collect();
            pager.write(id, &img);
            images.push(img);
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..300 {
            let capacity = 1 + next(16) as usize;
            // Skewed page choice: a hot set small enough to hit, plus the
            // full range to force evictions.
            let hot = 1 + next(PAGES as u64);
            let mut pool = BufferPool::new(capacity);
            let mut reference =
                ReferenceLru { capacity, queue: VecDeque::new(), stats: PoolStats::default() };
            pager.reset_counters();
            let mut reads = 0u64;
            for step in 0..400 {
                if next(97) == 0 {
                    pool.clear();
                    reference.queue.clear();
                    reference.stats = PoolStats::default();
                }
                let page = if next(3) == 0 { next(PAGES as u64) } else { next(hot) } as u32;
                let missed = reference.stats.misses;
                reference.fetch(page);
                reads += reference.stats.misses - missed;
                let bytes = pool.fetch(&pager, PageId(page));
                assert_eq!(bytes, &images[page as usize][..], "case {case} step {step}");
                assert_eq!(pool.stats(), reference.stats, "case {case} step {step}");
                assert_eq!(pager.reads(), reads, "case {case} step {step}");
                assert_eq!(pool.resident(), reference.queue.len());
                assert!(pool.resident() <= capacity);
            }
        }
    }
}
