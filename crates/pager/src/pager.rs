//! The disk: fixed-size pages with access counters.
//!
//! Two backends share one API. The in-memory backend is the original
//! "simulated disk" the experiment harness counts I/O against; the file
//! backend is a real `File` read and written at page granularity via
//! `pread`/`pwrite` (`std::os::unix::fs::FileExt`), optionally windowed to a
//! byte region inside a larger file — which is how the paged query plane
//! addresses its `PLN2` section inside an `.itc` stream.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Default page size: 4 KiB, the classic database page.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of a page on the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

#[derive(Debug)]
enum Backend {
    /// Pages held in memory; supports borrowed [`Pager::read`].
    Mem(Vec<Box<[u8]>>),
    /// Pages live in `file` starting at byte `base`; reads copy into caller
    /// buffers ([`Pager::read_into`] / [`Pager::read_page`]).
    File { file: File, base: u64, pages: usize },
}

/// A page-granular disk. Every read and write is counted; the experiment
/// harness reads the counters to compare I/O traffic across storage layouts.
#[derive(Debug)]
pub struct Pager {
    page_size: usize,
    backend: Backend,
    reads: Cell<u64>,
    writes: Cell<u64>,
}

impl Pager {
    /// Creates an empty in-memory disk with the [`DEFAULT_PAGE_SIZE`].
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Creates an empty in-memory disk with a custom page size (≥ 64 bytes).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size {page_size} unrealistically small");
        Pager {
            page_size,
            backend: Backend::Mem(Vec::new()),
            reads: Cell::new(0),
            writes: Cell::new(0),
        }
    }

    /// Creates (or truncates) a file-backed disk at `path`.
    pub fn create_file<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        assert!(page_size >= 64, "page size {page_size} unrealistically small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            page_size,
            backend: Backend::File { file, base: 0, pages: 0 },
            reads: Cell::new(0),
            writes: Cell::new(0),
        })
    }

    /// Opens an existing file read-only as a whole-file disk. The page count
    /// is `len / page_size` (a ragged tail is not addressable).
    pub fn open_file<P: AsRef<Path>>(path: P, page_size: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let pages = (len / page_size as u64) as usize;
        Ok(Self::open_file_region(file, 0, pages, page_size))
    }

    /// Windows `pages` pages of `file` starting at byte offset `base` —
    /// pages of a section embedded in a larger stream. `base` must be
    /// page-aligned relative to nothing but itself; page `i` lives at byte
    /// `base + i * page_size`.
    pub fn open_file_region(file: File, base: u64, pages: usize, page_size: usize) -> Self {
        assert!(page_size >= 64, "page size {page_size} unrealistically small");
        Pager {
            page_size,
            backend: Backend::File { file, base, pages },
            reads: Cell::new(0),
            writes: Cell::new(0),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        match &self.backend {
            Backend::Mem(pages) => pages.len(),
            Backend::File { pages, .. } => *pages,
        }
    }

    /// Whether reads borrow from memory ([`Pager::read`] works) or copy from
    /// a file.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backend, Backend::File { .. })
    }

    /// Allocates a zeroed page.
    pub fn alloc(&mut self) -> PageId {
        match &mut self.backend {
            Backend::Mem(pages) => {
                let id = PageId(pages.len() as u32);
                pages.push(vec![0u8; self.page_size].into_boxed_slice());
                id
            }
            Backend::File { file, base, pages } => {
                let id = PageId(*pages as u32);
                *pages += 1;
                let end = *base + *pages as u64 * self.page_size as u64;
                file.set_len(end).expect("extend pager file");
                id
            }
        }
    }

    /// Writes a full page image. Counted as one disk write.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page, the page is unknown, or a
    /// file write fails.
    pub fn write(&mut self, id: PageId, data: &[u8]) {
        assert_eq!(data.len(), self.page_size, "partial page write");
        self.writes.set(self.writes.get() + 1);
        match &mut self.backend {
            Backend::Mem(pages) => pages[id.0 as usize].copy_from_slice(data),
            Backend::File { file, base, pages } => {
                assert!((id.0 as usize) < *pages, "write past allocated pages");
                let off = *base + id.0 as u64 * self.page_size as u64;
                file.write_all_at(data, off).expect("page write");
            }
        }
    }

    /// Reads a page, borrowing the image. Counted as one disk read.
    ///
    /// Only the in-memory backend can lend a borrow; file-backed pagers must
    /// use [`Pager::read_into`] or [`Pager::read_page`].
    pub fn read(&self, id: PageId) -> &[u8] {
        match &self.backend {
            Backend::Mem(pages) => {
                self.reads.set(self.reads.get() + 1);
                &pages[id.0 as usize]
            }
            Backend::File { .. } => {
                panic!("borrowed read on a file-backed pager; use read_into")
            }
        }
    }

    /// Reads a page into `buf` (which must be exactly one page). Counted as
    /// one disk read. Works on both backends.
    pub fn read_into(&self, id: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size, "partial page read");
        self.reads.set(self.reads.get() + 1);
        match &self.backend {
            Backend::Mem(pages) => buf.copy_from_slice(&pages[id.0 as usize]),
            Backend::File { file, base, pages } => {
                assert!((id.0 as usize) < *pages, "read past allocated pages");
                let off = *base + id.0 as u64 * self.page_size as u64;
                file.read_exact_at(buf, off).expect("page read");
            }
        }
    }

    /// Reads a page into a fresh allocation. Counted as one disk read.
    pub fn read_page(&self, id: PageId) -> Box<[u8]> {
        let mut buf = vec![0u8; self.page_size].into_boxed_slice();
        self.read_into(id, &mut buf);
        buf
    }

    /// Total disk reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Total disk writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Resets both counters (e.g. after the build phase, before measuring a
    /// query workload).
    pub fn reset_counters(&self) {
        self.reads.set(0);
        self.writes.set(0);
    }
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut pager = Pager::with_page_size(128);
        let id = pager.alloc();
        let mut img = vec![0u8; 128];
        img[0] = 0xAB;
        img[127] = 0xCD;
        pager.write(id, &img);
        let back = pager.read(id);
        assert_eq!(back[0], 0xAB);
        assert_eq!(back[127], 0xCD);
        assert_eq!(pager.reads(), 1);
        assert_eq!(pager.writes(), 1);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut pager = Pager::with_page_size(64);
        let a = pager.alloc();
        let b = pager.alloc();
        pager.read(a);
        pager.read(b);
        pager.read(a);
        assert_eq!(pager.reads(), 3);
        pager.reset_counters();
        assert_eq!(pager.reads(), 0);
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    #[should_panic(expected = "partial page write")]
    fn partial_write_rejected() {
        let mut pager = Pager::with_page_size(64);
        let id = pager.alloc();
        pager.write(id, &[0u8; 10]);
    }

    #[test]
    #[should_panic(expected = "unrealistically small")]
    fn tiny_page_size_rejected() {
        let _ = Pager::with_page_size(8);
    }

    #[test]
    fn file_backend_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "tc-store-pager-{}-rt.pg",
            std::process::id()
        ));
        {
            let mut pager = Pager::create_file(&path, 64).expect("create");
            assert!(pager.is_file_backed());
            let a = pager.alloc();
            let b = pager.alloc();
            pager.write(a, &[0x11u8; 64]);
            pager.write(b, &[0x22u8; 64]);
            let mut buf = [0u8; 64];
            pager.read_into(b, &mut buf);
            assert_eq!(buf, [0x22u8; 64]);
            assert_eq!(pager.writes(), 2);
            assert_eq!(pager.reads(), 1);
        }
        let pager = Pager::open_file(&path, 64).expect("open");
        assert_eq!(pager.page_count(), 2);
        let img = pager.read_page(PageId(0));
        assert_eq!(&img[..], &[0x11u8; 64][..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_region_addresses_embedded_pages() {
        let path = std::env::temp_dir().join(format!(
            "tc-store-pager-{}-region.pg",
            std::process::id()
        ));
        // A 100-byte preamble followed by two 64-byte pages.
        let mut bytes = vec![0xEEu8; 100];
        bytes.extend_from_slice(&[0xAAu8; 64]);
        bytes.extend_from_slice(&[0xBBu8; 64]);
        std::fs::write(&path, &bytes).expect("write file");
        let file = File::open(&path).expect("open");
        let pager = Pager::open_file_region(file, 100, 2, 64);
        assert_eq!(pager.page_count(), 2);
        assert_eq!(&pager.read_page(PageId(0))[..], &[0xAAu8; 64][..]);
        assert_eq!(&pager.read_page(PageId(1))[..], &[0xBBu8; 64][..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "borrowed read on a file-backed pager")]
    fn borrowed_read_rejected_on_file_backend() {
        let path = std::env::temp_dir().join(format!(
            "tc-store-pager-{}-borrow.pg",
            std::process::id()
        ));
        let mut pager = Pager::create_file(&path, 64).expect("create");
        let id = pager.alloc();
        std::fs::remove_file(&path).ok();
        let _ = pager.read(id);
    }
}
