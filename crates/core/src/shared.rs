//! Shared output buffers for task-parallel kernels.
//!
//! The benchmarks of the paper have tasks write disjoint regions of a common
//! output array (one image row per task in Sobel, one block of coefficients
//! in DCT, one chunk of particles in Fluidanimate, ...). In C that is simply
//! a pointer into a shared array; in safe Rust it needs a small abstraction:
//!
//! * [`SharedGrid<T>`] is a 2-D row-major buffer shared between the master
//!   and the workers.
//! * [`RegionWriter<T>`] is an exclusive, `Send` handle to one contiguous
//!   region (e.g. one row), created before the task is spawned and moved into
//!   the task closure.
//!
//! Exclusivity is enforced at runtime: creating a second outstanding writer
//! for an overlapping region panics, and reading the buffer back
//! ([`SharedGrid::snapshot`] / [`SharedGrid::into_vec`]) panics while any
//! writer is still alive. Combined with the runtime's dependence tracking
//! (tasks writing overlapping footprints are ordered), this gives the
//! convenience of the C idiom without data races.

use std::cell::UnsafeCell;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};

struct GridInner<T> {
    data: UnsafeCell<Vec<T>>,
    rows: usize,
    cols: usize,
    /// Currently outstanding writers, as half-open index ranges.
    outstanding: Mutex<Vec<(usize, usize)>>,
    writer_count: AtomicUsize,
}

// SAFETY: all mutable access goes through `RegionWriter`s whose ranges are
// checked for disjointness at creation time, and reads require zero
// outstanding writers.
unsafe impl<T: Send> Send for GridInner<T> {}
unsafe impl<T: Send> Sync for GridInner<T> {}

/// A 2-D row-major buffer whose rows (or arbitrary contiguous regions) can be
/// written concurrently by tasks through [`RegionWriter`] handles.
pub struct SharedGrid<T> {
    inner: Arc<GridInner<T>>,
}

impl<T> Clone for SharedGrid<T> {
    fn clone(&self) -> Self {
        SharedGrid {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Clone + Send + 'static> SharedGrid<T> {
    /// Create a grid of `rows × cols` elements, all initialised to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, fill: T) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        SharedGrid {
            inner: Arc::new(GridInner {
                data: UnsafeCell::new(vec![fill; rows * cols]),
                rows,
                cols,
                outstanding: Mutex::new(Vec::new()),
                writer_count: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.inner.rows
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.rows * self.inner.cols
    }

    /// Whether the grid is empty (never true: dimensions are non-zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create an exclusive writer for row `row`.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of bounds or overlaps a still-outstanding
    /// writer.
    pub fn row_writer(&self, row: usize) -> RegionWriter<T> {
        assert!(row < self.inner.rows, "row {row} out of bounds");
        let start = row * self.inner.cols;
        self.region_writer(start, start + self.inner.cols)
    }

    /// Create an exclusive writer for the half-open element range
    /// `start..end` (row-major indices).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, out of bounds, or overlaps a
    /// still-outstanding writer.
    pub fn region_writer(&self, start: usize, end: usize) -> RegionWriter<T> {
        assert!(start < end, "region must be non-empty");
        assert!(end <= self.len(), "region {start}..{end} out of bounds");
        {
            // The overlap assert below panics while holding the lock; the
            // list is not modified before the panic, so recovering the
            // poisoned mutex (here and in Drop) is sound.
            let mut outstanding = self
                .inner
                .outstanding
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for &(s, e) in outstanding.iter() {
                assert!(
                    end <= s || start >= e,
                    "region {start}..{end} overlaps outstanding writer {s}..{e}"
                );
            }
            outstanding.push((start, end));
        }
        self.inner.writer_count.fetch_add(1, Ordering::AcqRel);
        RegionWriter {
            grid: self.inner.clone(),
            start,
            end,
        }
    }

    /// Copy the whole buffer out.
    ///
    /// # Panics
    ///
    /// Panics if any writer is still outstanding (synchronise with the
    /// runtime barrier first).
    pub fn snapshot(&self) -> Vec<T> {
        assert_eq!(
            self.inner.writer_count.load(Ordering::Acquire),
            0,
            "cannot snapshot while writers are outstanding"
        );
        // SAFETY: no writers exist, so no &mut aliases the buffer.
        unsafe { (*self.inner.data.get()).clone() }
    }

    /// Consume the grid and return the underlying buffer if this is the last
    /// handle; otherwise falls back to a snapshot copy.
    ///
    /// # Panics
    ///
    /// Panics if any writer is still outstanding.
    pub fn into_vec(self) -> Vec<T> {
        assert_eq!(
            self.inner.writer_count.load(Ordering::Acquire),
            0,
            "cannot consume while writers are outstanding"
        );
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.data.into_inner(),
            Err(shared) => {
                // SAFETY: no writers exist (checked above) and we only read.
                unsafe { (*shared.data.get()).clone() }
            }
        }
    }
}

/// Exclusive write access to one contiguous region of a [`SharedGrid`].
///
/// The writer is `Send` so it can move into a task closure; it releases its
/// region when dropped.
pub struct RegionWriter<T> {
    grid: Arc<GridInner<T>>,
    start: usize,
    end: usize,
}

// SAFETY: the region is exclusively owned by this writer (enforced at
// creation), so sending it to another thread is sound for Send element types.
unsafe impl<T: Send> Send for RegionWriter<T> {}

impl<T> RegionWriter<T> {
    /// Length of the writable region.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable view of the region.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `start..end` is disjoint from every other outstanding
        // writer and readers are excluded while any writer exists.
        unsafe {
            let vec = &mut *self.grid.data.get();
            &mut vec[self.start..self.end]
        }
    }

    /// Write one element of the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the region.
    pub fn set(&mut self, offset: usize, value: T) {
        assert!(offset < self.len(), "offset {offset} outside region");
        self.as_mut_slice()[offset] = value;
    }
}

impl<T> Drop for RegionWriter<T> {
    fn drop(&mut self) {
        let mut outstanding = self
            .grid
            .outstanding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = outstanding
            .iter()
            .position(|&(s, e)| s == self.start && e == self.end)
        {
            outstanding.swap_remove(pos);
        }
        self.grid.writer_count.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions() {
        let grid = SharedGrid::new(4, 8, 0u8);
        assert_eq!(grid.rows(), 4);
        assert_eq!(grid.len(), 32);
        assert!(!grid.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimensions_panic() {
        SharedGrid::new(0, 8, 0u8);
    }

    #[test]
    fn row_writer_writes_correct_row() {
        let grid = SharedGrid::new(3, 4, 0u32);
        {
            let mut w = grid.row_writer(1);
            for (i, cell) in w.as_mut_slice().iter_mut().enumerate() {
                *cell = i as u32 + 10;
            }
        }
        let data = grid.snapshot();
        assert_eq!(&data[4..8], &[10, 11, 12, 13]);
        assert!(data[..4].iter().all(|&v| v == 0));
        assert!(data[8..].iter().all(|&v| v == 0));
    }

    #[test]
    fn disjoint_writers_coexist() {
        let grid = SharedGrid::new(2, 4, 0u8);
        let mut w0 = grid.row_writer(0);
        let mut w1 = grid.row_writer(1);
        w0.set(0, 1);
        w1.set(3, 2);
        drop((w0, w1));
        let data = grid.snapshot();
        assert_eq!(data[0], 1);
        assert_eq!(data[7], 2);
    }

    #[test]
    #[should_panic(expected = "overlaps outstanding writer")]
    fn overlapping_writers_panic() {
        let grid = SharedGrid::new(2, 4, 0u8);
        let _w0 = grid.row_writer(0);
        let _w1 = grid.row_writer(0);
    }

    #[test]
    fn writer_released_on_drop() {
        let grid = SharedGrid::new(2, 4, 0u8);
        drop(grid.row_writer(0));
        // Re-acquiring the same row after the drop is fine.
        let _w = grid.row_writer(0);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn snapshot_with_outstanding_writer_panics() {
        let grid = SharedGrid::new(2, 4, 0u8);
        let _w = grid.row_writer(0);
        let _ = grid.snapshot();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let grid = SharedGrid::new(2, 4, 0u8);
        let _ = grid.row_writer(2);
    }

    #[test]
    fn region_writer_arbitrary_range() {
        let grid = SharedGrid::new(1, 10, 0i32);
        {
            let mut w = grid.region_writer(3, 6);
            assert_eq!(w.len(), 3);
            w.as_mut_slice().copy_from_slice(&[7, 8, 9]);
        }
        assert_eq!(grid.snapshot()[3..6], [7, 8, 9]);
    }

    #[test]
    fn writers_work_across_threads() {
        let grid = SharedGrid::new(8, 64, 0u64);
        let mut handles = Vec::new();
        for row in 0..8 {
            let mut writer = grid.row_writer(row);
            handles.push(std::thread::spawn(move || {
                for (i, cell) in writer.as_mut_slice().iter_mut().enumerate() {
                    *cell = (row * 1000 + i) as u64;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = grid.snapshot();
        assert_eq!(data[0], 0);
        assert_eq!(data[64], 1000);
        assert_eq!(data[7 * 64 + 63], 7063);
    }

    #[test]
    fn clone_shares_storage() {
        let grid = SharedGrid::new(1, 4, 0u8);
        let alias = grid.clone();
        {
            let mut w = grid.row_writer(0);
            w.set(2, 9);
        }
        assert_eq!(alias.snapshot()[2], 9);
    }
}
