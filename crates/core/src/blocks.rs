//! The block layer both task-graph runners share: how a task body gets
//! the blocks of a matrix it works on, the pivot slots it publishes, and
//! the packed `L₂₁` its `Gemm` tasks multiply. [`crate::rt`] factors one
//! flat matrix; [`crate::dist_rank`] runs each grid rank's tasks over that
//! rank's local matrix. Both hold their storage as a [`SharedMat`] and
//! call the same kernels on what it hands out.
//!
//! # Blocks
//!
//! A [`SharedMat`] is a shared-mutable handle to a flat column-major
//! matrix. A task body takes **all** of its operand blocks in one call,
//! [`SharedMat::blocks`], each a strided view over a rectangle of the
//! matrix: a leaf, an apply chunk, an update chunk, a `U₁₂` block column,
//! a rank's trailing rows. Every operand is one block and one kernel call
//! (`gemm`, `trsm`, `lu_rows`, `apply_ipiv`, ...). The call is the only
//! `unsafe` a body needs: its `// SAFETY:` names the DAG edges that give
//! the task those elements, and what the body then does with the views is
//! safe code. Under `debug_assertions` the call checks that the rectangles
//! it hands out together are pairwise disjoint.
//!
//! A distributed rank's matrix is ScaLAPACK's local array: local row `li`
//! is global row `global_row(prow, li)`, local column `lj` is global column
//! `global_col(pcol, lj)`, and the local row count is the leading
//! dimension ([`calu_matrix::TileLayout`] is the ownership map). So a
//! rank's block over all of its rows below the panel is one view, and the
//! operand of one call. (A tile-backed shared-memory runner lost to the
//! flat one by 6–10 %, EXPERIMENTS.md "One shared-memory storage".)
//!
//! # Aliasing
//!
//! A [`SharedMat`] is shared-mutable because several tasks run on it at
//! once — the executor's workers, or a distributed rank's tasks under the
//! in-process driver — and the DAG's edges prove they touch disjoint
//! elements: every pair of tasks that touch one element, one of them
//! writing, is ordered. On a rank thread the queue order is that proof
//! (one thread is the rank's only toucher). Views are built from raw
//! parts, so logically disjoint blocks whose strided spans interleave
//! never materialize overlapping `&mut` slices.
//!
//! # Packed `L₂₁`
//!
//! One step's `L₂₁` rows are multiplied by every `Gemm` task of the step
//! that reads them: in [`crate::rt`] update chunk `i` of step `k` by
//! `Gemm(k, i, ·)`, one per block column right of the panel (23 at the
//! first step of a 1536² factor with 64-wide panels); in
//! [`crate::dist_rank`] rank `r`'s rows of the `PAN` payload by
//! `Gemm(k, ·, r)`, one per local block column. [`SharedChunks`] keeps
//! one slot per such key `(k, i)` or `(k, r)`, counted from the DAG's
//! `Gemm` tasks. The first of them to run packs the rows into a
//! [`PackedA`] and leaves it in the slot, the last to start takes it out,
//! and its buffer goes back to `gemm`'s pack pool when the last one
//! running drops it. A key with one `Gemm` task (every chunk of a
//! two-panel factor) is never packed here: `gemm` packs it inside the
//! call. The slot's mutex publishes the packed copy across workers; no
//! edge is added. The copy is sound by existing edges: in `rt` every
//! `Gemm(k, i, ·)` follows the apply chunks that form chunk `i`, and
//! nothing writes those rows of block column `k` again until
//! `Swap(k + 1, k)`, which follows every `Gemm(k, ·, ·)`; a distributed
//! rank packs a payload, which nothing writes. The lookahead throttle
//! bounds the live copies: at depth `d` only the updates of `d + 1` steps
//! are ever in flight.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use calu_matrix::blas3::PackedA;
use calu_matrix::{MatViewMut, Scalar};
use calu_runtime::{DistKind, DistTask, LuDag, LuShape, Task};
use std::sync::{Arc, Mutex};

/// Shared-mutable handle to a flat column-major matrix (module docs): the
/// matrix [`crate::rt`] factors, or one distributed rank's local matrix.
pub(crate) struct SharedMat<T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
}

// SAFETY: `ptr` points into a matrix that outlives every task using it,
// and `rows`, `cols`, `ld` are plain sizes; sending the handle is sending
// `&mut [T]` whose disjoint use the DAG proves.
unsafe impl<T: Send> Send for SharedMat<T> {}
// SAFETY: shared use reaches the elements only through `blocks`, whose
// caller proves the blocks of concurrent tasks disjoint; other threads may
// write `T`s through it, hence `T: Send` too.
unsafe impl<T: Send + Sync> Sync for SharedMat<T> {}

impl<T: Scalar> SharedMat<T> {
    /// A handle over `a`, which must outlive every task that uses it.
    pub(crate) fn new(a: &mut MatViewMut<'_, T>) -> Self {
        Self { ptr: a.as_mut_ptr(), rows: a.rows(), cols: a.cols(), ld: a.ld() }
    }

    /// Rows of the matrix.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// One task's operand blocks: a mutable view of each rectangle
    /// `(row, col, rows, cols)` — the `rows × cols` elements from
    /// `(row, col)` on — in order (an empty rectangle is an empty view).
    ///
    /// # Panics
    /// If a rectangle leaves the matrix; under `debug_assertions`, also if
    /// two of them share an element.
    ///
    /// # Safety
    /// For the views' lifetime the caller's task must hold each block's
    /// elements — exclusively if it writes them, shared if it only reads —
    /// through DAG ordering, or as the matrix's only thread.
    pub(crate) unsafe fn blocks<const N: usize>(
        &self,
        rects: [(usize, usize, usize, usize); N],
    ) -> [MatViewMut<'_, T>; N] {
        #[cfg(debug_assertions)]
        disjoint(&rects);
        rects.map(|(i, j, nr, nc)| {
            if nr == 0 || nc == 0 {
                return MatViewMut::from_slice(&mut [], nr, nc, nr.max(1));
            }
            assert!(i + nr <= self.rows && j + nc <= self.cols, "block out of range");
            // SAFETY: the block is in range, and the caller holds its
            // elements for the view's lifetime; the other blocks of this
            // call are disjoint from it.
            unsafe { MatViewMut::from_raw_parts(self.ptr.add(j * self.ld + i), nr, nc, self.ld) }
        })
    }
}

/// [`SharedMat::blocks`]' disjointness check: no two non-empty rectangles
/// share an element.
#[cfg(debug_assertions)]
fn disjoint(rects: &[(usize, usize, usize, usize)]) {
    let live = |r: &&(usize, usize, usize, usize)| r.2 > 0 && r.3 > 0;
    for (x, &(i, j, nr, nc)) in rects.iter().enumerate().filter(|(_, r)| live(r)) {
        for &(i2, j2, nr2, nc2) in rects[x + 1..].iter().filter(live) {
            let rows_meet = i < i2 + nr2 && i2 < i + nr;
            let cols_meet = j < j2 + nc2 && j2 < j + nc;
            assert!(!(rows_meet && cols_meet), "one task's blocks overlap: {rects:?}");
        }
    }
}

/// Shared pivot vector. Each step has one designated panel task that
/// writes the step's `jb` slots ([`Self::publish`]): `rt`'s
/// `PanelFinish(k)`, a distributed run's diagonal `PivSend(k)` or
/// `PanelGetf2(k)` participant. `rt`'s `Swap(k, ·)` tasks read them back
/// concurrently ([`Self::read_local`], which hands out shared references
/// only); a distributed run's swap lists travel as messages, so nothing
/// there reads the slots before assembly. Writes happen-before all reads
/// via the `Swap ← PanelFinish` edges (the executor's pool lock carries
/// the synchronization), and distinct panels own disjoint slots.
pub(crate) struct SharedIpiv {
    ptr: *mut usize,
    len: usize,
}

// SAFETY: `ptr` points into a pivot vector of `len` slots that outlives
// every task using it; sending it is sending `&mut [usize]` whose disjoint
// use the DAG proves (one writer per step's slots).
unsafe impl Send for SharedIpiv {}
// SAFETY: shared use writes a step's slots from its one panel task and
// reads them only from tasks the DAG orders after it.
unsafe impl Sync for SharedIpiv {}

impl SharedIpiv {
    /// A cell over `ipiv`, which must outlive every task that uses it.
    pub(crate) fn new(ipiv: &mut [usize]) -> Self {
        Self { ptr: ipiv.as_mut_ptr(), len: ipiv.len() }
    }

    /// Panel `k`'s pivot swaps, local to rows `k·nb..m`.
    ///
    /// # Safety
    /// The caller's task must be DAG-ordered after the writer of panel
    /// `k`'s slots (no writer may be live; concurrent readers are fine).
    pub(crate) unsafe fn read_local(&self, shape: &LuShape, k: usize) -> Vec<usize> {
        let base = k * shape.nb;
        let jb = shape.panel_width(k);
        debug_assert!(base + jb <= self.len);
        // SAFETY: the slots are in range, and the caller holds them shared.
        unsafe { std::slice::from_raw_parts(self.ptr.add(base), jb) }
            .iter()
            .map(|&p| p - base)
            .collect()
    }

    /// Publishes a panel's elected pivots (local to the panel) into their
    /// absolute slots.
    ///
    /// # Safety
    /// Only the panel task owning the slots at `base` may call this, and
    /// nothing else may access them meanwhile. (The DAG, not the borrow
    /// checker, proves exclusivity.)
    pub(crate) unsafe fn publish(&self, base: usize, local: &[usize]) {
        debug_assert!(base + local.len() <= self.len);
        // SAFETY: the slots are in range, and the caller holds them
        // exclusively.
        let slots = unsafe { std::slice::from_raw_parts_mut(self.ptr.add(base), local.len()) };
        for (slot, &p) in slots.iter_mut().zip(local) {
            *slot = p + base;
        }
    }
}

/// One step's `L₂₁` rows for one key, packed once for the `Gemm` tasks
/// that read them (module docs).
struct ChunkSlot<T: Scalar> {
    packed: Option<Arc<PackedA<T>>>,
    /// The key's `Gemm` tasks that have not started.
    left: usize,
}

/// The packed `L₂₁` of every step: slot `[k][i]` serves `rt`'s
/// `Gemm(k, i, ·)` (update chunk `i`) or a distributed run's
/// `Gemm(k, ·, i)` (rank `i`).
pub(crate) struct SharedChunks<T: Scalar> {
    slots: Vec<Vec<Mutex<ChunkSlot<T>>>>,
    /// Every copy packed so far, and the most that were live at once.
    #[cfg(test)]
    census: Mutex<(Vec<std::sync::Weak<PackedA<T>>>, usize)>,
}

impl<T: Scalar> SharedChunks<T> {
    /// A slot per key of `dag`'s `Gemm` tasks, counting them.
    pub(crate) fn new(dag: &LuDag) -> Self {
        let mut left: Vec<Vec<usize>> = vec![Vec::new(); dag.shape().steps()];
        for &task in dag.tasks() {
            let (k, i) = match task {
                Task::Gemm { k, i, .. } => (k, i),
                Task::Dist(DistTask { kind: DistKind::Gemm, k, rank, .. }) => {
                    (k as usize, rank as usize)
                }
                _ => continue,
            };
            let step = &mut left[k];
            if step.len() <= i {
                step.resize(i + 1, 0);
            }
            step[i] += 1;
        }
        let slot = |&left: &usize| Mutex::new(ChunkSlot { packed: None, left });
        Self {
            slots: left.iter().map(|step| step.iter().map(slot).collect()).collect(),
            #[cfg(test)]
            census: Mutex::default(),
        }
    }

    /// Slot `(k, i)`'s packed `L₂₁`, for one of its `Gemm` tasks: packed by
    /// `pack` for the first of them to ask, taken out of its slot by the
    /// last, so the buffer goes back to the pack pool when the last
    /// running task drops it. `None` when nothing is packed and this is
    /// the last task: a key with one `Gemm` task is never packed here.
    pub(crate) fn take(
        &self,
        k: usize,
        i: usize,
        pack: impl FnOnce() -> PackedA<T>,
    ) -> Option<Arc<PackedA<T>>> {
        let mut slot = self.slots[k][i].lock().expect("chunk mutex");
        slot.left -= 1;
        if slot.left == 0 {
            return slot.packed.take();
        }
        let packed = slot.packed.get_or_insert_with(|| {
            let packed = Arc::new(pack());
            #[cfg(test)]
            self.count(&packed);
            packed
        });
        Some(Arc::clone(packed))
    }

    /// Records a newly packed copy and raises the high-water mark of live
    /// ones.
    #[cfg(test)]
    fn count(&self, packed: &Arc<PackedA<T>>) {
        let mut census = self.census.lock().expect("census mutex");
        census.0.push(Arc::downgrade(packed));
        let live = census.0.iter().filter(|w| w.strong_count() > 0).count();
        census.1 = census.1.max(live);
    }

    /// Drops every slot, and with them any copy whose `Gemm` tasks were
    /// canceled. Under test, records what the run packed ([`chunk_census`]).
    pub(crate) fn release(self) {
        #[cfg(test)]
        {
            let (packed, high) = self.census.into_inner().expect("census mutex");
            let live = || packed.iter().filter(|w| w.strong_count() > 0).count();
            let held = live();
            drop(self.slots);
            CHUNK_CENSUS.set(Some(ChunkCensus { packed: packed.len(), high, held, left: live() }));
        }
    }
}

/// What [`SharedChunks::release`] saw, under test.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkCensus {
    /// Copies packed during the call.
    pub(crate) packed: usize,
    /// The most copies live at once during the call.
    pub(crate) high: usize,
    /// Copies still held when the driver returned: none unless the run
    /// was canceled.
    pub(crate) held: usize,
    /// Copies live after the slots were dropped.
    pub(crate) left: usize,
}

#[cfg(test)]
thread_local! {
    /// What the last factorization released on this thread.
    static CHUNK_CENSUS: std::cell::Cell<Option<ChunkCensus>> =
        const { std::cell::Cell::new(None) };
}

/// The packed-`L₂₁` census of the factorization `f` runs on this thread.
#[cfg(test)]
pub(crate) fn chunk_census<R>(f: impl FnOnce() -> R) -> (R, ChunkCensus) {
    CHUNK_CENSUS.set(None);
    let out = f();
    (out, CHUNK_CENSUS.take().expect("a factorization released its chunks"))
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use calu_matrix::Matrix;

    /// Blocks that share an element are refused, in debug builds, however
    /// they meet, and so is a block out of range; blocks that only
    /// interleave in memory, or are empty, are not.
    #[test]
    fn blocks_refuse_overlapping_rectangles() {
        let mut a: Matrix = Matrix::zeros(8, 8);
        let mat = SharedMat::new(&mut a.view_mut());
        let try_blocks = |rects: [(usize, usize, usize, usize); 2]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: nothing else touches `a`, and the views die here.
                let _ = unsafe { mat.blocks(rects) };
            }))
            .is_ok()
        };
        assert!(try_blocks([(0, 0, 4, 8), (4, 0, 4, 8)]), "rows apart");
        assert!(try_blocks([(0, 0, 8, 4), (0, 4, 8, 4)]), "columns apart");
        assert!(try_blocks([(0, 0, 8, 8), (3, 3, 0, 2)]), "an empty block");
        assert!(!try_blocks([(0, 0, 4, 4), (3, 3, 2, 2)]), "a corner shared");
        assert!(!try_blocks([(0, 2, 8, 1), (5, 0, 1, 8)]), "a column across a row");
        assert!(!try_blocks([(0, 0, 8, 8), (2, 2, 1, 1)]), "one inside the other");
        assert!(!try_blocks([(4, 4, 5, 1), (0, 0, 1, 1)]), "out of range");
    }
}
