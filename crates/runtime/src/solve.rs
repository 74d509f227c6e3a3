//! Solve-phase DAG builder: blocked application of completed LU factors
//! to a block of right-hand sides.
//!
//! The factorization DAG ([`LuDag::build`]) pays the `O(n³)` cost once;
//! this module emits the `O(n²·nrhs)` graph that amortizes it — the
//! dependency DAG of
//!
//! ```text
//! x ← U⁻¹ (L⁻¹ (P·b))
//! ```
//!
//! for an `n × nrhs` RHS block, tiled `nb` rows by `rhs_nb` columns.
//! Per RHS block column `j` the tasks are
//!
//! * `SolvePiv(j)` — apply the pivot permutation to the whole column,
//! * `SolveTrsmL(k,j)` — unit-lower triangular solve on diagonal block
//!   `k`, then `SolveGemmL(k,i,j)` updates `xᵢ ← xᵢ − L₍ᵢₖ₎·xₖ` for every
//!   block `i > k` (forward sweep),
//! * `SolveTrsmU(k,j)` / `SolveGemmU(k,i,j)` — the mirrored backward
//!   sweep, `k` descending, updating blocks `i < k`.
//!
//! Distinct RHS block columns are fully independent, so a coalesced batch
//! exposes `rhs_blocks()`-way parallelism even where one column's sweep
//! is a serial chain. Within a column, *write chains* (`GemmL(k-1,i,j) →
//! GemmL(k,i,j)` and the `TrsmL` counterparts) serialize every writer of
//! each tile in a fixed order, so any topological execution — serial or
//! threaded — produces bitwise identical solutions.

use crate::dag::{LuDag, LuShape, SolveKind, SolveTask, Task, TaskId};

/// Shape of a blocked solve: factor dimension, RHS count, and the two
/// tile widths (`nb` rows — matching the factorization's panel width —
/// by `rhs_nb` RHS columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveShape {
    /// Factor dimension (the matrix is `n × n`).
    pub n: usize,
    /// Number of right-hand sides.
    pub nrhs: usize,
    /// Row tile height (the factorization's panel width).
    pub nb: usize,
    /// RHS column tile width.
    pub rhs_nb: usize,
}

impl SolveShape {
    /// Number of row blocks, `⌈n/nb⌉`.
    pub(crate) fn row_blocks(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Number of RHS block columns, `⌈nrhs/rhs_nb⌉`.
    pub(crate) fn rhs_blocks(&self) -> usize {
        self.nrhs.div_ceil(self.rhs_nb)
    }
}

impl LuDag {
    /// Builds the solve-phase DAG for applying an `n × n` factorization
    /// (panel width `nb`) to `nrhs` right-hand sides tiled `rhs_nb` wide.
    ///
    /// Every task is a [`Task::Solve`]; the runner supplies the kernels
    /// (pivot application, triangular solves, block updates) exactly as
    /// for the factorization DAG. Each RHS block column contributes
    /// `1 + 2K + K(K−1)` tasks for `K = ⌈n/nb⌉` row blocks.
    ///
    /// # Panics
    ///
    /// Panics if any shape field is zero.
    // Loop indices here are task coordinates (block row/column numbers),
    // not slice positions; iterator rewrites would obscure the geometry.
    #[allow(clippy::needless_range_loop)]
    pub fn build_solve(shape: SolveShape) -> LuDag {
        assert!(
            shape.n > 0 && shape.nrhs > 0 && shape.nb > 0 && shape.rhs_nb > 0,
            "degenerate solve shape {shape:?}"
        );
        let kb = shape.row_blocks();
        let jb = shape.rhs_blocks();

        let mut tasks: Vec<Task> = Vec::new();
        let mut edges: Vec<(TaskId, TaskId)> = Vec::new();
        // Per-column scratch: ids of this column's tasks, indexed by kind.
        let solve = |kind, k: usize, i: usize, j: usize| {
            Task::Solve(SolveTask { kind, k: k as u32, i: i as u32, j: j as u32 })
        };

        for j in 0..jb {
            let base = tasks.len();
            let piv = base;
            tasks.push(solve(SolveKind::Piv, 0, 0, j));
            // Forward sweep ids: TrsmL(k) then its GemmL(k,i) row, k ascending.
            let mut trsm_l = vec![0usize; kb];
            let mut gemm_l = vec![vec![0usize; kb]; kb]; // [k][i], i > k
            for k in 0..kb {
                trsm_l[k] = tasks.len();
                tasks.push(solve(SolveKind::TrsmL, k, k, j));
                for i in k + 1..kb {
                    gemm_l[k][i] = tasks.len();
                    tasks.push(solve(SolveKind::GemmL, k, i, j));
                }
            }
            // Backward sweep ids, k descending.
            let mut trsm_u = vec![0usize; kb];
            let mut gemm_u = vec![vec![0usize; kb]; kb]; // [k][i], i < k
            for k in (0..kb).rev() {
                trsm_u[k] = tasks.len();
                tasks.push(solve(SolveKind::TrsmU, k, k, j));
                for i in 0..k {
                    gemm_u[k][i] = tasks.len();
                    tasks.push(solve(SolveKind::GemmU, k, i, j));
                }
            }

            // Forward sweep edges. TrsmL(k) reads tile k last written by
            // GemmL(k−1,k) (or the pivot application for k = 0); GemmL(k,i)
            // reads xₖ from TrsmL(k) and continues tile i's write chain.
            for k in 0..kb {
                if k == 0 {
                    edges.push((piv, trsm_l[0]));
                } else {
                    edges.push((gemm_l[k - 1][k], trsm_l[k]));
                }
                for i in k + 1..kb {
                    edges.push((trsm_l[k], gemm_l[k][i]));
                    if k > 0 {
                        edges.push((gemm_l[k - 1][i], gemm_l[k][i]));
                    } else {
                        edges.push((piv, gemm_l[k][i]));
                    }
                }
            }
            // Backward sweep edges, mirrored: TrsmU(k) reads tile k last
            // written by GemmU(k+1,k) (or the forward sweep's final
            // TrsmL(K−1) for k = K−1); GemmU(k,i) reads xₖ from TrsmU(k)
            // and continues tile i's write chain — whose previous writer is
            // GemmU(k+1,i), or the forward sweep's last writer of tile i
            // (TrsmL(i)) when k = K−1.
            for k in (0..kb).rev() {
                if k == kb - 1 {
                    edges.push((trsm_l[kb - 1], trsm_u[kb - 1]));
                } else {
                    edges.push((gemm_u[k + 1][k], trsm_u[k]));
                }
                for i in 0..k {
                    edges.push((trsm_u[k], gemm_u[k][i]));
                    if k < kb - 1 {
                        edges.push((gemm_u[k + 1][i], gemm_u[k][i]));
                    } else {
                        edges.push((trsm_l[i], gemm_u[k][i]));
                    }
                }
            }
        }

        // The LuShape only carries what priorities need: row_blocks() via
        // m/nb. Lookahead throttling is a factorization concept (there are
        // no Panel tasks to throttle), so depth 1 is inert here.
        let lu_shape = LuShape { m: shape.n, n: shape.n, nb: shape.nb };
        LuDag::from_parts(lu_shape, 1, tasks, edges, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(n: usize, nrhs: usize, nb: usize, rhs_nb: usize) -> SolveShape {
        SolveShape { n, nrhs, nb, rhs_nb }
    }

    /// Kahn's algorithm replay: the DAG is acyclic and every task runs.
    fn topo_order(dag: &LuDag) -> Vec<TaskId> {
        let mut deps = dag.dep_counts().to_vec();
        let mut ready: Vec<TaskId> = (0..dag.len()).filter(|&t| deps[t] == 0).collect();
        let mut order = Vec::with_capacity(dag.len());
        while let Some(t) = ready.pop() {
            order.push(t);
            for &s in dag.successors(t) {
                deps[s] -= 1;
                if deps[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(order.len(), dag.len(), "cycle or unreachable task");
        order
    }

    #[test]
    fn counts_match_closed_form() {
        for (n, nrhs, nb, rhs_nb) in
            [(96, 24, 32, 8), (100, 17, 32, 8), (64, 1, 16, 4), (40, 40, 40, 40)]
        {
            let s = shape(n, nrhs, nb, rhs_nb);
            let dag = LuDag::build_solve(s);
            let k = s.row_blocks();
            let per_col = 1 + 2 * k + k * (k - 1);
            assert_eq!(dag.len(), per_col * s.rhs_blocks(), "shape {s:?}");
            topo_order(&dag);
        }
    }

    #[test]
    fn single_block_column_is_a_chain() {
        // K = 1: Piv → TrsmL → TrsmU per column, nothing else.
        let dag = LuDag::build_solve(shape(24, 8, 32, 8));
        assert_eq!(dag.len(), 3);
        let order = topo_order(&dag);
        let kinds: Vec<SolveKind> = order
            .iter()
            .map(|&t| match dag.tasks()[t] {
                Task::Solve(s) => s.kind,
                ref other => panic!("unexpected task {other}"),
            })
            .collect();
        assert_eq!(kinds, [SolveKind::Piv, SolveKind::TrsmL, SolveKind::TrsmU]);
    }

    #[test]
    fn columns_are_independent() {
        // No edge crosses RHS block columns: every successor of a task
        // shares its `j`.
        let dag = LuDag::build_solve(shape(96, 32, 32, 8));
        for t in 0..dag.len() {
            let Task::Solve(s) = dag.tasks()[t] else { panic!() };
            for &succ in dag.successors(t) {
                let Task::Solve(s2) = dag.tasks()[succ] else { panic!() };
                assert_eq!(s.j, s2.j, "{} → {}", dag.tasks()[t], dag.tasks()[succ]);
            }
        }
    }

    #[test]
    fn write_chains_serialize_tile_writers() {
        // Any topological order lists the writers of each (tile, column)
        // pair in the fixed program order: Piv, GemmL(0..), TrsmL, GemmU
        // descending, TrsmU — i.e. forward sweep ascending in k, backward
        // sweep descending. Replay a topo order and check per-tile writer
        // sequences are sorted by that program position.
        let s = shape(128, 16, 32, 8);
        let dag = LuDag::build_solve(s);
        let kb = s.row_blocks() as u32;
        // Program position of a task as a writer of tile `i`.
        let pos = |t: &SolveTask| -> u32 {
            match t.kind {
                SolveKind::Piv => 0,
                SolveKind::GemmL => 1 + t.k,             // k ascending
                SolveKind::TrsmL => 1 + t.k,             // after GemmL(k-1,·)
                SolveKind::GemmU => 1 + kb + (kb - t.k), // k descending
                SolveKind::TrsmU => 1 + kb + (kb - t.k),
            }
        };
        let order = topo_order(&dag);
        let mut last: std::collections::HashMap<(u32, u32), u32> = std::collections::HashMap::new();
        for &t in &order {
            let Task::Solve(s) = dag.tasks()[t] else { panic!() };
            if s.kind == SolveKind::Piv {
                continue; // writes every tile before anything else runs
            }
            let key = (s.i, s.j);
            let p = pos(&s);
            if let Some(&prev) = last.get(&key) {
                assert!(prev <= p, "writer order violated at {}", dag.tasks()[t]);
            }
            last.insert(key, p);
        }
    }

    #[test]
    fn priorities_drain_columns_in_order() {
        // Serial (priority-ordered) replay finishes all of column j's
        // tasks before starting column j+1: the first tuple field is j.
        let dag = LuDag::build_solve(shape(96, 24, 32, 8));
        let mut ids: Vec<TaskId> = (0..dag.len()).collect();
        ids.sort_by_key(|&t| dag.priority(t));
        let js: Vec<u32> = ids
            .iter()
            .map(|&t| match dag.tasks()[t] {
                Task::Solve(s) => s.j,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = js.clone();
        sorted.sort_unstable();
        assert_eq!(js, sorted);
    }
}
