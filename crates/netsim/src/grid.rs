//! 2D process grids and block-cyclic distribution maps (the ScaLAPACK
//! `Pr x Pc` layout the paper uses).

use crate::collectives::Group;
use crate::machine::Link;

/// A `Pr x Pc` process grid with column-major rank ordering
/// (`rank = pcol * pr + prow`, BLACS "C" order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of process rows (`Pr`).
    pub(crate) pr: usize,
    /// Number of process columns (`Pc`).
    pub(crate) pc: usize,
}

impl Grid {
    /// Creates a grid; both dimensions must be positive.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        Self { pr, pc }
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Rank of grid position `(prow, pcol)`.
    pub fn rank_of(&self, prow: usize, pcol: usize) -> usize {
        debug_assert!(prow < self.pr && pcol < self.pc);
        pcol * self.pr + prow
    }

    /// Grid position of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank % self.pr, rank / self.pr)
    }

    /// Group of all ranks in `rank`'s grid column (communication along
    /// columns uses the `αc`/`βc` link). Tag namespaces are disjoint per
    /// column.
    pub fn col_group(&self, rank: usize) -> Group {
        let (_prow, pcol) = self.coords(rank);
        let ranks: Vec<usize> = (0..self.pr).map(|r| self.rank_of(r, pcol)).collect();
        Group::new(ranks, rank, Link::Col, 1_000 + pcol as u64)
    }

    /// Group of all ranks in `rank`'s grid row (`αr`/`βr` link).
    pub fn row_group(&self, rank: usize) -> Group {
        let (prow, _pcol) = self.coords(rank);
        let ranks: Vec<usize> = (0..self.pc).map(|c| self.rank_of(prow, c)).collect();
        Group::new(ranks, rank, Link::Row, 100_000 + prow as u64)
    }
}

/// ScaLAPACK `NUMROC`: how many of `n` items, dealt in blocks of `nb`
/// round-robin over `nprocs` processes starting at process 0, land on
/// process `iproc`.
pub fn numroc(n: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    assert!(nb > 0 && nprocs > 0 && iproc < nprocs);
    let nblocks = n / nb;
    let mut num = (nblocks / nprocs) * nb;
    let extra_blocks = nblocks % nprocs;
    if iproc < extra_blocks {
        num += nb;
    } else if iproc == extra_blocks {
        num += n % nb;
    }
    num
}

/// Maps a global index to `(owner process, local index)` under the
/// block-cyclic distribution.
pub fn global_to_local(g: usize, nb: usize, nprocs: usize) -> (usize, usize) {
    let block = g / nb;
    let owner = block % nprocs;
    let local = (block / nprocs) * nb + g % nb;
    (owner, local)
}

/// Maps a local index on `iproc` back to the global index.
pub fn local_to_global(l: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    let lblock = l / nb;
    (lblock * nprocs + iproc) * nb + l % nb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let g = Grid::new(4, 8);
        for rank in 0..g.size() {
            let (r, c) = g.coords(rank);
            assert_eq!(g.rank_of(r, c), rank);
        }
    }

    #[test]
    fn column_major_rank_order() {
        let g = Grid::new(2, 3);
        assert_eq!(g.rank_of(0, 0), 0);
        assert_eq!(g.rank_of(1, 0), 1);
        assert_eq!(g.rank_of(0, 1), 2);
        assert_eq!(g.rank_of(1, 2), 5);
    }

    #[test]
    fn numroc_conserves_total() {
        for &(n, nb, p) in &[(100, 7, 4), (64, 16, 4), (1, 50, 8), (1000, 3, 7), (0, 5, 3)] {
            let total: usize = (0..p).map(|i| numroc(n, nb, i, p)).sum();
            assert_eq!(total, n, "n={n} nb={nb} p={p}");
        }
    }

    #[test]
    fn numroc_matches_explicit_dealing() {
        let (n, nb, p) = (53, 4, 3);
        let mut counts = vec![0usize; p];
        for g in 0..n {
            let (owner, _l) = global_to_local(g, nb, p);
            counts[owner] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, numroc(n, nb, i, p), "proc {i}");
        }
    }

    #[test]
    fn local_global_round_trip() {
        let (nb, p) = (5, 4);
        for g in 0..200 {
            let (owner, l) = global_to_local(g, nb, p);
            assert_eq!(local_to_global(l, nb, owner, p), g);
        }
    }

    #[test]
    fn local_indices_are_dense() {
        // Every process's local indices 0..numroc map to strictly
        // increasing globals.
        let (n, nb, p) = (40, 3, 4);
        for proc in 0..p {
            let cnt = numroc(n, nb, proc, p);
            let mut last = None;
            for l in 0..cnt {
                let g = local_to_global(l, nb, proc, p);
                assert!(g < n);
                if let Some(prev) = last {
                    assert!(g > prev);
                }
                last = Some(g);
            }
        }
    }
}
