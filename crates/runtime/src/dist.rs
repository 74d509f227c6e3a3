//! The distributed task DAG: [`LuDag::build_dist`] re-expresses the 2D
//! block-cyclic CALU / `PDGETRF` step loop as a per-rank task graph with
//! **communication as first-class tasks**.
//!
//! Where the shared-memory DAG ([`LuDag::build`]) has four task kinds, the
//! distributed DAG partitions every step's work over a `Pr × Pc` process
//! grid (tasks carry their owning rank in column-major grid order) and
//! realizes every cross-rank data flow as an explicit send/recv task pair
//! — the TSLU butterfly legs, the swap-list and packed-panel broadcasts
//! along process rows, the `W`/`U₁₂` broadcasts down process columns, and
//! the pivot-row exchanges of the swap sweep (see [`DistKind`]). The edge
//! set mirrors the data flow of the SPMD sweep in `calu-core::dist`
//! exactly, so any topological execution reproduces its factors bitwise;
//! the panel throttle makes lookahead depth a real parameter of the
//! *distributed* algorithm for the first time.
//!
//! Three consumers:
//!
//! * the real-data runner in `calu-core::dist_rt` drives each rank's
//!   local matrix (ScaLAPACK's local array of its owned rows and columns)
//!   through this DAG under either executor;
//! * [`DistCostModel`] prices every task from a [`MachineConfig`]'s
//!   α-β-γ terms (compute for kernel tasks, `α + w·β` per message leg for
//!   comm tasks), giving [`LuDag::critical_path`] a distributed cost;
//! * [`simulate_dist_schedule`] list-schedules the DAG with one processor
//!   per rank, producing per-rank timelines as `calu_obs` [`Span`]s
//!   (compute and send; idle is the gap) for `calu_obs::render_gantt` and
//!   synthesized [`RankStats`] — the modeled counterpart of a `run_sim`
//!   report.

use std::collections::{BTreeMap, HashMap};

use calu_netsim::collectives::{ceil_log2, prev_pow2};
use calu_netsim::grid::numroc;
use calu_netsim::machine::{flops_gemm, flops_ger, flops_getf2, flops_trsm_left, flops_trsm_right};
use calu_netsim::{Link, MachineConfig, RankStats};
use calu_obs::{CommTerm, Span};

use crate::dag::{DistKind, DistTask, LuDag, LuShape, Task, TaskId};

/// Which distributed panel algorithm a DAG models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistPanelAlg {
    /// CALU's TSLU: local elections plus a butterfly all-reduce of
    /// candidate sets, then a redundant second pass.
    Tslu,
    /// ScaLAPACK `PDGETF2`: the per-column scan / combine / exchange /
    /// rank-1 picket fence, modeled as one serialized task per panel.
    Getf2,
}

/// Role of one process row in one leg of the TSLU butterfly all-reduce —
/// the exact algebra of `calu_netsim::Group::allreduce`, shared between
/// the DAG builder and the real-data runner so their combination trees
/// cannot drift apart. `p2 = prev_pow2(p)`, `extra = p - p2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegRole {
    /// Pairwise exchange with `partner`, then the redundant combine
    /// `op(lo, hi)` ordered by member index (both sides compute it).
    Exchange {
        /// Butterfly partner (`r ^ mask`).
        partner: usize,
    },
    /// Fold-in donor (`r ≥ p2`): sends its accumulator to `partner` and
    /// goes quiet until fold-out.
    FoldSend {
        /// The low member absorbing this donor (`r - p2`).
        partner: usize,
    },
    /// Fold-in collector (`r < extra`): combines `partner`'s donated
    /// accumulator into its own before the butterfly.
    FoldCombine {
        /// The high member donating (`r + p2`).
        partner: usize,
    },
    /// Fold-out sender (`r < extra`): sends the final accumulator back to
    /// `partner` (no local change).
    FoldOut {
        /// The high member waiting for the result (`r + p2`).
        partner: usize,
    },
    /// Fold-out receiver (`r ≥ p2`): receives the final accumulator.
    FoldRecv {
        /// The low member sending the result (`r - p2`).
        partner: usize,
    },
    /// Not involved in this leg.
    Idle,
}

/// Number of legs in the butterfly all-reduce over `p` members
/// (`log2(p2)` exchanges, plus a fold-in and a fold-out leg when `p` is
/// not a power of two). 0 for `p == 1`.
pub fn tslu_leg_count(p: usize) -> usize {
    assert!(p >= 1);
    let p2 = prev_pow2(p);
    let bf = p2.trailing_zeros() as usize;
    if p == p2 {
        bf
    } else {
        bf + 2
    }
}

/// Role of member `r` in leg `leg` of the butterfly over `p` members.
///
/// # Panics
/// If `leg >= tslu_leg_count(p)` or `r >= p`.
pub fn tslu_leg_role(p: usize, leg: usize, r: usize) -> LegRole {
    assert!(r < p && leg < tslu_leg_count(p));
    let p2 = prev_pow2(p);
    let extra = p - p2;
    let bf = p2.trailing_zeros() as usize;
    let fold = usize::from(extra > 0);
    if fold == 1 && leg == 0 {
        return if r >= p2 {
            LegRole::FoldSend { partner: r - p2 }
        } else if r < extra {
            LegRole::FoldCombine { partner: r + p2 }
        } else {
            LegRole::Idle
        };
    }
    if leg < fold + bf {
        let mask = 1usize << (leg - fold);
        return if r < p2 { LegRole::Exchange { partner: r ^ mask } } else { LegRole::Idle };
    }
    // Fold-out leg.
    if r >= p2 {
        LegRole::FoldRecv { partner: r - p2 }
    } else if r < extra {
        LegRole::FoldOut { partner: r + p2 }
    } else {
        LegRole::Idle
    }
}

/// The slot holding member `r`'s butterfly accumulator once `l` legs have
/// completed: pass-through legs (fold sends, idle) do not rewrite it, so
/// this walks back to the last writing leg (slot `x` is written by leg
/// `x − 1`; slot 0 is the local election). Shared by the DAG builder's
/// edge endpoints and the real-data runner's mailbox keys, so the two
/// views of the reduction tree cannot drift apart.
pub fn tslu_acc_slot(p: usize, l: usize, r: usize) -> usize {
    let mut l = l;
    while l > 0 {
        match tslu_leg_role(p, l - 1, r) {
            LegRole::Exchange { .. } | LegRole::FoldCombine { .. } | LegRole::FoldRecv { .. } => {
                return l;
            }
            _ => l -= 1,
        }
    }
    0
}

/// Block-cyclic geometry shared by the DAG builder, the cost model, and
/// the real-data runner: pure `NUMROC` arithmetic over an [`LuShape`] and
/// a `Pr × Pc` grid, so all three agree on which rank owns what.
#[derive(Debug, Clone, Copy)]
pub struct DistGeom {
    /// Global block geometry (panel width `nb` is the distribution block).
    pub shape: LuShape,
    /// Process rows.
    pub pr: usize,
    /// Process columns.
    pub pc: usize,
}

impl DistGeom {
    /// Flat rank of grid position `(prow, pcol)` (column-major, BLACS "C"
    /// order — identical to `calu_netsim::Grid::rank_of`).
    pub fn rank(&self, prow: usize, pcol: usize) -> usize {
        pcol * self.pr + prow
    }

    /// Process row owning the diagonal block of step `k`.
    pub fn cprow(&self, k: usize) -> usize {
        k % self.pr
    }

    /// Process column owning block column `j` (for `j == k`: the panel).
    pub fn pcol_of(&self, j: usize) -> usize {
        j % self.pc
    }

    /// Width of panel `k`.
    pub fn jb(&self, k: usize) -> usize {
        self.shape.panel_width(k)
    }

    /// Width of block column `j`.
    pub fn wj(&self, j: usize) -> usize {
        self.shape.col_range(j).len()
    }

    /// Local rows on `prow` with global index `≥ g`.
    pub(crate) fn rows_at_least(&self, prow: usize, g: usize) -> usize {
        numroc(self.shape.m, self.shape.nb, prow, self.pr)
            - numroc(g.min(self.shape.m), self.shape.nb, prow, self.pr)
    }

    /// Local rows on `prow` in the panel of step `k` (global `≥ k·nb`).
    pub fn panel_rows(&self, prow: usize, k: usize) -> usize {
        self.rows_at_least(prow, k * self.shape.nb)
    }

    /// Local rows on `prow` below the panel of step `k`
    /// (global `≥ k·nb + jb`).
    pub fn below_rows(&self, prow: usize, k: usize) -> usize {
        self.rows_at_least(prow, k * self.shape.nb + self.jb(k))
    }

    /// Columns of block column `j` updated by step `k`'s trailing work:
    /// the whole block for `j > k`, the remainder right of a ragged panel
    /// for `j == k`, 0 for `j < k`.
    pub fn upd_width(&self, k: usize, j: usize) -> usize {
        match j.cmp(&k) {
            std::cmp::Ordering::Greater => self.wj(j),
            std::cmp::Ordering::Equal => self.wj(j) - self.jb(k),
            std::cmp::Ordering::Less => 0,
        }
    }

    /// Columns of block column `j` the pivot-row exchange of step `k`
    /// touches under `alg` (`PDGETF2` swapped its panel columns already).
    pub fn swap_width(&self, k: usize, j: usize, alg: DistPanelAlg) -> usize {
        match alg {
            DistPanelAlg::Tslu => self.wj(j),
            DistPanelAlg::Getf2 => {
                if j == k {
                    self.wj(j) - self.jb(k)
                } else {
                    self.wj(j)
                }
            }
        }
    }

    /// Binomial-tree depth at which the member at offset `rel` from the
    /// root receives a broadcast (0 at the root) — the latency hops a
    /// recv task is charged.
    pub(crate) fn bcast_hops(p: usize, root: usize, member: usize) -> usize {
        let rel = (member + p - root) % p;
        (usize::BITS - rel.leading_zeros()) as usize
    }
}

/// Candidate-set payload size in 8-byte words for a width-`b` tournament
/// (the same `2 + b + b²` as `calu-core`'s `Candidates`).
fn cand_words(b: usize) -> usize {
    2 + b + b * b
}

fn dtask(kind: DistKind, k: usize, j: usize, rank: usize) -> Task {
    Task::Dist(DistTask { kind, k: k as u32, j: j as u32, rank: rank as u32 })
}

impl LuDag {
    /// Builds the distributed DAG of 2D block-cyclic CALU over a
    /// `(Pr, Pc)` grid at the given panel lookahead depth. The `nb` of
    /// `shape` is both the algorithmic panel width and the distribution
    /// block (the same 1:1 coupling `core::dist` uses).
    ///
    /// # Panics
    /// If `nb == 0`, `lookahead == 0`, or a grid dimension is 0.
    pub fn build_dist(shape: LuShape, grid: (usize, usize), lookahead: usize) -> Self {
        Self::build_dist_with(shape, grid, lookahead, DistPanelAlg::Tslu)
    }

    /// [`LuDag::build_dist`] with an explicit panel algorithm
    /// (`PDGETRF`'s `PDGETF2` panel instead of TSLU).
    pub fn build_dist_with(
        shape: LuShape,
        grid: (usize, usize),
        lookahead: usize,
        alg: DistPanelAlg,
    ) -> Self {
        let (pr, pc) = grid;
        assert!(shape.nb > 0, "panel width nb must be positive");
        assert!(lookahead > 0, "lookahead depth must be at least 1");
        assert!(pr > 0 && pc > 0, "grid dimensions must be positive");
        let g = DistGeom { shape, pr, pc };
        let steps = shape.steps();
        let cb = shape.col_blocks();
        let legs = tslu_leg_count(pr);

        let mut tasks: Vec<Task> = Vec::new();
        let mut id_of: HashMap<Task, TaskId> = HashMap::new();
        let mut by_step: Vec<Vec<TaskId>> = vec![Vec::new(); steps];
        let mut push = |t: Task, tasks: &mut Vec<Task>, by_step: &mut Vec<Vec<TaskId>>| {
            let id = tasks.len();
            tasks.push(t);
            by_step[t.step()].push(id);
            id_of.insert(t, id);
        };

        for k in 0..steps {
            let cprow = g.cprow(k);
            let cpcol = g.pcol_of(k);
            match alg {
                DistPanelAlg::Tslu => {
                    for prow in 0..pr {
                        push(
                            dtask(DistKind::Cand, k, 0, g.rank(prow, cpcol)),
                            &mut tasks,
                            &mut by_step,
                        );
                    }
                    for leg in 0..legs {
                        for prow in 0..pr {
                            if tslu_leg_role(pr, leg, prow) != LegRole::Idle {
                                push(
                                    dtask(DistKind::TsluLeg, k, leg, g.rank(prow, cpcol)),
                                    &mut tasks,
                                    &mut by_step,
                                );
                            }
                        }
                    }
                }
                DistPanelAlg::Getf2 => {
                    push(
                        dtask(DistKind::PanelGetf2, k, 0, g.rank(cprow, cpcol)),
                        &mut tasks,
                        &mut by_step,
                    );
                }
            }
            for prow in 0..pr {
                push(dtask(DistKind::PivSend, k, 0, g.rank(prow, cpcol)), &mut tasks, &mut by_step);
                for pcol in 0..pc {
                    if pcol != cpcol {
                        push(
                            dtask(DistKind::PivRecv, k, 0, g.rank(prow, pcol)),
                            &mut tasks,
                            &mut by_step,
                        );
                    }
                }
            }
            for j in 0..cb {
                if g.swap_width(k, j, alg) > 0 {
                    push(
                        dtask(DistKind::Swap, k, j, g.rank(cprow, g.pcol_of(j))),
                        &mut tasks,
                        &mut by_step,
                    );
                }
            }
            if alg == DistPanelAlg::Tslu {
                push(dtask(DistKind::WSend, k, 0, g.rank(cprow, cpcol)), &mut tasks, &mut by_step);
                for prow in 0..pr {
                    push(
                        dtask(DistKind::Second, k, 0, g.rank(prow, cpcol)),
                        &mut tasks,
                        &mut by_step,
                    );
                }
            }
            for prow in 0..pr {
                if g.panel_rows(prow, k) > 0 {
                    push(
                        dtask(DistKind::PanelSend, k, 0, g.rank(prow, cpcol)),
                        &mut tasks,
                        &mut by_step,
                    );
                    for pcol in 0..pc {
                        if pcol != cpcol {
                            push(
                                dtask(DistKind::PanelRecv, k, 0, g.rank(prow, pcol)),
                                &mut tasks,
                                &mut by_step,
                            );
                        }
                    }
                }
            }
            for j in k..cb {
                if g.upd_width(k, j) == 0 {
                    continue;
                }
                let pcol = g.pcol_of(j);
                push(dtask(DistKind::Trsm, k, j, g.rank(cprow, pcol)), &mut tasks, &mut by_step);
                push(dtask(DistKind::USend, k, j, g.rank(cprow, pcol)), &mut tasks, &mut by_step);
                for prow in 0..pr {
                    if g.below_rows(prow, k) > 0 {
                        if prow != cprow {
                            push(
                                dtask(DistKind::URecv, k, j, g.rank(prow, pcol)),
                                &mut tasks,
                                &mut by_step,
                            );
                        }
                        push(
                            dtask(DistKind::Gemm, k, j, g.rank(prow, pcol)),
                            &mut tasks,
                            &mut by_step,
                        );
                    }
                }
            }
        }

        // The producer task of process row `r`'s butterfly accumulator
        // after `l` legs of step `k` (slot `x` was written by leg `x - 1`;
        // slot 0 by the local election).
        let acc_producer = |k: usize, l: usize, r: usize| -> Task {
            let cpcol = g.pcol_of(k);
            match tslu_acc_slot(pr, l, r) {
                0 => dtask(DistKind::Cand, k, 0, g.rank(r, cpcol)),
                slot => dtask(DistKind::TsluLeg, k, slot - 1, g.rank(r, cpcol)),
            }
        };

        let id = |t: Task, id_of: &HashMap<Task, TaskId>| -> TaskId {
            *id_of.get(&t).unwrap_or_else(|| panic!("edge endpoint {t} must exist"))
        };
        let mut edges: Vec<(TaskId, TaskId)> = Vec::new();
        for (tid, &t) in tasks.iter().enumerate() {
            let Task::Dist(DistTask { kind, k, j, rank }) = t else { unreachable!() };
            let (k, j, rank) = (k as usize, j as usize, rank as usize);
            let (prow, pcol) = (rank % pr, rank / pr);
            let cprow = g.cprow(k);
            let cpcol = g.pcol_of(k);
            let dep = |p: Task, edges: &mut Vec<(TaskId, TaskId)>| {
                edges.push((id(p, &id_of), tid));
            };
            match kind {
                DistKind::Cand | DistKind::PanelGetf2 => {
                    if k > 0 {
                        // The panel's block column fully updated through
                        // step k-1 on every contributing process row.
                        let prows: Vec<usize> = match kind {
                            DistKind::Cand => vec![prow],
                            _ => (0..pr).collect(),
                        };
                        for pw in prows {
                            if g.panel_rows(pw, k) > 0 {
                                dep(dtask(DistKind::Gemm, k - 1, k, g.rank(pw, cpcol)), &mut edges);
                            }
                        }
                    }
                    // Lookahead throttle: panels run at most `d` steps
                    // ahead of the slowest task of step k - d - 1.
                    if k > lookahead {
                        for &p in &by_step[k - lookahead - 1] {
                            edges.push((p, tid));
                        }
                    }
                }
                DistKind::TsluLeg => match tslu_leg_role(pr, j, prow) {
                    LegRole::Exchange { partner } => {
                        dep(acc_producer(k, j, prow), &mut edges);
                        dep(acc_producer(k, j, partner), &mut edges);
                    }
                    LegRole::FoldSend { .. } | LegRole::FoldOut { .. } => {
                        dep(acc_producer(k, j, prow), &mut edges);
                    }
                    LegRole::FoldCombine { partner } => {
                        dep(acc_producer(k, j, prow), &mut edges);
                        dep(dtask(DistKind::TsluLeg, k, j, g.rank(partner, cpcol)), &mut edges);
                    }
                    LegRole::FoldRecv { partner } => {
                        dep(dtask(DistKind::TsluLeg, k, j, g.rank(partner, cpcol)), &mut edges);
                    }
                    LegRole::Idle => unreachable!("idle legs are not emitted"),
                },
                DistKind::PivSend => match alg {
                    DistPanelAlg::Tslu => dep(acc_producer(k, legs, prow), &mut edges),
                    DistPanelAlg::Getf2 => {
                        dep(dtask(DistKind::PanelGetf2, k, 0, g.rank(cprow, cpcol)), &mut edges);
                    }
                },
                DistKind::PivRecv => {
                    dep(dtask(DistKind::PivSend, k, 0, g.rank(prow, cpcol)), &mut edges);
                }
                DistKind::Swap => {
                    // The swap is a collective over its process column:
                    // every process row's copy of the swap list there.
                    for pw in 0..pr {
                        let list = if pcol == cpcol {
                            dtask(DistKind::PivSend, k, 0, g.rank(pw, cpcol))
                        } else {
                            dtask(DistKind::PivRecv, k, 0, g.rank(pw, pcol))
                        };
                        dep(list, &mut edges);
                    }
                    if k == 0 {
                        continue;
                    }
                    if j >= k {
                        // Rows ≥ k·nb of a trailing column were last
                        // written by step k-1's gemms on each process row.
                        for pw in 0..pr {
                            if g.panel_rows(pw, k) > 0 {
                                dep(dtask(DistKind::Gemm, k - 1, j, g.rank(pw, pcol)), &mut edges);
                            }
                        }
                    } else if j == k - 1 {
                        // First left swap of the just-finished panel
                        // column: anti-dependence on the packed-panel
                        // stagings that read the unswapped L₂₁ (the
                        // distributed analogue of the shared DAG's
                        // first-left-swap edge).
                        let prev_cpcol = g.pcol_of(k - 1);
                        for pw in 0..pr {
                            if g.panel_rows(pw, k - 1) > 0 {
                                dep(
                                    dtask(DistKind::PanelSend, k - 1, 0, g.rank(pw, prev_cpcol)),
                                    &mut edges,
                                );
                            }
                        }
                    } else {
                        // Swaps on the same column do not commute.
                        dep(
                            dtask(DistKind::Swap, k - 1, j, g.rank(g.cprow(k - 1), pcol)),
                            &mut edges,
                        );
                    }
                }
                DistKind::WSend => {
                    dep(dtask(DistKind::Swap, k, k, g.rank(cprow, cpcol)), &mut edges);
                }
                DistKind::Second => {
                    dep(dtask(DistKind::WSend, k, 0, g.rank(cprow, cpcol)), &mut edges);
                }
                DistKind::PanelSend => match alg {
                    DistPanelAlg::Tslu => {
                        dep(dtask(DistKind::Second, k, 0, g.rank(prow, cpcol)), &mut edges);
                    }
                    DistPanelAlg::Getf2 => {
                        dep(dtask(DistKind::PanelGetf2, k, 0, g.rank(cprow, cpcol)), &mut edges);
                        // The panel columns were also row-swapped by the
                        // trailing swap task of the panel's own block
                        // column when a ragged remainder exists; ordering
                        // with it is irrelevant (disjoint columns).
                    }
                },
                DistKind::PanelRecv => {
                    dep(dtask(DistKind::PanelSend, k, 0, g.rank(prow, cpcol)), &mut edges);
                }
                DistKind::Trsm => {
                    dep(dtask(DistKind::Swap, k, j, g.rank(cprow, pcol)), &mut edges);
                    let panel = if pcol == cpcol {
                        dtask(DistKind::PanelSend, k, 0, g.rank(cprow, cpcol))
                    } else {
                        dtask(DistKind::PanelRecv, k, 0, g.rank(cprow, pcol))
                    };
                    dep(panel, &mut edges);
                }
                DistKind::USend => {
                    dep(dtask(DistKind::Trsm, k, j, g.rank(cprow, pcol)), &mut edges);
                }
                DistKind::URecv => {
                    dep(dtask(DistKind::USend, k, j, g.rank(cprow, pcol)), &mut edges);
                }
                DistKind::Gemm => {
                    dep(dtask(DistKind::Swap, k, j, g.rank(cprow, pcol)), &mut edges);
                    let panel = if pcol == cpcol {
                        dtask(DistKind::PanelSend, k, 0, g.rank(prow, cpcol))
                    } else {
                        dtask(DistKind::PanelRecv, k, 0, g.rank(prow, pcol))
                    };
                    dep(panel, &mut edges);
                    let u = if prow == cprow {
                        dtask(DistKind::USend, k, j, g.rank(cprow, pcol))
                    } else {
                        dtask(DistKind::URecv, k, j, g.rank(prow, pcol))
                    };
                    dep(u, &mut edges);
                }
            }
        }

        LuDag::from_parts(shape, lookahead, tasks, edges, pr * pc)
    }
}

/// Modeled cost of one distributed task: kernel compute, message
/// injections (`msgs` messages totalling `words` 8-byte words on `link`),
/// and uncounted wire time (`transit`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistTaskCost {
    /// Modeled kernel seconds (γ terms).
    pub(crate) compute: f64,
    /// Modeled flops behind [`Self::compute`].
    pub(crate) flops: f64,
    /// Message count charged to this task's accounting. Broadcast
    /// deliveries are counted at the *receiver* (one per member, like the
    /// point-to-point sends of a real binomial tree), so totals stay
    /// comparable to a `run_sim` report's.
    pub(crate) msgs: u64,
    /// 8-byte words moved by those counted messages.
    pub(crate) words: u64,
    /// Link class the messages travel on.
    pub(crate) link: Link,
    /// Modeled wire seconds occupying this task *without* counting as its
    /// own injections: a broadcast root's injection (delivered — and
    /// counted — at a receiver) and the extra tree hops beyond a deep
    /// receiver's final one. Accounted as waiting (idle) time.
    pub(crate) transit: f64,
}

impl DistTaskCost {
    const ZERO: Self =
        Self { compute: 0.0, flops: 0.0, msgs: 0, words: 0, link: Link::Col, transit: 0.0 };

    /// `Σ (α + wᵢ·β)` for this task's counted messages.
    pub(crate) fn send_time(&self, mch: &MachineConfig) -> f64 {
        self.msgs as f64 * mch.alpha(self.link) + self.words as f64 * mch.beta(self.link)
    }

    /// Send time plus transit plus compute — the task's modeled duration.
    pub fn total(&self, mch: &MachineConfig) -> f64 {
        self.compute + self.send_time(mch) + self.transit
    }
}

/// Prices every task of a distributed DAG from a machine's α-β-γ terms —
/// the same calibration the `core::dist` skeletons charge, at per-task
/// granularity. A broadcast recv task's duration is its binomial-tree hop
/// depth (`hops · (α + w·β)` — the path latency the waiting rank sees),
/// of which exactly one message is counted toward its accounting and the
/// rest is `DistTaskCost::transit`; the matching send task carries the
/// root's injection as transit. Message/word *totals* therefore match the
/// `p − 1` point-to-point sends of the real collective.
#[derive(Debug, Clone)]
pub struct DistCostModel {
    /// Geometry of the factorization and grid.
    pub geom: DistGeom,
    /// Which panel algorithm the DAG models.
    pub alg: DistPanelAlg,
    /// `true` prices panel elections with recursive `rgetf2`, `false`
    /// with classic `getf2` (the Tables 3-4 knob).
    pub recursive_panel: bool,
    /// Machine calibration.
    pub mch: MachineConfig,
}

impl DistCostModel {
    /// Send half of a broadcast over `p` members: the root's injection is
    /// wire occupancy (transit); the delivery is counted at a receiver.
    fn bcast_send(&self, p: usize, words: usize, link: Link) -> DistTaskCost {
        DistTaskCost {
            transit: if p > 1 { self.mch.t_msg(words, link) } else { 0.0 },
            link,
            ..DistTaskCost::ZERO
        }
    }

    /// Recv half of a broadcast delivered after `hops` tree levels: one
    /// counted message (the final hop) plus `hops - 1` levels of transit.
    fn bcast_recv(&self, hops: usize, words: usize, link: Link) -> DistTaskCost {
        debug_assert!(hops >= 1, "recv tasks exist only for non-root members");
        DistTaskCost {
            msgs: 1,
            words: words as u64,
            link,
            transit: (hops - 1) as f64 * self.mch.t_msg(words, link),
            ..DistTaskCost::ZERO
        }
    }

    fn t_local_lu(&self, m: usize, n: usize) -> f64 {
        if self.recursive_panel {
            self.mch.t_rgetf2(m, n)
        } else {
            self.mch.t_getf2(m, n)
        }
    }

    /// Serialized modeled time of the whole `PDGETF2` panel of step `k`
    /// (the column's ranks advance in lockstep, so one timeline is
    /// faithful): per column a scan, `2·log₂Pr` combine rounds, one
    /// pivot-row exchange, and the rank-1 update.
    fn getf2_panel(&self, k: usize) -> DistTaskCost {
        let g = &self.geom;
        let (nb, pr) = (g.shape.nb, g.pr);
        let jb = g.jb(k);
        let mut compute = 0.0;
        let mut flops = 0.0;
        let mut msgs = 0u64;
        let mut words = 0u64;
        for jj in 0..jb {
            let gc = k * nb + jj;
            let scan = (0..pr).map(|pw| g.rows_at_least(pw, gc) as f64).fold(0.0_f64, f64::max);
            compute += scan * self.mch.gamma1;
            if pr > 1 {
                let w = (jb + 2) as u64;
                msgs += 2 * ceil_log2(pr) as u64 + 1;
                words += 2 * ceil_log2(pr) as u64 * w + jb as u64;
            }
            let mut upd = 0.0_f64;
            for pw in 0..pr {
                let below = g.rows_at_least(pw, gc + 1);
                if below > 0 {
                    let mut t = self.mch.gamma_div + below as f64 * self.mch.gamma1;
                    flops += below as f64;
                    if jj + 1 < jb {
                        t += self.mch.t_ger(below, jb - jj - 1);
                        flops += flops_ger(below, jb - jj - 1);
                    }
                    upd = upd.max(t);
                }
            }
            compute += upd;
        }
        DistTaskCost { compute, flops, msgs, words, link: Link::Col, transit: 0.0 }
    }

    /// The modeled cost of `task` (0 for shared-memory kinds).
    pub fn cost(&self, task: Task) -> DistTaskCost {
        let Task::Dist(DistTask { kind, k, j, rank }) = task else {
            return DistTaskCost::ZERO;
        };
        let g = &self.geom;
        let (pr, pc) = (g.pr, g.pc);
        let (k, j, rank) = (k as usize, j as usize, rank as usize);
        let (prow, pcol) = (rank % pr, rank / pr);
        let jb = g.jb(k);
        let cprow = g.cprow(k);
        let cpcol = g.pcol_of(k);
        let one_if = |cond: bool| u64::from(cond);
        match kind {
            DistKind::Cand => {
                let rows = g.panel_rows(prow, k);
                DistTaskCost {
                    compute: self.t_local_lu(rows.max(1), jb),
                    flops: flops_getf2(rows, jb),
                    ..DistTaskCost::ZERO
                }
            }
            DistKind::TsluLeg => {
                let w = cand_words(jb) as u64;
                let combine = matches!(
                    tslu_leg_role(pr, j, prow),
                    LegRole::Exchange { .. } | LegRole::FoldCombine { .. }
                );
                let sends = !matches!(
                    tslu_leg_role(pr, j, prow),
                    LegRole::FoldRecv { .. } | LegRole::FoldCombine { .. }
                );
                DistTaskCost {
                    compute: if combine { self.mch.t_getf2(2 * jb, jb) } else { 0.0 },
                    flops: if combine { flops_getf2(2 * jb, jb) } else { 0.0 },
                    msgs: one_if(sends),
                    words: if sends { w } else { 0 },
                    link: Link::Col,
                    transit: 0.0,
                }
            }
            DistKind::PanelGetf2 => self.getf2_panel(k),
            DistKind::PivSend => self.bcast_send(pc, jb, Link::Row),
            DistKind::PivRecv => {
                self.bcast_recv(DistGeom::bcast_hops(pc, cpcol, pcol), jb, Link::Row)
            }
            DistKind::Swap => {
                let w = g.swap_width(k, j, self.alg);
                let rounds = if pr > 1 { 2 * ceil_log2(pr) as u64 } else { 0 };
                DistTaskCost {
                    msgs: rounds,
                    words: rounds * (jb * w) as u64,
                    link: Link::Col,
                    ..DistTaskCost::ZERO
                }
            }
            DistKind::WSend => self.bcast_send(pr, jb * jb, Link::Col),
            DistKind::Second => {
                let below = g.below_rows(prow, k);
                // The diagonal member owns W locally; the others receive
                // it down the column.
                let comm = if prow == cprow {
                    DistTaskCost::ZERO
                } else {
                    self.bcast_recv(DistGeom::bcast_hops(pr, cprow, prow), jb * jb, Link::Col)
                };
                DistTaskCost {
                    compute: self.mch.t_getf2(jb, jb) + self.mch.t_trsm_right(below, jb),
                    flops: flops_getf2(jb, jb) + flops_trsm_right(below, jb),
                    ..comm
                }
            }
            DistKind::PanelSend => self.bcast_send(pc, g.panel_rows(prow, k) * jb, Link::Row),
            DistKind::PanelRecv => self.bcast_recv(
                DistGeom::bcast_hops(pc, cpcol, pcol),
                g.panel_rows(prow, k) * jb,
                Link::Row,
            ),
            DistKind::Trsm => {
                let w = g.upd_width(k, j);
                DistTaskCost {
                    compute: self.mch.t_trsm_left(jb, w),
                    flops: flops_trsm_left(jb, w),
                    ..DistTaskCost::ZERO
                }
            }
            DistKind::USend => self.bcast_send(pr, jb * g.upd_width(k, j), Link::Col),
            DistKind::URecv => self.bcast_recv(
                DistGeom::bcast_hops(pr, cprow, prow),
                jb * g.upd_width(k, j),
                Link::Col,
            ),
            DistKind::Gemm => {
                let rows = g.below_rows(prow, k);
                let w = g.upd_width(k, j);
                DistTaskCost {
                    compute: self.mch.t_gemm(rows, w, jb),
                    flops: flops_gemm(rows, w, jb),
                    ..DistTaskCost::ZERO
                }
            }
        }
    }
}

/// Modeled execution of a distributed DAG: per-rank timelines, synthesized
/// per-rank accounting, and the makespan.
#[derive(Debug, Clone)]
pub struct DistSchedule {
    /// Every rank's modeled timeline in schedule order (pid = rank, tid 0,
    /// modeled seconds as microseconds): per task a `"send"` span for its
    /// counted injections and a span of category [`Task::cat`] for its
    /// kernel, both named by the task. Idle is the gap — ready for
    /// `calu_obs::render_gantt`.
    pub spans: Vec<Span>,
    /// Synthesized per-rank accounting in `run_sim` report form.
    pub per_rank: Vec<RankStats>,
    /// Completion time of the modeled schedule.
    pub makespan: f64,
}

/// List-schedules a distributed DAG with one processor per rank: each rank
/// runs its own tasks, taking the highest-priority ready task whenever it
/// is free (the same critical-path-first policy the executors use). A task
/// occupies its rank for its wire transit (a gap, accounted as idle), then
/// its counted injections (a `"send"` span), then its kernel. Deterministic.
pub fn simulate_dist_schedule(
    dag: &LuDag,
    cost: impl Fn(Task) -> DistTaskCost,
    mch: &MachineConfig,
) -> DistSchedule {
    let ranks = dag.ranks();
    let n = dag.len();
    let mut deps = dag.dep_counts().to_vec();
    let mut pools: Vec<
        std::collections::BinaryHeap<std::cmp::Reverse<(crate::dag::Prio, TaskId)>>,
    > = (0..ranks).map(|_| std::collections::BinaryHeap::new()).collect();
    for (id, &d) in deps.iter().enumerate() {
        if d == 0 {
            pools[dag.owner(id)].push(std::cmp::Reverse((dag.priority(id), id)));
        }
    }
    // One running task per rank: (finish_time, id).
    let mut running: Vec<Option<(f64, TaskId)>> = vec![None; ranks];
    let mut free_since = vec![0.0_f64; ranks];
    let mut stats: Vec<RankStats> = vec![RankStats::default(); ranks];
    let mut spans = Vec::new();
    let mut now = 0.0_f64;
    let mut done = 0usize;

    while done < n {
        // Start work on every free rank with a ready task.
        for r in 0..ranks {
            if running[r].is_none() {
                if let Some(std::cmp::Reverse((_, id))) = pools[r].pop() {
                    let task = dag.tasks()[id];
                    let c = cost(task);
                    let send = c.send_time(mch);
                    // Communication occupancy = uncounted wire transit, then
                    // the counted injections. Transit is waiting, like a
                    // netsim recv: a gap in the timeline, not a span.
                    let sent = now + (send + c.transit);
                    let mut span = |cat: &'static str, start: f64, end: f64| {
                        spans.push(Span {
                            name: task.to_string(),
                            cat,
                            pid: r as u32,
                            tid: 0,
                            ts_us: start * 1e6,
                            dur_us: (end - start) * 1e6,
                        });
                    };
                    if send > 0.0 {
                        span("send", sent - send, sent);
                    }
                    if c.compute > 0.0 {
                        span(task.cat(), sent, sent + c.compute);
                    }
                    stats[r].idle_time += now - free_since[r];
                    stats[r].compute_time += c.compute;
                    stats[r].send_time += send;
                    stats[r].idle_time += c.transit;
                    stats[r].alpha_time += c.msgs as f64 * mch.alpha(c.link);
                    stats[r].beta_time += c.words as f64 * mch.beta(c.link);
                    stats[r].msgs_sent += c.msgs;
                    stats[r].words_sent += c.words;
                    stats[r].flops += c.flops;
                    running[r] = Some((sent + c.compute, id));
                }
            }
        }
        // Advance to the earliest completion.
        let (mut best_t, mut best_r) = (f64::INFINITY, usize::MAX);
        for (r, slot) in running.iter().enumerate() {
            if let Some((t, _)) = slot {
                if *t < best_t {
                    best_t = *t;
                    best_r = r;
                }
            }
        }
        assert!(best_r != usize::MAX, "schedule stalled with {done}/{n} tasks done");
        let (t, id) = running[best_r].take().unwrap();
        now = t;
        free_since[best_r] = t;
        stats[best_r].time = stats[best_r].time.max(t);
        done += 1;
        for &s in dag.successors(id) {
            deps[s] -= 1;
            if deps[s] == 0 {
                pools[dag.owner(s)].push(std::cmp::Reverse((dag.priority(s), s)));
            }
        }
    }
    let makespan = stats.iter().fold(0.0_f64, |m, s| m.max(s.time));
    DistSchedule { spans, per_rank: stats, makespan }
}

// ---------------------------------------------------------------------------
// Communication-ledger terms
// ---------------------------------------------------------------------------

fn sum_terms(totals: BTreeMap<&'static str, (u64, u64)>, source: &'static str) -> Vec<CommTerm> {
    totals.into_iter().map(|(term, (msgs, words))| CommTerm { term, msgs, words, source }).collect()
}

/// The *exact* expected mailbox traffic of a distributed DAG: per ledger
/// term, the message/word totals the real-data runner's mailbox must
/// produce. Unlike the skeleton ([`DistCostModel::cost`]), TSLU leg
/// payloads are predicted by simulating candidate counts through the
/// butterfly — a rank owning `r` panel rows elects `min(r, b)` candidates
/// (payload `2 + c + c·b` words), and a combine keeps `min(c₁ + c₂, b)` —
/// so the prediction is exact even on ragged and late steps where the
/// closed form over-counts. Broadcast terms (pivot list, packed panel,
/// `W`, `U₁₂`) are geometry-determined and counted once per receiver.
///
/// `PDGETF2`'s panel, a collective over the panel's process column, costs
/// per panel column `jj` of a width-`b_k` panel over `pr > 1` process
/// rows a 3-word candidate all-gather — `pr·(pr − 1)` messages, counted
/// at the receivers — and the elected pivot's trailing row (`b_k − 1 − jj`
/// words) received by the `pr − 1` non-owners, absent on a panel's last
/// column. That is the `panel_getf2` term.
///
/// `dist_rt`'s measured ledger equals this prediction term-for-term on
/// every successful run — the property the reconciliation tests assert.
/// The `swap` term (the row interchanges, trailing and `PDGETF2`'s
/// pivot-row exchange alike) is deliberately absent: which rows cross
/// owners depends on the pivots, which only a finished run knows
/// (`calu-core`'s `dist_rt` predicts it from them).
pub fn expected_mailbox_comm(dag: &LuDag, geom: &DistGeom, alg: DistPanelAlg) -> Vec<CommTerm> {
    let pr = geom.pr;
    let legs = tslu_leg_count(pr);
    let steps = geom.shape.steps();

    // pre[k][leg][prow]: candidate count of `prow`'s accumulator entering
    // leg `leg` of step `k`'s butterfly.
    let mut pre: Vec<Vec<Vec<usize>>> = Vec::new();
    if alg == DistPanelAlg::Tslu {
        for k in 0..steps {
            let jb = geom.jb(k);
            let mut counts: Vec<usize> = (0..pr).map(|p| geom.panel_rows(p, k).min(jb)).collect();
            let mut per_leg = Vec::with_capacity(legs);
            for leg in 0..legs {
                per_leg.push(counts.clone());
                let prev = counts.clone();
                for (r, c) in counts.iter_mut().enumerate() {
                    *c = match tslu_leg_role(pr, leg, r) {
                        LegRole::Exchange { partner } | LegRole::FoldCombine { partner } => {
                            (prev[r] + prev[partner]).min(jb)
                        }
                        LegRole::FoldRecv { partner } => prev[partner],
                        _ => prev[r],
                    };
                }
            }
            pre.push(per_leg);
        }
    }

    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut add = |term: &'static str, msgs: usize, words: usize| {
        let e = totals.entry(term).or_insert((0, 0));
        e.0 += msgs as u64;
        e.1 += (msgs * words) as u64;
    };
    for &t in dag.tasks() {
        let Task::Dist(DistTask { kind, k, j, rank }) = t else { continue };
        let (k, j, rank) = (k as usize, j as usize, rank as usize);
        let prow = rank % pr;
        let jb = geom.jb(k);
        match kind {
            DistKind::TsluLeg => {
                // Send roles only — the same `sends` set the cost model
                // charges (both exchange partners, fold donors, fold-out).
                let sends = !matches!(
                    tslu_leg_role(pr, j, prow),
                    LegRole::FoldRecv { .. } | LegRole::FoldCombine { .. }
                );
                if sends {
                    let c = pre[k][j][prow];
                    add("tslu_leg", 1, 2 + c + c * jb);
                }
            }
            DistKind::PanelGetf2 if pr > 1 => {
                for jj in 0..jb {
                    add("panel_getf2", pr * (pr - 1), 3);
                    if jj + 1 < jb {
                        add("panel_getf2", pr - 1, jb - 1 - jj);
                    }
                }
            }
            DistKind::PivRecv => add("piv_bcast", 1, jb),
            DistKind::PanelRecv => add("panel_bcast", 1, geom.panel_rows(prow, k) * jb),
            DistKind::URecv => add("u_bcast", 1, jb * geom.upd_width(k, j)),
            DistKind::Second if prow != geom.cprow(k) => add("w_bcast", 1, jb * jb),
            _ => {}
        }
    }
    sum_terms(totals, "mailbox_exact")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::modeled_time;

    fn shapes() -> Vec<LuShape> {
        vec![
            LuShape { m: 64, n: 64, nb: 8 },
            LuShape { m: 60, n: 100, nb: 16 },
            LuShape { m: 100, n: 40, nb: 16 },
            LuShape { m: 97, n: 97, nb: 16 },
        ]
    }

    #[test]
    fn dist_dag_is_acyclic_and_complete_on_grids() {
        for shape in shapes() {
            for &(pr, pc) in &[(1usize, 1usize), (2, 2), (2, 3), (3, 2), (2, 4), (4, 1)] {
                for alg in [DistPanelAlg::Tslu, DistPanelAlg::Getf2] {
                    for d in [1usize, 2, 3] {
                        let g = LuDag::build_dist_with(shape, (pr, pc), d, alg);
                        let order = g.serial_schedule(); // asserts acyclicity
                        assert_eq!(order.len(), g.len());
                        assert_eq!(g.ranks(), pr * pc);
                        for id in 0..g.len() {
                            assert!(g.owner(id) < pr * pc, "owner in range");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn comm_tasks_appear_exactly_when_the_grid_needs_them() {
        let shape = LuShape { m: 64, n: 64, nb: 8 };
        let has = |g: &LuDag, kind: DistKind| {
            g.tasks().iter().any(|t| matches!(t, Task::Dist(d) if d.kind == kind))
        };
        let solo = LuDag::build_dist(shape, (1, 1), 1);
        assert!(!has(&solo, DistKind::TsluLeg), "1x1 grid has no butterfly legs");
        assert!(!has(&solo, DistKind::PivRecv) && !has(&solo, DistKind::PanelRecv));
        assert!(!has(&solo, DistKind::URecv));
        assert!(has(&solo, DistKind::Cand) && has(&solo, DistKind::Second));

        let wide = LuDag::build_dist(shape, (1, 4), 1);
        assert!(has(&wide, DistKind::PivRecv) && has(&wide, DistKind::PanelRecv));
        assert!(!has(&wide, DistKind::TsluLeg), "pr=1: election is local");

        let tall = LuDag::build_dist(shape, (4, 1), 1);
        assert!(has(&tall, DistKind::TsluLeg) && has(&tall, DistKind::URecv));
        assert!(!has(&tall, DistKind::PivRecv), "pc=1: no row broadcasts");

        let pdg = LuDag::build_dist_with(shape, (2, 2), 1, DistPanelAlg::Getf2);
        assert!(has(&pdg, DistKind::PanelGetf2) && !has(&pdg, DistKind::Cand));
        assert!(!has(&pdg, DistKind::Second) && !has(&pdg, DistKind::WSend));
    }

    #[test]
    fn butterfly_roles_are_consistent() {
        for p in 1..=9usize {
            let legs = tslu_leg_count(p);
            for leg in 0..legs {
                for r in 0..p {
                    match tslu_leg_role(p, leg, r) {
                        LegRole::Exchange { partner } => {
                            assert_eq!(
                                tslu_leg_role(p, leg, partner),
                                LegRole::Exchange { partner: r },
                                "p={p} leg={leg}"
                            );
                        }
                        LegRole::FoldSend { partner } => {
                            assert_eq!(
                                tslu_leg_role(p, leg, partner),
                                LegRole::FoldCombine { partner: r }
                            );
                        }
                        LegRole::FoldRecv { partner } => {
                            assert_eq!(
                                tslu_leg_role(p, leg, partner),
                                LegRole::FoldOut { partner: r }
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(tslu_leg_count(1), 0);
        assert_eq!(tslu_leg_count(2), 1);
        assert_eq!(tslu_leg_count(3), 3);
        assert_eq!(tslu_leg_count(4), 2);
        assert_eq!(tslu_leg_count(8), 3);
    }

    #[test]
    fn deeper_lookahead_shortens_the_modeled_rank_schedule() {
        let shape = LuShape { m: 1024, n: 1024, nb: 64 };
        let mch = MachineConfig::power5();
        let model = DistCostModel {
            geom: DistGeom { shape, pr: 2, pc: 2 },
            alg: DistPanelAlg::Tslu,
            recursive_panel: true,
            mch: mch.clone(),
        };
        let cp = |d: usize| {
            LuDag::build_dist(shape, (2, 2), d).critical_path(|t| model.cost(t).total(&mch))
        };
        let mk = |d: usize| {
            let dag = LuDag::build_dist(shape, (2, 2), d);
            simulate_dist_schedule(&dag, |t| model.cost(t), &mch).makespan
        };
        // The infinite-parallelism CP never gets worse with depth (the
        // throttle only loses edges)…
        let (c1, c2, c4) = (cp(1), cp(2), cp(4));
        assert!(c2 <= c1 + 1e-15, "depth 2 CP ({c2}) must not exceed depth 1 ({c1})");
        assert!(c4 <= c2 + 1e-15);
        // …and the resource-constrained per-rank schedule — where the
        // depth-1 throttle forces panels to wait out every rank's bulk
        // gemms of step k-2 — shows a real win at depth 2.
        let (m1, m2) = (mk(1), mk(2));
        assert!(
            m1 / m2 > 1.01,
            "depth 2 must shorten the modeled rank schedule: d1 {m1} vs d2 {m2}"
        );
        // And the schedule exposes real parallelism against one rank.
        let total: f64 = LuDag::build_dist(shape, (2, 2), 2)
            .tasks()
            .iter()
            .map(|&t| model.cost(t).total(&mch))
            .sum();
        assert!(total / m2 > 1.5, "modeled parallel efficiency {}", total / m2);
    }

    #[test]
    fn schedule_simulator_is_consistent_and_deterministic() {
        let shape = LuShape { m: 256, n: 256, nb: 32 };
        let mch = MachineConfig::power5();
        for grid in [(2usize, 2usize), (2, 4)] {
            let model = DistCostModel {
                geom: DistGeom { shape, pr: grid.0, pc: grid.1 },
                alg: DistPanelAlg::Tslu,
                recursive_panel: false,
                mch: mch.clone(),
            };
            for depth in 1..=3 {
                let tag = format!("{grid:?} depth {depth}");
                let dag = LuDag::build_dist(shape, grid, depth);
                let run = || simulate_dist_schedule(&dag, |t| model.cost(t), &mch);
                let s1 = run();
                let s2 = run();
                assert_eq!(
                    s1.makespan, s2.makespan,
                    "{tag}: modeled schedule must be deterministic"
                );
                assert_eq!(s1.spans, s2.spans, "{tag}");
                assert_eq!(s1.per_rank.len(), grid.0 * grid.1);
                // The rank schedule can never beat the infinite-parallelism
                // CP.
                let cp = dag.critical_path(|t| model.cost(t).total(&mch));
                assert!(s1.makespan >= cp - 1e-12, "{tag}: makespan {} vs cp {cp}", s1.makespan);
                for (r, st) in s1.per_rank.iter().enumerate() {
                    // Per rank and per kind, the timeline is the accounting:
                    // compute spans sum to compute time, send spans to send
                    // time, and what no span covers to idle time.
                    let mut lane: Vec<&Span> =
                        s1.spans.iter().filter(|s| s.pid == r as u32).collect();
                    lane.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
                    let secs = |send: bool| -> f64 {
                        let kind = lane.iter().filter(|s| (s.cat == "send") == send);
                        kind.map(|s| s.dur_us).sum::<f64>() / 1e6
                    };
                    let end = lane.last().map_or(0.0, |s| (s.ts_us + s.dur_us) / 1e6);
                    let (compute, send) = (secs(false), secs(true));
                    assert!((compute - st.compute_time).abs() < 1e-9, "{tag} rank {r}: compute");
                    assert!((send - st.send_time).abs() < 1e-9, "{tag} rank {r}: send");
                    assert!(
                        (end - compute - send - st.idle_time).abs() < 1e-9,
                        "{tag} rank {r}: idle {} vs gaps {}",
                        st.idle_time,
                        end - compute - send
                    );
                    assert!((st.alpha_time + st.beta_time - st.send_time).abs() < 1e-12);
                    assert!(st.time <= s1.makespan + 1e-15);
                    for w in lane.windows(2) {
                        let prev_end = w[0].ts_us + w[0].dur_us;
                        assert!(prev_end <= w[1].ts_us + 1e-6, "{tag} rank {r}: overlapping spans");
                    }
                }
                assert!(s1.per_rank.iter().map(|s| s.flops).sum::<f64>() > 0.0);
                assert!(s1.per_rank.iter().map(|s| s.msgs_sent).sum::<u64>() > 0);
            }
        }
    }

    #[test]
    fn dist_tasks_have_zero_shared_memory_cost() {
        let shape = LuShape { m: 64, n: 64, nb: 8 };
        let mch = MachineConfig::power5();
        let dag = LuDag::build_dist(shape, (2, 2), 1);
        for &t in dag.tasks() {
            assert_eq!(modeled_time(&dag, t, &mch), 0.0);
        }
    }

    /// The canonical communication-ledger term a distributed task kind is
    /// accounted under (`None` for pure-compute kinds).
    fn dist_comm_term(kind: DistKind) -> Option<&'static str> {
        match kind {
            DistKind::TsluLeg => Some("tslu_leg"),
            DistKind::PivSend | DistKind::PivRecv => Some("piv_bcast"),
            DistKind::PanelSend | DistKind::PanelRecv => Some("panel_bcast"),
            DistKind::USend | DistKind::URecv => Some("u_bcast"),
            DistKind::WSend | DistKind::Second => Some("w_bcast"),
            DistKind::Swap => Some("swap"),
            DistKind::PanelGetf2 => Some("panel_getf2"),
            DistKind::Cand | DistKind::Trsm | DistKind::Gemm => None,
        }
    }

    /// The paper's skeleton predictions per ledger term: [`DistCostModel::cost`]
    /// message/word counts summed over the DAG's tasks and grouped by
    /// [`dist_comm_term`]. This is the *first-order* side of the
    /// reconciliation — e.g. every TSLU leg is charged the full-width
    /// candidate payload `2 + b + b²`, where the real mailbox sends smaller
    /// sets on late/ragged steps — so reconciling a measured ledger against
    /// it quantifies exactly how far the closed forms sit from the wire.
    fn modeled_comm_terms(dag: &LuDag, model: &DistCostModel) -> Vec<CommTerm> {
        let source = match model.alg {
            DistPanelAlg::Tslu => "skeleton_calu",
            DistPanelAlg::Getf2 => "skeleton_pdgetrf",
        };
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for &t in dag.tasks() {
            let Task::Dist(d) = t else { continue };
            let Some(term) = dist_comm_term(d.kind) else { continue };
            let c = model.cost(t);
            let e = totals.entry(term).or_insert((0, 0));
            e.0 += c.msgs;
            e.1 += c.words;
        }
        sum_terms(totals, source)
    }

    #[test]
    fn exact_mailbox_prediction_matches_the_skeleton_when_panels_stay_full() {
        let terms_of = |shape: LuShape| {
            let geom = DistGeom { shape, pr: 2, pc: 2 };
            let model = DistCostModel {
                geom,
                alg: DistPanelAlg::Tslu,
                recursive_panel: false,
                mch: MachineConfig::power5(),
            };
            let dag = LuDag::build_dist(shape, (2, 2), 2);
            let exact = expected_mailbox_comm(&dag, &geom, DistPanelAlg::Tslu);
            let modeled = modeled_comm_terms(&dag, &model);
            (exact, modeled)
        };
        let find = |v: &[CommTerm], t: &str| v.iter().find(|c| c.term == t).cloned();

        // Tall matrix: every rank holds ≥ jb panel rows at every step, so
        // each butterfly payload carries a full jb candidates and the
        // exact predictor reproduces the skeleton term-for-term.
        let (exact, modeled) = terms_of(LuShape { m: 256, n: 64, nb: 8 });
        for term in ["tslu_leg", "piv_bcast", "panel_bcast", "u_bcast", "w_bcast"] {
            let e = find(&exact, term).expect(term);
            let m = find(&modeled, term).expect(term);
            assert_eq!((e.msgs, e.words), (m.msgs, m.words), "term {term}");
            assert_eq!(e.source, "mailbox_exact");
            assert_eq!(m.source, "skeleton_calu");
        }
        // The skeleton also prices terms the mailbox never carries.
        assert!(find(&modeled, "swap").is_some());
        assert!(find(&exact, "swap").is_none() && find(&exact, "panel_getf2").is_none());

        // Square matrix: tail steps go ragged, late butterflies carry
        // fewer than jb candidates, and the exact word count drops
        // strictly below the first-order skeleton — while the message
        // counts (one per send role) still agree exactly.
        let (exact, modeled) = terms_of(LuShape { m: 64, n: 64, nb: 8 });
        let e = find(&exact, "tslu_leg").unwrap();
        let m = find(&modeled, "tslu_leg").unwrap();
        assert_eq!(e.msgs, m.msgs);
        assert!(e.words < m.words, "ragged tail must shed words: {} vs {}", e.words, m.words);

        // The grids and depths on which `calu-core`'s reconciliation test
        // measures a ledger equal to the exact prediction: the TSLU legs'
        // message counts agree with the skeleton, and their words never
        // exceed it.
        // 4 × 1 at n = 24 leaves a process row empty.
        for (n, (pr, pc)) in [(48, (2, 2)), (48, (2, 4)), (48, (3, 2)), (24, (4, 1))] {
            let shape = LuShape { m: n, n, nb: 8 };
            let geom = DistGeom { shape, pr, pc };
            let model = DistCostModel {
                geom,
                alg: DistPanelAlg::Tslu,
                recursive_panel: false,
                mch: MachineConfig::ideal(),
            };
            for depth in 1..=3 {
                let tag = format!("n={n} {pr}x{pc} d={depth}");
                let dag = LuDag::build_dist(shape, (pr, pc), depth);
                let exact = expected_mailbox_comm(&dag, &geom, DistPanelAlg::Tslu);
                let e = find(&exact, "tslu_leg").expect("tslu_leg");
                let m = find(&modeled_comm_terms(&dag, &model), "tslu_leg").expect("tslu_leg");
                assert_eq!(e.msgs, m.msgs, "{tag}");
                assert!(e.words <= m.words, "{tag}: exact can never exceed the skeleton");
            }
        }
    }
}
