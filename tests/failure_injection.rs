//! Failure injection: every factorization flavor must degrade *predictably*
//! on hostile inputs — exact singularity at assorted ranks and positions,
//! non-finite entries, and degenerate shapes. Errors, never wrong answers
//! or panics (panics are reserved for API misuse).

use calu_repro::core::{
    calu_factor, calu_inplace, gepp_factor, runtime_calu_factor, runtime_calu_inplace, tslu_factor,
    CaluOpts, LocalLu, PanelMode, RuntimeOpts,
};
use calu_repro::matrix::blas3::{gemm, trsm};
use calu_repro::matrix::lapack::{getf2, getf2_info, getrf, GetrfOpts};
use calu_repro::matrix::perm::apply_ipiv;
use calu_repro::matrix::{gen, Diag, Error, Matrix, NoObs, Side, Uplo};
use calu_repro::runtime::{ExecutorKind, PanelPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Matrix with exact rank `r`: random leading r columns, zero tail columns.
fn rank_deficient(seed: u64, n: usize, r: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = gen::randn(&mut rng, n, r);
    Matrix::from_fn(n, n, |i, j| if j < r { b[(i, j)] } else { 0.0 })
}

#[test]
fn all_flavors_report_singularity_at_the_same_step() {
    let n = 48;
    for &r in &[1usize, 7, 24, 47] {
        let a = rank_deficient(500 + r as u64, n, r);
        let opts = CaluOpts { block: 8, p: 4, ..Default::default() };

        let e_calu = calu_factor(&a, opts).unwrap_err();
        let e_tiled = runtime_calu_factor(&a, opts, RuntimeOpts::default()).unwrap_err();
        let e_gepp = gepp_factor(&a, 8).unwrap_err();

        // Zero columns make the first dead pivot exactly step r for every
        // pivoting strategy.
        for (name, e) in [("calu", e_calu), ("tiled", e_tiled), ("gepp", e_gepp)] {
            match e {
                Error::SingularPivot { step } => {
                    assert_eq!(step, r, "{name}: wrong singular step for rank {r}")
                }
                other => panic!("{name}: unexpected error {other:?}"),
            }
        }
    }
}

const EXECUTORS: [ExecutorKind; 3] = [
    ExecutorKind::Serial,
    ExecutorKind::Threaded { threads: 2 },
    ExecutorKind::Threaded { threads: 4 },
];

#[test]
fn panel_subgraph_cancels_on_singularity_and_reports_absolute_step() {
    // Rank-deficient stacks never fail inside the tournament (elections
    // and reductions always elect *some* rows), so the dead pivot surfaces
    // in PanelFinish's top-block elimination. It must be rebased to the
    // *absolute* elimination step the sequential sweep reports, cancel all
    // dependents, and never hang — with either kind of leaves, on both
    // executors, at every lookahead depth.
    let n = 48;
    for &r in &[1usize, 7, 24, 47] {
        let a = rank_deficient(500 + r as u64, n, r);
        for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
            let opts = CaluOpts { block: 8, p: 4, panel_mode, ..Default::default() };
            let want = calu_factor(&a, opts).unwrap_err();
            assert_eq!(want, Error::SingularPivot { step: r }, "sequential, rank {r}");
            for lookahead in 1..=3 {
                for executor in EXECUTORS {
                    let rt = RuntimeOpts { lookahead, executor };
                    let what = format!("rank {r} {panel_mode:?} d={lookahead} {executor:?}");
                    let e = runtime_calu_factor(&a, opts, rt).unwrap_err();
                    assert_eq!(e, want, "flat {what}: wrong singular step");
                }
            }
        }
    }
}

#[test]
fn tall_rank_deficient_panel_fails_in_finish_and_leaves_applies_and_gemms_unrun() {
    // 4200 x 24, block 8: every panel has four leaves (or 525 tile-height
    // ones) and two apply chunks. Rank 3 dies in PanelFinish(0); rank 11 in
    // PanelFinish(1), with step 0's applies and gemms done and step 1's
    // outstanding.
    let (m, n, b) = (4200, 24, 8);
    let mut rng = StdRng::seed_from_u64(779);
    let base = gen::randn(&mut rng, m, n);
    for &r in &[3usize, 11] {
        let a = Matrix::from_fn(m, n, |i, j| if j < r { base[(i, j)] } else { 0.0 });
        let k = r / b;
        let (c0, c1) = (k * b, (k + 1) * b);
        for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
            let opts = CaluOpts { block: b, p: 4, panel_mode, ..Default::default() };
            let want = calu_factor(&a, opts).unwrap_err();
            assert_eq!(want, Error::SingularPivot { step: r });
            // The matrix as the failing step finds it: the input, or — for
            // a failure in step 1 — the input after one full step.
            let mut before = a.clone();
            if k == 1 {
                let ipiv =
                    calu_inplace(before.view_mut().into_submatrix(0, 0, m, b), opts, &mut NoObs)
                        .expect("the leading block column has full rank");
                let (lu, mut rest) = before.view_mut().split_at_col_mut(b);
                apply_ipiv(rest.rb_mut(), &ipiv);
                let (mut u12, a22) = rest.split_at_row_mut(b);
                trsm(
                    Side::Left,
                    Uplo::Lower,
                    Diag::Unit,
                    1.0,
                    lu.submatrix(0, 0, b, b),
                    u12.rb_mut(),
                );
                gemm(-1.0, lu.submatrix(b, 0, m - b, b), u12.as_view(), 1.0, a22);
            }
            let row = |x: &Matrix, i: usize| -> Vec<u64> {
                (c0..c1).map(|j| x[(i, j)].to_bits()).collect()
            };
            let held: std::collections::HashSet<Vec<u64>> =
                (c0..m).map(|i| row(&before, i)).collect();
            for lookahead in 1..=3 {
                for executor in EXECUTORS {
                    let rt = RuntimeOpts { lookahead, executor };
                    let what = format!("rank {r} {panel_mode:?} d={lookahead} {executor:?}");
                    let mut w = a.clone();
                    let e = runtime_calu_inplace(w.view_mut(), opts, rt, &mut NoObs).unwrap_err();
                    assert_eq!(e, want, "flat {what}");
                    // The failing panel's applies, swaps, trsms and gemms
                    // hang off its finish and must not have run: right of
                    // the panel nothing of that step happened, and below
                    // its top block every row of the panel is still one of
                    // the rows it held before the finish (swapped, never
                    // eliminated).
                    for j in c1..n {
                        assert_eq!(&w.col(j)[c0..], &before.col(j)[c0..], "{what}: column {j}");
                    }
                    for i in c1..m {
                        assert!(held.contains(&row(&w, i)), "{what}: row {i} was eliminated");
                    }
                }
            }
        }
    }
}

#[test]
fn singularity_in_the_rows_step0_copies_matches_sequential_on_every_executor() {
    // `runtime_calu_factor` copies its input inside step 0's elects, so the
    // hazards sit in the rows those elects copy: one step-0 leaf's rows
    // exactly zero (they stay zero, so the factor dies once only they
    // remain), and an exactly zero column in the leading block column (the
    // leading block is singular; PanelFinish(0) fails right after the
    // copies). Every executor and depth reports the sequential sweep's
    // step and returns, so no task is left waiting on a canceled one.
    let (n, b, p) = (48, 8, 4);
    let mut rng = StdRng::seed_from_u64(781);
    let base = gen::randn(&mut rng, n, n);
    for panel_mode in [PanelMode::Gathered, PanelMode::Resident] {
        let leaf = PanelPlan::new(n, b, b, p, panel_mode).leaves()[1].clone();
        let zero_leaf =
            Matrix::from_fn(n, n, |i, j| if leaf.contains(&i) { 0.0 } else { base[(i, j)] });
        let zero_col = Matrix::from_fn(n, n, |i, j| if j == 5 { 0.0 } else { base[(i, j)] });
        for (name, a, step) in
            [("zero leaf", zero_leaf, n - leaf.len()), ("singular leading block", zero_col, 5)]
        {
            let opts = CaluOpts { block: b, p, panel_mode, ..Default::default() };
            let want = calu_factor(&a, opts).unwrap_err();
            assert_eq!(want, Error::SingularPivot { step }, "{name} {panel_mode:?}: sequential");
            for lookahead in 1..=3 {
                for executor in EXECUTORS {
                    let rt = RuntimeOpts { lookahead, executor };
                    let e = runtime_calu_factor(&a, opts, rt).unwrap_err();
                    assert_eq!(e, want, "{name} {panel_mode:?} d={lookahead} {executor:?}");
                }
            }
        }
    }
}

#[test]
fn resident_singularity_in_looked_ahead_panel_still_sequentially_first() {
    // Unbounded lookahead runs later panels' elects early; the reduction
    // spine of the failing panel must still report the sequentially-first
    // dead pivot (panels are chained through PanelFinish).
    let n = 64;
    let a = rank_deficient(777, n, 40);
    let opts = CaluOpts { block: 8, panel_mode: PanelMode::Resident, ..Default::default() };
    let rt = RuntimeOpts { lookahead: 1_000_000, executor: ExecutorKind::Threaded { threads: 4 } };
    let e = runtime_calu_factor(&a, opts, rt).unwrap_err();
    assert_eq!(e, Error::SingularPivot { step: 40 });
}

#[test]
fn runtime_singularity_in_looked_ahead_panel_still_sequentially_first() {
    // Deep lookahead runs the elects of panels k+1, k+2, ... early; a
    // failure discovered out of wall-clock order must still be reported as
    // the error the sequential sweep would hit (panels are chained through
    // their finishes, so the first failing panel *is* the sequential one).
    let n = 64;
    let a = rank_deficient(777, n, 40);
    let opts = CaluOpts { block: 8, p: 4, ..Default::default() };
    let rt = RuntimeOpts { lookahead: 1_000_000, executor: ExecutorKind::Threaded { threads: 4 } };
    let e = runtime_calu_factor(&a, opts, rt).unwrap_err();
    assert_eq!(e, Error::SingularPivot { step: 40 });
}

#[test]
fn zero_matrix_fails_at_step_zero() {
    let a: Matrix = Matrix::zeros(16, 16);
    let e = calu_factor(&a, CaluOpts { block: 4, p: 2, ..Default::default() }).unwrap_err();
    assert_eq!(e, Error::SingularPivot { step: 0 });
}

#[test]
fn one_by_one_matrices() {
    let a = Matrix::from_rows(&[&[3.0]]);
    let f = calu_factor(&a, CaluOpts { block: 1, p: 1, ..Default::default() }).unwrap();
    assert_eq!(f.lu[(0, 0)], 3.0);
    assert_eq!(f.solve(&[6.0]), vec![2.0]);

    let z = Matrix::from_rows(&[&[0.0]]);
    let e = calu_factor(&z, CaluOpts { block: 1, p: 1, ..Default::default() }).unwrap_err();
    assert_eq!(e, Error::SingularPivot { step: 0 });
}

#[test]
fn degenerate_shapes_factor_on_every_path() {
    // Empty, single-row, single-column and 1x1 matrices: the sequential
    // factor, the runtime on both executors and the distributed runtime on
    // a 2x2 grid all succeed, with one pivot per eliminated column.
    use calu_repro::core::dist::DistCaluConfig;
    use calu_repro::core::{dist_calu_factor_rt, DistRtOpts};
    use calu_repro::netsim::MachineConfig;
    let mut rng = StdRng::seed_from_u64(950);
    for (m, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (1, 100), (100, 1)] {
        let a: Matrix = gen::randn(&mut rng, m, n);
        let opts = CaluOpts::default();
        let seq = calu_factor(&a, opts).unwrap_or_else(|e| panic!("{m}x{n} sequential: {e:?}"));
        assert_eq!(seq.ipiv.len(), m.min(n), "{m}x{n} sequential");
        for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
            let rt = RuntimeOpts { lookahead: 2, executor };
            let (f, _) = runtime_calu_factor(&a, opts, rt)
                .unwrap_or_else(|e| panic!("{m}x{n} {executor:?}: {e:?}"));
            assert_eq!(f.ipiv, seq.ipiv, "{m}x{n} {executor:?}");
            let bits = |lu: &Matrix| lu.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.lu), bits(&seq.lu), "{m}x{n} {executor:?}: runtime == sequential");
        }
        let cfg = DistCaluConfig { b: 4, pr: 2, pc: 2, local: LocalLu::Recursive };
        let (_rep, d) = dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::ideal());
        assert_eq!(d.ipiv.len(), m.min(n), "{m}x{n} distributed");
        assert_eq!(d.first_singular, None, "{m}x{n} distributed");
    }
}

#[test]
fn nan_input_is_reported_not_propagated_silently() {
    let mut rng = StdRng::seed_from_u64(321);
    let mut a = gen::randn(&mut rng, 24, 24);
    a[(10, 3)] = f64::NAN;
    // The NaN reaches a pivot comparison within the first panel; strict
    // kernels flag it rather than produce a NaN-filled "factorization"
    // silently. (iamax treats NaN as non-maximal, so the chosen pivot is
    // finite until the NaN contaminates the column — at which point the
    // column max is NaN and getf2 errors.)
    let mut w = a.clone();
    let mut ipiv = vec![0usize; 24];
    let r = getf2(w.view_mut(), &mut ipiv, &mut NoObs);
    assert!(r.is_err(), "a NaN column maximum must be flagged");
}

#[test]
fn inf_entry_is_flagged_by_strict_kernels() {
    let mut rng = StdRng::seed_from_u64(322);
    let mut a = gen::randn(&mut rng, 16, 16);
    a[(4, 0)] = f64::INFINITY;
    let mut ipiv = vec![0usize; 16];
    let e = getf2(a.view_mut(), &mut ipiv, &mut NoObs).unwrap_err();
    assert!(matches!(e, Error::SingularPivot { step: 0 }), "{e:?}");
}

#[test]
fn getf2_info_completes_where_strict_errors() {
    let a = rank_deficient(600, 32, 5);
    let mut w1 = a.clone();
    let mut ip1 = vec![0usize; 32];
    assert!(getf2(w1.view_mut(), &mut ip1, &mut NoObs).is_err());

    let mut w2 = a.clone();
    let mut ip2 = vec![0usize; 32];
    let info = getf2_info(w2.view_mut(), &mut ip2, &mut NoObs);
    assert_eq!(info, Some(5));
    // And the completed factors agree with the strict attempt's prefix.
    assert_eq!(w1.max_abs_diff(&w2), 0.0, "both run to completion identically");
}

#[test]
fn tslu_panel_with_singular_candidates_still_elects_winners() {
    // A panel whose middle block-row is all zeros: the tournament must not
    // fail — it elects winners from the live blocks (the Wilkinson
    // regression that motivated the LAPACK-faithful info kernels).
    let mut rng = StdRng::seed_from_u64(323);
    let mut panel = gen::randn(&mut rng, 32, 4);
    for i in 8..16 {
        for j in 0..4 {
            panel[(i, j)] = 0.0;
        }
    }
    let r = tslu_factor(panel.view_mut(), 4, LocalLu::Recursive, &mut NoObs).unwrap();
    assert_eq!(r.pivot_rows.len(), 4);
    for &w in &r.pivot_rows {
        assert!(!(8..16).contains(&w), "zero rows must not win the tournament");
    }
}

#[test]
fn wilkinson_block_rows_regression() {
    // The original failure: Wilkinson's matrix makes every off-diagonal
    // block-row rank 1, so local GEPPs hit exact zero pivots mid-panel.
    // CALU must factor it and reproduce the 2^(n-1) growth.
    let n = 24;
    let a: Matrix = gen::wilkinson(n);
    for p in [2usize, 4, 8] {
        let f = calu_factor(&a, CaluOpts { block: 8, p, ..Default::default() })
            .unwrap_or_else(|e| panic!("p={p}: {e}"));
        let umax = f.lu.upper().max_abs();
        assert!(umax >= 2f64.powi(n as i32 - 1) * 0.99, "p={p}: growth {umax}");
    }
}

#[test]
fn getrf_errors_with_absolute_step_across_blocks() {
    // Singularity in a later panel must report the absolute column.
    let a = rank_deficient(700, 40, 25);
    let mut w = a.clone();
    let mut ipiv = vec![0usize; 40];
    let e =
        getrf(w.view_mut(), &mut ipiv, GetrfOpts { block: 8, ..Default::default() }, &mut NoObs)
            .unwrap_err();
    assert_eq!(e, Error::SingularPivot { step: 25 });
}

#[test]
fn distributed_dag_cancels_across_ranks_and_reports_absolute_step() {
    // A singular pivot on any rank of the distributed DAG must cancel the
    // dependent tasks of *other ranks* (no hang — they simply never
    // start) and surface `DistFactors::first_singular` at the absolute
    // elimination step, for both executors, every lookahead depth, and
    // both panel algorithms — mirroring the shared-memory runtime's
    // failure contract above.
    use calu_repro::core::dist::{dist_calu_factor_spmd, DistCaluConfig, DistPdgetrfConfig};
    use calu_repro::core::{dist_calu_factor_rt, dist_pdgetrf_factor_rt, DistRtOpts};
    use calu_repro::netsim::MachineConfig;
    let n = 32;
    for &r in &[5usize, 17] {
        let a = rank_deficient(900 + r as u64, n, r);
        let calu_cfg = DistCaluConfig { b: 8, pr: 2, pc: 2, local: LocalLu::Classic };
        let pdg_cfg = DistPdgetrfConfig { b: 8, pr: 2, pc: 2 };
        // The references fail at the same absolute step: CALU's SPMD sweep
        // records it INFO-style, the sequential blocked getrf errors there.
        let (_q, spmd_calu) = dist_calu_factor_spmd(&a, calu_cfg, MachineConfig::ideal());
        assert_eq!(spmd_calu.first_singular, Some(r));
        let (mut lu, mut ipiv) = (a.clone(), vec![0usize; n]);
        let opts = GetrfOpts { block: pdg_cfg.b, ..Default::default() };
        let seq = getrf(lu.view_mut(), &mut ipiv, opts, &mut NoObs);
        assert!(matches!(seq, Err(Error::SingularPivot { step }) if step == r), "{seq:?}");
        for lookahead in 1..=3 {
            for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 3 }] {
                let rt = DistRtOpts { lookahead, executor, ..Default::default() };
                let (rep, d) = dist_calu_factor_rt(&a, calu_cfg, rt, MachineConfig::ideal());
                assert_eq!(
                    d.first_singular,
                    Some(r),
                    "calu d={lookahead} {executor:?}: zero column {r} must surface absolutely"
                );
                // Cancellation strands payloads posted for recv tasks that
                // never ran (the TSLU panel posts its W block before the
                // failing reduction): the driver must drain them, leaving
                // an empty mailbox.
                assert!(
                    rep.comm.drained_words > 0,
                    "calu d={lookahead} {executor:?}: canceled run must have stranded payloads"
                );
                assert_eq!(
                    rep.comm.residual_words, 0,
                    "calu d={lookahead} {executor:?}: mailbox must be empty after the run"
                );
                let (rep, d) = dist_pdgetrf_factor_rt(&a, pdg_cfg, rt, MachineConfig::ideal());
                assert_eq!(
                    d.first_singular,
                    Some(r),
                    "pdgetrf d={lookahead} {executor:?}: zero column {r} must surface absolutely"
                );
                assert_eq!(
                    rep.comm.residual_words, 0,
                    "pdgetrf d={lookahead} {executor:?}: mailbox must be empty after the run"
                );
            }
        }
    }
}

#[test]
fn threaded_communicator_cancels_across_rank_threads_without_hanging() {
    // The hard version of the contract above: with `CommKind::Threaded`
    // every rank is a real OS thread blocked on real point-to-point
    // fetches, so a singular pivot on ONE rank thread must wake and
    // cancel the fetches of ALL other rank threads — the whole grid joins
    // (no hang), `first_singular` carries the absolute step, stranded
    // in-flight payloads are drained, and the residual is zero.
    use calu_repro::core::dist::{DistCaluConfig, DistPdgetrfConfig};
    use calu_repro::core::{dist_calu_factor_rt, dist_pdgetrf_factor_rt, CommKind, DistRtOpts};
    use calu_repro::netsim::MachineConfig;
    let n = 32;
    for &r in &[5usize, 17] {
        let a = rank_deficient(900 + r as u64, n, r);
        let calu_cfg = DistCaluConfig { b: 8, pr: 2, pc: 2, local: LocalLu::Classic };
        let pdg_cfg = DistPdgetrfConfig { b: 8, pr: 2, pc: 2 };
        for lookahead in 1..=3 {
            let rt =
                DistRtOpts { lookahead, communicator: CommKind::Threaded, ..Default::default() };
            let (rep, d) = dist_calu_factor_rt(&a, calu_cfg, rt, MachineConfig::ideal());
            assert_eq!(
                d.first_singular,
                Some(r),
                "threaded calu d={lookahead}: zero column {r} must surface absolutely"
            );
            assert!(
                rep.comm.drained_words > 0,
                "threaded calu d={lookahead}: canceled run must have stranded payloads"
            );
            assert_eq!(
                rep.comm.residual_words, 0,
                "threaded calu d={lookahead}: rank stashes must be empty after the run"
            );
            let (rep, d) = dist_pdgetrf_factor_rt(&a, pdg_cfg, rt, MachineConfig::ideal());
            assert_eq!(
                d.first_singular,
                Some(r),
                "threaded pdgetrf d={lookahead}: zero column {r} must surface absolutely"
            );
            assert_eq!(
                rep.comm.residual_words, 0,
                "threaded pdgetrf d={lookahead}: rank stashes must be empty after the run"
            );
        }
    }
}
