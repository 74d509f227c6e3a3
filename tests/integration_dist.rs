//! Cross-crate integration tests for the simulated-distributed layer:
//! distributed results vs sequential references, and simulated performance
//! claims (the paper's headline shapes) end to end.

use calu_repro::core::dist::{
    sim_pdgetf2_panel, sim_tslu_panel, skeleton_calu, skeleton_pdgetf2, skeleton_pdgetrf,
    skeleton_tslu, DistCaluConfig, RowSwapScheme, SkelCfg,
};
use calu_repro::core::{
    dist_calu_factor_rt, tslu_pivots, CaluOpts, DistRtOpts, LocalLu, LuFactors,
};
use calu_repro::matrix::blas3::gemm;
use calu_repro::matrix::perm::{ipiv_to_perm, permute_rows};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::MachineConfig;
use calu_repro::perfmodel::equations::{t_pdgetrf, t_tslu};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dist_tslu_elects_sequential_pivots() {
    let mut rng = StdRng::seed_from_u64(2001);
    let a: Matrix = gen::randn(&mut rng, 256, 16);
    for p in [2usize, 4, 8, 16] {
        let seq = tslu_pivots(a.view(), p, LocalLu::Recursive);
        let (_rep, d) = sim_tslu_panel(&a, p, LocalLu::Recursive, MachineConfig::power5());
        assert_eq!(d.pivot_rows, seq, "p={p}");
    }
}

#[test]
fn dist_pdgetf2_is_partial_pivoting() {
    let mut rng = StdRng::seed_from_u64(2002);
    let a: Matrix = gen::randn(&mut rng, 128, 16);
    let (_rep, d) = sim_pdgetf2_panel(&a, 8, MachineConfig::xt4());
    let mut seq = a.clone();
    let mut ipiv = vec![0usize; 16];
    calu_repro::matrix::lapack::getf2(seq.view_mut(), &mut ipiv, &mut calu_repro::matrix::NoObs)
        .unwrap();
    assert_eq!(d.ipiv, ipiv);
    assert_eq!(d.panel.max_abs_diff(&seq), 0.0);
}

#[test]
fn dist_calu_full_stack_solves() {
    let mut rng = StdRng::seed_from_u64(2003);
    let n = 128;
    let a = gen::randn(&mut rng, n, n);
    let (_rep, d) = dist_calu_factor_rt(
        &a,
        DistCaluConfig { b: 16, pr: 4, pc: 2, local: LocalLu::Recursive },
        DistRtOpts::default(),
        MachineConfig::power5(),
    );
    // Reconstruction.
    let perm = ipiv_to_perm(&d.ipiv, n);
    let pa = permute_rows(&a, &perm);
    let l = d.lu.unit_lower();
    let u = d.lu.upper();
    let mut prod = Matrix::zeros(n, n);
    gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
    assert!(pa.max_abs_diff(&prod) < 1e-9);
    // Solve.
    let f = LuFactors { lu: d.lu, ipiv: d.ipiv };
    let xt: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 1.0).collect();
    let b = gen::rhs_for_solution(&a, &xt);
    let x = f.solve(&b);
    for (xi, ti) in x.iter().zip(&xt) {
        assert!((xi - ti).abs() < 1e-8);
    }
}

#[test]
fn dist_calu_matches_sequential_when_layout_is_contiguous() {
    // With pr=1 the panel is on one rank: pivots equal sequential CALU's
    // with p=1 (both are partial pivoting).
    let mut rng = StdRng::seed_from_u64(2004);
    let a: Matrix = gen::randn(&mut rng, 64, 64);
    let (_rep, d) = dist_calu_factor_rt(
        &a,
        DistCaluConfig { b: 16, pr: 1, pc: 4, local: LocalLu::Classic },
        DistRtOpts::default(),
        MachineConfig::ideal(),
    );
    let f = calu_repro::core::calu_factor(
        &a,
        CaluOpts { block: 16, p: 1, local: LocalLu::Classic, ..Default::default() },
    )
    .unwrap();
    assert_eq!(d.ipiv, f.ipiv);
    assert!(d.lu.max_abs_diff(&f.lu) < 1e-10);
}

#[test]
fn paper_headline_panel_shape_holds_on_both_machines() {
    // Table 3/4 shape: TSLU >= PDGETF2 everywhere it's valid, with the
    // largest wins on big panels (Rec) and small-matrix/many-proc cells.
    for mch in [MachineConfig::power5(), MachineConfig::xt4()] {
        let big = skeleton_pdgetf2(1_000_000, 150, 16, mch.clone()).makespan()
            / skeleton_tslu(1_000_000, 150, 16, LocalLu::Recursive, mch.clone()).makespan();
        let small = skeleton_pdgetf2(1_000, 50, 16, mch.clone()).makespan()
            / skeleton_tslu(1_000, 50, 16, LocalLu::Classic, mch.clone()).makespan();
        assert!(big > 2.0, "{}: big-panel ratio {big}", mch.name);
        assert!(small > 1.2, "{}: small-panel ratio {small}", mch.name);
    }
}

#[test]
fn paper_headline_full_factorization_shape() {
    // Table 5 shape on POWER5: improvement largest for m=10^3 at P=64,
    // shrinking toward 1 for m=10^4 at P=4.
    let mch = MachineConfig::power5();
    let cell = |m: usize, b: usize, pr: usize, pc: usize| {
        let cfg = SkelCfg {
            m,
            n: m,
            b,
            pr,
            pc,
            local: LocalLu::Recursive,
            swap: RowSwapScheme::ReduceBcast,
        };
        let pdg = SkelCfg { local: LocalLu::Classic, swap: RowSwapScheme::PdLaswp, ..cfg };
        skeleton_pdgetrf(pdg, mch.clone()).makespan() / skeleton_calu(cfg, mch.clone()).makespan()
    };
    let small_64 = cell(1_000, 50, 8, 8);
    let large_4 = cell(10_000, 50, 2, 2);
    assert!(small_64 > 1.5, "m=1e3 P=64: {small_64}");
    assert!((0.9..1.4).contains(&large_4), "m=1e4 P=4: {large_4}");
    assert!(small_64 > large_4);
}

#[test]
fn closed_forms_track_simulator() {
    // Eq (1) uses a single flop rate and counts the tournament combines as
    // 2b^3/3 flops per level, where the actual 2b x b GEPP costs 10b^3/3
    // flops at BLAS-2 rate — so on combine-dominated cells (small m, large
    // P) the simulator is up to ~6x above the closed form, and on
    // compute-dominated cells they agree closely. Both regimes asserted;
    // the gap itself is a documented deviation (EXPERIMENTS.md).
    let mch = MachineConfig::power5();
    for &(m, b, p, lo, hi) in &[
        (10_000usize, 50usize, 4usize, 0.4, 3.0),
        (100_000, 100, 16, 0.4, 3.0),
        (1_000, 50, 16, 1.0, 8.0), // combine-dominated: sim above eq
    ] {
        let sim = skeleton_tslu(m, b, p, LocalLu::Recursive, mch.clone()).makespan();
        let eq = t_tslu(&mch, m, b, p).total();
        let ratio = sim / eq;
        assert!((lo..hi).contains(&ratio), "m={m} b={b} p={p}: sim/eq {ratio}");
    }
    // PDGETRF closed form vs skeleton on a mid cell.
    let cfg = SkelCfg {
        m: 5_000,
        n: 5_000,
        b: 100,
        pr: 4,
        pc: 8,
        local: LocalLu::Classic,
        swap: RowSwapScheme::PdLaswp,
    };
    let sim = skeleton_pdgetrf(cfg, mch.clone()).makespan();
    let eq = t_pdgetrf(&mch, 5_000, 5_000, 100, 4, 8).total();
    let ratio = sim / eq;
    assert!((0.3..3.0).contains(&ratio), "pdgetrf sim/eq {ratio}");
}

#[test]
fn dist_dag_critical_path_cross_checks_the_lookahead_skeleton() {
    // Dedupe check between the two independent cost models of distributed
    // lookahead: the closed-form `skeleton_calu_lookahead` (deferred-bulk
    // simulation over netsim ranks) and the per-task `DistCostModel` over
    // the distributed DAG. Three relations must hold, else the models
    // have diverged:
    //
    //  1. the DAG's critical path (infinite-parallelism bound) at any
    //     depth is at or below the skeleton's modeled time;
    //  2. the DAG's per-rank modeled schedule at depth 1 agrees with the
    //     depth-1 skeleton within a documented ±25% tolerance (measured
    //     agreement is within ~13% on these cells);
    //  3. depth 2 never slows the modeled rank schedule.
    use calu_repro::core::dist::skeleton_calu_lookahead;
    use calu_repro::runtime::{
        simulate_dist_schedule, DistCostModel, DistGeom, DistPanelAlg, LuDag, LuShape,
    };
    let mch = MachineConfig::power5();
    for &(m, b, pr, pc) in &[(2000usize, 50usize, 2usize, 2usize), (2000, 50, 4, 4)] {
        let skel = skeleton_calu_lookahead(
            SkelCfg {
                m,
                n: m,
                b,
                pr,
                pc,
                local: LocalLu::Recursive,
                swap: RowSwapScheme::ReduceBcast,
            },
            mch.clone(),
        )
        .makespan();
        let shape = LuShape { m, n: m, nb: b };
        let model = DistCostModel {
            geom: DistGeom { shape, pr, pc },
            alg: DistPanelAlg::Tslu,
            recursive_panel: true,
            mch: mch.clone(),
        };
        let mut mk = Vec::new();
        for d in 1..=3usize {
            let dag = LuDag::build_dist(shape, (pr, pc), d);
            let cp = dag.critical_path(|t| model.cost(t).total(&mch));
            assert!(
                cp <= skel * 1.001,
                "{pr}x{pc} d={d}: DAG critical path {cp} exceeds skeleton {skel}"
            );
            mk.push(simulate_dist_schedule(&dag, |t| model.cost(t), &mch).makespan);
        }
        let ratio = mk[0] / skel;
        assert!(
            (0.75..1.25).contains(&ratio),
            "{pr}x{pc}: depth-1 rank schedule {} vs skeleton {skel} diverged (ratio {ratio})",
            mk[0]
        );
        assert!(mk[1] <= mk[0] * 1.001, "{pr}x{pc}: depth 2 must not slow the modeled schedule");
    }
}
