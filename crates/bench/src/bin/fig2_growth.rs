//! Figure 2 regenerator: growth factor `gT` (left panel) and minimum pivot
//! threshold `τ_min` (right panel) for ca-pivoting on random normal
//! matrices, versus the Trefethen-Schreiber reference curves `n^(2/3)` and
//! `2 n^(2/3)` and a GEPP control. Two samples per point, as in the paper.
//!
//! Usage: `fig2_growth [--full] [--csv]`

use calu_bench::{f2, Cli, Table};
use calu_core::{calu_inplace, gepp_inplace, CaluOpts, PivotStats};
use calu_matrix::gen;
use calu_stability::growth::growth_reference;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse();
    let ns: Vec<usize> = if cli.full { vec![1024, 2048, 4096, 8192] } else { vec![256, 512, 1024] };
    // (P, b) legend entries; the reduced sweep scales them down with n.
    let configs: Vec<(usize, usize)> = if cli.full {
        vec![(256, 32), (128, 64), (128, 32), (64, 128), (64, 32), (64, 16)]
    } else {
        vec![(32, 16), (16, 32), (16, 16), (8, 32)]
    };
    let samples = 2;

    let mut t = Table::new(&[
        "n",
        "P",
        "b",
        "gT(ca-piv)",
        "tau_min",
        "tau_ave",
        "max|L|",
        "gT(GEPP)",
        "n^(2/3)",
        "2n^(2/3)",
    ]);
    for &n in &ns {
        // GEPP control once per n.
        let mut g_gepp = 0.0;
        for s in 0..samples {
            let mut rng = StdRng::seed_from_u64(0xF160 + s);
            let a = gen::randn(&mut rng, n, n);
            let mut stats = PivotStats::new(a.max_abs());
            let mut w = a.clone();
            gepp_inplace(w.view_mut(), 64.min(n / 4).max(1), &mut stats).unwrap();
            g_gepp += stats.growth_factor(1.0);
        }
        g_gepp /= samples as f64;

        for &(p, b) in &configs {
            if n / p == 0 || b >= n {
                continue;
            }
            let (mut g, mut tmin, mut tave, mut ml) = (0.0, f64::INFINITY, 0.0, 0.0_f64);
            for s in 0..samples {
                let mut rng = StdRng::seed_from_u64(0xF162 + s);
                let a = gen::randn(&mut rng, n, n);
                let mut stats = PivotStats::new(a.max_abs());
                let mut w = a.clone();
                calu_inplace(
                    w.view_mut(),
                    CaluOpts { block: b, p, ..Default::default() },
                    &mut stats,
                )
                .unwrap();
                g += stats.growth_factor(1.0);
                tmin = tmin.min(stats.tau_min());
                tave += stats.tau_ave();
                ml = ml.max(stats.max_l);
            }
            g /= samples as f64;
            tave /= samples as f64;
            t.row(vec![
                n.to_string(),
                p.to_string(),
                b.to_string(),
                f2(g),
                f2(tmin),
                f2(tave),
                f2(ml),
                f2(g_gepp),
                f2(growth_reference(n, 1.0)),
                f2(growth_reference(n, 2.0)),
            ]);
        }
    }
    println!("# Figure 2: growth factor and minimum threshold (randn, ca-pivoting)");
    println!("# paper: gT ~ c*n^(2/3) with c ~ 1.5, tau_min >= 0.33 (i.e. |L| <= 3)\n");
    t.print(cli.csv);
}
