//! Serving tour: register a matrix with [`SolverService`], submit a burst
//! of right-hand sides, let one `process` pass coalesce them into batched
//! blocked solves, and watch the factor cache amortize the O(n³) work
//! across requests.
//!
//! Run: `cargo run --release --example serve`

use calu_repro::core::{CaluOpts, ServeOpts, SolverService};
use calu_repro::matrix::gen;
use calu_repro::stability::backward_error_inf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(2008);
    let a = gen::diag_dominant(&mut rng, n);

    let opts = ServeOpts {
        max_batch: 16,
        calu: CaluOpts { block: 32, p: 4, ..Default::default() },
        ..Default::default()
    };
    let mut svc: SolverService = SolverService::new(opts);
    let key = svc.register(42, a.clone());
    println!("registered {n}x{n} system as id=42 (generation {})", key.generation);

    // A burst of requests against the same matrix...
    let rhs: Vec<Vec<f64>> = (0..24)
        .map(|_| {
            let col = gen::randn(&mut rng, n, 1);
            col.col(0).to_vec()
        })
        .collect();
    let tickets: Vec<_> =
        rhs.iter().map(|b| svc.submit(42, b.clone()).expect("queue has room")).collect();
    println!("submitted {} requests, queue depth {}", tickets.len(), svc.queued());

    // ...all served by ONE factorization and two batched solve passes.
    let rep = svc.process();
    println!(
        "process: {} completed in {} batched solves, {} factorization(s)",
        rep.completed, rep.batches, rep.factored
    );

    let mut worst = 0.0_f64;
    for (t, b) in tickets.into_iter().zip(&rhs) {
        let x = svc.try_take(t).expect("processed").expect("diag-dominant is nonsingular");
        worst = worst.max(backward_error_inf(&a, &x, b));
    }
    println!("worst backward error across the burst: {worst:.3e}");

    // The next burst is pure cache hits: no factorization at all.
    let t = svc.submit(42, rhs[0].clone()).expect("queue has room");
    let rep = svc.process();
    svc.try_take(t).expect("processed").expect("nonsingular");
    let stats = svc.cache_stats();
    println!(
        "second pass: factored={} — cache {} hits / {} misses, {} entries ({} bytes)",
        rep.factored, stats.hits, stats.misses, stats.entries, stats.bytes
    );

    // With room for one factorization, a matrix asked for once does not
    // displace the one asked for twice: its factors serve the request and
    // are dropped (a bypass).
    let budget = ServeOpts { cache_capacity_bytes: stats.bytes, ..opts };
    let mut tight: SolverService = SolverService::new(budget);
    tight.register(1, a.clone());
    tight.register(2, gen::diag_dominant(&mut rng, n));
    for id in [1, 1, 2] {
        let t = tight.submit(id, rhs[0].clone()).expect("queue has room");
        tight.process();
        tight.try_take(t).expect("processed").expect("nonsingular");
    }
    let snapshot = tight.metrics_snapshot();
    let counter = |name: &str| {
        snapshot.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    println!(
        "one-entry budget, requests to ids 1, 1, 2: serve.cache.hits={} serve.cache.bypassed={} serve.cache.evictions={}",
        counter("serve.cache.hits"),
        counter("serve.cache.bypassed"),
        counter("serve.cache.evictions")
    );

    // Re-registering bumps the generation and invalidates the cache entry.
    let key2 = svc.register(42, a);
    println!("re-registered id=42: generation {} -> {}", key.generation, key2.generation);
    println!("entries after invalidation: {}", svc.cache_stats().entries);
}
