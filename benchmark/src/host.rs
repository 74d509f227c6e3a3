//! What the benchmark knows about the machine it runs on: the fingerprint
//! printed with every result, the two roofline numbers (multiply-add rate
//! and sustained memory bandwidth of one thread), and the process's peak
//! resident set.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Triad arrays are at least this large, and at least four times the
/// reported L2, so that the bandwidth is memory's and not a cache's.
const TRIAD_MIN_BYTES: usize = 64 << 20;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Cache sizes the kernel reports for cpu0, as `(label, bytes)` — for
/// example `("L2 Unified", 2097152)`.
pub fn cache_sizes() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().map(|v| v << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().map(|v| v << 20),
                None => size.parse::<usize>(),
            },
        };
        if let Ok(bytes) = bytes {
            out.push((format!("L{level} {kind}"), bytes));
        }
    }
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out above this package, read from `.git` directly;
/// `"none"` in an exported tree.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Some(head) = read_trimmed(&format!("{git}/HEAD")) else {
        return "none".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            read_trimmed(&format!("{git}/{reference}")).unwrap_or_else(|| reference.to_string())
        }
        None => head,
    }
}

/// One line describing the host, printed before every result.
pub fn fingerprint() -> String {
    let caches: Vec<String> =
        cache_sizes().iter().map(|(label, bytes)| format!("{label} {} KiB", bytes >> 10)).collect();
    format!(
        "host: nproc={} cpu=\"{}\" caches=[{}] rustc=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        caches.join(", "),
        rustc_version(),
        git_commit()
    )
}

/// Multiply-add rate of one thread in GFLOP/s, as the compiler vectorizes
/// it for the build's target features: 64 independent chains of
/// `x = x * a + b`, enough to hide the latency of either unit. It is the
/// ceiling for kernels built the same way, not the chip's AVX peak.
pub fn peak_gflops() -> f64 {
    const CHAINS: usize = 64;
    const ITERS: usize = 2_000_000;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let (a, b) = (black_box(0.999_999_f64), black_box(1e-6_f64));
            let mut acc = [1.0_f64; CHAINS];
            let t = Instant::now();
            for _ in 0..ITERS {
                for x in &mut acc {
                    *x = *x * a + b;
                }
            }
            let secs = t.elapsed().as_secs_f64();
            black_box(acc);
            (2 * CHAINS * ITERS) as f64 / secs / 1e9
        })
        .collect();
    median(&rates)
}

/// Bytes of each triad array on this host.
pub fn triad_array_bytes() -> usize {
    let l2 = cache_sizes()
        .iter()
        .filter(|(l, _)| l.starts_with("L2"))
        .map(|(_, b)| *b)
        .max()
        .unwrap_or(0);
    TRIAD_MIN_BYTES.max(4 * l2)
}

/// Sustained bandwidth of one thread in GB/s on `a[i] = b[i] + s * c[i]`.
/// Bytes are computed from the array sizes (two reads and one write per
/// element); the write-allocate traffic is not counted.
pub fn triad_gbs() -> f64 {
    let n = triad_array_bytes() / 8;
    let mut a = vec![0.0_f64; n];
    let b = vec![1.0_f64; n];
    let c = vec![2.0_f64; n];
    let s = black_box(3.0_f64);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + s * *z;
            }
            let secs = t.elapsed().as_secs_f64();
            black_box(&a);
            (3 * 8 * n) as f64 / secs / 1e9
        })
        .collect();
    median(&rates)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
