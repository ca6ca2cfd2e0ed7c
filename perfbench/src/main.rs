//! The repository's benchmark: four seeded workloads over the public
//! APIs of the archive stack, each checked for correct outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|serve|repair|frontier> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones every workload reports
//! (set-up time, median latency of the workload's operation, work done
//! per second, peak RSS); the lines above it give the workload's own
//! metrics and its p99 latency. The p99 is reported but not in the JSON's
//! end-to-end set: on a small shared host its run-to-run spread is wider
//! than any bound a change could be held to. With `--trace 1` the run makes an untraced pass and then a
//! traced pass with the layer probes installed, checks both produced the
//! same outputs, and reports the per-layer metrics, the attribution of op
//! time to layers and the tracing overhead. Any failed check makes the
//! result `"correct": false` and the exit code 1.

mod common;
mod frontier;
mod ingest;
mod layers;
mod probe;
mod repair;
mod serve;
mod trace;

use common::{fnv, Outcome};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["ingest", "serve", "repair", "frontier"];

/// The end-to-end metrics of an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_MB", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <ingest|serve|repair|frontier> is required")?,
        seed: seed.ok_or("--seed <n> is required")?,
        seconds: seconds.ok_or("--seconds <1..600> is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Outcome {
    let secs = args.seconds as f64;
    match args.workload.as_str() {
        "ingest" => ingest::run(args.seed, secs, ingest::Scale::BENCH),
        "serve" => serve::run(args.seed, secs, serve::Scale::BENCH),
        "repair" => repair::run(args.seed, secs, repair::Scale::BENCH),
        "frontier" => frontier::run(args.seed, secs, frontier::Scale::BENCH),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Digest of the library sources the binary was run against (the
/// benchmark also runs from checkouts that are not git repositories).
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let h = files.iter().fold(common::FNV_OFFSET, |h, p| {
        let h = fnv(h, p.to_string_lossy().as_bytes());
        fnv(h, &std::fs::read(p).unwrap_or_default())
    });
    format!("{h:016x}")
}

/// The checkout's git revision, or "none" outside a git checkout (git is
/// not asked to search the directories above this one).
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn host_line() -> String {
    format!(
        "host cores={} kernel={} rustc=\"{}\" git={} src={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ae_kernels::kernel_name(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        source_digest(),
    )
}

/// GB/s of `f` over 4 KiB buffers, timed for about 50 ms per batch and
/// reported as the median of five batches.
fn kernel_gbps(mut f: impl FnMut()) -> f64 {
    const BYTES: f64 = 4096.0;
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut n = 0u64;
        while t0.elapsed().as_millis() < 50 {
            for _ in 0..256 {
                f();
            }
            n += 256;
        }
        per_call.push(t0.elapsed().as_secs_f64() / n as f64);
    }
    BYTES / common::median(&per_call) / 1e9
}

fn measure_kernels() -> layers::Kernels {
    let src: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
    let mut dst = vec![0u8; 4096];
    let xor = kernel_gbps(|| ae_kernels::xor_into(black_box(&mut dst), black_box(&src)));
    let gf_mul_acc = kernel_gbps(|| {
        ae_kernels::mul_slice_acc(black_box(0x53), black_box(&src), black_box(&mut dst))
    });
    let mut state = 0u32;
    let crc32 = kernel_gbps(|| state = ae_kernels::crc32_update(black_box(state), black_box(&src)));
    black_box((&dst, state));
    layers::Kernels {
        xor,
        gf_mul_acc,
        crc32,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(out: &Outcome, metrics: &[(String, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|serve|repair|frontier> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ directory here)");
        return ExitCode::from(2);
    }
    // The benchmark measures the defaults: the tuning knobs the library
    // reads from the environment are cleared before anything reads them.
    for var in ["AE_REPAIR_THREADS", "AE_AIO_WINDOW", "AE_KERNEL"] {
        if std::env::var_os(var).is_some() {
            println!("# {var} is set; ignored, the defaults are measured");
            std::env::remove_var(var);
        }
    }
    println!("# {}", host_line());
    let mut out = run(&args);
    let metrics: Vec<(String, &str, f64)> = if !args.trace {
        for (n, u, v) in &out.named {
            println!("# {} {n} = {v} {u}", args.workload);
        }
        println!(
            "# {} op_p99_ms = {} ms ({} op samples), digest = {:016x}",
            args.workload, out.e2e.op_p99_ms, out.samples, out.digest
        );
        let e = out.e2e;
        let values = [e.setup_s, e.op_p50_ms, e.work_per_s, peak_rss_mb()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), u, v))
            .collect()
    } else {
        let kernels = measure_kernels();
        trace::enable();
        let mut traced = run(&args);
        let snap = trace::snapshot();
        let (t, u) = (traced.digest, out.digest);
        if t != u {
            traced.fail(format_args!(
                "traced outputs differ from untraced: digest {t:016x} vs {u:016x}"
            ));
        }
        traced.failed += out.failed;
        traced.attempted += out.attempted;
        println!(
            "# {} digest = {:016x} (traced and untraced)",
            args.workload, traced.digest
        );
        for line in layers::attribution(&snap).iter().chain(&traced.attribution) {
            println!("# attribution {} {line}", args.workload);
        }
        let metrics = layers::compute(&snap, &traced, &out, &kernels);
        for (n, u, v) in &metrics {
            if n.starts_with("trace.") {
                println!("# {} {n} = {v} {u}", args.workload);
            }
        }
        out = traced;
        metrics
    };
    print_result(&out, &metrics);
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The layer probes forward every call unchanged: a small seeded run
    /// of each workload leaves the same outputs (backend contents, or the
    /// sweep CSV) with and without them. One test, because tracing is
    /// switched on process-wide.
    #[test]
    fn probes_leave_outputs_unchanged() {
        let runs = |seed| {
            [
                ingest::run(
                    seed,
                    0.0,
                    ingest::Scale {
                        user_bytes: 2 << 20,
                        file_min: 4 << 10,
                        file_max: 64 << 10,
                    },
                ),
                serve::run(
                    seed,
                    0.25,
                    serve::Scale {
                        corpus_files: 200,
                        payload: (1 << 10, 16 << 10),
                        rate: 800,
                        slo: Duration::from_millis(25),
                    },
                ),
                repair::run(
                    seed,
                    0.0,
                    repair::Scale {
                        files: 4,
                        file_bytes: (4 << 10, 16 << 10),
                    },
                ),
                frontier::run(seed, 0.0, frontier::Scale { data_blocks: 4_000 }),
            ]
        };
        let plain = runs(7);
        trace::enable();
        let traced = runs(7);
        for (p, t) in plain.iter().zip(&traced) {
            assert_eq!(p.failed, 0);
            assert_eq!(t.failed, 0);
            assert_eq!(p.digest, t.digest);
        }
        let names = layers::names();
        let snap = trace::snapshot();
        let k = layers::Kernels {
            xor: 1.0,
            gf_mul_acc: 1.0,
            crc32: 1.0,
        };
        for (p, t) in plain.iter().zip(&traced) {
            let m = layers::compute(&snap, t, p, &k);
            assert_eq!(m.len(), names.len());
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String, String)> = layers::names()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(section("per_layer"), per_layer);
        let e2e: Vec<(String, String)> = section("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let printed: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, printed);
    }
}
