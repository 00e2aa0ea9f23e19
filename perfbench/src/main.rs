//! End-to-end and per-layer benchmark of the rolediet library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload realorg --seed 7 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run times the library's public end-to-end calls
//! and reports the end-to-end metrics; with `--trace 1` it runs the same
//! calls stage by stage under spans and reports the per-layer metrics
//! (see `perfbench/README.md`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod bench;
mod stages;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use bench::{median, peak_rss_mb, quantile, Args, Bench, END_TO_END, LAYERS};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: 1.0,
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|e| bad(&e))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                trace = true;
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || !seed || !seconds || !trace {
        return Err("usage: --workload NAME --seed N --seconds S --trace 0|1 [--scale F]".into());
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {}", args.scale));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
    else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut b = Bench::new(args);
    (workload.run)(&mut b);
    let rss = match peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sample = |name: &str| median(b.samples.get(name).map_or(&[][..], Vec::as_slice));

    println!(
        "workload {} seed {} threads {} scale {} trace {}",
        b.args.workload,
        b.args.seed,
        bench::THREADS,
        b.args.scale,
        u8::from(b.trace())
    );
    for line in &b.info {
        println!("{line}");
    }
    let setup_s = sample("setup");
    println!(
        "metric setup_s {setup_s} s n={}",
        b.samples.get("setup").map_or(0, Vec::len)
    );
    println!("metric peak_rss_mb {rss} MB n=1");
    if let Some(before) = b.rss_before_loop {
        println!(
            "rss before_loop_mb={before} peak_mb={rss} loop_sets_peak={}",
            rss > before
        );
    }
    if !b.trace() {
        for (kind, v) in &b.samples {
            println!(
                "samples {kind} n={} min={} p25={} median={} max={}",
                v.len(),
                quantile(v, 0.0),
                quantile(v, 0.25),
                median(v),
                quantile(v, 1.0)
            );
        }
    }
    let ops_failed = b.failed as f64 / b.attempted.max(1) as f64;
    println!("metric ops_failed {ops_failed} ratio n={}", b.attempted);

    let metrics: Vec<(&str, f64, &str)> = if b.trace() {
        report_trace(&b);
        LAYERS
            .iter()
            .map(|&(name, unit, _)| (name, sample(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "detect_s" => sample("detect"),
                    "op_s" => sample(workload.op),
                    "setup_s" => setup_s,
                    "peak_rss_mb" => rss,
                    _ => unreachable!("every end-to-end metric is computed above"),
                };
                (name, value, unit)
            })
            .collect()
    };
    for e in &b.errors {
        eprintln!("check failed: {e}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        b.failed == 0 && b.errors.is_empty(),
        b.attempted,
        b.failed
    );
    ExitCode::SUCCESS
}

/// Prints the traced run's layer self times and, per operation kind,
/// the share of its time covered by layer spans and the tracing
/// overhead; writes the spans out.
fn report_trace(b: &Bench) {
    for (kind, times) in &b.overhead {
        let (t, p) = (median(&times.traced), median(&times.untraced));
        let overhead = if p > 0.0 {
            format!("{:.2}%", (t / p - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        println!(
            "op {kind} n={} traced_s={t} untraced_s={p} overhead={overhead} covered={:.2}%",
            times.traced.len(),
            median(&times.covered) * 100.0
        );
    }
    for (name, ms) in &b.self_ms {
        println!("self {name} {ms:.3} ms");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", b.args.workload, b.args.seed));
    match b.rec.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}
