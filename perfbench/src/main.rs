//! `perfbench` — one benchmark for the whole system.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! `serve-wide`, `serve-narrow`, `train-paper`, `refresh-masked`.
//!
//! With `--trace 0` a run measures the end-to-end metrics with no
//! probes in the way; with `--trace 1` it re-runs the workload's
//! measured phase with spans around calls into each crate and prints
//! the per-layer breakdown. Either way the last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
mod openloop;
mod outcome;
mod refresh;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use outcome::Outcome;
use trace::LayerValues;

/// End-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("serve_p50_ms", "ms"),
    ("export_swap_ms", "ms"),
    ("work_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit, end-to-end metric
/// it should move)`. A workload that bypasses a layer reports `0`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("models.finish_ns_per_pair", "ns", "work_ms, serve_p99_ms"),
    ("models.item_half_block_ms", "ms", "work_ms, serve_p99_ms"),
    ("models.user_half_us", "us", "work_ms, serve_p99_ms"),
    ("metrics.topk_us", "us", "serve_p99_ms"),
    ("serve.recommend_batch_p50_us", "us", "serve_p50_ms"),
    ("serve.recommend_batch_p99_us", "us", "serve_p99_ms"),
    ("serve.artifact_load_ms", "ms", "setup_s"),
    ("serve.build_ms", "ms", "setup_s"),
    ("serve.cached_user_records", "count", "serve_p99_ms"),
    ("serve.cached_item_half_panels", "count", "serve_p99_ms"),
    ("net.ping_rtt_us", "us", "serve_p50_ms"),
    ("net.frame_encode_ns", "ns", "serve_p50_ms, work_ms"),
    ("net.frame_decode_ns", "ns", "serve_p50_ms, work_ms"),
    ("net.wire_bytes_per_req", "bytes", "work_ms"),
    ("net.stack_p50_us", "us", "serve_p50_ms"),
    ("net.reload_ms", "ms", "export_swap_ms"),
    ("core.step_ms", "ms", "work_ms"),
    ("core.train_client_ms", "ms", "work_ms"),
    ("core.ddr_ms", "ms", "work_ms"),
    ("core.distill_ms", "ms", "work_ms"),
    ("core.apply_round_ms", "ms", "work_ms"),
    ("core.evaluate_ms", "ms", "work_ms"),
    ("core.checkpoint_ms", "ms", "work_ms"),
    ("core.checkpoint_bytes", "bytes", "work_ms"),
    ("core.export_ms", "ms", "export_swap_ms"),
    ("fedsim.upload_bytes_per_round", "bytes", "work_ms"),
    ("fedsim.download_bytes_per_round", "bytes", "work_ms"),
    ("secagg.mask_ms", "ms", "work_ms"),
    ("secagg.recovery_ms", "ms", "work_ms"),
    ("secagg.masked_bytes", "bytes", "work_ms"),
    ("secagg.setup_bytes", "bytes", "work_ms"),
    ("secagg.groups", "count", "work_ms"),
    ("secagg.lost_groups", "count", "fail_ratio"),
    ("pipeline.cycle_ms", "ms", "work_ms"),
    ("pipeline.ingested_events", "count", "work_ms"),
    ("pipeline.version_lag", "count", "export_swap_ms"),
    (
        "driver.late_p99_ms",
        "ms",
        "none: a large value invalidates the run",
    ),
    (
        "trace.coverage",
        "1",
        "none: share of the end-to-end number the spans explain",
    ),
    (
        "trace.overhead_pct",
        "%",
        "none: traced minus untraced end-to-end number",
    ),
];

/// The run's parameters, as given on the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// The machine's parallelism, read once before any thread is pinned
    /// (the count follows the calling thread's CPU mask).
    pub fn nproc() -> usize {
        static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *NPROC.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// What a workload returns: its outcome so far (checks, accounting,
/// nothing printed as metrics yet) plus its measured values.
pub struct Measured {
    pub outcome: Outcome,
    /// End-to-end values by name (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values (traced runs).
    pub layers: LayerValues,
}

const WORKLOADS: [&str; 4] = [
    "serve-wide",
    "serve-narrow",
    "train-paper",
    "refresh-masked",
];

const USAGE: &str =
    "usage: perfbench --workload serve-wide|serve-narrow|train-paper|refresh-masked|all \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// A result line's metrics: name, value, unit.
type Metrics = Vec<(String, f64, String)>;

/// `--workload all`: runs every workload as its own process, one after
/// another, and prints their metrics side by side.
fn run_all(ctx: &Ctx) -> ! {
    let exe = std::env::current_exe().expect("own executable path");
    let mut table: Vec<(&str, Result<Metrics, String>)> = Vec::new();
    for workload in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        table.push((
            workload,
            parse_result(last)
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("failed ({})", out.status)),
        ));
    }
    println!(
        "\nsummary (seed {}, {} s per workload):",
        ctx.seed, ctx.seconds
    );
    let mut ok = true;
    for (workload, result) in &table {
        match result {
            Ok(metrics) => {
                for (name, value, unit) in metrics {
                    println!("  {workload:<15} {name:<32} {value:>16.6} {unit}");
                }
            }
            Err(why) => {
                ok = false;
                println!("  {workload:<15} {why}");
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// The metrics of a result line, if it is one and says `correct`.
fn parse_result(line: &str) -> Option<Metrics> {
    let doc = hf_tensor::ser::parse_json(line).ok()?;
    if !doc.get("correct").ok()?.as_bool().ok()? {
        return None;
    }
    let metrics = doc.get("metrics").ok()?;
    let hf_tensor::ser::JsonValue::Obj(fields) = metrics else {
        return None;
    };
    fields
        .iter()
        .map(|(name, m)| {
            Some((
                name.to_string(),
                m.get("value").ok()?.as_f64().ok()?,
                m.get("unit").ok()?.as_str().ok()?.to_string(),
            ))
        })
        .collect()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if ctx.seconds.is_nan() || ctx.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() {
    let (workload, ctx) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "perfbench: workload {workload} seed {} seconds {} trace {} | nproc {} | profile {} | \
         source {} | load: 1 connection, 2 driver threads",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        Ctx::nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        sys::source_revision(),
    );
    if workload == "all" {
        run_all(&ctx);
    }
    let result = match workload.as_str() {
        "serve-wide" => serve::run(&ctx, &serve::WIDE),
        "serve-narrow" => serve::run(&ctx, &serve::NARROW),
        "train-paper" => train::run(&ctx),
        "refresh-masked" => refresh::run(&ctx),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let measured = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {workload} failed: {e}");
        std::process::exit(1);
    });
    let mut outcome = measured.outcome;
    if ctx.trace {
        for &(name, unit, moves) in PER_LAYER {
            let value = measured.layers.get(name).unwrap_or(0.0);
            println!("layer {name} = {value} {unit}  (should move: {moves})");
            outcome.metric(name, value, unit);
        }
    } else {
        for &(name, unit) in END_TO_END {
            match measured.e2e.iter().find(|(n, _)| *n == name) {
                Some(&(_, value)) => outcome.metric(name, value, unit),
                None => outcome.check(format!("reports {name}"), Err("metric missing".into())),
            }
        }
    }
    outcome.print_accounting();
    println!("{}", outcome.json_line());
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the ones `BENCHMARK.json` declares must
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let doc = hf_tensor::ser::parse_json(&json).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
    }
}
