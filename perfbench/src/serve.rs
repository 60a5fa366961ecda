//! `serve-wide` and `serve-narrow`: the real `hf-serve` binary over a
//! synthetic artifact, driven socket to socket by the open-loop driver.

use crate::layers::{self, load_and_build, K};
use crate::openloop::{run_phase, PhaseOpts, PhaseReport, Schedule, UserMix};
use crate::outcome::Outcome;
use crate::stats::{median_of, Samples};
use crate::sys::{self, ServerProcess, WorkDir};
use crate::trace::{print_overhead, timed, Breakdown, LayerValues};
use crate::{Ctx, Measured};
use hetefedrec_core::TierDims;
use hf_dataset::SyntheticProfile;
use hf_net::{verify_exchanges, Client};
use hf_serve::{ItemHalfMode, LazyConfig, ModelArtifact, Recommender, RecommenderBuilder};
use std::path::Path;
use std::time::Duration;

/// One serving workload's shape.
pub struct ServeSpec {
    pub name: &'static str,
    pub users: usize,
    pub items: usize,
    /// Open with `--lazy` (sharded user LRU, tiled item halves).
    pub lazy: bool,
    pub window_us: u64,
    /// The nominal open-loop rate `serve_p50_ms` / `serve_p99_ms` are
    /// taken at.
    pub nominal_qps: f64,
    /// The fixed rate ladder `serve_slo_qps` is read from.
    pub ladder: &'static [f64],
    /// The p99 limit a ladder rung must meet.
    pub p99_limit_ms: f64,
}

pub const WIDE: ServeSpec = ServeSpec {
    name: "serve-wide",
    users: 2_000,
    items: 20_000,
    lazy: false,
    window_us: 500,
    nominal_qps: 200.0,
    ladder: &[150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0],
    p99_limit_ms: 25.0,
};

pub const NARROW: ServeSpec = ServeSpec {
    name: "serve-narrow",
    users: 200_000,
    items: 100,
    lazy: true,
    window_us: 0,
    nominal_qps: 8_000.0,
    ladder: &[
        4_000.0, 8_000.0, 12_000.0, 16_000.0, 20_000.0, 24_000.0, 28_000.0, 32_000.0,
    ],
    p99_limit_ms: 5.0,
};

/// Tier widths of the synthetic artifacts.
const DIMS: [usize; 3] = [4, 8, 16];
/// Share of requests for unknown (cold-start) user ids.
const COLD_FRAC: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median. Six run at the start and
/// five at the end, so the median spans the run's conditions.
const SETUPS: usize = 11;
/// Export + reload cycles after each latency chunk; `export_swap_ms` is
/// the median over the run.
const SWAPS: usize = 4;
/// Answered requests a latency phase needs (ten beyond p99).
const MIN_SAMPLES: usize = 1_000;
/// Exchanges replayed in-process for the bit-identity check.
const VERIFY_SAMPLES: usize = 400;

fn mix(spec: &ServeSpec) -> UserMix {
    UserMix {
        users: spec.users as u64,
        cold_frac: COLD_FRAC,
    }
}

fn server_args(spec: &ServeSpec, artifact: &Path) -> Vec<String> {
    let mut args = vec![
        "--artifact".to_string(),
        artifact.display().to_string(),
        "--k".to_string(),
        K.to_string(),
        "--batch-window-us".to_string(),
        spec.window_us.to_string(),
    ];
    if spec.lazy {
        args.push("--lazy".to_string());
    }
    args
}

/// Opens the artifact the way `hf-serve` does under this spec.
fn open(spec: &ServeSpec, path: &Path) -> ModelArtifact {
    if spec.lazy {
        ModelArtifact::load_file_lazy(path, LazyConfig::default())
    } else {
        ModelArtifact::load_file(path)
    }
    .expect("the synthesized artifact loads")
}

/// Builds the recommender the way `hf-serve` does under this spec.
fn build(spec: &ServeSpec, artifact: ModelArtifact) -> Recommender {
    let mode = if spec.lazy {
        ItemHalfMode::Tiled { max_panels: 64 }
    } else {
        ItemHalfMode::Precomputed
    };
    RecommenderBuilder::new(artifact)
        .default_k(K)
        .threads(1)
        .item_half_mode(mode)
        .build()
        .expect("valid serving configuration")
}

/// Starts the server and times it up to its first answered request.
fn start(spec: &ServeSpec, artifact: &Path) -> Result<(ServerProcess, f64), String> {
    let (server, secs) = timed(|| -> Result<ServerProcess, String> {
        let server = ServerProcess::spawn(&server_args(spec, artifact))?;
        let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
        client
            .recommend(&hf_serve::RecommendRequest::new(0))
            .map_err(|e| format!("first request: {e}"))?;
        Ok(server)
    });
    Ok((server?, secs))
}

/// Phase keys: each phase of a run draws its own request stream.
const PHASE_NOMINAL: u64 = 1;
const PHASE_PEAK: u64 = 2;
const PHASE_LADDER: u64 = 3;
const PHASE_UNTRACED: u64 = 4;

/// A constant-rate phase of `secs` at `rate`.
pub fn rate_phase(
    addr: &str,
    seed: u64,
    phase: u64,
    rate: f64,
    secs: f64,
    mix: UserMix,
    capture_every: usize,
) -> Result<(Schedule, PhaseReport), String> {
    let schedule = Schedule::at_rate(seed, phase, rate, Duration::from_secs_f64(secs), mix);
    let report = run_phase(
        addr,
        &schedule,
        PhaseOpts {
            send_for: Duration::from_secs_f64(secs + 2.0),
            drain: Duration::from_secs(5),
            capture_every,
            max_in_flight: None,
        },
    )
    .map_err(|e| format!("load phase: {e}"))?;
    Ok((schedule, report))
}

/// Prints a latency phase's summary by name: `serve_p50_ms`,
/// `serve_p99_ms` with its sample count (at least 1000, so ten answers
/// lie beyond p99), the highest percentile with ten answers beyond it,
/// and how late the sender ran. Returns `serve_p50_ms`.
pub fn latency_summary(label: &str, report: &mut PhaseReport) -> Result<f64, String> {
    let n = report.latency_ms.len();
    if n < MIN_SAMPLES {
        return Err(format!("{label}: {n} answers; p99 needs {MIN_SAMPLES}"));
    }
    let p50 = report.latency_ms.median();
    let p99 = report.latency_ms.percentile(99.0);
    let (top_p, top_v) = report
        .latency_ms
        .highest_supported()
        .expect("enough samples");
    println!("{label}: serve_p50_ms = {p50} ms, serve_p99_ms = {p99} ms over {n} answers");
    println!(
        "{label}: p{top_p} {top_v:.4} ms; sender late p99 {:.4} ms",
        report.late_ms.percentile(99.0)
    );
    Ok(p50)
}

/// The serving phases of a run, interleaved so that every metric's
/// samples spread over the whole run: `CHUNKS` times, a constant-rate
/// latency chunk, then a group of export + reload swaps, then (serve
/// workloads) a back-to-back burst for the peak rate.
pub struct Interleaved {
    pub latency: PhaseReport,
    pub swap_ms: Samples,
    pub peak_qps: Samples,
}

/// Chunks of an interleaved run.
pub const CHUNKS: usize = 3;

#[allow(clippy::too_many_arguments)]
pub fn interleaved(
    addr: &str,
    seed: u64,
    rate: f64,
    latency_secs: f64,
    user_mix: UserMix,
    swaps: usize,
    export: &mut dyn FnMut(&Path) -> Result<(), String>,
    served: &Path,
    peak: Option<(&ServeSpec, f64)>,
    outcome: &mut Outcome,
) -> Result<Interleaved, String> {
    let chunk_secs = latency_secs / CHUNKS as f64;
    let capture_every = ((rate * latency_secs) as usize / VERIFY_SAMPLES).max(1);
    let mut out = Interleaved {
        latency: PhaseReport::merged(),
        swap_ms: Samples::new(),
        peak_qps: Samples::new(),
    };
    for c in 0..CHUNKS as u64 {
        let (_, report) = rate_phase(
            addr,
            seed,
            PHASE_NOMINAL | c << 8,
            rate,
            chunk_secs,
            user_mix,
            capture_every,
        )?;
        account(outcome, &report);
        out.latency.absorb(report);
        let (swap_ms, _) = export_swaps(addr, swaps, export, served, outcome)?;
        out.swap_ms.extend(&swap_ms);
        if let Some((spec, secs)) = peak {
            let burst = peak_phase(addr, seed ^ c << 8, secs / CHUNKS as f64, spec)?;
            outcome.count("request", burst.sent, burst.failed(burst.sent));
            out.peak_qps.push(burst.throughput());
        }
    }
    Ok(out)
}

/// Counts a phase's scheduled requests and failures into `outcome`.
pub fn account(outcome: &mut Outcome, report: &PhaseReport) {
    let scheduled = report.scheduled as u64;
    outcome.count("request", scheduled, report.failed(scheduled));
}

/// Requests a back-to-back burst keeps in flight: four full batches,
/// enough to keep the batcher saturated, few enough to drain quickly.
const PEAK_IN_FLIGHT: u64 = 256;

/// Answers per second with the offered load above capacity: back to
/// back for `secs`, with a bounded in-flight window so the backlog
/// drains quickly.
fn peak_phase(addr: &str, seed: u64, secs: f64, spec: &ServeSpec) -> Result<PhaseReport, String> {
    // More requests than the fastest ladder rung could answer, so the
    // clock, not the schedule, ends the burst.
    let count = PEAK_IN_FLIGHT as f64 + 2.0 * spec.ladder.last().copied().unwrap_or(1e4) * secs;
    let schedule = Schedule::new(seed, PHASE_PEAK, None, count as usize, mix(spec));
    run_phase(
        addr,
        &schedule,
        PhaseOpts {
            send_for: Duration::from_secs_f64(secs),
            drain: Duration::from_secs(10),
            capture_every: 0,
            max_in_flight: Some(PEAK_IN_FLIGHT),
        },
    )
    .map_err(|e| format!("peak phase: {e}"))
}

/// One ladder rung: whether `rate` meets the p99 limit with every
/// request answered and no growing backlog.
fn rung_passes(report: &mut PhaseReport, scheduled: u64, limit_ms: f64) -> (bool, f64) {
    let n = report.latency_ms.len();
    if report.failed(scheduled) > 0 || n < MIN_SAMPLES {
        return (false, f64::INFINITY);
    }
    let p99 = report.latency_ms.percentile(99.0);
    // Backlog: arrival-ordered latencies of the last fifth against the
    // first fifth.
    let ordered = &report.latency_seq_ms;
    let fifth = n / 5;
    let head = Samples::from_vec(ordered[..fifth].to_vec()).median();
    let tail = Samples::from_vec(ordered[n - fifth..].to_vec()).median();
    let growing = tail - head > limit_ms / 2.0;
    (p99 <= limit_ms && !growing, p99)
}

/// `serve_slo_qps`: bisects the fixed ladder for the highest rung that
/// passes, spending about `budget_secs`.
fn slo_ladder(
    addr: &str,
    seed: u64,
    spec: &ServeSpec,
    budget_secs: f64,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let (mut lo, mut hi) = (-1i64, spec.ladder.len() as i64);
    let probes = (spec.ladder.len() as f64 + 1.0).log2().ceil().max(1.0);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = spec.ladder[mid as usize];
        let secs = (budget_secs / probes).max(1.2 * MIN_SAMPLES as f64 / rate);
        let (schedule, mut report) = rate_phase(
            addr,
            seed,
            PHASE_LADDER + mid as u64,
            rate,
            secs,
            mix(spec),
            0,
        )?;
        let scheduled = schedule.len() as u64;
        account(outcome, &report);
        let (pass, p99) = rung_passes(&mut report, scheduled, spec.p99_limit_ms);
        println!(
            "ladder rung {rate} qps: p99 {p99:.3} ms over {} answers -> {}",
            report.latency_ms.len(),
            if pass { "meets" } else { "misses" }
        );
        if pass {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(if lo < 0 {
        0.0
    } else {
        spec.ladder[lo as usize]
    })
}

/// Export + reload, timed from the start of the export to the
/// `Reloaded` answer. The export writes the artifact next to the served
/// path and renames it over, so a lazily opened old file stays intact.
pub fn export_swaps(
    addr: &str,
    swaps: usize,
    export: &mut dyn FnMut(&Path) -> Result<(), String>,
    served: &Path,
    outcome: &mut Outcome,
) -> Result<(Samples, Samples), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let staged = served.with_extension("staged");
    let mut swap_ms = Samples::new();
    let mut reload_ms = Samples::new();
    let mut failed = 0;
    let mut versions = Vec::new();
    let first = Client::connect(addr)
        .and_then(|mut c| c.recommend_wire(hf_net::WireRequest::new(1, 0)))
        .map_err(|e| e.to_string())?
        .version;
    for _ in 0..swaps {
        let (result, secs) = timed(|| -> Result<(u64, f64), String> {
            export(&staged)?;
            std::fs::rename(&staged, served).map_err(|e| e.to_string())?;
            let (version, reload_s) = timed(|| client.reload());
            Ok((version.map_err(|e| e.to_string())?, reload_s))
        });
        match result {
            Ok((version, reload_s)) => {
                versions.push(version);
                swap_ms.push(secs * 1e3);
                reload_ms.push(reload_s * 1e3);
            }
            Err(e) => {
                println!("reload failed: {e}");
                failed += 1;
            }
        }
    }
    outcome.count("reload", swaps as u64, failed);
    let expected: Vec<u64> = (first + 1..=first + versions.len() as u64).collect();
    outcome.check(
        "every reload answered with the next artifact version",
        if versions == expected {
            Ok(())
        } else {
            Err(format!("versions {versions:?}, expected {expected:?}"))
        },
    );
    Ok((swap_ms, reload_ms))
}

/// Runs a serving workload.
pub fn run(ctx: &Ctx, spec: &ServeSpec) -> Result<Measured, String> {
    sys::pin(sys::Cpus::Driver);
    let work = WorkDir::create(spec.name).map_err(|e| e.to_string())?;
    let path = work.file("model.hfab");
    let profile = SyntheticProfile::new(spec.users, spec.items);
    let dims = TierDims::new(DIMS[0], DIMS[1], DIMS[2]);
    let (stats, synth_s) =
        timed(|| ModelArtifact::synthesize_to_file(&profile, dims, ctx.seed, &path));
    let stats = stats.map_err(|e| e.to_string())?;
    println!(
        "input: {} users x {} items, dims {:?}, {} interactions, {} bytes, synthesized in {:.2} s",
        spec.users, spec.items, DIMS, stats.interactions, stats.file_bytes, synth_s
    );
    if ctx.trace {
        traced(ctx, spec, &path)
    } else {
        untraced(ctx, spec, &path)
    }
}

fn untraced(ctx: &Ctx, spec: &ServeSpec, path: &Path) -> Result<Measured, String> {
    let mut outcome = Outcome::new();
    let local = build(spec, open(spec, path));

    let mut setup_s = Vec::new();
    for _ in 0..SETUPS / 2 {
        let (s, secs) = start(spec, path)?;
        setup_s.push(secs);
        s.stop();
    }
    let (server, secs) = start(spec, path)?;
    setup_s.push(secs);
    let addr = server.addr.clone();

    // Exports encode from an eagerly loaded copy, as a trainer would
    // from the model it holds in memory.
    let eager = ModelArtifact::load_file(path).map_err(|e| e.to_string())?;
    let mut export = |to: &Path| eager.save_file(to).map_err(|e| e.to_string());
    let nominal_secs = 0.6 * ctx.seconds;
    let mut run = interleaved(
        &addr,
        ctx.seed,
        spec.nominal_qps,
        nominal_secs,
        mix(spec),
        SWAPS,
        &mut export,
        path,
        Some((spec, 0.18 * ctx.seconds)),
        &mut outcome,
    )?;
    let p50 = latency_summary(
        &format!(
            "nominal {} qps, {CHUNKS} x {:.1} s",
            spec.nominal_qps,
            nominal_secs / CHUNKS as f64
        ),
        &mut run.latency,
    )?;
    outcome.check(
        format!(
            "{} sampled answers bit-identical to in-process recommend_batch",
            run.latency.captured.len()
        ),
        verify_exchanges(&local, &run.latency.captured).map(|_| ()),
    );
    let peak_qps = run.peak_qps.median();
    println!(
        "serve_peak_qps = {peak_qps} 1/s (median of {CHUNKS} back-to-back bursts, \
         {PEAK_IN_FLIGHT} in flight)"
    );

    let slo_qps = slo_ladder(&addr, ctx.seed, spec, 0.2 * ctx.seconds, &mut outcome)?;
    println!(
        "serve_slo_qps = {slo_qps} 1/s (ladder {:?}, p99 limit {} ms)",
        spec.ladder, spec.p99_limit_ms
    );

    let rss = sys::peak_rss_mib(&server.pid()).ok_or("no VmHWM for hf-serve")?;
    server.stop();
    for _ in 0..SETUPS / 2 {
        let (s, secs) = start(spec, path)?;
        setup_s.push(secs);
        s.stop();
    }

    Ok(Measured {
        outcome,
        e2e: vec![
            ("setup_s", median_of(&setup_s)),
            ("serve_p50_ms", p50),
            ("export_swap_ms", run.swap_ms.median()),
            ("work_ms", 1e3 / peak_qps),
            ("peak_rss_mib", rss),
        ],
        layers: LayerValues::default(),
    })
}

fn traced(ctx: &Ctx, spec: &ServeSpec, path: &Path) -> Result<Measured, String> {
    let mut outcome = Outcome::new();
    let mut values = LayerValues::default();
    let (server, _) = start(spec, path)?;
    let addr = server.addr.clone();

    // The same constant-rate phase, untraced and then with a ping probe
    // on a second connection.
    let secs = 0.35 * ctx.seconds;
    let (_, mut plain) = rate_phase(
        &addr,
        ctx.seed,
        PHASE_UNTRACED,
        spec.nominal_qps,
        secs,
        mix(spec),
        0,
    )?;
    account(&mut outcome, &plain);
    let untraced_p50 = plain.latency_ms.median();
    let (phase, mut ping_us) = layers::with_pings(&addr, || {
        rate_phase(
            &addr,
            ctx.seed,
            PHASE_NOMINAL,
            spec.nominal_qps,
            secs,
            mix(spec),
            0,
        )
    });
    let (schedule, mut traced) = phase?;
    account(&mut outcome, &traced);
    let traced_p50 = traced.latency_ms.median();

    // In-process layers under the same stream, in the server's batch
    // shape at this rate: one window's worth of arrivals, at least one.
    let (load_ms, build_ms, local) = load_and_build(3, |p| open(spec, p), |a| build(spec, a), path);
    values.set("serve.artifact_load_ms", load_ms);
    values.set("serve.build_ms", build_ms);
    let batch = (spec.nominal_qps * spec.window_us as f64 / 1e6)
        .ceil()
        .max(1.0) as usize;
    let serving = layers::probe_serving(&mut values, &local, &schedule, batch);

    let mut reload_ms = layers::reloads(&addr, 3, &mut outcome)?;
    server.stop();

    let answered = traced.answered.max(1) as f64;
    let ping = ping_us.median();
    values.set("net.ping_rtt_us", ping);
    values.set(
        "net.wire_bytes_per_req",
        (traced.request_bytes + traced.response_bytes) as f64 / answered,
    );
    values.set(
        "net.stack_p50_us",
        traced_p50 * 1e3 - serving.batch_p50_us / serving.batch as f64,
    );
    values.set("net.reload_ms", reload_ms.median());
    values.set("driver.late_p99_ms", traced.late_ms.percentile(99.0));

    let mut breakdown = Breakdown::new("serve_p50_ms", traced_p50);
    layers::serving_breakdown(&mut breakdown, &serving, ping);
    breakdown.print();
    values.set("trace.coverage", breakdown.coverage());
    values.set(
        "trace.overhead_pct",
        print_overhead("serve_p50_ms", untraced_p50, traced_p50),
    );
    Ok(Measured {
        outcome,
        e2e: Vec::new(),
        layers: values,
    })
}
