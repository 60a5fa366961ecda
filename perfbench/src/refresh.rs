//! `refresh-masked`: a `PipelineDriver` over a `ReplayStream` with new
//! users arriving, asynchronous rounds with masked (secure-aggregation)
//! uploads and injected drops, exporting every cycle. After each export
//! the benchmark sends `Reload` to an in-process `serve_slot` server,
//! while one connection keeps an open-loop read load on it.

use crate::layers::{self, K};
use crate::openloop::{run_phase, PhaseOpts, PhaseReport, Schedule, UserMix};
use crate::outcome::Outcome;
use crate::serve::{account, latency_summary};
use crate::stats::{median_of, Samples};
use crate::sys::{self, WorkDir};
use crate::trace::{print_overhead, timed, Breakdown, LayerValues};
use crate::train::DATASET_SEED;
use crate::{Ctx, Measured};
use hetefedrec_core::{
    Ablation, Mode, RoundReport, SecAggConfig, SessionBuilder, Strategy, TrainConfig,
};
use hf_dataset::{DatasetProfile, SplitDataset};
use hf_models::ModelKind;
use hf_net::{serve_slot, Client, ReloadFn, ServerConfig};
use hf_pipeline::{latest_artifact, PipelineConfig, PipelineDriver, ReplayConfig, ReplayStream};
use hf_serve::{ArtifactSlot, ModelArtifact, Recommender, RecommenderBuilder};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Share of the paper's MovieLens users and items.
const SCALE: f64 = 0.25;
/// Rounds per refresh cycle (one export per cycle).
const ROUNDS_PER_CYCLE: usize = 4;
/// Set-ups per run; `setup_s` is their median. Six run at the start and
/// five at the end, so the median spans the run's conditions.
const SETUPS: usize = 11;
/// Cycles every run makes at least.
const MIN_CYCLES: usize = 3;
/// Open-loop read rate beside the refresh.
const READ_QPS: f64 = 500.0;
/// Users withheld from the base data and admitted mid-stream.
const NEW_USERS: usize = 16;
/// Training threads: one, so the server keeps a core for reads.
const TRAIN_THREADS: usize = 1;

fn config(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.epochs = 1_000;
    cfg.seed = seed;
    cfg.threads = TRAIN_THREADS;
    cfg.mode = Mode::Async;
    cfg.drop_prob = 0.1;
    cfg.secagg = SecAggConfig {
        enabled: true,
        ..SecAggConfig::default()
    };
    cfg
}

/// What the round hook saw: when each round ended and its report.
type Rounds = Rc<RefCell<Vec<(Instant, RoundReport)>>>;

fn build(artifact: ModelArtifact) -> Recommender {
    RecommenderBuilder::new(artifact)
        .default_k(K)
        .threads(1)
        .build()
        .expect("valid serving configuration")
}

fn load_latest(dir: &Path) -> Result<Recommender, String> {
    let (_, path) = latest_artifact(dir)
        .map_err(|e| e.to_string())?
        .ok_or("no artifact exported yet")?;
    ModelArtifact::load_file(path)
        .map(build)
        .map_err(|e| e.to_string())
}

struct Setup {
    driver: PipelineDriver<ReplayStream>,
    rounds: Rounds,
    users: usize,
    setup_s: Vec<f64>,
}

/// Builds the session and starts the driver (which exports v1 into
/// `dir`) `repeats` times; keeps the last and every time.
fn set_up(ctx: &Ctx, dir: &Path, repeats: usize) -> Result<Setup, String> {
    let data = DatasetProfile::MovieLens
        .config_scaled(SCALE)
        .generate(DATASET_SEED);
    let replay = ReplayConfig {
        item_frac: 0.2,
        new_users: NEW_USERS,
        start: 1,
        horizon: 64,
    };
    let (base, stream) = ReplayStream::replay(&data, &replay, ctx.seed);
    let split = SplitDataset::paper_split(&base, ctx.seed);
    let users = data.num_users();
    println!(
        "input: MovieLens profile x{SCALE}: {} base users (+{NEW_USERS} arriving) x {} items, \
         {} stream events; async, secagg on, drop 0.1, {ROUNDS_PER_CYCLE} rounds/cycle, \
         {TRAIN_THREADS} training thread",
        base.num_users(),
        data.num_items(),
        stream.events().len()
    );
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let rounds: Rounds = Rc::new(RefCell::new(Vec::new()));
        let hook = Rc::clone(&rounds);
        let (driver, s) = timed(|| -> Result<_, String> {
            let session = SessionBuilder::new(
                config(ctx.seed),
                Strategy::HeteFedRec(Ablation::FULL),
                split.clone(),
            )
            .eval_every(0)
            .on_round(move |r| hook.borrow_mut().push((Instant::now(), r.clone())))
            .build()
            .map_err(|e| e.to_string())?;
            PipelineDriver::new(
                session,
                stream.clone(),
                PipelineConfig {
                    rounds_per_cycle: ROUNDS_PER_CYCLE,
                    export_every: 1,
                    artifact_dir: dir.to_path_buf(),
                },
            )
            .map_err(|e| e.to_string())
        });
        secs.push(s);
        last = Some((driver?, rounds));
    }
    let (driver, rounds) = last.expect("at least one set-up");
    Ok(Setup {
        driver,
        rounds,
        users,
        setup_s: secs,
    })
}

/// One cycle's observations.
struct Cycle {
    start: Instant,
    end: Instant,
    exported: u64,
    reloaded: Result<u64, String>,
    reload_reply: Instant,
    reload_ms: f64,
}

/// Runs refresh cycles beside the read load until the read phase is
/// nearly over (at least `MIN_CYCLES`).
fn refresh(
    ctx: &Ctx,
    driver: &mut PipelineDriver<ReplayStream>,
    addr: &str,
    read_secs: f64,
    users: usize,
    phase: u64,
) -> Result<(Vec<Cycle>, PhaseReport), String> {
    let schedule = Schedule::at_rate(
        ctx.seed,
        phase,
        READ_QPS,
        Duration::from_secs_f64(read_secs),
        UserMix {
            users: users as u64,
            cold_frac: 0.05,
        },
    );
    let mut control = Client::connect(addr).map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        sys::pin(sys::Cpus::Driver);
        let reads = scope.spawn(|| {
            run_phase(
                addr,
                &schedule,
                PhaseOpts {
                    send_for: Duration::from_secs_f64(read_secs + 2.0),
                    drain: Duration::from_secs(5),
                    capture_every: 0,
                    max_in_flight: None,
                },
            )
        });
        sys::pin(sys::Cpus::System);
        let t0 = Instant::now();
        let mut cycles = Vec::new();
        let mut cycle_s = Samples::new();
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            if cycles.len() >= MIN_CYCLES && elapsed + 1.5 * cycle_s.median() > read_secs {
                break;
            }
            let start = Instant::now();
            let report = driver.run_cycle().map_err(|e| e.to_string())?;
            let end = Instant::now();
            let Some(report) = report else { break };
            let exported = report.exported.map(|(v, _)| v).unwrap_or(0);
            let (reloaded, reload_s) = timed(|| control.reload().map_err(|e| e.to_string()));
            cycle_s.push((end - start).as_secs_f64());
            cycles.push(Cycle {
                start,
                end,
                exported,
                reloaded,
                reload_reply: Instant::now(),
                reload_ms: reload_s * 1e3,
            });
        }
        let reads = reads
            .join()
            .expect("read load panicked")
            .map_err(|e| format!("read load: {e}"))?;
        Ok((cycles, reads))
    })
}

/// Exported minus served version, averaged over the read answers: each
/// answer is compared with the newest export finished before it arrived.
fn version_lag(cycles: &[Cycle], reads: &PhaseReport) -> f64 {
    let started = reads.started.expect("phase start");
    let exports: Vec<(f64, u64)> = cycles
        .iter()
        .map(|c| {
            (
                c.end.saturating_duration_since(started).as_secs_f64(),
                c.exported,
            )
        })
        .collect();
    let lags: Vec<f64> = reads
        .arrivals_s
        .iter()
        .zip(&reads.versions)
        .map(|(&t, &served)| {
            let exported = exports
                .iter()
                .filter(|(at, _)| *at <= t)
                .map(|&(_, v)| v)
                .max()
                .unwrap_or(1);
            exported.saturating_sub(served) as f64
        })
        .collect();
    Samples::from_vec(lags).mean()
}

/// Round ends of each cycle, from the hook's timestamps.
fn round_ends(rounds: &Rounds, cycle: &Cycle) -> Vec<Instant> {
    rounds
        .borrow()
        .iter()
        .map(|(at, _)| *at)
        .filter(|at| *at >= cycle.start && *at <= cycle.end)
        .collect()
}

fn check_cycles(outcome: &mut Outcome, cycles: &[Cycle], reads: &PhaseReport, rounds: &Rounds) {
    let failed = cycles.iter().filter(|c| c.reloaded.is_err()).count() as u64;
    outcome.count("reload", cycles.len() as u64, failed);
    let mismatched: Vec<String> = cycles
        .iter()
        .filter(|c| c.reloaded.as_ref().ok() != Some(&c.exported))
        .map(|c| format!("exported v{} reloaded {:?}", c.exported, c.reloaded))
        .collect();
    outcome.check(
        "every Reload answered with the exported version",
        if mismatched.is_empty() {
            Ok(())
        } else {
            Err(mismatched.join("; "))
        },
    );
    outcome.check(
        "version stamps monotone on the read connection",
        if reads.versions_monotone {
            Ok(())
        } else {
            Err("a later answer carried an older version".into())
        },
    );
    // A masked group whose survivors fell below the escrow threshold is
    // lost: its round's uploads were discarded. A failed operation.
    let (mut groups, mut lost) = (0u64, 0u64);
    for (_, r) in rounds.borrow().iter() {
        if let Some(s) = &r.secagg {
            groups += s.groups as u64;
            if !s.verified {
                lost += s.groups as u64;
            }
        }
    }
    outcome.count("masked_group", groups, lost);
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let work = WorkDir::create("refresh-masked").map_err(|e| e.to_string())?;
    let dir: PathBuf = work.path().to_path_buf();
    let mut outcome = Outcome::new();
    let setup = set_up(ctx, &dir, if ctx.trace { 1 } else { SETUPS / 2 + 1 })?;
    let Setup {
        mut driver,
        rounds,
        users,
        mut setup_s,
    } = setup;

    let slot = ArtifactSlot::new(load_latest(&dir)?);
    let reload_dir = dir.clone();
    let reload: ReloadFn = Box::new(move || load_latest(&reload_dir));
    // The server and the training loop are the system under test; the
    // read load gets the driver CPU (see `refresh`).
    sys::pin(sys::Cpus::System);
    let handle = serve_slot(slot, Some(reload), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let addr = handle.local_addr().to_string();

    let result = if ctx.trace {
        traced(ctx, &mut driver, &rounds, &addr, users, &dir, outcome)
    } else {
        let (cycles, mut reads) = refresh(ctx, &mut driver, &addr, 0.7 * ctx.seconds, users, 1)?;
        account(&mut outcome, &reads);
        check_cycles(&mut outcome, &cycles, &reads, &rounds);
        let cycle_s = median_of(
            &cycles
                .iter()
                .map(|c| (c.end - c.start).as_secs_f64())
                .collect::<Vec<_>>(),
        );
        // Export starts when the cycle's last round has ended.
        let swap_ms: Vec<f64> = cycles
            .iter()
            .filter_map(|c| {
                let last = *round_ends(&rounds, c).last()?;
                Some((c.reload_reply - last).as_secs_f64() * 1e3)
            })
            .collect();
        println!(
            "cycle seconds: {:?}",
            cycles
                .iter()
                .map(|c| format!("{:.3}", (c.end - c.start).as_secs_f64()))
                .collect::<Vec<_>>()
        );
        let p50 = latency_summary(&format!("reads at {READ_QPS} qps"), &mut reads)?;
        let late = dir.join("late-set-ups");
        std::fs::create_dir_all(&late).map_err(|e| e.to_string())?;
        setup_s.extend(set_up(ctx, &late, SETUPS / 2)?.setup_s);
        println!(
            "{} cycles: refresh_cycle_s = {cycle_s} s, export_swap_ms = {} ms; {} events ingested",
            cycles.len(),
            median_of(&swap_ms),
            driver.session().ingested_events()
        );
        Ok(Measured {
            outcome,
            e2e: vec![
                ("setup_s", median_of(&setup_s)),
                ("serve_p50_ms", p50),
                ("export_swap_ms", median_of(&swap_ms)),
                ("work_ms", cycle_s * 1e3),
                ("peak_rss_mib", sys::peak_rss_mib("self").ok_or("no VmHWM")?),
            ],
            layers: LayerValues::default(),
        })
    };
    handle.shutdown();
    result
}

fn traced(
    ctx: &Ctx,
    driver: &mut PipelineDriver<ReplayStream>,
    rounds: &Rounds,
    addr: &str,
    users: usize,
    dir: &Path,
    mut outcome: Outcome,
) -> Result<Measured, String> {
    let mut values = LayerValues::default();
    let (plain, plain_reads) = refresh(ctx, driver, addr, 0.25 * ctx.seconds, users, 2)?;
    account(&mut outcome, &plain_reads);
    check_cycles(&mut outcome, &plain, &plain_reads, rounds);
    let untraced_ms = median_of(
        &plain
            .iter()
            .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let rounds_before = rounds.borrow().len();
    let timing_before = driver.session().secagg_timing().unwrap_or((0, 0));
    let (phase, mut ping) = layers::with_pings(addr, || {
        refresh(ctx, driver, addr, 0.45 * ctx.seconds, users, 3)
    });
    let (cycles, reads) = phase?;
    let timing_after = driver.session().secagg_timing().unwrap_or((0, 0));
    account(&mut outcome, &reads);
    check_cycles(&mut outcome, &cycles, &reads, rounds);

    // Spans from the round hook: first hook = poll + ingest + round 1,
    // hook to hook = one round, last hook to cycle end = export.
    let mut cycle_ms = Samples::new();
    let mut step_ms = Samples::new();
    let mut export_ms = Samples::new();
    for c in &cycles {
        cycle_ms.push((c.end - c.start).as_secs_f64() * 1e3);
        let ends = round_ends(rounds, c);
        for pair in ends.windows(2) {
            step_ms.push((pair[1] - pair[0]).as_secs_f64() * 1e3);
        }
        if let Some(last) = ends.last() {
            export_ms.push((c.end - *last).as_secs_f64() * 1e3);
        }
    }
    let cycle = cycle_ms.median();
    let step = step_ms.median();
    let export = export_ms.median();
    let n = cycles.len().max(1) as f64;
    let mask_ms = (timing_after.0 - timing_before.0) as f64 / 1e6 / n;
    let recovery_ms = (timing_after.1 - timing_before.1) as f64 / 1e6 / n;
    let reports: Vec<RoundReport> = rounds.borrow()[rounds_before..]
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    let per_round = |f: &dyn Fn(&RoundReport) -> f64| -> f64 {
        Samples::from_vec(reports.iter().map(f).collect()).median()
    };
    let secagg = |f: &dyn Fn(&hetefedrec_core::SecAggRoundStats) -> f64| -> f64 {
        per_round(&|r| r.secagg.as_ref().map(f).unwrap_or(0.0))
    };
    let lost: usize = reports
        .iter()
        .filter_map(|r| r.secagg.as_ref())
        .filter(|s| !s.verified)
        .map(|s| s.groups)
        .sum();

    values.set("core.step_ms", step);
    values.set("core.export_ms", export);
    values.set("secagg.mask_ms", mask_ms);
    values.set("secagg.recovery_ms", recovery_ms);
    values.set("secagg.masked_bytes", secagg(&|s| s.masked_bytes as f64));
    values.set("secagg.setup_bytes", secagg(&|s| s.setup_bytes as f64));
    values.set("secagg.groups", secagg(&|s| s.groups as f64));
    values.set("secagg.lost_groups", lost as f64);
    values.set(
        "fedsim.upload_bytes_per_round",
        per_round(&|r| r.upload_bytes as f64),
    );
    values.set(
        "fedsim.download_bytes_per_round",
        per_round(&|r| r.download_bytes as f64),
    );
    values.set("pipeline.cycle_ms", cycle);
    values.set(
        "pipeline.ingested_events",
        driver.session().ingested_events() as f64,
    );
    values.set("pipeline.version_lag", version_lag(&cycles, &reads));
    values.set(
        "net.reload_ms",
        median_of(&cycles.iter().map(|c| c.reload_ms).collect::<Vec<_>>()),
    );
    values.set("driver.late_p99_ms", {
        let mut late = reads.late_ms.clone();
        late.percentile(99.0)
    });

    let rounds_per_cycle = ROUNDS_PER_CYCLE as f64;
    let mut b = Breakdown::new("work_ms (refresh_cycle_s)", cycle);
    b.span(
        "hetefedrec_core",
        format!("Session::step x {ROUNDS_PER_CYCLE} (hook to hook)"),
        step * rounds_per_cycle,
        mask_ms + recovery_ms,
    );
    b.span(
        "hf_secagg",
        "mask + recovery (Session::secagg_timing)",
        mask_ms + recovery_ms,
        0.0,
    );
    b.span(
        "hetefedrec_core",
        "export_artifact + save_file",
        export,
        0.0,
    );
    b.unreachable("stream poll and Session::ingest inside run_cycle (no public boundary)");
    b.unreachable("DDR and RESKD inside Session::step");
    b.print();
    values.set("trace.coverage", b.coverage());
    values.set(
        "trace.overhead_pct",
        print_overhead("work_ms (refresh_cycle_s)", untraced_ms, cycle),
    );

    // The read path's serving layers, on the artifact now served.
    let local = load_latest(dir)?;
    let schedule = Schedule::at_rate(
        ctx.seed,
        3,
        READ_QPS,
        Duration::from_secs(2),
        UserMix {
            users: users as u64,
            cold_frac: 0.05,
        },
    );
    let (load_ms, build_ms, _) = layers::load_and_build(
        3,
        |p| ModelArtifact::load_file(p).expect("exported artifact loads"),
        build,
        &latest_artifact(dir).ok().flatten().ok_or("no artifact")?.1,
    );
    values.set("serve.artifact_load_ms", load_ms);
    values.set("serve.build_ms", build_ms);
    let serving = layers::probe_serving(&mut values, &local, &schedule, 1);
    let mut read_ms = reads.latency_ms.clone();
    values.set(
        "net.stack_p50_us",
        read_ms.median() * 1e3 - serving.batch_p50_us,
    );
    values.set(
        "net.wire_bytes_per_req",
        (reads.request_bytes + reads.response_bytes) as f64 / reads.answered.max(1) as f64,
    );
    values.set("net.ping_rtt_us", ping.median());
    Ok(Measured {
        outcome,
        e2e: Vec::new(),
        layers: values,
    })
}
