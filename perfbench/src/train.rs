//! `train-paper`: HeteFedRec FULL (UDL + DDR + RESKD) with NCF on the
//! MovieLens profile at a quarter of paper scale, synchronous and
//! plaintext, over a fixed number of epochs; then the trained model is
//! exported, deployed into an in-process `serve_slot` server and served
//! socket to socket, as an operator would after training.

use crate::layers::{self, load_and_build, K};
use crate::openloop::UserMix;
use crate::outcome::Outcome;
use crate::serve::{account, interleaved, latency_summary, rate_phase};
use crate::stats::{median_of, Samples};
use crate::sys::{self, WorkDir};
use crate::trace::{print_overhead, timed, Breakdown, LayerValues};
use crate::{Ctx, Measured};
use hetefedrec_core::client::{train_client, ClientCtx};
use hetefedrec_core::{
    ddr, Ablation, Session, SessionBuilder, SessionEvent, Strategy, TrainConfig,
};
use hf_dataset::{DatasetProfile, SplitDataset, Tier};
use hf_models::ModelKind;
use hf_net::{serve_slot, verify_exchanges, ReloadFn, ServerConfig, ServerHandle};
use hf_serve::{ArtifactSlot, ExportArtifact, ModelArtifact, Recommender, RecommenderBuilder};
use hf_tensor::rng::{stream, Rng, SeedStream};
use hf_tensor::Matrix;
use std::path::{Path, PathBuf};

/// Share of the paper's MovieLens users and items (1510 x 927).
const SCALE: f64 = 0.25;
/// The dataset is one fixed draw of the profile, standing for the fixed
/// MovieLens data of the paper; `--seed` varies everything the
/// federation draws (split, initialisation, cohorts, negatives), so the
/// amount of work per epoch does not change with it.
pub const DATASET_SEED: u64 = 42;
/// Epochs every run trains.
const EPOCHS: usize = 3;
/// Set-ups per run; `setup_s` is their median. Six run at the start and
/// five at the end, so the median spans the run's conditions.
const SETUPS: usize = 11;
/// Open-loop rate the deployed model is served at.
const DEPLOY_QPS: f64 = 2_000.0;
/// Export + reload cycles of the trained model after each latency chunk.
const SWAPS: usize = 5;
/// Lowest acceptable final NDCG@20: a guard against a model that
/// collapses (empty or NaN rankings score 0). Most seeds tried while the
/// benchmark was written ended three epochs between 0.056 and 0.080
/// from an untrained 0.034 to 0.040, but seeds 203 and 208 ended at or
/// below their untrained score (203: 0.0354 against 0.0362), so three
/// epochs do not reliably lift NDCG above the untrained range.
const NDCG_FLOOR: f64 = 0.03;
/// Clients sampled per round by the traced run's client probes.
const PROBE_CLIENTS: usize = 32;

fn config(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(ModelKind::Ncf, DatasetProfile::MovieLens);
    cfg.epochs = EPOCHS;
    cfg.seed = seed;
    cfg.threads = Ctx::nproc();
    cfg
}

/// Generates the data, then splits it and builds the session `repeats`
/// times (set-up is what is timed: the split and
/// `SessionBuilder::build`). Returns the last session and every time.
fn set_up(ctx: &Ctx, repeats: usize) -> Result<(Session, Vec<f64>), String> {
    let data = DatasetProfile::MovieLens
        .config_scaled(SCALE)
        .generate(DATASET_SEED);
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (session, s) = timed(|| {
            let split = SplitDataset::paper_split(&data, ctx.seed);
            SessionBuilder::new(
                config(ctx.seed),
                Strategy::HeteFedRec(Ablation::FULL),
                split,
            )
            .eval_every(0)
            .build()
        });
        secs.push(s);
        last = Some(session.map_err(|e| e.to_string())?);
    }
    let session = last.expect("at least one set-up");
    println!(
        "input: MovieLens profile x{SCALE}: {} users x {} items, {} clients/round, {} threads",
        session.split().num_users(),
        session.split().num_items(),
        session.cfg().clients_per_round,
        session.cfg().threads
    );
    Ok((session, secs))
}

fn build(artifact: ModelArtifact) -> Recommender {
    RecommenderBuilder::new(artifact)
        .default_k(K)
        .threads(1)
        .build()
        .expect("valid serving configuration")
}

/// An in-process server over `served`, reloading from that path.
pub fn deploy(served: &Path) -> Result<(ServerHandle, String), String> {
    let artifact = ModelArtifact::load_file(served).map_err(|e| e.to_string())?;
    // Server threads inherit the system CPUs; the caller then drives.
    sys::pin(sys::Cpus::System);
    let slot = ArtifactSlot::new(build(artifact));
    let path: PathBuf = served.to_path_buf();
    let reload: ReloadFn = Box::new(move || {
        ModelArtifact::load_file(&path)
            .map(build)
            .map_err(|e| e.to_string())
    });
    let handle = serve_slot(slot, Some(reload), "127.0.0.1:0", ServerConfig::default());
    sys::pin(sys::Cpus::Driver);
    let handle = handle.map_err(|e| e.to_string())?;
    let addr = handle.local_addr().to_string();
    Ok((handle, addr))
}

/// Per-round and per-epoch observations of a training stretch.
#[derive(Default)]
struct Training {
    round_ms: Samples,
    epoch_s: Vec<f64>,
    evaluate_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: usize,
    losses_finite: bool,
    rounds: u64,
    upload_bytes: Samples,
    download_bytes: Samples,
}

/// Steps the session through `epochs` epochs, running the per-epoch
/// evaluation and checkpoint an operator would, calling `probe` before
/// every step (the traced run's span probes; nothing untraced).
fn train(session: &mut Session, epochs: usize, probe: &mut dyn FnMut(&Session)) -> Training {
    let mut t = Training {
        losses_finite: true,
        ..Training::default()
    };
    let target = session.epochs_completed() + epochs;
    let mut epoch_start = std::time::Instant::now();
    while session.epochs_completed() < target {
        probe(session);
        let (event, s) = timed(|| session.step());
        match event {
            Some(SessionEvent::Round(r)) => {
                t.round_ms.push(s * 1e3);
                t.rounds += 1;
                t.losses_finite &= r.loss.is_finite();
                t.upload_bytes.push(r.upload_bytes as f64);
                t.download_bytes.push(r.download_bytes as f64);
            }
            Some(SessionEvent::Epoch(_)) => {
                let (eval, s) = timed(|| session.evaluate());
                t.losses_finite &= eval.overall.ndcg.is_finite();
                t.evaluate_ms.push(s * 1e3);
                let (doc, s) = timed(|| session.checkpoint());
                t.checkpoint_ms.push(s * 1e3);
                t.checkpoint_bytes = doc.len();
                t.epoch_s.push(epoch_start.elapsed().as_secs_f64());
                epoch_start = std::time::Instant::now();
            }
            None => break,
        }
    }
    t
}

fn deploy_mix(session: &Session) -> UserMix {
    UserMix {
        users: session.split().num_users() as u64,
        cold_frac: 0.05,
    }
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let work = WorkDir::create("train-paper").map_err(|e| e.to_string())?;
    let served = work.file("model.hfab");
    let mut outcome = Outcome::new();
    let (mut session, mut setup_s) = set_up(ctx, if ctx.trace { 1 } else { SETUPS / 2 + 1 })?;
    if ctx.trace {
        return traced(ctx, session, &served, outcome);
    }

    let untrained = session.evaluate().overall.ndcg;
    let training = train(&mut session, EPOCHS, &mut |_| ());
    outcome.count("round", training.rounds, 0);
    let mut round_ms = training.round_ms;
    let round_p50 = round_ms.median();
    let epoch_s = median_of(&training.epoch_s);
    let ndcg20 = session.evaluate().overall.ndcg;
    println!(
        "trained {} rounds over {EPOCHS} epochs: round_p50_ms = {round_p50} ms ({} rounds), \
         epoch_s = {epoch_s} s (median of {EPOCHS}), evaluate {:.2} ms, checkpoint {:.2} ms \
         for {} bytes",
        training.rounds,
        round_ms.len(),
        median_of(&training.evaluate_ms),
        median_of(&training.checkpoint_ms),
        training.checkpoint_bytes
    );
    println!("ndcg20 = {ndcg20} 1 (final overall NDCG@20; {untrained} before training)");
    outcome.check(
        "finite round losses",
        if training.losses_finite {
            Ok(())
        } else {
            Err("a round loss or evaluation was not finite".into())
        },
    );
    outcome.check(
        format!("ndcg20 above the recorded floor {NDCG_FLOOR}"),
        if ndcg20 > NDCG_FLOOR {
            Ok(())
        } else {
            Err(format!("ndcg20 {ndcg20}"))
        },
    );
    let doc = session.checkpoint();
    let restored = Session::restore(&doc, session.split().clone()).map_err(|e| e.to_string())?;
    outcome.check(
        "checkpoint -> Session::restore -> checkpoint byte-identical",
        if restored.checkpoint() == doc {
            Ok(())
        } else {
            Err("restored session checkpoints different bytes".into())
        },
    );
    drop(restored);

    // Deploy: export, serve socket to socket, then export + swap.
    session
        .export_artifact()
        .save_file(&served)
        .map_err(|e| e.to_string())?;
    let (handle, addr) = deploy(&served)?;
    let local = build(ModelArtifact::load_file(&served).map_err(|e| e.to_string())?);
    let mix = deploy_mix(&session);
    let mut export = |to: &Path| {
        session
            .export_artifact()
            .save_file(to)
            .map_err(|e| e.to_string())
    };
    let mut run = interleaved(
        &addr,
        ctx.seed,
        DEPLOY_QPS,
        0.25 * ctx.seconds,
        mix,
        SWAPS,
        &mut export,
        &served,
        None,
        &mut outcome,
    )?;
    handle.shutdown();
    outcome.check(
        format!(
            "{} sampled answers of the trained model bit-identical in process",
            run.latency.captured.len()
        ),
        verify_exchanges(&local, &run.latency.captured).map(|_| ()),
    );
    let p50 = latency_summary(
        &format!("deployed model at {DEPLOY_QPS} qps"),
        &mut run.latency,
    )?;

    setup_s.extend(set_up(ctx, SETUPS / 2)?.1);
    Ok(Measured {
        outcome,
        e2e: vec![
            ("setup_s", median_of(&setup_s)),
            ("serve_p50_ms", p50),
            ("export_swap_ms", run.swap_ms.median()),
            ("work_ms", round_p50),
            ("peak_rss_mib", sys::peak_rss_mib("self").ok_or("no VmHWM")?),
        ],
        layers: LayerValues::default(),
    })
}

/// Tier tags of the predictors a client of `tier` downloads.
fn theta_tiers(tier: Tier, count: usize) -> &'static [Tier] {
    &Tier::ALL[tier.index() + 1 - count..=tier.index()]
}

/// Client-side spans of one round, timed on sampled clients with the
/// session's current downloads: `(train_client ms, ddr ms, apply ms)`
/// per client / per cohort, plus distillation on a copy.
#[derive(Default)]
struct RoundProbe {
    train_client_ms: Samples,
    ddr_ms: Samples,
    non_small: f64,
    apply_round_ms: Samples,
    distill_ms: Samples,
}

fn probe_round(session: &Session, seed: u64, probe: &mut RoundProbe) {
    let cfg = session.cfg();
    let server = session.server();
    let users = session.split().num_users();
    let round = session.rounds_completed() + 1;
    let mut rng = stream(seed ^ round, SeedStream::Custom(0x7072_6f62_6521)); // "probe!"
    let mut updates = Vec::new();
    let mut non_small = 0usize;
    for _ in 0..PROBE_CLIENTS {
        let uid = rng.gen_range(0..users);
        let tier = session.model_groups().tier(uid);
        let thetas = server.thetas_for(tier, true);
        let ctx = ClientCtx {
            cfg,
            strategy: session.strategy(),
            split: session.split(),
            user_id: uid,
            model_tier: tier,
            table: server.table(tier),
            thetas: &thetas,
            theta_tiers: theta_tiers(tier, thetas.len()),
            round_key: round,
        };
        let (out, s) = timed(|| train_client(&ctx, session.user_state(uid)));
        probe.train_client_ms.push(s * 1e3);
        if tier != Tier::Small {
            non_small += 1;
            // DDR at the client's shape: up to `ddr_max_rows` touched
            // rows of its tier width.
            let rows = cfg.ddr_max_rows.min(server.num_items());
            let dim = server.dims().dim(tier);
            let table = server.table(tier);
            let z = Matrix::from_fn(rows, dim, |r, c| table.row(r)[c]);
            let (_, s) = timed(|| ddr::decorrelation_loss_grad(&z));
            probe.ddr_ms.push(s * 1e3);
        }
        updates.push((tier, out.update));
    }
    probe.non_small += non_small as f64 / PROBE_CLIENTS as f64;
    // Aggregation at the real cohort size, cycling the sampled uploads.
    let cohort: Vec<_> = (0..cfg.clients_per_round)
        .map(|i| updates[i % updates.len()].clone())
        .collect();
    let mut copy = server.clone();
    let (_, s) = timed(|| copy.apply_round(&cohort));
    probe.apply_round_ms.push(s * 1e3);
    let mut copy = server.clone();
    let (_, s) = timed(|| copy.distill(&cfg.kd, cfg.threads));
    probe.distill_ms.push(s * 1e3);
}

fn traced(
    ctx: &Ctx,
    mut session: Session,
    served: &Path,
    mut outcome: Outcome,
) -> Result<Measured, String> {
    let mut values = LayerValues::default();
    // One untraced epoch, then one with probes between the steps.
    let plain = train(&mut session, 1, &mut |_| ());
    let mut probe = RoundProbe::default();
    let mut probes = 0usize;
    let traced = train(&mut session, 1, &mut |s| {
        probe_round(s, ctx.seed, &mut probe);
        probes += 1;
    });
    outcome.count("round", plain.rounds + traced.rounds, 0);
    let mut plain_ms = plain.round_ms;
    let mut step_ms = traced.round_ms;
    let step = step_ms.median();
    let cfg = session.cfg().clone();
    let threads = cfg.threads as f64;
    let cohort = cfg.clients_per_round as f64;
    // Client cost follows the users' heavy-tailed data sizes, so a
    // round's client work is the mean per client times the cohort.
    let client_ms = probe.train_client_ms.mean();
    let ddr_ms = probe.ddr_ms.mean();
    let non_small = probe.non_small / probes.max(1) as f64;

    values.set("core.step_ms", step);
    values.set("core.train_client_ms", client_ms);
    values.set("core.ddr_ms", ddr_ms);
    values.set("core.distill_ms", probe.distill_ms.median());
    values.set("core.apply_round_ms", probe.apply_round_ms.median());
    values.set("core.evaluate_ms", median_of(&traced.evaluate_ms));
    values.set("core.checkpoint_ms", median_of(&traced.checkpoint_ms));
    values.set("core.checkpoint_bytes", traced.checkpoint_bytes as f64);
    values.set(
        "fedsim.upload_bytes_per_round",
        traced.upload_bytes.clone().median(),
    );
    values.set(
        "fedsim.download_bytes_per_round",
        traced.download_bytes.clone().median(),
    );

    let mut b = Breakdown::new("work_ms (round_p50_ms)", step);
    let train_total = client_ms * cohort / threads;
    let ddr_total = ddr_ms * cohort * non_small / threads;
    b.span(
        "hetefedrec_core",
        format!("client::train_client x {cohort} / {threads} threads"),
        train_total,
        ddr_total,
    );
    b.span(
        "hetefedrec_core",
        "ddr::decorrelation_loss_grad (in clients)",
        ddr_total,
        0.0,
    );
    b.span(
        "hetefedrec_core",
        "ServerState::apply_round (copy)",
        probe.apply_round_ms.median(),
        0.0,
    );
    b.span(
        "hetefedrec_core",
        "ServerState::distill (copy)",
        probe.distill_ms.median(),
        0.0,
    );
    b.unreachable("DDR and RESKD inside Session::step (timed here on copies, outside the step)");
    b.unreachable("cohort scheduling, download clones and upload accounting inside Session::step");
    b.print();
    println!(
        "per epoch: evaluate {:.2} ms, checkpoint {:.2} ms ({} bytes), epoch {:.3} s",
        median_of(&traced.evaluate_ms),
        median_of(&traced.checkpoint_ms),
        traced.checkpoint_bytes,
        median_of(&traced.epoch_s)
    );
    values.set("trace.coverage", b.coverage());
    values.set(
        "trace.overhead_pct",
        print_overhead("work_ms (round_p50_ms)", plain_ms.median(), step),
    );

    // Export, deploy and the serving layers of the trained model.
    let (_, s) = timed(|| session.export_artifact().save_file(served));
    values.set("core.export_ms", s * 1e3);
    let (handle, addr) = deploy(served)?;
    let secs = 0.15 * ctx.seconds;
    let mix = deploy_mix(&session);
    let (phase, mut ping) = layers::with_pings(&addr, || {
        rate_phase(&addr, ctx.seed, 1, DEPLOY_QPS, secs, mix, 0)
    });
    let (schedule, mut report) = phase?;
    account(&mut outcome, &report);
    let mut reload = layers::reloads(&addr, 3, &mut outcome)?;
    handle.shutdown();
    let (load_ms, build_ms, local) = load_and_build(
        3,
        |p| ModelArtifact::load_file(p).expect("exported artifact loads"),
        build,
        served,
    );
    values.set("serve.artifact_load_ms", load_ms);
    values.set("serve.build_ms", build_ms);
    let serving = layers::probe_serving(&mut values, &local, &schedule, 1);
    values.set(
        "net.stack_p50_us",
        report.latency_ms.median() * 1e3 - serving.batch_p50_us,
    );
    values.set("net.ping_rtt_us", ping.median());
    values.set("net.reload_ms", reload.median());
    values.set(
        "net.wire_bytes_per_req",
        (report.request_bytes + report.response_bytes) as f64 / report.answered.max(1) as f64,
    );
    values.set("driver.late_p99_ms", {
        let mut late = report.late_ms;
        late.percentile(99.0)
    });
    Ok(Measured {
        outcome,
        e2e: Vec::new(),
        layers: values,
    })
}
