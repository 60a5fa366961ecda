//! In-process probes of the serving layers, timed from the benchmark's
//! side around public calls: artifact load and recommender build
//! (`hf_serve`), the split scorer's halves and tail (`hf_models`),
//! top-k selection (`hf_metrics`), and frame encode/decode (`hf_net`).
//! The serve workloads, the deployed model of `train-paper` and the
//! read path of `refresh-masked` all use them.

use crate::openloop::Schedule;
use crate::outcome::Outcome;
use crate::stats::{median_of, Samples};
use crate::sys;
use crate::trace::{timed, Breakdown, LayerValues};
use hf_dataset::Tier;
use hf_metrics::top_k_scored;
use hf_models::scoring::SplitNcf;
use hf_net::{Client, Frame, WireResponse};
use hf_serve::{ModelArtifact, RecommendRequest, Recommender};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Ranking cutoff every workload serves.
pub const K: usize = 20;

/// Opens an artifact file `repeats` times and builds a recommender over
/// each; returns the medians of both (ms) and the last recommender.
pub fn load_and_build(
    repeats: usize,
    open: impl Fn(&Path) -> ModelArtifact,
    build: impl Fn(ModelArtifact) -> Recommender,
    path: &Path,
) -> (f64, f64, Recommender) {
    let mut load_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let (artifact, load_s) = timed(|| open(path));
        let (recommender, build_s) = timed(|| build(artifact));
        load_ms.push(load_s * 1e3);
        build_ms.push(build_s * 1e3);
        last = Some(recommender);
    }
    (
        median_of(&load_ms),
        median_of(&build_ms),
        last.expect("at least one build"),
    )
}

/// What the serving probes measured, per request of the replayed stream.
pub struct ServeLayers {
    pub batch_p50_us: f64,
    pub batch: usize,
    /// User half plus the per-pair tail over the catalogue, weighted by
    /// the tier mix of the replayed users (ms per request).
    pub models_ms: f64,
    pub topk_us: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Replays `schedule` through `recommender.recommend_batch` in batches of
/// `batch` (the server's batch shape at the workload's rate) and probes
/// the layers under it. Records the per-layer values into `values`.
pub fn probe_serving(
    values: &mut LayerValues,
    recommender: &Recommender,
    schedule: &Schedule,
    batch: usize,
) -> ServeLayers {
    let batch = batch.max(1);
    let requests: Vec<RecommendRequest> = (0..schedule.len())
        .map(|i| schedule.request(i).to_request())
        .collect();
    let mut batch_us = Samples::new();
    let mut last_response = None;
    for chunk in requests.chunks(batch) {
        let (responses, s) = timed(|| recommender.recommend_batch(black_box(chunk)));
        batch_us.push(s * 1e6);
        last_response = responses.into_iter().last();
    }
    let batch_p50_us = batch_us.median();
    let batch_p99_us = batch_us.percentile(if batch_us.supports(99.0) { 99.0 } else { 90.0 });

    // hf_models and hf_metrics, per tier, weighted by the replayed mix.
    let artifact = recommender.artifact();
    let mut tier_counts = [0usize; 3];
    for request in requests.iter().take(2000) {
        if let Some(user) = artifact.user(request.user) {
            tier_counts[user.tier.index()] += 1;
        }
    }
    let known: usize = tier_counts.iter().sum::<usize>().max(1);
    let mut models_ms = 0.0;
    let mut topk_us = 0.0;
    for tier in Tier::ALL {
        let probe = score_tier(artifact, tier);
        let share = tier_counts[tier.index()] as f64 / known as f64;
        models_ms +=
            share * (probe.user_half_us / 1e3 + probe.finish_ns * probe.items as f64 / 1e6);
        topk_us += share * probe.topk_us;
        if tier == Tier::Large {
            values.set("models.finish_ns_per_pair", probe.finish_ns);
            values.set("models.item_half_block_ms", probe.item_half_ms);
            values.set("models.user_half_us", probe.user_half_us);
            println!(
                "scoring, large tier (dim {}, {} items): item half (whole catalogue, once) {:.3} ms, \
                 user half {:.3} us, per-pair tail {:.1} ns; for 64 users the tail is {:.2} ms, \
                 {:.1}% of scoring (item half + user halves + tail)",
                artifact.dims().dim(tier),
                probe.items,
                probe.item_half_ms,
                probe.user_half_us,
                probe.finish_ns,
                64.0 * probe.items as f64 * probe.finish_ns / 1e6,
                100.0 * (64.0 * probe.items as f64 * probe.finish_ns)
                    / (probe.item_half_ms * 1e6
                        + 64.0 * probe.user_half_us * 1e3
                        + 64.0 * probe.items as f64 * probe.finish_ns)
            );
        }
    }

    // hf_net frames: the stream's own request and answer shapes.
    let request = Frame::Request(schedule.request(0));
    let response = Frame::Response(WireResponse::from_response(
        1,
        1,
        last_response.as_ref().expect("replay answered"),
    ));
    let (encode_ns, decode_ns) = frame_costs(&[request, response]);

    values.set("metrics.topk_us", topk_us);
    values.set("serve.recommend_batch_p50_us", batch_p50_us);
    values.set("serve.recommend_batch_p99_us", batch_p99_us);
    values.set(
        "serve.cached_user_records",
        artifact.cached_user_records() as f64,
    );
    values.set(
        "serve.cached_item_half_panels",
        recommender.cached_item_half_panels() as f64,
    );
    values.set("net.frame_encode_ns", encode_ns);
    values.set("net.frame_decode_ns", decode_ns);
    ServeLayers {
        batch_p50_us,
        batch,
        models_ms,
        topk_us,
        encode_ns,
        decode_ns,
    }
}

/// Adds the serving rows to a breakdown of `serve_p50_ms`.
pub fn serving_breakdown(b: &mut Breakdown, l: &ServeLayers, ping_rtt_us: f64) {
    let batch_ms = l.batch_p50_us / 1e3 / l.batch as f64;
    let topk_ms = l.topk_us / 1e3;
    b.span(
        "hf_net",
        "Client::ping round trip under load",
        ping_rtt_us / 1e3,
        0.0,
    );
    b.span(
        "hf_net",
        "Frame encode + read_from, request and answer",
        2.0 * (l.encode_ns + l.decode_ns) / 1e6,
        0.0,
    );
    b.span(
        "hf_serve",
        format!("recommend_batch p50 (batch {}) per request", l.batch),
        batch_ms,
        l.models_ms + topk_ms,
    );
    b.span(
        "hf_models",
        "user_half + finish x catalogue",
        l.models_ms,
        0.0,
    );
    b.span(
        "hf_metrics",
        "top_k_scored over the catalogue",
        topk_ms,
        0.0,
    );
    b.unreachable("server queue wait (reader thread to batcher)");
    b.unreachable("batch assembly and the coalescing window");
    b.unreachable("socket write of the answer");
}

struct TierProbe {
    items: usize,
    item_half_ms: f64,
    user_half_us: f64,
    finish_ns: f64,
    topk_us: f64,
}

/// Times one tier's scorer over the whole catalogue: the item-half
/// block, the user half, the per-pair tail and top-k over the scores.
fn score_tier(artifact: &ModelArtifact, tier: Tier) -> TierProbe {
    let dim = artifact.dims().dim(tier);
    let scorer = SplitNcf::from_ffn(dim, artifact.theta(tier));
    let table = artifact.table(tier);
    let items = artifact.num_items();
    let mut block_ms = Vec::new();
    let mut halves = None;
    for _ in 0..3 {
        let (h, s) = timed(|| scorer.item_half_block(table, 0, items));
        block_ms.push(s * 1e3);
        halves = Some(h);
    }
    let halves = halves.expect("three blocks");
    let user = artifact.fallback(tier).to_vec();

    let reps = 2000;
    let (_, s) = timed(|| {
        for _ in 0..reps {
            black_box(scorer.user_half(black_box(&user)));
        }
    });
    let user_half_us = s * 1e6 / reps as f64;

    let user_half = scorer.user_half(&user);
    let mut ws = scorer.workspace();
    let mut scores = vec![0.0f32; items];
    let passes = (200_000 / items).clamp(3, 200);
    let (_, s) = timed(|| {
        for _ in 0..passes {
            for (i, score) in scores.iter_mut().enumerate() {
                *score = scorer.finish(black_box(&user_half), halves.row(i), &mut ws);
            }
            black_box(&scores);
        }
    });
    let finish_ns = s * 1e9 / (passes * items) as f64;

    let reps = passes * 4;
    let (_, s) = timed(|| {
        for _ in 0..reps {
            black_box(top_k_scored(black_box(&scores), K, 0, &[]));
        }
    });
    TierProbe {
        items,
        item_half_ms: median_of(&block_ms),
        user_half_us,
        finish_ns,
        topk_us: s * 1e6 / reps as f64,
    }
}

/// Runs `f` (a load phase) while a second connection pings the server
/// every 10 ms: `Client::ping` round trips under the workload's load
/// (µs).
pub fn with_pings<T>(addr: &str, f: impl FnOnce() -> T) -> (T, Samples) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pinger = scope.spawn(|| {
            sys::pin(sys::Cpus::Driver);
            let mut rtt = Samples::new();
            if let Ok(mut client) = Client::connect(addr) {
                while !stop.load(Ordering::SeqCst) {
                    if let (Ok(()), s) = timed(|| client.ping()) {
                        rtt.push(s * 1e6);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            rtt
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        (out, pinger.join().expect("ping probe panicked"))
    })
}

/// `Client::reload` round trips with no export before them (ms); each
/// is a reload operation in `outcome`.
pub fn reloads(addr: &str, n: usize, outcome: &mut Outcome) -> Result<Samples, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut ms = Samples::new();
    for _ in 0..n {
        if let (Ok(_), s) = timed(|| client.reload()) {
            ms.push(s * 1e3);
        }
    }
    outcome.count("reload", n as u64, (n - ms.len()) as u64);
    Ok(ms)
}

/// Mean `Frame::encode` and `Frame::read_from` cost per frame (ns).
pub fn frame_costs(frames: &[Frame]) -> (f64, f64) {
    let reps = 20_000;
    let (_, s) = timed(|| {
        for _ in 0..reps {
            for frame in frames {
                black_box(black_box(frame).encode());
            }
        }
    });
    let encode_ns = s * 1e9 / (reps * frames.len()) as f64;
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(Frame::encode)
        .map(|payload| {
            let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            bytes
        })
        .collect();
    let (_, s) = timed(|| {
        for _ in 0..reps {
            for bytes in &wire {
                let mut input: &[u8] = black_box(bytes);
                black_box(Frame::read_from(&mut input).expect("valid frame"));
            }
        }
    });
    (encode_ns, s * 1e9 / (reps * frames.len()) as f64)
}
