//! **Secure-aggregation overhead** — cost of the pairwise-masked upload
//! path (no figure in the paper; this is the measurement companion of
//! the privacy direction, DESIGN.md §10).
//!
//! Sweeps cohort size × injected dropout rate and, for each cell, runs
//! the same federation twice — plaintext and masked — reporting:
//!
//! * upload bytes under masking vs plaintext (dense quantized ring
//!   vectors cannot exploit update sparsity; the ratio is the price of
//!   hiding individual updates), plus the one-off setup traffic (keys +
//!   escrowed share bundles),
//! * wall-clock spent deriving/applying masks and recovering dropped
//!   members' masks from escrow, and
//! * the protocol's bookkeeping: committed participants, dropouts,
//!   recovered masks, and the rounds **lost**: rounds where a group fell
//!   below the escrow threshold, so its uploads were discarded
//!   (`SecAggRoundStats::verified == false`). A lost round is an outcome
//!   to count, not a failure of the binary; the exact-sum check of every
//!   recovered group stays an assertion inside the session.
//!
//! ```text
//! cargo run --release -p hf_bench --bin secagg -- --scale tiny
//! cargo run --release -p hf_bench --bin secagg -- \
//!     --set secagg_scale_bits=20 --json target/secagg.json
//! ```
//!
//! `--set secagg=...` is ignored here (the sweep controls it); the other
//! overrides apply to both twins.

use hetefedrec_core::{Ablation, SessionBuilder, SessionEvent, Strategy, TrainConfig};
use hf_bench::{fmt5, make_split, rule, CliOptions, SnapshotRow};
use hf_dataset::{DatasetProfile, SplitDataset};

const COHORTS: [usize; 3] = [8, 16, 32];
const DROP_RATES: [f64; 3] = [0.0, 0.1, 0.2];

#[derive(Default)]
struct RunStats {
    ndcg: f64,
    upload_bytes: u64,
    setup_bytes: u64,
    participants: u64,
    dropped: u64,
    recovered: u64,
    lost_rounds: u64,
    mask_ms: f64,
    recovery_ms: f64,
}

fn run(cfg: &TrainConfig, split: &SplitDataset) -> RunStats {
    let mut session = SessionBuilder::new(
        cfg.clone(),
        Strategy::HeteFedRec(Ablation::FULL),
        split.clone(),
    )
    .build()
    .expect("valid experiment configuration");
    let mut stats = RunStats::default();
    for event in session.events() {
        match event {
            SessionEvent::Round(report) => {
                stats.upload_bytes += report.upload_bytes;
                if let Some(s) = &report.secagg {
                    stats.setup_bytes += s.setup_bytes;
                    stats.participants += s.participants as u64;
                    stats.dropped += s.dropped as u64;
                    stats.recovered += s.recovered as u64;
                    stats.lost_rounds += u64::from(!s.verified);
                }
            }
            SessionEvent::Epoch(report) => {
                if let Some(eval) = &report.eval {
                    stats.ndcg = eval.overall.ndcg;
                }
            }
        }
    }
    if let Some((mask_nanos, recovery_nanos)) = session.secagg_timing() {
        stats.mask_ms = mask_nanos as f64 / 1e6;
        stats.recovery_ms = recovery_nanos as f64 / 1e6;
    }
    stats
}

fn main() {
    let opts = CliOptions::parse(&[DatasetProfile::MovieLens]);
    let mut snapshot: Vec<SnapshotRow> = Vec::new();
    println!(
        "Secure-aggregation overhead sweep (scale={}, seed={})\n",
        opts.scale.name, opts.seed
    );

    for model in &opts.models {
        for profile in &opts.datasets {
            println!("== {} on {} ==", model.name(), profile.name());
            let split = make_split(*profile, opts.scale, opts.seed);
            let header = format!(
                "{:<7} {:>5} {:>8} {:>12} {:>12} {:>6} {:>10} {:>6} {:>5} {:>5} {:>8} {:>8}",
                "cohort",
                "drop",
                "ndcg",
                "masked_B",
                "plain_B",
                "ratio",
                "setup_B",
                "drops",
                "rec",
                "lost",
                "mask_ms",
                "rcvr_ms"
            );
            println!("{header}\n{}", rule(&header));
            for &cohort in &COHORTS {
                for &drop in &DROP_RATES {
                    let mut cfg = hf_bench::make_config_with(&opts, *model, *profile);
                    cfg.clients_per_round = cohort;
                    cfg.drop_prob = drop;
                    cfg.secagg.enabled = false;
                    let plain = run(&cfg, &split);
                    cfg.secagg.enabled = true;
                    let masked = run(&cfg, &split);
                    let ratio = if plain.upload_bytes == 0 {
                        0.0
                    } else {
                        masked.upload_bytes as f64 / plain.upload_bytes as f64
                    };
                    println!(
                        "{:<7} {:>5.2} {:>8} {:>12} {:>12} {:>6.1} {:>10} {:>6} {:>5} {:>5} {:>8.2} {:>8.2}",
                        cohort,
                        drop,
                        fmt5(masked.ndcg),
                        masked.upload_bytes,
                        plain.upload_bytes,
                        ratio,
                        masked.setup_bytes,
                        masked.dropped,
                        masked.recovered,
                        masked.lost_rounds,
                        masked.mask_ms,
                        masked.recovery_ms,
                    );
                    snapshot.push(
                        SnapshotRow::new()
                            .label("model", model.name())
                            .label("dataset", profile.name())
                            .value("cohort", cohort as f64)
                            .value("drop_prob", drop)
                            .value("masked_ndcg", masked.ndcg)
                            .value("plain_ndcg", plain.ndcg)
                            .value("masked_upload_bytes", masked.upload_bytes as f64)
                            .value("plain_upload_bytes", plain.upload_bytes as f64)
                            .value("upload_ratio", ratio)
                            .value("setup_bytes", masked.setup_bytes as f64)
                            .value("participants", masked.participants as f64)
                            .value("dropped", masked.dropped as f64)
                            .value("recovered", masked.recovered as f64)
                            .value("lost_rounds", masked.lost_rounds as f64)
                            .value("mask_ms", masked.mask_ms)
                            .value("recovery_ms", masked.recovery_ms),
                    );
                }
            }
            println!();
        }
    }
    opts.emit_json(&snapshot);
}
