//! Back-compat contract: v1 `HFAB` artifacts written by older releases
//! must keep loading, and must survive re-encoding as v2 with nothing
//! lost — the fixture under `tests/fixtures/` is a frozen v1 byte
//! stream, so this test fails if the v1 reader drifts. A second fixture
//! freezes the v2 bytes, so every v2 writer (`to_bytes`, `save_file`,
//! `synthesize_to_file`) is pinned against a stream none of them wrote
//! in this build.

use hetefedrec_core::config::TierDims;
use hf_dataset::SyntheticProfile;
use hf_serve::{LazyConfig, ModelArtifact, RecommendRequest, RecommenderBuilder};
use std::path::PathBuf;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/artifact_v1.hfa"
);

const FIXTURE_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/artifact_v2.hfa"
);

/// The artifact the committed fixtures was generated from (small enough
/// to keep the fixture a few tens of KiB, deterministic by seed).
fn fixture_source() -> ModelArtifact {
    ModelArtifact::synthesize(
        &SyntheticProfile::new(48, 120),
        TierDims::new(4, 8, 16),
        2024,
    )
    .expect("fixture profile synthesizes")
}

#[test]
fn v1_fixture_loads_and_reencodes_bit_identically_as_v2() {
    let from_v1 = ModelArtifact::load_file(FIXTURE).expect("v1 fixture loads");
    let source = fixture_source();

    // The decoded v1 document carries the same state the encoder saw...
    assert_eq!(from_v1.num_users(), source.num_users());
    assert_eq!(from_v1.num_items(), source.num_items());
    assert_eq!(
        from_v1.to_bytes(),
        source.to_bytes(),
        "v1 → v2 re-encode drifted"
    );

    // ...and a save_file → load_file round trip through the current (v2)
    // container reproduces it byte for byte, eagerly and lazily.
    let dir = std::env::temp_dir().join(format!("hf_backcompat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reencoded = dir.join("reencoded.hfa");
    from_v1.save_file(&reencoded).expect("save as v2");
    let eager = ModelArtifact::load_file(&reencoded).expect("v2 reload");
    let lazy = ModelArtifact::load_file_lazy(&reencoded, LazyConfig::default()).expect("v2 lazy");
    assert!(lazy.is_lazy());
    assert_eq!(from_v1.to_bytes(), eager.to_bytes());
    assert_eq!(from_v1.to_bytes(), lazy.to_bytes());

    // Rankings are bit-identical across the v1 and v2 loads.
    let reqs: Vec<_> = (0..from_v1.num_users())
        .map(RecommendRequest::new)
        .collect();
    let serve = |a: ModelArtifact| {
        RecommenderBuilder::new(a)
            .default_k(8)
            .panel_items(32)
            .build()
            .unwrap()
            .recommend_batch(&reqs)
    };
    let want = serve(from_v1);
    for got in [serve(eager), serve(lazy)] {
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.items.len(), b.items.len());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.item, y.item, "user {}", a.user);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {}", a.user);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_fixture_matches_every_writer_and_loads_both_ways() {
    let frozen = std::fs::read(FIXTURE_V2).expect("v2 fixture present");
    let source = fixture_source();
    assert_eq!(
        source.to_bytes(),
        frozen,
        "to_bytes drifted from the v2 fixture"
    );

    let dir = std::env::temp_dir().join(format!("hf_backcompat_v2_{}", std::process::id()));
    let saved = dir.join("saved.hfa");
    source.save_file(&saved).expect("save_file");
    assert_eq!(std::fs::read(&saved).unwrap(), frozen, "save_file drifted");
    let streamed = dir.join("streamed.hfa");
    ModelArtifact::synthesize_to_file(
        &SyntheticProfile::new(48, 120),
        TierDims::new(4, 8, 16),
        2024,
        &streamed,
    )
    .expect("synthesize_to_file");
    assert_eq!(
        std::fs::read(&streamed).unwrap(),
        frozen,
        "synthesize_to_file drifted"
    );

    // The frozen bytes load eagerly and lazily with bit-identical rankings.
    let eager = ModelArtifact::load_file(FIXTURE_V2).expect("v2 fixture loads");
    let lazy = ModelArtifact::load_file_lazy(FIXTURE_V2, LazyConfig::default()).expect("lazy");
    assert!(lazy.is_lazy());
    let reqs: Vec<_> = (0..source.num_users()).map(RecommendRequest::new).collect();
    let serve = |a: ModelArtifact| {
        RecommenderBuilder::new(a)
            .default_k(8)
            .panel_items(32)
            .build()
            .unwrap()
            .recommend_batch(&reqs)
    };
    let want = serve(source);
    for got in [serve(eager), serve(lazy)] {
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.items.len(), b.items.len());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.item, y.item, "user {}", a.user);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {}", a.user);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regenerates the committed fixture. Run manually after an *intentional*
/// v1-encoder change (there should never be one — v1 is frozen):
/// `cargo test -p hf_serve --test backcompat -- --ignored`
#[test]
#[ignore = "writes the committed fixture; run only to regenerate it"]
fn regenerate_v1_fixture() {
    let bytes = hf_serve::binfmt::encode_v1(&fixture_source());
    let path = PathBuf::from(FIXTURE);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    println!("wrote {} bytes to {}", bytes.len(), path.display());
}

/// Regenerates the committed v2 fixture. Run manually only after an
/// *intentional* change to the v2 layout, which also needs a new
/// `BINFMT_VERSION`:
/// `cargo test -p hf_serve --test backcompat -- --ignored`
#[test]
#[ignore = "writes the committed fixture; run only to regenerate it"]
fn regenerate_v2_fixture() {
    let bytes = fixture_source().to_bytes();
    std::fs::write(FIXTURE_V2, &bytes).unwrap();
    println!("wrote {} bytes to {FIXTURE_V2}", bytes.len());
}
