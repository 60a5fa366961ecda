//! Million-scale artifact synthesis.
//!
//! Capacity work needs artifacts whose *scale* is real even though their
//! *weights* are not: proving that lazy loading holds resident memory at
//! a million users requires a million-user file, and training one is
//! beside the point. This module turns an
//! [`hf_dataset::SyntheticProfile`] into a served artifact two ways:
//!
//! * [`ModelArtifact::synthesize`] — materialise everything in memory
//!   (the eager reference, fine up to a few hundred thousand users);
//! * [`ModelArtifact::synthesize_to_file`] — stream the v2 container
//!   straight to disk through the [`crate::binfmt`] writer, holding one
//!   table chunk / one user record at a time plus the 12-byte-per-user
//!   directory, so a 1M×1M artifact builds in bounded memory.
//!
//! **Byte-identity contract**: both paths draw every parameter from the
//! same generators, purpose-keyed RNG streams consumed in the same order,
//! so `synthesize(p, d, s).save_file(x)` and
//! `synthesize_to_file(p, d, s, x)` write the *same bytes* — pinned by a
//! test, and the foundation the capacity bench stands on (its lazy and
//! eager measurements really are the same model).

use crate::artifact::{ModelArtifact, TierMeans, TierParams, UserRecord, UserStore};
use crate::binfmt::{self, Meta, Source};
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::{SyntheticProfile, Tier};
use hf_models::{paper_predictor_dims, Ffn, ModelKind};
use hf_tensor::rng::{substream, Rng, SeedStream};
use hf_tensor::Matrix;
use std::io;

/// Purpose keys for the synthesis RNG streams (disjoint from the
/// dataset-profile key and from every other `Custom` stream).
const KEY_TABLE: u64 = 0x7362_7431; // "sbt1"
const KEY_THETA: u64 = 0x7362_7432;
const KEY_USER: u64 = 0x7362_7433;

/// Init scale for synthesized tables and embeddings.
const SCALE: f32 = 0.1;

/// Table rows synthesized per chunk.
const ROWS_PER_CHUNK: usize = 4096;

/// What [`ModelArtifact::synthesize_to_file`] wrote — the analytic
/// breakdown capacity benches report alongside measured footprints.
#[derive(Clone, Copy, Debug)]
pub struct SynthStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// The `tables` section payload (directory + three matrices).
    pub tables_bytes: u64,
    /// The `users` section payload (directory + all records) — the term
    /// an eager load pays in full and a lazy load caps at the shard LRU.
    pub users_bytes: u64,
    /// Total interactions across all users.
    pub interactions: u64,
}

/// Extends `out` with `n` scaled normal draws — the single source of
/// table/embedding values.
fn fill_normal(rng: &mut impl Rng, out: &mut Vec<f32>, n: usize) {
    out.extend(std::iter::repeat_with(|| rng.standard_normal_f32() * SCALE).take(n));
}

/// The seeded generators of one synthetic artifact, as a writer source:
/// tables come in [`ROWS_PER_CHUNK`]-row chunks and records one at a
/// time, with popularity, interactions and the fallback tallied as the
/// records pass.
struct Synth<'a> {
    profile: &'a SyntheticProfile,
    dims: TierDims,
    seed: u64,
    thetas: [Ffn; 3],
    popularity: Vec<u32>,
    means: TierMeans,
    interactions: u64,
}

impl<'a> Synth<'a> {
    fn new(profile: &'a SyntheticProfile, dims: TierDims, seed: u64) -> Result<Self, ServeError> {
        profile
            .validate()
            .map_err(|e| ServeError::Artifact(format!("bad synthetic profile: {e}")))?;
        Ok(Self {
            profile,
            dims,
            seed,
            thetas: std::array::from_fn(|t| {
                let mut rng = substream(seed, SeedStream::Custom(KEY_THETA), t as u64);
                Ffn::new(&paper_predictor_dims(dims.dim(Tier::ALL[t])), &mut rng)
            }),
            popularity: vec![0; profile.num_items],
            means: TierMeans::new(&dims),
            interactions: 0,
        })
    }
}

impl Source for Synth<'_> {
    fn meta(&self) -> Meta {
        Meta {
            model: ModelKind::Ncf,
            standalone: false,
            dims: self.dims,
            num_items: self.profile.num_items,
            num_users: self.profile.num_users,
        }
    }

    fn table_rows(
        &mut self,
        tier: Tier,
        emit: &mut dyn FnMut(&[f32]) -> io::Result<()>,
    ) -> io::Result<()> {
        let cols = self.dims.dim(tier);
        let mut rng = substream(
            self.seed,
            SeedStream::Custom(KEY_TABLE),
            tier.index() as u64,
        );
        let mut chunk = Vec::with_capacity(ROWS_PER_CHUNK * cols);
        for start in (0..self.profile.num_items).step_by(ROWS_PER_CHUNK) {
            let rows = ROWS_PER_CHUNK.min(self.profile.num_items - start);
            chunk.clear();
            fill_normal(&mut rng, &mut chunk, rows * cols);
            emit(&chunk)?;
        }
        Ok(())
    }

    fn predictor(&self, tier: Tier) -> &Ffn {
        &self.thetas[tier.index()]
    }

    fn records(&mut self, emit: &mut dyn FnMut(&UserRecord) -> io::Result<()>) -> io::Result<()> {
        for user in 0..self.profile.num_users {
            let (tier, history) = self.profile.user(self.seed, user);
            let mut rng = substream(self.seed, SeedStream::Custom(KEY_USER), user as u64 + 1);
            let mut emb = Vec::with_capacity(self.dims.dim(tier));
            fill_normal(&mut rng, &mut emb, self.dims.dim(tier));
            for &item in &history {
                self.popularity[item as usize] += 1;
            }
            self.interactions += history.len() as u64;
            self.means.add(tier, &emb);
            emit(&UserRecord {
                tier,
                emb,
                history,
                solo: None,
            })?;
        }
        Ok(())
    }

    fn popularity_counts(&self) -> &[u32] {
        &self.popularity
    }

    fn fallbacks(&self) -> [Vec<f32>; 3] {
        self.means.finish()
    }
}

impl ModelArtifact {
    /// Builds an in-memory artifact from a capacity profile: NCF model,
    /// per-tier tables and paper-architecture predictors with seeded
    /// normal weights, one user record per profile user (no standalone
    /// state). Deterministic in `(profile, dims, seed)` and — record for
    /// record, byte for byte — identical to what
    /// [`ModelArtifact::synthesize_to_file`] writes.
    pub fn synthesize(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
    ) -> Result<Self, ServeError> {
        let mut synth = Synth::new(profile, dims, seed)?;
        let num_items = profile.num_items;
        let tables = Tier::ALL.map(|tier| {
            let mut data = Vec::with_capacity(num_items * dims.dim(tier));
            synth
                .table_rows(tier, &mut |rows| {
                    data.extend_from_slice(rows);
                    Ok(())
                })
                .expect("collecting in memory cannot fail");
            Matrix::from_vec(num_items, dims.dim(tier), data)
        });
        let mut users = Vec::with_capacity(profile.num_users);
        synth
            .records(&mut |record| {
                users.push(record.clone());
                Ok(())
            })
            .expect("collecting in memory cannot fail");
        let fallback = synth.fallbacks();
        Ok(Self {
            model: ModelKind::Ncf,
            dims,
            standalone: false,
            num_items,
            params: TierParams::Eager {
                tables: Box::new(tables),
                thetas: Box::new(synth.thetas),
            },
            users: UserStore::Eager(users),
            popularity: synth.popularity,
            fallback,
        })
    }

    /// Streams a synthesized v2 artifact straight to `path` in bounded
    /// memory: tables go out in [`ROWS_PER_CHUNK`]-row chunks, user
    /// records one at a time (their directory accumulates at 12 bytes
    /// per user and is back-patched at the end). Byte-identical to
    /// `synthesize(...)?.save_file(path)`.
    pub fn synthesize_to_file(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SynthStats, ServeError> {
        let mut synth = Synth::new(profile, dims, seed)?;
        let written = binfmt::write_file(path.as_ref(), &mut synth)?;
        Ok(SynthStats {
            file_bytes: written.file,
            tables_bytes: written.tables,
            users_bytes: written.users,
            interactions: synth.interactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_dataset::SyntheticProfile;

    #[test]
    fn streaming_and_eager_synthesis_are_byte_identical() {
        let profile = SyntheticProfile::new(600, 900);
        let dims = TierDims::new(4, 8, 16);
        let dir = std::env::temp_dir().join(format!("hf_synth_test_{}", std::process::id()));
        let path = dir.join("streamed.hfa");
        let stats = ModelArtifact::synthesize_to_file(&profile, dims, 42, &path).expect("streamed");
        let streamed = std::fs::read(&path).expect("file");
        let eager = ModelArtifact::synthesize(&profile, dims, 42).expect("eager");
        assert_eq!(
            eager.to_bytes(),
            streamed,
            "streaming writer must reproduce the eager encoder byte for byte"
        );
        assert_eq!(stats.file_bytes, streamed.len() as u64);
        assert!(stats.users_bytes > 0 && stats.tables_bytes > 0);
        let total: u64 = (0..eager.num_items() as u32)
            .map(|i| eager.popularity(i) as u64)
            .sum();
        assert_eq!(total, stats.interactions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesis_is_deterministic_and_validated() {
        let profile = SyntheticProfile::new(50, 200);
        let dims = TierDims::new(4, 8, 16);
        let a = ModelArtifact::synthesize(&profile, dims, 7).unwrap();
        let b = ModelArtifact::synthesize(&profile, dims, 7).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = ModelArtifact::synthesize(&profile, dims, 8).unwrap();
        assert_ne!(a.to_bytes(), c.to_bytes(), "seed must matter");
        assert!(ModelArtifact::synthesize(&SyntheticProfile::new(0, 10), dims, 1).is_err());
    }
}
