//! Lazy, file-backed artifact state.
//!
//! The v2 container ([`crate::binfmt`]) is offset-indexed, so a serving
//! host never has to materialise the whole artifact: this module keeps
//! the file open and decodes state on first touch —
//!
//! * [`LazyTiers`] — per-tier item tables behind `OnceLock`s: a tier
//!   costs nothing until the first request for it, then stays resident
//!   (tables are shared, hot, and bounded at three). The predictors are
//!   a few KB and every recommender build touches all three, so they are
//!   decoded when the file is opened.
//! * [`LazyUsers`] — per-user records behind a **sharded bounded LRU**:
//!   user `u` hashes to shard `u % shards`, each shard caches at most
//!   `shard_capacity` decoded records and evicts least-recently-used, so
//!   resident user state is capped at `shards × capacity` records no
//!   matter how many users the file holds.
//!
//! Opening goes through the same [`binfmt::Container`] reader as the
//! eager load, which validates every offset and length against the file
//! size (section table, tier directories) **before any allocation**, so
//! a hostile file fails with [`ServeError::Artifact`], never an OOM.
//! Per-user directory entries are bounds-checked at touch time. A record
//! fetched lazily is decoded by the same function as its eager twin, so
//! it is bit-identical — the determinism tests in
//! `tests/lazy_serving.rs` pin this.
//!
//! Failure discipline: *structure* (headers, directories, shapes) is
//! validated at open and returns errors; a payload that fails to decode
//! at touch means the file was truncated or rewritten underneath a
//! running server, and panics with a message naming the file. Serving
//! from a file being modified in place is not supported.

use crate::artifact::{ModelArtifact, TierParams, UserRecord, UserStore};
use crate::binfmt::{self, err, ByteSource, Container};
use crate::ServeError;
use hf_dataset::Tier;
use hf_models::Ffn;
use hf_tensor::Matrix;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Tuning for the lazy artifact backend.
#[derive(Clone, Copy, Debug)]
pub struct LazyConfig {
    /// Number of user-cache shards (user `u` lives in shard
    /// `u % user_shards`).
    pub user_shards: usize,
    /// Maximum decoded records held per shard; beyond it the
    /// least-recently-used record is evicted. Total resident user state
    /// is therefore at most `user_shards × shard_capacity` records.
    pub shard_capacity: usize,
}

impl Default for LazyConfig {
    fn default() -> Self {
        Self {
            user_shards: 64,
            shard_capacity: 256,
        }
    }
}

/// A shared handle on the artifact file. Reads seek under a mutex —
/// portable (no pread on stable std), and the hot serving path only
/// touches it on cache misses, which the determinism contract requires
/// to be off the fan-out anyway (user resolution is serial).
#[derive(Debug)]
pub(crate) struct ArtifactFile {
    path: PathBuf,
    len: u64,
    file: Mutex<File>,
}

impl ArtifactFile {
    fn open(path: &Path) -> Result<Self, ServeError> {
        let file =
            File::open(path).map_err(|e| err(format!("cannot open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| err(format!("cannot stat {}: {e}", path.display())))?
            .len();
        Ok(Self {
            path: path.to_path_buf(),
            len,
            file: Mutex::new(file),
        })
    }

    /// Unwraps a touch-time decode. Structure was validated at open, so
    /// a failure means the file changed underneath the server.
    fn touched<T>(&self, decoded: Result<T, ServeError>) -> T {
        decoded.unwrap_or_else(|e| {
            panic!(
                "lazy artifact {} no longer decodes (file modified in place?): {e}",
                self.path.display()
            )
        })
    }
}

impl ByteSource for ArtifactFile {
    fn size(&self) -> u64 {
        self.len
    }

    /// Validates the range against the file size *before* allocating the
    /// buffer.
    fn read_at(&self, off: u64, len: u64) -> Result<Cow<'_, [u8]>, ServeError> {
        let end = off.checked_add(len).filter(|&e| e <= self.len);
        let n = usize::try_from(len).ok().filter(|_| end.is_some());
        let n = n.ok_or_else(|| {
            err(format!(
                "{}: read of {len} bytes at offset {off} exceeds file size {}",
                self.path.display(),
                self.len
            ))
        })?;
        let mut buf = vec![0u8; n];
        let mut f = self.file.lock().expect("artifact file lock");
        f.seek(SeekFrom::Start(off))
            .and_then(|_| f.read_exact(&mut buf))
            .map_err(|e| err(format!("{}: read failed: {e}", self.path.display())))?;
        Ok(Cow::Owned(buf))
    }
}

// ---------------------------------------------------------------------
// Lazy tier tables
// ---------------------------------------------------------------------

/// Per-tier item tables decoded on first touch, and the predictors
/// decoded at open.
#[derive(Clone, Debug)]
pub(crate) struct LazyTiers {
    file: Arc<ArtifactFile>,
    index: binfmt::Tables,
    tables: Arc<[OnceLock<Matrix>; 3]>,
    thetas: Arc<[Ffn; 3]>,
}

impl LazyTiers {
    pub(crate) fn table(&self, tier: Tier) -> &Matrix {
        self.tables[tier.index()]
            .get_or_init(|| self.file.touched(self.index.read(&*self.file, tier)))
    }

    pub(crate) fn theta(&self, tier: Tier) -> &Ffn {
        &self.thetas[tier.index()]
    }
}

// ---------------------------------------------------------------------
// Lazy sharded user store
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ShardCache {
    /// Monotonic use counter; the entry with the smallest stamp is the
    /// least recently used.
    tick: u64,
    map: HashMap<usize, (u64, Arc<UserRecord>)>,
}

#[derive(Debug)]
struct Shard {
    cap: usize,
    inner: Mutex<ShardCache>,
}

/// User records decoded on first touch, cached in a sharded bounded LRU.
#[derive(Clone, Debug)]
pub(crate) struct LazyUsers {
    file: Arc<ArtifactFile>,
    index: binfmt::Users,
    shards: Arc<Vec<Shard>>,
}

impl LazyUsers {
    pub(crate) fn num_users(&self) -> usize {
        self.index.count()
    }

    pub(crate) fn cached_records(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().expect("shard lock").map.len())
            .sum()
    }

    pub(crate) fn user(&self, user: usize) -> Option<Arc<UserRecord>> {
        if user >= self.num_users() {
            return None;
        }
        let shard = &self.shards[user % self.shards.len()];
        let mut cache = shard.inner.lock().expect("shard lock");
        cache.tick += 1;
        let stamp = cache.tick;
        if let Some((tick, record)) = cache.map.get_mut(&user) {
            *tick = stamp;
            return Some(record.clone());
        }
        let record = Arc::new(self.file.touched(self.index.read(&*self.file, user)));
        if cache.map.len() >= shard.cap {
            // Evict the least-recently-used record. Linear scan: shard
            // capacities are small (hundreds), misses are already an
            // I/O, and this keeps the structure a plain HashMap.
            if let Some(&lru) = cache
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(u, _)| u)
            {
                cache.map.remove(&lru);
            }
        }
        cache.map.insert(user, (stamp, record.clone()));
        Some(record)
    }
}

// ---------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------

/// Opens a v2 artifact lazily; v1 files fall back to the eager reader.
/// See [`ModelArtifact::load_file_lazy`].
pub(crate) fn open_lazy(path: &Path, cfg: LazyConfig) -> Result<ModelArtifact, ServeError> {
    if cfg.user_shards == 0 {
        return Err(ServeError::config("user_shards", "must be at least 1"));
    }
    if cfg.shard_capacity == 0 {
        return Err(ServeError::config("shard_capacity", "must be at least 1"));
    }

    let file = Arc::new(ArtifactFile::open(path)?);
    let c = Container::open(&*file)?;
    if !c.is_indexed() {
        // v1 has no directories to seek by — eager is the only path.
        return c.load(&*file);
    }
    let shards = (0..cfg.user_shards)
        .map(|_| Shard {
            cap: cfg.shard_capacity,
            inner: Mutex::new(ShardCache::default()),
        })
        .collect::<Vec<_>>();
    Ok(ModelArtifact::assemble(
        c.meta,
        TierParams::Lazy(LazyTiers {
            file: file.clone(),
            index: c.tables,
            tables: Arc::default(),
            thetas: Arc::new(c.thetas),
        }),
        UserStore::Lazy(LazyUsers {
            file,
            index: c.users,
            shards: Arc::new(shards),
        }),
        c.popularity,
        c.fallback,
    ))
}
