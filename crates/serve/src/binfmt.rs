//! Compact binary on-disk format for [`ModelArtifact`].
//!
//! Serving hosts should boot from a file, not by replaying a training
//! checkpoint restore: the JSON checkpoint carries optimiser moments,
//! scheduler queues, and RNG state the deployment side never reads, and
//! parsing it costs a full session rebuild. This module is the
//! deployment-shaped alternative — exactly the artifact fields, encoded
//! through the workspace-wide little-endian [`hf_fedsim::wire`]
//! primitives, floats as raw IEEE-754 bits so a reload is **bit-identical**
//! to the exported artifact.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic       b"HFAB"
//! container   u16   BINFMT_VERSION (2; v1 files still decode)
//! schema      u32   ARTIFACT_VERSION the payload snapshots
//! sections    tag:u8  len:u64  payload:[u8; len]   (repeated until EOF)
//! ```
//!
//! Both container versions require each of the six sections (`meta`,
//! `tables`, `thetas`, `users`, `popularity`, `fallback`) exactly once,
//! in any order; unknown tags and duplicates are errors. Every count and
//! section length is validated against `meta` and against the remaining
//! buffer/file size *before* any payload allocation, so hostile inputs
//! fail with [`ServeError::Artifact`] instead of panicking or
//! over-allocating.
//!
//! **Version 2 is offset-indexed** so sections can be mapped lazily by
//! [`crate::lazy`]:
//!
//! * `users` — a fixed-width directory (`num_users` × `(off: u64,
//!   len: u32)`, offsets relative to the payload block that follows the
//!   directory) and then the per-record payloads. One user decodes with
//!   two bounded reads and no scan over earlier records.
//! * `tables` — a per-tier directory (`3 × (off: u64, len: u64,
//!   rows: u64, cols: u32)`) then the matrix payloads, so a reader can
//!   validate shapes and decode one tier on first touch.
//! * `thetas` — a per-tier directory (`3 × (off: u64, len: u64)`) then
//!   the predictor payloads.
//!
//! Directories are canonical: entries must be contiguous, in tier/user
//! order, and cover the payload block exactly, which preserves the
//! `encode(decode(b)) == b` round-trip property. `meta`, `popularity`,
//! and `fallback` payloads are unchanged from v1. Version 1 documents
//! (no directories) still load via the eager path.
//!
//! This module is the only code that knows the layout. One writer
//! ([`write_v2`] over any [`Source`]) produces every v2 file, whether the
//! source is a loaded artifact or the streaming synthesizer; one reader
//! ([`Container::open`] over any [`ByteSource`]) walks the section table
//! and validates the directories for the eager and the lazy load alike.

use crate::artifact::{
    ModelArtifact, SoloModel, TierParams, UserRecord, UserStore, ARTIFACT_VERSION,
};
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::Tier;
use hf_fedsim::wire::{Reader, Writer};
use hf_models::{Ffn, ModelKind};
use hf_tensor::Matrix;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: "HeteFedrec Artifact Binary".
const MAGIC: &[u8; 4] = b"HFAB";

/// Container format version this module writes. The reader also accepts
/// version-1 files (the whole-section layout) via the eager path.
pub const BINFMT_VERSION: u16 = 2;

/// Oldest container version the reader still accepts.
pub const MIN_BINFMT_VERSION: u16 = 1;

/// Section tags (all mandatory, each exactly once).
const SEC_META: u8 = 1;
const SEC_TABLES: u8 = 2;
const SEC_THETAS: u8 = 3;
const SEC_USERS: u8 = 4;
const SEC_POPULARITY: u8 = 5;
const SEC_FALLBACK: u8 = 6;

/// Bytes before the first section: magic + container + schema.
const HEADER_LEN: u64 = 4 + 2 + 4;
/// Bytes of one section header: tag + length.
const SECTION_HEADER_LEN: u64 = 1 + 8;
/// Bytes of one `users` directory entry: `off: u64, len: u32`.
const USER_DIR_ENTRY: u64 = 8 + 4;
/// Bytes of one `tables` directory entry: `off, len, rows: u64, cols: u32`.
const TABLE_DIR_ENTRY: u64 = 8 + 8 + 8 + 4;
/// Bytes of one `thetas` directory entry: `off: u64, len: u64`.
const THETA_DIR_ENTRY: u64 = 8 + 8;
/// Bytes of a matrix payload before its values: `rows: u64, cols: u32`.
const MATRIX_HEADER: u64 = 8 + 4;

/// Record bytes the writer buffers before handing them to the output.
const RECORD_BATCH: usize = 1 << 16;

pub(crate) fn err(msg: impl Into<String>) -> ServeError {
    ServeError::Artifact(msg.into())
}

/// Decoded `meta` section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Meta {
    pub model: ModelKind,
    pub standalone: bool,
    pub dims: TierDims,
    pub num_items: usize,
    pub num_users: usize,
}

/// An absolute byte range of the container.
#[derive(Clone, Copy, Debug)]
struct Span {
    off: u64,
    len: u64,
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// What [`write_v2`] streams, asked for in file order. `popularity_counts`
/// and `fallbacks` come after `records`, so a source may tally them while
/// its records stream.
pub(crate) trait Source {
    fn meta(&self) -> Meta;
    /// Emits one tier's table row-major, in chunks of any size.
    fn table_rows(
        &mut self,
        tier: Tier,
        emit: &mut dyn FnMut(&[f32]) -> io::Result<()>,
    ) -> io::Result<()>;
    fn predictor(&self, tier: Tier) -> &Ffn;
    /// Emits every user record in id order.
    fn records(&mut self, emit: &mut dyn FnMut(&UserRecord) -> io::Result<()>) -> io::Result<()>;
    fn popularity_counts(&self) -> &[u32];
    fn fallbacks(&self) -> [Vec<f32>; 3];
}

impl Source for &ModelArtifact {
    fn meta(&self) -> Meta {
        Meta {
            model: self.model,
            standalone: self.standalone,
            dims: self.dims,
            num_items: self.num_items,
            num_users: self.num_users(),
        }
    }

    fn table_rows(
        &mut self,
        tier: Tier,
        emit: &mut dyn FnMut(&[f32]) -> io::Result<()>,
    ) -> io::Result<()> {
        emit(self.table(tier).as_slice())
    }

    fn predictor(&self, tier: Tier) -> &Ffn {
        self.theta(tier)
    }

    fn records(&mut self, emit: &mut dyn FnMut(&UserRecord) -> io::Result<()>) -> io::Result<()> {
        (0..self.num_users()).try_for_each(|u| emit(&self.user(u).expect("user in range")))
    }

    fn popularity_counts(&self) -> &[u32] {
        &self.popularity
    }

    fn fallbacks(&self) -> [Vec<f32>; 3] {
        self.fallback.clone()
    }
}

/// Section lengths [`write_v2`] produced.
pub(crate) struct Written {
    /// The `tables` section payload (directory + three matrices).
    pub tables: u64,
    /// The `users` section payload (directory + all records).
    pub users: u64,
    /// The whole container.
    pub file: u64,
}

/// Writes the v2 container: the only code that writes its section
/// headers and directories. Tables and records stream straight from the
/// source. The `users` length and directory are known only once every
/// record is out, so both are written as zeros and back-patched; the
/// directory is held meanwhile at 12 bytes per user.
pub(crate) fn write_v2<W: Write + Seek>(out: &mut W, src: &mut impl Source) -> io::Result<Written> {
    let meta = src.meta();
    let mut w = Writer::new();
    put_header(&mut w, BINFMT_VERSION);
    section(SEC_META, &meta_payload(&meta), &mut w);

    // A table's length is analytic (header + 4 bytes per value), so the
    // directory goes out before the values stream.
    let table_len = |tier: Tier| MATRIX_HEADER + 4 * (meta.num_items * meta.dims.dim(tier)) as u64;
    let tables = 3 * TABLE_DIR_ENTRY + Tier::ALL.map(table_len).iter().sum::<u64>();
    w.put_u8(SEC_TABLES);
    w.put_u64_le(tables);
    let mut off = 0;
    for tier in Tier::ALL {
        w.put_u64_le(off);
        w.put_u64_le(table_len(tier));
        w.put_u64_le(meta.num_items as u64);
        w.put_u32_le(meta.dims.dim(tier) as u32);
        off += table_len(tier);
    }
    out.write_all(w.as_slice())?;
    for tier in Tier::ALL {
        let mut w = Writer::new();
        w.put_u64_le(meta.num_items as u64);
        w.put_u32_le(meta.dims.dim(tier) as u32);
        out.write_all(w.as_slice())?;
        let mut values = 0;
        src.table_rows(tier, &mut |rows| {
            values += rows.len();
            write_f32s(out, rows)
        })?;
        assert_eq!(
            values,
            meta.num_items * meta.dims.dim(tier),
            "{tier:?} table size"
        );
    }

    let thetas = Tier::ALL.map(|tier| {
        let mut p = Writer::new();
        put_ffn(&mut p, src.predictor(tier));
        p
    });
    let mut w = Writer::new();
    w.put_u8(SEC_THETAS);
    w.put_u64_le(3 * THETA_DIR_ENTRY + thetas.iter().map(|p| p.len() as u64).sum::<u64>());
    let mut off = 0;
    for p in &thetas {
        w.put_u64_le(off);
        w.put_u64_le(p.len() as u64);
        off += p.len() as u64;
    }
    for p in &thetas {
        w.put_bytes(p.as_slice());
    }
    out.write_all(w.as_slice())?;

    let users_at = out.stream_position()?;
    let dir_len = meta.num_users as u64 * USER_DIR_ENTRY;
    out.write_all(&[SEC_USERS])?;
    io::copy(&mut io::repeat(0).take(8 + dir_len), out)?;
    let mut dir = Writer::with_capacity(dir_len as usize);
    let mut batch = Writer::new();
    let mut block = 0u64;
    src.records(&mut |user| {
        let start = batch.len();
        put_user(&mut batch, user);
        let len = batch.len() - start;
        assert!(len <= u32::MAX as usize, "user record over 4 GiB");
        dir.put_u64_le(block);
        dir.put_u32_le(len as u32);
        block += len as u64;
        if batch.len() >= RECORD_BATCH {
            out.write_all(batch.as_slice())?;
            batch = Writer::with_capacity(2 * RECORD_BATCH);
        }
        Ok(())
    })?;
    out.write_all(batch.as_slice())?;
    assert_eq!(dir.len() as u64, dir_len, "one record per user");
    let users = dir_len + block;
    out.seek(SeekFrom::Start(users_at + 1))?;
    out.write_all(&users.to_le_bytes())?;
    out.write_all(dir.as_slice())?;
    out.seek(SeekFrom::End(0))?;

    let mut w = Writer::new();
    section(
        SEC_POPULARITY,
        &popularity_payload(src.popularity_counts()),
        &mut w,
    );
    section(SEC_FALLBACK, &fallback_payload(&src.fallbacks()), &mut w);
    out.write_all(w.as_slice())?;
    Ok(Written {
        tables,
        users,
        file: out.stream_position()?,
    })
}

/// [`write_v2`] into a new file at `path`, creating parent directories.
pub(crate) fn write_file(path: &Path, src: &mut impl Source) -> Result<Written, ServeError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| err(format!("cannot create {}: {e}", parent.display())))?;
    }
    let io = |e: io::Error| err(format!("cannot write {}: {e}", path.display()));
    let mut out = io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let written = write_v2(&mut out, src).map_err(io)?;
    out.flush().map_err(io)?;
    Ok(written)
}

/// Encodes an artifact into the current (v2, offset-indexed) container.
pub fn encode(a: &ModelArtifact) -> Vec<u8> {
    let values: usize = Tier::ALL.map(|t| a.num_items * a.dims.dim(t)).iter().sum();
    let mut out = io::Cursor::new(Vec::with_capacity(64 + 4 * values));
    write_v2(&mut out, &mut &*a).expect("writing to memory cannot fail");
    out.into_inner()
}

/// Encodes an artifact in the legacy v1 container (whole-section
/// payloads, no directories). Kept for back-compat fixtures and tests;
/// new files should use [`encode`].
pub fn encode_v1(a: &ModelArtifact) -> Vec<u8> {
    let mut out = Writer::new();
    put_header(&mut out, 1);
    section(SEC_META, &meta_payload(&Source::meta(&a)), &mut out);

    let mut w = Writer::new();
    for tier in Tier::ALL {
        put_matrix(&mut w, a.table(tier));
    }
    section(SEC_TABLES, &w, &mut out);

    let mut w = Writer::new();
    for tier in Tier::ALL {
        put_ffn(&mut w, a.theta(tier));
    }
    section(SEC_THETAS, &w, &mut out);

    let mut w = Writer::new();
    for u in 0..a.num_users() {
        put_user(&mut w, &a.user(u).expect("user in range"));
    }
    section(SEC_USERS, &w, &mut out);

    section(SEC_POPULARITY, &popularity_payload(&a.popularity), &mut out);
    section(SEC_FALLBACK, &fallback_payload(&a.fallback), &mut out);
    out.into_vec()
}

fn put_header(out: &mut Writer, container: u16) {
    out.put_bytes(MAGIC);
    out.put_u16_le(container);
    out.put_u32_le(ARTIFACT_VERSION as u32);
}

fn section(tag: u8, payload: &Writer, out: &mut Writer) {
    out.put_u8(tag);
    out.put_u64_le(payload.len() as u64);
    out.put_bytes(payload.as_slice());
}

fn write_f32s(out: &mut impl Write, values: &[f32]) -> io::Result<()> {
    for chunk in values.chunks(RECORD_BATCH / 4) {
        let mut w = Writer::with_capacity(4 * chunk.len());
        for &x in chunk {
            w.put_f32_le(x);
        }
        out.write_all(w.as_slice())?;
    }
    Ok(())
}

fn meta_payload(m: &Meta) -> Writer {
    let mut w = Writer::new();
    w.put_u8(model_tag(m.model));
    w.put_u8(m.standalone as u8);
    for tier in Tier::ALL {
        w.put_u32_le(m.dims.dim(tier) as u32);
    }
    w.put_u64_le(m.num_items as u64);
    w.put_u64_le(m.num_users as u64);
    w
}

fn popularity_payload(popularity: &[u32]) -> Writer {
    let mut w = Writer::with_capacity(4 * popularity.len());
    for &p in popularity {
        w.put_u32_le(p);
    }
    w
}

fn fallback_payload(fallback: &[Vec<f32>; 3]) -> Writer {
    let mut w = Writer::new();
    for f in fallback {
        w.put_u32_le(f.len() as u32);
        for &x in f {
            w.put_f32_le(x);
        }
    }
    w
}

/// Encodes one user record (shared between v1 and v2 — v2 just indexes
/// the same bytes).
fn put_user(w: &mut Writer, user: &UserRecord) {
    w.put_u8(user.tier.index() as u8);
    w.put_u32_le(user.emb.len() as u32);
    for &x in &user.emb {
        w.put_f32_le(x);
    }
    w.put_u32_le(user.history.len() as u32);
    for &item in &user.history {
        w.put_u32_le(item);
    }
    match &user.solo {
        None => w.put_u8(0),
        Some(solo) => {
            w.put_u8(1);
            put_ffn(w, &solo.theta);
            // Deterministic row order: the HashMap iteration order must
            // not leak into the file bytes.
            let mut rows: Vec<(&u32, &Vec<f32>)> = solo.rows.iter().collect();
            rows.sort_by_key(|(&item, _)| item);
            w.put_u32_le(rows.len() as u32);
            for (&item, row) in rows {
                w.put_u32_le(item);
                w.put_u32_le(row.len() as u32);
                for &x in row {
                    w.put_f32_le(x);
                }
            }
        }
    }
}

fn put_matrix(w: &mut Writer, m: &Matrix) {
    w.put_u64_le(m.rows() as u64);
    w.put_u32_le(m.cols() as u32);
    for &x in m.as_slice() {
        w.put_f32_le(x);
    }
}

fn put_ffn(w: &mut Writer, ffn: &Ffn) {
    let dims = ffn.dims();
    w.put_u32_le(dims.len() as u32);
    for &d in dims {
        w.put_u32_le(d as u32);
    }
    let flat = ffn.to_flat();
    w.put_u64_le(flat.len() as u64);
    for &x in &flat {
        w.put_f32_le(x);
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Random access to container bytes: a whole file in memory, or an open
/// file read on demand.
pub(crate) trait ByteSource {
    fn size(&self) -> u64;
    /// Exactly `len` bytes at `off`. The range is checked against
    /// `size()` before anything is allocated.
    fn read_at(&self, off: u64, len: u64) -> Result<Cow<'_, [u8]>, ServeError>;
}

impl ByteSource for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_at(&self, off: u64, len: u64) -> Result<Cow<'_, [u8]>, ServeError> {
        off.checked_add(len)
            .filter(|&end| end <= self.size())
            .map(|end| Cow::Borrowed(&self[off as usize..end as usize]))
            .ok_or_else(|| {
                err(format!(
                    "read of {len} bytes at offset {off} exceeds size {}",
                    self.len()
                ))
            })
    }
}

fn read_span<S: ByteSource + ?Sized>(src: &S, s: Span) -> Result<Cow<'_, [u8]>, ServeError> {
    src.read_at(s.off, s.len)
}

/// A container whose structure is validated: the section table, `meta`,
/// every directory, and the small sections, which are decoded here along
/// with the three predictors. What stays on the source is indexed by
/// [`Tables`] and [`Users`].
pub(crate) struct Container {
    pub meta: Meta,
    pub thetas: [Ffn; 3],
    pub popularity: Vec<u32>,
    pub fallback: [Vec<f32>; 3],
    pub tables: Tables,
    pub users: Users,
}

impl Container {
    /// Reads and validates a container of either version.
    pub(crate) fn open<S: ByteSource + ?Sized>(src: &S) -> Result<Self, ServeError> {
        let header = src.read_at(0, HEADER_LEN.min(src.size()))?;
        let v1 = parse_header(&mut Reader::new(&header))? == 1;
        let sections = sections(src)?;
        let section = |tag: u8, name: &str| {
            sections[tag as usize].ok_or_else(|| err(format!("missing `{name}` section")))
        };

        let meta = parse_meta(&read_span(src, section(SEC_META, "meta")?)?)?;
        let tables = Tables::open(src, section(SEC_TABLES, "tables")?, &meta, v1)?;

        let (dir, block) = split(
            section(SEC_THETAS, "thetas")?,
            v1,
            "thetas",
            3,
            THETA_DIR_ENTRY,
        )?;
        let dir = dir.map(|d| read_span(src, d)).transpose()?;
        let thetas = packed(
            &read_span(src, block)?,
            3,
            dir.as_deref(),
            "thetas",
            |r| Some((r.get_u64_le()?, r.get_u64_le()?)),
            get_ffn,
        )?;

        let users = Users::open(section(SEC_USERS, "users")?, &meta, v1)?;
        let popularity = exact(
            &read_span(src, section(SEC_POPULARITY, "popularity")?)?,
            |r| r.get_u32_vec(meta.num_items),
        )
        .ok_or_else(|| err("`popularity` section is malformed"))?;
        let fallback = decode_fallback(
            &read_span(src, section(SEC_FALLBACK, "fallback")?)?,
            &meta.dims,
        )?;
        Ok(Self {
            meta,
            thetas: thetas.try_into().expect("three predictors"),
            popularity,
            fallback,
            tables,
            users,
        })
    }

    /// `false` for v1 containers, whose tables and records can only be
    /// decoded in order.
    pub(crate) fn is_indexed(&self) -> bool {
        self.users.dir.is_some()
    }

    /// Decodes everything into an eager artifact.
    pub(crate) fn load<S: ByteSource + ?Sized>(self, src: &S) -> Result<ModelArtifact, ServeError> {
        let [s, m, l] = Tier::ALL.map(|tier| self.tables.read(src, tier));
        let users = self.users.read_all(src)?;
        let params = TierParams::Eager {
            tables: Box::new([s?, m?, l?]),
            thetas: Box::new(self.thetas),
        };
        Ok(ModelArtifact::assemble(
            self.meta,
            params,
            UserStore::Eager(users),
            self.popularity,
            self.fallback,
        ))
    }
}

/// Walks the section table — the only code that does — checking each
/// declared length against the bytes remaining *before* anything is read
/// or allocated: a section claiming `u64::MAX` bytes fails here with a
/// typed error.
fn sections<S: ByteSource + ?Sized>(src: &S) -> Result<[Option<Span>; 7], ServeError> {
    let size = src.size();
    let mut sections = [None; 7];
    let mut cursor = HEADER_LEN;
    while cursor < size {
        let head = src.read_at(cursor, SECTION_HEADER_LEN.min(size - cursor))?;
        let mut h = Reader::new(&head);
        let (tag, declared) = h
            .get_u8()
            .zip(h.get_u64_le())
            .ok_or_else(|| err("truncated section header"))?;
        let off = cursor + SECTION_HEADER_LEN;
        if declared > size - off {
            return Err(err(format!(
                "section {tag} claims {declared} bytes but only {} remain",
                size - off
            )));
        }
        let slot = sections
            .get_mut(tag as usize)
            .filter(|_| (SEC_META..=SEC_FALLBACK).contains(&tag))
            .ok_or_else(|| err(format!("unknown section tag {tag}")))?;
        if slot.replace(Span { off, len: declared }).is_some() {
            return Err(err(format!("duplicate section tag {tag}")));
        }
        cursor = off + declared;
    }
    Ok(sections)
}

/// Splits a section into its v2 directory (`count` entries of
/// `entry_len` bytes) and the payload block behind it. A v1 section is
/// all block.
fn split(
    sec: Span,
    v1: bool,
    name: &str,
    count: u64,
    entry_len: u64,
) -> Result<(Option<Span>, Span), ServeError> {
    if v1 {
        return Ok((None, sec));
    }
    let len = count
        .checked_mul(entry_len)
        .filter(|&d| d <= sec.len)
        .ok_or_else(|| {
            err(format!(
                "`{name}` section too short for a {count}-entry directory"
            ))
        })?;
    let block = Span {
        off: sec.off + len,
        len: sec.len - len,
    };
    Ok((Some(Span { off: sec.off, len }), block))
}

/// Decodes `n` entries stored back to back in `block`. Where the version
/// has a directory (`dir`, one entry per `entry` call), the layout must
/// be canonical: entry `i` starts where entry `i - 1` ended and spans
/// exactly the bytes its directory entry declares.
fn packed<T>(
    block: &[u8],
    n: usize,
    dir: Option<&[u8]>,
    name: &str,
    entry: impl Fn(&mut Reader) -> Option<(u64, u64)>,
    mut get: impl FnMut(&mut Reader) -> Option<T>,
) -> Result<Vec<T>, ServeError> {
    let mut r = Reader::new(block);
    let mut d = dir.map(Reader::new);
    let at = |r: &Reader| (block.len() - r.remaining()) as u64;
    let mut out = Vec::with_capacity(n.min(block.len() / 10 + 1));
    for i in 0..n {
        let start = at(&r);
        let item = get(&mut r).ok_or_else(|| err(format!("`{name}` entry {i} is malformed")))?;
        if let Some(d) = &mut d {
            if entry(d) != Some((start, at(&r) - start)) {
                return Err(err(format!(
                    "`{name}` directory entry {i} does not match its payload"
                )));
            }
        }
        out.push(item);
    }
    if r.remaining() != 0 {
        return Err(err(format!("`{name}` section has trailing bytes")));
    }
    Ok(out)
}

/// Decodes `bytes` as exactly one value.
fn exact<T>(bytes: &[u8], get: impl FnOnce(&mut Reader) -> Option<T>) -> Option<T> {
    let mut r = Reader::new(bytes);
    get(&mut r).filter(|_| r.remaining() == 0)
}

/// Where the three tier tables are. Their lengths follow from the shapes
/// in `meta`; a v2 directory must state exactly those spans and shapes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tables {
    spans: [Span; 3],
    rows: usize,
    dims: TierDims,
}

impl Tables {
    fn open<S: ByteSource + ?Sized>(
        src: &S,
        sec: Span,
        meta: &Meta,
        v1: bool,
    ) -> Result<Self, ServeError> {
        let (dir, block) = split(sec, v1, "tables", 3, TABLE_DIR_ENTRY)?;
        let dir = dir.map(|d| read_span(src, d)).transpose()?;
        let mut d = dir.as_deref().map(Reader::new);
        let mut spans = [Span { off: 0, len: 0 }; 3];
        let mut off = 0;
        for tier in Tier::ALL {
            let (rows, cols) = (meta.num_items as u64, meta.dims.dim(tier) as u64);
            let len = rows
                .checked_mul(4 * cols)
                .and_then(|n| n.checked_add(MATRIX_HEADER))
                .filter(|&n| n <= block.len - off)
                .ok_or_else(|| {
                    err(format!(
                        "`tables` section is too short for a {rows}x{cols} {tier:?} table"
                    ))
                })?;
            if let Some(d) = &mut d {
                let entry = (
                    d.get_u64_le(),
                    d.get_u64_le(),
                    d.get_u64_le(),
                    d.get_u32_le(),
                );
                if entry != (Some(off), Some(len), Some(rows), Some(cols as u32)) {
                    return Err(err(format!(
                        "`tables` directory entry for {tier:?} does not match `meta`"
                    )));
                }
            }
            spans[tier.index()] = Span {
                off: block.off + off,
                len,
            };
            off += len;
        }
        if off != block.len {
            return Err(err("`tables` section has trailing bytes"));
        }
        Ok(Self {
            spans,
            rows: meta.num_items,
            dims: meta.dims,
        })
    }

    /// Decodes one tier's table (eager load, or lazy first touch).
    pub(crate) fn read<S: ByteSource + ?Sized>(
        &self,
        src: &S,
        tier: Tier,
    ) -> Result<Matrix, ServeError> {
        exact(&read_span(src, self.spans[tier.index()])?, get_matrix)
            .filter(|m| m.rows() == self.rows && m.cols() == self.dims.dim(tier))
            .ok_or_else(|| err(format!("`tables` payload is malformed at {tier:?}")))
    }
}

/// Where the user records are: one block of records back to back, and
/// in v2 the fixed-width directory in front of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Users {
    dir: Option<Span>,
    block: Span,
    count: usize,
    dims: TierDims,
}

impl Users {
    /// Frames the section. The directory itself is read by the eager
    /// load, or one entry at a time on lazy touch.
    fn open(sec: Span, meta: &Meta, v1: bool) -> Result<Self, ServeError> {
        let count = meta.num_users;
        let (dir, block) = split(sec, v1, "users", count as u64, USER_DIR_ENTRY)?;
        Ok(Self {
            dir,
            block,
            count,
            dims: meta.dims,
        })
    }

    pub(crate) fn count(&self) -> usize {
        self.count
    }

    fn read_all<S: ByteSource + ?Sized>(&self, src: &S) -> Result<Vec<UserRecord>, ServeError> {
        let dir = self.dir.map(|d| read_span(src, d)).transpose()?;
        packed(
            &read_span(src, self.block)?,
            self.count,
            dir.as_deref(),
            "users",
            user_entry,
            |r| get_user(r, &self.dims),
        )
    }

    /// Decodes one record through the v2 directory (lazy first touch).
    pub(crate) fn read<S: ByteSource + ?Sized>(
        &self,
        src: &S,
        user: usize,
    ) -> Result<UserRecord, ServeError> {
        let dir = self.dir.expect("only v2 containers open lazily");
        let entry = src.read_at(dir.off + user as u64 * USER_DIR_ENTRY, USER_DIR_ENTRY)?;
        let (off, len) = user_entry(&mut Reader::new(&entry)).expect("whole entry read");
        if off > self.block.len || len > self.block.len - off {
            return Err(err(format!(
                "`users` directory entry {user} is out of bounds"
            )));
        }
        exact(&src.read_at(self.block.off + off, len)?, |r| {
            get_user(r, &self.dims)
        })
        .ok_or_else(|| err(format!("user {user} record is malformed")))
    }
}

fn user_entry(r: &mut Reader) -> Option<(u64, u64)> {
    Some((r.get_u64_le()?, r.get_u32_le()? as u64))
}

/// Parses the file header, returning the container version.
fn parse_header(r: &mut Reader) -> Result<u16, ServeError> {
    let magic = r.get_bytes(4).ok_or_else(|| err("truncated header"))?;
    if magic != MAGIC {
        return Err(err("not an artifact file (bad magic)"));
    }
    let container = r
        .get_u16_le()
        .ok_or_else(|| err("truncated container version"))?;
    if !(MIN_BINFMT_VERSION..=BINFMT_VERSION).contains(&container) {
        return Err(err(format!(
            "unsupported container version {container} (this reader speaks \
             {MIN_BINFMT_VERSION}..={BINFMT_VERSION})"
        )));
    }
    let schema = r.get_u32_le().ok_or_else(|| err("truncated schema"))? as u64;
    if schema != ARTIFACT_VERSION {
        return Err(err(format!(
            "artifact schema v{schema} not supported (want v{ARTIFACT_VERSION})"
        )));
    }
    Ok(container)
}

/// Decodes the `meta` payload.
fn parse_meta(payload: &[u8]) -> Result<Meta, ServeError> {
    exact(payload, |m| {
        let model = model_from_tag(m.get_u8()?)?;
        let standalone = match m.get_u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let s = m.get_u32_le()? as usize;
        let md = m.get_u32_le()? as usize;
        let l = m.get_u32_le()? as usize;
        if !(s > 0 && s < md && md < l) {
            return None;
        }
        Some(Meta {
            model,
            standalone,
            dims: TierDims::new(s, md, l),
            num_items: usize::try_from(m.get_u64_le()?).ok()?,
            num_users: usize::try_from(m.get_u64_le()?).ok()?,
        })
    })
    .ok_or_else(|| err("`meta` section is malformed"))
}

/// Decodes the binary container (either version), validating every
/// section against `meta`. This is the eager path: the whole buffer is
/// parsed into memory. Lazy file-backed loading is
/// [`ModelArtifact::load_file_lazy`].
pub fn decode(buf: &[u8]) -> Result<ModelArtifact, ServeError> {
    Container::open(buf)?.load(buf)
}

fn decode_fallback(payload: &[u8], dims: &TierDims) -> Result<[Vec<f32>; 3], ServeError> {
    exact(payload, |f| {
        let mut fallback = Vec::with_capacity(3);
        for tier in Tier::ALL {
            let n = f.get_u32_le()? as usize;
            if n != dims.dim(tier) {
                return None;
            }
            fallback.push(f.get_f32_vec(n)?);
        }
        fallback.try_into().ok()
    })
    .ok_or_else(|| err("`fallback` section is malformed"))
}

fn model_tag(model: ModelKind) -> u8 {
    match model {
        ModelKind::Ncf => 0,
        ModelKind::LightGcn => 1,
    }
}

fn model_from_tag(tag: u8) -> Option<ModelKind> {
    match tag {
        0 => Some(ModelKind::Ncf),
        1 => Some(ModelKind::LightGcn),
        _ => None,
    }
}

fn get_matrix(r: &mut Reader) -> Option<Matrix> {
    let rows = usize::try_from(r.get_u64_le()?).ok()?;
    let cols = r.get_u32_le()? as usize;
    let data = r.get_f32_vec(rows.checked_mul(cols)?)?;
    Some(Matrix::from_vec(rows, cols, data))
}

fn get_ffn(r: &mut Reader) -> Option<Ffn> {
    let ndims = r.get_u32_le()? as usize;
    if !(2..=16).contains(&ndims) {
        return None; // no predictor in this workspace is deeper
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        let d = r.get_u32_le()? as usize;
        if d == 0 {
            return None;
        }
        dims.push(d);
    }
    let flat_len = usize::try_from(r.get_u64_le()?).ok()?;
    // `Ffn::from_flat` panics on a length mismatch; check first, without
    // letting hostile dims overflow the expected length.
    let expect = dims.windows(2).try_fold(0usize, |n, w| {
        w[1].checked_mul(w[0])?.checked_add(w[1])?.checked_add(n)
    })?;
    if flat_len != expect {
        return None;
    }
    let flat = r.get_f32_vec(flat_len)?;
    Some(Ffn::from_flat(&dims, &flat))
}

fn get_user(r: &mut Reader, dims: &TierDims) -> Option<UserRecord> {
    let tier = *Tier::ALL.get(r.get_u8()? as usize)?;
    let emb_len = r.get_u32_le()? as usize;
    if emb_len != dims.dim(tier) {
        return None;
    }
    let emb = r.get_f32_vec(emb_len)?;
    let history_len = r.get_u32_le()? as usize;
    let history = r.get_u32_vec(history_len)?;
    let solo = match r.get_u8()? {
        0 => None,
        1 => {
            let theta = get_ffn(r)?;
            let n_rows = r.get_u32_le()? as usize;
            let mut rows = HashMap::with_capacity(n_rows.min(r.remaining() / 8 + 1));
            for _ in 0..n_rows {
                let item = r.get_u32_le()?;
                let width = r.get_u32_le()? as usize;
                if width != dims.dim(tier) {
                    return None;
                }
                rows.insert(item, r.get_f32_vec(width)?);
            }
            Some(SoloModel { rows, theta })
        }
        _ => return None,
    };
    Some(UserRecord {
        tier,
        emb,
        history,
        solo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExportArtifact, RecommendRequest, RecommenderBuilder};
    use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig};

    fn artifact(strategy: Strategy, model: ModelKind) -> ModelArtifact {
        let data = SyntheticConfig::tiny().generate(13);
        let split = SplitDataset::paper_split(&data, 13);
        let mut s = SessionBuilder::new(TrainConfig::test_default(model), strategy, split)
            .eval_every(0)
            .build()
            .expect("valid config");
        s.run_epoch();
        s.export_artifact()
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        for (strategy, model) in [
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn),
            (Strategy::Standalone, ModelKind::Ncf),
        ] {
            let a = artifact(strategy, model);
            let bytes = a.to_bytes();
            let b = ModelArtifact::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{model:?}/{strategy:?}: {e}"));
            // Encoding the reload reproduces the file bytes exactly —
            // stronger than field-by-field equality, and it pins the
            // deterministic solo-row ordering.
            assert_eq!(bytes, b.to_bytes(), "{model:?}: reload changed bytes");
            // And the reloaded artifact serves bit-identical rankings.
            let ra = RecommenderBuilder::new(a).default_k(6).build().unwrap();
            let rb = RecommenderBuilder::new(b).default_k(6).build().unwrap();
            for user in 0..ra.artifact().num_users() {
                let x = ra.recommend(&RecommendRequest::new(user));
                let y = rb.recommend(&RecommendRequest::new(user));
                assert_eq!(x, y, "user {user}");
            }
        }
    }

    #[test]
    fn v1_container_still_decodes_identically() {
        for (strategy, model) in [
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            (Strategy::Standalone, ModelKind::Ncf),
        ] {
            let a = artifact(strategy, model);
            let v1 = encode_v1(&a);
            assert_eq!(v1[4], 1, "v1 container tag");
            let b = ModelArtifact::from_bytes(&v1).expect("v1 decodes");
            // Re-encoding the v1 reload as v2 matches the direct v2 bytes.
            assert_eq!(a.to_bytes(), b.to_bytes(), "{model:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
        let dir = std::env::temp_dir().join(format!("hf_binfmt_test_{}", std::process::id()));
        let path = dir.join("nested").join("model.hfa");
        a.save_file(&path).expect("saved");
        let b = ModelArtifact::load_file(&path).expect("loaded");
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert!(ModelArtifact::load_file(dir.join("missing.hfa")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `bytes` with `with` written over it at `at`.
    fn patched(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        let mut b = bytes.to_vec();
        b[at..at + with.len()].copy_from_slice(with);
        b
    }

    /// `bytes` with the little-endian `u64` at `at` replaced by `f(old)`.
    fn with_u64(bytes: &[u8], at: usize, f: impl Fn(u64) -> u64) -> Vec<u8> {
        let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        patched(bytes, at, &f(old).to_le_bytes())
    }

    #[test]
    fn truncations_and_mutations_never_panic() {
        // Every reader entry point gives the same verdict on every input,
        // and none of them panics.
        let dir = std::env::temp_dir().join(format!("hf_binfmt_corpus_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.hfa");
        // Each verdict reads the same file: `bytes` when given, else
        // the file as it stands (the truncation sweep shortens it in
        // place instead of rewriting every prefix).
        let verdict = |bytes: &[u8], on_disk: bool| {
            if !on_disk {
                std::fs::write(&path, bytes).unwrap();
            }
            let verdicts = [
                ModelArtifact::from_bytes(bytes).is_ok(),
                ModelArtifact::load_file(&path).is_ok(),
                ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default()).is_ok(),
            ];
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "from_bytes / load_file / load_file_lazy disagree: {verdicts:?}"
            );
            verdicts[0]
        };
        let accepts = |bytes: &[u8]| verdict(bytes, false);

        // The small synthesized artifact runs every prefix through every
        // entry point; the ~200 KB standalone one (private models in its
        // records) runs a spread of cuts, since each cut is a file read.
        let small = ModelArtifact::synthesize(
            &hf_dataset::SyntheticProfile::new(48, 120),
            TierDims::new(4, 8, 16),
            3,
        )
        .unwrap();
        let standalone = artifact(Strategy::Standalone, ModelKind::Ncf);
        for (a, every_prefix) in [(small, true), (standalone, false)] {
            for bytes in [a.to_bytes(), encode_v1(&a)] {
                assert!(accepts(&bytes));
                // The full buffer is the only valid length.
                let cuts: Vec<usize> = if every_prefix {
                    (0..bytes.len()).collect()
                } else {
                    vec![0, 3, 4, 6, 10, 17, bytes.len() / 2, bytes.len() - 1]
                };
                let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                for &cut in cuts.iter().rev() {
                    file.set_len(cut as u64).unwrap();
                    assert!(
                        !verdict(&bytes[..cut], true),
                        "cut at {cut} must be rejected"
                    );
                }

                let mut mutants = vec![
                    patched(&bytes, 0, b"X"),                     // magic
                    patched(&bytes, 4, &[0xFF]),                  // container version
                    patched(&bytes, 6, &[0xFF]),                  // schema version
                    patched(&bytes, 11, &u64::MAX.to_le_bytes()), // first section length
                ];
                let secs = sections(&bytes[..]).expect("valid section table");
                for s in secs.iter().flatten() {
                    let at = s.off as usize - 8;
                    mutants.push(with_u64(&bytes, at, |n| n + 1));
                    mutants.push(with_u64(&bytes, at, |n| n - 1));
                }
                if bytes[4] == 2 {
                    // Directory entries that disagree with their payloads.
                    let tables = secs[SEC_TABLES as usize].unwrap().off as usize;
                    let thetas = secs[SEC_THETAS as usize].unwrap().off as usize;
                    mutants.push(with_u64(&bytes, tables + 28, |off| off + 4)); // Medium offset
                    mutants.push(with_u64(&bytes, tables + 16, |rows| rows - 1)); // Small rows
                    mutants.push(with_u64(&bytes, thetas + 16, |off| off + 1)); // Medium offset
                    mutants.push(with_u64(&bytes, thetas + 8, |len| len - 4)); // Small length
                }
                for (i, m) in mutants.iter().enumerate() {
                    assert!(!accepts(m), "mutant {i} must be rejected");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_predictor_dims_are_rejected() {
        // Regression: the expected flat length of these dims overflows
        // (`[MAX; 3]`) or wraps to 0 (`[MAX, MAX, 1]`). Both must be a
        // typed error from every entry point, lazy open included.
        let a = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
        let bytes = a.to_bytes();
        let thetas = sections(&bytes[..]).unwrap()[SEC_THETAS as usize].unwrap();
        let dir = thetas.off as usize;
        let block = dir + 3 * THETA_DIR_ENTRY as usize;
        let dir_path = std::env::temp_dir().join(format!("hf_binfmt_ffn_{}", std::process::id()));
        std::fs::create_dir_all(&dir_path).unwrap();
        let path = dir_path.join("hostile.hfa");
        for dims in [[u32::MAX; 3], [u32::MAX, u32::MAX, 1]] {
            // Replace the Small predictor and re-frame the section around it.
            let mut hostile = Writer::new();
            hostile.put_u32_le(3);
            dims.iter().for_each(|&d| hostile.put_u32_le(d));
            hostile.put_u64_le(0);
            let entry = |t: usize, field: usize| {
                let at = dir + 16 * t + 8 * field;
                u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
            };
            let mut section = Writer::new();
            let others = &bytes[block + entry(1, 0)..thetas.off as usize + thetas.len as usize];
            let shift = hostile.len() as u64;
            section.put_u64_le(0);
            section.put_u64_le(shift);
            for t in 1..3 {
                section.put_u64_le(shift + (entry(t, 0) - entry(1, 0)) as u64);
                section.put_u64_le(entry(t, 1) as u64);
            }
            section.put_bytes(hostile.as_slice());
            section.put_bytes(others);
            let mut file = bytes[..dir - 8].to_vec();
            file.extend_from_slice(&(section.len() as u64).to_le_bytes());
            file.extend_from_slice(section.as_slice());
            file.extend_from_slice(&bytes[thetas.off as usize + thetas.len as usize..]);

            let e = ModelArtifact::from_bytes(&file).expect_err("hostile dims");
            assert!(matches!(e, ServeError::Artifact(_)), "{e:?}");
            std::fs::write(&path, &file).unwrap();
            let lazy = ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default());
            assert!(
                matches!(lazy, Err(ServeError::Artifact(_))),
                "lazy open must reject hostile predictor dims {dims:?}"
            );
        }
        std::fs::remove_dir_all(&dir_path).ok();
    }

    #[test]
    fn hostile_section_length_fails_before_allocation() {
        // Regression (satellite): a section header claiming u64::MAX
        // bytes must fail with a typed error — validated against the
        // remaining size before any payload is touched or allocated.
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u16_le(BINFMT_VERSION);
        w.put_u32_le(ARTIFACT_VERSION as u32);
        w.put_u8(SEC_META);
        w.put_u64_le(u64::MAX);
        let bytes = w.into_vec();
        let e = ModelArtifact::from_bytes(&bytes).expect_err("hostile length");
        let msg = e.to_string();
        assert!(msg.contains("claims"), "unexpected error: {msg}");

        // Same claim inside a real artifact's section table.
        let a = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
        let mut bytes = a.to_bytes();
        // First section header sits right after the 10-byte file header.
        bytes[11..19].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ModelArtifact::from_bytes(&bytes).is_err());

        // And through the lazy file reader, which *would* allocate a read
        // buffer if the length were trusted.
        let dir = std::env::temp_dir().join(format!("hf_binfmt_hostile_{}", std::process::id()));
        let path = dir.join("hostile.hfa");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default()).is_err(),
            "lazy open must reject the hostile length"
        );
        assert!(ModelArtifact::load_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
