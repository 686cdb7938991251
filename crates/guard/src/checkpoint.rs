//! Checkpoint snapshots and the on-disk checkpoint store.
//!
//! A [`Snapshot`] is an ordered list of named tensors — the same shape of
//! data `dance_autograd::serialize` already round-trips bit-exactly — with
//! typed accessors for the non-tensor state a resume needs: integers (epoch
//! cursor, global step, Adam step count), doubles (watchdog EWMA state) and
//! the 256-bit RNG state. Integers and doubles ride inside `f32` tensors as
//! raw bit patterns split into 32-bit halves, so the text format's
//! hex-of-`f32`-bits lines carry them without loss.
//!
//! A [`CheckpointStore`] writes snapshots under `dir/epoch-NNNN.ckpt` with
//! the same atomic temp-plus-rename the evaluator checkpoints use, keeps
//! the newest [`CHECKPOINTS_KEPT`] files, and on resume walks backwards
//! from the newest file, skipping anything corrupt — a truncated
//! checkpoint costs one epoch of progress, never the run.
//!
//! The tensor text format is line-oriented, so a file truncated exactly at
//! a record boundary still parses — just with its tail records silently
//! missing. To close that hole every save appends a `guard.end` footer
//! item carrying an FNV fold over all preceding records; `latest_good`
//! recomputes the fold and rejects any file whose footer is absent or
//! disagrees, so a torn snapshot is never served no matter where the cut
//! landed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dance_autograd::serialize::{load_tensors, save_tensors};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;
use rand::rngs::StdRng;

/// Schema version stamped into every snapshot under the `guard.version` key.
pub const SNAPSHOT_VERSION: u64 = 1;

/// How many checkpoint files a store keeps; each save prunes older ones.
pub const CHECKPOINTS_KEPT: usize = 3;

/// Key of the integrity footer [`CheckpointStore::save`] appends as the
/// final record of every checkpoint file.
const INTEGRITY_KEY: &str = "guard.end";

/// FNV-1a word fold over every record that precedes the integrity footer:
/// item count, then each name (bytes), shape (dims) and value bit pattern.
/// A file truncated at a record boundary parses but loses its tail, which
/// shows up here as a changed count/fold.
fn integrity_fold(items: &[(String, Tensor)]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    let mix = |h: &mut u64, w: u64| {
        *h ^= w;
        *h = h.wrapping_mul(PRIME);
    };
    mix(&mut h, items.len() as u64);
    for (name, tensor) in items {
        for &b in name.as_bytes() {
            mix(&mut h, u64::from(b));
        }
        for &d in tensor.shape() {
            mix(&mut h, d as u64);
        }
        for &v in tensor.data() {
            mix(&mut h, u64::from(v.to_bits()));
        }
    }
    h
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Packs a `u64` into two `f32`s carrying its raw 32-bit halves.
fn u64_to_f32s(v: u64) -> [f32; 2] {
    [
        f32::from_bits((v & 0xFFFF_FFFF) as u32),
        f32::from_bits((v >> 32) as u32),
    ]
}

/// Inverse of [`u64_to_f32s`].
fn f32s_to_u64(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | (u64::from(hi.to_bits()) << 32)
}

/// An in-memory checkpoint: named tensors with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    items: Vec<(String, Tensor)>,
}

impl Snapshot {
    /// An empty snapshot stamped with the current schema version.
    pub fn new() -> Self {
        let mut s = Self { items: Vec::new() };
        s.put_u64("guard.version", SNAPSHOT_VERSION);
        s
    }

    /// Wraps tensors loaded from disk (no version stamp added).
    pub fn from_items(items: Vec<(String, Tensor)>) -> Self {
        Self { items }
    }

    /// The underlying named tensors, for serialization.
    pub fn items(&self) -> &[(String, Tensor)] {
        &self.items
    }

    fn find(&self, key: &str) -> Option<&Tensor> {
        self.items.iter().find(|(n, _)| n == key).map(|(_, t)| t)
    }

    fn require(&self, key: &str) -> io::Result<&Tensor> {
        self.find(key)
            .ok_or_else(|| bad_data(format!("checkpoint missing key {key:?}")))
    }

    /// Stores one tensor under `key`, replacing any previous value.
    pub fn put_tensor(&mut self, key: &str, tensor: Tensor) {
        if let Some(slot) = self.items.iter_mut().find(|(n, _)| n == key) {
            slot.1 = tensor;
        } else {
            self.items.push((key.to_string(), tensor));
        }
    }

    /// Reads back a tensor stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the key is absent.
    pub fn tensor(&self, key: &str) -> io::Result<Tensor> {
        Ok(self.require(key)?.clone())
    }

    /// Captures the current values of `params` as `prefix.0`, `prefix.1`, …
    pub fn put_params(&mut self, prefix: &str, params: &[Var]) {
        for (i, p) in params.iter().enumerate() {
            self.put_tensor(&format!("{prefix}.{i}"), p.value());
        }
    }

    /// Writes captured values back into `params`, shape-checked.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when a key is missing or a stored tensor's
    /// shape disagrees with the live parameter.
    pub fn restore_params(&self, prefix: &str, params: &[Var]) -> io::Result<()> {
        for (i, p) in params.iter().enumerate() {
            let key = format!("{prefix}.{i}");
            let stored = self.require(&key)?;
            if stored.shape() != p.shape() {
                return Err(bad_data(format!(
                    "checkpoint key {key:?} has shape {:?}, live parameter expects {:?}",
                    stored.shape(),
                    p.shape()
                )));
            }
            p.set_value(stored.clone());
        }
        Ok(())
    }

    /// Stores a list of state tensors (optimizer buffers) under
    /// `prefix.0`, `prefix.1`, …
    pub fn put_tensor_list(&mut self, prefix: &str, tensors: &[Tensor]) {
        for (i, t) in tensors.iter().enumerate() {
            self.put_tensor(&format!("{prefix}.{i}"), t.clone());
        }
    }

    /// Reads back `count` tensors stored by [`Snapshot::put_tensor_list`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when any indexed key is absent.
    pub fn tensor_list(&self, prefix: &str, count: usize) -> io::Result<Vec<Tensor>> {
        (0..count)
            .map(|i| self.tensor(&format!("{prefix}.{i}")))
            .collect()
    }

    /// Stores a `u64` losslessly (raw bit halves in an `f32` pair).
    pub fn put_u64(&mut self, key: &str, v: u64) {
        self.put_tensor(key, Tensor::from_vec(u64_to_f32s(v).to_vec(), &[2]));
    }

    /// Reads back a `u64` stored by [`Snapshot::put_u64`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the key is absent or malformed.
    pub fn u64_at(&self, key: &str) -> io::Result<u64> {
        let t = self.require(key)?;
        let d = t.data();
        if d.len() != 2 {
            return Err(bad_data(format!("checkpoint key {key:?} is not a u64")));
        }
        Ok(f32s_to_u64(d[0], d[1]))
    }

    /// Stores an `f64` slice losslessly (each value as a bit-split `u64`).
    pub fn put_f64s(&mut self, key: &str, values: &[f64]) {
        let data: Vec<f32> = values
            .iter()
            .flat_map(|v| u64_to_f32s(v.to_bits()))
            .collect();
        self.put_tensor(key, Tensor::from_vec(data, &[values.len() * 2]));
    }

    /// Reads back an `f64` slice stored by [`Snapshot::put_f64s`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the key is absent or malformed.
    pub fn f64s_at(&self, key: &str) -> io::Result<Vec<f64>> {
        let t = self.require(key)?;
        let d = t.data();
        if d.len() % 2 != 0 {
            return Err(bad_data(format!(
                "checkpoint key {key:?} is not an f64 list"
            )));
        }
        Ok(d.chunks_exact(2)
            .map(|pair| f64::from_bits(f32s_to_u64(pair[0], pair[1])))
            .collect())
    }

    /// Stores the full 256-bit RNG state.
    pub fn put_rng(&mut self, key: &str, rng: &StdRng) {
        let data: Vec<f32> = rng.state().iter().flat_map(|&w| u64_to_f32s(w)).collect();
        self.put_tensor(key, Tensor::from_vec(data, &[8]));
    }

    /// Rebuilds an RNG continuing the exact stream captured by
    /// [`Snapshot::put_rng`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the key is absent, malformed, or holds
    /// the impossible all-zero state.
    pub fn rng_at(&self, key: &str) -> io::Result<StdRng> {
        let t = self.require(key)?;
        let d = t.data();
        if d.len() != 8 {
            return Err(bad_data(format!(
                "checkpoint key {key:?} is not an RNG state"
            )));
        }
        let mut state = [0u64; 4];
        for (i, slot) in state.iter_mut().enumerate() {
            *slot = f32s_to_u64(d[2 * i], d[2 * i + 1]);
        }
        if state.iter().all(|&w| w == 0) {
            return Err(bad_data(format!(
                "checkpoint key {key:?} holds an all-zero RNG state"
            )));
        }
        Ok(StdRng::from_state(state))
    }
}

/// Where a guarded run checkpoints (every epoch), and whether it resumes
/// from there.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory for `epoch-NNNN.ckpt` files (created on first save).
    pub dir: PathBuf,
    /// Resume from the latest readable checkpoint in `dir`. A missing
    /// directory or all-corrupt contents fall back to a fresh start with a
    /// warning, never an abort.
    pub resume: bool,
}

/// On-disk checkpoint store for one run directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store over `dir` (nothing touches the disk until a save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for an epoch's snapshot.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:04}.ckpt"))
    }

    /// Atomically writes `snapshot` as the checkpoint for `epoch` — with a
    /// fresh `guard.end` integrity footer as the final record — then prunes
    /// all but the newest [`CHECKPOINTS_KEPT`] files.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying save (pruning failures
    /// are ignored — stale files only cost disk).
    pub fn save(&self, epoch: usize, snapshot: &Snapshot) -> io::Result<PathBuf> {
        let path = self.path_for(epoch);
        // Strip any footer a re-saved loaded snapshot carried: put_tensor
        // would overwrite it in place, leaving the footer mid-file where it
        // no longer guards the tail.
        let mut items: Vec<(String, Tensor)> = snapshot
            .items()
            .iter()
            .filter(|(name, _)| name != INTEGRITY_KEY)
            .cloned()
            .collect();
        let fold = integrity_fold(&items);
        items.push((
            INTEGRITY_KEY.to_string(),
            Tensor::from_vec(u64_to_f32s(fold).to_vec(), &[2]),
        ));
        save_tensors(&path, &items)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let files = self.list();
        if files.len() > CHECKPOINTS_KEPT {
            for (_, stale) in &files[..files.len() - CHECKPOINTS_KEPT] {
                let _best_effort = fs::remove_file(stale);
            }
        }
        Ok(path)
    }

    /// All checkpoint files in the run directory, ascending by epoch.
    pub fn list(&self) -> Vec<(usize, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<(usize, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter_map(|entry| {
                let path = entry.path();
                let name = path.file_name()?.to_str()?;
                let epoch = name
                    .strip_prefix("epoch-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()?;
                Some((epoch, path))
            })
            .collect();
        files.sort();
        files
    }

    /// The newest checkpoint that actually loads, with its epoch.
    ///
    /// Corrupt, torn or truncated files are skipped with a warning (and
    /// the `guard.checkpoint.skipped` telemetry counter); `None` means the
    /// directory has no readable checkpoint at all. The returned snapshot
    /// passed the `guard.end` integrity check, so every record the save
    /// wrote is present and bit-identical.
    pub fn latest_good(&self) -> Option<(usize, Snapshot)> {
        for (epoch, path) in self.list().into_iter().rev() {
            match load_tensors(&path).and_then(verify_snapshot) {
                Ok(snap) => return Some((epoch, snap)),
                Err(e) => {
                    eprintln!("dance-guard: {} unreadable: {e}; skipping", path.display());
                }
            }
            dance_telemetry::counter!("guard.checkpoint.skipped");
        }
        None
    }
}

/// Checks version stamp and integrity footer of freshly loaded items.
///
/// # Errors
///
/// Returns `InvalidData` when the snapshot version is missing or wrong,
/// when the `guard.end` footer is absent (a parseable record-boundary
/// truncation), or when the recomputed fold disagrees with the stored one.
fn verify_snapshot(items: Vec<(String, Tensor)>) -> io::Result<Snapshot> {
    let snap = Snapshot::from_items(items);
    match snap.u64_at("guard.version")? {
        SNAPSHOT_VERSION => {}
        v => {
            return Err(bad_data(format!(
                "snapshot version {v}, expected {SNAPSHOT_VERSION}"
            )))
        }
    }
    let stored = snap.u64_at(INTEGRITY_KEY).map_err(|_| {
        bad_data("integrity footer missing — file truncated at a record boundary".to_string())
    })?;
    let body: Vec<(String, Tensor)> = snap
        .items()
        .iter()
        .filter(|(name, _)| name != INTEGRITY_KEY)
        .cloned()
        .collect();
    if integrity_fold(&body) != stored {
        return Err(bad_data(
            "integrity footer mismatch — torn or corrupt records".to_string(),
        ));
    }
    Ok(snap)
}

/// Atomically writes a text artifact: content lands in a sibling temporary
/// file which is renamed over `path`, so readers never observe a torn or
/// truncated write. Parent directories are created.
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the file.
pub fn atomic_write_text(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, contents)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _cleanup = fs::remove_file(&tmp); // best effort; the error below matters more
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dance_guard_{name}_{}", std::process::id()))
    }

    #[test]
    fn u64_and_f64_roundtrip_is_exact() {
        let mut s = Snapshot::new();
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            s.put_u64("k", v);
            assert_eq!(s.u64_at("k").expect("u64 present"), v);
        }
        let values = [0.0f64, -1.5, f64::MAX, 1e-300, std::f64::consts::PI];
        s.put_f64s("f", &values);
        let back = s.f64s_at("f").expect("f64s present");
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 roundtrip lost bits");
        }
    }

    #[test]
    fn rng_roundtrip_continues_stream_through_disk() {
        let dir = temp_dir("rng");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let _ = rng.next_u64();
        }
        let mut snap = Snapshot::new();
        snap.put_rng("meta.rng", &rng);
        let store = CheckpointStore::new(&dir);
        store.save(0, &snap).expect("save snapshot");
        let (_, loaded) = store.latest_good().expect("one good checkpoint");
        let mut restored = loaded.rng_at("meta.rng").expect("rng state present");
        for _ in 0..16 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
        let _cleanup = fs::remove_dir_all(&dir);
    }

    #[test]
    fn params_roundtrip_and_shape_mismatch_is_an_error() {
        let params = [
            Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])),
            Var::parameter(Tensor::scalar(7.5)),
        ];
        let mut snap = Snapshot::new();
        snap.put_params("p", &params);
        params[0].set_value(Tensor::zeros(&[3]));
        snap.restore_params("p", &params).expect("restore succeeds");
        assert_eq!(params[0].value().data(), &[1.0, 2.0, 3.0]);

        let wrong = [Var::parameter(Tensor::zeros(&[4]))];
        let err = snap
            .restore_params("p", &wrong)
            .expect_err("shape mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = snap.restore_params("q", &params).expect_err("missing key");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn store_prunes_to_the_newest_three_and_lists_ascending() {
        let dir = temp_dir("prune");
        let _fresh = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        for epoch in 0..5 {
            let mut snap = Snapshot::new();
            snap.put_u64("meta.epoch", epoch as u64);
            store.save(epoch, &snap).expect("save");
        }
        let epochs: Vec<usize> = store.list().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![2, 3, 4], "pruning kept the wrong files");
        let _cleanup = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_good_skips_truncated_checkpoint() {
        let dir = temp_dir("truncated");
        let _fresh = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        for epoch in [0usize, 1] {
            let mut snap = Snapshot::new();
            snap.put_u64("meta.epoch", epoch as u64);
            store.save(epoch, &snap).expect("save");
        }
        // Corrupt the newest file the way a crash mid-write would.
        fs::write(store.path_for(1), "dance-tensors v1\ngarbage").expect("truncate");
        let (epoch, snap) = store.latest_good().expect("older checkpoint survives");
        assert_eq!(epoch, 0);
        assert_eq!(snap.u64_at("meta.epoch").expect("epoch present"), 0);
        let _cleanup = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_good_rejects_record_boundary_truncation() {
        let dir = temp_dir("boundary");
        let _fresh = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        for epoch in [0usize, 1] {
            let mut snap = Snapshot::new();
            snap.put_u64("meta.epoch", epoch as u64);
            snap.put_f64s("meta.payload", &[1.0, 2.0, 3.0]);
            store.save(epoch, &snap).expect("save");
        }
        // Cut the newest file at a line boundary: the remaining prefix is a
        // perfectly parseable tensor file, just missing its tail records.
        let full = fs::read_to_string(store.path_for(1)).expect("read back");
        let lines: Vec<&str> = full.lines().collect();
        assert!(lines.len() > 2, "need records to drop");
        for keep in 1..lines.len() {
            let prefix = lines[..keep].join("\n") + "\n";
            fs::write(store.path_for(1), prefix).expect("truncate at boundary");
            let (epoch, snap) = store.latest_good().expect("epoch 0 survives");
            assert_eq!(epoch, 0, "prefix of {keep} lines was served");
            assert_eq!(snap.u64_at("meta.epoch").expect("epoch present"), 0);
        }
        let _cleanup = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resaving_a_loaded_snapshot_keeps_the_footer_last() {
        let dir = temp_dir("resave");
        let _fresh = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        let mut snap = Snapshot::new();
        snap.put_u64("meta.epoch", 7);
        store.save(0, &snap).expect("save");
        // Round-trip: the loaded snapshot carries the footer mid-items once
        // more keys are appended; a re-save must still verify.
        let (_, mut loaded) = store.latest_good().expect("good checkpoint");
        loaded.put_u64("meta.extra", 9);
        store.save(1, &loaded).expect("re-save");
        let (epoch, back) = store.latest_good().expect("re-saved verifies");
        assert_eq!(epoch, 1);
        assert_eq!(back.u64_at("meta.extra").expect("extra present"), 9);
        let _cleanup = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_good_on_missing_dir_is_none() {
        let store = CheckpointStore::new(temp_dir("nonexistent"));
        assert!(store.latest_good().is_none());
    }

    #[test]
    fn atomic_write_text_lands_content() {
        let dir = temp_dir("atomic");
        let path = dir.join("nested/out.json");
        atomic_write_text(&path, "{\"ok\":true}\n").expect("atomic write");
        assert_eq!(
            fs::read_to_string(&path).expect("read back"),
            "{\"ok\":true}\n"
        );
        let _cleanup = fs::remove_dir_all(&dir);
    }
}
