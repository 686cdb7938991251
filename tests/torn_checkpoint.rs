//! Torn-checkpoint recovery: a checkpoint file truncated at ANY byte
//! boundary must never be served by `latest_good()`, and a search resumed
//! over a torn checkpoint must fall back to the previous good epoch and
//! still reproduce the uninterrupted run's `arch-digest` bit-for-bit.
//!
//! Checkpoint saves are atomic temp+rename, so a torn file models disk
//! corruption or a copied/partial file — exactly what the fleet's
//! torn-ledger drill (`tests/fleet_faults.rs`) does at the ledger layer.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dance::data::synth::{SynthSpec, SynthTask};
use dance::data::tasks::TaskData;
use dance::guard::checkpoint::{CheckpointStore, Snapshot};
use dance::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dance_torn_ckpt_{name}_{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Exhaustive sweep on a small snapshot store: every byte boundary.
// ---------------------------------------------------------------------------

fn marked_snapshot(marker: u64) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.put_u64("torn.marker", marker);
    snap.put_f64s("torn.payload", &[1.5, -2.25, marker as f64]);
    snap
}

#[test]
fn latest_good_never_returns_a_torn_snapshot_at_any_byte_boundary() {
    let dir = temp_dir("exhaustive");
    let _fresh = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);
    store
        .save(0, &marked_snapshot(41))
        .expect("epoch-0 snapshot saves");
    let newest = store
        .save(1, &marked_snapshot(42))
        .expect("epoch-1 snapshot saves");
    let full = fs::read(&newest).expect("epoch-1 snapshot reads back");
    assert!(full.len() > 16, "snapshot is non-trivial");

    for cut in 0..full.len() {
        fs::write(&newest, &full[..cut]).expect("truncated rewrite lands");
        let (epoch, snap) = store
            .latest_good()
            .expect("the intact epoch-0 snapshot is always available");
        if epoch == 1 {
            // The only admissible epoch-1 prefix is the one that lost no
            // data at all: the cut that dropped just the trailing newline.
            assert_eq!(cut, full.len() - 1, "a lossy prefix was served");
            assert_eq!(snap.u64_at("torn.marker").expect("marker survives"), 42);
            assert_eq!(
                snap.f64s_at("torn.payload").expect("payload survives"),
                vec![1.5, -2.25, 42.0]
            );
            continue;
        }
        // Every other prefix falls back to epoch 0, whole and unmodified.
        assert_eq!(snap.u64_at("torn.marker").expect("marker survives"), 41);
        assert_eq!(
            snap.f64s_at("torn.payload").expect("payload survives"),
            vec![1.5, -2.25, 41.0]
        );
    }

    // Restored in full, the newest snapshot is served again.
    fs::write(&newest, &full).expect("full rewrite lands");
    let (epoch, snap) = store.latest_good().expect("restored snapshot loads");
    assert_eq!(epoch, 1);
    assert_eq!(snap.u64_at("torn.marker").expect("marker survives"), 42);
    let _cleanup = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Resume-digest equality over a REAL search checkpoint, boundaries sampled
// by proptest (a full search per case keeps the exhaustive sweep above as
// the cheap full-coverage layer).
// ---------------------------------------------------------------------------

fn tiny_task() -> TaskData {
    let task = SynthTask::new(SynthSpec {
        num_classes: 3,
        channels: 2,
        length: 8,
        noise: 0.2,
        distractor: 0.1,
        seed: 0,
    });
    let train = task.generate(90, 1);
    let val = task.generate(45, 2);
    let test = task.generate(45, 3);
    TaskData {
        task,
        train,
        val,
        test,
    }
}

fn tiny_config() -> SupernetConfig {
    SupernetConfig {
        input_channels: 2,
        length: 8,
        num_classes: 3,
        stem_width: 4,
        stage_widths: [4, 6, 8],
        head_width: 12,
    }
}

const EPOCHS: usize = 4;

fn run_search(dir: &Path, resume: bool) -> SearchOutcome {
    let cfg = SearchConfig {
        epochs: EPOCHS,
        batch_size: 32,
        lambda2: LambdaWarmup::constant(0.0),
        seed: 7,
        ..SearchConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(tiny_config(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let data = tiny_task();
    let guard = GuardConfig {
        checkpoint: Some(CheckpointConfig {
            dir: dir.to_path_buf(),
            resume,
        }),
        ..GuardConfig::default()
    };
    dance_search_guarded(&net, &arch, &data, &Penalty::None, &cfg, &guard)
}

/// One straight run + one template checkpoint directory, built once and
/// shared across proptest cases (each case copies the template).
fn template() -> (u64, PathBuf, Vec<u8>) {
    let dir = temp_dir("template");
    if !dir.join("epoch-0003.ckpt").exists() {
        let _fresh = fs::remove_dir_all(&dir);
        let out = run_search(&dir, false);
        assert_eq!(out.guard.checkpoints_written, EPOCHS as u32);
    }
    let straight = run_search(&temp_dir("straight"), false);
    let newest = fs::read(dir.join("epoch-0003.ckpt")).expect("newest checkpoint reads");
    (straight.digest(), dir, newest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn resume_over_a_torn_checkpoint_reproduces_the_straight_digest(frac in 0.0f64..1.0) {
        let (want, template_dir, newest) = template();
        let cut = ((newest.len() as f64) * frac) as usize;
        let dir = temp_dir("case");
        let _fresh = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("case dir creates");
        for entry in fs::read_dir(&template_dir).expect("template dir lists") {
            let entry = entry.expect("dir entry reads");
            fs::copy(entry.path(), dir.join(entry.file_name())).expect("checkpoint copies");
        }
        // Tear the newest checkpoint at the sampled boundary …
        fs::write(dir.join("epoch-0003.ckpt"), &newest[..cut]).expect("torn rewrite lands");
        // … and resume: the torn file is skipped, the run resumes from the
        // previous good epoch, and the digest matches bit-for-bit.
        let resumed = run_search(&dir, true);
        let from = resumed.guard.resumed_from_epoch.expect("resume found a checkpoint");
        prop_assert!(from == 2 || (cut == newest.len() && from == 3), "resumed from {from}");
        prop_assert_eq!(resumed.digest(), want, "torn resume diverged (cut {})", cut);
        let _cleanup = fs::remove_dir_all(&dir);
    }
}
