//! Subprocess fault-injection suite: kills the real `sevuldet` binary at
//! injected and randomized points and asserts the recovery invariants.
//!
//! * a trainer aborted at any batch boundary, resumed with `--resume`,
//!   produces a final model file **byte-identical** (sha256) to an
//!   uninterrupted run — across `--jobs` values and whether or not any
//!   checkpoint had been written before the kill;
//! * a crash in the middle of writing a model file never leaves a torn
//!   file: either the old bytes or nothing, thanks to the
//!   temp-file + fsync + rename protocol;
//! * a SIGKILL at a wall-clock-random point is recoverable the same way;
//! * CLI failures exit with typed codes (usage 2, I/O 3, corruption 4).
//!
//! Failpoints are armed through the `SEVULDET_FAILPOINTS` environment
//! variable (see `sevuldet::faults`), so the child process aborts at an
//! exact program point — a deterministic stand-in for `kill -9`.

use sevuldet::sha256_hex;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const BIN: &str = env!("CARGO_BIN_EXE_sevuldet");

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-fi-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `sevuldet train` with tiny-but-real settings (75 gadgets, 2
/// epochs, ~10 batch boundaries). Returns the process exit success.
fn train(dir: &Path, jobs: usize, resume: bool, failpoints: Option<&str>) -> bool {
    let mut cmd = Command::new(BIN);
    cmd.arg("train")
        .args(["--per-category", "2", "--epochs", "2", "--seed", "9"])
        .args(["--jobs", &jobs.to_string()])
        .arg("--out")
        .arg(dir.join("model.svd"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .args(["--checkpoint-every", "1"]);
    if resume {
        cmd.arg("--resume");
    }
    match failpoints {
        Some(spec) => cmd.env("SEVULDET_FAILPOINTS", spec),
        None => cmd.env_remove("SEVULDET_FAILPOINTS"),
    };
    let out = cmd.output().expect("spawn sevuldet train");
    out.status.success()
}

fn sha_of(path: &Path) -> String {
    sha256_hex(&std::fs::read(path).expect("read model file"))
}

/// The uninterrupted run every recovery must reproduce, trained once.
fn reference_sha() -> &'static str {
    static CELL: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let dir = tmpdir("reference");
        assert!(train(&dir, 1, false, None), "reference train failed");
        let sha = sha_of(&dir.join("model.svd"));
        std::fs::remove_dir_all(&dir).ok();
        sha
    })
}

#[test]
fn abort_at_batch_boundary_then_resume_is_byte_identical() {
    // Boundary 1 dies before the first checkpoint ever lands (resume from
    // scratch); 4 dies mid-first-epoch with three checkpoints behind it;
    // 7 dies inside the second epoch. Kill and resume at mixed --jobs
    // values: the fingerprint deliberately excludes the thread count.
    for (nth, kill_jobs, resume_jobs) in [(1, 1, 1), (4, 2, 1), (7, 1, 2)] {
        let dir = tmpdir(&format!("boundary-{nth}"));
        let spec = format!("batch_boundary:{nth}=abort");
        assert!(
            !train(&dir, kill_jobs, false, Some(&spec)),
            "failpoint {spec} must abort the trainer"
        );
        assert!(
            !dir.join("model.svd").exists(),
            "a killed trainer must not have produced a model"
        );
        assert!(
            train(&dir, resume_jobs, true, None),
            "resume after {spec} failed"
        );
        assert_eq!(
            sha_of(&dir.join("model.svd")),
            reference_sha(),
            "resumed model (killed at boundary {nth}, jobs {kill_jobs}->{resume_jobs}) \
             differs from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crash_mid_write_never_leaves_a_torn_file() {
    // First: crash while writing the very first checkpoint — the final
    // checkpoint path must not exist (only an orphaned temp file may).
    let dir = tmpdir("midwrite");
    assert!(
        !train(&dir, 1, false, Some("save_midwrite=abort")),
        "save_midwrite must abort the trainer"
    );
    let ckpt = dir.join("ckpt").join("checkpoint.svc");
    assert!(
        !ckpt.exists(),
        "crash mid-write left a (possibly torn) checkpoint at the final path"
    );
    assert!(!dir.join("model.svd").exists());

    // Second: with a good model already on disk, a crash while writing its
    // replacement leaves the old bytes untouched — rename is the commit.
    assert!(train(&dir, 1, false, None), "clean train failed");
    let model = dir.join("model.svd");
    let before = sha_of(&model);
    assert_eq!(before, reference_sha());
    // Retrain over it without checkpointing, so the first (and only)
    // atomic_write — the one the failpoint aborts — is the model save.
    let status = Command::new(BIN)
        .arg("train")
        .args(["--per-category", "2", "--epochs", "2", "--seed", "9"])
        .arg("--out")
        .arg(&model)
        .env("SEVULDET_FAILPOINTS", "save_midwrite=abort")
        .output()
        .expect("spawn sevuldet train");
    assert!(!status.status.success(), "mid-write abort expected");
    assert_eq!(
        sha_of(&model),
        before,
        "a crashed overwrite corrupted the existing model file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_at_a_random_point_is_recoverable() {
    let dir = tmpdir("sigkill");
    let mut child = Command::new(BIN)
        .arg("train")
        .args(["--per-category", "2", "--epochs", "2", "--seed", "9"])
        .arg("--out")
        .arg(dir.join("model.svd"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .args(["--checkpoint-every", "1"])
        .env_remove("SEVULDET_FAILPOINTS")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn sevuldet train");
    // A wall-clock-random delay somewhere inside (or after) the ~1s run:
    // the kill may land mid-epoch, mid-write, or after completion — every
    // outcome must be recoverable.
    let jitter = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
        % 900;
    std::thread::sleep(Duration::from_millis(50 + jitter));
    let _ = child.kill();
    let _ = child.wait();

    assert!(train(&dir, 1, true, None), "resume after SIGKILL failed");
    assert_eq!(
        sha_of(&dir.join("model.svd")),
        reference_sha(),
        "post-SIGKILL resume diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_failures_exit_with_typed_codes() {
    let dir = tmpdir("exitcodes");
    let code = |args: &[&str]| {
        Command::new(BIN)
            .args(args)
            .output()
            .expect("spawn sevuldet")
            .status
            .code()
    };
    // Usage errors: 2.
    assert_eq!(code(&["train"]), Some(2), "train without --out");
    assert_eq!(
        code(&["scan", "--model", "m.svd"]),
        Some(2),
        "scan without files"
    );
    assert_eq!(
        code(&["train", "--out", "x", "--resume"]),
        Some(2),
        "--resume without --checkpoint-dir"
    );
    // Missing files: 3.
    let c_file = dir.join("ok.c");
    std::fs::write(&c_file, "int main() { return 0; }").unwrap();
    let missing = dir.join("nope.svd").display().to_string();
    assert_eq!(
        code(&["scan", c_file.to_str().unwrap(), "--model", &missing]),
        Some(3),
        "scan with missing model"
    );
    // Corrupt model: 4.
    let corrupt = dir.join("corrupt.svd");
    std::fs::write(&corrupt, "sevuldet-detector v2\nkind sevuldet\n").unwrap();
    assert_eq!(
        code(&[
            "scan",
            c_file.to_str().unwrap(),
            "--model",
            corrupt.to_str().unwrap()
        ]),
        Some(4),
        "scan with corrupt model"
    );
    // Serve with a missing model fails before binding: 3. With a good
    // model but an unbindable address: 5.
    assert_eq!(
        code(&["serve", "--model", &missing]),
        Some(3),
        "serve with missing model is an I/O failure"
    );
    let model = dir.join("model.svd");
    let trained = Command::new(BIN)
        .arg("train")
        .args(["--per-category", "2", "--epochs", "1", "--seed", "9"])
        .arg("--out")
        .arg(&model)
        .env_remove("SEVULDET_FAILPOINTS")
        .output()
        .expect("spawn sevuldet train");
    assert!(trained.status.success());
    assert_eq!(
        code(&[
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "999.999.999.999:0"
        ]),
        Some(5),
        "serve on an unbindable address"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_or_unknown_precision_is_a_usage_error_before_loading() {
    let dir = tmpdir("precision");
    let c_file = dir.join("ok.c");
    std::fs::write(&c_file, "int main() { return 0; }").unwrap();
    // The model file does not exist: loading it would exit 3, so exit 2
    // shows the flag is refused before any model is read.
    let missing = dir.join("nope.svd").display().to_string();
    let file = c_file.to_str().unwrap();
    for (spelling, says) in [("int8", "removed"), ("banana", "unknown precision")] {
        for args in [
            vec!["scan", file, "--model", &missing, "--precision", spelling],
            vec!["serve", "--model", &missing, "--precision", spelling],
        ] {
            let out = Command::new(BIN)
                .args(&args)
                .output()
                .expect("spawn sevuldet");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains(says) && stderr.contains("f32"),
                "{args:?}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_jobs_and_names_workers() {
    // A batch scores on one thread; `--workers` is the one way to scale a
    // shard. The model file does not exist, so exit 2 (not 3) shows the
    // flag is refused before any model is read or any port is bound.
    let dir = tmpdir("serve-jobs");
    let missing = dir.join("nope.svd").display().to_string();
    let out = Command::new(BIN)
        .args(["serve", "--model", &missing, "--jobs", "2"])
        .output()
        .expect("spawn sevuldet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--workers"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
