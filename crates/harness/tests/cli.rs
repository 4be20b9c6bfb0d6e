//! Error paths of the `mpshare-sched` command line, run as a subprocess.

use std::path::Path;
use std::process::Command;

#[test]
fn zero_gpus_is_a_usage_error() {
    let queue = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/example_queue.json");
    let out = Command::new(env!("CARGO_BIN_EXE_mpshare-sched"))
        .arg(queue)
        .args(["--gpus", "0"])
        .output()
        .expect("mpshare-sched runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--gpus"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no plan may be printed");
}
