//! Host and provenance record attached to every result.

use std::process::{Command, Stdio};

use retia_json::Value;

/// Commit the working directory is checked out at, from `git rev-parse
/// HEAD`; `"unknown"` outside a git work tree or without git.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, compiler, commit, build profile, seed and kernel thread count.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let mut o = Value::object();
    o.insert("workload", Value::from(workload));
    o.insert("seed", Value::from(seed));
    o.insert("seconds", Value::from(seconds));
    o.insert("trace", Value::from(trace));
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    o.insert("nproc", Value::from(nproc));
    o.insert("kernel_threads", Value::from(retia_tensor::parallel::num_threads()));
    o.insert(
        "retia_num_threads_env",
        Value::from(std::env::var("RETIA_NUM_THREADS").unwrap_or_default()),
    );
    o.insert("rustc", Value::from(env!("PERFBENCH_RUSTC_VERSION")));
    o.insert("profile", Value::from(env!("PERFBENCH_PROFILE")));
    o.insert("git_rev", Value::from(git_rev()));
    o
}
