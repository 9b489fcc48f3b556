//! The environment a result was measured in, and the guard that refuses
//! to measure a program its user would not get.

use std::path::Path;
use std::process::Command;

use crate::json::quote;
use crate::workloads::DEVICES;

/// Performance switches of the library. The benchmark measures the
/// defaults, so it refuses to run with any of them set.
const PERFORMANCE_VARS: [&str; 4] = ["VP_THREADS", "VP_CORES", "VP_FAST_MATH", "VP_ARENA"];

/// Refuses to measure when a performance variable is set or the machine
/// has fewer cores than the pipelines have devices.
///
/// # Errors
///
/// Returns the message to print before exiting non-zero.
pub fn guard() -> Result<(), String> {
    guard_with(
        &|name| std::env::var_os(name).is_some(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

fn guard_with(is_set: &dyn Fn(&str) -> bool, nproc: usize) -> Result<(), String> {
    if let Some(var) = PERFORMANCE_VARS.iter().find(|v| is_set(v)) {
        return Err(format!(
            "{var} is set: the benchmark measures the library's defaults; unset \
             {PERFORMANCE_VARS:?} and run again"
        ));
    }
    if nproc < DEVICES {
        return Err(format!(
            "{nproc} core(s) available: the workloads run {DEVICES}-device pipelines and need \
             one core per device to mean anything"
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The cgroup CPU quota as the kernel states it (`cpu.max` of cgroup v2,
/// or quota/period of v1); `"none"` when neither file exists.
fn cgroup_quota() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    if let Some(v2) = read("/sys/fs/cgroup/cpu.max") {
        return v2;
    }
    match (
        read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        read("/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
    ) {
        (Some(q), Some(p)) => format!("{q} {p}"),
        _ => "none".into(),
    }
}

/// The environment fingerprint as a JSON object: cores, quota, the
/// library's resolved switches, compiled-in CPU features, compiler and
/// source revision. Git is consulted only when the working directory is
/// itself a checkout's root (the driver's copy is not a repository).
pub fn fingerprint_json() -> String {
    let features: Vec<&str> = [
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let (rev, dirty) = if Path::new(".git").exists() {
        (
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            command_line("git", &["status", "--porcelain"])
                .map_or("unknown".into(), |s| (!s.is_empty()).to_string()),
        )
    } else {
        ("unknown".into(), "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {}, \"cgroup_cpu_quota\": {}, \"kernel_threads\": {}, \
         \"assumed_cores\": {}, \"fast_math\": {}, \"arena\": {}, \"cpu_features\": {}, \
         \"rustc\": {}, \"git_rev\": {}, \"git_dirty\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(&cgroup_quota()),
        vp_tensor::num_threads(),
        vp_tensor::pool::assumed_cores(),
        vp_tensor::mathx::fast_math(),
        vp_tensor::alloc::enabled(),
        quote(&features.join(",")),
        quote(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        quote(&rev),
        quote(&dirty),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn guard_refuses_performance_variables_and_single_cores() {
        assert!(guard_with(&|_| false, 2).is_ok());
        let err = guard_with(&|v| v == "VP_THREADS", 2).unwrap_err();
        assert!(err.contains("VP_THREADS is set"), "{err}");
        let err = guard_with(&|v| v == "VP_ARENA", 8).unwrap_err();
        assert!(err.contains("VP_ARENA is set"), "{err}");
        let err = guard_with(&|_| false, 1).unwrap_err();
        assert!(err.contains("1 core(s)"), "{err}");
    }

    #[test]
    fn fingerprint_is_json_with_every_field() {
        let v = parse(&fingerprint_json()).expect("valid JSON");
        for key in [
            "nproc",
            "cgroup_cpu_quota",
            "kernel_threads",
            "assumed_cores",
            "fast_math",
            "arena",
            "cpu_features",
            "rustc",
            "git_rev",
            "git_dirty",
        ] {
            assert!(v.get(key).is_some(), "{key} missing");
        }
    }
}
