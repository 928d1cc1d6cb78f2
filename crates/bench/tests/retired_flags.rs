//! The five per-artifact flags that `--obs-out DIR` replaced are rejected
//! at once: a stale script fails with a usage line instead of running a
//! sweep that writes none of the outputs it asked for.

use std::process::Command;

#[test]
fn retired_artifact_flags_exit_2_with_a_usage_line_naming_obs_out() {
    for flag in [
        "--trace-out",
        "--metrics-out",
        "--flight-out",
        "--health-out",
        "--profile-out",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e4_price_convergence"))
            .args([flag, "x"])
            .output()
            .expect("the experiment binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}: the sweep must not start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("usage:") && l.contains("--obs-out")),
            "{flag}: {stderr}"
        );
    }
}
