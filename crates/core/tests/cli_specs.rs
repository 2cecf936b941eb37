//! Workload and campaign specs through the real binary: single runs
//! accept the scaled `workload:NAME@xN` spelling that campaigns accept,
//! and `spear-sim campaign` rejects a bad grid with exactly the message
//! `JobSpec::resolve` (the campaign server's validation) gives.

use spear_serve::JobSpec;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spear-cli-specs-{tag}-{}", std::process::id()))
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run spear-sim");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The envelope text before the wall-clock `sim_perf` block, with the
/// positional `workload` label (which names the spelling used) blanked.
fn deterministic_text(path: &PathBuf, label: &str) -> String {
    let text = std::fs::read_to_string(path).expect("read envelope");
    let field = format!("\"workload\": \"{label}\"");
    assert!(text.contains(&field), "{field} in {text}");
    let body = text.split("\"sim_perf\"").next().unwrap();
    body.replacen(&field, "\"workload\": \"\"", 1)
}

#[test]
fn single_runs_accept_scaled_workload_specs() {
    let plain = temp_path("plain.json");
    let x1 = temp_path("x1.json");
    for (spec, out) in [("workload:pointer", &plain), ("workload:pointer@x1", &x1)] {
        let (code, stderr) = run(&[spec, "--quiet", "--stats-json", out.to_str().unwrap()]);
        assert_eq!(code, 0, "{spec}: {stderr}");
    }
    assert_eq!(
        deterministic_text(&x1, "workload:pointer@x1"),
        deterministic_text(&plain, "workload:pointer"),
        "@x1 is the identity scale"
    );
    let (code, stderr) = run(&["workload:pointer@x2", "--quiet"]);
    assert_eq!(code, 0, "{stderr}");
    let (code, stderr) = run(&["workload:pointer@x0", "--quiet"]);
    assert_eq!(code, 2, "a zero scale is a usage error: {stderr}");
    assert_eq!(stderr, "spear-sim: unknown workload `pointer@x0`\n");
    let _ = std::fs::remove_file(plain);
    let _ = std::fs::remove_file(x1);
}

#[test]
fn campaign_cli_and_job_spec_reject_bad_grids_with_one_message() {
    let dir = temp_path("campaign");
    let base = JobSpec {
        workloads: vec!["pointer".into()],
        machines: vec!["baseline".into()],
        ..JobSpec::default()
    };
    let cases: [(&[&str], JobSpec); 4] = [
        (
            &["--simpoint", "--window", "5000"],
            JobSpec {
                simpoint: true,
                window: Some(5000),
                ..base.clone()
            },
        ),
        (
            &["--simpoint", "--stride", "2"],
            JobSpec {
                simpoint: true,
                stride: 2,
                ..base.clone()
            },
        ),
        (
            &["--machines", "baseline,baseline"],
            JobSpec {
                machines: vec!["baseline".into(), "baseline".into()],
                ..base.clone()
            },
        ),
        (
            &["--frontends", "oracle"],
            JobSpec {
                frontends: vec!["oracle".into()],
                ..base.clone()
            },
        ),
    ];
    for (flags, spec) in cases {
        let want = spec.resolve(1).unwrap_err();
        let mut args = vec![
            "campaign",
            "--dir",
            dir.to_str().unwrap(),
            "--workloads",
            "pointer",
            "--machines",
            "baseline",
            "--quiet",
        ];
        args.extend_from_slice(flags);
        let (code, stderr) = run(&args);
        assert_eq!(code, 2, "{flags:?}: {stderr}");
        assert_eq!(stderr, format!("spear-sim: {want}\n"), "{flags:?}");
        assert!(!dir.exists(), "{flags:?}: rejected before any work");
    }
}
