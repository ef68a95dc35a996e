//! CLI stdout contracts: with `--json` (and `--chrome`) each subcommand's
//! stdout must be *exactly one* machine-parseable JSON document — all
//! status, warnings, and progress go to stderr. Scripts pipe these
//! outputs straight into `jq` or another JSON parser, so a single stray
//! banner line is a regression.
//!
//! The fixture is a real fixed-config session exported to disk with
//! [`Viprof::export_session`], then inspected through the `viprof`
//! binary via `CARGO_BIN_EXE_viprof` (which is why this test lives in
//! the `viprof` package rather than the workspace-root suite).

use oprofile::OpConfig;
use sim_cpu::{BlockExec, CpuMode};
use sim_os::{Machine, MachineConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use viprof::Viprof;
use viprof_telemetry::json::Json;

/// Build a small deterministic session and export it under a unique
/// temp directory. Returns the session dir (caller cleans up).
fn export_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viprof-cli-json-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");

    let mut m = Machine::new(MachineConfig::default());
    let pid = m.kernel.spawn("cli-json");
    let vp = Viprof::builder()
        .config(OpConfig::time_at(10_000))
        .journal(true)
        .start(&mut m);
    m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 30_000_000));
    // One kernel sample among ~3000: a row under `viprof report`'s
    // default 0.05% floor, so row sets that ignore the floor differ.
    let k = sim_os::kernel::KERNEL_TEXT_BASE;
    m.exec(&BlockExec::compute(pid, CpuMode::Kernel, (k + 0x3000, k + 0x3100), 10_000));
    vp.stop(&mut m);
    Viprof::export_session(&mut m, &dir).expect("export session");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_viprof"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn viprof {args:?}: {e}"))
}

/// The contract under test: the whole of stdout is one JSON document.
/// `Json::parse` rejects trailing garbage, so any banner, warning, or
/// second document printed to stdout fails here.
fn assert_stdout_is_one_json_document(out: &Output, what: &str) -> Json {
    assert!(
        out.status.success(),
        "{what} failed ({}): stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone())
        .unwrap_or_else(|e| panic!("{what}: stdout is not utf-8: {e}"));
    Json::parse(stdout.trim_end_matches('\n')).unwrap_or_else(|e| {
        panic!("{what}: stdout is not exactly one JSON document ({e}):\n{stdout}")
    })
}

#[test]
fn json_modes_emit_exactly_one_document_on_stdout() {
    let dir = export_fixture("purity");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    // viprof stat --json: the runtime telemetry snapshot.
    let out = run(&["stat", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof stat --json");
    assert!(v.get("counters").is_some(), "telemetry snapshot shape: {v:?}");

    // viprof stat --health --json: the health report over the timeline.
    let out = run(&["stat", dir_s, "--health", "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof stat --health --json");
    assert!(v.get("findings").is_some(), "health report shape: {v:?}");

    // viprof trace --json: the structured span dump.
    let out = run(&["trace", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof trace --json");
    assert!(v.get("spans").is_some(), "span dump shape: {v:?}");

    // viprof trace --chrome: the canonical Chrome trace-event JSON.
    let out = run(&["trace", dir_s, "--chrome"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof trace --chrome");
    assert!(v.get("traceEvents").is_some(), "chrome trace shape: {v:?}");

    // viprof report --json: the resolved profile.
    let out = run(&["report", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof report --json");
    assert!(v.get("rows").is_some(), "report shape: {v:?}");

    // viprof top --json: the sealed live snapshot; mid-run snapshots
    // requested with --interval go to stderr.
    let out = run(&["top", dir_s, "--json", "--interval", "1"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof top --json");
    assert!(v.get("quality").is_some(), "sealed snapshot shape: {v:?}");
    assert!(!out.stderr.is_empty(), "progress snapshots went to stderr");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_json_is_one_document_and_exit_codes_split_pass_fail() {
    let dir = export_fixture("diff");
    let telemetry = dir.join("var/log/viprof/telemetry.json");
    let timeline = dir.join("var/log/viprof/timeline.json");
    assert!(telemetry.is_file(), "export includes telemetry.json");
    assert!(timeline.is_file(), "export includes timeline.json");

    let path = |p: &Path| p.to_str().expect("utf-8 temp path").to_owned();

    // Identical artifacts: exit 0 and a single JSON report on stdout.
    let out = run(&["diff", &path(&telemetry), &path(&telemetry), "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof diff self vs self");
    assert_eq!(
        v.get("regressions"),
        Some(&Json::Num(0)),
        "self-diff reports no regressions: {v:?}"
    );

    // Artifacts of different kinds: usage/loader error, exit 2, stdout
    // stays empty (errors belong to stderr even in JSON mode).
    let out = run(&["diff", &path(&telemetry), &path(&timeline), "--json"]);
    assert_eq!(out.status.code(), Some(2), "kind mismatch is a usage error");
    assert!(out.stdout.is_empty(), "error path writes nothing to stdout");
    assert!(!out.stderr.is_empty(), "error path explains itself on stderr");

    // A genuinely different candidate: exit 1 and still exactly one
    // JSON document describing the regression.
    let perturbed = dir.join("perturbed-telemetry.json");
    let text = std::fs::read_to_string(&telemetry).expect("read telemetry");
    let mut doc = Json::parse(&text).expect("telemetry parses");
    let Some(Json::Obj(counters)) = doc.get_mut("counters") else {
        panic!("counters object");
    };
    let (_, bumped) = counters
        .iter_mut()
        .find(|(_, v)| matches!(v, Json::Num(n) if *n > 0))
        .expect("some counter is nonzero");
    if let Json::Num(n) = bumped {
        *n += 1_000;
    }
    std::fs::write(&perturbed, doc.to_compact()).expect("write perturbed");

    let out = run(&["diff", &path(&telemetry), &path(&perturbed), "--json"]);
    assert_eq!(out.status.code(), Some(1), "regression exits 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let v = Json::parse(stdout.trim_end_matches('\n'))
        .unwrap_or_else(|e| panic!("diff regression output is one JSON document ({e}):\n{stdout}"));
    let regressions = v.get("regressions").and_then(|r| r.as_num("regressions").ok());
    assert!(regressions.unwrap_or(0) >= 1, "regression recorded: {v:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `viprof top` resolves its sealed snapshot with the same spec as
/// `viprof report`, so over one journaled session both list the same
/// rows.
#[test]
fn top_sealed_rows_equal_report_rows() {
    let dir = export_fixture("top-rows");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let threads = ["--threads", "2"];
    let report = run(&[&["report", dir_s, "--json"][..], &threads].concat());
    let report = assert_stdout_is_one_json_document(&report, "viprof report --json");
    let top = run(&[&["top", dir_s, "--json"][..], &threads].concat());
    let top = assert_stdout_is_one_json_document(&top, "viprof top --json");
    let unfloored = run(&[&["report", dir_s, "--json", "--min", "0"][..], &threads].concat());
    let unfloored = assert_stdout_is_one_json_document(&unfloored, "viprof report --min 0");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        matches!(report.get("rows"), Some(Json::Arr(rows)) if !rows.is_empty()),
        "report has rows: {report:?}"
    );
    assert_ne!(unfloored.get("rows"), report.get("rows"), "the fixture has a row under the floor");
    assert_eq!(top.get("rows"), report.get("rows"));
}
