//! `viprof top` — streaming profile viewer.
//!
//! Replays an exported session's sample-batch journal through the
//! [`viprof::LiveEngine`] in drain order — the same engine a running
//! session feeds through the daemon's drain sink — and renders the
//! evolving profile the way `top` renders processes: a snapshot every
//! `--interval` batches, and the sealed final profile at the end. The
//! sealed profile resolves with the same spec as `viprof report`, so
//! its rows equal that report's rows over the same session. The
//! session must have been exported with journaling on.
//!
//! ```text
//!   --interval N  print a snapshot every N replayed batches
//!                 (default 0 = only the sealed final profile)
//!   --json        print the sealed final snapshot as JSON instead of
//!                 the table; every human-readable line (mid-run
//!                 snapshots, warnings) moves to stderr
//!   --rows N      show at most N rows per snapshot (default 20)
//! ```

use super::Cli;
use oprofile::{SampleDb, SAMPLE_JOURNAL_PATH};
use sim_os::journal;
use viprof::{LiveEngine, LiveSpec, SessionReport};
use viprof_telemetry::json::{Json, ToJson};

pub(super) fn run(cli: &Cli) {
    let interval = cli.value("--interval").unwrap_or(0u64);
    let rows = cli.value("--rows").unwrap_or(20usize);
    let json = cli.has("--json");
    let spec = cli.spec();
    let (_, kernel) = cli.session();
    let Some(scan) = journal::scan(&kernel.vfs, SAMPLE_JOURNAL_PATH) else {
        cli.fail(format_args!(
            "no sample journal at {SAMPLE_JOURNAL_PATH} — re-export the session \
             with journaling on (`Viprof::builder().journal(true)`)"
        ));
    };

    // Offline replay keeps every frozen index: the whole journal
    // references a fixed on-disk map set, so there is nothing to
    // reclaim mid-stream. Traced batch records replay with their
    // journal span, in the slot the daemon's drain sink fills, so the
    // engine's loss ledger equals the one `viprof report` reads from
    // the journal; untagged v1 records replay without one.
    let mut live = LiveEngine::new(LiveSpec::new().with_drop_frozen(false));
    let mut replayed = 0u64;
    for rec in &scan.records {
        let (ctx, body) = match rec.kind {
            journal::KIND_SAMPLE_BATCH => (None, rec.payload.as_slice()),
            journal::KIND_SAMPLE_BATCH_TRACED => {
                let Some((ctx, body)) = journal::split_traced_payload(&rec.payload) else {
                    cli.note(format_args!("skipping torn traced record seq {}", rec.seq));
                    continue;
                };
                (Some(ctx), body)
            }
            _ => continue,
        };
        let Ok(batch) = SampleDb::from_bytes(body) else {
            cli.note(format_args!(
                "skipping corrupt batch record seq {}",
                rec.seq
            ));
            continue;
        };
        live.db().merge(&batch);
        live.on_batch(&kernel, Some((rec.seq, ctx)), &batch, ctx);
        replayed += 1;
        if interval > 0 && replayed.is_multiple_of(interval) {
            let snap = live.snapshot(&kernel, &spec);
            // Under --json, stdout carries nothing but the final JSON
            // document: progress snapshots go to stderr.
            status(json, format_args!("== after batch {replayed} =="));
            render(&snap, rows, json);
        }
    }
    if scan.damaged_bytes > 0 {
        cli.warn(format_args!(
            "{} damaged journal byte(s) ignored",
            scan.damaged_bytes
        ));
    }

    live.seal(&kernel);
    let snap = live.snapshot(&kernel, &spec);
    if json {
        println!("{}", final_json(&snap, replayed));
    } else {
        println!("== sealed ({replayed} batches) ==");
        render(&snap, rows, false);
    }
}

/// A human-readable status line: stdout normally, stderr under
/// `--json` (stdout must stay machine-parseable).
fn status(json: bool, line: std::fmt::Arguments<'_>) {
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn render(snap: &SessionReport, rows: usize, to_stderr: bool) {
    let events: Vec<String> = snap.lines.events.iter().map(|e| format!("{e:?}")).collect();
    status(
        to_stderr,
        format_args!(
            "{:>8}  {:<22} {:<34} {}",
            "%",
            "image",
            "symbol",
            events.join(" / ")
        ),
    );
    for row in snap.lines.rows.iter().take(rows) {
        let counts: Vec<String> = row.counts.iter().map(u64::to_string).collect();
        status(
            to_stderr,
            format_args!(
                "{:>7.2}%  {:<22} {:<34} {}",
                row.percents.first().copied().unwrap_or(0.0),
                row.image,
                row.symbol,
                counts.join(" / ")
            ),
        );
    }
    if snap.lines.rows.len() > rows {
        status(
            to_stderr,
            format_args!("  ... {} more row(s)", snap.lines.rows.len() - rows),
        );
    }
    let q = &snap.quality;
    status(
        to_stderr,
        format_args!(
            "  accounted {} = {} resolved + {} stale + {} unresolved + {} blocked \
             + {} quarantined + {} dropped + {} evicted",
            q.accounted(),
            q.resolved,
            q.stale_epoch,
            q.unresolved,
            q.cross_incarnation_blocked,
            q.quarantined,
            q.dropped,
            q.evicted
        ),
    );
}

fn final_json(snap: &SessionReport, batches: u64) -> String {
    let events = snap
        .lines
        .events
        .iter()
        .map(|e| Json::Str(format!("{e:?}")));
    Json::obj([
        ("batches", Json::Num(batches)),
        ("events", Json::Arr(events.collect())),
        ("rows", snap.lines.rows.to_json()),
        ("quality", snap.quality.to_json()),
        ("incarnations", snap.incarnations.to_json()),
    ])
    .to_pretty()
}
