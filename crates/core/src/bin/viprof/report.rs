//! `viprof report` — the `opreport` of VIProf.
//!
//! ```text
//!   --classic    render what stock opreport would show (anon ranges,
//!                symbol-less boot image) instead of the merged view
//!   --recover    tolerate integrity violations and replay the crash
//!                journals: rebuild code maps (and, if the sample db is
//!                missing or corrupt, the db itself) from journal records
//!   --telemetry  append the session's runtime telemetry (exported at
//!                /var/log/viprof/telemetry.json) and this resolve
//!                pass's own metrics to the text output
//!   --lineage    append the sample-lineage footer: every loss bucket
//!                (dropped/evicted/quarantined/blocked) broken down by
//!                the causal span where the loss occurred
//!   --min  P     hide rows below P percent of the primary event (0.05)
//!   --rows N     keep at most N rows
//!   --csv        emit CSV instead of the aligned text table
//!   --json       emit JSON
//! ```

use super::{artifact, Cli};
use oprofile::{opreport, TELEMETRY_PATH};
use viprof::{IncarnationSummary, RecoveryReport, Viprof};
use viprof_telemetry::json::ToJson;
use viprof_telemetry::{names, TelemetrySnapshot};

pub(super) fn run(cli: &Cli) {
    let mut spec = cli.spec();
    spec.options.max_rows = cli.value("--rows");
    let (dir, kernel) = cli.session();
    let (db, rebuilt) = cli.sample_db(&kernel).unwrap_or_else(|e| cli.fail(e));

    if cli.has("--classic") {
        let report = opreport(&db, &kernel, &spec.options);
        if cli.has("--lineage") {
            cli.warn("--lineage has no effect with --classic");
        }
        return print_report(cli, &dir, &db, &report, &kernel, None);
    }
    let mut sr = Viprof::make_report(&db, &kernel, &spec).unwrap_or_else(|e| cli.fail(e));
    if let (Some(rec), Some(rb)) = (&mut sr.recovery, &rebuilt) {
        rec.db_rebuilt = true;
        rec.sample_batches_replayed = rb.batches;
        rec.bad_sample_batches = rb.bad_batches;
        if rb.truncated_bytes > 0 {
            rec.truncated_journals += 1;
            rec.truncated_bytes += rb.truncated_bytes;
        }
    }
    print_report(cli, &dir, &db, &sr.lines, &kernel, Some(&sr));
}

fn print_report(
    cli: &Cli,
    dir: &std::path::Path,
    db: &oprofile::SampleDb,
    report: &oprofile::Report,
    kernel: &sim_os::Kernel,
    resolved: Option<&viprof::SessionReport>,
) {
    if cli.has("--csv") {
        print!("{}", report.render_csv());
        return;
    }
    if cli.has("--json") {
        println!("{}", report.to_json().to_pretty());
        return;
    }
    println!(
        "session {} — {} samples, {} dropped",
        dir.display(),
        db.total_samples(),
        db.dropped
    );
    print!("{}", report.render_text());
    if let Some(sr) = resolved {
        let q = &sr.quality;
        if q.stale_epoch > 0 || q.unresolved > 0 || q.quarantined_lines > 0 {
            println!(
                "NOTE: resolution quality — {} resolved, {} via stale-epoch fallback, \
                 {} unresolved; {} map lines quarantined, {} map files skipped",
                q.resolved, q.stale_epoch, q.unresolved, q.quarantined_lines, q.skipped_map_files
            );
        }
        if q.quarantined > 0 {
            println!(
                "WARNING: {} sample(s) quarantined — a resolution shard \
                 panicked twice; they are counted but carry no symbols",
                q.quarantined
            );
        }
        if q.evicted > 0 {
            println!(
                "NOTE: {} sample(s) evicted at admission — the session ran \
                 with a bounded sample database",
                q.evicted
            );
        }
        if q.cross_incarnation_blocked > 0 {
            println!(
                "NOTE: {} sample(s) blocked at the incarnation boundary — \
                 stamped with a generation whose maps are gone while another \
                 incarnation of the pid has maps; attribution never crosses \
                 a restart",
                q.cross_incarnation_blocked
            );
        }
        print_incarnation_footer(&sr.incarnations);
        if let Some(rec) = &sr.recovery {
            print_recovery(rec);
        }
    }
    if db.dropped > 0 {
        let emitted = db.total_samples() + db.dropped;
        let pct = 100.0 * db.dropped as f64 / emitted as f64;
        println!("WARNING: {} samples dropped ({pct:.1}%)", db.dropped);
    }
    if let Some(sr) = resolved {
        // HEALTH footer: rule findings over the session's exported
        // timeline. Silent on a clean run, like the other footers.
        if !sr.health.is_healthy() {
            println!("== health ==");
            for f in &sr.health.findings {
                println!("{}", f.render_line());
            }
        }
        if cli.has("--lineage") {
            println!("== sample lineage ==");
            print!("{}", sr.lineage.render_text());
        }
    }
    print_telemetry(cli, kernel, resolved.map(|sr| &sr.telemetry));
}

/// The `--telemetry` footer: the session's runtime telemetry, then this
/// resolve pass's own metrics.
fn print_telemetry(cli: &Cli, kernel: &sim_os::Kernel, resolve: Option<&TelemetrySnapshot>) {
    if !cli.has("--telemetry") {
        return;
    }
    match artifact(kernel, TELEMETRY_PATH, TelemetrySnapshot::from_json) {
        Ok(snap) => {
            println!("== runtime telemetry ({TELEMETRY_PATH}) ==");
            print!("{}", snap.render_text());
            print_governor_footer(&snap);
        }
        Err(e) => cli.warn(e),
    }
    if let Some(snap) = resolve {
        println!("== resolve telemetry (this pass) ==");
        print!("{}", snap.render_text());
    }
}

/// Per-incarnation footer: printed only when the session actually saw
/// process churn (more than one incarnation, or blocked samples) — a
/// steady one-VM run keeps the classic single-section output.
fn print_incarnation_footer(incarnations: &[IncarnationSummary]) {
    let blocked: u64 = incarnations.iter().map(|i| i.blocked).sum();
    if incarnations.len() <= 1 && blocked == 0 {
        return;
    }
    println!("== incarnations ==");
    for i in incarnations {
        println!(
            "pid {} gen {}: {} sample(s) — {} resolved, {} stale-epoch, \
             {} unresolved, {} blocked",
            i.pid, i.gen, i.samples, i.resolved, i.stale_epoch, i.unresolved, i.blocked
        );
    }
}

/// One human line per overload-governor outcome, after the raw metric
/// dump: what the closed loop actually *did* to the sampling rate.
fn print_governor_footer(snap: &TelemetrySnapshot) {
    let backoffs = snap.counter(names::GOVERNOR_BACKOFFS);
    let recoveries = snap.counter(names::GOVERNOR_RECOVERIES);
    let escalations = snap.counter(names::GOVERNOR_ESCALATIONS);
    let misses = snap.counter(names::DAEMON_DEADLINE_MISSES);
    if backoffs == 0 && recoveries == 0 && escalations == 0 && misses == 0 {
        return;
    }
    println!("== overload governor ==");
    println!(
        "governor: {backoffs} backoff(s), {recoveries} recovery step(s); \
         final period {} cycles",
        snap.gauge(names::GOVERNOR_PERIOD)
    );
    for e in snap.events_of(names::EVENT_GOVERNOR_RATE_CHANGE) {
        let from = e
            .fields
            .iter()
            .find(|(k, _)| k == "from")
            .map_or(0, |(_, v)| *v);
        let to = e
            .fields
            .iter()
            .find(|(k, _)| k == "to")
            .map_or(0, |(_, v)| *v);
        println!(
            "governor: cycle {}: period {} -> {} ({})",
            e.cycles, from, to, e.detail
        );
    }
    if misses > 0 {
        println!(
            "governor: {misses} drain-deadline miss(es), {escalations} \
             escalation(s) to the supervisor"
        );
    }
}

fn print_recovery(rec: &RecoveryReport) {
    println!(
        "RECOVERY: {} map journal(s) scanned, {} record(s) replayed, \
         {} epoch(s) rebuilt, {} sample(s) salvaged",
        rec.journals_scanned, rec.records_replayed, rec.epochs_recovered, rec.samples_salvaged
    );
    if rec.truncated_journals > 0 {
        println!(
            "RECOVERY: {} journal(s) truncated at the last valid record ({} damaged bytes discarded)",
            rec.truncated_journals, rec.truncated_bytes
        );
    }
    if rec.db_rebuilt {
        println!(
            "RECOVERY: sample database rebuilt from {} batch record(s) ({} undecodable)",
            rec.sample_batches_replayed, rec.bad_sample_batches
        );
    }
}
