//! `viprof trace` — causal trace inspection.
//!
//! Reads the Chrome-trace JSON a session exported alongside its
//! samples (`/var/log/viprof/trace.json` inside the session
//! directory) and renders the causal span tree: which NMI window fed
//! which drain, which drain fed which journal batch, where the GC
//! pauses and agent map writes sat. The sample-lineage table over the
//! same spans is `viprof report --lineage`.
//!
//! ```text
//!   --chrome     print the canonical Chrome trace-event JSON
//!                (load it at chrome://tracing or ui.perfetto.dev)
//!   --json       print a structured span dump (ids, parents, layers,
//!                fields) instead of the human tree
//!   --top N      show the N span names with the largest total
//!                duration, each with its log2 duration histogram
//! ```

use super::{artifact, Cli};
use oprofile::TRACE_PATH;
use viprof_telemetry::json::Json;
use viprof_telemetry::{log2_rows, TraceSnapshot};

pub(super) fn run(cli: &Cli) {
    let top = cli.value("--top").unwrap_or(0usize);
    let (dir, kernel) = cli.session();
    let snap = artifact(&kernel, TRACE_PATH, TraceSnapshot::from_chrome_json)
        .unwrap_or_else(|e| cli.fail(e));

    if cli.has("--chrome") {
        // Re-serialize: canonical form regardless of on-disk formatting.
        println!("{}", snap.to_chrome_json());
        return;
    }
    if cli.has("--json") {
        println!("{}", span_dump_json(&snap));
        return;
    }

    println!("session {} — {} span(s)", dir.display(), snap.spans.len());
    for root in snap.roots() {
        print_tree(&snap, root.id, 0);
    }
    if top > 0 {
        print_top(&snap, top);
    }
}

fn print_tree(snap: &TraceSnapshot, id: u64, depth: usize) {
    let Some(s) = snap.span(id) else { return };
    let fields: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{:indent$}{} [{}] {}..{} ({} cycles) {}",
        "",
        s.name,
        s.layer.label(),
        s.begin,
        s.end,
        s.duration(),
        fields.join(" "),
        indent = depth * 2
    );
    for child in snap.children(id) {
        print_tree(snap, child.id, depth + 1);
    }
}

/// The N span names with the largest total duration, each with its
/// per-bucket log2 duration rows (formatting shared with
/// `viprof stat --histograms` via [`log2_rows`]).
fn print_top(snap: &TraceSnapshot, top: usize) {
    let mut totals: Vec<(String, u64, u64)> = Vec::new();
    for s in &snap.spans {
        match totals.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some(row) => {
                row.1 += s.duration();
                row.2 += 1;
            }
            None => totals.push((s.name.clone(), s.duration(), 1)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!(
        "== top {} span name(s) by total duration ==",
        top.min(totals.len())
    );
    for (name, total, count) in totals.iter().take(top) {
        println!("  {name} — {count} span(s), {total} cycles");
        for row in log2_rows(&snap.duration_buckets(Some(name))) {
            println!("    {row}");
        }
    }
}

fn span_dump_json(snap: &TraceSnapshot) -> String {
    let spans = snap.spans.iter().map(|s| {
        let mut fields = s.fields.clone();
        fields.sort();
        Json::obj([
            ("id", Json::Num(s.id)),
            ("parent", Json::Num(s.parent)),
            ("trace", Json::Num(s.trace)),
            ("layer", Json::Str(s.layer.label().to_string())),
            ("name", Json::Str(s.name.clone())),
            ("begin", Json::Num(s.begin)),
            ("end", Json::Num(s.end)),
            (
                "fields",
                Json::obj(fields.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            ),
        ])
    });
    Json::obj([("spans", Json::Arr(spans.collect()))]).to_pretty()
}
