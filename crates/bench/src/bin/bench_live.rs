//! Live-resolution benchmark: incremental epoch extension vs. full
//! re-flattening, and streaming snapshot latency.
//!
//! Two measurements on the acceptance session (1M samples, 64 epochs,
//! 4 PIDs, 4096 methods per PID — the same `deep_epochs_1m` shape
//! `bench_resolve` gates):
//!
//! 1. **Index maintenance.** A naive live engine re-flattens a PID's
//!    whole epoch chain after every drain; `FlatIndex::extend` re-sweeps
//!    only the address window the new map touches. Both paths process
//!    the same 64-epoch chain epoch by epoch, the final indexes are
//!    asserted `==`, and the incremental path must not lose.
//!
//! 2. **Streaming snapshots.** A [`viprof::LiveEngine`] is fed one
//!    drain batch per epoch (maps appearing as they are "compiled"),
//!    each journaled as a traced record the way the daemon journals
//!    its drains, with `snapshot()` latency measured mid-run and after
//!    sealing. The sealed snapshot is asserted identical — lines,
//!    quality, incarnations, lineage and trace — to the batch
//!    `ResolutionEngine` over the same database and journal.
//!
//! Results land in `results/BENCH_live.json`. Usage:
//! `bench_live [--smoke]` — `--smoke` shrinks the session so
//! `scripts/verify.sh` can run it as a correctness gate in seconds.

use oprofile::{Daemon, SampleBucket, SampleDb, SampleOrigin, SAMPLE_JOURNAL_PATH};
use sim_cpu::HwEvent;
use sim_os::sync::Mutex;
use sim_os::{JournalWriter, Kernel};
use std::sync::Arc;
use std::time::Instant;
use viprof::codemap::{map_path, render_map, CodeMapEntry, CodeMapSet, EpochMap};
use viprof::resolve::ResolveOptions;
use viprof::{FlatIndex, LiveEngine, LiveSpec, ReportSpec, ResolutionEngine, ViprofResolver};
use viprof_bench::{quiet, write_artifact};
use viprof_telemetry::{impl_to_json, names, Telemetry};

/// Master seed of the deterministic sample stream (the scenario
/// derives its stream as `GENERATOR_SEED ^ samples`).
const GENERATOR_SEED: u64 = 0x11FE;

/// Deterministic generator (SplitMix64), same recurrence as
/// `bench_resolve` so runs are reproducible bit for bit.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const BASE: u64 = 0x6400_0000;
const METHOD_STRIDE: u64 = 0x100;
const METHOD_SIZE: u64 = 0x80;

#[derive(Clone, Copy)]
struct Scenario {
    pids: usize,
    epochs: u64,
    methods_per_pid: u64,
    samples: u64,
}

const ACCEPTANCE: Scenario = Scenario {
    pids: 4,
    epochs: 64,
    methods_per_pid: 4096,
    samples: 1_000_000,
};

/// Method `m` is compiled in epoch `m % epochs` at
/// `BASE + m * METHOD_STRIDE` — the `bench_resolve` layout.
fn epoch_entries(s: &Scenario, pid_no: usize, epoch: u64) -> Vec<CodeMapEntry> {
    (0..s.methods_per_pid)
        .filter(|m| m % s.epochs == epoch)
        .map(|m| CodeMapEntry {
            addr: BASE + m * METHOD_STRIDE,
            size: METHOD_SIZE,
            level: "O2".to_string(),
            signature: format!("bench.P{pid_no}.M{m:05}.run"),
        })
        .collect()
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

struct IndexMaintenance {
    chains: usize,
    epochs_per_chain: u64,
    entries_per_chain: u64,
    /// Total time to grow every chain epoch by epoch via
    /// `FlatIndex::extend`.
    incremental_ms: f64,
    /// Total time to re-run `FlatIndex::build` on the chain prefix
    /// after every epoch (the naive per-drain rebuild).
    full_reflatten_ms: f64,
    speedup: f64,
}

impl_to_json!(IndexMaintenance {
    chains,
    epochs_per_chain,
    entries_per_chain,
    incremental_ms,
    full_reflatten_ms,
    speedup,
});

/// Grow one chain both ways, min-of-`trials` each, and check the final
/// indexes are identical. Prefix sets are materialized outside the
/// timed region — the comparison is flattening work, not cloning.
fn measure_index_maintenance(s: &Scenario, trials: u32) -> IndexMaintenance {
    let chains: Vec<Vec<EpochMap>> = (0..s.pids)
        .map(|i| {
            (0..s.epochs)
                .map(|e| EpochMap::new(e, epoch_entries(s, i, e)))
                .collect()
        })
        .collect();
    let prefixes: Vec<Vec<CodeMapSet>> = chains
        .iter()
        .map(|chain| {
            (0..chain.len())
                .map(|e| CodeMapSet::new(chain[..=e].to_vec()))
                .collect()
        })
        .collect();

    let mut incremental_ms = f64::INFINITY;
    let mut full_reflatten_ms = f64::INFINITY;
    for _ in 0..trials {
        let t = Instant::now();
        let mut grown = Vec::with_capacity(chains.len());
        for chain in &chains {
            let mut idx = FlatIndex::build(&CodeMapSet::default());
            for (ordinal, map) in chain.iter().enumerate() {
                assert!(
                    idx.extend(map, ordinal as u32),
                    "in-order epoch append must take the fast path"
                );
            }
            grown.push(idx);
        }
        incremental_ms = incremental_ms.min(ms_since(t));

        let t = Instant::now();
        let mut rebuilt = Vec::with_capacity(prefixes.len());
        for per_epoch in &prefixes {
            let mut last = FlatIndex::default();
            for set in per_epoch {
                last = FlatIndex::build(set);
            }
            rebuilt.push(last);
        }
        full_reflatten_ms = full_reflatten_ms.min(ms_since(t));

        assert_eq!(
            grown, rebuilt,
            "extend-grown index diverged from the rebuilt chain"
        );
    }

    IndexMaintenance {
        chains: s.pids,
        epochs_per_chain: s.epochs,
        entries_per_chain: s.methods_per_pid,
        incremental_ms,
        full_reflatten_ms,
        speedup: full_reflatten_ms / incremental_ms,
    }
}

struct StreamingRun {
    batches: u64,
    samples: u64,
    incremental_extends: u64,
    full_rebuilds: u64,
    /// Total time spent merging batches, journaling them and inside
    /// `on_batch` across the run.
    ingest_ms: f64,
    midrun_snapshot_ms: f64,
    /// Sealed snapshot on one shard, min over the timed runs.
    sealed_snapshot_ms: f64,
    /// The same with `ReportSpec::trace` off — the baseline for the
    /// lineage/trace overhead gate.
    sealed_plain_ms: f64,
    batch_report_ms: f64,
    trace_overhead_pct: f64,
}

impl_to_json!(StreamingRun {
    batches,
    samples,
    incremental_extends,
    full_rebuilds,
    ingest_ms,
    midrun_snapshot_ms,
    sealed_snapshot_ms,
    sealed_plain_ms,
    batch_report_ms,
    trace_overhead_pct,
});

/// One drain per epoch: the epoch's maps land on disk, then a batch of
/// samples (uniform over the methods compiled so far, tagged with the
/// current epoch, with a few overflow and admission losses) is merged,
/// journaled as a traced record by the daemon's `journal_batch`, and
/// pushed through `on_batch` with that record's sequence number and
/// span — so lineage attributes every loss to its journaled batch.
fn measure_streaming(s: &Scenario, threads: usize, runs: u32) -> StreamingRun {
    let mut kernel = Kernel::new();
    let pids: Vec<_> = (0..s.pids)
        .map(|i| kernel.spawn(format!("jikesrvm-{i}")))
        .collect();

    let registry = Telemetry::new();
    let mut live = LiveEngine::new(LiveSpec::new());
    live.set_telemetry(&registry);
    let journal = Some(Arc::new(Mutex::new(JournalWriter::create(
        &mut kernel.vfs,
        SAMPLE_JOURNAL_PATH,
    ))));
    let spec = ReportSpec::default().threads(threads);

    let mut rng = SplitMix64(GENERATOR_SEED ^ s.samples);
    let per_batch = s.samples / s.epochs;
    let mut ingest_ms = 0.0;
    let mut midrun_snapshot_ms = 0.0;
    for epoch in 0..s.epochs {
        for (i, &pid) in pids.iter().enumerate() {
            kernel.vfs.write(
                map_path(pid, epoch),
                render_map(&epoch_entries(s, i, epoch)).into_bytes(),
            );
        }
        let mut batch = SampleDb::new();
        for _ in 0..per_batch {
            let pid = pids[rng.below(s.pids as u64) as usize];
            let m = rng.below(s.methods_per_pid);
            batch.add(
                SampleBucket {
                    origin: SampleOrigin::JitApp { pid, gen: 0 },
                    event: HwEvent::Cycles,
                    addr: BASE + m * METHOD_STRIDE + rng.below(METHOD_SIZE),
                    epoch,
                },
                1,
            );
        }
        batch.dropped = epoch % 3;
        batch.evicted = epoch % 2;
        let t = Instant::now();
        live.db().merge(&batch);
        let journaled =
            Daemon::journal_batch(&journal, &mut kernel.vfs, &batch, None, Some(&registry));
        live.on_batch(&kernel, journaled, &batch, None);
        ingest_ms += ms_since(t);
        if epoch == s.epochs / 2 {
            let t = Instant::now();
            let _ = live.snapshot(&kernel, &spec);
            midrun_snapshot_ms = ms_since(t);
        }
    }

    live.seal(&kernel);
    // Trace overhead is timed on one shard, interleaved, min over
    // `runs` each — `bench_resolve`'s protocol. A sharded pass on two
    // vCPUs spreads wider than the 3 % bound.
    let spec_plain = ReportSpec::default().with_trace(false);
    let spec_traced = ReportSpec::default();
    let mut sealed_plain_ms = f64::INFINITY;
    let mut sealed_snapshot_ms = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        let _ = live.snapshot(&kernel, &spec_plain);
        sealed_plain_ms = sealed_plain_ms.min(ms_since(t));
        let t = Instant::now();
        let _ = live.snapshot(&kernel, &spec_traced);
        sealed_snapshot_ms = sealed_snapshot_ms.min(ms_since(t));
    }
    let sealed = live.snapshot(&kernel, &spec);

    // The whole point of the stream: its sealed answer is the batch
    // engine's answer.
    let t = Instant::now();
    let (resolver, _) =
        ViprofResolver::load_with(&kernel, ResolveOptions::default()).expect("load maps");
    let mut engine = ResolutionEngine::build(&resolver);
    let offline = engine.resolve(&live.db(), &kernel, &spec);
    let batch_report_ms = ms_since(t);
    assert_eq!(sealed.lines, offline.lines, "live report diverged from batch");
    assert_eq!(sealed.quality, offline.quality, "live quality diverged from batch");
    assert_eq!(
        sealed.incarnations, offline.incarnations,
        "live incarnation rows diverged from batch"
    );
    // Lineage and trace are pure functions of (loss ledger, quality,
    // incarnations), and the stream's ledger is the journal's: the
    // sealed stream and the offline batch pass must agree byte for
    // byte, with every loss attributed to a journaled batch.
    assert!(
        sealed.lineage.total("dropped") > 0 && !sealed.lineage.render_text().contains("untraced"),
        "streaming lineage did not attribute its losses to journaled batches"
    );
    assert_eq!(sealed.lineage, offline.lineage, "live lineage diverged from batch");
    assert_eq!(
        sealed.trace.to_chrome_json(),
        offline.trace.to_chrome_json(),
        "live trace diverged from batch"
    );

    let snap = registry.snapshot();
    let samples = live.db().total_samples();
    StreamingRun {
        batches: live.batches(),
        samples,
        incremental_extends: snap.counter(names::LIVE_INCREMENTAL_EXTENDS),
        full_rebuilds: snap.counter(names::LIVE_FULL_REBUILDS),
        ingest_ms,
        midrun_snapshot_ms,
        sealed_snapshot_ms,
        sealed_plain_ms,
        batch_report_ms,
        trace_overhead_pct: (sealed_snapshot_ms - sealed_plain_ms) / sealed_plain_ms * 100.0,
    }
}

struct BenchConfig {
    smoke: bool,
    trials: u32,
    samples: u64,
    epochs: u64,
    pids: usize,
    methods_per_pid: u64,
}

impl_to_json!(BenchConfig { smoke, trials, samples, epochs, pids, methods_per_pid });

struct BenchMetrics {
    index_maintenance: IndexMaintenance,
    streaming: StreamingRun,
}

impl_to_json!(BenchMetrics { index_maintenance, streaming });

struct BenchGates {
    incremental_beats_reflatten: bool,
    streaming_took_incremental_path: bool,
    sealed_trace_overhead_under_3pct: bool,
}

impl_to_json!(BenchGates {
    incremental_beats_reflatten,
    streaming_took_incremental_path,
    sealed_trace_overhead_under_3pct,
});

/// Min-of-N deltas on sub-millisecond smoke runs are noise; an absolute
/// 0.5 ms slack keeps the gate meaningful at every scale (the same
/// convention as `bench_resolve`'s telemetry gate).
fn faster_ok(fast_ms: f64, slow_ms: f64) -> bool {
    fast_ms < slow_ms || fast_ms - slow_ms < 0.5
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trials = if smoke { 1 } else { 3 };
    let mut s = ACCEPTANCE;
    if smoke {
        s.samples = 20_000;
        s.methods_per_pid = s.methods_per_pid.min(256);
    }

    if !quiet() {
        eprintln!(
            "index maintenance: {} chains x {} epochs ({} entries each)...",
            s.pids, s.epochs, s.methods_per_pid
        );
    }
    let maintenance = measure_index_maintenance(&s, trials);
    println!(
        "index maintenance: incremental {:>8.2} ms | reflatten {:>8.2} ms ({:.2}x)",
        maintenance.incremental_ms, maintenance.full_reflatten_ms, maintenance.speedup
    );
    assert!(
        faster_ok(maintenance.incremental_ms, maintenance.full_reflatten_ms),
        "incremental extend lost to full re-flattening: {:.2} ms vs {:.2} ms",
        maintenance.incremental_ms,
        maintenance.full_reflatten_ms
    );

    if !quiet() {
        eprintln!("streaming {} samples over {} drains...", s.samples, s.epochs);
    }
    let streaming = measure_streaming(&s, 4, trials.max(20));
    println!(
        "streaming: {} batches ingested in {:>8.2} ms | snapshot mid {:.2} ms, sealed {:.2} ms | batch report {:.2} ms",
        streaming.batches,
        streaming.ingest_ms,
        streaming.midrun_snapshot_ms,
        streaming.sealed_snapshot_ms,
        streaming.batch_report_ms
    );
    assert!(
        streaming.incremental_extends > 0,
        "streaming run never took the incremental path"
    );
    println!(
        "trace overhead (sealed snapshot): {:+.2}% ({:.2} -> {:.2} ms)",
        streaming.trace_overhead_pct, streaming.sealed_plain_ms, streaming.sealed_snapshot_ms
    );
    // Same budget as bench_resolve's telemetry gate: <3% or <0.5 ms.
    let trace_gate = streaming.sealed_snapshot_ms - streaming.sealed_plain_ms < 0.5
        || streaming.trace_overhead_pct < 3.0;
    assert!(
        trace_gate,
        "lineage/trace overhead on the sealed snapshot exceeds 3%: {:.2}%",
        streaming.trace_overhead_pct
    );

    let gates = BenchGates {
        incremental_beats_reflatten: faster_ok(
            maintenance.incremental_ms,
            maintenance.full_reflatten_ms,
        ),
        streaming_took_incremental_path: streaming.incremental_extends > 0,
        sealed_trace_overhead_under_3pct: trace_gate,
    };
    write_artifact(
        "BENCH_live.json",
        GENERATOR_SEED,
        &BenchConfig {
            smoke,
            trials,
            samples: s.samples,
            epochs: s.epochs,
            pids: s.pids,
            methods_per_pid: s.methods_per_pid,
        },
        &BenchMetrics {
            index_maintenance: maintenance,
            streaming,
        },
        &gates,
    );
}
