//! The parallel resolution engine: flattened epoch indexes + interned
//! symbols + sharded multi-threaded aggregation.
//!
//! [`ResolutionEngine`] is the library's only resolver. It is built
//! from the map sets a [`ViprofResolver`] loaded:
//!
//! 1. every pid's epoch chain is collapsed into a
//!    [`FlatIndex`] (one binary search per
//!    lookup instead of one per epoch), and the boot-image map is
//!    flattened the same way;
//! 2. labels resolve to interned [`Arc<str>`] pairs once per code-map
//!    entry instead of allocating per bucket;
//! 3. the sample database is partitioned by bucket hash and the shards
//!    are resolved concurrently via [`std::thread::scope`] against the
//!    shared immutable index; per-shard
//!    [`ResolutionQuality`] tallies and row aggregates merge with plain
//!    commutative sums.
//!
//! The engine produces **bit-identical** reports and quality totals
//! regardless of thread count, and identical to the paper's per-bucket
//! backward epoch walk (§3.2). That walk lives only as a test oracle,
//! in the repository's `tests/support/walk.rs`, and is enforced by
//! `tests/engine_oracle.rs`, `tests/prop_resolve_flat.rs` and the
//! fault-matrix suite.

use crate::bootmap::BootMap;
use crate::flatindex::FlatIndex;
use crate::resolve::{IncarnationSummary, ResolutionQuality, ViprofResolver};
use crate::session::{ReportSpec, SessionReport};
use oprofile::report::{bucket_label, finish_report, report_events};
use oprofile::{SampleBucket, SampleDb, SampleOrigin, TIMELINE_PATH};
use sim_cpu::{HwEvent, Pid, ProcKey};
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL};
use sim_os::{ImageId, Kernel};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use viprof_telemetry::{
    names, Counter, Gauge, HealthReport, Histogram, LineageTable, SpanStore, Stage, Telemetry,
    Timeline, TraceCtx, TraceLayer, TraceSnapshot, DEFAULT_SPAN_CAPACITY,
};

/// How a bucket classified, mirroring the [`ResolutionQuality`]
/// buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Resolved,
    Stale,
    Unresolved,
    /// The sample's incarnation has no maps while another incarnation
    /// of the same pid does — refused, never cross-resolved.
    Blocked,
}

/// One entry of the per-batch loss ledger that lineage attributes
/// dropped and evicted samples to: a traced sample-batch journal
/// record's sequence number, the journal span its header carries, and
/// the batch's loss counts. The batch path reads the ledger from the
/// journal once per load ([`ViprofResolver::load_with`]); a live engine
/// appends one entry per journaled, traced batch its drain sink
/// receives. The sink sees exactly the journaled record stream, so the
/// two ledgers are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchLoss {
    pub(crate) seq: u64,
    pub(crate) span: TraceCtx,
    pub(crate) dropped: u64,
    pub(crate) evicted: u64,
}

/// One shard's report rows: per-event counts keyed by (image, symbol).
type ShardRows = HashMap<(Arc<str>, Arc<str>), Vec<u64>>;

/// Per-shard partial sums; merged by addition, so the totals are
/// independent of the partition.
#[derive(Debug, Clone, Copy, Default)]
struct ShardTally {
    resolved: u64,
    stale_epoch: u64,
    unresolved: u64,
    /// Samples whose shard panicked twice (worker + fallback): kept in
    /// the accounting so the report never silently shrinks.
    quarantined: u64,
    /// Samples refused by the cross-incarnation isolation invariant.
    blocked: u64,
}

/// Deterministic shard-poison knob (fault-matrix and unit tests): any
/// bucket belonging to `pid` panics mid-resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPoison {
    /// JIT pid whose buckets trip the panic.
    pub pid: Pid,
    /// `false`: panic only inside parallel shard workers, so the
    /// engine's single-threaded fallback re-resolve succeeds and the
    /// report comes out identical to a clean run. `true`: the fallback
    /// panics too and the shard's samples are quarantined.
    pub fatal: bool,
}

/// The engine's resolved telemetry handles. The quality counters are a
/// *second sink* for the same [`ShardTally`] values the merged
/// [`ResolutionQuality`] struct sums — deliberately redundant so
/// [`EngineTelemetry::finish`] can assert the two accountings agree
/// (the struct and the registry can never drift apart silently).
#[derive(Debug, Clone)]
struct EngineTelemetry {
    registry: Telemetry,
    resolved: Counter,
    stale_epoch: Counter,
    unresolved: Counter,
    quarantined: Counter,
    cross_incarnation_blocked: Counter,
    dropped: Counter,
    evicted: Counter,
    quarantined_lines: Counter,
    skipped_map_files: Counter,
    failed_pids: Counter,
    missing_epochs: Counter,
    shard_panics: Counter,
    shards: Gauge,
    shard_samples: Histogram,
    report_stage: Stage,
}

impl EngineTelemetry {
    fn attach(registry: &Telemetry) -> EngineTelemetry {
        EngineTelemetry {
            registry: registry.clone(),
            resolved: registry.counter(names::RESOLVE_SAMPLES_RESOLVED),
            stale_epoch: registry.counter(names::RESOLVE_SAMPLES_STALE_EPOCH),
            unresolved: registry.counter(names::RESOLVE_SAMPLES_UNRESOLVED),
            quarantined: registry.counter(names::RESOLVE_SAMPLES_QUARANTINED),
            cross_incarnation_blocked: registry
                .counter(names::RESOLVE_SAMPLES_CROSS_INCARNATION_BLOCKED),
            dropped: registry.counter(names::RESOLVE_SAMPLES_DROPPED),
            evicted: registry.counter(names::RESOLVE_SAMPLES_EVICTED),
            quarantined_lines: registry.counter(names::RESOLVE_QUARANTINED_LINES),
            skipped_map_files: registry.counter(names::RESOLVE_SKIPPED_MAP_FILES),
            failed_pids: registry.counter(names::RESOLVE_FAILED_PIDS),
            missing_epochs: registry.counter(names::RESOLVE_MISSING_EPOCHS),
            shard_panics: registry.counter(names::RESOLVE_SHARD_PANICS),
            shards: registry.gauge(names::RESOLVE_SHARDS),
            shard_samples: registry.histogram(names::RESOLVE_SHARD_SAMPLES),
            report_stage: registry.stage(names::STAGE_RESOLVE_REPORT),
        }
    }

    /// Current values of the eleven quality counters, in
    /// [`ResolutionQuality`] field order. Taken before a resolve pass
    /// so `finish` can compare deltas (registries may be shared and
    /// pre-used, so absolute values prove nothing).
    fn quality_counts(&self) -> [u64; 11] {
        [
            self.resolved.get(),
            self.stale_epoch.get(),
            self.unresolved.get(),
            self.quarantined.get(),
            self.cross_incarnation_blocked.get(),
            self.dropped.get(),
            self.evicted.get(),
            self.quarantined_lines.get(),
            self.skipped_map_files.get(),
            self.failed_pids.get(),
            self.missing_epochs.get(),
        ]
    }

    /// Second-sink accumulation of one shard tally.
    fn add_tally(&self, t: &ShardTally) {
        self.resolved.add(t.resolved);
        self.stale_epoch.add(t.stale_epoch);
        self.unresolved.add(t.unresolved);
        self.quarantined.add(t.quarantined);
        self.cross_incarnation_blocked.add(t.blocked);
    }

    /// Second-sink accumulation of the static base quality (load-time
    /// damage plus ring-buffer drops and admission-cap evictions).
    fn add_base(&self, base: &ResolutionQuality) {
        self.dropped.add(base.dropped);
        self.evicted.add(base.evicted);
        self.quarantined_lines.add(base.quarantined_lines);
        self.skipped_map_files.add(base.skipped_map_files);
        self.failed_pids.add(base.failed_pids);
        self.missing_epochs.add(base.missing_epochs);
    }

    /// One shard worker died. Counts the panic and records whether the
    /// single-threaded fallback recovered the shard or its samples went
    /// to quarantine.
    fn note_shard_panic(&self, shard: u64, samples: u64, recovered: bool) {
        self.shard_panics.inc();
        self.registry.event(
            names::EVENT_RESOLVE_SHARD_QUARANTINE,
            if recovered {
                "shard panicked; fallback re-resolve recovered it"
            } else {
                "shard panicked twice; samples quarantined"
            },
            &[
                ("shard", shard),
                ("samples", samples),
                ("recovered", recovered as u64),
            ],
        );
    }

    /// Close out one resolve pass: shard-shape metrics, the offline
    /// work-unit stage, and the counter-vs-struct equivalence check.
    fn finish(&self, before: [u64; 11], quality: &ResolutionQuality, shard_sizes: &[u64]) {
        self.shards.set(shard_sizes.len() as u64);
        for &size in shard_sizes {
            self.shard_samples.record(size);
        }
        self.report_stage.record(quality.accounted());
        let after = self.quality_counts();
        let deltas: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            deltas,
            vec![
                quality.resolved,
                quality.stale_epoch,
                quality.unresolved,
                quality.quarantined,
                quality.cross_incarnation_blocked,
                quality.dropped,
                quality.evicted,
                quality.quarantined_lines,
                quality.skipped_map_files,
                quality.failed_pids,
                quality.missing_epochs,
            ],
            "engine telemetry counters diverged from the merged quality struct"
        );
    }
}

/// Immutable resolution state shared by every shard. Built once from a
/// loaded [`ViprofResolver`]; safe to query from any number of scoped
/// threads.
#[derive(Debug, Default)]
pub struct ResolutionEngine {
    /// Flattened epoch chain per incarnation.
    flat: HashMap<ProcKey, FlatIndex>,
    /// Pids with at least one incarnation in `flat` — the lookup
    /// behind cross-incarnation blocking.
    pids_with_maps: HashSet<u32>,
    /// Flattened boot-image map: disjoint `[start, end)` offset ranges
    /// with interned method names, reproducing `BootMap::resolve`'s
    /// candidate/shadowing behaviour exactly.
    boot_starts: Vec<u64>,
    boot_ends: Vec<u64>,
    boot_names: Vec<Arc<str>>,
    boot_image: Option<ImageId>,
    /// Load-time damage counters (quarantined lines, skipped files,
    /// failed pids, missing epochs) — the static part of every quality
    /// report.
    damage: ResolutionQuality,
    /// Per-batch loss ledger, in journal order (see [`BatchLoss`]).
    ledger: Vec<BatchLoss>,
    jit_app: Arc<str>,
    unresolved_jit: Arc<str>,
    rvm_map: Arc<str>,
    boot_image_name: Arc<str>,
    no_symbols: Arc<str>,
    /// Resolved handles into an attached registry; `None` keeps the
    /// engine metrics-free (handles never charge simulated cycles
    /// either way).
    telemetry: Option<EngineTelemetry>,
}

impl ResolutionEngine {
    /// An engine with nothing loaded: no indexes, no boot map, zero
    /// damage. The interned constant labels are still real (a derived
    /// `Default` would leave them empty strings) — this is the starting
    /// state [`crate::live::LiveEngine`] grows incrementally.
    pub(crate) fn empty() -> ResolutionEngine {
        ResolutionEngine {
            jit_app: Arc::from("JIT.App"),
            unresolved_jit: Arc::from("(unresolved jit)"),
            rvm_map: Arc::from(RVM_MAP_IMAGE_LABEL),
            boot_image_name: Arc::from(BOOT_IMAGE_NAME),
            no_symbols: Arc::from("(no symbols)"),
            ..ResolutionEngine::default()
        }
    }

    /// Flatten and intern everything the resolver loaded, and take
    /// over its loss ledger.
    pub fn build(resolver: &ViprofResolver) -> ResolutionEngine {
        let mut engine = ResolutionEngine::empty();
        let mut damage = ResolutionQuality {
            failed_pids: resolver.failed_pids().len() as u64,
            ..ResolutionQuality::default()
        };
        for (key, set) in resolver.sets() {
            damage.quarantined_lines += set.quarantined_lines;
            damage.skipped_map_files += set.skipped_files;
            damage.missing_epochs += set.missing_epochs();
            engine.insert_index(*key, FlatIndex::build(set));
        }
        engine.damage = damage;
        engine.ledger = resolver.ledger().to_vec();
        engine.set_boot(resolver.bootmap(), resolver.boot_image_id());
        engine
    }

    /// (Re)flatten the boot-image map with the same candidate rule its
    /// `resolve` applies: last entry per distinct offset, coverage cut
    /// at the next distinct offset. Replaces any previous boot state —
    /// the live path calls this again when `RVM.map` (re)appears
    /// mid-session.
    pub(crate) fn set_boot(&mut self, bootmap: &BootMap, boot_image: Option<ImageId>) {
        let methods = bootmap.methods();
        self.boot_starts.clear();
        self.boot_ends.clear();
        self.boot_names.clear();
        self.boot_image = boot_image;
        let mut i = 0;
        while i < methods.len() {
            let offset = methods[i].offset;
            let mut j = i + 1;
            while j < methods.len() && methods[j].offset == offset {
                j += 1;
            }
            let cand = &methods[j - 1];
            let mut end = offset.saturating_add(cand.size);
            if let Some(next) = methods.get(j) {
                end = end.min(next.offset);
            }
            if end > offset {
                self.boot_starts.push(offset);
                self.boot_ends.push(end);
                self.boot_names.push(Arc::from(cand.name.as_str()));
            }
            i = j;
        }
    }

    /// Install (or replace) one incarnation's flattened index.
    pub(crate) fn insert_index(&mut self, key: ProcKey, index: FlatIndex) {
        self.pids_with_maps.insert(key.pid.0);
        self.flat.insert(key, index);
    }

    /// Remove one incarnation's heavy index (frozen-incarnation drop).
    /// Deliberately leaves `pids_with_maps` alone: the pid *had* maps,
    /// so a straggler sample of another generation must still classify
    /// as blocked, never as merely unresolved.
    pub(crate) fn take_index(&mut self, key: &ProcKey) -> Option<FlatIndex> {
        self.flat.remove(key)
    }

    /// Mutable access to one incarnation's index, for in-place epoch
    /// extension.
    pub(crate) fn index_mut(&mut self, key: &ProcKey) -> Option<&mut FlatIndex> {
        self.flat.get_mut(key)
    }

    /// Replace the load-time damage counters (the live path tracks them
    /// incrementally and installs the totals before each snapshot).
    pub(crate) fn set_damage(&mut self, damage: ResolutionQuality) {
        self.damage = damage;
    }

    /// Append one traced batch to the loss ledger (the live path, once
    /// per journaled batch it ingests).
    pub(crate) fn push_batch_loss(&mut self, loss: BatchLoss) {
        self.ledger.push(loss);
    }

    /// Mirror every subsequent resolve pass into `registry`'s
    /// `resolve.*` metrics. Handles are resolved once here; the sharded
    /// hot path never locks the registry.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        self.telemetry = Some(EngineTelemetry::attach(registry));
    }

    /// The flattened index for one incarnation, if its maps loaded. A
    /// bare `Pid` coerces to generation 0.
    pub fn index(&self, key: impl Into<ProcKey>) -> Option<&FlatIndex> {
        self.flat.get(&key.into())
    }

    fn boot_resolve(&self, offset: u64) -> Option<&Arc<str>> {
        let pos = self.boot_starts.partition_point(|s| *s <= offset).checked_sub(1)?;
        (offset < self.boot_ends[pos]).then(|| &self.boot_names[pos])
    }

    /// Classification only — no label allocation.
    pub(crate) fn classify_bucket(&self, bucket: &SampleBucket) -> Class {
        match bucket.origin {
            SampleOrigin::JitApp { pid, gen } => {
                match self.flat.get(&ProcKey::new(pid, gen)) {
                    Some(f) => match f.resolve_salvage(bucket.addr, bucket.epoch) {
                        Some((_, false)) => Class::Resolved,
                        Some((_, true)) => Class::Stale,
                        None => Class::Unresolved,
                    },
                    None if self.pids_with_maps.contains(&pid.0) => Class::Blocked,
                    None => Class::Unresolved,
                }
            }
            SampleOrigin::Image(_) => Class::Resolved,
            SampleOrigin::Anon { .. } | SampleOrigin::Unknown => Class::Unresolved,
        }
    }

    /// Label one bucket as interned `(image, symbol)` columns, without
    /// per-bucket `String` allocations on the hot (JIT / boot-image)
    /// paths.
    pub fn label(&self, bucket: &SampleBucket, kernel: &Kernel) -> (Arc<str>, Arc<str>) {
        match bucket.origin {
            SampleOrigin::Image(id) if Some(id) == self.boot_image => {
                match self.boot_resolve(bucket.addr) {
                    Some(name) => (self.rvm_map.clone(), name.clone()),
                    None => (self.boot_image_name.clone(), self.no_symbols.clone()),
                }
            }
            SampleOrigin::JitApp { pid, gen } => {
                match self
                    .flat
                    .get(&ProcKey::new(pid, gen))
                    .and_then(|f| f.resolve_salvage(bucket.addr, bucket.epoch))
                {
                    Some((sym, _)) => (self.jit_app.clone(), sym.clone()),
                    None => (self.jit_app.clone(), self.unresolved_jit.clone()),
                }
            }
            _ => {
                let (img, sym) = bucket_label(bucket, kernel);
                (Arc::from(img), Arc::from(sym))
            }
        }
    }

    /// Partition the database's buckets into `threads` shards by
    /// bucket hash (one shard — every bucket — when `threads <= 1`).
    fn shard<'db>(
        &self,
        db: &'db SampleDb,
        threads: usize,
    ) -> Vec<Vec<(&'db SampleBucket, u64)>> {
        let n = threads.max(1);
        let mut shards: Vec<Vec<(&SampleBucket, u64)>> = vec![Vec::new(); n];
        if n == 1 {
            shards[0] = db.iter().map(|(b, c)| (b, *c)).collect();
            return shards;
        }
        for (b, c) in db.iter() {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            shards[(h.finish() % n as u64) as usize].push((b, *c));
        }
        shards
    }

    fn base_quality(&self, db: &SampleDb) -> ResolutionQuality {
        ResolutionQuality {
            dropped: db.dropped,
            evicted: db.evicted,
            ..self.damage
        }
    }

    /// Resolve one shard: row aggregation keyed by interned labels,
    /// plus the shard's quality tally. Aggregation only covers buckets
    /// whose event is a report column (like [`oprofile::report::aggregate`]),
    /// so an empty `events` list does no label work; the tally covers
    /// every bucket.
    fn resolve_shard(
        &self,
        shard: &[(&SampleBucket, u64)],
        kernel: &Kernel,
        events: &[HwEvent],
        poison: Option<ShardPoison>,
        parallel_worker: bool,
    ) -> (ShardRows, ShardTally) {
        let mut agg: ShardRows = HashMap::new();
        let mut tally = ShardTally::default();
        for &(bucket, count) in shard {
            trip_poison(poison, bucket, parallel_worker);
            match self.classify_bucket(bucket) {
                Class::Resolved => tally.resolved += count,
                Class::Stale => tally.stale_epoch += count,
                Class::Unresolved => tally.unresolved += count,
                Class::Blocked => tally.blocked += count,
            }
            if let Some(col) = events.iter().position(|e| *e == bucket.event) {
                let key = self.label(bucket, kernel);
                agg.entry(key).or_insert_with(|| vec![0; events.len()])[col] += count;
            }
        }
        (agg, tally)
    }

    /// Quarantine tally for a shard whose worker *and* fallback died:
    /// every sample is kept in the accounting, none get report rows.
    fn quarantine_tally(shard: &[(&SampleBucket, u64)]) -> ShardTally {
        ShardTally {
            quarantined: shard.iter().map(|(_, c)| *c).sum(),
            ..ShardTally::default()
        }
    }

    /// Resolve `db` into a full [`SessionReport`] under `spec` — the
    /// builder-spec twin of [`Viprof::make_report`](crate::Viprof::make_report)
    /// for callers that already hold a loaded engine. Honors
    /// `spec.poison` for this call only, shards across `spec.threads`,
    /// and fills the per-incarnation breakdown; `recovery` is always
    /// `None` (replay is a load-time concern, not the engine's).
    pub fn resolve(&mut self, db: &SampleDb, kernel: &Kernel, spec: &ReportSpec) -> SessionReport {
        let (events, totals) = report_events(db, &spec.options);
        let (rows, quality) = self.run_shards(db, kernel, &events, spec.threads, spec.poison);
        // One `String` materialization per distinct row — not per
        // bucket — to hand off to the shared row shaping:
        // [`finish_report`], the same code `aggregate` runs.
        let rows: HashMap<(String, String), Vec<u64>> = rows
            .into_iter()
            .map(|((img, sym), counts)| ((img.to_string(), sym.to_string()), counts))
            .collect();
        let lines = finish_report(events, totals, rows, &spec.options);
        let incarnations = self.incarnations(db);
        if let Some(t) = &self.telemetry {
            t.registry
                .counter(names::REPORT_ROWS)
                .add(lines.rows.len() as u64);
            t.registry
                .stage(names::STAGE_REPORT_FINISH)
                .record(lines.rows.len() as u64);
        }
        let telemetry = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.snapshot())
            .unwrap_or_else(|| Telemetry::new().snapshot());
        let (lineage, trace) = if spec.trace {
            Self::lineage_and_trace(&self.ledger, &quality, &incarnations)
        } else {
            (LineageTable::default(), TraceSnapshot::default())
        };
        SessionReport {
            lines,
            quality,
            recovery: None,
            incarnations,
            telemetry,
            lineage,
            trace,
            health: Self::evaluate_health(kernel),
        }
    }

    /// Evaluate the default health rules over the timeline the session
    /// exported at stop. Health is a pure function of that artifact —
    /// not of resolve-time state — so batch reports, sealed-live
    /// snapshots and every thread count agree by construction. Sessions
    /// that exported no timeline (or an unreadable one) report healthy.
    fn evaluate_health(kernel: &Kernel) -> HealthReport {
        kernel
            .vfs
            .read(TIMELINE_PATH)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .and_then(|json| Timeline::from_json(json).ok())
            .map(|timeline| HealthReport::evaluate(&timeline))
            .unwrap_or_default()
    }

    /// Decompose every [`ResolutionQuality`] loss bucket by causal
    /// span, and record the resolve pass's own span tree.
    ///
    /// The trace runs on a *work-unit pseudo-clock* (one tick per
    /// logical step), never wall or sim time, and never emits
    /// per-worker spans — so the same `(ledger, quality,
    /// incarnations)` inputs produce a byte-identical trace at every
    /// thread count, and batch vs live agree exactly. It reads no
    /// journal byte: the ledger was built at load (batch) or at ingest
    /// (live), so its cost is one step per traced batch.
    ///
    /// Reconciliation is by construction: dropped/evicted samples are
    /// attributed per traced journal batch only when the ledger's sums
    /// do not exceed the authoritative quality counts; any remainder —
    /// or, on disagreement, the whole count — lands on the ingest span
    /// as an `untraced` row. Per bucket, the lineage total therefore
    /// always equals the quality count exactly.
    fn lineage_and_trace(
        ledger: &[BatchLoss],
        quality: &ResolutionQuality,
        incarnations: &[IncarnationSummary],
    ) -> (LineageTable, TraceSnapshot) {
        use viprof_telemetry::trace::{
            LINEAGE_BLOCKED, LINEAGE_DROPPED, LINEAGE_EVICTED, LINEAGE_QUARANTINED,
        };
        let mut store = SpanStore::new(DEFAULT_SPAN_CAPACITY);
        let mut now = 0u64;
        let (root, _) = store.begin(TraceLayer::Resolve, names::SPAN_RESOLVE, None, now);
        let mut lineage = LineageTable::default();

        let journaled_dropped: u64 = ledger.iter().map(|b| b.dropped).sum();
        let journaled_evicted: u64 = ledger.iter().map(|b| b.evicted).sum();
        let drop_per_batch = journaled_dropped <= quality.dropped;
        let evict_per_batch = journaled_evicted <= quality.evicted;
        let (ingest, _) =
            store.begin(TraceLayer::Resolve, names::SPAN_RESOLVE_INGEST, Some(root), now);
        for b in ledger {
            now += 1;
            let label = format!("journal batch seq {}", b.seq);
            if drop_per_batch {
                lineage.push(
                    LINEAGE_DROPPED,
                    TraceLayer::Journal,
                    Some(b.span),
                    label.as_str(),
                    b.dropped,
                );
            }
            if evict_per_batch {
                lineage.push(
                    LINEAGE_EVICTED,
                    TraceLayer::Journal,
                    Some(b.span),
                    label,
                    b.evicted,
                );
            }
        }
        store.end(ingest, now, &[("batches", ledger.len() as u64)]);
        let rem_dropped =
            quality.dropped - if drop_per_batch { journaled_dropped } else { 0 };
        let rem_evicted =
            quality.evicted - if evict_per_batch { journaled_evicted } else { 0 };
        lineage.push(LINEAGE_DROPPED, TraceLayer::Resolve, Some(ingest), "untraced", rem_dropped);
        lineage.push(LINEAGE_EVICTED, TraceLayer::Resolve, Some(ingest), "untraced", rem_evicted);

        // Blocked samples: one row per incarnation, provided the
        // per-row classification reconciles with the merged quality (a
        // quarantined shard hides some classifications — fall back to
        // one aggregate row attributed to the resolve pass).
        let rows_blocked: u64 = incarnations.iter().map(|r| r.blocked).sum();
        if rows_blocked == quality.cross_incarnation_blocked {
            for row in incarnations.iter().filter(|r| r.blocked > 0) {
                let (span, _) = store.begin(
                    TraceLayer::Resolve,
                    names::SPAN_RESOLVE_INCARNATION,
                    Some(root),
                    now,
                );
                now += 1;
                store.end(
                    span,
                    now,
                    &[
                        ("pid", row.pid as u64),
                        ("gen", row.gen as u64),
                        ("blocked", row.blocked),
                    ],
                );
                lineage.push(
                    LINEAGE_BLOCKED,
                    TraceLayer::Resolve,
                    Some(span),
                    format!("pid {} gen {}", row.pid, row.gen),
                    row.blocked,
                );
            }
        } else if quality.cross_incarnation_blocked > 0 {
            let (span, _) = store.begin(
                TraceLayer::Resolve,
                names::SPAN_RESOLVE_INCARNATION,
                Some(root),
                now,
            );
            now += 1;
            store.end(span, now, &[("blocked", quality.cross_incarnation_blocked)]);
            lineage.push(
                LINEAGE_BLOCKED,
                TraceLayer::Resolve,
                Some(span),
                "aggregate",
                quality.cross_incarnation_blocked,
            );
        }

        // Quarantine is a resolve-side loss: one total row against the
        // shard pass (per-worker spans would break thread invariance).
        if quality.quarantined > 0 {
            let (span, _) = store.begin(
                TraceLayer::Resolve,
                names::SPAN_RESOLVE_SHARDS,
                Some(root),
                now,
            );
            now += 1;
            store.end(span, now, &[("quarantined", quality.quarantined)]);
            lineage.push(
                LINEAGE_QUARANTINED,
                TraceLayer::Resolve,
                Some(span),
                "shard quarantine",
                quality.quarantined,
            );
        }
        store.end(
            root,
            now,
            &[
                ("accounted", quality.accounted()),
                ("dropped", quality.dropped),
                ("evicted", quality.evicted),
                ("quarantined", quality.quarantined),
                ("blocked", quality.cross_incarnation_blocked),
            ],
        );
        (lineage, store.snapshot())
    }

    /// Per-incarnation breakdown of `db`'s JIT samples, sorted by
    /// `(pid, gen)`. Classification goes through [`Self::classify_bucket`],
    /// so the rows partition the JIT share of the quality report.
    /// Poison never trips here: the breakdown has no panic seam.
    fn incarnations(&self, db: &SampleDb) -> Vec<IncarnationSummary> {
        let mut rows: BTreeMap<(u32, u32), IncarnationSummary> = BTreeMap::new();
        for (bucket, count) in db.iter() {
            let SampleOrigin::JitApp { pid, gen } = bucket.origin else {
                continue;
            };
            let row = rows.entry((pid.0, gen)).or_insert_with(|| IncarnationSummary {
                pid: pid.0,
                gen,
                samples: 0,
                resolved: 0,
                stale_epoch: 0,
                unresolved: 0,
                blocked: 0,
            });
            row.samples += count;
            match self.classify_bucket(bucket) {
                Class::Resolved => row.resolved += count,
                Class::Stale => row.stale_epoch += count,
                Class::Unresolved => row.unresolved += count,
                Class::Blocked => row.blocked += count,
            }
        }
        rows.into_values().collect()
    }

    /// Resolve `db` across `threads` hash shards (`0`/`1` =
    /// single-threaded): report rows for the `events` columns plus the
    /// quality tally over every bucket. Results are bit-identical for
    /// every thread count, because shard sums are commutative.
    fn run_shards(
        &self,
        db: &SampleDb,
        kernel: &Kernel,
        events: &[HwEvent],
        threads: usize,
        poison: Option<ShardPoison>,
    ) -> (ShardRows, ResolutionQuality) {
        let shards = self.shard(db, threads);
        let run = |shard: &[(&SampleBucket, u64)], parallel_worker: bool| {
            self.resolve_shard(shard, kernel, events, poison, parallel_worker)
        };
        // A panicking shard must not take the session report with it:
        // every worker is isolated, and a dead shard is retried once,
        // single-threaded, through this same shard code (a non-fatal
        // poison does not trip there) before its samples fall back to
        // quarantine accounting.
        let attempts: Vec<Option<(ShardRows, ShardTally)>> = if shards.len() <= 1 {
            shards
                .iter()
                .map(|s| catch_unwind(AssertUnwindSafe(|| run(s, true))).ok())
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| scope.spawn(move || run(shard, true)))
                    .collect();
                handles.into_iter().map(|h| h.join().ok()).collect()
            })
        };
        let parts: Vec<(ShardRows, ShardTally)> = attempts
            .into_iter()
            .enumerate()
            .map(|(i, attempt)| match attempt {
                Some(part) => part,
                None => {
                    let retried = catch_unwind(AssertUnwindSafe(|| run(&shards[i], false)));
                    let recovered = retried.is_ok();
                    if let Some(t) = &self.telemetry {
                        let samples: u64 = shards[i].iter().map(|(_, c)| *c).sum();
                        t.note_shard_panic(i as u64, samples, recovered);
                    }
                    retried.unwrap_or_else(|_| {
                        (HashMap::new(), Self::quarantine_tally(&shards[i]))
                    })
                }
            })
            .collect();

        let before = self.telemetry.as_ref().map(|t| t.quality_counts());
        let shard_sizes: Vec<u64> = shards
            .iter()
            .map(|s| s.iter().map(|(_, c)| *c).sum())
            .collect();
        let mut quality = self.base_quality(db);
        if let Some(t) = &self.telemetry {
            t.add_base(&quality);
        }
        let mut merged: ShardRows = HashMap::new();
        for (agg, tally) in parts {
            quality.resolved += tally.resolved;
            quality.stale_epoch += tally.stale_epoch;
            quality.unresolved += tally.unresolved;
            quality.quarantined += tally.quarantined;
            quality.cross_incarnation_blocked += tally.blocked;
            if let Some(t) = &self.telemetry {
                t.add_tally(&tally);
            }
            for (key, counts) in agg {
                match merged.entry(key) {
                    Entry::Occupied(mut e) => {
                        for (a, b) in e.get_mut().iter_mut().zip(&counts) {
                            *a += b;
                        }
                    }
                    Entry::Vacant(v) => {
                        v.insert(counts);
                    }
                }
            }
        }
        if let (Some(t), Some(before)) = (&self.telemetry, before) {
            t.finish(before, &quality, &shard_sizes);
        }
        (merged, quality)
    }

    /// Quality accounting alone: the shard runner with no report
    /// columns, so no label work and no shard poison.
    pub fn quality(&self, db: &SampleDb, threads: usize) -> ResolutionQuality {
        // Labels are only computed for report columns, so the kernel
        // is never consulted here; an empty one stands in.
        self.run_shards(db, &Kernel::new(), &[], threads, None).1
    }
}

/// Panic if `bucket` is poisoned in this context — the seam the
/// quarantine tests drive. A non-fatal poison only trips inside
/// parallel shard workers, leaving the fallback path clean.
fn trip_poison(poison: Option<ShardPoison>, bucket: &SampleBucket, parallel_worker: bool) {
    if let Some(p) = poison {
        if let SampleOrigin::JitApp { pid, .. } = bucket.origin {
            if pid == p.pid && (p.fatal || parallel_worker) {
                panic!("poisoned resolution shard (pid {})", pid.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use crate::resolve::ResolveOptions;
    use oprofile::SAMPLE_JOURNAL_PATH;
    use sim_jvm::bootimage::well_known;
    use sim_jvm::BootImage;
    use sim_os::journal::{self, KIND_SAMPLE_BATCH_TRACED};

    fn bucket(origin: SampleOrigin, addr: u64, epoch: u64) -> SampleBucket {
        SampleBucket {
            origin,
            event: HwEvent::Cycles,
            addr,
            epoch,
        }
    }

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut boot = BootImage::jikes_standard();
        boot.install(&mut k, pid, 0x0900_0000);
        k.vfs.write(
            map_path(pid, 0),
            render_map(&[CodeMapEntry {
                addr: 0x6400_0040,
                size: 0x80,
                level: "O1".into(),
                signature: "app.Scanner.parseLine".into(),
            }])
            .into_bytes(),
        );
        k.vfs.write(
            map_path(pid, 4),
            render_map(&[CodeMapEntry {
                addr: 0x6500_0000,
                size: 0x40,
                level: "base".into(),
                signature: "app.Late.comer".into(),
            }])
            .into_bytes(),
        );
        (k, pid)
    }

    fn mixed_db(k: &Kernel, pid: Pid) -> SampleDb {
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 2), 10);
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1), 6);
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x7000_0000, 0), 3);
        // A stamped generation with no maps of its own: blocked by the
        // isolation invariant, exercised through every engine path.
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 7 }, 0x6400_0080, 2), 2);
        db.add(bucket(SampleOrigin::Image(boot_id), 0x10, 0), 5);
        db.add(bucket(SampleOrigin::Image(k.kernel_image), 0x3000, 0), 4);
        db.add(bucket(SampleOrigin::Unknown, 0x0, 0), 2);
        db.dropped = 7;
        db
    }

    #[test]
    fn telemetry_counters_match_quality_for_every_thread_count() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let t = Telemetry::default();
            engine.set_telemetry(&t);
            let report = engine.resolve(&db, &k, &ReportSpec::default().threads(threads));
            let q = report.quality;
            assert!(!report.lines.rows.is_empty());
            let snap = t.snapshot();
            assert_eq!(snap.counter(names::RESOLVE_SAMPLES_RESOLVED), q.resolved);
            assert_eq!(snap.counter(names::RESOLVE_SAMPLES_STALE_EPOCH), q.stale_epoch);
            assert_eq!(snap.counter(names::RESOLVE_SAMPLES_UNRESOLVED), q.unresolved);
            assert_eq!(snap.counter(names::RESOLVE_SAMPLES_DROPPED), q.dropped);
            assert_eq!(snap.counter(names::RESOLVE_MISSING_EPOCHS), q.missing_epochs);
            assert_eq!(snap.gauge(names::RESOLVE_SHARDS), threads as u64);
            let shard_hist = snap.histogram(names::RESOLVE_SHARD_SAMPLES).unwrap();
            assert_eq!(shard_hist.count, threads as u64);
            assert_eq!(shard_hist.sum, db.total_samples());
            let stage = snap.stage(names::STAGE_RESOLVE_REPORT).unwrap();
            assert_eq!((stage.entries, stage.cycles), (1, q.accounted()));
        }
        // A shared, pre-used registry still passes the delta assertion
        // and simply accumulates across passes.
        let mut engine = ResolutionEngine::build(&resolver);
        let t = Telemetry::default();
        engine.set_telemetry(&t);
        let q1 = engine.quality(&db, 2);
        let q2 = engine.quality(&db, 3);
        assert_eq!(q1, q2);
        assert_eq!(
            t.snapshot().counter(names::RESOLVE_SAMPLES_RESOLVED),
            2 * q1.resolved
        );
    }

    #[test]
    fn nonfatal_poison_recovers_via_fallback_bit_identically() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let spec = ReportSpec::default().threads(4);
        let clean = ResolutionEngine::build(&resolver).resolve(&db, &k, &spec);
        let mut poisoned = ResolutionEngine::build(&resolver);
        let t = Telemetry::default();
        poisoned.set_telemetry(&t);
        let report =
            poisoned.resolve(&db, &k, &spec.poison(ShardPoison { pid, fatal: false }));
        assert_eq!(report.lines, clean.lines, "fallback must reproduce the clean report");
        assert_eq!(report.quality, clean.quality);
        assert_eq!(report.quality.quarantined, 0);
        let snap = t.snapshot();
        assert!(snap.counter(names::RESOLVE_SHARD_PANICS) >= 1);
        let events = snap.events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.fields.iter().any(|(k, v)| k == "recovered" && *v == 1)));
    }

    #[test]
    fn fatal_poison_quarantines_without_losing_accounting() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let t = Telemetry::default();
            engine.set_telemetry(&t);
            let spec = ReportSpec::default()
                .threads(threads)
                .poison(ShardPoison { pid, fatal: true });
            let q = engine.resolve(&db, &k, &spec).quality;
            assert!(q.quarantined > 0, "threads={threads}");
            assert_eq!(
                q.accounted(),
                db.total_samples(),
                "quarantine keeps the accounting complete (threads={threads})"
            );
            // One panic count and one event per dead shard (the
            // fallback's second panic is reported by that same event).
            let snap = t.snapshot();
            let panics = snap.counter(names::RESOLVE_SHARD_PANICS);
            assert!(panics >= 1, "threads={threads}");
            let events = snap.events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE);
            assert_eq!(events.len() as u64, panics, "threads={threads}");
            assert!(events
                .iter()
                .all(|e| e.fields.iter().any(|(k, v)| k == "recovered" && *v == 0)));
        }
    }

    #[test]
    fn poison_applies_to_one_call_only() {
        // A poisoned resolve must not leave the poison behind for the
        // engine's next quality or resolve call.
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        let clean = engine.quality(&db, 1);
        assert_eq!(clean.quarantined, 0);
        let poisoned = ReportSpec::default().poison(ShardPoison { pid, fatal: true });
        assert!(engine.resolve(&db, &k, &poisoned).quality.quarantined > 0);
        assert_eq!(engine.quality(&db, 1), clean, "quality after a poisoned resolve");
        assert_eq!(engine.resolve(&db, &k, &ReportSpec::default()).quality, clean);
    }

    #[test]
    fn figure1_shape_rvm_jit_and_libc_rows_coexist() {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut boot = BootImage::jikes_standard();
        boot.install(&mut k, pid, 0x0900_0000);
        let libc = k.images.insert(
            sim_os::Image::new("libc-2.3.2.so", 0x4000)
                .with_symbols([sim_os::Symbol::new("memset", 0x1000, 0x400)]),
        );
        k.vfs.write(
            map_path(pid, 0),
            render_map(&[CodeMapEntry {
                addr: 0x6400_0040,
                size: 0x100,
                level: "O2".into(),
                signature: "dacapo.ps.Scanner.parseLine".into(),
            }])
            .into_bytes(),
        );

        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        let mut add = |origin, addr, event, n| {
            db.add(
                SampleBucket {
                    origin,
                    event,
                    addr,
                    epoch: 0,
                },
                n,
            )
        };
        // VM-internal time (interpreter method at offset 0).
        add(SampleOrigin::Image(boot_id), 0x10, HwEvent::Cycles, 30);
        // JIT'd app method.
        add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::Cycles, 50);
        add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::L2Miss, 5);
        // Native memset with heavy misses (the paper's top Dmiss row).
        add(SampleOrigin::Image(libc), 0x1100, HwEvent::Cycles, 20);
        add(SampleOrigin::Image(libc), 0x1100, HwEvent::L2Miss, 15);

        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let r = ResolutionEngine::build(&resolver)
            .resolve(&db, &k, &ReportSpec::default())
            .lines;

        let jit = r.find("JIT.App", "dacapo.ps.Scanner.parseLine").unwrap();
        assert_eq!(jit.counts, vec![50, 5]);
        let vm = r.find("RVM.map", well_known::INTERPRET).unwrap();
        assert_eq!(vm.counts, vec![30, 0]);
        let memset = r.find("libc-2.3.2.so", "memset").unwrap();
        assert!((memset.percents[1] - 75.0).abs() < 1e-9, "Dmiss-dominant");
        // Figure-1 text shape.
        let text = r.render_text();
        assert!(text.contains("Time %"));
        assert!(text.contains("Dmiss %"));
        assert!(text.contains("RVM.map"));
        assert!(text.contains("JIT.App"));
        assert!(text.contains("memset"));
    }

    #[test]
    fn lineage_reconciles_with_quality_and_is_thread_invariant() {
        let (k, pid) = setup();
        let mut db = mixed_db(&k, pid);
        db.evicted = 9;
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut first: Option<SessionReport> = None;
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let spec = ReportSpec::default().threads(threads);
            let report = engine.resolve(&db, &k, &spec);
            let q = &report.quality;
            assert_eq!(report.lineage.total("dropped"), q.dropped);
            assert_eq!(report.lineage.total("evicted"), q.evicted);
            assert_eq!(report.lineage.total("quarantined"), q.quarantined);
            assert_eq!(
                report.lineage.total("blocked"),
                q.cross_incarnation_blocked
            );
            assert!(report.trace.roots().len() == 1);
            if let Some(prev) = &first {
                assert_eq!(prev.lineage, report.lineage, "threads={threads}");
                assert_eq!(
                    prev.trace.to_chrome_json(),
                    report.trace.to_chrome_json(),
                    "threads={threads}"
                );
            }
            first = Some(report);
        }
        // spec.trace == false skips the pass entirely.
        let mut engine = ResolutionEngine::build(&resolver);
        let report = engine.resolve(&db, &k, &ReportSpec::default().with_trace(false));
        assert_eq!(report.lineage, LineageTable::default());
        assert_eq!(report.trace, TraceSnapshot::default());
    }

    #[test]
    fn lineage_attributes_losses_to_journaled_batches() {
        let (mut k, pid) = setup();
        let mut db = mixed_db(&k, pid);
        db.dropped = 7;
        db.evicted = 4;
        // Two traced journal batches carrying (dropped, evicted) =
        // (3, 1) and (2, 3): dropped sums to 5 < 7 (remainder 2 goes
        // untraced), evicted sums to 4 == 4 (fully attributed).
        let mut writer =
            sim_os::journal::JournalWriter::create(&mut k.vfs, SAMPLE_JOURNAL_PATH);
        let mut batch1 = SampleDb::new();
        batch1.dropped = 3;
        batch1.evicted = 1;
        let mut batch2 = SampleDb::new();
        batch2.dropped = 2;
        batch2.evicted = 3;
        for (i, b) in [&batch1, &batch2].into_iter().enumerate() {
            let ctx = TraceCtx {
                trace: 0xAB,
                span: 0x100 + i as u64,
            };
            writer.append(
                &mut k.vfs,
                KIND_SAMPLE_BATCH_TRACED,
                &journal::encode_traced_payload(ctx, &b.to_bytes()),
            );
        }
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        let report = engine.resolve(&db, &k, &ReportSpec::default());
        assert_eq!(report.lineage.total("dropped"), 7);
        assert_eq!(report.lineage.total("evicted"), 4);
        let text = report.lineage.render_text();
        assert!(text.contains("journal batch seq"), "{text}");
        assert!(text.contains("untraced"), "{text}");
    }
}
