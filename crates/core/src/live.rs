//! # Live incremental resolution
//!
//! The offline pipeline waits for `opcontrol --stop` before it builds
//! flat indexes and resolves the sample database. This module keeps a
//! resolution engine **current while the session runs**: the daemon
//! merges every drained batch into its sample database and then hands
//! the same batch to a [`LiveEngine`] through the [`DrainSink`] seam,
//! and the engine
//!
//! 1. counts the batch's samples per incarnation (the freeze/drop rule
//!    in step 3 needs them);
//! 2. rescans each incarnation's code-map directory and **extends**
//!    its [`FlatIndex`] by the newly appeared epoch maps only —
//!    [`FlatIndex::extend`] re-sweeps just the address window each new
//!    map touches, instead of re-flattening the whole chain;
//! 3. freezes incarnations the kernel no longer knows (exited or
//!    churned VMs): their final rescan has already happened, so their
//!    indexes are immutable from then on — and indexes that never
//!    received a sample are dropped outright;
//! 4. appends the batch's `(seq, journal span, dropped, evicted)` to
//!    the per-batch loss ledger when the daemon journaled it as a
//!    traced record — the ledger lineage reads, which the batch path
//!    builds from the journal at load.
//!
//! The engine holds no sample database of its own in a session: it
//! resolves the daemon's (`Oprofile::db`, shared by handle).
//! [`LiveEngine::snapshot`] delegates to [`ResolutionEngine::resolve`]
//! over it: O(aggregate size) — proportional to the number of distinct
//! buckets and report rows plus one lineage step per traced batch,
//! *independent of epoch depth, of how many samples arrived and of
//! the journal's length* (a snapshot reads no journal byte) — and
//! structurally bit-identical to the batch report because it runs the
//! very same resolve code over the very same inputs.
//! [`LiveEngine::seal`] does a final rescan, after which the snapshot
//! equals the offline report exactly
//! (`tests/fault_matrix.rs` checks the three-way identity under the
//! full fault matrix). A standalone engine (`viprof top`, benches)
//! owns a fresh database instead; its caller merges each batch into
//! [`LiveEngine::db`] and then calls [`LiveEngine::on_batch`], the
//! order the daemon uses.
//!
//! Lock order: the engine lock is taken before the database lock. The
//! daemon never holds the database lock while it notifies the sink, so
//! a drain cannot deadlock against a snapshot.
//!
//! Epoch map files are written once and never mutated (the VM agent
//! creates `map.<epoch>` at epoch boundaries); the rescan relies on
//! that — a path already processed is never re-read.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, MutexGuard};

use oprofile::daemon::DrainSink;
use oprofile::{SampleDb, SampleOrigin};
use sim_cpu::ProcKey;
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_PATH};
use sim_os::sync::Mutex;
use sim_os::{crc32, ImageId, Kernel};
use viprof_telemetry::{names, Counter, Stage, Telemetry, TraceCtx, TraceLayer};

use crate::bootmap::BootMap;
use crate::codemap::{map_prefix, CodeMapSet};
use crate::engine::{BatchLoss, ResolutionEngine};
use crate::flatindex::FlatIndex;
use crate::resolve::{discover_keys, ResolutionQuality};
use crate::session::{ReportSpec, SessionReport};

/// Tuning for the live engine.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Drop the frozen index of a reaped incarnation that never
    /// received a sample (its rows can never appear in a report).
    /// Indexes of *sampled* incarnations are kept — the sample
    /// database is cumulative, so they stay resolvable forever.
    pub drop_frozen: bool,
}

impl Default for LiveSpec {
    fn default() -> Self {
        LiveSpec { drop_frozen: true }
    }
}

impl LiveSpec {
    pub fn new() -> LiveSpec {
        LiveSpec::default()
    }

    pub fn with_drop_frozen(mut self, drop: bool) -> Self {
        self.drop_frozen = drop;
        self
    }
}

/// Per-incarnation bookkeeping mirroring what [`CodeMapSet::load`]
/// would tally for the same directory.
#[derive(Debug, Default)]
struct KeyState {
    /// Map-file paths already processed (write-once files).
    files: HashSet<String>,
    /// Epochs of the usable maps flattened so far, ascending — the
    /// live twin of `CodeMapSet::maps()`'s epoch sequence.
    epochs: Vec<u64>,
    /// Bad lines inside otherwise-usable files.
    quarantined_lines: u64,
    /// Files skipped whole (bad epoch suffix, unreadable, non-UTF8).
    skipped_files: u64,
    /// Samples attributed to this incarnation so far.
    samples: u64,
    /// The kernel reaped this incarnation; its final rescan is done.
    frozen: bool,
    /// Frozen with zero samples — index released.
    dropped: bool,
}

impl KeyState {
    /// `CodeMapSet::load` fails (and the batch resolver counts the pid
    /// as failed) exactly when the directory has files but none are
    /// usable.
    fn failed(&self) -> bool {
        !self.files.is_empty() && self.epochs.is_empty()
    }

    fn missing_epochs(&self) -> u64 {
        match self.epochs.last() {
            Some(&last) => (last + 1).saturating_sub(self.epochs.len() as u64),
            None => 0,
        }
    }
}

struct LiveTelemetry {
    registry: Telemetry,
    batches: Counter,
    extends: Counter,
    rebuilds: Counter,
    snapshot_stage: Stage,
}

/// Streaming resolution engine: incrementally maintained flat indexes
/// over the session's sample database, able to produce a full
/// [`SessionReport`] at any point mid-run.
pub struct LiveEngine {
    spec: LiveSpec,
    engine: ResolutionEngine,
    /// The database snapshots resolve. A session points this at the
    /// daemon's handle before the first drain (the per-incarnation
    /// sample counts in `keys` must describe this database); a
    /// standalone engine keeps the empty one [`LiveEngine::new`] made.
    pub(crate) db: Arc<Mutex<SampleDb>>,
    keys: HashMap<ProcKey, KeyState>,
    /// Batches ingested.
    batches: u64,
    /// `(len, crc32)` of `RVM.map` when the boot map was last loaded.
    boot_fp: Option<(usize, u32)>,
    boot_image: Option<ImageId>,
    sealed: bool,
    telemetry: Option<LiveTelemetry>,
    /// Causal parent for spans emitted during the current ingest: the
    /// daemon's drain span while an `on_batch` is in flight, `None`
    /// otherwise (spans then hang off the session root).
    span_parent: Option<TraceCtx>,
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("batches", &self.batches)
            .field("keys", &self.keys.len())
            .field("sealed", &self.sealed)
            .finish()
    }
}

impl LiveEngine {
    pub fn new(spec: LiveSpec) -> LiveEngine {
        LiveEngine {
            spec,
            engine: ResolutionEngine::empty(),
            db: Arc::new(Mutex::new(SampleDb::new())),
            keys: HashMap::new(),
            batches: 0,
            boot_fp: None,
            boot_image: None,
            sealed: false,
            telemetry: None,
            span_parent: None,
        }
    }

    /// Emit one instant live-layer span (begin == end at the registry's
    /// current sim time), parented to the in-flight drain span when the
    /// daemon provided one, else to the session root.
    fn live_span(&self, name: &'static str, fields: &[(&str, u64)]) {
        if let Some(t) = &self.telemetry {
            let parent = self.span_parent.or_else(|| t.registry.trace_root());
            let ctx = t.registry.trace_begin(TraceLayer::Live, name, parent);
            t.registry.trace_end(ctx, fields);
        }
    }

    /// Share a telemetry registry: live counters, the snapshot stage
    /// timer, flight-recorder events, and the inner engine's
    /// `resolve.*` metrics (which accumulate once per snapshot pass).
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        self.engine.set_telemetry(registry);
        self.telemetry = Some(LiveTelemetry {
            registry: registry.clone(),
            batches: registry.counter(names::LIVE_BATCHES),
            extends: registry.counter(names::LIVE_INCREMENTAL_EXTENDS),
            rebuilds: registry.counter(names::LIVE_FULL_REBUILDS),
            snapshot_stage: registry.stage(names::STAGE_LIVE_SNAPSHOT),
        });
    }

    /// The sample database snapshots resolve, locked: the daemon's
    /// own in a session, the engine's own when standalone. A
    /// standalone caller merges each batch in here before
    /// [`on_batch`](Self::on_batch).
    pub fn db(&self) -> MutexGuard<'_, SampleDb> {
        self.db.lock()
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Whether [`seal`](Self::seal) has run.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Ingest one drained batch that is already merged into
    /// [`db`](Self::db): count its samples per incarnation, extend
    /// affected indexes, freeze reaped incarnations. `journaled` is
    /// the batch's journal record when journaling is on — its sequence
    /// number and, for a traced record, the journal span in its header
    /// (what `Daemon::journal_batch` returned); a traced record adds
    /// one entry to the loss ledger lineage reads.
    /// `ctx` is the daemon's drain span: live spans emitted while this
    /// batch is processed (extends, rebuilds, freezes) chain to it.
    pub fn on_batch(
        &mut self,
        kernel: &Kernel,
        journaled: Option<(u64, Option<TraceCtx>)>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        if self.sealed {
            return;
        }
        if let Some((seq, Some(span))) = journaled {
            self.engine.push_batch_loss(BatchLoss {
                seq,
                span,
                dropped: batch.dropped,
                evicted: batch.evicted,
            });
        }
        self.span_parent = ctx;
        self.batches += 1;
        self.note_samples(kernel, batch);
        self.refresh_boot(kernel);
        self.rescan_all(kernel, false);
        self.freeze_dead(kernel);
        self.span_parent = None;
        if let Some(t) = &self.telemetry {
            t.batches.inc();
            t.registry.event(
                names::EVENT_LIVE_BATCH,
                "live batch ingested",
                &[
                    ("seq", journaled.map_or(u64::MAX, |(seq, _)| seq)),
                    ("journaled", journaled.is_some() as u64),
                    ("samples", batch.total_samples()),
                    ("db_buckets", self.db.lock().len() as u64),
                ],
            );
        }
    }

    /// Close the stream: refresh the boot map and rescan every
    /// incarnation — frozen ones included — so the engine reflects the
    /// final on-disk state. After sealing, further batches are ignored
    /// and the snapshot is the session's final report.
    pub fn seal(&mut self, kernel: &Kernel) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.refresh_boot(kernel);
        self.rescan_all(kernel, true);
    }

    /// Produce a full report from the current live state. Runs the
    /// same resolve code as the batch engine over the same sample
    /// database, so a snapshot after [`seal`](Self::seal) is
    /// bit-identical to the offline report. Cost is proportional to
    /// the number of distinct sample buckets plus report rows, plus
    /// one step per traced batch for lineage: no journal byte is read.
    pub fn snapshot(&mut self, kernel: &Kernel, spec: &ReportSpec) -> SessionReport {
        self.engine.set_damage(self.damage());
        let report = self.engine.resolve(&self.db.lock(), kernel, spec);
        if let Some(t) = &self.telemetry {
            t.snapshot_stage.record(0);
            t.registry.event(
                names::EVENT_LIVE_SNAPSHOT,
                "live snapshot",
                &[
                    ("rows", report.lines.rows.len() as u64),
                    ("accounted", report.quality.accounted()),
                    ("batches", self.batches),
                    ("sealed", self.sealed as u64),
                ],
            );
        }
        report
    }

    /// Resolution damage mirroring `ResolutionEngine::build`'s
    /// tally over a full `ViprofResolver::load_with`: per-key counts are
    /// summed only for incarnations with at least one usable map;
    /// a directory with files but no usable map contributes exactly
    /// one failed pid. (`dropped`/`evicted` come from the database at
    /// resolve time, not from here.)
    fn damage(&self) -> ResolutionQuality {
        let mut damage = ResolutionQuality::default();
        for st in self.keys.values() {
            if st.failed() {
                damage.failed_pids += 1;
            } else if !st.epochs.is_empty() {
                damage.quarantined_lines += st.quarantined_lines;
                damage.skipped_map_files += st.skipped_files;
                damage.missing_epochs += st.missing_epochs();
            }
        }
        damage
    }

    /// Track per-incarnation sample arrival; a sample for a dropped
    /// incarnation (possible only through defensive paths — admission
    /// refuses reaped incarnations) forces its index back via a full
    /// rebuild.
    fn note_samples(&mut self, kernel: &Kernel, batch: &SampleDb) {
        let mut restore: Vec<ProcKey> = Vec::new();
        for (bucket, count) in batch.iter() {
            let SampleOrigin::JitApp { pid, gen } = bucket.origin else {
                continue;
            };
            let key = ProcKey::new(pid, gen);
            let st = self.keys.entry(key).or_default();
            st.samples += count;
            if st.dropped {
                st.dropped = false;
                restore.push(key);
            }
        }
        for key in restore {
            self.rebuild_key(kernel, key);
        }
    }

    /// Reload the flattened boot map when `RVM.map` changed (or first
    /// appeared). The boot-image id is refreshed even when the map
    /// file is absent: boot-image samples are labelled through the
    /// image id regardless of whether any method row matches.
    fn refresh_boot(&mut self, kernel: &Kernel) {
        let boot_image = kernel.images.find_by_name(BOOT_IMAGE_NAME);
        let fp = kernel
            .vfs
            .read(RVM_MAP_PATH)
            .map(|bytes| (bytes.len(), crc32(bytes)));
        if boot_image == self.boot_image && fp == self.boot_fp {
            return;
        }
        self.boot_image = boot_image;
        self.boot_fp = fp;
        let map = BootMap::load(&kernel.vfs).unwrap_or_default();
        self.engine.set_boot(&map, boot_image);
    }

    /// Rescan every known incarnation's map directory, plus any
    /// directories that exist on disk but have produced no samples
    /// yet. Frozen incarnations are skipped mid-run (their final
    /// rescan happened when they were reaped) but revisited at seal
    /// for final-state parity.
    fn rescan_all(&mut self, kernel: &Kernel, include_frozen: bool) {
        let discovered = discover_keys(kernel);
        let mut targets: Vec<(ProcKey, bool)> =
            discovered.iter().map(|&key| (key, true)).collect();
        targets.extend(
            self.keys
                .keys()
                .filter(|key| discovered.binary_search(key).is_err())
                .map(|&key| (key, false)),
        );
        targets.sort_unstable();
        for (key, on_disk) in targets {
            let skip = !include_frozen && self.keys.get(&key).is_some_and(|st| st.frozen);
            if !skip {
                self.rescan_key(kernel, key, on_disk);
            }
        }
    }

    /// Incremental path: process map files not seen before, extending
    /// the incarnation's index one epoch at a time. Falls back to a
    /// full rebuild when a new epoch arrives out of order (older than
    /// an already-flattened one) or an extend refuses.
    fn rescan_key(&mut self, kernel: &Kernel, key: ProcKey, on_disk: bool) {
        let prefix = map_prefix(key);
        let paths = kernel.vfs.list(&prefix);
        if paths.is_empty() {
            // A discovered incarnation directory with no map files at
            // all (journal only — every map write torn, say) loads as
            // an *empty* set in the batch path, which still inserts an
            // empty index and claims the pid. Mirror that.
            if on_disk
                && self.engine.index(key).is_none()
                && !self.keys.get(&key).is_some_and(|st| st.dropped)
            {
                self.engine
                    .insert_index(key, FlatIndex::build(&CodeMapSet::default()));
                self.keys.entry(key).or_default();
            }
            return;
        }
        let st = self.keys.entry(key).or_default();
        let new_paths: Vec<&str> = paths
            .into_iter()
            .filter(|path| !st.files.contains(*path))
            .collect();
        st.files.extend(new_paths.iter().map(|path| path.to_string()));
        let read = CodeMapSet::read_files(&kernel.vfs, &prefix, new_paths);
        st.quarantined_lines += read.quarantined_lines;
        st.skipped_files += read.skipped_files;
        let fresh = read.maps();
        if fresh.is_empty() {
            if st.failed() {
                // Every file for this incarnation is unusable: the
                // batch loader errors out and loads no index.
                self.engine.take_index(&key);
            }
            return;
        }
        let in_order = st
            .epochs
            .last()
            .is_none_or(|&last| fresh[0].epoch >= last);
        if in_order && !st.dropped {
            if self.engine.index(key).is_none() {
                // An extend-grown index must start from the flattened
                // empty set, not `FlatIndex::default()` (the sweep
                // leaves a sentinel layer offset the splice needs).
                self.engine
                    .insert_index(key, FlatIndex::build(&CodeMapSet::default()));
            }
            let mut extended = 0u64;
            let mut ok = true;
            for map in fresh {
                let ordinal = st.epochs.len() as u32;
                let index = self.engine.index_mut(&key).expect("index just ensured");
                if index.extend(map, ordinal) {
                    st.epochs.push(map.epoch);
                    extended += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if let Some(t) = &self.telemetry {
                t.extends.add(extended);
            }
            if extended > 0 {
                self.live_span(
                    names::SPAN_LIVE_EXTEND,
                    &[
                        ("pid", key.pid.0 as u64),
                        ("gen", key.gen as u64),
                        ("epochs", extended),
                    ],
                );
            }
            if ok {
                return;
            }
        }
        self.rebuild_key(kernel, key);
    }

    /// Slow path: reload the incarnation from disk exactly the way the
    /// batch resolver does and rebuild its index from scratch.
    fn rebuild_key(&mut self, kernel: &Kernel, key: ProcKey) {
        let files: HashSet<String> = kernel
            .vfs
            .list(&map_prefix(key))
            .iter()
            .map(|p| p.to_string())
            .collect();
        match CodeMapSet::load(&kernel.vfs, key) {
            Ok(set) => {
                let st = self.keys.entry(key).or_default();
                st.files = files;
                st.epochs = set.maps().iter().map(|m| m.epoch).collect();
                st.quarantined_lines = set.quarantined_lines;
                st.skipped_files = set.skipped_files;
                st.dropped = false;
                let epochs = st.epochs.len() as u64;
                self.engine.insert_index(key, FlatIndex::build(&set));
                if let Some(t) = &self.telemetry {
                    t.rebuilds.inc();
                }
                self.live_span(
                    names::SPAN_LIVE_REBUILD,
                    &[
                        ("pid", key.pid.0 as u64),
                        ("gen", key.gen as u64),
                        ("epochs", epochs),
                    ],
                );
            }
            Err(_) => {
                // Directory has files but none usable — the batch
                // resolver counts this incarnation as a failed pid and
                // loads no index.
                let st = self.keys.entry(key).or_default();
                st.files = files;
                st.epochs.clear();
                st.dropped = false;
                self.engine.take_index(&key);
            }
        }
    }

    /// Freeze incarnations the kernel no longer tracks under the same
    /// generation — the reap rule the daemon itself applies. Their
    /// rescan this batch was the final one; a frozen incarnation with
    /// zero samples surrenders its index (when the spec allows).
    fn freeze_dead(&mut self, kernel: &Kernel) {
        let dead: Vec<ProcKey> = self
            .keys
            .iter()
            .filter(|(key, st)| {
                !st.frozen
                    && kernel
                        .process(key.pid)
                        .is_none_or(|proc| proc.gen != key.gen)
            })
            .map(|(key, _)| *key)
            .collect();
        for key in dead {
            let drop_frozen = self.spec.drop_frozen;
            let st = self.keys.get_mut(&key).expect("key collected above");
            st.frozen = true;
            let samples = st.samples;
            let mut dropped = false;
            if drop_frozen && samples == 0 && self.engine.take_index(&key).is_some() {
                st.dropped = true;
                dropped = true;
            }
            if let Some(t) = &self.telemetry {
                t.registry.event(
                    names::EVENT_LIVE_FREEZE,
                    "incarnation frozen",
                    &[
                        ("pid", key.pid.0 as u64),
                        ("gen", key.gen as u64),
                        ("samples", samples),
                        ("dropped", dropped as u64),
                    ],
                );
            }
            self.live_span(
                names::SPAN_LIVE_FREEZE,
                &[
                    ("pid", key.pid.0 as u64),
                    ("gen", key.gen as u64),
                    ("samples", samples),
                    ("dropped", dropped as u64),
                ],
            );
        }
    }
}

/// A session shares its engine with the daemon as the drain sink:
/// delivering a batch takes the engine lock only.
impl DrainSink for LiveEngine {
    fn on_batch(
        &mut self,
        kernel: &Kernel,
        journaled: Option<(u64, Option<TraceCtx>)>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        LiveEngine::on_batch(self, kernel, journaled, batch, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use crate::resolve::{ResolveOptions, ViprofResolver};
    use oprofile::{Daemon, SampleBucket, SinkHandle, SAMPLE_JOURNAL_PATH};
    use sim_cpu::HwEvent;
    use sim_os::JournalWriter;

    fn entry(addr: u64, size: u64, sig: &str) -> CodeMapEntry {
        CodeMapEntry {
            addr,
            size,
            level: "opt0".into(),
            signature: sig.into(),
        }
    }

    fn write_map(kernel: &mut Kernel, key: ProcKey, epoch: u64, entries: &[CodeMapEntry]) {
        kernel
            .vfs
            .write(map_path(key, epoch), render_map(entries).into_bytes());
    }

    fn jit_batch(key: ProcKey, addr: u64, epoch: u64, n: u64) -> SampleDb {
        let mut db = SampleDb::new();
        for _ in 0..n {
            db.add(
                SampleBucket {
                    origin: SampleOrigin::JitApp {
                        pid: key.pid,
                        gen: key.gen,
                    },
                    event: HwEvent::Cycles,
                    addr,
                    epoch,
                },
                1,
            );
        }
        db
    }

    /// One drain as the daemon performs it: merge the batch into the
    /// database, then hand it to the engine.
    fn drain(live: &mut LiveEngine, kernel: &Kernel, seq: u64, batch: &SampleDb) {
        live.db().merge(batch);
        live.on_batch(kernel, Some((seq, None)), batch, None);
    }

    fn snap_equals_batch(live: &mut LiveEngine, kernel: &Kernel) {
        let spec = ReportSpec::default();
        let snap = live.snapshot(kernel, &spec);
        let (resolver, _) =
            ViprofResolver::load_with(kernel, ResolveOptions::default()).expect("batch load");
        let mut batch = ResolutionEngine::build(&resolver);
        let offline = batch.resolve(&live.db(), kernel, &spec);
        assert_eq!(snap.lines, offline.lines);
        assert_eq!(snap.quality, offline.quality);
        assert_eq!(snap.incarnations, offline.incarnations);
    }

    /// Live lineage and trace export at 1 and 4 threads, each checked
    /// against a batch engine loaded from the same kernel (and so from
    /// its journal) over the same database. Returns the last snapshot.
    fn lineage_equals_batch(live: &mut LiveEngine, kernel: &Kernel) -> SessionReport {
        let (resolver, _) =
            ViprofResolver::load_with(kernel, ResolveOptions::default()).expect("batch load");
        let mut last = None;
        for threads in [1, 4] {
            let spec = ReportSpec::default().threads(threads);
            let snap = live.snapshot(kernel, &spec);
            let offline = ResolutionEngine::build(&resolver).resolve(&live.db(), kernel, &spec);
            assert_eq!(snap.lineage, offline.lineage, "threads={threads}");
            assert_eq!(
                snap.trace.to_chrome_json(),
                offline.trace.to_chrome_json(),
                "threads={threads}"
            );
            last = Some(snap);
        }
        last.expect("two thread counts ran")
    }

    #[test]
    fn snapshot_lineage_comes_from_the_ledger_not_the_journal() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let registry = Telemetry::new();
        let live = Arc::new(Mutex::new(LiveEngine::new(LiveSpec::new())));
        let sink = Some(SinkHandle::new(live.clone()));
        let journal = Some(Arc::new(Mutex::new(JournalWriter::create(
            &mut kernel.vfs,
            SAMPLE_JOURNAL_PATH,
        ))));
        // (samples, dropped, evicted, traced record), drained in order
        // through the daemon's own journal and sink calls.
        let stream = [
            (5, 2, 0, true),
            (3, 0, 1, true),
            // A trivial empty window: neither journaled nor delivered.
            (0, 0, 0, true),
            // An untraced v1 record: its losses stay "untraced".
            (4, 3, 0, false),
            (2, 1, 2, true),
        ];
        for (epoch, &(samples, dropped, evicted, traced)) in (0u64..).zip(&stream) {
            let addr = 0x2000_0000 + epoch * 0x100;
            write_map(
                &mut kernel,
                key,
                epoch,
                &[entry(addr, 0x80, &format!("M{epoch}.run()V"))],
            );
            let mut batch = jit_batch(key, addr + 0x10, epoch, samples);
            batch.dropped = dropped;
            batch.evicted = evicted;
            live.lock().db().merge(&batch);
            let journaled = Daemon::journal_batch(
                &journal,
                &mut kernel.vfs,
                &batch,
                None,
                traced.then_some(&registry),
            );
            Daemon::notify_sink(&sink, &kernel, journaled, &batch, None);
            lineage_equals_batch(&mut live.lock(), &kernel);
        }
        let mut live = live.lock();
        assert_eq!(live.batches(), 4, "the empty window is never delivered");

        live.seal(&kernel);
        let sealed = lineage_equals_batch(&mut live, &kernel);
        assert_eq!(sealed.lineage.total("dropped"), 6);
        assert_eq!(sealed.lineage.total("evicted"), 3);
        let text = sealed.lineage.render_text();
        assert!(text.contains("journal batch seq 3"), "{text}");
        assert!(text.contains("untraced"), "{text}");

        // With the journal gone, a snapshot still attributes every
        // loss to its batch: snapshots read no journal byte.
        kernel
            .vfs
            .remove(SAMPLE_JOURNAL_PATH)
            .expect("journal written");
        let spec = ReportSpec::default();
        let after = live.snapshot(&kernel, &spec);
        assert_eq!(after.lineage, sealed.lineage);
        assert_eq!(after.trace.to_chrome_json(), sealed.trace.to_chrome_json());
    }

    #[test]
    fn incremental_extends_match_batch() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(LiveSpec::new());

        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);
        drain(&mut live, &kernel, 0, &jit_batch(key, 0x2000_0010, 0, 5));
        write_map(&mut kernel, key, 1, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        drain(&mut live, &kernel, 1, &jit_batch(key, 0x2000_0210, 1, 3));

        assert_eq!(live.batches(), 2);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn out_of_order_epoch_forces_rebuild_and_stays_identical() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(LiveSpec::new());

        write_map(&mut kernel, key, 2, &[entry(0x2000_0000, 0x100, "C.run()V")]);
        drain(&mut live, &kernel, 0, &jit_batch(key, 0x2000_0010, 2, 2));
        // An older epoch appears late (torn agent flush): rebuild path.
        write_map(&mut kernel, key, 1, &[entry(0x2000_0000, 0x100, "B.run()V")]);
        drain(&mut live, &kernel, 1, &jit_batch(key, 0x2000_0010, 1, 2));

        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn frozen_unsampled_incarnation_drops_its_index() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let other = kernel.spawn("other");
        let mut live = LiveEngine::new(LiveSpec::new());
        drain(&mut live, &kernel, 0, &jit_batch(key, 0x2000_0010, 0, 4));
        kernel.exit_process(pid);
        // Key has samples: frozen but index retained.
        drain(&mut live, &kernel, 1, &jit_batch(ProcKey::from(other), 0, 0, 0));
        assert!(live.keys[&key].frozen);
        assert!(!live.keys[&key].dropped);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn seal_is_idempotent() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let mut live = LiveEngine::new(LiveSpec::new());
        drain(&mut live, &kernel, 0, &jit_batch(key, 0x2000_0010, 0, 5));
        live.seal(&kernel);
        live.seal(&kernel);
        assert!(live.sealed());
        assert_eq!(live.batches(), 1);
        assert_eq!(live.db().total_samples(), 5);
        snap_equals_batch(&mut live, &kernel);
    }
}
