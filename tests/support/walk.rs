//! The reference resolver: the paper's §3.2 post-processing written
//! out literally, as a test oracle for `ResolutionEngine`.
//!
//! Every bucket is looked up on its own: JIT samples walk their
//! stamped incarnation's epoch chain backwards (with the forward-
//! salvage fallback) through `CodeMapSet::resolve_salvage`, boot-image
//! samples go through `BootMap::resolve`, and everything else gets
//! stock OProfile labels. The walk is built from the loaded map sets
//! and those public primitives only — it never touches the engine or
//! its flattened index, so agreement between the two is evidence, not
//! tautology.
//!
//! Include it with `#[path = "support/walk.rs"] mod walk;` (integration
//! tests) or a longer `#[path]` from other crates.

#![allow(dead_code)]

use oprofile::report::{aggregate, bucket_label, Report, ReportOptions};
use oprofile::{SampleBucket, SampleDb, SampleOrigin};
use sim_cpu::{Pid, ProcKey};
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL};
use sim_os::{ImageId, Kernel};
use std::collections::{BTreeMap, HashSet};
use viprof::codemap::{CodeMapSet, JIT_MAP_DIR};
use viprof::{IncarnationSummary, ResolutionQuality, ViprofResolver};

/// How one bucket classifies under the walk.
enum Class {
    Resolved,
    Stale,
    Unresolved,
    /// The stamped incarnation has no maps while another incarnation
    /// of the same pid does: refused, never cross-resolved.
    Blocked,
}

/// The walk over one loaded session.
pub struct Walk<'a> {
    resolver: &'a ViprofResolver,
    kernel: &'a Kernel,
    boot_image: Option<ImageId>,
    /// Every incarnation with a loaded map set, in key order.
    loaded: Vec<(ProcKey, &'a CodeMapSet)>,
    /// Pids with at least one loaded incarnation.
    pids_with_maps: HashSet<u32>,
}

impl<'a> Walk<'a> {
    /// Wrap the map sets `resolver` loaded from `kernel`'s VFS.
    pub fn new(resolver: &'a ViprofResolver, kernel: &'a Kernel) -> Walk<'a> {
        // Map directories are `<JIT_MAP_DIR>/<pid>/<gen>/…`; the loaded
        // sets are the ones the resolver kept.
        let prefix = format!("{JIT_MAP_DIR}/");
        let mut keys: Vec<ProcKey> = kernel
            .vfs
            .list(&prefix)
            .iter()
            .filter_map(|p| {
                let mut parts = p[prefix.len()..].split('/');
                let pid = parts.next()?.parse().ok()?;
                let gen = parts.next()?.parse().ok()?;
                Some(ProcKey::new(Pid(pid), gen))
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let loaded: Vec<(ProcKey, &CodeMapSet)> = keys
            .into_iter()
            .filter_map(|key| Some((key, resolver.codemaps(key)?)))
            .collect();
        Walk {
            resolver,
            kernel,
            boot_image: kernel.images.find_by_name(BOOT_IMAGE_NAME),
            pids_with_maps: loaded.iter().map(|(key, _)| key.pid.0).collect(),
            loaded,
        }
    }

    /// Label one bucket: (image column, symbol column).
    pub fn label(&self, bucket: &SampleBucket) -> (String, String) {
        match bucket.origin {
            // VM boot image: resolve through RVM.map; the paper prints
            // these rows under image name `RVM.map`.
            SampleOrigin::Image(id) if Some(id) == self.boot_image => {
                match self.resolver.bootmap().resolve(bucket.addr) {
                    Some(m) => (RVM_MAP_IMAGE_LABEL.to_string(), m.name.clone()),
                    None => (BOOT_IMAGE_NAME.to_string(), "(no symbols)".to_string()),
                }
            }
            // Registered-heap samples: the stamped incarnation's chain
            // only, so attribution never crosses an incarnation
            // boundary.
            SampleOrigin::JitApp { pid, gen } => {
                let resolved = self
                    .resolver
                    .codemaps(ProcKey::new(pid, gen))
                    .and_then(|set| set.resolve_salvage(bucket.addr, bucket.epoch));
                match resolved {
                    Some((e, _)) => ("JIT.App".to_string(), e.signature.clone()),
                    None => ("JIT.App".to_string(), "(unresolved jit)".to_string()),
                }
            }
            _ => bucket_label(bucket, self.kernel),
        }
    }

    fn classify(&self, bucket: &SampleBucket) -> Class {
        match bucket.origin {
            SampleOrigin::JitApp { pid, gen } => {
                match self.resolver.codemaps(ProcKey::new(pid, gen)) {
                    Some(set) => match set.resolve_salvage(bucket.addr, bucket.epoch) {
                        Some((_, false)) => Class::Resolved,
                        Some((_, true)) => Class::Stale,
                        None => Class::Unresolved,
                    },
                    None if self.pids_with_maps.contains(&pid.0) => Class::Blocked,
                    None => Class::Unresolved,
                }
            }
            // Image-backed samples always attribute to at least the
            // image, boot-image ones through RVM.map.
            SampleOrigin::Image(_) => Class::Resolved,
            // Anon ranges and unknown PCs carry no symbol information.
            SampleOrigin::Anon { .. } | SampleOrigin::Unknown => Class::Unresolved,
        }
    }

    /// Classify every sample in `db`, plus the load-time damage
    /// counters.
    pub fn quality(&self, db: &SampleDb) -> ResolutionQuality {
        let mut q = ResolutionQuality {
            dropped: db.dropped,
            evicted: db.evicted,
            failed_pids: self.resolver.failed_pids().len() as u64,
            ..ResolutionQuality::default()
        };
        for (_, set) in &self.loaded {
            q.quarantined_lines += set.quarantined_lines;
            q.skipped_map_files += set.skipped_files;
            q.missing_epochs += set.missing_epochs();
        }
        for (bucket, count) in db.iter() {
            match self.classify(bucket) {
                Class::Resolved => q.resolved += count,
                Class::Stale => q.stale_epoch += count,
                Class::Unresolved => q.unresolved += count,
                Class::Blocked => q.cross_incarnation_blocked += count,
            }
        }
        q
    }

    /// Per-incarnation breakdown of `db`'s JIT samples, sorted by
    /// `(pid, gen)`.
    pub fn incarnations(&self, db: &SampleDb) -> Vec<IncarnationSummary> {
        let mut rows: BTreeMap<(u32, u32), IncarnationSummary> = BTreeMap::new();
        for (bucket, count) in db.iter() {
            let SampleOrigin::JitApp { pid, gen } = bucket.origin else {
                continue;
            };
            let row = rows.entry((pid.0, gen)).or_insert(IncarnationSummary {
                pid: pid.0,
                gen,
                samples: 0,
                resolved: 0,
                stale_epoch: 0,
                unresolved: 0,
                blocked: 0,
            });
            row.samples += count;
            match self.classify(bucket) {
                Class::Resolved => row.resolved += count,
                Class::Stale => row.stale_epoch += count,
                Class::Unresolved => row.unresolved += count,
                Class::Blocked => row.blocked += count,
            }
        }
        rows.into_values().collect()
    }

    /// The merged report: stock OProfile aggregation over the walk's
    /// labels.
    pub fn report(&self, db: &SampleDb, options: &ReportOptions) -> Report {
        aggregate(db, options, |bucket| self.label(bucket))
    }
}
