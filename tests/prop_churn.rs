//! Property tests for process-churn robustness (ISSUE 7):
//!
//! 1. The kernel's LIFO pid allocator is deterministic per op sequence:
//!    replaying the same spawn/exit schedule on a fresh kernel yields
//!    the identical `(pid, gen)` trace, and every reuse matches a
//!    brute-force stack oracle (most recently freed pid first, its
//!    generation bumped past every earlier incarnation).
//!
//! 2. Cross-incarnation isolation: a sample stamped `(pid, gen)` only
//!    ever resolves against maps written by that exact incarnation.
//!    Across 256 random multi-incarnation layouts the engine's labels,
//!    its sharded quality and its per-incarnation breakdown at every
//!    thread count all agree with a per-key oracle, samples of a map-less
//!    generation are blocked (never borrowed from a sibling), and
//!    `quality.accounted()` still covers 100 % of the database.

use viprof_repro::oprofile::{SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::{HwEvent, Pid, ProcKey};
use viprof_repro::sim_os::rng::{check, SplitMix64};
use viprof_repro::sim_os::Kernel;
use viprof_repro::viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{ReportSpec, ResolutionEngine, ViprofResolver};

// ---------- LIFO pid allocator: determinism + stack oracle ----------

/// `None` = spawn, `Some(i)` = exit the `i % live`-th live process.
fn arb_ops(rng: &mut SplitMix64) -> Vec<Option<usize>> {
    rng.vec_of(1..200, |r| r.next_bool().then(|| r.below(8)))
}

/// Run one schedule, checking each spawn against the oracle. Returns
/// the `(pid, gen)` trace of every spawn for cross-run comparison.
fn run_schedule(ops: &[Option<usize>]) -> Vec<(u32, u32)> {
    let mut k = Kernel::new();
    let mut live: Vec<Pid> = Vec::new();
    // Oracle state: fresh-pid counter, freed-pid stack, max gen per pid.
    let mut next_fresh = 1u32;
    let mut free: Vec<u32> = Vec::new();
    let mut gens: std::collections::BTreeMap<u32, u32> = Default::default();
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Some(i) if !live.is_empty() => {
                let pid = live.remove(i % live.len());
                let p = k.exit_process(pid).expect("live process exits");
                assert_eq!(p.pid, pid);
                free.push(pid.0);
            }
            Some(_) => {} // Exit with nothing live: no-op.
            None => {
                let pid = k.spawn("vm");
                let (want_pid, want_gen) = match free.pop() {
                    Some(raw) => (raw, gens.get(&raw).map_or(0, |g| g + 1)),
                    None => {
                        let raw = next_fresh;
                        next_fresh += 1;
                        (raw, 0)
                    }
                };
                assert_eq!(pid.0, want_pid, "LIFO reuse order");
                assert_eq!(k.generation(pid), want_gen, "generation bump");
                assert_eq!(
                    k.proc_key(pid),
                    Some(ProcKey::new(pid, want_gen)),
                    "live key matches the allocator's answer"
                );
                gens.insert(pid.0, want_gen);
                live.push(pid);
                trace.push((pid.0, want_gen));
            }
        }
    }
    trace
}

#[test]
fn pid_allocator_reuse_order_is_deterministic() {
    check(256, |rng| {
        let ops = arb_ops(rng);
        let first = run_schedule(&ops);
        // Same schedule, fresh kernel: bit-identical (pid, gen) trace.
        let second = run_schedule(&ops);
        assert_eq!(first, second);
    });
}

// ---------- cross-incarnation isolation, 256 random layouts ----------

const SIGS: [&str; 4] = ["app.A.run", "app.B.step", "app.C.scan", "app.D.gc"];

fn arb_entry(rng: &mut SplitMix64) -> CodeMapEntry {
    CodeMapEntry {
        addr: rng.range_u64(0, 0x1000),
        size: rng.range_u64(1, 0x100),
        level: "O1".to_string(),
        signature: SIGS[rng.below(SIGS.len())].to_string(),
    }
}

/// Incarnations: map from `(pid, gen)` to the entries this incarnation
/// wrote (possibly none on disk at all, modelled by `None`). Up to six
/// draws; colliding keys keep the last.
fn arb_incarnations(
    rng: &mut SplitMix64,
) -> std::collections::BTreeMap<(u32, u32), Option<Vec<CodeMapEntry>>> {
    let draws = 1 + rng.below(6);
    (0..draws)
        .map(|_| {
            let key = (rng.range_u64(1, 4) as u32, rng.range_u64(0, 3) as u32);
            let entries = rng.next_bool().then(|| rng.vec_of(0..5, arb_entry));
            (key, entries)
        })
        .collect()
}

/// Samples stamped with arbitrary `(pid, gen)` — including generations
/// that never wrote maps and pids nothing registered.
fn arb_samples(rng: &mut SplitMix64) -> Vec<(u32, u32, u64, u64, u64)> {
    rng.vec_of(1..40, |r| {
        (
            r.range_u64(1, 5) as u32,
            r.range_u64(0, 4) as u32,
            r.range_u64(0, 0x1100),
            r.range_u64(0, 3),
            r.range_u64(1, 20),
        )
    })
}

#[test]
fn samples_only_resolve_against_their_own_incarnation() {
    check(256, |rng| {
        let incarnations = arb_incarnations(rng);
        let samples = arb_samples(rng);
        let mut k = Kernel::new();
        for ((pid, gen), entries) in &incarnations {
            let Some(entries) = entries else { continue };
            let key = ProcKey::new(Pid(*pid), *gen);
            // Two epochs per incarnation so chained lookups run too.
            for epoch in 0..2u64 {
                k.vfs
                    .write(map_path(key, epoch), render_map(entries).into_bytes());
            }
        }
        let mut db = SampleDb::new();
        for (pid, gen, addr, epoch, count) in &samples {
            db.add(
                SampleBucket {
                    origin: SampleOrigin::JitApp {
                        pid: Pid(*pid),
                        gen: *gen,
                    },
                    event: HwEvent::Cycles,
                    addr: *addr,
                    epoch: *epoch,
                },
                *count,
            );
        }

        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        let pids_with_maps: std::collections::BTreeSet<u32> = incarnations
            .iter()
            .filter(|(_, e)| e.is_some())
            .map(|((p, _), _)| *p)
            .collect();

        // Per-bucket oracle: resolution may consult the stamped
        // incarnation's own maps and nothing else.
        let mut want_resolved = 0u64;
        let mut want_stale = 0u64;
        let mut want_unresolved = 0u64;
        let mut want_blocked = 0u64;
        // Per-incarnation oracle rows: (pid, gen) → [samples, resolved,
        // stale, unresolved, blocked].
        let mut want_rows: std::collections::BTreeMap<(u32, u32), [u64; 5]> = Default::default();
        for (bucket, count) in db.iter() {
            let SampleOrigin::JitApp { pid, gen } = bucket.origin else {
                unreachable!()
            };
            let row = want_rows.entry((pid.0, gen)).or_default();
            row[0] += count;
            let own = resolver.codemaps(ProcKey::new(pid, gen));
            let (_, sym) = engine.label(bucket, &k);
            match own {
                Some(set) => match set.resolve_salvage(bucket.addr, bucket.epoch) {
                    Some((e, stale)) => {
                        assert_eq!(&*sym, e.signature.as_str(), "label came from own maps");
                        if stale {
                            want_stale += count;
                            row[2] += count;
                        } else {
                            want_resolved += count;
                            row[1] += count;
                        }
                    }
                    None => {
                        assert_eq!(&*sym, "(unresolved jit)");
                        want_unresolved += count;
                        row[3] += count;
                    }
                },
                None => {
                    // THE invariant: no maps for this generation means
                    // no symbol, even when a sibling incarnation of the
                    // pid has perfectly good maps covering this addr.
                    assert_eq!(&*sym, "(unresolved jit)");
                    if pids_with_maps.contains(&pid.0) {
                        want_blocked += count;
                        row[4] += count;
                    } else {
                        want_unresolved += count;
                        row[3] += count;
                    }
                }
            }
        }

        // Whole-run quality matches the oracle at every thread count
        // and accounts for 100 %.
        let q = engine.quality(&db, 1);
        assert_eq!(q.resolved, want_resolved);
        assert_eq!(q.stale_epoch, want_stale);
        assert_eq!(q.unresolved, want_unresolved);
        assert_eq!(q.cross_incarnation_blocked, want_blocked);
        assert_eq!(q.accounted(), db.total_samples());
        assert_eq!(engine.quality(&db, 4), q, "threads=4");

        // The per-incarnation breakdown matches the oracle row for row
        // at every thread count, and partitions the same totals.
        let rows = engine
            .resolve(&db, &k, &ReportSpec::default().threads(1))
            .incarnations;
        let got: std::collections::BTreeMap<(u32, u32), [u64; 5]> = rows
            .iter()
            .map(|r| {
                let counts = [
                    r.samples,
                    r.resolved,
                    r.stale_epoch,
                    r.unresolved,
                    r.blocked,
                ];
                ((r.pid, r.gen), counts)
            })
            .collect();
        assert_eq!(got, want_rows);
        assert_eq!(
            engine
                .resolve(&db, &k, &ReportSpec::default().threads(4))
                .incarnations,
            rows,
            "threads=4"
        );
        for w in rows.windows(2) {
            assert!((w[0].pid, w[0].gen) < (w[1].pid, w[1].gen), "sorted rows");
        }
        for r in &rows {
            assert_eq!(
                r.samples,
                r.resolved + r.stale_epoch + r.unresolved + r.blocked
            );
            if r.blocked > 0 {
                assert!(
                    resolver.codemaps(ProcKey::new(Pid(r.pid), r.gen)).is_none()
                        && pids_with_maps.contains(&r.pid),
                    "blocked rows are exactly map-less gens of mapped pids"
                );
            }
        }
        assert_eq!(
            rows.iter().map(|r| r.samples).sum::<u64>(),
            db.total_samples()
        );
        assert_eq!(rows.iter().map(|r| r.resolved).sum::<u64>(), q.resolved);
        assert_eq!(
            rows.iter().map(|r| r.stale_epoch).sum::<u64>(),
            q.stale_epoch
        );
        assert_eq!(rows.iter().map(|r| r.unresolved).sum::<u64>(), q.unresolved);
        assert_eq!(
            rows.iter().map(|r| r.blocked).sum::<u64>(),
            q.cross_incarnation_blocked
        );
    });
}
