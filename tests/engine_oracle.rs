//! `ResolutionEngine` against the reference walk on a hand-built
//! fixture that reaches every origin and classification: backward
//! hits, forward salvage, misses, a blocked generation, boot-image,
//! kernel and unknown samples. Labels, quality and reports must agree
//! exactly, at every shard count.

#[path = "support/walk.rs"]
mod walk;

use viprof_repro::oprofile::{ReportOptions, SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::{HwEvent, Pid};
use viprof_repro::sim_jvm::bootimage::BOOT_IMAGE_NAME;
use viprof_repro::sim_jvm::BootImage;
use viprof_repro::sim_os::Kernel;
use viprof_repro::viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{ReportSpec, ResolutionEngine, ViprofResolver};
use walk::Walk;

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
    for (epoch, addr, size, level, signature) in [
        (0, 0x6400_0040, 0x80, "O1", "app.Scanner.parseLine"),
        (4, 0x6500_0000, 0x40, "base", "app.Late.comer"),
    ] {
        k.vfs.write(
            map_path(pid, epoch),
            render_map(&[CodeMapEntry {
                addr,
                size,
                level: level.into(),
                signature: signature.into(),
            }])
            .into_bytes(),
        );
    }
    (k, pid)
}

fn mixed_db(k: &Kernel, pid: Pid) -> SampleDb {
    let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
    let mut db = SampleDb::new();
    db.add(
        bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 2),
        10,
    );
    db.add(
        bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1),
        6,
    );
    db.add(
        bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x7000_0000, 0),
        3,
    );
    // A stamped generation with no maps of its own: blocked by the
    // isolation invariant, exercised through every engine path.
    db.add(
        bucket(SampleOrigin::JitApp { pid, gen: 7 }, 0x6400_0080, 2),
        2,
    );
    db.add(bucket(SampleOrigin::Image(boot_id), 0x10, 0), 5);
    db.add(bucket(SampleOrigin::Image(k.kernel_image), 0x3000, 0), 4);
    db.add(bucket(SampleOrigin::Unknown, 0x0, 0), 2);
    db.dropped = 7;
    db
}

fn load(k: &Kernel) -> ViprofResolver {
    ViprofResolver::load_with(k, ResolveOptions::default())
        .unwrap()
        .0
}

#[test]
fn labels_match_the_walk_on_every_origin() {
    let (k, pid) = setup();
    let resolver = load(&k);
    let walk = Walk::new(&resolver, &k);
    let engine = ResolutionEngine::build(&resolver);
    for (b, _) in mixed_db(&k, pid).iter() {
        let (img, sym) = engine.label(b, &k);
        assert_eq!(
            (img.to_string(), sym.to_string()),
            walk.label(b),
            "label diverged on {b:?}"
        );
    }
}

#[test]
fn quality_matches_the_walk() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let resolver = load(&k);
    let engine = ResolutionEngine::build(&resolver);
    let want = Walk::new(&resolver, &k).quality(&db);
    assert_eq!(engine.quality(&db, 1), want);
    assert_eq!(engine.quality(&db, 4), want);
    assert_eq!(want.accounted(), db.total_samples());
}

#[test]
fn sharded_report_is_bit_identical_to_walk_and_thread_count_invariant() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let resolver = load(&k);
    let walk = Walk::new(&resolver, &k);
    let mut engine = ResolutionEngine::build(&resolver);
    let legacy = walk.report(&db, &ReportOptions::default());
    let legacy_q = walk.quality(&db);
    let legacy_inc = walk.incarnations(&db);
    for threads in [0, 1, 2, 3, 8] {
        let report = engine.resolve(&db, &k, &ReportSpec::default().threads(threads));
        assert_eq!(report.lines, legacy, "threads={threads}");
        assert_eq!(report.quality, legacy_q, "threads={threads}");
        assert_eq!(report.incarnations, legacy_inc, "threads={threads}");
    }
}

#[test]
fn row_filters_apply_identically() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let resolver = load(&k);
    let mut engine = ResolutionEngine::build(&resolver);
    let options = ReportOptions {
        min_primary_percent: 10.0,
        max_rows: Some(2),
        ..ReportOptions::default()
    };
    let legacy = Walk::new(&resolver, &k).report(&db, &options);
    let spec = ReportSpec::default().with_options(options).threads(4);
    let report = engine.resolve(&db, &k, &spec).lines;
    assert_eq!(report, legacy);
    assert!(report.rows.len() <= 2);
}

#[test]
fn blocked_samples_agree_with_the_walk_and_stay_accounted() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let resolver = load(&k);
    let engine = ResolutionEngine::build(&resolver);
    let want = Walk::new(&resolver, &k).quality(&db);
    assert_eq!(want.cross_incarnation_blocked, 2);
    for threads in [1, 4] {
        let q = engine.quality(&db, threads);
        assert_eq!(q, want, "threads={threads}");
        assert_eq!(q.accounted(), db.total_samples());
    }
    // The blocked bucket's label never borrows the other
    // incarnation's symbols.
    let blocked = bucket(SampleOrigin::JitApp { pid, gen: 7 }, 0x6400_0080, 2);
    let (img, sym) = engine.label(&blocked, &k);
    assert_eq!((&*img, &*sym), ("JIT.App", "(unresolved jit)"));
}

#[test]
fn evictions_flow_from_db_into_quality() {
    let (k, pid) = setup();
    let mut db = mixed_db(&k, pid);
    db.evicted = 9;
    let resolver = load(&k);
    let engine = ResolutionEngine::build(&resolver);
    let q = engine.quality(&db, 2);
    assert_eq!(q.evicted, 9);
    assert_eq!(q, Walk::new(&resolver, &k).quality(&db), "walk agrees");
    // Evicted samples sit outside accounted(): they never reached
    // the database, like drops.
    assert_eq!(q.accounted(), db.total_samples());
}

#[test]
fn empty_db_reports_empty_with_damage_counters_intact() {
    let (mut k, pid) = setup();
    // One garbled line so the damage counters are non-zero.
    k.vfs.write(
        map_path(pid, 1),
        b"!! garbage\n0000000065100000 00000040 base app.Ok.fine\n".to_vec(),
    );
    let resolver = load(&k);
    let mut engine = ResolutionEngine::build(&resolver);
    let db = SampleDb::new();
    let report = engine.resolve(&db, &k, &ReportSpec::default().threads(4));
    assert!(report.lines.rows.is_empty());
    assert_eq!(report.quality, Walk::new(&resolver, &k).quality(&db));
    assert_eq!(report.quality.quarantined_lines, 1);
}
