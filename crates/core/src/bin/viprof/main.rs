//! `viprof` — the offline post-processing CLI.
//!
//! Operates on a session directory exported by
//! `Viprof::export_session` (sample database, epoch code maps,
//! `RVM.map`, image/process metadata, runtime telemetry, trace and
//! timeline), the way `opreport` operates on `/var/lib/oprofile` after
//! `opcontrol --stop`. One binary, five subcommands:
//!
//! ```text
//! viprof report <session-dir> [--classic] [--recover] [--telemetry] [--lineage]
//!                             [--threads <n>] [--min <percent>] [--rows <n>] [--csv | --json]
//! viprof stat   --schema | <session-dir> [--json] [--health] [--recover] [--threads <n>]
//!                                        [--events <n>] [--histograms]
//! viprof trace  <session-dir> [--chrome] [--json] [--top <n>]
//! viprof top    <session-dir> [--interval <n>] [--json] [--rows <n>] [--threads <n>]
//! viprof diff   --emit-baseline <dir> | <baseline> <candidate> [--json] [--tolerance <pct>]
//!
//!   --threads N  resolve across N shards (default: available
//!                parallelism; reports are bit-identical for every N)
//!   --recover    import a session that fails its integrity checks,
//!                warning once per violation, and replay the crash
//!                journals (a missing or corrupt sample database is
//!                rebuilt from the batch journal)
//!   --min P      hide rows below P percent of the primary event (0.05)
//!   --json       stdout is exactly one JSON document; status and
//!                warnings go to stderr
//! ```
//!
//! Each subcommand's module documents the rest of its flags.
//!
//! Exit codes: 0 — success; 2 — usage error; 1 — the session could not
//! be read or resolved. `diff` reserves 1 for "a metric regressed", so
//! its unreadable or mismatched artifacts exit 2.

mod diff;
mod report;
mod stat;
mod top;
mod trace;

use oprofile::{ReportOptions, SampleDb, SAMPLES_PATH};
use sim_os::Kernel;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use viprof::{RecoveredDb, ReportSpec, Viprof};

const USAGE: &str = "\
usage: viprof report <session-dir> [--classic] [--recover] [--telemetry] [--lineage] \
[--threads <n>] [--min <percent>] [--rows <n>] [--csv | --json]
       viprof stat --schema | <session-dir> [--json] [--health] [--recover] [--threads <n>] \
[--events <n>] [--histograms]
       viprof trace <session-dir> [--chrome] [--json] [--top <n>]
       viprof top <session-dir> [--interval <n>] [--json] [--rows <n>] [--threads <n>]
       viprof diff --emit-baseline <dir> | <baseline> <candidate> [--json] [--tolerance <pct>]";

/// Each subcommand with the flags it accepts.
const COMMANDS: [(&str, &[&str]); 5] = [
    (
        "report",
        &[
            "--classic",
            "--recover",
            "--telemetry",
            "--lineage",
            "--threads",
            "--min",
            "--rows",
            "--csv",
            "--json",
        ],
    ),
    (
        "stat",
        &[
            "--schema",
            "--json",
            "--health",
            "--recover",
            "--threads",
            "--events",
            "--histograms",
        ],
    ),
    ("trace", &["--chrome", "--json", "--top"]),
    ("top", &["--interval", "--json", "--rows", "--threads"]),
    ("diff", &["--emit-baseline", "--json", "--tolerance"]),
];

/// The flags that take a value; every other flag is a switch.
const VALUED: [&str; 8] = [
    "--threads",
    "--min",
    "--rows",
    "--events",
    "--interval",
    "--top",
    "--tolerance",
    "--emit-baseline",
];

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// One parsed command line: the subcommand, its positional arguments
/// and the flags given. Values are parsed where they are read (each
/// subcommand reads its own before it opens the session); a value that
/// does not parse is a usage error.
struct Cli {
    cmd: &'static str,
    accepted: &'static [&'static str],
    paths: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    match cli.cmd {
        "report" => report::run(&cli),
        "stat" => stat::run(&cli),
        "trace" => trace::run(&cli),
        "top" => top::run(&cli),
        _ => diff::run(&cli),
    }
}

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Cli {
        let cmd = args.next().unwrap_or_else(|| usage());
        let Some(&(cmd, accepted)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
            usage()
        };
        let mut cli = Cli {
            cmd,
            accepted,
            paths: Vec::new(),
            switches: Vec::new(),
            values: Vec::new(),
        };
        while let Some(arg) = args.next() {
            match accepted.iter().find(|flag| **flag == arg) {
                Some(&flag) if VALUED.contains(&flag) => {
                    let value = args.next().unwrap_or_else(|| usage());
                    cli.values.push((flag, value));
                }
                Some(&flag) => cli.switches.push(flag),
                None if arg.starts_with("--") => usage(),
                None => cli.paths.push(arg),
            }
        }
        cli
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of a valued flag (the last one given wins).
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, raw) = self.values.iter().rev().find(|(f, _)| *f == flag)?;
        Some(raw.parse().unwrap_or_else(|_| usage()))
    }

    /// The single positional argument: the session directory.
    fn session_dir(&self) -> PathBuf {
        match self.paths.as_slice() {
            [dir] => PathBuf::from(dir),
            _ => usage(),
        }
    }

    /// The resolve spec every subcommand uses: the `--min` floor,
    /// `--recover` and `--threads`. Row caps are the caller's business.
    fn spec(&self) -> ReportSpec {
        let options = ReportOptions {
            min_primary_percent: self.value("--min").unwrap_or(0.05),
            ..ReportOptions::default()
        };
        let threads = self
            .value("--threads")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ReportSpec::default()
            .with_options(options)
            .with_recover(self.has("--recover"))
            .threads(threads)
    }

    /// A status line on stderr, prefixed with the program name.
    fn note(&self, msg: impl Display) {
        eprintln!("viprof {}: {msg}", self.cmd);
    }

    fn warn(&self, msg: impl Display) {
        self.note(format_args!("WARNING: {msg}"));
    }

    /// Report a failure on stderr and exit: 1, or 2 for `diff`, whose
    /// exit 1 means "a metric regressed".
    fn fail(&self, msg: impl Display) -> ! {
        self.note(msg);
        std::process::exit(if self.cmd == "diff" { 2 } else { 1 });
    }

    /// A failure hint for commands that could get further with
    /// `--recover`.
    fn recover_hint(&self) -> &'static str {
        if self.accepted.contains(&"--recover") {
            " (try --recover)"
        } else {
            ""
        }
    }

    /// Import the session directory: strict, or lenient (each manifest
    /// violation becomes a warning, and the journal-replay pass repairs
    /// what it can).
    fn import(&self, dir: &Path, lenient: bool) -> Result<Kernel, String> {
        if !lenient {
            return Viprof::import_session(dir).map_err(|e| format!("{e}{}", self.recover_hint()));
        }
        let (kernel, mismatches) =
            Viprof::import_session_lenient(dir).map_err(|e| e.to_string())?;
        for m in &mismatches {
            self.warn(format_args!("{}: {m}", dir.display()));
        }
        Ok(kernel)
    }

    /// The session directory, imported strictly unless `--recover`.
    fn session(&self) -> (PathBuf, Kernel) {
        let dir = self.session_dir();
        let kernel = self
            .import(&dir, self.has("--recover"))
            .unwrap_or_else(|e| self.fail(e));
        (dir, kernel)
    }

    /// Load the session's sample database. Under `--recover` a missing
    /// or corrupt database is rebuilt by replaying the batch journal,
    /// and the replay's tally comes back alongside it.
    fn sample_db(&self, kernel: &Kernel) -> Result<(SampleDb, Option<RecoveredDb>), String> {
        let why = match kernel.vfs.read(SAMPLES_PATH).map(SampleDb::from_bytes) {
            Some(Ok(db)) => return Ok((db, None)),
            Some(Err(e)) => format!("corrupt sample database: {e}"),
            None => format!("no sample database at {SAMPLES_PATH}"),
        };
        if !self.has("--recover") {
            return Err(format!(
                "{why} — did the session stop cleanly?{}",
                self.recover_hint()
            ));
        }
        self.warn(format_args!("{why}; replaying the batch journal"));
        let rebuilt = viprof::recover_sample_db(&kernel.vfs)
            .ok_or("no sample journal either — nothing to rebuild")?;
        Ok((rebuilt.db.clone(), Some(rebuilt)))
    }
}

/// Read one JSON artifact the session exported (telemetry, timeline,
/// trace) from its VFS and parse it.
fn artifact<T>(
    kernel: &Kernel,
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let raw = kernel
        .vfs
        .read(path)
        .ok_or_else(|| format!("no {path} in the session (exported before it existed?)"))?;
    std::str::from_utf8(raw)
        .map_err(|e| e.to_string())
        .and_then(parse)
        .map_err(|e| format!("corrupt {path}: {e}"))
}
