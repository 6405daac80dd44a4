//! `battle`'s command line, run as a child process.
//!
//! Bad numeric flags are rejected before anything runs: each case exits 2
//! with one line on standard error that names the flag. A scenario file
//! nested far too deep fails to parse with exit 1 and a diagnostic, not a
//! stack overflow. The exit codes follow one contract: bad arguments 2, a
//! failed run 1, informational shape checks 0, and a closed standard
//! output 141. `main` writes every file before it prints, so a closed
//! standard output costs no file: not a golden file, not a `--json` dump.
//! A supervision abort in `battle run` leaves the same crash bundles, and
//! the same output, at any pool size. Every child runs under a wall-clock
//! guard, so a value that makes the program hang (`--scale inf` once did)
//! fails the test instead of stalling it.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long one child may run before it is killed.
const GUARD: Duration = Duration::from_secs(120);

/// A finished child's exit code and its two streams.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Read `child`'s streams to the end while waiting for it, killing it
/// (and failing) past the guard.
fn wait_guarded(mut child: Child, what: &str) -> Run {
    let drain = |stream: Option<Box<dyn Read + Send>>| {
        thread::spawn(move || {
            let mut text = String::new();
            if let Some(mut s) = stream {
                s.read_to_string(&mut text).ok();
            }
            text
        })
    };
    let out = drain(child.stdout.take().map(|s| Box::new(s) as _));
    let err = drain(child.stderr.take().map(|s| Box::new(s) as _));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if start.elapsed() > GUARD {
            child.kill().ok();
            child.wait().ok();
            panic!("{what}: still running after {GUARD:?}, killed");
        }
        thread::sleep(Duration::from_millis(10));
    };
    Run {
        code: status.code(),
        stdout: out.join().expect("stdout reader"),
        stderr: err.join().expect("stderr reader"),
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// What `battle` exits with when its standard output was closed.
const CLOSED_STDOUT: i32 = 141;

/// Run `battle` with `args` in `dir`, with its standard output closed
/// before the first line when `closed`.
fn battle_in(dir: &Path, args: &[&str], closed: bool) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_battle"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn battle");
    if closed {
        drop(child.stdout.take());
    }
    wait_guarded(child, &format!("battle {}", args.join(" ")))
}

/// Run `battle` with `args` from the repository root.
fn battle(args: &[&str]) -> Run {
    battle_in(&repo_root(), args, false)
}

/// An empty directory for test `name` under the target's temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear the last run");
    }
    fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// Write `scenarios/thundering-herd.toml` with a watchdog that trips on
/// two events at one instant into `dir` as each of `names`.
fn stalled_herds(dir: &Path, names: &[&str]) {
    let herd = fs::read_to_string(repo_root().join("scenarios/thundering-herd.toml"))
        .expect("the herd scenario");
    for name in names {
        let stalled = format!("{herd}\n[budget]\nstall_events = 2\n");
        fs::write(dir.join(name), stalled).expect("write the scenario");
    }
}

/// Every file under `dir`, by name, with its bytes.
fn files_in(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("read an entry").path())
                .map(|p| {
                    let name = p.file_name().expect("a file name").to_string_lossy();
                    (name.into_owned(), fs::read(&p).expect("read a file"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    let fig1 = "scenarios/fig1.toml";
    let cases: &[(&[&str], &str)] = &[
        (&["run", fig1, "--scale", "nan"], "--scale"),
        (&["run", fig1, "--scale", "-1"], "--scale"),
        (&["run", fig1, "--scale", "0"], "--scale"),
        (&["run", fig1, "--scale", "inf"], "--scale"),
        (&["fig1", "--scale", "x"], "--scale"),
        (&["run", fig1, "--timeout", "inf"], "--timeout"),
        (&["run", fig1, "--timeout", "1e300"], "--timeout"),
        (&["run", fig1, "--timeout", "1e19"], "--timeout"),
        (&["run", fig1, "--timeout", "nan"], "--timeout"),
        (&["run", fig1, "--timeout", "0"], "--timeout"),
        (
            &["fuzz", "--cases", "1", "--case-timeout", "inf"],
            "--case-timeout",
        ),
        (
            &["fuzz", "--cases", "1", "--case-timeout", "-3"],
            "--case-timeout",
        ),
    ];
    for (args, flag) in cases {
        let run = battle(args);
        let what = format!("battle {}", args.join(" "));
        assert_eq!(run.code, Some(2), "{what}: stderr {:?}", run.stderr);
        let lines: Vec<&str> = run.stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{what}: one line, got {:?}", run.stderr);
        assert!(
            lines[0].contains(flag),
            "{what}: {flag} missing from {:?}",
            lines[0]
        );
        assert!(run.stdout.is_empty(), "{what}: ran: {:?}", run.stdout);
    }
}

#[test]
fn a_small_scale_still_runs() {
    let run = battle(&["run", "scenarios/fig1.toml", "--scale", "0.01"]);
    assert_eq!(run.code, Some(0), "stderr {:?}", run.stderr);
    assert!(
        run.stdout.contains("1/1 scenarios passed"),
        "{:?}",
        run.stdout
    );
}

/// Scenario files 50,000 levels deep, in TOML and in JSON, exit 1 with the
/// parser's nesting diagnostic. Without the parsers' nesting limit they
/// recurse until the stack overflows (exit 134, no diagnostic).
#[test]
fn deeply_nested_scenarios_fail_with_a_diagnostic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep-nesting");
    fs::create_dir_all(&dir).expect("create the test directory");
    let depth = 50_000;
    let (open, close) = ("[".repeat(depth), "]".repeat(depth));
    let files = [
        (
            "deep.toml",
            format!("name = \"deep\"\na = {open}1{close}\n"),
            "line 2: arrays and inline tables nest deeper than 128 levels",
        ),
        (
            "deep.json",
            format!("{{\"name\": {open}{close}}}"),
            // The object is the first level, so the 128th `[` is too deep.
            "arrays and objects nest deeper than 128 levels at byte 136",
        ),
    ];
    for (name, text, want) in files {
        let path = dir.join(name);
        fs::write(&path, text).expect("write the scenario");
        let run = battle(&["run", path.to_str().expect("a UTF-8 path")]);
        assert_eq!(run.code, Some(1), "{name}: stderr {:?}", run.stderr);
        assert!(run.stderr.contains(want), "{name}: {:?}", run.stderr);
        assert!(run.stdout.is_empty(), "{name}: ran: {:?}", run.stdout);
    }
}

/// Copy the directory tree `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy");
    for entry in fs::read_dir(from).expect("read the tree") {
        let entry = entry.expect("read an entry");
        let dest = to.join(entry.file_name());
        if entry.file_type().expect("entry type").is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            fs::copy(entry.path(), dest).expect("copy a file");
        }
    }
}

/// `battle golden --write` in a directory holding a copy of `scenarios/`,
/// with its standard output closed before the first line: every golden
/// file must still come out byte-identical to the committed one, and the
/// run exits with the closed-stdout code, without a panic.
#[test]
fn golden_write_into_a_closed_stdout_writes_every_file() {
    let root = repo_root();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-write-closed-stdout");
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear the last run");
    }
    copy_tree(&root.join("scenarios"), &dir.join("scenarios"));
    let run = battle_in(&dir, &["golden", "--write", "--threads", "2"], true);
    assert_eq!(run.code, Some(CLOSED_STDOUT), "stderr {:?}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "{:?}", run.stderr);
    let committed = root.join("results/golden");
    let names: Vec<String> = experiments::golden::manifest()
        .iter()
        .map(|e| format!("{}.digest", e.name))
        .collect();
    assert_eq!(names.len(), 12);
    assert_eq!(
        fs::read_dir(&committed).expect("committed goldens").count(),
        12
    );
    for name in &names {
        let want = fs::read(committed.join(name)).expect("committed golden file");
        let got = fs::read(dir.join("results/golden").join(name)).unwrap_or_else(|e| {
            panic!(
                "{name} not written ({e}); exit {:?}, stderr {:?}",
                run.code, run.stderr
            )
        });
        assert!(got == want, "{name} differs from the committed file");
    }
}

/// The exit-code contract, end to end: bad arguments 2, a failed run 1,
/// informational shape checks 0, and a closed standard output 141 (with
/// no panic, and the `--json` file an open run writes).
#[test]
fn exit_codes_follow_the_contract() {
    let bad = battle(&["fig1", "--scale", "nan"]);
    assert_eq!(bad.code, Some(2), "stderr {:?}", bad.stderr);

    let dir = fresh_dir("exit-codes");
    stalled_herds(&dir, &["stalled.toml"]);
    let failed = battle_in(&dir, &["run", "stalled.toml", "--scale", "0.05"], false);
    assert_eq!(failed.code, Some(1), "stderr {:?}", failed.stderr);
    // A failed run exits 1 whatever happens to its standard output.
    let failed = battle_in(&dir, &["run", "stalled.toml", "--scale", "0.05"], true);
    assert_eq!(failed.code, Some(1), "stderr {:?}", failed.stderr);

    let shapes = battle(&["fig1", "--scale", "0.01"]);
    assert_eq!(shapes.code, Some(0), "stderr {:?}", shapes.stderr);
    assert!(
        shapes.stdout.contains("shape check FAILED"),
        "{}",
        shapes.stdout
    );

    let scenario = repo_root().join("scenarios/mixed-nice.toml");
    let scenario = scenario.to_str().expect("a UTF-8 path");
    let run = |json: &str, closed: bool| {
        let args = ["run", scenario, "--scale", "0.05", "--json", json];
        battle_in(&dir, &args, closed)
    };
    let open = run("open.json", false);
    assert_eq!(open.code, Some(0), "stderr {:?}", open.stderr);
    let closed = run("closed.json", true);
    assert_eq!(
        closed.code,
        Some(CLOSED_STDOUT),
        "stderr {:?}",
        closed.stderr
    );
    assert!(!closed.stderr.contains("panicked"), "{:?}", closed.stderr);
    let read = |name: &str| fs::read(dir.join(name)).expect("the --json file");
    assert!(read("open.json") == read("closed.json"));
}

/// `battle run` on two scenario files whose watchdog trips: each failed
/// run leaves a crash bundle whose replay line names the scenario file,
/// and the output and `results/crash/` are byte-identical at one worker
/// and at four. The copies share the scenario's name, so the second
/// file's bundles overwrite the first's, in job order.
#[test]
fn a_supervision_abort_leaves_the_same_bundles_at_any_pool_size() {
    let mut seen = Vec::new();
    for threads in ["1", "4"] {
        let dir = fresh_dir(&format!("stalled-herds-t{threads}"));
        stalled_herds(&dir, &["herd-a.toml", "herd-b.toml"]);
        let args = ["run", "herd-a.toml", "herd-b.toml", "--scale", "0.05"];
        let run = battle_in(&dir, &[&args[..], &["--threads", threads]].concat(), false);
        assert_eq!(run.code, Some(1), "stderr {:?}", run.stderr);
        assert!(run.stdout.contains("partial: "), "{}", run.stdout);
        assert!(
            run.stdout.contains("(bundle: results/crash/"),
            "{}",
            run.stdout
        );
        let crash = files_in(&dir.join("results/crash"));
        assert!(!crash.is_empty(), "no bundle written");
        for (name, bytes) in &crash {
            let text = String::from_utf8_lossy(bytes);
            assert!(
                text.contains("\nreplay: battle run herd-b.toml "),
                "{name}: {text}"
            );
        }
        seen.push((run.stdout, run.stderr, crash));
    }
    assert!(seen[0] == seen[1], "the output depends on the pool size");
}
