//! `battle`'s command line, run as a child process.
//!
//! Bad numeric flags are rejected before anything runs: each case exits 2
//! with one line on standard error that names the flag. A scenario file
//! nested far too deep fails to parse with exit 1 and a diagnostic, not a
//! stack overflow. `golden --write`
//! writes every file before it prints, so a closed standard output cannot
//! leave some golden files rewritten and the rest stale. Every child runs
//! under a wall-clock guard, so a value that makes the program hang
//! (`--scale inf` once did) fails the test instead of stalling it.

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

/// Run `battle` with `args` from the repository root.
fn battle(args: &[&str]) -> Run {
    let child = Command::new(env!("CARGO_BIN_EXE_battle"))
        .args(args)
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn battle");
    wait_guarded(child, &format!("battle {}", args.join(" ")))
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
/// file must still come out byte-identical to the committed one, whatever
/// the closed pipe then does to the exit code.
#[test]
fn golden_write_into_a_closed_stdout_writes_every_file() {
    let root = repo_root();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-write-closed-stdout");
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear the last run");
    }
    copy_tree(&root.join("scenarios"), &dir.join("scenarios"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_battle"))
        .args(["golden", "--write", "--threads", "2"])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn battle");
    drop(child.stdout.take());
    let run = wait_guarded(child, "battle golden --write");
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
