//! `battle golden` — the golden-digest regression gate.
//!
//! A manifest of small-scale figure and scenario runs, each pinned at a
//! fixed scale and seed. `battle golden --write` records every run's
//! decision digest under `results/golden/<name>.digest`; plain
//! `battle golden` re-runs the manifest and diffs against the committed
//! files, printing a side-by-side divergence report. Any change to
//! scheduler decision-making — intended or not — shows up here before it
//! shows up in a figure.
//!
//! Scale and seed are pinned per entry; the SchedSan mode is the caller's
//! (`battle golden --check strict`). Strict checking only observes, so the
//! same files pin both modes: a strict run that diverges from them means a
//! check perturbed a decision.

use std::path::PathBuf;

use kernel::CheckMode;
use simcore::Fnv1a;

use scenario::Sched;

use crate::{fig5, runner, Crash, RunCfg};

/// What a manifest entry runs.
#[derive(Debug, Clone)]
pub enum Job {
    /// The fig5 suite comparison, the one pinned figure without a
    /// scenario file: its cells are generated ([`crate::suite_case`]),
    /// and the figure files are pinned as `Scenario` entries.
    Fig5,
    /// A scenario file, relative to the repo root.
    Scenario(&'static str),
}

/// One pinned digest target.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Golden-file stem (`results/golden/<name>.digest`).
    pub name: &'static str,
    /// What to run.
    pub job: Job,
    /// Pinned scale.
    pub scale: f64,
}

/// Pinned seed for every golden run.
pub const SEED: u64 = 42;

/// The manifest: every digest the CI gate pins.
pub fn manifest() -> Vec<Entry> {
    vec![
        Entry {
            name: "fig5",
            job: Job::Fig5,
            scale: 0.02,
        },
        Entry {
            name: "sc-fig1",
            job: Job::Scenario("scenarios/fig1.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-fig6",
            job: Job::Scenario("scenarios/fig6.toml"),
            scale: 0.02,
        },
        Entry {
            name: "sc-fig7",
            job: Job::Scenario("scenarios/fig7.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-numa-imbalance",
            job: Job::Scenario("scenarios/numa-imbalance.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-priority-inversion",
            job: Job::Scenario("scenarios/priority-inversion.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-bursty-server",
            job: Job::Scenario("scenarios/bursty-server.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-thundering-herd",
            job: Job::Scenario("scenarios/thundering-herd.toml"),
            scale: 0.05,
        },
        Entry {
            name: "sc-mixed-nice",
            job: Job::Scenario("scenarios/mixed-nice.toml"),
            scale: 0.05,
        },
        // The two wide machines: the only entries whose CPU masks span
        // more than one 64-bit word (256 and 512 CPUs).
        Entry {
            name: "sc-herd-4096",
            job: Job::Scenario("scenarios/herd-4096.toml"),
            scale: 0.05,
        },
        // The same herd at simbench's scale, about 4.8 waiters per CPU:
        // every CPU is busy, so placement and stealing take their
        // all-busy paths, which the 0.05 entry (2 per CPU) barely reaches.
        Entry {
            name: "sc-herd-4096-busy",
            job: Job::Scenario("scenarios/herd-4096.toml"),
            scale: 0.3,
        },
        Entry {
            name: "sc-numa-512",
            job: Job::Scenario("scenarios/numa-512.toml"),
            scale: 0.02,
        },
    ]
}

/// Digests of one manifest entry: fig5 pins CFS then ULE, a scenario
/// entry pins every registered class in [`Sched::ALL`] order.
#[derive(Debug, Clone)]
pub struct EntryDigests {
    /// Entry name.
    pub name: String,
    /// `(scheduler, digest)` pairs in run order.
    pub digests: Vec<(String, u64)>,
    /// Schedulers whose run was aborted by supervision (budget, watchdog
    /// or cancellation) and produced only a partial digest. A partial
    /// digest must never become a baseline: `--write` refuses it, a check
    /// flags it loudly.
    pub partial: Vec<String>,
    /// Error while computing (scenario parse failure, crash).
    pub error: Option<String>,
    /// fig5's failed cell, whose files `battle` writes.
    pub crash: Option<Crash>,
}

/// Fold a list of per-row digests into one (order-sensitive), used for
/// fig5 where the digest is per suite entry per scheduler.
fn fold(digests: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

fn compute(entry: &Entry, check: CheckMode, threads: usize) -> EntryDigests {
    let cfg = RunCfg {
        seed: SEED,
        check,
        threads,
        ..RunCfg::at_scale(entry.scale)
    };
    let mut out = EntryDigests {
        name: entry.name.to_string(),
        digests: Vec::new(),
        partial: Vec::new(),
        error: None,
        crash: None,
    };
    match &entry.job {
        Job::Fig5 => match fig5::run(&cfg) {
            Ok(cmp) => {
                out.digests.push((
                    "cfs".into(),
                    fold(cmp.rows.iter().map(|r| r.cfs.obs.digest)),
                ));
                out.digests.push((
                    "ule".into(),
                    fold(cmp.rows.iter().map(|r| r.ule.obs.digest)),
                ));
            }
            Err(c) => {
                out.error = Some(format!(
                    "{} (bundle: {})",
                    c.headline(),
                    c.bundle().display()
                ));
                out.crash = Some(c);
            }
        },
        Job::Scenario(path) => match std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|src| scenario::Scenario::from_toml(&src).map_err(|e| format!("{path}: {e}")))
        {
            Ok(sc) => {
                let opts = cfg.engine_opts();
                for sched in Sched::ALL {
                    let label = sched.flag_name();
                    match scenario::run_sched(&sc, sched, &opts) {
                        Ok(r) => {
                            if r.run.partial {
                                out.partial.push(label.into());
                            }
                            out.digests.push((label.into(), r.run.digest));
                        }
                        Err(e) => {
                            out.error = Some(format!("{path}: {e}"));
                            break;
                        }
                    }
                }
            }
            Err(e) => out.error = Some(e),
        },
    }
    out
}

/// Run the whole manifest under `check`, parallel across entries on
/// `threads` workers.
pub fn compute_all(check: CheckMode, threads: usize) -> Vec<EntryDigests> {
    runner::par_map(threads, manifest(), |e| compute(&e, check, threads))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from("results")
        .join("golden")
        .join(format!("{name}.digest"))
}

fn render_file(entry: &Entry, d: &EntryDigests) -> String {
    let mut s = format!(
        "# golden decision digests — regenerate with `battle golden --write`\n\
         # name={} scale={} seed={}\n",
        entry.name, entry.scale, SEED
    );
    for (sched, digest) in &d.digests {
        s.push_str(&format!("{sched} {digest:016x}\n"));
    }
    s
}

fn parse_file(src: &str) -> Vec<(String, u64)> {
    src.lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let sched = parts.next()?.to_string();
            let digest = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some((sched, digest))
        })
        .collect()
}

/// What `battle golden --write` records for `entry`: the golden file's
/// path, its text and the line that reports it once written, or why the
/// entry cannot become a baseline.
pub fn record(entry: &Entry, d: &EntryDigests) -> Result<(PathBuf, String, String), String> {
    if let Some(err) = &d.error {
        return Err(format!("[{}] ERROR: {err}", d.name));
    }
    if !d.partial.is_empty() {
        // A budget-killed (or otherwise aborted) run's digest-so-far is
        // deterministic but meaningless as a baseline: it pins where
        // the guard fired, not what the scheduler decided. Refuse.
        return Err(format!(
            "[{}] REFUSING to write golden: run(s) [{}] were aborted by supervision \
             and only salvaged a partial digest",
            d.name,
            d.partial.join(", ")
        ));
    }
    let path = golden_path(entry.name);
    let digests: Vec<String> = d
        .digests
        .iter()
        .map(|(s, v)| format!("{s}={v:016x}"))
        .collect();
    let wrote = format!("wrote {} ({})", path.display(), digests.join(" "));
    Ok((path, render_file(entry, d), wrote))
}

/// Diff the manifest's `digests` (see [`compute_all`]) against the
/// committed golden files: the side-by-side report, and whether every
/// digest matched.
pub fn check(digests: &[EntryDigests]) -> (String, bool) {
    let entries = manifest();
    let mut s = String::new();
    let mut t = metrics::Table::new(&["entry", "sched", "expected", "got", "status"]);
    let mut ok = true;
    for (entry, d) in entries.iter().zip(digests) {
        if let Some(err) = &d.error {
            t.push(&[
                d.name.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("ERROR: {err}"),
            ]);
            ok = false;
            continue;
        }
        let path = golden_path(entry.name);
        let expected = match std::fs::read_to_string(&path) {
            Ok(src) => parse_file(&src),
            Err(e) => {
                t.push(&[
                    d.name.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("MISSING {} ({e})", path.display()),
                ]);
                ok = false;
                continue;
            }
        };
        for (sched, got) in &d.digests {
            let exp = expected.iter().find(|(s, _)| s == sched).map(|&(_, v)| v);
            if d.partial.iter().any(|p| p == sched) {
                // The recomputed run aborted mid-flight; its digest-so-far
                // is not comparable to a full-run baseline.
                s.push_str(&format!(
                    "::warning title=golden partial run::[{}/{sched}] golden run was aborted \
                     by supervision; baseline not comparable\n",
                    d.name
                ));
                t.push(&[
                    d.name.clone(),
                    sched.clone(),
                    exp.map(|v| format!("{v:016x}"))
                        .unwrap_or_else(|| "-".into()),
                    format!("{got:016x}"),
                    "PARTIAL (run aborted — not comparable)".to_string(),
                ]);
                ok = false;
                continue;
            }
            let (exp_s, status) = match exp {
                Some(v) if v == *got => (format!("{v:016x}"), "ok".to_string()),
                Some(v) => {
                    ok = false;
                    (format!("{v:016x}"), "DIVERGED".to_string())
                }
                None => {
                    ok = false;
                    ("-".to_string(), "UNPINNED".to_string())
                }
            };
            t.push(&[
                d.name.clone(),
                sched.clone(),
                exp_s,
                format!("{got:016x}"),
                status,
            ]);
        }
    }
    s.push_str(&t.render());
    if ok {
        s.push_str(&format!(
            "\ngolden digests: all {} entries match\n",
            entries.len()
        ));
    } else {
        s.push_str(
            "\ngolden digests DIVERGED — if the change is intended, regenerate with \
             `battle golden --write` and commit results/golden/\n",
        );
    }
    (s, ok)
}
