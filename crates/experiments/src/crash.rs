//! Crash bundles: diagnostics written when SchedSan detects an invariant
//! violation.
//!
//! A violation surfaces as a [`kernel::SimError`] from `try_run_*`. Instead
//! of a bare panic message, the `battle` CLI degrades gracefully: it writes
//! a *crash bundle* under `results/crash/` — the full
//! [`kernel::Kernel::crash_report`] (error, seed, counters, per-CPU state,
//! live tasks, trace tail) plus a one-line replay command — prints where the
//! bundle went, and exits nonzero. A failing scenario run also leaves the
//! scenario file that `battle run` replays beside its bundle
//! ([`write_case`]).

use std::path::{Path, PathBuf};

use kernel::{Kernel, SimError};
use scenario::{Scenario, Sched};

use crate::RunCfg;

/// Everything needed to diagnose and replay one failed simulation.
#[derive(Debug, Clone)]
pub struct Crash {
    /// Short identifier, e.g. `"fibo-CFS"` or `"fuzz-0007-ULE"`.
    pub label: String,
    /// The violated invariant, rendered.
    pub error: String,
    /// The full diagnostic report (see [`Kernel::crash_report`]).
    pub report: String,
    /// Command line that reproduces the failure.
    pub replay: String,
}

impl Crash {
    /// Capture the kernel's post-mortem state for `err`.
    pub fn capture(k: &Kernel, err: &SimError, label: &str, replay: &str) -> Crash {
        Crash {
            label: label.to_string(),
            error: err.to_string(),
            report: k.crash_report(err),
            replay: replay.to_string(),
        }
    }

    /// Bundle for a job that panicked instead of returning. There is no
    /// kernel to post-mortem (the unwind tore it down), so the report is
    /// the panic message itself; the replay line is what matters.
    pub fn from_panic(label: &str, message: &str, replay: &str) -> Crash {
        Crash {
            label: label.to_string(),
            error: format!("panic: {message}"),
            report: format!(
                "panicked job (no kernel post-mortem available)\nlabel: {label}\npanic: {message}\n"
            ),
            replay: replay.to_string(),
        }
    }

    /// The bundle as written to disk.
    pub fn render(&self) -> String {
        format!("{}\nreplay: {}\n", self.report, self.replay)
    }

    /// Write the bundle to [`path`]`(label, "txt")`, creating the
    /// directory as needed.
    pub fn write_bundle(&self) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(DIR)?;
        let path = path(&self.label, "txt");
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Terminal failure path of the CLI: persist the bundle, print a
    /// summary, exit nonzero.
    pub fn bail(&self) -> ! {
        eprintln!(
            "scheduler invariant violated in {}: {}",
            self.label, self.error
        );
        match self.write_bundle() {
            Ok(p) => eprintln!("crash bundle written to {}", p.display()),
            Err(e) => {
                eprintln!(
                    "cannot write crash bundle: {e}; dumping to stderr\n{}",
                    self.render()
                );
            }
        }
        eprintln!("replay: {}", self.replay);
        std::process::exit(1);
    }
}

/// The directory crash bundles (and files written beside them) go to.
const DIR: &str = "results/crash";

/// Where the bundle labelled `label` keeps its `ext` file:
/// `results/crash/<label>.<ext>`, the label sanitized.
pub fn path(label: &str, ext: &str) -> PathBuf {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    Path::new(DIR).join(format!("{safe}.{ext}"))
}

/// The JSON form of `sc` that `battle run` reads.
pub fn case_json(sc: &Scenario) -> std::io::Result<String> {
    serde_json::to_string_pretty(&sc.to_value())
        .map(|json| json + "\n")
        .map_err(std::io::Error::other)
}

/// The command that replays the scenario file `file` as `cfg` ran it,
/// under strict checking.
pub fn replay(file: &Path, cfg: &RunCfg) -> String {
    format!(
        "battle run {} --seed {} --scale {} --check strict",
        file.display(),
        cfg.seed,
        cfg.scale
    )
}

/// The bundle label of scenario `sc` failing under `sched`:
/// `<name>-<class>`.
pub fn case_label(sc: &Scenario, sched: Sched) -> String {
    format!("{}-{}", sc.name, sched.name())
}

/// Write the scenario `sc` that failed under `sched`, restricted to that
/// class, as the JSON file that replays it: [`path`]`(label, "json")`,
/// beside the bundle of the same [`case_label`]. Returns the file; a
/// failed write is reported on stderr.
pub fn write_case(sc: &Scenario, sched: Sched) -> PathBuf {
    let file = path(&case_label(sc, sched), "json");
    let case = Scenario {
        scheds: vec![sched],
        ..sc.clone()
    };
    let written =
        std::fs::create_dir_all(DIR).and_then(|()| std::fs::write(&file, case_json(&case)?));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", file.display());
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{SimConfig, SimpleRR};
    use simcore::Time;
    use topology::Topology;

    #[test]
    fn capture_and_render_include_replay() {
        let topo = Topology::single_core();
        let k = Kernel::new(
            topo.clone(),
            SimConfig::with_seed(7),
            Box::new(SimpleRR::new(&topo)),
        );
        let err = SimError::Invariant {
            at: Time::ZERO,
            detail: "synthetic".into(),
        };
        let c = Crash::capture(&k, &err, "unit-test", "battle fuzz --seed 7 --cases 1");
        assert!(c.render().contains("synthetic"));
        assert!(c
            .render()
            .contains("replay: battle fuzz --seed 7 --cases 1"));
        assert!(c.render().contains("seed"));
    }
}
