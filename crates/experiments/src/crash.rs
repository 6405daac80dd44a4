//! Crash bundles: what a failed run leaves, headed by the failure's kind
//! (an invariant violation SchedSan detected, a supervision abort, a
//! panic).
//!
//! A failure is a [`Crash`] value that travels back to `battle`'s `main`:
//! the full [`kernel::Kernel::crash_report`] (error, seed, counters, per-CPU
//! state, live tasks, trace tail), a one-line replay command and, for a
//! scenario that exists only in memory, the case `battle run` replays.
//! Nothing here prints or writes: `main` writes each crash's
//! [`Crash::files`] under `results/crash/`, reports the failure and picks
//! the exit code.

use std::path::{Path, PathBuf};

use kernel::{Kernel, SimError};
use scenario::{EngineError, RunOutput, Scenario, Sched};

use crate::RunCfg;

/// Everything needed to diagnose and replay one failed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// Short identifier, e.g. `"fibo-CFS"` or `"fuzz-0007-ULE"`.
    pub label: String,
    /// What kind of failure it is: [`SimError::kind`] for a simulator
    /// error or a supervision abort, `"spec error"` for a scenario that
    /// does not build, `"panic"` for a panicked job, and
    /// `"assertion failed"` for a fuzz case's broken assertions.
    pub kind: &'static str,
    /// The error, rendered.
    pub error: String,
    /// The full diagnostic report (see [`Kernel::crash_report`]).
    pub report: String,
    /// Command line that reproduces the failure.
    pub replay: String,
    /// The scenario `replay` runs, restricted to the failing class, when
    /// it has no file of its own (a figure cell, a fuzz case): it is
    /// written to [`path`]`(label, "json")`.
    pub case: Option<Box<Scenario>>,
}

impl Crash {
    fn new(
        label: String,
        kind: &'static str,
        error: String,
        report: String,
        replay: String,
    ) -> Crash {
        Crash {
            label,
            kind,
            error,
            report,
            replay,
            case: None,
        }
    }

    /// The scenario run `result`, or its failure as a crash labelled
    /// `label` and replayed by `replay`. A run fails on an engine error (a
    /// strict-mode violation, a spec that does not build) and on a
    /// supervision abort (budget, watchdog, cancellation): a salvaged
    /// partial run measures a truncated workload, and `battle run` fails
    /// it too.
    pub fn of_run(
        label: String,
        result: Result<RunOutput, EngineError>,
        replay: String,
    ) -> Result<RunOutput, Crash> {
        let out = result.map_err(|e| Crash::of_error(label.clone(), e, replay.clone()))?;
        match (&out.run.abort, out.run.abort_kind) {
            (Some(abort), Some(kind)) => {
                let report = out.kernel.crash_report(kind.name(), abort);
                Err(Crash::new(
                    label,
                    kind.name(),
                    abort.clone(),
                    report,
                    replay,
                ))
            }
            _ => Ok(out),
        }
    }

    /// The engine error `e` of a scenario run as a crash: [`Crash::of_run`]
    /// without its supervision-abort half, for a caller that classifies
    /// aborts itself (chaos).
    pub fn of_error(label: String, e: EngineError, replay: String) -> Crash {
        match e {
            EngineError::Crash(c) => Crash::new(label, c.kind, c.error, c.report, replay),
            EngineError::Spec(e) => {
                let report = format!("{e}\n");
                Crash::new(label, "spec error", e.to_string(), report, replay)
            }
        }
    }

    /// A scenario run that finished but broke the assertions `broken`.
    pub fn broken(label: String, broken: &[String], replay: String) -> Crash {
        let report = broken.join("\n") + "\n";
        Crash::new(label, "assertion failed", broken.join("; "), report, replay)
    }

    /// Capture the kernel's post-mortem state for `err`.
    pub fn capture(k: &Kernel, err: &SimError, label: &str, replay: &str) -> Crash {
        let report = k.crash_report(err.kind(), err);
        Crash::new(
            label.into(),
            err.kind(),
            err.to_string(),
            report,
            replay.into(),
        )
    }

    /// Bundle for a job that panicked instead of returning. There is no
    /// kernel to post-mortem (the unwind tore it down), so the report is
    /// the panic message itself; the replay line is what matters.
    pub fn from_panic(label: &str, message: &str, replay: &str) -> Crash {
        let report = format!(
            "panicked job (no kernel post-mortem available)\nlabel: {label}\npanic: {message}\n"
        );
        let error = format!("panic: {message}");
        Crash::new(label.into(), "panic", error, report, replay.into())
    }

    /// This crash with `sc`, restricted to `sched`, as the case its
    /// replay line runs.
    pub fn with_case(self, sc: &Scenario, sched: Sched) -> Crash {
        let case = Scenario {
            scheds: vec![sched],
            ..sc.clone()
        };
        Crash {
            case: Some(Box::new(case)),
            ..self
        }
    }

    /// The bundle as written to disk.
    pub fn render(&self) -> String {
        format!("{}\nreplay: {}\n", self.report, self.replay)
    }

    /// The first line `battle` reports for a run this crash ended: the
    /// kind, the label and the error.
    pub fn headline(&self) -> String {
        format!("{} in {}: {}", self.kind, self.label, self.error)
    }

    /// Where the bundle goes: [`path`]`(label, "txt")`.
    pub fn bundle(&self) -> PathBuf {
        path(&self.label, "txt")
    }

    /// The files this crash leaves, in the order `battle` writes them: the
    /// case file, if any, then the bundle.
    pub fn files(&self) -> Vec<(PathBuf, std::io::Result<String>)> {
        let case = self
            .case
            .as_ref()
            .map(|sc| (path(&self.label, "json"), case_json(sc)));
        case.into_iter()
            .chain([(self.bundle(), Ok(self.render()))])
            .collect()
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
        assert!(c
            .render()
            .starts_with("crash report: invariant violation\n"));
        assert!(c
            .headline()
            .starts_with("invariant violation in unit-test: "));
    }

    #[test]
    fn a_livelock_is_not_headed_as_an_invariant_violation() {
        let topo = Topology::single_core();
        let k = Kernel::new(
            topo.clone(),
            SimConfig::with_seed(7),
            Box::new(SimpleRR::new(&topo)),
        );
        let err = SimError::Livelock {
            at: Time::ZERO,
            detail: "no progress".into(),
            window: Vec::new(),
        };
        let c = Crash::capture(&k, &err, "stalled", "battle run stalled.json");
        assert_eq!(c.kind, "livelock");
        assert!(c.render().starts_with("crash report: livelock\n"));
        assert_eq!(c.headline(), format!("livelock in stalled: {err}"));
        for text in [c.render(), c.headline()] {
            assert!(!text.contains("invariant"), "{text}");
        }
        let panicked = Crash::from_panic("job", "boom", "battle run job.json");
        assert!(panicked.headline().starts_with("panic in job: "));
    }
}
