//! Reduce a run's samples to named metrics and print them.

use scenario::Sched;

use crate::reference::REFERENCE_S;
use crate::traced::{Hook, ProbeCost, Traced, TIMED};
use crate::{ClassSamples, Config, Outcome, Samples};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The `q` quantile of `values`, interpolated; 0 when empty.
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// The estimate every host time is reported as: the 10th percentile of its
/// samples. On a shared host, neighbours slow the simulator down by up to
/// 2x in episodes lasting seconds, while samples outside them agree within
/// a few per cent; a low percentile of samples spread over the run tracks
/// the uncontended speed, where the median follows the episodes.
pub fn host_time(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.1)
}

/// The factor every reported host time is multiplied by: [`REFERENCE_S`]
/// over the reference workload's [`host_time`] in this run. It takes the
/// time to what it would have been on a quiet host of the machine the
/// benchmark was tuned on, so host-wide slow-downs that last longer than
/// a run cancel out.
pub fn host_scale(s: &Samples) -> f64 {
    REFERENCE_S / host_time(s.reference_s.iter().copied())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of the untraced pass.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let k = host_scale(s);
    let setup = s.parse_s.iter().zip(&s.build_s).map(|(p, b)| p + b);
    let per_class: Vec<f64> = s
        .classes
        .iter()
        .map(|c| host_time(c.wall_s.iter().copied()) * k)
        .collect();
    let mut out = vec![
        metric("setup_s", host_time(setup) * k, "s"),
        metric("wall_s", per_class.iter().sum(), "s"),
    ];
    for (sched, wall) in Sched::ALL.iter().zip(per_class) {
        out.push(metric(format!("wall_s.{}", sched.flag_name()), wall, "s"));
    }
    out.push(metric("peak_rss_mb", s.peak_rss_mb, "MiB"));
    out
}

/// [`host_time`] over a class's traced runs of `f`, times `k`.
fn traced_time(c: &ClassSamples, k: f64, f: impl Fn(&Traced) -> f64) -> f64 {
    host_time(c.traced.iter().map(f)) * k
}

/// The tally of a class's last traced run (counts repeat exactly).
fn last_tally(c: &ClassSamples) -> crate::traced::Tally {
    c.traced.last().map(|t| t.tally.clone()).unwrap_or_default()
}

/// The per-layer metrics of the traced pass.
pub fn per_layer(s: &Samples) -> Vec<Metric> {
    let k = host_scale(s);
    let scheds = || Sched::ALL.iter().map(|s| s.flag_name()).zip(&s.classes);
    let tallies: Vec<_> = s.classes.iter().map(last_tally).collect();
    let total = |f: &dyn Fn(&kernel::Counters) -> u64| -> f64 {
        s.classes.iter().map(|c| f(&c.counters) as f64).sum()
    };
    let calls = |h: Hook| tallies.iter().map(|t| t.calls(h)).sum::<u64>();
    let outcomes = |f: &dyn Fn(&crate::traced::Tally) -> u64| tallies.iter().map(f).sum::<u64>();

    let mut out = vec![
        metric(
            "scenario.parse_s",
            host_time(s.parse_s.iter().copied()) * k,
            "s",
        ),
        metric(
            "scenario.build_s",
            host_time(s.build_s.iter().copied()) * k,
            "s",
        ),
        metric("scenario.threads", s.threads as f64, "count"),
    ];

    for (name, c) in scheds() {
        let self_s = traced_time(c, k, Traced::kernel_self_s);
        out.push(metric(format!("kernel.self_s.{name}"), self_s, "s"));
        let per_event = self_s * 1e9 / c.counters.events.max(1) as f64;
        out.push(metric(
            format!("kernel.ns_per_event.{name}"),
            per_event,
            "ns",
        ));
    }
    out.push(metric("kernel.events", total(&|c| c.events), "count"));
    out.push(metric("kernel.wakeups", total(&|c| c.wakeups), "count"));
    out.push(metric(
        "kernel.ctx_switches",
        total(&|c| c.ctx_switches),
        "count",
    ));
    out.push(metric(
        "kernel.preemptions",
        total(&|c| c.preemptions),
        "count",
    ));
    out.push(metric(
        "kernel.migrations",
        total(&|c| c.migrations),
        "count",
    ));

    for (name, c) in scheds() {
        for (hook, hook_name) in TIMED {
            let secs = traced_time(c, k, |t| t.tally.secs(hook));
            out.push(metric(format!("class.{name}.{hook_name}_s"), secs, "s"));
        }
    }
    for (hook, hook_name) in TIMED {
        out.push(metric(
            format!("class.{hook_name}.calls"),
            calls(hook) as f64,
            "count",
        ));
    }
    let frac = |num: u64, hook: Hook| ratio(num, calls(hook));
    out.push(metric(
        "class.pick_idle_frac",
        frac(outcomes(&|t| t.pick_idle), Hook::PickNextTask),
        "ratio",
    ));
    out.push(metric(
        "class.enqueue_preempt_frac",
        frac(outcomes(&|t| t.enqueue_preempt), Hook::EnqueueTask),
        "ratio",
    ));
    out.push(metric(
        "class.tick_preempt_frac",
        frac(outcomes(&|t| t.tick_preempt), Hook::TaskTick),
        "ratio",
    ));
    for ((name, _), t) in scheds().zip(&tallies) {
        let per_select = ratio(t.cpus_scanned, t.calls(Hook::SelectTaskRq));
        out.push(metric(
            format!("class.{name}.cpus_per_select"),
            per_select,
            "cpu/call",
        ));
        let pulls = ratio(t.idle_pulls, t.calls(Hook::IdleBalance));
        out.push(metric(
            format!("class.{name}.idle_pull_frac"),
            pulls,
            "ratio",
        ));
    }

    for (name, c) in scheds() {
        let audit = traced_time(c, k, |t| t.tally.secs(Hook::Audit));
        out.push(metric(format!("check.{name}.audit_s"), audit, "s"));
        let walk = traced_time(c, k, |t| t.tally.secs(Hook::QueueWalk));
        out.push(metric(format!("check.{name}.queue_walk_s"), walk, "s"));
        let cost = median(c.check_cost_s.iter().copied()) * k;
        out.push(metric(format!("check.{name}.cost_s"), cost, "s"));
    }

    let overhead =
        s.round_traced_s
            .iter()
            .zip(&s.round_wall_s)
            .map(|(t, u)| if *u > 0.0 { t / u - 1.0 } else { 0.0 });
    out.push(metric("trace.overhead_frac", median(overhead), "ratio"));
    out.push(metric("trace.probe_ns", ProbeCost::get().total_ns, "ns"));
    out.push(metric(
        "host.reference_s",
        host_time(s.reference_s.iter().copied()),
        "s",
    ));
    out
}

/// Print the readable table to standard error and the result object as the
/// last line of standard output.
pub fn print(cfg: &Config, out: &Outcome) {
    eprintln!(
        "{} seed {} ({} pass): {} of {} runs failed",
        cfg.workload.name,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        eprintln!("  {:<36} {:>16.9} {}", m.name, m.value, m.unit);
    }
    println!("{}", to_json(out));
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn to_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
