//! SchedScope: exportable scheduling traces and trace-derived analyses.
//!
//! `battle run <scenario> --trace` (and its alias `battle trace <fig>`)
//! streams every kernel event of each run into Chrome-trace/Perfetto JSON:
//! one track per CPU whose slices are the running tasks (from
//! `Switch`/`Idle` events), instant markers for wakeups, exits,
//! preemptions, migrations, hotplug and fault events, and flow arrows from
//! each waker to its wakee's next dispatch. Load the file in
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to scrub through a run
//! visually. [`run_group`] installs the [`TraceSink`] through the scenario
//! engine's [`Observer`] set-up call, so events reach disk as they happen
//! and a full-scale run exports a complete trace without a buffer.
//!
//! Alongside the export, an [`Analyzer`] aggregates the same event stream
//! into the §5.3/§6 analyses: preemption attribution by cause and by
//! (preemptor, victim) pair — validating the paper's "1 preemption per
//! request" apache claim — and a per-core migration timeline for the
//! Figure 6 rebalancing story.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;

use kernel::{Kernel, TraceEvent, TraceSink};
use scenario::{EngineError, EngineOpts, Observer, RunOutput, Scenario, ScenarioRun};
use sched_api::{TaskTable, Tid};
use simcore::Time;
use topology::CpuId;

use crate::Sched;

// ---------------------------------------------------------------------
// Chrome-trace writer
// ---------------------------------------------------------------------

/// A slice currently open on one CPU track.
struct OpenSlice {
    start: Time,
    name: String,
    tid: Tid,
}

/// Incremental Chrome-trace (JSON Array Format) writer.
///
/// One *process* per scheduler group (`begin_group`), one *thread* per
/// CPU; task executions become `"ph":"X"` complete slices, everything
/// else becomes `"ph":"i"` instants, and wakeups additionally draw
/// `"s"`/`"f"` flow arrows from the waker to the wakee's next dispatch.
/// I/O errors are sticky and surface from [`ChromeTrace::finish`].
pub struct ChromeTrace<W: Write> {
    out: W,
    wrote_any: bool,
    err: Option<String>,
    pid: u32,
    open: Vec<Option<OpenSlice>>,
    /// Dense tid-indexed table: which CPU a task currently occupies a
    /// slice on ([`NO_CPU`] when none). Indexed on every switch event, so
    /// a flat vector beats hashing.
    running: Vec<u32>,
    /// Dense tid-indexed table: pending wakeup flow-arrow id per task
    /// (0 when none; real ids start at 1).
    pending_flow: Vec<u64>,
    next_flow: u64,
    events: u64,
    slices: u64,
}

/// Vacant sentinel for [`ChromeTrace::running`].
const NO_CPU: u32 = u32::MAX;

/// Nanoseconds as a microsecond JSON number with fixed 3-digit fraction
/// (Chrome-trace timestamps are microseconds; fixed formatting keeps the
/// output byte-deterministic).
fn us(t: u64) -> String {
    format!("{}.{:03}", t / 1_000, t % 1_000)
}

/// Minimal JSON string escape (task names are short ASCII identifiers,
/// but never trust an un-escaped string into a file format).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<W: Write> ChromeTrace<W> {
    /// Start a trace document on `out`.
    pub fn new(mut out: W) -> ChromeTrace<W> {
        let err = out
            .write_all(b"{\"traceEvents\":[\n")
            .err()
            .map(|e| e.to_string());
        ChromeTrace {
            out,
            wrote_any: false,
            err,
            pid: 0,
            open: Vec::new(),
            running: Vec::new(),
            pending_flow: Vec::new(),
            next_flow: 1,
            events: 0,
            slices: 0,
        }
    }

    /// Events emitted so far (including metadata records).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Task slices emitted so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// The CPU `tid` currently has an open slice on, if any.
    fn running_get(&self, tid: Tid) -> Option<CpuId> {
        match self.running.get(tid.index()).copied() {
            Some(NO_CPU) | None => None,
            Some(c) => Some(CpuId(c)),
        }
    }

    /// Record that `tid` occupies `cpu` (grows the table on first sight).
    fn running_set(&mut self, tid: Tid, cpu: CpuId) {
        if tid.index() >= self.running.len() {
            self.running.resize(tid.index() + 1, NO_CPU);
        }
        self.running[tid.index()] = cpu.0;
    }

    /// Record that `tid` no longer occupies any CPU.
    fn running_unset(&mut self, tid: Tid) {
        if let Some(slot) = self.running.get_mut(tid.index()) {
            *slot = NO_CPU;
        }
    }

    /// Take `tid`'s pending wakeup flow id, if one is armed.
    fn flow_take(&mut self, tid: Tid) -> Option<u64> {
        match self.pending_flow.get_mut(tid.index()) {
            Some(id) if *id != 0 => Some(std::mem::take(id)),
            _ => None,
        }
    }

    /// Arm a wakeup flow arrow for `tid`'s next dispatch.
    fn flow_set(&mut self, tid: Tid, id: u64) {
        if tid.index() >= self.pending_flow.len() {
            self.pending_flow.resize(tid.index() + 1, 0);
        }
        self.pending_flow[tid.index()] = id;
    }

    /// Begin a new scheduler group: Chrome-trace process `pid` named
    /// `name`, with one named thread per CPU. Resets all per-run state.
    pub fn begin_group(&mut self, pid: u32, name: &str, ncpu: usize) {
        self.pid = pid;
        self.open = (0..ncpu).map(|_| None).collect();
        self.running.clear();
        self.pending_flow.clear();
        self.raw(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
        self.raw(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{pid}}}}}"
        ));
        for cpu in 0..ncpu {
            self.raw(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{cpu},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"cpu{cpu}\"}}}}"
            ));
        }
    }

    /// Close every still-open slice at `now` (end of a group's run).
    pub fn end_group(&mut self, now: Time) {
        for cpu in 0..self.open.len() {
            self.close(CpuId(cpu as u32), now);
        }
        self.pending_flow.clear();
        self.running.clear();
    }

    /// Terminate the JSON document and flush. Returns the total events
    /// written, or the first I/O error encountered anywhere along the way.
    pub fn finish(mut self) -> Result<u64, String> {
        if let Err(e) = self
            .out
            .write_all(b"\n]}\n")
            .and_then(|()| self.out.flush())
        {
            self.err.get_or_insert(e.to_string());
        }
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }

    fn raw(&mut self, json: String) {
        if self.err.is_some() {
            return;
        }
        let sep: &[u8] = if self.wrote_any { b",\n" } else { b"" };
        if let Err(e) = self
            .out
            .write_all(sep)
            .and_then(|()| self.out.write_all(json.as_bytes()))
        {
            self.err = Some(e.to_string());
            return;
        }
        self.wrote_any = true;
        self.events += 1;
    }

    fn close(&mut self, cpu: CpuId, at: Time) {
        let Some(slot) = self.open.get_mut(cpu.index()) else {
            return;
        };
        let Some(s) = slot.take() else { return };
        let dur = at.as_nanos().saturating_sub(s.start.as_nanos());
        let (pid, tid) = (self.pid, s.tid.0);
        self.raw(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"cat\":\"task\",\"name\":\"{}\",\"args\":{{\"tid\":{tid}}}}}",
            cpu.0,
            us(s.start.as_nanos()),
            us(dur),
            s.name,
        ));
        self.slices += 1;
        self.running_unset(s.tid);
    }

    fn instant(&mut self, cpu: CpuId, at: Time, name: &str, args: String) {
        let pid = self.pid;
        self.raw(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"s\":\"t\",\
             \"cat\":\"sched\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
            cpu.0,
            us(at.as_nanos()),
        ));
    }

    /// Render one event (the [`TraceSink`] entry point).
    pub fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        match *ev {
            TraceEvent::Switch { at, cpu, to, .. } => {
                self.close(cpu, at);
                if let Some(id) = self.flow_take(to) {
                    let pid = self.pid;
                    self.raw(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{pid},\
                         \"tid\":{},\"ts\":{},\"cat\":\"wake\",\"name\":\"wake\"}}",
                        cpu.0,
                        us(at.as_nanos()),
                    ));
                }
                if let Some(slot) = self.open.get_mut(cpu.index()) {
                    *slot = Some(OpenSlice {
                        start: at,
                        name: esc(&tasks.get(to).name),
                        tid: to,
                    });
                }
                self.running_set(to, cpu);
            }
            TraceEvent::Idle { at, cpu } => self.close(cpu, at),
            TraceEvent::Wakeup {
                at,
                tid,
                cpu,
                waker,
            } => {
                let src = waker.and_then(|w| self.running_get(w)).unwrap_or(cpu);
                let id = self.next_flow;
                self.next_flow += 1;
                let by = waker
                    .map(|w| format!(",\"waker\":\"{}\"", esc(&tasks.get(w).name)))
                    .unwrap_or_default();
                self.instant(
                    cpu,
                    at,
                    &format!("wakeup {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}{by}", tid.0),
                );
                let pid = self.pid;
                self.raw(format!(
                    "{{\"ph\":\"s\",\"id\":{id},\"pid\":{pid},\"tid\":{},\
                     \"ts\":{},\"cat\":\"wake\",\"name\":\"wake\"}}",
                    src.0,
                    us(at.as_nanos()),
                ));
                self.flow_set(tid, id);
            }
            TraceEvent::Exit { at, tid } => {
                let cpu = self.running_get(tid).unwrap_or(CpuId(0));
                self.instant(
                    cpu,
                    at,
                    &format!("exit {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}", tid.0),
                );
                self.flow_take(tid);
            }
            TraceEvent::Hotplug { at, cpu, online } => {
                if !online {
                    self.close(cpu, at);
                }
                self.instant(
                    cpu,
                    at,
                    if online { "cpu online" } else { "cpu offline" },
                    String::new(),
                );
            }
            TraceEvent::SpuriousWake { at, tid } => {
                self.instant(
                    CpuId(0),
                    at,
                    &format!("spurious-wake {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}", tid.0),
                );
            }
            TraceEvent::Preempt {
                at,
                cpu,
                victim,
                by,
                cause,
            } => {
                let by = by
                    .map(|b| format!(",\"by\":\"{}\"", esc(&tasks.get(b).name)))
                    .unwrap_or_default();
                self.instant(
                    cpu,
                    at,
                    &format!("preempt:{}", cause.name()),
                    format!("\"victim\":\"{}\"{by}", esc(&tasks.get(victim).name)),
                );
            }
            TraceEvent::Migrate { at, tid, from, to } => {
                self.instant(
                    to,
                    at,
                    &format!("migrate {}", esc(&tasks.get(tid).name)),
                    format!("\"from\":{},\"to\":{}", from.0, to.0),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace analyses
// ---------------------------------------------------------------------

/// A preemption-cause tally row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CauseCount {
    /// [`sched_api::PreemptCause::name`].
    pub cause: String,
    /// Preemptions with that cause.
    pub count: u64,
}

/// A (preemptor, victim) attribution row. Task names are collapsed to
/// their "comm" (trailing `-N` / digit suffixes stripped) so the 80
/// sysbench workers aggregate into one row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PreemptPair {
    /// Who triggered the preemption (`"tick"` for tick-driven ones).
    pub by: String,
    /// Who lost the CPU.
    pub victim: String,
    /// How often.
    pub count: u64,
}

/// Migrations observed in one one-second bucket.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MigrationSlot {
    /// Bucket start (seconds of simulated time).
    pub t_s: f64,
    /// Migrations whose dispatch landed in the bucket.
    pub count: u64,
}

/// Aggregated trace-derived analysis of one run (serialized into the
/// `battle run --trace --json` report).
#[derive(Debug, Clone, serde::Serialize)]
pub struct TraceAnalysis {
    /// Wakeup events seen.
    pub wakeups: u64,
    /// Preemptions by cause.
    pub preemptions: Vec<CauseCount>,
    /// Preemption attribution, heaviest pairs first (top 12).
    pub preempt_pairs: Vec<PreemptPair>,
    /// Migration (cross-CPU dispatch) events seen.
    pub migrations: u64,
    /// Per-second migration timeline (Figure 6's rebalancing pulse).
    pub migration_timeline: Vec<MigrationSlot>,
    /// Migration arrivals per destination core.
    pub migration_arrivals_per_core: Vec<u64>,
}

/// Streaming aggregator producing a [`TraceAnalysis`].
#[derive(Debug, Default)]
pub struct Analyzer {
    wakeups: u64,
    by_cause: BTreeMap<&'static str, u64>,
    pairs: BTreeMap<(String, String), u64>,
    migrations: u64,
    slots: BTreeMap<u64, u64>,
    per_core: BTreeMap<u32, u64>,
}

/// Collapse a task name to its application "comm": `ab-17` → `ab`,
/// `worker3` → `worker`.
fn comm(name: &str) -> String {
    let s = name
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('-');
    if s.is_empty() { name } else { s }.to_string()
}

impl Analyzer {
    /// Observe one event.
    pub fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        match *ev {
            TraceEvent::Wakeup { .. } => self.wakeups += 1,
            TraceEvent::Preempt {
                victim, by, cause, ..
            } => {
                *self.by_cause.entry(cause.name()).or_insert(0) += 1;
                let by = match by {
                    Some(b) => comm(&tasks.get(b).name),
                    None => "tick".to_string(),
                };
                *self
                    .pairs
                    .entry((by, comm(&tasks.get(victim).name)))
                    .or_insert(0) += 1;
            }
            TraceEvent::Migrate { at, to, .. } => {
                self.migrations += 1;
                *self.slots.entry(at.as_nanos() / 1_000_000_000).or_insert(0) += 1;
                *self.per_core.entry(to.0).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Produce the serializable analysis.
    pub fn analysis(&self) -> TraceAnalysis {
        let mut pairs: Vec<PreemptPair> = self
            .pairs
            .iter()
            .map(|((by, victim), &count)| PreemptPair {
                by: by.clone(),
                victim: victim.clone(),
                count,
            })
            .collect();
        pairs.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.by.cmp(&b.by)));
        pairs.truncate(12);
        let ncore = self
            .per_core
            .keys()
            .max()
            .map(|&c| c as usize + 1)
            .unwrap_or(0);
        let mut arrivals = vec![0u64; ncore];
        for (&c, &n) in &self.per_core {
            arrivals[c as usize] = n;
        }
        TraceAnalysis {
            wakeups: self.wakeups,
            preemptions: self
                .by_cause
                .iter()
                .map(|(&cause, &count)| CauseCount {
                    cause: cause.to_string(),
                    count,
                })
                .collect(),
            preempt_pairs: pairs,
            migrations: self.migrations,
            migration_timeline: self
                .slots
                .iter()
                .map(|(&s, &count)| MigrationSlot {
                    t_s: s as f64,
                    count,
                })
                .collect(),
            migration_arrivals_per_core: arrivals,
        }
    }
}

/// [`TraceSink`] adapter fanning events out to the shared writer and
/// analyzer (the kernel owns the sink box; the caller keeps `Rc` clones).
struct ScopeSink<W: Write> {
    trace: Rc<RefCell<ChromeTrace<W>>>,
    analyzer: Rc<RefCell<Analyzer>>,
}

impl<W: Write> TraceSink for ScopeSink<W> {
    fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        self.trace.borrow_mut().event(ev, tasks);
        self.analyzer.borrow_mut().event(ev, tasks);
    }
}

/// One run's group in a shared [`ChromeTrace`]. Its [`Observer`] set-up
/// call opens the group on the fresh kernel and installs a [`ScopeSink`].
struct GroupTrace<W: Write> {
    trace: Rc<RefCell<ChromeTrace<W>>>,
    analyzer: Rc<RefCell<Analyzer>>,
    pid: u32,
    name: &'static str,
}

impl<W: Write + 'static> Observer for GroupTrace<W> {
    fn setup(&mut self, k: &mut Kernel) {
        self.trace
            .borrow_mut()
            .begin_group(self.pid, self.name, k.topology().nr_cpus());
        k.set_trace_sink(Box::new(ScopeSink {
            trace: Rc::clone(&self.trace),
            analyzer: Rc::clone(&self.analyzer),
        }));
    }
}

/// What one run's trace group recorded.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TraceReport {
    /// Scheduler of the run.
    pub sched: Sched,
    /// Task slices written, one per context switch.
    pub slices: u64,
    /// Trace-derived analyses.
    pub analysis: TraceAnalysis,
}

/// Run `sc` under `sched`, streaming every event into group `pid` of
/// `trace` (one Chrome-trace process per run, so several runs share a
/// timeline in Perfetto). The kernel comes back without its trace sink.
pub fn run_group<W: Write + 'static>(
    trace: &Rc<RefCell<ChromeTrace<W>>>,
    pid: u32,
    sc: &Scenario,
    sched: Sched,
    opts: &EngineOpts,
) -> Result<(RunOutput, TraceReport), EngineError> {
    let mut group = GroupTrace {
        trace: Rc::clone(trace),
        analyzer: Rc::default(),
        pid,
        name: sched.name(),
    };
    let slices_before = trace.borrow().slices();
    let mut out = scenario::run_observed(sc, sched, opts, &mut group)?;
    // Release the kernel's handle on the writer, then close open slices.
    out.kernel.take_trace_sink();
    trace.borrow_mut().end_group(out.kernel.now());
    let report = TraceReport {
        sched,
        slices: trace.borrow().slices() - slices_before,
        analysis: group.analyzer.borrow().analysis(),
    };
    Ok((out, report))
}

/// Render a traced run's analysis for the terminal, as lines indented
/// under `battle run`'s per-run line.
pub fn render(t: &TraceReport, run: &ScenarioRun) -> String {
    let name = t.sched.name();
    let causes: Vec<String> = t
        .analysis
        .preemptions
        .iter()
        .map(|c| format!("{} {}", c.cause, c.count))
        .collect();
    let mut s = format!(
        "  [{name}] trace: {} slices; preemptions by cause: {}\n",
        t.slices,
        if causes.is_empty() {
            "none".to_string()
        } else {
            causes.join(", ")
        }
    );
    // The paper's Fig. 5 apache discussion: "CFS preempts ab once per
    // request".
    let ops: u64 = run.apps.iter().map(|a| a.ops).sum();
    if ops > 0 {
        s.push_str(&format!(
            "  [{name}] wakeup preemptions per op: {:.2} over {ops} ops\n",
            run.counters.wakeup_preemptions as f64 / ops as f64
        ));
    }
    if !t.analysis.preempt_pairs.is_empty() {
        let pairs: Vec<String> = t
            .analysis
            .preempt_pairs
            .iter()
            .take(4)
            .map(|p| format!("{}→{} ×{}", p.by, p.victim, p.count))
            .collect();
        s.push_str(&format!(
            "  [{name}] heaviest preemptors: {}\n",
            pairs.join(", ")
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_strips_worker_suffixes() {
        assert_eq!(comm("ab-17"), "ab");
        assert_eq!(comm("worker3"), "worker");
        assert_eq!(comm("fibo"), "fibo");
        assert_eq!(comm("42"), "42", "all-digit names stay intact");
    }

    #[test]
    fn us_formats_fixed_point_micros() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_007), "1000.007");
    }

    #[test]
    fn esc_escapes_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }
}
