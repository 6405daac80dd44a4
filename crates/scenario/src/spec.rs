//! The typed scenario schema.
//!
//! A scenario file describes, declaratively, everything an experiment
//! needs before its analysis: which schedulers to run, the machine shape,
//! the workload phases and when they start, optional mid-run events
//! (unpinning), a fault plan, non-stock class parameters (the
//! `[params.<class>]` tables of [`crate::params`]), the run loop (horizon,
//! sampling step, stop rules) and the assertions that make the scenario a
//! regression test (digest pins, counter bounds, latency bounds, CFS↔ULE
//! relations).
//!
//! Parsing is strict: unknown keys are rejected with the full field path
//! (`phase[2].chunk_ms`), so typos fail loudly instead of silently running
//! a different experiment.

use kernel::FaultPlan;
use serde::Value;
use simcore::Dur;
use topology::Topology;

use crate::expr::{CountExpr, TimeExpr};
use crate::params::ClassParams;
use crate::Sched;

/// A schema error, pinned to a field path like `phase[0].count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted field path of the offending value.
    pub path: String,
    /// What went wrong.
    pub msg: String,
}

impl SpecError {
    /// Build an error at a field path.
    pub fn new(path: impl Into<String>, msg: impl Into<String>) -> SpecError {
        SpecError {
            path: path.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// A scenario file failed to parse: either the surface syntax (with a
/// line number) or the schema (with a field path).
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// TOML syntax error.
    Toml(crate::toml::TomlError),
    /// JSON syntax error (message from the vendored `serde_json`).
    Json(String),
    /// Schema error.
    Spec(SpecError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Toml(e) => write!(f, "{e}"),
            ParseError::Json(e) => write!(f, "{e}"),
            ParseError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<crate::toml::TomlError> for ParseError {
    fn from(e: crate::toml::TomlError) -> Self {
        ParseError::Toml(e)
    }
}

impl From<SpecError> for ParseError {
    fn from(e: SpecError) -> Self {
        ParseError::Spec(e)
    }
}

pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Reject any key of the object `v` not in `allowed`, reporting its path.
pub fn check_keys(v: &Value, path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    let Value::Object(fields) = v else {
        return Err(SpecError::new(path, "expected a table"));
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(SpecError::new(
                join(path, k),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

/// Optional float field (`Int`/`UInt` widen); wrong type is an error.
pub fn get_f64(v: &Value, path: &str, key: &str) -> Result<Option<f64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_f64()
            .map(Some)
            .ok_or_else(|| SpecError::new(join(path, key), "expected a number")),
    }
}

/// The longest duration a field may give: 2^62 ns, about 146 years. A
/// simulation never runs that long, and any sum of two such durations still
/// fits a `Time`.
pub const MAX_DURATION_NS: u64 = 1 << 62;

/// Nanoseconds per unit of a `*_ms` field.
const MS: f64 = 1e6;
/// Nanoseconds per unit of a `*_us` field.
const US: f64 = 1e3;

/// Optional duration field (a phase's `*_ms` or `*_us`, given its
/// nanoseconds per unit): a number that must be finite, not negative and
/// at most [`MAX_DURATION_NS`]. An endless, negative or huge work segment
/// would otherwise finish at once: `Dur::secs_f64` saturates a huge one,
/// `Time + Dur` then wraps in a release build, and a negative one trips
/// `Dur::secs_f64`'s debug assertion.
fn get_duration(
    v: &Value,
    path: &str,
    key: &str,
    ns_per_unit: f64,
) -> Result<Option<f64>, SpecError> {
    match get_f64(v, path, key)? {
        Some(d) if !(d.is_finite() && d >= 0.0 && d * ns_per_unit <= MAX_DURATION_NS as f64) => {
            Err(SpecError::new(
                join(path, key),
                "expected a finite, non-negative number of at most 2^62 ns (about 146 years)",
            ))
        }
        d => Ok(d),
    }
}

/// Optional non-negative integer field; wrong type is an error.
pub fn get_u64(v: &Value, path: &str, key: &str) -> Result<Option<u64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| SpecError::new(join(path, key), "expected a non-negative integer")),
    }
}

/// Optional signed integer field; wrong type is an error.
pub fn get_i64(v: &Value, path: &str, key: &str) -> Result<Option<i64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Int(n)) => Ok(Some(*n)),
        Some(Value::UInt(n)) if *n <= i64::MAX as u64 => Ok(Some(*n as i64)),
        Some(_) => Err(SpecError::new(join(path, key), "expected an integer")),
    }
}

/// Optional boolean field; wrong type is an error.
pub fn get_bool(v: &Value, path: &str, key: &str) -> Result<Option<bool>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(SpecError::new(join(path, key), "expected true or false")),
    }
}

/// Optional string field; wrong type is an error.
pub fn get_str(v: &Value, path: &str, key: &str) -> Result<Option<String>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| SpecError::new(join(path, key), "expected a string")),
    }
}

/// Required string field.
pub fn req_str(v: &Value, path: &str, key: &str) -> Result<String, SpecError> {
    get_str(v, path, key)?.ok_or_else(|| SpecError::new(join(path, key), "missing required field"))
}

/// Optional array field; wrong type is an error.
pub fn get_array<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a [Value], SpecError> {
    match v.get(key) {
        None => Ok(&[]),
        Some(f) => f
            .as_array()
            .ok_or_else(|| SpecError::new(join(path, key), "expected an array")),
    }
}

fn parse_sched(s: &str, path: &str) -> Result<Sched, SpecError> {
    Sched::parse_flag(s).ok_or_else(|| {
        let known: Vec<&str> = Sched::ALL.iter().map(|x| x.flag_name()).collect();
        SpecError::new(
            path,
            format!(
                "unknown scheduler `{s}` (expected one of {})",
                known.join(", ")
            ),
        )
    })
}

fn sched_str(s: Sched) -> &'static str {
    s.flag_name()
}

/// Which scheduler(s) an assertion applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSel {
    /// Both schedulers.
    Both,
    /// One specific scheduler.
    One(Sched),
}

impl SchedSel {
    /// Does this selector cover `sched`?
    pub fn covers(self, sched: Sched) -> bool {
        match self {
            SchedSel::Both => true,
            SchedSel::One(s) => s == sched,
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<SchedSel, SpecError> {
        match get_str(v, path, "sched")?.as_deref() {
            None | Some("both") => Ok(SchedSel::Both),
            Some(s) => Ok(SchedSel::One(parse_sched(s, &join(path, "sched"))?)),
        }
    }

    fn to_value(self) -> Option<(String, Value)> {
        match self {
            SchedSel::Both => None,
            SchedSel::One(s) => Some(("sched".to_string(), Value::Str(sched_str(s).into()))),
        }
    }
}

/// Machine shape: a named preset or an explicit regular hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpec {
    /// One of the paper machines (`single-core`, `opteron-6172`,
    /// `i7-3770`), a datacenter box (`numa-256`, `numa-512`), or
    /// `flat-N` for N symmetric cores.
    Preset(String),
    /// `Topology::regular` with explicit level widths.
    Regular {
        /// NUMA nodes.
        nodes: u32,
        /// Last-level caches per node.
        llcs_per_node: u32,
        /// Cores per LLC.
        cores_per_llc: u32,
        /// Hardware threads per core.
        smt_per_core: u32,
    },
}

impl TopoSpec {
    /// Instantiate the topology.
    pub fn build(&self) -> Topology {
        match self {
            TopoSpec::Preset(name) => match name.as_str() {
                "single-core" => Topology::single_core(),
                "opteron-6172" => Topology::opteron_6172(),
                "i7-3770" => Topology::core_i7_3770(),
                "numa-256" => Topology::numa_256(),
                "numa-512" => Topology::numa_512(),
                flat => {
                    let n: u32 = flat
                        .strip_prefix("flat-")
                        .and_then(|n| n.parse().ok())
                        .expect("preset validated at parse time");
                    Topology::flat(n)
                }
            },
            TopoSpec::Regular {
                nodes,
                llcs_per_node,
                cores_per_llc,
                smt_per_core,
            } => Topology::regular(
                "scenario",
                *nodes,
                *llcs_per_node,
                *cores_per_llc,
                *smt_per_core,
            ),
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<TopoSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "preset",
                "nodes",
                "llcs_per_node",
                "cores_per_llc",
                "smt_per_core",
            ],
        )?;
        if let Some(preset) = get_str(v, path, "preset")? {
            let known = matches!(
                preset.as_str(),
                "single-core" | "opteron-6172" | "i7-3770" | "numa-256" | "numa-512"
            ) || preset
                .strip_prefix("flat-")
                .and_then(|n| n.parse::<u32>().ok())
                .is_some_and(|n| n > 0);
            if !known {
                return Err(SpecError::new(
                    join(path, "preset"),
                    format!(
                        "unknown preset `{preset}` (expected single-core, opteron-6172, \
                         i7-3770, numa-256, numa-512 or flat-N)"
                    ),
                ));
            }
            return Ok(TopoSpec::Preset(preset));
        }
        let cores = get_u64(v, path, "cores_per_llc")?
            .ok_or_else(|| SpecError::new(path, "topology needs `preset` or `cores_per_llc`"))?;
        Ok(TopoSpec::Regular {
            nodes: get_u64(v, path, "nodes")?.unwrap_or(1) as u32,
            llcs_per_node: get_u64(v, path, "llcs_per_node")?.unwrap_or(1) as u32,
            cores_per_llc: cores as u32,
            smt_per_core: get_u64(v, path, "smt_per_core")?.unwrap_or(1) as u32,
        })
    }

    fn to_value(&self) -> Value {
        match self {
            TopoSpec::Preset(name) => {
                Value::Object(vec![("preset".to_string(), Value::Str(name.clone()))])
            }
            TopoSpec::Regular {
                nodes,
                llcs_per_node,
                cores_per_llc,
                smt_per_core,
            } => Value::Object(vec![
                ("nodes".to_string(), Value::UInt(*nodes as u64)),
                (
                    "llcs_per_node".to_string(),
                    Value::UInt(*llcs_per_node as u64),
                ),
                (
                    "cores_per_llc".to_string(),
                    Value::UInt(*cores_per_llc as u64),
                ),
                (
                    "smt_per_core".to_string(),
                    Value::UInt(*smt_per_core as u64),
                ),
            ]),
        }
    }
}

/// One thread of a `mutex-mix` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MutexThreadSpec {
    /// Thread name (shows up in traces).
    pub name: String,
    /// Nice level.
    pub nice: i64,
    /// Iterations of the lock/work/sleep loop.
    pub iters: CountExpr,
    /// Whether the thread takes the shared mutex each iteration.
    pub lock: bool,
    /// CPU time held inside the critical section, milliseconds.
    pub hold_ms: f64,
    /// CPU time outside the lock each iteration, milliseconds.
    pub work_ms: f64,
    /// Optional sleep after each iteration, milliseconds.
    pub sleep_ms: Option<f64>,
}

impl MutexThreadSpec {
    fn from_value(v: &Value, path: &str) -> Result<MutexThreadSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "name", "nice", "iters", "lock", "hold_ms", "work_ms", "sleep_ms",
            ],
        )?;
        let iters = v
            .get("iters")
            .ok_or_else(|| SpecError::new(join(path, "iters"), "missing required field"))?;
        Ok(MutexThreadSpec {
            name: req_str(v, path, "name")?,
            nice: get_i64(v, path, "nice")?.unwrap_or(0),
            iters: CountExpr::from_value(iters, &join(path, "iters"))?,
            lock: get_bool(v, path, "lock")?.unwrap_or(true),
            hold_ms: get_duration(v, path, "hold_ms", MS)?.unwrap_or(0.0),
            work_ms: get_duration(v, path, "work_ms", MS)?.unwrap_or(0.0),
            sleep_ms: get_duration(v, path, "sleep_ms", MS)?,
        })
    }

    fn to_value(&self) -> Value {
        let mut f = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("iters".to_string(), self.iters.to_value()),
        ];
        if self.nice != 0 {
            f.push(("nice".to_string(), Value::Int(self.nice)));
        }
        if !self.lock {
            f.push(("lock".to_string(), Value::Bool(false)));
        }
        if self.hold_ms != 0.0 {
            f.push(("hold_ms".to_string(), Value::Float(self.hold_ms)));
        }
        if self.work_ms != 0.0 {
            f.push(("work_ms".to_string(), Value::Float(self.work_ms)));
        }
        if let Some(s) = self.sleep_ms {
            f.push(("sleep_ms".to_string(), Value::Float(s)));
        }
        Value::Object(f)
    }
}

/// What a phase launches, selected by the `kind` key.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Pinned spinners (the fig6 workload): `count` daemon threads
    /// spinning in `chunk_ms` slices, all pinned to `pin`.
    Spinners {
        /// Number of spinner threads.
        count: CountExpr,
        /// CPUs the spinners start pinned to.
        pin: Vec<u32>,
        /// Spin chunk, milliseconds.
        chunk_ms: f64,
        /// Run as a daemon app (does not count towards `all_apps_done`).
        daemon: bool,
    },
    /// The single-threaded fibonacci CPU hog (fig1).
    Fibo {
        /// Total CPU time to burn.
        work: TimeExpr,
    },
    /// A set of independent CPU hogs.
    CpuHogs {
        /// Number of threads.
        count: CountExpr,
        /// CPU time each thread burns.
        work: TimeExpr,
        /// Hog chunk, milliseconds.
        chunk_ms: f64,
        /// Nice level for all threads.
        nice: i64,
        /// Optional pin set for all threads.
        pin: Option<Vec<u32>>,
    },
    /// The sysbench OLTP model (fig1): threads transacting against a
    /// shared lock table.
    Sysbench {
        /// Client threads.
        threads: CountExpr,
        /// Total transactions across all threads.
        total_tx: CountExpr,
        /// Master CPU time burned per worker spawned, milliseconds.
        init_ms: f64,
    },
    /// The c-ray fork/join render (fig7).
    Cray {
        /// Render threads.
        threads: CountExpr,
        /// Per-thread CPU time.
        work: TimeExpr,
    },
    /// hackbench-style sender/receiver message groups.
    Hackbench {
        /// Groups of 20 senders + 20 receivers.
        groups: CountExpr,
        /// Messages per sender.
        msgs: CountExpr,
    },
    /// One workload of the application catalog, by name.
    Suite {
        /// A name `workloads::entry` resolves: a Figure 5 or Figure 8 suite
        /// entry, `fibo` or the `kworkers` noise daemon.
        entry: String,
    },
    /// Barrier-synchronised fork/join rounds.
    ForkJoin {
        /// Worker threads.
        workers: CountExpr,
        /// Barrier rounds.
        rounds: CountExpr,
        /// CPU time per worker per round, milliseconds.
        work_ms: f64,
    },
    /// Client–server request/reply pairs over bounded queues.
    ClientServer {
        /// Client threads.
        clients: CountExpr,
        /// Server threads.
        servers: CountExpr,
        /// Request rounds per client.
        rounds: CountExpr,
        /// Requests sent back-to-back per round.
        burst: u64,
        /// Server CPU time per request, microseconds.
        service_us: f64,
        /// Client think time between rounds, milliseconds.
        think_ms: f64,
    },
    /// Thundering-herd wakeups: a waker posts a semaphore `waiters`
    /// times per round, all waiters dispatch at once.
    Herd {
        /// Waiter threads.
        waiters: CountExpr,
        /// Herd rounds.
        rounds: CountExpr,
        /// CPU time per waiter per round, microseconds.
        work_us: f64,
        /// Waker pause between rounds, milliseconds.
        pause_ms: f64,
    },
    /// Threads contending on one mutex with per-thread nice/hold/sleep
    /// mixes (priority-inversion and mixed-nice scenarios).
    MutexMix {
        /// The contending threads.
        threads: Vec<MutexThreadSpec>,
    },
}

fn pin_list(v: &Value, path: &str, key: &str) -> Result<Option<Vec<u32>>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => {
            let items = get_array(v, path, key)?;
            if items.is_empty() {
                return Err(SpecError::new(
                    join(path, key),
                    "empty pin set: `pin = []` leaves the thread with no placeable \
                     CPU (omit the key to run unpinned)",
                ));
            }
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                out.push(item.as_u64().map(|n| n as u32).ok_or_else(|| {
                    SpecError::new(format!("{}[{i}]", join(path, key)), "expected a CPU index")
                })?);
            }
            Ok(Some(out))
        }
    }
}

fn pin_value(pins: &[u32]) -> Value {
    Value::Array(pins.iter().map(|&p| Value::UInt(p as u64)).collect())
}

fn req_count(v: &Value, path: &str, key: &str) -> Result<CountExpr, SpecError> {
    let field = v
        .get(key)
        .ok_or_else(|| SpecError::new(join(path, key), "missing required field"))?;
    CountExpr::from_value(field, &join(path, key))
}

fn req_time(v: &Value, path: &str, key: &str) -> Result<TimeExpr, SpecError> {
    let field = v
        .get(key)
        .ok_or_else(|| SpecError::new(join(path, key), "missing required field"))?;
    TimeExpr::from_value(field, &join(path, key))
}

const PHASE_BASE_KEYS: [&str; 4] = ["name", "kind", "at", "tenant"];

/// Default of the `sysbench` kind's `init_ms`: `SysbenchCfg`'s 32 ms.
const SYSBENCH_INIT_MS: f64 = 32.0;

impl WorkloadSpec {
    /// The `kind` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Spinners { .. } => "spinners",
            WorkloadSpec::Fibo { .. } => "fibo",
            WorkloadSpec::CpuHogs { .. } => "cpu-hogs",
            WorkloadSpec::Sysbench { .. } => "sysbench",
            WorkloadSpec::Cray { .. } => "cray",
            WorkloadSpec::Hackbench { .. } => "hackbench",
            WorkloadSpec::Suite { .. } => "suite",
            WorkloadSpec::ForkJoin { .. } => "fork-join",
            WorkloadSpec::ClientServer { .. } => "client-server",
            WorkloadSpec::Herd { .. } => "herd",
            WorkloadSpec::MutexMix { .. } => "mutex-mix",
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<WorkloadSpec, SpecError> {
        let kind = req_str(v, path, "kind")?;
        fn keys<'a>(extra: &[&'a str]) -> Vec<&'a str> {
            let mut all: Vec<&str> = PHASE_BASE_KEYS.to_vec();
            all.extend_from_slice(extra);
            all
        }
        match kind.as_str() {
            "spinners" => {
                check_keys(v, path, &keys(&["count", "pin", "chunk_ms", "daemon"]))?;
                Ok(WorkloadSpec::Spinners {
                    count: req_count(v, path, "count")?,
                    pin: pin_list(v, path, "pin")?.unwrap_or_else(|| vec![0]),
                    chunk_ms: get_duration(v, path, "chunk_ms", MS)?.unwrap_or(4.0),
                    daemon: get_bool(v, path, "daemon")?.unwrap_or(true),
                })
            }
            "fibo" => {
                check_keys(v, path, &keys(&["work"]))?;
                Ok(WorkloadSpec::Fibo {
                    work: req_time(v, path, "work")?,
                })
            }
            "cpu-hogs" => {
                check_keys(
                    v,
                    path,
                    &keys(&["count", "work", "chunk_ms", "nice", "pin"]),
                )?;
                Ok(WorkloadSpec::CpuHogs {
                    count: req_count(v, path, "count")?,
                    work: req_time(v, path, "work")?,
                    chunk_ms: get_duration(v, path, "chunk_ms", MS)?.unwrap_or(5.0),
                    nice: get_i64(v, path, "nice")?.unwrap_or(0),
                    pin: pin_list(v, path, "pin")?,
                })
            }
            "sysbench" => {
                check_keys(v, path, &keys(&["threads", "total_tx", "init_ms"]))?;
                Ok(WorkloadSpec::Sysbench {
                    threads: req_count(v, path, "threads")?,
                    total_tx: req_count(v, path, "total_tx")?,
                    init_ms: get_duration(v, path, "init_ms", MS)?.unwrap_or(SYSBENCH_INIT_MS),
                })
            }
            "cray" => {
                check_keys(v, path, &keys(&["threads", "work"]))?;
                Ok(WorkloadSpec::Cray {
                    threads: req_count(v, path, "threads")?,
                    work: req_time(v, path, "work")?,
                })
            }
            "hackbench" => {
                check_keys(v, path, &keys(&["groups", "msgs"]))?;
                Ok(WorkloadSpec::Hackbench {
                    groups: req_count(v, path, "groups")?,
                    msgs: match v.get("msgs") {
                        Some(m) => CountExpr::from_value(m, &join(path, "msgs"))?,
                        None => CountExpr::fixed(120),
                    },
                })
            }
            "suite" => {
                check_keys(v, path, &keys(&["entry"]))?;
                Ok(WorkloadSpec::Suite {
                    entry: req_str(v, path, "entry")?,
                })
            }
            "fork-join" => {
                check_keys(v, path, &keys(&["workers", "rounds", "work_ms"]))?;
                Ok(WorkloadSpec::ForkJoin {
                    workers: req_count(v, path, "workers")?,
                    rounds: req_count(v, path, "rounds")?,
                    work_ms: get_duration(v, path, "work_ms", MS)?.unwrap_or(1.0),
                })
            }
            "client-server" => {
                check_keys(
                    v,
                    path,
                    &keys(&[
                        "clients",
                        "servers",
                        "rounds",
                        "burst",
                        "service_us",
                        "think_ms",
                    ]),
                )?;
                Ok(WorkloadSpec::ClientServer {
                    clients: req_count(v, path, "clients")?,
                    servers: req_count(v, path, "servers")?,
                    rounds: req_count(v, path, "rounds")?,
                    burst: get_u64(v, path, "burst")?.unwrap_or(1).max(1),
                    service_us: get_duration(v, path, "service_us", US)?.unwrap_or(100.0),
                    think_ms: get_duration(v, path, "think_ms", MS)?.unwrap_or(0.0),
                })
            }
            "herd" => {
                check_keys(
                    v,
                    path,
                    &keys(&["waiters", "rounds", "work_us", "pause_ms"]),
                )?;
                Ok(WorkloadSpec::Herd {
                    waiters: req_count(v, path, "waiters")?,
                    rounds: req_count(v, path, "rounds")?,
                    work_us: get_duration(v, path, "work_us", US)?.unwrap_or(500.0),
                    pause_ms: get_duration(v, path, "pause_ms", MS)?.unwrap_or(10.0),
                })
            }
            "mutex-mix" => {
                check_keys(v, path, &keys(&["threads"]))?;
                let items = get_array(v, path, "threads")?;
                if items.is_empty() {
                    return Err(SpecError::new(
                        join(path, "threads"),
                        "mutex-mix needs at least one thread",
                    ));
                }
                let mut threads = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    threads.push(MutexThreadSpec::from_value(
                        item,
                        &format!("{}[{i}]", join(path, "threads")),
                    )?);
                }
                Ok(WorkloadSpec::MutexMix { threads })
            }
            other => Err(SpecError::new(
                join(path, "kind"),
                format!(
                    "unknown workload kind `{other}` (expected spinners, fibo, cpu-hogs, \
                     sysbench, cray, hackbench, suite, fork-join, client-server, herd \
                     or mutex-mix)"
                ),
            )),
        }
    }

    fn extend_value(&self, f: &mut Vec<(String, Value)>) {
        f.push(("kind".to_string(), Value::Str(self.kind().into())));
        match self {
            WorkloadSpec::Spinners {
                count,
                pin,
                chunk_ms,
                daemon,
            } => {
                f.push(("count".to_string(), count.to_value()));
                if pin.as_slice() != [0] {
                    f.push(("pin".to_string(), pin_value(pin)));
                }
                if *chunk_ms != 4.0 {
                    f.push(("chunk_ms".to_string(), Value::Float(*chunk_ms)));
                }
                if !daemon {
                    f.push(("daemon".to_string(), Value::Bool(false)));
                }
            }
            WorkloadSpec::Fibo { work } => {
                f.push(("work".to_string(), work.to_value()));
            }
            WorkloadSpec::CpuHogs {
                count,
                work,
                chunk_ms,
                nice,
                pin,
            } => {
                f.push(("count".to_string(), count.to_value()));
                f.push(("work".to_string(), work.to_value()));
                if *chunk_ms != 5.0 {
                    f.push(("chunk_ms".to_string(), Value::Float(*chunk_ms)));
                }
                if *nice != 0 {
                    f.push(("nice".to_string(), Value::Int(*nice)));
                }
                if let Some(p) = pin {
                    f.push(("pin".to_string(), pin_value(p)));
                }
            }
            WorkloadSpec::Sysbench {
                threads,
                total_tx,
                init_ms,
            } => {
                f.push(("threads".to_string(), threads.to_value()));
                f.push(("total_tx".to_string(), total_tx.to_value()));
                if *init_ms != SYSBENCH_INIT_MS {
                    f.push(("init_ms".to_string(), Value::Float(*init_ms)));
                }
            }
            WorkloadSpec::Cray { threads, work } => {
                f.push(("threads".to_string(), threads.to_value()));
                f.push(("work".to_string(), work.to_value()));
            }
            WorkloadSpec::Hackbench { groups, msgs } => {
                f.push(("groups".to_string(), groups.to_value()));
                if *msgs != CountExpr::fixed(120) {
                    f.push(("msgs".to_string(), msgs.to_value()));
                }
            }
            WorkloadSpec::Suite { entry } => {
                f.push(("entry".to_string(), Value::Str(entry.clone())));
            }
            WorkloadSpec::ForkJoin {
                workers,
                rounds,
                work_ms,
            } => {
                f.push(("workers".to_string(), workers.to_value()));
                f.push(("rounds".to_string(), rounds.to_value()));
                if *work_ms != 1.0 {
                    f.push(("work_ms".to_string(), Value::Float(*work_ms)));
                }
            }
            WorkloadSpec::ClientServer {
                clients,
                servers,
                rounds,
                burst,
                service_us,
                think_ms,
            } => {
                f.push(("clients".to_string(), clients.to_value()));
                f.push(("servers".to_string(), servers.to_value()));
                f.push(("rounds".to_string(), rounds.to_value()));
                if *burst != 1 {
                    f.push(("burst".to_string(), Value::UInt(*burst)));
                }
                if *service_us != 100.0 {
                    f.push(("service_us".to_string(), Value::Float(*service_us)));
                }
                if *think_ms != 0.0 {
                    f.push(("think_ms".to_string(), Value::Float(*think_ms)));
                }
            }
            WorkloadSpec::Herd {
                waiters,
                rounds,
                work_us,
                pause_ms,
            } => {
                f.push(("waiters".to_string(), waiters.to_value()));
                f.push(("rounds".to_string(), rounds.to_value()));
                if *work_us != 500.0 {
                    f.push(("work_us".to_string(), Value::Float(*work_us)));
                }
                if *pause_ms != 10.0 {
                    f.push(("pause_ms".to_string(), Value::Float(*pause_ms)));
                }
            }
            WorkloadSpec::MutexMix { threads } => {
                f.push((
                    "threads".to_string(),
                    Value::Array(threads.iter().map(|t| t.to_value()).collect()),
                ));
            }
        }
    }
}

/// One workload phase: an app queued at a (scaled) start time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name; becomes the app name (referenced by `[[event]]`).
    pub name: String,
    /// Tenant label for multi-tenant interference scenarios. Phases
    /// sharing a label aggregate into one per-tenant run-delay summary
    /// that `[[assert.tenant]]` / `[[assert.tenant_relation]]` reference.
    pub tenant: Option<String>,
    /// Start time offset from the beginning of the run.
    pub at: TimeExpr,
    /// What the phase launches.
    pub workload: WorkloadSpec,
}

impl PhaseSpec {
    fn from_value(v: &Value, path: &str) -> Result<PhaseSpec, SpecError> {
        let workload = WorkloadSpec::from_value(v, path)?;
        Ok(PhaseSpec {
            name: get_str(v, path, "name")?.unwrap_or_else(|| workload.kind().to_string()),
            tenant: get_str(v, path, "tenant")?,
            at: match v.get("at") {
                Some(at) => TimeExpr::from_value(at, &join(path, "at"))?,
                None => TimeExpr::fixed(0.0),
            },
            workload,
        })
    }

    fn to_value(&self) -> Value {
        let mut f = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if let Some(t) = &self.tenant {
            f.push(("tenant".to_string(), Value::Str(t.clone())));
        }
        if self.at != TimeExpr::fixed(0.0) {
            f.push(("at".to_string(), self.at.to_value()));
        }
        self.workload.extend_value(&mut f);
        Value::Object(f)
    }
}

/// A mid-run event. Only `unpin` exists today: clear the affinity masks of
/// every task of a phase's app at a given time (the fig6 release).
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Name of the phase whose app is unpinned.
    pub phase: String,
    /// When the unpin fires.
    pub at: TimeExpr,
}

impl EventSpec {
    fn from_value(v: &Value, path: &str) -> Result<EventSpec, SpecError> {
        check_keys(v, path, &["kind", "phase", "at"])?;
        let kind = req_str(v, path, "kind")?;
        if kind != "unpin" {
            return Err(SpecError::new(
                join(path, "kind"),
                format!("unknown event kind `{kind}` (expected `unpin`)"),
            ));
        }
        Ok(EventSpec {
            phase: req_str(v, path, "phase")?,
            at: req_time(v, path, "at")?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), Value::Str("unpin".into())),
            ("phase".to_string(), Value::Str(self.phase.clone())),
            ("at".to_string(), self.at.to_value()),
        ])
    }
}

/// Fault-injection plan (maps onto [`kernel::FaultPlan`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Spuriously wake a random sleeper with this period, milliseconds.
    pub spurious_wake_ms: Option<f64>,
    /// Uniform random tick-rearm jitter, microseconds.
    pub tick_jitter_us: f64,
    /// Percentage of ticks skipped entirely.
    pub missed_tick_pct: u64,
    /// Offline a random CPU with this period, seconds.
    pub hotplug_period_s: Option<f64>,
    /// How long an offlined CPU stays down, milliseconds.
    pub hotplug_down_ms: f64,
}

impl FaultSpec {
    /// Lower into the kernel's fault plan.
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            spurious_wake_period: self.spurious_wake_ms.map(|ms| Dur::secs_f64(ms / 1000.0)),
            tick_jitter: Dur::micros(self.tick_jitter_us.round() as u64),
            missed_tick_pct: self.missed_tick_pct.min(100) as u8,
            hotplug_period: self.hotplug_period_s.map(Dur::secs_f64),
            hotplug_down: Dur::secs_f64(
                (if self.hotplug_down_ms > 0.0 {
                    self.hotplug_down_ms
                } else {
                    100.0
                }) / 1000.0,
            ),
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<FaultSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "spurious_wake_ms",
                "tick_jitter_us",
                "missed_tick_pct",
                "hotplug_period_s",
                "hotplug_down_ms",
            ],
        )?;
        let pct = get_u64(v, path, "missed_tick_pct")?.unwrap_or(0);
        if pct > 100 {
            return Err(SpecError::new(
                join(path, "missed_tick_pct"),
                "must be 0–100",
            ));
        }
        Ok(FaultSpec {
            spurious_wake_ms: get_f64(v, path, "spurious_wake_ms")?,
            tick_jitter_us: get_f64(v, path, "tick_jitter_us")?.unwrap_or(0.0),
            missed_tick_pct: pct,
            hotplug_period_s: get_f64(v, path, "hotplug_period_s")?,
            hotplug_down_ms: get_f64(v, path, "hotplug_down_ms")?.unwrap_or(100.0),
        })
    }

    fn to_value(&self) -> Value {
        let mut f = Vec::new();
        if let Some(ms) = self.spurious_wake_ms {
            f.push(("spurious_wake_ms".to_string(), Value::Float(ms)));
        }
        if self.tick_jitter_us != 0.0 {
            f.push((
                "tick_jitter_us".to_string(),
                Value::Float(self.tick_jitter_us),
            ));
        }
        if self.missed_tick_pct != 0 {
            f.push((
                "missed_tick_pct".to_string(),
                Value::UInt(self.missed_tick_pct),
            ));
        }
        if let Some(s) = self.hotplug_period_s {
            f.push(("hotplug_period_s".to_string(), Value::Float(s)));
        }
        if self.hotplug_down_ms != 100.0 {
            f.push((
                "hotplug_down_ms".to_string(),
                Value::Float(self.hotplug_down_ms),
            ));
        }
        Value::Object(f)
    }

    fn is_default(&self) -> bool {
        *self == FaultSpec::default()
    }
}

/// The run loop: horizon, sampling step and stop rules.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Simulated-time horizon for both schedulers.
    pub horizon: TimeExpr,
    /// Per-scheduler horizon override (fig6's CFS cut-off).
    pub horizon_cfs: Option<TimeExpr>,
    /// Per-scheduler horizon override.
    pub horizon_ule: Option<TimeExpr>,
    /// Sampling step for the per-core load matrix.
    pub step: TimeExpr,
    /// Stop as soon as every non-daemon app finished (default true).
    pub until_apps_done: bool,
    /// Early-stop when the per-core load spread drops to this value…
    pub stop_spread_le: Option<u32>,
    /// …but only after this time (lets the imbalance build up first).
    pub stop_spread_after: Option<TimeExpr>,
}

impl RunSpec {
    fn from_value(v: &Value, path: &str) -> Result<RunSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "horizon",
                "horizon_cfs",
                "horizon_ule",
                "step",
                "until_apps_done",
                "stop_spread_le",
                "stop_spread_after",
            ],
        )?;
        let opt_time = |key: &str| -> Result<Option<TimeExpr>, SpecError> {
            match v.get(key) {
                Some(t) => Ok(Some(TimeExpr::from_value(t, &join(path, key))?)),
                None => Ok(None),
            }
        };
        Ok(RunSpec {
            horizon: req_time(v, path, "horizon")?,
            horizon_cfs: opt_time("horizon_cfs")?,
            horizon_ule: opt_time("horizon_ule")?,
            step: opt_time("step")?.unwrap_or_else(|| TimeExpr::fixed(0.1)),
            until_apps_done: get_bool(v, path, "until_apps_done")?.unwrap_or(true),
            stop_spread_le: get_u64(v, path, "stop_spread_le")?.map(|n| n as u32),
            stop_spread_after: opt_time("stop_spread_after")?,
        })
    }

    fn to_value(&self) -> Value {
        let mut f = vec![("horizon".to_string(), self.horizon.to_value())];
        if let Some(h) = &self.horizon_cfs {
            f.push(("horizon_cfs".to_string(), h.to_value()));
        }
        if let Some(h) = &self.horizon_ule {
            f.push(("horizon_ule".to_string(), h.to_value()));
        }
        if self.step != TimeExpr::fixed(0.1) {
            f.push(("step".to_string(), self.step.to_value()));
        }
        if !self.until_apps_done {
            f.push(("until_apps_done".to_string(), Value::Bool(false)));
        }
        if let Some(th) = self.stop_spread_le {
            f.push(("stop_spread_le".to_string(), Value::UInt(th as u64)));
        }
        if let Some(t) = &self.stop_spread_after {
            f.push(("stop_spread_after".to_string(), t.to_value()));
        }
        Value::Object(f)
    }
}

/// Counter names a [`CounterBound`] may reference.
pub const COUNTER_NAMES: [&str; 11] = [
    "ctx_switches",
    "preemptions",
    "wakeup_preemptions",
    "tick_preemptions",
    "wakeups",
    "migrations",
    "placement_scans",
    "spawns",
    "events",
    "spurious_wakes",
    "hotplug_events",
];

/// Latency-metric names a [`LatencyBound`] or [`RelationBound`] may use.
pub const METRIC_NAMES: [&str; 9] = [
    "run_delay_mean_ms",
    "run_delay_p50_ms",
    "run_delay_p99_ms",
    "run_delay_max_ms",
    "wakeup_mean_ms",
    "wakeup_p50_ms",
    "wakeup_p99_ms",
    "wakeup_max_ms",
    "max_runnable_wait_ms",
];

/// Metric names a [`TenantBound`] or [`TenantRelation`] may use: the
/// per-tenant dispatch-delay (run-delay) summary fields.
pub const TENANT_METRIC_NAMES: [&str; 4] = [
    "run_delay_mean_ms",
    "run_delay_p50_ms",
    "run_delay_p99_ms",
    "run_delay_max_ms",
];

/// Bound on a kernel activity counter at end of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBound {
    /// Counter name (one of [`COUNTER_NAMES`]).
    pub counter: String,
    /// Which scheduler(s) the bound applies to.
    pub sched: SchedSel,
    /// Inclusive lower bound.
    pub min: Option<u64>,
    /// Inclusive upper bound.
    pub max: Option<u64>,
}

/// Bound on a latency metric at end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBound {
    /// Metric name (one of [`METRIC_NAMES`]).
    pub metric: String,
    /// Which scheduler(s) the bound applies to.
    pub sched: SchedSel,
    /// Inclusive lower bound, milliseconds.
    pub min_ms: Option<f64>,
    /// Inclusive upper bound, milliseconds.
    pub max_ms: Option<f64>,
}

/// Cross-scheduler relation: `left <cmp> factor * right` on a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationBound {
    /// Metric name (one of [`METRIC_NAMES`]).
    pub metric: String,
    /// Left-hand scheduler.
    pub left: Sched,
    /// Right-hand scheduler.
    pub right: Sched,
    /// Comparison: `le`, `lt`, `ge` or `gt`.
    pub cmp: String,
    /// Multiplier applied to the right-hand side.
    pub factor: f64,
}

/// Bound on one tenant's run-delay metric at end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBound {
    /// Tenant label (must appear on at least one phase).
    pub tenant: String,
    /// Metric name (one of [`TENANT_METRIC_NAMES`]).
    pub metric: String,
    /// Which scheduler(s) the bound applies to.
    pub sched: SchedSel,
    /// Inclusive lower bound, milliseconds.
    pub min_ms: Option<f64>,
    /// Inclusive upper bound, milliseconds.
    pub max_ms: Option<f64>,
}

/// Cross-tenant relation under one scheduler selection:
/// `left <cmp> factor * right` on a per-tenant run-delay metric. This is
/// how a scenario states an isolation claim ("the OLTP tenant's p99
/// dispatch delay stays within 4x the OLAP tenant's") in the scenario
/// language itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRelation {
    /// Metric name (one of [`TENANT_METRIC_NAMES`]).
    pub metric: String,
    /// Left-hand tenant label.
    pub left: String,
    /// Right-hand tenant label.
    pub right: String,
    /// Comparison: `le`, `lt`, `ge` or `gt`.
    pub cmp: String,
    /// Multiplier applied to the right-hand side.
    pub factor: f64,
    /// Which scheduler(s) the relation applies to.
    pub sched: SchedSel,
}

/// A pinned decision digest for one scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestPin {
    /// Scheduler the pin applies to.
    pub sched: Sched,
    /// Expected digest, 16 lowercase hex digits.
    pub value: u64,
}

/// End-of-run assertions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AssertSpec {
    /// Require `all_apps_done` to equal this at end of run.
    pub all_apps_done: Option<bool>,
    /// Counter bounds.
    pub counter: Vec<CounterBound>,
    /// Latency bounds.
    pub latency: Vec<LatencyBound>,
    /// Cross-scheduler relations.
    pub relation: Vec<RelationBound>,
    /// Per-tenant latency bounds.
    pub tenant: Vec<TenantBound>,
    /// Cross-tenant relations.
    pub tenant_relation: Vec<TenantRelation>,
    /// Digest pins.
    pub digest: Vec<DigestPin>,
}

fn check_name(name: &str, allowed: &[&str], path: &str) -> Result<(), SpecError> {
    if allowed.contains(&name) {
        Ok(())
    } else {
        Err(SpecError::new(
            path,
            format!(
                "unknown name `{name}` (expected one of: {})",
                allowed.join(", ")
            ),
        ))
    }
}

impl AssertSpec {
    fn from_value(v: &Value, path: &str) -> Result<AssertSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "all_apps_done",
                "counter",
                "latency",
                "relation",
                "tenant",
                "tenant_relation",
                "digest",
            ],
        )?;
        let mut spec = AssertSpec {
            all_apps_done: get_bool(v, path, "all_apps_done")?,
            ..AssertSpec::default()
        };
        for (i, b) in get_array(v, path, "counter")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "counter"));
            check_keys(b, &p, &["counter", "sched", "min", "max"])?;
            let counter = req_str(b, &p, "counter")?;
            check_name(&counter, &COUNTER_NAMES, &join(&p, "counter"))?;
            spec.counter.push(CounterBound {
                counter,
                sched: SchedSel::from_value(b, &p)?,
                min: get_u64(b, &p, "min")?,
                max: get_u64(b, &p, "max")?,
            });
        }
        for (i, b) in get_array(v, path, "latency")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "latency"));
            check_keys(b, &p, &["metric", "sched", "min_ms", "max_ms"])?;
            let metric = req_str(b, &p, "metric")?;
            check_name(&metric, &METRIC_NAMES, &join(&p, "metric"))?;
            spec.latency.push(LatencyBound {
                metric,
                sched: SchedSel::from_value(b, &p)?,
                min_ms: get_f64(b, &p, "min_ms")?,
                max_ms: get_f64(b, &p, "max_ms")?,
            });
        }
        for (i, b) in get_array(v, path, "relation")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "relation"));
            check_keys(b, &p, &["metric", "left", "right", "cmp", "factor"])?;
            let metric = req_str(b, &p, "metric")?;
            check_name(&metric, &METRIC_NAMES, &join(&p, "metric"))?;
            let cmp = req_str(b, &p, "cmp")?;
            if !matches!(cmp.as_str(), "le" | "lt" | "ge" | "gt") {
                return Err(SpecError::new(
                    join(&p, "cmp"),
                    format!("unknown comparison `{cmp}` (expected le, lt, ge or gt)"),
                ));
            }
            spec.relation.push(RelationBound {
                metric,
                left: parse_sched(&req_str(b, &p, "left")?, &join(&p, "left"))?,
                right: parse_sched(&req_str(b, &p, "right")?, &join(&p, "right"))?,
                cmp,
                factor: get_f64(b, &p, "factor")?.unwrap_or(1.0),
            });
        }
        for (i, b) in get_array(v, path, "tenant")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "tenant"));
            check_keys(b, &p, &["tenant", "metric", "sched", "min_ms", "max_ms"])?;
            let metric = req_str(b, &p, "metric")?;
            check_name(&metric, &TENANT_METRIC_NAMES, &join(&p, "metric"))?;
            spec.tenant.push(TenantBound {
                tenant: req_str(b, &p, "tenant")?,
                metric,
                sched: SchedSel::from_value(b, &p)?,
                min_ms: get_f64(b, &p, "min_ms")?,
                max_ms: get_f64(b, &p, "max_ms")?,
            });
        }
        for (i, b) in get_array(v, path, "tenant_relation")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "tenant_relation"));
            check_keys(
                b,
                &p,
                &["metric", "left", "right", "cmp", "factor", "sched"],
            )?;
            let metric = req_str(b, &p, "metric")?;
            check_name(&metric, &TENANT_METRIC_NAMES, &join(&p, "metric"))?;
            let cmp = req_str(b, &p, "cmp")?;
            if !matches!(cmp.as_str(), "le" | "lt" | "ge" | "gt") {
                return Err(SpecError::new(
                    join(&p, "cmp"),
                    format!("unknown comparison `{cmp}` (expected le, lt, ge or gt)"),
                ));
            }
            spec.tenant_relation.push(TenantRelation {
                metric,
                left: req_str(b, &p, "left")?,
                right: req_str(b, &p, "right")?,
                cmp,
                factor: get_f64(b, &p, "factor")?.unwrap_or(1.0),
                sched: SchedSel::from_value(b, &p)?,
            });
        }
        for (i, b) in get_array(v, path, "digest")?.iter().enumerate() {
            let p = format!("{}[{i}]", join(path, "digest"));
            check_keys(b, &p, &["sched", "value"])?;
            let hex = req_str(b, &p, "value")?;
            let value = u64::from_str_radix(&hex, 16).map_err(|_| {
                SpecError::new(
                    join(&p, "value"),
                    "expected a hex digest like `3f2a…` (≤16 digits)",
                )
            })?;
            spec.digest.push(DigestPin {
                sched: parse_sched(&req_str(b, &p, "sched")?, &join(&p, "sched"))?,
                value,
            });
        }
        Ok(spec)
    }

    fn to_value(&self) -> Value {
        let mut f = Vec::new();
        if let Some(b) = self.all_apps_done {
            f.push(("all_apps_done".to_string(), Value::Bool(b)));
        }
        if !self.counter.is_empty() {
            f.push((
                "counter".to_string(),
                Value::Array(
                    self.counter
                        .iter()
                        .map(|b| {
                            let mut cf =
                                vec![("counter".to_string(), Value::Str(b.counter.clone()))];
                            cf.extend(b.sched.to_value());
                            if let Some(n) = b.min {
                                cf.push(("min".to_string(), Value::UInt(n)));
                            }
                            if let Some(n) = b.max {
                                cf.push(("max".to_string(), Value::UInt(n)));
                            }
                            Value::Object(cf)
                        })
                        .collect(),
                ),
            ));
        }
        if !self.latency.is_empty() {
            f.push((
                "latency".to_string(),
                Value::Array(
                    self.latency
                        .iter()
                        .map(|b| {
                            let mut lf = vec![("metric".to_string(), Value::Str(b.metric.clone()))];
                            lf.extend(b.sched.to_value());
                            if let Some(x) = b.min_ms {
                                lf.push(("min_ms".to_string(), Value::Float(x)));
                            }
                            if let Some(x) = b.max_ms {
                                lf.push(("max_ms".to_string(), Value::Float(x)));
                            }
                            Value::Object(lf)
                        })
                        .collect(),
                ),
            ));
        }
        if !self.relation.is_empty() {
            f.push((
                "relation".to_string(),
                Value::Array(
                    self.relation
                        .iter()
                        .map(|b| {
                            let mut rf = vec![
                                ("metric".to_string(), Value::Str(b.metric.clone())),
                                ("left".to_string(), Value::Str(sched_str(b.left).into())),
                                ("right".to_string(), Value::Str(sched_str(b.right).into())),
                                ("cmp".to_string(), Value::Str(b.cmp.clone())),
                            ];
                            if b.factor != 1.0 {
                                rf.push(("factor".to_string(), Value::Float(b.factor)));
                            }
                            Value::Object(rf)
                        })
                        .collect(),
                ),
            ));
        }
        if !self.tenant.is_empty() {
            f.push((
                "tenant".to_string(),
                Value::Array(
                    self.tenant
                        .iter()
                        .map(|b| {
                            let mut tf = vec![
                                ("tenant".to_string(), Value::Str(b.tenant.clone())),
                                ("metric".to_string(), Value::Str(b.metric.clone())),
                            ];
                            tf.extend(b.sched.to_value());
                            if let Some(x) = b.min_ms {
                                tf.push(("min_ms".to_string(), Value::Float(x)));
                            }
                            if let Some(x) = b.max_ms {
                                tf.push(("max_ms".to_string(), Value::Float(x)));
                            }
                            Value::Object(tf)
                        })
                        .collect(),
                ),
            ));
        }
        if !self.tenant_relation.is_empty() {
            f.push((
                "tenant_relation".to_string(),
                Value::Array(
                    self.tenant_relation
                        .iter()
                        .map(|b| {
                            let mut rf = vec![
                                ("metric".to_string(), Value::Str(b.metric.clone())),
                                ("left".to_string(), Value::Str(b.left.clone())),
                                ("right".to_string(), Value::Str(b.right.clone())),
                                ("cmp".to_string(), Value::Str(b.cmp.clone())),
                            ];
                            if b.factor != 1.0 {
                                rf.push(("factor".to_string(), Value::Float(b.factor)));
                            }
                            rf.extend(b.sched.to_value());
                            Value::Object(rf)
                        })
                        .collect(),
                ),
            ));
        }
        if !self.digest.is_empty() {
            f.push((
                "digest".to_string(),
                Value::Array(
                    self.digest
                        .iter()
                        .map(|d| {
                            Value::Object(vec![
                                ("sched".to_string(), Value::Str(sched_str(d.sched).into())),
                                ("value".to_string(), Value::Str(format!("{:016x}", d.value))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Object(f)
    }

    fn is_default(&self) -> bool {
        *self == AssertSpec::default()
    }
}

/// SchedGuard supervision for a scenario run (the `[budget]` table).
///
/// Limits are absolute (they do **not** scale with `--scale`): a budget is
/// a guard rail on resource use, not part of the workload. A run that
/// exceeds one aborts with a salvaged partial result instead of wedging
/// the sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BudgetSpec {
    /// Maximum events processed.
    pub max_events: Option<u64>,
    /// Maximum simulated time, in seconds.
    pub max_sim_time_s: Option<f64>,
    /// Maximum live event-queue depth.
    pub max_queue_depth: Option<u64>,
    /// Maximum simultaneously live tasks.
    pub max_live_tasks: Option<u64>,
    /// Override the no-progress watchdog's stall threshold (consecutive
    /// events at one simulated instant).
    pub stall_events: Option<u64>,
    /// Override the ping-pong watchdog (no-progress migrations between
    /// one CPU pair).
    pub pingpong: Option<u64>,
}

impl BudgetSpec {
    fn from_value(v: &Value, path: &str) -> Result<BudgetSpec, SpecError> {
        check_keys(
            v,
            path,
            &[
                "max_events",
                "max_sim_time_s",
                "max_queue_depth",
                "max_live_tasks",
                "stall_events",
                "pingpong",
            ],
        )?;
        Ok(BudgetSpec {
            max_events: get_u64(v, path, "max_events")?,
            max_sim_time_s: get_f64(v, path, "max_sim_time_s")?,
            max_queue_depth: get_u64(v, path, "max_queue_depth")?,
            max_live_tasks: get_u64(v, path, "max_live_tasks")?,
            stall_events: get_u64(v, path, "stall_events")?,
            pingpong: get_u64(v, path, "pingpong")?,
        })
    }

    fn to_value(&self) -> Value {
        let mut f = Vec::new();
        if let Some(n) = self.max_events {
            f.push(("max_events".to_string(), Value::UInt(n)));
        }
        if let Some(s) = self.max_sim_time_s {
            f.push(("max_sim_time_s".to_string(), Value::Float(s)));
        }
        if let Some(n) = self.max_queue_depth {
            f.push(("max_queue_depth".to_string(), Value::UInt(n)));
        }
        if let Some(n) = self.max_live_tasks {
            f.push(("max_live_tasks".to_string(), Value::UInt(n)));
        }
        if let Some(n) = self.stall_events {
            f.push(("stall_events".to_string(), Value::UInt(n)));
        }
        if let Some(n) = self.pingpong {
            f.push(("pingpong".to_string(), Value::UInt(n)));
        }
        Value::Object(f)
    }

    fn is_default(&self) -> bool {
        *self == BudgetSpec::default()
    }

    /// The kernel-enforced ceilings of this spec.
    pub fn to_run_budget(&self) -> kernel::RunBudget {
        kernel::RunBudget {
            max_events: self.max_events,
            max_sim_time: self.max_sim_time_s.map(Dur::secs_f64),
            max_queue_depth: self.max_queue_depth.map(|n| n as usize),
            max_live_tasks: self.max_live_tasks.map(|n| n as usize),
        }
    }
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in report lines and crash labels).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Schedulers to run (default: both).
    pub scheds: Vec<Sched>,
    /// Machine shape.
    pub topology: TopoSpec,
    /// Workload phases, queued in file order (order determines task and
    /// sync-object id assignment, which feeds the decision digest).
    pub phases: Vec<PhaseSpec>,
    /// Mid-run events.
    pub events: Vec<EventSpec>,
    /// Fault-injection plan.
    pub faults: FaultSpec,
    /// SchedGuard supervision (budget ceilings, watchdog overrides).
    pub budget: BudgetSpec,
    /// Non-stock class parameters, the `[params.<class>]` tables (see
    /// [`crate::params`]); a class without one runs stock.
    pub params: Vec<ClassParams>,
    /// The run loop.
    pub run: RunSpec,
    /// End-of-run assertions.
    pub asserts: AssertSpec,
}

impl Scenario {
    /// A scenario of `phases` on `topology` for CFS and ULE, run until
    /// every app is done or `horizon` passes, sampled every 100 ms, with no
    /// events, faults, budget, class parameters or assertions: what a file
    /// that sets only these keys parses to. Generated scenarios (fuzz
    /// cases, suite cells) start here.
    pub fn new(
        name: impl Into<String>,
        topology: TopoSpec,
        phases: Vec<PhaseSpec>,
        horizon: TimeExpr,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            description: String::new(),
            scheds: Sched::BOTH.to_vec(),
            topology,
            phases,
            events: Vec::new(),
            faults: FaultSpec::default(),
            budget: BudgetSpec::default(),
            params: Vec::new(),
            run: RunSpec {
                horizon,
                horizon_cfs: None,
                horizon_ule: None,
                step: TimeExpr::fixed(0.1),
                until_apps_done: true,
                stop_spread_le: None,
                stop_spread_after: None,
            },
            asserts: AssertSpec::default(),
        }
    }

    /// Parse a TOML scenario document.
    pub fn from_toml(src: &str) -> Result<Scenario, ParseError> {
        let v = crate::toml::parse(src)?;
        Ok(Scenario::from_value(&v)?)
    }

    /// Parse a JSON scenario document (same schema as the TOML form).
    pub fn from_json(src: &str) -> Result<Scenario, ParseError> {
        let v = serde_json::from_str(src).map_err(|e| ParseError::Json(e.to_string()))?;
        Ok(Scenario::from_value(&v)?)
    }

    /// Build from an already-parsed value tree.
    pub fn from_value(v: &Value) -> Result<Scenario, SpecError> {
        check_keys(
            v,
            "",
            &[
                "name",
                "description",
                "scheds",
                "topology",
                "phase",
                "event",
                "faults",
                "budget",
                "params",
                "run",
                "assert",
            ],
        )?;
        let scheds = {
            let items = get_array(v, "", "scheds")?;
            if items.is_empty() {
                Sched::BOTH.to_vec()
            } else {
                let mut out = Vec::with_capacity(items.len());
                for (i, s) in items.iter().enumerate() {
                    let p = format!("scheds[{i}]");
                    // A non-string is an unknown name too; the message
                    // lists every class.
                    let name = match s.as_str() {
                        Some(name) => name.to_string(),
                        None => serde_json::to_string(s).unwrap_or_default(),
                    };
                    out.push(parse_sched(&name, &p)?);
                }
                out
            }
        };
        let topology = match v.get("topology") {
            Some(t) => TopoSpec::from_value(t, "topology")?,
            None => return Err(SpecError::new("topology", "missing required table")),
        };
        let phase_items = get_array(v, "", "phase")?;
        if phase_items.is_empty() {
            return Err(SpecError::new(
                "phase",
                "a scenario needs at least one [[phase]]",
            ));
        }
        let mut phases = Vec::with_capacity(phase_items.len());
        for (i, p) in phase_items.iter().enumerate() {
            phases.push(PhaseSpec::from_value(p, &format!("phase[{i}]"))?);
        }
        let mut events = Vec::new();
        for (i, e) in get_array(v, "", "event")?.iter().enumerate() {
            events.push(EventSpec::from_value(e, &format!("event[{i}]"))?);
        }
        for ev in &events {
            if !phases.iter().any(|p| p.name == ev.phase) {
                return Err(SpecError::new(
                    "event",
                    format!("event references unknown phase `{}`", ev.phase),
                ));
            }
        }
        let asserts = match v.get("assert") {
            Some(a) => AssertSpec::from_value(a, "assert")?,
            None => AssertSpec::default(),
        };
        let has_tenant = |t: &str| phases.iter().any(|p| p.tenant.as_deref() == Some(t));
        for b in &asserts.tenant {
            if !has_tenant(&b.tenant) {
                return Err(SpecError::new(
                    "assert.tenant",
                    format!("bound references unknown tenant `{}`", b.tenant),
                ));
            }
        }
        for r in &asserts.tenant_relation {
            for t in [&r.left, &r.right] {
                if !has_tenant(t) {
                    return Err(SpecError::new(
                        "assert.tenant_relation",
                        format!("relation references unknown tenant `{t}`"),
                    ));
                }
            }
        }
        let run = match v.get("run") {
            Some(r) => RunSpec::from_value(r, "run")?,
            None => {
                return Err(SpecError::new(
                    "run",
                    "missing required table (needs `horizon`)",
                ))
            }
        };
        Ok(Scenario {
            name: req_str(v, "", "name")?,
            description: get_str(v, "", "description")?.unwrap_or_default(),
            scheds,
            topology,
            phases,
            events,
            faults: match v.get("faults") {
                Some(fv) => FaultSpec::from_value(fv, "faults")?,
                None => FaultSpec::default(),
            },
            budget: match v.get("budget") {
                Some(b) => BudgetSpec::from_value(b, "budget")?,
                None => BudgetSpec::default(),
            },
            params: match v.get("params") {
                Some(p) => crate::params::from_value(p, "params")?,
                None => Vec::new(),
            },
            run,
            asserts,
        })
    }

    /// The `[params.<class>]` table of `sched`, if the scenario sets one.
    pub fn class_params(&self, sched: Sched) -> Option<&ClassParams> {
        self.params.iter().find(|t| t.sched == sched)
    }

    /// Serialize back to a value tree that [`Scenario::from_value`]
    /// round-trips (via `serde_json::to_string` for the JSON form).
    pub fn to_value(&self) -> Value {
        let mut f = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if !self.description.is_empty() {
            f.push((
                "description".to_string(),
                Value::Str(self.description.clone()),
            ));
        }
        if self.scheds != Sched::BOTH {
            f.push((
                "scheds".to_string(),
                Value::Array(
                    self.scheds
                        .iter()
                        .map(|&s| Value::Str(sched_str(s).into()))
                        .collect(),
                ),
            ));
        }
        f.push(("topology".to_string(), self.topology.to_value()));
        f.push((
            "phase".to_string(),
            Value::Array(self.phases.iter().map(|p| p.to_value()).collect()),
        ));
        if !self.events.is_empty() {
            f.push((
                "event".to_string(),
                Value::Array(self.events.iter().map(|e| e.to_value()).collect()),
            ));
        }
        if !self.faults.is_default() {
            f.push(("faults".to_string(), self.faults.to_value()));
        }
        if !self.budget.is_default() {
            f.push(("budget".to_string(), self.budget.to_value()));
        }
        if !self.params.is_empty() {
            f.push(("params".to_string(), crate::params::to_value(&self.params)));
        }
        f.push(("run".to_string(), self.run.to_value()));
        if !self.asserts.is_default() {
            f.push(("assert".to_string(), self.asserts.to_value()));
        }
        Value::Object(f)
    }
}
