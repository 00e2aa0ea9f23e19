//! The run context shared by every workload: timing, checks, samples
//! and (in a traced run) the span recorder.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stages::Counts;
use crate::trace::{self_times, Recorder};

/// Worker threads every library call runs with (the bench box's `nproc`).
pub const THREADS: usize = 2;

/// The set-up runs at least `SETUP_MIN_REPEATS` times, and again while
/// all set-ups so far took under `SETUP_SECONDS`, up to
/// `SETUP_MAX_REPEATS` times; `setup_s` is the median. Cheap set-ups get
/// more repeats, so their median is as steady as a costly one's.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 61;
const SETUP_SECONDS: f64 = 3.0;

/// Per-layer metrics: name, unit, and the kind of operation whose spans
/// or counters supply it.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("matrix.build_ms", "ms", "detect"),
    ("detector.degrees_ms", "ms", "detect"),
    ("t4.users_ms", "ms", "detect"),
    ("t4.perms_ms", "ms", "detect"),
    ("t4.groups", "count", "detect"),
    ("matrix.transpose_ms", "ms", "detect"),
    ("t5.users_ms", "ms", "detect"),
    ("t5.perms_ms", "ms", "detect"),
    ("t5.pairs", "count", "detect"),
    ("dbscan.engine_ms", "ms", "dbscan"),
    ("dbscan.neighborhoods_ms", "ms", "dbscan"),
    ("dbscan.neighbors", "count", "dbscan"),
    ("dbscan.grouping_ms", "ms", "dbscan"),
    ("hnsw.build_ms", "ms", "hnsw"),
    ("hnsw.probe_ms", "ms", "hnsw"),
    ("hnsw.recall", "ratio", "hnsw"),
    ("mining.upam_ms", "ms", "mine"),
    ("mining.candidates_ms", "ms", "mine"),
    ("mining.pool", "count", "mine"),
    ("mining.cover_ms", "ms", "mine"),
    ("mining.roles", "count", "mine"),
    ("mining.verify_ms", "ms", "check"),
    ("incremental.apply_ms", "ms", "batch"),
    ("incremental.report_ms", "ms", "batch"),
    ("incremental.noop_ratio", "ratio", "batch"),
    ("model.replay_ms", "ms", "replay"),
    ("incremental.seed_ms", "ms", "setup"),
    ("synth.org_ms", "ms", "setup"),
    ("synth.churn_ms", "ms", "setup"),
];

/// End-to-end metrics every workload reports: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("detect_s", "s"),
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every workload's organization scale (1 = as named).
    pub scale: f64,
}

/// Traced-run timings of one operation kind.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// Wall time of each traced call, in seconds.
    pub traced: Vec<f64>,
    /// Wall time of each untraced call of the same kind, in seconds.
    pub untraced: Vec<f64>,
    /// Share of each traced call that its layer spans cover.
    pub covered: Vec<f64>,
}

/// One run's state.
pub struct Bench {
    pub args: Args,
    pub rec: Recorder,
    started: Instant,
    pub attempted: u64,
    pub failed: u64,
    op_failed: bool,
    pub errors: Vec<String>,
    /// Named samples: untraced call times in seconds per operation kind,
    /// per-layer values, and counters.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per operation kind in a traced run.
    pub overhead: BTreeMap<&'static str, OpTimes>,
    /// Layer self time (ms) summed over the traced run, per span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    pub info: Vec<String>,
    /// Peak RSS in MiB when the measured loop started.
    pub rss_before_loop: Option<f64>,
}

impl Bench {
    pub fn new(args: Args) -> Self {
        Bench {
            args,
            rec: Recorder::new(),
            started: Instant::now(),
            attempted: 0,
            failed: 0,
            op_failed: false,
            errors: Vec::new(),
            samples: BTreeMap::new(),
            overhead: BTreeMap::new(),
            self_ms: BTreeMap::new(),
            info: Vec::new(),
            rss_before_loop: None,
        }
    }

    pub fn trace(&self) -> bool {
        self.args.trace
    }

    /// The measured loop. Starts the measurement clock, runs `iteration`
    /// once, and runs it again while one more iteration, as long as the
    /// last one, still ends within `--seconds`. Every iteration does the
    /// same work, so a faster program runs more iterations, never
    /// different ones. Records the peak RSS before the loop, so the run
    /// can tell whether the loop set its peak.
    pub fn measure(&mut self, mut iteration: impl FnMut(&mut Self)) {
        self.rss_before_loop = peak_rss_mb().ok();
        self.started = Instant::now();
        let budget = Duration::from_secs_f64(self.args.seconds);
        loop {
            let t0 = Instant::now();
            iteration(self);
            if self.started.elapsed() + t0.elapsed() > budget {
                break;
            }
        }
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Records the outcome of an output check against the current
    /// operation; an operation counts as failed at most once.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            if !self.op_failed {
                self.failed += 1;
                self.op_failed = true;
            }
            if self.errors.len() < 10 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// [`check`](Bench::check) of a condition.
    pub fn ensure(&mut self, what: &str, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.check(what, Err(msg()));
        }
    }

    /// Counts a new timed operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.op_failed = false;
    }

    /// Runs the set-up repeatedly (see `SETUP_SECONDS`) and keeps the
    /// last result; pushes each set-up's wall time as a `setup` sample.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> T {
        let mut out = None;
        let (mut n, mut spent) = (0, 0.0);
        while n < SETUP_MIN_REPEATS || (spent < SETUP_SECONDS && n < SETUP_MAX_REPEATS) {
            drop(out.take());
            let t0 = Instant::now();
            out = Some(self.traced_op("setup", |b| f(b)));
            let secs = t0.elapsed().as_secs_f64();
            self.push("setup", secs);
            n += 1;
            spent += secs;
        }
        out.expect("at least one set-up")
    }

    /// Runs `f` as one operation of `kind`: in a traced run under a root
    /// span named `kind`, whose layer self times become samples of the
    /// per-layer metrics this kind supplies.
    pub fn traced_op<T>(&mut self, kind: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.trace() {
            return f(self);
        }
        let first = self.rec.begin_op();
        let root = self.rec.open(kind);
        let out = f(self);
        self.rec.close(root);
        let spans = self.rec.since(first);
        let total = spans[0].duration();
        let selfs = self_times(spans, first);
        let mut covered = Duration::ZERO;
        for s in spans.iter().filter(|s| s.parent == Some(first)) {
            covered += s.duration();
        }
        let share = covered.as_secs_f64() / total.as_secs_f64().max(1e-12);
        for (name, t) in selfs {
            let ms = t.as_secs_f64() * 1e3;
            *self.self_ms.entry(name).or_insert(0.0) += ms;
            let metric = format!("{name}_ms");
            if LAYERS.iter().any(|l| l.0 == metric && l.2 == kind) {
                self.push(&metric, ms);
            }
        }
        let entry = self.overhead.entry(kind).or_default();
        entry.traced.push(total.as_secs_f64());
        entry.covered.push(share);
        out
    }

    /// Runs a span inside the current traced operation (a plain call in
    /// an untraced run).
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.trace() {
            self.rec.span(name, |_| f())
        } else {
            f()
        }
    }

    /// One timed end-to-end call of `kind`. An untraced run times `plain`
    /// and keeps the time as a sample of `kind`. A traced run first runs
    /// `traced` (the same call, stage by stage under spans), then `plain`
    /// for the overhead comparison, and checks that both return the same.
    pub fn call<T: PartialEq>(
        &mut self,
        kind: &'static str,
        plain: impl FnOnce() -> T,
        traced: impl FnOnce(&mut Recorder, &mut Counts) -> T,
    ) -> (T, Counts) {
        self.begin();
        let mut counts = Counts::default();
        let traced_out = self
            .trace()
            .then(|| self.traced_op(kind, |b| traced(&mut b.rec, &mut counts)));
        let t0 = Instant::now();
        let out = std::hint::black_box(plain());
        let secs = t0.elapsed().as_secs_f64();
        match traced_out {
            None => self.push(kind, secs),
            Some(t) => {
                self.overhead.entry(kind).or_default().untraced.push(secs);
                self.ensure(kind, t == out, || {
                    "traced stages disagree with the untraced call".into()
                });
            }
        }
        (out, counts)
    }

    /// Runs an output check (outside the timed regions); in a traced run
    /// it is an operation of kind `check` with one span named `name`.
    pub fn check_phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.traced_op("check", |b| b.phase(name, f))
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}
