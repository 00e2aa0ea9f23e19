//! The benchmark's workloads. Each builds its inputs from the seed,
//! then calls the library for the run's measuring time, checking every
//! output outside the timed regions.

use rolediet_core::validate::validate_report_against_graph;
use rolediet_core::{
    DetectionConfig, IncrementalPipeline, Parallelism, Pipeline, Report, Strategy,
};
use rolediet_mining::{mine_greedy_cover_with, verify_exact_cover, MiningConfig, MiningResult};
use rolediet_model::{EdgeDelta, RoleId, TripartiteGraph};
use rolediet_synth::churn::{ChurnSimulator, ChurnWeights};
use rolediet_synth::profiles::ing_like;
use rolediet_synth::{generate_org_with, GeneratedOrg};

use crate::bench::{median, quantile, Bench, THREADS};
use crate::stages;

/// A workload (see `BENCHMARK.json` for why each is in the benchmark).
pub struct Workload {
    pub name: &'static str,
    /// The kind of operation its `op_s` reports.
    pub op: &'static str,
    pub run: fn(&mut Bench),
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "realorg",
        op: "mine",
        run: realorg,
    },
    // Batch latency swings too much from run to run on a shared box for
    // the largest bound (IQR/median up to 31% over ten seeds), so the
    // churn workload's `op_s` is its rerun too; the batch latencies are
    // printed as `churn_batch_*` lines and traced per layer.
    Workload {
        name: "realorg-churn",
        op: "detect",
        run: realorg_churn,
    },
    Workload {
        name: "hub-org",
        op: "detect",
        run: hub_org,
    },
    // DBSCAN and HNSW wall times drift with the machine's load rather
    // than the code (IQR/median 26-32% over ten seeds), so `op_s` on the
    // baselines workload is its Custom run; `dbscan_s` and `hnsw_s` are
    // printed as `metric` lines and traced per layer.
    Workload {
        name: "baselines",
        op: "detect",
        run: baselines,
    },
];

/// Churn events per batch.
const BATCH_EVENTS: usize = 100;
/// Batches in one pass of the churn stream: enough that ten samples lie
/// beyond a pass's p90.
const CHURN_BATCHES: usize = 100;
/// The batch counts after which a pass checks the maintained report
/// against a rerun.
const CHECK_AT: [usize; 2] = [CHURN_BATCHES / 2, CHURN_BATCHES];

fn config(strategy: Strategy) -> DetectionConfig {
    DetectionConfig {
        strategy,
        parallelism: Parallelism::Threads(THREADS),
        ..DetectionConfig::default()
    }
}

fn zeroed(mut report: Report) -> Report {
    report.timings = Default::default();
    report
}

fn generate(b: &mut Bench, scale: f64) -> GeneratedOrg {
    let (scale, seed) = (scale * b.args.scale, b.args.seed);
    b.phase("synth.org", || {
        generate_org_with(ing_like(scale, seed), THREADS)
    })
}

fn shape(b: &mut Bench, graph: &TripartiteGraph, extra: String) {
    b.info.push(format!(
        "shape roles={} users={} permissions={} ruam_nnz={} rpam_nnz={}{extra}",
        graph.n_roles(),
        graph.n_users(),
        graph.n_permissions(),
        graph.n_user_assignments(),
        graph.n_permission_grants(),
    ));
}

/// Prints one of the run's named results beside the JSON metrics.
fn named(b: &mut Bench, name: &str, value: f64, unit: &str, n: usize) {
    b.info.push(format!("metric {name} {value} {unit} n={n}"));
}

/// Prints the median time of the untraced calls of `kind`, if any ran.
fn named_median(b: &mut Bench, name: &str, kind: &str) {
    if let Some(v) = b.samples.get(kind).cloned() {
        named(b, name, median(&v), "s", v.len());
    }
}

/// One timed `Pipeline::run` of `kind` under `cfg`; pushes its counters
/// in a traced run.
fn pipeline(
    b: &mut Bench,
    kind: &'static str,
    graph: &TripartiteGraph,
    cfg: DetectionConfig,
) -> Report {
    let p = Pipeline::new(cfg);
    let (report, counts) = b.call(
        kind,
        || zeroed(p.run(graph)),
        |rec, counts| stages::detect(rec, graph, &cfg, counts),
    );
    if b.trace() {
        match kind {
            "detect" => {
                let groups = report.same_user_groups.len() + report.same_permission_groups.len();
                let pairs = report.similar_user_pairs.len() + report.similar_permission_pairs.len();
                b.push("t4.groups", groups as f64);
                b.push("t5.pairs", pairs as f64);
            }
            "dbscan" => b.push("dbscan.neighbors", counts.dbscan_neighbors as f64),
            _ => {}
        }
    }
    report
}

/// Checks a report: the first one of a kind is validated against the
/// graph, and every later one must equal it (so it passes too).
fn check_repeat(
    b: &mut Bench,
    kind: &str,
    graph: &TripartiteGraph,
    report: Report,
    first: &mut Option<Report>,
) {
    match first {
        Some(f) => {
            let same = *f == report;
            b.ensure(kind, same, || "report differs from the first".into());
        }
        None => {
            let valid = b.check_phase("validate", || validate_report_against_graph(&report, graph));
            b.check(kind, valid);
            *first = Some(report);
        }
    }
}

fn realorg(b: &mut Bench) {
    let org = b.setup(|b| generate(b, 1.0));
    let graph = &org.graph;
    let cfg = config(Strategy::Custom);
    let mut first = None;
    let mut first_mine = None;
    b.measure(|b| {
        let report = pipeline(b, "detect", graph, cfg);
        if first.is_none() {
            let t = &org.truth;
            let planted = [
                (report.standalone_users.len(), t.standalone_users.len()),
                (
                    report.standalone_permissions.len(),
                    t.standalone_permissions.len(),
                ),
                (report.standalone_roles.len(), t.standalone_roles.len()),
                (report.userless_roles.len(), t.userless_roles.len()),
                (report.permless_roles.len(), t.permless_roles.len()),
                (report.single_user_roles.len(), t.single_user_roles.len()),
                (
                    report.single_permission_roles.len(),
                    t.single_permission_roles.len(),
                ),
            ];
            let ok = planted.iter().all(|(found, truth)| found == truth);
            b.ensure("detect", ok, || {
                format!("T1-T3 counts {planted:?} (found, planted)")
            });
        }
        check_repeat(b, "detect", graph, report, &mut first);
        mine(b, graph, &mut first_mine);
    });
    let upam = graph.upam_sparse_with(THREADS);
    let upam_nnz: usize = (0..upam.n_rows()).map(|u| upam.row(u).len()).sum();
    shape(b, graph, format!(" upam_nnz={upam_nnz}"));
    named_median(b, "detect_s", "detect");
    named_median(b, "mine_s", "mine");
}

/// One timed UPAM build plus lazy-greedy cover; every cover is checked
/// exact, and every result must equal the first.
fn mine(b: &mut Bench, graph: &TripartiteGraph, first: &mut Option<MiningResult>) {
    let cfg = MiningConfig::default();
    let ((upam, result), counts) = b.call(
        "mine",
        || {
            let upam = graph.upam_sparse_with(THREADS);
            let result = mine_greedy_cover_with(&upam, &cfg, THREADS).map_err(|e| e.to_string());
            (upam, result)
        },
        |rec, counts| {
            let (upam, result) = stages::mine(rec, graph, &cfg, THREADS, counts);
            (upam, result.map_err(|e| e.to_string()))
        },
    );
    let mined = match result {
        Ok(m) => m,
        Err(e) => return b.check("mine", Err(e)),
    };
    if b.trace() {
        b.push("mining.pool", counts.mining_pool as f64);
        b.push("mining.roles", mined.n_roles() as f64);
    }
    let exact = b.check_phase("mining.verify", || verify_exact_cover(&upam, &mined.roles));
    b.check("mine", exact.map_err(|e| e.to_string()));
    match first {
        Some(f) => {
            let same = *f == mined;
            b.ensure("mine", same, || "cover differs from the first".into());
        }
        None => *first = Some(mined),
    }
}

/// The churn stream: `batches` batches of [`BATCH_EVENTS`] events each,
/// recorded as edge deltas against `graph`.
fn churn_stream(graph: &TripartiteGraph, seed: u64, batches: usize) -> Vec<Vec<EdgeDelta>> {
    let mut sim = ChurnSimulator::from_graph(graph.clone(), ChurnWeights::default(), seed);
    (0..batches)
        .map(|_| {
            sim.run(BATCH_EVENTS);
            sim.drain_deltas()
        })
        .collect()
}

/// Each iteration is one pass: a copy of the seeded incremental pipeline
/// takes the whole fixed stream, batch by batch, with a rerun check at
/// each of [`CHECK_AT`]. Every pass applies the same batches to the same
/// graphs, so the work does not depend on how fast the program is.
fn realorg_churn(b: &mut Bench) {
    let cfg = config(Strategy::Custom);
    let seed = b.args.seed;
    let (org, batches, seeded) = b.setup(|b| {
        let org = generate(b, 1.0);
        let batches = b.phase("synth.churn", || {
            churn_stream(&org.graph, seed, CHURN_BATCHES)
        });
        let inc = b.phase("incremental.seed", || {
            Pipeline::new(cfg).incremental(&org.graph)
        });
        (org, batches, inc)
    });
    let (mut noops, mut applied, mut passes) = (0usize, 0usize, 0usize);
    let mut last_pass = None;
    b.measure(|b| {
        // The previous pass's pipeline goes before the copy is made, so a
        // run that fits more passes does not hold more memory.
        drop(last_pass.take());
        let mut inc = seeded.clone();
        // Shadow graphs for the first pass of a traced run: one replays
        // each batch for `model.replay_ms`, the other applies it delta by
        // delta to count no-op deltas.
        let mut shadows =
            (b.trace() && passes == 0).then(|| (org.graph.clone(), org.graph.clone()));
        for (i, batch) in batches.iter().enumerate() {
            b.begin();
            let traced = b.trace() && i % 2 == 0;
            let t0 = std::time::Instant::now();
            let result = if traced {
                b.traced_op("batch", |b| {
                    let r = b.phase("incremental.apply", || inc.apply_all(batch));
                    std::hint::black_box(b.phase("incremental.report", || inc.report()));
                    r
                })
            } else {
                let r = inc.apply_all(batch);
                std::hint::black_box(inc.report());
                r
            };
            let secs = t0.elapsed().as_secs_f64();
            match (b.trace(), traced) {
                (false, _) => b.push("batch", secs),
                (true, false) => b.overhead.entry("batch").or_default().untraced.push(secs),
                (true, true) => {}
            }
            b.check("batch", result.map_err(|e| e.to_string()));
            if let Some((replay, counted)) = shadows.as_mut() {
                let r = b.traced_op("replay", |b| {
                    b.phase("model.replay", || EdgeDelta::replay(replay, batch))
                });
                b.check("replay", r.map_err(|e| e.to_string()));
                for delta in batch {
                    match delta.apply(counted) {
                        Ok(changed) => noops += usize::from(!changed),
                        Err(e) => b.check("replay", Err(e.to_string())),
                    }
                    applied += 1;
                }
            }
            if CHECK_AT.contains(&(i + 1)) {
                checkpoint(b, &inc, cfg);
            }
        }
        passes += 1;
        last_pass = Some(inc);
    });
    if b.trace() {
        b.push(
            "incremental.noop_ratio",
            noops as f64 / applied.max(1) as f64,
        );
    }
    let deltas: usize = batches.iter().map(Vec::len).sum();
    let inc = last_pass.expect("at least one pass");
    shape(
        b,
        inc.graph(),
        format!(" deltas={deltas} batches={} passes={passes}", batches.len()),
    );
    if let Some(v) = b.samples.get("batch").cloned() {
        named(b, "churn_batch_p50_ms", median(&v) * 1e3, "ms", v.len());
        named(
            b,
            "churn_batch_p90_ms",
            quantile(&v, 0.9) * 1e3,
            "ms",
            v.len(),
        );
        let events_per_s = (v.len() * BATCH_EVENTS) as f64 / v.iter().sum::<f64>();
        named(b, "churn_events_per_s", events_per_s, "1/s", v.len());
    }
    named_median(b, "detect_s", "detect");
}

/// Reruns Custom detection on the churned graph (timed as `detect`) and
/// checks that the maintained report equals it.
fn checkpoint(b: &mut Bench, inc: &IncrementalPipeline, cfg: DetectionConfig) {
    let rerun = pipeline(b, "detect", inc.graph(), cfg);
    let same = zeroed(inc.report()) == rerun;
    b.ensure("churn", same, || {
        "maintained report differs from Pipeline::run".into()
    });
}

fn hub_org(b: &mut Bench) {
    let graph = b.setup(|b| {
        let mut graph = generate(b, 0.5).graph;
        b.phase("synth.hub", || {
            let hub = graph.add_user();
            for r in 0..graph.n_roles() {
                graph
                    .assign_user(RoleId::from_index(r), hub)
                    .expect("the hub user and every role exist");
            }
        });
        graph
    });
    let cfg = config(Strategy::Custom);
    let mut first = None;
    b.measure(|b| {
        let report = pipeline(b, "detect", &graph, cfg);
        check_repeat(b, "detect", &graph, report, &mut first);
    });
    shape(b, &graph, String::new());
    named_median(b, "detect_s", "detect");
}

/// Custom detection next to both baseline strategies on the Fig. 3 org.
/// ExactDbscan's reports must equal Custom's with disjoint pairs
/// included; ApproxHnsw's are validated, and their recall of those exact
/// findings is reported.
fn baselines(b: &mut Bench) {
    let org = b.setup(|b| generate(b, 0.2));
    let graph = &org.graph;
    let custom = config(Strategy::Custom);
    let mut exact_cfg = custom;
    exact_cfg.similarity.include_disjoint = true;
    let exact = b.check_phase("reference", || zeroed(Pipeline::new(exact_cfg).run(graph)));
    let (mut first, mut first_hnsw) = (None, None);
    b.measure(|b| {
        let report = pipeline(b, "detect", graph, custom);
        check_repeat(b, "detect", graph, report, &mut first);
        let mut report = pipeline(b, "dbscan", graph, config(Strategy::ExactDbscan));
        report.config = exact_cfg;
        let same = report == exact;
        b.ensure("dbscan", same, || {
            "ExactDbscan differs from Custom with disjoint pairs".into()
        });
        let report = pipeline(b, "hnsw", graph, config(Strategy::hnsw_default()));
        check_repeat(b, "hnsw", graph, report, &mut first_hnsw);
    });
    shape(b, graph, String::new());
    named_median(b, "detect_s", "detect");
    named_median(b, "dbscan_s", "dbscan");
    named_median(b, "hnsw_s", "hnsw");
    if let Some(approx) = &first_hnsw {
        let r = recall(&exact, approx);
        named(b, "hnsw_recall", r, "ratio", 1);
        if b.trace() {
            b.push("hnsw.recall", r);
        }
    }
}

/// Every T4 same-role pair and T5 pair of `report`, both sides, encoded
/// as `(kind, a, b)` and sorted.
fn finding_pairs(report: &Report) -> Vec<(u8, usize, usize)> {
    let mut out = Vec::new();
    for (kind, groups) in [
        (0u8, &report.same_user_groups),
        (1, &report.same_permission_groups),
    ] {
        for g in groups {
            for (i, &a) in g.iter().enumerate() {
                out.extend(g[i + 1..].iter().map(|&b| (kind, a.min(b), a.max(b))));
            }
        }
    }
    for (kind, pairs) in [
        (2u8, &report.similar_user_pairs),
        (3, &report.similar_permission_pairs),
    ] {
        out.extend(pairs.iter().map(|p| (kind, p.a.min(p.b), p.a.max(p.b))));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Share of `exact`'s T4 and T5 pairs that `approx` also reports.
fn recall(exact: &Report, approx: &Report) -> f64 {
    let truth = finding_pairs(exact);
    let found = finding_pairs(approx);
    let hits = found
        .iter()
        .filter(|p| truth.binary_search(p).is_ok())
        .count();
    hits as f64 / truth.len().max(1) as f64
}
