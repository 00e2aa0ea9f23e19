//! Traced replicas of the library's end-to-end calls.
//!
//! [`detect`] calls the public stage functions in the order
//! `Pipeline::run` calls them, with a span around each; [`mine`] does the
//! same for `mine_greedy_cover_with`. The caller asserts that the
//! assembled findings equal the untraced call's, so a change to the
//! pipeline's stage order or wiring shows up as a failed check instead of
//! a silently wrong trace.

use rolediet_core::detector::detect_degrees_with;
use rolediet_core::strategy::{
    dbscan_same_groups_cached, dbscan_similar_pairs_cached, find_same_groups,
    find_same_groups_with_empty, find_similar_pairs, hnsw_same_groups, hnsw_similar_pairs,
    DbscanEngine, HnswEngine,
};
use rolediet_core::{DetectionConfig, Report, Strategy};
use rolediet_matrix::CsrMatrix;
use rolediet_mining::{generate_candidates_with, mine_lazy_from_pool, MiningConfig, MiningResult};
use rolediet_model::{ModelError, TripartiteGraph};

use crate::trace::Recorder;

/// Work counters gathered beside the spans of one traced call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Neighbourhood entries produced by the exact-DBSCAN precomputes.
    pub dbscan_neighbors: usize,
    /// Candidate pool size of a mining call.
    pub mining_pool: usize,
}

/// `Pipeline::run` stage by stage, one span per stage. Returns the
/// report with zero timings.
pub fn detect(
    rec: &mut Recorder,
    graph: &TripartiteGraph,
    cfg: &DetectionConfig,
    counts: &mut Counts,
) -> Report {
    let threads = cfg.parallelism.threads();
    let ruam = rec.span("matrix.build", |_| graph.ruam_sparse_with(threads));
    let rpam = rec.span("matrix.build", |_| graph.rpam_sparse_with(threads));
    let mut report = Report {
        config: *cfg,
        ..Report::default()
    };
    let degrees = rec.span("detector.degrees", |_| {
        detect_degrees_with(&ruam, &rpam, threads)
    });
    report.standalone_users = degrees.standalone_users;
    report.standalone_permissions = degrees.standalone_permissions;
    report.standalone_roles = degrees.standalone_roles;
    report.userless_roles = degrees.userless_roles;
    report.permless_roles = degrees.permless_roles;
    report.single_user_roles = degrees.single_user_roles;
    report.single_permission_roles = degrees.single_permission_roles;

    let sides = [
        ("t4.users", "t5.users", &ruam),
        ("t4.perms", "t5.perms", &rpam),
    ];
    let skip_t5 = cfg.skip_similarity;
    match cfg.strategy {
        Strategy::ExactDbscan => {
            let engines = sides.map(|(_, _, m)| {
                rec.span("dbscan.engine", |_| {
                    DbscanEngine::build_with_budget(m, cfg.memory_budget_bytes, threads)
                })
            });
            [report.same_user_groups, report.same_permission_groups] = [0, 1].map(|i| {
                rec.span(sides[i].0, |rec| {
                    let nb = rec.span("dbscan.neighborhoods", |_| {
                        engines[i].duplicate_neighborhoods(threads)
                    });
                    counts.dbscan_neighbors += nb.iter().map(Vec::len).sum::<usize>();
                    rec.span("dbscan.grouping", |_| {
                        let empty = cfg.include_empty_duplicates;
                        dbscan_same_groups_cached(&engines[i], &nb, empty, threads)
                    })
                })
            });
            if !skip_t5 {
                [report.similar_user_pairs, report.similar_permission_pairs] = [0, 1].map(|i| {
                    rec.span(sides[i].1, |rec| {
                        let nb = rec.span("dbscan.neighborhoods", |_| {
                            engines[i].similar_neighborhoods(cfg.similarity.threshold, threads)
                        });
                        counts.dbscan_neighbors += nb.iter().map(Vec::len).sum::<usize>();
                        rec.span("dbscan.grouping", |_| {
                            dbscan_similar_pairs_cached(&engines[i], &nb, &cfg.similarity, threads)
                        })
                    })
                });
            }
        }
        Strategy::ApproxHnsw { params, probe_k } => {
            let engines = sides.map(|(_, _, m)| {
                rec.span("hnsw.build", |_| {
                    HnswEngine::build(m, params, cfg.hnsw_batch, threads)
                })
            });
            [report.same_user_groups, report.same_permission_groups] = [0, 1].map(|i| {
                rec.span(sides[i].0, |rec| {
                    let engine = &engines[i];
                    let mut groups =
                        rec.span("hnsw.probe", |_| hnsw_same_groups(engine, probe_k, threads));
                    if !cfg.include_empty_duplicates {
                        groups.retain(|g| engine.row_norm(g[0]) > 0);
                    }
                    groups
                })
            });
            if !skip_t5 {
                [report.similar_user_pairs, report.similar_permission_pairs] = [0, 1].map(|i| {
                    rec.span(sides[i].1, |rec| {
                        rec.span("hnsw.probe", |_| {
                            hnsw_similar_pairs(&engines[i], probe_k, &cfg.similarity, threads)
                        })
                    })
                });
            }
        }
        // Custom (and MinHash) dispatch through the strategy functions.
        _ => {
            [report.same_user_groups, report.same_permission_groups] = sides.map(|(t4, _, m)| {
                rec.span(t4, |_| {
                    if cfg.include_empty_duplicates {
                        find_same_groups_with_empty(m, &cfg.strategy, cfg.parallelism)
                    } else {
                        find_same_groups(m, &cfg.strategy, cfg.parallelism)
                    }
                })
            });
            if !skip_t5 {
                [report.similar_user_pairs, report.similar_permission_pairs] =
                    sides.map(|(_, t5, m)| {
                        rec.span(t5, |rec| {
                            let t = rec.span("matrix.transpose", |_| m.transpose_with(threads));
                            find_similar_pairs(
                                m,
                                &t,
                                &cfg.strategy,
                                &cfg.similarity,
                                cfg.parallelism,
                            )
                        })
                    });
            }
        }
    }
    report
}

/// UPAM build plus `mine_greedy_cover_with`, phase by phase. Returns the
/// UPAM (for the cover check) and the mining result.
pub fn mine(
    rec: &mut Recorder,
    graph: &TripartiteGraph,
    cfg: &MiningConfig,
    threads: usize,
    counts: &mut Counts,
) -> (CsrMatrix, Result<MiningResult, ModelError>) {
    let upam = rec.span("mining.upam", |_| graph.upam_sparse_with(threads));
    let pool = rec.span("mining.candidates", |_| {
        generate_candidates_with(&upam, &cfg.candidates, threads)
    });
    counts.mining_pool = pool.len();
    let result = rec.span("mining.cover", |_| {
        mine_lazy_from_pool(&upam, &pool, threads)
    });
    (upam, result)
}
