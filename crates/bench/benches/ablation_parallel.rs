//! Ablation `abl-parallel`: parallel pipeline stages across thread counts.
//!
//! These stages run on the shared substrate (`rolediet_matrix::parallel`)
//! and are benched at 1, 2, 4 and 8 workers on a paper-shaped matrix:
//!
//! * the custom T5 detector (`similar_pairs_parallel`) — a prefix-filter
//!   index built once, then probed and verified per row range, each
//!   candidate pair owned by its lower row;
//! * the CSR transpose whose row lengths give T5 its column frequencies
//!   (`CsrMatrix::transpose_with`);
//! * the signature-index build behind the custom T4 detector
//!   (`SignatureIndex::build_with`);
//! * the two-pass CSR build (`CsrMatrix::from_row_iter_two_pass`), with
//!   the PR 1 `from_rows_of_indices` collection as baseline;
//! * the norm-bucketed disjoint supplement, with the PR 1 quadratic
//!   low-norm scan (`disjoint_supplement_naive`) as baseline;
//! * MinHash sketching + LSH banding (`MinHashLsh::build_with` /
//!   `candidate_pairs_with`);
//! * the DBSCAN grouping kernel (`Dbscan::group_cached_with` —
//!   connected components over cached neighbour lists), with the
//!   sequential BFS expansion (`Dbscan::fit_cached`) as baseline, plus
//!   the hoisted eps-edge dedup (union only `q > p`) against the
//!   both-directions union loop it replaced;
//! * the batched two-phase HNSW build (`Hnsw::build_batched` over the
//!   packed adapter), with the sequential insert loop (`Hnsw::build`)
//!   as baseline.
//!
//! A final full-pipeline pass records the per-stage thread counts that
//! `Report::timings` now carries, so a bench run documents which stages
//! actually ran parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rolediet_bench::sweep_matrix;
use rolediet_cluster::dbscan::{Dbscan, DbscanParams};
use rolediet_cluster::hnsw::{Hnsw, HnswParams};
use rolediet_cluster::metric::{BinaryMetric, BinaryRows, PackedPointSet};
use rolediet_cluster::minhash::{MinHashLsh, MinHashLshParams};
use rolediet_cluster::neighbors::all_range_queries_with;
use rolediet_cluster::UnionFind;
use rolediet_core::cooccur::{
    disjoint_supplement, disjoint_supplement_naive, similar_pairs_parallel,
};
use rolediet_core::{DetectionConfig, Parallelism, Pipeline, SimilarityConfig};
use rolediet_matrix::{CsrMatrix, SignatureIndex};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A matrix shaped like the supplement's real workload: mostly empty and
/// single-entry rows (the paper's organization had 12,000 userless and
/// 4,000 single-user roles) plus a block of normal-norm rows.
fn supplement_matrix(empty: usize, single: usize, normal: usize, cols: usize) -> CsrMatrix {
    let rows: Vec<Vec<usize>> = (0..empty)
        .map(|_| Vec::new())
        .chain((0..single).map(|i| vec![i % cols]))
        .chain((0..normal).map(|i| (0..50).map(|k| (i + k * 7) % cols).collect()))
        .collect();
    let mut sorted = rows;
    for r in &mut sorted {
        r.sort_unstable();
        r.dedup();
    }
    CsrMatrix::from_rows_of_indices(sorted.len(), cols, &sorted).unwrap()
}

fn parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);
    let matrix = sweep_matrix(3_000, 1_000, 0);
    let transpose = matrix.transpose();
    let cfg = SimilarityConfig::default();
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("similar_pairs", threads),
            &threads,
            |b, &threads| {
                b.iter(|| similar_pairs_parallel(&matrix, &transpose, &cfg, threads));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("transpose", threads),
            &threads,
            |b, &threads| {
                b.iter(|| matrix.transpose_with(threads));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("signature_build", threads),
            &threads,
            |b, &threads| {
                b.iter(|| SignatureIndex::build_with(&matrix, threads));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("matrix_build", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    CsrMatrix::from_row_iter_two_pass(
                        matrix.n_rows(),
                        matrix.n_cols(),
                        threads,
                        |i| matrix.row(i).iter().copied(),
                    )
                });
            },
        );
    }
    // PR 1 baseline for the two-pass build: collect per-row `Vec`s, then
    // `from_rows_of_indices` (which sorts and re-copies every row).
    group.bench_function("matrix_build_pr1_baseline", |b| {
        b.iter(|| {
            let rows: Vec<Vec<usize>> = (0..matrix.n_rows())
                .map(|i| matrix.row(i).iter().map(|&c| c as usize).collect())
                .collect();
            CsrMatrix::from_rows_of_indices(matrix.n_rows(), matrix.n_cols(), &rows).unwrap()
        });
    });

    // Disjoint supplement: bucketed kernel vs. the PR 1 quadratic scan,
    // on a workload dominated by empty and single-entry rows.
    let supp = supplement_matrix(1_000, 500, 500, 1_000);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("disjoint_supplement", threads),
            &threads,
            |b, &threads| {
                b.iter(|| disjoint_supplement(&supp, 1, threads));
            },
        );
    }
    group.bench_function("disjoint_supplement_pr1_baseline", |b| {
        b.iter(|| disjoint_supplement_naive(&supp, 1));
    });

    // MinHash sketching + banding across thread counts.
    let sets: Vec<Vec<u32>> = (0..matrix.n_rows())
        .map(|i| matrix.row(i).to_vec())
        .collect();
    let params = MinHashLshParams::default();
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("minhash", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    MinHashLsh::build_with(&sets, params, threads).candidate_pairs_with(threads)
                });
            },
        );
    }

    // DBSCAN grouping: connected-components kernel vs. the sequential
    // BFS expansion, both over one shared neighbourhood precompute so
    // only the grouping stage is timed.
    let dbscan = Dbscan::new(DbscanParams::exact_duplicates());
    let points = BinaryRows::new(&matrix, BinaryMetric::Hamming);
    let neighborhoods = all_range_queries_with(&points, dbscan.params().eps, 8);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("dbscan_group_cc", threads),
            &threads,
            |b, &threads| {
                b.iter(|| dbscan.group_cached_with(&neighborhoods, threads));
            },
        );
    }
    group.bench_function("dbscan_expand_baseline", |b| {
        b.iter(|| dbscan.fit_cached(&neighborhoods));
    });

    // HNSW construction (PR 8): the two-phase batched build across
    // thread counts vs. the sequential insert loop it parallelizes —
    // both over the packed adapter, both producing the bit-identical
    // graph (asserted by the cluster tests, so only time differs here).
    let hnsw_points = PackedPointSet::from_matrix(&matrix, 8);
    let hnsw_params = HnswParams::default();
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("hnsw_build", threads),
            &threads,
            |b, &threads| {
                b.iter(|| Hnsw::build_batched(&hnsw_points, hnsw_params, 64, threads));
            },
        );
    }
    group.bench_function("hnsw_build_seq_baseline", |b| {
        b.iter(|| Hnsw::build(&hnsw_points, hnsw_params));
    });

    // Hoisted eps-edge dedup ablation: the kernel's union loop processes
    // each unordered edge once (`q > p`); the loop it replaced unioned
    // both directions of every edge.
    let n_points = neighborhoods.len();
    group.bench_function("eps_edge_union_dedup", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n_points);
            for (p, neigh) in neighborhoods.iter().enumerate() {
                if neigh.len() < 2 {
                    continue;
                }
                for &q in neigh {
                    if q > p {
                        uf.union(p, q);
                    }
                }
            }
            uf.components()
        });
    });
    group.bench_function("eps_edge_union_nodedup", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n_points);
            for (p, neigh) in neighborhoods.iter().enumerate() {
                if neigh.len() < 2 {
                    continue;
                }
                for &q in neigh {
                    if q != p {
                        uf.union(p, q);
                    }
                }
            }
            uf.components()
        });
    });
    group.finish();

    // Per-stage thread counts from a full pipeline run, as recorded in
    // `Report::timings.threads` — printed so the bench log documents the
    // parallelism each stage actually used.
    let (ruam, rpam) = (sweep_matrix(800, 400, 0), sweep_matrix(800, 300, 1));
    for threads in THREAD_COUNTS {
        let cfg = DetectionConfig {
            parallelism: Parallelism::Threads(threads),
            ..DetectionConfig::default()
        };
        let report = Pipeline::new(cfg).run_on_matrices(&ruam, &rpam);
        let t = report.timings.threads;
        println!(
            "pipeline threads={threads}: degrees={} same(u)={} same(p)={} \
             transpose={} similar(u)={} similar(p)={} disjoint={} minhash={} \
             cluster_expand={} group_extract={} | total {:.2?}",
            t.degree_detectors,
            t.same_users,
            t.same_permissions,
            t.transpose,
            t.similar_users,
            t.similar_permissions,
            t.disjoint_supplement,
            t.minhash,
            t.cluster_expand,
            t.group_extract,
            report.timings.total(),
        );
    }
}

criterion_group!(benches, parallel_scaling);
criterion_main!(benches);
