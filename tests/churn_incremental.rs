//! Churn × incremental × batch: the incremental pipeline tracks a live,
//! churning organization and always agrees with the batch pipeline; the
//! events' ground truth surfaces in the reports.

use rolediet::core::incremental::IncrementalPipeline;
use rolediet::core::{DetectionConfig, Pipeline};
use rolediet::matrix::RowMatrix;
use rolediet::synth::churn::{ChurnConfig, ChurnSimulator, ChurnWeights};

#[test]
fn departed_users_and_decommissioned_assets_are_detected() {
    let mut sim = ChurnSimulator::new(ChurnConfig {
        seed: 3,
        ..ChurnConfig::default()
    });
    sim.run(1_500);
    let report = Pipeline::new(DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    })
    .run(sim.graph());
    // Every departed user that is still role-less must be in the report
    // (and the report cannot contain a user that has roles).
    let standalone: std::collections::HashSet<usize> =
        report.standalone_users.iter().copied().collect();
    for &u in sim.departed_users() {
        let has_roles = sim.graph().roles_of_user(u).next().is_some();
        assert_eq!(
            !has_roles,
            standalone.contains(&u.index()),
            "user {u} misclassified"
        );
    }
    // Same for decommissioned permissions.
    let standalone: std::collections::HashSet<usize> =
        report.standalone_permissions.iter().copied().collect();
    for &p in sim.decommissioned_permissions() {
        let granted = sim.graph().roles_of_permission(p).next().is_some();
        assert_eq!(
            !granted,
            standalone.contains(&p.index()),
            "perm {p} misclassified"
        );
    }
}

#[test]
fn incremental_index_tracks_a_churning_ruam() {
    // The incrementally maintained T4 groups must equal a batch
    // recomputation over the current RUAM and RPAM after every burst.
    // Hires widen the RUAM between bursts; signatures do not depend on
    // the width, so the pipeline only replays the burst's edge deltas.
    let mut sim = ChurnSimulator::new(ChurnConfig {
        seed: 8,
        weights: ChurnWeights {
            // A fixed role set: no create/clone events, so bursts only
            // flip edges and add users or permissions.
            create_role: 0.0,
            clone_role: 0.0,
            ..ChurnWeights::default()
        },
        ..ChurnConfig::default()
    });
    let config = DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    };
    let mut inc = IncrementalPipeline::new(sim.graph(), config);
    let roles = sim.graph().n_roles();
    for burst in 0..20 {
        sim.run(50);
        inc.apply_all(&sim.drain_deltas()).unwrap();
        assert_eq!(inc.graph(), sim.graph(), "burst {burst}");
        let report = inc.report();
        for (side, current, groups) in [
            ("users", sim.graph().ruam_sparse(), &report.same_user_groups),
            (
                "perms",
                sim.graph().rpam_sparse(),
                &report.same_permission_groups,
            ),
        ] {
            assert_eq!(current.rows(), roles, "role count fixed by weights");
            let batch: Vec<Vec<usize>> = rolediet::core::cooccur::same_groups(&current)
                .into_iter()
                .filter(|g| current.row_norm(g[0]) > 0)
                .collect();
            assert_eq!(groups, &batch, "burst {burst} {side}");
        }
    }
}

#[test]
fn clone_heavy_churn_produces_detectable_duplicates() {
    let mut sim = ChurnSimulator::new(ChurnConfig {
        seed: 14,
        weights: ChurnWeights {
            clone_role: 12.0,
            drift_role: 0.5,
            ..ChurnWeights::default()
        },
        ..ChurnConfig::default()
    });
    sim.run(600);
    let report = Pipeline::new(DetectionConfig {
        skip_similarity: true,
        ..DetectionConfig::default()
    })
    .run(sim.graph());
    assert!(
        !sim.clone_events().is_empty()
            && (!report.same_user_groups.is_empty() || !report.same_permission_groups.is_empty()),
        "clone-heavy churn must surface T4 findings"
    );
}
