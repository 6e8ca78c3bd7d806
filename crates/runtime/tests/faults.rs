//! The fault matrix, part 1: robust gathering is never silently wrong.
//!
//! A seeded grid of fault plans (drop rates × delay bounds × duplication ×
//! corruption × crash sets) is crossed with graph generators and radii, and
//! three invariants are pinned for every cell:
//!
//! 1. **Fault-free ⇒ bit-identical.** On a fault-free transport,
//!    [`run_gathered_robust`] matches the direct executor ([`run_local`] +
//!    ball collection) in exactly `radius` rounds, whatever the spare
//!    budget, with a zero fault tally.
//! 2. **Recoverable ⇒ heals exactly.** Under content-preserving plans
//!    (drops, duplication, delays — no corruption, no crashes) with enough
//!    round budget, the output is still bit-identical and
//!    `rounds_used ≤ budget`.
//! 3. **Unrecoverable ⇒ loud.** Under corrupting or crashing plans, every
//!    run either returns the *correct* views or a typed [`GatherError`] —
//!    an `Ok` that differs from the truth never escapes.
//!
//! Every cell is additionally replayed: the same seed and plan must
//! reproduce identical outputs/errors and an identical [`FaultStats`]
//! tally, whatever the thread count.
//!
//! Part 2 (`tests/fault_schemas.rs` at the workspace root) runs the same
//! discipline through the advice-schema decoders and their checkers.

use lad_graph::{generators, Graph, IdAssignment, NodeId};
use lad_runtime::canonical::canonicalize;
use lad_runtime::{
    run_gathered_robust, run_local, CanonicalKey, FaultPlan, FaultStats, GatherError, Network,
    PerfectLink,
};

/// The graph × radius grid every plan is run against.
fn arenas() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("cycle", generators::cycle(18), 3),
        ("grid", generators::grid2d(5, 4, false), 2),
        ("star", generators::star(7), 1),
        ("sparse", generators::random_bounded_degree(28, 5, 56, 3), 2),
        ("tree", generators::balanced_tree(3, 3), 2),
    ]
}

fn network(g: &Graph, seed: u64) -> Network {
    Network::with_ids(g.clone(), IdAssignment::random_permutation(g.n(), seed))
}

/// Ground truth for a network: canonical keys of every node's true ball.
fn truth(net: &Network, radius: usize) -> Vec<CanonicalKey> {
    let (keys, _) = run_local(net, |ctx| canonicalize(&ctx.ball(radius), |_| 0));
    keys
}

/// Runs the robust gather under `plan`, returning the canonical outputs or
/// the typed error, plus the transport's fault tally.
fn run_cell(
    net: &Network,
    radius: usize,
    budget: usize,
    plan: &FaultPlan,
) -> (Result<(Vec<CanonicalKey>, usize), GatherError>, FaultStats) {
    let mut transport = plan.start();
    let res = run_gathered_robust(net, radius, budget, &mut transport, |ball| {
        canonicalize(ball, |_| 0)
    })
    .map(|(outs, report)| (outs, report.rounds_used));
    (res, lad_runtime::Transport::fault_stats(&transport))
}

// ---------------------------------------------------------------------------
// Invariant 1: fault-free runs are bit-identical to the direct executor.
// ---------------------------------------------------------------------------

#[test]
fn invariant1_fault_free_matrix_is_bit_identical() {
    for (name, g, radius) in arenas() {
        let net = network(&g, 11);
        let expected = truth(&net, radius);
        // A bare PerfectLink with no spare round.
        let (plain, report) = run_gathered_robust(&net, radius, radius, &mut PerfectLink, |ball| {
            canonicalize(ball, |_| 0)
        })
        .expect("a perfect link cannot fail");
        assert_eq!(plain, expected, "{name}: PerfectLink vs executor");
        assert_eq!(report.rounds_used, radius, "{name}: fault-free rounds");
        assert_eq!(report.faults.total_faults(), 0, "{name}: phantom faults");

        // A fault-free FaultRun and a PerfectLink with spare budget must
        // match too, spending none of it.
        for seed in [0u64, 7, 99] {
            let plan = FaultPlan::new(seed);
            assert!(plan.is_fault_free());
            let (res, stats) = run_cell(&net, radius, radius + 5, &plan);
            let (outs, rounds_used) = res.expect("fault-free plan cannot fail");
            assert_eq!(outs, expected, "{name} seed {seed}");
            assert_eq!(rounds_used, radius, "{name}: extra rounds spent");
            assert_eq!(stats.total_faults(), 0, "{name}: phantom faults");
        }
        let (robust, report) =
            run_gathered_robust(&net, radius, radius + 5, &mut PerfectLink, |ball| {
                canonicalize(ball, |_| 0)
            })
            .unwrap();
        assert_eq!(robust, expected, "{name}: PerfectLink");
        assert_eq!(report.rounds_used, radius);
        assert_eq!(report.faults.total_faults(), 0);
    }
}

// ---------------------------------------------------------------------------
// Invariant 2: content-preserving plans heal within the budget.
// ---------------------------------------------------------------------------

/// Drop × delay × duplication grid, all content-preserving.
fn recoverable_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop10", FaultPlan::new(seed).drop_rate(0.10)),
        ("drop30", FaultPlan::new(seed).drop_rate(0.30)),
        ("delay2", FaultPlan::new(seed).delay(0.5, 2)),
        ("dup20", FaultPlan::new(seed).duplicate_rate(0.20)),
        (
            "drop+delay",
            FaultPlan::new(seed).drop_rate(0.15).delay(0.3, 2),
        ),
        (
            "drop+dup+delay",
            FaultPlan::new(seed)
                .drop_rate(0.20)
                .duplicate_rate(0.20)
                .delay(0.25, 3),
        ),
    ]
}

#[test]
fn invariant2_recoverable_plans_heal_bit_identically() {
    for (name, g, radius) in arenas() {
        let net = network(&g, 13);
        let expected = truth(&net, radius);
        let budget = radius + 40; // generous: flooding re-sends everything every round
        for seed in [21u64, 22, 23] {
            for (plan_name, plan) in recoverable_plans(seed) {
                assert!(plan.is_content_preserving());
                let (res, stats) = run_cell(&net, radius, budget, &plan);
                let (outs, rounds_used) = res.unwrap_or_else(|e| {
                    panic!("{name}/{plan_name} seed {seed}: did not heal: {e}")
                });
                assert_eq!(outs, expected, "{name}/{plan_name} seed {seed}");
                assert!(
                    rounds_used <= budget,
                    "{name}/{plan_name}: {rounds_used} > {budget}"
                );
                // The plan really did something (drop30 etc. at these sizes
                // always fires at least once).
                if plan_name != "delay2" && plan_name != "dup20" {
                    assert!(stats.dropped > 0, "{name}/{plan_name}: inert plan");
                }
            }
        }
    }
}

#[test]
fn recovery_spends_extra_rounds_only_when_needed() {
    // With drops, healing may take longer than the fault-free radius; the
    // report must say so honestly.
    let g = generators::cycle(16);
    let net = network(&g, 5);
    let radius = 3;
    let mut saw_extra = false;
    for seed in 0..8u64 {
        let plan = FaultPlan::new(seed).drop_rate(0.35);
        let (res, _) = run_cell(&net, radius, radius + 40, &plan);
        let (_, rounds_used) = res.expect("budget is generous");
        assert!(rounds_used >= radius);
        saw_extra |= rounds_used > radius;
    }
    assert!(saw_extra, "35% drops never cost a single extra round");
}

// ---------------------------------------------------------------------------
// Invariant 3: corrupting / crashing plans are loud, never silently wrong.
// ---------------------------------------------------------------------------

/// Plans that may corrupt payloads or crash nodes — the unrecoverable grid.
fn hostile_plans(seed: u64, g: &Graph) -> Vec<(&'static str, FaultPlan)> {
    let last = NodeId(g.n() as u32 - 1);
    vec![
        ("corrupt5", FaultPlan::new(seed).corrupt_rate(0.05)),
        ("corrupt20", FaultPlan::new(seed).corrupt_rate(0.20)),
        (
            "corrupt+drop",
            FaultPlan::new(seed).corrupt_rate(0.05).drop_rate(0.15),
        ),
        ("crash-early", FaultPlan::new(seed).crash(NodeId(0), 0)),
        (
            "crash-two",
            FaultPlan::new(seed).crash(NodeId(1), 1).crash(last, 2),
        ),
        (
            "crash+corrupt",
            FaultPlan::new(seed).crash(NodeId(0), 1).corrupt_rate(0.10),
        ),
    ]
}

#[test]
fn invariant3_hostile_plans_never_return_silently_wrong_views() {
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for (name, g, radius) in arenas() {
        let net = network(&g, 17);
        let expected = truth(&net, radius);
        let budget = radius + 12;
        for seed in [31u64, 32, 33, 34] {
            for (plan_name, plan) in hostile_plans(seed, &g) {
                let (res, _) = run_cell(&net, radius, budget, &plan);
                match res {
                    Ok((outs, _)) => {
                        // Acceptance is only sound if the views are the
                        // true ones — this is the "never silently wrong"
                        // assertion.
                        assert_eq!(
                            outs, expected,
                            "{name}/{plan_name} seed {seed}: accepted wrong views"
                        );
                        accepted += 1;
                    }
                    Err(GatherError::PartialView {
                        missing,
                        rounds_used,
                    }) => {
                        assert!(!missing.is_empty());
                        assert_eq!(rounds_used, budget, "gave up before the budget");
                        rejected += 1;
                    }
                    Err(GatherError::CorruptView { reason, .. }) => {
                        assert!(!reason.is_empty());
                        rejected += 1;
                    }
                }
            }
        }
    }
    // The grid must exercise both outcomes, or the matrix proves nothing.
    assert!(accepted > 0, "no hostile cell ever recovered");
    assert!(rejected > 0, "no hostile cell was ever rejected");
}

#[test]
fn blackout_reports_every_view_as_partial() {
    let g = generators::grid2d(4, 4, false);
    let net = network(&g, 19);
    let plan = FaultPlan::new(40).drop_rate(1.0);
    let (res, stats) = run_cell(&net, 2, 8, &plan);
    match res {
        Err(GatherError::PartialView {
            missing,
            rounds_used,
        }) => {
            assert_eq!(missing.len(), g.n(), "every node is starved");
            assert_eq!(rounds_used, 8);
        }
        other => panic!("expected PartialView, got {other:?}"),
    }
    assert_eq!(stats.delivered, 0);
    assert!(stats.dropped > 0);
}

#[test]
fn crashed_center_is_reported_missing_by_its_neighborhood() {
    // Crash node 0 before it can ever announce itself: every node within
    // the radius of node 0 must end in PartialView listing node 0's uid.
    let g = generators::cycle(10);
    let net = network(&g, 23);
    let crashed_uid = net.uid(NodeId(0));
    let plan = FaultPlan::new(50).crash(NodeId(0), 0);
    let (res, _) = run_cell(&net, 2, 10, &plan);
    match res {
        Err(GatherError::PartialView { missing, .. }) => {
            assert!(
                missing.contains(&crashed_uid),
                "crashed node's uid must be among the missing: {missing:?}"
            );
        }
        other => panic!("expected PartialView, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Reproducibility: the whole matrix is a pure function of (seed, plan).
// ---------------------------------------------------------------------------

#[test]
fn every_cell_replays_identically() {
    for (name, g, radius) in arenas() {
        let net = network(&g, 29);
        let budget = radius + 10;
        let mut plans = recoverable_plans(77);
        plans.extend(hostile_plans(77, &g));
        plans.push(("fault-free", FaultPlan::new(77)));
        for (plan_name, plan) in plans {
            let (res_a, stats_a) = run_cell(&net, radius, budget, &plan);
            let (res_b, stats_b) = run_cell(&net, radius, budget, &plan);
            assert_eq!(
                format!("{res_a:?}"),
                format!("{res_b:?}"),
                "{name}/{plan_name}: outcome not reproducible"
            );
            assert_eq!(stats_a, stats_b, "{name}/{plan_name}: stats drifted");
        }
    }
}

#[test]
fn different_seeds_produce_different_fault_patterns() {
    // Sanity check that the seed actually steers the plan: across many
    // seeds the tallies cannot all coincide.
    let g = generators::grid2d(5, 4, false);
    let net = network(&g, 31);
    let tallies: Vec<FaultStats> = (0..6u64)
        .map(|seed| {
            let plan = FaultPlan::new(seed).drop_rate(0.3);
            run_cell(&net, 2, 12, &plan).1
        })
        .collect();
    assert!(
        tallies.windows(2).any(|w| w[0] != w[1]),
        "six seeds, one tally: the seed is ignored"
    );
}
