//! Randomized validation of the simplex and branch-and-bound solvers.
//!
//! Previously written with proptest; now driven by a deterministic
//! generator so the workspace carries no external dependencies and every
//! run exercises the same cases.

use rsn_budget::Budget;
use rsn_ilp::{solve_ilp_under, solve_lp, IlpError, LpOutcome, Problem, VarId};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Integer in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

#[test]
fn lp_optimum_is_feasible_and_not_beaten_by_samples() {
    // Bounded-variable LPs with nonnegative constraint coefficients:
    // feasible (origin) and bounded (upper bounds).
    let mut rng = Rng(0x11b_0001);
    for _case in 0..96 {
        let n = 2 + rng.below(3) as usize;
        let mut p = Problem::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| p.add_var(format!("x{i}"), rng.range(-5, 5) as f64, Some(3.0)))
            .collect();
        let n_rows = 1 + rng.below(4);
        for _ in 0..n_rows {
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&v| (v, rng.range(0, 4) as f64)).collect();
            p.add_le(terms, rng.range(1, 12) as f64);
        }
        match solve_lp(&p) {
            LpOutcome::Optimal { objective, x } => {
                assert!(p.is_feasible(&x, 1e-6), "optimum must be feasible");
                assert!((p.objective_value(&x) - objective).abs() < 1e-6);
                for _ in 0..12 {
                    let cand: Vec<f64> = (0..n).map(|_| rng.below(4) as f64).collect();
                    if p.is_feasible(&cand, 1e-9) {
                        assert!(
                            p.objective_value(&cand) >= objective - 1e-6,
                            "sampled point beats the optimum"
                        );
                    }
                }
            }
            other => panic!("must be solvable: {other:?}"),
        }
    }
}

#[test]
fn ilp_matches_exhaustive_enumeration() {
    let mut rng = Rng(0x11b_0002);
    for _case in 0..96 {
        let n = 2 + rng.below(3) as usize;
        let mut p = Problem::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| p.add_binary_var(format!("x{i}"), rng.range(-6, 6) as f64))
            .collect();
        let n_rows = 1 + rng.below(3);
        for _ in 0..n_rows {
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&v| (v, rng.range(-3, 4) as f64)).collect();
            let rhs = rng.range(-2, 8) as f64;
            if rng.bool() {
                p.add_le(terms, rhs);
            } else {
                p.add_ge(terms, rhs);
            }
        }
        let mut best: Option<f64> = None;
        for m in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| f64::from((m >> j) & 1)).collect();
            if p.is_feasible(&x, 1e-9) {
                let v = p.objective_value(&x);
                best = Some(best.map_or(v, |b: f64| b.min(v)));
            }
        }
        match (solve_ilp_under(&p, &Budget::default()), best) {
            (Ok(sol), Some(b)) => {
                assert!(
                    (sol.objective - b).abs() < 1e-5,
                    "ilp {} vs brute {b}",
                    sol.objective
                );
                assert!(p.is_feasible(&sol.values, 1e-5));
            }
            (Err(IlpError::Infeasible), None) => {}
            (got, want) => panic!("mismatch {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn lp_relaxation_bounds_the_ilp() {
    // Minimization with negative costs and packing constraints: both LP
    // and ILP are feasible; LP optimum ≤ ILP optimum.
    let mut rng = Rng(0x11b_0003);
    for _case in 0..96 {
        let n = 2 + rng.below(3) as usize;
        let mut p = Problem::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| p.add_binary_var(format!("x{i}"), rng.range(-6, 0) as f64))
            .collect();
        let n_rows = 1 + rng.below(3);
        for _ in 0..n_rows {
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&v| (v, rng.range(0, 4) as f64)).collect();
            p.add_le(terms, rng.range(1, 10) as f64);
        }
        let lp = match solve_lp(&p) {
            LpOutcome::Optimal { objective, .. } => objective,
            other => panic!("lp must solve: {other:?}"),
        };
        let ilp = solve_ilp_under(&p, &Budget::default())
            .expect("feasible")
            .objective;
        assert!(lp <= ilp + 1e-6, "lp {lp} must lower-bound ilp {ilp}");
    }
}

#[test]
fn solution_telemetry_is_populated() {
    // Every solved ILP reports at least one explored node and at least one
    // simplex iteration (the root relaxation).
    let mut p = Problem::new();
    let x = p.add_binary_var("x", 1.0);
    let y = p.add_binary_var("y", 1.0);
    p.add_ge([(x, 2.0), (y, 2.0)], 3.0);
    let sol = solve_ilp_under(&p, &Budget::default()).expect("solvable");
    assert!(sol.nodes >= 1, "nodes {}", sol.nodes);
    assert!(sol.simplex_iters >= 1, "iters {}", sol.simplex_iters);
    assert_eq!(sol.cut_rounds, 0, "plain solve performs no cut rounds");
}
