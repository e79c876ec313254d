//! SAT-backed static verification of reconfigurable scan networks.
//!
//! This crate *proves* properties over all configurations instead of
//! sampling them, so no rare misconfiguration slips through: every select
//! predicate is checked for satisfiability and for agreement with
//! active-scan-path membership by a SAT query over the network's control
//! CNF, multiplexer decode logic is checked per input, and shadow
//! registers that feed control logic are proven placeable on a scan path.
//! Graph passes cover reachability, cyclic control dependencies (SCC) and
//! — given the synthesis's augmentation edges — redundant fault-tolerance
//! edges that raise no vertex-independent path count.
//!
//! Findings come back as [`Diagnostic`]s with stable `RSN0xx` codes,
//! severities, node provenance and — for existence findings — a witness
//! [`Config`](rsn_core::Config) that reproduces the issue through the
//! simulator. See `DESIGN.md` for the full check catalog.
//!
//! ```
//! let rsn = rsn_core::examples::fig2();
//! let report = rsn_verify::verify(&rsn);
//! assert!(report.is_clean());
//! println!("{}", report.render());
//! ```

mod augment;
mod checks;
mod cone;
mod diag;
mod encode;
mod explain;

pub use augment::{ineffective_augmentation, IneffectiveEdge};
pub use cone::cone_of_influence;
pub use diag::{Code, Diagnostic, Severity, VerifyReport};
pub use encode::{ClauseOrigin, NetworkSat, SatScratch};
pub use explain::{
    explain_report, replay_eliminates, ControlBitFix, Explanation, RepairAction, RepairHint,
};

use rsn_budget::Budget;
use rsn_core::Rsn;

/// Options of [`verify_under`]. Every check family runs; only the select
/// family can be switched off.
///
/// Select checks are meaningless on networks whose selects were never
/// materialized (`SelectMode::Never` leaves constant-true placeholders);
/// callers synthesizing such networks disable them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Per-segment select satisfiability and select/path agreement
    /// (`RSN001`, `RSN002`).
    pub select_checks: bool,
    /// Solver threads for the SAT-backed families: `1` (the default)
    /// keeps every query on the bit-reproducible serial CDCL loop,
    /// larger values route queries through the portfolio solver
    /// ([`rsn_sat::Solver::set_threads`]).
    pub solver_threads: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            select_checks: true,
            solver_threads: 1,
        }
    }
}

impl VerifyOptions {
    /// Options for networks with placeholder (non-materialized) selects:
    /// select-predicate checks are off, everything else on.
    pub fn without_select_checks() -> Self {
        VerifyOptions {
            select_checks: false,
            ..VerifyOptions::default()
        }
    }
}

/// Verifies `rsn` with every check enabled and no budget limit.
pub fn verify(rsn: &Rsn) -> VerifyReport {
    verify_under(rsn, VerifyOptions::default(), &Budget::default())
}

/// Verifies `rsn` with the check families `opts` selects, bounded by a
/// [`Budget`].
///
/// Builds one CNF model of the network's control logic and active-path
/// membership, then answers every semantic question with an incremental
/// assumption query against it. The returned report orders diagnostics
/// by check family, then by node.
///
/// One work unit is spent per check family. Families the budget starves
/// are recorded in [`VerifyReport::incomplete`] — their properties are
/// *unproven*, never silently passed — and `lint.incomplete` /
/// `budget.exhausted` events are counted. A SAT-backed family with an
/// undecided query (a cancelled solve) is recorded there too; its
/// decided queries still report. The SAT queries themselves run without
/// a limit.
pub fn verify_under(rsn: &Rsn, opts: VerifyOptions, budget: &Budget) -> VerifyReport {
    verify_impl(rsn, opts, budget, None)
}

/// Like [`verify_under`], but queries a prebuilt shared [`NetworkSat`]
/// instead of encoding the CNF itself. Resident callers (rsn-serve)
/// cache the model per network and pass it here, so repeat verification
/// of the same network skips construction entirely; solver state still
/// lives in a private per-call scratch, so concurrent calls against one
/// model are safe.
///
/// `sat` must have been built from this same `rsn`.
pub fn verify_on(
    rsn: &Rsn,
    sat: &NetworkSat,
    opts: VerifyOptions,
    budget: &Budget,
) -> VerifyReport {
    verify_impl(rsn, opts, budget, Some(sat))
}

fn verify_impl(
    rsn: &Rsn,
    opts: VerifyOptions,
    budget: &Budget,
    shared: Option<&NetworkSat>,
) -> VerifyReport {
    // Chaos failpoint: injected errors / budget exhaustion cancel the
    // budget, so every check family lands in `incomplete` (unproven,
    // never silently passed).
    if rsn_fail::eval("verify.run").is_some() {
        budget.cancel();
    }
    let _trace = rsn_obs::TraceGuard::new("verify");
    let start = std::time::Instant::now();
    let mut report = VerifyReport {
        network: rsn.name().to_string(),
        nodes: rsn.node_count(),
        ..VerifyReport::default()
    };

    if budget.check().is_ok() {
        report.checks_run.push("structural");
        report.diagnostics.extend(checks::structural(rsn));
    } else {
        report.incomplete.push("structural");
    }

    // Built lazily so a fully starved run skips the CNF encoding (unless
    // a resident caller already holds a shared model). The model is
    // immutable; this run's solver state lives in its own scratch.
    let mut owned: Option<NetworkSat> = None;
    let mut scratch: Option<SatScratch> = None;
    let sat_families: [(_, _, fn(&_, &_, &mut _) -> _); 3] = [
        (opts.select_checks, "selects", checks::select_checks),
        (true, "muxes", checks::mux_checks),
        (true, "controllability", checks::controllability),
    ];
    for (enabled, family, check) in sat_families {
        if !enabled {
            continue;
        }
        if budget.check().is_err() {
            report.incomplete.push(family);
            continue;
        }
        let sat = match shared {
            Some(s) => s,
            None => owned.get_or_insert_with(|| NetworkSat::build(rsn)),
        };
        let scr = scratch.get_or_insert_with(|| {
            let mut s = sat.scratch();
            s.set_threads(opts.solver_threads);
            s
        });
        let (diagnostics, decided) = check(rsn, sat, scr);
        report.diagnostics.extend(diagnostics);
        if decided {
            report.checks_run.push(family);
        } else {
            report.incomplete.push(family);
        }
    }
    if let Some(scr) = &scratch {
        report.sat_queries = scr.queries();
    }

    if budget.check().is_ok() {
        report.checks_run.push("control-cycles");
        report.diagnostics.extend(checks::control_cycles(rsn));
    } else {
        report.incomplete.push("control-cycles");
    }

    rsn_obs::counter_add("lint.runs", 1);
    rsn_obs::counter_add("lint.errors", report.error_count() as u64);
    rsn_obs::counter_add("lint.warnings", report.warning_count() as u64);
    rsn_obs::counter_add("lint.sat_queries", report.sat_queries as u64);
    // One attribution unit per check family that actually ran (the SAT
    // work inside is attributed to the sat engine by the solver itself).
    rsn_obs::counter_add(
        "budget.spent{engine=verify}",
        report.checks_run.len() as u64,
    );
    if !report.incomplete.is_empty() {
        rsn_obs::counter_add("lint.incomplete", report.incomplete.len() as u64);
        rsn_obs::counter_add("budget.exhausted", 1);
        let reason = budget.exhausted().map_or("work_limit", |r| r.as_str());
        rsn_obs::record_budget_trip("verify", reason);
    }
    rsn_obs::gauge_set("lint.verify_ms", start.elapsed().as_secs_f64() * 1e3);

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::{examples, ControlExpr, RsnBuilder};

    #[test]
    fn example_networks_verify_clean() {
        for rsn in [
            examples::fig2(),
            examples::chain(4, 8),
            examples::sib_tree(2, 2, 4),
        ] {
            let report = verify(&rsn);
            assert!(
                report.is_clean(),
                "{} not clean:\n{}",
                rsn.name(),
                report.render()
            );
            assert_eq!(report.warning_count(), 0, "{}", report.render());
            assert!(report.sat_queries > 0);
        }
    }

    #[test]
    fn small_chain_and_sib_tree_verify_clean() {
        for rsn in [examples::chain(3, 2), examples::sib_tree(1, 2, 3)] {
            let report = verify(&rsn);
            assert!(
                report.is_clean(),
                "{} not clean:\n{}",
                rsn.name(),
                report.render()
            );
            assert_eq!(report.warning_count(), 0, "{}", report.render());
        }
    }

    #[test]
    fn unsatisfiable_select_is_proven_never_selected() {
        // select = in0 AND NOT in0 — the solver proves it unsatisfiable
        // without enumerating.
        let mut b = RsnBuilder::new("unsat-select");
        let i = b.add_inputs(1);
        let s = b.add_segment("seg", 4);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        b.set_select(
            s,
            ControlExpr::And(vec![
                ControlExpr::input(i),
                ControlExpr::Not(Box::new(ControlExpr::input(i))),
            ]),
        );
        let rsn = b.finish().unwrap();
        assert_never_selected_and_mismatched(&rsn, s);
    }

    #[test]
    fn constant_false_select_is_never_selected_and_mismatched() {
        // The builder's default select is the constant `false`.
        let mut b = RsnBuilder::new("w");
        let s = b.add_segment("S", 1);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let rsn = b.finish().expect("valid structure");
        assert_never_selected_and_mismatched(&rsn, s);
    }

    /// `s` is reported as never selected (RSN002) and, being always on the
    /// structural path, as a select/path mismatch (RSN001) with a witness.
    fn assert_never_selected_and_mismatched(rsn: &Rsn, s: rsn_core::NodeId) {
        let report = verify(rsn);
        let on_s: Vec<Code> = report
            .diagnostics
            .iter()
            .filter(|d| d.node == Some(s))
            .map(|d| d.code)
            .collect();
        assert!(on_s.contains(&Code::NeverSelected), "{}", report.render());
        let mismatch = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SelectPathMismatch && d.node == Some(s))
            .expect("mismatch diagnostic");
        assert!(mismatch.witness.is_some());
        assert!(!report.is_clean());
    }

    #[test]
    fn constant_false_mux_address_never_switches() {
        let mut b = RsnBuilder::new("w");
        let s1 = b.add_segment("S1", 1);
        let s2 = b.add_segment("S2", 1);
        b.set_select(s1, ControlExpr::TRUE);
        b.set_select(s2, ControlExpr::FALSE);
        b.connect(b.scan_in(), s1);
        b.connect(s1, s2);
        let m = b.add_mux("M", vec![s1, s2], vec![ControlExpr::FALSE]);
        b.connect(m, b.scan_out());
        let rsn = b.finish().expect("valid structure");
        let report = verify(&rsn);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::MuxNeverSwitches && d.node == Some(m)),
            "{}",
            report.render()
        );
    }

    #[test]
    fn structural_pass_flags_only_the_dead_end_segment() {
        for rsn in [
            examples::fig2(),
            examples::chain(4, 2),
            examples::sib_tree(1, 2, 3),
        ] {
            assert!(checks::structural(&rsn).is_empty(), "{}", rsn.name());
        }
        // `spur` hangs off the scan-in with no route to a scan-out port.
        let mut b = RsnBuilder::new("spur");
        let live = b.add_segment("live", 2);
        let spur = b.add_segment("spur", 2);
        b.set_select(live, ControlExpr::TRUE);
        b.connect(b.scan_in(), live);
        b.connect(live, b.scan_out());
        b.connect(b.scan_in(), spur);
        let rsn = b.finish().expect("valid structure");
        let found: Vec<(Code, Option<rsn_core::NodeId>)> = checks::structural(&rsn)
            .iter()
            .map(|d| (d.code, d.node))
            .collect();
        assert_eq!(found, vec![(Code::CannotReachScanOut, Some(spur))]);
    }

    /// Two parallel branches behind a mux, but branch selects ignore the
    /// mux address: whichever branch is deselected while routed is a
    /// select/path mismatch.
    fn mux_mismatch_network() -> Rsn {
        let mut b = RsnBuilder::new("mismatch");
        let i = b.add_inputs(1);
        let a = b.add_segment("a", 2);
        let c = b.add_segment("c", 2);
        let m = b.add_mux("m", vec![a, c], vec![ControlExpr::input(i)]);
        b.connect(b.scan_in(), a);
        b.connect(b.scan_in(), c);
        b.connect(m, b.scan_out());
        b.set_select(a, ControlExpr::Const(true));
        b.set_select(c, ControlExpr::Const(true));
        b.finish().unwrap()
    }

    #[test]
    fn simulated_select_path_mismatches_are_proven() {
        // Probe the reset configuration and each single-input flip in the
        // simulator; every mismatch it sees must be an RSN001 finding.
        let mut mismatches_seen = 0;
        for rsn in [
            examples::fig2(),
            examples::chain(3, 5),
            examples::sib_tree(2, 3, 4),
            mux_mismatch_network(),
        ] {
            let report = verify(&rsn);
            let reset = rsn.reset_config();
            let mut cfgs = vec![reset.clone()];
            for i in 0..reset.num_inputs() {
                let id = rsn_core::InputId(i as u32);
                let mut c = reset.clone();
                c.set_input(id, !c.input(id));
                cfgs.push(c);
            }
            for cfg in &cfgs {
                let path = rsn.trace_path(cfg).expect("traceable");
                for seg in rsn.segments() {
                    if rsn.select(seg, cfg).unwrap() == path.contains(seg) {
                        continue;
                    }
                    mismatches_seen += 1;
                    assert!(
                        report
                            .diagnostics
                            .iter()
                            .any(|d| { d.code == Code::SelectPathMismatch && d.node == Some(seg) }),
                        "{}: the simulator sees {} mismatch, verify does not:\n{}",
                        rsn.name(),
                        rsn.node(seg).name(),
                        report.render()
                    );
                }
            }
        }
        assert!(mismatches_seen > 0, "no network exercised the oracle");
    }

    #[test]
    fn select_path_mismatch_witness_replays_through_simulator() {
        // The witness must reproduce each mismatch in the simulator.
        let rsn = mux_mismatch_network();
        let report = verify(&rsn);
        let mismatches: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::SelectPathMismatch)
            .collect();
        assert!(!mismatches.is_empty(), "{}", report.render());
        for d in &mismatches {
            let seg = d.node.unwrap();
            let cfg = d.witness.as_ref().expect("witness");
            let on_path = rsn
                .trace_path(cfg)
                .map(|p| p.contains(seg))
                .unwrap_or(false);
            let selected = rsn.select(seg, cfg).unwrap();
            assert_ne!(
                selected, on_path,
                "witness does not reproduce the mismatch for {}",
                d.node_name
            );
        }
    }

    #[test]
    fn dead_mux_input_and_overflow_are_found() {
        // A 3-input mux on 2 address bits where bit1 is tied low: input 2
        // is dead and address 3 (binary 11) is unreachable... tie bit1
        // high instead so address can overflow to 3.
        let mut b = RsnBuilder::new("mux-overflow");
        let i = b.add_inputs(1);
        let s0 = b.add_segment("s0", 1);
        let s1 = b.add_segment("s1", 1);
        let s2 = b.add_segment("s2", 1);
        let m = b.add_mux(
            "m",
            vec![s0, s1, s2],
            vec![ControlExpr::input(i), ControlExpr::input(i)],
        );
        b.connect(b.scan_in(), s0);
        b.connect(b.scan_in(), s1);
        b.connect(b.scan_in(), s2);
        b.connect(m, b.scan_out());
        let rsn = b.finish().unwrap();

        let report = verify(&rsn);
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        // addr = (i, i): reaches 00 and 11 only → inputs 1 and 2 dead at
        // most one alive... actually 00 selects input 0, 11 overflows.
        assert!(
            codes.contains(&Code::MuxAddressOverflow),
            "{}",
            report.render()
        );
        let overflow = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::MuxAddressOverflow)
            .unwrap();
        let cfg = overflow.witness.as_ref().expect("witness");
        assert!(rsn.mux_selected_input(m, cfg).is_err());
        assert!(!report.is_clean());
    }

    #[test]
    fn options_disable_check_families() {
        let rsn = examples::fig2();
        let report = verify_under(
            &rsn,
            VerifyOptions {
                select_checks: false,
                solver_threads: 1,
            },
            &Budget::default(),
        );
        assert!(!report.checks_run.contains(&"selects"));
        assert!(report.checks_run.contains(&"structural"));
        // The select family's queries are the ones skipped.
        assert!(report.sat_queries < verify(&rsn).sat_queries);
    }

    #[test]
    fn zero_budget_marks_every_family_incomplete() {
        let rsn = examples::fig2();
        let budget = Budget::unlimited().with_work_limit(0);
        let report = verify_under(&rsn, VerifyOptions::default(), &budget);
        assert!(!report.is_complete());
        assert!(report.checks_run.is_empty());
        assert_eq!(
            report.incomplete,
            vec![
                "structural",
                "selects",
                "muxes",
                "controllability",
                "control-cycles"
            ]
        );
        // Starved checks never issue SAT queries and never claim findings.
        assert_eq!(report.sat_queries, 0);
        assert!(report.diagnostics.is_empty());
        // The starvation is loud in both renderings: the summary line
        // plus one explicit UNPROVEN marker per starved family.
        assert!(report.render().contains("INCOMPLETE"));
        for fam in &report.incomplete {
            assert!(
                report.render().contains(&format!("UNPROVEN {fam}")),
                "missing UNPROVEN marker for {fam}:\n{}",
                report.render()
            );
        }
        assert!(report
            .to_json()
            .to_string_pretty(0)
            .contains("\"incomplete\""));
    }

    #[test]
    fn partial_budget_keeps_completed_family_results() {
        let rsn = examples::fig2();
        // Two work units: structural and selects run, the rest starve.
        let budget = Budget::unlimited().with_work_limit(2);
        let report = verify_under(&rsn, VerifyOptions::default(), &budget);
        assert_eq!(report.checks_run, vec!["structural", "selects"]);
        assert_eq!(
            report.incomplete,
            vec!["muxes", "controllability", "control-cycles"]
        );
        assert!(report.sat_queries > 0, "the selects family did run");
    }

    #[test]
    fn unlimited_budget_verify_matches_unbudgeted() {
        let rsn = examples::fig2();
        let plain = verify(&rsn);
        let budgeted = verify_under(&rsn, VerifyOptions::default(), &Budget::unlimited());
        assert_eq!(plain, budgeted);
        assert!(budgeted.is_complete());
        assert!(!budgeted.render().contains("INCOMPLETE"));
    }

    #[test]
    fn verify_on_shared_model_matches_owned_build() {
        let rsn = examples::fig2();
        let sat = NetworkSat::build(&rsn);
        let owned = verify(&rsn);
        // Two calls against the same shared model: each gets a private
        // scratch, so both match the owned-build report exactly.
        for _ in 0..2 {
            let shared = verify_on(&rsn, &sat, VerifyOptions::default(), &Budget::unlimited());
            assert_eq!(owned, shared);
        }
    }

    #[test]
    fn report_json_has_stable_shape() {
        let rsn = examples::fig2();
        let report = verify(&rsn);
        let json = report.to_json().to_string_pretty(0);
        assert!(json.contains("\"network\""));
        assert!(json.contains("\"diagnostics\""));
        assert!(json.contains("\"sat_queries\""));
    }
}
