//! Cross-validation of the exhaustive SAT-backed verifier (`rsn-verify`)
//! against the three other oracles in the workspace:
//!
//! 1. the legacy sampled `Rsn::lint` — the verifier's findings must be a
//!    superset on every example network and embedded benchmark tried;
//! 2. the cycle-accurate simulator — every SAT-derived witness
//!    configuration must reproduce its finding through `trace_path`;
//! 3. `rsn_bmc::verify_select_consistency` — the two independent SAT
//!    encodings must agree on select/path consistency (restricted to
//!    networks with a single scan-out port, the BMC encoding's domain);
//!
//! plus the end-to-end acceptance gate: the Table-1 synthesis flow with
//! verification enabled reports zero error-severity diagnostics.

use ftrsn::bmc::verify_select_consistency;
use ftrsn::core::examples::{chain, fig2, sib_tree};
use ftrsn::core::{ControlExpr, LintWarning, NodeKind, Rsn, RsnBuilder};
use ftrsn::itc02::by_name;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};
use ftrsn::verify::{verify, Code, Severity};

fn example_networks() -> Vec<Rsn> {
    vec![fig2(), chain(4, 8), sib_tree(2, 2, 4)]
}

fn embedded_networks() -> Vec<Rsn> {
    ["u226", "d281", "d695"]
        .iter()
        .map(|n| generate(&by_name(n).expect("embedded SoC")).expect("generate"))
        .collect()
}

/// Same (code, node) finding; the solver's witness need not equal the
/// sampled one.
fn same_finding(a: &LintWarning, b: &LintWarning) -> bool {
    match (a, b) {
        (
            LintWarning::SelectPathMismatch { segment: x, .. },
            LintWarning::SelectPathMismatch { segment: y, .. },
        ) => x == y,
        _ => a == b,
    }
}

#[test]
fn verifier_findings_superset_of_sampled_lint_everywhere() {
    for rsn in example_networks().into_iter().chain(embedded_networks()) {
        let sampled = rsn.lint(64);
        let proven = verify(&rsn).to_lint_warnings();
        for w in &sampled {
            assert!(
                proven.iter().any(|p| same_finding(p, w)),
                "network {}: sampled lint found {w} but the verifier did not",
                rsn.name()
            );
        }
    }
}

/// A single-segment network whose select predicate depends on a primary
/// input while the segment is unconditionally on the scan path: every
/// configuration with the input low is a select/path mismatch.
fn mismatched_network() -> (Rsn, ftrsn::core::NodeId) {
    let mut b = RsnBuilder::new("mismatch");
    let i = b.add_inputs(1);
    let s = b.add_segment("s", 4);
    b.set_select(s, ControlExpr::input(i));
    b.connect(b.scan_in(), s);
    b.connect(s, b.scan_out());
    (b.finish().expect("builds"), s)
}

#[test]
fn witnesses_replay_through_the_simulator() {
    let (rsn, seg) = mismatched_network();
    let report = verify(&rsn);
    let finding = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SelectPathMismatch)
        .expect("mismatch is found");
    assert_eq!(finding.node, Some(seg));
    assert_eq!(finding.severity, Severity::Error);

    // The witness configuration must exhibit the disagreement in the
    // reference simulator, not merely in the CNF model.
    let cfg = finding.witness.as_ref().expect("witness attached");
    let selected = rsn.select(seg, cfg).expect("select evaluates");
    let on_path = rsn
        .trace_path(cfg)
        .map(|p| p.contains(seg))
        .unwrap_or(false);
    assert_ne!(selected, on_path, "witness does not replay");
}

#[test]
fn agrees_with_bmc_select_consistency_on_single_port_networks() {
    let mut networks = example_networks();
    networks.extend(embedded_networks());
    networks.push(mismatched_network().0);
    for rsn in &networks {
        let ports = rsn
            .node_ids()
            .filter(|&n| matches!(rsn.node(n).kind(), NodeKind::ScanOut))
            .count();
        if ports != 1 {
            continue; // BMC's encoding terminates at the primary port only.
        }
        let bmc = verify_select_consistency(rsn).expect("decided");
        let sat = verify(rsn);
        let sat_mismatch = sat
            .diagnostics
            .iter()
            .any(|d| d.code == Code::SelectPathMismatch);
        assert_eq!(
            bmc.is_some(),
            sat_mismatch,
            "network {}: BMC={:?} vs verifier:\n{}",
            rsn.name(),
            bmc.map(|m| m.segment),
            sat.render()
        );
    }
}

#[test]
fn table1_flow_with_verification_has_no_errors() {
    for name in ["u226", "d281"] {
        let rsn = generate(&by_name(name).expect("embedded SoC")).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::verified()).expect("verified synthesis");
        let report = result.verification.expect("verification report present");
        assert_eq!(report.error_count(), 0, "{}:\n{}", name, report.render());
        assert!(report.sat_queries > 0);
        assert!(report.checks_run.contains(&"augmentation"));
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != Code::SelectPathMismatch));
        for d in &report.diagnostics {
            // Residual findings on the synthesized network are at most
            // warnings (e.g. individually-redundant greedy augmentation
            // edges), never hard errors.
            assert_ne!(d.severity, Severity::Error, "{d}");
        }
    }
}
