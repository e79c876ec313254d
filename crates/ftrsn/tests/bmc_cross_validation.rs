//! Cross-validation of the fast structural accessibility engine against
//! the bounded-model-checking reference semantics (experiment V1 in
//! DESIGN.md): for small networks and the exhaustive fault universe, both
//! engines must agree on every (fault, segment) verdict.

use ftrsn::bmc::{BmcChecker, Verdict};
use ftrsn::budget::Budget;
use ftrsn::core::examples::{chain, fig2, sib_tree};
use ftrsn::core::Rsn;
use ftrsn::fault::{effect_of, fault_universe, AccessEngine, HardeningProfile};
use ftrsn::itc02::parse_soc;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SelectMode, SynthesisOptions};

/// Accessibility without a budget limit; an undecided query fails the
/// test.
fn accessible(checker: &mut BmcChecker, target: ftrsn::core::NodeId) -> bool {
    match checker.accessible_under(target, &Budget::default()) {
        Verdict::Unknown { .. } => panic!("undecided query"),
        verdict => verdict.is_accessible(),
    }
}

/// Exhaustively compares both engines over the full fault universe.
fn cross_validate(rsn: &Rsn, profile: HardeningProfile, steps: usize) {
    let engine = AccessEngine::new(rsn);
    for fault in fault_universe(rsn) {
        let effect = effect_of(rsn, &fault, profile);
        let structural = engine.accessibility(&effect, &mut engine.scratch());
        let mut checker = BmcChecker::with_fault(rsn, steps, &effect);
        for seg in rsn.segments() {
            assert_eq!(
                structural.accessible[seg.index()],
                accessible(&mut checker, seg),
                "disagreement: network {}, fault {fault}, segment {}",
                rsn.name(),
                rsn.node(seg).name()
            );
        }
    }
}

#[test]
fn fig2_agrees() {
    cross_validate(&fig2(), HardeningProfile::unhardened(), 2);
}

#[test]
fn chain_agrees() {
    cross_validate(&chain(4, 2), HardeningProfile::unhardened(), 1);
}

#[test]
fn sib_tree_agrees() {
    cross_validate(&sib_tree(1, 2, 3), HardeningProfile::unhardened(), 3);
}

#[test]
fn small_soc_agrees() {
    let soc = parse_soc("SocName v\n1 0 0 0 2 : 3 2\n2 0 0 0 1 : 4\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    cross_validate(&rsn, HardeningProfile::unhardened(), 3);
}

#[test]
fn synthesized_ft_network_agrees() {
    // The FT network without secondary ports (BMC precondition), with
    // materialized selects so fault-free validity is meaningful.
    let rsn = fig2();
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false;
    opts.select_mode = SelectMode::Always;
    let result = synthesize(&rsn, &opts).expect("synthesize");
    cross_validate(&result.rsn, HardeningProfile::hardened(), 5);
}

#[test]
fn bmc_finds_no_access_below_required_depth() {
    // Sanity on the unrolling bound: a depth-2 SIB tree leaf needs two
    // CSUs; with fewer the BMC must answer "inaccessible".
    let rsn = sib_tree(2, 2, 2);
    let leaf = rsn
        .segments()
        .find(|&s| rsn.node(s).name().ends_with(".seg"))
        .expect("leaf");
    let mut shallow = ftrsn::bmc::BmcChecker::new(&rsn, 1);
    assert!(!accessible(&mut shallow, leaf));
    let mut deep = ftrsn::bmc::BmcChecker::new(&rsn, 2);
    assert!(accessible(&mut deep, leaf));
}
