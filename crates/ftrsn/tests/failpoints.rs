//! Robustness regression: an injected `sat.solve` error must degrade
//! every SAT-backed engine through its `Unknown` path, never panic.

use std::sync::{Mutex, PoisonError};

use ftrsn::bmc::{BmcChecker, Distinguishability, FaultDistinguisher, Verdict};
use ftrsn::budget::Budget;
use ftrsn::core::examples::fig2;
use ftrsn::fault::{effect_of, fault_universe, HardeningProfile};
use ftrsn::verify::{verify_under, VerifyOptions};

/// `rsn-fail` failpoints are process-global; every test arming one
/// takes this lock and clears the registry before releasing it.
static CHAOS: Mutex<()> = Mutex::new(());

#[test]
fn sat_solve_err_degrades_verify_and_bmc_to_unknown() {
    let _guard = CHAOS.lock().unwrap_or_else(PoisonError::into_inner);
    rsn_fail::clear();
    rsn_fail::configure("sat.solve", rsn_fail::Action::Err, 1.0, None);

    let rsn = fig2();
    let report = verify_under(&rsn, VerifyOptions::default(), &Budget::default());
    let c = rsn.find("C").expect("segment C");
    let access = BmcChecker::new(&rsn, 2).accessible_under(c, &Budget::default());
    let faults = fault_universe(&rsn);
    let a = effect_of(&rsn, &faults[0], HardeningProfile::unhardened());
    let mut miter = FaultDistinguisher::new(&rsn, 2, &a, &a);
    let distinct = miter.distinguishable_under(&Budget::default());
    rsn_fail::clear();

    assert_eq!(
        report.incomplete,
        vec!["selects", "muxes", "controllability"]
    );
    assert_eq!(report.checks_run, vec!["structural", "control-cycles"]);
    assert!(!report.is_complete());
    assert_eq!(access, Verdict::Unknown { bound_reached: 2 });
    assert_eq!(distinct, Distinguishability::Unknown { bound_reached: 2 });
}
