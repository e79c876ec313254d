//! Fault diagnosis walkthrough: locate an unknown stuck-at fault from the
//! observable access behavior of the network.
//!
//! ```text
//! cargo run --example diagnosis
//! ```

use ftrsn::fault::diagnose::{FaultDictionary, Signature};
use ftrsn::fault::{AccessEngine, Fault, FaultSite, HardeningProfile};
use ftrsn::itc02::parse_soc;
use ftrsn::sib::generate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = parse_soc("SocName dut\n1 0 0 0 2 : 6 4\n2 0 0 0 2 : 8 2\n")?;
    let rsn = generate(&soc)?;
    let profile = HardeningProfile::unhardened();

    println!(
        "device under diagnosis: {} segments, {} muxes",
        rsn.segments().count(),
        rsn.muxes().count()
    );

    // Build the fault dictionary: predicted signature per fault class.
    let dict = FaultDictionary::build(&rsn, profile);
    let histogram = dict.resolution_histogram();
    println!(
        "fault dictionary: {} signature classes over {} faults (largest class: {})",
        dict.class_count(),
        histogram.iter().sum::<usize>(),
        histogram.last().copied().unwrap_or(0),
    );

    // The "defective part": a stuck-at fault we pretend not to know.
    let secret = rsn.find("m2.c0.sib").expect("exists");
    let injected = Fault {
        site: FaultSite::SegmentShadow(secret),
        value: false,
        weight: 1,
    };

    // The tester measures which segments are still accessible.
    let engine = AccessEngine::new(&rsn);
    let observed = Signature::predicted_on(&engine, &mut engine.scratch(), &injected, profile);
    println!(
        "observed: {}/{} segments inaccessible",
        observed.failures(),
        rsn.segments().count()
    );

    // Diagnose: which faults are consistent with the observation?
    let candidates = dict.diagnose(&observed);
    println!("diagnosis candidates ({}):", candidates.len());
    for c in candidates {
        println!("  {c}  at element {}", rsn.node(c.site.node()).name());
    }
    assert!(
        candidates.contains(&injected),
        "true fault must be a candidate"
    );

    // For comparison: the same fault in the fault-tolerant network barely
    // perturbs the signature, which is the point of the synthesis — but
    // the dictionary still distinguishes it from fault-free operation.
    let ft = ftrsn::synth::synthesize(&rsn, &ftrsn::synth::SynthesisOptions::new())?;
    let ft_secret = ft.rsn.find("m2.c0.sib").expect("preserved");
    let ft_fault = Fault {
        site: FaultSite::SegmentShadow(ft_secret),
        value: false,
        weight: 1,
    };
    let ft_engine = AccessEngine::new(&ft.rsn);
    let ft_observed = Signature::predicted_on(
        &ft_engine,
        &mut ft_engine.scratch(),
        &ft_fault,
        HardeningProfile::hardened(),
    );
    println!(
        "\nsame fault in the fault-tolerant network: {}/{} segments inaccessible",
        ft_observed.failures(),
        ft.rsn.segments().count()
    );
    Ok(())
}
