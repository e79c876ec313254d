//! Fault injection walkthrough: inject single stuck-at faults into an RSN
//! and its fault-tolerant counterpart and watch which segments survive —
//! the paper's "computing scan paths in faulty RSNs" in action.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use ftrsn::core::Rsn;
use ftrsn::fault::{effect_of, fault_universe, AccessEngine, HardeningProfile};
use ftrsn::itc02::parse_soc;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};

fn report(rsn: &Rsn, profile: HardeningProfile, label: &str) {
    println!("--- {label} ---");
    // Inject every data fault at segments named in the walkthrough and
    // show who survives.
    let interesting = ["m1.sib", "m1.c0.seg", "m2.c0.sib"];
    let engine = AccessEngine::new(rsn);
    for fault in fault_universe(rsn) {
        let node = fault.site.node();
        let name = rsn.node(node).name();
        if !interesting.contains(&name)
            || !matches!(fault.site, ftrsn::fault::FaultSite::SegmentData(_))
        {
            continue;
        }
        let effect = effect_of(rsn, &fault, profile);
        let acc = engine.accessibility(&effect, &mut engine.scratch());
        let lost: Vec<&str> = rsn
            .segments()
            .filter(|s| !acc.accessible[s.index()])
            .map(|s| rsn.node(s).name())
            .collect();
        println!(
            "fault {fault:<24} accessible {}/{} | lost: {}",
            acc.accessible_segments,
            acc.total_segments,
            if lost.is_empty() {
                "-".to_string()
            } else {
                lost.join(", ")
            }
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small 2-module SoC so the output stays readable.
    let soc = parse_soc("SocName demo\n1 0 0 0 2 : 6 4\n2 0 0 0 1 : 8\n")?;
    let rsn = generate(&soc)?;

    println!(
        "network: {} segments ({} bits), {} muxes\n",
        rsn.segments().count(),
        rsn.total_bits(),
        rsn.muxes().count()
    );

    report(
        &rsn,
        HardeningProfile::unhardened(),
        "original SIB-based RSN",
    );

    let ft = synthesize(&rsn, &SynthesisOptions::new())?;
    println!(
        "\nsynthesized fault-tolerant RSN: +{} muxes, +{} bits\n",
        ft.report.added_muxes, ft.report.added_bits
    );
    report(&ft.rsn, HardeningProfile::hardened(), "fault-tolerant RSN");

    // Show a rerouted scan access: with m1.sib broken, the FT network can
    // still reach m1's chains through the augmented edges.
    let sib = ft.rsn.find("m1.sib").expect("exists");
    let fault = ftrsn::fault::Fault {
        site: ftrsn::fault::FaultSite::SegmentData(sib),
        value: false,
        weight: 2,
    };
    let effect = effect_of(&ft.rsn, &fault, HardeningProfile::hardened());
    let engine = AccessEngine::new(&ft.rsn);
    let acc = engine.accessibility(&effect, &mut engine.scratch());
    let leaf = ft.rsn.find("m1.c0.seg").expect("exists");
    println!(
        "\nwith m1.sib stuck-at-0, m1.c0.seg accessible in FT network: {}",
        acc.accessible[leaf.index()]
    );
    Ok(())
}
