//! `table1`: the paper's full pipeline over the 13 embedded ITC'02 SoCs.
//!
//! One pass runs every SoC through SIB generation, the SIB fault sweep,
//! synthesis, the FT fault sweep and area accounting, and checks each
//! row against `perfbench/expected/table1.tsv`, which the slow reference
//! path wrote (uncollapsed universe, one thread, the cold accessibility
//! evaluation per fault). A few seeded synthetic SoCs run through the
//! same pipeline before timing and are checked against the slow path
//! computed on the spot; they are left out of every metric.

use std::time::Instant;

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{
    analyze_classes_on_budget, analyze_parallel_budgeted, effect_of, fault_universe_weighted,
    AccessEngine, FaultClasses, FaultToleranceReport, HardeningProfile, WeightModel,
};
use rsn_itc02::Soc;
use rsn_obs::json::Json;
use rsn_synth::area::{costs, AreaModel, Overhead};
use rsn_synth::{synthesize, SynthesisOptions};

use crate::common::{self, timed, Counters, Ctx, Outcome};
use crate::socgen;
use crate::trace::{Tracer, ROOT};

const EXPECTED: &str = "perfbench/expected/table1.tsv";
const BENCHMARKS: [&str; 13] = [
    "u226", "d281", "d695", "h953", "g1023", "x1331", "f2126", "q12710", "t512505", "a586710",
    "p22081", "p34392", "p93791",
];
/// The largest row, reported on its own.
const LARGEST: &str = "p93791";
const HELD_OUT: u64 = 3;
const HEADER: &str = "name\tmodules\tlevels\tmux\tsegments\tbits\t\
sib_faults\tsib_classes\tsib_worst_seg\tsib_avg_seg\tsib_worst_bits\tsib_avg_bits\t\
ft_faults\tft_classes\tft_worst_seg\tft_avg_seg\tft_worst_bits\tft_avg_bits\t\
mux_ratio\tbits_ratio\tnets_ratio\tarea_ratio\tadded_edges";

/// Accessibility columns of one network: fault and class counts plus
/// worst and weighted-average segment and bit accessibility.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Access {
    faults: usize,
    classes: usize,
    worst_seg: f64,
    avg_seg: f64,
    worst_bits: f64,
    avg_bits: f64,
}

impl Access {
    fn of(r: &FaultToleranceReport) -> Access {
        Access {
            faults: r.fault_count,
            classes: r.classes,
            worst_seg: r.worst_segments,
            avg_seg: r.avg_segments,
            worst_bits: r.worst_bits,
            avg_bits: r.avg_bits,
        }
    }

    fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{:?}\t{:?}\t{:?}\t{:?}",
            self.faults, self.classes, self.worst_seg, self.avg_seg, self.worst_bits, self.avg_bits
        )
    }
}

/// One Table I row as a TSV line.
fn row_tsv(soc: &Soc, rsn: &Rsn, sib: Access, ft: Access, ov: &Overhead, added: usize) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{}",
        soc.name,
        soc.modules.len(),
        soc.depth() + 1,
        rsn.muxes().count(),
        rsn.segments().count(),
        rsn.total_bits(),
        sib.tsv(),
        ft.tsv(),
        ov.mux_ratio,
        ov.bits_ratio,
        ov.nets_ratio,
        ov.area_ratio,
        added
    )
}

/// The slow reference sweep: every fault of the uncollapsed universe
/// evaluated on its own by the cold fixed point, serially, aggregated in
/// fault order. Class counts come from the collapser, which the slow path
/// does not use.
fn slow_access(rsn: &Rsn, profile: HardeningProfile) -> Access {
    let faults = fault_universe_weighted(rsn, WeightModel::Ports);
    let engine = AccessEngine::new(rsn);
    let mut scratch = engine.scratch();
    let (mut sum_seg, mut sum_bits, mut weight) = (0.0f64, 0.0f64, 0u64);
    let (mut worst_seg, mut worst_bits) = (1.0f64, 1.0f64);
    for fault in &faults {
        let effect = effect_of(rsn, fault, profile);
        let (seg, bits) = if effect.is_benign() {
            (1.0, 1.0)
        } else {
            let acc = engine.accessibility_cold(&effect, &mut scratch);
            (acc.segment_fraction(), acc.bit_fraction())
        };
        let w = fault.weight as f64;
        sum_seg += seg * w;
        sum_bits += bits * w;
        weight += fault.weight as u64;
        worst_seg = worst_seg.min(seg);
        worst_bits = worst_bits.min(bits);
    }
    let denom = weight.max(1) as f64;
    Access {
        faults: faults.len(),
        classes: FaultClasses::build(rsn, &faults, profile).len(),
        worst_seg,
        avg_seg: sum_seg / denom,
        worst_bits,
        avg_bits: sum_bits / denom,
    }
}

/// The row as the slow path computes it.
fn slow_row(soc: &Soc) -> String {
    let rsn = rsn_sib::generate(soc).expect("SIB generation");
    let syn = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesis");
    let model = AreaModel::default();
    let ov = Overhead::between(&costs(&rsn, &model), &costs(&syn.rsn, &model));
    let sib = slow_access(&rsn, HardeningProfile::unhardened());
    let ft = slow_access(&syn.rsn, HardeningProfile::hardened());
    row_tsv(soc, &rsn, sib, ft, &ov, syn.report.added_edges)
}

/// Regenerates the expected file from the slow path.
pub fn write_expected() {
    let mut text = format!("{HEADER}\n");
    for name in BENCHMARKS {
        let soc = rsn_itc02::by_name(name).expect("embedded benchmark");
        let t0 = Instant::now();
        text.push_str(&slow_row(&soc));
        text.push('\n');
        eprintln!("{name}: {:.1} s", t0.elapsed().as_secs_f64());
    }
    std::fs::write(EXPECTED, text).expect("write expected file");
}

/// Per-pass layer figures of the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    generate_s: f64,
    universe_s: f64,
    engine_build_s: f64,
    collapse_s: f64,
    sweep_sib_s: f64,
    sweep_ft_s: f64,
    faults: u64,
    classes: u64,
    dataflow_s: f64,
    augment_s: f64,
    build_s: f64,
    added_edges: u64,
}

/// The user's sweep call, or (traced) the same work as its public
/// pieces, each under its own span.
fn sweep(
    rsn: &Rsn,
    profile: HardeningProfile,
    tracer: &Tracer,
    pass: u64,
    l: &mut Layers,
) -> FaultToleranceReport {
    if !tracer.enabled() {
        return analyze_parallel_budgeted(rsn, profile, WeightModel::Ports, &Budget::unlimited());
    }
    let faults = tracer.span("rsn-fault", "fault_universe_weighted", pass, || {
        timed(&mut l.universe_s, || {
            fault_universe_weighted(rsn, WeightModel::Ports)
        })
    });
    let engine = tracer.span("rsn-fault", "AccessEngine::new", pass, || {
        timed(&mut l.engine_build_s, || AccessEngine::new(rsn))
    });
    let classes = tracer.span("rsn-fault", "FaultClasses::build", pass, || {
        timed(&mut l.collapse_s, || {
            FaultClasses::build(rsn, &faults, profile)
        })
    });
    let threads = rsn_budget::default_threads().min(16);
    let sweep_acc = if profile.select_hardened {
        &mut l.sweep_ft_s
    } else {
        &mut l.sweep_sib_s
    };
    let report = tracer.span("rsn-fault", "analyze_classes_on_budget", pass, || {
        timed(sweep_acc, || {
            analyze_classes_on_budget(&engine, &faults, &classes, threads, &Budget::unlimited())
        })
    });
    l.faults += report.fault_count as u64;
    l.classes += report.classes as u64;
    report
}

/// One row through the pipeline; returns its TSV line.
fn row(soc: &Soc, tracer: &Tracer, pass: u64, l: &mut Layers) -> String {
    let rsn = tracer.span("rsn-sib", "generate", pass, || {
        timed(&mut l.generate_s, || {
            rsn_sib::generate(soc).expect("SIB generation")
        })
    });
    let sib = sweep(&rsn, HardeningProfile::unhardened(), tracer, pass, l);
    let syn = tracer.span("rsn-synth", "synthesize", pass, || {
        synthesize(&rsn, &SynthesisOptions::new()).expect("synthesis")
    });
    if tracer.enabled() {
        let ms = |g| common::gauge(g) * 1e-3;
        l.dataflow_s += ms("synth.phases.dataflow_ms");
        l.augment_s += ms("synth.phases.augment_ms");
        l.build_s += ms("synth.phases.build_ms")
            + ms("synth.phases.harden_ms")
            + ms("synth.phases.select_ms");
        l.added_edges += syn.report.added_edges as u64;
    }
    let ft = sweep(&syn.rsn, HardeningProfile::hardened(), tracer, pass, l);
    let ov = tracer.span("rsn-synth", "area::costs", pass, || {
        let model = AreaModel::default();
        Overhead::between(&costs(&rsn, &model), &costs(&syn.rsn, &model))
    });
    row_tsv(
        soc,
        &rsn,
        Access::of(&sib),
        Access::of(&ft),
        &ov,
        syn.report.added_edges,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let expected = match std::fs::read_to_string(EXPECTED) {
        Ok(text) => text,
        Err(e) => {
            out.attempted = 1;
            out.check(false, || format!("cannot read {EXPECTED}: {e}"));
            return out;
        }
    };
    let (setup_s, (socs, held_out)) = common::timed_setup(31, || {
        let socs: Vec<Soc> = BENCHMARKS
            .iter()
            .map(|n| rsn_itc02::by_name(n).expect("embedded benchmark"))
            .collect();
        (socs, socgen::socs(ctx.seed, HELD_OUT))
    });
    out.e2e.setup_s = setup_s;

    // Held-out inputs: fast path against the slow path, before timing.
    let untraced = Tracer::new(false);
    for soc in &held_out {
        let fast = row(soc, &untraced, 0, &mut Layers::default());
        let slow = slow_row(soc);
        out.attempted += 1;
        out.check(fast == slow, || {
            format!("held-out {}:\n  fast {fast}\n  slow {slow}", soc.name)
        });
    }

    let tracer = &ctx.tracer;
    let mut pass_s = Vec::new();
    let mut largest_s = Vec::new();
    let mut layers = Layers::default();
    let mut rounds = 0u64;
    let mut first_counts: Option<(u64, u64, u64)> = None;
    let mut counts_repeat = true;
    let (passes, window) = common::run_for(ctx.seconds, |pass| {
        let before = Counters::now();
        let counts_before = (layers.faults, layers.classes, layers.added_edges);
        let t0 = Instant::now();
        tracer.span(ROOT, "pass", pass, || {
            for soc in &socs {
                let r0 = Instant::now();
                let line = row(soc, tracer, pass, &mut layers);
                if soc.name == LARGEST {
                    largest_s.push(r0.elapsed().as_secs_f64());
                }
                let want = expected
                    .lines()
                    .find(|e| e.split('\t').next() == Some(&soc.name));
                out.attempted += 1;
                out.check(want == Some(line.as_str()), || {
                    format!("{}:\n  got      {line}\n  expected {want:?}", soc.name)
                });
            }
        });
        pass_s.push(t0.elapsed().as_secs_f64());
        rounds += before.delta("fault.engine_rounds");
        let counts = (
            layers.faults - counts_before.0,
            layers.classes - counts_before.1,
            layers.added_edges - counts_before.2,
        );
        counts_repeat &= *first_counts.get_or_insert(counts) == counts;
    });

    out.e2e.primary_s = common::median(&pass_s);
    out.e2e.secondary_s = common::median(&largest_s);
    out.e2e.ops_per_s = passes as f64 / window;

    let n = passes as f64;
    let l = layers;
    let fault_s = l.universe_s + l.engine_build_s + l.collapse_s + l.sweep_sib_s + l.sweep_ft_s;
    out.layer("rsn-sib.generate_s", l.generate_s / n, "s");
    out.layer("rsn-fault.universe_s", l.universe_s / n, "s");
    out.layer("rsn-fault.engine_build_s", l.engine_build_s / n, "s");
    out.layer("rsn-fault.collapse_s", l.collapse_s / n, "s");
    out.layer("rsn-fault.sweep_sib_s", l.sweep_sib_s / n, "s");
    out.layer("rsn-fault.sweep_ft_s", l.sweep_ft_s / n, "s");
    out.layer("rsn-fault.faults", l.faults as f64 / n, "count");
    out.layer("rsn-fault.classes", l.classes as f64 / n, "count");
    out.layer("rsn-fault.engine_rounds", rounds as f64 / n, "count");
    out.layer(
        "rsn-fault.faults_per_s",
        l.faults as f64 / fault_s.max(1e-12),
        "1/s",
    );
    out.layer("rsn-synth.dataflow_s", l.dataflow_s / n, "s");
    out.layer("rsn-synth.augment_s", l.augment_s / n, "s");
    out.layer("rsn-synth.build_s", l.build_s / n, "s");
    out.layer("rsn-synth.added_edges", l.added_edges as f64 / n, "count");

    let mut d = Json::obj();
    d.set("pass_s", Json::Num(out.e2e.primary_s));
    d.set("p93791_row_s", Json::Num(out.e2e.secondary_s));
    d.set("passes", Json::Num(n));
    d.set("pass_samples", common::samples(&pass_s));
    d.set("held_out_socs", Json::Num(held_out.len() as f64));
    let sweep_threads = rsn_budget::default_threads().min(16);
    d.set(
        "threads",
        common::threads(&[("sweep_workers", sweep_threads)]),
    );
    if tracer.enabled() {
        let mut det = Json::obj();
        det.set(
            "rsn-fault.faults+classes,rsn-synth.added_edges",
            Json::Bool(counts_repeat),
        );
        d.set("deterministic", det);
    }
    out.detail = d;
    out
}
