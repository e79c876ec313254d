//! `miter`: one search-hard fault-distinguishability proof on d695.
//!
//! Two faults the structural collapser put in one class are equivalent,
//! so the two-copy miter over `depth + 1` CSU steps is UNSAT and the
//! solver has to re-derive that equivalence from the unrolled transition
//! relation. Each pass proves the pair twice, once with 1 solver thread
//! and once with 2, each time on a freshly built miter. The pair needs
//! more conflicts than the portfolio's serial burst, so the 2-thread
//! proof runs the whole escalation ladder.

use std::time::Instant;

use rsn_bmc::{Distinguishability, FaultDistinguisher};
use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{effect_of, fault_universe, Fault, FaultClasses, FaultEffect, HardeningProfile};
use rsn_obs::json::Json;

use crate::common::{self, Counters, Ctx, Outcome, SAT_COUNTERS};
use crate::socgen::SplitMix64;
use crate::trace::ROOT;

const SOC: &str = "d695";
/// Conflicts a pair must survive in the serial probe to count as hard
/// (the rule of `table1 --bench-sat`).
const PROBE_QUOTA: u64 = 2_000;
/// Same-class pairs examined for the timed pair.
const CANDIDATE_CLASSES: usize = 6;
const THREADS: [usize; 2] = [1, 2];

struct Input {
    rsn: Rsn,
    steps: usize,
    faults: Vec<Fault>,
    classes: FaultClasses,
}

fn setup() -> Input {
    let soc = rsn_itc02::by_name(SOC).expect("embedded benchmark");
    let rsn = rsn_sib::generate(&soc).expect("SIB generation");
    let faults = fault_universe(&rsn);
    let classes = FaultClasses::build(&rsn, &faults, HardeningProfile::unhardened());
    Input {
        rsn,
        steps: soc.depth() + 1,
        faults,
        classes,
    }
}

/// Same-class pairs (each class's first two members) in class order.
fn same_class_pairs(input: &Input) -> impl Iterator<Item = (usize, usize)> + '_ {
    input
        .classes
        .classes()
        .iter()
        .filter(|c| c.members.len() >= 2)
        .map(|c| (c.members[0] as usize, c.members[1] as usize))
}

/// Runs the serial probe on a freshly built miter: `None` if the pair
/// survives `PROBE_QUOTA` conflicts, else the verdict.
fn probe(input: &Input, (i, j): (usize, usize)) -> Option<Distinguishability> {
    let (a, b) = effects(input, i, j);
    let mut miter = FaultDistinguisher::new(&input.rsn, input.steps, &a, &b);
    let quota = Budget::unlimited().with_work_limit(PROBE_QUOTA);
    match miter.distinguishable_under(&quota) {
        Distinguishability::Unknown { .. } => None,
        verdict => Some(verdict),
    }
}

/// The timed pair: the first same-class pair, in class order, that
/// survives the probe (the rule of `table1 --bench-sat`).
fn hard_pair(input: &Input) -> Option<(usize, usize)> {
    same_class_pairs(input)
        .take(CANDIDATE_CLASSES)
        .find(|&pair| probe(input, pair).is_none())
}

/// The held-out pair: a same-class pair the seed draws, probed once.
/// The collapser proved it equivalent, so the probe must not find a
/// distinguishing test; it may run out of conflicts (`None`).
fn held_out_pair(input: &Input, seed: u64) -> ((usize, usize), Option<Distinguishability>) {
    let pairs: Vec<(usize, usize)> = same_class_pairs(input).collect();
    let pair = pairs[(SplitMix64::new(seed).next_u64() % pairs.len() as u64) as usize];
    (pair, probe(input, pair))
}

fn effects(input: &Input, i: usize, j: usize) -> (FaultEffect, FaultEffect) {
    let p = HardeningProfile::unhardened();
    (
        effect_of(&input.rsn, &input.faults[i], p),
        effect_of(&input.rsn, &input.faults[j], p),
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, input) = common::timed_setup(31, setup);
    out.e2e.setup_s = setup_s;

    // Pair selection and the held-out pair are probe work: outside
    // setup and every metric.
    let probe_t0 = Instant::now();
    let Some((i, j)) = hard_pair(&input) else {
        out.attempted = 1;
        out.check(false, || "no candidate pair survives the probe".into());
        return out;
    };
    let (held_out, held_out_verdict) = held_out_pair(&input, ctx.seed);
    out.attempted += 1;
    out.check(
        held_out_verdict != Some(Distinguishability::Distinguishable),
        || format!("held-out same-class pair {held_out:?} is distinguishable"),
    );
    let probe_s = probe_t0.elapsed().as_secs_f64();
    let (a, b) = effects(&input, i, j);
    let tracer = &ctx.tracer;

    let mut prove = [Vec::new(), Vec::new()];
    let mut conflicts = [Vec::new(), Vec::new()];
    let mut build_s = 0.0;
    let mut solve_s = 0.0;
    let mut sat_ns = 0u64;
    let mut sat = [0u64; SAT_COUNTERS.len()];
    let (passes, window) = common::run_for(ctx.seconds, |pass| {
        tracer.span(ROOT, "pass", pass, || {
            for (k, &threads) in THREADS.iter().enumerate() {
                let before = Counters::now();
                let t0 = Instant::now();
                let mut miter = tracer.span("rsn-bmc", "FaultDistinguisher::new", pass, || {
                    FaultDistinguisher::new(&input.rsn, input.steps, &a, &b)
                });
                let t1 = Instant::now();
                miter.set_threads(threads);
                let verdict = tracer.span("rsn-bmc", "distinguishable_under", pass, || {
                    let v = miter.distinguishable_under(&Budget::unlimited());
                    tracer.derived(
                        "rsn-sat",
                        "solve",
                        pass,
                        before.hist_sum_delta("sat.solve_ns"),
                    );
                    v
                });
                let t2 = Instant::now();
                drop(miter);
                prove[k].push((t2 - t0).as_secs_f64());
                build_s += (t1 - t0).as_secs_f64();
                solve_s += (t2 - t1).as_secs_f64();
                sat_ns += before.hist_sum_delta("sat.solve_ns");
                for (s, name) in sat.iter_mut().zip(SAT_COUNTERS) {
                    *s += before.delta(&format!("sat.{name}"));
                }
                conflicts[k].push(before.delta("sat.conflicts"));
                out.attempted += 1;
                out.check(verdict == Distinguishability::Equivalent, || {
                    format!(
                        "pair ({i}, {j}) at {threads} threads: {verdict:?}, expected Equivalent"
                    )
                });
            }
        })
    });

    out.e2e.primary_s = common::median(&prove[0]);
    out.e2e.secondary_s = common::median(&prove[1]);
    out.e2e.ops_per_s = (2 * passes) as f64 / window;

    let n = passes as f64;
    out.layer("rsn-bmc.build_s", build_s / n, "s");
    out.layer("rsn-bmc.solve_s", solve_s / n, "s");
    common::sat_layers(&mut out, &sat, sat_ns, n);

    // The portfolio's parallel phases run at most one worker per core.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let race_width = THREADS[1].min(cores);
    let t1_repeat = conflicts[0].windows(2).all(|w| w[0] == w[1]);
    let mut d = Json::obj();
    d.set(
        "pair",
        Json::Arr(vec![Json::Num(i as f64), Json::Num(j as f64)]),
    );
    d.set("steps", Json::Num(input.steps as f64));
    d.set(
        "held_out_pair",
        Json::Arr(vec![
            Json::Num(held_out.0 as f64),
            Json::Num(held_out.1 as f64),
        ]),
    );
    d.set(
        "held_out_verdict",
        Json::Str(held_out_verdict.map_or("survived probe".into(), |v| format!("{v:?}"))),
    );
    d.set("probe_s", Json::Num(probe_s));
    d.set("prove_s_t1", Json::Num(out.e2e.primary_s));
    d.set("prove_s_t2", Json::Num(out.e2e.secondary_s));
    d.set("conflicts_t1", Json::Num(conflicts[0][0] as f64));
    d.set("conflicts_t2", Json::Num(conflicts[1][0] as f64));
    d.set("passes", Json::Num(n));
    d.set("prove_t1_samples", common::samples(&prove[0]));
    d.set("prove_t2_samples", common::samples(&prove[1]));
    d.set(
        "threads",
        common::threads(&[("solver_threads_t1", 1), ("solver_threads_t2", race_width)]),
    );
    let mut det = Json::obj();
    det.set("rsn-sat.conflicts_t1", Json::Bool(t1_repeat));
    d.set("deterministic", det);
    out.detail = d;
    out
}
