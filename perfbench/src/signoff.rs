//! `signoff`: lint the original SIB network of d695 with
//! `rsn_verify::verify` (the `rsn-lint` path), then synthesize it with
//! `SynthesisOptions::verified()`. Each pass lints `LINT_REPEATS` times
//! (one lint is short and noisy) and synthesizes once.
//!
//! The oracle is `perfbench/expected/signoff.tsv`: diagnostic counts per
//! code and SAT query counts of both steps, written by the decomposed
//! path (CNF build, `verify_on` and the max-flow augmentation check as
//! separate calls). The untraced run takes the user's calls and must
//! match it; the traced run takes the decomposed calls and must match it
//! too.

use std::collections::BTreeMap;

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_obs::json::Json;
use rsn_synth::{synthesize, Dataflow, SynthesisOptions};
use rsn_verify::{
    ineffective_augmentation, verify, verify_on, Code, NetworkSat, VerifyOptions, VerifyReport,
};

use crate::common::{self, timed, Counters, Ctx, Outcome, SAT_COUNTERS};
use crate::socgen;
use crate::trace::{Tracer, ROOT};

const EXPECTED: &str = "perfbench/expected/signoff.tsv";
const SOCS: [&str; 1] = ["d695"];
const LINT_REPEATS: usize = 5;

/// What the oracle compares for one verification step: diagnostics per
/// code, SAT queries, and (synthesis only) added edges.
fn summary(
    step: &str,
    soc: &str,
    report: &VerifyReport,
    extra: &[(Code, usize)],
    added: usize,
) -> String {
    let mut per_code: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &report.diagnostics {
        *per_code.entry(d.code.as_str()).or_default() += 1;
    }
    for (code, n) in extra {
        *per_code.entry(code.as_str()).or_default() += n;
    }
    let codes: Vec<String> = per_code.iter().map(|(c, n)| format!("{c}={n}")).collect();
    format!(
        "{soc}\t{step}\tsat_queries={}\tadded_edges={added}\t{}",
        report.sat_queries,
        codes.join(",")
    )
}

/// Per-pass layer figures of the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    encode_s: f64,
    checks_s: f64,
    sat_queries: u64,
    flow_s: f64,
    dataflow_s: f64,
    augment_s: f64,
    build_s: f64,
    added_edges: u64,
    ineffective: u64,
}

/// Lint and verify as separate public calls, each under its own span.
fn lint_decomposed(
    rsn: &Rsn,
    opts: VerifyOptions,
    tracer: &Tracer,
    pass: u64,
    l: &mut Layers,
) -> VerifyReport {
    let sat = tracer.span("rsn-verify", "NetworkSat::build", pass, || {
        timed(&mut l.encode_s, || NetworkSat::build(rsn))
    });
    let report = tracer.span("rsn-verify", "verify_on", pass, || {
        let before = Counters::now();
        let r = timed(&mut l.checks_s, || {
            verify_on(rsn, &sat, opts, &Budget::unlimited())
        });
        tracer.derived(
            "rsn-sat",
            "solve",
            pass,
            before.hist_sum_delta("sat.solve_ns"),
        );
        r
    });
    l.sat_queries += report.sat_queries as u64;
    report
}

/// `synthesize(verified)` taken apart: plain synthesis, then the checks
/// the verified option adds, as the synthesis crate runs them.
fn verified_synth_decomposed(rsn: &Rsn, tracer: &Tracer, pass: u64, l: &mut Layers) -> String {
    let syn = tracer.span("rsn-synth", "synthesize", pass, || {
        synthesize(rsn, &SynthesisOptions::new()).expect("synthesis")
    });
    let ms = |g| common::gauge(g) * 1e-3;
    l.dataflow_s += ms("synth.phases.dataflow_ms");
    l.augment_s += ms("synth.phases.augment_ms");
    l.build_s +=
        ms("synth.phases.build_ms") + ms("synth.phases.harden_ms") + ms("synth.phases.select_ms");
    let opts = if syn.report.selects_materialized {
        VerifyOptions::default()
    } else {
        VerifyOptions::without_select_checks()
    };
    let report = lint_decomposed(&syn.rsn, opts, tracer, pass, l);
    let df = tracer.span("rsn-synth", "Dataflow::extract", pass, || {
        timed(&mut l.dataflow_s, || Dataflow::extract(rsn))
    });
    let added = &syn.augmentation.added;
    let ineffective = tracer.span("rsn-graph", "ineffective_augmentation", pass, || {
        timed(&mut l.flow_s, || {
            let mut augmented = df.graph.clone();
            for &(i, j) in added {
                augmented.add_edge(i, j);
            }
            ineffective_augmentation(&augmented, added, df.root, df.sink).len()
        })
    });
    l.added_edges += added.len() as u64;
    l.ineffective += ineffective as u64;
    summary(
        "verified_synth",
        rsn.name(),
        &report,
        &[(Code::IneffectiveAugmentation, ineffective)],
        added.len(),
    )
}

/// The user's calls: `verify`, then `synthesize(verified)`.
fn lint_direct(rsn: &Rsn) -> String {
    summary("lint", rsn.name(), &verify(rsn), &[], 0)
}

fn verified_synth_direct(rsn: &Rsn) -> String {
    match synthesize(rsn, &SynthesisOptions::verified()) {
        Ok(syn) => {
            let report = syn.verification.expect("verified synthesis reports");
            summary(
                "verified_synth",
                rsn.name(),
                &report,
                &[],
                syn.report.added_edges,
            )
        }
        Err(e) => format!("{}\tverified_synth\terror: {e}", rsn.name()),
    }
}

fn inputs() -> Vec<Rsn> {
    SOCS.iter()
        .map(|n| {
            let soc = rsn_itc02::by_name(n).expect("embedded benchmark");
            rsn_sib::generate(&soc).expect("SIB generation")
        })
        .collect()
}

/// Regenerates the expected file from the decomposed path.
pub fn write_expected() {
    let tracer = Tracer::new(false);
    let mut text = String::new();
    for rsn in inputs() {
        let mut l = Layers::default();
        let lint = lint_decomposed(&rsn, VerifyOptions::default(), &tracer, 0, &mut l);
        text.push_str(&summary("lint", rsn.name(), &lint, &[], 0));
        text.push('\n');
        text.push_str(&verified_synth_decomposed(&rsn, &tracer, 0, &mut l));
        text.push('\n');
    }
    std::fs::write(EXPECTED, text).expect("write expected file");
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
    let (setup_s, networks) = common::timed_setup(31, inputs);
    out.e2e.setup_s = setup_s;

    // Held-out input: the seed's synthetic SoC, checked before timing.
    // The user's calls and the decomposed calls must report the same
    // diagnostic counts per code and SAT queries, and the verified
    // synthesis must succeed.
    let held_out = rsn_sib::generate(&socgen::soc(ctx.seed, 0)).expect("SIB generation");
    let quiet = Tracer::new(false);
    let mut held_out_layers = Layers::default();
    let lint = summary(
        "lint",
        held_out.name(),
        &lint_decomposed(
            &held_out,
            VerifyOptions::default(),
            &quiet,
            0,
            &mut held_out_layers,
        ),
        &[],
        0,
    );
    let synth = verified_synth_decomposed(&held_out, &quiet, 0, &mut held_out_layers);
    for (direct, decomposed) in [
        (lint_direct(&held_out), lint),
        (verified_synth_direct(&held_out), synth),
    ] {
        out.attempted += 1;
        out.check(direct == decomposed, || {
            format!("held-out: direct {direct}, decomposed {decomposed}")
        });
    }

    let tracer = &ctx.tracer;
    let mut lint_s = Vec::new();
    let mut synth_s = Vec::new();
    let mut layers = Layers::default();
    let mut sat = [0u64; SAT_COUNTERS.len()];
    let mut sat_ns = 0u64;
    let mut decisions = Vec::new();
    let mut first_counts: Option<(u64, u64, u64)> = None;
    let mut counts_repeat = true;
    let (passes, window) = common::run_for(ctx.seconds, |pass| {
        let before = Counters::now();
        let l = &mut layers;
        let counts_before = (l.sat_queries, l.added_edges, l.ineffective);
        let mut synth_t = 0.0;
        tracer.span(ROOT, "pass", pass, || {
            for rsn in &networks {
                for _ in 0..LINT_REPEATS {
                    let mut t = 0.0;
                    let got = if tracer.enabled() {
                        let r = timed(&mut t, || {
                            lint_decomposed(rsn, VerifyOptions::default(), tracer, pass, l)
                        });
                        summary("lint", rsn.name(), &r, &[], 0)
                    } else {
                        timed(&mut t, || lint_direct(rsn))
                    };
                    lint_s.push(t);
                    check_line(&mut out, &expected, &got);
                }
                let got = if tracer.enabled() {
                    timed(&mut synth_t, || {
                        verified_synth_decomposed(rsn, tracer, pass, l)
                    })
                } else {
                    timed(&mut synth_t, || verified_synth_direct(rsn))
                };
                check_line(&mut out, &expected, &got);
            }
        });
        synth_s.push(synth_t);
        sat_ns += before.hist_sum_delta("sat.solve_ns");
        decisions.push(before.delta("sat.decisions"));
        for (s, name) in sat.iter_mut().zip(SAT_COUNTERS) {
            *s += before.delta(&format!("sat.{name}"));
        }
        let counts = (
            l.sat_queries - counts_before.0,
            l.added_edges - counts_before.1,
            l.ineffective - counts_before.2,
        );
        counts_repeat &= *first_counts.get_or_insert(counts) == counts;
    });

    out.e2e.primary_s = common::median(&synth_s);
    out.e2e.secondary_s = common::median(&lint_s);
    out.e2e.ops_per_s = passes as f64 / window;

    let n = passes as f64;
    let l = layers;
    out.layer("rsn-verify.encode_s", l.encode_s / n, "s");
    out.layer("rsn-verify.checks_s", l.checks_s / n, "s");
    out.layer("rsn-verify.sat_queries", l.sat_queries as f64 / n, "count");
    out.layer("rsn-graph.flow_s", l.flow_s / n, "s");
    out.layer("rsn-synth.dataflow_s", l.dataflow_s / n, "s");
    out.layer("rsn-synth.augment_s", l.augment_s / n, "s");
    out.layer("rsn-synth.build_s", l.build_s / n, "s");
    out.layer("rsn-synth.added_edges", l.added_edges as f64 / n, "count");
    out.layer(
        "rsn-synth.effective_edge_ratio",
        1.0 - l.ineffective as f64 / (l.added_edges.max(1)) as f64,
        "ratio",
    );
    common::sat_layers(&mut out, &sat, sat_ns, n);

    let mut d = Json::obj();
    d.set("verified_synth_s", Json::Num(out.e2e.primary_s));
    d.set("lint_s", Json::Num(out.e2e.secondary_s));
    d.set("passes", Json::Num(n));
    d.set("verified_synth_samples", common::samples(&synth_s));
    d.set("lint_samples", common::samples(&lint_s));
    d.set("held_out", Json::Str(held_out.name().into()));
    d.set("threads", common::threads(&[("solver_threads", 1)]));
    let mut det = Json::obj();
    det.set(
        "rsn-sat.decisions",
        Json::Bool(decisions.windows(2).all(|w| w[0] == w[1])),
    );
    if tracer.enabled() {
        det.set(
            "rsn-verify.sat_queries,rsn-synth.added_edges,rsn-synth.effective_edge_ratio",
            Json::Bool(counts_repeat),
        );
    }
    d.set("deterministic", det);
    out.detail = d;
    out
}

fn check_line(out: &mut Outcome, expected: &str, got: &str) {
    let key: Vec<&str> = got.split('\t').take(2).collect();
    let want = expected
        .lines()
        .find(|e| e.split('\t').take(2).eq(key.iter().copied()));
    out.attempted += 1;
    out.check(want == Some(got), || {
        format!("got {got}, expected {want:?}")
    });
}
