//! Benchmark of the FT-RSN workspace.
//!
//! ```text
//! rsn-perfbench --workload <table1|signoff|miter|serve-sweep> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It builds its inputs from the seed,
//! sets up, measures for the given number of seconds, checks every
//! timed answer against an oracle and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end figures; with `--trace 1`
//! the run is traced (spans around every call into a crate, kept in
//! memory and written to `perfbench/traces/` at the end) and the metrics
//! are the per-layer figures. The line before it carries provenance and
//! the workload's own figures under their own names.
//!
//! `--write-expected` rewrites the oracle files: `expected/table1.tsv`
//! from the slow reference path and `expected/signoff.tsv` from the
//! decomposed verification path.

mod common;
mod miter;
mod serve;
mod signoff;
mod socgen;
mod table1;
mod trace;

use rsn_obs::json::Json;

use common::{Args, Ctx, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["table1", "signoff", "miter", "serve-sweep"];

/// The per-layer metrics every traced run prints (0 where the workload
/// does not reach the layer), with their units.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("rsn-sib.generate_s", "s"),
    ("rsn-fault.universe_s", "s"),
    ("rsn-fault.engine_build_s", "s"),
    ("rsn-fault.collapse_s", "s"),
    ("rsn-fault.sweep_sib_s", "s"),
    ("rsn-fault.sweep_ft_s", "s"),
    ("rsn-fault.faults", "count"),
    ("rsn-fault.classes", "count"),
    ("rsn-fault.engine_rounds", "count"),
    ("rsn-fault.faults_per_s", "1/s"),
    ("rsn-synth.dataflow_s", "s"),
    ("rsn-synth.augment_s", "s"),
    ("rsn-synth.build_s", "s"),
    ("rsn-synth.added_edges", "count"),
    ("rsn-synth.effective_edge_ratio", "ratio"),
    ("rsn-graph.flow_s", "s"),
    ("rsn-verify.encode_s", "s"),
    ("rsn-verify.checks_s", "s"),
    ("rsn-verify.sat_queries", "count"),
    ("rsn-sat.solve_s", "s"),
    ("rsn-sat.solves", "count"),
    ("rsn-sat.conflicts", "count"),
    ("rsn-sat.decisions", "count"),
    ("rsn-sat.propagations", "count"),
    ("rsn-sat.eliminated_vars", "count"),
    ("rsn-sat.probe_units", "count"),
    ("rsn-sat.cubes", "count"),
    ("rsn-sat.pool_imports", "count"),
    ("rsn-sat.conflicts_per_s", "1/s"),
    ("rsn-bmc.build_s", "s"),
    ("rsn-bmc.solve_s", "s"),
    ("rsn-serve.overhead_ms", "ms"),
    ("rsn-serve.cache_hit_ratio", "ratio"),
    ("rsn-serve.resynth_ms", "ms"),
    ("rsn-serve.rejected", "count"),
    ("rsn-obs.trace_overhead", "ratio"),
];

/// Layers whose self time the traced run attributes.
const SELF_TIME_LAYERS: &[&str] = &[
    "rsn-sib",
    "rsn-fault",
    "rsn-synth",
    "rsn-graph",
    "rsn-verify",
    "rsn-sat",
    "rsn-bmc",
    "rsn-serve",
    trace::ROOT,
];

fn usage() -> ! {
    eprintln!(
        "usage: rsn-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         rsn-perfbench --write-expected",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            table1::write_expected();
            signoff::write_expected();
            std::process::exit(0);
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Runs the workload untraced for the first half of the window, then
/// traced for the second half (trace mode), or untraced for the whole
/// window.
fn measure(args: &Args) -> Outcome {
    let run = |seconds: f64, traced: bool| {
        let ctx = Ctx {
            seed: args.seed,
            seconds,
            tracer: Tracer::new(traced),
        };
        let out = match args.workload.as_str() {
            "table1" => table1::run(&ctx),
            "signoff" => signoff::run(&ctx),
            "miter" => miter::run(&ctx),
            "serve-sweep" => serve::run(&ctx),
            _ => unreachable!("validated workload"),
        };
        (out, ctx.tracer)
    };
    if !args.trace {
        return run(args.seconds, false).0;
    }
    let (plain, _) = run(args.seconds / 2.0, false);
    let (mut traced, tracer) = run(args.seconds / 2.0, true);
    let passes = traced
        .detail
        .get("passes")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    for (layer, secs) in tracer.self_seconds() {
        traced.layer(&format!("{layer}.self_s"), secs / passes, "s");
    }
    let headline = |o: &Outcome| o.e2e.primary_s;
    traced.layer(
        "rsn-obs.trace_overhead",
        headline(&traced) / headline(&plain).max(1e-12),
        "ratio",
    );
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.mismatches.extend(plain.mismatches);
    write_trace(args, &tracer);
    traced
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().to_string()));
    if let Err(e) = written {
        eprintln!("rsn-perfbench: cannot write {}: {e}", path.display());
    }
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", Json::Num(value));
    m.set("unit", Json::Str(unit.into()));
    m
}

fn main() {
    let args = parse_args();
    // The Table I pipeline sizes its sweeps from RSN_THREADS; pin it so
    // every workload runs at most two engine threads whatever the host.
    std::env::set_var("RSN_THREADS", "2");
    let out = measure(&args);

    for m in &out.mismatches {
        eprintln!("rsn-perfbench: oracle mismatch: {m}");
    }
    let mut metrics = Json::obj();
    if args.trace {
        for &(name, unit) in LAYER_METRICS {
            let value = out.layers.get(name).map_or(0.0, |v| v.0);
            metrics.set(name, metric(value, unit));
        }
        for layer in SELF_TIME_LAYERS {
            let name = format!("{layer}.self_s");
            let value = out.layers.get(&name).map_or(0.0, |v| v.0);
            metrics.set(&name, metric(value, "s"));
        }
    } else {
        let e = out.e2e;
        metrics.set("setup_s", metric(e.setup_s, "s"));
        metrics.set("primary_s", metric(e.primary_s, "s"));
        metrics.set("secondary_s", metric(e.secondary_s, "s"));
        metrics.set("ops_per_s", metric(e.ops_per_s, "1/s"));
        metrics.set("peak_rss_mb", metric(common::peak_rss_mb(), "MB"));
    }

    let mut info = Json::obj();
    info.set("provenance", common::provenance(&args));
    info.set("detail", out.detail);
    println!("{info}");

    let mut result = Json::obj();
    result.set("correct", Json::Bool(out.failed == 0 && out.attempted > 0));
    result.set("attempted", Json::Num(out.attempted as f64));
    result.set("failed", Json::Num(out.failed as f64));
    result.set("metrics", metrics);
    println!("{result}");
}
