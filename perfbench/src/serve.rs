//! `serve-sweep`: a closed loop of client connections sending seeded
//! `POST /sweep` requests to an in-process `rsn_serve::Server`.
//!
//! Each client sends its next request only after the previous response
//! arrived. The requests name SIB and synthesized (`"synthesize": true`)
//! networks of a small embedded set plus the seed's synthetic SoCs sent
//! flat as `soc_text`; the working set fits the artifact cache. Every response
//! must equal the aggregates `analyze_classes_on_budget` gives in process
//! for the same network, computed once before timing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{
    analyze_classes_on_budget, fault_universe, AccessEngine, FaultClasses, HardeningProfile,
};
use rsn_itc02::parser::to_soc_text;
use rsn_obs::json::{self, Json};
use rsn_serve::{Server, ServerHandle, ServerOptions};
use rsn_synth::{synthesize, SynthesisOptions};

use crate::common::{self, timed, Ctx, Outcome};
use crate::socgen::{self, SplitMix64};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SWEEP_THREADS: usize = 1;
/// Embedded networks served flat (SIB).
const SIB_SOCS: [&str; 6] = ["u226", "d281", "h953", "x1331", "q12710", "d695"];
/// Embedded networks served synthesized (FT).
const FT_SOCS: [&str; 3] = ["u226", "x1331", "q12710"];
/// Synthetic SoCs of the seed, served flat. Their size varies with the
/// seed; served synthesized they would set the latency tail, and p99
/// would then compare seeds instead of code.
const SYNTHETIC: u64 = 2;
const SETUP_REPS: usize = 5;

/// One distinct request of the mix with everything the oracle and the
/// layer attribution need.
struct Spec {
    body: String,
    label: String,
    synthesize: bool,
    /// The in-process report fields the response must equal.
    expect: Vec<(&'static str, f64)>,
    faults: usize,
    classes: usize,
    /// In-process seconds of generation, synthesis and sweep.
    generate_s: f64,
    synth_s: f64,
    sweep_s: f64,
}

fn body(network: (&str, &str), synthesize: bool) -> String {
    let mut j = Json::obj();
    j.set(network.0, Json::Str(network.1.into()));
    if synthesize {
        j.set("synthesize", Json::Bool(true));
        j.set("profile", Json::Str("hardened".into()));
    }
    j.to_string()
}

/// The in-process answer for one network: generation, optional
/// synthesis, and a one-thread sweep over freshly built artifacts.
fn oracle(soc: &rsn_itc02::Soc, synthesize_ft: bool, body: String, label: String) -> Spec {
    let (mut generate_s, mut synth_s, mut sweep_s) = (0.0, 0.0, 0.0);
    let base = timed(&mut generate_s, || {
        rsn_sib::generate(soc).expect("SIB generation")
    });
    let rsn: Rsn = if synthesize_ft {
        timed(&mut synth_s, || synthesize(&base, &SynthesisOptions::new()))
            .expect("synthesis")
            .rsn
    } else {
        base
    };
    let profile = if synthesize_ft {
        HardeningProfile::hardened()
    } else {
        HardeningProfile::unhardened()
    };
    let engine = AccessEngine::new(&rsn);
    let faults = fault_universe(&rsn);
    let classes = FaultClasses::build(&rsn, &faults, profile);
    let r = timed(&mut sweep_s, || {
        analyze_classes_on_budget(
            &engine,
            &faults,
            &classes,
            SWEEP_THREADS,
            &Budget::unlimited(),
        )
    });
    Spec {
        body,
        label,
        synthesize: synthesize_ft,
        expect: vec![
            ("fault_count", r.fault_count as f64),
            ("classes", r.classes as f64),
            ("total_weight", r.total_weight as f64),
            ("worst_segments", r.worst_segments),
            ("avg_segments", r.avg_segments),
            ("worst_bits", r.worst_bits),
            ("avg_bits", r.avg_bits),
        ],
        faults: r.fault_count,
        classes: r.classes,
        generate_s,
        synth_s,
        sweep_s,
    }
}

/// The seed's request mix.
fn specs(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    for name in SIB_SOCS {
        let soc = rsn_itc02::by_name(name).expect("embedded benchmark");
        out.push(oracle(
            &soc,
            false,
            body(("soc", name), false),
            format!("{name}/sib"),
        ));
    }
    for name in FT_SOCS {
        let soc = rsn_itc02::by_name(name).expect("embedded benchmark");
        out.push(oracle(
            &soc,
            true,
            body(("soc", name), true),
            format!("{name}/ft"),
        ));
    }
    for soc in socgen::socs(seed, SYNTHETIC) {
        let text = to_soc_text(&soc);
        // The server parses the text; the oracle does too.
        let parsed = rsn_itc02::parse_soc(&text).expect("generated text parses");
        let label = format!("{}/sib", soc.name);
        out.push(oracle(
            &parsed,
            false,
            body(("soc_text", &text), false),
            label,
        ));
    }
    out
}

/// Sends one request on a fresh connection; returns status and body.
fn post(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, payload))
}

/// What one response says, checked against its spec.
struct Answer {
    ok: bool,
    rejected: bool,
    cache_hits: u64,
    cache_lookups: u64,
    problem: Option<String>,
}

fn check(spec: &Spec, response: std::io::Result<(u16, String)>) -> Answer {
    let mut a = Answer {
        ok: false,
        rejected: false,
        cache_hits: 0,
        cache_lookups: 0,
        problem: None,
    };
    let (status, payload) = match response {
        Ok(r) => r,
        Err(e) => {
            a.problem = Some(format!("{}: connection error {e}", spec.label));
            return a;
        }
    };
    if status != 200 {
        a.rejected = status == 429 || status == 503;
        a.problem = Some(format!("{}: HTTP {status} {payload}", spec.label));
        return a;
    }
    let Ok(j) = json::parse(&payload) else {
        a.problem = Some(format!("{}: unparsable body", spec.label));
        return a;
    };
    let counter = |name: &str| {
        j.get("request_metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    a.cache_hits = counter("serve.cache_hits");
    a.cache_lookups = a.cache_hits + counter("serve.cache_misses");
    let report = j.get("report");
    let field = |k: &str| report.and_then(|r| r.get(k)).and_then(Json::as_f64);
    for &(k, want) in &spec.expect {
        if field(k) != Some(want) {
            a.problem = Some(format!(
                "{}: {k} = {:?}, in process {want}",
                spec.label,
                field(k)
            ));
            return a;
        }
    }
    a.ok = true;
    a
}

/// A running server and its accept-loop thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) {
        self.handle.shutdown();
        let joined = self.thread.join().expect("server thread panicked");
        joined.expect("server run");
    }
}

fn start() -> Running {
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        sweep_threads: SWEEP_THREADS,
        solver_threads: 1,
        cache_cap: 64,
        ..ServerOptions::default()
    })
    .expect("bind a local port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        handle,
        thread,
    }
}

/// Per-request record of the timed loop.
struct Sample {
    spec: usize,
    latency_s: f64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Oracle answers and in-process timings: before setup, unmetered.
    let specs = specs(ctx.seed);

    // Setup: bind, start, and the first request per network (fills the
    // artifact cache). Repeated on fresh servers, each stopped untimed
    // before the next; the last one serves the timed loop.
    let mut setup_times = Vec::new();
    let mut warm_problems = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            Running::stop(old);
        }
        let t0 = Instant::now();
        let fresh = start();
        for spec in &specs {
            let a = check(spec, post(fresh.addr, &spec.body));
            warm_problems.extend(a.problem);
        }
        setup_times.push(t0.elapsed().as_secs_f64());
        server = Some(fresh);
    }
    let server = server.expect("at least one setup");
    let setup_s = common::median(&setup_times);
    out.e2e.setup_s = setup_s;
    out.attempted += (SETUP_REPS * specs.len()) as u64;
    for p in warm_problems.drain(..) {
        out.check(false, || format!("warm-up {p}"));
    }

    let tracer = &ctx.tracer;
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let problems: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let counts = Mutex::new((0u64, 0u64, 0u64)); // rejected, cache hits, lookups
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (specs, samples, problems, counts) = (&specs, &samples, &problems, &counts);
            let mut rng = SplitMix64::new(ctx.seed.wrapping_add(c as u64).wrapping_mul(0x9e37));
            let addr = server.addr;
            s.spawn(move || {
                let mut request = 0u64;
                while t0.elapsed().as_secs_f64() < ctx.seconds {
                    let k = (rng.next_u64() % specs.len() as u64) as usize;
                    let spec = &specs[k];
                    let id = (c as u64) << 32 | request;
                    request += 1;
                    let r0 = Instant::now();
                    let answer = tracer.span("rsn-serve", "POST /sweep", id, || {
                        let response = post(addr, &spec.body);
                        let ns = |s: f64| (s * 1e9) as u64;
                        tracer.derived("rsn-sib", "generate", id, ns(spec.generate_s));
                        tracer.derived("rsn-synth", "synthesize", id, ns(spec.synth_s));
                        tracer.derived(
                            "rsn-fault",
                            "analyze_classes_on_budget",
                            id,
                            ns(spec.sweep_s),
                        );
                        response
                    });
                    let latency_s = r0.elapsed().as_secs_f64();
                    let a = check(spec, answer);
                    let mut cnt = counts.lock().expect("counts lock");
                    cnt.0 += a.rejected as u64;
                    cnt.1 += a.cache_hits;
                    cnt.2 += a.cache_lookups;
                    drop(cnt);
                    match a.problem {
                        Some(p) => problems.lock().expect("problems lock").push(p),
                        None => samples
                            .lock()
                            .expect("samples lock")
                            .push(Sample { spec: k, latency_s }),
                    }
                }
            });
        }
    });
    let window = t0.elapsed().as_secs_f64();
    server.stop();

    let samples = samples.into_inner().expect("samples lock");
    let problems = problems.into_inner().expect("problems lock");
    let (rejected, hits, lookups) = counts.into_inner().expect("counts lock");
    out.attempted += (samples.len() + problems.len()) as u64;
    for p in problems {
        out.check(false, || p);
    }

    let lat: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    let p50 = common::median(&lat);
    let p99 = common::percentile(&lat, 0.99);
    let beyond = lat.iter().filter(|&&x| x > p99).count();
    out.e2e.primary_s = p50;
    out.e2e.secondary_s = p99;
    out.e2e.ops_per_s = lat.len() as f64 / window;

    let n = lat.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Spec) -> f64| samples.iter().map(|s| f(&specs[s.spec])).sum::<f64>();
    let in_process = sum(&|s| s.generate_s + s.synth_s + s.sweep_s);
    let ft_requests = samples
        .iter()
        .filter(|s| specs[s.spec].synthesize)
        .count()
        .max(1);
    out.layer(
        "rsn-serve.overhead_ms",
        (lat.iter().sum::<f64>() - in_process) * 1e3 / n,
        "ms",
    );
    out.layer(
        "rsn-serve.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.layer(
        "rsn-serve.resynth_ms",
        sum(&|s| s.synth_s) * 1e3 / ft_requests as f64,
        "ms",
    );
    out.layer("rsn-serve.rejected", rejected as f64, "count");
    out.layer("rsn-sib.generate_s", sum(&|s| s.generate_s) / n, "s");
    out.layer(
        "rsn-fault.sweep_sib_s",
        sum(&|s| if s.synthesize { 0.0 } else { s.sweep_s }) / n,
        "s",
    );
    out.layer(
        "rsn-fault.sweep_ft_s",
        sum(&|s| if s.synthesize { s.sweep_s } else { 0.0 }) / n,
        "s",
    );
    out.layer("rsn-fault.faults", sum(&|s| s.faults as f64) / n, "count");
    out.layer("rsn-fault.classes", sum(&|s| s.classes as f64) / n, "count");

    let mut d = Json::obj();
    d.set("latency_p50_ms", Json::Num(p50 * 1e3));
    d.set("latency_p99_ms", Json::Num(p99 * 1e3));
    d.set("requests_per_s", Json::Num(out.e2e.ops_per_s));
    d.set("requests", Json::Num(lat.len() as f64));
    d.set("samples_beyond_p99", Json::Num(beyond as f64));
    d.set("passes", Json::Num(n));
    d.set("distinct_networks", Json::Num(specs.len() as f64));
    d.set("loop", Json::Str(format!("closed, {CLIENTS} clients")));
    d.set(
        "threads",
        common::threads(&[
            ("server_workers", WORKERS),
            ("sweep_threads", SWEEP_THREADS),
            ("solver_threads", 1),
            ("client_connections", CLIENTS),
        ]),
    );
    out.detail = d;
    out
}
