//! `warm_hits` and `cold_misses`: the `defender serve` binary in its own
//! process, under a closed loop of `nproc` keep-alive clients.
//!
//! Set-up starts the server (and, for `warm_hits`, fills its cache with
//! one request per class) three times and reports the median; the last
//! server is the one measured. The timed phase checks every reply: a
//! 200, the expected `cache` label, and the class value the benchmark
//! computed with `solve_exact`. Afterwards every distinct returned
//! equilibrium is re-proved with the exact verifier.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use defender_cache::EquilibriumCache;
use defender_core::model::TupleGame;
use defender_core::solve::solve_exact;
use defender_num::rng::{Rng, XorShiftRng};
use defender_serve::solver::TUPLE_LIMIT;

use crate::check::{is_equilibrium, SolveBody};
use crate::http::{closed_loop, Counters, LoopResult, Server};
use crate::inputs::{self, Class, Planned, NU};
use crate::layers::{self, Live, Mirror, Op, Staged};
use crate::trace::{median, quantile, Recorder};
use crate::{procfs, Args, Report};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cache filled in set-up; every request is a hit.
    Warm,
    /// Fresh server and empty cache; every request is a new class.
    Cold,
}

/// Server set-ups per run; set-up time is their median. A cold start
/// takes milliseconds, so it is repeated more often than a warm fill.
const fn setup_repeats(kind: Kind) -> usize {
    match kind {
        Kind::Warm => 3,
        Kind::Cold => 11,
    }
}

/// Planned `warm_hits` requests, cycled by the clients.
const WARM_PLAN: usize = 4096;

/// `cold_misses` classes generated per run; each is sent at most once.
const COLD_CLASSES: usize = 6000;

/// One closed-loop phase with the server's CPU and counters around it.
struct Phase {
    run: LoopResult,
    cpu_s: f64,
    before: Counters,
    after: Counters,
    ok: u64,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.run
            .samples
            .iter()
            .map(|s| s.reply.latency.as_secs_f64() * 1e3)
            .collect()
    }

    fn delta(&self, name: &str) -> u64 {
        self.after.delta(&self.before, name)
    }
}

/// Checked replies per second over a set of phases.
fn ops_per_s(phases: &[&Phase]) -> f64 {
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    let elapsed: f64 = phases.iter().map(|p| p.run.elapsed.as_secs_f64()).sum();
    ok as f64 / elapsed.max(1e-9)
}

fn timed_phase(
    server: &Server,
    clients: usize,
    duration: Duration,
    next: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    plan: &[Planned],
) -> Result<Phase, String> {
    let pid = server.pid();
    let before = server.counters()?;
    let cpu0 = procfs::cpu_seconds(&pid)?;
    let run = closed_loop(server.addr, clients, duration, next, &|j| &plan[j].wire)?;
    let cpu_s = procfs::cpu_seconds(&pid)? - cpu0;
    let after = server.counters()?;
    Ok(Phase {
        run,
        cpu_s,
        before,
        after,
        ok: 0,
    })
}

/// Class values by `solve_exact`, fanned over `par_map`, with the pool's
/// busy share for `par.efficiency`.
fn oracle(classes: &[Class]) -> Result<(Vec<String>, f64), String> {
    let jobs = defender_par::jobs();
    let t0 = Instant::now();
    let solved = defender_par::par_map(classes, |class| {
        let start = Instant::now();
        let value = TupleGame::new(&class.graph, class.k, NU)
            .and_then(|game| solve_exact(&game, TUPLE_LIMIT))
            .map(|eq| eq.value.to_string())
            .map_err(|e| e.to_string());
        (value, start.elapsed())
    });
    let wall = t0.elapsed().as_secs_f64();
    let busy: f64 = solved.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let values = solved
        .into_iter()
        .map(|(v, _)| v)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((values, busy / (jobs as f64 * wall).max(1e-9)))
}

/// Fills a fresh server's cache with one graph6 request per class.
fn fill(server: &Server, classes: &[Class], clients: usize) -> Result<(), String> {
    let wires: Vec<Vec<u8>> = classes
        .iter()
        .map(|c| inputs::frame_solve(&inputs::graph6_body(&c.graph, c.k)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let next = |_: usize, _: usize| {
        let j = cursor.fetch_add(1, Ordering::Relaxed);
        (j < wires.len()).then_some(j)
    };
    let run = closed_loop(server.addr, clients, Duration::MAX, &next, &|j| &wires[j])?;
    match run.samples.iter().find(|s| s.reply.status != 200) {
        Some(bad) => Err(format!("cache fill got status {}", bad.reply.status)),
        None if run.samples.len() != classes.len() => Err("cache fill fell short".to_owned()),
        None => Ok(()),
    }
}

/// Runs `warm_hits` or `cold_misses`.
pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let clients = defender_par::available_jobs();
    defender_par::set_jobs(clients);
    let mut rng = XorShiftRng::seed_from_u64(args.seed);
    let (classes, order, expect) = match kind {
        Kind::Warm => {
            let pool = inputs::warm_pool(&mut rng);
            let order: Vec<usize> = (0..WARM_PLAN)
                .map(|_| rng.gen_range(0..pool.len()))
                .collect();
            (pool, order, "hit")
        }
        Kind::Cold => {
            let classes = inputs::cold_classes(&mut rng, COLD_CLASSES);
            let order = (0..classes.len()).collect();
            (classes, order, "miss")
        }
    };
    let plan = inputs::plan_requests(&classes, &order, &mut rng);
    println!(
        "{}",
        inputs::describe(
            &args.workload,
            classes.iter(),
            plan.len() as f64 / classes.len() as f64
        )
    );
    let (values, par_efficiency) = oracle(&classes)?;

    let repeats = setup_repeats(kind);
    let mut setup_s = Vec::with_capacity(repeats);
    let mut kept = None;
    for rep in 0..repeats {
        let dir = args.work_dir.join(format!("serve-cache-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let server = Server::start(&args.defender, &dir)?;
        if kind == Kind::Warm {
            fill(&server, &classes, clients)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < repeats {
            server.shutdown()?;
        } else {
            kept = Some((server, dir));
        }
    }
    let (server, cache_dir) = kept.ok_or("set-up never ran")?;

    // Warm clients cycle the plan from their own offset; cold clients
    // share one cursor so every class is sent once.
    let cursor = AtomicUsize::new(0);
    let next = |c: usize, i: usize| match kind {
        Kind::Warm => Some((c + i * clients) % plan.len()),
        Kind::Cold => {
            let j = cursor.fetch_add(1, Ordering::Relaxed);
            (j < plan.len()).then_some(j)
        }
    };
    // The traced run alternates untraced and traced quarters, so warm-up
    // and drift fall on both sides of the tracing-overhead comparison.
    let quarters: u32 = if args.trace { 4 } else { 1 };
    procfs::reset_peak_rss(&server.pid());
    let mut phases = (0..quarters)
        .map(|_| timed_phase(&server, clients, args.seconds / quarters, &next, &plan))
        .collect::<Result<Vec<_>, _>>()?;
    let rss_mb = procfs::peak_rss_mib(&server.pid())?;
    let lifetime = server.counters()?;
    server.shutdown()?;

    // Reply checks, then the exact verifier once per distinct reply of
    // each phase.
    let mut report = Report::default();
    let mut replies: BTreeMap<(usize, usize, &[u8]), u64> = BTreeMap::new();
    for (p, phase) in phases.iter().enumerate() {
        for s in &phase.run.samples {
            report.attempted += 1;
            let ok = s.reply.status == 200
                && SolveBody::parse(&s.reply.body).is_ok_and(|body| {
                    body.cache == expect && body.value == values[plan[s.plan].class]
                });
            if ok {
                *replies.entry((p, s.plan, &s.reply.body)).or_default() += 1;
            } else {
                report.failed += 1;
            }
        }
    }
    let distinct: Vec<_> = replies.into_iter().collect();
    let verdicts = defender_par::par_map(&distinct, |((_, j, body), _)| {
        let planned = &plan[*j];
        let game = TupleGame::new(&planned.graph, classes[planned.class].k, NU).ok()?;
        let config = SolveBody::parse(body).ok()?.equilibrium(&game).ok()?;
        Some(is_equilibrium(&game, &config))
    });
    let mut ok = vec![0u64; phases.len()];
    for (((p, _, _), count), verdict) in distinct.iter().zip(&verdicts) {
        if *verdict == Some(true) {
            ok[*p] += count;
        } else {
            report.failed += count;
        }
    }
    for (phase, ok) in phases.iter_mut().zip(ok) {
        phase.ok = ok;
    }

    let first = &phases[0];
    let last = &phases[phases.len() - 1];
    let path_taken = match kind {
        // Warm serving must be solve-free.
        Kind::Warm => last.after.delta(&first.before, "lp.simplex.pivots") == 0,
        // Cold serving must take the LP hint on its sparse k = 1 classes.
        Kind::Cold => {
            let hinted = phases
                .iter()
                .flat_map(|p| &p.run.samples)
                .any(|s| classes[plan[s.plan].class].hint_eligible());
            !hinted || last.after.delta(&first.before, "lp.warm.attempts") > 0
        }
    };
    if !path_taken {
        eprintln!("perfbench: {} did not take its path", args.workload);
    }
    report.correct = report.failed == 0 && path_taken;

    if !args.trace {
        let lat = first.latencies_ms();
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("ops_per_s", ops_per_s(&[first]), "1/s");
        report.metric("lat_p50_ms", median(&lat), "ms");
        report.metric("lat_p99_ms", quantile(&lat, 0.99), "ms");
        report.metric(
            "cpu_ms_per_op",
            first.cpu_s * 1e3 / first.ok.max(1) as f64,
            "ms",
        );
        report.metric("rss_mb", rss_mb, "MiB");
        return Ok(report);
    }

    // Traced run: replay the traced quarters' requests through every
    // layer.
    let untraced: Vec<&Phase> = phases.iter().step_by(2).collect();
    let traced: Vec<&Phase> = phases.iter().skip(1).step_by(2).collect();
    let mut rec = Recorder::new(traced[0].run.started);
    let mut ops = Vec::new();
    for phase in &traced {
        let mut samples: Vec<_> = phase.run.samples.iter().collect();
        samples.sort_by_key(|s| s.start);
        for s in samples {
            let id = ops.len() as u64;
            let sent = phase.run.started + s.start;
            rec.record(id, "client.request", sent, sent + s.reply.latency);
            ops.push(Op {
                id,
                class: plan[s.plan].class,
                wire: plan[s.plan].wire.clone(),
                latency: Some(s.reply.latency),
            });
        }
    }
    let mirror = Mirror::new(EquilibriumCache::in_memory());
    if kind == Kind::Warm {
        mirror.fill(&classes)?;
    }
    let replay = layers::replay(&mut rec, &mirror, &ops, args.seconds / 2, Staged::Request)?;
    println!("traced: replayed {} of {} requests", replay.ops, ops.len());

    let store = EquilibriumCache::open(&cache_dir).map_err(|e| e.to_string())?;
    let mut flush_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        store.persist().map_err(|e| e.to_string())?;
        flush_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let delta = |name: &str| traced.iter().map(|p| p.delta(name)).sum::<u64>();
    let (hits, misses) = (delta("srv.hits"), delta("srv.misses"));
    let live = Live {
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        batch_size: lifetime.get("srv.batched") as f64 / lifetime.get("srv.batches").max(1) as f64,
        failures: (delta("srv.errors") + delta("srv.shed") + delta("srv.deadline")) as f64,
        flush_ms: median(&flush_ms),
        par_efficiency,
        overhead_pct: 100.0 * (1.0 - ops_per_s(&traced) / ops_per_s(&untraced).max(1e-9)),
        lat_p50_ms: median(
            &traced
                .iter()
                .flat_map(|p| p.latencies_ms())
                .collect::<Vec<_>>(),
        ),
    };
    layers::report(&mut report, &rec, &replay, &live, Staged::Request);
    let spans = args
        .work_dir
        .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
    rec.write_json(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(report)
}
