//! `lp_sweep`: the researcher's sweep, in process and without HTTP.
//!
//! A seeded corpus of classes runs through `EquilibriumCache::solve` on
//! an in-memory memo, fanned over `defender_par::par_map` at `nproc`
//! jobs as `exp_*` with `--cache` runs it (instrumentation on). One
//! `par_map` item is one class: its cold instance, then its `r`
//! relabelled isomorphs from the memo, in order, so two isomorphs of one
//! class are never in flight at once and the misses equal the classes.

use std::time::{Duration, Instant};

use defender_cache::EquilibriumCache;
use defender_core::model::TupleGame;
use defender_core::solve::ExactEquilibrium;
use defender_graph::{Graph, GraphBuilder};
use defender_num::rng::XorShiftRng;
use defender_obs as obs;
use defender_serve::solver::TUPLE_LIMIT;

use crate::check::is_equilibrium;
use crate::inputs::{self, NU};
use crate::layers::{self, Live, Mirror, Op, Staged};
use crate::trace::{median, quantile, Recorder};
use crate::{procfs, Args, Report};

/// Relabelled isomorphs per class.
const ISOMORPHS: usize = 3;

/// Classes generated per run; a run stops at its deadline long before.
const CLASSES: usize = 12_000;

/// Set-ups per run; set-up time is their median.
const SETUP_REPEATS: usize = 5;

/// One instance as the sweep receives it: vertex count and edge list.
struct Input {
    n: usize,
    edges: Vec<(usize, usize)>,
}

fn input_of(graph: &Graph) -> Input {
    Input {
        n: graph.vertex_count(),
        edges: graph
            .edges()
            .map(|e| {
                let ends = graph.endpoints(e);
                (ends.u().index(), ends.v().index())
            })
            .collect(),
    }
}

/// Builds every instance's graph and checks its game.
fn build(inputs: &[Vec<Input>], ks: &[usize]) -> Result<Vec<Vec<Graph>>, String> {
    inputs
        .iter()
        .zip(ks)
        .map(|(instances, &k)| {
            instances
                .iter()
                .map(|input| {
                    let mut b = GraphBuilder::new(input.n);
                    for &(u, v) in &input.edges {
                        b.add_edge(u, v);
                    }
                    let graph = b.build();
                    TupleGame::new(&graph, k, NU).map_err(|e| e.to_string())?;
                    Ok(graph)
                })
                .collect()
        })
        .collect()
}

/// One swept instance.
struct Solved {
    eq: Result<ExactEquilibrium, String>,
    start: Instant,
    latency: Duration,
}

/// A sweep over the corpus until `duration` runs out.
struct Sweep {
    classes: Vec<(usize, Vec<Solved>)>,
    busy_s: f64,
    elapsed: Duration,
    cpu_s: f64,
    hits: u64,
    misses: u64,
}

/// Sweeps the corpus, class by class, until `duration` runs out. A pass
/// that finishes the corpus early starts another with a fresh memo, so
/// every class of every pass is solved cold once.
fn sweep(graphs: &[Vec<Graph>], ks: &[usize], duration: Duration) -> Result<Sweep, String> {
    let indices: Vec<usize> = (0..graphs.len()).collect();
    let before = obs::snapshot();
    let cpu0 = procfs::cpu_seconds("self")?;
    let t0 = Instant::now();
    let mut classes = Vec::new();
    while t0.elapsed() < duration {
        let memo = EquilibriumCache::in_memory();
        let pass = defender_par::par_map(&indices, |&c| {
            if t0.elapsed() >= duration {
                return None;
            }
            let solved: Vec<Solved> = graphs[c]
                .iter()
                .map(|graph| {
                    let start = Instant::now();
                    let eq = TupleGame::new(graph, ks[c], NU)
                        .and_then(|game| memo.solve(&game, TUPLE_LIMIT))
                        .map_err(|e| e.to_string());
                    Solved {
                        eq,
                        start,
                        latency: start.elapsed(),
                    }
                })
                .collect();
            Some((c, solved))
        });
        classes.extend(pass.into_iter().flatten());
    }
    let elapsed = t0.elapsed();
    let cpu_s = procfs::cpu_seconds("self")? - cpu0;
    let after = obs::snapshot();
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let busy_s = classes
        .iter()
        .map(|(_, s)| s.iter().map(|i| i.latency.as_secs_f64()).sum::<f64>())
        .sum();
    Ok(Sweep {
        classes,
        busy_s,
        elapsed,
        cpu_s,
        hits: delta("cache.hits"),
        misses: delta("cache.misses"),
    })
}

/// Checks a sweep: one miss per class, every isomorph at the class's
/// cold value, and every equilibrium exact. Returns (attempted, failed).
fn check(graphs: &[Vec<Graph>], ks: &[usize], run: &Sweep) -> (u64, u64, bool) {
    let per_class = defender_par::par_map(&run.classes, |(c, solved)| {
        let cold = solved
            .first()
            .and_then(|s| s.eq.as_ref().ok())
            .map(|eq| eq.value);
        solved
            .iter()
            .zip(&graphs[*c])
            .filter(|(s, graph)| {
                let Ok(eq) = &s.eq else { return true };
                let Ok(game) = TupleGame::new(graph, ks[*c], NU) else {
                    return true;
                };
                Some(eq.value) != cold || !is_equilibrium(&game, &eq.config)
            })
            .count() as u64
    });
    let attempted: u64 = run.classes.iter().map(|(_, s)| s.len() as u64).sum();
    let classes = run.classes.len() as u64;
    let path_taken = run.misses == classes && run.hits == classes * ISOMORPHS as u64;
    (attempted, per_class.iter().sum(), path_taken)
}

/// Runs `lp_sweep`.
pub fn run(args: &Args) -> Result<Report, String> {
    obs::enable();
    let jobs = defender_par::available_jobs();
    defender_par::set_jobs(jobs);
    let mut rng = XorShiftRng::seed_from_u64(args.seed);
    let corpus = inputs::sweep_corpus(&mut rng, CLASSES, ISOMORPHS);
    println!(
        "{}",
        inputs::describe(
            &args.workload,
            corpus.iter().map(|c| &c.class),
            ISOMORPHS as f64
        )
    );
    let ks: Vec<usize> = corpus.iter().map(|c| c.class.k).collect();
    let sources: Vec<Vec<Input>> = corpus
        .iter()
        .map(|c| {
            std::iter::once(&c.class.graph)
                .chain(&c.isomorphs)
                .map(input_of)
                .collect()
        })
        .collect();
    drop(corpus);

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        graphs = build(&sources, &ks)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // The traced run alternates untraced and traced quarters, so warm-up
    // and drift fall on both sides of the tracing-overhead comparison.
    let quarters: u32 = if args.trace { 4 } else { 1 };
    procfs::reset_peak_rss("self");
    let runs = (0..quarters)
        .map(|_| sweep(&graphs, &ks, args.seconds / quarters))
        .collect::<Result<Vec<_>, _>>()?;
    let rss_mb = procfs::peak_rss_mib("self")?;

    let mut report = Report::default();
    let mut ok = Vec::new();
    let mut path_taken = true;
    for run in &runs {
        let (attempted, failed, taken) = check(&graphs, &ks, run);
        report.attempted += attempted;
        report.failed += failed;
        ok.push(attempted - failed);
        path_taken &= taken;
    }
    if !path_taken {
        eprintln!("perfbench: lp_sweep misses do not match its classes");
    }
    report.correct = report.failed == 0 && path_taken;
    let ops_per_s = |set: &[usize]| {
        let done: u64 = set.iter().map(|&i| ok[i]).sum();
        let elapsed: f64 = set.iter().map(|&i| runs[i].elapsed.as_secs_f64()).sum();
        done as f64 / elapsed.max(1e-9)
    };
    let latencies_ms = |set: &[usize]| -> Vec<f64> {
        set.iter()
            .flat_map(|&i| &runs[i].classes)
            .flat_map(|(_, s)| s.iter().map(|i| i.latency.as_secs_f64() * 1e3))
            .collect()
    };

    if !args.trace {
        let lat = latencies_ms(&[0]);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("ops_per_s", ops_per_s(&[0]), "1/s");
        report.metric("lat_p50_ms", median(&lat), "ms");
        report.metric("lat_p99_ms", quantile(&lat, 0.99), "ms");
        report.metric(
            "cpu_ms_per_op",
            runs[0].cpu_s * 1e3 / ok[0].max(1) as f64,
            "ms",
        );
        report.metric("rss_mb", rss_mb, "MiB");
        return Ok(report);
    }

    // Traced run: the traced quarters' instances, class by class, replayed
    // through every layer; the mirror memo persists so its flush is
    // timed at the store size the replay reaches.
    let traced = [1, 3];
    let epoch = traced
        .iter()
        .flat_map(|&i| &runs[i].classes)
        .filter_map(|(_, s)| s.first().map(|i| i.start))
        .min()
        .unwrap_or_else(Instant::now);
    let mut rec = Recorder::new(epoch);
    let mut ops = Vec::new();
    let mut ordered: Vec<&(usize, Vec<Solved>)> =
        traced.iter().flat_map(|&i| &runs[i].classes).collect();
    ordered.sort_by_key(|(c, _)| *c);
    ordered.dedup_by_key(|(c, _)| *c);
    for (c, solved) in ordered {
        for (graph, s) in graphs[*c].iter().zip(solved) {
            let id = ops.len() as u64;
            rec.record(id, "sweep.instance", s.start, s.start + s.latency);
            ops.push(Op {
                id,
                class: *c,
                wire: inputs::frame_solve(&inputs::edge_list_body(graph, ks[*c])),
                latency: Some(s.latency),
            });
        }
    }
    let mirror_dir = args.work_dir.join("mirror-cache");
    let _ = std::fs::remove_dir_all(&mirror_dir);
    let mirror = Mirror::new(EquilibriumCache::open(&mirror_dir).map_err(|e| e.to_string())?);
    let before = obs::snapshot();
    let replay = layers::replay(
        &mut rec,
        &mirror,
        &ops,
        args.seconds / 2,
        Staged::CacheSolve,
    )?;
    let after = obs::snapshot();
    println!("traced: replayed {} of {} instances", replay.ops, ops.len());
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let mut flush_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        mirror.cache().persist().map_err(|e| e.to_string())?;
        flush_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let sum = |f: fn(&Sweep) -> f64| traced.iter().map(|&i| f(&runs[i])).sum::<f64>();
    let (hits, misses) = (sum(|r| r.hits as f64), sum(|r| r.misses as f64));
    let live = Live {
        hit_ratio: hits / (hits + misses).max(1.0),
        batch_size: delta("srv.batched") as f64 / delta("srv.batches").max(1) as f64,
        failures: (delta("srv.errors") + delta("srv.shed") + delta("srv.deadline")) as f64,
        flush_ms: median(&flush_ms),
        par_efficiency: sum(|r| r.busy_s)
            / (jobs as f64 * sum(|r| r.elapsed.as_secs_f64())).max(1e-9),
        overhead_pct: 100.0 * (1.0 - ops_per_s(&traced) / ops_per_s(&[0, 2]).max(1e-9)),
        lat_p50_ms: median(&latencies_ms(&traced)),
    };
    layers::report(&mut report, &rec, &replay, &live, Staged::CacheSolve);
    let spans = args
        .work_dir
        .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
    rec.write_json(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(report)
}
