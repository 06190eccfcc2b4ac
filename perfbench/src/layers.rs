//! The traced run's per-layer replay.
//!
//! Every sampled operation of a workload — a request for the serve
//! workloads, an instance for `lp_sweep` — is replayed in this process
//! through the public call of each layer, in the order
//! `solve_endpoint` and `Solver::solve` make them, each call wrapped in
//! a span of the operation's id:
//!
//! ```text
//! serve.request            framed request bytes → response bytes
//!   serve.http.read        http::RequestReader::next_request
//!   serve.api.parse        api::parse_solve_request + request_game
//!   serve.solver.solve     Solver::solve on a mirror solver
//!   core.extras            pure NE, A_tuple, both best responses
//!     core.defender_br     defender_best_response_auto
//!   serve.api.render       api::render_solve_response
//!   serve.http.write       http::write_response into a buffer
//! serve.solver.split       the parts of Solver::solve, called alone
//!   graph.canonical.form   canonical_form
//!   cache.probe            EquilibriumCache::probe (with the relabel)
//!   cache.solve            EquilibriumCache::solve
//! core.class               once per class, counters captured per call
//!   game.hint              the k = 1 incidence-bimatrix support scan
//!   core.solve             solve_exact_hinted on the canonical game
//!   core.tuples            all_tuples
//!   lp.zero_sum            solve_zero_sum_hinted on the class matrix
//! ```
//!
//! The mirror solver and caches start in the state the live path saw
//! (filled for `warm_hits`, empty otherwise), so a replayed request
//! takes the same hit or miss path as the live one. Counter deltas are
//! captured on this thread only, at one job, because obs counters are
//! process-global.

use std::sync::Arc;
use std::time::{Duration, Instant};

use defender_cache::EquilibriumCache;
use defender_core::best_response::{attacker_best_response, defender_best_response_auto};
use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::model::TupleGame;
use defender_core::pure::pure_ne_existence;
use defender_core::solve::solve_exact_hinted;
use defender_core::tree::a_tuple_tree_report;
use defender_core::tuple::all_tuples;
use defender_game::{first_equilibrium_supports, TwoPlayerMatrixGame};
use defender_graph::canonical::canonical_form;
use defender_graph::{properties, Graph};
use defender_lp::solve_zero_sum_hinted;
use defender_num::Ratio;
use defender_obs as obs;
use defender_serve::api::{parse_solve_request, render_solve_response, CacheStatus, SolveOutcome};
use defender_serve::http::{write_response, ReadOutcome, RequestReader};
use defender_serve::solver::{request_game, Solver, SolverConfig, TUPLE_LIMIT};
use defender_serve::ServeConfig;

use crate::inputs::{hint_applies, Class, NU};
use crate::trace::{median, scaled, Recorder, US};
use crate::Report;

/// The replay's own solver and caches.
#[derive(Debug)]
pub struct Mirror {
    cache: Arc<EquilibriumCache>,
    solver: Arc<Solver>,
    sweep_cache: EquilibriumCache,
}

impl Mirror {
    /// A mirror whose solver serves from `cache` with the server's
    /// default settings. `cache.solve` is timed on a second in-memory
    /// cache kept in the same state.
    pub fn new(cache: EquilibriumCache) -> Mirror {
        let cache = Arc::new(cache);
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        Mirror {
            cache,
            solver,
            sweep_cache: EquilibriumCache::in_memory(),
        }
    }

    /// Memoizes every class in both caches (the warm state).
    pub fn fill(&self, classes: &[Class]) -> Result<(), String> {
        for class in classes {
            let game = TupleGame::new(&class.graph, class.k, NU).map_err(|e| e.to_string())?;
            self.cache
                .solve(&game, TUPLE_LIMIT)
                .and_then(|_| self.sweep_cache.solve(&game, TUPLE_LIMIT))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// The cache behind the mirror solver.
    pub fn cache(&self) -> &EquilibriumCache {
        &self.cache
    }
}

impl Drop for Mirror {
    fn drop(&mut self) {
        self.solver.shutdown();
    }
}

/// One operation to replay.
#[derive(Debug)]
pub struct Op {
    /// Span id shared with the live measurement of the same operation.
    pub id: u64,
    /// Index of the operation's class in the workload.
    pub class: usize,
    /// The framed `/v1/solve` request.
    pub wire: Vec<u8>,
    /// Live latency of the same operation, when it was measured.
    pub latency: Option<Duration>,
}

/// Which replayed spans make up the live operation, for the part of
/// live latency the staged layers do not cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staged {
    /// A served request: the stages of `serve.request`.
    Request,
    /// An `lp_sweep` instance: its `cache.solve` call.
    CacheSolve,
}

/// Per-operation and per-class numbers the spans alone do not carry.
#[derive(Debug, Default)]
pub struct Replay {
    /// Operations replayed.
    pub ops: usize,
    /// Live latency minus the staged self times, per operation (ms).
    pub unstaged_ms: Vec<f64>,
    /// `Solver::solve` minus its canonicalize, probe and class solve (ms).
    pub wait_ms: Vec<f64>,
    /// `C(m, k)` per class.
    pub tuples: Vec<f64>,
    /// `lp.simplex.pivots` per class solve.
    pub pivots: Vec<f64>,
    /// `num.accum_reductions` per class solve.
    pub accum_reductions: Vec<f64>,
    /// `lp.warm.attempts` summed over class solves.
    pub warm_attempts: u64,
    /// `lp.warm.rejected` summed over class solves.
    pub warm_rejected: u64,
}

/// Serve's LP warm start for sparse `k = 1` classes: the first
/// equilibrium supports of the edge–vertex incidence bimatrix.
fn support_hint(game: &TupleGame<'_>) -> Option<(Vec<usize>, Vec<usize>)> {
    first_equilibrium_supports(&TwoPlayerMatrixGame::zero_sum(incidence(game.graph(), 1)?))
}

/// The tuple × vertex catch matrix of `Π_k(graph)`.
fn incidence(graph: &Graph, k: usize) -> Option<Vec<Vec<Ratio>>> {
    let tuples = all_tuples(graph, k, TUPLE_LIMIT).ok()?;
    Some(
        tuples
            .iter()
            .map(|t| {
                let mut row = vec![Ratio::ZERO; graph.vertex_count()];
                for v in t.vertices(graph) {
                    row[v.index()] = Ratio::ONE;
                }
                row
            })
            .collect(),
    )
}

/// Replays `ops` in order until `budget` is spent, recording spans into
/// `rec`.
pub fn replay(
    rec: &mut Recorder,
    mirror: &Mirror,
    ops: &[Op],
    budget: Duration,
    staged: Staged,
) -> Result<Replay, String> {
    obs::enable();
    defender_par::set_jobs(1);
    let defaults = ServeConfig::default();
    let started = Instant::now();
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Replay::default();
    for op in ops {
        if started.elapsed() >= budget {
            break;
        }
        let id = op.id;
        out.ops += 1;

        let root = rec.begin(id, "serve.request");
        let span = rec.begin(id, "serve.http.read");
        let request = match RequestReader::new(defaults.max_body).next_request(&mut &op.wire[..]) {
            ReadOutcome::Request(request) => request,
            other => {
                return Err(format!(
                    "op {id}: replayed request did not frame: {other:?}"
                ))
            }
        };
        let read_ns = rec.end(span);
        let span = rec.begin(id, "serve.api.parse");
        let parsed = parse_solve_request(&request.body, defaults.max_vertices)
            .map_err(|e| format!("op {id}: {}", e.message))?;
        let game = request_game(&parsed.graph, parsed.k, parsed.nu)
            .map_err(|e| format!("op {id}: {}", e.message))?;
        let parse_ns = rec.end(span);
        let span = rec.begin(id, "serve.solver.solve");
        let served = mirror
            .solver
            .solve(&game)
            .map_err(|e| format!("op {id}: {}", e.message))?;
        let solve_ns = rec.end(span);
        let span = rec.begin(id, "core.extras");
        let pure = pure_ne_existence(&game);
        let a_tuple = a_tuple_tree_report(&game)
            .map(|r| ("tree", r))
            .ok()
            .or_else(|| {
                properties::is_bipartite(game.graph())
                    .then(|| {
                        a_tuple_bipartite_report(&game)
                            .map(|r| ("bipartite", r))
                            .ok()
                    })
                    .flatten()
            });
        let attacker_br = attacker_best_response(&game, &served.equilibrium.config);
        let defender_br = rec.time(id, "core.defender_br", || {
            defender_best_response_auto(&game, &served.equilibrium.config, TUPLE_LIMIT)
        });
        let extras_ns = rec.end(span);
        let span = rec.begin(id, "serve.api.render");
        let body = render_solve_response(
            &game,
            &SolveOutcome {
                canonical: &served.canonical,
                status: served.status,
                equilibrium: &served.equilibrium,
                pure: &pure,
                a_tuple: a_tuple.as_ref().map(|(route, r)| (*route, r)),
                attacker_br,
                defender_br: (&defender_br.0, defender_br.1, defender_br.2),
            },
        );
        let render_ns = rec.end(span);
        let span = rec.begin(id, "serve.http.write");
        let mut response = Vec::with_capacity(body.len() + 128);
        write_response(&mut response, 200, &body, request.keep_alive, None)
            .map_err(|e| format!("op {id}: {e}"))?;
        let write_ns = rec.end(span);
        rec.end(root);

        let split = rec.begin(id, "serve.solver.split");
        let span = rec.begin(id, "graph.canonical.form");
        let form = canonical_form(game.graph());
        let canon_ns = rec.end(span);
        let span = rec.begin(id, "cache.probe");
        let probed = mirror.cache.probe(&game, &form, TUPLE_LIMIT);
        let probe_ns = rec.end(span);
        if probed.is_none() {
            return Err(format!("op {id}: the mirror cache lost a solved class"));
        }
        let span = rec.begin(id, "cache.solve");
        mirror
            .sweep_cache
            .solve(&game, TUPLE_LIMIT)
            .map_err(|e| format!("op {id}: {e}"))?;
        let cache_solve_ns = rec.end(span);
        rec.end(split);

        let mut class_solve_ns = 0;
        if seen.insert(op.class) {
            let class = rec.begin(id, "core.class");
            let canonical_graph = form.to_graph();
            let canonical_game = TupleGame::new(&canonical_graph, game.k(), game.attacker_count())
                .map_err(|e| format!("op {id}: {e}"))?;
            let (hint, hint_ns) = if hint_applies(canonical_game.k(), canonical_graph.edge_count())
            {
                let span = rec.begin(id, "game.hint");
                let hint = support_hint(&canonical_game);
                (hint, rec.end(span))
            } else {
                (None, 0)
            };
            let hint_refs = hint.as_ref().map(|(r, c)| (r.as_slice(), c.as_slice()));
            let span = rec.begin(id, "core.solve");
            let (solved, deltas) =
                obs::captured(|| solve_exact_hinted(&canonical_game, TUPLE_LIMIT, hint_refs));
            let core_ns = rec.end(span);
            solved.map_err(|e| format!("op {id}: {e}"))?;
            let delta = |name: &str| {
                deltas
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |(_, v)| *v)
            };
            out.pivots.push(delta("lp.simplex.pivots") as f64);
            out.accum_reductions
                .push(delta("num.accum_reductions") as f64);
            out.warm_attempts += delta("lp.warm.attempts");
            out.warm_rejected += delta("lp.warm.rejected");
            let span = rec.begin(id, "core.tuples");
            let tuples = all_tuples(&canonical_graph, game.k(), TUPLE_LIMIT)
                .map_err(|e| format!("op {id}: {e}"))?;
            rec.end(span);
            out.tuples.push(tuples.len() as f64);
            let matrix = incidence(&canonical_graph, game.k())
                .ok_or_else(|| format!("op {id}: class matrix is too large"))?;
            let span = rec.begin(id, "lp.zero_sum");
            solve_zero_sum_hinted(&matrix, hint_refs).map_err(|e| format!("op {id}: {e}"))?;
            rec.end(span);
            rec.end(class);
            if served.status == CacheStatus::Miss {
                class_solve_ns = hint_ns + core_ns;
            }
        }

        let ms = |ns: u64| ns as f64 / 1e6;
        out.wait_ms
            .push(ms(solve_ns) - ms(canon_ns) - ms(probe_ns) - ms(class_solve_ns));
        if let Some(latency) = op.latency {
            let staged_ns = match staged {
                Staged::Request => read_ns + parse_ns + solve_ns + extras_ns + render_ns + write_ns,
                Staged::CacheSolve => cache_solve_ns,
            };
            out.unstaged_ms
                .push(latency.as_secs_f64() * 1e3 - ms(staged_ns));
        }
    }
    Ok(out)
}

/// Live-path numbers of the traced run that the replay cannot see.
#[derive(Debug)]
pub struct Live {
    /// hits / (hits + misses) on the live path.
    pub hit_ratio: f64,
    /// Classes per solve batch.
    pub batch_size: f64,
    /// Errors, sheds and deadline misses.
    pub failures: f64,
    /// `EquilibriumCache::persist` at the store size reached (ms).
    pub flush_ms: f64,
    /// Σ per-item busy time / (jobs × `par_map` wall time).
    pub par_efficiency: f64,
    /// Throughput lost to tracing, against the untraced half of the run.
    pub overhead_pct: f64,
    /// Median live latency of the traced half (ms).
    pub lat_p50_ms: f64,
}

/// Adds every per-layer metric of a traced run to `report`. Times are
/// medians per call of span self times, except `core.extras_us`, which
/// is the whole of its four calls (`core.defender_br` nests inside it).
pub fn report(report: &mut Report, rec: &Recorder, replay: &Replay, live: &Live, staged: Staged) {
    let selfs = rec.self_times_by_name();
    let durations = rec.durations_by_name();
    let of = |map: &std::collections::BTreeMap<&'static str, Vec<u64>>, name: &str| {
        median(&scaled(map.get(name).map_or(&[][..], Vec::as_slice), US))
    };
    let us = |name: &str| of(&selfs, name);
    let wire_ms = median(&replay.unstaged_ms);
    let staged_ms = match staged {
        Staged::Request => [
            "serve.http.read",
            "serve.api.parse",
            "serve.solver.solve",
            "core.extras",
            "serve.api.render",
            "serve.http.write",
        ]
        .iter()
        .map(|name| of(&durations, name))
        .sum::<f64>(),
        Staged::CacheSolve => of(&durations, "cache.solve"),
    } / 1e3;
    let accepted = replay.warm_attempts.saturating_sub(replay.warm_rejected);

    report.metric("serve.wire_wait_ms", wire_ms, "ms");
    report.metric("serve.http.read_us", us("serve.http.read"), "us");
    report.metric("serve.http.write_us", us("serve.http.write"), "us");
    report.metric("serve.api.parse_us", us("serve.api.parse"), "us");
    report.metric("serve.api.render_us", us("serve.api.render"), "us");
    report.metric("graph.canonical.form_us", us("graph.canonical.form"), "us");
    report.metric("cache.probe_us", us("cache.probe"), "us");
    report.metric("cache.hit_ratio", live.hit_ratio, "ratio");
    report.metric("core.extras_us", of(&durations, "core.extras"), "us");
    report.metric("core.defender_br_us", us("core.defender_br"), "us");
    report.metric("serve.solver.wait_ms", median(&replay.wait_ms), "ms");
    report.metric("serve.solver.batch_size", live.batch_size, "count");
    report.metric("serve.failures", live.failures, "count");
    report.metric("cache.flush_ms", live.flush_ms, "ms");
    report.metric("cache.solve_us", us("cache.solve"), "us");
    report.metric("core.solve_us", us("core.solve"), "us");
    report.metric("core.tuples", median(&replay.tuples), "count");
    report.metric("lp.zero_sum_us", us("lp.zero_sum"), "us");
    report.metric("lp.pivots", median(&replay.pivots), "count");
    report.metric("game.hint_us", us("game.hint"), "us");
    report.metric(
        "lp.warm_accept_ratio",
        accepted as f64 / replay.warm_attempts.max(1) as f64,
        "ratio",
    );
    report.metric(
        "num.accum_reductions",
        median(&replay.accum_reductions),
        "count",
    );
    report.metric("par.efficiency", live.par_efficiency, "ratio");
    report.metric("trace.overhead_pct", live.overhead_pct, "%");
    report.metric(
        "trace.accounting_gap_ms",
        live.lat_p50_ms - wire_ms - staged_ms,
        "ms",
    );
}
