//! The serving solve path: cache-first probe, in-flight coalescing,
//! misses solved by the request that found them, and admission control
//! under overload.
//!
//! Requests flow through three gates:
//!
//! 1. **Probe** — the canonical-key memo is consulted without replaying
//!    stored counter deltas ([`defender_cache::EquilibriumCache::probe`]).
//!    A warm class is answered here in O(canonical form), solve-free.
//! 2. **Coalesce** — a miss joins the in-flight table: if another
//!    request for the same canonical class is already solving it, this
//!    one just waits for that solve and shares the result
//!    (`srv.coalesced`). One solve fans out to every waiter.
//! 3. **Lead** — the request that finds its class missing solves it, on
//!    a scoped thread that its connection thread joins, so the solve's
//!    working memory is freed before the answer is sent. Its `Lead`
//!    guard settles the class's slot on every exit — the answer, a typed
//!    error, or a `500 Internal` while the solve unwinds — so a slow or
//!    panicking class holds up only its own requests.
//!
//! Overload is governed at gate 3: once ¾ of `max_queue` classes are
//! solving at once, new classes are shed with `429 + Retry-After`, while
//! hits and coalesced joins keep being served — a warmed server degrades
//! to its cache instead of melting.
//!
//! # Judged counters
//!
//! The serving loop's *live* counters are warm-variant by design: a
//! cold instance shows `lp.*` solve activity, a warm one must show
//! none. The warmth-invariant "judged" view is reconstructed from the
//! served class *set*: [`Solver::judged_counters`] sums the stored
//! per-class solve deltas over every class this process served
//! (`Σ class-deltas`), which is exactly what a cold batch run over one
//! representative per class would tick — invariant to cache warmth,
//! request multiplicity, and arrival order.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

use defender_cache::{CacheKey, EquilibriumCache};
use defender_core::model::TupleGame;
use defender_core::solve::{support_hint, ExactEquilibrium};
use defender_core::CoreError;
use defender_graph::canonical::canonical_form;
use defender_graph::Graph;
use defender_obs as obs;

use crate::api::CacheStatus;
use crate::http::HttpError;

/// Tuple-enumeration ceiling for served solves (matches the CLI default).
pub const TUPLE_LIMIT: usize = 100_000;

/// Largest attacker count `ν` a request may ask for. A solve holds `ν`
/// copies of the attacker strategy, so its time and memory grow
/// linearly with `ν`; every served game in this repository uses `ν ≤ 10`.
pub const NU_LIMIT: usize = 1_000;

/// Tunables for the solve path.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Bound on classes solving at once; new classes shed past ¾ of it.
    pub max_queue: usize,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig { max_queue: 64 }
    }
}

/// Result of one solve request, ready for rendering.
#[derive(Debug)]
pub struct Served {
    /// The equilibrium, relabeled onto the request's graph.
    pub equilibrium: ExactEquilibrium,
    /// Canonical graph6 key of the request's class.
    pub canonical: String,
    /// Hit / miss / coalesced.
    pub status: CacheStatus,
}

/// One class's in-flight solve; joiners block on `cv` until its leader
/// settles `done`.
struct InFlight {
    done: Mutex<Option<Result<(), HttpError>>>,
    cv: Condvar,
}

impl InFlight {
    fn settle(&self, result: Result<(), HttpError>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }

    /// Blocks until the leader settles the slot, which its [`Lead`]
    /// guard does on every exit.
    fn wait(&self) -> Result<(), HttpError> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// How a miss enters the in-flight table.
enum Entry<'s> {
    /// Another request is solving the class; wait on its slot.
    Join(Arc<InFlight>),
    /// This request opened the slot and solves the class.
    Lead(Lead<'s>),
}

/// The leading request's hold on its class's in-flight slot. Dropping it
/// removes the slot from the table and settles it with the recorded
/// outcome, or with a `500 Internal` when the leader unwound before
/// recording one.
struct Lead<'s> {
    solver: &'s Solver,
    key: CacheKey,
    outcome: Option<Result<(), HttpError>>,
}

impl Lead<'_> {
    /// Releases the class's joiners with `outcome`.
    fn settle(mut self, outcome: Result<(), HttpError>) {
        self.outcome = Some(outcome);
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(HttpError {
                status: 500,
                kind: "Internal",
                message: "the solve for this class panicked".to_owned(),
            })
        });
        if let Some(slot) = self.solver.lock_inflight().remove(&self.key) {
            slot.settle(outcome);
        }
        self.solver.settled.notify_all();
    }
}

/// The shared solve engine behind every connection handler. It owns no
/// long-lived thread: each miss is solved by the request that found it,
/// on a scoped thread that request joins.
pub struct Solver {
    cache: Arc<EquilibriumCache>,
    config: SolverConfig,
    inflight: Mutex<BTreeMap<CacheKey, Arc<InFlight>>>,
    /// Signalled whenever a slot leaves `inflight`.
    settled: Condvar,
    served: Mutex<BTreeSet<CacheKey>>,
    stop: AtomicBool,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .field("inflight", &self.lock_inflight().len())
            .finish()
    }
}

impl Solver {
    /// Creates the engine over `cache`.
    pub fn start(cache: Arc<EquilibriumCache>, config: SolverConfig) -> Arc<Solver> {
        Arc::new(Solver {
            cache,
            config,
            inflight: Mutex::new(BTreeMap::new()),
            settled: Condvar::new(),
            served: Mutex::new(BTreeSet::new()),
            stop: AtomicBool::new(false),
        })
    }

    /// Refuses new classes from now on (`503 Shutdown`) and blocks until
    /// every class already solving has settled, so the cache holds every
    /// class solved before this returns. Hits and joins are still served.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let mut inflight = self.lock_inflight();
        while !inflight.is_empty() {
            inflight = self
                .settled
                .wait(inflight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Serves one instance: probe, coalesce, or lead the solve.
    ///
    /// # Errors
    ///
    /// `429 Overloaded` past the shed watermark, `503 Shutdown` for a new
    /// class after [`shutdown`](Self::shutdown), and solve errors.
    pub fn solve(&self, game: &TupleGame<'_>) -> Result<Served, HttpError> {
        let t0 = obs::trace::elapsed_ns();
        let form = canonical_form(game.graph());
        obs::counter!("cache.canon_ns").add(obs::trace::elapsed_ns().saturating_sub(t0));
        let key: CacheKey = (form.key(), game.k(), game.attacker_count());

        if let Some(eq) = self.cache.probe(game, &form, TUPLE_LIMIT) {
            obs::counter!("srv.hits").incr();
            return Ok(self.serve(key, eq, CacheStatus::Hit));
        }

        let slot = match self.enter(&key)? {
            Entry::Join(slot) => slot,
            Entry::Lead(lead) => {
                obs::counter!("srv.misses").incr();
                let solved = self.solve_miss(game).map_err(|e| HttpError {
                    status: 422,
                    kind: "Unsolvable",
                    message: e.to_string(),
                });
                lead.settle(solved.as_ref().map(|_| ()).map_err(Clone::clone));
                return Ok(self.serve(key, solved?, CacheStatus::Miss));
            }
        };
        obs::counter!("srv.coalesced").incr();
        slot.wait()?;

        // The class is cached now; serve this request's labeling from it.
        let eq = self
            .cache
            .probe(game, &form, TUPLE_LIMIT)
            .ok_or(HttpError {
                status: 500,
                kind: "Internal",
                message: "solved class failed to relabel onto the request graph".to_owned(),
            })?;
        Ok(self.serve(key, eq, CacheStatus::Coalesced))
    }

    /// The warmth-invariant judged counters: `Σ` of stored solve
    /// deltas over every class this process has served (see module docs).
    pub fn judged_counters(&self) -> Vec<(String, u64)> {
        let served = self.lock_served();
        self.cache.replay_sums(served.iter())
    }

    /// Number of distinct canonical classes served so far.
    pub fn served_classes(&self) -> usize {
        self.lock_served().len()
    }

    /// Joins `key`'s in-flight slot, or opens it and leads. Admission
    /// applies only to new classes: joins ride a solve already paid for.
    fn enter(&self, key: &CacheKey) -> Result<Entry<'_>, HttpError> {
        let mut inflight = self.lock_inflight();
        if let Some(slot) = inflight.get(key) {
            return Ok(Entry::Join(Arc::clone(slot)));
        }
        if self.stop.load(Ordering::Acquire) {
            return Err(HttpError {
                status: 503,
                kind: "Shutdown",
                message: "server is shutting down".to_owned(),
            });
        }
        let watermark = (self.config.max_queue * 3 / 4).max(1);
        if inflight.len() >= watermark {
            obs::counter!("srv.shed").incr();
            return Err(HttpError {
                status: 429,
                kind: "Overloaded",
                message: format!(
                    "{} classes are solving at once, the shed watermark for max_queue {}; \
                     retry shortly",
                    inflight.len(),
                    self.config.max_queue
                ),
            });
        }
        inflight.insert(
            key.clone(),
            Arc::new(InFlight {
                done: Mutex::new(None),
                cv: Condvar::new(),
            }),
        );
        obs::gauge!("srv.inflight").set_max(inflight.len() as u64);
        Ok(Entry::Lead(Lead {
            solver: self,
            key: key.clone(),
            outcome: None,
        }))
    }

    /// Solves a missing class on a scoped thread that frees all it
    /// allocates: it solves into a scratch memo and waits while this
    /// thread copies the entry into the shared memo and the answer out.
    /// glibc returns a thread's freed memory only from the top of its
    /// heap, so one long-lived allocation left above a freed solve would
    /// keep the solve's peak resident (DESIGN.md §16). A panic in the
    /// solve is re-raised here, and a caller's counting scope covers the
    /// solve as it covers a `defender-par` worker.
    fn solve_miss(&self, game: &TupleGame<'_>) -> Result<ExactEquilibrium, CoreError> {
        let inherit = obs::in_scope();
        let (handoff, handed) = mpsc::sync_channel(0);
        let (release, released) = mpsc::sync_channel::<()>(0);
        let solve = move || {
            let scratch = EquilibriumCache::in_memory();
            let run = || scratch.solve_with_hint(game, TUPLE_LIMIT, support_hint);
            let (solved, deltas) = if inherit {
                obs::captured(run)
            } else {
                (run(), Vec::new())
            };
            let shared = Arc::new((solved, deltas, scratch));
            if handoff.send(Arc::clone(&shared)).is_ok() {
                let _ = released.recv(); // returns once `release` is dropped
            }
        };
        std::thread::scope(move |scope| {
            let worker = std::thread::Builder::new()
                .name("srv-solve".to_owned())
                .spawn_scoped(scope, solve)
                .ok()?;
            let copied = handed.recv().ok().map(|shared| {
                let (solved, deltas, scratch) = &*shared;
                obs::replay_counters(deltas);
                if solved.is_ok() {
                    self.cache.adopt(scratch);
                }
                solved.clone()
            });
            drop(release);
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
            copied
        })
        // No thread to be had: solve here rather than fail.
        .unwrap_or_else(|| self.cache.solve_with_hint(game, TUPLE_LIMIT, support_hint))
    }

    /// Records `key` as served and packages the answer.
    fn serve(&self, key: CacheKey, equilibrium: ExactEquilibrium, status: CacheStatus) -> Served {
        let canonical = key.0.clone();
        self.lock_served().insert(key);
        Served {
            equilibrium,
            canonical,
            status,
        }
    }

    fn lock_inflight(&self) -> MutexGuard<'_, BTreeMap<CacheKey, Arc<InFlight>>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_served(&self) -> MutexGuard<'_, BTreeSet<CacheKey>> {
        self.served.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Builds the game for a request graph: `422 BadGame` on shape errors
/// and unless `1 ≤ ν ≤` [`NU_LIMIT`].
pub fn request_game<'g>(graph: &'g Graph, k: usize, nu: usize) -> Result<TupleGame<'g>, HttpError> {
    let bad_game = |message: String| HttpError {
        status: 422,
        kind: "BadGame",
        message,
    };
    if !(1..=NU_LIMIT).contains(&nu) {
        return Err(bad_game(format!(
            "nu is {nu}; this server solves games with 1 <= nu <= {NU_LIMIT}"
        )));
    }
    TupleGame::new(graph, k, nu).map_err(|e| bad_game(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;
    use std::time::{Duration, Instant};

    fn key_of(graph: &Graph, k: usize) -> CacheKey {
        (canonical_form(graph).key(), k, 1)
    }

    /// Opens `graph`'s slot (k = 1) as if a request were leading its
    /// solve; the test decides when and how it settles.
    fn hold<'s>(solver: &'s Solver, graph: &Graph) -> Lead<'s> {
        match solver.enter(&key_of(graph, 1)) {
            Ok(Entry::Lead(lead)) => lead,
            Ok(Entry::Join(_)) => panic!("class already in flight"),
            Err(e) => panic!("could not open a slot: {e:?}"),
        }
    }

    /// Blocks until `joiners` requests besides the test wait on `key`'s
    /// slot (the table and the test hold one reference each).
    fn await_joiners(solver: &Solver, key: &CacheKey, joiners: usize) {
        let slot = Arc::clone(solver.lock_inflight().get(key).expect("slot held"));
        let deadline = Instant::now() + Duration::from_secs(60);
        while Arc::strong_count(&slot) < joiners + 2 {
            assert!(Instant::now() < deadline, "joiners never reached the slot");
            std::thread::yield_now();
        }
    }

    #[test]
    fn sheds_new_classes_at_the_watermark_while_serving_hits() {
        let cache = Arc::new(EquilibriumCache::in_memory());
        let warm = generators::cycle(5);
        let warm_game = TupleGame::new(&warm, 1, 1).unwrap();
        cache.solve(&warm_game, TUPLE_LIMIT).unwrap();
        // Watermark max(4 * 3 / 4, 1) = 3 classes solving at once.
        let solver = Solver::start(Arc::clone(&cache), SolverConfig { max_queue: 4 });
        let held: Vec<Lead<'_>> = [
            generators::path(6),
            generators::cycle(7),
            generators::star(5),
        ]
        .iter()
        .map(|graph| hold(&solver, graph))
        .collect();

        // A new class sheds with 429...
        let wheel = generators::wheel(6);
        let wheel_game = TupleGame::new(&wheel, 1, 1).unwrap();
        let err = solver.solve(&wheel_game).unwrap_err();
        assert_eq!((err.status, err.kind), (429, "Overloaded"));
        // ...while the warm class keeps serving from the cache.
        assert_eq!(solver.solve(&warm_game).unwrap().status, CacheStatus::Hit);

        // Once the held classes settle there is room again.
        drop(held);
        assert_eq!(solver.solve(&wheel_game).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn joiners_share_the_leaders_answer_or_its_typed_error() {
        const M: usize = 4;
        let cache = Arc::new(EquilibriumCache::in_memory());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        for fails in [false, true] {
            let graph = if fails {
                generators::cycle(7)
            } else {
                generators::petersen()
            };
            let game = TupleGame::new(&graph, 1, 1).unwrap();
            let lead = hold(&solver, &graph);
            let mut solved = None;
            let results: Vec<Result<Served, HttpError>> = std::thread::scope(|scope| {
                let joiners: Vec<_> = (0..M)
                    .map(|_| scope.spawn(|| solver.solve(&game)))
                    .collect();
                await_joiners(&solver, &key_of(&graph, 1), M);
                if fails {
                    lead.settle(Err(HttpError {
                        status: 422,
                        kind: "Unsolvable",
                        message: "stand-in failure".to_owned(),
                    }));
                } else {
                    solved = Some(cache.solve(&game, TUPLE_LIMIT).unwrap());
                    lead.settle(Ok(()));
                }
                joiners.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for result in results {
                if fails {
                    let err = result.unwrap_err();
                    assert_eq!((err.status, err.kind), (422, "Unsolvable"));
                } else {
                    let served = result.unwrap();
                    assert_eq!(served.status, CacheStatus::Coalesced);
                    let solved = solved.as_ref().unwrap();
                    assert_eq!(served.equilibrium.value, solved.value);
                }
            }
        }
    }

    #[test]
    fn a_panicking_leader_fails_its_joiners_and_frees_the_class() {
        let cache = Arc::new(EquilibriumCache::in_memory());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        let graph = generators::petersen();
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let lead = hold(&solver, &graph);
        std::thread::scope(|scope| {
            let joiner = scope.spawn(|| solver.solve(&game));
            await_joiners(&solver, &key_of(&graph, 1), 1);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _lead = lead;
                panic!("the solve blew up");
            }));
            assert!(unwound.is_err());
            let err = joiner.join().unwrap().unwrap_err();
            assert_eq!((err.status, err.kind), (500, "Internal"));
        });
        // The slot is gone, so the next request leads a fresh solve.
        assert_eq!(solver.solve(&game).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn a_solve_that_panics_on_its_thread_unwinds_the_request_that_led_it() {
        let cache = Arc::new(EquilibriumCache::in_memory());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        let graph = generators::cycle(5);
        // ν = 0 builds a game whose solve panics; `request_game` refuses
        // it, so only a direct caller reaches this path.
        let doomed = TupleGame::new(&graph, 1, 0).unwrap();
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.solve(&doomed)));
        assert!(unwound.is_err(), "the solve thread's panic was lost");
        assert!(solver.lock_inflight().is_empty(), "the class kept its slot");
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        assert_eq!(solver.solve(&game).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn a_slow_class_does_not_hold_up_another_miss() {
        let cache = Arc::new(EquilibriumCache::in_memory());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        // P30 at k = 2 solves several hundred times slower than C7 at
        // k = 1, in debug and release builds alike.
        let slow = generators::path(30);
        let slow_key = key_of(&slow, 2);
        let fast = generators::cycle(7);
        std::thread::scope(|scope| {
            let slow_solve = scope.spawn(|| {
                let game = TupleGame::new(&slow, 2, 1).unwrap();
                solver.solve(&game).map(|served| served.status)
            });
            let started = Instant::now();
            while !solver.lock_inflight().contains_key(&slow_key) {
                assert!(
                    started.elapsed() < Duration::from_secs(60),
                    "slow solve never started"
                );
                std::thread::yield_now();
            }
            let game = TupleGame::new(&fast, 1, 1).unwrap();
            assert_eq!(solver.solve(&game).unwrap().status, CacheStatus::Miss);
            assert!(
                solver.lock_inflight().contains_key(&slow_key),
                "the fast miss waited for the slow class to finish"
            );
            assert_eq!(slow_solve.join().unwrap(), Ok(CacheStatus::Miss));
        });
    }

    #[test]
    fn concurrent_racers_for_one_class_cost_one_solve() {
        const M: usize = 8;
        let cache = Arc::new(EquilibriumCache::in_memory());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        let graph = generators::petersen();
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        // Each racer counts on its own thread: a miss ticks on the
        // racer that leads it.
        let racers: Vec<(CacheStatus, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..M)
                .map(|_| {
                    scope.spawn(|| {
                        let (status, deltas) =
                            obs::captured(|| solver.solve(&game).unwrap().status);
                        let misses = deltas
                            .iter()
                            .find(|(name, _)| name == "cache.misses")
                            .map_or(0, |&(_, v)| v);
                        (status, misses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // One solve for all M racers; every other racer coalesced onto
        // it or, arriving after it settled, probed a hit.
        assert_eq!(racers.iter().map(|r| r.1).sum::<u64>(), 1, "{racers:?}");
        let leaders = racers.iter().filter(|r| r.0 == CacheStatus::Miss).count();
        assert_eq!(leaders, 1, "{racers:?}");
        assert_eq!(cache.len(), 1);
        assert_eq!(solver.served_classes(), 1);
    }

    #[test]
    fn shutdown_waits_for_solving_classes_and_refuses_new_ones() {
        let dir = std::env::temp_dir().join(format!("defender-serve-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(EquilibriumCache::open(&dir).unwrap());
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        let held = generators::petersen();
        let lead = hold(&solver, &held);
        std::thread::scope(|scope| {
            let stopping = scope.spawn(|| solver.shutdown());
            while !solver.stop.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let fresh = generators::cycle(7);
            let err = solver
                .solve(&TupleGame::new(&fresh, 1, 1).unwrap())
                .unwrap_err();
            assert_eq!((err.status, err.kind), (503, "Shutdown"));
            assert!(!stopping.is_finished(), "shutdown left a class solving");
            cache
                .solve(&TupleGame::new(&held, 1, 1).unwrap(), TUPLE_LIMIT)
                .unwrap();
            lead.settle(Ok(()));
            stopping.join().unwrap();
        });
        // What was solved before shutdown returned reaches the sidecar.
        cache.persist().unwrap();
        assert_eq!(EquilibriumCache::open(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn judged_counters_are_warmth_invariant_per_served_class_set() {
        let cache = Arc::new(EquilibriumCache::in_memory());
        let graphs = [generators::cycle(5), generators::petersen()];

        // Cold server: both classes solve.
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        for graph in &graphs {
            let game = TupleGame::new(graph, 1, 1).unwrap();
            assert_eq!(solver.solve(&game).unwrap().status, CacheStatus::Miss);
        }
        let cold = solver.judged_counters();

        // Warm server over the same cache: all hits, zero live lp work…
        let solver = Solver::start(Arc::clone(&cache), SolverConfig::default());
        let ((), deltas) = obs::captured(|| {
            for graph in &graphs {
                let game = TupleGame::new(graph, 1, 1).unwrap();
                assert_eq!(solver.solve(&game).unwrap().status, CacheStatus::Hit);
            }
        });
        let pivots = deltas
            .iter()
            .find(|(name, _)| name == "lp.simplex.pivots")
            .map_or(0, |&(_, v)| v);
        assert_eq!(pivots, 0, "warm serving must be solve-free");
        // …and byte-identical judged counters.
        assert_eq!(solver.judged_counters(), cold);
        assert!(!cold.is_empty());
    }
}
