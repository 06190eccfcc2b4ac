//! Equilibrium memoization keyed by canonical graph form.
//!
//! Sweeps over generated corpora solve the *same* game over and over:
//! relabeled copies of one graph are distinct instances to the runner but
//! identical games mathematically. This crate makes that repeat work
//! free. Each instance is reduced to its canonical form
//! ([`defender_graph::canonical`]); the exact equilibrium of the
//! canonical representative is solved once and memoized under the key
//! `(canonical graph6, k, ν)`; every later isomorphic instance gets the
//! memoized answer relabeled back through the inverse of its canonical
//! permutation.
//!
//! # Telemetry contract
//!
//! Counter determinism is the workspace's load-bearing invariant: sidecar
//! counters must be byte-identical across `--jobs` widths and across
//! repeated runs. A naive cache breaks this — run 1 pays the
//! solve ticks on misses, run 2 pays none. The fix is **delta replay**
//! through one primitive, the counting scope [`defender_obs::captured`]:
//!
//! - on a miss the canonical solve runs inside a scope, so its counter
//!   ticks — its pool workers' included — are collected into a per-class
//!   delta vector and stored with the entry. A scope counts whether or
//!   not instrumentation is on, so a memo filled by an uninstrumented run
//!   stores the same deltas as an instrumented one;
//! - *every* lookup — hit or miss — replays the class deltas exactly once
//!   via [`defender_obs::replay_counters`].
//!
//! Cache *bookkeeping* — computing the canonical key, materializing the
//! canonical graph on a miss, re-verifying a disk entry — runs on
//! counter-free paths or inside a scope whose deltas are thrown away:
//! the caller already built and counted its own graph and game, so the
//! bookkeeping copies must tick nothing. A `--cache` run's judged
//! counters therefore match an uncached run's, not just other cached
//! runs.
//!
//! Main-section counters are therefore `Σ over instances of
//! class-deltas` regardless of cache state or jobs width.
//! The cache's own `cache.hits` / `cache.misses` / `cache.canon_ns`
//! counters *do* vary between runs by design and are segregated into the
//! sidecar's run-variant section alongside `par.*`.
//!
//! # Trust model
//!
//! The persisted sidecar is plain JSON a human can edit. Entries loaded
//! from disk are untrusted: the first time one is used, its claimed
//! equilibrium is re-verified through the exact Nash verifier
//! ([`defender_core::exhaustive::GameAdapter::verify`]) on the canonical
//! game (in a discarded counting scope, so verification never perturbs
//! counters). A stale or hand-edited entry that fails verification is
//! recomputed and overwritten — the cache can serve a wrong answer to no
//! one. An entry whose shape does not fit the format — a missing field,
//! an edge that is not a pair, a tuple whose edge count is not `k` —
//! fails [`EquilibriumCache::open`] instead.
//!
//! # Examples
//!
//! ```
//! use defender_cache::EquilibriumCache;
//! use defender_core::model::TupleGame;
//! use defender_graph::generators;
//!
//! let cache = EquilibriumCache::in_memory();
//! let c5 = generators::cycle(5);
//! let game = TupleGame::new(&c5, 1, 1).unwrap();
//! let first = cache.solve(&game, 10_000).unwrap();
//! let again = cache.solve(&game, 10_000).unwrap(); // memo hit
//! assert_eq!(first.value, again.value);
//! assert_eq!(cache.len(), 1);
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// Workspace invariants (DESIGN.md §12): exactness, panic, panic2, cast.
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::integer_division_remainder_used,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use defender_core::exhaustive::GameAdapter;
use defender_core::model::{MixedConfig, TupleGame};
use defender_core::payoff;
use defender_core::solve::{solve_exact_hinted, ExactEquilibrium};
use defender_core::tuple::Tuple;
use defender_core::CoreError;
use defender_game::MixedStrategy;
use defender_graph::canonical::{canonical_form, CanonicalForm};
use defender_graph::graph6::from_graph6;
use defender_graph::{Graph, VertexId};
use defender_num::Ratio;
use defender_obs as obs;
use defender_obs::json::{self, Escaped, JsonValue};

/// Name of the sidecar file inside a `--cache <DIR>` directory.
pub const SIDECAR_FILE: &str = "equilibria.json";

/// Format tag written into (and required from) the sidecar.
pub const SIDECAR_FORMAT: &str = "defender-cache/v1";

/// Memo key: `(canonical graph6, k, ν)`.
pub type CacheKey = (String, usize, usize);

/// One memoized equilibrium, in canonical vertex labels. Every list is a
/// boxed slice, so an entry costs four heap blocks however large its
/// support.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Single-attacker game value (iso-invariant).
    value: Ratio,
    /// Attacker support as `(canonical vertex, probability)`.
    attacker: Box<[(usize, Ratio)]>,
    /// Defender support probabilities, one per tuple.
    tuple_p: Box<[Ratio]>,
    /// The support's tuples flattened: `k` canonical edge endpoint pairs
    /// per tuple, in `tuple_p` order (`k ≥ 1` comes from the key). A key
    /// is graph6, which stops at 258,047 vertices, so indices fit `u32`.
    tuple_edges: Box<[(u32, u32)]>,
    /// Counter deltas of the canonical solve, replayed on every lookup,
    /// as handles resolved once through [`obs::counter_by_name`].
    counters: Box<[(&'static obs::Metric, u64)]>,
    /// Whether this entry has passed exact NE verification in-process.
    /// Entries born from a solve are trusted; entries loaded from disk
    /// start `false` and are verified lazily on first use.
    verified: bool,
}

impl CacheEntry {
    /// The defender support as `(k canonical edge pairs, probability)`.
    fn tuples(&self, k: usize) -> impl Iterator<Item = (&[(u32, u32)], &Ratio)> {
        self.tuple_edges.chunks_exact(k).zip(self.tuple_p.iter())
    }
}

/// Counter handles compare by identity: one name resolves to one cell.
impl PartialEq for CacheEntry {
    fn eq(&self, other: &CacheEntry) -> bool {
        self.value == other.value
            && self.attacker == other.attacker
            && self.tuple_p == other.tuple_p
            && self.tuple_edges == other.tuple_edges
            && self.counters.len() == other.counters.len()
            && self
                .counters
                .iter()
                .zip(other.counters.iter())
                .all(|(a, b)| std::ptr::eq(a.0, b.0) && a.1 == b.1)
            && self.verified == other.verified
    }
}

/// Resolves a counting scope's `(name, delta)` pairs to counter handles.
fn resolve(deltas: &[(String, u64)]) -> Box<[(&'static obs::Metric, u64)]> {
    deltas
        .iter()
        .map(|(name, delta)| (obs::counter_by_name(name), *delta))
        .collect()
}

/// Adds stored deltas to their counters: the replay half of a scope.
fn replay(counters: &[(&'static obs::Metric, u64)]) {
    for &(metric, delta) in counters {
        metric.add(delta);
    }
}

/// Equilibrium memo store with optional JSON-sidecar persistence.
pub struct EquilibriumCache {
    dir: Option<PathBuf>,
    store: Mutex<BTreeMap<CacheKey, CacheEntry>>,
    /// Whether the store has changed since the sidecar was last written.
    /// Set on every insert, cleared by a successful [`persist`](Self::persist);
    /// lets a high-QPS server flush on an interval instead of rewriting
    /// the whole sidecar once per miss ([`flush_if_dirty`](Self::flush_if_dirty)).
    dirty: AtomicBool,
}

impl fmt::Debug for EquilibriumCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EquilibriumCache")
            .field("dir", &self.dir)
            .field("entries", &self.len())
            .finish()
    }
}

impl EquilibriumCache {
    /// A purely in-process cache; [`persist`](Self::persist) is a no-op.
    #[must_use]
    pub fn in_memory() -> EquilibriumCache {
        EquilibriumCache {
            dir: None,
            store: Mutex::new(BTreeMap::new()),
            dirty: AtomicBool::new(false),
        }
    }

    /// Opens (or initializes) a persistent cache rooted at `dir`.
    ///
    /// Creates the directory if needed and loads the sidecar when one is
    /// present. Loaded entries are untrusted until first use (see the
    /// crate docs for the trust model).
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory or reading the sidecar, and a
    /// malformed sidecar (reported as [`io::ErrorKind::InvalidData`]).
    pub fn open(dir: &Path) -> io::Result<EquilibriumCache> {
        fs::create_dir_all(dir)?;
        let sidecar = dir.join(SIDECAR_FILE);
        let store = if sidecar.exists() {
            parse_sidecar(&fs::read_to_string(&sidecar)?).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", sidecar.display()),
                )
            })?
        } else {
            BTreeMap::new()
        };
        Ok(EquilibriumCache {
            dir: Some(dir.to_path_buf()),
            store: Mutex::new(store),
            dirty: AtomicBool::new(false),
        })
    }

    /// Number of memoized equivalence classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the sidecar (no-op for [`in_memory`](Self::in_memory)
    /// caches).
    ///
    /// The write is deterministic: entries are emitted in key order, so
    /// persisting the same logical state twice yields byte-identical
    /// files. The JSON is streamed field by field through a buffered
    /// file, so a flush costs one small buffer rather than a copy of the
    /// document, and the store stays locked until the file has replaced
    /// the old sidecar: concurrent flushes and stores never interleave
    /// with a write.
    ///
    /// # Errors
    ///
    /// I/O failures writing the sidecar.
    pub fn persist(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let store = self.guard();
        let tmp = dir.join(format!("{SIDECAR_FILE}.tmp"));
        let mut out = BufWriter::new(fs::File::create(&tmp)?);
        write_sidecar(&mut out, &store)?;
        out.flush()?;
        drop(out);
        fs::rename(&tmp, dir.join(SIDECAR_FILE))?;
        // Cleared only after the rename lands: a failed write leaves the
        // store dirty, so the next flush retries rather than losing data.
        self.dirty.store(false, Ordering::Release);
        Ok(())
    }

    /// Writes the sidecar only when the store changed since the last
    /// write. Returns whether a write happened.
    ///
    /// This is the batched-flush half of the persistence contract: a
    /// server storing misses at high QPS marks the store dirty per insert
    /// and calls this on an interval (and at shutdown), so the sidecar is
    /// rewritten once per flush window instead of once per store. The
    /// bytes written are identical to calling [`persist`](Self::persist)
    /// after every store — the sidecar is a pure function of the store
    /// contents (entries render in key order).
    ///
    /// # Errors
    ///
    /// I/O failures writing the sidecar (the store stays dirty, so a
    /// later flush retries).
    pub fn flush_if_dirty(&self) -> io::Result<bool> {
        if !self.dirty.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.persist()?;
        Ok(true)
    }

    /// Whether the store changed since the sidecar was last written.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Solves `Π_k(G)` through the memo (no warm-start hint).
    ///
    /// # Errors
    ///
    /// Same as [`defender_core::solve::solve_exact`].
    pub fn solve(
        &self,
        game: &TupleGame<'_>,
        tuple_limit: usize,
    ) -> Result<ExactEquilibrium, CoreError> {
        self.solve_with_hint(game, tuple_limit, |_| None)
    }

    /// Solves `Π_k(G)` through the memo, offering `hint` a chance to
    /// warm-start the LP on a miss.
    ///
    /// `hint` receives the **canonical** game (the one actually solved)
    /// and may return `(tuple_support, vertex_support)` index sets — the
    /// contract of [`solve_exact_hinted`]. It runs inside the solve's
    /// counting scope, so any counters it ticks become part of the
    /// class's replayed deltas.
    ///
    /// # Errors
    ///
    /// Same as [`defender_core::solve::solve_exact`].
    pub fn solve_with_hint<F>(
        &self,
        game: &TupleGame<'_>,
        tuple_limit: usize,
        hint: F,
    ) -> Result<ExactEquilibrium, CoreError>
    where
        F: Fn(&TupleGame<'_>) -> Option<(Vec<usize>, Vec<usize>)>,
    {
        let graph = game.graph();
        let k = game.k();
        let nu = game.attacker_count();

        let t0 = obs::trace::elapsed_ns();
        let form = canonical_form(graph);
        let key: CacheKey = (form.key(), k, nu);
        obs::counter!("cache.canon_ns").add(obs::trace::elapsed_ns().saturating_sub(t0));

        // Fast path: an entry we can trust (or prove trustworthy).
        if let Some(entry) = self.usable_entry(&key, tuple_limit) {
            if let Some(eq) = materialize(&entry, game, &form.inverse()) {
                obs::counter!("cache.hits").incr();
                replay(&entry.counters);
                return Ok(eq);
            }
            // Fall through: stale, hand-edited, or otherwise corrupt —
            // recompute and overwrite below.
        }

        obs::counter!("cache.misses").incr();
        // Materializing the canonical graph is cache bookkeeping, not
        // solve work: the caller already built (and counted) its own
        // graph for this instance. Its ticks go to a discarded scope so a
        // `--cache` run's `graph.build.*` totals match an uncached run
        // instead of double-counting one build per class replay.
        let (canonical_graph, _) = obs::captured(|| form.to_graph());
        let canonical_game = TupleGame::new(&canonical_graph, k, nu)?;
        let (solved, deltas) = obs::captured(|| {
            let supports = hint(&canonical_game);
            let hint_refs = supports
                .as_ref()
                .map(|(rows, cols)| (rows.as_slice(), cols.as_slice()));
            let eq = solve_exact_hinted(&canonical_game, tuple_limit, hint_refs)?;
            entry_of(&eq, &canonical_graph)
        });
        // Replay even when the solve errored, so partial work is
        // accounted identically on every run.
        let counters = resolve(&deltas);
        replay(&counters);
        let mut entry = solved?;
        entry.counters = counters;
        self.guard().insert(key, entry.clone());
        self.dirty.store(true, Ordering::Release);
        materialize(&entry, game, &form.inverse()).ok_or_else(|| CoreError::TooLarge {
            what: "cache entry failed to relabel onto its own graph".to_owned(),
            limit: tuple_limit,
        })
    }

    /// Hit-only lookup for the serving hot path: returns the memoized
    /// equilibrium relabeled onto `game`'s graph when the class is
    /// cached, `None` otherwise. Never solves, never ticks
    /// `cache.misses`, and — unlike [`solve`](Self::solve) — **does not
    /// replay** the class's stored counter deltas into the live judged
    /// counters.
    ///
    /// Replay exists so a batch run's judged counters are invariant to
    /// cache warmth; a server's live counters instead stay warm-variant
    /// by design (a warm instance must show zero `lp.*` activity), and
    /// jobs/warmth-invariant judged counters are reconstructed offline
    /// from the served class set via [`replay_sums`](Self::replay_sums).
    ///
    /// `form` must be the canonical form of `game.graph()` — the caller
    /// computes it once and reuses it for the miss path.
    pub fn probe(
        &self,
        game: &TupleGame<'_>,
        form: &CanonicalForm,
        tuple_limit: usize,
    ) -> Option<ExactEquilibrium> {
        let key: CacheKey = (form.key(), game.k(), game.attacker_count());
        let entry = self.usable_entry(&key, tuple_limit)?;
        let eq = materialize(&entry, game, &form.inverse())?;
        obs::counter!("cache.hits").incr();
        Some(eq)
    }

    /// Copies every entry of `other` into this memo, replacing any under
    /// the same key, and marks the store dirty if anything was copied.
    /// The copies are allocated on the calling thread, so `other` may be
    /// a scratch memo that another thread solved into and still owns.
    pub fn adopt(&self, other: &EquilibriumCache) {
        let entries: Vec<(CacheKey, CacheEntry)> = other
            .guard()
            .iter()
            .map(|(key, entry)| (key.clone(), entry.clone()))
            .collect();
        if entries.is_empty() {
            return;
        }
        self.guard().extend(entries);
        self.dirty.store(true, Ordering::Release);
    }

    /// Sums the stored per-class counter deltas over `keys`, name-sorted.
    ///
    /// This is the offline half of the [`probe`](Self::probe) contract:
    /// given the set of classes a run *served* (each key counted once,
    /// however many times or from whichever cache state it was served),
    /// the result equals the judged counters of a cold batch run over
    /// one representative per class — invariant to warmth, jobs, and
    /// request ordering. Unknown keys contribute nothing.
    pub fn replay_sums<'a, I>(&self, keys: I) -> Vec<(String, u64)>
    where
        I: IntoIterator<Item = &'a CacheKey>,
    {
        let store = self.guard();
        let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
        for key in keys {
            if let Some(entry) = store.get(key) {
                for (metric, delta) in &entry.counters {
                    *sums.entry(metric.name()).or_insert(0) += delta;
                }
            }
        }
        sums.into_iter()
            .map(|(name, sum)| (name.to_owned(), sum))
            .collect()
    }

    /// Looks up `key` and returns a clone of its entry if it is trusted
    /// or passes first-use verification (marking the stored entry
    /// verified so the proof runs once). The clone is taken with the
    /// store guard dropped before verification re-locks.
    fn usable_entry(&self, key: &CacheKey, tuple_limit: usize) -> Option<CacheEntry> {
        let mut entry = self.guard().get(key).cloned()?;
        if !entry.verified {
            let (verified, _) = obs::captured(|| verify_entry(&entry, key, tuple_limit));
            if !verified {
                return None;
            }
            entry.verified = true;
            if let Some(stored) = self.guard().get_mut(key) {
                stored.verified = true;
            }
        }
        Some(entry)
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, BTreeMap<CacheKey, CacheEntry>> {
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Extracts a canonical-label entry from a freshly solved equilibrium.
fn entry_of(eq: &ExactEquilibrium, canonical_graph: &Graph) -> Result<CacheEntry, CoreError> {
    let attacker = eq
        .config
        .attacker(0)
        .iter()
        .map(|(v, p)| (v.index(), p))
        .collect();
    let defender = eq.config.defender();
    let tuple_p = defender.iter().map(|(_, p)| p).collect();
    let narrow = |v: VertexId| {
        u32::try_from(v.index()).map_err(|_| CoreError::TooLarge {
            what: "canonical vertex indices".to_owned(),
            limit: usize::try_from(u32::MAX).unwrap_or(usize::MAX),
        })
    };
    let tuple_edges = defender
        .iter()
        .flat_map(|(t, _)| t.edges().iter())
        .map(|&e| {
            let ends = canonical_graph.endpoints(e);
            Ok((narrow(ends.u())?, narrow(ends.v())?))
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CacheEntry {
        value: eq.value,
        attacker,
        tuple_p,
        tuple_edges,
        counters: Box::default(),
        verified: true,
    })
}

/// Relabels a canonical entry onto `game`'s graph through `inverse`
/// (canonical index → original index). `None` means the entry does not
/// fit the graph — corrupt or mismatched — and must be recomputed.
fn materialize(
    entry: &CacheEntry,
    game: &TupleGame<'_>,
    inverse: &[usize],
) -> Option<ExactEquilibrium> {
    let graph = game.graph();
    let original_vertex =
        |canon: usize| -> Option<VertexId> { inverse.get(canon).copied().map(VertexId::new) };
    let original_end = |canon: u32| original_vertex(usize::try_from(canon).ok()?);

    let attacker_entries: Vec<(VertexId, Ratio)> = entry
        .attacker
        .iter()
        .map(|&(cv, p)| Some((original_vertex(cv)?, p)))
        .collect::<Option<_>>()?;
    let defender_entries: Vec<(Tuple, Ratio)> = entry
        .tuples(game.k())
        .map(|(canon_edges, p)| {
            let ids = canon_edges
                .iter()
                .map(|&(cu, cv)| graph.find_edge(original_end(cu)?, original_end(cv)?))
                .collect::<Option<Vec<_>>>()?;
            Some((Tuple::new(ids).ok()?, *p))
        })
        .collect::<Option<_>>()?;

    let attacker = MixedStrategy::from_entries(attacker_entries).ok()?;
    let defender = MixedStrategy::from_entries(defender_entries).ok()?;
    let config = MixedConfig::symmetric(game, attacker, defender).ok()?;
    let defender_gain = entry.value * Ratio::from(game.attacker_count());
    Some(ExactEquilibrium {
        value: entry.value,
        config,
        defender_gain,
    })
}

/// Re-proves a (disk-loaded, untrusted) entry on its canonical game:
/// the claimed configuration must be an exact Nash equilibrium and its
/// tuple-player payoff must match the claimed value. Runs in a discarded
/// counting scope so it cannot perturb counters.
fn verify_entry(entry: &CacheEntry, key: &CacheKey, tuple_limit: usize) -> bool {
    let (graph6, k, nu) = key;
    let Ok(canonical_graph) = from_graph6(graph6) else {
        return false;
    };
    let Ok(canonical_game) = TupleGame::new(&canonical_graph, *k, *nu) else {
        return false;
    };
    let identity: Vec<usize> = (0..canonical_graph.vertex_count()).collect();
    let Some(eq) = materialize(entry, &canonical_game, &identity) else {
        return false;
    };
    let Ok(adapter) = GameAdapter::new(&canonical_game, tuple_limit) else {
        return false;
    };
    adapter.verify(&eq.config).is_equilibrium()
        && payoff::expected_ip_tuple_player(&canonical_game, &eq.config)
            == entry.value * Ratio::from(*nu)
}

// ---------------------------------------------------------------------------
// Sidecar format
// ---------------------------------------------------------------------------

/// Streams the sidecar document for `store` into `out`. Ratios print as
/// `-?digits(/digits)?`, so they are written as JSON strings unescaped.
fn write_sidecar(out: &mut impl Write, store: &BTreeMap<CacheKey, CacheEntry>) -> io::Result<()> {
    let sep = |i: usize| if i == 0 { "" } else { ", " };
    write!(
        out,
        "{{\"format\": \"{}\", \"entries\": [",
        Escaped(SIDECAR_FORMAT)
    )?;
    for (i, ((graph6, k, nu), entry)) in store.iter().enumerate() {
        write!(
            out,
            "{}{{\"graph6\": \"{}\", \"k\": {k}, \"nu\": {nu}, \"value\": \"{}\", \"attacker\": [",
            sep(i),
            Escaped(graph6),
            entry.value
        )?;
        for (j, (v, p)) in entry.attacker.iter().enumerate() {
            write!(out, "{}{{\"vertex\": {v}, \"p\": \"{p}\"}}", sep(j))?;
        }
        out.write_all(b"], \"defender\": [")?;
        for (j, (edges, p)) in entry.tuples(*k).enumerate() {
            write!(out, "{}{{\"edges\": [", sep(j))?;
            for (e, (u, v)) in edges.iter().enumerate() {
                write!(out, "{}[{u}, {v}]", sep(e))?;
            }
            write!(out, "], \"p\": \"{p}\"}}")?;
        }
        out.write_all(b"], \"counters\": [")?;
        for (j, (metric, delta)) in entry.counters.iter().enumerate() {
            write!(
                out,
                "{}{{\"name\": \"{}\", \"delta\": {delta}}}",
                sep(j),
                Escaped(metric.name())
            )?;
        }
        out.write_all(b"]}")?;
    }
    out.write_all(b"]}\n")
}

fn parse_sidecar(text: &str) -> Result<BTreeMap<CacheKey, CacheEntry>, String> {
    let doc = json::parse(text)?;
    let format = doc
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or("missing format tag")?;
    if format != SIDECAR_FORMAT {
        return Err(format!(
            "unsupported cache format {format:?} (expected {SIDECAR_FORMAT:?})"
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("missing entries array")?;
    let mut store = BTreeMap::new();
    for (i, item) in entries.iter().enumerate() {
        let (key, entry) = parse_entry(item).map_err(|e| format!("entry {i}: {e}"))?;
        store.insert(key, entry);
    }
    Ok(store)
}

/// Converts a sidecar integer to an index, refusing one that does not fit.
fn to_index<T: TryFrom<u64>>(v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("integer {v} does not fit an index"))
}

fn parse_entry(item: &JsonValue) -> Result<(CacheKey, CacheEntry), String> {
    let str_field = |name: &str| {
        item.get(name)
            .and_then(JsonValue::as_str)
            .ok_or(format!("missing string field {name:?}"))
    };
    let usize_field = |name: &str| {
        item.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("missing integer field {name:?}"))
            .and_then(to_index)
    };
    let ratio =
        |s: &str| -> Result<Ratio, String> { s.parse::<Ratio>().map_err(|e| e.to_string()) };

    let graph6 = str_field("graph6")?.to_owned();
    let k = usize_field("k")?;
    let nu = usize_field("nu")?;
    let value = ratio(str_field("value")?)?;

    let mut attacker = Vec::new();
    for a in item
        .get("attacker")
        .and_then(JsonValue::as_array)
        .ok_or("missing attacker array")?
    {
        let v = to_index(
            a.get("vertex")
                .and_then(JsonValue::as_u64)
                .ok_or("attacker item missing vertex")?,
        )?;
        let p = ratio(
            a.get("p")
                .and_then(JsonValue::as_str)
                .ok_or("attacker item missing p")?,
        )?;
        attacker.push((v, p));
    }

    // The flattened layout reads a tuple as the next k edges (and needs
    // k ≥ 1 to do so), so a tuple of any other width cannot be stored: it
    // is malformed, like an edge that is not a pair, and fails the open.
    if k == 0 {
        return Err("k must be at least 1".to_owned());
    }
    let mut tuple_p = Vec::new();
    let mut tuple_edges = Vec::new();
    for d in item
        .get("defender")
        .and_then(JsonValue::as_array)
        .ok_or("missing defender array")?
    {
        let edges = d
            .get("edges")
            .and_then(JsonValue::as_array)
            .ok_or("defender item missing edges")?;
        if edges.len() != k {
            return Err(format!(
                "a defender tuple has {} edges, not k = {k}",
                edges.len()
            ));
        }
        for pair in edges {
            let ends = pair.as_array().ok_or("edge is not a pair")?;
            let [u, v] = ends else {
                return Err("edge is not a pair".to_owned());
            };
            tuple_edges.push((
                to_index(u.as_u64().ok_or("edge endpoint is not an integer")?)?,
                to_index(v.as_u64().ok_or("edge endpoint is not an integer")?)?,
            ));
        }
        tuple_p.push(ratio(
            d.get("p")
                .and_then(JsonValue::as_str)
                .ok_or("defender item missing p")?,
        )?);
    }

    let mut counters = Vec::new();
    for c in item
        .get("counters")
        .and_then(JsonValue::as_array)
        .ok_or("missing counters array")?
    {
        counters.push((
            obs::counter_by_name(
                c.get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("counter item missing name")?,
            ),
            c.get("delta")
                .and_then(JsonValue::as_u64)
                .ok_or("counter item missing delta")?,
        ));
    }

    Ok((
        (graph6, k, nu),
        CacheEntry {
            value,
            attacker: attacker.into(),
            tuple_p: tuple_p.into(),
            tuple_edges: tuple_edges.into(),
            counters: counters.into(),
            // Disk contents are untrusted until re-proved in-process.
            verified: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_core::solve::solve_exact;
    use defender_graph::generators;
    use defender_num::rng::{Rng, StdRng};

    const LIMIT: usize = 100_000;

    fn shuffled(graph: &Graph, rng: &mut StdRng) -> Graph {
        let n = graph.vertex_count();
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let mut edges: Vec<(usize, usize)> = graph
            .edges()
            .map(|e| {
                let ends = graph.endpoints(e);
                (perm[ends.u().index()], perm[ends.v().index()])
            })
            .collect();
        rng.shuffle(&mut edges);
        let mut b = defender_graph::GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn hit_reproduces_the_cold_answer_on_the_same_graph() {
        let cache = EquilibriumCache::in_memory();
        for (graph, k, nu) in [
            (generators::cycle(5), 1usize, 1usize),
            (generators::petersen(), 1, 2),
            (generators::complete(4), 2, 1),
        ] {
            let game = TupleGame::new(&graph, k, nu).unwrap();
            let cold = solve_exact(&game, LIMIT).unwrap();
            let miss = cache.solve(&game, LIMIT).unwrap();
            let hit = cache.solve(&game, LIMIT).unwrap();
            for eq in [&miss, &hit] {
                assert_eq!(eq.value, cold.value, "{graph:?} k={k} nu={nu}");
                assert_eq!(eq.defender_gain, cold.defender_gain);
                // The exact verifier certifies the cached equilibrium.
                let adapter = GameAdapter::new(&game, LIMIT).unwrap();
                assert!(adapter.verify(&eq.config).is_equilibrium());
            }
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn isomorphic_instances_share_one_entry_and_stay_correct() {
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        let cache = EquilibriumCache::in_memory();
        let base = generators::wheel(5);
        let mut values = Vec::new();
        for _ in 0..6 {
            let copy = shuffled(&base, &mut rng);
            let game = TupleGame::new(&copy, 1, 1).unwrap();
            let eq = cache.solve(&game, LIMIT).unwrap();
            let adapter = GameAdapter::new(&game, LIMIT).unwrap();
            assert!(
                adapter.verify(&eq.config).is_equilibrium(),
                "relabeled equilibrium must verify on the relabeled graph"
            );
            values.push(eq.value);
        }
        assert_eq!(cache.len(), 1, "all copies collapse to one class");
        assert!(values.windows(2).all(|w| w[0] == w[1]));
    }

    /// The deltas `f` ticks, measured in a counting scope, minus the
    /// run-variant `cache.*` bookkeeping and zero ticks.
    fn judged(f: &dyn Fn()) -> Vec<(String, u64)> {
        let ((), deltas) = obs::captured(f);
        deltas
            .into_iter()
            .filter(|(name, v)| !name.starts_with("cache.") && *v > 0)
            .collect()
    }

    /// One counter of a scope's deltas (0 when it never ticked).
    fn delta(deltas: &[(String, u64)], name: &str) -> u64 {
        deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn replayed_counters_make_hits_and_misses_indistinguishable() {
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();

        let solve_once = || {
            let cache = EquilibriumCache::in_memory();
            cache.solve(&game, LIMIT).unwrap();
        };
        let solve_twice = || {
            let cache = EquilibriumCache::in_memory();
            cache.solve(&game, LIMIT).unwrap();
            cache.solve(&game, LIMIT).unwrap();
        };

        let one = judged(&solve_once);
        let two = judged(&solve_twice);
        let doubled: Vec<(String, u64)> = one.iter().map(|(n, v)| (n.clone(), v * 2)).collect();
        assert_eq!(
            two, doubled,
            "a hit must replay exactly the class deltas of a miss"
        );
        assert!(!one.is_empty(), "the solve must tick something to replay");
    }

    #[test]
    fn cached_runs_tick_the_same_judged_counters_as_uncached_runs() {
        // Built from its own canonical form so both paths solve the
        // identical labeling; each closure builds its own game the way
        // an experiment instance loop does, so the judged window covers
        // construction + solve. Cache bookkeeping (key computation, the
        // canonical graph/game copies) must tick nothing on top —
        // `--cache` must not perturb a run's judged counters.
        let base = canonical_form(&generators::wheel(5)).to_graph();
        let uncached = || {
            let game = TupleGame::new(&base, 1, 1).unwrap();
            solve_exact(&game, LIMIT).unwrap();
        };
        let cached = || {
            let cache = EquilibriumCache::in_memory();
            let game = TupleGame::new(&base, 1, 1).unwrap();
            cache.solve(&game, LIMIT).unwrap();
        };
        assert_eq!(
            judged(&uncached),
            judged(&cached),
            "cache bookkeeping must not tick judged counters"
        );
    }

    #[test]
    fn sidecar_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("defender-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let cache = EquilibriumCache::open(&dir).unwrap();
        for (graph, k) in [
            (generators::cycle(5), 1usize),
            (generators::petersen(), 1),
            (generators::complete_bipartite(2, 3), 2),
        ] {
            let game = TupleGame::new(&graph, k, 1).unwrap();
            cache.solve(&game, LIMIT).unwrap();
        }
        cache.persist().unwrap();
        let first = fs::read_to_string(dir.join(SIDECAR_FILE)).unwrap();

        // Reload: every Ratio, label, and counter delta must survive the
        // text round trip unchanged, so re-persisting is byte-identical.
        let reloaded = EquilibriumCache::open(&dir).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert_eq!(
            *cache.guard(),
            reloaded
                .guard()
                .iter()
                .map(|(key, entry)| {
                    let mut trusted = entry.clone();
                    trusted.verified = true;
                    (key.clone(), trusted)
                })
                .collect::<BTreeMap<_, _>>(),
            "loaded entries differ only in the verified flag"
        );
        reloaded.persist().unwrap();
        let second = fs::read_to_string(dir.join(SIDECAR_FILE)).unwrap();
        assert_eq!(first, second);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entries_verify_once_then_serve_hits() {
        // Regression: the verify-on-first-use path re-locks the store; a
        // guard held across the `if let` body deadlocked here once.
        let dir =
            std::env::temp_dir().join(format!("defender-cache-verify-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        {
            let cache = EquilibriumCache::open(&dir).unwrap();
            cache.solve(&game, LIMIT).unwrap();
            cache.persist().unwrap();
        }
        let reloaded = EquilibriumCache::open(&dir).unwrap();
        let eq = reloaded.solve(&game, LIMIT).unwrap();
        assert_eq!(eq.value, Ratio::new(2, 5));
        assert!(
            reloaded.guard().values().all(|e| e.verified),
            "first use marks the loaded entry verified"
        );
        let again = reloaded.solve(&game, LIMIT).unwrap();
        assert_eq!(again.value, eq.value);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_recomputed_not_served() {
        let dir =
            std::env::temp_dir().join(format!("defender-cache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let truth = {
            let cache = EquilibriumCache::open(&dir).unwrap();
            let eq = cache.solve(&game, LIMIT).unwrap();
            cache.persist().unwrap();
            eq
        };

        // Hand-edit the sidecar: claim a wrong value. C5's value is 2/5;
        // a tampered 1/2 must fail payoff re-verification.
        let text = fs::read_to_string(dir.join(SIDECAR_FILE)).unwrap();
        assert!(text.contains("\"value\": \"2/5\""));
        fs::write(
            dir.join(SIDECAR_FILE),
            text.replace("\"value\": \"2/5\"", "\"value\": \"1/2\""),
        )
        .unwrap();

        let tampered = EquilibriumCache::open(&dir).unwrap();
        let eq = tampered.solve(&game, LIMIT).unwrap();
        assert_eq!(eq.value, truth.value, "tampered entry must be recomputed");
        assert_eq!(eq.value, Ratio::new(2, 5));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_sidecars_are_rejected_at_open() {
        let dir =
            std::env::temp_dir().join(format!("defender-cache-malformed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for text in [
            "{\"format\": \"bogus/v9\", \"entries\": []}",
            // k = 0 admits only empty tuples, which no game has.
            "{\"format\": \"defender-cache/v1\", \"entries\": [{\"graph6\": \"Dbg\", \
             \"k\": 0, \"nu\": 1, \"value\": \"0\", \"attacker\": [], \
             \"defender\": [{\"edges\": [], \"p\": \"1\"}], \"counters\": []}]}",
        ] {
            fs::write(dir.join(SIDECAR_FILE), text).unwrap();
            let err = EquilibriumCache::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_flush_writes_the_same_bytes_as_per_store_persist() {
        let base =
            std::env::temp_dir().join(format!("defender-cache-flush-{}", std::process::id()));
        let eager_dir = base.join("eager");
        let batched_dir = base.join("batched");
        let _ = fs::remove_dir_all(&base);

        let instances = [
            (generators::cycle(5), 1usize),
            (generators::petersen(), 1),
            (generators::complete_bipartite(2, 3), 2),
        ];

        // Eager discipline: rewrite the sidecar after every store.
        let eager = EquilibriumCache::open(&eager_dir).unwrap();
        for (graph, k) in &instances {
            let game = TupleGame::new(graph, *k, 1).unwrap();
            eager.solve(&game, LIMIT).unwrap();
            eager.persist().unwrap();
        }

        // Batched discipline: flush once at "shutdown".
        let batched = EquilibriumCache::open(&batched_dir).unwrap();
        assert!(!batched.is_dirty());
        assert!(!batched.flush_if_dirty().unwrap(), "clean store: no write");
        for (graph, k) in &instances {
            let game = TupleGame::new(graph, *k, 1).unwrap();
            batched.solve(&game, LIMIT).unwrap();
        }
        assert!(batched.is_dirty());
        assert!(batched.flush_if_dirty().unwrap());
        assert!(!batched.is_dirty(), "flush clears the dirty flag");
        assert!(
            !batched.flush_if_dirty().unwrap(),
            "second flush with no new stores is a no-op"
        );

        assert_eq!(
            fs::read_to_string(eager_dir.join(SIDECAR_FILE)).unwrap(),
            fs::read_to_string(batched_dir.join(SIDECAR_FILE)).unwrap(),
            "batched flush must be byte-identical to per-store persistence"
        );

        // Hits never dirty the store.
        let game = TupleGame::new(&instances[0].0, 1, 1).unwrap();
        batched.solve(&game, LIMIT).unwrap();
        assert!(!batched.is_dirty(), "a pure hit must not mark dirty");

        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn probe_hits_without_replaying_and_misses_without_ticking() {
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let form = canonical_form(&graph);
        let cache = EquilibriumCache::in_memory();

        // Cold probe: a miss is silent — no cache.misses tick, no solve.
        let (cold, deltas) = obs::captured(|| cache.probe(&game, &form, LIMIT));
        assert!(cold.is_none());
        assert_eq!(
            delta(&deltas, "cache.misses"),
            0,
            "probe misses must not tick cache.misses"
        );

        let solved = cache.solve(&game, LIMIT).unwrap();

        // Warm probe: serves the memo, ticks cache.hits, and replays
        // nothing — judged counters (lp.*, solve.*) must stay flat.
        let (probed, deltas) = obs::captured(|| cache.probe(&game, &form, LIMIT).unwrap());
        assert_eq!(probed.value, solved.value);
        assert_eq!(probed.defender_gain, solved.defender_gain);
        let adapter = GameAdapter::new(&game, LIMIT).unwrap();
        assert!(adapter.verify(&probed.config).is_equilibrium());
        assert_eq!(delta(&deltas, "cache.hits"), 1);
        for (name, v) in &deltas {
            if name.starts_with("cache.") {
                continue;
            }
            assert_eq!(*v, 0, "probe hit replayed judged counter {name}");
        }
    }

    #[test]
    fn replay_sums_reconstruct_judged_counters_per_served_class() {
        let cache = EquilibriumCache::in_memory();
        let c5 = generators::cycle(5);
        let pet = generators::petersen();
        let g1 = TupleGame::new(&c5, 1, 1).unwrap();
        let g2 = TupleGame::new(&pet, 1, 1).unwrap();
        cache.solve(&g1, LIMIT).unwrap();
        cache.solve(&g2, LIMIT).unwrap();

        let k1: CacheKey = (canonical_form(&c5).key(), 1, 1);
        let k2: CacheKey = (canonical_form(&pet).key(), 1, 1);

        let one = cache.replay_sums([&k1]);
        let both = cache.replay_sums([&k1, &k2]);
        assert!(!one.is_empty(), "a solved class stores counter deltas");
        assert!(one.windows(2).all(|w| w[0].0 < w[1].0), "name-sorted");

        // Σ over both classes = per-class sums merged.
        let mut expect: BTreeMap<String, u64> = one.iter().cloned().collect();
        for (name, v) in cache.replay_sums([&k2]) {
            *expect.entry(name).or_insert(0) += v;
        }
        assert_eq!(both, expect.into_iter().collect::<Vec<_>>());

        // Unknown keys contribute nothing; key set, not multiplicity.
        let missing: CacheKey = ("~~~bogus".to_owned(), 3, 2);
        assert!(cache.replay_sums([&missing]).is_empty());
        assert_eq!(cache.replay_sums([&k1]), cache.replay_sums([&k1, &missing]));
    }

    #[test]
    fn adopted_entries_serve_hits_and_replay_like_solved_ones() {
        let graph = generators::petersen();
        let game = TupleGame::new(&graph, 2, 1).unwrap();
        let form = canonical_form(&graph);
        let key: CacheKey = (form.key(), 2, 1);
        let scratch = EquilibriumCache::in_memory();
        let solved = scratch.solve(&game, LIMIT).unwrap();

        let cache = EquilibriumCache::in_memory();
        cache.adopt(&EquilibriumCache::in_memory());
        assert!(cache.is_empty() && !cache.is_dirty(), "nothing to adopt");
        cache.adopt(&scratch);
        drop(scratch);
        assert_eq!(cache.len(), 1);
        assert!(cache.is_dirty(), "an adopted entry must reach the sidecar");
        let hit = cache.probe(&game, &form, LIMIT).unwrap();
        assert_eq!(hit.value, solved.value);
        assert_eq!(hit.defender_gain, solved.defender_gain);
        let reference = EquilibriumCache::in_memory();
        reference.solve(&game, LIMIT).unwrap();
        assert_eq!(cache.replay_sums([&key]), reference.replay_sums([&key]));
    }

    #[test]
    fn hints_flow_through_to_the_canonical_solve() {
        let cache = EquilibriumCache::in_memory();
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let asked = std::cell::Cell::new(false);
        let eq = cache
            .solve_with_hint(&game, LIMIT, |canonical_game| {
                asked.set(true);
                assert_eq!(canonical_game.graph().vertex_count(), 5);
                None
            })
            .unwrap();
        assert!(asked.get());
        assert_eq!(eq.value, Ratio::new(2, 5));
    }
}
