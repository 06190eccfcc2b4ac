//! Seeded input generators. The program under test only ever receives
//! what these produce; the same seed gives the same inputs.
//!
//! Every class is deduplicated by its canonical key `(canonical graph6,
//! k)` before timing, so a workload's class count is exact and a cold
//! class is never secretly warm.

use std::collections::BTreeSet;

use defender_graph::canonical::canonical_form;
use defender_graph::graph6::to_graph6;
use defender_graph::{generators, properties, Graph, GraphBuilder};
use defender_num::rng::{Rng, XorShiftRng};

/// Attacker count of every generated game.
pub const NU: usize = 1;

/// Largest edge count at which serve's `k = 1` LP warm-start hint fires.
const HINT_MAX_EDGES: usize = 6;

/// Whether serve offers the LP warm-start hint to a class with tuple
/// size `k` and `edges` edges.
pub fn hint_applies(k: usize, edges: usize) -> bool {
    k == 1 && (1..=HINT_MAX_EDGES).contains(&edges)
}

/// One canonical class: a graph in its pooled labelling and the tuple
/// size `k`.
#[derive(Clone, Debug)]
pub struct Class {
    /// The class representative as generated.
    pub graph: Graph,
    /// Defender tuple size.
    pub k: usize,
}

impl Class {
    /// Whether serve's LP warm-start hint applies to this class.
    pub fn hint_eligible(&self) -> bool {
        hint_applies(self.k, self.graph.edge_count())
    }
}

/// The set of canonical keys admitted so far.
#[derive(Debug, Default)]
pub struct Dedup(BTreeSet<(String, usize)>);

impl Dedup {
    /// Admits `(graph, k)` unless its canonical class was seen before.
    pub fn admit(&mut self, graph: &Graph, k: usize) -> bool {
        self.0.insert((canonical_form(graph).key(), k))
    }
}

/// A connected graph on `n` vertices with `m` edges: a random spanning
/// tree plus random extra edges.
fn connected_with_edges(n: usize, m: usize, rng: &mut XorShiftRng) -> Graph {
    let tree = generators::random_tree(n, rng);
    let mut b = GraphBuilder::new(n);
    for e in tree.edges() {
        let ends = tree.endpoints(e);
        b.add_edge(ends.u().index(), ends.v().index());
    }
    let m = m.min(n * (n - 1) / 2);
    while b.edge_count() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A uniformly relabelled copy of `graph` (an isomorph).
pub fn relabel(graph: &Graph, rng: &mut XorShiftRng) -> Graph {
    let n = graph.vertex_count();
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut b = GraphBuilder::new(n);
    for e in graph.edges() {
        let ends = graph.endpoints(e);
        b.add_edge(perm[ends.u().index()], perm[ends.v().index()]);
    }
    b.build()
}

/// Escapes graph6 text (ASCII 63–126 includes `\`) for a JSON string.
fn json_str(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A `/v1/solve` body naming `graph` as graph6.
pub fn graph6_body(graph: &Graph, k: usize) -> String {
    format!(
        "{{\"graph6\": \"{}\", \"k\": {k}, \"nu\": {NU}}}",
        json_str(&to_graph6(graph))
    )
}

/// A `/v1/solve` body naming `graph` as an explicit edge list.
pub fn edge_list_body(graph: &Graph, k: usize) -> String {
    let edges: Vec<String> = graph
        .edges()
        .map(|e| {
            let ends = graph.endpoints(e);
            format!("[{}, {}]", ends.u().index(), ends.v().index())
        })
        .collect();
    format!(
        "{{\"edges\": [{}], \"n\": {}, \"k\": {k}, \"nu\": {NU}}}",
        edges.join(", "),
        graph.vertex_count()
    )
}

/// The whole HTTP/1.1 request for `body`, as one buffer.
pub fn frame_solve(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/solve HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Draws connected graphs on `n` vertices with `m` edges until one is a
/// new class. The edge count is the caller's choice, not a draw, so the
/// cost mix of a workload does not depend on the seed.
fn fresh_class(
    n: usize,
    m: usize,
    k: usize,
    rng: &mut XorShiftRng,
    dedup: &mut Dedup,
) -> Option<Class> {
    for _ in 0..200 {
        let graph = connected_with_edges(n, m, rng);
        if graph.edge_count() >= k && dedup.admit(&graph, k) {
            return Some(Class { graph, k });
        }
    }
    None
}

/// The `step`-th value of `lo..=hi`, cycling.
fn cycle(lo: usize, hi: usize, step: usize) -> usize {
    lo + step % (hi - lo + 1)
}

/// The `warm_hits` pool of about 24 classes:
/// - the ten `exp_serve_load` classes at `k = 1`;
/// - the vertex-transitive Petersen graph, Q3 and C9, whose canonical
///   forms need the individualization search;
/// - seeded connected graphs over `k ∈ {1, 2, 3}` and `n` 5–12;
/// - seeded `G(n, 0.35)` graphs at `k = 3`, capped at 18 edges so the
///   defender best response enumerates up to `C(18, 3)` tuples while one
///   cold solve stays under about 60 ms (at 24–26 edges a single class
///   costs 1–3 s to fill, which would make set-up time a property of
///   the seed).
pub fn warm_pool(rng: &mut XorShiftRng) -> Vec<Class> {
    let mut dedup = Dedup::default();
    let mut pool = Vec::new();
    let mut push = |graph: Graph, k: usize, pool: &mut Vec<Class>| {
        if dedup.admit(&graph, k) {
            pool.push(Class { graph, k });
        }
    };
    for graph in [
        generators::cycle(5),
        generators::cycle(7),
        generators::path(6),
        generators::star(5),
        generators::complete(4),
        generators::complete_bipartite(2, 3),
        generators::petersen(),
        generators::wheel(6),
        generators::ladder(4),
        generators::grid(3, 3),
    ] {
        push(graph, 1, &mut pool);
    }
    push(generators::petersen(), 2, &mut pool);
    push(generators::hypercube(3), 2, &mut pool);
    push(generators::cycle(9), 3, &mut pool);

    let mut seeded = Dedup::default();
    for class in &pool {
        seeded.admit(&class.graph, class.k);
    }
    for (n, k) in [
        (5, 2),
        (6, 3),
        (7, 1),
        (8, 2),
        (9, 3),
        (10, 1),
        (11, 2),
        (12, 3),
    ] {
        if let Some(class) = fresh_class(n, n - 1 + n / 2, k, rng, &mut seeded) {
            pool.push(class);
        }
    }
    // G(n, 0.35) conditioned on an edge count near its mean, capped at 18.
    for (n, m) in [(9, 13), (10, 16), (11, 18), (12, 18)] {
        for _ in 0..100_000 {
            let graph = generators::gnp(n, 0.35, rng);
            if graph.edge_count() == m
                && properties::is_connected(&graph)
                && seeded.admit(&graph, 3)
            {
                pool.push(Class { graph, k: 3 });
                break;
            }
        }
    }
    pool
}

/// `count` distinct `cold_misses` classes: connected graphs with `n`
/// 6–10 and `k ∈ {1, 2}`, cycling through the ten `(n, k)` cells and
/// their edge counts `n..2n`. Every 50th slot draws a `k = 1` class with
/// at most six edges (the serve LP warm-start hint's domain) while any
/// of those few dozen classes is left.
pub fn cold_classes(rng: &mut XorShiftRng, count: usize) -> Vec<Class> {
    let mut dedup = Dedup::default();
    let mut classes = Vec::with_capacity(count);
    let mut slot = 0usize;
    while classes.len() < count {
        let class = if slot.is_multiple_of(50) {
            let n = 6 + rng.gen_range(0..2);
            fresh_class(
                n,
                cycle(n - 1, HINT_MAX_EDGES, slot / 50),
                1,
                rng,
                &mut dedup,
            )
        } else {
            let n = 6 + (slot / 2) % 5;
            let k = 1 + slot % 2;
            fresh_class(n, cycle(n, 2 * n - 1, slot / 10), k, rng, &mut dedup)
        };
        classes.extend(class);
        slot += 1;
    }
    classes
}

/// One `lp_sweep` class with its relabelled isomorphs.
#[derive(Debug)]
pub struct SweepClass {
    /// The class as first solved (cold).
    pub class: Class,
    /// Isomorphs served from the memo after the cold solve.
    pub isomorphs: Vec<Graph>,
}

/// `count` distinct `lp_sweep` classes, each with `r` relabelled
/// isomorphs. `n` 7–10 and `k ∈ {1, 2, 3}` with `k = 3` twice as often,
/// so exact LPs dominate; edge counts cycle through each cell's range,
/// and `k = 3` classes keep `m ≤ 2n - 1`, which bounds one cold solve
/// near 150 ms. Every 24th slot is a 7-vertex tree at `k = 1` (the LP
/// hint's domain) until the eleven of them run out.
pub fn sweep_corpus(rng: &mut XorShiftRng, count: usize, r: usize) -> Vec<SweepClass> {
    let mut dedup = Dedup::default();
    let mut corpus = Vec::with_capacity(count);
    let mut hints_left = true;
    let mut slot = 0usize;
    while corpus.len() < count {
        let class = if hints_left && slot.is_multiple_of(24) {
            let found = fresh_class(7, 6, 1, rng, &mut dedup);
            hints_left = found.is_some();
            found
        } else {
            let n = 7 + (slot / 4) % 4;
            let step = slot / 16;
            let (k, m) = match slot % 4 {
                0 => (1, cycle(n - 1, 2 * n - 1, step)),
                1 => (2, cycle(n, 2 * n - 1, step)),
                _ => (3, cycle(n - 1 + n / 2, 2 * n - 1, step)),
            };
            fresh_class(n, m, k, rng, &mut dedup)
        };
        if let Some(class) = class {
            let isomorphs = (0..r).map(|_| relabel(&class.graph, rng)).collect();
            corpus.push(SweepClass { class, isomorphs });
        }
        slot += 1;
    }
    corpus
}

/// One planned request: its class, the graph as sent, and the framed
/// bytes.
#[derive(Debug)]
pub struct Planned {
    /// Index into the workload's class list.
    pub class: usize,
    /// The request graph in the labelling the body uses.
    pub graph: Graph,
    /// The whole HTTP request.
    pub wire: Vec<u8>,
}

/// Plans one request per entry of `order` (class indices). Even
/// positions send the pooled labelling as graph6, which repeats byte
/// for byte; odd positions send a fresh relabelling as an edge list.
pub fn plan_requests(classes: &[Class], order: &[usize], rng: &mut XorShiftRng) -> Vec<Planned> {
    order
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let class = &classes[c];
            let (graph, body) = if i % 2 == 0 {
                let body = graph6_body(&class.graph, class.k);
                (class.graph.clone(), body)
            } else {
                let graph = relabel(&class.graph, rng);
                let body = edge_list_body(&graph, class.k);
                (graph, body)
            };
            Planned {
                class: c,
                graph,
                wire: frame_solve(&body),
            }
        })
        .collect()
}

/// One line of input properties: class count, `k` mix, `n`/`m` ranges,
/// isomorph multiplicity `r`, and the share of `k = 1` classes with at
/// most six edges.
pub fn describe<'a>(workload: &str, classes: impl Iterator<Item = &'a Class>, r: f64) -> String {
    let (mut count, mut hinted) = (0usize, 0usize);
    let mut k_mix = [0usize; 4];
    let (mut n_lo, mut n_hi, mut m_lo, mut m_hi) = (usize::MAX, 0, usize::MAX, 0);
    for class in classes {
        count += 1;
        k_mix[class.k.min(3)] += 1;
        let (n, m) = (class.graph.vertex_count(), class.graph.edge_count());
        (n_lo, n_hi, m_lo, m_hi) = (n_lo.min(n), n_hi.max(n), m_lo.min(m), m_hi.max(m));
        hinted += usize::from(class.hint_eligible());
    }
    format!(
        "inputs {workload}: classes={count} k1={} k2={} k3={} n={n_lo}..{n_hi} m={m_lo}..{m_hi} r={r:.2} k1_le6_share={:.4}",
        k_mix[1],
        k_mix[2],
        k_mix[3],
        hinted as f64 / count.max(1) as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(classes: &[Class]) -> Vec<(String, usize)> {
        classes
            .iter()
            .map(|c| (canonical_form(&c.graph).key(), c.k))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_distinct_classes() {
        let draw = |seed| cold_classes(&mut XorShiftRng::seed_from_u64(seed), 300);
        let (a, b) = (keys(&draw(7)), keys(&draw(7)));
        assert_eq!(a, b);
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "classes must not repeat");
        assert_ne!(a, keys(&draw(8)), "another seed draws other graphs");
    }

    #[test]
    fn workloads_carry_the_properties_they_were_chosen_for() {
        let mut rng = XorShiftRng::seed_from_u64(1);
        let pool = warm_pool(&mut rng);
        assert!((20..=28).contains(&pool.len()));
        assert!(pool.iter().any(|c| c.k == 3 && c.graph.edge_count() == 18));
        assert!(cold_classes(&mut rng, 300).iter().any(Class::hint_eligible));
        let corpus = sweep_corpus(&mut rng, 48, 3);
        assert!(corpus.iter().any(|c| c.class.hint_eligible()));
        for c in &corpus {
            let key = canonical_form(&c.class.graph).key();
            assert_eq!(c.isomorphs.len(), 3);
            assert!(c.isomorphs.iter().all(|g| canonical_form(g).key() == key));
        }
    }
}
