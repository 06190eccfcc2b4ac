//! The defender's pure strategy: a [`Tuple`] of `k` distinct edges.
//!
//! The paper defines `E^k` as the set of tuples of `k` distinct edges. The
//! payoffs (Definition 2.1) depend only on the *set* of endpoints, so order
//! never matters in any argument; we canonicalize tuples as sorted edge-id
//! vectors (DESIGN.md §5.4), which makes equality structural and supports
//! usable as `BTreeMap` keys.

use core::fmt;

use defender_graph::{EdgeId, Graph, VertexId, VertexSet};

use crate::CoreError;

/// A set of `k` distinct edges — one pure strategy of the tuple player.
///
/// Internally sorted and deduplicated at construction; `k` is the length.
///
/// # Examples
///
/// ```
/// use defender_core::tuple::Tuple;
/// use defender_graph::EdgeId;
///
/// let t = Tuple::new(vec![EdgeId::new(2), EdgeId::new(0)])?;
/// assert_eq!(t.k(), 2);
/// assert_eq!(t.edges()[0], EdgeId::new(0));
/// # Ok::<(), defender_core::CoreError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    edges: Vec<EdgeId>,
}

impl Tuple {
    /// Builds a tuple from edges, canonicalizing the order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] when the edges are not
    /// distinct or the list is empty (the model requires `k ≥ 1`).
    pub fn new(mut edges: Vec<EdgeId>) -> Result<Tuple, CoreError> {
        edges.sort_unstable();
        let before = edges.len();
        edges.dedup();
        if edges.len() != before {
            return Err(CoreError::ConfigMismatch {
                reason: "tuple edges must be distinct".into(),
            });
        }
        if edges.is_empty() {
            return Err(CoreError::ConfigMismatch {
                reason: "a tuple needs at least one edge".into(),
            });
        }
        Ok(Tuple { edges })
    }

    /// Builds a single-edge tuple (the Edge model's pure strategy).
    #[must_use]
    pub fn single(edge: EdgeId) -> Tuple {
        Tuple { edges: vec![edge] }
    }

    /// The tuple width `k` (number of edges).
    #[must_use]
    pub fn k(&self) -> usize {
        self.edges.len()
    }

    /// The edges, sorted by id.
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether `e` is one of the tuple's edges.
    #[must_use]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// The set of distinct endpoints `V(t)`, sorted.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `graph`.
    #[must_use]
    pub fn vertices(&self, graph: &Graph) -> VertexSet {
        graph.endpoint_set(&self.edges)
    }

    /// Whether `v` is an endpoint of some tuple edge (`v ∈ V(t)`) — the
    /// "caught" predicate of the payoff definition.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `graph`.
    #[must_use]
    pub fn covers(&self, graph: &Graph, v: VertexId) -> bool {
        self.edges.iter().any(|&e| graph.endpoints(e).contains(v))
    }

    /// Validates the tuple against a game's graph and width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] if the width differs from `k`
    /// or an edge id is out of range.
    pub fn check_for(&self, graph: &Graph, k: usize) -> Result<(), CoreError> {
        if self.k() != k {
            return Err(CoreError::ConfigMismatch {
                reason: format!("tuple has {} edges, game has k = {k}", self.k()),
            });
        }
        if let Some(e) = self.edges.iter().find(|e| e.index() >= graph.edge_count()) {
            return Err(CoreError::ConfigMismatch {
                reason: format!("tuple references unknown edge {e}"),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple{:?}", self.edges)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "⟩")
    }
}

/// Enumerates every tuple of `k` distinct edges of `graph` — the full
/// strategy set `E^k`. Exponential (`C(m, k)` tuples); guarded.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] when `C(m, k)` exceeds `limit`.
pub fn all_tuples(graph: &Graph, k: usize, limit: usize) -> Result<Vec<Tuple>, CoreError> {
    let m = graph.edge_count();
    if k == 0 || k > m {
        return Ok(Vec::new());
    }
    let count = binomial(m, k);
    if count.map_or(true, |c| c > limit as u128) {
        defender_obs::counter!("core.exhaustive.enumerations_rejected").incr();
        return Err(CoreError::TooLarge {
            what: format!("C({m}, {k}) tuples"),
            limit,
        });
    }
    let _span = defender_obs::span!("all_tuples");
    defender_obs::counter!("core.exhaustive.tuples_enumerated")
        .add(u64::try_from(count.unwrap_or(0)).unwrap_or(u64::MAX));
    let mut out = Vec::with_capacity(count.unwrap_or(0) as usize);
    let mut indices: Vec<usize> = (0..k).collect();
    #[expect(clippy::indexing_slicing, reason = "i < k from the break above")]
    loop {
        out.push(Tuple {
            edges: indices.iter().map(|&i| EdgeId::new(i)).collect(),
        });
        // Advance the combination.
        let mut i = k;
        #[expect(
            clippy::indexing_slicing,
            reason = "i < k = indices.len(): loop decrements from k"
        )]
        loop {
            if i == 0 {
                return Ok(out);
            }
            i -= 1;
            if indices[i] != i + m - k {
                break;
            }
        }
        indices[i] += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "j in i+1..k and j-1 >= i are in range"
        )]
        for j in i + 1..k {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

/// `C(n, k)` with overflow detection.
fn binomial(n: usize, k: usize) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        #[expect(clippy::integer_division_remainder_used, reason = "divisor i + 1 >= 1")]
        let next = acc.checked_mul((n - i) as u128)? / (i + 1) as u128;
        acc = next;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn construction_canonicalizes() {
        let t = Tuple::new(vec![EdgeId::new(3), EdgeId::new(1)]).unwrap();
        assert_eq!(t.edges(), &[EdgeId::new(1), EdgeId::new(3)]);
        assert_eq!(t.k(), 2);
    }

    #[test]
    fn duplicates_rejected() {
        let err = Tuple::new(vec![EdgeId::new(1), EdgeId::new(1)]).unwrap_err();
        assert!(matches!(err, CoreError::ConfigMismatch { .. }));
    }

    #[test]
    fn empty_rejected() {
        assert!(Tuple::new(vec![]).is_err());
    }

    #[test]
    fn single_edge_tuple() {
        let t = Tuple::single(EdgeId::new(4));
        assert_eq!(t.k(), 1);
        assert!(t.contains_edge(EdgeId::new(4)));
        assert!(!t.contains_edge(EdgeId::new(0)));
    }

    #[test]
    fn vertices_and_covers() {
        let g = generators::path(4); // edges (0,1),(1,2),(2,3)
        let t = Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        assert_eq!(
            t.vertices(&g),
            vec![
                VertexId::new(0),
                VertexId::new(1),
                VertexId::new(2),
                VertexId::new(3)
            ]
        );
        assert!(t.covers(&g, VertexId::new(0)));
        let t0 = Tuple::single(EdgeId::new(0));
        assert!(!t0.covers(&g, VertexId::new(3)));
    }

    #[test]
    fn check_for_validates() {
        let g = generators::path(3);
        let t = Tuple::new(vec![EdgeId::new(0), EdgeId::new(1)]).unwrap();
        assert!(t.check_for(&g, 2).is_ok());
        assert!(t.check_for(&g, 1).is_err());
        let ghost = Tuple::single(EdgeId::new(9));
        assert!(ghost.check_for(&g, 1).is_err());
    }

    #[test]
    fn tuple_ordering_is_total() {
        let a = Tuple::new(vec![EdgeId::new(0), EdgeId::new(1)]).unwrap();
        let b = Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        assert!(a < b);
    }

    #[test]
    fn all_tuples_counts() {
        let g = generators::cycle(5); // m = 5
        assert_eq!(all_tuples(&g, 1, 1000).unwrap().len(), 5);
        assert_eq!(all_tuples(&g, 2, 1000).unwrap().len(), 10);
        assert_eq!(all_tuples(&g, 3, 1000).unwrap().len(), 10);
        assert_eq!(all_tuples(&g, 5, 1000).unwrap().len(), 1);
        assert_eq!(all_tuples(&g, 6, 1000).unwrap().len(), 0);
    }

    #[test]
    fn all_tuples_are_distinct_and_sorted() {
        let g = generators::complete(5); // m = 10
        let ts = all_tuples(&g, 3, 1000).unwrap();
        assert_eq!(ts.len(), 120);
        let mut sorted = ts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ts.len());
    }

    #[test]
    fn all_tuples_guard() {
        let g = generators::complete(10); // m = 45
        let err = all_tuples(&g, 10, 1000).unwrap_err();
        assert!(matches!(err, CoreError::TooLarge { .. }));
    }

    #[test]
    fn display_renders() {
        let t = Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        assert_eq!(t.to_string(), "⟨e0, e2⟩");
        assert_eq!(format!("{t:?}"), "Tuple[e0, e2]");
    }
}
