//! The `/v1/solve` wire format: request parsing with a typed error
//! taxonomy and response rendering.
//!
//! A request is a JSON object naming the graph either as a strict graph6
//! string (`{"graph6": "DQc", ...}`) or as an explicit edge list
//! (`{"edges": [[0,1],[1,2]], "n": 3, ...}`), plus the game parameters
//! `k` (defender tuple size) and `nu` (attacker count). Every reject is
//! a [`HttpError`] whose `kind` is machine-stable — the graph6 parser's
//! error taxonomy ([`Graph6Error`]) passes through variant-for-variant
//! (`TrailingData`, `NonzeroPadding`, ...), so an HTTP client sees
//! exactly what a CLI caller sees. No input reachable from the network
//! can panic: edge lists are range- and loop-checked before they touch
//! [`GraphBuilder`]'s asserting API.

use std::fmt::{self, Write as _};

use defender_core::algorithm::ATupleReport;
use defender_core::model::TupleGame;
use defender_core::pure::PureNeOutcome;
use defender_core::solve::ExactEquilibrium;
use defender_core::tuple::Tuple;
use defender_graph::graph6::{from_graph6, Graph6Error};
use defender_graph::{EdgeId, Graph, GraphBuilder, VertexId};
use defender_num::Ratio;
use defender_obs::json::{self, Escaped, JsonObject, JsonValue};

use crate::http::HttpError;

/// A validated solve request: the instance graph plus game parameters.
#[derive(Debug)]
pub struct SolveRequest {
    /// The instance graph, in the caller's labeling.
    pub graph: Graph,
    /// Defender tuple size `k`.
    pub k: usize,
    /// Attacker count `ν`.
    pub nu: usize,
}

/// How the response was produced; reported back to the caller and
/// asserted by the load generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served straight from the canonical-key memo.
    Hit,
    /// This request's solve ran (first request of its class).
    Miss,
    /// Another in-flight request for the same class solved; this one
    /// waited and shared the result.
    Coalesced,
}

impl CacheStatus {
    /// Wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

fn graph6_error(e: &Graph6Error) -> HttpError {
    let kind = match e {
        Graph6Error::Empty => "Empty",
        Graph6Error::BadCharacter { .. } => "BadCharacter",
        Graph6Error::Truncated => "Truncated",
        Graph6Error::TooLarge => "TooLarge",
        Graph6Error::TrailingData { .. } => "TrailingData",
        Graph6Error::NonzeroPadding => "NonzeroPadding",
    };
    HttpError::bad_request(kind, format!("graph6: {e}"))
}

/// Parses and validates a `/v1/solve` body. `max_vertices` bounds the
/// instance size the server is willing to solve (422 beyond it) — the
/// graph6 header alone can claim a quarter-million vertices, so the
/// bound is checked before any per-vertex allocation happens.
pub fn parse_solve_request(body: &[u8], max_vertices: usize) -> Result<SolveRequest, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::bad_request("BadJson", "body is not valid UTF-8"))?;
    let doc = json::parse(text)
        .map_err(|e| HttpError::bad_request("BadJson", format!("body is not valid JSON: {e}")))?;

    // An integer past usize saturates; the range checks on k and nu then
    // reject it with their typed errors.
    let uint_field = |name: &str| -> Result<usize, HttpError> {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
            .ok_or_else(|| {
                HttpError::bad_request(
                    "BadRequest",
                    format!("missing or non-integer field {name:?}"),
                )
            })
    };
    let k = uint_field("k")?;
    let nu = uint_field("nu")?;

    let graph = match (doc.get("graph6"), doc.get("edges")) {
        (Some(_), Some(_)) => {
            return Err(HttpError::bad_request(
                "BadRequest",
                "give either \"graph6\" or \"edges\", not both",
            ))
        }
        (Some(g6), None) => {
            let s = g6.as_str().ok_or_else(|| {
                HttpError::bad_request("BadRequest", "\"graph6\" must be a string")
            })?;
            // Refuse oversized claims from the header before building
            // adjacency: a 3-byte header can promise 258047 vertices.
            let claimed = graph6_vertex_claim(s);
            if claimed > max_vertices {
                return Err(too_many_vertices(claimed, max_vertices));
            }
            from_graph6(s).map_err(|e| graph6_error(&e))?
        }
        (None, Some(edges)) => parse_edge_list(edges, doc.get("n"), max_vertices)?,
        (None, None) => {
            return Err(HttpError::bad_request(
                "BadRequest",
                "missing graph: give \"graph6\" or \"edges\"",
            ))
        }
    };
    if graph.vertex_count() > max_vertices {
        return Err(too_many_vertices(graph.vertex_count(), max_vertices));
    }

    Ok(SolveRequest { graph, k, nu })
}

fn too_many_vertices(n: usize, max: usize) -> HttpError {
    HttpError {
        status: 422,
        kind: "TooLarge",
        message: format!("graph has {n} vertices; this server accepts at most {max}"),
    }
}

/// Reads the vertex count a graph6 string claims without decoding the
/// payload (0 when the header is malformed — the real parser will
/// produce the typed error).
fn graph6_vertex_claim(s: &str) -> usize {
    let b = s.trim().as_bytes();
    match b {
        [c, ..] if (b'?'..=b'}').contains(c) && *c != b'~' => (c - b'?') as usize,
        [b'~', rest @ ..] if rest.len() >= 3 && rest[0] != b'~' => rest[..3]
            .iter()
            .try_fold(0usize, |acc, &c| {
                (b'?'..=b'~')
                    .contains(&c)
                    .then(|| acc * 64 + (c - b'?') as usize)
            })
            .unwrap_or(0),
        [b'~', b'~', rest @ ..] if rest.len() >= 6 => rest[..6]
            .iter()
            .try_fold(0usize, |acc, &c| {
                (b'?'..=b'~')
                    .contains(&c)
                    .then(|| acc * 64 + (c - b'?') as usize)
            })
            .unwrap_or(0),
        _ => 0,
    }
}

/// Validates an `"edges"` array (with optional explicit `"n"`) into a
/// simple graph. Every malformed shape is a `BadEdgeList` reject —
/// nothing here reaches [`GraphBuilder`]'s panicking preconditions.
fn parse_edge_list(
    edges: &JsonValue,
    n: Option<&JsonValue>,
    max_vertices: usize,
) -> Result<Graph, HttpError> {
    let bad = |message: String| HttpError::bad_request("BadEdgeList", message);
    let items = edges
        .as_array()
        .ok_or_else(|| bad("\"edges\" must be an array of [u, v] pairs".to_owned()))?;

    let mut pairs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ends = item
            .as_array()
            .ok_or_else(|| bad(format!("edge {i} is not a [u, v] pair")))?;
        let [u, v] = ends else {
            return Err(bad(format!("edge {i} is not a pair")));
        };
        let (Some(u), Some(v)) = (u.as_u64(), v.as_u64()) else {
            return Err(bad(format!("edge {i} has a non-integer endpoint")));
        };
        // An endpoint past usize saturates, and the bound check rejects it.
        let (u, v) = (
            usize::try_from(u).unwrap_or(usize::MAX),
            usize::try_from(v).unwrap_or(usize::MAX),
        );
        if u == v {
            return Err(bad(format!("edge {i} is a self-loop ({u}, {v})")));
        }
        if u >= max_vertices || v >= max_vertices {
            return Err(too_many_vertices(u.max(v).saturating_add(1), max_vertices));
        }
        pairs.push((u, v));
    }

    let implied = pairs.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
    let n = match n {
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| bad("\"n\" must be a non-negative integer".to_owned()))?;
            let n = usize::try_from(n).unwrap_or(usize::MAX);
            if n > max_vertices {
                return Err(too_many_vertices(n, max_vertices));
            }
            if n < implied {
                return Err(bad(format!(
                    "\"n\" is {n} but an edge mentions vertex {}",
                    implied - 1
                )));
            }
            n
        }
        None => implied,
    };

    let mut b = GraphBuilder::new(n);
    for (u, v) in pairs {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Renders the typed error JSON body for `err`.
#[must_use]
pub fn render_error(err: &HttpError) -> Vec<u8> {
    let mut inner = JsonObject::new();
    inner.field_str("kind", err.kind);
    inner.field_str("message", &err.message);
    let mut doc = JsonObject::new();
    doc.field_raw("error", &inner.finish());
    doc.finish().into_bytes()
}

/// Everything the handler computed about one instance, ready to render.
#[derive(Debug)]
pub struct SolveOutcome<'a> {
    /// Canonical graph6 key of the instance's isomorphism class.
    pub canonical: &'a str,
    /// How the equilibrium was obtained.
    pub status: CacheStatus,
    /// The exact mixed equilibrium, in the caller's labeling.
    pub equilibrium: &'a ExactEquilibrium,
    /// Pure-NE existence (Theorem 3.1).
    pub pure: &'a PureNeOutcome,
    /// The `A_tuple` construction when the instance admits one.
    pub a_tuple: Option<(&'static str, &'a ATupleReport)>,
    /// Attacker's best response against the equilibrium.
    pub attacker_br: (VertexId, Ratio),
    /// Defender's best response `(tuple, gain, exact?)`.
    pub defender_br: (&'a Tuple, Ratio, bool),
}

/// Renders the `/v1/solve` 200 body, streamed field by field into one
/// buffer.
#[must_use]
pub fn render_solve_response(game: &TupleGame<'_>, out: &SolveOutcome<'_>) -> Vec<u8> {
    let mut body = String::with_capacity(1024);
    let _ = write_solve_response(&mut body, game, out); // writing to a String cannot fail
    body.into_bytes()
}

fn write_solve_response(
    w: &mut String,
    game: &TupleGame<'_>,
    out: &SolveOutcome<'_>,
) -> fmt::Result {
    let graph = game.graph();
    let eq = out.equilibrium;
    write!(
        w,
        "{{\"n\": {}, \"m\": {}, \"k\": {}, \"nu\": {}, \"canonical\": \"{}\", \
         \"cache\": \"{}\", \"value\": \"{}\", \"defender_gain\": \"{}\", \"pure_ne\": ",
        graph.vertex_count(),
        graph.edge_count(),
        game.k(),
        game.attacker_count(),
        Escaped(out.canonical),
        out.status.as_str(),
        eq.value,
        eq.defender_gain,
    )?;
    match out.pure {
        PureNeOutcome::Exists { cover, .. } => {
            w.write_str("{\"exists\": true, \"cover\": ")?;
            write_edges(w, graph, cover)?;
            w.write_char('}')?;
        }
        PureNeOutcome::None { min_cover_size } => {
            write!(
                w,
                "{{\"exists\": false, \"min_cover_size\": {min_cover_size}}}"
            )?;
        }
    }

    w.write_str(", \"equilibrium\": {\"attacker\": [")?;
    for (i, (v, p)) in eq.config.attacker(0).iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(w, "{sep}{{\"vertex\": {}, \"p\": \"{p}\"}}", v.index())?;
    }
    w.write_str("], \"defender\": [")?;
    for (i, (t, p)) in eq.config.defender().iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(w, "{sep}{{\"edges\": ")?;
        write_edges(w, graph, t.edges())?;
        write!(w, ", \"p\": \"{p}\"}}")?;
    }
    w.write_str("]}, \"a_tuple\": ")?;
    match &out.a_tuple {
        Some((route, report)) => write!(
            w,
            "{{\"applies\": true, \"route\": \"{}\", \"e_num\": {}, \"delta\": {}, \
             \"defender_gain\": \"{}\", \"summary\": \"{}\"}}",
            Escaped(route),
            report.e_num,
            report.delta,
            report.ne.defender_gain(),
            Escaped(&report.summary()),
        )?,
        None => w.write_str("{\"applies\": false}")?,
    }

    let (attacker_vertex, survival) = out.attacker_br;
    let (defender_tuple, gain, exact) = out.defender_br;
    write!(
        w,
        ", \"best_response\": {{\"attacker\": {{\"vertex\": {}, \"survival\": \"{survival}\"}}, \
         \"defender\": {{\"edges\": ",
        attacker_vertex.index(),
    )?;
    write_edges(w, graph, defender_tuple.edges())?;
    write!(w, ", \"gain\": \"{gain}\", \"exact\": {exact}}}}}}}")
}

/// Writes `edges` as a JSON array of `[u, v]` endpoint pairs.
fn write_edges(w: &mut String, graph: &Graph, edges: &[EdgeId]) -> fmt::Result {
    w.write_char('[')?;
    for (i, &e) in edges.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let ends = graph.endpoints(e);
        write!(w, "{sep}[{}, {}]", ends.u().index(), ends.v().index())?;
    }
    w.write_char(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_graph6_and_edge_list_spellings_of_the_same_graph() {
        let g6 = parse_solve_request(br#"{"graph6": "DQo", "k": 1, "nu": 1}"#, 64).unwrap();
        let edges = parse_solve_request(
            br#"{"edges": [[0,1],[1,2],[2,3],[3,4]], "n": 5, "k": 1, "nu": 1}"#,
            64,
        )
        .unwrap();
        assert_eq!(g6.graph.vertex_count(), 5);
        assert_eq!(edges.graph.vertex_count(), 5);
        assert_eq!(edges.graph.edge_count(), 4);
        assert_eq!((g6.k, g6.nu), (1, 1));
    }

    #[test]
    fn graph6_taxonomy_passes_through_variant_for_variant() {
        for (body, kind) in [
            (&br#"{"graph6": "", "k": 1, "nu": 1}"#[..], "Empty"),
            (
                &br#"{"graph6": "DQo!!", "k": 1, "nu": 1}"#[..],
                "BadCharacter",
            ),
            (&br#"{"graph6": "D", "k": 1, "nu": 1}"#[..], "Truncated"),
            (
                &br#"{"graph6": "DQoA", "k": 1, "nu": 1}"#[..],
                "TrailingData",
            ),
            (
                &br#"{"graph6": "DQp", "k": 1, "nu": 1}"#[..],
                "NonzeroPadding",
            ),
        ] {
            let err = parse_solve_request(body, 64).unwrap_err();
            assert_eq!(err.status, 400, "{kind}");
            assert_eq!(err.kind, kind);
        }
    }

    #[test]
    fn edge_list_rejects_never_reach_the_builder_asserts() {
        for (body, kind) in [
            // Self-loop and out-of-range both panic in GraphBuilder;
            // here they must be typed 4xx rejects instead.
            (
                &br#"{"edges": [[2,2]], "k": 1, "nu": 1}"#[..],
                "BadEdgeList",
            ),
            (
                &br#"{"edges": [[0,9]], "n": 3, "k": 1, "nu": 1}"#[..],
                "BadEdgeList",
            ),
            (&br#"{"edges": [[0]], "k": 1, "nu": 1}"#[..], "BadEdgeList"),
            (
                &br#"{"edges": [[0,"x"]], "k": 1, "nu": 1}"#[..],
                "BadEdgeList",
            ),
            (&br#"{"edges": 7, "k": 1, "nu": 1}"#[..], "BadEdgeList"),
            (&br#"{"k": 1, "nu": 1}"#[..], "BadRequest"),
            (
                &br#"{"graph6": "DQo", "edges": [], "k": 1, "nu": 1}"#[..],
                "BadRequest",
            ),
            (&br#"{"graph6": "DQo", "nu": 1}"#[..], "BadRequest"),
            (&b"not json at all"[..], "BadJson"),
            (&[0xFF, 0xFE, 0x01][..], "BadJson"),
        ] {
            let err = parse_solve_request(body, 64).unwrap_err();
            assert_eq!(err.kind, kind, "body: {:?}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn oversized_claims_are_refused_before_decoding() {
        // Header claims 5000 vertices ('~' + three sextets); the 422
        // must fire without the parser materializing the adjacency.
        let body = br#"{"graph6": "~@MG", "k": 1, "nu": 1}"#;
        let err = parse_solve_request(body, 256).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.kind, "TooLarge");

        let err =
            parse_solve_request(br#"{"edges": [[0, 5000]], "k": 1, "nu": 1}"#, 256).unwrap_err();
        assert_eq!(err.status, 422);

        let err = parse_solve_request(br#"{"edges": [[0,1]], "n": 5000, "k": 1, "nu": 1}"#, 256)
            .unwrap_err();
        assert_eq!(err.status, 422);
    }

    #[test]
    fn error_bodies_are_typed_json() {
        let err = HttpError::bad_request("NonzeroPadding", "graph6: nonzero padding bits");
        let body = String::from_utf8(render_error(&err)).unwrap();
        let doc = json::parse(&body).unwrap();
        let inner = doc.get("error").unwrap();
        assert_eq!(
            inner.get("kind").and_then(JsonValue::as_str),
            Some("NonzeroPadding")
        );
    }
}
