//! Output checks: every equilibrium the program returns is re-proved
//! with the exact verifier (`GameAdapter::verify`, Thm 3.4) on the game
//! it answers.

use defender_core::exhaustive::GameAdapter;
use defender_core::model::{MixedConfig, TupleGame};
use defender_core::tuple::Tuple;
use defender_game::MixedStrategy;
use defender_graph::VertexId;
use defender_num::Ratio;
use defender_obs::json::{self, JsonValue};
use defender_serve::solver::TUPLE_LIMIT;

/// Whether `config` is an exact Nash equilibrium of `game`.
pub fn is_equilibrium(game: &TupleGame<'_>, config: &MixedConfig) -> bool {
    GameAdapter::new(game, TUPLE_LIMIT).is_ok_and(|adapter| adapter.verify(config).is_equilibrium())
}

/// The fields of a `/v1/solve` 200 body the checks read.
#[derive(Debug)]
pub struct SolveBody {
    /// `"hit"`, `"miss"` or `"coalesced"`.
    pub cache: String,
    /// The game value as an exact fraction.
    pub value: String,
    doc: JsonValue,
}

impl SolveBody {
    /// Parses a response body.
    pub fn parse(body: &[u8]) -> Result<SolveBody, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("body has no string field {name:?}"))
        };
        Ok(SolveBody {
            cache: field("cache")?,
            value: field("value")?,
            doc,
        })
    }

    /// The equilibrium, in the request graph's labels.
    pub fn equilibrium(&self, game: &TupleGame<'_>) -> Result<MixedConfig, String> {
        let eq = self.doc.get("equilibrium").ok_or("no equilibrium")?;
        let list = |name: &str| {
            eq.get(name)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("equilibrium has no {name} list"))
        };
        let prob = |item: &JsonValue| -> Result<Ratio, String> {
            item.get("p")
                .and_then(JsonValue::as_str)
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| "bad probability".to_owned())
        };
        let index = |v: &JsonValue| -> Result<usize, String> {
            v.as_u64()
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| "bad vertex".to_owned())
        };
        let graph = game.graph();
        let attacker = list("attacker")?
            .iter()
            .map(|item| {
                let v = index(item.get("vertex").ok_or("no vertex")?)?;
                Ok((VertexId::new(v), prob(item)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let defender = list("defender")?
            .iter()
            .map(|item| {
                let edges = item
                    .get("edges")
                    .and_then(JsonValue::as_array)
                    .ok_or("tuple has no edges")?
                    .iter()
                    .map(|pair| {
                        let ends = pair.as_array().ok_or("edge is not a pair")?;
                        let [u, v] = ends else {
                            return Err("edge is not a pair".to_owned());
                        };
                        let (u, v) = (index(u)?, index(v)?);
                        if u.max(v) >= graph.vertex_count() {
                            return Err(format!("edge ({u}, {v}) is out of range"));
                        }
                        graph
                            .find_edge(VertexId::new(u), VertexId::new(v))
                            .ok_or_else(|| format!("({u}, {v}) is not an edge"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((Tuple::new(edges).map_err(|e| e.to_string())?, prob(item)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let attacker = MixedStrategy::from_entries(attacker).map_err(|e| e.to_string())?;
        let defender = MixedStrategy::from_entries(defender).map_err(|e| e.to_string())?;
        MixedConfig::symmetric(game, attacker, defender).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_core::best_response::{attacker_best_response, defender_best_response_auto};
    use defender_core::pure::pure_ne_existence;
    use defender_core::solve::solve_exact;
    use defender_graph::generators;
    use defender_serve::api::{render_solve_response, CacheStatus, SolveOutcome};

    #[test]
    fn a_rendered_equilibrium_parses_back_and_verifies() {
        let graph = generators::petersen();
        let game = TupleGame::new(&graph, 2, 1).unwrap();
        let eq = solve_exact(&game, TUPLE_LIMIT).unwrap();
        let br = defender_best_response_auto(&game, &eq.config, TUPLE_LIMIT);
        let body = render_solve_response(
            &game,
            &SolveOutcome {
                canonical: "x",
                status: CacheStatus::Hit,
                equilibrium: &eq,
                pure: &pure_ne_existence(&game),
                a_tuple: None,
                attacker_br: attacker_best_response(&game, &eq.config),
                defender_br: (&br.0, br.1, br.2),
            },
        );
        let parsed = SolveBody::parse(&body).unwrap();
        assert_eq!(parsed.cache, "hit");
        assert_eq!(parsed.value, eq.value.to_string());
        assert!(is_equilibrium(&game, &parsed.equilibrium(&game).unwrap()));

        // A different game on the same graph rejects the same strategies.
        let other = TupleGame::new(&graph, 1, 1).unwrap();
        assert!(parsed.equilibrium(&other).is_err());
    }
}
