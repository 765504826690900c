//! The typed query language and its answers.
//!
//! Query text grammar (whitespace-separated tokens, one query per string):
//!
//! ```text
//! bestkset <metric>     best k-core set under the metric
//! bestcore <metric>     best single connected k-core under the metric
//! profile  <metric>     the per-k score series (paper Figure 5)
//! coreof   <vertex>     coreness of one vertex
//! stats                 dataset statistics
//! ```
//!
//! Metrics are the paper's abbreviations (`ad den cr con mod cc sep td`).
//! Answers render to a stable tab-separated line — the exact bytes the
//! serving loop and the one-shot `bestk query` command emit, so both
//! surfaces can be diffed against each other (and across `--threads`
//! settings; floats are formatted with Rust's shortest-roundtrip `Display`,
//! which is deterministic).

use bestk_core::Metric;

use crate::error::EngineError;

/// A typed request against one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The best k-core set `C_k` over all `k` (paper §III).
    BestKSet {
        /// Scoring metric.
        metric: Metric,
    },
    /// The best single connected k-core over all cores (paper §IV).
    BestCore {
        /// Scoring metric.
        metric: Metric,
    },
    /// Every k-core set's score, `k = 0 ..= kmax` (paper Figure 5).
    ScoreProfile {
        /// Scoring metric.
        metric: Metric,
    },
    /// The coreness of one vertex.
    CoreOfVertex {
        /// The vertex id.
        vertex: u32,
    },
    /// Dataset statistics: vertex/edge counts, `kmax`, forest size.
    Stats,
}

impl Query {
    /// Parses one query string per the grammar above. Unknown verbs, bad
    /// metrics, non-numeric vertices, and extra tokens are all
    /// [`EngineError::BadQuery`].
    pub fn parse(text: &str) -> Result<Query, EngineError> {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let expect_len = |want: usize| -> Result<(), EngineError> {
            if tokens.len() == want {
                Ok(())
            } else {
                Err(EngineError::BadQuery(format!(
                    "{:?} takes {} argument(s), got {}",
                    tokens[0],
                    want - 1,
                    tokens.len() - 1
                )))
            }
        };
        match tokens.first() {
            None => Err(EngineError::BadQuery("empty query".into())),
            Some(&"bestkset") => {
                expect_len(2)?;
                Ok(Query::BestKSet {
                    metric: metric_by_abbrev(tokens[1])?,
                })
            }
            Some(&"bestcore") => {
                expect_len(2)?;
                Ok(Query::BestCore {
                    metric: metric_by_abbrev(tokens[1])?,
                })
            }
            Some(&"profile") => {
                expect_len(2)?;
                Ok(Query::ScoreProfile {
                    metric: metric_by_abbrev(tokens[1])?,
                })
            }
            Some(&"coreof") => {
                expect_len(2)?;
                let vertex: u32 = tokens[1].parse().map_err(|_| {
                    EngineError::BadQuery(format!(
                        "coreof expects a vertex id, got {:?}",
                        tokens[1]
                    ))
                })?;
                Ok(Query::CoreOfVertex { vertex })
            }
            Some(&"stats") => {
                expect_len(1)?;
                Ok(Query::Stats)
            }
            Some(other) => Err(EngineError::BadQuery(format!(
                "unknown query verb {other:?} (expected bestkset|bestcore|profile|coreof|stats)"
            ))),
        }
    }
}

/// Resolves a metric by the paper's abbreviation (`ad`, `den`, ...).
pub fn metric_by_abbrev(abbrev: &str) -> Result<Metric, EngineError> {
    Metric::EXTENDED
        .iter()
        .copied()
        .find(|m| m.abbrev() == abbrev)
        .ok_or_else(|| {
            EngineError::BadQuery(format!(
                "unknown metric {abbrev:?} (expected ad|den|cr|con|mod|cc|sep|td)"
            ))
        })
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The best k-core set.
    BestKSet {
        /// Scoring metric.
        metric: Metric,
        /// The winning `k`.
        k: u32,
        /// Its score.
        score: f64,
    },
    /// The best single k-core.
    BestCore {
        /// Scoring metric.
        metric: Metric,
        /// Forest node index of the winner.
        node: u32,
        /// Its `k`.
        k: u32,
        /// Its score.
        score: f64,
        /// Number of vertices in the winning core.
        size: u64,
    },
    /// The per-k score series.
    Profile {
        /// Scoring metric.
        metric: Metric,
        /// `scores[k]` is the score of `C_k`; length `kmax + 1`.
        scores: Vec<f64>,
    },
    /// One vertex's coreness.
    CoreOf {
        /// The queried vertex.
        vertex: u32,
        /// Its coreness.
        coreness: u32,
    },
    /// Dataset statistics.
    Stats {
        /// Number of vertices.
        vertices: u64,
        /// Number of edges.
        edges: u64,
        /// Degeneracy (largest `k` with a non-empty k-core).
        kmax: u32,
        /// Number of core-forest nodes (= distinct k-cores).
        forest_nodes: u64,
    },
    /// The metric was undefined (`NaN`) on every candidate.
    Undefined {
        /// Which query had no defined answer.
        what: &'static str,
    },
}

impl Answer {
    /// Renders the answer as the stable tab-separated reply body (without
    /// the `ok` status token, which the transport prepends).
    pub fn to_line(&self) -> String {
        match self {
            Answer::BestKSet { metric, k, score } => {
                format!("bestkset\t{}\tk={k}\tscore={score}", metric.abbrev())
            }
            Answer::BestCore {
                metric,
                node,
                k,
                score,
                size,
            } => format!(
                "bestcore\t{}\tnode={node}\tk={k}\tscore={score}\tsize={size}",
                metric.abbrev()
            ),
            Answer::Profile { metric, scores } => {
                let series: Vec<String> = scores.iter().map(|s| s.to_string()).collect();
                format!("profile\t{}\t{}", metric.abbrev(), series.join(","))
            }
            Answer::CoreOf { vertex, coreness } => {
                format!("coreof\t{vertex}\tcoreness={coreness}")
            }
            Answer::Stats {
                vertices,
                edges,
                kmax,
                forest_nodes,
            } => format!("stats\tn={vertices}\tm={edges}\tkmax={kmax}\tcores={forest_nodes}"),
            Answer::Undefined { what } => format!("undefined\t{what}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            Query::parse("bestkset ad").unwrap(),
            Query::BestKSet {
                metric: Metric::AverageDegree
            }
        );
        assert_eq!(
            Query::parse("bestcore cc").unwrap(),
            Query::BestCore {
                metric: Metric::ClusteringCoefficient
            }
        );
        assert_eq!(
            Query::parse("profile mod").unwrap(),
            Query::ScoreProfile {
                metric: Metric::Modularity
            }
        );
        assert_eq!(
            Query::parse("coreof 17").unwrap(),
            Query::CoreOfVertex { vertex: 17 }
        );
        assert_eq!(Query::parse("  stats  ").unwrap(), Query::Stats);
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "   ",
            "bestkset",
            "bestkset zz",
            "bestkset ad extra",
            "coreof notanumber",
            "coreof -1",
            "stats now",
            "frobnicate ad",
        ] {
            let err = Query::parse(bad).unwrap_err();
            assert!(matches!(err, EngineError::BadQuery(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn metric_lookup() {
        assert_eq!(metric_by_abbrev("ad").unwrap(), Metric::AverageDegree);
        assert_eq!(metric_by_abbrev("sep").unwrap(), Metric::Separability);
        assert!(metric_by_abbrev("xyz").is_err());
    }

    #[test]
    fn answers_render_tab_separated() {
        let a = Answer::BestKSet {
            metric: Metric::AverageDegree,
            k: 2,
            score: 3.5,
        };
        assert_eq!(a.to_line(), "bestkset\tad\tk=2\tscore=3.5");
        let a = Answer::Stats {
            vertices: 12,
            edges: 19,
            kmax: 3,
            forest_nodes: 3,
        };
        assert_eq!(a.to_line(), "stats\tn=12\tm=19\tkmax=3\tcores=3");
        let a = Answer::Profile {
            metric: Metric::CutRatio,
            scores: vec![1.0, 0.5],
        };
        assert_eq!(a.to_line(), "profile\tcr\t1,0.5");
    }

    #[test]
    fn float_rendering_round_trips() {
        // Display uses the shortest round-trip form, so rendered scores
        // parse back to the exact same bits — the property the thread-count
        // diff jobs rely on.
        for x in [1.0 / 3.0, 2.0 * 19.0 / 12.0, f64::INFINITY] {
            let s = format!("{x}");
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }
}
