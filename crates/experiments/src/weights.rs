//! The partition-weight file: `--shard-profile-out` writes it,
//! `--partition-weights` reads it back.
//!
//! One JSON object, schema `pert-shard-weights/v1`:
//!
//! ```json
//! {"schema":"pert-shard-weights/v1",
//!  "targets":["fig6"],
//!  "nodes":3,
//!  "total_events":123,
//!  "weights":[10,100,13]}
//! ```
//!
//! `weights[i]` is the number of simulator events attributed to node id
//! `i` across every profiled run (see `netsim::profile`). `nodes` and
//! `total_events` are redundant with `weights` and exist so a truncated
//! or hand-edited file fails validation loudly (`nodes` must equal the
//! array length, `total_events` its saturating sum). `targets` records
//! which scenarios contributed, because node ids are only meaningful as
//! weights when the consuming run builds the same topology.
//!
//! Both directions go through [`sim_stats::json`], like the trace CLI's.
//! Field order is free; unknown fields, negative or fractional counts,
//! non-string targets and trailing data are rejected.

use sim_stats::json;
use std::fmt::Write as _;

/// A parsed and validated weight file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightFile {
    /// Scenario targets that contributed to the profile.
    pub targets: Vec<String>,
    /// Per-node event counts, indexed by node id.
    pub weights: Vec<u64>,
}

/// Saturating sum of the weights (the `total_events` field).
fn total(weights: &[u64]) -> u64 {
    weights.iter().fold(0u64, |a, &w| a.saturating_add(w))
}

/// Render a weight file body (trailing newline included).
pub fn render(targets: &[String], weights: &[u64]) -> String {
    let mut out = String::from("{\"schema\":\"pert-shard-weights/v1\",\"targets\":[");
    for (i, t) in targets.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        json::push_str(&mut out, t);
    }
    let (nodes, total) = (weights.len(), total(weights));
    let weights: Vec<String> = weights.iter().map(u64::to_string).collect();
    let weights = weights.join(",");
    let _ = writeln!(
        out,
        "],\"nodes\":{nodes},\"total_events\":{total},\"weights\":[{weights}]}}"
    );
    out
}

/// Parse and validate a weight file body.
pub fn parse(text: &str) -> Result<WeightFile, String> {
    let (mut schema, mut targets, mut nodes, mut total_events, mut weights) =
        (None, None, None, None, None);
    let mut p = json::Parser::new(text);
    p.object(|p, field| {
        match field {
            "schema" => schema = Some(p.str()?.into_owned()),
            "targets" => targets = Some(p.array(|p| Ok(p.str()?.into_owned()))?),
            "nodes" => nodes = Some(p.u64()?),
            "total_events" => total_events = Some(p.u64()?),
            "weights" => weights = Some(p.array(json::Parser::u64)?),
            other => return Err(format!("unexpected field {other:?}")),
        }
        Ok(())
    })?;
    p.end()?;

    let schema = schema.ok_or("missing field \"schema\"")?;
    if schema != "pert-shard-weights/v1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let targets = targets.ok_or("missing field \"targets\"")?;
    let nodes = nodes.ok_or("missing field \"nodes\"")?;
    let total_events = total_events.ok_or("missing field \"total_events\"")?;
    let weights = weights.ok_or("missing field \"weights\"")?;
    if nodes != weights.len() as u64 {
        return Err(format!(
            "nodes={nodes} disagrees with weights length {}",
            weights.len()
        ));
    }
    if total_events != total(&weights) {
        return Err(format!(
            "total_events={total_events} disagrees with weight sum {}",
            total(&weights)
        ));
    }
    Ok(WeightFile { targets, weights })
}

/// Read and validate a weight file from disk.
pub fn load(path: &str) -> Result<WeightFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Write a weight file to disk.
pub fn write(path: &str, targets: &[String], weights: &[u64]) -> Result<(), String> {
    std::fs::write(path, render(targets, weights)).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let targets = vec!["fig6".to_string(), "fig12".to_string()];
        let weights = vec![10u64, 0, 100, 13];
        let body = render(&targets, &weights);
        assert_eq!(
            body,
            "{\"schema\":\"pert-shard-weights/v1\",\"targets\":[\"fig6\",\"fig12\"],\
             \"nodes\":4,\"total_events\":123,\"weights\":[10,0,100,13]}\n"
        );
        let parsed = parse(&body).unwrap();
        assert_eq!(parsed, WeightFile { targets, weights });

        // Empty profile (no targets, no nodes) round-trips too.
        let body = render(&[], &[]);
        assert_eq!(
            parse(&body).unwrap(),
            WeightFile {
                targets: vec![],
                weights: vec![]
            }
        );

        // Saturating total: two MAX weights must not panic.
        let body = render(&[], &[u64::MAX, u64::MAX]);
        assert_eq!(parse(&body).unwrap().weights, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn parse_accepts_whitespace_and_any_field_order() {
        let body = "{\n  \"weights\": [1, 2],\n  \"nodes\": 2,\n  \"total_events\": 3,\n  \
                    \"targets\": [],\n  \"schema\": \"pert-shard-weights/v1\"\n}\n";
        assert_eq!(parse(body).unwrap().weights, vec![1, 2]);
    }

    #[test]
    fn parse_rejects_inconsistent_or_malformed_files() {
        let ok = render(&["fig6".to_string()], &[1, 2, 3]);
        // Wrong schema version.
        assert!(parse(&ok.replace("/v1", "/v2"))
            .unwrap_err()
            .contains("schema"));
        // Length mismatch.
        assert!(parse(&ok.replace("\"nodes\":3", "\"nodes\":2"))
            .unwrap_err()
            .contains("nodes"));
        // Sum mismatch.
        assert!(
            parse(&ok.replace("\"total_events\":6", "\"total_events\":7"))
                .unwrap_err()
                .contains("total_events")
        );
        // Unknown field, missing field, trailing garbage, negative weight.
        assert!(parse("{\"schema\":\"pert-shard-weights/v1\",\"bogus\":1}").is_err());
        assert!(parse("{\"schema\":\"pert-shard-weights/v1\"}").is_err());
        assert!(parse(&format!("{ok}x")).unwrap_err().contains("trailing"));
        assert!(parse(&ok.replace("[1,2,3]", "[1,-2,3]")).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn load_and_write_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("pert-weights-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let path = path.to_str().unwrap();
        write(path, &["fig6".to_string()], &[5, 7]).unwrap();
        let w = load(path).unwrap();
        assert_eq!(w.weights, vec![5, 7]);
        assert_eq!(w.targets, vec!["fig6"]);
        assert!(load("/nonexistent/w.json").unwrap_err().contains("reading"));
    }
}
