//! One job = one checkpointed streaming run.
//!
//! The runner is deliberately thin: everything that determines bytes is
//! shared with the batch CLI — [`RunSpec`] for the world and the
//! checkpoint identity, [`bundle::stream_run_files`] for the metrics,
//! the pinned ledger event order and the exhibit file set. The runner
//! only adds the service extras (per-exhibit Markdown, the country
//! drill-down document) *after* the batch-identical artifacts, and hands
//! the engine's progress observer and the ledger's tail subscriber to
//! the caller, who feeds both into the job's SSE stream.

use bb_dataset::RunSpec;
use bb_engine::{run_sharded_checkpointed, CheckpointStore, ShardPlan, ShardProgress};
use bb_netsim::chaos::ChaosSpec;
use bb_report::bundle;
use bb_study::StreamStudy;
use bb_trace::EventTail;
use std::path::Path;

/// Parse a `POST /jobs` body into the run it asks for: a JSON object
/// with optional `seed`, `users`, `scenario`, `severity` fields laid over
/// `defaults` (the server's seed, user count, window and FCC cohort).
/// Everything that changes the result is in the spec; everything that
/// does not (thread plan, cache location) lives in the server config.
/// Unknown fields are rejected so a typo cannot silently request the
/// default run, and the chaos pair is checked by [`ChaosSpec::parse`]
/// exactly as the command line checks `--chaos`/`--severity`.
pub fn parse_job(body: &[u8], defaults: RunSpec) -> Result<RunSpec, String> {
    let value: serde_json::Value = if body.is_empty() {
        serde_json::Value::Object(Default::default())
    } else {
        serde_json::from_slice(body).map_err(|e| format!("invalid JSON body: {e}"))?
    };
    let obj = value.as_object().ok_or("job spec must be a JSON object")?;
    let mut spec = defaults;
    let mut scenario = None;
    let mut severity = None;
    for (key, v) in obj {
        match key.as_str() {
            "seed" => spec.seed = v.as_u64().ok_or("seed must be an integer")?,
            "users" => {
                spec.users = Some(v.as_u64().filter(|&u| u > 0).ok_or("users must be >= 1")?);
            }
            "scenario" => {
                if !v.is_null() {
                    scenario = Some(v.as_str().ok_or("scenario must be a string")?);
                }
            }
            "severity" => severity = Some(v.as_f64().ok_or("severity must be a number")?),
            other => return Err(format!("unknown job field {other:?}")),
        }
    }
    spec.chaos = ChaosSpec::parse(scenario, severity)?;
    Ok(spec)
}

/// A job's spec as the JSON object job listings and SSE frames carry.
pub fn job_json(spec: &RunSpec) -> serde_json::Value {
    serde_json::json!({
        "seed": spec.seed,
        "users": spec.users,
        "scenario": spec.chaos.map(|c| c.scenario.name()),
        "severity": spec.chaos.map_or(ChaosSpec::DEFAULT_SEVERITY, |c| c.severity),
    })
}

/// Run `spec` as a checkpointed streaming fold under `plan` and return
/// the artifact file set: first the batch-identical files
/// (`metrics.json`, `ledger.jsonl`, the exhibit bundle), then the service
/// extras (`{id}.md` per exhibit, `countries.json`). The checkpoint under
/// `checkpoint_dir` is always resumed when compatible, so an interrupted
/// job continues instead of restarting. `progress` sees every shard
/// (restored or computed) and `ledger` every ledger event, in emit order.
pub fn run_job(
    spec: &RunSpec,
    plan: ShardPlan,
    checkpoint_dir: &Path,
    progress: Option<&(dyn Fn(ShardProgress) + Sync)>,
    ledger: Option<EventTail>,
) -> Result<Vec<(String, String)>, String> {
    let world = spec.world();
    let population = world.population();
    let store = CheckpointStore::new(checkpoint_dir, spec.checkpoint_params());
    let ((study, registry), _, _) = run_sharded_checkpointed(
        population.n_users(),
        plan,
        &store,
        true,
        progress,
        |range| population.fold(range, StreamStudy::new(), |s, r, u| s.absorb(r, u)),
    )
    .map_err(|e| e.to_string())?;
    let mut files = bundle::stream_run_files(spec.seed, &study, registry, ledger);
    for id in bundle::stream_exhibit_ids(&study) {
        if let Some(md) = bundle::stream_exhibit_markdown(&study, &id) {
            files.push((format!("{id}.md"), md));
        }
    }
    files.push(("countries.json".to_string(), countries_json(&study)));
    Ok(files)
}

/// Round to 4 decimals for a byte-stable drill-down document.
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// The per-country drill-down: one object per observed country (sorted
/// by code — the study keeps a BTreeMap) with capacity and utilisation
/// quantiles from the mergeable sketches.
fn countries_json(study: &StreamStudy) -> String {
    let mut countries = serde_json::Map::new();
    for (code, sketch) in &study.by_country {
        let quantiles = |s: &bb_engine::EcdfSketch| {
            serde_json::json!({
                "n": s.count(),
                "p10": s.quantile(0.10).map(round4),
                "median": s.median().map(round4),
                "p90": s.quantile(0.90).map(round4),
            })
        };
        countries.insert(
            code.to_string(),
            serde_json::json!({
                "capacity_mbps": quantiles(&sketch.capacity),
                "utilization": quantiles(&sketch.utilization),
            }),
        );
    }
    serde_json::to_string_pretty(&serde_json::Value::Object(countries)).expect("serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RunSpec {
        RunSpec {
            users: Some(500),
            ..RunSpec::paper(7)
        }
    }

    #[test]
    fn job_spec_parses_defaults_and_rejects_bad_fields() {
        let spec = parse_job(b"", defaults()).unwrap();
        assert_eq!(spec, defaults());
        let spec = parse_job(
            br#"{"seed": 2, "scenario": "omnibus", "severity": 0.25}"#,
            defaults(),
        )
        .unwrap();
        assert_eq!(spec.seed, 2);
        assert_eq!(spec.chaos.unwrap().label(), "omnibus@0.25");
        for bad in [
            &br#"{"users": 0}"#[..],
            br#"{"severity": 1.5}"#,
            br#"{"scenario": "nope"}"#,
            br#"{"scenario": "omnibus", "severity": 1.5}"#,
            br#"{"severity": 0.5}"#,
            br#"{"scenario": null, "severity": 0.5}"#,
            br#"{"typo": 1}"#,
            br#"[1, 2]"#,
            br#"{"#,
        ] {
            assert!(parse_job(bad, defaults()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn job_json_keeps_the_served_shape() {
        let clean = parse_job(b"{}", defaults()).unwrap();
        assert_eq!(
            job_json(&clean),
            serde_json::json!({"seed": 7, "users": 500, "scenario": serde_json::Value::Null, "severity": 0.5})
        );
        let chaotic = parse_job(
            br#"{"scenario": "clock-skew", "severity": 0.25}"#,
            defaults(),
        )
        .unwrap();
        assert_eq!(
            job_json(&chaotic),
            serde_json::json!({"seed": 7, "users": 500, "scenario": "clock-skew", "severity": 0.25})
        );
    }
}
