//! The runs' artifacts, as shared file sets.
//!
//! The batch CLI (`reproduce --users U`), the federation coordinator and
//! the serve gateway's job runner all publish the same artifacts for a
//! streaming study: the metrics registry, the provenance ledger, and per
//! Fig. 1/Fig. 7 panel a text render, a CSV, a gnuplot script and a
//! JSON document; per Fig. 2 panel the same minus the gnuplot script.
//! Keeping the file list (names, contents, order) in one place is what
//! makes the serve cache's byte-identity guarantee cheap: every path
//! calls [`stream_run_files`] and diverges only in where the bytes land
//! (a directory vs. a cache entry). The materialised paper run renders
//! its whole exhibit inventory the same way, through
//! [`paper_exhibit_files`].

use crate::{csv, gnuplot, json, markdown, text};
use bb_study::{provenance, Exhibit, ExperimentTable, StreamStudy, StudyReport};
use bb_trace::{EventLog, EventTail, Registry};

/// Render a pretty JSON document, which cannot fail for exhibit trees.
fn pretty(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("serialise")
}

/// A finished streaming fold's whole artifact set: `metrics.json` (the
/// fold's `registry` plus the study counters), `ledger.jsonl` (the
/// provenance events, each also handed to `tail` as it is emitted), then
/// the [`stream_exhibit_files`].
pub fn stream_run_files(
    seed: u64,
    study: &StreamStudy,
    mut registry: Registry,
    tail: Option<EventTail>,
) -> Vec<(String, String)> {
    provenance::register_stream_metrics(&mut registry, study);
    let mut ledger = EventLog::new();
    if let Some(tail) = tail {
        ledger.set_tail(tail);
    }
    provenance::stream_provenance(&mut ledger, seed, study, &registry);
    let mut files = vec![
        ("metrics.json".to_string(), registry.to_json()),
        ("ledger.jsonl".to_string(), ledger.to_jsonl()),
    ];
    files.extend(stream_exhibit_files(study));
    files
}

/// The full streaming exhibit bundle as `(file name, contents)` pairs,
/// in the batch CLI's write order: Fig. 1 then Fig. 7 panels
/// (`.txt`/`.csv`/`.gp`/`.json` each), then Fig. 2 panels
/// (`.txt`/`.csv`/`.json` — binned panels carry their CI in the data
/// files, no gnuplot script).
pub fn stream_exhibit_files(study: &StreamStudy) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for f in study.figure1().iter().chain(study.figure7().iter()) {
        push_exhibit(&mut files, Exhibit::Cdf(f), true);
    }
    for f in &study.figure2() {
        push_exhibit(&mut files, Exhibit::Binned(f), false);
    }
    files
}

/// The paper run's exhibit files as `(file name, contents)` pairs, in the
/// order `reproduce` writes them: per entry of
/// [`StudyReport::exhibits`] a text render, a CSV, a gnuplot script
/// (figures only) and a JSON document, then the `extensions` table as
/// `ext.txt`.
pub fn paper_exhibit_files(
    report: &StudyReport,
    extensions: &ExperimentTable,
) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for e in report.exhibits() {
        push_exhibit(&mut files, e, true);
    }
    files.push(("ext.txt".into(), text::render_experiment_table(extensions)));
    files
}

/// Append one exhibit's files: its text render, CSV, gnuplot script (a
/// figure's, when `script`) and JSON document.
fn push_exhibit(files: &mut Vec<(String, String)>, e: Exhibit, script: bool) {
    let (csv, json) = match e {
        Exhibit::Cdf(f) => (csv::cdf_to_csv(f), json::cdf_to_json(f)),
        Exhibit::Binned(f) => (csv::binned_to_csv(f), json::binned_to_json(f)),
        Exhibit::Bar(f) => (csv::bar_to_csv(f), json::bar_to_json(f)),
        Exhibit::Table(t) => (csv::experiment_to_csv(t), json::experiment_to_json(t)),
    };
    let gp = match e {
        Exhibit::Cdf(f) if script => Some(gnuplot::cdf_script(f)),
        Exhibit::Binned(f) if script => Some(gnuplot::binned_script(f)),
        Exhibit::Bar(f) if script => Some(gnuplot::bar_script(f)),
        _ => None,
    };
    let id = e.id();
    files.push((format!("{id}.txt"), text::render_exhibit(&e)));
    files.push((format!("{id}.csv"), csv));
    files.extend(gp.map(|gp| (format!("{id}.gp"), gp)));
    files.push((format!("{id}.json"), pretty(&json)));
}

/// The exhibit ids the streaming bundle can serve, in bundle order.
pub fn stream_exhibit_ids(study: &StreamStudy) -> Vec<String> {
    study
        .figure1()
        .iter()
        .chain(study.figure7().iter())
        .map(|f| f.id.clone())
        .chain(study.figure2().iter().map(|f| f.id.clone()))
        .collect()
}

/// One exhibit as Markdown, or `None` for an unknown id. The gateway's
/// `GET /exhibits/{id}` uses this for its human-readable content type.
pub fn stream_exhibit_markdown(study: &StreamStudy, id: &str) -> Option<String> {
    if let Some(f) = study
        .figure1()
        .iter()
        .chain(study.figure7().iter())
        .find(|f| f.id == id)
    {
        return Some(markdown::cdf_figure(f));
    }
    study
        .figure2()
        .iter()
        .find(|f| f.id == id)
        .map(markdown::binned_figure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_matches_the_id_list_and_file_multiplicity() {
        let study = StreamStudy::new();
        let ids = stream_exhibit_ids(&study);
        assert_eq!(ids.len(), 9, "fig1a-c, fig7a-b, fig2a-d: {ids:?}");
        let files = stream_exhibit_files(&study);
        // 5 CDF panels × 4 files + 4 binned panels × 3 files.
        assert_eq!(files.len(), 5 * 4 + 4 * 3);
        for id in &ids {
            assert!(files.iter().any(|(name, _)| name == &format!("{id}.txt")));
            assert!(files.iter().any(|(name, _)| name == &format!("{id}.json")));
            assert!(stream_exhibit_markdown(&study, id).is_some());
        }
        assert!(stream_exhibit_markdown(&study, "fig99").is_none());
    }
}
