//! Markdown rendering of exhibits.
//!
//! `EXPERIMENTS.md` and the harness's comparison report are Markdown;
//! this module renders exhibits as GitHub-flavoured tables so those
//! documents can embed any exhibit without hand-formatting.

use crate::text;
use bb_study::exhibit::{BarFigure, BinnedFigure, CdfFigure, ExperimentRow, ExperimentTable};
use bb_study::ext::Extensions;
use bb_study::robustness::{SurvivalMatrix, SweepRow};
use bb_study::StudyReport;
use bb_trace::{Event, EventLog, Value};
use std::fmt::Write as _;

/// Escape a cell for a Markdown table.
fn cell(s: &str) -> String {
    s.replace('|', "\\|")
}

/// The percentile columns of [`cdf_figure`].
const CDF_PERCENTILES: [u32; 5] = [10, 25, 50, 75, 90];

/// CDF figure → Markdown: one row per series with n, median, and the
/// x-values at a fixed percentile grid (the first recorded point whose
/// cumulative fraction reaches the percentile). A summary table rather
/// than a point dump — the full resolution lives in the CSV/JSON
/// renders; Markdown is for humans and HTTP responses.
pub fn cdf_figure(f: &CdfFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "**{}** — {}{}\n",
        cell(&f.title),
        cell(&f.x_label),
        if f.log_x { " (log x)" } else { "" }
    );
    let mut header = String::from("| series | n | median |");
    let mut rule = String::from("|---|---|---|");
    for p in CDF_PERCENTILES {
        let _ = write!(header, " p{p} |");
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for s in &f.series {
        let _ = write!(out, "| {} | {} | {:.3} |", cell(&s.label), s.n, s.median);
        for p in CDF_PERCENTILES {
            let q = f64::from(p) / 100.0;
            let x = s
                .points
                .iter()
                .find(|(_, frac)| *frac >= q)
                .or(s.points.last())
                .map(|(x, _)| *x);
            match x {
                Some(x) => {
                    let _ = write!(out, " {x:.3} |");
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Bar figure → Markdown: one row per bar, grouped in figure order.
pub fn bar_figure(f: &BarFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "**{}**\n", cell(&f.title));
    let _ = writeln!(out, "| group | bar | {} | 95% CI | n |", cell(&f.y_label));
    let _ = writeln!(out, "|---|---|---|---|---|");
    for g in &f.groups {
        for b in &g.bars {
            let ci =
                b.ci.map(|(lo, hi)| format!("[{lo:.3}, {hi:.3}]"))
                    .unwrap_or_else(|| "—".into());
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {ci} | {} |",
                cell(&g.label),
                cell(&b.label),
                b.value,
                b.n
            );
        }
    }
    out
}

/// Experiment table → Markdown.
pub fn experiment_table(t: &ExperimentTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} | {} | pairs | % H holds | p-value |",
        cell(&t.control_label),
        cell(&t.treatment_label)
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in &t.rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1}%{} | {} |",
            cell(&r.control),
            cell(&r.treatment),
            r.n_pairs,
            r.percent_holds,
            r.asterisk(),
            text::p_value(r.p_value, 3)
        );
    }
    out
}

/// Binned figure → Markdown (one table per series).
pub fn binned_figure(f: &BinnedFigure) -> String {
    let mut out = String::new();
    for s in &f.series {
        match s.r_log {
            Some(r) => {
                let _ = writeln!(out, "**{}** (r = {:.3})\n", cell(&s.label), r);
            }
            None => {
                let _ = writeln!(out, "**{}**\n", cell(&s.label));
            }
        }
        let _ = writeln!(
            out,
            "| {} | mean {} | 95% CI | n |",
            cell(&f.x_label),
            cell(&f.y_label)
        );
        let _ = writeln!(out, "|---|---|---|---|");
        for p in &s.points {
            let _ = writeln!(
                out,
                "| {:.3} | {:.4} | [{:.4}, {:.4}] | {} |",
                p.x, p.mean, p.ci_lo, p.ci_hi, p.n
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Robustness sweep → Markdown.
pub fn sweep_table(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| experiment | runs | min % | mean % | max % | significant | pairs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1} | {}/{} | {} |",
            cell(&r.experiment),
            r.n_runs,
            r.min,
            r.mean,
            r.max,
            r.n_significant,
            r.n_runs,
            r.total_pairs
        );
    }
    out
}

/// Chaos survival matrix → Markdown: one row per experiment, one value
/// cell per severity (`% H holds (pairs)`, starred when significant),
/// then the three survival thresholds. An em-dash threshold means the
/// finding survived the whole grid.
pub fn survival_matrix(m: &SurvivalMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scenario: `{}` — severity grid {:?}. Cells are \"% H holds (pairs)\"; `*` marks a significant result, `—` a finding that survived the whole grid.",
        m.scenario, m.severities
    );
    let _ = writeln!(out);
    let mut header = String::from("| experiment |");
    let mut rule = String::from("|---|");
    for s in &m.severities {
        let _ = write!(header, " s={s} |");
        rule.push_str("---|");
    }
    header.push_str(" flips at | sig. lost at | pairs gone at |");
    rule.push_str("---|---|---|");
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let threshold = |t: Option<f64>| t.map_or_else(|| "—".to_string(), |s| format!("{s}"));
    for row in &m.rows {
        let _ = write!(out, "| {} |", cell(&row.experiment));
        for c in &row.cells {
            match c.value {
                Some(v) => {
                    let star = if c.significant { "\\*" } else { "" };
                    let _ = write!(out, " {v:.1}%{star} ({}) |", c.pairs);
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let _ = writeln!(
            out,
            " {} | {} | {} |",
            threshold(row.direction_flip_at),
            threshold(row.significance_lost_at),
            threshold(row.pairs_collapse_at)
        );
    }
    out
}

/// A ledger value as a short Markdown cell.
fn value_cell(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => {
            if x.is_finite() {
                format!("{x:.3e}")
            } else {
                "—".into()
            }
        }
        Value::Str(s) => cell(s),
        Value::Bool(b) => b.to_string(),
        Value::Hist(h) => format!("n={} (≤0: {})", h.count(), h.nonpositive()),
        Value::Counts(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(label, count)| format!("{}: {count}", cell(label)))
                .collect();
            if parts.is_empty() {
                "—".into()
            } else {
                parts.join(", ")
            }
        }
    }
}

/// Look up `key` on `event`, rendering missing fields as an em-dash.
fn field(event: &Event, key: &str) -> String {
    event.get(key).map(value_cell).unwrap_or_else(|| "—".into())
}

/// Provenance ledger → Markdown appendix: matching audits, sign tests,
/// and per-exhibit input/drop accounting, in ledger (= exhibit) order.
pub fn provenance(log: &EventLog) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Provenance\n");
    let _ = writeln!(
        out,
        "Every row below is recorded in the `--ledger` event log while the"
    );
    let _ = writeln!(
        out,
        "exhibits are computed; the log is byte-identical for any shard/thread plan.\n"
    );

    let audits: Vec<&Event> = log.events().filter(|e| e.kind() == "match_audit").collect();
    if !audits.is_empty() {
        let _ = writeln!(out, "### Matching audits\n");
        let _ = writeln!(
            out,
            "| exhibit | experiment | control pool | treated | eligible | pairs | unmatched | caliper rejections |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for e in &audits {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                field(e, "exhibit"),
                field(e, "experiment"),
                field(e, "control_pool"),
                field(e, "treated_considered"),
                field(e, "candidates_eligible"),
                field(e, "pairs_formed"),
                field(e, "treated_unmatched"),
                field(e, "caliper_rejections"),
            );
        }
        let _ = writeln!(out);
    }

    let tests: Vec<&Event> = log.events().filter(|e| e.kind() == "sign_test").collect();
    if !tests.is_empty() {
        let _ = writeln!(out, "### Sign tests\n");
        let _ = writeln!(
            out,
            "| exhibit | experiment | n | positives | ties | p-value | direction | kept |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for e in &tests {
            let p = match e.get("p_value") {
                Some(&Value::F64(p)) if p.is_finite() => text::p_value(p, 3),
                _ => field(e, "p_value"),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {p} | {} | {} |",
                field(e, "exhibit"),
                field(e, "experiment"),
                field(e, "n"),
                field(e, "positives"),
                field(e, "ties"),
                field(e, "direction"),
                field(e, "kept"),
            );
        }
        let _ = writeln!(out);
    }

    let exhibits: Vec<&Event> = log.events().filter(|e| e.kind() == "exhibit").collect();
    if !exhibits.is_empty() {
        let _ = writeln!(out, "### Exhibit inputs\n");
        let _ = writeln!(out, "| exhibit | accounting |");
        let _ = writeln!(out, "|---|---|");
        for e in &exhibits {
            let rest: Vec<String> = e
                .fields()
                .filter(|(k, _)| *k != "id")
                .map(|(k, v)| format!("{k} = {}", value_cell(v)))
                .collect();
            let _ = writeln!(out, "| {} | {} |", field(e, "id"), rest.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

/// The paper run's `experiments.md`: the paper-vs-measured comparison of
/// every exhibit, the extensions, the seed sweep (its seed count and rows)
/// and the chaos survival matrix when the run made them, and the
/// provenance appendix of `ledger`.
pub fn experiments(
    report: &StudyReport,
    ext: &Extensions,
    sweep: Option<(u64, &[SweepRow])>,
    chaos: Option<&SurvivalMatrix>,
    ledger: &EventLog,
) -> String {
    let mut md = paper_comparison(report);
    md.push_str(&extensions(ext));
    if let Some((seeds, rows)) = sweep {
        let _ = writeln!(
            md,
            "## Robustness across seeds\n\n\
             Each experiment pooled and re-run over {seeds} regenerated worlds (reduced scale):\n"
        );
        md.push_str(&sweep_table(rows));
        md.push('\n');
    }
    if let Some(matrix) = chaos {
        let _ = writeln!(
            md,
            "## Robustness under degraded collection\n\n\
             The full experiment battery re-run while the `{}` fault scenario degrades \
             collection at increasing severity (reduced-scale world, deterministic in the seed):\n",
            matrix.scenario
        );
        md.push_str(&survival_matrix(matrix));
        md.push('\n');
    }
    md.push_str(&provenance(ledger));
    md
}

/// The paper's published sign tests, `(% H holds, p-value)` per row in its
/// row order, and the labels of Tables 1 and 3, which name their rows by
/// metric and by price bins rather than by the measured groups.
const TABLE1: [(f64, f64); 2] = [(66.8, 1.94e-25), (70.3, 1.13e-36)];
const TABLE1_ROWS: [&str; 2] = ["Average usage", "Peak usage"];
const TABLE3: [(f64, f64); 2] = [(63.4, 8.89e-22), (72.2, 5.40e-10)];
const TABLE3_ROWS: [&str; 2] = ["($0,$25] vs ($25,$60]", "($0,$25] vs ($60,∞)"];
const TABLE6A: [(f64, f64); 2] = [(53.8, 0.00717), (58.7, 0.0110)];
const TABLE6B: [(f64, f64); 2] = [(52.2, 0.0947), (56.3, 0.0265)];
const TABLE7: [(f64, f64); 4] = [
    (63.5, 8.25e-3),
    (63.4, 6.2e-3),
    (59.4, 7.66e-3),
    (56.3, 0.033),
];
const TABLE8: [(f64, f64); 4] = [
    (55.4, 5.85e-6),
    (53.4, 8.55e-4),
    (58.9, 2.16e-5),
    (53.8, 0.036),
];
/// The rest of the published values: Fig. 2's correlations, Table 4's
/// case study (users, median Mbps, USD price, % of income) and Table 5's
/// regional shares above $1/$5/$10 per Mbps.
const FIG2_R: [f64; 4] = [0.870, 0.913, 0.885, 0.890];
const TABLE4: [(&str, u32, f64, f64, f64); 4] = [
    ("BW", 67, 0.517, 100.0, 8.0),
    ("SA", 120, 4.21, 79.0, 3.3),
    ("US", 3759, 17.6, 53.0, 1.3),
    ("JP", 73, 29.0, 37.0, 1.3),
];
const TABLE5: [(&str, &str); 9] = [
    ("Africa", "100/84/74"),
    ("Asia (all)", "67/47/33"),
    ("Asia (developed)", "0/0/0"),
    ("Asia (developing)", "83/58/42"),
    ("Central America/Caribbean", "100/86/14"),
    ("Europe", "10/0/0"),
    ("Middle East", "86/57/43"),
    ("North America", "0/0/0"),
    ("South America", "78/55/33"),
];

/// Sign-test rows beside the paper's: a `| column | paper %H (p) |
/// measured %H (p) | pairs |` table with one row per `(label, row)`,
/// against the published `(% H holds, p-value)` at the same position
/// (`0% (1.00e0)` past the paper's last row).
fn versus_paper<'a>(
    md: &mut String,
    column: &str,
    rows: impl IntoIterator<Item = (String, &'a ExperimentRow)>,
    paper: &[(f64, f64)],
) {
    let _ = writeln!(md, "| {column} | paper %H (p) | measured %H (p) | pairs |");
    let _ = writeln!(md, "|---|---|---|---|");
    for (i, (label, row)) in rows.into_iter().enumerate() {
        let (ph, pp) = paper.get(i).copied().unwrap_or((0.0, 1.0));
        let _ = writeln!(
            md,
            "| {label} | {ph}% ({pp:.2e}) | {:.1}% ({}) | {} |",
            row.percent_holds,
            text::p_value(row.p_value, 2),
            row.n_pairs
        );
    }
}

/// Rows labelled by their groups, `control vs treatment`.
fn groups(rows: &[ExperimentRow]) -> impl Iterator<Item = (String, &ExperimentRow)> {
    rows.iter()
        .map(|row| (format!("{} vs {}", row.control, row.treatment), row))
}

/// The paper-vs-measured comparison for every exhibit: the head of
/// `experiments.md`.
fn paper_comparison(r: &StudyReport) -> String {
    let mut md = String::from(
        "# Paper vs measured (seed-deterministic run)\n\n\
         Success criteria are *shape, ordering and significance*, not absolute\n\
         traffic volumes — the substrate is a simulator (see DESIGN.md §1).\n\n\
         ## Figure 1 — population characteristics (§2.2)\n\n\
         | quantity | paper | measured |\n|---|---|---|\n",
    );
    let s = &r.fig1.3;
    let pct = |share: f64, digits: usize| format!("{:.*}%", digits, share * 100.0);
    let fig1 = [
        (
            "median download capacity",
            "7.4 Mbps",
            format!("{:.1} Mbps", s.median_capacity_mbps),
        ),
        (
            "capacity IQR",
            "14.3 Mbps",
            format!("{:.1} Mbps", s.capacity_iqr_mbps),
        ),
        ("share below 1 Mbps", "~10%", pct(s.frac_below_1mbps, 0)),
        ("share above 30 Mbps", "~10%", pct(s.frac_above_30mbps, 0)),
        (
            "median latency",
            "~100 ms",
            format!("{:.0} ms", s.median_latency_ms),
        ),
        (
            "share with latency > 500 ms",
            "~5%",
            pct(s.frac_latency_above_500ms, 1),
        ),
        (
            "share with loss > 1%",
            "~14%",
            pct(s.frac_loss_above_1pct, 1),
        ),
    ];
    for (quantity, paper, measured) in fig1 {
        let _ = writeln!(md, "| {quantity} | {paper} | {measured} |");
    }

    md.push_str(
        "\n## Figure 2 — usage vs capacity (§3.1)\n\n\
         | panel | paper r | measured r | bins |\n|---|---|---|---|\n",
    );
    for (fig, paper_r) in r.fig2.iter().zip(FIG2_R) {
        let series = &fig.series[0];
        let measured = series.r_log.map_or("n/a".into(), |v| format!("{v:.3}"));
        let bins = series.points.len();
        let _ = writeln!(md, "| {} | {paper_r:.3} | {measured} | {bins} |", fig.title);
    }

    md.push_str("\n## Table 1 — individual upgrades (§3.2)\n\n");
    let labels = TABLE1_ROWS.map(String::from).into_iter();
    versus_paper(&mut md, "metric", labels.zip(&r.table1.rows), &TABLE1);

    md.push_str(
        "\n## Figure 4 — movers' demand CDFs (§3.2)\n\n\
         Paper: median mean usage roughly doubles (95 → 189 kbps); median\n\
         peak usage more than triples (192 → 634 kbps).\n\n",
    );
    for fig in r.fig4.iter().filter(|f| f.series.len() == 2) {
        let (slow, fast) = (fig.series[0].median, fig.series[1].median);
        let _ = writeln!(
            md,
            "- {}: slow median {:.0} kbps → fast median {:.0} kbps (×{:.1})",
            fig.title,
            slow * 1e3,
            fast * 1e3,
            fast / slow.max(1e-9)
        );
    }
    md.push('\n');

    for (label, table) in [("Dasu", &r.table2.0), ("FCC", &r.table2.1)] {
        let _ = writeln!(
            md,
            "## Table 2 ({label}) — matched capacity bins (§3.2)\n\n```\n{}```\n",
            text::render_experiment_table(table)
        );
    }
    let share = bb_study::sec4::share_of_tiers_with_significant_change(&r.year_experiment);
    let _ = writeln!(
        md,
        "Paper: the Dasu effect is strongest below ~6.4 Mbps and fades above\n\
         12.8 Mbps; the FCC (US-only) effect persists across all bins.\n\n\
         ## §4 — longitudinal (Fig. 6 + per-tier experiment)\n\n\
         Paper: no significant per-tier change between 2011 and 2013.\n\
         Measured: {:.0}% of testable tiers show a conclusive change ({} tiers tested).\n",
        share * 100.0,
        r.year_experiment.rows.len()
    );

    md.push_str("## Table 3 — price of access (§5)\n\n");
    let labels = (0..).map(|i| TABLE3_ROWS.get(i).map_or("extra", |l| l).to_string());
    versus_paper(&mut md, "comparison", labels.zip(&r.table3.rows), &TABLE3);

    md.push_str(
        "\n## Table 4 — case study (§5)\n\n\
         | country | users (paper) | median cap (paper) | price (paper) | share of income (paper) \
         | users | median cap | price | share |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for ((code, users, cap, price, share), row) in TABLE4.iter().zip(&r.table4) {
        let _ = writeln!(
            md,
            "| {code} | {users} | {cap} Mbps | ${price} | {share}% | {} | {:.2} Mbps | ${:.0} | {:.1}% |",
            row.n_users,
            row.median_capacity.mbps(),
            row.price.usd(),
            row.price_share_of_income * 100.0
        );
    }

    md.push_str("\n## Figures 7–9 — utilisation orderings (§5)\n\n");
    if r.fig7[1].series.len() == 4 {
        let medians: Vec<String> = r.fig7[1]
            .series
            .iter()
            .map(|s| format!("{} {:.0}%", s.label, s.median * 100.0))
            .collect();
        let _ = writeln!(
            md,
            "Paper: peak utilisation orders BW > SA > US > JP. Measured medians: {}.\n",
            medians.join(", ")
        );
    }

    let fig10 = &r.fig10.0.series[0];
    let _ = writeln!(
        md,
        "## Figure 10 / Table 5 / census (§6)\n\n\
         Measured upgrade-cost CDF spans {} markets (median ${:.2}/Mbps).\n\
         Correlation census: paper 66% strong / 81% moderate; measured {:.0}% / {:.0}%.\n\n\
         | region | paper >$1/$5/$10 | measured >$1/$5/$10 | countries |\n|---|---|---|---|",
        fig10.n,
        fig10.median,
        r.census.share_strong * 100.0,
        r.census.share_moderate * 100.0
    );
    for row in &r.table5 {
        let paper = TABLE5.iter().find(|(region, _)| *region == row.region);
        let _ = writeln!(
            md,
            "| {} | {} | {:.0}/{:.0}/{:.0} | {} |",
            row.region,
            paper.map_or("—", |(_, shares)| shares),
            row.share_above_1 * 100.0,
            row.share_above_5 * 100.0,
            row.share_above_10 * 100.0,
            row.n_countries
        );
    }

    md.push_str("\n## Table 6 — cost of increasing capacity (§6)\n\n");
    let panels = [("w/ BitTorrent", &TABLE6A), ("w/o BitTorrent", &TABLE6B)];
    for ((label, paper), table) in panels.into_iter().zip(&r.table6) {
        let _ = writeln!(md, "### {label}\n");
        versus_paper(&mut md, "comparison", groups(&table.rows), paper);
        md.push('\n');
    }

    md.push_str("## Table 7 — latency (§7.1)\n\n");
    let rows = r.table7.rows.iter().map(|row| (row.treatment.clone(), row));
    versus_paper(&mut md, "treatment bin", rows, &TABLE7);
    if let Some(row) = &r.india_vs_us {
        let _ = writeln!(
            md,
            "\nIndia vs capacity-matched US (paper: lower demand 62% of the time,\n\
             p < 0.001): measured {:.1}% ({}) over {} pairs.\n",
            row.percent_holds,
            text::p_value(row.p_value, 2),
            row.n_pairs
        );
    }

    md.push_str("## Table 8 — packet loss (§7.2)\n\n");
    versus_paper(&mut md, "comparison", groups(&r.table8.rows), &TABLE8);
    md.push('\n');
    md
}

/// Markdown for the beyond-the-paper extensions.
fn extensions(ext: &Extensions) -> String {
    let mut md = format!(
        "## Extensions (beyond the paper)\n\n\
         Usage caps (Chetty et al., §8), user personas (§10 future work),\n\
         and the natural-experiment vs stratified-QED design comparison (§8):\n\n\
         ```\n{}```\n\n",
        text::render_experiment_table(&ext.table)
    );
    if let Some(sep) = &ext.separations {
        let _ = writeln!(
            md,
            "KS separation of India vs the rest: latency D = {:.2} (p = {:.1e}), loss D = {:.2} (p = {:.1e}).\n",
            sep.latency.statistic, sep.latency.p_value, sep.loss.statistic, sep.loss.p_value
        );
    }
    if !ext.uploads.is_empty() {
        md.push_str(
            "| group | users | down (Mbps) | up (Mbps) | up/down |\n|---|---|---|---|---|\n",
        );
        for row in &ext.uploads {
            let _ = writeln!(
                md,
                "| {} | {} | {:.2} | {:.2} | {:.2} |",
                row.group, row.n_users, row.down_mbps, row.up_mbps, row.ratio
            );
        }
        md.push('\n');
    }
    if !ext.personas.is_empty() {
        md.push_str(
            "| persona | users | mean demand (Mbps) | BitTorrent share |\n|---|---|---|---|\n",
        );
        for row in &ext.personas {
            let (n, demand, bt) = (row.n_users, row.mean_demand_mbps, row.bt_share * 100.0);
            let _ = writeln!(md, "| {} | {n} | {demand:.2} | {bt:.0}% |", row.persona);
        }
        md.push('\n');
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_study::exhibit::*;

    #[test]
    fn experiment_markdown_shape() {
        let t = ExperimentTable {
            id: "x".into(),
            title: "T".into(),
            control_label: "Control".into(),
            treatment_label: "Treatment".into(),
            rows: vec![ExperimentRow {
                control: "(0, 64]".into(),
                treatment: "(64, 128]".into(),
                n_pairs: 42,
                percent_holds: 63.5,
                p_value: 8.25e-3,
                significant: true,
            }],
        };
        let md = experiment_table(&t);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("| 42 | 63.5% | 8.250e-3 |"), "{md}");
    }

    #[test]
    fn pipes_are_escaped() {
        let t = ExperimentTable {
            id: "x".into(),
            title: "T".into(),
            control_label: "a|b".into(),
            treatment_label: "t".into(),
            rows: vec![],
        };
        assert!(experiment_table(&t).contains("a\\|b"));
    }

    #[test]
    fn binned_markdown_carries_r() {
        let f = BinnedFigure {
            id: "f".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![BinnedSeries {
                label: "s".into(),
                r_log: Some(0.87),
                points: vec![BinnedPoint {
                    x: 1.0,
                    mean: 2.0,
                    ci_lo: 1.5,
                    ci_hi: 2.5,
                    n: 9,
                }],
            }],
        };
        let md = binned_figure(&f);
        assert!(md.contains("r = 0.870"));
        assert!(md.contains("| 1.000 | 2.0000 | [1.5000, 2.5000] | 9 |"));
    }

    #[test]
    fn provenance_renders_each_event_kind() {
        let mut log = EventLog::new();
        log.emit("match_audit")
            .str("exhibit", "table2")
            .str("experiment", "capacity (4, 8] vs (8, 16]")
            .u64("control_pool", 120)
            .u64("treated_considered", 60)
            .u64("candidates_eligible", 300)
            .u64("pairs_formed", 40)
            .u64("treated_unmatched", 20)
            .counts(
                "caliper_rejections",
                vec![("latency".into(), 5), ("loss".into(), 0)],
            );
        log.emit("sign_test")
            .str("exhibit", "table2")
            .str("experiment", "capacity (4, 8] vs (8, 16]")
            .u64("n", 38)
            .u64("positives", 25)
            .u64("ties", 2)
            .f64("p_value", 0.036)
            .str("direction", "treatment_higher")
            .bool("kept", true);
        log.emit("exhibit").str("id", "fig2").u64("n", 900);
        let md = provenance(&log);
        assert!(md.contains("### Matching audits"));
        assert!(md.contains("| table2 | capacity (4, 8] vs (8, 16] | 120 | 60 | 300 | 40 | 20 | latency: 5, loss: 0 |"));
        assert!(md.contains("### Sign tests"));
        assert!(md.contains("| 38 | 25 | 2 | 3.600e-2 | treatment_higher | true |"));
        assert!(md.contains("| fig2 | n = 900 |"));
    }

    #[test]
    fn an_underflowed_p_prints_as_a_bound() {
        // Table 1 at the paper's panel size: 12,046 pairs, a tail below
        // f64's range.
        let row = ExperimentRow {
            control: "before".into(),
            treatment: "after".into(),
            n_pairs: 12_046,
            percent_holds: 69.7,
            p_value: 0.0,
            significant: true,
        };
        let table = ExperimentTable {
            id: "table1".into(),
            title: "T".into(),
            control_label: "Control".into(),
            treatment_label: "Treatment".into(),
            rows: vec![row.clone()],
        };
        let txt = text::render_experiment_table(&table);
        assert!(txt.contains("69.7%  < 1e-300\n"), "{txt}");
        let md = experiment_table(&table);
        assert!(md.contains("| 12046 | 69.7% | < 1e-300 |"), "{md}");
        let mut md = String::new();
        versus_paper(&mut md, "row", [("peak".to_string(), &row)], &TABLE1);
        assert!(md.contains("| 69.7% (< 1e-300) | 12046 |"), "{md}");
        let mut log = EventLog::new();
        log.emit("sign_test").f64("p_value", 0.0);
        let md = provenance(&log);
        assert!(md.contains("| — | < 1e-300 | — |"), "{md}");
    }

    #[test]
    fn provenance_of_an_empty_ledger_is_just_the_header() {
        let md = provenance(&EventLog::new());
        assert!(md.contains("## Provenance"));
        assert!(!md.contains("###"));
    }

    #[test]
    fn sweep_markdown() {
        let rows = vec![bb_study::robustness::SweepRow {
            experiment: "table1".into(),
            n_runs: 3,
            min: 60.0,
            mean: 65.0,
            max: 70.0,
            n_significant: 3,
            total_pairs: 300,
        }];
        let md = sweep_table(&rows);
        assert!(md.contains("| table1 | 3 | 60.0 | 65.0 | 70.0 | 3/3 | 300 |"));
    }

    #[test]
    fn survival_matrix_markdown() {
        use bb_study::robustness::{SurvivalCell, SurvivalMatrix, SurvivalRow};
        let cell = |s: f64, v: Option<f64>, sig: bool, pairs: usize| SurvivalCell {
            severity: s,
            value: v,
            significant: sig,
            pairs,
        };
        let m = SurvivalMatrix {
            scenario: "omnibus".into(),
            severities: vec![0.0, 0.5, 1.0],
            rows: vec![SurvivalRow {
                experiment: "table1 movers (peak)".into(),
                cells: vec![
                    cell(0.0, Some(70.0), true, 40),
                    cell(0.5, Some(55.0), false, 12),
                    cell(1.0, None, false, 0),
                ],
                direction_flip_at: None,
                significance_lost_at: Some(0.5),
                pairs_collapse_at: Some(1.0),
            }],
        };
        let md = survival_matrix(&m);
        assert!(
            md.contains(
                "| experiment | s=0 | s=0.5 | s=1 | flips at | sig. lost at | pairs gone at |"
            ),
            "{md}"
        );
        assert!(
            md.contains("| table1 movers (peak) | 70.0%\\* (40) | 55.0% (12) | — | — | 0.5 | 1 |"),
            "{md}"
        );
    }
}
