//! `needwant` — command-line front end to the reproduction.
//!
//! ```text
//! needwant survey                         # the 99-market retail survey
//! needwant generate --csv users.csv       # dump per-user records
//! needwant exhibit fig1a                  # compute & print one exhibit
//! needwant exhibit table7
//! needwant sweep --seeds 5                # robustness across seeds
//! ```
//!
//! Common options: `--seed S`, `--scale N`, `--days D`, `--fcc N`. They
//! describe a materialised [`RunSpec`], validated like every other
//! surface's: a world that cannot be laid out exits 2 with a message.

use needwant::dataset::RunSpec;
use needwant::report::text;
use needwant::study::{robustness, StudyReport};
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        exit(2);
    }
    let command = args.remove(0);

    // Shared world options: a small materialised world.
    let mut spec = RunSpec {
        scale: 4.0,
        days: 3,
        fcc_users: 300,
        ..RunSpec::paper(20141105)
    };
    let mut csv_path: Option<String> = None;
    let mut n_seeds: u64 = 5;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => spec.seed = parse(&val(), "--seed"),
            "--scale" => spec.scale = parse(&val(), "--scale"),
            "--days" => spec.days = parse(&val(), "--days"),
            "--fcc" => spec.fcc_users = parse(&val(), "--fcc"),
            "--seeds" => n_seeds = parse(&val(), "--seeds"),
            "--csv" => csv_path = Some(val()),
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }

    let valid = match n_seeds {
        0 => Err("--seeds must be at least 1".to_string()),
        _ => spec.validate(),
    };
    if let Err(err) = valid {
        eprintln!("{err}");
        exit(2);
    }

    match command.as_str() {
        "survey" => survey(&spec),
        "generate" => generate(&spec, csv_path.as_deref()),
        "exhibit" => {
            let Some(id) = positional.first() else {
                eprintln!("usage: needwant exhibit <id>   (e.g. fig1a, table1, table7)");
                exit(2);
            };
            exhibit(&spec, id);
        }
        "sweep" => sweep(&spec, n_seeds),
        other => {
            eprintln!("unknown command {other}");
            usage();
            exit(2);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} got an unparsable value: {s}");
        exit(2);
    })
}

fn usage() {
    eprintln!("usage: needwant <survey|generate|exhibit <id>|sweep> [options]");
    eprintln!("  options: --seed S --scale N --days D --fcc N --csv FILE --seeds N");
}

fn survey(spec: &RunSpec) {
    let ds = spec.world().generate();
    println!(
        "{} markets, {} plans\n",
        ds.survey.len(),
        ds.survey.n_plans()
    );
    println!(
        "{:<8} {:>12} {:>14} {:>8}",
        "country", "access $/mo", "upgrade $/Mb", "plans"
    );
    for (country, entry) in ds.survey.iter() {
        let access = entry
            .catalog
            .price_of_access()
            .map(|p| format!("{:.0}", p.usd()))
            .unwrap_or_else(|| "—".into());
        let upgrade = entry
            .catalog
            .upgrade_cost()
            .map(|p| format!("{:.2}", p.usd()))
            .unwrap_or_else(|| "r<0.4".into());
        println!(
            "{:<8} {:>12} {:>14} {:>8}",
            country.to_string(),
            access,
            upgrade,
            entry.catalog.len()
        );
    }
    println!("\nTable 5 (regional upgrade-cost shares):");
    for row in ds.survey.table5() {
        println!(
            "  {:<28} >$1: {:>3.0}%  >$5: {:>3.0}%  >$10: {:>3.0}%  ({} countries)",
            row.region,
            row.share_above_1 * 100.0,
            row.share_above_5 * 100.0,
            row.share_above_10 * 100.0,
            row.n_countries
        );
    }
}

fn generate(spec: &RunSpec, csv_path: Option<&str>) {
    let ds = spec.world().generate();
    let mut csv = String::from(
        "user,country,year,vantage,capacity_mbps,latency_ms,loss_pct,mean_mbps,peak_mbps,\
         plan_mbps,plan_price,access_price,capped,bt_user,persona\n",
    );
    for r in &ds.records {
        let (mean, peak) = r
            .demand_no_bt
            .map(|d| (d.mean.mbps(), d.peak.mbps()))
            .unwrap_or((f64::NAN, f64::NAN));
        csv.push_str(&format!(
            "{},{},{},{:?},{:.4},{:.1},{:.4},{:.5},{:.5},{:.3},{:.2},{:.2},{},{},{}\n",
            r.user.0,
            r.country,
            r.year,
            r.vantage,
            r.capacity.mbps(),
            r.latency.ms(),
            r.loss.percent(),
            mean,
            peak,
            r.plan_capacity.mbps(),
            r.plan_price.usd(),
            r.access_price.usd(),
            r.plan_capped,
            r.is_bt_user,
            r.persona,
        ));
    }
    match csv_path {
        Some(path) => {
            std::fs::write(path, &csv).unwrap_or_else(|e| {
                eprintln!("writing {path}: {e}");
                exit(1);
            });
            eprintln!("wrote {} records to {path}", ds.records.len());
        }
        None => print!("{csv}"),
    }
}

fn exhibit(spec: &RunSpec, id: &str) {
    let world = spec.world();
    let report = StudyReport::run(&world.generate(), &world.profiles, 30);
    let Some(exhibit) = report.exhibit(id) else {
        eprintln!("unknown exhibit {id} (try fig1a…fig12, table1…table8)");
        exit(2);
    };
    print!("{}", text::render_exhibit(&exhibit));
}

fn sweep(spec: &RunSpec, n_seeds: u64) {
    eprintln!("sweeping {n_seeds} seeds at scale {}…", spec.scale);
    let rows = robustness::seed_sweep(&spec.world_config(), n_seeds);
    print!("{}", robustness::render_sweep(&rows));
    let unstable: Vec<&str> = rows
        .iter()
        .filter(|r| !r.stable())
        .map(|r| r.experiment.as_str())
        .collect();
    if unstable.is_empty() {
        println!("\nall headline findings stable across seeds");
    } else {
        println!("\nnot stable at this scale: {}", unstable.join(", "));
    }
}
