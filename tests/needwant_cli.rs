//! The `needwant` command line: a world option that cannot be laid out
//! exits 2 with a message instead of panicking or silently running
//! another world, and `exhibit` prints the inventory's text render of the
//! id it names.

use needwant::dataset::RunSpec;
use needwant::report::text;
use needwant::study::{Exhibit, StudyReport};
use std::process::{Command, Output};

fn needwant(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_needwant"))
        .args(args)
        .output()
        .expect("spawn needwant")
}

#[test]
fn bad_world_options_exit_2_with_a_message_not_a_panic() {
    let cases: &[&[&str]] = &[
        &["survey", "--scale", "1e300"], // overflows the user index
        &["survey", "--fcc", "18446744073709551615"], // ... and so does this cohort
        &["survey", "--scale", "-3"],    // negative scale
        &["survey", "--scale", "nan"],   // non-finite scale
        &["survey", "--scale", "0"],     // zero scale
        &["exhibit", "table1", "--days", "0"], // empty window
        &["generate", "--days", "0"],    // ... on every command
        &["sweep", "--seeds", "0"],      // an empty sweep
    ];
    for args in cases {
        let out = needwant(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

#[test]
fn exhibit_prints_the_inventory_render_of_its_id() {
    let flags = ["--scale", "1", "--days", "1", "--fcc", "30"];
    let spec = RunSpec {
        scale: 1.0,
        days: 1,
        fcc_users: 30,
        ..RunSpec::paper(20141105)
    };
    let world = spec.world();
    let report = StudyReport::run(&world.generate(), &world.profiles, 30);
    let kind = |id: &str| match report.exhibit(id) {
        Some(Exhibit::Cdf(_)) => "cdf",
        Some(Exhibit::Binned(_)) => "binned",
        Some(Exhibit::Bar(_)) => "bar",
        Some(Exhibit::Table(_)) => "table",
        None => "missing",
    };
    assert_eq!(
        ["fig1a", "fig2a", "fig5a", "table1"].map(kind),
        ["cdf", "binned", "bar", "table"],
        "one id of each kind"
    );
    // One id of each kind, and Table 2 under its alias and its own id.
    for (asked, id) in [
        ("fig1a", "fig1a"),
        ("fig2a", "fig2a"),
        ("fig5a", "fig5a"),
        ("table1", "table1"),
        ("table2", "table2_dasu"),
        ("table2_dasu", "table2_dasu"),
    ] {
        let out = needwant(&[&["exhibit", asked][..], &flags].concat());
        assert!(
            out.status.success(),
            "{asked}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let exhibit = report.exhibit(id).expect("in the inventory");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            text::render_exhibit(&exhibit),
            "{asked}"
        );
    }
    let out = needwant(&[&["exhibit", "fig99"][..], &flags].concat());
    assert_ne!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}
