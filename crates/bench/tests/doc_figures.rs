//! The performance tables in `README.md` and `EXPERIMENTS.md` are
//! generated, not typed: each block between `<!-- BENCH_x.json -->` and
//! `<!-- /BENCH_x.json -->` must be exactly what `render_table` prints for
//! the checked-in record (the same text `exp_perf` writes to stdout), and
//! every record must appear in at least one block.

use mmio_bench::{render_table, BenchRecord};
use std::collections::BTreeSet;
use std::path::PathBuf;

const RECORDS: [&str; 5] = [
    "BENCH_routing.json",
    "BENCH_pebble.json",
    "BENCH_implicit.json",
    "BENCH_serve.json",
    "BENCH_distsim.json",
];

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every marked block of `text`, as (record name, body between markers).
fn blocks(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("<!-- BENCH_") {
        let open = &rest[at + "<!-- ".len()..];
        let name_end = open.find(" -->").expect("an open marker ends with ` -->`");
        let name = &open[..name_end];
        let body = &open[name_end + " -->".len()..];
        let close = format!("<!-- /{name} -->");
        let end = body
            .find(&close)
            .unwrap_or_else(|| panic!("{name}: no {close}"));
        out.push((name, &body[..end]));
        rest = &body[end + close.len()..];
    }
    out
}

#[test]
fn doc_tables_match_the_checked_in_records() {
    let mut seen = BTreeSet::new();
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let text = read(doc);
        for (name, body) in blocks(&text) {
            assert!(RECORDS.contains(&name), "{doc}: unknown record {name}");
            let record: BenchRecord =
                serde_json::from_str(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                !record.smoke,
                "{name}: the checked-in record is a smoke run"
            );
            let want = render_table(&record.rows);
            assert_eq!(
                body.trim_matches('\n'),
                want.trim_end(),
                "{doc}: the {name} block differs from the record; paste this table:\n{want}"
            );
            seen.insert(name.to_string());
        }
    }
    for name in RECORDS {
        assert!(seen.contains(name), "no doc block shows {name}");
    }
}

#[test]
fn blocks_are_found_between_matching_markers() {
    let text = "a\n<!-- BENCH_x.json -->\n| t |\n<!-- /BENCH_x.json -->\nb <!-- BENCH_y.json --><!-- /BENCH_y.json -->";
    assert_eq!(
        blocks(text),
        vec![("BENCH_x.json", "\n| t |\n"), ("BENCH_y.json", "")]
    );
}
