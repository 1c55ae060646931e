//! Regenerate the experiment tables (DESIGN.md §3).
//!
//! ```text
//! tables [all|<id>]...
//! ```
//!
//! `<id>` is any id in [`ipch_bench::experiments::EXPERIMENTS`]; no
//! argument means `all`. Prints each table and writes
//! `bench_results/<id>.csv` at the workspace root. An unknown argument
//! exits 2 before anything runs.

use ipch_bench::experiments::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for arg in &args {
        if arg == "all" {
            selected.extend(EXPERIMENTS);
        } else if let Some(e) = EXPERIMENTS.iter().find(|(id, _)| id == arg) {
            selected.push(e);
        } else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("unknown experiment: {arg} (known: all {})", ids.join(" "));
            std::process::exit(2);
        }
    }
    if args.is_empty() {
        selected.extend(EXPERIMENTS);
    }

    for (id, build) in selected {
        let t = build();
        t.print(id);
        let path = t.write_csv(id).expect("write the table's csv");
        println!("  csv: {}", path.display());
    }
}
