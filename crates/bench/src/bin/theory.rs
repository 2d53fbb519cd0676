//! `theory [GLOB]` — prints the paper's non-simulation results: Table 1
//! and Figs. 14, 17, 18, 20, 24 (default: all; `theory 'fig1*'` selects
//! by name). Simulation figures are `repsbench run --filter 'figNN*'`;
//! the top-level `README.md` indexes both.

use std::process::ExitCode;

fn main() -> ExitCode {
    let filter = std::env::args().nth(1).unwrap_or_else(|| "*".to_string());
    let selected = bench::theory::select(&filter);
    if selected.is_empty() {
        eprintln!("no theory entry matches filter {filter:?}");
        return ExitCode::from(1);
    }
    for (name, print) in selected {
        println!("\n>>> {name}");
        print();
    }
    ExitCode::SUCCESS
}
