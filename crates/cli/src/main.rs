//! The `zeroconf` binary: see [`zeroconf_cli::usage`] or run
//! `zeroconf help`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match zeroconf_cli::run(&args) {
        Ok(output) => {
            // `engine` streams its answers itself and returns nothing.
            if !output.is_empty() {
                println!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
